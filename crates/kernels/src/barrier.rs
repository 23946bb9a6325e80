//! A sense-reversing barrier built on the A-extension atomics.
//!
//! MemPool synchronizes its cores through the shared SPM. The barrier here
//! is the classic central-counter, generation-flag scheme: each arriving
//! core atomically increments the counter; the last arrival resets it and
//! bumps the generation, releasing the spinners. Its cost — which the
//! paper's "static overhead due to loop setup and synchronization"
//! includes — *emerges* from the simulator's bank serialization rather
//! than being assumed.

/// Returns assembly for one barrier across `num_cores` cores.
///
/// The snippet clobbers `t0`-`t4` and expects:
///
/// * `s10` — address of the counter word (initially 0);
/// * `s11` — address of the generation word (initially 0).
///
/// `suffix` uniquifies the labels so multiple barriers can appear in one
/// program.
pub(crate) fn barrier_asm(num_cores: u32, suffix: &str) -> String {
    format!(
        r#"
            lw   t0, 0(s11)            # my generation
            li   t1, 1
            amoadd.w t2, t1, (s10)
            addi t2, t2, 1
            li   t3, {num_cores}
            bne  t2, t3, bar_wait_{suffix}
            sw   zero, 0(s10)          # last arrival: reset + release
            addi t4, t0, 1
            sw   t4, 0(s11)
            j    bar_done_{suffix}
        bar_wait_{suffix}:
            lw   t4, 0(s11)
            beq  t4, t0, bar_wait_{suffix}
        bar_done_{suffix}:
        "#
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::ClusterConfig;
    use mempool_isa::Program;
    use mempool_sim::{Cluster, SimParams};

    /// Every core increments a per-core slot before the barrier and then
    /// checks that *all* slots are set after it.
    #[test]
    fn barrier_orders_all_cores() {
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(4)
            .bank_words(256)
            .build()
            .unwrap();
        let n = cfg.num_cores();
        // Memory map: counter at 0x100, generation at 0x104, flags at
        // 0x200 + 4*hartid, result at 0x300 + 4*hartid.
        let src = format!(
            r#"
                li   s10, 0x100
                li   s11, 0x104
                csrr s0, mhartid
                slli s1, s0, 2
                li   s2, 0x200
                add  s2, s2, s1
                li   s3, 1
                sw   s3, 0(s2)          # set my flag
                {barrier}
                # after the barrier, sum all flags
                li   s4, 0              # sum
                li   s5, 0x200
                li   s6, {n}
            sum_loop:
                lw   s7, 0(s5)
                add  s4, s4, s7
                addi s5, s5, 4
                addi s6, s6, -1
                bnez s6, sum_loop
                li   s8, 0x300
                add  s8, s8, s1
                sw   s4, 0(s8)
                wfi
            "#,
            barrier = barrier_asm(n, "0"),
        );
        let mut cluster = Cluster::new(cfg, SimParams::default());
        cluster.load_program(Program::assemble(&src).unwrap());
        cluster.preload_icaches();
        cluster.run(1_000_000).unwrap();
        for core in 0..n {
            let sum = cluster.read_spm_word(0x300 + 4 * core).unwrap();
            assert_eq!(sum, n, "core {core} saw {sum}/{n} flags");
        }
    }

    /// The barrier's cost should grow with the core count (serialized
    /// atomics on one bank).
    #[test]
    fn barrier_cost_grows_with_cores() {
        let mut costs = Vec::new();
        for (tiles, cores) in [(1u32, 2u32), (4, 4)] {
            let cfg = ClusterConfig::builder()
                .groups(1)
                .tiles_per_group(tiles)
                .cores_per_tile(cores)
                .banks_per_tile(4)
                .bank_words(256)
                .build()
                .unwrap();
            let n = cfg.num_cores();
            let src = format!("li s10, 0x100\nli s11, 0x104\n{}\nwfi", barrier_asm(n, "0"));
            let mut cluster = Cluster::new(cfg, SimParams::default());
            cluster.load_program(Program::assemble(&src).unwrap());
            cluster.preload_icaches();
            let cycles = cluster.run(1_000_000).unwrap();
            costs.push((n, cycles));
        }
        assert!(
            costs[1].1 > costs[0].1,
            "barrier over {} cores ({} cycles) should cost more than over {} ({} cycles)",
            costs[1].0,
            costs[1].1,
            costs[0].0,
            costs[0].1
        );
    }
}
