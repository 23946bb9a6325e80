//! Integration tests spanning the kernels, simulator, and architecture:
//! multi-phase workloads with DMA, multi-group clusters, and bandwidth
//! sensitivity measured end to end.

use mempool_3d::mempool_arch::ClusterConfig;
use mempool_3d::mempool_kernels::matmul::BlockedMatmul;
use mempool_3d::mempool_kernels::Kernel;
use mempool_3d::mempool_kernels::{axpy::Axpy, conv2d::Conv2d, dotprod::DotProduct};
use mempool_3d::mempool_sim::{Cluster, SimParams};

fn cluster_16(bandwidth: u32) -> Cluster {
    let cfg = ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(4)
        .cores_per_tile(4)
        .banks_per_tile(16)
        .bank_words(256)
        .build()
        .expect("valid config");
    Cluster::new(cfg, SimParams::default().with_offchip_bandwidth(bandwidth))
}

#[test]
fn blocked_matmul_verifies_across_bandwidths() {
    // The paper's "benefits on memory bound kernels are obviously larger",
    // on its own kernel: a tile of dimension t reuses each loaded word t
    // times, so small tiles make the blocked matmul memory-bound and the
    // 4 -> 16 B/cycle speedup must fall as t grows.
    let mut speedups = Vec::new();
    for t in [16u32, 32, 64] {
        let mm = BlockedMatmul::new(64, t);
        let mut totals = Vec::new();
        for bw in [4u32, 16, 64] {
            let mut cluster = cluster_16(bw);
            mm.setup(&mut cluster).expect("setup");
            let cycles = mm.run(&mut cluster).expect("run");
            mm.verify(&cluster).expect("verify");
            totals.push((bw, cycles.total()));
        }
        // More bandwidth, fewer total cycles — strictly.
        assert!(
            totals[0].1 > totals[1].1 && totals[1].1 > totals[2].1,
            "t={t}: {totals:?}"
        );
        speedups.push((t, totals[0].1 as f64 / totals[1].1 as f64));
    }
    let [(_, s16), (_, s32), (_, s64)] = speedups[..] else {
        unreachable!()
    };
    assert!(
        s16 > s32 && s32 > s64,
        "4 -> 16 B/cycle speedup must fall as t grows: {speedups:?}"
    );
    assert!(
        s16 - 1.0 >= 2.0 * (s64 - 1.0),
        "t=16 must gain at least twice what t=64 gains: {speedups:?}"
    );
}

#[test]
fn memory_phase_share_shrinks_with_bandwidth() {
    // The paper's Figure 6 intuition, measured end to end: the memory
    // phases dominate at 4 B/cycle and nearly vanish at 64 B/cycle.
    let mm = BlockedMatmul::new(64, 32);
    let mut shares = Vec::new();
    for bw in [4u32, 64] {
        let mut cluster = cluster_16(bw);
        mm.setup(&mut cluster).expect("setup");
        let cycles = mm.run(&mut cluster).expect("run");
        shares.push(cycles.memory as f64 / cycles.total() as f64);
    }
    assert!(shares[0] > 2.0 * shares[1], "memory share {shares:?}");
}

#[test]
fn kernels_verify_on_a_two_group_cluster() {
    // Cross-group traffic changes timing but never results.
    let cfg = ClusterConfig::builder()
        .groups(2)
        .tiles_per_group(4)
        .cores_per_tile(2)
        .banks_per_tile(16)
        .bank_words(256)
        .build()
        .expect("valid config");
    let mut cluster = Cluster::new(cfg.clone(), SimParams::default());
    Axpy::new(1024, 9)
        .run(&mut cluster, 50_000_000)
        .expect("axpy");

    let mut cluster = Cluster::new(cfg.clone(), SimParams::default());
    DotProduct::new(512)
        .run(&mut cluster, 50_000_000)
        .expect("dotprod");

    let mut cluster = Cluster::new(cfg, SimParams::default());
    Conv2d::new(18, 18, [1, 0, 1, 0, 1, 0, 1, 0, 1])
        .run(&mut cluster, 50_000_000)
        .expect("conv2d");
}

#[test]
fn bigger_tiles_amortize_phase_overheads() {
    // At fixed bandwidth, t = 32 tiles beat t = 16 tiles on the same
    // product (more reuse, fewer phases) — the architectural mechanism
    // behind the whole paper.
    let mut small_tiles = cluster_16(4);
    let mm16 = BlockedMatmul::new(64, 16);
    mm16.setup(&mut small_tiles).expect("setup");
    let small = mm16.run(&mut small_tiles).expect("run").total();

    let mut large_tiles = cluster_16(4);
    let mm32 = BlockedMatmul::new(64, 32);
    mm32.setup(&mut large_tiles).expect("setup");
    let large = mm32.run(&mut large_tiles).expect("run").total();

    assert!(
        large < small,
        "t=32 ({large} cycles) must beat t=16 ({small} cycles) at 4 B/cycle"
    );
}

#[test]
fn simulator_statistics_are_conserved() {
    // Retired instructions and access counts must be consistent across
    // the stats aggregation.
    let mut cluster = cluster_16(16);
    Axpy::new(1024, 3)
        .run(&mut cluster, 50_000_000)
        .expect("axpy");
    let stats = cluster.stats();
    let per_core_sum: u64 = stats.cores.iter().map(|c| c.retired).sum();
    assert_eq!(per_core_sum, stats.total_retired());
    let accesses: u64 = stats.accesses_by_class().iter().sum();
    let served: u64 = stats.banks.iter().map(|b| b.served).sum();
    assert_eq!(
        accesses, served,
        "every SPM access must be served exactly once"
    );
}
