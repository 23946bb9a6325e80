//! The `mem_traffic` workload's two seeded assembly phases.
//!
//! Both run on all 256 cores against the interleaved region, so ~75 % of
//! their accesses leave the issuing core's group — the remote-traffic share
//! that dominates at this scale (arXiv 2303.17742) — and the simulator's
//! bank queues, interconnect and response delivery, not instruction
//! execution, set the host cost. Each phase implements
//! [`mempool_kernels::Kernel`], with a host-side model recomputing every
//! core's checksum and output words.
//!
//! Interleaved-region layout (1 MiB configuration, 768 KiB interleaved):
//!
//! ```text
//! TABLE  512 KiB  read-only words gathered by the random phase
//! SRC    128 KiB  read-only words streamed by the stream phase
//! DST    128 KiB  one private 127-word block per core
//! ```
//!
//! Checksums land in each core's slots of its tile's sequential region.

use mempool_arch::{AddressMap, TileId};
use mempool_isa::Program;
use mempool_kernels::{Kernel, KernelError};
use mempool_sim::Cluster;

use mempool_fault::XorShift64;

use crate::util::mix64;

const TABLE_WORDS: u32 = 128 * 1024;
const SRC_WORDS: u32 = 32 * 1024;
/// Words of DST each core owns; also the stream phase's inner trip count.
/// Odd, so the 256 blocks start in distinct banks (a power-of-two spacing
/// would put 32 cores on each of 8 banks and turn both phases into a
/// hot-bank test, which `sim.hotbank_*` already is).
const BLOCK_WORDS: u32 = 127;
/// Cores start their streams this many words apart. Odd, so the 256 start
/// banks are distinct (65 is coprime to the 1024 banks).
const START_SPACING: u32 = 65;
/// Word offsets of the second and third stream behind the first.
const STREAM_B_OFFSET: u32 = 17;
const STREAM_C_OFFSET: u32 = 41;
/// Largest stream stride in words, keeping every access inside SRC.
const MAX_STRIDE: u32 = 95;

/// Base addresses shared by both phases.
#[derive(Debug, Clone, Copy)]
struct Layout {
    table: u32,
    src: u32,
    dst: u32,
    seq_bytes_per_tile: u32,
    cores_per_tile: u32,
}

impl Layout {
    fn of(cluster: &Cluster) -> Result<Self, KernelError> {
        let map: &AddressMap = cluster.storage().map();
        let needed =
            u64::from(TABLE_WORDS + SRC_WORDS + BLOCK_WORDS * cluster.config().num_cores()) * 4;
        if map.interleaved_bytes() < needed || !map.seq_bytes_per_tile().is_power_of_two() {
            return Err(KernelError::BadShape {
                detail: format!(
                    "mem_traffic needs {needed} interleaved bytes, the cluster has {}",
                    map.interleaved_bytes()
                ),
            });
        }
        let table = map.interleaved_base();
        Ok(Layout {
            table,
            src: table + TABLE_WORDS * 4,
            dst: table + (TABLE_WORDS + SRC_WORDS) * 4,
            seq_bytes_per_tile: map.seq_bytes_per_tile() as u32,
            cores_per_tile: cluster.config().cores_per_tile(),
        })
    }

    /// Address of checksum slot `slot` of `core` (8 slots per core at the
    /// bottom of its tile's sequential region).
    fn out_addr(&self, map: &AddressMap, core: u32, slot: u32) -> u32 {
        let tile = TileId(core / self.cores_per_tile);
        map.seq_addr(tile, u64::from((core % self.cores_per_tile) * 8 + slot))
    }

    /// Assembly leaving the address of `slot` of the running core in `t1`
    /// (`t0` = hartid; clobbers `t4`).
    fn out_addr_asm(&self, slot: u32) -> String {
        format!(
            "srli t1, t0, {tile_shift}\n\
             slli t1, t1, {seq_shift}\n\
             andi t4, t0, {lane_mask}\n\
             slli t4, t4, 5\n\
             add  t1, t1, t4\n\
             addi t1, t1, {slot_off}",
            tile_shift = self.cores_per_tile.trailing_zeros(),
            seq_shift = self.seq_bytes_per_tile.trailing_zeros(),
            lane_mask = self.cores_per_tile - 1,
            slot_off = slot * 4,
        )
    }
}

fn next_u32(rng: &mut XorShift64) -> u32 {
    (rng.next_u64() >> 32) as u32
}

fn check_word(
    cluster: &Cluster,
    addr: u32,
    expected: u32,
    what: impl Fn() -> String,
) -> Result<(), KernelError> {
    let got = cluster.read_spm_word(addr)?;
    if got == expected {
        Ok(())
    } else {
        Err(KernelError::Mismatch {
            detail: format!("{}: {got:#x}, expected {expected:#x}", what()),
        })
    }
}

/// Streaming phase: three post-incrementing load streams with seed-derived
/// odd strides over the shared SRC, one post-incrementing store stream into
/// the core's private DST block — 4 memory instructions in a 9-instruction
/// loop body (44 %).
#[derive(Debug, Clone)]
pub struct StreamPhase {
    /// Odd word strides of the three load streams.
    strides: [u32; 3],
    passes: u32,
    src: Vec<u32>,
}

impl StreamPhase {
    pub fn new(seed: u64, passes: u32) -> Self {
        let mut rng = XorShift64::new(mix64(seed ^ 0x5712_ea4d));
        let strides = [(); 3].map(|()| 3 + 2 * rng.below(u64::from(MAX_STRIDE - 1) / 2) as u32);
        let src = (0..SRC_WORDS).map(|_| next_u32(&mut rng)).collect();
        StreamPhase {
            strides,
            passes,
            src,
        }
    }

    /// First SRC word core `core` touches in pass `pass`.
    fn start(core: u32, pass: u32) -> u32 {
        core * START_SPACING + pass
    }

    /// The words the loop body stores in one pass, in order.
    fn pass_words(&self, core: u32, pass: u32) -> impl Iterator<Item = u32> + '_ {
        let start = Self::start(core, pass);
        let [sa, sb, sc] = self.strides;
        (0..BLOCK_WORDS).map(move |i| {
            let a = self.src[(start + i * sa) as usize];
            let b = self.src[(start + STREAM_B_OFFSET + i * sb) as usize];
            let c = self.src[(start + STREAM_C_OFFSET + i * sc) as usize];
            a.wrapping_add(b) ^ c
        })
    }
}

impl Kernel for StreamPhase {
    fn name(&self) -> &'static str {
        "mem-traffic-stream"
    }

    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError> {
        let layout = Layout::of(cluster)?;
        let cores = cluster.config().num_cores();
        let last = (cores - 1) * START_SPACING
            + self.passes
            + STREAM_C_OFFSET
            + (BLOCK_WORDS - 1) * MAX_STRIDE;
        if last >= SRC_WORDS {
            return Err(KernelError::BadShape {
                detail: format!("stream phase would read SRC word {last} of {SRC_WORDS}"),
            });
        }
        let [sa, sb, sc] = self.strides.map(|s| s * 4);
        let source = format!(
            r#"
                csrr t0, mhartid
                li   s4, {src}
                li   s5, {dst}
                li   t1, {block_bytes}
                mul  t1, t0, t1
                add  s5, s5, t1            # this core's DST block
                li   t1, {spacing_bytes}
                mul  t1, t0, t1
                add  s4, s4, t1            # this core's first SRC word
                li   a5, 0                 # checksum
                li   t2, {passes}
            pass_loop:
                mv   s0, s4
                addi s1, s4, {off_b}
                addi s2, s4, {off_c}
                mv   s3, s5
                li   t3, {block_words}
            loop:
                p.lw a0, {sa}(s0!)
                p.lw a1, {sb}(s1!)
                p.lw a2, {sc}(s2!)
                add  a3, a0, a1
                xor  a3, a3, a2
                add  a5, a5, a3
                p.sw a3, 4(s3!)
                addi t3, t3, -1
                bnez t3, loop
                addi s4, s4, 4             # the next pass starts one word on
                addi t2, t2, -1
                bnez t2, pass_loop
                {out_addr}
                sw   a5, 0(t1)
                wfi
            "#,
            src = layout.src,
            dst = layout.dst,
            block_bytes = BLOCK_WORDS * 4,
            spacing_bytes = START_SPACING * 4,
            passes = self.passes,
            off_b = STREAM_B_OFFSET * 4,
            off_c = STREAM_C_OFFSET * 4,
            block_words = BLOCK_WORDS,
            out_addr = layout.out_addr_asm(0),
        );
        Ok(Program::assemble(&source)?)
    }

    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let layout = Layout::of(cluster)?;
        for (i, &word) in self.src.iter().enumerate() {
            cluster.write_spm_word(layout.src + i as u32 * 4, word)?;
        }
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let layout = Layout::of(cluster)?;
        let map = cluster.storage().map();
        for core in 0..cluster.config().num_cores() {
            let mut checksum = 0u32;
            for pass in 0..self.passes {
                for word in self.pass_words(core, pass) {
                    checksum = checksum.wrapping_add(word);
                }
            }
            check_word(cluster, layout.out_addr(map, core, 0), checksum, || {
                format!("stream checksum of core {core}")
            })?;
            for (i, word) in self.pass_words(core, self.passes - 1).enumerate() {
                let addr = layout.dst + (core * BLOCK_WORDS + i as u32) * 4;
                check_word(cluster, addr, word, || format!("DST[{core}][{i}]"))?;
            }
        }
        Ok(())
    }
}

/// Random phase: a per-core LCG picks three TABLE words per iteration, the
/// three loads are issued back to back (three transactions in flight), and
/// the running checksum is stored to the core's private DST slot.
#[derive(Debug, Clone)]
pub struct RandomPhase {
    multiplier: u32,
    increment: u32,
    x0: u32,
    hart_mix: u32,
    iterations: u32,
    table: Vec<u32>,
}

impl RandomPhase {
    pub fn new(seed: u64, iterations: u32) -> Self {
        let mut rng = XorShift64::new(mix64(seed ^ 0x7a6d_0b1e));
        RandomPhase {
            // Full period modulo 2^32: multiplier = 1 (mod 4), odd increment.
            multiplier: (next_u32(&mut rng) & !3) | 1,
            increment: next_u32(&mut rng) | 1,
            x0: next_u32(&mut rng),
            hart_mix: next_u32(&mut rng) | 1,
            iterations,
            table: (0..TABLE_WORDS).map(|_| next_u32(&mut rng)).collect(),
        }
    }

    /// Final checksum of `core`.
    fn checksum(&self, core: u32) -> u32 {
        let mut x = self.x0 ^ core.wrapping_mul(self.hart_mix);
        let mut checksum = 0u32;
        let gather = |x: &mut u32| {
            *x = x.wrapping_mul(self.multiplier).wrapping_add(self.increment);
            self.table[((*x >> 10) & (TABLE_WORDS - 1)) as usize]
        };
        for _ in 0..self.iterations {
            let (a, b, c) = (gather(&mut x), gather(&mut x), gather(&mut x));
            checksum = checksum.wrapping_add(a.wrapping_add(b) ^ c);
        }
        checksum
    }
}

impl Kernel for RandomPhase {
    fn name(&self) -> &'static str {
        "mem-traffic-random"
    }

    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError> {
        let layout = Layout::of(cluster)?;
        let next_address = |reg: &str| {
            format!(
                "mul  t1, t1, s4\n\
                 add  t1, t1, s9\n\
                 srli {reg}, t1, 8\n\
                 and  {reg}, {reg}, s5\n\
                 add  {reg}, {reg}, s6"
            )
        };
        let source = format!(
            r#"
                csrr t0, mhartid
                li   s4, {multiplier}
                li   s9, {increment}
                li   s5, {mask}
                li   s6, {table}
                li   s8, {dst}
                li   t1, {block_bytes}
                mul  t1, t0, t1
                add  s8, s8, t1            # private slot: first word of the DST block
                li   t1, {hart_mix}
                mul  t1, t0, t1
                li   t4, {x0}
                xor  t1, t1, t4            # per-core LCG state
                li   s7, 0                 # checksum
                li   t2, {iterations}
            loop:
                {addr_a}
                {addr_b}
                {addr_c}
                lw   a3, 0(a0)
                lw   a4, 0(a1)
                lw   a5, 0(a2)
                add  a6, a3, a4
                xor  a6, a6, a5
                add  s7, s7, a6
                sw   s7, 0(s8)
                addi t2, t2, -1
                bnez t2, loop
                {out_addr}
                sw   s7, 0(t1)
                wfi
            "#,
            multiplier = self.multiplier,
            increment = self.increment,
            mask = (TABLE_WORDS - 1) << 2,
            table = layout.table,
            dst = layout.dst,
            block_bytes = BLOCK_WORDS * 4,
            hart_mix = self.hart_mix,
            x0 = self.x0,
            iterations = self.iterations,
            addr_a = next_address("a0"),
            addr_b = next_address("a1"),
            addr_c = next_address("a2"),
            out_addr = layout.out_addr_asm(1),
        );
        Ok(Program::assemble(&source)?)
    }

    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let layout = Layout::of(cluster)?;
        for (i, &word) in self.table.iter().enumerate() {
            cluster.write_spm_word(layout.table + i as u32 * 4, word)?;
        }
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let layout = Layout::of(cluster)?;
        let map = cluster.storage().map();
        for core in 0..cluster.config().num_cores() {
            let checksum = self.checksum(core);
            check_word(cluster, layout.out_addr(map, core, 1), checksum, || {
                format!("random checksum of core {core}")
            })?;
            let slot = layout.dst + core * BLOCK_WORDS * 4;
            check_word(cluster, slot, checksum, || {
                format!("private slot of core {core}")
            })?;
        }
        Ok(())
    }
}
