//! Blocked matrix multiplication: codegen, orchestration, and the analytic
//! phase model of Section VI-A.

use std::fmt::{self, Write};

use mempool_arch::SpmCapacity;
use mempool_isa::Program;
use mempool_obs::Json;
use mempool_sim::Cluster;

use crate::workload::{Kernel, KernelError};

/// Inner-loop code-generation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Blocking {
    /// Straightforward loop: one load of `A`, one of `B`, one `p.mac`,
    /// and the loop bookkeeping per multiply-accumulate (~6 issue slots).
    Naive,
    /// The hand-optimized shape MemPool's kernels use: a 1x2 output block
    /// with the k-loop unrolled twice (~3 issue slots per MAC).
    #[default]
    OneByTwo,
    /// A 1x4 output block: five loads in flight before the first use,
    /// enough to hide even the 5-cycle remote latency of the full
    /// 256-core cluster (where 3/4 of interleaved accesses leave the
    /// group-local neighborhood).
    OneByFour,
    /// The 1x4 block plus a per-core rotation of the column loop. The
    /// B-column streams stride the banks by `p` words, so with `p` a
    /// multiple of the bank count every core's stream cycles through the
    /// same few banks; rotating each core's starting column spreads the
    /// streams over all banks — the staggering trick MemPool's
    /// hand-written kernels use. Requires a power-of-two tile dimension.
    Staggered,
}

/// The loop shape a [`Blocking`] stands for.
struct Shape {
    /// Output columns per block: the `B` columns walked side by side.
    width: u32,
    /// Copies of the k-loop body per k-loop iteration.
    unroll: u32,
    /// Whether each core starts at its own column and wraps around.
    rotate: bool,
}

impl Blocking {
    fn shape(self) -> Shape {
        let (width, unroll, rotate) = match self {
            Blocking::Naive => (1, 1, false),
            Blocking::OneByTwo => (2, 2, false),
            Blocking::OneByFour => (4, 1, false),
            Blocking::Staggered => (4, 1, true),
        };
        Shape {
            width,
            unroll,
            rotate,
        }
    }
}

/// Registers of output column `c` of a block: its `B` pointer, the `B`
/// value it loads, and its accumulator.
const B_PTRS: [&str; 4] = ["s1", "s2", "s9", "s11"];
const B_VALS: [&str; 4] = ["a5", "a6", "a7", "s10"];
const ACCS: [&str; 4] = ["a0", "a1", "a2", "a3"];

/// One compute phase: all cores cooperatively compute
/// `C += A x B` on three `p x p` word tiles resident in the SPM's
/// interleaved region (`A`, then `B`, then `C`, densely packed).
///
/// The generated inner loop follows MemPool's hand-optimized kernels:
/// post-incrementing loads walk a row of `A` and the columns of `B` of a
/// 1xw output block, feeding one `p.mac` accumulator per column. The
/// [`Blocking`] picks the block width, the k-loop unroll and the column
/// rotation; the default 1x2 block with the k-loop unrolled twice costs
/// about 3 issue slots per multiply-accumulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputePhase {
    p: u32,
    blocking: Blocking,
}

impl ComputePhase {
    /// The two rules every tile dimension obeys, whatever the cluster: a
    /// positive multiple of 4 (the output blocks), at most 511 (the 12-bit
    /// post-increment immediate). A front end holds a dimension it was
    /// handed against them before constructing anything.
    ///
    /// # Errors
    ///
    /// [`KernelError::BadShape`] naming the rule `p` breaks.
    pub fn check_shape(p: u32) -> Result<(), KernelError> {
        let detail = if p == 0 || !p.is_multiple_of(4) {
            format!("tile dimension {p} must be a positive multiple of 4")
        } else if p > 511 {
            format!("tile dimension {p} exceeds 511, the limit of the 12-bit post-increment")
        } else {
            return Ok(());
        };
        Err(KernelError::BadShape { detail })
    }

    /// Creates a compute phase over `p x p` tiles.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::check_shape`] rejects `p`.
    pub fn new(p: u32) -> Self {
        Self::check_shape(p).unwrap_or_else(|rule| panic!("{rule}"));
        ComputePhase {
            p,
            blocking: Blocking::OneByTwo,
        }
    }

    /// Selects the inner-loop strategy (for the code-quality ablation).
    pub fn with_blocking(mut self, blocking: Blocking) -> Self {
        self.blocking = blocking;
        self
    }

    /// The inner-loop strategy in use.
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// Tile dimension.
    pub(crate) fn p(&self) -> u32 {
        self.p
    }

    /// Byte size of one `p x p` word tile.
    pub(crate) fn tile_bytes(&self) -> u32 {
        self.p * self.p * 4
    }

    /// SPM addresses of the `A`, `B`, and `C` tiles, packed at the start
    /// of the interleaved region.
    pub(crate) fn tile_addrs(&self, cluster: &Cluster) -> (u32, u32, u32) {
        let base = cluster.storage().map().interleaved_base();
        (base, base + self.tile_bytes(), base + 2 * self.tile_bytes())
    }

    /// Total multiply-accumulates of one phase.
    pub fn total_macs(&self) -> u64 {
        (self.p as u64).pow(3)
    }

    /// Generates the per-core program text: each core takes
    /// `p / cores` rows of `C` and walks them one 1xw block at a time.
    fn source(&self, cluster: &Cluster) -> Result<String, KernelError> {
        let cores = cluster.config().num_cores();
        let p = self.p;
        if !p.is_multiple_of(cores) {
            return Err(KernelError::BadShape {
                detail: format!("tile dimension {p} must be a multiple of {cores} cores"),
            });
        }
        let shape = self.blocking.shape();
        if shape.rotate && !p.is_power_of_two() {
            return Err(KernelError::BadShape {
                detail: format!("staggered blocking needs a power-of-two tile, got {p}"),
            });
        }
        let mut text = String::new();
        self.emit(&mut text, cluster, &shape)
            .expect("writing to a String cannot fail");
        Ok(text)
    }

    /// Writes the program of one [`Shape`] into `out`.
    fn emit(&self, out: &mut String, cluster: &Cluster, shape: &Shape) -> fmt::Result {
        let Shape {
            width,
            unroll,
            rotate,
        } = *shape;
        let (p, p4) = (self.p, self.p * 4);
        let (a, b, c) = self.tile_addrs(cluster);
        let cols = ..width as usize;
        writeln!(out, "csrr t0, mhartid")?;
        writeln!(out, "li   t1, {}", p / cluster.config().num_cores())?;
        writeln!(out, "mul  t2, t0, t1  # i = first row")?;
        writeln!(out, "add  t3, t2, t1  # end row")?;
        writeln!(out, "li   s3, {p4}")?;
        writeln!(out, "li   s4, {a}")?;
        writeln!(out, "li   s5, {b}")?;
        writeln!(out, "li   s6, {c}")?;
        writeln!(out, "li   t6, {p}")?;
        if rotate {
            // j0 = hartid * w mod p: each core starts at its own block.
            writeln!(out, "slli t5, t0, {}", width.trailing_zeros())?;
            writeln!(out, "andi t5, t5, {}", p - 1)?;
        }
        writeln!(out, "i_loop:")?;
        if rotate {
            // t0 counts the row's blocks down; the hart id is spent.
            writeln!(out, "li   t0, {}", p / width)?;
        } else {
            writeln!(out, "li   t5, 0  # j")?;
        }
        writeln!(out, "j_loop:")?;
        writeln!(out, "mul  s7, t2, s3  # i * p * 4")?;
        writeln!(out, "add  s0, s7, s4  # a_ptr")?;
        writeln!(out, "slli a7, t5, 2")?;
        writeln!(out, "add  s1, a7, s5  # b_ptr (column j)")?;
        for (ptr, off) in B_PTRS[cols].iter().zip((0..).step_by(4)).skip(1) {
            writeln!(out, "addi {ptr}, s1, {off}")?;
        }
        // The C offset borrows a B pointer the 1x1 and 1x2 blocks leave free.
        let c_off = if width <= 2 { "s9" } else { "s8" };
        writeln!(out, "add  a7, s7, s6")?;
        writeln!(out, "slli {c_off}, t5, 2")?;
        writeln!(out, "add  s8, a7, {c_off}  # c_ptr")?;
        for (acc, off) in ACCS[cols].iter().zip((0..).step_by(4)) {
            writeln!(out, "lw   {acc}, {off}(s8)")?;
        }
        writeln!(out, "li   t4, {}", p / unroll)?;
        writeln!(out, "k_loop:")?;
        for _ in 0..unroll {
            writeln!(out, "p.lw a4, 4(s0!)")?;
            for (val, ptr) in B_VALS[cols].iter().zip(&B_PTRS) {
                writeln!(out, "p.lw {val}, {p4}({ptr}!)")?;
            }
            for (acc, val) in ACCS[cols].iter().zip(&B_VALS) {
                writeln!(out, "p.mac {acc}, a4, {val}")?;
            }
        }
        writeln!(out, "addi t4, t4, -1")?;
        writeln!(out, "bnez t4, k_loop")?;
        for (acc, off) in ACCS[cols].iter().zip((0..).step_by(4)) {
            writeln!(out, "sw   {acc}, {off}(s8)")?;
        }
        writeln!(out, "addi t5, t5, {width}")?;
        if rotate {
            writeln!(out, "blt  t5, t6, no_wrap")?;
            writeln!(out, "li   t5, 0")?;
            writeln!(out, "no_wrap:")?;
            writeln!(out, "addi t0, t0, -1")?;
            writeln!(out, "bnez t0, j_loop")?;
        } else {
            writeln!(out, "blt  t5, t6, j_loop")?;
        }
        writeln!(out, "addi t2, t2, 1")?;
        writeln!(out, "blt  t2, t3, i_loop")?;
        writeln!(out, "wfi")
    }
}

impl Kernel for ComputePhase {
    fn name(&self) -> &'static str {
        "matmul-compute-phase"
    }

    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError> {
        Ok(Program::assemble(&self.source(cluster)?)?)
    }

    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let (a, b, c) = self.tile_addrs(cluster);
        let p = self.p;
        let mut row = vec![0; p as usize];
        for i in 0..p {
            let off = i * p * 4;
            for (j, word) in (0..).zip(&mut row) {
                *word = host_a(i, j);
            }
            cluster.write_spm_words(a + off, &row)?;
            for (j, word) in (0..).zip(&mut row) {
                *word = host_b(i, j);
            }
            cluster.write_spm_words(b + off, &row)?;
            row.fill(0);
            cluster.write_spm_words(c + off, &row)?;
        }
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let (_, _, c) = self.tile_addrs(cluster);
        let p = self.p;
        let reference = Reference::new(p);
        let (mut expected, mut got) = (vec![0; p as usize], vec![0; p as usize]);
        for i in 0..p {
            reference.row(i, &mut expected);
            cluster.read_spm_words(c + i * p * 4, &mut got)?;
            check_row(i, &got, &expected)?;
        }
        Ok(())
    }
}

/// Deterministic small test values (kept small so u32 accumulation is
/// far from wrapping in typical tile sizes).
fn host_a(i: u32, j: u32) -> u32 {
    (i * 7 + j * 3 + 1) % 17
}

/// `B`'s values, and so its rows, repeat every `B_PERIOD` rows.
const B_PERIOD: u32 = 13;

fn host_b(i: u32, j: u32) -> u32 {
    (i * 5 + j * 11 + 2) % B_PERIOD
}

/// The rows of `C = A x B` for `n x n` host operands, without a
/// `host_a`/`host_b` call per multiply: `B`'s rows repeat every
/// [`B_PERIOD`], so `C[i][j] = sum_r (sum_{k = r mod B_PERIOD} A[i][k]) *
/// B[r][j]`, exact in wrapping `u32` arithmetic.
struct Reference {
    n: u32,
    /// `B`'s first [`B_PERIOD`] rows.
    b_rows: Vec<Vec<u32>>,
}

impl Reference {
    fn new(n: u32) -> Self {
        let b_rows = (0..B_PERIOD)
            .map(|k| (0..n).map(|j| host_b(k, j)).collect())
            .collect();
        Reference { n, b_rows }
    }

    /// Writes row `i` of `C` into `out` (`n` words).
    fn row(&self, i: u32, out: &mut [u32]) {
        let mut a_sums = [0u32; B_PERIOD as usize];
        for k in 0..self.n {
            let sum = &mut a_sums[(k % B_PERIOD) as usize];
            *sum = sum.wrapping_add(host_a(i, k));
        }
        out.fill(0);
        for (&a, b_row) in a_sums.iter().zip(&self.b_rows) {
            for (c, &b) in out.iter_mut().zip(b_row) {
                *c = c.wrapping_add(a.wrapping_mul(b));
            }
        }
    }
}

/// Compares row `i` of a computed `C` with the reference row.
///
/// # Errors
///
/// Returns [`KernelError::Mismatch`] on the row's first wrong element.
fn check_row(i: u32, got: &[u32], expected: &[u32]) -> Result<(), KernelError> {
    match (0..)
        .zip(got.iter().zip(expected))
        .find(|(_, (g, e))| g != e)
    {
        Some((j, (got, expected))) => Err(KernelError::Mismatch {
            detail: format!("C[{i}][{j}] = {got}, expected {expected}"),
        }),
        None => Ok(()),
    }
}

/// Full blocked matmul on the simulator: `C = A x B` with `M x M`
/// operands in external memory and `t x t` tiles in the SPM, alternating
/// DMA memory phases and simulated compute phases — a scaled-down version
/// of the paper's workload for examples and integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedMatmul {
    m: u32,
    phase: ComputePhase,
}

/// Cycle breakdown of a [`BlockedMatmul`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatmulCycles {
    /// Cycles in DMA memory phases (tile loads and stores).
    pub memory: u64,
    /// Cycles in compute phases.
    pub compute: u64,
}

impl MatmulCycles {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.memory + self.compute
    }
}

impl BlockedMatmul {
    /// External-memory byte offsets of the `A`, `B`, and `C` matrices.
    const EXT_A: u64 = 0;

    /// Creates a blocked matmul of an `m x m` product with `t x t` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not divide `m` (the paper picks `M` as the least
    /// common multiple of all tile sizes for exactly this reason).
    pub fn new(m: u32, t: u32) -> Self {
        assert!(
            m.is_multiple_of(t),
            "tile dimension must divide the matrix dimension"
        );
        BlockedMatmul {
            m,
            phase: ComputePhase::new(t),
        }
    }

    /// Tile dimension.
    pub(crate) fn t(&self) -> u32 {
        self.phase.p()
    }

    fn ext_b(&self) -> u64 {
        Self::EXT_A + (self.m as u64 * self.m as u64 * 4)
    }

    fn ext_c(&self) -> u64 {
        self.ext_b() + (self.m as u64 * self.m as u64 * 4)
    }

    /// Writes the input matrices into external memory.
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let m = self.m;
        for i in 0..m {
            for j in 0..m {
                let off = (i as u64 * m as u64 + j as u64) * 4;
                cluster
                    .storage_mut()
                    .write_external_word(Self::EXT_A + off, host_a(i, j));
                cluster
                    .storage_mut()
                    .write_external_word(self.ext_b() + off, host_b(i, j));
            }
        }
        Ok(())
    }

    /// External-memory byte offset of tile `(ti, tj)` of the `m x m`
    /// matrix at `base`.
    fn tile_off(&self, base: u64, ti: u32, tj: u32) -> u64 {
        let (m, t) = (u64::from(self.m), u64::from(self.t()));
        base + (u64::from(ti) * t * m + u64::from(tj) * t) * 4
    }

    /// Moves tile `(ti, tj)` of the matrix at `base` between external
    /// memory and the packed SPM tile at `spm`, returning the cycles the
    /// DMA took.
    fn dma(
        &self,
        cluster: &mut Cluster,
        (base, ti, tj): (u64, u32, u32),
        spm: u32,
        to_spm: bool,
    ) -> Result<u64, KernelError> {
        let (ext, stride, t) = (self.tile_off(base, ti, tj), u64::from(self.m) * 4, self.t());
        Ok(cluster.dma_tile(ext, stride, spm, t, t * 4, to_spm)?)
    }

    /// Runs the full blocked computation, returning the cycle breakdown.
    ///
    /// # Errors
    ///
    /// Propagates codegen, simulation, and DMA errors.
    pub fn run(&self, cluster: &mut Cluster) -> Result<MatmulCycles, KernelError> {
        let steps = self.m / self.t();
        let zero_tile = vec![0; (self.t() * self.t()) as usize];
        let (a_spm, b_spm, c_spm) = self.phase.tile_addrs(cluster);
        let program = self.phase.program(cluster)?;
        cluster.load_program(program);
        cluster.preload_icaches();

        let mut cycles = MatmulCycles::default();
        for out_i in 0..steps {
            for out_j in 0..steps {
                // Zero the C tile (part of the store/setup traffic; charged
                // to the memory phase as in the paper's accounting).
                cluster.write_spm_words(c_spm, &zero_tile)?;
                for k in 0..steps {
                    let (a_tile, b_tile) = ((Self::EXT_A, out_i, k), (self.ext_b(), k, out_j));
                    cycles.memory += self.dma(cluster, a_tile, a_spm, true)?;
                    cycles.memory += self.dma(cluster, b_tile, b_spm, true)?;
                    let start = cluster.cycle();
                    cluster.resume_all(0)?;
                    cluster.run(u64::MAX)?;
                    cycles.compute += cluster.cycle() - start;
                }
                let c_tile = (self.ext_c(), out_i, out_j);
                cycles.memory += self.dma(cluster, c_tile, c_spm, false)?;
            }
        }
        Ok(cycles)
    }

    /// Verifies the result in external memory against the host reference.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Mismatch`] on the first wrong element.
    pub fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let m = self.m;
        let reference = Reference::new(m);
        let (mut expected, mut got) = (vec![0; m as usize], vec![0; m as usize]);
        for i in 0..m {
            reference.row(i, &mut expected);
            let row = (self.ext_c() + u64::from(i * m) * 4..).step_by(4);
            for (word, offset) in got.iter_mut().zip(row) {
                *word = cluster.storage().read_external_word(offset);
            }
            check_row(i, &got, &expected)?;
        }
        Ok(())
    }
}

/// The paper's analytic cycle model for the full `M = 326400` problem
/// (Section VI-A), parameterized by constants measured on the simulator.
///
/// Per output tile, `M/t` iterations each load two `t x t` input tiles
/// (8t² bytes at the off-chip bandwidth) and compute `t³`
/// multiply-accumulates across the cores, then the output tile is stored
/// once. Every input element is loaded exactly `M/t` times, so larger
/// SPMs mean more reuse *and* fewer synchronization overheads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseModel {
    /// Matrix dimension (the paper: 326400).
    pub m: u64,
    /// Number of cores sharing a compute phase (the paper: 256).
    pub num_cores: u64,
    /// Issue-slot cost of one multiply-accumulate, including pipeline and
    /// banking stalls — measured with [`crate::measure`].
    pub cycles_per_mac: f64,
    /// Static overhead per compute phase: loop setup plus the barrier —
    /// measured with [`crate::measure`].
    pub phase_overhead: f64,
}

impl PhaseModel {
    /// The model with the constants measured on this repository's
    /// simulator (16-core instance, barrier cost extrapolated linearly to
    /// 256 cores): the body holds the recorded values.
    /// `deep_blocking_hides_remote_latency_at_full_scale`
    /// (`tests/full_scale.rs`) measures the bank-conflict-free
    /// [`Blocking::Staggered`] kernel at full 256-core scale and bounds
    /// its cycles/MAC around `cycles_per_mac`.
    pub fn with_measured_defaults() -> Self {
        PhaseModel {
            m: SpmCapacity::MATMUL_MATRIX_DIM,
            num_cores: 256,
            cycles_per_mac: 3.2,
            phase_overhead: 9_500.0,
        }
    }

    /// Cycles of one memory phase (two `t x t` input tiles over the
    /// off-chip port).
    pub fn memory_phase_cycles(&self, t: u64, bytes_per_cycle: u32) -> f64 {
        (8 * t * t) as f64 / bytes_per_cycle as f64
    }

    /// Cycles of one compute phase (`t³` MACs over all cores, plus the
    /// static overhead).
    pub fn compute_phase_cycles(&self, t: u64) -> f64 {
        (t * t * t) as f64 / self.num_cores as f64 * self.cycles_per_mac + self.phase_overhead
    }

    /// Cycles to store one output tile.
    pub fn store_cycles(&self, t: u64, bytes_per_cycle: u32) -> f64 {
        (4 * t * t) as f64 / bytes_per_cycle as f64
    }

    /// Total cycles of the full `M x M` multiplication for the given SPM
    /// capacity (which fixes the tile size) and off-chip bandwidth.
    pub fn total_cycles(&self, capacity: SpmCapacity, bytes_per_cycle: u32) -> f64 {
        let t = capacity.matmul_tile_dim();
        let tiles = (self.m / t) as f64;
        let per_tile = tiles
            * (self.memory_phase_cycles(t, bytes_per_cycle) + self.compute_phase_cycles(t))
            + self.store_cycles(t, bytes_per_cycle);
        tiles * tiles * per_tile
    }

    /// Cycle-count speedup of `(capacity, bandwidth)` relative to a
    /// reference point — the quantity plotted in Figure 6.
    pub fn speedup(
        &self,
        capacity: SpmCapacity,
        bytes_per_cycle: u32,
        ref_capacity: SpmCapacity,
        ref_bytes_per_cycle: u32,
    ) -> f64 {
        self.total_cycles(ref_capacity, ref_bytes_per_cycle)
            / self.total_cycles(capacity, bytes_per_cycle)
    }

    /// Canonical JSON form (fixed field order).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("m", Json::Int(self.m as i64)),
            ("num_cores", Json::Int(self.num_cores as i64)),
            ("cycles_per_mac", Json::Float(self.cycles_per_mac)),
            ("phase_overhead", Json::Float(self.phase_overhead)),
        ])
    }
}

impl Default for PhaseModel {
    fn default() -> Self {
        Self::with_measured_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::ClusterConfig;
    use mempool_sim::{fnv1a, Cluster, SimParams, FNV_OFFSET};

    fn small_cluster() -> Cluster {
        // 16 cores, enough SPM for three 32x32 tiles (12 KiB + slack).
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(256)
            .build()
            .unwrap();
        Cluster::new(cfg, SimParams::default())
    }

    #[test]
    fn compute_phase_produces_correct_product() {
        let mut cluster = small_cluster();
        let phase = ComputePhase::new(32);
        let cycles = phase.run(&mut cluster, 10_000_000).expect("phase failed");
        assert!(cycles > 0);
    }

    #[test]
    fn reference_rows_equal_the_triple_loop() {
        for n in [4, 13, 26, 40, 64] {
            let reference = Reference::new(n);
            let mut row = vec![0; n as usize];
            for i in 0..n {
                reference.row(i, &mut row);
                for (j, &got) in (0..n).zip(&row) {
                    let want = (0..n).fold(0u32, |sum, k| {
                        sum.wrapping_add(host_a(i, k).wrapping_mul(host_b(k, j)))
                    });
                    assert_eq!(got, want, "n = {n}: C[{i}][{j}]");
                }
            }
        }
    }

    #[test]
    fn verify_names_the_first_wrong_element() {
        let mut cluster = small_cluster();
        let phase = ComputePhase::new(16);
        phase.setup(&mut cluster).unwrap();
        let (_, _, c) = phase.tile_addrs(&cluster);
        let reference = Reference::new(16);
        let mut row = vec![0; 16];
        for i in 0..16 {
            reference.row(i, &mut row);
            cluster.write_spm_words(c + i * 16 * 4, &row).unwrap();
        }
        phase.verify(&cluster).unwrap();
        for (i, j) in [(9, 2), (3, 5), (3, 11)] {
            let addr = c + (i * 16 + j) * 4;
            let word = cluster.read_spm_word(addr).unwrap();
            cluster.write_spm_word(addr, word + 1).unwrap();
        }
        let Err(KernelError::Mismatch { detail }) = phase.verify(&cluster) else {
            panic!("a corrupted C must not verify");
        };
        assert!(detail.starts_with("C[3][5] = "), "{detail}");
    }

    #[test]
    fn compute_phase_efficiency_is_near_three_cycles_per_mac() {
        let mut cluster = small_cluster();
        let phase = ComputePhase::new(32);
        let cycles = phase.run(&mut cluster, 10_000_000).unwrap();
        let macs_per_core = phase.total_macs() / cluster.config().num_cores() as u64;
        let cpm = cycles as f64 / macs_per_core as f64;
        assert!(
            (2.5..4.5).contains(&cpm),
            "cycles per MAC {cpm:.2} out of the expected range"
        );
    }

    #[test]
    fn one_by_four_blocking_is_correct_and_at_least_as_fast() {
        let mut blocked = small_cluster();
        let base_cycles = ComputePhase::new(32).run(&mut blocked, 10_000_000).unwrap();
        let mut deep = small_cluster();
        let deep_cycles = ComputePhase::new(32)
            .with_blocking(Blocking::OneByFour)
            .run(&mut deep, 10_000_000)
            .unwrap();
        assert!(
            (deep_cycles as f64) < 1.1 * base_cycles as f64,
            "1x4 blocking ({deep_cycles}) should not lose to 1x2 ({base_cycles})"
        );
    }

    #[test]
    fn staggered_blocking_is_correct() {
        let mut c = small_cluster();
        ComputePhase::new(32)
            .with_blocking(Blocking::Staggered)
            .run(&mut c, 10_000_000)
            .expect("staggered phase");
    }

    #[test]
    fn every_blocking_assembles_to_its_pinned_words() {
        // FNV-1a over each program's little-endian instruction words: a
        // changed instruction, register or immediate shows here even when
        // no cycle count or product moves.
        let pinned = [
            (
                Blocking::Naive,
                0x5118_c8a5_e7c4_0f30,
                0xf232_373d_badd_8c64,
            ),
            (
                Blocking::OneByTwo,
                0xd0e1_9357_f770_8a49,
                0x437f_286c_ee33_8118,
            ),
            (
                Blocking::OneByFour,
                0x8b7e_76cb_33ac_6a4a,
                0x2c28_dfa6_beb8_3676,
            ),
            (
                Blocking::Staggered,
                0x9009_db58_3d76_b1c8,
                0xff7e_c398_aeaf_7db6,
            ),
        ];
        let probe = crate::measure::probe_cluster();
        let paper = Cluster::new(ClusterConfig::default(), SimParams::default());
        assert_eq!(paper.config().num_cores(), 256);
        for (blocking, at_probe, at_paper) in pinned {
            for (cluster, p, want) in [(&probe, 32, at_probe), (&paper, 256, at_paper)] {
                let program = ComputePhase::new(p)
                    .with_blocking(blocking)
                    .program(cluster)
                    .unwrap();
                let digest = program
                    .to_words()
                    .iter()
                    .fold(FNV_OFFSET, |hash, word| fnv1a(hash, &word.to_le_bytes()));
                assert_eq!(digest, want, "{blocking:?} at p = {p}: {digest:#018x}");
            }
        }
    }

    #[test]
    fn staggered_blocking_rejects_non_power_of_two() {
        let c = small_cluster();
        // 48 is a multiple of 16 cores and of 4, but not a power of two.
        let phase = ComputePhase::new(48).with_blocking(Blocking::Staggered);
        assert!(matches!(
            phase.program(&c),
            Err(KernelError::BadShape { .. })
        ));
    }

    #[test]
    fn blocking_ablation_naive_costs_nearly_double() {
        // The register-blocked inner loop is the reason the paper's
        // kernels approach ~3 cycles/MAC; the naive loop pays ~6.
        let mut blocked = small_cluster();
        let phase = ComputePhase::new(32);
        let blocked_cycles = phase.run(&mut blocked, 10_000_000).unwrap();

        let mut naive_cluster = small_cluster();
        let naive = ComputePhase::new(32).with_blocking(Blocking::Naive);
        let naive_cycles = naive.run(&mut naive_cluster, 10_000_000).unwrap();

        let ratio = naive_cycles as f64 / blocked_cycles as f64;
        assert!(
            (1.4..2.3).contains(&ratio),
            "naive/blocked cycle ratio {ratio:.2}"
        );
    }

    #[test]
    fn compute_phase_rejects_indivisible_tiles() {
        let cluster = small_cluster();
        let phase = ComputePhase::new(36); // not a multiple of 16 cores
        assert!(matches!(
            phase.program(&cluster),
            Err(KernelError::BadShape { .. })
        ));
    }

    #[test]
    fn blocked_matmul_end_to_end() {
        let mut cluster = small_cluster();
        let mm = BlockedMatmul::new(64, 32);
        mm.setup(&mut cluster).unwrap();
        let cycles = mm.run(&mut cluster).expect("blocked matmul failed");
        mm.verify(&cluster).expect("verification failed");
        assert!(cycles.memory > 0 && cycles.compute > 0);
    }

    #[test]
    fn higher_bandwidth_shrinks_memory_phase_only() {
        let mut slow = small_cluster();
        let mm = BlockedMatmul::new(64, 32);
        mm.setup(&mut slow).unwrap();
        let slow_cycles = mm.run(&mut slow).unwrap();

        let cfg = slow.config().clone();
        let mut fast = Cluster::new(cfg, SimParams::default().with_offchip_bandwidth(64));
        mm.setup(&mut fast).unwrap();
        let fast_cycles = mm.run(&mut fast).unwrap();
        assert!(fast_cycles.memory < slow_cycles.memory);
        assert_eq!(fast_cycles.compute, slow_cycles.compute);
    }

    #[test]
    fn model_reproduces_figure6_shape() {
        let model = PhaseModel::with_measured_defaults();
        // Paper: 43 % speedup of 8 MiB over 1 MiB at 4 B/cycle; 16 % at
        // 16 B/cycle; 8 % at 64 B/cycle.
        let s4 = model.speedup(SpmCapacity::MiB8, 4, SpmCapacity::MiB1, 4);
        let s16 = model.speedup(SpmCapacity::MiB8, 16, SpmCapacity::MiB1, 16);
        let s64 = model.speedup(SpmCapacity::MiB8, 64, SpmCapacity::MiB1, 64);
        assert!(
            (1.30..1.55).contains(&s4),
            "4 B/c speedup {s4:.3} (paper 1.43)"
        );
        assert!(
            (1.10..1.25).contains(&s16),
            "16 B/c speedup {s16:.3} (paper 1.16)"
        );
        assert!(
            (1.04..1.13).contains(&s64),
            "64 B/c speedup {s64:.3} (paper 1.08)"
        );
        // Monotonicity: speedup shrinks as bandwidth grows.
        assert!(s4 > s16 && s16 > s64);
    }

    #[test]
    fn model_speedup_monotone_in_capacity() {
        let model = PhaseModel::with_measured_defaults();
        for bw in [4, 8, 16, 32, 64] {
            let mut last = 0.0;
            for cap in SpmCapacity::ALL {
                let s = model.speedup(cap, bw, SpmCapacity::MiB1, bw);
                assert!(s >= last, "bw {bw}: {cap} speedup {s} not monotone");
                last = s;
            }
        }
    }

    #[test]
    fn model_memory_phase_scales_inversely_with_bandwidth() {
        let model = PhaseModel::with_measured_defaults();
        let m4 = model.memory_phase_cycles(256, 4);
        let m16 = model.memory_phase_cycles(256, 16);
        assert!((m4 / m16 - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn blocked_matmul_requires_divisible_tiles() {
        let _ = BlockedMatmul::new(100, 32);
    }
}
