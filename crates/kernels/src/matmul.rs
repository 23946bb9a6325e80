//! Blocked matrix multiplication: codegen, orchestration, and the analytic
//! phase model of Section VI-A.

use mempool_arch::SpmCapacity;
use mempool_isa::Program;
use mempool_sim::Cluster;

use crate::workload::{Kernel, KernelError};

/// One compute phase: all cores cooperatively compute
/// `C += A x B` on three `p x p` word tiles resident in the SPM's
/// interleaved region (`A`, then `B`, then `C`, densely packed).
///
/// The generated inner loop follows MemPool's hand-optimized kernels:
/// post-incrementing loads walk a row of `A` and two columns of `B`,
/// feeding `p.mac` accumulators for a 1x2 output block, with the k-loop
/// unrolled twice — about 3 issue slots per multiply-accumulate.
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

/// One compute phase over three `p x p` word tiles resident in the SPM
/// (see the module docs); the inner-loop shape is selected by
/// [`Blocking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputePhase {
    p: u32,
    /// Explicit `(A, B, C)` tile addresses; `None` uses the default packed
    /// layout at the start of the interleaved region.
    layout: Option<(u32, u32, u32)>,
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

    /// Creates a compute phase over `p x p` tiles in the default layout.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::check_shape`] rejects `p`.
    pub fn new(p: u32) -> Self {
        Self::check_shape(p).unwrap_or_else(|rule| panic!("{rule}"));
        ComputePhase {
            p,
            layout: None,
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

    /// Creates a compute phase reading/writing explicitly placed tiles
    /// (used by the double-buffered orchestration).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::new`].
    pub fn with_layout(p: u32, a: u32, b: u32, c: u32) -> Self {
        let mut phase = Self::new(p);
        phase.layout = Some((a, b, c));
        phase
    }

    /// Tile dimension.
    pub(crate) fn p(&self) -> u32 {
        self.p
    }

    /// Byte size of one `p x p` word tile.
    pub(crate) fn tile_bytes(&self) -> u32 {
        self.p * self.p * 4
    }

    /// SPM addresses of the `A`, `B`, and `C` tiles.
    pub(crate) fn tile_addrs(&self, cluster: &Cluster) -> (u32, u32, u32) {
        self.layout.unwrap_or_else(|| {
            let base = cluster.storage().map().interleaved_base();
            (base, base + self.tile_bytes(), base + 2 * self.tile_bytes())
        })
    }

    /// Total multiply-accumulates of one phase.
    pub fn total_macs(&self) -> u64 {
        (self.p as u64).pow(3)
    }

    /// Generates the per-core program text.
    fn source(&self, cluster: &Cluster) -> Result<String, KernelError> {
        let cores = cluster.config().num_cores();
        let p = self.p;
        if !p.is_multiple_of(cores) {
            return Err(KernelError::BadShape {
                detail: format!("tile dimension {p} must be a multiple of {cores} cores"),
            });
        }
        let rows_per_core = p / cores;
        let (a, b, c) = self.tile_addrs(cluster);
        let p4 = p * 4;
        if self.blocking == Blocking::OneByFour {
            if !p.is_multiple_of(4) {
                return Err(KernelError::BadShape {
                    detail: format!("tile dimension {p} must be a multiple of 4"),
                });
            }
            return Ok(format!(
                r#"
                    csrr t0, mhartid
                    li   t1, {rows_per_core}
                    mul  t2, t0, t1            # i = first row
                    add  t3, t2, t1            # end row
                    li   s3, {p4}
                    li   s4, {a}
                    li   s5, {b}
                    li   s6, {c}
                    li   t6, {p}
                i_loop:
                    li   t5, 0                 # j
                j_loop:
                    mul  s7, t2, s3            # i * p * 4
                    add  s0, s7, s4            # a_ptr
                    slli a7, t5, 2
                    add  s1, a7, s5            # b_ptr columns j..j+3
                    addi s2, s1, 4
                    addi s9, s1, 8
                    addi s11, s1, 12
                    add  a7, s7, s6
                    slli s8, t5, 2
                    add  s8, a7, s8            # c_ptr
                    lw   a0, 0(s8)
                    lw   a1, 4(s8)
                    lw   a2, 8(s8)
                    lw   a3, 12(s8)
                    li   t4, {p}
                k_loop:
                    p.lw a4, 4(s0!)
                    p.lw a5, {p4}(s1!)
                    p.lw a6, {p4}(s2!)
                    p.lw a7, {p4}(s9!)
                    p.lw s10, {p4}(s11!)
                    p.mac a0, a4, a5
                    p.mac a1, a4, a6
                    p.mac a2, a4, a7
                    p.mac a3, a4, s10
                    addi t4, t4, -1
                    bnez t4, k_loop
                    sw   a0, 0(s8)
                    sw   a1, 4(s8)
                    sw   a2, 8(s8)
                    sw   a3, 12(s8)
                    addi t5, t5, 4
                    blt  t5, t6, j_loop
                    addi t2, t2, 1
                    blt  t2, t3, i_loop
                    wfi
                "#,
            ));
        }
        if self.blocking == Blocking::Staggered {
            if !p.is_power_of_two() {
                return Err(KernelError::BadShape {
                    detail: format!("staggered blocking needs a power-of-two tile, got {p}"),
                });
            }
            return Ok(format!(
                r#"
                    csrr t0, mhartid
                    li   t1, {rows_per_core}
                    mul  t2, t0, t1            # i = first row
                    add  t3, t2, t1            # end row
                    li   s3, {p4}
                    li   s4, {a}
                    li   s5, {b}
                    li   s6, {c}
                    li   t6, {p}
                    slli t5, t0, 2             # j0 = (hartid * 4) mod p
                    andi t5, t5, {p_mask}
                i_loop:
                    li   t0, {j_iters}         # hartid no longer needed
                j_loop:
                    mul  s7, t2, s3            # i * p * 4
                    add  s0, s7, s4            # a_ptr
                    slli a7, t5, 2
                    add  s1, a7, s5            # b_ptr columns j..j+3
                    addi s2, s1, 4
                    addi s9, s1, 8
                    addi s11, s1, 12
                    add  a7, s7, s6
                    slli s8, t5, 2
                    add  s8, a7, s8            # c_ptr
                    lw   a0, 0(s8)
                    lw   a1, 4(s8)
                    lw   a2, 8(s8)
                    lw   a3, 12(s8)
                    li   t4, {p}
                k_loop:
                    p.lw a4, 4(s0!)
                    p.lw a5, {p4}(s1!)
                    p.lw a6, {p4}(s2!)
                    p.lw a7, {p4}(s9!)
                    p.lw s10, {p4}(s11!)
                    p.mac a0, a4, a5
                    p.mac a1, a4, a6
                    p.mac a2, a4, a7
                    p.mac a3, a4, s10
                    addi t4, t4, -1
                    bnez t4, k_loop
                    sw   a0, 0(s8)
                    sw   a1, 4(s8)
                    sw   a2, 8(s8)
                    sw   a3, 12(s8)
                    addi t5, t5, 4
                    blt  t5, t6, no_wrap
                    li   t5, 0
                no_wrap:
                    addi t0, t0, -1
                    bnez t0, j_loop
                    addi t2, t2, 1
                    blt  t2, t3, i_loop
                    wfi
                "#,
                p_mask = p - 1,
                j_iters = p / 4,
            ));
        }
        if self.blocking == Blocking::Naive {
            return Ok(format!(
                r#"
                    csrr t0, mhartid
                    li   t1, {rows_per_core}
                    mul  t2, t0, t1            # i = first row
                    add  t3, t2, t1            # end row
                    li   s3, {p4}
                    li   s4, {a}
                    li   s5, {b}
                    li   s6, {c}
                    li   t6, {p}
                i_loop:
                    li   t5, 0                 # j
                j_loop:
                    mul  s7, t2, s3
                    add  s0, s7, s4            # a_ptr
                    slli a7, t5, 2
                    add  s1, a7, s5            # b_ptr
                    add  a7, s7, s6
                    slli s9, t5, 2
                    add  s8, a7, s9            # c_ptr
                    lw   a0, 0(s8)
                    li   t4, {p}
                k_loop:
                    p.lw a4, 4(s0!)
                    p.lw a5, {p4}(s1!)
                    p.mac a0, a4, a5
                    addi t4, t4, -1
                    bnez t4, k_loop
                    sw   a0, 0(s8)
                    addi t5, t5, 1
                    blt  t5, t6, j_loop
                    addi t2, t2, 1
                    blt  t2, t3, i_loop
                    wfi
                "#,
            ));
        }
        Ok(format!(
            r#"
                csrr t0, mhartid
                li   t1, {rows_per_core}
                mul  t2, t0, t1            # i = first row
                add  t3, t2, t1            # end row
                li   s3, {p4}
                li   s4, {a}
                li   s5, {b}
                li   s6, {c}
                li   t6, {p}
            i_loop:
                li   t5, 0                 # j
            j_loop:
                mul  s7, t2, s3            # i * p * 4
                add  s0, s7, s4            # a_ptr
                slli a7, t5, 2
                add  s1, a7, s5            # b_ptr (column j)
                addi s2, s1, 4             # b_ptr (column j+1)
                add  a7, s7, s6
                slli s9, t5, 2
                add  s8, a7, s9            # c_ptr
                lw   a0, 0(s8)             # acc0 = C[i][j]
                lw   a1, 4(s8)             # acc1 = C[i][j+1]
                li   t4, {half_p}          # k-loop, unrolled by 2
            k_loop:
                p.lw a4, 4(s0!)
                p.lw a5, {p4}(s1!)
                p.lw a6, {p4}(s2!)
                p.mac a0, a4, a5
                p.mac a1, a4, a6
                p.lw a4, 4(s0!)
                p.lw a5, {p4}(s1!)
                p.lw a6, {p4}(s2!)
                p.mac a0, a4, a5
                p.mac a1, a4, a6
                addi t4, t4, -1
                bnez t4, k_loop
                sw   a0, 0(s8)
                sw   a1, 4(s8)
                addi t5, t5, 2
                blt  t5, t6, j_loop
                addi t2, t2, 1
                blt  t2, t3, i_loop
                wfi
            "#,
            half_p = p / 2,
        ))
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
        for i in 0..p {
            for j in 0..p {
                let off = (i * p + j) * 4;
                cluster.write_spm_word(a + off, host_a(i, j))?;
                cluster.write_spm_word(b + off, host_b(i, j))?;
                cluster.write_spm_word(c + off, 0)?;
            }
        }
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let (_, _, c) = self.tile_addrs(cluster);
        let p = self.p;
        for i in 0..p {
            for j in 0..p {
                let mut expected = 0u32;
                for k in 0..p {
                    expected = expected.wrapping_add(host_a(i, k).wrapping_mul(host_b(k, j)));
                }
                let got = cluster.read_spm_word(c + (i * p + j) * 4)?;
                if got != expected {
                    return Err(KernelError::Mismatch {
                        detail: format!("C[{i}][{j}] = {got}, expected {expected}"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Deterministic small test values (kept small so u32 accumulation is
/// far from wrapping in typical tile sizes).
fn host_a(i: u32, j: u32) -> u32 {
    (i * 7 + j * 3 + 1) % 17
}

fn host_b(i: u32, j: u32) -> u32 {
    (i * 5 + j * 11 + 2) % 13
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

    /// Runs the full blocked computation, returning the cycle breakdown.
    ///
    /// # Errors
    ///
    /// Propagates codegen, simulation, and DMA errors.
    pub fn run(&self, cluster: &mut Cluster) -> Result<MatmulCycles, KernelError> {
        let t = self.t();
        let m = self.m;
        let steps = m / t;
        let (a_spm, b_spm, c_spm) = self.phase.tile_addrs(cluster);
        let row_bytes = t * 4;
        let ext_stride = m as u64 * 4;
        let program = self.phase.program(cluster)?;
        cluster.load_program(program);
        cluster.preload_icaches();

        let mut cycles = MatmulCycles::default();
        let tile_off = |base: u64, ti: u32, tj: u32| {
            base + (ti as u64 * t as u64 * m as u64 + tj as u64 * t as u64) * 4
        };
        for out_i in 0..steps {
            for out_j in 0..steps {
                // Zero the C tile (part of the store/setup traffic; charged
                // to the memory phase as in the paper's accounting).
                for w in (0..t * t * 4).step_by(4) {
                    cluster.write_spm_word(c_spm + w, 0)?;
                }
                for k in 0..steps {
                    cycles.memory += cluster.dma_tile(
                        tile_off(Self::EXT_A, out_i, k),
                        ext_stride,
                        a_spm,
                        t,
                        row_bytes,
                        true,
                    )?;
                    cycles.memory += cluster.dma_tile(
                        tile_off(self.ext_b(), k, out_j),
                        ext_stride,
                        b_spm,
                        t,
                        row_bytes,
                        true,
                    )?;
                    let start = cluster.cycle();
                    cluster.resume_all(0)?;
                    cluster.run(u64::MAX)?;
                    cycles.compute += cluster.cycle() - start;
                }
                cycles.memory += cluster.dma_tile(
                    tile_off(self.ext_c(), out_i, out_j),
                    ext_stride,
                    c_spm,
                    t,
                    row_bytes,
                    false,
                )?;
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
        for i in 0..m {
            for j in 0..m {
                let mut expected = 0u32;
                for k in 0..m {
                    expected = expected.wrapping_add(host_a(i, k).wrapping_mul(host_b(k, j)));
                }
                let got = cluster
                    .storage()
                    .read_external_word(self.ext_c() + (i as u64 * m as u64 + j as u64) * 4);
                if got != expected {
                    return Err(KernelError::Mismatch {
                        detail: format!("C[{i}][{j}] = {got}, expected {expected}"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// A double-buffered variant of [`BlockedMatmul`]: while the cores compute
/// on one pair of input tiles, the DMA prefetches the next pair into a
/// second buffer — the overlap extension that
/// [`PhaseModel::total_cycles_overlapped`] models analytically, here
/// executed cycle-accurately.
///
/// SPM layout (interleaved region): `A0 B0 A1 B1 C`, five tiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoubleBufferedMatmul {
    m: u32,
    t: u32,
}

impl DoubleBufferedMatmul {
    /// Creates a double-buffered blocked matmul.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not divide `m`.
    pub fn new(m: u32, t: u32) -> Self {
        assert!(
            m.is_multiple_of(t),
            "tile dimension must divide the matrix dimension"
        );
        let _ = ComputePhase::new(t); // validate t
        DoubleBufferedMatmul { m, t }
    }

    fn buffers(&self, cluster: &Cluster) -> [u32; 5] {
        let base = cluster.storage().map().interleaved_base();
        let tile = self.t * self.t * 4;
        [
            base,
            base + tile,
            base + 2 * tile,
            base + 3 * tile,
            base + 4 * tile,
        ]
    }

    /// Writes the input matrices into external memory (same layout as
    /// [`BlockedMatmul`]).
    ///
    /// # Errors
    ///
    /// Propagates storage errors.
    pub fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        BlockedMatmul::new(self.m, self.t).setup(cluster)
    }

    /// Runs the double-buffered computation.
    ///
    /// # Errors
    ///
    /// Propagates codegen, simulation, and DMA errors.
    pub fn run(&self, cluster: &mut Cluster) -> Result<MatmulCycles, KernelError> {
        let (m, t) = (self.m, self.t);
        let steps = m / t;
        let [a0, b0, a1, b1, c_spm] = self.buffers(cluster);
        let bufs = [(a0, b0), (a1, b1)];
        let row_bytes = t * 4;
        let ext_stride = m as u64 * 4;
        let ext_b = BlockedMatmul::EXT_A + (m as u64 * m as u64 * 4);
        let ext_c = ext_b + (m as u64 * m as u64 * 4);
        let programs = [
            ComputePhase::with_layout(t, a0, b0, c_spm).program(cluster)?,
            ComputePhase::with_layout(t, a1, b1, c_spm).program(cluster)?,
        ];
        let tile_off = |base: u64, ti: u32, tj: u32| {
            base + (ti as u64 * t as u64 * m as u64 + tj as u64 * t as u64) * 4
        };

        let mut cycles = MatmulCycles::default();
        for out_i in 0..steps {
            for out_j in 0..steps {
                for w in (0..t * t * 4).step_by(4) {
                    cluster.write_spm_word(c_spm + w, 0)?;
                }
                // Exposed first fill into buffer 0.
                let start = cluster.cycle();
                let done = cluster.dma_tile_async(
                    tile_off(BlockedMatmul::EXT_A, out_i, 0),
                    ext_stride,
                    bufs[0].0,
                    t,
                    row_bytes,
                    true,
                )?;
                let done = done.max(cluster.dma_tile_async(
                    tile_off(ext_b, 0, out_j),
                    ext_stride,
                    bufs[0].1,
                    t,
                    row_bytes,
                    true,
                )?);
                cluster.advance_to(done);
                cycles.memory += cluster.cycle() - start;

                for k in 0..steps {
                    let cur = (k % 2) as usize;
                    // Prefetch the next pair into the other buffer while
                    // computing on this one.
                    let prefetch_done = if k + 1 < steps {
                        let nxt = bufs[1 - cur];
                        let d1 = cluster.dma_tile_async(
                            tile_off(BlockedMatmul::EXT_A, out_i, k + 1),
                            ext_stride,
                            nxt.0,
                            t,
                            row_bytes,
                            true,
                        )?;
                        let d2 = cluster.dma_tile_async(
                            tile_off(ext_b, k + 1, out_j),
                            ext_stride,
                            nxt.1,
                            t,
                            row_bytes,
                            true,
                        )?;
                        Some(d1.max(d2))
                    } else {
                        None
                    };
                    let start = cluster.cycle();
                    cluster.load_program(programs[cur].clone());
                    cluster.preload_icaches();
                    cluster.resume_all(0)?;
                    cluster.run(u64::MAX)?;
                    cycles.compute += cluster.cycle() - start;
                    if let Some(done) = prefetch_done {
                        let wait_start = cluster.cycle();
                        cluster.advance_to(done);
                        cycles.memory += cluster.cycle() - wait_start;
                    }
                }
                let start = cluster.cycle();
                let done = cluster.dma_tile_async(
                    tile_off(ext_c, out_i, out_j),
                    ext_stride,
                    c_spm,
                    t,
                    row_bytes,
                    false,
                )?;
                cluster.advance_to(done);
                cycles.memory += cluster.cycle() - start;
            }
        }
        Ok(cycles)
    }

    /// Verifies the result (same reference as [`BlockedMatmul`]).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Mismatch`] on the first wrong element.
    pub fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        BlockedMatmul::new(self.m, self.t).verify(cluster)
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
    /// 256 cores; see `EXPERIMENTS.md`). The 3.2 cycles/MAC figure is
    /// additionally validated at full 256-core scale by the
    /// bank-conflict-free [`Blocking::Staggered`] kernel, which measures
    /// 3.23 cycles/MAC (`tests/full_scale.rs`).
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

    /// Total cycles with **double-buffered** memory phases: the DMA for
    /// iteration `k+1` overlaps the compute of iteration `k`, so each of
    /// the `M/t` steps costs `max(memory, compute)` after a one-step
    /// pipeline fill. Double buffering halves the usable tile size
    /// (`t' = t / sqrt(2)` rounded to the core count), trading reuse for
    /// overlap — the paper leaves this extension to future work, and this
    /// model quantifies it.
    pub fn total_cycles_overlapped(&self, capacity: SpmCapacity, bytes_per_cycle: u32) -> f64 {
        // Largest t' <= t/sqrt(2) that is a multiple of the core count.
        let t = capacity.matmul_tile_dim();
        let reduced =
            ((t as f64 / std::f64::consts::SQRT_2) as u64 / self.num_cores).max(1) * self.num_cores;
        let tiles = (self.m as f64 / reduced as f64).ceil();
        let mem = self.memory_phase_cycles(reduced, bytes_per_cycle);
        let compute = self.compute_phase_cycles(reduced);
        let per_tile = mem + tiles * mem.max(compute) + self.store_cycles(reduced, bytes_per_cycle);
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
    use mempool_sim::{Cluster, SimParams};

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

    #[test]
    fn double_buffered_matmul_is_correct_and_faster_when_memory_bound() {
        // At 4 B/cycle the memory phases dominate; overlapping them with
        // compute must win, and the result must stay correct.
        let cfg = small_cluster().config().clone();
        let seq = BlockedMatmul::new(96, 32);
        let mut c1 = Cluster::new(cfg.clone(), SimParams::default().with_offchip_bandwidth(4));
        seq.setup(&mut c1).unwrap();
        let sequential = seq.run(&mut c1).unwrap();
        seq.verify(&c1).unwrap();

        let dbuf = DoubleBufferedMatmul::new(96, 32);
        let mut c2 = Cluster::new(cfg, SimParams::default().with_offchip_bandwidth(4));
        dbuf.setup(&mut c2).unwrap();
        let overlapped = dbuf.run(&mut c2).unwrap();
        dbuf.verify(&c2)
            .expect("double-buffered result must be correct");

        assert!(
            overlapped.total() < sequential.total(),
            "overlap {o} must beat sequential {s} at 4 B/cycle",
            o = overlapped.total(),
            s = sequential.total()
        );
        // Most of the memory time is hidden: only the first fill and the
        // output store per tile remain exposed.
        assert!(
            (overlapped.memory as f64) < 0.6 * sequential.memory as f64,
            "exposed memory {o} vs sequential {s}",
            o = overlapped.memory,
            s = sequential.memory
        );
    }

    #[test]
    fn overlap_helps_most_when_memory_bound() {
        let model = PhaseModel::with_measured_defaults();
        // Memory-bound regime: small SPM, 4 B/cycle.
        let gain_bound = model.total_cycles(SpmCapacity::MiB1, 4)
            / model.total_cycles_overlapped(SpmCapacity::MiB1, 4);
        // Compute-bound regime: large SPM, 64 B/cycle — overlap cannot pay
        // for the reuse it sacrifices.
        let gain_free = model.total_cycles(SpmCapacity::MiB8, 64)
            / model.total_cycles_overlapped(SpmCapacity::MiB8, 64);
        assert!(
            gain_bound > 1.05,
            "overlap must win when memory-bound (gain {gain_bound:.3})"
        );
        assert!(
            gain_bound > gain_free,
            "overlap gain must shrink in the compute-bound regime: {gain_bound:.3} vs {gain_free:.3}"
        );
    }
}
