//! Matrix-vector product (GEMV): `y = A x`.
//!
//! Unlike matmul, every element of `A` is used exactly once — there is no
//! `t`-fold reuse for the SPM to exploit — so a blocked GEMV streaming `A`
//! from off-chip is the canonical *memory-bound* kernel: the paper notes
//! that "benefits on memory bound kernels are obviously larger" when the
//! memory system improves. The resident compute phase here exercises the
//! same inner-loop machinery as matmul (post-increment loads feeding
//! `p.mac`), and [`BlockedGemv`] streams row blocks through the SPM.

use mempool_isa::Program;
use mempool_sim::Cluster;

use crate::workload::{Kernel, KernelError};

/// The resident GEMV compute phase: `y = A x` with an `n x n` matrix in
/// the SPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemv {
    n: u32,
}

impl Gemv {
    /// Creates an `n x n` GEMV.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "matrix dimension must be nonzero");
        Gemv { n }
    }

    /// Matrix dimension.
    pub fn n(&self) -> u32 {
        self.n
    }

    fn layout(&self, cluster: &Cluster) -> (u32, u32, u32) {
        let base = cluster.storage().map().interleaved_base();
        let matrix = self.n * self.n * 4;
        // A, x, y.
        (base, base + matrix, base + matrix + self.n * 4)
    }

    fn a_value(i: u32, j: u32) -> u32 {
        (i * 3 + j * 5 + 1) % 19
    }

    fn x_value(j: u32) -> u32 {
        (j % 13) + 1
    }

    /// Host-side reference for `y[i]`.
    pub fn expected(&self, i: u32) -> u32 {
        (0..self.n)
            .map(|j| Self::a_value(i, j).wrapping_mul(Self::x_value(j)))
            .fold(0u32, u32::wrapping_add)
    }
}

impl Kernel for Gemv {
    fn name(&self) -> &'static str {
        "gemv"
    }

    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError> {
        let cores = cluster.config().num_cores();
        let n = self.n;
        if !n.is_multiple_of(cores) {
            return Err(KernelError::BadShape {
                detail: format!("n = {n} must be a multiple of {cores} cores"),
            });
        }
        let rows_per_core = n / cores;
        let (a, x, y) = self.layout(cluster);
        // Each core handles `rows_per_core` rows: walk the row of A and
        // the shared x with post-increments, accumulate with p.mac.
        let src = format!(
            r#"
                csrr t0, mhartid
                li   t1, {rows_per_core}
                mul  t2, t0, t1            # first row
                add  t3, t2, t1            # end row
                li   s3, {n4}
            row_loop:
                mul  s0, t2, s3
                li   s4, {a}
                add  s0, s0, s4            # A[row][0]
                li   s1, {x}               # x[0]
                li   a0, 0                 # acc
                li   t4, {n}
            col_loop:
                p.lw a1, 4(s0!)
                p.lw a2, 4(s1!)
                p.mac a0, a1, a2
                addi t4, t4, -1
                bnez t4, col_loop
                slli a3, t2, 2
                li   a4, {y}
                add  a3, a3, a4
                sw   a0, 0(a3)             # y[row]
                addi t2, t2, 1
                blt  t2, t3, row_loop
                wfi
            "#,
            n4 = n * 4,
        );
        Ok(Program::assemble(&src)?)
    }

    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let (a, x, y) = self.layout(cluster);
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                cluster.write_spm_word(a + (i * n + j) * 4, Self::a_value(i, j))?;
            }
        }
        for j in 0..n {
            cluster.write_spm_word(x + j * 4, Self::x_value(j))?;
            cluster.write_spm_word(y + j * 4, 0)?;
        }
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let (_, _, y) = self.layout(cluster);
        for i in 0..self.n {
            let got = cluster.read_spm_word(y + i * 4)?;
            let expected = self.expected(i);
            if got != expected {
                return Err(KernelError::Mismatch {
                    detail: format!("y[{i}] = {got}, expected {expected}"),
                });
            }
        }
        Ok(())
    }
}

/// Blocked GEMV over an off-chip matrix: row blocks of `A` are streamed
/// into the SPM (no reuse), the resident phase computes, and the partial
/// `y` is written back — the memory-bound counterpart of
/// [`crate::matmul::BlockedMatmul`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedGemv {
    m: u32,
    block_rows: u32,
}

impl BlockedGemv {
    /// Creates a blocked GEMV of an `m x m` matrix processed
    /// `block_rows` rows at a time.
    ///
    /// # Panics
    ///
    /// Panics if `block_rows` does not divide `m`.
    pub fn new(m: u32, block_rows: u32) -> Self {
        assert!(
            m.is_multiple_of(block_rows),
            "block rows must divide the matrix dimension"
        );
        BlockedGemv { m, block_rows }
    }

    /// Runs the blocked computation against external memory, returning
    /// `(memory_cycles, compute_cycles)`.
    ///
    /// # Errors
    ///
    /// Propagates codegen, simulation, and DMA errors.
    pub fn run(&self, cluster: &mut Cluster) -> Result<(u64, u64), KernelError> {
        let (m, rows) = (self.m, self.block_rows);
        // External layout: A row-major at 0, x after it, y after that.
        let ext_a = 0u64;
        let ext_x = m as u64 * m as u64 * 4;
        let ext_y = ext_x + m as u64 * 4;
        for i in 0..m {
            for j in 0..m {
                cluster.storage_mut().write_external_word(
                    ext_a + (i as u64 * m as u64 + j as u64) * 4,
                    Gemv::a_value(i, j),
                );
            }
            cluster
                .storage_mut()
                .write_external_word(ext_x + i as u64 * 4, Gemv::x_value(i));
        }

        // The resident phase treats each block as a `rows x m` slab; we
        // reuse the square-phase codegen by processing `rows`-row blocks
        // with an n = m inner dimension via a rows x m layout: generate a
        // dedicated program.
        let phase = Gemv::new(m); // full-width rows
        let (a_spm, x_spm, y_spm) = phase.layout(cluster);
        let program = BlockRows {
            rows,
            m,
            a: a_spm,
            x: x_spm,
            y: y_spm,
        }
        .program(cluster)?;
        cluster.load_program(program);
        cluster.preload_icaches();

        // x is resident for the whole run.
        let mut memory = cluster.dma_tile(ext_x, 4, x_spm, 1, m * 4, true)?;
        let mut compute = 0;
        for block in 0..m / rows {
            memory += cluster.dma_tile(
                ext_a + block as u64 * rows as u64 * m as u64 * 4,
                m as u64 * 4,
                a_spm,
                rows,
                m * 4,
                true,
            )?;
            let start = cluster.cycle();
            cluster.resume_all(0)?;
            cluster.run(u64::MAX)?;
            compute += cluster.cycle() - start;
            memory += cluster.dma_tile(
                ext_y + block as u64 * rows as u64 * 4,
                4,
                y_spm,
                1,
                rows * 4,
                false,
            )?;
        }
        // Verify against the host reference.
        let full = Gemv::new(m);
        for i in 0..m {
            let got = cluster.storage().read_external_word(ext_y + i as u64 * 4);
            let expected = full.expected(i);
            if got != expected {
                return Err(KernelError::Mismatch {
                    detail: format!("y[{i}] = {got}, expected {expected}"),
                });
            }
        }
        Ok((memory, compute))
    }
}

/// Program generator for one `rows x m` block (rows distributed across
/// cores).
struct BlockRows {
    rows: u32,
    m: u32,
    a: u32,
    x: u32,
    y: u32,
}

impl BlockRows {
    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError> {
        let cores = cluster.config().num_cores();
        if !self.rows.is_multiple_of(cores) {
            return Err(KernelError::BadShape {
                detail: format!(
                    "block rows {} must be a multiple of {cores} cores",
                    self.rows
                ),
            });
        }
        let rows_per_core = self.rows / cores;
        let src = format!(
            r#"
                csrr t0, mhartid
                li   t1, {rows_per_core}
                mul  t2, t0, t1
                add  t3, t2, t1
                li   s3, {m4}
            row_loop:
                mul  s0, t2, s3
                li   s4, {a}
                add  s0, s0, s4
                li   s1, {x}
                li   a0, 0
                li   t4, {m}
            col_loop:
                p.lw a1, 4(s0!)
                p.lw a2, 4(s1!)
                p.mac a0, a1, a2
                addi t4, t4, -1
                bnez t4, col_loop
                slli a3, t2, 2
                li   a4, {y}
                add  a3, a3, a4
                sw   a0, 0(a3)
                addi t2, t2, 1
                blt  t2, t3, row_loop
                wfi
            "#,
            m4 = self.m * 4,
            a = self.a,
            x = self.x,
            y = self.y,
            m = self.m,
        );
        Ok(Program::assemble(&src)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::ClusterConfig;
    use mempool_sim::{Cluster, SimParams};

    fn cluster(bw: u32) -> Cluster {
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(512)
            .build()
            .unwrap();
        Cluster::new(cfg, SimParams::default().with_offchip_bandwidth(bw))
    }

    #[test]
    fn resident_gemv_is_correct() {
        let mut c = cluster(16);
        Gemv::new(48).run(&mut c, 10_000_000).expect("gemv failed");
    }

    #[test]
    fn blocked_gemv_is_correct_and_memory_bound() {
        // At the scaled-down 16-core instance the compute:traffic ratio is
        // 16x better than on the full 256-core cluster, so use the
        // worst-case bandwidth to land in the memory-bound regime the full
        // machine sees at 16 B/cycle.
        let mut c = cluster(4);
        let (memory, compute) = BlockedGemv::new(64, 16).run(&mut c).expect("blocked gemv");
        assert!(
            memory > compute,
            "gemv must be memory-bound at 4 B/cycle: mem {memory} vs compute {compute}"
        );
    }

    #[test]
    fn gemv_gains_more_from_bandwidth_than_matmul() {
        // The paper's memory-bound remark, simulated end to end: 4 -> 64
        // B/cycle must speed GEMV up far more than the (compute-bound)
        // matmul compute phases allow.
        use crate::matmul::BlockedMatmul;
        let gemv_total = |bw: u32| {
            let mut c = cluster(bw);
            let (m, cmp) = BlockedGemv::new(64, 16).run(&mut c).expect("gemv");
            (m + cmp) as f64
        };
        let matmul_total = |bw: u32| {
            let mut c = cluster(bw);
            let mm = BlockedMatmul::new(64, 32);
            mm.setup(&mut c).expect("setup");
            let cycles = mm.run(&mut c).expect("run");
            cycles.total() as f64
        };
        let gemv_gain = gemv_total(4) / gemv_total(64);
        let matmul_gain = matmul_total(4) / matmul_total(64);
        assert!(
            gemv_gain > 1.5 * matmul_gain,
            "gemv bandwidth gain {gemv_gain:.2} vs matmul {matmul_gain:.2}"
        );
    }

    #[test]
    fn rejects_indivisible_shapes() {
        let c = cluster(16);
        assert!(matches!(
            Gemv::new(50).program(&c),
            Err(KernelError::BadShape { .. })
        ));
    }
}
