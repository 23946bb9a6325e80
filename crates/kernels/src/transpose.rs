//! Matrix transpose in the SPM — the classic bank-conflict stress test.
//!
//! Reading a matrix row-wise while writing it column-wise makes one of the
//! two access streams stride through the interleaved banks with the matrix
//! dimension as its step. When that dimension is a multiple of the bank
//! count, the writes all land in the same bank and serialize — exactly the
//! pathology word-level interleaving is supposed to prevent for unit
//! strides. The kernel and its tests document this boundary of the
//! architecture.

use mempool_isa::Program;
use mempool_sim::Cluster;

use crate::workload::{Kernel, KernelError};

/// The transpose kernel: `out[j][i] = in[i][j]` for an `n x n` matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transpose {
    n: u32,
}

impl Transpose {
    /// Creates an `n x n` transpose.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `n * 4` exceeds the post-increment limit.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "matrix dimension must be nonzero");
        assert!(
            n * 4 <= 2047,
            "dimension limited by the 12-bit post-increment"
        );
        Transpose { n }
    }

    fn layout(&self, cluster: &Cluster) -> (u32, u32) {
        let base = cluster.storage().map().interleaved_base();
        (base, base + self.n * self.n * 4)
    }

    fn value(&self, i: u32, j: u32) -> u32 {
        i * self.n + j + 1
    }
}

impl Kernel for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
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
        let (input, output) = self.layout(cluster);
        let n4 = n * 4;
        // Each core reads its rows sequentially (unit stride through the
        // banks) and writes them as columns (stride n words).
        let src = format!(
            r#"
                csrr t0, mhartid
                li   t1, {rows_per_core}
                mul  t2, t0, t1            # first row
                add  t3, t2, t1            # end row
                li   s3, {n4}
            row_loop:
                mul  s0, t2, s3
                li   s4, {input}
                add  s0, s0, s4            # read ptr: in[row][0]
                slli s1, t2, 2
                li   s5, {output}
                add  s1, s1, s5            # write ptr: out[0][row]
                li   t4, {n}
            elem_loop:
                p.lw a0, 4(s0!)
                p.sw a0, {n4}(s1!)
                addi t4, t4, -1
                bnez t4, elem_loop
                addi t2, t2, 1
                blt  t2, t3, row_loop
                wfi
            "#,
        );
        Ok(Program::assemble(&src)?)
    }

    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let (input, output) = self.layout(cluster);
        let n = self.n;
        let mut row = vec![0; n as usize];
        for i in 0..n {
            for (j, word) in (0..).zip(&mut row) {
                *word = self.value(i, j);
            }
            cluster.write_spm_words(input + i * n * 4, &row)?;
        }
        cluster.write_spm_words(output, &vec![0; (n * n) as usize])?;
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let (_, output) = self.layout(cluster);
        let n = self.n;
        let mut out = vec![0; (n * n) as usize];
        cluster.read_spm_words(output, &mut out)?;
        for i in 0..n {
            for j in 0..n {
                let got = out[(j * n + i) as usize];
                let expected = self.value(i, j);
                if got != expected {
                    return Err(KernelError::Mismatch {
                        detail: format!("out[{j}][{i}] = {got}, expected {expected}"),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::ClusterConfig;
    use mempool_sim::SimParams;

    fn cluster() -> Cluster {
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
    fn transpose_is_correct() {
        let mut c = cluster();
        Transpose::new(32)
            .run(&mut c, 10_000_000)
            .expect("transpose failed");
    }

    #[test]
    fn power_of_two_dimension_conflicts_badly() {
        // n = 64 equals the bank count: every column write of a core hits
        // the same bank. n = 48 (not a divisor-aligned stride) spreads.
        let mut aligned = cluster();
        Transpose::new(64).run(&mut aligned, 10_000_000).unwrap();
        let aligned_stats = aligned.stats();
        let aligned_rate = aligned_stats.total_conflicts() as f64
            / aligned_stats.accesses_by_class().iter().sum::<u64>() as f64;

        let mut skewed = cluster();
        Transpose::new(48).run(&mut skewed, 10_000_000).unwrap();
        let skewed_stats = skewed.stats();
        let skewed_rate = skewed_stats.total_conflicts() as f64
            / skewed_stats.accesses_by_class().iter().sum::<u64>() as f64;

        assert!(
            aligned_rate > 2.0 * skewed_rate,
            "bank-aligned stride must conflict far more: {aligned_rate:.3} vs {skewed_rate:.3}"
        );
    }

    #[test]
    fn rejects_indivisible_dimension() {
        let c = cluster();
        assert!(matches!(
            Transpose::new(40).program(&c),
            Err(KernelError::BadShape { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "post-increment")]
    fn oversized_dimension_panics() {
        let _ = Transpose::new(512);
    }
}
