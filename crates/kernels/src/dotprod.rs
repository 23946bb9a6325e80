//! Dot product with an atomic tree-free reduction.
//!
//! Each core accumulates a partial sum over its chunk, then publishes it
//! with a single `amoadd.w` to a shared accumulator — exercising the
//! remote-access and atomics paths of the interconnect.

use mempool_isa::Program;
use mempool_sim::Cluster;

use crate::workload::{Kernel, KernelError};

/// The dot-product kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotProduct {
    n: u32,
}

impl DotProduct {
    /// Creates `sum(x[i] * y[i])` over `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "vector length must be nonzero");
        DotProduct { n }
    }

    fn layout(&self, cluster: &Cluster) -> (u32, u32, u32) {
        let base = cluster.storage().map().interleaved_base();
        // x, y, then the shared accumulator word.
        (base, base + self.n * 4, base + 2 * self.n * 4)
    }

    fn x_value(i: u32) -> u32 {
        (i % 31) + 1
    }

    fn y_value(i: u32) -> u32 {
        (i % 17) + 2
    }

    /// Host-side reference result.
    pub(crate) fn expected(&self) -> u32 {
        (0..self.n)
            .map(|i| Self::x_value(i).wrapping_mul(Self::y_value(i)))
            .fold(0u32, u32::wrapping_add)
    }
}

impl Kernel for DotProduct {
    fn name(&self) -> &'static str {
        "dotprod"
    }

    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError> {
        let cores = cluster.config().num_cores();
        if !self.n.is_multiple_of(cores) {
            return Err(KernelError::BadShape {
                detail: format!("n = {} must be a multiple of {cores} cores", self.n),
            });
        }
        let chunk = self.n / cores;
        let (x, y, acc) = self.layout(cluster);
        let src = format!(
            r#"
                csrr t0, mhartid
                li   t1, {chunk}
                mul  t2, t0, t1
                slli t3, t2, 2
                li   s0, {x}
                add  s0, s0, t3
                li   s1, {y}
                add  s1, s1, t3
                li   a0, 0             # partial sum
                li   t4, {chunk}
            loop:
                p.lw a1, 4(s0!)
                p.lw a2, 4(s1!)
                p.mac a0, a1, a2
                addi t4, t4, -1
                bnez t4, loop
                li   s2, {acc}
                amoadd.w zero, a0, (s2)
                wfi
            "#,
        );
        Ok(Program::assemble(&src)?)
    }

    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let (x, y, acc) = self.layout(cluster);
        let xs: Vec<u32> = (0..self.n).map(Self::x_value).collect();
        let ys: Vec<u32> = (0..self.n).map(Self::y_value).collect();
        cluster.write_spm_words(x, &xs)?;
        cluster.write_spm_words(y, &ys)?;
        cluster.write_spm_word(acc, 0)?;
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let (_, _, acc) = self.layout(cluster);
        let got = cluster.read_spm_word(acc)?;
        let expected = self.expected();
        if got != expected {
            return Err(KernelError::Mismatch {
                detail: format!("dot product = {got}, expected {expected}"),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::ClusterConfig;
    use mempool_sim::SimParams;

    fn cluster(groups: u32) -> Cluster {
        let cfg = ClusterConfig::builder()
            .groups(groups)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(256)
            .build()
            .unwrap();
        Cluster::new(cfg, SimParams::default())
    }

    #[test]
    fn dot_product_is_correct_single_group() {
        let mut c = cluster(1);
        let kernel = DotProduct::new(512);
        kernel.run(&mut c, 10_000_000).expect("dotprod failed");
    }

    #[test]
    fn dot_product_is_correct_across_groups() {
        // With two groups the accumulator is remote for half the cores,
        // exercising the 5-cycle path and remote atomics.
        let mut c = cluster(2);
        let kernel = DotProduct::new(1024);
        kernel.run(&mut c, 10_000_000).expect("dotprod failed");
        let [_, _, remote] = c.stats().accesses_by_class();
        assert!(remote > 0, "multi-group run must produce remote accesses");
    }

    #[test]
    fn reduction_does_not_lose_updates_under_contention() {
        // Many cores, tiny chunks: the amoadds pile onto one bank.
        let mut c = cluster(1);
        let kernel = DotProduct::new(16);
        kernel
            .run(&mut c, 1_000_000)
            .expect("contended dotprod failed");
    }
}
