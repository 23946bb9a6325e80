//! AXPY kernel: `y[i] = a * x[i] + y[i]` over all cores.
//!
//! A bandwidth-friendly streaming kernel: each core handles a contiguous
//! chunk of the vectors in the interleaved region, so consecutive words
//! hit consecutive banks and the cluster streams conflict-free.

use mempool_isa::Program;
use mempool_sim::Cluster;

use crate::workload::{Kernel, KernelError};

/// The AXPY kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Axpy {
    n: u32,
    a: u32,
}

impl Axpy {
    /// Creates `y = a*x + y` over `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u32, a: u32) -> Self {
        assert!(n > 0, "vector length must be nonzero");
        Axpy { n, a }
    }

    fn bases(&self, cluster: &Cluster) -> (u32, u32) {
        let base = cluster.storage().map().interleaved_base();
        (base, base + self.n * 4)
    }

    fn x_value(i: u32) -> u32 {
        i * 3 + 1
    }

    fn y_value(i: u32) -> u32 {
        i.wrapping_mul(7) + 2
    }
}

impl Kernel for Axpy {
    fn name(&self) -> &'static str {
        "axpy"
    }

    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError> {
        let cores = cluster.config().num_cores();
        if !self.n.is_multiple_of(cores) {
            return Err(KernelError::BadShape {
                detail: format!("n = {} must be a multiple of {cores} cores", self.n),
            });
        }
        let chunk = self.n / cores;
        // Core-strided distribution: core c handles elements c, c+N,
        // c+2N, ... so that at any instant different cores sit on
        // different banks of the interleaved region.
        let stride = cores * 4;
        if stride > 2047 {
            return Err(KernelError::BadShape {
                detail: format!("{cores} cores exceed the post-increment stride limit"),
            });
        }
        let (x, y) = self.bases(cluster);
        let src = format!(
            r#"
                csrr t0, mhartid
                slli t3, t0, 2         # byte offset of my first element
                li   s0, {x}
                add  s0, s0, t3        # x pointer
                li   s1, {y}
                add  s1, s1, t3        # y pointer
                li   s2, {a}           # scalar a
                li   t4, {chunk}
            loop:
                p.lw a0, {stride}(s0!)
                lw   a1, 0(s1)
                p.mac a1, s2, a0       # y += a * x
                p.sw a1, {stride}(s1!)
                addi t4, t4, -1
                bnez t4, loop
                wfi
            "#,
            a = self.a,
        );
        Ok(Program::assemble(&src)?)
    }

    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let (x, y) = self.bases(cluster);
        let xs: Vec<u32> = (0..self.n).map(Self::x_value).collect();
        let ys: Vec<u32> = (0..self.n).map(Self::y_value).collect();
        cluster.write_spm_words(x, &xs)?;
        cluster.write_spm_words(y, &ys)?;
        Ok(())
    }

    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError> {
        let (_, y) = self.bases(cluster);
        let mut ys = vec![0; self.n as usize];
        cluster.read_spm_words(y, &mut ys)?;
        for (i, &got) in (0..).zip(&ys) {
            let expected = Self::y_value(i).wrapping_add(self.a.wrapping_mul(Self::x_value(i)));
            if got != expected {
                return Err(KernelError::Mismatch {
                    detail: format!("y[{i}] = {got}, expected {expected}"),
                });
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
    fn axpy_computes_correctly() {
        let mut c = cluster();
        let kernel = Axpy::new(1024, 5);
        let cycles = kernel.run(&mut c, 10_000_000).expect("axpy failed");
        assert!(cycles > 0);
    }

    #[test]
    fn axpy_streams_with_low_conflict_rate() {
        let mut c = cluster();
        let kernel = Axpy::new(1024, 5);
        kernel.run(&mut c, 10_000_000).unwrap();
        let stats = c.stats();
        let accesses: u64 = stats.accesses_by_class().iter().sum();
        let conflicts = stats.total_conflicts();
        assert!(
            (conflicts as f64) < 0.25 * accesses as f64,
            "streaming kernel conflicted too much: {conflicts}/{accesses}"
        );
    }

    #[test]
    fn axpy_rejects_indivisible_length() {
        let c = cluster();
        let kernel = Axpy::new(1000, 5); // not a multiple of 16
        assert!(matches!(
            kernel.program(&c),
            Err(KernelError::BadShape { .. })
        ));
    }

    #[test]
    fn per_core_throughput_is_reasonable() {
        let mut c = cluster();
        let kernel = Axpy::new(2048, 3);
        let cycles = kernel.run(&mut c, 10_000_000).unwrap();
        let elems_per_core = 2048 / c.config().num_cores();
        let cpe = cycles as f64 / elems_per_core as f64;
        // 6 issue slots per element plus stalls.
        assert!((5.0..12.0).contains(&cpe), "cycles per element {cpe:.2}");
    }
}
