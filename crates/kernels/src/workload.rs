//! The kernel abstraction shared by all workloads.

use std::fmt;

use mempool_isa::{AssembleError, Program};
use mempool_sim::{Cluster, SimError};

/// Error raised while building, running, or verifying a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The generated assembly failed to assemble (a codegen bug).
    Assemble(AssembleError),
    /// The simulator faulted.
    Sim(SimError),
    /// The kernel's output did not match the reference.
    Mismatch {
        /// Human-readable description of the first mismatch.
        detail: String,
    },
    /// The cluster configuration cannot run this kernel (e.g. a problem
    /// size not divisible by the core count).
    BadShape {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Assemble(e) => write!(f, "kernel codegen produced bad assembly: {e}"),
            KernelError::Sim(e) => write!(f, "simulation failed: {e}"),
            KernelError::Mismatch { detail } => write!(f, "output mismatch: {detail}"),
            KernelError::BadShape { detail } => write!(f, "invalid kernel shape: {detail}"),
        }
    }
}

impl std::error::Error for KernelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KernelError::Assemble(e) => Some(e),
            KernelError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AssembleError> for KernelError {
    fn from(e: AssembleError) -> Self {
        KernelError::Assemble(e)
    }
}

impl From<SimError> for KernelError {
    fn from(e: SimError) -> Self {
        KernelError::Sim(e)
    }
}

/// A workload that can be run on a [`Cluster`] and verified against a
/// host-side reference.
pub trait Kernel {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Generates the per-core program for the given cluster.
    ///
    /// # Errors
    ///
    /// Returns an error if the kernel cannot be built for this cluster
    /// shape.
    fn program(&self, cluster: &Cluster) -> Result<Program, KernelError>;

    /// Writes the kernel's inputs into the cluster's memory.
    ///
    /// # Errors
    ///
    /// Returns an error if input placement fails.
    fn setup(&self, cluster: &mut Cluster) -> Result<(), KernelError>;

    /// Checks the kernel's outputs against the host-side reference.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Mismatch`] describing the first wrong value.
    fn verify(&self, cluster: &Cluster) -> Result<(), KernelError>;

    /// The fresh-start prologue: generates the program, writes the
    /// inputs, loads the program and preloads the I$ (the paper measures
    /// with a hot instruction cache). A cluster restored from a checkpoint
    /// must never repeat it — `load_program` resets every PC.
    ///
    /// # Errors
    ///
    /// Propagates any build or input-placement error.
    fn load(&self, cluster: &mut Cluster) -> Result<(), KernelError> {
        let program = self.program(cluster)?;
        self.setup(cluster)?;
        cluster.load_program(program);
        cluster.preload_icaches();
        Ok(())
    }

    /// Convenience driver: [`Self::load`], run, verify. Returns the cycle
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates any build, simulation, or verification error.
    fn run(&self, cluster: &mut Cluster, max_cycles: u64) -> Result<u64, KernelError> {
        self.load(cluster)?;
        let start = cluster.cycle();
        let end = cluster.run(max_cycles)?;
        self.verify(cluster)?;
        Ok(end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = KernelError::Mismatch {
            detail: "C[0][0] = 3, expected 4".into(),
        };
        assert!(e.to_string().contains("C[0][0]"));
        let e = KernelError::BadShape {
            detail: "n must divide cores".into(),
        };
        assert!(e.to_string().contains("invalid kernel shape"));
    }

    #[test]
    fn sim_errors_convert() {
        let e: KernelError = SimError::Timeout { cycles: 5 }.into();
        assert!(matches!(e, KernelError::Sim(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
