//! # mempool-kernels
//!
//! Workload kernels for the MemPool simulator, plus the analytic
//! phase-accumulation model of the paper's Section VI-A.
//!
//! The centerpiece is the blocked **matrix multiplication**: a large
//! `M x M` product whose operands live in off-chip memory. Input tiles are
//! DMA-transferred into the SPM (*memory phase*), all cores compute on them
//! (*compute phase*), and the output tile is written back; bigger SPMs
//! allow bigger tiles, more data reuse, and longer compute phases. The
//! crate provides:
//!
//! * [`matmul::ComputePhase`] — generated RV32IM+Xpulpimg code for one
//!   compute phase, run cycle-accurately on [`mempool_sim::Cluster`];
//! * [`matmul::BlockedMatmul`] — a full multi-phase orchestration (DMA +
//!   compute) for simulator-scale problems;
//! * [`matmul::PhaseModel`] — the paper's analytic cycle model for the
//!   full `M = 326400` problem, parameterized by constants *measured* on
//!   the simulator ([`measure`]);
//! * smaller kernels ([`axpy`], [`dotprod`], [`conv2d`], [`transpose`])
//!   exercising the same code paths, used by the examples;
//! * a central barrier built from the A-extension atomics;
//! * degraded-mode [`resilience`] runs: the same compute phase clean and
//!   under an injected fault plan, with the slowdown attributed exactly.
//!
//! ## Example
//!
//! ```
//! use mempool_kernels::matmul::PhaseModel;
//! use mempool_arch::SpmCapacity;
//!
//! let model = PhaseModel::with_measured_defaults();
//! let base = model.total_cycles(SpmCapacity::MiB1, 4);
//! let big = model.total_cycles(SpmCapacity::MiB8, 4);
//! // Figure 6: at 4 B/cycle the 8 MiB configuration is far faster.
//! assert!(base as f64 / big as f64 > 1.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axpy;
pub(crate) mod barrier;
pub mod conv2d;
pub mod dotprod;
pub mod matmul;
pub mod measure;
pub mod resilience;
pub mod transpose;
pub(crate) mod workload;

pub use workload::{Kernel, KernelError};
