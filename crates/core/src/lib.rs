//! # mempool
//!
//! Top-level design-space exploration for the MemPool-3D reproduction:
//! this crate ties the cycle-accurate simulator ([`mempool_sim`]), the
//! physical-implementation model ([`mempool_phys`]), and the workload
//! kernels ([`mempool_kernels`]) together into the eight design points the
//! paper evaluates — `MemPool-{2D,3D}_{1,2,4,8}MiB` — and regenerates
//! every table and figure of its evaluation:
//!
//! * [`experiments::Table1`] — tile implementation results;
//! * [`experiments::Table2`] — group implementation results;
//! * [`experiments::Fig6`] — matmul cycle-count speedup vs off-chip
//!   bandwidth;
//! * [`experiments::Fig7`] — performance vs SPM capacity;
//! * [`experiments::Fig8`] — energy efficiency vs SPM capacity;
//! * [`experiments::Fig9`] — energy-delay product vs SPM capacity.
//!
//! [`paper`] records the values the paper reports, so every experiment can
//! print a measured-vs-paper comparison.
//!
//! ## Example
//!
//! ```
//! use mempool::DesignPoint;
//! use mempool_arch::SpmCapacity;
//! use mempool_phys::Flow;
//!
//! let point = DesignPoint::new(Flow::ThreeD, SpmCapacity::MiB4);
//! assert_eq!(point.name(), "MemPool-3D_4MiB");
//! let group = point.implement_group();
//! assert!(group.frequency_ghz() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod dse;
pub mod experiments;
pub mod paper;
pub(crate) mod table;

pub use design::DesignPoint;
