//! # mempool-phys
//!
//! A parametric physical-implementation model of MemPool in a generic 28 nm
//! technology, covering both the conventional **2D** flow (eight-metal
//! BEOL, over-the-tile routing) and the **Macro-3D** face-to-face-bonded
//! **3D** flow (two dies with mirrored six-metal BEOLs joined by a 1 µm
//! pitch F2F via layer).
//!
//! The model replaces the paper's Synopsys DC + Cadence Innovus + Macro-3D
//! toolchain with analytic physical design: every Table I/II quantity is
//! *computed from geometry* — floorplans, channel routing supply/demand,
//! net-length estimation over the group interconnect netlist, buffered-wire
//! timing, and activity-based power — rather than looked up. Technology
//! constants are calibrated once against the paper's stated baseline
//! anchors (37 % of the 2D critical path is wire delay; the 1 MiB memory
//! die is 51 % utilized; ~183k buffers in the baseline group) and
//! everything else emerges from the model.
//!
//! The model has two fixed inputs: the MemPool gate inventory (the
//! published design's gate-equivalent counts) and the matmul workload's
//! activity, under which every group reports its power. The one input a
//! caller may vary is the technology: `implement(capacity, flow)` uses the
//! calibrated [`Technology::n28`], and the tile's and group's
//! `implement_with(capacity, flow, &tech)` take any other (the ablations
//! perturb it one constant at a time). Every report of a group, its area
//! breakdown included, reads the technology the group was implemented in.
//!
//! ## Example
//!
//! ```
//! use mempool_phys::{Flow, GroupImplementation, TileImplementation};
//! use mempool_arch::SpmCapacity;
//!
//! let t2d = TileImplementation::implement(SpmCapacity::MiB1, Flow::TwoD);
//! let t3d = TileImplementation::implement(SpmCapacity::MiB1, Flow::ThreeD);
//! assert!(t3d.footprint_um2() < t2d.footprint_um2());
//!
//! let g2d = GroupImplementation::implement(SpmCapacity::MiB4, Flow::TwoD);
//! let g3d = GroupImplementation::implement(SpmCapacity::MiB4, Flow::ThreeD);
//! assert!(g3d.frequency_ghz() > g2d.frequency_ghz());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod area;
pub(crate) mod cluster;
pub(crate) mod f2f;
pub(crate) mod flow;
pub(crate) mod group;
pub(crate) mod netlist;
pub(crate) mod power;
pub mod report;
pub(crate) mod route;
pub(crate) mod sram;
pub(crate) mod tech;
pub mod tile;
pub(crate) mod timing;
pub mod viz;

pub use area::AreaReport;
pub use cluster::ClusterImplementation;
pub use flow::Flow;
pub use group::GroupImplementation;
pub use tech::Technology;
pub use tile::TileImplementation;
