//! # mempool-sim
//!
//! A cycle-accurate simulator of the MemPool shared-L1 many-core cluster.
//!
//! The simulator models the structures the paper's performance analysis
//! (Section VI) depends on:
//!
//! * **Snitch-like cores** — in-order, single-issue, with a register
//!   scoreboard allowing multiple outstanding loads (only a *use* of a
//!   pending destination register stalls);
//! * **tile crossbar and hierarchical interconnect** — every SPM bank
//!   accepts one access per cycle (earliest arrival first), with the
//!   paper's zero-load latencies of 1 / 3 / 5 cycles for tile-local,
//!   group-local, and remote-group accesses;
//! * **L1 instruction caches** — 2 KiB per tile, with a hot-cache preload
//!   mode matching the paper's compute-phase measurement methodology;
//! * **off-chip memory port** — a configurable-bandwidth DMA model
//!   (bytes/cycle) with idealized latency, exactly as Section VI-A assumes.
//!
//! ## Example
//!
//! ```
//! use mempool_arch::ClusterConfig;
//! use mempool_isa::Program;
//! use mempool_sim::{Cluster, SimParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = ClusterConfig::builder()
//!     .groups(1)
//!     .tiles_per_group(1)
//!     .cores_per_tile(2)
//!     .build()?;
//! let program = Program::assemble(
//!     r#"
//!         csrr a0, mhartid
//!         slli a1, a0, 2      # each core stores to its own word
//!         li   a2, 100
//!         add  a2, a2, a0
//!         sw   a2, 0(a1)
//!         wfi
//!     "#,
//! )?;
//! let mut cluster = Cluster::new(cfg, SimParams::default());
//! cluster.load_program(program);
//! cluster.run(10_000)?;
//! assert_eq!(cluster.read_spm_word(0)?, 100);
//! assert_eq!(cluster.read_spm_word(4)?, 101);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;
pub(crate) mod cluster;
pub mod core;
pub(crate) mod engine;
pub mod icache;
pub mod memory;
pub(crate) mod offchip;
pub(crate) mod params;
pub(crate) mod profile;
pub(crate) mod stats;
pub(crate) mod trace;

pub use ckpt::CheckpointError;
pub use cluster::{Cluster, EngineSelection, SimError};
pub use offchip::OffchipPort;
pub use params::{fnv1a, SimParams, ENGINE_VERSION, FNV_OFFSET};
pub use profile::engine_profile_json;
pub use stats::{BankStats, ClusterStats, CoreStats};
