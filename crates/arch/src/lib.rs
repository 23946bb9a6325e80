//! # mempool-arch
//!
//! Architecture description of the MemPool shared-L1 many-core cluster, as
//! described in Cavalcante et al., *"MemPool: A Shared-L1 Memory Many-Core
//! Cluster with a Low-Latency Interconnect"* (DATE 2021) and extended for 3D
//! integration in *"MemPool-3D"* (DATE 2022).
//!
//! MemPool is built hierarchically:
//!
//! * a **tile** contains 4 Snitch RV32IMAXpulpimg cores, 2 KiB of L1
//!   instruction cache, and 16 SRAM banks of scratchpad memory (SPM)
//!   accessible locally within one cycle, connected by a fully connected
//!   logarithmic crossbar; four remote ports let other tiles reach the local
//!   banks;
//! * a **group** contains 16 tiles connected by four 16x16 radix-4 butterfly
//!   networks (*local*, *north*, *northeast*, *east*); banks in the same
//!   group are reachable in three cycles;
//! * the **cluster** contains four groups with point-to-point connections;
//!   banks in remote groups are reachable in five cycles.
//!
//! This crate captures the *architectural* parameters — topology, banking,
//! address interleaving, latency classes, and capacity presets — shared by
//! the cycle-accurate simulator (`mempool-sim`) and the physical model
//! (`mempool-phys`).
//!
//! ## Example
//!
//! ```
//! use mempool_arch::{ClusterConfig, SpmCapacity};
//!
//! let cfg = ClusterConfig::with_capacity(SpmCapacity::MiB4);
//! assert_eq!(cfg.num_cores(), 256);
//! assert_eq!(cfg.num_banks(), 1024);
//! assert_eq!(cfg.spm_bytes(), 4 * 1024 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod address;
pub(crate) mod capacity;
pub(crate) mod config;
pub(crate) mod ids;
pub(crate) mod latency;
pub(crate) mod topology;

pub use address::{AddressMap, BankLocation, MemoryRegion, RemapError};
pub use capacity::SpmCapacity;
pub use config::{ClusterConfig, ConfigError};
pub use ids::{BankId, GlobalCoreId, TileId};
pub use latency::{AccessClass, LatencyModel};
pub use topology::{GroupNetwork, Topology};
