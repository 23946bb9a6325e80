//! Deterministic fault injection and resilience for the MemPool cluster
//! simulator.
//!
//! 3D-stacked designs like MemPool-3D trade the 2D layout's routing
//! congestion for new physical failure modes: open or marginal F2F bumps
//! on the die-to-die interface, defective SRAM banks on the memory die,
//! and radiation-induced transient upsets. This crate models those faults
//! and the corresponding resilience machinery:
//!
//! * [`FaultPlan`] / [`FaultConfig`] — a deterministic, seeded schedule of
//!   faults ([`FaultEvent`]): degraded F2F links, stuck banks and
//!   transient bit flips. The same `(seed, rate, geometry)`
//!   triple always yields the identical plan.
//! * [`FaultController`] — runtime state the simulator consults each
//!   cycle: per-tile [`LinkState`], timed events, and the accumulating
//!   [`FaultReport`].
//! * [`EccState`] — SEC-DED model: single-bit upsets are corrected (and
//!   scrubbed) at a latency cost; multi-bit upsets raise a typed error.
//!   The simulator's storage owns it, beside the words the flips corrupt:
//!   the controller delivers faults, the storage keeps their damage.
//! * [`Watchdog`] / [`CoreDiagnostic`] — forward-progress deadlock
//!   detection with a per-core snapshot explaining *why* the cluster
//!   stopped making progress.
//!
//! The simulator (`mempool-sim`) wires these into its cycle loop; the
//! `repro` binary exposes them via `--faults SEED[:RATE]`, whose degraded
//! run always arms the watchdog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod controller;
pub(crate) mod ecc;
pub(crate) mod plan;
pub(crate) mod report;
pub(crate) mod rng;
pub(crate) mod watchdog;

pub use controller::{FaultController, FaultNote, LinkState, TimedFault};
pub use ecc::{EccOutcome, EccState};
pub use plan::{FaultConfig, FaultEvent, FaultPlan};
pub use report::{FaultReport, RemappedBank};
pub use rng::XorShift64;
pub use watchdog::{CoreDiagnostic, Watchdog};

#[cfg(test)]
mod properties {
    use mempool_arch::ClusterConfig;
    use proptest::prelude::*;

    use crate::plan::{FaultConfig, FaultPlan};

    fn geometry(tiles: u32, banks: u32) -> ClusterConfig {
        ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(tiles)
            .cores_per_tile(4)
            .banks_per_tile(banks)
            .bank_words(256)
            .build()
            .expect("valid geometry")
    }

    proptest! {
        /// Any seed/rate/geometry combination yields the identical fault
        /// schedule when generated twice — the property the whole
        /// reproducibility story rests on.
        #[test]
        fn any_seed_yields_identical_schedules(
            seed in any::<u64>(),
            rate_exp in 3u32..12,
            tiles_exp in 0u32..3,
            banks_log in 2u32..5,
        ) {
            // tiles_per_group must be a perfect square: 1, 4, or 16.
            let cluster = geometry(1 << (2 * tiles_exp), 1 << banks_log);
            let rate = 10f64.powi(-(rate_exp as i32));
            let cfg = FaultConfig::new(seed, rate);
            let first = FaultPlan::generate(&cfg, &cluster);
            let second = FaultPlan::generate(&cfg, &cluster);
            prop_assert_eq!(&first, &second);
            // rate > 0 always floors to at least one degraded link and
            // one stuck bank.
            prop_assert!(first.len() >= 2);
        }
    }
}
