//! Degraded-mode resilience runs.
//!
//! The paper's 3D stack trades yield for density: F2F-via opens and SRAM
//! bank defects are survivable through retries, SEC-DED, and spare-bank
//! remapping, at a measurable performance cost. This module quantifies
//! that cost on the cycle-accurate simulator: the same compute phase is
//! run *clean* and *under an injected fault plan*, and the slowdown is
//! attributed cycle-exactly to the new `fault_retry` and `ecc` stall
//! buckets.
//!
//! The degraded run must still produce bit-exact results — faults degrade
//! performance, never correctness (uncorrectable errors and deadlocks are
//! typed simulator errors, not wrong numbers).

use mempool_fault::{FaultConfig, FaultPlan, FaultReport};
use mempool_obs::{AttributionReport, Json, Obs};
use mempool_sim::Cluster;

use crate::matmul::ComputePhase;
use crate::measure::probe_cluster;
use crate::workload::{Kernel, KernelError};

/// Cycle budget for one resilience phase (generous: the phase itself runs
/// in tens of thousands of cycles).
const BUDGET: u64 = 100_000_000;

/// Forward-progress watchdog threshold armed on every degraded run: a
/// genuine deadlock ends in a typed error instead of the cycle budget.
const WATCHDOG_CYCLES: u64 = 2_000_000;

/// Epoch length, in cycles, of an observed degraded run's time series.
const TIMESERIES_WINDOW: u64 = 512;

/// Events an observed degraded run keeps in its flight ring, and
/// instructions in its trace, so a crash dump carries each core's recent
/// window.
const FLIGHT_CAPACITY: usize = 512;

/// Result of a clean-vs-degraded pair of compute-phase runs.
#[derive(Debug, Clone)]
pub struct DegradedRun {
    /// Seed of the injected plan.
    pub seed: u64,
    /// Fault rate the plan was generated with.
    pub rate: f64,
    /// Cycles of the fault-free reference run.
    pub clean_cycles: u64,
    /// Cycles of the run with the plan injected.
    pub degraded_cycles: u64,
    /// Number of injected fault events.
    pub events: usize,
    /// The degraded run's fault report (retries, corrections, remaps).
    pub report: FaultReport,
    /// The degraded run's exact cycle attribution (carries the nonzero
    /// `fault_retry` / `ecc` buckets).
    pub attribution: AttributionReport,
}

impl DegradedRun {
    /// Relative slowdown of the degraded run (`0.0` = no overhead).
    pub fn overhead(&self) -> f64 {
        if self.clean_cycles == 0 {
            0.0
        } else {
            self.degraded_cycles as f64 / self.clean_cycles as f64 - 1.0
        }
    }

    /// Cycle delta between the degraded and clean runs.
    pub(crate) fn delta_cycles(&self) -> i64 {
        self.degraded_cycles as i64 - self.clean_cycles as i64
    }

    /// Serializes the comparison (summary, fault report, attribution).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Int(self.seed as i64)),
            ("rate", Json::Float(self.rate)),
            ("clean_cycles", Json::Int(self.clean_cycles as i64)),
            ("degraded_cycles", Json::Int(self.degraded_cycles as i64)),
            ("delta_cycles", Json::Int(self.delta_cycles())),
            ("overhead", Json::Float(self.overhead())),
            ("injected_events", Json::Int(self.events as i64)),
            ("fault_report", self.report.to_json()),
            ("attribution", self.attribution.to_json()),
        ])
    }
}

/// A failed degraded run: the error, plus — when the simulator itself
/// faulted — a self-contained crash dump ready to write as
/// `crashdump.json`.
#[derive(Debug)]
pub struct DegradedFailure {
    /// What went wrong.
    pub error: KernelError,
    /// [`Cluster::crash_dump`] output for simulator faults (`None` for
    /// shape/assembly/verification failures, which have no cluster state
    /// worth dumping).
    pub crash_dump: Option<Json>,
}

impl std::fmt::Display for DegradedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

/// A failure with no cluster state worth dumping.
fn plain(error: KernelError) -> Box<DegradedFailure> {
    Box::new(DegradedFailure {
        error,
        crash_dump: None,
    })
}

/// The instrumented part of the degraded run. With `obs`, attaches it to
/// `cluster` and arms the time series, the flight ring and the
/// instruction trace; lets `inject` add its faults and loads `phase`; runs
/// it within the budget; then verifies, takes the exact attribution and
/// detaches. A simulator fault comes back with the crash dump.
fn observed_phase(
    cluster: &mut Cluster,
    phase: &ComputePhase,
    obs: Option<&Obs>,
    inject: impl FnOnce(&mut Cluster) -> Result<(), KernelError>,
) -> Result<(u64, AttributionReport), Box<DegradedFailure>> {
    if let Some(obs) = obs {
        cluster.attach_obs(obs, "degraded");
        cluster.enable_timeseries(TIMESERIES_WINDOW);
        cluster.enable_flight(FLIGHT_CAPACITY);
        cluster.enable_trace(FLIGHT_CAPACITY);
    }
    inject(cluster).map_err(plain)?;
    phase.load(cluster).map_err(plain)?;
    let cycles = cluster.run(BUDGET).map_err(|sim| {
        Box::new(DegradedFailure {
            crash_dump: Some(cluster.crash_dump(&sim)),
            error: KernelError::Sim(sim),
        })
    })?;
    phase.verify(cluster).map_err(plain)?;
    let attribution = cluster.stats().attribution(
        cluster.config().cores_per_tile(),
        cluster.config().banks_per_tile(),
    );
    // Close any still-open spans so the caller's trace export is balanced.
    cluster.detach_obs();
    Ok((cycles, attribution))
}

/// Runs one compute phase clean, then again under the deterministic fault
/// plan generated from `(seed, rate)` with the forward-progress watchdog
/// armed, and returns the comparison. The timed-fault horizon is set to
/// the clean run's length so transient flips actually land inside the
/// degraded run.
///
/// When `obs` is given, the degraded cluster records spans/metrics into
/// it, samples its time series and keeps a flight-recorder ring. On a
/// simulator fault the returned [`DegradedFailure`] carries a full crash
/// dump (flight events, per-core liveness, metrics, and counter-track
/// trace) regardless of whether `obs` was given — without it the dump
/// simply degrades to its obs-free sections.
///
/// # Errors
///
/// Propagates simulation errors (including typed deadlock or
/// uncorrectable-ECC faults) and result-verification mismatches.
pub fn degraded_compute_run_observed(
    seed: u64,
    rate: f64,
    obs: Option<&Obs>,
) -> Result<DegradedRun, Box<DegradedFailure>> {
    let phase = ComputePhase::new(32);
    let clean_cycles = phase.run(&mut probe_cluster(), BUDGET).map_err(plain)?;

    let mut degraded = probe_cluster();
    let fault_cfg = FaultConfig::new(seed, rate).with_horizon(clean_cycles.max(1));
    let plan = FaultPlan::generate(&fault_cfg, degraded.config());
    let (degraded_cycles, attribution) = observed_phase(&mut degraded, &phase, obs, |cluster| {
        cluster.inject_faults(&plan)?;
        cluster.set_watchdog(WATCHDOG_CYCLES);
        Ok(())
    })?;
    let report = degraded
        .fault_report()
        .expect("a plan was injected, so a report exists");
    Ok(DegradedRun {
        seed,
        rate,
        clean_cycles,
        degraded_cycles,
        events: plan.len(),
        report,
        attribution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed-42 degraded phase through [`observed_phase`] with `obs`
    /// attached; `arm` adjusts the armed cluster once the plan is in.
    fn seed_42_phase(
        obs: &Obs,
        arm: impl FnOnce(&mut Cluster),
    ) -> Result<(u64, AttributionReport), Box<DegradedFailure>> {
        let phase = ComputePhase::new(32);
        let clean_cycles = phase.run(&mut probe_cluster(), BUDGET).unwrap();
        let mut cluster = probe_cluster();
        let fault_cfg = FaultConfig::new(42, 1e-6).with_horizon(clean_cycles);
        let plan = FaultPlan::generate(&fault_cfg, cluster.config());
        observed_phase(&mut cluster, &phase, Some(obs), |cluster| {
            cluster.inject_faults(&plan)?;
            arm(cluster);
            Ok(())
        })
    }

    #[test]
    fn degraded_run_is_slower_but_correct_and_exactly_attributed() {
        let run = degraded_compute_run_observed(42, 1e-6, None).unwrap();
        assert!(run.events >= 2, "generation floors guarantee faults");
        assert!(
            run.degraded_cycles > run.clean_cycles,
            "retries must cost cycles ({} vs {})",
            run.degraded_cycles,
            run.clean_cycles
        );
        assert!(run.overhead() > 0.0);
        assert!(run.report.retried_accesses > 0);
        // Exact accounting survives fault injection: every core's buckets
        // sum to the total, and the new buckets carry the delta.
        for core in &run.attribution.cores {
            assert_eq!(core.total(), run.attribution.cycles);
        }
        assert!(run.attribution.cluster.fault_retry > 0);
    }

    #[test]
    fn observed_run_fills_the_shared_series_and_flight_ring() {
        let obs = Obs::new();
        let run = degraded_compute_run_observed(42, 1e-6, Some(&obs)).unwrap();
        assert!(run.degraded_cycles > run.clean_cycles);
        assert!(!obs.series.is_empty(), "epoch sampling must produce tracks");
        assert!(
            !obs.flight.is_empty(),
            "served requests must land in the flight ring"
        );
        // Attribution stays exact under instrumentation.
        for core in &run.attribution.cores {
            assert_eq!(core.total(), run.attribution.cycles);
        }
    }

    /// A ring large enough to keep every event of the seed-42 run holds
    /// each fault event of its plan: the cycle-0 remap, 12 800 retries
    /// through the degraded link and the one flip.
    #[test]
    fn a_full_ring_holds_every_fault_event_of_the_seed_42_plan() {
        let obs = Obs::new();
        seed_42_phase(&obs, |cluster| cluster.enable_flight(1 << 16)).unwrap();
        assert_eq!(obs.flight.dropped(), 0);
        let faults: Vec<_> = obs
            .flight
            .events()
            .into_iter()
            .filter(|event| event.category == "fault")
            .collect();
        assert_eq!(faults.len(), 12_802);
        let retry = "retry through degraded link of tile 0 (+7 cycles)";
        let others: Vec<(u64, &str)> = faults
            .iter()
            .filter(|event| event.message != retry)
            .map(|event| (event.cycle, event.message.as_str()))
            .collect();
        assert_eq!(
            others,
            [
                (0, "stuck bank 0 on tile 2 remapped to spare 16"),
                (
                    4540,
                    "transient flip mask 0x800000 at tile 2 bank 5 word 381"
                ),
            ]
        );
    }

    #[test]
    fn a_hair_trigger_watchdog_fails_with_a_crash_dump() {
        // Threshold 1 deadlocks the degraded run on its first stall
        // cycle; the failure must carry a parseable dump.
        let obs = Obs::new();
        let failure = seed_42_phase(&obs, |cluster| cluster.set_watchdog(1)).unwrap_err();
        assert!(matches!(failure.error, KernelError::Sim(_)));
        let dump = failure.crash_dump.expect("sim faults carry a dump");
        let doc = Json::parse(&dump.to_pretty()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mempool-crashdump/v1")
        );
        assert!(!doc
            .get("liveness")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
        assert!(!doc.get("events").and_then(Json::as_arr).unwrap().is_empty());
        // The attribution runs up to the failure: the erroring tick counts.
        let cycle = doc.get("cycle").and_then(Json::as_int).unwrap();
        let attributed = doc.get("attribution").and_then(|a| a.get("cycles"));
        assert_eq!(attributed.and_then(Json::as_int), Some(cycle));
        // Even though no epoch boundary was reached, the dump flushes the
        // partial epoch so counter tracks are present.
        let series = doc
            .get("timeseries")
            .and_then(|t| t.get("series"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(!series.is_empty(), "partial epoch must be flushed");
    }

    #[test]
    fn json_summary_carries_the_comparison() {
        let run = degraded_compute_run_observed(7, 1e-6, None).unwrap();
        let json = run.to_json();
        assert_eq!(json.get("seed").unwrap().as_int(), Some(7));
        assert!(json.get("fault_report").is_some());
        assert!(json.get("attribution").is_some());
        let text = json.to_string();
        assert!(text.contains("degraded_cycles"));
    }
}
