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

/// Observability hooks for the degraded run: an [`Obs`] bundle the
/// degraded cluster attaches to, plus optional time-series sampling and
/// flight recording. The flight recorder implies instruction tracing so a
/// crash dump carries each core's recent-instruction window.
#[derive(Debug, Clone)]
pub struct DegradedObs {
    /// Shared observability bundle (clones share state).
    pub obs: Obs,
    /// Epoch length in cycles for time-series sampling, when wanted.
    pub timeseries_window: Option<u64>,
    /// Flight-recorder ring capacity, when wanted.
    pub flight_capacity: Option<usize>,
}

/// An instrumented *clean* run: the compute phase with the full
/// observability stack attached but no fault plan. This is the run behind
/// `repro --timeseries/--flight` without `--faults`.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// Cycles the instrumented phase took.
    pub cycles: u64,
    /// Exact cycle attribution of the instrumented run.
    pub attribution: AttributionReport,
}

impl ObservedRun {
    /// Serializes the run summary (cycle count, attribution).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::Int(self.cycles as i64)),
            ("attribution", self.attribution.to_json()),
        ])
    }

    /// One-line text form for the repro CLI.
    pub fn to_text(&self) -> String {
        format!("observed clean run: {} cycles", self.cycles)
    }
}

/// Runs one *clean* compute phase with observability attached: spans and
/// metrics into the shared [`Obs`], plus optional time-series sampling
/// and a flight-recorder ring (which implies instruction tracing, as in
/// the degraded path).
///
/// # Errors
///
/// Propagates simulation and verification errors; simulator faults carry
/// a full crash dump, as in [`degraded_compute_run_observed`].
pub fn observed_compute_run(hooks: &DegradedObs) -> Result<ObservedRun, Box<DegradedFailure>> {
    let mut cluster = probe_cluster();
    let phase = ComputePhase::new(32);
    let (cycles, attribution) =
        observed_phase(&mut cluster, "observed", &phase, Some(hooks), |_| Ok(()))?;
    Ok(ObservedRun {
        cycles,
        attribution,
    })
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

/// The instrumented part of a probe run, shared by the clean and the
/// degraded run. Arms `hooks` on `cluster` as the process `name`; lets
/// `inject` add its faults and loads `phase`; runs it within the budget;
/// then verifies, takes the exact attribution and detaches. A simulator
/// fault comes back with the crash dump.
fn observed_phase(
    cluster: &mut Cluster,
    name: &str,
    phase: &ComputePhase,
    hooks: Option<&DegradedObs>,
    inject: impl FnOnce(&mut Cluster) -> Result<(), KernelError>,
) -> Result<(u64, AttributionReport), Box<DegradedFailure>> {
    if let Some(hooks) = hooks {
        cluster.attach_obs(&hooks.obs, name);
        if let Some(window) = hooks.timeseries_window {
            cluster.enable_timeseries(window);
        }
        if let Some(capacity) = hooks.flight_capacity {
            cluster.enable_flight(capacity);
            cluster.enable_trace(capacity);
        }
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
/// plan generated from `(seed, rate)`, and returns the comparison. The
/// timed-fault horizon is set to the clean run's length so transient flips
/// actually land inside the degraded run; `watchdog`, when given, arms the
/// forward-progress watchdog for the degraded run.
///
/// When `hooks` is given, the degraded cluster records spans/metrics into
/// the shared [`Obs`] and optionally samples time series, keeps a
/// flight-recorder ring. On a simulator fault the
/// returned [`DegradedFailure`] carries a full crash dump (flight events,
/// per-core liveness, metrics, and counter-track trace) regardless of
/// whether hooks were attached — without hooks the dump simply degrades to
/// its obs-free sections.
///
/// # Errors
///
/// Propagates simulation errors (including typed deadlock or
/// uncorrectable-ECC faults) and result-verification mismatches.
pub fn degraded_compute_run_observed(
    seed: u64,
    rate: f64,
    watchdog: Option<u64>,
    hooks: Option<&DegradedObs>,
) -> Result<DegradedRun, Box<DegradedFailure>> {
    let phase = ComputePhase::new(32);
    let clean_cycles = phase.run(&mut probe_cluster(), BUDGET).map_err(plain)?;

    let mut degraded = probe_cluster();
    let fault_cfg = FaultConfig::new(seed, rate).with_horizon(clean_cycles.max(1));
    let plan = FaultPlan::generate(&fault_cfg, degraded.config());
    let (degraded_cycles, attribution) =
        observed_phase(&mut degraded, "degraded", &phase, hooks, |cluster| {
            cluster.inject_faults(&plan)?;
            if let Some(threshold) = watchdog {
                cluster.set_watchdog(threshold);
            }
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

    #[test]
    fn degraded_run_is_slower_but_correct_and_exactly_attributed() {
        let run = degraded_compute_run_observed(42, 1e-6, Some(2_000_000), None).unwrap();
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
        let hooks = DegradedObs {
            obs: Obs::new(),
            timeseries_window: Some(256),
            flight_capacity: Some(128),
        };
        let run = degraded_compute_run_observed(42, 1e-6, Some(2_000_000), Some(&hooks)).unwrap();
        assert!(run.degraded_cycles > run.clean_cycles);
        assert!(
            !hooks.obs.series.is_empty(),
            "epoch sampling must produce tracks"
        );
        assert!(
            !hooks.obs.flight.is_empty(),
            "served requests must land in the flight ring"
        );
    }

    #[test]
    fn observed_clean_run_records_engine_and_fills_instrumentation() {
        let hooks = DegradedObs {
            obs: Obs::new(),
            timeseries_window: Some(256),
            flight_capacity: Some(128),
        };
        let run = observed_compute_run(&hooks).unwrap();
        assert!(run.cycles > 0);
        assert!(!hooks.obs.series.is_empty(), "sampling must produce tracks");
        assert!(!hooks.obs.flight.is_empty(), "mem events must land");
        // Attribution stays exact under instrumentation.
        for core in &run.attribution.cores {
            assert_eq!(core.total(), run.attribution.cycles);
        }
        // `observed.json` carries no engine record.
        let json = run.to_json();
        assert!(json.get("cycles").is_some());
        assert_eq!(json.get("engine"), None);
        assert_eq!(
            run.to_text(),
            format!("observed clean run: {} cycles", run.cycles)
        );
    }

    #[test]
    fn a_hair_trigger_watchdog_fails_with_a_crash_dump() {
        // Threshold 1 deadlocks the degraded run on its first stall
        // cycle; the failure must carry a parseable dump.
        let hooks = DegradedObs {
            obs: Obs::new(),
            timeseries_window: Some(64),
            flight_capacity: Some(64),
        };
        let failure = degraded_compute_run_observed(42, 1e-6, Some(1), Some(&hooks)).unwrap_err();
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
        // Even though no 64-cycle epoch boundary was reached, the dump
        // flushes the partial epoch so counter tracks are present.
        let series = doc
            .get("timeseries")
            .and_then(|t| t.get("series"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(!series.is_empty(), "partial epoch must be flushed");
    }

    #[test]
    fn json_summary_carries_the_comparison() {
        let run = degraded_compute_run_observed(7, 1e-6, None, None).unwrap();
        let json = run.to_json();
        assert_eq!(json.get("seed").unwrap().as_int(), Some(7));
        assert!(json.get("fault_report").is_some());
        assert!(json.get("attribution").is_some());
        let text = json.to_string();
        assert!(text.contains("degraded_cycles"));
    }
}
