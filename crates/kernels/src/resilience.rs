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

use std::path::{Path, PathBuf};

use mempool_fault::{FaultConfig, FaultPlan, FaultReport};
use mempool_obs::{AttributionReport, Json, Obs};
use mempool_sim::{run_with_checkpoints, CheckpointError, Checkpointer, Cluster};

use crate::matmul::ComputePhase;
use crate::measure::probe_cluster;
use crate::workload::{Kernel, KernelError};

/// Cycle budget for one resilience phase (generous: the phase itself runs
/// in tens of thousands of cycles).
const BUDGET: u64 = 100_000_000;

/// Checkpoint files retained per degraded run (newest first; older
/// snapshots are deleted as new ones land).
const CHECKPOINT_KEEP: usize = 3;

/// Default snapshot interval (cycles) when a checkpoint directory is set
/// but no explicit interval is.
pub(crate) const DEFAULT_CHECKPOINT_EVERY: u64 = 10_000;

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
#[derive(Debug, Clone, Default)]
pub struct DegradedObs {
    /// Shared observability bundle (clones share state).
    pub obs: Obs,
    /// Epoch length in cycles for time-series sampling, when wanted.
    pub timeseries_window: Option<u64>,
    /// Flight-recorder ring capacity, when wanted.
    pub flight_capacity: Option<usize>,
    /// Directory for periodic degraded-run checkpoints, when wanted.
    /// Snapshots are atomic (`ckpt-<cycle>.json`, temp + rename) with
    /// bounded retention; a crashed run's last good snapshot is reported
    /// through [`DegradedFailure::last_checkpoint`].
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot interval in cycles (`DEFAULT_CHECKPOINT_EVERY` when
    /// unset). Ignored without `checkpoint_dir`.
    pub checkpoint_every: Option<u64>,
    /// Resume the degraded run from this checkpoint file instead of
    /// starting it at cycle zero. The snapshot carries the program, fault
    /// controller, and watchdog, so the resumed run is bit-identical to
    /// an unbroken one.
    pub resume: Option<PathBuf>,
}

/// An instrumented *clean* run: the compute phase with the full
/// observability stack attached but no fault plan. This is the run behind
/// `repro --timeseries/--flight` without `--faults`.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// Cycles the instrumented phase took.
    pub cycles: u64,
    /// The engine record of the run.
    pub engine: mempool_sim::EngineSelection,
    /// Exact cycle attribution of the instrumented run.
    pub attribution: AttributionReport,
}

impl ObservedRun {
    /// Serializes the run summary (cycle count, engine record,
    /// attribution).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::Int(self.cycles as i64)),
            ("engine", self.engine.to_json()),
            ("attribution", self.attribution.to_json()),
        ])
    }

    /// One-line text form for the repro CLI.
    pub fn to_text(&self) -> String {
        format!(
            "observed clean run: {} cycles on the {} engine ({})",
            self.cycles, self.engine.engine, self.engine.reason
        )
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
        engine: cluster.engine_selection(),
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
    /// The newest checkpoint that survived the crash, when checkpointing
    /// was on — resume from it via [`DegradedObs::resume`].
    pub last_checkpoint: Option<PathBuf>,
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
        last_checkpoint: None,
    })
}

/// The instrumented part of a probe run, shared by the clean and the
/// degraded run. Arms `hooks` on `cluster` as the process `name`; on a
/// fresh start lets `inject` add its faults and loads `phase`; runs what
/// is left of the budget, checkpointing when the hooks ask for it; then
/// verifies, takes the exact attribution and detaches. A simulator fault
/// comes back with the crash dump and the newest surviving checkpoint.
fn observed_phase(
    cluster: &mut Cluster,
    name: &str,
    phase: &ComputePhase,
    hooks: Option<&DegradedObs>,
    inject: impl FnOnce(&mut Cluster) -> Result<(), KernelError>,
) -> Result<(u64, AttributionReport), Box<DegradedFailure>> {
    let resumed = hooks.is_some_and(|h| h.resume.is_some());
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
    // A resumed cluster restored program, PCs, fault controller and
    // watchdog from its snapshot.
    if !resumed {
        inject(cluster).map_err(plain)?;
        phase.load(cluster).map_err(plain)?;
    }

    let mut checkpointer = match hooks.and_then(|h| h.checkpoint_dir.as_ref()) {
        Some(dir) => {
            let every = hooks
                .and_then(|h| h.checkpoint_every)
                .unwrap_or(DEFAULT_CHECKPOINT_EVERY);
            Some(Checkpointer::new(dir, every, CHECKPOINT_KEEP).map_err(|e| {
                plain(KernelError::Checkpoint {
                    detail: e.to_string(),
                })
            })?)
        }
        None => None,
    };
    // The phase deadline is absolute (the kernel starts at cycle zero),
    // so a resumed run only gets the budget's remainder.
    let remaining = BUDGET.saturating_sub(cluster.cycle());
    let run_result = match &mut checkpointer {
        Some(ckpt) => run_with_checkpoints(cluster, remaining, ckpt).map_err(|e| match e {
            CheckpointError::Sim(sim) => KernelError::Sim(sim),
            other => KernelError::Checkpoint {
                detail: other.to_string(),
            },
        }),
        None => cluster.run(remaining).map_err(KernelError::Sim),
    };
    let cycles = match run_result {
        Ok(end) => end,
        Err(error) => {
            let crash_dump = match &error {
                KernelError::Sim(sim) => Some(cluster.crash_dump(sim)),
                _ => None,
            };
            let last_checkpoint = checkpointer
                .as_ref()
                .and_then(|c| c.last_good().map(Path::to_path_buf));
            return Err(Box::new(DegradedFailure {
                error,
                crash_dump,
                last_checkpoint,
            }));
        }
    };
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
/// flight-recorder ring, checkpoints, or resumes. On a simulator fault the
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

    let mut degraded = match hooks.and_then(|h| h.resume.as_deref()) {
        Some(path) => Cluster::restore_from_file(path).map_err(|e| {
            plain(KernelError::Checkpoint {
                detail: format!("resume from {}: {e}", path.display()),
            })
        })?,
        None => probe_cluster(),
    };
    // The plan is regenerated on resume too: injection state lives in
    // the checkpoint, but the event count reported below does not.
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
            ..DegradedObs::default()
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
            ..DegradedObs::default()
        };
        let run = observed_compute_run(&hooks).unwrap();
        assert!(run.cycles > 0);
        assert_eq!(run.engine, mempool_sim::ENGINE);
        assert!(!hooks.obs.series.is_empty(), "sampling must produce tracks");
        assert!(!hooks.obs.flight.is_empty(), "mem events must land");
        // Attribution stays exact under instrumentation.
        for core in &run.attribution.cores {
            assert_eq!(core.total(), run.attribution.cycles);
        }
        let json = run.to_json();
        assert_eq!(
            json.get("engine").and_then(|e| e.get("name")),
            Some(&Json::str("quantum"))
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
            ..DegradedObs::default()
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
    fn a_checkpointed_degraded_run_resumes_bit_exactly() {
        let dir =
            std::env::temp_dir().join(format!("mempool-resilience-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Reference: the unbroken degraded run.
        let unbroken = degraded_compute_run_observed(42, 1e-6, Some(2_000_000), None).unwrap();

        // The same run with periodic checkpoints. The artifacts must be
        // unchanged by the slicing, and snapshots must exist afterwards.
        let hooks = DegradedObs {
            obs: Obs::new(),
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: Some(5_000),
            ..DegradedObs::default()
        };
        let ckpted =
            degraded_compute_run_observed(42, 1e-6, Some(2_000_000), Some(&hooks)).unwrap();
        assert_eq!(ckpted.degraded_cycles, unbroken.degraded_cycles);
        assert_eq!(ckpted.report, unbroken.report);
        let mut snapshots: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        snapshots.sort();
        assert!(
            (1..=CHECKPOINT_KEEP).contains(&snapshots.len()),
            "retention bounds snapshots: {snapshots:?}"
        );

        // Resume from a genuinely mid-run snapshot (the oldest retained
        // one) and finish: bit-exact against the unbroken run.
        let resume_hooks = DegradedObs {
            obs: Obs::new(),
            resume: Some(snapshots[0].clone()),
            ..DegradedObs::default()
        };
        let resumed =
            degraded_compute_run_observed(42, 1e-6, Some(2_000_000), Some(&resume_hooks)).unwrap();
        assert_eq!(resumed.degraded_cycles, unbroken.degraded_cycles);
        assert_eq!(resumed.report, unbroken.report);
        assert_eq!(
            resumed.attribution.to_json().to_pretty(),
            unbroken.attribution.to_json().to_pretty(),
            "resume must not disturb cycle attribution"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crashed_checkpointed_run_reports_its_last_good_snapshot() {
        let dir =
            std::env::temp_dir().join(format!("mempool-resilience-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hooks = DegradedObs {
            obs: Obs::new(),
            flight_capacity: Some(64),
            checkpoint_dir: Some(dir.clone()),
            // The hair-trigger watchdog below deadlocks within the first
            // few cycles; per-cycle slicing guarantees a snapshot lands
            // before it trips.
            checkpoint_every: Some(1),
            ..DegradedObs::default()
        };
        // A hair-trigger watchdog kills the run after the snapshots start.
        let failure = degraded_compute_run_observed(42, 1e-6, Some(1), Some(&hooks)).unwrap_err();
        assert!(matches!(failure.error, KernelError::Sim(_)));
        assert!(failure.crash_dump.is_some());
        let last = failure.last_checkpoint.expect("snapshots were written");
        assert!(last.exists(), "{}", last.display());
        // The reported snapshot restores cleanly.
        let restored = Cluster::restore_from_file(&last).unwrap();
        assert!(restored.cycle() > 0);
        let _ = std::fs::remove_dir_all(&dir);
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
