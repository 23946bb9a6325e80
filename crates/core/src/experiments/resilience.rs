//! Degraded-mode resilience: Figure 6 under injected faults.
//!
//! The 3D stack's yield story (Section V) assumes F2F-via opens and SRAM
//! bank defects are survivable. This experiment quantifies the cost: a
//! compute phase is measured clean and under a deterministic fault plan
//! ([`mempool_kernels::resilience`]), and the measured slowdown is
//! propagated into the paper's headline Figure 6 point (8 MiB at
//! 16 B/cycle) by scaling the analytic model's compute-phase constants —
//! memory phases ride the unaffected off-chip port.

use mempool_arch::SpmCapacity;
use mempool_kernels::matmul::PhaseModel;
use mempool_kernels::resilience::{degraded_compute_run_observed, DegradedFailure, DegradedRun};
use mempool_obs::{Json, Obs};

use crate::table::TextTable;

/// The Figure 6 point the degradation is propagated into.
const CAPACITY: SpmCapacity = SpmCapacity::MiB8;
const BANDWIDTH: u32 = 16;

/// The reproduced resilience experiment: measured degradation plus its
/// effect on one Figure 6 data point.
#[derive(Debug, Clone)]
pub struct Resilience {
    run: DegradedRun,
    /// Modeled full-problem cycles of the clean 8 MiB / 16 B-per-cycle
    /// configuration.
    clean_total_cycles: f64,
    /// The same point with the compute phases slowed by the measured
    /// overhead.
    degraded_total_cycles: f64,
    /// Cycles of the 1 MiB / 4 B-per-cycle reference configuration.
    reference_cycles: f64,
}

impl Resilience {
    /// Measures the degradation for `(seed, rate)` and propagates it with
    /// the given workload model. `obs`, when given, observes the degraded
    /// run (spans, metrics, time series and flight ring — see
    /// [`degraded_compute_run_observed`]).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (typed deadlocks, uncorrectable ECC)
    /// and result-verification mismatches; simulator faults additionally
    /// carry a ready-to-write crash dump in the returned
    /// [`DegradedFailure`].
    pub fn with_model_observed(
        model: PhaseModel,
        seed: u64,
        rate: f64,
        obs: Option<&Obs>,
    ) -> Result<Self, Box<DegradedFailure>> {
        let run = degraded_compute_run_observed(seed, rate, obs)?;
        let scale = 1.0 + run.overhead();
        let degraded_model = PhaseModel {
            cycles_per_mac: model.cycles_per_mac * scale,
            phase_overhead: model.phase_overhead * scale,
            ..model
        };
        Ok(Resilience {
            clean_total_cycles: model.total_cycles(CAPACITY, BANDWIDTH),
            degraded_total_cycles: degraded_model.total_cycles(CAPACITY, BANDWIDTH),
            reference_cycles: model.total_cycles(SpmCapacity::MiB1, 4),
            run,
        })
    }

    /// The underlying clean-vs-degraded measurement.
    pub fn run(&self) -> &DegradedRun {
        &self.run
    }

    /// Figure 6 speedup of the clean 8 MiB point versus the 1 MiB at
    /// 4 B/cycle reference.
    pub(crate) fn clean_speedup(&self) -> f64 {
        self.reference_cycles / self.clean_total_cycles
    }

    /// The same speedup with the measured degradation applied.
    pub(crate) fn degraded_speedup(&self) -> f64 {
        self.reference_cycles / self.degraded_total_cycles
    }

    /// Full-problem cycle delta the faults cost at this Figure 6 point.
    pub(crate) fn fig6_delta_cycles(&self) -> f64 {
        self.degraded_total_cycles - self.clean_total_cycles
    }

    /// Renders the comparison as text.
    pub(crate) fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Resilience: degraded Figure 6 point ({CAPACITY} at {BANDWIDTH} B/cycle)\n\
             fault plan: seed {}, rate {:.1e}, {} injected event(s)\n",
            self.run.seed, self.run.rate, self.run.events
        ));
        let mut t = TextTable::new(["", "clean", "degraded", "overhead"]);
        t.row([
            "measured phase cycles".to_string(),
            self.run.clean_cycles.to_string(),
            self.run.degraded_cycles.to_string(),
            format!("{:+.2} %", self.run.overhead() * 100.0),
        ]);
        t.row([
            "modeled total cycles".to_string(),
            format!("{:.3e}", self.clean_total_cycles),
            format!("{:.3e}", self.degraded_total_cycles),
            format!("{:+.3e}", self.fig6_delta_cycles()),
        ]);
        t.row([
            "speedup vs reference".to_string(),
            format!("{:.3}", self.clean_speedup()),
            format!("{:.3}", self.degraded_speedup()),
            format!(
                "{:+.2} %",
                (self.degraded_speedup() / self.clean_speedup() - 1.0) * 100.0
            ),
        ]);
        out.push_str(&t.to_string());
        out.push_str(&format!(
            "degraded run: {} retried access(es) over degraded links, \
             {} ECC correction(s), {} bank(s) remapped to spares\n",
            self.run.report.retried_accesses,
            self.run.report.ecc_corrected,
            self.run.report.remapped.len()
        ));
        out
    }

    /// Serializes the experiment (the measurement, the fault report, and
    /// the scaled Figure 6 point).
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("capacity", Json::str(CAPACITY.to_string())),
            ("bytes_per_cycle", Json::Int(BANDWIDTH as i64)),
            ("clean_total_cycles", Json::Float(self.clean_total_cycles)),
            (
                "degraded_total_cycles",
                Json::Float(self.degraded_total_cycles),
            ),
            ("fig6_delta_cycles", Json::Float(self.fig6_delta_cycles())),
            ("clean_speedup", Json::Float(self.clean_speedup())),
            ("degraded_speedup", Json::Float(self.degraded_speedup())),
            ("measurement", self.run.to_json()),
        ])
    }

    /// The eleven-leaf digest of the degraded run that `BENCH_baseline.json`
    /// pins and `BENCH_repro.json` records under `resilience`.
    pub fn summary_json(&self) -> Json {
        let run = &self.run;
        Json::obj([
            ("seed", Json::Int(run.seed as i64)),
            ("rate", Json::Float(run.rate)),
            ("clean_phase_cycles", Json::Int(run.clean_cycles as i64)),
            (
                "degraded_phase_cycles",
                Json::Int(run.degraded_cycles as i64),
            ),
            ("overhead", Json::Float(run.overhead())),
            ("injected_events", Json::Int(run.events as i64)),
            (
                "retried_accesses",
                Json::Int(run.report.retried_accesses as i64),
            ),
            ("ecc_corrected", Json::Int(run.report.ecc_corrected as i64)),
            (
                "remapped_banks",
                Json::Int(run.report.remapped.len() as i64),
            ),
            ("clean_fig6_speedup", Json::Float(self.clean_speedup())),
            (
                "degraded_fig6_speedup",
                Json::Float(self.degraded_speedup()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure(seed: u64) -> Resilience {
        let model = PhaseModel::with_measured_defaults();
        Resilience::with_model_observed(model, seed, 1e-6, None).unwrap()
    }

    #[test]
    fn degradation_propagates_into_the_figure() {
        let r = measure(42);
        assert!(r.run().overhead() > 0.0);
        assert!(r.degraded_speedup() < r.clean_speedup());
        assert!(r.fig6_delta_cycles() > 0.0);
        let text = r.to_text();
        assert!(text.contains("speedup vs reference"));
        assert!(text.contains("remapped"));
        let Json::Obj(summary) = r.summary_json() else {
            panic!("the summary is an object");
        };
        assert_eq!(summary.len(), 11, "the keys BENCH_baseline.json pins");
        let json = r.to_json();
        assert!(json.get("fig6_delta_cycles").is_some());
        assert_eq!(
            json.get("measurement")
                .unwrap()
                .get("seed")
                .unwrap()
                .as_int(),
            Some(42)
        );
    }

    #[test]
    fn determinism_across_generations() {
        let (a, b) = (measure(9), measure(9));
        assert_eq!(a.run().degraded_cycles, b.run().degraded_cycles);
        assert_eq!(a.run().clean_cycles, b.run().clean_cycles);
    }
}
