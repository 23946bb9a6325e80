//! The default experiment runner: resolves a canonical request through
//! the same experiment catalogue one-shot `repro` walks, so a served
//! artifact is byte-identical to the CLI's output for the same config.
//!
//! A run is never resumed: the longest request the daemon accepts (the
//! `kernel` phase at `p = 80` on the 16-core probe) is ~120 k simulated
//! cycles, a fraction of a second, so a job a dead daemon left in its
//! journal is simply computed again (see [`crate::service`]).

use mempool::dse::{Objective, ScoredPoint};
use mempool::experiments::{catalogue, Context, Evaluation};
use mempool_arch::SpmCapacity;
use mempool_kernels::matmul::ComputePhase;
use mempool_kernels::measure::probe_cluster;
use mempool_kernels::Kernel;
use mempool_obs::Json;

use crate::protocol::{ExperimentKind, ExperimentRequest};
use crate::service::Runner;

/// Executes experiment requests on the reproduction pipeline.
#[derive(Debug, Default, Clone)]
pub struct ExperimentRunner;

impl Runner for ExperimentRunner {
    fn run(&self, req: &ExperimentRequest) -> Result<Json, String> {
        let model = req.model.to_phase_model();
        match req.kind {
            ExperimentKind::Sweep { bytes_per_cycle } => Ok(sweep_point(&model, bytes_per_cycle)),
            ExperimentKind::DsePoint { point } => {
                let eval = Evaluation::with_model(model);
                Ok(dse_point_json(&ScoredPoint::score_all(&eval, point)))
            }
            ExperimentKind::Kernel { p } => kernel_run(p),
            // Every parameterless kind is the catalogue row of its tag.
            plain => catalogue::find(plain.tag())
                .and_then(|row| (row.build)(&Context::new(model)).to_json())
                .ok_or_else(|| format!("the catalogue has no {} document", plain.tag())),
        }
    }
}

/// One bandwidth point of the Figure 6 sweep: every capacity's speedup
/// versus the paper's reference (1 MiB at 4 B/cycle) and versus half the
/// SPM, at a single off-chip bandwidth. Numbers come from the same
/// [`mempool_kernels::matmul::PhaseModel`] the full figure uses.
fn sweep_point(model: &mempool_kernels::matmul::PhaseModel, bytes_per_cycle: u32) -> Json {
    let points = SpmCapacity::ALL
        .iter()
        .map(|&capacity| {
            let vs_reference = model.speedup(capacity, bytes_per_cycle, SpmCapacity::MiB1, 4);
            let vs_half = capacity
                .half()
                .map(|half| model.speedup(capacity, bytes_per_cycle, half, bytes_per_cycle));
            Json::obj([
                ("capacity", Json::str(capacity.to_string())),
                ("speedup_vs_reference", Json::Float(vs_reference)),
                ("speedup_vs_half", vs_half.map_or(Json::Null, Json::Float)),
            ])
        })
        .collect();
    Json::obj([
        ("experiment", Json::str("sweep")),
        ("bytes_per_cycle", Json::Int(bytes_per_cycle as i64)),
        ("reference", Json::str("1 MiB at 4 B/cycle")),
        ("points", Json::Arr(points)),
    ])
}

/// Serializes one scored design point; [`crate::dse::explore_via`] parses
/// this back into a [`ScoredPoint`].
pub(crate) fn dse_point_json(scored: &ScoredPoint) -> Json {
    let objectives = Objective::ALL
        .iter()
        .map(|o| Json::str(format!("{o:?}")))
        .collect();
    Json::obj([
        ("experiment", Json::str("dse_point")),
        ("design", Json::str(scored.point.name())),
        ("flow", Json::str(scored.point.flow.to_string())),
        (
            "capacity_mib",
            Json::Int(scored.point.capacity.mebibytes() as i64),
        ),
        ("objectives", Json::Arr(objectives)),
        (
            "scores",
            Json::Arr(scored.scores.iter().map(|&s| Json::Float(s)).collect()),
        ),
    ])
}

/// Runs the matmul compute phase cycle-accurately on the probe cluster.
/// The artifact carries the cycle count and the cluster-stats digest.
fn kernel_run(p: u32) -> Result<Json, String> {
    const BUDGET: u64 = 100_000_000;
    let failed = |e: &dyn std::fmt::Display| format!("compute phase p={p}: {e}");
    // The shape is the client's to get wrong: answer it before anything
    // is constructed (`ComputePhase::new` would panic on it).
    ComputePhase::check_shape(p).map_err(|e| failed(&e))?;
    let phase = ComputePhase::new(p);
    let mut cluster = probe_cluster();
    phase.load(&mut cluster).map_err(|e| failed(&e))?;
    let cycles = cluster.run(BUDGET).map_err(|e| failed(&e))?;
    phase.verify(&cluster).map_err(|e| failed(&e))?;
    let stats = cluster.stats();
    Ok(Json::obj([
        ("experiment", Json::str("kernel")),
        ("kernel", Json::str("compute_phase")),
        ("p", Json::Int(p as i64)),
        ("cycles", Json::Int(cycles as i64)),
        (
            "stats_digest",
            Json::str(format!("{:016x}", stats.digest())),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ModelConfig;
    use mempool::experiments::Fig6;

    #[test]
    fn fig6_artifact_matches_the_one_shot_pipeline_exactly() {
        let artifact = ExperimentRunner
            .run(&ExperimentRequest::new(ExperimentKind::Fig6))
            .unwrap();
        let one_shot = Fig6::generate().to_json();
        assert_eq!(artifact.to_pretty(), one_shot.to_pretty());
    }

    #[test]
    fn sweep_point_matches_the_full_figure() {
        let model = ModelConfig::default().to_phase_model();
        let artifact = ExperimentRunner
            .run(&ExperimentRequest::new(ExperimentKind::Sweep {
                bytes_per_cycle: 16,
            }))
            .unwrap();
        let fig = Fig6::with_model(model);
        let points = artifact.get("points").and_then(Json::as_arr).unwrap();
        for (json, capacity) in points.iter().zip(SpmCapacity::ALL) {
            let expected = fig.point(capacity, 16).unwrap();
            assert_eq!(
                json.get("speedup_vs_reference").and_then(Json::as_f64),
                Some(expected.speedup_vs_reference)
            );
        }
    }
}
