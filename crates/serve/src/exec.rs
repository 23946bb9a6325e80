//! The default experiment runner: resolves a canonical request through
//! the same experiment catalogue one-shot `repro` walks, so a served
//! artifact is byte-identical to the CLI's output for the same config.
//!
//! A run is never resumed: the longest request the daemon accepts (the
//! `kernel` phase at `p = 80` on the 16-core probe) takes a fraction of a
//! second, so only finished results persist ([`crate::ResultCache`]) and
//! a request a dead daemon was computing is simply asked again.

use mempool::dse::{Objective, ScoredPoint};
use mempool::experiments::{catalogue, Context, Evaluation, Fig6Point};
use mempool_arch::SpmCapacity;
use mempool_kernels::matmul::{ComputePhase, PhaseModel};
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
        match req.kind {
            ExperimentKind::Sweep { bytes_per_cycle } => {
                Ok(sweep_point(&req.model, bytes_per_cycle))
            }
            ExperimentKind::DsePoint { point } => {
                let eval = Evaluation::with_model(req.model);
                Ok(dse_point_json(&ScoredPoint::score_all(&eval, point)))
            }
            ExperimentKind::Kernel { p } => kernel_run(p),
            // Every parameterless kind is the catalogue row of its tag.
            plain => catalogue::find(plain.tag())
                .and_then(|row| (row.build)(&Context::new(req.model)).to_json())
                .ok_or_else(|| format!("the catalogue has no {} document", plain.tag())),
        }
    }
}

/// One bandwidth column of Figure 6: every capacity's [`Fig6Point`] at a
/// single off-chip bandwidth.
fn sweep_point(model: &PhaseModel, bytes_per_cycle: u32) -> Json {
    let points = SpmCapacity::ALL
        .iter()
        .map(|&capacity| {
            let point = Fig6Point::new(model, capacity, bytes_per_cycle);
            Json::obj([
                ("capacity", Json::str(capacity.to_string())),
                (
                    "speedup_vs_reference",
                    Json::Float(point.speedup_vs_reference),
                ),
                (
                    "speedup_vs_half",
                    point.speedup_vs_half.map_or(Json::Null, Json::Float),
                ),
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

/// Serializes one scored design point.
fn dse_point_json(scored: &ScoredPoint) -> Json {
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
    use mempool::experiments::{Fig6, CATALOGUE};

    /// A catalogue row has a document exactly when a parameterless kind
    /// names it, and the service serves that document byte for byte, so
    /// a newly documented row cannot be missed by the service.
    #[test]
    fn the_service_serves_exactly_the_catalogue_documents() {
        let ctx = Context::new(ModelConfig::default());
        let mut served = Vec::new();
        for row in &CATALOGUE {
            let (name, document) = (row.name, (row.build)(&ctx).to_json());
            let kind = ExperimentKind::parameterless(name);
            assert_eq!(document.is_some(), kind.is_some(), "{name}");
            let (Some(document), Some(kind)) = (document, kind) else {
                continue;
            };
            assert_eq!(kind.tag(), name);
            let artifact = ExperimentRunner.run(&ExperimentRequest::new(kind)).unwrap();
            assert_eq!(artifact.to_pretty(), document.to_pretty(), "{name}");
            served.push(name);
        }
        let kinds = ExperimentKind::PARAMETERLESS.map(|(tag, _)| tag);
        assert_eq!(served, kinds, "parameterless kinds = the rows with JSON");
    }

    #[test]
    fn sweep_point_matches_the_full_figure() {
        let artifact = ExperimentRunner
            .run(&ExperimentRequest::new(ExperimentKind::Sweep {
                bytes_per_cycle: 16,
            }))
            .unwrap();
        let fig = Fig6::with_model(ModelConfig::default());
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
