//! The default experiment runner: maps a canonical request onto the same
//! code paths one-shot `repro` uses, so a served artifact is byte-identical
//! to the CLI's output for the same config.
//!
//! With a checkpoint directory configured
//! ([`ExperimentRunner::with_checkpoints`]), cycle-accurate `kernel`
//! requests snapshot their cluster periodically under
//! `ckpt-<cache key>.json`. A later run of the same request — after a
//! daemon restart, a worker panic, or a `kill -9` — restores the snapshot
//! and finishes the remaining cycles instead of recomputing from zero.
//! Bit-exact restore (see [`mempool_sim::ckpt`]) guarantees the resumed
//! artifact is byte-identical to an uninterrupted one.

use std::fs;
use std::path::{Path, PathBuf};

use mempool::dse::{Objective, ScoredPoint};
use mempool::experiments::{Evaluation, Fig6, Fig7, Fig8, Fig9, Table1, Table2};
use mempool_arch::{ClusterConfig, SpmCapacity};
use mempool_kernels::matmul::ComputePhase;
use mempool_kernels::Kernel;
use mempool_obs::Json;
use mempool_sim::{Cluster, SimError, SimParams};

use crate::protocol::{ExperimentKind, ExperimentRequest};
use crate::service::Runner;

/// Problem size and cluster shape of the `kernel` request's probe
/// simulation.
const KERNEL_TILES: u32 = 4;
const KERNEL_CORES_PER_TILE: u32 = 4;
const KERNEL_BANKS_PER_TILE: u32 = 16;
const KERNEL_BANK_WORDS: u32 = 512;

/// Default checkpoint interval (simulated cycles) for served kernel runs.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 250_000;

/// Executes experiment requests on the reproduction pipeline.
#[derive(Debug, Default, Clone)]
pub struct ExperimentRunner {
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
}

impl ExperimentRunner {
    /// A runner that checkpoints cycle-accurate requests into `dir` every
    /// `every` simulated cycles (clamped to at least 1) and resumes from
    /// an existing checkpoint of the same request.
    pub fn with_checkpoints(dir: impl Into<PathBuf>, every: u64) -> Self {
        ExperimentRunner {
            checkpoint_dir: Some(dir.into()),
            checkpoint_every: every.max(1),
        }
    }

    /// The on-disk checkpoint name of a request key.
    pub fn checkpoint_name(key: u64) -> String {
        format!("ckpt-{key:016x}.json")
    }
}

impl Runner for ExperimentRunner {
    fn run(&self, req: &ExperimentRequest) -> Result<Json, String> {
        let model = req.model.to_phase_model();
        Ok(match req.kind {
            ExperimentKind::Table1 => Table1::generate().to_json(),
            ExperimentKind::Table2 => {
                Table2::from_evaluation(&Evaluation::with_model(model)).to_json()
            }
            ExperimentKind::Fig6 => Fig6::with_model(model).to_json(),
            ExperimentKind::Fig7 => Fig7::from_evaluation(&Evaluation::with_model(model)).to_json(),
            ExperimentKind::Fig8 => Fig8::from_evaluation(&Evaluation::with_model(model)).to_json(),
            ExperimentKind::Fig9 => Fig9::from_evaluation(&Evaluation::with_model(model)).to_json(),
            ExperimentKind::Sweep { bytes_per_cycle } => sweep_point(&model, bytes_per_cycle),
            ExperimentKind::DsePoint { point } => {
                let eval = Evaluation::with_model(model);
                let scored = ScoredPoint::score_all(&eval, point);
                dse_point_json(&scored)
            }
            ExperimentKind::Kernel { p } => {
                let ckpt = self.checkpoint_dir.as_ref().map(|dir| {
                    (
                        dir.join(Self::checkpoint_name(req.cache_key())),
                        self.checkpoint_every.max(1),
                    )
                });
                kernel_run(p, req.threads, ckpt)?
            }
        })
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
/// The artifact carries the cycle count and the cluster-stats digest —
/// bit-identical at any host-thread count, which is exactly why `threads`
/// is not part of the cache key.
fn kernel_run(p: u32, threads: usize, ckpt: Option<(PathBuf, u64)>) -> Result<Json, String> {
    const BUDGET: u64 = 100_000_000;
    let config = ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(KERNEL_TILES)
        .cores_per_tile(KERNEL_CORES_PER_TILE)
        .banks_per_tile(KERNEL_BANKS_PER_TILE)
        .bank_words(KERNEL_BANK_WORDS)
        .build()
        .map_err(|e| format!("probe cluster config: {e}"))?;
    let params = SimParams {
        threads,
        ..SimParams::default()
    };
    let phase = ComputePhase::new(p);
    // Resume from a checkpoint of this exact request if one survived a
    // crash; a restore failure (stale engine version, quarantined corrupt
    // file) falls back to a clean start.
    let mut cluster = match &ckpt {
        Some((path, _)) if path.exists() => match Cluster::restore_from_file(path) {
            Ok(cluster) => cluster,
            Err(_) => fresh_kernel_cluster(&phase, config, params)?,
        },
        _ => fresh_kernel_cluster(&phase, config, params)?,
    };
    let cycles = match &ckpt {
        None => phase_budget_run(&mut cluster, BUDGET, p)?,
        Some((path, every)) => {
            // Run in checkpoint-sized slices; the kernel starts at cycle 0,
            // so the budget deadline is absolute even after a resume.
            let end = loop {
                let remaining = BUDGET.saturating_sub(cluster.cycle());
                if remaining == 0 {
                    return Err(format!(
                        "compute phase p={p}: timed out after {BUDGET} cycles"
                    ));
                }
                match cluster.run(remaining.min(*every)) {
                    Ok(end) => break end,
                    Err(SimError::Timeout { .. }) => save_job_checkpoint(path, &cluster)?,
                    Err(e) => {
                        // Keep the last checkpoint for a later retry.
                        return Err(format!("compute phase p={p}: {e}"));
                    }
                }
            };
            phase
                .verify(&cluster)
                .map_err(|e| format!("compute phase p={p}: {e}"))?;
            let _ = fs::remove_file(path);
            end
        }
    };
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

/// The fresh-start prologue of [`Kernel::run`]: program, inputs, preload.
fn fresh_kernel_cluster(
    phase: &ComputePhase,
    config: ClusterConfig,
    params: SimParams,
) -> Result<Cluster, String> {
    let mut cluster = Cluster::new(config, params);
    let program = phase
        .program(&cluster)
        .map_err(|e| format!("compute phase program: {e}"))?;
    phase
        .setup(&mut cluster)
        .map_err(|e| format!("compute phase setup: {e}"))?;
    cluster.load_program(program);
    cluster.preload_icaches();
    Ok(cluster)
}

/// One uninterrupted kernel run (no checkpointing), verification included.
fn phase_budget_run(cluster: &mut Cluster, budget: u64, p: u32) -> Result<u64, String> {
    let end = cluster
        .run(budget)
        .map_err(|e| format!("compute phase p={p}: {e}"))?;
    let phase = ComputePhase::new(p);
    phase
        .verify(cluster)
        .map_err(|e| format!("compute phase p={p}: {e}"))?;
    Ok(end)
}

/// Atomic (temp + rename) single-file checkpoint overwrite.
fn save_job_checkpoint(path: &Path, cluster: &Cluster) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    fs::write(&tmp, cluster.checkpoint().to_pretty())
        .and_then(|()| fs::rename(&tmp, path))
        .map_err(|e| format!("writing checkpoint {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ModelConfig;

    #[test]
    fn fig6_artifact_matches_the_one_shot_pipeline_exactly() {
        let artifact = ExperimentRunner::default()
            .run(&ExperimentRequest::new(ExperimentKind::Fig6))
            .unwrap();
        let one_shot = Fig6::generate().to_json();
        assert_eq!(artifact.to_pretty(), one_shot.to_pretty());
    }

    #[test]
    fn sweep_point_matches_the_full_figure() {
        let model = ModelConfig::default().to_phase_model();
        let artifact = ExperimentRunner::default()
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

    #[test]
    fn kernel_run_is_thread_count_invariant() {
        let sequential = ExperimentRunner::default()
            .run(&ExperimentRequest {
                threads: 1,
                ..ExperimentRequest::new(ExperimentKind::Kernel { p: 16 })
            })
            .unwrap();
        let parallel = ExperimentRunner::default()
            .run(&ExperimentRequest {
                threads: 4,
                ..ExperimentRequest::new(ExperimentKind::Kernel { p: 16 })
            })
            .unwrap();
        assert_eq!(sequential.to_pretty(), parallel.to_pretty());
        assert!(sequential.get("cycles").and_then(Json::as_int).unwrap() > 0);
    }
}
