//! # mempool-bench
//!
//! Reproduction harness for the MemPool-3D paper. The `repro` binary
//! regenerates every table and figure of the paper's evaluation
//! (`cargo run -p mempool-bench --bin repro -- all`), and
//! [`bench_summary`] with [`regress`] is the deterministic regression gate
//! behind `repro check`. Nothing here measures host time: that is the
//! `benchmark/` package's job (see `benchmark/README.md`).

pub mod regress;

/// The pinned fault seed the regression baseline is generated with.
pub const BASELINE_FAULT_SEED: u64 = 42;
/// The pinned fault rate of the baseline degraded run.
pub const BASELINE_FAULT_RATE: f64 = 1e-6;
/// Watchdog threshold armed for the baseline degraded run.
pub(crate) const BASELINE_WATCHDOG: u64 = 2_000_000;

/// Cycle counts of the modeled matmul at the Section VI-B bandwidth
/// (16 B/cycle), one per SPM capacity — the
/// `matmul_cycles_at_16B_per_cycle` array of both the pinned summary and
/// `BENCH_repro.json`.
pub fn matmul_cycles_at_16b(model: &mempool_kernels::matmul::PhaseModel) -> mempool_obs::Json {
    use mempool_arch::SpmCapacity;
    use mempool_obs::Json;

    Json::Arr(
        SpmCapacity::ALL
            .iter()
            .map(|&cap| {
                Json::obj([
                    ("capacity", Json::str(cap.to_string())),
                    ("total_cycles", Json::Float(model.total_cycles(cap, 16))),
                ])
            })
            .collect(),
    )
}

/// Produces the benchmark summary the regression gate compares against
/// (`repro check`). Every leaf is pinned: the recorded workload constants,
/// the analytic matmul cycle counts, and a degraded run under the fixed
/// `(seed, rate)` fault plan, so two runs of the same code produce
/// identical documents on any host.
///
/// # Panics
///
/// Panics if the pinned-seed degraded run fails — it is expected to always
/// complete (a failure here is itself a regression).
pub fn bench_summary() -> mempool_obs::Json {
    use mempool::experiments::Resilience;
    use mempool_kernels::matmul::PhaseModel;
    use mempool_obs::Json;

    let model = PhaseModel::with_measured_defaults();
    let resilience = Resilience::with_model_observed(
        model,
        BASELINE_FAULT_SEED,
        BASELINE_FAULT_RATE,
        Some(BASELINE_WATCHDOG),
        None,
    )
    .expect("the pinned-seed degraded run must complete");
    Json::obj([
        ("schema", Json::str("mempool-bench-summary/v2")),
        ("cycles_per_mac", Json::Float(model.cycles_per_mac)),
        ("phase_overhead", Json::Float(model.phase_overhead)),
        (
            "matmul_cycles_at_16B_per_cycle",
            matmul_cycles_at_16b(&model),
        ),
        ("resilience", resilience.summary_json()),
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_summary_is_deterministic_and_self_consistent() {
        use mempool_obs::Json;
        let a = super::bench_summary();
        let b = super::bench_summary();
        assert_eq!(a.to_pretty(), b.to_pretty(), "the gate needs determinism");
        let doc = Json::parse(&a.to_pretty()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mempool-bench-summary/v2")
        );
        assert_eq!(a, b);
        assert_eq!(doc, a, "the summary survives its own text form");
    }
}
