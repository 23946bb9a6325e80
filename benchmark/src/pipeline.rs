//! `repro_pipeline`: the in-process one-shot reproduction pipeline, and the
//! accuracy-versus-paper metrics that ride on it.
//!
//! One iteration does what one-shot `repro all --measure` does: measure the
//! model constants on small simulated clusters, implement all eight design
//! points, build Table I/II and Figures 6-9 from the measured model, explore
//! the design space, and serialize everything. `phys`, `core` and
//! small-cluster `kernels` do the work; paper-scale `sim` does none.

use std::time::Instant;

use mempool::dse::DesignSpace;
use mempool::experiments::{Evaluation, Fig6, Fig7, Fig8, Fig9, Table1, Table2};
use mempool::paper;
use mempool_arch::SpmCapacity;
use mempool_kernels::matmul::PhaseModel;
use mempool_kernels::measure::{measure_constants, MeasuredConstants};
use mempool_obs::Json;

use crate::report::Outcome;
use crate::simwl::cpm_rel_err;
use crate::trace::Tracer;
use crate::util::median;
use crate::Options;

/// Cores of the cluster the measured constants are scaled to.
const PAPER_CORES: u64 = 256;
/// Every this-many-th iteration, starting with the first, is a set-up
/// sample instead of a measured one: it is timed as `setup_s` (the median
/// over the run is reported) and its artifacts become the reference every
/// following iteration must reproduce. The samples are spread over the whole
/// window because the first second of a process is sometimes half again
/// slower than its steady state: with all samples taken at the start, the
/// median of two ten-run sets moved by 28 %.
const SETUP_EVERY: u32 = 16;

/// Host seconds of one iteration's spans.
#[derive(Debug, Default, Clone, Copy)]
struct Timings {
    measure_constants: f64,
    table1: f64,
    evaluation: f64,
    table2: f64,
    fig6: f64,
    fig7_9: f64,
    dse: f64,
    json_encode: f64,
    total: f64,
}

/// What one iteration produced.
struct Products {
    constants: MeasuredConstants,
    model: PhaseModel,
    table1: Table1,
    table2: Table2,
    /// Every artifact, serialized, in a fixed order.
    artifacts: Vec<String>,
}

fn dse_json(space: &DesignSpace) -> Json {
    Json::obj([
        ("experiment", Json::str("dse")),
        (
            "points",
            Json::Arr(
                space
                    .points()
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("design", Json::str(p.point.name())),
                            (
                                "scores",
                                Json::Arr(p.scores.iter().map(|&s| Json::Float(s)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "pareto_front",
            Json::Arr(
                space
                    .pareto_front()
                    .iter()
                    .map(|p| Json::str(p.name()))
                    .collect(),
            ),
        ),
    ])
}

fn iteration(rep: u32, tracer: &mut Tracer) -> Result<(Timings, Products), String> {
    let mut t = Timings::default();
    let whole = tracer.begin("harness", "iteration", rep);
    let (constants, secs) = tracer.span("kernels", "measure_constants", rep, measure_constants);
    t.measure_constants = secs;
    let constants = constants.map_err(|e| format!("measure_constants: {e}"))?;
    let model = constants.phase_model(SpmCapacity::MATMUL_MATRIX_DIM, PAPER_CORES);
    let (table1, secs) = tracer.span("phys", "table1", rep, Table1::generate);
    t.table1 = secs;
    let (eval, secs) = tracer.span("core", "evaluation", rep, || Evaluation::with_model(model));
    t.evaluation = secs;
    let (table2, secs) = tracer.span("phys", "table2", rep, || Table2::from_evaluation(&eval));
    t.table2 = secs;
    let (fig6, secs) = tracer.span("core", "fig6", rep, || Fig6::with_model(model));
    t.fig6 = secs;
    let (figs, secs) = tracer.span("core", "fig7_9", rep, || {
        (
            Fig7::from_evaluation(&eval),
            Fig8::from_evaluation(&eval),
            Fig9::from_evaluation(&eval),
        )
    });
    t.fig7_9 = secs;
    let (space, secs) = tracer.span("core", "dse", rep, || DesignSpace::explore(&eval));
    t.dse = secs;
    let (artifacts, secs) = tracer.span("obs", "json_encode", rep, || {
        vec![
            table1.to_json().to_pretty(),
            table2.to_json().to_pretty(),
            fig6.to_json().to_pretty(),
            figs.0.to_json().to_pretty(),
            figs.1.to_json().to_pretty(),
            figs.2.to_json().to_pretty(),
            dse_json(&space).to_pretty(),
        ]
    });
    t.json_encode = secs;
    t.total = tracer.end(whole);
    Ok((
        t,
        Products {
            constants,
            model,
            table1,
            table2,
            artifacts,
        },
    ))
}

fn rel_err(measured: f64, expected: f64) -> f64 {
    (measured - expected).abs() / expected.abs()
}

/// Max relative error over every Table I/II cell that has a paper value.
fn paper_max_rel_err(table1: &Table1, table2: &Table2) -> f64 {
    let mut worst: f64 = 0.0;
    for row in table1.rows() {
        worst = worst.max(rel_err(row.footprint_norm, row.paper_footprint_norm));
        worst = worst.max(rel_err(
            row.report.logic_die_utilization,
            paper::tile_logic_die_utilization(row.point.flow, row.point.capacity),
        ));
        if let Some(util) = row.report.memory_die_utilization {
            worst = worst.max(rel_err(
                util,
                paper::tile_memory_die_utilization(row.point.capacity),
            ));
        }
    }
    for row in table2.rows() {
        for (&measured, &expected) in row.measured.iter().zip(&row.paper) {
            if measured.is_finite() && expected.is_finite() {
                worst = worst.max(rel_err(measured, expected));
            }
        }
    }
    worst
}

/// Max |repro - paper| in percentage points over the Figure 6 headline
/// speedups (8 MiB over 1 MiB at the same bandwidth).
fn fig6_max_err_pp(model: &PhaseModel) -> f64 {
    [4u32, 16, 64]
        .iter()
        .filter_map(|&bw| {
            let expected = paper::fig6_speedup_8mib_over_1mib(bw)?;
            let measured = model.speedup(SpmCapacity::MiB8, bw, SpmCapacity::MiB1, bw);
            Some((measured - expected).abs() * 100.0)
        })
        .fold(0.0, f64::max)
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Outcome {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut reference: Option<Products> = None;
    let mut timings = Vec::new();
    let started = Instant::now();
    let mut rep = 0;
    while timings.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        if rep % SETUP_EVERY == 0 {
            let open = tracer.begin("harness", "setup", rep);
            let result = iteration(rep, tracer);
            setups.push(tracer.end(open));
            match result {
                Ok((_, products)) => {
                    if reference
                        .as_ref()
                        .is_some_and(|r| r.artifacts != products.artifacts)
                    {
                        outcome.ops += 1;
                        outcome.fail(format!("set-up iteration {rep}: artifacts changed"));
                    }
                    reference = Some(products);
                }
                Err(reason) => {
                    outcome.ops += 1;
                    outcome.fail(format!("set-up iteration {rep}: {reason}"));
                    return outcome;
                }
            }
        } else {
            let reference = reference.as_ref().expect("iteration 0 is a set-up sample");
            outcome.ops += 1;
            match iteration(rep, tracer) {
                Ok((t, products)) => {
                    timings.push(t);
                    if products.artifacts != reference.artifacts {
                        outcome.fail(format!(
                            "iteration {rep}: artifacts differ from the set-up sample's"
                        ));
                    } else if let Some(text) =
                        products.artifacts.iter().find(|a| Json::parse(a).is_err())
                    {
                        outcome.fail(format!(
                            "iteration {rep}: an artifact does not parse: {text:.60}"
                        ));
                    }
                }
                Err(reason) => outcome.fail(format!("iteration {rep}: {reason}")),
            }
        }
        rep += 1;
    }
    let reference = reference.expect("iteration 0 is a set-up sample");
    let wall = started.elapsed().as_secs_f64();
    let med = |f: fn(&Timings) -> f64| median(&timings.iter().map(f).collect::<Vec<_>>());

    let p50 = med(|t| t.total);
    outcome.op_seconds = p50;
    outcome.set("setup_s", median(&setups));
    outcome.set("wall_s", wall);
    outcome.set("pipeline_p50_ms", p50 * 1e3);
    outcome.set(
        "cpm_rel_err",
        cpm_rel_err(reference.constants.cycles_per_mac),
    );
    outcome.set(
        "paper_max_rel_err",
        paper_max_rel_err(&reference.table1, &reference.table2),
    );
    outcome.set("fig6_max_err_pp", fig6_max_err_pp(&reference.model));
    outcome.note("iterations", Json::Int(timings.len() as i64));
    outcome.note("setup_samples", Json::Int(setups.len() as i64));
    outcome.note(
        "cycles_per_mac",
        Json::Float(reference.constants.cycles_per_mac),
    );
    if let Some(coverage) = crate::trace::boundary_coverage(tracer) {
        outcome.note("boundary_span_coverage", Json::Float(coverage));
    }
    if tracer.enabled() {
        outcome.layer("kernels.measure_constants_s", med(|t| t.measure_constants));
        outcome.layer("phys.table1_s", med(|t| t.table1));
        outcome.layer("core.evaluation_s", med(|t| t.evaluation));
        outcome.layer("phys.table2_s", med(|t| t.table2));
        outcome.layer("core.fig6_s", med(|t| t.fig6));
        outcome.layer("core.fig7_9_s", med(|t| t.fig7_9));
        outcome.layer("core.dse_s", med(|t| t.dse));
        outcome.layer("obs.json_encode_s", med(|t| t.json_encode));
        outcome.layer(
            "core.artifact_bytes",
            reference.artifacts.iter().map(String::len).sum::<usize>() as f64,
        );
    }
    outcome
}
