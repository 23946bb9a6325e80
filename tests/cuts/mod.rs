//! The cut comparison of the engine-equivalence, checkpoint and ring
//! tests: a `Shape` built and armed at cycle 0, driven through a schedule
//! of `Cut`s (`run(k)` slices, `step()` stretches, checkpoint restores) and
//! then one `run()`, must show exactly what the same shape shows after one
//! uninterrupted `run()` (`Observed`).

use std::collections::BTreeMap;

use proptest::prelude::*;

use mempool_arch::{BankId, BankLocation, ClusterConfig, TileId};
use mempool_fault::{FaultConfig, FaultEvent, FaultPlan};
use mempool_isa::Program;
use mempool_kernels::axpy::Axpy;
use mempool_kernels::dotprod::DotProduct;
use mempool_kernels::matmul::ComputePhase;
use mempool_kernels::transpose::Transpose;
use mempool_kernels::Kernel;
use mempool_obs::{chrome_trace_with_counters, FlightEvent, Json, Obs};
use mempool_sim::{Cluster, ClusterStats, SimError, SimParams};

/// The pinned fault seed, matching the committed baseline scenario.
pub const FAULT_SEED: u64 = 42;

/// Cycle budget of every uninterrupted run: far beyond any shape's end.
pub const BUDGET: u64 = 10_000_000;

/// Flight ring capacity: small enough that most runs overflow it.
pub const FLIGHT: usize = 128;

/// Instruction trace capacity: small enough that most runs overflow it.
pub const TRACE: usize = 128;

/// One group of `tiles` tiles of `cores` cores and `banks` banks each.
pub fn geometry(tiles: u32, cores: u32, banks: u32, bank_words: u32) -> ClusterConfig {
    ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(tiles)
        .cores_per_tile(cores)
        .banks_per_tile(banks)
        .bank_words(bank_words)
        .build()
        .unwrap()
}

pub fn zoo_config() -> ClusterConfig {
    geometry(4, 4, 16, 256)
}

pub fn traffic_config() -> ClusterConfig {
    geometry(16, 2, 4, 64)
}

fn zoo_kernel(index: usize) -> Box<dyn Kernel> {
    match index {
        0 => Box::new(Axpy::new(1024, 3)),
        1 => Box::new(DotProduct::new(1024)),
        2 => Box::new(ComputePhase::new(32)),
        _ => Box::new(Transpose::new(64)),
    }
}

/// Every core: a contended AMO on a shared word, a hart-spread load/store
/// pair striding across tiles through the interleaved region, optionally
/// an off-chip load and store, `trips` times; then halt.
pub fn traffic(trips: u32, external: bool) -> Program {
    let offchip = external.then_some("lw x12, 0(x2)\n sw x31, 4(x2)");
    Program::assemble(&format!(
        r#"
            csrr x1, mhartid
            slli x1, x1, 2
            lui  x2, 0x80000
            add  x2, x2, x1
            addi x31, x0, {trips}
        loop:
            amoadd.w x10, x31, (x0)
            lw   x11, 64(x1)
            sw   x11, 256(x1)
            {}
            addi x31, x31, -1
            bne  x31, x0, loop
            wfi
        "#,
        offchip.unwrap_or_default()
    ))
    .unwrap()
}

/// A traffic-geometry cluster with `program` loaded, and an off-chip
/// latency of `slow` cycles if given.
pub fn loaded(slow: Option<u32>, program: Program) -> Cluster {
    let mut params = SimParams::default();
    params.offchip_latency = slow.unwrap_or(params.offchip_latency);
    let mut cluster = Cluster::new(traffic_config(), params);
    cluster.load_program(program);
    cluster.preload_icaches();
    cluster
}

/// Core 0 loads an off-chip word and uses it; the other cores halt.
pub fn offchip_waiter() -> Program {
    Program::assemble(
        r#"
            csrr t1, mhartid
            bnez t1, done
            li   t0, 0x80000000
            lw   a0, 0(t0)
            add  a1, a0, a0
            sw   a1, 4(t0)
        done:
            wfi
        "#,
    )
    .unwrap()
}

/// Off-chip latency of the one-cycle scenario's late response.
pub const SLOW_OFFCHIP: u32 = 200;

/// What a case runs, and how it is armed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// A zoo kernel on the zoo geometry, optionally under the fault plan
    /// generated from a seed (and then with the watchdog armed).
    Zoo { kernel: usize, faults: Option<u64> },
    /// The traffic loop on the 16x2-core geometry.
    Traffic { trips: u32, external: bool },
    /// Every core runs off the end of its program: `PcOutOfRange`.
    RunsOffItsEnd,
    /// Core 0 waits on an off-chip response far beyond the watchdog's
    /// window: `Deadlock`.
    Waiter,
    /// No program loaded: `NoProgram`.
    NoProgram,
    /// A flip, an epoch end, a watchdog window and an off-chip response,
    /// all due on `cycle`.
    OneCycle { cycle: u64, last_retire: u64 },
}

impl Shape {
    /// Arms fresh obs hooks on `cluster`, as a restored one is re-armed.
    fn arm(self, cluster: &mut Cluster, obs: &Obs) {
        let window = if let Shape::OneCycle { cycle, .. } = self {
            cycle
        } else {
            64
        };
        cluster.attach_obs(obs, "cut");
        cluster.enable_timeseries(window);
        cluster.enable_flight(FLIGHT);
    }

    /// A new cluster at cycle 0, armed on `obs` and ready to run.
    fn build(self, obs: &Obs, trace: bool) -> Cluster {
        let mut cluster = match self {
            Shape::Zoo { .. } => Cluster::new(zoo_config(), SimParams::default()),
            Shape::Traffic { trips, external } => loaded(None, traffic(trips, external)),
            Shape::RunsOffItsEnd => loaded(
                None,
                Program::assemble("addi x5, x0, 7\nlw x6, 128(x0)").unwrap(),
            ),
            Shape::Waiter => loaded(Some(10_000), offchip_waiter()),
            Shape::NoProgram => Cluster::new(traffic_config(), SimParams::default()),
            Shape::OneCycle { .. } => loaded(Some(SLOW_OFFCHIP), offchip_waiter()),
        };
        self.arm(&mut cluster, obs);
        if trace {
            cluster.enable_trace(TRACE);
        }
        match self {
            Shape::Zoo { kernel, faults } => {
                if let Some(seed) = faults {
                    let fault_cfg = FaultConfig::new(seed, 1e-4).with_horizon(50_000);
                    let plan = FaultPlan::generate(&fault_cfg, &zoo_config());
                    cluster.inject_faults(&plan).unwrap();
                    cluster.set_watchdog(20_000);
                }
                zoo_kernel(kernel).load(&mut cluster).unwrap();
            }
            Shape::Waiter => cluster.set_watchdog(100),
            Shape::OneCycle { cycle, last_retire } => {
                let (mut plan, mask) = (FaultPlan::new(3), 1 << 3);
                let loc = BankLocation {
                    tile: TileId(5),
                    bank: BankId(1),
                    word: 3,
                };
                plan.push(FaultEvent::TransientFlip { cycle, loc, mask });
                cluster.inject_faults(&plan).unwrap();
                cluster.set_watchdog(cycle - last_retire);
            }
            _ => {}
        }
        cluster
    }

    /// Whether `end` is how this shape must end.
    fn ends_as_it_should(self, end: &End) -> bool {
        match self {
            Shape::Zoo { faults, .. } => faults.is_some() || end.is_ok(),
            Shape::Traffic { .. } | Shape::OneCycle { .. } => end.is_ok(),
            Shape::RunsOffItsEnd => matches!(end, Err(SimError::PcOutOfRange { .. })),
            Shape::Waiter => matches!(end, Err(SimError::Deadlock { .. })),
            Shape::NoProgram => end == &Err(SimError::NoProgram),
        }
    }
}

/// How a cut reaches its cycle, and what happens there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cut {
    /// One `run(k)` call that ends on the cut's cycle.
    Slice,
    /// One `step()` call per cycle up to the cut.
    Steps,
    /// A slice, then a checkpoint restored with fresh obs hooks.
    Restore,
}

/// Time-series samples by track name.
pub type Series = BTreeMap<String, Vec<(u64, f64)>>;

/// How a run ended: its final cycle, or the error.
pub type End = Result<u64, SimError>;

/// One flight event, comparable.
pub type Event = (u64, String, Option<u32>, String);

/// Everything a run shows, gathered over all its legs.
#[derive(Debug, PartialEq)]
pub struct Observed {
    pub end: End,
    pub stats: ClusterStats,
    pub digest: u64,
    pub attribution: String,
    pub fault_report: Option<String>,
    pub touches: u64,
    pub series: Series,
    /// Events recorded over all legs, and the newest ring-full of them.
    pub flight: (u64, Vec<Event>),
    /// Each `sim_*` counter, summed over all legs.
    pub metrics: BTreeMap<String, u64>,
    /// The Chrome trace and the instruction trace of an unrestored run.
    pub traces: Option<(String, String)>,
}

/// What the recorders of a run's legs saw, concatenated.
#[derive(Default)]
struct Legs {
    series: Series,
    recorded: u64,
    flight: Vec<Event>,
    metrics: BTreeMap<String, u64>,
}

impl Legs {
    fn collect(&mut self, obs: &Obs) {
        for counter in obs.metrics.snapshot().counters {
            if counter.name.starts_with("sim_") {
                *self.metrics.entry(counter.name).or_default() += counter.value;
            }
        }
        for name in obs.series.names() {
            let samples = obs.series.samples(&name);
            let samples = samples.iter().map(|s| (s.cycle, s.value));
            self.series.entry(name).or_default().extend(samples);
        }
        let events = obs.flight.events();
        assert!(
            events.len() <= FLIGHT,
            "the flight ring outgrew its capacity"
        );
        self.recorded += events.len() as u64 + obs.flight.dropped();
        let event = |e: FlightEvent| (e.cycle, e.category, e.core, e.message);
        self.flight.extend(events.into_iter().map(event));
    }

    /// What `cluster`, ended with `end`, shows after these legs and the
    /// last one, recorded into `obs`.
    fn finish(mut self, shape: Shape, cluster: &mut Cluster, end: End, obs: &Obs) -> Observed {
        self.collect(obs);
        let newest = self.flight.len().saturating_sub(FLIGHT);
        let stats = cluster.stats();
        // Every run attributes, an errored one included: the tick that
        // raised the error counts.
        let cfg = cluster.config();
        let report = stats.attribution(cfg.cores_per_tile(), cfg.banks_per_tile());
        assert!(
            report.cores.iter().all(|c| c.total() == report.cycles),
            "{shape:?}: each core's buckets sum to the cycles"
        );
        let attribution = report.to_json().to_pretty();
        // Five counters publish a count the simulator keeps itself.
        let faults = cluster.fault_report().unwrap_or_default();
        let icache_misses = stats.cores.iter().map(|c| c.icache_misses).sum();
        let twins = [
            ("sim_bank_conflict_cycles_total", stats.total_conflicts()),
            ("sim_icache_misses_total", icache_misses),
            ("sim_dma_bytes_total", stats.dma_bytes),
            ("sim_fault_retries_total", faults.retried_accesses),
            ("sim_ecc_corrected_total", faults.ecc_corrected),
        ];
        for (name, twin) in twins {
            assert_eq!(self.metrics.get(name), Some(&twin), "{shape:?}: {name}");
        }
        let instructions = cluster.trace().map(|t| t.to_string());
        // Close still-open spans so the exported trace is balanced.
        cluster.detach_obs();
        let observed = Observed {
            end,
            digest: stats.digest(),
            attribution,
            fault_report: cluster.fault_report().map(|r| r.to_json().to_pretty()),
            touches: cluster.storage().spm_word_touches(),
            series: self.series,
            flight: (self.recorded, self.flight.split_off(newest)),
            metrics: self.metrics,
            traces: instructions.map(|instructions| {
                let spans = chrome_trace_with_counters(&obs.spans, Some(&obs.series));
                (spans.to_pretty(), instructions)
            }),
            stats,
        };
        // Last, for the reads count as SPM touches.
        if let (Ok(_), Shape::Zoo { kernel, .. }) = (&observed.end, shape) {
            zoo_kernel(kernel).verify(cluster).unwrap();
        }
        observed
    }
}

/// Steps `cluster` until it is quiescent, with `Cluster::run`'s budget and
/// error contract.
fn steps(cluster: &mut Cluster, budget: u64) -> End {
    let deadline = cluster.cycle() + budget;
    while !cluster.quiescent() {
        if cluster.cycle() >= deadline {
            return Err(SimError::Timeout { cycles: budget });
        }
        cluster.step()?;
    }
    Ok(cluster.cycle())
}

/// `shape` driven by one `run()`, its instruction trace armed if `traced`
/// (as for a schedule without a restore cut); asserts what holds of every
/// run on its own.
pub fn reference(shape: Shape, traced: bool) -> Observed {
    let obs = Obs::new();
    let mut cluster = shape.build(&obs, traced);
    let end = cluster.run(BUDGET);
    let observed = Legs::default().finish(shape, &mut cluster, end, &obs);
    assert!(
        shape.ends_as_it_should(&observed.end),
        "{shape:?} ended with {:?}",
        observed.end
    );
    if observed.end.is_ok() {
        let issued: u64 = observed.stats.accesses_by_class().iter().sum();
        let served: u64 = observed.stats.banks.iter().map(|b| b.served).sum();
        assert_eq!(issued, served, "{shape:?}: every SPM request is served");
    }
    observed
}

/// Drives `shape` through `cuts` (ascending cycles), then one `run()` to
/// the end, and compares what it shows with `expected`, its reference.
pub fn check_cuts(
    shape: Shape,
    cuts: &[(u64, Cut)],
    expected: &Observed,
) -> Result<(), TestCaseError> {
    // Whether the reference had ended by the time a leg reaches `at`: its
    // last tick (the one that raised an error counts) lies before `at`.
    let ended_by = |at: u64| expected.stats.cycles <= at;
    let mut obs = Obs::new();
    let mut cluster = shape.build(&obs, traced(cuts));
    let mut legs = Legs::default();
    let mut end = None;
    for &(at, cut) in cuts {
        let budget = at - cluster.cycle();
        let leg = match cut {
            Cut::Steps => steps(&mut cluster, budget),
            Cut::Slice | Cut::Restore => cluster.run(budget),
        };
        if leg != Err(SimError::Timeout { cycles: budget }) {
            prop_assert!(ended_by(at), "{cut:?} to {at} ended early: {leg:?}");
            end = Some(leg);
            break;
        }
        prop_assert!(!ended_by(at), "{cut:?} to {at} timed out");
        prop_assert_eq!(cluster.cycle(), at, "{:?} stopped off its cycle", cut);
        if cut == Cut::Restore {
            legs.collect(&obs);
            let text = cluster.checkpoint().to_pretty();
            cluster = Cluster::restore(&Json::parse(&text).unwrap()).unwrap();
            obs = Obs::new();
            shape.arm(&mut cluster, &obs);
        }
    }
    let end = end.unwrap_or_else(|| cluster.run(BUDGET));
    let got = legs.finish(shape, &mut cluster, end, &obs);
    // Field by field, so that a failure names what differs.
    let fields: [(&str, bool); 10] = [
        ("end", got.end == expected.end),
        ("stats", got.stats == expected.stats),
        ("digest", got.digest == expected.digest),
        ("attribution", got.attribution == expected.attribution),
        ("fault report", got.fault_report == expected.fault_report),
        ("spm touches", got.touches == expected.touches),
        ("time series", got.series == expected.series),
        ("flight events", got.flight == expected.flight),
        ("metrics", got.metrics == expected.metrics),
        ("traces", got.traces == expected.traces),
    ];
    for (field, same) in fields {
        prop_assert!(same, "{field} differs");
    }
    Ok(())
}

/// Steps a bare run of the waiter: the cycle `c` core 0 retires again
/// (its off-chip response arrived), and the last cycle before it on
/// which anything retired.
pub fn response_cycle() -> (u64, u64) {
    let mut cluster = loaded(Some(SLOW_OFFCHIP), offchip_waiter());
    let (mut last_retire, mut core0_idle) = (0, false);
    loop {
        let (tick, before) = (cluster.cycle(), cluster.stats());
        cluster.step().unwrap();
        let after = cluster.stats();
        let core0 = after.cores[0].retired > before.cores[0].retired;
        if core0 && core0_idle {
            return (tick, last_retire);
        }
        core0_idle |= !core0;
        if after.total_retired() > before.total_retired() {
            last_retire = tick;
        }
    }
}

/// Whether a run driven through `cuts` keeps its instruction trace: a
/// checkpoint does not carry it.
pub fn traced(cuts: &[(u64, Cut)]) -> bool {
    !cuts.iter().any(|&(_, cut)| cut == Cut::Restore)
}

/// `shape`'s reference, after checking that the run driven through each of
/// `schedules` (all traced, or none) shows the same.
pub fn fixed_cuts(shape: Shape, schedules: &[&[(u64, Cut)]]) -> Observed {
    let expected = reference(shape, schedules.first().is_none_or(|cuts| traced(cuts)));
    for cuts in schedules {
        check_cuts(shape, cuts, &expected).unwrap_or_else(|e| panic!("{shape:?} {cuts:?}: {e}"));
    }
    expected
}
