//! The benchmark's fixed vocabulary: workload, end-to-end and per-layer
//! metric names with their units, directions, bounds and interactions.
//! `BENCHMARK.json` (the driver's contract) and `METRICS.json` (the full
//! description, including which end-to-end metric each layer metric is
//! expected to move) are both generated from these tables by `spec`.

use mempool_obs::Json;

pub const MATMUL_COMPUTE: &str = "matmul_compute";
pub const MEM_TRAFFIC: &str = "mem_traffic";
pub const MATMUL_OBSERVED: &str = "matmul_observed";
pub const MATMUL_FAULTED: &str = "matmul_faulted";
pub const SERVE_MIX: &str = "serve_mix";
pub const REPRO_PIPELINE: &str = "repro_pipeline";

const SIM: &[&str] = &[MATMUL_COMPUTE, MEM_TRAFFIC, MATMUL_OBSERVED, MATMUL_FAULTED];
const ALL: &[&str] = &[
    MATMUL_COMPUTE,
    MEM_TRAFFIC,
    MATMUL_OBSERVED,
    MATMUL_FAULTED,
    SERVE_MIX,
    REPRO_PIPELINE,
];

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)` — each `why` is the one line `BENCHMARK.json` records.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        MATMUL_COMPUTE,
        "bare staggered p=256 matmul phase on 64x4 cores, hot I$: compute-bound, so isa execute and sim core issue/scoreboard do the work (the paper's measured phase)",
    ),
    (
        MEM_TRAFFIC,
        "seeded stream + random-gather assembly, ~75 % remote accesses: bank queues, interconnect and response delivery dominate, so a core-path gain that costs the memory path shows",
    ),
    (
        MATMUL_OBSERVED,
        "the matmul phase with metrics, time series, flight ring and trace attached and every artifact exported: isolates obs lane and export cost (obs_overhead at paper scale)",
    ),
    (
        MATMUL_FAULTED,
        "the matmul phase under a generated fault plan with the watchdog armed: exercises fault hooks and the per-tick step-engine path fault plans force",
    ),
    (
        SERVE_MIX,
        "closed loop, 2 TcpClients on an in-process 2-worker TcpServer, 90 % hot-set hits / 9 % cold sweeps / 1 % cold kernel runs: protocol, net, cache and coalescing do the work",
    ),
    (
        REPRO_PIPELINE,
        "in-process one-shot pipeline (measure_constants, Evaluation, Table I/II, Fig 6-9, DSE, JSON): phys, core and small-cluster kernels do the work; carries accuracy vs the paper",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time (or a rate over it): a median, noisy run to run.
    Host,
    /// A property of the modelled design or of the model's accuracy: must
    /// repeat exactly for equal inputs.
    Exact,
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    pub kind: Kind,
    /// Workloads that measure this metric. Every other workload reports a
    /// stand-in (see [`EndToEnd::stand_in`]) because the driver's schema
    /// wants every metric from every workload.
    pub native: &'static [&'static str],
    pub what: &'static str,
}

/// What a workload reports for an end-to-end metric it does not exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StandIn {
    /// The workload's own median seconds per op, in the metric's unit.
    OpLatency,
    /// The workload's own ops per second of its measured section.
    OpRate,
    /// The constant 1: exact metrics have no host-time analogue.
    One,
}

impl EndToEnd {
    pub fn stand_in(&self) -> StandIn {
        match (self.kind, self.better) {
            (Kind::Exact, _) => StandIn::One,
            (Kind::Host, Better::Lower) => StandIn::OpLatency,
            (Kind::Host, Better::Higher) => StandIn::OpRate,
        }
    }

    pub fn is_native(&self, workload: &str) -> bool {
        self.native.contains(&workload)
    }
}

/// Bound of every host-time metric: the contract's cap. On the 2-vCPU
/// sandbox this was written on, back-to-back runs of one binary scatter by
/// 7-15 % (interquartile range over ten runs; the compute-bound matmul is the
/// worst), so nothing tighter survives the driver's spread gate. Medians of
/// two ten-run sets agree far better — see README.md.
const HOST_BOUND: f64 = 0.25;

/// Bound of the exact metrics. The harness itself demands equality across
/// repetitions; across `--seed`s only `mem_traffic` moves (its programs are
/// seed-derived), by well under this.
const EXACT_BOUND: f64 = 0.01;

pub const END_TO_END: [EndToEnd; 13] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: HOST_BOUND,
        kind: Kind::Host,
        native: ALL,
        what: "median set-up time: construct, codegen+assemble, input fill, I$ preload; for serve bind+connect+warm",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: HOST_BOUND,
        kind: Kind::Host,
        native: ALL,
        what: "the measured section (median per repetition for sim workloads, the whole window otherwise)",
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: HOST_BOUND,
        kind: Kind::Host,
        native: SIM,
        what: "simulated cluster cycles per host second of the measured section",
    },
    EndToEnd {
        name: "sim_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: EXACT_BOUND,
        kind: Kind::Exact,
        native: SIM,
        what: "simulated cycles of one repetition (the modelled design)",
    },
    EndToEnd {
        name: "sim_ipc",
        unit: "instr/cycle",
        better: Better::Higher,
        bound: EXACT_BOUND,
        kind: Kind::Exact,
        native: SIM,
        what: "retired instructions per simulated cycle, cluster-wide",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        kind: Kind::Host,
        native: ALL,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "cpm_rel_err",
        unit: "ratio",
        better: Better::Lower,
        bound: EXACT_BOUND,
        kind: Kind::Exact,
        native: &[MATMUL_COMPUTE, MATMUL_OBSERVED, MATMUL_FAULTED, REPRO_PIPELINE],
        what: "|cycles/MAC - 3.2| / 3.2 against the model constant anchored to the paper",
    },
    EndToEnd {
        name: "serve_req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: HOST_BOUND,
        kind: Kind::Host,
        native: &[SERVE_MIX],
        what: "completed requests per second over the closed-loop window",
    },
    EndToEnd {
        name: "serve_hit_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: HOST_BOUND,
        kind: Kind::Host,
        native: &[SERVE_MIX],
        what: "median client-side latency of a cache hit over TCP",
    },
    EndToEnd {
        name: "serve_miss_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: HOST_BOUND,
        kind: Kind::Host,
        native: &[SERVE_MIX],
        what: "median client-side latency of a cold (computed) request over TCP",
    },
    EndToEnd {
        name: "pipeline_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: HOST_BOUND,
        kind: Kind::Host,
        native: &[REPRO_PIPELINE],
        what: "median time of one full pipeline iteration",
    },
    EndToEnd {
        name: "paper_max_rel_err",
        unit: "ratio",
        better: Better::Lower,
        bound: EXACT_BOUND,
        kind: Kind::Exact,
        native: &[REPRO_PIPELINE],
        what: "max relative error over every Table I/II cell mempool::paper records",
    },
    EndToEnd {
        name: "fig6_max_err_pp",
        unit: "pp",
        better: Better::Lower,
        bound: EXACT_BOUND,
        kind: Kind::Exact,
        native: &[REPRO_PIPELINE],
        what: "max |repro - paper| in percentage points over the Fig. 6 8 MiB / 1 MiB speedups at 4/16/64 B/cycle",
    },
];

// The `moves` texts: which end-to-end metric a layer metric should move, on
// which workload — written down before anything was measured.
const MOVES_CORE_PATH: &str =
    "sim_cycles_per_s on matmul_compute (and matmul_observed/_faulted, which share it); little on mem_traffic, none on serve_mix/repro_pipeline";
const MOVES_MEM_PATH: &str = "sim_cycles_per_s on mem_traffic; little on matmul_compute";
const MOVES_TICK: &str = "fixed per-tick cost: sim_cycles_per_s on all four sim workloads alike";
const MOVES_QUANTUM: &str =
    "gates ROADMAP item 2 (one engine); per-layer only: a spinning two-thread leg on a shared 2-core host does not repeat within a tenth";
const MOVES_OBS: &str = "sim_cycles_per_s and wall_s on matmul_observed only";
const MOVES_OBS_JSON: &str =
    "wall_s on matmul_observed; also serve_hit_p50_us on serve_mix and pipeline_p50_ms on repro_pipeline";
const MOVES_FAULT: &str = "sim_cycles_per_s and wall_s on matmul_faulted only";
const MOVES_SETUP: &str = "setup_s on the sim workloads";
const MOVES_SETUP_RSS: &str = "setup_s on the sim workloads, and peak_rss_mib";
const MOVES_SERVE_HIT: &str = "serve_hit_p50_us and serve_req_per_s on serve_mix";
const MOVES_SERVE_MISS: &str = "serve_miss_p50_ms on serve_mix";
const MOVES_SERVE_SETUP: &str = "setup_s on serve_mix";
const MOVES_PIPELINE: &str = "pipeline_p50_ms on repro_pipeline";
const MOVES_MODEL: &str =
    "moves only when the model changes: a simulator speed-up must leave it (and sim_cycles, sim_ipc, cpm_rel_err) identical";
const MOVES_WALL_SIM: &str = "wall_s on the sim workloads";

/// One per-layer metric: `(name, unit, better, owners, moves)`. `owners`
/// are the workloads whose traced run measures it; the others report 0.
pub type Layer = (
    &'static str,
    &'static str,
    Better,
    &'static [&'static str],
    &'static str,
);

use Better::{Higher, Lower};

const W1: &[&str] = &[MATMUL_COMPUTE];
const W2: &[&str] = &[MEM_TRAFFIC];
const W3: &[&str] = &[MATMUL_OBSERVED];
const W4: &[&str] = &[MATMUL_FAULTED];
const W5: &[&str] = &[SERVE_MIX];
const W6: &[&str] = &[REPRO_PIPELINE];

pub const PER_LAYER: [Layer; 113] = [
    // Boundary spans and exact counts of the sim workloads.
    ("kernels.codegen_s", "s", Lower, SIM, MOVES_SETUP),
    ("kernels.input_fill_s", "s", Lower, SIM, MOVES_SETUP),
    ("sim.construct_s", "s", Lower, SIM, MOVES_SETUP_RSS),
    ("sim.load_preload_s", "s", Lower, SIM, MOVES_SETUP),
    ("sim.run_s", "s", Lower, SIM, MOVES_WALL_SIM),
    ("kernels.verify_s", "s", Lower, SIM, MOVES_WALL_SIM),
    ("sim.stats_s", "s", Lower, SIM, MOVES_WALL_SIM),
    ("sim.slice_count", "count", Lower, SIM, MOVES_MODEL),
    (
        "sim.slice_us_per_kcycle_p50",
        "us/kcycle",
        Lower,
        SIM,
        MOVES_WALL_SIM,
    ),
    (
        "sim.slice_us_per_kcycle_p90",
        "us/kcycle",
        Lower,
        SIM,
        MOVES_WALL_SIM,
    ),
    ("sim.ns_per_core_cycle", "ns", Lower, SIM, MOVES_TICK),
    ("sim.ns_per_instr", "ns", Lower, SIM, MOVES_CORE_PATH),
    ("sim.ns_per_mem_access", "ns", Lower, SIM, MOVES_MEM_PATH),
    ("sim.cycles", "cycles", Lower, SIM, MOVES_MODEL),
    ("sim.retired", "count", Lower, SIM, MOVES_MODEL),
    ("sim.accesses_local", "count", Lower, SIM, MOVES_MODEL),
    ("sim.accesses_group", "count", Lower, SIM, MOVES_MODEL),
    ("sim.accesses_remote", "count", Lower, SIM, MOVES_MODEL),
    ("sim.bank_conflicts", "count", Lower, SIM, MOVES_MODEL),
    ("sim.max_bank_queue_depth", "count", Lower, SIM, MOVES_MODEL),
    ("sim.stall_cycles", "cycles", Lower, SIM, MOVES_MODEL),
    ("sim.fetch_stall_cycles", "cycles", Lower, SIM, MOVES_MODEL),
    ("sim.spm_word_touches", "count", Lower, SIM, MOVES_MODEL),
    // Numeric forms of the two string facts (the strings are in the report
    // file): engine 1 = sequential, 2 = quantum, 3 = phased-tick, 0 = other;
    // digest = ClusterStats::digest() folded to 48 bits.
    ("sim.engine", "code", Lower, SIM, MOVES_MODEL),
    ("sim.digest", "fnv48", Lower, SIM, MOVES_MODEL),
    // matmul_observed.
    ("obs.attach_s", "s", Lower, W3, "setup_s on matmul_observed"),
    ("obs.export_s", "s", Lower, W3, MOVES_OBS_JSON),
    ("obs.export_bytes", "bytes", Lower, W3, MOVES_OBS_JSON),
    ("obs.trace_events", "count", Lower, W3, MOVES_OBS),
    ("obs.timeseries_epochs", "count", Lower, W3, MOVES_OBS),
    ("obs.overhead_x", "x", Lower, W3, MOVES_OBS),
    // matmul_faulted.
    (
        "fault.plan_generate_s",
        "s",
        Lower,
        W4,
        "setup_s on matmul_faulted",
    ),
    (
        "fault.inject_s",
        "s",
        Lower,
        W4,
        "setup_s on matmul_faulted",
    ),
    ("fault.events", "count", Lower, W4, MOVES_MODEL),
    ("fault.retried_accesses", "count", Lower, W4, MOVES_MODEL),
    ("fault.retry_cycles", "cycles", Lower, W4, MOVES_MODEL),
    ("fault.ecc_corrected", "count", Lower, W4, MOVES_MODEL),
    ("fault.remapped_banks", "count", Lower, W4, MOVES_MODEL),
    ("fault.sim_slowdown_x", "x", Lower, W4, MOVES_MODEL),
    ("fault.host_overhead_x", "x", Lower, W4, MOVES_FAULT),
    // serve_mix.
    ("serve.bind_s", "s", Lower, W5, MOVES_SERVE_SETUP),
    ("serve.connect_s", "s", Lower, W5, MOVES_SERVE_SETUP),
    ("serve.warm_s", "s", Lower, W5, MOVES_SERVE_SETUP),
    ("serve.requests", "count", Higher, W5, MOVES_SERVE_HIT),
    ("serve.hits", "count", Higher, W5, MOVES_SERVE_HIT),
    ("serve.misses", "count", Higher, W5, MOVES_SERVE_MISS),
    ("serve.coalesced", "count", Higher, W5, MOVES_SERVE_MISS),
    ("serve.computed", "count", Higher, W5, MOVES_SERVE_MISS),
    (
        "serve.rejected",
        "count",
        Lower,
        W5,
        "none expected: a rejected request is a failed op",
    ),
    (
        "serve.errors",
        "count",
        Lower,
        W5,
        "none expected: an errored request is a failed op",
    ),
    (
        "serve.tcp_hit_p99_us",
        "us",
        Lower,
        W5,
        "tail of serve_hit_p50_us; per-layer because it does not repeat within a tenth",
    ),
    ("serve.tcp_miss_p50_us", "us", Lower, W5, MOVES_SERVE_MISS),
    ("serve.kernel_p50_ms", "ms", Lower, W5, MOVES_SERVE_MISS),
    (
        "serve.worker_utilization",
        "ratio",
        Lower,
        W5,
        "serve_req_per_s on serve_mix once the workers, not the wire, are the bottleneck",
    ),
    (
        "serve.drain_s",
        "s",
        Lower,
        W5,
        "none end to end: shutdown is outside the window",
    ),
    // repro_pipeline.
    (
        "kernels.measure_constants_s",
        "s",
        Lower,
        W6,
        MOVES_PIPELINE,
    ),
    ("phys.table1_s", "s", Lower, W6, MOVES_PIPELINE),
    ("core.evaluation_s", "s", Lower, W6, MOVES_PIPELINE),
    ("phys.table2_s", "s", Lower, W6, MOVES_PIPELINE),
    ("core.fig6_s", "s", Lower, W6, MOVES_PIPELINE),
    ("core.fig7_9_s", "s", Lower, W6, MOVES_PIPELINE),
    ("core.dse_s", "s", Lower, W6, MOVES_PIPELINE),
    ("obs.json_encode_s", "s", Lower, W6, MOVES_PIPELINE),
    ("core.artifact_bytes", "bytes", Lower, W6, MOVES_MODEL),
    // Micro-probes: isa (run with matmul_compute).
    ("isa.assemble_lines_per_s", "1/s", Higher, W1, MOVES_SETUP),
    (
        "isa.machine_minstr_per_s",
        "Minstr/s",
        Higher,
        W1,
        MOVES_CORE_PATH,
    ),
    ("isa.issue_ns", "ns", Lower, W1, MOVES_CORE_PATH),
    (
        "isa.decode_mwords_per_s",
        "Mwords/s",
        Higher,
        W1,
        "none end to end today: programs are stored decoded",
    ),
    // Micro-probes: sim core path (matmul_compute) and memory path (mem_traffic).
    ("sim.idle_tick_ns", "ns", Lower, W1, MOVES_TICK),
    ("sim.step_tick_ns", "ns", Lower, W1, MOVES_TICK),
    ("sim.quantum_workers", "count", Higher, W1, MOVES_QUANTUM),
    (
        "sim.quantum_cycles_per_s",
        "cycles/s",
        Higher,
        W1,
        MOVES_QUANTUM,
    ),
    (
        "sim.quantum_mem_cycles_per_s",
        "cycles/s",
        Higher,
        W2,
        MOVES_QUANTUM,
    ),
    ("sim.quantum_speedup_x", "x", Higher, W1, MOVES_QUANTUM),
    (
        "sim.faulted_t2_cycles_per_s",
        "cycles/s",
        Higher,
        W4,
        "matmul_faulted only, and only at threads > 1 (the phased-tick engine)",
    ),
    (
        "sim.hotbank_cycles_per_s",
        "cycles/s",
        Higher,
        W2,
        MOVES_MEM_PATH,
    ),
    (
        "sim.hotbank_ns_per_conflict",
        "ns",
        Lower,
        W2,
        MOVES_MEM_PATH,
    ),
    ("sim.icache_access_ns", "ns", Lower, W1, MOVES_CORE_PATH),
    ("sim.offchip_schedule_ns", "ns", Lower, W2, MOVES_MEM_PATH),
    (
        "sim.dma_mib_per_s",
        "MiB/s",
        Higher,
        W2,
        "none end to end today: no workload DMAs; guards the memory phase of BlockedMatmul",
    ),
    ("sim.scoreboard_ns", "ns", Lower, W1, MOVES_CORE_PATH),
    ("sim.storage_rw_ns", "ns", Lower, W2, MOVES_MEM_PATH),
    (
        "sim.ckpt_save_ms",
        "ms",
        Lower,
        W2,
        "none end to end: checkpointing is off in every workload",
    ),
    (
        "sim.ckpt_restore_ms",
        "ms",
        Lower,
        W2,
        "none end to end: checkpointing is off in every workload",
    ),
    (
        "sim.ckpt_mib",
        "MiB",
        Lower,
        W2,
        "none end to end: checkpointing is off in every workload",
    ),
    (
        "sim.construct_8mib_s",
        "s",
        Lower,
        W2,
        "setup_s and peak_rss_mib scale with it at larger capacities",
    ),
    // Micro-probes: obs (matmul_observed).
    (
        "obs.json_parse_mib_per_s",
        "MiB/s",
        Higher,
        W3,
        MOVES_OBS_JSON,
    ),
    (
        "obs.json_encode_mib_per_s",
        "MiB/s",
        Higher,
        W3,
        MOVES_OBS_JSON,
    ),
    ("obs.counter_inc_ns", "ns", Lower, W3, MOVES_OBS),
    ("obs.histogram_observe_ns", "ns", Lower, W3, MOVES_OBS),
    ("obs.span_complete_ns", "ns", Lower, W3, MOVES_OBS),
    ("obs.flight_record_ns", "ns", Lower, W3, MOVES_OBS),
    ("obs.timeseries_sample_ns", "ns", Lower, W3, MOVES_OBS),
    ("obs.overhead_x.metrics", "x", Lower, W3, MOVES_OBS),
    ("obs.overhead_x.timeseries", "x", Lower, W3, MOVES_OBS),
    ("obs.overhead_x.flight_trace", "x", Lower, W3, MOVES_OBS),
    // Micro-probes: fault (matmul_faulted).
    ("fault.ecc_encode_ns", "ns", Lower, W4, MOVES_FAULT),
    ("fault.ecc_decode_ns", "ns", Lower, W4, MOVES_FAULT),
    (
        "fault.plan_generate_us",
        "us",
        Lower,
        W4,
        "setup_s on matmul_faulted",
    ),
    // Micro-probes: phys and core (repro_pipeline).
    ("phys.tile_flow_us", "us", Lower, W6, MOVES_PIPELINE),
    ("phys.group_flow_us.2d", "us", Lower, W6, MOVES_PIPELINE),
    ("phys.group_flow_us.3d", "us", Lower, W6, MOVES_PIPELINE),
    ("core.phase_model_eval_ns", "ns", Lower, W6, MOVES_PIPELINE),
    ("core.dse_explore_ms", "ms", Lower, W6, MOVES_PIPELINE),
    // Micro-probes: serve (serve_mix).
    ("serve.request_parse_ns", "ns", Lower, W5, MOVES_SERVE_HIT),
    ("serve.request_encode_ns", "ns", Lower, W5, MOVES_SERVE_HIT),
    ("serve.status_encode_us", "us", Lower, W5, MOVES_SERVE_HIT),
    ("serve.cache_key_ns", "ns", Lower, W5, MOVES_SERVE_HIT),
    ("serve.cache_get_ns", "ns", Lower, W5, MOVES_SERVE_HIT),
    ("serve.cache_put_ns", "ns", Lower, W5, MOVES_SERVE_MISS),
    ("serve.cache_put_disk_us", "us", Lower, W5, MOVES_SERVE_MISS),
    ("serve.inproc_hit_us", "us", Lower, W5, MOVES_SERVE_HIT),
    ("serve.tcp_overhead_us", "us", Lower, W5, MOVES_SERVE_HIT),
];

/// The cargo invocation the driver prefixes to its four flags.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

fn strings(items: &[&str]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(*s)).collect())
}

/// `BENCHMARK.json`: exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Float(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better, _, _)| {
            Json::obj([
                ("name", Json::str(*name)),
                ("unit", Json::str(*unit)),
                ("better", Json::str(better.as_str())),
            ])
        })
        .collect();
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

/// `METRICS.json`: everything ISSUE 12 wanted recorded next to the
/// contract's keys — commands, the host's `nproc` when blessed, which
/// workloads measure which metric, and every `moves` entry.
pub fn metrics_json(nproc: usize) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Float(m.bound)),
                (
                    "repeats",
                    Json::str(match m.kind {
                        Kind::Host => "host time: median, noisy",
                        Kind::Exact => "exactly, for equal inputs",
                    }),
                ),
                ("workloads", strings(m.native)),
                (
                    "elsewhere",
                    Json::str(match m.stand_in() {
                        StandIn::OpLatency => "the workload's median seconds per op, in this unit",
                        StandIn::OpRate => "the workload's ops per second",
                        StandIn::One => "the constant 1",
                    }),
                ),
                ("what", Json::str(m.what)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better, owners, moves)| {
            Json::obj([
                ("name", Json::str(*name)),
                ("unit", Json::str(*unit)),
                ("better", Json::str(better.as_str())),
                ("workloads", strings(owners)),
                ("moves", Json::str(*moves)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::str("mempool-benchmark-metrics/v1")),
        ("paths", strings(&["benchmark"])),
        ("nproc_at_bless", Json::Int(nproc as i64)),
        (
            "commands",
            Json::obj([
                ("build", Json::str("cd benchmark && cargo build --release")),
                (
                    "untraced",
                    Json::str("cd benchmark && cargo run --release -- run"),
                ),
                (
                    "traced",
                    Json::str("cd benchmark && cargo run --release -- run --trace"),
                ),
                (
                    "single_workload",
                    Json::str(
                        "cd benchmark && cargo run --release -- run --workload NAME [--trace]",
                    ),
                ),
                (
                    "smoke",
                    Json::str("cd benchmark && cargo run --release -- run --smoke"),
                ),
                (
                    "compare",
                    Json::str("cd benchmark && cargo run --release -- compare A.json B.json"),
                ),
                ("seed_argument", Json::str("--seed N (default 1)")),
            ]),
        ),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}
