//! Micro-probes: each loops at least [`PROBE_SECONDS`] over one public
//! function of one crate, in the traced pass only. A workload's traced run
//! carries the probes of the layers it stresses (see `spec::PER_LAYER`), so
//! a layer's probe numbers sit next to the boundary spans they explain.

use std::sync::Arc;
use std::time::Instant;

use mempool::dse::DesignSpace;
use mempool::experiments::{Evaluation, Fig6};
use mempool_arch::{BankId, BankLocation, ClusterConfig, SpmCapacity, TileId};
use mempool_fault::{EccState, FaultConfig, FaultPlan};
use mempool_isa::exec::{self, Machine, MemWidth};
use mempool_isa::{decode, Program, RegFile};
use mempool_kernels::matmul::PhaseModel;
use mempool_kernels::Kernel;
use mempool_obs::{FlightRecorder, Json, Obs, Registry, SpanRecorder, TimeSeries};
use mempool_phys::{Flow, GroupImplementation, TileImplementation};
use mempool_serve::{
    CacheOutcome, ExperimentKind, ExperimentRequest, ResultCache, Service, ServiceConfig, Status,
};
use mempool_sim::core::Core;
use mempool_sim::icache::ICache;
use mempool_sim::memory::Storage;
use mempool_sim::{Cluster, OffchipPort, SimError, SimParams};

use crate::memtraffic::StreamPhase;
use crate::report::Outcome;
use crate::simwl::{fault_plan, matmul, paper_config, with_threads};
use crate::trace::Tracer;
use crate::util::{median, nproc, ns_per_op, try_ns_per_op};
use crate::{spec, Options};

/// Shortest time a probe loops for.
const PROBE_SECONDS: f64 = 0.2;
/// Simulated cycles of the partial cluster runs the engine probes time.
const PARTIAL_CYCLES: u64 = 12_288;
/// Thread count of the quantum-engine probes: min(nproc, 4).
fn quantum_threads() -> usize {
    nproc().min(4)
}

/// A 24-line loop touching every instruction class the kernels use; the
/// `isa` probes assemble, run, issue and decode it.
const PROBE_ASM: &str = r#"
        li   s0, 0x100
        li   s1, 0x200
        li   t0, 64
        li   a5, 0
    loop:
        p.lw a0, 4(s0!)
        p.lw a1, 4(s1!)
        p.mac a5, a0, a1
        add  a2, a0, a1
        xor  a2, a2, a5
        slli a3, a2, 3
        srli a4, a2, 5
        or   a3, a3, a4
        mul  a4, a3, a0
        sw   a4, 0(s0)
        addi t0, t0, -1
        bnez t0, loop
        li   s0, 0x100
        li   s1, 0x200
        li   t0, 64
        j    loop
"#;

/// Times `cluster.run(PARTIAL_CYCLES)` on an already loaded cluster and
/// returns simulated cycles per host second.
fn partial_run(cluster: &mut Cluster) -> Result<f64, String> {
    let before = cluster.cycle();
    let started = Instant::now();
    match cluster.run(PARTIAL_CYCLES) {
        Ok(_) | Err(SimError::Timeout { .. }) => {}
        Err(e) => return Err(e.to_string()),
    }
    Ok((cluster.cycle() - before) as f64 / started.elapsed().as_secs_f64())
}

/// A paper-scale cluster with `kernel` loaded and its inputs in place.
fn loaded(kernel: &dyn Kernel, params: SimParams) -> Result<Cluster, String> {
    let mut cluster = Cluster::new(paper_config(), params);
    let program = kernel.program(&cluster).map_err(|e| e.to_string())?;
    kernel.setup(&mut cluster).map_err(|e| e.to_string())?;
    cluster.load_program(program);
    cluster.preload_icaches();
    Ok(cluster)
}

struct Probes<'a> {
    tracer: &'a mut Tracer,
    outcome: &'a mut Outcome,
    /// 0 in smoke mode: every probe runs one iteration.
    seconds: f64,
}

impl Probes<'_> {
    /// Runs one probe under a span and records its value.
    fn probe(
        &mut self,
        layer: &'static str,
        metric: &'static str,
        f: impl FnOnce(f64) -> Result<f64, String>,
    ) {
        let seconds = self.seconds;
        let (value, _) = self.tracer.span(layer, metric, 0, || f(seconds));
        match value {
            Ok(value) => self.outcome.layer(metric, value),
            Err(reason) => self.outcome.fail(format!("probe {metric}: {reason}")),
        }
    }

    fn isa(&mut self) {
        let program = Program::assemble(PROBE_ASM).expect("the probe program assembles");
        let lines = PROBE_ASM.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        self.probe("isa", "isa.assemble_lines_per_s", |s| {
            let ns = ns_per_op(s, lines, || {
                std::hint::black_box(Program::assemble(std::hint::black_box(PROBE_ASM)).is_ok());
            });
            Ok(1e9 / ns)
        });
        self.probe("isa", "isa.machine_minstr_per_s", |s| {
            const STEPS: u64 = 100_000;
            let ns = ns_per_op(s, STEPS, || {
                let mut machine = Machine::new(program.clone(), 4096);
                // The loop never halts: the step budget ends the run.
                let _ = machine.run(STEPS);
                std::hint::black_box(machine.retired());
            });
            Ok(1e3 / ns)
        });
        self.probe("isa", "isa.issue_ns", |s| {
            // The loop body without its closing branch: straight-line code.
            let first = program.label("loop").expect("the probe program has a loop") as usize / 4;
            let body: Vec<_> = program.instrs()[first..first + 11].to_vec();
            let mut regs = RegFile::new();
            Ok(ns_per_op(s, 1000 * body.len() as u64, || {
                for _ in 0..1000 {
                    for (i, &instr) in body.iter().enumerate() {
                        std::hint::black_box(exec::issue(instr, i as u32 * 4, &mut regs, 0));
                    }
                }
            }))
        });
        self.probe("isa", "isa.decode_mwords_per_s", |s| {
            let words = program.to_words();
            let ns = ns_per_op(s, 1000 * words.len() as u64, || {
                for _ in 0..1000 {
                    for &word in &words {
                        std::hint::black_box(decode(std::hint::black_box(word)).is_ok());
                    }
                }
            });
            Ok(1e3 / ns)
        });
    }

    fn sim_core_path(&mut self) {
        self.probe("sim", "sim.idle_tick_ns", |s| {
            let mut cluster = Cluster::new(paper_config(), with_threads(1));
            cluster.load_program(Program::assemble("wfi").map_err(|e| e.to_string())?);
            cluster.preload_icaches();
            cluster.run(1000).map_err(|e| e.to_string())?;
            try_ns_per_op(s, 1000, || (0..1000).try_for_each(|_| cluster.step()))
                .map_err(|e| e.to_string())
        });
        self.probe("sim", "sim.step_tick_ns", |s| {
            let mut cluster = loaded(&matmul(), with_threads(1))?;
            try_ns_per_op(s, 1000, || (0..1000).try_for_each(|_| cluster.step()))
                .map_err(|e| e.to_string())
        });
        self.probe("sim", "sim.scoreboard_ns", |s| {
            let program = Program::assemble(PROBE_ASM).map_err(|e| e.to_string())?;
            let loads: Vec<_> = program
                .instrs()
                .iter()
                .copied()
                .filter(|i| i.is_mem())
                .collect();
            let mut core = Core::new();
            Ok(ns_per_op(s, 1000 * loads.len() as u64, || {
                for _ in 0..1000 {
                    for &instr in &loads {
                        if core.check_issue(instr, 8).is_ok() {
                            core.mark_pending(instr.response_reg());
                            core.complete(instr.response_reg(), 7);
                        }
                    }
                }
                std::hint::black_box(core.outstanding());
            }))
        });
        self.probe("sim", "sim.icache_access_ns", |s| {
            let params = SimParams::default();
            let mut icache = ICache::with_ways(
                paper_config().icache_bytes_per_tile(),
                params.icache_line_words,
                params.icache_ways,
            );
            icache.preload(64);
            Ok(ns_per_op(s, 64_000, || {
                for _ in 0..1000 {
                    for pc in (0..256).step_by(4) {
                        std::hint::black_box(icache.access(pc));
                    }
                }
            }))
        });
        // The quantum engine against the sequential loop, same partial run.
        let threads = quantum_threads();
        let mut workers = 0;
        let mut sequential_cps = 0.0;
        self.probe("sim", "sim.quantum_workers", |_| {
            workers = Cluster::new(paper_config(), with_threads(threads)).effective_workers();
            Ok(workers as f64)
        });
        self.probe("sim", "sim.quantum_cycles_per_s", |_| {
            sequential_cps = partial_run(&mut loaded(&matmul(), with_threads(1))?)?;
            partial_run(&mut loaded(&matmul(), with_threads(threads))?)
        });
        let quantum_cps = self
            .outcome
            .per_layer
            .get("sim.quantum_cycles_per_s")
            .copied();
        // Not evaluated (reported as 0) unless two workers really ran.
        if let (true, Some(cps)) = (workers >= 2, quantum_cps) {
            self.outcome
                .layer("sim.quantum_speedup_x", cps / sequential_cps);
        }
        self.outcome
            .note("sim.quantum_threads_requested", Json::Int(threads as i64));
    }

    fn sim_memory_path(&mut self, seed: u64) {
        self.probe("sim", "sim.quantum_mem_cycles_per_s", |_| {
            let stream = StreamPhase::new(seed, 8);
            partial_run(&mut loaded(&stream, with_threads(quantum_threads()))?)
        });
        // All 256 cores loading from four banks of tile 0.
        let mut hot_conflicts = 0.0;
        let mut hot_seconds = 0.0;
        self.probe("sim", "sim.hotbank_cycles_per_s", |_| {
            let mut cluster = Cluster::new(paper_config(), with_threads(1));
            let base = cluster.storage().map().interleaved_base();
            let source = format!(
                "csrr t0, mhartid\nandi t0, t0, 3\nslli t0, t0, 2\nli s0, {base}\nadd s0, s0, t0\n\
                 loop:\nlw a0, 0(s0)\nlw a1, 0(s0)\nadd a2, a0, a1\nj loop"
            );
            cluster.load_program(Program::assemble(&source).map_err(|e| e.to_string())?);
            cluster.preload_icaches();
            let started = Instant::now();
            let cps = partial_run(&mut cluster)?;
            hot_seconds = started.elapsed().as_secs_f64();
            hot_conflicts = cluster.stats().total_conflicts() as f64;
            Ok(cps)
        });
        if hot_conflicts > 0.0 {
            self.outcome.layer(
                "sim.hotbank_ns_per_conflict",
                hot_seconds * 1e9 / hot_conflicts,
            );
        }
        self.probe("sim", "sim.offchip_schedule_ns", |s| {
            let params = SimParams::default();
            let mut port = OffchipPort::new(params.offchip_bytes_per_cycle, params.offchip_latency);
            let mut now = 0;
            Ok(ns_per_op(s, 1000, || {
                for _ in 0..1000 {
                    now = port.schedule(std::hint::black_box(now), std::hint::black_box(64));
                }
                std::hint::black_box(now);
            }))
        });
        self.probe("sim", "sim.dma_mib_per_s", |s| {
            const ROWS: u32 = 64;
            const ROW_BYTES: u32 = 1024;
            let mut cluster = Cluster::new(paper_config(), with_threads(1));
            let spm = cluster.storage().map().interleaved_base();
            let ns_per_byte = try_ns_per_op(s, u64::from(ROWS * ROW_BYTES), || {
                cluster
                    .dma_tile(0, 4096, spm, ROWS, ROW_BYTES, true)
                    .map(|_| ())
            })
            .map_err(|e| e.to_string())?;
            Ok(1e9 / ns_per_byte / (1024.0 * 1024.0))
        });
        self.probe("sim", "sim.storage_rw_ns", |s| {
            let config = paper_config();
            let mut storage = Storage::new(&config);
            let base = storage.map().interleaved_base();
            try_ns_per_op(s, 2 * 4096, || {
                (0..4096u32).try_for_each(|i| {
                    let addr = base + i * 4;
                    storage.write(addr, MemWidth::Word, i)?;
                    storage.read(addr, MemWidth::Word).map(|word| {
                        std::hint::black_box(word);
                    })
                })
            })
            .map_err(|e| e.to_string())
        });
        // Checkpoint of a cluster a few thousand cycles into the stream phase.
        let mut snapshot_text = String::new();
        self.probe("sim", "sim.ckpt_save_ms", |s| {
            let mut cluster = loaded(&StreamPhase::new(seed, 8), with_threads(1))?;
            partial_run(&mut cluster)?;
            let ns = ns_per_op(s, 1, || snapshot_text = cluster.checkpoint().to_pretty());
            Ok(ns / 1e6)
        });
        self.outcome.layer(
            "sim.ckpt_mib",
            snapshot_text.len() as f64 / (1024.0 * 1024.0),
        );
        self.probe("sim", "sim.ckpt_restore_ms", |s| {
            let ns = try_ns_per_op(s, 1, || {
                let doc = Json::parse(&snapshot_text).map_err(|e| e.to_string())?;
                let cluster = Cluster::restore(&doc).map_err(|e| e.to_string())?;
                std::hint::black_box(cluster.cycle());
                Ok::<(), String>(())
            })?;
            Ok(ns / 1e6)
        });
        self.probe("sim", "sim.construct_8mib_s", |s| {
            let config = ClusterConfig::with_capacity(SpmCapacity::MiB8);
            let ns = ns_per_op(s, 1, || {
                std::hint::black_box(Cluster::new(config.clone(), with_threads(1)).cycle());
            });
            Ok(ns / 1e9)
        });
    }

    fn obs(&mut self) {
        // A document of the size and shape the exporters emit.
        let document = Fig6::generate().to_json();
        let text = document.to_pretty();
        let mib = text.len() as f64 / (1024.0 * 1024.0);
        self.probe("obs", "obs.json_parse_mib_per_s", |s| {
            let ns = ns_per_op(s, 1, || {
                std::hint::black_box(Json::parse(std::hint::black_box(&text)).is_ok());
            });
            Ok(mib / (ns / 1e9))
        });
        self.probe("obs", "obs.json_encode_mib_per_s", |s| {
            let ns = ns_per_op(s, 1, || {
                std::hint::black_box(document.to_pretty().len());
            });
            Ok(mib / (ns / 1e9))
        });
        self.probe("obs", "obs.counter_inc_ns", |s| {
            let counter = Registry::new().counter("probe_total", &[("run", "probe")]);
            Ok(ns_per_op(s, 10_000, || {
                for _ in 0..10_000 {
                    std::hint::black_box(&counter).inc();
                }
                std::hint::black_box(counter.get());
            }))
        });
        self.probe("obs", "obs.histogram_observe_ns", |s| {
            let histogram =
                Registry::new().histogram("probe_latency", &[], &[1.0, 10.0, 100.0, 1000.0]);
            Ok(ns_per_op(s, 10_000, || {
                for i in 0..10_000 {
                    histogram.observe(f64::from(i % 2000));
                }
            }))
        });
        // The recorders below grow with every event, so each batch starts a
        // fresh one; its construction is amortized over 10 000 events.
        self.probe("obs", "obs.span_complete_ns", |s| {
            Ok(ns_per_op(s, 10_000, || {
                let spans = SpanRecorder::new();
                let track = spans.track(spans.process("probe"), "core0");
                for i in 0..10_000u64 {
                    spans.complete(track, "wfi", i, i + 1, Vec::new());
                }
                std::hint::black_box(spans.len());
            }))
        });
        self.probe("obs", "obs.flight_record_ns", |s| {
            let flight = FlightRecorder::with_capacity(256);
            Ok(ns_per_op(s, 10_000, || {
                for i in 0..10_000u64 {
                    flight.record(i, "mem", Some(3), "lw a0 <- 0x40000");
                }
            }))
        });
        self.probe("obs", "obs.timeseries_sample_ns", |s| {
            Ok(ns_per_op(s, 10_000, || {
                let series = TimeSeries::new();
                for i in 0..10_000u64 {
                    series.push("l1_remote_rate", i * 1024, 0.75);
                }
                std::hint::black_box(series.len());
            }))
        });
        // One observability feature at a time on the same partial matmul run.
        let mut bare = 0.0;
        self.probe("sim", "obs.overhead_x.metrics", |_| {
            bare = partial_run(&mut loaded(&matmul(), with_threads(1))?)?;
            let mut cluster = loaded(&matmul(), with_threads(1))?;
            cluster.attach_obs(&Obs::new(), "probe");
            Ok(bare / partial_run(&mut cluster)?)
        });
        self.probe("sim", "obs.overhead_x.timeseries", |_| {
            let mut cluster = loaded(&matmul(), with_threads(1))?;
            cluster.attach_obs(&Obs::new(), "probe");
            cluster.enable_timeseries(1024);
            Ok(bare / partial_run(&mut cluster)?)
        });
        self.probe("sim", "obs.overhead_x.flight_trace", |_| {
            let mut cluster = loaded(&matmul(), with_threads(1))?;
            cluster.attach_obs(&Obs::new(), "probe");
            cluster.enable_flight(256);
            cluster.enable_trace(256);
            Ok(bare / partial_run(&mut cluster)?)
        });
    }

    fn fault(&mut self) {
        // The ECC model keeps flip masks, not code words: "encode" is
        // noting a flip on a word, "decode" the corrected read that clears it.
        let loc = BankLocation {
            tile: TileId(3),
            bank: BankId(5),
            word: 17,
        };
        self.probe("fault", "fault.ecc_encode_ns", |s| {
            let mut ecc = EccState::new();
            Ok(ns_per_op(s, 2000, || {
                for _ in 0..1000 {
                    // Two flips of the same bit cancel, keeping the map small.
                    ecc.note_flip(loc, 1 << 9);
                    ecc.note_flip(loc, 1 << 9);
                }
                std::hint::black_box(ecc.pending_words());
            }))
        });
        self.probe("fault", "fault.ecc_decode_ns", |s| {
            let mut ecc = EccState::new();
            let ns = ns_per_op(s, 1000, || {
                for _ in 0..1000 {
                    ecc.note_flip(loc, 1 << 9);
                    std::hint::black_box(ecc.on_read(loc, 0xdead_beef));
                }
            });
            // Each iteration pairs one flip with one read.
            Ok(ns / 2.0)
        });
        self.probe("fault", "fault.plan_generate_us", |s| {
            let config = paper_config();
            let mut seed = 0;
            let ns = ns_per_op(s, 1, || {
                seed += 1;
                let plan = FaultPlan::generate(&FaultConfig::new(seed, 1e-6), &config);
                std::hint::black_box(plan.len());
            });
            Ok(ns / 1e3)
        });
        self.probe("sim", "sim.faulted_t2_cycles_per_s", |_| {
            let mut cluster = loaded(&matmul(), with_threads(2))?;
            cluster
                .inject_faults(&fault_plan(&paper_config()))
                .map_err(|e| e.to_string())?;
            // The phased-tick engine is an order of magnitude slower than
            // the step loop: a sixth of the usual partial run is plenty.
            let before = cluster.cycle();
            let started = Instant::now();
            match cluster.run(PARTIAL_CYCLES / 6) {
                Ok(_) | Err(SimError::Timeout { .. }) => {}
                Err(e) => return Err(e.to_string()),
            }
            Ok((cluster.cycle() - before) as f64 / started.elapsed().as_secs_f64())
        });
    }

    fn serve(&mut self) {
        let request = ExperimentRequest::new(ExperimentKind::Sweep {
            bytes_per_cycle: 16,
        });
        let line = request.to_json().to_string();
        let artifact = Arc::new(Fig6::generate().to_json());
        self.probe("serve", "serve.request_parse_ns", |s| {
            try_ns_per_op(s, 100, || {
                (0..100).try_for_each(|_| {
                    let doc =
                        Json::parse(std::hint::black_box(&line)).map_err(|e| e.to_string())?;
                    ExperimentRequest::from_json(&doc).map(|request| {
                        std::hint::black_box(request);
                    })
                })
            })
        });
        self.probe("serve", "serve.request_encode_ns", |s| {
            Ok(ns_per_op(s, 100, || {
                for _ in 0..100 {
                    std::hint::black_box(request.to_json().to_string().len());
                }
            }))
        });
        self.probe("serve", "serve.status_encode_us", |s| {
            let status = Status::Done {
                cache: CacheOutcome::Hit,
                artifact: Arc::clone(&artifact),
            };
            let ns = ns_per_op(s, 10, || {
                for id in 0..10 {
                    std::hint::black_box(status.to_json(id).to_string().len());
                }
            });
            Ok(ns / 1e3)
        });
        self.probe("serve", "serve.cache_key_ns", |s| {
            Ok(ns_per_op(s, 1000, || {
                for _ in 0..1000 {
                    std::hint::black_box(std::hint::black_box(&request).cache_key());
                }
            }))
        });
        self.probe("serve", "serve.cache_get_ns", |s| {
            let cache = ResultCache::in_memory();
            let key = request.cache_key();
            cache.put(key, (*artifact).clone());
            Ok(ns_per_op(s, 1000, || {
                for _ in 0..1000 {
                    std::hint::black_box(cache.get(key).is_some());
                }
            }))
        });
        self.probe("serve", "serve.cache_put_ns", |s| {
            let cache = ResultCache::in_memory();
            let small = Json::obj([("experiment", Json::str("probe"))]);
            let mut key = 0;
            Ok(ns_per_op(s, 1000, || {
                for _ in 0..1000 {
                    // 1024 keys, so the map stays small.
                    key = (key + 1) % 1024;
                    cache.put(key, small.clone());
                }
            }))
        });
        self.probe("serve", "serve.cache_put_disk_us", |s| {
            let dir = crate::out_dir().join("cache-probe");
            let cache = ResultCache::with_dir(&dir).map_err(|e| e.to_string())?;
            let mut key = 0;
            let ns = ns_per_op(s, 1, || {
                key = (key + 1) % 16;
                cache.put(key, (*artifact).clone());
            });
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
            Ok(ns / 1e3)
        });
        let mut inproc_us = 0.0;
        self.probe("serve", "serve.inproc_hit_us", |s| {
            let service = Service::start(ServiceConfig::default()).map_err(|e| e.to_string())?;
            let client = service.client();
            client.run(request).map_err(|e| e.to_string())?;
            let mut latencies = Vec::new();
            let timed = try_ns_per_op(s, 100, || {
                (0..100).try_for_each(|_| {
                    let started = Instant::now();
                    client.run(request)?;
                    latencies.push(started.elapsed().as_secs_f64());
                    Ok(())
                })
            });
            service.shutdown();
            timed.map_err(|e: mempool_serve::ServeError| e.to_string())?;
            inproc_us = median(&latencies) * 1e6;
            Ok(inproc_us)
        });
        if let Some(tcp_us) = self.outcome.end_to_end.get("serve_hit_p50_us") {
            let overhead = tcp_us - inproc_us;
            self.outcome.layer("serve.tcp_overhead_us", overhead);
        }
    }

    fn phys_and_core(&mut self) {
        self.probe("phys", "phys.tile_flow_us", |s| {
            let ns = ns_per_op(s, 1, || {
                let tile = TileImplementation::implement(SpmCapacity::MiB4, Flow::ThreeD);
                std::hint::black_box(tile.footprint_um2());
            });
            Ok(ns / 1e3)
        });
        for (metric, flow) in [
            ("phys.group_flow_us.2d", Flow::TwoD),
            ("phys.group_flow_us.3d", Flow::ThreeD),
        ] {
            self.probe("phys", metric, |s| {
                let ns = ns_per_op(s, 1, || {
                    let group = GroupImplementation::implement(SpmCapacity::MiB4, flow);
                    std::hint::black_box(group.frequency_ghz());
                });
                Ok(ns / 1e3)
            });
        }
        self.probe("core", "core.phase_model_eval_ns", |s| {
            let model = PhaseModel::with_measured_defaults();
            Ok(ns_per_op(s, 4000, || {
                for _ in 0..1000 {
                    for capacity in SpmCapacity::ALL {
                        let cycles = model
                            .total_cycles(std::hint::black_box(capacity), std::hint::black_box(16));
                        std::hint::black_box(cycles);
                    }
                }
            }))
        });
        self.probe("core", "core.dse_explore_ms", |s| {
            let eval = Evaluation::new();
            let ns = ns_per_op(s, 1, || {
                std::hint::black_box(DesignSpace::explore(&eval).points().len());
            });
            Ok(ns / 1e6)
        });
    }
}

/// Runs the micro-probes `workload`'s traced pass carries.
pub fn run(workload: &str, opts: &Options, tracer: &mut Tracer, outcome: &mut Outcome) {
    let open = tracer.begin("harness", "probes", 0);
    let mut probes = Probes {
        tracer,
        outcome,
        seconds: if opts.smoke { 0.0 } else { PROBE_SECONDS },
    };
    match workload {
        spec::MATMUL_COMPUTE => {
            probes.isa();
            probes.sim_core_path();
        }
        spec::MEM_TRAFFIC => probes.sim_memory_path(opts.seed),
        spec::MATMUL_OBSERVED => probes.obs(),
        spec::MATMUL_FAULTED => probes.fault(),
        spec::SERVE_MIX => probes.serve(),
        spec::REPRO_PIPELINE => probes.phys_and_core(),
        _ => {}
    }
    tracer.end(open);
}
