//! Engine determinism: the engine must reproduce the stored results of
//! the per-tick step kernel it replaced, and where a run is cut into
//! quanta must not show.
//!
//! `Cluster::run` advances in quanta of up to 1024 cycles, `Cluster::step`
//! in quanta of one; both replay the same lane at each boundary. These
//! tests pin that contract: every kernel in the characterization zoo, a
//! seed-42 fault-injected degraded run, the sampled time series, the
//! cycle-attribution report, and even the exact `SimError` raised by a
//! watchdog-detected deadlock must not change with the quantum length. The
//! `PINNED_*` tables further down hold what the deleted per-tick step
//! kernel produced for the same scenarios.

use mempool_arch::{BankId, ClusterConfig, MemoryRegion, TileId};
use mempool_fault::{DeadLinkPolicy, FaultConfig, FaultEvent, FaultPlan};
use mempool_isa::Program;
use mempool_kernels::axpy::Axpy;
use mempool_kernels::dotprod::DotProduct;
use mempool_kernels::matmul::ComputePhase;
use mempool_kernels::transpose::Transpose;
use mempool_kernels::Kernel;
use mempool_obs::{chrome_trace_with_counters, Json, Obs};
use mempool_sim::{Cluster, ClusterStats, SimError, SimParams};

/// The pinned fault seed, matching the committed baseline scenario.
const FAULT_SEED: u64 = 42;

fn zoo_config() -> ClusterConfig {
    ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(4)
        .cores_per_tile(4)
        .banks_per_tile(16)
        .bank_words(256)
        .build()
        .unwrap()
}

/// How a test drives a loaded cluster to the end.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `Cluster::run`: quanta of up to 1024 cycles.
    Run,
    /// `Cluster::step` until quiescent: one-cycle quanta.
    Step,
}

/// Drives `cluster` until every core halts, with `Cluster::run`'s
/// budget and error contract either way; returns the final cycle.
fn drive(cluster: &mut Cluster, how: Drive, max_cycles: u64) -> Result<u64, SimError> {
    match how {
        Drive::Run => cluster.run(max_cycles),
        Drive::Step => {
            let deadline = cluster.cycle() + max_cycles;
            while !cluster.quiescent() {
                if cluster.cycle() >= deadline {
                    return Err(SimError::Timeout { cycles: max_cycles });
                }
                cluster.step()?;
            }
            Ok(cluster.cycle())
        }
    }
}

/// Everything one run observes, in directly comparable form. The string
/// fields are the *serialized artifacts* (what `repro --artifacts` writes
/// as timeseries.json, trace.json, and the flight events), so equality
/// here is the byte-identity the instrumented CI diff relies on.
#[derive(Debug, PartialEq)]
struct Observed {
    cycles: u64,
    stats: ClusterStats,
    digest: u64,
    attribution: String,
    timeseries: String,
    trace: String,
    flight: String,
    fault_report: Option<String>,
}

/// Runs `kernel` once, driven as `how` says, with optional fault
/// injection, and captures every comparable output — the full
/// observability stack is on (spans, metrics, time series, flight ring,
/// instruction trace), so the step legs replay the observation lane at
/// every tick.
fn observe(
    kernel: &dyn Kernel,
    how: Drive,
    plan: Option<&FaultPlan>,
    watchdog: Option<u64>,
) -> Observed {
    let cfg = zoo_config();
    let obs = Obs::new();
    let mut cluster = Cluster::new(cfg.clone(), SimParams::default());
    cluster.attach_obs(&obs, "equivalence");
    cluster.enable_timeseries(256);
    cluster.enable_flight(128);
    cluster.enable_trace(128);
    if let Some(plan) = plan {
        cluster.inject_faults(plan).unwrap();
    }
    if let Some(threshold) = watchdog {
        cluster.set_watchdog(threshold);
    }
    let name = kernel.name();
    kernel
        .load(&mut cluster)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let start = cluster.cycle();
    let end =
        drive(&mut cluster, how, 10_000_000).unwrap_or_else(|e| panic!("{name} ({how:?}): {e}"));
    kernel
        .verify(&cluster)
        .unwrap_or_else(|e| panic!("{name} ({how:?}): {e}"));
    let cycles = end - start;
    let stats = cluster.stats();
    let attribution = stats
        .attribution(cfg.cores_per_tile(), cfg.banks_per_tile())
        .to_json()
        .to_pretty();
    let fault_report = cluster.fault_report().map(|r| r.to_json().to_pretty());
    // Close still-open spans so the exported trace is balanced.
    cluster.detach_obs();
    Observed {
        cycles,
        digest: stats.digest(),
        attribution,
        timeseries: obs.series.to_json().to_pretty(),
        trace: chrome_trace_with_counters(&obs.spans, Some(&obs.series)).to_pretty(),
        flight: obs.flight.to_json().to_pretty(),
        fault_report,
        stats,
    }
}

fn zoo() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Axpy::new(1024, 3)),
        Box::new(DotProduct::new(1024)),
        Box::new(ComputePhase::new(32)),
        Box::new(Transpose::new(64)),
    ]
}

#[test]
fn every_zoo_kernel_stepped_to_the_end_equals_its_run() {
    for kernel in zoo() {
        let run = observe(kernel.as_ref(), Drive::Run, None, None);
        assert!(run.cycles > 0, "{}", kernel.name());
        let stepped = observe(kernel.as_ref(), Drive::Step, None, None);
        assert_eq!(run, stepped, "{} diverged when stepped", kernel.name());
    }
}

#[test]
fn seed42_fault_injected_run_stepped_to_the_end_equals_its_run() {
    // A rate high enough that retries, ECC corrections, and link
    // degradation all actually fire on this small cluster.
    let fault_cfg = FaultConfig::new(FAULT_SEED, 1e-4).with_horizon(50_000);
    let plan = FaultPlan::generate(&fault_cfg, &zoo_config());
    let kernel = ComputePhase::new(32);
    let run = observe(&kernel, Drive::Run, Some(&plan), Some(2_000_000));
    let report = run
        .fault_report
        .as_deref()
        .expect("a fault-injected run carries a report");
    assert!(
        report.contains("\"injected\""),
        "report should summarize injections: {report}"
    );
    let stepped = observe(&kernel, Drive::Step, Some(&plan), Some(2_000_000));
    assert_eq!(run, stepped, "degraded run diverged when stepped");
}

#[test]
fn fault_plans_and_spare_remaps_run_sharded() {
    // The plan above degrades links, remaps stuck banks onto spares and
    // lands bit flips mid-run, so the comparison above really crosses
    // those paths: a tile's view holds its spare words, and a corrected
    // read stalls a core on whichever tile it sits.
    let fault_cfg = FaultConfig::new(FAULT_SEED, 1e-4).with_horizon(50_000);
    let plan = FaultPlan::generate(&fault_cfg, &zoo_config());
    let mut cluster = Cluster::new(zoo_config(), SimParams::default());
    cluster.inject_faults(&plan).unwrap();
    assert_eq!(cluster.engine_selection().engine, "quantum");
    ComputePhase::new(32).run(&mut cluster, 10_000_000).unwrap();
    let report = cluster.fault_report().expect("a plan was injected");
    assert!(!report.remapped.is_empty(), "the plan must remap a bank");
    assert!(report.ecc_corrected > 0, "the plan must exercise ECC");
}

/// Core 0 waits forever on a load swallowed by a black-holing dead link;
/// returns the watchdog's error and the cycle it fired on.
fn deadlock_on_a_black_holed_load() -> (SimError, u64) {
    let mut cluster = Cluster::new(zoo_config(), SimParams::default());
    let remote = cluster.storage().map().seq_addr(TileId(1), 0);
    let mut plan = FaultPlan::new(5).with_dead_link_policy(DeadLinkPolicy::BlackHole);
    plan.push(FaultEvent::LinkDead { tile: TileId(1) });
    cluster.inject_faults(&plan).unwrap();
    cluster.set_watchdog(64);
    cluster.load_program(
        Program::assemble(&format!(
            r#"
                csrr t1, mhartid
                bnez t1, done
                li   t0, {remote}
                lw   a0, 0(t0)
                add  a1, a0, a0
            done:
                wfi
            "#
        ))
        .unwrap(),
    );
    cluster.preload_icaches();
    let err = cluster.run(100_000).unwrap_err();
    (err, cluster.cycle())
}

#[test]
fn committed_baseline_matches_the_pinned_summary() {
    // The comparison `repro check --baseline BENCH_baseline.json` makes,
    // so drift of the pinned degraded run fails tier-1 and not only CI.
    let summary = mempool_bench::bench_summary();
    let baseline = Json::parse(include_str!("../BENCH_baseline.json"))
        .expect("the committed baseline is valid JSON");
    assert_eq!(
        baseline,
        summary,
        "BENCH_baseline.json drifted from bench_summary():\n{}",
        mempool_bench::regress::diff(&baseline, &summary).join("\n")
    );
    // `repro check --bless` writes exactly these bytes.
    assert_eq!(include_str!("../BENCH_baseline.json"), summary.to_pretty());
}

// ---------------------------------------------------------------------
// Bare runs (no obs/faults/trace), run against stepped: same cycles, same
// stats digest, same errors — through timeouts, and with cross-tile,
// contended-AMO, and off-chip traffic in flight at quantum boundaries.
// ---------------------------------------------------------------------

use mempool_isa::instr::{AluOp, AmoOp, BranchOp, Instr, LoadOp, StoreOp, CSR_MHARTID};
use mempool_isa::Reg;

fn quantum_config() -> ClusterConfig {
    ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(16)
        .cores_per_tile(2)
        .banks_per_tile(4)
        .bank_words(64)
        .build()
        .unwrap()
}

/// Every core: contended AMO on a shared word, a hart-spread load/store
/// pair striding across tiles through the interleaved region, optionally
/// an off-chip load+store, a counted loop, then halt.
fn quantum_traffic(trips: u32, external: bool) -> Program {
    let mut body = vec![
        // r1 = hartid * 4 (word stride), r2 = external base + r1.
        Instr::Csrrs {
            rd: Reg::new(1),
            csr: CSR_MHARTID,
            rs1: Reg::ZERO,
        },
        Instr::OpImm {
            op: AluOp::Sll,
            rd: Reg::new(1),
            rs1: Reg::new(1),
            imm: 2,
        },
        Instr::Lui {
            rd: Reg::new(2),
            imm: 0x8000_0000,
        },
        Instr::Op {
            op: AluOp::Add,
            rd: Reg::new(2),
            rs1: Reg::new(2),
            rs2: Reg::new(1),
        },
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(31),
            rs1: Reg::ZERO,
            imm: trips as i32,
        },
        // Loop body.
        Instr::Amo {
            op: AmoOp::Add,
            rd: Reg::new(10),
            rs1: Reg::ZERO,
            rs2: Reg::new(31),
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(11),
            rs1: Reg::new(1),
            offset: 64,
        },
        Instr::Store {
            op: StoreOp::Sw,
            rs2: Reg::new(11),
            rs1: Reg::new(1),
            offset: 256,
        },
    ];
    if external {
        body.push(Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(12),
            rs1: Reg::new(2),
            offset: 0,
        });
        body.push(Instr::Store {
            op: StoreOp::Sw,
            rs2: Reg::new(31),
            rs1: Reg::new(2),
            offset: 4,
        });
    }
    body.extend([
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(31),
            rs1: Reg::new(31),
            imm: -1,
        },
        Instr::Branch {
            op: BranchOp::Bne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            offset: if external { -24 } else { -16 },
        },
        Instr::Wfi,
    ]);
    Program::new(body)
}

/// A bare cluster with `program` loaded.
fn bare(program: &Program) -> Cluster {
    let mut cluster = Cluster::new(quantum_config(), SimParams::default());
    cluster.load_program(program.clone());
    cluster.preload_icaches();
    cluster
}

#[test]
fn quantum_engine_matches_the_step_loop_bit_exactly() {
    for external in [false, true] {
        let program = quantum_traffic(40, external);
        let mut run = bare(&program);
        let cycles = drive(&mut run, Drive::Run, 1_000_000).expect("run completes");
        let mut stepped = bare(&program);
        let stepped_cycles = drive(&mut stepped, Drive::Step, 1_000_000).expect("steps complete");
        assert_eq!(cycles, stepped_cycles, "external {external}");
        assert_eq!(run.stats(), stepped.stats(), "external {external}");
    }
}

#[test]
fn quantum_timeout_lands_on_the_exact_cycle_and_resumes_bit_exactly() {
    let program = quantum_traffic(80, true);
    let mut done = bare(&program);
    let final_cycles = done.run(1_000_000).expect("completes");
    let final_digest = done.stats().digest();
    // Budgets chosen to land inside a quantum, not on its boundary.
    for budget in [1, 777] {
        let mut stepped = bare(&program);
        let step_err = drive(&mut stepped, Drive::Step, budget).expect_err("budget is too small");
        let mut cluster = bare(&program);
        let err = cluster.run(budget).expect_err("budget is too small");
        assert_eq!(err, SimError::Timeout { cycles: budget });
        assert_eq!(err, step_err);
        assert_eq!(
            cluster.stats().digest(),
            stepped.stats().digest(),
            "mid-run state at the deadline must not depend on the quanta"
        );
        // Finishing from the timed-out state stays bit-exact.
        let resumed = cluster.run(1_000_000).expect("resumes to completion");
        assert_eq!(resumed, final_cycles);
        assert_eq!(cluster.stats().digest(), final_digest);
    }
}

#[test]
fn quantum_errors_match_the_step_loop() {
    // No Wfi: every core runs off the end of the program, and the engine
    // must report the same PcOutOfRange error at the same cycle with the
    // same stats however the run is cut.
    let program = Program::new(vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(5),
            rs1: Reg::ZERO,
            imm: 7,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(6),
            rs1: Reg::ZERO,
            offset: 128,
        },
    ]);
    let mut run = bare(&program);
    let err = run.run(1_000_000).expect_err("runs off the program");
    let mut stepped = bare(&program);
    let step_err = drive(&mut stepped, Drive::Step, 1_000_000).expect_err("runs off the program");
    assert!(matches!(err, SimError::PcOutOfRange { .. }), "{err}");
    assert_eq!(err, step_err);
    assert_eq!(
        run.cycle(),
        stepped.cycle(),
        "the clock must stop on the erroring cycle"
    );
    assert_eq!(run.stats().digest(), stepped.stats().digest());
}

#[test]
fn quantum_reports_no_program_like_the_step_loop() {
    let mut run = Cluster::new(quantum_config(), SimParams::default());
    let mut stepped = Cluster::new(quantum_config(), SimParams::default());
    let err = run.run(1000).expect_err("no program loaded");
    assert_eq!(err, SimError::NoProgram);
    assert_eq!(err, stepped.step().expect_err("no program loaded"));
}

// ---------------------------------------------------------------------
// Instrumented runs: for a fully instrumented cluster (spans, metrics,
// time series, flight ring, instruction trace, watchdog) every serialized
// artifact is byte-identical whether the observation lane is replayed
// every quantum or every tick.
// ---------------------------------------------------------------------

/// One fully instrumented run on the quantum traffic program, returning
/// the serialized artifacts.
fn observe_instrumented(how: Drive, program: &Program) -> Observed {
    let obs = Obs::new();
    let mut cluster = Cluster::new(quantum_config(), SimParams::default());
    cluster.attach_obs(&obs, "instrumented");
    cluster.enable_timeseries(64);
    cluster.enable_flight(128);
    cluster.enable_trace(128);
    cluster.set_watchdog(100_000);
    assert_eq!(cluster.engine_selection().engine, "quantum");
    cluster.load_program(program.clone());
    cluster.preload_icaches();
    let cycles = drive(&mut cluster, how, 1_000_000).expect("instrumented run completes");
    let stats = cluster.stats();
    let attribution = stats.attribution(2, 4).to_json().to_pretty();
    cluster.detach_obs();
    Observed {
        cycles,
        digest: stats.digest(),
        attribution,
        timeseries: obs.series.to_json().to_pretty(),
        trace: chrome_trace_with_counters(&obs.spans, Some(&obs.series)).to_pretty(),
        flight: obs.flight.to_json().to_pretty(),
        fault_report: None,
        stats,
    }
}

#[test]
fn instrumented_quantum_runs_produce_byte_identical_artifacts() {
    for external in [false, true] {
        let program = quantum_traffic(40, external);
        let run = observe_instrumented(Drive::Run, &program);
        assert!(
            !run.flight.contains("\"events\": []"),
            "served requests must land in the flight ring"
        );
        assert!(
            run.timeseries.contains("series"),
            "epoch sampling must produce tracks"
        );
        let stepped = observe_instrumented(Drive::Step, &program);
        assert_eq!(
            run, stepped,
            "instrumented artifacts diverged when stepped (external {external})"
        );
    }
}

#[test]
fn watchdog_deadlock_on_the_quantum_engine_is_bit_identical() {
    // Core 0 issues an off-chip load whose response takes far longer than
    // the watchdog threshold, then stalls using the result: a genuine
    // forward-progress deadlock with no fault plan involved. The flight
    // recorder must trip mid-quantum with the identical watchdog event,
    // error, and stop cycle as when stepped.
    let program = Program::new(vec![
        Instr::Csrrs {
            rd: Reg::new(1),
            csr: CSR_MHARTID,
            rs1: Reg::ZERO,
        },
        Instr::Branch {
            op: BranchOp::Bne,
            rs1: Reg::new(1),
            rs2: Reg::ZERO,
            offset: 16,
        },
        Instr::Lui {
            rd: Reg::new(2),
            imm: 0x8000_0000,
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(3),
            rs1: Reg::new(2),
            offset: 0,
        },
        Instr::Op {
            op: AluOp::Add,
            rd: Reg::new(4),
            rs1: Reg::new(3),
            rs2: Reg::new(3),
        },
        Instr::Wfi,
    ]);
    let run_once = |how: Drive| -> (SimError, u64, String) {
        let obs = Obs::new();
        let slow_offchip = SimParams {
            offchip_latency: 10_000,
            ..SimParams::default()
        };
        let mut cluster = Cluster::new(quantum_config(), slow_offchip);
        cluster.attach_obs(&obs, "deadlock");
        cluster.enable_timeseries(64);
        cluster.enable_flight(64);
        cluster.enable_trace(64);
        cluster.set_watchdog(100);
        assert_eq!(cluster.engine_selection().engine, "quantum");
        cluster.load_program(program.clone());
        cluster.preload_icaches();
        let err = drive(&mut cluster, how, 100_000).expect_err("the watchdog must fire");
        let cycle = cluster.cycle();
        cluster.detach_obs();
        (err, cycle, obs.flight.to_json().to_pretty())
    };
    let (err, cycle, flight) = run_once(Drive::Run);
    assert!(
        matches!(err, SimError::Deadlock { .. }),
        "expected a deadlock, got {err}"
    );
    assert!(
        flight.contains("watchdog"),
        "the flight ring must carry the watchdog event: {flight}"
    );
    let (step_err, step_cycle, step_flight) = run_once(Drive::Step);
    assert_eq!(err, step_err, "deadlock diverged when stepped");
    assert_eq!(cycle, step_cycle, "stop cycle diverged when stepped");
    assert_eq!(flight, step_flight, "flight ring diverged when stepped");
}

// ---------------------------------------------------------------------
// Stored reference values. The per-tick step kernel these were recorded
// on (commit 0af2bcc, the last one that had it) is deleted; it stays on
// as the numbers below, which the engine must still reproduce.
// ---------------------------------------------------------------------

/// A zoo-geometry cluster with default parameters.
fn zoo_cluster() -> Cluster {
    Cluster::new(zoo_config(), SimParams::default())
}

fn one_line(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Every core outside tile 1 reads one word of tile 1 a dozen times, so
/// each reader is remote; run under bit flips on that word (plus one on a
/// word nobody reads, which stays latent) and optionally a dead link.
fn remote_readers(flips: &[(u64, u32)], dead: bool) -> (Cluster, Result<u64, SimError>) {
    let mut cluster = zoo_cluster();
    let word = cluster.storage().map().seq_addr(TileId(1), 0);
    let unread = cluster.storage().map().seq_addr(TileId(2), 1);
    let loc_of = |addr| match cluster.storage().map().locate(addr) {
        MemoryRegion::Spm(loc) => loc,
        other => panic!("{addr:#x} is not SPM: {other:?}"),
    };
    let mut plan = FaultPlan::new(9);
    for &(cycle, mask) in flips {
        plan.push(FaultEvent::TransientFlip {
            cycle,
            loc: loc_of(word),
            mask,
        });
    }
    plan.push(FaultEvent::TransientFlip {
        cycle: 25,
        loc: loc_of(unread),
        mask: 2,
    });
    if dead {
        plan.push(FaultEvent::LinkDead { tile: TileId(1) });
    }
    cluster.write_spm_word(word, 0x1234).unwrap();
    cluster.inject_faults(&plan).unwrap();
    cluster.load_program(
        Program::assemble(&format!(
            r#"
                csrr t1, mhartid
                srli t2, t1, 2
                li   t3, 1
                beq  t2, t3, done
                li   t0, {word}
                li   t4, 12
            loop:
                lw   a0, 0(t0)
                add  a1, a1, a0
                addi t4, t4, -1
                bnez t4, loop
                slli t5, t1, 2
                sw   a1, 64(t5)
            done:
                wfi
            "#
        ))
        .unwrap(),
    );
    cluster.preload_icaches();
    let result = cluster.run(100_000);
    (cluster, result)
}

/// `(scenario, final cycle, stats digest, SPM word touches, fault report)`
/// of runs that complete.
const PINNED_RUNS: [(&str, u64, u64, u64, &str); 9] = [
    ("axpy", 552, 0x69965ad63d5d27c7, 9216, ""),
    ("dotprod", 581, 0x9b9ebb5975fd6c27, 6179, ""),
    ("matmul", 9004, 0xc8a3e2b21cb7d6d9, 59392, ""),
    ("transpose", 1753, 0x3625892ff818ab4b, 32768, ""),
    ("seed42", 31413, 0xaa8d5c36b147d302, 59473, "{ \"seed\": 42, \"injected\": { \"links_degraded\": 2, \"links_dead\": 0, \"stuck_banks\": 4, \"transient_flips\": 52, \"core_hangs\": 0, \"total\": 58 }, \"remapped_banks\": [ { \"tile\": 0, \"from_bank\": 4, \"to_bank\": 16 }, { \"tile\": 1, \"from_bank\": 9, \"to_bank\": 16 }, { \"tile\": 2, \"from_bank\": 6, \"to_bank\": 16 }, { \"tile\": 3, \"from_bank\": 1, \"to_bank\": 16 } ], \"retried_accesses\": 25600, \"retry_cycles\": 371200, \"ecc_corrected\": 3, \"ecc_pending\": 36, \"blackholed_requests\": 0 }"),
    ("traffic", 1610, 0x1ab60ab8bb42639a, 6400, ""),
    ("traffic_external", 79369, 0x2bc06391d2a0b25c, 6400, ""),
    ("stuck_banks", 1753, 0x3625892ff818ab4b, 32768, "{ \"seed\": 7, \"injected\": { \"links_degraded\": 0, \"links_dead\": 0, \"stuck_banks\": 2, \"transient_flips\": 0, \"core_hangs\": 0, \"total\": 2 }, \"remapped_banks\": [ { \"tile\": 1, \"from_bank\": 3, \"to_bank\": 16 }, { \"tile\": 2, \"from_bank\": 0, \"to_bank\": 16 } ], \"retried_accesses\": 0, \"retry_cycles\": 0, \"ecc_corrected\": 0, \"ecc_pending\": 0, \"blackholed_requests\": 0 }"),
    ("ecc_flips", 159, 0xf7209770f545ce60, 178, "{ \"seed\": 9, \"injected\": { \"links_degraded\": 0, \"links_dead\": 0, \"stuck_banks\": 0, \"transient_flips\": 3, \"core_hangs\": 0, \"total\": 3 }, \"remapped_banks\": [], \"retried_accesses\": 0, \"retry_cycles\": 0, \"ecc_corrected\": 2, \"ecc_pending\": 1, \"blackholed_requests\": 0 }"),
];

/// `(scenario, cycle the clock stopped on, error text)` of runs that fail.
/// State *after* `ecc_uncorrectable` is not pinned: the step kernel
/// abandoned the tick mid-sweep, the engine finishes it on the other
/// tiles (DESIGN.md § "Execution engine").
const PINNED_ERRORS: [(&str, u64, &str); 3] = [
    ("watchdog_deadlock", 67, "deadlock: no forward progress for 64 cycles core 0: waiting-on-memory pc=0x00000010 outstanding=1 retired=4 core 1: halted pc=0x00000014 outstanding=0 retired=3 core 2: halted pc=0x00000014 outstanding=0 retired=3 core 3: halted pc=0x00000014 outstanding=0 retired=3 core 4: halted pc=0x00000014 outstanding=0 retired=3 core 5: halted pc=0x00000014 outstanding=0 retired=3 core 6: halted pc=0x00000014 outstanding=0 retired=3 core 7: halted pc=0x00000014 outstanding=0 retired=3 core 8: halted pc=0x00000014 outstanding=0 retired=3 core 9: halted pc=0x00000014 outstanding=0 retired=3 core 10: halted pc=0x00000014 outstanding=0 retired=3 core 11: halted pc=0x00000014 outstanding=0 retired=3 core 12: halted pc=0x00000014 outstanding=0 retired=3 core 13: halted pc=0x00000014 outstanding=0 retired=3 core 14: halted pc=0x00000014 outstanding=0 retired=3 core 15: halted pc=0x00000014 outstanding=0 retired=3"),
    ("ecc_uncorrectable", 8, "uncorrectable multi-bit error at T1:b0[0] (mask 0x00100200)"),
    ("link_dead", 6, "access through dead F2F link of tile T1"),
];

/// Runs the named `PINNED_RUNS` scenario to completion.
fn pinned_run(name: &str) -> Cluster {
    let zoo_run = |kernel: &dyn Kernel, plan: Option<FaultPlan>| {
        let mut cluster = zoo_cluster();
        if let Some(plan) = plan {
            cluster.inject_faults(&plan).unwrap();
            cluster.set_watchdog(2_000_000);
        }
        kernel.run(&mut cluster, 10_000_000).unwrap();
        cluster
    };
    let traffic = |external| {
        let mut cluster = bare(&quantum_traffic(40, external));
        cluster.run(1_000_000).unwrap();
        cluster
    };
    match name {
        "axpy" => zoo_run(&Axpy::new(1024, 3), None),
        "dotprod" => zoo_run(&DotProduct::new(1024), None),
        "matmul" => zoo_run(&ComputePhase::new(32), None),
        "transpose" => zoo_run(&Transpose::new(64), None),
        "seed42" => {
            let fault_cfg = FaultConfig::new(FAULT_SEED, 1e-4).with_horizon(50_000);
            let plan = FaultPlan::generate(&fault_cfg, &zoo_config());
            zoo_run(&ComputePhase::new(32), Some(plan))
        }
        "traffic" => traffic(false),
        "traffic_external" => traffic(true),
        "stuck_banks" => {
            let mut plan = FaultPlan::new(7);
            for (tile, bank) in [(1, 3), (2, 0)] {
                plan.push(FaultEvent::StuckBank {
                    tile: TileId(tile),
                    bank: BankId(bank),
                });
            }
            zoo_run(&Transpose::new(64), Some(plan))
        }
        "ecc_flips" => {
            let (cluster, result) = remote_readers(&[(0, 1 << 9), (40, 1 << 3)], false);
            result.unwrap();
            cluster
        }
        other => panic!("unknown pinned run {other}"),
    }
}

#[test]
fn stored_step_kernel_results_are_reproduced() {
    for (name, cycle, digest, touches, report) in PINNED_RUNS {
        let cluster = pinned_run(name);
        let got_report = cluster
            .fault_report()
            .map(|r| one_line(&r.to_json().to_pretty()))
            .unwrap_or_default();
        assert_eq!(
            (
                cluster.cycle(),
                cluster.stats().digest(),
                cluster.storage().spm_word_touches(),
                got_report.as_str(),
            ),
            (cycle, digest, touches, report),
            "{name}"
        );
    }
    for (name, cycle, message) in PINNED_ERRORS {
        let (err, stopped_at) = match name {
            "watchdog_deadlock" => deadlock_on_a_black_holed_load(),
            "ecc_uncorrectable" => {
                let (cluster, result) = remote_readers(&[(0, 1 << 9), (0, 1 << 20)], false);
                (result.unwrap_err(), cluster.cycle())
            }
            "link_dead" => {
                let (cluster, result) = remote_readers(&[], true);
                (result.unwrap_err(), cluster.cycle())
            }
            other => panic!("unknown pinned error {other}"),
        };
        assert_eq!(
            (stopped_at, one_line(&err.to_string()).as_str()),
            (cycle, message),
            "{name}"
        );
    }
}

#[test]
fn an_unbounded_budget_on_a_resumed_cluster_does_not_overflow() {
    // The step loop computed `cycle + max_cycles` unchecked: past cycle 0
    // `run(u64::MAX)` panicked in debug builds and timed out at once in
    // release builds.
    let mut cluster = bare(&quantum_traffic(4, false));
    let first = cluster.run(u64::MAX).expect("first phase completes");
    assert!(first > 0);
    cluster.resume_all(0).unwrap();
    let second = cluster.run(u64::MAX).expect("resumed phase completes");
    assert!(second > first);
}
