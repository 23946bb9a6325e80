//! One cycle loop, however a run is cut: `run(k)` slices, `step()` calls
//! and checkpoint/restore cuts must not show. The property
//! `every_cut_of_a_run_is_invisible` draws a shape and a schedule of cuts
//! and checks that the run driven through them equals one uninterrupted
//! `run()` in every observable way (`Observed`, in `cuts`); named scenarios
//! are fixed inputs of the same comparison, as are the checkpoint and ring
//! tests below. The `PINNED_*` tables further down hold what the deleted
//! per-tick step kernel produced for the same scenarios.

mod cuts;

use proptest::prelude::*;

use cuts::*;
use mempool_arch::{BankId, ClusterConfig, MemoryRegion, TileId};
use mempool_fault::{FaultConfig, FaultEvent, FaultPlan};
use mempool_isa::Program;
use mempool_kernels::axpy::Axpy;
use mempool_kernels::dotprod::DotProduct;
use mempool_kernels::matmul::ComputePhase;
use mempool_kernels::transpose::Transpose;
use mempool_kernels::Kernel;
use mempool_obs::Json;
use mempool_sim::{Cluster, SimError, SimParams};

/// Generated cases of the property; a debug build simulates ~30x slower.
const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 128 };

fn shapes() -> impl Strategy<Value = Shape> {
    prop_oneof![
        4 => (0usize..4, any::<bool>(), any::<u64>()).prop_map(|(kernel, faulty, seed)| {
            Shape::Zoo { kernel, faults: faulty.then_some(seed) }
        }),
        2 => (1u32..81, any::<bool>()).prop_map(|(trips, external)| Shape::Traffic {
            trips,
            external
        }),
        1 => Just(Shape::RunsOffItsEnd),
        2 => Just(Shape::Waiter),
    ]
}

/// Cuts as thousandths of the reference's length (some past its end),
/// each with its kind.
fn schedules() -> impl Strategy<Value = Vec<(u64, Cut)>> {
    let kind = prop_oneof![Just(Cut::Slice), Just(Cut::Steps), Just(Cut::Restore)];
    prop::collection::vec((0u64..1100, kind), 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn every_cut_of_a_run_is_invisible(shape in shapes(), schedule in schedules()) {
        let expected = reference(shape, traced(&schedule));
        let mut cuts: Vec<(u64, Cut)> = schedule
            .iter()
            .map(|&(permille, cut)| (expected.stats.cycles * permille / 1000, cut))
            .collect();
        cuts.sort_by_key(|&(at, _)| at);
        check_cuts(shape, &cuts, &expected)?;
    }
}

// Named scenarios: fixed inputs of the same comparison.

#[test]
fn every_zoo_kernel_stepped_to_the_end_equals_its_run() {
    for kernel in 0..4 {
        let shape = Shape::Zoo {
            kernel,
            faults: None,
        };
        fixed_cuts(shape, &[&[(BUDGET, Cut::Steps)]]);
    }
}

#[test]
fn seed42_fault_injected_run_stepped_to_the_end_equals_its_run() {
    let shape = Shape::Zoo {
        kernel: 2,
        faults: Some(FAULT_SEED),
    };
    let run = fixed_cuts(shape, &[&[(BUDGET, Cut::Steps)]]);
    assert!(run.end.is_ok(), "{:?}", run.end);
    assert!(run.fault_report.unwrap().contains("\"injected\""));
}

#[test]
fn fault_plans_and_spare_remaps_run_sharded() {
    // The seed-42 plan degrades links, remaps stuck banks onto spares and
    // lands bit flips mid-run, so the slices cut across them.
    let shape = Shape::Zoo {
        kernel: 2,
        faults: Some(FAULT_SEED),
    };
    let slices = [(999, Cut::Slice), (1000, Cut::Steps), (17_003, Cut::Slice)];
    let run = fixed_cuts(shape, &[&slices]);
    let report = run.fault_report.unwrap();
    assert!(!report.contains("\"remapped_banks\": []"), "{report}");
    assert!(!report.contains("\"ecc_corrected\": 0,"), "{report}");
}

#[test]
fn traffic_loops_stepped_to_the_end_equal_their_run() {
    // Off-chip accesses stretch each trip ~50-fold.
    for (trips, external) in [(40, false), (10, true)] {
        let shape = Shape::Traffic { trips, external };
        fixed_cuts(shape, &[&[(BUDGET, Cut::Steps)]]);
    }
}

#[test]
fn budgets_ending_mid_run_land_on_their_cycle_and_resume_alike() {
    // Budgets that end the call mid-run: after the first tick, and at an
    // odd cycle with traffic in flight.
    let shape = Shape::Traffic {
        trips: 10,
        external: true,
    };
    let (slice_first, step_first) = (
        [(1, Cut::Slice), (778, Cut::Steps)],
        [(1, Cut::Steps), (778, Cut::Slice)],
    );
    fixed_cuts(shape, &[&slice_first, &step_first]);
}

#[test]
fn running_off_the_program_errors_alike_however_cut() {
    let schedules: [&[(u64, Cut)]; 3] = [
        &[(BUDGET, Cut::Steps)],
        &[(BUDGET, Cut::Slice)],
        &[(2, Cut::Slice), (3, Cut::Steps)],
    ];
    let run = fixed_cuts(Shape::RunsOffItsEnd, &schedules);
    assert!(matches!(run.end, Err(SimError::PcOutOfRange { .. })));
}

#[test]
fn no_program_errors_alike_however_cut() {
    let schedules: [&[(u64, Cut)]; 2] = [&[(BUDGET, Cut::Steps)], &[(BUDGET, Cut::Slice)]];
    let run = fixed_cuts(Shape::NoProgram, &schedules);
    assert_eq!(run.end, Err(SimError::NoProgram));
}

#[test]
fn instrumented_traffic_loops_give_identical_artifacts_however_cut() {
    for (trips, external) in [(40, false), (10, true)] {
        let shape = Shape::Traffic { trips, external };
        let cuts = [(500, Cut::Slice), (640, Cut::Steps), (1201, Cut::Slice)];
        let run = fixed_cuts(shape, &[&cuts]);
        assert!(run.flight.0 > 0, "served requests land in the flight ring");
        assert!(!run.series.is_empty(), "epoch sampling produces tracks");
        assert!(run.traces.is_some(), "the instruction trace is compared");
    }
}

#[test]
fn a_watchdog_deadlock_trips_on_the_same_cycle_however_cut() {
    // Core 0's off-chip response takes far longer than the watchdog's
    // window: the watchdog trips mid-call on the same cycle, with the same
    // flight event, however the run is cut.
    let schedules: [&[(u64, Cut)]; 2] = [
        &[(BUDGET, Cut::Steps)],
        &[(50, Cut::Slice), (90, Cut::Steps), (BUDGET, Cut::Slice)],
    ];
    let run = fixed_cuts(Shape::Waiter, &schedules);
    assert!(matches!(run.end, Err(SimError::Deadlock { .. })));
    assert!(run.flight.1.iter().any(|e| e.1 == "watchdog"));
}

#[test]
fn every_event_due_on_one_cycle_agrees_across_run_step_and_cuts() {
    // Every event a tick can end on, due on one cycle `c`: `run()`,
    // `step()` and restore cuts at `c - 1`, `c` and `c + 1`.
    let (c, last_retire) = response_cycle();
    assert!(c > last_retire + 100, "the response comes last");
    let one_cycle = Shape::OneCycle {
        cycle: c,
        last_retire,
    };
    fixed_cuts(one_cycle, &[&[(BUDGET, Cut::Steps)]]);
    let restores = [c - 1, c, c + 1].map(|at| [(at, Cut::Restore)]);
    let run = fixed_cuts(one_cycle, &restores.each_ref().map(|r| &r[..]));
    // The response lands on `c` and counts as progress there, so the
    // watchdog stays quiet. Core 0's off-chip store issues on the next tick
    // and takes the load's round trip (`c - last_retire`); the run ends on
    // the tick after its response lands.
    let end = c + 1 + (c - last_retire) + 1;
    assert_eq!(run.end, Ok(end));
    assert_eq!(run.stats.cycles, end);
    assert!(run.fault_report.unwrap().contains("\"ecc_pending\": 1"));
    assert!(run.series.values().all(|s| s[0].0 == c));
    let flip = |e: &Event| e.0 == c && e.3.contains("transient flip");
    assert!(run.flight.1.iter().any(flip));
}

// Checkpoint/restore cuts: snapshotting a run at any cycle, through the
// textual format, and resuming from the restored state must not show.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_at_an_arbitrary_cycle_is_invisible(trips in 2u32..40, snap in 1u64..400) {
        let shape = Shape::Traffic { trips, external: false };
        check_cuts(shape, &[(snap, Cut::Restore)], &reference(shape, false))?;
    }

    /// A restored run stepped up to a second cut and restored again,
    /// with cross-tile requests and contended AMOs in flight at both.
    #[test]
    fn a_restored_run_stepped_and_restored_again_is_invisible(
        trips in 8u32..40,
        snap in 1u64..900,
        steps in 1u64..200,
    ) {
        let shape = Shape::Traffic { trips, external: false };
        let cuts = [
            (snap, Cut::Restore),
            (snap + steps, Cut::Steps),
            (snap + steps, Cut::Restore),
        ];
        check_cuts(shape, &cuts, &reference(shape, false))?;
    }
}

#[test]
fn mid_fault_plan_resume_is_bit_exact() {
    // Halfway through, timed flips are still pending and retries and ECC
    // state are in flight; the fault report and the kernel's results must
    // survive the snapshot.
    let shape = Shape::Zoo {
        kernel: 2,
        faults: Some(FAULT_SEED),
    };
    let expected = reference(shape, false);
    assert!(expected.end.is_ok(), "{:?}", expected.end);
    let half = expected.stats.cycles / 2;
    check_cuts(shape, &[(half, Cut::Restore)], &expected).unwrap();
}

#[test]
fn lanes_are_ring_bounded() {
    // The recorders an instrumented run feeds are rings: 32 cores retire
    // and banks serve on most ticks of a run that records far more than
    // the rings keep; however it is cut, the flight recorder and the
    // instruction trace keep their newest entries and count the rest as
    // dropped.
    let shape = Shape::Traffic {
        trips: 80,
        external: false,
    };
    let cuts = [(700, Cut::Slice), (900, Cut::Steps)];
    let run = fixed_cuts(shape, &[&cuts]);
    let (recorded, newest) = &run.flight;
    assert!(*recorded > FLIGHT as u64, "the flight ring overflows");
    assert_eq!(newest.len(), FLIGHT);
    let (_, instructions) = run.traces.expect("the run is traced");
    assert!(instructions.starts_with("... "), "the trace overflows");
    assert_eq!(instructions.lines().count(), 1 + TRACE);
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

/// Core 0 waits on a load from another tile with a watchdog window
/// shorter than the load's round trip; returns the watchdog's error and
/// the cycle it fired on.
fn deadlock_on_a_remote_load() -> (SimError, u64) {
    let mut cluster = Cluster::new(zoo_config(), SimParams::default());
    let remote = cluster.storage().map().seq_addr(TileId(1), 0);
    cluster.set_watchdog(2);
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

/// Every core outside tile 1 reads one word of tile 1 a dozen times, so
/// each reader is remote; run under bit flips on that word (plus one on a
/// word nobody reads, which stays latent).
fn remote_readers(flips: &[(u64, u32)]) -> (Cluster, Result<u64, SimError>) {
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
    ("seed42", 31413, 0xaa8d5c36b147d302, 59473, "{ \"seed\": 42, \"injected\": { \"links_degraded\": 2, \"stuck_banks\": 4, \"transient_flips\": 52, \"total\": 58 }, \"remapped_banks\": [ { \"tile\": 0, \"from_bank\": 4, \"to_bank\": 16 }, { \"tile\": 1, \"from_bank\": 9, \"to_bank\": 16 }, { \"tile\": 2, \"from_bank\": 6, \"to_bank\": 16 }, { \"tile\": 3, \"from_bank\": 1, \"to_bank\": 16 } ], \"retried_accesses\": 25600, \"retry_cycles\": 371200, \"ecc_corrected\": 3, \"ecc_pending\": 36 }"),
    ("traffic", 1610, 0x1ab60ab8bb42639a, 6400, ""),
    ("traffic_external", 79369, 0x2bc06391d2a0b25c, 6400, ""),
    ("stuck_banks", 1753, 0x3625892ff818ab4b, 32768, "{ \"seed\": 7, \"injected\": { \"links_degraded\": 0, \"stuck_banks\": 2, \"transient_flips\": 0, \"total\": 2 }, \"remapped_banks\": [ { \"tile\": 1, \"from_bank\": 3, \"to_bank\": 16 }, { \"tile\": 2, \"from_bank\": 0, \"to_bank\": 16 } ], \"retried_accesses\": 0, \"retry_cycles\": 0, \"ecc_corrected\": 0, \"ecc_pending\": 0 }"),
    ("ecc_flips", 159, 0xf7209770f545ce60, 178, "{ \"seed\": 9, \"injected\": { \"links_degraded\": 0, \"stuck_banks\": 0, \"transient_flips\": 3, \"total\": 3 }, \"remapped_banks\": [], \"retried_accesses\": 0, \"retry_cycles\": 0, \"ecc_corrected\": 2, \"ecc_pending\": 1 }"),
];

/// `(scenario, cycle the clock stopped on, error text)` of runs that fail.
/// State *after* `ecc_uncorrectable` is not pinned: the step kernel
/// abandoned the tick mid-sweep, the engine finishes it on the other
/// tiles (DESIGN.md § "Execution engine").
const PINNED_ERRORS: [(&str, u64, &str); 2] = [
    ("watchdog_deadlock", 6, "deadlock: no forward progress for 2 cycles core 0: waiting-on-memory pc=0x00000010 outstanding=1 retired=4 core 1: halted pc=0x00000014 outstanding=0 retired=3 core 2: halted pc=0x00000014 outstanding=0 retired=3 core 3: halted pc=0x00000014 outstanding=0 retired=3 core 4: halted pc=0x00000014 outstanding=0 retired=3 core 5: halted pc=0x00000014 outstanding=0 retired=3 core 6: halted pc=0x00000014 outstanding=0 retired=3 core 7: halted pc=0x00000014 outstanding=0 retired=3 core 8: halted pc=0x00000014 outstanding=0 retired=3 core 9: halted pc=0x00000014 outstanding=0 retired=3 core 10: halted pc=0x00000014 outstanding=0 retired=3 core 11: halted pc=0x00000014 outstanding=0 retired=3 core 12: halted pc=0x00000014 outstanding=0 retired=3 core 13: halted pc=0x00000014 outstanding=0 retired=3 core 14: halted pc=0x00000014 outstanding=0 retired=3 core 15: halted pc=0x00000014 outstanding=0 retired=3"),
    ("ecc_uncorrectable", 9, "uncorrectable multi-bit error at T1:b0[0] (mask 0x00100200)"),
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
        let mut cluster = loaded(None, traffic(40, external));
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
            let (cluster, result) = remote_readers(&[(0, 1 << 9), (40, 1 << 3)]);
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
            "watchdog_deadlock" => deadlock_on_a_remote_load(),
            "ecc_uncorrectable" => {
                let (cluster, result) = remote_readers(&[(0, 1 << 9), (0, 1 << 20)]);
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
    let mut cluster = loaded(None, traffic(4, false));
    let first = cluster.run(u64::MAX).expect("first phase completes");
    assert!(first > 0);
    cluster.resume_all(0).unwrap();
    let second = cluster.run(u64::MAX).expect("resumed phase completes");
    assert!(second > first);
}

// The off-chip port booked past the clock, read from the checkpoint itself,
// which no comparison above looks into.

fn small_config() -> ClusterConfig {
    geometry(4, 4, 4, 64)
}

/// Every core loops on loads from external memory, so each load books
/// the one off-chip port behind the others' and the port stays busy past
/// the clock for most of the run.
fn offchip_loader() -> Program {
    Program::assemble(
        r#"
            li   t0, 0x80000000
            li   t1, 6
        loop:
            lw   a0, 0(t0)
            add  a1, a1, a0
            addi t1, t1, -1
            bnez t1, loop
            wfi
        "#,
    )
    .expect("assembles")
}

/// The off-chip port's `busy_until` as a checkpoint records it: the first
/// 16-digit hex word of its `offchip` section.
fn checkpointed_busy_until(doc: &mempool_obs::Json) -> u64 {
    let section = doc.str_field("offchip").expect("offchip section");
    u64::from_str_radix(&section[..16], 16).expect("hex word")
}

#[test]
fn mid_dma_snapshot_preserves_the_offchip_port_state() {
    let start = || {
        let mut cluster = Cluster::new(small_config(), SimParams::default());
        cluster.storage_mut().write_external_word(0, 3);
        cluster.load_program(offchip_loader());
        cluster.preload_icaches();
        cluster
    };
    let mut unbroken = start();
    let end = unbroken.run(BUDGET).expect("unbroken run finishes");
    for cut in [40, 300, 1000, 2000] {
        let mut broken = start();
        match broken.run(cut) {
            Err(SimError::Timeout { .. }) => {}
            other => panic!("expected a timeout at cycle {cut}, got {other:?}"),
        }
        let doc = broken.checkpoint();
        let busy_until = checkpointed_busy_until(&doc);
        assert!(
            busy_until > broken.cycle(),
            "cut {cut}: the port must still be booked (busy until {busy_until})"
        );
        let mut resumed = Cluster::restore(&doc).expect("restore");
        assert_eq!(resumed.run(BUDGET).expect("resumed run finishes"), end);
        assert_eq!(
            resumed.stats().digest(),
            unbroken.stats().digest(),
            "cut {cut}: a busy off-chip port survives restore"
        );
    }
}
