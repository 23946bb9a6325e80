//! Checkpoint/restore bit-exactness over the whole simulator surface.
//!
//! The contract under test (see `mempool_sim::ckpt`): snapshotting a run
//! at *any* cycle and restoring it must be invisible — the resumed run
//! finishes at the same cycle with a [`ClusterStats::digest`]-equal
//! state as the unbroken run, including mid-quantum, mid-fault-plan and
//! with the off-chip port booked past the clock.
//!
//! [`ClusterStats::digest`]: mempool_3d::mempool_sim::ClusterStats::digest

use proptest::prelude::*;

use mempool_3d::mempool_arch::ClusterConfig;
use mempool_3d::mempool_isa::instr::{AluOp, AmoOp, BranchOp, Instr, LoadOp, StoreOp};
use mempool_3d::mempool_isa::{Program, Reg};
use mempool_3d::mempool_kernels::matmul::ComputePhase;
use mempool_3d::mempool_kernels::Kernel;
use mempool_3d::mempool_sim::{Cluster, SimError, SimParams};
use mempool_fault::{FaultConfig, FaultPlan};

/// Cycle budget generous enough for every workload here.
const BUDGET: u64 = 10_000_000;

fn small_config() -> ClusterConfig {
    ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(4)
        .cores_per_tile(4)
        .banks_per_tile(4)
        .bank_words(64)
        .build()
        .expect("valid config")
}

/// A multi-core program with enough memory traffic (loads, stores, AMOs,
/// a counted loop) to keep transactions in flight for hundreds of cycles.
fn traffic_program(trips: u32) -> Program {
    Program::new(vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(31),
            rs1: Reg::ZERO,
            imm: trips as i32,
        },
        // Loop body: hammer a shared word plus a private one.
        Instr::Amo {
            op: AmoOp::Add,
            rd: Reg::new(10),
            rs1: Reg::ZERO,
            rs2: Reg::new(31),
        },
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(11),
            rs1: Reg::ZERO,
            offset: 16,
        },
        Instr::Store {
            op: StoreOp::Sw,
            rs2: Reg::new(11),
            rs1: Reg::ZERO,
            offset: 32,
        },
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
            offset: -16,
        },
        Instr::Wfi,
    ])
}

fn fresh(trips: u32) -> Cluster {
    let mut cluster = Cluster::new(small_config(), SimParams::default());
    cluster.load_program(traffic_program(trips));
    cluster.preload_icaches();
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_at_an_arbitrary_cycle_is_invisible(
        trips in 2u32..40,
        snap in 1u64..400,
    ) {
        let mut unbroken = fresh(trips);
        let end = unbroken.run(BUDGET).expect("unbroken run finishes");

        let mut broken = fresh(trips);
        match broken.run(snap) {
            Ok(_) | Err(SimError::Timeout { .. }) => {}
            Err(e) => panic!("unexpected sim error: {e}"),
        }
        // Round trip through the *textual* format: the snapshot written
        // to disk, not just the in-memory document, must be total.
        let doc = mempool_obs::Json::parse(&broken.checkpoint().to_pretty())
            .expect("checkpoint text parses");
        let mut resumed = Cluster::restore(&doc).expect("restore");
        if !resumed.quiescent() {
            resumed.run(BUDGET).expect("resumed run finishes");
        }
        prop_assert_eq!(resumed.cycle(), end, "same final cycle");
        prop_assert_eq!(
            resumed.stats().digest(),
            unbroken.stats().digest(),
            "bit-identical stats"
        );
    }

    /// A deadline in the middle of a run must stop the cluster on the
    /// exact cycle with committed state: snapshotting there and resuming
    /// in one-tick steps up to a second cut stays bit-exact, with
    /// cross-tile requests and contended AMOs in flight at the boundary.
    #[test]
    fn mid_quantum_snapshot_resumes_bit_exact(
        trips in 8u32..40,
        snap in 1u64..900,
        steps in 1u64..200,
    ) {
        let mut unbroken = fresh(trips);
        let end = unbroken.run(BUDGET).expect("unbroken run finishes");

        let mut broken = fresh(trips);
        match broken.run(snap) {
            Ok(_) | Err(SimError::Timeout { .. }) => {}
            Err(e) => panic!("unexpected sim error: {e}"),
        }
        let doc = mempool_obs::Json::parse(&broken.checkpoint().to_pretty())
            .expect("checkpoint text parses");
        let mut resumed = Cluster::restore(&doc).expect("restore");
        for _ in 0..steps {
            if resumed.quiescent() {
                break;
            }
            resumed.step().expect("a step of a healthy run succeeds");
        }
        let mut resumed = Cluster::restore(&resumed.checkpoint()).expect("restore");
        if !resumed.quiescent() {
            resumed.run(BUDGET).expect("resumed run finishes");
        }
        prop_assert_eq!(resumed.cycle(), end, "same final cycle");
        prop_assert_eq!(resumed.stats().digest(), unbroken.stats().digest());
    }
}

/// Builds the resilience workload cluster with a fault plan injected and
/// the prologue run — the state a degraded experiment is in at cycle 0.
fn degraded_cluster(seed: u64) -> (Cluster, ComputePhase) {
    let cfg = ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(4)
        .cores_per_tile(4)
        .banks_per_tile(16)
        .bank_words(512)
        .build()
        .expect("valid config");
    let mut cluster = Cluster::new(cfg, SimParams::default());
    let phase = ComputePhase::new(16);
    let fault_cfg = FaultConfig::new(seed, 1e-6).with_horizon(40_000);
    let plan = FaultPlan::generate(&fault_cfg, cluster.config());
    cluster.inject_faults(&plan).expect("plan injects");
    cluster.set_watchdog(2_000_000);
    let program = phase.program(&cluster).expect("codegen");
    phase.setup(&mut cluster).expect("setup");
    cluster.load_program(program);
    cluster.preload_icaches();
    (cluster, phase)
}

#[test]
fn mid_fault_plan_resume_is_bit_exact() {
    let (mut unbroken, phase) = degraded_cluster(42);
    let end = unbroken.run(BUDGET).expect("unbroken run finishes");
    phase.verify(&unbroken).expect("results stay correct");
    let report = unbroken.fault_report().expect("plan injected");

    // Snapshot mid-run — transient timed faults still pending, retries
    // and ECC state in flight — and finish from the restored state.
    let (mut broken, _) = degraded_cluster(42);
    match broken.run(end / 2) {
        Err(SimError::Timeout { .. }) => {}
        other => panic!("expected a mid-run timeout, got {other:?}"),
    }
    let mut resumed = Cluster::restore(&broken.checkpoint()).expect("restore");
    assert_eq!(resumed.run(BUDGET).expect("resumed run finishes"), end);
    phase.verify(&resumed).expect("results stay correct");
    assert_eq!(resumed.stats().digest(), unbroken.stats().digest());
    assert_eq!(
        resumed.fault_report().expect("restored controller reports"),
        report,
        "retry/correction/remap accounting survives the snapshot"
    );
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
