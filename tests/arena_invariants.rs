//! Arena/slab invariants of the engine's hot path.
//!
//! The engine's lane and live-bank sets live in a preallocated arena owned
//! by the cluster (`Cluster::engine_arena_footprint` sums their reserved
//! capacities). These tests pin the properties that keep the hot path
//! allocation-free in steady state and small:
//!
//! * buffers are *reused* across ticks and quanta — the arena footprint
//!   stops growing once a homogeneous workload has warmed it up;
//! * capacity never shrinks mid-run (slots are recycled, not freed);
//! * the observation lane holds no more than the rings it feeds can
//!   keep;
//! * the live-bank sets are sized by the geometry, once.

use mempool_arch::ClusterConfig;
use mempool_isa::instr::{AluOp, AmoOp, BranchOp, Instr, LoadOp, StoreOp};
use mempool_isa::{Program, Reg};
use mempool_obs::Obs;
use mempool_sim::{Cluster, SimError, SimParams};

/// A steady cross-tile traffic loop: every core hammers a shared word
/// (AMO), a load, and a store, `trips` times, then halts.
fn traffic_program(trips: u32) -> Program {
    Program::new(vec![
        Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::new(31),
            rs1: Reg::ZERO,
            imm: trips as i32,
        },
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

fn bare_cluster(trips: u32) -> Cluster {
    let cfg = ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(4)
        .cores_per_tile(4)
        .banks_per_tile(4)
        .bank_words(64)
        .build()
        .expect("valid config");
    let mut cluster = Cluster::new(cfg, SimParams::default());
    cluster.load_program(traffic_program(trips));
    cluster.preload_icaches();
    cluster
}

/// Drives `cluster` forward by `slice` cycles (or to completion),
/// returning whether the run finished.
fn advance(cluster: &mut Cluster, slice: u64) -> bool {
    match cluster.run(slice) {
        Ok(_) => true,
        Err(SimError::Timeout { .. }) => false,
        Err(e) => panic!("unexpected sim error: {e}"),
    }
}

#[test]
fn arena_reaches_a_steady_footprint_and_stops_growing() {
    let mut cluster = bare_cluster(50_000);
    // Warmup: several full quanta (the engine batches 1024 ticks per
    // boundary) of the homogeneous traffic loop.
    assert!(!advance(&mut cluster, 5_000), "workload outlives warmup");
    let warm = cluster.engine_arena_footprint();
    assert!(warm > 0, "the engine must have reserved buffers");
    // Steady state: every further slice reuses the warmed-up arena.
    for slice in 0..8 {
        assert!(!advance(&mut cluster, 2_000), "workload outlives slices");
        let now = cluster.engine_arena_footprint();
        assert_eq!(
            now, warm,
            "arena footprint changed after warmup (slice {slice}): \
             buffers must be recycled, not reallocated"
        );
    }
}

#[test]
fn instrumented_arena_reaches_a_steady_footprint_too() {
    // The observation lane (memory events, trace entries, halts,
    // forward-progress ticks) lives in the same arena as the routing
    // scratch. Turning the full instrumentation stack on must not
    // reintroduce per-quantum allocations: once the homogeneous loop has
    // warmed the lane up, the footprint is pinned.
    let mut cluster = bare_cluster(50_000);
    let obs = Obs::new();
    cluster.attach_obs(&obs, "arena");
    cluster.enable_timeseries(256);
    cluster.enable_flight(64);
    cluster.enable_trace(64);
    cluster.set_watchdog(1_000_000);
    assert!(!advance(&mut cluster, 5_000), "workload outlives warmup");
    let warm = cluster.engine_arena_footprint();
    assert!(warm > 0, "instrumented lanes must have reserved buffers");
    for slice in 0..8 {
        assert!(!advance(&mut cluster, 2_000), "workload outlives slices");
        assert_eq!(
            cluster.engine_arena_footprint(),
            warm,
            "instrumented arena footprint changed after warmup (slice {slice})"
        );
    }
    cluster.detach_obs();
}

#[test]
fn arena_is_reused_across_whole_runs() {
    // Back-to-back runs on the same cluster (reload between runs) must
    // not grow the arena either: capacity belongs to the cluster, not to
    // a single `run` call.
    let mut cluster = bare_cluster(2_000);
    assert!(advance(&mut cluster, 10_000_000), "first run completes");
    let after_first = cluster.engine_arena_footprint();
    assert!(after_first > 0);
    for _ in 0..3 {
        cluster.load_program(traffic_program(2_000));
        cluster.resume_all(0).expect("cores restart");
        assert!(advance(&mut cluster, 10_000_000), "rerun completes");
        assert_eq!(
            cluster.engine_arena_footprint(),
            after_first,
            "identical reruns must reuse the warmed-up arena"
        );
    }
}

#[test]
fn live_bank_sets_are_arena_buffers_sized_by_the_geometry() {
    // One earliest-arrival word per bank and one word of live bits per
    // tile (4 banks each): all a cluster reserves before its first round,
    // and exactly what a restored one reserves, however full the queues
    // it was cut with. That the two never grow afterwards is what the
    // steady-footprint tests above check, since the footprint counts them.
    const LIVE_SETS: u64 = 16 + 4;
    let mut cluster = bare_cluster(50_000);
    assert_eq!(cluster.engine_arena_footprint(), LIVE_SETS);
    assert!(!advance(&mut cluster, 1_000), "workload outlives the cut");
    assert!(cluster.engine_arena_footprint() > LIVE_SETS);
    let restored = Cluster::restore(&cluster.checkpoint()).expect("restores");
    assert_eq!(restored.engine_arena_footprint(), LIVE_SETS);
}

#[test]
fn lanes_are_ring_bounded() {
    // A full instrumented run: 16 cores retire and 16 banks serve on most
    // of ~100 k ticks, i.e. about a thousand trace entries and flight
    // events per quantum for rings that keep 64 of each.
    const RING: usize = 64;
    let mut cluster = bare_cluster(20_000);
    let obs = Obs::new();
    cluster.attach_obs(&obs, "arena");
    cluster.enable_timeseries(256);
    cluster.enable_flight(RING);
    cluster.enable_trace(RING);
    cluster.set_watchdog(1_000_000);
    assert!(advance(&mut cluster, 10_000_000), "run completes");
    assert!(obs.flight.dropped() > 0 && cluster.trace().unwrap().dropped() > 0);
    // With Vec growth doubling: per ring a lane buffer of at most
    // 2 * RING entries; the watchdog's progress ticks, at most one per
    // tick of a quantum the 256-cycle sampling window caps; per-tick
    // scratch that 16 cores and 16 banks bound. Unbounded lanes would
    // hold ~4 000 entries per quantum here.
    const WINDOW: usize = 256;
    let bound = (2 * 2 * RING + 2 * WINDOW + 256) as u64;
    assert!(
        cluster.engine_arena_footprint() <= bound,
        "lane buffers must be bounded by the rings they feed: {} > {bound}",
        cluster.engine_arena_footprint()
    );
    cluster.detach_obs();
}
