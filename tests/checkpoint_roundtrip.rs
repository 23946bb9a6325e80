//! Checkpoint/restore cuts: snapshotting a run at any cycle, through the
//! textual format, and resuming from the restored state must not show.
//! Each test is a fixed or generated input of the cut comparison in
//! `cuts`, which `tests/engine_equivalence.rs` draws from at large.

mod cuts;

use proptest::prelude::*;

use cuts::*;

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
    fn mid_quantum_snapshot_resumes_bit_exact(
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
