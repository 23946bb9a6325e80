//! The recorders an instrumented run feeds are rings: however long the
//! run and however it is cut, the flight recorder and the instruction
//! trace keep their newest entries and count the rest as dropped.

mod cuts;

use cuts::*;

#[test]
fn lanes_are_ring_bounded() {
    // 32 cores retire and banks serve on most ticks of a run that records
    // far more than the rings keep; every leg's flight ring is checked
    // against its capacity as it is collected.
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
