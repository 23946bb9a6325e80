//! The values the paper reports, for measured-vs-paper comparison.
//!
//! Everything here is transcribed from the paper's Table I, Table II, and
//! the percentages called out in its text and figures. These constants are
//! *never* used to compute results — only to check and display how close
//! the reproduction lands.

use mempool_arch::SpmCapacity;
use mempool_phys::Flow;

/// Index of a capacity in the paper's column order.
fn cap_index(capacity: SpmCapacity) -> usize {
    match capacity {
        SpmCapacity::MiB1 => 0,
        SpmCapacity::MiB2 => 1,
        SpmCapacity::MiB4 => 2,
        SpmCapacity::MiB8 => 3,
    }
}

/// Table I: tile footprint normalized to MemPool-2D(1 MiB).
pub(crate) fn tile_footprint(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [1.000, 1.104, 1.420, 1.817][i],
        Flow::ThreeD => [0.667, 0.667, 0.767, 0.933][i],
    }
}

/// Table I: memory-die core utilization (3D only).
pub fn tile_memory_die_utilization(capacity: SpmCapacity) -> f64 {
    [0.51, 0.65, 0.89, 1.00][cap_index(capacity)]
}

/// Table I: logic-die core utilization.
pub fn tile_logic_die_utilization(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [0.90, 0.90, 0.84, 0.86][i],
        Flow::ThreeD => [0.90, 0.90, 0.85, 0.84][i],
    }
}

/// Table II: group footprint normalized to MemPool-2D(1 MiB).
pub(crate) fn group_footprint(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [1.000, 1.074, 1.299, 1.572][i],
        Flow::ThreeD => [0.665, 0.665, 0.737, 0.857][i],
    }
}

/// Table II: combined die area normalized to MemPool-2D(1 MiB).
pub(crate) fn group_combined_area(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [1.000, 1.074, 1.299, 1.572][i],
        Flow::ThreeD => [1.330, 1.330, 1.474, 1.714][i],
    }
}

/// Table II: normalized wire length.
pub(crate) fn group_wire_length(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [1.000, 1.036, 1.131, 1.294][i],
        Flow::ThreeD => [0.803, 0.803, 0.844, 0.888][i],
    }
}

/// Table II: effective frequency normalized to MemPool-2D(1 MiB).
pub(crate) fn group_frequency(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [1.000, 0.930, 0.875, 0.885][i],
        Flow::ThreeD => [1.040, 0.979, 0.955, 0.930][i],
    }
}

/// Table II: total power normalized to MemPool-2D(1 MiB).
pub(crate) fn group_power(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [1.000, 1.045, 1.129, 1.299][i],
        Flow::ThreeD => [0.913, 0.958, 1.041, 1.173][i],
    }
}

/// Table II: power-delay product normalized to MemPool-2D(1 MiB).
pub(crate) fn group_pdp(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [1.000, 1.129, 1.290, 1.469][i],
        Flow::ThreeD => [0.877, 0.981, 1.089, 1.261][i],
    }
}

/// Table II: buffer counts (absolute).
pub(crate) fn group_buffers(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [182_900.0, 190_300.0, 212_500.0, 217_600.0][i],
        Flow::ThreeD => [151_500.0, 151_200.0, 166_500.0, 156_100.0][i],
    }
}

/// Table II: F2F bump counts (3D only; absolute).
pub(crate) fn group_f2f_bumps(capacity: SpmCapacity) -> f64 {
    [78_300.0, 78_900.0, 84_400.0, 86_200.0][cap_index(capacity)]
}

/// Table II: total negative slack normalized to MemPool-2D(1 MiB).
pub(crate) fn group_tns(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [-1.000, -2.080, -5.887, -5.212][i],
        Flow::ThreeD => [-0.184, -0.458, -0.604, -0.962][i],
    }
}

/// Table II: failing-path counts (absolute).
pub(crate) fn group_failing_paths(flow: Flow, capacity: SpmCapacity) -> f64 {
    let i = cap_index(capacity);
    match flow {
        Flow::TwoD => [1140.0, 1636.0, 4396.0, 4352.0][i],
        Flow::ThreeD => [1046.0, 1332.0, 1747.0, 2403.0][i],
    }
}

/// Figure 6 headline numbers: cycle-count speedup of 8 MiB over 1 MiB at
/// the same bandwidth.
pub fn fig6_speedup_8mib_over_1mib(bytes_per_cycle: u32) -> Option<f64> {
    match bytes_per_cycle {
        4 => Some(1.43),
        16 => Some(1.16),
        64 => Some(1.08),
        _ => None,
    }
}

/// Figure 7: the 3D-vs-2D performance gain at 4 MiB (the paper's headline
/// 9.1 %).
pub(crate) const FIG7_3D_VS_2D_4MIB: f64 = 1.091;

/// Figure 7: MemPool-3D(8 MiB) performance over the baseline (8.4 %).
pub const FIG7_3D_8MIB_VS_BASELINE: f64 = 1.084;

/// Figure 8: MemPool-3D(1 MiB) energy-efficiency gain over the baseline
/// (14 %).
pub const FIG8_3D_1MIB_VS_BASELINE: f64 = 1.14;

/// Figure 8: the 3D-vs-2D efficiency gain at 4 MiB (18.4 %).
pub const FIG8_3D_VS_2D_4MIB: f64 = 1.184;

/// Figure 8: MemPool-2D(8 MiB) efficiency relative to the baseline (-21 %).
pub const FIG8_2D_8MIB_VS_BASELINE: f64 = 0.79;

/// Figure 9: MemPool-3D(1 MiB) EDP relative to the baseline (-15.6 %).
pub(crate) const FIG9_3D_1MIB_VS_BASELINE: f64 = 0.844;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_rows_are_normalized_to_one() {
        assert_eq!(group_footprint(Flow::TwoD, SpmCapacity::MiB1), 1.0);
        assert_eq!(group_frequency(Flow::TwoD, SpmCapacity::MiB1), 1.0);
        assert_eq!(group_power(Flow::TwoD, SpmCapacity::MiB1), 1.0);
        assert_eq!(tile_footprint(Flow::TwoD, SpmCapacity::MiB1), 1.0);
    }

    #[test]
    fn headline_relations_hold_internally() {
        // The 9.1 % frequency gain at 4 MiB quoted in the text matches the
        // Table II ratio.
        let ratio = group_frequency(Flow::ThreeD, SpmCapacity::MiB4)
            / group_frequency(Flow::TwoD, SpmCapacity::MiB4);
        assert!((ratio - 1.091).abs() < 0.002);
        // The 46 % footprint saving at 8 MiB.
        let saving = 1.0
            - group_footprint(Flow::ThreeD, SpmCapacity::MiB8)
                / group_footprint(Flow::TwoD, SpmCapacity::MiB8);
        assert!((saving - 0.455).abs() < 0.01);
    }

    #[test]
    fn three_d_always_wins_in_the_paper_too() {
        for cap in SpmCapacity::ALL {
            assert!(group_frequency(Flow::ThreeD, cap) > group_frequency(Flow::TwoD, cap));
            assert!(group_power(Flow::ThreeD, cap) < group_power(Flow::TwoD, cap));
            assert!(group_footprint(Flow::ThreeD, cap) < group_footprint(Flow::TwoD, cap));
        }
    }
}
