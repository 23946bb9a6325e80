//! Global routing: channel sizing and repeater (buffer) estimation.
//!
//! The group's four butterfly networks route through the channels between
//! tiles (Section V-A). A channel's width is set by the worst routing cut:
//! the wires whose bounding box spans the cut must fit in the tracks the
//! BEOL offers there. The 2D flow offers the eight layers of its M8 stack;
//! the Macro-3D flow offers all twelve layers of the mirrored M6M6 stack,
//! which is why its channels come out narrower even though it has no
//! over-the-tile routing.

use crate::flow::Flow;
use crate::tech::Technology;

/// Routing capacity of one µm of channel cross-section, in wires.
pub(crate) fn tracks_per_um(tech: &Technology, flow: Flow) -> f64 {
    flow.channel_routing_layers() as f64 * tech.tracks_per_um_per_layer * tech.route_utilization
}

/// Sizes the inter-tile channel given the worst-cut demand.
///
/// `worst_cut_wires` is the maximum number of wires whose routes span any
/// single vertical or horizontal cut of the floorplan;
/// `channels_at_cut` is how many parallel channels cross that cut
/// (`grid + 1` for a `grid x grid` tile array).
pub(crate) fn channel_width_um(
    tech: &Technology,
    flow: Flow,
    worst_cut_wires: f64,
    channels_at_cut: u32,
) -> f64 {
    let capacity_per_um = tracks_per_um(tech, flow) * channels_at_cut as f64;
    tech.channel_margin_um + worst_cut_wires / capacity_per_um
}

/// Number of repeaters (buffers/inverter pairs) needed to drive the
/// signal wiring, plus the clock-tree buffers, which scale with the group's
/// side length.
pub(crate) fn buffer_count(tech: &Technology, signal_wire_mm: f64, side_mm: f64) -> f64 {
    signal_wire_mm / tech.repeater_spacing_mm + tech.clock_buffers_per_mm_side * side_mm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_d_channels_are_narrower_at_equal_demand() {
        let tech = Technology::n28();
        let w2d = channel_width_um(&tech, Flow::TwoD, 8000.0, 5);
        let w3d = channel_width_um(&tech, Flow::ThreeD, 8000.0, 5);
        assert!(w3d < w2d);
        let ratio = w3d / w2d;
        assert!(
            (0.65..=0.90).contains(&ratio),
            "3D/2D channel ratio {ratio:.3}, paper reports ~0.82"
        );
    }

    #[test]
    fn channel_width_has_a_floor() {
        let tech = Technology::n28();
        let w = channel_width_um(&tech, Flow::TwoD, 0.0, 5);
        assert_eq!(w, tech.channel_margin_um);
    }

    #[test]
    fn buffers_scale_with_wire_length_and_side() {
        let tech = Technology::n28();
        let base = buffer_count(&tech, 20_000.0, 2.7);
        assert!(buffer_count(&tech, 25_000.0, 2.7) > base);
        assert!(buffer_count(&tech, 20_000.0, 3.2) > base);
    }

    #[test]
    fn baseline_buffer_count_near_paper_anchor() {
        // ~22,000 wire-mm and a ~2.75 mm side should land near the paper's
        // 182.9k buffers.
        let tech = Technology::n28();
        let buffers = buffer_count(&tech, 22_000.0, 2.75);
        assert!(
            (140_000.0..=230_000.0).contains(&buffers),
            "baseline buffers {buffers:.0}"
        );
    }
}
