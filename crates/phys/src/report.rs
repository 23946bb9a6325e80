//! Flat report structs mirroring the paper's Table I and Table II rows.

use mempool_arch::SpmCapacity;

use crate::flow::Flow;
use crate::group::GroupImplementation;
use crate::tile::TileImplementation;

/// One row of Table I (tile implementation results).
#[derive(Debug, Clone, PartialEq)]
pub struct TileReport {
    /// Implementation flow.
    pub flow: Flow,
    /// SPM capacity.
    pub capacity: SpmCapacity,
    /// Tile footprint in µm².
    pub footprint_um2: f64,
    /// Logic-die standard-cell utilization.
    pub logic_die_utilization: f64,
    /// Memory-die utilization (3D only).
    pub memory_die_utilization: Option<f64>,
    /// Tile-internal maximum frequency in GHz.
    pub internal_fmax_ghz: f64,
    /// SPM banks spilled to the logic die (3D only; 0 for 2D).
    pub banks_on_logic_die: u32,
    /// Whether the I$ sits on the logic die (3D only; false for 2D).
    pub icache_on_logic_die: bool,
}

impl From<&TileImplementation> for TileReport {
    fn from(tile: &TileImplementation) -> Self {
        TileReport {
            flow: tile.flow(),
            capacity: tile.capacity(),
            footprint_um2: tile.footprint_um2(),
            logic_die_utilization: tile.logic_die_utilization(),
            memory_die_utilization: tile.memory_die_utilization(),
            internal_fmax_ghz: tile.internal_fmax_ghz(),
            banks_on_logic_die: tile.partition().banks_on_logic_die,
            icache_on_logic_die: tile.partition().icache_on_logic_die,
        }
    }
}

/// One column of Table II (group implementation results), in raw units.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// Implementation flow.
    pub flow: Flow,
    /// SPM capacity.
    pub capacity: SpmCapacity,
    /// BEOL name ("M8" or "M6M6").
    pub beol: &'static str,
    /// Group footprint in µm².
    pub footprint_um2: f64,
    /// Combined silicon area over all dies in µm².
    pub combined_die_area_um2: f64,
    /// Total wire length in mm.
    pub wire_length_mm: f64,
    /// Channel standard-cell density.
    pub density: f64,
    /// Repeater count.
    pub buffers: f64,
    /// F2F bump count (3D only).
    pub f2f_bumps: Option<u64>,
    /// Achieved frequency in GHz.
    pub frequency_ghz: f64,
    /// Total negative slack at 1 GHz, in ns.
    pub total_negative_slack_ns: f64,
    /// Failing endpoints at 1 GHz.
    pub failing_paths: u64,
    /// Total power at the reporting clock, in mW.
    pub total_power_mw: f64,
    /// Power-delay product in mW·ns.
    pub power_delay_product: f64,
    /// Inter-tile channel width in µm.
    pub channel_width_um: f64,
}

impl From<&GroupImplementation> for GroupReport {
    fn from(group: &GroupImplementation) -> Self {
        GroupReport {
            flow: group.flow(),
            capacity: group.capacity(),
            beol: group.flow().beol_name(),
            footprint_um2: group.footprint_um2(),
            combined_die_area_um2: group.combined_die_area_um2(),
            wire_length_mm: group.wire_length_mm(),
            density: group.density(),
            buffers: group.buffers(),
            f2f_bumps: group.f2f_bumps(),
            frequency_ghz: group.frequency_ghz(),
            total_negative_slack_ns: group.timing().total_negative_slack_ns,
            failing_paths: group.timing().failing_paths,
            total_power_mw: group.total_power_mw(),
            power_delay_product: group.power_delay_product(),
            channel_width_um: group.channel_width_um(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_report_copies_fields() {
        let tile = TileImplementation::implement(SpmCapacity::MiB8, Flow::ThreeD);
        let report = TileReport::from(&tile);
        assert_eq!(report.flow, Flow::ThreeD);
        assert_eq!(report.capacity, SpmCapacity::MiB8);
        assert_eq!(report.footprint_um2, tile.footprint_um2());
        assert!(report.icache_on_logic_die);
    }

    #[test]
    fn group_report_copies_fields() {
        let group = GroupImplementation::implement(SpmCapacity::MiB1, Flow::TwoD);
        let report = GroupReport::from(&group);
        assert_eq!(report.beol, "M8");
        assert_eq!(report.f2f_bumps, None);
        assert_eq!(report.frequency_ghz, group.frequency_ghz());
        assert!(report.total_power_mw > 0.0);
    }
}
