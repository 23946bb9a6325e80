//! The flat report struct of a Table I row.

use mempool_arch::SpmCapacity;

use crate::flow::Flow;
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
}
