//! Hierarchical area reporting — the `report_area` of the analytic flow.
//!
//! Breaks a group's silicon down the way a synthesis report would: cores,
//! tile interconnect, instruction caches, SPM macros, group networks,
//! repeaters, and white space, per die.

use std::fmt;

use mempool_arch::SpmCapacity;

use crate::flow::Flow;
use crate::group::{GroupImplementation, BUFFER_AREA_UM2};
use crate::netlist::{GROUP_INTERCONNECT_GE, SNITCH_CORE_GE, TILE_OTHER_GE};

/// One line of the area report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AreaLine {
    /// Block name.
    pub name: &'static str,
    /// Area in µm².
    pub area_um2: f64,
    /// Instance count (tiles, banks, ...).
    pub instances: u32,
}

/// The hierarchical area report of one group.
#[derive(Debug, Clone)]
pub struct AreaReport {
    flow: Flow,
    capacity: SpmCapacity,
    lines: Vec<AreaLine>,
    total_silicon_um2: f64,
}

impl AreaReport {
    /// Builds the report from an implemented group.
    pub fn from_group(group: &GroupImplementation) -> Self {
        let tile = group.tile();
        let ge_area_um2 = tile.tech().ge_area_um2;
        let tiles = group.tiles();
        let cores = tile.num_cores() * tiles;

        let cores_area = SNITCH_CORE_GE * ge_area_um2 * cores as f64;
        let tile_ic_area = TILE_OTHER_GE * ge_area_um2 * tiles as f64;
        let spm_area = tile.bank_macro().area_um2() * (tile.num_banks() * tiles) as f64;
        let icache_area = tile.icache_macro().area_um2() * (tile.num_icache_banks() * tiles) as f64;
        let group_ic_area = GROUP_INTERCONNECT_GE * ge_area_um2;
        let buffer_area = group.buffers() * BUFFER_AREA_UM2;
        let total_silicon = group.combined_die_area_um2();
        let used = cores_area + tile_ic_area + spm_area + icache_area + group_ic_area + buffer_area;

        let lines = vec![
            AreaLine {
                name: "snitch cores",
                area_um2: cores_area,
                instances: cores,
            },
            AreaLine {
                name: "tile interconnect",
                area_um2: tile_ic_area,
                instances: tiles,
            },
            AreaLine {
                name: "spm macros",
                area_um2: spm_area,
                instances: tile.num_banks() * tiles,
            },
            AreaLine {
                name: "icache macros",
                area_um2: icache_area,
                instances: tile.num_icache_banks() * tiles,
            },
            AreaLine {
                name: "group networks",
                area_um2: group_ic_area,
                instances: 4,
            },
            AreaLine {
                name: "repeaters",
                area_um2: buffer_area,
                instances: group.buffers() as u32,
            },
            AreaLine {
                name: "white space",
                area_um2: (total_silicon - used).max(0.0),
                instances: 0,
            },
        ];
        AreaReport {
            flow: group.flow(),
            capacity: group.capacity(),
            lines,
            total_silicon_um2: total_silicon,
        }
    }
}

impl fmt::Display for AreaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "area report: {} {} group ({:.2} mm² total silicon)",
            self.capacity,
            self.flow,
            self.total_silicon_um2 / 1e6
        )?;
        for line in &self.lines {
            writeln!(
                f,
                "  {:<18} {:>9.3} mm²  {:>5.1} %  x{}",
                line.name,
                line.area_um2 / 1e6,
                100.0 * line.area_um2 / self.total_silicon_um2,
                line.instances
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::Technology;

    fn report(cap: SpmCapacity, flow: Flow) -> AreaReport {
        AreaReport::from_group(&GroupImplementation::implement(cap, flow))
    }

    fn block(r: &AreaReport, name: &str) -> f64 {
        r.lines.iter().find(|l| l.name == name).unwrap().area_um2
    }

    #[test]
    fn lines_sum_to_total() {
        for cap in SpmCapacity::ALL {
            for flow in Flow::ALL {
                let r = report(cap, flow);
                let sum: f64 = r.lines.iter().map(|l| l.area_um2).sum();
                assert!(
                    (sum - r.total_silicon_um2).abs() / r.total_silicon_um2 < 1e-6,
                    "{cap} {flow}: lines sum {sum} vs total {}",
                    r.total_silicon_um2
                );
            }
        }
    }

    #[test]
    fn sram_fraction_grows_with_capacity() {
        let mut last = 0.0;
        for cap in SpmCapacity::ALL {
            let r = report(cap, Flow::TwoD);
            let sram = block(&r, "spm macros") + block(&r, "icache macros");
            let frac = sram / (r.total_silicon_um2 - block(&r, "white space"));
            assert!(frac > last, "{cap}: {frac:.3}");
            last = frac;
        }
        assert!(last > 0.4, "8 MiB is SRAM-dominated ({last:.3})");
    }

    #[test]
    fn three_d_has_more_white_space() {
        // The memory die's slack at 1 MiB shows up as white space.
        let w2 = block(&report(SpmCapacity::MiB1, Flow::TwoD), "white space");
        let w3 = block(&report(SpmCapacity::MiB1, Flow::ThreeD), "white space");
        assert!(w3 > w2);
    }

    #[test]
    fn the_report_uses_the_group_technology() {
        let mut tech = Technology::n28();
        tech.ge_area_um2 *= 1.1;
        let group = GroupImplementation::implement_with(SpmCapacity::MiB4, Flow::ThreeD, &tech);
        let cores = block(&AreaReport::from_group(&group), "snitch cores");
        let nominal = block(&report(SpmCapacity::MiB4, Flow::ThreeD), "snitch cores");
        assert!(
            (cores / nominal - 1.1).abs() < 1e-12,
            "{cores} vs {nominal}"
        );
    }

    #[test]
    fn display_lists_every_block() {
        let text = report(SpmCapacity::MiB4, Flow::ThreeD).to_string();
        for name in ["snitch cores", "spm macros", "repeaters", "white space"] {
            assert!(text.contains(name), "missing {name}");
        }
        assert!(text.contains("mm²"));
    }
}
