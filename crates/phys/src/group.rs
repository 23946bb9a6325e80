//! Group implementation: floorplan, placement, and the full PPA analysis
//! (Section V).
//!
//! The group is MemPool's critical hierarchical level: 16 tiles in a 4x4
//! grid around the four central butterfly networks, with the interconnect
//! routed through inter-tile channels. This module:
//!
//! 1. implements the tile ([`TileImplementation`]) and builds the group
//!    netlist ([`GroupNetlist`]);
//! 2. sizes the channels by fixed-point iteration between placement
//!    geometry and worst-cut routing demand;
//! 3. measures wire length as bit-weighted HPWL over the placed netlist;
//! 4. runs timing over the full tile-pair route population, power at the
//!    reporting clock, and F2F bump accounting for the 3D flow.

use mempool_arch::{ClusterConfig, SpmCapacity};

use crate::f2f::F2fReport;
use crate::flow::Flow;
use crate::netlist::{GateInventory, GroupNetlist, NetEndpoint};
use crate::power::PowerReport;
use crate::route;
use crate::tech::Technology;
use crate::tile::TileImplementation;
use crate::timing::{self, TimingReport};

/// Area of one repeater in µm² (used for the channel density metric).
const BUFFER_AREA_UM2: f64 = 1.8;
/// Interconnect placement utilization inside the channels.
const CHANNEL_CELL_UTIL: f64 = 0.70;
/// Clock wiring per mm of group side (spine plus tile spokes), in mm.
const CLOCK_WIRE_MM_PER_MM_SIDE: f64 = 16.0;
/// How far the stage-0 switches are pulled from their tile quadrant toward
/// the group center (0 = at the quadrant centroid, 1 = at the center).
const STAGE0_CENTER_PULL: f64 = 0.7;

/// Floorplan geometry of a placed group.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Geometry {
    tile_side_um: f64,
    channel_um: f64,
    grid: u32,
}

impl Geometry {
    fn pitch(&self) -> f64 {
        self.tile_side_um + self.channel_um
    }

    fn side_um(&self) -> f64 {
        self.grid as f64 * self.tile_side_um + (self.grid as f64 + 1.0) * self.channel_um
    }

    fn tile_center(&self, index: u32) -> (f64, f64) {
        let row = index / self.grid;
        let col = index % self.grid;
        let x = self.channel_um + col as f64 * self.pitch() + self.tile_side_um / 2.0;
        let y = self.channel_um + row as f64 * self.pitch() + self.tile_side_um / 2.0;
        (x, y)
    }

    fn center(&self) -> (f64, f64) {
        (self.side_um() / 2.0, self.side_um() / 2.0)
    }

    fn position(&self, endpoint: NetEndpoint, radix: u32) -> (f64, f64) {
        let (cx, cy) = self.center();
        match endpoint {
            NetEndpoint::Tile(t) => self.tile_center(t),
            NetEndpoint::Switch {
                network,
                stage,
                index,
            } => {
                let (nx, ny) = network_offset(network);
                if stage == 0 {
                    // Centroid of the switch's radix group of tiles, pulled
                    // toward the center.
                    let tiles = self.grid * self.grid;
                    let first = index * radix;
                    let members = radix.min(tiles - first).max(1);
                    let (mut sx, mut sy) = (0.0, 0.0);
                    for t in first..first + members {
                        let (x, y) = self.tile_center(t);
                        sx += x;
                        sy += y;
                    }
                    let (gx, gy) = (sx / members as f64, sy / members as f64);
                    (
                        gx + (cx - gx) * STAGE0_CENTER_PULL + nx * 30.0,
                        gy + (cy - gy) * STAGE0_CENTER_PULL + ny * 30.0,
                    )
                } else {
                    (cx + nx * 60.0 + (index as f64 - 1.5) * 25.0, cy + ny * 60.0)
                }
            }
            NetEndpoint::Boundary(network) => match network {
                1 => (cx, 0.0),             // north
                2 => (self.side_um(), 0.0), // northeast
                _ => (self.side_um(), cy),  // east
            },
        }
    }
}

fn network_offset(network: u32) -> (f64, f64) {
    match network % 4 {
        0 => (-1.0, -1.0),
        1 => (-1.0, 1.0),
        2 => (1.0, -1.0),
        _ => (1.0, 1.0),
    }
}

fn hpwl(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

/// A fully implemented MemPool group.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone)]
pub struct GroupImplementation {
    capacity: SpmCapacity,
    flow: Flow,
    tile: TileImplementation,
    grid: u32,
    channel_width_um: f64,
    side_um: f64,
    signal_wire_mm: f64,
    clock_wire_mm: f64,
    buffers: f64,
    density: f64,
    timing: TimingReport,
    power: PowerReport,
    f2f: Option<F2fReport>,
}

impl GroupImplementation {
    /// Implements the group of a full-size MemPool configuration.
    pub fn implement(capacity: SpmCapacity, flow: Flow) -> Self {
        Self::implement_with(
            &ClusterConfig::with_capacity(capacity),
            flow,
            Technology::n28(),
            GateInventory::mempool(),
        )
    }

    /// Implements a group for an arbitrary configuration.
    pub fn implement_with(
        config: &ClusterConfig,
        flow: Flow,
        tech: Technology,
        inventory: GateInventory,
    ) -> Self {
        let tile = TileImplementation::implement_with(config, flow, tech.clone(), inventory);
        let grid = (config.tiles_per_group() as f64).sqrt() as u32;
        let addr_bits = (config.spm_bytes() as f64).log2().ceil() as u32;
        let netlist = GroupNetlist::build(config.tiles_per_group(), addr_bits);
        let radix = 4u32.min(config.tiles_per_group());

        // Fixed-point channel sizing: demand depends on the placement,
        // which depends on the channel width.
        let mut geom = Geometry {
            tile_side_um: tile.side_um(),
            channel_um: 60.0,
            grid,
        };
        for _ in 0..4 {
            let worst = worst_cut_demand(&geom, &netlist, radix);
            let target = route::channel_width_um(&tech, flow, worst, grid + 1);
            geom.channel_um = 0.5 * (geom.channel_um + target);
        }

        // Wire length: bit-weighted HPWL over every bus, plus the clock.
        let signal_wire_mm = netlist
            .buses()
            .iter()
            .map(|bus| {
                hpwl(geom.position(bus.from, radix), geom.position(bus.to, radix)) * bus.bits as f64
            })
            .sum::<f64>()
            / 1000.0;
        let side_mm = geom.side_um() / 1000.0;
        let clock_wire_mm = CLOCK_WIRE_MM_PER_MM_SIDE * side_mm;
        let buffers = route::buffer_count(&tech, signal_wire_mm, side_mm);

        // Placement density over the whole group: utilized silicon (tile
        // cells and macros, group interconnect, repeaters) over the total
        // silicon area of all dies — Table II reports 53-57 % across the
        // board.
        let tiles_count = (grid * grid) as f64;
        let utilized = tiles_count * (tile.logic_cell_area_um2() + tile.macro_area_um2())
            + inventory.group_interconnect_ge * tech.ge_area_um2 / CHANNEL_CELL_UTIL
            + buffers * BUFFER_AREA_UM2;
        let total_silicon = geom.side_um() * geom.side_um() * flow.dies() as f64;
        let density = (utilized / total_silicon).min(1.0);

        // Timing over the full population of tile-to-tile routes through
        // the local network.
        let tiles = config.tiles_per_group();
        let mut routes = Vec::with_capacity((tiles * tiles) as usize);
        for src in 0..tiles {
            for dst in 0..tiles {
                if src == dst {
                    continue;
                }
                let sw0 = geom.position(
                    NetEndpoint::Switch {
                        network: 0,
                        stage: 0,
                        index: src / radix,
                    },
                    radix,
                );
                let sw1 = geom.position(
                    NetEndpoint::Switch {
                        network: 0,
                        stage: 1,
                        index: dst % tiles.div_ceil(radix),
                    },
                    radix,
                );
                let length_um = hpwl(geom.position(NetEndpoint::Tile(src), radix), sw0)
                    + hpwl(sw0, sw1)
                    + hpwl(sw1, geom.position(NetEndpoint::Tile(dst), radix));
                routes.push(length_um / 1000.0);
            }
        }
        let timing = timing::analyze(&tech, flow, &routes, tile.bank_macro());

        let power = PowerReport::analyze(
            &tech,
            &tile,
            tiles,
            inventory.group_interconnect_ge,
            buffers,
            signal_wire_mm,
        );

        let f2f = match flow {
            Flow::TwoD => None,
            Flow::ThreeD => Some(F2fReport::count(&tech, &tile)),
        };

        GroupImplementation {
            capacity: tile.capacity(),
            flow,
            tile,
            grid,
            channel_width_um: geom.channel_um,
            side_um: geom.side_um(),
            signal_wire_mm,
            clock_wire_mm,
            buffers,
            density,
            timing,
            power,
            f2f,
        }
    }

    /// The SPM capacity preset.
    pub(crate) fn capacity(&self) -> SpmCapacity {
        self.capacity
    }

    /// The implementation flow.
    pub(crate) fn flow(&self) -> Flow {
        self.flow
    }

    /// The implemented tile this group instantiates 16 times.
    pub(crate) fn tile(&self) -> &TileImplementation {
        &self.tile
    }

    /// Group footprint in µm² (one die).
    pub fn footprint_um2(&self) -> f64 {
        self.side_um * self.side_um
    }

    /// Group side length in µm.
    pub(crate) fn side_um(&self) -> f64 {
        self.side_um
    }

    /// Combined silicon area across dies in µm².
    pub(crate) fn combined_die_area_um2(&self) -> f64 {
        self.footprint_um2() * self.flow.dies() as f64
    }

    /// Inter-tile channel width in µm.
    pub(crate) fn channel_width_um(&self) -> f64 {
        self.channel_width_um
    }

    /// Total wire length (signal + clock) in mm.
    pub fn wire_length_mm(&self) -> f64 {
        self.signal_wire_mm + self.clock_wire_mm
    }

    /// Repeater (buffer) count.
    pub fn buffers(&self) -> f64 {
        self.buffers
    }

    /// Standard-cell density in the channel area.
    pub(crate) fn density(&self) -> f64 {
        self.density
    }

    /// The timing report.
    pub(crate) fn timing(&self) -> &TimingReport {
        &self.timing
    }

    /// Achieved clock frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        self.timing.frequency_ghz
    }

    /// Total power in mW.
    pub fn total_power_mw(&self) -> f64 {
        self.power.total_mw()
    }

    /// Power-delay product in mW·ns (power / frequency).
    pub(crate) fn power_delay_product(&self) -> f64 {
        self.total_power_mw() / (self.frequency_ghz() * 1000.0)
    }

    /// F2F bumps for the whole group (3D only).
    pub fn f2f_bumps(&self) -> Option<u64> {
        self.f2f
            .as_ref()
            .map(|f| f.per_group(self.grid * self.grid))
    }
}

/// Maximum routing demand across the inner channel cuts, in wires.
fn worst_cut_demand(geom: &Geometry, netlist: &GroupNetlist, radix: u32) -> f64 {
    let mut worst = 0.0f64;
    for c in 0..geom.grid.saturating_sub(1) {
        // Middle of inner channel c, in both orientations.
        let cut = geom.channel_um + (c + 1) as f64 * geom.pitch() - geom.channel_um / 2.0;
        let mut vertical = 0.0;
        let mut horizontal = 0.0;
        for bus in netlist.buses() {
            let a = geom.position(bus.from, radix);
            let b = geom.position(bus.to, radix);
            if (a.0.min(b.0) < cut) && (cut < a.0.max(b.0)) {
                vertical += bus.bits as f64;
            }
            if (a.1.min(b.1) < cut) && (cut < a.1.max(b.1)) {
                horizontal += bus.bits as f64;
            }
        }
        worst = worst.max(vertical).max(horizontal);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(cap: SpmCapacity, flow: Flow) -> GroupImplementation {
        GroupImplementation::implement(cap, flow)
    }

    #[test]
    fn three_d_groups_are_smaller_faster_and_cooler() {
        for cap in SpmCapacity::ALL {
            let g2 = group(cap, Flow::TwoD);
            let g3 = group(cap, Flow::ThreeD);
            assert!(g3.footprint_um2() < g2.footprint_um2(), "{cap} footprint");
            assert!(g3.frequency_ghz() > g2.frequency_ghz(), "{cap} frequency");
            assert!(g3.total_power_mw() < g2.total_power_mw(), "{cap} power");
            assert!(
                g3.combined_die_area_um2() > g2.combined_die_area_um2(),
                "{cap} combined area cost of 3D"
            );
            assert!(g3.wire_length_mm() < g2.wire_length_mm(), "{cap} wires");
            assert!(g3.buffers() < g2.buffers(), "{cap} buffers");
        }
    }

    #[test]
    fn wire_fraction_anchor_on_baseline() {
        // Paper: ~37 % of the baseline 2D critical path is wire delay.
        let g = group(SpmCapacity::MiB1, Flow::TwoD);
        let frac = g.timing().wire_delay_fraction;
        assert!(
            (0.30..=0.44).contains(&frac),
            "baseline wire fraction {frac:.3}, expected near 0.37"
        );
    }

    #[test]
    fn baseline_misses_one_gigahertz_but_not_by_much() {
        let g = group(SpmCapacity::MiB1, Flow::TwoD);
        let f = g.frequency_ghz();
        assert!(
            (0.80..1.0).contains(&f),
            "baseline must have negative slack at 1 GHz (got {f:.3} GHz)"
        );
        assert!(g.timing().total_negative_slack_ns < 0.0);
        assert!(g.timing().failing_paths > 0);
    }

    #[test]
    fn channels_are_narrower_in_3d() {
        let g2 = group(SpmCapacity::MiB1, Flow::TwoD);
        let g3 = group(SpmCapacity::MiB1, Flow::ThreeD);
        let ratio = g3.channel_width_um() / g2.channel_width_um();
        assert!(
            (0.6..0.95).contains(&ratio),
            "3D/2D channel ratio {ratio:.3} (paper: ~0.82)"
        );
    }

    #[test]
    fn buffer_count_near_paper_anchor() {
        // Paper: 182.9k buffers in the baseline 2D group.
        let g = group(SpmCapacity::MiB1, Flow::TwoD);
        let b = g.buffers();
        assert!(
            (120_000.0..=260_000.0).contains(&b),
            "baseline buffers {b:.0}, paper reports 182.9k"
        );
    }

    #[test]
    fn frequency_degrades_with_capacity_within_each_flow() {
        for flow in Flow::ALL {
            let f1 = group(SpmCapacity::MiB1, flow).frequency_ghz();
            let f8 = group(SpmCapacity::MiB8, flow).frequency_ghz();
            assert!(f8 < f1, "{flow}: frequency must degrade 1->8 MiB");
            let drop = 1.0 - f8 / f1;
            assert!(
                (0.05..0.20).contains(&drop),
                "{flow}: 1->8 MiB frequency drop {drop:.3} (paper: ~12 %)"
            );
        }
    }

    #[test]
    fn same_footprint_but_slower_for_3d_2mib() {
        // Paper: 3D 1 and 2 MiB share a footprint, yet 2 MiB is ~6 %
        // slower purely from the SRAM delay.
        let g1 = group(SpmCapacity::MiB1, Flow::ThreeD);
        let g2 = group(SpmCapacity::MiB2, Flow::ThreeD);
        assert!((g1.footprint_um2() - g2.footprint_um2()).abs() / g1.footprint_um2() < 0.01);
        let drop = 1.0 - g2.frequency_ghz() / g1.frequency_ghz();
        assert!(
            (0.03..0.09).contains(&drop),
            "SRAM-induced frequency drop {drop:.3} (paper: 6.2 %)"
        );
    }

    #[test]
    fn largest_3d_group_smaller_than_smallest_2d_group() {
        // Paper: MemPool-3D(8 MiB) has a footprint 14 % below
        // MemPool-2D(1 MiB).
        let g3 = group(SpmCapacity::MiB8, Flow::ThreeD);
        let g2 = group(SpmCapacity::MiB1, Flow::TwoD);
        assert!(g3.footprint_um2() < g2.footprint_um2());
    }

    #[test]
    fn pdp_favors_3d() {
        for cap in SpmCapacity::ALL {
            let pdp2 = group(cap, Flow::TwoD).power_delay_product();
            let pdp3 = group(cap, Flow::ThreeD).power_delay_product();
            let gain = 1.0 - pdp3 / pdp2;
            assert!(
                (0.05..0.30).contains(&gain),
                "{cap}: 3D PDP gain {gain:.3} (paper: 12-16 %)"
            );
        }
    }

    #[test]
    fn f2f_bumps_only_for_3d() {
        assert!(group(SpmCapacity::MiB1, Flow::TwoD).f2f_bumps().is_none());
        let bumps = group(SpmCapacity::MiB1, Flow::ThreeD).f2f_bumps().unwrap();
        assert!(bumps > 10_000);
    }

    #[test]
    fn density_is_a_sane_fraction() {
        for cap in SpmCapacity::ALL {
            for flow in Flow::ALL {
                let d = group(cap, flow).density();
                assert!((0.2..=1.0).contains(&d), "{cap} {flow}: density {d:.3}");
            }
        }
    }

    #[test]
    fn wire_length_tracks_footprint() {
        // Normalized wire length should scale roughly with the side
        // length, as in Table II.
        let base = group(SpmCapacity::MiB1, Flow::TwoD);
        let big = group(SpmCapacity::MiB8, Flow::TwoD);
        let wl_ratio = big.wire_length_mm() / base.wire_length_mm();
        let side_ratio = big.side_um() / base.side_um();
        assert!(
            (wl_ratio - side_ratio).abs() < 0.15,
            "wl ratio {wl_ratio:.3} vs side ratio {side_ratio:.3}"
        );
    }
}
