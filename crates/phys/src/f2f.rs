//! Face-to-face bump accounting for the 3D flow.
//!
//! With a 1.0 µm hybrid-bonding pitch the F2F via layer is cheap enough to
//! spend freely (the paper reports ~80k bumps per group). Bumps fall into
//! two classes:
//!
//! * **signal bumps** — every pin of every macro on the memory die must
//!   cross the bond: data in/out, address, and control per SPM/I$ bank,
//!   plus the clock spokes;
//! * **power/ground bumps** — dropped opportunistically across the whole
//!   footprint to feed the memory die, at a density limited by the power
//!   grid rather than the bond pitch.

use crate::tech::Technology;
use crate::tile::TileImplementation;

/// F2F bump counts for one tile and one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct F2fReport {
    /// Signal bumps per tile.
    pub signal_per_tile: u64,
    /// Power/ground bumps per tile.
    pub power_per_tile: u64,
}

impl F2fReport {
    /// Counts the bumps of a 3D tile.
    pub(crate) fn count(tech: &Technology, tile: &TileImplementation) -> Self {
        let partition = tile.partition();
        let banks_on_mem = tile.num_banks() - partition.banks_on_logic_die;
        let mut signal = banks_on_mem as u64 * tile.bank_macro().signal_pins(32) as u64;
        if !partition.icache_on_logic_die {
            signal += tile.num_icache_banks() as u64 * tile.icache_macro().signal_pins(32) as u64;
        }
        // Clock spokes: one per macro on the memory die, plus a spine.
        signal += banks_on_mem as u64 + 8;
        let power = (tile.footprint_um2() * tech.f2f_power_bump_density) as u64;
        F2fReport {
            signal_per_tile: signal,
            power_per_tile: power,
        }
    }

    /// Total bumps per tile.
    pub(crate) fn per_tile(&self) -> u64 {
        self.signal_per_tile + self.power_per_tile
    }

    /// Total bumps for a group of `tiles` tiles.
    pub(crate) fn per_group(&self, tiles: u32) -> u64 {
        self.per_tile() * tiles as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use mempool_arch::SpmCapacity;

    fn bumps(cap: SpmCapacity) -> F2fReport {
        let tech = Technology::n28();
        let tile = TileImplementation::implement(cap, Flow::ThreeD);
        F2fReport::count(&tech, &tile)
    }

    #[test]
    fn group_count_near_paper_magnitude() {
        // Paper Table II: 78.3k bumps for the 1 MiB group.
        let total = bumps(SpmCapacity::MiB1).per_group(16);
        assert!(
            (50_000..=120_000).contains(&total),
            "1 MiB group bumps {total}"
        );
    }

    #[test]
    fn bump_count_grows_with_capacity() {
        // Paper: 78.3k -> 86.2k from 1 to 8 MiB (~10 %): wider addresses
        // and a larger footprint, slightly offset by the spilled bank.
        let b1 = bumps(SpmCapacity::MiB1).per_group(16);
        let b8 = bumps(SpmCapacity::MiB8).per_group(16);
        assert!(b8 > b1, "bumps must grow: {b1} -> {b8}");
        let growth = b8 as f64 / b1 as f64;
        assert!(growth < 1.5, "growth {growth:.2} should be mild");
    }

    #[test]
    fn power_bumps_dominate_signals() {
        // At a 1 µm pitch the power delivery uses far more bumps than the
        // macro pins.
        let r = bumps(SpmCapacity::MiB1);
        assert!(r.power_per_tile > r.signal_per_tile);
    }

    #[test]
    fn spilled_macros_do_not_need_bumps() {
        // The 8 MiB tile keeps the I$ and one bank on the logic die; its
        // signal-bump count per bank stays consistent.
        let r8 = bumps(SpmCapacity::MiB8);
        let r4 = bumps(SpmCapacity::MiB4);
        // 15 banks with 3 more address bits each vs 16 banks + 4 I$ banks.
        assert!(r8.signal_per_tile < r4.signal_per_tile);
    }
}
