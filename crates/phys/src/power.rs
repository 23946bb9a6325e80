//! Power model.
//!
//! Group power at the 1 GHz reporting clock, decomposed the way a
//! post-route power report would be:
//!
//! * **cell dynamic** — switching of the tile logic, group interconnect,
//!   and repeaters;
//! * **wire dynamic** — charging the signal wiring (where the 3D flow's
//!   shorter nets pay off);
//! * **SRAM access** — per-access energy of the SPM and I$ macros, which
//!   grows with bank depth;
//! * **leakage** — proportional to the *combined* silicon area, which is
//!   why the 3D designs give some of their dynamic savings back.
//!
//! Activity factors model the matrix-multiplication workload: every core
//! issuing nearly every cycle, roughly 40 % of instructions touching the
//! SPM.

use crate::netlist::GROUP_INTERCONNECT_GE;
use crate::tile::TileImplementation;

/// Gate equivalents of one repeater (buffer/inverter pair).
const BUFFER_GE: f64 = 2.0;

/// Workload activity factors feeding the dynamic-power terms.
///
/// The group reports power under [`ActivityProfile::matmul`], the
/// matrix-multiplication workload the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ActivityProfile {
    /// Toggle activity of logic cells (0.135 at full issue rate).
    pub cell_activity: f64,
    /// Toggle activity of the group signal wiring.
    pub wire_activity: f64,
    /// SPM accesses per tile per cycle.
    pub spm_accesses_per_tile_per_cycle: f64,
    /// I$ fetches per tile per cycle.
    pub icache_accesses_per_tile_per_cycle: f64,
}

impl ActivityProfile {
    /// The matmul workload the paper reports power against.
    pub(crate) fn matmul() -> Self {
        ActivityProfile {
            cell_activity: 0.135,
            wire_activity: 0.25,
            spm_accesses_per_tile_per_cycle: 2.0,
            icache_accesses_per_tile_per_cycle: 1.0,
        }
    }
}

/// Power breakdown of a group, in mW at the 1 GHz reporting clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PowerReport {
    /// Dynamic power of standard cells (tiles, interconnect, repeaters).
    pub cell_dynamic_mw: f64,
    /// Dynamic power of the group signal wiring.
    pub wire_dynamic_mw: f64,
    /// SRAM access power.
    pub sram_mw: f64,
    /// Leakage power (all dies).
    pub leakage_mw: f64,
}

impl PowerReport {
    /// Total power in mW.
    pub(crate) fn total_mw(&self) -> f64 {
        self.cell_dynamic_mw + self.wire_dynamic_mw + self.sram_mw + self.leakage_mw
    }

    /// Computes the group power report under a workload's activity, in the
    /// tile's technology.
    ///
    /// `tiles` is the number of tiles in the group, `buffers` the repeater
    /// count, and `signal_wire_mm` the total signal wiring.
    pub(crate) fn analyze(
        tile: &TileImplementation,
        tiles: u32,
        buffers: f64,
        signal_wire_mm: f64,
        activity: ActivityProfile,
    ) -> Self {
        let tech = tile.tech();
        let ghz = 1.0; // reporting clock: the 1 GHz target
        let tile_ge = tile.logic_cell_area_um2() / tech.ge_area_um2;
        let total_ge = tile_ge * tiles as f64 + GROUP_INTERCONNECT_GE + buffers * BUFFER_GE;
        // fJ * GHz = µW; / 1000 -> mW.
        let cell_dynamic_mw =
            total_ge * tech.cell_energy_fj_per_ge * activity.cell_activity * ghz / 1000.0;
        let wire_dynamic_mw =
            signal_wire_mm * tech.wire_energy_fj_per_mm * activity.wire_activity * ghz / 1000.0;

        let spm_pj = tile.bank_macro().access_energy_pj();
        let icache_pj = tile.icache_macro().access_energy_pj();
        // pJ * GHz = mW.
        let sram_mw = tiles as f64
            * (activity.spm_accesses_per_tile_per_cycle * spm_pj
                + activity.icache_accesses_per_tile_per_cycle * icache_pj)
            * ghz;

        let cell_area = tile.logic_cell_area_um2() * tiles as f64
            + (GROUP_INTERCONNECT_GE + buffers * BUFFER_GE) * tech.ge_area_um2;
        let sram_area = tile.macro_area_um2() * tiles as f64;
        let leakage_mw = (cell_area * tech.cell_leakage_uw_per_um2
            + sram_area * tech.sram_leakage_uw_per_um2)
            / 1000.0;

        PowerReport {
            cell_dynamic_mw,
            wire_dynamic_mw,
            sram_mw,
            leakage_mw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Flow;
    use mempool_arch::SpmCapacity;

    fn report(cap: SpmCapacity, flow: Flow, buffers: f64, wire_mm: f64) -> PowerReport {
        let tile = TileImplementation::implement(cap, flow);
        PowerReport::analyze(&tile, 16, buffers, wire_mm, ActivityProfile::matmul())
    }

    #[test]
    fn total_is_sum_of_parts() {
        let r = report(SpmCapacity::MiB1, Flow::TwoD, 180_000.0, 22_000.0);
        let sum = r.cell_dynamic_mw + r.wire_dynamic_mw + r.sram_mw + r.leakage_mw;
        assert!((r.total_mw() - sum).abs() < 1e-9);
    }

    #[test]
    fn baseline_magnitude_is_plausible() {
        // A 64-core group with 256 KiB of SPM in 28 nm at 1 GHz should land
        // in the watts-per-group range.
        let r = report(SpmCapacity::MiB1, Flow::TwoD, 180_000.0, 22_000.0);
        assert!(
            (800.0..4000.0).contains(&r.total_mw()),
            "total {} mW",
            r.total_mw()
        );
    }

    #[test]
    fn shorter_wires_and_fewer_buffers_save_power() {
        let base = report(SpmCapacity::MiB1, Flow::TwoD, 180_000.0, 22_000.0);
        let three_d = report(SpmCapacity::MiB1, Flow::ThreeD, 150_000.0, 18_000.0);
        assert!(three_d.wire_dynamic_mw < base.wire_dynamic_mw);
        assert!(three_d.cell_dynamic_mw < base.cell_dynamic_mw);
    }

    #[test]
    fn deeper_banks_cost_sram_power() {
        let small = report(SpmCapacity::MiB1, Flow::TwoD, 180_000.0, 22_000.0);
        let large = report(SpmCapacity::MiB8, Flow::TwoD, 180_000.0, 22_000.0);
        assert!(large.sram_mw > 1.5 * small.sram_mw);
        assert!(large.leakage_mw > small.leakage_mw);
    }

    #[test]
    fn lighter_workloads_draw_less_dynamic_power() {
        let tile = TileImplementation::implement(SpmCapacity::MiB1, Flow::TwoD);
        let analyze = |activity| PowerReport::analyze(&tile, 16, 180_000.0, 22_000.0, activity);
        let busy = analyze(ActivityProfile::matmul());
        let idle = analyze(ActivityProfile {
            cell_activity: 0.054,
            wire_activity: 0.1,
            spm_accesses_per_tile_per_cycle: 0.5,
            icache_accesses_per_tile_per_cycle: 0.4,
        });
        assert!(idle.cell_dynamic_mw < busy.cell_dynamic_mw);
        assert!(idle.wire_dynamic_mw < busy.wire_dynamic_mw);
        assert!(idle.sram_mw < busy.sram_mw);
        // Leakage does not care about activity.
        assert!((idle.leakage_mw - busy.leakage_mw).abs() < 1e-9);
    }

    #[test]
    fn power_shares_are_balanced_like_a_real_report() {
        // No single component should dwarf all others at the baseline.
        let r = report(SpmCapacity::MiB1, Flow::TwoD, 180_000.0, 22_000.0);
        for (name, value) in [
            ("cells", r.cell_dynamic_mw),
            ("wires", r.wire_dynamic_mw),
            ("sram", r.sram_mw),
            ("leak", r.leakage_mw),
        ] {
            let share = value / r.total_mw();
            assert!(
                (0.03..0.60).contains(&share),
                "{name} share {share:.3} out of balance"
            );
        }
    }
}
