//! Technology model: the constants of a generic 28 nm high-κ node.
//!
//! The values below are representative of a commercial 28 nm HPC/HPL
//! process and are held in one place so that calibration is auditable.
//! Three of them are *anchored* to facts the paper states about the
//! baseline MemPool-2D(1 MiB) implementation:
//!
//! * `wire_delay_ps_per_mm`, together with the baseline floorplan's
//!   critical route, makes wire propagation ≈ 37 % of the critical path;
//! * the SRAM area model (see [`crate::sram`]) makes the 1 MiB memory die
//!   51 % utilized under the paper's partitioning;
//! * `repeater_spacing_mm` and `clock_buffers_per_mm_side` put the baseline
//!   group's buffer count near the reported 182.9k.
//!
//! Everything else (capacity scaling, 2D-vs-3D deltas, crossovers) emerges
//! from geometry.

/// Constants of the implementation technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Area of one gate equivalent (a NAND2) in µm².
    pub ge_area_um2: f64,
    /// Target standard-cell placement density in the logic regions.
    pub target_density: f64,
    /// Delay of an optimally repeated wire, in ps per mm (includes the
    /// repeaters and layer-stack vias).
    pub wire_delay_ps_per_mm: f64,
    /// Distance between repeaters on long wires, in mm.
    pub repeater_spacing_mm: f64,
    /// Clock-tree and miscellaneous buffers per mm of group side length.
    pub clock_buffers_per_mm_side: f64,
    /// Routing tracks per µm of channel cross-section per metal layer
    /// (pitch and via blockage already included).
    pub tracks_per_um_per_layer: f64,
    /// Fraction of channel tracks usable for signal routing (the rest is
    /// power grid and spacing).
    pub route_utilization: f64,
    /// Fixed channel margin (power straps, halo) in µm.
    pub channel_margin_um: f64,
    /// Delay through one radix-4 switch stage, in ps.
    pub switch_delay_ps: f64,
    /// Fixed tile logic delay on the group critical path (output register,
    /// crossbar, arbitration), in ps.
    pub tile_logic_delay_ps: f64,
    /// Extra path delay of the 3D flow: two F2F via crossings plus the
    /// channel-confined routing detour, in ps.
    pub f2f_path_penalty_ps: f64,
    /// Target clock period in ps (1 GHz).
    pub clock_period_ps: f64,
    /// Dynamic energy per gate equivalent per activation, in fJ.
    pub cell_energy_fj_per_ge: f64,
    /// Wire capacitance energy, in fJ per mm of toggled wire.
    pub wire_energy_fj_per_mm: f64,
    /// Leakage power density of standard cells, in µW per µm² of cell area.
    pub cell_leakage_uw_per_um2: f64,
    /// Leakage power density of SRAM, in µW per µm² of macro area.
    pub sram_leakage_uw_per_um2: f64,
    /// Macro halo (keep-out) width used by the 2D flow, in µm.
    pub macro_halo_um: f64,
    /// F2F via pitch in µm (hybrid bonding).
    pub f2f_pitch_um: f64,
    /// F2F via resistance in Ω.
    pub f2f_resistance_ohm: f64,
    /// F2F via capacitance in fF.
    pub f2f_capacitance_ff: f64,
    /// Power/ground F2F bump density in bumps per µm² of tile footprint.
    pub f2f_power_bump_density: f64,
    /// Maximum memory-die utilization for an irregular macro arrangement
    /// (routing channels between macros are still needed).
    pub mem_die_max_util_irregular: f64,
    /// Maximum memory-die utilization when at most 15 banks remain and can
    /// be arranged in the regular 5x3 array of the paper's Figure 3c.
    pub mem_die_max_util_regular: f64,
}

impl Technology {
    /// The calibrated 28 nm node used throughout the reproduction.
    pub fn n28() -> Self {
        Technology {
            ge_area_um2: 0.49,
            target_density: 0.90,
            wire_delay_ps_per_mm: 96.0,
            repeater_spacing_mm: 0.20,
            clock_buffers_per_mm_side: 19_000.0,
            tracks_per_um_per_layer: 2.5,
            route_utilization: 0.55,
            channel_margin_um: 14.0,
            switch_delay_ps: 40.0,
            tile_logic_delay_ps: 303.0,
            f2f_path_penalty_ps: 54.0,
            clock_period_ps: 1000.0,
            cell_energy_fj_per_ge: 1.1,
            wire_energy_fj_per_mm: 180.0,
            cell_leakage_uw_per_um2: 0.055,
            sram_leakage_uw_per_um2: 0.028,
            macro_halo_um: 2.0,
            f2f_pitch_um: 1.0,
            f2f_resistance_ohm: 0.5,
            f2f_capacitance_ff: 1.0,
            f2f_power_bump_density: 1.0 / 75.0,
            mem_die_max_util_irregular: 0.86,
            mem_die_max_util_regular: 0.93,
        }
    }

    /// Area in µm² occupied by `ge` gate equivalents of standard cells
    /// (cell area only, before density derating).
    pub(crate) fn cell_area_um2(&self, ge: f64) -> f64 {
        ge * self.ge_area_um2
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::n28()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_physically_plausible() {
        let t = Technology::n28();
        assert!(
            t.ge_area_um2 > 0.2 && t.ge_area_um2 < 1.5,
            "28nm NAND2 area"
        );
        assert!(t.wire_delay_ps_per_mm > 50.0 && t.wire_delay_ps_per_mm < 300.0);
        assert!(t.target_density > 0.5 && t.target_density <= 0.95);
        assert!(t.route_utilization < 1.0);
        assert!(t.mem_die_max_util_regular > t.mem_die_max_util_irregular);
        assert_eq!(t.f2f_pitch_um, 1.0, "paper uses a 1.0 um F2F pitch");
        assert_eq!(t.f2f_resistance_ohm, 0.5, "paper: 0.5 ohm F2F vias");
        assert_eq!(t.f2f_capacitance_ff, 1.0, "paper: 1 fF F2F vias");
    }

    #[test]
    fn cell_area_scales_linearly() {
        let t = Technology::n28();
        assert!((t.cell_area_um2(1000.0) - 490.0).abs() < 1e-9);
        assert_eq!(t.cell_area_um2(0.0), 0.0);
    }

    #[test]
    fn default_is_the_calibrated_node() {
        assert_eq!(Technology::default(), Technology::n28());
    }
}
