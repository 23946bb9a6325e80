//! Tile implementation: floorplanning and 2D/3D partitioning (Section IV).
//!
//! The tile holds four Snitch cores, the tile interconnect, 16 SPM banks,
//! and four I$ banks. In the 2D flow everything shares one die; in the 3D
//! flow the memories move to the memory die (Figure 1 of the paper) unless
//! they no longer fit over the logic die's footprint, in which case the
//! partitioner spills the I$ and then SPM banks back to the logic die —
//! for the 8 MiB configuration this reproduces the paper's 15-bank 5x3
//! memory die with one SPM bank and the I$ on the logic die.

use mempool_arch::{ClusterConfig, SpmCapacity};

use crate::flow::Flow;
use crate::netlist::{SNITCH_CORE_GE, TILE_OTHER_GE};
use crate::sram::SramMacro;
use crate::tech::Technology;

/// How the tile's macros are split across dies in the 3D flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// SPM banks placed on the logic die (0 in the paper's 1-4 MiB
    /// configurations, 1 for 8 MiB).
    pub banks_on_logic_die: u32,
    /// Whether the I$ banks sit on the logic die.
    pub icache_on_logic_die: bool,
}

impl Partition {
    /// The all-on-memory-die partition used by the smaller configurations.
    pub(crate) const MEMORY_DIE_ONLY: Partition = Partition {
        banks_on_logic_die: 0,
        icache_on_logic_die: false,
    };
}

/// One evaluated 3D partition option (see
/// [`TileImplementation::partition_candidates`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionCandidate {
    /// The macro assignment.
    pub partition: Partition,
    /// Resulting tile footprint in µm².
    pub footprint_um2: f64,
    /// Resulting memory-die utilization.
    pub memory_die_utilization: f64,
    /// Resulting logic-die utilization (cells + spilled macros).
    pub logic_die_utilization: f64,
}

/// A physically implemented tile.
#[derive(Debug, Clone)]
pub struct TileImplementation {
    capacity: SpmCapacity,
    flow: Flow,
    tech: Technology,
    bank_macro: SramMacro,
    icache_macro: SramMacro,
    num_cores: u32,
    num_banks: u32,
    num_icache_banks: u32,
    logic_cell_area_um2: f64,
    partition: Partition,
    footprint_um2: f64,
    logic_die_utilization: f64,
    memory_die_utilization: Option<f64>,
}

impl TileImplementation {
    /// Implements the tile of a full-size MemPool configuration.
    pub fn implement(capacity: SpmCapacity, flow: Flow) -> Self {
        Self::implement_with(capacity, flow, &Technology::n28())
    }

    /// Implements the tile of a full-size MemPool configuration in another
    /// technology.
    pub fn implement_with(capacity: SpmCapacity, flow: Flow, tech: &Technology) -> Self {
        let config = ClusterConfig::with_capacity(capacity);
        let num_cores = config.cores_per_tile();
        let num_banks = config.banks_per_tile();
        let num_icache_banks = ClusterConfig::ICACHE_BANKS_PER_TILE;
        let bank_macro = SramMacro::with_capacity_bytes(config.bank_bytes());
        let icache_macro = SramMacro::with_capacity_bytes(
            (ClusterConfig::ICACHE_BYTES_PER_TILE / num_icache_banks) as u64,
        );
        let logic_ge = SNITCH_CORE_GE * num_cores as f64 + TILE_OTHER_GE;
        let logic_cell_area_um2 = tech.cell_area_um2(logic_ge);

        let mut tile = TileImplementation {
            capacity,
            flow,
            tech: tech.clone(),
            bank_macro,
            icache_macro,
            num_cores,
            num_banks,
            num_icache_banks,
            logic_cell_area_um2,
            partition: Partition::MEMORY_DIE_ONLY,
            footprint_um2: 0.0,
            logic_die_utilization: 0.0,
            memory_die_utilization: None,
        };
        match flow {
            Flow::TwoD => tile.place_2d(),
            Flow::ThreeD => tile.place_3d(),
        }
        tile
    }

    fn total_macro_area(&self) -> f64 {
        self.num_banks as f64 * self.bank_macro.area_um2()
            + self.num_icache_banks as f64 * self.icache_macro.area_um2()
    }

    fn halo_area(&self, banks: u32, icache_banks: u32) -> f64 {
        let halo = self.tech.macro_halo_um;
        banks as f64 * self.bank_macro.perimeter_um() * halo
            + icache_banks as f64 * self.icache_macro.perimeter_um() * halo
    }

    fn place_2d(&mut self) {
        let macro_area =
            self.total_macro_area() + self.halo_area(self.num_banks, self.num_icache_banks);
        // First pass at target density, then relax the achievable density
        // when macros dominate (routing over/around macros congests the
        // cell region — the paper reports 84-86 % for the 4/8 MiB tiles).
        let fp0 = self.logic_cell_area_um2 / self.tech.target_density + macro_area;
        let macro_frac = macro_area / fp0;
        let utilization =
            (self.tech.target_density - 0.10 * (macro_frac - 0.35).max(0.0)).clamp(0.80, 0.95);
        self.footprint_um2 = self.logic_cell_area_um2 / utilization + macro_area;
        self.logic_die_utilization = utilization;
        self.memory_die_utilization = None;
    }

    /// Evaluates one candidate 3D partition without committing to it.
    ///
    /// Candidates are indexed the way the partitioner explores them:
    /// `k = 0` keeps everything on the memory die; `k = 1` spills the I$;
    /// `k >= 2` additionally spills `k - 1` SPM banks to the logic die.
    /// This is public so that ablation studies can compare the paper's
    /// partition against the alternatives.
    pub(crate) fn evaluate_partition(&self, k: u32) -> PartitionCandidate {
        let (icache_moved, banks_moved) = match k {
            0 => (false, 0),
            1 => (true, 0),
            n => (true, n - 1),
        };
        let moved_area = if icache_moved {
            self.num_icache_banks as f64 * self.icache_macro.area_um2()
                + self.halo_area(banks_moved, self.num_icache_banks)
                + banks_moved as f64 * self.bank_macro.area_um2()
        } else {
            0.0
        };
        let logic_die = self.logic_cell_area_um2 / self.tech.target_density + moved_area;
        let banks_left = self.num_banks - banks_moved;
        let mem_area = banks_left as f64 * self.bank_macro.area_um2()
            + if icache_moved {
                0.0
            } else {
                self.num_icache_banks as f64 * self.icache_macro.area_um2()
            };
        // A reduced bank count can be arranged as the paper's regular 5x3
        // array, packing almost perfectly; a full complement plus I$ needs
        // routing space between macros.
        let max_util = if icache_moved && banks_left < self.num_banks {
            self.tech.mem_die_max_util_regular
        } else {
            self.tech.mem_die_max_util_irregular
        };
        let footprint = logic_die.max(mem_area / max_util);
        PartitionCandidate {
            partition: Partition {
                banks_on_logic_die: banks_moved,
                icache_on_logic_die: icache_moved,
            },
            footprint_um2: footprint,
            memory_die_utilization: mem_area / footprint,
            logic_die_utilization: (self.logic_cell_area_um2 + moved_area) / footprint,
        }
    }

    /// All candidate 3D partitions, in exploration order.
    pub fn partition_candidates(&self) -> Vec<PartitionCandidate> {
        (0..=(self.num_banks + 1))
            .map(|k| self.evaluate_partition(k))
            .collect()
    }

    fn place_3d(&mut self) {
        // Prefer the earliest candidate on ties: fewer spilled macros mean
        // fewer F2F-crossing exceptions.
        let mut candidates = self.partition_candidates().into_iter();
        let mut best = candidates.next().expect("at least one partition candidate");
        for candidate in candidates {
            if candidate.footprint_um2 < best.footprint_um2 - 1e-9 {
                best = candidate;
            }
        }
        self.footprint_um2 = best.footprint_um2;
        self.partition = best.partition;
        self.memory_die_utilization = Some(best.memory_die_utilization);
        self.logic_die_utilization = best.logic_die_utilization.min(self.tech.target_density);
    }

    /// The SPM capacity preset of this tile's cluster.
    pub(crate) fn capacity(&self) -> SpmCapacity {
        self.capacity
    }

    /// The implementation flow.
    pub(crate) fn flow(&self) -> Flow {
        self.flow
    }

    /// The technology the tile is implemented in.
    pub(crate) fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Tile footprint (silicon outline of one die) in µm².
    pub fn footprint_um2(&self) -> f64 {
        self.footprint_um2
    }

    /// Tile side length (square outline) in µm.
    pub(crate) fn side_um(&self) -> f64 {
        self.footprint_um2.sqrt()
    }

    /// Achieved standard-cell density on the logic die.
    pub(crate) fn logic_die_utilization(&self) -> f64 {
        self.logic_die_utilization
    }

    /// Memory-die area utilization (3D flows only).
    pub(crate) fn memory_die_utilization(&self) -> Option<f64> {
        self.memory_die_utilization
    }

    /// The 3D partition (trivially `Partition::MEMORY_DIE_ONLY` for 2D).
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// The SPM bank macro.
    pub(crate) fn bank_macro(&self) -> SramMacro {
        self.bank_macro
    }

    /// The I$ bank macro.
    pub(crate) fn icache_macro(&self) -> SramMacro {
        self.icache_macro
    }

    /// Number of Snitch cores in the tile.
    pub(crate) fn num_cores(&self) -> u32 {
        self.num_cores
    }

    /// Number of SPM banks in the tile.
    pub(crate) fn num_banks(&self) -> u32 {
        self.num_banks
    }

    /// Number of I$ banks in the tile.
    pub(crate) fn num_icache_banks(&self) -> u32 {
        self.num_icache_banks
    }

    /// Standard-cell area of the tile logic, in µm².
    pub(crate) fn logic_cell_area_um2(&self) -> f64 {
        self.logic_cell_area_um2
    }

    /// Total SRAM macro area of the tile, in µm².
    pub(crate) fn macro_area_um2(&self) -> f64 {
        self.total_macro_area()
    }

    /// Maximum tile-internal clock frequency in GHz. The tile's critical
    /// register-to-register path runs through the crossbar into an SPM
    /// bank, so it shifts only mildly with bank size — the paper reports a
    /// spread of just 6 % across all eight tiles.
    pub(crate) fn internal_fmax_ghz(&self) -> f64 {
        let path_ps = 620.0 + 0.35 * self.bank_macro.access_delay_ps();
        1000.0 / path_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(cap: SpmCapacity, flow: Flow) -> TileImplementation {
        TileImplementation::implement(cap, flow)
    }

    #[test]
    fn baseline_memory_die_utilization_matches_paper_anchor() {
        // Paper Table I: the 1 MiB memory die is 51 % utilized.
        let t = tile(SpmCapacity::MiB1, Flow::ThreeD);
        let util = t.memory_die_utilization().unwrap();
        assert!(
            (0.47..=0.55).contains(&util),
            "1 MiB memory-die utilization {util:.3} should be near 0.51"
        );
    }

    #[test]
    fn memory_die_utilization_rises_with_capacity() {
        let mut last = 0.0;
        for cap in SpmCapacity::ALL {
            let util = tile(cap, Flow::ThreeD).memory_die_utilization().unwrap();
            assert!(util > last, "{cap}: utilization {util} must rise");
            assert!(util <= 1.0);
            last = util;
        }
    }

    #[test]
    fn small_3d_tiles_share_a_footprint() {
        // Paper Table I: the 1 and 2 MiB 3D tiles have identical
        // footprints (the memory die has slack).
        let f1 = tile(SpmCapacity::MiB1, Flow::ThreeD).footprint_um2();
        let f2 = tile(SpmCapacity::MiB2, Flow::ThreeD).footprint_um2();
        assert!((f1 - f2).abs() / f1 < 1e-9);
    }

    #[test]
    fn three_d_footprint_is_smaller_than_2d() {
        for cap in SpmCapacity::ALL {
            let f2d = tile(cap, Flow::TwoD).footprint_um2();
            let f3d = tile(cap, Flow::ThreeD).footprint_um2();
            assert!(f3d < f2d, "{cap}: 3D {f3d} must beat 2D {f2d}");
            // But 3D consumes more total silicon.
            let c3d = 2.0 * f3d;
            assert!(c3d > f2d, "{cap}: combined 3D area exceeds the 2D die");
        }
    }

    #[test]
    fn footprint_ratio_near_paper_values() {
        // Paper: the 1 MiB 3D tile footprint is 0.667x the 2D one.
        let f2d = tile(SpmCapacity::MiB1, Flow::TwoD).footprint_um2();
        let f3d = tile(SpmCapacity::MiB1, Flow::ThreeD).footprint_um2();
        let ratio = f3d / f2d;
        assert!(
            (0.60..=0.72).contains(&ratio),
            "1 MiB 3D/2D footprint ratio {ratio:.3} should be near 0.667"
        );
    }

    #[test]
    fn two_d_footprints_grow_with_capacity() {
        let mut last = 0.0;
        for cap in SpmCapacity::ALL {
            let f = tile(cap, Flow::TwoD).footprint_um2();
            assert!(f > last, "{cap}");
            last = f;
        }
        // Growth accelerates: 8 MiB should be 1.5-2.1x the baseline.
        let ratio = tile(SpmCapacity::MiB8, Flow::TwoD).footprint_um2()
            / tile(SpmCapacity::MiB1, Flow::TwoD).footprint_um2();
        assert!((1.5..=2.1).contains(&ratio), "8 MiB 2D growth {ratio:.3}");
    }

    #[test]
    fn eight_mib_partition_spills_icache_and_a_bank() {
        // Paper Section IV: the 8 MiB tile keeps 15 banks on the memory
        // die; one bank and the I$ spill to the logic die.
        let t = tile(SpmCapacity::MiB8, Flow::ThreeD);
        let p = t.partition();
        assert!(p.icache_on_logic_die, "I$ must move to the logic die");
        assert!(
            (1..=3).contains(&p.banks_on_logic_die),
            "about one SPM bank spills (got {})",
            p.banks_on_logic_die
        );
        let util = t.memory_die_utilization().unwrap();
        assert!(util > 0.9, "8 MiB memory die is near full ({util:.3})");
    }

    #[test]
    fn small_configurations_keep_everything_on_memory_die() {
        for cap in [SpmCapacity::MiB1, SpmCapacity::MiB2, SpmCapacity::MiB4] {
            let p = tile(cap, Flow::ThreeD).partition();
            assert_eq!(p, Partition::MEMORY_DIE_ONLY, "{cap}");
        }
    }

    #[test]
    fn internal_fmax_spread_is_small() {
        // Paper: the fastest tile is only ~6 % faster than the slowest.
        let fs: Vec<f64> = SpmCapacity::ALL
            .iter()
            .flat_map(|&cap| Flow::ALL.map(|flow| tile(cap, flow).internal_fmax_ghz()))
            .collect();
        let max = fs.iter().cloned().fold(f64::MIN, f64::max);
        let min = fs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.10, "tile fmax spread {:.3}", max / min);
        assert!(min > 1.0, "tiles comfortably meet 1 GHz internally");
    }

    #[test]
    fn logic_utilization_at_or_below_target() {
        for cap in SpmCapacity::ALL {
            for flow in Flow::ALL {
                let u = tile(cap, flow).logic_die_utilization();
                assert!((0.80..=0.90001).contains(&u), "{cap} {flow}: {u}");
            }
        }
    }
}
