//! Ablation studies on the design choices the paper relies on.
//!
//! The paper's argument chain is: MemPool is wire-delay-dominated → 3D
//! shrinks the footprint → shorter wires → higher frequency and lower
//! power. These ablations perturb each link of that chain through the
//! physical model's technology parameters:
//!
//! * [`WireDelaySweep`] — scale the per-mm wire delay: the 3D frequency
//!   advantage must grow as wires dominate (the core thesis);
//! * [`F2fPitchSweep`] — coarsen the F2F bond pitch: hybrid bonding's
//!   1 µm pitch is what makes the memory-on-logic partition free of
//!   power-delivery compromises;
//! * [`PartitionSweep`] — compare all logic/memory-die partitions of the
//!   8 MiB tile against the paper's choice (15 banks on the memory die);
//! * [`RepeaterSweep`] — vary the repeater spacing: buffer count trades
//!   against wire delay exactly as the 75 %-buffers observation suggests.

use mempool_arch::{ClusterConfig, SpmCapacity};
use mempool_phys::netlist::GateInventory;
use mempool_phys::tile::PartitionCandidate;
use mempool_phys::{Flow, GroupImplementation, Technology, TileImplementation};

use crate::table::TextTable;

fn implement(capacity: SpmCapacity, flow: Flow, tech: Technology) -> GroupImplementation {
    GroupImplementation::implement_with(
        &ClusterConfig::with_capacity(capacity),
        flow,
        tech,
        GateInventory::mempool(),
    )
}

/// One point of the wire-delay ablation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireDelayPoint {
    /// Scale applied to the nominal wire delay.
    pub scale: f64,
    /// 2D frequency in GHz.
    pub freq_2d_ghz: f64,
    /// 3D frequency in GHz.
    pub freq_3d_ghz: f64,
    /// 3D-over-2D frequency gain.
    pub gain: f64,
}

/// Sweep of the buffered-wire delay (ps/mm) around the calibrated value.
#[derive(Debug, Clone)]
pub(crate) struct WireDelaySweep {
    points: Vec<WireDelayPoint>,
}

impl WireDelaySweep {
    /// Default scales: from half to double the calibrated wire delay.
    pub(crate) const SCALES: [f64; 5] = [0.5, 0.75, 1.0, 1.5, 2.0];

    /// Runs the sweep at the given capacity.
    pub(crate) fn run(capacity: SpmCapacity) -> Self {
        let points = Self::SCALES
            .iter()
            .map(|&scale| {
                let mut tech = Technology::n28();
                tech.wire_delay_ps_per_mm *= scale;
                let f2 = implement(capacity, Flow::TwoD, tech.clone()).frequency_ghz();
                let f3 = implement(capacity, Flow::ThreeD, tech).frequency_ghz();
                WireDelayPoint {
                    scale,
                    freq_2d_ghz: f2,
                    freq_3d_ghz: f3,
                    gain: f3 / f2,
                }
            })
            .collect();
        WireDelaySweep { points }
    }

    /// Renders the sweep.
    pub(crate) fn to_text(&self) -> String {
        let mut t = TextTable::new(["wire delay scale", "2D [GHz]", "3D [GHz]", "3D gain"]);
        for p in &self.points {
            t.row([
                format!("{:.2}x", p.scale),
                format!("{:.3}", p.freq_2d_ghz),
                format!("{:.3}", p.freq_3d_ghz),
                format!("{:+.1} %", (p.gain - 1.0) * 100.0),
            ]);
        }
        format!("Ablation: wire-delay sensitivity (4 MiB)\n{t}")
    }
}

/// One point of the F2F-pitch ablation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct F2fPitchPoint {
    /// Bond pitch in µm.
    pub pitch_um: f64,
    /// F2F bumps per group.
    pub bumps: u64,
    /// Fraction of the tile footprint consumed by bump pads.
    pub pad_area_fraction: f64,
    /// Whether the memory-on-logic partition remains viable (pads fit in a
    /// reasonable share of the die).
    pub viable: bool,
}

/// Sweep of the F2F bond pitch from hybrid bonding to µ-bumps.
#[derive(Debug, Clone)]
pub(crate) struct F2fPitchSweep {
    points: Vec<F2fPitchPoint>,
}

impl F2fPitchSweep {
    /// Pitches swept, in µm (1.0 is the paper's hybrid bonding; 10+ is
    /// classic µ-bump territory; 100 approaches C4).
    pub(crate) const PITCHES: [f64; 5] = [0.5, 1.0, 2.0, 10.0, 40.0];

    /// Pad area above this fraction of the footprint makes the
    /// partitioning non-viable.
    pub(crate) const VIABILITY_LIMIT: f64 = 0.25;

    /// Runs the sweep at the given capacity.
    pub(crate) fn run(capacity: SpmCapacity) -> Self {
        let points = Self::PITCHES
            .iter()
            .map(|&pitch_um| {
                let mut tech = Technology::n28();
                // Power-bump density cannot exceed one per pad cell; keep
                // the calibrated electrical requirement otherwise.
                tech.f2f_pitch_um = pitch_um;
                tech.f2f_power_bump_density =
                    tech.f2f_power_bump_density.min(1.0 / (pitch_um * pitch_um));
                let config = ClusterConfig::with_capacity(capacity);
                let tile = TileImplementation::implement_with(
                    &config,
                    Flow::ThreeD,
                    tech.clone(),
                    GateInventory::mempool(),
                );
                let group = implement(capacity, Flow::ThreeD, tech.clone());
                let bumps = group.f2f_bumps().unwrap_or(0);
                let per_tile = bumps as f64 / 16.0;
                let pad_area_fraction = per_tile * pitch_um * pitch_um / tile.footprint_um2();
                F2fPitchPoint {
                    pitch_um,
                    bumps,
                    pad_area_fraction,
                    viable: pad_area_fraction <= Self::VIABILITY_LIMIT,
                }
            })
            .collect();
        F2fPitchSweep { points }
    }

    /// Renders the sweep.
    pub(crate) fn to_text(&self) -> String {
        let mut t = TextTable::new(["pitch [um]", "bumps/group", "pad area", "viable"]);
        for p in &self.points {
            t.row([
                format!("{:.1}", p.pitch_um),
                format!("{}", p.bumps),
                format!("{:.1} %", p.pad_area_fraction * 100.0),
                if p.viable { "yes" } else { "no" }.to_string(),
            ]);
        }
        format!("Ablation: F2F bond pitch (memory-on-logic viability)\n{t}")
    }
}

/// Sweep of the 8 MiB tile's logic/memory-die partitions.
#[derive(Debug, Clone)]
pub(crate) struct PartitionSweep {
    candidates: Vec<PartitionCandidate>,
    chosen: usize,
}

impl PartitionSweep {
    /// Evaluates all partitions of the given capacity's 3D tile.
    pub(crate) fn run(capacity: SpmCapacity) -> Self {
        let tile = TileImplementation::implement(capacity, Flow::ThreeD);
        let candidates = tile.partition_candidates();
        let chosen = candidates
            .iter()
            .position(|c| c.partition == tile.partition())
            .expect("the chosen partition is among the candidates");
        PartitionSweep { candidates, chosen }
    }

    /// Renders the sweep.
    pub(crate) fn to_text(&self) -> String {
        let mut t = TextTable::new(["partition", "footprint [mm2]", "mem util", "chosen"]);
        for (i, c) in self.candidates.iter().enumerate() {
            let name = if !c.partition.icache_on_logic_die {
                "all on memory die".to_string()
            } else {
                format!("I$ + {} bank(s) spilled", c.partition.banks_on_logic_die)
            };
            t.row([
                name,
                format!("{:.3}", c.footprint_um2 / 1e6),
                format!("{:.0} %", c.memory_die_utilization * 100.0),
                if i == self.chosen { "<=" } else { "" }.to_string(),
            ]);
        }
        format!("Ablation: 3D tile partitioning (8 MiB)\n{t}")
    }
}

/// One point of the repeater-spacing ablation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RepeaterPoint {
    /// Repeater spacing in mm.
    pub spacing_mm: f64,
    /// Buffer count of the 2D baseline group.
    pub buffers: f64,
    /// Power of the 2D baseline group in mW.
    pub power_mw: f64,
}

/// Sweep of the repeater spacing (the buffers-vs-delay trade).
#[derive(Debug, Clone)]
pub(crate) struct RepeaterSweep {
    points: Vec<RepeaterPoint>,
}

impl RepeaterSweep {
    /// Spacings in mm around the calibrated 0.20 mm.
    pub(crate) const SPACINGS: [f64; 4] = [0.10, 0.20, 0.35, 0.50];

    /// Runs the sweep on the 2D baseline.
    pub(crate) fn run() -> Self {
        let points = Self::SPACINGS
            .iter()
            .map(|&spacing_mm| {
                let mut tech = Technology::n28();
                tech.repeater_spacing_mm = spacing_mm;
                // Sparser repeaters drive longer RC segments: delay grows
                // superlinearly with segment length; first order, scale
                // per-mm delay with the spacing ratio.
                tech.wire_delay_ps_per_mm *= (spacing_mm / 0.20).sqrt();
                let group = implement(SpmCapacity::MiB1, Flow::TwoD, tech);
                RepeaterPoint {
                    spacing_mm,
                    buffers: group.buffers(),
                    power_mw: group.total_power_mw(),
                }
            })
            .collect();
        RepeaterSweep { points }
    }

    /// Renders the sweep.
    pub(crate) fn to_text(&self) -> String {
        let mut t = TextTable::new(["spacing [mm]", "buffers [k]", "power [W]"]);
        for p in &self.points {
            t.row([
                format!("{:.2}", p.spacing_mm),
                format!("{:.0}", p.buffers / 1000.0),
                format!("{:.2}", p.power_mw / 1000.0),
            ]);
        }
        format!("Ablation: repeater spacing (2D 1 MiB)\n{t}")
    }
}

/// One point of the instruction-cache ablation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IcachePoint {
    /// Whether the I$ was preloaded (the paper's hot-cache methodology).
    pub hot: bool,
    /// Compute-phase cycles.
    pub cycles: u64,
    /// Cycles lost to I$ miss stalls.
    pub miss_stalls: u64,
}

/// Hot-vs-cold instruction-cache ablation: quantifies how much the
/// paper's "hot instruction cache" measurement assumption matters for the
/// compute-phase numbers feeding Figure 6.
#[derive(Debug, Clone)]
pub(crate) struct IcacheSweep {
    points: Vec<IcachePoint>,
}

impl IcacheSweep {
    /// Runs one compute phase hot and cold on a 16-core instance.
    ///
    /// # Panics
    ///
    /// Panics if the underlying simulation fails (deterministic in tests).
    pub(crate) fn run() -> Self {
        use mempool_kernels::matmul::ComputePhase;
        use mempool_kernels::Kernel;
        use mempool_sim::{Cluster, SimParams};

        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(256)
            .build()
            .expect("valid scaled-down cluster");
        let points = [true, false]
            .into_iter()
            .map(|hot| {
                let mut cluster = Cluster::new(cfg.clone(), SimParams::default());
                let phase = ComputePhase::new(32);
                let program = phase.program(&cluster).expect("codegen");
                phase.setup(&mut cluster).expect("setup");
                cluster.load_program(program);
                if hot {
                    cluster.preload_icaches();
                }
                cluster.run(100_000_000).expect("phase runs");
                phase.verify(&cluster).expect("verify");
                let stats = cluster.stats();
                IcachePoint {
                    hot,
                    cycles: stats.cycles,
                    miss_stalls: stats.cores.iter().map(|c| c.stall_icache).sum(),
                }
            })
            .collect();
        IcacheSweep { points }
    }

    /// Renders the sweep.
    pub(crate) fn to_text(&self) -> String {
        let mut t = TextTable::new(["icache", "cycles", "miss stalls"]);
        for p in &self.points {
            t.row([
                if p.hot { "hot (paper)" } else { "cold" }.to_string(),
                format!("{}", p.cycles),
                format!("{}", p.miss_stalls),
            ]);
        }
        format!(
            "Ablation: instruction-cache state (matmul compute phase, 16 cores)
{t}"
        )
    }
}

/// Renders all ablations into one report.
pub(crate) fn full_report() -> String {
    format!(
        "{}\n{}\n{}\n{}",
        WireDelaySweep::run(SpmCapacity::MiB4).to_text(),
        F2fPitchSweep::run(SpmCapacity::MiB1).to_text(),
        PartitionSweep::run(SpmCapacity::MiB8).to_text(),
        RepeaterSweep::run().to_text(),
    ) + &format!("\n{}", IcacheSweep::run().to_text())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_d_gain_grows_with_wire_dominance() {
        let sweep = WireDelaySweep::run(SpmCapacity::MiB4);
        let gains: Vec<f64> = sweep.points.iter().map(|p| p.gain).collect();
        for pair in gains.windows(2) {
            assert!(
                pair[1] >= pair[0] - 1e-9,
                "3D gain must not shrink as wires slow: {gains:?}"
            );
        }
        assert!(gains[0] > 1.0, "3D wins even with fast wires");
        assert!(
            gains[gains.len() - 1] > gains[0] + 0.02,
            "doubling wire delay must widen the 3D gain: {gains:?}"
        );
    }

    #[test]
    fn hybrid_bonding_is_viable_microbumps_are_not() {
        let sweep = F2fPitchSweep::run(SpmCapacity::MiB1);
        let at = |pitch: f64| {
            sweep
                .points
                .iter()
                .find(|p| (p.pitch_um - pitch).abs() < 1e-9)
                .unwrap()
        };
        assert!(at(1.0).viable, "the paper's 1.0 um pitch must be viable");
        assert!(at(0.5).viable);
        assert!(
            !at(40.0).viable,
            "coarse bump pitches must break the memory-on-logic partition"
        );
    }

    #[test]
    fn pad_area_grows_monotonically_with_pitch() {
        let sweep = F2fPitchSweep::run(SpmCapacity::MiB1);
        let mut last = 0.0;
        for p in &sweep.points {
            assert!(p.pad_area_fraction >= last);
            last = p.pad_area_fraction;
        }
    }

    #[test]
    fn partitioner_choice_is_optimal_and_matches_paper() {
        let sweep = PartitionSweep::run(SpmCapacity::MiB8);
        let chosen = &sweep.candidates[sweep.chosen];
        for c in &sweep.candidates {
            assert!(
                chosen.footprint_um2 <= c.footprint_um2 + 1e-6,
                "chosen partition must minimize footprint"
            );
        }
        // The paper's qualitative result: spilling the I$ plus a bank or
        // two beats both extremes.
        assert!(chosen.partition.icache_on_logic_die);
        assert!(chosen.partition.banks_on_logic_die >= 1);
        assert!(
            sweep.candidates[0].footprint_um2 > chosen.footprint_um2,
            "keeping everything on the memory die must be worse for 8 MiB"
        );
    }

    #[test]
    fn small_capacities_prefer_no_spill() {
        let sweep = PartitionSweep::run(SpmCapacity::MiB1);
        assert_eq!(sweep.chosen, 0, "1 MiB keeps everything on the memory die");
    }

    #[test]
    fn sparser_repeaters_mean_fewer_buffers_and_less_power() {
        let sweep = RepeaterSweep::run();
        let points = &sweep.points;
        for pair in points.windows(2) {
            assert!(pair[1].buffers < pair[0].buffers);
        }
        assert!(
            points.last().unwrap().power_mw < points[0].power_mw,
            "buffer power must drop with sparser repeaters"
        );
    }

    #[test]
    fn hot_icache_beats_cold_but_not_by_much() {
        // The kernel fits the 2 KiB I$, so the cold penalty is a one-time
        // warm-up — the paper's hot-cache methodology is sound for long
        // compute phases.
        let sweep = IcacheSweep::run();
        let hot = sweep.points[0];
        let cold = sweep.points[1];
        assert!(hot.hot && !cold.hot);
        assert_eq!(hot.miss_stalls, 0);
        assert!(cold.miss_stalls > 0);
        assert!(cold.cycles > hot.cycles);
        let overhead = cold.cycles as f64 / hot.cycles as f64;
        assert!(
            overhead < 1.30,
            "cold warm-up must be a small fraction of a full phase ({overhead:.2}x)"
        );
    }

    #[test]
    fn reports_render() {
        let report = full_report();
        for needle in ["wire-delay", "F2F bond pitch", "partitioning", "repeater"] {
            assert!(report.contains(needle), "missing {needle}");
        }
    }
}
