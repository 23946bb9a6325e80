//! Figure 8: energy efficiency versus SPM capacity (16 B/cycle).

use mempool_arch::SpmCapacity;
use mempool_obs::Json;
use mempool_phys::Flow;

use crate::experiments::capacity_bars::{self, CapacityBar};
use crate::experiments::Evaluation;
use crate::paper;

const TITLE: &str = "energy efficiency vs SPM capacity";

/// The reproduced Figure 8: energy efficiency relative to
/// MemPool-2D(1 MiB), and the gain of each 3D instance over its 2D
/// counterpart.
#[derive(Debug, Clone)]
pub struct Fig8 {
    bars: Vec<CapacityBar>,
}

impl Fig8 {
    /// Computes the figure from an evaluation.
    pub fn from_evaluation(eval: &Evaluation) -> Self {
        Fig8 {
            bars: capacity_bars::bars(eval, Evaluation::efficiency),
        }
    }

    /// Implements everything and computes the figure.
    pub fn generate() -> Self {
        Self::from_evaluation(&Evaluation::new())
    }

    /// Looks up one bar.
    pub fn bar(&self, flow: Flow, capacity: SpmCapacity) -> &CapacityBar {
        capacity_bars::find(&self.bars, flow, capacity)
    }

    /// Renders the figure as text.
    pub fn to_text(&self) -> String {
        let heading = format!("Figure 8: {TITLE}");
        let better = "; higher is better";
        let table = capacity_bars::table(&self.bars, &heading, better, "efficiency", |percent| {
            format!("+{percent:.1} %")
        });
        format!(
            "{table}3D 1MiB vs baseline: {:+.1} % (paper: {:+.0} %)\n3D vs 2D at 4 MiB: {:+.1} % (paper: {:+.1} %)\n",
            (self.bar(Flow::ThreeD, SpmCapacity::MiB1).value - 1.0) * 100.0,
            (paper::FIG8_3D_1MIB_VS_BASELINE - 1.0) * 100.0,
            (self.bar(Flow::ThreeD, SpmCapacity::MiB4).vs_2d.unwrap() - 1.0) * 100.0,
            (paper::FIG8_3D_VS_2D_4MIB - 1.0) * 100.0,
        )
    }

    /// Serializes the figure — the same bars [`Self::to_text`] prints.
    pub fn to_json(&self) -> Json {
        let keys = ["efficiency", "gain_over_2d"];
        capacity_bars::json(&self.bars, "fig8", TITLE, keys, Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig8 {
        Fig8::generate()
    }

    #[test]
    fn three_d_is_more_efficient_at_every_capacity() {
        let f = fig();
        for cap in SpmCapacity::ALL {
            assert!(f.bar(Flow::ThreeD, cap).vs_2d.unwrap() > 1.0, "{cap}");
        }
    }

    #[test]
    fn efficiency_decreases_with_capacity_in_2d() {
        // Paper: "increasing the SPM size in the 2D case leads to worse
        // energy efficiency", bottoming out ~21 % below baseline.
        let f = fig();
        let mut last = f64::MAX;
        for cap in SpmCapacity::ALL {
            let e = f.bar(Flow::TwoD, cap).value;
            assert!(
                e < last + 0.02,
                "{cap}: 2D efficiency {e:.3} must trend down"
            );
            last = e;
        }
        let e8 = f.bar(Flow::TwoD, SpmCapacity::MiB8).value;
        assert!(
            (0.72..0.90).contains(&e8),
            "2D 8 MiB efficiency {e8:.3} (paper: 0.79)"
        );
    }

    #[test]
    fn headline_gains_near_paper() {
        let f = fig();
        let g1 = f.bar(Flow::ThreeD, SpmCapacity::MiB1).value;
        assert!(
            (g1 - paper::FIG8_3D_1MIB_VS_BASELINE).abs() < 0.06,
            "3D 1 MiB efficiency {g1:.3} vs paper {:.3}",
            paper::FIG8_3D_1MIB_VS_BASELINE
        );
        let g4 = f.bar(Flow::ThreeD, SpmCapacity::MiB4).vs_2d.unwrap();
        assert!(
            (g4 - paper::FIG8_3D_VS_2D_4MIB).abs() < 0.06,
            "4 MiB 3D gain {g4:.3} vs paper {:.3}",
            paper::FIG8_3D_VS_2D_4MIB
        );
    }

    #[test]
    fn three_d_4mib_beats_the_baseline_despite_4x_spm() {
        // Paper: MemPool-3D(4 MiB) runs on an energy budget smaller than
        // MemPool-2D(1 MiB) — efficiency above 1.0.
        let f = fig();
        assert!(f.bar(Flow::ThreeD, SpmCapacity::MiB4).value > 1.0);
    }

    #[test]
    fn all_but_largest_3d_beat_the_baseline() {
        // Paper: "all but the largest 3D designs achieve a better energy
        // efficiency than the 2D baseline".
        let f = fig();
        for cap in [SpmCapacity::MiB1, SpmCapacity::MiB2, SpmCapacity::MiB4] {
            assert!(f.bar(Flow::ThreeD, cap).value > 1.0, "{cap}");
        }
    }

    #[test]
    fn rendering_mentions_the_paper() {
        assert!(fig().to_text().contains("paper"));
    }
}
