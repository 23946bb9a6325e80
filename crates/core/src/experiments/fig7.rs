//! Figure 7: matmul performance versus SPM capacity (16 B/cycle).

use mempool_arch::SpmCapacity;
use mempool_obs::Json;
use mempool_phys::Flow;

use crate::experiments::capacity_bars::{self, CapacityBar};
use crate::experiments::Evaluation;
use crate::paper;

const TITLE: &str = "matmul performance vs SPM capacity";

/// The reproduced Figure 7: performance relative to MemPool-2D(1 MiB),
/// and the speedup of each 3D instance over its 2D counterpart.
#[derive(Debug, Clone)]
pub struct Fig7 {
    bars: Vec<CapacityBar>,
}

impl Fig7 {
    /// Computes the figure from an evaluation.
    pub fn from_evaluation(eval: &Evaluation) -> Self {
        Fig7 {
            bars: capacity_bars::bars(eval, Evaluation::performance),
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
        let heading = format!("Figure 7: {TITLE}");
        let table = capacity_bars::table(&self.bars, &heading, "", "performance", |percent| {
            format!("+{percent:.1} %")
        });
        let gain = self.bar(Flow::ThreeD, SpmCapacity::MiB4).vs_2d.unwrap();
        format!(
            "{table}3D vs 2D at 4 MiB: {:+.1} % (paper: {:+.1} %)\n",
            (gain - 1.0) * 100.0,
            (paper::FIG7_3D_VS_2D_4MIB - 1.0) * 100.0
        )
    }

    /// Serializes the figure — the same bars [`Self::to_text`] prints.
    pub fn to_json(&self) -> Json {
        let keys = ["performance", "gain_over_2d"];
        let paper = Json::Float(paper::FIG7_3D_VS_2D_4MIB);
        let extras = vec![("paper_3d_vs_2d_4mib", paper)];
        capacity_bars::json(&self.bars, "fig7", TITLE, keys, extras)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig7 {
        Fig7::generate()
    }

    #[test]
    fn three_d_outperforms_2d_at_every_capacity() {
        let f = fig();
        for cap in SpmCapacity::ALL {
            let gain = f.bar(Flow::ThreeD, cap).vs_2d.unwrap();
            assert!(gain > 1.0, "{cap}: 3D gain {gain:.3}");
        }
    }

    #[test]
    fn four_mib_gain_matches_paper_headline() {
        let gain = fig().bar(Flow::ThreeD, SpmCapacity::MiB4).vs_2d.unwrap();
        assert!(
            (gain - paper::FIG7_3D_VS_2D_4MIB).abs() < 0.035,
            "4 MiB gain {gain:.3} vs paper {:.3}",
            paper::FIG7_3D_VS_2D_4MIB
        );
    }

    #[test]
    fn three_d_performance_rises_with_capacity() {
        // Paper: "the MemPool-3D designs achieve consistently higher
        // performances with increasing SPM capacity".
        let f = fig();
        let mut last = 0.0;
        for cap in SpmCapacity::ALL {
            let perf = f.bar(Flow::ThreeD, cap).value;
            assert!(
                perf > 0.97 * last,
                "{cap}: 3D performance {perf:.3} dropped sharply"
            );
            last = last.max(perf);
        }
        // And the large 3D points beat the baseline by a margin in the
        // paper's ballpark (8.4 % for 8 MiB).
        let p8 = f.bar(Flow::ThreeD, SpmCapacity::MiB8).value;
        assert!(
            (1.04..1.15).contains(&p8),
            "3D 8 MiB performance {p8:.3} (paper: 1.084)"
        );
    }

    #[test]
    fn two_d_gains_stay_small() {
        // Paper: the 2D designs gain at most ~3 % from more SPM.
        let f = fig();
        for cap in SpmCapacity::ALL {
            let perf = f.bar(Flow::TwoD, cap).value;
            assert!(
                (0.93..1.07).contains(&perf),
                "{cap}: 2D performance {perf:.3} should hover near 1.0"
            );
        }
    }

    #[test]
    fn rendering_lists_all_bars() {
        let text = fig().to_text();
        assert!(text.contains("MemPool-3D_8MiB"));
        assert!(text.contains("paper"));
    }
}
