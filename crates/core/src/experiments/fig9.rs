//! Figure 9: energy-delay product versus SPM capacity (16 B/cycle).

use mempool_obs::Json;

use crate::experiments::capacity_bars::{self, CapacityBar};
use crate::experiments::Evaluation;
use crate::paper;

const TITLE: &str = "energy-delay product vs SPM capacity";

/// The reproduced Figure 9: EDP relative to MemPool-2D(1 MiB), and of
/// each 3D instance relative to its 2D counterpart.
#[derive(Debug, Clone)]
pub struct Fig9 {
    bars: Vec<CapacityBar>,
}

impl Fig9 {
    /// Computes the figure from an evaluation.
    pub fn from_evaluation(eval: &Evaluation) -> Self {
        Fig9 {
            bars: capacity_bars::bars(eval, Evaluation::edp),
        }
    }

    /// The design point with the lowest EDP.
    pub(crate) fn best(&self) -> &CapacityBar {
        self.bars
            .iter()
            .min_by(|a, b| a.value.total_cmp(&b.value))
            .expect("bars are nonempty")
    }

    /// Renders the figure as text.
    pub fn to_text(&self) -> String {
        let heading = format!("Figure 9: {TITLE}");
        let better = "; lower is better";
        let table = capacity_bars::table(&self.bars, &heading, better, "EDP", |percent| {
            format!("{percent:+.1} %")
        });
        format!(
            "{table}best EDP: {} at {:.3} (paper: MemPool-3D_1MiB at {:.3})\n",
            self.best().point,
            self.best().value,
            paper::FIG9_3D_1MIB_VS_BASELINE
        )
    }

    /// Serializes the figure — the same bars [`Self::to_text`] prints.
    pub fn to_json(&self) -> Json {
        let best = Json::obj([
            ("design", Json::str(self.best().point.name())),
            ("edp", Json::Float(self.best().value)),
        ]);
        let paper = Json::Float(paper::FIG9_3D_1MIB_VS_BASELINE);
        let extras = vec![("best", best), ("paper_3d_1mib_vs_baseline", paper)];
        capacity_bars::json(&self.bars, "fig9", TITLE, ["edp", "vs_2d"], extras)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::SpmCapacity;
    use mempool_phys::Flow;

    fn fig() -> Fig9 {
        Fig9::from_evaluation(&Evaluation::new())
    }

    fn bar(f: &Fig9, flow: Flow, capacity: SpmCapacity) -> &CapacityBar {
        capacity_bars::find(&f.bars, flow, capacity)
    }

    #[test]
    fn three_d_has_lower_edp_at_every_capacity() {
        let f = fig();
        for cap in SpmCapacity::ALL {
            assert!(bar(&f, Flow::ThreeD, cap).vs_2d.unwrap() < 1.0, "{cap}");
        }
    }

    #[test]
    fn edp_of_3d_1mib_near_paper() {
        let edp = bar(&fig(), Flow::ThreeD, SpmCapacity::MiB1).value;
        assert!(
            (edp - paper::FIG9_3D_1MIB_VS_BASELINE).abs() < 0.05,
            "3D 1 MiB EDP {edp:.3} vs paper {:.3}",
            paper::FIG9_3D_1MIB_VS_BASELINE
        );
    }

    #[test]
    fn best_design_is_a_small_3d_instance() {
        // The paper's optimum is MemPool-3D(1 MiB); our model lands the
        // optimum on one of the small 3D points (1-4 MiB) — never on a 2D
        // design and never on the 8 MiB giant.
        let best = fig().best().point;
        assert_eq!(best.flow, Flow::ThreeD, "best EDP must be a 3D design");
        assert!(
            best.capacity < SpmCapacity::MiB8,
            "best EDP is a small instance"
        );
    }

    #[test]
    fn edp_worsens_toward_8mib() {
        let f = fig();
        for flow in Flow::ALL {
            assert!(
                bar(&f, flow, SpmCapacity::MiB8).value > bar(&f, flow, SpmCapacity::MiB1).value,
                "{flow}: 8 MiB EDP must exceed 1 MiB"
            );
        }
    }

    #[test]
    fn rendering_names_the_best_point() {
        assert!(fig().to_text().contains("best EDP"));
    }
}
