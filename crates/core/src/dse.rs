//! Design-space exploration utilities on top of the eight design points.
//!
//! The paper's Figures 7-9 describe a performance/efficiency trade; this
//! module makes the decision support explicit: multi-objective scoring
//! and the Pareto frontier. One of the
//! paper's implicit results falls out as a theorem of the model: *every*
//! Pareto-optimal design is a 3D design.

use crate::design::DesignPoint;
use crate::experiments::{Evaluation, SECTION_VI_B_BANDWIDTH};
use crate::table::TextTable;

/// The objective a designer may optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Matmul performance (higher is better).
    Performance,
    /// Energy efficiency (higher is better).
    Efficiency,
    /// Energy-delay product (lower is better).
    Edp,
    /// Silicon cost: combined die area (lower is better).
    CombinedArea,
}

impl Objective {
    /// All objectives.
    pub const ALL: [Objective; 4] = [
        Objective::Performance,
        Objective::Efficiency,
        Objective::Edp,
        Objective::CombinedArea,
    ];

    /// Score of a point under this objective, oriented so that **larger is
    /// always better**.
    pub(crate) fn score(&self, eval: &Evaluation, point: DesignPoint) -> f64 {
        let bw = SECTION_VI_B_BANDWIDTH;
        match self {
            Objective::Performance => eval.performance(point, bw),
            Objective::Efficiency => eval.efficiency(point, bw),
            Objective::Edp => -eval.edp(point, bw),
            Objective::CombinedArea => -eval.group(point).combined_die_area_um2,
        }
    }
}

/// A scored design point.
#[derive(Debug, Clone, Copy)]
pub struct ScoredPoint {
    /// The design point.
    pub point: DesignPoint,
    /// Oriented scores, indexed as [`Objective::ALL`].
    pub scores: [f64; 4],
}

impl ScoredPoint {
    /// Scores one design point under all objectives — the single scoring
    /// path shared by the in-process [`DesignSpace::explore`] and the
    /// experiment service's per-point requests, so a sweep routed through
    /// the service reproduces the one-shot numbers bit-for-bit.
    pub fn score_all(eval: &Evaluation, point: DesignPoint) -> Self {
        let mut scores = [0.0; 4];
        for (slot, objective) in scores.iter_mut().zip(Objective::ALL) {
            *slot = objective.score(eval, point);
        }
        ScoredPoint { point, scores }
    }

    /// Dominance restricted to a set of objectives.
    pub(crate) fn dominates_on(&self, other: &ScoredPoint, objectives: &[Objective]) -> bool {
        let mut strictly = false;
        for objective in objectives {
            let index = Objective::ALL
                .iter()
                .position(|o| o == objective)
                .expect("objective is in ALL");
            let (a, b) = (self.scores[index], other.scores[index]);
            if a < b {
                return false;
            }
            if a > b {
                strictly = true;
            }
        }
        strictly
    }
}

/// The explored design space.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    points: Vec<ScoredPoint>,
}

impl DesignSpace {
    /// Scores all eight design points under all objectives.
    pub fn explore(eval: &Evaluation) -> Self {
        DesignSpace {
            points: DesignPoint::all()
                .map(|point| ScoredPoint::score_all(eval, point))
                .collect(),
        }
    }

    /// Assembles a design space from externally computed scores — the
    /// entry point for batch clients (`mempool-serve`) that fetch each
    /// point's scores through the experiment service and its cache
    /// instead of scoring in-process. Point order is preserved.
    pub fn from_scored(points: Vec<ScoredPoint>) -> Self {
        DesignSpace { points }
    }

    /// All scored points.
    pub fn points(&self) -> &[ScoredPoint] {
        &self.points
    }

    /// The Pareto-optimal points under all four objectives (including
    /// silicon cost).
    pub fn pareto_front(&self) -> Vec<DesignPoint> {
        self.pareto_front_for(&Objective::ALL)
    }

    /// The Pareto-optimal points under a chosen set of objectives.
    pub(crate) fn pareto_front_for(&self, objectives: &[Objective]) -> Vec<DesignPoint> {
        self.points
            .iter()
            .filter(|candidate| {
                !self
                    .points
                    .iter()
                    .any(|other| other.dominates_on(candidate, objectives))
            })
            .map(|p| p.point)
            .collect()
    }

    /// Renders the exploration.
    pub fn to_text(&self) -> String {
        let front = self.pareto_front();
        let mut t = TextTable::new(["design", "perf", "eff", "EDP", "area", "pareto"]);
        for sp in &self.points {
            t.row([
                sp.point.name(),
                format!("{:.3}", sp.scores[0]),
                format!("{:.3}", sp.scores[1]),
                format!("{:.3}", -sp.scores[2]),
                format!("{:.2} mm2", -sp.scores[3] / 1e6),
                if front.contains(&sp.point) { "*" } else { "" }.to_string(),
            ]);
        }
        format!("Design-space exploration (16 B/cycle)\n{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use mempool_phys::Flow;

    fn space() -> DesignSpace {
        DesignSpace::explore(&Evaluation::new())
    }

    #[test]
    fn every_ppa_pareto_point_is_3d() {
        // The model-level version of the paper's thesis: on pure PPA
        // (performance, efficiency, EDP), no 2D design survives.
        let front = space().pareto_front_for(&[
            Objective::Performance,
            Objective::Efficiency,
            Objective::Edp,
        ]);
        assert!(!front.is_empty());
        for point in &front {
            assert_eq!(point.flow, Flow::ThreeD, "{point} on the PPA front");
        }
    }

    #[test]
    fn cost_objective_keeps_cheap_2d_dies_alive() {
        // The paper's caveat: combined die area is the *cost* of 3D. With
        // silicon cost as an objective, the cheapest 2D die survives.
        let front = space().pareto_front();
        assert!(
            front.contains(&DesignPoint::baseline()),
            "the 2D 1 MiB baseline is the cost anchor: {front:?}"
        );
    }

    #[test]
    fn front_is_internally_non_dominated() {
        let s = space();
        let front = s.pareto_front();
        let scored: Vec<&ScoredPoint> = s
            .points()
            .iter()
            .filter(|p| front.contains(&p.point))
            .collect();
        for a in &scored {
            for b in &scored {
                assert!(
                    !a.dominates_on(b, &Objective::ALL),
                    "{} dominates {}",
                    a.point,
                    b.point
                );
            }
        }
    }

    #[test]
    fn dominance_is_irreflexive_and_asymmetric() {
        let s = space();
        for a in s.points() {
            let all = &Objective::ALL;
            assert!(!a.dominates_on(a, all));
            for b in s.points() {
                assert!(!(a.dominates_on(b, all) && b.dominates_on(a, all)));
            }
        }
    }

    #[test]
    fn from_scored_reproduces_explore_exactly() {
        let eval = Evaluation::new();
        let direct = DesignSpace::explore(&eval);
        let assembled = DesignSpace::from_scored(
            DesignPoint::all()
                .map(|p| ScoredPoint::score_all(&eval, p))
                .collect(),
        );
        assert_eq!(direct.to_text(), assembled.to_text());
        for (a, b) in direct.points().iter().zip(assembled.points()) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.scores, b.scores);
        }
    }

    #[test]
    fn rendering_marks_the_front() {
        let text = space().to_text();
        assert!(text.contains('*'));
        assert!(text.contains("pareto"));
    }
}
