//! The paper's experiments: every table and figure of the evaluation.
//!
//! All experiments normalize against the `MemPool-2D_1MiB` baseline, as
//! the paper does. [`Evaluation`] implements all eight design points once
//! and derives the combined performance/efficiency metrics of Section VI-B
//! from them. [`catalogue::CATALOGUE`] is the index: every experiment
//! `repro` prints and the experiment service serves is one row of it.

pub(crate) mod ablations;
mod capacity_bars;
pub mod catalogue;
pub(crate) mod claims;
pub(crate) mod cluster_level;
pub(crate) mod fig6;
pub(crate) mod fig7;
pub(crate) mod fig8;
pub(crate) mod fig9;
pub(crate) mod resilience;
pub(crate) mod table1;
pub(crate) mod table2;

pub use catalogue::{Context, Experiment, CATALOGUE};
pub(crate) use claims::Claims;
pub(crate) use cluster_level::ClusterLevel;
pub use fig6::Fig6;
pub use fig7::Fig7;
pub use fig8::Fig8;
pub use fig9::Fig9;
pub use resilience::Resilience;
pub use table1::Table1;
pub use table2::Table2;

use mempool_arch::SpmCapacity;
use mempool_kernels::matmul::PhaseModel;
use mempool_phys::report::GroupReport;
use mempool_phys::Flow;

use crate::design::DesignPoint;

/// Off-chip bandwidth Section VI-B uses for the combined metrics
/// (one DDR channel: 16 B/cycle).
pub(crate) const SECTION_VI_B_BANDWIDTH: u32 = 16;

/// All eight implemented design points plus the workload model — the
/// shared substrate of Figures 7-9 and Table II.
#[derive(Debug, Clone)]
pub struct Evaluation {
    groups: Vec<(DesignPoint, GroupReport)>,
    model: PhaseModel,
}

impl Evaluation {
    /// Implements all eight design points with the recorded measured
    /// workload constants.
    pub fn new() -> Self {
        Self::with_model(PhaseModel::with_measured_defaults())
    }

    /// Implements all eight design points with a caller-provided workload
    /// model (e.g. freshly measured constants).
    pub fn with_model(model: PhaseModel) -> Self {
        let groups = DesignPoint::all_capacity_major()
            .map(|p| {
                let group = p.implement_group();
                (p, GroupReport::from(&group))
            })
            .collect();
        Evaluation { groups, model }
    }

    /// The group report of one design point.
    ///
    /// # Panics
    ///
    /// Panics if the point is not one of the eight (cannot happen for
    /// points built from [`Flow`] x [`SpmCapacity`]).
    pub(crate) fn group(&self, point: DesignPoint) -> &GroupReport {
        &self
            .groups
            .iter()
            .find(|(p, _)| *p == point)
            .expect("all eight design points are implemented")
            .1
    }

    /// Clock frequency normalized to the baseline.
    pub fn frequency_norm(&self, point: DesignPoint) -> f64 {
        self.group(point).frequency_ghz / self.group(DesignPoint::baseline()).frequency_ghz
    }

    /// Power normalized to the baseline.
    pub(crate) fn power_norm(&self, point: DesignPoint) -> f64 {
        self.group(point).total_power_mw / self.group(DesignPoint::baseline()).total_power_mw
    }

    /// Matmul cycle count normalized to the baseline capacity at the same
    /// bandwidth (< 1 means fewer cycles).
    pub fn cycles_norm(&self, capacity: SpmCapacity, bytes_per_cycle: u32) -> f64 {
        self.model.total_cycles(capacity, bytes_per_cycle)
            / self.model.total_cycles(SpmCapacity::MiB1, bytes_per_cycle)
    }

    /// Matmul performance (work per second) normalized to the baseline:
    /// frequency x 1/cycles — Figure 7's y-axis.
    pub fn performance(&self, point: DesignPoint, bytes_per_cycle: u32) -> f64 {
        self.frequency_norm(point) / self.cycles_norm(point.capacity, bytes_per_cycle)
    }

    /// Energy efficiency (performance per watt) normalized to the
    /// baseline — Figure 8's y-axis.
    pub fn efficiency(&self, point: DesignPoint, bytes_per_cycle: u32) -> f64 {
        self.performance(point, bytes_per_cycle) / self.power_norm(point)
    }

    /// Energy-delay product normalized to the baseline — Figure 9's
    /// y-axis (lower is better).
    pub fn edp(&self, point: DesignPoint, bytes_per_cycle: u32) -> f64 {
        let runtime = 1.0 / self.performance(point, bytes_per_cycle);
        self.power_norm(point) * runtime * runtime
    }

    /// The 2D counterpart of a point (identity for 2D points).
    pub(crate) fn two_d_counterpart(point: DesignPoint) -> DesignPoint {
        DesignPoint::new(Flow::TwoD, point.capacity)
    }
}

impl Default for Evaluation {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_holds_eight_points() {
        let eval = Evaluation::new();
        assert_eq!(eval.groups.len(), 8);
        assert_eq!(eval.frequency_norm(DesignPoint::baseline()), 1.0);
        assert_eq!(eval.power_norm(DesignPoint::baseline()), 1.0);
    }

    #[test]
    fn performance_composes_frequency_and_cycles() {
        let eval = Evaluation::new();
        let p = DesignPoint::new(Flow::ThreeD, SpmCapacity::MiB8);
        let perf = eval.performance(p, 16);
        let manual = eval.frequency_norm(p) / eval.cycles_norm(SpmCapacity::MiB8, 16);
        assert!((perf - manual).abs() < 1e-12);
        assert!(perf > 1.0, "3D 8 MiB must beat the baseline");
    }

    #[test]
    fn efficiency_and_edp_are_consistent() {
        let eval = Evaluation::new();
        let p = DesignPoint::new(Flow::ThreeD, SpmCapacity::MiB1);
        let perf = eval.performance(p, 16);
        let eff = eval.efficiency(p, 16);
        let edp = eval.edp(p, 16);
        assert!((eff - perf / eval.power_norm(p)).abs() < 1e-12);
        assert!((edp - eval.power_norm(p) / (perf * perf)).abs() < 1e-12);
    }
}
