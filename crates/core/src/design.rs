//! Design points of the exploration.

use std::fmt;

use mempool_arch::SpmCapacity;
use mempool_phys::{Flow, GroupImplementation, TileImplementation};

/// One of the eight MemPool configurations the paper implements:
/// a flow (2D or 3D) paired with an SPM capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DesignPoint {
    /// Implementation flow.
    pub flow: Flow,
    /// Total shared-L1 SPM capacity.
    pub capacity: SpmCapacity,
}

impl DesignPoint {
    /// Creates a design point.
    pub fn new(flow: Flow, capacity: SpmCapacity) -> Self {
        DesignPoint { flow, capacity }
    }

    /// The paper's baseline: `MemPool-2D_1MiB`.
    pub fn baseline() -> Self {
        DesignPoint::new(Flow::TwoD, SpmCapacity::MiB1)
    }

    /// All eight design points, 2D first, capacities ascending — the
    /// column order of Table II is capacity-major instead; use
    /// `all_capacity_major` for that.
    pub fn all() -> impl Iterator<Item = DesignPoint> {
        Flow::ALL.into_iter().flat_map(|flow| {
            SpmCapacity::ALL
                .into_iter()
                .map(move |capacity| DesignPoint { flow, capacity })
        })
    }

    /// All eight design points in Table II's column order: for each
    /// capacity, 2D then 3D.
    pub(crate) fn all_capacity_major() -> impl Iterator<Item = DesignPoint> {
        SpmCapacity::ALL.into_iter().flat_map(|capacity| {
            Flow::ALL
                .into_iter()
                .map(move |flow| DesignPoint { flow, capacity })
        })
    }

    /// The paper's name for this instance, e.g. `MemPool-3D_4MiB`.
    pub fn name(&self) -> String {
        format!("MemPool-{}_{}MiB", self.flow, self.capacity.mebibytes())
    }

    /// Runs the physical tile implementation.
    pub(crate) fn implement_tile(&self) -> TileImplementation {
        TileImplementation::implement(self.capacity, self.flow)
    }

    /// Runs the physical group implementation.
    pub fn implement_group(&self) -> GroupImplementation {
        GroupImplementation::implement(self.capacity, self.flow)
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        assert_eq!(DesignPoint::baseline().name(), "MemPool-2D_1MiB");
        assert_eq!(
            DesignPoint::new(Flow::ThreeD, SpmCapacity::MiB8).name(),
            "MemPool-3D_8MiB"
        );
    }

    #[test]
    fn all_yields_eight_unique_points() {
        let points: Vec<_> = DesignPoint::all().collect();
        assert_eq!(points.len(), 8);
        let unique: std::collections::HashSet<_> = points.iter().collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn capacity_major_interleaves_flows() {
        let points: Vec<_> = DesignPoint::all_capacity_major().collect();
        assert_eq!(points[0].flow, Flow::TwoD);
        assert_eq!(points[1].flow, Flow::ThreeD);
        assert_eq!(points[0].capacity, points[1].capacity);
    }
}
