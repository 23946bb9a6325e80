//! Cluster-level projection (Section V-A's closing argument).
//!
//! The paper implements groups and argues that the cluster level — four
//! groups plus a few thousand glue cells — will favor 3D integration even
//! more, because the 12-layer BEOL shrinks the inter-group channels too.
//! This experiment runs the cluster-level model and quantifies that
//! projection.

use mempool_arch::SpmCapacity;
use mempool_phys::{ClusterImplementation, Flow};

use crate::table::TextTable;

/// One row of the cluster-level projection.
#[derive(Debug, Clone)]
pub(crate) struct ClusterRow {
    /// SPM capacity.
    pub capacity: SpmCapacity,
    /// 3D/2D footprint ratio at the group level.
    pub group_ratio: f64,
    /// 3D/2D footprint ratio at the cluster level.
    pub cluster_ratio: f64,
    /// 2D cluster footprint in mm².
    pub footprint_2d_mm2: f64,
    /// 3D cluster footprint in mm².
    pub footprint_3d_mm2: f64,
    /// Retiming stages of the longest inter-group link (3D).
    pub retime_stages_3d: u32,
}

/// The cluster-level projection experiment.
#[derive(Debug, Clone)]
pub(crate) struct ClusterLevel {
    rows: Vec<ClusterRow>,
}

impl ClusterLevel {
    /// Implements all clusters and builds the comparison.
    pub(crate) fn generate() -> Self {
        let rows = SpmCapacity::ALL
            .into_iter()
            .map(|capacity| {
                let c2 = ClusterImplementation::implement(capacity, Flow::TwoD);
                let c3 = ClusterImplementation::implement(capacity, Flow::ThreeD);
                ClusterRow {
                    capacity,
                    group_ratio: c3.group().footprint_um2() / c2.group().footprint_um2(),
                    cluster_ratio: c3.footprint_um2() / c2.footprint_um2(),
                    footprint_2d_mm2: c2.footprint_um2() / 1e6,
                    footprint_3d_mm2: c3.footprint_um2() / 1e6,
                    retime_stages_3d: c3.retime_stages(),
                }
            })
            .collect();
        ClusterLevel { rows }
    }

    /// Renders the experiment.
    pub(crate) fn to_text(&self) -> String {
        let mut t = TextTable::new([
            "capacity",
            "2D [mm2]",
            "3D [mm2]",
            "group 3D/2D",
            "cluster 3D/2D",
            "retime",
        ]);
        for r in &self.rows {
            t.row([
                r.capacity.to_string(),
                format!("{:.2}", r.footprint_2d_mm2),
                format!("{:.2}", r.footprint_3d_mm2),
                format!("{:.3}", r.group_ratio),
                format!("{:.3}", r.cluster_ratio),
                format!("{}", r.retime_stages_3d),
            ]);
        }
        format!(
            "Cluster-level projection (paper: \"an even more favorable area ratio at the cluster level\")\n{t}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_ratio_is_at_least_as_favorable() {
        for row in &ClusterLevel::generate().rows {
            assert!(
                row.cluster_ratio <= row.group_ratio + 1e-9,
                "{}: cluster {:.3} vs group {:.3}",
                row.capacity,
                row.cluster_ratio,
                row.group_ratio
            );
            assert!(row.cluster_ratio < 1.0);
        }
    }

    #[test]
    fn full_cluster_size_is_plausible() {
        // 256 cores + 1 MiB in 28 nm: tens of mm².
        let rows = ClusterLevel::generate();
        let base = &rows.rows[0];
        assert!(
            (20.0..120.0).contains(&base.footprint_2d_mm2),
            "2D 1 MiB cluster {:.1} mm²",
            base.footprint_2d_mm2
        );
    }

    #[test]
    fn rendering_mentions_the_projection() {
        let text = ClusterLevel::generate().to_text();
        assert!(text.contains("cluster level"));
        assert!(text.contains("retime"));
    }
}
