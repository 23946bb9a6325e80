//! Cluster-level implementation: four groups plus glue.
//!
//! The paper implements the *group* (its critical level) and argues about
//! the cluster qualitatively: only point-to-point connections and "about
//! five thousand cells" sit between the four groups, and the 12-layer
//! mirrored BEOL of the 3D flow lets the inter-group channels shrink, so
//! "we can expect an even more favorable area ratio at the cluster level".
//! This module makes that argument quantitative with the same machinery
//! used for the group: channel sizing from boundary-bus demand and a
//! pipeline-depth check on the inter-group links.

use mempool_arch::{ClusterConfig, SpmCapacity};

use crate::flow::Flow;
use crate::group::GroupImplementation;
use crate::netlist::{GateInventory, GroupNetlist, NetEndpoint};
use crate::route;
use crate::tech::Technology;

/// A fully implemented MemPool cluster (2x2 groups).
#[derive(Debug, Clone)]
pub struct ClusterImplementation {
    group: GroupImplementation,
    side_um: f64,
    retime_stages: u32,
}

impl ClusterImplementation {
    /// Implements the cluster of a full-size MemPool configuration.
    pub fn implement(capacity: SpmCapacity, flow: Flow) -> Self {
        Self::implement_with(
            &ClusterConfig::with_capacity(capacity),
            flow,
            Technology::n28(),
            GateInventory::mempool(),
        )
    }

    /// Implements a cluster for an arbitrary configuration.
    pub(crate) fn implement_with(
        config: &ClusterConfig,
        flow: Flow,
        tech: Technology,
        inventory: GateInventory,
    ) -> Self {
        let group = GroupImplementation::implement_with(config, flow, tech.clone(), inventory);

        // Inter-group demand: every group's three remote networks
        // terminate in boundary buses; each of the six group pairs carries
        // one bundle in each direction. The worst cluster cut (the middle)
        // is crossed by the horizontal and both diagonal pairs.
        let addr_bits = (config.spm_bytes() as f64).log2().ceil() as u32;
        let netlist = GroupNetlist::build(config.tiles_per_group(), addr_bits);
        let boundary_bits: f64 = netlist
            .buses()
            .iter()
            .filter(|b| matches!(b.to, NetEndpoint::Boundary(_)))
            .map(|b| b.bits as f64)
            .sum();
        // Bundles crossing the middle cut: 4 of the 6 pairs, both
        // directions; each bundle carries one group's boundary wires for
        // one network (a third of `boundary_bits`).
        let crossing_wires = 2.0 * 4.0 * boundary_bits / 3.0;
        let channel_um = route::channel_width_um(&tech, flow, crossing_wires, 3);

        let side_um = 2.0 * group.side_um() + 3.0 * channel_um;
        let pitch = group.side_um() + channel_um;

        // The longest inter-group link must be retimed into the paper's
        // 5-cycle remote latency: how many wire-pipeline stages does it
        // need at the group's achieved frequency?
        let longest_mm = 2.0 * pitch / 1000.0;
        let wire_ps = tech.wire_delay_ps_per_mm * longest_mm;
        let period_ps = 1000.0 / group.frequency_ghz();
        let retime_stages = (wire_ps / period_ps).ceil() as u32;

        ClusterImplementation {
            group,
            side_um,
            retime_stages,
        }
    }

    /// The group this cluster instantiates four times.
    pub fn group(&self) -> &GroupImplementation {
        &self.group
    }

    /// Cluster footprint in µm².
    pub fn footprint_um2(&self) -> f64 {
        self.side_um * self.side_um
    }

    /// Pipeline stages the longest inter-group link needs; the paper's
    /// 5-cycle remote latency budget allows 2 (request and response each
    /// get one traversal cycle).
    pub fn retime_stages(&self) -> u32 {
        self.retime_stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(cap: SpmCapacity, flow: Flow) -> ClusterImplementation {
        ClusterImplementation::implement(cap, flow)
    }

    #[test]
    fn cluster_contains_four_groups_and_glue() {
        let c = cluster(SpmCapacity::MiB1, Flow::TwoD);
        assert!(c.footprint_um2() > 4.0 * c.group().footprint_um2());
    }

    #[test]
    fn paper_claim_even_better_area_ratio_at_cluster_level() {
        // Section V-A: the 3D/2D footprint ratio at the cluster level
        // should be at least as favorable as at the group level.
        for cap in SpmCapacity::ALL {
            let g_ratio = GroupImplementation::implement(cap, Flow::ThreeD).footprint_um2()
                / GroupImplementation::implement(cap, Flow::TwoD).footprint_um2();
            let c_ratio = cluster(cap, Flow::ThreeD).footprint_um2()
                / cluster(cap, Flow::TwoD).footprint_um2();
            assert!(
                c_ratio <= g_ratio + 1e-9,
                "{cap}: cluster ratio {c_ratio:.3} vs group ratio {g_ratio:.3}"
            );
        }
    }

    #[test]
    fn remote_latency_budget_holds_for_all_designs() {
        for cap in SpmCapacity::ALL {
            for flow in Flow::ALL {
                let c = cluster(cap, flow);
                assert!(
                    c.retime_stages() <= 2,
                    "{cap} {flow}: {} retime stages",
                    c.retime_stages()
                );
            }
        }
    }
}
