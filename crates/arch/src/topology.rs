//! Group-level interconnect topology.
//!
//! Each MemPool group contains four 16x16 radix-4 butterfly networks
//! (Figure 2a of the paper): the *local* network connects tiles within the
//! group, while the *north*, *northeast*, and *east* networks carry traffic
//! to the three other groups. At the cluster level the groups are connected
//! point-to-point (Figure 2b).

use std::fmt;

use crate::config::ClusterConfig;
use crate::ids::{GroupId, TileId};
use crate::latency::AccessClass;

/// One of the four butterfly networks instantiated in every group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroupNetwork {
    /// Intra-group traffic.
    Local,
    /// Traffic to the group whose index differs in bit 1 (vertical neighbor
    /// in the 2x2 group grid).
    North,
    /// Traffic to the group whose index differs in both bits (diagonal
    /// neighbor).
    Northeast,
    /// Traffic to the group whose index differs in bit 0 (horizontal
    /// neighbor).
    East,
}

impl GroupNetwork {
    /// All four group networks.
    pub const ALL: [GroupNetwork; 4] = [
        GroupNetwork::Local,
        GroupNetwork::North,
        GroupNetwork::Northeast,
        GroupNetwork::East,
    ];

    /// The XOR distance this network covers in the 2-bit group index space
    /// (0 for local).
    pub const fn group_xor(self) -> u32 {
        match self {
            GroupNetwork::Local => 0b00,
            GroupNetwork::East => 0b01,
            GroupNetwork::North => 0b10,
            GroupNetwork::Northeast => 0b11,
        }
    }

    /// Network used for traffic from `src` group to `dst` group (4-group
    /// clusters use XOR routing over the 2-bit group index).
    pub fn for_route(src: GroupId, dst: GroupId) -> GroupNetwork {
        match (src.0 ^ dst.0) & 0b11 {
            0b00 => GroupNetwork::Local,
            0b01 => GroupNetwork::East,
            0b10 => GroupNetwork::North,
            _ => GroupNetwork::Northeast,
        }
    }
}

impl fmt::Display for GroupNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GroupNetwork::Local => "local",
            GroupNetwork::North => "north",
            GroupNetwork::Northeast => "northeast",
            GroupNetwork::East => "east",
        };
        f.write_str(name)
    }
}

/// A route through the hierarchical interconnect, as computed by
/// [`Topology::route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    /// Distance class of the access.
    pub class: AccessClass,
    /// Group network traversed in the *source* group (the network that
    /// either delivers the request locally or carries it toward the
    /// destination group). `None` for tile-local accesses, which never leave
    /// the tile crossbar.
    pub network: Option<GroupNetwork>,
}

/// Hierarchical topology helper bound to a [`ClusterConfig`].
///
/// # Example
///
/// ```
/// use mempool_arch::{ClusterConfig, Topology, TileId, AccessClass, GroupNetwork};
///
/// let topo = Topology::new(ClusterConfig::default());
/// let route = topo.route(TileId(0), TileId(16));
/// assert_eq!(route.class, AccessClass::Remote);
/// assert_eq!(route.network, Some(GroupNetwork::East));
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    config: ClusterConfig,
    /// Group of every tile, indexed by global tile id.
    tile_group: Vec<GroupId>,
}

impl Topology {
    /// Creates a topology helper for the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        let tile_group = config
            .tiles()
            .map(|tile| tile.split(config.tiles_per_group()).0)
            .collect();
        Topology { config, tile_group }
    }

    /// The group `tile` belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is outside the cluster.
    #[inline]
    pub fn group_of(&self, tile: TileId) -> GroupId {
        self.tile_group[tile.index()]
    }

    /// The underlying configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Computes the route from a core in `src_tile` to a bank in `dst_tile`.
    ///
    /// # Panics
    ///
    /// Panics if either tile is outside the cluster.
    #[inline]
    pub fn route(&self, src_tile: TileId, dst_tile: TileId) -> Route {
        if src_tile == dst_tile {
            return Route {
                class: AccessClass::TileLocal,
                network: None,
            };
        }
        let (src_group, dst_group) = (self.group_of(src_tile), self.group_of(dst_tile));
        if src_group == dst_group {
            Route {
                class: AccessClass::GroupLocal,
                network: Some(GroupNetwork::Local),
            }
        } else {
            Route {
                class: AccessClass::Remote,
                network: Some(GroupNetwork::for_route(src_group, dst_group)),
            }
        }
    }

    /// Position of a tile in its group's square placement grid
    /// `(row, column)`; used by the physical model's floorplanner and by
    /// distance-dependent interconnect statistics.
    pub fn tile_grid_position(&self, tile: TileId) -> (u32, u32) {
        let (_, in_group) = tile.split(self.config.tiles_per_group());
        let side = self.grid_side();
        (in_group.0 / side, in_group.0 % side)
    }

    /// Side length of the square tile grid in each group (4 for the default
    /// 16-tile group).
    pub fn grid_side(&self) -> u32 {
        (self.config.tiles_per_group() as f64).sqrt() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(ClusterConfig::default())
    }

    #[test]
    fn xor_routing_is_symmetric() {
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    GroupNetwork::for_route(GroupId(a), GroupId(b)),
                    GroupNetwork::for_route(GroupId(b), GroupId(a)),
                );
            }
        }
    }

    #[test]
    fn each_group_pair_uses_distinct_network() {
        // From group 0, the three remote groups must use the three distinct
        // remote networks.
        let nets: Vec<_> = (1..4)
            .map(|g| GroupNetwork::for_route(GroupId(0), GroupId(g)))
            .collect();
        assert!(nets.contains(&GroupNetwork::East));
        assert!(nets.contains(&GroupNetwork::North));
        assert!(nets.contains(&GroupNetwork::Northeast));
    }

    #[test]
    fn local_route_has_no_network() {
        let r = topo().route(TileId(3), TileId(3));
        assert_eq!(r.class, AccessClass::TileLocal);
        assert_eq!(r.network, None);
    }

    #[test]
    fn group_local_route_uses_local_network() {
        let r = topo().route(TileId(3), TileId(9));
        assert_eq!(r.class, AccessClass::GroupLocal);
        assert_eq!(r.network, Some(GroupNetwork::Local));
    }

    #[test]
    fn remote_route_network_matches_group_xor() {
        let t = topo();
        // Tile 0 (group 0) to tile 32 (group 2): XOR 0b10 -> north.
        let r = t.route(TileId(0), TileId(32));
        assert_eq!(r.class, AccessClass::Remote);
        assert_eq!(r.network, Some(GroupNetwork::North));
        // Tile 0 (group 0) to tile 48 (group 3): XOR 0b11 -> northeast.
        let r = t.route(TileId(0), TileId(48));
        assert_eq!(r.network, Some(GroupNetwork::Northeast));
    }

    #[test]
    fn table_and_route_agree_with_the_id_arithmetic_for_every_tile_pair() {
        let t = topo();
        let cfg = t.config().clone();
        let tpg = cfg.tiles_per_group();
        for src in cfg.tiles() {
            let src_group = src.split(tpg).0;
            assert_eq!(t.group_of(src), src_group);
            for dst in cfg.tiles() {
                let route = t.route(src, dst);
                let class = crate::LatencyModel::classify(&cfg, src, dst);
                assert_eq!(route.class, class, "{src} -> {dst}");
                let network = (class != AccessClass::TileLocal)
                    .then(|| GroupNetwork::for_route(src_group, dst.split(tpg).0));
                assert_eq!(route.network, network, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn grid_positions_cover_the_square() {
        let t = topo();
        let mut seen = std::collections::HashSet::new();
        for tile in 0..16u32 {
            let pos = t.tile_grid_position(TileId(tile));
            assert!(pos.0 < 4 && pos.1 < 4);
            assert!(seen.insert(pos), "duplicate grid position {pos:?}");
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn grid_side_of_default_group_is_four() {
        assert_eq!(topo().grid_side(), 4);
    }

    #[test]
    fn network_display_names() {
        assert_eq!(GroupNetwork::Northeast.to_string(), "northeast");
    }
}
