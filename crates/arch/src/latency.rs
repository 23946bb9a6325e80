//! Interconnect latency classes.
//!
//! MemPool's defining property is its *low-latency* hierarchical
//! interconnect: any core can reach any of the 1024 SPM banks with a small,
//! bounded zero-load latency — one cycle inside the tile, three cycles
//! within the group, five cycles across groups (Section II of the paper).

use crate::config::ClusterConfig;
use crate::ids::TileId;

/// Zero-load distance class of an SPM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessClass {
    /// Access to a bank in the requesting core's own tile (1 cycle).
    TileLocal,
    /// Access to a bank in another tile of the same group (3 cycles).
    GroupLocal,
    /// Access to a bank in another group (5 cycles).
    Remote,
}

/// MemPool's zero-load latency model: which distance class an access
/// falls in. The cycles each class costs are fixed by the paper (1 / 3 / 5,
/// request to load-data-valid) and are constants of the simulator.
///
/// # Example
///
/// ```
/// use mempool_arch::{AccessClass, ClusterConfig, LatencyModel, TileId};
///
/// let cfg = ClusterConfig::default();
/// let class = LatencyModel::classify(&cfg, TileId(0), TileId(16));
/// assert_eq!(class, AccessClass::Remote);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyModel;

impl LatencyModel {
    /// Classifies an access from a core in `src_tile` to a bank in
    /// `dst_tile`.
    pub fn classify(cfg: &ClusterConfig, src_tile: TileId, dst_tile: TileId) -> AccessClass {
        if src_tile == dst_tile {
            AccessClass::TileLocal
        } else {
            let (src_group, _) = src_tile.split(cfg.tiles_per_group());
            let (dst_group, _) = dst_tile.split(cfg.tiles_per_group());
            if src_group == dst_group {
                AccessClass::GroupLocal
            } else {
                AccessClass::Remote
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_same_tile() {
        let cfg = ClusterConfig::default();
        assert_eq!(
            LatencyModel::classify(&cfg, TileId(5), TileId(5)),
            AccessClass::TileLocal
        );
    }

    #[test]
    fn classify_same_group() {
        let cfg = ClusterConfig::default();
        // Tiles 0 and 15 are both in group 0.
        assert_eq!(
            LatencyModel::classify(&cfg, TileId(0), TileId(15)),
            AccessClass::GroupLocal
        );
    }

    #[test]
    fn classify_remote_group() {
        let cfg = ClusterConfig::default();
        // Tile 16 is the first tile of group 1.
        assert_eq!(
            LatencyModel::classify(&cfg, TileId(0), TileId(16)),
            AccessClass::Remote
        );
    }
}
