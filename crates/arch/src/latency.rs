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

impl AccessClass {
    /// All access classes, nearest first.
    pub const ALL: [AccessClass; 3] = [
        AccessClass::TileLocal,
        AccessClass::GroupLocal,
        AccessClass::Remote,
    ];
}

/// Zero-load round-trip latency (request to load-data-valid) for each access
/// class, in cycles.
///
/// The defaults match the paper: 1 / 3 / 5 cycles. The values are
/// configurable so that sensitivity studies (e.g. a hypothetical deeper
/// pipeline) can reuse the simulator.
///
/// # Example
///
/// ```
/// use mempool_arch::{AccessClass, LatencyModel};
///
/// let lat = LatencyModel::default();
/// assert_eq!(lat.cycles(AccessClass::TileLocal), 1);
/// assert_eq!(lat.cycles(AccessClass::GroupLocal), 3);
/// assert_eq!(lat.cycles(AccessClass::Remote), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyModel {
    /// Cycles for a tile-local access.
    pub tile_local: u32,
    /// Cycles for a same-group access.
    pub group_local: u32,
    /// Cycles for a remote-group access.
    pub remote: u32,
}

impl LatencyModel {
    /// Latency model from the paper (1 / 3 / 5 cycles).
    pub const PAPER: LatencyModel = LatencyModel {
        tile_local: 1,
        group_local: 3,
        remote: 5,
    };

    /// Returns the zero-load latency of the given access class in cycles.
    pub const fn cycles(&self, class: AccessClass) -> u32 {
        match class {
            AccessClass::TileLocal => self.tile_local,
            AccessClass::GroupLocal => self.group_local,
            AccessClass::Remote => self.remote,
        }
    }

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

impl Default for LatencyModel {
    fn default() -> Self {
        Self::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies() {
        let lat = LatencyModel::PAPER;
        assert_eq!(lat.cycles(AccessClass::TileLocal), 1);
        assert_eq!(lat.cycles(AccessClass::GroupLocal), 3);
        assert_eq!(lat.cycles(AccessClass::Remote), 5);
    }

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

    #[test]
    fn latency_is_monotone_in_distance() {
        let lat = LatencyModel::default();
        let mut prev = 0;
        for class in AccessClass::ALL {
            assert!(lat.cycles(class) > prev);
            prev = lat.cycles(class);
        }
    }
}
