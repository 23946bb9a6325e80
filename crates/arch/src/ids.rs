//! Strongly typed identifiers for the MemPool hierarchy.
//!
//! MemPool has three hierarchical levels (cluster → group → tile), and two
//! kinds of leaf resources (cores and SPM banks). Mixing up a *tile-local*
//! bank index with a *cluster-global* bank index is a classic source of
//! silent address-mapping bugs, so every level gets its own newtype
//! ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $label:expr) => {
        $(#[$meta])*
        #[derive(
            Debug,
            Clone,
            Copy,
            PartialEq,
            Eq,
            PartialOrd,
            Ord,
            Hash,
            Default,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Creates a new identifier from a raw index.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($label, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                Self(index)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

id_newtype!(
    /// Index of a group within the cluster (0..4 in the default configuration).
    GroupId,
    "g"
);
id_newtype!(
    /// Index of a tile within its group (0..16 in the default configuration).
    TileInGroup,
    "t"
);
id_newtype!(
    /// Cluster-global tile index (0..64 in the default configuration).
    TileId,
    "T"
);
id_newtype!(
    /// Index of a core within its tile (0..4).
    CoreId,
    "c"
);
id_newtype!(
    /// Cluster-global core index (0..256 in the default configuration).
    GlobalCoreId,
    "C"
);
id_newtype!(
    /// Index of an SPM bank within its tile (0..16).
    BankId,
    "b"
);
id_newtype!(
    /// Cluster-global SPM bank index (0..1024 in the default configuration).
    GlobalBankId,
    "B"
);

impl TileId {
    /// Splits a global tile index into `(group, tile-in-group)` given the
    /// number of tiles per group.
    ///
    /// Tiles are numbered group-major: tile `T17` with 16 tiles per group is
    /// tile 1 of group 1.
    pub fn split(self, tiles_per_group: u32) -> (GroupId, TileInGroup) {
        (
            GroupId(self.0 / tiles_per_group),
            TileInGroup(self.0 % tiles_per_group),
        )
    }

    /// Combines a `(group, tile-in-group)` pair into a global tile index.
    pub fn combine(group: GroupId, tile: TileInGroup, tiles_per_group: u32) -> Self {
        TileId(group.0 * tiles_per_group + tile.0)
    }
}

impl GlobalCoreId {
    /// Splits a global core index into `(tile, core-in-tile)`.
    pub fn split(self, cores_per_tile: u32) -> (TileId, CoreId) {
        (
            TileId(self.0 / cores_per_tile),
            CoreId(self.0 % cores_per_tile),
        )
    }

    /// Combines a `(tile, core-in-tile)` pair into a global core index.
    pub fn combine(tile: TileId, core: CoreId, cores_per_tile: u32) -> Self {
        GlobalCoreId(tile.0 * cores_per_tile + core.0)
    }
}

impl GlobalBankId {
    /// Splits a global bank index into `(tile, bank-in-tile)`.
    pub fn split(self, banks_per_tile: u32) -> (TileId, BankId) {
        (
            TileId(self.0 / banks_per_tile),
            BankId(self.0 % banks_per_tile),
        )
    }

    /// Combines a `(tile, bank-in-tile)` pair into a global bank index.
    pub fn combine(tile: TileId, bank: BankId, banks_per_tile: u32) -> Self {
        GlobalBankId(tile.0 * banks_per_tile + bank.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_level_prefix() {
        assert_eq!(GroupId(3).to_string(), "g3");
        assert_eq!(TileId(63).to_string(), "T63");
        assert_eq!(GlobalCoreId(255).to_string(), "C255");
        assert_eq!(GlobalBankId(1023).to_string(), "B1023");
    }

    #[test]
    fn tile_split_combine_round_trips() {
        for raw in 0..64u32 {
            let tile = TileId(raw);
            let (g, t) = tile.split(16);
            assert_eq!(TileId::combine(g, t, 16), tile);
            assert!(g.0 < 4);
            assert!(t.0 < 16);
        }
    }

    #[test]
    fn core_split_combine_round_trips() {
        for raw in 0..256u32 {
            let core = GlobalCoreId(raw);
            let (tile, c) = core.split(4);
            assert_eq!(GlobalCoreId::combine(tile, c, 4), core);
        }
    }

    #[test]
    fn bank_split_matches_group_major_numbering() {
        let bank = GlobalBankId(16 * 5 + 7);
        let (tile, b) = bank.split(16);
        assert_eq!(tile, TileId(5));
        assert_eq!(b, BankId(7));
    }

    #[test]
    fn ids_are_ordered_by_raw_index() {
        assert!(TileId(3) < TileId(10));
        assert!(BankId(0) < BankId(1));
    }

    #[test]
    fn conversions_from_u32() {
        let id: GroupId = 2u32.into();
        assert_eq!(id, GroupId(2));
        let raw: u32 = id.into();
        assert_eq!(raw, 2);
    }
}
