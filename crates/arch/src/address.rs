//! SPM address mapping.
//!
//! MemPool exposes its 1024 SPM banks as a single shared address space with
//! two views:
//!
//! * an **interleaved region**, where consecutive 32-bit words are scattered
//!   across all banks of the cluster — this spreads any dense access pattern
//!   over all banks and is the main working region;
//! * a **sequential region**, where each tile owns a contiguous window
//!   backed by the bottom words of its own banks — this gives cores a
//!   guaranteed single-cycle local stack and per-tile private data.
//!
//! Addresses above [`AddressMap::EXTERNAL_BASE`] are outside the SPM and are
//! served by the off-chip (global) memory through the cluster's DMA/bandwidth
//! model.

use std::fmt;

use crate::config::ClusterConfig;
use crate::ids::{BankId, GlobalBankId, TileId};

/// Physical location of one 32-bit word inside the SPM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankLocation {
    /// Tile holding the bank.
    pub tile: TileId,
    /// Bank within the tile.
    pub bank: BankId,
    /// Word offset within the bank.
    pub word: u32,
}

impl BankLocation {
    /// Global bank index of this location.
    pub fn global_bank(&self, cfg: &ClusterConfig) -> GlobalBankId {
        GlobalBankId::combine(self.tile, self.bank, cfg.banks_per_tile())
    }
}

impl fmt::Display for BankLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}[{}]", self.tile, self.bank, self.word)
    }
}

/// Result of decoding an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryRegion {
    /// A word in the SPM (interleaved or sequential region).
    Spm(BankLocation),
    /// A byte offset into the external (off-chip) memory.
    External(u64),
    /// The address does not map to any memory.
    Unmapped,
}

/// Error returned when an address cannot be decoded as an aligned SPM word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeAddressError {
    addr: u32,
}

impl fmt::Display for DecodeAddressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "address {:#010x} is not a mapped, word-aligned location",
            self.addr
        )
    }
}

impl std::error::Error for DecodeAddressError {}

/// Error returned by the spare-bank remap policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapError {
    /// Spare banks were never provisioned on this map.
    NotEnabled,
    /// The bank to disable lies outside the configured geometry.
    OutOfRange {
        /// Tile of the offending location.
        tile: TileId,
        /// Bank of the offending location.
        bank: BankId,
    },
    /// The bank is already remapped to a spare.
    AlreadyRemapped {
        /// Tile of the offending location.
        tile: TileId,
        /// Bank of the offending location.
        bank: BankId,
    },
    /// All of the tile's spare banks are already in use.
    SparesExhausted {
        /// Tile that ran out of spares.
        tile: TileId,
    },
}

impl fmt::Display for RemapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemapError::NotEnabled => write!(f, "spare banks are not provisioned"),
            RemapError::OutOfRange { tile, bank } => {
                write!(f, "bank {tile}:{bank} is outside the cluster geometry")
            }
            RemapError::AlreadyRemapped { tile, bank } => {
                write!(f, "bank {tile}:{bank} is already remapped to a spare")
            }
            RemapError::SparesExhausted { tile } => {
                write!(f, "tile {tile} has no spare banks left")
            }
        }
    }
}

impl std::error::Error for RemapError {}

/// One active spare-bank substitution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RemapEntry {
    tile: TileId,
    from: BankId,
    to: BankId,
}

/// Spare-bank remap table: faulted banks are redirected to per-tile spare
/// banks that sit *outside* the addressable geometry (spare `s` of a tile
/// is `BankId(banks_per_tile + s)`), so the address map itself — and with
/// it bank queues, conflict statistics, and heatmaps — keeps operating on
/// logical bank ids. Only the storage layer resolves through this table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankRemap {
    spares_per_tile: u32,
    entries: Vec<RemapEntry>,
}

impl BankRemap {
    /// An empty table backed by `spares_per_tile` spare banks per tile.
    pub(crate) fn new(spares_per_tile: u32) -> Self {
        BankRemap {
            spares_per_tile,
            entries: Vec::new(),
        }
    }

    /// Active substitutions as `(tile, from, to)` triples.
    pub fn entries(&self) -> impl Iterator<Item = (TileId, BankId, BankId)> + '_ {
        self.entries.iter().map(|e| (e.tile, e.from, e.to))
    }

    /// The spare bank backing `(tile, bank)`, if that bank is remapped.
    /// Linear scan: the table holds at most a handful of entries.
    pub(crate) fn lookup(&self, tile: TileId, bank: BankId) -> Option<BankId> {
        self.entries
            .iter()
            .find(|e| e.tile == tile && e.from == bank)
            .map(|e| e.to)
    }
}

/// Address decoder for a MemPool cluster.
///
/// # Example
///
/// ```
/// use mempool_arch::{AddressMap, ClusterConfig, MemoryRegion};
///
/// let cfg = ClusterConfig::default();
/// let map = AddressMap::new(&cfg);
///
/// // Word 0 of the interleaved region lands in bank 0 of tile 0, word 1 in
/// // bank 1 of tile 0, and so on across all 1024 banks before wrapping.
/// let MemoryRegion::Spm(loc0) = map.locate(map.interleaved_base()) else {
///     panic!("expected SPM");
/// };
/// let MemoryRegion::Spm(loc1) = map.locate(map.interleaved_base() + 4) else {
///     panic!("expected SPM");
/// };
/// assert_eq!(loc0.tile, loc1.tile);
/// assert_eq!(loc1.bank.0, loc0.bank.0 + 1);
/// ```
#[derive(Debug, Clone)]
pub struct AddressMap {
    banks_per_tile: u32,
    /// `log2(banks_per_tile)`: the builder only accepts powers of two.
    bank_shift: u32,
    num_tiles: u32,
    bank_words: u32,
    /// Words at the bottom of each bank reserved for the sequential region.
    seq_words_per_bank: u32,
    /// First address past the sequential region.
    seq_end: u32,
    /// First address past the SPM.
    spm_end: u64,
    /// Spare-bank substitutions, present once spares are provisioned.
    remap: Option<BankRemap>,
}

impl AddressMap {
    /// Base address of the external (off-chip) memory window.
    pub const EXTERNAL_BASE: u32 = 0x8000_0000;

    /// Creates an address map with the default sequential-region split
    /// (one quarter of each bank).
    pub fn new(cfg: &ClusterConfig) -> Self {
        Self::with_seq_words(cfg, cfg.bank_words() / 4)
    }

    /// Creates an address map reserving `seq_words_per_bank` words at the
    /// bottom of each bank for the per-tile sequential region.
    ///
    /// # Panics
    ///
    /// Panics if `seq_words_per_bank` exceeds the bank depth.
    pub(crate) fn with_seq_words(cfg: &ClusterConfig, seq_words_per_bank: u32) -> Self {
        assert!(
            seq_words_per_bank <= cfg.bank_words(),
            "sequential region ({seq_words_per_bank} words/bank) exceeds bank depth"
        );
        let banks_per_tile = cfg.banks_per_tile();
        assert!(
            banks_per_tile.is_power_of_two(),
            "banks per tile ({banks_per_tile}) must be a power of two"
        );
        let tile_banks = banks_per_tile as u64 * cfg.num_tiles() as u64;
        let seq_end = (seq_words_per_bank as u64 * tile_banks * 4) as u32;
        let interleaved_words = (cfg.bank_words() - seq_words_per_bank) as u64;
        AddressMap {
            banks_per_tile,
            bank_shift: banks_per_tile.trailing_zeros(),
            num_tiles: cfg.num_tiles(),
            bank_words: cfg.bank_words(),
            seq_words_per_bank,
            seq_end,
            spm_end: seq_end as u64 + interleaved_words * tile_banks * 4,
            remap: None,
        }
    }

    /// Provisions `spares_per_tile` spare banks per tile for the remap
    /// policy (idempotent when called with the same count; a larger count
    /// widens the pool and keeps existing substitutions).
    pub fn enable_spares(&mut self, spares_per_tile: u32) {
        match &mut self.remap {
            Some(remap) if remap.spares_per_tile >= spares_per_tile => {}
            Some(remap) => remap.spares_per_tile = spares_per_tile,
            None => self.remap = Some(BankRemap::new(spares_per_tile)),
        }
    }

    /// The active remap table, if spares are provisioned.
    pub fn remap(&self) -> Option<&BankRemap> {
        self.remap.as_ref()
    }

    /// Resolves a logical location to the physical bank backing it,
    /// applying any spare-bank substitution. Identity when nothing is
    /// remapped.
    #[inline]
    pub fn resolve(&self, loc: BankLocation) -> BankLocation {
        match &self.remap {
            Some(remap) => match remap.lookup(loc.tile, loc.bank) {
                Some(spare) => BankLocation { bank: spare, ..loc },
                None => loc,
            },
            None => loc,
        }
    }

    /// Takes a faulted bank out of service, redirecting it to the tile's
    /// next free spare bank. Returns the spare's id (`banks_per_tile +
    /// slot`, outside the addressable geometry).
    ///
    /// # Errors
    ///
    /// Fails if spares were never provisioned, the bank is out of range or
    /// already remapped, or the tile's spares are exhausted.
    pub fn disable_bank(&mut self, tile: TileId, bank: BankId) -> Result<BankId, RemapError> {
        let banks_per_tile = self.banks_per_tile;
        let num_tiles = self.num_tiles;
        let remap = self.remap.as_mut().ok_or(RemapError::NotEnabled)?;
        if tile.0 >= num_tiles || bank.0 >= banks_per_tile {
            return Err(RemapError::OutOfRange { tile, bank });
        }
        if remap.lookup(tile, bank).is_some() {
            return Err(RemapError::AlreadyRemapped { tile, bank });
        }
        let used = remap.entries.iter().filter(|e| e.tile == tile).count() as u32;
        if used >= remap.spares_per_tile {
            return Err(RemapError::SparesExhausted { tile });
        }
        let spare = BankId(banks_per_tile + used);
        remap.entries.push(RemapEntry {
            tile,
            from: bank,
            to: spare,
        });
        Ok(spare)
    }

    /// Bytes of sequential region owned by each tile.
    pub fn seq_bytes_per_tile(&self) -> u64 {
        self.seq_words_per_bank as u64 * self.banks_per_tile as u64 * 4
    }

    /// Base address of the interleaved region (immediately after the
    /// sequential region).
    pub fn interleaved_base(&self) -> u32 {
        self.seq_end
    }

    /// Total bytes of interleaved region.
    pub fn interleaved_bytes(&self) -> u64 {
        let words = (self.bank_words - self.seq_words_per_bank) as u64;
        words * self.banks_per_tile as u64 * self.num_tiles as u64 * 4
    }

    /// First address past the SPM.
    pub fn spm_end(&self) -> u64 {
        self.spm_end
    }

    /// Decodes an address. Sub-word offsets are preserved by decoding the
    /// containing word; callers needing byte lanes handle them separately.
    ///
    /// Both regions interleave words across a tile's banks first, and a
    /// tile has a power-of-two number of banks, so the bank is the low bits
    /// of the word index and one division splits what is left into tile
    /// and word.
    #[inline]
    pub fn locate(&self, addr: u32) -> MemoryRegion {
        if addr >= Self::EXTERNAL_BASE {
            return MemoryRegion::External((addr - Self::EXTERNAL_BASE) as u64);
        }
        let (tile, word) = if addr < self.seq_end {
            // Sequential region: tile-major, word-interleaved across the
            // tile's banks.
            let rows = (addr / 4) >> self.bank_shift;
            (
                rows / self.seq_words_per_bank,
                rows % self.seq_words_per_bank,
            )
        } else if (addr as u64) < self.spm_end {
            // Interleaved region: word-interleaved across all banks of the
            // cluster, above the sequential words of every bank.
            let rows = ((addr - self.seq_end) / 4) >> self.bank_shift;
            (
                rows % self.num_tiles,
                rows / self.num_tiles + self.seq_words_per_bank,
            )
        } else {
            return MemoryRegion::Unmapped;
        };
        MemoryRegion::Spm(BankLocation {
            tile: TileId(tile),
            bank: BankId((addr / 4) & (self.banks_per_tile - 1)),
            word,
        })
    }

    /// [`Self::locate`] as its definition reads, one div/mod per level of
    /// the hierarchy: the oracle the tests hold the fast body against.
    #[cfg(test)]
    fn locate_by_definition(&self, addr: u32) -> MemoryRegion {
        if addr >= Self::EXTERNAL_BASE {
            return MemoryRegion::External((addr - Self::EXTERNAL_BASE) as u64);
        }
        let addr = addr as u64;
        let word_index = addr / 4;
        let seq_end = self.seq_bytes_per_tile() * self.num_tiles as u64;
        if addr < seq_end {
            let words_per_tile = self.seq_words_per_bank as u64 * self.banks_per_tile as u64;
            let tile = (word_index / words_per_tile) as u32;
            let within = word_index % words_per_tile;
            let bank = (within % self.banks_per_tile as u64) as u32;
            let word = (within / self.banks_per_tile as u64) as u32;
            MemoryRegion::Spm(BankLocation {
                tile: TileId(tile),
                bank: BankId(bank),
                word,
            })
        } else if addr < seq_end + self.interleaved_bytes() {
            let rel = word_index - seq_end / 4;
            let total_banks = self.banks_per_tile as u64 * self.num_tiles as u64;
            let global_bank = (rel % total_banks) as u32;
            let word = (rel / total_banks) as u32 + self.seq_words_per_bank;
            let tile = global_bank / self.banks_per_tile;
            let bank = global_bank % self.banks_per_tile;
            MemoryRegion::Spm(BankLocation {
                tile: TileId(tile),
                bank: BankId(bank),
                word,
            })
        } else {
            MemoryRegion::Unmapped
        }
    }

    /// Byte address of the `index`-th word of the interleaved region.
    pub fn interleaved_addr(&self, index: u64) -> u32 {
        self.interleaved_base() + (index * 4) as u32
    }

    /// Byte address of the `word`-th word of `tile`'s sequential region.
    pub fn seq_addr(&self, tile: TileId, word: u64) -> u32 {
        (self.seq_bytes_per_tile() * tile.0 as u64 + word * 4) as u32
    }

    /// Inverse of [`Self::locate`] for SPM locations.
    ///
    /// # Errors
    ///
    /// Returns an error if the location lies outside the configured bank
    /// geometry.
    pub fn encode(&self, loc: BankLocation) -> Result<u32, DecodeAddressError> {
        if loc.tile.0 >= self.num_tiles
            || loc.bank.0 >= self.banks_per_tile
            || loc.word >= self.bank_words
        {
            return Err(DecodeAddressError { addr: 0 });
        }
        if loc.word < self.seq_words_per_bank {
            let words_per_tile = self.seq_words_per_bank as u64 * self.banks_per_tile as u64;
            let within = loc.word as u64 * self.banks_per_tile as u64 + loc.bank.0 as u64;
            Ok(((loc.tile.0 as u64 * words_per_tile + within) * 4) as u32)
        } else {
            let total_banks = self.banks_per_tile as u64 * self.num_tiles as u64;
            let global_bank = (loc.tile.0 * self.banks_per_tile + loc.bank.0) as u64;
            let rel = (loc.word - self.seq_words_per_bank) as u64 * total_banks + global_bank;
            Ok(self.interleaved_addr(rel))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> (ClusterConfig, AddressMap) {
        let cfg = ClusterConfig::default();
        let map = AddressMap::new(&cfg);
        (cfg, map)
    }

    #[test]
    fn default_reserves_quarter_for_sequential() {
        let (cfg, map) = map();
        assert_eq!(map.seq_words_per_bank, cfg.bank_words() / 4);
        assert_eq!(
            map.interleaved_bytes() + map.seq_bytes_per_tile() * 64,
            cfg.spm_bytes()
        );
    }

    #[test]
    fn interleaved_words_stride_across_all_banks() {
        let (cfg, map) = map();
        let total_banks = cfg.num_banks() as u64;
        for i in [0u64, 1, 17, 1023, 1024, 5000] {
            let MemoryRegion::Spm(loc) = map.locate(map.interleaved_addr(i)) else {
                panic!("interleaved word {i} not in SPM");
            };
            let expected_bank = (i % total_banks) as u32;
            assert_eq!(loc.global_bank(&cfg).0, expected_bank, "word {i}");
            assert_eq!(
                loc.word,
                (i / total_banks) as u32 + map.seq_words_per_bank,
                "word {i}"
            );
        }
    }

    #[test]
    fn sequential_region_is_tile_private() {
        let (_, map) = map();
        let bytes_per_tile = map.seq_bytes_per_tile();
        for tile in [0u32, 1, 37, 63] {
            for word in [0u64, 1, 7] {
                let addr = map.seq_addr(TileId(tile), word);
                assert!(u64::from(addr) < bytes_per_tile * (tile as u64 + 1));
                let MemoryRegion::Spm(loc) = map.locate(addr) else {
                    panic!("sequential word not in SPM");
                };
                assert_eq!(loc.tile, TileId(tile));
                assert!(loc.word < map.seq_words_per_bank);
            }
        }
    }

    #[test]
    fn locate_encode_round_trips_over_both_regions() {
        let (_, map) = map();
        for addr in (0..32 * 1024u32).step_by(4) {
            let MemoryRegion::Spm(loc) = map.locate(addr) else {
                panic!("address {addr:#x} not in SPM");
            };
            assert_eq!(map.encode(loc).unwrap(), addr, "round trip at {addr:#x}");
        }
        // And some interleaved addresses.
        for i in [0u64, 1, 999, 100_000] {
            let addr = map.interleaved_addr(i);
            let MemoryRegion::Spm(loc) = map.locate(addr) else {
                panic!();
            };
            assert_eq!(map.encode(loc).unwrap(), addr);
        }
    }

    #[test]
    fn locate_agrees_with_its_definition_on_every_geometry() {
        let default = ClusterConfig::default();
        let nine_tiles = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(9)
            .build()
            .unwrap();
        let single = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(1)
            .cores_per_tile(1)
            .banks_per_tile(1)
            .bank_words(1)
            .build()
            .unwrap();
        let maps = [
            AddressMap::new(&default),
            AddressMap::new(&ClusterConfig::with_capacity(crate::SpmCapacity::MiB8)),
            AddressMap::with_seq_words(&default, 0),
            AddressMap::with_seq_words(&default, 3),
            AddressMap::new(&nine_tiles),
            AddressMap::with_seq_words(&nine_tiles, 5),
            AddressMap::new(&single),
            AddressMap::with_seq_words(&single, 1),
        ];
        for map in &maps {
            let spm = (0..map.spm_end() as u32 + 64).step_by(4);
            let external = [
                AddressMap::EXTERNAL_BASE - 4,
                AddressMap::EXTERNAL_BASE,
                AddressMap::EXTERNAL_BASE + 4,
                u32::MAX - 3,
            ];
            for addr in spm.chain(external) {
                assert_eq!(
                    map.locate(addr),
                    map.locate_by_definition(addr),
                    "{addr:#010x} under {map:?}"
                );
            }
        }
    }

    #[test]
    fn external_addresses_decode_to_offsets() {
        let (_, map) = map();
        assert_eq!(
            map.locate(AddressMap::EXTERNAL_BASE),
            MemoryRegion::External(0)
        );
        assert_eq!(
            map.locate(AddressMap::EXTERNAL_BASE + 4096),
            MemoryRegion::External(4096)
        );
    }

    #[test]
    fn addresses_past_spm_are_unmapped() {
        let (_, map) = map();
        let end = map.spm_end() as u32;
        assert_eq!(map.locate(end), MemoryRegion::Unmapped);
        assert_eq!(map.locate(end + 4096), MemoryRegion::Unmapped);
    }

    #[test]
    fn encode_rejects_out_of_range_locations() {
        let (_, map) = map();
        let bad = BankLocation {
            tile: TileId(64),
            bank: BankId(0),
            word: 0,
        };
        assert!(map.encode(bad).is_err());
    }

    #[test]
    fn zero_seq_words_makes_whole_spm_interleaved() {
        let cfg = ClusterConfig::default();
        let map = AddressMap::with_seq_words(&cfg, 0);
        assert_eq!(map.interleaved_base(), 0);
        assert_eq!(map.interleaved_bytes(), cfg.spm_bytes());
        let MemoryRegion::Spm(loc) = map.locate(0) else {
            panic!();
        };
        assert_eq!(loc.tile, TileId(0));
        assert_eq!(loc.word, 0);
    }

    #[test]
    #[should_panic(expected = "sequential region")]
    fn oversized_seq_region_panics() {
        let cfg = ClusterConfig::default();
        let _ = AddressMap::with_seq_words(&cfg, cfg.bank_words() + 1);
    }

    #[test]
    fn resolve_is_identity_without_spares() {
        let (_, map) = map();
        let loc = BankLocation {
            tile: TileId(3),
            bank: BankId(7),
            word: 11,
        };
        assert_eq!(map.resolve(loc), loc);
        assert!(map.remap().is_none());
    }

    #[test]
    fn disabled_bank_resolves_to_spare_and_locate_stays_logical() {
        let (cfg, mut map) = map();
        assert_eq!(
            map.disable_bank(TileId(0), BankId(2)),
            Err(RemapError::NotEnabled)
        );
        map.enable_spares(1);
        let spare = map.disable_bank(TileId(0), BankId(2)).unwrap();
        assert_eq!(spare, BankId(cfg.banks_per_tile()));

        let logical = BankLocation {
            tile: TileId(0),
            bank: BankId(2),
            word: 5,
        };
        assert_eq!(map.resolve(logical).bank, spare);
        // Other banks are untouched.
        let other = BankLocation {
            bank: BankId(3),
            ..logical
        };
        assert_eq!(map.resolve(other), other);
        // `locate` keeps handing out logical ids: the remap is invisible to
        // queue/statistics consumers.
        let addr = map.encode(logical).unwrap();
        assert_eq!(map.locate(addr), MemoryRegion::Spm(logical));
        assert_eq!(map.remap().unwrap().entries.len(), 1);
    }

    #[test]
    fn disable_bank_rejects_double_remap_and_exhaustion() {
        let (_, mut map) = map();
        map.enable_spares(1);
        map.disable_bank(TileId(1), BankId(0)).unwrap();
        assert_eq!(
            map.disable_bank(TileId(1), BankId(0)),
            Err(RemapError::AlreadyRemapped {
                tile: TileId(1),
                bank: BankId(0)
            })
        );
        assert_eq!(
            map.disable_bank(TileId(1), BankId(1)),
            Err(RemapError::SparesExhausted { tile: TileId(1) })
        );
        // Other tiles keep their own spare budget.
        assert!(map.disable_bank(TileId(2), BankId(1)).is_ok());
        assert_eq!(
            map.disable_bank(TileId(99), BankId(0)),
            Err(RemapError::OutOfRange {
                tile: TileId(99),
                bank: BankId(0)
            })
        );
    }

    #[test]
    fn enable_spares_is_idempotent_and_widening() {
        let (_, mut map) = map();
        map.enable_spares(1);
        map.disable_bank(TileId(0), BankId(0)).unwrap();
        // Re-enabling with the same or smaller count keeps the entry.
        map.enable_spares(1);
        assert_eq!(map.remap().unwrap().entries.len(), 1);
        // Widening allows another substitution in the same tile.
        map.enable_spares(2);
        assert!(map.disable_bank(TileId(0), BankId(1)).is_ok());
        assert_eq!(map.remap().unwrap().entries.len(), 2);
    }
}
