//! Backing storage for the SPM banks and the external (off-chip) memory.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

use mempool_arch::{
    AddressMap, BankId, BankLocation, ClusterConfig, MemoryRegion, RemapError, TileId,
};
use mempool_isa::exec::MemWidth;

use crate::params::{fnv1a, FNV_OFFSET};

/// Error raised by a storage access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// The address does not map to SPM or external memory.
    Unmapped {
        /// Faulting byte address.
        addr: u32,
    },
    /// The access is not aligned to its width.
    Misaligned {
        /// Faulting byte address.
        addr: u32,
    },
    /// A bank location is outside the configured geometry.
    BadLocation,
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::Unmapped { addr } => write!(f, "address {addr:#010x} is unmapped"),
            MemoryError::Misaligned { addr } => {
                write!(f, "misaligned access at {addr:#010x}")
            }
            MemoryError::BadLocation => f.write_str("bank location out of range"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// Sparse external memory: a dense, reusable array of `(word_offset,
/// value)` pairs behind an open-addressing FNV-1a index.
///
/// This sits on the simulator's hot path twice: every external load,
/// store, and AMO resolves through it, and every checkpoint walks it. A
/// `HashMap<u64, u32>` pays SipHash plus pointer-chasing per probe and
/// forces a collect-and-sort per snapshot; here lookups are one FNV hash
/// plus a linear probe over a flat `u32` slot array, and snapshots borrow
/// the dense array directly whenever writes have kept it offset-sorted
/// (the common, mostly-ascending case), allocating only when an
/// out-of-order write or a removal has perturbed the order.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExternalMem {
    /// Dense storage in insertion order; the index refers into this.
    entries: Vec<(u64, u32)>,
    /// Open-addressing slots: [`SLOT_EMPTY`], [`SLOT_TOMB`], or dense
    /// index + 2. Capacity is always a power of two (or zero when empty).
    index: Vec<u32>,
    /// Slots wasted on tombstones, triggering a rebuild when excessive.
    tombstones: usize,
    /// Whether `entries` is sorted by ascending offset right now, i.e.
    /// whether a snapshot can borrow it without sorting.
    sorted: bool,
}

const SLOT_EMPTY: u32 = 0;
const SLOT_TOMB: u32 = 1;

/// FNV-1a over the key's little-endian bytes.
#[inline]
fn fnv_hash_offset(key: u64) -> u64 {
    fnv1a(FNV_OFFSET, &key.to_le_bytes())
}

impl ExternalMem {
    pub(crate) fn new() -> Self {
        ExternalMem {
            entries: Vec::new(),
            index: Vec::new(),
            tombstones: 0,
            sorted: true,
        }
    }

    /// Number of words currently holding nonzero data.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Looks up the value stored at `key` (a word offset), zero if absent.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> u32 {
        if self.index.is_empty() {
            return 0;
        }
        let mask = self.index.len() - 1;
        let mut slot = fnv_hash_offset(key) as usize & mask;
        loop {
            match self.index[slot] {
                SLOT_EMPTY => return 0,
                SLOT_TOMB => {}
                packed => {
                    let dense = (packed - 2) as usize;
                    if self.entries[dense].0 == key {
                        return self.entries[dense].1;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Inserts or overwrites `key` with a nonzero `value`.
    pub(crate) fn insert(&mut self, key: u64, value: u32) {
        debug_assert_ne!(value, 0, "zero words are removed, not stored");
        self.reserve_one();
        let mask = self.index.len() - 1;
        let mut slot = fnv_hash_offset(key) as usize & mask;
        let mut reuse: Option<usize> = None;
        loop {
            match self.index[slot] {
                SLOT_EMPTY => {
                    if self.sorted {
                        self.sorted = self.entries.last().is_none_or(|&(last, _)| last < key);
                    }
                    self.entries.push((key, value));
                    let target = reuse.unwrap_or(slot);
                    if reuse.is_some() {
                        self.tombstones -= 1;
                    }
                    self.index[target] = (self.entries.len() - 1) as u32 + 2;
                    return;
                }
                SLOT_TOMB => {
                    if reuse.is_none() {
                        reuse = Some(slot);
                    }
                }
                packed => {
                    let dense = (packed - 2) as usize;
                    if self.entries[dense].0 == key {
                        self.entries[dense].1 = value;
                        return;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Removes `key` if present (a zero write frees the word).
    pub(crate) fn remove(&mut self, key: u64) {
        if self.index.is_empty() {
            return;
        }
        let mask = self.index.len() - 1;
        let mut slot = fnv_hash_offset(key) as usize & mask;
        loop {
            match self.index[slot] {
                SLOT_EMPTY => return,
                SLOT_TOMB => {}
                packed => {
                    let dense = (packed - 2) as usize;
                    if self.entries[dense].0 == key {
                        self.index[slot] = SLOT_TOMB;
                        self.tombstones += 1;
                        let last = self.entries.len() - 1;
                        self.entries.swap_remove(dense);
                        if dense != last {
                            // Re-point the moved entry's slot at its new
                            // dense position.
                            let moved_key = self.entries[dense].0;
                            let mut fix = fnv_hash_offset(moved_key) as usize & mask;
                            loop {
                                if self.index[fix] == last as u32 + 2 {
                                    self.index[fix] = dense as u32 + 2;
                                    break;
                                }
                                fix = (fix + 1) & mask;
                            }
                        }
                        // A removal can leave any permutation behind; the
                        // empty map is trivially sorted again.
                        self.sorted = self.entries.len() <= 1;
                        return;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The entries ordered by ascending offset, borrowing the dense array
    /// when writes have kept it sorted and copying only when they have
    /// not. Checkpointing calls this every snapshot.
    pub(crate) fn snapshot(&self) -> Cow<'_, [(u64, u32)]> {
        if self.sorted {
            Cow::Borrowed(&self.entries)
        } else {
            let mut copy = self.entries.clone();
            copy.sort_unstable_by_key(|&(k, _)| k);
            Cow::Owned(copy)
        }
    }

    /// Rebuilds from checkpointed pairs, dropping explicit zeros.
    pub(crate) fn from_pairs(pairs: impl IntoIterator<Item = (u64, u32)>) -> Self {
        let mut mem = ExternalMem::new();
        for (key, value) in pairs {
            if value != 0 {
                mem.insert(key, value);
            }
        }
        mem
    }

    /// Grows or rebuilds the slot array so one more insert always finds
    /// an empty slot, keeping the load factor (live + tombstones) under
    /// 3/4.
    fn reserve_one(&mut self) {
        let needed = self.entries.len() + self.tombstones + 1;
        if self.index.len() >= 16 && needed * 4 <= self.index.len() * 3 {
            return;
        }
        let cap = (self.entries.len() + 1)
            .next_power_of_two()
            .max(16)
            .saturating_mul(2);
        self.index.clear();
        self.index.resize(cap, SLOT_EMPTY);
        self.tombstones = 0;
        let mask = cap - 1;
        for (dense, &(key, _)) in self.entries.iter().enumerate() {
            let mut slot = fnv_hash_offset(key) as usize & mask;
            while self.index[slot] != SLOT_EMPTY {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = dense as u32 + 2;
        }
    }
}

/// Word-addressed storage for all SPM banks of the cluster, plus a sparse
/// external memory.
///
/// Sub-word accesses are performed as read-modify-write on the containing
/// word; this is safe because the owning bank serializes accesses.
#[derive(Debug, Clone)]
pub struct Storage {
    /// Flat bank storage: `global_bank * bank_words + word`.
    spm: Vec<u32>,
    bank_words: u32,
    banks_per_tile: u32,
    map: AddressMap,
    /// Spare-bank storage, `(tile * spares_per_tile + slot) * bank_words +
    /// word`, allocated on demand by [`Self::provision_spares`].
    spare: Vec<u32>,
    spares_per_tile: u32,
    num_tiles: u32,
    /// Sparse external memory, keyed by word offset (open-addressing FNV
    /// map — see [`ExternalMem`]).
    external: ExternalMem,
    /// SPM words read or written so far (core accesses and DMA word
    /// traffic alike) — the time-series sampler reads this per epoch.
    /// A `Cell` because [`Self::read_loc`] counts through `&self`; the
    /// engine counts its touches in its lane and folds them in at the
    /// quantum boundary ([`Self::add_touches`]).
    touches: Cell<u64>,
}

/// Which physical array a resolved location lands in.
enum Slot {
    Main(usize),
    Spare(usize),
}

/// The checks of an address decode, given the region `addr`'s word was
/// located in: alignment first, then mapping. Shared by
/// [`Storage::decode`] and the engine's issue path, which has located the
/// word already (for remote-port arbitration) by the time it knows the
/// access width.
#[inline]
pub(crate) fn check_region(
    region: MemoryRegion,
    addr: u32,
    width: MemWidth,
) -> Result<MemoryRegion, MemoryError> {
    if !addr.is_multiple_of(width.bytes()) {
        return Err(MemoryError::Misaligned { addr });
    }
    match region {
        MemoryRegion::Unmapped => Err(MemoryError::Unmapped { addr }),
        region => Ok(region),
    }
}

impl Storage {
    /// Creates zeroed storage for the given configuration.
    pub fn new(cfg: &ClusterConfig) -> Self {
        Storage {
            spm: vec![0; (cfg.num_banks() * cfg.bank_words()) as usize],
            bank_words: cfg.bank_words(),
            banks_per_tile: cfg.banks_per_tile(),
            map: AddressMap::new(cfg),
            spare: Vec::new(),
            spares_per_tile: 0,
            num_tiles: cfg.num_tiles(),
            external: ExternalMem::new(),
            touches: Cell::new(0),
        }
    }

    /// Total SPM words read or written so far, in program order. Counts
    /// every resolved [`Self::read_loc`]/[`Self::write_loc`] — core
    /// accesses, DMA word loops, and debug reads alike.
    pub fn spm_word_touches(&self) -> u64 {
        self.touches.get()
    }

    /// The address map used to decode accesses.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Allocates `spares_per_tile` zeroed spare banks per tile and enables
    /// the remap policy on the address map. Growing the pool preserves the
    /// content of already-provisioned spares.
    pub fn provision_spares(&mut self, spares_per_tile: u32) {
        if spares_per_tile > self.spares_per_tile {
            let words =
                self.num_tiles as usize * spares_per_tile as usize * self.bank_words as usize;
            let mut grown = vec![0u32; words];
            // Re-home existing spare content under the wider per-tile stride.
            for tile in 0..self.num_tiles as usize {
                for slot in 0..self.spares_per_tile as usize {
                    let old_base =
                        (tile * self.spares_per_tile as usize + slot) * self.bank_words as usize;
                    let new_base =
                        (tile * spares_per_tile as usize + slot) * self.bank_words as usize;
                    grown[new_base..new_base + self.bank_words as usize].copy_from_slice(
                        &self.spare[old_base..old_base + self.bank_words as usize],
                    );
                }
            }
            self.spare = grown;
            self.spares_per_tile = spares_per_tile;
        }
        self.map.enable_spares(spares_per_tile);
    }

    /// Takes a faulted bank out of service: redirects it to the tile's next
    /// free spare and copies the bank's current content over, so data
    /// loaded before the fault was discovered survives. Returns the spare's
    /// bank id.
    ///
    /// # Errors
    ///
    /// Fails if spares are not provisioned, the bank is out of range or
    /// already remapped, or the tile's spares are exhausted.
    pub fn remap_bank(&mut self, tile: TileId, bank: BankId) -> Result<BankId, RemapError> {
        let spare = self.map.disable_bank(tile, bank)?;
        let main_base = (tile.0 as usize * self.banks_per_tile as usize + bank.index())
            * self.bank_words as usize;
        let slot = (spare.0 - self.banks_per_tile) as usize;
        let spare_base =
            (tile.0 as usize * self.spares_per_tile as usize + slot) * self.bank_words as usize;
        let (words, main, sp) = (self.bank_words as usize, main_base, spare_base);
        self.spare[sp..sp + words].copy_from_slice(&self.spm[main..main + words]);
        Ok(spare)
    }

    /// Resolves a logical location through the remap table to the physical
    /// array index backing it.
    fn slot(&self, loc: BankLocation) -> Result<Slot, MemoryError> {
        if loc.word >= self.bank_words || loc.bank.0 >= self.banks_per_tile {
            return Err(MemoryError::BadLocation);
        }
        let resolved = self.map.resolve(loc);
        if resolved.bank.0 >= self.banks_per_tile {
            // Redirected to a spare bank.
            let slot = (resolved.bank.0 - self.banks_per_tile) as usize;
            let index = (resolved.tile.0 as usize * self.spares_per_tile as usize + slot)
                * self.bank_words as usize
                + loc.word as usize;
            if index >= self.spare.len() {
                return Err(MemoryError::BadLocation);
            }
            return Ok(Slot::Spare(index));
        }
        let global_bank =
            resolved.tile.0 as usize * self.banks_per_tile as usize + resolved.bank.index();
        let index = global_bank * self.bank_words as usize + loc.word as usize;
        if index >= self.spm.len() {
            return Err(MemoryError::BadLocation);
        }
        Ok(Slot::Main(index))
    }

    /// Reads the word at a (logical) bank location, following any
    /// spare-bank substitution.
    ///
    /// # Errors
    ///
    /// Returns an error if the location is outside the bank geometry.
    pub fn read_loc(&self, loc: BankLocation) -> Result<u32, MemoryError> {
        let value = match self.slot(loc)? {
            Slot::Main(index) => self.spm[index],
            Slot::Spare(index) => self.spare[index],
        };
        self.touches.set(self.touches.get() + 1);
        Ok(value)
    }

    /// Writes the word at a (logical) bank location, following any
    /// spare-bank substitution.
    ///
    /// # Errors
    ///
    /// Returns an error if the location is outside the bank geometry.
    pub fn write_loc(&mut self, loc: BankLocation, value: u32) -> Result<(), MemoryError> {
        match self.slot(loc)? {
            Slot::Main(index) => self.spm[index] = value,
            Slot::Spare(index) => self.spare[index] = value,
        }
        self.touches.set(self.touches.get() + 1);
        Ok(())
    }

    /// Writes directly into the *physical* faulted bank, bypassing the
    /// remap table — test hook modeling the defect corrupting the cell
    /// array (a remapped read must not see this).
    #[cfg(test)]
    pub(crate) fn write_physical(&mut self, loc: BankLocation, value: u32) {
        let global_bank = loc.tile.0 as usize * self.banks_per_tile as usize + loc.bank.index();
        self.spm[global_bank * self.bank_words as usize + loc.word as usize] = value;
    }

    /// Decodes an address, checking alignment for the given width.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn decode(&self, addr: u32, width: MemWidth) -> Result<MemoryRegion, MemoryError> {
        check_region(self.map.locate(addr & !3), addr, width)
    }

    /// Reads a naturally aligned value of the given width at `addr`
    /// (SPM or external).
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn read(&self, addr: u32, width: MemWidth) -> Result<u32, MemoryError> {
        let word = match self.decode(addr, width)? {
            MemoryRegion::Spm(loc) => self.read_loc(loc)?,
            MemoryRegion::External(offset) => self.read_external_word(offset & !3),
            MemoryRegion::Unmapped => unreachable!(),
        };
        let shift = (addr & 3) * 8;
        Ok(match width {
            MemWidth::Byte => (word >> shift) & 0xff,
            MemWidth::Half => (word >> shift) & 0xffff,
            MemWidth::Word => word,
        })
    }

    /// Writes a naturally aligned value of the given width at `addr`
    /// (SPM or external).
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn write(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), MemoryError> {
        let region = self.decode(addr, width)?;
        let old = match region {
            MemoryRegion::Spm(loc) => self.read_loc(loc)?,
            MemoryRegion::External(offset) => self.read_external_word(offset & !3),
            MemoryRegion::Unmapped => unreachable!(),
        };
        let shift = (addr & 3) * 8;
        let new = match width {
            MemWidth::Byte => (old & !(0xff << shift)) | ((value & 0xff) << shift),
            MemWidth::Half => (old & !(0xffff << shift)) | ((value & 0xffff) << shift),
            MemWidth::Word => value,
        };
        match region {
            MemoryRegion::Spm(loc) => self.write_loc(loc, new)?,
            MemoryRegion::External(offset) => self.write_external_word(offset & !3, new),
            MemoryRegion::Unmapped => unreachable!(),
        }
        Ok(())
    }

    /// Checkpoint accessor: the flat main SPM array.
    pub(crate) fn spm_words(&self) -> &[u32] {
        &self.spm
    }

    /// Checkpoint accessor: the flat spare-bank array.
    pub(crate) fn spare_words(&self) -> &[u32] {
        &self.spare
    }

    /// Checkpoint accessor: spare banks provisioned per tile.
    pub(crate) fn spares_per_tile(&self) -> u32 {
        self.spares_per_tile
    }

    /// Checkpoint accessor: external memory as `(word_offset, value)`
    /// pairs sorted by offset, for a deterministic serialization order.
    /// Borrows the dense storage without copying whenever external writes
    /// have been append-ordered (the common case on the snapshot path).
    pub(crate) fn external_entries(&self) -> Cow<'_, [(u64, u32)]> {
        self.external.snapshot()
    }

    /// Splits the storage into the flat main SPM array, the flat spare
    /// array (`spares_per_tile` banks per tile, tile-major; empty when
    /// none are provisioned) and the address map, for the engine's
    /// per-tile shards: a worker owns its tiles' words in both arrays and
    /// resolves each access through the shared, read-only remap table.
    pub(crate) fn split_banks(&mut self) -> (&mut [u32], &mut [u32], &AddressMap) {
        (&mut self.spm, &mut self.spare, &self.map)
    }

    /// Folds the engine's per-quantum SPM touch count into the counter.
    pub(crate) fn add_touches(&self, touches: u64) {
        self.touches.set(self.touches.get() + touches);
    }

    /// Restores the mutable storage contents from a checkpoint. The remap
    /// table must already have been re-established (via
    /// [`Self::provision_spares`] / [`Self::remap_bank`]) so the spare
    /// array has its final size; contents are then overwritten wholesale.
    ///
    /// # Errors
    ///
    /// Fails (with a description) if the saved arrays do not match this
    /// storage's geometry.
    pub(crate) fn restore_contents(
        &mut self,
        spm: Vec<u32>,
        spare: Vec<u32>,
        external: Vec<(u64, u32)>,
        touches: u64,
    ) -> Result<(), String> {
        if spm.len() != self.spm.len() {
            return Err(format!(
                "spm size mismatch: saved {} words, storage holds {}",
                spm.len(),
                self.spm.len()
            ));
        }
        if spare.len() != self.spare.len() {
            return Err(format!(
                "spare size mismatch: saved {} words, storage holds {}",
                spare.len(),
                self.spare.len()
            ));
        }
        self.spm = spm;
        self.spare = spare;
        self.external = ExternalMem::from_pairs(external);
        self.touches.set(touches);
        Ok(())
    }

    /// Reads a word from external memory by byte offset (must be aligned).
    pub fn read_external_word(&self, offset: u64) -> u32 {
        debug_assert_eq!(offset % 4, 0);
        self.external.get(offset / 4)
    }

    /// Writes a word to external memory by byte offset (must be aligned).
    pub fn write_external_word(&mut self, offset: u64, value: u32) {
        debug_assert_eq!(offset % 4, 0);
        if value == 0 {
            self.external.remove(offset / 4);
        } else {
            self.external.insert(offset / 4, value);
        }
    }

    /// Number of words of external memory currently holding nonzero data.
    pub fn external_footprint_words(&self) -> usize {
        self.external.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::AddressMap;

    fn storage() -> Storage {
        Storage::new(&ClusterConfig::default())
    }

    #[test]
    fn touch_counter_follows_resolved_word_accesses() {
        let mut s = storage();
        assert_eq!(s.spm_word_touches(), 0);
        s.write(0, MemWidth::Word, 7).unwrap();
        assert_eq!(s.read(0, MemWidth::Word).unwrap(), 7);
        // A sub-word write is a read-modify-write: two touches.
        s.write(1, MemWidth::Byte, 0xff).unwrap();
        assert!(s.spm_word_touches() >= 4);
        let before = s.spm_word_touches();
        // Failed accesses do not count.
        assert!(s.read(2, MemWidth::Word).is_err());
        assert_eq!(s.spm_word_touches(), before);
    }

    #[test]
    fn word_round_trip_in_interleaved_region() {
        let mut s = storage();
        let base = s.map().interleaved_base();
        s.write(base, MemWidth::Word, 0xcafe_babe).unwrap();
        assert_eq!(s.read(base, MemWidth::Word).unwrap(), 0xcafe_babe);
        // The next word lives in a different bank but must be independent.
        assert_eq!(s.read(base + 4, MemWidth::Word).unwrap(), 0);
    }

    #[test]
    fn sub_word_accesses_merge_into_words() {
        let mut s = storage();
        s.write(0, MemWidth::Word, 0x1122_3344).unwrap();
        s.write(1, MemWidth::Byte, 0xff).unwrap();
        assert_eq!(s.read(0, MemWidth::Word).unwrap(), 0x1122_ff44);
        s.write(2, MemWidth::Half, 0xaabb).unwrap();
        assert_eq!(s.read(0, MemWidth::Word).unwrap(), 0xaabb_ff44);
        assert_eq!(s.read(3, MemWidth::Byte).unwrap(), 0xaa);
    }

    #[test]
    fn misaligned_accesses_rejected() {
        let mut s = storage();
        assert_eq!(
            s.read(2, MemWidth::Word).unwrap_err(),
            MemoryError::Misaligned { addr: 2 }
        );
        assert_eq!(
            s.write(1, MemWidth::Half, 0).unwrap_err(),
            MemoryError::Misaligned { addr: 1 }
        );
        // Byte accesses are never misaligned.
        assert!(s.read(3, MemWidth::Byte).is_ok());
    }

    #[test]
    fn unmapped_addresses_rejected() {
        let s = storage();
        let past_spm = s.map().spm_end() as u32;
        assert_eq!(
            s.read(past_spm, MemWidth::Word).unwrap_err(),
            MemoryError::Unmapped { addr: past_spm }
        );
    }

    #[test]
    fn external_memory_is_sparse_and_unbounded() {
        let mut s = storage();
        let far = AddressMap::EXTERNAL_BASE + 0x0100_0000;
        s.write(far, MemWidth::Word, 7).unwrap();
        assert_eq!(s.read(far, MemWidth::Word).unwrap(), 7);
        assert_eq!(s.external_footprint_words(), 1);
        // Writing zero reclaims the slot.
        s.write(far, MemWidth::Word, 0).unwrap();
        assert_eq!(s.external_footprint_words(), 0);
    }

    #[test]
    fn bank_locations_are_bounds_checked() {
        let s = storage();
        let bad = BankLocation {
            tile: mempool_arch::TileId(0),
            bank: mempool_arch::BankId(0),
            word: 99_999,
        };
        assert_eq!(s.read_loc(bad).unwrap_err(), MemoryError::BadLocation);
    }

    #[test]
    fn remapped_bank_preserves_content_and_isolates_the_faulty_array() {
        let mut s = storage();
        let loc = BankLocation {
            tile: TileId(1),
            bank: BankId(2),
            word: 9,
        };
        s.write_loc(loc, 0xdead_beef).unwrap();
        s.provision_spares(1);
        let spare = s.remap_bank(TileId(1), BankId(2)).unwrap();
        assert!(spare.0 >= s.banks_per_tile);
        // Content copied at remap time survives.
        assert_eq!(s.read_loc(loc).unwrap(), 0xdead_beef);
        // Corruption in the physical faulted array is invisible after the
        // remap...
        s.write_physical(loc, 0x0bad_0bad);
        assert_eq!(s.read_loc(loc).unwrap(), 0xdead_beef);
        // ...and new writes land in (and read back from) the spare.
        s.write_loc(loc, 7).unwrap();
        assert_eq!(s.read_loc(loc).unwrap(), 7);
        // Sibling banks keep their own storage.
        let sibling = BankLocation {
            bank: BankId(3),
            ..loc
        };
        assert_eq!(s.read_loc(sibling).unwrap(), 0);
    }

    #[test]
    fn remap_errors_surface_from_the_map() {
        let mut s = storage();
        assert_eq!(
            s.remap_bank(TileId(0), BankId(0)),
            Err(RemapError::NotEnabled)
        );
        s.provision_spares(1);
        s.remap_bank(TileId(0), BankId(0)).unwrap();
        assert_eq!(
            s.remap_bank(TileId(0), BankId(0)),
            Err(RemapError::AlreadyRemapped {
                tile: TileId(0),
                bank: BankId(0)
            })
        );
        assert_eq!(
            s.remap_bank(TileId(0), BankId(1)),
            Err(RemapError::SparesExhausted { tile: TileId(0) })
        );
    }

    #[test]
    fn widening_the_spare_pool_preserves_spare_content() {
        let mut s = storage();
        let loc = BankLocation {
            tile: TileId(0),
            bank: BankId(0),
            word: 0,
        };
        s.provision_spares(1);
        s.remap_bank(TileId(0), BankId(0)).unwrap();
        s.write_loc(loc, 42).unwrap();
        s.provision_spares(2);
        assert_eq!(s.read_loc(loc).unwrap(), 42);
        assert!(s.remap_bank(TileId(0), BankId(1)).is_ok());
    }
}
