//! Backing storage for the SPM banks and the external (off-chip) memory.
//!
//! The SPM is stored in the cluster's own address order: word `w` of every
//! bank before word `w + 1` of any, global banks in order within a word
//! (`word * num_banks + global_bank`). The interleaved region is then one
//! contiguous slice, and a tile's sequential words come in runs of
//! `banks_per_tile`, so the host's slice path
//! ([`crate::Cluster::write_spm_words`],
//! [`crate::Cluster::read_spm_words`]) moves them with `copy_from_slice`.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

use mempool_arch::{
    AddressMap, BankId, BankLocation, ClusterConfig, MemoryRegion, RemapError, TileId,
};
use mempool_isa::exec::{MemAccessKind, MemWidth};
use mempool_isa::Reg;

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

/// Word-addressed storage for all SPM banks of the cluster, plus a sparse
/// external memory.
///
/// Sub-word accesses are performed as read-modify-write on the containing
/// word; this is safe because the owning bank serializes accesses.
#[derive(Debug, Clone)]
pub struct Storage {
    /// Flat bank storage in address order: `word * num_banks +
    /// global_bank` (see the module docs).
    spm: Vec<u32>,
    bank_words: u32,
    banks_per_tile: u32,
    num_banks: u32,
    map: AddressMap,
    /// Spare-bank storage, `(tile * spares_per_tile + slot) * bank_words +
    /// word`, allocated on demand by [`Self::provision_spares`].
    spare: Vec<u32>,
    spares_per_tile: u32,
    num_tiles: u32,
    /// Sparse external memory: the nonzero words, keyed by word offset. A
    /// zero write removes its word, so the map holds no zeros.
    external: BTreeMap<u64, u32>,
    /// SPM words read or written so far (core accesses and DMA word
    /// traffic alike) — the time-series sampler reads this per epoch.
    /// A `Cell` because [`Self::read_loc`] counts through `&self`; the
    /// engine counts a tick's touches and folds them in after the tick
    /// ([`Self::add_touches`]).
    touches: Cell<u64>,
}

/// Which physical array a resolved location lands in.
enum Slot {
    Main(usize),
    Spare(usize),
}

/// Where a run of consecutive words of a host slice access lives.
enum Target {
    /// Contiguous words of the main SPM array from this index on.
    Main(usize),
    /// Consecutive banks of one tile row from this location on, some of
    /// them remapped: resolved word by word.
    Resolved(BankLocation),
    /// Consecutive external words from this byte offset on.
    External(u64),
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

/// Performs a core's access `kind` on the stored `word`, the sub-word lane
/// picked by byte address `addr`: a load reads its lane, a store merges
/// its lane in, an AMO replaces the word. Returns the raw response value
/// (the loaded lane, the old word of an AMO, 0 for a store).
#[inline]
pub(crate) fn access_word(kind: MemAccessKind, addr: u32, word: &mut u32) -> u32 {
    let old = *word;
    let shift = (addr & 3) * 8;
    match kind {
        MemAccessKind::Load { width, .. } => match width {
            MemWidth::Byte => (old >> shift) & 0xff,
            MemWidth::Half => (old >> shift) & 0xffff,
            MemWidth::Word => old,
        },
        MemAccessKind::Store { width, value } => {
            *word = match width {
                MemWidth::Byte => (old & !(0xff << shift)) | ((value & 0xff) << shift),
                MemWidth::Half => (old & !(0xffff << shift)) | ((value & 0xffff) << shift),
                MemWidth::Word => value,
            };
            0
        }
        MemAccessKind::Amo { op, value, .. } => {
            *word = op.apply(old, value);
            old
        }
    }
}

impl Storage {
    /// Creates zeroed storage for the given configuration.
    pub fn new(cfg: &ClusterConfig) -> Self {
        Storage {
            spm: vec![0; (cfg.num_banks() * cfg.bank_words()) as usize],
            bank_words: cfg.bank_words(),
            banks_per_tile: cfg.banks_per_tile(),
            num_banks: cfg.num_banks(),
            map: AddressMap::new(cfg),
            spare: Vec::new(),
            spares_per_tile: 0,
            num_tiles: cfg.num_tiles(),
            external: BTreeMap::new(),
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
        let global_bank = self.global_bank(tile, bank.0);
        let slot = (spare.0 - self.banks_per_tile) as usize;
        let words = self.bank_words as usize;
        let base = (tile.index() * self.spares_per_tile as usize + slot) * words;
        let column = self.spm[global_bank..]
            .iter()
            .step_by(self.num_banks as usize);
        for (saved, &word) in self.spare[base..base + words].iter_mut().zip(column) {
            *saved = word;
        }
        Ok(spare)
    }

    /// Index of `bank` of `tile` among all the cluster's banks: the bank's
    /// column in the main array.
    fn global_bank(&self, tile: TileId, bank: u32) -> usize {
        tile.index() * self.banks_per_tile as usize + bank as usize
    }

    /// Index in the main array of a location that names a main bank.
    fn main_index(&self, loc: BankLocation) -> usize {
        loc.word as usize * self.num_banks as usize + self.global_bank(loc.tile, loc.bank.0)
    }

    /// Resolves a logical location through the remap table to the physical
    /// array index backing it.
    fn slot(&self, loc: BankLocation) -> Result<Slot, MemoryError> {
        if loc.word >= self.bank_words
            || loc.bank.0 >= self.banks_per_tile
            || loc.tile.0 >= self.num_tiles
        {
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
        Ok(Slot::Main(self.main_index(resolved)))
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
        *self.slot_mut(loc)? = value;
        self.touches.set(self.touches.get() + 1);
        Ok(())
    }

    /// The stored word a (logical) location resolves to. Counts no touch.
    fn slot_mut(&mut self, loc: BankLocation) -> Result<&mut u32, MemoryError> {
        Ok(match self.slot(loc)? {
            Slot::Main(index) => &mut self.spm[index],
            Slot::Spare(index) => &mut self.spare[index],
        })
    }

    /// Writes directly into the *physical* faulted bank, bypassing the
    /// remap table — test hook modeling the defect corrupting the cell
    /// array (a remapped read must not see this).
    #[cfg(test)]
    pub(crate) fn write_physical(&mut self, loc: BankLocation, value: u32) {
        let index = self.main_index(loc);
        self.spm[index] = value;
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
        let mut word = match self.decode(addr, width)? {
            MemoryRegion::Spm(loc) => self.read_loc(loc)?,
            MemoryRegion::External(offset) => self.read_external_word(offset & !3),
            MemoryRegion::Unmapped => unreachable!(),
        };
        let load = MemAccessKind::Load {
            width,
            signed: false,
            rd: Reg::ZERO,
        };
        Ok(access_word(load, addr, &mut word))
    }

    /// Writes a naturally aligned value of the given width at `addr`
    /// (SPM or external). An SPM word is located and resolved once for
    /// its read-modify-write, which counts as the read and the write it
    /// stands for.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn write(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), MemoryError> {
        let kind = MemAccessKind::Store { width, value };
        match self.decode(addr, width)? {
            MemoryRegion::Spm(loc) => {
                access_word(kind, addr, self.slot_mut(loc)?);
                self.touches.set(self.touches.get() + 2);
            }
            MemoryRegion::External(offset) => {
                self.access_external(offset, addr, kind);
            }
            MemoryRegion::Unmapped => unreachable!(),
        }
        Ok(())
    }

    /// The first error a word-by-word loop over the `len` words from
    /// `addr` on would meet: a misaligned start, else the first word in
    /// the hole between the SPM and external memory. A range running past
    /// the top of the 32-bit space is unmapped at the address it would
    /// wrap to.
    #[inline]
    fn check_words(&self, addr: u32, len: usize) -> Result<(), MemoryError> {
        if len == 0 {
            return Ok(());
        }
        if !addr.is_multiple_of(4) {
            return Err(MemoryError::Misaligned { addr });
        }
        let end = u64::from(addr) + 4 * len as u64;
        let hole = u64::from(addr).max(self.map.spm_end());
        if hole < end.min(u64::from(AddressMap::EXTERNAL_BASE)) {
            return Err(MemoryError::Unmapped { addr: hole as u32 });
        }
        if end > 1 << 32 {
            return Err(MemoryError::Unmapped { addr: 0 });
        }
        Ok(())
    }

    /// The longest run of at most `max` words from the mapped word `addr`
    /// on that one copy can move: the rest of the interleaved region while
    /// no bank is remapped, else the rest of the word's tile row. Always
    /// inlined, so that a one-word access pays no call for it.
    #[inline(always)]
    fn run(&self, addr: u32, max: usize) -> (Target, usize) {
        let loc = match self.map.locate(addr) {
            MemoryRegion::Spm(loc) => loc,
            MemoryRegion::External(offset) => return (Target::External(offset), max),
            MemoryRegion::Unmapped => unreachable!("a checked range maps every word"),
        };
        let remapped_tiles = || {
            let entries = self.map.remap().into_iter().flat_map(|r| r.entries());
            entries.map(|(tile, ..)| tile)
        };
        let len = if remapped_tiles().next().is_none() && addr >= self.map.interleaved_base() {
            ((self.map.spm_end() - u64::from(addr)) / 4) as usize
        } else {
            (self.banks_per_tile - loc.bank.0) as usize
        };
        let target = if remapped_tiles().any(|tile| tile == loc.tile) {
            Target::Resolved(loc)
        } else {
            Target::Main(self.main_index(loc))
        };
        (target, len.min(max))
    }

    /// Writes `values` to the consecutive words from `addr` on (SPM or
    /// external), as [`Self::write`] would word by word — remapped banks
    /// followed, two touches per SPM word — except that a bad range writes
    /// nothing.
    ///
    /// # Errors
    ///
    /// The first error the word-by-word loop would meet: a misaligned
    /// `addr`, or the first unmapped word.
    #[inline(always)]
    pub(crate) fn write_words(&mut self, addr: u32, values: &[u32]) -> Result<(), MemoryError> {
        self.check_words(addr, values.len())?;
        let (mut done, mut spm_words) = (0, 0);
        while done < values.len() {
            let (target, len) = self.run(addr + 4 * done as u32, values.len() - done);
            let src = &values[done..done + len];
            match target {
                // One word is a store, not a `memcpy` call.
                Target::Main(index) => match src {
                    [value] => self.spm[index] = *value,
                    _ => self.spm[index..index + len].copy_from_slice(src),
                },
                Target::Resolved(loc) => {
                    for (bank, &value) in (loc.bank.0..).zip(src) {
                        *self.word_mut(BankLocation {
                            bank: BankId(bank),
                            ..loc
                        }) = value;
                    }
                }
                Target::External(offset) => {
                    for (at, &value) in (offset..).step_by(4).zip(src) {
                        self.write_external_word(at, value);
                    }
                }
            }
            if !matches!(target, Target::External(_)) {
                spm_words += len as u64;
            }
            done += len;
        }
        self.add_touches(2 * spm_words);
        Ok(())
    }

    /// Reads the consecutive words from `addr` on (SPM or external) into
    /// `out`, as [`Self::read`] would word by word: remapped banks
    /// followed, one touch per SPM word.
    ///
    /// # Errors
    ///
    /// The first error the word-by-word loop would meet, with nothing
    /// read: a misaligned `addr`, or the first unmapped word.
    #[inline]
    pub(crate) fn read_words(&self, addr: u32, out: &mut [u32]) -> Result<(), MemoryError> {
        self.check_words(addr, out.len())?;
        let (mut done, mut spm_words) = (0, 0);
        while done < out.len() {
            let (target, len) = self.run(addr + 4 * done as u32, out.len() - done);
            let dst = &mut out[done..done + len];
            match target {
                Target::Main(index) => match dst {
                    [value] => *value = self.spm[index],
                    _ => dst.copy_from_slice(&self.spm[index..index + len]),
                },
                Target::Resolved(loc) => {
                    for (bank, value) in (loc.bank.0..).zip(dst) {
                        *value = self.word(BankLocation {
                            bank: BankId(bank),
                            ..loc
                        });
                    }
                }
                Target::External(offset) => {
                    for (at, value) in (offset..).step_by(4).zip(dst) {
                        *value = self.read_external_word(at);
                    }
                }
            }
            if !matches!(target, Target::External(_)) {
                spm_words += len as u64;
            }
            done += len;
        }
        self.add_touches(spm_words);
        Ok(())
    }

    /// Checkpoint accessor: the main SPM array in bank-major order
    /// (`global_bank * bank_words + word`), the order checkpoint files
    /// keep.
    pub(crate) fn spm_bank_major(&self) -> Vec<u32> {
        let mut saved = vec![0; self.spm.len()];
        transpose(&self.spm, self.bank_words as usize, &mut saved);
        saved
    }

    /// Checkpoint accessor: the flat spare-bank array.
    pub(crate) fn spare_words(&self) -> &[u32] {
        &self.spare
    }

    /// Checkpoint accessor: spare banks provisioned per tile.
    pub(crate) fn spares_per_tile(&self) -> u32 {
        self.spares_per_tile
    }

    /// Checkpoint accessor: the nonzero external words as `(word_offset,
    /// value)` pairs in ascending offset order, the map's own order.
    pub(crate) fn external_entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.external
            .iter()
            .map(|(&offset, &value)| (offset, value))
    }

    /// The stored word at a (logical) bank location, following any
    /// spare-bank substitution: the engine's way into the arrays, for a
    /// location the address map produced. Counts no touch.
    pub(crate) fn word_mut(&mut self, loc: BankLocation) -> &mut u32 {
        match self.slot_mut(loc) {
            Ok(word) => word,
            Err(e) => unreachable!("a located word lies inside the geometry: {e}"),
        }
    }

    /// [`Self::word_mut`]'s value.
    fn word(&self, loc: BankLocation) -> u32 {
        match self.slot(loc) {
            Ok(Slot::Main(index)) => self.spm[index],
            Ok(Slot::Spare(index)) => self.spare[index],
            Err(e) => unreachable!("a located word lies inside the geometry: {e}"),
        }
    }

    /// Performs a core's access `kind` at byte address `addr` on the
    /// external word at byte `offset`; returns what [`access_word`]
    /// returns.
    pub(crate) fn access_external(&mut self, offset: u64, addr: u32, kind: MemAccessKind) -> u32 {
        let offset = offset & !3;
        let mut word = self.read_external_word(offset);
        let value = access_word(kind, addr, &mut word);
        if !matches!(kind, MemAccessKind::Load { .. }) {
            self.write_external_word(offset, word);
        }
        value
    }

    /// Folds the engine's count of SPM words touched into the counter.
    pub(crate) fn add_touches(&self, touches: u64) {
        self.touches.set(self.touches.get() + touches);
    }

    /// Restores the mutable storage contents from a checkpoint, `spm` in
    /// the bank-major order of [`Self::spm_bank_major`]. The remap table
    /// must already have been re-established (via
    /// [`Self::provision_spares`] / [`Self::remap_bank`]) so the spare
    /// array has its final size; contents are then overwritten wholesale.
    ///
    /// # Errors
    ///
    /// Fails (with a description) if the saved arrays do not match this
    /// storage's geometry.
    pub(crate) fn restore_contents(
        &mut self,
        spm: &[u32],
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
        transpose(spm, self.num_banks as usize, &mut self.spm);
        self.spare = spare;
        self.external = external
            .into_iter()
            .filter(|&(_, value)| value != 0)
            .collect();
        self.touches.set(touches);
        Ok(())
    }

    /// Reads a word from external memory by byte offset (must be aligned).
    pub fn read_external_word(&self, offset: u64) -> u32 {
        debug_assert_eq!(offset % 4, 0);
        self.external.get(&(offset / 4)).copied().unwrap_or(0)
    }

    /// Writes a word to external memory by byte offset (must be aligned).
    pub fn write_external_word(&mut self, offset: u64, value: u32) {
        debug_assert_eq!(offset % 4, 0);
        if value == 0 {
            self.external.remove(&(offset / 4));
        } else {
            self.external.insert(offset / 4, value);
        }
    }

    /// Number of words of external memory currently holding nonzero data.
    pub fn external_footprint_words(&self) -> usize {
        self.external.len()
    }
}

/// Writes the transpose of the row-major matrix `from`, `rows` rows of
/// `from.len() / rows` words, into `to`: one band of a cache line's worth
/// of rows at a time, so that every line written is written whole.
fn transpose(from: &[u32], rows: usize, to: &mut [u32]) {
    const BAND: usize = 16;
    let cols = from.len() / rows;
    for first in (0..rows).step_by(BAND) {
        let band = BAND.min(rows - first);
        let block = &from[first * cols..(first + band) * cols];
        for col in 0..cols {
            let column = block[col..].iter().step_by(cols);
            for (slot, &word) in to[col * rows + first..][..band].iter_mut().zip(column) {
                *slot = word;
            }
        }
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
