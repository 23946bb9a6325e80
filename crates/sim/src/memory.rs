//! Backing storage for the SPM banks and the external (off-chip) memory.
//!
//! [`Storage`] is the one place that knows where a word lives and what a
//! read of it returns. The SPM is stored in the cluster's own address
//! order: word `w` of every bank before word `w + 1` of any, global banks
//! in order within a word (`word * num_banks + global_bank`). The
//! interleaved region is then one contiguous slice, and a tile's
//! sequential words come in runs of `banks_per_tile`, so the host's slice
//! path ([`crate::Cluster::write_spm_words`],
//! [`crate::Cluster::read_spm_words`]) moves them with `copy_from_slice`,
//! and its one-word path ([`crate::Cluster::write_spm_word`],
//! [`crate::Cluster::read_spm_word`]) locates a word once and stores or
//! loads it in place.
//!
//! The memory die's damage is storage state too: a stuck bank remapped
//! onto a spare ([`Storage::remap_bank`]) resolves through a dense spare
//! slot per global bank, and a transient flip corrupts the stored word and
//! arms its SEC-DED mask ([`EccState`]). What the word then reads as is
//! decided here: a core's access corrects and scrubs it or fails, a host
//! read corrects it on the fly, and any write clears the mask.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

use mempool_arch::{AddressMap, BankId, BankLocation, ClusterConfig, MemoryRegion, TileId};
use mempool_fault::{EccOutcome, EccState};
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
    /// SEC-DED detected a multi-bit, uncorrectable error in the word read.
    Uncorrectable {
        /// Word the error is in.
        loc: BankLocation,
        /// The accumulated error mask.
        mask: u32,
    },
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::Unmapped { addr } => write!(f, "address {addr:#010x} is unmapped"),
            MemoryError::Misaligned { addr } => {
                write!(f, "misaligned access at {addr:#010x}")
            }
            MemoryError::BadLocation => f.write_str("bank location out of range"),
            MemoryError::Uncorrectable { loc, mask } => {
                write!(
                    f,
                    "uncorrectable multi-bit error at {loc} (mask {mask:#010x})"
                )
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Error returned by the spare-bank remap policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapError {
    /// Spare banks were never provisioned on this storage.
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
    /// Per global bank, the slot of the tile's spare that backs it once
    /// it is remapped. Spare `slot` of a tile is bank `banks_per_tile +
    /// slot`, outside the addressable geometry, so the address map — and
    /// with it bank queues, conflict statistics and heatmaps — keeps
    /// working on logical bank ids.
    spare_slot: Vec<Option<u32>>,
    /// The substitutions as `(tile, from, to)`, in the order they were
    /// made: the order that assigns the spare slots, which a checkpoint
    /// replays.
    remaps: Vec<(TileId, BankId, BankId)>,
    /// Pending SEC-DED masks of flipped words, by logical location.
    ecc: EccState,
    /// Sparse external memory: the nonzero words, keyed by word offset. A
    /// zero write removes its word, so the map holds no zeros.
    external: BTreeMap<u64, u32>,
    /// SPM words read or written so far (core accesses and DMA word
    /// traffic alike) — the time-series sampler reads this per epoch.
    /// A `Cell` because the host's reads count through `&self`.
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
    /// The one word of a remapped bank, at this index of the spare array.
    Spare(usize),
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
fn access_word(kind: MemAccessKind, addr: u32, word: &mut u32) -> u32 {
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
            spare_slot: vec![None; cfg.num_banks() as usize],
            remaps: Vec::new(),
            ecc: EccState::new(),
            external: BTreeMap::new(),
            touches: Cell::new(0),
        }
    }

    /// Total SPM words read or written so far, in program order: core
    /// accesses (a scrub is one more write), flips (a read and a write),
    /// DMA rows, and debug reads alike.
    pub fn spm_word_touches(&self) -> u64 {
        self.touches.get()
    }

    /// The address map used to decode accesses.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Allocates `spares_per_tile` zeroed spare banks per tile for the
    /// remap policy. Growing the pool preserves the content of
    /// already-provisioned spares and every substitution; a smaller count
    /// changes nothing.
    pub fn provision_spares(&mut self, spares_per_tile: u32) {
        if spares_per_tile <= self.spares_per_tile {
            return;
        }
        let old = self.spares_per_tile as usize * self.bank_words as usize;
        let new = spares_per_tile as usize * self.bank_words as usize;
        let mut grown = vec![0u32; self.num_tiles as usize * new];
        // Re-home each tile's spares at the start of its wider block.
        for tile in 0..self.num_tiles as usize {
            grown[tile * new..][..old].copy_from_slice(&self.spare[tile * old..][..old]);
        }
        self.spare = grown;
        self.spares_per_tile = spares_per_tile;
    }

    /// Takes a faulted bank out of service: redirects it to the tile's next
    /// free spare and copies the bank's current content over, so data
    /// loaded before the fault was discovered survives. Returns the spare's
    /// bank id (`banks_per_tile + slot`, outside the addressable
    /// geometry).
    ///
    /// # Errors
    ///
    /// Fails if spares are not provisioned, the bank is out of range or
    /// already remapped, or the tile's spares are exhausted.
    pub fn remap_bank(&mut self, tile: TileId, bank: BankId) -> Result<BankId, RemapError> {
        if self.spares_per_tile == 0 {
            return Err(RemapError::NotEnabled);
        }
        if tile.0 >= self.num_tiles || bank.0 >= self.banks_per_tile {
            return Err(RemapError::OutOfRange { tile, bank });
        }
        let global_bank = self.global_bank(tile, bank.0);
        if self.spare_slot[global_bank].is_some() {
            return Err(RemapError::AlreadyRemapped { tile, bank });
        }
        let slot = self.remaps.iter().filter(|&&(t, ..)| t == tile).count() as u32;
        if slot >= self.spares_per_tile {
            return Err(RemapError::SparesExhausted { tile });
        }
        let spare = BankId(self.banks_per_tile + slot);
        self.spare_slot[global_bank] = Some(slot);
        self.remaps.push((tile, bank, spare));
        let words = self.bank_words as usize;
        let base = (tile.index() * self.spares_per_tile as usize + slot as usize) * words;
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
    #[inline]
    fn global_bank(&self, tile: TileId, bank: u32) -> usize {
        tile.index() * self.banks_per_tile as usize + bank as usize
    }

    /// The physical array index backing a logical location: its spare's
    /// word once its bank is remapped, else its main word.
    #[inline]
    fn slot(&self, loc: BankLocation) -> Result<Slot, MemoryError> {
        if loc.word >= self.bank_words
            || loc.bank.0 >= self.banks_per_tile
            || loc.tile.0 >= self.num_tiles
        {
            return Err(MemoryError::BadLocation);
        }
        Ok(self.located_slot(loc))
    }

    /// [`Self::slot`] of a location the address map handed out, which
    /// lies inside the geometry by construction.
    #[inline]
    fn located_slot(&self, loc: BankLocation) -> Slot {
        let global_bank = self.global_bank(loc.tile, loc.bank.0);
        match self.spare_slot[global_bank] {
            None => Slot::Main(loc.word as usize * self.num_banks as usize + global_bank),
            Some(slot) => Slot::Spare(
                (loc.tile.index() * self.spares_per_tile as usize + slot as usize)
                    * self.bank_words as usize
                    + loc.word as usize,
            ),
        }
    }

    /// Lands a transient flip: XORs `mask` into the word at `loc` — into
    /// its spare when its bank is remapped — and arms the word's SEC-DED
    /// mask, one read and one write of the word. A flip outside the
    /// geometry is inert.
    pub(crate) fn flip(&mut self, loc: BankLocation, mask: u32) {
        match self.slot(loc) {
            Ok(Slot::Main(index)) => self.spm[index] ^= mask,
            Ok(Slot::Spare(index)) => self.spare[index] ^= mask,
            Err(_) => return,
        }
        self.add_touches(2);
        self.ecc.note_flip(loc, mask);
    }

    /// Serves a core's access `kind` at byte address `addr` on the word at
    /// the located `loc`, as its bank does: an access that observes the
    /// stored word (all but a full-word store) has a single-bit error
    /// corrected and scrubbed first, and any write leaves an error-free
    /// word behind. Returns the raw response value and whether a
    /// correction was made, or the mask of a multi-bit error the access
    /// observes (then doing nothing). One touch for the access, one for a
    /// scrub and one for a write.
    #[inline]
    pub(crate) fn serve(
        &mut self,
        loc: BankLocation,
        addr: u32,
        kind: MemAccessKind,
    ) -> Result<(u32, bool), u32> {
        let word = match self.slot(loc) {
            Ok(Slot::Main(index)) => &mut self.spm[index],
            Ok(Slot::Spare(index)) => &mut self.spare[index],
            Err(e) => unreachable!("a located word lies inside the geometry: {e}"),
        };
        let writes = !matches!(kind, MemAccessKind::Load { .. });
        let reads_word = !matches!(
            kind,
            MemAccessKind::Store {
                width: MemWidth::Word,
                ..
            }
        );
        let mut corrected = false;
        match self.ecc.check(loc, *word) {
            EccOutcome::Corrected { value } if reads_word => {
                (*word, corrected) = (value, true);
                self.ecc.clear(loc);
            }
            EccOutcome::Uncorrectable { mask } if reads_word => {
                self.touches.set(self.touches.get() + 1);
                return Err(mask);
            }
            EccOutcome::Clean => {}
            _ => self.ecc.clear(loc),
        }
        let value = access_word(kind, addr, word);
        let touches = 1 + u64::from(corrected) + u64::from(writes);
        self.touches.set(self.touches.get() + touches);
        Ok((value, corrected))
    }

    /// Writes directly into the *physical* faulted bank, bypassing the
    /// remap table — test hook modeling the defect corrupting the cell
    /// array (a remapped read must not see this).
    #[cfg(test)]
    pub(crate) fn write_physical(&mut self, loc: BankLocation, value: u32) {
        let index =
            loc.word as usize * self.num_banks as usize + self.global_bank(loc.tile, loc.bank.0);
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
    /// (SPM or external), as the host sees it: the containing word read
    /// as [`crate::Cluster::read_spm_word`] reads it (a single-bit error
    /// corrected, without a scrub), then the value's lanes.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses, or
    /// [`MemoryError::Uncorrectable`] for a word with a multi-bit error
    /// (the read counts its touch).
    pub fn read(&self, addr: u32, width: MemWidth) -> Result<u32, MemoryError> {
        self.decode(addr, width)?;
        let mut word = self.read_word(addr & !3)?;
        let load = MemAccessKind::Load {
            width,
            signed: false,
            rd: Reg::ZERO,
        };
        Ok(access_word(load, addr, &mut word))
    }

    /// Writes a naturally aligned value of the given width at `addr`
    /// (SPM or external). An SPM word is stored as a core's store is
    /// served: located and resolved once for its
    /// read-modify-write, which counts as the read and the write it stands
    /// for, and left free of errors.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses, or
    /// [`MemoryError::Uncorrectable`] for a sub-word write into a word
    /// with a multi-bit error.
    pub fn write(&mut self, addr: u32, width: MemWidth, value: u32) -> Result<(), MemoryError> {
        let kind = MemAccessKind::Store { width, value };
        match self.decode(addr, width)? {
            MemoryRegion::Spm(loc) => {
                self.serve(loc, addr, kind)
                    .map_err(|mask| MemoryError::Uncorrectable { loc, mask })?;
            }
            MemoryRegion::External(offset) => {
                self.access_external(offset, addr, kind);
            }
            MemoryRegion::Unmapped => unreachable!(),
        }
        Ok(())
    }

    /// The logical location and array slot of the SPM word at `addr`, or
    /// `None` for a misaligned, unmapped or external address: the one
    /// locate of the host's one-word path.
    #[inline(always)]
    fn locate_word(&self, addr: u32) -> Option<(BankLocation, Slot)> {
        if !addr.is_multiple_of(4) {
            return None;
        }
        let MemoryRegion::Spm(loc) = self.map.locate(addr) else {
            return None;
        };
        Some((loc, self.located_slot(loc)))
    }

    /// Writes the word at `addr` as [`Self::write_words`] writes a
    /// one-word slice: an SPM word is stored in place, two touches and
    /// its pending SEC-DED mask cleared; any other address takes the
    /// slice walk, errors included. Always inlined, into callers in other
    /// crates too, so that a host word costs one locate and one store.
    ///
    /// # Errors
    ///
    /// A misaligned or unmapped `addr`, as [`Self::write_words`] reports
    /// it.
    #[inline(always)]
    pub(crate) fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemoryError> {
        let Some((loc, slot)) = self.locate_word(addr) else {
            return self.write_words(addr, &[value]);
        };
        match slot {
            Slot::Main(index) => self.spm[index] = value,
            Slot::Spare(index) => self.spare[index] = value,
        }
        self.add_touches(2);
        if self.ecc.pending_words() > 0 {
            self.ecc.clear(loc);
        }
        Ok(())
    }

    /// Reads the word at `addr` as [`Self::read_words`] reads a one-word
    /// slice: an SPM word is loaded in place, one touch, a single-bit
    /// error corrected without a scrub; any other address takes the slice
    /// walk, errors included. Always inlined, as [`Self::write_word`] is.
    ///
    /// # Errors
    ///
    /// A misaligned or unmapped `addr`, as [`Self::read_words`] reports
    /// it, or [`MemoryError::Uncorrectable`] for a word with a multi-bit
    /// error (the read counts its touch).
    #[inline(always)]
    pub(crate) fn read_word(&self, addr: u32) -> Result<u32, MemoryError> {
        let Some((loc, slot)) = self.locate_word(addr) else {
            let mut word = [0];
            self.read_words(addr, &mut word)?;
            return Ok(word[0]);
        };
        let word = match slot {
            Slot::Main(index) => self.spm[index],
            Slot::Spare(index) => self.spare[index],
        };
        self.add_touches(1);
        if self.ecc.pending_words() == 0 {
            return Ok(word);
        }
        match self.ecc.check(loc, word) {
            EccOutcome::Clean => Ok(word),
            EccOutcome::Corrected { value } => Ok(value),
            EccOutcome::Uncorrectable { mask } => Err(MemoryError::Uncorrectable { loc, mask }),
        }
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
    /// on that one copy can move: the one word of a remapped bank, else
    /// the main words up to the next remapped bank, within the word's tile
    /// row in the sequential region and the rest of the interleaved
    /// region in it.
    #[inline]
    fn run(&self, addr: u32, max: usize) -> (Target, usize) {
        let loc = match self.map.locate(addr) {
            MemoryRegion::Spm(loc) => loc,
            MemoryRegion::External(offset) => return (Target::External(offset), max),
            MemoryRegion::Unmapped => unreachable!("a checked range maps every word"),
        };
        let here = self.global_bank(loc.tile, loc.bank.0);
        if self.spare_slot[here].is_some() {
            let Ok(Slot::Spare(index)) = self.slot(loc) else {
                unreachable!("a remapped bank's words live in its spare")
            };
            return (Target::Spare(index), 1);
        }
        let len = if addr >= self.map.interleaved_base() {
            ((self.map.spm_end() - u64::from(addr)) / 4) as usize
        } else {
            (self.banks_per_tile - loc.bank.0) as usize
        };
        // Consecutive words walk the global banks in order, the next word
        // row after the last bank: the next remapped bank is this many
        // words on.
        let banks = self.num_banks as usize;
        let next_remapped = self
            .remaps
            .iter()
            .map(|&(tile, from, _)| (self.global_bank(tile, from.0) + banks - here) % banks);
        let index = loc.word as usize * banks + here;
        (
            Target::Main(index),
            next_remapped.fold(len.min(max), usize::min),
        )
    }

    /// The pending SEC-DED masks of the `len` words from word address
    /// `addr` on, as `(index, location, mask)` in location order.
    fn masks_in(
        &self,
        addr: u32,
        len: usize,
    ) -> impl Iterator<Item = (usize, BankLocation, u32)> + '_ {
        self.ecc.entries().filter_map(move |(loc, mask)| {
            let at = self.map.encode(loc).ok()?.checked_sub(addr & !3)?;
            let index = (at / 4) as usize;
            (index < len).then_some((index, loc, mask))
        })
    }

    /// Writes `values` to the consecutive words from `addr` on (SPM or
    /// external), as [`Self::write`] would word by word — remapped banks
    /// followed, two touches per SPM word, every word left free of errors
    /// — except that a bad range writes nothing.
    ///
    /// # Errors
    ///
    /// The first error the word-by-word loop would meet: a misaligned
    /// `addr`, or the first unmapped word.
    #[inline]
    pub(crate) fn write_words(&mut self, addr: u32, values: &[u32]) -> Result<(), MemoryError> {
        self.check_words(addr, values.len())?;
        let (mut done, mut spm_words) = (0, 0);
        while done < values.len() {
            let (target, len) = self.run(addr + 4 * done as u32, values.len() - done);
            let src = &values[done..done + len];
            match target {
                Target::Main(index) => self.spm[index..index + len].copy_from_slice(src),
                Target::Spare(index) => self.spare[index] = src[0],
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
        if self.ecc.pending_words() > 0 {
            let written: Vec<BankLocation> = self
                .masks_in(addr, values.len())
                .map(|(_, loc, _)| loc)
                .collect();
            for loc in written {
                self.ecc.clear(loc);
            }
        }
        Ok(())
    }

    /// Reads the consecutive words from `addr` on (SPM or external) into
    /// `out`, as [`Self::read`] would word by word: remapped banks
    /// followed, single-bit errors corrected without a scrub, one touch
    /// per SPM word, and the read ending at the first word with a
    /// multi-bit error.
    ///
    /// # Errors
    ///
    /// The first error the word-by-word loop would meet: a misaligned
    /// `addr` or an unmapped word, with nothing read, or the first
    /// uncorrectable word, with the words up to it read.
    #[inline]
    pub(crate) fn read_words(&self, addr: u32, out: &mut [u32]) -> Result<(), MemoryError> {
        if self.ecc.pending_words() == 0 {
            return self.copy_words(addr, out);
        }
        let masks = self.masks_in(addr, out.len());
        let uncorrectable = masks
            .filter(|&(.., mask)| mask.count_ones() != 1)
            .min_by_key(|&(index, ..)| index);
        let len = uncorrectable.map_or(out.len(), |(index, ..)| index + 1);
        self.copy_words(addr, &mut out[..len])?;
        for (index, _, mask) in self.masks_in(addr, len) {
            out[index] ^= mask;
        }
        match uncorrectable {
            Some((_, loc, mask)) => Err(MemoryError::Uncorrectable { loc, mask }),
            None => Ok(()),
        }
    }

    /// [`Self::read_words`] of the stored words, as they are.
    #[inline]
    fn copy_words(&self, addr: u32, out: &mut [u32]) -> Result<(), MemoryError> {
        self.check_words(addr, out.len())?;
        let (mut done, mut spm_words) = (0, 0);
        while done < out.len() {
            let (target, len) = self.run(addr + 4 * done as u32, out.len() - done);
            let dst = &mut out[done..done + len];
            match target {
                Target::Main(index) => dst.copy_from_slice(&self.spm[index..index + len]),
                Target::Spare(index) => dst[0] = self.spare[index],
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

    /// Checkpoint accessor: the main SPM array, in the storage's own
    /// address order.
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

    /// Checkpoint accessor: the spare-bank substitutions as `(tile, from,
    /// to)`, in the order [`Self::remap_bank`] made them.
    pub(crate) fn remaps(&self) -> &[(TileId, BankId, BankId)] {
        &self.remaps
    }

    /// The pending SEC-DED masks: the words flipped and not yet corrected
    /// or overwritten.
    pub(crate) fn ecc(&self) -> &EccState {
        &self.ecc
    }

    /// Checkpoint accessor: the nonzero external words as `(word_offset,
    /// value)` pairs in ascending offset order, the map's own order.
    pub(crate) fn external_entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.external
            .iter()
            .map(|(&offset, &value)| (offset, value))
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

    /// Adds `touches` SPM word reads and writes to the counter.
    #[inline]
    fn add_touches(&self, touches: u64) {
        self.touches.set(self.touches.get() + touches);
    }

    /// Restores the mutable storage contents from a checkpoint, `spm` in
    /// the order of [`Self::spm_words`], with the pending SEC-DED masks as
    /// `(location, mask)`. The remap table must already have been
    /// re-established (via [`Self::provision_spares`] /
    /// [`Self::remap_bank`]) so the spare array has its final size;
    /// contents are then overwritten wholesale.
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
        masks: Vec<(BankLocation, u32)>,
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
        self.external = external
            .into_iter()
            .filter(|&(_, value)| value != 0)
            .collect();
        self.touches.set(touches);
        self.ecc = EccState::from_entries(masks);
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

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::AddressMap;

    fn storage() -> Storage {
        Storage::new(&ClusterConfig::default())
    }

    /// Stores `value` at `loc` through the word write.
    fn store(s: &mut Storage, loc: BankLocation, value: u32) {
        let addr = s.map().encode(loc).unwrap();
        s.write(addr, MemWidth::Word, value).unwrap();
    }

    /// The word at `loc` through the word read.
    fn load(s: &Storage, loc: BankLocation) -> u32 {
        s.read(s.map().encode(loc).unwrap(), MemWidth::Word)
            .unwrap()
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
        assert!(matches!(s.slot(bad), Err(MemoryError::BadLocation)));
    }

    #[test]
    fn remapped_bank_preserves_content_and_isolates_the_faulty_array() {
        let mut s = storage();
        let loc = BankLocation {
            tile: TileId(1),
            bank: BankId(2),
            word: 9,
        };
        store(&mut s, loc, 0xdead_beef);
        s.provision_spares(1);
        let spare = s.remap_bank(TileId(1), BankId(2)).unwrap();
        assert!(spare.0 >= s.banks_per_tile);
        // Content copied at remap time survives.
        assert_eq!(load(&s, loc), 0xdead_beef);
        // Corruption in the physical faulted array is invisible after the
        // remap...
        s.write_physical(loc, 0x0bad_0bad);
        assert_eq!(load(&s, loc), 0xdead_beef);
        // ...and new writes land in (and read back from) the spare.
        store(&mut s, loc, 7);
        assert_eq!(load(&s, loc), 7);
        // Sibling banks keep their own storage.
        let sibling = BankLocation {
            bank: BankId(3),
            ..loc
        };
        assert_eq!(load(&s, sibling), 0);
    }

    #[test]
    fn an_unremapped_location_resolves_to_its_main_word() {
        let s = storage();
        let loc = BankLocation {
            tile: TileId(3),
            bank: BankId(7),
            word: 11,
        };
        let global_bank = 3 * s.banks_per_tile as usize + 7;
        assert!(matches!(
            s.slot(loc),
            Ok(Slot::Main(index)) if index == 11 * s.num_banks as usize + global_bank
        ));
        assert!(s.remaps().is_empty());
    }

    #[test]
    fn a_remapped_bank_resolves_to_its_spare_and_locate_stays_logical() {
        let mut s = storage();
        assert_eq!(
            s.remap_bank(TileId(0), BankId(2)),
            Err(RemapError::NotEnabled)
        );
        s.provision_spares(1);
        let spare = s.remap_bank(TileId(0), BankId(2)).unwrap();
        assert_eq!(spare, BankId(s.banks_per_tile));

        let logical = BankLocation {
            tile: TileId(0),
            bank: BankId(2),
            word: 5,
        };
        // Slot 0 of tile 0's spares.
        assert!(matches!(s.slot(logical), Ok(Slot::Spare(5))));
        // Other banks are untouched.
        let other = BankLocation {
            bank: BankId(3),
            ..logical
        };
        assert!(matches!(s.slot(other), Ok(Slot::Main(_))));
        // `locate` keeps handing out logical ids: the remap is invisible to
        // queue/statistics consumers.
        let addr = s.map().encode(logical).unwrap();
        assert_eq!(s.map().locate(addr), MemoryRegion::Spm(logical));
        assert_eq!(s.remaps(), [(TileId(0), BankId(2), spare)]);
    }

    #[test]
    fn remap_bank_rejects_double_remap_exhaustion_and_foreign_banks() {
        let mut s = storage();
        s.provision_spares(1);
        s.remap_bank(TileId(1), BankId(0)).unwrap();
        let errors = [
            (
                s.remap_bank(TileId(1), BankId(0)),
                RemapError::AlreadyRemapped {
                    tile: TileId(1),
                    bank: BankId(0),
                },
                "bank T1:b0 is already remapped to a spare",
            ),
            (
                s.remap_bank(TileId(1), BankId(1)),
                RemapError::SparesExhausted { tile: TileId(1) },
                "tile T1 has no spare banks left",
            ),
            (
                s.remap_bank(TileId(99), BankId(0)),
                RemapError::OutOfRange {
                    tile: TileId(99),
                    bank: BankId(0),
                },
                "bank T99:b0 is outside the cluster geometry",
            ),
            (
                s.remap_bank(TileId(0), BankId(16)),
                RemapError::OutOfRange {
                    tile: TileId(0),
                    bank: BankId(16),
                },
                "bank T0:b16 is outside the cluster geometry",
            ),
        ];
        for (got, want, text) in errors {
            assert_eq!(got, Err(want));
            assert_eq!(want.to_string(), text);
        }
        assert_eq!(
            RemapError::NotEnabled.to_string(),
            "spare banks are not provisioned"
        );
        // Other tiles keep their own spare budget.
        assert!(s.remap_bank(TileId(2), BankId(1)).is_ok());
        assert_eq!(s.remaps().len(), 2);
    }

    #[test]
    fn provisioning_spares_is_idempotent_and_widening() {
        let mut s = storage();
        s.provision_spares(1);
        s.remap_bank(TileId(0), BankId(0)).unwrap();
        // Provisioning the same or a smaller count keeps the entry.
        s.provision_spares(1);
        s.provision_spares(0);
        assert_eq!(s.remaps().len(), 1);
        // Widening allows another substitution in the same tile.
        s.provision_spares(2);
        assert!(s.remap_bank(TileId(0), BankId(1)).is_ok());
        assert_eq!(s.remaps().len(), 2);
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
        store(&mut s, loc, 42);
        s.provision_spares(2);
        assert_eq!(load(&s, loc), 42);
        assert!(s.remap_bank(TileId(0), BankId(1)).is_ok());
    }

    /// Three remapped banks, two in tile 1 and one in tile 3, under a
    /// 4-tile, 8-bank geometry: whole-range slice accesses equal a
    /// word-by-word loop of the per-word calls, array for array, value
    /// for value and touch for touch; and the one-word calls equal
    /// one-word slices, with pending masks and on every path that leaves
    /// the SPM.
    #[test]
    fn the_slice_path_follows_remapped_banks_like_the_word_loop() {
        let config = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(1)
            .banks_per_tile(8)
            .bank_words(64)
            .build()
            .unwrap();
        let remapped = || {
            let mut s = Storage::new(&config);
            s.provision_spares(2);
            for (tile, bank) in [(1, 2), (1, 5), (3, 0)] {
                s.remap_bank(TileId(tile), BankId(bank)).unwrap();
            }
            s
        };
        let map = remapped().map().clone();
        let base = map.interleaved_base();
        let interleaved = (base, ((map.spm_end() - u64::from(base)) / 4) as usize);
        // From bank 1 of tile 1's word row 3 into row 4: across both of
        // the tile's remapped banks mid-row, and into the next row.
        let sequential = (map.seq_addr(TileId(1), 3 * 8 + 1), 10);
        for (addr, len) in [interleaved, sequential] {
            let values: Vec<u32> = (0..len as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9) | 1)
                .collect();
            let words = (addr..).step_by(4).take(len);

            let mut sliced = remapped();
            sliced.write_words(addr, &values).unwrap();
            let mut looped = remapped();
            for (at, &value) in words.clone().zip(&values) {
                looped.write(at, MemWidth::Word, value).unwrap();
            }
            assert_eq!(sliced.spm, looped.spm, "{len} words at {addr:#x}");
            assert_eq!(sliced.spare, looped.spare, "{len} words at {addr:#x}");
            assert!(sliced.spare.iter().any(|&word| word != 0));
            assert_eq!(sliced.spm_word_touches(), looped.spm_word_touches());

            let mut out = vec![0; len];
            sliced.read_words(addr, &mut out).unwrap();
            let read: Vec<u32> = words
                .map(|at| looped.read(at, MemWidth::Word).unwrap())
                .collect();
            assert_eq!(out, read, "{len} words at {addr:#x}");
            assert_eq!(out, values);
            assert_eq!(sliced.spm_word_touches(), looped.spm_word_touches());
        }

        let at = |tile, bank, word| {
            let loc = BankLocation {
                tile: TileId(tile),
                bank: BankId(bank),
                word,
            };
            (loc, map.encode(loc).unwrap())
        };
        let ((single_loc, single), (multi_loc, multi)) = (at(0, 1, 4), at(2, 3, 60));
        let flipped = || {
            let mut s = remapped();
            s.flip(single_loc, 1 << 7);
            s.flip(multi_loc, 0b110);
            s
        };
        let hole = map.spm_end() as u32;
        let read_errors = [
            (single, None),
            (
                multi,
                Some(MemoryError::Uncorrectable {
                    loc: multi_loc,
                    mask: 0b110,
                }),
            ),
            (at(1, 5, 3).1, None),
            (hole, Some(MemoryError::Unmapped { addr: hole })),
            (
                single + 2,
                Some(MemoryError::Misaligned { addr: single + 2 }),
            ),
            (AddressMap::EXTERNAL_BASE + 4, None),
        ];
        // Everything a host access can change.
        let state = |s: &Storage| {
            let masks: Vec<_> = s.ecc().entries().collect();
            let arrays = (s.spm.clone(), s.spare.clone(), s.external.clone());
            (arrays, s.spm_word_touches(), masks)
        };
        for (addr, error) in read_errors {
            let (mut one, mut sliced) = (flipped(), flipped());
            assert_eq!(one.ecc().pending_words(), 2);
            let mut out = [0];
            let read = one.read_word(addr);
            assert_eq!(read.err(), error, "read {addr:#x}");
            assert_eq!(read, sliced.read_words(addr, &mut out).map(|()| out[0]));
            assert!(state(&one) == state(&sliced), "read {addr:#x}");
            // A write never observes the word: only the address can fail.
            let value = addr ^ 0x5a5a_5a5a;
            let written = one.write_word(addr, value);
            let address_error = error.filter(|e| !matches!(e, MemoryError::Uncorrectable { .. }));
            assert_eq!(written.err(), address_error, "write {addr:#x}");
            assert_eq!(written, sliced.write_words(addr, &[value]), "{addr:#x}");
            assert!(state(&one) == state(&sliced), "write {addr:#x}");
            let read = one.read_word(addr);
            assert_eq!(read, sliced.read_words(addr, &mut out).map(|()| out[0]));
            assert_eq!(read.ok(), address_error.is_none().then_some(value));
        }
    }
}
