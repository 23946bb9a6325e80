//! SEC-DED ECC model for the stacked SRAM banks.
//!
//! Each SPM word is modeled as protected by a single-error-correct,
//! double-error-detect code. The simulator applies transient flips
//! directly to storage and records the accumulated XOR error mask per
//! word here; on the next read of the word the outcome is decided:
//!
//! * **single-bit mask** — corrected: the reader sees the original value,
//!   pays a correction penalty, and the word is scrubbed (storage
//!   rewritten, mask cleared);
//! * **multi-bit mask** — detected but uncorrectable: a typed error;
//! * any **write** to the word clears its mask (the write replaces the
//!   corrupted cell contents).

use std::collections::HashMap;

use mempool_arch::BankLocation;

/// Outcome of reading a word through the SEC-DED model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// No pending error on this word.
    Clean,
    /// A single-bit error was corrected; `value` is the repaired word the
    /// reader must observe (and scrub back into storage).
    Corrected {
        /// The repaired word.
        value: u32,
    },
    /// A multi-bit error was detected but cannot be corrected.
    Uncorrectable {
        /// The accumulated error mask.
        mask: u32,
    },
}

/// Pending error masks of all SPM words, keyed by (logical) location.
#[derive(Debug, Clone, Default)]
pub struct EccState {
    pending: HashMap<BankLocation, u32>,
}

impl EccState {
    /// Creates an empty state (no pending errors).
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates a flip mask on a word (XOR; a zero result clears it).
    pub fn note_flip(&mut self, loc: BankLocation, mask: u32) {
        let entry = self.pending.entry(loc).or_insert(0);
        *entry ^= mask;
        if *entry == 0 {
            self.pending.remove(&loc);
        }
    }

    /// Decides the outcome of reading `stored` (the possibly-corrupted
    /// word in storage) at `loc` without consuming the mask — the form
    /// the engine uses mid-quantum, logging what it cleared and clearing
    /// it at the quantum boundary.
    pub fn check(&self, loc: BankLocation, stored: u32) -> EccOutcome {
        match self.pending.get(&loc).copied() {
            None => EccOutcome::Clean,
            Some(mask) if mask.count_ones() == 1 => EccOutcome::Corrected {
                value: stored ^ mask,
            },
            Some(mask) => EccOutcome::Uncorrectable { mask },
        }
    }

    /// [`Self::check`], with a corrected read clearing the mask; the
    /// caller is responsible for scrubbing storage with the returned
    /// value.
    pub fn on_read(&mut self, loc: BankLocation, stored: u32) -> EccOutcome {
        let outcome = self.check(loc, stored);
        if matches!(outcome, EccOutcome::Corrected { .. }) {
            self.pending.remove(&loc);
        }
        outcome
    }

    /// The pending mask on a word, if any, without consuming it (used by
    /// the simulator's zero-time debug reads).
    pub fn pending_mask(&self, loc: BankLocation) -> Option<u32> {
        self.pending.get(&loc).copied()
    }

    /// Clears the pending mask on a word (a write replaced its contents).
    pub(crate) fn clear(&mut self, loc: BankLocation) {
        self.pending.remove(&loc);
    }

    /// Number of words with pending (not yet observed) errors.
    pub fn pending_words(&self) -> usize {
        self.pending.len()
    }

    /// All pending `(location, mask)` entries sorted by location, for a
    /// deterministic checkpoint serialization order.
    pub fn entries(&self) -> Vec<(BankLocation, u32)> {
        let mut entries: Vec<(BankLocation, u32)> = self
            .pending
            .iter()
            .map(|(&loc, &mask)| (loc, mask))
            .collect();
        entries.sort_unstable_by_key(|&(loc, _)| (loc.tile.0, loc.bank.0, loc.word));
        entries
    }

    /// Rebuilds the state from saved `(location, mask)` entries (zero
    /// masks are dropped).
    pub fn from_entries(entries: impl IntoIterator<Item = (BankLocation, u32)>) -> Self {
        EccState {
            pending: entries.into_iter().filter(|&(_, m)| m != 0).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::{BankId, TileId};

    fn loc(word: u32) -> BankLocation {
        BankLocation {
            tile: TileId(0),
            bank: BankId(0),
            word,
        }
    }

    #[test]
    fn clean_word_reads_clean() {
        let mut ecc = EccState::new();
        assert_eq!(ecc.on_read(loc(0), 7), EccOutcome::Clean);
    }

    #[test]
    fn single_bit_is_corrected_and_scrubbed() {
        let mut ecc = EccState::new();
        ecc.note_flip(loc(3), 0b100);
        // Storage holds the corrupted word; the read repairs it.
        assert_eq!(
            ecc.on_read(loc(3), 100 ^ 0b100),
            EccOutcome::Corrected { value: 100 }
        );
        // The mask was consumed: the next read is clean.
        assert_eq!(ecc.on_read(loc(3), 100), EccOutcome::Clean);
    }

    #[test]
    fn double_bit_is_uncorrectable() {
        let mut ecc = EccState::new();
        ecc.note_flip(loc(1), 0b11);
        assert_eq!(
            ecc.on_read(loc(1), 0),
            EccOutcome::Uncorrectable { mask: 0b11 }
        );
    }

    #[test]
    fn two_flips_on_same_bit_cancel() {
        let mut ecc = EccState::new();
        ecc.note_flip(loc(2), 0b10);
        ecc.note_flip(loc(2), 0b10);
        assert_eq!(ecc.pending_words(), 0);
        assert_eq!(ecc.on_read(loc(2), 5), EccOutcome::Clean);
    }

    #[test]
    fn two_flips_on_different_bits_accumulate_to_uncorrectable() {
        let mut ecc = EccState::new();
        ecc.note_flip(loc(2), 0b01);
        ecc.note_flip(loc(2), 0b10);
        assert!(matches!(
            ecc.on_read(loc(2), 0),
            EccOutcome::Uncorrectable { mask: 0b11 }
        ));
    }

    #[test]
    fn writes_clear_pending_masks() {
        let mut ecc = EccState::new();
        ecc.note_flip(loc(4), 1);
        ecc.clear(loc(4));
        assert_eq!(ecc.on_read(loc(4), 0), EccOutcome::Clean);
        assert_eq!(ecc.pending_mask(loc(4)), None);
    }
}
