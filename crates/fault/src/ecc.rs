//! SEC-DED ECC model for the stacked SRAM banks.
//!
//! Each SPM word is modeled as protected by a single-error-correct,
//! double-error-detect code. The model keeps flip masks, not code words: a
//! transient flip XORs the stored word and accumulates its mask here, and
//! the next access that observes the word decides the outcome:
//!
//! * **single-bit mask** — corrected: the reader sees the original value
//!   (a core's access also pays a correction penalty and scrubs the word:
//!   storage rewritten, mask cleared);
//! * **multi-bit mask** — detected but uncorrectable: a typed error;
//! * any **write** to the word clears its mask (the write replaces the
//!   corrupted cell contents).
//!
//! The damage is state of the stored words, so the simulator's storage
//! owns one [`EccState`] next to the words themselves; the fault
//! controller only delivers the flips.

use std::collections::BTreeMap;

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

/// Pending error masks of all SPM words, keyed by (logical) location in
/// `(tile, bank, word)` order — so that the entries, the Debug form and a
/// checkpoint list them in one order whatever the flips' order.
#[derive(Debug, Clone, Default)]
pub struct EccState {
    pending: BTreeMap<BankLocation, u32>,
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
    /// the storage uses, which clears the mask itself once the access has
    /// been served.
    #[inline]
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

    /// Clears the pending mask on a word (a write replaced its contents).
    pub fn clear(&mut self, loc: BankLocation) {
        self.pending.remove(&loc);
    }

    /// Number of words with pending (not yet observed) errors.
    #[inline]
    pub fn pending_words(&self) -> usize {
        self.pending.len()
    }

    /// All pending `(location, mask)` entries in location order, the
    /// checkpoint's order.
    pub fn entries(&self) -> impl Iterator<Item = (BankLocation, u32)> + '_ {
        self.pending.iter().map(|(&loc, &mask)| (loc, mask))
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
    fn entries_come_in_location_order_whatever_the_flip_order() {
        let at = |tile, bank, word| BankLocation {
            tile: TileId(tile),
            bank: BankId(bank),
            word,
        };
        let mut ecc = EccState::new();
        for (loc, mask) in [(at(3, 0, 0), 1), (at(0, 2, 9), 2), (at(0, 1, 40), 4)] {
            ecc.note_flip(loc, mask);
        }
        let entries: Vec<_> = ecc.entries().collect();
        assert_eq!(
            entries,
            [(at(0, 1, 40), 4), (at(0, 2, 9), 2), (at(3, 0, 0), 1)]
        );
        assert_eq!(
            EccState::from_entries(entries.iter().rev().copied())
                .entries()
                .collect::<Vec<_>>(),
            entries
        );
    }

    #[test]
    fn writes_clear_pending_masks() {
        let mut ecc = EccState::new();
        ecc.note_flip(loc(4), 1);
        ecc.clear(loc(4));
        assert_eq!(ecc.on_read(loc(4), 0), EccOutcome::Clean);
        assert_eq!(ecc.pending_words(), 0);
    }
}
