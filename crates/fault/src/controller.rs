//! Runtime fault state consumed by the simulator.
//!
//! A [`FaultController`] is compiled from a [`FaultPlan`] when faults are
//! injected into a cluster. It splits the plan into *static* state (link
//! health per tile, the stuck banks the cluster must remap before the run)
//! and *timed* events (flips) delivered in cycle order, and
//! accumulates the [`FaultReport`]. It holds the plan, its events and its
//! report only: the damage a delivered fault does to stored words — a
//! remapped bank, a flip's SEC-DED mask ([`crate::EccState`]) — is state
//! of the storage it lands in.

use mempool_arch::{BankId, BankLocation, TileId};
use mempool_obs::Deferred;

use crate::plan::{FaultEvent, FaultPlan};
use crate::report::FaultReport;

/// Health of one tile's F2F link to its memory die.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LinkState {
    /// Accesses proceed at nominal latency.
    #[default]
    Healthy,
    /// Accesses succeed after a retry costing the carried extra cycles.
    Degraded(u32),
}

/// A timed fault due for application this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedFault {
    /// XOR `mask` into the stored word at `loc` and arm its SEC-DED mask.
    Flip {
        /// Word the flip lands in.
        loc: BankLocation,
        /// XOR mask to apply.
        mask: u32,
    },
}

impl TimedFault {
    /// The flight-ring event of this fault's delivery: category and a
    /// message worded only when the ring is read.
    pub fn flight_event(self) -> (&'static str, Deferred) {
        let TimedFault::Flip { loc, mask } = self;
        let message = Deferred {
            render: |[mask, tile, bank, word]| {
                format!("transient flip mask {mask:#x} at tile {tile} bank {bank} word {word}")
            },
            args: [mask, loc.tile.0, loc.bank.0, loc.word],
        };
        ("fault", message)
    }
}

/// A fault outcome the engine observed on one access: counted into the
/// report by [`FaultController::count`], and worded for the flight ring
/// by [`FaultNote::flight_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNote {
    /// The access was retried through `tile`'s degraded link.
    Retry {
        /// Destination tile whose link is degraded.
        tile: TileId,
        /// Extra cycles the retry cost.
        extra: u32,
    },
    /// SEC-DED corrected (and scrubbed) a single-bit error at `loc`.
    Corrected {
        /// Word the error was in.
        loc: BankLocation,
    },
    /// SEC-DED detected an uncorrectable multi-bit error at `loc`.
    Uncorrectable {
        /// Word the error is in.
        loc: BankLocation,
        /// The accumulated error mask.
        mask: u32,
    },
}

impl FaultNote {
    /// The flight-ring event of this outcome: category and a message
    /// worded only when the ring is read.
    pub fn flight_event(self) -> (&'static str, Deferred) {
        let at = |loc: BankLocation, mask| [loc.tile.0, loc.bank.0, loc.word, mask];
        let (category, render, args): (_, fn([u32; 4]) -> String, _) = match self {
            FaultNote::Retry { tile, extra } => (
                "fault",
                |[tile, extra, ..]| {
                    format!("retry through degraded link of tile {tile} (+{extra} cycles)")
                },
                [tile.0, extra, 0, 0],
            ),
            FaultNote::Corrected { loc } => (
                "ecc",
                |[tile, bank, word, _]| {
                    format!("corrected single-bit flip at tile {tile} bank {bank} word {word}")
                },
                at(loc, 0),
            ),
            FaultNote::Uncorrectable { loc, mask } => (
                "ecc",
                |[tile, bank, word, mask]| {
                    format!("uncorrectable mask {mask:#x} at tile {tile} bank {bank} word {word}")
                },
                at(loc, mask),
            ),
        };
        (category, Deferred { render, args })
    }
}

/// Runtime fault state: link health, the timed-event queue, and the
/// accumulating report.
#[derive(Debug, Clone)]
pub struct FaultController {
    links: Vec<LinkState>,
    /// Timed events sorted by cycle; `cursor` marks the next undelivered.
    timed: Vec<(u64, TimedFault)>,
    cursor: usize,
    stuck: Vec<(TileId, BankId)>,
    report: FaultReport,
}

impl FaultController {
    /// Compiles a plan for a cluster with `num_tiles` tiles. Events whose
    /// tile lies outside the geometry are counted but inert.
    pub fn new(plan: &FaultPlan, num_tiles: u32) -> Self {
        let mut links = vec![LinkState::Healthy; num_tiles as usize];
        let mut timed = Vec::new();
        let mut stuck = Vec::new();
        let mut report = FaultReport {
            seed: plan.seed(),
            ..Default::default()
        };
        for event in plan.events() {
            match *event {
                FaultEvent::LinkDegraded {
                    tile,
                    extra_latency,
                } => {
                    report.links_degraded += 1;
                    if let Some(slot) = links.get_mut(tile.index()) {
                        *slot = LinkState::Degraded(extra_latency.max(1));
                    }
                }
                FaultEvent::StuckBank { tile, bank } => {
                    report.stuck_banks += 1;
                    stuck.push((tile, bank));
                }
                FaultEvent::TransientFlip { cycle, loc, mask } => {
                    report.transient_flips += 1;
                    timed.push((cycle, TimedFault::Flip { loc, mask }));
                }
            }
        }
        timed.sort_by_key(|&(cycle, _)| cycle);
        FaultController {
            links,
            timed,
            cursor: 0,
            stuck,
            report,
        }
    }

    /// The stuck banks the cluster must remap before the run starts.
    pub fn stuck_banks(&self) -> &[(TileId, BankId)] {
        &self.stuck
    }

    /// Drains the timed events due at or before `cycle`, in cycle order.
    pub fn take_due(&mut self, cycle: u64) -> Vec<TimedFault> {
        let mut due = Vec::new();
        while let Some(&(at, fault)) = self.timed.get(self.cursor) {
            if at > cycle {
                break;
            }
            due.push(fault);
            self.cursor += 1;
        }
        due
    }

    /// Counts one observed outcome into the report.
    pub fn count(&mut self, note: FaultNote) {
        let report = &mut self.report;
        match note {
            FaultNote::Retry { extra, .. } => {
                report.retried_accesses += 1;
                report.retry_cycles += u64::from(extra);
            }
            FaultNote::Corrected { .. } => report.ecc_corrected += 1,
            FaultNote::Uncorrectable { .. } => {}
        }
    }

    /// Snapshot of the report. Its `remapped` is empty and its
    /// `ecc_pending` 0: spare-bank remaps and latent ECC errors are the
    /// storage's to hold, and the cluster's fault report fills them in.
    pub fn report(&self) -> FaultReport {
        self.report.clone()
    }

    /// Health of every tile's F2F link, by tile index (static for the
    /// whole plan).
    pub fn links(&self) -> &[LinkState] {
        &self.links
    }

    /// Checkpoint accessor: the timed events not yet delivered, in cycle
    /// order. Already-delivered events (before the cursor) are dropped —
    /// they have been applied to the cluster and live on in its state.
    pub fn remaining_timed(&self) -> &[(u64, TimedFault)] {
        &self.timed[self.cursor..]
    }

    /// Rebuilds a controller from checkpointed parts: remaining timed
    /// events become the whole queue (cursor 0), and the report's
    /// `remapped` and `ecc_pending` are dropped, as [`Self::report`] has
    /// them.
    pub fn from_snapshot(
        links: Vec<LinkState>,
        remaining_timed: Vec<(u64, TimedFault)>,
        stuck: Vec<(TileId, BankId)>,
        report: FaultReport,
    ) -> Self {
        FaultController {
            links,
            timed: remaining_timed,
            cursor: 0,
            stuck,
            report: FaultReport {
                remapped: Vec::new(),
                ecc_pending: 0,
                ..report
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::report::RemappedBank;

    fn loc(tile: u32, bank: u32, word: u32) -> BankLocation {
        BankLocation {
            tile: TileId(tile),
            bank: BankId(bank),
            word,
        }
    }

    fn plan_with_everything() -> FaultPlan {
        let mut plan = FaultPlan::new(99);
        plan.push(FaultEvent::LinkDegraded {
            tile: TileId(1),
            extra_latency: 6,
        });
        plan.push(FaultEvent::StuckBank {
            tile: TileId(0),
            bank: BankId(3),
        });
        plan.push(FaultEvent::TransientFlip {
            cycle: 10,
            loc: loc(0, 0, 7),
            mask: 1,
        });
        plan.push(FaultEvent::TransientFlip {
            cycle: 5,
            loc: loc(0, 1, 2),
            mask: 2,
        });
        plan
    }

    #[test]
    fn compiles_static_state_and_counts() {
        let ctrl = FaultController::new(&plan_with_everything(), 4);
        assert_eq!(
            ctrl.links(),
            [
                LinkState::Healthy,
                LinkState::Degraded(6),
                LinkState::Healthy,
                LinkState::Healthy
            ]
        );
        assert_eq!(ctrl.stuck_banks(), &[(TileId(0), BankId(3))]);
        let report = ctrl.report();
        assert_eq!(report.total_injected(), 4);
        assert_eq!(report.seed, 99);
    }

    #[test]
    fn timed_events_drain_in_cycle_order() {
        let mut ctrl = FaultController::new(&plan_with_everything(), 4);
        assert!(ctrl.take_due(4).is_empty());
        let at5 = ctrl.take_due(5);
        assert_eq!(at5.len(), 1);
        assert!(matches!(at5[0], TimedFault::Flip { mask: 2, .. }));
        // Jumping the clock past the remaining event delivers it.
        let rest = ctrl.take_due(100);
        assert_eq!(rest.len(), 1);
        assert!(matches!(rest[0], TimedFault::Flip { mask: 1, .. }));
        assert!(ctrl.take_due(1_000_000).is_empty());
    }

    #[test]
    fn report_tracks_runtime_counters() {
        let mut ctrl = FaultController::new(&FaultPlan::new(7), 1);
        let retry = FaultNote::Retry {
            tile: TileId(0),
            extra: 5,
        };
        ctrl.count(retry);
        ctrl.count(retry);
        ctrl.count(FaultNote::Corrected { loc: loc(0, 0, 0) });
        ctrl.count(FaultNote::Uncorrectable {
            loc: loc(0, 0, 1),
            mask: 3,
        });
        let report = ctrl.report();
        assert_eq!(report.retried_accesses, 2);
        assert_eq!(report.retry_cycles, 10);
        assert_eq!(report.ecc_corrected, 1);
        assert!(report.remapped.is_empty(), "the storage holds remaps");
        assert_eq!(report.ecc_pending, 0, "the storage counts latent errors");
    }

    #[test]
    fn flight_events_word_timed_faults_remaps_and_outcomes() {
        let flight = mempool_obs::FlightRecorder::new();
        let mut ctrl = FaultController::new(&plan_with_everything(), 4);
        for fault in ctrl.take_due(100) {
            let (category, message) = fault.flight_event();
            flight.record_deferred(100, category, None, message);
        }
        let remap = RemappedBank {
            tile: 0,
            from_bank: 3,
            to_bank: 16,
        };
        let (category, message) = remap.flight_event();
        flight.record_deferred(0, category, None, message);
        let notes = [
            FaultNote::Retry {
                tile: TileId(1),
                extra: 6,
            },
            FaultNote::Corrected { loc: loc(0, 0, 7) },
            FaultNote::Uncorrectable {
                loc: loc(1, 2, 3),
                mask: 0x30,
            },
        ];
        for (cycle, note) in (101..).zip(notes) {
            let (category, message) = note.flight_event();
            flight.record_deferred(cycle, category, None, message);
        }

        let events: Vec<String> = flight
            .events()
            .iter()
            .map(|e| format!("{} {} {:?} {}", e.cycle, e.category, e.core, e.message))
            .collect();
        assert_eq!(
            events,
            [
                "100 fault None transient flip mask 0x2 at tile 0 bank 1 word 2",
                "100 fault None transient flip mask 0x1 at tile 0 bank 0 word 7",
                "0 fault None stuck bank 3 on tile 0 remapped to spare 16",
                "101 fault None retry through degraded link of tile 1 (+6 cycles)",
                "102 ecc None corrected single-bit flip at tile 0 bank 0 word 7",
                "103 ecc None uncorrectable mask 0x30 at tile 1 bank 2 word 3",
            ]
        );
        // Wording never counts.
        assert_eq!(ctrl.report().retried_accesses, 0);
    }
}
