//! Runtime fault state consumed by the simulator.
//!
//! A [`FaultController`] is compiled from a [`FaultPlan`] when faults are
//! injected into a cluster. It splits the plan into *static* state (link
//! health per tile, the stuck banks the cluster must remap before the run)
//! and *timed* events (flips, hangs) delivered in cycle order, carries the
//! SEC-DED [`EccState`], and accumulates the [`FaultReport`].

use mempool_arch::{BankId, BankLocation, TileId};
use mempool_obs::FlightRecorder;

use crate::ecc::EccState;
use crate::plan::{DeadLinkPolicy, FaultEvent, FaultPlan};
use crate::report::{FaultReport, RemappedBank};

/// Health of one tile's F2F link to its memory die.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LinkState {
    /// Accesses proceed at nominal latency.
    #[default]
    Healthy,
    /// Accesses succeed after a retry costing the carried extra cycles.
    Degraded(u32),
    /// Accesses fail (see [`DeadLinkPolicy`]).
    Dead,
}

/// A timed fault due for application this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimedFault {
    /// XOR `mask` into the stored word at `loc` and record it for ECC.
    Flip {
        /// Word the flip lands in.
        loc: BankLocation,
        /// XOR mask to apply.
        mask: u32,
    },
    /// Hang the given core (it stops fetching forever).
    Hang {
        /// Global core index.
        core: u32,
    },
}

/// A fault outcome the engine observed on one access. The engine logs
/// these as plain data mid-quantum; at the boundary the controller counts
/// them via [`FaultTally`] and mirrors them into the flight ring via
/// [`FaultController::emit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultNote {
    /// The access was retried through `tile`'s degraded link.
    Retry {
        /// Destination tile whose link is degraded.
        tile: TileId,
        /// Extra cycles the retry cost.
        extra: u32,
    },
    /// The request from `core` was dropped by `tile`'s dead link.
    BlackHole {
        /// Destination tile whose link is open.
        tile: TileId,
        /// Global index of the issuing core.
        core: u32,
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

/// The report counters [`FaultNote`]s add up to, kept apart from the
/// controller (one per engine lane) and folded in with
/// [`FaultController::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Accesses retried through degraded links.
    pub retried_accesses: u64,
    /// Extra cycles those retries cost.
    pub retry_cycles: u64,
    /// Requests dropped by dead links.
    pub blackholed_requests: u64,
    /// Single-bit errors corrected.
    pub ecc_corrected: u64,
}

impl FaultTally {
    /// Counts one outcome.
    pub fn count(&mut self, note: FaultNote) {
        match note {
            FaultNote::Retry { extra, .. } => {
                self.retried_accesses += 1;
                self.retry_cycles += u64::from(extra);
            }
            FaultNote::BlackHole { .. } => self.blackholed_requests += 1,
            FaultNote::Corrected { .. } => self.ecc_corrected += 1,
            FaultNote::Uncorrectable { .. } => {}
        }
    }
}

/// Runtime fault state: link health, the timed-event queue, ECC state,
/// and the accumulating report.
#[derive(Debug, Clone)]
pub struct FaultController {
    links: Vec<LinkState>,
    /// Timed events sorted by cycle; `cursor` marks the next undelivered.
    timed: Vec<(u64, TimedFault)>,
    cursor: usize,
    ecc: EccState,
    stuck: Vec<(TileId, BankId)>,
    dead_link_policy: DeadLinkPolicy,
    report: FaultReport,
    flight: Option<FlightRecorder>,
}

impl FaultController {
    /// Compiles a plan for a cluster with `num_tiles` tiles. Events whose
    /// tile/core lies outside the geometry are counted but inert.
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
                        // A dead link stays dead even if also degraded.
                        if *slot != LinkState::Dead {
                            *slot = LinkState::Degraded(extra_latency.max(1));
                        }
                    }
                }
                FaultEvent::LinkDead { tile } => {
                    report.links_dead += 1;
                    if let Some(slot) = links.get_mut(tile.index()) {
                        *slot = LinkState::Dead;
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
                FaultEvent::CoreHang { cycle, core } => {
                    report.core_hangs += 1;
                    timed.push((cycle, TimedFault::Hang { core: core.0 }));
                }
            }
        }
        timed.sort_by_key(|&(cycle, _)| cycle);
        FaultController {
            links,
            timed,
            cursor: 0,
            ecc: EccState::new(),
            stuck,
            dead_link_policy: plan.dead_link_policy(),
            report,
            flight: None,
        }
    }

    /// Mirrors fault activity (timed-fault delivery, ECC outcomes, retries,
    /// black holes, remaps) into a shared flight-event ring.
    pub fn attach_flight(&mut self, flight: FlightRecorder) {
        self.flight = Some(flight);
    }

    fn emit_event(&self, cycle: u64, category: &str, core: Option<u32>, message: String) {
        if let Some(flight) = &self.flight {
            flight.record(cycle, category, core, message);
        }
    }

    /// The stuck banks the cluster must remap before the run starts.
    pub fn stuck_banks(&self) -> &[(TileId, BankId)] {
        &self.stuck
    }

    /// What happens to accesses through dead links.
    pub fn dead_link_policy(&self) -> DeadLinkPolicy {
        self.dead_link_policy
    }

    /// Drains the timed events due at or before `cycle`, in cycle order.
    pub fn take_due(&mut self, cycle: u64) -> Vec<TimedFault> {
        let mut due = Vec::new();
        while let Some(&(at, fault)) = self.timed.get(self.cursor) {
            if at > cycle {
                break;
            }
            match fault {
                TimedFault::Flip { loc, mask } => self.emit_event(
                    cycle,
                    "fault",
                    None,
                    format!(
                        "transient flip mask {mask:#x} at tile {} bank {} word {}",
                        loc.tile.0, loc.bank.0, loc.word
                    ),
                ),
                TimedFault::Hang { core } => {
                    self.emit_event(cycle, "fault", Some(core), format!("core {core} hung"));
                }
            }
            due.push(fault);
            self.cursor += 1;
        }
        due
    }

    /// Records an applied flip in the ECC state.
    pub fn note_flip(&mut self, loc: BankLocation, mask: u32) {
        self.ecc.note_flip(loc, mask);
    }

    /// Pending error mask on a word, without consuming it.
    pub fn pending_mask(&self, loc: BankLocation) -> Option<u32> {
        self.ecc.pending_mask(loc)
    }

    /// Whether any word has a pending error mask (fast-path guard for
    /// write-side clearing).
    pub fn has_pending_errors(&self) -> bool {
        self.ecc.pending_words() > 0
    }

    /// Clears the pending mask on a written word.
    pub fn ecc_clear(&mut self, loc: BankLocation) {
        self.ecc.clear(loc);
    }

    /// Records a spare-bank substitution.
    pub fn record_remap(&mut self, tile: TileId, from: BankId, to: BankId) {
        self.emit_event(
            0,
            "fault",
            None,
            format!(
                "stuck bank {} on tile {} remapped to spare {}",
                from.0, tile.0, to.0
            ),
        );
        self.report.remapped.push(RemappedBank {
            tile: tile.0,
            from_bank: from.0,
            to_bank: to.0,
        });
    }

    /// Mirrors one observed outcome into the flight ring at `cycle`
    /// (nothing is counted — see [`Self::absorb`]).
    pub fn emit(&self, cycle: u64, note: FaultNote) {
        let at = |loc: BankLocation| {
            format!("tile {} bank {} word {}", loc.tile.0, loc.bank.0, loc.word)
        };
        let (category, core, message) = match note {
            FaultNote::Retry { tile, extra } => (
                "fault",
                None,
                format!(
                    "retry through degraded link of tile {} (+{extra} cycles)",
                    tile.0
                ),
            ),
            FaultNote::BlackHole { tile, core } => (
                "fault",
                Some(core),
                format!("request black-holed by dead link of tile {}", tile.0),
            ),
            FaultNote::Corrected { loc } => (
                "ecc",
                None,
                format!("corrected single-bit flip at {}", at(loc)),
            ),
            FaultNote::Uncorrectable { loc, mask } => (
                "ecc",
                None,
                format!("uncorrectable mask {mask:#x} at {}", at(loc)),
            ),
        };
        self.emit_event(cycle, category, core, message);
    }

    /// Folds a lane's outcome counts into the report.
    pub fn absorb(&mut self, tally: FaultTally) {
        self.report.retried_accesses += tally.retried_accesses;
        self.report.retry_cycles += tally.retry_cycles;
        self.report.blackholed_requests += tally.blackholed_requests;
        self.report.ecc_corrected += tally.ecc_corrected;
    }

    /// Snapshot of the report, including currently latent ECC errors.
    pub fn report(&self) -> FaultReport {
        let mut report = self.report.clone();
        report.ecc_pending = self.ecc.pending_words() as u64;
        report
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

    /// Checkpoint accessor: the ECC state (sorted entries via
    /// [`EccState::entries`]).
    pub fn ecc_state(&self) -> &EccState {
        &self.ecc
    }

    /// Rebuilds a controller from checkpointed parts: remaining timed
    /// events become the whole queue (cursor 0), and no flight ring is
    /// attached (the cluster re-attaches one when flight recording is
    /// re-enabled).
    pub fn from_snapshot(
        links: Vec<LinkState>,
        remaining_timed: Vec<(u64, TimedFault)>,
        ecc: EccState,
        stuck: Vec<(TileId, BankId)>,
        dead_link_policy: DeadLinkPolicy,
        report: FaultReport,
    ) -> Self {
        FaultController {
            links,
            timed: remaining_timed,
            cursor: 0,
            ecc,
            stuck,
            dead_link_policy,
            report,
            flight: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::EccOutcome;
    use mempool_arch::GlobalCoreId;

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
        plan.push(FaultEvent::LinkDead { tile: TileId(2) });
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
        plan.push(FaultEvent::CoreHang {
            cycle: 20,
            core: GlobalCoreId::new(3),
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
                LinkState::Dead,
                LinkState::Healthy
            ]
        );
        assert_eq!(ctrl.stuck_banks(), &[(TileId(0), BankId(3))]);
        let report = ctrl.report();
        assert_eq!(report.total_injected(), 6);
        assert_eq!(report.seed, 99);
    }

    #[test]
    fn timed_events_drain_in_cycle_order() {
        let mut ctrl = FaultController::new(&plan_with_everything(), 4);
        assert!(ctrl.take_due(4).is_empty());
        let at5 = ctrl.take_due(5);
        assert_eq!(at5.len(), 1);
        assert!(matches!(at5[0], TimedFault::Flip { mask: 2, .. }));
        // Jumping the clock past both remaining events delivers both.
        let rest = ctrl.take_due(100);
        assert_eq!(rest.len(), 2);
        assert!(matches!(rest[0], TimedFault::Flip { mask: 1, .. }));
        assert!(matches!(rest[1], TimedFault::Hang { core: 3 }));
        assert!(ctrl.take_due(1_000_000).is_empty());
    }

    #[test]
    fn dead_link_survives_degradation_order() {
        let mut plan = FaultPlan::new(1);
        plan.push(FaultEvent::LinkDead { tile: TileId(0) });
        plan.push(FaultEvent::LinkDegraded {
            tile: TileId(0),
            extra_latency: 3,
        });
        let ctrl = FaultController::new(&plan, 1);
        assert_eq!(ctrl.links(), [LinkState::Dead]);
    }

    #[test]
    fn report_tracks_runtime_counters_and_latent_errors() {
        let mut ctrl = FaultController::new(&FaultPlan::new(7), 1);
        let retry = FaultNote::Retry {
            tile: TileId(0),
            extra: 5,
        };
        let mut tally = FaultTally::default();
        tally.count(retry);
        tally.count(retry);
        tally.count(FaultNote::BlackHole {
            tile: TileId(0),
            core: 0,
        });
        ctrl.record_remap(TileId(0), BankId(1), BankId(4));
        ctrl.note_flip(loc(0, 0, 0), 1);
        ctrl.note_flip(loc(0, 0, 1), 1);
        // Reading one corrects it (the reader scrubs the mask); the other
        // stays latent.
        assert_eq!(
            ctrl.ecc_state().check(loc(0, 0, 0), 1),
            EccOutcome::Corrected { value: 0 }
        );
        tally.count(FaultNote::Corrected { loc: loc(0, 0, 0) });
        ctrl.ecc_clear(loc(0, 0, 0));
        ctrl.absorb(tally);
        let report = ctrl.report();
        assert_eq!(report.retried_accesses, 2);
        assert_eq!(report.retry_cycles, 10);
        assert_eq!(report.blackholed_requests, 1);
        assert_eq!(report.remapped.len(), 1);
        assert_eq!(report.ecc_corrected, 1);
        assert_eq!(report.ecc_pending, 1);
    }

    #[test]
    fn attached_flight_ring_mirrors_fault_activity() {
        let flight = FlightRecorder::new();
        let mut ctrl = FaultController::new(&plan_with_everything(), 4);
        ctrl.attach_flight(flight.clone());
        ctrl.take_due(100);
        ctrl.emit(
            101,
            FaultNote::Retry {
                tile: TileId(1),
                extra: 6,
            },
        );
        ctrl.emit(
            102,
            FaultNote::BlackHole {
                tile: TileId(2),
                core: 9,
            },
        );
        ctrl.emit(103, FaultNote::Corrected { loc: loc(0, 0, 7) });

        let events = flight.events();
        // 3 timed faults + retry + blackhole + 1 ECC correction.
        assert_eq!(events.len(), 6);
        assert!(events.iter().take(5).all(|e| e.category == "fault"));
        assert_eq!(events[3].cycle, 101);
        assert!(events[3].message.contains("degraded link of tile 1"));
        assert_eq!(events[4].core, Some(9));
        assert_eq!(events[5].category, "ecc");
        let hang = events
            .iter()
            .find(|e| e.message.contains("hung"))
            .expect("hang event");
        assert_eq!(hang.core, Some(3));
        // Emission never counts.
        assert_eq!(ctrl.report().retried_accesses, 0);
    }

    #[test]
    fn detached_controller_stays_silent() {
        let mut ctrl = FaultController::new(&plan_with_everything(), 4);
        // No flight attached: emission is a no-op, not a panic.
        ctrl.take_due(100);
        ctrl.emit(
            1,
            FaultNote::Retry {
                tile: TileId(0),
                extra: 2,
            },
        );
    }
}
