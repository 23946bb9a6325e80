//! The execution engine: one tick kernel, one driver.
//!
//! A simulated cycle is the same three steps on every tile — bank service
//! ([`serve_phase`]), response delivery and issue ([`local_phase`]), and
//! routing of what the tile sent to other tiles ([`route`]) — and
//! [`run_quantum`] is the only loop that drives them; [`step`] is one tick
//! of it on one shard. DESIGN.md § "Execution engine" is the reference for
//! tick phases, shard ownership, mailbox order, quantum caps and error
//! ordering; the comments here cover what the code alone does not show.
//!
//! * **Static tile→thread ownership.** Tiles are split into contiguous
//!   per-worker shard ranges ([`TileShard`]): a worker owns its tiles'
//!   cores, I$, response queues, *banks*, and SPM words (main and spare)
//!   outright, so both phases run with plain `&mut` indexing.
//! * **Mailboxes only between workers.** With several workers, cross-tile
//!   traffic (bank pushes and responses) flows through per-tile inboxes
//!   double-buffered by tick parity; the receiver applies entries sorted
//!   by source tile, so every bank queue evolves bit-identically at every
//!   worker count. One worker owns every tile and delivers straight into
//!   the destination queue, in the order the sorted inbox would have.
//! * **Amortized synchronization.** Workers run in per-tick lockstep via
//!   padded atomic progress counters (spin-then-yield, no futexes) and
//!   meet the calling thread only at *quantum* boundaries, where
//!   everything thread-confined happens in canonical `(tick, tile)` order:
//!   off-chip accesses resolve, observation lanes replay into the `Rc`
//!   based recorders, fault outcomes reach the [`FaultController`], the
//!   watchdog and sampler advance, and quiescence / errors are settled.
//!   Whatever must happen at an exact cycle (a timed fault, a sample, a
//!   watchdog expiry, an off-chip response) caps the quantum there.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mempool_arch::{
    AddressMap, BankLocation, ClusterConfig, GlobalCoreId, MemoryRegion, TileId, Topology,
};
use mempool_fault::{
    DeadLinkPolicy, EccOutcome, EccState, FaultController, FaultNote, FaultTally, LinkState,
    TimedFault,
};
use mempool_isa::exec::{self, Issue, MemAccessKind, MemWidth};
use mempool_isa::Program;

use crate::cluster::{
    latency_split, mem_probe_addr, sign_adjust, Bank, Cluster, PendingAccess, Response, SimError,
};
use crate::core::{Core, IssueRecord, Stall};
use crate::icache::ICache;
use crate::memory::{check_region, Storage};
use crate::offchip::OffchipPort;
use crate::params::SimParams;
use crate::profile::{LaneTally, PHASE_SAMPLE_PERIOD};
use crate::trace::{Trace, TraceEntry};

/// A deferred off-chip (external-memory) access issued in the local phase
/// and resolved at the quantum boundary, in issue order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExternalIntent {
    /// Global id of the issuing core.
    pub core: u32,
    /// Byte address of the access.
    pub addr: u32,
    /// The access kind (load/store/AMO with operands).
    pub kind: MemAccessKind,
    /// Access width.
    pub width: MemWidth,
}

/// Ticks per quantum when nothing shortens it: large enough to amortize
/// per-quantum thread spawn and boundary work down to noise, small enough
/// to keep quiescence-overshoot rollback work trivial.
const QUANTUM_TICKS: u64 = 1024;

/// The host's available parallelism (CPUs this process may use), `1` if
/// the platform cannot tell. Worker counts are clamped to this by default:
/// spinning lockstep workers beyond the CPU count only thrash the
/// scheduler, and results are bit-identical at every worker count anyway.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A cache-line-padded progress counter, one per worker, counting
/// half-ticks with release/acquire ordering: `2 * (t + 1)` once tick `t`
/// is complete, `2 * t + 1` at the mid-tick gate rounds with latent ECC
/// masks add after bank service.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PaddedCounter(AtomicU64);

/// Cross-tile traffic addressed to one tile, double-buffered by tick
/// parity. Entries are `(source tile, local index, payload)`; the
/// receiver applies them sorted by source tile — the order a single
/// worker sweeping tiles in ascending order produces.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    /// Bank-queue pushes: `(src tile, bank index within dest tile, access)`.
    pushes: Vec<(u32, u32, PendingAccess)>,
    /// Responses: `(src tile, core index within dest tile, response)`.
    responses: Vec<(u32, u32, Response)>,
    /// ECC correction stalls for this tile's cores, `(core index within
    /// dest tile, cycles)`: sent and consumed inside one tick (see
    /// `quantum_worker`), in the slot that tick has already drained.
    stalls: Vec<(u32, u32)>,
}

impl Inbox {
    /// Applies and clears the inbox, in source-tile order.
    fn drain_into(&mut self, banks: &mut TileBanks<'_>, responses: &mut [Vec<Response>]) {
        self.pushes.sort_by_key(|&(src, _, _)| src);
        for (_, bank, access) in self.pushes.drain(..) {
            banks.push(bank as usize, access);
        }
        self.responses.sort_by_key(|&(src, _, _)| src);
        for (_, core, response) in self.responses.drain(..) {
            responses[core as usize].push(response);
        }
    }
}

/// One inbox plus its lock-free "worth locking?" flag. Senders set the
/// flag after publishing; a receiver that finds it clear skips the mutex
/// entirely (idle tiles pay two atomic ops per tick, nothing more).
#[derive(Debug, Default)]
pub(crate) struct InboxSlot {
    nonempty: AtomicBool,
    data: Mutex<Inbox>,
}

/// Where in a tick something happened, in the order a tick gets there:
/// every tile's bank service, then per tile (ascending) off-chip
/// resolution before issue. Errors and flight events are ordered by
/// `(tick, past bank service?, tile, phase)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Serve,
    Offchip,
    Issue,
}

/// When and where something happened: `(tick, tile, phase)`.
type At = (u64, u32, Phase);

/// The ordering key of something that happened at `at`.
fn tick_key((tick, tile, phase): At) -> (u64, bool, u32, Phase) {
    (tick, phase != Phase::Serve, tile, phase)
}

/// What a lane logs for the flight ring.
#[derive(Debug, Clone, Copy)]
enum FlightNote {
    /// A bank access was served.
    Mem {
        core: u32,
        loc: BankLocation,
        kind: &'static str,
    },
    /// A fault outcome (retry, black hole, ECC), worded by the controller.
    Fault(FaultNote),
}

/// A flight-ring event recorded on a lane, replayed at the boundary.
#[derive(Debug, Clone, Copy)]
struct LaneEvent {
    at: At,
    note: FlightNote,
}

/// The newest `cap` entries of a stream plus a count of the older ones:
/// all a lane can contribute to a ring of capacity `cap`. An entry that is
/// not among its own lane's last `cap` is not among the merged stream's
/// last `cap` either, so ring contents and `dropped` totals come out as if
/// every entry had been recorded.
#[derive(Debug)]
struct Tail<T> {
    kept: VecDeque<T>,
    dropped: u64,
}

impl<T> Default for Tail<T> {
    fn default() -> Self {
        Tail {
            kept: VecDeque::new(),
            dropped: 0,
        }
    }
}

impl<T> Tail<T> {
    #[inline]
    fn push(&mut self, cap: usize, entry: T) {
        if self.kept.len() >= cap {
            self.kept.pop_front();
            self.dropped += 1;
        }
        self.kept.push_back(entry);
    }

    /// Moves the kept entries onto `merge`; returns how many older ones
    /// were counted instead.
    fn drain_into(&mut self, merge: &mut Vec<T>) -> u64 {
        merge.extend(self.kept.drain(..));
        std::mem::take(&mut self.dropped)
    }
}

/// Traffic leaving a tile: `(dest tile, src tile, index within dest, payload)`.
type Outbound<T> = (u32, u32, u32, T);

/// Per-worker scratch, preallocated and reused across ticks and quanta.
/// The instrumentation buffers are this worker's private *observation
/// lane*: the hot path appends to them with no locks and (in steady
/// state) no allocations, and the boundary drains them in deterministic
/// source-tile order.
#[derive(Debug, Default)]
pub(crate) struct WorkerLane {
    /// Bank pushes issued this tick, in (tile, core) order.
    push_out: Vec<Outbound<PendingAccess>>,
    /// Cross-tile responses produced this tick, in (tile, bank) order.
    resp_out: Vec<Outbound<Response>>,
    /// ECC correction stalls charged by this tick's bank service:
    /// `(global core, cycles)`.
    stalls: Vec<(u32, u32)>,
    /// Off-chip intents issued this quantum: `(tick, tile, intent)`, in
    /// issue order (ticks ascending, tiles ascending within a tick).
    externals: Vec<(u64, u32, ExternalIntent)>,
    /// SPM words touched by this worker's shards this quantum (merged
    /// into the shared counter at the boundary).
    touches: u64,
    /// Cycle since which every owned tile has been continuously inert
    /// (halted cores, empty queues, nothing outstanding) this quantum;
    /// `u64::MAX` while any tile is active. Drives exact quiescence
    /// rollback.
    inert_since: u64,
    /// First error this worker hit, by sweep order.
    error: Option<(At, SimError)>,
    /// Flight-ring events this quantum (served accesses, fault outcomes),
    /// in (tick, phase, tile) order. Only fed when flight recording is on.
    events: Tail<LaneEvent>,
    /// Retired instructions this quantum, in (tick, tile, core) order.
    /// Only fed when tracing is on.
    trace_out: Tail<TraceEntry>,
    /// `(tick, global core)` pairs that executed `wfi` this quantum
    /// (obs span begins). Only fed when an obs handle is attached.
    halts: Vec<(u64, u32)>,
    /// Per-tick scratch flag: whether this lane's shards delivered a
    /// response or retired an instruction during the current tick.
    progress: bool,
    /// Ticks at which this lane's shards made forward progress, strictly
    /// ascending. Only fed when a watchdog is armed.
    progress_ticks: Vec<u64>,
    /// Fault outcomes counted this quantum (folded into the report at the
    /// boundary).
    faults: FaultTally,
    /// Words whose latent ECC mask this lane consumed this quantum (a
    /// corrected read or any write); the shared [`EccState`] still lists
    /// them until the boundary clears it.
    ecc_cleared: Vec<BankLocation>,
    /// Self-profiling: this worker's host-time tallies this quantum.
    prof: LaneTally,
}

impl WorkerLane {
    /// Records this lane's first error and ends the quantum with the
    /// current tick.
    fn fail(&mut self, stop_at: &AtomicU64, at: At, error: SimError) {
        if self.error.is_none() {
            self.error = Some((at, error));
            stop_at.fetch_min(at.0 + 1, Ordering::AcqRel);
        }
    }

    /// Logs a flight-ring event, if flight recording is on.
    fn log(&mut self, ctx: &WorkerCtx<'_>, at: At, note: FlightNote) {
        if ctx.flight_cap > 0 {
            self.events.push(ctx.flight_cap, LaneEvent { at, note });
        }
    }

    /// Counts a fault outcome and logs it.
    fn fault(&mut self, ctx: &WorkerCtx<'_>, at: At, note: FaultNote) {
        self.faults.count(note);
        self.log(ctx, at, FlightNote::Fault(note));
    }
}

/// All engine buffers, owned by the cluster so capacity survives across
/// ticks, quanta, and whole runs (the slab/arena the hot path reuses
/// instead of allocating).
#[derive(Debug, Default)]
pub(crate) struct QuantumArena {
    /// Per-tile mailboxes, double-buffered by tick parity. Stays empty
    /// until a round runs on more than one worker.
    inboxes: Vec<[InboxSlot; 2]>,
    /// Per-worker progress counters (index = worker lane).
    progress: Vec<PaddedCounter>,
    /// Per-worker scratch lanes. Sized to the largest worker count seen;
    /// a round uses the first `workers` lanes.
    lanes: Vec<WorkerLane>,
    /// One bit per bank, set exactly while its queue holds a request, in
    /// [`live_words`] words per tile. With `earliest`, state derived from
    /// the bank queues ([`derive_live`]) so that bank service visits only
    /// the banks that have work: kept current by every push
    /// ([`TileBanks::push`]) and every service, never serialized, and
    /// rebuilt when something other than the engine fills the queues.
    live: Vec<u64>,
    /// Per bank, the earliest arrival among its queued requests;
    /// `u64::MAX` while the queue is empty.
    earliest: Vec<u64>,
    /// Boundary scratch: the merged off-chip intent log.
    ext_merge: Vec<(u64, u32, ExternalIntent)>,
    /// Boundary scratch: merged trace entries, sorted into retire order
    /// before replay.
    trace_merge: Vec<TraceEntry>,
    /// Boundary scratch: merged flight events.
    event_merge: Vec<LaneEvent>,
    /// Boundary scratch: merged `wfi` span begins.
    halt_merge: Vec<(u64, u32)>,
    /// Boundary scratch: merged forward-progress ticks (watchdog replay).
    progress_merge: Vec<u64>,
    /// Off-chip intents merged at the most recent boundary
    /// (self-profiling).
    ext_merged_last: u64,
}

/// Words of live bits per tile.
fn live_words(banks_per_tile: usize) -> usize {
    banks_per_tile.div_ceil(64)
}

/// The live bits and earliest arrivals `banks` imply, by their definition.
fn derive_live(banks: &[Bank], banks_per_tile: usize) -> (Vec<u64>, Vec<u64>) {
    let words = live_words(banks_per_tile);
    let mut live = vec![0u64; banks.len() / banks_per_tile * words];
    let earliest = banks
        .iter()
        .enumerate()
        .map(|(index, bank)| {
            if !bank.queue.is_empty() {
                let (tile, local) = (index / banks_per_tile, index % banks_per_tile);
                live[tile * words + local / 64] |= 1 << (local % 64);
            }
            bank.queue.iter().map(|access| access.arrival).min()
        })
        .map(|arrival| arrival.unwrap_or(u64::MAX))
        .collect();
    (live, earliest)
}

impl QuantumArena {
    /// Rebuilds the live-bank sets from the queues themselves: for a new
    /// cluster, and whenever the queues were filled from outside a round
    /// ([`Cluster::restore`]).
    pub(crate) fn rebuild_live(&mut self, banks: &[Bank], banks_per_tile: usize) {
        (self.live, self.earliest) = derive_live(banks, banks_per_tile);
    }

    /// Whether the live-bank sets say what the queues say.
    fn live_is_current(&self, banks: &[Bank], banks_per_tile: usize) -> bool {
        let (live, earliest) = derive_live(banks, banks_per_tile);
        self.live == live && self.earliest == earliest
    }

    /// Grows (never shrinks) the arena for a cluster of `num_tiles` tiles
    /// run on `workers` worker lanes.
    fn ensure(&mut self, num_tiles: usize, workers: usize) {
        if workers > 1 {
            self.inboxes.resize_with(num_tiles, Default::default);
        }
        if self.lanes.len() < workers {
            self.progress.resize_with(workers, Default::default);
            self.lanes.resize_with(workers, Default::default);
        }
    }

    /// Reserved capacity (entries) of the cross-tile mailboxes.
    pub(crate) fn mailbox_footprint(&self) -> u64 {
        self.inboxes
            .iter()
            .flatten()
            .map(|slot| {
                let inbox = slot.data.lock().expect("inbox lock");
                (inbox.pushes.capacity() + inbox.responses.capacity() + inbox.stalls.capacity())
                    as u64
            })
            .sum()
    }

    /// Total reserved capacity (entries) across every arena buffer —
    /// the steady-state invariant tests assert this stops growing after
    /// warmup.
    pub(crate) fn footprint(&self) -> u64 {
        let lanes: usize = self
            .lanes
            .iter()
            .map(|lane| {
                lane.push_out.capacity()
                    + lane.resp_out.capacity()
                    + lane.stalls.capacity()
                    + lane.externals.capacity()
                    + lane.events.kept.capacity()
                    + lane.trace_out.kept.capacity()
                    + lane.halts.capacity()
                    + lane.progress_ticks.capacity()
                    + lane.ecc_cleared.capacity()
            })
            .sum();
        let merge = self.ext_merge.capacity()
            + self.trace_merge.capacity()
            + self.event_merge.capacity()
            + self.halt_merge.capacity()
            + self.progress_merge.capacity();
        let live = self.live.capacity() + self.earliest.capacity();
        self.mailbox_footprint() + (lanes + merge + live) as u64
    }
}

/// Immutable context shared by every worker of a round. Fault state is
/// plain data here: the controller itself holds an `Rc` flight handle and
/// never leaves the calling thread.
#[derive(Debug)]
struct WorkerCtx<'a> {
    config: &'a ClusterConfig,
    topo: &'a Topology,
    params: &'a SimParams,
    program: &'a Program,
    /// The program's issue records, parallel to `program.instrs()`.
    records: &'a [IssueRecord],
    map: &'a AddressMap,
    cores_per_tile: usize,
    banks_per_tile: usize,
    bank_words: usize,
    /// Ticks an issued off-chip access holds the quantum open for:
    /// `max(1, offchip_latency)` keeps every boundary ahead of the
    /// earliest possible response due-cycle.
    ext_hold: u64,
    /// F2F link health per tile — static for a whole plan; empty without
    /// one.
    links: &'a [LinkState],
    dead_links: DeadLinkPolicy,
    /// The latent SEC-DED masks, `None` while no word holds one (flips
    /// land only at boundaries, so the set can only shrink in a round).
    ecc: Option<&'a EccState>,
    /// Whether an obs handle is attached (record `wfi` span begins).
    obs_on: bool,
    /// Capacity of the flight ring the lanes feed; `0` when recording is
    /// off.
    flight_cap: usize,
    /// Capacity of the instruction trace the lanes feed; `0` when off.
    trace_cap: usize,
    /// Whether a watchdog is armed (record forward-progress ticks).
    watch: bool,
    /// Spins before a waiting worker yields its CPU. On a host with a CPU
    /// per worker a peer is at most ~a tick of work away, so spin
    /// generously; an oversubscribed host (forced by tests) must yield
    /// immediately or the waited-on peer never gets scheduled.
    spin_budget: u32,
}

/// The state one worker owns exclusively for one tile: cores, response
/// queues, I$, banks, and the tile's SPM words — its slice of the main
/// array and of the spare banks remapped banks resolve to.
#[derive(Debug)]
struct TileShard<'a> {
    tile: u32,
    cores: &'a mut [Core],
    responses: &'a mut [Vec<Response>],
    icache: &'a mut ICache,
    banks: TileBanks<'a>,
    spm: &'a mut [u32],
    spare: &'a mut [u32],
}

impl TileShard<'_> {
    /// Whether this tile is inert: every core halted with nothing
    /// outstanding and every queue drained (the per-tile restriction of
    /// [`Cluster::quiescent`]).
    fn inert(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.halted() && c.outstanding() == 0)
            && self.responses.iter().all(Vec::is_empty)
            && self.banks.live.iter().all(|&bits| bits == 0)
    }
}

/// One tile's bank queues with its slice of the arena's live-bank sets
/// (see [`QuantumArena::live`]). Requests enter a queue through
/// [`Self::push`] only, and leave in [`serve_phase`] only.
#[derive(Debug)]
struct TileBanks<'a> {
    banks: &'a mut [Bank],
    live: &'a mut [u64],
    earliest: &'a mut [u64],
}

/// Splits the cluster's banks and live-bank sets into per-tile views,
/// tile-ascending.
fn tile_banks<'a>(
    banks: &'a mut [Bank],
    live: &'a mut [u64],
    earliest: &'a mut [u64],
    banks_per_tile: usize,
) -> impl Iterator<Item = TileBanks<'a>> {
    banks
        .chunks_mut(banks_per_tile)
        .zip(live.chunks_mut(live_words(banks_per_tile)))
        .zip(earliest.chunks_mut(banks_per_tile))
        .map(|((banks, live), earliest)| TileBanks {
            banks,
            live,
            earliest,
        })
}

impl TileBanks<'_> {
    /// The first bank at or after `from` whose queue holds a request.
    #[inline]
    fn next_live(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.live.get(word)? & (!0 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.live.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    #[inline]
    fn push(&mut self, bank: usize, access: PendingAccess) {
        self.live[bank / 64] |= 1 << (bank % 64);
        self.earliest[bank] = self.earliest[bank].min(access.arrival);
        self.banks[bank].queue.push(access);
    }
}

/// The bank-service phase of one tile for tick `now`: every bank serves at
/// most one request whose network arrival lies strictly in the past
/// (earliest arrival wins, FIFO among ties), counting conflict cycles.
/// Flight events go to the lane's observation buffer, tagged with their
/// tick, and are replayed into the shared ring at the boundary.
fn serve_phase(
    ctx: &WorkerCtx<'_>,
    shard: &mut TileShard<'_>,
    lane: &mut WorkerLane,
    stop_at: &AtomicU64,
    now: u64,
) {
    let at = (now, shard.tile, Phase::Serve);
    // Ascending over the banks that hold a request; the others have
    // nothing to serve and no queue depth to record.
    let mut next = 0;
    while let Some(index) = shard.banks.next_live(next) {
        next = index + 1;
        let bank = &mut shard.banks.banks[index];
        bank.stats.max_queue_depth = bank.stats.max_queue_depth.max(bank.queue.len() as u64);
        if shard.banks.earliest[index] >= now {
            continue;
        }
        // The earliest arrival lies in the past, so the request that has
        // it (the first, among ties) is the one to serve; `rest` becomes
        // the queue's earliest arrival once it is gone.
        let (mut best, mut first, mut rest) = (0, u64::MAX, u64::MAX);
        let mut contenders = 0u64;
        for (i, access) in bank.queue.iter().enumerate() {
            contenders += u64::from(access.arrival < now);
            if access.arrival < first {
                (best, first, rest) = (i, access.arrival, first);
            } else {
                rest = rest.min(access.arrival);
            }
        }
        bank.stats.conflicts += contenders - 1;
        let access = bank.queue.swap_remove(best);
        shard.banks.earliest[index] = rest;
        if bank.queue.is_empty() {
            shard.banks.live[index / 64] &= !(1 << (index % 64));
        }
        bank.stats.served += 1;
        let loc = access.loc;
        debug_assert_eq!(loc.tile.0, shard.tile, "banks are tile-owned");
        let kind = match access.kind {
            MemAccessKind::Load { .. } => "load",
            MemAccessKind::Store { .. } => "store",
            MemAccessKind::Amo { .. } => "amo",
        };
        let core = access.core;
        lane.log(ctx, at, FlightNote::Mem { core, loc, kind });
        // Spare-bank indirection: a remapped bank keeps its queue but its
        // words live in the tile's spare array.
        let physical = ctx.map.resolve(loc).bank.index();
        let word = match physical.checked_sub(ctx.banks_per_tile) {
            None => &mut shard.spm[physical * ctx.bank_words + loc.word as usize],
            Some(slot) => &mut shard.spare[slot * ctx.bank_words + loc.word as usize],
        };
        let mut old_word = *word;
        lane.touches += 1;
        let mut extra_resp = 0u32;
        let latent = ctx
            .ecc
            .filter(|ecc| ecc.pending_mask(loc).is_some() && !lane.ecc_cleared.contains(&loc));
        if let Some(ecc) = latent {
            // SEC-DED check on every access that observes the stored word
            // (a full-word store overwrites it without reading).
            let reads_word = !matches!(
                access.kind,
                MemAccessKind::Store {
                    width: MemWidth::Word,
                    ..
                }
            );
            match ecc.check(loc, old_word) {
                EccOutcome::Corrected { value } if reads_word => {
                    // Correct the returned word and scrub storage.
                    old_word = value;
                    *word = value;
                    lane.touches += 1;
                    extra_resp = ctx.params.ecc_correction_penalty;
                    lane.stalls.push((access.core, extra_resp));
                    lane.fault(ctx, at, FaultNote::Corrected { loc });
                    lane.ecc_cleared.push(loc);
                }
                EccOutcome::Uncorrectable { mask } if reads_word => {
                    lane.fault(ctx, at, FaultNote::Uncorrectable { loc, mask });
                    lane.fail(stop_at, at, SimError::EccUncorrectable { loc, mask });
                    return;
                }
                // Any write leaves a freshly encoded (error-free) word
                // behind.
                _ if !matches!(access.kind, MemAccessKind::Load { .. }) => {
                    lane.ecc_cleared.push(loc);
                }
                _ => {}
            }
        }
        let shift = (access.addr & 3) * 8;
        let response_value = match access.kind {
            MemAccessKind::Load { width, .. } => match width {
                MemWidth::Byte => (old_word >> shift) & 0xff,
                MemWidth::Half => (old_word >> shift) & 0xffff,
                MemWidth::Word => old_word,
            },
            MemAccessKind::Store { width, value } => {
                *word = match width {
                    MemWidth::Byte => (old_word & !(0xff << shift)) | ((value & 0xff) << shift),
                    MemWidth::Half => (old_word & !(0xffff << shift)) | ((value & 0xffff) << shift),
                    MemWidth::Word => value,
                };
                lane.touches += 1;
                0
            }
            MemAccessKind::Amo { op, value, .. } => {
                *word = op.apply(old_word, value);
                lane.touches += 1;
                old_word
            }
        };
        let response = Response {
            due: now + (access.resp_latency + extra_resp) as u64,
            reg: access.kind.response_reg(),
            value: sign_adjust(access.kind, response_value),
        };
        let dest_tile = access.core as usize / ctx.cores_per_tile;
        let dest_local = access.core as usize % ctx.cores_per_tile;
        if dest_tile == shard.tile as usize {
            shard.responses[dest_local].push(response);
        } else {
            lane.resp_out
                .push((dest_tile as u32, shard.tile, dest_local as u32, response));
        }
    }
}

/// The local phase of one tile for tick `now`: deliver due responses to
/// this tile's cores, then issue at most one instruction per core. Bank
/// pushes (same-tile ones included — queue order is source-tile order) go
/// to the lane's outbound buffer; off-chip intents land in the lane's
/// tick-tagged log and shorten the quantum via `stop_at`; trace entries,
/// `wfi` span begins, fault outcomes and forward-progress marks land in
/// the lane's observation buffers for deterministic boundary replay.
fn local_phase(
    ctx: &WorkerCtx<'_>,
    shard: &mut TileShard<'_>,
    lane: &mut WorkerLane,
    stop_at: &AtomicU64,
    now: u64,
) {
    for (core, responses) in shard.cores.iter_mut().zip(shard.responses.iter_mut()) {
        let mut i = 0;
        while i < responses.len() {
            if responses[i].due <= now {
                let r = responses.swap_remove(i);
                core.complete(r.reg, r.value);
                lane.progress = true;
            } else {
                i += 1;
            }
        }
    }
    let at = (now, shard.tile, Phase::Issue);
    let tile = TileId(shard.tile);
    let base = shard.tile as usize * ctx.cores_per_tile;
    // Remote-port arbitration: accesses leaving the tile go through its
    // limited remote request ports (4 in MemPool); a tile whose ports are
    // taken this cycle stalls further remote issues.
    let mut remote_issued = 0u32;
    'issue: for local in 0..shard.cores.len() {
        let index = base + local;
        let core_id = GlobalCoreId::new(index as u32);
        let core = &mut shard.cores[local];
        // A core latched up by an injected fault burns cycles forever.
        if core.hung() || core.halted() {
            core.stats.halted_cycles += 1;
            continue;
        }
        if core.consume_bubble() {
            continue;
        }
        let pc = core.pc;
        if !shard.icache.access(pc) {
            let penalty = ctx.params.icache_miss_penalty;
            core.insert_bubble(penalty);
            core.stats.stall_icache += penalty as u64;
            core.stats.icache_misses += 1;
            continue;
        }
        let Some(instr) = ctx.program.fetch(pc) else {
            let error = SimError::PcOutOfRange { core: core_id, pc };
            lane.fail(stop_at, at, error);
            break 'issue;
        };
        let record = ctx.records[(pc / 4) as usize];
        match core.check_record(record, ctx.params.max_outstanding) {
            Err(Stall::Scoreboard) => {
                core.stats.stall_scoreboard += 1;
                continue;
            }
            Err(Stall::Structural) => {
                core.stats.stall_structural += 1;
                continue;
            }
            Ok(()) => {}
        }
        // Where a memory instruction's word lives, decoded once: port
        // arbitration needs it before the instruction issues, the access
        // itself after.
        let probe = mem_probe_addr(instr, &core.regs);
        let region = probe.map(|addr| ctx.map.locate(addr & !3));
        if let Some(MemoryRegion::Spm(loc)) = region {
            if loc.tile != tile {
                if remote_issued >= ctx.config.remote_ports_per_tile() {
                    core.stats.stall_structural += 1;
                    continue;
                }
                remote_issued += 1;
            }
        }
        core.stats.retired += 1;
        lane.progress = true;
        if ctx.trace_cap > 0 {
            lane.trace_out.push(
                ctx.trace_cap,
                TraceEntry {
                    cycle: now,
                    core: core_id,
                    pc,
                    instr,
                },
            );
        }
        match exec::issue(instr, pc, &mut core.regs, index as u32) {
            Issue::Next { pc: next } => {
                if next != pc.wrapping_add(4) && ctx.params.taken_branch_penalty > 0 {
                    core.insert_bubble(ctx.params.taken_branch_penalty);
                    core.stats.stall_branch += ctx.params.taken_branch_penalty as u64;
                }
                core.pc = next;
            }
            Issue::Halt => {
                core.halt();
                if ctx.obs_on {
                    lane.halts.push((now, index as u32));
                }
            }
            Issue::Mem { req, next_pc } => {
                core.pc = next_pc;
                let width = match req.kind {
                    MemAccessKind::Load { width, .. } | MemAccessKind::Store { width, .. } => width,
                    MemAccessKind::Amo { .. } => MemWidth::Word,
                };
                debug_assert_eq!(probe, Some(req.addr), "the probe is the issued address");
                let located = region.expect("a memory instruction has a probe address");
                let region = match check_region(located, req.addr, width) {
                    Ok(region) => region,
                    Err(e) => {
                        lane.fail(stop_at, at, e.into());
                        break 'issue;
                    }
                };
                match region {
                    MemoryRegion::Spm(loc) => {
                        // The destination tile's F2F via carries every
                        // access to that tile's banks on the memory die.
                        let mut extra_req = 0u32;
                        match ctx.links.get(loc.tile.index()).copied().unwrap_or_default() {
                            LinkState::Healthy => {}
                            LinkState::Degraded(extra) => {
                                let note = FaultNote::Retry {
                                    tile: loc.tile,
                                    extra,
                                };
                                lane.fault(ctx, at, note);
                                core.insert_bubble(extra);
                                core.stats.stall_fault_retry += extra as u64;
                                extra_req = extra;
                            }
                            LinkState::Dead => match ctx.dead_links {
                                DeadLinkPolicy::Error => {
                                    let error = SimError::LinkDead { tile: loc.tile };
                                    lane.fail(stop_at, at, error);
                                    break 'issue;
                                }
                                DeadLinkPolicy::BlackHole => {
                                    // The request vanishes into the open
                                    // via; the scoreboard entry is pinned
                                    // forever.
                                    let note = FaultNote::BlackHole {
                                        tile: loc.tile,
                                        core: index as u32,
                                    };
                                    lane.fault(ctx, at, note);
                                    core.mark_pending(req.kind.response_reg());
                                    continue;
                                }
                            },
                        }
                        let route = ctx.topo.route(tile, loc.tile);
                        core.stats.record_access(route.class, route.network);
                        core.mark_pending(req.kind.response_reg());
                        let (req_lat, resp_lat) = latency_split(&ctx.params.latency, route.class);
                        lane.push_out.push((
                            loc.tile.0,
                            shard.tile,
                            loc.bank.0,
                            PendingAccess {
                                arrival: now + (req_lat + extra_req) as u64,
                                core: index as u32,
                                loc,
                                kind: req.kind,
                                resp_latency: resp_lat,
                                addr: req.addr,
                            },
                        ));
                    }
                    MemoryRegion::External(_) => {
                        // Word-granular access over the off-chip port,
                        // serialized (and data-resolved) at the boundary.
                        core.mark_pending(req.kind.response_reg());
                        lane.externals.push((
                            now,
                            shard.tile,
                            ExternalIntent {
                                core: index as u32,
                                addr: req.addr,
                                kind: req.kind,
                                width,
                            },
                        ));
                        stop_at.fetch_min(now + ctx.ext_hold, Ordering::AcqRel);
                    }
                    MemoryRegion::Unmapped => unreachable!("decode rejects unmapped"),
                }
            }
        }
    }
}

/// Hands tick `t`'s outbound traffic to its destination tiles. One worker
/// (no mailboxes) owns every tile and pushes straight into the
/// destination queue: the lane buffers are in source-tile order already,
/// and `arrival`/`due` keep an entry from being served before tick
/// `t + 1` either way. Several workers publish into the `t + 1` inboxes.
fn route(lane: &mut WorkerLane, shards: &mut [TileShard<'_>], inboxes: &[[InboxSlot; 2]], t: u64) {
    if inboxes.is_empty() {
        for (dest, _, bank, access) in lane.push_out.drain(..) {
            shards[dest as usize].banks.push(bank as usize, access);
        }
        for (dest, _, core, response) in lane.resp_out.drain(..) {
            shards[dest as usize].responses[core as usize].push(response);
        }
        return;
    }
    let parity = ((t + 1) & 1) as usize;
    lane.prof.mailbox_pushes += lane.push_out.len() as u64;
    publish(&mut lane.push_out, inboxes, parity, |inbox| {
        &mut inbox.pushes
    });
    lane.prof.mailbox_responses += lane.resp_out.len() as u64;
    publish(&mut lane.resp_out, inboxes, parity, |inbox| {
        &mut inbox.responses
    });
}

/// Moves `out` into the `list` of each entry's destination inbox, taking
/// each inbox lock once (the stable sort keeps a source's entries in
/// order).
fn publish<T>(
    out: &mut Vec<Outbound<T>>,
    inboxes: &[[InboxSlot; 2]],
    parity: usize,
    list: impl Fn(&mut Inbox) -> &mut Vec<(u32, u32, T)>,
) {
    out.sort_by_key(|&(dest, ..)| dest);
    let mut entries = out.drain(..).peekable();
    while let Some((dest, src, index, payload)) = entries.next() {
        let slot = &inboxes[dest as usize][parity];
        let mut inbox = slot.data.lock().expect("inbox lock");
        let list = list(&mut inbox);
        list.push((src, index, payload));
        while let Some((_, src, index, payload)) = entries.next_if(|e| e.0 == dest) {
            list.push((src, index, payload));
        }
        slot.nonempty.store(true, Ordering::Release);
    }
}

/// Waits until every peer's progress counter has reached `goal`, charging
/// the time to the lane's self-profile.
fn await_peers(
    ctx: &WorkerCtx<'_>,
    progress: &[PaddedCounter],
    me: usize,
    goal: u64,
    lane: &mut WorkerLane,
) {
    for (w, counter) in progress.iter().enumerate() {
        if w == me || counter.0.load(Ordering::Acquire) >= goal {
            continue;
        }
        // The clock only starts once a wait actually begins, so the
        // in-lockstep fast path stays timer-free.
        let wait_start = Instant::now();
        let mut spins = 0u32;
        while counter.0.load(Ordering::Acquire) < goal {
            spins += 1;
            if spins < ctx.spin_budget {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        lane.prof.wait_ns += wait_start.elapsed().as_nanos() as u64;
    }
}

/// On a sampled tick, adds the time since `clock` was last read to `tally`
/// and restarts it.
#[inline]
fn lap(clock: &mut Option<Instant>, tally: &mut u64) {
    if let Some(last) = clock {
        let now = Instant::now();
        *tally += (now - *last).as_nanos() as u64;
        *last = now;
    }
}

/// One worker's quantum: lockstepped ticks from `start` until the shared
/// stop tick, over its owned shards. `inboxes` is empty when this worker
/// is the only one.
#[allow(clippy::too_many_arguments)]
fn quantum_worker(
    ctx: &WorkerCtx<'_>,
    progress: &[PaddedCounter],
    stop_at: &AtomicU64,
    inboxes: &[[InboxSlot; 2]],
    shards: &mut [TileShard<'_>],
    lane: &mut WorkerLane,
    me: usize,
    start: u64,
) {
    lane.inert_since = u64::MAX;
    let lane_start = Instant::now();
    let mut t = start;
    loop {
        // Lockstep: proceed once every peer has finished tick `t - 1`.
        // A peer publishes *after* its sends and stop-tick updates, so
        // passing this gate also makes those visible.
        await_peers(ctx, progress, me, 2 * t, lane);
        if t >= stop_at.load(Ordering::Acquire) {
            break;
        }
        // Apply last tick's cross-tile traffic in canonical source order.
        if !inboxes.is_empty() {
            for shard in shards.iter_mut() {
                let slot = &inboxes[shard.tile as usize][(t & 1) as usize];
                if slot.nonempty.swap(false, Ordering::AcqRel) {
                    let mut inbox = slot.data.lock().expect("inbox lock");
                    inbox.drain_into(&mut shard.banks, shard.responses);
                }
            }
        }
        // On a sampled tick the clock is read around each phase.
        let mut clock = t.is_multiple_of(PHASE_SAMPLE_PERIOD).then(|| {
            lane.prof.phase_ticks += 1;
            Instant::now()
        });
        // Serve own banks, then run the local phase, tile-ascending.
        for shard in shards.iter_mut() {
            serve_phase(ctx, shard, lane, stop_at, t);
        }
        // A corrected read stalls the requesting core from this very tick
        // on, whichever tile it sits on. While masks are latent the tick
        // therefore has a second gate: stalls for other workers' cores
        // travel through the (already drained) inbox of this tick and
        // are applied once every peer has finished its bank service.
        if ctx.ecc.is_some() {
            let first = shards[0].tile as usize;
            for (core, cycles) in lane.stalls.drain(..) {
                let tile = core as usize / ctx.cores_per_tile;
                let local = core as usize % ctx.cores_per_tile;
                match tile.checked_sub(first).and_then(|i| shards.get_mut(i)) {
                    Some(shard) => shard.cores[local].stall_ecc(cycles),
                    None => inboxes[tile][(t & 1) as usize]
                        .data
                        .lock()
                        .expect("inbox lock")
                        .stalls
                        .push((local as u32, cycles)),
                }
            }
            if !inboxes.is_empty() {
                progress[me].0.store(2 * t + 1, Ordering::Release);
                await_peers(ctx, progress, me, 2 * t + 1, lane);
                for shard in shards.iter_mut() {
                    let slot = &inboxes[shard.tile as usize][(t & 1) as usize];
                    let mut inbox = slot.data.lock().expect("inbox lock");
                    for (local, cycles) in inbox.stalls.drain(..) {
                        shard.cores[local as usize].stall_ecc(cycles);
                    }
                }
            }
        }
        lap(&mut clock, &mut lane.prof.phase_ns[0]);
        let mut all_inert = true;
        for shard in shards.iter_mut() {
            local_phase(ctx, shard, lane, stop_at, t);
            all_inert &= shard.inert();
        }
        lap(&mut clock, &mut lane.prof.phase_ns[1]);
        // Record forward progress for the watchdog replay (the flag is
        // cheap to set unconditionally; the tick log only fills when a
        // watchdog is armed).
        let progressed = std::mem::take(&mut lane.progress);
        if ctx.watch && progressed {
            lane.progress_ticks.push(t);
        }
        route(lane, shards, inboxes, t);
        lap(&mut clock, &mut lane.prof.phase_ns[2]);
        if !all_inert {
            lane.inert_since = u64::MAX;
        } else if lane.inert_since == u64::MAX {
            lane.inert_since = t + 1;
        }
        progress[me].0.store(2 * (t + 1), Ordering::Release);
        t += 1;
    }
    lane.prof.total_ns += lane_start.elapsed().as_nanos() as u64;
}

/// Resolves one deferred off-chip access: books the port, moves the data,
/// and queues the response.
fn resolve_external(
    storage: &mut Storage,
    offchip: &mut OffchipPort,
    tick: u64,
    intent: &ExternalIntent,
    responses: &mut Vec<Response>,
) -> Result<(), SimError> {
    let done = offchip.schedule(tick, intent.width.bytes() as u64);
    let value = match intent.kind {
        MemAccessKind::Load { .. } => storage.read(intent.addr, intent.width)?,
        MemAccessKind::Store { value, .. } => {
            storage.write(intent.addr, intent.width, value)?;
            0
        }
        MemAccessKind::Amo { op, value, .. } => {
            let old = storage.read(intent.addr, MemWidth::Word)?;
            storage.write(intent.addr, MemWidth::Word, op.apply(old, value))?;
            old
        }
    };
    responses.push(Response {
        due: done,
        reg: intent.kind.response_reg(),
        value: sign_adjust(intent.kind, value),
    });
    Ok(())
}

/// Runs one quantum of at most `target - cycle` ticks on `workers`
/// workers: shards the cluster, drives the workers, then does the
/// boundary work. Returns `Ok(true)` when the cluster went quiescent.
fn quantum_round(cluster: &mut Cluster, target: u64, workers: usize) -> Result<bool, SimError> {
    let start = cluster.cycle;
    let num_tiles = cluster.config.num_tiles() as usize;
    cluster.quantum.ensure(num_tiles, workers);
    let obs_on = cluster.obs.is_some();
    // Observability counters are published as quantum-granular deltas of
    // the per-bank / per-core totals the shards already maintain, so the
    // hot path needs no extra bookkeeping for them.
    let counter_base = obs_on.then(|| {
        (
            cluster.banks.iter().map(|b| b.stats.conflicts).sum::<u64>(),
            cluster
                .cores
                .iter()
                .map(|c| c.stats.icache_misses)
                .sum::<u64>(),
        )
    });
    let stop_at = AtomicU64::new(target);
    let round_start = Instant::now();
    {
        let Cluster {
            config,
            topo,
            params,
            storage,
            program,
            records,
            cores,
            icaches,
            banks,
            responses,
            quantum,
            faults,
            obs,
            trace,
            watchdog,
            flight_enabled,
            ..
        } = &mut *cluster;
        let faults = faults.as_ref();
        let cpt = config.cores_per_tile() as usize;
        let bpt = config.banks_per_tile() as usize;
        let bank_words = config.bank_words() as usize;
        let spares_per_tile = storage.spares_per_tile() as usize;
        let (spm, spare, map) = storage.split_banks();
        let ctx = WorkerCtx {
            config,
            topo,
            params,
            program,
            records,
            map,
            cores_per_tile: cpt,
            banks_per_tile: bpt,
            bank_words,
            ext_hold: (params.offchip_latency as u64).max(1),
            links: faults.map_or(&[][..], FaultController::links),
            dead_links: faults
                .map(FaultController::dead_link_policy)
                .unwrap_or_default(),
            ecc: faults
                .filter(|faults| faults.has_pending_errors())
                .map(FaultController::ecc_state),
            obs_on,
            flight_cap: match obs {
                Some(hooks) if *flight_enabled => hooks.obs.flight.capacity(),
                _ => 0,
            },
            trace_cap: trace.as_ref().map_or(0, Trace::capacity),
            watch: watchdog.is_some(),
            spin_budget: if workers > 1 && workers > host_parallelism() {
                0
            } else {
                4096
            },
        };
        let QuantumArena {
            inboxes,
            progress,
            lanes,
            live,
            earliest,
            ..
        } = quantum;
        let mut spare_chunks = spare.chunks_mut((spares_per_tile * bank_words).max(1));
        let mut shards: Vec<TileShard<'_>> = cores
            .chunks_mut(cpt)
            .zip(responses.chunks_mut(cpt))
            .zip(icaches.iter_mut())
            .zip(tile_banks(banks, live, earliest, bpt))
            .zip(spm.chunks_mut(bpt * bank_words))
            .enumerate()
            .map(
                |(tile, ((((cores, responses), icache), banks), spm))| TileShard {
                    tile: tile as u32,
                    cores,
                    responses,
                    icache,
                    banks,
                    spm,
                    spare: spare_chunks.next().unwrap_or_default(),
                },
            )
            .collect();
        let progress = &progress[..workers];
        for counter in progress {
            counter.0.store(2 * start, Ordering::Relaxed);
        }
        let inboxes: &[[InboxSlot; 2]] = if workers > 1 { inboxes } else { &[] };
        // Contiguous shard ranges, one per worker; lane 0 runs on the
        // calling thread.
        let chunk = num_tiles / workers;
        let rem = num_tiles % workers;
        let (ctx, stop_at) = (&ctx, &stop_at);
        std::thread::scope(|scope| {
            let mut rest = shards.as_mut_slice();
            let mut lane_zero = None;
            for (w, lane) in lanes.iter_mut().take(workers).enumerate() {
                let (mine, tail) = rest.split_at_mut(chunk + usize::from(w < rem));
                rest = tail;
                if w == 0 {
                    lane_zero = Some((mine, lane));
                } else {
                    scope.spawn(move || {
                        quantum_worker(ctx, progress, stop_at, inboxes, mine, lane, w, start);
                    });
                }
            }
            let (mine, lane) = lane_zero.expect("worker 0");
            quantum_worker(ctx, progress, stop_at, inboxes, mine, lane, 0, start);
        });
    }
    let round_ns = round_start.elapsed().as_nanos() as u64;
    let reached = stop_at.into_inner();
    let boundary_start = Instant::now();
    let result = quantum_boundary(cluster, reached, workers, counter_base);
    let boundary_ns = boundary_start.elapsed().as_nanos() as u64;
    debug_assert!(
        cluster
            .quantum
            .live_is_current(&cluster.banks, cluster.config.banks_per_tile() as usize),
        "a bank's live bit and earliest arrival must follow its queue"
    );
    crate::profile::record_quantum(
        reached.saturating_sub(start),
        round_ns,
        boundary_ns,
        cluster.quantum.ext_merged_last,
        cluster
            .quantum
            .lanes
            .iter_mut()
            .take(workers)
            .map(|lane| std::mem::take(&mut lane.prof)),
    );
    result
}

/// The boundary work after every worker has stopped at `reached`:
/// mailbox flush, observation-lane and fault-outcome replay (trace,
/// flight, spans, counters, report — all in `(tick, tile)` order),
/// off-chip resolution, error selection, watchdog replay, quiescence
/// rollback, and time-series epoch close.
fn quantum_boundary(
    cluster: &mut Cluster,
    reached: u64,
    workers: usize,
    counter_base: Option<(u64, u64)>,
) -> Result<bool, SimError> {
    let bpt = cluster.config.banks_per_tile() as usize;
    let cpt = cluster.config.cores_per_tile() as usize;
    // The winning error: the first one a tick-by-tick, tile-by-tile sweep
    // would have hit (see `Phase`).
    let mut winner: Option<(At, SimError)> = None;
    let mut note = |at: At, error: SimError| {
        if winner
            .as_ref()
            .is_none_or(|(best, _)| tick_key(at) < tick_key(*best))
        {
            winner = Some((at, error));
        }
    };
    {
        let Cluster {
            banks,
            responses,
            storage,
            offchip,
            quantum,
            trace,
            obs,
            faults,
            ..
        } = &mut *cluster;
        // Flush undelivered mailbox traffic (sent on the final tick) into
        // the real queues, in the same canonical order a running tick
        // would apply it.
        let tiles = tile_banks(banks, &mut quantum.live, &mut quantum.earliest, bpt)
            .zip(responses.chunks_mut(cpt));
        for (pair, (mut banks, responses)) in quantum.inboxes.iter_mut().zip(tiles) {
            for slot in pair.iter_mut() {
                slot.nonempty.store(false, Ordering::Relaxed);
                slot.data
                    .get_mut()
                    .expect("inbox lock")
                    .drain_into(&mut banks, responses);
            }
        }
        // Merge the per-worker logs, counts and observation lanes.
        let mut ext = std::mem::take(&mut quantum.ext_merge);
        let mut trace_merge = std::mem::take(&mut quantum.trace_merge);
        let mut event_merge = std::mem::take(&mut quantum.event_merge);
        let mut halt_merge = std::mem::take(&mut quantum.halt_merge);
        let mut progress_merge = std::mem::take(&mut quantum.progress_merge);
        let (mut trace_dropped, mut events_dropped) = (0, 0);
        for lane in quantum.lanes.iter_mut().take(workers) {
            ext.append(&mut lane.externals);
            storage.add_touches(std::mem::take(&mut lane.touches));
            trace_dropped += lane.trace_out.drain_into(&mut trace_merge);
            events_dropped += lane.events.drain_into(&mut event_merge);
            halt_merge.append(&mut lane.halts);
            progress_merge.append(&mut lane.progress_ticks);
            if let Some((at, error)) = lane.error.take() {
                note(at, error);
            }
            let tally = std::mem::take(&mut lane.faults);
            if let Some(faults) = faults.as_mut() {
                faults.absorb(tally);
                for loc in lane.ecc_cleared.drain(..) {
                    faults.ecc_clear(loc);
                }
            }
            if let Some(hooks) = obs.as_ref() {
                hooks.fault_retries.add(tally.retried_accesses);
                hooks.ecc_corrected.add(tally.ecc_corrected);
            }
        }
        // Resolve deferred off-chip accesses in (tick, tile) order.
        ext.sort_by_key(|&(tick, tile, _)| (tick, tile));
        for (tick, tile, intent) in ext.iter() {
            if let Err(e) = resolve_external(
                storage,
                offchip,
                *tick,
                intent,
                &mut responses[intent.core as usize],
            ) {
                note((*tick, *tile, Phase::Offchip), e);
            }
        }
        quantum.ext_merged_last = ext.len() as u64;
        ext.clear();
        quantum.ext_merge = ext;
        // Replay the observation lanes. Lanes own disjoint contiguous
        // tile ranges and record tick-ascending, so a stable sort on the
        // tick key reconstructs the global order exactly; within one
        // (tick, tile) a single lane's intra-tile order (cores / banks
        // ascending) is preserved. An error tick replays fully before
        // the error is reported.
        trace_merge.sort_by_key(|e| (e.cycle, e.core.index()));
        if let Some(trace) = trace.as_mut() {
            trace.add_dropped(trace_dropped);
            for entry in trace_merge.drain(..) {
                trace.record(entry);
            }
        }
        quantum.trace_merge = trace_merge;
        event_merge.sort_by_key(|e| tick_key(e.at));
        if let Some(hooks) = obs.as_ref() {
            hooks.obs.flight.add_dropped(events_dropped);
            for e in event_merge.drain(..) {
                match e.note {
                    FlightNote::Mem { core, loc, kind } => hooks.obs.flight.record(
                        e.at.0,
                        "mem",
                        Some(core),
                        format!(
                            "{kind} served at tile {} bank {} word {}",
                            loc.tile.0, loc.bank.0, loc.word
                        ),
                    ),
                    FlightNote::Fault(note) => {
                        if let Some(faults) = faults.as_ref() {
                            faults.emit(e.at.0, note);
                        }
                    }
                }
            }
            halt_merge.sort_unstable();
            for (tick, core) in halt_merge.drain(..) {
                hooks
                    .obs
                    .spans
                    .begin(hooks.core_tracks[core as usize], "wfi", tick);
            }
        }
        quantum.event_merge = event_merge;
        quantum.halt_merge = halt_merge;
        progress_merge.sort_unstable();
        progress_merge.dedup();
        quantum.progress_merge = progress_merge;
    }
    // Quantum-granular counter deltas (an error tick's contribution is
    // already in the per-bank / per-core stats, so the delta covers it
    // too).
    if let Some((conflicts0, icache0)) = counter_base {
        if let Some(hooks) = &cluster.obs {
            let conflicts1 = cluster.banks.iter().map(|b| b.stats.conflicts).sum::<u64>();
            let icache1 = cluster
                .cores
                .iter()
                .map(|c| c.stats.icache_misses)
                .sum::<u64>();
            hooks.bank_conflicts.add(conflicts1 - conflicts0);
            hooks.icache_misses.add(icache1 - icache0);
        }
    }
    if let Some(((tick, ..), error)) = winner {
        // An error is reported with the clock still on the tick that
        // raised it, and watchdog progress noted only for the ticks
        // before it.
        if let Some(wd) = cluster.watchdog.as_mut() {
            if let Some(&lp) = cluster
                .quantum
                .progress_merge
                .iter()
                .take_while(|&&t| t < tick)
                .last()
            {
                wd.note_progress(lp);
            }
        }
        cluster.quantum.progress_merge.clear();
        cluster.cycle = tick;
        return Err(error);
    }
    cluster.cycle = reached;
    let mut quiescent = false;
    if cluster.quiescent() {
        // The workers overshot the first quiescent cycle by up to a
        // quantum of trivial all-halted ticks; roll those back so a run
        // stops the moment quiescence holds. Inert ticks record no
        // progress and no events, so the observation lanes need no
        // rollback.
        quiescent = true;
        let t_q = cluster.quantum.lanes[..workers]
            .iter()
            .map(|lane| lane.inert_since)
            .max()
            .unwrap_or(u64::MAX);
        if t_q < reached {
            let overshoot = reached - t_q;
            for core in &mut cluster.cores {
                core.stats.halted_cycles -= overshoot;
            }
            cluster.cycle = t_q;
        }
    }
    // Watchdog replay. `run_quantum` caps the quantum target at
    // `last_progress + threshold + 1`, so for every tick before the final
    // one the no-progress window is provably below the threshold — a
    // deadlock can only fire at the quantum's last tick, where the
    // reassembled state is exact.
    let mut deadlock = None;
    if let Some(wd) = cluster.watchdog.as_mut() {
        let lp = cluster.quantum.progress_merge.last().copied();
        if let Some(lp) = lp {
            wd.note_progress(lp);
        }
        cluster.quantum.progress_merge.clear();
        if !quiescent {
            let last = reached - 1;
            if lp != Some(last) && wd.expired(last) {
                deadlock = Some(wd.stalled_for(last));
            }
        }
    }
    if let Some(stalled_for) = deadlock {
        // The clock stays on the expiring tick, the flight ring gets the
        // expiry event after that tick's other events, and diagnostics
        // see the replayed trace.
        let last = reached - 1;
        cluster.cycle = last;
        if cluster.flight_enabled {
            if let Some(hooks) = &cluster.obs {
                hooks.obs.flight.record(
                    last,
                    "watchdog",
                    None,
                    format!("expired: no forward progress for {stalled_for} cycles"),
                );
            }
        }
        return Err(SimError::Deadlock {
            stalled_for,
            diagnostics: cluster.core_diagnostics(),
        });
    }
    // Close a sampling epoch if one came due. `run_quantum` also caps the
    // quantum target at `sampler.next_at`, so the boundary lands exactly
    // on the sampling cycle, with fully reassembled state (externals
    // resolved, mailboxes flushed).
    if cluster
        .sampler
        .as_ref()
        .is_some_and(|sampler| cluster.cycle >= sampler.next_at)
    {
        let now = cluster.cycle;
        let inputs = cluster.sample_inputs(now);
        if let Some(sampler) = &cluster.sampler {
            cluster.push_samples(sampler, now, &inputs);
        }
        if let Some(sampler) = cluster.sampler.as_mut() {
            sampler.rebaseline(inputs, now);
        }
    }
    Ok(quiescent)
}

/// Applies the timed faults due at the current cycle: bit flips corrupt
/// the stored word (and arm the ECC mask), hangs latch cores up. Runs
/// between quanta — the plan is known up front, so [`run_quantum`] ends a
/// quantum on the cycle the next fault is due.
fn apply_due_faults(cluster: &mut Cluster) -> Result<(), SimError> {
    let Some(faults) = cluster.faults.as_mut() else {
        return Ok(());
    };
    for fault in faults.take_due(cluster.cycle) {
        match fault {
            TimedFault::Flip { loc, mask } => {
                // A flip aimed at a remapped word's logical home still
                // lands: the storage layer resolves through the remap, so
                // the spare takes it. One outside the geometry is inert.
                if let Ok(word) = cluster.storage.read_loc(loc) {
                    cluster.storage.write_loc(loc, word ^ mask)?;
                    faults.note_flip(loc, mask);
                }
            }
            TimedFault::Hang { core } => {
                if let Some(core) = cluster.cores.get_mut(core as usize) {
                    core.hang();
                }
            }
        }
    }
    Ok(())
}

/// Advances the cluster by exactly one cycle: a one-tick quantum on one
/// shard.
pub(crate) fn step(cluster: &mut Cluster) -> Result<(), SimError> {
    apply_due_faults(cluster)?;
    if cluster.program.is_empty() {
        return Err(SimError::NoProgram);
    }
    quantum_round(cluster, cluster.cycle + 1, 1).map(drop)
}

/// Runs the cluster until every core halts, on `workers` workers (1
/// included — the lockstep and mailboxes degenerate to a plain loop),
/// with results bit-identical at every worker count.
pub(crate) fn run_quantum(
    cluster: &mut Cluster,
    max_cycles: u64,
    workers: usize,
) -> Result<u64, SimError> {
    let deadline = cluster.cycle.saturating_add(max_cycles);
    loop {
        if cluster.quiescent() {
            return Ok(cluster.cycle);
        }
        if cluster.cycle >= deadline {
            return Err(SimError::Timeout { cycles: max_cycles });
        }
        apply_due_faults(cluster)?;
        if cluster.program.is_empty() {
            return Err(SimError::NoProgram);
        }
        let mut target = deadline.min(cluster.cycle + QUANTUM_TICKS);
        if let Some(sampler) = &cluster.sampler {
            // Stop exactly on the sampling cycle: the boundary then
            // closes the epoch against exact state.
            target = target.min(sampler.next_at.max(cluster.cycle + 1));
        }
        if let Some(wd) = &cluster.watchdog {
            // Stop one past the earliest possible expiry tick: any
            // progress inside the quantum pushes expiry further out, so
            // a deadlock is confined to the quantum's final tick (where
            // boundary state is exact).
            let expiry = wd.last_progress().saturating_add(wd.threshold());
            target = target.min(expiry.max(cluster.cycle).saturating_add(1));
        }
        if let Some(&(due, _)) = cluster
            .faults
            .as_ref()
            .and_then(|faults| faults.remaining_timed().first())
        {
            // Stop on the cycle the next timed fault is due (everything
            // due by now was just applied, so `due > cycle`).
            target = target.min(due);
        }
        if quantum_round(cluster, target, workers)? {
            return Ok(cluster.cycle);
        }
    }
}
