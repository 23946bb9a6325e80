//! The execution engine: one cycle loop, run on the calling thread.
//!
//! A [`Cluster`](crate::Cluster) owns two things: the [`Machine`] the
//! loop simulates and the [`Attachments`] the host arms on it. [`run`]
//! ticks until every core halts and [`step`] is one tick of the same loop;
//! both take `&mut Machine` and `&mut Attachments`, and a tick's view
//! ([`Tick`]) is those two borrows. A tick ([`tick`]) applies the faults
//! due, serves every tile's banks ([`Tick::serve`]), runs every tile's
//! local phase — response delivery, then issue ([`Tick::local`]) — checks
//! the watchdog, advances the clock and closes a sampling epoch if one is
//! due. Everything a tick produces goes straight to where it belongs, in
//! the order the sweep meets it: requests into their bank queue,
//! responses into their core's queue, off-chip accesses through the port,
//! and trace entries, flight events, spans, counters and fault outcomes
//! into their recorders. DESIGN.md § "Execution engine" is the reference
//! for the tick and its error ordering; the comments here cover what the
//! code alone does not show.

use std::time::Instant;

use mempool_arch::{ClusterConfig, GlobalCoreId, MemoryRegion, TileId, Topology};
use mempool_fault::{DeadLinkPolicy, FaultController, FaultNote, LinkState, TimedFault, Watchdog};
use mempool_isa::exec::{self, Issue, MemAccessKind, MemWidth};
use mempool_isa::Program;
use mempool_obs::{Deferred, FlightRecorder};

use crate::cluster::{
    latency_split, sign_adjust, Bank, ClusterObs, PendingAccess, Response, Sampler, SimError,
};
use crate::core::{Bubble, Core, IssueRecord, Stall};
use crate::icache::ICache;
use crate::memory::{check_region, Storage};
use crate::offchip::OffchipPort;
use crate::params::{
    SimParams, ECC_CORRECTION_PENALTY, ICACHE_MISS_PENALTY, MAX_OUTSTANDING, TAKEN_BRANCH_PENALTY,
};
use crate::profile::{CallTally, PHASE_SAMPLE_PERIOD};
use crate::trace::{Trace, TraceEntry};

/// The live sets: per bank, one bit set exactly while its queue holds a
/// request (`banks_per_tile.div_ceil(64)` words per tile) and the earliest
/// arrival among its queued requests; per core, the earliest due among
/// its undelivered responses (`u64::MAX` for an empty queue). State
/// derived from the queues so that bank service visits only the banks
/// that have work and delivery only the cores that have a response due:
/// kept current by every push ([`Self::push`] and the two places a
/// response is queued), every service and every delivery, never
/// serialized, and built ([`Self::of`]) with the [`Machine`] that owns
/// them.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct LiveSets {
    banks_per_tile: usize,
    live: Vec<u64>,
    earliest: Vec<u64>,
    due: Vec<u64>,
}

impl LiveSets {
    /// The live sets `banks` and `responses` imply, by their definition:
    /// for a new and for a restored machine ([`Machine::new`]), and for
    /// the debug check after every engine call.
    pub(crate) fn of(banks: &[Bank], responses: &[Vec<Response>], banks_per_tile: usize) -> Self {
        let words = banks_per_tile.div_ceil(64);
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
        let due = responses
            .iter()
            .map(|queue| queue.iter().map(|r| r.due).min().unwrap_or(u64::MAX))
            .collect();
        LiveSets {
            banks_per_tile,
            live,
            earliest,
            due,
        }
    }

    /// `tile`'s words of live bits.
    #[inline]
    fn words(&self, tile: usize) -> &[u64] {
        let words = self.banks_per_tile.div_ceil(64);
        &self.live[tile * words..(tile + 1) * words]
    }

    /// The word and bit of bank `local` of `tile` in the live bits.
    #[inline]
    fn bit(&self, tile: usize, local: usize) -> (usize, u64) {
        let words = self.banks_per_tile.div_ceil(64);
        (tile * words + local / 64, 1 << (local % 64))
    }

    /// Queues `access` at bank `local` of `tile`: the only way into a
    /// queue ([`Tick::serve`] is the only way out).
    #[inline]
    fn push(&mut self, banks: &mut [Bank], tile: usize, local: usize, access: PendingAccess) {
        let (word, bit) = self.bit(tile, local);
        self.live[word] |= bit;
        let index = tile * self.banks_per_tile + local;
        self.earliest[index] = self.earliest[index].min(access.arrival);
        banks[index].queue.push(access);
    }
}

/// The state the cycle loop simulates: everything a fault-free,
/// unobserved run's [`ClusterStats::digest`](crate::ClusterStats::digest)
/// and the checkpoint's machine sections depend on. The rule: a field is
/// the machine's if such a run reads it; what the host arms is an
/// [`Attachments`] field.
#[derive(Debug)]
pub(crate) struct Machine {
    pub(crate) config: ClusterConfig,
    pub(crate) topo: Topology,
    pub(crate) params: SimParams,
    pub(crate) storage: Storage,
    pub(crate) program: Program,
    /// One issue record per instruction of `program`, in program order.
    pub(crate) records: Vec<IssueRecord>,
    pub(crate) cores: Vec<Core>,
    pub(crate) icaches: Vec<ICache>,
    pub(crate) banks: Vec<Bank>,
    pub(crate) responses: Vec<Vec<Response>>,
    /// Derived from `banks` and `responses`, reused across ticks and runs.
    pub(crate) live: LiveSets,
    pub(crate) offchip: OffchipPort,
    pub(crate) cycle: u64,
    pub(crate) dma_bytes: u64,
    pub(crate) dma_cycles: u64,
}

impl Machine {
    /// The machine of `config` and `params` that runs `program` from
    /// `storage`, `cores` and the queues `banks` and `responses`, with cold
    /// I$s, an idle off-chip port and the clock at 0. The one constructor
    /// of a new and of a restored cluster: the topology, the issue records
    /// and the live sets are derived here, and nowhere else.
    pub(crate) fn new(
        config: ClusterConfig,
        params: SimParams,
        storage: Storage,
        program: Program,
        cores: Vec<Core>,
        banks: Vec<Bank>,
        responses: Vec<Vec<Response>>,
    ) -> Self {
        let (bytes, line, ways) = (
            ClusterConfig::ICACHE_BYTES_PER_TILE,
            params.icache_line_words,
            params.icache_ways,
        );
        let mut machine = Machine {
            topo: Topology::new(config.clone()),
            icaches: (0..config.num_tiles())
                .map(|_| ICache::with_ways(bytes, line, ways))
                .collect(),
            live: LiveSets::of(&banks, &responses, config.banks_per_tile() as usize),
            offchip: OffchipPort::new(params.offchip_bytes_per_cycle, params.offchip_latency),
            config,
            params,
            storage,
            program: Program::default(),
            records: Vec::new(),
            cores,
            banks,
            responses,
            cycle: 0,
            dma_bytes: 0,
            dma_cycles: 0,
        };
        machine.install_program(program);
        machine
    }

    /// Installs `program`'s instructions and decodes their issue records;
    /// the only place either field is written, so the two never disagree.
    /// The assembler's labels stay behind: no tick reads them and no
    /// checkpoint carries them.
    pub(crate) fn install_program(&mut self, program: Program) {
        let instrs = program.instrs();
        self.records = instrs.iter().map(|&i| IssueRecord::decode(i)).collect();
        self.program = Program::new(instrs.to_vec());
    }

    /// Whether the machine is quiescent: every tile is inert.
    pub(crate) fn quiescent(&self) -> bool {
        (0..self.config.num_tiles() as usize).all(|tile| self.inert(tile))
    }

    /// Whether `tile` is inert — every core halted with nothing
    /// outstanding, no response and no request queued. A bank's live bit
    /// is clear exactly when its queue is empty, so no queue is scanned.
    fn inert(&self, tile: usize) -> bool {
        let cores_per_tile = self.config.cores_per_tile() as usize;
        let cores = tile * cores_per_tile..(tile + 1) * cores_per_tile;
        self.cores[cores.clone()]
            .iter()
            .all(|c| c.halted() && c.outstanding() == 0)
            && self.responses[cores].iter().all(Vec::is_empty)
            && self.live.words(tile).iter().all(|&bits| bits == 0)
    }
}

/// What the host arms on a [`Machine`]: the obs hooks with their flight
/// ring, the instruction trace, the time-series sampler, the fault
/// controller and the watchdog. A fault-free, unobserved run has none.
#[derive(Debug, Default)]
pub(crate) struct Attachments {
    /// Armed by `Cluster::attach_obs` (and its ring by `enable_flight`).
    pub(crate) obs: Option<ClusterObs>,
    /// Armed by `Cluster::enable_trace`.
    pub(crate) trace: Option<Trace>,
    /// Per-epoch sampling state, armed by `Cluster::enable_timeseries`.
    pub(crate) sampler: Option<Sampler>,
    /// Injected-fault state, armed by `Cluster::inject_faults`.
    pub(crate) faults: Option<FaultController>,
    /// Forward-progress watchdog, armed by `Cluster::set_watchdog`.
    pub(crate) watchdog: Option<Watchdog>,
}

impl Attachments {
    /// The flight ring to record into, while flight recording is on.
    pub(crate) fn flight(&self) -> Option<&FlightRecorder> {
        self.obs.as_ref()?.flight.as_ref()
    }

    /// Counts a fault outcome into the controller's report, and into the
    /// obs counters and flight ring when they are attached.
    fn note_fault(&mut self, now: u64, note: FaultNote) {
        if let Some(faults) = self.faults.as_mut() {
            faults.count(note);
        }
        let Some(hooks) = &self.obs else {
            return;
        };
        match note {
            FaultNote::Retry { .. } => hooks.fault_retries.inc(),
            FaultNote::Corrected { .. } => hooks.ecc_corrected.inc(),
            FaultNote::BlackHole { .. } | FaultNote::Uncorrectable { .. } => {}
        }
        if let Some(flight) = &hooks.flight {
            let (category, core, message) = note.flight_event();
            flight.record_deferred(now, category, core, message);
        }
    }

    /// Applies the timed faults due at `m`'s clock: bit flips land in
    /// storage ([`Storage::flip`]), hangs latch cores up. Each is recorded
    /// in the flight ring while flight recording is on.
    fn apply_due_faults(&mut self, m: &mut Machine) {
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let flight = self.obs.as_ref().and_then(|hooks| hooks.flight.as_ref());
        for fault in faults.take_due(m.cycle) {
            if let Some(flight) = flight {
                let (category, core, message) = fault.flight_event();
                flight.record_deferred(m.cycle, category, core, message);
            }
            match fault {
                TimedFault::Flip { loc, mask } => m.storage.flip(loc, mask),
                TimedFault::Hang { core } => {
                    if let Some(core) = m.cores.get_mut(core as usize) {
                        core.hang();
                    }
                }
            }
        }
    }

    /// The watchdog's error for the tick `m`'s clock is on, which expired
    /// it after `stalled_for` cycles: the flight ring gets the expiry after
    /// that tick's other events.
    fn deadlock(&self, m: &Machine, stalled_for: u64) -> SimError {
        if let Some(flight) = self.flight() {
            flight.record(
                m.cycle,
                "watchdog",
                None,
                format!("expired: no forward progress for {stalled_for} cycles"),
            );
        }
        SimError::Deadlock {
            stalled_for,
            diagnostics: m.core_diagnostics(self.trace.as_ref()),
        }
    }
}

/// The first bank at or after `from` whose live bit is set in a tile's
/// words `live`.
#[inline]
fn next_live(live: &[u64], from: usize) -> Option<usize> {
    let mut word = from / 64;
    let mut bits = live.get(word)? & (!0 << (from % 64));
    while bits == 0 {
        word += 1;
        bits = *live.get(word)?;
    }
    Some(word * 64 + bits.trailing_zeros() as usize)
}

/// One tick's view of the cluster: the machine and its attachments, two
/// borrows that both phases reach every field through with plain `&mut`
/// access.
struct Tick<'a> {
    m: &'a mut Machine,
    a: &'a mut Attachments,
    now: u64,
    /// The tick's first error, in sweep order.
    error: Option<SimError>,
    /// Whether some core received a response or retired an instruction.
    progress: bool,
}

impl Tick<'_> {
    /// Bank service of `tile`: every bank serves at most one request whose
    /// network arrival lies strictly in the past (earliest arrival wins;
    /// among ties, the lowest queue position as `swap_remove` leaves it,
    /// which is not push order), counting conflict cycles, and its response
    /// goes straight into the requesting core's queue. The storage decides
    /// what the access reads ([`Storage::serve`]); a correction stalls the
    /// core, and an uncorrectable read stops the tile's service for this
    /// tick.
    fn serve(&mut self, tile: usize) {
        let (now, m) = (self.now, &mut *self.m);
        let LiveSets {
            banks_per_tile: bpt,
            live,
            earliest,
            due: dues,
        } = &mut m.live;
        let (bpt, words) = (*bpt, bpt.div_ceil(64));
        let live = &mut live[tile * words..(tile + 1) * words];
        let earliest = &mut earliest[tile * bpt..(tile + 1) * bpt];
        let banks = &mut m.banks[tile * bpt..(tile + 1) * bpt];
        // Ascending over the banks that hold a request; the others have
        // nothing to serve and no queue depth to record.
        let mut next = 0;
        while let Some(local) = next_live(live, next) {
            next = local + 1;
            let bank = &mut banks[local];
            bank.stats.max_queue_depth = bank.stats.max_queue_depth.max(bank.queue.len() as u64);
            if earliest[local] >= now {
                continue;
            }
            // The earliest arrival lies in the past, so the request that
            // has it (the lowest queue position, among ties) is the one to
            // serve; `rest` becomes the queue's earliest arrival once it is
            // gone. `swap_remove` moves the last request into its slot.
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
            earliest[local] = rest;
            if bank.queue.is_empty() {
                live[local / 64] &= !(1 << (local % 64));
            }
            bank.stats.served += 1;
            if let (Some(hooks), true) = (&self.a.obs, contenders > 1) {
                hooks.bank_conflicts.add(contenders - 1);
            }
            let (loc, kind) = (access.loc, access.kind);
            debug_assert_eq!(loc.tile.index(), tile, "banks are tile-owned");
            if let Some(flight) = self.a.flight() {
                let message = Deferred {
                    render: |[kind, tile, bank, word]| {
                        let kind = ["load", "store", "amo"][kind as usize];
                        format!("{kind} served at tile {tile} bank {bank} word {word}")
                    },
                    args: [
                        match kind {
                            MemAccessKind::Load { .. } => 0,
                            MemAccessKind::Store { .. } => 1,
                            MemAccessKind::Amo { .. } => 2,
                        },
                        loc.tile.0,
                        loc.bank.0,
                        loc.word,
                    ],
                };
                flight.record_deferred(now, "mem", Some(access.core), message);
            }
            let (value, corrected) = match m.storage.serve(loc, access.addr, kind) {
                Ok(served) => served,
                Err(mask) => {
                    self.a
                        .note_fault(now, FaultNote::Uncorrectable { loc, mask });
                    self.error
                        .get_or_insert(SimError::EccUncorrectable { loc, mask });
                    return;
                }
            };
            // A corrected word stalls the requesting core from this very
            // tick on.
            let mut extra_resp = 0u32;
            if corrected {
                extra_resp = ECC_CORRECTION_PENALTY;
                m.cores[access.core as usize].stall_ecc(extra_resp);
                self.a.note_fault(now, FaultNote::Corrected { loc });
            }
            let due = now + u64::from(access.resp_latency + extra_resp);
            let core = access.core as usize;
            debug_assert!(
                due > now || core / m.config.cores_per_tile() as usize == tile,
                "a response to another tile is due after the tick that produced it"
            );
            // Into the core's response queue, keeping its earliest due.
            dues[core] = dues[core].min(due);
            m.responses[core].push(Response {
                due,
                reg: kind.response_reg(),
                value: sign_adjust(kind, value),
            });
        }
    }

    /// The local phase of `tile`: deliver the responses due to its cores,
    /// then issue at most one instruction per core, tile- then
    /// core-ascending — which is the order requests enter the bank queues.
    /// Returns whether the tile is inert afterwards.
    fn local(&mut self, tile: usize) -> bool {
        let (now, m) = (self.now, &mut *self.m);
        let cores_per_tile = m.config.cores_per_tile() as usize;
        let base = tile * cores_per_tile;
        let range = base..base + cores_per_tile;
        let cores = &mut m.cores[range.clone()];
        let icache = &mut m.icaches[tile];
        // Only a core with a response due has its queue swept.
        let queues = m.responses[range.clone()].iter_mut();
        let dues = m.live.due[range].iter_mut();
        for ((core, responses), due) in cores.iter_mut().zip(queues).zip(dues) {
            if *due > now {
                continue;
            }
            let (mut i, mut next) = (0, u64::MAX);
            while i < responses.len() {
                if responses[i].due <= now {
                    let r = responses.swap_remove(i);
                    core.complete(r.reg, r.value);
                    self.progress = true;
                } else {
                    next = next.min(responses[i].due);
                    i += 1;
                }
            }
            *due = next;
        }
        let tile_id = TileId(tile as u32);
        // Remote-port arbitration: accesses leaving the tile go through its
        // limited remote request ports (4 in MemPool); a tile whose ports
        // are taken this cycle stalls further remote issues.
        let mut remote_issued = 0u32;
        'issue: for (local, core) in cores.iter_mut().enumerate() {
            let index = base + local;
            let core_id = GlobalCoreId::new(index as u32);
            // A core latched up by an injected fault burns cycles forever.
            if core.hung() || core.halted() {
                core.stats.halted_cycles += 1;
                continue;
            }
            if core.consume_bubble() {
                continue;
            }
            let pc = core.pc;
            if !icache.access(pc) {
                core.insert_bubble(Bubble::ICache, ICACHE_MISS_PENALTY);
                core.stats.icache_misses += 1;
                if let Some(hooks) = &self.a.obs {
                    hooks.icache_misses.inc();
                }
                continue;
            }
            let Some(instr) = m.program.fetch(pc) else {
                self.error
                    .get_or_insert(SimError::PcOutOfRange { core: core_id, pc });
                break 'issue;
            };
            let record = m.records[(pc / 4) as usize];
            match core.check_record(record, MAX_OUTSTANDING) {
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
            // arbitration needs it before the instruction issues, the
            // access itself after (`exec::issue` takes the same address).
            let region =
                exec::mem_addr(instr, &core.regs).map(|addr| m.storage.map().locate(addr & !3));
            if let Some(MemoryRegion::Spm(loc)) = region {
                if loc.tile != tile_id {
                    if remote_issued >= ClusterConfig::REMOTE_PORTS_PER_TILE {
                        core.stats.stall_structural += 1;
                        continue;
                    }
                    remote_issued += 1;
                }
            }
            core.stats.retired += 1;
            self.progress = true;
            if let Some(trace) = self.a.trace.as_mut() {
                trace.record(TraceEntry {
                    cycle: now,
                    core: core_id,
                    pc,
                    instr,
                });
            }
            let req = match exec::issue(instr, pc, &mut core.regs, index as u32) {
                Issue::Next { pc: next } => {
                    if next != pc.wrapping_add(4) {
                        core.insert_bubble(Bubble::Branch, TAKEN_BRANCH_PENALTY);
                    }
                    core.pc = next;
                    continue;
                }
                Issue::Halt => {
                    core.halt();
                    if let Some(hooks) = &self.a.obs {
                        hooks.obs.spans.begin(hooks.core_tracks[index], "wfi", now);
                    }
                    continue;
                }
                Issue::Mem { req, next_pc } => {
                    core.pc = next_pc;
                    req
                }
            };
            let width = match req.kind {
                MemAccessKind::Load { width, .. } | MemAccessKind::Store { width, .. } => width,
                MemAccessKind::Amo { .. } => MemWidth::Word,
            };
            let located = region.expect("a memory instruction has an address");
            let reg = req.kind.response_reg();
            match check_region(located, req.addr, width) {
                Err(e) => {
                    self.error.get_or_insert(e.into());
                    break 'issue;
                }
                Ok(MemoryRegion::Spm(loc)) => {
                    // The destination tile's F2F via carries every access
                    // to that tile's banks on the memory die.
                    let (link, policy) =
                        self.a.faults.as_ref().map_or_else(Default::default, |f| {
                            let link = f.links().get(loc.tile.index()).copied();
                            (link.unwrap_or_default(), f.dead_link_policy())
                        });
                    let mut extra_req = 0u32;
                    match link {
                        LinkState::Healthy => {}
                        LinkState::Degraded(extra) => {
                            let note = FaultNote::Retry {
                                tile: loc.tile,
                                extra,
                            };
                            self.a.note_fault(now, note);
                            core.insert_bubble(Bubble::FaultRetry, extra);
                            extra_req = extra;
                        }
                        LinkState::Dead => match policy {
                            DeadLinkPolicy::Error => {
                                self.error
                                    .get_or_insert(SimError::LinkDead { tile: loc.tile });
                                break 'issue;
                            }
                            DeadLinkPolicy::BlackHole => {
                                // The request vanishes into the open via;
                                // the scoreboard entry is pinned forever.
                                let note = FaultNote::BlackHole {
                                    tile: loc.tile,
                                    core: index as u32,
                                };
                                self.a.note_fault(now, note);
                                core.mark_pending(reg);
                                continue;
                            }
                        },
                    }
                    let route = m.topo.route(tile_id, loc.tile);
                    core.stats.record_access(route.class, route.network);
                    core.mark_pending(reg);
                    let (req_lat, resp_latency) = latency_split(route.class);
                    let access = PendingAccess {
                        arrival: now + u64::from(req_lat + extra_req),
                        core: index as u32,
                        loc,
                        kind: req.kind,
                        resp_latency,
                        addr: req.addr,
                    };
                    let (dest, bank) = (loc.tile.index(), loc.bank.index());
                    m.live.push(&mut m.banks, dest, bank, access);
                }
                Ok(MemoryRegion::External(offset)) => {
                    // Word-granular access over the off-chip port, which
                    // serializes it behind what it already carries.
                    core.mark_pending(reg);
                    let value = m.storage.access_external(offset, req.addr, req.kind);
                    let due = m.offchip.schedule(now, u64::from(width.bytes()));
                    // Into the core's response queue, keeping its earliest due.
                    m.live.due[index] = m.live.due[index].min(due);
                    m.responses[index].push(Response {
                        due,
                        reg,
                        value: sign_adjust(req.kind, value),
                    });
                }
                Ok(MemoryRegion::Unmapped) => unreachable!("decode rejects unmapped"),
            }
        }
        m.inert(tile)
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

/// One cycle. Returns whether every tile ended it inert — the machine is
/// quiescent. A tick that raises an error still counts: the clock advances
/// past it (the cores the error stopped before they were stepped are the
/// ones whose accounting falls short of the clock), but its progress is
/// not noted for the watchdog.
fn tick(m: &mut Machine, a: &mut Attachments, prof: &mut CallTally) -> Result<bool, SimError> {
    a.apply_due_faults(m);
    if m.program.is_empty() {
        return Err(SimError::NoProgram);
    }
    let (now, tiles) = (m.cycle, m.config.num_tiles() as usize);
    // On a sampled tick the clock is read around each phase.
    let mut clock = now.is_multiple_of(PHASE_SAMPLE_PERIOD).then(|| {
        prof.phase_ticks += 1;
        Instant::now()
    });
    let mut sweep = Tick {
        m,
        a,
        now,
        error: None,
        progress: false,
    };
    for tile in 0..tiles {
        sweep.serve(tile);
    }
    lap(&mut clock, &mut prof.phase_ns[0]);
    let mut quiescent = true;
    for tile in 0..tiles {
        quiescent &= sweep.local(tile);
    }
    lap(&mut clock, &mut prof.phase_ns[1]);
    prof.ticks += 1;
    let Tick {
        m,
        a,
        mut error,
        progress,
        ..
    } = sweep;
    if let (None, Some(wd)) = (&error, a.watchdog.as_mut()) {
        if progress {
            wd.note_progress(now);
        } else if !quiescent && wd.expired(now) {
            let stalled_for = wd.stalled_for(now);
            error = Some(a.deadlock(m, stalled_for));
        }
    }
    m.cycle = now + 1;
    if a.sampler.as_ref().is_some_and(|s| m.cycle >= s.next_at) {
        let totals = a.close_epoch(m);
        if let Some(sampler) = a.sampler.as_mut() {
            sampler.rebaseline(totals, m.cycle);
        }
    }
    error.map_or(Ok(quiescent), Err)
}

/// Runs `body` as one profiled call: its host time lands in the
/// process-wide profile, and debug builds check the live sets against
/// the queues afterwards.
fn profiled<T>(
    m: &mut Machine,
    a: &mut Attachments,
    body: impl FnOnce(&mut Machine, &mut Attachments, &mut CallTally) -> T,
) -> T {
    let start = Instant::now();
    let mut prof = CallTally::default();
    let result = body(m, a, &mut prof);
    prof.busy_ns = start.elapsed().as_nanos() as u64;
    debug_assert!(
        m.live == LiveSets::of(&m.banks, &m.responses, m.live.banks_per_tile),
        "the live sets must follow the queues"
    );
    crate::profile::record_call(prof);
    result
}

/// Advances the machine by exactly one cycle.
pub(crate) fn step(m: &mut Machine, a: &mut Attachments) -> Result<(), SimError> {
    profiled(m, a, |m, a, prof| tick(m, a, prof).map(drop))
}

/// Ticks until the machine is quiescent, or `max_cycles` have passed.
pub(crate) fn run(m: &mut Machine, a: &mut Attachments, max_cycles: u64) -> Result<u64, SimError> {
    let deadline = m.cycle.saturating_add(max_cycles);
    profiled(m, a, |m, a, prof| {
        let mut quiescent = m.quiescent();
        loop {
            if quiescent {
                return Ok(m.cycle);
            }
            if m.cycle >= deadline {
                return Err(SimError::Timeout { cycles: max_cycles });
            }
            quiescent = tick(m, a, prof)?;
        }
    })
}

#[cfg(test)]
mod tests {
    use mempool_arch::{ClusterConfig, MemoryRegion};
    use mempool_isa::exec::{MemAccessKind, MemWidth};
    use mempool_isa::Program;

    use super::Machine;
    use crate::cluster::{Cluster, PendingAccess};
    use crate::SimParams;

    /// Equality of two machines, for tests: equal Debug forms, which cover
    /// the topology and the address map too (their types have no
    /// `PartialEq`).
    impl PartialEq for Machine {
        fn eq(&self, other: &Self) -> bool {
            format!("{self:?}") == format!("{other:?}")
        }
    }

    /// Among requests tied at the earliest arrival a bank serves the lowest
    /// queue position, and `swap_remove` has moved the last request into
    /// the slot the previous serve emptied: ties are not served in push
    /// order.
    #[test]
    fn ties_go_to_the_lowest_queue_position_swap_remove_leaves() {
        let config = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(1)
            .cores_per_tile(1)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(config, SimParams::default());
        cluster.load_program(Program::assemble("wfi").unwrap());
        cluster.preload_icaches();
        let MemoryRegion::Spm(loc) = cluster.storage().map().locate(0) else {
            panic!("address 0 is in the SPM");
        };
        // X arrives first, A and C tie one cycle later; each stores its own
        // value to the same word, so the word names the last one served.
        let (x, a, c) = (1, 2, 3);
        for (arrival, value) in [(0, x), (1, a), (1, c)] {
            cluster.machine.cores[0].mark_pending(None);
            let access = PendingAccess {
                arrival,
                core: 0,
                loc,
                kind: MemAccessKind::Store {
                    width: MemWidth::Word,
                    value,
                },
                resp_latency: 1,
                addr: 0,
            };
            let (tile, bank) = (loc.tile.index(), loc.bank.index());
            cluster
                .machine
                .live
                .push(&mut cluster.machine.banks, tile, bank, access);
        }
        let mut served = Vec::new();
        for _ in 0..4 {
            cluster.step().unwrap();
            served.push(cluster.read_spm_word(0).unwrap());
        }
        // Cycle 0 serves nothing (X arrives at 0), cycle 1 serves X, which
        // moves C into X's slot ahead of A: C is served before A.
        assert_eq!(served, [0, x, c, a]);
    }
}
