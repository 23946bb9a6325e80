//! The cluster simulator.
//!
//! One [`Cluster`] owns every core, SPM bank, instruction cache, and the
//! off-chip port, and advances them in lock-step cycles. Each cycle has
//! three phases (DESIGN.md § "Execution engine" has the full tick
//! anatomy):
//!
//! 1. **bank service** — every bank serves at most one request whose
//!    network arrival lies strictly in the past (earliest arrival first;
//!    among ties, the lowest queue position as `swap_remove` leaves it;
//!    counting conflict cycles);
//! 2. **response delivery** — completed transactions write back to their
//!    core's register file and release scoreboard entries;
//! 3. **issue** — every non-halted core consumes pipeline bubbles, checks
//!    its I$, and issues at most one instruction through the scoreboard.
//!
//! The phase split realizes the paper's zero-load latencies exactly: a
//! tile-local load issued in cycle `c` is usable in cycle `c+1`, a
//! group-local one in `c+3`, and a remote one in `c+5`.

use std::fmt;

use mempool_arch::{AccessClass, BankId, BankLocation, ClusterConfig, GlobalCoreId, TileId};
use mempool_fault::{
    CoreDiagnostic, FaultController, FaultPlan, FaultReport, RemappedBank, Watchdog,
};
use mempool_isa::exec::{MemAccessKind, MemWidth};
use mempool_isa::{Program, Reg};
use mempool_obs::{chrome_trace_with_counters, Counter, FlightRecorder, Json, Obs, TrackId};

use crate::ckpt::{words_struct, Words};
use crate::core::Core;
use crate::engine::{self, Attachments, Machine};
use crate::memory::{MemoryError, RemapError, Storage};
use crate::params::{SimParams, GROUP_LOCAL_LATENCY, REMOTE_LATENCY, TILE_LOCAL_LATENCY};
use crate::stats::{BankStats, ClusterStats};
use crate::trace::{Trace, TraceEntry};

/// Error raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A data access failed.
    Memory(MemoryError),
    /// A core's program counter left the program.
    PcOutOfRange {
        /// The offending core.
        core: GlobalCoreId,
        /// Its program counter.
        pc: u32,
    },
    /// Not all cores halted within the cycle budget.
    Timeout {
        /// The exhausted budget.
        cycles: u64,
    },
    /// No program is loaded.
    NoProgram,
    /// A core was resumed while it still had outstanding transactions
    /// (e.g. a load still in flight when a run timed out).
    ResumeWithOutstanding {
        /// The offending core.
        core: GlobalCoreId,
        /// Its outstanding-transaction count.
        outstanding: u32,
    },
    /// The SEC-DED logic detected a multi-bit, uncorrectable error.
    EccUncorrectable {
        /// Word the error was detected in.
        loc: BankLocation,
        /// The accumulated error mask.
        mask: u32,
    },
    /// The forward-progress watchdog saw no retired instruction and no
    /// delivered memory response anywhere in the cluster for its whole
    /// threshold window.
    Deadlock {
        /// Cycles since the last forward progress.
        stalled_for: u64,
        /// Per-core state snapshot at detection time.
        diagnostics: Vec<CoreDiagnostic>,
    },
    /// The spare-bank remap policy could not take a faulted bank out of
    /// service.
    Remap(RemapError),
}

impl SimError {
    /// Stable, machine-readable discriminant name (used in
    /// `crashdump.json`).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            SimError::Memory(_) => "memory",
            SimError::PcOutOfRange { .. } => "pc-out-of-range",
            SimError::Timeout { .. } => "timeout",
            SimError::NoProgram => "no-program",
            SimError::ResumeWithOutstanding { .. } => "resume-with-outstanding",
            SimError::EccUncorrectable { .. } => "ecc-uncorrectable",
            SimError::Deadlock { .. } => "deadlock",
            SimError::Remap(_) => "remap",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Memory(e) => write!(f, "memory error: {e}"),
            SimError::PcOutOfRange { core, pc } => {
                write!(f, "core {core} fetched outside the program at {pc:#010x}")
            }
            SimError::Timeout { cycles } => {
                write!(f, "cluster did not halt within {cycles} cycles")
            }
            SimError::NoProgram => f.write_str("no program loaded"),
            SimError::ResumeWithOutstanding { core, outstanding } => write!(
                f,
                "core {core} resumed with {outstanding} outstanding transaction(s)"
            ),
            SimError::EccUncorrectable { loc, mask } => {
                write!(
                    f,
                    "uncorrectable multi-bit error at {loc} (mask {mask:#010x})"
                )
            }
            SimError::Deadlock {
                stalled_for,
                diagnostics,
            } => {
                writeln!(f, "deadlock: no forward progress for {stalled_for} cycles")?;
                for diag in diagnostics {
                    writeln!(f, "  {diag}")?;
                }
                Ok(())
            }
            SimError::Remap(e) => write!(f, "bank remap failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemoryError> for SimError {
    /// A multi-bit error the storage detected is
    /// [`SimError::EccUncorrectable`]; every other storage error is
    /// [`SimError::Memory`].
    fn from(e: MemoryError) -> Self {
        match e {
            MemoryError::Uncorrectable { loc, mask } => SimError::EccUncorrectable { loc, mask },
            e => SimError::Memory(e),
        }
    }
}

impl From<RemapError> for SimError {
    fn from(e: RemapError) -> Self {
        SimError::Remap(e)
    }
}

/// A request waiting at (or traveling to) a bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingAccess {
    /// Cycle the request reaches the bank; servable strictly after.
    pub(crate) arrival: u64,
    pub(crate) core: u32,
    pub(crate) loc: BankLocation,
    pub(crate) kind: MemAccessKind,
    pub(crate) resp_latency: u32,
    /// Byte address, kept for sub-word lane selection.
    pub(crate) addr: u32,
}

words_struct!(PendingAccess {
    arrival,
    core,
    loc,
    kind,
    resp_latency,
    addr,
});

#[derive(Debug, Clone, Default)]
pub(crate) struct Bank {
    pub(crate) queue: Vec<PendingAccess>,
    pub(crate) stats: BankStats,
}

words_struct!(Bank { queue, stats });

/// A completed transaction traveling back to its core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Response {
    pub(crate) due: u64,
    pub(crate) reg: Option<Reg>,
    pub(crate) value: u32,
}

words_struct!(Response { due, reg, value });

/// Observability attachment: shared handle plus the tracks and counters
/// this cluster records into (see [`Cluster::attach_obs`]). The engine
/// records spans and flight events into it in place, tick by tick.
#[derive(Debug)]
pub(crate) struct ClusterObs {
    pub(crate) obs: Obs,
    /// Timeline of off-chip port activity (DMA transfers and waits).
    dma_track: TrackId,
    /// One timeline per core, for `wfi`/resume (barrier) spans.
    pub(crate) core_tracks: Vec<TrackId>,
    dma_transfers: Counter,
    /// The counters that publish `engine::counts`, and what they last did.
    pub(crate) published: [Counter; 5],
    pub(crate) baseline: [u64; 5],
    /// The flight ring cluster events are recorded into, armed by
    /// [`Cluster::enable_flight`].
    pub(crate) flight: Option<FlightRecorder>,
}

/// The counter totals the time-series sampler reads deltas of.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Totals {
    pub(crate) retired_per_tile: Vec<u64>,
    pub(crate) local_accesses: u64,
    pub(crate) remote_accesses: u64,
    pub(crate) conflicts: u64,
    pub(crate) offchip_bytes: u64,
    pub(crate) spm_touches: u64,
}

words_struct!(Totals {
    retired_per_tile,
    local_accesses,
    remote_accesses,
    conflicts,
    offchip_bytes,
    spm_touches,
});

impl Machine {
    /// The counter totals the sampler reads deltas of: the cores' and
    /// banks' per tile, beside the off-chip port's and the SPM's.
    pub(crate) fn totals(&self) -> Totals {
        let cores_per_tile = self.config.cores_per_tile() as usize;
        let mut totals = Totals {
            retired_per_tile: vec![0u64; self.config.num_tiles() as usize],
            conflicts: self.banks.iter().map(|b| b.stats.conflicts).sum(),
            offchip_bytes: self.offchip.total_bytes(),
            spm_touches: self.storage.spm_word_touches(),
            ..Totals::default()
        };
        for (i, core) in self.cores.iter().enumerate() {
            totals.retired_per_tile[i / cores_per_tile] += core.stats.retired;
            totals.local_accesses += core.stats.accesses[AccessClass::TileLocal as usize];
            totals.remote_accesses += core.stats.accesses[AccessClass::GroupLocal as usize]
                + core.stats.accesses[AccessClass::Remote as usize];
        }
        totals
    }

    /// Snapshot of every core's liveness state (used in deadlock
    /// diagnostics). Given the instruction trace, each snapshot carries
    /// the core's last few retired instructions.
    pub(crate) fn core_diagnostics(&self, trace: Option<&Trace>) -> Vec<CoreDiagnostic> {
        let recent = |core: usize| {
            let Some(trace) = trace else {
                return Vec::new();
            };
            let lines: Vec<String> = trace
                .for_core(GlobalCoreId::new(core as u32))
                .map(TraceEntry::to_string)
                .collect();
            lines[lines.len().saturating_sub(DIAGNOSTIC_RECENT_WINDOW)..].to_vec()
        };
        self.cores
            .iter()
            .enumerate()
            .map(|(i, core)| CoreDiagnostic {
                core: i as u32,
                pc: core.pc,
                halted: core.halted(),
                outstanding: core.outstanding(),
                retired: core.stats.retired,
                recent: recent(i),
            })
            .collect()
    }
}

/// Per-epoch sampling state for the cycle-sampled time-series
/// (see [`Cluster::enable_timeseries`]). Holds the counter totals at the
/// previous sample so each epoch records deltas.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Sampler {
    pub(crate) window: u64,
    /// True start cycle of the open epoch (the previous sample, or the
    /// cycle sampling was enabled at). Carried exactly — never clamped —
    /// so rate denominators are true elapsed cycles and zero-length
    /// windows can be dropped instead of spiking.
    pub(crate) epoch_start: u64,
    /// First cycle at (or after) which to take the next sample.
    pub(crate) next_at: u64,
    /// The totals at `epoch_start`.
    pub(crate) baseline: Totals,
}

words_struct!(Sampler {
    window,
    epoch_start,
    next_at,
    baseline,
});

impl Sampler {
    /// Re-baselines the counters at `now`: the next epoch's deltas are
    /// read against `totals` and close no earlier than `now + window`.
    pub(crate) fn rebaseline(&mut self, totals: Totals, now: u64) {
        self.baseline = totals;
        self.epoch_start = now;
        self.next_at = now + self.window;
    }

    /// Why this sampler cannot go on sampling `totals` from cycle `now`,
    /// if it cannot: its window must be one the engine's clock can add
    /// (nonzero, and within the same quarter of the `u64` range the clock
    /// is held to), its epoch must not start after `now`, and no baseline
    /// may exceed the total it is subtracted from.
    pub(crate) fn check_resume(&self, totals: &Totals, now: u64) -> Result<(), String> {
        if self.window == 0 || self.window > u64::MAX / 4 {
            return Err(format!(
                "sampling window of {} cycles is out of range",
                self.window
            ));
        }
        if self.epoch_start > now {
            return Err(format!(
                "sampler epoch starts at cycle {}, after the clock ({now})",
                self.epoch_start
            ));
        }
        let saved = self.baseline.retired_per_tile.len();
        if saved != totals.retired_per_tile.len() {
            return Err(format!(
                "sampler has {saved} tile baselines for {} tiles",
                totals.retired_per_tile.len()
            ));
        }
        // Counter by counter, in the order `Totals` packs them.
        let words = |totals: &Totals| {
            let mut words = Vec::new();
            totals.pack(&mut |word| words.push(word));
            words
        };
        let (baseline, totals) = (words(&self.baseline), words(totals));
        match baseline
            .into_iter()
            .zip(totals)
            .find(|(baseline, total)| baseline > total)
        {
            Some((baseline, total)) => Err(format!(
                "sampler baseline {baseline} exceeds the restored total {total}"
            )),
            None => Ok(()),
        }
    }
}

impl Attachments {
    /// Closes the sampler's epoch at `m`'s clock: pushes one sample per
    /// series, with the deltas of the totals at the clock read against the
    /// epoch's baseline, and returns those totals. The sampler is left
    /// untouched — the engine re-baselines it on the returned totals, while
    /// [`Cluster::crash_dump`] flushes a partial epoch. Without a sampler
    /// or obs hooks nothing is pushed. Zero-length windows (a flush at the
    /// exact epoch start) are dropped rather than clamped — a clamped
    /// denominator of 1 would spike every rate. Runs once per sampling
    /// epoch: kept out of line so that it stays out of the engine's tick
    /// loop, which calls it.
    #[inline(never)]
    pub(crate) fn close_epoch(&self, m: &Machine) -> Totals {
        let (totals, now) = (m.totals(), m.cycle);
        let (Some(sampler), Some(hooks)) = (&self.sampler, &self.obs) else {
            return totals;
        };
        if now <= sampler.epoch_start {
            return totals;
        }
        let (baseline, series) = (&sampler.baseline, &hooks.obs.series);
        let elapsed = (now - sampler.epoch_start) as f64;
        let rate = |total: u64, baseline: u64| (total - baseline) as f64 / elapsed;
        let tiles = totals
            .retired_per_tile
            .iter()
            .zip(&baseline.retired_per_tile);
        for (t, (&total, &baseline)) in tiles.enumerate() {
            series.push(&format!("ipc/tile{t}"), now, rate(total, baseline));
        }
        let local = rate(totals.local_accesses, baseline.local_accesses);
        series.push("l1_local_rate", now, local);
        let remote = rate(totals.remote_accesses, baseline.remote_accesses);
        series.push("l1_remote_rate", now, remote);
        let conflicts = rate(totals.conflicts, baseline.conflicts);
        series.push("bank_conflict_rate", now, conflicts);
        series.push(
            "offchip_occupancy",
            now,
            (totals.offchip_bytes - baseline.offchip_bytes) as f64
                / (elapsed * m.offchip.bytes_per_cycle() as f64),
        );
        let outstanding: u64 = m.cores.iter().map(|c| u64::from(c.outstanding())).sum();
        series.push("offchip_backlog", now, m.offchip.backlog(now) as f64);
        series.push("outstanding", now, outstanding as f64);
        let touches = rate(totals.spm_touches, baseline.spm_touches);
        series.push("spm_touch_rate", now, touches);
        totals
    }
}

/// Cycle-accurate model of a MemPool cluster: the machine state the
/// engine ticks, and what the host attaches to it (obs hooks, trace,
/// sampler, fault controller, watchdog).
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug)]
pub struct Cluster {
    pub(crate) machine: Machine,
    pub(crate) attach: Attachments,
}

impl Cluster {
    /// Creates a cluster with zeroed memory and no program.
    pub fn new(config: ClusterConfig, params: SimParams) -> Self {
        let (cores, banks) = (config.num_cores() as usize, config.num_banks() as usize);
        let storage = Storage::new(&config);
        let machine = Machine::new(
            config,
            params,
            storage,
            Program::default(),
            vec![Core::new(); cores],
            vec![Bank::default(); banks],
            vec![Vec::new(); cores],
        );
        Cluster {
            machine,
            attach: Attachments::default(),
        }
    }

    /// The host threads [`Cluster::run`] uses: always `1`, whatever
    /// [`SimParams::threads`] says. Kept only because the benchmark crate
    /// still reports it.
    pub fn effective_workers(&self) -> usize {
        1
    }

    /// Attaches an observability handle. The cluster records DMA transfers
    /// and waits as spans on a `dma` track and each core's `wfi`-to-resume
    /// (barrier) intervals as spans on per-core tracks, all grouped under a
    /// trace process named `run`. Of six labeled counters one counts DMA
    /// transfers; five publish what the simulator counts itself since
    /// attaching, whenever a `run`, `step` or `dma_tile` call ends.
    ///
    /// Recording costs nothing until attached; re-attaching replaces the
    /// previous attachment (closing its open spans).
    pub fn attach_obs(&mut self, obs: &Obs, run: &str) {
        self.detach_obs();
        let process = obs.spans.process(run);
        let dma_track = obs.spans.track(process, "dma");
        let core_tracks = (0..self.machine.cores.len())
            .map(|i| obs.spans.track(process, &format!("core{i}")))
            .collect();
        let labels = [("run", run)];
        self.attach.obs = Some(ClusterObs {
            dma_track,
            core_tracks,
            dma_transfers: obs.metrics.counter("sim_dma_transfers_total", &labels),
            published: [
                "sim_bank_conflict_cycles_total",
                "sim_icache_misses_total",
                "sim_dma_bytes_total",
                "sim_fault_retries_total",
                "sim_ecc_corrected_total",
            ]
            .map(|name| obs.metrics.counter(name, &labels)),
            baseline: engine::counts(&self.machine, self.attach.faults.as_ref()),
            flight: None,
            obs: obs.clone(),
        });
    }

    /// Detaches the observability handle, closing any spans this cluster
    /// left open (e.g. cores still parked at `wfi`) at the current cycle.
    /// Time-series sampling and flight recording stop with it. Without a
    /// handle this does nothing, so a restored cluster keeps the sampler
    /// its checkpoint carried for [`Cluster::enable_timeseries`] to re-arm.
    pub fn detach_obs(&mut self) {
        if let Some(hooks) = self.attach.obs.take() {
            for &track in &hooks.core_tracks {
                while hooks.obs.spans.end(track, self.machine.cycle).is_some() {}
            }
            self.attach.sampler = None;
        }
    }

    /// Enables per-epoch time-series sampling: every `window` cycles (the
    /// first full epoch ends `window` cycles from now), the engine pushes
    /// one sample per series into the attached [`Obs`]'s
    /// [`mempool_obs::TimeSeries`]:
    ///
    /// * `ipc/tile{t}` — instructions retired per cycle, per tile;
    /// * `l1_local_rate` / `l1_remote_rate` — tile-local and off-tile SPM
    ///   requests per cycle;
    /// * `bank_conflict_rate` — bank-conflict cycles per cycle;
    /// * `offchip_occupancy` — fraction of the epoch's peak off-chip
    ///   bandwidth consumed by scheduled transfers (can exceed 1 when core
    ///   accesses book the port ahead of time);
    /// * `offchip_backlog` — cycles of already scheduled off-chip work
    ///   still draining;
    /// * `outstanding` — in-flight memory transactions across all cores;
    /// * `spm_touch_rate` — SPM words read or written per cycle (includes
    ///   DMA word traffic).
    ///
    /// Epochs only close inside `step()`/`run()`; the clock jump of a
    /// [`Cluster::dma_tile`] folds into the next sample, whose rates are
    /// computed over the true elapsed cycles. The `window` is clamped into
    /// `1..=u64::MAX / 4`, the windows a checkpoint restores (the clock
    /// must be able to add one).
    ///
    /// A sampler that is already armed keeps its epoch and its window:
    /// [`Cluster::detach_obs`] drops the sampler, so that can only be one
    /// a checkpoint carried, and a resumed run then samples on the
    /// epochs the unbroken run would have.
    ///
    /// # Panics
    ///
    /// Panics if no observability handle is attached.
    pub fn enable_timeseries(&mut self, window: u64) {
        let hooks = self
            .attach
            .obs
            .as_ref()
            .expect("attach_obs before enable_timeseries");
        if let Some(sampler) = &self.attach.sampler {
            hooks.obs.series.set_window(sampler.window);
            return;
        }
        let window = window.clamp(1, u64::MAX / 4);
        hooks.obs.series.set_window(window);
        self.attach.sampler = Some(Sampler {
            window,
            epoch_start: self.machine.cycle,
            next_at: self.machine.cycle + window,
            baseline: self.machine.totals(),
        });
    }

    /// Enables flight recording: cluster events (memory transactions, DMA
    /// transfers, watchdog expiry) and — under fault injection — fault/ECC
    /// events mirror into the attached [`Obs`]'s
    /// [`mempool_obs::FlightRecorder`], bounded to the most recent
    /// `capacity` events. [`Cluster::crash_dump`] folds the ring into
    /// `crashdump.json`.
    ///
    /// # Panics
    ///
    /// Panics if no observability handle is attached or `capacity` is zero.
    pub fn enable_flight(&mut self, capacity: usize) {
        let hooks = self
            .attach
            .obs
            .as_mut()
            .expect("attach_obs before enable_flight");
        hooks.obs.flight.set_capacity(capacity);
        hooks.flight = Some(hooks.obs.flight.clone());
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.machine.config
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.machine.cycle
    }

    /// Loads `program` into every core's instruction path and resets all
    /// program counters to 0.
    pub fn load_program(&mut self, program: Program) {
        self.machine.install_program(program);
        for core in &mut self.machine.cores {
            core.pc = 0;
        }
    }

    /// Preloads every tile's I$ with the program (hot-cache measurement
    /// mode, Section VI-A).
    pub fn preload_icaches(&mut self) {
        let words = self.machine.program.len() as u32;
        for icache in &mut self.machine.icaches {
            icache.preload(words);
        }
    }

    /// Restarts all cores at `pc`, clearing the halted state. Register
    /// files and memory contents are preserved, so multi-phase kernels can
    /// pass state between phases.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ResumeWithOutstanding`] if a core still has
    /// in-flight transactions (e.g. a load still in flight when a run
    /// timed out) — restarting it would corrupt the scoreboard.
    pub fn resume_all(&mut self, pc: u32) -> Result<(), SimError> {
        for (i, core) in self.machine.cores.iter().enumerate() {
            if core.outstanding() > 0 {
                return Err(SimError::ResumeWithOutstanding {
                    core: GlobalCoreId::new(i as u32),
                    outstanding: core.outstanding(),
                });
            }
        }
        if let Some(hooks) = &self.attach.obs {
            for (core, &track) in self.machine.cores.iter().zip(&hooks.core_tracks) {
                if core.halted() {
                    hooks.obs.spans.end(track, self.machine.cycle);
                }
            }
        }
        for core in &mut self.machine.cores {
            core.reset_at(pc);
        }
        self.note_external_progress();
        Ok(())
    }

    /// Injects the faults of `plan` into this cluster: stuck banks are
    /// taken out of service by remapping them onto per-tile spares (their
    /// contents migrate), link health and timed bit flips are armed for
    /// delivery as the clock reaches them.
    ///
    /// Injecting replaces any previously injected plan, not the damage
    /// the storage already holds: remapped banks stay remapped (a stuck
    /// bank of the new plan that already is takes no second spare), and
    /// flipped words keep their pending SEC-DED masks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Remap`] if the spare-bank policy cannot cover
    /// the plan's stuck banks (a bank outside the geometry, or two stuck
    /// banks reported for the same physical bank). The plan is checked
    /// before anything is remapped: on an error the storage, its remaps and
    /// the previous plan stay as they were.
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        let num_tiles = self.machine.config.num_tiles() as usize;
        let banks_per_tile = self.machine.config.banks_per_tile();
        let ctrl = FaultController::new(plan, num_tiles as u32);
        let storage = &mut self.machine.storage;
        // A stuck bank the storage has already remapped is covered; the
        // rest need a spare each, after the ones their tile already uses.
        let covered = storage.remaps().to_vec();
        let stuck: Vec<(TileId, BankId)> = ctrl
            .stuck_banks()
            .iter()
            .copied()
            .filter(|&(tile, bank)| {
                tile.index() < num_tiles && !covered.iter().any(|r| (r.0, r.1) == (tile, bank))
            })
            .collect();
        // The errors `remap_bank` would meet, in its order, before it runs:
        // provisioning below gives every tile the spares its banks take.
        for (i, &(tile, bank)) in stuck.iter().enumerate() {
            if bank.0 >= banks_per_tile {
                return Err(RemapError::OutOfRange { tile, bank }.into());
            }
            if stuck[..i].contains(&(tile, bank)) {
                return Err(RemapError::AlreadyRemapped { tile, bank }.into());
            }
        }
        let mut per_tile = vec![0u32; num_tiles];
        for tile in covered.iter().map(|r| r.0).chain(stuck.iter().map(|s| s.0)) {
            per_tile[tile.index()] += 1;
        }
        storage.provision_spares(per_tile.into_iter().max().unwrap_or(0));
        for (tile, bank) in stuck {
            let spare = storage.remap_bank(tile, bank)?;
            if let Some(flight) = self.attach.flight() {
                let (category, message) = remapped_bank(&(tile, bank, spare)).flight_event();
                flight.record_deferred(0, category, None, message);
            }
        }
        self.attach.faults = Some(ctrl);
        // The new controller's report starts at zero.
        if let Some(hooks) = self.attach.obs.as_mut() {
            hooks.baseline[3..].fill(0);
        }
        Ok(())
    }

    /// Arms the forward-progress watchdog: if no core retires an
    /// instruction and no memory response is delivered for `threshold`
    /// consecutive cycles, the engine raises [`SimError::Deadlock`]
    /// with a per-core diagnostic snapshot.
    pub fn set_watchdog(&mut self, threshold: u64) {
        self.attach.watchdog = Some(Watchdog::new(threshold, self.machine.cycle));
    }

    /// The accumulated fault report, if a plan was injected, with the
    /// spare-bank remaps and latent ECC errors the storage holds.
    pub fn fault_report(&self) -> Option<FaultReport> {
        let mut report = self.attach.faults.as_ref()?.report();
        let storage = &self.machine.storage;
        report.remapped = storage.remaps().iter().map(remapped_bank).collect();
        report.ecc_pending = storage.ecc().pending_words() as u64;
        Some(report)
    }

    /// Watchdog hook for clock jumps outside `step()` (DMA, resume): the
    /// cluster made externally visible progress.
    fn note_external_progress(&mut self) {
        let now = self.machine.cycle;
        if let Some(watchdog) = self.attach.watchdog.as_mut() {
            watchdog.note_progress(now);
        }
    }

    /// Reads a register of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn reg(&self, core: GlobalCoreId, reg: Reg) -> u32 {
        self.machine.cores[core.index()].regs.read(reg)
    }

    /// Reads an SPM or external word directly (no timing): the one-word
    /// [`Self::read_spm_words`].
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses, or an
    /// uncorrectable multi-bit error under fault injection.
    #[inline]
    pub fn read_spm_word(&self, addr: u32) -> Result<u32, SimError> {
        let mut word = [0];
        self.read_spm_words(addr, &mut word)?;
        Ok(word[0])
    }

    /// Writes an SPM or external word directly (no timing): the one-word
    /// [`Self::write_spm_words`].
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    #[inline]
    pub fn write_spm_word(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        self.write_spm_words(addr, &[value])
    }

    /// Reads the consecutive SPM or external words from `addr` on into
    /// `out` directly (no timing), one SPM word touch each. Latent
    /// single-bit errors are corrected on the fly (without scrubbing —
    /// debug reads leave the stored words untouched). The read ends at
    /// the first uncorrectable word, as a word-by-word loop would.
    ///
    /// # Errors
    ///
    /// Returns the first error a word-by-word loop would meet: a
    /// misaligned `addr`, an unmapped word, or an uncorrectable multi-bit
    /// error under fault injection.
    #[inline]
    pub fn read_spm_words(&self, addr: u32, out: &mut [u32]) -> Result<(), SimError> {
        Ok(self.machine.storage.read_words(addr, out)?)
    }

    /// Writes `values` to the consecutive SPM or external words from
    /// `addr` on directly (no timing), two SPM word touches each (a
    /// store's read-modify-write), clearing any latent ECC error on the
    /// overwritten words. A bad range writes nothing.
    ///
    /// # Errors
    ///
    /// Returns the first error a word-by-word loop would meet: a
    /// misaligned `addr` or an unmapped word.
    // Always inlined, with the storage write it wraps: a one-word write
    // then costs no more calls than the store it is.
    #[inline(always)]
    pub fn write_spm_words(&mut self, addr: u32, values: &[u32]) -> Result<(), SimError> {
        Ok(self.machine.storage.write_words(addr, values)?)
    }

    /// The storage backing the SPM and external memory.
    pub fn storage(&self) -> &Storage {
        &self.machine.storage
    }

    /// Mutable access to the backing storage (for bulk initialization).
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.machine.storage
    }

    /// Whether the cluster is fully quiescent: every core halted *and*
    /// every in-flight memory transaction drained. `wfi` does not cancel
    /// outstanding transactions, so a run only ends here.
    pub fn quiescent(&self) -> bool {
        self.machine.quiescent()
    }

    /// DMA-transfers a 2D tile between external memory and the SPM: `rows`
    /// rows of `row_bytes` bytes, laid out in external memory with
    /// `ext_stride_bytes` between row starts and packed contiguously in the
    /// SPM starting at `spm_addr`. The rows move through the host's SPM
    /// slice path, so a word leaves the SPM SEC-DED corrected, like a host
    /// read. The cluster stalls for a *single* bandwidth-limited transfer
    /// of the whole tile on the off-chip port (the paper idealizes off-chip
    /// latency), recorded as a `dma_tile` span and flight event. Returns
    /// the cycles the stall took.
    ///
    /// # Errors
    ///
    /// [`MemoryError::Misaligned`] at the end of the first row if
    /// `row_bytes` is not a whole number of words, before anything moves;
    /// an error if any SPM address in the range is unmapped, with a row
    /// running past the top of the 32-bit space unmapped at address 0, as
    /// [`Self::write_spm_words`] has it; or [`SimError::EccUncorrectable`]
    /// if a word leaving the SPM holds a multi-bit error. The failing row
    /// moves nothing (the rows before it have moved), and a failed DMA
    /// books no port time.
    pub fn dma_tile(
        &mut self,
        ext_base: u64,
        ext_stride_bytes: u64,
        spm_addr: u32,
        rows: u32,
        row_bytes: u32,
        to_spm: bool,
    ) -> Result<u64, SimError> {
        if !row_bytes.is_multiple_of(4) {
            let addr = spm_addr.wrapping_add(row_bytes);
            return Err(MemoryError::Misaligned { addr }.into());
        }
        let row_bytes = u64::from(row_bytes);
        let mut row = vec![0; (row_bytes / 4) as usize];
        for r in 0..u64::from(rows) {
            let ext_row = (ext_base + r * ext_stride_bytes..).step_by(4);
            let spm_row = u32::try_from(u64::from(spm_addr) + r * row_bytes)
                .map_err(|_| MemoryError::Unmapped { addr: 0 })?;
            if to_spm {
                for (word, offset) in row.iter_mut().zip(ext_row) {
                    *word = self.machine.storage.read_external_word(offset);
                }
                self.write_spm_words(spm_row, &row)?;
            } else {
                self.read_spm_words(spm_row, &mut row)?;
                for (&word, offset) in row.iter().zip(ext_row) {
                    self.machine.storage.write_external_word(offset, word);
                }
            }
        }
        let bytes = u64::from(rows) * row_bytes;
        let issued = self.machine.cycle;
        let done = self.machine.offchip.schedule(issued, bytes);
        self.machine.dma_bytes += bytes;
        self.machine.dma_cycles += done - issued;
        self.machine.cycle = done;
        self.note_external_progress();
        let dir = if to_spm { "to_spm" } else { "to_ext" };
        if let Some(hooks) = &self.attach.obs {
            let args = vec![
                ("bytes".to_string(), Json::Int(bytes as i64)),
                ("direction".to_string(), Json::str(dir)),
            ];
            hooks
                .obs
                .spans
                .complete(hooks.dma_track, "dma_tile", issued, done, args);
            hooks.dma_transfers.inc();
        }
        self.attach.publish(&self.machine);
        if let Some(flight) = self.attach.flight() {
            let message = format!("dma_tile {bytes} B {dir} over {} cycles", done - issued);
            flight.record(issued, "dma", None, message);
        }
        Ok(done - issued)
    }

    /// Advances the cluster by one cycle: one tick of the loop
    /// [`Cluster::run`] drives.
    ///
    /// # Errors
    ///
    /// Returns an error on fetch or data-access faults, an uncorrectable
    /// ECC error, or a watchdog-detected deadlock.
    #[must_use = "a step can fail with a SimError that must not be ignored"]
    pub fn step(&mut self) -> Result<(), SimError> {
        engine::step(&mut self.machine, &mut self.attach)
    }

    /// Runs until every core halts, returning the cycle count at that
    /// point.
    ///
    /// The engine ticks one cycle at a time on the calling thread; any
    /// split of a run into [`Cluster::step`] and [`Cluster::run`] calls —
    /// instrumented, fault-injected or bare — is bit-identical in every
    /// observable way (stats, time-series, fault reports, errors).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the budget is exhausted first, or
    /// any fault raised while stepping.
    #[must_use = "a run can fail with a SimError that must not be ignored"]
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, SimError> {
        engine::run(&mut self.machine, &mut self.attach, max_cycles)
    }

    /// The name the benchmark crate reports as `sim.engine`: always
    /// `"quantum"`. Kept only because `benchmark/` still reads it; no
    /// artifact carries it.
    pub fn engine_selection(&self) -> EngineSelection {
        EngineSelection { engine: "quantum" }
    }

    /// Collects a snapshot of all statistics.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            cycles: self.machine.cycle,
            cores: self.machine.cores.iter().map(|c| c.stats).collect(),
            banks: self.machine.banks.iter().map(|b| b.stats).collect(),
            dma_bytes: self.machine.dma_bytes,
            dma_cycles: self.machine.dma_cycles,
        }
    }

    /// Enables instruction tracing, keeping the most recent `capacity`
    /// retired instructions across all cores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.attach.trace = Some(Trace::new(capacity));
    }

    /// The instruction trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.attach.trace.as_ref()
    }

    /// Builds the self-contained `crashdump.json` document for a run that
    /// died with `err`: the error (message + stable kind), per-core
    /// liveness snapshots (with recent instructions when tracing was on),
    /// the final approach to the failure as a cycle-ordered event window
    /// (flight ring merged with trace retires), the cycle attribution up
    /// to the failure, and — when an [`Obs`]
    /// handle is attached — the metrics snapshot, the time-series, and a
    /// Chrome Trace document (spans plus counter tracks) loadable in
    /// Perfetto. Spans still open at crash time are closed at the current
    /// cycle so they appear in the trace.
    ///
    /// Every part degrades gracefully: without tracing/obs/faults the
    /// corresponding sections are empty or `null`, and the dump always
    /// re-parses via [`Json::parse`].
    pub fn crash_dump(&self, err: &SimError) -> Json {
        let mut events: Vec<(u64, usize, Json)> = Vec::new();
        let mut dropped: u64 = 0;
        if let Some(hooks) = &self.attach.obs {
            for event in hooks.obs.flight.events() {
                events.push((event.cycle, events.len(), event.to_json()));
            }
            dropped += hooks.obs.flight.dropped();
        }
        if let Some(trace) = &self.attach.trace {
            for entry in trace.entries() {
                events.push((
                    entry.cycle,
                    events.len(),
                    Json::obj([
                        ("cycle", Json::Int(entry.cycle as i64)),
                        ("category", Json::str("retire")),
                        ("core", Json::Int(entry.core.index() as i64)),
                        (
                            "message",
                            Json::Str(format!("{:#010x}  {}", entry.pc, entry.instr)),
                        ),
                    ]),
                ));
            }
            dropped += trace.dropped();
        }
        events.sort_by_key(|&(cycle, seq, _)| (cycle, seq));

        // Flush the in-flight sampling epoch so a crash landing between
        // window boundaries (or before the first one) still exports its
        // final counter values. A zero-length window (crash exactly at an
        // epoch boundary) is dropped by `close_epoch` itself.
        self.attach.close_epoch(&self.machine);

        let config = &self.machine.config;
        let attribution = self
            .stats()
            .attribution(config.cores_per_tile(), config.banks_per_tile())
            .to_json();
        let (metrics, timeseries, chrome) = match &self.attach.obs {
            Some(hooks) => {
                hooks.obs.spans.close_all(self.machine.cycle);
                (
                    hooks.obs.metrics.snapshot().to_json(),
                    hooks.obs.series.to_json(),
                    chrome_trace_with_counters(&hooks.obs.spans, Some(&hooks.obs.series)),
                )
            }
            None => (Json::Null, Json::Null, Json::Null),
        };

        Json::obj([
            ("schema", Json::str("mempool-crashdump/v1")),
            (
                "error",
                Json::obj([
                    ("kind", Json::str(err.kind())),
                    ("message", Json::Str(err.to_string())),
                ]),
            ),
            ("cycle", Json::Int(self.machine.cycle as i64)),
            (
                "liveness",
                Json::Arr(
                    self.machine
                        .core_diagnostics(self.attach.trace.as_ref())
                        .iter()
                        .map(CoreDiagnostic::to_json)
                        .collect(),
                ),
            ),
            (
                "events",
                Json::Arr(events.into_iter().map(|(_, _, e)| e).collect()),
            ),
            ("dropped_events", Json::Int(dropped as i64)),
            (
                "fault_report",
                self.fault_report()
                    .map_or(Json::Null, |report| report.to_json()),
            ),
            ("attribution", attribution),
            ("metrics", metrics),
            ("timeseries", timeseries),
            ("trace", chrome),
        ])
    }
}

/// What [`Cluster::engine_selection`] returns to the benchmark crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSelection {
    /// Engine name.
    pub engine: &'static str,
}

/// How many of a core's most recent retired instructions a
/// [`CoreDiagnostic`] carries (when tracing is enabled).
const DIAGNOSTIC_RECENT_WINDOW: usize = 8;

/// Splits the zero-load latency of `class` into request and response
/// halves around the single bank-service cycle.
pub(crate) fn latency_split(class: AccessClass) -> (u32, u32) {
    let total = match class {
        AccessClass::TileLocal => TILE_LOCAL_LATENCY,
        AccessClass::GroupLocal => GROUP_LOCAL_LATENCY,
        AccessClass::Remote => REMOTE_LATENCY,
    };
    let request = (total - 1) / 2;
    (request, total - 1 - request)
}

/// A storage remap `(tile, stuck bank, spare)` as the fault report lists it.
fn remapped_bank(&(tile, from, to): &(TileId, BankId, BankId)) -> RemappedBank {
    RemappedBank {
        tile: tile.0,
        from_bank: from.0,
        to_bank: to.0,
    }
}

/// Applies load sign-extension for sub-word loads.
pub(crate) fn sign_adjust(kind: MemAccessKind, raw: u32) -> u32 {
    match kind {
        MemAccessKind::Load {
            width,
            signed: true,
            ..
        } => match width {
            MemWidth::Byte => raw as u8 as i8 as i32 as u32,
            MemWidth::Half => raw as u16 as i16 as i32 as u32,
            MemWidth::Word => raw,
        },
        _ => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::{MemoryRegion, SpmCapacity};

    fn tiny_config() -> ClusterConfig {
        ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(1)
            .cores_per_tile(1)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap()
    }

    fn run_program(cfg: ClusterConfig, src: &str) -> Cluster {
        let mut cluster = Cluster::new(cfg, SimParams::default());
        cluster.load_program(Program::assemble(src).unwrap());
        cluster.preload_icaches();
        cluster.run(1_000_000).expect("simulation failed");
        cluster
    }

    #[test]
    fn single_core_computes_correctly() {
        let cluster = run_program(
            tiny_config(),
            r#"
                li   a0, 0
                li   a1, 1
                li   a2, 101
            loop:
                add  a0, a0, a1
                addi a1, a1, 1
                blt  a1, a2, loop
                li   t0, 0
                sw   a0, 0(t0)
                wfi
            "#,
        );
        assert_eq!(cluster.read_spm_word(0).unwrap(), 5050);
    }

    #[test]
    fn tile_local_load_latency_is_one_cycle() {
        // Dependent chain: lw then immediate use. Measure against a version
        // with a nop between them; both should take the same time because
        // one cycle of latency is hidden by the next instruction.
        let mut c1 = Cluster::new(tiny_config(), SimParams::default());
        c1.load_program(Program::assemble("li t0, 0\nlw a0, 0(t0)\nadd a1, a0, a0\nwfi").unwrap());
        c1.preload_icaches();
        let cycles_dependent = c1.run(1000).unwrap();

        let mut c2 = Cluster::new(tiny_config(), SimParams::default());
        c2.load_program(
            Program::assemble("li t0, 0\nlw a0, 0(t0)\nadd a1, zero, zero\nwfi").unwrap(),
        );
        c2.preload_icaches();
        let cycles_independent = c2.run(1000).unwrap();
        assert_eq!(
            cycles_dependent, cycles_independent,
            "a 1-cycle load-use latency must be fully hidden by the pipeline"
        );
        // And no scoreboard stalls should have occurred.
        assert_eq!(c1.stats().cores[0].stall_scoreboard, 0);
    }

    #[test]
    fn scoreboard_allows_independent_work_under_load() {
        // A load followed by 3 independent adds: the adds issue while the
        // load is outstanding.
        let cluster = run_program(
            tiny_config(),
            r#"
                li t0, 0
                lw a0, 0(t0)
                addi a1, zero, 1
                addi a2, zero, 2
                addi a3, zero, 3
                add  a4, a0, a1
                wfi
            "#,
        );
        assert_eq!(cluster.stats().cores[0].stall_scoreboard, 0);
    }

    #[test]
    fn bank_conflicts_are_detected() {
        // Two cores hammer the same bank (same address).
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(1)
            .cores_per_tile(4)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        let cluster = run_program(
            cfg,
            r#"
                li   t0, 0
                li   t1, 32
            loop:
                lw   a0, 0(t0)
                addi t1, t1, -1
                bnez t1, loop
                wfi
            "#,
        );
        assert!(
            cluster.stats().total_conflicts() > 0,
            "four cores on one bank must conflict"
        );
    }

    #[test]
    fn interleaving_spreads_streaming_accesses() {
        // One core streams sequential interleaved words: conflict-free.
        let cfg = tiny_config();
        let base = {
            let cluster = Cluster::new(cfg.clone(), SimParams::default());
            cluster.storage().map().interleaved_base()
        };
        let cluster = run_program(
            cfg,
            &format!(
                r#"
                li   t0, {base}
                li   t1, 16
            loop:
                p.lw a0, 4(t0!)
                addi t1, t1, -1
                bnez t1, loop
                wfi
                "#
            ),
        );
        assert_eq!(cluster.stats().total_conflicts(), 0);
        let [local, _, _] = cluster.stats().accesses_by_class();
        assert_eq!(local, 16);
    }

    #[test]
    fn remote_accesses_classified_and_slower() {
        let cfg = ClusterConfig::builder()
            .groups(2)
            .tiles_per_group(1)
            .cores_per_tile(1)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        // Tile 1's sequential region starts at seq_bytes_per_tile.
        let remote_addr = {
            let cluster = Cluster::new(cfg.clone(), SimParams::default());
            cluster.storage().map().seq_addr(mempool_arch::TileId(1), 0)
        };
        // Only hart 0 performs the access; the other core parks at `wfi` so
        // it cannot perturb the measurement.
        let body = |addr: u32| {
            format!(
                r#"
                    csrr t1, mhartid
                    bnez t1, done
                    li   t0, {addr}
                    lw   a0, 0(t0)
                    add  a1, a0, a0
                done:
                    wfi
                "#
            )
        };
        let src_remote = body(remote_addr);
        let src_local = body(0);

        let mut remote = Cluster::new(cfg.clone(), SimParams::default());
        remote.load_program(Program::assemble(&src_remote).unwrap());
        remote.preload_icaches();
        let remote_cycles = remote.run(1000).unwrap();

        let mut local = Cluster::new(cfg, SimParams::default());
        local.load_program(Program::assemble(&src_local).unwrap());
        local.preload_icaches();
        let local_cycles = local.run(1000).unwrap();

        assert_eq!(
            remote_cycles - local_cycles,
            4,
            "remote (5-cycle) vs local (1-cycle) difference must be 4 stall cycles"
        );
        let [_, _, remote_count] = remote.stats().accesses_by_class();
        assert_eq!(remote_count, 1);
    }

    #[test]
    fn amo_serializes_atomically_across_cores() {
        // All cores atomically increment a counter 10 times.
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        let num_cores = cfg.num_cores();
        let cluster = run_program(
            cfg,
            r#"
                li   t0, 0
                li   t1, 10
                li   t2, 1
            loop:
                amoadd.w a0, t2, (t0)
                addi t1, t1, -1
                bnez t1, loop
                wfi
            "#,
        );
        assert_eq!(cluster.read_spm_word(0).unwrap(), num_cores * 10);
    }

    #[test]
    fn external_accesses_go_through_the_offchip_port() {
        let base = mempool_arch::AddressMap::EXTERNAL_BASE;
        let (cfg, params) = (tiny_config(), SimParams::default());
        let mut cluster = Cluster::new(cfg, params);
        cluster.storage_mut().write_external_word(0, 1234);
        cluster
            .load_program(Program::assemble(&format!("li t0, {base}\nlw a0, 0(t0)\nwfi")).unwrap());
        cluster.preload_icaches();
        let cycles = cluster.run(10_000).unwrap();
        assert_eq!(
            cluster.reg(GlobalCoreId::new(0), "a0".parse().unwrap()),
            1234
        );
        assert!(
            cycles > params.offchip_latency as u64,
            "external load must pay off-chip latency"
        );
    }

    #[test]
    fn dma_costs_match_bandwidth_model() {
        let (cfg, params) = (tiny_config(), SimParams::default());
        let mut cluster = Cluster::new(cfg, params);
        for i in 0..64u64 {
            cluster.storage_mut().write_external_word(i * 4, i as u32);
        }
        let bytes = 256;
        let elapsed = cluster.dma_tile(0, 0, 0, 1, bytes as u32, true).unwrap();
        let expected =
            params.offchip_latency as u64 + bytes / params.offchip_bytes_per_cycle as u64;
        assert_eq!(elapsed, expected);
        assert_eq!(cluster.read_spm_word(4 * 10).unwrap(), 10);
        // Round trip back out.
        cluster.write_spm_word(0, 999).unwrap();
        cluster.dma_tile(4096, 0, 0, 1, 4, false).unwrap();
        assert_eq!(cluster.storage().read_external_word(4096), 999);
    }

    #[test]
    fn a_dma_records_its_bytes_cycles_span_and_flight_event() {
        let obs = mempool_obs::Obs::new();
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.attach_obs(&obs, "dma");
        cluster.enable_flight(16);
        for i in 0..64u32 {
            cluster
                .storage_mut()
                .write_external_word(u64::from(i) * 4, i);
        }
        // 4 rows of 32 B at a 64 B stride in, then 2 rows of 8 B out: 30
        // cycles of latency plus 8 and 1 at 16 B per cycle.
        assert_eq!(cluster.dma_tile(0, 64, 0, 4, 32, true), Ok(38));
        assert_eq!(cluster.dma_tile(4096, 16, 32, 2, 8, false), Ok(31));
        assert_eq!(cluster.read_spm_word(32).unwrap(), 16);
        assert_eq!(cluster.storage().read_external_word(4096 + 16), 18);

        let stats = cluster.stats();
        assert_eq!((stats.dma_bytes, stats.dma_cycles), (144, 69));
        assert_eq!(cluster.machine.offchip.total_bytes(), 144);
        let spans: Vec<_> = obs
            .spans
            .spans()
            .into_iter()
            .map(|s| (s.name, s.start, s.end, s.args))
            .collect();
        let args = |bytes, direction| {
            vec![
                ("bytes".to_string(), Json::Int(bytes)),
                ("direction".to_string(), Json::str(direction)),
            ]
        };
        assert_eq!(
            spans,
            [
                ("dma_tile".to_string(), 0, 38, args(128, "to_spm")),
                ("dma_tile".to_string(), 38, 69, args(16, "to_ext")),
            ]
        );
        let events: Vec<_> = obs
            .flight
            .events()
            .into_iter()
            .map(|e| (e.cycle, e.category, e.core, e.message))
            .collect();
        assert_eq!(
            events,
            [
                (
                    0,
                    "dma".to_string(),
                    None,
                    "dma_tile 128 B to_spm over 38 cycles".to_string()
                ),
                (
                    38,
                    "dma".to_string(),
                    None,
                    "dma_tile 16 B to_ext over 31 cycles".to_string()
                ),
            ]
        );
    }

    #[test]
    fn a_dma_row_past_the_top_or_of_a_partial_word_moves_nothing() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.write_spm_word(0, 7).unwrap();
        cluster.storage_mut().write_external_word(0, 0xabc);
        let top = Err(SimError::Memory(MemoryError::Unmapped { addr: 0 }));
        // The second 256 B row would start at 2^32: it must not wrap to
        // SPM word 0, in either direction.
        assert_eq!(cluster.dma_tile(0, 256, 0xFFFF_FF00, 2, 256, true), top);
        assert_eq!(cluster.read_spm_word(0), Ok(7));
        assert_eq!(
            cluster.dma_tile(0x1000, 256, 0xFFFF_FF00, 2, 256, false),
            top
        );
        assert_eq!(cluster.storage().read_external_word(0x1100), 0);
        // A row of 6 B would move one word but charge the port six bytes;
        // the second row would start at the misaligned byte 6.
        let partial = Err(SimError::Memory(MemoryError::Misaligned { addr: 6 }));
        assert_eq!(cluster.dma_tile(0, 64, 0, 2, 6, true), partial);
        assert_eq!(cluster.read_spm_word(0), Ok(7));
        assert_eq!(cluster.dma_tile(0, 64, 0, 2, 6, false), partial);
        assert_eq!(cluster.storage().read_external_word(0), 0xabc);
        let stats = cluster.stats();
        assert_eq!((stats.cycles, stats.dma_bytes, stats.dma_cycles), (0, 0, 0));
        assert_eq!(cluster.machine.offchip.total_bytes(), 0);
    }

    #[test]
    fn timeout_is_reported() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.load_program(Program::assemble("loop: j loop").unwrap());
        cluster.preload_icaches();
        assert_eq!(
            cluster.run(100).unwrap_err(),
            SimError::Timeout { cycles: 100 }
        );
    }

    #[test]
    fn missing_program_is_an_error() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        assert_eq!(cluster.step().unwrap_err(), SimError::NoProgram);
    }

    #[test]
    fn cold_icache_charges_misses() {
        let mut cold = Cluster::new(tiny_config(), SimParams::default());
        cold.load_program(Program::assemble("nop\nnop\nnop\nwfi").unwrap());
        let cold_cycles = cold.run(10_000).unwrap();

        let mut hot = Cluster::new(tiny_config(), SimParams::default());
        hot.load_program(Program::assemble("nop\nnop\nnop\nwfi").unwrap());
        hot.preload_icaches();
        let hot_cycles = hot.run(10_000).unwrap();
        assert!(cold_cycles > hot_cycles);
        assert!(cold.stats().cores[0].stall_icache > 0);
        assert_eq!(hot.stats().cores[0].stall_icache, 0);
    }

    #[test]
    fn full_cluster_instantiates() {
        let cfg = ClusterConfig::with_capacity(SpmCapacity::MiB1);
        let cluster = Cluster::new(cfg, SimParams::default());
        assert_eq!(cluster.config().num_cores(), 256);
    }

    #[test]
    fn network_traffic_is_attributed_to_the_right_butterflies() {
        // 2x2 groups of one tile each; hart 0 (group 0) touches a bank in
        // every group: local network unused (same tile), east for group 1,
        // north for group 2, northeast for group 3.
        let cfg = ClusterConfig::builder()
            .groups(4)
            .tiles_per_group(1)
            .cores_per_tile(1)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        let probe = Cluster::new(cfg.clone(), SimParams::default());
        let addr = |tile: u32| {
            probe
                .storage()
                .map()
                .seq_addr(mempool_arch::TileId(tile), 0)
        };
        let src = format!(
            r#"
                csrr t1, mhartid
                bnez t1, done
                li   t0, {a1}
                lw   a1, 0(t0)
                li   t0, {a2}
                lw   a2, 0(t0)
                li   t0, {a3}
                lw   a3, 0(t0)
            done:
                wfi
            "#,
            a1 = addr(1),
            a2 = addr(2),
            a3 = addr(3),
        );
        let mut cluster = Cluster::new(cfg, SimParams::default());
        cluster.load_program(Program::assemble(&src).unwrap());
        cluster.preload_icaches();
        cluster.run(10_000).unwrap();
        let nets = cluster.stats().accesses_by_network();
        // [local, north, northeast, east]
        assert_eq!(nets, [0, 1, 1, 1], "network attribution {nets:?}");
    }

    #[test]
    fn remote_ports_throttle_off_tile_traffic() {
        // Tile 0's eight cores stream independent loads from eight distinct
        // banks, once in tile 1 and once in their own tile. The tile's four
        // remote ports let at most four of them issue off-tile in one
        // cycle, so the remote run stalls structurally at issue; the local
        // run takes no port. With a port per core the two runs would be the
        // same.
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(8)
            .banks_per_tile(16)
            .bank_words(64)
            .build()
            .unwrap();
        let run_against = |tile: u32| {
            let base = Cluster::new(cfg.clone(), SimParams::default())
                .storage()
                .map()
                .seq_addr(mempool_arch::TileId(tile), 0);
            let src = format!(
                r#"
                    csrr t1, mhartid
                    li   t2, 8
                    bge  t1, t2, done      # only tile 0's cores participate
                    li   t0, {base}
                    slli t3, t1, 2
                    add  t0, t0, t3        # distinct banks: no bank conflicts
                    li   t4, 32
                loop:
                    lw   a0, 0(t0)
                    lw   a1, 0(t0)
                    lw   a2, 0(t0)
                    lw   a3, 0(t0)
                    addi t4, t4, -1
                    bnez t4, loop
                done:
                    wfi
                "#
            );
            let cluster = run_program(cfg.clone(), &src);
            let stalls: u64 = cluster
                .stats()
                .cores
                .iter()
                .map(|c| c.stall_structural)
                .sum();
            (cluster.cycle(), stalls)
        };
        assert_eq!(
            run_against(1),
            (344, 452),
            "remote: (cycles, structural stalls)"
        );
        assert_eq!(
            run_against(0),
            (231, 0),
            "local: (cycles, structural stalls)"
        );
    }

    #[test]
    fn trace_records_retired_instructions_in_order() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.load_program(Program::assemble("li a0, 1\nli a1, 2\nadd a2, a0, a1\nwfi").unwrap());
        cluster.preload_icaches();
        cluster.enable_trace(16);
        cluster.run(1000).unwrap();
        let trace = cluster.trace().expect("tracing enabled");
        assert_eq!(trace.entries().count(), 4);
        let pcs: Vec<u32> = trace.entries().map(|e| e.pc).collect();
        assert_eq!(pcs, vec![0, 4, 8, 12]);
        let mut cycles: Vec<u64> = trace.entries().map(|e| e.cycle).collect();
        let sorted = {
            let mut s = cycles.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(cycles, sorted, "trace must be in issue order");
        cycles.dedup();
        assert_eq!(
            cycles.len(),
            4,
            "single-issue core: one instruction per cycle"
        );
        let text = trace.to_string();
        assert!(text.contains("add a2, a0, a1"));
    }

    #[test]
    fn attribution_buckets_sum_to_total_cycles() {
        // Exercise every bucket: cold I$ (fetch stalls), taken branches,
        // bank conflicts (scoreboard + structural pressure), a barrier-like
        // wfi tail, and a synchronous DMA (off-chip wait).
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        let (cores_per_tile, banks_per_tile) = (cfg.cores_per_tile(), cfg.banks_per_tile());
        let mut cluster = Cluster::new(cfg, SimParams::default());
        cluster.load_program(
            Program::assemble(
                r#"
                    li   t0, 0
                    li   t1, 32
                loop:
                    lw   a0, 0(t0)
                    add  a1, a0, a0
                    addi t1, t1, -1
                    bnez t1, loop
                    wfi
                "#,
            )
            .unwrap(),
        );
        // Cold I$: misses charged; synchronous DMA: off-chip wait.
        cluster.dma_tile(0, 0, 0, 1, 256, true).unwrap();
        cluster.run(1_000_000).unwrap();
        let stats = cluster.stats();
        let report = stats.attribution(cores_per_tile, banks_per_tile);
        assert_eq!(report.cycles, stats.cycles);
        for (i, core) in report.cores.iter().enumerate() {
            assert_eq!(
                core.total(),
                report.cycles,
                "core {i} buckets must sum to total cycles"
            );
        }
        assert_eq!(
            report.cluster.total(),
            report.cycles * stats.cores.len() as u64
        );
        // The DMA advanced the clock without stepping cores: every core's
        // off-chip bucket is exactly that window.
        assert!(report.cores.iter().all(|c| c.offchip == stats.dma_cycles));
        // And the heatmap carries the same conflicts as the raw stats.
        let heat_total: u64 = report.heatmap.rows.iter().flatten().sum();
        assert_eq!(heat_total, stats.total_conflicts());
    }

    #[test]
    fn attribution_without_dma_has_no_offchip_residual() {
        // With no DMA, the exhaustive accounting leaves nothing over:
        // every cycle of every core lands in a named bucket.
        let cluster = run_program(
            tiny_config(),
            r#"
                li   t0, 0
                li   t1, 8
            loop:
                lw   a0, 0(t0)
                add  a1, a0, a0
                addi t1, t1, -1
                bnez t1, loop
                wfi
            "#,
        );
        let stats = cluster.stats();
        let report = stats.attribution(1, 4);
        assert_eq!(report.cores[0].offchip, 0, "no DMA ran: zero residual");
        assert_eq!(report.cores[0].total(), report.cycles);
    }

    /// A run that ends in an error or a timeout is attributed like one
    /// that completed: the tick that raised the error counts, and a
    /// bubble's cycles are charged as they elapse, so no core's buckets
    /// run ahead of the clock.
    #[test]
    fn errored_and_timed_out_runs_are_attributed() {
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(64)
            .build()
            .unwrap();
        let loaded = |offchip_latency: u32, src: &str| {
            let params = SimParams {
                offchip_latency,
                ..SimParams::default()
            };
            let mut cluster = Cluster::new(cfg.clone(), params);
            cluster.load_program(Program::assemble(src).unwrap());
            cluster.preload_icaches();
            cluster
        };
        // Core 0 runs off the end of the program after the other cores
        // halted: the erroring tick steps every core of tiles 1 to 3, and
        // none of tile 0 after core 0.
        let mut off_the_end = loaded(
            30,
            "csrr t1, mhartid\nbeqz t1, last\nwfi\nlast:\naddi a0, a0, 1",
        );
        let end = off_the_end.run(100);
        assert!(matches!(end, Err(SimError::PcOutOfRange { .. })), "{end:?}");
        // Core 0 waits on an off-chip load far beyond the watchdog's window.
        let mut waiter = loaded(
            10_000,
            "csrr t1, mhartid\nbnez t1, done\nli t0, 0x80000000\nlw a0, 0(t0)\n\
             add a1, a0, a0\ndone:\nwfi",
        );
        waiter.set_watchdog(100);
        let end = waiter.run(100_000);
        assert!(matches!(end, Err(SimError::Deadlock { .. })), "{end:?}");
        // Out of budget on the cycle after a taken branch, its bubble still
        // ahead.
        let mut looping = loaded(30, "li t0, 100\nloop:\naddi t0, t0, -1\nbnez t0, loop\nwfi");
        assert_eq!(looping.run(3), Err(SimError::Timeout { cycles: 3 }));
        // (cycles, cluster-wide issue and off-chip buckets)
        let expected = [(5, 48, 4), (104, 49, 0), (3, 48, 0)];
        for (cluster, (cycles, issue, offchip)) in
            [off_the_end, waiter, looping].iter().zip(expected)
        {
            let stats = cluster.stats();
            let report = stats.attribution(4, 16);
            assert_eq!(report.cycles, cycles);
            assert!(report.cores.iter().all(|c| c.total() == cycles));
            assert_eq!(
                (report.cluster.issue, report.cluster.offchip),
                (issue, offchip)
            );
        }
    }

    #[test]
    fn obs_hooks_record_dma_and_wfi_spans_and_conflict_metrics() {
        use mempool_obs::Obs;
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(1)
            .cores_per_tile(4)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        let obs = Obs::new();
        let mut cluster = Cluster::new(cfg, SimParams::default());
        cluster.attach_obs(&obs, "test-run");
        cluster.load_program(
            Program::assemble(
                r#"
                    li   t0, 0
                    li   t1, 16
                loop:
                    lw   a0, 0(t0)
                    addi t1, t1, -1
                    bnez t1, loop
                    wfi
                "#,
            )
            .unwrap(),
        );
        cluster.preload_icaches();
        let dma_elapsed = cluster.dma_tile(0, 0, 0, 1, 128, true).unwrap();
        cluster.run(1_000_000).unwrap();
        let stats = cluster.stats();
        cluster.detach_obs();

        assert_eq!(obs.spans.open_count(), 0, "detach closes wfi spans");
        assert_eq!(obs.spans.total_cycles("dma_tile"), dma_elapsed);
        let wfi_spans: Vec<_> = obs
            .spans
            .spans()
            .into_iter()
            .filter(|s| s.name == "wfi")
            .collect();
        assert_eq!(wfi_spans.len(), 4, "one wfi span per core");
        assert!(wfi_spans.iter().all(|s| s.end == stats.cycles));

        let snapshot = obs.metrics.snapshot();
        let value = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(value("sim_dma_bytes_total"), 128);
        assert_eq!(value("sim_dma_transfers_total"), 1);
        assert_eq!(
            value("sim_bank_conflict_cycles_total"),
            stats.total_conflicts()
        );
        assert_eq!(
            snapshot.counters[0].labels,
            vec![("run".to_string(), "test-run".to_string())]
        );
    }

    #[test]
    fn resume_preserves_registers_and_memory() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.load_program(
            Program::assemble(
                r#"
                    li   a0, 7
                    wfi
                phase2:
                    addi a0, a0, 1
                    li   t0, 0
                    sw   a0, 0(t0)
                    wfi
                "#,
            )
            .unwrap(),
        );
        cluster.preload_icaches();
        cluster.run(1000).unwrap();
        let phase2 = 8; // pc of `phase2` (li expands to one instruction)
        cluster.resume_all(phase2).unwrap();
        assert!(!cluster.machine.cores.iter().all(Core::halted));
        cluster.run(1000).unwrap();
        assert_eq!(cluster.read_spm_word(0).unwrap(), 8);
    }

    // ----- fault injection, watchdog, and graceful degradation -----

    use crate::params::ECC_CORRECTION_PENALTY;
    use mempool_arch::BankId;
    use mempool_fault::{FaultConfig, FaultEvent};

    /// First word-aligned address that `locate`s into the given bank of
    /// tile 0.
    fn addr_in_bank(cluster: &Cluster, bank: u32) -> (u32, BankLocation) {
        for addr in (0..4096u32).step_by(4) {
            if let MemoryRegion::Spm(loc) = cluster.storage().map().locate(addr) {
                if loc.tile == TileId(0) && loc.bank == BankId(bank) {
                    return (addr, loc);
                }
            }
        }
        panic!("no address maps to tile 0 bank {bank}");
    }

    #[test]
    fn stuck_bank_is_remapped_and_results_stay_correct() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        let (addr, loc) = addr_in_bank(&cluster, 1);
        cluster.write_spm_word(addr, 77).unwrap();

        let mut plan = FaultPlan::new(1);
        plan.push(FaultEvent::StuckBank {
            tile: TileId(0),
            bank: BankId(1),
        });
        cluster.inject_faults(&plan).unwrap();
        // The faulty physical array can rot arbitrarily: the logical bank
        // now lives on the spare, so the corruption is invisible.
        cluster.storage_mut().write_physical(loc, 0xDEAD_BEEF);
        assert_eq!(cluster.read_spm_word(addr).unwrap(), 77);

        cluster.load_program(
            Program::assemble(&format!(
                "li t0, {addr}\nlw a0, 0(t0)\naddi a0, a0, 1\nli t1, 0\nsw a0, 0(t1)\nwfi"
            ))
            .unwrap(),
        );
        cluster.preload_icaches();
        cluster.run(10_000).unwrap();
        assert_eq!(cluster.read_spm_word(0).unwrap(), 78);

        let report = cluster.fault_report().unwrap();
        assert_eq!(report.stuck_banks, 1);
        assert_eq!(report.remapped.len(), 1);
        assert_eq!(report.remapped[0].from_bank, 1);
        assert!(
            report.remapped[0].to_bank >= cluster.config().banks_per_tile(),
            "the spare lives outside the addressable geometry"
        );
    }

    #[test]
    fn reinjecting_a_plan_keeps_its_remaps_and_replaces_the_plan() {
        let config = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(64)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(config, SimParams::default());
        let stuck = |seed, banks: &[u32]| {
            let mut plan = FaultPlan::new(seed);
            for &bank in banks {
                let (tile, bank) = (TileId(0), BankId(bank));
                plan.push(FaultEvent::StuckBank { tile, bank });
            }
            plan
        };
        let (addr, loc) = addr_in_bank(&cluster, 1);
        cluster.inject_faults(&stuck(1, &[1])).unwrap();
        cluster.write_spm_word(addr, 77).unwrap();
        // The bank is already on its spare: covered, not remapped again.
        cluster.inject_faults(&stuck(1, &[1])).unwrap();
        cluster.storage_mut().write_physical(loc, 0xDEAD_BEEF);
        assert_eq!(cluster.read_spm_word(addr).unwrap(), 77);
        let report = cluster.fault_report().unwrap();
        assert_eq!((report.stuck_banks, report.remapped.len()), (1, 1));

        // A plan with one more stuck bank replaces the old one, and the
        // tile's second spare is provisioned after the first.
        cluster.inject_faults(&stuck(2, &[1, 2])).unwrap();
        assert_eq!(cluster.read_spm_word(addr).unwrap(), 77);
        let report = cluster.fault_report().unwrap();
        assert_eq!((report.seed, report.stuck_banks), (2, 2));
        let remapped: Vec<_> = report
            .remapped
            .iter()
            .map(|r| (r.from_bank, r.to_bank))
            .collect();
        assert_eq!(remapped, [(1, 16), (2, 17)]);
    }

    /// A plan the spare-bank policy cannot cover is refused before it
    /// remaps anything: the storage and the armed plan stay as they were.
    #[test]
    fn a_refused_plan_leaves_the_cluster_untouched() {
        let config = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(1)
            .cores_per_tile(1)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(config, SimParams::default());
        let stuck = |seed, banks: &[u32]| {
            let mut plan = FaultPlan::new(seed);
            for &bank in banks {
                let (tile, bank) = (TileId(0), BankId(bank));
                plan.push(FaultEvent::StuckBank { tile, bank });
            }
            plan
        };
        cluster.inject_faults(&stuck(1, &[0])).unwrap();
        let refused = [
            (
                stuck(2, &[1, 1]),
                "bank T0:b1 is already remapped to a spare",
            ),
            (
                stuck(3, &[2, 9]),
                "bank T0:b9 is outside the cluster geometry",
            ),
        ];
        for (plan, message) in refused {
            let err = cluster.inject_faults(&plan).unwrap_err();
            assert_eq!(err.to_string(), format!("bank remap failed: {message}"));
            let report = cluster.fault_report().unwrap();
            assert_eq!((report.seed, report.stuck_banks), (1, 1));
            assert_eq!(
                cluster.storage().remaps(),
                [(TileId(0), BankId(0), BankId(4))]
            );
            assert_eq!(cluster.storage().spares_per_tile(), 1);
        }
    }

    #[test]
    fn single_bit_flip_is_corrected_counted_and_charged() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.write_spm_word(0, 123).unwrap();
        let MemoryRegion::Spm(loc) = cluster.storage().map().locate(0) else {
            panic!("address 0 must be SPM");
        };
        let mut plan = FaultPlan::new(2);
        plan.push(FaultEvent::TransientFlip {
            cycle: 0,
            loc,
            mask: 1 << 7,
        });
        cluster.inject_faults(&plan).unwrap();
        cluster.load_program(
            Program::assemble("li t0, 0\nlw a0, 0(t0)\naddi a0, a0, 1\nsw a0, 4(t0)\nwfi").unwrap(),
        );
        cluster.preload_icaches();
        cluster.run(10_000).unwrap();
        // SEC-DED corrected the load: the program saw 123, not 123^0x80.
        assert_eq!(cluster.read_spm_word(4).unwrap(), 124);
        // The scrub repaired storage in place.
        assert_eq!(cluster.read_spm_word(0).unwrap(), 123);
        let stats = cluster.stats();
        assert_eq!(stats.cores[0].stall_ecc, ECC_CORRECTION_PENALTY as u64);
        let report = cluster.fault_report().unwrap();
        assert_eq!(report.ecc_corrected, 1);
        assert_eq!(report.ecc_pending, 0, "scrubbed: no latent errors remain");
    }

    /// A flipped word's damage is the storage's: injecting another plan
    /// replaces the controller, not the word's pending mask, so the word
    /// still reads corrected and still counts as latent.
    #[test]
    fn re_injecting_a_plan_keeps_the_latent_masks() {
        let config = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(config, SimParams::default());
        let addr = cluster.storage().map().interleaved_base();
        cluster.write_spm_word(addr, 100).unwrap();
        let MemoryRegion::Spm(loc) = cluster.storage().map().locate(addr) else {
            panic!("the interleaved base lies in the SPM");
        };
        let mut plan = FaultPlan::new(1);
        plan.push(FaultEvent::TransientFlip {
            cycle: 0,
            loc,
            mask: 1 << 3,
        });
        cluster.inject_faults(&plan).unwrap();
        cluster.load_program(Program::assemble("wfi").unwrap());
        cluster.run(10_000).unwrap();
        cluster.inject_faults(&FaultPlan::new(2)).unwrap();
        assert_eq!(cluster.read_spm_word(addr).unwrap(), 100);
        assert_eq!(cluster.fault_report().unwrap().ecc_pending, 1);
    }

    #[test]
    fn double_bit_error_raises_a_typed_uncorrectable() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        let MemoryRegion::Spm(loc) = cluster.storage().map().locate(0) else {
            panic!("address 0 must be SPM");
        };
        let mut plan = FaultPlan::new(3);
        for bit in [3u32, 19] {
            plan.push(FaultEvent::TransientFlip {
                cycle: 0,
                loc,
                mask: 1 << bit,
            });
        }
        cluster.inject_faults(&plan).unwrap();
        cluster.load_program(Program::assemble("li t0, 0\nlw a0, 0(t0)\nwfi").unwrap());
        cluster.preload_icaches();
        let err = cluster.run(10_000).unwrap_err();
        assert_eq!(
            err,
            SimError::EccUncorrectable {
                loc,
                mask: (1 << 3) | (1 << 19),
            }
        );
    }

    #[test]
    fn dma_out_of_the_spm_corrects_like_a_host_read() {
        // A 4x4 C tile whose row 1 holds a single-bit flip and row 3 a
        // double-bit one, written back to external memory.
        let flipped = |flips: &[(u32, u32)]| {
            let mut cluster = Cluster::new(tiny_config(), SimParams::default());
            let base = cluster.storage().map().interleaved_base();
            let tile: Vec<u32> = (0..16).map(|i| 0xc000 + i).collect();
            cluster.write_spm_words(base, &tile).unwrap();
            let mut plan = FaultPlan::new(5);
            for &(word, mask) in flips {
                let MemoryRegion::Spm(loc) = cluster.storage().map().locate(base + 4 * word) else {
                    panic!("the C tile lies in the SPM");
                };
                plan.push(FaultEvent::TransientFlip {
                    cycle: 0,
                    loc,
                    mask,
                });
            }
            cluster.inject_faults(&plan).unwrap();
            // One tick lands the flips.
            cluster.load_program(Program::assemble("wfi").unwrap());
            cluster.step().unwrap();
            (cluster, base)
        };
        let out =
            |cluster: &mut Cluster, base, rows| cluster.dma_tile(0, 64, base, rows, 16, false);
        let (mut clean, base) = flipped(&[]);
        let clean_cycles = out(&mut clean, base, 2).unwrap();

        let (single, double) = ((5, 1 << 9), (14, (1 << 2) | (1 << 30)));
        let (mut cluster, base) = flipped(&[single, double]);
        // Rows 0 and 1: the flipped word arrives corrected, with no scrub
        // and no penalty, exactly like a host read.
        assert_eq!(out(&mut cluster, base, 2).unwrap(), clean_cycles);
        let storage = cluster.storage();
        let row1: Vec<u32> = (64..80)
            .step_by(4)
            .map(|at| storage.read_external_word(at))
            .collect();
        assert_eq!(row1, [0xc004, 0xc005, 0xc006, 0xc007]);
        let report = cluster.fault_report().unwrap();
        assert_eq!((report.ecc_corrected, report.ecc_pending), (0, 2));
        // The whole tile meets the double-bit word: a typed error.
        let MemoryRegion::Spm(loc) = cluster.storage().map().locate(base + 4 * double.0) else {
            panic!("the C tile lies in the SPM");
        };
        assert_eq!(
            out(&mut cluster, base, 4).unwrap_err(),
            SimError::EccUncorrectable {
                loc,
                mask: double.1
            }
        );
    }

    fn four_tile_config() -> ClusterConfig {
        ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(1)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap()
    }

    #[test]
    fn resuming_a_core_with_a_transaction_in_flight_is_a_typed_error() {
        let cfg = four_tile_config();
        let remote = {
            let probe = Cluster::new(cfg.clone(), SimParams::default());
            probe.storage().map().seq_addr(TileId(1), 0)
        };
        let mut cluster = Cluster::new(cfg, SimParams::default());
        // Core 0 fires a remote store and parks; stores do not block
        // `wfi`, so every core halts before the store's round trip ends.
        cluster.load_program(
            Program::assemble(&format!(
                r#"
                    csrr t1, mhartid
                    bnez t1, done
                    li   t0, {remote}
                    sw   t1, 0(t0)
                done:
                    wfi
                "#
            ))
            .unwrap(),
        );
        cluster.preload_icaches();
        for _ in 0..200 {
            cluster.step().unwrap();
            if cluster.machine.cores.iter().all(Core::halted) {
                break;
            }
        }
        assert!(cluster.machine.cores.iter().all(Core::halted));
        assert!(!cluster.quiescent(), "the store is still in flight");
        assert_eq!(
            cluster.resume_all(0).unwrap_err(),
            SimError::ResumeWithOutstanding {
                core: GlobalCoreId::new(0),
                outstanding: 1,
            }
        );
        cluster.run(100).unwrap();
        cluster.resume_all(0).unwrap();
    }

    #[test]
    fn attribution_buckets_sum_exactly_under_injected_faults() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.write_spm_word(0, 11).unwrap();
        let MemoryRegion::Spm(loc) = cluster.storage().map().locate(0) else {
            panic!("address 0 must be SPM");
        };
        let mut plan = FaultPlan::new(8);
        plan.push(FaultEvent::LinkDegraded {
            tile: TileId(0),
            extra_latency: 5,
        });
        plan.push(FaultEvent::TransientFlip {
            cycle: 0,
            loc,
            mask: 1 << 30,
        });
        let obs = mempool_obs::Obs::new();
        cluster.attach_obs(&obs, "fault-run");
        cluster.inject_faults(&plan).unwrap();
        cluster.load_program(
            Program::assemble(
                r#"
                    li   t0, 0
                    li   t1, 16
                loop:
                    lw   a0, 0(t0)
                    add  a1, a0, a0
                    addi t1, t1, -1
                    bnez t1, loop
                    wfi
                "#,
            )
            .unwrap(),
        );
        cluster.preload_icaches();
        cluster.run(100_000).unwrap();
        let stats = cluster.stats();
        assert!(stats.cores[0].stall_fault_retry > 0, "retries were charged");
        assert!(stats.cores[0].stall_ecc > 0, "the correction was charged");
        let report = stats.attribution(1, 4);
        assert_eq!(
            report.cores[0].total(),
            report.cycles,
            "buckets must sum exactly to total cycles even under faults"
        );
        assert!(report.cores[0].fault_retry > 0);
        assert!(report.cores[0].ecc > 0);

        let fr = cluster.fault_report().unwrap();
        assert_eq!(fr.retried_accesses, 16, "one retry per load");
        assert_eq!(fr.retry_cycles, 16 * 5);
        assert_eq!(fr.ecc_corrected, 1);

        cluster.detach_obs();
        let snapshot = obs.metrics.snapshot();
        let value = |name: &str| {
            snapshot
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(value("sim_fault_retries_total"), 16);
        assert_eq!(value("sim_ecc_corrected_total"), 1);
    }

    /// A plan injected in the middle of a run replaces the controller, and
    /// with it the report the fault counters publish from: the counters
    /// keep what the first plan counted and add what the second one does.
    #[test]
    fn a_plan_injected_mid_run_adds_to_the_fault_counters() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        let MemoryRegion::Spm(loc) = cluster.storage().map().locate(0) else {
            panic!("address 0 must be SPM");
        };
        let obs = mempool_obs::Obs::new();
        cluster.attach_obs(&obs, "replan");
        let degraded = |extra_latency| {
            let mut plan = FaultPlan::new(8);
            plan.push(FaultEvent::LinkDegraded {
                tile: TileId(0),
                extra_latency,
            });
            plan
        };
        cluster.inject_faults(&degraded(5)).unwrap();
        cluster.load_program(
            Program::assemble(
                r#"
                    li   t0, 0
                    li   t1, 16
                loop:
                    lw   a0, 0(t0)
                    add  a1, a0, a0
                    addi t1, t1, -1
                    bnez t1, loop
                    wfi
                "#,
            )
            .unwrap(),
        );
        cluster.preload_icaches();
        assert_eq!(cluster.run(60), Err(SimError::Timeout { cycles: 60 }));
        let first = cluster.fault_report().unwrap().retried_accesses;
        assert!((1..16).contains(&first), "{first} of the 16 loads retried");

        let mut second = degraded(3);
        second.push(FaultEvent::TransientFlip {
            cycle: cluster.cycle(),
            loc,
            mask: 1 << 30,
        });
        cluster.inject_faults(&second).unwrap();
        cluster.run(100_000).unwrap();
        let report = cluster.fault_report().unwrap();
        assert_eq!(first + report.retried_accesses, 16, "one retry per load");
        assert_eq!(report.ecc_corrected, 1);

        let snapshot = obs.metrics.snapshot();
        let value = |name: &str| {
            let counter = snapshot.counters.iter().find(|c| c.name == name);
            counter.map(|c| c.value)
        };
        assert_eq!(value("sim_fault_retries_total"), Some(16));
        assert_eq!(value("sim_ecc_corrected_total"), Some(1));
    }

    #[test]
    fn generated_plan_runs_to_completion_with_correct_results() {
        let cfg = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(512)
            .build()
            .unwrap();
        let num_cores = cfg.num_cores();
        let mut cluster = Cluster::new(cfg.clone(), SimParams::default());
        let plan = FaultPlan::generate(&FaultConfig::new(42, 1e-6), &cfg);
        assert!(!plan.is_empty());
        cluster.inject_faults(&plan).unwrap();
        cluster.set_watchdog(100_000);
        cluster.load_program(
            Program::assemble(
                r#"
                    li   t0, 0
                    li   t1, 10
                    li   t2, 1
                loop:
                    amoadd.w a0, t2, (t0)
                    addi t1, t1, -1
                    bnez t1, loop
                    wfi
                "#,
            )
            .unwrap(),
        );
        cluster.preload_icaches();
        cluster.run(1_000_000).unwrap();
        assert_eq!(cluster.read_spm_word(0).unwrap(), num_cores * 10);
        let report = cluster.fault_report().unwrap();
        assert!(report.total_injected() >= 2, "floors guarantee faults");
        assert_eq!(report.remapped.len() as u64, report.stuck_banks);
    }

    #[test]
    fn timeseries_samples_land_on_epoch_boundaries() {
        use mempool_obs::Obs;
        let obs = Obs::new();
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.attach_obs(&obs, "ts-run");
        cluster.enable_timeseries(16);
        cluster.load_program(
            Program::assemble(
                r#"
                    li   t0, 0
                    li   t1, 64
                loop:
                    lw   a0, 0(t0)
                    addi t1, t1, -1
                    bnez t1, loop
                    wfi
                "#,
            )
            .unwrap(),
        );
        cluster.preload_icaches();
        cluster.run(1_000_000).unwrap();
        let names = obs.series.names();
        for expected in [
            "ipc/tile0",
            "l1_local_rate",
            "l1_remote_rate",
            "bank_conflict_rate",
            "offchip_occupancy",
            "offchip_backlog",
            "outstanding",
            "spm_touch_rate",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        let ipc = obs.series.samples("ipc/tile0");
        assert!(!ipc.is_empty(), "epochs elapsed, so samples must exist");
        for s in &ipc {
            assert_eq!(s.cycle % 16, 0, "samples land on window multiples");
            assert!(s.value > 0.0, "the core retired work in every epoch");
        }
        let local = obs.series.samples("l1_local_rate");
        assert!(
            local.iter().any(|s| s.value > 0.0),
            "the load loop must show up as local L1 traffic"
        );
    }

    #[test]
    fn crash_dump_at_an_epoch_boundary_drops_the_zero_length_window() {
        use mempool_obs::Obs;
        let obs = Obs::new();
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.attach_obs(&obs, "boundary");
        cluster.enable_timeseries(16);
        cluster.load_program(
            Program::assemble(
                r#"
                    li   t1, 1000
                loop:
                    addi t1, t1, -1
                    bnez t1, loop
                    wfi
                "#,
            )
            .unwrap(),
        );
        cluster.preload_icaches();
        // Step to exactly the first epoch boundary: the sampler fires at
        // cycle 16 and re-baselines, so the next window has zero length.
        for _ in 0..16 {
            cluster.step().unwrap();
        }
        assert_eq!(cluster.cycle(), 16);
        let ipc = obs.series.samples("ipc/tile0");
        assert_eq!(ipc.len(), 1, "exactly one full epoch elapsed");
        assert_eq!(ipc[0].cycle, 16);

        // A crash dump right on the boundary must not flush a second,
        // zero-length sample (the old clamped denominator fabricated one).
        let dump = cluster.crash_dump(&SimError::Timeout { cycles: 16 });
        let ipc = obs.series.samples("ipc/tile0");
        assert_eq!(ipc.len(), 1, "zero-length windows are dropped, not clamped");
        assert!(Json::parse(&dump.to_pretty()).is_ok());

        // Two cycles later the flush covers a real (partial) window and
        // divides by its true length, not a clamped 1.
        cluster.step().unwrap();
        cluster.step().unwrap();
        cluster.crash_dump(&SimError::Timeout { cycles: 18 });
        let ipc = obs.series.samples("ipc/tile0");
        assert_eq!(ipc.len(), 2, "a partial epoch still flushes");
        assert_eq!(ipc[1].cycle, 18);
        assert!(
            ipc[1].value <= 1.0,
            "single-core IPC over the true 2-cycle window stays <= 1, got {}",
            ipc[1].value
        );
    }

    #[test]
    fn crash_dump_on_deadlock_reparses_with_liveness_and_events() {
        let obs = mempool_obs::Obs::new();
        let mut cluster = Cluster::new(four_tile_config(), slow_offchip());
        cluster.attach_obs(&obs, "crash-run");
        cluster.enable_timeseries(32);
        cluster.enable_flight(64);
        cluster.enable_trace(32);
        cluster.set_watchdog(50);
        // Core 0 waits on an off-chip load far beyond the watchdog's window.
        cluster.load_program(
            Program::assemble(
                r#"
                    csrr t1, mhartid
                    bnez t1, done
                    lw   a2, 0(zero)
                    li   t0, 0x80000000
                    lw   a0, 0(t0)
                    add  a1, a0, a0
                done:
                    wfi
                "#,
            )
            .unwrap(),
        );
        cluster.preload_icaches();
        let err = cluster.run(100_000).unwrap_err();
        let dump = cluster.crash_dump(&err);

        // The dump is self-contained: it survives a parse round-trip.
        let doc = Json::parse(&dump.to_pretty()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mempool-crashdump/v1")
        );
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("deadlock"));
        assert_eq!(doc.get("engine"), None, "the dump carries no engine record");
        let liveness = doc.get("liveness").and_then(Json::as_arr).unwrap();
        assert_eq!(liveness.len(), 4);
        assert_eq!(
            liveness[0].get("condition").and_then(Json::as_str),
            Some("waiting-on-memory")
        );
        let recent = liveness[0].get("recent").and_then(Json::as_arr).unwrap();
        assert!(
            !recent.is_empty(),
            "tracing was on, so the victim carries its last instructions"
        );

        // The merged event log holds the watchdog verdict, the served
        // memory traffic, and trace retires — sorted by cycle.
        let events = doc.get("events").and_then(Json::as_arr).unwrap();
        let category = |e: &Json| e.get("category").and_then(Json::as_str).map(String::from);
        assert!(events
            .iter()
            .any(|e| category(e).as_deref() == Some("watchdog")));
        assert!(events.iter().any(|e| category(e).as_deref() == Some("mem")));
        assert!(events
            .iter()
            .any(|e| category(e).as_deref() == Some("retire")));
        let cycles: Vec<i64> = events
            .iter()
            .map(|e| e.get("cycle").and_then(Json::as_int).unwrap())
            .collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "sorted by cycle");

        // The embedded trace doc is a valid Chrome Trace with counter rows.
        let trace = doc.get("trace").unwrap();
        let trace_events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(trace_events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
        assert!(doc.get("metrics").is_some());
        assert!(doc.get("timeseries").is_some());
    }

    /// However wide the window asked for, the sampler it arms is one a
    /// checkpoint restores, and arming it mid-run does not overflow.
    #[test]
    fn the_widest_sampling_window_restores() {
        let obs = mempool_obs::Obs::new();
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.load_program(Program::assemble("li a0, 1\nli a1, 2\nwfi").unwrap());
        cluster.run(100).unwrap();
        assert!(cluster.cycle() > 0);
        cluster.attach_obs(&obs, "wide");
        cluster.enable_timeseries(u64::MAX);
        let restored = Cluster::restore(&cluster.checkpoint()).unwrap();
        assert_eq!(restored.attach.sampler, cluster.attach.sampler);
    }

    /// Default timing but an off-chip port so slow that any off-chip
    /// load outlasts every watchdog window these tests arm.
    fn slow_offchip() -> SimParams {
        SimParams {
            offchip_latency: 10_000,
            ..SimParams::default()
        }
    }

    #[test]
    fn crash_dump_flushes_the_partial_sampling_epoch() {
        let obs = mempool_obs::Obs::new();
        let mut cluster = Cluster::new(tiny_config(), slow_offchip());
        cluster.attach_obs(&obs, "flush-run");
        // Window far beyond the crash point: only the dump-time flush can
        // produce samples.
        cluster.enable_timeseries(1_000_000);
        cluster.set_watchdog(20);
        cluster.load_program(
            Program::assemble("li t0, 0x80000000\nlw a0, 0(t0)\nadd a1, a0, a0\nwfi").unwrap(),
        );
        cluster.preload_icaches();
        let err = cluster.run(100_000).unwrap_err();
        assert!(obs.series.is_empty(), "no epoch boundary was reached");
        let dump = cluster.crash_dump(&err);
        let doc = Json::parse(&dump.to_pretty()).unwrap();
        let series = doc
            .get("timeseries")
            .and_then(|t| t.get("series"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(!series.is_empty(), "the partial epoch must be flushed");
        let trace_events = doc
            .get("trace")
            .and_then(|t| t.get("traceEvents"))
            .and_then(Json::as_arr)
            .unwrap();
        assert!(trace_events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
    }

    /// Four tiles of two cores, so that core 5 exists and tile 1 is
    /// remote from core 0.
    fn eight_core_config() -> ClusterConfig {
        ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(2)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap()
    }

    /// The fault and ECC events of a flight ring, one line each: cycle,
    /// category, core and message.
    fn fault_events(obs: &mempool_obs::Obs) -> Vec<String> {
        let events = obs.flight.events().into_iter();
        events
            .filter(|e| e.category != "mem")
            .map(|e| format!("{} {} {:?} {}", e.cycle, e.category, e.core, e.message))
            .collect()
    }

    #[test]
    fn the_flight_ring_words_every_kind_of_fault_event() {
        let cfg = eight_core_config();
        let mut cluster = Cluster::new(cfg, SimParams::default());
        let remote = cluster.storage().map().seq_addr(TileId(1), 0);
        let MemoryRegion::Spm(loc) = cluster.storage().map().locate(0) else {
            panic!("address 0 must be SPM");
        };
        let obs = mempool_obs::Obs::new();
        cluster.attach_obs(&obs, "fault-events");
        cluster.enable_flight(1024);
        let mut plan = FaultPlan::new(8);
        plan.push(FaultEvent::StuckBank {
            tile: TileId(0),
            bank: BankId(1),
        });
        plan.push(FaultEvent::LinkDegraded {
            tile: TileId(1),
            extra_latency: 3,
        });
        plan.push(FaultEvent::TransientFlip {
            cycle: 5,
            loc,
            mask: 1 << 7,
        });
        cluster.inject_faults(&plan).unwrap();
        // Core 0 waits for the flip, reads the flipped word, then reads
        // through tile 1's degraded link.
        cluster.load_program(
            Program::assemble(&format!(
                r#"
                    csrr t1, mhartid
                    bnez t1, done
                    li   t2, 20
                spin:
                    addi t2, t2, -1
                    bnez t2, spin
                    lw   a0, 0(zero)
                    li   t0, {remote}
                    lw   a1, 0(t0)
                    add  a2, a0, a1
                done:
                    wfi
                "#
            ))
            .unwrap(),
        );
        cluster.preload_icaches();
        cluster.run(10_000).unwrap();
        assert_eq!(
            fault_events(&obs),
            [
                "0 fault None stuck bank 1 on tile 0 remapped to spare 4",
                "5 fault None transient flip mask 0x80 at tile 0 bank 0 word 0",
                "63 ecc None corrected single-bit flip at tile 0 bank 0 word 0",
                "67 fault None retry through degraded link of tile 1 (+3 cycles)",
            ]
        );
    }

    #[test]
    fn a_detached_flight_ring_records_no_later_fault() {
        let mut cluster = Cluster::new(eight_core_config(), SimParams::default());
        let obs = mempool_obs::Obs::new();
        cluster.attach_obs(&obs, "detached");
        cluster.enable_flight(1024);
        let mut plan = FaultPlan::new(9);
        plan.push(FaultEvent::TransientFlip {
            cycle: 40,
            loc: BankLocation {
                tile: TileId(2),
                bank: BankId(3),
                word: 7,
            },
            mask: 1,
        });
        cluster.inject_faults(&plan).unwrap();
        cluster.load_program(
            Program::assemble("li t2, 60\nspin:\naddi t2, t2, -1\nbnez t2, spin\nwfi").unwrap(),
        );
        cluster.preload_icaches();
        for _ in 0..30 {
            cluster.step().unwrap();
        }
        cluster.detach_obs();
        let before = obs.flight.events();
        cluster.run(10_000).unwrap();
        assert_eq!(
            obs.flight.events(),
            before,
            "the detached ring gained events"
        );
        assert_eq!(cluster.fault_report().unwrap().transient_flips, 1);
    }

    #[test]
    fn crash_dump_without_obs_still_parses() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        // Stepping without a program is the simplest typed error; with no
        // obs attached the dump degrades to Null sections but stays valid.
        let err = cluster.run(100).unwrap_err();
        let dump = cluster.crash_dump(&err);
        let doc = Json::parse(&dump.to_pretty()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("mempool-crashdump/v1")
        );
        assert!(matches!(doc.get("metrics"), Some(Json::Null)));
        assert!(matches!(doc.get("trace"), Some(Json::Null)));
    }

    /// Two groups of four tiles of two cores: local, group-local and
    /// remote traffic all at once.
    fn two_group_config() -> ClusterConfig {
        ClusterConfig::builder()
            .groups(2)
            .tiles_per_group(4)
            .cores_per_tile(2)
            .banks_per_tile(4)
            .bank_words(128)
            .build()
            .unwrap()
    }

    /// An 8×8 integer matmul on 16 cores: each core computes every 16th
    /// element of `C = A·B`, two `k` steps (four loads) in flight at once.
    fn matmul_program(a: u32, b: u32, c: u32) -> Program {
        Program::assemble(&format!(
            r#"
                csrr s0, mhartid
                li   s1, {a}
                li   s2, {b}
                li   s3, {c}
            next:
                srli t0, s0, 3
                andi t1, s0, 7
                slli t0, t0, 5
                add  t0, t0, s1
                slli t1, t1, 2
                add  t1, t1, s2
                li   a0, 0
                li   t2, 4
            kloop:
                lw   a1, 0(t0)
                lw   a2, 0(t1)
                lw   a3, 4(t0)
                lw   a4, 32(t1)
                mul  a5, a1, a2
                mul  a6, a3, a4
                add  a0, a0, a5
                add  a0, a0, a6
                addi t0, t0, 8
                addi t1, t1, 64
                addi t2, t2, -1
                bnez t2, kloop
                slli t3, s0, 2
                add  t3, t3, s3
                sw   a0, 0(t3)
                addi s0, s0, 16
                li   t4, 64
                blt  s0, t4, next
                wfi
            "#
        ))
        .unwrap()
    }

    /// Every core: a contended AMO on one word, a hart-spread load/store
    /// pair, and an off-chip load/store pair, `trips` times.
    fn traffic_program(trips: u32) -> Program {
        Program::assemble(&format!(
            r#"
                csrr t1, mhartid
                slli t1, t1, 2
                li   t2, 0x80000000
                add  t2, t2, t1
                li   t6, {trips}
            loop:
                amoadd.w a0, t6, (zero)
                lw   a1, 64(t1)
                sw   a1, 256(t1)
                lw   a2, 0(t2)
                sw   t6, 4(t2)
                addi t6, t6, -1
                bnez t6, loop
                wfi
            "#
        ))
        .unwrap()
    }

    /// Runs `program` on a fresh two-group cluster to the end, in slices
    /// of a few cycles; between slices, with `reverse`, every core's
    /// pending responses are put in reverse order. Returns the cluster and
    /// what a result is made of: the final cycle, the stats digest, the
    /// attribution report and the SPM word touches.
    fn run_reversing(
        program: &Program,
        setup: impl Fn(&mut Cluster),
        reverse: bool,
    ) -> (Cluster, (u64, u64, String, u64)) {
        let cfg = two_group_config();
        let mut cluster = Cluster::new(cfg.clone(), SimParams::default());
        setup(&mut cluster);
        cluster.load_program(program.clone());
        cluster.preload_icaches();
        let mut reversed = 0;
        loop {
            match cluster.run(7) {
                Ok(_) => break,
                Err(SimError::Timeout { .. }) => {}
                Err(e) => panic!("{e}"),
            }
            if reverse {
                for pending in &mut cluster.machine.responses {
                    reversed += usize::from(pending.len() > 1);
                    pending.reverse();
                }
            }
        }
        assert!(!reverse || reversed > 0, "some core had two responses due");
        let stats = cluster.stats();
        let attribution = stats
            .attribution(cfg.cores_per_tile(), cfg.banks_per_tile())
            .to_json()
            .to_pretty();
        let result = (
            cluster.cycle(),
            stats.digest(),
            attribution,
            cluster.storage().spm_word_touches(),
        );
        (cluster, result)
    }

    #[test]
    fn the_order_of_a_cores_pending_responses_is_not_a_result() {
        // Responses reach a core's queue in the order bank service meets
        // them, which the checkpoint serializes. Delivery completes every
        // due one in a tick whatever the order, and completions commute:
        // the scoreboard lets each register wait on one response only.
        let base = Cluster::new(two_group_config(), SimParams::default())
            .storage()
            .map()
            .interleaved_base();
        let (a, b, c) = (base, base + 256, base + 512);
        let matmul = matmul_program(a, b, c);
        let fill = |cluster: &mut Cluster| {
            for i in 0..64 {
                cluster.write_spm_word(a + 4 * i, i + 1).unwrap();
                cluster.write_spm_word(b + 4 * i, 3 * i + 2).unwrap();
            }
        };
        let (cluster, plain) = run_reversing(&matmul, fill, false);
        for (i, j) in (0..8).flat_map(|i| (0..8).map(move |j| (i, j))) {
            let dot: u32 = (0..8)
                .map(|k| (8 * i + k + 1) * (3 * (8 * k + j) + 2))
                .sum();
            assert_eq!(cluster.read_spm_word(c + 4 * (8 * i + j)).unwrap(), dot);
        }
        assert_eq!(plain, run_reversing(&matmul, fill, true).1, "matmul");
        let traffic = traffic_program(24);
        let plain = run_reversing(&traffic, |_| {}, false).1;
        assert_eq!(plain, run_reversing(&traffic, |_| {}, true).1, "traffic");
    }

    // ----- the host's slice path for SPM words -----

    use mempool_arch::AddressMap;

    /// Fault scenarios the slice path must agree with the per-word calls
    /// under.
    #[derive(Debug, Clone, Copy)]
    enum HostIoFaults {
        None,
        RemappedBank,
        PendingEcc,
    }

    /// A 4-tile cluster whose every SPM word and first external words hold
    /// distinct data, with `faults` on top: nothing, a remapped bank, or
    /// pending single- and double-bit ECC errors in both regions.
    fn host_io_fixture(faults: HostIoFaults) -> Cluster {
        let config = ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(1)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap();
        let mut cluster = Cluster::new(config, SimParams::default());
        let spm_end = cluster.storage().map().spm_end() as u32;
        for addr in (0..spm_end).step_by(4) {
            cluster.write_spm_word(addr, addr ^ 0x5a5a_0000).unwrap();
        }
        for offset in (0..1024).step_by(4) {
            let addr = AddressMap::EXTERNAL_BASE + offset;
            cluster.write_spm_word(addr, offset | 0xe000_0000).unwrap();
        }
        let map = cluster.storage().map().clone();
        let seq_end = map.interleaved_base();
        let mut plan = FaultPlan::new(3);
        match faults {
            HostIoFaults::None => return cluster,
            HostIoFaults::RemappedBank => plan.push(FaultEvent::StuckBank {
                tile: TileId(1),
                bank: BankId(2),
            }),
            HostIoFaults::PendingEcc => {
                let flips = [
                    (16, 1 << 4),
                    (seq_end - 8, 0b11),
                    (seq_end + 12, 1),
                    (seq_end + 40, 0x300),
                    (spm_end - 64, 1 << 31),
                    (spm_end - 20, 0b101),
                ];
                for (addr, mask) in flips {
                    let MemoryRegion::Spm(loc) = map.locate(addr) else {
                        unreachable!("{addr:#x} lies in the SPM");
                    };
                    plan.push(FaultEvent::TransientFlip {
                        cycle: 0,
                        loc,
                        mask,
                    });
                }
            }
        }
        cluster.inject_faults(&plan).unwrap();
        // One tick lands the flips.
        cluster.load_program(Program::assemble("wfi").unwrap());
        cluster.step().unwrap();
        cluster
    }

    /// Everything a host access can change: memory, touches, ECC masks.
    fn host_state(cluster: &Cluster) -> String {
        cluster.checkpoint().to_string()
    }

    /// The oracle: storage's own word access, ECC step included, one
    /// word at a time, as the per-word calls behaved before the slice
    /// path.
    fn write_word_by_word(
        cluster: &mut Cluster,
        addr: u32,
        values: &[u32],
    ) -> Result<(), SimError> {
        for (addr, &value) in (addr..).step_by(4).zip(values) {
            cluster.machine.storage.write(addr, MemWidth::Word, value)?;
        }
        Ok(())
    }

    /// [`write_word_by_word`]'s read side, pushing each word read.
    fn read_word_by_word(
        cluster: &Cluster,
        addr: u32,
        len: usize,
        read: &mut Vec<u32>,
    ) -> Result<(), SimError> {
        for addr in (addr..).step_by(4).take(len) {
            read.push(cluster.machine.storage.read(addr, MemWidth::Word)?);
        }
        Ok(())
    }

    #[test]
    fn slice_path_equals_the_per_word_loop() {
        let mut rng = mempool_fault::XorShift64::new(0x51ce);
        for faults in [
            HostIoFaults::None,
            HostIoFaults::RemappedBank,
            HostIoFaults::PendingEcc,
        ] {
            let untouched = host_state(&host_io_fixture(faults));
            let map = host_io_fixture(faults).storage().map().clone();
            let anchors = [
                0,
                map.interleaved_base(),
                map.spm_end() as u32,
                AddressMap::EXTERNAL_BASE,
            ];
            for case in 0..120 {
                // Up to 64 words either side of a region boundary, one
                // start in eight misaligned, up to 96 words long.
                let anchor = i64::from(anchors[rng.below(4) as usize]);
                let start = (anchor + 4 * (rng.below(128) as i64 - 64)).max(0) as u32;
                let misalign = if rng.below(8) == 0 {
                    1 + rng.below(3)
                } else {
                    0
                };
                let addr = start + misalign as u32;
                let len = rng.below(97) as usize;
                let at = |i: usize| addr + 4 * i as u32;
                let what = format!("{faults:?} case {case}: {len} words at {addr:#x}");

                let values: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
                let mut oracle = host_io_fixture(faults);
                let want = write_word_by_word(&mut oracle, addr, &values);
                let mut looped = host_io_fixture(faults);
                let got = (0..len).try_for_each(|i| looped.write_spm_word(at(i), values[i]));
                assert_eq!(got, want, "{what}");
                assert_eq!(host_state(&looped), host_state(&oracle), "write {what}");
                let mut sliced = host_io_fixture(faults);
                assert_eq!(sliced.write_spm_words(addr, &values), want, "{what}");
                // A bad range writes nothing.
                let expected = if want.is_ok() {
                    host_state(&oracle)
                } else {
                    untouched.clone()
                };
                assert_eq!(host_state(&sliced), expected, "write {what}");

                let oracle = host_io_fixture(faults);
                let mut read = Vec::new();
                let want = read_word_by_word(&oracle, addr, len, &mut read);
                let looped = host_io_fixture(faults);
                let mut looped_read = Vec::new();
                let got = (0..len).try_for_each(|i| {
                    looped_read.push(looped.read_spm_word(at(i))?);
                    Ok(())
                });
                assert_eq!((got, &looped_read), (want.clone(), &read), "{what}");
                assert_eq!(host_state(&looped), host_state(&oracle), "read {what}");
                let sliced = host_io_fixture(faults);
                let mut out = vec![0; len];
                assert_eq!(sliced.read_spm_words(addr, &mut out), want, "{what}");
                match want {
                    // A bad range reads nothing.
                    Err(SimError::Memory(_)) => assert_eq!(host_state(&sliced), untouched),
                    // The read ends where the loop's does.
                    _ => {
                        assert_eq!(out[..read.len()], read, "{what}");
                        assert_eq!(host_state(&sliced), host_state(&oracle), "read {what}");
                    }
                }
            }
        }
    }
}
