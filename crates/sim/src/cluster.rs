//! The cluster simulator.
//!
//! One [`Cluster`] owns every core, SPM bank, instruction cache, and the
//! off-chip port, and advances them in lock-step cycles. Each cycle has
//! three phases (DESIGN.md § "Execution engine" has the full tick
//! anatomy):
//!
//! 1. **bank service** — every bank serves at most one request whose
//!    network arrival lies strictly in the past (earliest arrival first,
//!    FIFO among ties, counting conflict cycles);
//! 2. **response delivery** — completed transactions write back to their
//!    core's register file and release scoreboard entries;
//! 3. **issue** — every non-halted core consumes pipeline bubbles, checks
//!    its I$, and issues at most one instruction through the scoreboard.
//!
//! The phase split realizes the paper's zero-load latencies exactly: a
//! tile-local load issued in cycle `c` is usable in cycle `c+1`, a
//! group-local one in `c+3`, and a remote one in `c+5`.

use std::fmt;

use mempool_arch::{
    AccessClass, BankLocation, ClusterConfig, GlobalCoreId, LatencyModel, MemoryRegion, RemapError,
    TileId, Topology,
};
use mempool_fault::{CoreDiagnostic, FaultController, FaultPlan, FaultReport, Watchdog};
use mempool_isa::exec::{MemAccessKind, MemWidth};
use mempool_isa::{Program, Reg};
use mempool_obs::{chrome_trace_with_counters, Counter, FlightRecorder, Json, Obs, TrackId};

use crate::ckpt::words_struct;
use crate::core::{Core, IssueRecord};
use crate::engine;
use crate::icache::ICache;
use crate::memory::{MemoryError, Storage};
use crate::offchip::OffchipPort;
use crate::params::SimParams;
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
    /// (e.g. a request black-holed by a dead F2F link).
    ResumeWithOutstanding {
        /// The offending core.
        core: GlobalCoreId,
        /// Its outstanding-transaction count.
        outstanding: u32,
    },
    /// An access targeted a tile behind a dead (open) F2F link, under the
    /// fail-fast [`mempool_fault::DeadLinkPolicy::Error`] policy.
    LinkDead {
        /// Tile whose vertical link is open.
        tile: TileId,
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
            SimError::LinkDead { .. } => "link-dead",
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
            SimError::LinkDead { tile } => {
                write!(f, "access through dead F2F link of tile {tile}")
            }
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
    fn from(e: MemoryError) -> Self {
        SimError::Memory(e)
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
/// only touches it at quantum boundaries, replaying what its lane logged.
#[derive(Debug)]
pub(crate) struct ClusterObs {
    pub(crate) obs: Obs,
    /// Timeline of off-chip port activity (DMA transfers and waits).
    dma_track: TrackId,
    /// One timeline per core, for `wfi`/resume (barrier) spans.
    pub(crate) core_tracks: Vec<TrackId>,
    dma_bytes: Counter,
    dma_transfers: Counter,
    pub(crate) bank_conflicts: Counter,
    pub(crate) icache_misses: Counter,
    pub(crate) fault_retries: Counter,
    pub(crate) ecc_corrected: Counter,
}

/// Everything the time-series sampler reads at a window boundary, in one
/// snapshot (totals, not deltas — the sampler holds the baselines).
#[derive(Debug, Default)]
pub(crate) struct SampleInputs {
    pub retired_per_tile: Vec<u64>,
    pub local_accesses: u64,
    pub remote_accesses: u64,
    pub conflicts: u64,
    pub offchip_bytes: u64,
    pub spm_touches: u64,
    pub outstanding: u64,
    pub backlog: u64,
    pub peak_bytes_per_cycle: f64,
}

impl SampleInputs {
    /// The per-core and per-bank totals of `cores` and `banks`, grouped
    /// into `num_tiles` tiles of `cores_per_tile` cores; the off-chip,
    /// SPM and backlog inputs are left for the caller.
    pub(crate) fn totals(
        cores: &[Core],
        banks: &[Bank],
        cores_per_tile: usize,
        num_tiles: usize,
    ) -> Self {
        let mut inputs = SampleInputs {
            retired_per_tile: vec![0u64; num_tiles],
            ..SampleInputs::default()
        };
        for (i, core) in cores.iter().enumerate() {
            inputs.retired_per_tile[i / cores_per_tile] += core.stats.retired;
            inputs.local_accesses += core.stats.accesses[AccessClass::TileLocal as usize];
            inputs.remote_accesses += core.stats.accesses[AccessClass::GroupLocal as usize]
                + core.stats.accesses[AccessClass::Remote as usize];
            inputs.outstanding += u64::from(core.outstanding());
        }
        inputs.conflicts = banks.iter().map(|b| b.stats.conflicts).sum();
        inputs
    }
}

/// Per-epoch sampling state for the cycle-sampled time-series
/// (see [`Cluster::enable_timeseries`]). Holds the counter totals at the
/// previous sample so each epoch records deltas.
#[derive(Debug)]
pub(crate) struct Sampler {
    pub(crate) window: u64,
    /// True start cycle of the open epoch (the previous sample, or the
    /// cycle sampling was enabled at). Carried exactly — never clamped —
    /// so rate denominators are true elapsed cycles and zero-length
    /// windows can be dropped instead of spiking.
    pub(crate) epoch_start: u64,
    /// First cycle at (or after) which to take the next sample.
    pub(crate) next_at: u64,
    pub(crate) retired_per_tile: Vec<u64>,
    pub(crate) local_accesses: u64,
    pub(crate) remote_accesses: u64,
    pub(crate) conflicts: u64,
    pub(crate) offchip_bytes: u64,
    pub(crate) spm_touches: u64,
}

words_struct!(Sampler {
    window,
    epoch_start,
    next_at,
    retired_per_tile,
    local_accesses,
    remote_accesses,
    conflicts,
    offchip_bytes,
    spm_touches,
});

impl Sampler {
    /// Re-baselines the counters at `now`: the next epoch's deltas are
    /// read against `inputs` and close no earlier than `now + window`.
    pub(crate) fn rebaseline(&mut self, inputs: SampleInputs, now: u64) {
        self.retired_per_tile = inputs.retired_per_tile;
        self.local_accesses = inputs.local_accesses;
        self.remote_accesses = inputs.remote_accesses;
        self.conflicts = inputs.conflicts;
        self.offchip_bytes = inputs.offchip_bytes;
        self.spm_touches = inputs.spm_touches;
        self.epoch_start = now;
        self.next_at = now + self.window;
    }

    /// Why this sampler cannot go on sampling `totals` from cycle `now`,
    /// if it cannot: its window must be one the engine's clock can add
    /// (nonzero, and within the same quarter of the `u64` range the clock
    /// is held to), its epoch must not start after `now`, and no baseline
    /// may exceed the total it is subtracted from.
    pub(crate) fn check_resume(&self, totals: &SampleInputs, now: u64) -> Result<(), String> {
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
        if self.retired_per_tile.len() != totals.retired_per_tile.len() {
            return Err(format!(
                "sampler has {} tile baselines for {} tiles",
                self.retired_per_tile.len(),
                totals.retired_per_tile.len()
            ));
        }
        let scalars = [
            (self.local_accesses, totals.local_accesses),
            (self.remote_accesses, totals.remote_accesses),
            (self.conflicts, totals.conflicts),
            (self.offchip_bytes, totals.offchip_bytes),
            (self.spm_touches, totals.spm_touches),
        ];
        let mut pairs = (self.retired_per_tile.iter().copied())
            .zip(totals.retired_per_tile.iter().copied())
            .chain(scalars);
        match pairs.find(|(baseline, total)| baseline > total) {
            Some((baseline, total)) => Err(format!(
                "sampler baseline {baseline} exceeds the restored total {total}"
            )),
            None => Ok(()),
        }
    }
}

/// Cycle-accurate model of a MemPool cluster.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug)]
pub struct Cluster {
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
    pub(crate) offchip: OffchipPort,
    pub(crate) cycle: u64,
    pub(crate) dma_bytes: u64,
    pub(crate) dma_cycles: u64,
    pub(crate) trace: Option<Trace>,
    pub(crate) obs: Option<ClusterObs>,
    /// Injected-fault state, present only in fault-injection runs.
    pub(crate) faults: Option<FaultController>,
    /// Forward-progress watchdog, armed by [`Cluster::set_watchdog`].
    pub(crate) watchdog: Option<Watchdog>,
    /// Per-epoch sampling state, armed by [`Cluster::enable_timeseries`].
    pub(crate) sampler: Option<Sampler>,
    /// Whether cluster events mirror into the obs flight ring
    /// (armed by [`Cluster::enable_flight`]).
    pub(crate) flight_enabled: bool,
    /// Preallocated buffers for the engine's hot path (its lane and
    /// live-bank sets), reused across ticks and runs.
    pub(crate) quantum: engine::QuantumArena,
}

impl Cluster {
    /// Creates a cluster with zeroed memory and no program.
    pub fn new(config: ClusterConfig, params: SimParams) -> Self {
        let num_cores = config.num_cores() as usize;
        let num_banks = config.num_banks() as usize;
        let num_tiles = config.num_tiles() as usize;
        let storage = Storage::new(&config);
        let banks = vec![Bank::default(); num_banks];
        let mut quantum = engine::QuantumArena::default();
        quantum.rebuild_live(&banks, config.banks_per_tile() as usize);
        let icaches = (0..num_tiles)
            .map(|_| {
                ICache::with_ways(
                    config.icache_bytes_per_tile(),
                    params.icache_line_words,
                    params.icache_ways,
                )
            })
            .collect();
        Cluster {
            topo: Topology::new(config.clone()),
            config,
            storage,
            program: Program::default(),
            records: Vec::new(),
            cores: (0..num_cores).map(|_| Core::new()).collect(),
            icaches,
            banks,
            responses: vec![Vec::new(); num_cores],
            offchip: OffchipPort::new(params.offchip_bytes_per_cycle, params.offchip_latency),
            params,
            cycle: 0,
            dma_bytes: 0,
            dma_cycles: 0,
            trace: None,
            obs: None,
            faults: None,
            watchdog: None,
            sampler: None,
            flight_enabled: false,
            quantum,
        }
    }

    /// The host threads [`Cluster::run`] uses: always `1`, whatever
    /// [`SimParams::threads`] says. Kept only because the benchmark crate
    /// still reports it.
    pub fn effective_workers(&self) -> usize {
        1
    }

    /// Attaches an observability handle. The cluster records DMA transfers
    /// and waits as spans on a `dma` track, each core's `wfi`-to-resume
    /// (barrier) intervals as spans on per-core tracks, and DMA bytes /
    /// transfer and bank-conflict counts as labeled metrics — all grouped
    /// under a trace process named `run`.
    ///
    /// Recording costs nothing until attached; re-attaching replaces the
    /// previous attachment (closing its open spans).
    pub fn attach_obs(&mut self, obs: &Obs, run: &str) {
        self.detach_obs();
        let process = obs.spans.process(run);
        let dma_track = obs.spans.track(process, "dma");
        let core_tracks = (0..self.cores.len())
            .map(|i| obs.spans.track(process, &format!("core{i}")))
            .collect();
        let labels = [("run", run)];
        self.obs = Some(ClusterObs {
            dma_track,
            core_tracks,
            dma_bytes: obs.metrics.counter("sim_dma_bytes_total", &labels),
            dma_transfers: obs.metrics.counter("sim_dma_transfers_total", &labels),
            bank_conflicts: obs
                .metrics
                .counter("sim_bank_conflict_cycles_total", &labels),
            icache_misses: obs.metrics.counter("sim_icache_misses_total", &labels),
            fault_retries: obs.metrics.counter("sim_fault_retries_total", &labels),
            ecc_corrected: obs.metrics.counter("sim_ecc_corrected_total", &labels),
            obs: obs.clone(),
        });
    }

    /// Detaches the observability handle, closing any spans this cluster
    /// left open (e.g. cores still parked at `wfi`) at the current cycle.
    /// Time-series sampling and flight recording stop with it.
    pub fn detach_obs(&mut self) {
        if let Some(hooks) = self.obs.take() {
            for &track in &hooks.core_tracks {
                while hooks.obs.spans.end(track, self.cycle).is_some() {}
            }
        }
        self.sampler = None;
        self.flight_enabled = false;
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
    ///   bandwidth consumed by scheduled transfers (can exceed 1 when
    ///   asynchronous DMA books the port ahead of time);
    /// * `offchip_backlog` — cycles of already scheduled off-chip work
    ///   still draining;
    /// * `outstanding` — in-flight memory transactions across all cores;
    /// * `spm_touch_rate` — SPM words read or written per cycle (includes
    ///   DMA word traffic).
    ///
    /// Epochs only close inside `step()`/`run()`; clock jumps (synchronous DMA,
    /// [`Cluster::advance_to`]) fold into the next sample, whose rates are
    /// computed over the true elapsed cycles. A zero `window` is clamped
    /// to 1.
    ///
    /// # Panics
    ///
    /// Panics if no observability handle is attached.
    pub fn enable_timeseries(&mut self, window: u64) {
        let hooks = self
            .obs
            .as_ref()
            .expect("attach_obs before enable_timeseries");
        hooks.obs.series.set_window(window);
        let window = hooks.obs.series.window();
        let inputs = self.sample_inputs(self.cycle);
        let mut sampler = Sampler {
            window,
            epoch_start: self.cycle,
            next_at: self.cycle + window,
            retired_per_tile: Vec::new(),
            local_accesses: 0,
            remote_accesses: 0,
            conflicts: 0,
            offchip_bytes: 0,
            spm_touches: 0,
        };
        sampler.rebaseline(inputs, self.cycle);
        self.sampler = Some(sampler);
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
        let hooks = self.obs.as_ref().expect("attach_obs before enable_flight");
        hooks.obs.flight.set_capacity(capacity);
        self.flight_enabled = true;
        let flight = hooks.obs.flight.clone();
        if let Some(faults) = self.faults.as_mut() {
            faults.attach_flight(flight);
        }
    }

    /// The flight ring to record into, when flight recording is on.
    fn flight_handle(&self) -> Option<FlightRecorder> {
        if !self.flight_enabled {
            return None;
        }
        self.obs.as_ref().map(|hooks| hooks.obs.flight.clone())
    }

    /// Collects the time-series sampling snapshot at `now`. Runs once per
    /// sampling epoch: kept out of line so that it stays out of the
    /// engine's tick loop, which calls it.
    #[inline(never)]
    pub(crate) fn sample_inputs(&self, now: u64) -> SampleInputs {
        let mut inputs = SampleInputs::totals(
            &self.cores,
            &self.banks,
            self.config.cores_per_tile() as usize,
            self.config.num_tiles() as usize,
        );
        inputs.offchip_bytes = self.offchip.total_bytes();
        inputs.spm_touches = self.storage.spm_word_touches();
        inputs.backlog = self.offchip.backlog(now);
        inputs.peak_bytes_per_cycle = self.offchip.bytes_per_cycle() as f64;
        inputs
    }

    /// Pushes one sample per series for the window ending at `now`, with
    /// deltas of `inputs` read against `sampler`'s baselines. The
    /// baselines are left untouched — the engine re-baselines at epoch
    /// boundaries, while [`Self::crash_dump`] uses this directly to flush
    /// a partial epoch. Zero-length windows (a flush at the exact epoch
    /// start) are dropped rather than clamped — a clamped denominator of
    /// 1 would spike every rate.
    pub(crate) fn push_samples(&self, sampler: &Sampler, now: u64, inputs: &SampleInputs) {
        let Some(hooks) = self.obs.as_ref() else {
            return;
        };
        if now <= sampler.epoch_start {
            return;
        }
        let series = &hooks.obs.series;
        let elapsed = (now - sampler.epoch_start) as f64;
        for (t, (&total, &baseline)) in inputs
            .retired_per_tile
            .iter()
            .zip(sampler.retired_per_tile.iter())
            .enumerate()
        {
            series.push(
                &format!("ipc/tile{t}"),
                now,
                (total - baseline) as f64 / elapsed,
            );
        }
        series.push(
            "l1_local_rate",
            now,
            (inputs.local_accesses - sampler.local_accesses) as f64 / elapsed,
        );
        series.push(
            "l1_remote_rate",
            now,
            (inputs.remote_accesses - sampler.remote_accesses) as f64 / elapsed,
        );
        series.push(
            "bank_conflict_rate",
            now,
            (inputs.conflicts - sampler.conflicts) as f64 / elapsed,
        );
        series.push(
            "offchip_occupancy",
            now,
            (inputs.offchip_bytes - sampler.offchip_bytes) as f64
                / (elapsed * inputs.peak_bytes_per_cycle),
        );
        series.push("offchip_backlog", now, inputs.backlog as f64);
        series.push("outstanding", now, inputs.outstanding as f64);
        series.push(
            "spm_touch_rate",
            now,
            (inputs.spm_touches - sampler.spm_touches) as f64 / elapsed,
        );
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Loads `program` into every core's instruction path and resets all
    /// program counters to 0.
    pub fn load_program(&mut self, program: Program) {
        self.install_program(program);
        for core in &mut self.cores {
            core.pc = 0;
        }
    }

    /// Installs `program` and decodes its issue records; the only place
    /// either field is written, so the two never disagree.
    pub(crate) fn install_program(&mut self, program: Program) {
        self.records = program
            .instrs()
            .iter()
            .map(|&instr| IssueRecord::decode(instr))
            .collect();
        self.program = program;
    }

    /// Preloads every tile's I$ with the program (hot-cache measurement
    /// mode, Section VI-A).
    pub fn preload_icaches(&mut self) {
        let words = self.program.len() as u32;
        for icache in &mut self.icaches {
            icache.preload(words);
        }
    }

    /// Restarts all cores at `pc`, clearing the halted state. Register
    /// files and memory contents are preserved, so multi-phase kernels can
    /// pass state between phases. Cores hung by an injected fault stay
    /// parked.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ResumeWithOutstanding`] if a core still has
    /// in-flight transactions (e.g. a request black-holed by a dead F2F
    /// link) — restarting it would corrupt the scoreboard.
    pub fn resume_all(&mut self, pc: u32) -> Result<(), SimError> {
        for (i, core) in self.cores.iter().enumerate() {
            if !core.hung() && core.outstanding() > 0 {
                return Err(SimError::ResumeWithOutstanding {
                    core: GlobalCoreId::new(i as u32),
                    outstanding: core.outstanding(),
                });
            }
        }
        if let Some(hooks) = &self.obs {
            for (core, &track) in self.cores.iter().zip(&hooks.core_tracks) {
                if core.halted() {
                    hooks.obs.spans.end(track, self.cycle);
                }
            }
        }
        for core in &mut self.cores {
            if !core.hung() {
                core.reset_at(pc);
            }
        }
        self.note_external_progress();
        Ok(())
    }

    /// Injects the faults of `plan` into this cluster: stuck banks are
    /// taken out of service by remapping them onto per-tile spares (their
    /// contents migrate), link health and timed events (bit flips, core
    /// hangs) are armed for delivery as the clock reaches them.
    ///
    /// Injecting replaces any previously injected plan.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Remap`] if the spare-bank policy cannot cover
    /// the plan's stuck banks (e.g. two stuck banks reported for the same
    /// physical bank).
    pub fn inject_faults(&mut self, plan: &FaultPlan) -> Result<(), SimError> {
        let mut ctrl = FaultController::new(plan, self.config.num_tiles());
        if let Some(flight) = self.flight_handle() {
            ctrl.attach_flight(flight);
        }
        let num_tiles = self.config.num_tiles();
        let mut per_tile = vec![0u32; num_tiles as usize];
        for &(tile, _) in ctrl.stuck_banks() {
            if let Some(count) = per_tile.get_mut(tile.index()) {
                *count += 1;
            }
        }
        let spares_needed = per_tile.iter().copied().max().unwrap_or(0);
        if spares_needed > 0 {
            self.storage.provision_spares(spares_needed);
            let stuck = ctrl.stuck_banks().to_vec();
            for (tile, bank) in stuck {
                if tile.index() >= num_tiles as usize {
                    continue;
                }
                let spare = self.storage.remap_bank(tile, bank)?;
                ctrl.record_remap(tile, bank, spare);
            }
        }
        self.faults = Some(ctrl);
        Ok(())
    }

    /// Arms the forward-progress watchdog: if no core retires an
    /// instruction and no memory response is delivered for `threshold`
    /// consecutive cycles, the engine raises [`SimError::Deadlock`]
    /// with a per-core diagnostic snapshot.
    pub fn set_watchdog(&mut self, threshold: u64) {
        self.watchdog = Some(Watchdog::new(threshold, self.cycle));
    }

    /// The accumulated fault report, if a plan was injected.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults.as_ref().map(FaultController::report)
    }

    /// Snapshot of every core's liveness state (used in deadlock
    /// diagnostics). When instruction tracing is enabled, each snapshot
    /// carries the core's last few retired instructions.
    pub(crate) fn core_diagnostics(&self) -> Vec<CoreDiagnostic> {
        let recent = |core: usize| {
            let Some(trace) = &self.trace else {
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
                hung: core.hung(),
                outstanding: core.outstanding(),
                retired: core.stats.retired,
                recent: recent(i),
            })
            .collect()
    }

    /// Watchdog hook for clock jumps outside `step()` (DMA, resume): the
    /// cluster made externally visible progress.
    fn note_external_progress(&mut self) {
        let now = self.cycle;
        if let Some(watchdog) = self.watchdog.as_mut() {
            watchdog.note_progress(now);
        }
    }

    /// Reads a register of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn reg(&self, core: GlobalCoreId, reg: Reg) -> u32 {
        self.cores[core.index()].regs.read(reg)
    }

    /// Reads an SPM or external word directly (no timing). Latent
    /// single-bit errors are corrected on the fly (without scrubbing —
    /// debug reads leave the stored word untouched).
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses, or an
    /// uncorrectable multi-bit error under fault injection.
    pub fn read_spm_word(&self, addr: u32) -> Result<u32, SimError> {
        let word = self.storage.read(addr, MemWidth::Word)?;
        if let Some(faults) = &self.faults {
            if let MemoryRegion::Spm(loc) = self.storage.map().locate(addr & !3) {
                if let Some(mask) = faults.pending_mask(loc) {
                    if mask.count_ones() == 1 {
                        return Ok(word ^ mask);
                    }
                    return Err(SimError::EccUncorrectable { loc, mask });
                }
            }
        }
        Ok(word)
    }

    /// Writes an SPM or external word directly (no timing), clearing any
    /// latent ECC error on the overwritten word.
    ///
    /// # Errors
    ///
    /// Returns an error for unmapped or misaligned addresses.
    pub fn write_spm_word(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        self.storage.write(addr, MemWidth::Word, value)?;
        if let MemoryRegion::Spm(loc) = self.storage.map().locate(addr & !3) {
            if let Some(faults) = self.faults.as_mut() {
                faults.ecc_clear(loc);
            }
        }
        Ok(())
    }

    /// The storage backing the SPM and external memory.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable access to the backing storage (for bulk initialization).
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Whether every core has halted.
    pub(crate) fn all_halted(&self) -> bool {
        self.cores.iter().all(Core::halted)
    }

    /// Whether the cluster is fully quiescent: every core halted *and*
    /// every in-flight memory transaction drained. `wfi` does not cancel
    /// outstanding transactions, so a run only ends here.
    pub fn quiescent(&self) -> bool {
        self.all_halted()
            && self.banks.iter().all(|b| b.queue.is_empty())
            && self.responses.iter().all(Vec::is_empty)
            && self.cores.iter().all(|c| c.outstanding() == 0)
    }

    /// DMA-transfers a 2D tile between external memory and the SPM: `rows`
    /// rows of `row_bytes` bytes, laid out in external memory with
    /// `ext_stride_bytes` between row starts and packed contiguously in the
    /// SPM starting at `spm_addr`. Charged as a *single* bandwidth-limited
    /// transfer (the paper idealizes off-chip latency).
    ///
    /// # Errors
    ///
    /// Returns an error if any SPM address in the range is unmapped.
    pub fn dma_tile(
        &mut self,
        ext_base: u64,
        ext_stride_bytes: u64,
        spm_addr: u32,
        rows: u32,
        row_bytes: u32,
        to_spm: bool,
    ) -> Result<u64, SimError> {
        let start = self.cycle;
        let done = self.transfer(
            "dma_tile",
            ext_base,
            ext_stride_bytes,
            spm_addr,
            rows,
            u64::from(row_bytes),
            to_spm,
            true,
        )?;
        Ok(done - start)
    }

    /// Starts an *asynchronous* tile DMA: the transfer occupies the
    /// off-chip port (serializing with other transfers) but simulated time
    /// does **not** advance — the cores keep running, which is what makes
    /// double-buffered kernels possible. Returns the completion cycle.
    ///
    /// Data movement is applied immediately; by the double-buffering
    /// contract the program must not touch the destination buffer before
    /// [`Self::advance_to`] the returned cycle.
    ///
    /// # Errors
    ///
    /// Returns an error if any SPM address in the range is unmapped.
    pub fn dma_tile_async(
        &mut self,
        ext_base: u64,
        ext_stride_bytes: u64,
        spm_addr: u32,
        rows: u32,
        row_bytes: u32,
        to_spm: bool,
    ) -> Result<u64, SimError> {
        self.transfer(
            "dma_async",
            ext_base,
            ext_stride_bytes,
            spm_addr,
            rows,
            u64::from(row_bytes),
            to_spm,
            false,
        )
    }

    /// Advances simulated time to at least `cycle` with the cores idle
    /// (waiting on an asynchronous DMA); the waiting cycles are accounted
    /// as DMA time.
    pub fn advance_to(&mut self, cycle: u64) {
        if cycle > self.cycle {
            if let Some(hooks) = &self.obs {
                hooks.obs.spans.complete(
                    hooks.dma_track,
                    "dma_wait",
                    self.cycle,
                    cycle,
                    Vec::new(),
                );
            }
            self.dma_cycles += cycle - self.cycle;
            self.cycle = cycle;
            self.note_external_progress();
        }
    }

    /// The one DMA path: moves `rows` rows of `row_bytes` bytes word by
    /// word, books the off-chip port for one transfer of that size, and
    /// records it (counters, `name` span, flight event). A blocking
    /// transfer stalls the cluster until the port is done; an asynchronous
    /// one leaves the clock alone. Returns the completion cycle.
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        name: &'static str,
        ext_base: u64,
        ext_stride_bytes: u64,
        spm_addr: u32,
        rows: u32,
        row_bytes: u64,
        to_spm: bool,
        blocking: bool,
    ) -> Result<u64, SimError> {
        debug_assert_eq!(row_bytes % 4, 0, "dma moves whole words");
        for r in 0..u64::from(rows) {
            let ext_row = ext_base + r * ext_stride_bytes;
            let spm_row = spm_addr + (r * row_bytes) as u32;
            for i in (0..row_bytes).step_by(4) {
                if to_spm {
                    let value = self.storage.read_external_word(ext_row + i);
                    self.storage
                        .write(spm_row + i as u32, MemWidth::Word, value)?;
                } else {
                    let value = self.storage.read(spm_row + i as u32, MemWidth::Word)?;
                    self.storage.write_external_word(ext_row + i, value);
                }
            }
            if to_spm {
                self.ecc_clear_spm_range(spm_row, row_bytes);
            }
        }
        let bytes = u64::from(rows) * row_bytes;
        let issued = self.cycle;
        let done = self.offchip.schedule(issued, bytes);
        self.dma_bytes += bytes;
        if blocking {
            self.dma_cycles += done - issued;
            self.cycle = done;
            self.note_external_progress();
        }
        if let Some(hooks) = &self.obs {
            // The transfer occupies the port for its serialization window,
            // which may start after `issued` if the port is busy; a
            // blocking transfer's span covers the whole stall.
            let start = if blocking {
                issued
            } else {
                done - self.offchip.transfer_cycles(bytes)
            };
            let args = vec![
                ("bytes".to_string(), Json::Int(bytes as i64)),
                ("direction".to_string(), Json::str(dma_dir(to_spm))),
            ];
            hooks
                .obs
                .spans
                .complete(hooks.dma_track, name, start, done, args);
            hooks.dma_bytes.add(bytes);
            hooks.dma_transfers.inc();
        }
        if let Some(flight) = self.flight_handle() {
            let dir = dma_dir(to_spm);
            let message = if blocking {
                format!("{name} {bytes} B {dir} over {} cycles", done - issued)
            } else {
                format!("{name} {bytes} B {dir} completing at cycle {done}")
            };
            flight.record(issued, "dma", None, message);
        }
        Ok(done)
    }

    /// Clears latent ECC masks on a freshly (over)written SPM range —
    /// bulk writes leave error-free words behind, exactly like stores.
    fn ecc_clear_spm_range(&mut self, spm_addr: u32, bytes: u64) {
        let latent = self.faults.as_ref().is_some_and(|f| f.has_pending_errors());
        if !latent {
            return;
        }
        for i in (0..bytes).step_by(4) {
            if let MemoryRegion::Spm(loc) = self.storage.map().locate(spm_addr + i as u32) {
                if let Some(faults) = self.faults.as_mut() {
                    faults.ecc_clear(loc);
                }
            }
        }
    }

    /// Advances the cluster by one cycle: a one-tick round of the same
    /// engine [`Cluster::run`] drives.
    ///
    /// # Errors
    ///
    /// Returns an error on fetch or data-access faults, an uncorrectable
    /// ECC error, a dead-link access (under the fail-fast policy), or a
    /// watchdog-detected deadlock.
    #[must_use = "a step can fail with a SimError that must not be ignored"]
    pub fn step(&mut self) -> Result<(), SimError> {
        engine::step(self)
    }

    /// Runs until every core halts, returning the cycle count at that
    /// point.
    ///
    /// The engine advances in quanta of up to 1024 cycles on the calling
    /// thread; any split of a run into [`Cluster::step`] and
    /// [`Cluster::run`] calls — instrumented, fault-injected or bare — is
    /// bit-identical in every observable way (stats, time-series, fault
    /// reports, errors).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the budget is exhausted first, or
    /// any fault raised while stepping.
    #[must_use = "a run can fail with a SimError that must not be ignored"]
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, SimError> {
        engine::run_quantum(self, max_cycles)
    }

    /// The engine record written into `BENCH_repro.json`, `observed.json`
    /// and `crashdump.json`: there is one engine, so this is [`ENGINE`]
    /// for every cluster.
    pub fn engine_selection(&self) -> EngineSelection {
        ENGINE
    }

    /// Total reserved capacity (entries) across the engine's preallocated
    /// buffers. Exposed for the arena-invariant tests, which assert the
    /// footprint stops growing once a workload reaches steady state.
    #[doc(hidden)]
    pub fn engine_arena_footprint(&self) -> u64 {
        self.quantum.footprint()
    }

    /// Collects a snapshot of all statistics.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            cycles: self.cycle,
            cores: self.cores.iter().map(|c| c.stats).collect(),
            banks: self.banks.iter().map(|b| b.stats).collect(),
            dma_bytes: self.dma_bytes,
            dma_cycles: self.dma_cycles,
        }
    }

    /// Enables instruction tracing, keeping the most recent `capacity`
    /// retired instructions across all cores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The instruction trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Builds the self-contained `crashdump.json` document for a run that
    /// died with `err`: the error (message + stable kind), per-core
    /// liveness snapshots (with recent instructions when tracing was on),
    /// the final approach to the failure as a cycle-ordered event window
    /// (flight ring merged with trace retires), and — when an [`Obs`]
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
        if let Some(hooks) = &self.obs {
            for event in hooks.obs.flight.events() {
                events.push((event.cycle, events.len(), event.to_json()));
            }
            dropped += hooks.obs.flight.dropped();
        }
        if let Some(trace) = &self.trace {
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
        // epoch boundary) is dropped by `push_samples` itself.
        if let Some(sampler) = &self.sampler {
            self.push_samples(sampler, self.cycle, &self.sample_inputs(self.cycle));
        }

        let (metrics, timeseries, chrome) = match &self.obs {
            Some(hooks) => {
                hooks.obs.spans.close_all(self.cycle);
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
            ("cycle", Json::Int(self.cycle as i64)),
            ("engine", self.engine_selection().to_json()),
            (
                "liveness",
                Json::Arr(
                    self.core_diagnostics()
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
            ("metrics", metrics),
            ("timeseries", timeseries),
            ("trace", chrome),
        ])
    }
}

/// The execution-engine record carried by artifacts — see
/// [`Cluster::engine_selection`]. Both fields are short stable strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSelection {
    /// Engine name.
    pub engine: &'static str,
    /// What that engine is.
    pub reason: &'static str,
}

impl EngineSelection {
    /// `{"name": ..., "reason": ...}` — string-valued on purpose, so the
    /// regression comparator (which diffs numeric leaves only) skips it.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.engine)),
            ("reason", Json::str(self.reason)),
        ])
    }
}

/// The one execution engine every run uses.
pub const ENGINE: EngineSelection = EngineSelection {
    engine: "quantum",
    reason: "tile shards in lockstep quanta with shard-local observation lanes",
};

/// How many of a core's most recent retired instructions a
/// [`CoreDiagnostic`] carries (when tracing is enabled).
const DIAGNOSTIC_RECENT_WINDOW: usize = 8;

/// Splits a zero-load latency into request and response halves around the
/// single bank-service cycle.
pub(crate) fn latency_split(latency: &LatencyModel, class: AccessClass) -> (u32, u32) {
    let total = latency.cycles(class);
    let request = (total - 1) / 2;
    (request, total - 1 - request)
}

/// Direction tag of a DMA span and flight event.
fn dma_dir(to_spm: bool) -> &'static str {
    if to_spm {
        "to_spm"
    } else {
        "to_ext"
    }
}

/// Address an instruction is about to access, computed *without* side
/// effects (post-increments are not applied) — used for remote-port
/// arbitration before the instruction actually issues.
pub(crate) fn mem_probe_addr(
    instr: mempool_isa::Instr,
    regs: &mempool_isa::RegFile,
) -> Option<u32> {
    use mempool_isa::Instr;
    match instr {
        Instr::Load { rs1, offset, .. } | Instr::Store { rs1, offset, .. } => {
            Some(regs.read(rs1).wrapping_add(offset as u32))
        }
        Instr::Amo { rs1, .. } | Instr::LwPostInc { rs1, .. } | Instr::SwPostInc { rs1, .. } => {
            Some(regs.read(rs1))
        }
        _ => None,
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
    use mempool_arch::SpmCapacity;
    use mempool_fault::DeadLinkPolicy;

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
        let cfg = tiny_config();
        let mut cluster = Cluster::new(cfg, SimParams::default());
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
            cycles > SimParams::default().offchip_latency as u64,
            "external load must pay off-chip latency"
        );
    }

    #[test]
    fn dma_costs_match_bandwidth_model() {
        let cfg = tiny_config();
        let mut cluster = Cluster::new(cfg, SimParams::default());
        for i in 0..64u64 {
            cluster.storage_mut().write_external_word(i * 4, i as u32);
        }
        let bytes = 256;
        let elapsed = cluster.dma_tile(0, 0, 0, 1, bytes as u32, true).unwrap();
        let expected = SimParams::default().offchip_latency as u64
            + bytes / SimParams::default().offchip_bytes_per_cycle as u64;
        assert_eq!(elapsed, expected);
        assert_eq!(cluster.read_spm_word(4 * 10).unwrap(), 10);
        // Round trip back out.
        cluster.write_spm_word(0, 999).unwrap();
        cluster.dma_tile(4096, 0, 0, 1, 4, false).unwrap();
        assert_eq!(cluster.storage().read_external_word(4096), 999);
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
        // Four cores of tile 0 hammer tile 1's banks every cycle. With
        // four remote ports they proceed in parallel; with one port they
        // serialize at issue.
        let run_with_ports = |ports: u32| {
            let cfg = ClusterConfig::builder()
                .groups(1)
                .tiles_per_group(4)
                .cores_per_tile(4)
                .banks_per_tile(4)
                .bank_words(64)
                .remote_ports_per_tile(ports)
                .build()
                .unwrap();
            let remote_base = {
                let probe = Cluster::new(cfg.clone(), SimParams::default());
                probe.storage().map().seq_addr(mempool_arch::TileId(1), 0)
            };
            let src = format!(
                r#"
                    csrr t1, mhartid
                    li   t2, 4
                    bge  t1, t2, done      # only tile 0's cores participate
                    li   t0, {remote_base}
                    slli t3, t1, 2
                    add  t0, t0, t3        # distinct banks: no bank conflicts
                    li   t4, 32
                loop:
                    lw   a0, 0(t0)
                    add  a1, a0, a0        # force the latency to be visible
                    addi t4, t4, -1
                    bnez t4, loop
                done:
                    wfi
                "#
            );
            let mut cluster = Cluster::new(cfg, SimParams::default());
            cluster.load_program(Program::assemble(&src).unwrap());
            cluster.preload_icaches();
            let cycles = cluster.run(1_000_000).unwrap();
            let stalls: u64 = cluster
                .stats()
                .cores
                .iter()
                .map(|c| c.stall_structural)
                .sum();
            (cycles, stalls)
        };
        let (wide_cycles, wide_stalls) = run_with_ports(4);
        let (narrow_cycles, narrow_stalls) = run_with_ports(1);
        assert!(
            narrow_stalls > wide_stalls,
            "1 port must stall more ({narrow_stalls} vs {wide_stalls})"
        );
        assert!(
            narrow_cycles > wide_cycles,
            "1 port must be slower ({narrow_cycles} vs {wide_cycles})"
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
    fn async_dma_overlaps_with_compute() {
        // Double-buffering contract: an async tile DMA occupies the
        // off-chip port while the cores keep computing, so the total run
        // is shorter than the sum of the two phases.
        let busy_loop = r#"
            li   t1, 2000
        loop:
            addi t1, t1, -1
            bnez t1, loop
            wfi
        "#;
        let bytes = 64u64 * 16;

        // Serial reference: DMA first (cores idle), then compute.
        let mut serial = Cluster::new(tiny_config(), SimParams::default());
        serial.load_program(Program::assemble(busy_loop).unwrap());
        serial.preload_icaches();
        let dma_cycles = serial.dma_tile(0, 0, 0, 1, bytes as u32, true).unwrap();
        let serial_total = serial.run(1_000_000).unwrap();

        // Overlapped: the same DMA started asynchronously.
        let mut overlap = Cluster::new(tiny_config(), SimParams::default());
        overlap.load_program(Program::assemble(busy_loop).unwrap());
        overlap.preload_icaches();
        let done = overlap.dma_tile_async(0, 64, 0, 16, 64, true).unwrap();
        assert_eq!(
            done,
            overlap.offchip.transfer_cycles(bytes),
            "async DMA on an idle port completes after the pure transfer cost"
        );
        overlap.run(1_000_000).unwrap();
        overlap.advance_to(done);
        let overlap_total = overlap.cycle();

        assert!(dma_cycles > 0);
        assert!(
            overlap_total < serial_total,
            "overlap ({overlap_total}) must beat serial ({serial_total})"
        );
        assert_eq!(
            overlap_total + dma_cycles,
            serial_total,
            "the compute phase fully hides the transfer"
        );
        // The port's own accounting agrees with the schedule.
        assert_eq!(overlap.offchip.total_bytes(), bytes);
        assert_eq!(overlap.offchip.busy_until(), done);
        assert_eq!(overlap.stats().dma_bytes, bytes);
    }

    #[test]
    fn double_buffered_sequence_overlaps_both_transfers() {
        // Two async DMAs back to back serialize on the port but still
        // overlap compute; total cycles < sum of phases.
        let busy_loop = r#"
            li   t1, 4000
        loop:
            addi t1, t1, -1
            bnez t1, loop
            wfi
        "#;
        let bytes = 64u64 * 8;

        // Compute-only reference: same program, no DMA.
        let compute_only = {
            let mut c = Cluster::new(tiny_config(), SimParams::default());
            c.load_program(Program::assemble(busy_loop).unwrap());
            c.preload_icaches();
            c.run(1_000_000).unwrap()
        };

        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.load_program(Program::assemble(busy_loop).unwrap());
        cluster.preload_icaches();
        let first = cluster.dma_tile_async(0, 64, 0, 8, 64, true).unwrap();
        let second = cluster.dma_tile_async(512, 64, 512, 8, 64, true).unwrap();
        assert!(second > first, "transfers serialize on the single port");
        assert_eq!(
            second - first,
            cluster.offchip.transfer_cycles(bytes),
            "the second transfer queues behind the first"
        );
        cluster.run(1_000_000).unwrap();
        cluster.advance_to(second);
        let total = cluster.cycle();
        let phase_sum = compute_only + 2 * cluster.offchip.transfer_cycles(bytes);
        assert!(
            total < phase_sum,
            "total {total} must be less than the sum of phases {phase_sum}"
        );
        assert_eq!(total, compute_only, "both transfers hide under compute");
        assert_eq!(cluster.offchip.total_bytes(), 2 * bytes);
        assert_eq!(cluster.offchip.busy_until(), second);
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
        assert!(!cluster.all_halted());
        cluster.run(1000).unwrap();
        assert_eq!(cluster.read_spm_word(0).unwrap(), 8);
    }

    // ----- fault injection, watchdog, and graceful degradation -----

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
        assert_eq!(
            stats.cores[0].stall_ecc,
            SimParams::default().ecc_correction_penalty as u64
        );
        let report = cluster.fault_report().unwrap();
        assert_eq!(report.ecc_corrected, 1);
        assert_eq!(report.ecc_pending, 0, "scrubbed: no latent errors remain");
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
    fn dead_link_fails_fast_under_the_error_policy() {
        let cfg = four_tile_config();
        let remote = {
            let probe = Cluster::new(cfg.clone(), SimParams::default());
            probe.storage().map().seq_addr(TileId(1), 0)
        };
        let mut cluster = Cluster::new(cfg, SimParams::default());
        let mut plan = FaultPlan::new(4);
        plan.push(FaultEvent::LinkDead { tile: TileId(1) });
        cluster.inject_faults(&plan).unwrap();
        cluster.load_program(
            Program::assemble(&format!(
                r#"
                    csrr t1, mhartid
                    bnez t1, done
                    li   t0, {remote}
                    lw   a0, 0(t0)
                done:
                    wfi
                "#
            ))
            .unwrap(),
        );
        cluster.preload_icaches();
        assert_eq!(
            cluster.run(10_000).unwrap_err(),
            SimError::LinkDead { tile: TileId(1) }
        );
    }

    #[test]
    fn black_holed_request_is_caught_by_the_watchdog() {
        let cfg = four_tile_config();
        let remote = {
            let probe = Cluster::new(cfg.clone(), SimParams::default());
            probe.storage().map().seq_addr(TileId(1), 0)
        };
        let mut cluster = Cluster::new(cfg, SimParams::default());
        let mut plan = FaultPlan::new(5).with_dead_link_policy(DeadLinkPolicy::BlackHole);
        plan.push(FaultEvent::LinkDead { tile: TileId(1) });
        cluster.inject_faults(&plan).unwrap();
        cluster.set_watchdog(50);
        // Core 0 waits forever on a load its dead link swallowed.
        cluster.load_program(
            Program::assemble(&format!(
                r#"
                    csrr t1, mhartid
                    bnez t1, done
                    li   t0, {remote}
                    lw   a0, 0(t0)
                    add  a1, a0, a0
                done:
                    wfi
                "#
            ))
            .unwrap(),
        );
        cluster.preload_icaches();
        let err = cluster.run(100_000).unwrap_err();
        let SimError::Deadlock {
            stalled_for,
            diagnostics,
        } = err
        else {
            panic!("expected a deadlock, got {err}");
        };
        assert!(stalled_for >= 50);
        assert_eq!(diagnostics.len(), 4);
        let victim = &diagnostics[0];
        assert_eq!(victim.condition(), "waiting-on-memory");
        assert!(victim.outstanding > 0);
        assert_eq!(cluster.fault_report().unwrap().blackholed_requests, 1);
        // The error renders with one line per core.
        let text = SimError::Deadlock {
            stalled_for,
            diagnostics,
        }
        .to_string();
        assert!(text.contains("waiting-on-memory"));
        assert!(text.contains("core   3"));
    }

    #[test]
    fn hung_core_is_diagnosed_by_the_watchdog() {
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        let mut plan = FaultPlan::new(6);
        plan.push(FaultEvent::CoreHang {
            cycle: 0,
            core: GlobalCoreId::new(0),
        });
        cluster.inject_faults(&plan).unwrap();
        cluster.set_watchdog(40);
        cluster.load_program(Program::assemble("li a0, 1\nwfi").unwrap());
        cluster.preload_icaches();
        let err = cluster.run(100_000).unwrap_err();
        let SimError::Deadlock { diagnostics, .. } = err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(diagnostics[0].condition(), "hung");
        assert_eq!(diagnostics[0].retired, 0, "the core hung before issuing");
    }

    #[test]
    fn resuming_a_core_with_a_pinned_transaction_is_a_typed_error() {
        let cfg = four_tile_config();
        let remote = {
            let probe = Cluster::new(cfg.clone(), SimParams::default());
            probe.storage().map().seq_addr(TileId(1), 0)
        };
        let mut cluster = Cluster::new(cfg, SimParams::default());
        let mut plan = FaultPlan::new(7).with_dead_link_policy(DeadLinkPolicy::BlackHole);
        plan.push(FaultEvent::LinkDead { tile: TileId(1) });
        cluster.inject_faults(&plan).unwrap();
        // Core 0 fires a store into the dead link and parks; stores do not
        // block `wfi`, so every core halts — but the transaction is pinned.
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
            if cluster.all_halted() {
                break;
            }
        }
        assert!(cluster.all_halted());
        assert!(!cluster.quiescent(), "the black-holed store never drains");
        assert_eq!(
            cluster.resume_all(0).unwrap_err(),
            SimError::ResumeWithOutstanding {
                core: GlobalCoreId::new(0),
                outstanding: 1,
            }
        );
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
        let cfg = four_tile_config();
        let remote = {
            let probe = Cluster::new(cfg.clone(), SimParams::default());
            probe.storage().map().seq_addr(TileId(1), 0)
        };
        let obs = mempool_obs::Obs::new();
        let mut cluster = Cluster::new(cfg, SimParams::default());
        cluster.attach_obs(&obs, "crash-run");
        cluster.enable_timeseries(32);
        cluster.enable_flight(64);
        cluster.enable_trace(32);
        let mut plan = FaultPlan::new(5).with_dead_link_policy(DeadLinkPolicy::BlackHole);
        plan.push(FaultEvent::LinkDead { tile: TileId(1) });
        cluster.inject_faults(&plan).unwrap();
        cluster.set_watchdog(50);
        cluster.load_program(
            Program::assemble(&format!(
                r#"
                    csrr t1, mhartid
                    bnez t1, done
                    lw   a2, 0(zero)
                    li   t0, {remote}
                    lw   a0, 0(t0)
                    add  a1, a0, a0
                done:
                    wfi
                "#
            ))
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

        // The merged event log holds the watchdog verdict, the swallowed
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

    #[test]
    fn crash_dump_flushes_the_partial_sampling_epoch() {
        let obs = mempool_obs::Obs::new();
        let mut cluster = Cluster::new(tiny_config(), SimParams::default());
        cluster.attach_obs(&obs, "flush-run");
        // Window far beyond the crash point: only the dump-time flush can
        // produce samples.
        cluster.enable_timeseries(1_000_000);
        let mut plan = FaultPlan::new(6);
        plan.push(FaultEvent::CoreHang {
            cycle: 0,
            core: GlobalCoreId::new(0),
        });
        cluster.inject_faults(&plan).unwrap();
        cluster.set_watchdog(20);
        cluster.load_program(Program::assemble("li a0, 1\nwfi").unwrap());
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
}
