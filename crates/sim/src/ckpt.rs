//! Versioned checkpoint/restore of a running [`Cluster`].
//!
//! A checkpoint is a single `mempool-checkpoint/v1` JSON document (same
//! plumbing as `crashdump.json`) capturing *everything* that influences
//! simulated behavior: per-core architectural and scoreboard state, the
//! program, all SPM/spare/external memory, in-flight bank requests and
//! response queues, the off-chip port, the fault controller (link health,
//! undelivered timed events, latent ECC masks, the accumulated report),
//! the watchdog, and the time-series sampler's epoch cursors.
//!
//! The contract is strict **bit-exactness**: [`Cluster::restore`] followed
//! by [`Cluster::run`] produces a [`crate::ClusterStats::digest`] equal to
//! the unbroken run's, at any `threads` count — the engine is
//! bit-identical across host-thread counts and a checkpoint carries no
//! host-side state.
//!
//! Deliberately **excluded** (and why it is sound to do so):
//!
//! * the engine arena (mailboxes, worker lanes, boundary scratch) —
//!   flushed into the real queues and recorders at every quantum
//!   boundary, so it is always empty between `step()`/`run()` calls;
//! * observability attachments (metrics, spans, time-series contents,
//!   flight ring, instruction trace) — measurement, not simulated state;
//!   callers re-attach and re-arm them after restoring (the sampler's
//!   epoch cursors *are* saved so re-armed series stay aligned);
//! * the topology helper — a pure function of the configuration.
//!
//! [`Checkpointer`] adds the operational side: periodic atomic
//! (temp+rename) snapshot files with bounded retention, and
//! [`run_with_checkpoints`] drives a run in checkpoint-sized slices.
//! Loading goes through the quarantine-aware
//! [`mempool_obs::load_json_file`], so a truncated or corrupted snapshot
//! is renamed `.corrupt` and reported as an error — never a panic.

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use mempool_arch::{BankId, BankLocation, ClusterConfig, LatencyModel, TileId};
use mempool_fault::{
    DeadLinkPolicy, EccState, FaultController, FaultReport, LinkState, TimedFault, Watchdog,
};
use mempool_isa::exec::{MemAccessKind, MemWidth};
use mempool_isa::instr::AmoOp;
use mempool_isa::{Program, Reg};
use mempool_obs::{load_json_file, write_atomic, Json, JsonError, LoadOutcome};

use crate::cluster::{Bank, Cluster, PendingAccess, Response, Sampler, SimError};
use crate::icache::ICache;
use crate::params::{default_threads, SimParams, ENGINE_VERSION};
use crate::stats::{BankStats, CoreStats};

/// Schema tag of the checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "mempool-checkpoint/v1";

/// Error raised by checkpoint save/restore.
#[derive(Debug)]
pub enum CheckpointError {
    /// The simulator failed while running between checkpoints.
    Sim(SimError),
    /// A filesystem operation failed.
    Io {
        /// Path the operation targeted.
        path: String,
        /// The underlying failure.
        message: String,
    },
    /// The document is not a well-formed checkpoint (missing fields, bad
    /// types, geometry that does not reconstruct) — includes checkpoints
    /// quarantined by the corrupt-file policy.
    Malformed(String),
    /// The checkpoint is well-formed but belongs to a different world:
    /// another engine version or parameter set.
    Mismatch {
        /// Which field disagreed.
        field: &'static str,
        /// What this build expects.
        expected: String,
        /// What the document carries.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Sim(e) => write!(f, "simulation error: {e}"),
            CheckpointError::Io { path, message } => write!(f, "io error on {path}: {message}"),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint mismatch on {field}: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<SimError> for CheckpointError {
    fn from(e: SimError) -> Self {
        CheckpointError::Sim(e)
    }
}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Malformed(e.message)
    }
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(msg.into())
}

fn json_u64s(values: impl IntoIterator<Item = u64>) -> Json {
    Json::Arr(values.into_iter().map(|v| Json::Int(v as i64)).collect())
}

/// Packs words as fixed-width hex (8 chars per word) — ~4x denser than a
/// JSON integer array for the SPM image, and trivially deterministic.
fn words_to_hex(words: &[u32]) -> String {
    use fmt::Write;
    let mut out = String::with_capacity(words.len() * 8);
    for &word in words {
        let _ = write!(out, "{word:08x}");
    }
    out
}

fn hex_to_words(text: &str, what: &str) -> Result<Vec<u32>, CheckpointError> {
    if !text.len().is_multiple_of(8) || !text.is_ascii() {
        return Err(bad(format!("{what} is not a packed hex word string")));
    }
    text.as_bytes()
        .chunks(8)
        .map(|chunk| {
            let s = std::str::from_utf8(chunk).map_err(|_| bad(format!("{what}: bad utf8")))?;
            u32::from_str_radix(s, 16).map_err(|_| bad(format!("{what}: bad hex word '{s}'")))
        })
        .collect()
}

fn reg_to_json(reg: Option<Reg>) -> Json {
    match reg {
        Some(reg) => Json::Int(i64::from(reg.number())),
        None => Json::Null,
    }
}

fn reg_from_json(value: &Json, what: &str) -> Result<Option<Reg>, CheckpointError> {
    match value {
        Json::Null => Ok(None),
        Json::Int(n) => u8::try_from(*n)
            .ok()
            .filter(|&n| n < 32)
            .map(|n| Some(Reg::new(n)))
            .ok_or_else(|| bad(format!("{what}: register number out of range"))),
        _ => Err(bad(format!("{what}: register is neither null nor int"))),
    }
}

fn width_to_json(width: MemWidth) -> Json {
    Json::Int(i64::from(width.bytes()))
}

fn width_from_json(value: &Json, what: &str) -> Result<MemWidth, CheckpointError> {
    match value.as_int() {
        Some(1) => Ok(MemWidth::Byte),
        Some(2) => Ok(MemWidth::Half),
        Some(4) => Ok(MemWidth::Word),
        _ => Err(bad(format!("{what}: invalid access width"))),
    }
}

fn amo_tag(op: AmoOp) -> &'static str {
    match op {
        AmoOp::Add => "add",
        AmoOp::Swap => "swap",
        AmoOp::And => "and",
        AmoOp::Or => "or",
        AmoOp::Xor => "xor",
        AmoOp::Max => "max",
        AmoOp::Min => "min",
    }
}

fn amo_from_tag(tag: &str) -> Result<AmoOp, CheckpointError> {
    Ok(match tag {
        "add" => AmoOp::Add,
        "swap" => AmoOp::Swap,
        "and" => AmoOp::And,
        "or" => AmoOp::Or,
        "xor" => AmoOp::Xor,
        "max" => AmoOp::Max,
        "min" => AmoOp::Min,
        other => return Err(bad(format!("unknown amo op '{other}'"))),
    })
}

fn kind_to_json(kind: MemAccessKind) -> Json {
    match kind {
        MemAccessKind::Load { width, signed, rd } => Json::obj([
            ("op", Json::str("load")),
            ("width", width_to_json(width)),
            ("signed", Json::Bool(signed)),
            ("rd", reg_to_json(Some(rd))),
        ]),
        MemAccessKind::Store { width, value } => Json::obj([
            ("op", Json::str("store")),
            ("width", width_to_json(width)),
            ("value", Json::Int(i64::from(value))),
        ]),
        MemAccessKind::Amo { op, value, rd } => Json::obj([
            ("op", Json::str("amo")),
            ("amo", Json::str(amo_tag(op))),
            ("value", Json::Int(i64::from(value))),
            ("rd", reg_to_json(Some(rd))),
        ]),
    }
}

fn kind_from_json(doc: &Json) -> Result<MemAccessKind, CheckpointError> {
    match doc.str_field("op")? {
        "load" => Ok(MemAccessKind::Load {
            width: width_from_json(doc.field("width")?, "load width")?,
            signed: doc.bool_field("signed")?,
            rd: reg_from_json(doc.field("rd")?, "load rd")?
                .ok_or_else(|| bad("load without rd"))?,
        }),
        "store" => Ok(MemAccessKind::Store {
            width: width_from_json(doc.field("width")?, "store width")?,
            value: doc.u32_field("value")?,
        }),
        "amo" => Ok(MemAccessKind::Amo {
            op: amo_from_tag(doc.str_field("amo")?)?,
            value: doc.u32_field("value")?,
            rd: reg_from_json(doc.field("rd")?, "amo rd")?.ok_or_else(|| bad("amo without rd"))?,
        }),
        other => Err(bad(format!("unknown access op '{other}'"))),
    }
}

fn loc_to_json(loc: BankLocation) -> Json {
    Json::obj([
        ("tile", Json::Int(i64::from(loc.tile.0))),
        ("bank", Json::Int(i64::from(loc.bank.0))),
        ("word", Json::Int(i64::from(loc.word))),
    ])
}

fn loc_from_json(doc: &Json) -> Result<BankLocation, CheckpointError> {
    Ok(BankLocation {
        tile: TileId(doc.u32_field("tile")?),
        bank: BankId(doc.u32_field("bank")?),
        word: doc.u32_field("word")?,
    })
}

fn core_stats_to_json(stats: &CoreStats) -> Json {
    Json::obj([
        ("retired", Json::Int(stats.retired as i64)),
        ("stall_scoreboard", Json::Int(stats.stall_scoreboard as i64)),
        ("stall_structural", Json::Int(stats.stall_structural as i64)),
        ("stall_icache", Json::Int(stats.stall_icache as i64)),
        ("icache_misses", Json::Int(stats.icache_misses as i64)),
        ("stall_branch", Json::Int(stats.stall_branch as i64)),
        (
            "stall_fault_retry",
            Json::Int(stats.stall_fault_retry as i64),
        ),
        ("stall_ecc", Json::Int(stats.stall_ecc as i64)),
        ("halted_cycles", Json::Int(stats.halted_cycles as i64)),
        ("accesses", json_u64s(stats.accesses)),
        ("network_accesses", json_u64s(stats.network_accesses)),
    ])
}

fn core_stats_from_json(doc: &Json) -> Result<CoreStats, CheckpointError> {
    let accesses = doc.u64s_field("accesses")?;
    let network = doc.u64s_field("network_accesses")?;
    Ok(CoreStats {
        retired: doc.u64_field("retired")?,
        stall_scoreboard: doc.u64_field("stall_scoreboard")?,
        stall_structural: doc.u64_field("stall_structural")?,
        stall_icache: doc.u64_field("stall_icache")?,
        icache_misses: doc.u64_field("icache_misses")?,
        stall_branch: doc.u64_field("stall_branch")?,
        stall_fault_retry: doc.u64_field("stall_fault_retry")?,
        stall_ecc: doc.u64_field("stall_ecc")?,
        halted_cycles: doc.u64_field("halted_cycles")?,
        accesses: accesses
            .try_into()
            .map_err(|_| bad("'accesses' must have 3 entries"))?,
        network_accesses: network
            .try_into()
            .map_err(|_| bad("'network_accesses' must have 4 entries"))?,
    })
}

fn link_to_json(link: LinkState) -> Json {
    match link {
        LinkState::Healthy => Json::obj([("state", Json::str("healthy"))]),
        LinkState::Degraded(extra) => Json::obj([
            ("state", Json::str("degraded")),
            ("extra", Json::Int(i64::from(extra))),
        ]),
        LinkState::Dead => Json::obj([("state", Json::str("dead"))]),
    }
}

fn link_from_json(doc: &Json) -> Result<LinkState, CheckpointError> {
    match doc.str_field("state")? {
        "healthy" => Ok(LinkState::Healthy),
        "degraded" => Ok(LinkState::Degraded(doc.u32_field("extra")?)),
        "dead" => Ok(LinkState::Dead),
        other => Err(bad(format!("unknown link state '{other}'"))),
    }
}

fn timed_to_json(cycle: u64, fault: TimedFault) -> Json {
    let fault = match fault {
        TimedFault::Flip { loc, mask } => Json::obj([
            ("kind", Json::str("flip")),
            ("loc", loc_to_json(loc)),
            ("mask", Json::Int(i64::from(mask))),
        ]),
        TimedFault::Hang { core } => Json::obj([
            ("kind", Json::str("hang")),
            ("core", Json::Int(i64::from(core))),
        ]),
    };
    Json::obj([("cycle", Json::Int(cycle as i64)), ("fault", fault)])
}

fn timed_from_json(doc: &Json) -> Result<(u64, TimedFault), CheckpointError> {
    let cycle = doc.u64_field("cycle")?;
    let fault = doc.field("fault")?;
    let fault = match fault.str_field("kind")? {
        "flip" => TimedFault::Flip {
            loc: loc_from_json(fault.field("loc")?)?,
            mask: fault.u32_field("mask")?,
        },
        "hang" => TimedFault::Hang {
            core: fault.u32_field("core")?,
        },
        other => return Err(bad(format!("unknown timed fault '{other}'"))),
    };
    Ok((cycle, fault))
}

fn policy_tag(policy: DeadLinkPolicy) -> &'static str {
    match policy {
        DeadLinkPolicy::Error => "error",
        DeadLinkPolicy::BlackHole => "black_hole",
    }
}

fn policy_from_tag(tag: &str) -> Result<DeadLinkPolicy, CheckpointError> {
    match tag {
        "error" => Ok(DeadLinkPolicy::Error),
        "black_hole" => Ok(DeadLinkPolicy::BlackHole),
        other => Err(bad(format!("unknown dead-link policy '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Cluster::checkpoint / Cluster::restore
// ---------------------------------------------------------------------------

impl Cluster {
    /// Serializes the full simulated state as a `mempool-checkpoint/v1`
    /// document. See the [module docs](self) for what is (and is
    /// deliberately not) captured.
    pub fn checkpoint(&self) -> Json {
        let params = &self.params;
        let cores = self
            .cores
            .iter()
            .map(|core| {
                let (halted, hung, busy, outstanding, bubble) = core.timing_snapshot();
                Json::obj([
                    ("regs", json_u64s(core.regs.snapshot().map(u64::from))),
                    ("pc", Json::Int(i64::from(core.pc))),
                    ("halted", Json::Bool(halted)),
                    ("hung", Json::Bool(hung)),
                    ("busy", Json::Int(i64::from(busy))),
                    ("outstanding", Json::Int(i64::from(outstanding))),
                    ("bubble", Json::Int(i64::from(bubble))),
                    ("stats", core_stats_to_json(&core.stats)),
                ])
            })
            .collect();
        let icaches = self
            .icaches
            .iter()
            .map(|icache| {
                let (tags, stamps, clock, hits, misses) = icache.state_snapshot();
                Json::obj([
                    ("tags", json_u64s(tags.iter().map(|&t| u64::from(t)))),
                    ("stamps", json_u64s(stamps.iter().copied())),
                    ("clock", Json::Int(clock as i64)),
                    ("hits", Json::Int(hits as i64)),
                    ("misses", Json::Int(misses as i64)),
                ])
            })
            .collect();
        let banks = self
            .banks
            .iter()
            .map(|bank| {
                Json::obj([
                    (
                        "queue",
                        Json::Arr(
                            bank.queue
                                .iter()
                                .map(|req| {
                                    Json::obj([
                                        ("arrival", Json::Int(req.arrival as i64)),
                                        ("core", Json::Int(i64::from(req.core))),
                                        ("loc", loc_to_json(req.loc)),
                                        ("kind", kind_to_json(req.kind)),
                                        ("resp_latency", Json::Int(i64::from(req.resp_latency))),
                                        ("addr", Json::Int(i64::from(req.addr))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "stats",
                        Json::obj([
                            ("served", Json::Int(bank.stats.served as i64)),
                            ("conflicts", Json::Int(bank.stats.conflicts as i64)),
                            (
                                "max_queue_depth",
                                Json::Int(bank.stats.max_queue_depth as i64),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        let responses = self
            .responses
            .iter()
            .map(|per_core| {
                Json::Arr(
                    per_core
                        .iter()
                        .map(|resp| {
                            Json::obj([
                                ("due", Json::Int(resp.due as i64)),
                                ("reg", reg_to_json(resp.reg)),
                                ("value", Json::Int(i64::from(resp.value))),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        let remaps: Vec<Json> = self
            .storage
            .map()
            .remap()
            .map(|remap| {
                remap
                    .entries()
                    .map(|(tile, from, to)| {
                        Json::Arr(vec![
                            Json::Int(i64::from(tile.0)),
                            Json::Int(i64::from(from.0)),
                            Json::Int(i64::from(to.0)),
                        ])
                    })
                    .collect()
            })
            .unwrap_or_default();
        let storage = Json::obj([
            ("spm", Json::Str(words_to_hex(self.storage.spm_words()))),
            ("spare", Json::Str(words_to_hex(self.storage.spare_words()))),
            (
                "spares_per_tile",
                Json::Int(i64::from(self.storage.spares_per_tile())),
            ),
            (
                "external",
                Json::Arr(
                    self.storage
                        .external_entries()
                        .iter()
                        .map(|&(offset, value)| {
                            Json::Arr(vec![Json::Int(offset as i64), Json::Int(i64::from(value))])
                        })
                        .collect(),
                ),
            ),
            ("touches", Json::Int(self.storage.spm_word_touches() as i64)),
            ("remaps", Json::Arr(remaps)),
        ]);
        let faults = match &self.faults {
            Some(ctrl) => Json::obj([
                (
                    "links",
                    Json::Arr(ctrl.links().iter().map(|&l| link_to_json(l)).collect()),
                ),
                (
                    "timed",
                    Json::Arr(
                        ctrl.remaining_timed()
                            .iter()
                            .map(|&(cycle, fault)| timed_to_json(cycle, fault))
                            .collect(),
                    ),
                ),
                (
                    "stuck",
                    Json::Arr(
                        ctrl.stuck_banks()
                            .iter()
                            .map(|&(tile, bank)| {
                                Json::Arr(vec![
                                    Json::Int(i64::from(tile.0)),
                                    Json::Int(i64::from(bank.0)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "dead_link_policy",
                    Json::str(policy_tag(ctrl.dead_link_policy())),
                ),
                (
                    "ecc",
                    Json::Arr(
                        ctrl.ecc_state()
                            .entries()
                            .into_iter()
                            .map(|(loc, mask)| {
                                Json::obj([
                                    ("loc", loc_to_json(loc)),
                                    ("mask", Json::Int(i64::from(mask))),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("report", ctrl.report().to_json()),
            ]),
            None => Json::Null,
        };
        let watchdog = match &self.watchdog {
            Some(watchdog) => Json::obj([
                ("threshold", Json::Int(watchdog.threshold() as i64)),
                ("last_progress", Json::Int(watchdog.last_progress() as i64)),
            ]),
            None => Json::Null,
        };
        let sampler = match &self.sampler {
            Some(sampler) => Json::obj([
                ("window", Json::Int(sampler.window as i64)),
                ("epoch_start", Json::Int(sampler.epoch_start as i64)),
                ("next_at", Json::Int(sampler.next_at as i64)),
                (
                    "retired_per_tile",
                    json_u64s(sampler.retired_per_tile.iter().copied()),
                ),
                ("local_accesses", Json::Int(sampler.local_accesses as i64)),
                ("remote_accesses", Json::Int(sampler.remote_accesses as i64)),
                ("conflicts", Json::Int(sampler.conflicts as i64)),
                ("offchip_bytes", Json::Int(sampler.offchip_bytes as i64)),
                ("spm_touches", Json::Int(sampler.spm_touches as i64)),
            ]),
            None => Json::Null,
        };
        Json::obj([
            ("schema", Json::str(CHECKPOINT_SCHEMA)),
            ("engine_version", Json::str(ENGINE_VERSION)),
            (
                "params_digest",
                Json::Str(format!("{:016x}", params.digest())),
            ),
            (
                "config",
                Json::obj([
                    ("groups", Json::Int(i64::from(self.config.groups()))),
                    (
                        "tiles_per_group",
                        Json::Int(i64::from(self.config.tiles_per_group())),
                    ),
                    (
                        "cores_per_tile",
                        Json::Int(i64::from(self.config.cores_per_tile())),
                    ),
                    (
                        "banks_per_tile",
                        Json::Int(i64::from(self.config.banks_per_tile())),
                    ),
                    ("bank_words", Json::Int(i64::from(self.config.bank_words()))),
                    (
                        "icache_bytes_per_tile",
                        Json::Int(i64::from(self.config.icache_bytes_per_tile())),
                    ),
                    (
                        "icache_banks_per_tile",
                        Json::Int(i64::from(self.config.icache_banks_per_tile())),
                    ),
                    (
                        "remote_ports_per_tile",
                        Json::Int(i64::from(self.config.remote_ports_per_tile())),
                    ),
                ]),
            ),
            (
                "params",
                Json::obj([
                    (
                        "tile_local",
                        Json::Int(i64::from(params.latency.tile_local)),
                    ),
                    (
                        "group_local",
                        Json::Int(i64::from(params.latency.group_local)),
                    ),
                    ("remote", Json::Int(i64::from(params.latency.remote))),
                    (
                        "max_outstanding",
                        Json::Int(i64::from(params.max_outstanding)),
                    ),
                    (
                        "taken_branch_penalty",
                        Json::Int(i64::from(params.taken_branch_penalty)),
                    ),
                    (
                        "icache_miss_penalty",
                        Json::Int(i64::from(params.icache_miss_penalty)),
                    ),
                    (
                        "icache_line_words",
                        Json::Int(i64::from(params.icache_line_words)),
                    ),
                    ("icache_ways", Json::Int(i64::from(params.icache_ways))),
                    (
                        "offchip_bytes_per_cycle",
                        Json::Int(i64::from(params.offchip_bytes_per_cycle)),
                    ),
                    (
                        "offchip_latency",
                        Json::Int(i64::from(params.offchip_latency)),
                    ),
                    (
                        "ecc_correction_penalty",
                        Json::Int(i64::from(params.ecc_correction_penalty)),
                    ),
                ]),
            ),
            ("cycle", Json::Int(self.cycle as i64)),
            ("dma_bytes", Json::Int(self.dma_bytes as i64)),
            ("dma_cycles", Json::Int(self.dma_cycles as i64)),
            (
                "program",
                json_u64s(self.program.to_words().into_iter().map(u64::from)),
            ),
            ("cores", Json::Arr(cores)),
            ("icaches", Json::Arr(icaches)),
            ("banks", Json::Arr(banks)),
            ("responses", Json::Arr(responses)),
            (
                "offchip",
                Json::obj([
                    ("busy_until", Json::Int(self.offchip.busy_until() as i64)),
                    ("total_bytes", Json::Int(self.offchip.total_bytes() as i64)),
                    (
                        "total_cycles",
                        Json::Int(self.offchip.total_cycles() as i64),
                    ),
                ]),
            ),
            ("storage", storage),
            ("faults", faults),
            ("watchdog", watchdog),
            ("sampler", sampler),
        ])
    }

    /// Rebuilds a cluster from a checkpoint document. The restored cluster
    /// runs with the process-default thread count
    /// ([`crate::default_threads`]) — the engine is bit-identical at any
    /// thread count, so cross-thread resume is exact. Observability is
    /// *not* restored: attach/arm it again with
    /// [`Cluster::attach_obs`]/[`Cluster::enable_timeseries`]/
    /// [`Cluster::enable_flight`] as needed (the latter re-attaches the
    /// flight ring to the restored fault controller).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] for a checkpoint from a different
    /// engine version or inconsistent parameters,
    /// [`CheckpointError::Malformed`] for structural problems.
    pub fn restore(doc: &Json) -> Result<Cluster, CheckpointError> {
        let schema = doc.str_field("schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Mismatch {
                field: "schema",
                expected: CHECKPOINT_SCHEMA.to_string(),
                found: schema.to_string(),
            });
        }
        let engine = doc.str_field("engine_version")?;
        if engine != ENGINE_VERSION {
            return Err(CheckpointError::Mismatch {
                field: "engine_version",
                expected: ENGINE_VERSION.to_string(),
                found: engine.to_string(),
            });
        }

        let cfg = doc.field("config")?;
        let config = ClusterConfig::builder()
            .groups(cfg.u32_field("groups")?)
            .tiles_per_group(cfg.u32_field("tiles_per_group")?)
            .cores_per_tile(cfg.u32_field("cores_per_tile")?)
            .banks_per_tile(cfg.u32_field("banks_per_tile")?)
            .bank_words(cfg.u32_field("bank_words")?)
            .icache_bytes_per_tile(cfg.u32_field("icache_bytes_per_tile")?)
            .icache_banks_per_tile(cfg.u32_field("icache_banks_per_tile")?)
            .remote_ports_per_tile(cfg.u32_field("remote_ports_per_tile")?)
            .build()
            .map_err(|e| bad(format!("invalid config: {e}")))?;

        let p = doc.field("params")?;
        let params = SimParams {
            latency: LatencyModel {
                tile_local: p.u32_field("tile_local")?,
                group_local: p.u32_field("group_local")?,
                remote: p.u32_field("remote")?,
            },
            max_outstanding: p.u32_field("max_outstanding")?,
            taken_branch_penalty: p.u32_field("taken_branch_penalty")?,
            icache_miss_penalty: p.u32_field("icache_miss_penalty")?,
            icache_line_words: p.u32_field("icache_line_words")?,
            icache_ways: p.u32_field("icache_ways")?,
            offchip_bytes_per_cycle: p.u32_field("offchip_bytes_per_cycle")?,
            offchip_latency: p.u32_field("offchip_latency")?,
            ecc_correction_penalty: p.u32_field("ecc_correction_penalty")?,
            threads: default_threads(),
        };
        let expected_digest = format!("{:016x}", params.digest());
        let saved_digest = doc.str_field("params_digest")?;
        if saved_digest != expected_digest {
            return Err(CheckpointError::Mismatch {
                field: "params_digest",
                expected: expected_digest,
                found: saved_digest.to_string(),
            });
        }

        ICache::check_geometry(
            config.icache_bytes_per_tile(),
            params.icache_line_words,
            params.icache_ways,
        )
        .map_err(|rule| bad(format!("invalid icache geometry: {rule}")))?;

        let mut cluster = Cluster::new(config, params);

        let program_words: Vec<u32> = doc
            .arr_field("program")?
            .iter()
            .map(|w| w.try_u32("program word"))
            .collect::<Result<_, _>>()?;
        cluster.install_program(
            Program::from_words(&program_words).map_err(|e| bad(format!("bad program: {e}")))?,
        );

        let cores = doc.arr_field("cores")?;
        if cores.len() != cluster.cores.len() {
            return Err(bad(format!(
                "core count mismatch: saved {}, config has {}",
                cores.len(),
                cluster.cores.len()
            )));
        }
        for (core, saved) in cluster.cores.iter_mut().zip(cores) {
            let regs = saved.u64s_field("regs")?;
            if regs.len() != 32 {
                return Err(bad("'regs' must have 32 entries"));
            }
            for (number, &value) in regs.iter().enumerate() {
                let value = u32::try_from(value).map_err(|_| bad("register value exceeds u32"))?;
                core.regs.write(Reg::new(number as u8), value);
            }
            core.pc = saved.u32_field("pc")?;
            core.restore_timing(
                saved.bool_field("halted")?,
                saved.bool_field("hung")?,
                saved.u32_field("busy")?,
                saved.u32_field("outstanding")?,
                saved.u32_field("bubble")?,
            );
            core.stats = core_stats_from_json(saved.field("stats")?)?;
        }

        let icaches = doc.arr_field("icaches")?;
        if icaches.len() != cluster.icaches.len() {
            return Err(bad(format!(
                "icache count mismatch: saved {}, config has {}",
                icaches.len(),
                cluster.icaches.len()
            )));
        }
        for (icache, saved) in cluster.icaches.iter_mut().zip(icaches) {
            let tags = saved
                .u64s_field("tags")?
                .into_iter()
                .map(|t| u32::try_from(t).map_err(|_| bad("icache tag exceeds u32")))
                .collect::<Result<Vec<_>, _>>()?;
            let stamps = saved.u64s_field("stamps")?;
            icache
                .restore_state(
                    tags,
                    stamps,
                    saved.u64_field("clock")?,
                    saved.u64_field("hits")?,
                    saved.u64_field("misses")?,
                )
                .map_err(bad)?;
        }

        let banks = doc.arr_field("banks")?;
        if banks.len() != cluster.banks.len() {
            return Err(bad(format!(
                "bank count mismatch: saved {}, config has {}",
                banks.len(),
                cluster.banks.len()
            )));
        }
        for (bank, saved) in cluster.banks.iter_mut().zip(banks) {
            let queue = saved
                .arr_field("queue")?
                .iter()
                .map(|req| {
                    Ok(PendingAccess {
                        arrival: req.u64_field("arrival")?,
                        core: req.u32_field("core")?,
                        loc: loc_from_json(req.field("loc")?)?,
                        kind: kind_from_json(req.field("kind")?)?,
                        resp_latency: req.u32_field("resp_latency")?,
                        addr: req.u32_field("addr")?,
                    })
                })
                .collect::<Result<Vec<_>, CheckpointError>>()?;
            let stats = saved.field("stats")?;
            *bank = Bank {
                queue,
                stats: BankStats {
                    served: stats.u64_field("served")?,
                    conflicts: stats.u64_field("conflicts")?,
                    max_queue_depth: stats.u64_field("max_queue_depth")?,
                },
            };
        }

        cluster
            .quantum
            .rebuild_live(&cluster.banks, cluster.config.banks_per_tile() as usize);

        let responses = doc.arr_field("responses")?;
        if responses.len() != cluster.responses.len() {
            return Err(bad(format!(
                "response-queue count mismatch: saved {}, config has {}",
                responses.len(),
                cluster.responses.len()
            )));
        }
        for (queue, saved) in cluster.responses.iter_mut().zip(responses) {
            *queue = saved
                .try_arr("'responses' entry")?
                .iter()
                .map(|resp| {
                    Ok(Response {
                        due: resp.u64_field("due")?,
                        reg: reg_from_json(resp.field("reg")?, "response reg")?,
                        value: resp.u32_field("value")?,
                    })
                })
                .collect::<Result<Vec<_>, CheckpointError>>()?;
        }

        let offchip = doc.field("offchip")?;
        cluster.offchip.restore_state(
            offchip.u64_field("busy_until")?,
            offchip.u64_field("total_bytes")?,
            offchip.u64_field("total_cycles")?,
        );

        // Storage: re-establish the remap table first (so the spare array
        // has its final size), then overwrite all contents wholesale.
        let storage = doc.field("storage")?;
        let spares_per_tile = storage.u32_field("spares_per_tile")?;
        if spares_per_tile > 0 {
            cluster.storage.provision_spares(spares_per_tile);
        }
        for entry in storage.arr_field("remaps")? {
            let [tile, from, to] = entry.try_arr("remap entry")? else {
                return Err(bad("remap entries must be [tile, from, to] triples"));
            };
            let tile = TileId(tile.try_u32("remap tile")?);
            let from = BankId(from.try_u32("remap from-bank")?);
            let to = BankId(to.try_u32("remap to-bank")?);
            let spare = cluster
                .storage
                .remap_bank(tile, from)
                .map_err(|e| bad(format!("replaying remap failed: {e}")))?;
            if spare != to {
                return Err(bad(format!(
                    "remap replay diverged: tile {} bank {} landed on spare {} (saved {})",
                    tile.0, from.0, spare.0, to.0
                )));
            }
        }
        let spm = hex_to_words(storage.str_field("spm")?, "'spm'")?;
        let spare = hex_to_words(storage.str_field("spare")?, "'spare'")?;
        let external = storage
            .arr_field("external")?
            .iter()
            .map(|entry| {
                let [offset, value] = entry.try_arr("external entry")? else {
                    return Err(bad("external entries must be [offset, value] pairs"));
                };
                Ok((
                    offset.try_u64("external offset")?,
                    value.try_u32("external value")?,
                ))
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        cluster
            .storage
            .restore_contents(spm, spare, external, storage.u64_field("touches")?)
            .map_err(bad)?;

        match doc.field("faults")? {
            Json::Null => {}
            faults => {
                let links = faults
                    .arr_field("links")?
                    .iter()
                    .map(link_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let timed = faults
                    .arr_field("timed")?
                    .iter()
                    .map(timed_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let stuck = faults
                    .arr_field("stuck")?
                    .iter()
                    .map(|entry| {
                        let [tile, bank] = entry.try_arr("stuck entry")? else {
                            return Err(bad("stuck entries must be [tile, bank] pairs"));
                        };
                        Ok((
                            TileId(tile.try_u32("stuck tile")?),
                            BankId(bank.try_u32("stuck bank")?),
                        ))
                    })
                    .collect::<Result<Vec<_>, CheckpointError>>()?;
                let ecc = EccState::from_entries(
                    faults
                        .arr_field("ecc")?
                        .iter()
                        .map(|entry| {
                            Ok((
                                loc_from_json(entry.field("loc")?)?,
                                entry.u32_field("mask")?,
                            ))
                        })
                        .collect::<Result<Vec<_>, CheckpointError>>()?,
                );
                let report = FaultReport::from_json(faults.field("report")?)?;
                cluster.faults = Some(FaultController::from_snapshot(
                    links,
                    timed,
                    ecc,
                    stuck,
                    policy_from_tag(faults.str_field("dead_link_policy")?)?,
                    report,
                ));
            }
        }

        match doc.field("watchdog")? {
            Json::Null => {}
            watchdog => {
                // `Watchdog::new(threshold, now)` arms at `now`; feeding the
                // saved last-progress cycle reproduces the exact stall
                // window.
                cluster.watchdog = Some(Watchdog::new(
                    watchdog.u64_field("threshold")?,
                    watchdog.u64_field("last_progress")?,
                ));
            }
        }

        match doc.field("sampler")? {
            Json::Null => {}
            sampler => {
                cluster.sampler = Some(Sampler {
                    window: sampler.u64_field("window")?.max(1),
                    epoch_start: sampler.u64_field("epoch_start")?,
                    next_at: sampler.u64_field("next_at")?,
                    retired_per_tile: sampler.u64s_field("retired_per_tile")?,
                    local_accesses: sampler.u64_field("local_accesses")?,
                    remote_accesses: sampler.u64_field("remote_accesses")?,
                    conflicts: sampler.u64_field("conflicts")?,
                    offchip_bytes: sampler.u64_field("offchip_bytes")?,
                    spm_touches: sampler.u64_field("spm_touches")?,
                });
            }
        }

        cluster.cycle = doc.u64_field("cycle")?;
        cluster.dma_bytes = doc.u64_field("dma_bytes")?;
        cluster.dma_cycles = doc.u64_field("dma_cycles")?;
        Ok(cluster)
    }

    /// Loads and restores a checkpoint file. A file that exists but does
    /// not parse is quarantined (renamed `.corrupt`) and reported as
    /// [`CheckpointError::Malformed`] — never a panic.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] for a missing/unreadable file, plus
    /// everything [`Cluster::restore`] can raise.
    pub fn restore_from_file(path: &Path) -> Result<Cluster, CheckpointError> {
        match load_json_file(path) {
            LoadOutcome::Loaded(doc) => Cluster::restore(&doc),
            LoadOutcome::Missing => Err(CheckpointError::Io {
                path: path.display().to_string(),
                message: "checkpoint file missing or unreadable".to_string(),
            }),
            LoadOutcome::Quarantined { renamed_to, error } => {
                Err(CheckpointError::Malformed(format!(
                    "corrupt checkpoint quarantined to {}: {error}",
                    renamed_to.display()
                )))
            }
        }
    }

    /// Re-arms time-series sampling on a restored cluster without
    /// discarding the checkpointed epoch cursors.
    /// [`Cluster::enable_timeseries`] always rebuilds the sampler
    /// rebaselined at the current cycle — correct for a fresh run, but on
    /// a resume it would tear up the mid-epoch state the checkpoint
    /// carried. This instead keeps the restored sampler and only aligns
    /// the attached [`mempool_obs::TimeSeries`] sink's window with it;
    /// when the checkpoint carried no sampler, it falls back to
    /// [`Cluster::enable_timeseries`] with `window`.
    ///
    /// # Panics
    ///
    /// Panics if no observability handle is attached.
    pub fn resume_timeseries(&mut self, window: u64) {
        match &self.sampler {
            Some(sampler) => {
                let hooks = self
                    .obs
                    .as_ref()
                    .expect("attach_obs before resume_timeseries");
                hooks.obs.series.set_window(sampler.window);
            }
            None => self.enable_timeseries(window),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpointer: periodic atomic snapshot files with bounded retention
// ---------------------------------------------------------------------------

/// Writes periodic checkpoint files into a directory: atomic temp+rename
/// writes, `ckpt-<cycle>.json` names, and bounded retention (the oldest
/// file is deleted once more than `keep` exist).
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    every: u64,
    keep: usize,
    written: VecDeque<PathBuf>,
}

impl Checkpointer {
    /// Creates the directory (if needed) and a checkpointer snapshotting
    /// every `every` cycles, retaining the newest `keep` files. Zero
    /// `every`/`keep` are clamped to 1.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, every: u64, keep: usize) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(Checkpointer {
            dir,
            every: every.max(1),
            keep: keep.max(1),
            written: VecDeque::new(),
        })
    }

    /// The snapshot interval in cycles.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// The newest checkpoint written by this checkpointer, if any.
    pub fn last_good(&self) -> Option<&Path> {
        self.written.back().map(PathBuf::as_path)
    }

    /// Snapshots `cluster` into `ckpt-<cycle>.json` atomically (temp
    /// file then rename, so a crash mid-write never leaves a
    /// half-written file under the final name) and enforces the
    /// retention bound.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&mut self, cluster: &Cluster) -> Result<PathBuf, CheckpointError> {
        let path = self.dir.join(format!("ckpt-{:012}.json", cluster.cycle()));
        write_atomic(&path, &cluster.checkpoint().to_pretty()).map_err(|e| {
            CheckpointError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            }
        })?;
        if self.written.back() != Some(&path) {
            self.written.push_back(path.clone());
        }
        while self.written.len() > self.keep {
            if let Some(old) = self.written.pop_front() {
                let _ = fs::remove_file(old);
            }
        }
        Ok(path)
    }
}

/// Runs `cluster` to quiescence within `budget` cycles, snapshotting into
/// `ckpt` every [`Checkpointer::every`] cycles of simulated progress.
/// Returns the final cycle, exactly like [`Cluster::run`] — the
/// checkpointing slices never change simulated behavior, because
/// [`Cluster::run`]'s budget is the only thing being subdivided.
///
/// # Errors
///
/// [`CheckpointError::Sim`] with [`SimError::Timeout`] when the budget is
/// exhausted (a last checkpoint is saved first, so the run is resumable),
/// any other simulation error as-is (the caller decides whether to keep
/// the last-good checkpoint next to the crash dump), and
/// [`CheckpointError::Io`] if a snapshot cannot be written.
pub fn run_with_checkpoints(
    cluster: &mut Cluster,
    budget: u64,
    ckpt: &mut Checkpointer,
) -> Result<u64, CheckpointError> {
    let deadline = cluster.cycle() + budget;
    loop {
        let remaining = deadline.saturating_sub(cluster.cycle());
        if remaining == 0 {
            ckpt.save(cluster)?;
            return Err(CheckpointError::Sim(SimError::Timeout { cycles: budget }));
        }
        let slice = remaining.min(ckpt.every());
        match cluster.run(slice) {
            Ok(end) => return Ok(end),
            Err(SimError::Timeout { .. }) => {
                // The slice expired, not the budget: snapshot and keep
                // going. (Synchronous DMA can overshoot the slice deadline;
                // the loop re-checks against the real budget.)
                ckpt.save(cluster)?;
            }
            Err(e) => return Err(CheckpointError::Sim(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_isa::Program;

    fn small_config() -> ClusterConfig {
        ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(4)
            .bank_words(64)
            .build()
            .unwrap()
    }

    fn busy_program() -> Program {
        Program::assemble(
            r#"
                csrr t0, mhartid
                slli t0, t0, 2
                li   t1, 40
                li   a0, 0
            loop:
                lw   a1, 0(t0)
                add  a0, a0, a1
                addi a1, a0, 3
                sw   a1, 0(t0)
                amoadd.w a2, a1, (t0)
                addi t1, t1, -1
                bnez t1, loop
                wfi
            "#,
        )
        .unwrap()
    }

    fn fresh_cluster() -> Cluster {
        let mut cluster = Cluster::new(small_config(), SimParams::default());
        cluster.load_program(busy_program());
        cluster.preload_icaches();
        cluster
    }

    /// Replaces the value at `path` in a checkpoint document.
    fn set(doc: &mut Json, path: &[&str], value: Json) {
        let Json::Obj(pairs) = doc else {
            panic!("{path:?} must lead through objects")
        };
        let (_, slot) = pairs
            .iter_mut()
            .find(|(key, _)| key == path[0])
            .unwrap_or_else(|| panic!("no field {:?}", path[0]));
        match &path[1..] {
            [] => *slot = value,
            rest => set(slot, rest, value),
        }
    }

    #[test]
    fn restore_then_run_matches_unbroken_run() {
        let mut unbroken = fresh_cluster();
        let end = unbroken.run(100_000).unwrap();
        let want = unbroken.stats().digest();

        let mut snap = fresh_cluster();
        // Interrupt mid-run at an arbitrary cycle, with requests waiting at
        // the banks: the restored cluster must find them there (the
        // engine's live-bank sets are not in the file).
        assert!(matches!(snap.run(37), Err(SimError::Timeout { .. })));
        assert!(snap.banks.iter().any(|bank| !bank.queue.is_empty()));
        let doc = Json::parse(&snap.checkpoint().to_pretty()).unwrap();
        for threads in [1, 2] {
            let mut restored = Cluster::restore(&doc).unwrap();
            restored.set_threads(threads);
            restored.force_oversubscribe();
            let resumed_end = restored.run(100_000).unwrap();
            assert_eq!(resumed_end, end, "threads {threads}");
            assert_eq!(restored.stats().digest(), want, "threads {threads}");
        }
    }

    #[test]
    fn checkpoint_of_quiescent_cluster_round_trips_stats() {
        let mut cluster = fresh_cluster();
        cluster.run(100_000).unwrap();
        let doc = cluster.checkpoint();
        let restored = Cluster::restore(&doc).unwrap();
        assert_eq!(restored.stats(), cluster.stats());
        assert_eq!(restored.stats().digest(), cluster.stats().digest());
        assert!(restored.quiescent());
    }

    #[test]
    fn engine_version_mismatch_is_rejected() {
        let mut doc = fresh_cluster().checkpoint();
        set(
            &mut doc,
            &["engine_version"],
            Json::str("mempool-sim/v0-ancient"),
        );
        let err = Cluster::restore(&doc).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Mismatch {
                field: "engine_version",
                ..
            }
        ));
    }

    #[test]
    fn impossible_icache_geometry_is_malformed_not_a_panic() {
        let saved = fresh_cluster().checkpoint();
        // The config section is outside `params_digest`: no lines at all,
        // then a line count that is not a power of two.
        for bytes in [0, 3072] {
            let mut doc = saved.clone();
            set(
                &mut doc,
                &["config", "icache_bytes_per_tile"],
                Json::Int(bytes),
            );
            let err = Cluster::restore(&doc).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Malformed(msg) if msg.contains("icache")),
                "{bytes} bytes: {err}"
            );
        }
        // The line size is inside it, so a file that means it carries the
        // digest to match.
        let params = SimParams {
            icache_line_words: 3,
            ..SimParams::default()
        };
        let mut doc = saved.clone();
        set(&mut doc, &["params", "icache_line_words"], Json::Int(3));
        set(
            &mut doc,
            &["params_digest"],
            Json::Str(format!("{:016x}", params.digest())),
        );
        let err = Cluster::restore(&doc).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Malformed(msg) if msg.contains("line words")),
            "{err}"
        );
    }

    #[test]
    fn truncated_checkpoint_file_is_quarantined_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("mempool-ckpt-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000000001.json");
        fs::write(&path, "{\"schema\": \"mempool-checkpoint/v1\", trunc").unwrap();
        let err = Cluster::restore_from_file(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)));
        assert!(!path.exists(), "corrupt file renamed away");
        assert!(dir.join("ckpt-000000000001.json.corrupt").exists());
        // A second attempt is a clean miss, not a repeat parse failure.
        assert!(matches!(
            Cluster::restore_from_file(&path).unwrap_err(),
            CheckpointError::Io { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointer_writes_atomically_and_bounds_retention() {
        let dir = std::env::temp_dir().join(format!("mempool-ckpt-keep-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut ckpt = Checkpointer::new(&dir, 25, 2).unwrap();
        let mut cluster = fresh_cluster();
        let err = run_with_checkpoints(&mut cluster, 100, &mut ckpt).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Sim(SimError::Timeout { cycles: 100 })
        ));
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len(), 2, "retention must keep exactly 2: {files:?}");
        assert!(files.iter().all(|f| f.starts_with("ckpt-")));
        assert!(files.iter().all(|f| !f.contains("tmp")));
        let last = ckpt.last_good().unwrap().to_path_buf();
        assert!(last.exists());

        // The interrupted run resumes from the last checkpoint and matches
        // an unbroken run bit-for-bit.
        let mut unbroken = fresh_cluster();
        let end = unbroken.run(100_000).unwrap();
        let mut resumed = Cluster::restore_from_file(&last).unwrap();
        assert_eq!(resumed.cycle(), 100);
        assert_eq!(resumed.run(100_000).unwrap(), end);
        assert_eq!(resumed.stats().digest(), unbroken.stats().digest());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_with_checkpoints_returns_the_same_result_as_plain_run() {
        let dir = std::env::temp_dir().join(format!("mempool-ckpt-same-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut plain = fresh_cluster();
        let end = plain.run(100_000).unwrap();

        let mut ckpt = Checkpointer::new(&dir, 50, 3).unwrap();
        let mut sliced = fresh_cluster();
        let sliced_end = run_with_checkpoints(&mut sliced, 100_000, &mut ckpt).unwrap();
        assert_eq!(sliced_end, end);
        assert_eq!(sliced.stats().digest(), plain.stats().digest());
        assert!(ckpt.last_good().is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
