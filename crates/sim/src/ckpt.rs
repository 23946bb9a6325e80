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
use mempool_obs::{load_json_file, Json, LoadOutcome};

use crate::cluster::{Bank, Cluster, PendingAccess, Response, Sampler, SimError};
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

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(msg.into())
}

fn get<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, CheckpointError> {
    doc.get(key).ok_or_else(|| bad(format!("missing '{key}'")))
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, CheckpointError> {
    get(doc, key)?
        .as_int()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| bad(format!("'{key}' is not a non-negative integer")))
}

fn get_u32(doc: &Json, key: &str) -> Result<u32, CheckpointError> {
    u32::try_from(get_u64(doc, key)?).map_err(|_| bad(format!("'{key}' exceeds u32")))
}

fn get_bool(doc: &Json, key: &str) -> Result<bool, CheckpointError> {
    match get(doc, key)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(bad(format!("'{key}' is not a boolean"))),
    }
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, CheckpointError> {
    get(doc, key)?
        .as_str()
        .ok_or_else(|| bad(format!("'{key}' is not a string")))
}

fn get_arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], CheckpointError> {
    get(doc, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("'{key}' is not an array")))
}

fn int_u64(value: &Json, what: &str) -> Result<u64, CheckpointError> {
    value
        .as_int()
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| bad(format!("{what} is not a non-negative integer")))
}

fn int_u32(value: &Json, what: &str) -> Result<u32, CheckpointError> {
    u32::try_from(int_u64(value, what)?).map_err(|_| bad(format!("{what} exceeds u32")))
}

fn u64_arr(doc: &Json, key: &str) -> Result<Vec<u64>, CheckpointError> {
    get_arr(doc, key)?.iter().map(|v| int_u64(v, key)).collect()
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
    match get_str(doc, "op")? {
        "load" => Ok(MemAccessKind::Load {
            width: width_from_json(get(doc, "width")?, "load width")?,
            signed: get_bool(doc, "signed")?,
            rd: reg_from_json(get(doc, "rd")?, "load rd")?.ok_or_else(|| bad("load without rd"))?,
        }),
        "store" => Ok(MemAccessKind::Store {
            width: width_from_json(get(doc, "width")?, "store width")?,
            value: get_u32(doc, "value")?,
        }),
        "amo" => Ok(MemAccessKind::Amo {
            op: amo_from_tag(get_str(doc, "amo")?)?,
            value: get_u32(doc, "value")?,
            rd: reg_from_json(get(doc, "rd")?, "amo rd")?.ok_or_else(|| bad("amo without rd"))?,
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
        tile: TileId(get_u32(doc, "tile")?),
        bank: BankId(get_u32(doc, "bank")?),
        word: get_u32(doc, "word")?,
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
    let accesses = u64_arr(doc, "accesses")?;
    let network = u64_arr(doc, "network_accesses")?;
    Ok(CoreStats {
        retired: get_u64(doc, "retired")?,
        stall_scoreboard: get_u64(doc, "stall_scoreboard")?,
        stall_structural: get_u64(doc, "stall_structural")?,
        stall_icache: get_u64(doc, "stall_icache")?,
        icache_misses: get_u64(doc, "icache_misses")?,
        stall_branch: get_u64(doc, "stall_branch")?,
        stall_fault_retry: get_u64(doc, "stall_fault_retry")?,
        stall_ecc: get_u64(doc, "stall_ecc")?,
        halted_cycles: get_u64(doc, "halted_cycles")?,
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
    match get_str(doc, "state")? {
        "healthy" => Ok(LinkState::Healthy),
        "degraded" => Ok(LinkState::Degraded(get_u32(doc, "extra")?)),
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
    let cycle = get_u64(doc, "cycle")?;
    let fault = get(doc, "fault")?;
    let fault = match get_str(fault, "kind")? {
        "flip" => TimedFault::Flip {
            loc: loc_from_json(get(fault, "loc")?)?,
            mask: get_u32(fault, "mask")?,
        },
        "hang" => TimedFault::Hang {
            core: get_u32(fault, "core")?,
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
        let schema = get_str(doc, "schema")?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(CheckpointError::Mismatch {
                field: "schema",
                expected: CHECKPOINT_SCHEMA.to_string(),
                found: schema.to_string(),
            });
        }
        let engine = get_str(doc, "engine_version")?;
        if engine != ENGINE_VERSION {
            return Err(CheckpointError::Mismatch {
                field: "engine_version",
                expected: ENGINE_VERSION.to_string(),
                found: engine.to_string(),
            });
        }

        let cfg = get(doc, "config")?;
        let config = ClusterConfig::builder()
            .groups(get_u32(cfg, "groups")?)
            .tiles_per_group(get_u32(cfg, "tiles_per_group")?)
            .cores_per_tile(get_u32(cfg, "cores_per_tile")?)
            .banks_per_tile(get_u32(cfg, "banks_per_tile")?)
            .bank_words(get_u32(cfg, "bank_words")?)
            .icache_bytes_per_tile(get_u32(cfg, "icache_bytes_per_tile")?)
            .icache_banks_per_tile(get_u32(cfg, "icache_banks_per_tile")?)
            .remote_ports_per_tile(get_u32(cfg, "remote_ports_per_tile")?)
            .build()
            .map_err(|e| bad(format!("invalid config: {e}")))?;

        let p = get(doc, "params")?;
        let params = SimParams {
            latency: LatencyModel {
                tile_local: get_u32(p, "tile_local")?,
                group_local: get_u32(p, "group_local")?,
                remote: get_u32(p, "remote")?,
            },
            max_outstanding: get_u32(p, "max_outstanding")?,
            taken_branch_penalty: get_u32(p, "taken_branch_penalty")?,
            icache_miss_penalty: get_u32(p, "icache_miss_penalty")?,
            icache_line_words: get_u32(p, "icache_line_words")?,
            icache_ways: get_u32(p, "icache_ways")?,
            offchip_bytes_per_cycle: get_u32(p, "offchip_bytes_per_cycle")?,
            offchip_latency: get_u32(p, "offchip_latency")?,
            ecc_correction_penalty: get_u32(p, "ecc_correction_penalty")?,
            threads: default_threads(),
        };
        let expected_digest = format!("{:016x}", params.digest());
        let saved_digest = get_str(doc, "params_digest")?;
        if saved_digest != expected_digest {
            return Err(CheckpointError::Mismatch {
                field: "params_digest",
                expected: expected_digest,
                found: saved_digest.to_string(),
            });
        }

        let mut cluster = Cluster::new(config, params);

        // Program: set the field directly — `load_program` resets PCs,
        // which would destroy the per-core state restored next.
        let program_words: Vec<u32> = get_arr(doc, "program")?
            .iter()
            .map(|w| int_u32(w, "program word"))
            .collect::<Result<_, _>>()?;
        cluster.program =
            Program::from_words(&program_words).map_err(|e| bad(format!("bad program: {e}")))?;

        let cores = get_arr(doc, "cores")?;
        if cores.len() != cluster.cores.len() {
            return Err(bad(format!(
                "core count mismatch: saved {}, config has {}",
                cores.len(),
                cluster.cores.len()
            )));
        }
        for (core, saved) in cluster.cores.iter_mut().zip(cores) {
            let regs = u64_arr(saved, "regs")?;
            if regs.len() != 32 {
                return Err(bad("'regs' must have 32 entries"));
            }
            for (number, &value) in regs.iter().enumerate() {
                let value = u32::try_from(value).map_err(|_| bad("register value exceeds u32"))?;
                core.regs.write(Reg::new(number as u8), value);
            }
            core.pc = get_u32(saved, "pc")?;
            core.restore_timing(
                get_bool(saved, "halted")?,
                get_bool(saved, "hung")?,
                get_u32(saved, "busy")?,
                get_u32(saved, "outstanding")?,
                get_u32(saved, "bubble")?,
            );
            core.stats = core_stats_from_json(get(saved, "stats")?)?;
        }

        let icaches = get_arr(doc, "icaches")?;
        if icaches.len() != cluster.icaches.len() {
            return Err(bad(format!(
                "icache count mismatch: saved {}, config has {}",
                icaches.len(),
                cluster.icaches.len()
            )));
        }
        for (icache, saved) in cluster.icaches.iter_mut().zip(icaches) {
            let tags = u64_arr(saved, "tags")?
                .into_iter()
                .map(|t| u32::try_from(t).map_err(|_| bad("icache tag exceeds u32")))
                .collect::<Result<Vec<_>, _>>()?;
            let stamps = u64_arr(saved, "stamps")?;
            icache
                .restore_state(
                    tags,
                    stamps,
                    get_u64(saved, "clock")?,
                    get_u64(saved, "hits")?,
                    get_u64(saved, "misses")?,
                )
                .map_err(bad)?;
        }

        let banks = get_arr(doc, "banks")?;
        if banks.len() != cluster.banks.len() {
            return Err(bad(format!(
                "bank count mismatch: saved {}, config has {}",
                banks.len(),
                cluster.banks.len()
            )));
        }
        for (bank, saved) in cluster.banks.iter_mut().zip(banks) {
            let queue = get_arr(saved, "queue")?
                .iter()
                .map(|req| {
                    Ok(PendingAccess {
                        arrival: get_u64(req, "arrival")?,
                        core: get_u32(req, "core")?,
                        loc: loc_from_json(get(req, "loc")?)?,
                        kind: kind_from_json(get(req, "kind")?)?,
                        resp_latency: get_u32(req, "resp_latency")?,
                        addr: get_u32(req, "addr")?,
                    })
                })
                .collect::<Result<Vec<_>, CheckpointError>>()?;
            let stats = get(saved, "stats")?;
            *bank = Bank {
                queue,
                stats: BankStats {
                    served: get_u64(stats, "served")?,
                    conflicts: get_u64(stats, "conflicts")?,
                    max_queue_depth: get_u64(stats, "max_queue_depth")?,
                },
            };
        }

        let responses = get_arr(doc, "responses")?;
        if responses.len() != cluster.responses.len() {
            return Err(bad(format!(
                "response-queue count mismatch: saved {}, config has {}",
                responses.len(),
                cluster.responses.len()
            )));
        }
        for (queue, saved) in cluster.responses.iter_mut().zip(responses) {
            let saved = saved
                .as_arr()
                .ok_or_else(|| bad("'responses' entries must be arrays"))?;
            *queue = saved
                .iter()
                .map(|resp| {
                    Ok(Response {
                        due: get_u64(resp, "due")?,
                        reg: reg_from_json(get(resp, "reg")?, "response reg")?,
                        value: get_u32(resp, "value")?,
                    })
                })
                .collect::<Result<Vec<_>, CheckpointError>>()?;
        }

        let offchip = get(doc, "offchip")?;
        cluster.offchip.restore_state(
            get_u64(offchip, "busy_until")?,
            get_u64(offchip, "total_bytes")?,
            get_u64(offchip, "total_cycles")?,
        );

        // Storage: re-establish the remap table first (so the spare array
        // has its final size), then overwrite all contents wholesale.
        let storage = get(doc, "storage")?;
        let spares_per_tile = get_u32(storage, "spares_per_tile")?;
        if spares_per_tile > 0 {
            cluster.storage.provision_spares(spares_per_tile);
        }
        for entry in get_arr(storage, "remaps")? {
            let triple = entry
                .as_arr()
                .filter(|t| t.len() == 3)
                .ok_or_else(|| bad("remap entries must be [tile, from, to] triples"))?;
            let tile = TileId(int_u32(&triple[0], "remap tile")?);
            let from = BankId(int_u32(&triple[1], "remap from-bank")?);
            let to = BankId(int_u32(&triple[2], "remap to-bank")?);
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
        let spm = hex_to_words(get_str(storage, "spm")?, "'spm'")?;
        let spare = hex_to_words(get_str(storage, "spare")?, "'spare'")?;
        let external = get_arr(storage, "external")?
            .iter()
            .map(|entry| {
                let pair = entry
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| bad("external entries must be [offset, value] pairs"))?;
                Ok((
                    int_u64(&pair[0], "external offset")?,
                    int_u32(&pair[1], "external value")?,
                ))
            })
            .collect::<Result<Vec<_>, CheckpointError>>()?;
        cluster
            .storage
            .restore_contents(spm, spare, external, get_u64(storage, "touches")?)
            .map_err(bad)?;

        match get(doc, "faults")? {
            Json::Null => {}
            faults => {
                let links = get_arr(faults, "links")?
                    .iter()
                    .map(link_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let timed = get_arr(faults, "timed")?
                    .iter()
                    .map(timed_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let stuck = get_arr(faults, "stuck")?
                    .iter()
                    .map(|entry| {
                        let pair = entry
                            .as_arr()
                            .filter(|p| p.len() == 2)
                            .ok_or_else(|| bad("stuck entries must be [tile, bank] pairs"))?;
                        Ok((
                            TileId(int_u32(&pair[0], "stuck tile")?),
                            BankId(int_u32(&pair[1], "stuck bank")?),
                        ))
                    })
                    .collect::<Result<Vec<_>, CheckpointError>>()?;
                let ecc = EccState::from_entries(
                    get_arr(faults, "ecc")?
                        .iter()
                        .map(|entry| {
                            Ok((loc_from_json(get(entry, "loc")?)?, get_u32(entry, "mask")?))
                        })
                        .collect::<Result<Vec<_>, CheckpointError>>()?,
                );
                let report = FaultReport::from_json(get(faults, "report")?).map_err(bad)?;
                cluster.faults = Some(FaultController::from_snapshot(
                    links,
                    timed,
                    ecc,
                    stuck,
                    policy_from_tag(get_str(faults, "dead_link_policy")?)?,
                    report,
                ));
            }
        }

        match get(doc, "watchdog")? {
            Json::Null => {}
            watchdog => {
                // `Watchdog::new(threshold, now)` arms at `now`; feeding the
                // saved last-progress cycle reproduces the exact stall
                // window.
                cluster.watchdog = Some(Watchdog::new(
                    get_u64(watchdog, "threshold")?,
                    get_u64(watchdog, "last_progress")?,
                ));
            }
        }

        match get(doc, "sampler")? {
            Json::Null => {}
            sampler => {
                cluster.sampler = Some(Sampler {
                    window: get_u64(sampler, "window")?.max(1),
                    epoch_start: get_u64(sampler, "epoch_start")?,
                    next_at: get_u64(sampler, "next_at")?,
                    retired_per_tile: u64_arr(sampler, "retired_per_tile")?,
                    local_accesses: get_u64(sampler, "local_accesses")?,
                    remote_accesses: get_u64(sampler, "remote_accesses")?,
                    conflicts: get_u64(sampler, "conflicts")?,
                    offchip_bytes: get_u64(sampler, "offchip_bytes")?,
                    spm_touches: get_u64(sampler, "spm_touches")?,
                });
            }
        }

        cluster.cycle = get_u64(doc, "cycle")?;
        cluster.dma_bytes = get_u64(doc, "dma_bytes")?;
        cluster.dma_cycles = get_u64(doc, "dma_cycles")?;
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
        let tmp = self.dir.join(format!(".tmp-ckpt-{}", std::process::id()));
        let io_err = |p: &Path, e: std::io::Error| CheckpointError::Io {
            path: p.display().to_string(),
            message: e.to_string(),
        };
        fs::write(&tmp, cluster.checkpoint().to_pretty()).map_err(|e| io_err(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
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

    #[test]
    fn restore_then_run_matches_unbroken_run() {
        let mut unbroken = fresh_cluster();
        let end = unbroken.run(100_000).unwrap();
        let want = unbroken.stats().digest();

        let mut snap = fresh_cluster();
        // Interrupt mid-run at an arbitrary cycle.
        assert!(matches!(snap.run(37), Err(SimError::Timeout { .. })));
        let doc = Json::parse(&snap.checkpoint().to_pretty()).unwrap();
        let mut restored = Cluster::restore(&doc).unwrap();
        let resumed_end = restored.run(100_000).unwrap();
        assert_eq!(resumed_end, end);
        assert_eq!(restored.stats().digest(), want);
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
        let cluster = fresh_cluster();
        let doc = cluster.checkpoint();
        let Json::Obj(mut pairs) = doc else {
            panic!("checkpoint must be an object")
        };
        for (key, value) in &mut pairs {
            if key == "engine_version" {
                *value = Json::str("mempool-sim/v0-ancient");
            }
        }
        let err = Cluster::restore(&Json::Obj(pairs)).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Mismatch {
                field: "engine_version",
                ..
            }
        ));
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
