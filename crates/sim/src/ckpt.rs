//! Versioned checkpoint/restore of a running [`Cluster`].
//!
//! A checkpoint is a single `mempool-checkpoint/v5` JSON document (same
//! plumbing as `crashdump.json`) capturing *everything* that influences
//! simulated behavior: per-core architectural and scoreboard state, the
//! program, all SPM/spare/external memory with its spare-bank remaps and
//! latent ECC masks, in-flight bank requests and response queues, the
//! off-chip port, the fault controller (link health, undelivered timed
//! events, the accumulated report), the watchdog, and the time-series
//! sampler's epoch cursors. The masks are storage state, but the file
//! keeps them in the `faults` section, which only a fault-injection run
//! writes and only such a run can have masks for.
//!
//! The contract is strict **bit-exactness**: [`Cluster::restore`] followed
//! by [`Cluster::run`] produces a [`crate::ClusterStats::digest`] equal to
//! the unbroken run's — a checkpoint carries no host-side state.
//!
//! # Layout
//!
//! The header is named JSON — `schema`, `engine_version`,
//! `params_digest`, `config` (5 fields: the cluster's shape and bank
//! depth; the tile's I$ and remote ports are constant and so not saved),
//! `params` (4 fields: the I$ line and ways and the off-chip port; the
//! fixed timing is constant and so not saved) — because tests and
//! [`CheckpointError::Mismatch`] name those fields. Everything else is a
//! **section**: one string of fixed-width hex words under a top-level key.
//! `program`, `spm` and `spare` are memory images of 8-digit (`u32`)
//! words — `spm` in `Storage`'s own address order, as it is; `clock`,
//! `cores`, `icaches`, `banks`, `responses`, `offchip`, `storage`,
//! `faults`, `watchdog` and `sampler` are the 16-digit (`u64`) words
//! `Words::pack` produces — `icaches` holds each tile's tags, LRU stamps
//! and LRU clock. The fault report keeps its own JSON form under
//! `fault_report`.
//!
//! Every saved record has **one** spelling: a `Words` impl whose `pack`
//! and `unpack` walk the same field list (`words_struct!` next to each
//! struct). [`crate::ClusterStats::digest`] hashes the words that same
//! list packs, so a counter added to a record can miss neither the digest
//! nor the file.
//!
//! [`Cluster::restore`] **decodes, checks, then builds** (its docs list
//! the checks), so a hostile file is a typed error before anything is
//! sized by it. A v1, v2, v3 or v4 file is refused with
//! [`CheckpointError::Mismatch`] on `schema`; there is no reader for old
//! versions — a snapshot protects a run of seconds and nothing keeps them.
//!
//! Deliberately **excluded** (and why it is sound to do so):
//!
//! * the engine's live sets, the issue records and the topology helper —
//!   derived state, which the one machine constructor builds from the
//!   restored queues, program and configuration;
//! * the attachments, except the fault controller, watchdog and sampler
//!   it carries — the obs hooks (metrics, spans, time-series contents,
//!   flight ring) and the instruction trace are measurement, not
//!   simulated state; callers re-attach and re-arm them after restoring
//!   (the sampler's epoch cursors *are* saved, and
//!   [`Cluster::enable_timeseries`] keeps them, so re-armed series stay
//!   aligned).
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

use mempool_arch::{BankId, BankLocation, ClusterConfig, TileId};
use mempool_fault::{
    DeadLinkPolicy, FaultController, FaultReport, LinkState, TimedFault, Watchdog,
};
use mempool_isa::exec::{MemAccessKind, MemWidth};
use mempool_isa::instr::AmoOp;
use mempool_isa::{Program, Reg, RegFile};
use mempool_obs::{load_json_file, write_atomic, Json, JsonError, LoadOutcome};

use crate::cluster::{Bank, Cluster, PendingAccess, Response, Sampler, SimError};
use crate::core::Core;
use crate::engine::{Attachments, Machine};
use crate::icache::{ICache, ICacheState};
use crate::memory::Storage;
use crate::offchip::OffchipPort;
use crate::params::{SimParams, ENGINE_VERSION};

/// Schema tag of the checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "mempool-checkpoint/v5";

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
    /// types, sections that do not decode, state that does not fit the
    /// geometry) — includes checkpoints quarantined by the corrupt-file
    /// policy.
    Malformed(String),
    /// The checkpoint is well-formed but belongs to a different world:
    /// another schema or engine version, or another parameter set.
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

fn bad(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed(msg.into())
}

// ---------------------------------------------------------------------------
// Words: the one spelling of every saved record
// ---------------------------------------------------------------------------

/// A record a checkpoint section carries as `u64` words. `unpack` reads
/// back exactly what `pack` handed out, in the same order — so each impl
/// is the one place a record's field list is written down.
pub(crate) trait Words: Sized {
    /// Hands this value's words to `out`, one by one (a section collects
    /// them, the stats digest hashes them as they come).
    fn pack(&self, out: &mut impl FnMut(u64));
    /// Reads one value back, or says what is wrong with the words.
    fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError>;
}

/// The not-yet-read words of one section.
pub(crate) struct Cursor<'a> {
    section: &'a str,
    words: &'a [u64],
}

impl Cursor<'_> {
    fn bad(&self, msg: impl fmt::Display) -> CheckpointError {
        bad(format!("section '{}': {msg}", self.section))
    }

    fn word(&mut self) -> Result<u64, CheckpointError> {
        let (&word, rest) = self
            .words
            .split_first()
            .ok_or_else(|| self.bad("ends before its last record does"))?;
        self.words = rest;
        Ok(word)
    }
}

/// A type that packs into exactly one word: `$to` makes the word of
/// `$value`, `$from` gives the value of `$word` back — or `None` when the
/// word is none the type has.
macro_rules! one_word {
    ($ty:ty, $what:literal, |$value:ident| $to:expr, |$word:ident| $from:expr) => {
        impl Words for $ty {
            fn pack(&self, out: &mut impl FnMut(u64)) {
                let $value = *self;
                out($to);
            }

            fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
                let $word = cur.word()?;
                $from.ok_or_else(|| cur.bad(format!("{:#x} is not {}", $word, $what)))
            }
        }
    };
}

/// A fieldless enum as one word, each variant listed once with its word.
macro_rules! word_enum {
    ($ty:ident, $what:literal, { $($variant:ident = $word:literal),+ }) => {
        one_word!(
            $ty,
            $what,
            |value| match value {
                $($ty::$variant => $word),+
            },
            |word| match word {
                $($word => Some($ty::$variant),)+
                _ => None,
            }
        );
    };
}

one_word!(u64, "a word", |value| value, |word| Some(word));
one_word!(u32, "a 32-bit value", |value| u64::from(value), |word| {
    u32::try_from(word).ok()
});
one_word!(
    bool,
    "a flag",
    |value| u64::from(value),
    |word| match word {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    }
);
one_word!(
    Reg,
    "a register number",
    |value| u64::from(value.number()),
    |word| u8::try_from(word).ok().filter(|&n| n < 32).map(Reg::new)
);
one_word!(TileId, "a tile id", |value| u64::from(value.0), |word| {
    u32::try_from(word).ok().map(TileId)
});
one_word!(BankId, "a bank id", |value| u64::from(value.0), |word| {
    u32::try_from(word).ok().map(BankId)
});
word_enum!(MemWidth, "an access width", { Byte = 1, Half = 2, Word = 4 });
word_enum!(
    AmoOp,
    "an atomic operation",
    { Add = 0, Swap = 1, And = 2, Or = 3, Xor = 4, Max = 5, Min = 6 }
);
word_enum!(DeadLinkPolicy, "a dead-link policy", { Error = 0, BlackHole = 1 });

impl<T: Words> Words for Option<T> {
    fn pack(&self, out: &mut impl FnMut(u64)) {
        self.is_some().pack(out);
        if let Some(value) = self {
            value.pack(out);
        }
    }

    fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        bool::unpack(cur)?.then(|| T::unpack(cur)).transpose()
    }
}

impl<T: Words> Words for Vec<T> {
    fn pack(&self, out: &mut impl FnMut(u64)) {
        (self.len() as u64).pack(out);
        for item in self {
            item.pack(out);
        }
    }

    fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        let len = cur.word()?;
        // Every record packs at least one word, so a length the remaining
        // words cannot back is refused before anything is allocated for
        // it.
        let left = cur.words.len();
        if len > left as u64 {
            return Err(cur.bad(format!("a length of {len} with {left} words left")));
        }
        let mut items = Vec::with_capacity(len as usize);
        for _ in 0..len {
            items.push(T::unpack(cur)?);
        }
        Ok(items)
    }
}

impl<T: Words + Copy + Default, const N: usize> Words for [T; N] {
    fn pack(&self, out: &mut impl FnMut(u64)) {
        for item in self {
            item.pack(out);
        }
    }

    fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        let mut items = [T::default(); N];
        for slot in &mut items {
            *slot = T::unpack(cur)?;
        }
        Ok(items)
    }
}

/// Tuples pack their members in order — the form of the records that
/// have no struct of their own (a section's parts, a tagged enum's
/// payload).
macro_rules! words_tuple {
    ($($member:ident)+) => {
        impl<$($member: Words),+> Words for ($($member,)+) {
            #[allow(non_snake_case)]
            fn pack(&self, out: &mut impl FnMut(u64)) {
                let ($($member,)+) = self;
                $($member.pack(out);)+
            }

            fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
                Ok(($($member::unpack(cur)?,)+))
            }
        }
    };
}

words_tuple!(A B);
words_tuple!(A B C);
words_tuple!(A B C D);
words_tuple!(A B C D E);

/// Implements [`Words`] for a struct from its field list: `pack` and
/// `unpack` walk the fields in the order written, and `unpack`'s struct
/// literal makes a forgotten field a compile error.
macro_rules! words_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ckpt::Words for $ty {
            fn pack(&self, out: &mut impl FnMut(u64)) {
                $(self.$field.pack(out);)+
            }

            fn unpack(
                cur: &mut $crate::ckpt::Cursor<'_>,
            ) -> Result<Self, $crate::ckpt::CheckpointError> {
                Ok($ty {
                    $($field: $crate::ckpt::Words::unpack(cur)?,)+
                })
            }
        }
    };
}
pub(crate) use words_struct;

words_struct!(BankLocation { tile, bank, word });

impl Words for RegFile {
    fn pack(&self, out: &mut impl FnMut(u64)) {
        self.snapshot().pack(out);
    }

    fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        let values = <[u32; 32]>::unpack(cur)?;
        let mut regs = RegFile::new();
        for (reg, value) in Reg::all().zip(values) {
            regs.write(reg, value);
        }
        Ok(regs)
    }
}

impl Words for MemAccessKind {
    fn pack(&self, out: &mut impl FnMut(u64)) {
        match *self {
            MemAccessKind::Load { width, signed, rd } => (0u64, width, signed, rd).pack(out),
            MemAccessKind::Store { width, value } => (1u64, width, value).pack(out),
            MemAccessKind::Amo { op, value, rd } => (2u64, op, value, rd).pack(out),
        }
    }

    fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        match cur.word()? {
            0 => {
                let (width, signed, rd) = Words::unpack(cur)?;
                Ok(MemAccessKind::Load { width, signed, rd })
            }
            1 => {
                let (width, value) = Words::unpack(cur)?;
                Ok(MemAccessKind::Store { width, value })
            }
            2 => {
                let (op, value, rd) = Words::unpack(cur)?;
                Ok(MemAccessKind::Amo { op, value, rd })
            }
            tag => Err(cur.bad(format!("{tag:#x} is not an access kind"))),
        }
    }
}

impl Words for LinkState {
    fn pack(&self, out: &mut impl FnMut(u64)) {
        match *self {
            LinkState::Healthy => 0u64.pack(out),
            LinkState::Degraded(extra) => (1u64, extra).pack(out),
            LinkState::Dead => 2u64.pack(out),
        }
    }

    fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        match cur.word()? {
            0 => Ok(LinkState::Healthy),
            1 => Ok(LinkState::Degraded(u32::unpack(cur)?)),
            2 => Ok(LinkState::Dead),
            tag => Err(cur.bad(format!("{tag:#x} is not a link state"))),
        }
    }
}

impl Words for TimedFault {
    fn pack(&self, out: &mut impl FnMut(u64)) {
        match *self {
            TimedFault::Flip { loc, mask } => (0u64, loc, mask).pack(out),
            TimedFault::Hang { core } => (1u64, core).pack(out),
        }
    }

    fn unpack(cur: &mut Cursor<'_>) -> Result<Self, CheckpointError> {
        match cur.word()? {
            0 => {
                let (loc, mask) = Words::unpack(cur)?;
                Ok(TimedFault::Flip { loc, mask })
            }
            1 => Ok(TimedFault::Hang {
                core: u32::unpack(cur)?,
            }),
            tag => Err(cur.bad(format!("{tag:#x} is not a timed fault"))),
        }
    }
}

/// Writes words as fixed-width hex — 8 digits per `u32` of a memory
/// image, 16 per `u64` of a packed section — deterministic, and ~4x
/// denser than a JSON integer array.
fn to_hex<T: Copy + Into<u64>>(words: &[T]) -> Json {
    let digits = 2 * size_of::<T>();
    let mut text = Vec::with_capacity(words.len() * digits);
    for &word in words {
        let word: u64 = word.into();
        let nibbles = (0..digits)
            .rev()
            .map(|digit| (word >> (4 * digit)) as usize & 0xf);
        text.extend(nibbles.map(|nibble| b"0123456789abcdef"[nibble]));
    }
    Json::Str(String::from_utf8(text).expect("hex digits are ASCII"))
}

/// Reads the hex-word string at `doc[name]` back.
fn from_hex<T: TryFrom<u64>>(doc: &Json, name: &str) -> Result<Vec<T>, CheckpointError> {
    let digits = 2 * size_of::<T>();
    let text = doc.str_field(name)?.as_bytes();
    let words = text.chunks_exact(digits).map(|chunk| {
        let word = chunk.iter().try_fold(0u64, |word, &byte| {
            Some(word << 4 | u64::from(char::from(byte).to_digit(16)?))
        })?;
        T::try_from(word).ok()
    });
    words
        .collect::<Option<Vec<T>>>()
        .filter(|_| text.len().is_multiple_of(digits))
        .ok_or_else(|| bad(format!("section '{name}': not {digits}-digit hex words")))
}

/// The packed words of `value`, as a section string.
fn section_of<T: Words>(value: &T) -> Json {
    let mut words = Vec::new();
    value.pack(&mut |word| words.push(word));
    to_hex(&words)
}

/// Decodes the section `doc[name]` into a `T`, all of it: words left over
/// are as malformed as words missing.
fn section<T: Words>(doc: &Json, name: &str) -> Result<T, CheckpointError> {
    let words = from_hex::<u64>(doc, name)?;
    let mut cur = Cursor {
        section: name,
        words: &words,
    };
    let value = T::unpack(&mut cur)?;
    match cur.words.len() {
        0 => Ok(value),
        extra => Err(cur.bad(format!("{extra} trailing words"))),
    }
}

/// Test hook (`tests/properties.rs`): whether a queued request and a
/// response built from the given parts, the access kind and the timed
/// fault each come back equal, with no word left over, from the section
/// their words were written to.
#[doc(hidden)]
pub fn records_round_trip(
    [arrival, due]: [u64; 2],
    [core, resp_latency, addr, value]: [u32; 4],
    loc: BankLocation,
    kind: MemAccessKind,
    fault: TimedFault,
) -> bool {
    fn round_trips<T: Words + PartialEq>(value: T) -> bool {
        let doc = Json::obj([("record", section_of(&value))]);
        section::<T>(&doc, "record").is_ok_and(|back| back == value)
    }
    let request = PendingAccess {
        arrival,
        core,
        loc,
        kind,
        resp_latency,
        addr,
    };
    let response = Response {
        due,
        reg: kind.response_reg(),
        value,
    };
    round_trips(request) && round_trips(response) && round_trips(kind) && round_trips(fault)
}

/// [`CheckpointError::Mismatch`] unless the header string `doc[field]` is
/// the `expected` one.
fn expect_field(doc: &Json, field: &'static str, expected: &str) -> Result<(), CheckpointError> {
    let found = doc.str_field(field)?;
    if found == expected {
        return Ok(());
    }
    Err(CheckpointError::Mismatch {
        field,
        expected: expected.to_string(),
        found: found.to_string(),
    })
}

/// A JSON object of named `u32` header fields.
fn named<const N: usize>(fields: [(&'static str, u32); N]) -> Json {
    Json::obj(fields.map(|(name, value)| (name, Json::Int(i64::from(value)))))
}

/// The `storage` section: spare banks per tile, external memory as
/// `(word offset, value)` pairs, the SPM touch counter, and the remap
/// table as `(tile, from, to)` triples. The SPM and spare images are
/// sections of their own.
type StorageParts = (u32, Vec<(u64, u32)>, u64, Vec<(TileId, BankId, BankId)>);

/// The `faults` section of a fault-injection run: link health per tile,
/// the undelivered timed events, the stuck banks, the dead-link policy
/// and the latent ECC masks (the storage's, in location order).
type FaultParts = (
    Vec<LinkState>,
    Vec<(u64, TimedFault)>,
    Vec<(TileId, BankId)>,
    DeadLinkPolicy,
    Vec<(BankLocation, u32)>,
);

/// The `faults` section of `ctrl` armed on `storage`: what a restored
/// controller is built from, beside its report, and the masks restored
/// into the storage.
fn fault_parts(ctrl: &FaultController, storage: &Storage) -> FaultParts {
    (
        ctrl.links().to_vec(),
        ctrl.remaining_timed().to_vec(),
        ctrl.stuck_banks().to_vec(),
        ctrl.dead_link_policy(),
        storage.ecc().entries().collect(),
    )
}

// ---------------------------------------------------------------------------
// Cluster::checkpoint / Cluster::restore
// ---------------------------------------------------------------------------

impl Cluster {
    /// Serializes the full simulated state as a `mempool-checkpoint/v5`
    /// document. See the [module docs](self) for the layout and for what
    /// is (and is deliberately not) captured.
    pub fn checkpoint(&self) -> Json {
        let (m, a) = (&self.machine, &self.attach);
        let (config, params) = (&m.config, &m.params);
        let icaches: Vec<ICacheState> = m.icaches.iter().map(ICache::state_snapshot).collect();
        let storage: StorageParts = (
            m.storage.spares_per_tile(),
            m.storage.external_entries().collect(),
            m.storage.spm_word_touches(),
            m.storage.remaps().to_vec(),
        );
        let faults = a.faults.as_ref().map(|ctrl| fault_parts(ctrl, &m.storage));
        let watchdog = a
            .watchdog
            .map(|watchdog| (watchdog.threshold(), watchdog.last_progress()));
        Json::obj([
            ("schema", Json::str(CHECKPOINT_SCHEMA)),
            ("engine_version", Json::str(ENGINE_VERSION)),
            (
                "params_digest",
                Json::Str(format!("{:016x}", params.digest())),
            ),
            (
                "config",
                named([
                    ("groups", config.groups()),
                    ("tiles_per_group", config.tiles_per_group()),
                    ("cores_per_tile", config.cores_per_tile()),
                    ("banks_per_tile", config.banks_per_tile()),
                    ("bank_words", config.bank_words()),
                ]),
            ),
            (
                "params",
                named(
                    { *params }
                        .timing_fields_mut()
                        .map(|(name, value)| (name, *value)),
                ),
            ),
            ("clock", section_of(&(m.cycle, m.dma_bytes, m.dma_cycles))),
            ("program", to_hex(&m.program.to_words())),
            ("cores", section_of(&m.cores)),
            ("icaches", section_of(&icaches)),
            ("banks", section_of(&m.banks)),
            ("responses", section_of(&m.responses)),
            (
                "offchip",
                section_of(&(
                    m.offchip.busy_until(),
                    m.offchip.total_bytes(),
                    m.offchip.total_cycles(),
                )),
            ),
            ("storage", section_of(&storage)),
            ("spm", to_hex(m.storage.spm_words())),
            ("spare", to_hex(m.storage.spare_words())),
            ("faults", section_of(&faults)),
            (
                "fault_report",
                self.fault_report()
                    .map_or(Json::Null, |report| report.to_json()),
            ),
            ("watchdog", section_of(&watchdog)),
            ("sampler", section_of(&a.sampler)),
        ])
    }

    /// Rebuilds a cluster from a checkpoint document. Observability is
    /// *not* restored: attach/arm it again with
    /// [`Cluster::attach_obs`]/[`Cluster::enable_timeseries`]/
    /// [`Cluster::enable_flight`] as needed (the second re-arms the
    /// sampler the checkpoint carried, on its saved epoch).
    ///
    /// The document is decoded in full, then checked, and only then is
    /// anything built from it. The checks: schema, engine version and
    /// parameter digest; a configuration the builder accepts and an I$
    /// geometry that constructs; a program that decodes; a clock the
    /// engine can count on from; core, response-queue, I$ and bank counts
    /// and the SPM and spare image lengths equal to what the geometry
    /// gives (in checked arithmetic); every queued request waiting at the
    /// bank its location names, for a word inside the bank, from a core
    /// that exists and counts it among its outstanding transactions; a
    /// nonzero off-chip bandwidth; a remap table that replays onto the
    /// same spares; I$ arrays of the cache's size; and last, against the
    /// totals of the machine built, a sampler window the clock can add and
    /// an epoch that starts no later than the clock, with no baseline
    /// above the restored total it is subtracted from.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] for a checkpoint of another schema or
    /// engine version or with inconsistent parameters,
    /// [`CheckpointError::Malformed`] for everything else above.
    pub fn restore(doc: &Json) -> Result<Cluster, CheckpointError> {
        expect_field(doc, "schema", CHECKPOINT_SCHEMA)?;
        expect_field(doc, "engine_version", ENGINE_VERSION)?;

        let cfg = doc.field("config")?;
        let config = ClusterConfig::builder()
            .groups(cfg.u32_field("groups")?)
            .tiles_per_group(cfg.u32_field("tiles_per_group")?)
            .cores_per_tile(cfg.u32_field("cores_per_tile")?)
            .banks_per_tile(cfg.u32_field("banks_per_tile")?)
            .bank_words(cfg.u32_field("bank_words")?)
            .build()
            .map_err(|e| bad(format!("invalid config: {e}")))?;

        let p = doc.field("params")?;
        let mut params = SimParams::default();
        for (name, value) in params.timing_fields_mut() {
            *value = p.u32_field(name)?;
        }
        expect_field(doc, "params_digest", &format!("{:016x}", params.digest()))?;

        ICache::check_geometry(
            ClusterConfig::ICACHE_BYTES_PER_TILE,
            params.icache_line_words,
            params.icache_ways,
        )
        .map_err(|rule| bad(format!("invalid icache geometry: {rule}")))?;
        OffchipPort::check_bandwidth(params.offchip_bytes_per_cycle).map_err(bad)?;

        // Decode: every section becomes values before any is believed.
        let program = Program::from_words(&from_hex::<u32>(doc, "program")?)
            .map_err(|e| bad(format!("bad program: {e}")))?;
        let (cycle, dma_bytes, dma_cycles): (u64, u64, u64) = section(doc, "clock")?;
        let cores: Vec<Core> = section(doc, "cores")?;
        let icaches: Vec<ICacheState> = section(doc, "icaches")?;
        let banks: Vec<Bank> = section(doc, "banks")?;
        let responses: Vec<Vec<Response>> = section(doc, "responses")?;
        let (busy_until, total_bytes, total_cycles): (u64, u64, u64) = section(doc, "offchip")?;
        let (spares_per_tile, external, touches, remaps): StorageParts = section(doc, "storage")?;
        let spm = from_hex::<u32>(doc, "spm")?;
        let spare = from_hex::<u32>(doc, "spare")?;
        let faults = match section::<Option<FaultParts>>(doc, "faults")? {
            Some(parts) => Some((parts, FaultReport::from_json(doc.field("fault_report")?)?)),
            None => None,
        };
        let watchdog: Option<(u64, u64)> = section(doc, "watchdog")?;
        let sampler: Option<Sampler> = section(doc, "sampler")?;

        // Check: a clock the engine's `u64` half-tick counters can follow,
        // then the values against the geometry, in the `u32` arithmetic
        // the constructors use, before anything is sized by it.
        if cycle > u64::MAX / 4 {
            return Err(bad(format!("clock at cycle {cycle:#x} has no time left")));
        }
        let tiles = [config.groups(), config.tiles_per_group()];
        let (banks_per_tile, bank_words) = (config.banks_per_tile(), config.bank_words());
        let expect = |what: &str, saved: usize, per_tile: &[u32]| {
            let expected = tiles.iter().chain(per_tile).fold(1u64, |count, &factor| {
                count.saturating_mul(u64::from(factor))
            });
            if u32::try_from(saved).is_ok_and(|saved| u64::from(saved) == expected) {
                return Ok(());
            }
            Err(bad(format!(
                "{what} count mismatch: saved {saved}, config has {expected}"
            )))
        };
        let per_core = [config.cores_per_tile()];
        expect("core", cores.len(), &per_core)?;
        expect("response-queue", responses.len(), &per_core)?;
        expect("icache", icaches.len(), &[])?;
        expect("bank", banks.len(), &[banks_per_tile])?;
        expect("spm word", spm.len(), &[banks_per_tile, bank_words])?;
        expect("spare word", spare.len(), &[spares_per_tile, bank_words])?;
        let mut in_flight: Vec<usize> = responses.iter().map(Vec::len).collect();
        for (index, bank) in banks.iter().enumerate() {
            for request in &bank.queue {
                let PendingAccess { core, loc, .. } = *request;
                let home =
                    u64::from(loc.tile.0) * u64::from(banks_per_tile) + u64::from(loc.bank.0);
                let at_home =
                    loc.bank.0 < banks_per_tile && home == index as u64 && loc.word < bank_words;
                match in_flight.get_mut(core as usize) {
                    Some(count) if at_home => *count += 1,
                    _ => {
                        return Err(bad(format!(
                            "bank {index} queues core {core}'s request for {loc}"
                        )))
                    }
                }
            }
        }
        for (index, (core, in_flight)) in cores.iter().zip(in_flight).enumerate() {
            if in_flight > core.outstanding() as usize {
                return Err(bad(format!(
                    "core {index} has {in_flight} transactions in flight but {} outstanding",
                    core.outstanding()
                )));
            }
        }

        // Build: the storage first, its remap table replayed (so the spare
        // array has its final size) and its contents and latent ECC masks
        // overwritten wholesale; then the machine around it, and the
        // mutable state of its I$s, its off-chip port and its clock.
        let mut storage = Storage::new(&config);
        storage.provision_spares(spares_per_tile);
        for (tile, from, to) in remaps {
            let spare = storage
                .remap_bank(tile, from)
                .map_err(|e| bad(format!("replaying remap failed: {e}")))?;
            if spare != to {
                return Err(bad(format!(
                    "remap replay diverged: tile {} bank {} landed on spare {} (saved {})",
                    tile.0, from.0, spare.0, to.0
                )));
            }
        }
        let masks = faults.as_ref().map(|((.., masks), _)| masks.clone());
        storage
            .restore_contents(spm, spare, external, touches, masks.unwrap_or_default())
            .map_err(bad)?;
        let mut machine = Machine::new(config, params, storage, program, cores, banks, responses);
        for (icache, state) in machine.icaches.iter_mut().zip(icaches) {
            icache.restore_state(state).map_err(bad)?;
        }
        let m = &mut machine;
        m.offchip
            .restore_state(busy_until, total_bytes, total_cycles);
        (m.cycle, m.dma_bytes, m.dma_cycles) = (cycle, dma_bytes, dma_cycles);
        if let Some(sampler) = &sampler {
            sampler.check_resume(&m.totals(), cycle).map_err(bad)?;
        }

        let attach = Attachments {
            faults: faults.map(|((links, timed, stuck, policy, _), report)| {
                FaultController::from_snapshot(links, timed, stuck, policy, report)
            }),
            // `Watchdog::new(threshold, now)` arms at `now`; feeding the
            // saved last-progress cycle reproduces the exact stall window.
            watchdog: watchdog
                .map(|(threshold, last_progress)| Watchdog::new(threshold, last_progress)),
            sampler,
            ..Attachments::default()
        };
        Ok(Cluster { machine, attach })
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
}

// ---------------------------------------------------------------------------
// Checkpointer: periodic atomic snapshot files with bounded retention
// ---------------------------------------------------------------------------

/// Checkpoint files a [`Checkpointer`] retains: the newest three.
const CHECKPOINT_KEEP: usize = 3;

/// Writes periodic checkpoint files into a directory: atomic temp+rename
/// writes, `ckpt-<cycle>.json` names, and bounded retention (the oldest
/// file is deleted once more than three exist).
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    every: u64,
    written: VecDeque<PathBuf>,
}

impl Checkpointer {
    /// Creates the directory (if needed) and a checkpointer snapshotting
    /// every `every` cycles, retaining the newest three files. A zero
    /// `every` is clamped to 1.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| CheckpointError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(Checkpointer {
            dir,
            every: every.max(1),
            written: VecDeque::new(),
        })
    }

    /// The snapshot interval in cycles.
    pub(crate) fn every(&self) -> u64 {
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
    pub(crate) fn save(&mut self, cluster: &Cluster) -> Result<PathBuf, CheckpointError> {
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
        while self.written.len() > CHECKPOINT_KEEP {
            if let Some(old) = self.written.pop_front() {
                let _ = fs::remove_file(old);
            }
        }
        Ok(path)
    }
}

/// Runs `cluster` to quiescence within `budget` cycles, snapshotting into
/// `ckpt` every `Checkpointer::every` cycles of simulated progress.
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
    let deadline = cluster.cycle().saturating_add(budget);
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
    use mempool_arch::GlobalCoreId;
    use mempool_fault::{FaultEvent, FaultPlan, XorShift64};
    use mempool_obs::Obs;

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
        // engine's live sets are not in the file).
        assert!(matches!(snap.run(37), Err(SimError::Timeout { .. })));
        assert!(snap.machine.banks.iter().any(|bank| !bank.queue.is_empty()));
        let doc = Json::parse(&snap.checkpoint().to_pretty()).unwrap();
        let mut restored = Cluster::restore(&doc).unwrap();
        assert_eq!(restored.run(100_000).unwrap(), end);
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
    fn checkpoint_is_a_function_of_external_contents_not_write_order() {
        const WORDS: u64 = 1_000;
        // Every seventh word; every fifth of those ends up zero.
        let offset = |i: u64| i * 28;
        let value = |i: u64| match i % 5 {
            0 => 0,
            _ => (i as u32).wrapping_mul(0x9e37_79b9) | 1,
        };
        let nonzero = (0..WORDS).filter(|&i| value(i) != 0).count();

        let mut ascending = Cluster::new(small_config(), SimParams::default());
        let storage = ascending.storage_mut();
        for i in (0..WORDS).filter(|&i| value(i) != 0) {
            storage.write_external_word(offset(i), value(i));
        }

        let mut shuffled = Cluster::new(small_config(), SimParams::default());
        let storage = shuffled.storage_mut();
        for i in (0..WORDS).rev() {
            storage.write_external_word(offset(i), i as u32 + 1);
        }
        // Overwrite every word with its final value, zeroing a fifth...
        for i in (0..WORDS).rev() {
            storage.write_external_word(offset(i), value(i));
        }
        // ...and zero words that were never written.
        for i in 0..WORDS {
            storage.write_external_word(offset(i) + 4, 0);
        }

        assert_eq!(
            ascending.checkpoint().to_string(),
            shuffled.checkpoint().to_string()
        );
        assert_eq!(ascending.storage().external_footprint_words(), nonzero);
        assert_eq!(shuffled.storage().external_footprint_words(), nonzero);
        let restored = Cluster::restore(&shuffled.checkpoint()).unwrap();
        let storage = restored.storage();
        assert_eq!(storage.external_footprint_words(), nonzero);
        for i in 0..WORDS {
            assert_eq!(storage.read_external_word(offset(i)), value(i), "word {i}");
            assert_eq!(storage.read_external_word(offset(i) + 4), 0, "word {i}");
        }
    }

    #[test]
    fn spm_section_is_the_storage_address_order() {
        let config = small_config();
        let (banks_per_tile, depth) = (config.banks_per_tile(), config.bank_words());
        let num_banks = config.num_banks();
        let loc = |tile, bank, word| BankLocation {
            tile: TileId(tile),
            bank: BankId(bank),
            word,
        };
        // Words below a quarter of the bank depth are sequential-region
        // words, the rest interleaved.
        let places = [
            loc(0, 0, 0),
            loc(0, 3, 5),
            loc(1, 2, 15),
            loc(3, 1, 2),
            loc(1, 0, 16),
            loc(2, 1, 40),
            loc(3, 3, depth - 1),
            loc(0, 2, depth - 1),
        ];
        let value = |loc: BankLocation| 0xc0de_0000 | loc.tile.0 << 12 | loc.bank.0 << 8 | loc.word;
        let mut cluster = Cluster::new(config.clone(), SimParams::default());
        let seq_end = cluster.storage().map().interleaved_base();
        let addrs = places.map(|loc| cluster.storage().map().encode(loc).unwrap());
        assert!(addrs.iter().any(|&addr| addr < seq_end));
        assert!(addrs.iter().any(|&addr| addr >= seq_end));
        for (loc, addr) in places.into_iter().zip(addrs) {
            cluster.write_spm_word(addr, value(loc)).unwrap();
        }

        let doc = cluster.checkpoint();
        let spm = from_hex::<u32>(&doc, "spm").unwrap();
        assert_eq!(spm.len(), (config.num_banks() * depth) as usize);
        // Word `w` of every bank before word `w + 1` of any: the index
        // `Storage` keeps the word at.
        for loc in places {
            let at = loc.word * num_banks + loc.tile.0 * banks_per_tile + loc.bank.0;
            assert_eq!(spm[at as usize], value(loc), "{loc} at hex word {at}");
        }
        assert_eq!(spm.iter().filter(|&&word| word != 0).count(), places.len());

        let restored = Cluster::restore(&doc).unwrap();
        for tile in 0..config.num_tiles() {
            for bank in 0..banks_per_tile {
                for word in 0..depth {
                    let at = loc(tile, bank, word);
                    let want = if places.contains(&at) { value(at) } else { 0 };
                    let addr = restored.storage().map().encode(at).unwrap();
                    assert_eq!(restored.read_spm_word(addr).unwrap(), want, "{at}");
                }
            }
        }
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
        // The line size is inside `params_digest`, so a file that means it
        // carries the digest to match.
        let params = SimParams {
            icache_line_words: 3,
            ..SimParams::default()
        };
        let mut doc = fresh_cluster().checkpoint();
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

    /// A cluster with everything a file can carry in it: requests queued
    /// at banks, responses on their way, external memory, a fault plan
    /// part-delivered (a degraded link, a remapped bank, latent ECC masks
    /// in two tiles, a flip and a hang still to come), a watchdog and a
    /// sampler.
    fn eventful_cluster() -> Cluster {
        let mut cluster = fresh_cluster();
        cluster.attach_obs(&Obs::new(), "eventful");
        cluster.enable_timeseries(16);
        cluster.storage_mut().write_external_word(64, 0xfeed);
        let far = |word| BankLocation {
            tile: TileId(3),
            bank: BankId(3),
            word,
        };
        let mut plan = FaultPlan::new(7);
        for event in [
            FaultEvent::LinkDegraded {
                tile: TileId(1),
                extra_latency: 2,
            },
            FaultEvent::StuckBank {
                tile: TileId(2),
                bank: BankId(1),
            },
            FaultEvent::TransientFlip {
                cycle: 5,
                loc: far(63),
                mask: 1,
            },
            // A later flip at a location ordered first: the masks are
            // listed (and compared) in location order, not flip order.
            FaultEvent::TransientFlip {
                cycle: 6,
                loc: BankLocation {
                    tile: TileId(0),
                    bank: BankId(2),
                    word: 61,
                },
                mask: 2,
            },
            FaultEvent::TransientFlip {
                cycle: 90,
                loc: far(62),
                mask: 4,
            },
            FaultEvent::CoreHang {
                cycle: 120,
                core: GlobalCoreId(5),
            },
        ] {
            plan.push(event);
        }
        cluster.inject_faults(&plan).unwrap();
        cluster.set_watchdog(500);
        assert!(matches!(cluster.run(37), Err(SimError::Timeout { .. })));
        assert!(cluster
            .machine
            .banks
            .iter()
            .any(|bank| !bank.queue.is_empty()));
        assert!(cluster
            .machine
            .responses
            .iter()
            .any(|queue| !queue.is_empty()));
        let faults = cluster.attach.faults.as_ref().unwrap();
        assert_eq!(faults.remaining_timed().len(), 2);
        assert_eq!(cluster.storage().ecc().pending_words(), 2);
        cluster
    }

    /// The eventful cluster's checkpoint, as a file holds it.
    fn eventful_snapshot() -> Json {
        Json::parse(&eventful_cluster().checkpoint().to_pretty()).unwrap()
    }

    /// Cut at cycles around the flip (90) and the hang (120) still to
    /// come, the eventful cluster restores to an equal machine — live
    /// sets included, which no file holds — and to equal checkpointed
    /// attachments.
    #[test]
    fn the_whole_machine_and_its_carried_attachments_survive_a_cut() {
        // The fault controller as its section and report hold it: the
        // delivered timed events are behind its cursor, not in the file.
        let faults = |cluster: &Cluster| {
            let faults = cluster.attach.faults.as_ref();
            faults.map(|f| (fault_parts(f, cluster.storage()), f.report()))
        };
        let mut cluster = eventful_cluster();
        for cut in [37, 38, 60, 90, 91, 120, 121, 200] {
            while cluster.cycle() < cut {
                cluster.step().unwrap();
            }
            let doc = Json::parse(&cluster.checkpoint().to_pretty()).unwrap();
            let restored = Cluster::restore(&doc).unwrap();
            assert!(
                restored.machine == cluster.machine,
                "machine at cycle {cut}"
            );
            assert_eq!(faults(&restored), faults(&cluster), "cycle {cut}");
            assert_eq!(restored.attach.watchdog, cluster.attach.watchdog);
            assert!(restored.attach.sampler == cluster.attach.sampler);
        }
        let faults = cluster.attach.faults.as_ref().unwrap();
        assert!(faults.remaining_timed().is_empty());
    }

    /// The eventful snapshot with the first request queued at any bank
    /// rewritten by `edit`, as `restore` answers it.
    fn with_first_request(edit: impl FnOnce(&mut PendingAccess)) -> CheckpointError {
        let mut doc = eventful_snapshot();
        let mut banks: Vec<Bank> = section(&doc, "banks").unwrap();
        let request = banks
            .iter_mut()
            .find_map(|bank| bank.queue.first_mut())
            .unwrap();
        edit(request);
        set(&mut doc, &["banks"], section_of(&banks));
        Cluster::restore(&doc).unwrap_err()
    }

    fn assert_malformed(err: CheckpointError, fragment: &str) {
        assert!(
            matches!(&err, CheckpointError::Malformed(msg) if msg.contains(fragment)),
            "expected a malformed checkpoint naming {fragment:?}, got: {err}"
        );
    }

    // The six regressions below restore files that used to crash the
    // process (or worse, run): v1 indexed with these values unchecked.

    #[test]
    fn queued_request_from_a_core_that_does_not_exist_is_malformed() {
        let err = with_first_request(|request| request.core = 100_000);
        assert_malformed(err, "core 100000's request");
    }

    #[test]
    fn queued_request_for_a_bank_outside_the_tile_is_malformed() {
        let err = with_first_request(|request| request.loc.bank = BankId(9999));
        assert_malformed(err, ":b9999[");
    }

    #[test]
    fn queued_request_for_a_word_outside_the_bank_is_malformed() {
        let err = with_first_request(|request| request.loc.word = 9_999_999);
        assert_malformed(err, "[9999999]");
    }

    #[test]
    fn queued_request_waiting_in_another_tiles_bank_is_malformed() {
        // In range, so nothing would crash: the request would silently
        // be served from the wrong tile's storage.
        let err = with_first_request(|request| request.loc.tile = TileId(request.loc.tile.0 ^ 1));
        assert_malformed(err, "queues core");
    }

    #[test]
    fn spare_pool_the_file_cannot_back_is_malformed_not_an_abort() {
        let mut doc = eventful_snapshot();
        let (_, external, touches, remaps): StorageParts = section(&doc, "storage").unwrap();
        let storage: StorageParts = (4_000_000_000, external, touches, remaps);
        set(&mut doc, &["storage"], section_of(&storage));
        assert_malformed(Cluster::restore(&doc).unwrap_err(), "spare word count");
    }

    #[test]
    fn geometry_the_file_cannot_back_is_malformed_before_anything_is_built() {
        let mut doc = eventful_snapshot();
        set(&mut doc, &["config", "groups"], Json::Int(65_536));
        assert_malformed(Cluster::restore(&doc).unwrap_err(), "core count mismatch");
    }

    #[test]
    fn more_transactions_in_flight_than_outstanding_is_malformed() {
        // A response for a core that awaits none would trip the core's
        // own bookkeeping on delivery.
        let mut doc = eventful_snapshot();
        let mut cores: Vec<Core> = section(&doc, "cores").unwrap();
        let responses: Vec<Vec<Response>> = section(&doc, "responses").unwrap();
        let awaited = responses
            .iter()
            .position(|queue| !queue.is_empty())
            .unwrap();
        cores[awaited] = Core::new();
        set(&mut doc, &["cores"], section_of(&cores));
        assert_malformed(Cluster::restore(&doc).unwrap_err(), "in flight");
    }

    // Hostile files behind valid encodings: `restore` used to accept each
    // of them, and the cluster it built then panicked.

    #[test]
    fn zero_offchip_bandwidth_behind_a_matching_digest_is_malformed() {
        let params = SimParams {
            offchip_bytes_per_cycle: 0,
            ..SimParams::default()
        };
        let mut doc = eventful_snapshot();
        set(
            &mut doc,
            &["params", "offchip_bytes_per_cycle"],
            Json::Int(0),
        );
        set(
            &mut doc,
            &["params_digest"],
            Json::Str(format!("{:016x}", params.digest())),
        );
        assert_malformed(Cluster::restore(&doc).unwrap_err(), "off-chip bandwidth");
    }

    /// Restores the eventful snapshot with its sampler rewritten by `edit`
    /// and runs it past the next sampling boundary, where the engine
    /// re-baselines the sampler.
    fn resume_sampled(edit: impl FnOnce(&mut Sampler)) -> Result<(), CheckpointError> {
        let mut doc = eventful_snapshot();
        let mut sampler: Option<Sampler> = section(&doc, "sampler").unwrap();
        edit(sampler.as_mut().unwrap());
        set(&mut doc, &["sampler"], section_of(&sampler));
        let _ = Cluster::restore(&doc)?.run(20_000);
        Ok(())
    }

    #[test]
    fn sampler_cursors_and_baselines_the_state_cannot_back_are_malformed() {
        assert!(resume_sampled(|_| {}).is_ok());
        let err = resume_sampled(|sampler| sampler.window = u64::MAX).unwrap_err();
        assert_malformed(err, "sampling window");
        let err = resume_sampled(|sampler| sampler.epoch_start = 1 << 40).unwrap_err();
        assert_malformed(err, "after the clock");
        let err = resume_sampled(|sampler| sampler.baseline.local_accesses = u64::MAX).unwrap_err();
        assert_malformed(err, "exceeds the restored total");
        let err = resume_sampled(|sampler| sampler.baseline.retired_per_tile[2] += 1_000_000)
            .unwrap_err();
        assert_malformed(err, "exceeds the restored total");
    }

    #[test]
    fn a_v1_document_is_a_schema_mismatch() {
        let saved = eventful_snapshot();
        for version in [
            "mempool-checkpoint/v1",
            "mempool-checkpoint/v2",
            "mempool-checkpoint/v3",
            "mempool-checkpoint/v4",
        ] {
            let mut doc = saved.clone();
            set(&mut doc, &["schema"], Json::str(version));
            let err = Cluster::restore(&doc).unwrap_err();
            assert!(
                matches!(&err, CheckpointError::Mismatch { field: "schema", found, .. } if found == version),
                "{err}"
            );
            assert!(err.to_string().contains(version), "{err}");
        }
    }

    /// Every section, damaged every way a file gets damaged: `restore`
    /// answers with a typed error, or with a cluster that runs to an end
    /// or a typed simulator error. A panic anywhere fails the test.
    #[test]
    fn damaged_sections_are_typed_errors_or_clusters_that_run() {
        let saved = eventful_snapshot();
        let mut rng = XorShift64::new(21);
        let (mut refused, mut ran) = (0, 0);
        for (name, digits) in [
            ("clock", 16),
            ("program", 8),
            ("cores", 16),
            ("icaches", 16),
            ("banks", 16),
            ("responses", 16),
            ("offchip", 16),
            ("storage", 16),
            ("spm", 8),
            ("spare", 8),
            ("faults", 16),
            ("watchdog", 16),
            ("sampler", 16),
        ] {
            let text = saved.str_field(name).unwrap();
            let mut damaged = vec![
                text[..text.len() - digits].to_string(),
                format!("{text}{}", "0".repeat(digits)),
                "ffffffffffffffff".to_string(),
                "not hex at all..".to_string(),
            ];
            for _ in 0..16 {
                let at = rng.below(text.len() as u64) as usize;
                let digit = u32::from_str_radix(&text[at..=at], 16).unwrap();
                let flipped = char::from_digit(digit ^ (1 + rng.below(15) as u32), 16).unwrap();
                damaged.push(format!("{}{flipped}{}", &text[..at], &text[at + 1..]));
            }
            for text in damaged {
                let mut doc = saved.clone();
                set(&mut doc, &[name], Json::Str(text.clone()));
                match Cluster::restore(&doc) {
                    Err(CheckpointError::Malformed(_) | CheckpointError::Mismatch { .. }) => {
                        refused += 1;
                    }
                    Err(other) => panic!("{name} = {text:?}: {other}"),
                    Ok(mut cluster) => {
                        // `Ok` or a typed `SimError`: both are answers.
                        let _ = cluster.run(20_000);
                        ran += 1;
                    }
                }
            }
        }
        assert!(refused > 100 && ran > 20, "{refused} refused, {ran} ran");
    }

    #[test]
    fn truncated_checkpoint_file_is_quarantined_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("mempool-ckpt-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000000001.json");
        fs::write(&path, "{\"schema\": \"mempool-checkpoint/v5\", trunc").unwrap();
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
        let mut ckpt = Checkpointer::new(&dir, 25).unwrap();
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
        assert_eq!(files.len(), 3, "retention must keep exactly 3: {files:?}");
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

    /// A budget of `u64::MAX` from a clock past 0 is no budget at all: the
    /// deadline saturates instead of wrapping below the clock.
    #[test]
    fn an_unbounded_budget_runs_to_the_end_from_any_cycle() {
        let dir = std::env::temp_dir().join(format!("mempool-ckpt-max-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (mut plain, mut sliced) = (fresh_cluster(), fresh_cluster());
        for _ in 0..10 {
            plain.step().unwrap();
            sliced.step().unwrap();
        }
        let end = plain.run(u64::MAX).unwrap();
        let mut ckpt = Checkpointer::new(&dir, 100).unwrap();
        assert_eq!(
            run_with_checkpoints(&mut sliced, u64::MAX, &mut ckpt).unwrap(),
            end
        );
        assert_eq!(sliced.stats().digest(), plain.stats().digest());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_with_checkpoints_returns_the_same_result_as_plain_run() {
        let dir = std::env::temp_dir().join(format!("mempool-ckpt-same-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut plain = fresh_cluster();
        let end = plain.run(100_000).unwrap();

        let mut ckpt = Checkpointer::new(&dir, 50).unwrap();
        let mut sliced = fresh_cluster();
        let sliced_end = run_with_checkpoints(&mut sliced, 100_000, &mut ckpt).unwrap();
        assert_eq!(sliced_end, end);
        assert_eq!(sliced.stats().digest(), plain.stats().digest());
        assert!(ckpt.last_good().is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
