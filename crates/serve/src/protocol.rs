//! The experiment-service wire protocol and its canonical config model.
//!
//! Requests and responses travel as newline-delimited JSON objects (one
//! document per line) over a [`std::net::TcpStream`]; the same types back
//! the in-process [`crate::Client`]. Every request canonicalizes into an
//! [`ExperimentRequest`] whose [`ExperimentRequest::cache_key`] is a
//! 64-bit FNV-1a digest over its canonical line (the compact
//! [`ExperimentRequest::to_json`]: fixed field order, every field
//! explicit), seeded with the simulator's [`mempool_sim::ENGINE_VERSION`]
//! — so two requests that are semantically equal (different JSON field
//! order, defaulted fields spelled out or omitted) always address the
//! same cache entry, and an engine bump invalidates every stale one.
//!
//! ## Wire example
//!
//! ```text
//! -> {"id": 1, "kind": "fig6"}
//! <- {"id": 1, "status": "accepted", "queue_depth": 1}
//! <- {"id": 1, "status": "started"}
//! <- {"id": 1, "status": "done", "cache": "miss", "artifact": {...}}
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use mempool::design::DesignPoint;
use mempool_arch::SpmCapacity;
use mempool_kernels::matmul::PhaseModel;
use mempool_obs::{Json, JsonError};
use mempool_phys::Flow;
use mempool_sim::{fnv1a, SimParams};

/// The workload-model constants a request may override. Omitted fields
/// take [`PhaseModel::with_measured_defaults`]'s values, so an empty
/// `"model"` object (or none at all) reproduces the one-shot `repro`
/// numbers exactly.
pub type ModelConfig = PhaseModel;

/// Parses a request's `"model"` object over the measured defaults.
fn parse_model(doc: &Json) -> Result<ModelConfig, JsonError> {
    let Json::Obj(pairs) = doc else {
        return Err(JsonError::shape("model must be an object"));
    };
    let mut model = ModelConfig::default();
    for (key, value) in pairs {
        match key.as_str() {
            "m" => model.m = value.try_u64("model.m")?,
            "num_cores" => model.num_cores = value.try_u64("model.num_cores")?,
            "cycles_per_mac" => {
                model.cycles_per_mac = value.try_f64("model.cycles_per_mac")?;
            }
            "phase_overhead" => {
                model.phase_overhead = value.try_f64("model.phase_overhead")?;
            }
            other => return Err(JsonError::shape(format!("model: unknown field {other:?}"))),
        }
    }
    // The constants every artifact can be computed from: a smaller
    // matrix than the largest tile, no cores, or a free MAC or a
    // negative overhead yield non-finite numbers.
    let largest_tile = SpmCapacity::MiB8.matmul_tile_dim();
    if model.m < largest_tile {
        let message = format!("model.m must be at least {largest_tile}");
        return Err(JsonError::shape(message));
    }
    if model.num_cores == 0 {
        return Err(JsonError::shape("model.num_cores must be positive"));
    }
    if model.cycles_per_mac <= 0.0 {
        return Err(JsonError::shape("model.cycles_per_mac must be positive"));
    }
    if model.phase_overhead < 0.0 {
        return Err(JsonError::shape(
            "model.phase_overhead must not be negative",
        ));
    }
    Ok(model)
}

/// What the request asks the service to produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExperimentKind {
    /// Table I (tile floorplan + 3D partitioning).
    Table1,
    /// Table II (full group PPA analysis).
    Table2,
    /// Figure 6 (matmul speedup vs off-chip bandwidth, full sweep).
    Fig6,
    /// Figure 7 (performance).
    Fig7,
    /// Figure 8 (energy efficiency).
    Fig8,
    /// Figure 9 (energy-delay product).
    Fig9,
    /// The design-space exploration: all eight points scored and the
    /// Pareto front.
    Dse,
    /// One bandwidth point of the Figure 6 sweep: per-capacity speedups
    /// at a single off-chip bandwidth.
    Sweep {
        /// Off-chip bandwidth in bytes per cycle.
        bytes_per_cycle: u32,
    },
    /// Multi-objective scores of one design point: one row of the
    /// [`ExperimentKind::Dse`] document.
    DsePoint {
        /// The design point to score.
        point: DesignPoint,
    },
    /// A cycle-accurate simulator run of the matmul compute phase at
    /// problem size `p` on the probe cluster, returning the cycle count
    /// and the [`mempool_sim::ClusterStats`] digest.
    Kernel {
        /// Per-tile problem dimension of the compute phase.
        p: u32,
    },
}

impl ExperimentKind {
    /// The kinds that take no parameter, each with its wire tag — the one
    /// table both directions read. Every tag names the row of
    /// [`mempool::experiments::CATALOGUE`] that produces the artifact.
    pub const PARAMETERLESS: [(&'static str, ExperimentKind); 7] = [
        ("table1", ExperimentKind::Table1),
        ("table2", ExperimentKind::Table2),
        ("fig6", ExperimentKind::Fig6),
        ("fig7", ExperimentKind::Fig7),
        ("fig8", ExperimentKind::Fig8),
        ("fig9", ExperimentKind::Fig9),
        ("dse", ExperimentKind::Dse),
    ];

    /// The wire tag (`"fig6"`, `"dse_point"`, ...).
    pub fn tag(&self) -> &'static str {
        match self {
            ExperimentKind::Sweep { .. } => "sweep",
            ExperimentKind::DsePoint { .. } => "dse_point",
            ExperimentKind::Kernel { .. } => "kernel",
            plain => {
                let row = Self::PARAMETERLESS.iter().find(|(_, kind)| kind == plain);
                row.expect("every parameterless kind is in the table").0
            }
        }
    }

    /// The parameterless kind `tag` names, if any.
    pub fn parameterless(tag: &str) -> Option<Self> {
        let row = Self::PARAMETERLESS.iter().find(|(name, _)| *name == tag);
        row.map(|&(_, kind)| kind)
    }
}

/// A fully canonicalized experiment request: the kind plus the complete
/// configuration, every field populated (defaults applied at parse time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentRequest {
    /// What to produce.
    pub kind: ExperimentKind,
    /// Workload-model constants.
    pub model: ModelConfig,
}

impl ExperimentRequest {
    /// A request for `kind` with default model constants.
    pub fn new(kind: ExperimentKind) -> Self {
        ExperimentRequest {
            kind,
            model: ModelConfig::default(),
        }
    }

    /// Canonical JSON form: fixed field order, every field explicit.
    /// Parsing this back yields an identical request (and cache key).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("kind", Json::str(self.kind.tag()))];
        match self.kind {
            ExperimentKind::Sweep { bytes_per_cycle } => {
                pairs.push(("bytes_per_cycle", Json::Int(bytes_per_cycle as i64)));
            }
            ExperimentKind::DsePoint { point } => {
                pairs.push(("flow", Json::str(point.flow.to_string())));
                pairs.push(("capacity_mib", Json::Int(point.capacity.mebibytes() as i64)));
            }
            ExperimentKind::Kernel { p } => pairs.push(("p", Json::Int(p as i64))),
            _ => {}
        }
        pairs.push(("model", self.model.to_json()));
        Json::obj(pairs)
    }

    /// Parses (and canonicalizes) a request body. Field order is
    /// irrelevant, omitted fields take their defaults, and unknown fields
    /// are typed errors rather than silently ignored.
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        Self::parse(doc).map_err(|e| e.message)
    }

    fn parse(doc: &Json) -> Result<Self, JsonError> {
        let Json::Obj(pairs) = doc else {
            return Err(JsonError::shape("request must be a JSON object"));
        };
        let mut tag = None;
        let mut model = ModelConfig::default();
        let mut params = BTreeMap::new();
        for (key, value) in pairs {
            match key.as_str() {
                "id" => {
                    // Transport-level correlation id; validated by the
                    // connection layer, ignored for canonicalization.
                    value.try_u64("id")?;
                }
                "kind" => tag = Some(value.try_str("kind")?),
                "model" => model = parse_model(value)?,
                "bytes_per_cycle" | "flow" | "capacity_mib" | "p" => {
                    params.insert(key.as_str(), value);
                }
                other => return Err(JsonError::shape(format!("unknown field {other:?}"))),
            }
        }
        let tag = tag.ok_or_else(|| JsonError::shape("missing required field \"kind\""))?;
        let mut take = |name: &str| {
            let missing = || JsonError::shape(format!("{tag} requires {name}"));
            params.remove(name).ok_or_else(missing)
        };
        let kind = match tag {
            "sweep" => ExperimentKind::Sweep {
                bytes_per_cycle: positive_u32(take("bytes_per_cycle")?, "bytes_per_cycle")?,
            },
            "dse_point" => {
                let flow = take("flow")?.as_str();
                let flow = Flow::ALL
                    .into_iter()
                    .find(|known| flow == Some(known.to_string().as_str()))
                    .ok_or_else(|| JsonError::shape("flow must be \"2D\" or \"3D\""))?;
                let mib = take("capacity_mib")?.try_u64("capacity_mib")?;
                let capacity = SpmCapacity::ALL
                    .into_iter()
                    .find(|known| known.mebibytes() == mib)
                    .ok_or_else(|| {
                        let message = format!("capacity_mib must be one of 1, 2, 4, 8; got {mib}");
                        JsonError::shape(message)
                    })?;
                ExperimentKind::DsePoint {
                    point: DesignPoint::new(flow, capacity),
                }
            }
            "kernel" => ExperimentKind::Kernel {
                p: positive_u32(take("p")?, "p")?,
            },
            other => ExperimentKind::parameterless(other)
                .ok_or_else(|| JsonError::shape(format!("unknown kind {other:?}")))?,
        };
        if let Some(name) = params.keys().next() {
            return Err(JsonError::shape(format!("kind {tag:?} takes no {name}")));
        }
        Ok(ExperimentRequest { kind, model })
    }

    /// The content-addressed cache key: an FNV-1a digest over the
    /// canonical line ([`Self::to_json`], compact), seeded with the
    /// simulator's timing parameters and [`mempool_sim::ENGINE_VERSION`].
    pub fn cache_key(&self) -> u64 {
        self.cache_key_with_version(mempool_sim::ENGINE_VERSION)
    }

    /// [`Self::cache_key`] under an explicit engine-version tag — exposed
    /// so tests can prove a version bump invalidates every key.
    pub(crate) fn cache_key_with_version(&self, version: &str) -> u64 {
        // Seed with the full simulator parameter digest (which itself
        // mixes the engine version): a timing-parameter change is as
        // cache-invalidating as a code change. The canonical line holds
        // every field, so no field can be left out of the key.
        let seed = SimParams::default().digest_with_version(version);
        fnv1a(seed, self.to_json().to_string().as_bytes())
    }
}

/// A kind's numeric parameter: a positive `u32`.
fn positive_u32(value: &Json, name: &str) -> Result<u32, JsonError> {
    let n = value.try_u64(name)?;
    match u32::try_from(n) {
        Ok(positive) if positive > 0 => Ok(positive),
        _ => Err(JsonError::shape(format!("{name} out of range: {n}"))),
    }
}

/// How a completed request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the content-addressed cache without any computation.
    Hit,
    /// Computed by a worker (and inserted into the cache).
    Miss,
    /// Coalesced onto an identical in-flight request; no extra
    /// computation ran.
    Coalesced,
}

impl CacheOutcome {
    /// Wire spelling — the one table of the vocabulary.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }

    /// Parses the wire spelling.
    pub(crate) fn from_tag(s: &str) -> Option<Self> {
        [
            CacheOutcome::Hit,
            CacheOutcome::Miss,
            CacheOutcome::Coalesced,
        ]
        .into_iter()
        .find(|outcome| outcome.as_str() == s)
    }
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed service errors, each with a stable wire code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A bound of the service refused the request — the job queue is
    /// full, or every connection is in the middle of a request; retry
    /// later. The detail names the bound.
    Backpressure(String),
    /// The service is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The request was malformed (unknown kind/field, bad value).
    BadRequest(String),
    /// The experiment itself failed while running.
    Experiment(String),
    /// Client-side transport failure (connection, I/O).
    Transport(String),
    /// Every connection attempt of [`crate::TcpClient::connect`] ran into
    /// its deadline (retryable).
    Timeout(String),
    /// The peer sent a response the client cannot interpret.
    Protocol(String),
}

impl ServeError {
    /// The stable wire code (`"backpressure"`, `"bad_request"`, ...).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Backpressure(_) => "backpressure",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Experiment(_) => "experiment",
            ServeError::Transport(_) => "transport",
            ServeError::Timeout(_) => "timeout",
            ServeError::Protocol(_) => "protocol",
        }
    }

    /// What the error carries besides its code: the `message` of its wire
    /// line, which [`Status::from_json`] puts back in the same variant.
    fn detail(&self) -> &str {
        match self {
            ServeError::ShuttingDown => "service is shutting down",
            ServeError::Backpressure(msg)
            | ServeError::BadRequest(msg)
            | ServeError::Experiment(msg)
            | ServeError::Transport(msg)
            | ServeError::Timeout(msg)
            | ServeError::Protocol(msg) => msg,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Backpressure(msg) => write!(f, "{msg}; retry later"),
            ServeError::ShuttingDown => write!(f, "{}", self.detail()),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Experiment(msg) => write!(f, "experiment failed: {msg}"),
            ServeError::Transport(msg) => write!(f, "transport error: {msg}"),
            ServeError::Timeout(msg) => write!(f, "timed out: {msg}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One streamed status update for a submitted request.
#[derive(Debug, Clone)]
pub enum Status {
    /// The request was admitted to the queue (or coalesced/served).
    Accepted {
        /// Queue depth observed at admission.
        queue_depth: usize,
    },
    /// A worker started computing the request (or the identical in-flight
    /// request it coalesced onto).
    Started,
    /// The artifact is ready.
    Done {
        /// How the request was satisfied.
        cache: CacheOutcome,
        /// The experiment artifact (same document one-shot `repro`
        /// writes).
        artifact: Arc<Json>,
    },
    /// The request failed.
    Error(ServeError),
}

impl Status {
    /// Serializes the status as one wire line body tagged with `id`.
    pub fn to_json(&self, id: u64) -> Json {
        let mut pairs = vec![("id", Json::Int(id as i64))];
        match self {
            Status::Accepted { queue_depth } => {
                pairs.push(("status", Json::str("accepted")));
                pairs.push(("queue_depth", Json::Int(*queue_depth as i64)));
            }
            Status::Started => pairs.push(("status", Json::str("started"))),
            Status::Done { cache, artifact } => {
                pairs.push(("status", Json::str("done")));
                pairs.push(("cache", Json::str(cache.as_str())));
                pairs.push(("artifact", (**artifact).clone()));
            }
            Status::Error(error) => {
                pairs.push(("status", Json::str("error")));
                pairs.push(("code", Json::str(error.code())));
                pairs.push(("message", Json::str(error.detail())));
            }
        }
        Json::obj(pairs)
    }

    /// Parses one wire line into `(id, status)`.
    pub(crate) fn from_json(doc: &Json) -> Result<(u64, Status), String> {
        Self::parse(doc).map_err(|e| e.message)
    }

    fn parse(doc: &Json) -> Result<(u64, Status), JsonError> {
        let id = doc.u64_field("id")?;
        let status = match doc.str_field("status")? {
            "accepted" => Status::Accepted {
                queue_depth: doc
                    .get("queue_depth")
                    .and_then(Json::as_int)
                    .unwrap_or_default() as usize,
            },
            "started" => Status::Started,
            "done" => Status::Done {
                cache: CacheOutcome::from_tag(doc.str_field("cache")?).ok_or_else(|| {
                    JsonError::shape("done response has an unknown cache outcome")
                })?,
                artifact: Arc::new(doc.field("artifact")?.clone()),
            },
            "error" => {
                let message = doc
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let error = match doc.get("code").and_then(Json::as_str) {
                    Some("backpressure") => ServeError::Backpressure(message),
                    Some("shutting_down") => ServeError::ShuttingDown,
                    Some("bad_request") => ServeError::BadRequest(message),
                    Some("experiment") => ServeError::Experiment(message),
                    Some("timeout") => ServeError::Timeout(message),
                    other => {
                        ServeError::Protocol(format!("unknown error code {other:?}: {message}"))
                    }
                };
                Status::Error(error)
            }
            other => return Err(JsonError::shape(format!("unknown status {other:?}"))),
        };
        Ok((id, status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<ExperimentRequest, String> {
        ExperimentRequest::from_json(&Json::parse(text).expect("test JSON is well-formed"))
    }

    #[test]
    fn canonical_round_trip_preserves_the_cache_key() {
        for kind in [
            ExperimentKind::Table1,
            ExperimentKind::Fig6,
            ExperimentKind::Sweep {
                bytes_per_cycle: 16,
            },
            ExperimentKind::DsePoint {
                point: DesignPoint::new(Flow::ThreeD, SpmCapacity::MiB8),
            },
            ExperimentKind::Kernel { p: 32 },
        ] {
            let req = ExperimentRequest::new(kind);
            let reparsed = ExperimentRequest::from_json(&req.to_json()).unwrap();
            assert_eq!(req, reparsed);
            assert_eq!(req.cache_key(), reparsed.cache_key());
        }
    }

    #[test]
    fn field_order_and_defaulted_fields_hash_identically() {
        // The same semantic request, spelled three ways: canonical order
        // with everything explicit, scrambled order, and with every
        // defaulted field omitted.
        let explicit = parse(
            r#"{"kind": "fig6", "model": {"m": 326400, "num_cores": 256,
                "cycles_per_mac": 3.2, "phase_overhead": 9500.0}}"#,
        )
        .unwrap();
        let scrambled = parse(
            r#"{"model": {"phase_overhead": 9500.0, "m": 326400,
                "cycles_per_mac": 3.2, "num_cores": 256}, "kind": "fig6"}"#,
        )
        .unwrap();
        let defaulted = parse(r#"{"kind": "fig6"}"#).unwrap();
        assert_eq!(explicit, scrambled);
        assert_eq!(explicit, defaulted);
        assert_eq!(explicit.cache_key(), scrambled.cache_key());
        assert_eq!(explicit.cache_key(), defaulted.cache_key());
    }

    #[test]
    fn cache_key_is_stable_across_processes() {
        // The key must not depend on process-specific state (hash-map
        // iteration order, addresses): the canonical FNV of the default
        // fig6 request computed twice through independent parses.
        let a = parse(r#"{"kind": "fig6"}"#).unwrap().cache_key();
        let b = ExperimentRequest::new(ExperimentKind::Fig6).cache_key();
        assert_eq!(a, b);
    }

    #[test]
    fn semantic_differences_change_the_key() {
        let base = ExperimentRequest::new(ExperimentKind::Fig6);
        let other_kind = ExperimentRequest::new(ExperimentKind::Table2);
        assert_ne!(base.cache_key(), other_kind.cache_key());
        let mut slower = base;
        slower.model.cycles_per_mac = 3.3;
        assert_ne!(base.cache_key(), slower.cache_key());
        let sweeps = [4u32, 8, 16].map(|bw| {
            ExperimentRequest::new(ExperimentKind::Sweep {
                bytes_per_cycle: bw,
            })
        });
        assert_ne!(sweeps[0].cache_key(), sweeps[1].cache_key());
        assert_ne!(sweeps[1].cache_key(), sweeps[2].cache_key());
        let p2d = ExperimentRequest::new(ExperimentKind::DsePoint {
            point: DesignPoint::new(Flow::TwoD, SpmCapacity::MiB4),
        });
        let p3d = ExperimentRequest::new(ExperimentKind::DsePoint {
            point: DesignPoint::new(Flow::ThreeD, SpmCapacity::MiB4),
        });
        assert_ne!(p2d.cache_key(), p3d.cache_key());
    }

    #[test]
    fn engine_version_bump_invalidates_every_key() {
        let req = ExperimentRequest::new(ExperimentKind::Fig6);
        assert_eq!(
            req.cache_key(),
            req.cache_key_with_version(mempool_sim::ENGINE_VERSION)
        );
        assert_ne!(
            req.cache_key(),
            req.cache_key_with_version("mempool-sim/v2-hypothetical")
        );
    }

    #[test]
    fn unknown_fields_and_kinds_are_typed_errors() {
        assert!(parse(r#"{"kind": "fig6", "bogus": 1}"#)
            .unwrap_err()
            .contains("unknown field"));
        // The removed per-request thread count is one of them.
        assert!(parse(r#"{"kind": "fig6", "threads": 1}"#)
            .unwrap_err()
            .contains("unknown field \"threads\""));
        assert!(parse(r#"{"kind": "fig66"}"#)
            .unwrap_err()
            .contains("unknown kind"));
        assert!(parse(r#"{}"#).unwrap_err().contains("missing required"));
        assert!(parse(r#"{"kind": "fig6", "model": {"mm": 1}}"#)
            .unwrap_err()
            .contains("unknown field"));
        // Parameters of the wrong kind are rejected, not ignored.
        assert!(parse(r#"{"kind": "fig6", "p": 32}"#)
            .unwrap_err()
            .contains("takes no p"));
        assert!(parse(r#"{"kind": "kernel", "p": 32, "flow": "3D"}"#)
            .unwrap_err()
            .contains("takes no flow"));
        assert!(parse(r#"{"kind": "kernel"}"#)
            .unwrap_err()
            .contains("requires p"));
        assert!(parse(r#"{"kind": "sweep"}"#)
            .unwrap_err()
            .contains("requires bytes_per_cycle"));
        assert!(parse(r#"{"kind": "dse_point", "flow": "3D"}"#)
            .unwrap_err()
            .contains("requires capacity_mib"));
    }

    #[test]
    fn malformed_values_are_typed_errors() {
        assert!(parse(r#"{"kind": "sweep", "bytes_per_cycle": 0}"#)
            .unwrap_err()
            .contains("out of range"));
        assert!(
            parse(r#"{"kind": "dse_point", "flow": "4D", "capacity_mib": 1}"#)
                .unwrap_err()
                .contains("flow")
        );
        assert!(
            parse(r#"{"kind": "dse_point", "flow": "2D", "capacity_mib": 3}"#)
                .unwrap_err()
                .contains("capacity_mib")
        );
        assert!(
            parse(r#"{"kind": "fig6", "model": {"cycles_per_mac": -1.0}}"#)
                .unwrap_err()
                .contains("positive")
        );
        let models = [
            (r#"{"num_cores": 0}"#, "num_cores must be positive"),
            (r#"{"m": 1}"#, "m must be at least 800"),
            (r#"{"m": 799}"#, "m must be at least 800"),
            (r#"{"phase_overhead": -1.0}"#, "must not be negative"),
        ];
        for (model, message) in models {
            let line = format!(r#"{{"kind": "fig6", "model": {model}}}"#);
            assert!(parse(&line).unwrap_err().contains(message), "{model}");
        }
        let smallest = parse(r#"{"kind": "fig6", "model": {"m": 800, "phase_overhead": 0.0}}"#);
        assert!(smallest.is_ok(), "{smallest:?}");
    }

    #[test]
    fn status_lines_round_trip() {
        let statuses = [
            Status::Accepted { queue_depth: 3 },
            Status::Started,
            Status::Done {
                cache: CacheOutcome::Coalesced,
                artifact: Arc::new(Json::obj([("x", Json::Int(1))])),
            },
        ];
        // Every error a daemon sends reads the same on both ends.
        let errors = [
            ServeError::Backpressure("queue full (bounded at 8 jobs)".to_string()),
            ServeError::ShuttingDown,
            ServeError::BadRequest("unknown field \"threads\"".to_string()),
            ServeError::Experiment("compute phase p=5: invalid kernel shape".to_string()),
            ServeError::Timeout("no connection within 5 attempts".to_string()),
        ];
        for status in statuses.into_iter().chain(errors.map(Status::Error)) {
            let line = status.to_json(7);
            let (id, parsed) = Status::from_json(&line).unwrap();
            assert_eq!(id, 7);
            // Compare via the wire form (Status holds an Arc).
            match (&status, &parsed) {
                (Status::Error(a), Status::Error(b)) => {
                    assert_eq!(a.code(), b.code());
                    assert_eq!(a.to_string(), b.to_string());
                }
                _ => assert_eq!(line.to_pretty(), parsed.to_json(7).to_pretty()),
            }
        }
    }
}
