//! `mempool-serve`: a batched, cached, concurrent experiment service for
//! the MemPool-3D reproduction.
//!
//! One-shot `repro` recomputes every figure from scratch; this crate
//! turns the pipeline into a long-running service with three properties
//! the one-shot path cannot offer:
//!
//! - **Content-addressed caching** — every request canonicalizes into an
//!   [`ExperimentRequest`] whose [`ExperimentRequest::cache_key`] is an
//!   FNV-1a digest over the parsed config, seeded with the simulator's
//!   timing parameters and [`mempool_sim::ENGINE_VERSION`]. Semantically
//!   equal configs (field order, defaulted fields) share one entry; an
//!   engine bump invalidates all of them.
//! - **Request coalescing** — identical in-flight requests attach to one
//!   computation inside a single critical section, so a config is
//!   computed exactly once no matter how many clients race.
//! - **Bounded concurrency with typed backpressure** — a fixed worker
//!   pool and a bounded queue; overload is a typed
//!   [`ServeError::Backpressure`], never an unbounded pile-up, and
//!   shutdown drains every accepted request.
//!
//! Entry points: [`Service::start`] + [`Service::client`] in-process,
//! [`TcpServer`]/[`TcpClient`] for the `repro serve` daemon and its
//! newline-delimited JSON protocol, and [`dse::explore_via`] to run the
//! design-space exploration as a batch of cached requests over either.
//!
//! Served artifacts are byte-identical to the documents one-shot `repro`
//! writes for the same config: [`ExperimentRunner`] resolves the tables
//! and figures through the same [`mempool::experiments::CATALOGUE`] the
//! CLI walks, and each simulation runs on one thread, so the daemon's
//! worker pool never shows in a result.

#![warn(missing_docs)]

pub(crate) mod cache;
pub(crate) mod client;
pub mod dse;
pub(crate) mod exec;
pub(crate) mod net;
pub(crate) mod protocol;
pub(crate) mod service;

pub use cache::ResultCache;
pub(crate) use client::Client;
pub use client::{RetryPolicy, TcpClient};
pub use exec::ExperimentRunner;
pub use net::TcpServer;
pub use protocol::{
    CacheOutcome, ExperimentKind, ExperimentRequest, ModelConfig, ServeError, Status,
};
pub use service::{Runner, Service, ServiceConfig};
