//! # mempool-obs
//!
//! Observability subsystem for the MemPool-3D reproduction: the measurement
//! substrate every performance claim in this repository rests on.
//!
//! * [`metrics`] — a registry of [`Counter`]/[`Gauge`]/[`Histogram`]
//!   instruments with static labels, frozen into a serializable
//!   [`MetricsSnapshot`];
//! * [`span`] — cycle-domain phase spans ([`SpanRecorder`]): nested,
//!   per-track intervals marked against the *simulated* clock;
//! * [`attribution`] — normalized cycle accounting
//!   ([`AttributionReport`]): per core, per tile, and cluster-wide, every
//!   bucket summing exactly to the simulated cycle count, plus a
//!   bank-conflict heatmap;
//! * [`timeseries`] — cycle-sampled per-epoch counter tracks
//!   ([`TimeSeries`]): how IPC, request rates, and occupancies evolve
//!   *over* a run, exported as `timeseries.json`/`.csv` and as Perfetto
//!   counter tracks;
//! * [`flight`] — a bounded structured-event ring ([`FlightRecorder`])
//!   dumped into `crashdump.json` when a run dies;
//! * [`chrome`] — Chrome Trace Event export of span timelines, loadable in
//!   Perfetto or `chrome://tracing`;
//! * [`json`] — the self-contained JSON document model the exporters
//!   emit and every loader reads through (the workspace has no
//!   serialization dependency);
//! * [`load`] — quarantine-aware JSON file loading and the atomic
//!   (temp file + rename) write, shared by the serve result cache, its
//!   job journal, and the checkpoint files;
//! * [`artifacts`] — the artifact-directory writer used by
//!   `repro --artifacts DIR`.
//!
//! The simulator attaches an [`Obs`] handle (shared metrics registry +
//! span recorder); kernels and the experiment pipeline record into the
//! same handle, and exporters snapshot it at the end of a run.
//!
//! ## Example
//!
//! ```
//! use mempool_obs::{chrome, Json, Obs};
//!
//! let obs = Obs::new();
//! let run = obs.spans.process("demo-run");
//! let track = obs.spans.track(run, "core0");
//! obs.spans.begin(track, "compute", 0);
//! obs.spans.end(track, 1200);
//! obs.metrics.counter("dma_bytes_total", &[]).add(4096);
//!
//! let snapshot = obs.metrics.snapshot();
//! assert_eq!(snapshot.counters[0].value, 4096);
//! let trace = chrome::chrome_trace(&obs.spans);
//! assert!(Json::parse(&trace.to_pretty()).is_ok());
//! ```

#![warn(missing_docs)]

pub mod artifacts;
pub mod attribution;
pub mod chrome;
pub mod flight;
pub mod json;
pub mod load;
pub mod metrics;
pub mod span;
pub mod timeseries;

pub use artifacts::ArtifactDir;
pub use attribution::{
    AttributionReport, BankConflictInput, ConflictHeatmap, CoreCycleInput, CycleBuckets,
};
pub use chrome::{chrome_trace, chrome_trace_with_counters};
pub use flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use json::{Json, JsonError};
pub use load::{load_json_file, quarantine_path, write_atomic, LoadOutcome};
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use span::{ProcessId, Span, SpanRecorder, TrackId};
pub use timeseries::{Sample, TimeSeries};

/// The combined observability handle: a shared metrics [`Registry`], a
/// shared [`SpanRecorder`], a shared [`TimeSeries`], and a shared
/// [`FlightRecorder`]. Clones share state, so one `Obs` can be handed to
/// the simulator, the kernels, and the experiment driver at once.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Shared metrics registry.
    pub metrics: Registry,
    /// Shared span recorder.
    pub spans: SpanRecorder,
    /// Shared cycle-sampled time-series recorder.
    pub series: TimeSeries,
    /// Shared flight-event ring.
    pub flight: FlightRecorder,
}

impl Obs {
    /// Creates an empty handle.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_clones_share_all_sides() {
        let obs = Obs::new();
        let clone = obs.clone();
        obs.metrics.counter("n", &[]).inc();
        let p = obs.spans.process("run");
        let t = obs.spans.track(p, "a");
        obs.spans.complete(t, "x", 0, 5, vec![]);
        obs.series.push("ipc", 1000, 0.5);
        obs.flight.record(3, "retire", Some(0), "nop");
        assert_eq!(clone.metrics.snapshot().counters[0].value, 1);
        assert_eq!(clone.spans.len(), 1);
        assert_eq!(clone.series.len(), 1);
        assert_eq!(clone.flight.len(), 1);
    }
}
