//! # mempool-obs
//!
//! Observability subsystem for the MemPool-3D reproduction: the measurement
//! substrate every performance claim in this repository rests on.
//!
//! * metrics — a [`Registry`] of [`Counter`], gauge and histogram
//!   instruments with static labels, frozen into a serializable snapshot;
//! * spans — cycle-domain phase spans ([`SpanRecorder`]): nested,
//!   per-track intervals marked against the *simulated* clock;
//! * attribution — normalized cycle accounting
//!   ([`AttributionReport`]): per core, per tile, and cluster-wide, every
//!   bucket summing exactly to the simulated cycle count, plus a
//!   bank-conflict heatmap;
//! * time series — cycle-sampled per-epoch counter tracks
//!   ([`TimeSeries`]): how IPC, request rates, and occupancies evolve
//!   *over* a run, exported as `timeseries.json`/`.csv` and as Perfetto
//!   counter tracks;
//! * flight recording — a bounded structured-event ring
//!   ([`FlightRecorder`]) dumped into `crashdump.json` when a run dies;
//! * Chrome Trace Event export of span timelines ([`chrome_trace`]),
//!   loadable in Perfetto or `chrome://tracing`;
//! * [`Json`] — the self-contained JSON document model the exporters
//!   emit and every loader reads through (the workspace has no
//!   serialization dependency);
//! * quarantine-aware JSON file loading ([`load_json_file`]) and the
//!   atomic (temp file + rename) write ([`write_atomic`]), shared by the
//!   serve result cache, its job journal, and the checkpoint files;
//! * [`ArtifactDir`] — the artifact-directory writer used by
//!   `repro --artifacts DIR`.
//!
//! The simulator attaches an [`Obs`] handle (shared metrics registry +
//! span recorder); kernels and the experiment pipeline record into the
//! same handle, and exporters snapshot it at the end of a run.
//!
//! ## Example
//!
//! ```
//! use mempool_obs::{chrome_trace, Json, Obs};
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
//! let trace = chrome_trace(&obs.spans);
//! assert!(Json::parse(&trace.to_pretty()).is_ok());
//! ```

#![warn(missing_docs)]

pub(crate) mod artifacts;
pub(crate) mod attribution;
pub(crate) mod chrome;
pub(crate) mod flight;
pub(crate) mod json;
pub(crate) mod load;
pub(crate) mod metrics;
pub(crate) mod span;
pub(crate) mod timeseries;

pub use artifacts::ArtifactDir;
pub use attribution::{AttributionReport, BankConflictInput, CoreCycleInput};
pub use chrome::{chrome_trace, chrome_trace_with_counters};
pub use flight::FlightRecorder;
pub use json::{Json, JsonError};
pub use load::{load_json_file, quarantine_path, write_atomic, LoadOutcome};
pub use metrics::{Counter, Registry};
pub use span::{SpanRecorder, TrackId};
pub use timeseries::TimeSeries;

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
