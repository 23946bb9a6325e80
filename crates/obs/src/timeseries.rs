//! Cycle-sampled run time-series.
//!
//! Where [`crate::metrics`] freezes *end-of-run* totals and
//! [`crate::span`] marks *intervals*, a [`TimeSeries`] records how counters
//! evolve **over** a run: one sample per epoch (a fixed window of simulated
//! cycles) per named series — per-tile IPC, L1 request rates, bank-conflict
//! rate, off-chip occupancy, outstanding-transaction depth. The simulator
//! samples inside its `step()` loop; exporters turn the result into
//! `timeseries.json`/`.csv` and into Chrome Trace *counter tracks*
//! ([`crate::chrome::chrome_trace_with_counters`]) that render as line
//! charts under the span timelines in Perfetto.
//!
//! Like the other recorders in this crate, a `TimeSeries` is a
//! cheaply-cloneable shared handle: all clones share state.

use std::cell::RefCell;
use std::rc::Rc;

use crate::json::{Json, JsonError};

/// One sample: the cycle the epoch ended at, and the sampled value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Cycle at which the sample was taken (end of its epoch).
    pub cycle: u64,
    /// Sampled value (a rate, an occupancy, a depth, ...).
    pub value: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct SeriesTrack {
    name: String,
    samples: Vec<Sample>,
}

#[derive(Debug, Default)]
struct SeriesInner {
    /// Epoch length in cycles (0 until [`TimeSeries::set_window`]).
    window: u64,
    tracks: Vec<SeriesTrack>,
}

/// A shared recorder of per-epoch samples. Clones share state.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    inner: Rc<RefCell<SeriesInner>>,
}

impl TimeSeries {
    /// Creates an empty recorder (no window configured, no tracks).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the epoch window in cycles. A zero window is clamped to 1.
    pub fn set_window(&self, window: u64) {
        self.inner.borrow_mut().window = window.max(1);
    }

    /// The configured epoch window (0 if sampling was never configured).
    pub fn window(&self) -> u64 {
        self.inner.borrow().window
    }

    /// Appends a sample to the named series, creating it on first use.
    pub fn push(&self, name: &str, cycle: u64, value: f64) {
        let mut inner = self.inner.borrow_mut();
        if let Some(track) = inner.tracks.iter_mut().find(|t| t.name == name) {
            track.samples.push(Sample { cycle, value });
            return;
        }
        inner.tracks.push(SeriesTrack {
            name: name.to_string(),
            samples: vec![Sample { cycle, value }],
        });
    }

    /// Names of all recorded series, in creation order.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .borrow()
            .tracks
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }

    /// Clones out the samples of one series (empty if unknown).
    pub fn samples(&self, name: &str) -> Vec<Sample> {
        self.inner
            .borrow()
            .tracks
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.samples.clone())
            .unwrap_or_default()
    }

    /// Total number of samples across all series.
    pub fn len(&self) -> usize {
        self.inner
            .borrow()
            .tracks
            .iter()
            .map(|t| t.samples.len())
            .sum()
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visits every `(series name, sample)` pair, series by series.
    pub fn for_each(&self, mut f: impl FnMut(&str, Sample)) {
        for track in &self.inner.borrow().tracks {
            for &sample in &track.samples {
                f(&track.name, sample);
            }
        }
    }

    /// Serializes all series to a JSON document:
    /// `{"window": W, "series": [{"name": N, "samples": [[cycle, value], ..]}]}`.
    pub fn to_json(&self) -> Json {
        let inner = self.inner.borrow();
        Json::obj([
            ("window", Json::Int(inner.window as i64)),
            (
                "series",
                Json::Arr(
                    inner
                        .tracks
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("name", Json::Str(t.name.clone())),
                                (
                                    "samples",
                                    Json::Arr(
                                        t.samples
                                            .iter()
                                            .map(|s| {
                                                Json::Arr(vec![
                                                    Json::Int(s.cycle as i64),
                                                    Json::Float(s.value),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstructs a recorder from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the document does not have the expected
    /// shape.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let window = v.u64_field("window")?;
        let mut tracks = Vec::new();
        for track in v.arr_field("series")? {
            let name = track.str_field("name")?.to_string();
            let mut samples = Vec::new();
            for pair in track.arr_field("samples")? {
                let [cycle, value] = pair.try_arr("sample")? else {
                    return Err(JsonError::shape(
                        "each sample must be a [cycle, value] pair",
                    ));
                };
                samples.push(Sample {
                    cycle: cycle.try_u64("sample cycle")?,
                    value: value.try_f64("sample value")?,
                });
            }
            tracks.push(SeriesTrack { name, samples });
        }
        let series = TimeSeries::new();
        *series.inner.borrow_mut() = SeriesInner { window, tracks };
        Ok(series)
    }

    /// Renders all series as CSV: `cycle,series,value`, one row per sample,
    /// series in creation order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cycle,series,value\n");
        self.for_each(|name, s| {
            out.push_str(&format!("{},{},{}\n", s.cycle, name, s.value));
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state_and_series_accumulate() {
        let ts = TimeSeries::new();
        let clone = ts.clone();
        ts.set_window(1000);
        ts.push("ipc/tile0", 1000, 0.5);
        clone.push("ipc/tile0", 2000, 0.75);
        clone.push("conflicts", 2000, 3.0);
        assert_eq!(ts.window(), 1000);
        assert_eq!(ts.names(), ["ipc/tile0", "conflicts"]);
        assert_eq!(ts.samples("ipc/tile0").len(), 2);
        assert_eq!(ts.len(), 3);
        assert!(ts.samples("missing").is_empty());
    }

    #[test]
    fn zero_window_is_clamped() {
        let ts = TimeSeries::new();
        ts.set_window(0);
        assert_eq!(ts.window(), 1);
    }

    #[test]
    fn json_round_trips_to_identity() {
        let ts = TimeSeries::new();
        ts.set_window(512);
        ts.push("a", 512, 1.25);
        ts.push("a", 1024, 0.0);
        ts.push("b", 512, -3.5);
        let text = ts.to_json().to_pretty();
        let back = TimeSeries::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.window(), 512);
        assert_eq!(back.names(), ts.names());
        assert_eq!(back.samples("a"), ts.samples("a"));
        assert_eq!(back.samples("b"), ts.samples("b"));
    }

    #[test]
    fn csv_has_header_and_one_row_per_sample() {
        let ts = TimeSeries::new();
        ts.push("x", 10, 1.5);
        ts.push("y", 10, 2.0);
        let csv = ts.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "cycle,series,value");
        assert_eq!(lines.len(), 3);
        assert!(lines.contains(&"10,x,1.5"));
    }

    #[test]
    fn malformed_json_is_a_shape_error() {
        let missing = Json::obj([("series", Json::Arr(vec![]))]);
        assert!(TimeSeries::from_json(&missing).is_err());
        let bad_sample =
            Json::parse(r#"{"window": 1, "series": [{"name": "a", "samples": [[1]]}]}"#).unwrap();
        assert!(TimeSeries::from_json(&bad_sample).is_err());
    }
}
