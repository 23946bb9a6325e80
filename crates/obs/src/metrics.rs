//! Metrics registry: counters, gauges, and histograms with static labels.
//!
//! A [`Registry`] is a cheaply-cloneable handle (all clones share state), so
//! the simulator, the kernels, and the experiment driver can all record into
//! one registry without threading `&mut` through every layer. The simulator
//! is single-threaded, so the sharing is `Rc`-based, not atomic.
//!
//! Instruments are identified by `(name, labels)`. Registering the same
//! identity twice returns a handle to the same underlying instrument, which
//! lets e.g. repeated measurement runs accumulate into one counter.
//!
//! [`Registry::snapshot`] freezes the registry into a [`MetricsSnapshot`] —
//! plain data, sorted by identity, serializable to JSON ([`MetricsSnapshot::to_json`],
//! with a [`MetricsSnapshot::from_json`] inverse) and CSV.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::json::{Json, JsonError};

/// Label set of an instrument: ordered `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

fn labels_of(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Clone)]
pub struct Gauge {
    value: Rc<Cell<f64>>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.value.set(v);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        self.value.set(self.value.get() + delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value.get()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct HistState {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// A histogram with explicit upper bounds (plus an implicit `+inf` bucket).
#[derive(Debug, Clone)]
pub struct Histogram {
    state: Rc<RefCell<HistState>>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let mut s = self.state.borrow_mut();
        let bucket = s
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(s.bounds.len());
        s.counts[bucket] += 1;
        s.count += 1;
        s.sum += v;
        s.min = s.min.min(v);
        s.max = s.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.state.borrow().count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.state.borrow().sum
    }

    /// Mean of observations, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let s = self.state.borrow();
        if s.count == 0 {
            0.0
        } else {
            s.sum / s.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) from the bucket counts.
    ///
    /// The estimate is the upper bound of the bucket the quantile falls
    /// into; for the implicit `+inf` bucket the observed maximum is
    /// returned instead. `None` when the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0.0..=1.0");
        let s = self.state.borrow();
        quantile_from_buckets(&s.bounds, &s.counts, s.count, s.max, q)
    }
}

fn quantile_from_buckets(
    bounds: &[f64],
    counts: &[u64],
    count: u64,
    max: f64,
    q: f64,
) -> Option<f64> {
    if count == 0 {
        return None;
    }
    // Rank of the quantile observation, 1-based, ceil(q * count) clamped
    // to at least 1 so q = 0 resolves to the first bucket with data.
    let rank = ((q * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Some(bounds.get(i).copied().unwrap_or(max));
        }
    }
    Some(max)
}

#[derive(Debug)]
struct Instrument<H> {
    name: String,
    labels: Labels,
    handle: H,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Vec<Instrument<Counter>>,
    gauges: Vec<Instrument<Gauge>>,
    histograms: Vec<Instrument<Histogram>>,
}

fn find_or_insert<H: Clone>(
    table: &mut Vec<Instrument<H>>,
    name: &str,
    labels: Labels,
    make: impl FnOnce() -> H,
) -> H {
    if let Some(i) = table.iter().find(|i| i.name == name && i.labels == labels) {
        return i.handle.clone();
    }
    let handle = make();
    table.push(Instrument {
        name: name.to_string(),
        labels,
        handle: handle.clone(),
    });
    handle
}

/// A shared metrics registry. Clones share state.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        find_or_insert(
            &mut self.inner.borrow_mut().counters,
            name,
            labels_of(labels),
            || Counter {
                value: Rc::new(Cell::new(0)),
            },
        )
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        find_or_insert(
            &mut self.inner.borrow_mut().gauges,
            name,
            labels_of(labels),
            || Gauge {
                value: Rc::new(Cell::new(0.0)),
            },
        )
    }

    /// Registers (or retrieves) a histogram with the given bucket upper
    /// bounds (an implicit `+inf` bucket is appended).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        find_or_insert(
            &mut self.inner.borrow_mut().histograms,
            name,
            labels_of(labels),
            || Histogram {
                state: Rc::new(RefCell::new(HistState {
                    bounds: bounds.to_vec(),
                    counts: vec![0; bounds.len() + 1],
                    count: 0,
                    sum: 0.0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                })),
            },
        )
    }

    /// Freezes the registry into plain, sorted sample data.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        let mut counters: Vec<CounterSample> = inner
            .counters
            .iter()
            .map(|i| CounterSample {
                name: i.name.clone(),
                labels: i.labels.clone(),
                value: i.handle.get(),
            })
            .collect();
        let mut gauges: Vec<GaugeSample> = inner
            .gauges
            .iter()
            .map(|i| GaugeSample {
                name: i.name.clone(),
                labels: i.labels.clone(),
                value: i.handle.get(),
            })
            .collect();
        let mut histograms: Vec<HistogramSample> = inner
            .histograms
            .iter()
            .map(|i| {
                let s = i.handle.state.borrow();
                HistogramSample {
                    name: i.name.clone(),
                    labels: i.labels.clone(),
                    bounds: s.bounds.clone(),
                    counts: s.counts.clone(),
                    count: s.count,
                    sum: s.sum,
                    min: (s.count > 0).then_some(s.min),
                    max: (s.count > 0).then_some(s.max),
                }
            })
            .collect();
        counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        gauges.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        histograms.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One counter sample.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Instrument name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// Counter value.
    pub value: u64,
}

/// One gauge sample.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSample {
    /// Instrument name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// Gauge value.
    pub value: f64,
}

/// One histogram sample.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Instrument name.
    pub name: String,
    /// Label pairs.
    pub labels: Labels,
    /// Bucket upper bounds (the final `+inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation, if any.
    pub min: Option<f64>,
    /// Largest observation, if any.
    pub max: Option<f64>,
}

impl HistogramSample {
    /// [`Histogram::quantile`] over the frozen bucket counts.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0.0..=1.0");
        quantile_from_buckets(
            &self.bounds,
            &self.counts,
            self.count,
            self.max.unwrap_or(f64::NAN),
            q,
        )
    }
}

/// A frozen, serializable view of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter samples, sorted by `(name, labels)`.
    pub counters: Vec<CounterSample>,
    /// Gauge samples, sorted by `(name, labels)`.
    pub gauges: Vec<GaugeSample>,
    /// Histogram samples, sorted by `(name, labels)`.
    pub histograms: Vec<HistogramSample>,
}

fn labels_json(labels: &Labels) -> Json {
    Json::Obj(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect(),
    )
}

fn labels_from_json(v: &Json) -> Result<Labels, JsonError> {
    match v {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| JsonError::shape("label values must be strings"))
            })
            .collect(),
        _ => Err(JsonError::shape("labels must be an object")),
    }
}

impl MetricsSnapshot {
    /// Serializes the snapshot to a JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::Str(c.name.clone())),
                                ("labels", labels_json(&c.labels)),
                                ("value", Json::Int(c.value as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Arr(
                    self.gauges
                        .iter()
                        .map(|g| {
                            Json::obj([
                                ("name", Json::Str(g.name.clone())),
                                ("labels", labels_json(&g.labels)),
                                ("value", Json::Float(g.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Arr(
                    self.histograms
                        .iter()
                        .map(|h| {
                            Json::obj([
                                ("name", Json::Str(h.name.clone())),
                                ("labels", labels_json(&h.labels)),
                                (
                                    "bounds",
                                    Json::Arr(h.bounds.iter().map(|b| Json::Float(*b)).collect()),
                                ),
                                (
                                    "counts",
                                    Json::Arr(
                                        h.counts.iter().map(|c| Json::Int(*c as i64)).collect(),
                                    ),
                                ),
                                ("count", Json::Int(h.count as i64)),
                                ("sum", Json::Float(h.sum)),
                                ("min", h.min.map_or(Json::Null, Json::Float)),
                                ("max", h.max.map_or(Json::Null, Json::Float)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstructs a snapshot from [`Self::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] if the document does not have the expected
    /// shape.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let counters = v
            .arr_field("counters")?
            .iter()
            .map(|c| {
                Ok(CounterSample {
                    name: c.str_field("name")?.to_string(),
                    labels: labels_from_json(c.field("labels")?)?,
                    value: c.u64_field("value")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        let gauges = v
            .arr_field("gauges")?
            .iter()
            .map(|g| {
                Ok(GaugeSample {
                    name: g.str_field("name")?.to_string(),
                    labels: labels_from_json(g.field("labels")?)?,
                    value: g.f64_field("value")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        let histograms = v
            .arr_field("histograms")?
            .iter()
            .map(|h| {
                let opt = |key: &str| match h.field(key)? {
                    Json::Null => Ok(None),
                    other => other.try_f64(key).map(Some),
                };
                Ok(HistogramSample {
                    name: h.str_field("name")?.to_string(),
                    labels: labels_from_json(h.field("labels")?)?,
                    bounds: h
                        .arr_field("bounds")?
                        .iter()
                        .map(|b| b.try_f64("bounds entry"))
                        .collect::<Result<_, JsonError>>()?,
                    counts: h.u64s_field("counts")?,
                    count: h.u64_field("count")?,
                    sum: h.f64_field("sum")?,
                    min: opt("min")?,
                    max: opt("max")?,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }

    /// Renders the snapshot as CSV: `kind,name,labels,value,count,sum,min,max`.
    /// Histogram bucket detail is JSON-only.
    pub fn to_csv(&self) -> String {
        fn labels_cell(labels: &Labels) -> String {
            let joined: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let cell = joined.join(";");
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell
            }
        }
        let mut out = String::from("kind,name,labels,value,count,sum,min,max\n");
        for c in &self.counters {
            out.push_str(&format!(
                "counter,{},{},{},,,,\n",
                c.name,
                labels_cell(&c.labels),
                c.value
            ));
        }
        for g in &self.gauges {
            out.push_str(&format!(
                "gauge,{},{},{},,,,\n",
                g.name,
                labels_cell(&g.labels),
                g.value
            ));
        }
        for h in &self.histograms {
            out.push_str(&format!(
                "histogram,{},{},,{},{},{},{}\n",
                h.name,
                labels_cell(&h.labels),
                h.count,
                h.sum,
                h.min.map_or(String::new(), |v| v.to_string()),
                h.max.map_or(String::new(), |v| v.to_string()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_identity() {
        let reg = Registry::new();
        let a = reg.counter("requests", &[("kind", "load")]);
        let b = reg.counter("requests", &[("kind", "load")]);
        let other = reg.counter("requests", &[("kind", "store")]);
        a.inc();
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 3, "same identity shares a cell");
        assert_eq!(other.get(), 1);
    }

    #[test]
    fn registry_clones_share_state() {
        let reg = Registry::new();
        let clone = reg.clone();
        reg.counter("x", &[]).inc();
        assert_eq!(clone.snapshot().counters[0].value, 1);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("occupancy", &[]);
        g.set(4.0);
        g.add(-1.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[], &[1.0, 10.0]);
        for v in [0.5, 5.0, 50.0, 7.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 62.5);
        let snap = reg.snapshot();
        let sample = &snap.histograms[0];
        assert_eq!(sample.counts, vec![1, 2, 1]);
        assert_eq!(sample.min, Some(0.5));
        assert_eq!(sample.max, Some(50.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        Registry::new().histogram("bad", &[], &[2.0, 1.0]);
    }

    #[test]
    fn empty_histogram_has_no_quantile_and_null_extrema() {
        let reg = Registry::new();
        let h = reg.histogram("empty", &[], &[1.0, 2.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        let sample = &reg.snapshot().histograms[0];
        assert_eq!(sample.min, None);
        assert_eq!(sample.max, None);
        assert_eq!(sample.quantile(0.99), None);
    }

    #[test]
    fn value_above_all_bounds_lands_in_inf_bucket() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[], &[1.0, 10.0]);
        h.observe(1e9);
        let sample = &reg.snapshot().histograms[0];
        assert_eq!(sample.counts, vec![0, 0, 1]);
        // The +inf bucket has no upper bound, so the quantile estimate
        // falls back to the observed maximum.
        assert_eq!(h.quantile(1.0), Some(1e9));
        assert_eq!(sample.quantile(0.5), Some(1e9));
    }

    #[test]
    fn quantile_on_single_bucket_histogram() {
        let reg = Registry::new();
        let h = reg.histogram("one", &[], &[8.0]);
        for v in [1.0, 2.0, 3.0] {
            h.observe(v);
        }
        // All observations share the single finite bucket, so every
        // quantile resolves to its upper bound.
        assert_eq!(h.quantile(0.0), Some(8.0));
        assert_eq!(h.quantile(0.5), Some(8.0));
        assert_eq!(h.quantile(1.0), Some(8.0));
    }

    #[test]
    fn quantile_walks_bucket_boundaries() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[], &[1.0, 10.0, 100.0]);
        for v in [0.5, 0.6, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.25), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.75), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in 0.0..=1.0")]
    fn out_of_range_quantile_panics() {
        Registry::new().histogram("h", &[], &[1.0]).quantile(1.5);
    }

    #[test]
    fn snapshot_is_sorted() {
        let reg = Registry::new();
        reg.counter("zz", &[]).inc();
        reg.counter("aa", &[]).inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["aa", "zz"]);
    }

    #[test]
    fn snapshot_json_round_trips_to_identity() {
        let reg = Registry::new();
        reg.counter("requests", &[("kind", "load"), ("tier", "l1")])
            .add(7);
        reg.counter("requests", &[("kind", "store")]).inc();
        reg.gauge("occupancy", &[("bank", "3")]).set(0.75);
        let h = reg.histogram("latency", &[("port", "offchip")], &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        // Empty histogram exercises the `min`/`max` = None (null) path.
        reg.histogram("unused", &[], &[1.0]);

        let snap = reg.snapshot();
        let text = snap.to_json().to_pretty();
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap, "serialize -> parse -> deserialize is identity");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let reg = Registry::new();
        reg.counter("c", &[("a", "b")]).inc();
        reg.gauge("g", &[]).set(1.5);
        reg.histogram("h", &[], &[1.0]).observe(2.0);
        let csv = reg.snapshot().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("kind,name,labels"));
        assert!(lines[1].starts_with("counter,c,a=b,1"));
    }
}
