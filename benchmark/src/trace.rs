//! Host-time spans around the calls the benchmark makes into each crate.
//!
//! Every boundary is timed in both passes (the harness needs the durations
//! for `setup_s`/`wall_s`), but only the traced pass keeps a [`Span`] record.
//! Records live in a `Vec` preallocated before the first measurement and are
//! written once, at exit, to `benchmark/out/trace.json` — nothing is
//! allocated or written while a workload runs.

use std::collections::BTreeMap;
use std::time::Instant;

use mempool_obs::Json;

/// Records kept per recorder before further spans are counted as dropped.
const SPAN_CAPACITY: usize = 1 << 17;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The crate the timed call belongs to (`harness` for grouping spans).
    pub layer: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
}

/// Token returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    started: Instant,
    index: Option<u32>,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Tracer {
    /// `epoch` is shared by every recorder of a run so their clocks agree.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 }),
            stack: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, rep: u32) -> Open {
        let started = Instant::now();
        if !self.enabled {
            return Open {
                started,
                index: None,
            };
        }
        if self.spans.len() == SPAN_CAPACITY {
            self.dropped += 1;
            return Open {
                started,
                index: None,
            };
        }
        let index = self.spans.len() as u32;
        let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            layer,
            rep,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open {
            started,
            index: Some(index),
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.started.elapsed();
        if let Some(index) = open.index {
            let span = &mut self.spans[index as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost-first");
        }
        elapsed.as_secs_f64()
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        rep: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(layer, name, rep);
        let value = f();
        (value, self.end(open))
    }
}

/// Self time per layer over `recorders`: each span's duration minus the
/// part its direct children cover.
pub fn self_time_by_layer(recorders: &[&Tracer]) -> BTreeMap<&'static str, f64> {
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for tracer in recorders {
        let mut child_ns = vec![0u64; tracer.spans.len()];
        for span in &tracer.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in tracer.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_layer.entry(span.layer).or_default() += own as f64 / 1e9;
        }
    }
    by_layer
}

/// Share of the top-level `harness` grouping spans' time that their child
/// spans cover — how much of `setup_s + wall_s` the boundary spans explain.
pub fn boundary_coverage(tracer: &Tracer) -> Option<f64> {
    let mut grouped = 0u64;
    let mut covered = 0u64;
    for span in &tracer.spans {
        match span.parent {
            None if span.layer == "harness" => grouped += span.end_ns - span.start_ns,
            Some(parent) => {
                let parent = &tracer.spans[parent as usize];
                if parent.layer == "harness" && parent.parent.is_none() {
                    covered += span.end_ns - span.start_ns;
                }
            }
            _ => {}
        }
    }
    (grouped > 0).then(|| covered as f64 / grouped as f64)
}

/// The `trace.json` document of one workload.
pub fn to_json(workload: &str, recorders: &[&Tracer]) -> Json {
    let mut spans = Vec::new();
    let mut dropped = 0;
    for (thread, tracer) in recorders.iter().enumerate() {
        dropped += tracer.dropped;
        // Parents index into their own recorder; rebase onto the merged list.
        let base = spans.len() as i64;
        for span in &tracer.spans {
            spans.push(Json::obj([
                ("name", Json::str(span.name)),
                ("layer", Json::str(span.layer)),
                ("workload", Json::str(workload)),
                ("rep", Json::Int(i64::from(span.rep))),
                ("thread", Json::Int(thread as i64)),
                ("start_ns", Json::Int(span.start_ns as i64)),
                ("end_ns", Json::Int(span.end_ns as i64)),
                (
                    "parent",
                    span.parent
                        .map_or(Json::Null, |p| Json::Int(base + i64::from(p))),
                ),
            ]));
        }
    }
    let self_time = self_time_by_layer(recorders)
        .into_iter()
        .map(|(layer, secs)| (layer.to_string(), Json::Float(secs)))
        .collect();
    Json::obj([
        ("schema", Json::str("mempool-benchmark-trace/v1")),
        ("workload", Json::str(workload)),
        ("dropped_spans", Json::Int(dropped as i64)),
        ("self_time_s", Json::Obj(self_time)),
        ("spans", Json::Arr(spans)),
    ])
}
