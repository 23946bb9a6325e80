//! Cycle-domain phase spans.
//!
//! A [`SpanRecorder`] marks named intervals — compute phases, DMA
//! transfers, barrier waits — against the *simulated* clock. Spans live on
//! **tracks** (one timeline each, e.g. one per core), tracks belong to
//! **processes** (one per measurement run), and spans on one track nest:
//! `begin`/`end` pairs close LIFO, like a call stack.
//!
//! The recorder is a cheaply-cloneable shared handle, like
//! [`crate::metrics::Registry`], so the simulator and the harness driving
//! it can record into the same timeline. Completed spans are exported to
//! Chrome Trace Event JSON by [`crate::chrome::chrome_trace`].

use std::cell::RefCell;
use std::rc::Rc;

use crate::json::Json;

/// Identifies a process (a top-level group of tracks) in a recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(pub(crate) u32);

/// Identifies a track (one timeline) in a recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackId(pub(crate) u32);

/// A completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Track the span lives on.
    pub track: TrackId,
    /// Phase name.
    pub name: String,
    /// First cycle of the span.
    pub start: u64,
    /// One past the last cycle of the span (`end >= start`).
    pub end: u64,
    /// Nesting depth on its track at begin time (0 = top level).
    pub depth: u32,
    /// Free-form attributes, exported as Chrome trace `args`.
    pub args: Vec<(String, Json)>,
}

impl Span {
    /// Span length in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    start: u64,
    args: Vec<(String, Json)>,
}

#[derive(Debug)]
pub(crate) struct TrackInfo {
    pub(crate) process: ProcessId,
    pub(crate) name: String,
    open: Vec<OpenSpan>,
}

#[derive(Debug, Default)]
pub(crate) struct RecorderInner {
    pub(crate) processes: Vec<String>,
    pub(crate) tracks: Vec<TrackInfo>,
    pub(crate) spans: Vec<Span>,
}

/// Shared recorder of cycle-domain spans. Clones share state.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    pub(crate) inner: Rc<RefCell<RecorderInner>>,
}

impl SpanRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a process (a named group of tracks, e.g. one measurement
    /// run). Re-registering a name returns the existing id.
    pub fn process(&self, name: &str) -> ProcessId {
        let mut inner = self.inner.borrow_mut();
        if let Some(i) = inner.processes.iter().position(|p| p == name) {
            return ProcessId(i as u32);
        }
        inner.processes.push(name.to_string());
        ProcessId(inner.processes.len() as u32 - 1)
    }

    /// Registers a track under `process`. Re-registering a name under the
    /// same process returns the existing id.
    pub fn track(&self, process: ProcessId, name: &str) -> TrackId {
        let mut inner = self.inner.borrow_mut();
        if let Some(i) = inner
            .tracks
            .iter()
            .position(|t| t.process == process && t.name == name)
        {
            return TrackId(i as u32);
        }
        inner.tracks.push(TrackInfo {
            process,
            name: name.to_string(),
            open: Vec::new(),
        });
        TrackId(inner.tracks.len() as u32 - 1)
    }

    /// Opens a span on `track` at `cycle`. Spans nest: the matching
    /// [`Self::end`] closes the most recently begun span on the track.
    pub fn begin(&self, track: TrackId, name: &str, cycle: u64) {
        self.begin_with(track, name, cycle, Vec::new());
    }

    /// [`Self::begin`] with attributes.
    pub(crate) fn begin_with(
        &self,
        track: TrackId,
        name: &str,
        cycle: u64,
        args: Vec<(String, Json)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        inner.tracks[track.0 as usize].open.push(OpenSpan {
            name: name.to_string(),
            start: cycle,
            args,
        });
    }

    /// Closes the innermost open span on `track` at `cycle`, returning it.
    /// Returns `None` (and records nothing) if no span is open.
    pub fn end(&self, track: TrackId, cycle: u64) -> Option<Span> {
        let mut inner = self.inner.borrow_mut();
        let open = inner.tracks[track.0 as usize].open.pop()?;
        let depth = inner.tracks[track.0 as usize].open.len() as u32;
        let span = Span {
            track,
            name: open.name,
            start: open.start,
            end: cycle.max(open.start),
            depth,
            args: open.args,
        };
        inner.spans.push(span.clone());
        Some(span)
    }

    /// Records an already-delimited span (no nesting bookkeeping beyond the
    /// spans currently open on the track).
    pub fn complete(
        &self,
        track: TrackId,
        name: &str,
        start: u64,
        end: u64,
        args: Vec<(String, Json)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let depth = inner.tracks[track.0 as usize].open.len() as u32;
        inner.spans.push(Span {
            track,
            name: name.to_string(),
            start,
            end: end.max(start),
            depth,
            args,
        });
    }

    /// Closes every open span on every track at `cycle` (e.g. when a run
    /// finishes with cores still parked at `wfi`).
    pub fn close_all(&self, cycle: u64) {
        let tracks = self.inner.borrow().tracks.len() as u32;
        for t in 0..tracks {
            while self.end(TrackId(t), cycle).is_some() {}
        }
    }

    /// Number of *completed* spans.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Whether no span has completed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spans still open across all tracks.
    pub fn open_count(&self) -> usize {
        self.inner
            .borrow()
            .tracks
            .iter()
            .map(|t| t.open.len())
            .sum()
    }

    /// Clones out the completed spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Total cycles covered by completed spans with the given name.
    pub fn total_cycles(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::cycles)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_nest_lifo() {
        let rec = SpanRecorder::new();
        let p = rec.process("run");
        let t = rec.track(p, "core0");
        rec.begin(t, "outer", 0);
        rec.begin(t, "inner", 10);
        let inner = rec.end(t, 20).unwrap();
        let outer = rec.end(t, 100).unwrap();
        assert_eq!(
            (inner.name.as_str(), inner.depth, inner.cycles()),
            ("inner", 1, 10)
        );
        assert_eq!(
            (outer.name.as_str(), outer.depth, outer.cycles()),
            ("outer", 0, 100)
        );
        assert_eq!(rec.open_count(), 0);
    }

    #[test]
    fn end_without_begin_is_harmless() {
        let rec = SpanRecorder::new();
        let p = rec.process("run");
        let t = rec.track(p, "core0");
        assert!(rec.end(t, 5).is_none());
        assert!(rec.is_empty());
    }

    #[test]
    fn registration_is_idempotent() {
        let rec = SpanRecorder::new();
        let p1 = rec.process("run");
        let p2 = rec.process("run");
        assert_eq!(p1, p2);
        assert_eq!(rec.track(p1, "a"), rec.track(p2, "a"));
        let other = rec.process("other");
        assert_ne!(rec.track(p1, "a"), rec.track(other, "a"));
    }

    #[test]
    fn close_all_flushes_open_spans() {
        let rec = SpanRecorder::new();
        let p = rec.process("run");
        let a = rec.track(p, "a");
        let b = rec.track(p, "b");
        rec.begin(a, "x", 0);
        rec.begin(a, "y", 1);
        rec.begin(b, "z", 2);
        rec.close_all(10);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.open_count(), 0);
        assert!(rec.spans().iter().all(|s| s.end == 10));
    }

    #[test]
    fn total_cycles_sums_by_name() {
        let rec = SpanRecorder::new();
        let p = rec.process("run");
        let t = rec.track(p, "core0");
        rec.complete(t, "dma", 0, 10, vec![]);
        rec.complete(t, "dma", 20, 25, vec![]);
        rec.complete(t, "compute", 10, 20, vec![]);
        assert_eq!(rec.total_cycles("dma"), 15);
        assert_eq!(rec.total_cycles("compute"), 10);
    }

    #[test]
    fn end_clamps_backwards_clock() {
        let rec = SpanRecorder::new();
        let p = rec.process("run");
        let t = rec.track(p, "core0");
        rec.begin(t, "x", 10);
        let s = rec.end(t, 5).unwrap();
        assert_eq!(s.cycles(), 0);
    }
}
