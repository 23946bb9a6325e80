//! Bounded structured-event flight recorder.
//!
//! A [`FlightRecorder`] keeps the *last N* notable events of a run —
//! instruction retires, memory transactions, DMA transfers, fault
//! injections, ECC outcomes, watchdog expiries — in a fixed-capacity ring.
//! During a healthy run it costs one ring slot per event and nothing else;
//! when a run dies with a `SimError`, the ring is dumped into
//! `crashdump.json` so the final approach to the failure is visible without
//! re-running under full tracing.
//!
//! Events carry a coarse [`category`](FlightEvent::category) (stable,
//! machine-matchable) and a free-form human message. Like the other
//! recorders in this crate, the handle is cheaply cloneable and all clones
//! share state.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::json::Json;

/// Default ring capacity when none is configured explicitly.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated cycle the event occurred at.
    pub cycle: u64,
    /// Stable event class, e.g. `"retire"`, `"dma"`, `"ecc"`, `"fault"`,
    /// `"watchdog"`, `"mem"`.
    pub category: String,
    /// Core the event is attributed to, if any.
    pub core: Option<u32>,
    /// Human-readable detail.
    pub message: String,
}

impl FlightEvent {
    /// Serializes the event as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cycle", Json::Int(self.cycle as i64)),
            ("category", Json::Str(self.category.clone())),
        ];
        if let Some(core) = self.core {
            fields.push(("core", Json::Int(i64::from(core))));
        }
        fields.push(("message", Json::Str(self.message.clone())));
        Json::obj(fields)
    }
}

#[derive(Debug)]
struct FlightInner {
    capacity: usize,
    ring: VecDeque<FlightEvent>,
    dropped: u64,
}

impl Default for FlightInner {
    fn default() -> Self {
        Self {
            capacity: DEFAULT_FLIGHT_CAPACITY,
            ring: VecDeque::new(),
            dropped: 0,
        }
    }
}

/// Shared bounded ring of [`FlightEvent`]s. Clones share state.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    inner: Rc<RefCell<FlightInner>>,
}

impl FlightRecorder {
    /// Creates a recorder with [`DEFAULT_FLIGHT_CAPACITY`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        let rec = Self::new();
        rec.set_capacity(capacity);
        rec
    }

    /// Re-bounds the ring, evicting oldest events if it shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&self, capacity: usize) {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        let mut inner = self.inner.borrow_mut();
        inner.capacity = capacity;
        while inner.ring.len() > capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Records an event, evicting the oldest if the ring is full.
    pub fn record(
        &self,
        cycle: u64,
        category: &str,
        core: Option<u32>,
        message: impl Into<String>,
    ) {
        let mut inner = self.inner.borrow_mut();
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(FlightEvent {
            cycle,
            category: category.to_string(),
            core,
            message: message.into(),
        });
    }

    /// Counts `n` events a bounded feeder discarded on the ring's behalf:
    /// events that, recorded, would have been evicted again before anyone
    /// could read them.
    pub fn add_dropped(&self, n: u64) {
        self.inner.borrow_mut().dropped += n;
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.borrow().ring.len()
    }

    /// Whether no event is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Clones out the held events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner.borrow().ring.iter().cloned().collect()
    }

    /// Discards all held events (the dropped counter keeps accumulating).
    pub fn clear(&self) {
        let mut inner = self.inner.borrow_mut();
        let n = inner.ring.len() as u64;
        inner.ring.clear();
        inner.dropped += n;
    }

    /// Serializes the ring:
    /// `{"capacity": C, "dropped": D, "events": [{..}, ..]}`.
    pub fn to_json(&self) -> Json {
        let inner = self.inner.borrow();
        Json::obj([
            ("capacity", Json::Int(inner.capacity as i64)),
            ("dropped", Json::Int(inner.dropped as i64)),
            (
                "events",
                Json::Arr(inner.ring.iter().map(FlightEvent::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_newest_events() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            rec.record(i, "retire", Some(0), format!("event {i}"));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let cycles: Vec<u64> = rec.events().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [2, 3, 4]);
    }

    #[test]
    fn clones_share_the_ring() {
        let rec = FlightRecorder::new();
        let clone = rec.clone();
        clone.record(7, "dma", None, "tile copy");
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.events()[0].category, "dma");
        assert_eq!(rec.events()[0].core, None);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let rec = FlightRecorder::with_capacity(4);
        for i in 0..4u64 {
            rec.record(i, "mem", Some(1), "x");
        }
        rec.set_capacity(2);
        assert_eq!(rec.capacity(), 2);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.events()[0].cycle, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        FlightRecorder::with_capacity(0);
    }

    #[test]
    fn json_dump_parses_and_preserves_fields() {
        let rec = FlightRecorder::with_capacity(2);
        rec.record(1, "ecc", Some(3), "corrected flip at bank 5");
        rec.record(2, "watchdog", None, "expired");
        let doc = Json::parse(&rec.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("capacity").and_then(Json::as_int), Some(2));
        assert_eq!(doc.get("dropped").and_then(Json::as_int), Some(0));
        let events = doc.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("core").and_then(Json::as_int), Some(3));
        assert_eq!(
            events[1].get("category").and_then(Json::as_str),
            Some("watchdog")
        );
        assert!(events[1].get("core").is_none());
    }

    #[test]
    fn clear_empties_but_counts_drops() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(1, "mem", None, "a");
        rec.record(2, "mem", None, "b");
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 2);
    }
}
