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
//! machine-matchable) and a free-form human message. A hot-path recorder
//! hands the message over as [`Deferred`] data instead, worded only when
//! the ring is read. Like the other recorders in this crate, the handle
//! is cheaply cloneable and all clones share state.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

use crate::json::Json;
use crate::ring::Ring;

/// Default ring capacity when none is configured explicitly.
pub(crate) const DEFAULT_FLIGHT_CAPACITY: usize = 256;

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

/// An event message recorded as data: `render(args)` words it, and only
/// when the ring is read, so recording costs a ring slot and no
/// formatting.
#[derive(Debug, Clone, Copy)]
pub struct Deferred {
    /// Words the message.
    pub render: fn([u32; 4]) -> String,
    /// What the message says.
    pub args: [u32; 4],
}

#[derive(Debug)]
enum Message {
    Text(String),
    Deferred(Deferred),
}

/// One ring slot: an event whose category and message may still be
/// unformatted.
#[derive(Debug)]
struct Slot {
    cycle: u64,
    category: Cow<'static, str>,
    core: Option<u32>,
    message: Message,
}

impl Slot {
    fn event(&self) -> FlightEvent {
        FlightEvent {
            cycle: self.cycle,
            category: self.category.to_string(),
            core: self.core,
            message: match &self.message {
                Message::Text(text) => text.clone(),
                Message::Deferred(deferred) => (deferred.render)(deferred.args),
            },
        }
    }
}

/// Shared bounded ring of `FlightEvent`s. Clones share state.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Rc<RefCell<Ring<Slot>>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder {
            inner: Rc::new(RefCell::new(Ring::new(DEFAULT_FLIGHT_CAPACITY))),
        }
    }
}

impl FlightRecorder {
    /// Creates a recorder with `DEFAULT_FLIGHT_CAPACITY` slots.
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
        self.inner.borrow_mut().set_capacity(capacity);
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity()
    }

    /// Records an event, evicting the oldest if the ring is full.
    pub fn record(
        &self,
        cycle: u64,
        category: &str,
        core: Option<u32>,
        message: impl Into<String>,
    ) {
        self.inner.borrow_mut().push(Slot {
            cycle,
            category: Cow::Owned(category.to_string()),
            core,
            message: Message::Text(message.into()),
        });
    }

    /// [`Self::record`] with a message worded only when the ring is read.
    #[inline]
    pub fn record_deferred(
        &self,
        cycle: u64,
        category: &'static str,
        core: Option<u32>,
        message: Deferred,
    ) {
        self.inner.borrow_mut().push(Slot {
            cycle,
            category: Cow::Borrowed(category),
            core,
            message: Message::Deferred(message),
        });
    }

    /// Number of events currently held.
    pub(crate) fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether no event is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped()
    }

    /// Clones out the held events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner.borrow().iter().map(Slot::event).collect()
    }

    /// Serializes the ring (see [`flight_json`]).
    pub fn to_json(&self) -> Json {
        flight_json(&self.inner.borrow(), |slot| slot.event().to_json())
    }
}

/// Serializes a ring of events, each through `event`, as a flight-recorder
/// document: `{"capacity": C, "dropped": D, "events": [{..}, ..]}`, oldest
/// event first.
pub fn flight_json<T>(ring: &Ring<T>, event: impl FnMut(&T) -> Json) -> Json {
    Json::obj([
        ("capacity", Json::Int(ring.capacity() as i64)),
        ("dropped", Json::Int(ring.dropped() as i64)),
        ("events", Json::Arr(ring.iter().map(event).collect())),
    ])
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
    fn deferred_messages_are_worded_when_read() {
        let rec = FlightRecorder::with_capacity(2);
        let served = Deferred {
            render: |[bank, word, ..]| format!("served bank {bank} word {word}"),
            args: [5, 7, 0, 0],
        };
        rec.record_deferred(1, "mem", Some(2), served);
        rec.record(2, "dma", None, "copy");
        rec.record_deferred(3, "mem", None, served);
        assert_eq!(rec.dropped(), 1);
        let events = rec.events();
        assert_eq!(events[0].message, "copy");
        assert_eq!((events[1].cycle, events[1].category.as_str()), (3, "mem"));
        assert_eq!(events[1].message, "served bank 5 word 7");
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
}
