//! Chrome Trace Event export for [`SpanRecorder`] timelines.
//!
//! Produces the JSON Array/Object format understood by Perfetto
//! (<https://ui.perfetto.dev>) and the legacy `chrome://tracing` viewer:
//! a `traceEvents` array of duration events. One simulated cycle maps to
//! one microsecond of trace time (the viewer has no notion of cycles).
//!
//! Each recorder *process* becomes a trace process (named by a
//! `process_name` metadata event) and each *track* a thread within it, so
//! per-core timelines group under their measurement run in the UI.

use crate::json::Json;
use crate::span::SpanRecorder;
use crate::timeseries::TimeSeries;

/// Builds the Chrome Trace Event document for all completed spans.
///
/// Duration events are emitted as `B`/`E` pairs. At equal timestamps the
/// order respects nesting: ends before begins, deeper ends first, shallower
/// begins first — so the viewer's per-thread stack never sees an overlap.
pub fn chrome_trace(recorder: &SpanRecorder) -> Json {
    chrome_trace_with_counters(recorder, None)
}

/// [`chrome_trace`] plus Perfetto *counter tracks* from a [`TimeSeries`].
///
/// Each series becomes one `ph: "C"` counter named after it, placed on a
/// synthetic "counters" process so its line charts group below the span
/// timelines in the viewer.
pub fn chrome_trace_with_counters(recorder: &SpanRecorder, series: Option<&TimeSeries>) -> Json {
    let inner = recorder.inner.borrow();
    let mut events: Vec<(u64, u8, i64, Json)> = Vec::new();

    if let Some(series) = series.filter(|s| !s.is_empty()) {
        // Counter events get sort kind 3 so at a shared timestamp they land
        // after the span transitions; their pid sits past all real
        // processes.
        let pid = inner.processes.len() as u32;
        events.push((0, 0, 0, metadata("process_name", pid, 0, "counters")));
        series.for_each(|name, sample| {
            events.push((
                sample.cycle,
                3,
                0,
                Json::obj([
                    ("name", Json::Str(name.to_string())),
                    ("ph", Json::str("C")),
                    ("ts", Json::Int(sample.cycle as i64)),
                    ("pid", Json::Int(i64::from(pid))),
                    ("args", Json::obj([("value", Json::Float(sample.value))])),
                ]),
            ));
        });
    }

    for (pid, name) in inner.processes.iter().enumerate() {
        events.push((0, 0, 0, metadata("process_name", pid as u32, 0, name)));
    }
    for (tid, track) in inner.tracks.iter().enumerate() {
        events.push((
            0,
            0,
            0,
            metadata("thread_name", track.process.0, tid as u32, &track.name),
        ));
    }

    for span in &inner.spans {
        let pid = inner.tracks[span.track.0 as usize].process.0;
        let tid = span.track.0;
        let mut begin = vec![
            ("name".to_string(), Json::Str(span.name.clone())),
            ("ph".to_string(), Json::str("B")),
            ("ts".to_string(), Json::Int(span.start as i64)),
            ("pid".to_string(), Json::Int(pid as i64)),
            ("tid".to_string(), Json::Int(tid as i64)),
        ];
        if !span.args.is_empty() {
            begin.push(("args".to_string(), Json::Obj(span.args.clone())));
        }
        // Sort keys: kind 1 = end, kind 2 = begin, so at a shared timestamp
        // closing events precede opening ones; within a timestamp, outer
        // spans open first (ascending depth) and close last (descending).
        events.push((span.start, 2, span.depth as i64, Json::Obj(begin)));
        events.push((
            span.end,
            1,
            -(span.depth as i64),
            Json::Obj(vec![
                ("ph".to_string(), Json::str("E")),
                ("ts".to_string(), Json::Int(span.end as i64)),
                ("pid".to_string(), Json::Int(pid as i64)),
                ("tid".to_string(), Json::Int(tid as i64)),
            ]),
        ));
    }

    events.sort_by_key(|a| (a.0, a.1, a.2));
    Json::obj([
        (
            "traceEvents",
            Json::Arr(events.into_iter().map(|(_, _, _, e)| e).collect()),
        ),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([("time_unit", Json::str("1 cycle = 1 us"))]),
        ),
    ])
}

fn metadata(kind: &str, pid: u32, tid: u32, name: &str) -> Json {
    Json::obj([
        ("name", Json::str(kind)),
        ("ph", Json::str("M")),
        ("pid", Json::Int(pid as i64)),
        ("tid", Json::Int(tid as i64)),
        ("args", Json::obj([("name", Json::str(name))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_recorder() -> SpanRecorder {
        let rec = SpanRecorder::new();
        let p = rec.process("run");
        let t = rec.track(p, "core0");
        rec.begin(t, "outer", 0);
        rec.begin(t, "inner", 5);
        rec.end(t, 9);
        rec.begin(t, "inner2", 9);
        rec.end(t, 12);
        rec.end(t, 20);
        rec
    }

    fn events(trace: &Json) -> Vec<&Json> {
        trace
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .collect()
    }

    #[test]
    fn emits_matching_begin_end_pairs() {
        let trace = chrome_trace(&nested_recorder());
        let evs = events(&trace);
        let count = |ph: &str| {
            evs.iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("B"), 3);
        assert_eq!(count("E"), 3);
        assert_eq!(count("M"), 2, "process_name + thread_name metadata");
    }

    #[test]
    fn pairs_balance_as_a_stack_per_thread() {
        let trace = chrome_trace(&nested_recorder());
        let mut depth: i64 = 0;
        for e in events(&trace) {
            match e.get("ph").and_then(Json::as_str) {
                Some("B") => depth += 1,
                Some("E") => {
                    depth -= 1;
                    assert!(depth >= 0, "E without matching B");
                }
                _ => {}
            }
        }
        assert_eq!(depth, 0, "every B must have a matching E");
    }

    #[test]
    fn timestamps_are_nondecreasing() {
        let trace = chrome_trace(&nested_recorder());
        let ts: Vec<i64> = events(&trace)
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|e| e.get("ts").and_then(Json::as_int).unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }

    #[test]
    fn shared_timestamp_orders_end_before_begin() {
        // inner ends at 9, inner2 begins at 9.
        let trace = chrome_trace(&nested_recorder());
        let at9: Vec<&str> = events(&trace)
            .iter()
            .filter(|e| e.get("ts").and_then(Json::as_int) == Some(9))
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(at9, ["E", "B"]);
    }

    #[test]
    fn export_reparses_as_valid_json() {
        let trace = chrome_trace(&nested_recorder());
        let text = trace.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), trace);
    }

    #[test]
    fn counter_tracks_ride_on_a_dedicated_process() {
        let series = TimeSeries::new();
        series.push("ipc/tile0", 1000, 0.5);
        series.push("ipc/tile0", 2000, 0.75);
        series.push("conflicts", 1000, 3.0);
        let trace = chrome_trace_with_counters(&nested_recorder(), Some(&series));
        let evs = events(&trace);
        let counters: Vec<&&Json> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(counters.len(), 3);
        // The counter pid must not collide with any span process (pid 0).
        let pid = counters[0].get("pid").and_then(Json::as_int).unwrap();
        assert_eq!(pid, 1);
        assert!(evs.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("pid").and_then(Json::as_int) == Some(pid)
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("counters")
        }));
        assert!(counters.iter().all(|e| {
            e.get("args")
                .and_then(|a| a.get("value"))
                .and_then(Json::as_f64)
                .is_some()
        }));
        assert_eq!(Json::parse(&trace.to_pretty()).unwrap(), trace);
    }

    #[test]
    fn empty_series_emits_no_counter_process() {
        let series = TimeSeries::new();
        let trace = chrome_trace_with_counters(&nested_recorder(), Some(&series));
        assert!(!events(&trace).iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                == Some("counters")
        }));
    }
}
