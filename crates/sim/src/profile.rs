//! Host-side self-profiling for the execution engine.
//!
//! Every `run` / `step` call reports how the host spent its wall-clock
//! time — the call's duration and ticks, and a per-phase split of sampled
//! ticks — into one process-wide accumulator. The data is strictly
//! host-side: it never feeds back into simulated state, so instrumented
//! runs stay bit-identical while the profile explains where the time went.
//!
//! The accumulator is process-wide because artifact writers aggregate over
//! many short-lived clusters.

use std::sync::{Mutex, OnceLock};

use mempool_obs::{chrome_trace_with_counters, Json, Obs};

/// Per-call counter samples retained for the embedded Perfetto counter
/// tracks; beyond this, totals keep accumulating and
/// [`EngineProfile::samples_dropped`] counts the overflow. Every call of
/// every run lands here (a `step()`-driven cluster contributes one per
/// tick), so the cap is what bounds the profile's memory: 512 samples are
/// 12 KiB, where 4096 showed up as +0.3 MiB of peak RSS on short runs.
pub(crate) const MAX_PROFILE_SAMPLES: usize = 512;

/// Every this many ticks the engine times the two phases of the tick
/// (three clock reads, about 75 ns): often enough for a stable split of a
/// run, rare enough not to show in its wall time.
pub(crate) const PHASE_SAMPLE_PERIOD: u64 = 64;

/// What the engine tallied about its own host time during one `run` /
/// `step` call; [`record_call`] folds it into the process-wide profile.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CallTally {
    /// Simulated ticks the call ran.
    pub(crate) ticks: u64,
    /// Wall nanoseconds the call took.
    pub(crate) busy_ns: u64,
    /// Nanoseconds per tick phase on the sampled ticks (see
    /// [`EngineProfile::phase_ns`]).
    pub(crate) phase_ns: [u64; 2],
    /// Ticks the phase timers sampled.
    pub(crate) phase_ticks: u64,
}

/// One call's sample.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CallSample {
    /// Zero-based call sequence number (the counter-track x-axis).
    pub seq: u64,
    /// Simulated ticks the call ran.
    pub ticks: u64,
    /// Wall nanoseconds the call took.
    pub busy_ns: u64,
}

/// The process-wide engine self-profile.
#[derive(Debug, Default, Clone)]
pub(crate) struct EngineProfile {
    /// `run` / `step` calls profiled since the process started.
    pub runs: u64,
    /// Simulated ticks executed.
    pub ticks: u64,
    /// Total wall nanoseconds spent in those calls.
    pub busy_ns: u64,
    /// Wall nanoseconds spent in each phase of a tick — `[serve, local]`:
    /// bank service, then response delivery and issue — on the ticks
    /// sampled (every [`PHASE_SAMPLE_PERIOD`]th). A phase's mean cost per
    /// tick is its entry over [`Self::phase_ticks_sampled`].
    pub phase_ns: [u64; 2],
    /// Ticks the phase timers sampled.
    pub phase_ticks_sampled: u64,
    /// Per-call samples, capped at [`MAX_PROFILE_SAMPLES`].
    pub samples: Vec<CallSample>,
    /// Calls whose samples were dropped once the cap was hit.
    pub samples_dropped: u64,
}

impl EngineProfile {
    /// Builds the `mempool-perf-profile/v3` document: totals and an
    /// embedded Chrome Trace document whose `ph:"C"` counter tracks plot
    /// per-call busy time and ticks over the call sequence — loadable in
    /// Perfetto next to (but deliberately separate from) the deterministic
    /// `trace.json`, which host time must never touch.
    pub(crate) fn to_json(&self) -> Json {
        // A private Obs: empty span recorder, counter series over the
        // call sequence number.
        let obs = Obs::new();
        for s in &self.samples {
            obs.series.push("engine/busy_ns", s.seq, s.busy_ns as f64);
            obs.series.push("engine/ticks", s.seq, s.ticks as f64);
        }
        Json::obj([
            ("schema", Json::str("mempool-perf-profile/v3")),
            ("time_unit", Json::str("call")),
            ("runs", Json::Int(self.runs as i64)),
            ("ticks", Json::Int(self.ticks as i64)),
            ("busy_ns", Json::Int(self.busy_ns as i64)),
            (
                "phase_ns",
                Json::obj(
                    ["serve", "local"]
                        .into_iter()
                        .zip(self.phase_ns.map(|ns| Json::Int(ns as i64))),
                ),
            ),
            (
                "phase_ticks_sampled",
                Json::Int(self.phase_ticks_sampled as i64),
            ),
            ("samples_dropped", Json::Int(self.samples_dropped as i64)),
            (
                "trace",
                chrome_trace_with_counters(&obs.spans, Some(&obs.series)),
            ),
        ])
    }
}

fn profile() -> &'static Mutex<EngineProfile> {
    static PROFILE: OnceLock<Mutex<EngineProfile>> = OnceLock::new();
    PROFILE.get_or_init(|| Mutex::new(EngineProfile::default()))
}

/// Folds one `run` / `step` call into the process-wide profile.
pub(crate) fn record_call(call: CallTally) {
    let mut p = profile().lock().expect("engine profile lock");
    let seq = p.runs;
    p.runs += 1;
    p.ticks += call.ticks;
    p.busy_ns += call.busy_ns;
    for (total, ns) in p.phase_ns.iter_mut().zip(call.phase_ns) {
        *total += ns;
    }
    p.phase_ticks_sampled += call.phase_ticks;
    if p.samples.len() < MAX_PROFILE_SAMPLES {
        p.samples.push(CallSample {
            seq,
            ticks: call.ticks,
            busy_ns: call.busy_ns,
        });
    } else {
        p.samples_dropped += 1;
    }
}

/// A snapshot of the process-wide engine self-profile.
pub(crate) fn engine_profile() -> EngineProfile {
    profile().lock().expect("engine profile lock").clone()
}

/// The process-wide engine profile rendered as the
/// `mempool-perf-profile/v3` JSON document.
pub fn engine_profile_json() -> Json {
    engine_profile().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_samples() {
        // Totals are process-global and other tests run the engine
        // concurrently, so assert deltas only.
        let before = engine_profile();
        let call = CallTally {
            ticks: 64,
            busy_ns: 1_000,
            phase_ns: [30, 50],
            phase_ticks: 1,
        };
        record_call(call);
        let after = engine_profile();
        assert!(after.runs > before.runs);
        assert!(after.ticks >= before.ticks + 64);
        assert!(after.busy_ns >= before.busy_ns + 1_000);
        assert!(after.phase_ns[1] >= before.phase_ns[1] + 50);
        assert!(after.phase_ticks_sampled > before.phase_ticks_sampled);
    }

    #[test]
    fn profile_json_has_schema_and_reparses() {
        record_call(CallTally::default());
        let doc = engine_profile_json();
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).expect("profile json reparses");
        assert_eq!(
            parsed.get("schema"),
            Some(&Json::str("mempool-perf-profile/v3"))
        );
        assert!(matches!(parsed.get("runs"), Some(Json::Int(n)) if *n > 0));
        assert!(matches!(parsed.get("busy_ns"), Some(Json::Int(_))));
        let Some(Json::Obj(phases)) = parsed.get("phase_ns") else {
            panic!("phase_ns is an object");
        };
        let names: Vec<&str> = phases.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["serve", "local"]);
        assert!(matches!(
            parsed.get("phase_ticks_sampled"),
            Some(Json::Int(_))
        ));
        assert!(matches!(parsed.get("trace"), Some(Json::Obj(_))));
    }
}
