//! Host-side self-profiling for the execution engine.
//!
//! Every quantum round of every run reports how the host spent its
//! wall-clock time — ticking vs. quantum-stop (boundary) durations, a
//! per-phase split of sampled ticks, and external-merge counts — into one
//! process-wide accumulator. The data is strictly host-side: it never
//! feeds back into simulated state, so instrumented runs stay
//! bit-identical while the profile explains where the time went.
//!
//! The accumulator is process-wide because artifact writers aggregate over
//! many short-lived clusters.

use std::sync::{Mutex, OnceLock};

use mempool_obs::{chrome_trace_with_counters, Json, Obs};

/// Per-quantum counter samples retained for the embedded Perfetto
/// counter tracks; beyond this, totals keep accumulating and
/// [`EngineProfile::samples_dropped`] counts the overflow. Every round of
/// every run lands here (a `step()`-driven cluster contributes one per
/// tick), so the cap is what bounds the profile's memory: 512 samples are
/// 28 KiB, where 4096 showed up as +0.3 MiB of peak RSS on short runs.
pub(crate) const MAX_PROFILE_SAMPLES: usize = 512;

/// Every this many ticks the engine times the three phases of the tick
/// (four clock reads, about 100 ns): often enough for a stable split of a
/// run, rare enough not to show in its wall time.
pub(crate) const PHASE_SAMPLE_PERIOD: u64 = 64;

/// What the engine tallied about its own host time during one quantum;
/// [`record_quantum`] folds it into the process-wide profile.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LaneTally {
    /// Wall nanoseconds the ticks ran.
    pub(crate) total_ns: u64,
    /// Nanoseconds per tick phase on the sampled ticks (see
    /// [`EngineProfile::phase_ns`]).
    pub(crate) phase_ns: [u64; 3],
    pub(crate) phase_ticks: u64,
}

/// One quantum's sample.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QuantumSample {
    /// Zero-based quantum sequence number (the counter-track x-axis).
    pub seq: u64,
    /// Simulated ticks this quantum covered.
    pub ticks: u64,
    /// Wall nanoseconds the round (tile split and ticks) ran.
    pub round_ns: u64,
    /// Wall nanoseconds the boundary (resolve/replay/sample) took.
    pub boundary_ns: u64,
    /// Wall nanoseconds the ticks ran.
    pub busy_ns: u64,
}

/// The process-wide quantum-engine self-profile.
#[derive(Debug, Default, Clone)]
pub(crate) struct EngineProfile {
    /// Quantum rounds driven since the last reset.
    pub quanta: u64,
    /// Simulated ticks executed.
    pub ticks: u64,
    /// Total wall nanoseconds spent in rounds (tile split and ticks).
    pub round_ns: u64,
    /// Total wall nanoseconds spent ticking.
    pub busy_ns: u64,
    /// Total wall nanoseconds spent in quantum boundaries.
    pub boundary_ns: u64,
    /// Deferred off-chip intents merged and resolved at boundaries.
    pub externals_merged: u64,
    /// Wall nanoseconds spent in each phase of a tick — `[serve, local,
    /// route]`: bank service (with the ECC stalls it charges), response
    /// delivery and issue, routing — on the ticks sampled (every
    /// [`PHASE_SAMPLE_PERIOD`]th). A phase's mean cost per tick is its
    /// entry over [`Self::phase_ticks_sampled`].
    pub phase_ns: [u64; 3],
    /// Ticks the phase timers sampled.
    pub phase_ticks_sampled: u64,
    /// Per-quantum samples, capped at [`MAX_PROFILE_SAMPLES`].
    pub samples: Vec<QuantumSample>,
    /// Quanta whose samples were dropped once the cap was hit.
    pub samples_dropped: u64,
}

impl EngineProfile {
    /// Builds the `mempool-perf-profile/v2` document: totals and an
    /// embedded Chrome Trace document whose `ph:"C"` counter tracks plot
    /// per-quantum busy and boundary time over the quantum sequence —
    /// loadable in Perfetto next to (but deliberately separate from) the
    /// deterministic `trace.json`, which host time must never touch.
    pub(crate) fn to_json(&self) -> Json {
        // A private Obs: empty span recorder, counter series over the
        // quantum sequence number.
        let obs = Obs::new();
        for s in &self.samples {
            obs.series.push("engine/busy_ns", s.seq, s.busy_ns as f64);
            obs.series
                .push("engine/boundary_ns", s.seq, s.boundary_ns as f64);
            obs.series.push("engine/ticks", s.seq, s.ticks as f64);
        }
        Json::obj([
            ("schema", Json::str("mempool-perf-profile/v2")),
            ("time_unit", Json::str("quantum")),
            ("quanta", Json::Int(self.quanta as i64)),
            ("ticks", Json::Int(self.ticks as i64)),
            ("round_ns", Json::Int(self.round_ns as i64)),
            ("busy_ns", Json::Int(self.busy_ns as i64)),
            ("boundary_ns", Json::Int(self.boundary_ns as i64)),
            ("externals_merged", Json::Int(self.externals_merged as i64)),
            (
                "phase_ns",
                Json::obj(
                    ["serve", "local", "route"]
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

/// Folds one quantum round into the process-wide profile.
pub(crate) fn record_quantum(
    ticks: u64,
    round_ns: u64,
    boundary_ns: u64,
    externals: u64,
    lane: LaneTally,
) {
    let mut p = profile().lock().expect("engine profile lock");
    let seq = p.quanta;
    p.quanta += 1;
    p.ticks += ticks;
    p.round_ns += round_ns;
    p.boundary_ns += boundary_ns;
    p.externals_merged += externals;
    p.busy_ns += lane.total_ns;
    for (total, ns) in p.phase_ns.iter_mut().zip(lane.phase_ns) {
        *total += ns;
    }
    p.phase_ticks_sampled += lane.phase_ticks;
    if p.samples.len() < MAX_PROFILE_SAMPLES {
        p.samples.push(QuantumSample {
            seq,
            ticks,
            round_ns,
            boundary_ns,
            busy_ns: lane.total_ns,
        });
    } else {
        p.samples_dropped += 1;
    }
}

/// A snapshot of the process-wide quantum-engine self-profile.
pub(crate) fn engine_profile() -> EngineProfile {
    profile().lock().expect("engine profile lock").clone()
}

/// The process-wide engine profile rendered as the
/// `mempool-perf-profile/v2` JSON document.
pub fn engine_profile_json() -> Json {
    engine_profile().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_samples() {
        // Totals are process-global and other tests run quanta
        // concurrently, so assert deltas only.
        let before = engine_profile();
        let lane = LaneTally {
            total_ns: 1_000,
            phase_ns: [30, 50, 10],
            phase_ticks: 1,
        };
        record_quantum(64, 1_000, 100, 3, lane);
        let after = engine_profile();
        assert!(after.quanta > before.quanta);
        assert!(after.ticks >= before.ticks + 64);
        assert!(after.externals_merged >= before.externals_merged + 3);
        assert!(after.busy_ns >= before.busy_ns + 1_000);
        assert!(after.phase_ns[1] >= before.phase_ns[1] + 50);
        assert!(after.phase_ticks_sampled > before.phase_ticks_sampled);
    }

    #[test]
    fn profile_json_has_schema_and_reparses() {
        record_quantum(16, 500, 50, 0, LaneTally::default());
        let doc = engine_profile_json();
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).expect("profile json reparses");
        assert_eq!(
            parsed.get("schema"),
            Some(&Json::str("mempool-perf-profile/v2"))
        );
        assert!(matches!(parsed.get("busy_ns"), Some(Json::Int(_))));
        let phases = parsed.get("phase_ns").expect("phase_ns");
        for phase in ["serve", "local", "route"] {
            assert!(matches!(phases.get(phase), Some(Json::Int(_))), "{phase}");
        }
        assert!(matches!(
            parsed.get("phase_ticks_sampled"),
            Some(Json::Int(_))
        ));
        assert!(matches!(parsed.get("trace"), Some(Json::Obj(_))));
    }
}
