//! Host-side self-profiling for the execution engine.
//!
//! Every quantum round of every run (one-worker runs included) reports
//! how the host spent its wall-clock time — per-worker busy vs.
//! lockstep-wait nanoseconds, quantum-stop (boundary) durations, mailbox
//! traffic volume, and external-merge counts — into one process-wide
//! accumulator. The data is strictly
//! host-side: it never feeds back into simulated state, so instrumented
//! runs stay bit-identical at every worker count while the profile
//! explains where the speedup went.
//!
//! The accumulator is process-wide (like
//! [`set_default_threads`](crate::set_default_threads)) because artifact
//! writers aggregate over many short-lived clusters; use
//! [`reset_engine_profile`] to scope a measurement.

use std::sync::{Mutex, OnceLock};

use mempool_obs::{chrome_trace_with_counters, Json, Obs};

/// Per-quantum counter samples retained for the embedded Perfetto
/// counter tracks; beyond this, totals keep accumulating and
/// [`EngineProfile::samples_dropped`] counts the overflow. Every round of
/// every run lands here (a `step()`-driven cluster contributes one per
/// tick), so the cap is what bounds the profile's memory: 512 samples are
/// 28 KiB, where 4096 showed up as +0.3 MiB of peak RSS on short runs.
pub const MAX_PROFILE_SAMPLES: usize = 512;

/// Every this many ticks a worker lane times the three phases of the tick
/// (four clock reads, about 100 ns): often enough for a stable split of a
/// run, rare enough not to show in its wall time.
pub const PHASE_SAMPLE_PERIOD: u64 = 64;

/// One worker lane's accumulated host-time profile.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Nanoseconds spent simulating (total minus lockstep wait).
    pub busy_ns: u64,
    /// Nanoseconds spent in the lockstep gate waiting on peers.
    pub wait_ns: u64,
    /// Bank-queue pushes routed through cross-tile mailboxes.
    pub mailbox_pushes: u64,
    /// Responses routed through cross-tile mailboxes.
    pub mailbox_responses: u64,
}

/// What one worker lane tallied about its own host time during one
/// quantum; [`record_quantum`] folds it into the process-wide profile.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LaneTally {
    /// Wall nanoseconds the lane ran, lockstep waits included.
    pub(crate) total_ns: u64,
    /// Nanoseconds of that spent in the lockstep gate.
    pub(crate) wait_ns: u64,
    pub(crate) mailbox_pushes: u64,
    pub(crate) mailbox_responses: u64,
    /// Nanoseconds per tick phase on the sampled ticks (see
    /// [`EngineProfile::phase_ns`]).
    pub(crate) phase_ns: [u64; 3],
    pub(crate) phase_ticks: u64,
}

/// One quantum's aggregate sample (sums over the workers that ran it).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QuantumSample {
    /// Zero-based quantum sequence number (the counter-track x-axis).
    pub seq: u64,
    /// Simulated ticks this quantum covered.
    pub ticks: u64,
    /// Wall nanoseconds the worker scope ran.
    pub round_ns: u64,
    /// Wall nanoseconds the boundary (merge/resolve/sample) took.
    pub boundary_ns: u64,
    /// Summed worker busy nanoseconds.
    pub busy_ns: u64,
    /// Summed worker lockstep-wait nanoseconds.
    pub wait_ns: u64,
    /// Worker count for this quantum.
    pub workers: u32,
}

/// The process-wide quantum-engine self-profile.
#[derive(Debug, Default, Clone)]
pub struct EngineProfile {
    /// Quantum rounds driven since the last reset.
    pub quanta: u64,
    /// Simulated ticks executed.
    pub ticks: u64,
    /// Total wall nanoseconds spent inside worker scopes.
    pub round_ns: u64,
    /// Total wall nanoseconds spent in quantum boundaries.
    pub boundary_ns: u64,
    /// Deferred off-chip intents merged and resolved at boundaries.
    pub externals_merged: u64,
    /// Wall nanoseconds the worker lanes spent in each phase of a tick —
    /// `[serve, local, route]`: bank service (with the ECC stall exchange
    /// of rounds that have one), response delivery and issue, routing —
    /// on the ticks they sampled (every [`PHASE_SAMPLE_PERIOD`]th). A
    /// phase's mean cost per lane and tick is its entry over
    /// [`Self::phase_ticks_sampled`].
    pub phase_ns: [u64; 3],
    /// Ticks the phase timers sampled, summed over worker lanes.
    pub phase_ticks_sampled: u64,
    /// Per-worker-lane accumulated profiles (index = lane).
    pub workers: Vec<WorkerProfile>,
    /// Per-quantum samples, capped at [`MAX_PROFILE_SAMPLES`].
    pub samples: Vec<QuantumSample>,
    /// Quanta whose samples were dropped once the cap was hit.
    pub samples_dropped: u64,
}

impl EngineProfile {
    /// Builds the `mempool-perf-profile/v1` document: totals, per-worker
    /// busy/wait/mailbox breakdowns, and an embedded Chrome Trace
    /// document whose `ph:"C"` counter tracks plot per-quantum busy,
    /// wait, and boundary time over the quantum sequence — loadable in
    /// Perfetto next to (but deliberately separate from) the
    /// deterministic `trace.json`, which must stay byte-identical across
    /// worker counts.
    pub fn to_json(&self) -> Json {
        let workers = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let denom = (w.busy_ns + w.wait_ns).max(1) as f64;
                Json::obj([
                    ("worker", Json::Int(i as i64)),
                    ("busy_ns", Json::Int(w.busy_ns as i64)),
                    ("wait_ns", Json::Int(w.wait_ns as i64)),
                    ("wait_share", Json::Float(w.wait_ns as f64 / denom)),
                    ("mailbox_pushes", Json::Int(w.mailbox_pushes as i64)),
                    ("mailbox_responses", Json::Int(w.mailbox_responses as i64)),
                ])
            })
            .collect();
        // A private Obs: empty span recorder, counter series over the
        // quantum sequence number.
        let obs = Obs::new();
        for s in &self.samples {
            obs.series.push("engine/busy_ns", s.seq, s.busy_ns as f64);
            obs.series.push("engine/wait_ns", s.seq, s.wait_ns as f64);
            obs.series
                .push("engine/boundary_ns", s.seq, s.boundary_ns as f64);
            obs.series.push("engine/ticks", s.seq, s.ticks as f64);
            obs.series
                .push("engine/workers", s.seq, f64::from(s.workers));
        }
        Json::obj([
            ("schema", Json::str("mempool-perf-profile/v1")),
            ("time_unit", Json::str("quantum")),
            ("quanta", Json::Int(self.quanta as i64)),
            ("ticks", Json::Int(self.ticks as i64)),
            ("round_ns", Json::Int(self.round_ns as i64)),
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
            ("workers", Json::Arr(workers)),
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

/// Folds one quantum round into the process-wide profile. `lanes` yields
/// each worker lane's tally, lane order.
pub(crate) fn record_quantum(
    ticks: u64,
    round_ns: u64,
    boundary_ns: u64,
    externals: u64,
    lanes: impl Iterator<Item = LaneTally>,
) {
    let mut p = profile().lock().expect("engine profile lock");
    let seq = p.quanta;
    p.quanta += 1;
    p.ticks += ticks;
    p.round_ns += round_ns;
    p.boundary_ns += boundary_ns;
    p.externals_merged += externals;
    let mut busy_total = 0u64;
    let mut wait_total = 0u64;
    let mut count = 0u32;
    for (i, lane) in lanes.enumerate() {
        if p.workers.len() <= i {
            p.workers.push(WorkerProfile::default());
        }
        let busy = lane.total_ns.saturating_sub(lane.wait_ns);
        let w = &mut p.workers[i];
        w.busy_ns += busy;
        w.wait_ns += lane.wait_ns;
        w.mailbox_pushes += lane.mailbox_pushes;
        w.mailbox_responses += lane.mailbox_responses;
        busy_total += busy;
        wait_total += lane.wait_ns;
        count += 1;
        for (total, ns) in p.phase_ns.iter_mut().zip(lane.phase_ns) {
            *total += ns;
        }
        p.phase_ticks_sampled += lane.phase_ticks;
    }
    if p.samples.len() < MAX_PROFILE_SAMPLES {
        p.samples.push(QuantumSample {
            seq,
            ticks,
            round_ns,
            boundary_ns,
            busy_ns: busy_total,
            wait_ns: wait_total,
            workers: count,
        });
    } else {
        p.samples_dropped += 1;
    }
}

/// A snapshot of the process-wide quantum-engine self-profile.
pub fn engine_profile() -> EngineProfile {
    profile().lock().expect("engine profile lock").clone()
}

/// Clears the process-wide self-profile (scope a measurement to one run
/// or probe leg).
pub fn reset_engine_profile() {
    *profile().lock().expect("engine profile lock") = EngineProfile::default();
}

/// [`engine_profile`] rendered as the `mempool-perf-profile/v1` JSON
/// document (see [`EngineProfile::to_json`]).
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
            wait_ns: 200,
            mailbox_pushes: 5,
            mailbox_responses: 7,
            phase_ns: [30, 50, 10],
            phase_ticks: 1,
        };
        record_quantum(64, 1_000, 100, 3, [lane, lane].into_iter());
        let after = engine_profile();
        assert!(after.quanta > before.quanta);
        assert!(after.ticks >= before.ticks + 64);
        assert!(after.externals_merged >= before.externals_merged + 3);
        assert!(after.workers.len() >= 2);
        assert!(after.workers[1].busy_ns >= before.workers.get(1).map_or(0, |w| w.busy_ns) + 800);
        assert!(after.phase_ns[1] >= before.phase_ns[1] + 100);
        assert!(after.phase_ticks_sampled >= before.phase_ticks_sampled + 2);
    }

    #[test]
    fn profile_json_has_schema_and_reparses() {
        record_quantum(16, 500, 50, 0, std::iter::once(LaneTally::default()));
        let doc = engine_profile_json();
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).expect("profile json reparses");
        assert_eq!(
            parsed.get("schema"),
            Some(&Json::str("mempool-perf-profile/v1"))
        );
        assert!(matches!(parsed.get("workers"), Some(Json::Arr(_))));
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
