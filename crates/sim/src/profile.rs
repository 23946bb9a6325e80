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

/// Folds one quantum round into the process-wide profile. `workers`
/// yields `(busy_ns, wait_ns, mailbox_pushes, mailbox_responses)` per
/// lane, lane order.
pub(crate) fn record_quantum(
    ticks: u64,
    round_ns: u64,
    boundary_ns: u64,
    externals: u64,
    workers: impl Iterator<Item = (u64, u64, u64, u64)>,
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
    for (i, (busy, wait, pushes, responses)) in workers.enumerate() {
        if p.workers.len() <= i {
            p.workers.push(WorkerProfile::default());
        }
        let w = &mut p.workers[i];
        w.busy_ns += busy;
        w.wait_ns += wait;
        w.mailbox_pushes += pushes;
        w.mailbox_responses += responses;
        busy_total += busy;
        wait_total += wait;
        count += 1;
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
        record_quantum(
            64,
            1_000,
            100,
            3,
            vec![(800, 200, 5, 7), (900, 50, 1, 2)].into_iter(),
        );
        let after = engine_profile();
        assert!(after.quanta > before.quanta);
        assert!(after.ticks >= before.ticks + 64);
        assert!(after.externals_merged >= before.externals_merged + 3);
        assert!(after.workers.len() >= 2);
    }

    #[test]
    fn profile_json_has_schema_and_reparses() {
        record_quantum(16, 500, 50, 0, std::iter::once((400, 100, 0, 0)));
        let doc = engine_profile_json();
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).expect("profile json reparses");
        assert_eq!(
            parsed.get("schema"),
            Some(&Json::str("mempool-perf-profile/v1"))
        );
        assert!(matches!(parsed.get("workers"), Some(Json::Arr(_))));
        assert!(matches!(parsed.get("trace"), Some(Json::Obj(_))));
    }
}
