//! Forward-progress watchdog and per-core deadlock diagnostics.
//!
//! The cluster's `step()` loop reports to the watchdog whether *any* core
//! retired an instruction or received a memory response this cycle. When
//! nothing happens for the configured number of cycles, the simulator
//! raises a typed deadlock error carrying a [`CoreDiagnostic`] snapshot —
//! so a stalled run explains itself (everyone parked in `wfi` waiting on a
//! slow response, a core the barrier waits on, ...) instead of spinning
//! until the cycle budget dies.

use std::fmt;

use mempool_obs::Json;

/// Forward-progress watchdog: fires after `threshold` cycles without any
/// retired instruction or delivered memory response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    threshold: u64,
    last_progress: u64,
}

impl Watchdog {
    /// Creates a watchdog armed at `now`; `threshold` is clamped to at
    /// least 1 cycle.
    pub fn new(threshold: u64, now: u64) -> Self {
        Watchdog {
            threshold: threshold.max(1),
            last_progress: now,
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Cycle of the last recorded progress (checkpoint/restore needs this
    /// to rebuild an identical watchdog: `Watchdog::new(threshold,
    /// last_progress)`).
    pub fn last_progress(&self) -> u64 {
        self.last_progress
    }

    /// Records that the cluster made forward progress at `cycle`.
    pub fn note_progress(&mut self, cycle: u64) {
        self.last_progress = cycle;
    }

    /// Cycles elapsed since the last recorded progress.
    pub fn stalled_for(&self, cycle: u64) -> u64 {
        cycle.saturating_sub(self.last_progress)
    }

    /// Whether the no-progress window has reached the threshold.
    pub fn expired(&self, cycle: u64) -> bool {
        self.stalled_for(cycle) >= self.threshold
    }
}

/// Snapshot of one core's state at deadlock time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreDiagnostic {
    /// Global core index.
    pub core: u32,
    /// Program counter.
    pub pc: u32,
    /// Whether the core executed `wfi`.
    pub halted: bool,
    /// Outstanding memory transactions (never completing ones pin this
    /// above zero).
    pub outstanding: u32,
    /// Instructions retired before the deadlock.
    pub retired: u64,
    /// The core's last few retired instructions (formatted trace lines,
    /// oldest first), when instruction tracing was enabled.
    pub recent: Vec<String>,
}

impl CoreDiagnostic {
    /// One-word summary of the core's condition.
    pub fn condition(&self) -> &'static str {
        if self.halted && self.outstanding > 0 {
            "wfi-with-outstanding"
        } else if self.halted {
            "halted"
        } else if self.outstanding > 0 {
            "waiting-on-memory"
        } else {
            "runnable"
        }
    }

    /// Serializes the snapshot as a JSON object (for `crashdump.json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("core", Json::Int(i64::from(self.core))),
            ("condition", Json::str(self.condition())),
            ("pc", Json::Int(i64::from(self.pc))),
            ("halted", Json::Bool(self.halted)),
            ("outstanding", Json::Int(i64::from(self.outstanding))),
            ("retired", Json::Int(self.retired as i64)),
            (
                "recent",
                Json::Arr(self.recent.iter().map(|l| Json::Str(l.clone())).collect()),
            ),
        ])
    }
}

impl fmt::Display for CoreDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {:>3}: {} pc={:#010x} outstanding={} retired={}",
            self.core,
            self.condition(),
            self.pc,
            self.outstanding,
            self.retired
        )?;
        for line in &self.recent {
            write!(f, "\n    {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expires_only_after_threshold_without_progress() {
        let mut w = Watchdog::new(10, 0);
        assert!(!w.expired(9));
        assert!(w.expired(10));
        w.note_progress(10);
        assert!(!w.expired(19));
        assert!(w.expired(20));
        assert_eq!(w.stalled_for(15), 5);
    }

    #[test]
    fn zero_threshold_is_clamped() {
        let w = Watchdog::new(0, 5);
        assert_eq!(w.threshold(), 1);
        assert!(!w.expired(5));
        assert!(w.expired(6));
    }

    #[test]
    fn diagnostic_conditions_and_display() {
        let d = CoreDiagnostic {
            core: 3,
            pc: 0x40,
            halted: true,
            outstanding: 1,
            retired: 17,
            recent: Vec::new(),
        };
        assert_eq!(d.condition(), "wfi-with-outstanding");
        let text = d.to_string();
        assert!(text.contains("core   3"));
        assert!(text.contains("outstanding=1"));

        let halted = CoreDiagnostic {
            outstanding: 0,
            ..d.clone()
        };
        assert_eq!(halted.condition(), "halted");
        let waiting = CoreDiagnostic {
            halted: false,
            ..d.clone()
        };
        assert_eq!(waiting.condition(), "waiting-on-memory");
        let runnable = CoreDiagnostic {
            halted: false,
            outstanding: 0,
            ..d
        };
        assert_eq!(runnable.condition(), "runnable");
    }

    #[test]
    fn display_appends_recent_instruction_window() {
        let d = CoreDiagnostic {
            core: 1,
            outstanding: 1,
            recent: vec!["100  1  0x80  lw x5, 0(x6)".to_string()],
            ..CoreDiagnostic::default()
        };
        let text = d.to_string();
        assert!(text.contains("waiting-on-memory"));
        assert!(text.contains("\n    100  1  0x80  lw x5, 0(x6)"));
    }

    #[test]
    fn diagnostic_json_parses_and_carries_recent_window() {
        let d = CoreDiagnostic {
            core: 2,
            pc: 0x80,
            halted: true,
            retired: 42,
            recent: vec!["a".to_string(), "b".to_string()],
            ..CoreDiagnostic::default()
        };
        let doc = Json::parse(&d.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("condition").and_then(Json::as_str), Some("halted"));
        assert_eq!(doc.get("retired").and_then(Json::as_int), Some(42));
        assert_eq!(
            doc.get("recent").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }
}
