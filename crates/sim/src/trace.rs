//! Instruction tracing.
//!
//! When enabled, the cluster records every retired instruction into a
//! bounded ring buffer — the equivalent of an RTL simulator's instruction
//! log, and the first tool to reach for when a kernel misbehaves.

use std::collections::VecDeque;
use std::fmt;

use mempool_arch::GlobalCoreId;
use mempool_isa::Instr;

/// One retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceEntry {
    /// Cycle of issue.
    pub cycle: u64,
    /// Issuing core.
    pub core: GlobalCoreId,
    /// Program counter.
    pub pc: u32,
    /// The instruction.
    pub instr: Instr,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>10}  {:>5}  {:#010x}  {}",
            self.cycle, self.core, self.pc, self.instr
        )
    }
}

/// A bounded instruction trace.
#[derive(Debug, Clone)]
pub struct Trace {
    ring: VecDeque<TraceEntry>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// Creates a trace keeping the most recent `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        Trace {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Records an entry, evicting the oldest if full.
    pub(crate) fn record(&mut self, entry: TraceEntry) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(entry);
    }

    /// The ring capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counts `n` entries a bounded feeder discarded on the ring's behalf:
    /// entries that, recorded, would have been evicted again before anyone
    /// could read them.
    pub(crate) fn add_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// The retained entries, oldest first.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.ring.iter()
    }

    /// Entries retired by one core, oldest first.
    pub(crate) fn for_core(&self, core: GlobalCoreId) -> impl Iterator<Item = &TraceEntry> {
        self.ring.iter().filter(move |e| e.core == core)
    }

    /// Entries evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped > 0 {
            writeln!(f, "... {} earlier entries dropped ...", self.dropped)?;
        }
        for entry in &self.ring {
            writeln!(f, "{entry}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_isa::Instr;

    fn entry(cycle: u64, core: u32) -> TraceEntry {
        TraceEntry {
            cycle,
            core: GlobalCoreId::new(core),
            pc: (cycle * 4) as u32,
            instr: Instr::Fence,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut t = Trace::new(3);
        for c in 0..5 {
            t.record(entry(c, 0));
        }
        assert_eq!(t.entries().count(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.entries().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn per_core_filter() {
        let mut t = Trace::new(10);
        t.record(entry(0, 0));
        t.record(entry(1, 1));
        t.record(entry(2, 0));
        assert_eq!(t.for_core(GlobalCoreId::new(0)).count(), 2);
        assert_eq!(t.for_core(GlobalCoreId::new(1)).count(), 1);
    }

    #[test]
    fn display_is_one_line_per_entry() {
        let mut t = Trace::new(4);
        t.record(entry(7, 3));
        let text = t.to_string();
        assert!(text.contains("fence"));
        assert!(text.contains("C3"));
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = Trace::new(0);
    }
}
