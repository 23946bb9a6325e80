//! Off-chip memory port and DMA model.
//!
//! Section VI-A of the paper models off-chip memory as a port with a
//! configurable bandwidth (4 to 64 bytes per cycle) and *idealized latency*:
//! a transfer of `n` bytes costs `latency + ceil(n / bandwidth)` cycles and
//! transfers are serialized on the single port. The memory phases of the
//! blocked kernels move tiles between external memory and the SPM through
//! this port.

/// The off-chip port: tracks bandwidth-limited bulk transfers.
#[derive(Debug, Clone)]
pub struct OffchipPort {
    bytes_per_cycle: u32,
    latency: u32,
    /// Cycle at which the port becomes free.
    busy_until: u64,
    total_bytes: u64,
    total_cycles: u64,
}

impl OffchipPort {
    /// Why there is no port of this bandwidth, if there is none: a port
    /// must move at least one byte per cycle.
    pub(crate) fn check_bandwidth(bytes_per_cycle: u32) -> Result<(), String> {
        if bytes_per_cycle == 0 {
            return Err("off-chip bandwidth must be nonzero".to_string());
        }
        Ok(())
    }

    /// Creates a port with the given bandwidth (bytes/cycle) and fixed
    /// per-transfer latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    pub fn new(bytes_per_cycle: u32, latency: u32) -> Self {
        Self::check_bandwidth(bytes_per_cycle).unwrap_or_else(|rule| panic!("{rule}"));
        OffchipPort {
            bytes_per_cycle,
            latency,
            busy_until: 0,
            total_bytes: 0,
            total_cycles: 0,
        }
    }

    /// Bandwidth in bytes per cycle.
    pub(crate) fn bytes_per_cycle(&self) -> u32 {
        self.bytes_per_cycle
    }

    /// Pure cost of transferring `bytes` (latency + serialization).
    pub(crate) fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.latency as u64 + bytes.div_ceil(self.bytes_per_cycle as u64)
    }

    /// Starts a transfer of `bytes` at cycle `now` (or when the port frees
    /// up, whichever is later) and returns the completion cycle.
    #[inline]
    pub fn schedule(&mut self, now: u64, bytes: u64) -> u64 {
        let start = now.max(self.busy_until);
        let done = start + self.transfer_cycles(bytes);
        self.busy_until = done;
        self.total_bytes += bytes;
        self.total_cycles += done - start;
        done
    }

    /// Cycle at which the port becomes idle.
    pub(crate) fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Remaining busy window as seen from `now`: how many cycles of already
    /// scheduled transfers are still draining (0 when idle).
    pub(crate) fn backlog(&self, now: u64) -> u64 {
        self.busy_until.saturating_sub(now)
    }

    /// Total bytes transferred.
    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total cycles the port has been busy.
    pub(crate) fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Restores the mutable port state from a checkpoint (bandwidth and
    /// latency are rebuilt from [`SimParams`](crate::SimParams)).
    pub(crate) fn restore_state(&mut self, busy_until: u64, total_bytes: u64, total_cycles: u64) {
        self.busy_until = busy_until;
        self.total_bytes = total_bytes;
        self.total_cycles = total_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cost_is_latency_plus_serialization() {
        let port = OffchipPort::new(16, 30);
        assert_eq!(port.transfer_cycles(0), 30);
        assert_eq!(port.transfer_cycles(16), 31);
        assert_eq!(port.transfer_cycles(17), 32);
        assert_eq!(port.transfer_cycles(1024), 30 + 64);
    }

    #[test]
    fn back_to_back_transfers_serialize() {
        let mut port = OffchipPort::new(16, 10);
        let first = port.schedule(0, 160); // 10 + 10 = 20
        assert_eq!(first, 20);
        let second = port.schedule(5, 160); // starts at 20
        assert_eq!(second, 40);
        assert_eq!(port.total_bytes(), 320);
        assert_eq!(port.total_cycles(), 40);
    }

    #[test]
    fn idle_port_starts_immediately() {
        let mut port = OffchipPort::new(4, 0);
        let done = port.schedule(100, 8);
        assert_eq!(done, 102);
    }

    #[test]
    fn backlog_tracks_the_remaining_busy_window() {
        let mut port = OffchipPort::new(16, 10);
        assert_eq!(port.backlog(0), 0);
        let done = port.schedule(0, 160); // busy until 20
        assert_eq!(port.backlog(5), done - 5);
        assert_eq!(port.backlog(done), 0);
        assert_eq!(port.backlog(done + 10), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_bandwidth_panics() {
        let _ = OffchipPort::new(0, 0);
    }
}
