//! Simulation statistics.

use std::fmt;

use mempool_arch::{AccessClass, GroupNetwork};
use mempool_obs::{AttributionReport, BankConflictInput, CycleBuckets};

use crate::ckpt::{words_struct, Words};
use crate::params::{fnv1a, FNV_OFFSET};

/// Per-core execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Retired instructions.
    pub retired: u64,
    /// Cycles stalled on the register scoreboard (use of a pending load).
    pub stall_scoreboard: u64,
    /// Cycles stalled because the outstanding-transaction limit was hit.
    pub stall_structural: u64,
    /// Cycles stalled on instruction-cache misses (the refill bubbles).
    pub stall_icache: u64,
    /// Instruction-cache miss events. The miss slot itself costs one cycle
    /// on top of the refill bubbles in `stall_icache`, so exact cycle
    /// accounting charges `stall_icache + icache_misses` to the I$.
    pub icache_misses: u64,
    /// Cycles lost to taken-branch bubbles.
    pub stall_branch: u64,
    /// Cycles lost retrying accesses through degraded F2F links
    /// (fault-injection runs only).
    pub stall_fault_retry: u64,
    /// Cycles lost to SEC-DED single-bit correction penalties
    /// (fault-injection runs only).
    pub stall_ecc: u64,
    /// Cycles after the core halted (idle at a barrier's end or `wfi`).
    pub halted_cycles: u64,
    /// Memory accesses by distance class, indexed by
    /// `AccessClass as usize` (tile-local, group-local, remote).
    pub accesses: [u64; 3],
    /// Off-tile accesses by group network, indexed by
    /// `GroupNetwork as usize` (local, north, northeast, east).
    pub network_accesses: [u64; 4],
}

words_struct!(CoreStats {
    retired,
    stall_scoreboard,
    stall_structural,
    stall_icache,
    icache_misses,
    stall_branch,
    stall_fault_retry,
    stall_ecc,
    halted_cycles,
    accesses,
    network_accesses,
});

impl CoreStats {
    /// Total stall cycles of all causes.
    pub fn total_stalls(&self) -> u64 {
        self.stall_scoreboard
            + self.stall_structural
            + self.stall_icache
            + self.stall_branch
            + self.stall_fault_retry
            + self.stall_ecc
    }

    /// Cycles lost to instruction fetch: the refill bubbles plus the miss
    /// slots themselves.
    pub fn fetch_stall_cycles(&self) -> u64 {
        self.stall_icache + self.icache_misses
    }

    /// Records an access of the given class, traversing `network` if it
    /// leaves the tile.
    #[inline]
    pub(crate) fn record_access(&mut self, class: AccessClass, network: Option<GroupNetwork>) {
        self.accesses[class as usize] += 1;
        if let Some(network) = network {
            self.network_accesses[network as usize] += 1;
        }
    }
}

/// Per-bank statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Requests served.
    pub served: u64,
    /// Cycles in which more than one request contended for the bank
    /// (conflict cycles).
    pub conflicts: u64,
    /// Deepest request queue observed at this bank.
    pub max_queue_depth: u64,
}

words_struct!(BankStats {
    served,
    conflicts,
    max_queue_depth,
});

/// Aggregated cluster statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Per-core statistics, indexed by global core id.
    pub cores: Vec<CoreStats>,
    /// Per-bank statistics, indexed by global bank id.
    pub banks: Vec<BankStats>,
    /// Bytes moved by DMA transfers.
    pub dma_bytes: u64,
    /// Cycles spent in DMA transfers.
    pub dma_cycles: u64,
}

words_struct!(ClusterStats {
    cycles,
    cores,
    banks,
    dma_bytes,
    dma_cycles,
});

impl ClusterStats {
    /// Total retired instructions across all cores.
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired).sum()
    }

    /// Instructions per cycle across the whole cluster.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_retired() as f64 / self.cycles as f64
        }
    }

    /// Total bank-conflict cycles.
    pub fn total_conflicts(&self) -> u64 {
        self.banks.iter().map(|b| b.conflicts).sum()
    }

    /// Deepest bank queue seen anywhere in the run — how far behind the
    /// most contended bank fell.
    pub fn max_bank_queue_depth(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Total accesses by distance class (tile-local, group-local, remote).
    pub fn accesses_by_class(&self) -> [u64; 3] {
        std::array::from_fn(|i| self.cores.iter().map(|c| c.accesses[i]).sum())
    }

    /// Off-tile traffic per group network (local, north, northeast, east)
    /// — the load on each of the four butterfly networks.
    pub fn accesses_by_network(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.cores.iter().map(|c| c.network_accesses[i]).sum())
    }

    /// Builds the normalized cycle-attribution report: per core, per tile,
    /// and cluster-wide buckets that each sum exactly to [`Self::cycles`],
    /// plus the bank-conflict heatmap. `cores_per_tile` and
    /// `banks_per_tile` come from the cluster configuration.
    ///
    /// # Panics
    ///
    /// Panics if the simulator's cycle accounting is violated (a core with
    /// more accounted cycles than the cluster simulated) or the per-tile
    /// shape does not divide the core/bank counts.
    pub fn attribution(&self, cores_per_tile: u32, banks_per_tile: u32) -> AttributionReport {
        let cores: Vec<CycleBuckets> = self
            .cores
            .iter()
            .map(|c| CycleBuckets {
                issue: c.retired,
                scoreboard: c.stall_scoreboard,
                structural: c.stall_structural,
                icache: c.fetch_stall_cycles(),
                branch: c.stall_branch,
                fault_retry: c.stall_fault_retry,
                ecc: c.stall_ecc,
                halted: c.halted_cycles,
                offchip: 0,
            })
            .collect();
        let banks: Vec<BankConflictInput> = self
            .banks
            .iter()
            .map(|b| BankConflictInput {
                served: b.served,
                conflicts: b.conflicts,
            })
            .collect();
        AttributionReport::new(self.cycles, &cores, cores_per_tile, &banks, banks_per_tile)
    }

    /// A 64-bit FNV-1a digest over every counter in the report: the words
    /// its `Words` field lists pack (`cycles`, the cores, the banks, the
    /// DMA totals — the words a checkpoint would carry), so a counter
    /// added to a list is in the digest. Two runs with equal digests saw
    /// the same cycles, the same per-core retirement and stall
    /// breakdowns, the same per-bank service counts, and the same DMA
    /// totals — the cross-engine equivalence suite uses it to compare
    /// sequential and parallel runs with one number.
    pub fn digest(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        self.pack(&mut |word| hash = fnv1a(hash, &word.to_le_bytes()));
        hash
    }
}

impl fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [local, group, remote] = self.accesses_by_class();
        writeln!(f, "cycles            {:>12}", self.cycles)?;
        writeln!(f, "retired           {:>12}", self.total_retired())?;
        writeln!(f, "ipc               {:>12.3}", self.ipc())?;
        writeln!(f, "bank conflicts    {:>12}", self.total_conflicts())?;
        writeln!(f, "tile-local loads  {:>12}", local)?;
        writeln!(f, "group-local loads {:>12}", group)?;
        writeln!(f, "remote loads      {:>12}", remote)?;
        writeln!(f, "dma bytes         {:>12}", self.dma_bytes)?;
        write!(f, "dma cycles        {:>12}", self.dma_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let stats = ClusterStats::default();
        assert_eq!(stats.ipc(), 0.0);
    }

    #[test]
    fn aggregation_sums_cores_and_banks() {
        let mut stats = ClusterStats {
            cycles: 100,
            ..Default::default()
        };
        stats.cores.push(CoreStats {
            retired: 50,
            accesses: [10, 5, 1],
            ..Default::default()
        });
        stats.cores.push(CoreStats {
            retired: 30,
            accesses: [2, 0, 0],
            ..Default::default()
        });
        stats.banks.push(BankStats {
            served: 17,
            conflicts: 3,
            max_queue_depth: 5,
        });
        assert_eq!(stats.total_retired(), 80);
        assert_eq!(stats.ipc(), 0.8);
        assert_eq!(stats.total_conflicts(), 3);
        assert_eq!(stats.max_bank_queue_depth(), 5);
        assert_eq!(stats.accesses_by_class(), [12, 5, 1]);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let mut stats = ClusterStats {
            cycles: 100,
            ..Default::default()
        };
        stats.cores.push(CoreStats {
            retired: 50,
            ..Default::default()
        });
        let a = stats.digest();
        assert_eq!(a, stats.clone().digest(), "digest must be deterministic");
        stats.cores[0].stall_branch += 1;
        assert_ne!(a, stats.digest(), "digest must see every counter");
    }

    #[test]
    fn display_is_nonempty_and_labelled() {
        let text = ClusterStats::default().to_string();
        assert!(text.contains("cycles"));
        assert!(text.contains("ipc"));
    }

    #[test]
    fn total_stalls_sums_causes() {
        let core = CoreStats {
            stall_scoreboard: 1,
            stall_structural: 2,
            stall_icache: 3,
            stall_branch: 4,
            stall_fault_retry: 5,
            stall_ecc: 6,
            ..Default::default()
        };
        assert_eq!(core.total_stalls(), 21);
    }
}
