//! Simulation timing parameters.

/// Version tag of the simulation engine, mixed into every content-addressed
/// cache key (`mempool-serve`): bump it whenever a change alters simulated
/// timing or artifact contents, so stale cached results are invalidated
/// instead of replayed. Checkpoint headers carry it too, so a snapshot of
/// another version is refused.
pub const ENGINE_VERSION: &str = "mempool-sim/v3";

/// The 64-bit FNV-1a offset basis: the `hash` a fresh digest starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into `hash` with 64-bit FNV-1a — the one hash behind
/// `SimParams::digest`, [`crate::ClusterStats::digest`] and the experiment
/// service's cache key, so a digest started in one of them can be
/// continued in another.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Zero-load round trip (request to load-data-valid) of a tile-local
/// access, in cycles: MemPool's 1/3/5-cycle interconnect.
pub(crate) const TILE_LOCAL_LATENCY: u32 = 1;
/// Zero-load round trip of an access to another tile of the same group.
pub(crate) const GROUP_LOCAL_LATENCY: u32 = 3;
/// Zero-load round trip of an access to another group.
pub(crate) const REMOTE_LATENCY: u32 = 5;
/// Maximum outstanding memory transactions per core (Snitch scoreboard
/// depth).
pub(crate) const MAX_OUTSTANDING: u32 = 8;
/// Extra cycles lost on a taken branch or jump (fetch redirect bubble of
/// the short in-order pipeline).
pub(crate) const TAKEN_BRANCH_PENALTY: u32 = 1;
/// Cycles to refill one I$ line on a miss.
pub(crate) const ICACHE_MISS_PENALTY: u32 = 25;
/// Extra response cycles when the SEC-DED logic corrects (and scrubs) a
/// single-bit error on a bank read — only observable in fault-injection
/// runs.
pub(crate) const ECC_CORRECTION_PENALTY: u32 = 3;

/// The settable parameters of the cluster simulator. The paper sweeps the
/// off-chip bandwidth; the micro-architectural timing it fixes (the
/// interconnect latencies, the scoreboard depth and the pipeline
/// penalties) is constant, stated once above.
///
/// The defaults model the paper's setup: a direct-mapped I$ of 8-word
/// lines and an off-chip port delivering 16 bytes per cycle (one DDR
/// channel clocked at the core frequency) with idealized latency.
///
/// # Example
///
/// ```
/// use mempool_sim::SimParams;
///
/// let fast_dram = SimParams {
///     offchip_bytes_per_cycle: 64,
///     ..SimParams::default()
/// };
/// assert_eq!(fast_dram.offchip_latency, 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// I$ line size in instruction words.
    pub icache_line_words: u32,
    /// I$ associativity (MemPool's lightweight shared I$ is direct-mapped).
    pub icache_ways: u32,
    /// Off-chip memory bandwidth in bytes per cycle (the paper sweeps 4 to
    /// 64; 16 models a single DDR channel).
    pub offchip_bytes_per_cycle: u32,
    /// Idealized off-chip access latency in cycles, added once per DMA
    /// transfer (the paper idealizes this to a constant).
    pub offchip_latency: u32,
    /// Ignored: every simulation runs on the calling thread. Kept only
    /// because the benchmark crate still spells it; read nowhere and
    /// outside [`SimParams::digest_with_version`].
    pub threads: usize,
}

impl SimParams {
    /// Returns parameters with a different off-chip bandwidth, keeping
    /// everything else.
    pub fn with_offchip_bandwidth(self, bytes_per_cycle: u32) -> Self {
        SimParams {
            offchip_bytes_per_cycle: bytes_per_cycle,
            ..self
        }
    }

    /// A 64-bit FNV-1a digest over every *timing-relevant* field in a
    /// fixed canonical order, seeded with [`ENGINE_VERSION`]. Two
    /// parameter sets that simulate identically hash identically — in
    /// particular the ignored [`SimParams::threads`] is excluded. The
    /// experiment service uses this digest as part of its
    /// content-addressed cache key, so semantically equal configs (however
    /// they were spelled or defaulted) dedupe, and an engine-version bump
    /// invalidates every stale entry.
    pub(crate) fn digest(&self) -> u64 {
        self.digest_with_version(ENGINE_VERSION)
    }

    /// `SimParams::digest` under an explicit engine-version tag —
    /// exposed so tests can prove that bumping the version changes every
    /// key.
    pub fn digest_with_version(&self, version: &str) -> u64 {
        let mut hash = fnv1a(FNV_OFFSET, version.as_bytes());
        for (_, value) in { *self }.timing_fields_mut() {
            hash = fnv1a(hash, &value.to_le_bytes());
        }
        hash
    }

    /// Every timing-relevant field, named as the checkpoint header names
    /// it, in the canonical order of [`SimParams::digest_with_version`]
    /// and the header: the I$ geometry, then the off-chip port. Appending
    /// a field is a semantic change and belongs at the end (with an
    /// ENGINE_VERSION bump if it alters existing behavior).
    pub(crate) fn timing_fields_mut(&mut self) -> [(&'static str, &mut u32); 4] {
        [
            ("icache_line_words", &mut self.icache_line_words),
            ("icache_ways", &mut self.icache_ways),
            ("offchip_bytes_per_cycle", &mut self.offchip_bytes_per_cycle),
            ("offchip_latency", &mut self.offchip_latency),
        ]
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams {
            icache_line_words: 8,
            icache_ways: 1,
            offchip_bytes_per_cycle: 16,
            offchip_latency: 30,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let p = SimParams::default();
        assert_eq!((p.icache_line_words, p.icache_ways), (8, 1));
        assert_eq!(p.offchip_bytes_per_cycle, 16);
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn digest_is_stable_across_runs_and_ignores_threads() {
        let a = SimParams::default();
        // A config spelled through a different construction path but
        // semantically equal must land on the same key.
        let b = SimParams {
            offchip_latency: 30,
            ..SimParams::default()
        };
        assert_eq!(a.digest(), b.digest());
        // The ignored thread count must not fragment the cache.
        let threaded = SimParams {
            threads: 8,
            ..SimParams::default()
        };
        assert_eq!(a.digest(), threaded.digest());
    }

    #[test]
    fn digest_sees_every_timing_field() {
        let base = SimParams::default();
        let variants = [
            SimParams {
                icache_line_words: 16,
                ..base
            },
            SimParams {
                icache_ways: 2,
                ..base
            },
            SimParams {
                offchip_bytes_per_cycle: 32,
                ..base
            },
            SimParams {
                offchip_latency: 31,
                ..base
            },
            base.with_offchip_bandwidth(4),
        ];
        for variant in variants {
            assert_ne!(base.digest(), variant.digest(), "{variant:?}");
        }
    }

    #[test]
    fn engine_version_bump_invalidates_every_key() {
        let p = SimParams::default();
        assert_eq!(p.digest(), p.digest_with_version(ENGINE_VERSION));
        assert_ne!(
            p.digest(),
            p.digest_with_version("mempool-sim/v2-hypothetical")
        );
    }

    #[test]
    fn bandwidth_override_keeps_other_fields() {
        let p = SimParams::default().with_offchip_bandwidth(4);
        assert_eq!(p.offchip_bytes_per_cycle, 4);
        assert_eq!(p.offchip_latency, SimParams::default().offchip_latency);
    }
}
