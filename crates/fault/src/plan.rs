//! Deterministic fault plans.
//!
//! A [`FaultPlan`] is the full, reproducible schedule of faults injected
//! into one simulation: which tile↔memory-die F2F links are open or
//! degraded, which SRAM banks are stuck, when transient bit flips land,
//! and when cores hang. Plans are either built by hand (tests, targeted
//! experiments) or generated from a seed and a fault rate with
//! [`FaultPlan::generate`] — the same `(seed, rate, geometry)` triple
//! always yields the identical plan.

use mempool_arch::{BankId, BankLocation, ClusterConfig, GlobalCoreId, TileId};

use crate::rng::XorShift64;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// The tile's F2F via bundle to its memory die is marginal: every
    /// access to the tile's banks succeeds only after a retry costing
    /// `extra_latency` extra cycles at the issuing core.
    LinkDegraded {
        /// Tile whose vertical link is degraded.
        tile: TileId,
        /// Extra cycles per access through the retry path.
        extra_latency: u32,
    },
    /// The tile's F2F via bundle is fully open: accesses to the tile's
    /// banks fail (typed error) or vanish (black hole), depending on the
    /// plan's [`DeadLinkPolicy`].
    LinkDead {
        /// Tile whose vertical link is open.
        tile: TileId,
    },
    /// An SRAM bank is stuck (hard fault) from cycle 0 and must be
    /// remapped to a spare bank before the run starts.
    StuckBank {
        /// Tile holding the faulty bank.
        tile: TileId,
        /// The faulty bank within the tile.
        bank: BankId,
    },
    /// A transient bit flip lands in a stored word at a given cycle. The
    /// SEC-DED model corrects single-bit masks on the next read (with a
    /// scrub) and raises an uncorrectable error for multi-bit masks.
    TransientFlip {
        /// Cycle at which the flip is applied.
        cycle: u64,
        /// Word the flip lands in.
        loc: BankLocation,
        /// XOR mask applied to the stored word.
        mask: u32,
    },
    /// A core stops fetching forever at the given cycle (e.g. a latched-up
    /// core on the logic die). Detected by the forward-progress watchdog
    /// when the rest of the cluster blocks on it.
    CoreHang {
        /// Cycle at which the core hangs.
        cycle: u64,
        /// The hanging core.
        core: GlobalCoreId,
    },
}

/// What happens to an access that targets a tile behind a dead F2F link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DeadLinkPolicy {
    /// The access raises a typed simulator error (fail fast). Default.
    #[default]
    Error,
    /// The request is silently dropped — it never arrives and never
    /// responds, modeling an open via. The issuing core's transaction
    /// stays outstanding forever; only the watchdog can diagnose the
    /// resulting deadlock.
    BlackHole,
}

/// Parameters for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic schedule.
    pub seed: u64,
    /// Per-element fault probability scale (per F2F bump for links, per
    /// bit for SRAM faults). `0` disables generation entirely.
    pub rate: f64,
    /// Cycle horizon within which timed faults (flips, hangs) land.
    pub horizon: u64,
    /// Upper bound on generated transient flips.
    pub max_transients: u32,
    /// Number of core-hang events to schedule (default 0: hangs are
    /// opt-in, since they unavoidably deadlock barrier workloads).
    pub core_hangs: u32,
}

impl FaultConfig {
    /// A configuration with the default horizon (1M cycles), transient
    /// cap (64), and no core hangs.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            rate,
            horizon: 1_000_000,
            max_transients: 64,
            core_hangs: 0,
        }
    }

    /// Replaces the timed-fault horizon.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }
}

/// Estimated F2F bumps per tile (Table II reports hundreds of thousands
/// per 16-tile group; one tile's share of vias is on this order).
const BUMPS_PER_TILE: f64 = 20_000.0;

/// A deterministic, reproducible schedule of injected faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    dead_link_policy: DeadLinkPolicy,
}

impl FaultPlan {
    /// An empty plan carrying only a seed (for manual construction).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
            dead_link_policy: DeadLinkPolicy::default(),
        }
    }

    /// Generates a plan from a seed, a rate, and the cluster geometry.
    ///
    /// The generator models the defect exposure of the 3D stack:
    ///
    /// * **F2F-via opens** — each tile's vertical bundle degrades to the
    ///   retry path with probability `rate x BUMPS_PER_TILE` (capped);
    ///   fully dead links are never generated (script them explicitly);
    /// * **stuck banks** — each bank is stuck with probability
    ///   `rate x bits-per-bank` (capped), at most one per tile (one spare
    ///   bank per tile backs the remap policy);
    /// * **transient flips** — `rate x total-bits` single-bit upsets at
    ///   uniform cycles within the horizon (multi-bit upsets are far
    ///   rarer and only scriptable explicitly);
    /// * **core hangs** — only when requested via
    ///   [`FaultConfig::core_hangs`].
    ///
    /// When `rate > 0` the plan is floored at one degraded link and one
    /// stuck bank, so even tiny rates produce a measurable degraded run.
    pub fn generate(cfg: &FaultConfig, cluster: &ClusterConfig) -> Self {
        let mut plan = FaultPlan::new(cfg.seed);
        // NaN, zero, negative, and infinite rates all mean "no plan".
        if !(cfg.rate.is_finite() && cfg.rate > 0.0) {
            return plan;
        }
        let mut rng = XorShift64::new(cfg.seed);
        let tiles = cluster.num_tiles() as u64;
        let banks_per_tile = cluster.banks_per_tile() as u64;
        let bits_per_bank = cluster.bank_words() as f64 * 32.0;

        let p_link = (cfg.rate * BUMPS_PER_TILE).min(0.25);
        let mut degraded = 0u32;
        for t in 0..tiles {
            if rng.chance(p_link) {
                plan.push(FaultEvent::LinkDegraded {
                    tile: TileId(t as u32),
                    extra_latency: 4 + rng.below(28) as u32,
                });
                degraded += 1;
            }
        }
        if degraded == 0 {
            plan.push(FaultEvent::LinkDegraded {
                tile: TileId(rng.below(tiles) as u32),
                extra_latency: 4 + rng.below(28) as u32,
            });
        }

        let p_stuck = (cfg.rate * bits_per_bank).min(0.2);
        let mut stuck = 0u32;
        for t in 0..tiles {
            for b in 0..banks_per_tile {
                if rng.chance(p_stuck) {
                    plan.push(FaultEvent::StuckBank {
                        tile: TileId(t as u32),
                        bank: BankId(b as u32),
                    });
                    stuck += 1;
                    break; // one spare bank per tile
                }
            }
        }
        if stuck == 0 {
            plan.push(FaultEvent::StuckBank {
                tile: TileId(rng.below(tiles) as u32),
                bank: BankId(rng.below(banks_per_tile) as u32),
            });
        }

        let total_bits = tiles as f64 * banks_per_tile as f64 * bits_per_bank;
        let flips = ((cfg.rate * total_bits).round() as u64).clamp(1, cfg.max_transients as u64);
        for _ in 0..flips {
            plan.push(FaultEvent::TransientFlip {
                cycle: rng.below(cfg.horizon.max(1)),
                loc: BankLocation {
                    tile: TileId(rng.below(tiles) as u32),
                    bank: BankId(rng.below(banks_per_tile) as u32),
                    word: rng.below(cluster.bank_words() as u64) as u32,
                },
                mask: 1 << rng.below(32),
            });
        }

        for _ in 0..cfg.core_hangs {
            plan.push(FaultEvent::CoreHang {
                cycle: rng.below(cfg.horizon.max(1)),
                core: GlobalCoreId::new(rng.below(cluster.num_cores() as u64) as u32),
            });
        }
        plan
    }

    /// Appends an event (manual plan construction).
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// Replaces the dead-link policy.
    pub fn with_dead_link_policy(mut self, policy: DeadLinkPolicy) -> Self {
        self.dead_link_policy = policy;
        self
    }

    /// The seed the plan was built from.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// All scheduled events, in insertion order.
    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// What happens to accesses through a dead link.
    pub(crate) fn dead_link_policy(&self) -> DeadLinkPolicy {
        self.dead_link_policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> ClusterConfig {
        ClusterConfig::builder()
            .groups(1)
            .tiles_per_group(4)
            .cores_per_tile(4)
            .banks_per_tile(16)
            .bank_words(512)
            .build()
            .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultConfig::new(42, 1e-6);
        let cluster = small_cluster();
        let a = FaultPlan::generate(&cfg, &cluster);
        let b = FaultPlan::generate(&cfg, &cluster);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let cluster = small_cluster();
        let a = FaultPlan::generate(&FaultConfig::new(1, 1e-5), &cluster);
        let b = FaultPlan::generate(&FaultConfig::new(2, 1e-5), &cluster);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let plan = FaultPlan::generate(&FaultConfig::new(42, 0.0), &small_cluster());
        assert!(plan.is_empty());
        let nan = FaultPlan::generate(&FaultConfig::new(42, f64::NAN), &small_cluster());
        assert!(nan.is_empty());
    }

    #[test]
    fn tiny_rate_is_floored_to_visible_faults() {
        let plan = FaultPlan::generate(&FaultConfig::new(42, 1e-12), &small_cluster());
        let degraded = plan
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::LinkDegraded { .. }))
            .count();
        let stuck = plan
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::StuckBank { .. }))
            .count();
        assert_eq!(degraded, 1, "rate floor guarantees one degraded link");
        assert_eq!(stuck, 1, "rate floor guarantees one stuck bank");
    }

    #[test]
    fn at_most_one_stuck_bank_per_tile() {
        let cluster = small_cluster();
        let plan = FaultPlan::generate(&FaultConfig::new(7, 1e-3), &cluster);
        for t in 0..cluster.num_tiles() {
            let per_tile = plan
                .events()
                .iter()
                .filter(|e| matches!(e, FaultEvent::StuckBank { tile, .. } if tile.0 == t))
                .count();
            assert!(per_tile <= 1, "tile {t} has {per_tile} stuck banks");
        }
    }

    #[test]
    fn generator_emits_no_dead_links_or_hangs_by_default() {
        let plan = FaultPlan::generate(&FaultConfig::new(3, 1e-4), &small_cluster());
        assert!(!plan
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::LinkDead { .. } | FaultEvent::CoreHang { .. })));
        let with_hangs = FaultPlan::generate(
            &FaultConfig {
                core_hangs: 2,
                ..FaultConfig::new(3, 1e-4)
            },
            &small_cluster(),
        );
        let hangs = with_hangs
            .events()
            .iter()
            .filter(|e| matches!(e, FaultEvent::CoreHang { .. }))
            .count();
        assert_eq!(hangs, 2);
    }

    #[test]
    fn generated_events_lie_within_geometry_and_horizon() {
        let cluster = small_cluster();
        let cfg = FaultConfig::new(11, 1e-5).with_horizon(5000);
        for event in FaultPlan::generate(&cfg, &cluster).events() {
            match *event {
                FaultEvent::LinkDegraded { tile, .. } | FaultEvent::LinkDead { tile } => {
                    assert!(tile.0 < cluster.num_tiles());
                }
                FaultEvent::StuckBank { tile, bank } => {
                    assert!(tile.0 < cluster.num_tiles());
                    assert!(bank.0 < cluster.banks_per_tile());
                }
                FaultEvent::TransientFlip { cycle, loc, mask } => {
                    assert!(cycle < 5000);
                    assert!(loc.tile.0 < cluster.num_tiles());
                    assert!(loc.bank.0 < cluster.banks_per_tile());
                    assert!(loc.word < cluster.bank_words());
                    assert_eq!(mask.count_ones(), 1, "generated flips are single-bit");
                }
                FaultEvent::CoreHang { cycle, core } => {
                    assert!(cycle < 5000);
                    assert!(core.0 < cluster.num_cores());
                }
            }
        }
    }
}
