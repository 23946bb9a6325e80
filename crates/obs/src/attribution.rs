//! Cycle-accounting attribution: where did every simulated cycle go?
//!
//! The paper's analysis (and the MemPool journal paper's, Riedel et al.
//! 2023) explains performance through per-core stall breakdowns. This
//! module turns raw per-core counters into a normalized accounting where
//! the buckets of every core **sum exactly to the total simulated cycles**:
//!
//! * `issue` — cycles the core issued an instruction;
//! * `scoreboard` — stalled on a use of a pending load;
//! * `structural` — stalled on the outstanding-transaction limit or remote
//!   request ports;
//! * `icache` — instruction-fetch stalls (miss slot + refill bubbles);
//! * `branch` — taken-branch bubbles;
//! * `fault_retry` — extra cycles spent retrying accesses through
//!   degraded F2F links (fault-injection runs only);
//! * `ecc` — SEC-DED single-bit correction penalties (fault-injection
//!   runs only);
//! * `halted` — parked at `wfi` (barrier wait or end of kernel);
//! * `offchip` — cycles the whole cluster spent in synchronous DMA
//!   transfers / waits, during which cores do not step (and, in a run
//!   that ended in an error, the erroring cycle of a core the error kept
//!   from stepping).
//!
//! The report aggregates per core, per tile, and cluster-wide, and carries
//! a bank-conflict heatmap (tiles × banks). The simulator-facing glue that
//! builds a report from `ClusterStats` lives in `mempool-sim` (which
//! depends on this crate), keeping this module plain data.

use std::fmt;

use crate::json::Json;

/// Cycle buckets of one core (or an aggregate of cores).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBuckets {
    /// Cycles an instruction issued.
    pub issue: u64,
    /// Scoreboard (load-use) stall cycles.
    pub scoreboard: u64,
    /// Structural stall cycles (outstanding limit, remote ports).
    pub structural: u64,
    /// Instruction-fetch stall cycles.
    pub icache: u64,
    /// Taken-branch bubble cycles.
    pub branch: u64,
    /// Retry cycles through degraded F2F links (fault injection).
    pub fault_retry: u64,
    /// SEC-DED single-bit correction penalty cycles (fault injection).
    pub ecc: u64,
    /// Cycles parked at `wfi`.
    pub halted: u64,
    /// Cycles the cluster clock advanced without stepping the core:
    /// synchronous off-chip transfers, and an erroring cycle the core was
    /// not stepped in.
    pub offchip: u64,
}

impl CycleBuckets {
    /// Sum of all buckets.
    pub fn total(&self) -> u64 {
        self.issue
            + self.scoreboard
            + self.structural
            + self.icache
            + self.branch
            + self.fault_retry
            + self.ecc
            + self.halted
            + self.offchip
    }

    /// `(label, value)` pairs in presentation order.
    pub(crate) fn entries(&self) -> [(&'static str, u64); 9] {
        [
            ("issue", self.issue),
            ("scoreboard", self.scoreboard),
            ("structural", self.structural),
            ("icache", self.icache),
            ("branch", self.branch),
            ("fault_retry", self.fault_retry),
            ("ecc", self.ecc),
            ("halted", self.halted),
            ("offchip", self.offchip),
        ]
    }

    fn add(&mut self, other: &CycleBuckets) {
        self.issue += other.issue;
        self.scoreboard += other.scoreboard;
        self.structural += other.structural;
        self.icache += other.icache;
        self.branch += other.branch;
        self.fault_retry += other.fault_retry;
        self.ecc += other.ecc;
        self.halted += other.halted;
        self.offchip += other.offchip;
    }

    fn to_json(self) -> Json {
        Json::Obj(
            self.entries()
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Int(*v as i64)))
                .collect(),
        )
    }
}

/// Conflict statistics of one bank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankConflictInput {
    /// Requests served.
    pub served: u64,
    /// Conflict cycles.
    pub conflicts: u64,
}

/// Per-tile aggregate of the report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileBreakdown {
    /// Tile index.
    pub tile: u32,
    /// Summed buckets of the tile's cores.
    pub buckets: CycleBuckets,
    /// Requests served by the tile's banks.
    pub served: u64,
    /// Conflict cycles across the tile's banks.
    pub conflicts: u64,
}

/// Bank-conflict heatmap: one row per tile, one cell per bank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConflictHeatmap {
    /// Banks per tile (row width).
    pub banks_per_tile: u32,
    /// Conflict cycles, `rows[tile][bank]`.
    pub rows: Vec<Vec<u64>>,
}

impl ConflictHeatmap {
    /// Largest cell value.
    pub(crate) fn max(&self) -> u64 {
        self.rows
            .iter()
            .flat_map(|r| r.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// ASCII rendering: one row per tile, intensity ramp ` .:-=+*#%@`.
    pub(crate) fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max = self.max();
        let mut out = String::from("bank-conflict heatmap (rows: tiles, cols: banks)\n");
        for (tile, row) in self.rows.iter().enumerate() {
            out.push_str(&format!("tile {tile:>3} |"));
            for &cell in row {
                let idx = if max == 0 {
                    0
                } else {
                    ((cell as f64 / max as f64) * (RAMP.len() - 1) as f64).round() as usize
                };
                out.push(RAMP[idx] as char);
            }
            out.push_str("|\n");
        }
        out.push_str(&format!("scale: ' '=0 .. '@'={max} conflict cycles\n"));
        out
    }
}

/// The full attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Total simulated cycles every core is accounted against.
    pub cycles: u64,
    /// Per-core breakdowns; index is the global core id.
    pub cores: Vec<CycleBuckets>,
    /// Per-tile aggregates.
    pub tiles: Vec<TileBreakdown>,
    /// Cluster-wide sum.
    pub cluster: CycleBuckets,
    /// Bank-conflict heatmap.
    pub heatmap: ConflictHeatmap,
}

impl AttributionReport {
    /// Builds the report. Each core's `offchip` bucket is derived as
    /// `cycles - (all other buckets)`: the cycles the cluster clock
    /// advanced without stepping the cores: synchronous DMA time, and the
    /// erroring cycle of the cores an error kept from stepping. A supplied
    /// `offchip` value is ignored.
    ///
    /// # Panics
    ///
    /// Panics if a core's supplied buckets exceed `cycles` (the accounting
    /// invariant of the simulator), or if the bank/core counts are not
    /// multiples of the per-tile figures.
    pub fn new(
        cycles: u64,
        cores: &[CycleBuckets],
        cores_per_tile: u32,
        banks: &[BankConflictInput],
        banks_per_tile: u32,
    ) -> Self {
        assert!(cores_per_tile > 0 && banks_per_tile > 0);
        assert_eq!(cores.len() % cores_per_tile as usize, 0);
        assert_eq!(banks.len() % banks_per_tile as usize, 0);
        let per_core: Vec<CycleBuckets> = cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let stepped = CycleBuckets { offchip: 0, ..*c }.total();
                assert!(
                    stepped <= cycles,
                    "core {i}: accounted {stepped} cycles out of {cycles}"
                );
                CycleBuckets {
                    offchip: cycles - stepped,
                    ..*c
                }
            })
            .collect();

        let num_tiles =
            (cores.len() / cores_per_tile as usize).max(banks.len() / banks_per_tile as usize);
        let mut tiles: Vec<TileBreakdown> = (0..num_tiles)
            .map(|t| TileBreakdown {
                tile: t as u32,
                ..Default::default()
            })
            .collect();
        for (i, buckets) in per_core.iter().enumerate() {
            let tile = i / cores_per_tile as usize;
            if tile < tiles.len() {
                tiles[tile].buckets.add(buckets);
            }
        }
        let mut heatmap = ConflictHeatmap {
            banks_per_tile,
            rows: vec![vec![0; banks_per_tile as usize]; banks.len() / banks_per_tile as usize],
        };
        for (i, bank) in banks.iter().enumerate() {
            let (tile, slot) = (i / banks_per_tile as usize, i % banks_per_tile as usize);
            heatmap.rows[tile][slot] = bank.conflicts;
            if tile < tiles.len() {
                tiles[tile].served += bank.served;
                tiles[tile].conflicts += bank.conflicts;
            }
        }
        let mut cluster = CycleBuckets::default();
        for buckets in &per_core {
            cluster.add(buckets);
        }
        AttributionReport {
            cycles,
            cores: per_core,
            tiles,
            cluster,
            heatmap,
        }
    }

    /// Cluster-wide bucket shares, normalized to 1.0 (all zeros when no
    /// cycles elapsed).
    pub(crate) fn cluster_fractions(&self) -> Vec<(&'static str, f64)> {
        let total = self.cluster.total();
        self.cluster
            .entries()
            .iter()
            .map(|(k, v)| {
                (
                    *k,
                    if total == 0 {
                        0.0
                    } else {
                        *v as f64 / total as f64
                    },
                )
            })
            .collect()
    }

    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::Int(self.cycles as i64)),
            ("cluster", self.cluster.to_json()),
            (
                "cluster_fractions",
                Json::Obj(
                    self.cluster_fractions()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::Float(v)))
                        .collect(),
                ),
            ),
            (
                "cores",
                Json::Arr(self.cores.iter().map(|c| c.to_json()).collect()),
            ),
            (
                "tiles",
                Json::Arr(
                    self.tiles
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("tile", Json::Int(t.tile as i64)),
                                ("buckets", t.buckets.to_json()),
                                ("served", Json::Int(t.served as i64)),
                                ("conflicts", Json::Int(t.conflicts as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "heatmap",
                Json::obj([
                    (
                        "banks_per_tile",
                        Json::Int(self.heatmap.banks_per_tile as i64),
                    ),
                    (
                        "rows",
                        Json::Arr(
                            self.heatmap
                                .rows
                                .iter()
                                .map(|r| {
                                    Json::Arr(r.iter().map(|c| Json::Int(*c as i64)).collect())
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

impl fmt::Display for AttributionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycle attribution over {} cycles x {} cores",
            self.cycles,
            self.cores.len()
        )?;
        let total = self.cluster.total().max(1);
        for (label, value) in self.cluster.entries() {
            writeln!(
                f,
                "  {label:<10} {value:>14}  {:>6.2} %",
                100.0 * value as f64 / total as f64
            )?;
        }
        writeln!(
            f,
            "per-tile conflicts: {}",
            self.tiles
                .iter()
                .map(|t| t.conflicts.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        )?;
        f.write_str(&self.heatmap.to_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AttributionReport {
        let cores = [
            CycleBuckets {
                issue: 50,
                scoreboard: 10,
                structural: 5,
                icache: 15,
                branch: 5,
                fault_retry: 3,
                ecc: 2,
                halted: 5,
                offchip: 0,
            },
            // A supplied `offchip` is ignored: the builder derives it.
            CycleBuckets {
                issue: 20,
                halted: 75,
                offchip: 40,
                ..Default::default()
            },
        ];
        let banks = [
            BankConflictInput {
                served: 40,
                conflicts: 8,
            },
            BankConflictInput {
                served: 2,
                conflicts: 0,
            },
            BankConflictInput {
                served: 10,
                conflicts: 3,
            },
            BankConflictInput {
                served: 0,
                conflicts: 0,
            },
        ];
        AttributionReport::new(100, &cores, 2, &banks, 2)
    }

    #[test]
    fn buckets_sum_to_total_cycles_per_core() {
        let report = sample();
        for (i, core) in report.cores.iter().enumerate() {
            assert_eq!(core.total(), report.cycles, "core {i}");
        }
        assert_eq!(
            report.cluster.total(),
            report.cycles * report.cores.len() as u64
        );
    }

    #[test]
    fn offchip_is_the_residual() {
        let report = sample();
        assert_eq!(report.cores[0].offchip, 5);
        assert_eq!(report.cores[1].offchip, 5);
    }

    #[test]
    #[should_panic(expected = "accounted")]
    fn overaccounted_core_panics() {
        let cores = [CycleBuckets {
            issue: 200,
            ..Default::default()
        }];
        AttributionReport::new(100, &cores, 1, &[], 1);
    }

    #[test]
    fn tiles_aggregate_cores_and_banks() {
        let report = sample();
        assert_eq!(report.tiles.len(), 2);
        assert_eq!(report.tiles[0].buckets.issue, 70, "both cores in tile 0");
        assert_eq!(report.tiles[0].conflicts, 8);
        assert_eq!(report.tiles[1].conflicts, 3);
        assert_eq!(report.tiles[1].served, 10);
    }

    #[test]
    fn fractions_normalize_to_one() {
        let report = sample();
        let sum: f64 = report.cluster_fractions().iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heatmap_renders_every_tile_row() {
        let report = sample();
        let ascii = report.heatmap.to_ascii();
        assert!(ascii.contains("tile   0"));
        assert!(ascii.contains("tile   1"));
        assert!(ascii.contains("'@'=8"));
    }

    #[test]
    fn json_shape_is_complete() {
        let json = sample().to_json();
        assert_eq!(json.get("cycles").unwrap().as_int(), Some(100));
        assert_eq!(json.get("cores").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            json.get("heatmap")
                .unwrap()
                .get("rows")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        // The document must survive a print/parse cycle.
        use crate::json::Json;
        assert_eq!(Json::parse(&json.to_pretty()).unwrap(), json);
    }

    #[test]
    fn display_lists_all_buckets() {
        let text = sample().to_string();
        for label in [
            "issue",
            "scoreboard",
            "structural",
            "icache",
            "branch",
            "fault_retry",
            "ecc",
            "halted",
            "offchip",
        ] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
