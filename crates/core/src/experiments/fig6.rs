//! Figure 6: matmul cycle-count speedup versus off-chip bandwidth.
//!
//! Speedup of each SPM capacity at each bandwidth, relative to the 1 MiB
//! configuration at 4 B/cycle (the paper's reference point), with the
//! speedup-over-half-capacity annotations the paper prints next to each
//! data point.

use mempool_arch::SpmCapacity;
use mempool_kernels::matmul::PhaseModel;
use mempool_obs::Json;

use crate::paper;
use crate::table::TextTable;

/// Bandwidths the paper sweeps, in bytes per cycle.
pub(crate) const BANDWIDTHS: [u32; 5] = [4, 8, 16, 32, 64];

/// One data point of Figure 6.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// SPM capacity.
    pub capacity: SpmCapacity,
    /// Off-chip bandwidth in bytes/cycle.
    pub bytes_per_cycle: u32,
    /// Speedup relative to 1 MiB at 4 B/cycle.
    pub speedup_vs_reference: f64,
    /// Speedup relative to the configuration with half the SPM at the
    /// same bandwidth (the paper's point annotations); `None` for 1 MiB.
    pub speedup_vs_half: Option<f64>,
}

impl Fig6Point {
    /// The point of `capacity` at `bytes_per_cycle` under `model`.
    pub fn new(model: &PhaseModel, capacity: SpmCapacity, bytes_per_cycle: u32) -> Self {
        Fig6Point {
            capacity,
            bytes_per_cycle,
            speedup_vs_reference: model.speedup(capacity, bytes_per_cycle, SpmCapacity::MiB1, 4),
            speedup_vs_half: capacity
                .half()
                .map(|half| model.speedup(capacity, bytes_per_cycle, half, bytes_per_cycle)),
        }
    }
}

/// The reproduced Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6 {
    points: Vec<Fig6Point>,
    /// The paper's headline comparisons, 8 MiB over 1 MiB at the same
    /// bandwidth: `(bytes_per_cycle, measured, paper)`.
    headlines: Vec<(u32, f64, f64)>,
    model: PhaseModel,
}

impl Fig6 {
    /// Computes the figure with the given workload model.
    pub fn with_model(model: PhaseModel) -> Self {
        let points = SpmCapacity::ALL
            .into_iter()
            .flat_map(|capacity| BANDWIDTHS.map(|bw| Fig6Point::new(&model, capacity, bw)))
            .collect();
        let headlines = [4u32, 16, 64]
            .into_iter()
            .filter_map(|bw| {
                let paper = paper::fig6_speedup_8mib_over_1mib(bw)?;
                let measured = model.speedup(SpmCapacity::MiB8, bw, SpmCapacity::MiB1, bw);
                Some((bw, measured, paper))
            })
            .collect();
        Fig6 {
            points,
            headlines,
            model,
        }
    }

    /// Computes the figure with the recorded measured constants.
    pub fn generate() -> Self {
        Self::with_model(PhaseModel::with_measured_defaults())
    }

    /// Looks up one point.
    pub fn point(&self, capacity: SpmCapacity, bytes_per_cycle: u32) -> Option<&Fig6Point> {
        self.points
            .iter()
            .find(|p| p.capacity == capacity && p.bytes_per_cycle == bytes_per_cycle)
    }

    /// Renders the series as a text table, one row per capacity.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Figure 6: matmul cycle-count speedup vs off-chip bandwidth\n\
             (relative to 1 MiB at 4 B/cycle; parentheses: speedup vs half the SPM)\n",
        );
        let mut t = TextTable::new(["capacity", "4 B/c", "8 B/c", "16 B/c", "32 B/c", "64 B/c"]);
        for capacity in SpmCapacity::ALL {
            let mut cells = vec![capacity.to_string()];
            for bw in BANDWIDTHS {
                let p = self.point(capacity, bw).expect("point exists");
                let annot = p
                    .speedup_vs_half
                    .map_or(String::new(), |s| format!(" (+{:.0} %)", (s - 1.0) * 100.0));
                cells.push(format!("{:.3}{annot}", p.speedup_vs_reference));
            }
            t.row_vec(cells);
        }
        out.push_str(&t.to_string());
        for &(bw, measured, expected) in &self.headlines {
            out.push_str(&format!(
                "8 MiB vs 1 MiB at {bw:>2} B/cycle: {:.1} % (paper: {:.0} %)\n",
                (measured - 1.0) * 100.0,
                (expected - 1.0) * 100.0
            ));
        }
        out
    }

    /// Serializes the figure: the workload model, every data point, and
    /// the paper's headline comparisons — numerically identical to what
    /// [`Self::to_text`] prints.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj([
                    ("capacity", Json::str(p.capacity.to_string())),
                    ("capacity_bytes", Json::Int(p.capacity.bytes() as i64)),
                    ("bytes_per_cycle", Json::Int(p.bytes_per_cycle as i64)),
                    ("speedup_vs_reference", Json::Float(p.speedup_vs_reference)),
                    (
                        "speedup_vs_half",
                        p.speedup_vs_half.map_or(Json::Null, Json::Float),
                    ),
                ])
            })
            .collect();
        let headlines = self
            .headlines
            .iter()
            .map(|&(bw, measured, expected)| {
                Json::obj([
                    ("bytes_per_cycle", Json::Int(bw as i64)),
                    ("speedup_8mib_over_1mib", Json::Float(measured)),
                    ("paper", Json::Float(expected)),
                ])
            })
            .collect();
        Json::obj([
            ("figure", Json::str("fig6")),
            (
                "title",
                Json::str("matmul cycle-count speedup vs off-chip bandwidth"),
            ),
            ("reference", Json::str("1 MiB at 4 B/cycle")),
            ("model", self.model.to_json()),
            ("points", Json::Arr(points)),
            ("headlines", Json::Arr(headlines)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_point_is_unity() {
        let fig = Fig6::generate();
        let p = fig.point(SpmCapacity::MiB1, 4).unwrap();
        assert!((p.speedup_vs_reference - 1.0).abs() < 1e-12);
        assert!(p.speedup_vs_half.is_none());
    }

    #[test]
    fn speedup_grows_with_bandwidth_and_capacity() {
        let fig = Fig6::generate();
        for capacity in SpmCapacity::ALL {
            let mut last = 0.0;
            for bw in BANDWIDTHS {
                let s = fig.point(capacity, bw).unwrap().speedup_vs_reference;
                assert!(s > last, "{capacity} at {bw} B/c: {s}");
                last = s;
            }
        }
        for bw in BANDWIDTHS {
            let mut last = 0.0;
            for capacity in SpmCapacity::ALL {
                let s = fig.point(capacity, bw).unwrap().speedup_vs_reference;
                assert!(s >= last, "{capacity} at {bw} B/c");
                last = s;
            }
        }
    }

    #[test]
    fn headline_speedups_near_paper() {
        let fig = Fig6::generate();
        let ranges = [(4u32, 1.30, 1.55), (16, 1.10, 1.25), (64, 1.04, 1.13)];
        assert_eq!(fig.headlines.len(), ranges.len());
        for ((bw, lo, hi), &(at, s, expected)) in ranges.into_iter().zip(&fig.headlines) {
            assert_eq!(at, bw);
            assert!(
                (lo..hi).contains(&s),
                "at {bw} B/c: measured {s:.3}, paper {expected:.2}"
            );
        }
    }

    #[test]
    fn half_capacity_annotations_are_positive() {
        let fig = Fig6::generate();
        for p in &fig.points {
            if let Some(s) = p.speedup_vs_half {
                assert!(s > 1.0, "{} at {} B/c", p.capacity, p.bytes_per_cycle);
            }
        }
    }

    #[test]
    fn rendering_contains_paper_comparison() {
        let text = Fig6::generate().to_text();
        assert!(text.contains("paper: 43 %"));
        assert!(text.contains("16 B/cycle"));
    }

    #[test]
    fn json_matches_the_computed_points_exactly() {
        let fig = Fig6::generate();
        let json = fig.to_json();
        let points = json.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), fig.points.len());
        for (j, p) in points.iter().zip(&fig.points) {
            assert_eq!(
                j.get("bytes_per_cycle").and_then(Json::as_int).unwrap(),
                p.bytes_per_cycle as i64
            );
            assert_eq!(
                j.get("speedup_vs_reference")
                    .and_then(Json::as_f64)
                    .unwrap(),
                p.speedup_vs_reference
            );
            match p.speedup_vs_half {
                Some(s) => {
                    assert_eq!(j.get("speedup_vs_half").and_then(Json::as_f64).unwrap(), s)
                }
                None => assert_eq!(j.get("speedup_vs_half"), Some(&Json::Null)),
            }
        }
        // The document survives a serialize -> parse round trip.
        assert_eq!(Json::parse(&json.to_pretty()).unwrap(), json);
    }
}
