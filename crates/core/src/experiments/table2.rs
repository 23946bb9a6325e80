//! Table II: group implementation results.

use mempool_obs::Json;

use crate::design::DesignPoint;
use crate::experiments::Evaluation;
use crate::paper;
use crate::table::TextTable;

/// One metric row of Table II: measured and paper values for all eight
/// design points, in capacity-major column order.
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// Metric name as printed.
    pub name: &'static str,
    /// Measured values (normalized where the paper normalizes).
    pub measured: Vec<f64>,
    /// Paper values in the same order.
    pub paper: Vec<f64>,
}

/// The reproduced Table II.
#[derive(Debug, Clone)]
pub struct Table2 {
    points: Vec<DesignPoint>,
    rows: Vec<MetricRow>,
}

impl Table2 {
    /// Builds the table from an existing evaluation.
    pub fn from_evaluation(eval: &Evaluation) -> Self {
        let points: Vec<DesignPoint> = DesignPoint::all_capacity_major().collect();
        let base = eval.group(DesignPoint::baseline());
        let collect = |f: &dyn Fn(DesignPoint) -> f64| points.iter().map(|&p| f(p)).collect();
        let rows = vec![
            MetricRow {
                name: "Footprint",
                measured: collect(&|p| eval.group(p).footprint_um2 / base.footprint_um2),
                paper: collect(&|p| paper::group_footprint(p.flow, p.capacity)),
            },
            MetricRow {
                name: "Combined die area",
                measured: collect(&|p| {
                    eval.group(p).combined_die_area_um2 / base.combined_die_area_um2
                }),
                paper: collect(&|p| paper::group_combined_area(p.flow, p.capacity)),
            },
            MetricRow {
                name: "Wire length",
                measured: collect(&|p| eval.group(p).wire_length_mm / base.wire_length_mm),
                paper: collect(&|p| paper::group_wire_length(p.flow, p.capacity)),
            },
            MetricRow {
                name: "Density [%]",
                measured: collect(&|p| eval.group(p).density * 100.0),
                paper: vec![53.0, 54.5, 54.0, 54.8, 53.4, 53.2, 56.9, 54.4],
            },
            MetricRow {
                name: "#Buffers [k]",
                measured: collect(&|p| eval.group(p).buffers / 1000.0),
                paper: collect(&|p| paper::group_buffers(p.flow, p.capacity) / 1000.0),
            },
            MetricRow {
                name: "#F2F bumps [k]",
                measured: collect(&|p| {
                    eval.group(p)
                        .f2f_bumps
                        .map_or(f64::NAN, |b| b as f64 / 1000.0)
                }),
                paper: points
                    .iter()
                    .map(|p| match p.flow {
                        mempool_phys::Flow::TwoD => f64::NAN,
                        mempool_phys::Flow::ThreeD => paper::group_f2f_bumps(p.capacity) / 1000.0,
                    })
                    .collect(),
            },
            MetricRow {
                name: "Eff. frequency",
                measured: collect(&|p| eval.frequency_norm(p)),
                paper: collect(&|p| paper::group_frequency(p.flow, p.capacity)),
            },
            MetricRow {
                name: "Total neg. slack",
                measured: collect(&|p| {
                    eval.group(p).total_negative_slack_ns / base.total_negative_slack_ns.abs()
                }),
                paper: collect(&|p| paper::group_tns(p.flow, p.capacity)),
            },
            MetricRow {
                name: "#Failing paths",
                measured: collect(&|p| eval.group(p).failing_paths as f64),
                paper: collect(&|p| paper::group_failing_paths(p.flow, p.capacity)),
            },
            MetricRow {
                name: "Total power",
                measured: collect(&|p| eval.power_norm(p)),
                paper: collect(&|p| paper::group_power(p.flow, p.capacity)),
            },
            MetricRow {
                name: "Power-delay product",
                measured: collect(&|p| {
                    eval.group(p).power_delay_product / base.power_delay_product
                }),
                paper: collect(&|p| paper::group_pdp(p.flow, p.capacity)),
            },
        ];
        Table2 { points, rows }
    }

    /// Metric rows.
    pub fn rows(&self) -> &[MetricRow] {
        &self.rows
    }

    /// Renders the table, interleaving measured and paper values.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Table II: MemPool group implementation results (normalized to MemPool-2D_1MiB)\n",
        );
        let mut t = TextTable::new([
            "metric", "source", "2D 1M", "3D 1M", "2D 2M", "3D 2M", "2D 4M", "3D 4M", "2D 8M",
            "3D 8M",
        ]);
        for row in &self.rows {
            let fmt_value = |v: f64| {
                if v.is_nan() {
                    "-".to_string()
                } else if v.abs() >= 100.0 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.3}")
                }
            };
            let mut measured = vec![row.name.to_string(), "ours".to_string()];
            measured.extend(row.measured.iter().map(|&v| fmt_value(v)));
            t.row_vec(measured);
            let mut paper_row = vec![String::new(), "paper".to_string()];
            paper_row.extend(row.paper.iter().map(|&v| fmt_value(v)));
            t.row_vec(paper_row);
        }
        out.push_str(&t.to_string());
        out
    }

    /// Serializes the table: one entry per metric with measured and paper
    /// value arrays in the same capacity-major column order as
    /// [`Self::to_text`]. `NaN` cells (2D rows without F2F bumps) become
    /// `null`.
    pub fn to_json(&self) -> Json {
        let points = self.points.iter().map(|p| Json::str(p.name())).collect();
        let float_cell = |v: f64| {
            if v.is_nan() {
                Json::Null
            } else {
                Json::Float(v)
            }
        };
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::str(r.name)),
                    (
                        "measured",
                        Json::Arr(r.measured.iter().map(|&v| float_cell(v)).collect()),
                    ),
                    (
                        "paper",
                        Json::Arr(r.paper.iter().map(|&v| float_cell(v)).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("table", Json::str("table2")),
            ("title", Json::str("MemPool group implementation results")),
            ("reference", Json::str("MemPool-2D_1MiB")),
            ("points", Json::Arr(points)),
            ("rows", Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_arch::SpmCapacity;
    use mempool_phys::Flow;

    fn table() -> Table2 {
        Table2::from_evaluation(&Evaluation::new())
    }

    fn metric<'a>(t: &'a Table2, name: &str) -> &'a MetricRow {
        t.rows.iter().find(|r| r.name == name).unwrap()
    }

    fn col(t: &Table2, flow: Flow, cap: SpmCapacity) -> usize {
        t.points
            .iter()
            .position(|p| p.flow == flow && p.capacity == cap)
            .unwrap()
    }

    #[test]
    fn frequency_row_matches_paper_within_tolerance() {
        let t = table();
        let row = metric(&t, "Eff. frequency");
        for (i, point) in t.points.iter().enumerate() {
            let diff = (row.measured[i] - row.paper[i]).abs();
            assert!(
                diff < 0.05,
                "{point}: frequency {:.3} vs paper {:.3}",
                row.measured[i],
                row.paper[i]
            );
        }
    }

    #[test]
    fn power_row_matches_paper_within_tolerance() {
        let t = table();
        let row = metric(&t, "Total power");
        for (i, point) in t.points.iter().enumerate() {
            let rel = (row.measured[i] - row.paper[i]).abs() / row.paper[i];
            assert!(
                rel < 0.10,
                "{point}: power {:.3} vs paper {:.3}",
                row.measured[i],
                row.paper[i]
            );
        }
    }

    #[test]
    fn headline_claims_hold() {
        let t = table();
        let freq = metric(&t, "Eff. frequency");
        // 3D beats 2D at every capacity.
        for cap in SpmCapacity::ALL {
            let f2 = freq.measured[col(&t, Flow::TwoD, cap)];
            let f3 = freq.measured[col(&t, Flow::ThreeD, cap)];
            assert!(f3 > f2, "{cap}: 3D frequency must win");
        }
        // The 4 MiB gain is the largest and near the paper's 9.1 %.
        let gain_4m = freq.measured[col(&t, Flow::ThreeD, SpmCapacity::MiB4)]
            / freq.measured[col(&t, Flow::TwoD, SpmCapacity::MiB4)];
        assert!(
            (1.04..1.14).contains(&gain_4m),
            "4 MiB 3D frequency gain {gain_4m:.3} (paper: 1.091)"
        );
        // Footprint: 3D 8 MiB smaller than 2D 1 MiB.
        let fp = metric(&t, "Footprint");
        assert!(
            fp.measured[col(&t, Flow::ThreeD, SpmCapacity::MiB8)]
                < fp.measured[col(&t, Flow::TwoD, SpmCapacity::MiB1)]
        );
        // PDP: 3D wins at every capacity.
        let pdp = metric(&t, "Power-delay product");
        for cap in SpmCapacity::ALL {
            assert!(
                pdp.measured[col(&t, Flow::ThreeD, cap)] < pdp.measured[col(&t, Flow::TwoD, cap)],
                "{cap}: 3D PDP must win"
            );
        }
    }

    #[test]
    fn buffers_within_thirty_percent_of_paper() {
        let t = table();
        let row = metric(&t, "#Buffers [k]");
        for (i, point) in t.points.iter().enumerate() {
            let rel = (row.measured[i] - row.paper[i]).abs() / row.paper[i];
            assert!(
                rel < 0.30,
                "{point}: buffers {:.1}k vs paper {:.1}k",
                row.measured[i],
                row.paper[i]
            );
        }
    }

    #[test]
    fn f2f_bumps_close_to_paper() {
        let t = table();
        let row = metric(&t, "#F2F bumps [k]");
        for (i, point) in t.points.iter().enumerate() {
            if point.flow == Flow::TwoD {
                assert!(row.measured[i].is_nan());
                continue;
            }
            let rel = (row.measured[i] - row.paper[i]).abs() / row.paper[i];
            assert!(
                rel < 0.15,
                "{point}: bumps {:.1}k vs paper {:.1}k",
                row.measured[i],
                row.paper[i]
            );
        }
    }

    #[test]
    fn rendering_shows_both_sources() {
        let text = table().to_text();
        assert!(text.contains("ours"));
        assert!(text.contains("paper"));
        assert!(text.contains("Eff. frequency"));
    }

    #[test]
    fn json_mirrors_rows_with_nan_as_null() {
        let t = table();
        let json = t.to_json();
        let rows = json.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), t.rows.len());
        let bumps = rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some("#F2F bumps [k]"))
            .unwrap();
        let measured = bumps.get("measured").and_then(Json::as_arr).unwrap();
        let nulls = measured.iter().filter(|v| **v == Json::Null).count();
        assert_eq!(nulls, 4, "the four 2D points have no F2F bumps");
        // Numeric cells match the struct exactly.
        let freq_json = rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some("Eff. frequency"))
            .unwrap();
        let freq_row = metric(&t, "Eff. frequency");
        for (cell, &v) in freq_json
            .get("measured")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&freq_row.measured)
        {
            assert_eq!(cell.as_f64().unwrap(), v);
        }
        assert_eq!(Json::parse(&json.to_pretty()).unwrap(), json);
    }
}
