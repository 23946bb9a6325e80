//! The skeleton Figures 7-9 share: one bar per design point in Table II's
//! column order, each a Section VI-B metric relative to MemPool-2D(1 MiB)
//! and, on the 3D bars, relative to the 2D counterpart.

use mempool_arch::SpmCapacity;
use mempool_obs::Json;
use mempool_phys::Flow;

use crate::design::DesignPoint;
use crate::experiments::{Evaluation, SECTION_VI_B_BANDWIDTH};
use crate::table::TextTable;

/// One bar of Figure 7, 8 or 9.
#[derive(Debug, Clone, Copy)]
pub struct CapacityBar {
    /// The design point.
    pub point: DesignPoint,
    /// The figure's metric relative to MemPool-2D(1 MiB).
    pub value: f64,
    /// The metric relative to the 2D counterpart (3D bars only).
    pub vs_2d: Option<f64>,
}

/// A bar's metric: [`Evaluation::performance`], `efficiency` or `edp`.
type Metric = fn(&Evaluation, DesignPoint, u32) -> f64;

/// All eight bars of `metric` in capacity-major order.
pub(super) fn bars(eval: &Evaluation, metric: Metric) -> Vec<CapacityBar> {
    let bw = SECTION_VI_B_BANDWIDTH;
    DesignPoint::all_capacity_major()
        .map(|point| {
            let value = metric(eval, point, bw);
            let vs_2d = match point.flow {
                Flow::TwoD => None,
                Flow::ThreeD => {
                    Some(value / metric(eval, Evaluation::two_d_counterpart(point), bw))
                }
            };
            CapacityBar {
                point,
                value,
                vs_2d,
            }
        })
        .collect()
}

/// The heading line (`heading`, then the bandwidth, the reference and
/// which direction is better) and the table; the figure appends its
/// trailer. `ratio` renders a 3D-vs-2D ratio given as a percentage change.
pub(super) fn table(
    bars: &[CapacityBar],
    heading: &str,
    orientation: &str,
    column: &str,
    ratio: fn(f64) -> String,
) -> String {
    let mut t = TextTable::new(["design", column, "3D vs 2D"]);
    for bar in bars {
        t.row([
            bar.point.name(),
            format!("{:.3}", bar.value),
            bar.vs_2d
                .map_or("-".to_string(), |r| ratio((r - 1.0) * 100.0)),
        ]);
    }
    format!(
        "{heading} ({SECTION_VI_B_BANDWIDTH} B/cycle, relative to MemPool-2D_1MiB{orientation})\n{t}"
    )
}

/// The figure's JSON document: the common head, the bars under the
/// figure's two `keys` (metric, 3D-vs-2D ratio), then its own `extras`.
pub(super) fn json(
    bars: &[CapacityBar],
    figure: &'static str,
    title: &'static str,
    [value_key, ratio_key]: [&'static str; 2],
    extras: Vec<(&'static str, Json)>,
) -> Json {
    let bars = bars
        .iter()
        .map(|b| {
            Json::obj([
                ("design", Json::str(b.point.name())),
                (value_key, Json::Float(b.value)),
                (ratio_key, b.vs_2d.map_or(Json::Null, Json::Float)),
            ])
        })
        .collect();
    let mut pairs = vec![
        ("figure", Json::str(figure)),
        ("title", Json::str(title)),
        ("bytes_per_cycle", Json::Int(SECTION_VI_B_BANDWIDTH as i64)),
        ("reference", Json::str("MemPool-2D_1MiB")),
        ("bars", Json::Arr(bars)),
    ];
    pairs.extend(extras);
    Json::obj(pairs)
}

/// Looks up one bar.
pub(super) fn find(bars: &[CapacityBar], flow: Flow, capacity: SpmCapacity) -> &CapacityBar {
    bars.iter()
        .find(|b| b.point.flow == flow && b.point.capacity == capacity)
        .expect("all eight bars exist")
}
