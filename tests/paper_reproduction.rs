//! End-to-end reproduction checks: the claims the paper's abstract and
//! conclusions make must hold for the regenerated tables and figures.

use mempool_3d::mempool::experiments::{catalogue, Context, Evaluation, Fig7, Fig8, Table1};
use mempool_3d::mempool::DesignPoint;
use mempool_3d::mempool_arch::SpmCapacity;
use mempool_3d::mempool_kernels::matmul::PhaseModel;
use mempool_3d::mempool_phys::Flow;

#[test]
fn abstract_claim_performance_gain_at_4mib() {
    // "a performance gain of 9.1 % when running a matrix multiplication on
    // the MemPool-3D design with 4 MiB ... compared to the MemPool-2D
    // counterpart" — we accept 5-13 %.
    let fig7 = Fig7::generate();
    let gain = fig7
        .bar(Flow::ThreeD, SpmCapacity::MiB4)
        .vs_2d
        .expect("3D bar");
    assert!(
        (1.05..1.13).contains(&gain),
        "4 MiB 3D performance gain {gain:.3}"
    );
}

#[test]
fn abstract_claim_energy_budget_of_3d_4mib() {
    // "we can implement the MemPool-3D instance with 4 MiB of L1 memory on
    // an energy budget 15 % smaller than its 2D counterpart, and even
    // 3.7 % smaller than the MemPool-2D instance with one-fourth of the
    // capacity". Energy per work is 1/efficiency.
    let eval = Evaluation::new();
    let e3d4 = 1.0 / eval.efficiency(DesignPoint::new(Flow::ThreeD, SpmCapacity::MiB4), 16);
    let e2d4 = 1.0 / eval.efficiency(DesignPoint::new(Flow::TwoD, SpmCapacity::MiB4), 16);
    let e2d1 = 1.0 / eval.efficiency(DesignPoint::baseline(), 16);
    assert!(
        e3d4 < 0.90 * e2d4,
        "3D 4 MiB energy {e3d4:.3} should undercut 2D 4 MiB {e2d4:.3} by >10 %"
    );
    assert!(
        e3d4 < e2d1,
        "3D 4 MiB energy {e3d4:.3} should undercut even the 2D 1 MiB baseline {e2d1:.3}"
    );
}

#[test]
fn conclusion_claim_16_percent_cycle_reduction_at_16b() {
    // "For a realistic bandwidth of 16 B/cycle, we observe a cycle count
    // reduction of 16 % when increasing the SPM capacity from 1 MiB to
    // 8 MiB".
    let eval = Evaluation::new();
    let reduction = 1.0 - eval.cycles_norm(SpmCapacity::MiB8, 16);
    assert!(
        (0.10..0.20).contains(&reduction),
        "cycle reduction {:.1} % (paper: 16 %)",
        reduction * 100.0
    );
}

#[test]
fn conclusion_claim_3d_frequency_advantage() {
    // "the 3D designs can still achieve an operating frequency up to
    // 9.1 % higher than their 2D counterparts" and win at every capacity.
    let eval = Evaluation::new();
    let mut best_gain = 0.0f64;
    for cap in SpmCapacity::ALL {
        let f3 = eval.frequency_norm(DesignPoint::new(Flow::ThreeD, cap));
        let f2 = eval.frequency_norm(DesignPoint::new(Flow::TwoD, cap));
        assert!(f3 > f2, "{cap}");
        best_gain = best_gain.max(f3 / f2 - 1.0);
    }
    assert!(
        (0.06..0.14).contains(&best_gain),
        "best 3D frequency gain {:.1} % (paper: up to 9.1 %)",
        best_gain * 100.0
    );
}

#[test]
fn conclusion_claim_efficiency_up_to_18_percent() {
    // "Regarding energy efficiency, the 3D designs outperform their 2D
    // counterparts by up to 18.4 %."
    let fig8 = Fig8::generate();
    let best = SpmCapacity::ALL
        .iter()
        .map(|&cap| fig8.bar(Flow::ThreeD, cap).vs_2d.unwrap())
        .fold(f64::MIN, f64::max);
    assert!(
        (1.12..1.30).contains(&best),
        "best 3D efficiency gain {best:.3} (paper: 1.184)"
    );
}

/// The experiments whose text EXPERIMENTS.md must quote: the paper's
/// tables and figures, then the claims scoreboard.
const QUOTED: [&str; 7] = ["table1", "table2", "fig6", "fig7", "fig8", "fig9", "claims"];

/// The extensions EXPERIMENTS.md must quote as well; they have no paper
/// value to compare against.
const QUOTED_EXTENSIONS: [&str; 2] = ["ablations", "dse"];

/// A fenced ```` ```repro <target> ```` block of a markdown document.
struct ReproBlock<'a> {
    target: &'a str,
    /// 1-based line number of the opening fence.
    fence_line: usize,
    lines: Vec<&'a str>,
}

fn repro_blocks(doc: &str) -> Vec<ReproBlock<'_>> {
    let mut blocks = Vec::new();
    let mut lines = doc.lines().enumerate();
    while let Some((index, line)) = lines.next() {
        let Some(target) = line.strip_prefix("```repro ") else {
            continue;
        };
        let target = target.trim();
        let body: Vec<&str> = lines
            .by_ref()
            .map(|(_, line)| line)
            .take_while(|line| *line != "```")
            .collect();
        blocks.push(ReproBlock {
            target,
            fence_line: index + 1,
            lines: body,
        });
    }
    blocks
}

#[test]
fn every_experiment_renders_against_paper_values() {
    // Render each target the way `repro` prints it: the catalogue row
    // built over the recorded workload model.
    let ctx = Context::new(PhaseModel::with_measured_defaults());
    let render = |target: &str| catalogue::find(target).map(|row| (row.build)(&ctx).to_text());
    for target in QUOTED {
        let text = render(target).expect("catalogue row");
        assert!(text.contains("paper"), "missing paper comparison:\n{text}");
        assert!(text.len() > 100);
    }

    // The docs quote what `repro` prints: every ```repro <target>``` block
    // is that target's text, line for line.
    let docs = [
        ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
        ("README.md", include_str!("../README.md")),
    ];
    let mut quoted = Vec::new();
    for (file, doc) in docs {
        for block in repro_blocks(doc) {
            let target = block.target;
            let text = render(target).unwrap_or_else(|| {
                panic!(
                    "{file}:{}: a ```repro block names {target:?}, which is no catalogue target",
                    block.fence_line
                )
            });
            let printed: Vec<&str> = text.lines().collect();
            for i in 0..printed.len().max(block.lines.len()) {
                let (doc_line, repro_line) = (block.lines.get(i), printed.get(i));
                assert!(
                    doc_line == repro_line,
                    "{file}:{}: the ```repro {target}``` block differs from `repro {target}`\n  \
                     doc:   {}\n  repro: {}",
                    block.fence_line + 1 + i,
                    doc_line.unwrap_or(&"(block ended)"),
                    repro_line.unwrap_or(&"(output ended)"),
                );
            }
            if file == "EXPERIMENTS.md" {
                quoted.push(target);
            }
        }
    }
    for target in QUOTED.into_iter().chain(QUOTED_EXTENSIONS) {
        assert!(
            quoted.contains(&target),
            "EXPERIMENTS.md has no ```repro {target}``` block"
        );
    }
}

#[test]
fn footprint_hierarchy_holds_at_tile_and_group_level() {
    // The paper's Table I/II relation: every 3D instance has a smaller
    // footprint than every 2D instance of at least the same capacity, and
    // the largest 3D group undercuts the smallest 2D group.
    let t = Table1::generate();
    let g2d_min = DesignPoint::baseline().implement_group().footprint_um2();
    let g3d_max = DesignPoint::new(Flow::ThreeD, SpmCapacity::MiB8)
        .implement_group()
        .footprint_um2();
    assert!(g3d_max < g2d_min, "3D 8 MiB group must undercut 2D 1 MiB");
    for row in t.rows() {
        if row.point.flow == Flow::ThreeD {
            assert!(row.footprint_norm < 1.0, "{}", row.point);
        }
    }
}
