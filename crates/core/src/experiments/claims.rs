//! The claims scoreboard: every quantitative statement of the paper's
//! abstract and conclusions, checked against the reproduction in one
//! table.
//!
//! This is the one-page answer to "did the reproduction work?": each row
//! names a claim, the paper's number, ours, and whether the *direction*
//! and rough magnitude hold.

use mempool_arch::SpmCapacity;
use mempool_phys::Flow;

use crate::design::DesignPoint;
use crate::experiments::{Evaluation, SECTION_VI_B_BANDWIDTH};
use crate::table::TextTable;

/// One checked claim.
#[derive(Debug, Clone)]
pub(crate) struct Claim {
    /// Where the paper states it.
    pub source: &'static str,
    /// The claim, paraphrased.
    pub statement: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Acceptance window around the paper value (absolute).
    pub tolerance: f64,
}

impl Claim {
    /// Whether the measured value lands within the tolerance.
    pub(crate) fn holds(&self) -> bool {
        (self.measured - self.paper).abs() <= self.tolerance
    }
}

/// The full scoreboard.
#[derive(Debug, Clone)]
pub(crate) struct Claims {
    claims: Vec<Claim>,
}

impl Claims {
    /// Evaluates every claim from an existing evaluation.
    pub(crate) fn from_evaluation(eval: &Evaluation) -> Self {
        let bw = SECTION_VI_B_BANDWIDTH;
        let point = |flow, cap| DesignPoint::new(flow, cap);
        let freq_gain = |cap| {
            eval.frequency_norm(point(Flow::ThreeD, cap))
                / eval.frequency_norm(point(Flow::TwoD, cap))
        };
        let best_freq_gain = SpmCapacity::ALL
            .iter()
            .map(|&cap| freq_gain(cap))
            .fold(f64::MIN, f64::max);
        let best_eff_gain = SpmCapacity::ALL
            .iter()
            .map(|&cap| {
                eval.efficiency(point(Flow::ThreeD, cap), bw)
                    / eval.efficiency(point(Flow::TwoD, cap), bw)
            })
            .fold(f64::MIN, f64::max);
        let fp8_saving = 1.0
            - eval
                .group(point(Flow::ThreeD, SpmCapacity::MiB8))
                .footprint_um2
                / eval
                    .group(point(Flow::TwoD, SpmCapacity::MiB8))
                    .footprint_um2;

        let claims = vec![
            Claim {
                source: "abstract",
                statement: "3D vs 2D matmul performance at 4 MiB",
                paper: 1.091,
                measured: eval.performance(point(Flow::ThreeD, SpmCapacity::MiB4), bw)
                    / eval.performance(point(Flow::TwoD, SpmCapacity::MiB4), bw),
                tolerance: 0.04,
            },
            Claim {
                source: "abstract",
                statement: "3D 4 MiB energy budget vs its 2D counterpart",
                paper: 0.85,
                measured: eval.efficiency(point(Flow::TwoD, SpmCapacity::MiB4), bw)
                    / eval.efficiency(point(Flow::ThreeD, SpmCapacity::MiB4), bw),
                tolerance: 0.05,
            },
            Claim {
                source: "abstract",
                statement: "3D 4 MiB energy budget vs the 2D 1 MiB baseline",
                paper: 0.963,
                measured: 1.0 / eval.efficiency(point(Flow::ThreeD, SpmCapacity::MiB4), bw),
                tolerance: 0.06,
            },
            Claim {
                source: "conclusions",
                statement: "cycle reduction, 1 -> 8 MiB at 16 B/cycle",
                paper: 0.16,
                measured: 1.0 - eval.cycles_norm(SpmCapacity::MiB8, 16),
                tolerance: 0.04,
            },
            Claim {
                source: "conclusions",
                statement: "best 3D frequency gain over 2D",
                paper: 1.091,
                measured: best_freq_gain,
                tolerance: 0.04,
            },
            Claim {
                source: "conclusions",
                statement: "3D 8 MiB performance vs baseline",
                paper: 1.084,
                measured: eval.performance(point(Flow::ThreeD, SpmCapacity::MiB8), bw),
                tolerance: 0.04,
            },
            Claim {
                source: "conclusions",
                statement: "best 3D efficiency gain over 2D",
                paper: 1.184,
                measured: best_eff_gain,
                tolerance: 0.06,
            },
            Claim {
                source: "Sec. V-A",
                statement: "footprint saving of 3D at 8 MiB",
                paper: 0.46,
                measured: fp8_saving,
                tolerance: 0.08,
            },
            Claim {
                source: "Fig. 8",
                statement: "3D 1 MiB efficiency vs baseline",
                paper: 1.14,
                measured: eval.efficiency(point(Flow::ThreeD, SpmCapacity::MiB1), bw),
                tolerance: 0.05,
            },
            Claim {
                source: "Fig. 9",
                statement: "3D 1 MiB EDP vs baseline",
                paper: 0.844,
                measured: eval.edp(point(Flow::ThreeD, SpmCapacity::MiB1), bw),
                tolerance: 0.04,
            },
        ];
        Claims { claims }
    }

    /// Number of claims that hold.
    pub(crate) fn holding(&self) -> usize {
        self.claims.iter().filter(|c| c.holds()).count()
    }

    /// Renders the scoreboard.
    pub(crate) fn to_text(&self) -> String {
        let mut t = TextTable::new(["source", "claim", "paper", "ours", "holds"]);
        for c in &self.claims {
            t.row([
                c.source.to_string(),
                c.statement.to_string(),
                format!("{:.3}", c.paper),
                format!("{:.3}", c.measured),
                if c.holds() { "yes" } else { "NO" }.to_string(),
            ]);
        }
        format!(
            "Claims scoreboard: {}/{} hold\n{t}",
            self.holding(),
            self.claims.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_nine_of_ten_claims_hold() {
        let claims = Claims::from_evaluation(&Evaluation::new());
        let failing: Vec<&Claim> = claims.claims.iter().filter(|c| !c.holds()).collect();
        assert!(
            claims.holding() >= claims.claims.len() - 1,
            "too many claims failed: {failing:#?}"
        );
    }

    #[test]
    fn scoreboard_renders_every_claim() {
        let claims = Claims::from_evaluation(&Evaluation::new());
        let text = claims.to_text();
        assert!(text.contains("scoreboard"));
        assert_eq!(
            text.lines().count(),
            claims.claims.len() + 3, // header line + table header + rule
        );
    }

    #[test]
    fn tolerance_logic() {
        let c = Claim {
            source: "x",
            statement: "y",
            paper: 1.0,
            measured: 1.05,
            tolerance: 0.04,
        };
        assert!(!c.holds());
        let c = Claim {
            measured: 1.03,
            ..c
        };
        assert!(c.holds());
    }
}
