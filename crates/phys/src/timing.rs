//! Static timing analysis of the group.
//!
//! The group's critical paths run from a register in one tile, through the
//! tile's output logic, across the channels to the central butterfly
//! switches, back out to the destination tile, through its crossbar and
//! into an SPM bank (the paper: "the 2D MemPool's critical path goes from
//! one tile to the other diagonally opposed to it", with ~37 % of the
//! timing being wire propagation delay).
//!
//! The model builds the full population of tile-to-tile paths from the
//! placed netlist geometry and evaluates each against the 1 GHz target,
//! yielding the achieved frequency (from the worst path), the total
//! negative slack, and the failing-endpoint count.

use crate::flow::Flow;
use crate::sram::SramMacro;
use crate::tech::Technology;

/// Endpoints represented by one tile-to-tile route bundle; scales TNS and
/// the failing-path count the way the response-data registers of a real
/// implementation would.
const ENDPOINTS_PER_ROUTE: f64 = 15.0;

/// Result of the group's static timing analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Worst path delay in ps.
    pub critical_path_ps: f64,
    /// Achieved clock frequency in GHz (1 / critical path).
    pub frequency_ghz: f64,
    /// Total negative slack against the 1 GHz target, in ns (negative or
    /// zero).
    pub total_negative_slack_ns: f64,
    /// Number of failing endpoints at the 1 GHz target.
    pub failing_paths: u64,
    /// Wire propagation share of the critical path (the paper's baseline
    /// anchor: ~0.37 in 2D at 1 MiB).
    pub wire_delay_fraction: f64,
}

/// Computes the timing of a group given the per-route wire distances.
///
/// `route_lengths_mm` holds, for every ordered tile pair, the Manhattan
/// route length from source tile through the switches to the destination
/// tile. `bank` is the SPM macro terminating the path.
pub fn analyze(
    tech: &Technology,
    flow: Flow,
    route_lengths_mm: &[f64],
    bank: SramMacro,
) -> TimingReport {
    let fixed = tech.tile_logic_delay_ps
        + 2.0 * tech.switch_delay_ps
        + bank.access_delay_ps()
        + match flow {
            Flow::TwoD => 0.0,
            Flow::ThreeD => tech.f2f_path_penalty_ps,
        };
    let mut worst = 0.0_f64;
    let mut worst_wire = 0.0_f64;
    let mut tns_ps = 0.0_f64;
    let mut failing = 0.0_f64;
    for &length in route_lengths_mm {
        let wire = tech.wire_delay_ps_per_mm * length;
        let delay = fixed + wire;
        if delay > worst {
            worst = delay;
            worst_wire = wire;
        }
        let slack = tech.clock_period_ps - delay;
        if slack < 0.0 {
            tns_ps += slack * ENDPOINTS_PER_ROUTE;
            failing += ENDPOINTS_PER_ROUTE;
        }
    }
    TimingReport {
        critical_path_ps: worst,
        frequency_ghz: 1000.0 / worst,
        total_negative_slack_ns: tns_ps / 1000.0,
        failing_paths: failing as u64,
        wire_delay_fraction: if worst > 0.0 { worst_wire / worst } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank_1k() -> SramMacro {
        SramMacro::with_capacity_bytes(1024)
    }

    #[test]
    fn longer_routes_lower_frequency() {
        let tech = Technology::n28();
        let short = analyze(&tech, Flow::TwoD, &[2.0, 3.0], bank_1k());
        let long = analyze(&tech, Flow::TwoD, &[2.0, 4.5], bank_1k());
        assert!(long.frequency_ghz < short.frequency_ghz);
        assert!(long.critical_path_ps > short.critical_path_ps);
    }

    #[test]
    fn tns_accumulates_over_failing_routes() {
        let tech = Technology::n28();
        // Routes long enough to fail the 1 GHz target.
        let r = analyze(&tech, Flow::TwoD, &[6.0, 6.5, 7.0], bank_1k());
        assert!(r.total_negative_slack_ns < 0.0);
        assert!(r.failing_paths > 0);
        let shorter = analyze(&tech, Flow::TwoD, &[6.0], bank_1k());
        assert!(shorter.failing_paths < r.failing_paths);
        assert!(shorter.total_negative_slack_ns > r.total_negative_slack_ns);
    }

    #[test]
    fn meeting_timing_gives_zero_tns() {
        let tech = Technology::n28();
        let r = analyze(&tech, Flow::TwoD, &[0.5], bank_1k());
        assert_eq!(r.total_negative_slack_ns, 0.0);
        assert_eq!(r.failing_paths, 0);
        assert!(r.frequency_ghz > 1.0);
    }

    #[test]
    fn three_d_pays_the_f2f_penalty_at_equal_route_length() {
        let tech = Technology::n28();
        let d2 = analyze(&tech, Flow::TwoD, &[3.0], bank_1k());
        let d3 = analyze(&tech, Flow::ThreeD, &[3.0], bank_1k());
        assert!(
            d3.critical_path_ps > d2.critical_path_ps,
            "the F2F crossing costs time; 3D wins only through shorter routes"
        );
    }

    #[test]
    fn bigger_banks_slow_the_path() {
        let tech = Technology::n28();
        let small = analyze(&tech, Flow::TwoD, &[4.0], bank_1k());
        let big = analyze(
            &tech,
            Flow::TwoD,
            &[4.0],
            SramMacro::with_capacity_bytes(8192),
        );
        assert!(big.critical_path_ps > small.critical_path_ps);
    }

    #[test]
    fn wire_fraction_reported() {
        let tech = Technology::n28();
        let r = analyze(&tech, Flow::TwoD, &[4.0], bank_1k());
        assert!(r.wire_delay_fraction > 0.2 && r.wire_delay_fraction < 0.6);
    }
}
