//! The design-space-exploration batch client.
//!
//! One-shot `repro dse` scores the eight design points in-process
//! ([`DesignSpace::explore`]). The batch client behind `repro submit dse`
//! instead issues one `dse_point` request per point through an experiment
//! service — so a sweep shares the service's content-addressed cache and
//! request coalescing with every other client, and a repeated exploration
//! costs eight cache hits. [`mempool::dse::ScoredPoint::score_all`] is the
//! single scoring path behind both, so the assembled [`DesignSpace`] is
//! bit-identical to the in-process one.

use mempool::design::DesignPoint;
use mempool::dse::{DesignSpace, ScoredPoint};
use mempool_kernels::matmul::PhaseModel;
use mempool_obs::{Json, JsonError};

use crate::client::Outcome;
use crate::protocol::{ExperimentKind, ExperimentRequest, ServeError};

/// Reconstructs a [`ScoredPoint`] from a `dse_point` artifact.
///
/// # Errors
///
/// [`ServeError::Protocol`] when the artifact does not describe `point`
/// or carries a malformed score vector.
pub(crate) fn parse_scored(point: DesignPoint, artifact: &Json) -> Result<ScoredPoint, ServeError> {
    let malformed =
        |e: JsonError| ServeError::Protocol(format!("dse_point artifact: {}", e.message));
    let design = artifact.str_field("design").map_err(malformed)?;
    if design != point.name() {
        return Err(ServeError::Protocol(format!(
            "artifact describes {design:?}, expected {:?}",
            point.name()
        )));
    }
    let scores = artifact.arr_field("scores").map_err(malformed)?;
    if scores.len() != 4 {
        return Err(ServeError::Protocol(format!(
            "expected 4 objective scores, got {}",
            scores.len()
        )));
    }
    let mut vector = [0.0f64; 4];
    for (slot, value) in vector.iter_mut().zip(scores) {
        *slot = value.try_f64("objective score").map_err(malformed)?;
    }
    Ok(ScoredPoint {
        point,
        scores: vector,
    })
}

/// Explores the full design space through an experiment service: issues
/// the eight `dse_point` requests through `request` — one call of
/// `Client::run` or [`crate::TcpClient::request`] each — and
/// assembles the answers in [`DesignPoint::all`] order.
///
/// # Errors
///
/// Propagates whatever `request` fails with (transport, backpressure,
/// shutdown, execution) and artifact-shape failures.
pub fn explore_via(
    mut request: impl FnMut(&ExperimentRequest) -> Result<Outcome, ServeError>,
    model: &PhaseModel,
) -> Result<DesignSpace, ServeError> {
    let scored = DesignPoint::all()
        .map(|point| {
            let outcome = request(&ExperimentRequest {
                kind: ExperimentKind::DsePoint { point },
                model: (*model).into(),
            })?;
            parse_scored(point, &outcome.artifact)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DesignSpace::from_scored(scored))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool::experiments::Evaluation;

    #[test]
    fn parse_scored_round_trips_the_runner_artifact() {
        let eval = Evaluation::new();
        for point in DesignPoint::all() {
            let scored = ScoredPoint::score_all(&eval, point);
            let artifact = crate::exec::dse_point_json(&scored);
            let parsed = parse_scored(point, &artifact).unwrap();
            assert_eq!(parsed.point, point);
            assert_eq!(parsed.scores, scored.scores);
        }
    }

    #[test]
    fn parse_scored_rejects_mismatched_points() {
        let eval = Evaluation::new();
        let mut points = DesignPoint::all();
        let first = points.next().unwrap();
        let second = points.next().unwrap();
        let artifact = crate::exec::dse_point_json(&ScoredPoint::score_all(&eval, first));
        let err = parse_scored(second, &artifact).unwrap_err();
        assert_eq!(err.code(), "protocol");
    }
}
