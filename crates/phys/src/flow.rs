//! Implementation flows.

use std::fmt;
use std::str::FromStr;

/// The implementation flow: conventional 2D or Macro-3D face-to-face 3D.
///
/// # Example
///
/// ```
/// use mempool_phys::Flow;
///
/// assert_eq!(Flow::ThreeD.to_string(), "3D");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Flow {
    /// Conventional single-die flow with an eight-metal BEOL; the group
    /// level routes over the tiles on M7-M8.
    #[default]
    TwoD,
    /// Macro-3D memory-on-logic flow: two face-to-face-bonded dies with
    /// mirrored six-metal BEOLs (M6M6) joined by a fine-pitch F2F via
    /// layer. Both dies' routing resources serve the channels, but tiles
    /// block all layers, so there is no over-the-tile routing.
    ThreeD,
}

impl Flow {
    /// Both flows, 2D first (the baseline).
    pub const ALL: [Flow; 2] = [Flow::TwoD, Flow::ThreeD];

    /// Name of the BEOL stack (as in Table II).
    pub(crate) const fn beol_name(self) -> &'static str {
        match self {
            Flow::TwoD => "M8",
            Flow::ThreeD => "M6M6",
        }
    }

    /// Metal layers available for *channel* routing at the group level:
    /// the eight layers of the 2D M8 stack versus the twelve layers of the
    /// mirrored M6M6 3D stack (power-grid and local-layer derating is
    /// folded into [`Technology::route_utilization`]). The 12-vs-8 ratio is
    /// what makes the 3D channels narrower — the paper reports 18 %.
    ///
    /// [`Technology::route_utilization`]: crate::tech::Technology::route_utilization
    pub(crate) const fn channel_routing_layers(self) -> u32 {
        match self {
            Flow::TwoD => 8,
            Flow::ThreeD => 12,
        }
    }

    /// Number of dies.
    pub(crate) const fn dies(self) -> u32 {
        match self {
            Flow::TwoD => 1,
            Flow::ThreeD => 2,
        }
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Flow::TwoD => "2D",
            Flow::ThreeD => "3D",
        })
    }
}

/// Error returned when parsing a [`Flow`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFlowError {
    input: String,
}

impl fmt::Display for ParseFlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid flow `{}`, expected `2D` or `3D`", self.input)
    }
}

impl std::error::Error for ParseFlowError {}

impl FromStr for Flow {
    type Err = ParseFlowError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "2d" => Ok(Flow::TwoD),
            "3d" => Ok(Flow::ThreeD),
            _ => Err(ParseFlowError {
                input: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_d_has_more_channel_layers() {
        assert!(Flow::ThreeD.channel_routing_layers() > Flow::TwoD.channel_routing_layers());
    }

    #[test]
    fn parsing_accepts_both_cases() {
        assert_eq!("2D".parse::<Flow>().unwrap(), Flow::TwoD);
        assert_eq!("3d".parse::<Flow>().unwrap(), Flow::ThreeD);
        assert!("4d".parse::<Flow>().is_err());
    }

    #[test]
    fn die_counts() {
        assert_eq!(Flow::TwoD.dies(), 1);
        assert_eq!(Flow::ThreeD.dies(), 2);
    }

    #[test]
    fn beol_names_match_table_ii() {
        assert_eq!(Flow::TwoD.beol_name(), "M8");
        assert_eq!(Flow::ThreeD.beol_name(), "M6M6");
    }
}
