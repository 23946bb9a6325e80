//! SPM capacity presets explored by the MemPool-3D paper.

use std::fmt;

/// Total shared-L1 SPM capacity of the MemPool cluster.
///
/// The paper explores four capacities: 1, 2, 4, and 8 MiB, each implemented
/// in both a 2D and a 3D flow (eight configurations total). The default
/// MemPool configuration is 1 MiB.
///
/// # Example
///
/// ```
/// use mempool_arch::SpmCapacity;
///
/// assert_eq!(SpmCapacity::MiB4.bytes(), 4 * 1024 * 1024);
/// assert_eq!(SpmCapacity::MiB4.to_string(), "4 MiB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SpmCapacity {
    /// 1 MiB of shared-L1 SPM (the MemPool baseline).
    #[default]
    MiB1,
    /// 2 MiB of shared-L1 SPM.
    MiB2,
    /// 4 MiB of shared-L1 SPM.
    MiB4,
    /// 8 MiB of shared-L1 SPM.
    MiB8,
}

impl SpmCapacity {
    /// All capacities explored by the paper, smallest first.
    pub const ALL: [SpmCapacity; 4] = [
        SpmCapacity::MiB1,
        SpmCapacity::MiB2,
        SpmCapacity::MiB4,
        SpmCapacity::MiB8,
    ];

    /// Capacity in mebibytes.
    pub const fn mebibytes(self) -> u64 {
        match self {
            SpmCapacity::MiB1 => 1,
            SpmCapacity::MiB2 => 2,
            SpmCapacity::MiB4 => 4,
            SpmCapacity::MiB8 => 8,
        }
    }

    /// Capacity in bytes.
    pub const fn bytes(self) -> u64 {
        self.mebibytes() * 1024 * 1024
    }

    /// Matrix-multiplication tile dimension `t` that fully utilizes this
    /// capacity (Section VI-A of the paper).
    ///
    /// The kernel holds three `t x t` tiles of 32-bit words in the SPM (the
    /// two input tiles and the output tile), plus per-core stack and
    /// synchronization state; the paper reports `t` in {256, 384, 544, 800}.
    /// The invariant `12 * t^2 <= capacity` always holds (three tiles of
    /// 4-byte words).
    pub const fn matmul_tile_dim(self) -> u64 {
        match self {
            SpmCapacity::MiB1 => 256,
            SpmCapacity::MiB2 => 384,
            SpmCapacity::MiB4 => 544,
            SpmCapacity::MiB8 => 800,
        }
    }

    /// The matrix dimension used in the paper's Figure 6: the least common
    /// multiple of all four tile dimensions, `M = 326400`.
    pub const MATMUL_MATRIX_DIM: u64 = 326_400;

    /// Returns the next-smaller capacity, if any. Used by Figure 6's "speedup
    /// relative to the instance with half the SPM capacity" annotations.
    pub const fn half(self) -> Option<SpmCapacity> {
        match self {
            SpmCapacity::MiB1 => None,
            SpmCapacity::MiB2 => Some(SpmCapacity::MiB1),
            SpmCapacity::MiB4 => Some(SpmCapacity::MiB2),
            SpmCapacity::MiB8 => Some(SpmCapacity::MiB4),
        }
    }
}

impl fmt::Display for SpmCapacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MiB", self.mebibytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_matches_mebibytes() {
        for cap in SpmCapacity::ALL {
            assert_eq!(cap.bytes(), cap.mebibytes() << 20);
        }
    }

    #[test]
    fn all_is_sorted_ascending() {
        let mut sorted = SpmCapacity::ALL;
        sorted.sort();
        assert_eq!(sorted, SpmCapacity::ALL);
    }

    #[test]
    fn matmul_tiles_fit_in_capacity() {
        // Three t x t tiles of 4-byte words must fit in the SPM.
        for cap in SpmCapacity::ALL {
            let t = cap.matmul_tile_dim();
            assert!(
                3 * 4 * t * t <= cap.bytes(),
                "{cap}: 3 tiles of {t}x{t} words exceed capacity"
            );
        }
    }

    #[test]
    fn matrix_dim_is_lcm_of_tile_dims() {
        for cap in SpmCapacity::ALL {
            assert_eq!(
                SpmCapacity::MATMUL_MATRIX_DIM % cap.matmul_tile_dim(),
                0,
                "M must be a multiple of every tile dimension"
            );
        }
    }

    #[test]
    fn half_walks_down_the_ladder() {
        assert_eq!(SpmCapacity::MiB8.half(), Some(SpmCapacity::MiB4));
        assert_eq!(SpmCapacity::MiB4.half(), Some(SpmCapacity::MiB2));
        assert_eq!(SpmCapacity::MiB2.half(), Some(SpmCapacity::MiB1));
        assert_eq!(SpmCapacity::MiB1.half(), None);
    }

    #[test]
    fn display_matches_paper_naming() {
        assert_eq!(SpmCapacity::MiB2.to_string(), "2 MiB");
    }
}
