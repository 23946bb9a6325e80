//! Cluster configuration and validation.

use std::fmt;

use crate::capacity::SpmCapacity;
use crate::ids::TileId;

/// Complete architectural configuration of a MemPool cluster.
///
/// The default configuration matches the paper: 4 groups x 16 tiles x 4
/// cores = 256 cores, 16 SPM banks per tile = 1024 banks, and 1 MiB of
/// total SPM. The builder allows scaled-down instances (fewer
/// groups/tiles/cores) for fast simulation in tests, and scaled-up SPM
/// capacities for the paper's design-space sweep. What every tile has
/// whatever the geometry, its 2 KiB I$ in 4 banks and its 4 remote request
/// ports, is constant ([`ClusterConfig::ICACHE_BYTES_PER_TILE`],
/// [`ClusterConfig::ICACHE_BANKS_PER_TILE`],
/// [`ClusterConfig::REMOTE_PORTS_PER_TILE`]).
///
/// # Example
///
/// ```
/// use mempool_arch::{ClusterConfig, SpmCapacity};
///
/// # fn main() -> Result<(), mempool_arch::ConfigError> {
/// let full = ClusterConfig::with_capacity(SpmCapacity::MiB8);
/// assert_eq!(full.bank_bytes(), 8192);
///
/// let tiny = ClusterConfig::builder()
///     .groups(1)
///     .tiles_per_group(4)
///     .cores_per_tile(2)
///     .banks_per_tile(4)
///     .bank_words(64)
///     .build()?;
/// assert_eq!(tiny.num_cores(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    groups: u32,
    tiles_per_group: u32,
    cores_per_tile: u32,
    banks_per_tile: u32,
    /// Depth of each SPM bank in 32-bit words.
    bank_words: u32,
}

impl ClusterConfig {
    /// Number of groups in the default MemPool cluster.
    pub(crate) const DEFAULT_GROUPS: u32 = 4;
    /// Number of tiles per group in the default MemPool cluster.
    pub(crate) const DEFAULT_TILES_PER_GROUP: u32 = 16;
    /// Number of Snitch cores per tile.
    pub(crate) const DEFAULT_CORES_PER_TILE: u32 = 4;
    /// Number of SPM banks per tile.
    pub(crate) const DEFAULT_BANKS_PER_TILE: u32 = 16;
    /// L1 instruction-cache capacity of every tile, in bytes (2 KiB).
    pub const ICACHE_BYTES_PER_TILE: u32 = 2048;
    /// Number of I$ banks in every tile.
    pub const ICACHE_BANKS_PER_TILE: u32 = 4;
    /// Remote request ports of every tile: how many of its cores may issue
    /// an access to another tile's banks in one cycle.
    pub const REMOTE_PORTS_PER_TILE: u32 = 4;

    /// Returns the full-size MemPool configuration with the given total SPM
    /// capacity.
    ///
    /// The bank depth is derived from the capacity: with 64 tiles of 16
    /// banks, 1 MiB yields 1 KiB (256 words) per bank and 8 MiB yields
    /// 8 KiB (2048 words) per bank.
    pub fn with_capacity(capacity: SpmCapacity) -> Self {
        let banks = (Self::DEFAULT_GROUPS
            * Self::DEFAULT_TILES_PER_GROUP
            * Self::DEFAULT_BANKS_PER_TILE) as u64;
        let bank_words = (capacity.bytes() / banks / 4) as u32;
        ClusterConfig {
            groups: Self::DEFAULT_GROUPS,
            tiles_per_group: Self::DEFAULT_TILES_PER_GROUP,
            cores_per_tile: Self::DEFAULT_CORES_PER_TILE,
            banks_per_tile: Self::DEFAULT_BANKS_PER_TILE,
            bank_words,
        }
    }

    /// Returns a builder initialized with the default (1 MiB) configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::new()
    }

    /// Number of groups.
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Number of tiles in each group.
    pub fn tiles_per_group(&self) -> u32 {
        self.tiles_per_group
    }

    /// Number of cores in each tile.
    pub fn cores_per_tile(&self) -> u32 {
        self.cores_per_tile
    }

    /// Number of SPM banks in each tile.
    pub fn banks_per_tile(&self) -> u32 {
        self.banks_per_tile
    }

    /// Depth of each SPM bank in 32-bit words.
    pub fn bank_words(&self) -> u32 {
        self.bank_words
    }

    /// Size of each SPM bank in bytes.
    pub fn bank_bytes(&self) -> u64 {
        self.bank_words as u64 * 4
    }

    /// [`ClusterConfig::ICACHE_BYTES_PER_TILE`]. A method only because the
    /// benchmark package's probes still read it; new code reads the
    /// constant.
    pub fn icache_bytes_per_tile(&self) -> u32 {
        Self::ICACHE_BYTES_PER_TILE
    }

    /// Total number of tiles in the cluster.
    pub fn num_tiles(&self) -> u32 {
        self.groups * self.tiles_per_group
    }

    /// Total number of cores in the cluster.
    pub fn num_cores(&self) -> u32 {
        self.num_tiles() * self.cores_per_tile
    }

    /// Total number of SPM banks in the cluster.
    pub fn num_banks(&self) -> u32 {
        self.num_tiles() * self.banks_per_tile
    }

    /// Total SPM capacity in bytes.
    pub fn spm_bytes(&self) -> u64 {
        self.num_banks() as u64 * self.bank_bytes()
    }

    /// Iterator over all global tile indices.
    pub(crate) fn tiles(&self) -> impl Iterator<Item = TileId> {
        (0..self.num_tiles()).map(TileId)
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::with_capacity(SpmCapacity::MiB1)
    }
}

impl fmt::Display for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MemPool[{}g x {}t x {}c, {} banks/tile x {} B, SPM {} KiB]",
            self.groups,
            self.tiles_per_group,
            self.cores_per_tile,
            self.banks_per_tile,
            self.bank_bytes(),
            self.spm_bytes() / 1024,
        )
    }
}

/// Error returned when a [`ClusterConfig::builder`] chain describes an
/// invalid cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A structural parameter was zero.
    ZeroParameter(&'static str),
    /// The number of tiles per group is not a perfect square (required for
    /// the 4x4 physical placement and the radix-4 butterfly).
    TilesNotSquare(u32),
    /// A parameter must be a power of two for address-interleaving to use
    /// bit slicing.
    NotPowerOfTwo {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value.
        value: u32,
    },
    /// The cluster has more tiles, cores or banks (the named count) than
    /// a `u32` can index.
    CountOverflow(&'static str),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroParameter(name) => {
                write!(f, "cluster parameter `{name}` must be nonzero")
            }
            ConfigError::TilesNotSquare(n) => {
                write!(f, "tiles per group must be a perfect square, got {n}")
            }
            ConfigError::NotPowerOfTwo { name, value } => {
                write!(
                    f,
                    "cluster parameter `{name}` must be a power of two, got {value}"
                )
            }
            ConfigError::CountOverflow(what) => {
                write!(f, "the cluster's {what} count does not fit in 32 bits")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ClusterConfig`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Creates a builder initialized with the default configuration.
    pub(crate) fn new() -> Self {
        ClusterConfigBuilder {
            config: ClusterConfig::default(),
        }
    }

    /// Sets the number of groups.
    pub fn groups(mut self, groups: u32) -> Self {
        self.config.groups = groups;
        self
    }

    /// Sets the number of tiles per group.
    pub fn tiles_per_group(mut self, tiles: u32) -> Self {
        self.config.tiles_per_group = tiles;
        self
    }

    /// Sets the number of cores per tile.
    pub fn cores_per_tile(mut self, cores: u32) -> Self {
        self.config.cores_per_tile = cores;
        self
    }

    /// Sets the number of SPM banks per tile.
    pub fn banks_per_tile(mut self, banks: u32) -> Self {
        self.config.banks_per_tile = banks;
        self
    }

    /// Sets the depth of each SPM bank in 32-bit words.
    pub fn bank_words(mut self, words: u32) -> Self {
        self.config.bank_words = words;
        self
    }

    /// Validates the configuration and builds it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any structural parameter is zero, if the
    /// tile count per group is not a perfect square, if the bank count or
    /// bank depth is not a power of two, or if the cluster's tile, core or
    /// bank count does not fit in a `u32`.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let c = &self.config;
        for (name, value) in [
            ("groups", c.groups),
            ("tiles_per_group", c.tiles_per_group),
            ("cores_per_tile", c.cores_per_tile),
            ("banks_per_tile", c.banks_per_tile),
            ("bank_words", c.bank_words),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroParameter(name));
            }
        }
        let side = (c.tiles_per_group as f64).sqrt() as u32;
        if side * side != c.tiles_per_group {
            return Err(ConfigError::TilesNotSquare(c.tiles_per_group));
        }
        for (name, value) in [
            ("banks_per_tile", c.banks_per_tile),
            ("bank_words", c.bank_words),
        ] {
            if !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { name, value });
            }
        }
        let tiles = c.groups.checked_mul(c.tiles_per_group);
        for (what, count) in [
            ("tile", tiles),
            ("core", tiles.and_then(|t| t.checked_mul(c.cores_per_tile))),
            ("bank", tiles.and_then(|t| t.checked_mul(c.banks_per_tile))),
        ] {
            if count.is_none() {
                return Err(ConfigError::CountOverflow(what));
            }
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_mempool_baseline() {
        let cfg = ClusterConfig::default();
        assert_eq!(cfg.num_cores(), 256);
        assert_eq!(cfg.num_tiles(), 64);
        assert_eq!(cfg.num_banks(), 1024);
        assert_eq!(cfg.spm_bytes(), 1 << 20);
        assert_eq!(cfg.bank_bytes(), 1024);
        assert_eq!(cfg.icache_bytes_per_tile(), 2048);
    }

    #[test]
    fn capacity_scaling_only_deepens_banks() {
        let base = ClusterConfig::with_capacity(SpmCapacity::MiB1);
        let big = ClusterConfig::with_capacity(SpmCapacity::MiB8);
        assert_eq!(base.num_banks(), big.num_banks());
        assert_eq!(big.bank_words(), 8 * base.bank_words());
        assert_eq!(big.spm_bytes(), 8 << 20);
    }

    #[test]
    fn builder_rejects_zero_parameters() {
        let err = ClusterConfig::builder().groups(0).build().unwrap_err();
        assert_eq!(err, ConfigError::ZeroParameter("groups"));
    }

    #[test]
    fn builder_rejects_non_square_tile_count() {
        let err = ClusterConfig::builder()
            .tiles_per_group(12)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::TilesNotSquare(12));
    }

    #[test]
    fn builder_rejects_non_power_of_two_banks() {
        let err = ClusterConfig::builder()
            .banks_per_tile(12)
            .bank_words(256)
            .build();
        assert!(matches!(
            err,
            Err(ConfigError::NotPowerOfTwo {
                name: "banks_per_tile",
                value: 12
            })
        ));
    }

    #[test]
    fn builder_accepts_scaled_down_cluster() {
        let cfg = ClusterConfig::builder()
            .groups(2)
            .tiles_per_group(4)
            .cores_per_tile(2)
            .banks_per_tile(8)
            .bank_words(128)
            .build()
            .unwrap();
        assert_eq!(cfg.num_cores(), 16);
        assert_eq!(cfg.spm_bytes(), 2 * 4 * 8 * 128 * 4);
    }

    #[test]
    fn tile_iterator_covers_every_tile_once() {
        let cfg = ClusterConfig::builder()
            .groups(2)
            .tiles_per_group(4)
            .build()
            .unwrap();
        assert_eq!(cfg.tiles().count(), 8);
    }

    #[test]
    fn display_summarizes_shape() {
        let s = ClusterConfig::default().to_string();
        assert!(s.contains("4g x 16t x 4c"), "{s}");
        assert!(s.contains("SPM 1024 KiB"), "{s}");
    }

    /// `num_tiles`, `num_cores` and `num_banks` are plain `u32` products:
    /// a geometry whose counts overflow them is refused when it is built.
    #[test]
    fn counts_that_overflow_u32_are_a_config_error() {
        let refusal = |builder: ClusterConfigBuilder| match builder.build() {
            Ok(cfg) => panic!(
                "built {} tiles, {} cores, {} banks",
                cfg.num_tiles(),
                cfg.num_cores(),
                cfg.num_banks()
            ),
            Err(err) => err.to_string(),
        };
        let huge = ClusterConfig::builder()
            .groups(65_536)
            .tiles_per_group(65_536);
        assert!(refusal(huge).contains("tile count"));
        let wide = || ClusterConfig::builder().groups(256).tiles_per_group(65_536);
        assert!(refusal(wide().cores_per_tile(256)).contains("core count"));
        assert!(refusal(wide().cores_per_tile(1).banks_per_tile(256)).contains("bank count"));
        let cfg = wide()
            .cores_per_tile(1)
            .banks_per_tile(128)
            .build()
            .unwrap();
        assert_eq!(cfg.num_banks(), 1 << 31);
    }

    #[test]
    fn config_error_messages_are_lowercase_without_period() {
        let msg = ConfigError::ZeroParameter("groups").to_string();
        assert!(msg.starts_with("cluster parameter"));
        assert!(!msg.ends_with('.'));
    }
}
