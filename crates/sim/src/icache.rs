//! Per-tile L1 instruction cache model.
//!
//! MemPool tiles share a 2 KiB instruction cache among their four cores.
//! The paper measures compute phases "with a hot instruction cache"
//! (Section VI-A), so the model's job is to (a) charge realistic penalties
//! on cold starts and kernels that overflow the cache, and (b) support a
//! preloaded hot state for phase measurements.
//!
//! The model is a set-associative cache (direct-mapped by default) of
//! `lines` lines of `line_words` instructions each with LRU replacement,
//! tracked by tag only (instruction bits always come from the shared
//! [`Program`](mempool_isa::Program)).

/// Set-associative instruction cache state for one tile (direct-mapped
/// by default, matching MemPool's lightweight shared I$).
#[derive(Debug, Clone)]
pub struct ICache {
    /// Tags, `sets x ways`, row-major; `u32::MAX` marks an invalid way.
    tags: Vec<u32>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    line_words: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

const INVALID: u32 = u32::MAX;

/// The mutable state a checkpoint keeps of a cache: tags, LRU stamps, the
/// LRU clock, hits and misses.
pub(crate) type ICacheState = (Vec<u32>, Vec<u64>, u64, u64, u64);

impl ICache {
    /// Creates a cold direct-mapped cache with capacity for
    /// `capacity_bytes` of instructions in lines of `line_words` words.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero lines or words) or not a
    /// power of two.
    pub fn new(capacity_bytes: u32, line_words: u32) -> Self {
        Self::with_ways(capacity_bytes, line_words, 1)
    }

    /// The number of lines a cache of this geometry holds, or why there is
    /// no such cache: it must hold at least one line, line words, line
    /// count and ways must be powers of two, and a set cannot have more
    /// ways than there are lines.
    pub(crate) fn check_geometry(
        capacity_bytes: u32,
        line_words: u32,
        ways: u32,
    ) -> Result<u32, String> {
        if !line_words.is_power_of_two() {
            return Err(format!(
                "line words must be a power of two, got {line_words}"
            ));
        }
        if !ways.is_power_of_two() {
            return Err(format!("associativity must be a power of two, got {ways}"));
        }
        let lines = line_words
            .checked_mul(4)
            .map_or(0, |line_bytes| capacity_bytes / line_bytes);
        if lines == 0 {
            return Err(format!(
                "icache must hold at least one line: {capacity_bytes} bytes, \
                 {line_words}-word lines"
            ));
        }
        if !lines.is_power_of_two() {
            return Err(format!(
                "icache line count must be a power of two, got {lines}"
            ));
        }
        if ways > lines {
            return Err(format!(
                "associativity exceeds the line count: {ways} ways, {lines} lines"
            ));
        }
        Ok(lines)
    }

    /// Creates a cold `ways`-way set-associative cache with LRU
    /// replacement.
    ///
    /// # Panics
    ///
    /// Panics if `check_geometry` rejects the geometry.
    pub fn with_ways(capacity_bytes: u32, line_words: u32, ways: u32) -> Self {
        let lines = Self::check_geometry(capacity_bytes, line_words, ways)
            .unwrap_or_else(|rule| panic!("{rule}"));
        let sets = (lines / ways) as usize;
        ICache {
            tags: vec![INVALID; lines as usize],
            stamps: vec![0; lines as usize],
            sets,
            ways: ways as usize,
            line_words,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_of(&self, pc: u32) -> (usize, u32) {
        let line_bytes = self.line_words * 4;
        let line_addr = pc / line_bytes;
        let set = (line_addr as usize) % self.sets;
        (set, line_addr)
    }

    fn install(&mut self, set: usize, tag: u32) {
        let base = set * self.ways;
        let victim = (0..self.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("at least one way");
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
    }

    /// Looks up `pc`. On a miss, the line is refilled (LRU way replaced)
    /// and `false` is returned; the caller charges the miss penalty.
    #[inline]
    pub fn access(&mut self, pc: u32) -> bool {
        self.clock += 1;
        let (set, tag) = self.set_of(pc);
        let base = set * self.ways;
        for way in 0..self.ways {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.clock;
                self.hits += 1;
                return true;
            }
        }
        self.install(set, tag);
        self.misses += 1;
        false
    }

    /// Preloads the cache with the lines covering `program_words`
    /// instructions starting at pc 0, modeling the paper's hot-cache
    /// measurement. Programs larger than the cache leave the earliest lines
    /// evicted, exactly as a real warm-up pass would.
    pub fn preload(&mut self, program_words: u32) {
        let mut pc = 0;
        while pc < program_words * 4 {
            self.clock += 1;
            let (set, tag) = self.set_of(pc);
            let base = set * self.ways;
            if !(0..self.ways).any(|w| self.tags[base + w] == tag) {
                self.install(set, tag);
            }
            pc += self.line_words * 4;
        }
    }

    /// Invalidates all lines.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
        self.stamps.fill(0);
    }

    /// Snapshot of the mutable cache state, for checkpointing. Geometry
    /// (`sets`, `ways`, `line_words`) is rebuilt from configuration on
    /// restore.
    pub(crate) fn state_snapshot(&self) -> ICacheState {
        (
            self.tags.clone(),
            self.stamps.clone(),
            self.clock,
            self.hits,
            self.misses,
        )
    }

    /// Restores the mutable cache state from a checkpoint. Fails (with a
    /// description) if the saved arrays do not match this cache's geometry.
    pub(crate) fn restore_state(
        &mut self,
        (tags, stamps, clock, hits, misses): ICacheState,
    ) -> Result<(), String> {
        if tags.len() != self.tags.len() || stamps.len() != self.stamps.len() {
            return Err(format!(
                "icache geometry mismatch: saved {}/{} entries, cache holds {}",
                tags.len(),
                stamps.len(),
                self.tags.len()
            ));
        }
        self.tags = tags;
        self.stamps = stamps;
        self.clock = clock;
        self.hits = hits;
        self.misses = misses;
        Ok(())
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cache_misses_then_hits() {
        let mut c = ICache::new(2048, 8);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(28)); // same 32-byte line
        assert!(!c.access(32)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn preload_makes_small_programs_hit() {
        let mut c = ICache::new(2048, 8);
        c.preload(128); // 512 B program
        for pc in (0..512).step_by(4) {
            assert!(c.access(pc), "pc {pc} should hit after preload");
        }
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn oversized_programs_conflict() {
        // 2 KiB cache, 4 KiB program: preloading wraps and the first half is
        // evicted.
        let mut c = ICache::new(2048, 8);
        c.preload(1024);
        assert!(c.access(2048), "second half must survive the preload wrap");
        assert!(!c.access(0), "first half must have been evicted");
    }

    #[test]
    fn flush_invalidates() {
        let mut c = ICache::new(2048, 8);
        c.access(0);
        c.flush();
        assert!(!c.access(0));
    }

    #[test]
    fn distinct_lines_map_to_distinct_sets_until_wrap() {
        let mut c = ICache::new(2048, 8);
        // 64 lines of 32 bytes: 2 KiB of straight-line code all fits.
        for line in 0..64u32 {
            assert!(!c.access(line * 32));
        }
        for line in 0..64u32 {
            assert!(c.access(line * 32), "line {line} evicted unexpectedly");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_words_panics() {
        let _ = ICache::new(2048, 3);
    }

    #[test]
    fn two_way_cache_survives_aliasing_that_kills_direct_mapped() {
        // Two lines 2 KiB apart alias in a direct-mapped 2 KiB cache but
        // coexist in a 2-way one.
        let mut direct = ICache::new(2048, 8);
        let mut assoc = ICache::with_ways(2048, 8, 2);
        for _ in 0..8 {
            direct.access(0);
            direct.access(2048);
            assoc.access(0);
            assoc.access(2048);
        }
        assert!(direct.misses() >= 16, "direct-mapped must thrash");
        assert_eq!(assoc.misses(), 2, "2-way keeps both lines resident");
    }

    #[test]
    fn lru_evicts_the_oldest_way() {
        // 2-way: lines A, B fill a set; touching A then inserting C must
        // evict B.
        let mut c = ICache::with_ways(2048, 8, 2);
        let stride = 2048; // same set, different tags
        c.access(0); // A
        c.access(stride); // B
        c.access(0); // A again: B is now LRU
        assert!(!c.access(2 * stride)); // C evicts B
        assert!(c.access(0), "A must survive");
        assert!(!c.access(stride), "B was evicted");
    }

    #[test]
    #[should_panic(expected = "associativity exceeds")]
    fn too_many_ways_panics() {
        let _ = ICache::with_ways(2048, 8, 128);
    }
}
