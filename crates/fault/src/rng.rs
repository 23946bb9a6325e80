//! Deterministic pseudo-random number generation for fault schedules.
//!
//! Fault plans must be exactly reproducible from a seed — across runs,
//! machines, and build profiles — so the generator is a plain xorshift64
//! with no hidden global state and no platform-dependent behavior.

/// A xorshift64 generator (Marsaglia, 2003).
///
/// Deterministic: the same seed always yields the same sequence.
///
/// # Example
///
/// ```
/// use mempool_fault::XorShift64;
///
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. Seed 0 (the xorshift fixed point)
    /// is replaced by a fixed odd constant, so every seed is usable.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A uniform sample in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform sample in `[0, n)`; returns 0 when `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = XorShift64::new(123);
        let mut b = XorShift64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = XorShift64::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn f64_samples_stay_in_unit_interval() {
        let mut rng = XorShift64::new(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = XorShift64::new(9);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = XorShift64::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
