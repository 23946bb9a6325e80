//! Small shared helpers: order statistics, the seed hash, the micro-probes'
//! timing loop, and host facts (`nproc`, peak RSS).

use std::time::Instant;

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The SplitMix64 finalizer: a stateless hash of one word, used where an
/// input must be a pure function of `(seed, index)` and to spread nearby
/// `--seed`s before they seed a generator.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Host CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Loops `body` (which performs `batch` operations per call) until
/// `min_seconds` elapsed — at least once — and returns nanoseconds per
/// operation, or the first error `body` returns. The micro-probes' one
/// timing loop.
pub fn try_ns_per_op<E>(
    min_seconds: f64,
    batch: u64,
    mut body: impl FnMut() -> Result<(), E>,
) -> Result<f64, E> {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        body()?;
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_seconds {
            return Ok(elapsed * 1e9 / (calls * batch) as f64);
        }
    }
}

/// [`try_ns_per_op`] for a body that cannot fail.
pub fn ns_per_op(min_seconds: f64, batch: u64, mut body: impl FnMut()) -> f64 {
    let timed = try_ns_per_op(min_seconds, batch, || {
        body();
        Ok::<(), std::convert::Infallible>(())
    });
    match timed {
        Ok(ns) => ns,
        Err(never) => match never {},
    }
}
