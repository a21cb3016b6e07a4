//! Measurement primitives: a counting global allocator, sample
//! statistics, and the process's peak resident memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The system allocator plus a per-thread allocation counter that only
/// counts while [`count_allocs`] has switched it on, so untraced runs pay
/// one relaxed load per allocation. Per-thread, because the simulations
/// it measures are single-threaded and a shared atomic would cost more
/// than some of the work it counts.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        // `try_with` fails only while the thread is being torn down.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, and its `const` thread-local needs no
// allocation to initialise.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off (process-wide).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) counted so far on this thread.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its host time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs_since(t))
}

/// The median of `xs` (the mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`-th percentile of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9, p99 and p90 that has at least ten samples
/// beyond it, with its value; `None` when the sample is too small for
/// any tail percentile.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    // Per-mille ranks keep the "ten beyond" test in exact integers.
    [999usize, 990, 900]
        .into_iter()
        .find(|&pm| sorted.len() * (1000 - pm) >= 10_000)
        .map(|pm| {
            let p = pm as f64 / 10.0;
            (p, percentile_sorted(sorted, p))
        })
}

/// Renders one end-to-end timing: median, the supported tail
/// percentile, and the sample count.
pub fn describe(name: &str, unit: &str, xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let tail = match supported_tail(&v) {
        Some((p, value)) => format!("p{p} {value:.6} {unit}"),
        None => "no tail percentile (fewer than 100 samples)".to_string(),
    };
    format!(
        "{name}: median {:.6} {unit}, {tail}, n={}",
        median(&v),
        v.len()
    )
}

/// 64-bit FNV-1a of `bytes`, for compact output fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500.0);
        assert_eq!(percentile_sorted(&v, 99.0), 990.0);
        assert_eq!(supported_tail(&v), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&v[..100]), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&v[..19]), None);
    }
}
