//! Named counters and duration histograms.
//!
//! Handles returned by [`counter`] and [`histogram`] are `Arc`s onto
//! atomic storage: look one up once, then increment from any thread
//! (including rayon workers) without touching the registry lock again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// A monotonically increasing named counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

fn counter_registry() -> &'static Mutex<BTreeMap<String, Arc<AtomicU64>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<AtomicU64>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Looks up (or registers) the counter `name`.
pub fn counter(name: &str) -> Counter {
    #[expect(clippy::expect_used, reason = "registry lock poisoning only follows another panic")]
    let mut registry = counter_registry().lock().expect("counter registry lock");
    let cell = registry.entry(name.to_string()).or_insert_with(|| Arc::new(AtomicU64::new(0)));
    Counter(Arc::clone(cell))
}

/// Current value of every registered counter.
#[expect(clippy::expect_used, reason = "registry lock poisoning only follows another panic")]
pub fn counters_snapshot() -> BTreeMap<String, u64> {
    counter_registry()
        .lock()
        .expect("counter registry lock")
        .iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
        .collect()
}

/// Histogram buckets: bucket `i` holds durations whose nanosecond count
/// has its highest set bit at position `i-1`, i.e. the half-open range
/// `[2^(i-1), 2^i)` ns; bucket 0 holds exactly 0 ns. 64 buckets cover
/// every representable duration.
const BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed duration histogram.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive-exclusive nanosecond bounds of bucket `i`.
fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 1.0)
    } else {
        (2f64.powi(i as i32 - 1), 2f64.powi(i as i32))
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.0.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, by
    /// linear interpolation inside the bucket containing the target
    /// rank, clamped to the exact maximum (a few observations low in a
    /// wide bucket would otherwise interpolate far above it). Returns
    /// 0.0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let max = self.0.max_ns.load(Ordering::Relaxed) as f64;
        let target = q.clamp(0.0, 1.0) * count as f64;
        let mut cumulative = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if cumulative as f64 + in_bucket as f64 >= target {
                let (lo, hi) = bucket_bounds(i);
                let rank_in_bucket = (target - cumulative as f64).max(0.0);
                let fraction = (rank_in_bucket / in_bucket as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * fraction).min(max);
            }
            cumulative += in_bucket;
        }
        max
    }

    /// Snapshot of derived statistics.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum_ns = self.0.sum_ns.load(Ordering::Relaxed);
        let to_ms = |ns: f64| ns / 1e6;
        HistogramSummary {
            count,
            mean_ms: if count == 0 { 0.0 } else { to_ms(sum_ns as f64 / count as f64) },
            p50_ms: to_ms(self.quantile_ns(0.50)),
            p90_ms: to_ms(self.quantile_ns(0.90)),
            p95_ms: to_ms(self.quantile_ns(0.95)),
            p99_ms: to_ms(self.quantile_ns(0.99)),
            max_ms: to_ms(self.0.max_ns.load(Ordering::Relaxed) as f64),
        }
    }
}

/// Derived statistics of one histogram, in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Exact mean (from the running sum, not the buckets).
    pub mean_ms: f64,
    /// Median, interpolated within its bucket.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 95th percentile. `#[serde(default)]` so manifests written before
    /// the percentile surfacing (PR 9) still deserialize.
    #[serde(default)]
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Exact maximum.
    pub max_ms: f64,
}

fn histogram_registry() -> &'static Mutex<BTreeMap<String, Arc<HistogramInner>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Arc<HistogramInner>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Looks up (or registers) the duration histogram `name`.
pub fn histogram(name: &str) -> Histogram {
    #[expect(clippy::expect_used, reason = "registry lock poisoning only follows another panic")]
    let mut registry = histogram_registry().lock().expect("histogram registry lock");
    let inner = registry.entry(name.to_string()).or_insert_with(|| Arc::new(HistogramInner::new()));
    Histogram(Arc::clone(inner))
}

/// Summary of every registered histogram.
pub fn histograms_snapshot() -> BTreeMap<String, HistogramSummary> {
    #[expect(clippy::expect_used, reason = "registry lock poisoning only follows another panic")]
    let names: Vec<String> =
        histogram_registry().lock().expect("histogram registry lock").keys().cloned().collect();
    names.into_iter().map(|name| (name.clone(), histogram(&name).summary())).collect()
}

pub(crate) fn reset_metrics() {
    #[expect(clippy::expect_used, reason = "registry lock poisoning only follows another panic")]
    for cell in counter_registry().lock().expect("counter registry lock").values() {
        cell.store(0, Ordering::Relaxed);
    }
    #[expect(clippy::expect_used, reason = "registry lock poisoning only follows another panic")]
    for inner in histogram_registry().lock().expect("histogram registry lock").values() {
        for bucket in &inner.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        inner.count.store(0, Ordering::Relaxed);
        inner.sum_ns.store(0, Ordering::Relaxed);
        inner.max_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_percentiles_are_monotone_and_include_p95() {
        let h = histogram("test:percentile_monotonicity");
        for i in 1..=100u64 {
            h.record(Duration::from_micros(i * 10));
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50_ms > 0.0);
        assert!(s.p50_ms <= s.p90_ms, "p50 {} > p90 {}", s.p50_ms, s.p90_ms);
        assert!(s.p90_ms <= s.p95_ms, "p90 {} > p95 {}", s.p90_ms, s.p95_ms);
        assert!(s.p95_ms <= s.p99_ms, "p95 {} > p99 {}", s.p95_ms, s.p99_ms);
        assert!(s.p99_ms <= s.max_ms, "p99 {} > max {}", s.p99_ms, s.max_ms);
    }

    #[test]
    fn percentiles_never_exceed_the_exact_max() {
        // All three land low in the [2^20, 2^21) ns bucket, whose upper
        // bound is ~2.1 ms: unclamped interpolation reads p99 ≈ 2.087 ms.
        let h = histogram("test:percentile_clamp");
        for us in [1100, 1200, 1300] {
            h.record(Duration::from_micros(us));
        }
        let s = h.summary();
        assert!((s.max_ms - 1.3).abs() < 1e-9, "max {}", s.max_ms);
        assert!(s.p95_ms <= s.max_ms, "p95 {} > max {}", s.p95_ms, s.max_ms);
        assert!(s.p99_ms <= s.max_ms, "p99 {} > max {}", s.p99_ms, s.max_ms);
    }

    #[test]
    fn pre_percentile_summaries_deserialize_with_default_p95() {
        let old =
            r#"{"count":3,"mean_ms":1.0,"p50_ms":1.0,"p90_ms":2.0,"p99_ms":3.0,"max_ms":3.0}"#;
        let s: HistogramSummary = serde_json::from_str(old).expect("pre-p95 summary parses");
        assert_eq!(s.p95_ms, 0.0);
        assert_eq!(s.p99_ms, 3.0);
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for ns in [0u64, 1, 2, 3, 1_000, 1_000_000, u64::MAX] {
            let i = bucket_index(ns);
            let (lo, hi) = bucket_bounds(i);
            assert!((ns as f64) >= lo || ns == 0, "{ns} below bucket {i} lower bound {lo}");
            assert!((ns as f64) < hi || i == BUCKETS - 1, "{ns} above bucket {i} bound {hi}");
        }
    }
}
