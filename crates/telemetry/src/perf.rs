//! Performance primitives: the one sanctioned wall-clock source, an
//! optional counting global allocator, and a span-tree profiler.
//!
//! `crates/clippy.toml` disallows `Instant::now`/`SystemTime::now`
//! everywhere except this file — every other module (including the rest
//! of `rein-telemetry`) obtains time through [`now`] or [`Stopwatch`],
//! so wall-clock reads stay quarantined in one reviewable place.
//!
//! Three pieces:
//!
//! * **Monotonic timers** — [`now`] returns a monotonic [`Instant`];
//!   [`Stopwatch`] wraps start/elapsed for callers that only want a
//!   duration.
//! * **Allocation tracking** — [`CountingAllocator`] is a `GlobalAlloc`
//!   wrapper over the system allocator that counts allocations and
//!   bytes. A binary opts in with
//!   `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
//!   and reads [`alloc_snapshot`] deltas around the phases it measures.
//!   When no binary installs it, all counts stay zero.
//! * **Span-tree profiles** — [`span_profile`] folds a flat list of
//!   [`SpanRecord`]s into per-span-path statistics (total time, self
//!   time, call count), flamegraph-style: the path of a span is the
//!   `/`-joined chain of span names from its root to itself.

#![expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned wall-clock module: every timer in the workspace reads the clock through perf::now"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::span::SpanRecord;

/// The sanctioned monotonic-clock read. All timing in the workspace
/// flows through here (or [`Stopwatch`], which calls it).
#[inline]
pub fn now() -> Instant {
    Instant::now()
}

/// A started monotonic timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch { start: now() }
    }

    /// Wall-clock time elapsed since [`Stopwatch::start`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional milliseconds.
    #[inline]
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

// Allocation counters. Module-level statics (not fields of the
// allocator) so `alloc_snapshot` works without a handle to the
// installed `#[global_allocator]` static.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

#[inline]
fn record_alloc(size: u64) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(size, Ordering::Relaxed);
}

/// A counting wrapper over the system allocator. Install it from a
/// binary to light up allocation statistics:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: rein_telemetry::perf::CountingAllocator =
///     rein_telemetry::perf::CountingAllocator;
/// ```
///
/// Overhead is two relaxed atomic adds per allocation and none per free.
pub struct CountingAllocator;

// SAFETY: every method delegates directly to `System`, which upholds the
// GlobalAlloc contract; the atomic bookkeeping never touches the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            record_alloc(new_size as u64);
        }
        new_ptr
    }
}

/// A point-in-time reading of the allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Total `alloc`/`alloc_zeroed`/`realloc` calls.
    pub allocs: u64,
    /// Cumulative bytes requested across all allocations.
    pub bytes_allocated: u64,
}

impl AllocSnapshot {
    /// Allocation activity between `earlier` and `self`.
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocDelta {
        AllocDelta {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
        }
    }
}

/// Allocation activity over an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocation calls in the interval.
    pub allocs: u64,
    /// Bytes requested in the interval.
    pub bytes_allocated: u64,
}

/// Reads the current allocation counters. All-zero when no binary
/// installed the [`CountingAllocator`].
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
    }
}

/// Aggregated statistics of one span path.
///
/// The *path* of a span is the `/`-joined chain of span names from its
/// root ancestor down to itself (e.g. `"phase:detect/detect:raha"`); a
/// span whose parent already finished and was drained is treated as a
/// root. All identically-pathed spans fold into one entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanPathStat {
    /// `/`-joined span-name chain.
    pub path: String,
    /// How many spans had this path.
    pub count: u64,
    /// Sum of wall-clock durations of those spans.
    pub total_ms: f64,
    /// Total time minus the time spent in direct children — the
    /// flamegraph "self" time. Clamped at zero.
    pub self_ms: f64,
    /// Largest single span duration on this path.
    pub max_ms: f64,
}

/// Folds a flat span list into per-path statistics, sorted by path.
///
/// Sorting makes the output deterministic even though rayon fan-outs
/// finish spans in scheduling order; counts and paths depend only on
/// the span *tree*, which seeded runs reproduce exactly.
pub fn span_profile(spans: &[SpanRecord]) -> Vec<SpanPathStat> {
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();

    // Direct-children time per parent id, for self-time computation.
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if s.parent_id != 0 && by_id.contains_key(&s.parent_id) {
            *child_ms.entry(s.parent_id).or_insert(0.0) += s.duration_ms;
        }
    }

    // Memoized root-to-span paths.
    let mut paths: BTreeMap<u64, String> = BTreeMap::new();
    for s in spans {
        if paths.contains_key(&s.id) {
            continue;
        }
        // Walk up to the first ancestor with a memoized path (or a root).
        let mut chain: Vec<&SpanRecord> = vec![s];
        let mut cursor = s;
        while let Some(parent) = by_id.get(&cursor.parent_id) {
            if paths.contains_key(&parent.id) {
                break;
            }
            chain.push(parent);
            cursor = parent;
        }
        let mut prefix = by_id
            .get(&cursor.parent_id)
            .and_then(|p| paths.get(&p.id))
            .cloned()
            .unwrap_or_default();
        for link in chain.into_iter().rev() {
            if prefix.is_empty() {
                prefix = link.name.clone();
            } else {
                prefix = format!("{prefix}/{}", link.name);
            }
            paths.insert(link.id, prefix.clone());
        }
    }

    let mut agg: BTreeMap<String, SpanPathStat> = BTreeMap::new();
    for s in spans {
        let path = &paths[&s.id];
        let self_ms = (s.duration_ms - child_ms.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        let entry = agg.entry(path.clone()).or_insert_with(|| SpanPathStat {
            path: path.clone(),
            count: 0,
            total_ms: 0.0,
            self_ms: 0.0,
            max_ms: 0.0,
        });
        entry.count += 1;
        entry.total_ms += s.duration_ms;
        entry.self_ms += self_ms;
        entry.max_ms = entry.max_ms.max(s.duration_ms);
    }
    agg.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, id: u64, parent_id: u64, duration_ms: f64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            id,
            parent_id,
            depth: 0,
            start_ms: 0.0,
            duration_ms,
            trace_id: 0,
            instant: false,
        }
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ms();
        let b = sw.elapsed_ms();
        assert!(b >= a && a >= 0.0);
    }

    #[test]
    fn profile_folds_paths_and_computes_self_time() {
        let spans = vec![
            rec("root", 1, 0, 10.0),
            rec("child", 2, 1, 4.0),
            rec("child", 3, 1, 2.0),
            rec("leaf", 4, 2, 1.0),
        ];
        let profile = span_profile(&spans);
        let paths: Vec<&str> = profile.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(paths, ["root", "root/child", "root/child/leaf"]);
        let by_path = |p: &str| profile.iter().find(|s| s.path == p).unwrap();
        assert_eq!(by_path("root/child").count, 2);
        assert!((by_path("root/child").total_ms - 6.0).abs() < 1e-12);
        // Self time of root = 10 - (4 + 2); child self = 6 - 1.
        assert!((by_path("root").self_ms - 4.0).abs() < 1e-12);
        assert!((by_path("root/child").self_ms - 5.0).abs() < 1e-12);
        assert!((by_path("root/child").max_ms - 4.0).abs() < 1e-12);
    }

    #[test]
    fn orphaned_parent_becomes_root() {
        // Parent id 99 was drained earlier: the span roots itself.
        let profile = span_profile(&[rec("late", 5, 99, 3.0)]);
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].path, "late");
        assert!((profile[0].self_ms - 3.0).abs() < 1e-12);
    }

    #[test]
    fn alloc_snapshot_delta_is_saturating() {
        let a = AllocSnapshot { allocs: 10, bytes_allocated: 100 };
        let b = AllocSnapshot { allocs: 25, bytes_allocated: 300 };
        let d = b.since(&a);
        assert_eq!(d, AllocDelta { allocs: 15, bytes_allocated: 200 });
        // Reversed order saturates instead of wrapping.
        assert_eq!(a.since(&b), AllocDelta { allocs: 0, bytes_allocated: 0 });
    }
}
