//! Live test of the counting global allocator: this binary installs
//! [`CountingAllocator`] (no other test binary does), so allocation
//! deltas and the peak tracker can be asserted against real traffic.

use std::sync::{Mutex, MutexGuard};

use rein_telemetry::perf::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The counters are process-global, so the tests in this binary run one
/// at a time: another test freeing its blocks mid-measurement would
/// otherwise lower the outstanding bytes under a peak assertion.
static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Headroom for the test harness's own allocations and frees, which
/// still run on other threads while a test holds [`LOCK`].
const HARNESS_SLACK: u64 = 64 << 10;

#[test]
fn tracking_reports_active() {
    let _serial = serial();
    assert!(perf::alloc_tracking_active(), "global counting allocator must be detected");
}

#[test]
fn deltas_count_real_allocations() {
    let _serial = serial();
    let before = perf::alloc_snapshot();
    let blocks: Vec<Vec<u8>> = (0..10).map(|_| vec![0u8; 4096]).collect();
    let delta = perf::alloc_snapshot().since(&before);
    assert!(delta.allocs >= 10, "expected >= 10 allocations, saw {}", delta.allocs);
    assert!(
        delta.bytes_allocated >= 10 * 4096,
        "expected >= 40960 bytes, saw {}",
        delta.bytes_allocated
    );
    drop(blocks);
}

#[test]
fn peak_tracks_outstanding_bytes() {
    let _serial = serial();
    perf::reset_alloc_peak();
    let floor = perf::alloc_snapshot().peak_bytes;
    // One outstanding megabyte must raise the peak by that much, less
    // whatever the harness freed concurrently.
    let block = vec![0u8; 1 << 20];
    let peak = perf::alloc_snapshot().peak_bytes;
    assert!(
        peak + HARNESS_SLACK >= floor + (1 << 20),
        "peak {peak} must exceed pre-allocation floor {floor} by the block size"
    );
    drop(block);
    // Peak is a high-water mark: freeing must not lower it.
    assert!(perf::alloc_snapshot().peak_bytes >= peak);
}
