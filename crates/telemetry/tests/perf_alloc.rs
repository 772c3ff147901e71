//! Live test of the counting global allocator: this binary installs
//! [`CountingAllocator`] (no other test binary does), so allocation
//! deltas can be asserted against real traffic.

use rein_telemetry::perf::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn deltas_count_real_allocations() {
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
