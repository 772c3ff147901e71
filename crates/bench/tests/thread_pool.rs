//! The `REIN_THREADS` plumbing: scoped pools must actually govern the
//! width of parallel stages (including nested ones running on worker
//! threads), the override must not leak out of `install`, and the
//! global installer must tolerate repeated calls — the properties
//! `grid_smoke --mode parallel` and the bench binaries build on.

use rayon::prelude::*;

#[test]
fn scoped_pool_width_governs_nested_stages() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("build pool");
    assert_eq!(pool.current_num_threads(), 3);
    let widths: Vec<usize> = pool
        .install(|| (0..8usize).into_par_iter().map(|_| rayon::current_num_threads()).collect());
    assert!(widths.iter().all(|&w| w == 3), "workers inherit the scoped width: {widths:?}");
}

#[test]
fn scoped_pools_nest_and_restore() {
    let outer = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("build pool");
    let inner = rayon::ThreadPoolBuilder::new().num_threads(5).build().expect("build pool");
    outer.install(|| {
        assert_eq!(rayon::current_num_threads(), 2);
        inner.install(|| assert_eq!(rayon::current_num_threads(), 5));
        // The outer override is restored when the inner scope ends.
        assert_eq!(rayon::current_num_threads(), 2);
    });
}

#[test]
fn install_thread_pool_is_idempotent() {
    // The first global configuration wins; repeat calls are harmless
    // no-ops — bench binaries call this unconditionally.
    rein_bench::install_thread_pool();
    rein_bench::install_thread_pool();
    assert!(rayon::current_num_threads() >= 1);
}

#[test]
fn scoped_width_preserves_parallel_results() {
    let data: Vec<u64> = (0..100).collect();
    let serial: Vec<u64> = data.iter().map(|&x| x * 3).collect();
    for threads in [1usize, 4, 7] {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("build pool");
        let parallel: Vec<u64> = pool.install(|| data.par_iter().map(|&x| x * 3).collect());
        assert_eq!(parallel, serial, "order must not depend on the pool width ({threads})");
    }
}
