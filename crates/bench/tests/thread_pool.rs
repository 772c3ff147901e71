//! The `REIN_THREADS` plumbing: scoped pools must actually govern the
//! width of parallel stages (including nested ones running on worker
//! threads), the override must not leak out of `install`, the global
//! installer must tolerate repeated calls, workers must claim items one
//! at a time, and a stage nested in a worker must run inline on it — the
//! properties `grid_smoke --mode parallel` and the bench binaries build
//! on.

use std::collections::BTreeSet;
use std::sync::{mpsc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

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

#[test]
fn nested_stages_run_inline_on_the_worker() {
    for width in [2usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("build pool");
        let runs: Vec<(ThreadId, Vec<ThreadId>)> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|_| {
                    let inner =
                        (0..8usize).into_par_iter().map(|_| std::thread::current().id()).collect();
                    (std::thread::current().id(), inner)
                })
                .collect()
        });
        for (outer, inner) in &runs {
            assert!(
                inner.iter().all(|id| id == outer),
                "width {width}: nested stage left its worker"
            );
        }
        let workers: BTreeSet<String> = runs.iter().map(|(id, _)| format!("{id:?}")).collect();
        assert!(workers.len() <= width, "width {width} ran {} threads", workers.len());
    }
}

#[test]
fn results_keep_input_order_behind_a_slow_first_item() {
    const ITEMS: usize = 32;
    for width in [2usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("build pool");
        let (done, finished) = mpsc::channel();
        let finished = Mutex::new(finished);
        let out: Vec<(usize, usize)> = pool.install(|| {
            (0..ITEMS)
                .into_par_iter()
                .map(|i| {
                    if i > 0 {
                        done.send(()).expect("the first item is listening");
                        return (i, 0);
                    }
                    // Hold the first item until every other item has
                    // finished (bounded, so a scheduler that queues items
                    // behind it fails instead of hanging): only workers
                    // claiming items from one shared queue get there.
                    let finished = finished.lock().expect("one listener");
                    let wait = Duration::from_secs(10);
                    (i, (1..ITEMS).take_while(|_| finished.recv_timeout(wait).is_ok()).count())
                })
                .collect()
        });
        let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..ITEMS).collect::<Vec<_>>(), "width {width}");
        assert_eq!(out[0].1, ITEMS - 1, "width {width}: items waited behind the slow one");
    }
}
