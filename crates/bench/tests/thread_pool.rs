//! The `REIN_THREADS` plumbing: scoped pools must actually govern the
//! width of parallel stages (including nested ones running on worker
//! threads), the override must not leak out of `install`, the global
//! installer must tolerate repeated calls, and workers must claim items
//! one at a time. A stage nested in an item runs on that item's thread
//! and takes every slot a finished worker hands back, never running
//! items on more threads than the pool is wide, and runs inline while
//! every slot is busy — the properties `grid_smoke --mode parallel`, the
//! bench binaries and `rein_guard::fan_out` build on. The tests that
//! wait on other threads synchronise through channels with bounded
//! waits, so a wrong scheduler fails them instead of hanging.
#![expect(
    clippy::disallowed_methods,
    reason = "these tests pin the vendored rayon's own scheduling"
)]

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use rayon::prelude::*;

/// How long a test waits on another thread before failing.
const WAIT: Duration = Duration::from_secs(10);

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

thread_local! {
    /// Stage items open on this thread (a nested one counts too).
    static OPEN_ITEMS: Cell<usize> = const { Cell::new(0) };
    /// Sends on its channel when this thread exits.
    static ON_EXIT: RefCell<Option<NotifyOnExit>> = const { RefCell::new(None) };
}

/// Counts the threads running stage items and their peak.
#[derive(Default)]
struct Busy {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl Busy {
    /// Runs `op` as a stage item of this thread.
    fn item<R>(&self, op: impl FnOnce() -> R) -> R {
        if OPEN_ITEMS.with(|open| open.replace(open.get() + 1)) == 0 {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }
        let out = op();
        if OPEN_ITEMS.with(|open| open.replace(open.get() - 1)) == 1 {
            self.now.fetch_sub(1, Ordering::SeqCst);
        }
        out
    }
}

struct NotifyOnExit(mpsc::Sender<()>);

impl Drop for NotifyOnExit {
    fn drop(&mut self) {
        self.0.send(()).ok();
    }
}

#[test]
fn never_more_than_width_threads_run_items() {
    for width in [2usize, 3] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("build pool");
        let busy = Busy::default();
        let sums: Vec<usize> = pool.install(|| {
            (0..2 * width)
                .into_par_iter()
                .map(|i| {
                    busy.item(|| {
                        // Uneven outer items free their slots at
                        // different times, so later nested stages
                        // take helpers while earlier ones still run.
                        (0..4 + 2 * i)
                            .into_par_iter()
                            .map(|j| {
                                busy.item(|| std::thread::sleep(Duration::from_millis(2)));
                                j
                            })
                            .sum()
                    })
                })
                .collect()
        });
        let want: Vec<usize> = (0..2 * width).map(|i| (0..4 + 2 * i).sum()).collect();
        assert_eq!(sums, want, "width {width}");
        let peak = busy.peak.load(Ordering::SeqCst);
        assert!(peak <= width, "width {width}: {peak} threads ran items at once");
    }
}

#[test]
fn a_stage_nested_while_every_slot_is_busy_runs_inline() {
    const WIDTH: usize = 2;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(WIDTH).build().expect("build pool");
    // Each outer item tells the other when its nested stage has ended
    // and waits for the other's word before returning, so neither
    // worker hands its slot back while a nested stage runs.
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..WIDTH).map(|_| mpsc::channel()).unzip();
    let receivers: Vec<Mutex<mpsc::Receiver<()>>> = receivers.into_iter().map(Mutex::new).collect();
    let runs: Vec<(ThreadId, Vec<ThreadId>, bool)> = pool.install(|| {
        (0..WIDTH)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<ThreadId> =
                    (0..8usize).into_par_iter().map(|_| std::thread::current().id()).collect();
                senders[1 - i].send(()).expect("the other item is listening");
                let met = receivers[i].lock().expect("one listener").recv_timeout(WAIT).is_ok();
                (std::thread::current().id(), inner, met)
            })
            .collect()
    });
    for (outer, inner, met) in &runs {
        assert!(met, "the two outer items never ran at once");
        assert!(inner.iter().all(|id| id == outer), "a nested stage left its busy worker");
    }
}

#[test]
fn a_slot_handed_back_is_taken_by_a_running_nested_stage() {
    const NESTED: usize = 8;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("build pool");
    let (exit_tx, exited) = mpsc::channel();
    let (exit_tx, exited) = (Mutex::new(Some(exit_tx)), Mutex::new(exited));
    let (helped_tx, helped) = mpsc::channel();
    let helped = Mutex::new(helped);
    let seen_help = AtomicBool::new(false);
    // Per nested item of the long outer item: (ran on a helper, waited
    // without timing out).
    let runs: Vec<Vec<(bool, bool)>> = pool.install(|| {
        (0..2usize)
            .into_par_iter()
            .map(|i| {
                if i == 1 {
                    // The short item: its worker finds the queue empty,
                    // hands its slot back and exits, which fires this.
                    let tx = exit_tx.lock().expect("one sender").take().expect("one short item");
                    ON_EXIT.with(|slot| *slot.borrow_mut() = Some(NotifyOnExit(tx)));
                    return Vec::new();
                }
                let me = std::thread::current().id();
                (0..NESTED)
                    .into_par_iter()
                    .map(|j| {
                        if std::thread::current().id() != me {
                            helped_tx.send(()).ok();
                            return (true, true);
                        }
                        // The first nested item waits for the short
                        // worker's exit; the next one on this thread, for
                        // an item to run on a helper that took the freed
                        // slot.
                        let ok = if j == 0 {
                            exited.lock().expect("one listener").recv_timeout(WAIT).is_ok()
                        } else if seen_help.load(Ordering::SeqCst) {
                            true
                        } else {
                            let ok =
                                helped.lock().expect("one listener").recv_timeout(WAIT).is_ok();
                            seen_help.store(true, Ordering::SeqCst);
                            ok
                        };
                        (false, ok)
                    })
                    .collect()
            })
            .collect()
    });
    assert!(runs[0].iter().all(|&(_, ok)| ok), "a wait timed out: {:?}", runs[0]);
    assert!(
        runs[0].iter().any(|&(helper, _)| helper),
        "no nested item ran on the slot the finished worker handed back"
    );
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
