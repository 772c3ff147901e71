//! Cooperative, deterministic deadline budgets.
//!
//! A [`Budget`] is a tick allowance derived from the master seed and the
//! per-strategy cell count — never from the wall clock, so exhaustion is
//! byte-reproducible across machines and repeats. [`crate::run`] installs
//! the budget in a thread-local slot for the duration of one guarded
//! attempt; long-running kernels call [`checkpoint`] at loop boundaries,
//! which is a no-op outside a guarded region and debits the allowance
//! inside one. Crossing the allowance unwinds with a typed
//! [`BudgetExhausted`] payload that the guard converts into a structured
//! failure.
//!
//! The budget is cooperative by design: a kernel that never checkpoints
//! cannot be interrupted (that is the price of determinism). A kernel
//! that fans work out inside a guarded attempt (a forest's trees,
//! Picket's per-column fits) goes through [`fan_out`], which carries the
//! budget to whichever pool thread claims each item: every item runs
//! under its own budget, equal to the cell's remaining allowance, and the
//! join debits the items' ticks in item order. So a fan-out's ticks and
//! failures are the same at every pool width, and the same whether its
//! guard runs inside a parallel stage or outside one. A stage started
//! any other way runs its items on threads that may not see the slot.
//! Exhaustion stays byte-reproducible; the budget catches runaways and
//! does not bound normal work (DESIGN §6e).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use rayon::prelude::*;

use rein_data::rng::derive_seed;
use rein_telemetry::fnv1a64;

/// Ticks granted per grid cell of the strategy under guard.
pub const TICKS_PER_CELL: u64 = 10_000;

/// Floor on any allowance, so tiny datasets still get room to finish.
pub const MIN_ALLOWANCE: u64 = 1_000_000;

/// Width of the seeded jitter mixed into an allowance (see
/// [`Budget::derive`]).
const JITTER_WIDTH: u64 = 1024;

/// A tick allowance with its running spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Total ticks granted.
    pub allowance: u64,
    /// Ticks debited so far.
    pub spent: u64,
}

impl Budget {
    /// A budget with an explicit allowance (tests and stall injection).
    pub fn explicit(allowance: u64) -> Self {
        Budget { allowance, spent: 0 }
    }

    /// The standard allowance for a strategy: `max(MIN_ALLOWANCE,
    /// TICKS_PER_CELL × cells)` plus a small seed-derived jitter. The
    /// jitter decorrelates exhaustion boundaries across strategies and
    /// seeds while staying a pure function of `(seed, strategy, cells)`.
    pub fn derive(seed: u64, strategy: &str, cells: u64) -> Self {
        let base = MIN_ALLOWANCE.max(cells.saturating_mul(TICKS_PER_CELL));
        let jitter = derive_seed(seed, fnv1a64(strategy.as_bytes()) ^ cells) % JITTER_WIDTH;
        Budget { allowance: base.saturating_add(jitter), spent: 0 }
    }
}

/// Typed panic payload raised by [`checkpoint`] when the allowance is
/// crossed. Never printed by the default panic hook — the guard silences
/// hooks inside its supervision window and downcasts the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Ticks spent when the budget tripped.
    pub spent: u64,
    /// The allowance that was crossed.
    pub allowance: u64,
}

thread_local! {
    static ACTIVE: Cell<Option<Budget>> = const { Cell::new(None) };
}

/// Restores the previously-installed budget when a guarded attempt ends,
/// including by unwind.
pub(crate) struct BudgetScope {
    prev: Option<Budget>,
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        ACTIVE.with(|slot| slot.set(self.prev));
    }
}

/// Installs `budget` for the current thread until the scope drops.
pub(crate) fn install(budget: Budget) -> BudgetScope {
    let prev = ACTIVE.with(|slot| slot.replace(Some(budget)));
    BudgetScope { prev }
}

/// The installed budget's `(spent, allowance)`, if any. Diagnostic only.
pub fn current_budget() -> Option<(u64, u64)> {
    ACTIVE.with(|slot| slot.get().map(|b| (b.spent, b.allowance)))
}

/// Debits `cost` ticks from the installed budget, unwinding with
/// [`BudgetExhausted`] once the allowance is crossed. A no-op when no
/// budget is installed (code running outside a guard), so kernels can
/// checkpoint unconditionally.
pub fn checkpoint(cost: u64) {
    ACTIVE.with(|slot| {
        if let Some(mut budget) = slot.get() {
            budget.spent = budget.spent.saturating_add(cost);
            slot.set(Some(budget));
            if budget.spent > budget.allowance {
                exhausted(budget);
            }
        }
    });
}

/// Unwinds with `budget`'s spend and allowance.
fn exhausted(budget: Budget) -> ! {
    #[expect(
        clippy::panic,
        reason = "exhaustion unwinds to the enclosing guard, which catches it and degrades the cell"
    )]
    std::panic::panic_any(BudgetExhausted { spent: budget.spent, allowance: budget.allowance })
}

/// Runs `f` over `items` as one parallel stage on the pool and returns
/// the results in item order: the one route for a fan-out inside a grid
/// cell. Each item runs under its own budget, equal to the installed
/// budget's remaining allowance, on whichever thread claims it, with the
/// caller's panic-hook silence and under the caller's innermost span.
/// The join then debits the items' ticks in item order and re-raises the
/// lowest-index item's failure (an exhausted item as the installed
/// budget's exhaustion), or trips if the ticks cross the allowance. Every
/// item runs to its end or its own failure, so ticks and failures are the
/// same at every pool width and on every thread. Outside a guard, items
/// run without a budget and the lowest-index panic is re-raised.
pub fn fan_out<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let cell = ACTIVE.with(|slot| slot.get());
    let share = cell.map(|b| Budget::explicit(b.allowance.saturating_sub(b.spent)));
    let silent = crate::in_guard();
    let parent = rein_telemetry::current();
    #[expect(
        clippy::disallowed_methods,
        reason = "fan_out is the one route for a fan-out inside a cell: it carries the budget to every item"
    )]
    let ran: Vec<(std::thread::Result<R>, u64)> = items
        .into_par_iter()
        .map(|item| {
            let _share = share.map(install);
            let _silence = silent.then(crate::HookSilence::engage);
            let _parent = parent.map(rein_telemetry::adopt);
            let out = catch_unwind(AssertUnwindSafe(|| f(item)));
            (out, current_budget().map_or(0, |(spent, _)| spent))
        })
        .collect();
    let mut failure = None;
    let mut results = Vec::with_capacity(ran.len());
    let mut spent = cell.map_or(0, |b| b.spent);
    for (out, ticks) in ran {
        spent = spent.saturating_add(ticks);
        match out {
            Ok(r) => results.push(r),
            Err(payload) => {
                failure.get_or_insert(payload);
            }
        }
    }
    let Some(mut budget) = cell else {
        return match failure {
            Some(payload) => resume_unwind(payload),
            None => results,
        };
    };
    budget.spent = spent;
    ACTIVE.with(|slot| slot.set(Some(budget)));
    match failure {
        Some(payload) if payload.is::<BudgetExhausted>() => exhausted(budget),
        Some(payload) => resume_unwind(payload),
        None if budget.spent > budget.allowance => exhausted(budget),
        None => results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_a_noop_without_a_budget() {
        checkpoint(u64::MAX); // must not panic
        assert_eq!(current_budget(), None);
    }

    #[test]
    fn checkpoint_debits_and_trips() {
        let scope = install(Budget::explicit(5));
        checkpoint(3);
        assert_eq!(current_budget(), Some((3, 5)));
        let tripped = std::panic::catch_unwind(|| checkpoint(10)).unwrap_err();
        let payload = tripped.downcast::<BudgetExhausted>().expect("typed payload");
        assert_eq!(*payload, BudgetExhausted { spent: 13, allowance: 5 });
        drop(scope);
        assert_eq!(current_budget(), None);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = install(Budget::explicit(100));
        checkpoint(7);
        {
            let inner = install(Budget::explicit(50));
            checkpoint(1);
            assert_eq!(current_budget(), Some((1, 50)));
            drop(inner);
        }
        assert_eq!(current_budget(), Some((7, 100)));
        drop(outer);
    }

    /// Runs `op` with every parallel stage it starts on a `width`-wide
    /// pool.
    fn at_width<R>(width: usize, op: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool").install(op)
    }

    #[test]
    fn fan_out_debits_every_item_at_its_join() {
        for width in [1, 2, 4] {
            let scope = install(Budget::explicit(100));
            checkpoint(10);
            let cell = rein_telemetry::span("fan_out:cell");
            let out = at_width(width, || {
                fan_out((0..8u64).collect(), |i| {
                    // Each item sees the cell's remaining allowance and
                    // its innermost span.
                    assert_eq!(current_budget(), Some((0, 90)));
                    assert_eq!(rein_telemetry::current(), Some(cell.ctx()));
                    checkpoint(i);
                    i * 2
                })
            });
            assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>(), "width {width}");
            assert_eq!(current_budget(), Some((38, 100)), "width {width}");
            assert_eq!(rein_telemetry::current(), Some(cell.ctx()), "width {width}");
            drop((cell, scope));
        }
        // Outside a guard, items run without a budget.
        assert_eq!(fan_out(vec![1, 2], |i| (i, current_budget())), vec![(1, None), (2, None)]);
    }

    #[test]
    fn fan_out_fails_alike_at_every_width() {
        let run = |width, allowance, item: fn(u64)| {
            let scope = install(Budget::explicit(allowance));
            let caught =
                at_width(width, || std::panic::catch_unwind(|| fan_out((0..6u64).collect(), item)));
            let failure = caught.expect_err("the fan-out fails");
            let failure = match failure.downcast::<BudgetExhausted>() {
                Ok(exhausted) => format!("{exhausted:?}"),
                Err(other) => other.downcast::<String>().map_or("?".into(), |m| *m),
            };
            let left = current_budget();
            drop(scope);
            (failure, left)
        };
        for width in [1, 2, 4] {
            // No item crosses 10 alone, but their sum does: the join trips.
            assert_eq!(
                run(width, 10, |_| checkpoint(3)),
                ("BudgetExhausted { spent: 18, allowance: 10 }".into(), Some((18, 10)))
            );
            // Every item trips at its first checkpoint: item 0's failure,
            // with every item's ticks.
            assert_eq!(
                run(width, 0, |i| checkpoint(i + 1)),
                ("BudgetExhausted { spent: 21, allowance: 0 }".into(), Some((21, 0)))
            );
            // The lowest-index panic wins, whichever finished first.
            let panics = |i: u64| {
                checkpoint(1);
                if i % 2 == 1 {
                    panic!("item {i}");
                }
            };
            assert_eq!(run(width, 100, panics), ("item 1".into(), Some((6, 100))));
        }
    }

    #[test]
    fn derived_allowance_is_deterministic_and_floored() {
        let a = Budget::derive(7, "raha", 100);
        let b = Budget::derive(7, "raha", 100);
        assert_eq!(a, b);
        assert!(a.allowance >= MIN_ALLOWANCE);
        // Large grids scale past the floor.
        let big = Budget::derive(7, "raha", 1_000_000);
        assert!(big.allowance >= 1_000_000 * TICKS_PER_CELL);
        // Different strategies draw different jitter (overwhelmingly).
        let other = Budget::derive(7, "ed2", 100);
        assert_ne!(a.allowance, other.allowance);
    }
}
