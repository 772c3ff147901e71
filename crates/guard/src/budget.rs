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
//! cannot be interrupted (that is the price of determinism). A guarded
//! attempt running as an item of a parallel stage (every grid cell)
//! covers its nested fan-outs too: the vendored rayon runs a stage
//! started inside a stage's item inline on that thread, so e.g. every
//! tree of a forest fit debits this slot, at any pool width. Only a
//! top-level fan-out started by a guard outside any stage runs on fresh
//! workers that do not see the slot.

use std::cell::Cell;

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
                std::panic::panic_any(BudgetExhausted {
                    spent: budget.spent,
                    allowance: budget.allowance,
                });
            }
        }
    });
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
