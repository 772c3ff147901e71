//! # rein-guard
//!
//! Supervised execution for benchmark strategies: every detector, repair
//! and model invocation in the grid runs inside [`run`], which
//!
//! * **isolates panics** — `catch_unwind` converts a crashing strategy
//!   into a structured [`StrategyFailure`] instead of aborting the run
//!   and losing every finished cell;
//! * **enforces deadline budgets** — a deterministic tick allowance
//!   ([`budget::Budget`]) derived from the master seed and the cell
//!   count, debited cooperatively by [`checkpoint`] calls at kernel loop
//!   boundaries (no wall clock anywhere, so exhaustion reproduces
//!   byte-for-byte);
//! * **retries transient failures** — a bounded number of re-attempts
//!   with seeds derived from the master seed, before degrading;
//! * **injects faults on demand** — the [`chaos`] module matches guarded
//!   calls against a seeded injection spec (`REIN_CHAOS`) and makes them
//!   panic, stall, corrupt their output, or flake, deterministically.
//!
//! Failures are recorded into the telemetry failure registry (and thus
//! the run manifest's `failures` array); the caller receives them in the
//! [`GuardReport`] and degrades the one cell, never the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use rein_data::rng::derive_seed;

pub mod budget;
pub mod chaos;
pub mod crash;

pub use budget::{checkpoint, current_budget, fan_out, Budget, BudgetExhausted};
pub use chaos::{ChaosMode, ChaosRule, ChaosSpec};
pub use crash::{CrashRule, CrashSpec, CrashWhen};

/// Which grid phase a guarded call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Error detection.
    Detect,
    /// Error repair.
    Repair,
    /// Model training / evaluation.
    Model,
}

impl Phase {
    /// Lower-case phase name, as used in spans, chaos specs and failure
    /// records.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Detect => "detect",
            Phase::Repair => "repair",
            Phase::Model => "model",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "detect" => Some(Phase::Detect),
            "repair" => Some(Phase::Repair),
            "model" => Some(Phase::Model),
            _ => None,
        }
    }
}

/// Identity of one guarded call — the coordinates of a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardSpec<'a> {
    /// Grid phase.
    pub phase: Phase,
    /// Strategy (toolbox method) name.
    pub strategy: &'a str,
    /// Dataset name.
    pub dataset: &'a str,
    /// Sub-grid scope; for repair cells, the detector feeding the
    /// repairer. Empty when not applicable.
    pub scope: &'a str,
    /// Cells the strategy touches (`rows × cols`), sizing the budget.
    pub cells: u64,
    /// The cell's seed; attempt 0 runs with exactly this seed so a
    /// fault-free guarded run is byte-identical to an unguarded one.
    pub seed: u64,
}

/// Supervision knobs, threaded explicitly (never global) so parallel
/// tests and fan-outs cannot interfere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardPolicy {
    /// Fault-injection rules (empty by default).
    pub chaos: ChaosSpec,
    /// Re-attempts allowed after a transient failure.
    pub retries: u32,
    /// Explicit tick allowance, overriding the derived one (tests and
    /// stall injection).
    pub budget_override: Option<u64>,
    /// Crash-injection rules for the durable store's commit points
    /// (`REIN_CRASH`, empty by default). Deliberately excluded from
    /// [`GuardPolicy::cache_identity`] — see [`crash`].
    pub crash: CrashSpec,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy {
            chaos: ChaosSpec::default(),
            retries: 1,
            budget_override: None,
            crash: CrashSpec::default(),
        }
    }
}

impl GuardPolicy {
    /// A policy with the given chaos spec and default supervision.
    pub fn with_chaos(chaos: ChaosSpec) -> Self {
        GuardPolicy { chaos, ..GuardPolicy::default() }
    }

    /// The canonical rendering used as a `CellKey`'s `guard_policy`
    /// component: exactly the policy knobs that can change a cell's
    /// *value* — chaos spec, retries, budget override. The crash spec is
    /// excluded on purpose: it only decides when the process dies at a
    /// commit point, never what a cell computes, and a run resumed
    /// without `REIN_CRASH` must address the very cells the crashed run
    /// committed. The rendering is byte-identical to the struct's
    /// pre-crash-field `Debug` output, keeping every committed cell
    /// digest and trace id stable across the store's introduction.
    pub fn cache_identity(&self) -> String {
        format!(
            "GuardPolicy {{ chaos: {:?}, retries: {:?}, budget_override: {:?} }}",
            self.chaos, self.retries, self.budget_override
        )
    }
}

/// Why a strategy degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The strategy panicked.
    Panic {
        /// Rendered panic payload.
        message: String,
    },
    /// The cooperative deadline budget was exhausted.
    BudgetExhausted {
        /// Ticks spent when the budget tripped.
        spent: u64,
        /// The allowance that was crossed.
        allowance: u64,
    },
    /// The strategy returned, but its output failed validation.
    InvalidOutput {
        /// What the validator rejected.
        message: String,
    },
    /// A transient failure persisted through every allowed retry.
    Transient {
        /// The transient error message.
        message: String,
    },
}

impl FailureCause {
    /// Short cause tag used in the `guard:fail:<tag>` instant event name
    /// attached to the owning cell's trace.
    pub fn tag(&self) -> &'static str {
        match self {
            FailureCause::Panic { .. } => "panic",
            FailureCause::BudgetExhausted { .. } => "deadline",
            FailureCause::InvalidOutput { .. } => "invalid",
            FailureCause::Transient { .. } => "transient",
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panic { message } => write!(f, "panic: {message}"),
            FailureCause::BudgetExhausted { spent, allowance } => {
                write!(f, "budget exhausted: {spent} of {allowance} ticks")
            }
            FailureCause::InvalidOutput { message } => write!(f, "invalid output: {message}"),
            FailureCause::Transient { message } => {
                write!(f, "transient failure persisted: {message}")
            }
        }
    }
}

/// One degraded grid cell: the structured record of a strategy that
/// panicked, stalled, or produced invalid output under guard.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyFailure {
    /// Grid phase.
    pub phase: Phase,
    /// Strategy name.
    pub strategy: String,
    /// Dataset name.
    pub dataset: String,
    /// Sub-grid scope (detector name for repair cells).
    pub scope: String,
    /// Why it degraded.
    pub cause: FailureCause,
    /// Attempts made (1 = no retry).
    pub attempts: u32,
    /// Wall-clock time spent across all attempts, via the telemetry
    /// span — guard code itself never reads the clock.
    pub elapsed: Duration,
    /// Trace id of the owning cell (the `CellKey` digest the guard span
    /// inherited through the thread-local span stack); 0 when the call
    /// ran outside any cell trace.
    pub trace_id: u64,
}

impl StrategyFailure {
    /// Counts the failure and appends it to the telemetry failure
    /// registry, so it lands in the run manifest's `failures` array.
    pub fn record(&self) {
        rein_telemetry::counter("strategy_failures").incr();
        rein_telemetry::record_failure(self.to_record());
    }

    /// Converts to the serializable telemetry record.
    pub fn to_record(&self) -> rein_telemetry::FailureRecord {
        rein_telemetry::FailureRecord {
            phase: self.phase.name().to_string(),
            strategy: self.strategy.clone(),
            dataset: self.dataset.clone(),
            scope: self.scope.clone(),
            cause: self.cause.to_string(),
            attempts: self.attempts,
            elapsed_ms: self.elapsed.as_secs_f64() * 1e3,
            trace_id: if self.trace_id == 0 {
                String::new()
            } else {
                format!("{:016x}", self.trace_id)
            },
        }
    }
}

impl std::fmt::Display for StrategyFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}@{}", self.phase.name(), self.strategy, self.dataset)?;
        if !self.scope.is_empty() {
            write!(f, "#{}", self.scope)?;
        }
        write!(f, ": {} (attempt {})", self.cause, self.attempts)
    }
}

/// What [`run`] hands back: the strategy's output or its failure, plus
/// timing, the ticks spent and the attempt count.
#[derive(Debug)]
pub struct GuardReport<T> {
    /// The output, or the structured failure after all attempts.
    pub outcome: Result<T, StrategyFailure>,
    /// Wall-clock time across all attempts (from the telemetry span).
    pub elapsed: Duration,
    /// Budget ticks debited across all attempts, the mandatory tick of
    /// each attempt included: a deterministic cost, where `elapsed` is a
    /// measured one. A fan-out's items debit here through [`fan_out`],
    /// at any pool width; a stage started any other way may not (see
    /// [`budget`]).
    pub ticks: u64,
    /// Attempts made.
    pub attempts: u32,
}

/// Typed panic payload for transient (retryable) failures. Raised by
/// [`transient_failure`], downcast by the guard.
#[derive(Debug, Clone)]
struct TransientMarker {
    message: String,
}

/// Signals a transient failure from inside a guarded strategy: the guard
/// retries the attempt (with a derived seed) up to
/// [`GuardPolicy::retries`] times before degrading the cell. Unwinds;
/// calling it outside a guard propagates like a normal panic.
#[expect(
    clippy::panic,
    reason = "a transient failure unwinds to the enclosing guard, which catches it and retries"
)]
pub fn transient_failure(message: impl Into<String>) -> ! {
    std::panic::panic_any(TransientMarker { message: message.into() })
}

thread_local! {
    static IN_GUARD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether this thread is inside a guard's supervision window.
pub(crate) fn in_guard() -> bool {
    IN_GUARD.with(|g| g.get())
}

/// Restores the thread's previous in-guard flag on drop, including
/// during unwind.
pub(crate) struct HookSilence {
    prev: bool,
}

impl HookSilence {
    pub(crate) fn engage() -> Self {
        install_chained_hook();
        HookSilence { prev: IN_GUARD.with(|g| g.replace(true)) }
    }
}

impl Drop for HookSilence {
    fn drop(&mut self) {
        IN_GUARD.with(|g| g.set(self.prev));
    }
}

/// Installs (once per process) a panic hook that stays silent for panics
/// raised inside a guard window on the panicking thread, and delegates
/// everything else to the previously-installed hook — so unguarded
/// panics (including test failures) keep their normal reporting.
fn install_chained_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_GUARD.with(|g| g.get()) {
                prev(info);
            }
        }));
    });
}

/// Renders a caught panic payload into a [`FailureCause`], or a
/// [`TransientMarker`] message for the retry path.
fn classify_payload(payload: Box<dyn std::any::Any + Send>) -> Result<FailureCause, String> {
    let payload = match payload.downcast::<BudgetExhausted>() {
        Ok(b) => {
            return Ok(FailureCause::BudgetExhausted { spent: b.spent, allowance: b.allowance })
        }
        Err(p) => p,
    };
    let payload = match payload.downcast::<TransientMarker>() {
        Ok(t) => return Err(t.message),
        Err(p) => p,
    };
    let message = match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    };
    Ok(FailureCause::Panic { message })
}

/// Runs one strategy under supervision.
///
/// * `attempt(seed)` executes the strategy; attempt 0 receives exactly
///   `spec.seed` (so a fault-free run matches an unguarded one
///   byte-for-byte), retries receive seeds derived from it.
/// * `validate(&output)` rejects structurally-broken output (shape
///   mismatches, truncated row maps); a rejection degrades the cell with
///   [`FailureCause::InvalidOutput`].
/// * `corrupt(&mut output)` is only invoked under
///   [`ChaosMode::Corrupt`] injection and must mangle the output in a
///   way `validate` catches.
///
/// On degradation the failure is also appended to the telemetry failure
/// registry, so it lands in the run manifest's `failures` array.
pub fn run<T>(
    spec: &GuardSpec<'_>,
    policy: &GuardPolicy,
    mut attempt: impl FnMut(u64) -> T,
    validate: impl Fn(&T) -> Result<(), String>,
    corrupt: impl Fn(&mut T),
) -> GuardReport<T> {
    let span = rein_telemetry::span(format!("{}:{}", spec.phase.name(), spec.strategy));
    let mode = policy.chaos.mode_for(spec);
    let budget = match mode {
        Some(ChaosMode::Stall) => Budget::explicit(0),
        _ => match policy.budget_override {
            Some(allowance) => Budget::explicit(allowance),
            None => Budget::derive(spec.seed, spec.strategy, spec.cells),
        },
    };
    let max_attempts = policy.retries.saturating_add(1).max(1);
    let mut attempts = 0u32;
    let mut ticks = 0u64;
    let failure_cause: FailureCause;
    loop {
        let attempt_seed = match attempts {
            0 => spec.seed,
            n => derive_seed(spec.seed, 0xA77E_0000u64 | n as u64),
        };
        attempts += 1;
        let caught = {
            let _budget_scope = budget::install(budget);
            let _silence = HookSilence::engage();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                // One mandatory tick so stall injection (zero allowance)
                // trips even for kernels without checkpoints.
                checkpoint(1);
                #[expect(
                    clippy::panic,
                    reason = "deliberate chaos injection, caught by this guard"
                )]
                if matches!(mode, Some(ChaosMode::Panic)) {
                    panic!("chaos: injected panic for {}:{}", spec.phase.name(), spec.strategy);
                }
                if matches!(mode, Some(ChaosMode::Flaky)) && attempts == 1 {
                    transient_failure(format!(
                        "chaos: injected flake for {}:{}",
                        spec.phase.name(),
                        spec.strategy
                    ));
                }
                let mut output = attempt(attempt_seed);
                if matches!(mode, Some(ChaosMode::Corrupt)) {
                    corrupt(&mut output);
                }
                output
            }));
            // An exhausting checkpoint stores its spend before it unwinds.
            ticks = ticks.saturating_add(current_budget().map_or(0, |(spent, _)| spent));
            caught
        };
        match caught {
            Ok(output) => match validate(&output) {
                Ok(()) => {
                    if attempts > 1 {
                        rein_telemetry::counter("guard_retries").add(attempts as u64 - 1);
                    }
                    let elapsed = span.finish();
                    return GuardReport { outcome: Ok(output), elapsed, ticks, attempts };
                }
                Err(message) => {
                    failure_cause = FailureCause::InvalidOutput { message };
                    break;
                }
            },
            Err(payload) => match classify_payload(payload) {
                Ok(cause) => {
                    failure_cause = cause;
                    break;
                }
                Err(transient_message) => {
                    if attempts >= max_attempts {
                        failure_cause = FailureCause::Transient { message: transient_message };
                        break;
                    }
                    // Retry with the next derived seed; the decision is
                    // an instant event on the owning cell's trace.
                    rein_telemetry::instant("guard:retry");
                }
            },
        }
    }
    // The degradation becomes an instant event while the guard span is
    // still open, so it lands inside the owning cell's trace tree.
    rein_telemetry::instant(format!("guard:fail:{}", failure_cause.tag()));
    let trace_id = span.trace_context().trace_id;
    let elapsed = span.finish();
    let failure = StrategyFailure {
        phase: spec.phase,
        strategy: spec.strategy.to_string(),
        dataset: spec.dataset.to_string(),
        scope: spec.scope.to_string(),
        cause: failure_cause,
        attempts,
        elapsed,
        trace_id,
    };
    failure.record();
    GuardReport { outcome: Err(failure), elapsed, ticks, attempts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(phase: Phase, strategy: &str) -> GuardSpec<'_> {
        GuardSpec { phase, strategy, dataset: "unit", scope: "", cells: 4, seed: 9 }
    }

    fn no_validate<T>(_: &T) -> Result<(), String> {
        Ok(())
    }

    fn no_corrupt<T>(_: &mut T) {}

    #[test]
    fn fault_free_run_passes_through_with_the_exact_seed() {
        let s = spec(Phase::Detect, "ok");
        let report = run(&s, &GuardPolicy::default(), |seed| seed * 2, no_validate, no_corrupt);
        assert_eq!(report.outcome.unwrap(), 18);
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn ticks_are_reported_on_every_call() {
        let s = spec(Phase::Detect, "ticker");
        let policy = GuardPolicy::default();
        // Each attempt pays the mandatory tick on top of the kernel's.
        let report = run(&s, &policy, |_| checkpoint(5), no_validate, no_corrupt);
        assert_eq!((report.ticks, report.attempts), (6, 1));
        let report = run(&s, &policy, |_| -> u32 { panic!("late") }, no_validate, no_corrupt);
        assert!(report.outcome.is_err());
        assert_eq!(report.ticks, 1);
        // A retry's ticks add to the first attempt's.
        let mut calls = 0;
        let report = run(
            &s,
            &GuardPolicy { retries: 1, ..policy.clone() },
            |_| {
                calls += 1;
                checkpoint(10);
                if calls == 1 {
                    transient_failure("blip");
                }
            },
            no_validate,
            no_corrupt,
        );
        assert_eq!((report.ticks, report.attempts), (22, 2));
        // An exhausted budget reports the spend that tripped it.
        let tight = GuardPolicy { budget_override: Some(10), ..policy };
        let report = run(
            &s,
            &tight,
            |_| loop {
                checkpoint(7)
            },
            no_validate,
            no_corrupt::<u32>,
        );
        assert_eq!(report.ticks, 15);
    }

    #[test]
    fn panics_become_structured_failures() {
        let s = spec(Phase::Detect, "boom");
        let report = run(
            &s,
            &GuardPolicy::default(),
            |_| -> u32 { panic!("kernel exploded") },
            no_validate,
            no_corrupt,
        );
        let failure = report.outcome.unwrap_err();
        assert_eq!(failure.cause, FailureCause::Panic { message: "kernel exploded".into() });
        assert_eq!(failure.attempts, 1);
        assert_eq!(failure.strategy, "boom");
    }

    #[test]
    fn budget_exhaustion_degrades_with_spend_figures() {
        let s = spec(Phase::Repair, "spin");
        let policy = GuardPolicy { budget_override: Some(10), ..GuardPolicy::default() };
        let report = run(
            &s,
            &policy,
            |_| loop {
                checkpoint(7);
            },
            no_validate,
            no_corrupt::<u32>,
        );
        let failure = report.outcome.unwrap_err();
        assert!(
            matches!(failure.cause, FailureCause::BudgetExhausted { spent: 15, allowance: 10 }),
            "{:?}",
            failure.cause
        );
    }

    #[test]
    fn transient_failures_retry_with_derived_seeds_then_succeed() {
        let s = spec(Phase::Detect, "flaky");
        let mut seeds = Vec::new();
        let report = run(
            &s,
            &GuardPolicy { retries: 2, ..GuardPolicy::default() },
            |seed| {
                seeds.push(seed);
                if seeds.len() < 3 {
                    transient_failure("blip");
                }
                seed
            },
            no_validate,
            no_corrupt,
        );
        assert_eq!(report.attempts, 3);
        assert_eq!(seeds[0], 9, "attempt 0 must use the spec seed verbatim");
        assert_ne!(seeds[1], seeds[0]);
        assert_ne!(seeds[2], seeds[1]);
        assert_eq!(report.outcome.unwrap(), seeds[2]);
    }

    #[test]
    fn persistent_transient_failure_degrades() {
        let s = spec(Phase::Detect, "flaky");
        let report = run(
            &s,
            &GuardPolicy { retries: 1, ..GuardPolicy::default() },
            |_| -> u32 { transient_failure("still down") },
            no_validate,
            no_corrupt,
        );
        let failure = report.outcome.unwrap_err();
        assert_eq!(failure.cause, FailureCause::Transient { message: "still down".into() });
        assert_eq!(failure.attempts, 2);
    }

    #[test]
    fn invalid_output_is_rejected_without_retry() {
        let s = spec(Phase::Detect, "liar");
        let report = run(
            &s,
            &GuardPolicy::default(),
            |_| 7u32,
            |&v| if v == 0 { Ok(()) } else { Err(format!("nonzero {v}")) },
            no_corrupt,
        );
        let failure = report.outcome.unwrap_err();
        assert_eq!(failure.cause, FailureCause::InvalidOutput { message: "nonzero 7".into() });
        assert_eq!(failure.attempts, 1);
    }

    #[test]
    fn chaos_modes_inject_deterministically() {
        let s = spec(Phase::Detect, "victim");
        let chaos = ChaosSpec::parse("detect:victim=panic").unwrap();
        let policy = GuardPolicy::with_chaos(chaos);
        let report = run(&s, &policy, |_| 1u32, no_validate, no_corrupt);
        assert!(matches!(report.outcome.unwrap_err().cause, FailureCause::Panic { .. }));

        let stall = GuardPolicy::with_chaos(ChaosSpec::parse("detect:victim=stall").unwrap());
        let report = run(&s, &stall, |_| 1u32, no_validate, no_corrupt);
        assert!(matches!(
            report.outcome.unwrap_err().cause,
            FailureCause::BudgetExhausted { allowance: 0, .. }
        ));

        let corrupt = GuardPolicy::with_chaos(ChaosSpec::parse("detect:victim=corrupt").unwrap());
        let report = run(
            &s,
            &corrupt,
            |_| 1u32,
            |&v| if v == 1 { Ok(()) } else { Err("mangled".into()) },
            |v| *v = 99,
        );
        assert!(matches!(report.outcome.unwrap_err().cause, FailureCause::InvalidOutput { .. }));

        let flaky = GuardPolicy::with_chaos(ChaosSpec::parse("detect:victim=flaky").unwrap());
        let report = run(&s, &flaky, |_| 1u32, no_validate, no_corrupt);
        assert_eq!(report.outcome.unwrap(), 1);
        assert_eq!(report.attempts, 2, "flaky injection succeeds on the retry");

        // A non-matching spec leaves the strategy untouched.
        let other = GuardPolicy::with_chaos(ChaosSpec::parse("detect:other=panic").unwrap());
        let report = run(&s, &other, |_| 1u32, no_validate, no_corrupt);
        assert_eq!(report.outcome.unwrap(), 1);
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn failures_and_retries_become_instants_on_the_owning_trace() {
        const TRACE: u64 = 0x9AD_0001;
        let cell = rein_telemetry::span_traced("cell:guardtest", None, TRACE);
        let s = spec(Phase::Detect, "tracedboom");
        let report = run(
            &s,
            &GuardPolicy { retries: 1, ..GuardPolicy::default() },
            |_| -> u32 { transient_failure("still down") },
            no_validate,
            no_corrupt,
        );
        let failure = report.outcome.unwrap_err();
        assert_eq!(failure.trace_id, TRACE, "failure links back to the cell trace");
        assert_eq!(failure.to_record().trace_id, format!("{TRACE:016x}"));
        drop(cell);
        let spans: Vec<_> =
            rein_telemetry::snapshot_spans().into_iter().filter(|r| r.trace_id == TRACE).collect();
        let guard_span = spans
            .iter()
            .find(|r| r.name == "detect:tracedboom" && !r.instant)
            .expect("guard span inherits the cell trace");
        let retry = spans
            .iter()
            .find(|r| r.name == "guard:retry")
            .expect("retry decision recorded as instant");
        let fail = spans
            .iter()
            .find(|r| r.name == "guard:fail:transient")
            .expect("degradation recorded as instant");
        for instant in [retry, fail] {
            assert!(instant.instant);
            assert_eq!(
                instant.parent_id, guard_span.id,
                "instants parent under the open guard span"
            );
        }
    }

    #[test]
    fn failures_outside_any_trace_record_an_empty_trace_link() {
        let s = spec(Phase::Detect, "untracedboom");
        let report = run(
            &s,
            &GuardPolicy::default(),
            |_| -> u32 { panic!("kernel exploded") },
            no_validate,
            no_corrupt,
        );
        let failure = report.outcome.unwrap_err();
        assert_eq!(failure.trace_id, 0);
        assert_eq!(failure.to_record().trace_id, "");
    }

    #[test]
    fn cache_identity_is_the_pre_crash_debug_rendering() {
        // Committed artifacts (cell dumps, trace exports) embed digests
        // computed from the old `format!("{:?}", policy)` — adding the
        // crash field must not move them.
        let policy = GuardPolicy::default();
        assert_eq!(
            policy.cache_identity(),
            "GuardPolicy { chaos: ChaosSpec { rules: [] }, retries: 1, budget_override: None }"
        );
        let crashy = GuardPolicy {
            crash: CrashSpec::parse("detect:raha=before").unwrap(),
            ..GuardPolicy::default()
        };
        assert_eq!(
            crashy.cache_identity(),
            policy.cache_identity(),
            "crash injection must not change any cell's cache identity"
        );
        let chaotic = GuardPolicy::with_chaos(ChaosSpec::parse("detect:raha=panic").unwrap());
        assert_ne!(chaotic.cache_identity(), policy.cache_identity());
    }

    #[test]
    fn unguarded_panics_still_reach_the_hook() {
        // Engaging and dropping the silence must restore normal panics.
        let s = spec(Phase::Detect, "once");
        let _ = run(&s, &GuardPolicy::default(), |_| 1u32, no_validate, no_corrupt);
        assert!(!IN_GUARD.with(|g| g.get()));
    }
}
