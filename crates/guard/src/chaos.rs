//! Seeded fault injection for the benchmark grid.
//!
//! A [`ChaosSpec`] is a list of deterministic injection rules matched
//! against the [`GuardSpec`](crate::GuardSpec) of each guarded call. The
//! spec travels on the policy object (never global state), so parallel
//! tests and rayon fan-outs cannot observe each other's injections, and
//! the same spec + seed always injects at exactly the same grid cells.
//!
//! The `REIN_CHAOS` environment variable carries a spec for the bench
//! binaries. Grammar (comma-separated rules):
//!
//! ```text
//! phase:strategy[@dataset][#scope]=mode
//! ```
//!
//! * `phase` — `detect`, `repair` or `model`.
//! * `strategy` — the toolbox method name, e.g. `raha`.
//! * `@dataset` — optional dataset filter.
//! * `#scope` — optional sub-grid filter; for repair cells this is the
//!   detector feeding the repairer, so one `(detector, repairer)` cell
//!   can be targeted without hitting the whole repairer column.
//! * `mode` — `panic`, `stall` (zero budget), `corrupt` (output is
//!   mangled so the validator rejects it) or `flaky` (transient failure
//!   on the first attempt, clean on retry).
//!
//! Example: `detect:raha=panic,repair:impute_mean_mode#max_entropy=stall`.

use crate::{GuardSpec, Phase};

/// What an injection rule does to its matching cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// The strategy panics instead of running.
    Panic,
    /// The strategy runs with a zero tick allowance, so its first
    /// checkpoint exhausts the budget.
    Stall,
    /// The strategy runs, then its output is corrupted before
    /// validation.
    Corrupt,
    /// The first attempt raises a transient failure; retries succeed.
    Flaky,
}

impl ChaosMode {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "panic" => Ok(ChaosMode::Panic),
            "stall" => Ok(ChaosMode::Stall),
            "corrupt" => Ok(ChaosMode::Corrupt),
            "flaky" => Ok(ChaosMode::Flaky),
            other => Err(format!("unknown chaos mode `{other}` (want panic|stall|corrupt|flaky)")),
        }
    }
}

/// One injection rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRule {
    /// Phase the rule applies to.
    pub phase: Phase,
    /// Strategy name the rule applies to.
    pub strategy: String,
    /// Optional dataset filter.
    pub dataset: Option<String>,
    /// Optional scope filter (detector name for repair cells).
    pub scope: Option<String>,
    /// Injected behaviour.
    pub mode: ChaosMode,
}

impl ChaosRule {
    fn matches(&self, spec: &GuardSpec<'_>) -> bool {
        self.phase == spec.phase
            && self.strategy == spec.strategy
            && self.dataset.as_deref().is_none_or(|d| d == spec.dataset)
            && self.scope.as_deref().is_none_or(|s| s == spec.scope)
    }
}

/// A parsed set of injection rules. The default (empty) spec injects
/// nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    rules: Vec<ChaosRule>,
}

impl ChaosSpec {
    /// Parses the `REIN_CHAOS` grammar (see the module docs).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for raw in text.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (target, mode) = raw
                .split_once('=')
                .ok_or_else(|| format!("chaos rule `{raw}` is missing `=mode`"))?;
            let mode = ChaosMode::parse(mode.trim())?;
            let (phase, rest) = target
                .split_once(':')
                .ok_or_else(|| format!("chaos rule `{raw}` is missing `phase:`"))?;
            let phase = Phase::parse(phase.trim()).ok_or_else(|| {
                format!("unknown chaos phase `{phase}` (want detect|repair|model)")
            })?;
            let (rest, scope) = match rest.split_once('#') {
                Some((r, s)) => (r, Some(s.trim().to_string())),
                None => (rest, None),
            };
            let (strategy, dataset) = match rest.split_once('@') {
                Some((s, d)) => (s, Some(d.trim().to_string())),
                None => (rest, None),
            };
            let strategy = strategy.trim();
            if strategy.is_empty() {
                return Err(format!("chaos rule `{raw}` has an empty strategy name"));
            }
            rules.push(ChaosRule { phase, strategy: strategy.to_string(), dataset, scope, mode });
        }
        Ok(ChaosSpec { rules })
    }

    /// Reads `REIN_CHAOS`; unset or empty means no injection. A set but
    /// unparsable spec is an error — silently running fault-free when the
    /// operator asked for chaos would invalidate the experiment.
    pub fn from_env() -> Result<Self, String> {
        // audit:allow(env-read-confinement, REIN_CHAOS is snapshotted once at startup by the bench binaries and folded into the guard policy, which is a declared cache-key component)
        match std::env::var("REIN_CHAOS") {
            Err(_) => Ok(ChaosSpec::default()),
            Ok(raw) => Self::parse(&raw),
        }
    }

    /// Whether the spec injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// The rules, in spec order.
    pub fn rules(&self) -> &[ChaosRule] {
        &self.rules
    }

    /// The injection mode for a guarded call, if any rule matches (first
    /// match wins).
    pub fn mode_for(&self, spec: &GuardSpec<'_>) -> Option<ChaosMode> {
        self.rules.iter().find(|r| r.matches(spec)).map(|r| r.mode)
    }

    /// Whether a rule with a `#scope` filter matches the guarded call,
    /// singling out its sub-grid cell (for a repair, one detector's
    /// pairing) from the strategy's other cells.
    pub fn scoped_rule_matches(&self, spec: &GuardSpec<'_>) -> bool {
        self.rules.iter().any(|r| r.scope.is_some() && r.matches(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec<'a>(
        phase: Phase,
        strategy: &'a str,
        dataset: &'a str,
        scope: &'a str,
    ) -> GuardSpec<'a> {
        GuardSpec { phase, strategy, dataset, scope, cells: 10, seed: 1 }
    }

    #[test]
    fn parses_the_full_grammar() {
        let c = ChaosSpec::parse("detect:raha=panic, repair:baran@beers#ed2=stall").unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.mode_for(&spec(Phase::Detect, "raha", "beers", "")), Some(ChaosMode::Panic));
        assert_eq!(c.mode_for(&spec(Phase::Detect, "ed2", "beers", "")), None);
        assert_eq!(
            c.mode_for(&spec(Phase::Repair, "baran", "beers", "ed2")),
            Some(ChaosMode::Stall)
        );
        // Scope filter keeps other detector pairings fault-free.
        assert_eq!(c.mode_for(&spec(Phase::Repair, "baran", "beers", "raha")), None);
        // Dataset filter.
        assert_eq!(c.mode_for(&spec(Phase::Repair, "baran", "nasa", "ed2")), None);
        // Only the scoped rule singles out its cell.
        assert!(c.scoped_rule_matches(&spec(Phase::Repair, "baran", "beers", "ed2")));
        assert!(!c.scoped_rule_matches(&spec(Phase::Repair, "baran", "beers", "raha")));
        assert!(!c.scoped_rule_matches(&spec(Phase::Detect, "raha", "beers", "")));
    }

    #[test]
    fn rejects_malformed_rules() {
        assert!(ChaosSpec::parse("detect:raha").is_err());
        assert!(ChaosSpec::parse("raha=panic").is_err());
        assert!(ChaosSpec::parse("detect:raha=explode").is_err());
        assert!(ChaosSpec::parse("orbit:raha=panic").is_err());
        assert!(ChaosSpec::parse("detect:=panic").is_err());
    }

    #[test]
    fn empty_spec_matches_nothing() {
        let c = ChaosSpec::parse("").unwrap();
        assert!(c.is_empty());
        assert_eq!(c.mode_for(&spec(Phase::Detect, "raha", "beers", "")), None);
    }
}
