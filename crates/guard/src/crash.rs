//! Crash injection for the durable cell store (`REIN_CRASH`).
//!
//! A [`CrashSpec`] is the chaos spec's sibling for *process-death*
//! testing: instead of degrading a strategy in-process (panic, stall,
//! …), a matching rule makes the store **abort the whole process** at a
//! specific commit point — a faithful `kill -9` with no unwinding, no
//! `Drop` flushes and no buffered-write rescue. `grid_smoke --mode crash`
//! uses it to prove that a resumed grid is byte-identical to an
//! uninterrupted one (DESIGN.md §6j).
//!
//! Grammar (comma-separated rules, first match wins):
//!
//! ```text
//! coordinate[=point]
//! ```
//!
//! * `coordinate` — the exact grid cell coordinate the commit carries:
//!   `detect:<detector>`, `repair:<repairer>#<detector>` or
//!   `eval:<scenario>:<repairer>#<detector>` — the same keys
//!   `Controller::run_grid` uses.
//! * `point` — `before` (abort before the cell's record reaches the
//!   journal: the cell is lost and recomputed on resume) or `after`
//!   (abort after the record is appended and fsynced: the cell survives
//!   and is a hit on resume). Defaults to `after`.
//!
//! Example: `repair:impute_mean_mode#max_entropy=before`.
//!
//! The spec travels on [`GuardPolicy`](crate::GuardPolicy) like the
//! chaos spec — but it is deliberately **not** part of the policy's
//! cache identity ([`GuardPolicy::cache_identity`](crate::GuardPolicy::cache_identity)):
//! a crashed run and its resume must address the same cells, and the
//! injection only decides *when* the process dies, never what any cell
//! computes.

/// When a crash rule fires relative to its record's durable append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWhen {
    /// Abort before the record is appended.
    Before,
    /// Abort after the record is appended and fsynced.
    After,
}

impl CrashWhen {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "before" => Ok(CrashWhen::Before),
            "after" => Ok(CrashWhen::After),
            other => Err(format!("unknown crash point `{other}` (want before|after)")),
        }
    }
}

/// One crash-injection rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRule {
    /// The exact grid cell coordinate the rule targets.
    pub coordinate: String,
    /// When to abort relative to that cell's commit.
    pub when: CrashWhen,
}

/// A parsed set of crash rules. The default (empty) spec never fires.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashSpec {
    rules: Vec<CrashRule>,
}

impl CrashSpec {
    /// Parses the `REIN_CRASH` grammar (see the module docs).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for raw in text.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (coordinate, when) = match raw.split_once('=') {
                Some((c, w)) => (c.trim(), CrashWhen::parse(w.trim())?),
                None => (raw, CrashWhen::After),
            };
            let phase = coordinate.split(':').next().unwrap_or("");
            if !matches!(phase, "detect" | "repair" | "eval") {
                return Err(format!(
                    "crash rule `{raw}` must target a grid coordinate \
                     (detect:…, repair:…#… or eval:…:…#…)"
                ));
            }
            if coordinate.len() == phase.len() + 1 || !coordinate.contains(':') {
                return Err(format!("crash rule `{raw}` has an empty strategy coordinate"));
            }
            rules.push(CrashRule { coordinate: coordinate.to_string(), when });
        }
        Ok(CrashSpec { rules })
    }

    /// Reads `REIN_CRASH`; unset or empty means no injection. A set but
    /// unparsable spec is an error — silently running crash-free when
    /// the operator asked for a kill test would invalidate the proof.
    #[expect(
        clippy::disallowed_methods,
        reason = "REIN_CRASH is snapshotted once at startup by the bench binaries and folded into the guard policy; it only decides when the process aborts, never what a cell computes"
    )]
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("REIN_CRASH") {
            Err(_) => Ok(CrashSpec::default()),
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
    pub fn rules(&self) -> &[CrashRule] {
        &self.rules
    }

    /// The crash point for a commit coordinate, if any rule matches
    /// (first match wins).
    pub fn when_for(&self, coordinate: &str) -> Option<CrashWhen> {
        self.rules.iter().find(|r| r.coordinate == coordinate).map(|r| r.when)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_coordinates_with_default_and_explicit_points() {
        let c =
            CrashSpec::parse("detect:raha, repair:impute_mean_mode#max_entropy=before").unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.when_for("detect:raha"), Some(CrashWhen::After));
        assert_eq!(c.when_for("repair:impute_mean_mode#max_entropy"), Some(CrashWhen::Before));
        assert_eq!(c.when_for("repair:impute_mean_mode#raha"), None);
        assert_eq!(c.when_for("eval:S1:impute_mean_mode#max_entropy"), None);
    }

    #[test]
    fn rejects_malformed_rules() {
        assert!(CrashSpec::parse("raha").is_err());
        assert!(CrashSpec::parse("model:x").is_err());
        assert!(CrashSpec::parse("detect:raha=sometimes").is_err());
        assert!(CrashSpec::parse("detect:").is_err());
    }

    #[test]
    fn empty_spec_matches_nothing() {
        let c = CrashSpec::parse("").unwrap();
        assert!(c.is_empty());
        assert_eq!(c.when_for("detect:raha"), None);
    }
}
