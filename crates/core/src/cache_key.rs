//! The canonical cell-granularity cache key for incremental evaluation.
//!
//! The content-addressed cell store (`rein-store`) memoizes one grid
//! *cell* — a (dataset version, strategy, inputs, seed, scale, guard
//! policy) tuple — and replays its stored result on a key hit. That is
//! only sound if every value-influencing input of the cell computation
//! is a component of this key. The grid passes each kernel only
//! parameters the key renders, and `rein-audit`'s
//! `cache-key-completeness` rule proves that no ambient channel
//! (environment, files, clock, statics) reaches the cell-compute entry
//! points (see DESIGN.md §6h). Neither covers a changed kernel or a hash
//! collision: a key hit is not a proof that the stored bytes are the
//! ones a recompute would produce.
//!
//! The hash is the workspace's one FNV-1a-64, rendered in `rein-ledger`'s
//! 16-hex content-key format; the durable cell store (`rein-store`)
//! journals each cell under this key. The key's one [`fmt::Display`]
//! writes its identity: [`CellKey::identity`] collects it into a string
//! and [`CellKey::hash`] streams the same bytes into the hash, so a key
//! borrowed from the grid's own strings hashes without allocating.

use std::borrow::Cow;
use std::fmt::{self, Write};

use rein_ledger::Fnv1a64;

/// The declared cache-key tuple of one grid cell.
///
/// Field order is the identity order: the key's `Display` joins the
/// components with `|` behind a `cell` kind tag, and
/// [`CellKey::content_key`] hashes that text.
/// Adding a value-influencing input to the cell computation means
/// adding a field here — the audit's purity certificate is relative to
/// this struct's declared fields. The text components borrow or own
/// their strings alike: the grid borrows every one of them.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey<'a> {
    /// Dataset name (`DatasetInfo::name`).
    pub dataset: Cow<'a, str>,
    /// Content identity of the exact table version the cell consumes:
    /// the dirty table for detection and repair cells, a repair's output
    /// version for model cells.
    pub dataset_version: Cow<'a, str>,
    /// Strategy id: `detect:<detector>`, `repair:<repairer>` or
    /// `eval:<scenario>:<repairer>#<detector>`. A repair cell names its
    /// detector (`repair:<repairer>#<detector>`, its `run_grid`
    /// coordinate) only when a scoped chaos rule names that pair; every
    /// other repair cell serves each detector that emitted its mask.
    pub strategy: Cow<'a, str>,
    /// The phase's own inputs, which no other component carries:
    /// `labels=<budget>` for a detection cell (the label budget of the
    /// ML-supported detectors), `mask=<digest>` for a repair cell (the
    /// FNV-1a-64 of the detection mask's payload it repairs) and
    /// `repeats=<n>` for a model cell (its score count).
    pub inputs: Cow<'a, str>,
    /// The fully-derived cell seed (after every `derive_seed` step).
    pub seed: u64,
    /// Dataset scale factor the cell ran at.
    pub scale: f64,
    /// Canonical rendering of the guard policy (deadline budgets and
    /// chaos spec), since the guard can degrade a cell's result.
    pub guard_policy: Cow<'a, str>,
}

/// The identity: `cell|` and then each component in field order,
/// joined with `|`.
impl fmt::Display for CellKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell|{}|{}|{}|{}|{}|{}|{}",
            self.dataset,
            self.dataset_version,
            self.strategy,
            self.inputs,
            self.seed,
            self.scale,
            self.guard_policy
        )
    }
}

impl CellKey<'_> {
    /// The identity string: the key's `Display` output.
    pub fn identity(&self) -> String {
        self.to_string()
    }

    /// FNV-1a-64 of [`CellKey::identity`], as the ledger's 16-hex-digit
    /// content key format.
    pub fn content_key(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// The raw 64-bit hash of [`CellKey::identity`], streamed from the
    /// `Display` output without building the string.
    pub fn hash(&self) -> u64 {
        let mut hash = Fnv1a64::default();
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the sink never fails, and neither does any component's Display"
        )]
        let _ = write!(hash, "{self}");
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rein_ledger::{content_key, fnv1a64};

    fn key() -> CellKey<'static> {
        CellKey {
            dataset: "beers".into(),
            dataset_version: "v:0123456789abcdef".into(),
            strategy: "eval:S1:ImputeMeanMode#Raha".into(),
            inputs: "repeats=1".into(),
            seed: 41_207,
            scale: 1.0,
            guard_policy: "deadline=0;chaos=off".into(),
        }
    }

    #[test]
    fn identity_is_pipe_joined_in_field_order() {
        assert_eq!(
            key().identity(),
            "cell|beers|v:0123456789abcdef|eval:S1:ImputeMeanMode#Raha|repeats=1|41207|1|deadline=0;chaos=off"
        );
    }

    #[test]
    fn content_key_matches_ledger_hash_of_identity() {
        let k = key();
        assert_eq!(k.content_key(), content_key(&k.identity()));
        assert_eq!(k.content_key(), format!("{:016x}", k.hash()));
        assert_eq!(k.hash(), fnv1a64(k.identity().as_bytes()));
    }

    #[test]
    fn distinct_components_produce_distinct_keys() {
        let base = key();
        for mutate in [
            |k: &mut CellKey| k.dataset.to_mut().push('x'),
            |k: &mut CellKey| k.dataset_version.to_mut().push('x'),
            |k: &mut CellKey| k.strategy.to_mut().push('x'),
            |k: &mut CellKey| k.inputs.to_mut().push('x'),
            |k: &mut CellKey| k.seed += 1,
            |k: &mut CellKey| k.scale += 0.5,
            |k: &mut CellKey| k.guard_policy.to_mut().push('x'),
        ] {
            let mut other = base.clone();
            mutate(&mut other);
            assert_ne!(base.content_key(), other.content_key());
        }
    }

    /// Component text with the separator, non-ASCII letters, a
    /// four-byte character and the formatting braces.
    const TEXT: &str = "[a-z0-9|:#{}_ éß€中🦀]{0,24}";

    fn arb_scale() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(-0.0),
            Just(0.0),
            Just(1e300),
            Just(f64::MAX),
            Just(5e-324),
            Just(f64::INFINITY),
            Just(f64::NAN),
            any::<f64>(),
            0.0f64..2.0,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The streamed hash is FNV-1a-64 of the collected identity, and
        /// the content key is its 16-hex rendering, for any components.
        #[test]
        fn streamed_hash_is_the_hash_of_the_identity(
            dataset in TEXT,
            dataset_version in TEXT,
            strategy in TEXT,
            inputs in TEXT,
            seed in any::<u64>(),
            scale in arb_scale(),
            guard_policy in TEXT,
        ) {
            let k = CellKey {
                dataset: dataset.as_str().into(),
                dataset_version: dataset_version.into(),
                strategy: strategy.as_str().into(),
                inputs: inputs.as_str().into(),
                seed,
                scale,
                guard_policy: guard_policy.into(),
            };
            let identity = k.identity();
            prop_assert_eq!(
                &identity,
                &format!(
                    "cell|{dataset}|{}|{strategy}|{inputs}|{seed}|{scale}|{}",
                    k.dataset_version, k.guard_policy
                )
            );
            prop_assert_eq!(k.hash(), fnv1a64(identity.as_bytes()));
            prop_assert_eq!(k.content_key(), format!("{:016x}", fnv1a64(identity.as_bytes())));
        }
    }
}
