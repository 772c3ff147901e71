//! The canonical cell-granularity cache key for incremental evaluation.
//!
//! The content-addressed cell store (`rein-store`) memoizes one grid
//! *cell* — a (dataset version, strategy, inputs, seed, scale, guard
//! policy) tuple — and replays its stored result on a key hit. That is
//! only sound if every value-influencing input of the cell computation
//! is a component of this key. A cell's phase inputs are one
//! [`CellInputs`], which its key renders and its compute closure reads,
//! and rein-core's `a_store_never_changes_a_grids_output` test checks
//! the other inputs (DESIGN.md §6h). Neither covers a changed kernel or a
//! hash collision: a key hit is not a proof that the stored bytes are
//! the ones a recompute would produce.
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

/// A cell's own inputs: what its phase reads beyond its table, seed,
/// scale and guard policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellInputs {
    /// A detection cell's label budget: `labels=<budget>`.
    Labels(usize),
    /// A repair cell's mask, FNV-1a-64 of its detect payload: `mask=<16 hex>`.
    Mask(u64),
    /// A model cell's score count: `repeats=<n>`.
    Repeats(usize),
}

impl fmt::Display for CellInputs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellInputs::Labels(budget) => write!(f, "labels={budget}"),
            CellInputs::Mask(digest) => write!(f, "mask={digest:016x}"),
            CellInputs::Repeats(n) => write!(f, "repeats={n}"),
        }
    }
}

/// The declared cache-key tuple of one grid cell.
///
/// Field order is the identity order: the key's `Display` joins the
/// components with `|` behind a `cell` kind tag, and
/// [`CellKey::content_key`] hashes that text.
/// Adding a value-influencing input to the cell computation means
/// adding it here, to [`CellInputs`] when it is a phase's own. The text
/// components borrow or own their strings alike: the grid borrows every
/// one of them.
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
    /// The phase's own inputs: the label budget of a detection cell,
    /// the mask digest of a repair cell, the repeat count of a model cell.
    pub inputs: CellInputs,
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
            inputs: CellInputs::Repeats(1),
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
            |k: &mut CellKey| k.inputs = CellInputs::Repeats(2),
            |k: &mut CellKey| k.inputs = CellInputs::Labels(1),
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

    /// Inputs with the identity text each rendered before the enum: the
    /// mask digest as the ledger's content key of the detect payload.
    fn arb_inputs() -> impl Strategy<Value = (CellInputs, String)> {
        prop_oneof![
            any::<usize>().prop_map(|n| (CellInputs::Labels(n), format!("labels={n}"))),
            TEXT.prop_map(|payload| (
                CellInputs::Mask(fnv1a64(payload.as_bytes())),
                format!("mask={}", content_key(&payload))
            )),
            any::<usize>().prop_map(|n| (CellInputs::Repeats(n), format!("repeats={n}"))),
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
            (inputs, rendered) in arb_inputs(),
            seed in any::<u64>(),
            scale in arb_scale(),
            guard_policy in TEXT,
        ) {
            let k = CellKey {
                dataset: dataset.as_str().into(),
                dataset_version: dataset_version.into(),
                strategy: strategy.as_str().into(),
                inputs,
                seed,
                scale,
                guard_policy: guard_policy.into(),
            };
            let identity = k.identity();
            prop_assert_eq!(
                &identity,
                &format!(
                    "cell|{dataset}|{}|{strategy}|{rendered}|{seed}|{scale}|{}",
                    k.dataset_version, k.guard_policy
                )
            );
            prop_assert_eq!(k.hash(), fnv1a64(identity.as_bytes()));
            prop_assert_eq!(k.content_key(), format!("{:016x}", fnv1a64(identity.as_bytes())));
        }
    }
}
