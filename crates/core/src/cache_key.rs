//! The canonical cell-granularity cache key for incremental evaluation.
//!
//! The ROADMAP's content-addressed incremental store memoizes one grid
//! *cell* — a (dataset version, strategy, seed, scale, guard policy)
//! tuple — and replays its stored result on a key hit. That is only
//! sound if every value-influencing input of the cell computation is a
//! component of this key; `rein-audit`'s `cache-key-completeness` rule
//! certifies exactly that by proving the cell-compute entry points
//! key-pure against [`CellKey`] (see DESIGN.md §6h).
//!
//! The hash is the workspace's one FNV-1a-64, rendered in `rein-ledger`'s
//! 16-hex content-key format; the durable cell store (`rein-store`)
//! journals each cell under this key.

use rein_ledger::{content_key, fnv1a64};

/// The declared cache-key tuple of one grid cell.
///
/// Field order is the identity order: [`CellKey::identity`] joins the
/// components with `|` behind a `cell` kind tag, and
/// [`CellKey::content_key`] hashes that string.
/// Adding a value-influencing input to the cell computation means
/// adding a field here — the audit's purity certificate is relative to
/// this struct's declared fields.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Dataset name (`DatasetInfo::name`).
    pub dataset: String,
    /// Content identity of the exact table version the cell consumes:
    /// the dirty table for detection cells, a repair's output version
    /// for model cells.
    pub dataset_version: String,
    /// Strategy id: detector name, `repair#detector`, or
    /// `scenario:repair#detector` — the same labels `run_grid` keys
    /// its score map with.
    pub strategy: String,
    /// The fully-derived cell seed (after every `derive_seed` step).
    pub seed: u64,
    /// Dataset scale factor the cell ran at.
    pub scale: f64,
    /// Canonical rendering of the guard policy (deadline budgets and
    /// chaos spec), since the guard can degrade a cell's result.
    pub guard_policy: String,
}

impl CellKey {
    /// The `|`-joined identity string: `cell|` and then each component
    /// in field order.
    pub fn identity(&self) -> String {
        format!(
            "cell|{}|{}|{}|{}|{}|{}",
            self.dataset,
            self.dataset_version,
            self.strategy,
            self.seed,
            self.scale,
            self.guard_policy
        )
    }

    /// FNV-1a-64 of [`CellKey::identity`], as the ledger's 16-hex-digit
    /// content key format.
    pub fn content_key(&self) -> String {
        content_key(&self.identity())
    }

    /// The raw 64-bit hash, for callers that index numerically.
    pub fn hash(&self) -> u64 {
        fnv1a64(self.identity().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CellKey {
        CellKey {
            dataset: "beers".to_string(),
            dataset_version: "v:0123456789abcdef".to_string(),
            strategy: "eval:S1:ImputeMeanMode#Raha".to_string(),
            seed: 41_207,
            scale: 1.0,
            guard_policy: "deadline=0;chaos=off".to_string(),
        }
    }

    #[test]
    fn identity_is_pipe_joined_in_field_order() {
        assert_eq!(
            key().identity(),
            "cell|beers|v:0123456789abcdef|eval:S1:ImputeMeanMode#Raha|41207|1|deadline=0;chaos=off"
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
            |k: &mut CellKey| k.dataset.push('x'),
            |k: &mut CellKey| k.dataset_version.push('x'),
            |k: &mut CellKey| k.strategy.push('x'),
            |k: &mut CellKey| k.seed += 1,
            |k: &mut CellKey| k.scale += 0.5,
            |k: &mut CellKey| k.guard_policy.push('x'),
        ] {
            let mut other = base.clone();
            mutate(&mut other);
            assert_ne!(base.content_key(), other.content_key());
        }
    }
}
