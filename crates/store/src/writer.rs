//! The sharded commit writer: rayon workers stage freshly-computed
//! cell results into per-shard buffers without contending on one lock,
//! and the grid's sequential merge points drain every shard through a
//! registered deterministic merge ([`StoreWriter::merge_shards`]) before
//! the store appends them to the journal — so the journal's byte order
//! is a function of the grid coordinates, never of worker scheduling.

use std::sync::{Arc, Mutex};

use rein_ledger::fnv1a64;

use crate::Record;

/// Staging buffer for cell commits produced on rayon workers.
#[derive(Debug)]
pub struct StoreWriter {
    shards: Vec<Mutex<Vec<Record>>>,
}

impl StoreWriter {
    /// A writer with `n` shards (at least one).
    pub fn with_shards(n: usize) -> Self {
        let shards = (0..n.max(1)).map(|_| Mutex::new(Vec::new())).collect();
        StoreWriter { shards }
    }

    /// Stages one freshly-computed cell for the next commit. Callable
    /// from parallel workers: the shard is picked by hashing the cell
    /// coordinate, so the same cell always lands in the same shard and
    /// no global lock serializes the fan-out. The payload and aux are
    /// shared with the caller, not copied.
    pub fn stage(&self, key: &str, coordinate: &str, payload: Arc<str>, aux: Option<Arc<str>>) {
        let shard = (fnv1a64(coordinate.as_bytes()) % self.shards.len() as u64) as usize;
        let record = Record { key: key.to_string(), coordinate: coordinate.into(), payload, aux };
        #[expect(clippy::expect_used, reason = "shard lock poisoning only follows another panic")]
        self.shards[shard].lock().expect("store writer shard lock").push(record);
    }

    /// Drains every shard and merges the staged records into one
    /// deterministic batch, sorted by `(coordinate, key)` — the merge
    /// output is invariant under worker count and arrival order. This is
    /// one of the audit's registered deterministic merges
    /// (`par-merge-registered`).
    pub fn merge_shards(&self) -> Vec<Record> {
        let mut out = Vec::new();
        for shard in &self.shards {
            #[expect(
                clippy::expect_used,
                reason = "shard lock poisoning only follows another panic"
            )]
            out.append(&mut shard.lock().expect("store writer shard lock"));
        }
        out.sort_by(|a, b| (&a.coordinate, &a.key).cmp(&(&b.coordinate, &b.key)));
        out
    }

    /// Number of currently staged records across all shards.
    #[expect(clippy::expect_used, reason = "shard lock poisoning only follows another panic")]
    pub fn staged_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("store writer shard lock").len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_sorted_and_scheduling_invariant() {
        let a = StoreWriter::with_shards(4);
        a.stage("k2", "repair:b#a", "two".into(), None);
        a.stage("k1", "detect:a", "one".into(), Some("v:aux".into()));
        a.stage("k3", "eval:S1:b#a", "three".into(), None);

        let b = StoreWriter::with_shards(1);
        // Same records staged in a different order into a different
        // shard layout must merge to the same batch.
        b.stage("k3", "eval:S1:b#a", "three".into(), None);
        b.stage("k1", "detect:a", "one".into(), Some("v:aux".into()));
        b.stage("k2", "repair:b#a", "two".into(), None);

        let ma = a.merge_shards();
        let mb = b.merge_shards();
        assert_eq!(ma, mb);
        assert_eq!(&*ma[0].coordinate, "detect:a");
        assert_eq!(ma[0].aux.as_deref(), Some("v:aux"));
        assert_eq!(a.staged_len(), 0, "merge drains the shards");
    }
}
