//! Property tests for write-ahead-journal recovery (DESIGN.md §6j):
//! arbitrary bit flips, truncations and record duplication must never
//! panic, never silently accept a corrupt record, and always yield a
//! store whose surviving cells are byte-identical to something that
//! was actually committed — with the exact bad stretch quarantined and
//! reported, never repaired in place.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rein_store::{QuarantineEntry, Store};

/// Unique scratch root per case: proptest reruns cases concurrently
/// across test binaries, so pid alone is not enough.
fn scratch(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rein-store-prop-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Commits `n` deterministic cells and returns their (key, payload)
/// pairs alongside the store root. Rotation is disabled (huge limit) so
/// the whole journal stays in the tail the tests corrupt.
fn seeded(root: &Path, n: usize) -> Vec<(String, String)> {
    let store = Store::open_with_rotation(root, u64::MAX).expect("open fresh store");
    let mut committed = Vec::new();
    for i in 0..n {
        let key = format!("{i:016x}");
        let payload = format!("payload-{i}:{}", "x".repeat(i * 7 % 41));
        store.commit_one(&key, &format!("detect:d{i}"), &payload, None).expect("commit");
        committed.push((key, payload));
    }
    committed
}

/// Every surviving cell must be byte-identical to a committed one —
/// corruption may lose records (quarantined, truncated) but must never
/// invent or mutate one.
fn assert_survivors_are_committed(store: &Store, committed: &[(String, String)]) {
    for (key, payload) in committed {
        if let Some(cell) = store.lookup(key) {
            assert_eq!(&*cell.payload, payload, "surviving cell {key} mutated by recovery");
        }
    }
    let survivors = committed.iter().filter(|(k, _)| store.lookup(k).is_some()).count();
    assert_eq!(store.cell_count(), survivors, "recovery invented cells");
}

/// The in-memory recovery report and the on-disk structured report must
/// agree exactly — quarantine is never silent.
fn assert_quarantine_reported(root: &Path, store: &Store) {
    let recovered = &store.recovery().quarantined;
    if recovered.is_empty() {
        return;
    }
    let path = Store::quarantine_report_path(root);
    let text = std::fs::read_to_string(&path).expect("quarantine report on disk");
    let reported: Vec<QuarantineEntry> = serde_json::from_str(&text).expect("report parses");
    assert_eq!(&reported, recovered, "on-disk quarantine report differs from recovery outcome");
    for entry in recovered {
        assert!(
            root.join(&entry.quarantined_as).exists(),
            "quarantined blob {} missing",
            entry.quarantined_as
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A single flipped bit anywhere in the journal: recovery either
    /// keeps every record (flip landed in already-truncated slack — not
    /// possible here, so in practice it always quarantines) or
    /// truncates at the poisoned record; it never panics and never
    /// accepts mutated bytes.
    #[test]
    fn bit_flip_recovers_without_panic_or_silent_acceptance(
        n in 1usize..12,
        pos in 0usize..10_000,
        bit in 0u32..8,
    ) {
        let root = scratch("flip");
        let committed = seeded(&root, n);
        let journal = root.join("journal.wal");
        let mut bytes = std::fs::read(&journal).expect("journal bytes");
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&journal, &bytes).expect("write corrupted journal");

        let store = Store::open_with_rotation(&root, u64::MAX).expect("recovery must not fail");
        assert_survivors_are_committed(&store, &committed);
        assert_quarantine_reported(&root, &store);
        // The flip changed real bytes, so either some record was lost
        // (and quarantined) or the flip was absorbed — absorption would
        // mean a checksum collision, which must not silently happen.
        if store.cell_count() == committed.len() {
            prop_assert!(
                store.recovery().quarantined.is_empty(),
                "full survival must not coexist with quarantine"
            );
            // Full survival with no quarantine is only legal if the
            // reread bytes equal a valid journal — i.e. recovery
            // truncated the tail back to a good prefix. Re-opening once
            // more must be stable.
            let again = Store::open_with_rotation(&root, u64::MAX).expect("stable reopen");
            prop_assert_eq!(again.cell_count(), store.cell_count());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Truncating the journal at any byte: the good prefix replays, the
    /// torn tail (if the cut lands mid-record) quarantines, and a
    /// second open finds a fully valid journal.
    #[test]
    fn truncation_keeps_good_prefix_and_is_stable(
        n in 1usize..12,
        cut in 0usize..10_000,
    ) {
        let root = scratch("trunc");
        let committed = seeded(&root, n);
        let journal = root.join("journal.wal");
        let bytes = std::fs::read(&journal).expect("journal bytes");
        let keep = cut % (bytes.len() + 1);
        std::fs::write(&journal, &bytes[..keep]).expect("truncate journal");

        let store = Store::open_with_rotation(&root, u64::MAX).expect("recovery must not fail");
        assert_survivors_are_committed(&store, &committed);
        assert_quarantine_reported(&root, &store);
        // Survivors are exactly a prefix of the commit order: record i
        // survives only if every earlier record does.
        let alive: Vec<bool> =
            committed.iter().map(|(k, _)| store.lookup(k).is_some()).collect();
        let prefix_len = alive.iter().take_while(|a| **a).count();
        prop_assert!(
            alive.iter().skip(prefix_len).all(|a| !a),
            "truncation must lose a suffix, not arbitrary records: {alive:?}"
        );
        let again = Store::open_with_rotation(&root, u64::MAX).expect("stable reopen");
        prop_assert_eq!(again.cell_count(), store.cell_count());
        prop_assert!(again.recovery().quarantined.is_empty(), "second open must be clean");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Re-appending a stretch of already-committed frames (a crashed
    /// writer's replayed batch): duplicates deduplicate last-wins with
    /// no quarantine and no payload drift.
    #[test]
    fn duplicated_records_deduplicate_last_wins(
        n in 1usize..12,
        from in 0usize..10_000,
    ) {
        let root = scratch("dup");
        let committed = seeded(&root, n);
        let journal = root.join("journal.wal");
        let mut bytes = std::fs::read(&journal).expect("journal bytes");
        // Duplicate every frame from a record boundary on. Boundaries
        // are where scan stops cleanly; re-derive them by walking the
        // frame headers like recovery does.
        let mut boundaries = vec![8usize];
        let mut offset = 8usize;
        while offset + 12 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            offset += 12 + len;
            if offset <= bytes.len() {
                boundaries.push(offset);
            }
        }
        let start = boundaries[from % boundaries.len()];
        let tail = bytes[start..].to_vec();
        bytes.extend_from_slice(&tail);
        std::fs::write(&journal, &bytes).expect("write duplicated journal");

        let store = Store::open_with_rotation(&root, u64::MAX).expect("recovery must not fail");
        prop_assert_eq!(store.cell_count(), committed.len());
        for (key, payload) in &committed {
            prop_assert_eq!(&*store.lookup(key).expect("cell survives").payload, payload);
        }
        prop_assert!(
            store.recovery().quarantined.is_empty(),
            "duplicated valid frames are not corruption"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
