//! Content keys for ledger entries.
//!
//! A key is the FNV-1a 64-bit hash of a canonical identity string built
//! from the fields that define a run — never from the volatile bytes of
//! the artifact (timings change every run; the *run* they measure does
//! not). Re-running a benchmark at the same (bin, seed, scale, strategy
//! set) therefore maps to the same key, and the ledger never
//! double-counts it.

/// FNV-1a 64-bit, defined once in rein-telemetry. Collision resistance
/// at ledger scale (hundreds of entries) is not a concern, and the
/// `(kind, source)` replace policy in the index disambiguates the
/// pathological case.
pub use rein_telemetry::fnv1a64;

/// A content key: 16 lowercase hex digits of [`fnv1a64`] over the
/// canonical identity string.
pub fn content_key(identity: &str) -> String {
    format!("{:016x}", fnv1a64(identity.as_bytes()))
}

/// The canonical identity string of a run artifact: `|`-joined fields,
/// strategies pre-sorted by the caller. `scale` is formatted with
/// Rust's shortest-roundtrip float formatting, which is deterministic.
pub fn run_identity(kind: &str, bin: &str, seed: u64, scale: f64, strategies: &[String]) -> String {
    format!("{kind}|{bin}|{seed}|{scale}|{}", strategies.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn keys_are_stable_and_distinguish_runs() {
        let strategies = vec!["detect:raha".to_string(), "repair:mean".to_string()];
        let a = content_key(&run_identity("run_manifest", "fig2", 11, 0.05, &strategies));
        let b = content_key(&run_identity("run_manifest", "fig2", 11, 0.05, &strategies));
        assert_eq!(a, b, "same run, same key");
        assert_eq!(a.len(), 16);
        let other_seed = content_key(&run_identity("run_manifest", "fig2", 12, 0.05, &strategies));
        assert_ne!(a, other_seed, "seed is part of the key");
        let other_scale = content_key(&run_identity("run_manifest", "fig2", 11, 0.1, &strategies));
        assert_ne!(a, other_scale, "scale is part of the key");
        let fewer = content_key(&run_identity("run_manifest", "fig2", 11, 0.05, &strategies[..1]));
        assert_ne!(a, fewer, "strategy set is part of the key");
    }
}
