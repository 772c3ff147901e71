//! Content keys: the 16-hex FNV-1a 64 rendering of a canonical identity
//! string.
//!
//! A key is built from the fields that define a computation, never from
//! the volatile bytes of an artifact (timings change every run; the
//! computation they measure does not). `CellKey` and the dataset-version
//! identities stream their identity text through [`Fnv1a64`] into this
//! format without building the string; [`content_key`] renders a whole
//! identity string, the form their tests compare against. The cell
//! store shards by [`fnv1a64`].

/// FNV-1a 64-bit, whole and streamed, defined once in rein-telemetry.
pub use rein_telemetry::{fnv1a64, Fnv1a64};

/// A content key: 16 lowercase hex digits of [`fnv1a64`] over the
/// canonical identity string.
pub fn content_key(identity: &str) -> String {
    format!("{:016x}", fnv1a64(identity.as_bytes()))
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
}
