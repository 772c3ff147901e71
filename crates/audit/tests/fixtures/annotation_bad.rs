//! Fixture: allows without a reason are themselves violations, and do not
//! suppress anything.
// audit:allow-file(seed-provenance)
pub fn draw() -> u64 {
    let mut rng = StdRng::seed_from_u64(7);
    rng.next_u64()
}
