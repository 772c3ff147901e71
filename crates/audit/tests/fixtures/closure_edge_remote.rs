//! Companion file for `closure_edge_spawn_bad.rs`: the function the
//! spawn closure reaches across files.

pub fn remote_step(xs: &[u64]) -> u64 {
    if xs.is_empty() {
        panic!("empty shard");
    }
    xs[0]
}
