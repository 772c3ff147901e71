//! Call-graph closure fixture: the only path from `grid` to `risky`
//! runs through a closure passed to an iterator adapter, so reaching
//! `risky` proves the closure's member calls are traversable call edges.

pub fn grid(xs: &[u64]) -> Vec<u64> {
    xs.iter().map(|x| risky(*x)).collect()
}

fn risky(x: u64) -> u64 {
    if x == 0 {
        panic!("zero cell");
    }
    x
}
