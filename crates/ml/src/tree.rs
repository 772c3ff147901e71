//! CART decision trees (classification by Gini impurity, regression by
//! variance reduction), with optional per-node feature subsampling so the
//! same machinery drives random forests.

use std::ops::Range;

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::linalg::Matrix;
use crate::model::{Classifier, Regressor};

/// Tree growth limits.
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Features considered per split (`None` = all); forests set √d.
    pub max_features: Option<usize>,
    /// Seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    /// Leaf payload: class histogram (classification) or mean (regression,
    /// stored as a one-element histogram with the mean in `value`).
    Leaf {
        value: Vec<f64>,
    },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

enum Target<'a> {
    Class { y: &'a [usize], n_classes: usize },
    Reg { y: &'a [f64] },
}

impl Target<'_> {
    /// Leaf payload for the given samples.
    fn leaf_value(&self, rows: &[usize]) -> Vec<f64> {
        match self {
            Target::Class { y, n_classes } => {
                let mut hist = vec![0.0; *n_classes];
                for &r in rows {
                    hist[y[r]] += 1.0;
                }
                let total: f64 = hist.iter().sum();
                if total > 0.0 {
                    for h in &mut hist {
                        *h /= total;
                    }
                }
                hist
            }
            Target::Reg { y } => {
                let mean = if rows.is_empty() {
                    0.0
                } else {
                    rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len() as f64
                };
                vec![mean]
            }
        }
    }
}

/// Gini impurity of a class histogram over `cnt` samples. Summing only
/// the classes present in a node gives the same bits as summing every
/// class: an absent class adds exactly `+0.0`.
fn gini(hist: &[usize], cnt: f64) -> f64 {
    if cnt == 0.0 {
        return 0.0;
    }
    1.0 - hist.iter().map(|&h| (h as f64 / cnt).powi(2)).sum::<f64>()
}

/// Weighted Gini of a split into `left` and `right` over `n` samples.
fn gini_score(left: &[usize], right: &[usize], nl: f64, n: f64) -> f64 {
    let nr = n - nl;
    (nl / n) * gini(left, nl) + (nr / n) * gini(right, nr)
}

/// Weighted variance of a split, from the left side's running sums and
/// the node's totals.
fn variance_score(n: f64, nl: f64, left: (f64, f64), total: (f64, f64)) -> f64 {
    let nr = n - nl;
    let (left_sum, left_sq) = left;
    let var_l = left_sq / nl - (left_sum / nl).powi(2);
    let right_sum = total.0 - left_sum;
    let right_sq = total.1 - left_sq;
    let var_r = right_sq / nr - (right_sum / nr).powi(2);
    (nl / n) * var_l.max(0.0) + (nr / n) * var_r.max(0.0)
}

/// The best candidate so far: (score, imbalance, feature, threshold).
/// Ties on score prefer the more balanced split — on XOR-like data every
/// split has equal gain and the balanced choice keeps the tree shallow
/// enough to reach purity.
#[derive(Default)]
struct Best(Option<(f64, f64, usize, f64)>);

impl Best {
    fn offer(&mut self, score: f64, nl: f64, n: f64, feature: usize, threshold: f64) {
        let imbalance = (nl - (n - nl)).abs();
        let better = match self.0 {
            None => true,
            Some((bs, bi, _, _)) => {
                score < bs - 1e-12 || ((score - bs).abs() <= 1e-12 && imbalance < bi)
            }
        };
        if better {
            self.0 = Some((score, imbalance, feature, threshold));
        }
    }
}

/// How one feature's values over a set of rows can split them, decided in
/// one pass before any sort. A fit that scores every feature at every node
/// classifies each feature once, over all its rows, and a node's rows are a
/// subset of those. A fit that draws fewer features per node, as a forest's
/// trees do, classifies the drawn features at each node: classifying and
/// presorting up front read every feature of every forest tree, and were
/// measured slower (EXPERIMENTS.md).
#[derive(Clone, Copy)]
enum Shape {
    /// Every value is `==` to every other: no threshold. Every subset of
    /// the rows is constant too, so a fit never scans such a feature again.
    Constant,
    /// Exactly two bit patterns, neither NaN, `lo < hi` (one-hot columns).
    /// A node holds one of them (no threshold) or both, with one boundary
    /// at which the sorted order is every `lo` row, then every `hi` row.
    /// Scored from counts in one pass over the node's rows, with no shape
    /// scan: putting the rows in that order for the general scan gives the
    /// same bits, but was measured 7 % slower end to end on a grid where
    /// 40 % of the scored features are two-valued (EXPERIMENTS.md).
    TwoValued { lo: f64, hi: f64 },
    /// Anything else is scanned in sorted order: the node's range of the
    /// fit's presorted order ([`Presorted::orders`]), or, in a fit that
    /// classifies per node, a sort at the node.
    General,
}

fn shape(x: &Matrix, rows: &[usize], f: usize) -> Shape {
    let first = x[(rows[0], f)];
    let mut all_eq = true;
    let mut second: Option<f64> = None;
    for &r in rows {
        let v = x[(r, f)];
        all_eq &= v == first;
        if v.to_bits() != first.to_bits() {
            match second {
                None => second = Some(v),
                // Three bit patterns are never all `==`.
                Some(s) if s.to_bits() != v.to_bits() => return Shape::General,
                Some(_) => {}
            }
        }
    }
    match second {
        _ if all_eq => Shape::Constant,
        // Not all `==`, so the two values differ.
        Some(s) if !first.is_nan() && !s.is_nan() => {
            let (lo, hi) = if first < s { (first, s) } else { (s, first) };
            Shape::TwoValued { lo, hi }
        }
        // NaN is not `==` to itself, so every NaN boundary is a candidate.
        _ => Shape::General,
    }
}

/// How many features each node of a fit over `d` features draws, when it
/// draws fewer than all of them.
fn drawn_subset(params: &TreeParams, d: usize) -> Option<usize> {
    params.max_features.filter(|&k| k < d).map(|k| k.max(1))
}

/// What a node scans of one feature.
enum Scan<'s> {
    /// A two-valued feature's rows, scored from counts; the node may hold
    /// only one of the values.
    TwoValued { lo: f64, hi: f64 },
    /// The node's (value, row) pairs, sorted by (`total_cmp`, row).
    Sorted(&'s [(f64, usize)]),
}

/// How the node with `rows` (a range of the fit's rows from `start`)
/// scans feature `f`: from the fit's classification and order when it has
/// them, else classified and sorted here; `None` when the node's rows
/// cannot split on it.
fn scan<'s>(
    x: &Matrix,
    rows: &[usize],
    start: usize,
    f: usize,
    presorted: Option<&'s Presorted>,
    sorted: &'s mut Vec<(f64, usize)>,
) -> Option<Scan<'s>> {
    let node_shape = match presorted {
        Some(fit) => fit.shapes[f],
        None => shape(x, rows, f),
    };
    match node_shape {
        Shape::Constant => None,
        Shape::TwoValued { lo, hi } => Some(Scan::TwoValued { lo, hi }),
        Shape::General => Some(Scan::Sorted(match presorted {
            Some(fit) => &fit.orders[f][start..start + rows.len()],
            None => {
                sort_by_value(x, rows, f, sorted);
                sorted
            }
        })),
    }
}

/// A matrix's columns, each sorted once by (`total_cmp`, row), for fits
/// over subsets of its rows and columns ([`Subset`]). Only the columns a
/// split scans in sorted order ([`Shape::General`] over every row) are
/// sorted: a constant or two-valued column stays so on every subset of
/// its rows, so no fit ever asks for their order.
pub struct ColumnOrders {
    /// Per column, its (value, row) pairs in sorted order; empty for a
    /// column that is not general.
    orders: Vec<Vec<(f64, usize)>>,
    rows: usize,
}

impl ColumnOrders {
    /// Sorts the general columns of `x`.
    pub fn new(x: &Matrix) -> Self {
        let rows: Vec<usize> = (0..x.rows()).collect();
        let mut orders = vec![Vec::new(); x.cols()];
        if !rows.is_empty() {
            for (f, order) in orders.iter_mut().enumerate() {
                if let Shape::General = shape(x, &rows, f) {
                    sort_by_value(x, &rows, f, order);
                }
            }
        }
        ColumnOrders { orders, rows: x.rows() }
    }
}

/// What a fit's matrix holds of a larger matrix `x`:
/// `select_matrix_rows_without(x, rows, drop)`, with `x`'s
/// [`ColumnOrders`]. A full-feature fit over it
/// ([`DecisionTreeRegressor::fit_subset`],
/// [`DecisionTreeClassifier::fit_subset`]) takes each general feature's
/// presort from `x`'s order, restricted to `rows` and renumbered, instead
/// of sorting it. `rows` must be ascending: the restricted order is then
/// sorted by (`total_cmp`, local row), exactly the order a fresh sort
/// gives, so the fit grows the same tree as a plain one on the subset.
pub struct Subset<'a> {
    /// `x`'s column orders.
    pub orders: &'a ColumnOrders,
    /// Rows of `x` the fit's matrix holds, ascending.
    pub rows: &'a [usize],
    /// Columns of `x` the fit's matrix drops.
    pub drop: Range<usize>,
}

impl Subset<'_> {
    /// Checks that `xs` can be this subset of its matrix.
    fn check(&self, xs: &Matrix) {
        assert_eq!(xs.rows(), self.rows.len(), "subset rows");
        assert_eq!(xs.cols() + self.drop.len(), self.orders.orders.len(), "subset columns");
        assert!(self.rows.windows(2).all(|w| w[0] < w[1]), "subset rows must ascend");
    }

    /// Fills `order` with feature `f` of the fit's matrix in sorted order:
    /// its column's order in `x`, keeping the rows in the subset, each
    /// renumbered through `local` (row of `x` → row of the fit).
    fn restrict(&self, f: usize, local: &[usize], order: &mut Vec<(f64, usize)>) {
        let col = if f < self.drop.start { f } else { f + self.drop.len() };
        order.clear();
        order.extend(
            self.orders.orders[col]
                .iter()
                .filter(|&&(_, r)| local[r] != NO_SLOT)
                .map(|&(v, r)| (v, local[r])),
        );
        // A general feature of the subset is general in `x`, so its
        // column was sorted there.
        assert_eq!(order.len(), self.rows.len(), "feature {f} has no order in the full matrix");
    }
}

/// What a fit that scores every feature at every node works out once.
struct Presorted {
    /// Each feature's shape over all rows of the fit.
    shapes: Vec<Shape>,
    /// Per [`Shape::General`] feature (empty for the others): its
    /// (value, row) pairs sorted by (`total_cmp`, row), then partitioned
    /// stably alongside `Grower::rows` at each split, so a node's range of
    /// it is the node's rows in sorted order.
    orders: Vec<Vec<(f64, usize)>>,
    /// Whether each row of the node being split goes left.
    goes_left: Vec<bool>,
}

impl Presorted {
    /// Classifies and orders every feature over `rows`, all rows of `x`:
    /// sorted here, or restricted from `subset`'s orders.
    fn new(x: &Matrix, rows: &[usize], subset: Option<&Subset<'_>>) -> Self {
        let shapes: Vec<Shape> = (0..x.cols()).map(|f| shape(x, rows, f)).collect();
        let mut local = Vec::new();
        if let Some(subset) = subset {
            local = vec![NO_SLOT; subset.orders.rows];
            for (i, &r) in subset.rows.iter().enumerate() {
                local[r] = i;
            }
        }
        let mut orders = vec![Vec::new(); x.cols()];
        for (f, order) in orders.iter_mut().enumerate() {
            if let Shape::General = shapes[f] {
                match subset {
                    Some(subset) => subset.restrict(f, &local, order),
                    None => sort_by_value(x, rows, f, order),
                }
            }
        }
        Presorted { shapes, orders, goes_left: vec![false; x.rows()] }
    }
}

const NO_SLOT: usize = usize::MAX;

/// One fit's workspace. Every node's rows are a range of `rows`, and a
/// split partitions its range stably in place, so each range stays
/// ascending: sums in row order and the stable sort order by value are
/// those of a fresh per-node row list. Nothing here allocates per node
/// except a leaf's payload.
struct Grower<'a> {
    x: &'a Matrix,
    target: &'a Target<'a>,
    params: &'a TreeParams,
    rng: StdRng,
    nodes: Vec<Node>,
    rows: Vec<usize>,
    /// `None` when nodes draw fewer than every feature.
    presorted: Option<Presorted>,
    /// (value, row) pairs of the feature being sorted; during a partition,
    /// the right side of an order.
    sorted: Vec<(f64, usize)>,
    /// The right side's rows during a partition.
    spill: Vec<usize>,
    /// A full shuffle of the feature indices; a node scores a prefix.
    features: Vec<usize>,
    /// Class → index in `present`, or [`NO_SLOT`] for a class outside it.
    slot: Vec<usize>,
    /// The last searched node's classes, ascending.
    present: Vec<usize>,
    /// Per-slot counts: the node's, and each side of a candidate split.
    counts: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
    /// The features the current split search scanned.
    #[cfg(test)]
    scanned: Vec<usize>,
    #[cfg(test)]
    searches: Vec<Search>,
}

/// One split search, as the tests replay it.
#[cfg(test)]
struct Search {
    rows: Vec<usize>,
    features: Vec<usize>,
    scanned: Vec<usize>,
    best: Option<(f64, f64, usize, f64)>,
}

fn build_tree(
    x: &Matrix,
    target: &Target<'_>,
    params: &TreeParams,
    subset: Option<&Subset<'_>>,
) -> Tree {
    let mut grower = Grower::new(x, target, params, subset);
    grower.node(0, x.rows(), 0);
    Tree { nodes: grower.nodes }
}

impl<'a> Grower<'a> {
    fn new(
        x: &'a Matrix,
        target: &'a Target<'a>,
        params: &'a TreeParams,
        subset: Option<&Subset<'_>>,
    ) -> Self {
        let n_classes = match target {
            Target::Class { n_classes, .. } => *n_classes,
            Target::Reg { .. } => 0,
        };
        let rows: Vec<usize> = (0..x.rows()).collect();
        let presorted =
            drawn_subset(params, x.cols()).is_none().then(|| Presorted::new(x, &rows, subset));
        Grower {
            x,
            target,
            params,
            rng: StdRng::seed_from_u64(params.seed),
            nodes: Vec::new(),
            rows,
            presorted,
            sorted: Vec::with_capacity(x.rows()),
            spill: Vec::with_capacity(x.rows()),
            features: Vec::with_capacity(x.cols()),
            slot: vec![NO_SLOT; n_classes],
            present: Vec::with_capacity(n_classes),
            counts: Vec::with_capacity(n_classes),
            left: Vec::with_capacity(n_classes),
            right: Vec::with_capacity(n_classes),
            #[cfg(test)]
            scanned: Vec::new(),
            #[cfg(test)]
            searches: Vec::new(),
        }
    }

    fn node(&mut self, start: usize, end: usize, depth: usize) -> usize {
        rein_guard::checkpoint((end - start) as u64);
        let make_leaf =
            depth >= self.params.max_depth || end - start < self.params.min_samples_split;
        if !make_leaf {
            let k = self.draw_features();
            let best = self.best_split(start, end, k);
            #[cfg(test)]
            self.searches.push(Search {
                rows: self.rows[start..end].to_vec(),
                features: self.features[..k].to_vec(),
                scanned: std::mem::take(&mut self.scanned),
                best,
            });
            if let Some((_, _, feature, threshold)) = best {
                let mid = self.partition(start, end, feature, threshold);
                // The threshold can round onto a side's value and send
                // every row one way; the node is then a leaf.
                if mid > start && mid < end {
                    // Only children that may split read the orders.
                    if depth + 1 < self.params.max_depth {
                        self.partition_orders(start, mid, end);
                    }
                    let id = self.nodes.len();
                    self.nodes.push(Node::Leaf { value: Vec::new() }); // placeholder
                    let left = self.node(start, mid, depth + 1);
                    let right = self.node(mid, end, depth + 1);
                    self.nodes[id] = Node::Split { feature, threshold, left, right };
                    return id;
                }
            }
        }
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: self.target.leaf_value(&self.rows[start..end]) });
        id
    }

    /// Shuffles every feature index and returns how many of them, from
    /// the front, the node scores.
    fn draw_features(&mut self) -> usize {
        let d = self.x.cols();
        self.features.clear();
        self.features.extend(0..d);
        match drawn_subset(self.params, d) {
            Some(k) => {
                self.features.shuffle(&mut self.rng);
                k
            }
            None => d,
        }
    }

    /// The best (score, imbalance, feature, threshold) among the first `k`
    /// drawn features, or `None` when the node is pure or no feature has a
    /// boundary. Zero-gain splits are allowed (as in scikit-learn): on
    /// XOR-like data no single split improves impurity, yet the children
    /// become separable. Recursion still terminates because both children
    /// are strictly smaller.
    fn best_split(&mut self, start: usize, end: usize, k: usize) -> Option<(f64, f64, usize, f64)> {
        match *self.target {
            Target::Class { y, .. } => self.best_class_split(y, start, end, k),
            Target::Reg { y } => self.best_reg_split(y, start, end, k),
        }
    }

    fn best_class_split(
        &mut self,
        y: &[usize],
        start: usize,
        end: usize,
        k: usize,
    ) -> Option<(f64, f64, usize, f64)> {
        let Grower {
            x,
            params,
            rows,
            presorted,
            sorted,
            features,
            slot,
            present,
            counts,
            left,
            right,
            #[cfg(test)]
            scanned,
            ..
        } = self;
        let rows = &rows[start..end];
        let (m, min_leaf) = (rows.len(), params.min_samples_leaf);
        let n = m as f64;
        // Give the node's classes slots in ascending class order, so every
        // Gini sum runs in class order. The previous node's slots are
        // cleared first.
        for &c in present.iter() {
            slot[c] = NO_SLOT;
        }
        present.clear();
        for &r in rows {
            if slot[y[r]] == NO_SLOT {
                slot[y[r]] = 0;
                present.push(y[r]);
            }
        }
        present.sort_unstable();
        for (s, &c) in present.iter().enumerate() {
            slot[c] = s;
        }
        counts.clear();
        counts.resize(present.len(), 0);
        for &r in rows {
            counts[slot[y[r]]] += 1;
        }
        if gini(counts, n) <= 1e-12 {
            return None;
        }
        left.resize(present.len(), 0);
        right.resize(present.len(), 0);
        let mut best = Best::default();
        for &f in &features[..k] {
            let Some(scan) = scan(x, rows, start, f, presorted.as_ref(), sorted) else {
                continue;
            };
            #[cfg(test)]
            scanned.push(f);
            match scan {
                Scan::TwoValued { lo, hi } => {
                    left.fill(0);
                    let mut nl = 0;
                    for &r in rows {
                        if x[(r, f)].to_bits() == lo.to_bits() {
                            left[slot[y[r]]] += 1;
                            nl += 1;
                        }
                    }
                    // Too few rows on a side, or none: the node holds only
                    // one of the values.
                    if nl.min(m - nl) < min_leaf.max(1) {
                        continue;
                    }
                    for ((r, &c), &l) in right.iter_mut().zip(counts.iter()).zip(left.iter()) {
                        *r = c - l;
                    }
                    let nl = nl as f64;
                    best.offer(gini_score(left, right, nl, n), nl, n, f, (lo + hi) / 2.0);
                }
                Scan::Sorted(sorted) => {
                    left.fill(0);
                    right.copy_from_slice(counts);
                    for i in 0..m - 1 {
                        let (v_here, r) = sorted[i];
                        left[slot[y[r]]] += 1;
                        right[slot[y[r]]] -= 1;
                        if (i + 1) < min_leaf || (m - i - 1) < min_leaf {
                            continue;
                        }
                        let v_next = sorted[i + 1].0;
                        if v_here == v_next {
                            continue;
                        }
                        let nl = (i + 1) as f64;
                        best.offer(
                            gini_score(left, right, nl, n),
                            nl,
                            n,
                            f,
                            (v_here + v_next) / 2.0,
                        );
                    }
                }
            }
        }
        best.0
    }

    fn best_reg_split(
        &mut self,
        y: &[f64],
        start: usize,
        end: usize,
        k: usize,
    ) -> Option<(f64, f64, usize, f64)> {
        let Grower {
            x,
            params,
            rows,
            presorted,
            sorted,
            features,
            #[cfg(test)]
            scanned,
            ..
        } = self;
        let rows = &rows[start..end];
        let (m, min_leaf) = (rows.len(), params.min_samples_leaf);
        let n = m as f64;
        let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / n;
        let variance = rows.iter().map(|&r| (y[r] - mean).powi(2)).sum::<f64>() / n;
        if variance <= 1e-12 {
            return None;
        }
        let mut best = Best::default();
        for &f in &features[..k] {
            let Some(scan) = scan(x, rows, start, f, presorted.as_ref(), sorted) else {
                continue;
            };
            #[cfg(test)]
            scanned.push(f);
            match scan {
                Scan::TwoValued { lo, hi } => {
                    let (mut nl, mut left_sum, mut left_sq) = (0, 0.0, 0.0);
                    for &r in rows {
                        if x[(r, f)].to_bits() == lo.to_bits() {
                            nl += 1;
                            left_sum += y[r];
                            left_sq += y[r] * y[r];
                        }
                    }
                    // Too few rows on a side, or none: the node holds only
                    // one of the values.
                    if nl.min(m - nl) < min_leaf.max(1) {
                        continue;
                    }
                    // The node's totals in sorted order: the low rows' sums,
                    // then each high row folded on in row order. These
                    // start from +0.0 where `Iterator::sum` starts from
                    // -0.0; the bits differ only when every target is a
                    // zero, and a node with variance has a nonzero one.
                    let (mut total_sum, mut total_sq) = (left_sum, left_sq);
                    for &r in rows {
                        if x[(r, f)].to_bits() != lo.to_bits() {
                            total_sum += y[r];
                            total_sq += y[r] * y[r];
                        }
                    }
                    let nl = nl as f64;
                    let score = variance_score(n, nl, (left_sum, left_sq), (total_sum, total_sq));
                    best.offer(score, nl, n, f, (lo + hi) / 2.0);
                }
                Scan::Sorted(sorted) => {
                    let total_sum: f64 = sorted.iter().map(|&(_, r)| y[r]).sum();
                    let total_sq: f64 = sorted.iter().map(|&(_, r)| y[r] * y[r]).sum();
                    let mut left_sum = 0.0;
                    let mut left_sq = 0.0;
                    for i in 0..m - 1 {
                        let (v_here, r) = sorted[i];
                        left_sum += y[r];
                        left_sq += y[r] * y[r];
                        if (i + 1) < min_leaf || (m - i - 1) < min_leaf {
                            continue;
                        }
                        let v_next = sorted[i + 1].0;
                        if v_here == v_next {
                            continue;
                        }
                        let nl = (i + 1) as f64;
                        let score =
                            variance_score(n, nl, (left_sum, left_sq), (total_sum, total_sq));
                        best.offer(score, nl, n, f, (v_here + v_next) / 2.0);
                    }
                }
            }
        }
        best.0
    }

    /// Moves the rows of `start..end` with `x[f] <= threshold` to the
    /// front, keeping both sides in their order; returns where the right
    /// side starts.
    fn partition(&mut self, start: usize, end: usize, f: usize, threshold: f64) -> usize {
        self.spill.clear();
        let mut mid = start;
        for i in start..end {
            let r = self.rows[i];
            if self.x[(r, f)] <= threshold {
                self.rows[mid] = r;
                mid += 1;
            } else {
                self.spill.push(r);
            }
        }
        self.rows[mid..end].copy_from_slice(&self.spill);
        mid
    }

    /// Splits each presorted order's `start..end` range as `rows` was split
    /// at `mid`, keeping both sides in their order, so each side stays
    /// sorted by (`total_cmp`, row).
    fn partition_orders(&mut self, start: usize, mid: usize, end: usize) {
        let Grower { rows, presorted: Some(fit), sorted: spill, .. } = self else {
            return;
        };
        for (i, &r) in rows[start..end].iter().enumerate() {
            fit.goes_left[r] = start + i < mid;
        }
        let goes_left = &fit.goes_left;
        for order in fit.orders.iter_mut().filter(|order| !order.is_empty()) {
            let range = &mut order[start..end];
            spill.clear();
            let mut left = 0;
            for i in 0..range.len() {
                let pair = range[i];
                if goes_left[pair.1] {
                    range[left] = pair;
                    left += 1;
                } else {
                    spill.push(pair);
                }
            }
            range[left..].copy_from_slice(spill);
        }
    }
}

/// Fills `sorted` with `rows`' (value, row) pairs in the order of a stable
/// sort by value under `total_cmp`: `rows` is ascending, so breaking ties
/// by row reproduces it.
fn sort_by_value(x: &Matrix, rows: &[usize], f: usize, sorted: &mut Vec<(f64, usize)>) {
    sorted.clear();
    sorted.extend(rows.iter().map(|&r| (x[(r, f)], r)));
    sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

impl Tree {
    fn leaf_of(&self, xr: &[f64]) -> &[f64] {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Split { feature, threshold, left, right } => {
                    node = if xr[*feature] <= *threshold { *left } else { *right };
                }
                Node::Leaf { value } => return value,
            }
        }
    }
}

/// CART classifier.
#[derive(Debug, Clone)]
pub struct DecisionTreeClassifier {
    params: TreeParams,
    tree: Option<Tree>,
    n_classes: usize,
}

impl DecisionTreeClassifier {
    /// Builds an (unfitted) tree classifier.
    pub fn new(params: TreeParams) -> Self {
        Self { params, tree: None, n_classes: 0 }
    }

    /// Class-probability row for one sample (exposed for boosting/forests):
    /// the leaf's histogram, empty before a fit.
    pub fn proba_row(&self, xr: &[f64]) -> &[f64] {
        self.tree.as_ref().map_or(&[], |t| t.leaf_of(xr))
    }

    /// [`Classifier::fit`] on `x`, which holds `subset` of a larger
    /// matrix; a full-feature fit takes its presort from `subset`.
    pub fn fit_subset(&mut self, x: &Matrix, y: &[usize], n_classes: usize, subset: &Subset<'_>) {
        subset.check(x);
        self.fit_from(x, y, n_classes, Some(subset));
    }

    fn fit_from(&mut self, x: &Matrix, y: &[usize], n_classes: usize, subset: Option<&Subset<'_>>) {
        assert_eq!(x.rows(), y.len());
        self.n_classes = n_classes.max(1);
        if x.rows() == 0 {
            self.tree = Some(Tree { nodes: vec![Node::Leaf { value: vec![0.0; self.n_classes] }] });
            return;
        }
        let target = Target::Class { y, n_classes: self.n_classes };
        self.tree = Some(build_tree(x, &target, &self.params, subset));
    }
}

impl Classifier for DecisionTreeClassifier {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        self.fit_from(x, y, n_classes, None);
    }

    fn predict(&self, x: &Matrix) -> Vec<usize> {
        (0..x.rows()).map(|r| crate::linalg::argmax(self.proba_row(x.row(r)))).collect()
    }

    fn predict_proba(&self, x: &Matrix, n_classes: usize) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), n_classes);
        for r in 0..x.rows() {
            let p = self.proba_row(x.row(r));
            let w = p.len().min(n_classes);
            out.row_mut(r)[..w].copy_from_slice(&p[..w]);
        }
        out
    }
}

/// CART regressor.
#[derive(Debug, Clone)]
pub struct DecisionTreeRegressor {
    params: TreeParams,
    tree: Option<Tree>,
}

impl DecisionTreeRegressor {
    /// Builds an (unfitted) tree regressor.
    pub fn new(params: TreeParams) -> Self {
        Self { params, tree: None }
    }

    /// [`Regressor::fit`] on `x`, which holds `subset` of a larger matrix;
    /// a full-feature fit takes its presort from `subset`.
    pub fn fit_subset(&mut self, x: &Matrix, y: &[f64], subset: &Subset<'_>) {
        subset.check(x);
        self.fit_from(x, y, Some(subset));
    }

    fn fit_from(&mut self, x: &Matrix, y: &[f64], subset: Option<&Subset<'_>>) {
        assert_eq!(x.rows(), y.len());
        if x.rows() == 0 {
            self.tree = Some(Tree { nodes: vec![Node::Leaf { value: vec![0.0] }] });
            return;
        }
        let target = Target::Reg { y };
        self.tree = Some(build_tree(x, &target, &self.params, subset));
    }
}

impl Regressor for DecisionTreeRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) {
        self.fit_from(x, y, None);
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.tree.as_ref().map_or(0.0, |t| t.leaf_of(x.row(r))[0])).collect()
    }
}

/// The split search as it was before the per-fit workspace: a fresh row
/// list per node, a full sort per feature and Gini over every class. The
/// workspace kernel must grow the same tree, bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    fn impurity(target: &Target<'_>, rows: &[usize]) -> f64 {
        match target {
            Target::Class { y, n_classes } => {
                let mut hist = vec![0usize; *n_classes];
                for &r in rows {
                    hist[y[r]] += 1;
                }
                let n = rows.len() as f64;
                if n == 0.0 {
                    return 0.0;
                }
                1.0 - hist.iter().map(|&h| (h as f64 / n).powi(2)).sum::<f64>()
            }
            Target::Reg { y } => {
                if rows.is_empty() {
                    return 0.0;
                }
                let n = rows.len() as f64;
                let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / n;
                rows.iter().map(|&r| (y[r] - mean).powi(2)).sum::<f64>() / n
            }
        }
    }

    /// The winning (score, imbalance, feature, threshold).
    pub(super) fn best_candidate(
        x: &Matrix,
        target: &Target<'_>,
        rows: &[usize],
        features: &[usize],
        min_leaf: usize,
    ) -> Option<(f64, f64, usize, f64)> {
        let parent_impurity = impurity(target, rows);
        if parent_impurity <= 1e-12 {
            return None;
        }
        let n = rows.len() as f64;
        let mut best: Option<(f64, f64, usize, f64)> = None;

        for &f in features {
            let mut sorted: Vec<usize> = rows.to_vec();
            sorted.sort_by(|&a, &b| x[(a, f)].total_cmp(&x[(b, f)]));
            match target {
                Target::Class { y, n_classes } => {
                    let mut left_hist = vec![0usize; *n_classes];
                    let mut right_hist = vec![0usize; *n_classes];
                    for &r in &sorted {
                        right_hist[y[r]] += 1;
                    }
                    let gini = |hist: &[usize], cnt: f64| -> f64 {
                        if cnt == 0.0 {
                            return 0.0;
                        }
                        1.0 - hist.iter().map(|&h| (h as f64 / cnt).powi(2)).sum::<f64>()
                    };
                    for i in 0..sorted.len() - 1 {
                        let r = sorted[i];
                        left_hist[y[r]] += 1;
                        right_hist[y[r]] -= 1;
                        let nl = (i + 1) as f64;
                        let nr = n - nl;
                        if (i + 1) < min_leaf || (sorted.len() - i - 1) < min_leaf {
                            continue;
                        }
                        let v_here = x[(r, f)];
                        let v_next = x[(sorted[i + 1], f)];
                        if v_here == v_next {
                            continue;
                        }
                        let score =
                            (nl / n) * gini(&left_hist, nl) + (nr / n) * gini(&right_hist, nr);
                        let imbalance = (nl - nr).abs();
                        let better = match best {
                            None => true,
                            Some((bs, bi, _, _)) => {
                                score < bs - 1e-12
                                    || ((score - bs).abs() <= 1e-12 && imbalance < bi)
                            }
                        };
                        if better {
                            best = Some((score, imbalance, f, (v_here + v_next) / 2.0));
                        }
                    }
                }
                Target::Reg { y } => {
                    let total_sum: f64 = sorted.iter().map(|&r| y[r]).sum();
                    let total_sq: f64 = sorted.iter().map(|&r| y[r] * y[r]).sum();
                    let mut left_sum = 0.0;
                    let mut left_sq = 0.0;
                    for i in 0..sorted.len() - 1 {
                        let r = sorted[i];
                        left_sum += y[r];
                        left_sq += y[r] * y[r];
                        let nl = (i + 1) as f64;
                        let nr = n - nl;
                        if (i + 1) < min_leaf || (sorted.len() - i - 1) < min_leaf {
                            continue;
                        }
                        let v_here = x[(r, f)];
                        let v_next = x[(sorted[i + 1], f)];
                        if v_here == v_next {
                            continue;
                        }
                        let var_l = left_sq / nl - (left_sum / nl).powi(2);
                        let right_sum = total_sum - left_sum;
                        let right_sq = total_sq - left_sq;
                        let var_r = right_sq / nr - (right_sum / nr).powi(2);
                        let score = (nl / n) * var_l.max(0.0) + (nr / n) * var_r.max(0.0);
                        let imbalance = (nl - nr).abs();
                        let better = match best {
                            None => true,
                            Some((bs, bi, _, _)) => {
                                score < bs - 1e-12
                                    || ((score - bs).abs() <= 1e-12 && imbalance < bi)
                            }
                        };
                        if better {
                            best = Some((score, imbalance, f, (v_here + v_next) / 2.0));
                        }
                    }
                }
            }
        }

        best
    }

    fn best_split(
        x: &Matrix,
        target: &Target<'_>,
        rows: &[usize],
        features: &[usize],
        min_leaf: usize,
    ) -> Option<(usize, f64, Vec<usize>, Vec<usize>)> {
        let (_, _, f, threshold) = best_candidate(x, target, rows, features, min_leaf)?;
        let (left, right): (Vec<usize>, Vec<usize>) =
            rows.iter().partition(|&&r| x[(r, f)] <= threshold);
        if left.is_empty() || right.is_empty() {
            return None;
        }
        Some((f, threshold, left, right))
    }

    pub(super) fn build_tree(x: &Matrix, target: &Target<'_>, params: &TreeParams) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        let mut rng = StdRng::seed_from_u64(params.seed);
        let rows: Vec<usize> = (0..x.rows()).collect();
        build_node(x, target, &rows, params, 0, &mut tree, &mut rng);
        tree
    }

    fn build_node(
        x: &Matrix,
        target: &Target<'_>,
        rows: &[usize],
        params: &TreeParams,
        depth: usize,
        tree: &mut Tree,
        rng: &mut StdRng,
    ) -> usize {
        let make_leaf = depth >= params.max_depth || rows.len() < params.min_samples_split;
        if !make_leaf {
            let all: Vec<usize> = (0..x.cols()).collect();
            let features: Vec<usize> = match params.max_features {
                Some(k) if k < x.cols() => {
                    let mut f = all.clone();
                    f.shuffle(rng);
                    f.truncate(k.max(1));
                    f
                }
                _ => all,
            };
            if let Some((f, thr, left_rows, right_rows)) =
                best_split(x, target, rows, &features, params.min_samples_leaf)
            {
                let id = tree.nodes.len();
                tree.nodes.push(Node::Leaf { value: Vec::new() }); // placeholder
                let left = build_node(x, target, &left_rows, params, depth + 1, tree, rng);
                let right = build_node(x, target, &right_rows, params, depth + 1, tree, rng);
                tree.nodes[id] = Node::Split { feature: f, threshold: thr, left, right };
                return id;
            }
        }
        let id = tree.nodes.len();
        tree.nodes.push(Node::Leaf { value: target.leaf_value(rows) });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        blob_classification, linear_regression_data, train_test_accuracy, train_test_rmse,
    };
    use proptest::prelude::*;

    /// A tree as comparable text: split features, threshold bits, child
    /// ids and leaf payload bits, in node order.
    fn render(tree: &Tree) -> Vec<String> {
        tree.nodes
            .iter()
            .map(|node| match node {
                Node::Split { feature, threshold, left, right } => {
                    format!("split f{feature} {:#x} {left} {right}", threshold.to_bits())
                }
                Node::Leaf { value } => {
                    let bits: Vec<String> =
                        value.iter().map(|v| format!("{:#x}", v.to_bits())).collect();
                    format!("leaf {}", bits.join(" "))
                }
            })
            .collect()
    }

    /// A column whose midpoint between its two values rounds onto the
    /// upper one: `lo` has an odd last mantissa bit, so `(lo + hi) / 2`
    /// ties to even, which is `hi`.
    fn adjacent_pair() -> (f64, f64) {
        let lo = f64::from_bits(1.0f64.to_bits() + 1);
        let hi = f64::from_bits(lo.to_bits() + 1);
        assert_eq!((lo + hi) / 2.0, hi);
        (lo, hi)
    }

    /// A random `n × d` matrix whose columns mix the shapes the kernel
    /// treats apart: constant, `±0.0`, one-hot, two arbitrary values,
    /// adjacent floats, few repeated values, NaN with a number or with a
    /// negative NaN, continuous; with stray NaN cells and duplicated rows.
    fn arb_matrix(rng: &mut StdRng, n: usize, d: usize) -> Matrix {
        let (lo, hi) = adjacent_pair();
        let mut x = Matrix::zeros(n, d);
        for f in 0..d {
            let kind = rng.random_range(0..10usize);
            let (a, b) = (rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0));
            for r in 0..n {
                let coin = rng.random_range(0.0..1.0) < 0.5;
                x[(r, f)] = match kind {
                    0 => a,
                    1 => {
                        if coin {
                            -0.0
                        } else {
                            0.0
                        }
                    }
                    2 => f64::from(u8::from(coin)),
                    3 => {
                        if coin {
                            a
                        } else {
                            b
                        }
                    }
                    4 => {
                        if coin {
                            lo
                        } else {
                            hi
                        }
                    }
                    5 => rng.random_range(0..3usize) as f64,
                    6 => f64::NAN,
                    7 => {
                        if coin {
                            a
                        } else {
                            f64::NAN
                        }
                    }
                    8 => {
                        if coin {
                            -f64::NAN
                        } else {
                            f64::NAN
                        }
                    }
                    _ => rng.random_range(-3.0..3.0),
                };
            }
            if rng.random_range(0..4usize) == 0 {
                x[(rng.random_range(0..n), f)] = f64::NAN;
            }
        }
        for _ in 0..n / 4 {
            let (from, to) = (rng.random_range(0..n), rng.random_range(0..n));
            let row = x.row(from).to_vec();
            x.row_mut(to).copy_from_slice(&row);
        }
        x
    }

    /// Random growth limits; `max_features` is set per path by the caller.
    fn arb_params(rng: &mut StdRng) -> TreeParams {
        TreeParams {
            max_depth: rng.random_range(1..7usize),
            min_samples_split: rng.random_range(0..5usize),
            min_samples_leaf: rng.random_range(0..4usize),
            max_features: None,
            seed: rng.random_range(0..1000u64),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Grows each case's tree on both split paths, every feature
        /// scored at every node (presorted orders) and a drawn subset per
        /// node (per-node sorts), and compares the whole tree and every
        /// inner node's winning split (score, imbalance, feature and
        /// threshold bits) with the reference, which searches each node's
        /// rows afresh. No node may scan a feature constant over the fit.
        /// Then fits a subset of the rows without a block of columns from
        /// the whole matrix's column orders ([`Subset`]) and compares it
        /// with the reference grown on that subset.
        #[test]
        fn kernel_grows_the_reference_tree(seed in 0u64..1_000_000, n in 1usize..40, d in 1usize..7) {
            let mut rng = StdRng::seed_from_u64(seed);
            let x = arb_matrix(&mut rng, n, d);
            let params = arb_params(&mut rng);
            // Classes drawn from a random subset, so some are absent from
            // every node, and up to more classes than rows.
            let n_classes = rng.random_range(1..n + 6);
            let used = rng.random_range(1..n_classes + 1);
            let y: Vec<usize> =
                (0..n).map(|_| rng.random_range(0..used) * (n_classes / used)).collect();
            let t: Vec<f64> = (0..n)
                .map(|r| match rng.random_range(0..6usize) {
                    0 => -0.0,
                    1 => y[r] as f64,
                    _ => rng.random_range(-5.0..5.0),
                })
                .collect();
            let constant: Vec<usize> =
                (0..d).filter(|&f| (0..n).all(|r| x[(r, f)] == x[(0, f)])).collect();
            let every = if rng.random_range(0..2usize) == 0 {
                None
            } else {
                Some(d + rng.random_range(0..2usize))
            };
            let drawn = Some(rng.random_range(0..d));
            let bits = |best: Option<(f64, f64, usize, f64)>| {
                best.map(|(s, i, f, t)| (s.to_bits(), i.to_bits(), f, t.to_bits()))
            };
            for max_features in [every, drawn] {
                let params = TreeParams { max_features, ..params.clone() };
                for target in [Target::Class { y: &y, n_classes }, Target::Reg { y: &t }] {
                    let mut grower = Grower::new(&x, &target, &params, None);
                    // The path: presorted exactly when every node scores
                    // every feature, and only the general features.
                    prop_assert_eq!(grower.presorted.is_some(), max_features == every);
                    if let Some(fit) = &grower.presorted {
                        for f in 0..d {
                            let shape = fit.shapes[f];
                            prop_assert_eq!(matches!(shape, Shape::Constant), constant.contains(&f));
                            prop_assert_eq!(fit.orders[f].is_empty(), !matches!(shape, Shape::General));
                        }
                    }
                    grower.node(0, n, 0);
                    let tree = Tree { nodes: std::mem::take(&mut grower.nodes) };
                    prop_assert_eq!(
                        render(&tree),
                        render(&reference::build_tree(&x, &target, &params))
                    );
                    for search in &grower.searches {
                        let want = reference::best_candidate(
                            &x,
                            &target,
                            &search.rows,
                            &search.features,
                            params.min_samples_leaf,
                        );
                        prop_assert_eq!(bits(search.best), bits(want), "rows {:?}", &search.rows);
                        prop_assert!(
                            search.scanned.iter().all(|f| !constant.contains(f)),
                            "scanned {:?}, constant {:?}",
                            &search.scanned,
                            &constant
                        );
                    }
                }
            }

            // The restricted entry point: a full-feature fit over a random
            // ascending subset of the rows, with a block of columns
            // dropped, presorted from the whole matrix's column orders.
            // Its presort must be the one a plain fit on the subset sorts,
            // and it must grow that fit's tree, which is the reference's.
            let orders = ColumnOrders::new(&x);
            let rows: Vec<usize> = (0..n).filter(|_| rng.random_range(0..4usize) != 0).collect();
            let start = rng.random_range(0..d + 1);
            let drop = start..rng.random_range(start..d + 1);
            let xs = crate::encode::select_matrix_rows_without(&x, &rows, drop.clone());
            let subset = Subset { orders: &orders, rows: &rows, drop };
            let params = TreeParams { max_features: every, ..params };
            let (ys, ts): (Vec<usize>, Vec<f64>) = rows.iter().map(|&r| (y[r], t[r])).unzip();
            for target in [Target::Class { y: &ys, n_classes }, Target::Reg { y: &ts }] {
                if rows.is_empty() {
                    break;
                }
                let restricted = Grower::new(&xs, &target, &params, Some(&subset));
                let plain = Grower::new(&xs, &target, &params, None);
                let order_bits = |g: &Grower<'_>| {
                    g.presorted.as_ref().map(|fit| {
                        fit.orders
                            .iter()
                            .map(|o| o.iter().map(|&(v, r)| (v.to_bits(), r)).collect::<Vec<_>>())
                            .collect::<Vec<_>>()
                    })
                };
                prop_assert_eq!(order_bits(&restricted), order_bits(&plain));
                let mut grower = restricted;
                grower.node(0, rows.len(), 0);
                prop_assert_eq!(
                    render(&Tree { nodes: grower.nodes }),
                    render(&reference::build_tree(&xs, &target, &params))
                );
            }
            let mut restricted = DecisionTreeRegressor::new(params.clone());
            restricted.fit_subset(&xs, &ts, &subset);
            let mut plain = DecisionTreeRegressor::new(params.clone());
            plain.fit(&xs, &ts);
            prop_assert_eq!(restricted.predict(&xs), plain.predict(&xs));
            let mut restricted = DecisionTreeClassifier::new(params.clone());
            restricted.fit_subset(&xs, &ys, n_classes, &subset);
            let mut plain = DecisionTreeClassifier::new(params);
            plain.fit(&xs, &ys, n_classes);
            prop_assert_eq!(
                restricted.predict_proba(&xs, n_classes),
                plain.predict_proba(&xs, n_classes)
            );
        }
    }

    #[test]
    fn rounded_up_midpoint_makes_a_leaf() {
        // The only boundary's threshold equals the upper value, so every
        // row goes left and the root stays a leaf.
        let (lo, hi) = adjacent_pair();
        let x = Matrix::from_rows(&[vec![lo], vec![lo], vec![hi], vec![hi]]);
        let params = TreeParams { min_samples_split: 2, min_samples_leaf: 1, ..Default::default() };
        let target = Target::Class { y: &[0, 0, 1, 1], n_classes: 2 };
        let tree = build_tree(&x, &target, &params, None);
        assert_eq!(render(&tree), render(&reference::build_tree(&x, &target, &params)));
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn classifier_learns_blobs() {
        let (x, y) = blob_classification(150, 3, 41);
        let mut m = DecisionTreeClassifier::new(TreeParams::default());
        let acc = train_test_accuracy(&mut m, &x, &y, 3);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn classifier_fits_xor_which_linear_models_cannot() {
        // XOR pattern with random jitter: needs at least depth 2; no single
        // split has positive gain, exercising the zero-gain/balance logic.
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..200 {
            let a = (i / 2) % 2;
            let b = i % 2;
            rows.push(vec![
                a as f64 + rng.random_range(-0.05..0.05),
                b as f64 + rng.random_range(-0.05..0.05),
            ]);
            ys.push(a ^ b);
        }
        let x = Matrix::from_rows(&rows);
        let mut m = DecisionTreeClassifier::new(TreeParams::default());
        m.fit(&x, &ys, 2);
        let acc = crate::metrics::accuracy(&ys, &m.predict(&x));
        assert!(acc > 0.98, "accuracy {acc}");
    }

    #[test]
    fn regressor_fits_nonlinear_target() {
        let (x, _) = linear_regression_data(300, 0.0, 43);
        // y = x0^2
        let y: Vec<f64> = (0..x.rows()).map(|r| x[(r, 0)].powi(2)).collect();
        let mut m = DecisionTreeRegressor::new(TreeParams::default());
        let err = train_test_rmse(&mut m, &x, &y);
        assert!(err < 1.0, "rmse {err}");
    }

    #[test]
    fn depth_limit_is_respected() {
        let (x, y) = blob_classification(100, 2, 47);
        let mut stump =
            DecisionTreeClassifier::new(TreeParams { max_depth: 1, ..Default::default() });
        stump.fit(&x, &y, 2);
        // Depth-1 tree has at most 3 nodes.
        assert!(stump.tree.as_ref().unwrap().nodes.len() <= 3);
    }

    #[test]
    fn pure_node_stops_splitting() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let mut m = DecisionTreeClassifier::new(TreeParams::default());
        m.fit(&x, &[1, 1, 1, 1], 2);
        assert_eq!(m.tree.as_ref().unwrap().nodes.len(), 1);
        assert_eq!(m.predict(&x), vec![1, 1, 1, 1]);
    }

    #[test]
    fn proba_rows_are_distributions() {
        let (x, y) = blob_classification(90, 3, 53);
        let mut m = DecisionTreeClassifier::new(TreeParams::default());
        m.fit(&x, &y, 3);
        let p = m.predict_proba(&x, 3);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_fit_safe() {
        let mut m = DecisionTreeRegressor::new(TreeParams::default());
        m.fit(&Matrix::zeros(0, 2), &[]);
        assert_eq!(m.predict(&Matrix::zeros(2, 2)), vec![0.0, 0.0]);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let (x, y) = blob_classification(150, 3, 59);
        let mut m = DecisionTreeClassifier::new(TreeParams {
            max_features: Some(1),
            seed: 3,
            ..Default::default()
        });
        let acc = train_test_accuracy(&mut m, &x, &y, 3);
        assert!(acc > 0.7, "accuracy {acc}");
    }
}
