//! CART-style decision trees over categorical codes.
//!
//! Unlike the ID3 baseline in `hamlet_ml::tree` (multiway splits, one
//! child per category), these trees use **binary one-vs-rest splits**:
//! a node tests `code(feature) == value` and routes left on equality.
//! That choice is what makes factorized training natural — the entire
//! split-scoring decision at a node is a pure function of the
//! class-conditional count table `count(X = v, Y = y | node rows)`,
//! and those integer tables can be assembled either by scanning the
//! materialized join output or by folding pushed-down per-table counts
//! through the FK (the JoinBoost recipe, `hamlet_ml::class_count_tables`,
//! which counts each FK once per node for all the features behind it).
//! Identical integer tables ⇒ identical float gains ⇒ identical splits
//! ⇒ **bit-for-bit identical trees** on both paths.
//!
//! Split scoring at each node fans out over candidate features with
//! `hamlet_obs::parallel::run_indexed` and reduces in feature order, so
//! the fitted tree is invariant to the worker count.

use std::borrow::Cow;

use hamlet_ml::classifier::{Classifier, Model};
use hamlet_ml::{class_count_tables, CodeSource};
use hamlet_obs::parallel::run_indexed;

/// Gains at or below this are noise, not structure — the same cutoff the
/// ID3 baseline uses.
pub(crate) const GAIN_TOL: f64 = 1e-12;

/// Node-statistics provider for tree growth: everything `grow_cart`
/// needs, abstracted so the materialized scan, the `SuffStats`-backed
/// sweep path, and the factorized pushdown produce trees through the
/// *same* code. Implementations must return identical integer tables
/// for identical logical data; everything downstream is then bitwise
/// equal by construction.
pub(crate) trait SplitCounts {
    fn n_classes(&self) -> usize;
    fn domain_size(&self, f: usize) -> usize;
    fn label(&self, row: usize) -> u32;
    fn code(&self, f: usize, row: usize) -> u32;

    /// Class-conditional counts of each of `feats` over `rows`, in
    /// order, each flattened `[y * d + v]` (the `SuffStats::table`
    /// layout) and built as the iterator is consumed, scanning with up
    /// to `threads` workers. `root` marks the call at the root, over the
    /// full training row set — the hook that lets the sweep path serve
    /// cached `SuffStats` tables without a row scan.
    fn count_tables<'s>(
        &'s self,
        feats: &'s [usize],
        rows: &'s [usize],
        threads: usize,
        root: bool,
    ) -> Box<dyn Iterator<Item = Cow<'s, [u64]>> + 's>;
}

/// The direct provider: count any [`CodeSource`] with
/// [`class_count_tables`], which folds a factorized view's foreign
/// features through their FK instead of joining.
pub(crate) struct ScanCounts<'a, S: CodeSource + ?Sized> {
    pub src: &'a S,
}

impl<S: CodeSource + Sync + ?Sized> SplitCounts for ScanCounts<'_, S> {
    fn n_classes(&self) -> usize {
        self.src.n_classes()
    }

    fn domain_size(&self, f: usize) -> usize {
        self.src.feature_domain_size(f)
    }

    fn label(&self, row: usize) -> u32 {
        self.src.label(row)
    }

    fn code(&self, f: usize, row: usize) -> u32 {
        self.src.code(f, row)
    }

    /// Through [`class_count_tables`], so the features behind one FK
    /// share a single `count(FK, Y)` scan of the node's rows.
    fn count_tables<'s>(
        &'s self,
        feats: &'s [usize],
        rows: &'s [usize],
        threads: usize,
        _root: bool,
    ) -> Box<dyn Iterator<Item = Cow<'s, [u64]>> + 's> {
        Box::new(class_count_tables(self.src, feats, rows, threads).map(Cow::Owned))
    }
}

/// CART learner configuration: binary one-vs-rest splits, Gini
/// impurity, depth- and support-limited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CartTree {
    /// Maximum tree depth (root = depth 0; a tree of one leaf has
    /// depth 0).
    pub max_depth: usize,
    /// Nodes with fewer training rows become leaves.
    pub min_samples_split: usize,
    /// Worker count for per-node split scoring; `None` resolves
    /// `HAMLET_THREADS` once per process. The fitted tree is identical
    /// at any value — scoring reduces in feature order.
    pub threads: Option<usize>,
}

impl Default for CartTree {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_split: 4,
            threads: None,
        }
    }
}

/// One arena node of a fitted CART tree. Children always precede their
/// parent in the arena (`left < self`, `right < self`), so any walk
/// terminates in at most `nodes.len()` steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CartNode {
    /// Majority class of the node's training rows.
    Leaf { class: u32 },
    /// Route left when `code(feature) == value`, right otherwise.
    Split {
        feature: usize,
        value: u32,
        left: u32,
        right: u32,
    },
}

/// A structurally invalid tree arena (rejected by
/// [`CartModel::from_parts`] and [`crate::gbt::GbtModel::from_parts`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// The arena has no nodes.
    EmptyNodes,
    /// The root index is outside the arena.
    RootOutOfRange { root: u32, n_nodes: usize },
    /// A split's child does not precede it (the acyclicity invariant).
    ChildOrder { node: usize },
    /// A split tests a feature position outside the declared layout.
    FeatureOutOfRange { node: usize, feature: usize },
    /// A leaf carries a non-finite value.
    NonFiniteLeaf { node: usize },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyNodes => write!(f, "tree arena is empty"),
            Self::RootOutOfRange { root, n_nodes } => {
                write!(f, "root {root} outside arena of {n_nodes} nodes")
            }
            Self::ChildOrder { node } => {
                write!(f, "node {node}: children must precede their parent")
            }
            Self::FeatureOutOfRange { node, feature } => {
                write!(f, "node {node}: feature position {feature} out of range")
            }
            Self::NonFiniteLeaf { node } => write!(f, "node {node}: non-finite leaf value"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Checks the arena-shape invariants shared by classification and
/// regression trees: non-empty, root in range, children strictly before
/// parents, feature positions under `n_features`.
pub(crate) fn check_arena(
    splits: impl Iterator<Item = (usize, usize, u32, u32)>,
    n_nodes: usize,
    root: u32,
    n_features: usize,
) -> Result<(), TreeError> {
    if n_nodes == 0 {
        return Err(TreeError::EmptyNodes);
    }
    if root as usize >= n_nodes {
        return Err(TreeError::RootOutOfRange { root, n_nodes });
    }
    for (node, feature, left, right) in splits {
        if left as usize >= node || right as usize >= node {
            return Err(TreeError::ChildOrder { node });
        }
        if feature >= n_features {
            return Err(TreeError::FeatureOutOfRange { node, feature });
        }
    }
    Ok(())
}

/// A fitted CART tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CartModel {
    feats: Vec<usize>,
    n_classes: usize,
    nodes: Vec<CartNode>,
    root: u32,
}

impl CartModel {
    /// Rebuilds a model from serialized parts, validating the arena
    /// invariants (non-empty, root in range, children strictly precede
    /// parents — which guarantees walks terminate — and feature
    /// positions bounded by `n_features`).
    pub fn from_parts(
        feats: Vec<usize>,
        n_classes: usize,
        n_features: usize,
        nodes: Vec<CartNode>,
        root: u32,
    ) -> Result<Self, TreeError> {
        check_arena(
            nodes.iter().enumerate().filter_map(|(i, n)| match n {
                CartNode::Leaf { .. } => None,
                CartNode::Split {
                    feature,
                    left,
                    right,
                    ..
                } => Some((i, *feature, *left, *right)),
            }),
            nodes.len(),
            root,
            n_features,
        )?;
        Ok(Self {
            feats,
            n_classes,
            nodes,
            root,
        })
    }

    /// The arena, children-before-parents.
    pub fn nodes(&self) -> &[CartNode] {
        &self.nodes
    }

    /// Index of the root node in the arena.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of target classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf count.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, CartNode::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        // Children precede parents, so one forward pass suffices.
        let mut depths = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let CartNode::Split { left, right, .. } = n {
                let l = depths.get(*left as usize).copied().unwrap_or(0);
                let r = depths.get(*right as usize).copied().unwrap_or(0);
                depths[i] = 1 + l.max(r);
            }
        }
        depths.get(self.root as usize).copied().unwrap_or(0)
    }
}

impl Model for CartModel {
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32 {
        let mut at = self.root as usize;
        // Children precede parents, so `at` strictly decreases; the
        // fuel bound makes even a corrupt arena terminate.
        for _ in 0..=self.nodes.len() {
            match self.nodes.get(at) {
                Some(CartNode::Leaf { class }) => return *class,
                Some(CartNode::Split {
                    feature,
                    value,
                    left,
                    right,
                }) => {
                    at = if data.code(*feature, row) == *value {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
                None => return 0,
            }
        }
        0
    }

    fn features(&self) -> &[usize] {
        &self.feats
    }
}

/// Gini impurity `1 - Σ p_y²` of a class histogram with `n` rows.
fn gini(class_counts: &[u64], n: f64) -> f64 {
    let mut sum = 0.0;
    for &k in class_counts {
        let p = k as f64 / n;
        sum += p * p;
    }
    1.0 - sum
}

/// Majority class (lowest index on ties) of a histogram.
pub(crate) fn majority(class_counts: &[u64]) -> u32 {
    let mut best = 0usize;
    let mut best_count = class_counts.first().copied().unwrap_or(0);
    for (y, &k) in class_counts.iter().enumerate().skip(1) {
        if k > best_count {
            best = y;
            best_count = k;
        }
    }
    best as u32
}

/// Best one-vs-rest split value of one feature from its count table:
/// `(value, Gini gain)`, values scanned in domain order, strictly
/// greater wins. Pure integer-counts-in, floats-out — the heart of the
/// materialized/factorized parity argument.
fn best_value_split(
    table: &[u64],
    d: usize,
    class_counts: &[u64],
    n: u64,
    parent_gini: f64,
) -> Option<(u32, f64)> {
    let c = class_counts.len();
    let nf = n as f64;
    let mut best: Option<(u32, f64)> = None;
    for v in 0..d {
        let mut n_left = 0u64;
        for y in 0..c {
            n_left += table[y * d + v];
        }
        if n_left == 0 || n_left == n {
            continue;
        }
        let n_right = n - n_left;
        let (nl, nr) = (n_left as f64, n_right as f64);
        let mut sum_l = 0.0;
        let mut sum_r = 0.0;
        for (y, &total_y) in class_counts.iter().enumerate() {
            let kl = table[y * d + v];
            let pl = kl as f64 / nl;
            let pr = (total_y - kl) as f64 / nr;
            sum_l += pl * pl;
            sum_r += pr * pr;
        }
        let after = (nl / nf) * (1.0 - sum_l) + (nr / nf) * (1.0 - sum_r);
        let gain = parent_gini - after;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((v as u32, gain));
        }
    }
    best
}

/// Grows one subtree, returning its arena index. Children are pushed
/// before their parent, establishing the `left < self, right < self`
/// invariant every walk relies on.
fn grow<C: SplitCounts + Sync + ?Sized>(
    cfg: &CartTree,
    counts: &C,
    rows: &[usize],
    feats: &[usize],
    depth: usize,
    threads: usize,
    nodes: &mut Vec<CartNode>,
) -> u32 {
    let c = counts.n_classes().max(1);
    let mut class_counts = vec![0u64; c];
    for &r in rows {
        let y = counts.label(r) as usize;
        if y < c {
            class_counts[y] += 1;
        }
    }
    let node_majority = majority(&class_counts);
    let n = rows.len() as u64;
    let pure = class_counts.iter().filter(|&&k| k > 0).count() <= 1;
    let leaf = |nodes: &mut Vec<CartNode>| {
        nodes.push(CartNode::Leaf {
            class: node_majority,
        });
        (nodes.len() - 1) as u32
    };
    if depth >= cfg.max_depth || rows.len() < cfg.min_samples_split || pure || feats.is_empty() {
        return leaf(nodes);
    }

    // Score every candidate feature in parallel, chunked so each worker
    // owns a disjoint contiguous range; the reduction below walks the
    // flattened results in feature order, so the winner is independent
    // of the worker count.
    let parent_gini = gini(&class_counts, n as f64);
    let chunk = feats.len().div_ceil(threads.max(1)).max(1);
    let n_chunks = feats.len().div_ceil(chunk);
    let per_chunk = run_indexed(n_chunks, threads, &|ci| {
        let lo = ci * chunk;
        let part = &feats[lo..(lo + chunk).min(feats.len())];
        // Each table is scored as soon as it is built, while it is
        // still in cache.
        part.iter()
            .zip(counts.count_tables(part, rows, threads, depth == 0))
            .map(|(&f, table)| {
                best_value_split(&table, counts.domain_size(f), &class_counts, n, parent_gini)
                    .map(|(v, g)| (f, v, g))
            })
            .collect::<Vec<_>>()
    });
    let mut best: Option<(usize, u32, f64)> = None;
    for cand in per_chunk.into_iter().flatten().flatten() {
        if best.is_none_or(|(_, _, g)| cand.2 > g) {
            best = Some(cand);
        }
    }
    let Some((feature, value, gain)) = best else {
        return leaf(nodes);
    };
    if gain <= GAIN_TOL {
        return leaf(nodes);
    }

    let mut left_rows = Vec::new();
    let mut right_rows = Vec::new();
    for &r in rows {
        if counts.code(feature, r) == value {
            left_rows.push(r);
        } else {
            right_rows.push(r);
        }
    }
    if left_rows.is_empty() || right_rows.is_empty() {
        // Unreachable when codes and count tables agree; degrade to a
        // leaf rather than recurse forever if they ever don't.
        return leaf(nodes);
    }
    let left = grow(cfg, counts, &left_rows, feats, depth + 1, threads, nodes);
    let right = grow(cfg, counts, &right_rows, feats, depth + 1, threads, nodes);
    nodes.push(CartNode::Split {
        feature,
        value,
        left,
        right,
    });
    (nodes.len() - 1) as u32
}

impl CartTree {
    /// Fits from an arbitrary statistics provider — the single growth
    /// path every frontend (materialized, sweep-cached, factorized)
    /// funnels through.
    pub(crate) fn fit_with<C: SplitCounts + Sync + ?Sized>(
        &self,
        counts: &C,
        rows: &[usize],
        feats: &[usize],
    ) -> CartModel {
        let threads = self
            .threads
            .unwrap_or_else(hamlet_obs::env::resolved_threads);
        let mut nodes = Vec::new();
        let root = grow(self, counts, rows, feats, 0, threads, &mut nodes);
        CartModel {
            feats: feats.to_vec(),
            n_classes: counts.n_classes(),
            nodes,
            root,
        }
    }
}

impl Classifier for CartTree {
    type Fitted = CartModel;

    /// The materialized path when handed a [`hamlet_ml::Dataset`], the
    /// zero-materialization path when handed a `FactorizedView`, whose
    /// foreign-feature count tables [`class_count_tables`] pushes down
    /// through the FK.
    fn fit<S: CodeSource + Sync + ?Sized>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> CartModel {
        let _span = hamlet_obs::span!("trees.cart_fit", rows = rows.len(), feats = feats.len());
        self.fit_with(&ScanCounts { src }, rows, feats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_ml::dataset::{Dataset, Feature};

    fn xor_data() -> Dataset {
        // y = x0 OR x1: needs depth 2, and both root gains are positive
        // (greedy Gini is blind to pure XOR, by design of greedy CART).
        let x0: Vec<u32> = (0..40).map(|i| (i / 2) % 2).collect();
        let x1: Vec<u32> = (0..40).map(|i| i % 2).collect();
        let noise: Vec<u32> = (0..40).map(|i| (i * 13 + 5) % 3).collect();
        let y: Vec<u32> = x0.iter().zip(&x1).map(|(&a, &b)| a | b).collect();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 2,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 2,
                    codes: x1,
                },
                Feature {
                    name: "noise".into(),
                    domain_size: 3,
                    codes: noise,
                },
            ],
            y,
            2,
        )
    }

    #[test]
    fn learns_xor_exactly() {
        let data = xor_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let feats = vec![0, 1, 2];
        let model = CartTree::default().fit(&data, &rows, &feats);
        for &r in &rows {
            assert_eq!(model.predict_row(&data, r), data.labels()[r]);
        }
        assert!(model.depth() >= 2);
    }

    #[test]
    fn empty_feats_is_majority_predictor() {
        let data = xor_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let model = CartTree::default().fit(&data, &rows, &[]);
        assert_eq!(model.n_nodes(), 1);
        // 75% of the labels are 1 under the OR target.
        assert_eq!(model.predict_row(&data, 0), 1);
    }

    #[test]
    fn empty_rows_yield_a_single_leaf() {
        let data = xor_data();
        let model = CartTree::default().fit(&data, &[], &[0, 1, 2]);
        assert_eq!(model.n_nodes(), 1);
        assert_eq!(model.depth(), 0);
    }

    #[test]
    fn depth_zero_is_a_stump_free_majority_leaf() {
        let data = xor_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let cfg = CartTree {
            max_depth: 0,
            ..CartTree::default()
        };
        let model = cfg.fit(&data, &rows, &[0, 1, 2]);
        assert_eq!(model.n_nodes(), 1);
    }

    #[test]
    fn thread_count_does_not_change_the_tree() {
        let data = xor_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let feats = vec![0, 1, 2];
        let base = CartTree {
            threads: Some(1),
            ..CartTree::default()
        }
        .fit(&data, &rows, &feats);
        for t in [2, 3, 8] {
            let m = CartTree {
                threads: Some(t),
                ..CartTree::default()
            }
            .fit(&data, &rows, &feats);
            assert_eq!(base, m, "tree changed at {t} threads");
        }
    }

    #[test]
    fn from_parts_rejects_malformed_arenas() {
        assert_eq!(
            CartModel::from_parts(vec![], 2, 1, vec![], 0),
            Err(TreeError::EmptyNodes)
        );
        let leaf = CartNode::Leaf { class: 0 };
        assert!(matches!(
            CartModel::from_parts(vec![], 2, 1, vec![leaf], 3),
            Err(TreeError::RootOutOfRange { .. })
        ));
        // A split whose child is itself: cycle, rejected by child order.
        let cyclic = CartNode::Split {
            feature: 0,
            value: 0,
            left: 0,
            right: 0,
        };
        assert!(matches!(
            CartModel::from_parts(vec![0], 2, 1, vec![cyclic], 0),
            Err(TreeError::ChildOrder { node: 0 })
        ));
        let bad_feat = vec![
            leaf,
            leaf,
            CartNode::Split {
                feature: 9,
                value: 0,
                left: 0,
                right: 1,
            },
        ];
        assert!(matches!(
            CartModel::from_parts(vec![0], 2, 1, bad_feat, 2),
            Err(TreeError::FeatureOutOfRange { node: 2, .. })
        ));
    }

    #[test]
    fn corrupt_walks_terminate_without_panicking() {
        // Bypass validation to simulate a hostile arena; the fuel bound
        // must still terminate the walk.
        let model = CartModel {
            feats: vec![0],
            n_classes: 2,
            nodes: vec![CartNode::Split {
                feature: 0,
                value: 0,
                left: 0,
                right: 0,
            }],
            root: 0,
        };
        let data = xor_data();
        assert_eq!(model.predict_row(&data, 0), 0);
    }
}
