//! Gradient-boosted regression trees on ordinal class codes.
//!
//! The paper's multi-class targets are ordinal (star ratings, sales
//! levels) and its multi-class metric is RMSE on the codes, so boosting
//! is done in the natural space: least-squares regression trees on the
//! residual `y - F(x)`, with the fitted score mapped back to the
//! nearest class at prediction time (ties to the lower class — the
//! same lowest-index-wins rule every argmax in this workspace uses).
//!
//! Determinism discipline: unlike CART's integer count tables, the
//! split aggregates here are **float residual sums**, so summation
//! order matters. Every per-value bucket adds its residuals in ascending
//! node-row order, on every [`CodeSource`]. What differs between sources
//! is only how a row's code is found, never the order of the additions.
//!
//! Split scan layout: once per node, before fanning out over candidate
//! features, the node's residuals are gathered into one contiguous
//! array, and each distinct FK the candidates read through
//! ([`Column::Via`] `join`) is resolved once to attribute-table rows.
//! A feature's histogram is then one pass over those arrays: a direct
//! index for [`Column::Rows`], one gather into the `n_R`-sized code
//! array for `Via`. All features behind one FK share a single
//! `rid_to_row[fk_codes[r]]` resolution instead of repeating it per
//! cell. The `hamlet_gbt_scan_rows_{direct,via_fk}_total` counters
//! record how many rows each layout scanned.
//!
//! Materialized and factorized GBT models are therefore bitwise
//! identical, and split scoring parallelism (chunked over candidate
//! features, reduced in feature order) cannot perturb them.

use hamlet_ml::classifier::{Classifier, Model};
use hamlet_ml::dataset::Dataset;
use hamlet_ml::{CodeSource, Column};
use hamlet_obs::parallel::run_indexed;

use crate::cart::{check_arena, majority, TreeError, GAIN_TOL};

/// Default boosting rounds when `HAMLET_GBT_ROUNDS` is unset.
pub const DEFAULT_GBT_ROUNDS: usize = 20;

/// Gradient-boosted trees learner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gbt {
    /// Boosting rounds (trees). See [`Gbt::from_env`] for the
    /// `HAMLET_GBT_ROUNDS` override.
    pub rounds: usize,
    /// Maximum depth of each regression tree.
    pub max_depth: usize,
    /// Nodes with fewer training rows become leaves.
    pub min_samples_split: usize,
    /// Shrinkage applied to every tree's contribution.
    pub learning_rate: f64,
    /// Worker count for split scoring; `None` resolves `HAMLET_THREADS`
    /// once per process. Bitwise-identical models at any value.
    pub threads: Option<usize>,
}

impl Default for Gbt {
    fn default() -> Self {
        Self {
            rounds: DEFAULT_GBT_ROUNDS,
            max_depth: 3,
            min_samples_split: 8,
            learning_rate: 0.3,
            threads: None,
        }
    }
}

impl Gbt {
    /// The default configuration with `rounds` taken from
    /// `HAMLET_GBT_ROUNDS` when set to a positive integer; an invalid
    /// value is journaled as a warning and the default is kept (the
    /// same non-strict policy as `HAMLET_THREADS`).
    pub fn from_env() -> Self {
        let rounds =
            hamlet_obs::env::var_where("HAMLET_GBT_ROUNDS", "a positive integer", |&r: &usize| {
                r > 0
            })
            .unwrap_or_else(|e| {
                hamlet_obs::journal::record_warning(format!("{e}; using default"));
                None
            })
            .unwrap_or(DEFAULT_GBT_ROUNDS);
        Self {
            rounds,
            ..Self::default()
        }
    }
}

/// One arena node of a regression tree; same children-before-parent
/// invariant as [`crate::cart::CartNode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegNode {
    /// Mean residual of the node's training rows.
    Leaf { value: f64 },
    /// Route left when `code(feature) == value`, right otherwise.
    Split {
        feature: usize,
        value: u32,
        left: u32,
        right: u32,
    },
}

/// One fitted regression tree of the ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct RegTree {
    pub(crate) nodes: Vec<RegNode>,
    pub(crate) root: u32,
}

impl RegTree {
    /// The arena, children-before-parents.
    pub fn nodes(&self) -> &[RegNode] {
        &self.nodes
    }

    /// Index of the root node.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Evaluates the tree on one row.
    fn eval<S: CodeSource>(&self, data: &S, row: usize) -> f64 {
        let mut at = self.root as usize;
        for _ in 0..=self.nodes.len() {
            match self.nodes.get(at) {
                Some(RegNode::Leaf { value }) => return *value,
                Some(RegNode::Split {
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
                None => return 0.0,
            }
        }
        0.0
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct GbtModel {
    feats: Vec<usize>,
    n_classes: usize,
    base: f64,
    learning_rate: f64,
    trees: Vec<RegTree>,
}

impl GbtModel {
    /// Rebuilds a model from serialized parts, validating every tree's
    /// arena invariants plus finiteness of base, shrinkage, and leaf
    /// values.
    pub fn from_parts(
        feats: Vec<usize>,
        n_classes: usize,
        n_features: usize,
        base: f64,
        learning_rate: f64,
        trees: Vec<(Vec<RegNode>, u32)>,
    ) -> Result<Self, TreeError> {
        if !base.is_finite() || !learning_rate.is_finite() {
            return Err(TreeError::NonFiniteLeaf { node: 0 });
        }
        let mut built = Vec::with_capacity(trees.len());
        for (nodes, root) in trees {
            check_arena(
                nodes.iter().enumerate().filter_map(|(i, n)| match n {
                    RegNode::Leaf { .. } => None,
                    RegNode::Split {
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
            if let Some((node, _)) = nodes
                .iter()
                .enumerate()
                .find(|(_, n)| matches!(n, RegNode::Leaf { value } if !value.is_finite()))
            {
                return Err(TreeError::NonFiniteLeaf { node });
            }
            built.push(RegTree { nodes, root });
        }
        Ok(Self {
            feats,
            n_classes,
            base,
            learning_rate,
            trees: built,
        })
    }

    /// The fitted ensemble.
    pub fn trees(&self) -> &[RegTree] {
        &self.trees
    }

    /// The constant initial score (training-mean label).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The shrinkage the model was fitted with.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Number of target classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The raw boosted score `F(x)` before snapping to a class.
    pub fn raw_score<S: CodeSource>(&self, data: &S, row: usize) -> f64 {
        let mut f_val = self.base;
        for t in &self.trees {
            f_val += self.learning_rate * t.eval(data, row);
        }
        f_val
    }
}

impl Model for GbtModel {
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32 {
        let f_val = self.raw_score(data, row);
        // Nearest class under squared distance, lowest class on ties —
        // the rule the serving scorer reproduces from per-class scores.
        let mut best = 0u32;
        let mut best_score = f64::NEG_INFINITY;
        for y in 0..self.n_classes.max(1) {
            let d = f_val - y as f64;
            let score = -(d * d);
            if score > best_score {
                best_score = score;
                best = y as u32;
            }
        }
        best
    }

    fn features(&self) -> &[usize] {
        &self.feats
    }
}

/// Best one-vs-rest split of one feature for least squares: maximizes
/// `sum_l²/n_l + sum_r²/n_r` (variance reduction up to node constants).
/// Aggregates come in per-value; both paths filled them in identical
/// row order, so everything here is a pure function of identical
/// floats.
fn best_reg_split(
    cnt: &[u64],
    sum: &[f64],
    n: u64,
    total: f64,
    parent_score: f64,
) -> Option<(u32, f64)> {
    let mut best: Option<(u32, f64)> = None;
    for v in 0..cnt.len() {
        let n_left = cnt[v];
        if n_left == 0 || n_left == n {
            continue;
        }
        let n_right = n - n_left;
        let sum_l = sum[v];
        let sum_r = total - sum_l;
        let score = sum_l * sum_l / n_left as f64 + sum_r * sum_r / n_right as f64;
        let gain = score - parent_score;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((v as u32, gain));
        }
    }
    best
}

/// Per-node inputs shared by every candidate feature's scan: the node's
/// residuals gathered contiguously in node-row order, and every FK the
/// candidates read through, resolved once to attribute-table rows (in
/// the same order).
struct NodeScan {
    residual: Vec<f64>,
    /// `(join, [rid_to_row[fk_codes[r]] for r in rows])`, one entry per
    /// distinct [`Column::Via`] join among the candidates.
    resolved: Vec<(usize, Vec<u32>)>,
}

impl NodeScan {
    fn new<S: CodeSource>(src: &S, residual: &[f64], rows: &[usize], feats: &[usize]) -> Self {
        let mut resolved: Vec<(usize, Vec<u32>)> = Vec::new();
        for &f in feats {
            if let Column::Via {
                join,
                fk_codes,
                rid_to_row,
                ..
            } = src.column(f)
            {
                if resolved.iter().all(|(j, _)| *j != join) {
                    let at = rows
                        .iter()
                        .map(|&r| rid_to_row[fk_codes[r] as usize])
                        .collect();
                    resolved.push((join, at));
                }
            }
        }
        Self {
            residual: rows.iter().map(|&r| residual[r]).collect(),
            resolved,
        }
    }

    /// Per-value row counts and residual sums of one feature over the
    /// node. Buckets add residuals in ascending node-row order on either
    /// layout, so the sums are bitwise those of a per-cell `code()` scan.
    fn histogram(&self, col: Column<'_>, d: usize, rows: &[usize]) -> (Vec<u64>, Vec<f64>) {
        let mut cnt = vec![0u64; d];
        let mut sum = vec![0.0f64; d];
        let mut add = |v: u32, res: f64| {
            let v = v as usize;
            if v < d {
                cnt[v] += 1;
                sum[v] += res;
            }
        };
        match col {
            Column::Rows(codes) => {
                hamlet_obs::counter_add!("hamlet_gbt_scan_rows_direct_total", rows.len());
                for (&r, &res) in rows.iter().zip(&self.residual) {
                    add(codes[r], res);
                }
            }
            Column::Via { join, codes, .. } => {
                hamlet_obs::counter_add!("hamlet_gbt_scan_rows_via_fk_total", rows.len());
                // `new` resolved each candidate join exactly once.
                for (_, at) in self.resolved.iter().filter(|(j, _)| *j == join) {
                    for (&rr, &res) in at.iter().zip(&self.residual) {
                        add(codes[rr as usize], res);
                    }
                }
            }
        }
        (cnt, sum)
    }
}

/// Grows one regression subtree over `rows`, updating `scores` for every
/// row that lands in a created leaf (leaves are created in deterministic
/// order, and each row belongs to exactly one).
#[allow(clippy::too_many_arguments)]
fn grow_reg<S: CodeSource + Sync>(
    cfg: &Gbt,
    src: &S,
    residual: &[f64],
    rows: &[usize],
    feats: &[usize],
    depth: usize,
    threads: usize,
    nodes: &mut Vec<RegNode>,
    scores: &mut [f64],
) -> u32 {
    let n = rows.len() as u64;
    let mut total = 0.0;
    for &r in rows {
        total += residual[r];
    }
    let mean = if rows.is_empty() {
        0.0
    } else {
        total / rows.len() as f64
    };
    let leaf = |nodes: &mut Vec<RegNode>, scores: &mut [f64]| {
        nodes.push(RegNode::Leaf { value: mean });
        for &r in rows {
            scores[r] += cfg.learning_rate * mean;
        }
        (nodes.len() - 1) as u32
    };
    if depth >= cfg.max_depth || rows.len() < cfg.min_samples_split || feats.is_empty() {
        return leaf(nodes, scores);
    }

    let parent_score = if n == 0 {
        0.0
    } else {
        total * total / n as f64
    };
    // Resolved once per node, shared read-only by every worker, and
    // dropped before recursing so only one level's buffers are live.
    let scan = NodeScan::new(src, residual, rows, feats);
    let chunk = feats.len().div_ceil(threads.max(1)).max(1);
    let n_chunks = feats.len().div_ceil(chunk);
    let per_chunk = run_indexed(n_chunks, threads, &|ci| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(feats.len());
        feats[lo..hi]
            .iter()
            .map(|&f| {
                let d = src.feature_domain_size(f).max(1);
                let (cnt, sum) = scan.histogram(src.column(f), d, rows);
                best_reg_split(&cnt, &sum, n, total, parent_score).map(|(v, g)| (f, v, g))
            })
            .collect::<Vec<_>>()
    });
    drop(scan);
    let mut best: Option<(usize, u32, f64)> = None;
    for cand in per_chunk.into_iter().flatten().flatten() {
        if best.is_none_or(|(_, _, g)| cand.2 > g) {
            best = Some(cand);
        }
    }
    let Some((feature, value, gain)) = best else {
        return leaf(nodes, scores);
    };
    if gain <= GAIN_TOL {
        return leaf(nodes, scores);
    }

    let col = src.column(feature);
    let mut left_rows = Vec::new();
    let mut right_rows = Vec::new();
    for &r in rows {
        if col.code(r) == value {
            left_rows.push(r);
        } else {
            right_rows.push(r);
        }
    }
    if left_rows.is_empty() || right_rows.is_empty() {
        return leaf(nodes, scores);
    }
    let left = grow_reg(
        cfg,
        src,
        residual,
        &left_rows,
        feats,
        depth + 1,
        threads,
        nodes,
        scores,
    );
    let right = grow_reg(
        cfg,
        src,
        residual,
        &right_rows,
        feats,
        depth + 1,
        threads,
        nodes,
        scores,
    );
    nodes.push(RegNode::Split {
        feature,
        value,
        left,
        right,
    });
    (nodes.len() - 1) as u32
}

impl Gbt {
    /// Fits over any [`CodeSource`]: hand it a `Dataset` for the
    /// materialized path or a `FactorizedView` for the
    /// zero-materialization path — both run the identical float
    /// program.
    pub fn fit_source<S: CodeSource + Sync>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> GbtModel {
        let _span = hamlet_obs::span!(
            "trees.gbt_fit",
            rows = rows.len(),
            feats = feats.len(),
            rounds = self.rounds
        );
        let threads = self
            .threads
            .unwrap_or_else(hamlet_obs::env::resolved_threads);
        let n_classes = src.n_classes();
        let n_total = src.n_examples();

        if feats.is_empty() || rows.is_empty() {
            // Majority-class predictor, per the Classifier contract: a
            // constant base score equal to the majority class snaps to
            // exactly that class.
            let mut class_counts = vec![0u64; n_classes.max(1)];
            for &r in rows {
                let y = src.label(r) as usize;
                if y < class_counts.len() {
                    class_counts[y] += 1;
                }
            }
            return GbtModel {
                feats: feats.to_vec(),
                n_classes,
                base: majority(&class_counts) as f64,
                learning_rate: self.learning_rate,
                trees: Vec::new(),
            };
        }

        let mut total = 0.0;
        for &r in rows {
            total += src.label(r) as f64;
        }
        let base = total / rows.len() as f64;
        let mut scores = vec![0.0f64; n_total];
        for &r in rows {
            scores[r] = base;
        }
        let mut residual = vec![0.0f64; n_total];
        let mut trees = Vec::with_capacity(self.rounds);
        for _ in 0..self.rounds {
            for &r in rows {
                residual[r] = src.label(r) as f64 - scores[r];
            }
            let mut nodes = Vec::new();
            let root = grow_reg(
                self,
                src,
                &residual,
                rows,
                feats,
                0,
                threads,
                &mut nodes,
                &mut scores,
            );
            trees.push(RegTree { nodes, root });
        }
        GbtModel {
            feats: feats.to_vec(),
            n_classes,
            base,
            learning_rate: self.learning_rate,
            trees,
        }
    }
}

impl Classifier for Gbt {
    type Fitted = GbtModel;

    fn fit(&self, data: &Dataset, rows: &[usize], feats: &[usize]) -> GbtModel {
        self.fit_source(data, rows, feats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_ml::dataset::Feature;

    fn ordinal_data() -> Dataset {
        // y tracks x0 with a deterministic wobble from x1.
        let x0: Vec<u32> = (0..90).map(|i| i % 3).collect();
        let x1: Vec<u32> = (0..90).map(|i| (i * 7) % 4).collect();
        let y: Vec<u32> = x0
            .iter()
            .zip(&x1)
            .map(|(&a, &b)| (a + u32::from(b == 0)).min(3))
            .collect();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 3,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 4,
                    codes: x1,
                },
            ],
            y,
            4,
        )
    }

    #[test]
    fn fits_the_ordinal_signal() {
        let data = ordinal_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let model = Gbt::default().fit(&data, &rows, &[0, 1]);
        let wrong = rows
            .iter()
            .filter(|&&r| model.predict_row(&data, r) != data.labels()[r])
            .count();
        assert!(
            wrong * 10 < rows.len(),
            "GBT should fit a deterministic ordinal signal, {wrong}/{} wrong",
            rows.len()
        );
    }

    #[test]
    fn empty_feats_is_majority_predictor() {
        let data = ordinal_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let model = Gbt::default().fit(&data, &rows, &[]);
        assert!(model.trees().is_empty());
        let mut counts = vec![0u64; data.n_classes()];
        for &r in &rows {
            counts[data.labels()[r] as usize] += 1;
        }
        let maj = majority(&counts);
        for &r in &rows {
            assert_eq!(model.predict_row(&data, r), maj);
        }
    }

    #[test]
    fn thread_count_does_not_change_the_model() {
        let data = ordinal_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let base = Gbt {
            threads: Some(1),
            ..Gbt::default()
        }
        .fit(&data, &rows, &[0, 1]);
        for t in [2, 8] {
            let m = Gbt {
                threads: Some(t),
                ..Gbt::default()
            }
            .fit(&data, &rows, &[0, 1]);
            assert_eq!(base, m, "model changed at {t} threads");
        }
    }

    #[test]
    fn prediction_snaps_to_nearest_class_ties_low() {
        let model = GbtModel {
            feats: vec![],
            n_classes: 3,
            base: 0.5, // exactly between classes 0 and 1
            learning_rate: 0.1,
            trees: vec![],
        };
        let data = ordinal_data();
        assert_eq!(model.predict_row(&data, 0), 0);
        let model_hi = GbtModel { base: 1.6, ..model };
        assert_eq!(model_hi.predict_row(&data, 0), 2);
    }

    #[test]
    fn from_parts_rejects_non_finite_leaves() {
        let trees = vec![(vec![RegNode::Leaf { value: f64::NAN }], 0u32)];
        assert!(matches!(
            GbtModel::from_parts(vec![0], 2, 1, 0.0, 0.1, trees),
            Err(TreeError::NonFiniteLeaf { .. })
        ));
        assert!(GbtModel::from_parts(
            vec![0],
            2,
            1,
            0.0,
            0.1,
            vec![(vec![RegNode::Leaf { value: 0.25 }], 0)]
        )
        .is_ok());
    }

    #[test]
    fn rounds_env_override_applies() {
        std::env::set_var("HAMLET_GBT_ROUNDS", "7");
        assert_eq!(Gbt::from_env().rounds, 7);
        std::env::remove_var("HAMLET_GBT_ROUNDS");
        assert_eq!(Gbt::from_env().rounds, DEFAULT_GBT_ROUNDS);
    }
}
