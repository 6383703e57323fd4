//! Gradient-boosted regression trees on ordinal class codes.
//!
//! The paper's multi-class targets are ordinal (star ratings, sales
//! levels) and its multi-class metric is RMSE on the codes, so boosting
//! is done in the natural space: least-squares regression trees on the
//! residual `y - F(x)`, with the fitted score mapped back to the
//! nearest class at prediction time (ties to the lower class — the
//! same lowest-index-wins rule every argmax in this workspace uses).
//!
//! Exact fixed-point split aggregates: once per round every training
//! row's residual is quantized to an `i64` at a power-of-two scale
//! `2^s`, with `s` chosen from `max|residual|` and the row count so that
//! `n · max|q| < 2^62` (see `fixed_point_shift`). A node's split
//! statistics are `(count, sum)` per value of each candidate feature,
//! all integers: no sum can overflow, and none depends on the order of
//! its addends. Gains and leaf values are computed in `f64` from the
//! exact sums (a leaf is `sum · 2^-s / count`). Order-free sums make
//! three things exact:
//!
//! * **Sibling subtraction.** After a split only the smaller child is
//!   scanned, and only when either child will be split-scored; the
//!   larger child's histograms are parent − smaller, in place. A
//!   depth-3 tree scans at most `2n` rows instead of about `3n`, and
//!   the leaves below the last split level need no scan at all (their
//!   `(count, sum)` is one bucket of the parent's histogram).
//! * **FK push-down.** Each distinct FK the candidates read through
//!   ([`Column::Via`] `join`) is folded once per scanned node into
//!   `(count, sum)` per attribute-table row, skipping FK codes with no
//!   attribute row like [`hamlet_ml::class_count_table`] does. Every
//!   feature behind that FK then reads the folded table — all `n_R`
//!   entries when the node has at least `n_R` rows, the touched ones
//!   otherwise — so a node costs `n_node + d_R · min(n_R, n_node)`
//!   instead of `d_R · n_node` gathers.
//! * **Any work split merges to the same integers.** Materialized and
//!   factorized models are bitwise identical, and split scoring
//!   parallelism (over direct features and FK groups, reduced in feature
//!   order) cannot perturb them.
//!
//! Counters: `hamlet_gbt_scan_rows_direct_total` (node rows scanned for
//! [`Column::Rows`] candidates, once per scanned node),
//! `hamlet_gbt_scan_rows_via_fk_total` (node rows folded through an FK,
//! once per fold), `hamlet_gbt_fk_folds_total` (folds) and
//! `hamlet_gbt_rows_derived_total` (rows whose histograms came from
//! subtraction). Each fit opens a `trees.gbt_fit` span.

use hamlet_ml::classifier::{Classifier, Model};
use hamlet_ml::{CodeSource, Column};
use hamlet_obs::env::EnvError;
use hamlet_obs::parallel::run_indexed;

use crate::cart::{check_arena, majority, TreeError, GAIN_TOL};

/// Default boosting rounds when `HAMLET_GBT_ROUNDS` is unset.
pub const DEFAULT_GBT_ROUNDS: usize = 20;

/// The environment variable [`Gbt::from_env`] reads the rounds from.
const ROUNDS_VAR: &str = "HAMLET_GBT_ROUNDS";

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
        let raw = std::env::var_os(ROUNDS_VAR).map(|v| v.to_string_lossy().into_owned());
        let rounds = Self::rounds_from(raw.as_deref()).unwrap_or_else(|e| {
            hamlet_obs::journal::record_warning(format!("{e}; using default"));
            DEFAULT_GBT_ROUNDS
        });
        Self {
            rounds,
            ..Self::default()
        }
    }

    /// Boosting rounds for a raw `HAMLET_GBT_ROUNDS` value: unset is
    /// [`DEFAULT_GBT_ROUNDS`], a positive integer is itself, anything
    /// else is an error naming the variable.
    fn rounds_from(raw: Option<&str>) -> Result<usize, EnvError> {
        raw.map_or(Ok(DEFAULT_GBT_ROUNDS), |value| {
            hamlet_obs::env::parse_where(ROUNDS_VAR, "a positive integer", value, |&r: &usize| {
                r > 0
            })
        })
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

/// Largest fixed-point shift: a residual keeps at most 40 fractional
/// bits.
const MAX_SHIFT: i32 = 40;

/// Smallest fixed-point shift. Only residuals beyond `2^120 / n` reach it;
/// past that, quantization saturates instead of shifting further.
const MIN_SHIFT: i32 = -60;

/// `2^61`: the bound on `n · max|residual| · 2^s` within one round.
const HEADROOM: f64 = (1u64 << 61) as f64;

/// `2^s`, exactly, for `MIN_SHIFT <= s <= MAX_SHIFT`.
fn pow2(s: i32) -> f64 {
    f64::from_bits(((1023 + s) as u64) << 52)
}

/// One round's fixed-point shift: the largest `s <= MAX_SHIFT` with
/// `max_abs · 2^s <= 2^61 / n`. Rounding adds at most 1/2 per row, so
/// every `|q| <= 2^61 / n + 1/2` and `n · max|q| < 2^62`: any sum over
/// at most `n` rows, and any difference of two such sums, fits an
/// `i64` with room to spare.
fn fixed_point_shift(max_abs: f64, n: usize) -> i32 {
    let limit = HEADROOM / n.max(1) as f64;
    let mut s = MAX_SHIFT;
    while s > MIN_SHIFT && max_abs * pow2(s) > limit {
        s -= 1;
    }
    s
}

/// Quantizes this round's residuals `label − score` of `rows` straight
/// into `q` (`q[r] = round(residual · 2^s)`) and returns the shift `s`.
fn quantize<S: CodeSource + ?Sized>(src: &S, rows: &[usize], scores: &[f64], q: &mut [i64]) -> i32 {
    let residual = |r: usize| src.label(r) as f64 - scores[r];
    let max_abs = rows.iter().fold(0.0f64, |m, &r| m.max(residual(r).abs()));
    let s = fixed_point_shift(max_abs, rows.len());
    let scale = pow2(s);
    for &r in rows {
        q[r] = (residual(r) * scale).round() as i64;
    }
    s
}

/// Rows and their fixed-point residual sum: one histogram bucket, or a
/// whole node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Bucket {
    n: u64,
    sum: i64,
}

impl Bucket {
    fn add(&mut self, other: Bucket) {
        self.n += other.n;
        self.sum += other.sum;
    }
}

/// A node's histograms, one per candidate slot (position in `feats`).
type Hists = Vec<Vec<Bucket>>;

/// Per-fit scan tallies, added to the `hamlet_gbt_*` counters once per
/// fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ScanStats {
    /// Node rows scanned for [`Column::Rows`] candidates.
    direct: u64,
    /// Node rows folded through an FK, once per fold.
    via_fk: u64,
    /// Node rows whose histograms came from subtraction.
    derived: u64,
    /// `(node, FK)` folds.
    fk_folds: u64,
}

/// Where each candidate's histogram comes from; fixed for a fit.
struct Layout<'a> {
    /// Histogram width of each slot (its feature's domain, at least 1).
    widths: Vec<usize>,
    /// `(slot, codes)` of every [`Column::Rows`] candidate.
    direct: Vec<(usize, &'a [u32])>,
    /// The candidates behind each distinct [`Column::Via`] join.
    joins: Vec<FkGroup<'a>>,
}

/// The candidates read through one FK.
struct FkGroup<'a> {
    join: usize,
    fk_codes: &'a [u32],
    rid_to_row: &'a [u32],
    /// Attribute-table rows `n_R`.
    n_r: usize,
    /// `(slot, attribute-table codes)` of each member.
    members: Vec<(usize, &'a [u32])>,
}

impl<'a> Layout<'a> {
    fn new<S: CodeSource + ?Sized>(src: &'a S, feats: &[usize]) -> Self {
        let mut layout = Layout {
            widths: Vec::with_capacity(feats.len()),
            direct: Vec::new(),
            joins: Vec::new(),
        };
        for (slot, &f) in feats.iter().enumerate() {
            layout.widths.push(src.feature_domain_size(f).max(1));
            match src.column(f) {
                Column::Rows(codes) => layout.direct.push((slot, codes)),
                Column::Via {
                    join,
                    fk_codes,
                    rid_to_row,
                    codes,
                } => match layout.joins.iter_mut().find(|g| g.join == join) {
                    Some(group) => {
                        group.n_r = group.n_r.max(codes.len());
                        group.members.push((slot, codes));
                    }
                    None => layout.joins.push(FkGroup {
                        join,
                        fk_codes,
                        rid_to_row,
                        n_r: codes.len(),
                        members: vec![(slot, codes)],
                    }),
                },
            }
        }
        layout
    }

    /// Every candidate's histogram over `rows`: one pass per direct
    /// candidate and one fold per FK group, fanned out over `threads`
    /// and placed by slot.
    fn scan(&self, q: &[i64], rows: &[usize], threads: usize, stats: &mut ScanStats) -> Hists {
        let n_direct = self.direct.len();
        let parts = run_indexed(
            n_direct + self.joins.len(),
            threads,
            &|t| match self.direct.get(t) {
                Some(&(slot, codes)) => {
                    vec![(slot, direct_hist(codes, q, rows, self.widths[slot]))]
                }
                None => self.joins[t - n_direct].fold_hists(q, rows, &self.widths),
            },
        );
        let mut hists = vec![Vec::new(); self.widths.len()];
        for (slot, hist) in parts.into_iter().flatten() {
            hists[slot] = hist;
        }
        let n = rows.len() as u64;
        if n_direct > 0 {
            stats.direct += n;
        }
        stats.via_fk += n * self.joins.len() as u64;
        stats.fk_folds += self.joins.len() as u64;
        hists
    }

    /// The two children's histograms, `(left, right)`, from the
    /// parent's: the smaller child (the left on a tie) is scanned, the
    /// larger is `parent − smaller`, in place.
    fn children(
        &self,
        mut parent: Hists,
        left: &[usize],
        right: &[usize],
        q: &[i64],
        threads: usize,
        stats: &mut ScanStats,
    ) -> (Hists, Hists) {
        let left_smaller = left.len() <= right.len();
        let (small, large) = if left_smaller {
            (left, right)
        } else {
            (right, left)
        };
        let small = self.scan(q, small, threads, stats);
        for (p, s) in parent.iter_mut().zip(&small) {
            for (pb, sb) in p.iter_mut().zip(s) {
                pb.n -= sb.n;
                pb.sum -= sb.sum;
            }
        }
        stats.derived += large.len() as u64;
        if left_smaller {
            (small, parent)
        } else {
            (parent, small)
        }
    }
}

/// Histogram of one [`Column::Rows`] candidate over `rows`. Codes
/// outside the domain are skipped; they never equal a split value.
fn direct_hist(codes: &[u32], q: &[i64], rows: &[usize], width: usize) -> Vec<Bucket> {
    let mut hist = vec![Bucket::default(); width];
    for &r in rows {
        if let Some(b) = hist.get_mut(codes[r] as usize) {
            b.add(Bucket { n: 1, sum: q[r] });
        }
    }
    hist
}

impl FkGroup<'_> {
    /// Folds `(count, sum)` over `rows` by attribute-table row once,
    /// then reads each member's histogram off the folded table: every
    /// `n_R` row when `rows` has at least that many, else only the rows
    /// touched. An FK code with no attribute row (`u32::MAX`) folds
    /// nowhere, as the inner join drops it.
    fn fold_hists(&self, q: &[i64], rows: &[usize], widths: &[usize]) -> Vec<(usize, Vec<Bucket>)> {
        let mut fold = vec![Bucket::default(); self.n_r];
        let dense = rows.len() >= self.n_r;
        let mut touched = Vec::new();
        for &r in rows {
            let at = self.rid_to_row[self.fk_codes[r] as usize];
            if let Some(b) = fold.get_mut(at as usize) {
                if !dense && b.n == 0 {
                    touched.push(at);
                }
                b.add(Bucket { n: 1, sum: q[r] });
            }
        }
        self.members
            .iter()
            .map(|&(slot, codes)| {
                let mut hist = vec![Bucket::default(); widths[slot]];
                if dense {
                    for (&v, &b) in codes.iter().zip(&fold) {
                        if let Some(h) = hist.get_mut(v as usize) {
                            h.add(b);
                        }
                    }
                } else {
                    for &at in &touched {
                        let at = at as usize;
                        if let Some(h) = codes.get(at).and_then(|&v| hist.get_mut(v as usize)) {
                            h.add(fold[at]);
                        }
                    }
                }
                (slot, hist)
            })
            .collect()
    }
}

/// Best one-vs-rest split of one candidate for least squares: maximizes
/// `sum_l²/n_l + sum_r²/n_r` (variance reduction up to node constants),
/// values in domain order, strictly greater wins. Counts and sums come
/// in exact; `unit` (`2^-s`) turns a fixed-point sum into residual
/// units.
fn best_reg_split(
    hist: &[Bucket],
    node: Bucket,
    unit: f64,
    parent_score: f64,
) -> Option<(u32, f64)> {
    let mut best: Option<(u32, f64)> = None;
    for (v, b) in hist.iter().enumerate() {
        if b.n == 0 || b.n == node.n {
            continue;
        }
        let sum_l = b.sum as f64 * unit;
        let sum_r = (node.sum - b.sum) as f64 * unit;
        let score = sum_l * sum_l / b.n as f64 + sum_r * sum_r / (node.n - b.n) as f64;
        let gain = score - parent_score;
        if best.is_none_or(|(_, g)| gain > g) {
            best = Some((v as u32, gain));
        }
    }
    best
}

/// Stable in-place partition of `rows` by `code == value`: left rows
/// first, each side in its original order; returns the left count.
/// `n_right` sizes the spill buffer. A foreign row with no attribute
/// row goes right, as the histograms (which skip it) assume.
fn partition(rows: &mut [usize], col: Column<'_>, value: u32, n_right: usize) -> usize {
    let goes_left = |r: usize| match col {
        Column::Rows(codes) => codes[r] == value,
        Column::Via {
            fk_codes,
            rid_to_row,
            codes,
            ..
        } => codes.get(rid_to_row[fk_codes[r] as usize] as usize) == Some(&value),
    };
    let mut right = Vec::with_capacity(n_right);
    let mut n_left = 0;
    for i in 0..rows.len() {
        let r = rows[i];
        if goes_left(r) {
            rows[n_left] = r;
            n_left += 1;
        } else {
            right.push(r);
        }
    }
    rows[n_left..].copy_from_slice(&right);
    n_left
}

/// One round's tree growth.
struct Grower<'a, S: ?Sized> {
    cfg: &'a Gbt,
    src: &'a S,
    feats: &'a [usize],
    layout: &'a Layout<'a>,
    /// This round's fixed-point residuals, indexed by example row.
    q: &'a [i64],
    /// `2^-s`: the value of one fixed-point unit this round.
    unit: f64,
    threads: usize,
    nodes: Vec<RegNode>,
    scores: &'a mut [f64],
    stats: &'a mut ScanStats,
}

impl<S: CodeSource + Sync + ?Sized> Grower<'_, S> {
    /// Whether a node of `n` rows at `depth` is split-scored (and so
    /// needs histograms).
    fn scored(&self, n: usize, depth: usize) -> bool {
        depth < self.cfg.max_depth && n >= self.cfg.min_samples_split
    }

    fn leaf(&mut self, rows: &[usize], node: Bucket) -> u32 {
        let value = if node.n == 0 {
            0.0
        } else {
            node.sum as f64 * self.unit / node.n as f64
        };
        self.nodes.push(RegNode::Leaf { value });
        for &r in rows {
            self.scores[r] += self.cfg.learning_rate * value;
        }
        (self.nodes.len() - 1) as u32
    }

    /// Grows the subtree over `rows`, whose `(count, sum)` is `node`;
    /// `hists` holds the node's histograms whenever it is split-scored.
    /// Partitions `rows` in place, so each child keeps ascending row
    /// order when its parent had it, and updates `scores` for every row
    /// that lands in a created leaf (leaves are created in
    /// deterministic order, and each row belongs to exactly one).
    fn grow(
        &mut self,
        rows: &mut [usize],
        node: Bucket,
        hists: Option<Hists>,
        depth: usize,
    ) -> u32 {
        let Some(hists) = hists.filter(|_| self.scored(rows.len(), depth)) else {
            return self.leaf(rows, node);
        };
        let total = node.sum as f64 * self.unit;
        let parent_score = total * total / node.n as f64;
        let mut best: Option<(usize, u32, f64)> = None;
        for (slot, hist) in hists.iter().enumerate() {
            if let Some((v, g)) = best_reg_split(hist, node, self.unit, parent_score) {
                if best.is_none_or(|(_, _, bg)| g > bg) {
                    best = Some((slot, v, g));
                }
            }
        }
        let Some((slot, value, _)) = best.filter(|&(_, _, gain)| gain > GAIN_TOL) else {
            return self.leaf(rows, node);
        };

        let feature = self.feats[slot];
        let left_node = hists[slot][value as usize];
        let right_node = Bucket {
            n: node.n - left_node.n,
            sum: node.sum - left_node.sum,
        };
        let split = partition(rows, self.src.column(feature), value, right_node.n as usize);
        let (left_rows, right_rows) = rows.split_at_mut(split);
        let (left_hists, right_hists) = (self.scored(left_rows.len(), depth + 1)
            || self.scored(right_rows.len(), depth + 1))
        .then(|| {
            self.layout.children(
                hists,
                left_rows,
                right_rows,
                self.q,
                self.threads,
                self.stats,
            )
        })
        .unzip();
        let left = self.grow(left_rows, left_node, left_hists, depth + 1);
        let right = self.grow(right_rows, right_node, right_hists, depth + 1);
        self.nodes.push(RegNode::Split {
            feature,
            value,
            left,
            right,
        });
        (self.nodes.len() - 1) as u32
    }
}

impl Gbt {
    /// [`Classifier::fit`], also returning the fit's scan tallies.
    fn fit_with_stats<S: CodeSource + Sync + ?Sized>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> (GbtModel, ScanStats) {
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
        let mut stats = ScanStats::default();

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
            let model = GbtModel {
                feats: feats.to_vec(),
                n_classes,
                base: majority(&class_counts) as f64,
                learning_rate: self.learning_rate,
                trees: Vec::new(),
            };
            return (model, stats);
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
        let layout = Layout::new(src, feats);
        let mut q = vec![0i64; n_total];
        let mut order = rows.to_vec();
        let mut trees = Vec::with_capacity(self.rounds);
        for _ in 0..self.rounds {
            let shift = quantize(src, rows, &scores, &mut q);
            order.copy_from_slice(rows);
            let root = Bucket {
                n: rows.len() as u64,
                sum: rows.iter().map(|&r| q[r]).sum(),
            };
            let mut grower = Grower {
                cfg: self,
                src,
                feats,
                layout: &layout,
                q: &q,
                unit: pow2(-shift),
                threads,
                nodes: Vec::new(),
                scores: &mut scores,
                stats: &mut stats,
            };
            let hists = grower
                .scored(rows.len(), 0)
                .then(|| layout.scan(&q, rows, threads, grower.stats));
            let root = grower.grow(&mut order, root, hists, 0);
            trees.push(RegTree {
                nodes: grower.nodes,
                root,
            });
        }
        hamlet_obs::counter_add!("hamlet_gbt_scan_rows_direct_total", stats.direct);
        hamlet_obs::counter_add!("hamlet_gbt_scan_rows_via_fk_total", stats.via_fk);
        hamlet_obs::counter_add!("hamlet_gbt_rows_derived_total", stats.derived);
        hamlet_obs::counter_add!("hamlet_gbt_fk_folds_total", stats.fk_folds);
        let model = GbtModel {
            feats: feats.to_vec(),
            n_classes,
            base,
            learning_rate: self.learning_rate,
            trees,
        };
        (model, stats)
    }
}

impl Classifier for Gbt {
    type Fitted = GbtModel;

    /// Hand it a `Dataset` for the materialized path or a
    /// `FactorizedView` for the zero-materialization path — both build
    /// the identical integer histograms, so both produce the identical
    /// model.
    fn fit<S: CodeSource + Sync + ?Sized>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> GbtModel {
        self.fit_with_stats(src, rows, feats).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_ml::dataset::{Dataset, Feature};

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
        assert_eq!(Gbt::rounds_from(Some("7")), Ok(7));
        assert_eq!(Gbt::rounds_from(Some(" 7 ")), Ok(7));
        assert_eq!(Gbt::rounds_from(None), Ok(DEFAULT_GBT_ROUNDS));
        for bad in ["0", "-3", "seven", ""] {
            let err = Gbt::rounds_from(Some(bad)).unwrap_err();
            assert_eq!(err.key, "HAMLET_GBT_ROUNDS");
            assert_eq!(err.value, bad);
        }
    }

    /// At the documented bound — every residual at `max|r|`, the shift
    /// the largest with `n · max|r| · 2^s <= 2^61` — no sum overflows,
    /// `n · max|q| < 2^62`, and the fixed-point leaf `sum · 2^-s / n` is
    /// within `2^-s` of the `f64` mean.
    #[test]
    fn fixed_point_sums_have_headroom_at_the_bound() {
        let n = 1000;
        for (max_abs, signs) in [(0.75, 1.0), (3.0e9, 1.0), (3.0e9, -1.0), (1.0e15, 1.0)] {
            let s = fixed_point_shift(max_abs, n);
            let bound = (1u128 << 61) as f64;
            assert!(
                max_abs * pow2(s) * n as f64 <= bound,
                "{max_abs}: shift {s}"
            );
            if s < MAX_SHIFT {
                assert!(
                    max_abs * pow2(s + 1) * n as f64 > bound,
                    "{max_abs}: shift {s} not largest"
                );
            }
            // Residuals alternate between ±max_abs and a third of it,
            // all with the same sign when `signs` says so.
            let residuals: Vec<f64> = (0..n)
                .map(|i| signs * if i % 3 == 0 { max_abs / 3.0 } else { max_abs })
                .collect();
            let data = Dataset::new(
                vec![Feature {
                    name: "x".into(),
                    domain_size: 1,
                    codes: vec![0; n],
                }],
                vec![0; n],
                1,
            );
            let scores: Vec<f64> = residuals.iter().map(|r| -r).collect();
            let rows: Vec<usize> = (0..n).collect();
            let mut q = vec![0i64; n];
            assert_eq!(quantize(&data, &rows, &scores, &mut q), s);
            let max_q = q.iter().map(|v| v.unsigned_abs()).max().unwrap();
            assert!(
                n as u128 * max_q as u128 * 2 < 1u128 << 63,
                "{max_abs}: n·max|q| too large"
            );
            let sum = q
                .iter()
                .try_fold(0i64, |acc, &v| acc.checked_add(v))
                .expect("fixed-point sum overflowed");
            let leaf = sum as f64 * pow2(-s) / n as f64;
            let mean = residuals.iter().sum::<f64>() / n as f64;
            assert!(
                (leaf - mean).abs() <= pow2(-s).max(mean.abs() * 1e-12),
                "{max_abs}: leaf {leaf} vs mean {mean} at shift {s}"
            );
        }
        assert_eq!(fixed_point_shift(0.0, n), MAX_SHIFT);
        assert_eq!(fixed_point_shift(f64::INFINITY, n), MIN_SHIFT);
    }

    /// Scan tallies of a depth-3 fit: every root is scanned directly,
    /// no tree scans more than `2n` rows, rows are derived by
    /// subtraction, and the process counters move by at least as much.
    #[test]
    fn depth_three_fit_derives_rows_and_scans_at_most_2n_per_tree() {
        let counter = |name| hamlet_obs::metrics::counter(name).get();
        let data = ordinal_data();
        let rows: Vec<usize> = (0..data.n_examples()).collect();
        let gbt = Gbt {
            rounds: 4,
            max_depth: 3,
            min_samples_split: 2,
            threads: Some(1),
            ..Gbt::default()
        };
        let (direct, derived) = (
            counter("hamlet_gbt_scan_rows_direct_total"),
            counter("hamlet_gbt_rows_derived_total"),
        );
        let (model, stats) = gbt.fit_with_stats(&data, &rows, &[0, 1]);
        assert_eq!(model, gbt.fit(&data, &rows, &[0, 1]));
        let n = rows.len() as u64;
        let rounds = gbt.rounds as u64;
        assert!(stats.direct >= rounds * n, "{stats:?}");
        assert!(stats.direct <= rounds * 2 * n, "{stats:?}");
        assert!(stats.derived > 0, "{stats:?}");
        assert_eq!((stats.via_fk, stats.fk_folds), (0, 0));
        assert!(counter("hamlet_gbt_scan_rows_direct_total") - direct >= stats.direct);
        assert!(counter("hamlet_gbt_rows_derived_total") - derived >= stats.derived);
    }

    /// A source with one direct feature, the FK itself, and one foreign
    /// feature read through an RID layout that stores rows out of order
    /// and leaves RID 3 without an attribute row.
    struct Star {
        xs: Vec<u32>,
        fk: Vec<u32>,
    }

    const RID_TO_ROW: [u32; 6] = [2, 0, 4, u32::MAX, 1, 3];
    const XR: [u32; 5] = [1, 3, 0, 2, 3];

    impl CodeSource for Star {
        fn n_examples(&self) -> usize {
            self.xs.len()
        }
        fn n_classes(&self) -> usize {
            2
        }
        fn n_features(&self) -> usize {
            3
        }
        fn feature_domain_size(&self, f: usize) -> usize {
            [5, RID_TO_ROW.len(), 4][f]
        }
        fn feature_name(&self, f: usize) -> &str {
            ["xs", "fk", "xr"][f]
        }
        fn column(&self, f: usize) -> Column<'_> {
            match f {
                0 => Column::Rows(&self.xs),
                1 => Column::Rows(&self.fk),
                _ => Column::Via {
                    join: 0,
                    fk_codes: &self.fk,
                    rid_to_row: &RID_TO_ROW,
                    codes: &XR,
                },
            }
        }
        fn label(&self, row: usize) -> u32 {
            (row % 2) as u32
        }
    }

    proptest::proptest! {
        /// Sibling subtraction is exact: on a random partition of a node,
        /// the smaller child scanned and the larger derived as parent −
        /// smaller equal direct scans of both children, on direct and
        /// FK-folded candidates alike — including a value (`xs = 4`)
        /// present only in the larger child.
        #[test]
        fn sibling_derived_histograms_equal_a_direct_scan(
            cells in proptest::collection::vec((0..4u32, 0..6u32, -1000i64..1000, proptest::bool::ANY), 2..150),
            threads in 1usize..3,
        ) {
            let (left, right): (Vec<usize>, Vec<usize>) =
                (0..cells.len()).partition(|&i| cells[i].3);
            let large = if left.len() <= right.len() { &right } else { &left };
            let mut xs: Vec<u32> = cells.iter().map(|c| c.0).collect();
            for &r in large.iter().step_by(3) {
                xs[r] = 4;
            }
            let src = Star { xs, fk: cells.iter().map(|c| c.1).collect() };
            let q: Vec<i64> = cells.iter().map(|c| c.2).collect();
            let layout = Layout::new(&src, &[0, 1, 2]);
            let mut stats = ScanStats::default();
            let all: Vec<usize> = (0..cells.len()).collect();
            let parent = layout.scan(&q, &all, threads, &mut stats);
            let (l, r) = layout.children(parent, &left, &right, &q, threads, &mut stats);
            proptest::prop_assert_eq!(&l, &layout.scan(&q, &left, 1, &mut stats));
            proptest::prop_assert_eq!(&r, &layout.scan(&q, &right, 1, &mut stats));
            if !large.is_empty() {
                let small = if left.len() <= right.len() { &l } else { &r };
                proptest::prop_assert_eq!(small[0][4], Bucket::default());
            }
        }
    }
}
