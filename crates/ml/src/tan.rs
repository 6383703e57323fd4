//! Tree-Augmented Naive Bayes (TAN).
//!
//! Appendix E: "TAN strikes a balance between the efficiency of Naive
//! Bayes and the expressive power of general Bayesian networks. TAN
//! searches for strong conditional dependencies among pairs of features in
//! X given Y using mutual information to construct a tree of dependencies."
//!
//! Construction (Friedman et al., 1997): compute `I(X_i; X_j | Y)` for all
//! pairs, build a maximum-weight spanning tree, root it, and give every
//! non-root feature one feature-parent in addition to `Y`. The paper's
//! appendix observes that on KFK-joined data the FD `FK -> X_R` drags all
//! foreign features under `FK` in this tree, turning their CPTs into
//! unhelpful Kronecker deltas — our reproduction of that effect lives in
//! the experiments crate.

use std::borrow::Cow;

use crate::classifier::{Classifier, Model};
use crate::info::conditional_mutual_information;
use crate::naive_bayes::smoothed_log_table;
use crate::source::{class_count_table, class_histogram, CodeSource, Column};

/// TAN learner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Tan {
    /// Laplace smoothing pseudo-count for all CPTs.
    pub smoothing: f64,
    /// Upper bound on the number of cells `|D_X| * |D_parent| * |D_Y|` a
    /// conditional table may occupy. Pairs exceeding it (e.g. FK–FK with
    /// two 50 000-value domains) are excluded from the dependency tree;
    /// affected features fall back to a Naive-Bayes-style `P(X|Y)`.
    pub max_cpt_cells: usize,
}

impl Default for Tan {
    fn default() -> Self {
        Self {
            smoothing: 1.0,
            max_cpt_cells: 8_000_000,
        }
    }
}

/// A fitted TAN model.
#[derive(Debug, Clone, PartialEq)]
pub struct TanModel {
    feats: Vec<usize>,
    n_classes: usize,
    log_prior: Vec<f64>,
    /// Parent position (into `feats`) per selected feature; `None` for the
    /// root and for features whose candidate CPTs were all over budget.
    parents: Vec<Option<usize>>,
    /// Per feature: flattened log CPT.
    /// With a parent: `[y][parent_value][value]`; without: `[y][value]`.
    log_cond: Vec<Vec<f64>>,
    domain_sizes: Vec<usize>,
}

impl Classifier for Tan {
    type Fitted = TanModel;

    /// The pairwise CMI and every CPT fill integer tables through
    /// [`Column::code`], so two sources presenting the same codes give
    /// the same counts, hence the same floats and the same model.
    fn fit<S: CodeSource + Sync + ?Sized>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> TanModel {
        let _span = hamlet_obs::span!("ml.tan_fit", rows = rows.len(), feats = feats.len());
        let n_classes = src.n_classes();
        let alpha = self.smoothing;
        let m = feats.len();
        let labels: Cow<'_, [u32]> = match src.labels() {
            Some(labels) => Cow::Borrowed(labels),
            None => (0..src.n_examples()).map(|r| src.label(r)).collect(),
        };
        let cols: Vec<Column<'_>> = feats.iter().map(|&f| src.column(f)).collect();
        let domain_sizes: Vec<usize> = feats.iter().map(|&f| src.feature_domain_size(f)).collect();

        // Class priors.
        let threads = hamlet_obs::env::resolved_threads();
        let class_counts = class_histogram(src, rows);
        let log_prior = smoothed_log_table(&class_counts, &[rows.len() as u64], n_classes, alpha);

        // Pairwise conditional MI, skipping over-budget pairs.
        let parents = if m >= 2 {
            let mut cmi = vec![f64::NEG_INFINITY; m * m];
            let span = hamlet_obs::span!("ml.tan_cmi", pairs = m * (m - 1) / 2, rows = rows.len());
            for i in 0..m {
                for j in (i + 1)..m {
                    let cells = domain_sizes[i] * domain_sizes[j] * n_classes;
                    if cells > self.max_cpt_cells {
                        continue;
                    }
                    let w = conditional_mutual_information(
                        cols[i],
                        domain_sizes[i],
                        cols[j],
                        domain_sizes[j],
                        Column::Rows(&labels),
                        n_classes,
                        rows,
                    );
                    cmi[i * m + j] = w;
                    cmi[j * m + i] = w;
                }
            }
            drop(span);
            maximum_spanning_forest_parents(&cmi, m)
        } else {
            vec![None; m]
        };

        // CPTs.
        let mut log_cond = Vec::with_capacity(m);
        for (i, &f) in feats.iter().enumerate() {
            let d = domain_sizes[i];
            let (table, row_totals) = match parents[i] {
                // P(X | Y) as in Naive Bayes.
                None => (
                    class_count_table(src, f, rows, threads),
                    class_counts.clone(),
                ),
                // P(X | parent, Y): one table row per (y, parent value).
                Some(p) => {
                    let dp = domain_sizes[p];
                    let mut counts = vec![0u64; n_classes * dp * d];
                    let mut margins = vec![0u64; n_classes * dp];
                    for &r in rows {
                        let row = labels[r] as usize * dp + cols[p].code(r) as usize;
                        counts[row * d + cols[i].code(r) as usize] += 1;
                        margins[row] += 1;
                    }
                    (counts, margins)
                }
            };
            log_cond.push(smoothed_log_table(&table, &row_totals, d, alpha));
        }

        TanModel {
            feats: feats.to_vec(),
            n_classes,
            log_prior,
            parents,
            log_cond,
            domain_sizes,
        }
    }
}

/// Builds a maximum-weight spanning forest over `m` nodes from a dense
/// weight matrix (`NEG_INFINITY` marks an unusable edge) using Prim's
/// algorithm per component, then roots each tree at its lowest-index node
/// and returns each node's parent.
fn maximum_spanning_forest_parents(w: &[f64], m: usize) -> Vec<Option<usize>> {
    let mut parents: Vec<Option<usize>> = vec![None; m];
    let mut in_tree = vec![false; m];
    for start in 0..m {
        if in_tree[start] {
            continue;
        }
        // Prim from `start` over its component.
        in_tree[start] = true;
        let mut best_w = vec![f64::NEG_INFINITY; m];
        let mut best_from = vec![usize::MAX; m];
        for v in 0..m {
            if !in_tree[v] {
                best_w[v] = w[start * m + v];
                best_from[v] = start;
            }
        }
        loop {
            let mut pick = None;
            let mut pick_w = f64::NEG_INFINITY;
            for v in 0..m {
                if !in_tree[v] && best_w[v] > pick_w {
                    pick_w = best_w[v];
                    pick = Some(v);
                }
            }
            let Some(v) = pick else { break };
            if pick_w == f64::NEG_INFINITY {
                break; // remaining nodes unreachable from this component
            }
            in_tree[v] = true;
            parents[v] = Some(best_from[v]);
            for u in 0..m {
                if !in_tree[u] && w[v * m + u] > best_w[u] {
                    best_w[u] = w[v * m + u];
                    best_from[u] = v;
                }
            }
        }
    }
    parents
}

impl TanModel {
    /// Assembles a model from raw parts — the import half of model
    /// serialization (`hamlet-serve` artifacts). Callers must pre-validate
    /// shapes; mismatched lengths are a programming error.
    pub fn from_parts(
        feats: Vec<usize>,
        n_classes: usize,
        log_prior: Vec<f64>,
        parents: Vec<Option<usize>>,
        log_cond: Vec<Vec<f64>>,
        domain_sizes: Vec<usize>,
    ) -> Self {
        assert_eq!(log_prior.len(), n_classes);
        assert_eq!(parents.len(), feats.len());
        assert_eq!(log_cond.len(), feats.len());
        assert_eq!(domain_sizes.len(), feats.len());
        Self {
            feats,
            n_classes,
            log_prior,
            parents,
            log_cond,
            domain_sizes,
        }
    }

    /// The dependency-tree parent (position into [`Model::features`]) of
    /// each selected feature.
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parents
    }

    /// Number of classes the model was fitted on.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Log-priors `log P(y)` per class.
    pub fn log_prior(&self) -> &[f64] {
        &self.log_prior
    }

    /// Flattened log CPT of the `i`-th selected feature. With a parent the
    /// layout is `[(y * |D_parent| + pv) * |D_F| + v]`; without,
    /// `[y * |D_F| + v]`.
    pub fn log_cond(&self, i: usize) -> &[f64] {
        &self.log_cond[i]
    }

    /// Domain size per selected feature (parallel to [`Model::features`]).
    pub fn domain_sizes(&self) -> &[usize] {
        &self.domain_sizes
    }

    /// Unnormalized log-posterior per class on one row.
    pub fn log_posterior<S: CodeSource>(&self, data: &S, row: usize) -> Vec<f64> {
        let mut scores = vec![0.0; self.log_prior.len()];
        self.log_posterior_into(data, row, &mut scores);
        scores
    }

    /// [`TanModel::log_posterior`] written into `scores` (one slot per
    /// class) instead of a fresh vector.
    pub fn log_posterior_into<S: CodeSource>(&self, data: &S, row: usize, scores: &mut [f64]) {
        scores.copy_from_slice(&self.log_prior);
        for (i, &f) in self.feats.iter().enumerate() {
            let v = data.code(f, row) as usize;
            let d = self.domain_sizes[i];
            match self.parents[i] {
                None => {
                    let table = &self.log_cond[i];
                    for (y, s) in scores.iter_mut().enumerate() {
                        *s += table[y * d + v];
                    }
                }
                Some(p) => {
                    let pv = data.code(self.feats[p], row) as usize;
                    let dp = self.domain_sizes[p];
                    let table = &self.log_cond[i];
                    for (y, s) in scores.iter_mut().enumerate() {
                        *s += table[(y * dp + pv) * d + v];
                    }
                }
            }
        }
    }
}

impl Model for TanModel {
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32 {
        let scores = self.log_posterior(data, row);
        let mut best = 0usize;
        for y in 1..self.n_classes {
            if scores[y] > scores[best] {
                best = y;
            }
        }
        best as u32
    }

    fn features(&self) -> &[usize] {
        &self.feats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::zero_one_error;
    use crate::dataset::{Dataset, Feature};

    /// y = x0 XOR x1 — the classic concept NB cannot represent but TAN can
    /// (x1's CPT conditions on x0).
    fn xor_data(n: usize) -> Dataset {
        let x0: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let x1: Vec<u32> = (0..n as u32).map(|i| (i / 2) % 2).collect();
        let y: Vec<u32> = x0.iter().zip(&x1).map(|(&a, &b)| a ^ b).collect();
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
            ],
            y,
            2,
        )
    }

    #[test]
    fn tan_solves_xor_where_nb_cannot() {
        let d = xor_data(200);
        let rows: Vec<usize> = (0..200).collect();
        let tan = Tan::default().fit(&d, &rows, &[0, 1]);
        assert_eq!(zero_one_error(&tan, &d, &rows), 0.0, "TAN should solve XOR");
        let nb = crate::naive_bayes::NaiveBayes::default().fit(&d, &rows, &[0, 1]);
        assert!(
            zero_one_error(&nb, &d, &rows) > 0.4,
            "NB should fail XOR (sanity check)"
        );
    }

    #[test]
    fn tree_links_dependent_features() {
        let d = xor_data(200);
        let rows: Vec<usize> = (0..200).collect();
        let tan = Tan::default().fit(&d, &rows, &[0, 1]);
        // One of the two features must be the other's parent.
        let linked = tan.parents().iter().flatten().count();
        assert_eq!(linked, 1);
    }

    #[test]
    fn single_feature_behaves_like_nb() {
        let d = xor_data(100);
        let rows: Vec<usize> = (0..100).collect();
        let tan = Tan::default().fit(&d, &rows, &[0]);
        let nb = crate::naive_bayes::NaiveBayes::default().fit(&d, &rows, &[0]);
        // Bit for bit: both smooth the same counts through one recipe.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(tan.log_prior()), bits(nb.log_prior()));
        assert_eq!(bits(tan.log_cond(0)), bits(nb.log_cond(0)));
        assert_eq!(tan.parents(), &[None]);
        for r in 0..100 {
            assert_eq!(tan.predict_row(&d, r), nb.predict_row(&d, r));
        }
    }

    #[test]
    fn cpt_budget_excludes_large_pairs() {
        let d = xor_data(100);
        let rows: Vec<usize> = (0..100).collect();
        let tan = Tan {
            smoothing: 1.0,
            max_cpt_cells: 1, // nothing fits
        }
        .fit(&d, &rows, &[0, 1]);
        assert!(tan.parents().iter().all(Option::is_none));
        // Degrades to NB behaviour on XOR: high error.
        assert!(zero_one_error(&tan, &d, &rows) > 0.4);
    }

    #[test]
    fn spanning_forest_on_disconnected_graph() {
        // 3 nodes; only edge (0,1) usable.
        let inf = f64::NEG_INFINITY;
        let w = vec![
            inf, 1.0, inf, //
            1.0, inf, inf, //
            inf, inf, inf,
        ];
        let parents = maximum_spanning_forest_parents(&w, 3);
        assert_eq!(parents[0], None);
        assert_eq!(parents[1], Some(0));
        assert_eq!(parents[2], None);
    }

    #[test]
    fn spanning_tree_picks_heaviest_edges() {
        // Triangle with weights 0-1:5, 1-2:3, 0-2:1 -> tree keeps 5 and 3.
        let inf = f64::NEG_INFINITY;
        let w = vec![
            inf, 5.0, 1.0, //
            5.0, inf, 3.0, //
            1.0, 3.0, inf,
        ];
        let parents = maximum_spanning_forest_parents(&w, 3);
        assert_eq!(parents[0], None);
        assert_eq!(parents[1], Some(0));
        assert_eq!(parents[2], Some(1));
    }

    #[test]
    fn empty_feature_set_predicts_majority() {
        let d = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 2,
                codes: vec![0, 1, 0],
            }],
            vec![1, 1, 0],
            2,
        );
        let rows: Vec<usize> = (0..3).collect();
        let m = Tan::default().fit(&d, &rows, &[]);
        assert_eq!(m.predict_row(&d, 0), 1);
    }
}
