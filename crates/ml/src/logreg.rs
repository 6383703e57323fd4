//! Multinomial logistic regression with L1/L2 regularization.
//!
//! The paper evaluates logistic regression with embedded feature selection
//! via "L1 or L2 norm regularization" (Secs 2.2, 5.3). Nominal features
//! are one-hot encoded; training is SGD with *lazy* regularization so each
//! step touches only the active one-hot coordinates — essential when a
//! foreign key contributes tens of thousands of columns.
//!
//! * L2 uses lazily applied multiplicative decay.
//! * L1 uses the truncated-gradient (clipping) scheme of Tsuruoka et al.,
//!   which drives irrelevant coordinates exactly to zero — the paper's
//!   "L1 norm makes some coefficients vanish, which is akin to dropping
//!   the corresponding features" (Sec 2.2).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::classifier::{Classifier, Model};
use crate::source::CodeSource;

/// Regularization penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Penalty {
    /// No regularization.
    None,
    /// `lambda * ||w||_1`.
    L1(f64),
    /// `(lambda / 2) * ||w||_2^2`.
    L2(f64),
}

/// Logistic-regression learner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    /// Regularization penalty.
    pub penalty: Penalty,
    /// Number of SGD passes over the training rows.
    pub epochs: usize,
    /// Initial learning rate; decays as `lr / (1 + epoch)`.
    pub learning_rate: f64,
    /// Shuffle seed (training is deterministic given the seed).
    pub seed: u64,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self {
            penalty: Penalty::None,
            epochs: 12,
            learning_rate: 0.5,
            seed: 0,
        }
    }
}

impl LogisticRegression {
    /// An L1-regularized learner with penalty strength `lambda`.
    pub fn l1(lambda: f64) -> Self {
        Self {
            penalty: Penalty::L1(lambda),
            ..Self::default()
        }
    }

    /// An L2-regularized learner with penalty strength `lambda`.
    pub fn l2(lambda: f64) -> Self {
        Self {
            penalty: Penalty::L2(lambda),
            ..Self::default()
        }
    }

    /// Sets the number of epochs.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the shuffle seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A fitted multinomial logistic-regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionModel {
    feats: Vec<usize>,
    /// One-hot offset of each selected feature (parallel to `feats`).
    offsets: Vec<usize>,
    n_classes: usize,
    /// Total one-hot width.
    dim: usize,
    /// Weights laid out `[class][dim]`, flattened.
    weights: Vec<f64>,
    /// Per-class intercept.
    bias: Vec<f64>,
}

impl Classifier for LogisticRegression {
    type Fitted = LogisticRegressionModel;

    /// The SGD loop reads codes through [`CodeSource::code`], so the
    /// flat [`crate::Dataset`] of a materialized join and a factorized view
    /// resolving codes through FK indirection yield bitwise-identical
    /// weights for the same seed and epochs.
    fn fit<S: CodeSource + Sync + ?Sized>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> LogisticRegressionModel {
        self.fit_warm(src, rows, feats, None)
    }
}

impl LogisticRegression {
    /// [`Classifier::fit`] with an optional **warm start**: weight
    /// blocks of features shared with `warm` (matched by dataset
    /// position) and the intercepts are copied in before SGD runs, so a
    /// candidate fit during greedy selection starts from the parent
    /// subset's solution instead of from zero. With `warm = None` this is
    /// exactly `fit` — same seed, same shuffle, same trajectory.
    pub fn fit_warm<S: CodeSource + ?Sized>(
        &self,
        data: &S,
        rows: &[usize],
        feats: &[usize],
        warm: Option<&LogisticRegressionModel>,
    ) -> LogisticRegressionModel {
        let _span = hamlet_obs::span!("ml.logreg_fit", rows = rows.len(), feats = feats.len());
        hamlet_obs::counter_add!("hamlet_logreg_fits_total", 1);
        let n_classes = data.n_classes();
        let mut offsets = Vec::with_capacity(feats.len());
        let mut dim = 0usize;
        for &f in feats {
            offsets.push(dim);
            dim += data.feature_domain_size(f);
        }

        let mut weights = vec![0f64; n_classes * dim];
        let mut bias = vec![0f64; n_classes];
        // Seed from the parent model where shapes agree; features the
        // parent never saw keep their zero block.
        if let Some(w) = warm.filter(|w| w.n_classes == n_classes) {
            hamlet_obs::counter_add!("hamlet_logreg_warm_starts_total", 1);
            bias.copy_from_slice(&w.bias);
            for (i, &f) in feats.iter().enumerate() {
                let Some(j) = w.feats.iter().position(|&wf| wf == f) else {
                    continue;
                };
                let d = data.feature_domain_size(f);
                if w.offsets[j] + d > w.dim {
                    continue; // fitted over a different layout; skip block
                }
                for y in 0..n_classes {
                    let src = y * w.dim + w.offsets[j];
                    let dst = y * dim + offsets[i];
                    weights[dst..dst + d].copy_from_slice(&w.weights[src..src + d]);
                }
            }
        }
        // Lazy-regularization bookkeeping: global step at which each
        // coordinate was last regularized (shared across classes per
        // column for cache friendliness we track per (class, column)).
        let mut last_touch = vec![0u64; n_classes * dim];
        // Cumulative L1 budget (Tsuruoka): total penalty per unit weight
        // that should have been applied up to step t.
        let mut order: Vec<usize> = rows.to_vec();
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut step: u64 = 0;
        let mut scores = vec![0f64; n_classes];
        for epoch in 0..self.epochs {
            let lr = self.learning_rate / (1.0 + epoch as f64);
            order.shuffle(&mut rng);
            for &r in &order {
                step += 1;
                // Gather active columns.
                // scores = b + sum_f W[., off_f + v_f]
                scores.copy_from_slice(&bias);
                for (i, &f) in feats.iter().enumerate() {
                    let col = offsets[i] + data.code(f, r) as usize;
                    // Lazily regularize the active coordinates first.
                    #[allow(clippy::needless_range_loop)]
                    // y indexes weights and scores in lockstep
                    for y in 0..n_classes {
                        let w_idx = y * dim + col;
                        let elapsed = step - last_touch[w_idx];
                        if elapsed > 0 {
                            weights[w_idx] =
                                apply_penalty(weights[w_idx], self.penalty, lr, elapsed);
                            last_touch[w_idx] = step;
                        }
                        scores[y] += weights[w_idx];
                    }
                }
                softmax_in_place(&mut scores);
                let y_true = data.label(r) as usize;
                #[allow(clippy::needless_range_loop)] // y indexes three arrays in lockstep
                for y in 0..n_classes {
                    let g = scores[y] - if y == y_true { 1.0 } else { 0.0 };
                    if g == 0.0 {
                        continue;
                    }
                    bias[y] -= lr * g;
                    for (i, &f) in feats.iter().enumerate() {
                        let col = offsets[i] + data.code(f, r) as usize;
                        weights[y * dim + col] -= lr * g;
                    }
                }
            }
        }
        // Flush pending regularization on every coordinate.
        let lr_final = self.learning_rate / (1.0 + self.epochs.saturating_sub(1) as f64);
        for (w, lt) in weights.iter_mut().zip(&last_touch) {
            let elapsed = step - lt;
            if elapsed > 0 {
                *w = apply_penalty(*w, self.penalty, lr_final, elapsed);
            }
        }

        LogisticRegressionModel {
            feats: feats.to_vec(),
            offsets,
            n_classes,
            dim,
            weights,
            bias,
        }
    }
}

/// Applies `elapsed` steps of lazy regularization to one coordinate.
fn apply_penalty(w: f64, penalty: Penalty, lr: f64, elapsed: u64) -> f64 {
    match penalty {
        Penalty::None => w,
        Penalty::L2(lambda) => {
            let decay = (1.0 - lr * lambda).max(0.0);
            w * decay.powi(elapsed.min(1_000_000) as i32)
        }
        Penalty::L1(lambda) => {
            let budget = lr * lambda * elapsed as f64;
            if w > 0.0 {
                (w - budget).max(0.0)
            } else {
                (w + budget).min(0.0)
            }
        }
    }
}

/// Numerically stable in-place softmax.
fn softmax_in_place(scores: &mut [f64]) {
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut z = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        z += *s;
    }
    for s in scores.iter_mut() {
        *s /= z;
    }
}

impl LogisticRegressionModel {
    /// Assembles a model from raw parts — the import half of model
    /// serialization (`hamlet-serve` artifacts). Callers must pre-validate
    /// shapes; mismatched lengths are a programming error.
    pub fn from_parts(
        feats: Vec<usize>,
        offsets: Vec<usize>,
        n_classes: usize,
        dim: usize,
        weights: Vec<f64>,
        bias: Vec<f64>,
    ) -> Self {
        assert_eq!(offsets.len(), feats.len());
        assert_eq!(weights.len(), n_classes * dim);
        assert_eq!(bias.len(), n_classes);
        Self {
            feats,
            offsets,
            n_classes,
            dim,
            weights,
            bias,
        }
    }

    /// One-hot offset of each selected feature (parallel to
    /// [`Model::features`]).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Number of classes the model was fitted on.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total one-hot width of the weight matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Class scores (pre-softmax) for one row.
    pub fn decision_scores<S: CodeSource>(&self, data: &S, row: usize) -> Vec<f64> {
        let mut scores = vec![0.0; self.bias.len()];
        self.decision_scores_into(data, row, &mut scores);
        scores
    }

    /// [`LogisticRegressionModel::decision_scores`] written into
    /// `scores` (one slot per class) instead of a fresh vector.
    pub fn decision_scores_into<S: CodeSource>(&self, data: &S, row: usize, scores: &mut [f64]) {
        scores.copy_from_slice(&self.bias);
        for (i, &f) in self.feats.iter().enumerate() {
            let col = self.offsets[i] + data.code(f, row) as usize;
            for (y, s) in scores.iter_mut().enumerate() {
                *s += self.weights[y * self.dim + col];
            }
        }
    }

    /// Class probabilities for one row.
    pub fn predict_proba<S: CodeSource>(&self, data: &S, row: usize) -> Vec<f64> {
        let mut s = self.decision_scores(data, row);
        softmax_in_place(&mut s);
        s
    }

    /// Raw weight matrix, laid out `[class][one-hot column]` flattened.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Per-class intercepts.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// L2 norm of the weight block belonging to the `i`-th *selected*
    /// feature (position into [`Model::features`]).
    pub fn feature_weight_norm<S: CodeSource>(&self, data: &S, i: usize) -> f64 {
        let f = self.feats[i];
        let d = data.feature_domain_size(f);
        let off = self.offsets[i];
        let mut sq = 0.0;
        for y in 0..self.n_classes {
            for v in 0..d {
                let w = self.weights[y * self.dim + off + v];
                sq += w * w;
            }
        }
        sq.sqrt()
    }

    /// Practical tolerance below which a feature's weight-block norm
    /// counts as "vanished": truncated-gradient L1 leaves residuals of
    /// order `lr * lambda` rather than exact zeros.
    pub const DROP_TOLERANCE: f64 = 1e-2;

    /// Features whose entire weight block was driven (essentially) to
    /// zero by regularization — the embedded method's notion of a
    /// *dropped* feature. Returns positions into the dataset.
    pub fn surviving_features<S: CodeSource>(&self, data: &S, tol: f64) -> Vec<usize> {
        self.feats
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.feature_weight_norm(data, i) > tol)
            .map(|(_, &f)| f)
            .collect()
    }
}

impl Model for LogisticRegressionModel {
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32 {
        let scores = self.decision_scores(data, row);
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

    fn deterministic_data(n: usize) -> Dataset {
        // y = x0 XOR-free: y = x0; x1 independent noise (alternating).
        let x0: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let x1: Vec<u32> = (0..n as u32).map(|i| (i / 2) % 3).collect();
        let y = x0.clone();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 2,
                    codes: x0,
                },
                Feature {
                    name: "noise".into(),
                    domain_size: 3,
                    codes: x1,
                },
            ],
            y,
            2,
        )
    }

    #[test]
    fn learns_separable_concept() {
        let d = deterministic_data(200);
        let rows: Vec<usize> = (0..200).collect();
        let m = LogisticRegression::default().fit(&d, &rows, &[0, 1]);
        assert_eq!(zero_one_error(&m, &d, &rows), 0.0);
    }

    #[test]
    fn multiclass_learns() {
        // y = x with 4 classes.
        let x: Vec<u32> = (0..400u32).map(|i| i % 4).collect();
        let d = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 4,
                codes: x.clone(),
            }],
            x,
            4,
        );
        let rows: Vec<usize> = (0..400).collect();
        let m = LogisticRegression::default().fit(&d, &rows, &[0]);
        assert_eq!(zero_one_error(&m, &d, &rows), 0.0);
    }

    #[test]
    fn l1_zeroes_noise_feature() {
        let d = deterministic_data(400);
        let rows: Vec<usize> = (0..400).collect();
        let m = LogisticRegression::l1(0.02)
            .with_epochs(20)
            .fit(&d, &rows, &[0, 1]);
        // Truncated-gradient L1 leaves O(lr * lambda) residuals rather than
        // exact zeros; the practical drop threshold reflects that.
        let surviving = m.surviving_features(&d, 0.01);
        assert!(
            m.feature_weight_norm(&d, 0) > 100.0 * m.feature_weight_norm(&d, 1),
            "informative feature should dominate the noise feature"
        );
        assert!(surviving.contains(&0), "informative feature was dropped");
        assert!(
            !surviving.contains(&1),
            "noise feature survived L1: norm = {}",
            m.feature_weight_norm(&d, 1)
        );
    }

    #[test]
    fn l2_shrinks_but_keeps_weights() {
        let d = deterministic_data(400);
        let rows: Vec<usize> = (0..400).collect();
        let plain = LogisticRegression::default().fit(&d, &rows, &[0]);
        let ridge = LogisticRegression::l2(0.05).fit(&d, &rows, &[0]);
        assert!(ridge.feature_weight_norm(&d, 0) < plain.feature_weight_norm(&d, 0));
        assert!(ridge.feature_weight_norm(&d, 0) > 0.0);
    }

    #[test]
    fn proba_sums_to_one() {
        let d = deterministic_data(50);
        let rows: Vec<usize> = (0..50).collect();
        let m = LogisticRegression::default().fit(&d, &rows, &[0, 1]);
        for r in 0..50 {
            let p = m.predict_proba(&d, r);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let d = deterministic_data(100);
        let rows: Vec<usize> = (0..100).collect();
        let m1 = LogisticRegression::default()
            .with_seed(5)
            .fit(&d, &rows, &[0, 1]);
        let m2 = LogisticRegression::default()
            .with_seed(5)
            .fit(&d, &rows, &[0, 1]);
        assert_eq!(m1.weights, m2.weights);
    }

    #[test]
    fn empty_feature_set_predicts_majority() {
        let d = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 2,
                codes: vec![0, 1, 0, 1, 0, 1],
            }],
            vec![1, 1, 1, 1, 0, 0],
            2,
        );
        let rows: Vec<usize> = (0..6).collect();
        let m = LogisticRegression::default().fit(&d, &rows, &[]);
        for r in 0..6 {
            assert_eq!(m.predict_row(&d, r), 1);
        }
    }

    #[test]
    fn warm_start_none_is_exactly_cold_start() {
        let d = deterministic_data(100);
        let rows: Vec<usize> = (0..100).collect();
        let lr = LogisticRegression::l1(0.01).with_seed(11);
        let cold = lr.fit(&d, &rows, &[0, 1]);
        let warm = lr.fit_warm(&d, &rows, &[0, 1], None);
        assert_eq!(cold, warm);
    }

    #[test]
    fn warm_start_converges_to_the_cold_start_predictions() {
        let d = deterministic_data(400);
        let rows: Vec<usize> = (0..400).collect();
        let lr = LogisticRegression::l2(0.05).with_seed(3);
        let parent = lr.fit(&d, &rows, &[0]);
        let warm = lr.fit_warm(&d, &rows, &[0, 1], Some(&parent));
        let cold = lr.fit(&d, &rows, &[0, 1]);
        for r in 0..400 {
            assert_eq!(warm.predict_row(&d, r), cold.predict_row(&d, r));
        }
        assert_eq!(zero_one_error(&warm, &d, &rows), 0.0);
    }

    #[test]
    fn warm_start_with_mismatched_classes_is_ignored() {
        let x: Vec<u32> = (0..200u32).map(|i| i % 4).collect();
        let four = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 4,
                codes: x.clone(),
            }],
            x,
            4,
        );
        let rows: Vec<usize> = (0..200).collect();
        let lr = LogisticRegression::default().with_seed(7);
        let parent = lr.fit(&four, &rows, &[0]);

        let two = deterministic_data(200);
        let cold = lr.fit(&two, &rows, &[0, 1]);
        let warm = lr.fit_warm(&two, &rows, &[0, 1], Some(&parent));
        assert_eq!(cold, warm, "a 4-class parent cannot seed a 2-class fit");
    }

    #[test]
    fn softmax_is_stable_for_large_scores() {
        let mut s = vec![1000.0, 1001.0];
        softmax_in_place(&mut s);
        assert!(s.iter().all(|x| x.is_finite()));
        assert!((s[0] + s[1] - 1.0).abs() < 1e-12);
        assert!(s[1] > s[0]);
    }
}
