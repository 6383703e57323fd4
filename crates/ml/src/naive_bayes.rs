//! Naive Bayes for nominal features.
//!
//! The paper's running classifier (Sec 2.1): "Naive Bayes is a popular
//! classifier ... easy to understand and use; it does not require expensive
//! iterative optimization". Conditional probabilities use Laplace
//! smoothing, the "standard practice" the paper adopts to handle RID values
//! absent from the training FK column (Sec 2.1, footnote 2).

use crate::classifier::{Classifier, ErrorMetric, Model};
use crate::source::{class_count_tables, class_histogram, is_contiguous, CodeSource, Column};

/// Naive Bayes learner configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayes {
    /// Additive (Laplace) smoothing pseudo-count; 1.0 is the classic
    /// choice and the default.
    pub smoothing: f64,
}

impl Default for NaiveBayes {
    fn default() -> Self {
        Self { smoothing: 1.0 }
    }
}

impl NaiveBayes {
    /// A learner with the given smoothing pseudo-count.
    pub fn new(smoothing: f64) -> Self {
        assert!(smoothing > 0.0, "smoothing must be positive");
        Self { smoothing }
    }
}

/// A fitted Naive Bayes model.
///
/// Stores log-priors and per-feature log-conditional tables
/// `log P(F = v | Y = y)` laid out as `[feature][y * |D_F| + v]`.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBayesModel {
    feats: Vec<usize>,
    n_classes: usize,
    log_prior: Vec<f64>,
    /// Per selected feature: flattened `n_classes x domain_size` table.
    log_cond: Vec<Vec<f64>>,
    /// Domain size per selected feature (parallel to `feats`).
    domain_sizes: Vec<usize>,
}

impl Classifier for NaiveBayes {
    type Fitted = NaiveBayesModel;

    /// One count table per feature from [`class_count_tables`], smoothed
    /// by [`NaiveBayesModel::from_counts`]. A factorized view counts its
    /// foreign features through the FK without a join, and the integer
    /// tables — hence the model — are exactly those of the materialized
    /// dataset.
    fn fit<S: CodeSource + Sync + ?Sized>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> NaiveBayesModel {
        let _span = hamlet_obs::span!("ml.nb_fit", rows = rows.len(), feats = feats.len());
        hamlet_obs::counter_add!("hamlet_nb_fits_total", 1);
        let threads = hamlet_obs::env::resolved_threads();
        NaiveBayesModel::from_counts(
            self.smoothing,
            &class_histogram(src, rows),
            feats,
            feats
                .iter()
                .map(|&f| src.feature_domain_size(f))
                .zip(class_count_tables(src, feats, rows, threads)),
        )
    }
}

/// The one Laplace-smoothing recipe: `counts` is a `rows × width` table
/// with `row_totals[y]` observations in row `y`, and entry `(y, v)`
/// becomes `ln((counts[y * width + v] + α) / (row_totals[y] + α·width))`.
/// Priors are the one-row case (`row_totals = [n]`, `width = |D_Y|`),
/// conditionals the `|D_Y|`-row case (`row_totals` = the class
/// histogram). Every model that smooths counts calls this, so equal
/// counts give bit-for-bit equal models on every path.
pub fn smoothed_log_table(
    counts: &[u64],
    row_totals: &[u64],
    width: usize,
    alpha: f64,
) -> Vec<f64> {
    let mut table = Vec::with_capacity(counts.len());
    for (y, &total) in row_totals.iter().enumerate() {
        let denom = total as f64 + alpha * width as f64;
        table.extend(
            counts[y * width..(y + 1) * width]
                .iter()
                .map(|&k| ((k as f64 + alpha) / denom).ln()),
        );
    }
    table
}

/// `[y * d + v]` → `[v * c + y]`: the same entries, laid out so one
/// row's class scores read `c` contiguous floats.
pub(crate) fn transposed(table: &[f64], c: usize, d: usize) -> Vec<f64> {
    let mut t = vec![0f64; d * c];
    for y in 0..c {
        for v in 0..d {
            t[v * c + y] = table[y * d + v];
        }
    }
    t
}

impl NaiveBayesModel {
    /// Smooths count tables into a model: `class_counts[y]` training
    /// rows per class, and per selected feature its domain size and
    /// class-conditional table `[y * d + v]` (as
    /// [`crate::class_count_table`] lays it out). Every Naive Bayes
    /// path — direct, factorized, [`crate::SuffStats`] assembly,
    /// [`crate::IncrementalNaiveBayes`] — ends here.
    pub fn from_counts<T: AsRef<[u64]>>(
        smoothing: f64,
        class_counts: &[u64],
        feats: &[usize],
        tables: impl IntoIterator<Item = (usize, T)>,
    ) -> Self {
        let n_classes = class_counts.len();
        let n: u64 = class_counts.iter().sum();
        let (domain_sizes, log_cond) = tables
            .into_iter()
            .map(|(d, counts)| {
                (
                    d,
                    smoothed_log_table(counts.as_ref(), class_counts, d, smoothing),
                )
            })
            .unzip();
        Self::from_parts(
            feats.to_vec(),
            n_classes,
            smoothed_log_table(class_counts, &[n], n_classes, smoothing),
            log_cond,
            domain_sizes,
        )
    }

    /// Assembles a model from raw parts — the import half of model
    /// serialization (`hamlet-serve` artifacts).
    pub fn from_parts(
        feats: Vec<usize>,
        n_classes: usize,
        log_prior: Vec<f64>,
        log_cond: Vec<Vec<f64>>,
        domain_sizes: Vec<usize>,
    ) -> Self {
        assert_eq!(log_prior.len(), n_classes);
        assert_eq!(log_cond.len(), feats.len());
        assert_eq!(domain_sizes.len(), feats.len());
        Self {
            feats,
            n_classes,
            log_prior,
            log_cond,
            domain_sizes,
        }
    }

    /// Unnormalized log-posterior `log P(y) + sum_f log P(x_f | y)` for
    /// each class on one row.
    pub fn log_posterior<S: CodeSource>(&self, data: &S, row: usize) -> Vec<f64> {
        let mut scores = vec![0.0; self.log_prior.len()];
        self.log_posterior_into(data, row, &mut scores);
        scores
    }

    /// [`NaiveBayesModel::log_posterior`] written into `scores` (one
    /// slot per class) instead of a fresh vector.
    pub fn log_posterior_into<S: CodeSource>(&self, data: &S, row: usize, scores: &mut [f64]) {
        scores.copy_from_slice(&self.log_prior);
        for (i, &f) in self.feats.iter().enumerate() {
            let v = data.code(f, row) as usize;
            let d = self.domain_sizes[i];
            let table = &self.log_cond[i];
            for (y, s) in scores.iter_mut().enumerate() {
                *s += table[y * d + v];
            }
        }
    }

    /// Log-priors `log P(y)` per class.
    pub fn log_prior(&self) -> &[f64] {
        &self.log_prior
    }

    /// Number of classes the model was fitted on.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Domain size per selected feature (parallel to [`Model::features`]).
    pub fn domain_sizes(&self) -> &[usize] {
        &self.domain_sizes
    }

    /// Log-conditional table of the `i`-th selected feature, flattened
    /// `[y * |D_F| + v]`.
    pub fn log_cond(&self, i: usize) -> &[f64] {
        &self.log_cond[i]
    }

    /// Normalized class probabilities on one row (softmax of the
    /// log-posterior).
    pub fn predict_proba<S: CodeSource>(&self, data: &S, row: usize) -> Vec<f64> {
        let scores = self.log_posterior(data, row);
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / z).collect()
    }

    /// Validation error on `rows`, **bitwise identical** to
    /// `metric.eval(self, data, rows)` but without a per-row allocation
    /// or per-cell column dispatch. The float operations and their
    /// order are exactly those of [`Model::predict_row`] composed with
    /// [`crate::classifier::zero_one_error`] / [`crate::classifier::rmse`],
    /// which is what lets the candidate sweeps in `hamlet-fs` score
    /// through this path and still select the same subsets as the
    /// row-at-a-time reference, and what lets an export score its
    /// holdout on a factorized view.
    ///
    /// Rows are scored in blocks of `EVAL_BLOCK`. Each feature's
    /// [`Column`] is resolved once; per block it becomes one `&[u32]`
    /// of the block's codes: a [`Column::Rows`] slice when the block is
    /// a contiguous row range, otherwise a gather into a reused buffer
    /// (through the FK for a [`Column::Via`] feature). The inner loop
    /// then reads plain code slices.
    pub fn batch_error<S: CodeSource + ?Sized>(
        &self,
        data: &S,
        rows: &[usize],
        metric: ErrorMetric,
    ) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        let cols: Vec<Column<'_>> = self.feats.iter().map(|&f| data.column(f)).collect();
        let c = self.n_classes;
        // Transpose each log-conditional table from `[y * d + v]` to
        // `[v * c + y]` once, so scoring a row reads `c` contiguous
        // floats per feature instead of striding by the domain size.
        // The per-class addends and their order are unchanged.
        let t_tables: Vec<Vec<f64>> = self
            .log_cond
            .iter()
            .zip(&self.domain_sizes)
            .map(|(table, &d)| transposed(table, c, d))
            .collect();
        let mut gathered: Vec<Vec<u32>> = vec![Vec::new(); cols.len()];
        let mut scores = vec![0f64; c];
        let mut wrong = 0usize;
        let mut sq_sum = 0.0;
        for block in rows.chunks(EVAL_BLOCK) {
            let first = block[0];
            let contiguous = is_contiguous(block);
            for (col, buf) in cols.iter().zip(&mut gathered) {
                buf.clear();
                match *col {
                    Column::Rows(_) if contiguous => {}
                    Column::Rows(codes) => buf.extend(block.iter().map(|&r| codes[r])),
                    via => buf.extend(block.iter().map(|&r| via.code(r))),
                }
            }
            let block_cols: Vec<&[u32]> = cols
                .iter()
                .zip(&gathered)
                .map(|(col, buf)| match *col {
                    Column::Rows(codes) if contiguous => &codes[first..first + block.len()],
                    _ => buf.as_slice(),
                })
                .collect();
            for (i, &r) in block.iter().enumerate() {
                scores.copy_from_slice(&self.log_prior);
                for (col, tt) in block_cols.iter().zip(&t_tables) {
                    let v = col[i] as usize;
                    let addends = &tt[v * c..v * c + c];
                    for (s, &l) in scores.iter_mut().zip(addends) {
                        *s += l;
                    }
                }
                let best = argmax(&scores);
                let label = data.label(r);
                match metric {
                    ErrorMetric::ZeroOne => wrong += usize::from(best != label),
                    ErrorMetric::Rmse => {
                        let diff = best as f64 - label as f64;
                        sq_sum += diff * diff;
                    }
                }
            }
        }
        match metric {
            ErrorMetric::ZeroOne => wrong as f64 / rows.len() as f64,
            ErrorMetric::Rmse => (sq_sum / rows.len() as f64).sqrt(),
        }
    }
}

/// Rows per block of [`NaiveBayesModel::batch_error`]: enough to amortize
/// resolving each column, few enough that a block's gathered codes stay
/// in cache.
const EVAL_BLOCK: usize = 256;

/// Index of the strictly greatest score: ties go to the lowest class,
/// and a NaN never wins a comparison (so it is picked only as class 0).
/// The one argmax of every Naive Bayes scoring path (`predict_row`,
/// `batch_error`, the subset sweeps of [`crate::SuffStats`]), so they
/// all predict alike.
#[inline]
pub(crate) fn argmax(scores: &[f64]) -> u32 {
    // Branch-free: a mispredicted compare per class would otherwise
    // dominate the sweeps' scoring loop.
    let mut best = 0usize;
    let mut best_val = scores[0];
    for (y, &s) in scores.iter().enumerate().skip(1) {
        let better = s > best_val;
        best = if better { y } else { best };
        best_val = if better { s } else { best_val };
    }
    best as u32
}

impl Model for NaiveBayesModel {
    /// Scores into a stack buffer for up to 16 classes (a heap one
    /// beyond), with the additions of [`NaiveBayesModel::log_posterior`].
    /// Deterministic tie-break: lowest class wins.
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32 {
        let c = self.log_prior.len();
        let mut stack = [0f64; 16];
        let mut heap = Vec::new();
        let scores = if c <= stack.len() {
            &mut stack[..c]
        } else {
            heap.resize(c, 0.0);
            &mut heap[..]
        };
        self.log_posterior_into(data, row, scores);
        argmax(scores)
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

    fn xor_free_data() -> Dataset {
        // y = x0 (perfectly predictable from feature 0); x1 is noise.
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 2,
                    codes: vec![0, 0, 1, 1, 0, 1, 0, 1],
                },
                Feature {
                    name: "noise".into(),
                    domain_size: 2,
                    codes: vec![0, 1, 0, 1, 1, 0, 0, 1],
                },
            ],
            vec![0, 0, 1, 1, 0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn learns_deterministic_concept() {
        let d = xor_free_data();
        let rows: Vec<usize> = (0..8).collect();
        let m = NaiveBayes::default().fit(&d, &rows, &[0, 1]);
        assert_eq!(zero_one_error(&m, &d, &rows), 0.0);
    }

    #[test]
    fn empty_feature_set_predicts_majority() {
        let d = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 2,
                codes: vec![0, 1, 0, 1, 0],
            }],
            vec![1, 1, 1, 0, 0],
            2,
        );
        let rows: Vec<usize> = (0..5).collect();
        let m = NaiveBayes::default().fit(&d, &rows, &[]);
        for r in 0..5 {
            assert_eq!(m.predict_row(&d, r), 1);
        }
    }

    #[test]
    fn matches_hand_computation() {
        // 4 examples, 1 boolean feature, alpha = 1.
        // y: [0,0,0,1]; x: [0,1,0,1]
        // P(y=0) = (3+1)/(4+2) = 2/3 ; P(y=1) = (1+1)/6 = 1/3
        // P(x=1|y=0) = (1+1)/(3+2) = 2/5 ; P(x=1|y=1) = (1+1)/(1+2) = 2/3
        let d = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 2,
                codes: vec![0, 1, 0, 1],
            }],
            vec![0, 0, 0, 1],
            2,
        );
        let m = NaiveBayes::default().fit(&d, &[0, 1, 2, 3], &[0]);
        let p = m.predict_proba(&d, 1); // x = 1
        let p0 = (2.0 / 3.0) * (2.0 / 5.0);
        let p1 = (1.0 / 3.0) * (2.0 / 3.0);
        assert!((p[0] - p0 / (p0 + p1)).abs() < 1e-12);
        assert!((p[1] - p1 / (p0 + p1)).abs() < 1e-12);
    }

    #[test]
    fn smoothing_handles_unseen_values() {
        // Train only sees code 0; predicting a row with code 2 must not
        // panic or produce NaN.
        let d = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 3,
                codes: vec![0, 0, 2],
            }],
            vec![0, 1, 0],
            2,
        );
        let m = NaiveBayes::default().fit(&d, &[0, 1], &[0]);
        let p = m.predict_proba(&d, 2);
        assert!(p.iter().all(|x| x.is_finite() && *x > 0.0));
    }

    #[test]
    fn proba_sums_to_one() {
        let d = xor_free_data();
        let rows: Vec<usize> = (0..8).collect();
        let m = NaiveBayes::default().fit(&d, &rows, &[0, 1]);
        for r in 0..8 {
            let p = m.predict_proba(&d, r);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn feature_subset_is_respected() {
        let d = xor_free_data();
        let rows: Vec<usize> = (0..8).collect();
        // Training on the noise feature alone must not reach zero error.
        let m = NaiveBayes::default().fit(&d, &rows, &[1]);
        assert!(zero_one_error(&m, &d, &rows) > 0.0);
        assert_eq!(m.features(), &[1]);
    }

    #[test]
    #[should_panic(expected = "smoothing must be positive")]
    fn zero_smoothing_rejected() {
        let _ = NaiveBayes::new(0.0);
    }
}
