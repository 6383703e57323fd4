//! Classifier traits.
//!
//! A [`Classifier`] is a *learner configuration* (hyper-parameters); its
//! [`Classifier::fit`] produces a [`Model`]. Both operate on row and
//! feature index sets over any [`CodeSource`] — a materialized
//! [`crate::Dataset`] or a factorized view that reads joined columns
//! through the FK — so training a model on a feature subset (as greedy
//! feature selection does thousands of times) copies nothing, and where
//! the codes come from never changes the model.

use crate::source::CodeSource;

/// A fitted model that predicts a class for any row of a dataset with the
/// same feature layout it was trained on.
///
/// Prediction is generic over [`CodeSource`], so a model fitted on a
/// materialized [`crate::Dataset`] can score rows of a factorized view
/// with the same logical layout (and vice versa).
pub trait Model {
    /// Predicts the class of one row.
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32;

    /// Predicts the classes of many rows.
    fn predict<S: CodeSource>(&self, data: &S, rows: &[usize]) -> Vec<u32> {
        rows.iter().map(|&r| self.predict_row(data, r)).collect()
    }

    /// The feature subset this model uses (positions into the dataset).
    fn features(&self) -> &[usize];
}

/// A learner: hyper-parameters plus a fit procedure.
pub trait Classifier {
    /// The model type this learner produces.
    type Fitted: Model;

    /// Fits a model on `rows` of `src`, using only the feature positions
    /// in `feats`. An empty `feats` must yield a majority-class
    /// predictor (the empty subset is the starting point of forward
    /// selection). Two sources presenting the same codes and labels —
    /// a materialized join and a factorized view of it — yield equal
    /// models.
    fn fit<S: CodeSource + Sync + ?Sized>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> Self::Fitted;
}

/// Zero-one error of `model` on `rows` (fraction misclassified).
pub fn zero_one_error<M: Model, S: CodeSource>(model: &M, data: &S, rows: &[usize]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let wrong = rows
        .iter()
        .filter(|&&r| model.predict_row(data, r) != data.label(r))
        .count();
    wrong as f64 / rows.len() as f64
}

/// Root-mean-squared error of `model` on `rows`, treating class codes as
/// ordinal values — the paper's metric for multi-class ordinal targets
/// (star ratings, sales levels).
pub fn rmse<M: Model, S: CodeSource>(model: &M, data: &S, rows: &[usize]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let sq_sum: f64 = rows
        .iter()
        .map(|&r| {
            let d = model.predict_row(data, r) as f64 - data.label(r) as f64;
            d * d
        })
        .sum();
    (sq_sum / rows.len() as f64).sqrt()
}

/// The error metric appropriate for a dataset per the paper's convention:
/// zero-one for binary targets, RMSE for multi-class ordinal targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorMetric {
    /// Fraction of misclassified examples.
    ZeroOne,
    /// Root mean squared error on ordinal class codes.
    Rmse,
}

impl ErrorMetric {
    /// Chooses the paper's metric for a target with `n_classes` classes.
    pub fn for_classes(n_classes: usize) -> Self {
        if n_classes <= 2 {
            Self::ZeroOne
        } else {
            Self::Rmse
        }
    }

    /// Evaluates the metric.
    pub fn eval<M: Model, S: CodeSource>(self, model: &M, data: &S, rows: &[usize]) -> f64 {
        match self {
            Self::ZeroOne => zero_one_error(model, data, rows),
            Self::Rmse => rmse(model, data, rows),
        }
    }

    /// Metric name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Self::ZeroOne => "Zero-one",
            Self::Rmse => "RMSE",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Feature};

    /// A constant-prediction stub for metric tests.
    struct Const(u32);
    impl Model for Const {
        fn predict_row<S: CodeSource>(&self, _d: &S, _r: usize) -> u32 {
            self.0
        }
        fn features(&self) -> &[usize] {
            &[]
        }
    }

    fn data() -> Dataset {
        Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 2,
                codes: vec![0, 1, 0, 1],
            }],
            vec![0, 1, 2, 3],
            4,
        )
    }

    #[test]
    fn zero_one_counts_mismatches() {
        let d = data();
        assert_eq!(zero_one_error(&Const(0), &d, &[0, 1, 2, 3]), 0.75);
        assert_eq!(zero_one_error(&Const(0), &d, &[0]), 0.0);
        assert_eq!(zero_one_error(&Const(0), &d, &[]), 0.0);
    }

    #[test]
    fn rmse_is_root_mean_square() {
        let d = data();
        // predictions 1 vs labels 0,1,2,3 -> errors 1,0,1,2 -> mse 6/4
        let e = rmse(&Const(1), &d, &[0, 1, 2, 3]);
        assert!((e - (1.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn metric_selection_follows_paper() {
        assert_eq!(ErrorMetric::for_classes(2), ErrorMetric::ZeroOne);
        assert_eq!(ErrorMetric::for_classes(5), ErrorMetric::Rmse);
        assert_eq!(ErrorMetric::ZeroOne.name(), "Zero-one");
        assert_eq!(ErrorMetric::Rmse.name(), "RMSE");
    }

    #[test]
    fn metric_eval_dispatches() {
        let d = data();
        let rows = [0usize, 1, 2, 3];
        assert_eq!(
            ErrorMetric::ZeroOne.eval(&Const(0), &d, &rows),
            zero_one_error(&Const(0), &d, &rows)
        );
        assert_eq!(
            ErrorMetric::Rmse.eval(&Const(1), &d, &rows),
            rmse(&Const(1), &d, &rows)
        );
    }
}
