//! Incremental (online) Naive Bayes.
//!
//! The paper's closed-domain assumption comes with *periodic model
//! revisions* (Sec 2.1): "analysts build models using only the movies
//! seen so far but revise their feature domains and update ML models
//! periodically to absorb movies added recently." Because Naive Bayes is
//! a counting model, the update is exact: absorb new batches into the
//! count tables and re-derive the model — no retraining from scratch.
//!
//! [`IncrementalNaiveBayes`] accumulates counts across batches (all
//! batches must share the feature layout) and produces a
//! [`NaiveBayesModel`]-equivalent at any point via [`IncrementalNaiveBayes::model`].

use crate::dataset::Dataset;
use crate::naive_bayes::{NaiveBayes, NaiveBayesModel};
use crate::source::{class_count_tables, class_histogram};

/// Accumulating Naive Bayes counts.
#[derive(Debug, Clone)]
pub struct IncrementalNaiveBayes {
    smoothing: f64,
    feats: Vec<usize>,
    domain_sizes: Vec<usize>,
    n_classes: usize,
    class_counts: Vec<u64>,
    /// Per selected feature: flattened `n_classes x domain_size` counts.
    cond_counts: Vec<Vec<u64>>,
}

impl IncrementalNaiveBayes {
    /// Starts an empty accumulator for the given feature subset of a
    /// dataset layout (names/domains fixed at construction).
    pub fn new(learner: &NaiveBayes, data: &Dataset, feats: &[usize]) -> Self {
        let n_classes = data.n_classes();
        let domain_sizes: Vec<usize> = feats.iter().map(|&f| data.feature(f).domain_size).collect();
        let cond_counts = domain_sizes
            .iter()
            .map(|&d| vec![0u64; n_classes * d])
            .collect();
        Self {
            smoothing: learner.smoothing,
            feats: feats.to_vec(),
            domain_sizes,
            n_classes,
            class_counts: vec![0; n_classes],
            cond_counts,
        }
    }

    /// Absorbs one batch of labeled rows.
    ///
    /// # Panics
    /// Panics if the batch's feature layout disagrees with the layout
    /// fixed at construction.
    pub fn absorb(&mut self, data: &Dataset, rows: &[usize]) {
        assert_eq!(data.n_classes(), self.n_classes, "class count changed");
        for (i, &f) in self.feats.iter().enumerate() {
            assert_eq!(
                data.feature(f).domain_size,
                self.domain_sizes[i],
                "feature '{}' domain changed between batches",
                data.feature(f).name
            );
        }
        let threads = hamlet_obs::env::resolved_threads();
        add_into(&mut self.class_counts, &class_histogram(data, rows));
        let tables = class_count_tables(data, &self.feats, rows, threads);
        for (acc, table) in self.cond_counts.iter_mut().zip(tables) {
            add_into(acc, &table);
        }
    }

    /// Total examples absorbed so far.
    pub fn seen(&self) -> u64 {
        self.class_counts.iter().sum()
    }

    /// Derives the current model. Equivalent to batch-fitting on the
    /// union of all absorbed rows (a unit test asserts this exactly).
    pub fn model(&self) -> NaiveBayesModel {
        NaiveBayesModel::from_counts(
            self.smoothing,
            &self.class_counts,
            &self.feats,
            self.domain_sizes.iter().copied().zip(&self.cond_counts),
        )
    }
}

/// `acc[i] += add[i]`: merges one batch's counts into the running ones.
fn add_into(acc: &mut [u64], add: &[u64]) {
    for (a, &k) in acc.iter_mut().zip(add) {
        *a += k;
    }
}

/// Convenience: batch-fit by absorbing once (used by the equivalence
/// test and by callers that want the incremental type everywhere).
pub fn fit_incremental(
    learner: &NaiveBayes,
    data: &Dataset,
    rows: &[usize],
    feats: &[usize],
) -> IncrementalNaiveBayes {
    let mut inc = IncrementalNaiveBayes::new(learner, data, feats);
    inc.absorb(data, rows);
    inc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::{Classifier, Model};
    use crate::dataset::Feature;

    fn data(n: usize, shift: u32) -> Dataset {
        let x: Vec<u32> = (0..n as u32).map(|i| (i + shift) % 3).collect();
        let y: Vec<u32> = x.iter().map(|&v| u32::from(v == 1)).collect();
        Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 3,
                codes: x,
            }],
            y,
            2,
        )
    }

    #[test]
    fn incremental_equals_batch() {
        let d = data(300, 0);
        let rows: Vec<usize> = (0..300).collect();
        let learner = NaiveBayes::default();

        let batch = learner.fit(&d, &rows, &[0]);
        let mut inc = IncrementalNaiveBayes::new(&learner, &d, &[0]);
        inc.absorb(&d, &rows[..100]);
        inc.absorb(&d, &rows[100..250]);
        inc.absorb(&d, &rows[250..]);
        assert_eq!(inc.seen(), 300);
        assert_eq!(inc.model(), batch);
    }

    #[test]
    fn absorbing_new_batches_improves_coverage() {
        let learner = NaiveBayes::default();
        let d1 = data(30, 0);
        let rows1: Vec<usize> = (0..30).collect();
        let mut inc = fit_incremental(&learner, &d1, &rows1, &[0]);
        let before = inc.seen();
        let d2 = data(300, 1);
        let rows2: Vec<usize> = (0..300).collect();
        inc.absorb(&d2, &rows2);
        assert_eq!(inc.seen(), before + 300);
        // The updated model still classifies the concept perfectly.
        let m = inc.model();
        let errs = rows2
            .iter()
            .filter(|&&r| m.predict_row(&d2, r) != d2.labels()[r])
            .count();
        assert_eq!(errs, 0);
    }

    #[test]
    #[should_panic(expected = "domain changed")]
    fn layout_change_rejected() {
        let learner = NaiveBayes::default();
        let d1 = data(10, 0);
        let mut inc = IncrementalNaiveBayes::new(&learner, &d1, &[0]);
        let d2 = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 4, // widened!
                codes: vec![3, 0],
            }],
            vec![0, 1],
            2,
        );
        inc.absorb(&d2, &[0, 1]);
    }

    #[test]
    fn empty_accumulator_predicts_uniformly() {
        let learner = NaiveBayes::default();
        let d = data(10, 0);
        let inc = IncrementalNaiveBayes::new(&learner, &d, &[0]);
        let m = inc.model();
        let p = m.predict_proba(&d, 0);
        assert!((p[0] - 0.5).abs() < 1e-12, "smoothing-only prior: {p:?}");
    }
}
