//! Property-based tests for the sufficient-statistics engine: the cached
//! parallel selection paths must be indistinguishable from the seed
//! serial implementations — bit-for-bit for Naive Bayes, within the
//! coefficient-drop tolerance for logistic regression warm starts.

use proptest::prelude::*;

use hamlet::fs::{reference, FilterScore, Method, SelectionContext, SweepEngine};
use hamlet::ml::classifier::{Classifier, ErrorMetric, Model};
use hamlet::ml::dataset::{Dataset, Feature};
use hamlet::ml::logreg::LogisticRegression;
use hamlet::ml::naive_bayes::NaiveBayes;
use hamlet::ml::suffstats::{SuffStats, SweepFit};

/// Strategy: a random 3-feature nominal dataset with a train/validation
/// split over its rows.
fn labeled_data() -> impl Strategy<Value = (Dataset, Vec<usize>, Vec<usize>)> {
    (40usize..120).prop_flat_map(|n| {
        (
            proptest::collection::vec(0..3u32, n),
            proptest::collection::vec(0..4u32, n),
            proptest::collection::vec(0..2u32, n),
            proptest::collection::vec(0..2u32, n),
        )
            .prop_map(|(a, b, c, y)| {
                let n = y.len();
                let data = Dataset::new(
                    vec![
                        Feature {
                            name: "a".into(),
                            domain_size: 3,
                            codes: a,
                        },
                        Feature {
                            name: "b".into(),
                            domain_size: 4,
                            codes: b,
                        },
                        Feature {
                            name: "c".into(),
                            domain_size: 2,
                            codes: c,
                        },
                    ],
                    y,
                    2,
                );
                let split = n / 2;
                let train: Vec<usize> = (0..split).collect();
                let validation: Vec<usize> = (split..n).collect();
                (data, train, validation)
            })
    })
}

proptest! {
    /// (a) A Naive Bayes model assembled from cached count tables is
    /// bit-for-bit the model `fit` trains by scanning rows, for
    /// arbitrary data, training folds, feature subsets, and smoothing.
    #[test]
    fn suffstats_nb_assembly_matches_direct_fit(
        (data, train, _val) in labeled_data(),
        mask in 0u32..8,
        fold in 0usize..3,
        alpha_step in 1u32..5,
    ) {
        let feats: Vec<usize> = (0..3).filter(|i| mask & (1 << i) != 0).collect();
        // An arbitrary "fold": every third row, offset by `fold`.
        let fold_rows: Vec<usize> = train.iter().copied().filter(|r| r % 3 != fold).collect();
        prop_assume!(!fold_rows.is_empty());
        let nb = NaiveBayes::new(alpha_step as f64 * 0.5);
        let direct = nb.fit(&data, &fold_rows, &feats);
        let stats = SuffStats::new(&data, &fold_rows);
        let assembled = nb.fit_swept(&stats, &feats, None);
        prop_assert_eq!(direct, assembled);
    }

    /// (a, filters) Cached filter scores equal the row-scanning ones
    /// exactly for every feature.
    #[test]
    fn suffstats_filter_scores_match_direct_scores(
        (data, train, _val) in labeled_data(),
    ) {
        let stats = SuffStats::new(&data, &train);
        for score in [FilterScore::MutualInformation, FilterScore::InformationGainRatio] {
            for f in 0..data.n_features() {
                let direct = score.score(&data, &train, f);
                let cached = score.score_cached(&stats, f);
                prop_assert_eq!(
                    direct.to_bits(),
                    cached.to_bits(),
                    "{:?} on feature {}: {} vs {}", score, f, direct, cached
                );
            }
        }
    }

    /// (b) Every selection method returns the identical result — features,
    /// errors, trace, and `model_fits` — at 1, 2, and 8 workers, and all
    /// of them equal the seed serial implementation.
    #[test]
    fn selection_is_thread_count_invariant_and_matches_reference(
        (data, train, validation) in labeled_data(),
    ) {
        let nb = NaiveBayes::default();
        let ctx = SelectionContext {
            data: &data,
            train: &train,
            validation: &validation,
            classifier: &nb,
            metric: ErrorMetric::ZeroOne,
        };
        let candidates = [0usize, 1, 2];
        for method in Method::ALL {
            let serial = reference::run_method(method, &ctx, &candidates);
            for threads in [1usize, 2, 8] {
                let engine = SweepEngine::new(&ctx).with_threads(threads);
                let got = method.run_with(&engine, &candidates);
                prop_assert_eq!(
                    &got, &serial,
                    "{} diverged at {} threads", method.name(), threads
                );
            }
        }
        // Exhaustive search too (not part of `Method::ALL`).
        let serial = reference::exhaustive_selection(&ctx, &candidates);
        for threads in [1usize, 2, 8] {
            let engine = SweepEngine::new(&ctx).with_threads(threads);
            let got = engine.exhaustive(&candidates);
            prop_assert_eq!(&got, &serial, "exhaustive diverged at {} threads", threads);
        }
    }

    /// (c) A logistic-regression fit warm-started from the parent
    /// subset's weights converges to the cold-start fit: identical
    /// predictions on a learnable concept, and weights within the
    /// coefficient-drop tolerance the embedded methods already use.
    #[test]
    fn logreg_warm_start_converges_to_cold_start(
        n in 100usize..240,
        seed in 0u64..500,
        lambda_step in 1u32..4,
    ) {
        let x0: Vec<u32> = (0..n as u32)
            .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed as u32) >> 7) % 3)
            .collect();
        let x1: Vec<u32> = (0..n as u32)
            .map(|i| (i.wrapping_mul(40503).wrapping_add(seed as u32 ^ 0xABCD) >> 3) % 4)
            .collect();
        let y: Vec<u32> = x0.iter().map(|&v| v % 2).collect();
        let data = Dataset::new(
            vec![
                Feature { name: "x0".into(), domain_size: 3, codes: x0 },
                Feature { name: "x1".into(), domain_size: 4, codes: x1 },
            ],
            y,
            2,
        );
        let rows: Vec<usize> = (0..n).collect();
        let lr = LogisticRegression::l2(lambda_step as f64 * 0.02).with_seed(seed);

        let parent = lr.fit(&data, &rows, &[0]);
        let cold = lr.fit(&data, &rows, &[0, 1]);
        let warm = lr.fit_warm(&data, &rows, &[0, 1], Some(&parent));

        // Same predictions everywhere on the learnable concept...
        for r in 0..n {
            prop_assert_eq!(cold.predict_row(&data, r), warm.predict_row(&data, r));
        }
        // ...and both fits agree on which coefficient blocks survive at
        // the tolerance the embedded methods already use.
        let tol = hamlet::ml::logreg::LogisticRegressionModel::DROP_TOLERANCE;
        prop_assert_eq!(
            cold.surviving_features(&data, tol),
            warm.surviving_features(&data, tol)
        );
    }
}
