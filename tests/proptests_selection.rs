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

/// Rows per block of `SuffStats::nb_subset_errors` (its private
/// `SWEEP_BLOCK`): the row-list lengths below straddle it.
const SWEEP_BLOCK: usize = 2048;

/// A splitmix-style hash: reproducible pseudo-random draws from a seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x6A09_E667_F3BC_C909);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher-Yates over `items` driven by [`mix`].
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, mix(seed, i as u64) as usize % (i + 1));
    }
}

/// A subset family of one of the sweeps' shapes over `k` features, each
/// subset ascending; the list itself is shuffled and holds a duplicate.
fn subset_family(kind: u32, k: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut family: Vec<Vec<usize>> = match kind {
        0 => vec![Vec::new()],
        1 => vec![vec![mix(seed, 1) as usize % k]],
        // A filter's ranked prefixes.
        2 => {
            let mut ranked: Vec<usize> = (0..k).collect();
            shuffle(&mut ranked, seed);
            (0..=k)
                .map(|len| {
                    let mut prefix = ranked[..len].to_vec();
                    prefix.sort_unstable();
                    prefix
                })
                .collect()
        }
        // Every mask, as exhaustive search scores them.
        3 => (0..1usize << k)
            .map(|mask| (0..k).filter(|i| mask & (1 << i) != 0).collect())
            .collect(),
        // Random subsets.
        _ => (0..1 + mix(seed, 2) % 12)
            .map(|j| {
                (0..k)
                    .filter(|&i| mix(seed, 100 + j * 8 + i as u64).is_multiple_of(2))
                    .collect()
            })
            .collect(),
    };
    let dup = family[mix(seed, 3) as usize % family.len()].clone();
    family.push(dup);
    shuffle(&mut family, seed ^ 0x5EED);
    family
}

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

    /// The batched Naive Bayes sweep scores every subset of any family
    /// — empty, singleton, nested prefixes, all masks, random, with a
    /// duplicate, in any list order — exactly as its own assembled
    /// model's `batch_error` does, by `to_bits()`, on empty, contiguous
    /// and shuffled row lists whose lengths straddle the row block, for
    /// both metrics at 1, 2 and 3 workers.
    #[test]
    fn nb_subset_errors_match_per_subset_batch_error(
        seed in 0u64..1_000_000,
        n_classes in 1usize..12,
        kind in 0u32..5,
        len_pick in 0usize..5,
        alpha_step in 1u32..5,
    ) {
        const K: usize = 4;
        let n = 3 * SWEEP_BLOCK + 17 + 200;
        let domains = [2usize, 3, 5, 9];
        let features: Vec<Feature> = (0..K)
            .map(|f| Feature {
                name: format!("x{f}"),
                domain_size: domains[f],
                codes: (0..n)
                    .map(|r| (mix(seed ^ f as u64, r as u64) % domains[f] as u64) as u32)
                    .collect(),
            })
            .collect();
        // Labels lean on x0 so the subsets' errors differ.
        let labels: Vec<u32> = (0..n)
            .map(|r| {
                let noise = mix(seed ^ 0xFACE, r as u64);
                let y = if noise.is_multiple_of(4) { noise >> 8 } else { features[0].codes[r] as u64 };
                (y % n_classes as u64) as u32
            })
            .collect();
        let data = Dataset::new(features, labels, n_classes);
        let train: Vec<usize> = (0..n).filter(|r| mix(seed, *r as u64 + 7).is_multiple_of(2)).collect();
        let stats = SuffStats::new(&data, &train);
        let subsets = subset_family(kind, K, seed);
        let alpha = alpha_step as f64 * 0.5;

        let len = [1, SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 3 * SWEEP_BLOCK + 17][len_pick];
        let start = mix(seed, 9) as usize % (n - len + 1);
        let mut shuffled: Vec<usize> = (0..n).collect();
        shuffle(&mut shuffled, seed ^ 0xD1CE);
        shuffled.truncate(len);
        let row_lists = [Vec::new(), (start..start + len).collect(), shuffled];
        for rows in &row_lists {
            for metric in [ErrorMetric::ZeroOne, ErrorMetric::Rmse] {
                let want: Vec<u64> = subsets
                    .iter()
                    .map(|s| stats.nb_model(alpha, s).batch_error(&data, rows, metric).to_bits())
                    .collect();
                for threads in 1..=3 {
                    let got: Vec<u64> = stats
                        .nb_subset_errors(alpha, &subsets, rows, metric, threads)
                        .iter()
                        .map(|e| e.to_bits())
                        .collect();
                    prop_assert_eq!(
                        &got, &want,
                        "{:?} on {} rows at {} threads over {:?}",
                        metric, rows.len(), threads, subsets
                    );
                }
            }
        }
    }
}
