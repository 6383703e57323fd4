//! Property-based parity tests for the factorized learning subsystem:
//! on arbitrary star instances, training through FK indirection must be
//! indistinguishable from training on the materialized join.

use proptest::prelude::*;

use hamlet::factorized::{fit_factorized_logreg, fit_factorized_nb, FactorizedView};
use hamlet::ml::classifier::Classifier;
use hamlet::ml::dataset::Dataset;
use hamlet::ml::logreg::LogisticRegression;
use hamlet::ml::naive_bayes::NaiveBayes;
use hamlet::ml::suffstats::SuffStats;
use hamlet::ml::{CodeSource, IncrementalNaiveBayes};
use hamlet::relational::query::{fanout, group_count};
use hamlet::relational::{AttributeTable, Domain, StarSchema, TableBuilder};
use hamlet::trees::{fit_factorized_tree, CartTree};

/// Strategy: a random one-attribute-table star — `n_r` attribute rows
/// with one foreign feature, `n_s` entity rows with an entity feature,
/// FKs, and ternary labels.
fn star_instance() -> impl Strategy<Value = (usize, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>)> {
    (2usize..10).prop_flat_map(|n_r| {
        (
            Just(n_r),
            proptest::collection::vec(0..5u32, n_r), // X_R per RID
            proptest::collection::vec(0..n_r as u32, 20..150), // FK codes
        )
            .prop_flat_map(|(n_r, xr, fks)| {
                let n_s = fks.len();
                (
                    Just(n_r),
                    Just(xr),
                    Just(fks),
                    proptest::collection::vec(0..3u32, n_s), // entity feature
                    proptest::collection::vec(0..3u32, n_s), // labels
                )
            })
    })
}

/// Builds the star. The attribute table stores its RIDs out of order,
/// and its PK domain has one code (`n_r / 2`) with no `R` row and no
/// referencing FK, so factorized counts must skip `rid_to_row ==
/// u32::MAX` and read codes through the index, never by RID.
fn build_star(n_r: usize, xr: Vec<u32>, fks: Vec<u32>, xs: Vec<u32>, ys: Vec<u32>) -> StarSchema {
    let hole = (n_r / 2) as u32;
    let rid_of = |i: u32| if i >= hole { i + 1 } else { i };
    let mut order: Vec<u32> = (0..n_r as u32).collect();
    order.rotate_left(fks[0] as usize % n_r);
    order.reverse();
    let rid = Domain::indexed("RID", n_r + 1).shared();
    let r = TableBuilder::new("R")
        .primary_key(
            "RID",
            rid.clone(),
            order.iter().map(|&i| rid_of(i)).collect(),
        )
        .feature(
            "xr",
            Domain::indexed("xr", 5).shared(),
            order.iter().map(|&i| xr[i as usize]).collect(),
        )
        .build()
        .unwrap();
    let s = TableBuilder::new("S")
        .target("y", Domain::indexed("y", 3).shared(), ys)
        .feature("xs", Domain::indexed("xs", 3).shared(), xs)
        .foreign_key("fk", "R", rid, fks.into_iter().map(rid_of).collect())
        .build()
        .unwrap();
    StarSchema::new(
        s,
        vec![AttributeTable {
            fk: "fk".into(),
            table: r,
        }],
    )
    .unwrap()
}

proptest! {
    /// Every counting model fitted through the factorized view equals
    /// its materialized fit exactly, over contiguous and strided train
    /// rows: naive Bayes (whole model and every log-posterior), its
    /// `SuffStats` assembly, incremental NB over two batches split at a
    /// random point, and CART at 1 and 2 threads.
    #[test]
    fn nb_log_posteriors_match((n_r, xr, fks, xs, ys) in star_instance(), cut in 0..150usize) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        let n_s = star.n_s();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let nb = NaiveBayes::default();
        let contiguous: Vec<usize> = (n_s / 4..n_s).collect();
        let strided: Vec<usize> = (0..n_s).step_by(2).collect();
        for train in [&contiguous, &strided] {
            let m_mat = nb.fit(&data, train, &feats);
            let m_fac = fit_factorized_nb(&view, &nb, train, &feats).unwrap();
            prop_assert_eq!(&m_mat, &m_fac);
            for row in 0..n_s {
                prop_assert_eq!(m_mat.log_posterior(&data, row), m_fac.log_posterior(&view, row));
            }

            let stats = SuffStats::new(&data, train);
            prop_assert_eq!(&stats.nb_model(nb.smoothing, &feats), &m_mat);

            let cut = cut.min(train.len());
            let mut inc = IncrementalNaiveBayes::new(&nb, &data, &feats);
            inc.absorb(&data, &train[..cut]);
            inc.absorb(&data, &train[cut..]);
            prop_assert_eq!(&inc.model(), &m_mat);

            for threads in [Some(1), Some(2)] {
                let tree = CartTree { threads, ..CartTree::default() };
                prop_assert_eq!(
                    tree.fit(&data, train, &feats),
                    fit_factorized_tree(&view, &tree, train, &feats)
                );
            }
        }
    }

    /// Logistic regression: the SGD consumes identical codes in an
    /// identical order, so the weights are *bitwise* equal.
    #[test]
    fn logreg_weights_bitwise_equal((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        let train: Vec<usize> = (0..star.n_s()).collect();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        for lr in [
            LogisticRegression::default().with_epochs(3),
            LogisticRegression::l1(0.01).with_epochs(2),
            LogisticRegression::l2(0.05).with_epochs(2),
        ] {
            let m_mat = lr.fit(&data, &train, &feats);
            let m_fac = fit_factorized_logreg(&view, &lr, &train, &feats);
            prop_assert_eq!(m_mat.weights(), m_fac.weights());
            prop_assert_eq!(m_mat.bias(), m_fac.bias());
        }
    }

    /// The factorized view exposes exactly the materialized layout:
    /// same feature count, names, domains, and codes row by row.
    #[test]
    fn view_codes_match_materialized((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        prop_assert_eq!(data.n_features(), view.n_features());
        for f in 0..data.n_features() {
            prop_assert_eq!(data.feature_name(f), view.feature_name(f));
            prop_assert_eq!(data.feature_domain_size(f), view.feature_domain_size(f));
            for row in 0..star.n_s() {
                prop_assert_eq!(data.code(f, row), view.code(f, row));
            }
        }
    }

    /// The pushed-down aggregates cover every entity row exactly once:
    /// the FK fanout histogram and the (FK, Y) group counts both sum
    /// to n_S.
    #[test]
    fn pushed_down_counts_sum_to_n_s((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let n_s = star.n_s() as u64;
        let hist = fanout(star.entity(), "fk").unwrap();
        prop_assert_eq!(hist.iter().sum::<u64>(), n_s);
        let sub = star.entity().project(&["fk", "y"]).unwrap();
        let groups = group_count(&sub, &["fk", "y"]).unwrap();
        prop_assert_eq!(groups.iter().map(|g| g.count).sum::<u64>(), n_s);
    }
}
