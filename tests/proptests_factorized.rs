//! Property-based parity tests for the factorized learning subsystem:
//! on arbitrary star instances, training through FK indirection must be
//! indistinguishable from training on the materialized join.

use proptest::prelude::*;

use hamlet::factorized::FactorizedView;
use hamlet::ml::classifier::Classifier;
use hamlet::ml::dataset::Dataset;
use hamlet::ml::logreg::LogisticRegression;
use hamlet::ml::naive_bayes::NaiveBayes;
use hamlet::ml::suffstats::SuffStats;
use hamlet::ml::{class_count_table, CodeSource, DecisionTree, IncrementalNaiveBayes, Tan};
use hamlet::relational::{AttributeTable, Domain, StarSchema, TableBuilder};
use hamlet::trees::{CartTree, Gbt};

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

/// Fits `learner` through [`Classifier::fit`] on the materialized
/// dataset and on the view; the two models must be equal.
fn fits_identically<C: Classifier>(
    learner: &C,
    data: &Dataset,
    view: &FactorizedView<'_>,
    rows: &[usize],
    feats: &[usize],
) -> Result<(), TestCaseError>
where
    C::Fitted: PartialEq + std::fmt::Debug,
{
    prop_assert_eq!(
        learner.fit(data, rows, feats),
        learner.fit(view, rows, feats)
    );
    Ok(())
}

proptest! {
    /// Naive Bayes fitted through the factorized view equals its
    /// materialized fit in every log-posterior, over contiguous and
    /// strided train rows, and so do its `SuffStats` assembly and
    /// incremental NB over two batches split at a random point.
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
            let m_fac = nb.fit(&view, train, &feats);
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
        }
    }

    /// Every learner, fitted through `Classifier::fit` on the view and
    /// on the materialized join, yields the same model: the counting
    /// learners read identical integer tables, logistic regression
    /// consumes identical codes in an identical order, and GBT sums
    /// identical fixed-point residuals. Checked over contiguous and
    /// strided train rows, all features and a subset without the FK.
    #[test]
    fn every_learner_fits_identically_on_the_view((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        let n_s = star.n_s();
        let all: Vec<usize> = (0..data.n_features()).collect();
        let no_fk: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&f| data.feature_name(f) != "fk")
            .collect();
        prop_assert_eq!(no_fk.len() + 1, all.len());
        let contiguous: Vec<usize> = (n_s / 4..n_s).collect();
        let strided: Vec<usize> = (0..n_s).step_by(2).collect();
        for rows in [&contiguous, &strided] {
            for feats in [&all, &no_fk] {
                fits_identically(&NaiveBayes::default(), &data, &view, rows, feats)?;
                for lr in [
                    LogisticRegression::default().with_epochs(3),
                    LogisticRegression::l1(0.01).with_epochs(2),
                    LogisticRegression::l2(0.05).with_epochs(2),
                ] {
                    fits_identically(&lr, &data, &view, rows, feats)?;
                }
                fits_identically(&Tan::default(), &data, &view, rows, feats)?;
                fits_identically(&DecisionTree::default(), &data, &view, rows, feats)?;
                for threads in [Some(1), Some(2)] {
                    let cart = CartTree { threads, ..CartTree::default() };
                    fits_identically(&cart, &data, &view, rows, feats)?;
                }
                let gbt = Gbt { rounds: 4, threads: Some(2), ..Gbt::default() };
                fits_identically(&gbt, &data, &view, rows, feats)?;
            }
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

    /// The pushed-down count primitive covers every entity row exactly
    /// once: for every feature of the view — entity features, the FK
    /// and the foreign feature folded through it — `class_count_table`
    /// over all rows sums to n_S and equals the materialized table, at
    /// one and two threads.
    #[test]
    fn pushed_down_counts_sum_to_n_s((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let data = Dataset::from_table(&star.materialize_all().unwrap());
        let view = FactorizedView::new(&star).unwrap();
        let n_s = star.n_s();
        let rows: Vec<usize> = (0..n_s).collect();
        for f in 0..view.n_features() {
            for threads in [1, 2] {
                let table = class_count_table(&view, f, &rows, threads);
                prop_assert_eq!(table.iter().sum::<u64>(), n_s as u64);
                prop_assert_eq!(table, class_count_table(&data, f, &rows, threads));
            }
        }
    }
}
