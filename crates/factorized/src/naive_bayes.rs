//! Naive Bayes over the star schema — no join, exact same model.
//!
//! Naive Bayes needs only `count(Y)` and `count(F, Y)` per feature, and
//! [`hamlet_ml::class_count_table`] computes a foreign feature's table
//! by counting the FK on the entity table and folding it through the
//! attribute table. The integer tables are those the materialized join
//! would give, and the smoothing is the one shared recipe, so the model
//! is **exactly equal** to the materialized one.

use hamlet_ml::{NaiveBayes, NaiveBayesModel};
use hamlet_relational::Result;

use crate::view::FactorizedView;

/// Fits naive Bayes over the star schema without materializing any join.
///
/// `rows` are entity-row positions (the same indices that drive the
/// materialized path) and `feats` are logical feature positions in the
/// view's layout. Returns a model exactly equal to
/// `NaiveBayes::fit(&materialized_dataset, rows, feats)`.
pub fn fit_factorized_nb(
    view: &FactorizedView<'_>,
    nb: &NaiveBayes,
    rows: &[usize],
    feats: &[usize],
) -> Result<NaiveBayesModel> {
    Ok(nb.fit_source(view, rows, feats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::tests::two_table_star;
    use hamlet_ml::{Classifier, Dataset, Model};

    #[test]
    fn exactly_equals_materialized_model() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let mat = Dataset::from_table(&star.materialize_all().unwrap());
        let rows: Vec<usize> = (0..star.n_s()).collect();
        let feats: Vec<usize> = (0..mat.n_features()).collect();
        let nb = NaiveBayes::default();

        let m_mat = nb.fit(&mat, &rows, &feats);
        let m_fac = fit_factorized_nb(&view, &nb, &rows, &feats).unwrap();
        assert_eq!(m_mat, m_fac);

        for r in 0..star.n_s() {
            let a = m_mat.log_posterior(&mat, r);
            let b = m_fac.log_posterior(&view, r);
            assert_eq!(a, b, "log-posterior differs at row {r}");
            assert_eq!(m_mat.predict_row(&mat, r), m_fac.predict_row(&mat, r));
        }
    }

    #[test]
    fn respects_row_and_feature_subsets() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let mat = Dataset::from_table(&star.materialize_all().unwrap());
        let rows = vec![0usize, 2, 3, 5];
        let feats = vec![0usize, 3, 5]; // xs, a1 (joined), b1 (joined)
        let nb = NaiveBayes::new(0.5);

        let m_mat = nb.fit(&mat, &rows, &feats);
        let m_fac = fit_factorized_nb(&view, &nb, &rows, &feats).unwrap();
        assert_eq!(m_mat, m_fac);
        for r in 0..star.n_s() {
            assert_eq!(m_mat.log_posterior(&mat, r), m_fac.log_posterior(&view, r));
        }
    }

    #[test]
    fn empty_feature_set_gives_prior_model() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let rows: Vec<usize> = (0..star.n_s()).collect();
        let m = fit_factorized_nb(&view, &NaiveBayes::default(), &rows, &[]).unwrap();
        // Majority class of y = [0,1,1,0,1,0] is 0 (ties break low); here
        // 3 vs 3 -> class 0 wins the tie.
        for r in 0..star.n_s() {
            assert_eq!(m.predict_row(&view, r), 0);
        }
    }
}
