//! A logical view of the denormalized join output that never exists.
//!
//! [`FactorizedView`] presents the joined table
//! `T(Y, X_S, FK_1..FK_k, X_R1..X_Rk)` with the exact feature layout of
//! [`hamlet_ml::Dataset::from_table`] applied to the materialized join —
//! but resolves every foreign-feature access through FK indirection at
//! read time: `T.X_R[i] = R.X_R[rid_to_row[S.FK[i]]]`. The per-FK dense
//! lookup index is built once (`O(n_R)`), after which each access is
//! three array reads. [`CodeSource::column`] exposes that layout as
//! [`Column::Via`], keyed by FK slot, so scans can resolve each FK once
//! for all the features behind it. Memory stays `O(n_S + Σ n_Ri)`
//! instead of the materialized `O(n_S × (d_S + Σ d_Ri))`.

use hamlet_ml::{CodeSource, Column};
use hamlet_relational::catalog::StarSchema;
use hamlet_relational::{Domain, RelationalError, Result, Role};

/// An entity-table column served directly (features and foreign keys).
#[derive(Debug)]
struct BaseCol<'a> {
    name: &'a str,
    domain: &'a Domain,
    codes: &'a [u32],
}

/// A foreign-feature column served through FK indirection.
#[derive(Debug)]
struct JoinedCol<'a> {
    name: &'a str,
    domain: &'a Domain,
    /// Codes of the column in its attribute table `R` (length `n_R`).
    codes: &'a [u32],
    /// Which [`FkIndex`] resolves entity rows into `R` rows.
    fk: usize,
}

/// Dense RID -> row index over one attribute table, built once per join.
#[derive(Debug)]
struct FkIndex<'a> {
    /// FK codes on the entity table (length `n_S`).
    fk_codes: &'a [u32],
    /// `rid_to_row[code]` = row position in `R`, or `u32::MAX` for RID
    /// values absent from `R` (never referenced: the star schema
    /// validates referential integrity at construction).
    rid_to_row: Vec<u32>,
}

/// Zero-materialization view over a star schema with the same logical
/// columns, feature order, and row order as the materialized join.
///
/// Because row positions are entity-row positions in both worlds, the
/// same [`hamlet_relational::catalog::SplitIndices`] drive train/test
/// subsetting on either path.
#[derive(Debug)]
pub struct FactorizedView<'a> {
    star: &'a StarSchema,
    /// Positions (into `star.attributes()`) of the joined tables, in
    /// join order.
    join_set: Vec<usize>,
    labels: &'a [u32],
    target_name: &'a str,
    n_classes: usize,
    base: Vec<BaseCol<'a>>,
    joined: Vec<JoinedCol<'a>>,
    fk_indices: Vec<FkIndex<'a>>,
}

impl<'a> FactorizedView<'a> {
    /// A view equivalent to `star.materialize_all()` (JoinAll).
    pub fn new(star: &'a StarSchema) -> Result<Self> {
        Self::with_join_set(star, &(0..star.k()).collect::<Vec<_>>())
    }

    /// A view equivalent to `star.materialize(join_set)`: only the listed
    /// attribute tables contribute foreign features; every entity feature
    /// and foreign key is always present (FKs act as representatives for
    /// the unjoined tables, exactly as in the materialized subset join).
    pub fn with_join_set(star: &'a StarSchema, join_set: &[usize]) -> Result<Self> {
        let _span = hamlet_obs::span!(
            "factorized.build_view",
            rows = star.n_s(),
            joins = join_set.len()
        );
        let entity = star.entity();
        let target_idx = entity
            .schema()
            .target()
            .ok_or_else(|| RelationalError::MissingRole {
                table: entity.name().to_string(),
                role: "target",
            })?;
        let labels = entity.column(target_idx).codes();
        let n_classes = entity.column(target_idx).domain().size();

        let mut base = Vec::new();
        for (def, col) in entity.schema().attributes().iter().zip(entity.columns()) {
            if def.role.is_ml_input() {
                base.push(BaseCol {
                    name: def.name.as_str(),
                    domain: col.domain(),
                    codes: col.codes(),
                });
            }
        }

        let mut joined = Vec::new();
        let mut fk_indices = Vec::new();
        for &i in join_set {
            let at = star
                .attributes()
                .get(i)
                .ok_or_else(|| RelationalError::UnknownTable {
                    name: format!("attribute table #{i}"),
                })?;
            let fk_pos = entity.schema().index_of(&at.fk).ok_or_else(|| {
                RelationalError::UnknownAttribute {
                    table: entity.name().to_string(),
                    attribute: at.fk.clone(),
                }
            })?;
            let pk_idx = at.table.schema().primary_key().ok_or_else(|| {
                RelationalError::UnknownAttribute {
                    table: at.table.name().to_string(),
                    attribute: "<primary key>".to_string(),
                }
            })?;
            let pk_col = at.table.column(pk_idx);
            let mut rid_to_row = vec![u32::MAX; pk_col.domain().size()];
            for (row, &code) in pk_col.codes().iter().enumerate() {
                rid_to_row[code as usize] = row as u32;
            }
            let fk = fk_indices.len();
            fk_indices.push(FkIndex {
                fk_codes: entity.column(fk_pos).codes(),
                rid_to_row,
            });
            for (def, col) in at
                .table
                .schema()
                .attributes()
                .iter()
                .zip(at.table.columns())
            {
                if def.role == Role::Feature {
                    joined.push(JoinedCol {
                        name: def.name.as_str(),
                        domain: col.domain(),
                        codes: col.codes(),
                        fk,
                    });
                }
            }
        }

        let view = Self {
            star,
            join_set: join_set.to_vec(),
            labels,
            target_name: entity.schema().attributes()[target_idx].name.as_str(),
            n_classes,
            base,
            joined,
            fk_indices,
        };
        hamlet_obs::counter_add!("hamlet_wide_cells_avoided_total", view.cells_avoided());
        Ok(view)
    }

    /// The underlying star schema.
    pub fn star(&self) -> &'a StarSchema {
        self.star
    }

    /// Positions of the joined attribute tables (into
    /// [`StarSchema::attributes`]).
    pub fn join_set(&self) -> &[usize] {
        &self.join_set
    }

    /// Name of the target attribute.
    pub fn target_name(&self) -> &str {
        self.target_name
    }

    /// Number of entity-table feature columns (features + FKs); logical
    /// positions `>= n_base_features()` resolve through FK indirection.
    pub fn n_base_features(&self) -> usize {
        self.base.len()
    }

    /// The domain of feature `f` (its labels, when it has them), as
    /// stored in the entity or attribute table.
    pub fn feature_domain(&self, f: usize) -> &'a Domain {
        match f.checked_sub(self.base.len()) {
            None => self.base[f].domain,
            Some(j) => self.joined[j].domain,
        }
    }

    /// Position of the feature named `name`, if present.
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.base
            .iter()
            .map(|b| b.name)
            .chain(self.joined.iter().map(|j| j.name))
            .position(|n| n == name)
    }

    /// Cells of the denormalized join output this view never allocates:
    /// `n_S × Σ d_Ri` over the joined tables. The advisor quotes this as
    /// the estimated memory saved by Factorize.
    pub fn cells_avoided(&self) -> usize {
        self.star.n_s() * self.joined.len()
    }
}

impl CodeSource for FactorizedView<'_> {
    fn n_examples(&self) -> usize {
        self.labels.len()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn n_features(&self) -> usize {
        self.base.len() + self.joined.len()
    }

    fn feature_domain_size(&self, f: usize) -> usize {
        self.feature_domain(f).size()
    }

    fn feature_name(&self, f: usize) -> &str {
        match f.checked_sub(self.base.len()) {
            None => self.base[f].name,
            Some(j) => self.joined[j].name,
        }
    }

    #[inline]
    fn column(&self, f: usize) -> Column<'_> {
        match f.checked_sub(self.base.len()) {
            None => Column::Rows(self.base[f].codes),
            Some(j) => {
                let jc = &self.joined[j];
                let idx = &self.fk_indices[jc.fk];
                Column::Via {
                    join: jc.fk,
                    fk_codes: idx.fk_codes,
                    rid_to_row: &idx.rid_to_row,
                    codes: jc.codes,
                }
            }
        }
    }

    fn label(&self, row: usize) -> u32 {
        self.labels[row]
    }

    fn labels(&self) -> Option<&[u32]> {
        Some(self.labels)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hamlet_ml::Dataset;
    use hamlet_relational::catalog::AttributeTable;
    use hamlet_relational::{Domain, TableBuilder};

    /// Two attribute tables, RIDs stored out of order in the second to
    /// exercise the dense index.
    pub(crate) fn two_table_star() -> StarSchema {
        let rid_a = Domain::indexed("AID", 3).shared();
        let a = TableBuilder::new("A")
            .primary_key("AID", rid_a.clone(), vec![0, 1, 2])
            .feature("a1", Domain::indexed("a1", 4).shared(), vec![3, 0, 2])
            .feature("a2", Domain::boolean("a2").shared(), vec![1, 0, 1])
            .build()
            .unwrap();
        let rid_b = Domain::indexed("BID", 2).shared();
        let b = TableBuilder::new("B")
            .primary_key("BID", rid_b.clone(), vec![1, 0]) // out of order
            .feature("b1", Domain::indexed("b1", 5).shared(), vec![4, 1])
            .build()
            .unwrap();
        let s = TableBuilder::new("S")
            .primary_key(
                "SID",
                Domain::indexed("SID", 6).shared(),
                vec![0, 1, 2, 3, 4, 5],
            )
            .target("y", Domain::boolean("y").shared(), vec![0, 1, 1, 0, 1, 0])
            .feature(
                "xs",
                Domain::indexed("xs", 3).shared(),
                vec![0, 1, 2, 0, 1, 2],
            )
            .foreign_key("fk_a", "A", rid_a, vec![0, 1, 2, 2, 1, 0])
            .foreign_key("fk_b", "B", rid_b, vec![1, 0, 1, 0, 1, 0])
            .build()
            .unwrap();
        StarSchema::new(
            s,
            vec![
                AttributeTable {
                    fk: "fk_a".into(),
                    table: a,
                },
                AttributeTable {
                    fk: "fk_b".into(),
                    table: b,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn matches_materialized_layout_and_codes() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let mat = Dataset::from_table(&star.materialize_all().unwrap());

        assert_eq!(CodeSource::n_features(&view), mat.n_features());
        assert_eq!(CodeSource::n_examples(&view), mat.n_examples());
        assert_eq!(CodeSource::n_classes(&view), mat.n_classes());
        for f in 0..mat.n_features() {
            assert_eq!(view.feature_name(f), mat.feature(f).name, "name at {f}");
            assert_eq!(
                view.feature_domain_size(f),
                mat.feature(f).domain_size,
                "domain at {f}"
            );
            for r in 0..mat.n_examples() {
                assert_eq!(view.code(f, r), mat.feature(f).codes[r], "code ({f},{r})");
            }
        }
        for r in 0..mat.n_examples() {
            assert_eq!(view.label(r), mat.labels()[r]);
        }
    }

    /// The view's `Column::Via` layout drives the count primitive's
    /// FK fold: every feature's table over any row subset equals the
    /// materialized scan's, including through `B`'s out-of-order RIDs.
    #[test]
    fn count_tables_match_materialized_on_every_feature_and_subset() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        let mat = Dataset::from_table(&star.materialize_all().unwrap());
        let all: Vec<usize> = (0..star.n_s()).collect();
        let evens: Vec<usize> = (0..star.n_s()).step_by(2).collect();
        for rows in [&all, &evens, &vec![4, 1], &vec![0], &Vec::new()] {
            for f in 0..mat.n_features() {
                assert_eq!(
                    hamlet_ml::class_count_table(&view, f, rows, 2),
                    hamlet_ml::class_count_table(&mat, f, rows, 1),
                    "feature {f} over {rows:?}"
                );
            }
        }
    }

    #[test]
    fn join_subsets_match_materialized_subsets() {
        let star = two_table_star();
        for join_set in [vec![], vec![0], vec![1], vec![1, 0]] {
            let view = FactorizedView::with_join_set(&star, &join_set).unwrap();
            let mat = Dataset::from_table(&star.materialize(&join_set).unwrap());
            assert_eq!(CodeSource::n_features(&view), mat.n_features());
            for f in 0..mat.n_features() {
                assert_eq!(view.feature_name(f), mat.feature(f).name);
                for r in 0..mat.n_examples() {
                    assert_eq!(view.code(f, r), mat.feature(f).codes[r]);
                }
            }
        }
    }

    /// TAN's pairwise CMI and `(y, parent, v)` CPTs read the view's
    /// columns through the FK; the model must be the materialized fit,
    /// bit for bit, for every join subset, row subset and CPT budget
    /// (a budget of 40 cells drops the pairs with an FK from the tree).
    #[test]
    fn tan_fit_source_on_a_view_equals_the_materialized_fit() {
        use hamlet_ml::{Classifier, Tan};

        let spec = hamlet_datagen::realistic::DatasetSpec::yelp();
        for star in [two_table_star(), spec.generate(0.002, 3).star] {
            let all: Vec<usize> = (0..star.n_s()).collect();
            let evens: Vec<usize> = (0..star.n_s()).step_by(2).collect();
            for join_set in [vec![], vec![0], vec![1], vec![0, 1]] {
                let view = FactorizedView::with_join_set(&star, &join_set).unwrap();
                let mat = Dataset::from_table(&star.materialize(&join_set).unwrap());
                let feats: Vec<usize> = (0..mat.n_features()).collect();
                for max_cpt_cells in [40, Tan::default().max_cpt_cells] {
                    let tan = Tan {
                        max_cpt_cells,
                        ..Tan::default()
                    };
                    for rows in [&all, &evens] {
                        let m_mat = tan.fit(&mat, rows, &feats);
                        let m_view = tan.fit_source(&view, rows, &feats);
                        assert_eq!(
                            format!("{m_mat:?}"),
                            format!("{m_view:?}"),
                            "joins {join_set:?}, budget {max_cpt_cells}"
                        );
                    }
                }
            }
        }
    }

    /// Naive Bayes' blocked holdout scorer reads `Via` columns through
    /// a per-block gather; its error must equal the row-at-a-time
    /// metric on the view and the materialized scorer, on contiguous
    /// and scattered row sets longer than one block.
    #[test]
    fn nb_batch_error_on_a_view_equals_the_row_path() {
        use hamlet_ml::{rmse, zero_one_error, ErrorMetric, NaiveBayes};

        let star = hamlet_datagen::realistic::DatasetSpec::yelp()
            .generate(0.02, 5)
            .star;
        let view = FactorizedView::new(&star).unwrap();
        let mat = Dataset::from_table(&star.materialize_all().unwrap());
        let n = star.n_s();
        assert!(n > 3000, "rows must span several blocks");
        let train: Vec<usize> = (0..n / 2).collect();
        let feats: Vec<usize> = (0..mat.n_features()).collect();
        let model = NaiveBayes::default().fit_source(&view, &train, &feats);
        let scattered: Vec<usize> = (0..n).rev().step_by(3).collect();
        let tail: Vec<usize> = (n / 2..n).collect();
        let subset: Vec<usize> = feats.iter().copied().rev().step_by(2).collect();
        let sub_model = NaiveBayes::default().fit_source(&view, &train, &subset);
        for rows in [&tail, &scattered, &Vec::new()] {
            for m in [&model, &sub_model] {
                let bits = m.batch_error(&view, rows, ErrorMetric::ZeroOne).to_bits();
                assert_eq!(bits, zero_one_error(m, &view, rows).to_bits());
                assert_eq!(
                    bits,
                    m.batch_error(&mat, rows, ErrorMetric::ZeroOne).to_bits()
                );
                let bits = m.batch_error(&view, rows, ErrorMetric::Rmse).to_bits();
                assert_eq!(bits, rmse(m, &view, rows).to_bits());
            }
        }
    }

    #[test]
    fn feature_index_spans_base_and_joined() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        assert_eq!(view.feature_index("xs"), Some(0));
        assert_eq!(view.feature_index("fk_a"), Some(1));
        assert_eq!(view.feature_index("b1"), Some(5));
        assert_eq!(view.feature_index("nope"), None);
        assert_eq!(view.n_base_features(), 3);
        assert_eq!(view.target_name(), "y");
    }

    #[test]
    fn cells_avoided_counts_foreign_feature_cells() {
        let star = two_table_star();
        let view = FactorizedView::new(&star).unwrap();
        // 6 entity rows x 3 foreign features (a1, a2, b1).
        assert_eq!(view.cells_avoided(), 18);
        let partial = FactorizedView::with_join_set(&star, &[1]).unwrap();
        assert_eq!(partial.cells_avoided(), 6);
    }

    #[test]
    fn missing_target_is_typed_error() {
        let rid = Domain::indexed("RID", 1).shared();
        let r = TableBuilder::new("R")
            .primary_key("RID", rid.clone(), vec![0])
            .feature("a", Domain::boolean("a").shared(), vec![0])
            .build()
            .unwrap();
        let s = TableBuilder::new("S")
            .feature("x", Domain::boolean("x").shared(), vec![0])
            .foreign_key("fk", "R", rid, vec![0])
            .build()
            .unwrap();
        let star = StarSchema::new(
            s,
            vec![AttributeTable {
                fk: "fk".into(),
                table: r,
            }],
        )
        .unwrap();
        let err = FactorizedView::new(&star).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::MissingRole { role: "target", .. }
        ));
    }

    #[test]
    fn out_of_range_join_set_rejected() {
        let star = two_table_star();
        assert!(FactorizedView::with_join_set(&star, &[7]).is_err());
    }

    /// The degraded-load fallback replaces an unreadable attribute
    /// table with a key-only surrogate (see
    /// `hamlet_relational::availability`). A full view over that star
    /// must be indistinguishable — layout, codes, and fitted model —
    /// from a view over the intact star that simply excludes the
    /// table's join: zero features joined either way.
    #[test]
    fn fk_only_surrogate_trains_identically_to_excluding_the_join() {
        use crate::fit_factorized_nb;
        use hamlet_ml::NaiveBayes;

        let star = two_table_star();
        let without_b = FactorizedView::with_join_set(&star, &[0]).unwrap();

        let entity = star.entity().clone();
        let a = star.attributes()[0].table.clone();
        let rid_b = entity.column_by_name("fk_b").unwrap().domain().clone();
        let b_surrogate = TableBuilder::new("B")
            .primary_key("BID", rid_b, vec![0, 1])
            .build()
            .unwrap();
        let degraded_star = StarSchema::new(
            entity,
            vec![
                AttributeTable {
                    fk: "fk_a".into(),
                    table: a,
                },
                AttributeTable {
                    fk: "fk_b".into(),
                    table: b_surrogate,
                },
            ],
        )
        .unwrap();
        let degraded = FactorizedView::new(&degraded_star).unwrap();

        assert_eq!(
            CodeSource::n_features(&degraded),
            CodeSource::n_features(&without_b)
        );
        for f in 0..CodeSource::n_features(&degraded) {
            assert_eq!(degraded.feature_name(f), without_b.feature_name(f));
            assert_eq!(
                degraded.feature_domain_size(f),
                without_b.feature_domain_size(f)
            );
            for r in 0..CodeSource::n_examples(&degraded) {
                assert_eq!(degraded.code(f, r), without_b.code(f, r));
            }
        }

        let rows: Vec<usize> = (0..CodeSource::n_examples(&degraded)).collect();
        let feats: Vec<usize> = (0..CodeSource::n_features(&degraded)).collect();
        let nb = NaiveBayes::default();
        let m_degraded = fit_factorized_nb(&degraded, &nb, &rows, &feats).unwrap();
        let m_without = fit_factorized_nb(&without_b, &nb, &rows, &feats).unwrap();
        assert_eq!(format!("{m_degraded:?}"), format!("{m_without:?}"));
    }
}
