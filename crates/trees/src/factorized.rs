//! Factorized tree training over a star schema — no join, same bits.
//!
//! Both learners are generic over [`hamlet_ml::CodeSource`], and
//! [`hamlet_factorized::FactorizedView`] reports each foreign feature as
//! a [`hamlet_ml::Column::Via`] keyed by its FK, so the factorized fits
//! here are the materialized code handed a view.
//!
//! CART split scoring needs one class-conditional count table per
//! (node, candidate feature), and [`hamlet_ml::class_count_tables`]
//! builds a foreign feature's table by the JoinBoost fold: a dense
//! `count(FK, Y | node rows)` table counted on the entity table once
//! per node (and worker chunk) for every feature behind that FK, mapped
//! through each attribute column in `O(n_R)`. The integers are exactly
//! those a scan of the materialized join would produce, so the shared
//! growth code emits the identical tree. Peak extra allocation is the
//! `n_R × |D_Y|` FK table — independent of join fanout.
//!
//! GBT aggregates are exact fixed-point residual sums, so the same fold
//! applies: per scanned node, each FK is folded once into `(count, sum)`
//! per attribute-table row, and every foreign feature behind it reads
//! its histogram off that table. The integers equal a scan of the join
//! in any order, so the models are identical. The extra allocation is
//! one `n_R`-sized fold table per FK, never a wide table.

use hamlet_factorized::FactorizedView;

use crate::cart::{CartModel, CartTree};
use crate::gbt::{Gbt, GbtModel};

/// Trains a CART tree over the star schema without materializing any
/// join. Bit-for-bit identical to
/// `tree.fit(&materialized_dataset, rows, feats)` on the same logical
/// data.
pub fn fit_factorized_tree(
    view: &FactorizedView<'_>,
    tree: &CartTree,
    rows: &[usize],
    feats: &[usize],
) -> CartModel {
    tree.fit_source(view, rows, feats)
}

/// Trains a gradient-boosted ensemble over the star schema without
/// materializing any join. Bit-for-bit identical to
/// `gbt.fit(&materialized_dataset, rows, feats)` on the same logical
/// data.
pub fn fit_factorized_gbt(
    view: &FactorizedView<'_>,
    gbt: &Gbt,
    rows: &[usize],
    feats: &[usize],
) -> GbtModel {
    gbt.fit_source(view, rows, feats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_ml::classifier::Classifier;
    use hamlet_ml::{CodeSource, Dataset};
    use hamlet_relational::catalog::{AttributeTable, StarSchema};
    use hamlet_relational::{Domain, TableBuilder};

    /// One attribute table with RIDs stored out of order and two
    /// foreign features behind the same FK.
    fn star() -> StarSchema {
        let rid = Domain::indexed("RID", 3).shared();
        let r = TableBuilder::new("R")
            .primary_key("RID", rid.clone(), vec![2, 0, 1])
            .feature("r1", Domain::indexed("r1", 3).shared(), vec![0, 1, 2])
            .feature("r2", Domain::boolean("r2").shared(), vec![1, 1, 0])
            .build()
            .unwrap();
        let n = 40;
        let fk: Vec<u32> = (0..n).map(|i| (i * 7 % 3) as u32).collect();
        let y: Vec<u32> = fk
            .iter()
            .enumerate()
            .map(|(i, &k)| (k + (i % 5 == 0) as u32) % 3)
            .collect();
        let s = TableBuilder::new("S")
            .target("y", Domain::indexed("y", 3).shared(), y)
            .feature(
                "xs",
                Domain::boolean("xs").shared(),
                (0..n).map(|i| (i % 2) as u32).collect(),
            )
            .foreign_key("fk", "R", rid, fk)
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

    #[test]
    fn gbt_reports_its_span_and_scan_paths() {
        let counter = |name| hamlet_obs::metrics::counter(name).get();
        let star = star();
        let view = FactorizedView::new(&star).unwrap();
        let data = Dataset::from_table(&star.materialize_all().unwrap());
        let rows: Vec<usize> = (0..star.n_s()).step_by(2).collect();
        let feats: Vec<usize> = (0..view.n_features()).collect();
        let gbt = Gbt {
            rounds: 2,
            threads: Some(1),
            ..Gbt::default()
        };

        let direct = counter("hamlet_gbt_scan_rows_direct_total");
        let via = counter("hamlet_gbt_scan_rows_via_fk_total");
        let folds = counter("hamlet_gbt_fk_folds_total");
        hamlet_obs::span::set_tracing(true);
        let fac = fit_factorized_gbt(&view, &gbt, &rows, &feats);
        hamlet_obs::span::set_tracing(false);
        assert_eq!(fac, gbt.fit(&data, &rows, &feats));

        // Every root scans all node rows once directly (for `xs` and
        // `fk`) and folds them once through the FK (for `r1` and `r2`).
        let root_rows = (gbt.rounds * rows.len()) as u64;
        assert!(counter("hamlet_gbt_scan_rows_direct_total") - direct >= root_rows);
        assert!(counter("hamlet_gbt_scan_rows_via_fk_total") - via >= root_rows);
        assert!(counter("hamlet_gbt_fk_folds_total") - folds >= gbt.rounds as u64);
        // Sibling tests may fit while tracing is on; match on the detail.
        let detail = format!("rows={} feats=4 rounds=2", rows.len());
        let spans = hamlet_obs::span::drain_spans();
        assert!(
            spans
                .iter()
                .any(|s| s.name == "trees.gbt_fit" && s.detail == detail),
            "no trees.gbt_fit span with {detail}"
        );
    }
}
