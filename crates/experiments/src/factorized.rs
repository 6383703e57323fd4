//! Factorized vs. materialized training: accuracy parity and cost.
//!
//! The factorized subsystem claims JoinAll *semantics* without JoinAll
//! *materialization*: the trained model must be identical, while the
//! wide table's `n_S × d_R` cells are never allocated. This experiment
//! checks both claims head-to-head at tuple ratios `n_S/n_R ∈ {1, 10,
//! 100}` — the regime sweep of Fig 8A, but along the physical axis. At
//! high fanout (many entity rows per attribute row) the wide table
//! repeats each `R` row many times, so factorized execution should win
//! both wall-clock and peak allocation; at ratio 1 the gap narrows.

use std::time::{Duration, Instant};

use hamlet_core::planner::{plan, ExecStrategy, PlanKind};
use hamlet_core::rules::TrRule;
use hamlet_factorized::view_for_plan;
use hamlet_ml::classifier::{zero_one_error, Classifier};
use hamlet_ml::dataset::Dataset;
use hamlet_ml::logreg::LogisticRegression;
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::CodeSource;
use hamlet_relational::{AttributeTable, Domain, StarSchema, TableBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::TextTable;

/// The counting allocator now lives in `hamlet-obs` so every binary
/// (the CLI included) can install it; re-exported here for the
/// `factorized` binary and older callers.
pub use hamlet_obs::CountingAlloc;

/// One (tuple ratio × strategy comparison) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutRow {
    /// `n_S / n_R`.
    pub ratio: usize,
    /// Naive Bayes models identical across strategies?
    pub nb_identical: bool,
    /// Logistic-regression weights bitwise identical?
    pub lr_identical: bool,
    /// Holdout error (same for both paths when parity holds).
    pub error: f64,
    /// Wall-clock for materialize + train (both models).
    pub materialized: Duration,
    /// Wall-clock for factorized train (both models).
    pub factorized: Duration,
    /// Peak bytes above entry for the materialized path (0 without the
    /// counting allocator installed).
    pub materialized_peak: usize,
    /// Peak bytes above entry for the factorized path.
    pub factorized_peak: usize,
    /// Wide-table cells the factorized path never allocates.
    pub cells_avoided: usize,
}

/// A star with one attribute table at the requested tuple ratio:
/// `n_s` entity rows over `n_s / ratio` attribute rows carrying `d_r`
/// foreign features.
pub fn fanout_star(n_s: usize, ratio: usize, d_r: usize, seed: u64) -> StarSchema {
    let n_r = (n_s / ratio).max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let rid = Domain::indexed("RID", n_r).shared();
    let mut r = TableBuilder::new("R").primary_key("RID", rid.clone(), (0..n_r as u32).collect());
    for j in 0..d_r {
        let name = format!("xr{j}");
        let codes: Vec<u32> = (0..n_r).map(|_| rng.gen_range(0..16u32)).collect();
        r = r.feature(&name, Domain::indexed(&name, 16).shared(), codes);
    }
    let r = r.build().expect("attribute table builds");

    let fk: Vec<u32> = (0..n_s).map(|_| rng.gen_range(0..n_r as u32)).collect();
    let xs: Vec<u32> = (0..n_s).map(|_| rng.gen_range(0..4u32)).collect();
    // Label depends on one foreign feature and the entity feature
    // through an OR (not XOR: both NB and logreg must be able to beat
    // chance, so each feature must carry marginal signal).
    let xr0 = r.column(1).codes();
    let y: Vec<u32> = (0..n_s)
        .map(|i| {
            let noise = rng.gen::<f64>() < 0.1;
            let v = u32::from(xr0[fk[i] as usize] >= 8 || xs[i] >= 3);
            if noise {
                1 - v
            } else {
                v
            }
        })
        .collect();
    let s = TableBuilder::new("S")
        .target("y", Domain::boolean("y").shared(), y)
        .feature("xs", Domain::indexed("xs", 4).shared(), xs)
        .foreign_key("fk", "R", rid, fk)
        .build()
        .expect("entity builds");
    StarSchema::new(
        s,
        vec![AttributeTable {
            fk: "fk".into(),
            table: r,
        }],
    )
    .expect("star builds")
}

fn measure<T>(meter: Option<&CountingAlloc>, f: impl FnOnce() -> T) -> (T, Duration, usize) {
    let baseline = meter.map(|m| {
        m.reset_peak();
        m.current()
    });
    let t = Instant::now();
    let out = f();
    let elapsed = t.elapsed();
    let peak = meter
        .zip(baseline)
        .map(|(m, b)| m.peak().saturating_sub(b))
        .unwrap_or(0);
    (out, elapsed, peak)
}

/// Runs the comparison at one tuple ratio.
pub fn compare_at(
    n_s: usize,
    ratio: usize,
    d_r: usize,
    seed: u64,
    meter: Option<&CountingAlloc>,
) -> FanoutRow {
    let star = fanout_star(n_s, ratio, d_r, seed);
    let perm: Vec<usize> = (0..star.n_s()).collect();
    let split = star.split_rows(&perm, 0.5, 0.25);
    let nb = NaiveBayes::default();
    let lr = LogisticRegression::default();
    let join_all = plan(
        &star,
        PlanKind::JoinAll,
        &TrRule::default(),
        split.train.len(),
    );

    // Materialized: build the wide table, copy it into a Dataset, train.
    let ((nb_mat, lr_mat, mat_err), materialized, materialized_peak) = measure(meter, || {
        let wide = join_all.materialize(&star).expect("join materializes");
        let data = Dataset::from_table(&wide);
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let m_nb = nb.fit(&data, &split.train, &feats);
        let m_lr = lr.fit(&data, &split.train, &feats);
        let err = zero_one_error(&m_nb, &data, &split.test);
        (m_nb, m_lr, err)
    });

    // Factorized: same plan, Factorize strategy — no join runs.
    let fac_plan = join_all.clone().with_strategy(ExecStrategy::Factorize);
    let ((nb_fac, lr_fac, fac_err, cells_avoided), factorized, factorized_peak) =
        measure(meter, || {
            let view = view_for_plan(&star, &fac_plan).expect("view builds");
            let feats: Vec<usize> = (0..CodeSource::n_features(&view)).collect();
            let m_nb = nb.fit(&view, &split.train, &feats);
            let m_lr = lr.fit(&view, &split.train, &feats);
            let err = zero_one_error(&m_nb, &view, &split.test);
            (m_nb, m_lr, err, view.cells_avoided())
        });

    assert_eq!(mat_err, fac_err, "parity must hold at ratio {ratio}");
    FanoutRow {
        ratio,
        nb_identical: nb_mat == nb_fac,
        lr_identical: lr_mat == lr_fac,
        error: mat_err,
        materialized,
        factorized,
        materialized_peak,
        factorized_peak,
        cells_avoided,
    }
}

/// The full sweep at ratios 1, 10, 100.
pub fn compare(n_s: usize, d_r: usize, seed: u64, meter: Option<&CountingAlloc>) -> Vec<FanoutRow> {
    [1, 10, 100]
        .iter()
        .map(|&ratio| compare_at(n_s, ratio, d_r, seed, meter))
        .collect()
}

/// Renders the sweep as a report.
pub fn report(rows: &[FanoutRow]) -> String {
    let mut t = TextTable::new([
        "n_S/n_R",
        "NB parity",
        "LR parity",
        "holdout err",
        "materialized",
        "factorized",
        "peak bytes (mat)",
        "peak bytes (fac)",
        "cells avoided",
    ]);
    for r in rows {
        t.row([
            r.ratio.to_string(),
            if r.nb_identical {
                "identical"
            } else {
                "DIFFERS"
            }
            .to_string(),
            if r.lr_identical {
                "identical"
            } else {
                "DIFFERS"
            }
            .to_string(),
            format!("{:.4}", r.error),
            format!("{:.1} ms", r.materialized.as_secs_f64() * 1e3),
            format!("{:.1} ms", r.factorized.as_secs_f64() * 1e3),
            r.materialized_peak.to_string(),
            r.factorized_peak.to_string(),
            r.cells_avoided.to_string(),
        ]);
    }
    let mut out =
        String::from("Factorized vs materialized training (same plan, same seed, same split)\n\n");
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_holds_across_ratios() {
        for row in compare(2_000, 4, 7, None) {
            assert!(row.nb_identical, "NB differs at ratio {}", row.ratio);
            assert!(row.lr_identical, "LR differs at ratio {}", row.ratio);
            assert!(
                row.error < 0.35,
                "model should beat chance, got {}",
                row.error
            );
            assert_eq!(row.cells_avoided, 2_000 * 4);
        }
    }

    #[test]
    fn fanout_star_respects_ratio() {
        let star = fanout_star(1_000, 10, 3, 1);
        assert_eq!(star.n_s(), 1_000);
        assert_eq!(star.attributes()[0].n_rows(), 100);
        assert_eq!(star.attributes()[0].n_features(), 3);
    }
}
