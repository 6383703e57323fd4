//! Factorized vs materialized tree training across tuple ratios, plus a
//! short gradient-boosting run.
//!
//! The criterion groups time CART both ways (materialized variants
//! include the join + `Dataset` copy, factorized variants include
//! building the `FactorizedView`, mirroring `benches/factorized.rs`)
//! and a small GBT fit. Every factorized arm is asserted bit-for-bit
//! equal to its materialized twin before timing starts, so a parity
//! regression fails the bench instead of producing a fast wrong number.
//!
//! A release run also self-times the same shapes and emits
//! `BENCH_trees.json` at the repo root, GBT both ways:
//! `gbt_factorized_vs_materialized` is `gbt_factorized_s /
//! gbt_materialized_s` (below 1 means the factorized fit is faster,
//! even without counting the join the materialized arm pays for). The
//! header records the worker count the fits resolve. The emitted
//! shapes have 400k entity rows, or 100k under `HAMLET_BENCH_QUICK=1`
//! (the CI mode), and the header's `scale` is that count over 400k;
//! either way every fit takes tens of milliseconds.
//! Outside `cargo bench` the shim runs bench bodies once at the quick
//! shape and emission is skipped, so no test run rewrites the report.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};

use hamlet_bench::report::{self, num};
use hamlet_experiments::factorized::fanout_star;
use hamlet_factorized::FactorizedView;
use hamlet_ml::classifier::Classifier;
use hamlet_ml::dataset::Dataset;
use hamlet_ml::CodeSource;
use hamlet_obs::json::{obj, Json};
use hamlet_trees::{CartTree, Gbt};

const N_S: usize = 10_000;
const D_R: usize = 6;

/// Entity rows of the emitted shapes: large enough that every fit takes
/// tens of milliseconds, so the ratios are not timer noise.
const QUICK_EMIT_N_S: usize = 100_000;
const EMIT_N_S: usize = 400_000;

fn bench_trees(c: &mut Criterion) {
    let cart = CartTree::default();
    let gbt = Gbt {
        rounds: 5,
        ..Gbt::default()
    };

    let mut g = c.benchmark_group("trees");
    g.sample_size(10);
    for ratio in [1usize, 10, 100] {
        let star = fanout_star(N_S, ratio, D_R, 42);
        let rows: Vec<usize> = (0..star.n_s()).collect();

        // Parity gate: never time a factorized path that drifted.
        {
            let wide = star.materialize_all().unwrap();
            let data = Dataset::from_table(&wide);
            let feats: Vec<usize> = (0..data.n_features()).collect();
            let view = FactorizedView::new(&star).unwrap();
            assert_eq!(
                cart.fit(&data, &rows, &feats),
                cart.fit(&view, &rows, &feats),
                "CART parity broke at ratio {ratio}"
            );
            assert_eq!(
                gbt.fit(&data, &rows, &feats),
                gbt.fit(&view, &rows, &feats),
                "GBT parity broke at ratio {ratio}"
            );
        }

        g.bench_with_input(
            BenchmarkId::new("cart_materialized", ratio),
            &ratio,
            |b, _| {
                b.iter(|| {
                    let wide = star.materialize_all().unwrap();
                    let data = Dataset::from_table(&wide);
                    let feats: Vec<usize> = (0..data.n_features()).collect();
                    black_box(cart.fit(&data, &rows, &feats))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("cart_factorized", ratio),
            &ratio,
            |b, _| {
                b.iter(|| {
                    let view = FactorizedView::new(&star).unwrap();
                    let feats: Vec<usize> = (0..view.n_features()).collect();
                    black_box(cart.fit(&view, &rows, &feats))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("gbt_materialized", ratio),
            &ratio,
            |b, _| {
                b.iter(|| {
                    let wide = star.materialize_all().unwrap();
                    let data = Dataset::from_table(&wide);
                    let feats: Vec<usize> = (0..data.n_features()).collect();
                    black_box(gbt.fit(&data, &rows, &feats))
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("gbt_factorized", ratio), &ratio, |b, _| {
            b.iter(|| {
                let view = FactorizedView::new(&star).unwrap();
                let feats: Vec<usize> = (0..view.n_features()).collect();
                black_box(gbt.fit(&view, &rows, &feats))
            })
        });
    }
    g.finish();
}

fn summary() -> Json {
    let (n_s, reps) = if report::quick() {
        (QUICK_EMIT_N_S, 3)
    } else {
        (EMIT_N_S, 3)
    };
    let cart = CartTree::default();
    let gbt = Gbt::from_env();

    let mut entries = Vec::new();
    for ratio in [1usize, 10, 100] {
        let star = fanout_star(n_s, ratio, D_R, 42);
        let rows: Vec<usize> = (0..star.n_s()).collect();

        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let view = FactorizedView::new(&star).unwrap();
        assert_eq!(
            cart.fit(&data, &rows, &feats),
            cart.fit(&view, &rows, &feats),
            "CART parity broke at ratio {ratio}"
        );
        assert_eq!(
            gbt.fit(&data, &rows, &feats),
            gbt.fit(&view, &rows, &feats),
            "GBT parity broke at ratio {ratio}"
        );

        let (cart_mat_s, _) = report::time(reps, || {
            let wide = star.materialize_all().unwrap();
            let data = Dataset::from_table(&wide);
            let feats: Vec<usize> = (0..data.n_features()).collect();
            cart.fit(&data, &rows, &feats)
        });
        let (cart_fac_s, _) = report::time(reps, || {
            let view = FactorizedView::new(&star).unwrap();
            let feats: Vec<usize> = (0..view.n_features()).collect();
            cart.fit(&view, &rows, &feats)
        });
        let (gbt_mat_s, _) = report::time(reps, || {
            let wide = star.materialize_all().unwrap();
            let data = Dataset::from_table(&wide);
            let feats: Vec<usize> = (0..data.n_features()).collect();
            gbt.fit(&data, &rows, &feats)
        });
        let (gbt_fac_s, _) = report::time(reps, || {
            let view = FactorizedView::new(&star).unwrap();
            let feats: Vec<usize> = (0..view.n_features()).collect();
            gbt.fit(&view, &rows, &feats)
        });
        entries.push(obj(vec![
            ("tuple_ratio", ratio.into()),
            ("n_train", rows.len().into()),
            ("cart_materialized_s", num(cart_mat_s, 4)),
            ("cart_factorized_s", num(cart_fac_s, 4)),
            ("gbt_materialized_s", num(gbt_mat_s, 4)),
            ("gbt_factorized_s", num(gbt_fac_s, 4)),
            ("cart_speedup_factorized", num(cart_mat_s / cart_fac_s, 2)),
            (
                "gbt_factorized_vs_materialized",
                num(gbt_fac_s / gbt_mat_s, 2),
            ),
        ]));
    }
    report::document(
        "trees",
        n_s as f64 / EMIT_N_S as f64,
        vec![
            (
                "dataset",
                format!("fanout star (n_s {n_s}, d_r {D_R})").into(),
            ),
            ("model_family", "gbt".into()),
            ("gbt_rounds", gbt.rounds.into()),
            ("results", Json::Arr(entries)),
        ],
    )
}

criterion_group!(benches, bench_trees);

fn main() {
    benches();
    report::emit("trees", summary);
}
