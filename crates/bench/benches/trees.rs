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
//! A release run also self-times the same shapes with `Instant` and
//! emits `BENCH_trees.json` at the repo root, GBT both ways:
//! `gbt_factorized_vs_materialized` is `gbt_factorized_s /
//! gbt_materialized_s` (below 1 means the factorized fit is faster,
//! even without counting the join the materialized arm pays for). The
//! header records the worker count the fits resolved. The emitted
//! shapes have 400k entity rows, or 100k under `HAMLET_BENCH_QUICK=1`
//! (the CI mode); either way every fit takes tens of milliseconds.
//! Emission is skipped under `--test` (the shim runs bench bodies once,
//! which would record nonsense timings).

use std::path::Path;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use hamlet_experiments::factorized::fanout_star;
use hamlet_factorized::FactorizedView;
use hamlet_ml::classifier::Classifier;
use hamlet_ml::dataset::Dataset;
use hamlet_ml::CodeSource;
use hamlet_obs::atomic_write;
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

/// Median-of-runs wall-clock of `f`, in seconds.
fn time_secs<T, F: FnMut() -> T>(mut f: F, reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Emit BENCH_trees.json at the repo root (hand-rolled JSON, matching
/// the other BENCH_*.json emitters).
fn emit_summary() {
    let quick = std::env::var("HAMLET_BENCH_QUICK").is_ok_and(|v| v == "1");
    let (n_s, reps) = if quick {
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

        let cart_mat_s = time_secs(
            || {
                let wide = star.materialize_all().unwrap();
                let data = Dataset::from_table(&wide);
                let feats: Vec<usize> = (0..data.n_features()).collect();
                cart.fit(&data, &rows, &feats)
            },
            reps,
        );
        let cart_fac_s = time_secs(
            || {
                let view = FactorizedView::new(&star).unwrap();
                let feats: Vec<usize> = (0..view.n_features()).collect();
                cart.fit(&view, &rows, &feats)
            },
            reps,
        );
        let gbt_mat_s = time_secs(
            || {
                let wide = star.materialize_all().unwrap();
                let data = Dataset::from_table(&wide);
                let feats: Vec<usize> = (0..data.n_features()).collect();
                gbt.fit(&data, &rows, &feats)
            },
            reps,
        );
        let gbt_fac_s = time_secs(
            || {
                let view = FactorizedView::new(&star).unwrap();
                let feats: Vec<usize> = (0..view.n_features()).collect();
                gbt.fit(&view, &rows, &feats)
            },
            reps,
        );
        entries.push(format!(
            "  {{\"tuple_ratio\": {ratio}, \"n_train\": {}, \
             \"cart_materialized_s\": {cart_mat_s:.4}, \
             \"cart_factorized_s\": {cart_fac_s:.4}, \
             \"gbt_materialized_s\": {gbt_mat_s:.4}, \
             \"gbt_factorized_s\": {gbt_fac_s:.4}, \
             \"cart_speedup_factorized\": {:.2}, \
             \"gbt_factorized_vs_materialized\": {:.2}}}",
            rows.len(),
            cart_mat_s / cart_fac_s,
            gbt_fac_s / gbt_mat_s,
        ));
    }
    let doc = format!(
        "{{\n\"bench\": \"trees\",\n\"dataset\": \"fanout star (n_s {n_s}, d_r {D_R})\",\n\
         \"model_family\": \"gbt\",\n\"gbt_rounds\": {},\n\"threads\": {},\n\
         \"results\": [\n{}\n]\n}}\n",
        gbt.rounds,
        gbt.threads
            .unwrap_or_else(hamlet_obs::env::resolved_threads),
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trees.json");
    if let Err(e) = atomic_write(Path::new(path), doc.as_bytes()) {
        eprintln!("BENCH_trees.json not written: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}

fn bench_trees_and_emit(c: &mut Criterion) {
    bench_trees(c);
    if !std::env::args().any(|a| a == "--test") {
        emit_summary();
    }
}

criterion_group!(benches, bench_trees_and_emit);
criterion_main!(benches);
