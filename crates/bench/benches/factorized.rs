//! Factorized vs materialized training cost across tuple ratios.
//!
//! For each `n_S/n_R ∈ {1, 10, 100}`, benches both trainers (naive
//! Bayes, logistic regression) both ways. The materialized variants
//! include the join + `Dataset` copy, because that is what the
//! strategy actually costs end to end; the factorized variants include
//! building the `FactorizedView` (per-FK index) for the same reason.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hamlet_experiments::factorized::fanout_star;
use hamlet_factorized::FactorizedView;
use hamlet_ml::classifier::Classifier;
use hamlet_ml::dataset::Dataset;
use hamlet_ml::logreg::LogisticRegression;
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_ml::CodeSource;

const N_S: usize = 20_000;
const D_R: usize = 8;

fn bench_factorized(c: &mut Criterion) {
    let nb = NaiveBayes::default();
    let lr = LogisticRegression::default().with_epochs(2);

    let mut g = c.benchmark_group("factorized");
    g.throughput(Throughput::Elements(N_S as u64));
    g.sample_size(10);
    for ratio in [1usize, 10, 100] {
        let star = fanout_star(N_S, ratio, D_R, 42);
        let rows: Vec<usize> = (0..star.n_s()).collect();

        g.bench_with_input(
            BenchmarkId::new("nb_materialized", ratio),
            &ratio,
            |b, _| {
                b.iter(|| {
                    let wide = star.materialize_all().unwrap();
                    let data = Dataset::from_table(&wide);
                    let feats: Vec<usize> = (0..data.n_features()).collect();
                    black_box(nb.fit(&data, &rows, &feats))
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("nb_factorized", ratio), &ratio, |b, _| {
            b.iter(|| {
                let view = FactorizedView::new(&star).unwrap();
                let feats: Vec<usize> = (0..view.n_features()).collect();
                black_box(nb.fit(&view, &rows, &feats))
            })
        });
        g.bench_with_input(
            BenchmarkId::new("logreg_materialized", ratio),
            &ratio,
            |b, _| {
                b.iter(|| {
                    let wide = star.materialize_all().unwrap();
                    let data = Dataset::from_table(&wide);
                    let feats: Vec<usize> = (0..data.n_features()).collect();
                    black_box(lr.fit(&data, &rows, &feats))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("logreg_factorized", ratio),
            &ratio,
            |b, _| {
                b.iter(|| {
                    let view = FactorizedView::new(&star).unwrap();
                    let feats: Vec<usize> = (0..view.n_features()).collect();
                    black_box(lr.fit(&view, &rows, &feats))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_factorized);
criterion_main!(benches);
