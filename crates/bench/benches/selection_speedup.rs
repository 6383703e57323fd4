//! The sufficient-statistics engine's speedup claim: greedy wrapper
//! selection with Naive Bayes, seed path (serial, one full row-scanning
//! fit per candidate) vs [`hamlet_fs::SweepEngine`] (cached count
//! tables, O(1) candidate assembly, parallel sweeps).
//!
//! Besides the criterion groups (bench scale, so iterations stay tight),
//! a release run self-times the wrappers at Fig-7 scale and emits
//! `BENCH_selection.json` at the repo root: wall-clock per wrapper ×
//! {uncached serial, cached serial, cached parallel at the report's
//! `threads`} plus the headline speedup. `HAMLET_BENCH_QUICK=1` drops the emission to bench
//! scale with fewer reps (the CI smoke mode, and every run outside
//! `cargo bench`, where the shim runs bench bodies once and emission is
//! skipped).

use criterion::{black_box, criterion_group, Criterion};

use hamlet_bench::report::{self, num};
use hamlet_bench::{walmart, BENCH_SEED};
use hamlet_core::planner::{plan, PlanKind};
use hamlet_core::rules::TrRule;
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_experiments::{prepare_plan, PreparedPlan};
use hamlet_fs::{reference, Method, SelectionContext, SweepEngine};
use hamlet_ml::naive_bayes::NaiveBayes;
use hamlet_obs::env::resolved_threads;
use hamlet_obs::json::{obj, Json};

/// JoinAll on Walmart: the widest input (entity features + both FKs +
/// both attribute tables), i.e. the shape where candidate sweeps are
/// most expensive.
fn prepared_join_all(scale: f64) -> PreparedPlan {
    let g = DatasetSpec::walmart().generate(scale, BENCH_SEED);
    let n_train = g.star.n_s() / 2;
    let p = plan(&g.star, PlanKind::JoinAll, &TrRule::default(), n_train);
    prepare_plan(&g.star, p, BENCH_SEED).expect("synthetic star materializes")
}

fn ctx_of<'a>(p: &'a PreparedPlan, nb: &'a NaiveBayes) -> SelectionContext<'a, NaiveBayes> {
    SelectionContext {
        data: &p.data,
        train: &p.split.train,
        validation: &p.split.validation,
        classifier: nb,
        metric: p.metric,
    }
}

fn bench_selection_speedup(c: &mut Criterion) {
    let nb = NaiveBayes::default();
    let g = walmart();
    let n_train = g.star.n_s() / 2;
    let p = plan(&g.star, PlanKind::JoinAll, &TrRule::default(), n_train);
    let prepared = prepare_plan(&g.star, p, BENCH_SEED).expect("synthetic star materializes");
    let candidates: Vec<usize> = (0..prepared.data.n_features()).collect();
    let threads = resolved_threads();

    let mut group = c.benchmark_group("selection_speedup");
    group.sample_size(10);
    for method in [Method::Forward, Method::Backward] {
        let ctx = ctx_of(&prepared, &nb);
        group.bench_function(format!("{}_uncached_serial", method.name()), |b| {
            b.iter(|| black_box(reference::run_method(method, &ctx, &candidates)))
        });
        group.bench_function(format!("{}_cached_serial", method.name()), |b| {
            b.iter(|| {
                let engine = SweepEngine::new(&ctx).with_threads(1);
                black_box(method.run_with(&engine, &candidates))
            })
        });
        group.bench_function(format!("{}_cached_parallel", method.name()), |b| {
            b.iter(|| {
                let engine = SweepEngine::new(&ctx).with_threads(threads);
                black_box(method.run_with(&engine, &candidates))
            })
        });
    }
    group.finish();
}

fn summary() -> Json {
    // Fig-7 scale (HAMLET_SCALE default 0.1) for the committed numbers;
    // bench scale for the CI smoke run.
    let (scale, reps) = if report::quick() { (0.01, 3) } else { (0.1, 3) };
    let prepared = prepared_join_all(scale);
    let nb = NaiveBayes::default();
    let ctx = ctx_of(&prepared, &nb);
    let candidates: Vec<usize> = (0..prepared.data.n_features()).collect();
    let threads = resolved_threads();

    let mut entries = Vec::new();
    for method in [Method::Forward, Method::Backward] {
        let (uncached_s, r_uncached) =
            report::time(reps, || reference::run_method(method, &ctx, &candidates));
        let (cached_serial_s, r_serial) = report::time(reps, || {
            let engine = SweepEngine::new(&ctx).with_threads(1);
            method.run_with(&engine, &candidates)
        });
        let (cached_parallel_s, r_parallel) = report::time(reps, || {
            let engine = SweepEngine::new(&ctx).with_threads(threads);
            method.run_with(&engine, &candidates)
        });
        assert_eq!(
            r_uncached,
            r_serial,
            "{}: cached path diverged",
            method.name()
        );
        assert_eq!(
            r_uncached,
            r_parallel,
            "{}: parallel path diverged",
            method.name()
        );
        entries.push(obj(vec![
            ("method", method.name().into()),
            ("candidates", candidates.len().into()),
            ("model_fits", r_uncached.model_fits.into()),
            ("uncached_serial_s", num(uncached_s, 4)),
            ("cached_serial_s", num(cached_serial_s, 4)),
            ("cached_parallel_s", num(cached_parallel_s, 4)),
            (
                "speedup_cached_parallel",
                num(uncached_s / cached_parallel_s, 2),
            ),
        ]));
    }
    report::document(
        "selection",
        scale,
        vec![
            (
                "dataset",
                format!("Walmart (scale {scale}, JoinAll)").into(),
            ),
            ("classifier", "NaiveBayes".into()),
            ("model_family", "naive_bayes".into()),
            ("n_train", prepared.split.train.len().into()),
            ("results", Json::Arr(entries)),
        ],
    )
}

criterion_group!(benches, bench_selection_speedup);

fn main() {
    benches();
    report::emit("selection", summary);
}
