//! Serving-path latency: single-row and batch-1k scoring through the
//! artifact `Scorer` for Naive Bayes and logistic regression on the
//! bench-scale Walmart star (both joins avoided, so the served schema is
//! the entity table's own features plus the two revised FKs). The
//! summary pass additionally times the tree and GBT families, and one
//! request end to end: a 256-row positional body for the bench-scale
//! Yelp GBT (no join avoided, 40 features), from body text to response
//! text through decode, score and render.
//!
//! Besides the criterion groups, a release run self-times the same
//! shapes and emits `BENCH_serve.json` at the repo root so CI and the
//! docs can quote served-prediction latency without parsing criterion
//! output. Outside `cargo bench` the shim runs bench bodies once and
//! emission is skipped, so no test run rewrites the report.

use criterion::{black_box, criterion_group, Criterion};

use hamlet_bench::report::{self, num};
use hamlet_bench::{walmart, yelp, BENCH_SCALE};
use hamlet_core::advisor::AdvisorConfig;
use hamlet_core::ModelFamily;
use hamlet_obs::json::{obj, Json};
use hamlet_serve::{build_artifact, ModelKind, Scorer};

/// Rows in the end-to-end request body.
const BODY_ROWS: usize = 256;

/// Build a scorer for one family over the bench Walmart star.
fn scorer_for(kind: ModelKind) -> Scorer {
    let g = walmart();
    let built = build_artifact(&g.star, kind, &AdvisorConfig::default(), "Walmart")
        .unwrap_or_else(|e| panic!("bench artifact build failed: {e}"));
    Scorer::new(built.artifact)
}

/// Deterministic in-domain rows drawn from the artifact's own schema.
fn rows_for(scorer: &Scorer, n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|r| {
            scorer
                .artifact()
                .features
                .iter()
                .enumerate()
                .map(|(f, def)| ((r * 31 + f * 7) % def.domain_size) as u32)
                .collect()
        })
        .collect()
}

/// The bench-scale Yelp GBT scorer and a positional request body of
/// `BODY_ROWS` rows drawn from its schema.
fn yelp_gbt_body() -> (Scorer, String) {
    let g = yelp();
    let built = build_artifact(
        &g.star,
        ModelKind::Gbt,
        &AdvisorConfig::for_family(ModelFamily::Gbt),
        "Yelp",
    )
    .unwrap_or_else(|e| panic!("bench artifact build failed: {e}"));
    let scorer = Scorer::new(built.artifact);
    let rows: Vec<String> = rows_for(&scorer, BODY_ROWS)
        .iter()
        .map(|r| {
            let codes: Vec<String> = r.iter().map(u32::to_string).collect();
            format!("[{}]", codes.join(","))
        })
        .collect();
    let body = format!("[{}]", rows.join(","));
    (scorer, body)
}

/// One request end to end: body text in, response text out.
fn respond(scorer: &Scorer, body: &str) -> String {
    let (batch, _) = scorer.decode_body(body, false).unwrap();
    scorer.render(&scorer.score(&batch), false)
}

fn bench_serve(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(20);
    let (scorer, body) = yelp_gbt_body();
    g.bench_function("body_256_yelp_gbt", |b| {
        b.iter(|| black_box(respond(&scorer, black_box(&body))))
    });
    for kind in [ModelKind::NaiveBayes, ModelKind::LogisticRegression] {
        let scorer = scorer_for(kind);
        let one = rows_for(&scorer, 1);
        let batch = rows_for(&scorer, 1000);

        g.bench_function(format!("single_row_{}", kind.name()), |b| {
            b.iter(|| {
                let preds = scorer.predict_codes(black_box(&one)).unwrap();
                black_box(preds)
            })
        });
        g.bench_function(format!("batch_1k_{}", kind.name()), |b| {
            b.iter(|| {
                let preds = scorer.predict_codes(black_box(&batch)).unwrap();
                black_box(preds)
            })
        });
    }
    g.finish();
}

/// Median-of-runs wall-clock of `f`, in microseconds.
fn micros<O>(reps: usize, f: impl FnMut() -> O) -> f64 {
    report::time(reps, f).0 * 1e6
}

/// The end-to-end body section: per-stage and total medians for one
/// `BODY_ROWS`-row Yelp GBT request.
fn body_summary() -> Json {
    let (scorer, body) = yelp_gbt_body();
    let response = respond(&scorer, &body);
    let (batch, _) = scorer.decode_body(&body, false).unwrap();
    let scored = scorer.score(&batch);
    let reps = 200;
    let decode_us = micros(reps, || scorer.decode_body(&body, false).unwrap().0);
    let score_us = micros(reps, || scorer.score(&batch));
    let render_us = micros(reps, || scorer.render(&scored, false));
    let total_us = micros(reps, || respond(&scorer, &body));
    obj(vec![
        ("dataset", "Yelp (bench scale)".into()),
        ("family", "gbt".into()),
        ("n_features", scorer.artifact().features.len().into()),
        ("rows", BODY_ROWS.into()),
        ("body_bytes", body.len().into()),
        ("response_bytes", response.len().into()),
        ("decode_us", num(decode_us, 1)),
        ("score_us", num(score_us, 1)),
        ("render_us", num(render_us, 1)),
        ("end_to_end_us", num(total_us, 1)),
        ("rows_per_sec", num(BODY_ROWS as f64 / (total_us / 1e6), 0)),
    ])
}

fn summary() -> Json {
    let mut entries = Vec::new();
    for kind in [
        ModelKind::NaiveBayes,
        ModelKind::LogisticRegression,
        ModelKind::Tree,
        ModelKind::Gbt,
    ] {
        let scorer = scorer_for(kind);
        let one = rows_for(&scorer, 1);
        let batch = rows_for(&scorer, 1000);
        // Warm up caches before timing.
        let _ = scorer.predict_codes(&batch);
        let single_us = micros(200, || scorer.predict_codes(&one).unwrap());
        let batch_us = micros(30, || scorer.predict_codes(&batch).unwrap());
        entries.push(obj(vec![
            ("family", kind.name().into()),
            ("n_features", scorer.artifact().features.len().into()),
            ("single_row_us", num(single_us, 3)),
            ("batch_1k_us", num(batch_us, 1)),
            ("batch_rows_per_sec", num(1000.0 / (batch_us / 1e6), 0)),
        ]));
    }
    // Artifact round trip of one NB artifact: artifact::save (render,
    // checksum, atomic write) and artifact::load (file read, checksum,
    // decode).
    let g = walmart();
    let built = build_artifact(
        &g.star,
        ModelKind::NaiveBayes,
        &AdvisorConfig::default(),
        "Walmart",
    )
    .unwrap_or_else(|e| panic!("bench artifact build failed: {e}"));
    let path = std::env::temp_dir().join("hamlet_bench_serve_artifact.json");
    let save = || hamlet_serve::artifact::save(&built.artifact, &path);
    save().unwrap_or_else(|e| panic!("bench artifact save failed: {e}"));
    let save_us = micros(200, || save().unwrap());
    let load_us = micros(200, || hamlet_serve::artifact::load(&path).unwrap());
    let artifact_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&path).ok();
    // Every arm scores on the calling thread; the header's `threads` is
    // the resolved worker count, as in every report.
    report::document(
        "serve",
        BENCH_SCALE,
        vec![
            ("dataset", "Walmart (bench scale)".into()),
            ("model_family", "mixed".into()),
            ("results", Json::Arr(entries)),
            ("body_e2e", body_summary()),
            (
                "artifact_load",
                obj(vec![
                    ("artifact_bytes", artifact_bytes.into()),
                    ("save_us", num(save_us, 1)),
                    ("load_us", num(load_us, 1)),
                ]),
            ),
        ],
    )
}

criterion_group!(benches, bench_serve);

fn main() {
    benches();
    report::emit("serve", summary);
}
