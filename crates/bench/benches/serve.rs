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
//! shapes with `Instant` and emits `BENCH_serve.json` at the repo root
//! so CI and the docs can quote served-prediction latency without
//! parsing criterion output. Emission is skipped under `--test` (the
//! shim runs bench bodies once, which would record nonsense timings).

use std::path::Path;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hamlet_bench::{walmart, yelp};
use hamlet_core::advisor::AdvisorConfig;
use hamlet_core::ModelFamily;
use hamlet_obs::atomic_write;
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
fn median_micros<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median-of-runs wall-clock for `predict_codes` over `rows`, in
/// microseconds.
fn time_micros(scorer: &Scorer, rows: &[Vec<u32>], reps: usize) -> f64 {
    median_micros(reps, || scorer.predict_codes(rows).unwrap())
}

/// The end-to-end body section: per-stage and total medians for one
/// `BODY_ROWS`-row Yelp GBT request.
fn body_summary() -> String {
    let (scorer, body) = yelp_gbt_body();
    let response = respond(&scorer, &body);
    let (batch, _) = scorer.decode_body(&body, false).unwrap();
    let scored = scorer.score(&batch);
    let reps = 200;
    let decode_us = median_micros(reps, || scorer.decode_body(&body, false).unwrap().0);
    let score_us = median_micros(reps, || scorer.score(&batch));
    let render_us = median_micros(reps, || scorer.render(&scored, false));
    let total_us = median_micros(reps, || respond(&scorer, &body));
    format!(
        "{{\"dataset\": \"Yelp (bench scale)\", \"family\": \"gbt\", \
         \"n_features\": {}, \"rows\": {BODY_ROWS}, \"body_bytes\": {}, \
         \"response_bytes\": {}, \"decode_us\": {decode_us:.1}, \"score_us\": {score_us:.1}, \
         \"render_us\": {render_us:.1}, \"end_to_end_us\": {total_us:.1}, \
         \"rows_per_sec\": {:.0}}}",
        scorer.artifact().features.len(),
        body.len(),
        response.len(),
        BODY_ROWS as f64 / (total_us / 1e6),
    )
}

/// Emit BENCH_serve.json at the repo root (hand-rolled JSON, matching
/// the other BENCH_*.json emitters).
fn emit_summary() {
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
        let single_us = time_micros(&scorer, &one, 200);
        let batch_us = time_micros(&scorer, &batch, 30);
        entries.push(format!(
            "  {{\"family\": \"{}\", \"n_features\": {}, \"single_row_us\": {:.3}, \
             \"batch_1k_us\": {:.1}, \"batch_rows_per_sec\": {:.0}}}",
            kind.name(),
            scorer.artifact().features.len(),
            single_us,
            batch_us,
            1000.0 / (batch_us / 1e6),
        ));
    }
    // Artifact load: the file read, parse and checksum of one NB
    // artifact through artifact::load.
    let g = walmart();
    let built = build_artifact(
        &g.star,
        ModelKind::NaiveBayes,
        &AdvisorConfig::default(),
        "Walmart",
    )
    .unwrap_or_else(|e| panic!("bench artifact build failed: {e}"));
    let path = std::env::temp_dir().join("hamlet_bench_serve_artifact.json");
    hamlet_serve::artifact::save(&built.artifact, &path)
        .unwrap_or_else(|e| panic!("bench artifact save failed: {e}"));
    let load_us = median_micros(200, || hamlet_serve::artifact::load(&path).unwrap());
    let artifact_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    std::fs::remove_file(&path).ok();
    // Every arm scores on the calling thread.
    let doc = format!(
        "{{\n\"bench\": \"serve\",\n\"dataset\": \"Walmart (bench scale)\",\n\
         \"model_family\": \"mixed\",\n\"threads\": 1,\n\"results\": [\n{}\n],\n\
         \"body_e2e\": {},\n\
         \"artifact_load\": {{\"artifact_bytes\": {artifact_bytes}, \
         \"load_us\": {load_us:.1}}}\n}}\n",
        entries.join(",\n"),
        body_summary(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    if let Err(e) = atomic_write(Path::new(path), doc.as_bytes()) {
        eprintln!("BENCH_serve.json not written: {e}");
    } else {
        eprintln!("wrote {path}");
    }
}

fn bench_serve_and_emit(c: &mut Criterion) {
    bench_serve(c);
    if !std::env::args().any(|a| a == "--test") {
        emit_summary();
    }
}

criterion_group!(benches, bench_serve_and_emit);
criterion_main!(benches);
