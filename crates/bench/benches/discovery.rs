//! Schema-discovery throughput: mining the bench-scale Walmart corpus
//! (raw CSVs, no manifest) end to end — sketches, FK-edge proposal,
//! factorized FD verification, manifest synthesis. The headline claim is
//! the subsystem's join-avoidance discipline: mining cost scales with
//! per-table bytes, never with the joined width, so discovery stays
//! cheap exactly where materialized profiling would blow up.
//!
//! A release run also emits `BENCH_discovery.json` at the repo root
//! with the end-to-end wall-clock and a parity gate (the advisor verdict
//! over the discovered star must equal the declared-metadata verdict —
//! the bench aborts rather than record numbers for a wrong answer).
//! After the gate, two stage rows time the layers inside the run over
//! the same corpus: `ingest` (the all-nominal mining load of every
//! file) and `verify` (every FD check the run reported, re-run on the
//! loaded tables and required to reproduce its violation count). A
//! third, `ingest_yelp`, times the same mining load over the Yelp
//! corpus at `INGEST_YELP_SCALE` (full size, 17.6 MB): its two key
//! domains hold 11,537 and 43,873 labels, which its 215,879 review
//! rows reference in scattered order, where Walmart's dictionaries are
//! tiny. So it measures the label dictionary under cache pressure.
//! Ingest is single-threaded; the row says so.
//! `HAMLET_BENCH_QUICK=1` drops repetitions, as does every run outside
//! `cargo bench`, where emission is skipped too.

use std::collections::BTreeMap;
use std::path::Path;

use criterion::{black_box, criterion_group, Criterion};

use hamlet_bench::report::{self, num};
use hamlet_bench::{walmart, BENCH_SCALE, BENCH_SEED};
use hamlet_core::advisor::{advise, AdvisorConfig};
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_discovery::{check_fd, discover_corpus, DiscoveryConfig};
use hamlet_experiments::discovery::corpus_of;
use hamlet_obs::env::resolved_threads;
use hamlet_obs::json::{obj, Json};
use hamlet_relational::{csv_header, read_csv, ColumnSpec, Table};

/// Scale of the `ingest_yelp` stage's corpus: the full-size Yelp star,
/// the one `perfbench`'s `pipeline-yelp` ingests.
const INGEST_YELP_SCALE: f64 = 1.0;

fn config() -> DiscoveryConfig {
    DiscoveryConfig {
        target: Some("SalesLevel".to_string()),
        threads: resolved_threads(),
        ..DiscoveryConfig::default()
    }
}

fn bench_discovery(c: &mut Criterion) {
    let g = walmart();
    let corpus = corpus_of(&g.star);
    let cfg = config();
    let mut group = c.benchmark_group("discovery");
    group.sample_size(10);
    group.bench_function("walmart_end_to_end", |b| {
        b.iter(|| {
            let d = discover_corpus(black_box(&corpus), &cfg).unwrap();
            black_box(d)
        })
    });
    group.finish();
}

/// The mining load alone: every corpus file as an all-nominal table,
/// keyed by table name — the load `discover_corpus` starts with.
fn mining_loads(corpus: &BTreeMap<String, String>) -> BTreeMap<String, Table> {
    corpus
        .iter()
        .map(|(file, text)| {
            let name = file.trim_end_matches(".csv");
            let header = csv_header(text, ',').unwrap();
            let specs: Vec<(&str, ColumnSpec)> = header
                .iter()
                .map(|h| (h.as_str(), ColumnSpec::feature(h)))
                .collect();
            (name.to_string(), read_csv(name, text, &specs, ',').unwrap())
        })
        .collect()
}

/// Advisor verdicts keyed by FK column (table names change case across
/// the CSV round-trip; FK names do not).
fn verdicts(star: &hamlet_relational::StarSchema) -> Vec<(String, bool)> {
    let report = advise(star, star.n_s() / 2, &AdvisorConfig::default()).unwrap();
    let mut rows: Vec<(String, bool)> = report
        .joins
        .iter()
        .map(|j| (j.fk.clone(), j.avoid))
        .collect();
    rows.sort();
    rows
}

fn summary() -> Json {
    let reps = if report::quick() { 3 } else { 7 };
    let g = walmart();
    let corpus = corpus_of(&g.star);
    let cfg = config();

    // Parity gate: never record numbers for a wrong answer.
    let d = discover_corpus(&corpus, &cfg).unwrap();
    assert_eq!(
        d.report.accepted_fks().count(),
        g.star.k(),
        "discovery bench: edge recall broke"
    );
    let discovered_star = d
        .manifest
        .load_with(Path::new(""), |p| {
            corpus
                .get(&p.to_string_lossy().into_owned())
                .cloned()
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
        })
        .unwrap();
    assert_eq!(
        verdicts(&g.star),
        verdicts(&discovered_star),
        "discovery bench: advisor parity broke"
    );

    // Stage parity: the verify stage re-runs exactly the reported checks.
    let tables = mining_loads(&corpus);
    let verify_all = || {
        d.report
            .fds
            .iter()
            .map(|f| check_fd(&tables[&f.table], &f.determinant, &f.dependent).unwrap())
            .collect::<Vec<_>>()
    };
    for (f, c) in d.report.fds.iter().zip(verify_all()) {
        assert_eq!(
            c.violations, f.violations,
            "discovery bench: FD parity broke"
        );
    }

    let corpus_bytes: usize = corpus.values().map(String::len).sum();
    let mb_per_s = |s: f64| corpus_bytes as f64 / 1e6 / s;
    let (end_to_end_s, _) = report::time(reps, || discover_corpus(&corpus, &cfg).unwrap());
    let (ingest_s, _) = report::time(reps, || mining_loads(&corpus));
    let (verify_s, _) = report::time(reps, verify_all);

    let yelp = corpus_of(
        &DatasetSpec::yelp()
            .generate(INGEST_YELP_SCALE, BENCH_SEED)
            .star,
    );
    let yelp_bytes: usize = yelp.values().map(String::len).sum();
    let yelp_labels: usize = mining_loads(&yelp)
        .values()
        .flat_map(|t| t.columns())
        .map(|c| c.domain().size())
        .sum();
    let (ingest_yelp_s, _) = report::time(reps, || mining_loads(&yelp));
    let stage = |name: &str, median_s: f64, rest: Vec<(&str, Json)>| {
        let head = [("stage", name.into()), ("median_s", num(median_s, 5))];
        obj(head.into_iter().chain(rest).collect())
    };
    let results = vec![
        stage(
            "end_to_end",
            end_to_end_s,
            vec![
                ("mb_per_s", num(mb_per_s(end_to_end_s), 1)),
                ("edges_recovered", d.report.accepted_fks().count().into()),
                ("fds_verified", d.report.accepted_fds().count().into()),
                ("advisor_parity", "exact".into()),
            ],
        ),
        stage(
            "ingest",
            ingest_s,
            vec![("mb_per_s", num(mb_per_s(ingest_s), 1))],
        ),
        stage(
            "verify",
            verify_s,
            vec![("fd_checks", d.report.fds.len().into())],
        ),
        stage(
            "ingest_yelp",
            ingest_yelp_s,
            vec![
                ("scale", INGEST_YELP_SCALE.into()),
                ("threads", 1usize.into()),
                ("corpus_bytes", yelp_bytes.into()),
                ("distinct_labels", yelp_labels.into()),
                ("mb_per_s", num(yelp_bytes as f64 / 1e6 / ingest_yelp_s, 1)),
            ],
        ),
    ];
    report::document(
        "discovery",
        BENCH_SCALE,
        vec![
            ("dataset", "Walmart (bench scale)".into()),
            ("model_family", "naive_bayes".into()),
            ("tables", corpus.len().into()),
            ("corpus_bytes", corpus_bytes.into()),
            ("entity_rows", g.star.n_s().into()),
            ("results", Json::Arr(results)),
        ],
    )
}

criterion_group!(benches, bench_discovery);

fn main() {
    benches();
    report::emit("discovery", summary);
}
