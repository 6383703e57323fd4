//! The out-of-core data plane's two headline claims, emitted as
//! `BENCH_dataplane.json` at the repo root and gated in CI:
//!
//! * **(a) kernel speedup** — SuffStats / factorized count-fold builds
//!   through the cache-blocked morsel-parallel kernels are ≥2× faster
//!   than the pre-PR dense kernels (the naive per-row double-gather
//!   loops, replicated verbatim below as the baseline), bit-for-bit
//!   equal tables either way;
//! * **(b) budgeted ingest** — a CSV whose dense working set exceeds
//!   `HAMLET_MEM_BUDGET_MB` streams through the chunked ingester with
//!   peak heap growth under the budget, and the chunked statistics
//!   match the dense load's bit-for-bit.
//!
//! The bench binary installs the counting allocator so the peak numbers
//! are real. `HAMLET_BENCH_QUICK=1` shrinks both phases (the CI smoke
//! mode); emission is skipped under `--test` (the shim runs bench
//! bodies once, which would record nonsense timings).

use std::path::Path;
use std::time::Instant;

use criterion::{black_box, criterion_group, Criterion};

use hamlet_bench::report::{self, num};
use hamlet_bench::BENCH_SEED;
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_factorized::FactorizedView;
use hamlet_ml::{class_count_tables, Dataset, SuffStats};
use hamlet_obs::alloc::CountingAlloc;
use hamlet_obs::atomic_write;
use hamlet_obs::env::resolved_threads;
use hamlet_obs::json::{obj, Json};
use hamlet_relational::{read_csv_file_chunked, ColumnSpec, DirtyPolicy, IngestOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The pre-PR SuffStats build: one naive double-gather scan per
/// feature, strictly sequential — exactly the loop `SuffStats::table`
/// ran before the kernel refactor.
fn naive_tables(data: &Dataset, train: &[usize]) -> Vec<Vec<u64>> {
    let c = data.n_classes();
    let labels = data.labels();
    (0..data.n_features())
        .map(|f| {
            let feat = data.feature(f);
            let mut counts = vec![0u64; c * feat.domain_size];
            for &r in train {
                counts[labels[r] as usize * feat.domain_size + feat.codes[r] as usize] += 1;
            }
            counts
        })
        .collect()
}

/// Part (a): kernel speedup on Walmart at out-of-core scale.
fn measure_kernels(scale: f64, reps: usize) -> Json {
    let g = DatasetSpec::walmart().generate(scale, BENCH_SEED);
    let wide = g
        .star
        .materialize_all()
        .expect("synthetic star materializes");
    let data = Dataset::from_table(&wide);
    let train: Vec<usize> = (0..data.n_examples()).collect();
    let feats: Vec<usize> = (0..data.n_features()).collect();
    let threads = resolved_threads();

    let (naive_s, want) = report::time(reps, || naive_tables(&data, &train));
    let (kernel_s, got) = report::time(reps, || {
        let stats = SuffStats::new(&data, &train);
        stats.warm(&feats, threads);
        feats
            .iter()
            .map(|&f| stats.table(f).to_vec())
            .collect::<Vec<_>>()
    });
    assert_eq!(want, got, "kernel SuffStats tables diverged from naive");

    // The factorized count-fold over the star: the naive sequential
    // row loop over the materialized codes vs the count primitive over
    // the view (foreign features counted on the FK and folded).
    let view = FactorizedView::new(&g.star).expect("view over synthetic star");
    let (fold_naive_s, want_fold) = report::time(reps, || {
        feats
            .iter()
            .map(|&f| {
                let c = data.n_classes();
                let d = data.feature(f).domain_size;
                let mut counts = vec![0u64; c * d];
                for &r in &train {
                    counts[data.labels()[r] as usize * d + data.feature(f).codes[r] as usize] += 1;
                }
                counts
            })
            .collect::<Vec<_>>()
    });
    let (fold_kernel_s, got_fold) = report::time(reps, || {
        class_count_tables(&view, &feats, &train, threads).collect::<Vec<_>>()
    });
    assert_eq!(want_fold, got_fold, "factorized fold diverged from naive");

    obj(vec![
        ("dataset", "Walmart".into()),
        ("scale", scale.into()),
        ("rows", data.n_examples().into()),
        ("features", feats.len().into()),
        ("threads", threads.into()),
        ("suffstats_naive_s", num(naive_s, 4)),
        ("suffstats_kernel_s", num(kernel_s, 4)),
        ("suffstats_speedup", num(naive_s / kernel_s.max(1e-9), 2)),
        ("fold_naive_s", num(fold_naive_s, 4)),
        ("fold_kernel_s", num(fold_kernel_s, 4)),
        (
            "fold_speedup",
            num(fold_naive_s / fold_kernel_s.max(1e-9), 2),
        ),
    ])
}

/// Writes the part-(b) fixture CSV: `rows` lines of one nominal and two
/// numeric columns, deterministic values, no RNG.
fn write_fixture_csv(path: &Path, rows: usize) {
    let mut text = String::with_capacity(rows * 24);
    text.push_str("Dept,Price,Qty\n");
    for i in 0..rows {
        let dept = (i * 31 + 7) % 97;
        let price = (i % 1000) as f64 / 10.0;
        let qty = ((i * 13) % 500) as f64;
        text.push_str(&format!("d{dept},{price:.1},{qty:.0}\n"));
    }
    atomic_write(path, text.as_bytes()).expect("fixture CSV writes");
}

fn fixture_specs() -> Vec<(&'static str, ColumnSpec)> {
    vec![
        ("Dept", ColumnSpec::feature("Dept")),
        ("Price", ColumnSpec::numeric_feature("Price", 16)),
        ("Qty", ColumnSpec::numeric_feature("Qty", 16)),
    ]
}

/// Per-column histograms of a chunked load — the statistics used for
/// the parity diff; computed without densifying the table.
fn chunked_histograms(table: &hamlet_relational::ChunkedTable, threads: usize) -> Vec<Vec<u64>> {
    table
        .columns()
        .iter()
        .map(|c| c.histogram(threads).expect("chunk histogram"))
        .collect()
}

/// Part (b): budgeted streaming ingest with spill, peak heap growth
/// under the budget while the dense working set exceeds it.
fn measure_budgeted_ingest(rows: usize, budget_mb: usize) -> Json {
    let dir = std::env::temp_dir().join(format!("hamlet-dataplane-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let csv = dir.join("wide.csv");
    write_fixture_csv(&csv, rows);
    let budget = budget_mb * 1024 * 1024;
    let specs = fixture_specs();
    let policy = DirtyPolicy::Quarantine { max_bad_rows: 0 };
    let threads = resolved_threads();

    // Budgeted phase first, with the heap quiet: peak growth over the
    // phase baseline is the number under test.
    let baseline = hamlet_obs::alloc::current_bytes().unwrap_or(0);
    hamlet_obs::alloc::reset_peak();
    let opts = IngestOptions {
        morsel_rows: None,
        mem_budget: Some(budget),
        spill_dir: Some(dir.clone()),
    };
    let t = Instant::now();
    let budgeted =
        read_csv_file_chunked("wide", &csv, &specs, ',', policy, &opts).expect("budgeted ingest");
    let budgeted_hists = chunked_histograms(&budgeted.table, 1);
    let spilled = budgeted.table.is_spilled();
    let budgeted_rows = budgeted.table.n_rows();
    let budgeted_s = t.elapsed().as_secs_f64();
    let peak_delta = hamlet_obs::alloc::peak_bytes()
        .unwrap_or(0)
        .saturating_sub(baseline);
    drop(budgeted);

    // Dense working set: the pre-PR load shape (whole file in memory,
    // fully resident table), measured the same way.
    let baseline_dense = hamlet_obs::alloc::current_bytes().unwrap_or(0);
    hamlet_obs::alloc::reset_peak();
    let t = Instant::now();
    let dense = read_csv_file_chunked("wide", &csv, &specs, ',', policy, &IngestOptions::dense())
        .expect("dense ingest");
    let dense_table = dense.table.into_table().expect("densify");
    let dense_s = t.elapsed().as_secs_f64();
    let dense_delta = hamlet_obs::alloc::peak_bytes()
        .unwrap_or(0)
        .saturating_sub(baseline_dense);
    let dense_hists: Vec<Vec<u64>> = (0..dense_table.schema().len())
        .map(|c| {
            let col = dense_table.column(c);
            let mut h = vec![0u64; col.domain().size()];
            for &code in col.codes() {
                h[code as usize] += 1;
            }
            h
        })
        .collect();

    assert_eq!(
        budgeted_rows,
        dense_table.n_rows(),
        "row accounting diverged"
    );
    assert_eq!(budgeted_hists, dense_hists, "budgeted histograms diverged");
    assert!(
        spilled,
        "budget {budget_mb} MiB did not force a spill at {rows} rows"
    );
    assert!(
        peak_delta < budget,
        "budgeted ingest peaked at {peak_delta} bytes, over the {budget}-byte budget"
    );
    assert!(
        dense_delta > budget,
        "fixture too small: dense working set {dense_delta} bytes fits the {budget}-byte budget"
    );

    let _ = std::fs::remove_dir_all(&dir);
    obj(vec![
        ("rows", rows.into()),
        ("columns", 3usize.into()),
        ("budget_bytes", budget.into()),
        ("peak_delta_bytes", peak_delta.into()),
        ("dense_working_set_bytes", dense_delta.into()),
        ("spilled", spilled.into()),
        ("under_budget", (peak_delta < budget).into()),
        ("dense_over_budget", (dense_delta > budget).into()),
        ("budgeted_s", num(budgeted_s, 4)),
        ("dense_s", num(dense_s, 4)),
        ("threads", threads.into()),
    ])
}

fn summary() -> Json {
    hamlet_obs::alloc::install_meter(&ALLOC);
    // Committed numbers run Walmart at out-of-core scale 10 (≈4.2M
    // entity rows); the CI smoke run shrinks to full scale 1.0, still
    // far past the kernels' parallel threshold.
    let (scale, reps, rows, budget_mb) = if report::quick() {
        (1.0, 3, 600_000, 8)
    } else {
        (10.0, 3, 3_000_000, 32)
    };
    report::document(
        "dataplane",
        scale,
        vec![
            ("kernels", measure_kernels(scale, reps)),
            ("budgeted_ingest", measure_budgeted_ingest(rows, budget_mb)),
        ],
    )
}

fn bench_dataplane(c: &mut Criterion) {
    hamlet_obs::alloc::install_meter(&ALLOC);
    let g = DatasetSpec::walmart().generate(0.05, BENCH_SEED);
    let wide = g
        .star
        .materialize_all()
        .expect("synthetic star materializes");
    let data = Dataset::from_table(&wide);
    let train: Vec<usize> = (0..data.n_examples()).collect();
    let feats: Vec<usize> = (0..data.n_features()).collect();
    let threads = resolved_threads();

    let mut group = c.benchmark_group("dataplane");
    group.sample_size(10);
    group.bench_function("suffstats_naive", |b| {
        b.iter(|| black_box(naive_tables(&data, &train)))
    });
    group.bench_function("suffstats_kernels", |b| {
        b.iter(|| {
            let stats = SuffStats::new(&data, &train);
            stats.warm(&feats, threads);
            black_box(stats.table(feats[feats.len() - 1]).to_vec())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dataplane);

fn main() {
    benches();
    report::emit("dataplane", summary);
}
