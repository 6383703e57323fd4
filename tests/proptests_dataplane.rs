//! Property-based tests for the out-of-core data plane: the chunked
//! columnar path (scans, joins, count kernels, streaming ingest) must
//! be **bit-for-bit** the dense path at any chunk size, any memory
//! budget, and any `HAMLET_THREADS` — and chaos-corrupted streams must
//! account for every row without ever panicking.

use std::collections::BTreeMap;
use std::io::Cursor;

use proptest::prelude::any_bool;
use proptest::prelude::*;

use hamlet::chaos::{corrupt_corpus, ChaosPlan, FileProfile};
use hamlet::ml::{class_count_table, Dataset, Feature};
use hamlet::relational::{
    read_csv_chunked, read_csv_lenient, ChunkedColumn, Column, ColumnSpec, DirtyPolicy, Domain,
    IngestOptions,
};

/// A throwaway spill parent under the OS temp dir, unique per test
/// case; RAII in the library removes the per-ingest subdirectories, the
/// test removes the parent.
fn spill_parent(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hamlet-proptest-dataplane-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Renders a small CSV with one nominal and one numeric column from
/// proptest-drawn rows.
fn csv_of(rows: &[(u8, i16)]) -> String {
    let mut text = String::from("Dept,Price\n");
    for &(d, p) in rows {
        text.push_str(&format!("d{},{}.5\n", d % 23, p));
    }
    text
}

fn specs() -> Vec<(&'static str, ColumnSpec)> {
    vec![
        ("Dept", ColumnSpec::feature("Dept")),
        ("Price", ColumnSpec::numeric_feature("Price", 8)),
    ]
}

proptest! {
    /// Chunked column round-trip, scans, and joins at arbitrary chunk
    /// sizes equal the dense forms bit-for-bit, at 1 and 8 threads.
    #[test]
    fn chunked_scans_and_joins_match_dense(
        codes in proptest::collection::vec(0..7u32, 1..300),
        fks in proptest::collection::vec(0..40u32, 0..200),
        chunk_rows in 1..64usize,
    ) {
        let attr = Column::new(Domain::indexed("attr", 7).shared(), codes.clone()).unwrap();
        let chunked = ChunkedColumn::from_column(attr.clone(), chunk_rows);
        let round = chunked.to_column().unwrap();
        prop_assert_eq!(round.codes(), attr.codes());

        // Scan: per-code histogram, thread-invariant.
        let mut dense_hist = vec![0u64; 7];
        for &c in attr.codes() {
            dense_hist[c as usize] += 1;
        }
        prop_assert_eq!(chunked.histogram(1).unwrap(), dense_hist.clone());
        prop_assert_eq!(chunked.histogram(8).unwrap(), dense_hist);

        // Join: gathering attribute codes through a *chunked* FK column
        // equals the dense gather.
        let fks: Vec<u32> = fks.into_iter().map(|f| f % codes.len() as u32).collect();
        let fk_col = Column::new(
            Domain::indexed("fk", codes.len()).shared(),
            fks.clone(),
        ).unwrap();
        let fk_chunked = ChunkedColumn::from_column(fk_col, chunk_rows);
        let dense_gather = attr.gather(&fks);
        let chunked_gather =
            hamlet::relational::gather_chunks(&fk_chunked, &attr).unwrap();
        prop_assert_eq!(chunked_gather.codes(), dense_gather.codes());
    }

    /// The count primitive (contiguous and gathered row sets, the
    /// SuffStats building block) equals the naive per-row scan at any
    /// thread count, over arbitrary label/code vectors.
    #[test]
    fn count_kernels_match_naive_scan(
        pairs in proptest::collection::vec((0..4u32, 0..9u32), 0..500),
        keep in proptest::collection::vec(any_bool(), 0..500),
    ) {
        let labels: Vec<u32> = pairs.iter().map(|&(y, _)| y).collect();
        let codes: Vec<u32> = pairs.iter().map(|&(_, v)| v).collect();
        let data = Dataset::new(
            vec![Feature { name: "x".into(), domain_size: 9, codes: codes.clone() }],
            labels.clone(),
            4,
        );
        let all: Vec<usize> = (0..pairs.len()).collect();
        let mut want = vec![0u64; 4 * 9];
        for (&y, &v) in labels.iter().zip(&codes) {
            want[y as usize * 9 + v as usize] += 1;
        }
        for threads in [1, 8] {
            prop_assert_eq!(class_count_table(&data, 0, &all, threads), want.clone());
        }
        let rows: Vec<usize> = (0..pairs.len())
            .filter(|&i| *keep.get(i).unwrap_or(&false))
            .collect();
        let mut want_sub = vec![0u64; 4 * 9];
        for &r in &rows {
            want_sub[labels[r] as usize * 9 + codes[r] as usize] += 1;
        }
        for threads in [1, 8] {
            prop_assert_eq!(class_count_table(&data, 0, &rows, threads), want_sub.clone());
        }
    }

    /// Streaming ingest at any morsel size — with or without a
    /// spill-forcing budget — produces the same table, quarantine, and
    /// row accounting as the dense reader, and cleans up its spill
    /// files once densified.
    #[test]
    fn budgeted_streams_match_dense_reader(
        rows in proptest::collection::vec((0..30u8, -99..99i16), 1..120),
        morsel_rows in 1..40usize,
        budget_raw in 0..4096usize,
    ) {
        // Below 64 stands in for "no budget" (the dense path); above it
        // the tiny budget forces morsel shrink and spill.
        let budget = if budget_raw < 64 { None } else { Some(budget_raw) };
        let text = csv_of(&rows);
        let specs = specs();
        let policy = DirtyPolicy::Quarantine { max_bad_rows: usize::MAX };
        let dense = read_csv_lenient("t", &text, &specs, ',', policy).unwrap();

        let parent = spill_parent("stream");
        let opts = IngestOptions {
            morsel_rows: Some(morsel_rows),
            mem_budget: budget,
            spill_dir: Some(parent.clone()),
        };
        let chunked = read_csv_chunked(
            "t", Cursor::new(text.as_bytes()), &specs, ',', policy, &opts,
        ).unwrap();
        prop_assert_eq!(chunked.total_rows, dense.total_rows);
        prop_assert_eq!(&chunked.quarantined, &dense.quarantined);
        let densified = chunked.table.into_table().unwrap();
        prop_assert_eq!(densified.n_rows(), dense.table.n_rows());
        for c in 0..densified.schema().len() {
            prop_assert_eq!(
                densified.column(c).codes(),
                dense.table.column(c).codes(),
                "column {} diverged at morsel {} budget {:?}",
                c, morsel_rows, budget
            );
        }
        // RAII: `into_table` consumed the chunks, so every per-ingest
        // spill directory is already gone.
        let leftovers = std::fs::read_dir(&parent)
            .map(|d| d.count())
            .unwrap_or(0);
        prop_assert_eq!(leftovers, 0, "spill files leaked");
        let _ = std::fs::remove_dir_all(&parent);
    }

    /// Chaos: corrupted CSVs streamed under tight budgets either load
    /// with exact row accounting (every input data row is either a
    /// table row or a quarantined row) or fail with a typed error —
    /// never a panic — and always agree with the dense reader.
    #[test]
    fn corrupted_streams_account_rows_and_never_panic(
        rows in proptest::collection::vec((0..30u8, -99..99i16), 2..60),
        seed in 0..u64::MAX,
        faults_per_file in 1..5usize,
        morsel_rows in 1..32usize,
        max_bad in 0..50usize,
    ) {
        let mut corpus = BTreeMap::new();
        corpus.insert("wide.csv".to_string(), csv_of(&rows));
        let plan = ChaosPlan::all_kinds(seed, faults_per_file)
            .with_profile("wide.csv", FileProfile {
                numeric_cols: vec![1],
                pk_col: None,
                fk_cols: vec![],
            });
        let (corrupted, _faults) = corrupt_corpus(&corpus, &plan);
        let text = &corrupted["wide.csv"];
        let specs = specs();
        let policy = DirtyPolicy::Quarantine { max_bad_rows: max_bad };

        let dense = read_csv_lenient("t", text, &specs, ',', policy);
        let parent = spill_parent("chaos");
        let opts = IngestOptions {
            morsel_rows: Some(morsel_rows),
            mem_budget: Some(256),
            spill_dir: Some(parent.clone()),
        };
        let chunked = read_csv_chunked(
            "t", Cursor::new(text.as_bytes()), &specs, ',', policy, &opts,
        );
        match (dense, chunked) {
            (Ok(d), Ok(c)) => {
                // Exact row accounting, identical to the dense reader.
                prop_assert_eq!(c.total_rows, d.total_rows);
                prop_assert_eq!(c.quarantined.len(), d.quarantined.len());
                let t = c.table.into_table().unwrap();
                prop_assert_eq!(t.n_rows() + c.quarantined.len(), c.total_rows);
                prop_assert_eq!(t.n_rows(), d.table.n_rows());
                for col in 0..t.schema().len() {
                    prop_assert_eq!(
                        t.column(col).codes(),
                        d.table.column(col).codes()
                    );
                }
            }
            (Err(de), Err(ce)) => {
                // Same typed failure either way, renderable.
                prop_assert_eq!(de.to_string(), ce.to_string());
            }
            (d, c) => {
                return Err(TestCaseError::fail(format!(
                    "paths disagree: dense {:?} vs chunked {:?}",
                    d.map(|l| l.table.n_rows()),
                    c.map(|l| l.table.n_rows()),
                )));
            }
        }
        let _ = std::fs::remove_dir_all(&parent);
    }
}
