//! Row/column access abstraction shared by materialized and factorized
//! training.
//!
//! Classifiers fundamentally consume `(feature, row) -> code` lookups plus
//! labels; they do not care whether codes live in one flat [`Dataset`] or
//! are resolved through foreign-key indirection against a normalized star
//! schema. [`CodeSource`] captures that access pattern. Because the SGD
//! and counting loops are generic over it, the materialized and factorized
//! paths execute the *same* sequence of floating-point operations and
//! therefore produce bitwise-identical models given identical codes.
//!
//! Every source describes each feature's physical layout once, through
//! [`CodeSource::column`]: either a [`Column::Rows`] array indexed by
//! example row, or a [`Column::Via`] attribute-table column reached
//! through a foreign key. `code()` is derived from `column()`, so the two
//! can never disagree. Hot loops read the layout instead of calling
//! `code()` per cell: all `Via` columns with the same `join` share one
//! `rid_to_row[fk_codes[row]]` resolution, so a scan can resolve each FK
//! once per row set and then read every feature behind it with a single
//! gather into an `n_R`-sized code array.
//!
//! The same layout drives the one count primitive every counting model
//! is built from: [`class_count_table`], the class-conditional table
//! `counts[y * d + v]` of one feature over a row set (Naive Bayes,
//! TAN, [`crate::SuffStats`], incremental NB, CART split scoring, on
//! either path), and [`class_count_tables`], the same for a list of
//! features over one row set.
//!
//! * **`Column::Rows`** — a contiguous row range over a source with a
//!   [`CodeSource::labels`] slice streams two `u32` slices with no
//!   gather; any other row set reads `(label, code)` through the row
//!   list.
//! * **`Column::Via`** — the JoinBoost recipe (arXiv 2307.00422): the
//!   FK column is counted with the same kernel into a dense
//!   `count(FK, Y | rows)` table, which then folds through the
//!   attribute table,
//!   `count(X_R = v, Y = y) = Σ_{fk : X_R[rid_to_row[fk]] = v} count(FK = fk, Y = y)`,
//!   in `O(n_R)`. FK codes with no attribute row (`rid_to_row ==
//!   u32::MAX`) contribute nothing, exactly as the inner join drops
//!   them. No join output is touched; the extra memory is the
//!   `n_R × |D_Y|` FK table. A row set smaller than the attribute
//!   table (a deep tree node) skips the fold and reads each row's code
//!   through the FK instead, in `O(rows)`; the integers are the same.
//!
//! Large scans split into at most `threads` morsels (never finer than
//! [`hamlet_obs::resolved_morsel_rows`], so about one dense partial
//! table lives per worker), and the partials merge in morsel order.
//! Counts are integers, so every table — and every float a model
//! derives from it — is bit-for-bit the sequential result at any
//! thread count, and identical on the materialized and factorized
//! paths. Inside an existing parallel region (a candidate sweep, a
//! tree-node fan-out) the scan runs sequentially instead of nesting.
//! Each table bumps one of `hamlet_count_rows_{contiguous,gather,via_fk}_total`
//! by the rows it covered, so a run shows which path its counts took;
//! a scan that would have gone parallel but ran sequentially inside a
//! parallel region also bumps `hamlet_count_rows_nested_sequential_total`.

use std::ops::Range;

use hamlet_obs::parallel::{in_parallel_region, run_morsels};

use crate::dataset::Dataset;

/// Physical layout of one feature column; see [`CodeSource::column`].
#[derive(Debug, Clone, Copy)]
pub enum Column<'a> {
    /// Codes indexed directly by example row.
    Rows(&'a [u32]),
    /// An attribute-table column read through a foreign key: the code of
    /// example `row` is `codes[rid_to_row[fk_codes[row]]]`. Every feature
    /// of a source with the same `join` id shares `fk_codes` and
    /// `rid_to_row`, so one resolution serves all of them.
    Via {
        /// Identifies the FK index; equal ids mean equal `fk_codes` and
        /// `rid_to_row`.
        join: usize,
        /// FK codes on the entity table (indexed by example row).
        fk_codes: &'a [u32],
        /// Dense RID -> attribute-table row.
        rid_to_row: &'a [u32],
        /// Codes of the column in its attribute table (length `n_R`).
        codes: &'a [u32],
    },
}

impl Column<'_> {
    /// Code on example `row`.
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        match *self {
            Column::Rows(codes) => codes[row],
            Column::Via {
                fk_codes,
                rid_to_row,
                codes,
                ..
            } => codes[rid_to_row[fk_codes[row] as usize] as usize],
        }
    }
}

/// Uniform access to an all-nominal labeled example collection.
///
/// Feature positions follow the same layout as the materialized
/// [`Dataset`] extracted from the corresponding join output, so a feature
/// index means the same column in both worlds.
pub trait CodeSource {
    /// Number of examples (rows).
    fn n_examples(&self) -> usize;

    /// Number of target classes `|D_Y|`.
    fn n_classes(&self) -> usize;

    /// Number of logical feature columns.
    fn n_features(&self) -> usize;

    /// Domain size `|D_F|` of feature `f`.
    fn feature_domain_size(&self, f: usize) -> usize;

    /// Name of feature `f`.
    fn feature_name(&self, f: usize) -> &str;

    /// Physical layout of feature `f`'s codes.
    fn column(&self, f: usize) -> Column<'_>;

    /// Dense code of feature `f` on example `row`.
    #[inline]
    fn code(&self, f: usize, row: usize) -> u32 {
        self.column(f).code(row)
    }

    /// Label of example `row`.
    fn label(&self, row: usize) -> u32;

    /// All labels as one slice indexed by example row, when the source
    /// stores them that way. Lets [`class_count_table`] stream
    /// contiguous row ranges; sources without one (serve-side request
    /// batches) are counted through [`CodeSource::label`].
    fn labels(&self) -> Option<&[u32]> {
        None
    }
}

/// Below this many rows the morsel fan-out costs more than the scan.
const PAR_THRESHOLD: usize = 1 << 16;

/// Class histogram `counts[y]` over `rows`.
pub fn class_histogram<S: CodeSource + ?Sized>(src: &S, rows: &[usize]) -> Vec<u64> {
    let mut counts = vec![0u64; src.n_classes()];
    for &r in rows {
        counts[src.label(r) as usize] += 1;
    }
    counts
}

/// Class-conditional count table of feature `f` over `rows`, flattened
/// `[y * d + v]` with `d = src.feature_domain_size(f)`: the one count
/// primitive (see the module docs for the paths it takes). Bit-for-bit
/// the naive per-row loop at any `threads`, for either column layout.
pub fn class_count_table<S: CodeSource + Sync + ?Sized>(
    src: &S,
    f: usize,
    rows: &[usize],
    threads: usize,
) -> Vec<u64> {
    count_table(src, f, rows, is_contiguous(rows), threads, &mut None)
}

/// [`class_count_table`] for each of `feats` over one row set, in
/// order, built one at a time as the iterator is consumed. Checks once
/// whether `rows` is a contiguous range, and counts an FK once for a
/// run of consecutive foreign features behind it (a view lists each
/// attribute table's features together), folding that one FK table
/// per feature.
pub fn class_count_tables<'a, S: CodeSource + Sync + ?Sized>(
    src: &'a S,
    feats: &'a [usize],
    rows: &'a [usize],
    threads: usize,
) -> impl Iterator<Item = Vec<u64>> + 'a {
    let contiguous = is_contiguous(rows);
    let mut last_fk = None;
    feats
        .iter()
        .map(move |&f| count_table(src, f, rows, contiguous, threads, &mut last_fk))
}

/// The primitive's body. `contiguous` must equal `is_contiguous(rows)`;
/// `last_fk` holds the `count(FK, Y)` table of the last `join` counted
/// over these `rows`, reused when `f` reads through the same FK.
pub(crate) fn count_table<S: CodeSource + Sync + ?Sized>(
    src: &S,
    f: usize,
    rows: &[usize],
    contiguous: bool,
    threads: usize,
    last_fk: &mut Option<(usize, Vec<u64>)>,
) -> Vec<u64> {
    let d = src.feature_domain_size(f);
    match src.column(f) {
        Column::Rows(codes) => {
            let (counts, streamed) = count_pairs(src, codes, d, rows, contiguous, threads);
            if streamed {
                hamlet_obs::counter_add!("hamlet_count_rows_contiguous_total", rows.len());
            } else {
                hamlet_obs::counter_add!("hamlet_count_rows_gather_total", rows.len());
            }
            counts
        }
        Column::Via {
            join,
            fk_codes,
            rid_to_row,
            codes,
        } => {
            hamlet_obs::counter_add!("hamlet_count_rows_via_fk_total", rows.len());
            let n_r = rid_to_row.len();
            if rows.len() < n_r {
                // Fewer rows than attribute rows: reading each row's code
                // through the FK costs less than the `O(n_R)` fold.
                let mut counts = vec![0u64; src.n_classes() * d];
                for &r in rows {
                    let row = rid_to_row[fk_codes[r] as usize];
                    if row != u32::MAX {
                        counts[src.label(r) as usize * d + codes[row as usize] as usize] += 1;
                    }
                }
                return counts;
            }
            let (_, by_fk) = match last_fk.take() {
                Some((j, table)) if j == join => last_fk.insert((j, table)),
                _ => {
                    let (table, _) = count_pairs(src, fk_codes, n_r, rows, contiguous, threads);
                    last_fk.insert((join, table))
                }
            };
            let mut counts = vec![0u64; src.n_classes() * d];
            for y in 0..src.n_classes() {
                let out = &mut counts[y * d..(y + 1) * d];
                for (&row, &k) in rid_to_row.iter().zip(&by_fk[y * n_r..(y + 1) * n_r]) {
                    if row != u32::MAX {
                        out[codes[row as usize] as usize] += k;
                    }
                }
            }
            counts
        }
    }
}

/// `[y * d + v]` counts of `(label(r), codes[r])` over `rows`, and
/// whether the gather-free streaming loop served them (`contiguous`
/// rows and a label slice).
fn count_pairs<S: CodeSource + Sync + ?Sized>(
    src: &S,
    codes: &[u32],
    d: usize,
    rows: &[usize],
    contiguous: bool,
    threads: usize,
) -> (Vec<u64>, bool) {
    let len = src.n_classes() * d;
    let streamed = src.labels().filter(|_| contiguous);
    let first = rows.first().copied().unwrap_or(0);
    // Counts the rows at positions `part` of `rows`.
    let scan = |part: Range<usize>| {
        let mut counts = vec![0u64; len];
        match streamed {
            Some(labels) => {
                let span = first + part.start..first + part.end;
                for (&y, &v) in labels[span.clone()].iter().zip(&codes[span]) {
                    counts[y as usize * d + v as usize] += 1;
                }
            }
            None => {
                for &r in &rows[part] {
                    counts[src.label(r) as usize * d + codes[r] as usize] += 1;
                }
            }
        }
        counts
    };
    let n = rows.len();
    let nested = n >= PAR_THRESHOLD && threads > 1 && in_parallel_region();
    if nested {
        hamlet_obs::counter_add!("hamlet_count_rows_nested_sequential_total", n);
    }
    let counts = if n < PAR_THRESHOLD || threads <= 1 || nested {
        scan(0..n)
    } else {
        let morsel = hamlet_obs::resolved_morsel_rows().max(n.div_ceil(threads));
        let partials = run_morsels(n, morsel, threads, &|_, part| scan(part));
        let mut partials = partials.into_iter();
        let mut total = partials.next().unwrap_or_else(|| vec![0u64; len]);
        for partial in partials {
            for (t, k) in total.iter_mut().zip(partial) {
                *t += k;
            }
        }
        total
    };
    (counts, streamed.is_some())
}

/// Whether `rows` is the range `rows[0]..rows[0] + rows.len()` in
/// order.
pub(crate) fn is_contiguous(rows: &[usize]) -> bool {
    let first = rows.first().copied().unwrap_or(0);
    rows.iter().enumerate().all(|(i, &r)| r == first + i)
}

impl CodeSource for Dataset {
    fn n_examples(&self) -> usize {
        Dataset::n_examples(self)
    }

    fn n_classes(&self) -> usize {
        Dataset::n_classes(self)
    }

    fn n_features(&self) -> usize {
        Dataset::n_features(self)
    }

    fn feature_domain_size(&self, f: usize) -> usize {
        self.feature(f).domain_size
    }

    fn feature_name(&self, f: usize) -> &str {
        &self.feature(f).name
    }

    fn column(&self, f: usize) -> Column<'_> {
        Column::Rows(&self.feature(f).codes)
    }

    fn label(&self, row: usize) -> u32 {
        self.labels()[row]
    }

    fn labels(&self) -> Option<&[u32]> {
        Some(Dataset::labels(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;

    #[test]
    fn dataset_implements_code_source() {
        let d = Dataset::new(
            vec![Feature {
                name: "a".into(),
                domain_size: 3,
                codes: vec![0, 2, 1],
            }],
            vec![1, 0, 1],
            2,
        );
        assert_eq!(CodeSource::n_examples(&d), 3);
        assert_eq!(CodeSource::n_classes(&d), 2);
        assert_eq!(CodeSource::n_features(&d), 1);
        assert_eq!(d.feature_domain_size(0), 3);
        assert_eq!(d.feature_name(0), "a");
        assert_eq!(d.code(0, 1), 2);
        assert_eq!(d.label(2), 1);
        assert_eq!(CodeSource::labels(&d), Some(&[1, 0, 1][..]));
    }

    #[test]
    fn via_column_reads_through_the_fk() {
        // RIDs stored out of order: RID 0 lives at row 2 of R.
        let col = Column::Via {
            join: 0,
            fk_codes: &[0, 2, 1, 0],
            rid_to_row: &[2, 0, 1],
            codes: &[7, 8, 9],
        };
        let got: Vec<u32> = (0..4).map(|r| col.code(r)).collect();
        assert_eq!(got, [9, 8, 7, 9]);
    }

    /// A star served the factorized way: an entity feature `xs`, the
    /// FK itself as a feature, and foreign features `xr` (join 0) and
    /// `xq` (join 1, a second index over the same key). Both attribute
    /// tables store their RIDs out of order, and the PK domain has a
    /// code (3) with no attribute row.
    struct Star {
        labels: Vec<u32>,
        xs: Vec<u32>,
        fk: Vec<u32>,
        rid_to_row: Vec<u32>,
        xr: Vec<u32>,
        rid_to_row_q: Vec<u32>,
        xq: Vec<u32>,
        /// Hide the label slice, forcing every count through `label(r)`.
        hide_labels: bool,
    }

    const C: usize = 3;
    const DOMAINS: [usize; 4] = [3, 6, 4, 2];

    fn star(n: usize) -> Star {
        let present = [0u32, 1, 2, 4, 5];
        Star {
            labels: (0..n).map(|i| ((i * 13 + 5) % C) as u32).collect(),
            xs: (0..n).map(|i| ((i * 31 + 7) % 3) as u32).collect(),
            fk: (0..n).map(|i| present[(i * 7 + 3) % 5]).collect(),
            rid_to_row: vec![2, 0, 4, u32::MAX, 1, 3],
            xr: vec![1, 3, 0, 2, 3],
            rid_to_row_q: vec![4, 3, 0, u32::MAX, 2, 1],
            xq: vec![0, 1, 1, 0, 1],
            hide_labels: false,
        }
    }

    impl CodeSource for Star {
        fn n_examples(&self) -> usize {
            self.labels.len()
        }
        fn n_classes(&self) -> usize {
            C
        }
        fn n_features(&self) -> usize {
            4
        }
        fn feature_domain_size(&self, f: usize) -> usize {
            DOMAINS[f]
        }
        fn feature_name(&self, f: usize) -> &str {
            ["xs", "fk", "xr", "xq"][f]
        }
        fn column(&self, f: usize) -> Column<'_> {
            match f {
                0 => Column::Rows(&self.xs),
                1 => Column::Rows(&self.fk),
                2 => Column::Via {
                    join: 0,
                    fk_codes: &self.fk,
                    rid_to_row: &self.rid_to_row,
                    codes: &self.xr,
                },
                _ => Column::Via {
                    join: 1,
                    fk_codes: &self.fk,
                    rid_to_row: &self.rid_to_row_q,
                    codes: &self.xq,
                },
            }
        }
        fn label(&self, row: usize) -> u32 {
            self.labels[row]
        }
        fn labels(&self) -> Option<&[u32]> {
            (!self.hide_labels).then_some(self.labels.as_slice())
        }
    }

    /// The star's join output, every code resolved per row.
    fn materialize(s: &Star) -> Dataset {
        let features = (0..4)
            .map(|f| Feature {
                name: s.feature_name(f).into(),
                domain_size: DOMAINS[f],
                codes: (0..s.n_examples()).map(|r| s.code(f, r)).collect(),
            })
            .collect();
        Dataset::new(features, s.labels.clone(), C)
    }

    /// Oracle: the naive per-row loop over the materialized codes.
    fn naive(data: &Dataset, f: usize, rows: &[usize]) -> Vec<u64> {
        let d = data.feature(f).domain_size;
        let mut counts = vec![0u64; data.n_classes() * d];
        for &r in rows {
            counts[data.labels()[r] as usize * d + data.feature(f).codes[r] as usize] += 1;
        }
        counts
    }

    #[test]
    fn pushdown_matches_materialized_scan_on_every_feature_and_subset() {
        let mut s = star(300);
        let data = materialize(&s);
        let all: Vec<usize> = (0..300).collect();
        let evens: Vec<usize> = (0..300).step_by(2).collect();
        let shuffled: Vec<usize> = (0..300).filter(|r| r % 3 != 1).rev().collect();
        let tail: Vec<usize> = (120..300).collect();
        let tiny = vec![7];
        for rows in [&all, &evens, &shuffled, &tail, &tiny, &Vec::new()] {
            for hide_labels in [false, true] {
                s.hide_labels = hide_labels;
                for f in 0..4 {
                    let want = naive(&data, f, rows);
                    for threads in [1, 2] {
                        assert_eq!(
                            class_count_table(&s, f, rows, threads),
                            want,
                            "feature {f} over {} rows, hidden labels {hide_labels}",
                            rows.len()
                        );
                        assert_eq!(class_count_table(&data, f, rows, threads), want);
                    }
                }
            }
        }
    }

    /// Large enough (`> PAR_THRESHOLD` rows) that the morsel-parallel
    /// paths engage; the naive sequential scan is the bit-for-bit
    /// oracle on every path.
    #[test]
    fn large_scan_parallel_path_matches_naive() {
        let n = PAR_THRESHOLD + 123;
        let mut s = star(n);
        let data = materialize(&s);
        let all: Vec<usize> = (0..n).collect();
        let scattered: Vec<usize> = (0..n).filter(|r| r % 3 != 1).rev().collect();
        for rows in [&all, &scattered] {
            for hide_labels in [false, true] {
                s.hide_labels = hide_labels;
                for f in 0..4 {
                    let want = naive(&data, f, rows);
                    for threads in [1, 2, 8] {
                        assert_eq!(class_count_table(&s, f, rows, threads), want, "feature {f}");
                        assert_eq!(class_count_table(&data, f, rows, threads), want);
                    }
                }
            }
        }
    }

    /// The multi-feature form equals one call per feature, in order,
    /// with features of two joins interleaved and repeated so a reused
    /// FK table must belong to the right join.
    #[test]
    fn table_lists_match_single_tables() {
        let s = star(300);
        let feats = [2, 3, 2, 2, 0, 3, 1, 2];
        let all: Vec<usize> = (0..300).collect();
        let scattered: Vec<usize> = (0..300).filter(|r| r % 5 != 2).rev().collect();
        for rows in [&all, &scattered, &Vec::new()] {
            let want: Vec<Vec<u64>> = feats
                .iter()
                .map(|&f| class_count_table(&s, f, rows, 1))
                .collect();
            for threads in [1, 2] {
                let got: Vec<Vec<u64>> = class_count_tables(&s, &feats, rows, threads).collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn nested_region_degrades_to_sequential_but_same_counts() {
        let s = star(200_000);
        let rows: Vec<usize> = (0..200_000).collect();
        let outside = class_count_table(&s, 2, &rows, 8);
        // Two real workers: each nested call must see the region flag
        // and go sequential, producing the same table.
        let inside = hamlet_obs::parallel::run_indexed(2, 2, &|_| {
            assert!(hamlet_obs::parallel::in_parallel_region());
            class_count_table(&s, 2, &rows, 8)
        });
        assert_eq!(outside, inside[0]);
        assert_eq!(outside, inside[1]);
        assert_eq!(outside, naive(&materialize(&s), 2, &rows));
    }

    #[test]
    fn class_histogram_counts_labels() {
        let s = star(10);
        let mut want = vec![0u64; C];
        for &y in &s.labels[2..9] {
            want[y as usize] += 1;
        }
        assert_eq!(class_histogram(&s, &(2..9).collect::<Vec<_>>()), want);
        assert_eq!(class_histogram(&s, &[]), vec![0u64; C]);
    }

    #[test]
    fn contiguity_detection() {
        assert!(is_contiguous(&[]));
        assert!(is_contiguous(&[5]));
        assert!(is_contiguous(&[3, 4, 5, 6]));
        assert!(!is_contiguous(&[3, 5, 6]));
        assert!(!is_contiguous(&[4, 3]));
        // A permutation with the right span and length is not a range.
        assert!(!is_contiguous(&[0, 2, 1, 3]));
        assert!(!is_contiguous(&[0, 1, 1, 3]));
    }

    /// The path counters are process-global and sibling tests count
    /// concurrently, so only lower bounds are asserted.
    #[test]
    fn each_table_bumps_its_path_counter() {
        let counter = |name| hamlet_obs::metrics::counter(name).get();
        let mut s = star(100);
        let all: Vec<usize> = (0..100).collect();
        let evens: Vec<usize> = (0..100).step_by(2).collect();
        let (contiguous, gather, via, nested) = (
            counter("hamlet_count_rows_contiguous_total"),
            counter("hamlet_count_rows_gather_total"),
            counter("hamlet_count_rows_via_fk_total"),
            counter("hamlet_count_rows_nested_sequential_total"),
        );
        class_count_table(&s, 0, &all, 1);
        class_count_table(&s, 1, &evens, 1);
        s.hide_labels = true;
        class_count_table(&s, 0, &all, 1);
        class_count_table(&s, 2, &all, 1);
        // A scan large enough to go parallel, asked for two workers from
        // inside a worker, runs sequentially and says so.
        let big = star(PAR_THRESHOLD);
        let big_rows: Vec<usize> = (0..PAR_THRESHOLD).collect();
        let tables =
            hamlet_obs::parallel::run_indexed(2, 2, &|f| class_count_table(&big, f, &big_rows, 2));
        assert_eq!(tables[0], class_count_table(&big, 0, &big_rows, 1));
        assert!(counter("hamlet_count_rows_contiguous_total") - contiguous >= 100);
        assert!(counter("hamlet_count_rows_gather_total") - gather >= 150);
        assert!(counter("hamlet_count_rows_via_fk_total") - via >= 100);
        assert!(
            counter("hamlet_count_rows_nested_sequential_total") - nested
                >= 2 * PAR_THRESHOLD as u64
        );
    }
}
