//! Sufficient statistics shared across a feature-selection run.
//!
//! Naive Bayes over nominal features is decomposable: everything a fit
//! needs is the class histogram plus one class-conditional count table
//! per feature, and those tables do not depend on which *other* features
//! are in the subset (the same decomposability that powers
//! `crates/factorized` and [`crate::incremental`]). A greedy wrapper
//! evaluates O(k) candidate subsets per step over the same `(data,
//! train)` pair, so rescanning the training rows per candidate is pure
//! waste: [`SuffStats`] computes each per-feature table **once** per
//! selection run and assembles any candidate model from the cached
//! tables with zero row scans.
//!
//! The same count tables drive the filter scores: `I(F;Y)` and
//! `IGR(F;Y)` are functions of the (feature value × class) joint
//! histogram, reproduced here in exactly the summation order of
//! [`crate::info`] so cached scores are bit-for-bit equal to the
//! direct ones.
//!
//! [`SweepFit`] is how classifiers plug in: Naive Bayes assembles from
//! the tables and scores a whole list of candidate subsets in one pass
//! over the validation rows ([`SuffStats::nb_subset_errors`]), logistic
//! regression warm-starts SGD from the parent subset's weights, and
//! anything else falls back to its ordinary [`Classifier::fit`].

use std::sync::OnceLock;
use std::time::Instant;

use crate::classifier::{Classifier, ErrorMetric};
use crate::dataset::Dataset;
use crate::info::{entropy_of_counts, mutual_information_of_counts};
use crate::logreg::LogisticRegression;
use crate::naive_bayes::{argmax, smoothed_log_table, transposed, NaiveBayes, NaiveBayesModel};
use crate::source::{class_histogram, count_table, is_contiguous};
use crate::tan::Tan;
use crate::tree::DecisionTree;

/// Class-conditional count tables over one `(data, train)` pair, built
/// lazily per feature and cached for the lifetime of the selection run.
///
/// The cache is immutable after construction in every observable way:
/// tables are computed at most once (thread-safe via [`OnceLock`], so
/// parallel candidate sweeps share them freely) and there is no
/// invalidation — a `SuffStats` borrows its `(data, train)` pair, so the
/// statistics cannot go stale while the cache is alive. New fold ⇒ new
/// `SuffStats`.
pub struct SuffStats<'a> {
    data: &'a Dataset,
    train: &'a [usize],
    /// `class_counts[y]` = training rows with label `y`.
    class_counts: Vec<u64>,
    /// Whether `train` is a contiguous range (the common full-table
    /// case), checked once so each table build can stream without
    /// re-reading the row list.
    contiguous: bool,
    /// Per feature, the flattened `n_classes × domain_size` count table
    /// `counts[y * d + v]`, built on first use.
    tables: Vec<OnceLock<Box<[u64]>>>,
}

impl<'a> SuffStats<'a> {
    /// Prepares a statistics cache for one `(data, train)` pair. The
    /// class histogram is computed eagerly (one pass over the labels);
    /// per-feature tables are built on first use.
    pub fn new(data: &'a Dataset, train: &'a [usize]) -> Self {
        Self {
            data,
            train,
            class_counts: class_histogram(data, train),
            contiguous: is_contiguous(train),
            tables: (0..data.n_features()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The dataset the statistics are over.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// The training rows the statistics are over.
    pub fn train(&self) -> &'a [usize] {
        self.train
    }

    /// Training-label histogram.
    pub fn class_counts(&self) -> &[u64] {
        &self.class_counts
    }

    /// The class-conditional count table for feature `f`, flattened
    /// `[y * |D_F| + v]`, computing it on first call (one morsel-driven
    /// pass over the training rows through [`crate::class_count_table`]) and
    /// serving it from cache afterwards. Builds go parallel only for
    /// large inputs outside an existing parallel region — a build
    /// triggered from inside a candidate-sweep worker runs sequentially
    /// — and either way the counts are the row-loop's exactly.
    pub fn table(&self, f: usize) -> &[u64] {
        let mut missed = false;
        let table = self.tables[f].get_or_init(|| {
            missed = true;
            let started = Instant::now();
            let _span = hamlet_obs::span!("ml.suffstats_build", feature = f);
            let threads = hamlet_obs::env::resolved_threads();
            let counts = count_table(
                self.data,
                f,
                self.train,
                self.contiguous,
                threads,
                &mut None,
            );
            hamlet_obs::counter_add!(
                "hamlet_suffstats_build_us_total",
                started.elapsed().as_micros() as u64
            );
            counts.into_boxed_slice()
        });
        if missed {
            hamlet_obs::counter_add!("hamlet_suffstats_misses_total", 1);
        } else {
            hamlet_obs::counter_add!("hamlet_suffstats_hits_total", 1);
        }
        table
    }

    /// Pre-builds the count tables of `feats` across up to `threads`
    /// workers (one feature per worker; each inner build sees the
    /// parallel-region flag and scans sequentially). Later
    /// [`table`](Self::table) calls are all cache hits, so a selection
    /// run's statistics phase is one parallel pass instead of k lazy
    /// scans. Building a table twice is impossible — `OnceLock` keeps
    /// the first result — so warming is always safe.
    pub fn warm(&self, feats: &[usize], threads: usize) {
        let _span = hamlet_obs::span!("ml.suffstats_warm", feats = feats.len());
        hamlet_obs::parallel::run_indexed(feats.len(), threads, &|i| {
            let _ = self.table(feats[i]);
        });
    }

    /// Assembles a Naive Bayes model for `feats` from the cached tables
    /// — zero training-row scans once the tables are warm, and
    /// bit-for-bit equal to [`NaiveBayes::fit`] on the same `(data,
    /// train, feats)` because the float recipe (same counts, same
    /// operations, same order) is identical.
    pub fn nb_model(&self, smoothing: f64, feats: &[usize]) -> NaiveBayesModel {
        let _span = hamlet_obs::span!("ml.nb_assemble", feats = feats.len());
        hamlet_obs::counter_add!("hamlet_nb_fits_total", 1);
        NaiveBayesModel::from_counts(
            smoothing,
            &self.class_counts,
            feats,
            feats
                .iter()
                .map(|&f| (self.data.feature(f).domain_size, self.table(f))),
        )
    }

    /// Smoothed log-priors, the same float recipe as [`NaiveBayes::fit`].
    fn log_prior_vec(&self, smoothing: f64) -> Vec<f64> {
        let c = self.data.n_classes();
        smoothed_log_table(&self.class_counts, &[self.train.len() as u64], c, smoothing)
    }

    /// Transposed smoothed log-conditional table of feature `f`,
    /// `[v * n_classes + y]` (entry values identical to the model's
    /// `[y * d + v]` table; only the layout differs, so a row's class
    /// scores read contiguous floats).
    fn log_table_t(&self, smoothing: f64, f: usize) -> Vec<f64> {
        let c = self.data.n_classes();
        let d = self.data.feature(f).domain_size;
        let table = smoothed_log_table(self.table(f), &self.class_counts, d, smoothing);
        transposed(&table, c, d)
    }

    /// Validation errors of every subset in `subsets`, in list order —
    /// **bitwise identical** to `self.nb_model(smoothing, s)` scored by
    /// [`NaiveBayesModel::batch_error`] for each `s`, but in one pass
    /// over `rows` for the whole list. A subset's class scores are its
    /// model's: the prior plus its features' addends, summed in the
    /// subset's listed order (ascending, for every caller in
    /// `hamlet-fs`). The list may hold duplicates and come in any order,
    /// and so may `rows`; ascending rows gather fastest.
    ///
    /// Within a row the subsets are visited in lexicographic order, a
    /// depth-first walk of their trie. A stack of partial class-score
    /// sums (level `d` = prior + the first `d` addends) is cut back to
    /// the common prefix with the previous subset and extended by the
    /// remaining features, so each trie node costs one `c`-wide
    /// addition per row. Levels the next subset will not resume from
    /// accumulate in place in a scratch row, and a subset's first
    /// addend reads a table with the prior already folded in.
    ///
    /// The rows are split into equal blocks, at least `threads` of them,
    /// run across up to `threads` workers. Each block gathers the codes
    /// of every involved feature once and counts its errors per subset
    /// as integers, merged exactly whatever the block order or worker
    /// count.
    pub fn nb_subset_errors(
        &self,
        smoothing: f64,
        subsets: &[Vec<usize>],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Vec<f64> {
        let n = rows.len();
        if subsets.is_empty() || n == 0 {
            // metric.eval on no rows is 0.0 for both metrics.
            return vec![0.0; subsets.len()];
        }
        let c = self.data.n_classes();
        let walk = TrieWalk::new(subsets, self.data.n_features());
        let _span = hamlet_obs::span!(
            "ml.nb_sweep",
            subsets = subsets.len(),
            rows = n,
            adds = walk.adds * n
        );
        // Every table the walk reads, transposed to `[v * c + y]`, one
        // after another: a feature's plain table for the deeper levels
        // and its prior-folded one for a subset's first level.
        let prior = self.log_prior_vec(smoothing);
        let mut flat: Vec<f64> = Vec::new();
        let mut bases: Vec<u32> = Vec::with_capacity(walk.cols.len());
        for &(f, folded) in &walk.cols {
            bases.push(flat.len() as u32);
            let table = self.log_table_t(smoothing, f);
            if folded {
                // IEEE addition commutes bitwise: `l + p` is the
                // recipe's `p + l`.
                let with_prior = table
                    .chunks_exact(c)
                    .flat_map(|block| block.iter().zip(&prior).map(|(&l, &p)| l + p));
                flat.extend(with_prior);
            } else {
                flat.extend(table);
            }
        }
        assert!(
            u32::try_from(flat.len()).is_ok(),
            "sweep tables need u32 offsets"
        );
        // Per-row loss by `[best * c + truth]`: 0/1 misses, or the
        // squared distance between the class codes. These are integers
        // below `c²`, so the row-order `f64` sums of `zero_one_error` and
        // `rmse` are exact, and equal the `u64` totals here, while every
        // partial sum stays below 2^53: while `rows · (c − 1)² < 2^53`.
        assert!(
            metric == ErrorMetric::ZeroOne || (n as u128) * (c as u128 - 1).pow(2) < 1 << 53,
            "RMSE error totals must stay exact in f64"
        );
        let loss: Vec<u64> = (0..c as u64)
            .flat_map(|best| (0..c as u64).map(move |truth| (best, truth)))
            .map(|(best, truth)| match metric {
                ErrorMetric::ZeroOne => u64::from(best != truth),
                ErrorMetric::Rmse => best.abs_diff(truth).pow(2),
            })
            .collect();

        let totals = std::sync::Mutex::new(vec![0u64; walk.visits.len()]);
        let block_rows = SWEEP_BLOCK.min(n.div_ceil(threads.max(1)));
        hamlet_obs::parallel::run_morsels(n, block_rows, threads, &|_, range| {
            let rows = &rows[range];
            // Column by column, where each row's class scores start in
            // `flat`.
            let mut at = Vec::with_capacity(rows.len() * walk.cols.len());
            for (&(f, _), &base) in walk.cols.iter().zip(&bases) {
                let codes = &self.data.feature(f).codes;
                at.extend(rows.iter().map(|&r| base + codes[r] * c as u32));
            }
            let block = Block {
                walk: &walk,
                c,
                prior: &prior,
                flat: &flat,
                at: &at,
                rows,
                labels: self.data.labels(),
                loss: &loss,
            };
            // The common class counts get the `c`-wide loops unrolled.
            let errors = match c {
                2 => block.errors::<2>(),
                3 => block.errors::<3>(),
                4 => block.errors::<4>(),
                5 => block.errors::<5>(),
                6 => block.errors::<6>(),
                7 => block.errors::<7>(),
                8 => block.errors::<8>(),
                _ => block.errors::<0>(),
            };
            let mut totals = totals.lock().expect("sweep totals lock never poisoned");
            for (t, e) in totals.iter_mut().zip(&errors) {
                *t += e;
            }
        });

        let totals = totals
            .into_inner()
            .expect("sweep totals lock never poisoned");
        let mut out = vec![0.0; subsets.len()];
        for (visit, &total) in walk.visits.iter().zip(&totals) {
            let mean = total as f64 / n as f64;
            out[visit.subset] = match metric {
                ErrorMetric::ZeroOne => mean,
                ErrorMetric::Rmse => mean.sqrt(),
            };
        }
        out
    }

    /// Marginal feature-value histogram of feature `f` (column sums of
    /// its count table).
    fn value_counts(&self, f: usize) -> Vec<u64> {
        let d = self.data.feature(f).domain_size;
        let table = self.table(f);
        let mut counts = vec![0u64; d];
        for (v, count) in counts.iter_mut().enumerate() {
            for y in 0..self.data.n_classes() {
                *count += table[y * d + v];
            }
        }
        counts
    }

    /// `I(F;Y)` in bits from the cached table — bit-for-bit equal to
    /// [`crate::info::mutual_information`] over the training rows (the
    /// integer histograms are identical and both sum through one
    /// helper, in the same order).
    pub fn mutual_information(&self, f: usize) -> f64 {
        let d = self.data.feature(f).domain_size;
        let table = self.table(f);
        mutual_information_of_counts(
            self.train.len(),
            &self.value_counts(f),
            &self.class_counts,
            |a, b| table[b * d + a],
        )
    }

    /// `IGR(F;Y) = I(F;Y) / H(F)` from the cached table — bit-for-bit
    /// equal to [`crate::info::information_gain_ratio`] over the
    /// training rows.
    pub fn information_gain_ratio(&self, f: usize) -> f64 {
        let h_f = entropy_of_counts(&self.value_counts(f));
        if h_f <= 0.0 {
            return 0.0;
        }
        self.mutual_information(f) / h_f
    }
}

/// Validation rows per block of [`SuffStats::nb_subset_errors`]: enough
/// to amortize a block's gathers and set-up, few enough that the blocks
/// balance across workers.
const SWEEP_BLOCK: usize = 2048;

/// The visiting plan of [`SuffStats::nb_subset_errors`]: the subsets in
/// lexicographic order, each trie node naming the table column it adds.
struct TrieWalk {
    /// The tables the walk reads, grouped by feature: `(feature,
    /// folded)`, where a folded table has the prior added in and serves
    /// a subset's first level.
    cols: Vec<(usize, bool)>,
    /// Every subset's columns, level by level, concatenated in visiting
    /// order.
    nodes: Vec<u32>,
    visits: Vec<Visit>,
    /// The longest subset.
    depth: usize,
    /// Trie nodes: additions per row over the whole walk.
    adds: usize,
}

/// One subset of the walk.
struct Visit {
    /// Position in the caller's list.
    subset: usize,
    /// Its columns are `nodes[lo..hi]`.
    lo: usize,
    hi: usize,
    /// Levels shared with the previous subset, already on the stack.
    lcp: usize,
    /// Levels to leave on the stack: those the next subset resumes from.
    keep: usize,
}

impl TrieWalk {
    fn new(subsets: &[Vec<usize>], n_features: usize) -> Self {
        let mut order: Vec<usize> = (0..subsets.len()).collect();
        order.sort_by(|&a, &b| subsets[a].cmp(&subsets[b]));
        // Which of each feature's two tables some node reads.
        let mut read = vec![[false; 2]; n_features];
        let mut visits: Vec<Visit> = Vec::with_capacity(order.len());
        let mut prev: &[usize] = &[];
        let mut lo = 0;
        for &i in &order {
            let subset = subsets[i].as_slice();
            let lcp = prev.iter().zip(subset).take_while(|(a, b)| a == b).count();
            if let Some(last) = visits.last_mut() {
                last.keep = lcp;
            }
            for (d, &f) in subset.iter().enumerate().skip(lcp) {
                read[f][usize::from(d == 0)] = true;
            }
            visits.push(Visit {
                subset: i,
                lo,
                hi: lo + subset.len(),
                lcp,
                keep: 0,
            });
            lo += subset.len();
            prev = subset;
        }
        let mut col_of = vec![[u32::MAX; 2]; n_features];
        let mut cols = Vec::new();
        for (f, read) in read.iter().enumerate() {
            for folded in [false, true] {
                if read[usize::from(folded)] {
                    col_of[f][usize::from(folded)] = cols.len() as u32;
                    cols.push((f, folded));
                }
            }
        }
        let nodes = order
            .iter()
            .flat_map(|&i| subsets[i].iter().enumerate())
            .map(|(d, &f)| col_of[f][usize::from(d == 0)])
            .collect();
        Self {
            cols,
            nodes,
            depth: visits.iter().map(|v| v.hi - v.lo).max().unwrap_or(0),
            adds: visits.iter().map(|v| v.hi - v.lo - v.lcp).sum(),
            visits,
        }
    }
}

/// One block of rows of [`SuffStats::nb_subset_errors`], its columns
/// gathered.
struct Block<'a> {
    walk: &'a TrieWalk,
    c: usize,
    prior: &'a [f64],
    /// The walk's tables, one after another.
    flat: &'a [f64],
    /// `at[col * rows.len() + i]`: where row `i`'s class scores of
    /// column `col` start in `flat`.
    at: &'a [u32],
    rows: &'a [usize],
    labels: &'a [u32],
    loss: &'a [u64],
}

impl Block<'_> {
    /// Walks every row of the block; the error total of each visit.
    /// `C` is the class count, or 0 to read it from `self.c`.
    fn errors<const C: usize>(&self) -> Vec<u64> {
        let c = if C == 0 { self.c } else { C };
        let walk = self.walk;
        let mut stack = vec![0f64; (walk.depth + 1) * c];
        stack[..c].copy_from_slice(self.prior);
        let mut score = vec![0f64; c];
        let mut errors = vec![0u64; walk.visits.len()];
        for (i, &r) in self.rows.iter().enumerate() {
            let addend = |col: u32| -> &[f64] {
                let start = self.at[col as usize * self.rows.len() + i] as usize;
                &self.flat[start..start + c]
            };
            let truth = self.labels[r] as usize;
            for (visit, err) in walk.visits.iter().zip(&mut errors) {
                let nodes = &walk.nodes[visit.lo..visit.hi];
                for d in visit.lcp..visit.keep {
                    let (done, level) = stack.split_at_mut((d + 1) * c);
                    if d == 0 {
                        level[..c].copy_from_slice(addend(nodes[0]));
                    } else {
                        let parent = &done[d * c..];
                        for ((s, &p), &l) in level[..c].iter_mut().zip(parent).zip(addend(nodes[d]))
                        {
                            *s = p + l;
                        }
                    }
                }
                // Resume from the deepest level on the stack; a first
                // level comes straight from its folded table.
                let k = visit.keep.max(visit.lcp);
                let (base, rest) = match k {
                    0 if !nodes.is_empty() => (addend(nodes[0]), &nodes[1..]),
                    _ => (&stack[k * c..(k + 1) * c], &nodes[k..]),
                };
                let best = match rest.split_first() {
                    None => argmax(base),
                    Some((&first, tail)) => {
                        for ((s, &p), &l) in score.iter_mut().zip(base).zip(addend(first)) {
                            *s = p + l;
                        }
                        for &col in tail {
                            for (s, &l) in score.iter_mut().zip(addend(col)) {
                                *s += l;
                            }
                        }
                        argmax(&score)
                    }
                };
                *err += self.loss[best as usize * c + truth];
            }
        }
        errors
    }
}

impl std::fmt::Debug for SuffStats<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuffStats")
            .field("n_train", &self.train.len())
            .field("n_features", &self.tables.len())
            .field(
                "tables_built",
                &self.tables.iter().filter(|t| t.get().is_some()).count(),
            )
            .finish()
    }
}

/// Fitting through a [`SuffStats`] cache, with an optional warm-start
/// model from the parent subset of a greedy step.
///
/// The contract every implementation must keep: for the `(data, train)`
/// pair the statistics were built over, `fit_swept(stats, feats, warm)`
/// must predict like a classifier trained on that pair — and when the
/// classifier is deterministic-decomposable (Naive Bayes), the result is
/// **bit-for-bit equal** to [`Classifier::fit`], warm or not. Classifiers
/// with nothing to gain from the cache keep the provided default, which
/// simply delegates to their ordinary fit.
pub trait SweepFit: Classifier {
    /// Fits `feats` over the cache's `(data, train)` pair, optionally
    /// warm-starting from the parent subset's fitted model.
    fn fit_swept(
        &self,
        stats: &SuffStats<'_>,
        feats: &[usize],
        warm: Option<&Self::Fitted>,
    ) -> Self::Fitted {
        let _ = warm;
        self.fit(stats.data(), stats.train(), feats)
    }

    /// Scores a swept model on `rows` — the metric evaluation a wrapper
    /// performs once per candidate. Must return **exactly**
    /// `metric.eval(model, data, rows)`; the default does precisely
    /// that, and overrides may only change how fast the same floats are
    /// produced (Naive Bayes scores through
    /// [`NaiveBayesModel::batch_error`], which is bitwise identical but
    /// allocation-free).
    fn eval_swept(
        &self,
        model: &Self::Fitted,
        data: &Dataset,
        rows: &[usize],
        metric: ErrorMetric,
    ) -> f64 {
        metric.eval(model, data, rows)
    }

    /// Scores many subsets at once: the validation error of every
    /// subset in `subsets`, in list order. Returning `None` (the
    /// default) means "no batched path" and the search falls back to
    /// one `fit_swept` + `eval_swept` per subset. An override must
    /// return errors **bitwise identical** to that fallback, whatever
    /// the order of `rows` (the engine passes them ascending).
    fn sweep(
        &self,
        stats: &SuffStats<'_>,
        subsets: &[Vec<usize>],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Option<Vec<f64>> {
        let _ = (stats, subsets, rows, metric, threads);
        None
    }
}

impl SweepFit for NaiveBayes {
    fn fit_swept(
        &self,
        stats: &SuffStats<'_>,
        feats: &[usize],
        _warm: Option<&NaiveBayesModel>,
    ) -> NaiveBayesModel {
        stats.nb_model(self.smoothing, feats)
    }

    fn eval_swept(
        &self,
        model: &NaiveBayesModel,
        data: &Dataset,
        rows: &[usize],
        metric: ErrorMetric,
    ) -> f64 {
        model.batch_error(data, rows, metric)
    }

    fn sweep(
        &self,
        stats: &SuffStats<'_>,
        subsets: &[Vec<usize>],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Option<Vec<f64>> {
        Some(stats.nb_subset_errors(self.smoothing, subsets, rows, metric, threads))
    }
}

impl SweepFit for LogisticRegression {
    fn fit_swept(
        &self,
        stats: &SuffStats<'_>,
        feats: &[usize],
        warm: Option<&Self::Fitted>,
    ) -> Self::Fitted {
        self.fit_warm(stats.data(), stats.train(), feats, warm)
    }
}

impl SweepFit for Tan {}

impl SweepFit for DecisionTree {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;
    use crate::info::{information_gain_ratio, mutual_information};

    fn data() -> Dataset {
        let n = 240u32;
        let x0: Vec<u32> = (0..n).map(|i| i % 3).collect();
        let x1: Vec<u32> = (0..n).map(|i| (i * 7 + 1) % 5).collect();
        let x2: Vec<u32> = (0..n).map(|i| (i / 3) % 4).collect();
        let y: Vec<u32> = x0.iter().map(|&v| u32::from(v == 0)).collect();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 3,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 5,
                    codes: x1,
                },
                Feature {
                    name: "x2".into(),
                    domain_size: 4,
                    codes: x2,
                },
            ],
            y,
            2,
        )
    }

    #[test]
    fn nb_assembly_is_bit_for_bit_equal_to_direct_fit() {
        let d = data();
        let train: Vec<usize> = (0..160).step_by(2).collect();
        let stats = SuffStats::new(&d, &train);
        let nb = NaiveBayes::default();
        for feats in [vec![], vec![0], vec![1, 2], vec![0, 1, 2]] {
            let direct = nb.fit(&d, &train, &feats);
            let assembled = stats.nb_model(nb.smoothing, &feats);
            assert_eq!(direct, assembled, "feats {feats:?}");
            let swept = nb.fit_swept(&stats, &feats, None);
            assert_eq!(direct, swept);
        }
    }

    #[test]
    fn nb_assembly_matches_with_non_default_smoothing() {
        let d = data();
        let train: Vec<usize> = (3..200).collect();
        let stats = SuffStats::new(&d, &train);
        let nb = NaiveBayes::new(0.25);
        let direct = nb.fit(&d, &train, &[0, 2]);
        assert_eq!(direct, nb.fit_swept(&stats, &[0, 2], None));
    }

    #[test]
    fn cached_filter_scores_are_bit_for_bit_equal() {
        let d = data();
        let train: Vec<usize> = (0..240).filter(|r| r % 3 != 1).collect();
        let stats = SuffStats::new(&d, &train);
        for f in 0..d.n_features() {
            let feat = d.feature(f);
            let mi = mutual_information(&feat.codes, feat.domain_size, d.labels(), 2, &train);
            let igr = information_gain_ratio(&feat.codes, feat.domain_size, d.labels(), 2, &train);
            assert_eq!(stats.mutual_information(f), mi, "MI mismatch on {f}");
            assert_eq!(stats.information_gain_ratio(f), igr, "IGR mismatch on {f}");
        }
    }

    #[test]
    fn empty_train_set_scores_zero() {
        let d = data();
        let train: Vec<usize> = Vec::new();
        let stats = SuffStats::new(&d, &train);
        assert_eq!(stats.mutual_information(0), 0.0);
        assert_eq!(stats.information_gain_ratio(0), 0.0);
    }

    #[test]
    fn tables_are_built_once_and_shared_across_threads() {
        let d = data();
        let train: Vec<usize> = (0..240).collect();
        let stats = SuffStats::new(&d, &train);
        // Instance-local evidence: the process-global miss counter is
        // bumped concurrently by sibling tests, so assert on this
        // instance instead — one build means one shared allocation.
        let ptrs: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        (0..8)
                            .map(|_| stats.table(1).as_ptr() as usize)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert_eq!(ptrs.len(), 32);
        assert!(
            ptrs.iter().all(|&p| p == ptrs[0]),
            "the table must be built exactly once and shared"
        );
    }

    #[test]
    fn batch_error_is_bitwise_equal_to_metric_eval() {
        let d = data();
        let train: Vec<usize> = (0..160).collect();
        let val: Vec<usize> = (160..240).collect();
        let nb = NaiveBayes::default();
        for feats in [vec![], vec![1], vec![0, 1, 2]] {
            let model = nb.fit(&d, &train, &feats);
            for metric in [ErrorMetric::ZeroOne, ErrorMetric::Rmse] {
                let slow = metric.eval(&model, &d, &val);
                let fast = nb.eval_swept(&model, &d, &val, metric);
                assert_eq!(slow.to_bits(), fast.to_bits(), "{metric:?} on {feats:?}");
            }
        }
    }

    #[test]
    fn sweep_errors_are_bitwise_equal_to_per_trial_scoring() {
        let d = data();
        let train: Vec<usize> = (0..160).collect();
        let val: Vec<usize> = (160..240).rev().collect();
        let stats = SuffStats::new(&d, &train);
        // Singletons (prior-folded tables), a forward sweep over parent
        // {1}, a backward sweep from {0, 1, 2}, the empty subset and a
        // duplicate, listed out of order.
        let subsets: Vec<Vec<usize>> = vec![
            vec![1, 2],
            vec![0],
            vec![0, 1, 2],
            vec![],
            vec![0, 1],
            vec![2],
            vec![0, 2],
            vec![1],
            vec![0, 1],
        ];
        for metric in [ErrorMetric::ZeroOne, ErrorMetric::Rmse] {
            for threads in [1, 3] {
                let errs = stats.nb_subset_errors(0.5, &subsets, &val, metric, threads);
                for (s, err) in subsets.iter().zip(&errs) {
                    let model = stats.nb_model(0.5, s);
                    let direct = metric.eval(&model, &d, &val);
                    assert_eq!(direct.to_bits(), err.to_bits(), "{metric:?} {s:?}");
                }
            }
        }
    }

    #[test]
    fn sweep_span_counts_subsets_rows_and_trie_additions() {
        let d = data();
        let train: Vec<usize> = (0..160).collect();
        let val: Vec<usize> = (160..237).collect();
        let stats = SuffStats::new(&d, &train);
        // Trie nodes: {0} 1, {0, 1} 1, {0, 1, 2} 1, {1, 2} 2 — five
        // additions per row, and one span for the whole call.
        let subsets = vec![vec![0, 1, 2], vec![1, 2], vec![0], vec![0, 1]];
        hamlet_obs::span::set_tracing(true);
        stats.nb_subset_errors(1.0, &subsets, &val, ErrorMetric::ZeroOne, 2);
        hamlet_obs::span::set_tracing(false);
        // Sibling tests may sweep while tracing is on; match the detail.
        let detail = format!("subsets=4 rows=77 adds={}", 5 * 77);
        let spans: Vec<_> = hamlet_obs::span::drain_spans()
            .into_iter()
            .filter(|s| s.name == "ml.nb_sweep" && s.detail == detail)
            .collect();
        assert_eq!(spans.len(), 1, "one ml.nb_sweep span with {detail}");
    }

    #[test]
    fn warm_prebuilds_every_table_and_counts_match_lazy_builds() {
        let d = data();
        // Scattered train rows: the gather kernel path.
        let train: Vec<usize> = (0..240).filter(|r| r % 7 != 2).collect();
        let warmed = SuffStats::new(&d, &train);
        warmed.warm(&[0, 1, 2], 4);
        // Instance-local evidence only: the process-global miss counter
        // is bumped concurrently by sibling tests. Warming built all
        // three tables, and later reads serve those same allocations.
        let built = |s: &SuffStats<'_>| format!("{s:?}");
        assert!(
            built(&warmed).contains("tables_built: 3"),
            "{}",
            built(&warmed)
        );
        let ptrs: Vec<*const u64> = (0..3).map(|f| warmed.table(f).as_ptr()).collect();
        let lazy = SuffStats::new(&d, &train);
        assert!(built(&lazy).contains("tables_built: 0"), "{}", built(&lazy));
        for (f, &ptr) in ptrs.iter().enumerate() {
            assert_eq!(warmed.table(f), lazy.table(f), "feature {f}");
            assert_eq!(warmed.table(f).as_ptr(), ptr, "feature {f} was rebuilt");
        }
        assert!(built(&lazy).contains("tables_built: 3"), "{}", built(&lazy));
        // Contiguous train rows: the gather-free kernel path, same counts.
        let contiguous: Vec<usize> = (30..210).collect();
        let fast = SuffStats::new(&d, &contiguous);
        let mut naive = vec![0u64; 2 * d.feature(1).domain_size];
        let dim = d.feature(1).domain_size;
        for &r in &contiguous {
            naive[d.labels()[r] as usize * dim + d.feature(1).codes[r] as usize] += 1;
        }
        assert_eq!(fast.table(1), naive.as_slice());
    }

    #[test]
    fn logreg_sweep_fit_matches_cold_fit_without_warm_model() {
        let d = data();
        let train: Vec<usize> = (0..200).collect();
        let stats = SuffStats::new(&d, &train);
        let lr = LogisticRegression::l2(0.05).with_seed(9);
        let cold = lr.fit(&d, &train, &[0, 1]);
        let swept = lr.fit_swept(&stats, &[0, 1], None);
        assert_eq!(cold, swept, "no warm model ⇒ identical SGD trajectory");
    }
}
