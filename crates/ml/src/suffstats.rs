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
//! the tables, logistic regression warm-starts SGD from the parent
//! subset's weights, and anything else falls back to its ordinary
//! [`Classifier::fit`].

use std::sync::OnceLock;
use std::time::Instant;

use crate::classifier::{Classifier, ErrorMetric};
use crate::dataset::Dataset;
use crate::info::{entropy_of_counts, mutual_information_of_counts};
use crate::logreg::LogisticRegression;
use crate::naive_bayes::{smoothed_log_table, transposed, NaiveBayes, NaiveBayesModel};
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

    /// Validation errors of every forward trial `sort(selected ∪ {f})`
    /// for `f` in `candidates`, in candidate order — **bitwise
    /// identical** to assembling each trial's model and scoring it with
    /// [`NaiveBayesModel::batch_error`], but in one pass over `rows`
    /// per worker instead of one pass per candidate.
    ///
    /// Per row, the class scores of the shared parent prefix are
    /// accumulated once (`prefix[j]` = prior + the first `j` selected
    /// features' addends, in ascending feature order); each trial then
    /// resumes from the candidate's sorted insertion point, adds the
    /// candidate's addend, and replays the tail — the exact addition
    /// sequence of the trial's own model, so every float matches. Error
    /// accumulation over rows stays in row order per trial.
    ///
    /// Trials are chunked across up to `threads` scoped workers; each
    /// chunk owns disjoint accumulators, so the result is independent
    /// of the worker count.
    pub fn nb_forward_sweep_errors(
        &self,
        smoothing: f64,
        selected: &[usize],
        candidates: &[usize],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Vec<f64> {
        let mut sorted_sel: Vec<usize> = selected.to_vec();
        sorted_sel.sort_unstable();
        self.nb_sweep_errors(
            smoothing,
            &sorted_sel,
            &candidates
                .iter()
                .map(|&f| SweepTrial {
                    insert: Some(f),
                    skip: None,
                })
                .collect::<Vec<_>>(),
            rows,
            metric,
            threads,
        )
    }

    /// Validation errors of every backward trial `selected \ {selected[i]}`
    /// for each position `i`, in position order — bitwise identical to
    /// per-trial assembly + [`NaiveBayesModel::batch_error`], computed
    /// in one pass over `rows` per worker. `selected` must be sorted
    /// ascending (backward search keeps it that way).
    pub fn nb_backward_sweep_errors(
        &self,
        smoothing: f64,
        selected: &[usize],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Vec<f64> {
        debug_assert!(selected.windows(2).all(|w| w[0] < w[1]));
        self.nb_sweep_errors(
            smoothing,
            selected,
            &(0..selected.len())
                .map(|i| SweepTrial {
                    insert: None,
                    skip: Some(i),
                })
                .collect::<Vec<_>>(),
            rows,
            metric,
            threads,
        )
    }

    /// Shared sweep core: each trial is `sorted_sel` with either one
    /// feature inserted at its sorted position or one position skipped.
    fn nb_sweep_errors(
        &self,
        smoothing: f64,
        sorted_sel: &[usize],
        trials: &[SweepTrial],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Vec<f64> {
        if trials.is_empty() {
            return Vec::new();
        }
        if rows.is_empty() {
            // metric.eval on no rows is 0.0 for both metrics.
            return vec![0.0; trials.len()];
        }
        let c = self.data.n_classes();
        let k = sorted_sel.len();
        let n = rows.len();
        let prior = self.log_prior_vec(smoothing);
        let sel_tables: Vec<Vec<f64>> = sorted_sel
            .iter()
            .map(|&f| self.log_table_t(smoothing, f))
            .collect();
        // The evaluation rows are typically a shuffled permutation, so
        // `codes[r]` in the scoring loop would be a random gather per
        // (row, trial). Gather each involved column once, up front, into
        // dense arrays aligned with the row iteration order — pure data
        // movement, so every float the scoring loop produces is
        // untouched. Offsets are pre-scaled by `c` to index the
        // transposed tables directly.
        let gather = |f: usize| -> Vec<u32> {
            let codes = &self.data.feature(f).codes;
            rows.iter().map(|&r| codes[r] * c as u32).collect()
        };
        let sel_offs: Vec<Vec<u32>> = sorted_sel.iter().map(|&f| gather(f)).collect();
        let labels = self.data.labels();
        let truths: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();

        // Chunk trials across workers; every chunk scans the rows once
        // with its own accumulators, so results do not depend on the
        // worker count.
        let chunk = trials.len().div_ceil(threads.max(1));
        let n_chunks = trials.len().div_ceil(chunk);
        let errors = |wrong: &[u64], sq: &[f64]| -> Vec<f64> {
            match metric {
                ErrorMetric::ZeroOne => wrong.iter().map(|&w| w as f64 / n as f64).collect(),
                ErrorMetric::Rmse => sq.iter().map(|&s| (s / n as f64).sqrt()).collect(),
            }
        };

        if k == 0 {
            // Empty parent ⇒ every trial inserts one feature, and its
            // score is `prior[y] + table[v*c+y]` exactly. Fusing the
            // prior into each candidate's table once turns scoring into
            // a block lookup + argmax per (row, trial) — the same
            // single addition per class, performed ahead of the scan.
            let per_chunk = hamlet_obs::parallel::run_indexed(n_chunks, threads, &|ci| {
                let lo = ci * chunk;
                let hi = (lo + chunk).min(trials.len());
                let infos: Vec<(Vec<u32>, Vec<f64>)> = trials[lo..hi]
                    .iter()
                    .map(|t| {
                        let f = t.insert.expect("empty parent has insert trials only");
                        let mut pt = self.log_table_t(smoothing, f);
                        for block in pt.chunks_exact_mut(c) {
                            for (s, &p) in block.iter_mut().zip(&prior) {
                                // IEEE addition commutes bitwise, so
                                // `l + p` equals the recipe's `p + l`.
                                *s += p;
                            }
                        }
                        (gather(f), pt)
                    })
                    .collect();
                let mut wrong = vec![0u64; infos.len()];
                let mut sq = vec![0f64; infos.len()];
                for i in 0..n {
                    let truth = truths[i];
                    for (t, (offs, pt)) in infos.iter().enumerate() {
                        let off = offs[i] as usize;
                        let best = argmax(&pt[off..off + c]);
                        match metric {
                            ErrorMetric::ZeroOne => wrong[t] += u64::from(best as u32 != truth),
                            ErrorMetric::Rmse => {
                                let diff = best as f64 - truth as f64;
                                sq[t] += diff * diff;
                            }
                        }
                    }
                }
                errors(&wrong, &sq)
            });
            return per_chunk.into_iter().flatten().collect();
        }

        let per_chunk = hamlet_obs::parallel::run_indexed(n_chunks, threads, &|ci| {
            let lo = ci * chunk;
            let hi = (lo + chunk).min(trials.len());
            let infos: Vec<TrialInfo> = trials[lo..hi]
                .iter()
                .map(|t| match (t.insert, t.skip) {
                    (Some(f), None) => (
                        sorted_sel.partition_point(|&s| s < f),
                        Some((gather(f), self.log_table_t(smoothing, f))),
                    ),
                    (None, Some(i)) => (i, None),
                    _ => unreachable!("a trial inserts xor skips"),
                })
                .collect();
            let mut prefix = vec![0f64; (k + 1) * c];
            let mut score = vec![0f64; c];
            let mut wrong = vec![0u64; infos.len()];
            let mut sq = vec![0f64; infos.len()];
            for i in 0..n {
                prefix[..c].copy_from_slice(&prior);
                for j in 0..k {
                    let off = sel_offs[j][i] as usize;
                    let (done, rest) = prefix.split_at_mut((j + 1) * c);
                    let prev = &done[j * c..];
                    let block = &sel_tables[j][off..off + c];
                    for y in 0..c {
                        rest[y] = prev[y] + block[y];
                    }
                }
                let truth = truths[i];
                for (t, (pos, cand)) in infos.iter().enumerate() {
                    let p_block = &prefix[pos * c..pos * c + c];
                    // Resume from the parent prefix, fold in the
                    // trial's remaining addends in sorted order (the
                    // first one fused with the resume copy), and argmax.
                    let best = match cand {
                        Some((offs, table)) => {
                            let off = offs[i] as usize;
                            let block = &table[off..off + c];
                            for ((s, &p), &l) in score.iter_mut().zip(p_block).zip(block) {
                                *s = p + l;
                            }
                            for j in *pos..k {
                                let off = sel_offs[j][i] as usize;
                                let block = &sel_tables[j][off..off + c];
                                for (s, &l) in score.iter_mut().zip(block) {
                                    *s += l;
                                }
                            }
                            argmax(&score)
                        }
                        None if *pos + 1 == k => argmax(p_block),
                        None => {
                            let off = sel_offs[*pos + 1][i] as usize;
                            let block = &sel_tables[*pos + 1][off..off + c];
                            for ((s, &p), &l) in score.iter_mut().zip(p_block).zip(block) {
                                *s = p + l;
                            }
                            for j in *pos + 2..k {
                                let off = sel_offs[j][i] as usize;
                                let block = &sel_tables[j][off..off + c];
                                for (s, &l) in score.iter_mut().zip(block) {
                                    *s += l;
                                }
                            }
                            argmax(&score)
                        }
                    };
                    match metric {
                        ErrorMetric::ZeroOne => wrong[t] += u64::from(best as u32 != truth),
                        ErrorMetric::Rmse => {
                            let diff = best as f64 - truth as f64;
                            sq[t] += diff * diff;
                        }
                    }
                }
            }
            errors(&wrong, &sq)
        });
        per_chunk.into_iter().flatten().collect()
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

/// Index of the strictly greatest score — lowest index on ties, the
/// same rule as `predict_row`'s `scores[y] > scores[best]` scan, in a
/// branch-free form (mispredicted compares dominate the scoring loop
/// otherwise).
#[inline]
fn argmax(block: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_val = block[0];
    for (y, &s) in block.iter().enumerate().skip(1) {
        let better = s > best_val;
        best = if better { y } else { best };
        best_val = if better { s } else { best_val };
    }
    best
}

/// One trial of a greedy sweep: the sorted parent subset with either
/// one feature inserted at its sorted position (`insert`) or one
/// position dropped (`skip`). Exactly one of the two is set.
struct SweepTrial {
    insert: Option<usize>,
    skip: Option<usize>,
}

/// Per-trial scoring state: the resume position in the parent prefix,
/// plus (for insertions) the candidate's gathered code offsets and
/// transposed log table.
type TrialInfo = (usize, Option<(Vec<u32>, Vec<f64>)>);

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

    /// Scores one entire forward sweep at once: the validation error of
    /// `sort(selected ∪ {f})` for every `f` in `candidates`, in
    /// candidate order. Returning `None` (the default) means "no
    /// batched path" and the search falls back to one
    /// `fit_swept` + `eval_swept` per candidate. An override must
    /// return errors **bitwise identical** to that fallback.
    fn forward_sweep(
        &self,
        stats: &SuffStats<'_>,
        selected: &[usize],
        candidates: &[usize],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Option<Vec<f64>> {
        let _ = (stats, selected, candidates, rows, metric, threads);
        None
    }

    /// Scores one entire backward sweep at once: the validation error
    /// of `selected \ {selected[i]}` for every position `i`, in
    /// position order (`selected` is sorted ascending during backward
    /// search). Same contract as [`SweepFit::forward_sweep`].
    fn backward_sweep(
        &self,
        stats: &SuffStats<'_>,
        selected: &[usize],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Option<Vec<f64>> {
        let _ = (stats, selected, rows, metric, threads);
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

    fn forward_sweep(
        &self,
        stats: &SuffStats<'_>,
        selected: &[usize],
        candidates: &[usize],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Option<Vec<f64>> {
        Some(stats.nb_forward_sweep_errors(
            self.smoothing,
            selected,
            candidates,
            rows,
            metric,
            threads,
        ))
    }

    fn backward_sweep(
        &self,
        stats: &SuffStats<'_>,
        selected: &[usize],
        rows: &[usize],
        metric: ErrorMetric,
        threads: usize,
    ) -> Option<Vec<f64>> {
        Some(stats.nb_backward_sweep_errors(self.smoothing, selected, rows, metric, threads))
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
        let val: Vec<usize> = (160..240).collect();
        let stats = SuffStats::new(&d, &train);
        for metric in [ErrorMetric::ZeroOne, ErrorMetric::Rmse] {
            for threads in [1, 3] {
                // Empty parent: exercises the fused prior+table path.
                let first =
                    stats.nb_forward_sweep_errors(0.5, &[], &[0, 1, 2], &val, metric, threads);
                for (i, &f) in [0usize, 1, 2].iter().enumerate() {
                    let model = stats.nb_model(0.5, &[f]);
                    let direct = metric.eval(&model, &d, &val);
                    assert_eq!(
                        direct.to_bits(),
                        first[i].to_bits(),
                        "{metric:?} single {f}"
                    );
                }
                // Forward: parent {1}, candidates {0, 2} (unsorted parent
                // order exercised via the engine path elsewhere).
                let fwd = stats.nb_forward_sweep_errors(0.5, &[1], &[0, 2], &val, metric, threads);
                for (i, &f) in [0usize, 2].iter().enumerate() {
                    let mut trial = vec![1, f];
                    trial.sort_unstable();
                    let model = stats.nb_model(0.5, &trial);
                    let direct = metric.eval(&model, &d, &val);
                    assert_eq!(direct.to_bits(), fwd[i].to_bits(), "{metric:?} insert {f}");
                }
                // Backward: drop each position of the sorted full set.
                let bwd = stats.nb_backward_sweep_errors(0.5, &[0, 1, 2], &val, metric, threads);
                for (i, err) in bwd.iter().enumerate() {
                    let mut trial = vec![0, 1, 2];
                    trial.remove(i);
                    let model = stats.nb_model(0.5, &trial);
                    let direct = metric.eval(&model, &d, &val);
                    assert_eq!(direct.to_bits(), err.to_bits(), "{metric:?} drop {i}");
                }
            }
        }
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
