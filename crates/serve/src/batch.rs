//! Request batches: the column-major [`CodedBatch`] every request is
//! decoded into, the [`ScoredBatch`] scoring returns, and the
//! [`MicroBatcher`] that coalesces concurrent single-row requests onto
//! one batch.
//!
//! At fleet traffic the server sees many *tiny* requests at once, and
//! the batch path (`Scorer::score`) amortizes model and schema accesses
//! across rows. The [`MicroBatcher`] exploits that without changing a
//! single answer: batches landing within one collection window are
//! coalesced, scored together, and each caller gets back the scores of
//! its own rows.
//!
//! **Bit-for-bit identity.** Rows are validated and decoded on their
//! own worker *before* entering the batcher, and every model scores a
//! row from that row's codes alone (`CodeSource::code(f, row)`), so a
//! coalesced batch produces exactly the floats the same rows would
//! produce scored one by one — property-tested in
//! `tests/proptests_serve.rs`.
//!
//! **Protocol.** The first batch to arrive while no batch is collecting
//! becomes the *leader*: it sleeps the window (lock released), then
//! takes everything that queued behind it, scores the combined batch,
//! and delivers each submitter's rows into its slot. Followers block on
//! their slot. A follower whose leader died (worker panic) falls back
//! to scoring its own batch directly after a bounded wait — batching is
//! an optimization, never a liveness hazard.
//!
//! The window comes from `--batch-window-us` / `HAMLET_BATCH_WINDOW_US`;
//! zero (the default) disables coalescing entirely and scores inline.

use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use hamlet_ml::{CodeSource, Column};

use crate::artifact::ModelArtifact;
use crate::score::Scorer;

/// Validated request rows, column-major: feature `f`'s codes are one
/// contiguous run, so the fitted models score a batch through the same
/// [`CodeSource`] trait ([`Column::Rows`]) they were trained against.
/// Every code has passed validation and `Others` routing
/// (`Scorer::decode_body`, `Scorer::code_rows`).
#[derive(Debug, Clone)]
pub struct CodedBatch<'a> {
    artifact: &'a ModelArtifact,
    /// `codes[f * stride + r]`; the first `n_rows` of each run are set.
    codes: Vec<u32>,
    stride: usize,
    n_rows: usize,
}

impl<'a> CodedBatch<'a> {
    pub(crate) fn with_capacity(artifact: &'a ModelArtifact, rows: usize) -> Self {
        CodedBatch {
            artifact,
            codes: vec![0; artifact.features.len() * rows],
            stride: rows,
            n_rows: 0,
        }
    }

    /// Rows in the batch.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Row `r`'s codes in schema order.
    pub(crate) fn row(&self, r: usize) -> impl Iterator<Item = u32> + '_ {
        (0..self.artifact.features.len()).map(move |f| self.codes[f * self.stride + r])
    }

    /// Appends one validated row (`row[f]` in schema order), doubling
    /// the per-feature runs when they are full.
    pub(crate) fn push_row(&mut self, row: &[u32]) {
        if self.n_rows == self.stride {
            let stride = (2 * self.stride).max(8);
            let mut codes = vec![0; row.len() * stride];
            for f in 0..row.len() {
                let (old, new) = (f * self.stride, f * stride);
                codes[new..new + self.n_rows].copy_from_slice(&self.codes[old..old + self.n_rows]);
            }
            self.codes = codes;
            self.stride = stride;
        }
        for (f, &code) in row.iter().enumerate() {
            self.codes[f * self.stride + self.n_rows] = code;
        }
        self.n_rows += 1;
    }
}

impl CodeSource for CodedBatch<'_> {
    fn n_examples(&self) -> usize {
        self.n_rows
    }

    fn n_classes(&self) -> usize {
        self.artifact.n_classes
    }

    fn n_features(&self) -> usize {
        self.artifact.features.len()
    }

    fn feature_domain_size(&self, f: usize) -> usize {
        self.artifact.features[f].domain_size
    }

    fn feature_name(&self, f: usize) -> &str {
        &self.artifact.features[f].name
    }

    fn column(&self, f: usize) -> Column<'_> {
        Column::Rows(&self.codes[f * self.stride..f * self.stride + self.n_rows])
    }

    fn label(&self, _row: usize) -> u32 {
        // Requests carry no target; nothing in prediction reads this.
        0
    }
}

/// A scored batch: per row its class and `width` scores.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredBatch {
    width: usize,
    classes: Vec<u32>,
    scores: Vec<f64>,
}

impl ScoredBatch {
    pub(crate) fn new(width: usize, classes: Vec<u32>, scores: Vec<f64>) -> Self {
        ScoredBatch {
            width,
            classes,
            scores,
        }
    }

    /// Rows scored.
    pub(crate) fn n_rows(&self) -> usize {
        self.classes.len()
    }

    /// Row `r`'s class and scores.
    pub(crate) fn row(&self, r: usize) -> (u32, &[f64]) {
        let w = self.width;
        (self.classes[r], &self.scores[r * w..(r + 1) * w])
    }

    /// The rows in `rows`, as a batch of their own.
    fn slice(&self, rows: Range<usize>) -> ScoredBatch {
        let w = self.width;
        ScoredBatch::new(
            w,
            self.classes[rows.clone()].to_vec(),
            self.scores[rows.start * w..rows.end * w].to_vec(),
        )
    }
}

/// How long past the window a follower waits for its leader before
/// concluding the leader died and scoring its own rows directly.
const ORPHAN_GRACE: Duration = Duration::from_secs(2);

/// Lock helper: a poisoned mutex only means a peer panicked mid-update;
/// the protected state is still structurally sound, and a scoring
/// server must keep serving.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One submitter's result mailbox.
struct Slot {
    result: Mutex<Option<ScoredBatch>>,
    ready: Condvar,
}

/// A queued batch waiting for the current leader.
struct Pending {
    /// The submitter's validated codes, row-major (`n_rows` rows).
    codes: Vec<u32>,
    n_rows: usize,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct State {
    /// A leader is currently sleeping its collection window.
    collecting: bool,
    /// Batches queued for that leader (including the leader's own).
    pending: Vec<Pending>,
}

/// Windowed coalescer of coded batches against one scorer. One batcher
/// per registry entry, so batches never mix models.
pub struct MicroBatcher {
    window: Duration,
    state: Mutex<State>,
}

impl MicroBatcher {
    /// A batcher with the given collection window; zero disables
    /// coalescing ([`MicroBatcher::score`] scores inline).
    pub fn new(window: Duration) -> Self {
        MicroBatcher {
            window,
            state: Mutex::new(State::default()),
        }
    }

    /// The configured collection window.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// Scores a validated batch, coalescing it with concurrent peers
    /// when a window is configured. `batch` must come from the same
    /// `scorer`.
    pub fn score(&self, scorer: &Scorer, batch: &CodedBatch<'_>) -> ScoredBatch {
        if self.window.is_zero() {
            return scorer.score(batch);
        }
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let is_leader = {
            let mut st = lock(&self.state);
            st.pending.push(Pending {
                codes: (0..batch.n_rows()).flat_map(|r| batch.row(r)).collect(),
                n_rows: batch.n_rows(),
                slot: Arc::clone(&slot),
            });
            if st.collecting {
                false
            } else {
                st.collecting = true;
                true
            }
        };

        if is_leader {
            // Collection window: lock released, peers queue up behind us.
            std::thread::sleep(self.window);
            let pending = {
                let mut st = lock(&self.state);
                st.collecting = false;
                std::mem::take(&mut st.pending)
            };
            let artifact = scorer.artifact();
            let d = artifact.features.len();
            let total = pending.iter().map(|p| p.n_rows).sum();
            let mut all = CodedBatch::with_capacity(artifact, total);
            for p in &pending {
                for r in 0..p.n_rows {
                    all.push_row(&p.codes[r * d..(r + 1) * d]);
                }
            }
            let scored = scorer.score(&all);
            let mut at = 0;
            for p in pending {
                *lock(&p.slot.result) = Some(scored.slice(at..at + p.n_rows));
                at += p.n_rows;
                p.slot.ready.notify_all();
            }
        }

        // Wait for the mailbox (the leader filled its own synchronously
        // above, so this returns immediately for leaders).
        let mut result = lock(&slot.result);
        loop {
            if let Some(scored) = result.take() {
                return scored;
            }
            let (guard, timed_out) = slot
                .ready
                .wait_timeout(result, self.window + ORPHAN_GRACE)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            result = guard;
            if timed_out.timed_out() {
                // Leader died before delivering. Check once more, then
                // score our own rows — identical result by construction.
                if let Some(scored) = result.take() {
                    return scored;
                }
                drop(result);
                return scorer.score(batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{FeatureSchema, ModelArtifact, ServableModel};
    use hamlet_ml::NaiveBayesModel;

    fn scorer() -> Scorer {
        let model = NaiveBayesModel::from_parts(
            vec![0],
            2,
            vec![(0.4f64).ln(), (0.6f64).ln()],
            vec![vec![0.9f64.ln(), 0.1f64.ln(), 0.2f64.ln(), 0.8f64.ln()]],
            vec![2],
        );
        Scorer::new(ModelArtifact {
            dataset: "unit".into(),
            n_classes: 2,
            class_labels: None,
            features: vec![FeatureSchema {
                name: "x".into(),
                domain_size: 2,
                labels: None,
                fk: None,
            }],
            decisions: vec![],
            model: ServableModel::NaiveBayes(model),
        })
    }

    #[test]
    fn zero_window_scores_inline() {
        let s = scorer();
        let b = MicroBatcher::new(Duration::ZERO);
        let batch = s.code_rows(&[vec![1]]).unwrap();
        assert_eq!(b.score(&s, &batch), s.score(&batch));
    }

    #[test]
    fn concurrent_submissions_coalesce_and_agree_with_unbatched() {
        let s = std::sync::Arc::new(scorer());
        let b = std::sync::Arc::new(MicroBatcher::new(Duration::from_millis(5)));
        // Batches of one to three rows, so the leader slices a coalesced
        // result back at uneven boundaries.
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let s = Arc::clone(&s);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let rows: Vec<Vec<u32>> =
                        (0..1 + i % 3).map(|j| vec![((i + j) % 2) as u32]).collect();
                    let scored = b.score(&s, &s.code_rows(&rows).unwrap());
                    (rows, scored)
                })
            })
            .collect();
        for h in handles {
            let (rows, scored) = h.join().unwrap();
            let direct = s.score(&s.code_rows(&rows).unwrap());
            assert_eq!(scored, direct, "batched scores drifted");
        }
    }

    #[test]
    fn a_lone_request_still_completes() {
        let s = scorer();
        let b = MicroBatcher::new(Duration::from_millis(2));
        let batch = s.code_rows(&[vec![0]]).unwrap();
        assert_eq!(b.score(&s, &batch), s.score(&batch));
    }
}
