//! [`SweepFit`] integration: trees as first-class citizens of the
//! selection engine.
//!
//! The engine's per-candidate fallback already parallelizes across
//! candidates and reduces in index order, so these impls do not replace
//! the sweep loop; what they add is the `SuffStats` hook. Every greedy
//! trial re-grows a tree from the root, and the root's count tables are
//! exactly the cached `SuffStats` tables — so the private `StatsCounts`
//! adapter serves the root split of every candidate trial from the
//! shared cache with zero row scans, while deeper nodes scan only their
//! own row subsets. The result is bitwise equal to a plain `fit`: the
//! cached tables hold the same integers a fresh scan would produce.

use std::borrow::Cow;

use hamlet_ml::class_count_tables;
use hamlet_ml::suffstats::{SuffStats, SweepFit};

use crate::cart::{CartModel, CartTree, SplitCounts};
use crate::gbt::Gbt;

/// [`SplitCounts`] over a [`SuffStats`] cache: root tables from the
/// cache, deeper nodes by scanning the underlying dataset. Only valid
/// when the tree is grown over exactly the cache's training rows —
/// which is what [`SweepFit::fit_swept`] guarantees.
struct StatsCounts<'a, 'b> {
    stats: &'a SuffStats<'b>,
}

impl SplitCounts for StatsCounts<'_, '_> {
    fn n_classes(&self) -> usize {
        hamlet_ml::CodeSource::n_classes(self.stats.data())
    }

    fn domain_size(&self, f: usize) -> usize {
        self.stats.data().feature(f).domain_size
    }

    fn label(&self, row: usize) -> u32 {
        self.stats.data().labels()[row]
    }

    fn code(&self, f: usize, row: usize) -> u32 {
        self.stats.data().feature(f).codes[row]
    }

    fn count_tables<'s>(
        &'s self,
        feats: &'s [usize],
        rows: &'s [usize],
        threads: usize,
        root: bool,
    ) -> Box<dyn Iterator<Item = Cow<'s, [u64]>> + 's> {
        if root {
            // The cache was built over (data, train) and fit_swept grows
            // over exactly those training rows, so the cached tables
            // *are* the root tables.
            Box::new(feats.iter().map(|&f| Cow::Borrowed(self.stats.table(f))))
        } else {
            Box::new(class_count_tables(self.stats.data(), feats, rows, threads).map(Cow::Owned))
        }
    }
}

impl SweepFit for CartTree {
    fn fit_swept(
        &self,
        stats: &SuffStats<'_>,
        feats: &[usize],
        _warm: Option<&CartModel>,
    ) -> CartModel {
        self.fit_with(&StatsCounts { stats }, stats.train(), feats)
    }
}

// GBT gains nothing from cached count tables (its aggregates are
// residual sums that change every round), so it keeps the default
// fit-through delegation — correct, just uncached.
impl SweepFit for Gbt {}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_ml::classifier::Classifier;
    use hamlet_ml::dataset::{Dataset, Feature};

    fn data() -> Dataset {
        let x0: Vec<u32> = (0..60).map(|i| i % 4).collect();
        let x1: Vec<u32> = (0..60).map(|i| (i * 11 + 2) % 5).collect();
        let y: Vec<u32> = x0.iter().map(|&v| u32::from(v < 2)).collect();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 4,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 5,
                    codes: x1,
                },
            ],
            y,
            2,
        )
    }

    #[test]
    fn fit_swept_equals_fit_bit_for_bit() {
        let data = data();
        let train: Vec<usize> = (0..data.n_examples()).step_by(2).collect();
        let stats = SuffStats::new(&data, &train);
        let tree = CartTree::default();
        for feats in [vec![0usize], vec![1], vec![0, 1], vec![]] {
            let swept = tree.fit_swept(&stats, &feats, None);
            let direct = tree.fit(&data, &train, &feats);
            assert_eq!(swept, direct, "feats {feats:?}");
        }
        let gbt = Gbt::default();
        let swept = gbt.fit_swept(&stats, &[0, 1], None);
        let direct = gbt.fit(&data, &train, &[0, 1]);
        assert_eq!(swept, direct);
    }
}
