//! A multiway (ID3-style) decision tree over nominal features.
//!
//! The paper's decision rules are derived for classifiers with VC
//! dimension linear in the number of feature values (footnote 5 notes
//! "the upper bound derivation is similar for classifiers with more
//! complex VC dimensions ... we leave a deeper formal analysis to future
//! work"). This tree is the test bed for that future-work question: the
//! `future_work` experiment checks empirically whether the TR rule's
//! verdicts transfer to a classifier whose capacity is *not* linear.
//!
//! Splits maximize information gain; growth stops at `max_depth`, below
//! `min_samples_split`, or when a node is pure. Leaves predict their
//! majority class.

use crate::classifier::{Classifier, Model};
use crate::info::entropy_of_counts;
use crate::source::{class_count_table, class_histogram, CodeSource};

/// Decision-tree learner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionTree {
    /// Maximum tree depth (root = depth 0). Caps capacity the way the
    /// paper caps linear models through their feature domains.
    pub max_depth: usize,
    /// Nodes with fewer rows become leaves.
    pub min_samples_split: usize,
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self {
            max_depth: 6,
            min_samples_split: 4,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        class: u32,
    },
    Split {
        /// Position into the *dataset's* features.
        feature: usize,
        /// One child per category code; `children[v]` handles `F = v`.
        children: Vec<usize>,
        /// Fallback class for categories unseen at this node.
        majority: u32,
    },
}

/// A fitted decision tree (arena-allocated nodes).
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTreeModel {
    feats: Vec<usize>,
    nodes: Vec<Node>,
    root: usize,
}

impl Classifier for DecisionTree {
    type Fitted = DecisionTreeModel;

    /// Node and split statistics come from [`class_histogram`] and
    /// [`class_count_table`], so a factorized view counts its foreign
    /// features through the FK and grows the tree a materialized
    /// dataset grows.
    fn fit<S: CodeSource + Sync + ?Sized>(
        &self,
        src: &S,
        rows: &[usize],
        feats: &[usize],
    ) -> DecisionTreeModel {
        let mut nodes = Vec::new();
        let root = build(
            src,
            rows,
            feats,
            self.max_depth,
            self.min_samples_split,
            &mut nodes,
        );
        DecisionTreeModel {
            feats: feats.to_vec(),
            nodes,
            root,
        }
    }
}

fn majority(counts: &[u64]) -> u32 {
    let mut best = 0usize;
    for (c, &n) in counts.iter().enumerate() {
        if n > counts[best] {
            best = c;
        }
    }
    best as u32
}

/// Information gain of splitting `rows` multiway on feature `f`: the
/// entropy of each value's class counts, read in class order from the
/// `[y * d + v]` count table.
fn split_gain<S: CodeSource + Sync + ?Sized>(
    src: &S,
    rows: &[usize],
    f: usize,
    parent_entropy: f64,
) -> f64 {
    let d = src.feature_domain_size(f);
    let c = src.n_classes();
    let counts = class_count_table(src, f, rows, 1);
    let mut child = vec![0u64; c];
    let mut cond = 0.0;
    for v in 0..d {
        for (y, k) in child.iter_mut().enumerate() {
            *k = counts[y * d + v];
        }
        let size: u64 = child.iter().sum();
        if size == 0 {
            continue;
        }
        cond += (size as f64 / rows.len() as f64) * entropy_of_counts(&child);
    }
    parent_entropy - cond
}

fn build<S: CodeSource + Sync + ?Sized>(
    src: &S,
    rows: &[usize],
    feats: &[usize],
    depth_left: usize,
    min_split: usize,
    nodes: &mut Vec<Node>,
) -> usize {
    let counts = class_histogram(src, rows);
    let maj = majority(&counts);
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    if pure || depth_left == 0 || rows.len() < min_split || feats.is_empty() {
        nodes.push(Node::Leaf { class: maj });
        return nodes.len() - 1;
    }

    // Best split by information gain. Candidate gains are scored in
    // parallel chunks (each gain is an independent count-then-entropy
    // pass) and reduced serially in feature order, so the winning
    // feature — and hence the whole tree — is identical at any thread
    // count.
    let parent_entropy = entropy_of_counts(&counts);
    let threads = hamlet_obs::env::resolved_threads().min(feats.len().max(1));
    let chunk = feats.len().div_ceil(threads.max(1)).max(1);
    let n_chunks = feats.len().div_ceil(chunk);
    let per_chunk = hamlet_obs::parallel::run_indexed(n_chunks, threads, &|ci| {
        let lo = ci * chunk;
        let hi = (lo + chunk).min(feats.len());
        feats[lo..hi]
            .iter()
            .map(|&f| split_gain(src, rows, f, parent_entropy))
            .collect::<Vec<f64>>()
    });
    let mut best: Option<(usize, f64)> = None;
    for (&f, &gain) in feats.iter().zip(per_chunk.iter().flatten()) {
        if gain > best.map_or(1e-12, |(_, g)| g) {
            best = Some((f, gain));
        }
    }

    let Some((split_feat, _)) = best else {
        nodes.push(Node::Leaf { class: maj });
        return nodes.len() - 1;
    };

    // Partition rows by category and recurse; the split feature stays
    // available below (multiway splits make re-splitting useless, but
    // removing it would misindex sibling subtrees' feats — keep simple).
    let remaining: Vec<usize> = feats.iter().copied().filter(|&f| f != split_feat).collect();
    let column = src.column(split_feat);
    let d = src.feature_domain_size(split_feat);
    let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); d];
    for &r in rows {
        partitions[column.code(r) as usize].push(r);
    }
    let mut children = Vec::with_capacity(d);
    for part in &partitions {
        if part.is_empty() {
            nodes.push(Node::Leaf { class: maj });
            children.push(nodes.len() - 1);
        } else {
            let child = build(src, part, &remaining, depth_left - 1, min_split, nodes);
            children.push(child);
        }
    }
    nodes.push(Node::Split {
        feature: split_feat,
        children,
        majority: maj,
    });
    nodes.len() - 1
}

impl DecisionTreeModel {
    /// Number of nodes in the tree (a capacity proxy).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { children, .. } => {
                    1 + children
                        .iter()
                        .map(|&c| depth_of(nodes, c))
                        .max()
                        .unwrap_or(0)
                }
            }
        }
        depth_of(&self.nodes, self.root)
    }
}

impl Model for DecisionTreeModel {
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32 {
        let mut i = self.root;
        loop {
            match &self.nodes[i] {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    children,
                    majority,
                } => {
                    let v = data.code(*feature, row) as usize;
                    match children.get(v) {
                        Some(&c) => i = c,
                        None => return *majority,
                    }
                }
            }
        }
    }

    fn features(&self) -> &[usize] {
        &self.feats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::zero_one_error;
    use crate::dataset::{Dataset, Feature};

    fn xor_data(n: usize) -> Dataset {
        let x0: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let x1: Vec<u32> = (0..n as u32).map(|i| (i / 2) % 2).collect();
        let y: Vec<u32> = x0.iter().zip(&x1).map(|(&a, &b)| a ^ b).collect();
        Dataset::new(
            vec![
                Feature {
                    name: "x0".into(),
                    domain_size: 2,
                    codes: x0,
                },
                Feature {
                    name: "x1".into(),
                    domain_size: 2,
                    codes: x1,
                },
            ],
            y,
            2,
        )
    }

    #[test]
    fn tree_solves_xor() {
        // ID3 with gain > 0 required per split would fail XOR (no single
        // feature helps); our tiny positive threshold means the root
        // split is only taken if gain is strictly positive. On perfectly
        // balanced XOR, gain is 0 -> tree must fall back to a leaf, so
        // we unbalance slightly to let it start.
        let d = xor_data(201);
        let rows: Vec<usize> = (0..201).collect();
        let m = DecisionTree::default().fit(&d, &rows, &[0, 1]);
        let err = zero_one_error(&m, &d, &rows);
        assert!(err <= 0.5, "err {err}");
    }

    #[test]
    fn learns_single_feature_concept_exactly() {
        let x: Vec<u32> = (0..300u32).map(|i| i % 3).collect();
        let y: Vec<u32> = x.iter().map(|&v| u32::from(v == 1)).collect();
        let d = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 3,
                codes: x,
            }],
            y,
            2,
        );
        let rows: Vec<usize> = (0..300).collect();
        let m = DecisionTree::default().fit(&d, &rows, &[0]);
        assert_eq!(zero_one_error(&m, &d, &rows), 0.0);
        assert_eq!(m.depth(), 1);
    }

    #[test]
    fn depth_limit_respected() {
        let d = xor_data(400);
        let rows: Vec<usize> = (0..400).collect();
        let m = DecisionTree {
            max_depth: 1,
            min_samples_split: 2,
        }
        .fit(&d, &rows, &[0, 1]);
        assert!(m.depth() <= 1);
    }

    #[test]
    fn pure_node_stops_early() {
        let d = Dataset::new(
            vec![Feature {
                name: "x".into(),
                domain_size: 2,
                codes: vec![0, 1, 0, 1],
            }],
            vec![1, 1, 1, 1],
            2,
        );
        let rows: Vec<usize> = (0..4).collect();
        let m = DecisionTree::default().fit(&d, &rows, &[0]);
        assert_eq!(m.n_nodes(), 1);
        assert_eq!(m.predict_row(&d, 0), 1);
    }

    #[test]
    fn min_samples_split_respected() {
        let d = xor_data(6);
        let rows: Vec<usize> = (0..6).collect();
        let m = DecisionTree {
            max_depth: 8,
            min_samples_split: 100,
        }
        .fit(&d, &rows, &[0, 1]);
        assert_eq!(m.n_nodes(), 1, "should be a single leaf");
    }

    #[test]
    fn empty_feature_set_is_majority_leaf() {
        let d = xor_data(10);
        let rows: Vec<usize> = (0..10).collect();
        let m = DecisionTree::default().fit(&d, &rows, &[]);
        assert_eq!(m.n_nodes(), 1);
    }

    #[test]
    fn large_domain_feature_memorizes() {
        // An FK-like feature with one row per value: the tree memorizes
        // the training labels — the same overfitting risk the ROR
        // quantifies for linear models.
        let n = 64u32;
        let fk: Vec<u32> = (0..n).collect();
        let y: Vec<u32> = (0..n).map(|i| (i * 7 + 1) % 2).collect();
        let d = Dataset::new(
            vec![Feature {
                name: "fk".into(),
                domain_size: n as usize,
                codes: fk,
            }],
            y,
            2,
        );
        let rows: Vec<usize> = (0..n as usize).collect();
        let m = DecisionTree::default().fit(&d, &rows, &[0]);
        assert_eq!(zero_one_error(&m, &d, &rows), 0.0, "memorization expected");
    }
}
