//! Property-based parity tests for the tree-learning subsystem: on
//! arbitrary star instances, factorized training (pushed-down count
//! aggregates, no join) must produce the *same object* — identical
//! splits, leaves, and predictions — as training on the materialized
//! join, and parallel split scoring must not depend on the thread
//! count. Dirty corpora (seeded chaos faults) must never panic tree
//! training.

use proptest::prelude::*;

use hamlet::chaos::corrupt::{corrupt_corpus, ChaosPlan, Corpus, FaultKind, FileProfile};
use hamlet::factorized::FactorizedView;
use hamlet::ml::classifier::{Classifier, Model};
use hamlet::ml::dataset::Dataset;
use hamlet::ml::CodeSource;
use hamlet::relational::{
    AttributeTable, DirtyPolicy, Domain, FkPolicy, LoadPolicy, Manifest, StarSchema, TableBuilder,
};
use hamlet::trees::{CartTree, Gbt, RegNode};

/// A random two-attribute-table star: `R` stores its RIDs in order,
/// `Q` stores them out of order, each carries two foreign features, and
/// the entity table has one feature, both FKs and ternary labels. Two
/// joins with different RID layouts make a mix-up of resolved rows
/// between FKs change the fitted model.
#[derive(Debug, Clone)]
struct Instance {
    /// Two foreign features per `R` row, row-major.
    r_feats: Vec<u32>,
    /// The RID stored at each `Q` row: a permutation, never the identity.
    q_rids: Vec<u32>,
    /// Two foreign features per `Q` row, row-major.
    q_feats: Vec<u32>,
    fk_r: Vec<u32>,
    fk_q: Vec<u32>,
    xs: Vec<u32>,
    ys: Vec<u32>,
}

fn star_instance() -> impl Strategy<Value = Instance> {
    (2usize..10, 2usize..8).prop_flat_map(|(n_r, n_q)| {
        (
            proptest::collection::vec(0..5u32, n_r * 2),
            proptest::collection::vec(0..1000u32, n_q), // sort keys for Q's RID order
            proptest::collection::vec(0..4u32, n_q * 2),
            proptest::collection::vec((0..n_r as u32, 0..n_q as u32), 20..150),
        )
            .prop_flat_map(|(r_feats, keys, q_feats, fks)| {
                let n_s = fks.len();
                (
                    Just((r_feats, keys, q_feats, fks)),
                    proptest::collection::vec((0..3u32, 0..3u32), n_s), // (xs, y)
                )
            })
            .prop_map(|((r_feats, keys, q_feats, fks), xys)| {
                let mut q_rids: Vec<u32> = (0..keys.len() as u32).collect();
                q_rids.sort_by_key(|&i| (keys[i as usize], i));
                if q_rids.windows(2).all(|w| w[0] < w[1]) {
                    q_rids.reverse();
                }
                Instance {
                    r_feats,
                    q_rids,
                    q_feats,
                    fk_r: fks.iter().map(|p| p.0).collect(),
                    fk_q: fks.iter().map(|p| p.1).collect(),
                    xs: xys.iter().map(|p| p.0).collect(),
                    ys: xys.iter().map(|p| p.1).collect(),
                }
            })
    })
}

/// Column `k` of a row-major two-column feature block.
fn col(pairs: &[u32], k: usize) -> Vec<u32> {
    pairs.iter().skip(k).step_by(2).copied().collect()
}

fn build_star(inst: &Instance) -> StarSchema {
    let n_r = inst.r_feats.len() / 2;
    let n_q = inst.q_rids.len();
    let rid_r = Domain::indexed("RID", n_r).shared();
    let r = TableBuilder::new("R")
        .primary_key("RID", rid_r.clone(), (0..n_r as u32).collect())
        .feature(
            "xr",
            Domain::indexed("xr", 5).shared(),
            col(&inst.r_feats, 0),
        )
        .feature(
            "xr2",
            Domain::indexed("xr2", 5).shared(),
            col(&inst.r_feats, 1),
        )
        .build()
        .unwrap();
    let rid_q = Domain::indexed("QID", n_q).shared();
    let q = TableBuilder::new("Q")
        .primary_key("QID", rid_q.clone(), inst.q_rids.clone())
        .feature(
            "xq",
            Domain::indexed("xq", 4).shared(),
            col(&inst.q_feats, 0),
        )
        .feature(
            "xq2",
            Domain::indexed("xq2", 4).shared(),
            col(&inst.q_feats, 1),
        )
        .build()
        .unwrap();
    let s = TableBuilder::new("S")
        .target("y", Domain::indexed("y", 3).shared(), inst.ys.clone())
        .feature("xs", Domain::indexed("xs", 3).shared(), inst.xs.clone())
        .foreign_key("fk_r", "R", rid_r, inst.fk_r.clone())
        .foreign_key("fk_q", "Q", rid_q, inst.fk_q.clone())
        .build()
        .unwrap();
    StarSchema::new(
        s,
        vec![
            AttributeTable {
                fk: "fk_r".into(),
                table: r,
            },
            AttributeTable {
                fk: "fk_q".into(),
                table: q,
            },
        ],
    )
    .unwrap()
}

proptest! {
    /// CART: the pushed-down class-conditional counts are the exact
    /// integers a scan of the join would produce, so the factorized
    /// tree is the *identical arena* — same splits, same leaves — and
    /// therefore predicts identically on every row.
    #[test]
    fn factorized_cart_is_bitwise_identical(inst in star_instance()) {
        let star = build_star(&inst);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        let train: Vec<usize> = (0..star.n_s()).step_by(2).collect();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let tree = CartTree::default();
        let m_mat = tree.fit(&data, &train, &feats);
        let m_fac = tree.fit(&view, &train, &feats);
        prop_assert_eq!(&m_mat, &m_fac);
        for row in 0..star.n_s() {
            prop_assert_eq!(m_mat.predict_row(&data, row), m_fac.predict_row(&view, row));
        }
    }

    /// GBT: split histograms are exact fixed-point `(count, sum)`
    /// integers, so the factorized path — each FK folded once per
    /// scanned node, larger children derived as parent − sibling — and
    /// the materialized scan build identical histograms in whatever
    /// order they add. Every split, leaf value and raw score is then
    /// bitwise equal, at any thread count and on a non-contiguous
    /// training set.
    #[test]
    fn factorized_gbt_is_bitwise_identical(inst in star_instance()) {
        let star = build_star(&inst);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let view = FactorizedView::new(&star).unwrap();
        let train: Vec<usize> = (0..star.n_s()).step_by(2).collect();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let reference = Gbt { rounds: 4, threads: Some(1), ..Gbt::default() }
            .fit(&data, &train, &feats);
        for threads in [1, 2] {
            let gbt = Gbt { rounds: 4, threads: Some(threads), ..Gbt::default() };
            let m_mat = gbt.fit(&data, &train, &feats);
            let m_fac = gbt.fit(&view, &train, &feats);
            prop_assert_eq!(&reference, &m_mat);
            prop_assert_eq!(&reference, &m_fac);
            for row in 0..star.n_s() {
                prop_assert!(
                    m_mat.raw_score(&data, row).to_bits() == m_fac.raw_score(&view, row).to_bits(),
                    "row {} raw scores diverge at {} threads", row, threads
                );
            }
        }
    }

    /// Every GBT leaf is the mean residual of the training rows routed
    /// to it (within one fixed-point unit, far below `1e-9` here), over
    /// deep trees whose children take their histograms by sibling
    /// subtraction. A split scored on the wrong child's histograms, or
    /// on a parent's histograms left unsubtracted, routes a row count
    /// or residual sum that differs from the leaf's, and fails here.
    #[test]
    fn gbt_leaves_are_the_mean_residual_of_their_rows(inst in star_instance()) {
        let star = build_star(&inst);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let train: Vec<usize> = (0..star.n_s()).filter(|r| r % 3 != 1).collect();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let gbt = Gbt {
            rounds: 3,
            max_depth: 4,
            min_samples_split: 2,
            threads: Some(1),
            ..Gbt::default()
        };
        let model = gbt.fit(&data, &train, &feats);
        let mut scores = vec![model.base(); data.n_examples()];
        for tree in model.trees() {
            // (residual sum, rows) per arena node that is a leaf.
            let mut at_leaf = vec![(0.0f64, 0usize); tree.nodes().len()];
            let mut leaf_of = Vec::with_capacity(train.len());
            for &r in &train {
                let mut at = tree.root() as usize;
                while let RegNode::Split { feature, value, left, right } = tree.nodes()[at] {
                    at = if data.code(feature, r) == value { left } else { right } as usize;
                }
                at_leaf[at].0 += data.labels()[r] as f64 - scores[r];
                at_leaf[at].1 += 1;
                leaf_of.push(at);
            }
            for (at, node) in tree.nodes().iter().enumerate() {
                if let RegNode::Leaf { value } = *node {
                    let (sum, rows) = at_leaf[at];
                    prop_assert!(rows > 0, "leaf {} reached by no training row", at);
                    let mean = sum / rows as f64;
                    prop_assert!(
                        (value - mean).abs() <= 1e-9,
                        "leaf {} is {} but its {} rows average {}", at, value, rows, mean
                    );
                }
            }
            for (&r, &at) in train.iter().zip(&leaf_of) {
                if let RegNode::Leaf { value } = tree.nodes()[at] {
                    scores[r] += model.learning_rate() * value;
                }
            }
        }
    }

    /// Thread invariance: split gains are computed in parallel chunks
    /// but reduced serially in feature order, so the fitted model is
    /// bitwise identical at 1 and 8 threads (`threads` is exactly what
    /// `HAMLET_THREADS` resolves into) — for CART and GBT both.
    #[test]
    fn tree_models_are_thread_count_invariant(inst in star_instance()) {
        let star = build_star(&inst);
        let wide = star.materialize_all().unwrap();
        let data = Dataset::from_table(&wide);
        let train: Vec<usize> = (0..star.n_s()).collect();
        let feats: Vec<usize> = (0..data.n_features()).collect();
        let cart_1 = CartTree { threads: Some(1), ..CartTree::default() };
        let cart_8 = CartTree { threads: Some(8), ..CartTree::default() };
        prop_assert_eq!(
            cart_1.fit(&data, &train, &feats),
            cart_8.fit(&data, &train, &feats)
        );
        let gbt_1 = Gbt { rounds: 3, threads: Some(1), ..Gbt::default() };
        let gbt_8 = Gbt { rounds: 3, threads: Some(8), ..Gbt::default() };
        prop_assert_eq!(
            gbt_1.fit(&data, &train, &feats),
            gbt_8.fit(&data, &train, &feats)
        );
    }
}

const MANIFEST: &str = "\
entity customers.csv
target Churn
numeric Age 8
fk EmployerID employers.csv closed

table employers.csv
key EmployerID
feature Country
";

/// A clean two-table star corpus: 60 customers over 6 employers
/// (mirrors `tests/chaos.rs`).
fn clean_corpus() -> Corpus {
    let mut corpus = Corpus::new();
    let mut customers = String::from("Churn,Age,EmployerID\n");
    for i in 0..60 {
        customers.push_str(&format!("{},{},e{}\n", i % 2, 20 + i % 30, i % 6));
    }
    let mut employers = String::from("EmployerID,Country\n");
    for e in 0..6 {
        employers.push_str(&format!("e{},c{}\n", e, e % 3));
    }
    corpus.insert("customers.csv".into(), customers);
    corpus.insert("employers.csv".into(), employers);
    corpus
}

fn chaos_plan(seed: u64, faults_per_file: usize) -> ChaosPlan {
    ChaosPlan {
        seed,
        faults_per_file,
        kinds: FaultKind::ALL.to_vec(),
        profiles: std::collections::BTreeMap::new(),
    }
    .with_profile(
        "customers.csv",
        FileProfile {
            numeric_cols: vec![1],
            pk_col: None,
            fk_cols: vec![2],
        },
    )
    .with_profile(
        "employers.csv",
        FileProfile {
            numeric_cols: vec![],
            pk_col: Some(0),
            fk_cols: vec![],
        },
    )
}

proptest! {
    /// Tree training over whatever survives a lenient load of a
    /// corrupted corpus never panics: either the load fails with a
    /// typed error, or CART and GBT both fit and predict in-range
    /// classes on every surviving row.
    #[test]
    fn tree_training_on_dirty_corpora_never_panics(
        seed in 0u64..100,
        faults in 1usize..6,
    ) {
        let (dirty, _) = corrupt_corpus(&clean_corpus(), &chaos_plan(seed, faults));
        let dir = std::env::temp_dir()
            .join("hamlet_trees_it")
            .join(format!("dirty_{seed}_{faults}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (file, text) in &dirty {
            std::fs::write(dir.join(file), text).unwrap();
        }
        std::fs::write(dir.join("schema.manifest"), MANIFEST).unwrap();
        let text = std::fs::read_to_string(dir.join("schema.manifest")).unwrap();
        let manifest = Manifest::parse(&text).unwrap();
        let policy = LoadPolicy {
            on_dirty: DirtyPolicy::Quarantine { max_bad_rows: 1000 },
            on_dangling_fk: FkPolicy::DropRow,
            ..LoadPolicy::default()
        };
        if let Ok(load) = manifest.load_policy(&dir, &policy) {
            if let Ok(wide) = load.star.materialize_all() {
                let data = Dataset::from_table(&wide);
                let rows: Vec<usize> = (0..data.n_examples()).collect();
                let feats: Vec<usize> = (0..data.n_features()).collect();
                let n_classes = data.n_classes() as u32;
                let cart = CartTree::default().fit(&data, &rows, &feats);
                let gbt = Gbt { rounds: 2, ..Gbt::default() }.fit(&data, &rows, &feats);
                for &r in &rows {
                    prop_assert!(cart.predict_row(&data, r) < n_classes.max(1));
                    prop_assert!(gbt.predict_row(&data, r) < n_classes.max(1));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
