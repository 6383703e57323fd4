//! Golden schema-v2 artifacts, one per model family, committed under
//! `tests/fixtures/`. Each file was written by `artifact::save` from the
//! small hand-built artifact below; every build must load it back to that
//! artifact and render it byte for byte, so a codec change cannot drift
//! from the format documents already on disk.
//!
//! The artifacts share one schema that covers the format's optional
//! shapes: labelled classes, a labelled feature, a foreign key with its
//! cold-start mapping, a decision with a ROR statistic and one without
//! (`"ror": null`), and a degraded decision (`"degraded": true`).

use std::path::PathBuf;

use hamlet::core::ExecStrategy;
use hamlet::ml::{LogisticRegressionModel, NaiveBayesModel, TanModel};
use hamlet::serve::artifact::{
    load, to_json_string, FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel,
};
use hamlet::trees::{CartModel, CartNode, GbtModel, RegNode};

/// `n` log-probabilities of full precision: the logs of a fixed walk
/// through (0, 1).
fn log_probs(n: usize, seed: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (((i + seed) * 7 % 19 + 1) as f64 / 21.0).ln())
        .collect()
}

fn artifact(model: ServableModel) -> ModelArtifact {
    ModelArtifact {
        dataset: "fixture".into(),
        n_classes: 2,
        class_labels: Some(vec!["no".into(), "yes".into()]),
        features: vec![
            FeatureSchema {
                name: "x".into(),
                domain_size: 2,
                labels: Some(vec!["a".into(), "b".into()]),
                fk: None,
            },
            FeatureSchema {
                name: "store_id".into(),
                domain_size: 3,
                labels: None,
                fk: Some(FkColdStart {
                    table: "stores".into(),
                    original_domain: 2,
                    others_code: 2,
                }),
            },
            FeatureSchema {
                name: "z".into(),
                domain_size: 2,
                labels: None,
                fk: None,
            },
        ],
        decisions: vec![
            JoinDecision {
                table: "stores".into(),
                fk: "store_id".into(),
                strategy: ExecStrategy::AvoidJoin,
                tuple_ratio: 31.5,
                ror: Some(1.0234),
                avoid: true,
                foreign_features: vec!["size".into(), "city".into()],
                degraded: false,
            },
            JoinDecision {
                table: "weather".into(),
                fk: "weather_id".into(),
                strategy: ExecStrategy::Factorize,
                tuple_ratio: 2.75,
                ror: None,
                avoid: false,
                foreign_features: vec!["temp".into()],
                degraded: true,
            },
        ],
        model,
    }
}

fn naive_bayes() -> ModelArtifact {
    artifact(ServableModel::NaiveBayes(NaiveBayesModel::from_parts(
        vec![0, 1, 2],
        2,
        vec![0.4f64.ln(), 0.6f64.ln()],
        vec![log_probs(4, 1), log_probs(6, 2), log_probs(4, 3)],
        vec![2, 3, 2],
    )))
}

fn logistic_regression() -> ModelArtifact {
    artifact(ServableModel::LogisticRegression(
        LogisticRegressionModel::from_parts(
            vec![0, 1],
            vec![0, 2],
            2,
            5,
            vec![
                0.25, -1.5, 3.0e-7, 0.0, 1.0, -2.0, 0.125, 7.5, -0.0625, 1e-3,
            ],
            vec![0.125, -0.5],
        ),
    ))
}

fn tan() -> ModelArtifact {
    // x has no parent; store_id's parent is x; z's parent is store_id.
    artifact(ServableModel::Tan(TanModel::from_parts(
        vec![0, 1, 2],
        2,
        vec![0.4f64.ln(), 0.6f64.ln()],
        vec![None, Some(0), Some(1)],
        vec![log_probs(4, 4), log_probs(12, 5), log_probs(12, 6)],
        vec![2, 3, 2],
    )))
}

fn tree() -> ModelArtifact {
    // x == 1 predicts yes; otherwise store_id == 2 (the Others code)
    // predicts yes, and anything else no.
    let nodes = vec![
        CartNode::Leaf { class: 1 },
        CartNode::Leaf { class: 1 },
        CartNode::Leaf { class: 0 },
        CartNode::Split {
            feature: 1,
            value: 2,
            left: 1,
            right: 2,
        },
        CartNode::Split {
            feature: 0,
            value: 1,
            left: 0,
            right: 3,
        },
    ];
    artifact(ServableModel::Tree(
        CartModel::from_parts(vec![0, 1], 2, 3, nodes, 4).unwrap(),
    ))
}

fn gbt() -> ModelArtifact {
    let stump = |feature, value, left, right| {
        (
            vec![
                RegNode::Leaf { value: left },
                RegNode::Leaf { value: right },
                RegNode::Split {
                    feature,
                    value,
                    left: 0,
                    right: 1,
                },
            ],
            2,
        )
    };
    let trees = vec![stump(0, 1, 0.4375, -0.1875), stump(2, 0, -0.03125, 0.2)];
    artifact(ServableModel::Gbt(
        GbtModel::from_parts(vec![0, 2], 2, 3, 0.45, 0.3, trees).unwrap(),
    ))
}

fn fixture(family: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("artifact_v2_{family}.json"))
}

#[test]
fn v2_fixtures_load_and_render_byte_for_byte() {
    for (family, built) in [
        ("naive_bayes", naive_bayes()),
        ("logistic_regression", logistic_regression()),
        ("tan", tan()),
        ("tree", tree()),
        ("gbt", gbt()),
    ] {
        assert_eq!(built.model.family(), family);
        let path = fixture(family);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let loaded = load(&path).unwrap_or_else(|e| panic!("{family}: {e}"));
        assert_eq!(loaded, built, "{family}: the fixture is not its artifact");
        assert_eq!(to_json_string(&loaded), text, "{family}: bytes differ");
    }
}
