//! Building a [`ModelArtifact`] from a star schema.
//!
//! This is the bridge between training and serving: it runs the join
//! advisor over the star, applies the cold-start `Others` revision to
//! every foreign key (so the deployed model has a trained bucket for
//! unseen entities), fits the requested classifier family under the
//! paper's 50/25/25 protocol, and packages the result — model
//! parameters, feature vocabulary, cold-start mapping, and the
//! advisor's decisions with their TR/ROR evidence — into one artifact.
//!
//! No join output is ever built. Training, the holdout error and the
//! feature schema all read a [`FactorizedView`] over the revised star
//! with only the advisor's kept joins: avoided FKs stay as
//! representatives (the paper's central move), and kept ones are
//! resolved through the FK at read time (Factorize). Every family fits
//! through its `fit_source`, whose integer tables are exactly those of
//! the materialized join, so the artifact is the one a materialized
//! build would produce, byte for byte.

use hamlet_core::advisor::{advise, AdvisorConfig, AdvisorError};
use hamlet_core::rules::Decision;
use hamlet_factorized::FactorizedView;
use hamlet_ml::{zero_one_error, CodeSource, ErrorMetric, LogisticRegression, NaiveBayes, Tan};
use hamlet_relational::{
    DomainRevision, RelationalError, Role, StarSchema, Table, TableSubstitution,
};

use crate::artifact::{FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel};

/// The classifier family to fit, named as on the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Naive Bayes (`nb`).
    NaiveBayes,
    /// Multinomial logistic regression (`logreg`).
    LogisticRegression,
    /// Tree-augmented Naive Bayes (`tan`).
    Tan,
    /// CART decision tree (`tree`).
    Tree,
    /// Gradient-boosted trees (`gbt`).
    Gbt,
}

impl ModelKind {
    /// CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::NaiveBayes => "nb",
            ModelKind::LogisticRegression => "logreg",
            ModelKind::Tan => "tan",
            ModelKind::Tree => "tree",
            ModelKind::Gbt => "gbt",
        }
    }

    /// Inverse of [`ModelKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "nb" => Some(ModelKind::NaiveBayes),
            "logreg" => Some(ModelKind::LogisticRegression),
            "tan" => Some(ModelKind::Tan),
            "tree" => Some(ModelKind::Tree),
            "gbt" => Some(ModelKind::Gbt),
            _ => None,
        }
    }

    /// The advisor family whose `(rho, tau)` thresholds apply to this
    /// classifier.
    pub fn family(&self) -> hamlet_core::ModelFamily {
        match self {
            ModelKind::NaiveBayes => hamlet_core::ModelFamily::NaiveBayes,
            ModelKind::LogisticRegression => hamlet_core::ModelFamily::LogisticRegression,
            ModelKind::Tan => hamlet_core::ModelFamily::Tan,
            ModelKind::Tree => hamlet_core::ModelFamily::DecisionTree,
            ModelKind::Gbt => hamlet_core::ModelFamily::Gbt,
        }
    }
}

/// A typed export failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The advisor rejected the star schema.
    Advisor(AdvisorError),
    /// A relational step (revision, join, dataset extraction) failed.
    Relational(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Advisor(e) => write!(f, "advisor: {e}"),
            BuildError::Relational(e) => write!(f, "building the serving view: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<AdvisorError> for BuildError {
    fn from(e: AdvisorError) -> Self {
        BuildError::Advisor(e)
    }
}

/// An artifact plus the training facts worth reporting.
#[derive(Debug, Clone)]
pub struct BuiltModel {
    /// The packaged model.
    pub artifact: ModelArtifact,
    /// Training rows used (50% of the entity table).
    pub n_train: usize,
    /// Zero-one error on the 25% holdout test split.
    pub holdout_error: f64,
}

fn rel(e: impl std::fmt::Display) -> BuildError {
    BuildError::Relational(e.to_string())
}

/// Extracts the ROR/TR evidence value a [`Decision`] carries, if any.
fn evidence(d: &Decision) -> Option<f64> {
    match d {
        Decision::Avoid { value } => Some(*value),
        Decision::Join(hamlet_core::rules::JoinReason::Threshold { value, .. }) => Some(*value),
        Decision::Join(_) => None,
    }
}

/// The schema errors a join of `star` over `join_set` would raise,
/// checked on names alone, so the view refuses exactly what a
/// materialized join would: a foreign feature whose name is already
/// taken, then a missing target. Each error names the table the join
/// would have built (`<entity>_join_<table>...`).
fn check_joined_schema(star: &StarSchema, join_set: &[usize]) -> Result<(), RelationalError> {
    let entity = star.entity();
    let mut table = entity.name().to_string();
    let mut names: Vec<&str> = entity
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    for at in join_set.iter().filter_map(|&i| star.attributes().get(i)) {
        table = format!("{table}_join_{}", at.table.name());
        for def in at.table.schema().attributes() {
            if def.role != Role::Feature {
                continue;
            }
            if names.contains(&def.name.as_str()) {
                return Err(RelationalError::DuplicateAttribute {
                    table,
                    attribute: def.name.clone(),
                });
            }
            names.push(&def.name);
        }
    }
    if entity.schema().target().is_none() {
        return Err(RelationalError::MissingRole {
            table,
            role: "target",
        });
    }
    Ok(())
}

/// Runs the advisor, widens every FK domain with the `Others` record,
/// fits `kind` on the advisor-approved view, and packages everything a
/// server needs into a [`ModelArtifact`].
///
/// Deterministic: same star + config + kind gives a bit-identical
/// artifact (fits use the families' fixed seeds, and the split is the
/// identity permutation — generator output is already shuffled).
pub fn build_artifact(
    star: &StarSchema,
    kind: ModelKind,
    config: &AdvisorConfig,
    dataset_name: &str,
) -> Result<BuiltModel, BuildError> {
    build_artifact_with_availability(star, kind, config, dataset_name, &[])
}

/// [`build_artifact`] over a star that may contain FK-only surrogate
/// tables from a degraded load (see `hamlet_relational::availability`).
///
/// Each substituted table's decision is marked `degraded` and carries
/// the manifest-declared foreign features (the surrogate itself has
/// none), so the scorer can refuse — or, under `--fallback`, ignore —
/// requests that supply columns the model never saw. The worst-case ROR
/// bound the advisor computed for the substitution (`q_R* = 1`, since a
/// key-only table has no feature domains) is journaled as evidence.
/// With no substitutions this is exactly [`build_artifact`].
pub fn build_artifact_with_availability(
    star: &StarSchema,
    kind: ModelKind,
    config: &AdvisorConfig,
    dataset_name: &str,
    substitutions: &[TableSubstitution],
) -> Result<BuiltModel, BuildError> {
    let _span = hamlet_obs::span!("serve.build_artifact", kind = kind.name());
    let n_train = star.n_s() / 2;
    let report = advise(star, n_train, config)?;
    for j in &report.joins {
        if let Some(sub) = substitutions.iter().find(|s| s.table == j.table) {
            hamlet_obs::record_warning(format!(
                "degraded build: {} — worst-case ROR bound {} for the FK-only substitution",
                sub.evidence(),
                evidence(&j.ror_decision)
                    .map(|v| format!("{v:.6}"))
                    .unwrap_or_else(|| "n/a".to_string())
            ));
        }
    }

    // Cold-start revision of every FK: append the Others record to each
    // attribute table and remap entity FKs into the widened domain. The
    // Others row uses code-0 feature defaults, matching the coldstart
    // module's convention for synthetic stars.
    let mut revisions = Vec::with_capacity(star.attributes().len());
    for at in star.attributes() {
        revisions.push(DomainRevision::new(at, &vec![0u32; at.n_features()]).map_err(rel)?);
    }
    let entity = star.entity();
    let mut remapped = vec![None; entity.columns().len()];
    for rev in &revisions {
        let pos = entity
            .schema()
            .index_of(&rev.attribute.fk)
            .ok_or_else(|| rel(format!("entity has no FK column '{}'", rev.attribute.fk)))?;
        remapped[pos] = Some(rev.remap_fk(entity.column(pos).codes()));
    }
    let cols = remapped
        .into_iter()
        .zip(entity.columns())
        .map(|(fk, col)| fk.unwrap_or_else(|| col.clone()))
        .collect();
    let entity =
        Table::new(entity.name().to_string(), entity.schema().clone(), cols).map_err(rel)?;
    // The revised tables move into the star; each FK keeps its
    // cold-start mapping for the feature schema.
    let cold_starts: Vec<(String, FkColdStart)> = revisions
        .iter()
        .map(|r| {
            let cold_start = FkColdStart {
                table: r.attribute.table.name().to_string(),
                original_domain: r.original_domain,
                others_code: r.others_code,
            };
            (r.attribute.fk.clone(), cold_start)
        })
        .collect();
    let star = StarSchema::new(entity, revisions.into_iter().map(|r| r.attribute).collect())
        .map_err(rel)?;

    // Train on a view with only the joins the advisor kept; avoided FKs
    // stay as representatives (the paper's central move), kept ones
    // resolve through the FK without a join output.
    let joined: Vec<usize> = report
        .joins
        .iter()
        .enumerate()
        .filter(|(_, j)| !j.avoid)
        .map(|(i, _)| i)
        .collect();
    check_joined_schema(&star, &joined).map_err(rel)?;
    let view = FactorizedView::with_join_set(&star, &joined).map_err(rel)?;

    // 50/25/25 holdout over the (already shuffled) generator order.
    let perm: Vec<usize> = (0..star.n_s()).collect();
    let split = star.split_rows(&perm, 0.5, 0.25);
    let all_feats: Vec<usize> = (0..view.n_features()).collect();
    let (train, feats) = (&split.train, &all_feats);
    let model = match kind {
        ModelKind::NaiveBayes => {
            ServableModel::NaiveBayes(NaiveBayes::default().fit_source(&view, train, feats))
        }
        ModelKind::LogisticRegression => ServableModel::LogisticRegression(
            LogisticRegression::default().fit_source(&view, train, feats),
        ),
        ModelKind::Tan => ServableModel::Tan(Tan::default().fit_source(&view, train, feats)),
        ModelKind::Tree => {
            ServableModel::Tree(hamlet_trees::CartTree::default().fit_source(&view, train, feats))
        }
        ModelKind::Gbt => {
            ServableModel::Gbt(hamlet_trees::Gbt::from_env().fit_source(&view, train, feats))
        }
    };
    let holdout_error = match &model {
        ServableModel::NaiveBayes(m) => m.batch_error(&view, &split.test, ErrorMetric::ZeroOne),
        _ => zero_one_error(&model, &view, &split.test),
    };

    // Feature schema in the view's layout: the entity's features and
    // FKs in schema order, then each kept table's features in join
    // order.
    let features = (0..view.n_features())
        .map(|f| {
            let (name, dom) = (view.feature_name(f), view.feature_domain(f));
            FeatureSchema {
                name: name.to_string(),
                domain_size: dom.size(),
                labels: dom.is_labelled().then(|| {
                    (0..dom.size() as u32)
                        .map(|c| dom.label(c).into_owned())
                        .collect()
                }),
                fk: cold_starts
                    .iter()
                    .find(|(fk, _)| fk == name)
                    .map(|(_, cold_start)| cold_start.clone()),
            }
        })
        .collect();

    let class_labels = star.entity().target_column().and_then(|y| {
        let dom = y.domain();
        dom.is_labelled().then(|| {
            (0..dom.size() as u32)
                .map(|c| dom.label(c).into_owned())
                .collect()
        })
    });

    let decisions = report
        .joins
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let sub = substitutions.iter().find(|s| s.table == j.table);
            JoinDecision {
                table: j.table.clone(),
                fk: j.fk.clone(),
                strategy: j.strategy,
                tuple_ratio: if j.stats.n_r == 0 {
                    0.0
                } else {
                    j.stats.n_train as f64 / j.stats.n_r as f64
                },
                ror: evidence(&j.ror_decision),
                avoid: j.avoid,
                // A surrogate table has no features; ship the declared
                // ones so serving can name what is missing.
                foreign_features: match sub {
                    Some(s) => s.declared_features.clone(),
                    None => star.attributes()[i]
                        .feature_names()
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                },
                degraded: sub.is_some(),
            }
        })
        .collect();

    Ok(BuiltModel {
        artifact: ModelArtifact {
            dataset: dataset_name.to_string(),
            n_classes: view.n_classes(),
            class_labels,
            features,
            decisions,
            model,
        },
        n_train: split.train.len(),
        holdout_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact;
    use crate::score::Scorer;
    use hamlet_ml::{Dataset, Model};
    use hamlet_obs::json::Json;
    use hamlet_relational::{AttributeTable, Domain, TableBuilder};

    /// A small star rigged so the lone join is safe to avoid: large
    /// entity, tiny closed-domain attribute table.
    fn avoidable_star() -> StarSchema {
        let n_r = 4usize;
        let n_s = 400usize;
        let attr = AttributeTable {
            fk: "store".into(),
            table: TableBuilder::new("stores")
                .primary_key(
                    "store",
                    Domain::indexed("store", n_r).shared(),
                    (0..n_r as u32).collect(),
                )
                .feature(
                    "region",
                    Domain::labelled("region", vec!["n".into(), "s".into()]).shared(),
                    (0..n_r as u32).map(|i| i % 2).collect(),
                )
                .build()
                .unwrap(),
        };
        let fk_codes: Vec<u32> = (0..n_s as u32).map(|i| (i * 7 + 3) % n_r as u32).collect();
        let x_codes: Vec<u32> = (0..n_s as u32).map(|i| (i * 5 + 1) % 3).collect();
        let y_codes: Vec<u32> = fk_codes
            .iter()
            .zip(&x_codes)
            .map(|(&fkc, &x)| (fkc + x) % 2)
            .collect();
        let entity = TableBuilder::new("sales")
            .foreign_key(
                "store",
                "stores",
                Domain::indexed("store", n_r).shared(),
                fk_codes,
            )
            .feature("x", Domain::indexed("x", 3).shared(), x_codes)
            .target("y", Domain::boolean("y").shared(), y_codes)
            .build()
            .unwrap();
        StarSchema::new(entity, vec![attr]).unwrap()
    }

    #[test]
    fn avoidable_star_exports_an_avoid_artifact() {
        let star = avoidable_star();
        let built = build_artifact(
            &star,
            ModelKind::NaiveBayes,
            &AdvisorConfig::default(),
            "toy",
        )
        .unwrap();
        let a = &built.artifact;
        assert_eq!(a.decisions.len(), 1);
        assert!(a.decisions[0].avoid, "{:?}", a.decisions[0]);
        assert_eq!(a.decisions[0].foreign_features, vec!["region".to_string()]);
        // The FK feature carries the cold-start mapping: original domain
        // 4, Others at 4, widened domain 5.
        let fk = a.features.iter().find(|f| f.name == "store").unwrap();
        let cs = fk.fk.as_ref().unwrap();
        assert_eq!((cs.original_domain, cs.others_code), (4, 4));
        assert_eq!(fk.domain_size, 5);
        // The avoided join's foreign feature is NOT in the input schema.
        assert!(a.features.iter().all(|f| f.name != "region"));
        assert!(built.holdout_error <= 0.5);
    }

    #[test]
    fn all_families_round_trip_and_score_like_the_in_memory_model() {
        let star = avoidable_star();
        for kind in [
            ModelKind::NaiveBayes,
            ModelKind::LogisticRegression,
            ModelKind::Tan,
            ModelKind::Tree,
            ModelKind::Gbt,
        ] {
            let built = build_artifact(&star, kind, &AdvisorConfig::default(), "toy").unwrap();
            let text = artifact::to_json_string(&built.artifact);
            let reloaded = artifact::from_json_str(&text).unwrap();
            assert_eq!(built.artifact, reloaded, "{}", kind.name());

            // Serving the reloaded artifact must reproduce in-memory
            // prediction bit for bit on every entity row.
            let scorer = Scorer::new(reloaded);
            let wide = star.materialize(&[]).unwrap();
            let data = Dataset::try_from_table(&wide).unwrap();
            let rows: Vec<Vec<u32>> = (0..40)
                .map(|r| {
                    (0..data.n_features())
                        .map(|f| data.feature(f).codes[r])
                        .collect()
                })
                .collect();
            let preds = scorer.predict_codes(&rows).unwrap();
            for (r, p) in preds.iter().enumerate() {
                assert_eq!(
                    p.class,
                    built.artifact.model.predict_row(&data, r),
                    "{} row {r}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            ModelKind::NaiveBayes,
            ModelKind::LogisticRegression,
            ModelKind::Tan,
            ModelKind::Tree,
            ModelKind::Gbt,
        ] {
            assert_eq!(ModelKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ModelKind::from_name("svm"), None);
        assert!(ModelKind::Tree.family().is_tree_based());
        assert!(!ModelKind::Tan.family().is_tree_based());
    }

    #[test]
    fn artifact_json_carries_the_decision_evidence() {
        let star = avoidable_star();
        let built = build_artifact(
            &star,
            ModelKind::NaiveBayes,
            &AdvisorConfig::default(),
            "toy",
        )
        .unwrap();
        let doc = Json::parse(&artifact::to_json_string(&built.artifact)).unwrap();
        let d = &doc
            .get("payload")
            .unwrap()
            .get("decisions")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(d.get("strategy").and_then(Json::as_str), Some("avoid"));
        assert!(d.get("tuple_ratio").and_then(Json::as_f64).unwrap() > 1.0);
    }
}
