//! The scoring engine: turns JSON prediction requests into class
//! predictions against a loaded [`ModelArtifact`].
//!
//! Two invariants from training time are enforced here:
//!
//! 1. **Cold-start routing.** A foreign-key value the model never saw
//!    (code `>= original_domain`, or an unknown label) is routed to the
//!    trained `Others` bucket — the exact remapping
//!    `hamlet_relational::coldstart::DomainRevision` applied when the
//!    model was fitted. Unseen categories of *non*-FK features are a
//!    typed error instead: there is no trained bucket for them (the
//!    same policy as `hamlet_ml::EncodeError`).
//! 2. **Avoid-join refusal.** When the advisor decided `AvoidJoin` for
//!    a table, the artifact's model consumed the FK itself and none of
//!    that table's foreign features. A request that carries one of
//!    those features is semantically wrong — the caller joined
//!    something the model promised not to need — and is rejected with
//!    [`ScoreError::AvoidedFeature`] rather than silently ignored.

use std::collections::HashMap;

use hamlet_core::ExecStrategy;
use hamlet_ml::{CodeSource, Column, Model};
use hamlet_obs::json::{obj, Json};

use crate::artifact::{ModelArtifact, ServableModel};

/// A typed scoring failure. [`ScoreError::http_status`] maps each
/// variant onto the HTTP plane: 400 for malformed requests, 422 for
/// well-formed requests the model must refuse.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreError {
    /// The request body is not an object, array of rows, or
    /// `{"rows": [...]}`.
    NotAnObject,
    /// A value has the wrong JSON type for its feature.
    BadValue {
        /// Feature name (or positional index rendered as a name).
        feature: String,
        /// What went wrong.
        message: String,
    },
    /// A named feature is not part of the model's input schema.
    UnknownFeature {
        /// The offending name.
        name: String,
    },
    /// The feature belongs to a table whose join the advisor avoided.
    AvoidedFeature {
        /// The offending feature name.
        name: String,
        /// The avoided attribute table it would have come from.
        table: String,
    },
    /// A required feature is missing from a named row.
    MissingFeature {
        /// The missing feature's name.
        name: String,
    },
    /// A category value was unseen at fit time on a non-FK feature.
    UnknownCategory {
        /// Feature name.
        feature: String,
        /// The unseen value, rendered.
        value: String,
        /// Trained domain size.
        domain_size: usize,
    },
    /// A positional row has the wrong number of values.
    WrongArity {
        /// Values supplied.
        got: usize,
        /// Features the model expects.
        expected: usize,
    },
    /// The feature belongs to a table that was unavailable at train
    /// time (degraded build): the model never saw it and has no
    /// encoding for it. The refuse-with-evidence terminal of the
    /// fallback chain — carries the worst-case ROR bound the advisor
    /// computed for the FK-only substitution.
    DegradedFeature {
        /// The offending feature name.
        name: String,
        /// The substituted attribute table it was declared in.
        table: String,
        /// Worst-case ROR bound for the substitution, when computed.
        ror: Option<f64>,
    },
}

impl ScoreError {
    /// HTTP status this error maps to: 400 when the request shape is
    /// malformed, 422 when the request is well-formed JSON the model
    /// semantically refuses.
    pub fn http_status(&self) -> u16 {
        match self {
            ScoreError::NotAnObject
            | ScoreError::BadValue { .. }
            | ScoreError::WrongArity { .. } => 400,
            ScoreError::UnknownFeature { .. }
            | ScoreError::AvoidedFeature { .. }
            | ScoreError::MissingFeature { .. }
            | ScoreError::UnknownCategory { .. }
            | ScoreError::DegradedFeature { .. } => 422,
        }
    }

    /// Stable snake-case kind tag for error bodies.
    pub fn kind(&self) -> &'static str {
        match self {
            ScoreError::NotAnObject => "not_an_object",
            ScoreError::BadValue { .. } => "bad_value",
            ScoreError::UnknownFeature { .. } => "unknown_feature",
            ScoreError::AvoidedFeature { .. } => "avoided_feature",
            ScoreError::MissingFeature { .. } => "missing_feature",
            ScoreError::UnknownCategory { .. } => "unknown_category",
            ScoreError::WrongArity { .. } => "wrong_arity",
            ScoreError::DegradedFeature { .. } => "degraded_feature",
        }
    }

    /// Renders the `{"error": {"kind", "message"}}` response body.
    pub fn to_json(&self) -> Json {
        obj(vec![(
            "error",
            obj(vec![
                ("kind", Json::Str(self.kind().into())),
                ("message", Json::Str(self.to_string())),
            ]),
        )])
    }
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::NotAnObject => write!(
                f,
                "request body must be a row object, an array of rows, or {{\"rows\": [...]}}"
            ),
            ScoreError::BadValue { feature, message } => {
                write!(f, "feature '{feature}': {message}")
            }
            ScoreError::UnknownFeature { name } => {
                write!(f, "'{name}' is not a feature of this model")
            }
            ScoreError::AvoidedFeature { name, table } => write!(
                f,
                "'{name}' belongs to attribute table '{table}', whose join the \
                 advisor avoided — this model predicts from the foreign key alone; \
                 drop the joined feature and send the key"
            ),
            ScoreError::MissingFeature { name } => {
                write!(f, "row is missing required feature '{name}'")
            }
            ScoreError::UnknownCategory {
                feature,
                value,
                domain_size,
            } => write!(
                f,
                "feature '{feature}': value {value} was unseen at fit time \
                 (trained domain size {domain_size}); only foreign keys have an \
                 Others bucket for unseen values"
            ),
            ScoreError::WrongArity { got, expected } => write!(
                f,
                "positional row has {got} values but the model expects {expected} features"
            ),
            ScoreError::DegradedFeature { name, table, ror } => write!(
                f,
                "'{name}' belongs to attribute table '{table}', which was unavailable \
                 when this model was trained — the model predicts from the foreign key \
                 alone (worst-case ROR bound for the substitution: {}); drop the feature \
                 or retrain with the table restored",
                match ror {
                    Some(v) => format!("{v:.6}"),
                    None => "not computed".to_string(),
                }
            ),
        }
    }
}

impl std::error::Error for ScoreError {}

/// One prediction: the class code, its label when the target is
/// labelled, and the per-class scores.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted class code.
    pub class: u32,
    /// Class label, when the training target had a label vocabulary.
    pub label: Option<String>,
    /// Per-class scores (log-posterior for NB/TAN, decision scores for
    /// logistic regression).
    pub scores: Vec<f64>,
}

impl Prediction {
    /// Renders one prediction object.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("class", Json::Num(self.class as f64)),
            (
                "label",
                match &self.label {
                    Some(l) => Json::Str(l.clone()),
                    None => Json::Null,
                },
            ),
            (
                "scores",
                Json::Arr(self.scores.iter().map(|&s| Json::Num(s)).collect()),
            ),
        ])
    }
}

/// Column-major batch of coded rows implementing [`CodeSource`], so the
/// fitted models score requests through the same trait they were
/// trained against.
struct RowBatch<'a> {
    artifact: &'a ModelArtifact,
    /// `codes[feature][row]`.
    codes: Vec<Vec<u32>>,
    n_rows: usize,
}

impl CodeSource for RowBatch<'_> {
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
        Column::Rows(&self.codes[f])
    }

    fn label(&self, _row: usize) -> u32 {
        // Requests carry no target; nothing in prediction reads this.
        0
    }
}

/// A loaded artifact plus the lookup structures scoring needs.
pub struct Scorer {
    artifact: ModelArtifact,
    /// Feature name -> position.
    by_name: HashMap<String, usize>,
    /// Per feature: label -> code, for labelled domains.
    label_codes: Vec<Option<HashMap<String, u32>>>,
    /// Foreign feature name -> avoided table, for avoid-join refusal.
    avoided_of: HashMap<String, String>,
    /// Foreign feature name -> decision index, for features of tables
    /// that were unavailable at train time (degraded build).
    degraded_of: HashMap<String, usize>,
}

impl Scorer {
    /// Builds the scoring indexes over a validated artifact.
    pub fn new(artifact: ModelArtifact) -> Self {
        let by_name = artifact
            .features
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let label_codes = artifact
            .features
            .iter()
            .map(|f| {
                f.labels.as_ref().map(|ls| {
                    ls.iter()
                        .enumerate()
                        .map(|(c, l)| (l.clone(), c as u32))
                        .collect()
                })
            })
            .collect();
        let avoided_of = artifact
            .decisions
            .iter()
            .filter(|d| d.avoid && d.strategy == ExecStrategy::AvoidJoin)
            .flat_map(|d| {
                d.foreign_features
                    .iter()
                    .map(move |f| (f.clone(), d.table.clone()))
            })
            .collect();
        let degraded_of = artifact
            .decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.degraded)
            .flat_map(|(i, d)| d.foreign_features.iter().map(move |f| (f.clone(), i)))
            .collect();
        Scorer {
            artifact,
            by_name,
            label_codes,
            avoided_of,
            degraded_of,
        }
    }

    /// Whether the artifact was built with any attribute table replaced
    /// by its FK-only surrogate.
    pub fn trained_degraded(&self) -> bool {
        self.artifact.decisions.iter().any(|d| d.degraded)
    }

    /// The artifact being served.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Resolves one JSON value to the trained code of feature `f`,
    /// applying cold-start `Others` routing for FKs.
    fn code_for(&self, f: usize, value: &Json) -> Result<u32, ScoreError> {
        let fs = &self.artifact.features[f];
        match value {
            Json::Num(n) => {
                if !n.is_finite() || *n < 0.0 || n.fract() != 0.0 || *n > u32::MAX as f64 {
                    return Err(ScoreError::BadValue {
                        feature: fs.name.clone(),
                        message: format!("expected a non-negative integer code, got {n}"),
                    });
                }
                let code = *n as u32;
                match &fs.fk {
                    Some(fk) => {
                        // Cold start: anything outside the original FK
                        // domain is an unseen entity -> Others.
                        if (code as usize) >= fk.original_domain {
                            Ok(fk.others_code)
                        } else {
                            Ok(code)
                        }
                    }
                    None => {
                        if (code as usize) < fs.domain_size {
                            Ok(code)
                        } else {
                            Err(ScoreError::UnknownCategory {
                                feature: fs.name.clone(),
                                value: code.to_string(),
                                domain_size: fs.domain_size,
                            })
                        }
                    }
                }
            }
            Json::Str(s) => match &self.label_codes[f] {
                Some(codes) => match codes.get(s) {
                    Some(&c) => Ok(c),
                    None => match &fs.fk {
                        Some(fk) => Ok(fk.others_code),
                        None => Err(ScoreError::UnknownCategory {
                            feature: fs.name.clone(),
                            value: format!("'{s}'"),
                            domain_size: fs.domain_size,
                        }),
                    },
                },
                None => Err(ScoreError::BadValue {
                    feature: fs.name.clone(),
                    message: format!(
                        "'{s}' is a string but this feature has no label vocabulary; \
                         send an integer code"
                    ),
                }),
            },
            other => Err(ScoreError::BadValue {
                feature: fs.name.clone(),
                message: format!("expected a number or string, got {other}"),
            }),
        }
    }

    /// Decodes one row (named object or positional array) into the
    /// model's per-feature codes, in schema order. The flag reports
    /// whether a degraded-table feature was ignored (`allow_degraded`
    /// only; otherwise such a feature is a typed refusal).
    fn decode_row_allow(
        &self,
        row: &Json,
        allow_degraded: bool,
    ) -> Result<(Vec<u32>, bool), ScoreError> {
        let d = self.artifact.features.len();
        match row {
            Json::Obj(members) => {
                let mut row_degraded = false;
                for (name, _) in members {
                    if !self.by_name.contains_key(name) {
                        // Features of degraded (train-time-absent)
                        // tables: ignored under the fallback chain,
                        // refused with ROR evidence otherwise. Checked
                        // before the avoid-join refusal — a degraded
                        // table's decision may also be an avoid.
                        if let Some(&di) = self.degraded_of.get(name) {
                            if allow_degraded {
                                row_degraded = true;
                                continue;
                            }
                            let dec = &self.artifact.decisions[di];
                            return Err(ScoreError::DegradedFeature {
                                name: name.clone(),
                                table: dec.table.clone(),
                                ror: dec.ror,
                            });
                        }
                        // Refuse foreign features of avoided joins with a
                        // specific error before the generic unknown one.
                        if let Some(table) = self.avoided_of.get(name) {
                            return Err(ScoreError::AvoidedFeature {
                                name: name.clone(),
                                table: table.clone(),
                            });
                        }
                        return Err(ScoreError::UnknownFeature { name: name.clone() });
                    }
                }
                let mut codes = Vec::with_capacity(d);
                for (f, fs) in self.artifact.features.iter().enumerate() {
                    let value = row
                        .get(&fs.name)
                        .ok_or_else(|| ScoreError::MissingFeature {
                            name: fs.name.clone(),
                        })?;
                    codes.push(self.code_for(f, value)?);
                }
                Ok((codes, row_degraded))
            }
            Json::Arr(values) => {
                if values.len() != d {
                    return Err(ScoreError::WrongArity {
                        got: values.len(),
                        expected: d,
                    });
                }
                values
                    .iter()
                    .enumerate()
                    .map(|(f, value)| self.code_for(f, value))
                    .collect::<Result<Vec<u32>, ScoreError>>()
                    .map(|codes| (codes, false))
            }
            _ => Err(ScoreError::NotAnObject),
        }
    }

    /// Decodes a request body into fully validated row-major codes
    /// (`rows[i][f]` in schema order) without scoring them. This is the
    /// first half of [`Scorer::predict_body`], split out so the server's
    /// micro-batcher can validate each request on its own worker and
    /// coalesce only the (infallible) scoring step across requests.
    ///
    /// Body shapes and the `rows`-feature disambiguation rule are
    /// documented on [`Scorer::predict_body`].
    pub fn decode_body(&self, body: &Json) -> Result<Vec<Vec<u32>>, ScoreError> {
        self.decode_body_degraded(body, false).map(|(rows, _)| rows)
    }

    /// [`Scorer::decode_body`] with the degraded-mode fallback chain:
    /// when `allow_degraded`, named values for features of
    /// train-time-absent tables are ignored instead of refused, and the
    /// returned flag reports whether any row was downgraded that way.
    /// With `allow_degraded = false` this is exactly `decode_body`.
    pub fn decode_body_degraded(
        &self,
        body: &Json,
        allow_degraded: bool,
    ) -> Result<(Vec<Vec<u32>>, bool), ScoreError> {
        let rows_is_feature = self.by_name.contains_key("rows");
        let rows: Vec<&Json> = match body {
            Json::Obj(_) if !rows_is_feature => match body.get("rows") {
                Some(Json::Arr(rows)) => rows.iter().collect(),
                Some(_) => {
                    return Err(ScoreError::BadValue {
                        feature: "rows".into(),
                        message: "expected an array of rows".into(),
                    })
                }
                // A single named row.
                None => vec![body],
            },
            // A single named row (schema has a feature named "rows").
            Json::Obj(_) => vec![body],
            Json::Arr(rows) => rows.iter().collect(),
            _ => return Err(ScoreError::NotAnObject),
        };
        let mut any_degraded = false;
        let decoded = rows
            .iter()
            .map(|row| {
                let (codes, row_degraded) = self.decode_row_allow(row, allow_degraded)?;
                any_degraded |= row_degraded;
                Ok(codes)
            })
            .collect::<Result<Vec<Vec<u32>>, ScoreError>>()?;
        Ok((decoded, any_degraded))
    }

    /// Scores already-validated row-major codes (each row produced by
    /// [`Scorer::decode_body`], in schema order). Scoring a coalesced
    /// batch is bit-for-bit identical to scoring each row alone: every
    /// model reads only its own row's codes through [`CodeSource`].
    pub fn predict_coded_rows(&self, rows: &[Vec<u32>]) -> Vec<Prediction> {
        let d = self.artifact.features.len();
        let mut codes = vec![Vec::with_capacity(rows.len()); d];
        for row in rows {
            debug_assert_eq!(row.len(), d, "decode_body guarantees arity");
            for (f, &code) in row.iter().enumerate() {
                codes[f].push(code);
            }
        }
        let batch = RowBatch {
            artifact: &self.artifact,
            codes,
            n_rows: rows.len(),
        };
        (0..batch.n_rows)
            .map(|r| {
                let class = self.artifact.model.predict_row(&batch, r);
                Prediction {
                    class,
                    label: self
                        .artifact
                        .class_labels
                        .as_ref()
                        .and_then(|ls| ls.get(class as usize).cloned()),
                    scores: self.artifact.model.scores(&batch, r),
                }
            })
            .collect()
    }

    /// Scores a request body: `{"rows": [...]}`, a bare array of rows,
    /// or a single row object. Errors identify the first offending row
    /// or feature; on error nothing is predicted (all-or-nothing).
    ///
    /// Disambiguation: an object body is the batch envelope only when
    /// `rows` is *not* a feature of the model's schema. A model trained
    /// with a feature literally named `rows` is still scorable as a
    /// single named row — its `rows` member is the feature value, and
    /// batches must use the bare-array form.
    pub fn predict_body(&self, body: &Json) -> Result<Vec<Prediction>, ScoreError> {
        Ok(self.predict_coded_rows(&self.decode_body(body)?))
    }

    /// Scores pre-coded rows (`rows[i][f]` in schema order), routing
    /// unseen FK codes through `Others`. This is the path the offline
    /// `hamlet predict` command and the benchmarks use.
    pub fn predict_codes(&self, rows: &[Vec<u32>]) -> Result<Vec<Prediction>, ScoreError> {
        let body = Json::Arr(
            rows.iter()
                .map(|r| Json::Arr(r.iter().map(|&c| Json::Num(c as f64)).collect()))
                .collect(),
        );
        self.predict_body(&body)
    }

    /// The prior-only surrogate prediction: what the model knows before
    /// reading any feature. Served (once per row) when the full scoring
    /// path faulted and the fallback chain is on — deterministic,
    /// input-independent, never panics.
    ///
    /// Per family: class log-priors for NB/TAN, the bias vector for
    /// logistic regression, the cold-start walk (every split routes to
    /// its not-equal branch, the path an entity matching nothing takes)
    /// for CART, and the base score for GBT.
    pub fn surrogate_prediction(&self) -> Prediction {
        let scores: Vec<f64> = match &self.artifact.model {
            ServableModel::NaiveBayes(m) => m.log_prior().to_vec(),
            ServableModel::Tan(m) => m.log_prior().to_vec(),
            ServableModel::LogisticRegression(m) => m.bias().to_vec(),
            ServableModel::Tree(m) => {
                let mut at = m.root() as usize;
                let class = loop {
                    match &m.nodes()[at] {
                        hamlet_trees::CartNode::Leaf { class } => break *class as usize,
                        hamlet_trees::CartNode::Split { right, .. } => at = *right as usize,
                    }
                };
                (0..m.n_classes())
                    .map(|y| if y == class { 1.0 } else { 0.0 })
                    .collect()
            }
            ServableModel::Gbt(m) => {
                let base = m.base();
                (0..m.n_classes())
                    .map(|y| {
                        let d = base - y as f64;
                        -(d * d)
                    })
                    .collect()
            }
        };
        // Argmax with ties to the lower class — the serving convention.
        let mut class = 0u32;
        let mut best = f64::NEG_INFINITY;
        for (y, &s) in scores.iter().enumerate() {
            if s > best {
                best = s;
                class = y as u32;
            }
        }
        Prediction {
            class,
            label: self
                .artifact
                .class_labels
                .as_ref()
                .and_then(|ls| ls.get(class as usize).cloned()),
            scores,
        }
    }

    /// Renders the response body `{"predictions": [...]}`.
    pub fn render_predictions(preds: &[Prediction]) -> Json {
        obj(vec![(
            "predictions",
            Json::Arr(preds.iter().map(Prediction::to_json).collect()),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel};
    use hamlet_ml::NaiveBayesModel;

    /// 2 classes; feature 0 "color" labelled {red,blue}; feature 1 "fk"
    /// with original domain 2 + Others at code 2. The NB tables are
    /// rigged so class = (color == blue), with the FK mildly informative.
    fn scorer() -> Scorer {
        let model = NaiveBayesModel::from_parts(
            vec![0, 1],
            2,
            vec![(0.5f64).ln(), (0.5f64).ln()],
            vec![
                vec![0.9f64.ln(), 0.1f64.ln(), 0.1f64.ln(), 0.9f64.ln()],
                vec![
                    0.5f64.ln(),
                    0.3f64.ln(),
                    0.2f64.ln(),
                    0.2f64.ln(),
                    0.3f64.ln(),
                    0.5f64.ln(),
                ],
            ],
            vec![2, 3],
        );
        Scorer::new(ModelArtifact {
            dataset: "unit".into(),
            n_classes: 2,
            class_labels: Some(vec!["no".into(), "yes".into()]),
            features: vec![
                FeatureSchema {
                    name: "color".into(),
                    domain_size: 2,
                    labels: Some(vec!["red".into(), "blue".into()]),
                    fk: None,
                },
                FeatureSchema {
                    name: "fk".into(),
                    domain_size: 3,
                    labels: None,
                    fk: Some(FkColdStart {
                        table: "R".into(),
                        original_domain: 2,
                        others_code: 2,
                    }),
                },
            ],
            decisions: vec![JoinDecision {
                table: "R".into(),
                fk: "fk".into(),
                strategy: hamlet_core::ExecStrategy::AvoidJoin,
                tuple_ratio: 40.0,
                ror: Some(1.1),
                avoid: true,
                foreign_features: vec!["country".into(), "size".into()],
                degraded: false,
            }],
            model: ServableModel::NaiveBayes(model),
        })
    }

    fn parse(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn named_and_positional_rows_agree() {
        let s = scorer();
        let named = s
            .predict_body(&parse(
                r#"{"rows":[{"color":"blue","fk":1},{"color":"red","fk":0}]}"#,
            ))
            .unwrap();
        let positional = s.predict_body(&parse(r#"[[1,1],[0,0]]"#)).unwrap();
        assert_eq!(named, positional);
        assert_eq!(named[0].class, 1);
        assert_eq!(named[0].label.as_deref(), Some("yes"));
        assert_eq!(named[1].class, 0);
    }

    #[test]
    fn single_object_body_is_one_row() {
        let s = scorer();
        let preds = s
            .predict_body(&parse(r#"{"color":"blue","fk":0}"#))
            .unwrap();
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].scores.len(), 2);
    }

    #[test]
    fn unseen_fk_routes_through_others() {
        let s = scorer();
        // Codes 2, 7, 1000 are all unseen entities; they must score
        // exactly like the trained Others code 2.
        let unseen = s.predict_body(&parse(r#"[[0,2],[0,7],[0,1000]]"#)).unwrap();
        for p in &unseen {
            assert_eq!(p, &unseen[0]);
        }
        // Unknown *labels* on a labelled FK would also route to Others;
        // this FK is unlabelled, so strings are a BadValue instead.
        let err = s.predict_body(&parse(r#"[[0,"acme"]]"#)).unwrap_err();
        assert_eq!(err.kind(), "bad_value");
    }

    #[test]
    fn unseen_category_on_non_fk_is_typed_422() {
        let s = scorer();
        let err = s
            .predict_body(&parse(r#"[{"color":"green","fk":0}]"#))
            .unwrap_err();
        assert_eq!(
            err,
            ScoreError::UnknownCategory {
                feature: "color".into(),
                value: "'green'".into(),
                domain_size: 2,
            }
        );
        assert_eq!(err.http_status(), 422);
        let err = s.predict_body(&parse(r#"[[5,0]]"#)).unwrap_err();
        assert_eq!(err.kind(), "unknown_category");
    }

    #[test]
    fn avoided_foreign_feature_is_refused() {
        let s = scorer();
        let err = s
            .predict_body(&parse(r#"[{"color":"red","fk":0,"country":"US"}]"#))
            .unwrap_err();
        assert_eq!(
            err,
            ScoreError::AvoidedFeature {
                name: "country".into(),
                table: "R".into(),
            }
        );
        assert_eq!(err.http_status(), 422);
        assert!(err.to_string().contains("advisor avoided"));
    }

    #[test]
    fn malformed_requests_are_400() {
        let s = scorer();
        for (body, kind) in [
            (r#"42"#, "not_an_object"),
            (r#"[[0]]"#, "wrong_arity"),
            (r#"[[0,0,0]]"#, "wrong_arity"),
            (r#"[[true,0]]"#, "bad_value"),
            (r#"[[-1,0]]"#, "bad_value"),
            (r#"[[0.5,0]]"#, "bad_value"),
            (r#"{"rows":3}"#, "bad_value"),
            (r#"[3]"#, "not_an_object"),
        ] {
            let err = s.predict_body(&parse(body)).unwrap_err();
            assert_eq!(err.kind(), kind, "body {body}");
            assert_eq!(err.http_status(), 400, "body {body}");
        }
        // Missing + unknown named features are 422.
        let err = s.predict_body(&parse(r#"[{"color":"red"}]"#)).unwrap_err();
        assert_eq!(err, ScoreError::MissingFeature { name: "fk".into() });
        let err = s
            .predict_body(&parse(r#"[{"color":"red","fk":0,"bogus":1}]"#))
            .unwrap_err();
        assert_eq!(
            err,
            ScoreError::UnknownFeature {
                name: "bogus".into()
            }
        );
    }

    #[test]
    fn error_body_shape() {
        let err = ScoreError::MissingFeature { name: "fk".into() };
        let j = err.to_json();
        let e = j.get("error").unwrap();
        assert_eq!(
            e.get("kind").and_then(Json::as_str),
            Some("missing_feature")
        );
        assert!(e
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("fk"));
    }

    #[test]
    fn feature_named_rows_is_not_mistaken_for_the_envelope() {
        // One feature literally named "rows" (domain 3, integer-coded).
        let model = NaiveBayesModel::from_parts(
            vec![0],
            2,
            vec![(0.5f64).ln(), (0.5f64).ln()],
            vec![vec![
                0.2f64.ln(),
                0.3f64.ln(),
                0.5f64.ln(),
                0.5f64.ln(),
                0.3f64.ln(),
                0.2f64.ln(),
            ]],
            vec![3],
        );
        let s = Scorer::new(ModelArtifact {
            dataset: "unit".into(),
            n_classes: 2,
            class_labels: None,
            features: vec![FeatureSchema {
                name: "rows".into(),
                domain_size: 3,
                labels: None,
                fk: None,
            }],
            decisions: vec![],
            model: ServableModel::NaiveBayes(model),
        });
        // A single named row whose only member is the feature "rows".
        let named = s.predict_body(&parse(r#"{"rows":2}"#)).unwrap();
        let positional = s.predict_body(&parse(r#"[[2]]"#)).unwrap();
        assert_eq!(named, positional);
        // Batches still work via the bare-array form.
        assert_eq!(s.predict_body(&parse(r#"[[0],[1]]"#)).unwrap().len(), 2);
    }

    #[test]
    fn predict_codes_matches_predict_body() {
        let s = scorer();
        let a = s.predict_codes(&[vec![1, 0], vec![0, 9]]).unwrap();
        let b = s.predict_body(&parse(r#"[[1,0],[0,9]]"#)).unwrap();
        assert_eq!(a, b);
    }

    /// The `scorer()` fixture with its decision marked degraded, as a
    /// degraded-mode build would produce.
    fn degraded_scorer() -> Scorer {
        let mut artifact = scorer().artifact;
        artifact.decisions[0].degraded = true;
        Scorer::new(artifact)
    }

    #[test]
    fn degraded_feature_is_refused_with_ror_evidence() {
        let s = degraded_scorer();
        assert!(s.trained_degraded());
        let err = s
            .predict_body(&parse(r#"[{"color":"red","fk":0,"country":"US"}]"#))
            .unwrap_err();
        assert_eq!(
            err,
            ScoreError::DegradedFeature {
                name: "country".into(),
                table: "R".into(),
                ror: Some(1.1),
            }
        );
        assert_eq!(err.http_status(), 422);
        assert_eq!(err.kind(), "degraded_feature");
        assert!(err.to_string().contains("ROR"), "{err}");
        assert!(err.to_string().contains("1.1"), "{err}");
    }

    #[test]
    fn allow_degraded_ignores_the_feature_and_flags_the_batch() {
        let s = degraded_scorer();
        let (rows, degraded) = s
            .decode_body_degraded(&parse(r#"[{"color":"red","fk":0,"country":"US"}]"#), true)
            .unwrap();
        assert!(degraded);
        // The surviving codes are exactly the schema features.
        let (clean, clean_degraded) = s
            .decode_body_degraded(&parse(r#"[{"color":"red","fk":0}]"#), true)
            .unwrap();
        assert!(!clean_degraded);
        assert_eq!(rows, clean);
        // decode_body (no fallback) still refuses.
        assert!(s
            .decode_body(&parse(r#"[{"color":"red","fk":0,"country":"US"}]"#))
            .is_err());
        // Unknown features stay unknown even under the fallback.
        let err = s
            .decode_body_degraded(&parse(r#"[{"color":"red","fk":0,"bogus":1}]"#), true)
            .unwrap_err();
        assert_eq!(err.kind(), "unknown_feature");
    }

    #[test]
    fn surrogate_prediction_is_the_class_prior() {
        let s = scorer();
        let p = s.surrogate_prediction();
        // Equal priors tie to the lower class.
        assert_eq!(p.class, 0);
        assert_eq!(p.label.as_deref(), Some("no"));
        assert_eq!(p.scores, vec![(0.5f64).ln(), (0.5f64).ln()]);
    }
}
