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
//!
//! A request takes one typed path: [`Scorer::decode_body`] reads the
//! body text into a column-major [`CodedBatch`] (positional codes go
//! from bytes to `u32` with no JSON node per value), [`Scorer::score`]
//! scores each row once, and [`Scorer::render`] writes the response
//! text directly.

use std::collections::HashMap;

use hamlet_core::ExecStrategy;
use hamlet_obs::counter_add;
use hamlet_obs::json::{obj, write_num, write_str, Json, Reader};

use crate::artifact::{ModelArtifact, ServableModel};
use crate::batch::{CodedBatch, ScoredBatch};

/// A typed scoring failure. [`ScoreError::http_status`] maps each
/// variant onto the HTTP plane: 400 for malformed requests, 422 for
/// well-formed requests the model must refuse.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreError {
    /// The request body is not JSON; carries the parser's message.
    Syntax(String),
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
            ScoreError::Syntax(_)
            | ScoreError::NotAnObject
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
            ScoreError::Syntax(_) => "bad_json",
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
            ScoreError::Syntax(message) => write!(f, "request body: {message}"),
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

/// Writes `{"predictions":[…]}` (plus `"degraded":true` on degraded
/// answers) for `(class, label, scores)` rows: byte for byte the
/// rendering of the equivalent [`Json`] tree, through the same writers.
fn render_rows<'p>(
    rows: impl ExactSizeIterator<Item = (u32, Option<&'p str>, &'p [f64])>,
    degraded: bool,
) -> String {
    let mut out = String::with_capacity(32 + rows.len() * 96);
    out.push_str("{\"predictions\":[");
    for (i, (class, label, scores)) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"class\":");
        write_num(&mut out, class as f64);
        out.push_str(",\"label\":");
        match label {
            Some(l) => write_str(&mut out, l),
            None => out.push_str("null"),
        }
        out.push_str(",\"scores\":[");
        for (j, &s) in scores.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_num(&mut out, s);
        }
        out.push_str("]}");
    }
    out.push(']');
    if degraded {
        out.push_str(",\"degraded\":true");
    }
    out.push('}');
    out
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

    /// Routes an integer code of feature `f`: an FK code outside the
    /// original domain is an unseen entity and becomes `Others`; any
    /// other feature refuses a code outside its trained domain.
    fn route_code(&self, f: usize, code: u32) -> Result<u32, ScoreError> {
        let fs = &self.artifact.features[f];
        match &fs.fk {
            Some(fk) if (code as usize) >= fk.original_domain => Ok(fk.others_code),
            Some(_) => Ok(code),
            None if (code as usize) < fs.domain_size => Ok(code),
            None => Err(ScoreError::UnknownCategory {
                feature: fs.name.clone(),
                value: code.to_string(),
                domain_size: fs.domain_size,
            }),
        }
    }

    /// Resolves a JSON number to the trained code of feature `f`.
    fn code_of_num(&self, f: usize, n: f64) -> Result<u32, ScoreError> {
        if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
            return Err(ScoreError::BadValue {
                feature: self.artifact.features[f].name.clone(),
                message: format!("expected a non-negative integer code, got {n}"),
            });
        }
        self.route_code(f, n as u32)
    }

    /// Resolves a JSON string (a value label) to the trained code of
    /// feature `f`; an unknown label of an FK is an unseen entity.
    fn code_of_str(&self, f: usize, s: &str) -> Result<u32, ScoreError> {
        let fs = &self.artifact.features[f];
        let Some(codes) = &self.label_codes[f] else {
            return Err(ScoreError::BadValue {
                feature: fs.name.clone(),
                message: format!(
                    "'{s}' is a string but this feature has no label vocabulary; \
                     send an integer code"
                ),
            });
        };
        match (codes.get(s), &fs.fk) {
            (Some(&c), _) => Ok(c),
            (None, Some(fk)) => Ok(fk.others_code),
            (None, None) => Err(ScoreError::UnknownCategory {
                feature: fs.name.clone(),
                value: format!("'{s}'"),
                domain_size: fs.domain_size,
            }),
        }
    }

    /// Resolves any JSON value to the trained code of feature `f`.
    fn code_of(&self, f: usize, value: &Json) -> Result<u32, ScoreError> {
        match value {
            Json::Num(n) => self.code_of_num(f, *n),
            Json::Str(s) => self.code_of_str(f, s),
            other => Err(ScoreError::BadValue {
                feature: self.artifact.features[f].name.clone(),
                message: format!("expected a number or string, got {other}"),
            }),
        }
    }

    /// Decodes one parsed row into `codes` (schema order); `Ok(true)`
    /// reports a degraded-table feature ignored under `allow_degraded`.
    /// A named row's member names are all checked before any value.
    fn decode_row(
        &self,
        row: &Json,
        allow_degraded: bool,
        codes: &mut [u32],
    ) -> Result<bool, ScoreError> {
        let members = match row {
            Json::Obj(members) => members,
            Json::Arr(values) if values.len() != codes.len() => {
                return Err(ScoreError::WrongArity {
                    got: values.len(),
                    expected: codes.len(),
                })
            }
            Json::Arr(values) => {
                for (f, value) in values.iter().enumerate() {
                    codes[f] = self.code_of(f, value)?;
                }
                return Ok(false);
            }
            _ => return Err(ScoreError::NotAnObject),
        };
        let mut row_degraded = false;
        for (name, _) in members
            .iter()
            .filter(|(n, _)| !self.by_name.contains_key(n))
        {
            // Features of degraded (train-time-absent) tables: ignored
            // under the fallback chain, refused with ROR evidence
            // otherwise. Checked before the avoid-join refusal — a
            // degraded table's decision may also be an avoid.
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
            // Refuse foreign features of avoided joins with a specific
            // error before the generic unknown one.
            return Err(match self.avoided_of.get(name) {
                Some(table) => ScoreError::AvoidedFeature {
                    name: name.clone(),
                    table: table.clone(),
                },
                None => ScoreError::UnknownFeature { name: name.clone() },
            });
        }
        for (f, fs) in self.artifact.features.iter().enumerate() {
            let value = row
                .get(&fs.name)
                .ok_or_else(|| ScoreError::MissingFeature {
                    name: fs.name.clone(),
                })?;
            codes[f] = self.code_of(f, value)?;
        }
        Ok(row_degraded)
    }

    /// Decodes a request body into a validated [`CodedBatch`] without
    /// scoring it: `{"rows": [...]}`, a bare array of rows, or a single
    /// named row; a row is a named object or a positional array in
    /// schema order. The flag reports whether `allow_degraded` ignored
    /// a named value of a train-time-absent table's feature (refused
    /// otherwise).
    ///
    /// An object body is the batch envelope only when `rows` is *not* a
    /// feature of the model's schema; a model with a feature literally
    /// named `rows` scores such a body as one named row, and its batches
    /// use the bare-array form.
    ///
    /// Errors name the first offending row or feature; nothing is
    /// decoded on error. The body is read to its end first, so a syntax
    /// error anywhere wins over a refusal, and within a positional row
    /// a wrong arity wins over a bad value.
    pub fn decode_body(
        &self,
        body: &str,
        allow_degraded: bool,
    ) -> Result<(CodedBatch<'_>, bool), ScoreError> {
        let mut dec = Decode {
            scorer: self,
            allow_degraded,
            batch: CodedBatch::with_capacity(&self.artifact, 0),
            row: vec![0; self.artifact.features.len()],
            text: String::new(),
            first_err: None,
            degraded: false,
            positional: 0,
            named: 0,
        };
        let mut r = Reader::new(body);
        r.skip_ws();
        let read = if r.peek() == Some(b'[') {
            dec.rows(&mut r)
        } else {
            r.value(0).map(|doc| dec.document(&doc))
        };
        read.and_then(|()| r.finish()).map_err(ScoreError::Syntax)?;
        if let Some(e) = dec.first_err {
            return Err(e);
        }
        counter_add!("hamlet_serve_rows_decoded_positional_total", dec.positional);
        counter_add!("hamlet_serve_rows_decoded_named_total", dec.named);
        Ok((dec.batch, dec.degraded))
    }

    /// Validates pre-coded rows (`rows[i][f]` in schema order) into a
    /// batch, routing unseen FK codes through `Others`.
    pub fn code_rows(&self, rows: &[Vec<u32>]) -> Result<CodedBatch<'_>, ScoreError> {
        let d = self.artifact.features.len();
        let mut batch = CodedBatch::with_capacity(&self.artifact, rows.len());
        let mut codes = vec![0; d];
        for row in rows {
            if row.len() != d {
                return Err(ScoreError::WrongArity {
                    got: row.len(),
                    expected: d,
                });
            }
            for (f, &code) in row.iter().enumerate() {
                codes[f] = self.route_code(f, code)?;
            }
            batch.push_row(&codes);
        }
        Ok(batch)
    }

    /// Scores every row of a batch once
    /// ([`ServableModel::score_into`]). A row's result depends on its
    /// own codes alone, so a coalesced batch scores bit-for-bit like
    /// its rows one by one.
    pub fn score(&self, batch: &CodedBatch<'_>) -> ScoredBatch {
        let model = &self.artifact.model;
        let width = model.n_classes();
        let mut scores = vec![0.0; batch.n_rows() * width];
        let classes = (0..batch.n_rows())
            .map(|r| model.score_into(batch, r, &mut scores[r * width..(r + 1) * width]))
            .collect();
        ScoredBatch::new(width, classes, scores)
    }

    fn label_of(&self, class: u32) -> Option<&str> {
        let labels = self.artifact.class_labels.as_ref()?;
        labels.get(class as usize).map(String::as_str)
    }

    /// Renders the response body `{"predictions": [...]}`, with the
    /// `"degraded": true` member only on degraded answers. Labels are
    /// borrowed from the artifact.
    pub fn render(&self, scored: &ScoredBatch, degraded: bool) -> String {
        let rows = (0..scored.n_rows()).map(|r| {
            let (class, scores) = scored.row(r);
            (class, self.label_of(class), scores)
        });
        render_rows(rows, degraded)
    }

    /// The scored rows as owned [`Prediction`]s.
    pub fn predictions(&self, scored: &ScoredBatch) -> Vec<Prediction> {
        (0..scored.n_rows())
            .map(|r| {
                let (class, scores) = scored.row(r);
                Prediction {
                    class,
                    label: self.label_of(class).map(str::to_string),
                    scores: scores.to_vec(),
                }
            })
            .collect()
    }

    /// Scores pre-coded rows (`rows[i][f]` in schema order), routing
    /// unseen FK codes through `Others`. This is the path the
    /// benchmarks use.
    pub fn predict_codes(&self, rows: &[Vec<u32>]) -> Result<Vec<Prediction>, ScoreError> {
        // Bound first, so the coded batch drops before the predictions
        // are built.
        let scored = self.score(&self.code_rows(rows)?);
        Ok(self.predictions(&scored))
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
            label: self.label_of(class).map(str::to_string),
            scores,
        }
    }

    /// Renders `n_rows` surrogate predictions, marked degraded: the
    /// terminal of the serving fallback chain.
    pub fn render_surrogate(&self, n_rows: usize) -> String {
        let p = self.surrogate_prediction();
        let rows = (0..n_rows).map(|_| (p.class, p.label.as_deref(), &p.scores[..]));
        render_rows(rows, true)
    }

    /// Renders `{"predictions": [...]}` for owned predictions: what
    /// [`Scorer::render`] writes for the same rows.
    pub fn render_predictions(preds: &[Prediction]) -> String {
        let rows = preds
            .iter()
            .map(|p| (p.class, p.label.as_deref(), &p.scores[..]));
        render_rows(rows, false)
    }
}

/// One body being decoded: the batch so far, the first refusal (after
/// which the rest is read for syntax only) and per-row scratch.
struct Decode<'s> {
    scorer: &'s Scorer,
    allow_degraded: bool,
    batch: CodedBatch<'s>,
    /// The current row's codes, schema order.
    row: Vec<u32>,
    /// Scratch for a string value.
    text: String,
    first_err: Option<ScoreError>,
    degraded: bool,
    positional: u64,
    named: u64,
}

impl Decode<'_> {
    /// A parsed body that is not a bare array: the `{"rows": [...]}`
    /// envelope, a single named row, or a refusal.
    fn document(&mut self, body: &Json) {
        match (body, body.get("rows")) {
            (Json::Obj(_), _) if self.scorer.by_name.contains_key("rows") => self.tree_row(body),
            (Json::Obj(_), Some(Json::Arr(rows))) => rows.iter().for_each(|row| self.tree_row(row)),
            (Json::Obj(_), Some(_)) => {
                self.first_err = Some(ScoreError::BadValue {
                    feature: "rows".into(),
                    message: "expected an array of rows".into(),
                })
            }
            (Json::Obj(_), None) => self.tree_row(body),
            _ => self.first_err = Some(ScoreError::NotAnObject),
        }
    }

    /// One parsed row, unless a refusal is already recorded.
    fn tree_row(&mut self, row: &Json) {
        if self.first_err.is_some() {
            return;
        }
        match self
            .scorer
            .decode_row(row, self.allow_degraded, &mut self.row)
        {
            Ok(row_degraded) => {
                self.degraded |= row_degraded;
                match row {
                    Json::Obj(_) => self.named += 1,
                    _ => self.positional += 1,
                }
                self.batch.push_row(&self.row);
            }
            Err(e) => self.first_err = Some(e),
        }
    }

    /// The bare-array body (depth 0), whose `[` is next: positional
    /// rows stream into the batch, any other row is read as a tree.
    fn rows(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        if r.begin_array()? {
            return Ok(());
        }
        loop {
            r.enter(1)?;
            r.skip_ws();
            if r.peek() == Some(b'[') {
                self.positional_row(r)?;
            } else {
                let row = r.value(1)?;
                self.tree_row(&row);
            }
            if !r.next_item()? {
                return Ok(());
            }
        }
    }

    /// One positional row of the bare-array body (depth 1), whose `[`
    /// is next, read value by value: plain digit codes never leave
    /// `u32`, strings reuse one buffer, and any other value is read as
    /// a tree and refused.
    fn positional_row(&mut self, r: &mut Reader<'_>) -> Result<(), String> {
        let s = self.scorer;
        let d = self.row.len();
        let live = self.first_err.is_none();
        let mut got = 0;
        let mut bad = None;
        let mut empty = r.begin_array()?;
        while !empty {
            r.enter(2)?;
            r.skip_ws();
            let f = got;
            got += 1;
            let check = live && bad.is_none() && f < d;
            let code = match r.peek() {
                Some(b'-' | b'0'..=b'9') => {
                    let text = r.number_text();
                    match small_code(text) {
                        Some(code) => check.then(|| s.route_code(f, code)),
                        None => {
                            let n = Reader::parse_number(text)?;
                            check.then(|| s.code_of_num(f, n))
                        }
                    }
                }
                Some(b'"') => {
                    self.text.clear();
                    r.string_into(&mut self.text)?;
                    check.then(|| s.code_of_str(f, &self.text))
                }
                _ => {
                    let value = r.value(2)?;
                    check.then(|| s.code_of(f, &value))
                }
            };
            match code {
                Some(Ok(code)) => self.row[f] = code,
                Some(Err(e)) => bad = Some(e),
                None => {}
            }
            empty = !r.next_item()?;
        }
        if live {
            if got != d {
                self.first_err = Some(ScoreError::WrongArity { got, expected: d });
            } else if bad.is_some() {
                self.first_err = bad;
            } else {
                self.positional += 1;
                self.batch.push_row(&self.row);
            }
        }
        Ok(())
    }
}

/// A number token of at most nine plain digits as the code it names —
/// the integer its `f64` parse gives; `None` sends any other token
/// through the full number parse.
#[inline]
fn small_code(text: &str) -> Option<u32> {
    if text.len() > 9 {
        return None;
    }
    text.bytes().try_fold(0u32, |acc, b| {
        b.is_ascii_digit().then(|| acc * 10 + u32::from(b - b'0'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel};
    use crate::batch::CodedBatch;
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

    /// Decodes and scores `body` the way the server does, without the
    /// HTTP plane.
    fn predict(s: &Scorer, body: &str) -> Result<Vec<Prediction>, ScoreError> {
        match s.decode_body(body, false) {
            Ok((batch, _)) => Ok(s.predictions(&s.score(&batch))),
            Err(ScoreError::Syntax(e)) => panic!("test body is not JSON: {e}"),
            Err(e) => Err(e),
        }
    }

    fn rows_of(batch: &CodedBatch<'_>) -> Vec<Vec<u32>> {
        (0..batch.n_rows())
            .map(|r| batch.row(r).collect())
            .collect()
    }

    #[test]
    fn named_and_positional_rows_agree() {
        let s = scorer();
        let named = predict(
            &s,
            r#"{"rows":[{"color":"blue","fk":1},{"color":"red","fk":0}]}"#,
        )
        .unwrap();
        let positional = predict(&s, r#"[[1,1],[0,0]]"#).unwrap();
        assert_eq!(named, positional);
        assert_eq!(named[0].class, 1);
        assert_eq!(named[0].label.as_deref(), Some("yes"));
        assert_eq!(named[1].class, 0);
    }

    #[test]
    fn single_object_body_is_one_row() {
        let s = scorer();
        let preds = predict(&s, r#"{"color":"blue","fk":0}"#).unwrap();
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].scores.len(), 2);
    }

    #[test]
    fn unseen_fk_routes_through_others() {
        let s = scorer();
        // Codes 2, 7, 1000 are all unseen entities; they must score
        // exactly like the trained Others code 2.
        let unseen = predict(&s, r#"[[0,2],[0,7],[0,1000]]"#).unwrap();
        for p in &unseen {
            assert_eq!(p, &unseen[0]);
        }
        // Unknown *labels* on a labelled FK would also route to Others;
        // this FK is unlabelled, so strings are a BadValue instead.
        let err = predict(&s, r#"[[0,"acme"]]"#).unwrap_err();
        assert_eq!(err.kind(), "bad_value");
    }

    #[test]
    fn unseen_category_on_non_fk_is_typed_422() {
        let s = scorer();
        let err = predict(&s, r#"[{"color":"green","fk":0}]"#).unwrap_err();
        assert_eq!(
            err,
            ScoreError::UnknownCategory {
                feature: "color".into(),
                value: "'green'".into(),
                domain_size: 2,
            }
        );
        assert_eq!(err.http_status(), 422);
        let err = predict(&s, r#"[[5,0]]"#).unwrap_err();
        assert_eq!(err.kind(), "unknown_category");
    }

    #[test]
    fn avoided_foreign_feature_is_refused() {
        let s = scorer();
        let err = predict(&s, r#"[{"color":"red","fk":0,"country":"US"}]"#).unwrap_err();
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
            let err = predict(&s, body).unwrap_err();
            assert_eq!(err.kind(), kind, "body {body}");
            assert_eq!(err.http_status(), 400, "body {body}");
        }
        // Missing + unknown named features are 422.
        let err = predict(&s, r#"[{"color":"red"}]"#).unwrap_err();
        assert_eq!(err, ScoreError::MissingFeature { name: "fk".into() });
        let err = predict(&s, r#"[{"color":"red","fk":0,"bogus":1}]"#).unwrap_err();
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
        let named = predict(&s, r#"{"rows":2}"#).unwrap();
        let positional = predict(&s, r#"[[2]]"#).unwrap();
        assert_eq!(named, positional);
        // Batches still work via the bare-array form.
        assert_eq!(predict(&s, r#"[[0],[1]]"#).unwrap().len(), 2);
    }

    #[test]
    fn predict_codes_matches_decode_body() {
        let s = scorer();
        let a = s.predict_codes(&[vec![1, 0], vec![0, 9]]).unwrap();
        let b = predict(&s, r#"[[1,0],[0,9]]"#).unwrap();
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
        let err = predict(&s, r#"[{"color":"red","fk":0,"country":"US"}]"#).unwrap_err();
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
            .decode_body(r#"[{"color":"red","fk":0,"country":"US"}]"#, true)
            .unwrap();
        assert!(degraded);
        // The surviving codes are exactly the schema features.
        let (clean, clean_degraded) = s.decode_body(r#"[{"color":"red","fk":0}]"#, true).unwrap();
        assert!(!clean_degraded);
        assert_eq!(rows_of(&rows), rows_of(&clean));
        // Without the fallback the feature is still refused.
        assert!(s
            .decode_body(r#"[{"color":"red","fk":0,"country":"US"}]"#, false)
            .is_err());
        // Unknown features stay unknown even under the fallback.
        let err = s
            .decode_body(r#"[{"color":"red","fk":0,"bogus":1}]"#, true)
            .unwrap_err();
        assert_eq!(err.kind(), "unknown_feature");
    }

    #[test]
    fn a_syntax_error_anywhere_beats_an_earlier_refusal() {
        let s = scorer();
        for body in [
            r#"[[5,0]] x"#,
            r#"[[5,0],[0,"#,
            r#"[[true,0,0],[0,0] 1]"#,
            r#"[{"bogus":1},[0,0],]"#,
            r#"{"rows":[[9,9]], "x": tru}"#,
        ] {
            let err = s.decode_body(body, false).unwrap_err();
            assert_eq!(
                err,
                ScoreError::Syntax(Json::parse(body).unwrap_err()),
                "body {body}"
            );
        }
    }

    #[test]
    fn arity_beats_a_bad_value_and_names_beat_values() {
        let s = scorer();
        // Positional: the arity of the row wins over its first bad value.
        let err = predict(&s, r#"[[0,0],[true,"x",0]]"#).unwrap_err();
        assert_eq!(err.kind(), "wrong_arity");
        // ...but an earlier row's bad value wins over a later arity.
        let err = predict(&s, r#"[[0.5,0],[0]]"#).unwrap_err();
        assert_eq!(err.kind(), "bad_value");
        // Named: an unknown name wins over a bad value before it.
        let err = predict(&s, r#"[{"color":"green","bogus":1}]"#).unwrap_err();
        assert_eq!(err.kind(), "unknown_feature");
        // Values in every position go through the same validation.
        let err = predict(&s, r#"[[0,[1]]]"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "feature 'fk': expected a number or string, got [1]"
        );
        let err = predict(&s, r#"[[1e3,0]]"#).unwrap_err();
        assert_eq!(err.kind(), "unknown_category");
        let err = predict(&s, r#"[[4294967296,0]]"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "feature 'color': expected a non-negative integer code, got 4294967296"
        );
    }

    #[test]
    fn streamed_rows_equal_code_rows_across_growth() {
        let s = scorer();
        let rows: Vec<Vec<u32>> = (0..100u32).map(|r| vec![r % 2, r % 7]).collect();
        let body = format!(
            "[{}]",
            rows.iter()
                .map(|r| format!("[ {} , {} ]", r[0], r[1]))
                .collect::<Vec<_>>()
                .join(",")
        );
        let (streamed, _) = s.decode_body(&body, false).unwrap();
        let direct = s.code_rows(&rows).unwrap();
        assert_eq!(rows_of(&streamed), rows_of(&direct));
        assert_eq!(s.score(&streamed), s.score(&direct));
        // Labels and codes mix freely in one positional row.
        let (labelled, _) = s.decode_body(r#"[["blue", 1], [0, 1]]"#, false).unwrap();
        assert_eq!(rows_of(&labelled), vec![vec![1, 1], vec![0, 1]]);
    }

    #[test]
    fn rendering_matches_the_json_tree_byte_for_byte() {
        let mut artifact = scorer().artifact;
        artifact.class_labels = Some(vec!["n\"o\\".into(), "y\u{e9}s\n".into()]);
        let s = Scorer::new(artifact);
        let preds = s.predict_codes(&[vec![1, 0], vec![0, 9]]).unwrap();
        let tree = |preds: &[Prediction], degraded: bool| {
            let mut members = vec![(
                "predictions",
                Json::Arr(
                    preds
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("class", Json::Num(p.class as f64)),
                                ("label", p.label.clone().map_or(Json::Null, Json::Str)),
                                (
                                    "scores",
                                    Json::Arr(p.scores.iter().map(|&x| Json::Num(x)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )];
            if degraded {
                members.push(("degraded", Json::Bool(true)));
            }
            obj(members).to_string()
        };
        assert_eq!(Scorer::render_predictions(&preds), tree(&preds, false));
        let batch = s.code_rows(&[vec![1, 0], vec![0, 9]]).unwrap();
        assert_eq!(s.render(&s.score(&batch), true), tree(&preds, true));
        let surrogate = vec![s.surrogate_prediction(); 3];
        assert_eq!(s.render_surrogate(3), tree(&surrogate, true));
    }

    #[test]
    fn decode_counters_name_the_path_taken() {
        use hamlet_obs::metrics::counter;
        let s = scorer();
        let positional = counter("hamlet_serve_rows_decoded_positional_total");
        let named = counter("hamlet_serve_rows_decoded_named_total");
        let (p0, n0) = (positional.get(), named.get());
        s.decode_body(r#"[[0,0],[1,1],{"color":"red","fk":1}]"#, false)
            .unwrap();
        // Other tests decode concurrently, so the deltas are lower bounds.
        assert!(positional.get() - p0 >= 2);
        assert!(named.get() - n0 >= 1);
        let (p1, n1) = (positional.get(), named.get());
        s.decode_body(r#"{"rows":[[0,0]]}"#, false).unwrap();
        assert!(positional.get() - p1 >= 1);
        s.decode_body(r#"{"color":"red","fk":1}"#, false).unwrap();
        assert!(named.get() - n1 >= 1);
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
