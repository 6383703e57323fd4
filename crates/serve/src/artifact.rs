//! The versioned, checksummed model artifact.
//!
//! An artifact is a single hand-rolled-JSON document (rendered and parsed
//! by `hamlet_obs::json`, written with `hamlet_obs::atomic_write`) that
//! bundles everything prediction needs to honor the training-time
//! decisions:
//!
//! * the fitted model parameters for one of the five classifier
//!   families (Naive Bayes, logistic regression, TAN, CART decision
//!   tree, gradient-boosted trees);
//! * the feature schema — per-feature name, trained domain size, and the
//!   label vocabulary for labelled domains;
//! * the advisor's per-join [`ExecStrategy`] verdicts with their TR/ROR
//!   evidence, so an `AvoidJoin` decision travels with the deployed
//!   model;
//! * the cold-start `Others` mapping per foreign key, so unseen FK
//!   values route exactly as `hamlet_relational::coldstart` routed them
//!   at train time.
//!
//! ## Versioning and integrity rules
//!
//! The envelope is `{magic, schema_version, checksum, payload}`. `magic`
//! must equal [`MAGIC`]; `schema_version` must lie in
//! [`MIN_SCHEMA_VERSION`]`..=`[`SCHEMA_VERSION`] — v2 added the tree
//! families as a pure extension, so every v1 artifact is also a valid v2
//! payload and loads unchanged; versions *newer* than this build are
//! rejected (no forward reading); `checksum` is an FNV-1a 64 hash of the
//! payload's bytes exactly as they stand in the file, so whitespace
//! between the envelope's tokens does not invalidate an artifact but any
//! edit inside the payload does, even one that parses to the same value.
//! Every load failure is a typed [`ArtifactError`];
//! corrupt, truncated, or bit-flipped artifacts must never panic (the
//! workspace no-panic contract, enforced by `tests/no_panic_paths.rs`).

use std::fmt::{self, Display};
use std::path::Path;

use hamlet_core::ExecStrategy;
use hamlet_ml::{CodeSource, LogisticRegressionModel, Model, NaiveBayesModel, TanModel};
use hamlet_obs::json::{write_num, write_str, Reader};
use hamlet_trees::{CartModel, CartNode, GbtModel, RegNode};

/// First bytes of every artifact: identifies the file type.
pub const MAGIC: &str = "hamlet-model";

/// Artifact schema version this build writes (v2 added the `tree` and
/// `gbt` model families).
pub const SCHEMA_VERSION: u64 = 2;

/// Oldest schema version this build still reads. v1 artifacts are a
/// strict subset of v2 (same envelope and payload shape, fewer model
/// families), so they load without migration.
pub const MIN_SCHEMA_VERSION: u64 = 1;

/// Failpoint armed at artifact load (`HAMLET_FAILPOINTS=serve.artifact_load=io`).
pub const LOAD_FAILPOINT: &str = "serve.artifact_load";

/// A typed artifact failure. Every corrupt-input path lands here; none
/// of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Reading or writing the artifact file failed.
    Io {
        /// Path of the artifact.
        path: String,
        /// The underlying IO error message.
        message: String,
    },
    /// The document is not valid JSON (often a truncated write).
    Parse(String),
    /// The document is JSON but not a hamlet model artifact.
    BadMagic {
        /// What the `magic` field held (or a placeholder if missing).
        found: String,
    },
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the artifact.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// The payload hash does not match the recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        expected: String,
        /// Checksum computed over the payload.
        actual: String,
    },
    /// The payload is structurally malformed (missing/ill-typed fields,
    /// inconsistent shapes, out-of-range indices).
    Schema(String),
    /// A parameter is NaN or infinite. JSON cannot represent non-finite
    /// numbers (they would render as `null` and fail `finite_of` on
    /// load), so saving such a model would silently produce an artifact
    /// that can never be loaded; the save is refused instead.
    NonFinite {
        /// JSON path of the offending value within the payload.
        path: String,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io { path, message } => {
                write!(f, "model artifact '{path}': {message}")
            }
            ArtifactError::Parse(e) => {
                write!(f, "model artifact is not valid JSON (truncated?): {e}")
            }
            ArtifactError::BadMagic { found } => write!(
                f,
                "not a hamlet model artifact: magic is '{found}', expected '{MAGIC}'"
            ),
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact schema_version {found} is not supported \
                 (this build reads {MIN_SCHEMA_VERSION}..={supported})"
            ),
            ArtifactError::ChecksumMismatch { expected, actual } => write!(
                f,
                "artifact checksum mismatch: envelope records {expected}, \
                 payload hashes to {actual} — the file is corrupt or was edited"
            ),
            ArtifactError::Schema(e) => write!(f, "malformed artifact payload: {e}"),
            ArtifactError::NonFinite { path } => write!(
                f,
                "model parameter {path} is not finite (NaN or infinity); \
                 the artifact would be unloadable, refusing to save it"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Cold-start routing for one foreign-key feature: the `Others` bucket
/// recorded when the training star was widened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkColdStart {
    /// The attribute table this FK references.
    pub table: String,
    /// FK domain size *before* widening; codes `>= original_domain` are
    /// unseen entities.
    pub original_domain: usize,
    /// The trained code unseen FK values map to (`== original_domain`).
    pub others_code: u32,
}

/// One feature of the trained model's input schema, in [`CodeSource`]
/// position order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSchema {
    /// Column name.
    pub name: String,
    /// Trained domain size (includes the `Others` code for FKs).
    pub domain_size: usize,
    /// Category labels for labelled domains (the encoder vocabulary);
    /// `None` for integer-coded domains.
    pub labels: Option<Vec<String>>,
    /// Present iff this feature is a foreign key.
    pub fk: Option<FkColdStart>,
}

/// The advisor's verdict for one candidate join, as shipped with the
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinDecision {
    /// Attribute-table name.
    pub table: String,
    /// Foreign key in the entity table.
    pub fk: String,
    /// How the join executed at training time.
    pub strategy: ExecStrategy,
    /// Tuple-ratio evidence (`n_train / n_R`).
    pub tuple_ratio: f64,
    /// ROR-rule statistic, when the rule produced one.
    pub ror: Option<f64>,
    /// Whether the join was avoided (the FK represents `X_R`).
    pub avoid: bool,
    /// The foreign features this table would have contributed. For an
    /// avoided join these are exactly the columns a prediction request
    /// must *not* carry.
    pub foreign_features: Vec<String>,
    /// Whether the table was unavailable at train time and replaced by
    /// its FK-only surrogate (degraded-mode training). Rendered in the
    /// payload only when `true`, so artifacts from non-degraded builds
    /// are byte-identical to the pre-degraded format.
    pub degraded: bool,
}

/// The fitted model, one of the five servable families.
#[derive(Debug, Clone, PartialEq)]
pub enum ServableModel {
    /// Naive Bayes (Sec 2.1).
    NaiveBayes(NaiveBayesModel),
    /// Multinomial logistic regression (Sec 2.2).
    LogisticRegression(LogisticRegressionModel),
    /// Tree-augmented Naive Bayes (appendix E).
    Tan(TanModel),
    /// CART decision tree (schema v2).
    Tree(CartModel),
    /// Gradient-boosted trees (schema v2).
    Gbt(GbtModel),
}

impl ServableModel {
    /// Family tag used in the artifact (`naive_bayes`,
    /// `logistic_regression`, `tan`, `tree`, `gbt`).
    pub fn family(&self) -> &'static str {
        match self {
            ServableModel::NaiveBayes(_) => "naive_bayes",
            ServableModel::LogisticRegression(_) => "logistic_regression",
            ServableModel::Tan(_) => "tan",
            ServableModel::Tree(_) => "tree",
            ServableModel::Gbt(_) => "gbt",
        }
    }

    /// Number of classes the model separates.
    pub fn n_classes(&self) -> usize {
        match self {
            ServableModel::NaiveBayes(m) => m.n_classes(),
            ServableModel::LogisticRegression(m) => m.n_classes(),
            ServableModel::Tan(m) => m.n_classes(),
            ServableModel::Tree(m) => m.n_classes(),
            ServableModel::Gbt(m) => m.n_classes(),
        }
    }

    /// Scores one row into `scores` (one slot per class) and returns
    /// its class, in one pass over the row: the unnormalized
    /// log-posterior for NB/TAN, the pre-softmax decision scores for
    /// logistic regression, a one-hot indicator of the leaf class for
    /// the tree, and `-(F - y)^2` per class for GBT. The class is the
    /// argmax of the scores — strict greater, ties to the lower index —
    /// which is exactly [`Model::predict_row`] for every family (the
    /// tree returns its leaf class, the one-hot's argmax).
    pub fn score_into<S: CodeSource>(&self, data: &S, row: usize, scores: &mut [f64]) -> u32 {
        match self {
            ServableModel::NaiveBayes(m) => m.log_posterior_into(data, row, scores),
            ServableModel::LogisticRegression(m) => m.decision_scores_into(data, row, scores),
            ServableModel::Tan(m) => m.log_posterior_into(data, row, scores),
            ServableModel::Tree(m) => {
                let class = m.predict_row(data, row);
                for (y, s) in scores.iter_mut().enumerate() {
                    *s = if y == class as usize { 1.0 } else { 0.0 };
                }
                return class;
            }
            ServableModel::Gbt(m) => {
                let f_val = m.raw_score(data, row);
                for (y, s) in scores.iter_mut().enumerate() {
                    let d = f_val - y as f64;
                    *s = -(d * d);
                }
            }
        }
        let mut best = 0;
        for y in 1..scores.len() {
            if scores[y] > scores[best] {
                best = y;
            }
        }
        best as u32
    }
}

impl Model for ServableModel {
    fn predict_row<S: CodeSource>(&self, data: &S, row: usize) -> u32 {
        match self {
            ServableModel::NaiveBayes(m) => m.predict_row(data, row),
            ServableModel::LogisticRegression(m) => m.predict_row(data, row),
            ServableModel::Tan(m) => m.predict_row(data, row),
            ServableModel::Tree(m) => m.predict_row(data, row),
            ServableModel::Gbt(m) => m.predict_row(data, row),
        }
    }

    fn features(&self) -> &[usize] {
        match self {
            ServableModel::NaiveBayes(m) => m.features(),
            ServableModel::LogisticRegression(m) => m.features(),
            ServableModel::Tan(m) => m.features(),
            ServableModel::Tree(m) => m.features(),
            ServableModel::Gbt(m) => m.features(),
        }
    }
}

/// A complete, self-describing model artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Provenance tag (dataset name the model was trained on).
    pub dataset: String,
    /// Number of target classes.
    pub n_classes: usize,
    /// Target-class labels for labelled targets.
    pub class_labels: Option<Vec<String>>,
    /// Input schema, in [`CodeSource`] feature-position order.
    pub features: Vec<FeatureSchema>,
    /// The advisor's per-join decisions with evidence.
    pub decisions: Vec<JoinDecision>,
    /// The fitted model.
    pub model: ServableModel,
}

// ---------------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------------

/// `{0}[{1}]`: the path of an array item. Paths are values that format
/// only when an error names them.
struct Item<'a>(&'a dyn Display, usize);

/// `{0}.{1}`: the path of an object member.
struct Member<'a>(&'a dyn Display, &'static str);

impl Display for Item<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.0, self.1)
    }
}

impl Display for Member<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.0, self.1)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A document written front to back into one buffer, byte for byte what
/// a `Json` tree of the same values renders.
struct Writer {
    out: String,
    /// The path of the first non-finite number, which is written as
    /// `null`.
    non_finite: Option<String>,
}

impl Writer {
    /// Opens an object member: a `,` after an earlier member, then the
    /// key. No value ends in `{`, so the buffer tells which comes first.
    fn key(&mut self, key: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        write_str(&mut self.out, key);
        self.out.push(':');
    }

    /// Opens an array item: a `,` after an earlier item.
    fn item(&mut self) {
        if !self.out.ends_with('[') {
            self.out.push(',');
        }
    }

    fn str(&mut self, s: &str) {
        write_str(&mut self.out, s);
    }

    fn count(&mut self, n: usize) {
        write_num(&mut self.out, n as f64);
    }

    /// A parameter; a non-finite one keeps its path.
    fn num(&mut self, x: f64, at: &dyn Display) {
        if !x.is_finite() && self.non_finite.is_none() {
            self.non_finite = Some(at.to_string());
        }
        write_num(&mut self.out, x);
    }

    fn nums(&mut self, xs: &[f64], at: &dyn Display) {
        self.out.push('[');
        for (i, &x) in xs.iter().enumerate() {
            self.item();
            self.num(x, &Item(at, i));
        }
        self.out.push(']');
    }

    fn counts(&mut self, xs: &[usize]) {
        self.out.push('[');
        for &x in xs {
            self.item();
            self.count(x);
        }
        self.out.push(']');
    }

    fn strs(&mut self, xs: &[String]) {
        self.out.push('[');
        for x in xs {
            self.item();
            self.str(x);
        }
        self.out.push(']');
    }

    fn opt_strs(&mut self, xs: Option<&[String]>) {
        match xs {
            Some(xs) => self.strs(xs),
            None => self.out.push_str("null"),
        }
    }

    /// One conditional table per feature (NB and TAN `log_cond`).
    fn tables<'m>(&mut self, tables: impl Iterator<Item = &'m [f64]>, at: &dyn Display) {
        self.out.push('[');
        for (i, t) in tables.enumerate() {
            self.item();
            self.nums(t, &Item(at, i));
        }
        self.out.push(']');
    }

    /// A split node's members (both tree kinds).
    fn split(&mut self, feature: usize, value: u32, left: u32, right: u32) {
        self.key("feature");
        self.count(feature);
        for (key, n) in [("value", value), ("left", left), ("right", right)] {
            self.key(key);
            self.count(n as usize);
        }
    }

    fn payload(&mut self, a: &ModelArtifact) {
        let at: &dyn Display = &"payload";
        self.out.push('{');
        self.key("dataset");
        self.str(&a.dataset);
        self.key("n_classes");
        self.count(a.n_classes);
        self.key("class_labels");
        self.opt_strs(a.class_labels.as_deref());
        self.key("features");
        self.out.push('[');
        for fs in &a.features {
            self.item();
            self.out.push('{');
            self.key("name");
            self.str(&fs.name);
            self.key("domain_size");
            self.count(fs.domain_size);
            self.key("labels");
            self.opt_strs(fs.labels.as_deref());
            self.key("fk");
            match &fs.fk {
                None => self.out.push_str("null"),
                Some(fk) => {
                    self.out.push('{');
                    self.key("table");
                    self.str(&fk.table);
                    self.key("original_domain");
                    self.count(fk.original_domain);
                    self.key("others_code");
                    self.count(fk.others_code as usize);
                    self.out.push('}');
                }
            }
            self.out.push('}');
        }
        self.out.push(']');
        self.key("decisions");
        self.out.push('[');
        let decisions = Member(at, "decisions");
        for (i, d) in a.decisions.iter().enumerate() {
            let at = Item(&decisions, i);
            self.item();
            self.out.push('{');
            self.key("table");
            self.str(&d.table);
            self.key("fk");
            self.str(&d.fk);
            self.key("strategy");
            self.str(d.strategy.name());
            self.key("tuple_ratio");
            self.num(d.tuple_ratio, &Member(&at, "tuple_ratio"));
            self.key("ror");
            match d.ror {
                Some(v) => self.num(v, &Member(&at, "ror")),
                None => self.out.push_str("null"),
            }
            self.key("avoid");
            self.out.push_str(if d.avoid { "true" } else { "false" });
            self.key("foreign_features");
            self.strs(&d.foreign_features);
            if d.degraded {
                self.key("degraded");
                self.out.push_str("true");
            }
            self.out.push('}');
        }
        self.out.push(']');
        self.key("model");
        self.model(&a.model, &Member(at, "model"));
        self.out.push('}');
    }

    fn model(&mut self, model: &ServableModel, at: &dyn Display) {
        self.out.push('{');
        self.key("family");
        self.str(model.family());
        self.key("feats");
        self.counts(model.features());
        match model {
            ServableModel::NaiveBayes(m) => {
                self.key("n_classes");
                self.count(m.n_classes());
                self.key("log_prior");
                self.nums(m.log_prior(), &Member(at, "log_prior"));
                self.key("log_cond");
                let tables = (0..m.features().len()).map(|i| m.log_cond(i));
                self.tables(tables, &Member(at, "log_cond"));
                self.key("domain_sizes");
                self.counts(m.domain_sizes());
            }
            ServableModel::LogisticRegression(m) => {
                self.key("offsets");
                self.counts(m.offsets());
                self.key("n_classes");
                self.count(m.n_classes());
                self.key("dim");
                self.count(m.dim());
                self.key("weights");
                self.nums(m.weights(), &Member(at, "weights"));
                self.key("bias");
                self.nums(m.bias(), &Member(at, "bias"));
            }
            ServableModel::Tan(m) => {
                self.key("n_classes");
                self.count(m.n_classes());
                self.key("log_prior");
                self.nums(m.log_prior(), &Member(at, "log_prior"));
                self.key("parents");
                self.out.push('[');
                for p in m.parents() {
                    self.item();
                    match p {
                        Some(i) => self.count(*i),
                        None => self.out.push_str("null"),
                    }
                }
                self.out.push(']');
                self.key("log_cond");
                let tables = (0..m.features().len()).map(|i| m.log_cond(i));
                self.tables(tables, &Member(at, "log_cond"));
                self.key("domain_sizes");
                self.counts(m.domain_sizes());
            }
            ServableModel::Tree(m) => {
                self.key("n_classes");
                self.count(m.n_classes());
                self.key("root");
                self.count(m.root() as usize);
                self.key("nodes");
                self.out.push('[');
                for n in m.nodes() {
                    self.item();
                    self.out.push('{');
                    match *n {
                        CartNode::Leaf { class } => {
                            self.key("leaf");
                            self.count(class as usize);
                        }
                        CartNode::Split {
                            feature,
                            value,
                            left,
                            right,
                        } => self.split(feature, value, left, right),
                    }
                    self.out.push('}');
                }
                self.out.push(']');
            }
            ServableModel::Gbt(m) => {
                self.key("n_classes");
                self.count(m.n_classes());
                self.key("base");
                self.num(m.base(), &Member(at, "base"));
                self.key("learning_rate");
                self.num(m.learning_rate(), &Member(at, "learning_rate"));
                self.key("trees");
                self.out.push('[');
                let trees = Member(at, "trees");
                for (t, tree) in m.trees().iter().enumerate() {
                    let at = Item(&trees, t);
                    let nodes = Member(&at, "nodes");
                    self.item();
                    self.out.push('{');
                    self.key("root");
                    self.count(tree.root() as usize);
                    self.key("nodes");
                    self.out.push('[');
                    for (i, n) in tree.nodes().iter().enumerate() {
                        self.item();
                        self.out.push('{');
                        match *n {
                            RegNode::Leaf { value } => {
                                self.key("leaf");
                                self.num(value, &Member(&Item(&nodes, i), "leaf"));
                            }
                            RegNode::Split {
                                feature,
                                value,
                                left,
                                right,
                            } => self.split(feature, value, left, right),
                        }
                        self.out.push('}');
                    }
                    self.out.push(']');
                    self.out.push('}');
                }
                self.out.push(']');
            }
        }
        self.out.push('}');
    }
}

/// FNV-1a 64-bit over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The envelope checksum of a payload's bytes.
fn checksum_of(payload: &str) -> String {
    format!("fnv1a64:{:016x}", fnv1a64(payload.as_bytes()))
}

/// The document's length when every parameter is at least 1e-3 in
/// magnitude (a comma, a sign, `0.`, two zeros and 17 significant
/// digits; a tree node in 64 bytes) and strings need no escapes, so the
/// buffer is allocated once rather than doubled past the document.
fn capacity_hint(a: &ModelArtifact) -> usize {
    const PARAM: usize = 23;
    const NODE: usize = 64;
    let strs = |xs: &[String]| xs.iter().map(|s| s.len() + 3).sum::<usize>();
    let labels = |ls: &Option<Vec<String>>| ls.as_deref().map_or(0, strs);
    let model = match &a.model {
        ServableModel::NaiveBayes(m) => {
            let cells: usize = (0..m.features().len()).map(|i| m.log_cond(i).len()).sum();
            PARAM * (m.n_classes() + cells)
        }
        ServableModel::Tan(m) => {
            let cells: usize = (0..m.features().len()).map(|i| m.log_cond(i).len()).sum();
            PARAM * (m.n_classes() + cells)
        }
        ServableModel::LogisticRegression(m) => PARAM * (m.weights().len() + m.bias().len()),
        ServableModel::Tree(m) => NODE * m.nodes().len(),
        ServableModel::Gbt(m) => m.trees().iter().map(|t| NODE * (t.nodes().len() + 1)).sum(),
    };
    let features: usize = a
        .features
        .iter()
        .map(|f| 128 + f.name.len() + labels(&f.labels))
        .sum();
    let decisions: usize = a
        .decisions
        .iter()
        .map(|d| 192 + d.table.len() + d.fk.len() + strs(&d.foreign_features))
        .sum();
    256 + a.dataset.len() + labels(&a.class_labels) + features + decisions + model
}

/// Renders the document into one buffer: the envelope with a zeroed
/// checksum, the payload after it, then the payload's hash written over
/// the zeros. Also returns the path of the first non-finite parameter,
/// which the text holds as `null`.
fn render(a: &ModelArtifact) -> (String, Option<String>) {
    let mut w = Writer {
        out: String::with_capacity(capacity_hint(a)),
        non_finite: None,
    };
    w.out.push('{');
    w.key("magic");
    w.str(MAGIC);
    w.key("schema_version");
    w.count(SCHEMA_VERSION as usize);
    w.key("checksum");
    w.out.push_str("\"fnv1a64:");
    let digits = w.out.len();
    w.out.push_str("0000000000000000\"");
    w.key("payload");
    let start = w.out.len();
    w.payload(a);
    let hash = format!("{:016x}", fnv1a64(&w.out.as_bytes()[start..]));
    w.out.replace_range(digits..digits + hash.len(), &hash);
    w.out.push('}');
    (w.out, w.non_finite)
}

/// Renders an artifact to its canonical JSON document. A non-finite
/// parameter is written as `null` (which [`from_json_str`] refuses);
/// [`save`] refuses such a model instead.
pub fn to_json_string(a: &ModelArtifact) -> String {
    render(a).0
}

/// Writes an artifact atomically (tmp + fsync + rename via
/// `hamlet_obs::atomic_write`), refusing models with non-finite
/// parameters (`NonFinite`, naming the JSON path of the first). The
/// check runs as the document is written, so the payload is rendered
/// once.
pub fn save(a: &ModelArtifact, path: &Path) -> Result<(), ArtifactError> {
    let mut span = hamlet_obs::span!("serve.artifact_save");
    let (text, non_finite) = render(a);
    if let Some(path) = non_finite {
        return Err(ArtifactError::NonFinite { path });
    }
    span.record("bytes", text.len());
    hamlet_obs::atomic_write(path, text.as_bytes()).map_err(|e| ArtifactError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Reads and validates an artifact: the whole file into a `String`,
/// then [`from_json_str`]. A file that is not UTF-8 is a typed `Io`
/// error. Carries the `serve.artifact_load` failpoint so the chaos
/// harness can exercise the degraded path.
pub fn load(path: &Path) -> Result<ModelArtifact, ArtifactError> {
    let mut span = hamlet_obs::span!("serve.artifact_load");
    let io_err = |e: std::io::Error| ArtifactError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    hamlet_chaos::fail_at!(LOAD_FAILPOINT).map_err(io_err)?;
    let text = std::fs::read_to_string(path).map_err(io_err)?;
    span.record("bytes", text.len());
    from_json_str(&text)
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

type R<T> = Result<T, ArtifactError>;

/// A syntax error: the document is not JSON. It outranks every other
/// verdict, so a read goes on to the end of the document and keeps the
/// schema errors it meets as values.
type Syntax<T> = Result<T, String>;

/// An object member as read: `None` until it is met, then its typed
/// value or its schema error, kept until the object's checks ask for
/// it. A repeated member keeps the first value, the one `Json::get`
/// found.
type Slot<T> = Option<R<T>>;

fn schema_err(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Schema(msg.into())
}

/// A member's value, or the error naming its absence from `ctx`.
fn field<T>(slot: Slot<T>, ctx: &dyn Display, key: &str) -> R<T> {
    slot.unwrap_or_else(|| Err(schema_err(format!("{ctx}: missing field '{key}'"))))
}

/// Reads a member's value (at nesting `depth`) into `slot` with `read`,
/// unless an earlier member of the same name filled it; a repeat is
/// checked for syntax only.
fn fill<'a, T>(
    slot: &mut Slot<T>,
    r: &mut Reader<'a>,
    depth: usize,
    read: impl FnOnce(&mut Reader<'a>) -> Syntax<R<T>>,
) -> Syntax<()> {
    if slot.is_some() {
        return r.skip_value(depth);
    }
    *slot = Some(read(r)?);
    Ok(())
}

/// Reads the object at nesting `depth`: `member` gets each key and
/// reads its value (at `depth + 1`). Any other value is read and
/// dropped, so it decodes as an object without members, which is how
/// `Json::get` saw it.
fn object<'a>(
    r: &mut Reader<'a>,
    depth: usize,
    mut member: impl FnMut(&mut Reader<'a>, &str) -> Syntax<()>,
) -> Syntax<()> {
    r.skip_ws();
    if r.peek() != Some(b'{') {
        return r.skip_value(depth);
    }
    let mut key = r.begin_object(depth)?;
    while let Some(k) = key {
        member(r, &k)?;
        key = r.next_member(depth)?;
    }
    Ok(())
}

/// Reads the array at nesting `depth`, each item (at `depth + 1`)
/// through `item` with its index: the items, or the first item's schema
/// error. Any other value is read and refused.
fn list<'a, T>(
    r: &mut Reader<'a>,
    depth: usize,
    ctx: &dyn Display,
    mut item: impl FnMut(&mut Reader<'a>, usize) -> Syntax<R<T>>,
) -> Syntax<R<Vec<T>>> {
    r.skip_ws();
    if r.peek() != Some(b'[') {
        r.skip_value(depth)?;
        return Ok(Err(schema_err(format!("{ctx}: expected an array"))));
    }
    let mut items = Vec::new();
    let mut first_err = None;
    let mut more = !r.begin_array()?;
    let mut i = 0;
    while more {
        match item(r, i)? {
            Ok(v) if first_err.is_none() => items.push(v),
            Ok(_) => {}
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
        i += 1;
        more = r.next_item()?;
    }
    Ok(first_err.map_or(Ok(items), Err))
}

/// The number at nesting `depth`, or `None` for any other value, which
/// is read and dropped.
fn number(r: &mut Reader<'_>, depth: usize) -> Syntax<Option<f64>> {
    r.skip_ws();
    match r.peek() {
        Some(b'-' | b'0'..=b'9') => Reader::parse_number(r.number_text()).map(Some),
        _ => r.skip_value(depth).map(|()| None),
    }
}

/// Whether the value at nesting `depth` is `null`, which is then read;
/// any other value is left to the caller.
fn null(r: &mut Reader<'_>, depth: usize) -> Syntax<bool> {
    r.skip_ws();
    if r.peek() != Some(b'n') {
        return Ok(false);
    }
    r.skip_value(depth).map(|()| true)
}

fn finite(x: Option<f64>, ctx: &dyn Display) -> R<f64> {
    match x {
        Some(n) if n.is_finite() => Ok(n),
        _ => Err(schema_err(format!("{ctx}: expected a finite number"))),
    }
}

fn count(x: Option<f64>, ctx: &dyn Display) -> R<usize> {
    let n = finite(x, ctx)?;
    if n < 0.0 || n.fract() != 0.0 || n > 9.0e15 {
        return Err(schema_err(format!(
            "{ctx}: expected a non-negative integer, got {n}"
        )));
    }
    Ok(n as usize)
}

fn code(x: Option<f64>, ctx: &dyn Display) -> R<u32> {
    let n = count(x, ctx)?;
    u32::try_from(n).map_err(|_| schema_err(format!("{ctx}: {n} does not fit in u32")))
}

/// The boolean at nesting `depth`; `null` reads as `if_null` when that
/// is given, and any other value is refused.
fn boolean(
    r: &mut Reader<'_>,
    depth: usize,
    ctx: &dyn Display,
    if_null: Option<bool>,
) -> Syntax<R<bool>> {
    r.skip_ws();
    let first = r.peek();
    r.skip_value(depth)?;
    // A value that read cleanly and starts with `t`, `f` or `n` is that
    // literal.
    Ok(match (first, if_null) {
        (Some(b't'), _) => Ok(true),
        (Some(b'f'), _) => Ok(false),
        (Some(b'n'), Some(v)) => Ok(v),
        _ => Err(schema_err(format!("{ctx}: expected a boolean"))),
    })
}

fn string(r: &mut Reader<'_>, depth: usize, ctx: &dyn Display) -> Syntax<R<String>> {
    r.skip_ws();
    if r.peek() != Some(b'"') {
        r.skip_value(depth)?;
        return Ok(Err(schema_err(format!("{ctx}: expected a string"))));
    }
    let mut s = String::new();
    r.string_into(&mut s)?;
    Ok(Ok(s))
}

fn strings(r: &mut Reader<'_>, depth: usize, ctx: &dyn Display) -> Syntax<R<Vec<String>>> {
    list(r, depth, ctx, |r, i| string(r, depth + 1, &Item(ctx, i)))
}

/// `null` as `None`, else [`strings`].
fn opt_strings(
    r: &mut Reader<'_>,
    depth: usize,
    ctx: &dyn Display,
) -> Syntax<R<Option<Vec<String>>>> {
    if null(r, depth)? {
        return Ok(Ok(None));
    }
    Ok(strings(r, depth, ctx)?.map(Some))
}

fn finites(r: &mut Reader<'_>, depth: usize, ctx: &dyn Display) -> Syntax<R<Vec<f64>>> {
    list(r, depth, ctx, |r, i| {
        Ok(finite(number(r, depth + 1)?, &Item(ctx, i)))
    })
}

fn counts(r: &mut Reader<'_>, depth: usize, ctx: &dyn Display) -> Syntax<R<Vec<usize>>> {
    list(r, depth, ctx, |r, i| {
        Ok(count(number(r, depth + 1)?, &Item(ctx, i)))
    })
}

/// `a * b` with overflow reported as a schema error (a hostile artifact
/// could otherwise trip a debug overflow panic).
fn mul(a: usize, b: usize, ctx: &dyn Display) -> R<usize> {
    a.checked_mul(b)
        .ok_or_else(|| schema_err(format!("{ctx}: table shape overflows")))
}

/// Parses and fully validates an artifact document. Inverse of
/// [`to_json_string`].
///
/// The document is read once, front to back, straight into the model's
/// storage: no `Json` tree is built. Members may come in any order, with
/// whitespace between the envelope's tokens; each object is checked
/// once it closes, and the payload's cross-checks run once the payload
/// closes. The verdict is the first that applies of: a syntax error
/// anywhere (`Parse`), `BadMagic`, an envelope `Schema` error or
/// `UnsupportedVersion` (in field order: `schema_version`, then
/// `checksum` and `payload`), `ChecksumMismatch`, and the payload's
/// first `Schema` error.
///
/// The checksum is verified over the `payload` value's bytes as they
/// stand in `text` — the bytes [`save`] hashed and wrote — so nothing is
/// re-rendered, and an edit inside the payload is a `ChecksumMismatch`
/// even when it parses to the same value (`1` for `1.0`, a space after
/// a `,`).
pub fn from_json_str(text: &str) -> R<ModelArtifact> {
    let ctx: &dyn Display = &"envelope";
    let mut magic: Slot<Option<String>> = None;
    let mut version = None;
    let mut checksum = None;
    let mut payload = None;
    let mut r = Reader::new(text);
    object(&mut r, 0, |r, key| match key {
        "magic" => fill(&mut magic, r, 1, |r| Ok(Ok(string(r, 1, ctx)?.ok()))),
        "schema_version" => fill(&mut version, r, 1, |r| {
            Ok(count(number(r, 1)?, &Member(ctx, "schema_version")))
        }),
        "checksum" => fill(&mut checksum, r, 1, |r| {
            string(r, 1, &Member(ctx, "checksum"))
        }),
        "payload" => fill(&mut payload, r, 1, |r| {
            r.skip_ws();
            let start = r.offset();
            let decoded = read_payload(r)?;
            Ok(Ok((&text[start..r.offset()], decoded)))
        }),
        _ => r.skip_value(1),
    })
    .and_then(|()| r.finish())
    .map_err(ArtifactError::Parse)?;

    let found = magic.and_then(Result::ok).flatten();
    if found.as_deref() != Some(MAGIC) {
        return Err(ArtifactError::BadMagic {
            found: found.unwrap_or_else(|| "<missing>".into()),
        });
    }
    let version = field(version, ctx, "schema_version")? as u64;
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: SCHEMA_VERSION,
        });
    }
    let expected = field(checksum, ctx, "checksum")?;
    let (payload_text, decoded) = field(payload, ctx, "payload")?;
    let actual = checksum_of(payload_text);
    if expected != actual {
        return Err(ArtifactError::ChecksumMismatch { expected, actual });
    }
    decoded
}

/// The payload's members as read.
#[derive(Default)]
struct PayloadIn {
    dataset: Slot<String>,
    n_classes: Slot<usize>,
    class_labels: Slot<Option<Vec<String>>>,
    features: Slot<Vec<FeatureSchema>>,
    decisions: Slot<Vec<JoinDecision>>,
    model: Slot<ModelIn>,
}

/// Reads the payload (nesting 1) and checks it once it closes.
fn read_payload(r: &mut Reader<'_>) -> Syntax<R<ModelArtifact>> {
    const D: usize = 2;
    let ctx: &dyn Display = &"payload";
    let mut p = PayloadIn::default();
    object(r, 1, |r, key| match key {
        "dataset" => fill(&mut p.dataset, r, D, |r| {
            string(r, D, &Member(ctx, "dataset"))
        }),
        "n_classes" => fill(&mut p.n_classes, r, D, |r| {
            Ok(count(number(r, D)?, &Member(ctx, "n_classes")))
        }),
        "class_labels" => fill(&mut p.class_labels, r, D, |r| {
            opt_strings(r, D, &Member(ctx, "class_labels"))
        }),
        "features" => fill(&mut p.features, r, D, |r| {
            let at = Member(ctx, "features");
            list(r, D, &at, |r, i| read_feature(r, D + 1, &Item(&at, i)))
        }),
        "decisions" => fill(&mut p.decisions, r, D, |r| {
            let at = Member(ctx, "decisions");
            list(r, D, &at, |r, i| read_decision(r, D + 1, &Item(&at, i)))
        }),
        "model" => fill(&mut p.model, r, D, |r| read_model(r, D).map(Ok)),
        _ => r.skip_value(D),
    })?;
    Ok(p.check())
}

impl PayloadIn {
    fn check(self) -> R<ModelArtifact> {
        let ctx: &dyn Display = &"payload";
        let dataset = field(self.dataset, ctx, "dataset")?;
        let n_classes = field(self.n_classes, ctx, "n_classes")?;
        let class_labels = field(self.class_labels, ctx, "class_labels")?;
        if let Some(ls) = &class_labels {
            if ls.len() != n_classes {
                return Err(schema_err(format!(
                    "payload.class_labels: {} labels for {n_classes} classes",
                    ls.len()
                )));
            }
        }
        let features = field(self.features, ctx, "features")?;
        let decisions = field(self.decisions, ctx, "decisions")?;
        let model = field(self.model, ctx, "model")?.check(&features, n_classes)?;
        Ok(ModelArtifact {
            dataset,
            n_classes,
            class_labels,
            features,
            decisions,
            model,
        })
    }
}

/// One feature's members as read.
#[derive(Default)]
struct FeatureIn {
    name: Slot<String>,
    domain_size: Slot<usize>,
    labels: Slot<Option<Vec<String>>>,
    fk: Slot<Option<FkIn>>,
}

/// A feature's `fk` members as read.
#[derive(Default)]
struct FkIn {
    table: Slot<String>,
    original_domain: Slot<usize>,
    others_code: Slot<u32>,
}

fn read_feature(r: &mut Reader<'_>, depth: usize, ctx: &dyn Display) -> Syntax<R<FeatureSchema>> {
    let d = depth + 1;
    let mut f = FeatureIn::default();
    object(r, depth, |r, key| match key {
        "name" => fill(&mut f.name, r, d, |r| string(r, d, &Member(ctx, "name"))),
        "domain_size" => fill(&mut f.domain_size, r, d, |r| {
            Ok(count(number(r, d)?, &Member(ctx, "domain_size")))
        }),
        "labels" => fill(&mut f.labels, r, d, |r| {
            opt_strings(r, d, &Member(ctx, "labels"))
        }),
        "fk" => fill(&mut f.fk, r, d, |r| {
            if null(r, d)? {
                return Ok(Ok(None));
            }
            let fctx = Member(ctx, "fk");
            let mut fk = FkIn::default();
            object(r, d, |r, key| match key {
                "table" => fill(&mut fk.table, r, d + 1, |r| {
                    string(r, d + 1, &Member(&fctx, "table"))
                }),
                "original_domain" => fill(&mut fk.original_domain, r, d + 1, |r| {
                    Ok(count(number(r, d + 1)?, &Member(&fctx, "original_domain")))
                }),
                "others_code" => fill(&mut fk.others_code, r, d + 1, |r| {
                    Ok(code(number(r, d + 1)?, &Member(&fctx, "others_code")))
                }),
                _ => r.skip_value(d + 1),
            })?;
            Ok(Ok(Some(fk)))
        }),
        _ => r.skip_value(d),
    })?;
    Ok(f.check(ctx))
}

impl FeatureIn {
    fn check(self, ctx: &dyn Display) -> R<FeatureSchema> {
        let name = field(self.name, ctx, "name")?;
        let domain_size = field(self.domain_size, ctx, "domain_size")?;
        if domain_size == 0 {
            return Err(schema_err(format!("{ctx}: domain_size must be positive")));
        }
        let labels = field(self.labels, ctx, "labels")?;
        if let Some(ls) = &labels {
            if ls.len() != domain_size {
                return Err(schema_err(format!(
                    "{ctx}: {} labels for domain_size {domain_size}",
                    ls.len()
                )));
            }
        }
        let fk = match field(self.fk, ctx, "fk")? {
            None => None,
            Some(fk) => {
                let fctx = Member(ctx, "fk");
                let table = field(fk.table, &fctx, "table")?;
                let original_domain = field(fk.original_domain, &fctx, "original_domain")?;
                let others_code = field(fk.others_code, &fctx, "others_code")?;
                if others_code as usize >= domain_size || original_domain > domain_size {
                    return Err(schema_err(format!(
                        "{fctx}: cold-start mapping exceeds the trained domain \
                         (others_code {others_code}, original_domain {original_domain}, \
                         domain_size {domain_size})"
                    )));
                }
                Some(FkColdStart {
                    table,
                    original_domain,
                    others_code,
                })
            }
        };
        Ok(FeatureSchema {
            name,
            domain_size,
            labels,
            fk,
        })
    }
}

/// One join decision's members as read.
#[derive(Default)]
struct DecisionIn {
    table: Slot<String>,
    fk: Slot<String>,
    strategy: Slot<String>,
    tuple_ratio: Slot<f64>,
    ror: Slot<Option<f64>>,
    avoid: Slot<bool>,
    foreign_features: Slot<Vec<String>>,
    degraded: Slot<bool>,
}

fn read_decision(r: &mut Reader<'_>, depth: usize, ctx: &dyn Display) -> Syntax<R<JoinDecision>> {
    let d = depth + 1;
    let mut x = DecisionIn::default();
    object(r, depth, |r, key| match key {
        "table" => fill(&mut x.table, r, d, |r| string(r, d, &Member(ctx, "table"))),
        "fk" => fill(&mut x.fk, r, d, |r| string(r, d, &Member(ctx, "fk"))),
        "strategy" => fill(&mut x.strategy, r, d, |r| {
            string(r, d, &Member(ctx, "strategy"))
        }),
        "tuple_ratio" => fill(&mut x.tuple_ratio, r, d, |r| {
            Ok(finite(number(r, d)?, &Member(ctx, "tuple_ratio")))
        }),
        "ror" => fill(&mut x.ror, r, d, |r| {
            if null(r, d)? {
                return Ok(Ok(None));
            }
            Ok(finite(number(r, d)?, &Member(ctx, "ror")).map(Some))
        }),
        "avoid" => fill(&mut x.avoid, r, d, |r| {
            boolean(r, d, &Member(ctx, "avoid"), None)
        }),
        "foreign_features" => fill(&mut x.foreign_features, r, d, |r| {
            strings(r, d, &Member(ctx, "foreign_features"))
        }),
        // Optional: absent in artifacts from non-degraded builds (and
        // in every pre-degraded artifact).
        "degraded" => fill(&mut x.degraded, r, d, |r| {
            boolean(r, d, &Member(ctx, "degraded"), Some(false))
        }),
        _ => r.skip_value(d),
    })?;
    Ok(x.check(ctx))
}

impl DecisionIn {
    fn check(self, ctx: &dyn Display) -> R<JoinDecision> {
        let strategy_name = field(self.strategy, ctx, "strategy")?;
        let strategy = ExecStrategy::from_name(&strategy_name).ok_or_else(|| {
            schema_err(format!(
                "{ctx}.strategy: unknown strategy '{strategy_name}' \
                 (expected materialize|factorize|avoid)"
            ))
        })?;
        let ror = field(self.ror, ctx, "ror")?;
        let avoid = field(self.avoid, ctx, "avoid")?;
        let foreign_features = field(self.foreign_features, ctx, "foreign_features")?;
        let degraded = self.degraded.unwrap_or(Ok(false))?;
        Ok(JoinDecision {
            table: field(self.table, ctx, "table")?,
            fk: field(self.fk, ctx, "fk")?,
            strategy,
            tuple_ratio: field(self.tuple_ratio, ctx, "tuple_ratio")?,
            ror,
            avoid,
            foreign_features,
            degraded,
        })
    }
}

/// The model's members as read. Which of them count depends on
/// `family`, which may come last, so every known member is decoded and
/// the family's own are checked once the payload closes (they are
/// checked against the payload's schema and class count).
#[derive(Default)]
struct ModelIn {
    family: Slot<String>,
    n_classes: Slot<usize>,
    feats: Slot<Vec<usize>>,
    domain_sizes: Slot<Vec<usize>>,
    log_prior: Slot<Vec<f64>>,
    /// Per table: its cells, or its own schema error.
    log_cond: Slot<Vec<R<Vec<f64>>>>,
    /// Per feature: its parent, or its own schema error.
    parents: Slot<Vec<R<Option<usize>>>>,
    offsets: Slot<Vec<usize>>,
    dim: Slot<usize>,
    weights: Slot<Vec<f64>>,
    bias: Slot<Vec<f64>>,
    root: Slot<u32>,
    nodes: Slot<Vec<CartNode>>,
    base: Slot<f64>,
    learning_rate: Slot<f64>,
    trees: Slot<Vec<(Vec<RegNode>, u32)>>,
}

fn read_model(r: &mut Reader<'_>, depth: usize) -> Syntax<ModelIn> {
    let d = depth + 1;
    let ctx: &dyn Display = &"model";
    let mut m = ModelIn::default();
    object(r, depth, |r, key| match key {
        "family" => fill(&mut m.family, r, d, |r| {
            string(r, d, &Member(ctx, "family"))
        }),
        "n_classes" => fill(&mut m.n_classes, r, d, |r| {
            Ok(count(number(r, d)?, &Member(ctx, "n_classes")))
        }),
        "feats" => fill(&mut m.feats, r, d, |r| counts(r, d, &Member(ctx, "feats"))),
        "domain_sizes" => fill(&mut m.domain_sizes, r, d, |r| {
            counts(r, d, &Member(ctx, "domain_sizes"))
        }),
        "log_prior" => fill(&mut m.log_prior, r, d, |r| {
            finites(r, d, &Member(ctx, "log_prior"))
        }),
        "log_cond" => fill(&mut m.log_cond, r, d, |r| {
            let at = Member(ctx, "log_cond");
            list(r, d, &at, |r, i| Ok(Ok(finites(r, d + 1, &Item(&at, i))?)))
        }),
        "parents" => fill(&mut m.parents, r, d, |r| {
            let at = Member(ctx, "parents");
            list(r, d, &at, |r, i| {
                if null(r, d + 1)? {
                    return Ok(Ok(Ok(None)));
                }
                Ok(Ok(count(number(r, d + 1)?, &Item(&at, i)).map(Some)))
            })
        }),
        "offsets" => fill(&mut m.offsets, r, d, |r| {
            counts(r, d, &Member(ctx, "offsets"))
        }),
        "dim" => fill(&mut m.dim, r, d, |r| {
            Ok(count(number(r, d)?, &Member(ctx, "dim")))
        }),
        "weights" => fill(&mut m.weights, r, d, |r| {
            finites(r, d, &Member(ctx, "weights"))
        }),
        "bias" => fill(&mut m.bias, r, d, |r| finites(r, d, &Member(ctx, "bias"))),
        "root" => fill(&mut m.root, r, d, |r| {
            Ok(code(number(r, d)?, &Member(ctx, "root")))
        }),
        "nodes" => fill(&mut m.nodes, r, d, |r| {
            let at = Member(ctx, "nodes");
            list(r, d, &at, |r, i| {
                Ok(read_node(r, d + 1)?.cart(&Item(&at, i)))
            })
        }),
        "base" => fill(&mut m.base, r, d, |r| {
            Ok(finite(number(r, d)?, &Member(ctx, "base")))
        }),
        "learning_rate" => fill(&mut m.learning_rate, r, d, |r| {
            Ok(finite(number(r, d)?, &Member(ctx, "learning_rate")))
        }),
        "trees" => fill(&mut m.trees, r, d, |r| {
            let at = Member(ctx, "trees");
            list(r, d, &at, |r, t| read_reg_tree(r, d + 1, &Item(&at, t)))
        }),
        _ => r.skip_value(d),
    })?;
    Ok(m)
}

/// One regression tree of a GBT model: its nodes and root.
fn read_reg_tree(
    r: &mut Reader<'_>,
    depth: usize,
    ctx: &dyn Display,
) -> Syntax<R<(Vec<RegNode>, u32)>> {
    let d = depth + 1;
    let (mut root, mut nodes) = (None, None);
    object(r, depth, |r, key| match key {
        "root" => fill(&mut root, r, d, |r| {
            Ok(code(number(r, d)?, &Member(ctx, "root")))
        }),
        "nodes" => fill(&mut nodes, r, d, |r| {
            let at = Member(ctx, "nodes");
            list(
                r,
                d,
                &at,
                |r, i| Ok(read_node(r, d + 1)?.reg(&Item(&at, i))),
            )
        }),
        _ => r.skip_value(d),
    })?;
    Ok(field(root, ctx, "root").and_then(|root| Ok((field(nodes, ctx, "nodes")?, root))))
}

/// A tree node's members as read, as plain numbers (`None` for any
/// other value): the leaf's type depends on the tree.
#[derive(Default)]
struct NodeIn {
    leaf: Slot<Option<f64>>,
    feature: Slot<Option<f64>>,
    value: Slot<Option<f64>>,
    left: Slot<Option<f64>>,
    right: Slot<Option<f64>>,
}

fn read_node(r: &mut Reader<'_>, depth: usize) -> Syntax<NodeIn> {
    let d = depth + 1;
    let mut n = NodeIn::default();
    object(r, depth, |r, key| {
        let slot = match key {
            "leaf" => &mut n.leaf,
            "feature" => &mut n.feature,
            "value" => &mut n.value,
            "left" => &mut n.left,
            "right" => &mut n.right,
            _ => return r.skip_value(d),
        };
        fill(slot, r, d, |r| Ok(Ok(number(r, d)?)))
    })?;
    Ok(n)
}

impl NodeIn {
    /// A split's `feature`, `value`, `left` and `right`, checked in
    /// that order.
    fn split(self, ctx: &dyn Display) -> R<(usize, u32, u32, u32)> {
        let feature = count(
            field(self.feature, ctx, "feature")?,
            &Member(ctx, "feature"),
        )?;
        let value = code(field(self.value, ctx, "value")?, &Member(ctx, "value"))?;
        let left = code(field(self.left, ctx, "left")?, &Member(ctx, "left"))?;
        let right = code(field(self.right, ctx, "right")?, &Member(ctx, "right"))?;
        Ok((feature, value, left, right))
    }

    /// A CART node: `{"leaf": class}` or a split.
    fn cart(self, ctx: &dyn Display) -> R<CartNode> {
        if let Some(leaf) = self.leaf {
            let class = code(leaf?, &Member(ctx, "leaf"))?;
            return Ok(CartNode::Leaf { class });
        }
        let (feature, value, left, right) = self.split(ctx)?;
        Ok(CartNode::Split {
            feature,
            value,
            left,
            right,
        })
    }

    /// A regression-tree node: `{"leaf": value}` or a split.
    fn reg(self, ctx: &dyn Display) -> R<RegNode> {
        if let Some(leaf) = self.leaf {
            let value = finite(leaf?, &Member(ctx, "leaf"))?;
            return Ok(RegNode::Leaf { value });
        }
        let (feature, value, left, right) = self.split(ctx)?;
        Ok(RegNode::Split {
            feature,
            value,
            left,
            right,
        })
    }
}

impl ModelIn {
    /// Checks the family's members in the order, and with the
    /// messages, of the tree parser this decoder replaced.
    fn check(self, features: &[FeatureSchema], n_classes: usize) -> R<ServableModel> {
        let ctx: &dyn Display = &"model";
        let family = field(self.family, ctx, "family")?;
        let mc = field(self.n_classes, ctx, "n_classes")?;
        if mc != n_classes || n_classes == 0 {
            return Err(schema_err(format!(
                "model.n_classes {mc} disagrees with artifact n_classes {n_classes}"
            )));
        }
        match family.as_str() {
            "naive_bayes" => {
                let (feats, domain_sizes) = schema_feats(self.feats, self.domain_sizes, features)?;
                let log_prior = log_prior(self.log_prior, n_classes)?;
                let log_cond = log_cond(self.log_cond, feats.len(), |i, ctx| {
                    mul(n_classes, domain_sizes[i], ctx)
                })?;
                Ok(ServableModel::NaiveBayes(NaiveBayesModel::from_parts(
                    feats,
                    n_classes,
                    log_prior,
                    log_cond,
                    domain_sizes,
                )))
            }
            "logistic_regression" => {
                let feats = field(self.feats, ctx, "feats")?;
                let offsets = field(self.offsets, ctx, "offsets")?;
                let dim = field(self.dim, ctx, "dim")?;
                if offsets.len() != feats.len() {
                    return Err(schema_err(format!(
                        "model.offsets: {} entries for {} feats",
                        offsets.len(),
                        feats.len()
                    )));
                }
                for (i, (&f, &off)) in feats.iter().zip(&offsets).enumerate() {
                    let fs = features.get(f).ok_or_else(|| {
                        schema_err(format!(
                            "model.feats[{i}]: feature position {f} is outside the schema"
                        ))
                    })?;
                    let end = off
                        .checked_add(fs.domain_size)
                        .ok_or_else(|| schema_err(format!("model.offsets[{i}]: overflows")))?;
                    if end > dim {
                        return Err(schema_err(format!(
                            "model.offsets[{i}]: block [{off}, {end}) of feature '{}' \
                             exceeds dim {dim}",
                            fs.name
                        )));
                    }
                }
                let weights = field(self.weights, ctx, "weights")?;
                let bias = field(self.bias, ctx, "bias")?;
                if weights.len() != mul(n_classes, dim, &"model.weights")? {
                    return Err(schema_err(format!(
                        "model.weights: {} cells, expected n_classes {n_classes} x dim {dim}",
                        weights.len()
                    )));
                }
                if bias.len() != n_classes {
                    return Err(schema_err(format!(
                        "model.bias: {} entries for {n_classes} classes",
                        bias.len()
                    )));
                }
                Ok(ServableModel::LogisticRegression(
                    LogisticRegressionModel::from_parts(
                        feats, offsets, n_classes, dim, weights, bias,
                    ),
                ))
            }
            "tan" => {
                let (feats, domain_sizes) = schema_feats(self.feats, self.domain_sizes, features)?;
                let log_prior = log_prior(self.log_prior, n_classes)?;
                let parents = field(self.parents, ctx, "parents")?;
                if parents.len() != feats.len() {
                    return Err(schema_err(format!(
                        "model.parents: {} entries for {} feats",
                        parents.len(),
                        feats.len()
                    )));
                }
                let parents = parents
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| match p? {
                        Some(idx) if idx >= feats.len() => Err(schema_err(format!(
                            "model.parents[{i}]: parent {idx} is outside the \
                             {}-feature model",
                            feats.len()
                        ))),
                        p => Ok(p),
                    })
                    .collect::<R<Vec<Option<usize>>>>()?;
                let log_cond = log_cond(self.log_cond, feats.len(), |i, ctx| match parents[i] {
                    None => mul(n_classes, domain_sizes[i], ctx),
                    Some(p) => mul(mul(n_classes, domain_sizes[p], ctx)?, domain_sizes[i], ctx),
                })?;
                Ok(ServableModel::Tan(TanModel::from_parts(
                    feats,
                    n_classes,
                    log_prior,
                    parents,
                    log_cond,
                    domain_sizes,
                )))
            }
            "tree" => {
                let feats = field(self.feats, ctx, "feats")?;
                check_model_feats(&feats, features)?;
                let root = field(self.root, ctx, "root")?;
                let nodes = field(self.nodes, ctx, "nodes")?;
                CartModel::from_parts(feats, n_classes, features.len(), nodes, root)
                    .map(ServableModel::Tree)
                    .map_err(|e| schema_err(format!("model: {e}")))
            }
            "gbt" => {
                let feats = field(self.feats, ctx, "feats")?;
                check_model_feats(&feats, features)?;
                let base = field(self.base, ctx, "base")?;
                let learning_rate = field(self.learning_rate, ctx, "learning_rate")?;
                let trees = field(self.trees, ctx, "trees")?;
                GbtModel::from_parts(feats, n_classes, features.len(), base, learning_rate, trees)
                    .map(ServableModel::Gbt)
                    .map_err(|e| schema_err(format!("model: {e}")))
            }
            other => Err(schema_err(format!(
                "model.family: unknown family '{other}' \
                 (expected naive_bayes|logistic_regression|tan|tree|gbt)"
            ))),
        }
    }
}

/// `feats` and `domain_sizes`, cross-checked against the feature
/// schema.
fn schema_feats(
    feats: Slot<Vec<usize>>,
    domain_sizes: Slot<Vec<usize>>,
    features: &[FeatureSchema],
) -> R<(Vec<usize>, Vec<usize>)> {
    let ctx: &dyn Display = &"model";
    let feats = field(feats, ctx, "feats")?;
    let domain_sizes = field(domain_sizes, ctx, "domain_sizes")?;
    if domain_sizes.len() != feats.len() {
        return Err(schema_err(format!(
            "model: {} domain_sizes for {} feats",
            domain_sizes.len(),
            feats.len()
        )));
    }
    for (i, &f) in feats.iter().enumerate() {
        let fs = features.get(f).ok_or_else(|| {
            schema_err(format!(
                "model.feats[{i}]: feature position {f} is outside the schema \
                 ({} features)",
                features.len()
            ))
        })?;
        if domain_sizes[i] != fs.domain_size {
            return Err(schema_err(format!(
                "model.domain_sizes[{i}]: {} disagrees with schema domain {} \
                 of feature '{}'",
                domain_sizes[i], fs.domain_size, fs.name
            )));
        }
    }
    Ok((feats, domain_sizes))
}

/// Bounds-checks a tree model's `feats` against the feature schema
/// (tree arenas have no `domain_sizes` vector to cross-check).
fn check_model_feats(feats: &[usize], features: &[FeatureSchema]) -> R<()> {
    for (i, &f) in feats.iter().enumerate() {
        if f >= features.len() {
            return Err(schema_err(format!(
                "model.feats[{i}]: feature position {f} is outside the schema \
                 ({} features)",
                features.len()
            )));
        }
    }
    Ok(())
}

fn log_prior(slot: Slot<Vec<f64>>, n_classes: usize) -> R<Vec<f64>> {
    let log_prior = field(slot, &"model", "log_prior")?;
    if log_prior.len() != n_classes {
        return Err(schema_err(format!(
            "model.log_prior: {} entries for {n_classes} classes",
            log_prior.len()
        )));
    }
    Ok(log_prior)
}

/// `log_cond`: one table per feature, of the size `cells` gives it.
fn log_cond(
    slot: Slot<Vec<R<Vec<f64>>>>,
    n_feats: usize,
    cells: impl Fn(usize, &dyn Display) -> R<usize>,
) -> R<Vec<Vec<f64>>> {
    let tables = field(slot, &"model", "log_cond")?;
    if tables.len() != n_feats {
        return Err(schema_err(format!(
            "model.log_cond: {} tables for {n_feats} feats",
            tables.len()
        )));
    }
    let at = Member(&"model", "log_cond");
    tables
        .into_iter()
        .enumerate()
        .map(|(i, table)| {
            let ctx = Item(&at, i);
            let table = table?;
            let want = cells(i, &ctx)?;
            if table.len() != want {
                return Err(schema_err(format!(
                    "{ctx}: {} cells, expected {want}",
                    table.len()
                )));
            }
            Ok(table)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_obs::json::Json;

    fn nb_artifact() -> ModelArtifact {
        // A tiny hand-built NB model: 2 features (one FK), 2 classes.
        let model = NaiveBayesModel::from_parts(
            vec![0, 1],
            2,
            vec![(0.5f64).ln(), (0.5f64).ln()],
            vec![
                vec![0.1f64.ln(), 0.9f64.ln(), 0.8f64.ln(), 0.2f64.ln()],
                vec![
                    0.3f64.ln(),
                    0.3f64.ln(),
                    0.4f64.ln(),
                    0.2f64.ln(),
                    0.5f64.ln(),
                    0.3f64.ln(),
                ],
            ],
            vec![2, 3],
        );
        ModelArtifact {
            dataset: "unit".into(),
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
                strategy: ExecStrategy::AvoidJoin,
                tuple_ratio: 31.5,
                ror: Some(1.02),
                avoid: true,
                foreign_features: vec!["country".into()],
                degraded: false,
            }],
            model: ServableModel::NaiveBayes(model),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let a = nb_artifact();
        let text = to_json_string(&a);
        let b = from_json_str(&text).unwrap();
        assert_eq!(a, b);
        // Idempotent: re-rendering the reloaded artifact is byte-identical.
        assert_eq!(text, to_json_string(&b));
    }

    #[test]
    fn tampered_file_on_disk_fails_checksum() {
        let _fp = hamlet_chaos::failpoint::shared();
        let a = nb_artifact();
        let path = std::env::temp_dir().join("hamlet_artifact_tamper_test.json");
        save(&a, &path).unwrap();
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("31.5", "99.9");
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(
            load(&path),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_byte_artifact_is_typed_error() {
        let _fp = hamlet_chaos::failpoint::shared();
        let path = std::env::temp_dir().join("hamlet_artifact_empty_test.json");
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(load(&path), Err(ArtifactError::Parse(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_utf8_artifact_is_a_typed_io_error() {
        let _fp = hamlet_chaos::failpoint::shared();
        let path = std::env::temp_dir().join("hamlet_artifact_utf8_test.json");
        std::fs::write(&path, [0xff, 0xfe, 0x00]).unwrap();
        assert!(matches!(load(&path), Err(ArtifactError::Io { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_typed() {
        let text = to_json_string(&nb_artifact()).replace("hamlet-model", "random-json");
        match from_json_str(&text) {
            Err(ArtifactError::BadMagic { found }) => assert_eq!(found, "random-json"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
        assert!(matches!(
            from_json_str("{\"a\":1}"),
            Err(ArtifactError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_gate_accepts_v1_rejects_newer() {
        // A v1 artifact (written by an older build) still loads: the
        // version lives in the envelope, outside the checksummed payload.
        let v1 =
            to_json_string(&nb_artifact()).replace("\"schema_version\":2", "\"schema_version\":1");
        assert_eq!(from_json_str(&v1).unwrap(), nb_artifact());
        // A version newer than this build is refused with a typed error.
        let v3 =
            to_json_string(&nb_artifact()).replace("\"schema_version\":2", "\"schema_version\":3");
        match from_json_str(&v3) {
            Err(ArtifactError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (3, SCHEMA_VERSION));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        // v0 predates the format entirely.
        let v0 =
            to_json_string(&nb_artifact()).replace("\"schema_version\":2", "\"schema_version\":0");
        assert!(matches!(
            from_json_str(&v0),
            Err(ArtifactError::UnsupportedVersion { found: 0, .. })
        ));
    }

    #[test]
    fn payload_tampering_fails_checksum() {
        let text =
            to_json_string(&nb_artifact()).replace("\"dataset\":\"unit\"", "\"dataset\":\"evil\"");
        assert!(matches!(
            from_json_str(&text),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn whitespace_editing_keeps_checksum_valid() {
        // The checksum hashes the payload's bytes as stored, so
        // whitespace between the envelope's tokens does not invalidate
        // the artifact.
        let text = to_json_string(&nb_artifact()).replace("\"payload\":{", "\"payload\":   {");
        assert!(from_json_str(&text).is_ok());
        let spaced = format!(
            " \n{}\n",
            to_json_string(&nb_artifact())
                .replacen("{", "{ ", 1)
                .replacen(",\"schema_version\":", " ,\t\"schema_version\" : ", 1)
                .replacen(",\"payload\":", ",\r\n\"payload\":", 1)
        );
        assert_eq!(from_json_str(&spaced).unwrap(), nb_artifact());
        let tail = to_json_string(&nb_artifact());
        let tail = format!("{}  }}", &tail[..tail.len() - 1]);
        assert_eq!(from_json_str(&tail).unwrap(), nb_artifact());
    }

    #[test]
    fn equal_valued_edits_inside_the_payload_fail_checksum() {
        // Each edit parses to the same payload value, but the stored
        // bytes are no longer the ones `save` hashed.
        let text = to_json_string(&nb_artifact());
        for (from, to) in [
            ("\"n_classes\":2", "\"n_classes\":2.0"),
            ("\"domain_sizes\":[2,3]", "\"domain_sizes\":[2, 3]"),
            ("\"dataset\":\"unit\"", "\"dataset\" :\"unit\""),
        ] {
            let edited = text.replacen(from, to, 1);
            assert_ne!(edited, text, "{from} not found");
            assert_eq!(
                Json::parse(&edited).unwrap().get("payload"),
                Json::parse(&text).unwrap().get("payload")
            );
            assert!(
                matches!(
                    from_json_str(&edited),
                    Err(ArtifactError::ChecksumMismatch { .. })
                ),
                "{from} -> {to}"
            );
        }
    }

    #[test]
    fn reordered_envelope_keys_still_load() {
        let text = to_json_string(&nb_artifact());
        // Payload first, then the scalars in reverse: the payload's bytes
        // are unchanged, so the recorded checksum still matches.
        let (scalars, payload) = text[1..text.len() - 1].split_once(",\"payload\":").unwrap();
        let mut scalars: Vec<&str> = scalars.split(',').collect();
        scalars.reverse();
        let reordered = format!("{{\"payload\":{payload},{}}}", scalars.join(","));
        assert!(
            reordered.ends_with("\"magic\":\"hamlet-model\"}"),
            "{reordered}"
        );
        assert_eq!(from_json_str(&reordered).unwrap(), nb_artifact());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let text = to_json_string(&nb_artifact());
        for cut in 0..text.len() {
            assert!(
                from_json_str(&text[..cut]).is_err(),
                "prefix of length {cut} unexpectedly parsed"
            );
        }
    }

    #[test]
    fn oversized_shape_is_schema_error_not_panic() {
        // domain_sizes disagreeing with the schema must not reach
        // from_parts' assertions.
        let text = to_json_string(&nb_artifact());
        let tampered = text.replace("\"domain_sizes\":[2,3]", "\"domain_sizes\":[2,4]");
        // Checksum catches it first; bypass by recomputing? No — any
        // tampering should produce *some* typed error, which is the
        // contract under test.
        assert!(from_json_str(&tampered).is_err());
        // Now a consistent-looking but self-contradictory payload built
        // from scratch: model references feature 7 of a 2-feature schema.
        let mut a = nb_artifact();
        a.model = ServableModel::NaiveBayes(NaiveBayesModel::from_parts(
            vec![7],
            2,
            vec![0.0, 0.0],
            vec![vec![0.0; 4]],
            vec![2],
        ));
        let err = from_json_str(&to_json_string(&a)).unwrap_err();
        assert!(matches!(err, ArtifactError::Schema(_)), "{err}");
        assert!(err.to_string().contains("outside the schema"), "{err}");
    }

    #[test]
    fn logreg_and_tan_round_trip() {
        let features = vec![FeatureSchema {
            name: "x".into(),
            domain_size: 3,
            labels: None,
            fk: None,
        }];
        let lr = ServableModel::LogisticRegression(LogisticRegressionModel::from_parts(
            vec![0],
            vec![0],
            2,
            3,
            vec![0.25, -1.5, 3.0e-7, 0.0, 1.0, -2.0],
            vec![0.125, -0.5],
        ));
        let tan = ServableModel::Tan(TanModel::from_parts(
            vec![0],
            2,
            vec![(0.5f64).ln(), (0.5f64).ln()],
            vec![None],
            vec![vec![
                0.2f64.ln(),
                0.3f64.ln(),
                0.5f64.ln(),
                0.4f64.ln(),
                0.3f64.ln(),
                0.3f64.ln(),
            ]],
            vec![3],
        ));
        for model in [lr, tan] {
            let a = ModelArtifact {
                dataset: "unit".into(),
                n_classes: 2,
                class_labels: None,
                features: features.clone(),
                decisions: vec![],
                model,
            };
            let b = from_json_str(&to_json_string(&a)).unwrap();
            assert_eq!(a, b);
        }
    }

    fn tree_artifact() -> ModelArtifact {
        // x == 1 predicts class 1, else class 0.
        let model = CartModel::from_parts(
            vec![0],
            2,
            1,
            vec![
                CartNode::Leaf { class: 1 },
                CartNode::Leaf { class: 0 },
                CartNode::Split {
                    feature: 0,
                    value: 1,
                    left: 0,
                    right: 1,
                },
            ],
            2,
        )
        .unwrap();
        ModelArtifact {
            dataset: "unit".into(),
            n_classes: 2,
            class_labels: None,
            features: vec![FeatureSchema {
                name: "x".into(),
                domain_size: 3,
                labels: None,
                fk: None,
            }],
            decisions: vec![],
            model: ServableModel::Tree(model),
        }
    }

    #[test]
    fn tree_and_gbt_round_trip() {
        let gbt = ServableModel::Gbt(
            GbtModel::from_parts(
                vec![0],
                2,
                1,
                0.5,
                0.3,
                vec![(
                    vec![
                        RegNode::Leaf { value: 0.25 },
                        RegNode::Leaf { value: -0.75 },
                        RegNode::Split {
                            feature: 0,
                            value: 2,
                            left: 0,
                            right: 1,
                        },
                    ],
                    2,
                )],
            )
            .unwrap(),
        );
        let tree = tree_artifact();
        let mut gbt_artifact = tree_artifact();
        gbt_artifact.model = gbt;
        for a in [tree, gbt_artifact] {
            let text = to_json_string(&a);
            let b = from_json_str(&text).unwrap();
            assert_eq!(a, b, "{}", a.model.family());
            assert_eq!(text, to_json_string(&b));
        }
    }

    #[test]
    fn corrupt_tree_arena_is_schema_error_not_panic() {
        // A self-cycling split (left == self) violates the
        // children-precede-parent invariant; from_parts must reject it
        // on load instead of serving an infinite walk.
        let text = to_json_string(&tree_artifact());
        let looped = text.replace("\"left\":0,\"right\":1", "\"left\":2,\"right\":1");
        // Checksum protects against accidental corruption...
        assert!(from_json_str(&looped).is_err());
        // ...and a consistently re-rendered hostile arena is caught by
        // the arena validation itself.
        let mut a = tree_artifact();
        if let ServableModel::Tree(m) = &a.model {
            // Rebuild with an out-of-range feature — from_parts refuses.
            let err = CartModel::from_parts(
                m.features().to_vec(),
                m.n_classes(),
                1,
                vec![
                    CartNode::Leaf { class: 0 },
                    CartNode::Split {
                        feature: 9,
                        value: 0,
                        left: 0,
                        right: 0,
                    },
                ],
                1,
            )
            .unwrap_err();
            assert!(err.to_string().contains("feature"), "{err}");
        }
        a.decisions.clear();
        assert!(from_json_str(&to_json_string(&a)).is_ok());
    }

    #[test]
    fn gbt_scores_argmax_matches_prediction() {
        let m = GbtModel::from_parts(vec![0], 3, 1, 1.4, 1.0, vec![]).unwrap();
        let model = ServableModel::Gbt(m);
        let a = {
            let mut a = tree_artifact();
            a.n_classes = 3;
            a.model = model;
            a
        };
        // A constant F = 1.4 is nearest class 1; the per-class scores'
        // argmax must agree with predict_row.
        use hamlet_ml::Column;
        struct One;
        impl CodeSource for One {
            fn n_examples(&self) -> usize {
                1
            }
            fn n_classes(&self) -> usize {
                3
            }
            fn n_features(&self) -> usize {
                1
            }
            fn feature_domain_size(&self, _f: usize) -> usize {
                3
            }
            fn feature_name(&self, _f: usize) -> &str {
                "x"
            }
            fn column(&self, _f: usize) -> Column<'_> {
                Column::Rows(&[0])
            }
            fn label(&self, _row: usize) -> u32 {
                0
            }
        }
        let mut scores = [0.0; 3];
        let argmax = a.model.score_into(&One, 0, &mut scores);
        assert_eq!(argmax, a.model.predict_row(&One, 0));
        assert_eq!(argmax, 1);
        for (y, &s) in scores.iter().enumerate() {
            let d = 1.4 - y as f64;
            assert_eq!(s, -(d * d));
        }
        // F = 0.5 ties classes 0 and 1: the tie goes to the lower class.
        let tie =
            ServableModel::Gbt(GbtModel::from_parts(vec![0], 3, 1, 0.5, 1.0, vec![]).unwrap());
        assert_eq!(tie.score_into(&One, 0, &mut scores), 0);
        assert_eq!(tie.predict_row(&One, 0), 0);
    }

    #[test]
    fn non_finite_parameters_refuse_to_save() {
        let _fp = hamlet_chaos::failpoint::shared();
        // A NaN log-prior: renders as `null`, which would fail
        // finite_of on load — save must refuse up front.
        let mut a = nb_artifact();
        if let ServableModel::NaiveBayes(m) = &a.model {
            let mut prior = m.log_prior().to_vec();
            prior[1] = f64::NAN;
            a.model = ServableModel::NaiveBayes(NaiveBayesModel::from_parts(
                m.features().to_vec(),
                m.n_classes(),
                prior,
                (0..m.features().len())
                    .map(|i| m.log_cond(i).to_vec())
                    .collect(),
                m.domain_sizes().to_vec(),
            ));
        }
        let dir = std::env::temp_dir().join("hamlet_nonfinite_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        match save(&a, &path) {
            Err(ArtifactError::NonFinite { path }) => {
                assert_eq!(path, "payload.model.log_prior[1]");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(!path.exists(), "refused save must not leave a file");

        // Non-finite decision evidence is caught too.
        let mut b = nb_artifact();
        b.decisions[0].tuple_ratio = f64::INFINITY;
        match save(&b, &path) {
            Err(ArtifactError::NonFinite { path }) => {
                assert_eq!(path, "payload.decisions[0].tuple_ratio");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(!path.exists(), "refused save must not leave a file");

        // A healthy artifact still saves and round-trips through disk.
        let good = nb_artifact();
        save(&good, &path).unwrap();
        assert_eq!(load(&path).unwrap(), good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_error_is_typed() {
        let _fp = hamlet_chaos::failpoint::shared();
        let err = load(Path::new("/nonexistent/artifact.json")).unwrap_err();
        assert!(matches!(err, ArtifactError::Io { .. }), "{err}");
    }

    #[test]
    fn load_failpoint_degrades_typed() {
        let _g = hamlet_chaos::failpoint::serial();
        hamlet_chaos::failpoint::set_failpoints("serve.artifact_load=io").unwrap();
        let err = load(Path::new("/tmp/whatever.json")).unwrap_err();
        hamlet_chaos::failpoint::clear_failpoints();
        assert!(
            err.to_string().contains("injected IO failure"),
            "unexpected error: {err}"
        );
    }
}
