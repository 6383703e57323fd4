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
//! *canonical re-rendering* of the parsed payload, so whitespace
//! added by hand-editing does not invalidate an artifact but any content
//! change does. Every load failure is a typed [`ArtifactError`];
//! corrupt, truncated, or bit-flipped artifacts must never panic (the
//! workspace no-panic contract, enforced by `tests/no_panic_paths.rs`).

use std::path::Path;

use hamlet_core::ExecStrategy;
use hamlet_ml::{CodeSource, LogisticRegressionModel, Model, NaiveBayesModel, TanModel};
use hamlet_obs::json::{obj, Json};
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
// Rendering
// ---------------------------------------------------------------------------

fn f64_arr(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

fn usize_arr(xs: &[usize]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x as f64)).collect())
}

fn str_arr(xs: &[String]) -> Json {
    Json::Arr(xs.iter().map(|x| Json::Str(x.clone())).collect())
}

fn opt_str_arr(xs: &Option<Vec<String>>) -> Json {
    match xs {
        Some(v) => str_arr(v),
        None => Json::Null,
    }
}

/// Renders one CART node. Leaves are `{"leaf": class}`; splits carry
/// their routed feature/value and child arena indices.
fn cart_node_json(n: &CartNode) -> Json {
    match n {
        CartNode::Leaf { class } => obj(vec![("leaf", Json::Num(*class as f64))]),
        CartNode::Split {
            feature,
            value,
            left,
            right,
        } => obj(vec![
            ("feature", Json::Num(*feature as f64)),
            ("value", Json::Num(*value as f64)),
            ("left", Json::Num(*left as f64)),
            ("right", Json::Num(*right as f64)),
        ]),
    }
}

/// Renders one regression-tree node; leaves hold a float value.
fn reg_node_json(n: &RegNode) -> Json {
    match n {
        RegNode::Leaf { value } => obj(vec![("leaf", Json::Num(*value))]),
        RegNode::Split {
            feature,
            value,
            left,
            right,
        } => obj(vec![
            ("feature", Json::Num(*feature as f64)),
            ("value", Json::Num(*value as f64)),
            ("left", Json::Num(*left as f64)),
            ("right", Json::Num(*right as f64)),
        ]),
    }
}

fn model_json(model: &ServableModel) -> Json {
    match model {
        ServableModel::NaiveBayes(m) => obj(vec![
            ("family", Json::Str("naive_bayes".into())),
            ("feats", usize_arr(m.features())),
            ("n_classes", Json::Num(m.n_classes() as f64)),
            ("log_prior", f64_arr(m.log_prior())),
            (
                "log_cond",
                Json::Arr(
                    (0..m.features().len())
                        .map(|i| f64_arr(m.log_cond(i)))
                        .collect(),
                ),
            ),
            ("domain_sizes", usize_arr(m.domain_sizes())),
        ]),
        ServableModel::LogisticRegression(m) => obj(vec![
            ("family", Json::Str("logistic_regression".into())),
            ("feats", usize_arr(m.features())),
            ("offsets", usize_arr(m.offsets())),
            ("n_classes", Json::Num(m.n_classes() as f64)),
            ("dim", Json::Num(m.dim() as f64)),
            ("weights", f64_arr(m.weights())),
            ("bias", f64_arr(m.bias())),
        ]),
        ServableModel::Tan(m) => obj(vec![
            ("family", Json::Str("tan".into())),
            ("feats", usize_arr(m.features())),
            ("n_classes", Json::Num(m.n_classes() as f64)),
            ("log_prior", f64_arr(m.log_prior())),
            (
                "parents",
                Json::Arr(
                    m.parents()
                        .iter()
                        .map(|p| match p {
                            Some(i) => Json::Num(*i as f64),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
            (
                "log_cond",
                Json::Arr(
                    (0..m.features().len())
                        .map(|i| f64_arr(m.log_cond(i)))
                        .collect(),
                ),
            ),
            ("domain_sizes", usize_arr(m.domain_sizes())),
        ]),
        ServableModel::Tree(m) => obj(vec![
            ("family", Json::Str("tree".into())),
            ("feats", usize_arr(m.features())),
            ("n_classes", Json::Num(m.n_classes() as f64)),
            ("root", Json::Num(m.root() as f64)),
            (
                "nodes",
                Json::Arr(m.nodes().iter().map(cart_node_json).collect()),
            ),
        ]),
        ServableModel::Gbt(m) => obj(vec![
            ("family", Json::Str("gbt".into())),
            ("feats", usize_arr(m.features())),
            ("n_classes", Json::Num(m.n_classes() as f64)),
            ("base", Json::Num(m.base())),
            ("learning_rate", Json::Num(m.learning_rate())),
            (
                "trees",
                Json::Arr(
                    m.trees()
                        .iter()
                        .map(|t| {
                            obj(vec![
                                ("root", Json::Num(t.root() as f64)),
                                (
                                    "nodes",
                                    Json::Arr(t.nodes().iter().map(reg_node_json).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn payload_json(a: &ModelArtifact) -> Json {
    obj(vec![
        ("dataset", Json::Str(a.dataset.clone())),
        ("n_classes", Json::Num(a.n_classes as f64)),
        ("class_labels", opt_str_arr(&a.class_labels)),
        (
            "features",
            Json::Arr(
                a.features
                    .iter()
                    .map(|fs| {
                        obj(vec![
                            ("name", Json::Str(fs.name.clone())),
                            ("domain_size", Json::Num(fs.domain_size as f64)),
                            ("labels", opt_str_arr(&fs.labels)),
                            (
                                "fk",
                                match &fs.fk {
                                    None => Json::Null,
                                    Some(fk) => obj(vec![
                                        ("table", Json::Str(fk.table.clone())),
                                        ("original_domain", Json::Num(fk.original_domain as f64)),
                                        ("others_code", Json::Num(fk.others_code as f64)),
                                    ]),
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "decisions",
            Json::Arr(
                a.decisions
                    .iter()
                    .map(|d| {
                        let mut fields = vec![
                            ("table", Json::Str(d.table.clone())),
                            ("fk", Json::Str(d.fk.clone())),
                            ("strategy", Json::Str(d.strategy.name().into())),
                            ("tuple_ratio", Json::Num(d.tuple_ratio)),
                            (
                                "ror",
                                match d.ror {
                                    Some(v) => Json::Num(v),
                                    None => Json::Null,
                                },
                            ),
                            ("avoid", Json::Bool(d.avoid)),
                            ("foreign_features", str_arr(&d.foreign_features)),
                        ];
                        if d.degraded {
                            fields.push(("degraded", Json::Bool(true)));
                        }
                        obj(fields)
                    })
                    .collect(),
            ),
        ),
        ("model", model_json(&a.model)),
    ])
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

/// The envelope checksum of a rendered payload.
fn checksum_of(rendered: &str) -> String {
    format!("fnv1a64:{:016x}", fnv1a64(rendered.as_bytes()))
}

/// Renders an artifact to its canonical JSON document.
pub fn to_json_string(a: &ModelArtifact) -> String {
    render_document(&payload_json(a))
}

/// The envelope around an already-built payload. The payload is
/// rendered once: its bytes are checksummed and then spliced into the
/// envelope, byte-identical to rendering the whole envelope object.
fn render_document(payload: &Json) -> String {
    let body = payload.to_string();
    let checksum = checksum_of(&body);
    let mut out = obj(vec![
        ("magic", Json::Str(MAGIC.into())),
        ("schema_version", Json::Num(SCHEMA_VERSION as f64)),
        ("checksum", Json::Str(checksum)),
    ])
    .to_string();
    out.pop(); // the closing '}'
    out.reserve(body.len() + 12);
    out.push_str(",\"payload\":");
    out.push_str(&body);
    out.push('}');
    out
}

/// Walks a rendered payload and reports the first non-finite number as
/// a typed error with its JSON path. `Json::Num` renders NaN/Infinity
/// as `null`, which `finite_of` rejects on load — so a non-finite
/// parameter (e.g. a diverged logreg weight or a `-inf` log-prob from
/// degenerate smoothing) must be caught at write time, not deploy time.
fn check_finite(payload: &Json) -> Result<(), ArtifactError> {
    match non_finite_path(payload) {
        None => Ok(()),
        Some(rest) => Err(ArtifactError::NonFinite {
            path: format!("payload{rest}"),
        }),
    }
}

/// The path suffix of the first non-finite number under `j`. Built
/// bottom-up on the way out, so an all-finite walk formats nothing.
fn non_finite_path(j: &Json) -> Option<String> {
    match j {
        Json::Num(n) if !n.is_finite() => Some(String::new()),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, v)| non_finite_path(v).map(|p| format!("[{i}]{p}"))),
        Json::Obj(members) => members
            .iter()
            .find_map(|(k, v)| non_finite_path(v).map(|p| format!(".{k}{p}"))),
        _ => None,
    }
}

/// Validates that every numeric parameter in the artifact is finite —
/// the precondition for the artifact being loadable after rendering.
pub fn validate_finite(a: &ModelArtifact) -> Result<(), ArtifactError> {
    check_finite(&payload_json(a))
}

/// Writes an artifact atomically (tmp + fsync + rename via
/// `hamlet_obs::atomic_write`), refusing models with non-finite
/// parameters (see [`validate_finite`]). The payload tree is built once
/// for both the check and the render.
pub fn save(a: &ModelArtifact, path: &Path) -> Result<(), ArtifactError> {
    let payload = payload_json(a);
    check_finite(&payload)?;
    let text = render_document(&payload);
    hamlet_obs::atomic_write(path, text.as_bytes()).map_err(|e| ArtifactError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// Minimal `mmap(2)` wrapper for read-only artifact loading: reload
/// latency on big artifacts is dominated by copying the file into a
/// `String` before a single validation pass, so the fast path checksums
/// and parses directly over the kernel mapping instead. Raw
/// `extern "C"` (no libc crate), matching the CLI's `signal(2)` shim.
#[cfg(unix)]
mod mapped {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// A read-only private mapping of a whole file, unmapped on drop.
    pub struct Mapped {
        ptr: *mut u8,
        len: usize,
    }

    impl Mapped {
        /// Maps the first `len` bytes of `file`. `None` on any failure
        /// (including `len == 0`, which `mmap` rejects) — the caller
        /// falls back to buffered reads.
        pub fn of(file: &File, len: usize) -> Option<Mapped> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            // MAP_FAILED is (void*)-1; treat null defensively too.
            if ptr.is_null() || ptr as isize == -1 {
                return None;
            }
            Some(Mapped { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapped {
        fn drop(&mut self) {
            unsafe { munmap(self.ptr, self.len) };
        }
    }
}

/// The mmap fast path. `Ok(None)` means "mapping unavailable — use the
/// buffered path" (open/stat/map/UTF-8 trouble; the buffered read then
/// reports its own typed error for the real faults). A file that maps
/// cleanly but fails checksum or schema validation is a genuine error,
/// never a fallback trigger — the two paths must agree on verdicts.
#[cfg(unix)]
fn load_mapped(path: &Path) -> Result<Option<ModelArtifact>, ArtifactError> {
    let Ok(file) = std::fs::File::open(path) else {
        return Ok(None);
    };
    let Ok(meta) = file.metadata() else {
        return Ok(None);
    };
    let len = meta.len() as usize;
    let Some(map) = mapped::Mapped::of(&file, len) else {
        return Ok(None);
    };
    let Ok(text) = std::str::from_utf8(map.bytes()) else {
        return Ok(None);
    };
    hamlet_obs::counter_add!("hamlet_artifact_mmap_loads_total", 1);
    from_json_str(text).map(Some)
}

/// Reads and validates an artifact. Carries the `serve.artifact_load`
/// failpoint so the chaos harness can exercise the degraded path.
///
/// On unix the file is `mmap`ed and the checksum verified over the
/// mapped bytes (no heap copy of the envelope); any mapping failure
/// falls back to the buffered read below, bit-for-bit equivalent.
/// `hamlet_artifact_mmap_loads_total` / `_fallbacks_total` count which
/// path served each load.
pub fn load(path: &Path) -> Result<ModelArtifact, ArtifactError> {
    let io_err = |e: std::io::Error| ArtifactError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    hamlet_chaos::fail_at!(LOAD_FAILPOINT).map_err(io_err)?;
    #[cfg(unix)]
    if let Some(a) = load_mapped(path)? {
        return Ok(a);
    }
    hamlet_obs::counter_add!("hamlet_artifact_mmap_fallbacks_total", 1);
    let text = std::fs::read_to_string(path).map_err(io_err)?;
    from_json_str(&text)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

type R<T> = Result<T, ArtifactError>;

fn schema_err(msg: impl Into<String>) -> ArtifactError {
    ArtifactError::Schema(msg.into())
}

fn field<'a>(j: &'a Json, key: &str, ctx: &str) -> R<&'a Json> {
    j.get(key)
        .ok_or_else(|| schema_err(format!("{ctx}: missing field '{key}'")))
}

fn str_of(j: &Json, ctx: &str) -> R<String> {
    j.as_str()
        .map(str::to_string)
        .ok_or_else(|| schema_err(format!("{ctx}: expected a string")))
}

fn finite_of(j: &Json, ctx: &str) -> R<f64> {
    match j.as_f64() {
        Some(n) if n.is_finite() => Ok(n),
        _ => Err(schema_err(format!("{ctx}: expected a finite number"))),
    }
}

fn usize_of(j: &Json, ctx: &str) -> R<usize> {
    let n = finite_of(j, ctx)?;
    if n < 0.0 || n.fract() != 0.0 || n > 9.0e15 {
        return Err(schema_err(format!(
            "{ctx}: expected a non-negative integer, got {n}"
        )));
    }
    Ok(n as usize)
}

fn u32_of(j: &Json, ctx: &str) -> R<u32> {
    let n = usize_of(j, ctx)?;
    u32::try_from(n).map_err(|_| schema_err(format!("{ctx}: {n} does not fit in u32")))
}

fn arr_of<'a>(j: &'a Json, ctx: &str) -> R<&'a [Json]> {
    j.as_arr()
        .ok_or_else(|| schema_err(format!("{ctx}: expected an array")))
}

fn f64s_of(j: &Json, ctx: &str) -> R<Vec<f64>> {
    arr_of(j, ctx)?
        .iter()
        .enumerate()
        .map(|(i, v)| finite_of(v, &format!("{ctx}[{i}]")))
        .collect()
}

fn usizes_of(j: &Json, ctx: &str) -> R<Vec<usize>> {
    arr_of(j, ctx)?
        .iter()
        .enumerate()
        .map(|(i, v)| usize_of(v, &format!("{ctx}[{i}]")))
        .collect()
}

fn opt_strs_of(j: &Json, ctx: &str) -> R<Option<Vec<String>>> {
    match j {
        Json::Null => Ok(None),
        _ => arr_of(j, ctx)?
            .iter()
            .enumerate()
            .map(|(i, v)| str_of(v, &format!("{ctx}[{i}]")))
            .collect::<R<Vec<String>>>()
            .map(Some),
    }
}

/// `a * b` with overflow reported as a schema error (a hostile artifact
/// could otherwise trip a debug overflow panic).
fn mul(a: usize, b: usize, ctx: &str) -> R<usize> {
    a.checked_mul(b)
        .ok_or_else(|| schema_err(format!("{ctx}: table shape overflows")))
}

fn parse_feature(j: &Json, ctx: &str) -> R<FeatureSchema> {
    let name = str_of(field(j, "name", ctx)?, &format!("{ctx}.name"))?;
    let domain_size = usize_of(field(j, "domain_size", ctx)?, &format!("{ctx}.domain_size"))?;
    if domain_size == 0 {
        return Err(schema_err(format!("{ctx}: domain_size must be positive")));
    }
    let labels = opt_strs_of(field(j, "labels", ctx)?, &format!("{ctx}.labels"))?;
    if let Some(ls) = &labels {
        if ls.len() != domain_size {
            return Err(schema_err(format!(
                "{ctx}: {} labels for domain_size {domain_size}",
                ls.len()
            )));
        }
    }
    let fk = match field(j, "fk", ctx)? {
        Json::Null => None,
        fkj => {
            let fctx = format!("{ctx}.fk");
            let table = str_of(field(fkj, "table", &fctx)?, &format!("{fctx}.table"))?;
            let original_domain = usize_of(
                field(fkj, "original_domain", &fctx)?,
                &format!("{fctx}.original_domain"),
            )?;
            let others_code = u32_of(
                field(fkj, "others_code", &fctx)?,
                &format!("{fctx}.others_code"),
            )?;
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

fn parse_decision(j: &Json, ctx: &str) -> R<JoinDecision> {
    let strategy_name = str_of(field(j, "strategy", ctx)?, &format!("{ctx}.strategy"))?;
    let strategy = ExecStrategy::from_name(&strategy_name).ok_or_else(|| {
        schema_err(format!(
            "{ctx}.strategy: unknown strategy '{strategy_name}' \
             (expected materialize|factorize|avoid)"
        ))
    })?;
    let ror = match field(j, "ror", ctx)? {
        Json::Null => None,
        v => Some(finite_of(v, &format!("{ctx}.ror"))?),
    };
    let avoid = match field(j, "avoid", ctx)? {
        Json::Bool(b) => *b,
        _ => return Err(schema_err(format!("{ctx}.avoid: expected a boolean"))),
    };
    let foreign_features = opt_strs_of(
        field(j, "foreign_features", ctx)?,
        &format!("{ctx}.foreign_features"),
    )?
    .ok_or_else(|| schema_err(format!("{ctx}.foreign_features: expected an array")))?;
    // Optional: absent in artifacts from non-degraded builds (and in
    // every pre-degraded artifact).
    let degraded = match j.get("degraded") {
        None | Some(Json::Null) => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err(schema_err(format!("{ctx}.degraded: expected a boolean"))),
    };
    Ok(JoinDecision {
        table: str_of(field(j, "table", ctx)?, &format!("{ctx}.table"))?,
        fk: str_of(field(j, "fk", ctx)?, &format!("{ctx}.fk"))?,
        strategy,
        tuple_ratio: finite_of(field(j, "tuple_ratio", ctx)?, &format!("{ctx}.tuple_ratio"))?,
        ror,
        avoid,
        foreign_features,
        degraded,
    })
}

/// Decodes `feats`/`domain_sizes` and cross-checks them against the
/// feature schema, returning `(feats, domain_sizes)`.
fn parse_feats(j: &Json, features: &[FeatureSchema], ctx: &str) -> R<(Vec<usize>, Vec<usize>)> {
    let feats = usizes_of(field(j, "feats", ctx)?, &format!("{ctx}.feats"))?;
    let domain_sizes = usizes_of(
        field(j, "domain_sizes", ctx)?,
        &format!("{ctx}.domain_sizes"),
    )?;
    if domain_sizes.len() != feats.len() {
        return Err(schema_err(format!(
            "{ctx}: {} domain_sizes for {} feats",
            domain_sizes.len(),
            feats.len()
        )));
    }
    for (i, &f) in feats.iter().enumerate() {
        let fs = features.get(f).ok_or_else(|| {
            schema_err(format!(
                "{ctx}.feats[{i}]: feature position {f} is outside the schema \
                 ({} features)",
                features.len()
            ))
        })?;
        if domain_sizes[i] != fs.domain_size {
            return Err(schema_err(format!(
                "{ctx}.domain_sizes[{i}]: {} disagrees with schema domain {} \
                 of feature '{}'",
                domain_sizes[i], fs.domain_size, fs.name
            )));
        }
    }
    Ok((feats, domain_sizes))
}

fn parse_model(j: &Json, features: &[FeatureSchema], n_classes: usize) -> R<ServableModel> {
    let ctx = "model";
    let family = str_of(field(j, "family", ctx)?, "model.family")?;
    let mc = usize_of(field(j, "n_classes", ctx)?, "model.n_classes")?;
    if mc != n_classes || n_classes == 0 {
        return Err(schema_err(format!(
            "model.n_classes {mc} disagrees with artifact n_classes {n_classes}"
        )));
    }
    match family.as_str() {
        "naive_bayes" => {
            let (feats, domain_sizes) = parse_feats(j, features, ctx)?;
            let log_prior = f64s_of(field(j, "log_prior", ctx)?, "model.log_prior")?;
            if log_prior.len() != n_classes {
                return Err(schema_err(format!(
                    "model.log_prior: {} entries for {n_classes} classes",
                    log_prior.len()
                )));
            }
            let cond = arr_of(field(j, "log_cond", ctx)?, "model.log_cond")?;
            if cond.len() != feats.len() {
                return Err(schema_err(format!(
                    "model.log_cond: {} tables for {} feats",
                    cond.len(),
                    feats.len()
                )));
            }
            let mut log_cond = Vec::with_capacity(cond.len());
            for (i, t) in cond.iter().enumerate() {
                let ctx_i = format!("model.log_cond[{i}]");
                let table = f64s_of(t, &ctx_i)?;
                let want = mul(n_classes, domain_sizes[i], &ctx_i)?;
                if table.len() != want {
                    return Err(schema_err(format!(
                        "{ctx_i}: {} cells, expected {want}",
                        table.len()
                    )));
                }
                log_cond.push(table);
            }
            Ok(ServableModel::NaiveBayes(NaiveBayesModel::from_parts(
                feats,
                n_classes,
                log_prior,
                log_cond,
                domain_sizes,
            )))
        }
        "logistic_regression" => {
            let feats = usizes_of(field(j, "feats", ctx)?, "model.feats")?;
            let offsets = usizes_of(field(j, "offsets", ctx)?, "model.offsets")?;
            let dim = usize_of(field(j, "dim", ctx)?, "model.dim")?;
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
            let weights = f64s_of(field(j, "weights", ctx)?, "model.weights")?;
            let bias = f64s_of(field(j, "bias", ctx)?, "model.bias")?;
            if weights.len() != mul(n_classes, dim, "model.weights")? {
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
                LogisticRegressionModel::from_parts(feats, offsets, n_classes, dim, weights, bias),
            ))
        }
        "tan" => {
            let (feats, domain_sizes) = parse_feats(j, features, ctx)?;
            let log_prior = f64s_of(field(j, "log_prior", ctx)?, "model.log_prior")?;
            if log_prior.len() != n_classes {
                return Err(schema_err(format!(
                    "model.log_prior: {} entries for {n_classes} classes",
                    log_prior.len()
                )));
            }
            let parents_j = arr_of(field(j, "parents", ctx)?, "model.parents")?;
            if parents_j.len() != feats.len() {
                return Err(schema_err(format!(
                    "model.parents: {} entries for {} feats",
                    parents_j.len(),
                    feats.len()
                )));
            }
            let mut parents = Vec::with_capacity(parents_j.len());
            for (i, p) in parents_j.iter().enumerate() {
                match p {
                    Json::Null => parents.push(None),
                    v => {
                        let idx = usize_of(v, &format!("model.parents[{i}]"))?;
                        if idx >= feats.len() {
                            return Err(schema_err(format!(
                                "model.parents[{i}]: parent {idx} is outside the \
                                 {}-feature model",
                                feats.len()
                            )));
                        }
                        parents.push(Some(idx));
                    }
                }
            }
            let cond = arr_of(field(j, "log_cond", ctx)?, "model.log_cond")?;
            if cond.len() != feats.len() {
                return Err(schema_err(format!(
                    "model.log_cond: {} tables for {} feats",
                    cond.len(),
                    feats.len()
                )));
            }
            let mut log_cond = Vec::with_capacity(cond.len());
            for (i, t) in cond.iter().enumerate() {
                let ctx_i = format!("model.log_cond[{i}]");
                let table = f64s_of(t, &ctx_i)?;
                let want = match parents[i] {
                    None => mul(n_classes, domain_sizes[i], &ctx_i)?,
                    Some(p) => mul(
                        mul(n_classes, domain_sizes[p], &ctx_i)?,
                        domain_sizes[i],
                        &ctx_i,
                    )?,
                };
                if table.len() != want {
                    return Err(schema_err(format!(
                        "{ctx_i}: {} cells, expected {want}",
                        table.len()
                    )));
                }
                log_cond.push(table);
            }
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
            let feats = usizes_of(field(j, "feats", ctx)?, "model.feats")?;
            check_model_feats(&feats, features, ctx)?;
            let root = u32_of(field(j, "root", ctx)?, "model.root")?;
            let nodes = arr_of(field(j, "nodes", ctx)?, "model.nodes")?
                .iter()
                .enumerate()
                .map(|(i, n)| parse_cart_node(n, &format!("model.nodes[{i}]")))
                .collect::<R<Vec<CartNode>>>()?;
            CartModel::from_parts(feats, n_classes, features.len(), nodes, root)
                .map(ServableModel::Tree)
                .map_err(|e| schema_err(format!("model: {e}")))
        }
        "gbt" => {
            let feats = usizes_of(field(j, "feats", ctx)?, "model.feats")?;
            check_model_feats(&feats, features, ctx)?;
            let base = finite_of(field(j, "base", ctx)?, "model.base")?;
            let learning_rate = finite_of(field(j, "learning_rate", ctx)?, "model.learning_rate")?;
            let trees = arr_of(field(j, "trees", ctx)?, "model.trees")?
                .iter()
                .enumerate()
                .map(|(ti, t)| {
                    let tctx = format!("model.trees[{ti}]");
                    let root = u32_of(field(t, "root", &tctx)?, &format!("{tctx}.root"))?;
                    let nodes = arr_of(field(t, "nodes", &tctx)?, &format!("{tctx}.nodes"))?
                        .iter()
                        .enumerate()
                        .map(|(i, n)| parse_reg_node(n, &format!("{tctx}.nodes[{i}]")))
                        .collect::<R<Vec<RegNode>>>()?;
                    Ok((nodes, root))
                })
                .collect::<R<Vec<(Vec<RegNode>, u32)>>>()?;
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

/// Bounds-checks a tree model's `feats` against the feature schema
/// (tree arenas have no `domain_sizes` vector to cross-check).
fn check_model_feats(feats: &[usize], features: &[FeatureSchema], ctx: &str) -> R<()> {
    for (i, &f) in feats.iter().enumerate() {
        if f >= features.len() {
            return Err(schema_err(format!(
                "{ctx}.feats[{i}]: feature position {f} is outside the schema \
                 ({} features)",
                features.len()
            )));
        }
    }
    Ok(())
}

fn parse_cart_node(j: &Json, ctx: &str) -> R<CartNode> {
    match j.get("leaf") {
        Some(v) => Ok(CartNode::Leaf {
            class: u32_of(v, &format!("{ctx}.leaf"))?,
        }),
        None => Ok(CartNode::Split {
            feature: usize_of(field(j, "feature", ctx)?, &format!("{ctx}.feature"))?,
            value: u32_of(field(j, "value", ctx)?, &format!("{ctx}.value"))?,
            left: u32_of(field(j, "left", ctx)?, &format!("{ctx}.left"))?,
            right: u32_of(field(j, "right", ctx)?, &format!("{ctx}.right"))?,
        }),
    }
}

fn parse_reg_node(j: &Json, ctx: &str) -> R<RegNode> {
    match j.get("leaf") {
        Some(v) => Ok(RegNode::Leaf {
            value: finite_of(v, &format!("{ctx}.leaf"))?,
        }),
        None => Ok(RegNode::Split {
            feature: usize_of(field(j, "feature", ctx)?, &format!("{ctx}.feature"))?,
            value: u32_of(field(j, "value", ctx)?, &format!("{ctx}.value"))?,
            left: u32_of(field(j, "left", ctx)?, &format!("{ctx}.left"))?,
            right: u32_of(field(j, "right", ctx)?, &format!("{ctx}.right"))?,
        }),
    }
}

fn parse_payload(j: &Json) -> R<ModelArtifact> {
    let ctx = "payload";
    let dataset = str_of(field(j, "dataset", ctx)?, "payload.dataset")?;
    let n_classes = usize_of(field(j, "n_classes", ctx)?, "payload.n_classes")?;
    let class_labels = opt_strs_of(field(j, "class_labels", ctx)?, "payload.class_labels")?;
    if let Some(ls) = &class_labels {
        if ls.len() != n_classes {
            return Err(schema_err(format!(
                "payload.class_labels: {} labels for {n_classes} classes",
                ls.len()
            )));
        }
    }
    let features = arr_of(field(j, "features", ctx)?, "payload.features")?
        .iter()
        .enumerate()
        .map(|(i, f)| parse_feature(f, &format!("payload.features[{i}]")))
        .collect::<R<Vec<FeatureSchema>>>()?;
    let decisions = arr_of(field(j, "decisions", ctx)?, "payload.decisions")?
        .iter()
        .enumerate()
        .map(|(i, d)| parse_decision(d, &format!("payload.decisions[{i}]")))
        .collect::<R<Vec<JoinDecision>>>()?;
    let model = parse_model(field(j, "model", ctx)?, &features, n_classes)?;
    Ok(ModelArtifact {
        dataset,
        n_classes,
        class_labels,
        features,
        decisions,
        model,
    })
}

/// Parses and fully validates an artifact document. Inverse of
/// [`to_json_string`].
pub fn from_json_str(text: &str) -> R<ModelArtifact> {
    let doc = Json::parse(text).map_err(ArtifactError::Parse)?;
    let magic = doc
        .get("magic")
        .and_then(Json::as_str)
        .unwrap_or("<missing>");
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic {
            found: magic.to_string(),
        });
    }
    let version = usize_of(
        field(&doc, "schema_version", "envelope")?,
        "envelope.schema_version",
    )? as u64;
    if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&version) {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: SCHEMA_VERSION,
        });
    }
    let expected = str_of(field(&doc, "checksum", "envelope")?, "envelope.checksum")?;
    let payload = field(&doc, "payload", "envelope")?;
    let actual = checksum_of(&payload.to_string());
    if expected != actual {
        return Err(ArtifactError::ChecksumMismatch { expected, actual });
    }
    parse_payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn mmap_and_buffered_loads_agree() {
        let _fp = hamlet_chaos::failpoint::shared();
        let a = nb_artifact();
        let path = std::env::temp_dir().join("hamlet_artifact_mmap_test.json");
        save(&a, &path).unwrap();
        // `load` takes the mmap fast path on unix; the buffered parse of
        // the same bytes must yield the identical artifact.
        let via_load = load(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(via_load, from_json_str(&text).unwrap());
        assert_eq!(via_load, a);
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mmap_path_verifies_checksum_over_mapped_bytes() {
        let _fp = hamlet_chaos::failpoint::shared();
        let a = nb_artifact();
        let path = std::env::temp_dir().join("hamlet_artifact_mmap_tamper_test.json");
        save(&a, &path).unwrap();
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("31.5", "99.9");
        std::fs::write(&path, tampered).unwrap();
        // The mapping succeeds, so the fault must surface as the same
        // typed checksum error the buffered path raises — not a fallback.
        assert!(matches!(
            load_mapped(&path),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_byte_artifact_is_typed_error() {
        let _fp = hamlet_chaos::failpoint::shared();
        let path = std::env::temp_dir().join("hamlet_artifact_mmap_empty_test.json");
        std::fs::write(&path, b"").unwrap();
        // mmap rejects len 0; the buffered fallback reports the typed
        // parse error instead of panicking.
        assert!(matches!(load(&path), Err(ArtifactError::Parse(_))));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_artifact_falls_back_without_panicking() {
        let _fp = hamlet_chaos::failpoint::shared();
        let path = std::env::temp_dir().join("hamlet_artifact_mmap_utf8_test.json");
        std::fs::write(&path, [0xff, 0xfe, 0x00]).unwrap();
        // Mapped bytes are not UTF-8: the fast path declines, and the
        // buffered read surfaces its own typed IO error.
        assert!(matches!(load_mapped(&path), Ok(None)));
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
        // The checksum hashes the canonical re-render, so pretty-printing
        // whitespace between tokens does not invalidate the artifact.
        let text = to_json_string(&nb_artifact()).replace("\"payload\":{", "\"payload\":   {");
        assert!(from_json_str(&text).is_ok());
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
        match validate_finite(&b) {
            Err(ArtifactError::NonFinite { path }) => {
                assert_eq!(path, "payload.decisions[0].tuple_ratio");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }

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
