//! Peak-allocation contract for the artifact round trip, measured with
//! the real counting allocator (installed process-wide for this test
//! binary): `save` writes the document into one buffer and `load`
//! decodes it straight into the model, so neither side ever holds a
//! `Json` tree of the payload (about 32 bytes per number, against about
//! 20 bytes of text). `save`'s peak stays below 2.5 times the artifact's
//! length; a tree breaks that bound. `load` holds the text and reserves
//! each `log_cond` table at its cell count from the schema before it, so
//! its peak is the text plus 8 bytes a number: 1.40 times the length
//! here, bound at 1.6. A table grown by doubling instead reads 1.87.
//! The reservations share one budget, so a document whose schema
//! promises more cells than it holds cannot make `load` reserve them.

use std::sync::Mutex;

use hamlet::core::ExecStrategy;
use hamlet::ml::NaiveBayesModel;
use hamlet::obs::CountingAlloc;
use hamlet::serve::artifact::{from_json_str, load, save};
use hamlet::serve::{
    ArtifactError, FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Held for the whole of each test: the peak is process-wide, so a test
/// running beside another would count its allocations too.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> std::sync::MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Peak extra bytes allocated while running `f`, over the live baseline.
fn peak_delta<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOC.reset_peak();
    let before = ALLOC.current();
    let out = f();
    (out, ALLOC.peak().saturating_sub(before))
}

/// A Naive Bayes artifact over a 4-value feature and a foreign key with
/// `n_keys` trained values plus its `Others` code, with log-probabilities
/// of full precision, as training writes them.
fn nb_artifact(n_keys: usize) -> ModelArtifact {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut log_p = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / (1u64 << 53) as f64 * 0.98 + 0.01).ln()
    };
    let fk_domain = n_keys + 1;
    let model = NaiveBayesModel::from_parts(
        vec![0, 1],
        2,
        vec![0.4f64.ln(), 0.6f64.ln()],
        vec![
            (0..2 * 4).map(|_| log_p()).collect(),
            (0..2 * fk_domain).map(|_| log_p()).collect(),
        ],
        vec![4, fk_domain],
    );
    ModelArtifact {
        dataset: "alloc".into(),
        n_classes: 2,
        class_labels: Some(vec!["no".into(), "yes".into()]),
        features: vec![
            FeatureSchema {
                name: "x".into(),
                domain_size: 4,
                labels: None,
                fk: None,
            },
            FeatureSchema {
                name: "user_id".into(),
                domain_size: fk_domain,
                labels: None,
                fk: Some(FkColdStart {
                    table: "users".into(),
                    original_domain: n_keys,
                    others_code: n_keys as u32,
                }),
            },
        ],
        decisions: vec![JoinDecision {
            table: "users".into(),
            fk: "user_id".into(),
            strategy: ExecStrategy::AvoidJoin,
            tuple_ratio: 1.25,
            ror: Some(3.5),
            avoid: true,
            foreign_features: vec!["age".into(), "city".into()],
            degraded: false,
        }],
        model: ServableModel::NaiveBayes(model),
    }
}

#[test]
fn artifact_round_trip_peaks_stay_within_a_small_multiple_of_its_bytes() {
    let _measuring = measuring();
    let artifact = nb_artifact(45_000);
    let dir = std::env::temp_dir().join(format!("hamlet_alloc_artifact_{}", std::process::id()));
    let path = dir.join("nb.model");
    // The directory exists before measuring, so `save` measures the
    // document and the write, not directory creation.
    std::fs::create_dir_all(&dir).unwrap();

    let (saved, save_peak) = peak_delta(|| save(&artifact, &path));
    saved.unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(bytes > 1_000_000, "artifact is only {bytes} bytes");

    let (loaded, load_peak) = peak_delta(|| load(&path));
    let loaded = loaded.unwrap();
    assert_eq!(
        loaded, artifact,
        "load did not reconstruct the saved artifact"
    );
    std::fs::remove_dir_all(&dir).ok();

    let bound = bytes * 5 / 2;
    assert!(
        save_peak < bound,
        "save peaked at {save_peak} bytes over its baseline for a {bytes}-byte artifact \
         (bound {bound})"
    );
    let bound = bytes * 8 / 5;
    assert!(
        load_peak < bound,
        "load peaked at {load_peak} bytes over its baseline for a {bytes}-byte artifact \
         (bound {bound})"
    );
}

/// The FNV-1a 64-bit checksum the envelope records for `payload`.
fn checksum_of(payload: &str) -> String {
    let hash = payload.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("fnv1a64:{hash:016x}")
}

#[test]
fn a_schema_promising_more_cells_than_the_document_holds_reserves_no_more() {
    let _measuring = measuring();
    // Naive Bayes over one feature of domain 10^15, named `n` times,
    // with `n` empty tables: each table's schema shape is 2 x 10^15
    // cells, and the document is a few bytes per table.
    let n = 10_000;
    let domain = 1_000_000_000_000_000_u64;
    let repeat = |item: &str| vec![item; n].join(",");
    let payload = format!(
        "{{\"dataset\":\"hostile\",\"n_classes\":2,\"class_labels\":null,\
         \"features\":[{{\"name\":\"k\",\"domain_size\":{domain},\"labels\":null,\"fk\":null}}],\
         \"decisions\":[],\"model\":{{\"family\":\"naive_bayes\",\"feats\":[{}],\
         \"n_classes\":2,\"log_prior\":[-0.5,-0.9],\"log_cond\":[{}],\"domain_sizes\":[{}]}}}}",
        repeat("0"),
        repeat("[]"),
        repeat(&domain.to_string()),
    );
    let doc = format!(
        "{{\"magic\":\"hamlet-model\",\"schema_version\":2,\"checksum\":\"{}\",\"payload\":{payload}}}",
        checksum_of(&payload)
    );

    let (loaded, peak) = peak_delta(|| from_json_str(&doc));
    let err = loaded.unwrap_err();
    assert!(matches!(err, ArtifactError::Schema(_)), "{err}");
    // Reading the document holds a 24-byte slot per 3-byte empty table,
    // grown by doubling, and an 8-byte position per feat; the shared
    // budget adds at most 4 bytes per byte of text. This measures 8.2
    // times the length; a reservation capped per table instead reads
    // over 3,000 times it at a tenth of the tables.
    let bound = doc.len() * 16;
    assert!(
        peak < bound,
        "load peaked at {peak} bytes for a {}-byte document (bound {bound})",
        doc.len()
    );
}
