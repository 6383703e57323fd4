//! Peak-allocation contract for the artifact round trip, measured with
//! the real counting allocator (installed process-wide for this test
//! binary): `save` writes the document into one buffer and `load`
//! decodes it straight into the model, so neither side ever holds a
//! `Json` tree of the payload (about 32 bytes per number, against about
//! 20 bytes of text). Each side's peak stays below 2.5 times the
//! artifact's length; a tree on either side breaks that bound.

use hamlet::core::ExecStrategy;
use hamlet::ml::NaiveBayesModel;
use hamlet::obs::CountingAlloc;
use hamlet::serve::artifact::{load, save};
use hamlet::serve::{FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

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
    assert!(
        load_peak < bound,
        "load peaked at {load_peak} bytes over its baseline for a {bytes}-byte artifact \
         (bound {bound})"
    );
}
