//! Degraded-mode proptests: the availability layer's contract, from
//! DESIGN.md §11.
//!
//! Three properties over randomized corpora:
//!
//! * a degraded load (attribute table withheld, FK-only surrogate
//!   substituted) trains and scores **bit-for-bit identically** to an
//!   explicit key-only corpus — the surrogate really is the cold-start
//!   `Others` path made literal, not an approximation;
//! * with no fault armed, [`TablePolicy::Require`] and
//!   [`TablePolicy::AllowDegraded`] agree bit-for-bit — tolerance is
//!   free when nothing is broken;
//! * an arbitrarily corrupted attribute table never panics the
//!   degraded load: it substitutes, quarantines, or fails typed.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use hamlet::chaos::corrupt::{corrupt_corpus, ChaosPlan, Corpus, FaultKind, FileProfile};
use hamlet::chaos::failpoint;
use hamlet::core::advisor::AdvisorConfig;
use hamlet::core::ModelFamily;
use hamlet::relational::{
    DirtyPolicy, FkPolicy, LoadPolicy, Manifest, RelationalError, StarLoad, TablePolicy,
};
use hamlet::serve::{build_artifact_with_availability, ModelArtifact, ModelKind, Scorer};

/// The full corpus: an attribute table with one feature.
const FULL_MANIFEST: &str = "\
entity customers.csv
target Churn
feature Color
fk EmployerID employers.csv closed

table employers.csv
key EmployerID
feature Country
";

/// The explicit cold-start corpus: the same attribute table reduced to
/// its key column — on disk what the FK-only surrogate is in memory.
const KEY_ONLY_MANIFEST: &str = "\
entity customers.csv
target Churn
feature Color
fk EmployerID employers.csv closed

table employers.csv
key EmployerID
";

/// Random star instances: employer count, labels, entity feature, FK
/// codes, and per-employer attribute values.
#[allow(clippy::type_complexity)]
fn star_instance() -> impl Strategy<Value = (usize, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>)> {
    (2usize..6).prop_flat_map(|n_r| {
        (60usize..100).prop_flat_map(move |n_s| {
            (
                Just(n_r),
                proptest::collection::vec(0u32..2, n_s),
                proptest::collection::vec(0u32..4, n_s),
                proptest::collection::vec(0..n_r as u32, n_s),
                proptest::collection::vec(0u32..3, n_r),
            )
        })
    })
}

/// Entity CSV. The first two labels are pinned to {0, 1} so both
/// classes exist; the first `n_r` FK codes are pinned to 0..n_r so
/// every employer is observed (the FK domain in first-appearance order
/// is then e0..e{n_r-1}, matching the key-only table's row order).
fn entity_csv(n_r: usize, labels: &[u32], colors: &[u32], fks: &[u32]) -> String {
    let mut out = String::from("Churn,Color,EmployerID\n");
    for i in 0..labels.len() {
        let label = if i < 2 { i as u32 } else { labels[i] };
        let fk = if i < n_r { i as u32 } else { fks[i] };
        out.push_str(&format!("{label},x{},e{fk}\n", colors[i]));
    }
    out
}

fn employers_csv(countries: &[u32]) -> String {
    let mut out = String::from("EmployerID,Country\n");
    for (e, c) in countries.iter().enumerate() {
        out.push_str(&format!("e{e},c{c}\n"));
    }
    out
}

fn key_only_csv(n_r: usize) -> String {
    let mut out = String::from("EmployerID\n");
    for e in 0..n_r {
        out.push_str(&format!("e{e}\n"));
    }
    out
}

/// Writes a corpus into a fresh scratch dir and returns it.
fn write_dir(tag: &str, files: &[(&str, &str)]) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir()
        .join("hamlet_degraded_it")
        .join(format!("{tag}_{}", SEQ.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text) in files {
        std::fs::write(dir.join(name), text).unwrap();
    }
    dir
}

fn load(dir: &Path, on_missing_table: TablePolicy) -> Result<StarLoad, RelationalError> {
    let text = std::fs::read_to_string(dir.join("schema.manifest")).unwrap();
    let manifest = Manifest::parse(&text).unwrap();
    manifest.load_policy(
        dir,
        &LoadPolicy {
            on_dirty: DirtyPolicy::Abort,
            on_dangling_fk: FkPolicy::Abort,
            on_missing_table,
        },
    )
}

/// Fits a Naive Bayes artifact over the load's star.
fn build(load: &StarLoad) -> ModelArtifact {
    let config = AdvisorConfig::for_family(ModelFamily::NaiveBayes);
    let kind = ModelKind::from_name("nb").unwrap();
    build_artifact_with_availability(&load.star, kind, &config, "churn", &load.substitutions)
        .unwrap_or_else(|e| panic!("artifact build failed: {e}"))
        .artifact
}

/// Positional probe rows spanning the schema: an all-zeros row, a
/// cold-start row (unseen FK code), and a stride of in-domain rows.
fn probe_body(artifact: &ModelArtifact) -> String {
    let mut rows: Vec<String> = Vec::new();
    let zeros: Vec<String> = artifact.features.iter().map(|_| "0".to_string()).collect();
    rows.push(format!("[{}]", zeros.join(",")));
    let cold: Vec<String> = artifact
        .features
        .iter()
        .map(|f| {
            if f.fk.is_some() {
                "999999".to_string()
            } else {
                "0".to_string()
            }
        })
        .collect();
    rows.push(format!("[{}]", cold.join(",")));
    for stride in 1..4usize {
        let row: Vec<String> = artifact
            .features
            .iter()
            .enumerate()
            .map(|(j, f)| ((stride * (j + 1)) % f.domain_size).to_string())
            .collect();
        rows.push(format!("[{}]", row.join(",")));
    }
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

/// Scores `body` against `artifact`, returning the canonical rendering.
fn score(artifact: ModelArtifact, body: &str) -> String {
    let scorer = Scorer::new(artifact);
    let (batch, _) = scorer
        .decode_body(body, false)
        .unwrap_or_else(|e| panic!("scoring failed: {e}"));
    scorer.render(&scorer.score(&batch), false)
}

proptest! {
    /// The tentpole equivalence: a model trained over a degraded load
    /// (table withheld at open, FK-only surrogate substituted) predicts
    /// bit-for-bit like a model trained over the explicit key-only
    /// corpus — including on cold-start (unseen FK) rows, which both
    /// route through the trained `Others` bucket.
    #[test]
    fn degraded_load_scores_like_the_explicit_key_only_corpus(
        (n_r, labels, colors, fks, countries) in star_instance()
    ) {
        let _g = failpoint::serial();
        let customers = entity_csv(n_r, &labels, &colors, &fks);
        let dir_a = write_dir("degraded", &[
            ("customers.csv", &customers),
            ("employers.csv", &employers_csv(&countries)),
            ("schema.manifest", FULL_MANIFEST),
        ]);
        let dir_b = write_dir("keyonly", &[
            ("customers.csv", &customers),
            ("employers.csv", &key_only_csv(n_r)),
            ("schema.manifest", KEY_ONLY_MANIFEST),
        ]);

        failpoint::set_failpoints("relational.table_open=io@1").unwrap();
        let degraded = load(&dir_a, TablePolicy::AllowDegraded);
        failpoint::clear_failpoints();
        let degraded = degraded.unwrap_or_else(|e| panic!("degraded load failed: {e}"));
        prop_assert_eq!(degraded.substitutions.len(), 1, "one surrogate substitution");
        prop_assert_eq!(degraded.substitutions[0].n_entities, n_r);

        let explicit = load(&dir_b, TablePolicy::Require)
            .unwrap_or_else(|e| panic!("key-only load failed: {e}"));
        let a = build(&degraded);
        let b = build(&explicit);
        prop_assert!(
            a.decisions.iter().any(|d| d.degraded),
            "the substituted decision must be marked degraded"
        );
        prop_assert_eq!(
            format!("{:?}", a.features), format!("{:?}", b.features),
            "identical feature schemas"
        );
        let body = probe_body(&a);
        prop_assert_eq!(score(a, &body), score(b, &body));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    /// With every table present and no fault armed, the tolerant policy
    /// is invisible: same substitution-free load, same predictions,
    /// bit for bit.
    #[test]
    fn tolerant_policy_is_invisible_without_faults(
        (n_r, labels, colors, fks, countries) in star_instance()
    ) {
        let _g = failpoint::serial();
        let dir = write_dir("parity", &[
            ("customers.csv", &entity_csv(n_r, &labels, &colors, &fks)),
            ("employers.csv", &employers_csv(&countries)),
            ("schema.manifest", FULL_MANIFEST),
        ]);
        let strict = load(&dir, TablePolicy::Require)
            .unwrap_or_else(|e| panic!("strict load failed: {e}"));
        let tolerant = load(&dir, TablePolicy::AllowDegraded)
            .unwrap_or_else(|e| panic!("tolerant load failed: {e}"));
        prop_assert!(tolerant.substitutions.is_empty());
        let a = build(&strict);
        let b = build(&tolerant);
        prop_assert!(b.decisions.iter().all(|d| !d.degraded));
        let body = probe_body(&a);
        prop_assert_eq!(score(a, &body), score(b, &body));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An arbitrarily corrupted attribute table never panics the
    /// degraded load: the outcome is a loaded star (possibly with
    /// quarantined rows), or a typed error. With the open failpoint
    /// armed on top, the corrupt bytes are never even parsed — the
    /// surrogate takes over.
    #[test]
    fn corrupt_attribute_tables_never_panic_the_degraded_load(
        seed in 0u64..120,
        faults in 1usize..6,
        withhold in proptest::bool::ANY,
    ) {
        let _g = failpoint::serial();
        let mut corpus = Corpus::new();
        let mut customers = String::from("Churn,Color,EmployerID\n");
        for i in 0..60 {
            customers.push_str(&format!("{},x{},e{}\n", i % 2, i % 4, i % 5));
        }
        let mut employers = String::from("EmployerID,Country\n");
        for e in 0..5 {
            employers.push_str(&format!("e{e},c{}\n", e % 3));
        }
        corpus.insert("customers.csv".into(), customers);
        corpus.insert("employers.csv".into(), employers);
        let plan = ChaosPlan {
            seed,
            faults_per_file: faults,
            kinds: FaultKind::ALL.to_vec(),
            profiles: Default::default(),
        }
        .with_profile("employers.csv", FileProfile {
            numeric_cols: vec![],
            pk_col: Some(0),
            fk_cols: vec![],
        });
        let (dirty, injected) = corrupt_corpus(&corpus, &plan);
        let dir = write_dir("corrupt", &[
            ("customers.csv", &dirty["customers.csv"]),
            ("employers.csv", &dirty["employers.csv"]),
            ("schema.manifest", FULL_MANIFEST),
        ]);
        if withhold {
            failpoint::set_failpoints("relational.table_open=io@1").unwrap();
        }
        let text = std::fs::read_to_string(dir.join("schema.manifest")).unwrap();
        let manifest = Manifest::parse(&text).unwrap();
        let result = manifest.load_policy(
            &dir,
            &LoadPolicy {
                on_dirty: DirtyPolicy::Quarantine { max_bad_rows: 1000 },
                on_dangling_fk: FkPolicy::DropRow,
                on_missing_table: TablePolicy::AllowDegraded,
            },
        );
        failpoint::clear_failpoints();
        match result {
            Ok(load) => {
                if withhold {
                    prop_assert_eq!(
                        load.substitutions.len(), 1,
                        "withheld table must be substituted; faults: {:?}", injected
                    );
                }
            }
            Err(e) => prop_assert!(
                !e.to_string().is_empty(),
                "typed, renderable error; faults: {:?}", injected
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A deleted attribute table is the canonical degraded case: strict
/// load fails typed naming the file; tolerant load substitutes.
#[test]
fn absent_table_fails_strict_and_substitutes_tolerant() {
    let _g = failpoint::serial();
    let mut customers = String::from("Churn,Color,EmployerID\n");
    for i in 0..60 {
        customers.push_str(&format!("{},x{},e{}\n", i % 2, i % 4, i % 5));
    }
    let dir = write_dir(
        "absent",
        &[
            ("customers.csv", &customers),
            ("schema.manifest", FULL_MANIFEST),
        ],
    );
    let err = load(&dir, TablePolicy::Require).unwrap_err();
    assert!(err.to_string().contains("employers"), "{err}");
    let degraded = load(&dir, TablePolicy::AllowDegraded).unwrap();
    assert_eq!(degraded.substitutions.len(), 1);
    assert!(degraded.substitutions[0].evidence().contains("FK-only"));
    let artifact = build(&degraded);
    assert!(artifact.decisions.iter().any(|d| d.degraded));
    std::fs::remove_dir_all(&dir).ok();
}
