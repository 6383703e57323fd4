//! Property-based tests for the schema-discovery subsystem:
//!
//! 1. **Recovery** — decompose-then-discover: exporting any datagen star
//!    as raw CSVs and mining it back recovers exactly the planted FK
//!    edges and FDs, at any seed (zero false negatives, no phantoms).
//! 2. **Chaos** — corpora corrupted with every fault kind (dangling
//!    FKs, duplicate PKs, bad numerics, ragged rows, truncation) yield
//!    `Ok` with tolerance-journaled evidence or a typed
//!    [`DiscoveryError`] — never a panic.
//! 3. **Thread invariance** — the discovery report and manifest are
//!    bit-identical at any worker count (`HAMLET_THREADS` resolves to
//!    `DiscoveryConfig::threads`; the properties pin the field directly
//!    so they can compare 1 vs 8 in-process).
//! 4. **FD check parity** — the sorted-partition [`check_fd`] agrees
//!    with a nested-`HashMap` count oracle on groups, violations and
//!    the evidence rows, ties included.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use hamlet::chaos::{corrupt_corpus, ChaosPlan, FileProfile};
use hamlet::datagen::realistic::DatasetSpec;
use hamlet::discovery::{
    check_fd, discover_corpus, DiscoveryConfig, DiscoveryError, FdScope, MAX_VIOLATION_EXAMPLES,
};
use hamlet::experiments::discovery::corpus_of;
use hamlet::relational::{Domain, TableBuilder};

/// Keep the datagen corpora small: recovery is containment-exact at any
/// scale (FK codes are drawn from the key set), so a cheap corpus
/// exercises the same invariants as the CI-scale scenario.
const SCALE: f64 = 0.01;

/// A small synthetic star corpus driven entirely by the proptest input:
/// `rows` are (churn, employer, plan) draws; every key table lists its
/// full key domain so edge containment is exact by construction.
fn clean_corpus(rows: &[(u8, u8, u8)], n_emp: usize, n_plan: usize) -> BTreeMap<String, String> {
    let mut customers = String::from("Churn,Gender,Spend,EmployerID,PlanID\n");
    for (i, &(c, e, p)) in rows.iter().enumerate() {
        customers.push_str(&format!(
            "{},{},{},e{},p{}\n",
            if (c as usize + i).is_multiple_of(2) {
                "yes"
            } else {
                "no"
            },
            if i % 3 == 0 { "F" } else { "M" },
            (i * 7 + c as usize) % 13,
            e as usize % n_emp,
            p as usize % n_plan,
        ));
    }
    let mut employers = String::from("EmployerID,Country,Size\n");
    for i in 0..n_emp {
        employers.push_str(&format!("e{i},c{},s{}\n", i % 3, i % 2));
    }
    let mut plans = String::from("PlanID,Tier\n");
    for i in 0..n_plan {
        plans.push_str(&format!("p{i},t{}\n", i % 2));
    }
    let mut corpus = BTreeMap::new();
    corpus.insert("customers.csv".to_string(), customers);
    corpus.insert("employers.csv".to_string(), employers);
    corpus.insert("plans.csv".to_string(), plans);
    corpus
}

/// Collapses a discovery run to a comparable fingerprint: the manifest
/// text and full report JSON on success, the rendered error otherwise.
fn fingerprint(
    corpus: &BTreeMap<String, String>,
    cfg: &DiscoveryConfig,
) -> Result<(String, String), String> {
    match discover_corpus(corpus, cfg) {
        Ok(d) => Ok((d.manifest_text, d.report.to_json().to_string())),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    /// Decompose-then-discover: for every built-in dataset spec and any
    /// seed, mining the exported CSVs recovers exactly the planted FK
    /// edges and verifies every planted FD `key -> X_R` clean — and the
    /// run is bit-identical at 1 and 8 worker threads.
    #[test]
    fn datagen_corpora_round_trip(spec_ix in 0..7usize, seed in 0..100_000u64) {
        let specs = DatasetSpec::all();
        let spec = &specs[spec_ix % specs.len()];
        let g = spec.generate(SCALE, seed);
        let corpus = corpus_of(&g.star);
        let cfg = DiscoveryConfig {
            target: Some(spec.target.to_string()),
            ..DiscoveryConfig::default()
        };
        let d = discover_corpus(&corpus, &cfg)
            .map_err(|e| TestCaseError::fail(format!("{}/{seed}: {e}", spec.name)))?;

        // Exactly the planted edges, FK-name keyed (table names lowercase
        // through the CSV round-trip; FK column names do not change).
        let accepted: Vec<_> = d.report.accepted_fks().collect();
        prop_assert_eq!(accepted.len(), g.star.k(), "{}/{}: phantom or missing edge", spec.name, seed);
        for at in g.star.attributes() {
            let table = at.table.name().to_lowercase();
            prop_assert!(
                accepted.iter().any(|e| e.fk_column == at.fk && e.key_table == table),
                "{}/{}: planted edge {} -> {} not recovered",
                spec.name, seed, at.fk, table
            );
            // Every planted FD key -> X_R verified with zero violations.
            for feature in at.feature_names() {
                prop_assert!(
                    d.report.fds.iter().any(|f| {
                        f.scope == FdScope::AttributeTable
                            && f.table == table
                            && f.determinant == at.fk
                            && f.dependent == feature
                            && f.accepted
                            && f.violations == 0
                    }),
                    "{}/{}: planted FD {}.{} -> {} not verified",
                    spec.name, seed, table, at.fk, feature
                );
            }
        }
        // Evidence discipline: every candidate journaled with a reason.
        prop_assert!(d.report.fks.iter().all(|e| !e.reason.is_empty()));

        // Thread invariance on a real corpus: same bytes at 8 workers.
        let wide = DiscoveryConfig { threads: 8, ..cfg };
        let d8 = discover_corpus(&corpus, &wide)
            .map_err(|e| TestCaseError::fail(format!("{}/{seed} @8 threads: {e}", spec.name)))?;
        prop_assert_eq!(&d8.manifest_text, &d.manifest_text);
        prop_assert_eq!(
            d8.report.to_json().to_string(),
            d.report.to_json().to_string()
        );
    }

    /// Chaos: a corpus corrupted with every fault kind — targeted at the
    /// numeric, primary-key, and foreign-key columns — either mines with
    /// tolerance-journaled evidence or fails with a typed error. It
    /// never panics, and accepted FDs never exceed the tolerance.
    #[test]
    fn corrupted_corpora_never_panic(
        rows in proptest::collection::vec((0..2u8, 0..8u8, 0..6u8), 4..40),
        n_emp in 2..6usize,
        n_plan in 2..5usize,
        seed in 0..u64::MAX,
        faults_per_file in 1..4usize,
        tolerance in 0..3u64,
    ) {
        let clean = clean_corpus(&rows, n_emp, n_plan);
        let plan = ChaosPlan::all_kinds(seed, faults_per_file)
            .with_profile("customers.csv", FileProfile {
                numeric_cols: vec![2],
                pk_col: None,
                fk_cols: vec![3, 4],
            })
            .with_profile("employers.csv", FileProfile {
                numeric_cols: vec![],
                pk_col: Some(0),
                fk_cols: vec![],
            })
            .with_profile("plans.csv", FileProfile {
                numeric_cols: vec![],
                pk_col: Some(0),
                fk_cols: vec![],
            });
        let (corrupted, faults) = corrupt_corpus(&clean, &plan);
        let cfg = DiscoveryConfig {
            max_violations: tolerance,
            ..DiscoveryConfig::default()
        };
        match discover_corpus(&corrupted, &cfg) {
            Ok(d) => {
                // Tolerance discipline: accepted FDs stay within the
                // knob, and journaled violations carry examples.
                for fd in &d.report.fds {
                    if fd.accepted {
                        prop_assert!(
                            fd.violations <= tolerance,
                            "FD {}.{} -> {} accepted with {} violations over tolerance {tolerance}",
                            fd.table, fd.determinant, fd.dependent, fd.violations
                        );
                        if fd.violations > 0 {
                            prop_assert!(!fd.examples.is_empty());
                        }
                    }
                }
                // The synthesized manifest re-parses and the report
                // serializes — evidence survives dirty data.
                prop_assert!(!d.manifest_text.is_empty());
                prop_assert!(!d.report.to_json().to_string().is_empty());
            }
            Err(e) => {
                // Typed, renderable, and attributable — the contract for
                // every chaos outcome ({} faults injected).
                let msg = e.to_string();
                prop_assert!(!msg.is_empty(), "unrenderable error after {} faults", faults.len());
                prop_assert!(matches!(
                    e,
                    DiscoveryError::Relational(_)
                        | DiscoveryError::NoStar { .. }
                        | DiscoveryError::Target { .. }
                        | DiscoveryError::EmptyCorpus { .. }
                ), "unexpected error category: {msg}");
            }
        }
    }

    /// Thread invariance on arbitrary synthetic corpora: the full
    /// discovery outcome — success bytes or rendered error — is
    /// identical at 1, 2, and 8 worker threads.
    #[test]
    fn thread_count_never_changes_the_outcome(
        rows in proptest::collection::vec((0..2u8, 0..8u8, 0..6u8), 2..40),
        n_emp in 2..6usize,
        n_plan in 2..5usize,
        tolerance in 0..2u64,
    ) {
        let corpus = clean_corpus(&rows, n_emp, n_plan);
        let base = DiscoveryConfig {
            max_violations: tolerance,
            ..DiscoveryConfig::default()
        };
        let reference = fingerprint(&corpus, &base);
        for threads in [2usize, 8] {
            let cfg = DiscoveryConfig { threads, ..base.clone() };
            prop_assert_eq!(
                &fingerprint(&corpus, &cfg),
                &reference,
                "outcome diverged at {} threads", threads
            );
        }
    }
}

/// One violation as `(row, determinant, expected, found)` labels.
type Example = (usize, String, String, String);

/// The count-map FD check the sorted partition replaced, kept as an
/// oracle: nested `HashMap`s of dependent counts per determinant,
/// majority = highest count, ties to the smaller code. Returns
/// `(groups, violations, examples)`.
fn fd_oracle(det: &[u32], dep: &[u32]) -> (usize, u64, Vec<Example>) {
    let mut counts: HashMap<u32, HashMap<u32, u64>> = HashMap::new();
    for (&d, &v) in det.iter().zip(dep) {
        *counts.entry(d).or_default().entry(v).or_insert(0) += 1;
    }
    let mut majority = HashMap::new();
    let mut violations = 0;
    for (&d, deps) in &counts {
        let (mut best, mut best_n) = (u32::MAX, 0);
        for (&v, &n) in deps {
            if n > best_n || (n == best_n && v < best) {
                (best, best_n) = (v, n);
            }
        }
        violations += deps.values().sum::<u64>() - best_n;
        majority.insert(d, best);
    }
    let examples = det
        .iter()
        .zip(dep)
        .enumerate()
        .filter(|&(_, (d, v))| majority[d] != *v)
        .take(MAX_VIOLATION_EXAMPLES)
        .map(|(row, (d, v))| {
            let want = majority[d];
            (
                row,
                format!("det#{d}"),
                format!("dep#{want}"),
                format!("dep#{v}"),
            )
        })
        .collect();
    (counts.len(), violations, examples)
}

proptest! {
    /// The sorted-partition FD check matches the count-map oracle on
    /// random tables. Small domains make ties and violations common.
    #[test]
    fn sorted_fd_check_matches_the_count_map_oracle(
        rows in proptest::collection::vec((0..6u32, 0..4u32), 1..120),
    ) {
        let (det, dep): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
        let table = TableBuilder::new("T")
            .feature("det", Domain::indexed("det", 6).shared(), det.clone())
            .feature("dep", Domain::indexed("dep", 4).shared(), dep.clone())
            .build()
            .unwrap();
        let c = check_fd(&table, "det", "dep").unwrap();
        let (groups, violations, examples) = fd_oracle(&det, &dep);
        prop_assert_eq!(c.rows, det.len());
        prop_assert_eq!(c.groups, groups);
        prop_assert_eq!(c.violations, violations);
        let got: Vec<Example> = c
            .examples
            .into_iter()
            .map(|e| (e.row, e.determinant_label, e.expected_label, e.found_label))
            .collect();
        prop_assert_eq!(got, examples);
    }
}
