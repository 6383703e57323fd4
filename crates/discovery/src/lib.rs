//! # hamlet-discovery
//!
//! Schema discovery for the hamlet workspace: mine foreign keys and
//! multi-table functional dependencies from a directory of raw CSVs —
//! *without materializing any join* — and synthesize the [`Manifest`]
//! the rest of the pipeline (profile, advise, factorized training)
//! already consumes.
//!
//! The paper's decision machinery (TR/ROR, appendix-C decomposition,
//! the advisor) assumes the star schema's FKs and FDs are declared;
//! real users hand over schemaless CSV dumps. This crate closes that
//! gap with the same join-avoidance discipline the factorized learners
//! use: per-column fingerprint sketches propose inclusion dependencies
//! (FK edges with containment scores), and the implied FDs `FK -> X_R`
//! are verified by partition counting over sorted per-table codes, with a
//! dirty-data tolerance (`HAMLET_FD_MAX_VIOLATIONS`) that lets FDs
//! holding on all-but-quarantined rows qualify — every accepted *and*
//! rejected candidate journaled with its evidence.
//!
//! ```
//! use std::collections::BTreeMap;
//! use hamlet_discovery::{discover_corpus, DiscoveryConfig};
//!
//! let mut corpus = BTreeMap::new();
//! corpus.insert(
//!     "orders.csv".to_string(),
//!     "Churn,Qty,EmployerID\nyes,2,e1\nno,1,e2\nno,2,e1\n".to_string(),
//! );
//! corpus.insert(
//!     "employers.csv".to_string(),
//!     "EmployerID,Country\ne1,NZ\ne2,IN\n".to_string(),
//! );
//! let d = discover_corpus(&corpus, &DiscoveryConfig::default())?;
//! assert_eq!(d.report.entity, "orders");
//! assert_eq!(d.report.accepted_fks().count(), 1);
//! // The synthesized manifest loads like a hand-written one.
//! assert!(d.manifest_text.contains("fk EmployerID employers.csv closed"));
//! # Ok::<(), hamlet_discovery::DiscoveryError>(())
//! ```

pub mod error;
pub mod miner;
pub mod report;
pub mod sketch;
pub mod verify;

pub use error::DiscoveryError;
pub use miner::{discover_corpus, discover_dir, Discovery, DiscoveryConfig};
pub use report::{
    DiscoveryReport, EntityFdAnalysis, FdEvidence, FdScope, FkCandidate, KeyCandidate,
    TableSummary, UnplacedTable,
};
pub use sketch::{fnv1a64, ColumnSketch, DEFAULT_SKETCH_SIZE};
pub use verify::{check_fd, FdCheck, FdViolation, MAX_VIOLATION_EXAMPLES};

// Re-exported so downstream callers can name the manifest type without
// depending on hamlet-relational directly.
pub use hamlet_relational::Manifest;

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::path::Path;

    use super::*;
    use hamlet_relational::DirtyPolicy;

    fn corpus(files: &[(&str, &str)]) -> BTreeMap<String, String> {
        files
            .iter()
            .map(|(n, t)| (n.to_string(), t.to_string()))
            .collect()
    }

    fn star_corpus() -> BTreeMap<String, String> {
        corpus(&[
            (
                "customers.csv",
                "Churn,Gender,EmployerID,PlanID\n\
                 yes,F,e1,p1\nno,M,e2,p2\nno,F,e1,p1\nyes,M,e3,p2\nno,F,e2,p1\nyes,M,e3,p2\n",
            ),
            (
                "employers.csv",
                "EmployerID,Country,Size\ne1,NZ,big\ne2,IN,small\ne3,NZ,small\n",
            ),
            ("plans.csv", "PlanID,Tier\np1,free\np2,paid\n"),
        ])
    }

    #[test]
    fn mines_a_two_fk_star() {
        let d = discover_corpus(&star_corpus(), &DiscoveryConfig::default()).unwrap();
        assert_eq!(d.report.entity, "customers");
        assert_eq!(d.report.target, "Churn");
        let accepted: Vec<_> = d.report.accepted_fks().collect();
        assert_eq!(accepted.len(), 2);
        assert!(accepted
            .iter()
            .any(|e| e.fk_column == "EmployerID" && e.key_table == "employers"));
        assert!(accepted
            .iter()
            .any(|e| e.fk_column == "PlanID" && e.key_table == "plans"));
        // Attribute-table FDs key -> feature all verified clean.
        assert!(d
            .report
            .fds
            .iter()
            .filter(|f| f.scope == FdScope::AttributeTable)
            .all(|f| f.accepted && f.violations == 0));
        // The manifest loads into a 2-join star over the same corpus.
        let c = star_corpus();
        let star = d
            .manifest
            .load_with(Path::new(""), |p| {
                c.get(&p.to_string_lossy().into_owned())
                    .cloned()
                    .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
            })
            .unwrap();
        assert_eq!(star.k(), 2);
        assert_eq!(star.n_s(), 6);
        star.materialize_all().unwrap();
    }

    #[test]
    fn evidence_covers_rejections_too() {
        let d = discover_corpus(&star_corpus(), &DiscoveryConfig::default()).unwrap();
        // Gender ⊆ nothing: proposals against both keys exist, rejected.
        assert!(d.report.fks.iter().any(|e| e.fk_column == "Gender"
            && !e.accepted
            && e.reason.contains("below threshold")));
        // Every column was examined as a key candidate.
        assert!(d
            .report
            .keys
            .iter()
            .any(|k| k.column == "Churn" && !k.accepted));
        assert!(d
            .report
            .keys
            .iter()
            .any(|k| k.table == "employers" && k.column == "EmployerID" && k.accepted));
    }

    #[test]
    fn violation_tolerance_journals_dirty_fds() {
        // e1 appears twice in employers with conflicting Country: with
        // tolerance 0 the key (and edge) die; with tolerance 1 the edge
        // survives and the FD carries journaled violation evidence.
        let dirty = corpus(&[
            (
                "customers.csv",
                "Churn,EmployerID\nyes,e1\nno,e2\nno,e1\nyes,e2\n",
            ),
            ("employers.csv", "EmployerID,Country\ne1,NZ\ne2,IN\ne1,AU\n"),
        ]);
        let strict = discover_corpus(&dirty, &DiscoveryConfig::default());
        assert!(
            matches!(strict, Err(DiscoveryError::NoStar { .. })),
            "{strict:?}"
        );

        let tolerant = DiscoveryConfig {
            max_violations: 1,
            ..DiscoveryConfig::default()
        };
        let d = discover_corpus(&dirty, &tolerant).unwrap();
        assert_eq!(d.report.accepted_fks().count(), 1);
        let fd = d
            .report
            .fds
            .iter()
            .find(|f| f.dependent == "Country")
            .unwrap();
        assert!(fd.accepted);
        assert_eq!(fd.violations, 1);
        assert_eq!(fd.examples.len(), 1);
        assert_eq!(fd.examples[0].determinant_label, "e1");
    }

    #[test]
    fn single_table_corpus_falls_back_to_wide_csv_analysis() {
        let wide = corpus(&[(
            "t.csv",
            "y,emp,country\nyes,e1,NZ\nno,e2,IN\nyes,e1,NZ\nno,e3,IN\nyes,e2,IN\nno,e3,IN\n",
        )]);
        let d = discover_corpus(&wide, &DiscoveryConfig::default()).unwrap();
        assert_eq!(d.report.entity, "t");
        assert_eq!(d.report.target, "y");
        assert!(d.report.fks.is_empty());
        // emp -> country inferred and verified clean.
        assert!(d
            .report
            .fds
            .iter()
            .any(|f| f.determinant == "emp" && f.dependent == "country" && f.accepted));
        assert!(d
            .entity_analysis_outcome()
            .contains("decomposes further into 1 attribute table"));
        // Manifest is entity-only and parses.
        assert!(!d.manifest_text.contains("table "));
    }

    impl Discovery {
        fn entity_analysis_outcome(&self) -> &str {
            &self.report.entity_analysis.decompose_outcome
        }
    }

    #[test]
    fn empty_corpus_is_typed() {
        let e = discover_corpus(&BTreeMap::new(), &DiscoveryConfig::default()).unwrap_err();
        assert!(matches!(e, DiscoveryError::EmptyCorpus { .. }));
    }

    #[test]
    fn declared_target_is_validated() {
        let cfg = DiscoveryConfig {
            target: Some("Ghost".to_string()),
            ..DiscoveryConfig::default()
        };
        let e = discover_corpus(&star_corpus(), &cfg).unwrap_err();
        assert!(matches!(e, DiscoveryError::Target { .. }), "{e}");
        let cfg = DiscoveryConfig {
            target: Some("EmployerID".to_string()),
            ..DiscoveryConfig::default()
        };
        let e = discover_corpus(&star_corpus(), &cfg).unwrap_err();
        assert!(e.to_string().contains("foreign-key column"), "{e}");
    }

    #[test]
    fn dirty_rows_follow_the_policy() {
        let mut c = star_corpus();
        c.insert(
            "customers.csv".to_string(),
            "Churn,Gender,EmployerID,PlanID\nyes,F,e1,p1\nno,M\nno,F,e1,p1\nyes,M,e3,p2\n"
                .to_string(),
        );
        // Default (quarantine) mines through the ragged row.
        let d = discover_corpus(&c, &DiscoveryConfig::default()).unwrap();
        let summary = d
            .report
            .tables
            .iter()
            .find(|t| t.table == "customers")
            .unwrap();
        assert_eq!(summary.quarantined, 1);
        assert_eq!(summary.total_rows, 4);
        // Abort surfaces the CSV fault as a typed relational error.
        let strict = DiscoveryConfig {
            on_dirty: DirtyPolicy::Abort,
            ..DiscoveryConfig::default()
        };
        assert!(matches!(
            discover_corpus(&c, &strict),
            Err(DiscoveryError::Relational(_))
        ));
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let base = discover_corpus(&star_corpus(), &DiscoveryConfig::default()).unwrap();
        for threads in [2, 8] {
            let cfg = DiscoveryConfig {
                threads,
                ..DiscoveryConfig::default()
            };
            let d = discover_corpus(&star_corpus(), &cfg).unwrap();
            assert_eq!(d.manifest_text, base.manifest_text);
            assert_eq!(
                d.report.to_json().to_string(),
                base.report.to_json().to_string()
            );
        }
    }

    #[test]
    fn discover_dir_roundtrip() {
        let dir = std::env::temp_dir().join("hamlet_discovery_dir_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in star_corpus() {
            std::fs::write(dir.join(name), text).unwrap();
        }
        let d = discover_dir(&dir, &DiscoveryConfig::default()).unwrap();
        assert_eq!(d.report.entity, "customers");
        // The manifest written next to the corpus loads from disk.
        let star = d.manifest.load(&dir).unwrap();
        assert_eq!(star.k(), 2);
        std::fs::remove_dir_all(&dir).ok();
        let e = discover_dir(&dir, &DiscoveryConfig::default()).unwrap_err();
        assert!(matches!(
            e,
            DiscoveryError::Io { .. } | DiscoveryError::EmptyCorpus { .. }
        ));
    }

    #[test]
    fn stages_emit_spans_and_the_unescape_counter() {
        let mut c = star_corpus();
        c.insert(
            "employers.csv".to_string(),
            "EmployerID,Country,Size\ne1,\"N\"\"Z\",big\ne2,IN,\"small\"\ne3,\"N\"\"Z\",small\n"
                .to_string(),
        );
        let counter = || hamlet_obs::metrics::counter("hamlet_ingest_unescaped_fields_total").get();
        let before = counter();
        hamlet_obs::span::set_tracing(true);
        let d = discover_corpus(&c, &DiscoveryConfig::default()).unwrap();
        hamlet_obs::span::set_tracing(false);
        assert_eq!(d.report.accepted_fks().count(), 2);
        // Two `"N""Z"` cells unescape; the quoted `"small"` stays borrowed.
        // Sibling tests may load quoted fields concurrently, hence `>=`.
        assert!(counter() - before >= 2);
        let spans = hamlet_obs::span::drain_spans();
        for (name, detail) in [
            ("discovery.load", "tables=3"),
            ("discovery.sketch", "columns=9"),
            ("discovery.verify", "fds=5"),
        ] {
            assert!(
                spans.iter().any(|s| s.name == name && s.detail == detail),
                "no {name} span with {detail}"
            );
        }
    }
}
