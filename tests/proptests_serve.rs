//! Property-based tests for the model serving subsystem: on arbitrary
//! star instances and all five model families, a saved artifact
//! reloads and re-saves byte for byte, serves predictions identical to
//! the in-memory model (including cold-start rows with unseen FK
//! values), every corruption of the document yields a typed error —
//! never a panic — pipelined request framing never bleeds bytes between
//! requests, micro-batched scoring is bit-for-bit identical to direct
//! scoring, the one-pass scorer equals the model's own prediction, and
//! every HTTP answer — predictions, 400/422 refusals and degraded
//! answers — is byte for byte what the Json-tree decoder with double
//! scoring produced (`oracle`).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use hamlet::core::advisor::AdvisorConfig;
use hamlet::ml::classifier::Model;
use hamlet::ml::dataset::Dataset;
use hamlet::relational::{AttributeTable, Domain, StarSchema, TableBuilder};
use hamlet::serve::artifact::{from_json_str, to_json_string};
use hamlet::serve::{
    build_artifact, start_with_registry, ConnReader, MicroBatcher, ModelArtifact, ModelKind,
    Registry, Scorer, ServerConfig,
};

/// Strategy: a random one-attribute-table star, large enough to survive
/// the 50/25/25 split with a usable training set.
fn star_instance() -> impl Strategy<Value = (usize, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>)> {
    (2usize..8).prop_flat_map(|n_r| {
        (
            Just(n_r),
            proptest::collection::vec(0..4u32, n_r), // X_R per RID
            proptest::collection::vec(0..n_r as u32, 40..120), // FK codes
        )
            .prop_flat_map(|(n_r, xr, fks)| {
                let n_s = fks.len();
                (
                    Just(n_r),
                    Just(xr),
                    Just(fks),
                    proptest::collection::vec(0..3u32, n_s), // entity feature
                    proptest::collection::vec(0..2u32, n_s), // labels
                )
            })
    })
}

fn build_star(n_r: usize, xr: Vec<u32>, fks: Vec<u32>, xs: Vec<u32>, ys: Vec<u32>) -> StarSchema {
    build_star_with(false, n_r, xr, fks, xs, ys)
}

/// The star, optionally with a labelled entity feature and labelled
/// keys, so requests can name values by label.
fn build_star_with(
    labelled: bool,
    n_r: usize,
    xr: Vec<u32>,
    fks: Vec<u32>,
    xs: Vec<u32>,
    ys: Vec<u32>,
) -> StarSchema {
    let (rid, xs_domain) = if labelled {
        (
            Domain::labelled("RID", (0..n_r).map(|i| format!("r{i}")).collect()),
            Domain::from_labels("xs", &["lo", "mid", "h\"i"]),
        )
    } else {
        (Domain::indexed("RID", n_r), Domain::indexed("xs", 3))
    };
    let rid = rid.shared();
    let r = TableBuilder::new("R")
        .primary_key("RID", rid.clone(), (0..n_r as u32).collect())
        .feature("xr", Domain::indexed("xr", 4).shared(), xr)
        .build()
        .unwrap();
    let s = TableBuilder::new("S")
        .target("y", Domain::boolean("y").shared(), ys)
        .feature("xs", xs_domain.shared(), xs)
        .foreign_key("fk", "R", rid, fks)
        .build()
        .unwrap();
    StarSchema::new(
        s,
        vec![AttributeTable {
            fk: "fk".into(),
            table: r,
        }],
    )
    .unwrap()
}

const FAMILIES: [ModelKind; 5] = [
    ModelKind::NaiveBayes,
    ModelKind::LogisticRegression,
    ModelKind::Tan,
    ModelKind::Tree,
    ModelKind::Gbt,
];

proptest! {
    /// save-model -> load -> predict is bit-for-bit identical to the
    /// in-memory model for every family, on every entity row.
    #[test]
    fn reloaded_artifact_predicts_bit_for_bit((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        for kind in FAMILIES {
            let built =
                build_artifact(&star, kind, &AdvisorConfig::default(), "prop").unwrap();
            let text = to_json_string(&built.artifact);
            let reloaded = from_json_str(&text).unwrap();
            prop_assert_eq!(&built.artifact, &reloaded, "{} artifact drifted", kind.name());
            prop_assert_eq!(
                to_json_string(&reloaded),
                text,
                "{} artifact did not re-save byte for byte",
                kind.name()
            );

            // The reference: the in-memory model scoring the same view
            // the artifact was built from (all FKs cold-start-revised,
            // avoided joins not materialized).
            let in_memory = Scorer::new(built.artifact);
            let served = Scorer::new(reloaded);

            // Rows drawn from the model's own input schema: code r % size
            // per feature keeps everything in-domain.
            let rows: Vec<Vec<u32>> = (0..star.n_s())
                .map(|r| {
                    in_memory
                        .artifact()
                        .features
                        .iter()
                        .map(|f| (r % f.domain_size) as u32)
                        .collect()
                })
                .collect();
            let a = in_memory.predict_codes(&rows).unwrap();
            let b = served.predict_codes(&rows).unwrap();
            // Bit-for-bit: classes, labels, AND float scores.
            prop_assert_eq!(a, b, "{} served != in-memory", kind.name());
        }
    }

    /// Unseen-FK rows route through the Others bucket: any out-of-domain
    /// FK code predicts exactly like the trained Others code.
    #[test]
    fn cold_start_rows_score_like_others(
        (n_r, xr, fks, xs, ys) in star_instance(),
        unseen_offset in 1u32..1000
    ) {
        let star = build_star(n_r, xr, fks, xs, ys);
        for kind in FAMILIES {
            let built =
                build_artifact(&star, kind, &AdvisorConfig::default(), "prop").unwrap();
            let scorer = Scorer::new(built.artifact);
            let a = scorer.artifact();
            let fk_pos = a.features.iter().position(|f| f.fk.is_some()).unwrap();
            let others = a.features[fk_pos].fk.as_ref().unwrap().others_code;
            let original = a.features[fk_pos].fk.as_ref().unwrap().original_domain as u32;

            let mut unseen_row: Vec<u32> = a.features.iter().map(|_| 0).collect();
            unseen_row[fk_pos] = original + unseen_offset - 1;
            let mut others_row = unseen_row.clone();
            others_row[fk_pos] = others;

            let preds = scorer.predict_codes(&[unseen_row, others_row]).unwrap();
            prop_assert_eq!(&preds[0], &preds[1], "{}: unseen FK != Others", kind.name());
        }
    }

    /// The scorer agrees with Model::predict_row on the materialized
    /// avoid-view dataset (the training-side ground truth).
    #[test]
    fn scorer_matches_direct_model_prediction((n_r, xr, fks, xs, ys) in star_instance()) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let built = build_artifact(
            &star,
            ModelKind::NaiveBayes,
            &AdvisorConfig::default(),
            "prop",
        )
        .unwrap();
        let scorer = Scorer::new(built.artifact.clone());

        // Rebuild the serving view the way export does: avoided joins out,
        // FKs revised. For this one-attribute star the advisor either
        // avoided (view = entity) or joined (view = full join); either
        // way the artifact's feature schema tells us which.
        let avoided = built.artifact.decisions[0].avoid;
        let wide = if avoided {
            // Only entity columns; FK codes in the artifact's widened
            // domain coincide with raw codes (all raw codes are seen).
            star.materialize_none()
        } else {
            star.materialize_all().unwrap()
        };
        let data = Dataset::from_table(&wide);
        let rows: Vec<Vec<u32>> = (0..data.n_examples())
            .map(|r| {
                (0..data.n_features())
                    .map(|f| data.feature(f).codes[r])
                    .collect()
            })
            .collect();
        let preds = scorer.predict_codes(&rows).unwrap();
        for (r, p) in preds.iter().enumerate() {
            prop_assert_eq!(p.class, built.artifact.model.predict_row(&data, r), "row {}", r);
        }
    }

    /// Truncation at ANY byte yields a typed error, never a panic.
    #[test]
    fn truncated_artifacts_never_panic(
        (n_r, xr, fks, xs, ys) in star_instance(),
        frac in 0.0f64..1.0
    ) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let built = build_artifact(
            &star,
            ModelKind::NaiveBayes,
            &AdvisorConfig::default(),
            "prop",
        )
        .unwrap();
        let text = to_json_string(&built.artifact);
        let cut = ((text.len() as f64) * frac) as usize;
        prop_assert!(from_json_str(&text[..cut.min(text.len() - 1)]).is_err());
    }

    /// Flipping any byte of the document to a different character yields
    /// a typed error (checksum, schema, or parse), never a panic and
    /// never a silently different model.
    #[test]
    fn bit_flipped_artifacts_never_panic(
        (n_r, xr, fks, xs, ys) in star_instance(),
        pos_frac in 0.0f64..1.0,
        replacement in 0u8..=255
    ) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let built = build_artifact(
            &star,
            ModelKind::NaiveBayes,
            &AdvisorConfig::default(),
            "prop",
        )
        .unwrap();
        let text = to_json_string(&built.artifact);
        let pos = (((text.len() - 1) as f64) * pos_frac) as usize;
        let mut bytes = text.clone().into_bytes();
        prop_assume!(bytes[pos] != replacement);
        bytes[pos] = replacement;
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        match from_json_str(&corrupted) {
            // Typed error: fine, the corruption was caught.
            Err(_) => {}
            // A load that still succeeds means the flip landed outside
            // the checksummed payload bytes (the checksum covers the
            // payload as stored, so any flip inside it is refused) and
            // left the envelope meaning the same, e.g. `schema_version`
            // 2 -> 1 — the model itself cannot have drifted.
            Ok(reloaded) => prop_assert_eq!(reloaded, built.artifact),
        }
    }
}

/// A request body for the framing property: arbitrary bytes, optionally
/// with a complete fake request head spliced into the middle — the
/// adversarial case where naive framing would treat body bytes as the
/// start of the next pipelined request.
fn adversarial_body() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(0u8..=255, 0..120),
        any_bool(),
        0usize..120,
    )
        .prop_map(|(mut bytes, inject, at)| {
            if inject {
                let fake = b"POST /evil HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
                let at = at.min(bytes.len());
                bytes.splice(at..at, fake.iter().copied());
            }
            bytes
        })
}

proptest! {
    /// Pipelined framing never bleeds: N requests written back-to-back
    /// (split across writes at an arbitrary byte) come back from
    /// `ConnReader` with exactly the paths and bodies that were sent —
    /// even when bodies contain complete fake request heads — followed
    /// by a clean end-of-connection.
    #[test]
    fn pipelined_requests_never_bleed(
        bodies in proptest::collection::vec(adversarial_body(), 1..4),
        split_frac in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            wire.extend_from_slice(
                format!(
                    "POST /p{i} HTTP/1.1\r\nHost: prop\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            wire.extend_from_slice(body);
        }
        let split = ((wire.len() as f64) * split_frac) as usize;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut client = std::net::TcpStream::connect(addr).unwrap();
            client.write_all(&wire[..split]).unwrap();
            client.flush().unwrap();
            // A beat between the two segments forces the reader through
            // its partial-buffer path, not just the all-at-once path.
            std::thread::sleep(Duration::from_millis(2));
            client.write_all(&wire[split..]).unwrap();
            // Dropping the client closes the connection cleanly.
        });

        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = ConnReader::new();
        let deadline = Duration::from_secs(5);
        for (i, body) in bodies.iter().enumerate() {
            let req = reader
                .next_request(&mut stream, deadline, deadline)
                .unwrap()
                .expect("request vanished");
            prop_assert_eq!(&req.path, &format!("/p{i}"), "request {} path bled", i);
            prop_assert_eq!(&req.body, body, "request {} body bled", i);
        }
        prop_assert!(
            reader.next_request(&mut stream, deadline, deadline).unwrap().is_none(),
            "phantom request after the last pipelined one"
        );
        writer.join().unwrap();
    }

    /// Micro-batched scoring is bit-for-bit identical to direct batch
    /// scoring: concurrent single-row batches scored through one
    /// `MicroBatcher` return exactly what `predict_codes` returns for
    /// the same rows — classes, labels, AND float scores.
    #[test]
    fn micro_batched_equals_direct_bit_for_bit(
        (n_r, xr, fks, xs, ys) in star_instance(),
        row_seeds in proptest::collection::vec(0u32..1_000_000, 1..6),
    ) {
        let star = build_star(n_r, xr, fks, xs, ys);
        let built =
            build_artifact(&star, ModelKind::NaiveBayes, &AdvisorConfig::default(), "prop")
                .unwrap();
        let scorer = Scorer::new(built.artifact);
        let rows: Vec<Vec<u32>> = row_seeds
            .iter()
            .map(|seed| {
                scorer
                    .artifact()
                    .features
                    .iter()
                    .map(|f| seed % f.domain_size as u32)
                    .collect()
            })
            .collect();
        let direct = scorer.predict_codes(&rows).unwrap();

        let batcher = MicroBatcher::new(Duration::from_micros(500));
        let batched: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = rows
                .iter()
                .map(|row| {
                    let (batcher, scorer, row) = (&batcher, &scorer, row.clone());
                    s.spawn(move || {
                        let batch = scorer.code_rows(&[row]).unwrap();
                        scorer.predictions(&batcher.score(scorer, &batch)).remove(0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        prop_assert_eq!(direct, batched);
    }
}

/// The Json-tree request path the typed scorer replaced, kept verbatim
/// as the differential oracle: parse the body into a tree, decode it
/// row-major, transpose, score every row twice (`predict_row` for the
/// class, `scores` for the scores), clone each label, and render the
/// response as a tree.
mod oracle {
    use std::collections::HashMap;

    use hamlet::core::ExecStrategy;
    use hamlet::ml::classifier::Model;
    use hamlet::ml::{CodeSource, Column};
    use hamlet::obs::json::{obj, Json};
    use hamlet::serve::{ModelArtifact, Prediction, ScoreError, ServableModel};

    struct RowBatch<'a> {
        artifact: &'a ModelArtifact,
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
            0
        }
    }

    /// The per-family scores of one row, computed apart from its class.
    pub fn scores<S: CodeSource>(model: &ServableModel, data: &S, row: usize) -> Vec<f64> {
        match model {
            ServableModel::NaiveBayes(m) => m.log_posterior(data, row),
            ServableModel::LogisticRegression(m) => m.decision_scores(data, row),
            ServableModel::Tan(m) => m.log_posterior(data, row),
            ServableModel::Tree(m) => {
                let class = m.predict_row(data, row) as usize;
                (0..m.n_classes())
                    .map(|y| if y == class { 1.0 } else { 0.0 })
                    .collect()
            }
            ServableModel::Gbt(m) => {
                let f_val = m.raw_score(data, row);
                (0..m.n_classes())
                    .map(|y| {
                        let d = f_val - y as f64;
                        -(d * d)
                    })
                    .collect()
            }
        }
    }

    pub struct Oracle {
        artifact: ModelArtifact,
        by_name: HashMap<String, usize>,
        label_codes: Vec<Option<HashMap<String, u32>>>,
        avoided_of: HashMap<String, String>,
        degraded_of: HashMap<String, usize>,
    }

    impl Oracle {
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
            Oracle {
                artifact,
                by_name,
                label_codes,
                avoided_of,
                degraded_of,
            }
        }

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
                        let value =
                            row.get(&fs.name)
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
                    None => vec![body],
                },
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

        pub fn predict_coded_rows(&self, rows: &[Vec<u32>]) -> Vec<Prediction> {
            let d = self.artifact.features.len();
            let mut codes = vec![Vec::with_capacity(rows.len()); d];
            for row in rows {
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
                        scores: scores(&self.artifact.model, &batch, r),
                    }
                })
                .collect()
        }

        pub fn render(preds: &[Prediction], degraded: bool) -> String {
            let mut members = vec![(
                "predictions",
                Json::Arr(
                    preds
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("class", Json::Num(p.class as f64)),
                                (
                                    "label",
                                    match &p.label {
                                        Some(l) => Json::Str(l.clone()),
                                        None => Json::Null,
                                    },
                                ),
                                (
                                    "scores",
                                    Json::Arr(p.scores.iter().map(|&s| Json::Num(s)).collect()),
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
        }

        fn error_body(kind: &str, message: String) -> String {
            obj(vec![(
                "error",
                obj(vec![
                    ("kind", Json::Str(kind.into())),
                    ("message", Json::Str(message)),
                ]),
            )])
            .to_string()
        }

        /// The status and body a server with `fallback` answered
        /// `POST /predict` with, for `body`.
        pub fn respond(&self, body: &[u8], fallback: bool) -> (u16, String) {
            let doc = match Json::parse(&String::from_utf8_lossy(body)) {
                Ok(doc) => doc,
                Err(e) => {
                    return (
                        400,
                        Self::error_body("bad_json", format!("request body: {e}")),
                    )
                }
            };
            match self.decode_body_degraded(&doc, fallback) {
                Err(e) => (e.http_status(), Self::error_body(e.kind(), e.to_string())),
                Ok((rows, degraded)) => {
                    (200, Self::render(&self.predict_coded_rows(&rows), degraded))
                }
            }
        }
    }
}

/// splitmix64, seeded per case, for building request bodies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

fn quoted(s: &str) -> String {
    hamlet::obs::json::Json::Str(s.into()).to_string()
}

/// One value for feature `f`: mostly in-domain codes, plus unseen FK
/// codes and unknown categories, labels known and unknown, odd numbers
/// and non-scalars.
fn request_value(rng: &mut Rng, f: &hamlet::serve::FeatureSchema) -> String {
    const ODD: [&str; 12] = [
        "0.0",
        "1e0",
        "-0",
        "2.5",
        "-1",
        "1e10",
        "4294967296",
        "00",
        "123456789012",
        "1E+0",
        "-",
        "1e",
    ];
    const NON_SCALAR: [&str; 5] = ["true", "null", "[1]", "{\"a\":1}", "false"];
    match rng.below(40) {
        0..=27 => rng.below(f.domain_size).to_string(),
        28..=30 => (f.domain_size + rng.below(1000)).to_string(),
        31..=33 => match &f.labels {
            Some(ls) => quoted(&ls[rng.below(ls.len())]),
            None => rng.below(f.domain_size).to_string(),
        },
        34 => quoted("nope"),
        35 => ODD[rng.below(ODD.len())].into(),
        36 => NON_SCALAR[rng.below(NON_SCALAR.len())].into(),
        _ => format!(" {} ", rng.below(f.domain_size)),
    }
}

/// A request body for `artifact`: positional and named rows in any of
/// the accepted envelopes (and some refused ones), then possibly
/// truncated or spliced.
fn request_body(rng: &mut Rng, artifact: &ModelArtifact) -> Vec<u8> {
    const SPLICES: [&str; 12] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "-", "7", " ", "\u{e9}",
    ];
    let feats = &artifact.features;
    // Foreign features (avoided or degraded) most often, then an
    // unknown name and a duplicate of a schema name.
    let mut extra: Vec<String> = (0..3)
        .flat_map(|_| artifact.decisions.iter())
        .flat_map(|d| d.foreign_features.iter().cloned())
        .collect();
    extra.extend(["bogus".to_string(), feats[0].name.clone()]);
    let row = |rng: &mut Rng| -> String {
        if rng.chance(60) {
            let d = feats.len();
            let arity = match rng.below(20) {
                0 => d + 1,
                1 => d.saturating_sub(1),
                _ => d,
            };
            let values: Vec<String> = (0..arity)
                .map(|i| request_value(rng, &feats[i.min(d - 1)]))
                .collect();
            format!("[{}]", values.join(","))
        } else {
            let mut members = Vec::new();
            for f in feats {
                if !rng.chance(5) {
                    members.push(format!("{}:{}", quoted(&f.name), request_value(rng, f)));
                }
            }
            if rng.chance(40) {
                let name = &extra[rng.below(extra.len())];
                let at = rng.below(members.len() + 1);
                members.insert(at, format!("{}:{}", quoted(name), rng.below(3)));
            }
            format!("{{{}}}", members.join(", "))
        }
    };
    let rows: Vec<String> = (0..1 + rng.below(4)).map(|_| row(rng)).collect();
    let mut body = match rng.below(20) {
        0..=9 => format!("[{}]", rows.join(",")),
        10..=14 => format!("{{\"rows\": [{}]}}", rows.join(", ")),
        15 | 16 => rows[0].clone(),
        _ => ["42", "\"x\"", "{\"rows\": 3}", "[]", "[3]", " [[0]] ", "{}"][rng.below(7)].into(),
    };
    if rng.chance(10) {
        let mut at = rng.below(body.len() + 1);
        while !body.is_char_boundary(at) {
            at -= 1;
        }
        body.insert_str(at, SPLICES[rng.below(SPLICES.len())]);
    }
    let mut bytes = body.into_bytes();
    if rng.chance(10) {
        // Truncation may split a character: the server decodes the
        // body lossily, so byte offsets must still match.
        bytes.truncate(rng.below(bytes.len() + 1));
    }
    bytes
}

/// Sends one keep-alive `POST` and reads the framed response: status
/// and body.
fn post(conn: &mut TcpStream, path: &str, body: &[u8]) -> (u16, String) {
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nHost: prop\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    conn.write_all(&wire).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = conn.read(&mut chunk).unwrap();
        assert!(n > 0, "eof before the response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head[9..12].parse().unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    while buf.len() < head_end + 4 + len {
        let n = conn.read(&mut chunk).unwrap();
        assert!(n > 0, "eof before the response body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[head_end + 4..head_end + 4 + len].to_vec()).unwrap();
    (status, body)
}

proptest! {
    /// One pass per row: `score_into` writes exactly the scores the
    /// separate per-family score computation gives and returns exactly
    /// `predict_row`, for every family, on in-domain rows and rows with
    /// unseen FK codes (routed to `Others`).
    #[test]
    fn score_into_equals_predict_row_and_scores(
        (n_r, xr, fks, xs, ys) in star_instance(),
        row_seeds in proptest::collection::vec(0u32..1_000_000, 1..12),
    ) {
        let star = build_star(n_r, xr, fks, xs, ys);
        for kind in FAMILIES {
            let built =
                build_artifact(&star, kind, &AdvisorConfig::default(), "prop").unwrap();
            let scorer = Scorer::new(built.artifact);
            let a = scorer.artifact();
            let rows: Vec<Vec<u32>> = row_seeds
                .iter()
                .map(|&seed| {
                    a.features
                        .iter()
                        .map(|f| match &f.fk {
                            // Every third row names an entity the model
                            // never saw.
                            Some(fk) if seed % 3 == 0 => fk.original_domain as u32 + seed % 50,
                            _ => seed % f.domain_size as u32,
                        })
                        .collect()
                })
                .collect();
            let batch = scorer.code_rows(&rows).unwrap();
            let mut scores = vec![f64::NAN; a.model.n_classes()];
            for r in 0..rows.len() {
                let class = a.model.score_into(&batch, r, &mut scores);
                prop_assert_eq!(class, a.model.predict_row(&batch, r), "{} row {}", kind.name(), r);
                let separate = oracle::scores(&a.model, &batch, r);
                prop_assert_eq!(
                    scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    separate.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "{} row {}", kind.name(), r
                );
            }
        }
    }

    /// Differential against the Json-tree path: for random, truncated
    /// and spliced bodies — positional and named rows, unseen FK codes,
    /// labels, refused values and names — every family's server answers
    /// with the oracle's status and byte-identical body, with and
    /// without the fallback chain and the micro-batcher, and degraded
    /// builds included. Direct decoding agrees on predictions, and the
    /// surrogate answer renders identically.
    #[test]
    fn http_answers_match_the_json_tree_path_byte_for_byte(
        (n_r, xr, fks, xs, ys) in star_instance(),
        seed in 0u64..(1u64 << 62),
    ) {
        let mut rng = Rng(seed);
        let labelled = rng.chance(50);
        let degraded = rng.chance(40);
        let fallback = rng.chance(50);
        let window = if rng.chance(30) { Duration::from_micros(100) } else { Duration::ZERO };
        let star = build_star_with(labelled, n_r, xr, fks, xs, ys);
        let artifacts: Vec<ModelArtifact> = FAMILIES
            .iter()
            .map(|&kind| {
                let mut a = build_artifact(&star, kind, &AdvisorConfig::default(), "prop")
                    .unwrap()
                    .artifact;
                if degraded {
                    // As a degraded build ships it: the table was absent,
                    // so its features are not in the schema.
                    for d in &mut a.decisions {
                        d.degraded = true;
                        d.foreign_features.push("absent_attr".into());
                    }
                }
                a
            })
            .collect();

        let registry = Arc::new(Registry::single(Scorer::new(artifacts[0].clone()), window));
        for (kind, a) in FAMILIES.iter().zip(&artifacts).skip(1) {
            registry.swap(kind.name(), Scorer::new(a.clone()), None);
        }
        let server = start_with_registry(
            registry,
            ServerConfig {
                addr: "127.0.0.1:0".into(),
                threads: 1,
                fallback,
                batch_window: window,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut conn = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

        for (i, (kind, a)) in FAMILIES.iter().zip(&artifacts).enumerate() {
            let path = if i == 0 {
                "/predict".to_string()
            } else {
                format!("/models/{}/predict", kind.name())
            };
            let scorer = Scorer::new(a.clone());
            let oracle = oracle::Oracle::new(a.clone());
            for _ in 0..6 {
                let body = request_body(&mut rng, a);
                let want = oracle.respond(&body, fallback);
                let got = post(&mut conn, &path, &body);
                prop_assert_eq!(
                    &got, &want,
                    "{} body {:?}", kind.name(), String::from_utf8_lossy(&body)
                );
                // The same body decoded in process.
                let text = String::from_utf8_lossy(&body);
                match scorer.decode_body(&text, fallback) {
                    Ok((batch, _)) => {
                        let doc = hamlet::obs::json::Json::parse(&text).unwrap();
                        let (rows, _) = oracle.decode_body_degraded(&doc, fallback).unwrap();
                        prop_assert_eq!(
                            scorer.predictions(&scorer.score(&batch)),
                            oracle.predict_coded_rows(&rows)
                        );
                    }
                    Err(_) => {
                        prop_assert!(want.0 != 200, "{} refused a body the oracle scored", kind.name());
                    }
                }
            }
            let n = 1 + rng.below(3);
            prop_assert_eq!(
                scorer.render_surrogate(n),
                oracle::Oracle::render(&vec![scorer.surrogate_prediction(); n], true)
            );
        }
        drop(conn);
        server.stop();
        server.join().unwrap();
    }
}

/// One random two-table star for the export differential. `A` has few
/// keys, so its join is often avoidable; `B` has many, so it is often
/// kept. `B` may be an FK-only surrogate (a degraded load) or carry a
/// feature whose name is already taken, which a join must refuse.
#[derive(Debug, Clone)]
struct ExportCase {
    star: StarSchema,
    substitutions: Vec<hamlet::relational::TableSubstitution>,
    config: AdvisorConfig,
}

fn export_case() -> impl Strategy<Value = ExportCase> {
    (
        2usize..6,
        2usize..40,
        30usize..160,
        2usize..4,
        0u64..u64::MAX,
    )
        .prop_map(|(n_a, n_b, n_s, n_classes, seed)| {
            let mut rng = Rng(seed);
            let labelled = rng.chance(50);
            let variant = rng.below(10);
            let sparse_keys = rng.chance(50);
            // The paper's thresholds, or ones that keep every join, or
            // ones that avoid every join the skew check allows.
            let thresholds = rng.below(3);
            let mut codes =
                |n: usize, d: usize| -> Vec<u32> { (0..n).map(|_| rng.below(d) as u32).collect() };
            let fk_a = codes(n_s, n_a);
            let fk_b = codes(n_s, n_b);
            let xs = codes(n_s, 3);
            let ys = codes(n_s, n_classes);
            let a1 = codes(n_a, 4);
            let a2 = codes(n_a, 2);
            let b1 = codes(n_b, 5);
            // `A` stores its keys in reverse order; a sparse `B` keeps
            // only the keys the entity references.
            let rid_a = Domain::indexed("AID", n_a).shared();
            let rid_b = if labelled {
                Domain::labelled("BID", (0..n_b).map(|i| format!("b{i}")).collect())
            } else {
                Domain::indexed("BID", n_b)
            }
            .shared();
            let a = TableBuilder::new("A")
                .primary_key("AID", rid_a.clone(), (0..n_a as u32).rev().collect())
                .feature(
                    "a1",
                    Domain::indexed("a1", 4).shared(),
                    a1.into_iter().rev().collect(),
                )
                .feature(
                    "a2",
                    Domain::boolean("a2").shared(),
                    a2.into_iter().rev().collect(),
                )
                .build()
                .unwrap();
            let kept_keys: Vec<u32> = (0..n_b as u32)
                .filter(|k| !sparse_keys || fk_b.contains(k))
                .collect();
            let b1: Vec<u32> = kept_keys.iter().map(|&k| b1[k as usize]).collect();
            let (b, substitutions) = match variant {
                // An FK-only surrogate for an unreadable `B`.
                6 | 7 => (
                    TableBuilder::new("B")
                        .primary_key("BID", rid_b.clone(), (0..n_b as u32).collect())
                        .build()
                        .unwrap(),
                    vec![hamlet::relational::TableSubstitution {
                        table: "B".into(),
                        fk: "fk_b".into(),
                        file: "b.csv".into(),
                        n_entities: n_b,
                        declared_features: vec!["b1".into()],
                        reason: "unreadable".into(),
                    }],
                ),
                // A feature named like one already in the join.
                8 | 9 => (
                    TableBuilder::new("B")
                        .primary_key("BID", rid_b.clone(), kept_keys)
                        .feature(
                            if variant == 8 { "xs" } else { "a1" },
                            Domain::indexed("b1", 5).shared(),
                            b1,
                        )
                        .build()
                        .unwrap(),
                    Vec::new(),
                ),
                _ => (
                    TableBuilder::new("B")
                        .primary_key("BID", rid_b.clone(), kept_keys)
                        .feature("b1", Domain::indexed("b1", 5).shared(), b1)
                        .build()
                        .unwrap(),
                    Vec::new(),
                ),
            };
            let y = if labelled {
                Domain::labelled("y", (0..n_classes).map(|c| format!("class {c}")).collect())
            } else {
                Domain::indexed("y", n_classes)
            };
            let s = TableBuilder::new("S")
                .feature(
                    "xs",
                    Domain::from_labels("xs", &["lo", "mid", "hi"]).shared(),
                    xs,
                )
                .foreign_key("fk_a", "A", rid_a, fk_a)
                .target("y", y.shared(), ys)
                .foreign_key("fk_b", "B", rid_b, fk_b)
                .build()
                .unwrap();
            let star = StarSchema::new(
                s,
                vec![
                    AttributeTable {
                        fk: "fk_a".into(),
                        table: a,
                    },
                    AttributeTable {
                        fk: "fk_b".into(),
                        table: b,
                    },
                ],
            )
            .unwrap();
            let mut config = AdvisorConfig::default();
            match thresholds {
                1 => config.tr.tau = f64::INFINITY,
                2 => (config.tr.tau, config.ror.rho) = (0.0, f64::INFINITY),
                _ => {}
            }
            ExportCase {
                star,
                substitutions,
                config,
            }
        })
}

/// The export as it was before it trained on a view, kept as the
/// differential oracle: materialize the kept joins, copy the wide table
/// into a `Dataset`, fit and score that, and read the feature schema
/// off the wide table.
mod materialized_export {
    use hamlet::core::advisor::{advise, AdvisorConfig};
    use hamlet::core::rules::{Decision, JoinReason};
    use hamlet::ml::{zero_one_error, Classifier, Dataset, LogisticRegression, NaiveBayes, Tan};
    use hamlet::relational::{DomainRevision, Role, StarSchema, Table, TableSubstitution};
    use hamlet::serve::{
        BuildError, BuiltModel, FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ModelKind,
        ServableModel,
    };

    fn rel(e: impl std::fmt::Display) -> BuildError {
        BuildError::Relational(e.to_string())
    }

    fn evidence(d: &Decision) -> Option<f64> {
        match d {
            Decision::Avoid { value } => Some(*value),
            Decision::Join(JoinReason::Threshold { value, .. }) => Some(*value),
            Decision::Join(_) => None,
        }
    }

    pub fn build(
        star: &StarSchema,
        kind: ModelKind,
        config: &AdvisorConfig,
        dataset_name: &str,
        substitutions: &[TableSubstitution],
    ) -> Result<BuiltModel, BuildError> {
        let n_train = star.n_s() / 2;
        let report = advise(star, n_train, config)?;
        let mut revisions = Vec::with_capacity(star.attributes().len());
        for at in star.attributes() {
            revisions.push(DomainRevision::new(at, &vec![0u32; at.n_features()]).map_err(rel)?);
        }
        let entity = star.entity();
        let mut cols = entity.columns().to_vec();
        for rev in &revisions {
            let pos = entity
                .schema()
                .index_of(&rev.attribute.fk)
                .ok_or_else(|| rel(format!("entity has no FK column '{}'", rev.attribute.fk)))?;
            cols[pos] = rev.remap_fk(entity.column(pos).codes());
        }
        let entity =
            Table::new(entity.name().to_string(), entity.schema().clone(), cols).map_err(rel)?;
        let star = StarSchema::new(
            entity,
            revisions.iter().map(|r| r.attribute.clone()).collect(),
        )
        .map_err(rel)?;

        let joined: Vec<usize> = report
            .joins
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.avoid)
            .map(|(i, _)| i)
            .collect();
        let wide = star.materialize(&joined).map_err(rel)?;
        let data = Dataset::try_from_table(&wide).map_err(rel)?;

        let perm: Vec<usize> = (0..star.n_s()).collect();
        let split = star.split_rows(&perm, 0.5, 0.25);
        let all_feats: Vec<usize> = (0..data.n_features()).collect();
        let model = match kind {
            ModelKind::NaiveBayes => ServableModel::NaiveBayes(NaiveBayes::default().fit(
                &data,
                &split.train,
                &all_feats,
            )),
            ModelKind::LogisticRegression => ServableModel::LogisticRegression(
                LogisticRegression::default().fit(&data, &split.train, &all_feats),
            ),
            ModelKind::Tan => {
                ServableModel::Tan(Tan::default().fit(&data, &split.train, &all_feats))
            }
            ModelKind::Tree => ServableModel::Tree(hamlet::trees::CartTree::default().fit(
                &data,
                &split.train,
                &all_feats,
            )),
            ModelKind::Gbt => ServableModel::Gbt(hamlet::trees::Gbt::from_env().fit(
                &data,
                &split.train,
                &all_feats,
            )),
        };
        let holdout_error = zero_one_error(&model, &data, &split.test);

        let mut features = Vec::new();
        for (def, col) in wide.schema().attributes().iter().zip(wide.columns()) {
            if !matches!(def.role, Role::Feature | Role::ForeignKey { .. }) {
                continue;
            }
            let dom = col.domain();
            let labels = dom.is_labelled().then(|| {
                (0..dom.size() as u32)
                    .map(|c| dom.label(c).into_owned())
                    .collect()
            });
            let fk = revisions
                .iter()
                .find(|r| r.attribute.fk == def.name)
                .map(|r| FkColdStart {
                    table: r.attribute.table.name().to_string(),
                    original_domain: r.original_domain,
                    others_code: r.others_code,
                });
            features.push(FeatureSchema {
                name: def.name.clone(),
                domain_size: dom.size(),
                labels,
                fk,
            });
        }
        let class_labels = wide.target_column().and_then(|y| {
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
                n_classes: data.n_classes(),
                class_labels,
                features,
                decisions,
                model,
            },
            n_train: split.train.len(),
            holdout_error,
        })
    }
}

proptest! {
    /// The view-based export is the materialized one, byte for byte:
    /// every family's artifact text, holdout error and training-row
    /// count, and every refusal, over stars with avoided and kept
    /// joins, FK-only surrogates and name clashes.
    #[test]
    fn view_export_matches_the_materialized_oracle(case in export_case()) {
        for kind in FAMILIES {
            let got = hamlet::serve::build_artifact_with_availability(
                &case.star, kind, &case.config, "prop", &case.substitutions,
            );
            let want = materialized_export::build(
                &case.star, kind, &case.config, "prop", &case.substitutions,
            );
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(
                        to_json_string(&got.artifact),
                        to_json_string(&want.artifact),
                        "{} artifact", kind.name()
                    );
                    prop_assert_eq!(
                        got.holdout_error.to_bits(),
                        want.holdout_error.to_bits(),
                        "{} holdout error", kind.name()
                    );
                    prop_assert_eq!(got.n_train, want.n_train);
                }
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (got, want) => prop_assert!(
                    false,
                    "{}: view {:?} vs materialized {:?}",
                    kind.name(),
                    got.map(|b| b.holdout_error),
                    want.map(|b| b.holdout_error)
                ),
            }
        }
    }
}
