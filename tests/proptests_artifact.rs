//! Differential tests for the artifact codec: over random artifacts of
//! every model family, `to_json_string` writes byte for byte what the
//! Json-tree writer wrote, `save` refuses the same non-finite parameter
//! by the same path, and `from_json_str` returns exactly the tree
//! parser's artifact or error (`oracle`) on the document itself and on
//! truncated, byte-flipped, spliced, member-reordered, member-repeated
//! and value-swapped variants, with and without a recomputed checksum.

use proptest::prelude::*;

use hamlet::core::ExecStrategy;
use hamlet::ml::{LogisticRegressionModel, NaiveBayesModel, TanModel};
use hamlet::obs::json::Json;
use hamlet::serve::artifact::{
    from_json_str, load, save, to_json_string, FeatureSchema, FkColdStart, JoinDecision,
    ModelArtifact, ServableModel,
};
use hamlet::trees::{CartModel, CartNode, GbtModel, RegNode};

/// splitmix64: one seeded stream per case.
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

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

const NAMES: [&str; 8] = [
    "x",
    "fk",
    "",
    "caf\u{e9} \u{1f600}",
    "q\"uote",
    "back\\slash",
    "tab\tnl\n",
    "ctl\u{1}",
];

/// A parameter: mostly ordinary magnitudes, some integers, tiny and
/// huge values, and (when `odd`) now and then a non-finite one.
fn param(rng: &mut Rng, odd: bool) -> f64 {
    match rng.below(40) {
        0 if odd => *rng.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        1 => *rng.pick(&[0.0, -0.0, 1.0, -3.0, 1e-7, -2.5e-300, 3.0e20, 9.5e15]),
        _ => (rng.next() as f64 / u64::MAX as f64 - 0.7) * 30.0,
    }
}

fn params(rng: &mut Rng, n: usize, odd: bool) -> Vec<f64> {
    (0..n).map(|_| param(rng, odd)).collect()
}

fn name(rng: &mut Rng) -> String {
    rng.pick(&NAMES).to_string()
}

/// A tree arena grown children first; `leaf` makes each leaf.
fn arena<N>(
    rng: &mut Rng,
    depth: usize,
    n_features: usize,
    nodes: &mut Vec<N>,
    leaf: &mut dyn FnMut(&mut Rng) -> N,
    split: fn(usize, u32, u32, u32) -> N,
) -> u32 {
    if depth == 0 || rng.chance(35) {
        let n = leaf(rng);
        nodes.push(n);
    } else {
        let left = arena(rng, depth - 1, n_features, nodes, leaf, split);
        let right = arena(rng, depth - 1, n_features, nodes, leaf, split);
        let n = split(rng.below(n_features), rng.below(4) as u32, left, right);
        nodes.push(n);
    }
    (nodes.len() - 1) as u32
}

/// A random artifact of a random family (`odd` allows non-finite
/// parameters where the model accepts them).
fn random_artifact(rng: &mut Rng, odd: bool) -> ModelArtifact {
    let n_classes = 1 + rng.below(3);
    let features: Vec<FeatureSchema> = (0..1 + rng.below(4))
        .map(|_| {
            let domain_size = 1 + rng.below(4);
            FeatureSchema {
                name: name(rng),
                domain_size,
                labels: rng
                    .chance(40)
                    .then(|| (0..domain_size).map(|_| name(rng)).collect()),
                fk: rng.chance(40).then(|| FkColdStart {
                    table: name(rng),
                    original_domain: domain_size - 1,
                    others_code: (domain_size - 1) as u32,
                }),
            }
        })
        .collect();
    let decisions = (0..rng.below(3))
        .map(|_| JoinDecision {
            table: name(rng),
            fk: name(rng),
            strategy: *rng.pick(&[
                ExecStrategy::Materialize,
                ExecStrategy::Factorize,
                ExecStrategy::AvoidJoin,
            ]),
            tuple_ratio: param(rng, odd),
            ror: rng.chance(50).then(|| param(rng, odd)),
            avoid: rng.chance(50),
            foreign_features: (0..rng.below(3)).map(|_| name(rng)).collect(),
            degraded: rng.chance(30),
        })
        .collect();
    let n_features = features.len();
    let feats: Vec<usize> = (0..1 + rng.below(3))
        .map(|_| rng.below(n_features))
        .collect();
    let domains: Vec<usize> = feats.iter().map(|&f| features[f].domain_size).collect();
    let model = match rng.below(5) {
        0 => ServableModel::NaiveBayes(NaiveBayesModel::from_parts(
            feats.clone(),
            n_classes,
            params(rng, n_classes, odd),
            domains
                .iter()
                .map(|d| params(rng, n_classes * d, odd))
                .collect(),
            domains,
        )),
        1 => {
            let mut offsets = Vec::new();
            let mut dim = 0;
            for d in &domains {
                offsets.push(dim);
                dim += d;
            }
            dim += rng.below(2);
            ServableModel::LogisticRegression(LogisticRegressionModel::from_parts(
                feats,
                offsets,
                n_classes,
                dim,
                params(rng, n_classes * dim, odd),
                params(rng, n_classes, odd),
            ))
        }
        2 => {
            let parents: Vec<Option<usize>> = (0..feats.len())
                .map(|i| (i > 0 && rng.chance(60)).then(|| rng.below(i)))
                .collect();
            let log_cond = parents
                .iter()
                .zip(&domains)
                .map(|(p, d)| {
                    let parent = p.map_or(1, |p| domains[p]);
                    params(rng, n_classes * parent * d, odd)
                })
                .collect();
            ServableModel::Tan(TanModel::from_parts(
                feats,
                n_classes,
                params(rng, n_classes, odd),
                parents,
                log_cond,
                domains,
            ))
        }
        3 => {
            let mut nodes = Vec::new();
            let mut leaf = |rng: &mut Rng| CartNode::Leaf {
                class: rng.below(n_classes) as u32,
            };
            let split = |feature, value, left, right| CartNode::Split {
                feature,
                value,
                left,
                right,
            };
            let root = arena(rng, 3, n_features, &mut nodes, &mut leaf, split);
            ServableModel::Tree(
                CartModel::from_parts(feats, n_classes, n_features, nodes, root).unwrap(),
            )
        }
        _ => {
            let trees = (0..rng.below(4))
                .map(|_| {
                    let mut nodes = Vec::new();
                    let mut leaf = |rng: &mut Rng| RegNode::Leaf {
                        value: param(rng, false),
                    };
                    let split = |feature, value, left, right| RegNode::Split {
                        feature,
                        value,
                        left,
                        right,
                    };
                    let root = arena(rng, 3, n_features, &mut nodes, &mut leaf, split);
                    (nodes, root)
                })
                .collect();
            let base = param(rng, false);
            let learning_rate = param(rng, false);
            ServableModel::Gbt(
                GbtModel::from_parts(feats, n_classes, n_features, base, learning_rate, trees)
                    .unwrap(),
            )
        }
    };
    ModelArtifact {
        dataset: name(rng),
        n_classes,
        class_labels: rng
            .chance(50)
            .then(|| (0..n_classes).map(|_| name(rng)).collect()),
        features,
        decisions,
        model,
    }
}

/// Every node of a tree, as the child-index path that reaches it.
fn paths(j: &Json, at: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(at.clone());
    let children: Vec<&Json> = match j {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(members) => members.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, c) in children.into_iter().enumerate() {
        at.push(i);
        paths(c, at, out);
        at.pop();
    }
}

fn node_mut<'a>(j: &'a mut Json, path: &[usize]) -> &'a mut Json {
    match (j, path.split_first()) {
        (j, None) => j,
        (Json::Arr(items), Some((&i, rest))) => node_mut(&mut items[i], rest),
        (Json::Obj(members), Some((&i, rest))) => node_mut(&mut members[i].1, rest),
        _ => unreachable!("paths only name existing nodes"),
    }
}

/// A value of some other shape or range than the one it replaces.
fn odd_value(rng: &mut Rng) -> Json {
    match rng.below(14) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(50)),
        2 => Json::Num(-1.0),
        3 => Json::Num(1.5),
        4 => Json::Num(0.0),
        5 => Json::Num(*rng.pick(&[2.0, 7.0, 40.0])),
        6 => Json::Num(4_294_967_296.0),
        7 => Json::Num(1e300),
        8 => Json::Str(
            rng.pick(&["x", "naive_bayes", "tan", "gbt", "tree", "avoid", "bogus"])
                .to_string(),
        ),
        9 => Json::Arr(Vec::new()),
        10 => Json::Arr(vec![Json::Num(1.0), Json::Null]),
        11 => Json::Obj(Vec::new()),
        12 => Json::Obj(vec![("leaf".into(), Json::Num(0.0))]),
        _ => Json::Num(rng.below(5) as f64),
    }
}

/// One structural edit at a random node: swap a value, drop, repeat or
/// reorder members, drop or repeat items, nudge a number.
fn mutate(rng: &mut Rng, doc: &mut Json) {
    let mut all = Vec::new();
    paths(doc, &mut Vec::new(), &mut all);
    let path = rng.pick(&all).clone();
    let node = node_mut(doc, &path);
    match (rng.below(6), node) {
        (0, Json::Obj(members)) if !members.is_empty() => {
            members.remove(rng.below(members.len()));
        }
        (1, Json::Obj(members)) if !members.is_empty() => {
            // A repeated member, before or after the original.
            let (key, _) = members[rng.below(members.len())].clone();
            let at = rng.below(members.len() + 1);
            members.insert(at, (key, odd_value(rng)));
        }
        (2, Json::Obj(members)) => {
            for i in (1..members.len()).rev() {
                members.swap(i, rng.below(i + 1));
            }
        }
        (3, Json::Arr(items)) if !items.is_empty() => {
            let i = rng.below(items.len());
            if rng.chance(50) {
                items.remove(i);
            } else {
                items.insert(i, items[i].clone());
            }
        }
        (4, Json::Num(n)) => *n = *rng.pick(&[*n + 1.0, -*n, *n * 0.5, *n + 1e9]),
        (_, node) => *node = odd_value(rng),
    }
}

/// The envelope around `payload` with its correct checksum.
fn enveloped(payload: &str) -> String {
    format!(
        "{{\"magic\":\"hamlet-model\",\"schema_version\":2,\"checksum\":\"{}\",\"payload\":{payload}}}",
        oracle::checksum_of(payload)
    )
}

fn assert_same_verdict(text: &str) -> Result<(), TestCaseError> {
    let got = from_json_str(text);
    let want = oracle::from_json_str(text);
    prop_assert_eq!(got, want, "document {:?}", text);
    Ok(())
}

proptest! {
    /// The writer is the tree writer byte for byte, `save` refuses the
    /// first non-finite parameter by the tree walk's path, and the
    /// decoder returns the tree parser's verdict on every variant of
    /// the document.
    #[test]
    fn artifact_codec_matches_the_json_tree_oracle(seed in 0u64..(1u64 << 62)) {
        let mut rng = Rng(seed);
        let odd = rng.chance(20);
        let a = random_artifact(&mut rng, odd);
        let text = to_json_string(&a);
        prop_assert_eq!(&text, &oracle::to_json_string(&a), "{:?}", a);

        let dir = std::env::temp_dir().join(format!("hamlet_proptests_artifact_{seed}"));
        let path = dir.join("a.model");
        match oracle::check_finite(&oracle::payload_json(&a)) {
            Err(want) => {
                prop_assert_eq!(save(&a, &path).unwrap_err(), want);
                prop_assert!(!path.exists(), "a refused save left a file");
            }
            Ok(()) => {
                save(&a, &path).unwrap();
                prop_assert_eq!(std::fs::read_to_string(&path).unwrap(), text.clone());
                prop_assert_eq!(load(&path).unwrap(), a.clone());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        assert_same_verdict(&text)?;
        if !odd {
            prop_assert_eq!(from_json_str(&text).unwrap(), a.clone());
        }

        let doc = Json::parse(&text).unwrap();
        let payload = doc.get("payload").unwrap().clone();
        for _ in 0..64 {
            // Raw bytes: a truncation, a splice or a flip.
            let mut bytes = text.clone();
            let mut at = rng.below(bytes.len() + 1);
            while !bytes.is_char_boundary(at) {
                at -= 1;
            }
            match rng.below(3) {
                0 => bytes.truncate(at),
                1 => {
                    let splice = *rng.pick(&["{", "}", "[", "]", ",", ":", "\"", "-", "7", " ", "n", "\u{e9}"]);
                    bytes.insert_str(at, splice);
                }
                _ => {
                    let mut end = (at + 1).min(bytes.len());
                    while !bytes.is_char_boundary(end) {
                        end += 1;
                    }
                    let flip = *rng.pick(&["0", "9", "a", "\"", ",", "}", "]", " "]);
                    bytes.replace_range(at..end, flip);
                }
            }
            assert_same_verdict(&bytes)?;

            // A structural edit anywhere, with the recorded checksum
            // (an edit inside the payload is a mismatch) ...
            let mut edited = doc.clone();
            mutate(&mut rng, &mut edited);
            assert_same_verdict(&edited.to_string())?;

            // ... and inside the payload with the checksum recomputed,
            // so the payload's own checks decide.
            let mut edited = payload.clone();
            for _ in 0..1 + rng.below(3) {
                mutate(&mut rng, &mut edited);
            }
            let edited = enveloped(&edited.to_string());
            assert_same_verdict(&edited)?;
            let mut cut = rng.below(edited.len() + 1);
            while !edited.is_char_boundary(cut) {
                cut -= 1;
            }
            assert_same_verdict(&edited[..cut])?;
        }
    }
}

/// The Json-tree codec the one-buffer writer and the single-pass
/// decoder replaced, kept verbatim as the differential oracle: the
/// writer builds the payload as a tree and renders it, the reader
/// parses the whole document into a tree and walks it.
mod oracle {
    use hamlet::core::ExecStrategy;
    use hamlet::ml::classifier::Model;
    use hamlet::ml::{LogisticRegressionModel, NaiveBayesModel, TanModel};
    use hamlet::obs::json::{obj, Json, Reader};
    use hamlet::serve::artifact::{
        ArtifactError, FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel,
        MAGIC, MIN_SCHEMA_VERSION, SCHEMA_VERSION,
    };
    use hamlet::trees::{CartModel, CartNode, GbtModel, RegNode};

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

    pub fn payload_json(a: &ModelArtifact) -> Json {
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
                                            (
                                                "original_domain",
                                                Json::Num(fk.original_domain as f64),
                                            ),
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

    /// The envelope checksum of a payload's bytes.
    pub fn checksum_of(payload: &str) -> String {
        format!("fnv1a64:{:016x}", fnv1a64(payload.as_bytes()))
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
    pub fn check_finite(payload: &Json) -> Result<(), ArtifactError> {
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
                    LogisticRegressionModel::from_parts(
                        feats, offsets, n_classes, dim, weights, bias,
                    ),
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
                let learning_rate =
                    finite_of(field(j, "learning_rate", ctx)?, "model.learning_rate")?;
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

    /// The envelope's members as a tree, and the text of the first
    /// `payload` member's value — the member [`Json::get`] finds. Walks the
    /// grammar [`Json::parse`] does, with its error strings; a document
    /// that is JSON but not an object reads as `Json::Null`.
    fn read_envelope(text: &str) -> Result<(Json, Option<&str>), String> {
        let mut r = Reader::new(text);
        r.skip_ws();
        if r.peek() != Some(b'{') {
            r.value(0)?;
            r.finish()?;
            return Ok((Json::Null, None));
        }
        let mut members = Vec::new();
        let mut payload = None;
        let mut key = r.begin_object(0)?;
        while let Some(k) = key {
            r.skip_ws();
            let start = r.offset();
            let value = r.value(1)?;
            if k == "payload" && payload.is_none() {
                payload = Some(&text[start..r.offset()]);
            }
            members.push((k, value));
            key = r.next_member(0)?;
        }
        r.finish()?;
        Ok((Json::Obj(members), payload))
    }

    /// Parses and fully validates an artifact document. Inverse of
    /// [`to_json_string`].
    ///
    /// The envelope's members may come in any order, with whitespace
    /// between its tokens. The checksum is verified over the `payload`
    /// value's bytes as they stand in `text` — the bytes [`save`] hashed
    /// and wrote — so nothing is re-rendered, and an edit inside the
    /// payload is a `ChecksumMismatch` even when it parses to the same
    /// value (`1` for `1.0`, a space after a `,`).
    pub fn from_json_str(text: &str) -> R<ModelArtifact> {
        let (doc, payload_text) = read_envelope(text).map_err(ArtifactError::Parse)?;
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
        // `payload_text` is present whenever `payload` is.
        let actual = checksum_of(payload_text.unwrap_or_default());
        if expected != actual {
            return Err(ArtifactError::ChecksumMismatch { expected, actual });
        }
        parse_payload(payload)
    }
}
