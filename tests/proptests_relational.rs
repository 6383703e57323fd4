//! Property-based tests for the relational layer: CSV ingest, lints,
//! and profiles over randomly generated tables.

use std::collections::HashMap;

use proptest::prelude::*;

use hamlet::relational::{
    lint_star, profile_table, read_csv_chunked, read_csv_lenient, AttributeTable, ColumnSpec,
    CsvLoad, DirtyPolicy, Domain, EqualWidthBinner, IngestOptions, LintConfig, QuarantinedRow,
    RelationalError, StarSchema, Table, TableBuilder,
};

/// Strategy: a random two-column feature table.
fn random_table() -> impl Strategy<Value = Table> {
    (
        proptest::collection::vec(0..6u32, 1..80),
        proptest::collection::vec(0..4u32, 1..80),
    )
        .prop_map(|(a, b)| {
            let n = a.len().min(b.len());
            TableBuilder::new("T")
                .feature("a", Domain::indexed("a", 6).shared(), a[..n].to_vec())
                .feature("b", Domain::indexed("b", 4).shared(), b[..n].to_vec())
                .build()
                .expect("generated table valid")
        })
}

proptest! {
    /// Profiles report consistent distinct counts and entropies within
    /// bounds, for any table.
    #[test]
    fn profiles_are_consistent(t in random_table()) {
        let p = profile_table(&t);
        prop_assert_eq!(p.n_rows, t.n_rows());
        for (c, col) in p.columns.iter().zip(t.columns()) {
            prop_assert_eq!(c.distinct, col.distinct_count());
            prop_assert!(c.entropy_bits >= -1e-12);
            prop_assert!(c.entropy_bits <= (c.domain_size as f64).log2() + 1e-9);
            prop_assert!(c.mode.1 as usize <= t.n_rows());
        }
    }

    /// Lints never fire spuriously on balanced, fully-referenced stars —
    /// and the dominant-FK lint fires exactly when a value crosses the
    /// configured floor.
    #[test]
    fn lints_fire_exactly_on_dominance(dominant_share in 0u32..100) {
        let n = 200usize;
        let n_r = 8usize;
        let dominant_rows = (n as u32 * dominant_share / 100) as usize;
        let mut fk: Vec<u32> = vec![0; dominant_rows];
        fk.extend((0..(n - dominant_rows) as u32).map(|i| i % n_r as u32));
        let y: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let rid = Domain::indexed("fk", n_r).shared();
        let r = TableBuilder::new("R")
            .primary_key("fk", rid.clone(), (0..n_r as u32).collect())
            .feature("x", Domain::indexed("x", 3).shared(), (0..n_r as u32).map(|i| i % 3).collect())
            .build()
            .unwrap();
        let s = TableBuilder::new("S")
            .target("y", Domain::boolean("y").shared(), y)
            .foreign_key("fk", "R", rid, fk.clone())
            .build()
            .unwrap();
        let star = StarSchema::new(s, vec![AttributeTable { fk: "fk".into(), table: r }]).unwrap();
        let lints = lint_star(&star, &LintConfig::default());
        let mut hist = vec![0u64; n_r];
        for &v in &fk {
            hist[v as usize] += 1;
        }
        let top = *hist.iter().max().unwrap() as f64 / n as f64;
        let fired = lints
            .iter()
            .any(|l| matches!(l, hamlet::relational::Lint::DominantFkValue { .. }));
        prop_assert_eq!(fired, top > 0.5, "top fraction {} (lints: {:?})", top, lints);
    }
}

/// One generated CSV line: `(kind, id, name, num, tag, ending)`, each a
/// pick from the menus in [`csv_line`].
type LineSpec = (u8, u8, u8, u8, u8, u8);

/// Labels for the `name` column. The first eight mix quoted delimiters,
/// `""` escapes, mid-field quotes, empty fields and padding; the rest
/// stress a word-wise hash and an arena compare: 1-, 7-, 8- and 9-byte
/// labels, pairs that differ only after byte 8 or only in the last
/// byte, and more unicode.
const NAMES: [&str; 16] = [
    "alice",
    "\"x,y\"",
    "\"say \"\"hi\"\"\"",
    "",
    "\"\"",
    "a\"b,c\"d",
    "é ü",
    " padded ",
    "a",
    "abcdefg",
    "abcdefh",
    "abcdefgh",
    "abcdefghi",
    "abcdefghj",
    "abcdefgh-long-1",
    "日本語ラベル",
];
/// Numerics: the first eight hold two unparseable ones, the rest parse.
const NUMS: [&str; 16] = [
    "1.5", " 2 ", "-3", "abc", "", "1e2", "\"4\"", "7", "0.25", "12", "-0.5", "8", "9.75", "3",
    "5", "6",
];
const TAGS: [&str; 6] = ["t0", "t1", "", "\"t,2\"", "t1", "\"\"\"\""];

/// Renders one generated line (without its ending). Kinds 0 and 1 are
/// blank / whitespace-only, 2 and 3 are short / long rows. An id of 9
/// is the quoted duplicate of `k1`; a tag past the menu is one of a few
/// hundred plain or unicode labels, so that column's dictionary grows.
fn csv_line(&(kind, id, name, num, tag, _): &LineSpec) -> String {
    let id = if id == 9 {
        "\"k1\"".to_string()
    } else {
        format!("k{id}")
    };
    let tag = match TAGS.get(tag as usize) {
        Some(t) => t.to_string(),
        None if tag % 3 == 0 => format!("ф{tag}"),
        None => format!("f{tag}"),
    };
    let row = [
        id.as_str(),
        NAMES[name as usize % NAMES.len()],
        NUMS[num as usize % NUMS.len()],
        tag.as_str(),
    ];
    match kind {
        0 => String::new(),
        1 => "  \t ".to_string(),
        2 => row[..3].join(","),
        3 => format!("{},x", row.join(",")),
        _ => row.join(","),
    }
}

/// A whole generated CSV text: optional leading blank lines, a header
/// (optionally quoted), then the lines, each ending in `\n` or `\r\n`;
/// the last line may lack its terminator.
fn csv_text(lead: bool, quoted_header: bool, lines: &[LineSpec]) -> String {
    let mut text = String::from(if lead { "\n \r\n" } else { "" });
    text.push_str(if quoted_header {
        "\"id\",name,\"num\",tag\n"
    } else {
        "id,name,num,tag\r\n"
    });
    for (i, spec) in lines.iter().enumerate() {
        text.push_str(&csv_line(spec));
        let last = i + 1 == lines.len();
        text.push_str(match (spec.5, last) {
            (2 | 3, true) => "",
            (1 | 3, _) => "\r\n",
            _ => "\n",
        });
    }
    text
}

fn oracle_specs() -> Vec<(&'static str, ColumnSpec)> {
    vec![
        ("id", ColumnSpec::primary_key("id")),
        ("name", ColumnSpec::feature("name")),
        ("num", ColumnSpec::numeric_feature("num", 3)),
        ("tag", ColumnSpec::feature("tag")),
    ]
}

/// The reader as it was before borrowed fields and the arena
/// dictionary, kept as a test oracle: `BufRead::lines()`, a
/// char-by-char splitter building one `String` per field, the
/// `HashMap<String, u32>` label encoder, and the same validation order
/// (width, numeric, duplicate key). Errors are compared by their
/// `Debug` text.
type OracleLoad = (Vec<(Domain, Vec<u32>)>, Vec<QuarantinedRow>, usize);

/// The label encoder streaming ingest used before its arena
/// dictionary: a `HashMap<String, u32>` beside a first-appearance label
/// list.
#[derive(Default)]
struct HashMapEncoder {
    labels: Vec<String>,
    code_of: HashMap<String, u32>,
}

impl HashMapEncoder {
    fn code(&mut self, label: &str) -> u32 {
        match self.code_of.get(label) {
            Some(&c) => c,
            None => {
                let c = self.labels.len() as u32;
                self.labels.push(label.to_string());
                self.code_of.insert(label.to_string(), c);
                c
            }
        }
    }
}

fn oracle_split(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == ',' {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    fields.push(field);
    fields
}

fn oracle_load(bytes: &[u8], policy: DirtyPolicy) -> Result<OracleLoad, String> {
    let err = |e: RelationalError| format!("{e:?}");
    let mut lines = std::io::BufRead::lines(std::io::Cursor::new(bytes));
    // Non-blank lines until the end or the first read error (invalid
    // UTF-8), which the reader reports as a typed `Io` error.
    let mut next_line = || loop {
        match lines.next() {
            None => return Ok(None),
            Some(Err(e)) => {
                return Err(err(RelationalError::Io {
                    context: "stream table 'T'".into(),
                    message: e.to_string(),
                }))
            }
            Some(Ok(l)) if l.trim().is_empty() => {}
            Some(Ok(l)) => return Ok(Some(l)),
        }
    };
    let header = oracle_split(&next_line()?.expect("generated header"));
    assert_eq!(header, ["id", "name", "num", "tag"]);
    let mut dicts: [HashMapEncoder; 3] = Default::default();
    let mut codes: [Vec<u32>; 3] = Default::default();
    let mut values: Vec<f64> = Vec::new();
    let mut quarantined = Vec::new();
    let mut total = 0;
    while let Some(line) = next_line()? {
        let lineno = total;
        total += 1;
        let f = oracle_split(&line);
        let fault = if f.len() != 4 {
            Some((
                format!("expected 4 fields, found {}", f.len()),
                RelationalError::ColumnLengthMismatch {
                    table: "T".into(),
                    column: format!("<record {}>", lineno + 2),
                    expected: 4,
                    actual: f.len(),
                },
            ))
        } else if f[2].trim().parse::<f64>().is_err() {
            Some((
                format!("column 'num': unparseable numeric value '{}'", f[2]),
                RelationalError::InvalidBinning {
                    reason: "column 'num' has non-numeric data".into(),
                },
            ))
        } else if dicts[0].code_of.contains_key(&f[0]) {
            Some((
                format!("duplicate primary key '{}' in column 'id'", f[0]),
                RelationalError::PrimaryKeyNotUnique {
                    table: "T".into(),
                    attribute: "id".into(),
                },
            ))
        } else {
            None
        };
        match (fault, policy) {
            (None, _) => {
                for (k, col) in [0, 1, 3].into_iter().enumerate() {
                    codes[k].push(dicts[k].code(&f[col]));
                }
                values.push(f[2].trim().parse().expect("validated"));
            }
            (Some((_, e)), DirtyPolicy::Abort) => return Err(err(e)),
            (Some((reason, _)), DirtyPolicy::Quarantine { max_bad_rows }) => {
                if quarantined.len() >= max_bad_rows {
                    return Err(err(RelationalError::DirtyBudgetExceeded {
                        table: "T".into(),
                        quarantined: quarantined.len() + 1,
                        budget: max_bad_rows,
                        last_row: lineno,
                        last_reason: reason,
                    }));
                }
                quarantined.push(QuarantinedRow {
                    row: lineno,
                    reason,
                    raw: line,
                });
            }
        }
    }
    // Finalize in header order: id, name, num, tag.
    if dicts[0].labels.is_empty() {
        return Err(err(RelationalError::EmptyTable { table: "T".into() }));
    }
    let binner = EqualWidthBinner::fit("num", &values, 3).map_err(err)?;
    let [id_d, name_d, tag_d] = dicts;
    let [id_c, name_c, tag_c] = codes;
    let columns = vec![
        (Domain::labelled("id", id_d.labels), id_c),
        (Domain::labelled("name", name_d.labels), name_c),
        (
            binner.domain(),
            values.iter().map(|&v| binner.bin(v)).collect(),
        ),
        (Domain::labelled("tag", tag_d.labels), tag_c),
    ];
    Ok((columns, quarantined, total))
}

/// The product of a real load in the oracle's shape.
fn as_oracle(load: Result<CsvLoad, RelationalError>) -> Result<OracleLoad, String> {
    let load = load.map_err(|e| format!("{e:?}"))?;
    let columns = load
        .table
        .columns()
        .iter()
        .map(|c| ((**c.domain()).clone(), c.codes().to_vec()))
        .collect();
    Ok((columns, load.quarantined, load.total_rows))
}

/// The streaming reader over a `capacity`-byte read buffer, densified.
fn streamed(
    bytes: &[u8],
    capacity: usize,
    policy: DirtyPolicy,
    opts: &IngestOptions,
) -> Result<OracleLoad, String> {
    as_oracle(
        read_csv_chunked(
            "T",
            std::io::BufReader::with_capacity(capacity, bytes),
            &oracle_specs(),
            ',',
            policy,
            opts,
        )
        .and_then(|l| {
            Ok(CsvLoad {
                table: l.table.into_table()?,
                quarantined: l.quarantined,
                total_rows: l.total_rows,
            })
        }),
    )
}

const POLICIES: [DirtyPolicy; 3] = [
    DirtyPolicy::Abort,
    DirtyPolicy::Quarantine { max_bad_rows: 2 },
    DirtyPolicy::Quarantine {
        max_bad_rows: usize::MAX,
    },
];

proptest! {
    /// The borrowed-field reader loads exactly what the old `lines()` +
    /// char-by-char reader loaded: same table, same row count, same
    /// quarantine report, same first error — through the in-memory
    /// wrapper and through the streaming reader with a tiny read buffer
    /// and tiny morsels.
    #[test]
    fn borrowed_field_ingest_matches_the_owned_field_oracle(
        lines in proptest::collection::vec(
            (0..12u8, 0..10u8, 0..8u8, 0..8u8, 0..6u8, 0..4u8),
            0..24,
        ),
        lead in any_bool(),
        quoted_header in any_bool(),
        policy_ix in 0..3usize,
    ) {
        let text = csv_text(lead, quoted_header, &lines);
        let policy = POLICIES[policy_ix];
        let want = oracle_load(text.as_bytes(), policy);
        let specs = oracle_specs();
        prop_assert_eq!(as_oracle(read_csv_lenient("T", &text, &specs, ',', policy)), want.clone());
        let opts = IngestOptions {
            morsel_rows: Some(3),
            ..IngestOptions::dense()
        };
        prop_assert_eq!(streamed(text.as_bytes(), 5, policy, &opts), want);
    }

    /// The arena dictionary encodes exactly what the `HashMap` encoder
    /// did, over dirty CSVs with word-boundary and unicode labels, a
    /// few hundred distinct tags (several dictionary resizes), more
    /// duplicate keys and an invalid UTF-8 line that may follow a bad
    /// row: identical domains (label order and codes), quarantine list,
    /// row count and first error, at morsel sizes 1, 7 and the default
    /// and under a spill-forcing budget, with both dirty-row policies.
    #[test]
    fn arena_dictionary_ingest_matches_the_hashmap_oracle(
        lines in proptest::collection::vec(
            (0..16u8, 0..200u8, 0..16u8, 0..16u8, 0..=255u8, 0..4u8),
            0..48,
        ),
        lead in any_bool(),
        bad_utf8_at in 0..160usize,
        policy_ix in 0..3usize,
    ) {
        let mut bytes = csv_text(lead, false, &lines).into_bytes();
        let cut = bytes.iter().enumerate().filter(|&(_, &b)| b == b'\n').nth(bad_utf8_at);
        if let Some((at, _)) = cut {
            bytes.splice(at + 1..at + 1, b"k\xff,a,1,t0\n".iter().copied());
        }
        let policy = POLICIES[policy_ix];
        let want = oracle_load(&bytes, policy);
        for (morsel_rows, mem_budget) in [(Some(1), None), (Some(7), None), (None, None), (None, Some(64))] {
            let opts = IngestOptions { morsel_rows, mem_budget, spill_dir: None };
            prop_assert_eq!(
                streamed(&bytes, 7, policy, &opts),
                want.clone(),
                "morsel {:?} budget {:?}",
                morsel_rows,
                mem_budget
            );
        }
    }
}
