//! CSV import/export for nominal tables.
//!
//! A downstream user's data arrives as delimited text. This module reads
//! a CSV into a [`Table`] (building labelled domains from the observed
//! categories, with optional equal-width binning for numeric columns)
//! and writes tables back out. The dialect is deliberately small: one
//! header row, a configurable delimiter, double-quote quoting with `""`
//! escapes, no embedded newlines.
//!
//! Records are tokenized by one splitter, `split_fields`, shared by the
//! streaming reader and the header helpers. It scans the line's bytes
//! and yields each field as a `Cow<str>`: a field whose decoded text is
//! one contiguous slice of the line (no quotes, or quotes only around
//! it) borrows that slice; a field that drops interior quotes or
//! unescapes `""` is copied into an owned `String`. A quote toggles
//! quoting wherever it appears, and a delimiter inside quotes is data.

use std::borrow::Cow;
use std::io::BufRead;

use crate::error::{RelationalError, Result};
use crate::schema::{AttributeDef, Role};
use crate::table::Table;

/// How one CSV column should be interpreted.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSpec {
    /// Nominal: the domain is the set of distinct strings observed, in
    /// first-appearance order.
    Nominal(AttributeDef),
    /// Numeric: parsed as `f64` and discretized with an equal-width
    /// binner of the given bin count (Sec 2.1 footnote 1).
    Numeric(AttributeDef, usize),
    /// Skip this CSV column entirely.
    Skip,
}

impl ColumnSpec {
    /// A nominal feature column.
    pub fn feature(name: &str) -> Self {
        Self::Nominal(AttributeDef::feature(name))
    }

    /// A numeric feature column binned into `bins` buckets.
    pub fn numeric_feature(name: &str, bins: usize) -> Self {
        Self::Numeric(AttributeDef::feature(name), bins)
    }

    /// A nominal target column.
    pub fn target(name: &str) -> Self {
        Self::Nominal(AttributeDef::target(name))
    }

    /// A primary-key column.
    pub fn primary_key(name: &str) -> Self {
        Self::Nominal(AttributeDef::primary_key(name))
    }

    /// A closed-domain foreign-key column referencing `table`.
    pub fn foreign_key(name: &str, table: &str) -> Self {
        Self::Nominal(AttributeDef::foreign_key(name, table))
    }
}

/// Splits one CSV record into its fields, honouring double-quote
/// quoting: the crate's one tokenizer.
///
/// A field whose text is one contiguous slice of `line` — no quotes, or
/// quotes only around it — is yielded [`Cow::Borrowed`]; only a field
/// that must drop interior quotes or unescape `""` allocates. A record
/// always has at least one field, and a trailing delimiter yields a
/// trailing empty field.
pub(crate) fn split_fields(line: &str, delimiter: char) -> Fields<'_> {
    let mut delim = [0u8; 4];
    let dlen = delimiter.encode_utf8(&mut delim).len();
    Fields {
        line,
        delim,
        dlen,
        pos: Some(0),
    }
}

/// Iterator returned by [`split_fields`].
pub(crate) struct Fields<'a> {
    line: &'a str,
    delim: [u8; 4],
    dlen: usize,
    /// Start of the next field; `None` once the last one was yielded.
    pos: Option<usize>,
}

impl<'a> Iterator for Fields<'a> {
    type Item = Cow<'a, str>;

    fn next(&mut self) -> Option<Cow<'a, str>> {
        let (line, bytes) = (self.line, self.line.as_bytes());
        let delim = &self.delim[..self.dlen];
        let mut i = self.pos?;
        // The field is `line[lo..hi]` until a second, non-adjacent
        // segment forces a copy into `owned`. Quote and delimiter bytes
        // are never UTF-8 continuation bytes, so every cut is on a char
        // boundary.
        let (mut lo, mut hi, mut owned) = (i, i, None::<String>);
        let mut push = |a: usize, b: usize| match owned.as_mut() {
            _ if a == b => {}
            Some(s) => s.push_str(&line[a..b]),
            None if lo == hi => (lo, hi) = (a, b),
            None if hi == a => hi = b,
            None => owned = Some([&line[lo..hi], &line[a..b]].concat()),
        };
        let mut seg = i;
        let mut in_quotes = false;
        loop {
            if i == bytes.len() {
                push(seg, i);
                self.pos = None;
                break;
            }
            if bytes[i] == b'"' {
                push(seg, i);
                if in_quotes && bytes.get(i + 1) == Some(&b'"') {
                    push(i, i + 1);
                    i += 2;
                } else {
                    in_quotes = !in_quotes;
                    i += 1;
                }
                seg = i;
            } else if !in_quotes && bytes[i] == delim[0] && bytes[i..].starts_with(delim) {
                push(seg, i);
                self.pos = Some(i + delim.len());
                break;
            } else {
                i += 1;
            }
        }
        Some(owned.map_or(Cow::Borrowed(&line[lo..hi]), Cow::Owned))
    }
}

/// Parses the header row of a CSV (the first non-blank line), honouring
/// the same quoting rules as the record reader. Returns `None` for an
/// empty input. Schema miners use this to enumerate columns before they
/// know any roles.
pub fn csv_header(text: &str, delimiter: char) -> Option<Vec<String>> {
    text.lines()
        .find(|l| !l.trim().is_empty())
        .map(|l| owned_fields(l, delimiter))
}

/// Every field of `line`, owned (header rows).
pub(crate) fn owned_fields(line: &str, delimiter: char) -> Vec<String> {
    split_fields(line, delimiter).map(Cow::into_owned).collect()
}

/// [`csv_header`] for a file on disk: reads only up to the first
/// non-blank line through a buffered reader instead of loading the whole
/// file. `Ok(None)` means the file exists but holds no non-blank line.
pub fn csv_header_path(path: &std::path::Path, delimiter: char) -> Result<Option<Vec<String>>> {
    let io_err = |e: std::io::Error| RelationalError::Io {
        context: format!("read header of {}", path.display()),
        message: e.to_string(),
    };
    let file = std::fs::File::open(path).map_err(io_err)?;
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(io_err)?;
        if !line.trim().is_empty() {
            return Ok(Some(owned_fields(&line, delimiter)));
        }
    }
    Ok(None)
}

/// Appends one field, quoted if it contains the delimiter, a quote, or
/// leading / trailing whitespace (a quote inside is doubled).
fn push_field(out: &mut String, field: &str, delimiter: char) {
    if field.contains(delimiter) || field.contains('"') || field != field.trim() {
        out.push('"');
        for (i, part) in field.split('"').enumerate() {
            if i > 0 {
                out.push_str("\"\"");
            }
            out.push_str(part);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// What to do with a data row that fails validation (wrong field count,
/// unparseable numeric, duplicate primary key).
///
/// The paper's setting assumes clean closed-domain data; real exports are
/// dirtier. `Abort` keeps the strict semantics (first bad row is a typed
/// error); `Quarantine` degrades gracefully by setting bad rows aside, up
/// to a per-table budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirtyPolicy {
    /// Fail on the first bad row (strict; the default).
    #[default]
    Abort,
    /// Set bad rows aside and keep loading, up to `max_bad_rows`; one row
    /// past the budget the load fails with
    /// [`RelationalError::DirtyBudgetExceeded`].
    Quarantine { max_bad_rows: usize },
}

impl DirtyPolicy {
    /// Parses a CLI value: `abort`, `quarantine` (unlimited budget), or
    /// `quarantine:N` (budget of `N` bad rows per table).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "abort" => Some(Self::Abort),
            "quarantine" => Some(Self::Quarantine {
                max_bad_rows: usize::MAX,
            }),
            _ => s
                .strip_prefix("quarantine:")?
                .parse()
                .ok()
                .map(|n| Self::Quarantine { max_bad_rows: n }),
        }
    }
}

/// One data row set aside by [`read_csv_lenient`], with enough context to
/// find it in the source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// 0-based data-row index (header excluded, blank lines skipped).
    pub row: usize,
    /// Why the row was rejected.
    pub reason: String,
    /// The raw line as it appeared in the input.
    pub raw: String,
}

/// Result of a lenient CSV load: the table built from clean rows plus the
/// quarantine report. `quarantined.len() + table.n_rows() == total_rows`.
#[derive(Debug, Clone)]
pub struct CsvLoad {
    /// Table built from the rows that passed validation.
    pub table: Table,
    /// Rows set aside, in input order.
    pub quarantined: Vec<QuarantinedRow>,
    /// Data rows seen in the input (clean + quarantined).
    pub total_rows: usize,
}

/// Reads a CSV string into a validated [`Table`].
///
/// `specs` are matched to CSV columns by header name; CSV columns without
/// a spec are an error (be explicit), and spec'd columns missing from the
/// header are an error too.
pub fn read_csv(
    name: &str,
    text: &str,
    specs: &[(&str, ColumnSpec)],
    delimiter: char,
) -> Result<Table> {
    read_csv_lenient(name, text, specs, delimiter, DirtyPolicy::Abort).map(|load| load.table)
}

/// Reads a CSV string, applying `policy` to rows that fail validation.
///
/// Row-level faults — wrong field count (including rows mangled by an
/// unterminated quote), unparseable numeric fields, duplicate primary-key
/// values — are either fatal ([`DirtyPolicy::Abort`], preserving
/// [`read_csv`]'s error types) or quarantined up to the policy's budget.
/// File-level faults (missing header, unknown columns, empty table) are
/// always fatal: there is no sensible degraded interpretation.
///
/// Since the out-of-core PR this is a thin wrapper over the streaming
/// chunked ingester ([`crate::ingest::read_csv_chunked`]) with no memory
/// budget: one code path implements the validation rules, and the
/// in-memory and out-of-core loads agree by construction.
pub fn read_csv_lenient(
    name: &str,
    text: &str,
    specs: &[(&str, ColumnSpec)],
    delimiter: char,
    policy: DirtyPolicy,
) -> Result<CsvLoad> {
    let load = crate::ingest::read_csv_chunked(
        name,
        std::io::Cursor::new(text.as_bytes()),
        specs,
        delimiter,
        policy,
        &crate::ingest::IngestOptions::dense(),
    )?;
    Ok(CsvLoad {
        table: load.table.into_table()?,
        quarantined: load.quarantined,
        total_rows: load.total_rows,
    })
}

/// Writes a table as CSV (header + one record per row), using each
/// domain's labels. Fields go straight into the output; one scratch
/// buffer holds the label being written.
pub fn write_csv(table: &Table, delimiter: char) -> String {
    let mut out = String::new();
    for (i, a) in table.schema().attributes().iter().enumerate() {
        if i > 0 {
            out.push(delimiter);
        }
        push_field(&mut out, &a.name, delimiter);
    }
    out.push('\n');
    let mut label = String::new();
    for row in 0..table.n_rows() {
        for (i, c) in table.columns().iter().enumerate() {
            if i > 0 {
                out.push(delimiter);
            }
            label.clear();
            c.domain().push_label(c.get(row), &mut label);
            push_field(&mut out, &label, delimiter);
        }
        out.push('\n');
    }
    out
}

/// Convenience: which roles a round-tripped column keeps (labels only
/// survive for [`ColumnSpec::Nominal`]; binned numerics become interval
/// labels).
pub fn roles(table: &Table) -> Vec<(&str, &Role)> {
    table
        .schema()
        .attributes()
        .iter()
        .map(|a| (a.name.as_str(), &a.role))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    const CSV: &str = "\
CustomerID,Churn,Gender,Age,EmployerID
c1,yes,F,34.5,e1
c2,no,M,51.0,e2
c3,no,F,28.2,e1
c4,yes,M,61.9,e3
";

    fn specs() -> Vec<(&'static str, ColumnSpec)> {
        vec![
            ("CustomerID", ColumnSpec::primary_key("CustomerID")),
            ("Churn", ColumnSpec::target("Churn")),
            ("Gender", ColumnSpec::feature("Gender")),
            ("Age", ColumnSpec::numeric_feature("Age", 4)),
            (
                "EmployerID",
                ColumnSpec::foreign_key("EmployerID", "Employers"),
            ),
        ]
    }

    #[test]
    fn reads_nominal_and_numeric() {
        let t = read_csv("Customers", CSV, &specs(), ',').unwrap();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.schema().len(), 5);
        let churn = t.column_by_name("Churn").unwrap();
        assert_eq!(churn.domain().size(), 2);
        assert_eq!(churn.domain().label(0), "yes");
        assert_eq!(churn.codes(), &[0, 1, 1, 0]);
        let age = t.column_by_name("Age").unwrap();
        assert_eq!(age.domain().size(), 4);
        assert_eq!(age.get(0), 0); // 34.5 lands in the first bin of [28.2, 61.9]
        assert!(t.schema().get("EmployerID").unwrap().role.is_foreign_key());
        assert_eq!(t.schema().target(), Some(1));
    }

    #[test]
    fn skip_columns() {
        let mut s = specs();
        s[2] = ("Gender", ColumnSpec::Skip);
        let t = read_csv("Customers", CSV, &s, ',').unwrap();
        assert!(t.schema().index_of("Gender").is_none());
        assert_eq!(t.schema().len(), 4);
    }

    #[test]
    fn missing_spec_is_error() {
        let mut s = specs();
        s.remove(2);
        assert!(matches!(
            read_csv("Customers", CSV, &s, ','),
            Err(RelationalError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn spec_for_absent_column_is_error() {
        let mut s = specs();
        s.push(("Ghost", ColumnSpec::feature("Ghost")));
        assert!(read_csv("Customers", CSV, &s, ',').is_err());
    }

    #[test]
    fn ragged_record_is_error() {
        let bad = "a,b\n1,2\n3\n";
        let s = vec![
            ("a", ColumnSpec::feature("a")),
            ("b", ColumnSpec::feature("b")),
        ];
        assert!(matches!(
            read_csv("T", bad, &s, ','),
            Err(RelationalError::ColumnLengthMismatch { .. })
        ));
    }

    #[test]
    fn quoting_roundtrip() {
        let csv = "name,note\nalice,\"hello, world\"\nbob,\"say \"\"hi\"\"\"\n";
        let s = vec![
            ("name", ColumnSpec::feature("name")),
            ("note", ColumnSpec::feature("note")),
        ];
        let t = read_csv("T", csv, &s, ',').unwrap();
        let note = t.column_by_name("note").unwrap();
        assert_eq!(note.domain().label(0), "hello, world");
        assert_eq!(note.domain().label(1), "say \"hi\"");
        // Write back and re-read: identical labels.
        let text = write_csv(&t, ',');
        let t2 = read_csv("T", &text, &s, ',').unwrap();
        assert_eq!(
            t2.column_by_name("note").unwrap().domain().label(1),
            "say \"hi\""
        );
    }

    #[test]
    fn write_csv_quotes_exactly_the_fields_that_need_it() {
        let labels = Domain::from_labels("l", &["a,b", "say \"hi\"", " lead", "trail ", "plain"]);
        let t = crate::TableBuilder::new("T")
            .feature("note, quoted", labels.shared(), vec![0, 1, 2, 3, 4])
            .feature("id", Domain::indexed("id", 5).shared(), vec![0, 1, 2, 3, 4])
            .feature(
                " sp",
                Domain::indexed(" sp", 5).shared(),
                vec![4, 3, 2, 1, 0],
            )
            .build()
            .unwrap();
        assert_eq!(
            write_csv(&t, ','),
            "\"note, quoted\",id,\" sp\"\n\
             \"a,b\",id#0,\" sp#4\"\n\
             \"say \"\"hi\"\"\",id#1,\" sp#3\"\n\
             \" lead\",id#2,\" sp#2\"\n\
             \"trail \",id#3,\" sp#1\"\n\
             plain,id#4,\" sp#0\"\n"
        );
        // Another delimiter quotes by its own rule.
        assert!(write_csv(&t, ';').starts_with("note, quoted;id;\" sp\"\na,b;id#0;"));
    }

    #[test]
    fn write_then_read_preserves_codes_for_nominal() {
        let t = read_csv("Customers", CSV, &specs(), ',').unwrap();
        let nominal_only = t.project(&["Churn", "Gender", "EmployerID"]).unwrap();
        let text = write_csv(&nominal_only, ',');
        let s = vec![
            ("Churn", ColumnSpec::target("Churn")),
            ("Gender", ColumnSpec::feature("Gender")),
            (
                "EmployerID",
                ColumnSpec::foreign_key("EmployerID", "Employers"),
            ),
        ];
        let t2 = read_csv("Customers", &text, &s, ',').unwrap();
        assert_eq!(
            t2.column_by_name("Churn").unwrap().codes(),
            nominal_only.column_by_name("Churn").unwrap().codes()
        );
    }

    #[test]
    fn alternate_delimiter() {
        let csv = "a|b\nx|y\n";
        let s = vec![
            ("a", ColumnSpec::feature("a")),
            ("b", ColumnSpec::feature("b")),
        ];
        let t = read_csv("T", csv, &s, '|').unwrap();
        assert_eq!(t.n_rows(), 1);
    }

    #[test]
    fn empty_csv_is_error() {
        assert!(matches!(
            read_csv("T", "", &[], ','),
            Err(RelationalError::EmptyTable { .. })
        ));
    }

    #[test]
    fn non_numeric_data_in_numeric_column() {
        let csv = "x\nabc\n";
        let s = vec![("x", ColumnSpec::numeric_feature("x", 2))];
        assert!(matches!(
            read_csv("T", csv, &s, ','),
            Err(RelationalError::InvalidBinning { .. })
        ));
    }

    const DIRTY: &str = "\
CustomerID,Churn,Gender,Age,EmployerID
c1,yes,F,34.5,e1
c2,no,M,fifty-one,e2
c3,no,F
c1,yes,M,61.9,e3
c4,no,M,44.0,e2
";

    #[test]
    fn quarantine_sets_bad_rows_aside() {
        let load = read_csv_lenient(
            "Customers",
            DIRTY,
            &specs(),
            ',',
            DirtyPolicy::Quarantine { max_bad_rows: 5 },
        )
        .unwrap();
        assert_eq!(load.total_rows, 5);
        assert_eq!(load.table.n_rows(), 2);
        assert_eq!(load.quarantined.len(), 3);
        assert_eq!(
            load.table.n_rows() + load.quarantined.len(),
            load.total_rows
        );
        // Row 1: bad numeric. Row 2: ragged. Row 3: duplicate PK.
        assert_eq!(load.quarantined[0].row, 1);
        assert!(load.quarantined[0].reason.contains("fifty-one"));
        assert_eq!(load.quarantined[1].row, 2);
        assert!(load.quarantined[1].reason.contains("expected 5 fields"));
        assert_eq!(load.quarantined[2].row, 3);
        assert!(load.quarantined[2].reason.contains("duplicate primary key"));
        assert_eq!(load.quarantined[2].raw, "c1,yes,M,61.9,e3");
        // The surviving table is the clean subset.
        let pk = load.table.column_by_name("CustomerID").unwrap();
        assert_eq!(pk.domain().label(0), "c1");
        assert_eq!(pk.domain().label(1), "c4");
    }

    #[test]
    fn quarantine_budget_exceeded_is_typed() {
        let err = read_csv_lenient(
            "Customers",
            DIRTY,
            &specs(),
            ',',
            DirtyPolicy::Quarantine { max_bad_rows: 2 },
        )
        .unwrap_err();
        match err {
            RelationalError::DirtyBudgetExceeded {
                quarantined,
                budget,
                last_row,
                ..
            } => {
                assert_eq!(quarantined, 3);
                assert_eq!(budget, 2);
                assert_eq!(last_row, 3);
            }
            other => panic!("expected DirtyBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn abort_policy_matches_strict_reader() {
        // First fault in DIRTY is the unparseable numeric on row 1.
        assert!(matches!(
            read_csv("Customers", DIRTY, &specs(), ','),
            Err(RelationalError::InvalidBinning { .. })
        ));
        let dup = "a,b\nx,1\nx,2\n";
        let s = vec![
            ("a", ColumnSpec::primary_key("a")),
            ("b", ColumnSpec::feature("b")),
        ];
        assert!(matches!(
            read_csv("T", dup, &s, ','),
            Err(RelationalError::PrimaryKeyNotUnique { .. })
        ));
    }

    #[test]
    fn unterminated_quote_quarantines_as_ragged() {
        let csv = "a,b\n\"oops,1\nx,2\n";
        let s = vec![
            ("a", ColumnSpec::feature("a")),
            ("b", ColumnSpec::feature("b")),
        ];
        let load = read_csv_lenient(
            "T",
            csv,
            &s,
            ',',
            DirtyPolicy::Quarantine { max_bad_rows: 9 },
        )
        .unwrap();
        assert_eq!(load.table.n_rows(), 1);
        assert_eq!(load.quarantined.len(), 1);
        assert_eq!(load.quarantined[0].raw, "\"oops,1");
    }

    #[test]
    fn dirty_policy_parse() {
        assert_eq!(DirtyPolicy::parse("abort"), Some(DirtyPolicy::Abort));
        assert!(matches!(
            DirtyPolicy::parse("quarantine"),
            Some(DirtyPolicy::Quarantine { .. })
        ));
        assert_eq!(
            DirtyPolicy::parse("quarantine:12"),
            Some(DirtyPolicy::Quarantine { max_bad_rows: 12 })
        );
        assert_eq!(DirtyPolicy::parse("lenient"), None);
        assert_eq!(DirtyPolicy::parse("quarantine:x"), None);
    }

    #[test]
    fn header_helper_honours_quoting() {
        assert_eq!(
            csv_header("a,\"b,c\",d\n1,2,3\n", ','),
            Some(vec!["a".to_string(), "b,c".to_string(), "d".to_string()])
        );
        assert_eq!(
            csv_header("\n\nx|y\n", '|'),
            Some(vec!["x".into(), "y".into()])
        );
        assert_eq!(csv_header("", ','), None);
        assert_eq!(csv_header("  \n\t\n", ','), None);
    }

    #[test]
    fn splitter_borrows_unless_it_must_unescape() {
        let fields: Vec<Cow<str>> = split_fields("a,\"b,c\",d\"\"e,\"f\"\"g\",", ',').collect();
        assert_eq!(fields, ["a", "b,c", "de", "f\"g", ""]);
        let owned: Vec<bool> = fields.iter().map(|f| matches!(f, Cow::Owned(_))).collect();
        assert_eq!(owned, [false, false, true, true, false]);
        assert_eq!(split_fields("", ',').collect::<Vec<_>>(), [""]);
        assert_eq!(split_fields("x→y", '→').collect::<Vec<_>>(), ["x", "y"]);
    }

    #[test]
    fn roles_helper() {
        let t = read_csv("Customers", CSV, &specs(), ',').unwrap();
        let rs = roles(&t);
        assert_eq!(rs.len(), 5);
        assert_eq!(rs[1].0, "Churn");
        assert_eq!(*rs[1].1, Role::Target);
    }
}
