//! Streaming CSV ingest under a memory budget.
//!
//! [`read_csv_chunked`] is the crate's one CSV reader: a single forward
//! pass over any [`BufRead`], encoding each column **chunk by chunk**
//! (one morsel of rows at a time, `HAMLET_MORSEL_ROWS`) and, when the
//! resident set would exceed the budget (`HAMLET_MEM_BUDGET_MB`),
//! spilling completed chunks to disk through
//! [`hamlet_obs::atomic_write`]. The product is a [`ChunkedTable`]
//! whose chunks are read back morsel-at-a-time by the scans in
//! [`crate::chunk`]. The dense reader ([`crate::csv::read_csv_lenient`])
//! streams from an in-memory cursor with no budget and densifies the
//! result, so every validation rule — field-count checks, numeric
//! parses, duplicate-PK detection, quarantine ordering and budgets,
//! first-appearance nominal dictionaries, equal-width binning over the
//! global min/max — runs through this one code path.
//!
//! **Borrowed fields.** The hot loop allocates per distinct value, not
//! per cell or row. Each line is read into one reused buffer (stripped
//! of `\n` / `\r\n` exactly as `BufRead::lines` does; blank lines are
//! skipped and not numbered). The `csv` module's splitter yields each
//! field as a `Cow<str>` that borrows from that buffer unless it must
//! drop quotes or unescape `""`; the count of such owned fields is
//! added to `hamlet_ingest_unescaped_fields_total` once per load.
//! Each nominal column encodes through one `LabelDict` (`dict.rs`),
//! probed by `&str`, so a label is copied into its arena only on its
//! first appearance; the duplicate-key check probes the primary-key
//! column's own dictionary without inserting. Numeric fields are parsed
//! once, while the row is validated, and the sinks take those values.
//! Only a quarantined row copies its raw line.
//!
//! `tests/proptests_relational.rs` pins the reader against an oracle
//! built on `lines()`, a char-by-char splitter and the
//! `HashMap<String, u32>` encoder the dictionary replaced, at several
//! morsel sizes and under a spill-forcing budget;
//! `tests/proptests_dataplane.rs` pins that a budget-forced spilled
//! load is bit-for-bit identical to the dense one.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::sync::Arc;

use crate::binning::EqualWidthBinner;
use crate::chunk::{
    write_codes_chunk, write_values_chunk, Chunk, ChunkedColumn, ChunkedTable, SpillDir,
};
use crate::csv::{owned_fields, split_fields, ColumnSpec, DirtyPolicy, QuarantinedRow};
use crate::dict::LabelDict;
use crate::domain::Domain;
use crate::error::{RelationalError, Result};
use crate::schema::{Role, Schema};

/// Knobs for a streaming load.
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// Rows per chunk; `None` uses the process-wide
    /// [`hamlet_obs::resolved_morsel_rows`]. Shrunk automatically when a
    /// budget is too small to hold even one full morsel of every column.
    pub morsel_rows: Option<usize>,
    /// Resident-set budget in **bytes** for the encoded columns; `None`
    /// keeps everything in memory (the dense path).
    pub mem_budget: Option<usize>,
    /// Parent directory for spill files; `None` uses the OS temp dir.
    pub spill_dir: Option<PathBuf>,
}

impl IngestOptions {
    /// No budget, default morsel size: the dense path's options.
    pub fn dense() -> Self {
        Self::default()
    }

    /// Resolves options from the environment: morsel size from
    /// `HAMLET_MORSEL_ROWS` (non-strict, cannot change results) and the
    /// budget from `HAMLET_MEM_BUDGET_MB` (strict — an invalid budget is
    /// a typed error, never a silent unbudgeted run).
    pub fn from_env() -> Result<Self> {
        let budget_mb = hamlet_obs::env::var_where(
            "HAMLET_MEM_BUDGET_MB",
            "a positive integer (MiB)",
            |&mb: &usize| mb > 0,
        )
        .map_err(|e| RelationalError::Env {
            reason: e.to_string(),
        })?;
        Ok(Self {
            morsel_rows: None,
            mem_budget: budget_mb.map(|mb| mb.saturating_mul(1024 * 1024)),
            spill_dir: None,
        })
    }

    fn resolved_morsel_rows(&self) -> usize {
        self.morsel_rows
            .unwrap_or_else(hamlet_obs::resolved_morsel_rows)
            .max(1)
    }
}

/// Result of a streaming lenient load: the chunked table plus the same
/// quarantine report the dense reader produces.
/// `quarantined.len() + table.n_rows() == total_rows`.
#[derive(Debug, Clone)]
pub struct ChunkedCsvLoad {
    /// Table built from the rows that passed validation; columns may be
    /// partly on disk when a budget forced spilling.
    pub table: ChunkedTable,
    /// Rows set aside, in input order.
    pub quarantined: Vec<QuarantinedRow>,
    /// Data rows seen in the input (clean + quarantined).
    pub total_rows: usize,
}

/// Encoded bytes one clean row contributes across all non-skip columns
/// (nominal codes are `u32`, numeric values are staged as `f64`).
fn row_bytes(specs: &[&ColumnSpec]) -> usize {
    specs
        .iter()
        .map(|s| match s {
            ColumnSpec::Nominal(_) => 4,
            ColumnSpec::Numeric(..) => 8,
            ColumnSpec::Skip => 0,
        })
        .sum()
}

/// A numeric column's staged chunk: raw `f64` values until the global
/// range is known and they can be binned.
enum ValuesChunk {
    Mem(Vec<f64>),
    Spilled { file: PathBuf, rows: usize },
}

/// Per-column streaming encoder state.
enum Sink {
    Skip,
    Nominal {
        /// First-appearance codes, exactly like the dense reader.
        dict: LabelDict,
        current: Vec<u32>,
        done: Vec<Chunk>,
    },
    Numeric {
        bins: usize,
        current: Vec<f64>,
        done: Vec<ValuesChunk>,
        lo: f64,
        hi: f64,
        /// First non-finite value in row order; reported at finalize,
        /// matching [`EqualWidthBinner::fit`] on the dense vector.
        non_finite: Option<f64>,
        n_values: usize,
    },
}

impl Sink {
    fn new(spec: &ColumnSpec) -> Self {
        match spec {
            ColumnSpec::Skip => Sink::Skip,
            ColumnSpec::Nominal(_) => Sink::Nominal {
                dict: LabelDict::new(),
                current: Vec::new(),
                done: Vec::new(),
            },
            ColumnSpec::Numeric(_, bins) => Sink::Numeric {
                bins: *bins,
                current: Vec::new(),
                done: Vec::new(),
                lo: f64::INFINITY,
                hi: f64::NEG_INFINITY,
                non_finite: None,
                n_values: 0,
            },
        }
    }

    /// Codes a primary-key `label` in one probe: `Some(code)` if no
    /// earlier clean row carried it (it is interned now, and the row's
    /// push reuses `code`), `None` for a duplicate, which leaves the
    /// dictionary as it was. `Err` once the domain is full.
    fn intern_key(&mut self, label: &str, table: &str, column: &str) -> Result<Option<u32>> {
        let full = || RelationalError::DomainTooLarge {
            table: table.to_string(),
            column: column.to_string(),
        };
        match self {
            Sink::Nominal { dict, .. } => match dict.intern_new(label).ok_or_else(full)? {
                (code, true) => Ok(Some(code)),
                (_, false) => Ok(None),
            },
            // Only nominal columns can be the primary key.
            Sink::Skip | Sink::Numeric { .. } => Err(full()),
        }
    }

    /// Bytes held by completed in-memory chunks.
    fn resident_done_bytes(&self) -> usize {
        match self {
            Sink::Skip => 0,
            Sink::Nominal { done, .. } => done
                .iter()
                .map(|c| match c {
                    Chunk::Mem(v) => v.len() * 4,
                    Chunk::Spilled { .. } => 0,
                })
                .sum(),
            Sink::Numeric { done, .. } => done
                .iter()
                .map(|c| match c {
                    ValuesChunk::Mem(v) => v.len() * 8,
                    ValuesChunk::Spilled { .. } => 0,
                })
                .sum(),
        }
    }

    /// Seals the in-flight morsel into a completed chunk.
    fn complete_chunk(&mut self) {
        match self {
            Sink::Skip => {}
            Sink::Nominal { current, done, .. } => {
                if !current.is_empty() {
                    done.push(Chunk::Mem(std::mem::take(current)));
                }
            }
            Sink::Numeric { current, done, .. } => {
                if !current.is_empty() {
                    done.push(ValuesChunk::Mem(std::mem::take(current)));
                }
            }
        }
    }

    /// Writes every resident completed chunk to `dir`, replacing it with
    /// its on-disk form. `col` disambiguates files between columns.
    fn spill_done(&mut self, dir: &SpillDir, col: usize) -> Result<()> {
        match self {
            Sink::Skip => {}
            Sink::Nominal { done, .. } => {
                for (i, c) in done.iter_mut().enumerate() {
                    if let Chunk::Mem(codes) = c {
                        let file = dir.path().join(format!("c{col}-{i}.u32"));
                        write_codes_chunk(&file, codes)?;
                        *c = Chunk::Spilled {
                            file,
                            rows: codes.len(),
                        };
                    }
                }
            }
            Sink::Numeric { done, .. } => {
                for (i, c) in done.iter_mut().enumerate() {
                    if let ValuesChunk::Mem(values) = c {
                        let file = dir.path().join(format!("c{col}-{i}.f64"));
                        write_values_chunk(&file, values)?;
                        *c = ValuesChunk::Spilled {
                            file,
                            rows: values.len(),
                        };
                    }
                }
            }
        }
        Ok(())
    }
}

/// Empties `v` and hands its allocation back under a fresh lifetime, so
/// one field vector serves every record of a load. `v` is empty, so the
/// map never runs; the in-place `collect` keeps the buffer.
fn recycle<'b>(mut v: Vec<Cow<'_, str>>) -> Vec<Cow<'b, str>> {
    v.clear();
    v.into_iter().map(|f| Cow::Owned(f.into_owned())).collect()
}

/// Streams a CSV from any buffered reader into a [`ChunkedTable`],
/// applying `policy` to rows that fail validation — the out-of-core
/// generalization of [`crate::csv::read_csv_lenient`] (identical
/// validation rules, error types, and quarantine semantics; that
/// function is now a wrapper over this one).
///
/// With `opts.mem_budget` set, completed chunks spill to disk once the
/// resident encoded set crosses half the budget, so peak memory stays
/// bounded no matter how many rows stream past. The returned table holds
/// its [`SpillDir`] alive; chunk files are deleted when the last column
/// referencing them drops.
pub fn read_csv_chunked<R: BufRead>(
    name: &str,
    mut reader: R,
    specs: &[(&str, ColumnSpec)],
    delimiter: char,
    policy: DirtyPolicy,
    opts: &IngestOptions,
) -> Result<ChunkedCsvLoad> {
    let _span = hamlet_obs::span!("relational.ingest_stream", table = name);
    let io_err = |e: std::io::Error| RelationalError::Io {
        context: format!("stream table '{name}'"),
        message: e.to_string(),
    };

    // Pull non-blank lines into one reused buffer, exactly like
    // `reader.lines().filter(|l| !l.trim().is_empty())`: strip one `\n`
    // and then one `\r` before it.
    let mut line = String::new();
    let mut bytes = 0usize;
    let mut next_line = |line: &mut String| -> Result<bool> {
        loop {
            line.clear();
            let n = reader.read_line(line).map_err(io_err)?;
            if n == 0 {
                return Ok(false);
            }
            bytes += n;
            if line.ends_with('\n') {
                line.pop();
                if line.ends_with('\r') {
                    line.pop();
                }
            }
            if !line.trim().is_empty() {
                return Ok(true);
            }
        }
    };
    if !next_line(&mut line)? {
        return Err(RelationalError::EmptyTable {
            table: name.to_string(),
        });
    }
    let header_fields = owned_fields(&line, delimiter);

    // Map CSV column position -> spec (same error order as the dense
    // reader: unknown CSV column first, then spec'd-but-absent).
    let spec_of: HashMap<&str, &ColumnSpec> = specs.iter().map(|(n, s)| (*n, s)).collect();
    let mut col_specs: Vec<&ColumnSpec> = Vec::with_capacity(header_fields.len());
    for h in &header_fields {
        let spec = spec_of
            .get(h.as_str())
            .ok_or_else(|| RelationalError::UnknownAttribute {
                table: name.to_string(),
                attribute: h.clone(),
            })?;
        col_specs.push(spec);
    }
    for (n, _) in specs {
        if !header_fields.iter().any(|h| h == n) {
            return Err(RelationalError::UnknownAttribute {
                table: name.to_string(),
                attribute: n.to_string(),
            });
        }
    }

    // Positions needing per-row validation beyond the field count.
    let numeric_cols: Vec<(usize, &str)> = col_specs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s {
            ColumnSpec::Numeric(def, _) => Some((i, def.name.as_str())),
            _ => None,
        })
        .collect();
    let pk_col: Option<(usize, &str)> = col_specs.iter().enumerate().find_map(|(i, s)| match s {
        ColumnSpec::Nominal(def) if matches!(def.role, Role::PrimaryKey) => {
            Some((i, def.name.as_str()))
        }
        _ => None,
    });

    // Morsel geometry: under a budget, shrink the morsel so one full
    // in-flight morsel of every column fits in a quarter of it (the
    // result is chunk-size-invariant, so this cannot change anything but
    // peak memory).
    let per_row = row_bytes(&col_specs).max(1);
    let mut morsel_rows = opts.resolved_morsel_rows();
    if let Some(budget) = opts.mem_budget {
        let fit = (budget / 4 / per_row).max(16);
        morsel_rows = morsel_rows.min(fit);
    }
    hamlet_obs::gauge_set!("hamlet_morsel_bytes", morsel_rows * per_row);
    // Spill once resident completed chunks cross half the budget.
    let spill_at = opts.mem_budget.map(|b| b / 2);

    let mut sinks: Vec<Sink> = col_specs.iter().map(|s| Sink::new(s)).collect();
    let mut spill: Option<Arc<SpillDir>> = None;
    let mut spilling = false;

    let mut quarantined: Vec<QuarantinedRow> = Vec::new();
    let mut total_rows = 0usize;
    let mut clean_rows = 0usize;
    let mut unescaped = 0usize;
    // Per-record scratch, reused across records: the split fields and
    // the numeric values parsed while validating them.
    let mut spare: Vec<Cow<'static, str>> = Vec::with_capacity(header_fields.len());
    let mut parsed: Vec<f64> = Vec::with_capacity(numeric_cols.len());

    while next_line(&mut line)? {
        let lineno = total_rows;
        total_rows += 1;
        let mut fields = recycle(std::mem::take(&mut spare));
        fields.extend(split_fields(&line, delimiter));
        unescaped += fields.iter().filter(|f| matches!(f, Cow::Owned(_))).count();
        parsed.clear();
        let mut key_code = None;
        let fault: Option<(String, RelationalError)> = if fields.len() != header_fields.len() {
            Some((
                format!(
                    "expected {} fields, found {}",
                    header_fields.len(),
                    fields.len()
                ),
                RelationalError::ColumnLengthMismatch {
                    table: name.to_string(),
                    column: format!("<record {}>", lineno + 2),
                    expected: header_fields.len(),
                    actual: fields.len(),
                },
            ))
        } else if let Some((i, col)) = numeric_cols
            .iter()
            .find(|(i, _)| fields[*i].trim().parse().map(|v| parsed.push(v)).is_err())
        {
            Some((
                format!(
                    "column '{}': unparseable numeric value '{}'",
                    col, fields[*i]
                ),
                RelationalError::InvalidBinning {
                    reason: format!("column '{col}' has non-numeric data"),
                },
            ))
        } else if let Some((i, col)) = pk_col {
            // Last, so only a row that is otherwise clean interns its key.
            match sinks[i].intern_key(&fields[i], name, col)? {
                Some(code) => {
                    key_code = Some((i, code));
                    None
                }
                None => Some((
                    format!("duplicate primary key '{}' in column '{}'", fields[i], col),
                    RelationalError::PrimaryKeyNotUnique {
                        table: name.to_string(),
                        attribute: col.to_string(),
                    },
                )),
            }
        } else {
            None
        };
        match fault {
            None => {
                let mut values = parsed.iter();
                for (col, (sink, f)) in sinks.iter_mut().zip(fields.drain(..)).enumerate() {
                    match sink {
                        Sink::Skip => {}
                        Sink::Nominal { dict, current, .. } => {
                            let code = match key_code {
                                Some((key_col, code)) if key_col == col => code,
                                _ => dict.intern(&f).ok_or_else(|| {
                                    RelationalError::DomainTooLarge {
                                        table: name.to_string(),
                                        column: header_fields[col].clone(),
                                    }
                                })?,
                            };
                            current.push(code);
                        }
                        Sink::Numeric {
                            current,
                            lo,
                            hi,
                            non_finite,
                            n_values,
                            ..
                        } => {
                            // One value was parsed per numeric column
                            // above; the fallback cannot happen, but
                            // stay abort-free.
                            let v = values.next().copied().unwrap_or(f64::NAN);
                            if !v.is_finite() && non_finite.is_none() {
                                *non_finite = Some(v);
                            }
                            *lo = lo.min(v);
                            *hi = hi.max(v);
                            *n_values += 1;
                            current.push(v);
                        }
                    }
                }
                clean_rows += 1;
                if clean_rows.is_multiple_of(morsel_rows) {
                    for s in sinks.iter_mut() {
                        s.complete_chunk();
                    }
                    if let Some(at) = spill_at {
                        let resident: usize = sinks.iter().map(Sink::resident_done_bytes).sum();
                        if spilling || resident > at {
                            spilling = true;
                            let dir = match &spill {
                                Some(d) => Arc::clone(d),
                                None => {
                                    let d = SpillDir::create(opts.spill_dir.as_deref())?;
                                    spill = Some(Arc::clone(&d));
                                    d
                                }
                            };
                            for (col, s) in sinks.iter_mut().enumerate() {
                                s.spill_done(&dir, col)?;
                            }
                        }
                    }
                }
            }
            Some((reason, err)) => match policy {
                DirtyPolicy::Abort => return Err(err),
                DirtyPolicy::Quarantine { max_bad_rows } => {
                    if quarantined.len() >= max_bad_rows {
                        return Err(RelationalError::DirtyBudgetExceeded {
                            table: name.to_string(),
                            quarantined: quarantined.len() + 1,
                            budget: max_bad_rows,
                            last_row: lineno,
                            last_reason: reason,
                        });
                    }
                    quarantined.push(QuarantinedRow {
                        row: lineno,
                        reason,
                        raw: line.clone(),
                    });
                }
            },
        }
        spare = recycle(fields);
    }
    hamlet_obs::counter_add!("hamlet_ingest_bytes_total", bytes);
    hamlet_obs::counter_add!("hamlet_ingest_unescaped_fields_total", unescaped);
    if !quarantined.is_empty() {
        hamlet_obs::counter_add!("hamlet_dirty_rows_quarantined_total", quarantined.len());
    }

    // Seal the final partial morsel.
    for s in sinks.iter_mut() {
        s.complete_chunk();
    }

    // Finalize columns in header order — the same order (and therefore
    // the same first-error) as the dense reader's build loop.
    let mut defs = Vec::new();
    let mut columns = Vec::new();
    let mut labels = 0usize;
    for (i, (spec, sink)) in col_specs.iter().zip(sinks).enumerate() {
        match (*spec, sink) {
            (ColumnSpec::Skip, _) => {}
            (ColumnSpec::Nominal(def), Sink::Nominal { dict, done, .. }) => {
                if dict.is_empty() {
                    return Err(RelationalError::EmptyTable {
                        table: name.to_string(),
                    });
                }
                labels += dict.len();
                let domain = Domain::labelled(&def.name, dict.into_labels()).shared();
                defs.push(def.clone());
                columns.push(ChunkedColumn::from_parts(
                    domain,
                    morsel_rows,
                    done,
                    spill.clone(),
                )?);
            }
            (
                ColumnSpec::Numeric(def, _),
                Sink::Numeric {
                    bins,
                    done,
                    lo,
                    hi,
                    non_finite,
                    n_values,
                    ..
                },
            ) => {
                // Replicates `EqualWidthBinner::fit` on the dense vector:
                // empty check, first non-finite in row order, then the
                // lo==hi widening.
                if n_values == 0 {
                    return Err(RelationalError::InvalidBinning {
                        reason: "cannot fit binner on empty data".into(),
                    });
                }
                if let Some(v) = non_finite {
                    return Err(RelationalError::InvalidBinning {
                        reason: format!("non-finite value {v}"),
                    });
                }
                let (lo, hi) = if lo == hi {
                    (lo - 0.5, hi + 0.5)
                } else {
                    (lo, hi)
                };
                let binner = EqualWidthBinner::new(&def.name, lo, hi, bins)?;
                let domain = Arc::new(binner.domain());
                // Bin each staged chunk; spilled value chunks are read
                // back one at a time and re-spilled as code chunks.
                let mut chunks = Vec::with_capacity(done.len());
                for c in done {
                    match c {
                        ValuesChunk::Mem(values) => {
                            chunks
                                .push(Chunk::Mem(values.iter().map(|&v| binner.bin(v)).collect()));
                        }
                        ValuesChunk::Spilled { file, rows } => {
                            let values = crate::chunk::read_values_chunk(&file, rows)?;
                            let codes: Vec<u32> = values.iter().map(|&v| binner.bin(v)).collect();
                            let out = file.with_extension("u32b");
                            write_codes_chunk(&out, &codes)?;
                            let _ = std::fs::remove_file(&file);
                            chunks.push(Chunk::Spilled { file: out, rows });
                        }
                    }
                }
                defs.push(def.clone());
                columns.push(ChunkedColumn::from_parts(
                    domain,
                    morsel_rows,
                    chunks,
                    spill.clone(),
                )?);
            }
            // Sinks are created from the very specs we match on, so the
            // arms above are exhaustive in practice.
            (_, _) => {
                return Err(RelationalError::Io {
                    context: format!("stream table '{name}'"),
                    message: format!("column {i}: sink/spec mismatch"),
                })
            }
        }
    }

    let schema = Schema::new(name, defs)?;
    let table = ChunkedTable::new(name, schema, columns)?;
    hamlet_obs::counter_add!("hamlet_ingest_rows_total", clean_rows);
    hamlet_obs::counter_add!("hamlet_ingest_labels_total", labels);
    Ok(ChunkedCsvLoad {
        table,
        quarantined,
        total_rows,
    })
}

/// Streams a CSV **file** into a [`ChunkedTable`] through a buffered
/// reader — never holds the file text in memory (satellite 1: the
/// whole-file-into-`String` read is gone from every file-backed path).
pub fn read_csv_file_chunked(
    name: &str,
    path: &std::path::Path,
    specs: &[(&str, ColumnSpec)],
    delimiter: char,
    policy: DirtyPolicy,
    opts: &IngestOptions,
) -> Result<ChunkedCsvLoad> {
    let file = std::fs::File::open(path).map_err(|e| RelationalError::Io {
        context: format!("open {}", path.display()),
        message: e.to_string(),
    })?;
    read_csv_chunked(
        name,
        std::io::BufReader::new(file),
        specs,
        delimiter,
        policy,
        opts,
    )
}

/// Streams a CSV file and densifies the result: a drop-in replacement
/// for `read_to_string` + [`crate::csv::read_csv_lenient`] that reads
/// the file incrementally and honors `HAMLET_MEM_BUDGET_MB` /
/// `HAMLET_MORSEL_ROWS` during the ingest (the returned table is dense
/// either way; the budget bounds the *transient* ingest state).
pub fn read_csv_file_lenient(
    name: &str,
    path: &std::path::Path,
    specs: &[(&str, ColumnSpec)],
    delimiter: char,
    policy: DirtyPolicy,
) -> Result<crate::csv::CsvLoad> {
    let opts = IngestOptions::from_env()?;
    let load = read_csv_file_chunked(name, path, specs, delimiter, policy, &opts)?;
    Ok(crate::csv::CsvLoad {
        table: load.table.into_table()?,
        quarantined: load.quarantined,
        total_rows: load.total_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_csv_lenient;

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

    fn chunked(text: &str, opts: &IngestOptions) -> Result<ChunkedCsvLoad> {
        read_csv_chunked(
            "Customers",
            std::io::Cursor::new(text.as_bytes()),
            &specs(),
            ',',
            DirtyPolicy::Abort,
            opts,
        )
    }

    #[test]
    fn streamed_load_matches_dense_reader() {
        let dense = read_csv_lenient("Customers", CSV, &specs(), ',', DirtyPolicy::Abort).unwrap();
        for morsel in [1, 2, 3, 100] {
            let opts = IngestOptions {
                morsel_rows: Some(morsel),
                ..IngestOptions::dense()
            };
            let load = chunked(CSV, &opts).unwrap();
            let table = load.table.into_table().unwrap();
            assert_eq!(table.n_rows(), dense.table.n_rows());
            for (a, b) in table.columns().iter().zip(dense.table.columns()) {
                assert_eq!(a.codes(), b.codes());
                assert_eq!(a.domain().size(), b.domain().size());
            }
        }
    }

    #[test]
    fn tiny_budget_spills_and_still_matches() {
        // ~200 rows x 28 bytes/row; an 128-byte budget forces morsel
        // shrink + spill on nearly every chunk.
        let mut text = String::from("CustomerID,Churn,Gender,Age,EmployerID\n");
        for i in 0..200 {
            text.push_str(&format!(
                "c{i},{},{},{}.5,e{}\n",
                if i % 3 == 0 { "yes" } else { "no" },
                if i % 2 == 0 { "F" } else { "M" },
                i % 17,
                i % 7
            ));
        }
        let dense =
            read_csv_lenient("Customers", &text, &specs(), ',', DirtyPolicy::Abort).unwrap();
        let opts = IngestOptions {
            morsel_rows: None,
            mem_budget: Some(128),
            spill_dir: None,
        };
        let load = chunked(&text, &opts).unwrap();
        assert!(load.table.is_spilled(), "128-byte budget must spill");
        let table = load.table.into_table().unwrap();
        for (a, b) in table.columns().iter().zip(dense.table.columns()) {
            assert_eq!(a.codes(), b.codes());
        }
    }

    #[test]
    fn budget_env_is_strict() {
        std::env::set_var("HAMLET_MEM_BUDGET_MB", "lots");
        let err = IngestOptions::from_env().unwrap_err();
        assert!(matches!(err, RelationalError::Env { .. }));
        assert!(err.to_string().contains("HAMLET_MEM_BUDGET_MB"), "{err}");
        std::env::set_var("HAMLET_MEM_BUDGET_MB", "64");
        let opts = IngestOptions::from_env().unwrap();
        assert_eq!(opts.mem_budget, Some(64 * 1024 * 1024));
        std::env::remove_var("HAMLET_MEM_BUDGET_MB");
    }

    #[test]
    fn file_reader_streams_without_whole_file_read() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().join("t.csv");
        hamlet_obs::atomic_write(&path, CSV.as_bytes()).unwrap();
        let load =
            read_csv_file_lenient("Customers", &path, &specs(), ',', DirtyPolicy::Abort).unwrap();
        assert_eq!(load.table.n_rows(), 4);
        assert!(read_csv_file_lenient(
            "Customers",
            &dir.path().join("missing.csv"),
            &specs(),
            ',',
            DirtyPolicy::Abort
        )
        .is_err());
    }

    #[test]
    fn load_counts_bytes_and_labels_and_names_its_span() {
        let counter = |name| hamlet_obs::metrics::counter(name).get();
        let (bytes, labels) = (
            counter("hamlet_ingest_bytes_total"),
            counter("hamlet_ingest_labels_total"),
        );
        hamlet_obs::span::set_tracing(true);
        chunked(CSV, &IngestOptions::dense()).unwrap();
        hamlet_obs::span::set_tracing(false);
        // Sibling tests ingest concurrently into the same global
        // counters, hence `>=`. Distinct labels: 4 ids, 2 churn values,
        // 2 genders, 3 employers.
        assert!(counter("hamlet_ingest_bytes_total") - bytes >= CSV.len() as u64);
        assert!(counter("hamlet_ingest_labels_total") - labels >= 11);
        let spans = hamlet_obs::span::drain_spans();
        assert!(
            spans
                .iter()
                .any(|s| s.name == "relational.ingest_stream" && s.detail == "table=Customers"),
            "no ingest span naming its table"
        );
    }

    /// The key is interned by the duplicate check itself, so a repeat
    /// must neither take a code nor grow the key domain, and a row
    /// rejected before the key check must not intern its key.
    #[test]
    fn duplicate_key_keeps_the_first_code_and_the_domain_size() {
        let text = "\
CustomerID,Churn,Gender,Age,EmployerID
c1,yes,F,34.5,e1
c2,no,M,51.0,e2
c1,no,M,28.2,e3
c9,no,F,oops,e1
c3,yes,M,61.9,e3
";
        let load = |policy| {
            read_csv_chunked(
                "Customers",
                std::io::Cursor::new(text.as_bytes()),
                &specs(),
                ',',
                policy,
                &IngestOptions::dense(),
            )
        };
        let err = load(DirtyPolicy::Abort).unwrap_err();
        assert!(
            matches!(err, RelationalError::PrimaryKeyNotUnique { .. }),
            "{err}"
        );

        let load = load(DirtyPolicy::Quarantine { max_bad_rows: 5 }).unwrap();
        let rows: Vec<usize> = load.quarantined.iter().map(|q| q.row).collect();
        assert_eq!(rows, [2, 3]);
        assert!(load.quarantined[0]
            .reason
            .contains("duplicate primary key 'c1'"));
        let table = load.table.into_table().unwrap();
        let key = table.column_by_name("CustomerID").unwrap();
        assert_eq!(key.codes(), [0, 1, 2]);
        assert_eq!(key.domain().size(), 3);
        let labels: Vec<String> = (0..3).map(|c| key.domain().label(c).into_owned()).collect();
        assert_eq!(labels, ["c1", "c2", "c3"]);
        // The quarantined duplicate's other cells were not coded either.
        let employer = table.column_by_name("EmployerID").unwrap();
        assert_eq!(employer.codes(), [0, 1, 2]);
    }

    #[test]
    fn non_finite_numeric_errors_like_dense_fit() {
        let text = "x\n1.0\ninf\n2.0\n";
        let s = vec![("x", ColumnSpec::numeric_feature("x", 2))];
        let err = read_csv_chunked(
            "T",
            std::io::Cursor::new(text.as_bytes()),
            &s,
            ',',
            DirtyPolicy::Abort,
            &IngestOptions::dense(),
        )
        .unwrap_err();
        assert!(matches!(err, RelationalError::InvalidBinning { .. }));
        assert!(err.to_string().contains("non-finite"), "{err}");
    }
}
