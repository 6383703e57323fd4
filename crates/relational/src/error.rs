//! Error types for the relational substrate.

use std::fmt;

/// Errors raised by relational operations (schema violations, bad joins,
/// malformed tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationalError {
    /// A column's length does not match the table's row count.
    ColumnLengthMismatch {
        table: String,
        column: String,
        expected: usize,
        actual: usize,
    },
    /// A code in a column falls outside its domain.
    CodeOutOfDomain {
        table: String,
        column: String,
        code: u32,
        domain_size: usize,
    },
    /// An attribute name was referenced but does not exist.
    UnknownAttribute { table: String, attribute: String },
    /// A table name was referenced but does not exist in the catalog.
    UnknownTable { name: String },
    /// Two attributes in one table share a name.
    DuplicateAttribute { table: String, attribute: String },
    /// A table declared more than one primary key or target.
    DuplicateRole { table: String, role: &'static str },
    /// A table is missing a role (e.g. target) an operation requires.
    MissingRole { table: String, role: &'static str },
    /// A primary key column contains duplicate values.
    PrimaryKeyNotUnique { table: String, attribute: String },
    /// The foreign key's domain does not match the referenced primary key's
    /// domain (the paper assumes `dom(FK_i) = {RID_i values in R_i}`).
    ForeignKeyDomainMismatch {
        entity: String,
        fk: String,
        referenced: String,
    },
    /// A foreign key value has no matching primary key row (dangling
    /// reference; the paper assumes referential integrity and no NULLs).
    DanglingForeignKey {
        entity: String,
        fk: String,
        code: u32,
        /// The FK value's human-readable label (what the analyst typed).
        label: String,
        /// 0-based entity row holding the dangling value.
        row: usize,
    },
    /// A join was requested over an attribute that is not a foreign key.
    NotAForeignKey { table: String, attribute: String },
    /// Binning was requested with zero bins or over an empty value range.
    InvalidBinning { reason: String },
    /// A schema manifest failed to parse or load.
    Manifest { reason: String },
    /// A star decomposition request was malformed or does not hold in the
    /// instance.
    Decomposition { reason: String },
    /// The table has no rows where at least one was required.
    EmptyTable { table: String },
    /// A nominal column holds more distinct values than `u32` codes can
    /// name.
    DomainTooLarge { table: String, column: String },
    /// An IO fault while streaming or spilling chunked column data
    /// (ingest reads, spill-file writes, chunk reads from disk).
    Io {
        /// What was being read or written (a path or a description).
        context: String,
        /// The underlying OS error rendered as text (kept as a string so
        /// the error type stays `Clone + PartialEq`).
        message: String,
    },
    /// A spilled chunk file failed structural validation on read-back
    /// (truncated, wrong length, or byte count not a multiple of the
    /// element width) — the spill directory was tampered with or the
    /// disk is corrupting data.
    SpillCorrupt { file: String, reason: String },
    /// An invalid `HAMLET_*` environment value reached the data plane
    /// (e.g. an unparsable `HAMLET_MEM_BUDGET_MB`); strict per the
    /// observability sweep — never a silent default.
    Env { reason: String },
    /// Lenient ingest quarantined more rows than the error budget
    /// allows; the table is too dirty to degrade gracefully.
    DirtyBudgetExceeded {
        table: String,
        /// Rows quarantined before giving up.
        quarantined: usize,
        /// The per-table budget that was exceeded.
        budget: usize,
        /// 0-based data row that broke the budget, with its reason.
        last_row: usize,
        last_reason: String,
    },
}

impl fmt::Display for RelationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ColumnLengthMismatch {
                table,
                column,
                expected,
                actual,
            } => write!(
                f,
                "table '{table}': column '{column}' has {actual} rows, expected {expected}"
            ),
            Self::CodeOutOfDomain {
                table,
                column,
                code,
                domain_size,
            } => write!(
                f,
                "table '{table}': column '{column}' holds code {code} outside domain of size {domain_size}"
            ),
            Self::UnknownAttribute { table, attribute } => {
                write!(f, "table '{table}': unknown attribute '{attribute}'")
            }
            Self::UnknownTable { name } => write!(f, "unknown table '{name}'"),
            Self::DuplicateAttribute { table, attribute } => {
                write!(f, "table '{table}': duplicate attribute '{attribute}'")
            }
            Self::DuplicateRole { table, role } => {
                write!(f, "table '{table}': more than one {role}")
            }
            Self::MissingRole { table, role } => {
                write!(f, "table '{table}': no {role} attribute declared")
            }
            Self::PrimaryKeyNotUnique { table, attribute } => {
                write!(f, "table '{table}': primary key '{attribute}' is not unique")
            }
            Self::ForeignKeyDomainMismatch {
                entity,
                fk,
                referenced,
            } => write!(
                f,
                "entity '{entity}': foreign key '{fk}' domain differs from referenced key '{referenced}'"
            ),
            Self::DanglingForeignKey {
                entity,
                fk,
                code,
                label,
                row,
            } => write!(
                f,
                "entity '{entity}' row {row}: foreign key '{fk}' value '{label}' (code {code}) has no referenced row"
            ),
            Self::NotAForeignKey { table, attribute } => {
                write!(f, "table '{table}': attribute '{attribute}' is not a foreign key")
            }
            Self::Io { context, message } => write!(f, "io error ({context}): {message}"),
            Self::SpillCorrupt { file, reason } => {
                write!(f, "spill file '{file}' is corrupt: {reason}")
            }
            Self::Env { reason } => write!(f, "environment: {reason}"),
            Self::InvalidBinning { reason } => write!(f, "invalid binning: {reason}"),
            Self::Manifest { reason } => write!(f, "manifest: {reason}"),
            Self::Decomposition { reason } => write!(f, "decomposition: {reason}"),
            Self::EmptyTable { table } => write!(f, "table '{table}' is empty"),
            Self::DomainTooLarge { table, column } => write!(
                f,
                "table '{table}': column '{column}' has more distinct values than u32 codes can name"
            ),
            Self::DirtyBudgetExceeded {
                table,
                quarantined,
                budget,
                last_row,
                last_reason,
            } => write!(
                f,
                "table '{table}': quarantined {quarantined} rows, exceeding the error budget of {budget} \
                 (row {last_row}: {last_reason})"
            ),
        }
    }
}

impl std::error::Error for RelationalError {}

/// Convenient result alias for relational operations.
pub type Result<T> = std::result::Result<T, RelationalError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_table_and_column() {
        let err = RelationalError::ColumnLengthMismatch {
            table: "S".into(),
            column: "age".into(),
            expected: 10,
            actual: 9,
        };
        let msg = err.to_string();
        assert!(msg.contains("'S'"));
        assert!(msg.contains("'age'"));
        assert!(msg.contains("10"));
    }

    #[test]
    fn display_dangling_fk_is_actionable() {
        let err = RelationalError::DanglingForeignKey {
            entity: "Customers".into(),
            fk: "EmployerID".into(),
            code: 42,
            label: "e42".into(),
            row: 17,
        };
        let msg = err.to_string();
        assert!(msg.contains("EmployerID"));
        assert!(msg.contains("42"));
        // The label and row make the error actionable: the analyst can
        // grep their CSV for 'e42' / jump to the row.
        assert!(msg.contains("'e42'"), "{msg}");
        assert!(msg.contains("row 17"), "{msg}");
    }

    #[test]
    fn display_dirty_budget() {
        let err = RelationalError::DirtyBudgetExceeded {
            table: "Customers".into(),
            quarantined: 6,
            budget: 5,
            last_row: 99,
            last_reason: "expected 3 fields, found 2".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("budget of 5"), "{msg}");
        assert!(msg.contains("row 99"), "{msg}");
    }

    #[test]
    fn errors_are_comparable() {
        let a = RelationalError::UnknownTable { name: "R".into() };
        let b = RelationalError::UnknownTable { name: "R".into() };
        assert_eq!(a, b);
    }
}
