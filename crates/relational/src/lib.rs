//! # hamlet-relational
//!
//! In-memory columnar relational substrate for normalized feature data,
//! built for the reproduction of *"To Join or Not to Join? Thinking Twice
//! about Joins before Feature Selection"* (Kumar et al., SIGMOD 2016).
//!
//! The paper's setting is a star schema: an **entity table**
//! `S(SID, Y, X_S, FK_1..FK_k)` whose foreign keys reference **attribute
//! tables** `R_i(RID_i, X_Ri)`. All attributes are nominal with known
//! finite domains (numeric data is discretized by equal-width binning).
//! This crate provides:
//!
//! * [`Domain`] / [`Column`] — finite categorical domains and dense code
//!   columns;
//! * [`Schema`] / [`Table`] — validated logical schemas with attribute
//!   roles (primary key, foreign key with a closed/open domain flag,
//!   feature, target);
//! * [`kfk_join`] — the KFK equi-join `T <- R ⋈_{RID=FK} S` that creates
//!   the FD `FK -> X_R` the paper analyzes;
//! * [`StarSchema`] — a validated catalog exposing the metadata the
//!   decision rules need (`n_S`, `n_Ri`, feature domain sizes, closed FK
//!   flags) and materialization of any join subset;
//! * [`FunctionalDependency`] — instance-level FD checks and FD-set
//!   acyclicity (appendix C);
//! * [`EqualWidthBinner`] — the paper's unsupervised binning.
//!
//! ```
//! use hamlet_relational::{Domain, TableBuilder, StarSchema, AttributeTable, kfk_join};
//!
//! // Employers(EmployerID, Country); Customers(CustomerID, Churn, EmployerID)
//! let rid = Domain::indexed("EmployerID", 2).shared();
//! let employers = TableBuilder::new("Employers")
//!     .primary_key("EmployerID", rid.clone(), vec![0, 1])
//!     .feature("Country", Domain::from_labels("Country", &["NZ", "IN"]).shared(), vec![0, 1])
//!     .build().unwrap();
//! let customers = TableBuilder::new("Customers")
//!     .target("Churn", Domain::boolean("Churn").shared(), vec![0, 1, 1])
//!     .foreign_key("EmployerID", "Employers", rid, vec![0, 1, 0])
//!     .build().unwrap();
//! let t = kfk_join(&customers, "EmployerID", &employers).unwrap();
//! assert_eq!(t.column_by_name("Country").unwrap().codes(), &[0, 1, 0]);
//! ```

pub mod availability;
pub mod binning;
pub mod catalog;
pub mod chunk;
pub mod coldstart;
pub mod column;
pub mod csv;
pub mod decompose;
mod dict;
pub mod domain;
pub mod error;
pub mod fd;
pub mod ingest;
pub mod join;
pub mod lint;
pub mod manifest;
pub mod profile;
pub mod query;
pub mod schema;
pub mod table;

pub use availability::{TablePolicy, TableSubstitution, TABLE_OPEN_FAILPOINT};
pub use binning::{EqualFrequencyBinner, EqualWidthBinner};
pub use catalog::{AttributeTable, SplitIndices, StarSchema};
pub use chunk::{
    default_chunk_rows, gather_chunks, Chunk, ChunkedColumn, ChunkedTable, ColumnChunks,
    DenseChunks, SpillDir,
};
pub use coldstart::{with_others_record, DomainRevision};
pub use column::Column;
pub use csv::{
    csv_header, csv_header_path, read_csv, read_csv_lenient, write_csv, ColumnSpec, CsvLoad,
    DirtyPolicy, QuarantinedRow,
};
pub use decompose::{decompose_star, infer_single_fds, select_compatible_fds};
pub use domain::Domain;
pub use error::{RelationalError, Result};
pub use fd::{is_acyclic, redundant_attributes, FunctionalDependency};
pub use ingest::{
    read_csv_chunked, read_csv_file_chunked, read_csv_file_lenient, ChunkedCsvLoad, IngestOptions,
};
pub use join::{kfk_join, kfk_join_all, kfk_join_policy, FkPolicy, JoinOutcome};
pub use lint::{lint_star, Lint, LintConfig};
pub use manifest::{LoadPolicy, Manifest, StarLoad, TableQuarantine};
pub use profile::{profile_star, profile_table, ColumnProfile, StarProfile, TableProfile};
pub use query::{fanout, filter, group_count, select_rows, sort_by, Group, Predicate};
pub use schema::{AttributeDef, Role, Schema};
pub use table::{Table, TableBuilder};
