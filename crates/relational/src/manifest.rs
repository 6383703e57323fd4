//! Schema manifests: loading a normalized multi-table dataset from CSV
//! files plus a small declarative description.
//!
//! The paper's input is a star schema whose roles (target, foreign keys,
//! closed domains) live in the analyst's head; a manifest writes them
//! down. The format is line-based:
//!
//! ```text
//! # churn.manifest — comments and blank lines are ignored
//! entity customers.csv
//! target   Churn
//! feature  Gender
//! numeric  Age 8
//! fk       EmployerID employers.csv closed
//!
//! table employers.csv
//! key      EmployerID
//! feature  Country
//! numeric  Revenue 8
//! ```
//!
//! * `entity <file>` starts the entity-table section; `table <file>`
//!   starts an attribute-table section (one per attribute table);
//! * within a section: `target <col>`, `key <col>`, `feature <col>`,
//!   `numeric <col> <bins>`, `skip <col>`;
//! * `fk <col> <file> closed|open` declares a foreign key of the entity
//!   referencing the attribute table loaded from `<file>`.
//!
//! Foreign keys and the referenced primary keys are matched **by label**:
//! the FK column's string values must be a subset of the key column's,
//! and both are recoded onto the key's domain.

use std::collections::{BTreeSet, HashMap};
use std::io::BufRead;
use std::path::{Path, PathBuf};

use crate::availability::{TablePolicy, TableSubstitution, TABLE_OPEN_FAILPOINT};
use crate::catalog::{AttributeTable, StarSchema};
use crate::coldstart::with_others_record;
use crate::column::Column;
use crate::csv::{ColumnSpec, DirtyPolicy, QuarantinedRow};
use crate::dict::LabelDict;
use crate::error::{RelationalError, Result};
use crate::ingest::{read_csv_chunked, IngestOptions};
use crate::join::FkPolicy;
use crate::schema::{AttributeDef, Schema};
use crate::table::Table;

/// Degradation policy for a manifest load: what to do with dirty CSV rows
/// and with entity rows whose foreign keys reference no attribute row.
///
/// The default (`Abort`/`Abort`) reproduces the strict behaviour of
/// [`Manifest::load`] exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadPolicy {
    /// Row-level CSV faults (ragged rows, bad numerics, duplicate keys).
    pub on_dirty: DirtyPolicy,
    /// Entity rows whose FK label has no row in the referenced table.
    pub on_dangling_fk: FkPolicy,
    /// Declared attribute tables that cannot be opened or read.
    pub on_missing_table: TablePolicy,
}

/// Quarantine report for one table loaded leniently.
#[derive(Debug, Clone)]
pub struct TableQuarantine {
    /// Table name (file stem).
    pub table: String,
    /// Rows set aside, in input order.
    pub rows: Vec<QuarantinedRow>,
    /// Data rows seen in the file (clean + quarantined).
    pub total_rows: usize,
}

/// Result of a policy-driven manifest load: the star schema plus a full
/// account of every degradation that was applied.
#[derive(Debug, Clone)]
pub struct StarLoad {
    /// The loaded star schema.
    pub star: StarSchema,
    /// Per-table quarantine reports (empty under [`DirtyPolicy::Abort`]).
    pub quarantine: Vec<TableQuarantine>,
    /// Entity rows (0-based, post-quarantine) dropped for dangling FKs.
    pub dropped_rows: Vec<usize>,
    /// Entity rows (0-based, post-quarantine) remapped to `Others`.
    pub others_rows: Vec<usize>,
    /// Attribute tables replaced by FK-only surrogates (empty under
    /// [`TablePolicy::Require`]).
    pub substitutions: Vec<TableSubstitution>,
}

impl StarLoad {
    /// Whether any degradation (quarantine, drop, remap, substitution)
    /// was applied.
    pub fn degraded(&self) -> bool {
        !self.dropped_rows.is_empty()
            || !self.others_rows.is_empty()
            || !self.substitutions.is_empty()
            || self.quarantine.iter().any(|q| !q.rows.is_empty())
    }
}

/// One column directive inside a manifest section.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    Target(String),
    Key(String),
    Feature(String),
    Numeric(String, usize),
    Skip(String),
    Fk {
        column: String,
        file: String,
        closed: bool,
    },
}

/// A parsed manifest section.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Section {
    file: String,
    is_entity: bool,
    directives: Vec<Directive>,
}

/// A parsed manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    sections: Vec<Section>,
}

fn parse_error(line_no: usize, msg: impl Into<String>) -> RelationalError {
    RelationalError::Manifest {
        reason: format!("line {line_no}: {}", msg.into()),
    }
}

impl Manifest {
    /// Parses manifest text.
    pub fn parse(text: &str) -> Result<Manifest> {
        let mut sections: Vec<Section> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().expect("non-empty line");
            let args: Vec<&str> = parts.collect();
            match keyword {
                "entity" | "table" => {
                    let file = args
                        .first()
                        .ok_or_else(|| parse_error(line_no, "missing file name"))?;
                    sections.push(Section {
                        file: file.to_string(),
                        is_entity: keyword == "entity",
                        directives: Vec::new(),
                    });
                }
                _ => {
                    let section = sections
                        .last_mut()
                        .ok_or_else(|| parse_error(line_no, "directive before any section"))?;
                    let need = |n: usize| -> Result<()> {
                        if args.len() < n {
                            Err(parse_error(
                                line_no,
                                format!("'{keyword}' needs {n} argument(s)"),
                            ))
                        } else {
                            Ok(())
                        }
                    };
                    let d = match keyword {
                        "target" => {
                            need(1)?;
                            Directive::Target(args[0].to_string())
                        }
                        "key" => {
                            need(1)?;
                            Directive::Key(args[0].to_string())
                        }
                        "feature" => {
                            need(1)?;
                            Directive::Feature(args[0].to_string())
                        }
                        "skip" => {
                            need(1)?;
                            Directive::Skip(args[0].to_string())
                        }
                        "numeric" => {
                            need(2)?;
                            let bins: usize = args[1].parse().map_err(|_| {
                                parse_error(line_no, format!("bad bin count '{}'", args[1]))
                            })?;
                            Directive::Numeric(args[0].to_string(), bins)
                        }
                        "fk" => {
                            need(3)?;
                            let closed = match args[2] {
                                "closed" => true,
                                "open" => false,
                                other => {
                                    return Err(parse_error(
                                        line_no,
                                        format!("fk needs 'closed' or 'open', got '{other}'"),
                                    ))
                                }
                            };
                            Directive::Fk {
                                column: args[0].to_string(),
                                file: args[1].to_string(),
                                closed,
                            }
                        }
                        other => {
                            return Err(parse_error(line_no, format!("unknown keyword '{other}'")))
                        }
                    };
                    section.directives.push(d);
                }
            }
        }
        let entities = sections.iter().filter(|s| s.is_entity).count();
        if entities != 1 {
            return Err(RelationalError::Manifest {
                reason: format!("must declare exactly one entity section, found {entities}"),
            });
        }
        Ok(Manifest { sections })
    }

    /// Loads the star schema, resolving file names relative to `base`
    /// through `read_file` (injected so tests can run without a
    /// filesystem). Strict: any dirty row or dangling FK is an error.
    pub fn load_with<F>(&self, base: &Path, read_file: F) -> Result<StarSchema>
    where
        F: FnMut(&Path) -> std::io::Result<String>,
    {
        self.load_with_policy(base, read_file, &LoadPolicy::default())
            .map(|load| load.star)
    }

    /// Loads under a policy from any in-memory string source — the
    /// legacy injection point, now a wrapper that feeds each string
    /// through the streaming chunked ingester.
    pub fn load_with_policy<F>(
        &self,
        base: &Path,
        mut read_file: F,
        policy: &LoadPolicy,
    ) -> Result<StarLoad>
    where
        F: FnMut(&Path) -> std::io::Result<String>,
    {
        self.load_from_source(
            base,
            &mut |path: &Path| {
                read_file(path)
                    .map(|s| Box::new(std::io::Cursor::new(s.into_bytes())) as Box<dyn BufRead>)
            },
            policy,
        )
    }

    /// Loads the star schema under a degradation policy, returning the
    /// schema together with a report of everything that was set aside,
    /// dropped, or remapped.
    ///
    /// With [`FkPolicy::DropRow`], entity rows whose FK label (in *any*
    /// FK column) has no referenced row are removed. With
    /// [`FkPolicy::MapToOthers`], the referenced attribute table is
    /// widened with an `Others` placeholder record (feature defaults =
    /// code 0, see [`with_others_record`]) and dangling rows map onto it.
    /// Row indices in the report are 0-based data rows *after* dirty-row
    /// quarantine.
    ///
    /// Each table streams through the chunked ingester
    /// ([`crate::ingest::read_csv_chunked`]); with `HAMLET_MEM_BUDGET_MB`
    /// set, the encode phase of every load spills chunks instead of
    /// growing past the budget.
    fn load_from_source(
        &self,
        base: &Path,
        open_file: &mut dyn FnMut(&Path) -> std::io::Result<Box<dyn BufRead>>,
        policy: &LoadPolicy,
    ) -> Result<StarLoad> {
        let ingest_opts = IngestOptions::from_env()?;
        let mut read = |file: &str| -> Result<Box<dyn BufRead>> {
            let path: PathBuf = base.join(file);
            hamlet_chaos::fail_at!("manifest.read")
                .and_then(|()| open_file(&path))
                .map_err(|e| RelationalError::Manifest {
                    reason: format!("cannot read {}: {e}", path.display()),
                })
        };
        let mut quarantine: Vec<TableQuarantine> = Vec::new();

        // A declared attribute table whose file could not be read under
        // `TablePolicy::AllowDegraded`: the manifest directives survive
        // (key + declared feature names) even though the data is gone.
        struct WithheldTable {
            key: String,
            features: Vec<String>,
            reason: String,
        }

        // Load attribute tables first (keyed by file name) as raw nominal
        // tables; keys stay labelled domains for FK matching.
        let mut attr_tables: HashMap<String, (Table, String)> = HashMap::new(); // file -> (table, key col)
        let mut withheld: HashMap<String, WithheldTable> = HashMap::new(); // file -> evidence
        for section in self.sections.iter().filter(|s| !s.is_entity) {
            let name = file_stem(&section.file);
            let key = section
                .directives
                .iter()
                .find_map(|d| match d {
                    Directive::Key(k) => Some(k.clone()),
                    _ => None,
                })
                .ok_or_else(|| RelationalError::Manifest {
                    reason: format!("table section '{}' has no key directive", section.file),
                })?;
            let reader = match hamlet_chaos::fail_at!(TABLE_OPEN_FAILPOINT)
                .map_err(|e| RelationalError::Manifest {
                    reason: format!("cannot read {}: {e}", base.join(&section.file).display()),
                })
                .and_then(|()| read(&section.file))
            {
                Ok(reader) => reader,
                Err(e) if policy.on_missing_table == TablePolicy::AllowDegraded => {
                    let features: Vec<String> = section
                        .directives
                        .iter()
                        .filter_map(|d| match d {
                            Directive::Feature(c) | Directive::Numeric(c, _) => Some(c.clone()),
                            _ => None,
                        })
                        .collect();
                    hamlet_obs::counter_add!("hamlet_degraded_tables_total", 1);
                    hamlet_obs::record_warning(format!(
                        "table '{name}': unreadable, loading degraded with FK-only surrogate \
                         ({} declared feature(s) absent): {e}",
                        features.len()
                    ));
                    withheld.insert(
                        section.file.clone(),
                        WithheldTable {
                            key,
                            features,
                            reason: e.to_string(),
                        },
                    );
                    continue;
                }
                Err(e) => return Err(e),
            };
            let specs = section_specs(section, None)?;
            let load = read_csv_chunked(
                &name,
                reader,
                &to_spec_refs(&specs),
                ',',
                policy.on_dirty,
                &ingest_opts,
            )?;
            if !load.quarantined.is_empty() {
                hamlet_obs::record_warning(format!(
                    "table '{name}': quarantined {} of {} rows during lenient load",
                    load.quarantined.len(),
                    load.total_rows
                ));
            }
            quarantine.push(TableQuarantine {
                table: name,
                rows: load.quarantined,
                total_rows: load.total_rows,
            });
            attr_tables.insert(section.file.clone(), (load.table.into_table()?, key));
        }

        // Load the entity; FK columns come in as plain nominal features
        // first, then get recoded onto the referenced key domains.
        let entity_section = self.sections.iter().find(|s| s.is_entity).ok_or_else(|| {
            RelationalError::Manifest {
                reason: "manifest has no entity section".to_string(),
            }
        })?;
        let reader = read(&entity_section.file)?;
        let specs = section_specs(entity_section, Some(&attr_tables))?;
        let entity_name = file_stem(&entity_section.file);
        let entity_load = read_csv_chunked(
            &entity_name,
            reader,
            &to_spec_refs(&specs),
            ',',
            policy.on_dirty,
            &ingest_opts,
        )?;
        if !entity_load.quarantined.is_empty() {
            hamlet_obs::record_warning(format!(
                "entity '{entity_name}': quarantined {} of {} rows during lenient load",
                entity_load.quarantined.len(),
                entity_load.total_rows
            ));
        }
        quarantine.push(TableQuarantine {
            table: entity_name.clone(),
            rows: entity_load.quarantined,
            total_rows: entity_load.total_rows,
        });
        let raw_entity = entity_load.table.into_table()?;

        // Recode FK columns by label onto the referenced key domains,
        // applying the dangling-FK policy per column.
        let mut defs: Vec<AttributeDef> = Vec::new();
        let mut cols: Vec<Column> = Vec::new();
        let mut attributes: Vec<AttributeTable> = Vec::new();
        let mut drop_set: BTreeSet<usize> = BTreeSet::new();
        let mut others_rows: Vec<usize> = Vec::new();
        let mut substitutions: Vec<TableSubstitution> = Vec::new();
        for (def, col) in raw_entity
            .schema()
            .attributes()
            .iter()
            .zip(raw_entity.columns())
        {
            let fk_directive = entity_section.directives.iter().find_map(|d| match d {
                Directive::Fk {
                    column,
                    file,
                    closed,
                } if column == &def.name => Some((file.clone(), *closed)),
                _ => None,
            });
            match fk_directive {
                None => {
                    defs.push(def.clone());
                    cols.push(col.clone());
                }
                Some((file, closed)) => {
                    if let Some(gone) = withheld.get(&file) {
                        // FK-only surrogate: a key-only table whose PK
                        // spans exactly the FK column's observed domain,
                        // so the FK codes pass through unrecoded and
                        // referential integrity holds by construction.
                        // Zero features means the advisor's q_R* falls
                        // back to 1 — the worst-case ROR bound for the
                        // substitution.
                        let name = file_stem(&file);
                        let dom = col.domain().clone();
                        let codes: Vec<u32> = (0..dom.size() as u32).collect();
                        let surrogate = Table::new(
                            name.clone(),
                            Schema::new(&name, vec![AttributeDef::primary_key(&gone.key)])?,
                            vec![Column::new_unchecked(dom, codes)],
                        )?;
                        let attr_def = if closed {
                            AttributeDef::foreign_key(&def.name, &name)
                        } else {
                            AttributeDef::open_foreign_key(&def.name, &name)
                        };
                        let sub = TableSubstitution {
                            table: name,
                            fk: def.name.clone(),
                            file: file.clone(),
                            n_entities: surrogate.n_rows(),
                            declared_features: gone.features.clone(),
                            reason: gone.reason.clone(),
                        };
                        hamlet_obs::record_warning(sub.evidence());
                        substitutions.push(sub);
                        defs.push(attr_def);
                        cols.push(col.clone());
                        attributes.push(AttributeTable {
                            fk: def.name.clone(),
                            table: surrogate,
                        });
                        continue;
                    }
                    let (attr_table, key_col) = attr_tables
                        .get(&file)
                        .ok_or_else(|| RelationalError::UnknownTable { name: file.clone() })?;
                    let key = attr_table.column_by_name(key_col)?;
                    // Recode per FK-domain code, not per row: index the
                    // key's labels once, resolve each FK code to its key
                    // code, and each row becomes one array lookup.
                    let mut key_index = LabelDict::new();
                    let mut key_code: Vec<u32> = Vec::new();
                    for &c in key.codes() {
                        let slot = key_index.intern(&key.domain().label(c)).ok_or_else(|| {
                            RelationalError::DomainTooLarge {
                                table: attr_table.name().to_string(),
                                column: key_col.clone(),
                            }
                        })? as usize;
                        // A repeated label keeps its last key code.
                        match key_code.get_mut(slot) {
                            Some(k) => *k = c,
                            None => key_code.push(c),
                        }
                    }
                    let key_of_fk: Vec<Option<u32>> = (0..col.domain().size() as u32)
                        .map(|c| {
                            let slot = key_index.get(&col.domain().label(c))?;
                            Some(key_code[slot as usize])
                        })
                        .collect();
                    let mut recoded = Vec::with_capacity(col.len());
                    let mut dangling: Vec<(usize, String)> = Vec::new();
                    for (row, &fk) in col.codes().iter().enumerate() {
                        match key_of_fk[fk as usize] {
                            Some(code) => recoded.push(code),
                            None => {
                                // Placeholder; resolved below per policy.
                                recoded.push(0);
                                dangling.push((row, col.domain().label(fk).into_owned()));
                            }
                        }
                    }
                    let attr_def = if closed {
                        AttributeDef::foreign_key(&def.name, attr_table.name())
                    } else {
                        AttributeDef::open_foreign_key(&def.name, attr_table.name())
                    };
                    let promoted = promote_key(attr_table, key_col)?;
                    match (&dangling[..], &policy.on_dangling_fk) {
                        ([], _) | (_, FkPolicy::DropRow) => {
                            if let [(row, _), ..] = dangling[..] {
                                hamlet_obs::counter_add!(
                                    "hamlet_fk_rows_dropped_total",
                                    dangling.len()
                                );
                                hamlet_obs::record_warning(format!(
                                    "entity '{entity_name}': dropping {} row(s) with dangling \
                                     '{}' references (first at row {row})",
                                    dangling.len(),
                                    def.name
                                ));
                                drop_set.extend(dangling.iter().map(|(r, _)| *r));
                            }
                            defs.push(attr_def);
                            cols.push(Column::new_unchecked(key.domain().clone(), recoded));
                            attributes.push(AttributeTable {
                                fk: def.name.clone(),
                                table: promoted,
                            });
                        }
                        ([(row, lbl), ..], FkPolicy::Abort) => {
                            return Err(RelationalError::Manifest {
                                reason: format!(
                                    "entity '{}' row {}: foreign key '{}' value '{}' has no row in '{}'",
                                    entity_name,
                                    row + 2, // 1-based, after the header line
                                    def.name,
                                    lbl,
                                    attr_table.name()
                                ),
                            });
                        }
                        (_, FkPolicy::MapToOthers) => {
                            let n_features = promoted.schema().features().len();
                            let (widened, others_code) =
                                with_others_record(&promoted, &vec![0; n_features])?;
                            for &(row, _) in &dangling {
                                recoded[row] = others_code;
                            }
                            hamlet_obs::counter_add!(
                                "hamlet_fk_rows_to_others_total",
                                dangling.len()
                            );
                            hamlet_obs::record_warning(format!(
                                "entity '{entity_name}': remapped {} dangling '{}' reference(s) \
                                 to the Others record",
                                dangling.len(),
                                def.name
                            ));
                            others_rows.extend(dangling.iter().map(|(r, _)| *r));
                            let pk_idx = widened.schema().primary_key().ok_or_else(|| {
                                RelationalError::MissingRole {
                                    table: widened.name().to_string(),
                                    role: "primary key",
                                }
                            })?;
                            defs.push(attr_def);
                            cols.push(Column::new_unchecked(
                                widened.column(pk_idx).domain().clone(),
                                recoded,
                            ));
                            attributes.push(AttributeTable {
                                fk: def.name.clone(),
                                table: widened,
                            });
                        }
                    }
                }
            }
        }
        let mut entity = Table::new(entity_name.clone(), Schema::new(&entity_name, defs)?, cols)?;
        let dropped_rows: Vec<usize> = drop_set.into_iter().collect();
        if !dropped_rows.is_empty() {
            let keep: Vec<usize> = (0..entity.n_rows())
                .filter(|r| !dropped_rows.contains(r))
                .collect();
            if keep.is_empty() {
                return Err(RelationalError::EmptyTable {
                    table: entity_name.clone(),
                });
            }
            entity = entity.select_rows(&keep);
        }
        let star = StarSchema::new(entity, attributes)?;
        Ok(StarLoad {
            star,
            quarantine,
            dropped_rows,
            others_rows,
            substitutions,
        })
    }

    /// Loads from the real filesystem, resolving relative to `base`.
    /// Files stream through buffered readers — the whole-file
    /// `read_to_string` is gone from every file-backed load path.
    pub fn load(&self, base: &Path) -> Result<StarSchema> {
        self.load_policy(base, &LoadPolicy::default())
            .map(|l| l.star)
    }

    /// Loads from the real filesystem under a degradation policy,
    /// streaming each CSV instead of reading it into one `String`.
    pub fn load_policy(&self, base: &Path, policy: &LoadPolicy) -> Result<StarLoad> {
        self.load_from_source(
            base,
            &mut |p: &Path| {
                std::fs::File::open(p)
                    .map(|f| Box::new(std::io::BufReader::new(f)) as Box<dyn BufRead>)
            },
            policy,
        )
    }
}

/// File stem of a manifest file reference (`dir/x.csv` -> `x`).
fn file_stem(file: &str) -> String {
    file.rsplit('/')
        .next()
        .unwrap_or(file)
        .trim_end_matches(".csv")
        .to_string()
}

/// Re-roles the named column as the table's primary key (CSV import
/// reads all columns by spec; the attribute-table key arrives as a
/// `Nominal(primary_key)` only if the spec said so — it did, so this
/// simply validates and returns a clone).
fn promote_key(table: &Table, key_col: &str) -> Result<Table> {
    if table.schema().primary_key() != table.schema().index_of(key_col) {
        return Err(RelationalError::UnknownAttribute {
            table: table.name().to_string(),
            attribute: key_col.to_string(),
        });
    }
    Ok(table.clone())
}

fn section_specs(
    section: &Section,
    _attr: Option<&HashMap<String, (Table, String)>>,
) -> Result<Vec<(String, ColumnSpec)>> {
    let mut specs = Vec::new();
    for d in &section.directives {
        let (name, spec) = match d {
            Directive::Target(c) => (c.clone(), ColumnSpec::target(c)),
            Directive::Key(c) => (c.clone(), ColumnSpec::primary_key(c)),
            Directive::Feature(c) => (c.clone(), ColumnSpec::feature(c)),
            Directive::Numeric(c, bins) => (c.clone(), ColumnSpec::numeric_feature(c, *bins)),
            Directive::Skip(c) => (c.clone(), ColumnSpec::Skip),
            // FKs are loaded as plain nominal features, then recoded.
            Directive::Fk { column, .. } => (column.clone(), ColumnSpec::feature(column)),
        };
        specs.push((name, spec));
    }
    Ok(specs)
}

fn to_spec_refs(specs: &[(String, ColumnSpec)]) -> Vec<(&str, ColumnSpec)> {
    specs.iter().map(|(n, s)| (n.as_str(), s.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = "\
# churn example
entity customers.csv
target   Churn
feature  Gender
numeric  Age 4
fk       EmployerID employers.csv closed

table employers.csv
key      EmployerID
feature  Country
numeric  Revenue 2
";

    fn files() -> HashMap<PathBuf, String> {
        let mut m = HashMap::new();
        m.insert(
            PathBuf::from("/data/customers.csv"),
            "Churn,Gender,Age,EmployerID\nyes,F,30,e2\nno,M,40,e1\nno,F,50,e2\nyes,M,25,e1\n"
                .to_string(),
        );
        m.insert(
            PathBuf::from("/data/employers.csv"),
            "EmployerID,Country,Revenue\ne1,NZ,10\ne2,IN,90\n".to_string(),
        );
        m
    }

    fn load() -> StarSchema {
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let files = files();
        manifest
            .load_with(Path::new("/data"), |p| {
                files
                    .get(p)
                    .cloned()
                    .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
            })
            .unwrap()
    }

    #[test]
    fn loads_star_schema() {
        let star = load();
        assert_eq!(star.n_s(), 4);
        assert_eq!(star.k(), 1);
        assert!(star.fk_closed(0));
        assert_eq!(star.d_s(), 2); // Gender + binned Age
        assert_eq!(star.attributes()[0].n_rows(), 2);
        assert_eq!(star.n_classes(), Some(2));
    }

    #[test]
    fn fk_recoded_onto_key_domain() {
        let star = load();
        let fk = star.entity().column_by_name("EmployerID").unwrap();
        let key = star.attributes()[0]
            .table
            .column_by_name("EmployerID")
            .unwrap();
        assert_eq!(fk.domain().size(), key.domain().size());
        // Row 0 references e2 -> same label through the key domain.
        assert_eq!(fk.domain().label(fk.get(0)), "e2");
        // Join works end to end.
        let t = star.materialize_all().unwrap();
        let country = t.column_by_name("Country").unwrap();
        assert_eq!(country.domain().label(country.get(0)), "IN");
        assert_eq!(country.domain().label(country.get(1)), "NZ");
    }

    #[test]
    fn dangling_fk_label_is_error() {
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let mut files = files();
        files.insert(
            PathBuf::from("/data/customers.csv"),
            "Churn,Gender,Age,EmployerID\nyes,F,30,e99\n".to_string(),
        );
        let err = manifest
            .load_with(Path::new("/data"), |p| {
                files
                    .get(p)
                    .cloned()
                    .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
            })
            .unwrap_err();
        assert!(
            matches!(&err, RelationalError::Manifest { reason } if reason.contains("'e99'")),
            "{err}"
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "feature x\n"; // directive before section
        let err = Manifest::parse(bad).unwrap_err();
        assert!(err.to_string().contains("line 1"));
        let bad2 = "entity a.csv\nnumeric x notanumber\n";
        assert!(Manifest::parse(bad2)
            .unwrap_err()
            .to_string()
            .contains("line 2"));
        let bad3 = "entity a.csv\nfk c b.csv sideways\n";
        assert!(Manifest::parse(bad3)
            .unwrap_err()
            .to_string()
            .contains("closed"));
        let bad4 = "entity a.csv\nwhatever x\n";
        assert!(Manifest::parse(bad4)
            .unwrap_err()
            .to_string()
            .contains("unknown keyword"));
    }

    #[test]
    fn exactly_one_entity_required() {
        assert!(Manifest::parse("table a.csv\nkey k\n").is_err());
        assert!(Manifest::parse("entity a.csv\nentity b.csv\n").is_err());
    }

    #[test]
    fn missing_file_reported() {
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let err = manifest
            .load_with(Path::new("/nope"), |_| {
                Err(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"))
            })
            .unwrap_err();
        assert!(err.to_string().contains("cannot read"));
    }

    fn dirty_files() -> HashMap<PathBuf, String> {
        let mut m = files();
        // Row 1 references an employer that does not exist; row 2 is
        // ragged; the rest are clean.
        m.insert(
            PathBuf::from("/data/customers.csv"),
            "Churn,Gender,Age,EmployerID\nyes,F,30,e2\nno,M,40,e99\nno,F\nyes,M,25,e1\n"
                .to_string(),
        );
        m
    }

    fn load_dirty(policy: &LoadPolicy) -> Result<StarLoad> {
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let files = dirty_files();
        manifest.load_with_policy(
            Path::new("/data"),
            |p| {
                files
                    .get(p)
                    .cloned()
                    .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
            },
            policy,
        )
    }

    #[test]
    fn policy_drop_row_removes_dangling_entities() {
        let load = load_dirty(&LoadPolicy {
            on_dirty: DirtyPolicy::Quarantine { max_bad_rows: 10 },
            on_dangling_fk: FkPolicy::DropRow,
            ..LoadPolicy::default()
        })
        .unwrap();
        assert!(load.degraded());
        // The ragged row was quarantined, then the e99 row dropped.
        assert_eq!(load.star.n_s(), 2);
        assert_eq!(load.dropped_rows, vec![1]);
        let entity_q = load
            .quarantine
            .iter()
            .find(|q| q.table == "customers")
            .unwrap();
        assert_eq!(entity_q.rows.len(), 1);
        assert_eq!(entity_q.total_rows, 4);
        // Survivors still join cleanly.
        load.star.materialize_all().unwrap();
    }

    #[test]
    fn policy_map_to_others_widens_attribute_table() {
        let load = load_dirty(&LoadPolicy {
            on_dirty: DirtyPolicy::Quarantine { max_bad_rows: 10 },
            on_dangling_fk: FkPolicy::MapToOthers,
            ..LoadPolicy::default()
        })
        .unwrap();
        // No entity rows lost: the e99 row maps onto the Others record.
        assert_eq!(load.star.n_s(), 3);
        assert_eq!(load.others_rows, vec![1]);
        assert!(load.dropped_rows.is_empty());
        let attr = &load.star.attributes()[0].table;
        assert_eq!(attr.n_rows(), 3); // e1, e2, Others
        let key = attr.column_by_name("EmployerID").unwrap();
        assert_eq!(key.domain().label(2), "Others");
        // The remapped row joins to the Others record's default features.
        let t = load.star.materialize_all().unwrap();
        let country = t.column_by_name("Country").unwrap();
        assert_eq!(country.domain().label(country.get(1)), "NZ"); // default code 0
    }

    #[test]
    fn policy_abort_is_default_strict_behaviour() {
        let err = load_dirty(&LoadPolicy::default()).unwrap_err();
        // First fault hit under Abort is the ragged customers row.
        assert!(matches!(err, RelationalError::ColumnLengthMismatch { .. }));
    }

    #[test]
    fn quarantining_attr_key_row_cascades_to_fk_policy() {
        // Corrupt the employers table so e2's row is ragged: it gets
        // quarantined, and every customer referencing e2 now dangles.
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let mut files = files();
        files.insert(
            PathBuf::from("/data/employers.csv"),
            "EmployerID,Country,Revenue\ne1,NZ,10\ne2,IN\n".to_string(),
        );
        let read = |p: &Path| {
            files
                .get(p)
                .cloned()
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
        };
        let load = manifest
            .load_with_policy(
                Path::new("/data"),
                read,
                &LoadPolicy {
                    on_dirty: DirtyPolicy::Quarantine { max_bad_rows: 10 },
                    on_dangling_fk: FkPolicy::DropRow,
                    ..LoadPolicy::default()
                },
            )
            .unwrap();
        // Two customers referenced e2; both were dropped.
        assert_eq!(load.star.n_s(), 2);
        assert_eq!(load.dropped_rows, vec![0, 2]);
    }

    fn load_without_employers(policy: &LoadPolicy) -> Result<StarLoad> {
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let mut files = files();
        files.remove(&PathBuf::from("/data/employers.csv"));
        manifest.load_with_policy(
            Path::new("/data"),
            |p| {
                files
                    .get(p)
                    .cloned()
                    .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
            },
            policy,
        )
    }

    #[test]
    fn missing_table_still_errors_by_default() {
        let err = load_without_employers(&LoadPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
    }

    #[test]
    fn missing_table_degrades_to_fk_only_surrogate() {
        let load = load_without_employers(&LoadPolicy {
            on_missing_table: TablePolicy::AllowDegraded,
            ..LoadPolicy::default()
        })
        .unwrap();
        assert!(load.degraded());
        assert_eq!(load.substitutions.len(), 1);
        let sub = &load.substitutions[0];
        assert_eq!(sub.table, "employers");
        assert_eq!(sub.fk, "EmployerID");
        assert_eq!(
            sub.declared_features,
            vec!["Country".to_string(), "Revenue".to_string()]
        );
        // The surrogate is key-only over the FK's observed domain.
        let attr = &load.star.attributes()[0];
        assert_eq!(attr.table.schema().features().len(), 0);
        assert_eq!(sub.n_entities, attr.n_rows());
        assert_eq!(load.star.n_s(), 4);
        // Zero-feature tables have no min feature domain: downstream the
        // advisor falls back to the worst-case q_R* = 1.
        assert_eq!(attr.min_feature_domain(), None);
        // The star still materializes (the join adds no columns).
        let t = load.star.materialize_all().unwrap();
        assert_eq!(t.n_rows(), 4);
        assert!(t.column_by_name("Country").is_err());
    }

    #[test]
    fn table_open_failpoint_degrades_or_errors_by_policy() {
        use hamlet_chaos::failpoint;
        let _guard = failpoint::serial();
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let files = files();
        let read = |p: &Path| {
            files
                .get(p)
                .cloned()
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
        };
        // Strict: the injected open failure fails the whole load.
        failpoint::set_failpoints("relational.table_open=io").unwrap();
        let err = manifest
            .load_with_policy(Path::new("/data"), read, &LoadPolicy::default())
            .unwrap_err();
        assert!(err.to_string().contains("injected IO failure"), "{err}");
        // Degraded: the same fault yields a surrogate substitution.
        failpoint::set_failpoints("relational.table_open=io@1").unwrap();
        let load = manifest
            .load_with_policy(
                Path::new("/data"),
                read,
                &LoadPolicy {
                    on_missing_table: TablePolicy::AllowDegraded,
                    ..LoadPolicy::default()
                },
            )
            .unwrap();
        failpoint::clear_failpoints();
        assert_eq!(load.substitutions.len(), 1);
        assert!(load.substitutions[0].reason.contains("injected IO failure"));
        assert_eq!(load.star.n_s(), 4);
    }

    #[test]
    fn failpoint_fails_manifest_reads() {
        use hamlet_chaos::failpoint;
        let _guard = failpoint::serial();
        failpoint::set_failpoints("manifest.read=io").unwrap();
        let manifest = Manifest::parse(MANIFEST).unwrap();
        let files = files();
        let err = manifest
            .load_with(Path::new("/data"), |p| {
                files
                    .get(p)
                    .cloned()
                    .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "missing"))
            })
            .unwrap_err();
        failpoint::clear_failpoints();
        assert!(
            err.to_string().contains("injected IO failure"),
            "expected injected failure, got: {err}"
        );
    }

    #[test]
    fn filesystem_load_roundtrip() {
        let dir = std::env::temp_dir().join("hamlet_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        for (p, content) in files() {
            std::fs::write(dir.join(p.file_name().unwrap()), content).unwrap();
        }
        let star = Manifest::parse(MANIFEST).unwrap().load(&dir).unwrap();
        assert_eq!(star.n_s(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
