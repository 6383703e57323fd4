//! The schema miner: raw CSVs in, validated manifest + evidence out.
//!
//! Pipeline (each stage parallelized with
//! `hamlet_obs::parallel::run_indexed`, which returns results in index
//! order so output is bit-identical at any `HAMLET_THREADS`):
//!
//! 1. **Load** every `*.csv` as an all-nominal table (no roles assumed;
//!    dup keys and bad numerics stay visible as data, dirty rows follow
//!    the configured [`DirtyPolicy`]).
//! 2. **Sketch** every column ([`ColumnSketch`]): exact distinct counts
//!    plus capped KMV hash sets — the only cross-table state, so peak
//!    memory is bounded by per-table sketches, never a joined width.
//! 3. **Propose** candidate keys (distinct ≈ rows within the violation
//!    tolerance) and FK edges (containment ≥ `HAMLET_FD_MIN_CONTAINMENT`),
//!    pick the star center as the table whose accepted edges cover the
//!    most other tables.
//! 4. **Verify** the implied FDs factorized ([`check_fd`]): `key -> X_R`
//!    per attribute table, `FK -> X_S` on the entity (appendix-C
//!    redundancy evidence), each accepted within
//!    `HAMLET_FD_MAX_VIOLATIONS` or rejected, all journaled.
//! 5. **Synthesize** a manifest, validated by [`Manifest::parse`], that
//!    drops straight into `advise` / `train --strategy factorize`.

use std::collections::BTreeMap;
use std::path::Path;

use hamlet_obs::counter_add;
use hamlet_obs::parallel::run_indexed;
use hamlet_relational::{
    csv_header, csv_header_path, decompose_star, read_csv_file_lenient, read_csv_lenient,
    redundant_attributes, select_compatible_fds, CsvLoad, DirtyPolicy, FunctionalDependency,
    Manifest, Table,
};

use crate::error::DiscoveryError;
use crate::report::{
    DiscoveryReport, EntityFdAnalysis, FdEvidence, FdScope, FkCandidate, KeyCandidate,
    TableSummary, UnplacedTable,
};
use crate::sketch::{ColumnSketch, DEFAULT_SKETCH_SIZE};
use crate::verify::check_fd;

/// Discovery knobs. `threads` defaults to 1 (callers pass
/// `hamlet_obs::env::resolved_threads()`; the proptests pin it).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryConfig {
    /// Minimum containment for an FK edge (`HAMLET_FD_MIN_CONTAINMENT`,
    /// default 1.0 — exact inclusion).
    pub min_containment: f64,
    /// FD / key violation tolerance (`HAMLET_FD_MAX_VIOLATIONS`,
    /// default 0 — exact FDs only).
    pub max_violations: u64,
    /// Per-column hash-sketch cap (`HAMLET_SKETCH_SIZE`).
    pub sketch_size: usize,
    /// Worker threads for the sketch / edge / FD sweeps.
    pub threads: usize,
    /// Declared target column (heuristic pick when `None`).
    pub target: Option<String>,
    /// Dirty-row policy for the mining loads.
    pub on_dirty: DirtyPolicy,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            min_containment: 1.0,
            max_violations: 0,
            sketch_size: DEFAULT_SKETCH_SIZE,
            threads: 1,
            target: None,
            on_dirty: DirtyPolicy::Quarantine {
                max_bad_rows: usize::MAX,
            },
        }
    }
}

impl DiscoveryConfig {
    /// Reads the discovery knobs from the environment (strict parsing;
    /// an invalid value is a typed error, not a silent default) and the
    /// worker count from `HAMLET_THREADS`.
    pub fn from_env() -> Result<DiscoveryConfig, DiscoveryError> {
        let mut cfg = DiscoveryConfig::default();
        if let Some(v) = hamlet_obs::env::var_where(
            "HAMLET_FD_MIN_CONTAINMENT",
            "a float in (0, 1]",
            |&v: &f64| v > 0.0 && v <= 1.0,
        )? {
            cfg.min_containment = v;
        }
        if let Some(v) =
            hamlet_obs::env::var::<u64>("HAMLET_FD_MAX_VIOLATIONS", "a non-negative integer")?
        {
            cfg.max_violations = v;
        }
        if let Some(v) =
            hamlet_obs::env::var_where("HAMLET_SKETCH_SIZE", "a positive integer", |&v: &usize| {
                v > 0
            })?
        {
            cfg.sketch_size = v;
        }
        cfg.threads = hamlet_obs::env::resolved_threads();
        Ok(cfg)
    }
}

/// Result of a discovery run: the synthesized manifest (text and parsed)
/// plus the full evidence report.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Manifest text, loadable with [`Manifest::parse`] + `load`.
    pub manifest_text: String,
    /// The parsed (already validated) manifest.
    pub manifest: Manifest,
    /// Evidence for every accepted and rejected candidate.
    pub report: DiscoveryReport,
}

/// One loaded corpus table.
struct Mined {
    file: String,
    name: String,
    table: Table,
    quarantined: usize,
    total_rows: usize,
}

/// File stem of a corpus file name (`x.csv` -> `x`), matching the
/// manifest loader's naming.
fn stem(file: &str) -> String {
    file.rsplit('/')
        .next()
        .unwrap_or(file)
        .trim_end_matches(".csv")
        .to_string()
}

/// All-nominal feature specs for every header column — the role-free
/// mining load shared by the file and in-memory paths.
fn mining_specs(header: &[String]) -> Vec<(String, hamlet_relational::ColumnSpec)> {
    header
        .iter()
        .map(|h| (h.clone(), hamlet_relational::ColumnSpec::feature(h)))
        .collect()
}

/// Wraps one mining load into its [`Mined`] record, warning about
/// quarantined rows exactly as the legacy in-memory path did.
fn mined_from_load(file: &str, name: String, load: CsvLoad) -> Mined {
    if !load.quarantined.is_empty() {
        hamlet_obs::record_warning(format!(
            "discovery: table '{name}': quarantined {} of {} rows during the mining load",
            load.quarantined.len(),
            load.total_rows
        ));
    }
    Mined {
        file: file.to_string(),
        name,
        quarantined: load.quarantined.len(),
        total_rows: load.total_rows,
        table: load.table,
    }
}

/// Mines a directory of raw CSVs from the filesystem. Each file is
/// **streamed** through the chunked ingester (header sniffed from the
/// first line only, rows decoded incrementally under any
/// `HAMLET_MEM_BUDGET_MB` in force) — the corpus is never slurped into
/// memory as strings.
pub fn discover_dir(dir: &Path, cfg: &DiscoveryConfig) -> Result<Discovery, DiscoveryError> {
    let entries = std::fs::read_dir(dir).map_err(|e| DiscoveryError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let mut names: Vec<String> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| DiscoveryError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") {
            names.push(name);
        }
    }
    names.sort();
    if names.is_empty() {
        return Err(DiscoveryError::EmptyCorpus {
            source: dir.display().to_string(),
        });
    }
    let load_span = hamlet_obs::span!("discovery.load", tables = names.len());
    let mut tables: Vec<Mined> = Vec::new();
    for file in &names {
        let path = dir.join(file);
        let name = stem(file);
        let header = csv_header_path(&path, ',')?.ok_or_else(|| {
            DiscoveryError::Relational(hamlet_relational::RelationalError::EmptyTable {
                table: name.clone(),
            })
        })?;
        let specs = mining_specs(&header);
        let spec_refs: Vec<(&str, hamlet_relational::ColumnSpec)> =
            specs.iter().map(|(n, s)| (n.as_str(), s.clone())).collect();
        let load = read_csv_file_lenient(&name, &path, &spec_refs, ',', cfg.on_dirty)?;
        tables.push(mined_from_load(file, name, load));
    }
    drop(load_span);
    discover_tables(tables, cfg)
}

/// Mines an in-memory corpus (file name -> CSV text). The entry point
/// for tests and the building block of [`discover_dir`].
pub fn discover_corpus(
    corpus: &BTreeMap<String, String>,
    cfg: &DiscoveryConfig,
) -> Result<Discovery, DiscoveryError> {
    if corpus.is_empty() {
        return Err(DiscoveryError::EmptyCorpus {
            source: "<in-memory corpus>".to_string(),
        });
    }

    // Stage 1: load every file as an all-nominal table. No roles are
    // assumed, so duplicate "keys" and stringly numerics survive as data
    // for the evidence passes below.
    let load_span = hamlet_obs::span!("discovery.load", tables = corpus.len());
    let mut tables: Vec<Mined> = Vec::new();
    for (file, text) in corpus {
        let name = stem(file);
        let header = csv_header(text, ',').ok_or_else(|| {
            DiscoveryError::Relational(hamlet_relational::RelationalError::EmptyTable {
                table: name.clone(),
            })
        })?;
        let specs = mining_specs(&header);
        let spec_refs: Vec<(&str, hamlet_relational::ColumnSpec)> =
            specs.iter().map(|(n, s)| (n.as_str(), s.clone())).collect();
        let load = read_csv_lenient(&name, text, &spec_refs, ',', cfg.on_dirty)?;
        tables.push(mined_from_load(file, name, load));
    }
    drop(load_span);
    discover_tables(tables, cfg)
}

/// Stages 2–5 over already-mined tables: sketches, edge proposals, FD
/// verification, and manifest synthesis. Shared by [`discover_dir`]
/// (streamed loads) and [`discover_corpus`] (in-memory loads), so both
/// entry points produce bit-identical output for identical logical data.
fn discover_tables(tables: Vec<Mined>, cfg: &DiscoveryConfig) -> Result<Discovery, DiscoveryError> {
    counter_add!("hamlet_discovery_tables_total", tables.len());

    // Stage 2: per-column fingerprint sketches, in parallel. The job is
    // a pure function of its index, so `run_indexed` keeps the output
    // deterministic at any thread count.
    let col_ix: Vec<(usize, usize)> = tables
        .iter()
        .enumerate()
        .flat_map(|(t, m)| (0..m.table.schema().len()).map(move |c| (t, c)))
        .collect();
    let sketches: Vec<ColumnSketch> = {
        let _span = hamlet_obs::span!("discovery.sketch", columns = col_ix.len());
        run_indexed(col_ix.len(), cfg.threads, &|i| {
            let (t, c) = col_ix[i];
            let m = &tables[t];
            ColumnSketch::of_column(
                &m.name,
                &m.table.schema().attributes()[c].name,
                m.table.column(c),
                cfg.sketch_size,
            )
        })
    };
    let sketch_of = |t: usize, c: usize| -> &ColumnSketch {
        // col_ix is (t, c) in row-major order over the same schemas.
        let base: usize = tables[..t].iter().map(|m| m.table.schema().len()).sum();
        &sketches[base + c]
    };

    // Stage 3a: candidate keys — columns whose duplicate-row count fits
    // inside the violation tolerance.
    let mut keys: Vec<KeyCandidate> = Vec::new();
    for &(t, c) in &col_ix {
        let s = sketch_of(t, c);
        keys.push(KeyCandidate {
            table: s.table.clone(),
            column: s.column.clone(),
            rows: s.rows,
            distinct: s.distinct,
            duplicates: s.duplicate_rows(),
            accepted: s.rows > 0 && s.duplicate_rows() as u64 <= cfg.max_violations,
        });
    }

    if tables.len() == 1 {
        return single_table_discovery(&tables[0], cfg, keys);
    }

    // Stage 3b: FK edge proposals — every (column, accepted foreign key)
    // pair, containment evaluated in parallel over the sketches alone.
    let key_ix: Vec<usize> = keys
        .iter()
        .enumerate()
        .filter(|(_, k)| k.accepted)
        .map(|(i, _)| i)
        .collect();
    let pair_ix: Vec<(usize, usize)> = col_ix
        .iter()
        .enumerate()
        .flat_map(|(src, _)| key_ix.iter().map(move |&dst| (src, dst)))
        .filter(|&(src, dst)| col_ix[src].0 != col_ix[dst].0)
        .collect();
    let containments: Vec<(f64, bool)> = run_indexed(pair_ix.len(), cfg.threads, &|i| {
        let (src, dst) = pair_ix[i];
        let (st, sc) = col_ix[src];
        let (dt, dc) = col_ix[dst];
        let sub = sketch_of(st, sc);
        let sup = sketch_of(dt, dc);
        (sub.containment_in(sup), sub.exact() && sup.exact())
    });

    let mut fks: Vec<FkCandidate> = Vec::with_capacity(pair_ix.len());
    for (i, &(src, dst)) in pair_ix.iter().enumerate() {
        let (st, sc) = col_ix[src];
        let (dt, dc) = col_ix[dst];
        let sub = sketch_of(st, sc);
        let sup = sketch_of(dt, dc);
        let (containment, exact) = containments[i];
        fks.push(FkCandidate {
            fk_table: sub.table.clone(),
            fk_column: sub.column.clone(),
            key_table: sup.table.clone(),
            key_file: tables[dt].file.clone(),
            key_column: sup.column.clone(),
            containment,
            exact,
            fk_distinct: sub.distinct,
            key_distinct: sup.distinct,
            closed: containment >= 1.0,
            accepted: false,
            reason: format!(
                "containment {containment:.4} below threshold {:.2}",
                cfg.min_containment
            ),
        });
    }

    // Best above-threshold edge per source column: highest containment,
    // then the tightest key (fewest distinct values), then name order.
    // `fks` is index-parallel to `pair_ix`, so an edge index addresses
    // both its evidence record and its (source, key) column pair.
    let mut best_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for (i, e) in fks.iter().enumerate() {
        if e.containment < cfg.min_containment {
            continue;
        }
        let key = col_ix[pair_ix[i].0];
        let better = match best_of.get(&key) {
            None => true,
            Some(&j) => {
                let b = &fks[j];
                (e.containment, b.key_distinct, &b.key_table, &b.key_column)
                    > (b.containment, e.key_distinct, &e.key_table, &e.key_column)
            }
        };
        if better {
            best_of.insert(key, i);
        }
    }
    for (i, e) in fks.iter_mut().enumerate() {
        if e.containment >= cfg.min_containment && best_of.get(&col_ix[pair_ix[i].0]) != Some(&i) {
            e.reason = "superseded by a tighter key for this column".to_string();
        }
    }

    // Star center: the table whose best edges cover the most other
    // tables; ties break on row count (entities are big), then name.
    let mut coverage: Vec<std::collections::BTreeSet<usize>> = tables
        .iter()
        .map(|_| std::collections::BTreeSet::new())
        .collect();
    for (&(src_t, _), &i) in &best_of {
        coverage[src_t].insert(col_ix[pair_ix[i].1].0);
    }
    let entity_t = (0..tables.len())
        .filter(|&t| !coverage[t].is_empty())
        .max_by(|&a, &b| {
            coverage[a]
                .len()
                .cmp(&coverage[b].len())
                .then(tables[a].table.n_rows().cmp(&tables[b].table.n_rows()))
                .then(tables[b].name.cmp(&tables[a].name)) // smaller name wins
        });
    let entity_t = match entity_t {
        Some(t) => t,
        None => {
            return Err(DiscoveryError::NoStar {
                reason: format!(
                    "no foreign-key edge met containment {:.2} across {} tables",
                    cfg.min_containment,
                    tables.len()
                ),
            })
        }
    };
    let entity = &tables[entity_t];
    let entity_reason = format!(
        "its accepted edges cover {} of {} other table(s); {} rows",
        coverage[entity_t].len(),
        tables.len() - 1,
        entity.table.n_rows()
    );

    // Resolve the entity's edges in header order; a second edge into the
    // same file must agree on the key column (a manifest section has one
    // key), and edges from non-center tables are journaled as rejected.
    let mut fk_of_col: BTreeMap<usize, usize> = BTreeMap::new(); // entity col -> fks index
    let mut key_of_file: BTreeMap<String, String> = BTreeMap::new(); // file -> key column
    for c in 0..entity.table.schema().len() {
        let Some(&i) = best_of.get(&(entity_t, c)) else {
            continue;
        };
        let (file, key_col) = (fks[i].key_file.clone(), fks[i].key_column.clone());
        match key_of_file.get(&file) {
            Some(k) if *k != key_col => {
                fks[i].reason = format!("table '{file}' is already keyed by '{k}'");
            }
            _ => {
                key_of_file.insert(file, key_col);
                fks[i].accepted = true;
                fks[i].reason = format!(
                    "containment {:.4} ({} of {} distinct values)",
                    fks[i].containment, fks[i].fk_distinct, fks[i].key_distinct
                );
                fk_of_col.insert(c, i);
            }
        }
    }
    for (&(src_t, _), &i) in &best_of {
        if src_t != entity_t {
            fks[i].reason = format!(
                "source table '{}' is not the star center",
                tables[src_t].name
            );
        }
    }
    if fk_of_col.is_empty() {
        return Err(DiscoveryError::NoStar {
            reason: format!(
                "star center '{}' kept no usable foreign-key edge",
                entity.name
            ),
        });
    }
    let accepted_edges = fks.iter().filter(|e| e.accepted).count();
    counter_add!("hamlet_discovery_fk_accepted_total", accepted_edges);
    counter_add!(
        "hamlet_discovery_fk_rejected_total",
        fks.len() - accepted_edges
    );

    // Tables neither center nor referenced stay out of the manifest.
    let placed: Vec<String> = fk_of_col
        .values()
        .map(|&i| fks[i].key_table.clone())
        .collect();
    let mut unplaced: Vec<UnplacedTable> = Vec::new();
    for (t, m) in tables.iter().enumerate() {
        if t != entity_t && !placed.contains(&m.name) {
            let reason = format!(
                "unreachable from star center '{}': no accepted foreign-key edge",
                entity.name
            );
            hamlet_obs::record_warning(format!(
                "discovery: table '{}' left out of the manifest ({reason})",
                m.name
            ));
            unplaced.push(UnplacedTable {
                table: m.name.clone(),
                reason,
            });
        }
    }

    // Target: declared, or the smallest-domain non-FK entity column.
    let fk_cols: Vec<String> = fk_of_col
        .keys()
        .map(|&c| entity.table.schema().attributes()[c].name.clone())
        .collect();
    let (target, target_reason) = choose_target(&entity.table, &fk_cols, cfg, |c| {
        sketch_of(entity_t, c).distinct
    })?;

    // Stage 4: factorized FD verification, in parallel. Attribute-table
    // FDs `key -> X_R` first (the paper's `FK -> X_R` through the join),
    // then entity-side `FK -> X_S` candidates for appendix C.
    struct FdJob {
        scope: FdScope,
        table_ix: usize,
        det: String,
        dep: String,
    }
    let mut jobs: Vec<FdJob> = Vec::new();
    let mut attr_seen: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for &i in fk_of_col.values() {
        let dst_t = col_ix[pair_ix[i].1].0;
        if !attr_seen.insert(dst_t) {
            continue; // two FKs into one table verify its FDs once
        }
        let key_col = fks[i].key_column.clone();
        for a in tables[dst_t].table.schema().attributes() {
            if a.name != key_col {
                jobs.push(FdJob {
                    scope: FdScope::AttributeTable,
                    table_ix: dst_t,
                    det: key_col.clone(),
                    dep: a.name.clone(),
                });
            }
        }
    }
    for &c in fk_of_col.keys() {
        let det = entity.table.schema().attributes()[c].name.clone();
        for (ci, a) in entity.table.schema().attributes().iter().enumerate() {
            if fk_of_col.contains_key(&ci) || a.name == target || a.name == det {
                continue;
            }
            jobs.push(FdJob {
                scope: FdScope::Entity,
                table_ix: entity_t,
                det: det.clone(),
                dep: a.name.clone(),
            });
        }
    }
    let checks = {
        let _span = hamlet_obs::span!("discovery.verify", fds = jobs.len());
        run_indexed(jobs.len(), cfg.threads, &|i| {
            let j = &jobs[i];
            check_fd(&tables[j.table_ix].table, &j.det, &j.dep)
        })
    };
    let mut fds: Vec<FdEvidence> = Vec::with_capacity(jobs.len());
    for (j, c) in jobs.iter().zip(checks) {
        let c = c?;
        let accepted = c.holds_within(cfg.max_violations);
        if accepted && c.violations > 0 {
            hamlet_obs::record_warning(format!(
                "discovery: FD {}.{} -> {} accepted with {} violation(s) within tolerance {}",
                c.table, c.determinant, c.dependent, c.violations, cfg.max_violations
            ));
        }
        counter_add!(
            "hamlet_discovery_fd_violations_total",
            c.violations as usize
        );
        fds.push(FdEvidence {
            scope: j.scope,
            table: c.table,
            determinant: c.determinant,
            dependent: c.dependent,
            rows: c.rows,
            groups: c.groups,
            violations: c.violations,
            examples: c.examples,
            accepted,
        });
    }
    let accepted_fds = fds.iter().filter(|f| f.accepted).count();
    counter_add!("hamlet_discovery_fd_accepted_total", accepted_fds);
    counter_add!(
        "hamlet_discovery_fd_rejected_total",
        fds.len() - accepted_fds
    );

    // Appendix-C analysis over the accepted entity-side FDs: which
    // entity attributes are redundant, and does the compatible subset
    // actually decompose the mined entity?
    let entity_analysis = analyze_entity_fds(&entity.table, &fds);

    // Stage 5: synthesize the manifest. Directives follow the entity
    // header order so the loaded star is column-for-column identical to
    // one loaded from a hand-written manifest over the same files.
    let mut text = String::new();
    text.push_str("# synthesized by `hamlet discover`; evidence in the discovery report\n");
    text.push_str(&format!("entity {}\n", entity.file));
    text.push_str(&format!("target {target}\n"));
    let mut attr_files: Vec<(String, String)> = Vec::new(); // (file, key) in fk order
    for (c, a) in entity.table.schema().attributes().iter().enumerate() {
        if a.name == target {
            continue;
        }
        match fk_of_col.get(&c) {
            Some(&i) => {
                let e = &fks[i];
                text.push_str(&format!(
                    "fk {} {} {}\n",
                    e.fk_column,
                    e.key_file,
                    if e.closed { "closed" } else { "open" }
                ));
                if !attr_files.iter().any(|(f, _)| *f == e.key_file) {
                    attr_files.push((e.key_file.clone(), e.key_column.clone()));
                }
            }
            None => text.push_str(&format!("feature {}\n", a.name)),
        }
    }
    for (file, key) in &attr_files {
        text.push('\n');
        text.push_str(&format!("table {file}\n"));
        text.push_str(&format!("key {key}\n"));
        let Some(m) = tables.iter().find(|m| m.file == *file) else {
            continue;
        };
        for a in m.table.schema().attributes() {
            if a.name != *key {
                text.push_str(&format!("feature {}\n", a.name));
            }
        }
    }
    let manifest = Manifest::parse(&text)?;

    let report = DiscoveryReport {
        min_containment: cfg.min_containment,
        max_violations: cfg.max_violations,
        sketch_size: cfg.sketch_size,
        tables: tables
            .iter()
            .map(|m| TableSummary {
                file: m.file.clone(),
                table: m.name.clone(),
                rows: m.table.n_rows(),
                columns: m.table.schema().len(),
                quarantined: m.quarantined,
                total_rows: m.total_rows,
            })
            .collect(),
        entity: entity.name.clone(),
        entity_reason,
        target,
        target_reason,
        keys,
        fks,
        fds,
        entity_analysis,
        unplaced,
    };
    Ok(Discovery {
        manifest_text: text,
        manifest,
        report,
    })
}

/// Target selection: the declared column (validated), or the non-FK
/// column with the smallest distinct count ≥ 2 (ties break on header
/// order). Classification targets have small domains; keys and
/// high-cardinality features do not.
fn choose_target(
    entity: &Table,
    fk_cols: &[String],
    cfg: &DiscoveryConfig,
    distinct_of: impl Fn(usize) -> usize,
) -> Result<(String, String), DiscoveryError> {
    if let Some(t) = &cfg.target {
        if fk_cols.contains(t) {
            return Err(DiscoveryError::Target {
                reason: format!("declared target '{t}' is a foreign-key column"),
            });
        }
        if entity.schema().index_of(t).is_none() {
            return Err(DiscoveryError::Target {
                reason: format!(
                    "declared target '{t}' is not a column of entity '{}'",
                    entity.name()
                ),
            });
        }
        return Ok((t.clone(), "declared by the caller".to_string()));
    }
    let mut best: Option<(usize, usize)> = None; // (distinct, col)
    for (c, a) in entity.schema().attributes().iter().enumerate() {
        if fk_cols.contains(&a.name) {
            continue;
        }
        let d = distinct_of(c);
        if d < 2 {
            continue;
        }
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, c));
        }
    }
    match best {
        Some((d, c)) => {
            let name = entity.schema().attributes()[c].name.clone();
            Ok((
                name,
                format!("smallest-domain non-key column ({d} distinct values)"),
            ))
        }
        None => Err(DiscoveryError::Target {
            reason: format!(
                "entity '{}' has no non-key column with at least 2 distinct values",
                entity.name()
            ),
        }),
    }
}

/// Appendix-C analysis: accepted entity FDs -> redundant attributes, the
/// star-compatible subset, and a `decompose_star` attempt on the mined
/// entity instance.
fn analyze_entity_fds(entity: &Table, fds: &[FdEvidence]) -> EntityFdAnalysis {
    let mut by_det: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for fd in fds {
        if fd.accepted && fd.scope == FdScope::Entity {
            by_det
                .entry(fd.determinant.clone())
                .or_default()
                .push(fd.dependent.clone());
        }
    }
    let mut functional: Vec<FunctionalDependency> = Vec::new();
    for (det, mut deps) in by_det {
        deps.sort();
        deps.dedup();
        functional.push(FunctionalDependency {
            determinant: vec![det],
            dependents: deps,
        });
    }
    if functional.is_empty() {
        return EntityFdAnalysis {
            redundant_attributes: Vec::new(),
            compatible_fds: Vec::new(),
            decompose_outcome: "no entity-side FDs accepted".to_string(),
        };
    }
    let mut redundant = redundant_attributes(&functional);
    redundant.sort();
    let compatible = select_compatible_fds(&functional);
    let rendered: Vec<String> = compatible
        .iter()
        .map(|fd| {
            format!(
                "{} -> {}",
                fd.determinant.join(","),
                fd.dependents.join(",")
            )
        })
        .collect();
    let decompose_outcome = match decompose_star(entity, &compatible) {
        Ok(star) => format!(
            "entity decomposes further into {} attribute table(s)",
            star.k()
        ),
        Err(e) => format!("not decomposed: {e}"),
    };
    EntityFdAnalysis {
        redundant_attributes: redundant,
        compatible_fds: rendered,
        decompose_outcome,
    }
}

/// Single-file corpora skip FK mining entirely: the wide CSV is the
/// entity, and the single-attribute FDs that hold within
/// `HAMLET_FD_MAX_VIOLATIONS` (canonically ordered, as
/// `infer_single_fds` orders them) drive the appendix-C analysis
/// instead.
fn single_table_discovery(
    mined: &Mined,
    cfg: &DiscoveryConfig,
    keys: Vec<KeyCandidate>,
) -> Result<Discovery, DiscoveryError> {
    let (target, target_reason) = choose_target(&mined.table, &[], cfg, |c| {
        mined.table.column(c).distinct_count()
    })?;

    // The single-attribute FD candidates `infer_single_fds` would test,
    // with the target barred from both sides, each checked once through
    // the sorted-partition check and kept within the violation tolerance.
    let mut fds: Vec<FdEvidence> = Vec::new();
    for (det, dep) in hamlet_relational::single_fd_candidates(&mined.table, 2) {
        if det == target || dep == target {
            continue;
        }
        let c = check_fd(&mined.table, det, dep)?;
        if !c.holds_within(cfg.max_violations) {
            continue;
        }
        fds.push(FdEvidence {
            scope: FdScope::Entity,
            table: c.table,
            determinant: c.determinant,
            dependent: c.dependent,
            rows: c.rows,
            groups: c.groups,
            violations: c.violations,
            examples: c.examples,
            accepted: true,
        });
    }
    let entity_analysis = analyze_entity_fds(&mined.table, &fds);
    counter_add!(
        "hamlet_discovery_fd_accepted_total",
        fds.iter().filter(|f| f.accepted).count()
    );

    let mut text = String::new();
    text.push_str("# synthesized by `hamlet discover`; evidence in the discovery report\n");
    text.push_str(&format!("entity {}\n", mined.file));
    text.push_str(&format!("target {target}\n"));
    for a in mined.table.schema().attributes() {
        if a.name != target {
            text.push_str(&format!("feature {}\n", a.name));
        }
    }
    let manifest = Manifest::parse(&text)?;
    let report = DiscoveryReport {
        min_containment: cfg.min_containment,
        max_violations: cfg.max_violations,
        sketch_size: cfg.sketch_size,
        tables: vec![TableSummary {
            file: mined.file.clone(),
            table: mined.name.clone(),
            rows: mined.table.n_rows(),
            columns: mined.table.schema().len(),
            quarantined: mined.quarantined,
            total_rows: mined.total_rows,
        }],
        entity: mined.name.clone(),
        entity_reason: "single-table corpus".to_string(),
        target,
        target_reason,
        keys,
        fks: Vec::new(),
        fds,
        entity_analysis,
        unplaced: Vec::new(),
    };
    Ok(Discovery {
        manifest_text: text,
        manifest,
        report,
    })
}
