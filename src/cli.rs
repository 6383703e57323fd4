//! The `hamlet` command-line tool.
//!
//! Subcommands:
//!
//! * `advise --dataset <name> [--scale S] [--family F] [--relaxed]` —
//!   run the join advisor on one of the seven built-in synthetic
//!   datasets with family-specific thresholds (`--strategy factorize`
//!   recommends factorized execution for joins that must be kept);
//! * `train --dataset <name> [--scale S] [--model nb|logreg|tree|gbt]
//!   [--strategy factorize|materialize]` — train a classifier over the
//!   star schema; the factorize path never materializes a join and
//!   reports parity against the materialized reference;
//! * `retune [--family F] [...]` — Monte-Carlo revalidation of the
//!   per-family join-avoidance thresholds over the simulation grid;
//! * `profile --dataset <name> [--scale S]` — print the star-schema
//!   profile (row counts, domains, entropies, TR/q_R*);
//! * `csv-advise <file.csv> --target <col> [--numeric col:bins]...
//!   [--skip col]... [--min-distinct N]` — load a wide (denormalized)
//!   CSV, infer functional dependencies, decompose into a star schema,
//!   and advise which recovered joins were unnecessary;
//! * `advise-files <schema.manifest>` — load a normalized multi-table
//!   dataset from CSVs via a manifest and advise on its joins;
//! * `simulate --scenario <name> [...]` — run one point of the paper's
//!   Monte-Carlo simulation; `--resume` checkpoints completed cells
//!   under `results/checkpoints/` so a crashed run picks up where it
//!   left off (bit-for-bit).
//!
//! The module is process-free (string in, string out) so the integration
//! suite can drive it directly; `src/bin/hamlet.rs` is a thin shell.

use std::fmt::Write as _;
use std::time::Instant;

use hamlet_core::advisor::{advise, AdvisorConfig};
use hamlet_core::rules::{RorRule, TrRule, RELAXED_RHO, RELAXED_TAU};
use hamlet_core::ModelFamily;
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_discovery::{discover_dir, DiscoveryConfig, DiscoveryReport, FdScope};
use hamlet_factorized::FactorizedView;
use hamlet_ml::{zero_one_error, Classifier, Dataset, LogisticRegression, NaiveBayes};
use hamlet_obs::RunJournal;
use hamlet_relational::decompose::{decompose_star, infer_single_fds, select_compatible_fds};
use hamlet_relational::{
    lint_star, profile_star, read_csv, ColumnSpec, DirtyPolicy, FkPolicy, LintConfig, LoadPolicy,
    Manifest, StarLoad, StarSchema, TablePolicy,
};
use hamlet_serve::{
    artifact, build_artifact, build_artifact_with_availability, ModelKind, ScoreError, Scorer,
    ServerConfig,
};
use hamlet_trees::{CartTree, Gbt};

/// CLI error: a user-facing message (exit code 2 in the binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
hamlet — join avoidance for feature selection over normalized data

USAGE:
  hamlet advise --dataset <name> [--scale S] [--family F] [--relaxed] [--markdown] [--strategy factorize|materialize]
  hamlet train (--dataset <name> [--scale S] | --discover DIR) [--model nb|logreg|tree|gbt] [--strategy factorize|materialize]
  hamlet profile --dataset <name> [--scale S]
  hamlet csv-advise <file.csv> --target <col> [--numeric col:bins]... [--skip col]... [--min-distinct N]
  hamlet advise-files (<schema.manifest> | --discover DIR) [--family F] [--relaxed] [--on-dirty P] [--on-dangling-fk P] [--allow-degraded]
  hamlet discover <dir> [--target col] [--family F] [--relaxed] [--strategy factorize|materialize]
                  [--min-containment X] [--max-violations N] [--sketch-size N] [--on-dirty P]
                  [--out FILE] [--report FILE]
  hamlet simulate [--scenario lone|all|entity-fk] [--n-s N] [--n-r N]
                  [--train-sets T] [--repeats R] [--seed S] [--resume] [--out FILE]
  hamlet retune [--family F] [--n-s N] [--train-sets T] [--repeats R] [--seed S]
  hamlet save-model (--dataset <name> [--scale S] | --manifest FILE [--allow-degraded] | --discover DIR)
                    --out FILE [--model nb|logreg|tan|tree|gbt] [--relaxed]
  hamlet predict --model FILE --in FILE [--out FILE]
  hamlet serve --model FILE [--model ID=FILE]... [--port N] [--threads N] [--queue N]
               [--max-requests-per-conn N] [--idle-ms MS] [--batch-window-us US] [--fallback]
  hamlet reload [--port N]
  hamlet datasets
  hamlet help

Model serving:
  save-model runs the advisor, fits the chosen family over the advisor-
  approved view (avoided joins stay avoided; unseen FK values get a
  trained Others bucket), and writes a versioned, checksummed artifact.
  predict scores a JSON file of rows offline. serve answers
  GET /healthz, GET /metrics, GET /models, POST /predict, POST /reload,
  and per-model /models/<id>/predict + /models/<id>/healthz over
  HTTP/1.1 keep-alive (pipelining-safe; --max-requests-per-conn caps one
  connection, 0 = unlimited; --idle-ms closes silent keep-alive
  connections) until SIGTERM/ctrl-c, then drains in-flight requests and
  exits 0; a full request queue is shed with 503. SIGHUP or
  `hamlet reload` hot-swaps every disk-backed model atomically — a
  failed reload keeps the old models serving. Concurrent single-row
  predicts within --batch-window-us (else HAMLET_BATCH_WINDOW_US, else
  0 = off) are micro-batched, bit-for-bit identical to unbatched
  scoring. Worker count: --threads, else HAMLET_THREADS, else available
  parallelism.

Model families (--family, --model):
  naive_bayes (nb), logistic_regression (logreg), tan, tree (cart),
  gbt (boosted). The advisor quotes family-specific (rho, tau)
  thresholds — tree families carry Monte-Carlo re-tuned, more
  conservative values; retune re-derives them from simulation and
  prints the per-family evidence grid. GBT training reads
  HAMLET_GBT_ROUNDS (default 20) for the boosting-round count.

Schema discovery (discover; --discover DIR on advise-files, train, save-model):
  discover mines a directory of raw CSVs with no manifest: per-column
  fingerprint sketches propose FK edges by containment, the implied FDs
  FK -> X_R are verified factorized (count tables over per-table
  partitions — no join is ever materialized), and a validated manifest
  plus a JSON evidence report (every accepted AND rejected candidate)
  are written next to the corpus (--out / --report override).
  --min-containment (else HAMLET_FD_MIN_CONTAINMENT, default 1.0) sets
  the FK inclusion threshold; --max-violations (else
  HAMLET_FD_MAX_VIOLATIONS, default 0) tolerates dirty rows — FDs
  holding on all but that many rows still qualify, each exception
  journaled; --sketch-size (else HAMLET_SKETCH_SIZE, default 65536)
  caps per-column sketch memory. --discover DIR on advise-files, train,
  and save-model runs the same mining inline, so
  `discover` -> `advise` -> `train --strategy factorize` works with
  zero declared metadata.

Dirty-data policies (advise-files, save-model --manifest):
  --on-dirty abort|quarantine[:N]   bad CSV rows: fail fast (default) or set
                                    aside up to N rows per table
  --on-dangling-fk abort|drop|others  entity rows whose FK matches no row:
                                    fail fast (default), drop them, or map
                                    them to an injected Others record
  --allow-degraded                  a declared-but-unreadable attribute table
                                    becomes an FK-only surrogate (cold-start
                                    Others semantics) instead of aborting; the
                                    worst-case ROR bound is journaled and the
                                    artifact decision is marked degraded

Degraded-mode serving:
  serve --fallback answers scoring faults (and requests against degraded
  artifacts) from the model's prior-only surrogate instead of 5xx: responses
  carry an X-Hamlet-Degraded: true header and a \"degraded\":true field, and
  hamlet_serve_degraded_total counts them. A per-model circuit breaker trips
  after HAMLET_BREAKER_THRESHOLD consecutive faults (default 5) and probes
  full scoring every HAMLET_BREAKER_PROBE-th request (default 8) until one
  succeeds. Artifact loads retry transient IO errors with exponential backoff
  (HAMLET_RETRY_ATTEMPTS / HAMLET_RETRY_BASE_MS / HAMLET_RETRY_MAX_MS).
  Without --fallback a scoring fault keeps the legacy fail-fast behavior.

Checkpointing (simulate):
  --resume   persist each completed (repeat, train-set) cell atomically under
             results/checkpoints/ (or HAMLET_CHECKPOINT_DIR) and reuse cells
             from an earlier run of the same configuration; a rerun after a
             crash resumes bit-for-bit
  --out FILE write the report to FILE via the atomic writer (tmp+fsync+rename)

Observability (any subcommand):
  --trace    print the span tree (hierarchical wall-clock timings)
  --metrics  print Prometheus-style metrics (rows joined, fits, cells avoided, peak bytes)
Either flag also appends a JSONL entry to the run journal
(results/journal/runs.jsonl; override the directory with HAMLET_JOURNAL_DIR).

Built-in datasets: Walmart, Expedia, Flights, Yelp, MovieLens1M, LastFM, BookCrossing.
";

/// Finds `flag`'s value. Strict where the old version was silently
/// forgiving: a flag that is last on the line, followed by another
/// `--flag`, or given twice is an error, not `None` (which used to make
/// `train --scale` quietly run at the default scale).
fn parse_flag<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
    let mut found: Option<&'a str> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] != flag {
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .map(String::as_str)
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| CliError(format!("{flag} requires a value")))?;
        if found.is_some() {
            return Err(CliError(format!("{flag} given more than once")));
        }
        found = Some(value);
        i += 2;
    }
    Ok(found)
}

fn parse_multi<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < args.len() {
        if args[i] == flag {
            out.push(args[i + 1].as_str());
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn dataset_arg(args: &[String]) -> Result<(DatasetSpec, f64), CliError> {
    let name = parse_flag(args, "--dataset")?
        .ok_or_else(|| CliError("missing --dataset <name>".into()))?;
    let spec = DatasetSpec::by_name(name).ok_or_else(|| {
        CliError(format!(
            "unknown dataset '{name}'; run `hamlet datasets` for the list"
        ))
    })?;
    let scale: f64 = parse_flag(args, "--scale")?
        .map(|s| {
            s.parse()
                .map_err(|_| CliError(format!("bad --scale '{s}'")))
        })
        .transpose()?
        .unwrap_or(0.05);
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(CliError(format!("--scale must be in (0, 1], got {scale}")));
    }
    Ok((spec, scale))
}

/// Parses the degradation-policy flags shared by file-loading
/// subcommands: `--on-dirty abort|quarantine[:N]`,
/// `--on-dangling-fk abort|drop|others`, and `--allow-degraded`
/// (tolerate unreadable attribute tables via FK-only surrogates).
/// Everything defaults to strict abort.
fn load_policy_args(args: &[String]) -> Result<LoadPolicy, CliError> {
    let on_dirty = match parse_flag(args, "--on-dirty")? {
        None => DirtyPolicy::Abort,
        Some(v) => DirtyPolicy::parse(v).ok_or_else(|| {
            CliError(format!(
                "--on-dirty must be 'abort', 'quarantine', or 'quarantine:N', got '{v}'"
            ))
        })?,
    };
    let on_dangling_fk = match parse_flag(args, "--on-dangling-fk")? {
        None => FkPolicy::Abort,
        Some(v) => FkPolicy::parse(v).ok_or_else(|| {
            CliError(format!(
                "--on-dangling-fk must be 'abort', 'drop', or 'others', got '{v}'"
            ))
        })?,
    };
    let on_missing_table = if args.iter().any(|a| a == "--allow-degraded") {
        TablePolicy::AllowDegraded
    } else {
        TablePolicy::Require
    };
    Ok(LoadPolicy {
        on_dirty,
        on_dangling_fk,
        on_missing_table,
    })
}

/// Renders the degradation report of a policy-driven load ("" when the
/// load was clean).
fn render_degradations(load: &StarLoad) -> String {
    if !load.degraded() {
        return String::new();
    }
    let mut out = String::from("\nDegradations applied during load:\n");
    for q in load.quarantine.iter().filter(|q| !q.rows.is_empty()) {
        let _ = writeln!(
            out,
            "  table '{}': quarantined {} of {} rows",
            q.table,
            q.rows.len(),
            q.total_rows
        );
        for r in q.rows.iter().take(5) {
            let _ = writeln!(out, "    row {}: {}", r.row, r.reason);
        }
        if q.rows.len() > 5 {
            let _ = writeln!(out, "    ... and {} more", q.rows.len() - 5);
        }
    }
    if !load.dropped_rows.is_empty() {
        let _ = writeln!(
            out,
            "  entity: dropped {} row(s) with dangling foreign keys",
            load.dropped_rows.len()
        );
    }
    if !load.others_rows.is_empty() {
        let _ = writeln!(
            out,
            "  entity: remapped {} row(s) to the Others record",
            load.others_rows.len()
        );
    }
    out
}

/// Parses `--strategy factorize|materialize` into "factorize?" —
/// `None` when the flag is absent.
fn strategy_arg(args: &[String]) -> Result<Option<bool>, CliError> {
    match parse_flag(args, "--strategy")? {
        None => Ok(None),
        Some("factorize") => Ok(Some(true)),
        Some("materialize") => Ok(Some(false)),
        Some(other) => Err(CliError(format!(
            "--strategy must be 'factorize' or 'materialize', got '{other}'"
        ))),
    }
}

/// Parses the discovery knobs shared by `discover` and the `--discover`
/// variants of `advise-files`/`train`/`save-model`: the environment is
/// read first (strict — a malformed knob is an error), then explicit
/// flags override it.
fn discovery_args(rest: &[String]) -> Result<DiscoveryConfig, CliError> {
    let mut cfg = DiscoveryConfig::from_env().map_err(|e| CliError(e.to_string()))?;
    if let Some(v) = parse_flag(rest, "--min-containment")? {
        let x: f64 = v
            .parse()
            .map_err(|_| CliError(format!("bad --min-containment '{v}'")))?;
        if !(x > 0.0 && x <= 1.0) {
            return Err(CliError(format!(
                "--min-containment must be in (0, 1], got {x}"
            )));
        }
        cfg.min_containment = x;
    }
    if let Some(v) = parse_flag(rest, "--max-violations")? {
        cfg.max_violations = v
            .parse()
            .map_err(|_| CliError(format!("bad --max-violations '{v}'")))?;
    }
    if let Some(v) = parse_flag(rest, "--sketch-size")? {
        let n: usize = v
            .parse()
            .map_err(|_| CliError(format!("bad --sketch-size '{v}'")))?;
        if n == 0 {
            return Err(CliError("--sketch-size must be positive".into()));
        }
        cfg.sketch_size = n;
    }
    if let Some(v) = parse_flag(rest, "--on-dirty")? {
        cfg.on_dirty = DirtyPolicy::parse(v).ok_or_else(|| {
            CliError(format!(
                "--on-dirty must be 'abort', 'quarantine', or 'quarantine:N', got '{v}'"
            ))
        })?;
    }
    if let Some(t) = parse_flag(rest, "--target")? {
        cfg.target = Some(t.to_string());
    }
    Ok(cfg)
}

/// Mines `dir` and loads the discovered star back from the same corpus;
/// the star the advisor sees is exactly what the synthesized manifest
/// describes, not a private in-memory variant. The load reuses the
/// mining dirty-row policy: a schema accepted within the violation
/// tolerance (e.g. a duplicated key row) must survive its own load, with
/// the offending rows quarantined and any FKs they strand mapped to the
/// paper's `Others` record rather than aborting.
fn discover_star(
    dir: &std::path::Path,
    rest: &[String],
) -> Result<(hamlet_discovery::Discovery, StarSchema), CliError> {
    let cfg = discovery_args(rest)?;
    let d = discover_dir(dir, &cfg).map_err(|e| CliError(e.to_string()))?;
    let policy = LoadPolicy {
        on_dirty: cfg.on_dirty,
        on_dangling_fk: match cfg.on_dirty {
            DirtyPolicy::Abort => FkPolicy::Abort,
            DirtyPolicy::Quarantine { .. } => FkPolicy::MapToOthers,
        },
        on_missing_table: TablePolicy::Require,
    };
    let load = d
        .manifest
        .load_policy(dir, &policy)
        .map_err(|e| CliError(e.to_string()))?;
    for q in load.quarantine.iter().filter(|q| !q.rows.is_empty()) {
        hamlet_obs::record_warning(format!(
            "discover: table '{}': quarantined {} of {} rows loading the discovered star",
            q.table,
            q.rows.len(),
            q.total_rows
        ));
    }
    if !load.others_rows.is_empty() {
        hamlet_obs::record_warning(format!(
            "discover: {} entity row(s) remapped to Others (FKs stranded by quarantined key rows)",
            load.others_rows.len()
        ));
    }
    Ok((d, load.star))
}

/// Renders a human summary of a discovery report: the mined star shape
/// plus candidate counts, so the console shows where the evidence lives
/// without dumping the full JSON.
fn render_discovery(report: &DiscoveryReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Discovered star over {} table(s): entity '{}', target '{}'",
        report.tables.len(),
        report.entity,
        report.target
    );
    let _ = writeln!(out, "  ({})", report.entity_reason);
    for e in report.accepted_fks() {
        let _ = writeln!(
            out,
            "  fk {} -> {} (containment {:.4}, {})",
            e.fk_column,
            e.key_file,
            e.containment,
            if e.closed { "closed" } else { "open" }
        );
    }
    let (fd_ok, fd_no) = report
        .fds
        .iter()
        .fold((0usize, 0usize), |(a, r), f| match f.accepted {
            true => (a + 1, r),
            false => (a, r + 1),
        });
    let _ = writeln!(
        out,
        "FDs verified without joins: {fd_ok} accepted, {fd_no} rejected (tolerance {})",
        report.max_violations
    );
    for f in report.accepted_fds().filter(|f| f.violations > 0) {
        let _ = writeln!(
            out,
            "  {}: {} -> {} held with {} violation(s) journaled",
            f.table, f.determinant, f.dependent, f.violations
        );
    }
    if report
        .fds
        .iter()
        .any(|f| f.scope == FdScope::Entity && f.accepted)
    {
        let _ = writeln!(
            out,
            "  entity-side: {}",
            report.entity_analysis.decompose_outcome
        );
    }
    let _ = writeln!(
        out,
        "Candidates examined: {} key(s), {} FK edge(s), {} FD check(s); all evidence in the report",
        report.keys.len(),
        report.fks.len(),
        report.fds.len()
    );
    for u in &report.unplaced {
        let _ = writeln!(out, "  warning: table '{}' left out: {}", u.table, u.reason);
    }
    out
}

/// The `discover` subcommand: mine a manifest-less directory of CSVs,
/// persist the synthesized manifest and the evidence report, then run
/// the advisor over the discovered star.
fn discover_cmd(rest: &[String]) -> Result<String, CliError> {
    let dir_arg = rest
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError("missing <dir> with the corpus CSVs".into()))?;
    let dir = std::path::Path::new(dir_arg);
    let (d, star) = discover_star(dir, rest)?;
    let manifest_path = parse_flag(rest, "--out")?
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| dir.join("discovered.manifest"));
    hamlet_obs::atomic_write(&manifest_path, d.manifest_text.as_bytes())
        .map_err(|e| CliError(format!("cannot write {}: {e}", manifest_path.display())))?;
    let report_path = parse_flag(rest, "--report")?
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| dir.join("discovery-report.json"));
    d.report
        .write(&report_path)
        .map_err(|e| CliError(format!("cannot write {}: {e}", report_path.display())))?;

    let relaxed = rest.iter().any(|a| a == "--relaxed");
    let family = family_arg(rest)?;
    hamlet_obs::set_model_family(family.name());
    let mut config = advisor_config(relaxed, family);
    config.recommend_factorize = strategy_arg(rest)?.unwrap_or(false);
    let report = advise(&star, star.n_s() / 2, &config).map_err(|e| CliError(e.to_string()))?;
    Ok(format!(
        "{}\n{}\nwrote {} and {}\n",
        render_discovery(&d.report),
        report.render(),
        manifest_path.display(),
        report_path.display()
    ))
}

/// Runs one CLI invocation; `args` excludes the program name.
///
/// `--trace` and `--metrics` work on every subcommand: they append the
/// span tree / Prometheus metrics to the output, and either one also
/// appends a JSONL entry to the run journal (see [`RunJournal::dir`]).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let trace = args.iter().any(|a| a == "--trace");
    let metrics = args.iter().any(|a| a == "--metrics");
    if !(trace || metrics) {
        return dispatch(args);
    }

    if trace {
        hamlet_obs::set_tracing(true);
    }
    let result = dispatch(args);
    hamlet_obs::set_tracing(false);
    let spans = hamlet_obs::drain_spans();

    let mut obs = String::new();
    if trace {
        obs.push_str(&hamlet_obs::render_span_tree(&spans));
        obs.push('\n');
    }
    // Peak-memory gauges are set unconditionally so they land in the
    // run journal's metric snapshot even without --metrics.
    // `peak_alloc` reads 0 when the running binary did not install the
    // counting allocator (e.g. the test harness); `hamlet` itself does.
    let peak = hamlet_obs::alloc::peak_bytes().unwrap_or(0);
    hamlet_obs::metrics::gauge("hamlet_peak_alloc_bytes").set_max(peak as u64);
    // Kernel-reported high-water RSS: the honest number for "did the
    // run fit HAMLET_MEM_BUDGET_MB" (heap + stacks + mapped).
    let rss = hamlet_obs::alloc::peak_rss_bytes().unwrap_or(0);
    hamlet_obs::metrics::gauge("hamlet_peak_rss_bytes").set_max(rss as u64);

    // The journal is appended before metrics render so a write failure
    // shows up as hamlet_journal_write_failures_total in this very
    // invocation's --metrics output, not just on stderr.
    let outcome = match &result {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("error: {e}"),
    };
    let entry = RunJournal::capture(
        format!("hamlet {}", args.join(" ")),
        outcome,
        hamlet_obs::rollup(&spans),
    );
    let journal_line = match entry.append_to(&RunJournal::dir()) {
        Ok(path) => Some(format!("journal: {}", path.display())),
        Err(e) => {
            hamlet_obs::counter_add!("hamlet_journal_write_failures_total", 1);
            eprintln!("warning: could not write run journal: {e}");
            None
        }
    };

    if metrics {
        obs.push_str(&hamlet_obs::render_metrics());
        obs.push('\n');
    }
    if let Some(line) = journal_line {
        let _ = writeln!(obs, "{line}");
    }

    result.map(|body| format!("{body}\n{obs}"))
}

fn dispatch(args: &[String]) -> Result<String, CliError> {
    let _span = hamlet_obs::span!(
        "cli.dispatch",
        cmd = args.first().map(String::as_str).unwrap_or("help")
    );
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(USAGE.to_string()),
        Some("datasets") => {
            let mut out = String::new();
            for spec in DatasetSpec::all() {
                let _ = writeln!(
                    out,
                    "{:<14} #Y={} n_S={} k={} ({} closed FKs)",
                    spec.name,
                    spec.n_classes,
                    spec.n_s,
                    spec.tables.len(),
                    spec.tables.iter().filter(|t| t.closed).count()
                );
            }
            Ok(out)
        }
        Some("advise") => {
            let (spec, scale) = dataset_arg(&args[1..])?;
            let relaxed = args.iter().any(|a| a == "--relaxed");
            let family = family_arg(&args[1..])?;
            let recommend_factorize = strategy_arg(&args[1..])?.unwrap_or(false);
            let g = spec.generate(scale, 20_160_626);
            hamlet_obs::set_model_family(family.name());
            let mut config = advisor_config(relaxed, family);
            config.recommend_factorize = recommend_factorize;
            let report =
                advise(&g.star, g.star.n_s() / 2, &config).map_err(|e| CliError(e.to_string()))?;
            let body = if args.iter().any(|a| a == "--markdown") {
                report.render_markdown()
            } else {
                report.render()
            };
            Ok(format!(
                "{} (scale {scale}{})\n{}",
                spec.name,
                if relaxed { ", relaxed thresholds" } else { "" },
                body
            ))
        }
        Some("train") => {
            let rest = &args[1..];
            let model = parse_flag(rest, "--model")?.unwrap_or("nb");
            if !matches!(model, "nb" | "logreg" | "tree" | "gbt") {
                return Err(CliError(format!(
                    "--model must be 'nb', 'logreg', 'tree', or 'gbt', got '{model}'"
                )));
            }
            let factorize = strategy_arg(rest)?.unwrap_or(true);
            if let Some(f) = ModelFamily::parse(model) {
                hamlet_obs::set_model_family(f.name());
            }
            if let Some(dir) = parse_flag(rest, "--discover")? {
                if parse_flag(rest, "--dataset")?.is_some() {
                    return Err(CliError(
                        "--discover and --dataset are mutually exclusive".into(),
                    ));
                }
                let (d, star) = discover_star(std::path::Path::new(dir), rest)?;
                let body = train_star(&star, model, factorize)?;
                return Ok(format!(
                    "{} (discovered from {dir}), model {model}\n{body}",
                    d.report.entity
                ));
            }
            let (spec, scale) = dataset_arg(rest)?;
            let g = spec.generate(scale, 20_160_626);
            let body = train_star(&g.star, model, factorize)?;
            Ok(format!(
                "{} (scale {scale}), model {model}\n{body}",
                spec.name
            ))
        }
        Some("profile") => {
            let (spec, scale) = dataset_arg(&args[1..])?;
            let g = spec.generate(scale, 20_160_626);
            Ok(profile_star(&g.star).render())
        }
        Some("advise-files") => {
            let rest = &args[1..];
            let relaxed = rest.iter().any(|a| a == "--relaxed");
            let family = family_arg(rest)?;
            let (star, degradations) = if let Some(dir) = parse_flag(rest, "--discover")? {
                let (d, star) = discover_star(std::path::Path::new(dir), rest)?;
                (star, format!("\n{}", render_discovery(&d.report)))
            } else {
                let file = rest
                    .iter()
                    .find(|a| !a.starts_with("--"))
                    .ok_or_else(|| CliError("missing <schema.manifest>".into()))?;
                let policy = load_policy_args(rest)?;
                let text = std::fs::read_to_string(file)
                    .map_err(|e| CliError(format!("cannot read {file}: {e}")))?;
                let manifest = Manifest::parse(&text).map_err(|e| CliError(e.to_string()))?;
                let base = std::path::Path::new(file)
                    .parent()
                    .unwrap_or_else(|| std::path::Path::new("."));
                let load = manifest
                    .load_policy(base, &policy)
                    .map_err(|e| CliError(e.to_string()))?;
                let degradations = render_degradations(&load);
                (load.star, degradations)
            };
            hamlet_obs::set_model_family(family.name());
            let config = advisor_config(relaxed, family);
            let report =
                advise(&star, star.n_s() / 2, &config).map_err(|e| CliError(e.to_string()))?;
            let lints = lint_star(&star, &LintConfig::default());
            let mut out = format!("{}\n{}", profile_star(&star).render(), report.render());
            if !lints.is_empty() {
                out.push_str("\nData-quality warnings:\n");
                for l in lints {
                    out.push_str(&format!("  {l:?}\n"));
                }
            }
            out.push_str(&degradations);
            Ok(out)
        }
        Some("discover") => discover_cmd(&args[1..]),
        Some("simulate") => simulate_cmd(&args[1..]),
        Some("retune") => retune_cmd(&args[1..]),
        Some("save-model") => save_model_cmd(&args[1..]),
        Some("predict") => predict_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("reload") => reload_cmd(&args[1..]),
        Some("csv-advise") => {
            let rest = &args[1..];
            let file = rest
                .iter()
                .find(|a| !a.starts_with("--"))
                .ok_or_else(|| CliError("missing <file.csv>".into()))?;
            let target = parse_flag(rest, "--target")?
                .ok_or_else(|| CliError("missing --target <col>".into()))?;
            let min_distinct: usize = parse_flag(rest, "--min-distinct")?
                .map(|s| {
                    s.parse()
                        .map_err(|_| CliError(format!("bad --min-distinct '{s}'")))
                })
                .transpose()?
                .unwrap_or(20);
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError(format!("cannot read {file}: {e}")))?;
            let numerics: Vec<(String, usize)> = parse_multi(rest, "--numeric")
                .into_iter()
                .map(|spec| {
                    let (name, bins) = spec.split_once(':').ok_or_else(|| {
                        CliError(format!("--numeric needs col:bins, got '{spec}'"))
                    })?;
                    let bins: usize = bins
                        .parse()
                        .map_err(|_| CliError(format!("bad bin count in '{spec}'")))?;
                    Ok((name.to_string(), bins))
                })
                .collect::<Result<_, CliError>>()?;
            let skips: Vec<&str> = parse_multi(rest, "--skip");
            csv_advise(&text, target, &numerics, &skips, min_distinct)
        }
        Some(other) => Err(CliError(format!("unknown subcommand '{other}'\n\n{USAGE}"))),
    }
}

/// Parses an optional numeric flag with a default.
fn num_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, CliError> {
    match parse_flag(args, flag)? {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| CliError(format!("bad {flag} '{v}'"))),
    }
}

/// The `simulate` pipeline: one point of the paper's Monte-Carlo
/// simulation (Sec 4.1), with optional cell-level checkpointing.
fn simulate_cmd(rest: &[String]) -> Result<String, CliError> {
    use hamlet_datagen::sim::{Scenario, SimulationConfig};
    use hamlet_datagen::skew::FkSkew;
    use hamlet_experiments::{
        monte_carlo_opts, simulate, FeatureSetChoice, MonteCarloOpts, CHECKPOINT_DIR_VAR,
        DEFAULT_CHECKPOINT_DIR,
    };

    let scenario = match parse_flag(rest, "--scenario")?.unwrap_or("lone") {
        "lone" => Scenario::LoneForeignFeature,
        "all" => Scenario::AllFeatures,
        "entity-fk" => Scenario::EntityAndFk,
        other => {
            return Err(CliError(format!(
                "--scenario must be 'lone', 'all', or 'entity-fk', got '{other}'"
            )))
        }
    };
    let n_s: usize = num_flag(rest, "--n-s", 1000)?;
    let n_r: usize = num_flag(rest, "--n-r", 40)?;
    if n_s == 0 || n_r == 0 {
        return Err(CliError("--n-s and --n-r must be positive".into()));
    }
    // Fig 3(A)'s fixed shape for everything not worth a flag.
    let cfg = SimulationConfig {
        scenario,
        d_s: 2,
        d_r: 4,
        n_r,
        p: 0.1,
        skew: FkSkew::Uniform,
    };
    let env = monte_carlo_opts();
    let opts = MonteCarloOpts {
        train_sets: num_flag(rest, "--train-sets", env.train_sets)?,
        repeats: num_flag(rest, "--repeats", env.repeats)?,
        base_seed: num_flag(rest, "--seed", env.base_seed)?,
    };
    if opts.train_sets == 0 || opts.repeats == 0 {
        return Err(CliError(
            "--train-sets and --repeats must be positive".into(),
        ));
    }

    let mut out = String::new();
    if rest.iter().any(|a| a == "--resume") {
        // Checkpointing is env-transparent in the runner; --resume just
        // supplies the default root when the variable is unset.
        if std::env::var_os(CHECKPOINT_DIR_VAR).is_none() {
            std::env::set_var(CHECKPOINT_DIR_VAR, DEFAULT_CHECKPOINT_DIR);
        }
        let _ = writeln!(
            out,
            "checkpoints: {}",
            std::env::var(CHECKPOINT_DIR_VAR).unwrap_or_default()
        );
    }

    let est = simulate(&cfg, n_s, &opts);
    let _ = writeln!(
        out,
        "scenario {scenario:?}, n_S = {n_s}, |D_FK| = {n_r}, {} train sets x {} worlds, seed {}",
        opts.train_sets, opts.repeats, opts.base_seed
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "choice", "test err", "net var", "bias", "variance"
    );
    for (c, choice) in FeatureSetChoice::ALL.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<8} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            choice.name(),
            est[c].test_error,
            est[c].net_variance,
            est[c].bias,
            est[c].variance
        );
    }
    if let Some(path) = parse_flag(rest, "--out")? {
        hamlet_obs::atomic_write(std::path::Path::new(path), out.as_bytes())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

/// Process signal plumbing for `hamlet serve`: SIGTERM and SIGINT flip
/// a stop flag the server's accept loop polls (graceful drain instead
/// of a hard kill); SIGHUP flips a reload flag (atomic registry
/// hot-swap from disk). Raw `signal(2)` against libc — the stores are
/// atomic and async-signal-safe, and no crate dependency is needed.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Flipped by the handler; read by the server via
    /// [`ServerConfig::stop_signal`](hamlet_serve::ServerConfig).
    pub static STOP: AtomicBool = AtomicBool::new(false);

    /// Flipped by SIGHUP; read by the server via
    /// [`ServerConfig::reload_signal`](hamlet_serve::ServerConfig),
    /// which clears it and re-reads every disk-backed model.
    pub static RELOAD: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_reload(_signum: i32) {
        RELOAD.store(true, Ordering::SeqCst);
    }

    /// Installs the handlers: SIGTERM (15) and SIGINT (2) stop, SIGHUP
    /// (1) reloads.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(15, on_signal);
            signal(2, on_signal);
            signal(1, on_reload);
        }
    }
}

/// Shared `--relaxed`-aware advisor config.
fn advisor_config(relaxed: bool, family: ModelFamily) -> AdvisorConfig {
    let mut config = AdvisorConfig::for_family(family);
    if relaxed {
        // An explicit user override: the relaxed thresholds replace the
        // family-tuned ones whatever the family.
        config.tr = TrRule::with_tau(RELAXED_TAU);
        config.ror = RorRule::with_rho(RELAXED_RHO);
    }
    config
}

/// Parses `--family` (canonical names or the short aliases), defaulting
/// to Naive Bayes — the paper's primary model.
fn family_arg(args: &[String]) -> Result<ModelFamily, CliError> {
    match parse_flag(args, "--family")? {
        None => Ok(ModelFamily::NaiveBayes),
        Some(s) => ModelFamily::parse(s).ok_or_else(|| {
            CliError(format!(
                "--family must be one of naive_bayes|logistic_regression|tan|tree|gbt \
                 (or nb|logreg|cart|boosted), got '{s}'"
            ))
        }),
    }
}

/// The `retune` pipeline: Monte-Carlo revalidation of the per-family
/// join-avoidance thresholds over the simulation grid.
fn retune_cmd(rest: &[String]) -> Result<String, CliError> {
    use hamlet_experiments::{revalidate_all, revalidate_family, MonteCarloOpts};
    let n_s: usize = num_flag(rest, "--n-s", 400)?;
    let opts = MonteCarloOpts {
        train_sets: num_flag(rest, "--train-sets", 4)?,
        repeats: num_flag(rest, "--repeats", 2)?,
        base_seed: num_flag(rest, "--seed", 7)?,
    };
    if n_s == 0 || opts.train_sets == 0 || opts.repeats == 0 {
        return Err(CliError(
            "--n-s, --train-sets, and --repeats must be positive".into(),
        ));
    }
    let reports = match parse_flag(rest, "--family")? {
        Some(s) => {
            let family = ModelFamily::parse(s).ok_or_else(|| {
                CliError(format!(
                    "--family must be one of naive_bayes|logistic_regression|tan|tree|gbt \
                     (or nb|logreg|cart|boosted), got '{s}'"
                ))
            })?;
            hamlet_obs::set_model_family(family.name());
            vec![revalidate_family(family, n_s, &opts)]
        }
        None => revalidate_all(n_s, &opts),
    };
    let mut out = String::new();
    for r in &reports {
        out.push_str(&r.render());
        out.push('\n');
    }
    Ok(out)
}

/// The `save-model` pipeline: advise, fit, and write the artifact.
///
/// The star comes from either a built-in dataset (`--dataset`, possibly
/// scaled) or a CSV manifest (`--manifest`, with the same dirty-data
/// policy flags as `advise-files`; `--allow-degraded` tolerates
/// unreadable attribute tables via FK-only surrogates and marks the
/// affected decisions `degraded` in the artifact).
fn save_model_cmd(rest: &[String]) -> Result<String, CliError> {
    let model = parse_flag(rest, "--model")?.unwrap_or("nb");
    let kind = ModelKind::from_name(model).ok_or_else(|| {
        CliError(format!(
            "--model must be 'nb', 'logreg', 'tan', 'tree', or 'gbt', got '{model}'"
        ))
    })?;
    hamlet_obs::set_model_family(kind.family().name());
    let out_path =
        parse_flag(rest, "--out")?.ok_or_else(|| CliError("missing --out <file>".into()))?;
    let config = advisor_config(rest.iter().any(|a| a == "--relaxed"), kind.family());
    if let Some(dir) = parse_flag(rest, "--discover")? {
        if parse_flag(rest, "--manifest")?.is_some() || parse_flag(rest, "--dataset")?.is_some() {
            return Err(CliError(
                "--discover is mutually exclusive with --manifest and --dataset".into(),
            ));
        }
        let (d, star) = discover_star(std::path::Path::new(dir), rest)?;
        let built = build_artifact(&star, kind, &config, &d.report.entity)
            .map_err(|e| CliError(e.to_string()))?;
        artifact::save(&built.artifact, std::path::Path::new(out_path))
            .map_err(|e| CliError(e.to_string()))?;
        let avoided = built.artifact.decisions.iter().filter(|d| d.avoid).count();
        return Ok(format!(
            "{} (discovered from {dir}), model {model}\n\
             trained on {} rows, holdout error {:.4}\n\
             {} of {} joins avoided; {} input features\n\
             wrote {out_path}\n",
            d.report.entity,
            built.n_train,
            built.holdout_error,
            avoided,
            built.artifact.decisions.len(),
            built.artifact.features.len(),
        ));
    }
    let (built, headline) = match parse_flag(rest, "--manifest")? {
        Some(file) => {
            if parse_flag(rest, "--dataset")?.is_some() {
                return Err(CliError(
                    "--manifest and --dataset are mutually exclusive".into(),
                ));
            }
            let policy = load_policy_args(rest)?;
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError(format!("cannot read {file}: {e}")))?;
            let manifest = Manifest::parse(&text).map_err(|e| CliError(e.to_string()))?;
            let base = std::path::Path::new(file)
                .parent()
                .unwrap_or_else(|| std::path::Path::new("."));
            let load = manifest
                .load_policy(base, &policy)
                .map_err(|e| CliError(e.to_string()))?;
            let name = std::path::Path::new(file)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("manifest")
                .to_string();
            let built = build_artifact_with_availability(
                &load.star,
                kind,
                &config,
                &name,
                &load.substitutions,
            )
            .map_err(|e| CliError(e.to_string()))?;
            let mut headline = format!("{name} (from {file}), model {model}");
            if !load.substitutions.is_empty() {
                let _ = write!(
                    headline,
                    "\n{} table(s) replaced by FK-only surrogates (degraded build)",
                    load.substitutions.len()
                );
            }
            (built, headline)
        }
        None => {
            let (spec, scale) = dataset_arg(rest)?;
            let g = spec.generate(scale, 20_160_626);
            let built = build_artifact(&g.star, kind, &config, spec.name)
                .map_err(|e| CliError(e.to_string()))?;
            (
                built,
                format!("{} (scale {scale}), model {model}", spec.name),
            )
        }
    };
    artifact::save(&built.artifact, std::path::Path::new(out_path))
        .map_err(|e| CliError(e.to_string()))?;
    let avoided = built.artifact.decisions.iter().filter(|d| d.avoid).count();
    Ok(format!(
        "{headline}\n\
         trained on {} rows, holdout error {:.4}\n\
         {} of {} joins avoided; {} input features\n\
         wrote {out_path}\n",
        built.n_train,
        built.holdout_error,
        avoided,
        built.artifact.decisions.len(),
        built.artifact.features.len(),
    ))
}

/// The `predict` pipeline: offline file-to-file scoring.
fn predict_cmd(rest: &[String]) -> Result<String, CliError> {
    let model_path =
        parse_flag(rest, "--model")?.ok_or_else(|| CliError("missing --model <file>".into()))?;
    let in_path =
        parse_flag(rest, "--in")?.ok_or_else(|| CliError("missing --in <file>".into()))?;
    let a =
        artifact::load(std::path::Path::new(model_path)).map_err(|e| CliError(e.to_string()))?;
    hamlet_obs::set_model_family(a.model.family());
    let scorer = Scorer::new(a);
    let text = std::fs::read_to_string(in_path)
        .map_err(|e| CliError(format!("cannot read {in_path}: {e}")))?;
    let (batch, _) = scorer.decode_body(&text, false).map_err(|e| match e {
        ScoreError::Syntax(e) => CliError(format!("{in_path}: not valid JSON: {e}")),
        e => CliError(e.to_string()),
    })?;
    let rendered = scorer.render(&scorer.score(&batch), false);
    match parse_flag(rest, "--out")? {
        Some(out_path) => {
            hamlet_obs::atomic_write(std::path::Path::new(out_path), rendered.as_bytes())
                .map_err(|e| CliError(format!("cannot write {out_path}: {e}")))?;
            Ok(format!(
                "wrote {} prediction(s) to {out_path}\n",
                batch.n_rows()
            ))
        }
        None => Ok(format!("{rendered}\n")),
    }
}

/// Parses the repeatable `--model` flag into `(id, path)` registry
/// sources. One entry may be a bare `PATH` (it becomes the default
/// model, id `default`); every other entry must be `ID=PATH` so routing
/// ids are explicit.
fn parse_model_sources(rest: &[String]) -> Result<Vec<(String, std::path::PathBuf)>, CliError> {
    let entries = parse_multi(rest, "--model");
    if entries.is_empty() {
        return Err(CliError(
            "missing --model <file> (or --model ID=FILE)".into(),
        ));
    }
    let mut sources: Vec<(String, std::path::PathBuf)> = Vec::with_capacity(entries.len());
    let mut bare_seen = false;
    for entry in entries {
        match entry.split_once('=') {
            Some((id, path)) if !id.is_empty() && !path.is_empty() => {
                sources.push((id.to_string(), std::path::PathBuf::from(path)));
            }
            Some(_) => {
                return Err(CliError(format!(
                    "bad --model '{entry}': expected ID=PATH (or a bare PATH for the default model)"
                )))
            }
            None => {
                if bare_seen {
                    return Err(CliError(format!(
                        "--model '{entry}': only one bare PATH is allowed (it becomes the \
                         default model); give additional models explicit ids with ID=PATH"
                    )));
                }
                bare_seen = true;
                // The default model routes first; keep it at the front.
                sources.insert(0, ("default".to_string(), std::path::PathBuf::from(entry)));
            }
        }
    }
    Ok(sources)
}

/// The `serve` pipeline: load the model registry, listen until
/// SIGTERM/ctrl-c (SIGHUP hot-swaps the registry from disk), drain, and
/// report final stats.
fn serve_cmd(rest: &[String]) -> Result<String, CliError> {
    let sources = parse_model_sources(rest)?;
    let port: u16 = num_flag(rest, "--port", 7878)?;
    let threads_flag: Option<usize> = parse_flag(rest, "--threads")?
        .map(|v| {
            v.parse()
                .map_err(|_| CliError(format!("bad --threads '{v}'")))
        })
        .transpose()?;
    let queue: usize = num_flag(rest, "--queue", 64)?;
    let max_requests_per_conn: usize = num_flag(rest, "--max-requests-per-conn", 0)?;
    let idle_ms: u64 = num_flag(rest, "--idle-ms", 5_000)?;
    if queue == 0 || threads_flag == Some(0) || idle_ms == 0 {
        return Err(CliError(
            "--threads, --queue, and --idle-ms must be positive".into(),
        ));
    }
    let window_flag: Option<u64> = parse_flag(rest, "--batch-window-us")?
        .map(|v| {
            v.parse()
                .map_err(|_| CliError(format!("bad --batch-window-us '{v}'")))
        })
        .transpose()?;
    let batch_window = hamlet_serve::resolve_batch_window(window_flag);
    let fallback = rest.iter().any(|a| a == "--fallback");

    let registry = std::sync::Arc::new(
        hamlet_serve::Registry::from_sources(&sources, batch_window)
            .map_err(|e| CliError(e.to_string()))?,
    );
    let (dataset, family) = match registry.default_entry() {
        Some(entry) => {
            let a = entry.scorer.artifact();
            (a.dataset.clone(), a.model.family().to_string())
        }
        None => ("?".to_string(), "?".to_string()),
    };
    hamlet_obs::set_model_family(family.clone());
    let threads = hamlet_serve::resolve_threads(threads_flag);
    let n_models = sources.len();

    signals::install();
    let handle = hamlet_serve::start_with_registry(
        registry,
        ServerConfig {
            addr: format!("127.0.0.1:{port}"),
            threads,
            queue_capacity: queue,
            stop_signal: Some(&signals::STOP),
            reload_signal: Some(&signals::RELOAD),
            max_requests_per_conn,
            idle_timeout: std::time::Duration::from_millis(idle_ms),
            batch_window,
            fallback,
        },
    )
    .map_err(|e| CliError(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
    // Stderr so scripted callers can watch readiness without touching
    // the stdout report.
    eprintln!(
        "serving {n_models} model(s), default {dataset} ({family}) on 127.0.0.1:{} — \
         {threads} worker(s), queue {queue}, batch window {}µs; \
         SIGTERM or ctrl-c to drain, SIGHUP or POST /reload to hot-swap",
        handle.port(),
        batch_window.as_micros(),
    );
    let port = handle.port();
    // An accept-thread panic surfaces here as a nonzero exit with the
    // panic text, not a silent zero-stats success.
    let stats = handle.run_until_stopped().map_err(CliError)?;
    Ok(format!(
        "drained 127.0.0.1:{port}: served {} request(s), {} error(s), {} shed with 503, \
         {} reload(s)\n",
        stats.requests, stats.errors, stats.rejected, stats.reloads
    ))
}

/// The `reload` subcommand: asks a running server to hot-swap its
/// registry by POSTing `/reload` (the scripted alternative to SIGHUP).
fn reload_cmd(rest: &[String]) -> Result<String, CliError> {
    use std::io::{Read, Write};
    let port: u16 = num_flag(rest, "--port", 7878)?;
    let addr = format!("127.0.0.1:{port}");
    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| CliError(format!("cannot reach {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(30)));
    stream
        .write_all(
            b"POST /reload HTTP/1.1\r\nHost: hamlet\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        )
        .map_err(|e| CliError(format!("{addr}: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| CliError(format!("{addr}: {e}")))?;
    let resp = String::from_utf8_lossy(&raw);
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    if resp.starts_with("HTTP/1.1 200") {
        Ok(format!("{addr} reloaded: {body}\n"))
    } else {
        Err(CliError(format!(
            "{addr} refused the reload: {}",
            if body.is_empty() { &resp } else { body }
        )))
    }
}

/// The `train` pipeline: fits the requested classifier over `star`
/// under the 50/25/25 holdout protocol.
///
/// With `factorize`, training reads every joined column through FK
/// indirection (no `kfk_join` runs) and the output includes a parity
/// check against the materialized reference — the models must be
/// *identical*, not merely close, because both paths execute the same
/// float operations on the same codes.
pub fn train_star(star: &StarSchema, model: &str, factorize: bool) -> Result<String, CliError> {
    match model {
        "nb" => train_arm(star, &NaiveBayes::default(), factorize),
        "tree" => train_arm(star, &CartTree::default(), factorize),
        "gbt" => train_arm(star, &Gbt::from_env(), factorize),
        _ => train_arm(star, &LogisticRegression::default(), factorize),
    }
}

/// One `train` run of `learner`: the materialized fit (the subject
/// under `--strategy materialize`, the parity reference under
/// `--strategy factorize`), then, with `factorize`, the same fit on a
/// [`FactorizedView`], compared with the fitted model's own
/// `PartialEq`.
fn train_arm<C: Classifier>(
    star: &StarSchema,
    learner: &C,
    factorize: bool,
) -> Result<String, CliError>
where
    C::Fitted: PartialEq,
{
    let err = |e: hamlet_relational::RelationalError| CliError(e.to_string());
    let perm: Vec<usize> = (0..star.n_s()).collect();
    let split = star.split_rows(&perm, 0.5, 0.25);

    let t0 = Instant::now();
    let wide = star.materialize_all().map_err(err)?;
    let data = Dataset::from_table(&wide);
    let feats: Vec<usize> = (0..data.n_features()).collect();
    let mat = learner.fit(&data, &split.train, &feats);
    let mat_elapsed = t0.elapsed();
    let mat_err = zero_one_error(&mat, &data, &split.test);
    if !factorize {
        return Ok(format!(
            "materialize: trained in {:.1} ms, holdout error {mat_err:.4}\n",
            mat_elapsed.as_secs_f64() * 1e3
        ));
    }

    let t1 = Instant::now();
    let view = FactorizedView::new(star).map_err(err)?;
    let fac = learner.fit(&view, &split.train, &feats);
    let fac_elapsed = t1.elapsed();
    let fac_err = zero_one_error(&fac, &view, &split.test);
    Ok(format!(
        "factorize: trained in {:.1} ms, holdout error {fac_err:.4}\n\
         materialized reference: trained in {:.1} ms, holdout error {mat_err:.4}\n\
         parity: {}\n\
         wide-table cells never allocated: {}\n",
        fac_elapsed.as_secs_f64() * 1e3,
        mat_elapsed.as_secs_f64() * 1e3,
        if fac == mat {
            "exact (identical model)"
        } else {
            "MISMATCH"
        },
        view.cells_avoided()
    ))
}

/// The `csv-advise` pipeline on in-memory CSV text.
pub fn csv_advise(
    text: &str,
    target: &str,
    numerics: &[(String, usize)],
    skips: &[&str],
    min_distinct: usize,
) -> Result<String, CliError> {
    // Column specs: header-driven.
    let header = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| CliError("empty CSV".into()))?;
    let names: Vec<&str> = header.split(',').map(|h| h.trim_matches('"')).collect();
    if !names.contains(&target) {
        return Err(CliError(format!("target column '{target}' not in header")));
    }
    let specs: Vec<(&str, ColumnSpec)> = names
        .iter()
        .map(|&n| {
            let spec = if skips.contains(&n) {
                ColumnSpec::Skip
            } else if n == target {
                ColumnSpec::target(n)
            } else if let Some((_, bins)) = numerics.iter().find(|(c, _)| c == n) {
                ColumnSpec::numeric_feature(n, *bins)
            } else {
                ColumnSpec::feature(n)
            };
            (n, spec)
        })
        .collect();
    let wide = read_csv("wide", text, &specs, ',')
        .map_err(|e| CliError(format!("CSV parse error: {e}")))?;

    let mut out = format!(
        "Loaded {} rows x {} columns.\n",
        wide.n_rows(),
        wide.schema().len()
    );

    let inferred = infer_single_fds(&wide, min_distinct);
    let compatible = select_compatible_fds(&inferred);
    if compatible.is_empty() {
        out.push_str(
            "No functional dependencies found: the table appears to be fully normalized already.\n",
        );
        return Ok(out);
    }
    for fd in &compatible {
        let _ = writeln!(
            out,
            "Inferred FD: {} -> {}",
            fd.determinant[0],
            fd.dependents.join(", ")
        );
    }
    let star = decompose_star(&wide, &compatible)
        .map_err(|e| CliError(format!("decomposition failed: {e}")))?;
    let report = advise(&star, star.n_s() / 2, &AdvisorConfig::default())
        .map_err(|e| CliError(e.to_string()))?;
    out.push('\n');
    out.push_str(&report.render());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(err.0.contains("unknown subcommand"));
    }

    #[test]
    fn datasets_lists_seven() {
        let out = run(&argv("datasets")).unwrap();
        assert_eq!(out.lines().count(), 7);
        assert!(out.contains("MovieLens1M"));
    }

    #[test]
    fn advise_on_builtin() {
        let out = run(&argv("advise --dataset walmart --scale 0.01")).unwrap();
        assert!(out.contains("AVOID the join"), "{out}");
        assert!(out.contains("Indicators"));
    }

    #[test]
    fn advise_relaxed_flips_flights_airports() {
        let strict = run(&argv("advise --dataset flights --scale 0.05")).unwrap();
        let relaxed = run(&argv("advise --dataset flights --scale 0.05 --relaxed")).unwrap();
        assert!(strict.contains("SrcAirports (via SrcAirportID): PERFORM"));
        assert!(relaxed.contains("SrcAirports (via SrcAirportID): AVOID"));
    }

    #[test]
    fn profile_prints_tr() {
        let out = run(&argv("profile --dataset yelp --scale 0.01")).unwrap();
        assert!(out.contains("TR ="), "{out}");
    }

    #[test]
    fn bad_args_are_reported() {
        assert!(run(&argv("advise")).unwrap_err().0.contains("--dataset"));
        assert!(run(&argv("advise --dataset nope"))
            .unwrap_err()
            .0
            .contains("unknown dataset"));
        assert!(run(&argv("advise --dataset yelp --scale 7"))
            .unwrap_err()
            .0
            .contains("--scale"));
        assert!(run(&argv("csv-advise")).unwrap_err().0.contains("file.csv"));
        assert!(run(&argv("train")).unwrap_err().0.contains("--dataset"));
        assert!(run(&argv("train --dataset yelp --model svm"))
            .unwrap_err()
            .0
            .contains("--model"));
        assert!(run(&argv("train --dataset yelp --strategy teleport"))
            .unwrap_err()
            .0
            .contains("--strategy"));
    }

    #[test]
    fn flag_without_value_is_an_error() {
        // Regression: `--scale` as the last token used to parse as
        // "flag absent" and silently run at the default scale.
        assert!(run(&argv("advise --dataset walmart --scale"))
            .unwrap_err()
            .0
            .contains("--scale requires a value"));
        assert!(run(&argv("advise --scale --relaxed --dataset walmart"))
            .unwrap_err()
            .0
            .contains("--scale requires a value"));
        assert!(run(&argv("advise --dataset walmart --dataset yelp"))
            .unwrap_err()
            .0
            .contains("more than once"));
    }

    /// Serializes the tests that point the process-global
    /// `HAMLET_JOURNAL_DIR` at their own directory: a `--trace` or
    /// `--metrics` run made while another test holds the variable would
    /// journal into that test's directory. The lock guards no data, so a
    /// poisoned one (a failed test) is taken over rather than failing
    /// the next test too.
    fn journal_dir_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn trace_and_metrics_produce_observability_output_and_a_journal() {
        use hamlet_obs::json::Json;
        let _journal = journal_dir_lock();
        let dir = std::env::temp_dir().join("hamlet_cli_journal_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("HAMLET_JOURNAL_DIR", &dir);
        let out = run(&argv(
            "train --dataset walmart --scale 0.01 --trace --metrics",
        ))
        .unwrap();
        // TAN and CART fits and dataset generation open spans too; the
        // tree run is the journal's last line, checked below.
        let tan = dir.join("tan.model");
        let fits = run(&argv(&format!(
            "save-model --dataset walmart --scale 0.01 --model tan --out {} --trace",
            tan.display()
        )))
        .unwrap()
            + &run(&argv(
                "train --dataset walmart --scale 0.01 --model tree --trace",
            ))
            .unwrap();
        std::env::remove_var("HAMLET_JOURNAL_DIR");
        for span in [
            "ml.tan_fit",
            "ml.tan_cmi",
            "trees.cart_fit",
            "datagen.generate",
        ] {
            assert!(fits.contains(span), "no {span} in {fits}");
        }
        assert!(
            fits.lines()
                .any(|l| l.contains("ml.tan_cmi pairs=") && l.contains(" rows=")),
            "{fits}"
        );

        // Span tree with the instrumented hot paths.
        assert!(out.contains("span tree"), "{out}");
        assert!(out.contains("relational.materialize"), "{out}");
        assert!(out.contains("factorized.build_view"), "{out}");
        assert!(out.contains("ml.nb_fit"), "{out}");
        // Prometheus metrics, including the paper-facing ones.
        assert!(
            out.contains("# TYPE hamlet_rows_joined_total counter"),
            "{out}"
        );
        assert!(out.contains("hamlet_wide_cells_avoided_total"), "{out}");
        assert!(out.contains("hamlet_nb_fits_total"), "{out}");
        // Journal written and parseable.
        assert!(out.contains("journal: "), "{out}");
        let text = std::fs::read_to_string(dir.join("runs.jsonl")).unwrap();
        let line = text.lines().last().unwrap();
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("ok"));
        assert!(v
            .get("command")
            .and_then(Json::as_str)
            .unwrap()
            .contains("train --dataset walmart"));
        assert!(v
            .get("spans")
            .and_then(Json::as_arr)
            .is_some_and(|s| !s.is_empty()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_without_trace_records_no_spans() {
        let _journal = journal_dir_lock();
        let dir = std::env::temp_dir().join("hamlet_cli_metrics_only_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("HAMLET_JOURNAL_DIR", &dir);
        let out = run(&argv("profile --dataset walmart --scale 0.01 --metrics")).unwrap();
        std::env::remove_var("HAMLET_JOURNAL_DIR");
        assert!(!out.contains("span tree"), "{out}");
        assert!(out.contains("# TYPE"), "{out}");
        assert!(dir.join("runs.jsonl").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn advise_strategy_factorize() {
        let out = run(&argv(
            "advise --dataset flights --scale 0.05 --strategy factorize",
        ))
        .unwrap();
        assert!(out.contains("FACTORIZE the join"), "{out}");
        assert!(out.contains("cells"), "{out}");
    }

    #[test]
    fn train_nb_factorized_parity() {
        let out = run(&argv("train --dataset walmart --scale 0.01 --model nb")).unwrap();
        assert!(out.contains("parity: exact (identical model)"), "{out}");
        assert!(out.contains("wide-table cells never allocated"), "{out}");
    }

    #[test]
    fn train_logreg_factorized_parity() {
        let out = run(&argv(
            "train --dataset walmart --scale 0.01 --model logreg --strategy factorize",
        ))
        .unwrap();
        assert!(out.contains("model logreg"), "{out}");
        assert!(out.contains("parity: exact (identical model)"), "{out}");
    }

    #[test]
    fn train_tree_factorized_parity() {
        let out = run(&argv("train --dataset walmart --scale 0.01 --model tree")).unwrap();
        assert!(out.contains("model tree"), "{out}");
        assert!(out.contains("parity: exact (identical model)"), "{out}");
        assert!(out.contains("wide-table cells never allocated"), "{out}");
    }

    #[test]
    fn train_gbt_factorized_parity() {
        let out = run(&argv("train --dataset walmart --scale 0.01 --model gbt")).unwrap();
        assert!(out.contains("model gbt"), "{out}");
        assert!(out.contains("parity: exact (identical model)"), "{out}");
    }

    #[test]
    fn train_factorize_parity_holds_for_every_model() {
        for model in ["nb", "logreg", "tree", "gbt"] {
            let out = run(&argv(&format!(
                "train --dataset yelp --scale 0.01 --strategy factorize --model {model}"
            )))
            .unwrap();
            assert!(out.contains(&format!("model {model}")), "{out}");
            assert!(out.contains("parity: exact (identical model)"), "{out}");
        }
    }

    #[test]
    fn advise_family_tree_prints_retuned_thresholds() {
        let out = run(&argv("advise --dataset walmart --scale 0.01 --family tree")).unwrap();
        assert!(out.contains("Model family tree"), "{out}");
        assert!(out.contains("Monte-Carlo re-tuned"), "{out}");
        let nb = run(&argv("advise --dataset walmart --scale 0.01")).unwrap();
        assert!(nb.contains("Model family naive_bayes"), "{nb}");
        assert!(nb.contains("paper defaults"), "{nb}");
        assert_ne!(out, nb, "family must change the advisor output");
    }

    #[test]
    fn bad_family_is_reported() {
        assert!(run(&argv("advise --dataset walmart --family svm"))
            .unwrap_err()
            .0
            .contains("--family"));
    }

    #[test]
    fn retune_smoke_prints_family_grid() {
        let out = run(&argv(
            "retune --family tree --n-s 200 --train-sets 2 --repeats 1 --seed 5",
        ))
        .unwrap();
        assert!(out.contains("tree"), "{out}");
        assert!(out.contains("n_R"), "{out}");
    }

    #[test]
    fn train_materialize_only() {
        let out = run(&argv(
            "train --dataset walmart --scale 0.01 --strategy materialize",
        ))
        .unwrap();
        assert!(out.contains("materialize: trained in"), "{out}");
        assert!(!out.contains("parity"), "{out}");
    }

    #[test]
    fn csv_advise_pipeline() {
        // userid determines age; 40 users x 100 rows each.
        let mut csv = String::from("stars,userid,age\n");
        for i in 0..4000 {
            let u = i % 40;
            let _ = writeln!(csv, "{},u{},a{}", (u + i / 40) % 5, u, u % 7);
        }
        let out = csv_advise(&csv, "stars", &[], &[], 20).unwrap();
        assert!(out.contains("Inferred FD: userid -> age"), "{out}");
        assert!(out.contains("AVOID the join"), "{out}");
    }

    #[test]
    fn csv_advise_normalized_input() {
        let mut csv = String::from("y,a,b\n");
        for i in 0..100 {
            let _ = writeln!(csv, "{},{},{}", i % 2, i % 7, (i / 3) % 5);
        }
        let out = csv_advise(&csv, "y", &[], &[], 5).unwrap();
        assert!(out.contains("fully normalized"), "{out}");
    }

    #[test]
    fn csv_advise_numeric_and_skip() {
        let mut csv = String::from("y,u,age,junk\n");
        for i in 0..2000 {
            let u = i % 40;
            let _ = writeln!(csv, "{},u{},{}.5,x{}", i % 2, u, 20 + u % 9, i);
        }
        let numerics = vec![("age".to_string(), 8usize)];
        let out = csv_advise(&csv, "y", &numerics, &["junk"], 20).unwrap();
        assert!(out.contains("x 3 columns"), "{out}");
        assert!(out.contains("Inferred FD: u -> age"), "{out}");
    }

    #[test]
    fn csv_advise_missing_target() {
        let csv = "a,b\n1,2\n";
        assert!(csv_advise(csv, "zzz", &[], &[], 2)
            .unwrap_err()
            .0
            .contains("target"));
    }
}

#[cfg(test)]
mod manifest_cli_tests {
    use super::*;
    use std::fmt::Write;

    #[test]
    fn advise_files_end_to_end() {
        let dir = std::env::temp_dir().join("hamlet_cli_manifest");
        std::fs::create_dir_all(&dir).unwrap();
        // 50 employers x 100 customers each: TR = 50 -> safe to avoid.
        let mut customers = String::from("Churn,Age,EmployerID\n");
        for i in 0..5000 {
            let e = i % 50;
            let _ = writeln!(customers, "{},{},e{}", (e + i / 50) % 2, 20 + i % 40, e);
        }
        let mut employers = String::from("EmployerID,Country\n");
        for e in 0..50 {
            let _ = writeln!(employers, "e{},c{}", e, e % 8);
        }
        std::fs::write(dir.join("customers.csv"), customers).unwrap();
        std::fs::write(dir.join("employers.csv"), employers).unwrap();
        let manifest = "\
entity customers.csv
target Churn
numeric Age 8
fk EmployerID employers.csv closed

table employers.csv
key EmployerID
feature Country
";
        let mpath = dir.join("schema.manifest");
        std::fs::write(&mpath, manifest).unwrap();

        let out = run(&["advise-files".to_string(), mpath.display().to_string()]).unwrap();
        assert!(out.contains("TR = 50.0"), "{out}");
        assert!(out.contains("AVOID the join"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn advise_files_missing_manifest() {
        let err = run(&["advise-files".to_string(), "/no/such/file".to_string()]).unwrap_err();
        assert!(err.0.contains("cannot read"));
    }

    /// Writes a small dirty corpus (one ragged customer row, one
    /// dangling FK) and returns the manifest path.
    fn write_dirty_corpus(dir: &std::path::Path) -> std::path::PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let mut customers = String::from("Churn,Age,EmployerID\n");
        for i in 0..3000 {
            let e = i % 30;
            let _ = writeln!(customers, "{},{},e{}", (e + i / 30) % 2, 20 + i % 40, e);
        }
        customers.push_str("1,33\n"); // ragged
        customers.push_str("0,44,e999\n"); // dangling FK
        let mut employers = String::from("EmployerID,Country\n");
        for e in 0..30 {
            let _ = writeln!(employers, "e{},c{}", e, e % 8);
        }
        std::fs::write(dir.join("customers.csv"), customers).unwrap();
        std::fs::write(dir.join("employers.csv"), employers).unwrap();
        let manifest = "\
entity customers.csv
target Churn
numeric Age 8
fk EmployerID employers.csv closed

table employers.csv
key EmployerID
feature Country
";
        let mpath = dir.join("schema.manifest");
        std::fs::write(&mpath, manifest).unwrap();
        mpath
    }

    #[test]
    fn advise_files_dirty_data_aborts_by_default() {
        let dir = std::env::temp_dir().join("hamlet_cli_dirty_abort");
        let mpath = write_dirty_corpus(&dir);
        let err = run(&["advise-files".to_string(), mpath.display().to_string()]).unwrap_err();
        assert!(err.0.contains("expected 3"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn advise_files_degradation_policies() {
        let dir = std::env::temp_dir().join("hamlet_cli_dirty_degrade");
        let mpath = write_dirty_corpus(&dir);
        let out = run(&[
            "advise-files".to_string(),
            mpath.display().to_string(),
            "--on-dirty".to_string(),
            "quarantine".to_string(),
            "--on-dangling-fk".to_string(),
            "drop".to_string(),
        ])
        .unwrap();
        assert!(out.contains("Degradations applied during load:"), "{out}");
        assert!(out.contains("quarantined 1 of 3002 rows"), "{out}");
        assert!(out.contains("dropped 1 row(s)"), "{out}");

        // `others` keeps the row by widening the attribute table.
        let out = run(&[
            "advise-files".to_string(),
            mpath.display().to_string(),
            "--on-dirty".to_string(),
            "quarantine:5".to_string(),
            "--on-dangling-fk".to_string(),
            "others".to_string(),
        ])
        .unwrap();
        assert!(
            out.contains("remapped 1 row(s) to the Others record"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_policy_values_are_reported() {
        let dir = std::env::temp_dir().join("hamlet_cli_dirty_badflag");
        let mpath = write_dirty_corpus(&dir);
        let err = run(&[
            "advise-files".to_string(),
            mpath.display().to_string(),
            "--on-dirty".to_string(),
            "maybe".to_string(),
        ])
        .unwrap_err();
        assert!(err.0.contains("--on-dirty"), "{}", err.0);
        let err = run(&[
            "advise-files".to_string(),
            mpath.display().to_string(),
            "--on-dangling-fk".to_string(),
            "ignore".to_string(),
        ])
        .unwrap_err();
        assert!(err.0.contains("--on-dangling-fk"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod simulate_cli_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    const TINY: &str = "--n-s 120 --n-r 10 --train-sets 4 --repeats 2 --seed 11";

    #[test]
    fn simulate_prints_three_choices() {
        let out = run(&argv(&format!("simulate {TINY}"))).unwrap();
        assert!(out.contains("UseAll"), "{out}");
        assert!(out.contains("NoJoin"), "{out}");
        assert!(out.contains("NoFK"), "{out}");
        assert!(out.contains("4 train sets x 2 worlds"), "{out}");
    }

    #[test]
    fn simulate_resume_reproduces_the_uncheckpointed_run() {
        // Serialized with other checkpoint/failpoint users: both the
        // checkpoint env var and failpoint registry are process-global.
        let _g = hamlet_chaos::failpoint::serial();
        let baseline = run(&argv(&format!("simulate {TINY}"))).unwrap();

        let dir = std::env::temp_dir().join("hamlet_cli_simulate_resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("HAMLET_CHECKPOINT_DIR", &dir);
        let first = run(&argv(&format!("simulate {TINY} --resume"))).unwrap();
        let second = run(&argv(&format!("simulate {TINY} --resume"))).unwrap();
        std::env::remove_var("HAMLET_CHECKPOINT_DIR");

        // Identical modulo the checkpoint banner; cells were written.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("checkpoints:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&first), strip(&baseline));
        assert_eq!(first, second);
        assert!(dir.exists(), "checkpoint cells were persisted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_out_writes_report_atomically() {
        let dir = std::env::temp_dir().join("hamlet_cli_simulate_out");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("sim.txt");
        let out = run(&[
            argv(&format!("simulate {TINY} --out")),
            vec![path.display().to_string()],
        ]
        .concat())
        .unwrap();
        assert!(out.contains("wrote "), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.contains("UseAll"), "{written}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_bad_args_are_reported() {
        assert!(run(&argv("simulate --scenario warp"))
            .unwrap_err()
            .0
            .contains("--scenario"));
        assert!(run(&argv("simulate --n-s zero"))
            .unwrap_err()
            .0
            .contains("--n-s"));
        assert!(run(&argv("simulate --n-s 0"))
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(run(&argv("simulate --train-sets 0 --n-s 100"))
            .unwrap_err()
            .0
            .contains("positive"));
    }
}

#[cfg(test)]
mod serving_cli_tests {
    use super::*;
    use hamlet_obs::json::Json;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn save_model_then_predict_offline() {
        let dir = std::env::temp_dir().join("hamlet_cli_save_predict");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.json");

        let out = run(&argv(&format!(
            "save-model --dataset walmart --scale 0.01 --model nb --out {}",
            model.display()
        )))
        .unwrap();
        assert!(out.contains("holdout error"), "{out}");
        assert!(out.contains("wrote "), "{out}");

        // The artifact round-trips through the public loader.
        let a = hamlet_serve::artifact::load(&model).unwrap();
        assert_eq!(a.model.family(), "naive_bayes");
        assert_eq!(a.dataset, "Walmart");

        // Offline scoring: one all-zero positional row (code 0 is valid
        // in every domain) plus one cold-start row with a huge FK code.
        let zeros: Vec<String> = a.features.iter().map(|_| "0".to_string()).collect();
        let cold: Vec<String> = a
            .features
            .iter()
            .map(|f| {
                if f.fk.is_some() {
                    "999999".into()
                } else {
                    "0".into()
                }
            })
            .collect();
        let rows = dir.join("rows.json");
        std::fs::write(
            &rows,
            format!("[[{}],[{}]]", zeros.join(","), cold.join(",")),
        )
        .unwrap();
        let preds_path = dir.join("preds.json");
        let out = run(&argv(&format!(
            "predict --model {} --in {} --out {}",
            model.display(),
            rows.display(),
            preds_path.display()
        )))
        .unwrap();
        assert!(out.contains("wrote 2 prediction(s)"), "{out}");
        let preds = Json::parse(&std::fs::read_to_string(&preds_path).unwrap()).unwrap();
        let arr = preds.get("predictions").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert!(arr[0].get("class").and_then(Json::as_f64).is_some());

        // Without --out the predictions go to stdout.
        let out = run(&argv(&format!(
            "predict --model {} --in {}",
            model.display(),
            rows.display()
        )))
        .unwrap();
        assert!(out.contains("\"predictions\":["), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_model_supports_all_three_families() {
        let dir = std::env::temp_dir().join("hamlet_cli_save_families");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (kind, family) in [("logreg", "logistic_regression"), ("tan", "tan")] {
            let model = dir.join(format!("{kind}.json"));
            run(&argv(&format!(
                "save-model --dataset walmart --scale 0.01 --model {kind} --out {}",
                model.display()
            )))
            .unwrap();
            let a = hamlet_serve::artifact::load(&model).unwrap();
            assert_eq!(a.model.family(), family);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_artifact_is_a_typed_cli_error() {
        let dir = std::env::temp_dir().join("hamlet_cli_corrupt_artifact");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.json");
        run(&argv(&format!(
            "save-model --dataset walmart --scale 0.01 --out {}",
            model.display()
        )))
        .unwrap();

        // Truncate the artifact; predict and serve must degrade with a
        // typed error, not a panic.
        let text = std::fs::read_to_string(&model).unwrap();
        std::fs::write(&model, &text[..text.len() / 2]).unwrap();
        let rows = dir.join("rows.json");
        std::fs::write(&rows, "[[0,0]]").unwrap();
        let err = run(&argv(&format!(
            "predict --model {} --in {}",
            model.display(),
            rows.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("not valid JSON"), "{}", err.0);
        let err = run(&argv(&format!("serve --model {}", model.display()))).unwrap_err();
        assert!(err.0.contains("not valid JSON"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_load_failpoint_degrades_with_a_typed_error() {
        let _g = hamlet_chaos::failpoint::serial();
        let dir = std::env::temp_dir().join("hamlet_cli_serve_failpoint");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model = dir.join("model.json");
        run(&argv(&format!(
            "save-model --dataset walmart --scale 0.01 --out {}",
            model.display()
        )))
        .unwrap();
        let rows = dir.join("rows.json");
        std::fs::write(&rows, "[[0,0]]").unwrap();

        hamlet_chaos::failpoint::set_failpoints("serve.artifact_load=io").unwrap();
        let err = run(&argv(&format!(
            "predict --model {} --in {}",
            model.display(),
            rows.display()
        )))
        .unwrap_err();
        hamlet_chaos::failpoint::clear_failpoints();
        assert!(err.0.contains("injected IO failure"), "{}", err.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serving_bad_args_are_reported() {
        assert!(run(&argv("save-model --dataset walmart"))
            .unwrap_err()
            .0
            .contains("--out"));
        assert!(run(&argv(
            "save-model --dataset walmart --model svm --out /tmp/x"
        ))
        .unwrap_err()
        .0
        .contains("--model"));
        assert!(run(&argv("predict --in /tmp/x"))
            .unwrap_err()
            .0
            .contains("--model"));
        assert!(run(&argv("predict --model /tmp/x"))
            .unwrap_err()
            .0
            .contains("--in"));
        assert!(run(&argv("serve")).unwrap_err().0.contains("--model"));
        assert!(run(&argv("serve --model /tmp/x --queue 0"))
            .unwrap_err()
            .0
            .contains("positive"));
        assert!(run(&argv("serve --model /no/such/artifact.json"))
            .unwrap_err()
            .0
            .contains("model artifact"));
        assert!(
            run(&argv("predict --model /no/such/artifact.json --in /tmp/x"))
                .unwrap_err()
                .0
                .contains("model artifact")
        );
    }

    #[test]
    fn usage_mentions_the_serving_commands() {
        let usage = run(&argv("help")).unwrap();
        for cmd in ["save-model", "predict", "serve", "reload"] {
            assert!(usage.contains(cmd), "usage is missing {cmd}");
        }
        for flag in [
            "--max-requests-per-conn",
            "--batch-window-us",
            "--idle-ms",
            "--fallback",
            "--allow-degraded",
            "--manifest",
        ] {
            assert!(usage.contains(flag), "usage is missing {flag}");
        }
    }

    #[test]
    fn save_model_from_a_manifest_tolerates_a_missing_table_when_allowed() {
        use std::fmt::Write;
        let dir = std::env::temp_dir().join("hamlet_cli_save_manifest");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut customers = String::from("Churn,Age,EmployerID\n");
        for i in 0..3000 {
            let e = i % 30;
            let _ = writeln!(customers, "{},{},e{}", (e + i / 30) % 2, 20 + i % 40, e);
        }
        let mut employers = String::from("EmployerID,Country\n");
        for e in 0..30 {
            let _ = writeln!(employers, "e{},c{}", e, e % 8);
        }
        std::fs::write(dir.join("customers.csv"), customers).unwrap();
        std::fs::write(dir.join("employers.csv"), employers).unwrap();
        let manifest = "\
entity customers.csv
target Churn
numeric Age 8
fk EmployerID employers.csv closed

table employers.csv
key EmployerID
feature Country
";
        let mpath = dir.join("churn.manifest");
        std::fs::write(&mpath, manifest).unwrap();
        let model = dir.join("model.json");

        // Clean corpus: a normal (non-degraded) manifest build.
        let out = run(&argv(&format!(
            "save-model --manifest {} --out {}",
            mpath.display(),
            model.display()
        )))
        .unwrap();
        assert!(out.contains("churn (from "), "{out}");
        assert!(!out.contains("FK-only surrogates"), "{out}");
        let a = hamlet_serve::artifact::load(&model).unwrap();
        assert_eq!(a.dataset, "churn");
        assert!(a.decisions.iter().all(|d| !d.degraded));

        // Withhold the attribute table: the strict default aborts...
        std::fs::remove_file(dir.join("employers.csv")).unwrap();
        let err = run(&argv(&format!(
            "save-model --manifest {} --out {}",
            mpath.display(),
            model.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("employers"), "{}", err.0);

        // ...and --allow-degraded ships an FK-only surrogate artifact
        // whose decision is marked degraded.
        let out = run(&argv(&format!(
            "save-model --manifest {} --allow-degraded --out {}",
            mpath.display(),
            model.display()
        )))
        .unwrap();
        assert!(out.contains("FK-only surrogates"), "{out}");
        let a = hamlet_serve::artifact::load(&model).unwrap();
        assert!(
            a.decisions.iter().any(|d| d.degraded),
            "degraded decision recorded in the artifact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_model_rejects_manifest_plus_dataset() {
        let err = run(&argv(
            "save-model --manifest /tmp/x --dataset walmart --out /tmp/y",
        ))
        .unwrap_err();
        assert!(err.0.contains("mutually exclusive"), "{}", err.0);
    }

    #[test]
    fn multi_model_flag_parsing() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_string).collect() };
        // One bare path becomes the default model, ids stay explicit.
        let sources = parse_model_sources(&args("--model a.json --model canary=b.json")).unwrap();
        assert_eq!(
            sources,
            vec![
                ("default".into(), std::path::PathBuf::from("a.json")),
                ("canary".into(), std::path::PathBuf::from("b.json")),
            ]
        );
        // The bare path routes as the default even when listed second.
        let sources = parse_model_sources(&args("--model canary=b.json --model a.json")).unwrap();
        assert_eq!(sources[0].0, "default");
        // Two bare paths are ambiguous.
        let err = parse_model_sources(&args("--model a.json --model b.json")).unwrap_err();
        assert!(err.0.contains("ID=PATH"), "{}", err.0);
        // Empty id or path is malformed.
        let err = parse_model_sources(&args("--model =b.json")).unwrap_err();
        assert!(err.0.contains("expected ID=PATH"), "{}", err.0);
        assert!(parse_model_sources(&[]).unwrap_err().0.contains("--model"));
    }

    #[test]
    fn reload_against_no_server_is_a_typed_error() {
        // Port 1 is never bound in the test environment.
        let err = run(&argv("reload --port 1")).unwrap_err();
        assert!(err.0.contains("cannot reach"), "{}", err.0);
    }
}

#[cfg(test)]
mod markdown_cli_tests {
    use super::*;

    #[test]
    fn advise_markdown_flag() {
        let args: Vec<String> = "advise --dataset walmart --scale 0.01 --markdown"
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let out = run(&args).unwrap();
        assert!(out.contains("| Table | FK |"), "{out}");
        assert!(out.contains("**avoid**"));
    }
}
