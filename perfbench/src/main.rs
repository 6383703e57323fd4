//! `hamlet-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pipeline-yelp|select-walmart|serve-yelp-gbt|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//! ```
//!
//! Each workload runs in its own process and drives the library from
//! outside, through the public functions the `hamlet` CLI calls. Its
//! inputs come only from `DatasetSpec::{yelp,walmart}().generate(scale,
//! seed)`. A run sets up several times (the median is `setup_s`), keeps
//! the last set-up with its discarded warm-up pass, then times passes
//! for `--seconds` and checks every pass's outputs against references
//! made in set-up. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`. The line before it records the run's settings.

mod harness;
mod pipeline;
mod select;
mod serve;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use hamlet_obs::alloc::CountingAlloc;

use harness::{median, percentile, Pass, Tracer, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// Most timed passes a run logs (a serving pass is one request pair).
const MAX_PASSES: usize = 1 << 16;

/// GBT rounds, pinned at the library default.
const GBT_ROUNDS: usize = hamlet_trees::DEFAULT_GBT_ROUNDS;

/// The workloads, with the `HAMLET_THREADS` each runs under.
const WORKLOADS: [(&str, usize); 3] = [
    ("pipeline-yelp", 1),
    ("select-walmart", 2),
    ("serve-yelp-gbt", 1),
];

/// End-to-end metrics (reported by untraced runs), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("peak_alloc_mb", "MB"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics (reported by traced runs), with units. Times are
/// self times of benchmark-side spans around public calls.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("relational.load_s", "s"),
    ("relational.load_rows", "count"),
    ("relational.load_mb", "MB"),
    ("relational.load_peak_alloc_mb", "MB"),
    ("relational.quarantined_rows", "count"),
    ("relational.materialize_s", "s"),
    ("relational.materialize_cells", "count"),
    ("discovery.discover_s", "s"),
    ("discovery.fk_candidates", "count"),
    ("discovery.fk_accept_ratio", "ratio"),
    ("discovery.fd_checks", "count"),
    ("discovery.fd_accept_ratio", "ratio"),
    ("discovery.peak_alloc_mb", "MB"),
    ("core.advise_s", "s"),
    ("core.joins_avoided", "count"),
    ("factorized.view_s", "s"),
    ("factorized.fit_nb_s", "s"),
    ("factorized.cells_avoided", "count"),
    ("trees.fit_gbt_s", "s"),
    ("trees.fit_gbt_peak_alloc_mb", "MB"),
    ("ml.dataset_s", "s"),
    ("ml.eval_s", "s"),
    ("feature_selection.forward_s", "s"),
    ("feature_selection.backward_s", "s"),
    ("feature_selection.filter_s", "s"),
    ("feature_selection.model_fits", "count"),
    ("feature_selection.joinall_s", "s"),
    ("feature_selection.joinopt_s", "s"),
    ("feature_selection.joinopt_speedup", "ratio"),
    ("serve.build_artifact_s", "s"),
    ("serve.save_s", "s"),
    ("serve.load_s", "s"),
    ("serve.artifact_kb", "kB"),
    ("serve.score_s", "s"),
    ("serve.score_rows", "count"),
    ("serve.start_s", "s"),
    ("serve.requests", "count"),
    ("serve.requests_failed", "count"),
    ("serve.single_samples", "count"),
    ("serve.single_p50_ms", "ms"),
    ("serve.single_p90_ms", "ms"),
    ("serve.single_p99_ms", "ms"),
    ("serve.single_p999_ms", "ms"),
    ("serve.batch_samples", "count"),
    ("serve.batch_p90_ms", "ms"),
    ("serve.batch_p99_ms", "ms"),
    ("serve.batch_p999_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the run's CSVs and artifacts, inside the
    /// working directory; removed when the run ends.
    pub work_dir: PathBuf,
    /// Self-test of the output checks: tamper with the set-up
    /// references so that every check fails.
    pub corrupt_references: bool,
}

fn usage() -> String {
    format!(
        "usage: hamlet-perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--scale <f>] [--corrupt-references]",
        WORKLOADS.map(|(w, _)| w).join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let flag = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| format!("missing {name}\n{}", usage()))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let num = |name: &str| -> Result<f64, String> {
        let v = flag(name)?;
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("bad {name} '{v}'"))
    };
    let workload = flag("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload '{workload}'\n{}", usage()));
    }
    let seed = flag("--seed")?
        .parse::<u64>()
        .map_err(|_| format!("bad --seed\n{}", usage()))?;
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace must be 0 or 1, got '{v}'")),
    };
    let scale = if args.iter().any(|a| a == "--scale") {
        num("--scale")?
    } else {
        1.0
    };
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    let work_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench_work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Config {
        workload,
        seed,
        scale,
        seconds: num("--seconds")?,
        trace,
        work_dir,
        corrupt_references: args.iter().any(|a| a == "--corrupt-references"),
    })
}

/// The checkout's git revision, read from `.git` in the working
/// directory without leaving it; `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Pins every `HAMLET_*` knob for a workload: only its thread count and
/// the GBT rounds are set, so an ambient environment cannot change what
/// is measured. Runs before any thread exists.
fn pin_environment(threads: usize) {
    let ambient: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HAMLET_"))
        .collect();
    for k in ambient {
        std::env::remove_var(k);
    }
    std::env::set_var("HAMLET_THREADS", threads.to_string());
    std::env::set_var("HAMLET_GBT_ROUNDS", GBT_ROUNDS.to_string());
}

fn prepare(cfg: &Config, tracer: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "pipeline-yelp" => Box::new(pipeline::setup(cfg, tracer)?),
        "select-walmart" => Box::new(select::setup(cfg, tracer)?),
        _ => Box::new(serve::setup(cfg, tracer)?),
    })
}

/// Outcome of one workload run, ready to print.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    passes: usize,
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

/// Runs one workload: repeated set-up, warm-up, timed passes.
fn run_workload(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let mut attempted = 0;
    let mut failed = 0;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    let mut setup_trace = Tracer::off();
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        setup_trace = if cfg.trace {
            Tracer::on()
        } else {
            Tracer::off()
        };
        let started = Instant::now();
        let mut w = prepare(cfg, &mut setup_trace)?;
        let warm = w.pass(&mut Tracer::off());
        setups.push(started.elapsed().as_secs_f64());
        attempted += warm.attempted;
        failed += warm.failed;
        workload = Some(w);
    }
    let mut w = workload.ok_or("no set-up ran")?;

    // The pass log is reserved before the allocator peak is reset and
    // never grows, so `peak_alloc_mb` can leave its bytes out.
    let mut plain: Vec<Pass> = Vec::with_capacity(MAX_PASSES);
    let log_bytes = plain.capacity() * std::mem::size_of::<Pass>();
    let mut traced: Vec<(Pass, Tracer)> = Vec::new();
    hamlet_obs::alloc::reset_peak();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    while plain.len() < MAX_PASSES
        && (plain.len() + traced.len() < MIN_PASSES
            || Instant::now() < deadline
            || (cfg.trace && traced.is_empty()))
    {
        // A traced run alternates untraced and traced passes, so the
        // pair gives the tracing overhead.
        if cfg.trace && plain.len() > traced.len() {
            let mut t = Tracer::on();
            let p = w.pass(&mut t);
            traced.push((p, t));
        } else {
            plain.push(w.pass(&mut Tracer::off()));
        }
    }
    let peak_alloc = hamlet_obs::alloc::peak_bytes()
        .unwrap_or(0)
        .saturating_sub(log_bytes) as f64
        / 1e6;
    let peak_rss = hamlet_obs::alloc::peak_rss_bytes().unwrap_or(0) as f64 / 1e6;
    let all: Vec<&Pass> = plain.iter().chain(traced.iter().map(|(p, _)| p)).collect();
    for p in &all {
        attempted += p.attempted;
        failed += p.failed;
    }

    let metrics = if cfg.trace {
        per_layer(&plain, &traced, &setup_trace)
    } else {
        let rates: Vec<f64> = plain.iter().map(|p| p.rows as f64 / p.wall_s).collect();
        let latencies: Vec<f64> = plain.iter().map(|p| p.latency_s).collect();
        let values = [
            median(&setups),
            median(&rates),
            peak_rss,
            peak_alloc,
            ms(median(&latencies)),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        passes: all.len(),
    })
}

/// Summarises the traced passes into the per-layer metrics. Spans and
/// counts are per-pass values medianed over the traced passes; calls
/// made only in set-up come from the last set-up; metrics a workload
/// does not exercise read 0.
fn per_layer(
    plain: &[Pass],
    traced: &[(Pass, Tracer)],
    setup: &Tracer,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut found = setup.totals();
    let per_pass: Vec<BTreeMap<&'static str, f64>> =
        traced.iter().map(|(_, t)| t.totals()).collect();
    let names: BTreeSet<&'static str> = per_pass.iter().flat_map(|m| m.keys().copied()).collect();
    for name in names {
        let values: Vec<f64> = per_pass
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        found.insert(name, median(&values));
    }
    let coverage: Vec<f64> = traced
        .iter()
        .map(|(p, t)| t.self_time_s() / p.wall_s)
        .collect();
    found.insert("trace.coverage", median(&coverage));
    let plain_wall: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|(p, _)| p.wall_s).collect();
    found.insert("trace.overhead", median(&traced_wall) / median(&plain_wall));
    if let (Some(all), Some(opt)) = (
        found.get("feature_selection.joinall_s"),
        found.get("feature_selection.joinopt_s"),
    ) {
        found.insert("feature_selection.joinopt_speedup", all / opt);
    }
    let passes = || plain.iter().chain(traced.iter().map(|(p, _)| p));
    let single: Vec<f64> = passes().filter_map(|p| p.single_s).collect();
    if !single.is_empty() {
        let batch: Vec<f64> = passes().map(|p| p.latency_s).collect();
        found.extend([
            (
                "serve.requests",
                passes().map(|p| p.attempted).sum::<u64>() as f64,
            ),
            (
                "serve.requests_failed",
                passes().map(|p| p.failed).sum::<u64>() as f64,
            ),
            ("serve.single_samples", single.len() as f64),
            ("serve.single_p50_ms", ms(percentile(&single, 0.5))),
            ("serve.single_p90_ms", ms(percentile(&single, 0.9))),
            ("serve.single_p99_ms", ms(percentile(&single, 0.99))),
            ("serve.single_p999_ms", ms(percentile(&single, 0.999))),
            ("serve.batch_samples", batch.len() as f64),
            ("serve.batch_p90_ms", ms(percentile(&batch, 0.9))),
            ("serve.batch_p99_ms", ms(percentile(&batch, 0.99))),
            ("serve.batch_p999_ms", ms(percentile(&batch, 0.999))),
        ]);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, found.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Renders the result line. `Display` for `f64` prints the shortest
/// exact representation, so no digit is lost.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_one(cfg: &Config) -> Result<(), String> {
    let threads = WORKLOADS
        .iter()
        .find(|(w, _)| *w == cfg.workload)
        .map_or(1, |(_, t)| *t);
    pin_environment(threads);
    hamlet_obs::alloc::install_meter(&ALLOC);
    let outcome = run_workload(cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    if let Some(parent) = cfg.work_dir.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let o = outcome?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"scale\": {}, \"seconds\": {}, \
         \"trace\": {}, \"hamlet_threads\": {threads}, \"nproc\": {nproc}, \
         \"gbt_rounds\": {GBT_ROUNDS}, \"setup_reps\": {SETUP_REPS}, \"passes\": {}, \
         \"git_rev\": \"{}\"}}}}",
        cfg.workload,
        cfg.seed,
        cfg.scale,
        cfg.seconds,
        u8::from(cfg.trace),
        o.passes,
        git_rev()
    );
    if cfg.trace {
        println!("{:<40} {:>16}  unit", "per-layer metric", "value");
        for (name, v, unit) in &o.metrics {
            println!("{name:<40} {v:>16.6}  {unit}");
        }
    }
    let correct = o.failed == 0 && o.metrics.iter().all(|(_, v, _)| v.is_finite());
    let metrics: Vec<(String, f64, &str)> = o
        .metrics
        .iter()
        .map(|&(n, v, u)| (n.to_string(), v, u))
        .collect();
    println!("{}", result_json(correct, o.attempted, o.failed, &metrics));
    Ok(())
}

/// `--workload all`: every workload in its own child process, then one
/// combined result line with metrics named `<workload>.<metric>`.
fn run_all(cfg: &Config, args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let pos = args
        .iter()
        .position(|a| a == "--workload")
        .ok_or("no --workload")?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for (name, _) in WORKLOADS {
        let mut child_args = args.to_vec();
        child_args[pos + 1] = name.to_string();
        let out = Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!(
                "{name} failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let doc = hamlet_obs::json::Json::parse(last).map_err(|e| format!("{name}: {e}"))?;
        correct &= matches!(doc.get("correct"), Some(hamlet_obs::json::Json::Bool(true)));
        attempted += doc.get("attempted").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        failed += doc.get("failed").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        let table = if cfg.trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        for &(metric, unit) in table {
            let v = doc
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64())
                .unwrap_or(f64::NAN);
            metrics.push((format!("{name}.{metric}"), v, unit));
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|cfg| {
        if cfg.workload == "all" {
            run_all(&cfg, &args)
        } else {
            run_one(&cfg)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
