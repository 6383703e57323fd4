//! `loadgen` — open-loop HTTP load generator for the inference server.
//!
//! Drives configurable connection-level concurrency against a live
//! `hamlet serve` instance (or an in-process server it spawns itself
//! over the bench-scale Walmart Naive Bayes artifact) and reports
//! p50/p99/p999 request latency plus sustained throughput, per
//! connection mode:
//!
//! * `keepalive` — every connection is reused for all of its requests
//!   (the fleet path the keep-alive rework exists for);
//! * `oneshot`   — one request per connection, the pre-rework behavior,
//!   kept as the comparison baseline.
//!
//! With `--mode both` (the default) it runs both and reports the
//! keep-alive speedup, then merges a `"load"` section into
//! `BENCH_serve.json` next to the criterion-derived scoring latencies,
//! so CI and the docs can quote serving numbers from one file.
//!
//! Usage:
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--conns N] [--requests N] [--threads N]
//!         [--mode keepalive|oneshot|both] [--out FILE] [--no-emit]
//! ```
//!
//! Without `--addr` an in-process server is spawned on a free port with
//! `--threads` workers (so the comparison holds the server constant and
//! varies only the connection discipline).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hamlet_bench::report::{self, num};
use hamlet_bench::BENCH_SCALE;
use hamlet_core::advisor::AdvisorConfig;
use hamlet_obs::json::{obj, Json};
use hamlet_serve::{build_artifact, ModelKind, Scorer, ServerConfig};

/// Everything a run needs, parsed from argv.
struct Opts {
    addr: Option<String>,
    conns: usize,
    requests: usize,
    threads: usize,
    mode: Mode,
    out: PathBuf,
    emit: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    KeepAlive,
    OneShot,
    Both,
}

fn usage() -> String {
    "usage: loadgen [--addr HOST:PORT] [--conns N] [--requests N] [--threads N] \
     [--mode keepalive|oneshot|both] [--out FILE] [--no-emit]"
        .to_string()
}

fn parse_opts() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<Option<String>, String> {
        let mut found = None;
        let mut i = 0;
        while i < args.len() {
            if args[i] == name {
                let v = args
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{name} requires a value\n{}", usage()))?;
                found = Some(v.clone());
                i += 2;
            } else {
                i += 1;
            }
        }
        Ok(found)
    };
    let num = |name: &str, default: usize| -> Result<usize, String> {
        match flag(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {name} '{v}'")),
        }
    };
    let mode = match flag("--mode")?.as_deref() {
        None | Some("both") => Mode::Both,
        Some("keepalive") => Mode::KeepAlive,
        Some("oneshot") => Mode::OneShot,
        Some(other) => return Err(format!("bad --mode '{other}'\n{}", usage())),
    };
    let conns = num("--conns", 8)?;
    let requests = num("--requests", 200)?;
    if conns == 0 || requests == 0 {
        return Err("--conns and --requests must be positive".into());
    }
    Ok(Opts {
        addr: flag("--addr")?,
        conns,
        requests,
        threads: num("--threads", 4)?.max(1),
        mode,
        out: flag("--out")?
            .map(PathBuf::from)
            .unwrap_or_else(|| report::path("serve")),
        emit: !args.iter().any(|a| a == "--no-emit"),
    })
}

/// Deterministic in-domain single-row request bodies drawn from the
/// artifact schema (same generator as the serve bench).
fn bodies_for(scorer: &Scorer, n: usize) -> Vec<String> {
    (0..n)
        .map(|r| {
            let codes: Vec<String> = scorer
                .artifact()
                .features
                .iter()
                .enumerate()
                .map(|(f, def)| (((r * 31 + f * 7) % def.domain_size) as u32).to_string())
                .collect();
            format!("[[{}]]", codes.join(","))
        })
        .collect()
}

/// Reads exactly one framed response (head + `Content-Length` body);
/// returns the status code. Never waits for EOF, so it works on
/// keep-alive connections.
fn read_one_response(s: &mut TcpStream, scratch: &mut Vec<u8>) -> Result<u16, String> {
    scratch.clear();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(p) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        match s.read(&mut chunk) {
            Ok(0) => return Err("connection closed before the response head".into()),
            Ok(n) => scratch.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    };
    let head = String::from_utf8_lossy(&scratch[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unparseable status line: {head}"))?;
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            if name.eq_ignore_ascii_case("content-length") {
                value.trim().parse().ok()
            } else {
                None
            }
        })
        .unwrap_or(0);
    let total = head_end + 4 + content_length;
    while scratch.len() < total {
        match s.read(&mut chunk) {
            Ok(0) => return Err("connection closed mid-body".into()),
            Ok(n) => scratch.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(status)
}

/// Per-mode aggregate over every request of every connection.
struct ModeReport {
    mode: &'static str,
    requests: usize,
    errors: usize,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    throughput_rps: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

/// Runs one mode: `conns` client threads, `requests` requests each.
fn run_mode(
    addr: &str,
    mode: &'static str,
    conns: usize,
    requests: usize,
    bodies: &Arc<Vec<String>>,
) -> Result<ModeReport, String> {
    let keep_alive = mode == "keepalive";
    let wall = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.to_string();
            let bodies = Arc::clone(bodies);
            std::thread::spawn(move || -> Result<(Vec<f64>, usize), String> {
                let mut latencies = Vec::with_capacity(requests);
                let mut errors = 0usize;
                let mut scratch = Vec::with_capacity(4096);
                let connect = || -> Result<TcpStream, String> {
                    let s = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                    let _ = s.set_nodelay(true);
                    Ok(s)
                };
                let mut stream = if keep_alive { Some(connect()?) } else { None };
                for r in 0..requests {
                    let body = &bodies[(c * requests + r) % bodies.len()];
                    let connection = if keep_alive { "keep-alive" } else { "close" };
                    let raw = format!(
                        "POST /predict HTTP/1.1\r\nHost: loadgen\r\nConnection: {connection}\r\n\
                         Content-Length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let t = Instant::now();
                    let status = if keep_alive {
                        let s = stream.as_mut().ok_or("no stream")?;
                        s.write_all(raw.as_bytes())
                            .map_err(|e| format!("write: {e}"))?;
                        read_one_response(s, &mut scratch)?
                    } else {
                        let mut s = connect()?;
                        s.write_all(raw.as_bytes())
                            .map_err(|e| format!("write: {e}"))?;
                        let status = read_one_response(&mut s, &mut scratch)?;
                        drop(s);
                        status
                    };
                    latencies.push(t.elapsed().as_secs_f64() * 1e6);
                    if status != 200 {
                        errors += 1;
                    }
                }
                Ok((latencies, errors))
            })
        })
        .collect();

    let mut latencies = Vec::with_capacity(conns * requests);
    let mut errors = 0usize;
    for w in workers {
        let (l, e) = w
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        latencies.extend(l);
        errors += e;
    }
    let elapsed = wall.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    Ok(ModeReport {
        mode,
        requests: latencies.len(),
        errors,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        throughput_rps: latencies.len() as f64 / elapsed,
    })
}

impl ModeReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("mode", self.mode.into()),
            ("requests", self.requests.into()),
            ("errors", self.errors.into()),
            ("p50_us", num(self.p50_us, 1)),
            ("p99_us", num(self.p99_us, 1)),
            ("p999_us", num(self.p999_us, 1)),
            ("throughput_rps", num(self.throughput_rps, 1)),
        ])
    }

    fn render_line(&self) -> String {
        format!(
            "{:>9}: {} requests ({} errors), p50 {:.0}µs, p99 {:.0}µs, p999 {:.0}µs, {:.0} req/s",
            self.mode,
            self.requests,
            self.errors,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.throughput_rps
        )
    }
}

/// The report in `text` (BENCH_serve.json's, if any) with its `"load"`
/// section replaced by `load`; a bare serve report when there is none.
fn merged(text: Option<&str>, load: Json) -> Json {
    let mut doc = text
        .and_then(|text| Json::parse(text).ok())
        .filter(|doc| matches!(doc, Json::Obj(_)))
        .unwrap_or_else(|| {
            report::document("serve", BENCH_SCALE, vec![("results", Json::Arr(vec![]))])
        });
    if let Json::Obj(members) = &mut doc {
        members.retain(|(k, _)| k != "load");
        members.push(("load".to_string(), load));
    }
    doc
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("loadgen: {e}");
        std::process::exit(1);
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    // The request bodies come from the bench Walmart NB artifact either
    // way; against an external server they exercise whatever model is
    // mounted at /predict (positional rows must match its arity).
    let g = hamlet_bench::walmart();
    let built = build_artifact(
        &g.star,
        ModelKind::NaiveBayes,
        &AdvisorConfig::default(),
        "Walmart",
    )
    .map_err(|e| format!("bench artifact build failed: {e}"))?;
    let scorer = Scorer::new(built.artifact);
    let bodies = Arc::new(bodies_for(&scorer, 64));

    // Spawn an in-process server unless one was pointed at.
    let (addr, handle) = match &opts.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let handle = hamlet_serve::start(
                scorer,
                ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    threads: opts.threads,
                    queue_capacity: 1024,
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("cannot start in-process server: {e}"))?;
            eprintln!(
                "spawned in-process Walmart NB server on 127.0.0.1:{} ({} workers)",
                handle.port(),
                opts.threads
            );
            (format!("127.0.0.1:{}", handle.port()), Some(handle))
        }
    };

    let modes: &[&'static str] = match opts.mode {
        Mode::KeepAlive => &["keepalive"],
        Mode::OneShot => &["oneshot"],
        Mode::Both => &["keepalive", "oneshot"],
    };
    let mut reports = Vec::new();
    for mode in modes {
        let report = run_mode(&addr, mode, opts.conns, opts.requests, &bodies)?;
        eprintln!("{}", report.render_line());
        reports.push(report);
    }

    if let Some(handle) = handle {
        handle.stop();
        handle
            .join()
            .map_err(|e| format!("in-process server failed: {e}"))?;
    }

    let speedup = match (
        reports.iter().find(|r| r.mode == "keepalive"),
        reports.iter().find(|r| r.mode == "oneshot"),
    ) {
        (Some(ka), Some(os)) if os.throughput_rps > 0.0 => {
            let s = ka.throughput_rps / os.throughput_rps;
            eprintln!("keep-alive speedup over one-request-per-connection: {s:.1}x");
            Some(s)
        }
        _ => None,
    };

    if opts.emit {
        let mut load = vec![
            ("connections", opts.conns.into()),
            ("requests_per_connection", opts.requests.into()),
            (
                "modes",
                Json::Arr(reports.iter().map(ModeReport::to_json).collect()),
            ),
        ];
        if let Some(s) = speedup {
            load.push(("keepalive_speedup", num(s, 1)));
        }
        let doc = merged(
            std::fs::read_to_string(&opts.out).ok().as_deref(),
            obj(load),
        );
        hamlet_obs::atomic_write(&opts.out, report::render(&doc).as_bytes())
            .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
        eprintln!("merged load results into {}", opts.out.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_merge_keeps_the_bench_members_and_replaces_the_old_load_section() {
        let before = report::render(&report::document(
            "serve",
            BENCH_SCALE,
            vec![
                (
                    "results",
                    Json::Arr(vec![obj(vec![("family", Json::Str("nb".into()))])]),
                ),
                ("load", obj(vec![("connections", Json::Num(1.0))])),
                ("body_e2e", obj(vec![("rows", Json::Num(256.0))])),
            ],
        ));
        let load = obj(vec![("connections", Json::Num(4.0))]);
        let doc = merged(Some(&before), load.clone());
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["bench", "threads", "scale", "quick", "results", "body_e2e", "load"]
        );
        assert_eq!(doc.get("load"), Some(&load));
        let Json::Obj(old) = Json::parse(&before).unwrap() else {
            panic!("not an object")
        };
        for (k, v) in old.iter().filter(|(k, _)| k != "load") {
            assert_eq!(doc.get(k), Some(v), "{k} changed");
        }
    }

    #[test]
    fn a_merge_without_a_report_writes_a_headed_serve_report() {
        for text in [None, Some("not json"), Some("[1, 2]")] {
            let doc = merged(text, obj(vec![]));
            assert_eq!(doc.get("bench").and_then(Json::as_str), Some("serve"));
            assert!(doc.get("threads").is_some() && doc.get("quick").is_some());
            assert_eq!(doc.get("load"), Some(&obj(vec![])));
        }
    }
}
