//! The one harness every `BENCH_*.json` emitter goes through: a
//! median-of-reps timer, the quick-mode read, and a report that starts
//! with the common header (`bench`, `threads`, `scale`, `quick`) and is
//! written in one layout to the repo root.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use hamlet_obs::env::resolved_threads;
use hamlet_obs::json::Json;

/// Whether `HAMLET_BENCH_QUICK=1` asks for the CI smoke settings.
pub fn quick() -> bool {
    std::env::var("HAMLET_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Median wall-clock seconds of `reps` runs of `f`, and the last run's
/// result so arms can be cross-checked for equality.
pub fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = None;
    let samples = (0..reps)
        .map(|_| {
            let t = Instant::now();
            out = Some(black_box(f()));
            t.elapsed().as_secs_f64()
        })
        .collect();
    (median(samples), out.expect("at least one rep"))
}

/// `samples[len / 2]` after sorting: the upper median for even counts.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// `x` rounded to `decimals` places, as a JSON number.
pub fn num(x: f64, decimals: i32) -> Json {
    let p = 10f64.powi(decimals);
    Json::Num((x * p).round() / p)
}

/// A report document: the common header, then the bench's own members.
/// `threads` is the worker count every parallel arm runs at
/// (`HAMLET_THREADS`, else the available parallelism).
pub fn document(bench: &str, scale: f64, members: Vec<(&str, Json)>) -> Json {
    let header = [
        ("bench", bench.into()),
        ("threads", resolved_threads().into()),
        ("scale", scale.into()),
        ("quick", quick().into()),
    ];
    hamlet_obs::json::obj(header.into_iter().chain(members).collect())
}

/// The report layout: one top-level key per line, and arrays of objects
/// one entry per line.
pub fn render(doc: &Json) -> String {
    let Json::Obj(members) = doc else {
        return format!("{doc}\n");
    };
    let lines: Vec<String> = members
        .iter()
        .map(|(k, v)| match v {
            Json::Arr(items)
                if !items.is_empty() && items.iter().all(|j| matches!(j, Json::Obj(_))) =>
            {
                let rows: Vec<String> = items.iter().map(|j| format!("  {j}")).collect();
                format!("{}: [\n{}\n]", Json::Str(k.clone()), rows.join(",\n"))
            }
            other => format!("{}: {other}", Json::Str(k.clone())),
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// `BENCH_<name>.json` at the repo root.
pub fn path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(format!("BENCH_{name}.json"))
}

/// Writes `build()`'s document to `BENCH_<name>.json`, or nothing under
/// `--test`: the shim runs bench bodies once there, so timings would be
/// nonsense.
pub fn emit(name: &str, build: impl FnOnce() -> Json) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    let path = path(name);
    match hamlet_obs::atomic_write(&path, render(&build()).as_bytes()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("BENCH_{name}.json not written: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_upper_middle_sample() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(vec![5.0]), 5.0);
        let (_, last) = time(3, {
            let mut calls = 0;
            move || {
                calls += 1;
                calls
            }
        });
        assert_eq!(last, 3);
    }

    #[test]
    fn a_document_parses_with_its_header_first_and_one_key_per_line() {
        let doc = document(
            "demo",
            0.5,
            vec![
                ("rows", Json::Num(7.0)),
                ("part", hamlet_obs::json::obj(vec![("s", num(0.123456, 4))])),
                (
                    "results",
                    Json::Arr(vec![
                        hamlet_obs::json::obj(vec![("a", Json::Num(1.0))]),
                        hamlet_obs::json::obj(vec![("a", Json::Num(2.0))]),
                    ]),
                ),
            ],
        );
        let text = render(&doc);
        assert_eq!(Json::parse(&text).unwrap(), doc);
        let Json::Obj(members) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["bench", "threads", "scale", "quick", "rows", "part", "results"]
        );
        assert_eq!(
            doc.get("threads").and_then(Json::as_f64),
            Some(resolved_threads() as f64)
        );
        assert_eq!(
            doc.get("part").and_then(|p| p.get("s")),
            Some(&Json::Num(0.1235))
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "{",
                "\"bench\": \"demo\",",
                &format!("\"threads\": {},", resolved_threads()),
                "\"scale\": 0.5,",
                &format!("\"quick\": {},", quick()),
                "\"rows\": 7,",
                "\"part\": {\"s\":0.1235},",
                "\"results\": [",
                "  {\"a\":1},",
                "  {\"a\":2}",
                "]",
                "}",
            ]
        );
    }

    #[test]
    fn reports_land_at_the_repo_root() {
        let path = path("demo");
        assert_eq!(path.file_name().unwrap(), "BENCH_demo.json");
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
    }
}
