//! Tiny-scale smoke runs of the benchmark binary: every metric named in
//! `BENCHMARK.json` is emitted, finite and carries its unit, and a failed
//! output check is counted rather than aborting the run.

use std::path::Path;
use std::process::Command;

use hamlet_obs::json::Json;

const WORKLOADS: [&str; 3] = ["pipeline-yelp", "select-walmart", "serve-yelp-gbt"];

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the binary at a tiny scale in a scratch directory; returns the
/// exit status success and the parsed last stdout line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Option<Json>) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{workload}-{trace}-{}", extra.len()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hamlet-perfbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "0.02"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().and_then(|l| Json::parse(l).ok());
    let _ = std::fs::remove_dir_all(&dir);
    (out.status.success(), last)
}

fn count(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .expect("whole-number field")
}

#[test]
fn every_named_metric_is_emitted_finite_with_its_unit() {
    for trace in [false, true] {
        let names = declared(if trace { "per_layer" } else { "end_to_end" });
        for workload in WORKLOADS {
            let (ok, doc) = run(workload, trace, &[]);
            assert!(ok, "{workload} exited nonzero");
            let doc = doc.expect("last line is the JSON result");
            assert!(
                matches!(doc.get("correct"), Some(Json::Bool(true))),
                "{workload}"
            );
            assert_eq!(count(&doc, "failed"), 0.0, "{workload}");
            assert!(count(&doc, "attempted") >= 1.0, "{workload}");
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let wanted: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(emitted, wanted, "{workload} trace={trace}");
            for (name, unit) in &names {
                let m = doc.get("metrics").and_then(|m| m.get(name)).unwrap();
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {v:?}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                if !trace {
                    assert!(v.unwrap() > 0.0, "{workload}: end-to-end {name} is 0");
                }
            }
        }
    }
}

#[test]
fn a_failed_output_check_is_counted_not_a_panic() {
    for workload in WORKLOADS {
        let (ok, doc) = run(workload, false, &["--corrupt-references"]);
        assert!(ok, "{workload} exited nonzero on a failed check");
        let doc = doc.expect("a result is still printed");
        assert!(
            matches!(doc.get("correct"), Some(Json::Bool(false))),
            "{workload}"
        );
        let (attempted, failed) = (count(&doc, "attempted"), count(&doc, "failed"));
        assert!(
            failed >= 1.0 && failed <= attempted,
            "{workload}: {failed} of {attempted}"
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed", "1"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_hamlet-perfbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
