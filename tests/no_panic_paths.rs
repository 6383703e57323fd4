//! Source-scan guard for the bugfix sweep: the library paths that used
//! to abort the process (`panic!`, `.expect`, `.unwrap`) now return
//! typed errors, and this test keeps them that way. It scans non-test
//! source text, so a reintroduced panic fails CI even if no runtime
//! test happens to hit it.

use std::fs;
use std::path::Path;

/// Source up to the `#[cfg(test)]` module.
fn non_test(src: &str) -> &str {
    src.split("#[cfg(test)]").next().unwrap_or(src)
}

/// The body of `fn name` (brace-balanced), panicking if absent so a
/// rename breaks this guard loudly rather than silently scanning
/// nothing.
fn function_body<'a>(src: &'a str, name: &str) -> &'a str {
    let needle = format!("fn {name}");
    let at = src
        .find(&needle)
        .unwrap_or_else(|| panic!("function `{name}` not found — update tests/no_panic_paths.rs"));
    let open = at + src[at..].find('{').expect("function has a body");
    let mut depth = 0usize;
    for (i, c) in src[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &src[open..open + i + 1];
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced braces after `{name}`");
}

fn assert_no_aborts(what: &str, src: &str) {
    // `.unwrap_or`/`.unwrap_or_else` are fine (they don't abort);
    // `.unwrap()`, `.unwrap_err()`, `.expect(`, `panic!(` are not.
    for pat in [".unwrap()", ".unwrap_err()", ".expect(", "panic!("] {
        assert!(
            !src.contains(pat),
            "{what} contains `{pat}` — these paths must return typed errors, not abort \
             (see the observability/bugfix sweep)"
        );
    }
}

fn read(rel: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"))
}

#[test]
fn hypothesis_module_has_no_aborting_calls() {
    let src = read("crates/core/src/hypothesis.rs");
    assert_no_aborts("crates/core/src/hypothesis.rs", non_test(&src));
}

#[test]
fn tuning_module_has_no_aborting_calls() {
    let src = read("crates/core/src/tuning.rs");
    assert_no_aborts("crates/core/src/tuning.rs", non_test(&src));
}

#[test]
fn runner_named_paths_have_no_aborting_calls() {
    let src = read("crates/experiments/src/runner.rs");
    let src = non_test(&src);
    for f in [
        "try_dataset_scale",
        "try_monte_carlo_opts",
        "prepare_plan",
        "run_method",
        "join_opt_plan",
    ] {
        assert_no_aborts(
            &format!("crates/experiments/src/runner.rs::{f}"),
            function_body(src, f),
        );
    }
}

#[test]
fn cli_arg_parsing_has_no_aborting_calls() {
    let src = read("src/cli.rs");
    let src = non_test(&src);
    for f in [
        "parse_flag",
        "parse_multi",
        "dataset_arg",
        "strategy_arg",
        "family_arg",
        "load_policy_args",
        "num_flag",
        "simulate_cmd",
        "retune_cmd",
        "discovery_args",
        "discover_star",
        "render_discovery",
        "discover_cmd",
    ] {
        assert_no_aborts(&format!("src/cli.rs::{f}"), function_body(src, f));
    }
}

#[test]
fn lenient_csv_reader_has_no_aborting_calls() {
    // The whole ingest module: dirty data must surface as quarantine
    // entries or typed errors, never as a panic.
    let src = read("crates/relational/src/csv.rs");
    assert_no_aborts("crates/relational/src/csv.rs", non_test(&src));
}

#[test]
fn dataplane_modules_have_no_aborting_calls() {
    // The out-of-core data plane: chunk storage/spill, the streaming
    // ingester and its label dictionary, and the count primitive.
    // Truncated spill files, exhausted budgets, and corrupt streams
    // surface as typed errors (or quarantine entries) — never a panic —
    // and spill files go through `atomic_write` with RAII cleanup.
    for rel in [
        "crates/relational/src/chunk.rs",
        "crates/relational/src/dict.rs",
        "crates/relational/src/ingest.rs",
        "crates/ml/src/source.rs",
    ] {
        let src = read(rel);
        assert_no_aborts(rel, non_test(&src));
    }
}

#[test]
fn manifest_policy_load_has_no_aborting_calls() {
    let src = read("crates/relational/src/manifest.rs");
    let src = non_test(&src);
    for f in ["load_with_policy", "load_policy", "file_stem"] {
        assert_no_aborts(
            &format!("crates/relational/src/manifest.rs::{f}"),
            function_body(src, f),
        );
    }
}

#[test]
fn atomic_write_helper_has_no_aborting_calls() {
    let src = read("crates/obs/src/fsio.rs");
    assert_no_aborts("crates/obs/src/fsio.rs", non_test(&src));
}

#[test]
fn checkpoint_store_has_no_aborting_calls() {
    // A corrupt or unwritable checkpoint degrades (recompute / warn),
    // it never aborts an experiment.
    let src = read("crates/experiments/src/checkpoint.rs");
    assert_no_aborts("crates/experiments/src/checkpoint.rs", non_test(&src));
}

#[test]
fn serve_crate_has_no_aborting_calls() {
    // The entire serving subsystem: corrupt artifacts, hostile requests,
    // severed sockets, and poisoned locks all degrade with typed errors
    // or logged warnings — a scoring server must never abort.
    for rel in [
        "crates/serve/src/lib.rs",
        "crates/serve/src/artifact.rs",
        "crates/serve/src/score.rs",
        "crates/serve/src/export.rs",
        "crates/serve/src/http.rs",
        "crates/serve/src/conn.rs",
        "crates/serve/src/batch.rs",
        "crates/serve/src/degrade.rs",
        "crates/serve/src/registry.rs",
        "crates/serve/src/server.rs",
    ] {
        let src = read(rel);
        assert_no_aborts(rel, non_test(&src));
    }
}

#[test]
fn trees_crate_has_no_aborting_calls() {
    // The entire tree-learning subsystem: corrupt arenas, non-finite
    // leaf values, and out-of-domain codes all degrade with typed
    // errors or clamped walks — training and prediction never abort.
    for rel in [
        "crates/trees/src/lib.rs",
        "crates/trees/src/cart.rs",
        "crates/trees/src/gbt.rs",
        "crates/trees/src/factorized.rs",
        "crates/trees/src/sweep.rs",
    ] {
        let src = read(rel);
        assert_no_aborts(rel, non_test(&src));
    }
}

#[test]
fn discovery_crate_has_no_aborting_calls() {
    // The entire schema-discovery subsystem: chaos-corrupted corpora
    // (dangling FKs, duplicate keys, ragged rows) must surface as typed
    // errors or tolerance-journaled evidence, never as a panic.
    for rel in [
        "crates/discovery/src/lib.rs",
        "crates/discovery/src/error.rs",
        "crates/discovery/src/miner.rs",
        "crates/discovery/src/report.rs",
        "crates/discovery/src/sketch.rs",
        "crates/discovery/src/verify.rs",
    ] {
        let src = read(rel);
        assert_no_aborts(rel, non_test(&src));
    }
}

#[test]
fn availability_layer_has_no_aborting_calls() {
    // An absent or unreadable attribute table must degrade into an
    // FK-only surrogate (or a typed error under the strict policy),
    // never a panic — the whole point of degraded-mode analytics.
    let src = read("crates/relational/src/availability.rs");
    assert_no_aborts("crates/relational/src/availability.rs", non_test(&src));
}

#[test]
fn retry_policy_has_no_aborting_calls() {
    // Exhausted retries surface the last typed error; the backoff loop
    // itself must never abort.
    let src = read("crates/obs/src/retry.rs");
    assert_no_aborts("crates/obs/src/retry.rs", non_test(&src));
}

#[test]
fn advisor_has_no_aborting_calls() {
    // Regression: `advise` used to `.expect("validated at construction")`
    // on the FK column lookup; it now returns AdvisorError.
    let src = read("crates/core/src/advisor.rs");
    assert_no_aborts("crates/core/src/advisor.rs", non_test(&src));
}

#[test]
fn failpoint_spec_parsing_has_no_aborting_calls() {
    // `hit()` panics BY DESIGN when a panic-mode failpoint fires, so
    // only the spec parser is held to the no-abort rule: a bad spec
    // must produce a typed FailpointError.
    let src = read("crates/chaos/src/failpoint.rs");
    let src = non_test(&src);
    assert_no_aborts(
        "crates/chaos/src/failpoint.rs::parse_spec",
        function_body(src, "parse_spec"),
    );
}
