//! The `chaos-degrade` scenario: an end-to-end proof that the pipeline
//! survives absent attribute tables and scoring faults.
//!
//! Three phases, each asserting the degraded-mode contract from
//! DESIGN.md §11:
//!
//! 1. **Parity, no fault armed.** A manifest corpus loads under both
//!    [`TablePolicy::Require`] and [`TablePolicy::AllowDegraded`]; with
//!    every table present the two stars, artifacts, and predictions must
//!    be bit-for-bit identical — tolerance is free when nothing is
//!    broken.
//! 2. **Degraded load.** With `relational.table_open=io@1` armed, the
//!    strict load fails with a typed error while the tolerant load
//!    substitutes an FK-only surrogate, records the worst-case ROR
//!    evidence, and the built artifact marks the decision `degraded`.
//! 3. **Serving fallback chain.** A `fallback: true` server takes a
//!    `serve.model_score=panic@3` fault mid-traffic: every response is
//!    still 2xx (the faulted one answers from the prior-only surrogate
//!    with the `X-Hamlet-Degraded` marker), `hamlet_serve_degraded_total`
//!    counts it, the post-fault response is byte-identical to the
//!    pre-fault one, and the drain is clean (zero 4xx/5xx).
//!
//! The `chaos_degrade` binary runs the scenario and exits nonzero on
//! any violated assertion; CI's `degrade-smoke` job invokes it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use hamlet_chaos::failpoint;
use hamlet_core::advisor::AdvisorConfig;
use hamlet_core::ModelFamily;
use hamlet_relational::{DirtyPolicy, FkPolicy, LoadPolicy, Manifest, TablePolicy};
use hamlet_serve::{build_artifact_with_availability, ModelKind, Scorer, ServerConfig};

fn ensure(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

fn policy(on_missing_table: TablePolicy) -> LoadPolicy {
    LoadPolicy {
        on_dirty: DirtyPolicy::Abort,
        on_dangling_fk: FkPolicy::Abort,
        on_missing_table,
    }
}

/// Writes the two-table churn corpus and returns the manifest path.
fn write_corpus(dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut customers = String::from("Churn,Age,EmployerID\n");
    for i in 0..5000 {
        let e = i % 50;
        customers.push_str(&format!("{},{},e{}\n", (e + i / 50) % 2, 20 + i % 40, e));
    }
    let mut employers = String::from("EmployerID,Country\n");
    for e in 0..50 {
        employers.push_str(&format!("e{},c{}\n", e, e % 8));
    }
    std::fs::write(dir.join("customers.csv"), customers).map_err(|e| e.to_string())?;
    std::fs::write(dir.join("employers.csv"), employers).map_err(|e| e.to_string())?;
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
    std::fs::write(&mpath, manifest).map_err(|e| e.to_string())?;
    Ok(mpath)
}

/// Decodes, scores and renders one request body without the HTTP
/// plane: the response text a server would answer with.
fn respond(scorer: &Scorer, body: &str) -> Result<String, String> {
    let (batch, _) = scorer.decode_body(body, false).map_err(|e| e.to_string())?;
    Ok(scorer.render(&scorer.score(&batch), false))
}

/// A positional-rows request body valid for `artifact`'s schema: one
/// all-zeros row plus one cold-start row (huge FK code).
fn rows_body(artifact: &hamlet_serve::ModelArtifact) -> String {
    let zeros: Vec<&str> = artifact.features.iter().map(|_| "0").collect();
    let cold: Vec<&str> = artifact
        .features
        .iter()
        .map(|f| if f.fk.is_some() { "999999" } else { "0" })
        .collect();
    format!("{{\"rows\":[[{}],[{}]]}}", zeros.join(","), cold.join(","))
}

/// One-shot HTTP client: sends raw bytes, reads the full response.
fn roundtrip(port: u16, raw: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| e.to_string())?;
    s.write_all(raw.as_bytes()).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
        }
    }
    Ok(String::from_utf8_lossy(&out).into_owned())
}

fn post(port: u16, path: &str, body: &str) -> Result<String, String> {
    roundtrip(
        port,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn get(port: u16, path: &str) -> Result<String, String> {
    roundtrip(
        port,
        &format!("GET {path} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n"),
    )
}

/// Runs the three-phase scenario in `dir` (created fresh, left on disk
/// for post-mortems) and returns the human-readable report; any violated
/// assertion is an `Err`.
pub fn report(dir: &Path) -> Result<String, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mpath = write_corpus(dir)?;
    let text = std::fs::read_to_string(&mpath).map_err(|e| e.to_string())?;
    let manifest = Manifest::parse(&text).map_err(|e| e.to_string())?;
    let config = AdvisorConfig::for_family(ModelFamily::NaiveBayes);
    let kind = ModelKind::from_name("nb").expect("nb is a model kind");
    let mut out = String::from("chaos-degrade scenario\n");

    // Phase 1 — parity with no fault armed: Require and AllowDegraded
    // must agree bit for bit.
    let strict = manifest
        .load_policy(dir, &policy(TablePolicy::Require))
        .map_err(|e| e.to_string())?;
    let tolerant = manifest
        .load_policy(dir, &policy(TablePolicy::AllowDegraded))
        .map_err(|e| e.to_string())?;
    ensure(
        tolerant.substitutions.is_empty(),
        "phase 1: a clean load must not substitute any table",
    )?;
    let strict_built = build_artifact_with_availability(&strict.star, kind, &config, "churn", &[])
        .map_err(|e| e.to_string())?;
    let tolerant_built =
        build_artifact_with_availability(&tolerant.star, kind, &config, "churn", &[])
            .map_err(|e| e.to_string())?;
    let body = rows_body(&strict_built.artifact);
    let strict_scorer = Scorer::new(strict_built.artifact);
    let tolerant_scorer = Scorer::new(tolerant_built.artifact);
    ensure(
        respond(&strict_scorer, &body)? == respond(&tolerant_scorer, &body)?,
        "phase 1: Require and AllowDegraded predictions must be bit-for-bit identical",
    )?;
    out.push_str("phase 1 (parity, no fault): Require == AllowDegraded bit-for-bit\n");

    // Phase 2 — degraded load: the strict load fails typed, the
    // tolerant load substitutes an FK-only surrogate with evidence.
    failpoint::set_failpoints("relational.table_open=io@1").map_err(|e| e.to_string())?;
    let strict_res = manifest.load_policy(dir, &policy(TablePolicy::Require));
    ensure(
        strict_res.is_err(),
        "phase 2: the strict load must fail under relational.table_open=io@1",
    )?;
    failpoint::set_failpoints("relational.table_open=io@1").map_err(|e| e.to_string())?;
    let degraded = manifest
        .load_policy(dir, &policy(TablePolicy::AllowDegraded))
        .map_err(|e| e.to_string())?;
    failpoint::clear_failpoints();
    ensure(
        degraded.substitutions.len() == 1,
        "phase 2: exactly one table must be substituted",
    )?;
    let evidence = degraded.substitutions[0].evidence();
    let degraded_built = build_artifact_with_availability(
        &degraded.star,
        kind,
        &config,
        "churn",
        &degraded.substitutions,
    )
    .map_err(|e| e.to_string())?;
    ensure(
        degraded_built.artifact.decisions.iter().any(|d| d.degraded),
        "phase 2: the substituted table's decision must be marked degraded",
    )?;
    out.push_str(&format!("phase 2 (degraded load): {evidence}\n"));

    // Phase 3 — serving fallback chain: a scoring panic mid-traffic
    // never surfaces as 5xx, the surrogate answer is marked, and the
    // no-fault path stays byte-identical.
    let handle = hamlet_serve::start(
        strict_scorer,
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            queue_capacity: 16,
            fallback: true,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let port = handle.port();
    let before = post(port, "/predict", &body)?;
    ensure(
        before.starts_with("HTTP/1.1 200"),
        "phase 3: the pre-fault predict must be 200",
    )?;
    ensure(
        !before.contains("X-Hamlet-Degraded"),
        "phase 3: the pre-fault predict must not be marked degraded",
    )?;
    failpoint::set_failpoints("serve.model_score=panic@3").map_err(|e| e.to_string())?;
    let mut degraded_responses = 0;
    for i in 0..6 {
        let resp = post(port, "/predict", &body)?;
        ensure(
            resp.starts_with("HTTP/1.1 2"),
            &format!("phase 3: request {i} under fault must be 2xx, got: {resp}"),
        )?;
        if resp.contains("X-Hamlet-Degraded: true") {
            ensure(
                resp.contains("\"degraded\":true"),
                "phase 3: the degraded header and JSON field must travel together",
            )?;
            degraded_responses += 1;
        }
    }
    failpoint::clear_failpoints();
    ensure(
        degraded_responses == 1,
        "phase 3: exactly the panicked request must answer from the surrogate",
    )?;
    let after = post(port, "/predict", &body)?;
    ensure(
        after == before,
        "phase 3: the post-fault response must be byte-identical to the pre-fault one",
    )?;
    let metrics = get(port, "/metrics")?;
    let degraded_total: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("hamlet_serve_degraded_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    ensure(
        degraded_total >= 1,
        "phase 3: hamlet_serve_degraded_total must be nonzero",
    )?;
    handle.stop();
    let stats = handle.run_until_stopped()?;
    ensure(
        stats.errors == 0,
        "phase 3: the drain must report zero 4xx/5xx responses",
    )?;
    out.push_str(&format!(
        "phase 3 (fallback chain): {} request(s), 0 errors, {} surrogate answer(s), \
         hamlet_serve_degraded_total {degraded_total}, clean drain\n",
        stats.requests, degraded_responses,
    ));
    out.push_str("chaos-degrade: all phases passed\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_degrade_scenario_passes() {
        // The scenario arms process-global failpoints.
        let _g = failpoint::serial();
        let dir = std::env::temp_dir().join("hamlet_chaos_degrade_test");
        let out = report(&dir).unwrap_or_else(|e| panic!("scenario failed: {e}"));
        assert!(out.contains("bit-for-bit"), "{out}");
        assert!(out.contains("FK-only"), "{out}");
        assert!(out.contains("clean drain"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
