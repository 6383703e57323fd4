//! The JSONL run journal.
//!
//! One [`RunJournal`] per experiment or CLI invocation, appended as a
//! single JSON line to `results/journal/runs.jsonl` (override the
//! directory with `HAMLET_JOURNAL_DIR`). Each entry records what future
//! perf comparisons need to trust a number: the exact command, every
//! `HAMLET_*` knob in the environment, a git-describe-style version,
//! per-phase span rollups, the final metric values, and any
//! configuration warnings raised during the run.
//!
//! Schema (one object per line):
//!
//! ```json
//! {"schema":1,"timestamp_unix_s":...,"command":"train ...",
//!  "version":"0.1.0+g<short-hash>","config":{"HAMLET_SCALE":"0.05"},
//!  "outcome":"ok","warnings":[],
//!  "spans":[{"name":"...","count":1,"total_ns":1,"max_ns":1}],
//!  "metrics":[{"name":"...","kind":"counter","value":1,"count":0}]}
//! ```

use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{obj, Json};
use crate::metrics::MetricSnapshot;
use crate::span::SpanRollup;

/// Journal schema version; bump on breaking shape changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Environment variable overriding the journal directory.
pub const JOURNAL_DIR_VAR: &str = "HAMLET_JOURNAL_DIR";

/// Default journal directory, relative to the working directory.
pub const DEFAULT_JOURNAL_DIR: &str = "results/journal";

fn warnings_buffer() -> &'static Mutex<Vec<String>> {
    static WARNINGS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    WARNINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Emits a loud configuration warning: printed to stderr immediately
/// and recorded for the next [`RunJournal::capture`].
pub fn record_warning(message: impl Into<String>) {
    let message = message.into();
    eprintln!("warning: {message}");
    warnings_buffer()
        .lock()
        .expect("warnings lock")
        .push(message);
}

/// Drains the recorded warnings.
pub fn take_warnings() -> Vec<String> {
    std::mem::take(&mut *warnings_buffer().lock().expect("warnings lock"))
}

fn model_family_cell() -> &'static Mutex<Option<String>> {
    static FAMILY: OnceLock<Mutex<Option<String>>> = OnceLock::new();
    FAMILY.get_or_init(|| Mutex::new(None))
}

/// Records the classifier family the current run trains or serves
/// (`naive_bayes`, `tree`, `gbt`, ...). The next [`RunJournal::capture`]
/// drains it into the entry's `model_family` field; the last setter
/// before capture wins.
pub fn set_model_family(family: impl Into<String>) {
    *model_family_cell().lock().expect("model family lock") = Some(family.into());
}

/// Drains the recorded model family.
pub fn take_model_family() -> Option<String> {
    model_family_cell()
        .lock()
        .expect("model family lock")
        .take()
}

/// Git-describe-style version: crate version plus the short commit hash
/// read from `.git` (searched upward from the working directory), e.g.
/// `0.1.0+gf8ab7d1`. Falls back to the bare version outside a checkout.
pub fn version() -> String {
    let base = env!("CARGO_PKG_VERSION");
    match git_short_hash() {
        Some(hash) => format!("{base}+g{hash}"),
        None => base.to_string(),
    }
}

/// Resolves HEAD to a short hash by reading `.git` directly (the
/// environment may have no `git` binary on PATH; this stays
/// dependency- and subprocess-free).
fn git_short_hash() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let full = if let Some(refname) = head.strip_prefix("ref: ") {
                match std::fs::read_to_string(git.join(refname.trim())) {
                    Ok(h) => h.trim().to_string(),
                    // Packed refs: scan .git/packed-refs for the ref.
                    Err(_) => {
                        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                        packed
                            .lines()
                            .find(|l| l.ends_with(refname.trim()))?
                            .split_whitespace()
                            .next()?
                            .to_string()
                    }
                }
            } else {
                head.to_string() // detached HEAD
            };
            if full.len() < 7 || !full.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            return Some(full[..7].to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every `HAMLET_*` variable currently set, sorted by name (the
/// config snapshot a future reader needs to reproduce the run).
pub fn capture_env_config() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            if !k.starts_with("HAMLET_") {
                return None;
            }
            Some((k, v.to_string_lossy().into_owned()))
        })
        .collect();
    out.sort();
    out
}

/// One run's journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RunJournal {
    /// The command or experiment that ran (e.g. `train --dataset yelp`).
    pub command: String,
    /// Unix timestamp (seconds) at capture.
    pub timestamp_unix_s: u64,
    /// Git-describe-style version.
    pub version: String,
    /// Configuration: `HAMLET_*` env plus caller-supplied pairs.
    pub config: Vec<(String, String)>,
    /// `"ok"` or an error description.
    pub outcome: String,
    /// Classifier family the run trained or served, when one applies
    /// (set via [`set_model_family`]).
    pub model_family: Option<String>,
    /// Configuration warnings raised during the run.
    pub warnings: Vec<String>,
    /// Per-span-name wall-clock rollups.
    pub spans: Vec<SpanRollup>,
    /// Final metric values.
    pub metrics: Vec<MetricSnapshot>,
}

impl RunJournal {
    /// Captures a journal entry for `command`: env config, version,
    /// pending warnings, the given span rollups, and a metrics
    /// snapshot taken now.
    pub fn capture(
        command: impl Into<String>,
        outcome: impl Into<String>,
        spans: Vec<SpanRollup>,
    ) -> Self {
        Self {
            command: command.into(),
            timestamp_unix_s: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            version: version(),
            config: capture_env_config(),
            outcome: outcome.into(),
            model_family: take_model_family(),
            warnings: take_warnings(),
            spans,
            metrics: crate::metrics::snapshot(),
        }
    }

    /// Adds one config pair (CLI flags and similar non-env knobs).
    pub fn with_config(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.config.push((key.into(), value.into()));
        self
    }

    /// The entry as a single JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        obj(vec![
            ("schema", Json::Num(SCHEMA_VERSION as f64)),
            ("timestamp_unix_s", Json::Num(self.timestamp_unix_s as f64)),
            ("command", Json::Str(self.command.clone())),
            ("version", Json::Str(self.version.clone())),
            (
                "config",
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("outcome", Json::Str(self.outcome.clone())),
            (
                "model_family",
                match &self.model_family {
                    Some(f) => Json::Str(f.clone()),
                    None => Json::Null,
                },
            ),
            (
                "warnings",
                Json::Arr(self.warnings.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("name", Json::Str(s.name.to_string())),
                                ("count", Json::Num(s.count as f64)),
                                ("total_ns", Json::Num(s.total_ns as f64)),
                                ("max_ns", Json::Num(s.max_ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            obj(vec![
                                ("name", Json::Str(m.name.to_string())),
                                ("kind", Json::Str(m.kind.to_string())),
                                ("value", Json::Num(m.value as f64)),
                                ("count", Json::Num(m.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// The journal directory: `HAMLET_JOURNAL_DIR` or the default.
    pub fn dir() -> PathBuf {
        std::env::var_os(JOURNAL_DIR_VAR)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_JOURNAL_DIR))
    }

    /// Appends this entry as one line to `dir/runs.jsonl`, creating the
    /// directory if needed. Returns the file path written. The append is
    /// atomic ([`crate::fsio::atomic_append`]): a crash or injected IO
    /// failure mid-write never leaves a torn line behind.
    pub fn append_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join("runs.jsonl");
        crate::fsio::atomic_append(&path, &format!("{}\n", self.to_json()))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_json_round_trips_through_the_parser() {
        let entry = RunJournal {
            command: "train --dataset yelp".into(),
            timestamp_unix_s: 1_722_000_000,
            version: "0.1.0+gabcdef0".into(),
            config: vec![("HAMLET_SCALE".into(), "0.05".into())],
            outcome: "ok".into(),
            model_family: Some("naive_bayes".into()),
            warnings: vec!["invalid HAMLET_THREADS='x'".into()],
            spans: vec![SpanRollup {
                name: "cli.train",
                count: 1,
                total_ns: 123_456_789,
                max_ns: 123_456_789,
            }],
            metrics: vec![MetricSnapshot {
                name: "hamlet_rows_joined_total",
                kind: "counter",
                value: 42,
                count: 0,
            }],
        };
        let line = entry.to_json();
        assert!(!line.contains('\n'), "one line per entry");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            parsed.get("command").and_then(Json::as_str),
            Some("train --dataset yelp")
        );
        assert_eq!(
            parsed
                .get("config")
                .and_then(|c| c.get("HAMLET_SCALE"))
                .and_then(Json::as_str),
            Some("0.05")
        );
        let spans = parsed.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(
            spans[0].get("total_ns").and_then(Json::as_f64),
            Some(123_456_789.0)
        );
        let metrics = parsed.get("metrics").and_then(Json::as_arr).unwrap();
        assert_eq!(
            metrics[0].get("name").and_then(Json::as_str),
            Some("hamlet_rows_joined_total")
        );
        assert_eq!(metrics[0].get("value").and_then(Json::as_f64), Some(42.0));
        assert_eq!(
            parsed
                .get("warnings")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            parsed.get("model_family").and_then(Json::as_str),
            Some("naive_bayes")
        );
    }

    #[test]
    fn model_family_is_recorded_and_drained() {
        set_model_family("gbt");
        let entry = RunJournal::capture("fam", "ok", Vec::new());
        assert_eq!(entry.model_family.as_deref(), Some("gbt"));
        assert!(Json::parse(&entry.to_json())
            .unwrap()
            .get("model_family")
            .and_then(Json::as_str)
            .is_some());
        // Drained: a family-less run journals null.
        let entry = RunJournal::capture("fam", "ok", Vec::new());
        assert_eq!(entry.model_family, None);
        let parsed = Json::parse(&entry.to_json()).unwrap();
        assert_eq!(parsed.get("model_family"), Some(&Json::Null));
    }

    #[test]
    fn append_creates_dir_and_appends_lines() {
        // `append_to` reaches the `obs.atomic_write` failpoint site.
        let _g = hamlet_chaos::failpoint::serial();
        let dir = std::env::temp_dir().join("hamlet_obs_journal_test");
        let _ = std::fs::remove_dir_all(&dir);
        let entry = RunJournal::capture("test-cmd", "ok", Vec::new());
        let path = entry.append_to(&dir).unwrap();
        entry.append_to(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("command").and_then(Json::as_str), Some("test-cmd"));
            assert_eq!(v.get("outcome").and_then(Json::as_str), Some("ok"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warnings_are_recorded_and_drained() {
        record_warning("test warning one");
        let entry = RunJournal::capture("w", "ok", Vec::new());
        assert!(entry.warnings.iter().any(|w| w == "test warning one"));
        // Drained: a second capture starts clean.
        let entry = RunJournal::capture("w", "ok", Vec::new());
        assert!(!entry.warnings.iter().any(|w| w == "test warning one"));
    }

    #[test]
    fn version_is_describe_shaped() {
        let v = version();
        assert!(v.starts_with(env!("CARGO_PKG_VERSION")), "{v}");
        // In a git checkout the short hash is appended.
        if let Some((_, hash)) = v.split_once("+g") {
            assert_eq!(hash.len(), 7);
            assert!(hash.bytes().all(|b| b.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn env_config_captures_hamlet_vars() {
        std::env::set_var("HAMLET_OBS_JOURNAL_PROBE", "on");
        let cfg = capture_env_config();
        assert!(cfg
            .iter()
            .any(|(k, v)| k == "HAMLET_OBS_JOURNAL_PROBE" && v == "on"));
        std::env::remove_var("HAMLET_OBS_JOURNAL_PROBE");
    }
}
