//! Strict environment-variable parsing.
//!
//! The experiment knobs (`HAMLET_SCALE`, `HAMLET_TRAIN_SETS`, …) used
//! to fall back to defaults on *any* invalid value, which silently
//! turned `HAMLET_SCALE=1.5` into a 0.1-scale run. These helpers make
//! the failure loud and typed: an unset variable is `Ok(None)`, a set
//! but unparsable (or non-UTF-8, or out-of-range) variable is a
//! [`EnvError`] naming the variable, the offending value, and what
//! would have been accepted.

use std::fmt;

/// An invalid environment-variable value (never raised for unset vars).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable name.
    pub key: String,
    /// The offending value (lossy for non-UTF-8).
    pub value: String,
    /// What a valid value looks like.
    pub expected: String,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}='{}': expected {}",
            self.key, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvError {}

/// Reads and parses `key`, accepting only values where `accept` holds.
///
/// * unset -> `Ok(None)`
/// * parses and `accept` -> `Ok(Some(v))`
/// * anything else (non-UTF-8, unparsable, rejected) -> `Err`
pub fn var_where<T: std::str::FromStr>(
    key: &str,
    expected: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<Option<T>, EnvError> {
    match std::env::var(key) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => Err(EnvError {
            key: key.to_string(),
            value: raw.to_string_lossy().into_owned(),
            expected: expected.to_string(),
        }),
        Ok(s) => parse_where(key, expected, &s, accept).map(Some),
    }
}

/// The parsing half of [`var_where`], over a value already read:
/// `value` (trimmed) parsed as `T` where `accept` holds, or an
/// [`EnvError`] naming `key`. Pure, so knobs can be unit-tested without
/// mutating the process environment.
pub fn parse_where<T: std::str::FromStr>(
    key: &str,
    expected: &str,
    value: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, EnvError> {
    match value.trim().parse::<T>() {
        Ok(v) if accept(&v) => Ok(v),
        _ => Err(EnvError {
            key: key.to_string(),
            value: value.to_string(),
            expected: expected.to_string(),
        }),
    }
}

/// [`var_where`] with no range restriction.
pub fn var<T: std::str::FromStr>(key: &str, expected: &str) -> Result<Option<T>, EnvError> {
    var_where(key, expected, |_| true)
}

/// Worker count for every parallel region in the process, resolved from
/// `HAMLET_THREADS` exactly once.
///
/// `HAMLET_THREADS` is the one deliberately non-strict knob: a thread
/// count cannot change a result (parallel sweeps reduce in index order),
/// so an invalid value is reported loudly (stderr + run journal) and the
/// default — `available_parallelism` — is used instead of aborting a
/// long experiment. Resolving once per process means a mid-run env
/// mutation cannot make two parallel regions of one experiment disagree;
/// the resolved value is journaled via the `hamlet_threads_resolved`
/// gauge, which every run-journal metric snapshot includes.
pub fn resolved_threads() -> usize {
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *RESOLVED.get_or_init(|| {
        let threads = var_where("HAMLET_THREADS", "a positive integer", |&t: &usize| t > 0)
            .unwrap_or_else(|e| {
                crate::journal::record_warning(format!("{e}; using available parallelism"));
                None
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        crate::gauge_set!("hamlet_threads_resolved", threads);
        threads
    })
}

/// Default rows per morsel for chunked columnar scans and streaming
/// ingest: 64K `u32` codes = 256 KiB per chunk, small enough that a
/// (codes, labels) chunk pair stays cache-friendly and large enough to
/// amortize per-morsel bookkeeping.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Rows per morsel for every chunked scan in the process, resolved from
/// `HAMLET_MORSEL_ROWS` exactly once.
///
/// Like `HAMLET_THREADS`, this is a deliberately non-strict knob: the
/// morsel size cannot change any result (chunked aggregates merge
/// per-morsel integer tables in fixed order, so they are bit-for-bit
/// identical at any chunk size — `tests/proptests_dataplane.rs` pins
/// this), so an invalid value is reported loudly and the default is
/// used instead of aborting. The resolved value is journaled via the
/// `hamlet_morsel_rows_resolved` gauge.
pub fn resolved_morsel_rows() -> usize {
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *RESOLVED.get_or_init(|| {
        let rows = var_where("HAMLET_MORSEL_ROWS", "a positive integer", |&r: &usize| {
            r > 0
        })
        .unwrap_or_else(|e| {
            crate::journal::record_warning(format!("{e}; using the default morsel size"));
            None
        })
        .unwrap_or(DEFAULT_MORSEL_ROWS);
        crate::gauge_set!("hamlet_morsel_rows_resolved", rows);
        rows
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test mutates its own distinct variable, so parallel test
    // threads cannot race on a key.
    #[test]
    fn unset_is_none() {
        assert_eq!(var::<f64>("HAMLET_OBS_TEST_UNSET", "a float"), Ok(None));
    }

    #[test]
    fn valid_value_parses() {
        std::env::set_var("HAMLET_OBS_TEST_OK", " 0.25 ");
        assert_eq!(
            var_where("HAMLET_OBS_TEST_OK", "a float in (0, 1]", |&v: &f64| v
                > 0.0
                && v <= 1.0),
            Ok(Some(0.25))
        );
    }

    #[test]
    fn unparsable_value_is_a_typed_error() {
        std::env::set_var("HAMLET_OBS_TEST_BAD", "abc");
        let e = var::<usize>("HAMLET_OBS_TEST_BAD", "a positive integer").unwrap_err();
        assert_eq!(e.key, "HAMLET_OBS_TEST_BAD");
        assert_eq!(e.value, "abc");
        let msg = e.to_string();
        assert!(msg.contains("HAMLET_OBS_TEST_BAD"), "{msg}");
        assert!(msg.contains("positive integer"), "{msg}");
    }

    #[test]
    fn out_of_range_value_is_rejected() {
        std::env::set_var("HAMLET_OBS_TEST_RANGE", "1.5");
        let e = var_where("HAMLET_OBS_TEST_RANGE", "a float in (0, 1]", |&v: &f64| {
            v > 0.0 && v <= 1.0
        })
        .unwrap_err();
        assert_eq!(e.value, "1.5");
    }

    #[test]
    fn morsel_rows_resolve_once_with_a_sane_default() {
        // The var is unset in the test environment, so the default wins;
        // the OnceLock means later env mutations cannot change it.
        let first = resolved_morsel_rows();
        assert_eq!(first, DEFAULT_MORSEL_ROWS);
        std::env::set_var("HAMLET_MORSEL_ROWS", "17");
        assert_eq!(resolved_morsel_rows(), first);
        std::env::remove_var("HAMLET_MORSEL_ROWS");
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_value_is_rejected_not_defaulted() {
        use std::os::unix::ffi::OsStrExt;
        let raw = std::ffi::OsStr::from_bytes(&[0x66, 0x6f, 0x80]);
        std::env::set_var("HAMLET_OBS_TEST_UTF8", raw);
        let e = var::<f64>("HAMLET_OBS_TEST_UTF8", "a float").unwrap_err();
        assert!(e.value.contains("fo"), "{e:?}");
    }
}
