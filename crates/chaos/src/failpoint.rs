//! Named failpoints, armed through `HAMLET_FAILPOINTS`.
//!
//! A failpoint is a call to [`fail_at!`](crate::fail_at) at a site where production
//! code performs IO or long-running work:
//!
//! ```rust,ignore
//! hamlet_chaos::fail_at!("obs.atomic_write")?;
//! std::fs::write(&tmp, bytes)?;
//! ```
//!
//! Sites are inert until armed. The spec grammar (env variable or
//! [`set_failpoints`]) is `site=mode[@N]`, `;`-separated:
//!
//! * `mode` is `io` (the site returns an injected
//!   [`std::io::Error`]), `panic` (the site panics, unwinding through
//!   whatever experiment was running), or `exit` (hard process exit
//!   with code [`EXIT_CODE`], simulating a mid-run crash/OOM-kill);
//! * `@N` arms the site on its Nth hit only (1-based); without it the
//!   site fires on every hit.
//!
//! Hit counts are per-site and process-wide, so `runner.cell=exit@5`
//! kills the fifth Monte-Carlo cell regardless of thread scheduling.
//! An invalid spec is a configuration error: the process exits with an
//! actionable message rather than silently running without faults (the
//! same strict-env contract as `hamlet-obs::env`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// Environment variable holding the failpoint spec.
pub const FAILPOINTS_VAR: &str = "HAMLET_FAILPOINTS";

/// Process exit code used by `exit`-mode failpoints (distinct from the
/// CLI's usage-error 2, so harnesses can tell a simulated crash apart).
pub const EXIT_CODE: i32 = 42;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Return an injected [`std::io::Error`] from the site.
    Io,
    /// Panic (unwind) at the site.
    Panic,
    /// Exit the process with [`EXIT_CODE`] — a simulated crash.
    Exit,
}

/// A malformed failpoint spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointError {
    /// The offending spec fragment.
    pub fragment: String,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for FailpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {FAILPOINTS_VAR} fragment '{}': {} \
             (expected site=io|panic|exit[@N], ';'-separated)",
            self.fragment, self.reason
        )
    }
}

impl std::error::Error for FailpointError {}

#[derive(Debug)]
struct Site {
    mode: FailMode,
    /// Fire on this 1-based hit only; `None` fires on every hit.
    at: Option<u64>,
    hits: u64,
}

/// Fast path: a single relaxed load when no failpoint was ever armed.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Whether the env spec was consumed (it is read at most once).
static ENV_LOADED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn parse_spec(spec: &str) -> Result<HashMap<String, Site>, FailpointError> {
    let mut out = HashMap::new();
    for fragment in spec.split(';') {
        let fragment = fragment.trim();
        if fragment.is_empty() {
            continue;
        }
        let err = |reason: &str| FailpointError {
            fragment: fragment.to_string(),
            reason: reason.to_string(),
        };
        let (site, rhs) = fragment.split_once('=').ok_or_else(|| err("missing '='"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(err("empty site name"));
        }
        let (mode_str, at) = match rhs.split_once('@') {
            None => (rhs.trim(), None),
            Some((m, n)) => {
                let n: u64 = n
                    .trim()
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| err("hit count after '@' must be a positive integer"))?;
                (m.trim(), Some(n))
            }
        };
        let mode = match mode_str {
            "io" => FailMode::Io,
            "panic" => FailMode::Panic,
            "exit" => FailMode::Exit,
            _ => return Err(err("mode must be 'io', 'panic', or 'exit'")),
        };
        if out
            .insert(site.to_string(), Site { mode, at, hits: 0 })
            .is_some()
        {
            return Err(err("site configured more than once"));
        }
    }
    Ok(out)
}

/// Arms failpoints from a spec string (tests and tools; the env path
/// goes through the same parser). Replaces any previous configuration
/// and resets all hit counters.
pub fn set_failpoints(spec: &str) -> Result<(), FailpointError> {
    let parsed = parse_spec(spec)?;
    // Once a test configures failpoints explicitly, the env spec (if
    // any) must not be re-applied on top later.
    ENV_LOADED.store(true, Ordering::SeqCst);
    let armed = !parsed.is_empty();
    *registry().lock().expect("failpoint registry lock") = parsed;
    ARMED.store(armed, Ordering::SeqCst);
    Ok(())
}

/// Disarms every failpoint and resets hit counters.
pub fn clear_failpoints() {
    ENV_LOADED.store(true, Ordering::SeqCst);
    registry().lock().expect("failpoint registry lock").clear();
    ARMED.store(false, Ordering::SeqCst);
}

/// Loads `HAMLET_FAILPOINTS` exactly once. An invalid spec exits the
/// process with an actionable message (code 2): chaos runs must never
/// silently proceed fault-free.
fn load_env_once() {
    if ENV_LOADED.swap(true, Ordering::SeqCst) {
        return;
    }
    let Some(spec) = std::env::var_os(FAILPOINTS_VAR) else {
        return;
    };
    let spec = spec.to_string_lossy();
    match parse_spec(&spec) {
        Ok(parsed) => {
            let armed = !parsed.is_empty();
            *registry().lock().expect("failpoint registry lock") = parsed;
            ARMED.store(armed, Ordering::SeqCst);
        }
        Err(e) => {
            eprintln!("error: {e} (unset the variable to run without fault injection)");
            std::process::exit(2);
        }
    }
}

/// One failpoint hit. Returns `Ok(())` when the site is unarmed or not
/// yet at its configured hit count; otherwise injects the configured
/// failure. Call through [`fail_at!`](crate::fail_at) so the site name appears at the
/// call site.
pub fn hit(site: &str) -> std::io::Result<()> {
    load_env_once();
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let mode = {
        let mut reg = registry().lock().expect("failpoint registry lock");
        match reg.get_mut(site) {
            None => return Ok(()),
            Some(s) => {
                s.hits += 1;
                match s.at {
                    Some(n) if s.hits != n => return Ok(()),
                    _ => s.mode,
                }
            }
        }
    };
    match mode {
        FailMode::Io => Err(std::io::Error::other(format!(
            "injected IO failure at failpoint '{site}'"
        ))),
        FailMode::Panic => panic!("injected crash at failpoint '{site}'"),
        FailMode::Exit => {
            eprintln!("injected process exit at failpoint '{site}'");
            std::process::exit(EXIT_CODE);
        }
    }
}

/// Number of times `site` has been hit since it was last (re)armed.
/// Zero for unknown sites; diagnostic only.
pub fn hit_count(site: &str) -> u64 {
    registry()
        .lock()
        .expect("failpoint registry lock")
        .get(site)
        .map(|s| s.hits)
        .unwrap_or(0)
}

/// Test support: failpoint state is process-global, so a test that
/// arms failpoints must exclude every other test whose code passes a
/// failpoint site. The arming test holds [`serial`] across
/// `set_failpoints`..`clear_failpoints`; a test that only passes sites
/// (a server it starts accepts and writes, an artifact it loads) holds
/// [`shared`], so such tests still run in parallel with each other but
/// never while a failpoint is armed. Poisoning is ignored — a panicking
/// failpoint test is expected to unwind while holding the guard.
static LOCK: RwLock<()> = RwLock::new(());

/// The exclusive guard a test holds while it arms failpoints.
pub fn serial() -> std::sync::RwLockWriteGuard<'static, ()> {
    LOCK.write().unwrap_or_else(|p| p.into_inner())
}

/// The shared guard a test holds while its code passes failpoint sites
/// it does not arm.
pub fn shared() -> std::sync::RwLockReadGuard<'static, ()> {
    LOCK.read().unwrap_or_else(|p| p.into_inner())
}

/// Marks a failpoint site. Expands to an expression of type
/// `std::io::Result<()>`; the caller decides how the injected error
/// propagates (usually `?`).
#[macro_export]
macro_rules! fail_at {
    ($site:expr) => {
        $crate::failpoint::hit($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_site_is_ok() {
        let _g = serial();
        clear_failpoints();
        assert!(hit("nowhere").is_ok());
    }

    #[test]
    fn io_mode_fires_every_hit() {
        let _g = serial();
        set_failpoints("a.b=io").unwrap();
        assert!(hit("a.b").is_err());
        assert!(hit("a.b").is_err());
        assert!(hit("other").is_ok());
        clear_failpoints();
        assert!(hit("a.b").is_ok());
    }

    #[test]
    fn hit_count_gates_firing() {
        let _g = serial();
        set_failpoints("x=io@3").unwrap();
        assert!(hit("x").is_ok());
        assert!(hit("x").is_ok());
        let e = hit("x").unwrap_err();
        assert!(e.to_string().contains("failpoint 'x'"), "{e}");
        // One-shot: after the Nth hit it stays quiet.
        assert!(hit("x").is_ok());
        assert_eq!(hit_count("x"), 4);
        clear_failpoints();
    }

    #[test]
    fn panic_mode_unwinds() {
        let _g = serial();
        set_failpoints("boom=panic@1").unwrap();
        let r = std::panic::catch_unwind(|| hit("boom"));
        clear_failpoints();
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("injected crash at failpoint 'boom'"), "{msg}");
    }

    #[test]
    fn spec_parse_errors_are_actionable() {
        let cases = [
            ("a.b", "missing '='"),
            ("=io", "empty site"),
            ("a=teleport", "mode must be"),
            ("a=io@0", "positive integer"),
            ("a=io@x", "positive integer"),
            ("a=io;a=panic", "more than once"),
        ];
        for (spec, needle) in cases {
            let e = parse_spec(spec).unwrap_err();
            assert!(e.to_string().contains(needle), "{spec}: {e}");
        }
        // Empty fragments (leading/trailing ';') are fine.
        assert!(parse_spec(";a=io;;b=exit@2;").is_ok());
        assert!(parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn rearming_resets_counters() {
        let _g = serial();
        set_failpoints("y=io@2").unwrap();
        assert!(hit("y").is_ok());
        set_failpoints("y=io@2").unwrap();
        assert!(hit("y").is_ok(), "counter was reset");
        assert!(hit("y").is_err());
        clear_failpoints();
    }
}
