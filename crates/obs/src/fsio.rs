//! Durable file writes: tmp file + fsync + rename + directory fsync.
//!
//! Result files and the run journal are evidence; a torn write (partial
//! line after a crash or full disk) silently corrupts later analysis.
//! Every write in the workspace that produces evidence goes through
//! [`atomic_write`] / [`atomic_append`]: readers observe either the old
//! content or the new content, never a prefix of the new one.
//!
//! Both helpers carry the `obs.atomic_write` failpoint (fired after the
//! tmp file is written, before the rename) so chaos tests can prove the
//! destination survives a mid-write failure intact.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Directory `path` lives in (`"."` for bare file names).
fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// A tmp-file sibling unique to this process and call (concurrent
/// writers to the same destination must not share a tmp file).
fn tmp_sibling(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    parent_dir(path).join(format!(".{name}.tmp.{}.{seq}", std::process::id()))
}

/// Runs `op` and, if it fails with an `EINTR`/`EAGAIN`-class error
/// (`Interrupted`/`WouldBlock` — a signal landing mid-syscall, not a
/// real write failure), retries exactly once. Anything else, including
/// injected failpoint errors, propagates immediately so chaos runs keep
/// observing their first fault.
fn retry_interrupted<T>(site: &str, op: impl Fn() -> std::io::Result<T>) -> std::io::Result<T> {
    use std::io::ErrorKind::{Interrupted, WouldBlock};
    match op() {
        Err(e) if matches!(e.kind(), Interrupted | WouldBlock) => {
            crate::counter_add!("hamlet_fsio_transient_retries_total", 1);
            crate::journal::record_warning(format!("{site}: transient {e}; retrying once"));
            op()
        }
        r => r,
    }
}

/// Replaces `path` with `bytes` atomically: the content is written to a
/// tmp sibling, fsynced, renamed over `path`, and the directory entry
/// is fsynced. Creates parent directories as needed. A transient
/// `EINTR`/`EAGAIN` gets one bounded retry of the whole tmp-write +
/// rename sequence. On any error the destination is untouched (the tmp
/// file is cleaned up best-effort).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = parent_dir(path);
    fs::create_dir_all(&dir)?;
    let tmp = tmp_sibling(path);
    let result = retry_interrupted("obs.atomic_write", || {
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        // The chaos site sits between tmp-write and rename: an injected
        // failure here models a crash mid-write, which must leave the
        // destination intact.
        hamlet_chaos::fail_at!("obs.atomic_write")?;
        fs::rename(&tmp, path)?;
        // fsync the directory so the rename itself survives power loss.
        #[cfg(unix)]
        fs::File::open(&dir)?.sync_all()?;
        Ok(())
    });
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Appends `text` to `path` with atomic-replace semantics: the existing
/// content (if any) plus the new text is written via [`atomic_write`].
/// O(file size) per call — meant for journals and small result files,
/// not bulk logs. A failure leaves the previous content intact.
pub fn atomic_append(path: &Path, text: &str) -> std::io::Result<()> {
    let mut content = match fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    content.push_str(text);
    atomic_write(path, content.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_chaos::failpoint;

    // Every test that reaches the `obs.atomic_write` site holds
    // `failpoint::serial()`: the failpoint table is process-global, so a
    // sibling test arming it would otherwise fail these writes.

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hamlet_obs_fsio_test");
        let _ = fs::create_dir_all(&dir);
        dir.join(name)
    }

    #[test]
    fn write_then_read_back() {
        let _g = failpoint::serial();
        let p = scratch("a.txt");
        atomic_write(&p, b"hello").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "hello");
        atomic_write(&p, b"replaced").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "replaced");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn creates_missing_directories() {
        let _g = failpoint::serial();
        let p = scratch("nested/deeper/b.txt");
        let _ = fs::remove_dir_all(scratch("nested"));
        atomic_write(&p, b"x").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "x");
        fs::remove_dir_all(scratch("nested")).ok();
    }

    #[test]
    fn append_accumulates_lines() {
        let _g = failpoint::serial();
        let p = scratch("c.jsonl");
        let _ = fs::remove_file(&p);
        atomic_append(&p, "one\n").unwrap();
        atomic_append(&p, "two\n").unwrap();
        assert_eq!(fs::read_to_string(&p).unwrap(), "one\ntwo\n");
        fs::remove_file(&p).ok();
    }

    #[test]
    fn interrupted_write_retries_once_then_propagates() {
        use std::cell::Cell;
        use std::io::{Error, ErrorKind};
        // One EINTR, then success: the retry absorbs it.
        let calls = Cell::new(0u32);
        let r = retry_interrupted("test.fsio", || {
            calls.set(calls.get() + 1);
            if calls.get() == 1 {
                Err(Error::new(ErrorKind::Interrupted, "EINTR"))
            } else {
                Ok(calls.get())
            }
        });
        assert_eq!(r.unwrap(), 2);
        // Persistent EINTR: exactly one retry, then the error surfaces.
        let calls = Cell::new(0u32);
        let r: std::io::Result<()> = retry_interrupted("test.fsio", || {
            calls.set(calls.get() + 1);
            Err(Error::new(ErrorKind::WouldBlock, "EAGAIN"))
        });
        assert!(r.is_err());
        assert_eq!(calls.get(), 2, "retry must be bounded to one");
        // Non-transient errors are never retried.
        let calls = Cell::new(0u32);
        let r: std::io::Result<()> = retry_interrupted("test.fsio", || {
            calls.set(calls.get() + 1);
            Err(Error::other("injected IO failure"))
        });
        assert!(r.is_err());
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn injected_failure_leaves_destination_intact() {
        let _g = failpoint::serial();
        let p = scratch("torn.jsonl");
        let _ = fs::remove_file(&p);
        atomic_append(&p, "{\"ok\":1}\n").unwrap();
        failpoint::set_failpoints("obs.atomic_write=io").unwrap();
        let err = atomic_append(&p, "{\"ok\":2}\n").unwrap_err();
        failpoint::clear_failpoints();
        assert!(err.to_string().contains("injected IO failure"), "{err}");
        // The old content survives whole; no tmp litter remains.
        assert_eq!(fs::read_to_string(&p).unwrap(), "{\"ok\":1}\n");
        let litter: Vec<_> = fs::read_dir(parent_dir(&p))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("torn.jsonl.tmp"))
            .collect();
        assert!(litter.is_empty(), "tmp files left behind: {litter:?}");
        fs::remove_file(&p).ok();
    }
}
