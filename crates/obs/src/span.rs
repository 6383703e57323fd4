//! Hierarchical timing spans with RAII guards.
//!
//! A span measures one region of code: creation starts the clock, drop
//! stops it and records a [`SpanRecord`] (name, formatted attributes,
//! start offset from the process epoch, duration, thread, nesting
//! depth). Records accumulate in a thread-local buffer that drains into
//! a global sink when full and when the thread exits, so spans opened
//! on scoped worker threads (e.g. the Monte-Carlo pool) surface in the
//! same tree as the driver's.
//!
//! Tracing is **off by default**: a disabled [`span!`](crate::span!)
//! costs one relaxed atomic load and never formats its attributes, so
//! instrumentation can stay on hot paths permanently.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Global tracing switch. Off by default.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Enables or disables span recording process-wide.
pub fn set_tracing(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// The process epoch all span start offsets are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (dotted convention: `crate.operation`).
    pub name: &'static str,
    /// Formatted `key=value` attributes, possibly empty.
    pub detail: String,
    /// Nanoseconds from the process epoch to span start.
    pub start_ns: u128,
    /// Span duration in nanoseconds.
    pub duration_ns: u128,
    /// An opaque per-thread id (dense from 0 in creation order).
    pub thread: usize,
    /// Nesting depth at creation (0 = top level on its thread).
    pub depth: usize,
}

/// Completed spans from finished threads plus drained local buffers.
fn sink() -> &'static Mutex<Vec<SpanRecord>> {
    static SINK: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn next_thread_id() -> usize {
    static NEXT: OnceLock<Mutex<usize>> = OnceLock::new();
    let mut n = NEXT
        .get_or_init(|| Mutex::new(0))
        .lock()
        .expect("thread id counter lock");
    let id = *n;
    *n += 1;
    id
}

/// Thread-local span state; drains into the global sink on thread exit.
struct LocalSpans {
    thread: usize,
    depth: usize,
    buffer: Vec<SpanRecord>,
}

impl LocalSpans {
    const DRAIN_AT: usize = 256;

    fn new() -> Self {
        Self {
            thread: next_thread_id(),
            depth: 0,
            buffer: Vec::new(),
        }
    }

    fn drain(&mut self) {
        if !self.buffer.is_empty() {
            sink()
                .lock()
                .expect("span sink lock")
                .append(&mut self.buffer);
        }
    }
}

impl Drop for LocalSpans {
    fn drop(&mut self) {
        self.drain();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalSpans> = RefCell::new(LocalSpans::new());
}

/// RAII guard created by [`span!`](crate::span!); records on drop.
///
/// When tracing is disabled the guard is inert (no clock read, no
/// attribute formatting, nothing recorded).
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    /// `None` when tracing was disabled at creation.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    detail: String,
    start: Instant,
    start_ns: u128,
    depth: usize,
}

impl SpanGuard {
    /// Opens a span; `detail` is only invoked when tracing is enabled.
    pub fn enter_with(name: &'static str, detail: impl FnOnce() -> String) -> Self {
        if !tracing_enabled() {
            return Self { live: None };
        }
        let depth = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let d = l.depth;
            l.depth += 1;
            d
        });
        let start = Instant::now();
        Self {
            live: Some(LiveSpan {
                name,
                detail: detail(),
                start,
                start_ns: start.duration_since(epoch()).as_nanos(),
                depth,
            }),
        }
    }

    /// Opens a span with no attributes.
    pub fn enter(name: &'static str) -> Self {
        Self::enter_with(name, String::new)
    }

    /// Appends the attribute `key=value`, for a value known only after
    /// the span opened. Formats nothing when tracing is disabled.
    pub fn record(&mut self, key: &str, value: impl std::fmt::Display) {
        use std::fmt::Write as _;
        if let Some(live) = &mut self.live {
            if !live.detail.is_empty() {
                live.detail.push(' ');
            }
            let _ = write!(live.detail, "{key}={value}");
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let duration_ns = live.start.elapsed().as_nanos();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.depth = l.depth.saturating_sub(1);
            let thread = l.thread;
            l.buffer.push(SpanRecord {
                name: live.name,
                detail: live.detail,
                start_ns: live.start_ns,
                duration_ns,
                thread,
                depth: live.depth,
            });
            if l.buffer.len() >= LocalSpans::DRAIN_AT {
                l.drain();
            }
        });
    }
}

/// Opens a hierarchical timing span; the guard records on drop.
///
/// ```
/// let _g = hamlet_obs::span!("relational.kfk_join", table = "R", rows = 100);
/// ```
///
/// Attribute values are formatted with `Display` and only when tracing
/// is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span::SpanGuard::enter_with($name, || {
            let mut s = String::new();
            $(
                {
                    use std::fmt::Write as _;
                    if !s.is_empty() { s.push(' '); }
                    let _ = write!(s, concat!(stringify!($key), "={}"), $value);
                }
            )+
            s
        })
    };
}

/// Drains the calling thread's buffer and takes every completed span
/// recorded so far, leaving the sink empty.
pub fn drain_spans() -> Vec<SpanRecord> {
    LOCAL.with(|l| l.borrow_mut().drain());
    std::mem::take(&mut *sink().lock().expect("span sink lock"))
}

/// Aggregated wall-clock per span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRollup {
    /// Span name.
    pub name: &'static str,
    /// Number of completed spans with this name.
    pub count: usize,
    /// Total wall-clock across them, nanoseconds.
    pub total_ns: u128,
    /// The single longest span, nanoseconds.
    pub max_ns: u128,
}

/// Rolls spans up by name, longest total first.
pub fn rollup(records: &[SpanRecord]) -> Vec<SpanRollup> {
    let mut by_name: Vec<SpanRollup> = Vec::new();
    for r in records {
        match by_name.iter_mut().find(|e| e.name == r.name) {
            Some(e) => {
                e.count += 1;
                e.total_ns += r.duration_ns;
                e.max_ns = e.max_ns.max(r.duration_ns);
            }
            None => by_name.push(SpanRollup {
                name: r.name,
                count: 1,
                total_ns: r.duration_ns,
                max_ns: r.duration_ns,
            }),
        }
    }
    by_name.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
    by_name
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders records as an indented per-thread tree (children are nested
/// under the span that was open when they started) followed by the
/// rollup table.
pub fn render_span_tree(records: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("span tree (wall-clock, per thread)\n");
    let mut threads: Vec<usize> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        let mut rs: Vec<&SpanRecord> = records.iter().filter(|r| r.thread == t).collect();
        rs.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.depth.cmp(&a.depth)));
        let _ = writeln!(out, "thread {t}:");
        for r in rs {
            let _ = writeln!(
                out,
                "  {:indent$}{} {}{}{}",
                "",
                fmt_ns(r.duration_ns),
                r.name,
                if r.detail.is_empty() { "" } else { " " },
                r.detail,
                indent = r.depth * 2,
            );
        }
    }
    out.push_str("\nspan rollup (total, count, max)\n");
    for e in rollup(records) {
        let _ = writeln!(
            out,
            "  {:>10}  x{:<6} max {:>10}  {}",
            fmt_ns(e.total_ns),
            e.count,
            fmt_ns(e.max_ns),
            e.name
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the global switch and sink, so they run as one
    // test to avoid cross-test interference.
    #[test]
    fn spans_record_hierarchy_and_disable_cleanly() {
        // Disabled: nothing recorded.
        set_tracing(false);
        {
            let mut g = crate::span!("off.noop", x = 1);
            g.record("y", 2);
        }
        assert!(drain_spans().is_empty());

        set_tracing(true);
        {
            let _outer = crate::span!("test.outer", table = "R");
            {
                let _inner = crate::span!("test.inner");
            }
            {
                let mut inner = crate::span!("test.inner");
                inner.record("bytes", 5);
            }
        }
        let t = std::thread::spawn(|| {
            let _g = crate::span!("test.worker", idx = 7);
        });
        t.join().unwrap();
        set_tracing(false);

        let records = drain_spans();
        assert_eq!(records.len(), 4, "{records:?}");
        let outer = records.iter().find(|r| r.name == "test.outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.detail, "table=R");
        let inners: Vec<_> = records.iter().filter(|r| r.name == "test.inner").collect();
        assert_eq!(inners.len(), 2);
        assert!(inners.iter().all(|r| r.depth == 1));
        assert!(inners.iter().all(|r| r.thread == outer.thread));
        assert_eq!(inners[0].detail, "");
        assert_eq!(inners[1].detail, "bytes=5");
        let worker = records.iter().find(|r| r.name == "test.worker").unwrap();
        assert_ne!(worker.thread, outer.thread);
        assert_eq!(worker.detail, "idx=7");
        // Parent wall-clock covers the children.
        assert!(outer.duration_ns >= inners.iter().map(|r| r.duration_ns).sum());

        let rolled = rollup(&records);
        let inner_roll = rolled.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(inner_roll.count, 2);
        assert!(inner_roll.max_ns <= inner_roll.total_ns);

        let tree = render_span_tree(&records);
        assert!(tree.contains("test.outer table=R"), "{tree}");
        assert!(tree.contains("    ")); // nesting indent
        assert!(tree.contains("span rollup"));

        // Sink is empty after draining.
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.20s");
    }
}
