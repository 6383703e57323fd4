//! The inference server: a bounded worker pool over `std::net` with
//! HTTP/1.1 keep-alive + pipelining, request micro-batching, a
//! multi-model registry with atomic hot-swap, backpressure, graceful
//! drain, and full observability.
//!
//! Design points:
//!
//! * **Bounded everything.** `threads` workers pull connections from a
//!   queue of at most `queue_capacity`; when the queue is full the
//!   accept loop answers `503 Service Unavailable` immediately instead
//!   of letting latency grow without bound (load-shedding
//!   backpressure).
//! * **Connection lifecycle.** A worker owns a connection for its whole
//!   life and answers requests off a per-connection
//!   [`crate::conn::ConnReader`]: keep-alive by default,
//!   pipelining-safe framing, `Connection: close` honored, an optional
//!   `max_requests_per_conn` cap, and an idle deadline after which a
//!   silent connection is closed cleanly (distinct from the 408 a
//!   mid-request stall earns).
//! * **Micro-batching.** Concurrent single-row `/predict` requests
//!   landing within the batch window are coalesced onto the batch
//!   scorer and fanned back out ([`crate::batch::MicroBatcher`]),
//!   bit-for-bit identical to unbatched scoring.
//! * **Multi-model.** Requests route through a
//!   [`crate::registry::Registry`]: `/models/<id>/predict`
//!   per model, legacy routes on the default model, `POST /reload` (or
//!   SIGHUP via `reload_signal`) for atomic hot-swap with zero dropped
//!   requests.
//! * **Graceful drain.** [`ServerHandle::stop`] (or an external stop
//!   flag, typically flipped by a SIGTERM/ctrl-c handler) stops the
//!   accept loop, lets workers finish in-flight connections, then joins
//!   them and reports final [`ServerStats`]. An accept-thread panic is
//!   journaled and surfaced as a typed error from
//!   [`ServerHandle::join`], never silently swallowed as zero stats.
//!
//! Routes: `GET /healthz`, `GET /metrics`, `GET /models`,
//! `POST /predict`, `POST /reload`, and per-model
//! `GET /models/<id>/healthz` + `POST /models/<id>/predict`.

use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hamlet_obs::json::{obj, Json};
use hamlet_obs::{counter_add, histogram_observe, span};

use crate::batch::{CodedBatch, ScoredBatch};
use crate::conn::{ConnReader, IDLE_DEADLINE};
use crate::http::{write_response, write_response_with, Request, READ_DEADLINE};
use crate::registry::{ModelEntry, Registry};
use crate::score::Scorer;

/// Failpoint armed in the accept loop
/// (`HAMLET_FAILPOINTS=serve.accept=panic` for the join-surfacing
/// regression test; `=io` drops the accepted connection with a
/// journaled warning).
pub const ACCEPT_FAILPOINT: &str = "serve.accept";

/// Failpoint hit at the top of full scoring
/// (`HAMLET_FAILPOINTS=serve.model_score=panic@3` in the chaos-degrade
/// scenario). With `--fallback` the fault is absorbed by the surrogate
/// chain; without it, an injected panic keeps the legacy
/// connection-drop semantics.
pub const MODEL_SCORE_FAILPOINT: &str = "serve.model_score";

/// Total wall-clock budget for draining request bytes before a 503
/// refusal is written (so the client can read it instead of an RST).
const SHED_DRAIN_DEADLINE: Duration = Duration::from_millis(250);

/// Byte budget for the same drain.
const SHED_DRAIN_BUDGET: usize = 256 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`. Port 0 asks the OS for a
    /// free port (the tests do this); [`ServerHandle::port`] reports the
    /// bound port.
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Maximum accepted-but-unhandled connections before the server
    /// starts shedding load with 503s.
    pub queue_capacity: usize,
    /// Optional external stop flag (the CLI points this at the static
    /// its SIGTERM handler flips). Checked alongside the handle's own
    /// stop flag.
    pub stop_signal: Option<&'static AtomicBool>,
    /// Optional external reload flag (the CLI points this at the static
    /// its SIGHUP handler flips). When observed set, the accept loop
    /// clears it and hot-swaps the registry from disk.
    pub reload_signal: Option<&'static AtomicBool>,
    /// Maximum requests served over one connection before the server
    /// answers `Connection: close` (0 = unlimited). A fleet-facing cap
    /// bounds per-connection resource skew and gives load balancers a
    /// natural rebalancing point.
    pub max_requests_per_conn: usize,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the server closes it cleanly.
    pub idle_timeout: Duration,
    /// Micro-batch collection window for concurrent single-row predicts
    /// (zero disables coalescing). See [`resolve_batch_window`].
    pub batch_window: Duration,
    /// Enables the serving fallback chain (`serve --fallback`): rows
    /// naming degraded-build features are scored with those features
    /// ignored instead of refused, and a scoring fault answers from the
    /// prior-only surrogate (2xx with the degraded marker) instead of
    /// dropping the connection. Off by default: a non-degraded server
    /// answers bit-for-bit as before.
    pub fallback: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            threads: resolve_threads(None),
            queue_capacity: 64,
            stop_signal: None,
            reload_signal: None,
            max_requests_per_conn: 0,
            idle_timeout: IDLE_DEADLINE,
            batch_window: Duration::ZERO,
            fallback: false,
        }
    }
}

/// Resolves the worker count: an explicit flag wins, then the
/// `HAMLET_THREADS` convention, then available parallelism. An invalid
/// `HAMLET_THREADS` falls back loudly (warning in the run journal), the
/// same policy as the experiment runner.
pub fn resolve_threads(flag: Option<usize>) -> usize {
    if let Some(t) = flag {
        return t.max(1);
    }
    let default_threads = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    hamlet_obs::env::var_where("HAMLET_THREADS", "a positive integer", |&t: &usize| t > 0)
        .unwrap_or_else(|e| {
            hamlet_obs::record_warning(format!("{e}; using available parallelism"));
            None
        })
        .unwrap_or_else(default_threads)
}

/// Resolves the micro-batch window: an explicit flag (microseconds)
/// wins, then `HAMLET_BATCH_WINDOW_US`, then zero (coalescing off). An
/// invalid value falls back loudly, the same policy as
/// [`resolve_threads`].
pub fn resolve_batch_window(flag: Option<u64>) -> Duration {
    let us = match flag {
        Some(us) => us,
        None => hamlet_obs::env::var_where(
            "HAMLET_BATCH_WINDOW_US",
            "a non-negative integer (microseconds)",
            |_: &u64| true,
        )
        .unwrap_or_else(|e| {
            hamlet_obs::record_warning(format!("{e}; micro-batching disabled"));
            None
        })
        .unwrap_or(0),
    };
    Duration::from_micros(us)
}

/// Final request accounting, returned when the server drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests handled to completion (any status).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Connections shed with 503 because the queue was full.
    pub rejected: u64,
    /// Successful registry hot-swaps (POST /reload or SIGHUP).
    pub reloads: u64,
}

struct Inner {
    registry: Arc<Registry>,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    draining: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    reloads: AtomicU64,
    max_requests_per_conn: usize,
    idle_timeout: Duration,
    fallback: bool,
}

/// Lock helper: a poisoned queue mutex only means another worker
/// panicked mid-push/pop; the queue itself is still structurally sound,
/// so serving beats aborting.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::stop`] then [`ServerHandle::join`] (or
/// [`ServerHandle::run_until_stopped`]) for a clean drain.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    port: u16,
    accept: Option<std::thread::JoinHandle<ServerStats>>,
}

/// Renders a panic payload for the journal (panics carry `&str` or
/// `String` in practice).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

impl ServerHandle {
    /// The bound port (useful with `addr: "127.0.0.1:0"`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Requests the server stop accepting and drain.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the drain to complete and returns final stats.
    ///
    /// An accept-thread panic is journaled and returned as `Err` with
    /// the panic text — the old `unwrap_or_default()` here silently
    /// reported zero stats for a crashed server, which read exactly
    /// like a healthy idle one.
    pub fn join(mut self) -> Result<ServerStats, String> {
        match self.accept.take() {
            Some(h) => h.join().map_err(|payload| {
                let msg = format!(
                    "serve accept thread panicked: {}",
                    panic_text(payload.as_ref())
                );
                counter_add!("hamlet_serve_accept_panics_total", 1);
                hamlet_obs::record_warning(msg.clone());
                msg
            }),
            None => Ok(ServerStats::default()),
        }
    }

    /// Blocks until [`ServerHandle::stop`] is called (or the external
    /// stop signal fires), then drains and returns final stats.
    pub fn run_until_stopped(self) -> Result<ServerStats, String> {
        self.join()
    }
}

/// Starts a single-model server (the model becomes the registry's
/// `default` entry). See [`start_with_registry`] for multi-model
/// serving.
pub fn start(scorer: Scorer, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let registry = Arc::new(Registry::single(scorer, config.batch_window));
    start_with_registry(registry, config)
}

/// Starts the server over an existing registry: binds, spawns the
/// accept loop and `threads` workers, and returns immediately. The
/// caller may keep its own `Arc<Registry>` clone to drive hot-swaps
/// programmatically.
pub fn start_with_registry(
    registry: Arc<Registry>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let port = listener.local_addr()?.port();

    let inner = Arc::new(Inner {
        registry,
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        draining: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        reloads: AtomicU64::new(0),
        max_requests_per_conn: config.max_requests_per_conn,
        idle_timeout: config.idle_timeout,
        fallback: config.fallback,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let threads = config.threads.max(1);
    let queue_capacity = config.queue_capacity.max(1);

    let mut workers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let inner = Arc::clone(&inner);
        workers.push(std::thread::spawn(move || worker_loop(&inner)));
    }

    let accept_inner = Arc::clone(&inner);
    let accept_stop = Arc::clone(&stop);
    let stop_signal = config.stop_signal;
    let reload_signal = config.reload_signal;
    let accept = std::thread::spawn(move || {
        accept_loop(
            &listener,
            &accept_inner,
            &accept_stop,
            stop_signal,
            reload_signal,
            queue_capacity,
        );
        // Drain: stop handing out work, wake every worker, join them.
        accept_inner.draining.store(true, Ordering::SeqCst);
        accept_inner.available.notify_all();
        for w in workers {
            if w.join().is_err() {
                // The worker loop catches per-connection panics; one
                // escaping here means the worker died between
                // connections. The connection accounting is intact, so
                // report and keep draining the rest.
                counter_add!("hamlet_serve_worker_panics_total", 1);
                hamlet_obs::record_warning("serve worker thread panicked during drain".to_string());
            }
        }
        ServerStats {
            requests: accept_inner.requests.load(Ordering::SeqCst),
            errors: accept_inner.errors.load(Ordering::SeqCst),
            rejected: accept_inner.rejected.load(Ordering::SeqCst),
            reloads: accept_inner.reloads.load(Ordering::SeqCst),
        }
    });

    Ok(ServerHandle {
        stop,
        port,
        accept: Some(accept),
    })
}

fn should_stop(stop: &AtomicBool, external: Option<&'static AtomicBool>) -> bool {
    stop.load(Ordering::SeqCst) || external.is_some_and(|s| s.load(Ordering::SeqCst))
}

/// Resets an accepted socket to blocking mode. Accepted sockets inherit
/// the listener's `O_NONBLOCK` on some platforms (BSD/macOS semantics);
/// a nonblocking worker read would then misreport an instantly-empty
/// socket as `WouldBlock`, which the deadline reader interprets as a
/// stall — spurious 408s for perfectly healthy clients.
fn prepare_accepted(stream: &TcpStream) {
    if let Err(e) = stream.set_nonblocking(false) {
        hamlet_obs::record_warning(format!("could not reset accepted socket to blocking: {e}"));
    }
    // Responses are latency-sensitive and always written whole; Nagle
    // only adds delayed-ACK stalls on keep-alive connections.
    let _ = stream.set_nodelay(true);
}

/// Consumes whatever request bytes the client has in flight, up to a
/// byte budget and deadline, so closing right after the 503 refusal
/// does not RST the response away before the client reads it. The old
/// single 4096-byte read left a client mid-way through a large body
/// holding an RST instead of the refusal.
fn drain_request_bytes(stream: &mut TcpStream) {
    let deadline = Instant::now() + SHED_DRAIN_DEADLINE;
    let mut budget = SHED_DRAIN_BUDGET;
    let mut scratch = [0u8; 4096];
    while budget > 0 {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        let _ = stream.set_read_timeout(Some(remaining.min(Duration::from_millis(50))));
        match std::io::Read::read(stream, &mut scratch) {
            Ok(0) => break, // client finished (EOF)
            Ok(n) => budget = budget.saturating_sub(n),
            // Nothing pending right now: the receive queue is empty, so
            // a close after the refusal is RST-safe for what arrived.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(_) => break,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    inner: &Inner,
    stop: &AtomicBool,
    external: Option<&'static AtomicBool>,
    reload: Option<&'static AtomicBool>,
    queue_capacity: usize,
) {
    while !should_stop(stop, external) {
        // SIGHUP-style hot swap: observed once, cleared, applied.
        if let Some(flag) = reload {
            if flag.swap(false, Ordering::SeqCst) {
                // Outcome is journaled inside; a failed reload keeps the
                // old models serving.
                let _ = apply_reload(inner);
            }
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                if let Err(e) = hamlet_chaos::fail_at!(ACCEPT_FAILPOINT) {
                    hamlet_obs::record_warning(format!(
                        "serve.accept failpoint dropped a connection: {e}"
                    ));
                    continue;
                }
                prepare_accepted(&stream);
                let backlog = lock(&inner.queue).len();
                if backlog >= queue_capacity {
                    // Load shedding: answer 503 from the accept thread so
                    // a saturated pool never queues unbounded latency.
                    inner.rejected.fetch_add(1, Ordering::SeqCst);
                    counter_add!("hamlet_serve_rejected_total", 1);
                    drain_request_bytes(&mut stream);
                    let body = obj(vec![(
                        "error",
                        obj(vec![
                            ("kind", Json::Str("overloaded".into())),
                            (
                                "message",
                                Json::Str(format!(
                                    "request queue is full ({queue_capacity}); retry later"
                                )),
                            ),
                        ]),
                    )])
                    .to_string();
                    let _ = write_response(
                        &mut stream,
                        503,
                        "Service Unavailable",
                        "application/json",
                        &body,
                        false,
                    );
                    continue;
                }
                lock(&inner.queue).push_back(stream);
                inner.available.notify_one();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Nonblocking accept: nap briefly so the stop flag is
                // observed within ~10ms of a signal.
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Runs a registry hot-swap and records the outcome (shared by the
/// SIGHUP path and `POST /reload`).
fn apply_reload(inner: &Inner) -> Result<crate::registry::ReloadReport, String> {
    match inner.registry.reload() {
        Ok(report) => {
            inner.reloads.fetch_add(1, Ordering::SeqCst);
            counter_add!("hamlet_serve_reloads_total", 1);
            hamlet_obs::record_warning(format!(
                "registry hot-swap: generation {} ({} reloaded, {} kept)",
                report.generation,
                report.reloaded.len(),
                report.kept.len()
            ));
            Ok(report)
        }
        Err(e) => {
            counter_add!("hamlet_serve_reload_failures_total", 1);
            let msg = e.to_string();
            hamlet_obs::record_warning(format!(
                "registry reload failed, keeping old models: {msg}"
            ));
            Err(msg)
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let stream = {
            let mut queue = lock(&inner.queue);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if inner.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = inner
                    .available
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                queue = q;
            }
        };
        match stream {
            Some(mut s) => {
                // A scoring bug must cost one connection, not a worker:
                // a panicking handler is caught, counted, and journaled.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(inner, &mut s)
                }));
                if let Err(payload) = outcome {
                    counter_add!("hamlet_serve_worker_panics_total", 1);
                    hamlet_obs::record_warning(format!(
                        "serve worker panicked handling a connection (kept alive): {}",
                        panic_text(payload.as_ref())
                    ));
                }
            }
            None => return,
        }
    }
}

/// Serves one connection to completion: requests are framed off a
/// buffered [`ConnReader`] (pipelining-safe) and answered in order
/// until the client closes, asks `Connection: close`, goes idle past
/// the deadline, hits the per-connection request cap, or the server
/// starts draining.
fn handle_connection(inner: &Inner, stream: &mut TcpStream) {
    counter_add!("hamlet_serve_connections_total", 1);
    let mut reader = ConnReader::new();
    let mut served: usize = 0;
    loop {
        let request = reader.next_request(stream, READ_DEADLINE, inner.idle_timeout);
        let started = Instant::now();
        match request {
            // Clean end of the connection (EOF or idle past the
            // deadline at a request boundary) — not a request, not an
            // error.
            Ok(None) => return,
            Ok(Some(req)) => {
                served += 1;
                let cap_reached =
                    inner.max_requests_per_conn != 0 && served >= inner.max_requests_per_conn;
                let close = req.close || cap_reached || inner.draining.load(Ordering::SeqCst);
                let status = {
                    let _span = span!(
                        "serve.request",
                        path = req.path.clone(),
                        method = req.method.clone()
                    );
                    route(inner, stream, &req, !close)
                };
                finish_request(inner, status, started);
                if close {
                    return;
                }
            }
            Err(e) => {
                let _span = span!("serve.request", path = "<unreadable>", method = "-");
                let (status, reason) = e.status();
                let body = obj(vec![(
                    "error",
                    obj(vec![
                        ("kind", Json::Str("bad_request".into())),
                        ("message", Json::Str(e.to_string())),
                    ]),
                )])
                .to_string();
                let _ = write_response(stream, status, reason, "application/json", &body, false);
                finish_request(inner, status, started);
                return;
            }
        }
    }
}

fn finish_request(inner: &Inner, status: u16, started: Instant) {
    inner.requests.fetch_add(1, Ordering::SeqCst);
    counter_add!("hamlet_serve_requests_total", 1);
    if status >= 400 {
        inner.errors.fetch_add(1, Ordering::SeqCst);
        counter_add!("hamlet_serve_errors_total", 1);
    }
    histogram_observe!(
        "hamlet_serve_request_micros",
        started.elapsed().as_micros().min(u64::MAX as u128) as u64
    );
}

/// The `{"error": {...}}` body shared by routing refusals.
fn error_body(kind: &str, message: String) -> String {
    obj(vec![(
        "error",
        obj(vec![
            ("kind", Json::Str(kind.into())),
            ("message", Json::Str(message)),
        ]),
    )])
    .to_string()
}

/// Health document for one registry entry (legacy `/healthz` and
/// per-model `/models/<id>/healthz`).
fn health_body(entry: &ModelEntry) -> String {
    let a = entry.scorer.artifact();
    obj(vec![
        ("status", Json::Str("ok".into())),
        ("model_id", Json::Str(entry.id.clone())),
        ("generation", Json::Num(entry.generation as f64)),
        ("dataset", Json::Str(a.dataset.clone())),
        ("family", Json::Str(a.model.family().into())),
        ("n_classes", Json::Num(a.n_classes as f64)),
        (
            "features",
            Json::Arr(
                a.features
                    .iter()
                    .map(|f| Json::Str(f.name.clone()))
                    .collect(),
            ),
        ),
        (
            "avoided_joins",
            Json::Num(a.decisions.iter().filter(|d| d.avoid).count() as f64),
        ),
    ])
    .to_string()
}

/// Why one full-scoring attempt did not produce predictions.
enum ScoreFault {
    /// The `serve.model_score` failpoint (or a future IO-backed scorer)
    /// failed before scoring ran.
    Io(String),
    /// Scoring itself panicked; the payload is kept so the no-fallback
    /// path can resume the unwind with legacy semantics.
    Panic(Box<dyn std::any::Any + Send>),
}

impl ScoreFault {
    fn text(&self) -> String {
        match self {
            ScoreFault::Io(m) => m.clone(),
            ScoreFault::Panic(payload) => format!("panic: {}", panic_text(payload.as_ref())),
        }
    }
}

/// One attempt at full scoring: the `serve.model_score` failpoint, then
/// the (possibly micro-batched) scorer under `catch_unwind` so a
/// scoring panic is a recordable fault, not a torn connection.
fn score_full(entry: &ModelEntry, batch: &CodedBatch<'_>) -> Result<ScoredBatch, ScoreFault> {
    let _span = span!("serve.score");
    // The failpoint lives *inside* the unwind guard so its panic mode
    // exercises the same recovery path as a real scoring panic.
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<ScoredBatch, String> {
            hamlet_chaos::fail_at!(MODEL_SCORE_FAILPOINT).map_err(|e| e.to_string())?;
            Ok(
                if batch.n_rows() == 1 && !entry.batcher.window().is_zero() {
                    counter_add!("hamlet_serve_batched_rows_total", 1);
                    entry.batcher.score(&entry.scorer, batch)
                } else {
                    entry.scorer.score(batch)
                },
            )
        },
    ));
    match attempt {
        Ok(Ok(preds)) => Ok(preds),
        Ok(Err(message)) => Err(ScoreFault::Io(message)),
        Err(payload) => Err(ScoreFault::Panic(payload)),
    }
}

/// The degraded terminal of the fallback chain: every row answered from
/// the prior-only surrogate, marked degraded.
fn surrogate_response(entry: &ModelEntry, n_rows: usize) -> (u16, &'static str, String, bool) {
    counter_add!("hamlet_serve_degraded_total", 1);
    let _span = span!("serve.render");
    (200, "OK", entry.scorer.render_surrogate(n_rows), true)
}

/// Scores one `/predict` body against an entry, micro-batching lone
/// rows when a window is configured.
///
/// With `fallback` the answer walks the chain *full → surrogate*:
/// degraded-build features in named rows are ignored (not refused), an
/// open circuit breaker answers from the surrogate immediately, and a
/// scoring fault records into the breaker and falls back. Without
/// `fallback`, degraded features are refused with evidence (422) and a
/// scoring panic resumes its unwind — the pre-fallback behavior,
/// bit-for-bit.
///
/// The returned bool marks a degraded answer (`"degraded": true` body
/// member + `X-Hamlet-Degraded` header at the write site).
fn predict_body_for(
    entry: &ModelEntry,
    req: &Request,
    fallback: bool,
) -> (u16, &'static str, String, bool) {
    let text = String::from_utf8_lossy(&req.body);
    let decoded = {
        let _span = span!("serve.decode");
        entry.scorer.decode_body(&text, fallback)
    };
    match decoded {
        Err(e) => {
            let status = e.http_status();
            let reason = if status == 400 {
                "Bad Request"
            } else {
                "Unprocessable Entity"
            };
            (status, reason, e.to_json().to_string(), false)
        }
        Ok((batch, rows_degraded)) => {
            let n_rows = batch.n_rows();
            if !entry.breaker.admit_full() {
                // Open breaker, not a probe turn: straight to the
                // surrogate without touching the faulting score path.
                return surrogate_response(entry, n_rows);
            }
            match score_full(entry, &batch) {
                Ok(scored) => {
                    entry.breaker.record_success();
                    if rows_degraded {
                        counter_add!("hamlet_serve_degraded_total", 1);
                    }
                    let _span = span!("serve.render");
                    (
                        200,
                        "OK",
                        entry.scorer.render(&scored, rows_degraded),
                        rows_degraded,
                    )
                }
                Err(fault) => {
                    counter_add!("hamlet_serve_score_faults_total", 1);
                    if entry.breaker.record_fault() {
                        hamlet_obs::record_warning(format!(
                            "circuit breaker opened for model '{}': repeated scoring \
                             faults (latest: {})",
                            entry.id,
                            fault.text()
                        ));
                    }
                    if fallback {
                        hamlet_obs::record_warning(format!(
                            "scoring fault on model '{}' absorbed by the surrogate \
                             fallback: {}",
                            entry.id,
                            fault.text()
                        ));
                        return surrogate_response(entry, n_rows);
                    }
                    match fault {
                        // Legacy semantics without --fallback: the panic
                        // travels to the worker's connection guard.
                        ScoreFault::Panic(payload) => std::panic::resume_unwind(payload),
                        ScoreFault::Io(m) => (
                            500,
                            "Internal Server Error",
                            error_body("scoring_fault", m),
                            false,
                        ),
                    }
                }
            }
        }
    }
}

/// Splits `/models/<id>` and `/models/<id>/<tail>` paths.
fn model_route(path: &str) -> Option<(&str, &str)> {
    let rest = path.strip_prefix("/models/")?;
    match rest.split_once('/') {
        Some((id, tail)) if !id.is_empty() => Some((id, tail)),
        Some(_) => None,
        None if !rest.is_empty() => Some((rest, "")),
        None => None,
    }
}

/// Dispatches one request and returns the response status (for error
/// accounting). `keep_open` is the connection disposition the response
/// must advertise. Response-write failures are logged into the journal
/// and counted, never fatal to the worker.
fn route(inner: &Inner, stream: &mut TcpStream, req: &Request, keep_open: bool) -> u16 {
    let method = req.method.as_str();
    let path = req.path.as_str();
    let mut degraded = false;

    // Per-model routes: /models, /models/<id>, /models/<id>/<endpoint>.
    let resolved: Option<(u16, &'static str, &'static str, String)> = if path == "/models" {
        Some(if method == "GET" {
            let models = Json::Arr(
                inner
                    .registry
                    .ids()
                    .into_iter()
                    .map(|(id, generation)| {
                        obj(vec![
                            ("id", Json::Str(id)),
                            ("generation", Json::Num(generation as f64)),
                        ])
                    })
                    .collect(),
            );
            let default = inner
                .registry
                .default_entry()
                .map(|e| Json::Str(e.id.clone()))
                .unwrap_or(Json::Null);
            let body = obj(vec![
                ("default", default),
                (
                    "registry_generation",
                    Json::Num(inner.registry.generation() as f64),
                ),
                ("models", models),
            ])
            .to_string();
            (200, "OK", "application/json", body)
        } else {
            method_not_allowed(req)
        })
    } else if let Some((id, tail)) = model_route(path) {
        match inner.registry.get(id) {
            None => Some((
                404,
                "Not Found",
                "application/json",
                error_body(
                    "unknown_model",
                    format!("no model '{id}'; GET /models lists the registry"),
                ),
            )),
            Some(entry) => match (method, tail) {
                ("POST", "predict") => {
                    let (status, reason, body, deg) = predict_body_for(&entry, req, inner.fallback);
                    degraded = deg;
                    Some((status, reason, "application/json", body))
                }
                ("GET", "healthz") | ("GET", "") => {
                    Some((200, "OK", "application/json", health_body(&entry)))
                }
                (_, "predict") | (_, "healthz") | (_, "") => Some(method_not_allowed(req)),
                _ => Some((
                    404,
                    "Not Found",
                    "application/json",
                    error_body(
                        "not_found",
                        format!(
                            "no route for '{path}'; per-model endpoints are \
                             /models/{id}/predict and /models/{id}/healthz"
                        ),
                    ),
                )),
            },
        }
    } else {
        None
    };

    let (status, reason, content_type, body) = resolved.unwrap_or_else(|| match (method, path) {
        ("GET", "/healthz") => match inner.registry.default_entry() {
            Some(entry) => (200, "OK", "application/json", health_body(&entry)),
            None => (
                503,
                "Service Unavailable",
                "application/json",
                error_body("empty_registry", "no models are registered".into()),
            ),
        },
        ("GET", "/metrics") => (
            200,
            "OK",
            "text/plain; version=0.0.4",
            hamlet_obs::render_metrics(),
        ),
        ("POST", "/predict") => match inner.registry.default_entry() {
            Some(entry) => {
                let (status, reason, body, deg) = predict_body_for(&entry, req, inner.fallback);
                degraded = deg;
                (status, reason, "application/json", body)
            }
            None => (
                503,
                "Service Unavailable",
                "application/json",
                error_body("empty_registry", "no models are registered".into()),
            ),
        },
        ("POST", "/reload") => match apply_reload(inner) {
            Ok(report) => {
                let body = obj(vec![
                    ("status", Json::Str("reloaded".into())),
                    ("generation", Json::Num(report.generation as f64)),
                    (
                        "reloaded",
                        Json::Arr(report.reloaded.into_iter().map(Json::Str).collect()),
                    ),
                    (
                        "kept",
                        Json::Arr(report.kept.into_iter().map(Json::Str).collect()),
                    ),
                ])
                .to_string();
                (200, "OK", "application/json", body)
            }
            Err(msg) => (
                500,
                "Internal Server Error",
                "application/json",
                error_body("reload_failed", msg),
            ),
        },
        (_, "/predict") | (_, "/healthz") | (_, "/metrics") | (_, "/reload") => {
            method_not_allowed(req)
        }
        _ => (
            404,
            "Not Found",
            "application/json",
            error_body(
                "not_found",
                format!(
                    "no route for '{}'; try /healthz, /metrics, /models, POST /predict, \
                     or POST /reload",
                    req.path
                ),
            ),
        ),
    });
    let extra_headers: &[(&str, &str)] = if degraded {
        &[("X-Hamlet-Degraded", "true")]
    } else {
        &[]
    };
    if let Err(e) = write_response_with(
        stream,
        status,
        reason,
        content_type,
        &body,
        keep_open,
        extra_headers,
    ) {
        // The response could not be delivered (peer gone, or the
        // serve.response_write failpoint fired). The request itself was
        // handled; record the delivery failure without tearing down the
        // worker.
        counter_add!("hamlet_serve_write_failures_total", 1);
        hamlet_obs::record_warning(format!("response write on {} failed: {e}", req.path));
    }
    status
}

fn method_not_allowed(req: &Request) -> (u16, &'static str, &'static str, String) {
    (
        405,
        "Method Not Allowed",
        "application/json",
        error_body(
            "method_not_allowed",
            format!("{} is not supported on {}", req.method, req.path),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel};
    use crate::http::read_request;
    use hamlet_core::ExecStrategy;
    use hamlet_ml::NaiveBayesModel;
    use std::io::{Read, Write};

    fn artifact_with_labels(yes: &str, no: &str) -> ModelArtifact {
        let model = NaiveBayesModel::from_parts(
            vec![0, 1],
            2,
            vec![(0.5f64).ln(), (0.5f64).ln()],
            vec![
                vec![0.9f64.ln(), 0.1f64.ln(), 0.1f64.ln(), 0.9f64.ln()],
                vec![
                    0.5f64.ln(),
                    0.3f64.ln(),
                    0.2f64.ln(),
                    0.2f64.ln(),
                    0.3f64.ln(),
                    0.5f64.ln(),
                ],
            ],
            vec![2, 3],
        );
        ModelArtifact {
            dataset: "unit".into(),
            n_classes: 2,
            class_labels: Some(vec![no.into(), yes.into()]),
            features: vec![
                FeatureSchema {
                    name: "color".into(),
                    domain_size: 2,
                    labels: Some(vec!["red".into(), "blue".into()]),
                    fk: None,
                },
                FeatureSchema {
                    name: "fk".into(),
                    domain_size: 3,
                    labels: None,
                    fk: Some(FkColdStart {
                        table: "R".into(),
                        original_domain: 2,
                        others_code: 2,
                    }),
                },
            ],
            decisions: vec![JoinDecision {
                table: "R".into(),
                fk: "fk".into(),
                strategy: ExecStrategy::AvoidJoin,
                tuple_ratio: 40.0,
                ror: Some(1.1),
                avoid: true,
                foreign_features: vec!["country".into()],
                degraded: false,
            }],
            model: ServableModel::NaiveBayes(model),
        }
    }

    fn scorer() -> Scorer {
        Scorer::new(artifact_with_labels("yes", "no"))
    }

    fn test_config(threads: usize, queue: usize) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads,
            queue_capacity: queue,
            ..ServerConfig::default()
        }
    }

    fn start_test_server(threads: usize, queue: usize) -> ServerHandle {
        start(scorer(), test_config(threads, queue)).unwrap()
    }

    /// One-shot HTTP client: sends raw bytes, reads the full response.
    /// Callers building requests by hand should include
    /// `Connection: close` (as [`post`] and [`get`] do) so the server
    /// does not hold the socket open for the keep-alive idle deadline.
    fn roundtrip(port: u16, raw: &str) -> String {
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        // Read until EOF, tolerating a late RST after the response bytes
        // (the 503 shed path closes without reading the whole request).
        let mut out = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match s.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend_from_slice(&chunk[..n]),
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    fn post(port: u16, path: &str, body: &str) -> String {
        roundtrip(
            port,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    fn get(port: u16, path: &str) -> String {
        roundtrip(
            port,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    /// Reads exactly one framed response off a keep-alive connection
    /// (head until `\r\n\r\n`, then `Content-Length` body).
    fn read_one_response(s: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "eof before response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let cl: usize = head
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
        let total = head_end + 4 + cl;
        while buf.len() < total {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "eof before response body");
            buf.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(buf.len(), total, "over-read into the next response");
        String::from_utf8_lossy(&buf).into_owned()
    }

    #[test]
    fn healthz_metrics_predict_and_drain() {
        let _fp = hamlet_chaos::failpoint::shared();
        let h = start_test_server(2, 16);
        let port = h.port();

        let health = get(port, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.contains("\"family\":\"naive_bayes\""), "{health}");
        assert!(
            health.contains("\"features\":[\"color\",\"fk\"]"),
            "{health}"
        );
        assert!(health.contains("\"model_id\":\"default\""), "{health}");

        let pred = post(
            port,
            "/predict",
            r#"{"rows":[{"color":"blue","fk":1},[0,9]]}"#,
        );
        assert!(pred.starts_with("HTTP/1.1 200"), "{pred}");
        assert!(pred.contains("\"predictions\":["), "{pred}");
        assert!(pred.contains("\"label\":\"yes\""), "{pred}");

        // Typed 422 for an avoided foreign feature.
        let refused = post(
            port,
            "/predict",
            r#"[{"color":"red","fk":0,"country":"US"}]"#,
        );
        assert!(refused.starts_with("HTTP/1.1 422"), "{refused}");
        assert!(refused.contains("avoided_feature"), "{refused}");

        // Typed 400 for malformed JSON.
        let bad = post(port, "/predict", "{nope");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        assert!(bad.contains("bad_json"), "{bad}");

        // 404 and 405.
        assert!(get(port, "/nope").starts_with("HTTP/1.1 404"));
        assert!(get(port, "/predict").starts_with("HTTP/1.1 405"));

        // Metrics expose the request counters.
        let metrics = get(port, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(metrics.contains("hamlet_serve_requests_total"), "{metrics}");

        h.stop();
        let stats = h.join().unwrap();
        assert!(stats.requests >= 7, "{stats:?}");
        assert!(stats.errors >= 3, "{stats:?}");
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let _fp = hamlet_chaos::failpoint::shared();
        let h = start_test_server(2, 16);
        let port = h.port();
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        for i in 0..5 {
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let resp = read_one_response(&mut s);
            assert!(resp.starts_with("HTTP/1.1 200"), "request {i}: {resp}");
            assert!(resp.contains("Connection: keep-alive"), "{resp}");
        }
        // `Connection: close` ends the connection after the response.
        s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let last = read_one_response(&mut s);
        assert!(last.contains("Connection: close"), "{last}");
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "bytes after close: {rest:?}");

        h.stop();
        let stats = h.join().unwrap();
        assert_eq!(stats.requests, 6, "{stats:?}");
    }

    #[test]
    fn pipelined_requests_are_all_answered_in_order() {
        let _fp = hamlet_chaos::failpoint::shared();
        let h = start_test_server(1, 8);
        let port = h.port();
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let body = "[[1,0]]";
        let raw = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}\
             GET /healthz HTTP/1.1\r\n\r\n\
             GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
            body.len()
        );
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert_eq!(out.matches("HTTP/1.1 200").count(), 3, "{out}");
        // In-order responses: predictions, then health, then metrics.
        let p = out.find("\"predictions\"").expect("predict response");
        let hz = out.find("\"model_id\"").expect("healthz response");
        let m = out
            .find("hamlet_serve_requests_total")
            .expect("metrics response");
        assert!(p < hz && hz < m, "responses out of order: {out}");

        h.stop();
        assert_eq!(h.join().unwrap().requests, 3);
    }

    #[test]
    fn request_cap_closes_the_connection_politely() {
        let _fp = hamlet_chaos::failpoint::shared();
        let h = start(
            scorer(),
            ServerConfig {
                max_requests_per_conn: 2,
                ..test_config(1, 8)
            },
        )
        .unwrap();
        let port = h.port();
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let first = read_one_response(&mut s);
        assert!(first.contains("Connection: keep-alive"), "{first}");
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let second = read_one_response(&mut s);
        assert!(second.contains("Connection: close"), "{second}");
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "server must close at the cap");
        // Fresh connections are unaffected by another connection's cap.
        assert!(get(port, "/healthz").starts_with("HTTP/1.1 200"));
        h.stop();
        h.join().unwrap();
    }

    #[test]
    fn model_routes_resolve_and_unknown_ids_are_404() {
        let _fp = hamlet_chaos::failpoint::shared();
        let h = start_test_server(1, 8);
        let port = h.port();

        let list = get(port, "/models");
        assert!(list.starts_with("HTTP/1.1 200"), "{list}");
        assert!(list.contains("\"default\":\"default\""), "{list}");
        assert!(list.contains("\"models\":["), "{list}");

        let hz = get(port, "/models/default/healthz");
        assert!(hz.starts_with("HTTP/1.1 200"), "{hz}");
        assert!(hz.contains("\"model_id\":\"default\""), "{hz}");

        let pred = post(port, "/models/default/predict", "[[1,0]]");
        assert!(pred.starts_with("HTTP/1.1 200"), "{pred}");
        assert!(pred.contains("\"predictions\":["), "{pred}");

        let missing = get(port, "/models/nope/healthz");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(missing.contains("unknown_model"), "{missing}");

        let bogus = get(port, "/models/default/bogus");
        assert!(bogus.starts_with("HTTP/1.1 404"), "{bogus}");

        // In-memory registry: reload succeeds trivially, keeping the
        // entry and bumping the generation.
        let reload = post(port, "/reload", "");
        assert!(reload.starts_with("HTTP/1.1 200"), "{reload}");
        assert!(reload.contains("\"kept\":[\"default\"]"), "{reload}");

        h.stop();
        let stats = h.join().unwrap();
        assert_eq!(stats.reloads, 1, "{stats:?}");
    }

    #[test]
    fn micro_batched_single_rows_match_unbatched_bit_for_bit() {
        let _fp = hamlet_chaos::failpoint::shared();
        let batched = start(
            scorer(),
            ServerConfig {
                batch_window: Duration::from_millis(2),
                ..test_config(4, 32)
            },
        )
        .unwrap();
        let plain = start_test_server(2, 32);
        let (bp, pp) = (batched.port(), plain.port());

        let bodies: Vec<String> = (0..8).map(|i| format!("[[{},{}]]", i % 2, i % 3)).collect();
        // Fire the batched requests concurrently so the window coalesces
        // them, then compare each against the unbatched server.
        let handles: Vec<_> = bodies
            .iter()
            .map(|b| {
                let b = b.clone();
                std::thread::spawn(move || (b.clone(), post(bp, "/predict", &b)))
            })
            .collect();
        for h in handles {
            let (body, batched_resp) = h.join().unwrap();
            let plain_resp = post(pp, "/predict", &body);
            let tail = |r: &str| r.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
            assert_eq!(
                tail(&batched_resp),
                tail(&plain_resp),
                "bit-for-bit drift on {body}"
            );
        }
        batched.stop();
        plain.stop();
        batched.join().unwrap();
        plain.join().unwrap();
    }

    #[test]
    fn hot_swap_under_concurrent_load_drops_nothing() {
        let _fp = hamlet_chaos::failpoint::shared();
        let registry = Arc::new(Registry::single(
            Scorer::new(artifact_with_labels("yes", "no")),
            Duration::ZERO,
        ));
        let h = start_with_registry(Arc::clone(&registry), test_config(4, 64)).unwrap();
        let port = h.port();
        let weak = Arc::downgrade(&registry.get("default").unwrap());

        let stop = Arc::new(AtomicBool::new(false));
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut served = 0u32;
                    while !stop.load(Ordering::SeqCst) {
                        let resp = post(port, "/predict", "[[1,0]]");
                        // Zero drops: every request gets a full 200, and
                        // the label proves it was scored by a real entry
                        // (old or new), never a torn one.
                        assert!(resp.starts_with("HTTP/1.1 200"), "dropped: {resp}");
                        assert!(
                            resp.contains("\"label\":\"yes\"")
                                || resp.contains("\"label\":\"yep\""),
                            "mis-routed: {resp}"
                        );
                        served += 1;
                    }
                    served
                })
            })
            .collect();

        std::thread::sleep(Duration::from_millis(100));
        registry.swap(
            "default",
            Scorer::new(artifact_with_labels("yep", "nope")),
            None,
        );
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, Ordering::SeqCst);
        let total: u32 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(total > 0, "load generator produced no requests");

        h.stop();
        h.join().unwrap();
        // Old artifact: drained by in-flight requests, then released.
        assert!(
            weak.upgrade().is_none(),
            "old entry must be freed once the last request drops it"
        );
        // New model is what the registry now serves.
        let a = registry.get("default").unwrap();
        assert_eq!(a.scorer.artifact().class_labels.as_ref().unwrap()[1], "yep");
    }

    #[test]
    fn deeply_nested_predict_body_is_400_and_the_worker_survives() {
        let _fp = hamlet_chaos::failpoint::shared();
        // Without the parser depth cap this body would overflow the
        // worker's stack — a SIGSEGV/abort killing the whole process,
        // not a catchable panic. It must instead be a typed 400.
        let h = start_test_server(1, 8);
        let port = h.port();
        let bomb = "[".repeat(300_000);
        let resp = post(port, "/predict", &bomb);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("bad_json"), "{resp}");
        assert!(resp.contains("nesting exceeds"), "{resp}");
        // The single worker is still alive and serving.
        let ok = get(port, "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        h.stop();
        let stats = h.join().unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.errors, 1);
    }

    #[test]
    fn saturated_queue_sheds_load_with_503() {
        let _fp = hamlet_chaos::failpoint::shared();
        // No workers draining the queue fast: one worker wedged by slow
        // clients, capacity 1. A short idle deadline keeps the post-test
        // drain quick without racing the shed assertion below.
        let h = start(
            scorer(),
            ServerConfig {
                idle_timeout: Duration::from_millis(1500),
                ..test_config(1, 1)
            },
        )
        .unwrap();
        let port = h.port();

        // Wedge the worker with an idle connection (it waits out the
        // idle deadline), then park a second idle connection in the
        // queue so the backlog sits at capacity.
        let _busy = TcpStream::connect(("127.0.0.1", port)).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let _parked = TcpStream::connect(("127.0.0.1", port)).unwrap();
        std::thread::sleep(Duration::from_millis(200));

        // The next request must be shed with 503 by the accept thread —
        // and the refusal must be readable even though the client sent a
        // sizable body (the drain-before-refuse fix).
        let resp = post(port, "/healthz", &"x".repeat(64 * 1024));
        assert!(resp.starts_with("HTTP/1.1 503"), "not shed: {resp}");
        assert!(resp.contains("overloaded"), "{resp}");

        h.stop();
        let stats = h.join().unwrap();
        assert!(stats.rejected >= 1, "{stats:?}");
    }

    #[test]
    fn accepted_sockets_are_reset_to_blocking() {
        // On BSD/macOS accepted sockets inherit the listener's
        // O_NONBLOCK; simulate that inheritance and verify the accept
        // path's reset makes a deadline read wait for data instead of
        // misreading an instantly-empty socket as a stall (the spurious
        // 408 bug).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut accepted = loop {
            match listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Err(e) => panic!("accept: {e}"),
            }
        };
        accepted.set_nonblocking(true).unwrap();
        prepare_accepted(&accepted);

        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            client
                .write_all(b"GET /late HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            client
        });
        let req = read_request(&mut accepted, Duration::from_secs(2)).unwrap();
        assert_eq!(req.path, "/late");
        drop(writer.join().unwrap());
    }

    #[test]
    fn accept_thread_panic_is_surfaced_by_join() {
        let _g = hamlet_chaos::failpoint::serial();
        let h = start_test_server(1, 8);
        let port = h.port();
        hamlet_chaos::failpoint::set_failpoints(&format!("{ACCEPT_FAILPOINT}=panic")).unwrap();
        // One accepted connection trips the failpoint and kills the
        // accept thread.
        let _ = TcpStream::connect(("127.0.0.1", port));
        std::thread::sleep(Duration::from_millis(150));
        hamlet_chaos::failpoint::clear_failpoints();
        let err = h.join().unwrap_err();
        assert!(err.contains("accept thread panicked"), "{err}");
    }

    #[test]
    fn external_stop_signal_drains() {
        let _fp = hamlet_chaos::failpoint::shared();
        static STOP: AtomicBool = AtomicBool::new(false);
        STOP.store(false, Ordering::SeqCst);
        let h = start(
            scorer(),
            ServerConfig {
                stop_signal: Some(&STOP),
                ..test_config(1, 4)
            },
        )
        .unwrap();
        let port = h.port();
        assert!(get(port, "/healthz").starts_with("HTTP/1.1 200"));
        STOP.store(true, Ordering::SeqCst);
        let stats = h.run_until_stopped().unwrap();
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn external_reload_signal_triggers_a_hot_swap() {
        let _fp = hamlet_chaos::failpoint::shared();
        static STOP: AtomicBool = AtomicBool::new(false);
        static RELOAD: AtomicBool = AtomicBool::new(false);
        STOP.store(false, Ordering::SeqCst);
        RELOAD.store(false, Ordering::SeqCst);
        let h = start(
            scorer(),
            ServerConfig {
                stop_signal: Some(&STOP),
                reload_signal: Some(&RELOAD),
                ..test_config(1, 4)
            },
        )
        .unwrap();
        let port = h.port();
        RELOAD.store(true, Ordering::SeqCst);
        // The accept loop polls the flag between accepts (10ms naps).
        let deadline = Instant::now() + Duration::from_secs(2);
        while RELOAD.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!RELOAD.load(Ordering::SeqCst), "reload flag never consumed");
        let list = get(port, "/models");
        assert!(list.contains("\"registry_generation\":2"), "{list}");
        STOP.store(true, Ordering::SeqCst);
        let stats = h.run_until_stopped().unwrap();
        assert_eq!(stats.reloads, 1, "{stats:?}");
    }

    #[test]
    fn response_write_failpoint_does_not_kill_the_worker() {
        let _g = hamlet_chaos::failpoint::serial();
        let h = start_test_server(1, 8);
        let port = h.port();
        hamlet_chaos::failpoint::set_failpoints("serve.response_write=io").unwrap();
        // The response write fails server-side; the client sees a closed
        // connection with no bytes. The worker must survive.
        let resp = get(port, "/healthz");
        hamlet_chaos::failpoint::clear_failpoints();
        assert!(resp.is_empty(), "unexpected bytes: {resp}");
        // Worker still alive and serving.
        let ok = get(port, "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        h.stop();
        let stats = h.join().unwrap();
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn scoring_fault_with_fallback_serves_the_surrogate_marked_degraded() {
        let _g = hamlet_chaos::failpoint::serial();
        let h = start(
            scorer(),
            ServerConfig {
                fallback: true,
                ..test_config(1, 8)
            },
        )
        .unwrap();
        let port = h.port();

        // Fault the first scoring attempt only: 2xx from the surrogate,
        // marked degraded in both the body and the response head.
        hamlet_chaos::failpoint::set_failpoints("serve.model_score=io@1").unwrap();
        let resp = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
        hamlet_chaos::failpoint::clear_failpoints();
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("X-Hamlet-Degraded: true"), "{resp}");
        assert!(resp.contains("\"degraded\":true"), "{resp}");
        // The surrogate is the class prior — uniform here, so class 0.
        assert!(resp.contains("\"class\":0"), "{resp}");

        // With the fault cleared, full scoring resumes unmarked.
        let ok = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(!ok.contains("X-Hamlet-Degraded"), "{ok}");
        assert!(!ok.contains("degraded"), "{ok}");
        assert!(ok.contains("\"label\":\"yes\""), "{ok}");

        h.stop();
        h.join().unwrap();
    }

    #[test]
    fn scoring_panic_with_fallback_answers_2xx_and_trips_the_breaker() {
        let _g = hamlet_chaos::failpoint::serial();
        std::env::set_var("HAMLET_BREAKER_THRESHOLD", "2");
        std::env::set_var("HAMLET_BREAKER_PROBE", "1");
        let h = start(
            scorer(),
            ServerConfig {
                fallback: true,
                ..test_config(1, 8)
            },
        )
        .unwrap();
        std::env::remove_var("HAMLET_BREAKER_THRESHOLD");
        std::env::remove_var("HAMLET_BREAKER_PROBE");
        let port = h.port();

        // Two consecutive panicking scores: both absorbed as 2xx
        // surrogate answers, and the second trips the breaker.
        hamlet_chaos::failpoint::set_failpoints("serve.model_score=panic").unwrap();
        for _ in 0..2 {
            let resp = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("\"degraded\":true"), "{resp}");
        }
        hamlet_chaos::failpoint::clear_failpoints();

        // Breaker open with probe cadence 1: the next request probes,
        // scores cleanly, and closes the breaker — full scoring is back.
        let probe = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
        assert!(probe.starts_with("HTTP/1.1 200"), "{probe}");
        let after = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
        assert!(after.starts_with("HTTP/1.1 200"), "{after}");
        assert!(!after.contains("degraded"), "{after}");
        assert!(after.contains("\"label\":\"yes\""), "{after}");

        h.stop();
        h.join().unwrap();
    }

    #[test]
    fn scoring_panic_without_fallback_keeps_legacy_connection_drop() {
        let _g = hamlet_chaos::failpoint::serial();
        let h = start_test_server(1, 8);
        let port = h.port();
        hamlet_chaos::failpoint::set_failpoints("serve.model_score=panic@1").unwrap();
        // Legacy semantics: the panic reaches the worker's connection
        // guard, so the client sees a dropped connection, not a 2xx.
        let dropped = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
        hamlet_chaos::failpoint::clear_failpoints();
        assert!(dropped.is_empty(), "unexpected bytes: {dropped}");
        // The worker survives and serves the next request normally.
        let ok = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(!ok.contains("degraded"), "{ok}");
        h.stop();
        h.join().unwrap();
    }

    #[test]
    fn corrupt_artifact_reload_keeps_the_old_generation_serving() {
        let _fp = hamlet_chaos::failpoint::shared();
        let dir = std::env::temp_dir().join(format!("hamlet_srv_reload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.model");
        crate::artifact::save(&artifact_with_labels("yes", "no"), &path).unwrap();
        let registry = Arc::new(
            crate::registry::Registry::from_sources(
                &[("default".into(), path.clone())],
                Duration::ZERO,
            )
            .unwrap(),
        );
        let h = start_with_registry(Arc::clone(&registry), test_config(1, 8)).unwrap();
        let port = h.port();
        let before = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
        assert!(before.starts_with("HTTP/1.1 200"), "{before}");

        // Bit-flip the artifact on disk, then hot-reload over HTTP: the
        // reload must fail typed and the old generation keep serving.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let reload = post(port, "/reload", "");
        assert!(reload.starts_with("HTTP/1.1 500"), "{reload}");
        assert!(reload.contains("reload_failed"), "{reload}");

        let list = get(port, "/models");
        assert!(list.contains("\"registry_generation\":1"), "{list}");
        let after = post(port, "/predict", r#"[{"color":"blue","fk":1}]"#);
        assert!(after.starts_with("HTTP/1.1 200"), "{after}");
        assert_eq!(
            before.lines().last(),
            after.lines().last(),
            "old generation must answer identically after the failed reload"
        );

        h.stop();
        h.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resolve_threads_flag_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn resolve_batch_window_flag_wins() {
        assert_eq!(resolve_batch_window(Some(250)), Duration::from_micros(250));
        assert_eq!(resolve_batch_window(Some(0)), Duration::ZERO);
    }
}
