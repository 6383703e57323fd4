//! # hamlet-serve
//!
//! Model serving for the join-avoidance pipeline: once the advisor has
//! decided which joins to avoid and a classifier has been fitted, this
//! crate packages the result as a **versioned, checksummed artifact**
//! ([`artifact`]), scores new rows against it with train-time cold-start
//! semantics ([`score`]), and exposes prediction over a
//! **zero-dependency HTTP/1.1 server** built on `std::net`
//! ([`server`]).
//!
//! The subsystem exists to keep the paper's central promise intact at
//! inference time: an `AvoidJoin` decision means the deployed model
//! *never* needs the attribute table — requests carrying foreign
//! features are rejected, and unseen foreign-key values route through
//! the `Others` bucket exactly as `hamlet_relational::coldstart` routed
//! them during training.
//!
//! Layers:
//!
//! * [`artifact`] — the on-disk format: magic + schema version +
//!   FNV-1a 64 checksum over the payload's bytes as stored; corrupt
//!   or truncated files yield typed [`ArtifactError`]s, never panics.
//! * [`export`] — builds an artifact from a [`hamlet_relational::StarSchema`]:
//!   runs the advisor, applies cold-start domain revisions, fits the
//!   requested family, and records decisions with TR/ROR evidence.
//! * [`score`] — the scoring engine: named- or positional-row requests,
//!   label vocabulary lookup, `Others` routing, and typed
//!   [`ScoreError`]s with HTTP status mapping.
//! * [`http`] / [`conn`] / [`server`] — a bounded-worker, bounded-queue
//!   HTTP/1.1 server with keep-alive + pipelining-safe framing, 503
//!   backpressure, graceful drain on SIGTERM/ctrl-c, and `hamlet_obs`
//!   spans + metrics on every request.
//! * [`batch`] — request micro-batching: concurrent single-row predicts
//!   within `HAMLET_BATCH_WINDOW_US` are coalesced onto the batch
//!   scorer, bit-for-bit identical to unbatched scoring.
//! * [`degrade`] — the serving fallback chain: a per-model circuit
//!   breaker that answers from the prior-only surrogate after repeated
//!   scoring faults, plus the `degraded` response contract
//!   (`X-Hamlet-Degraded` header, `"degraded"` JSON field).
//! * [`registry`] — the multi-model table behind `/models/<id>/…`
//!   routing, with atomic hot-swap reload (`POST /reload` or SIGHUP)
//!   that never drops an in-flight request.

pub mod artifact;
pub mod batch;
pub mod conn;
pub mod degrade;
pub mod export;
pub mod http;
pub mod registry;
pub mod score;
pub mod server;

pub use artifact::{
    ArtifactError, FeatureSchema, FkColdStart, JoinDecision, ModelArtifact, ServableModel, MAGIC,
    SCHEMA_VERSION,
};
pub use batch::{CodedBatch, MicroBatcher, ScoredBatch};
pub use conn::ConnReader;
pub use degrade::{BreakerPolicy, CircuitBreaker};
pub use export::{
    build_artifact, build_artifact_with_availability, BuildError, BuiltModel, ModelKind,
};
pub use registry::{ModelEntry, Registry, RegistryError, ReloadReport};
pub use score::{Prediction, ScoreError, Scorer};
pub use server::{
    resolve_batch_window, resolve_threads, start, start_with_registry, ServerConfig, ServerHandle,
    ServerStats,
};
