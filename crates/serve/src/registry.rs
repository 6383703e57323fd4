//! Multi-model registry with atomic hot-swap.
//!
//! The per-family artifacts from the tree-learning PR mean a serving
//! host routinely has N models worth routing between (`nb` vs `gbt`
//! per dataset, canary vs stable, per-tenant families). The registry
//! serves all of them from one process:
//!
//! * **Routing.** `/models/<id>/predict` (and `/healthz`) resolve
//!   through [`Registry::get`]; the legacy unprefixed routes hit the
//!   *default* model — the first one registered — so existing clients
//!   keep working unchanged.
//! * **Atomic hot-swap.** [`Registry::reload`] re-reads every
//!   disk-backed entry, builds the new scorers *off to the side*, and
//!   only then swaps the `Arc`s under the lock — all-or-nothing: if any
//!   artifact fails to load, the registry is untouched and the old
//!   models keep serving. A request that resolved its entry before the
//!   swap finishes against the old model (its `Arc` keeps the artifact
//!   alive); the old artifact is released only when the last in-flight
//!   request drops its clone. Zero requests are dropped or mis-routed
//!   across a swap.
//! * **Generations.** Every swap bumps a monotone generation, visible
//!   in `/models` and `/healthz`, so operators can verify a reload
//!   actually took.
//!
//! Reloads are triggered by `POST /reload` (any worker) or SIGHUP (the
//! CLI flips a flag the accept loop polls). Each entry owns its own
//! [`MicroBatcher`], so coalesced batches never mix models *or*
//! generations.
//!
//! Artifact reads go through [`RetryPolicy`]: transient IO failures get
//! a bounded, jittered exponential backoff before the load is declared
//! dead, while corrupt artifacts (bad magic, checksum mismatch, schema
//! errors) fail fast — no retry can fix bad bytes, and the old
//! generation must resume serving immediately. The [`RELOAD_FAILPOINT`]
//! at the top of [`Registry::reload`] lets chaos runs prove a faulted
//! reload leaves every old generation serving.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hamlet_obs::RetryPolicy;

use crate::artifact::{self, ArtifactError, ModelArtifact};
use crate::batch::MicroBatcher;
use crate::degrade::{BreakerPolicy, CircuitBreaker};
use crate::score::Scorer;

/// Failpoint hit at the top of [`Registry::reload`], before any
/// artifact is read — a faulted reload must leave the registry (and
/// every old generation) untouched.
pub const RELOAD_FAILPOINT: &str = "registry.reload";

/// Why the registry could not be built or reloaded. Carries the model
/// id and path so a fleet operator knows *which* artifact is bad.
#[derive(Debug)]
pub enum RegistryError {
    /// An artifact failed to load or validate.
    Load {
        /// The model id being (re)loaded.
        id: String,
        /// The artifact path.
        path: PathBuf,
        /// The underlying artifact error.
        source: ArtifactError,
    },
    /// Two `--model` entries share an id.
    DuplicateId(String),
    /// The registry would be empty.
    Empty,
    /// The reload was aborted before any artifact was read (injected
    /// fault or other environmental failure); the registry is untouched.
    Aborted(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Load { id, path, source } => {
                write!(f, "model '{id}' ({}): {source}", path.display())
            }
            RegistryError::DuplicateId(id) => write!(f, "model id '{id}' given more than once"),
            RegistryError::Empty => write!(f, "no models to serve"),
            RegistryError::Aborted(reason) => write!(f, "reload aborted: {reason}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One served model: scorer, its coalescing batcher, and provenance.
pub struct ModelEntry {
    /// Routing id (`/models/<id>/…`).
    pub id: String,
    /// Bumped on every successful swap of this entry.
    pub generation: u64,
    /// The artifact path, when disk-backed (reloadable). In-memory
    /// entries (tests, embedded use) have `None` and survive reloads
    /// unchanged.
    pub source: Option<PathBuf>,
    /// The scoring engine over the loaded artifact.
    pub scorer: Scorer,
    /// Coalesces this model's single-row requests.
    pub batcher: MicroBatcher,
    /// This model's scoring circuit breaker. Entries are rebuilt on
    /// every swap/reload, so a hot-swap always starts with a fresh
    /// (closed) breaker — reloading is the operator's reset lever.
    pub breaker: CircuitBreaker,
}

/// Outcome of a successful [`Registry::reload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadReport {
    /// Ids re-read from disk and swapped.
    pub reloaded: Vec<String>,
    /// Ids kept as-is (no source path).
    pub kept: Vec<String>,
    /// The registry generation after the swap.
    pub generation: u64,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Loads one artifact with bounded retry + backoff on *transient* IO
/// failures only. Corrupt artifacts (parse/checksum/schema errors)
/// fail fast: retrying cannot fix bad bytes, and a failed load must
/// hand control back — with the old generation still serving — as
/// quickly as possible.
fn load_with_retry(
    retry: &RetryPolicy,
    id: &str,
    path: &Path,
) -> Result<ModelArtifact, RegistryError> {
    retry
        .run_if(
            "serve.artifact_load",
            || artifact::load(path),
            |e| matches!(e, ArtifactError::Io { .. }),
        )
        .map_err(|source| RegistryError::Load {
            id: id.to_string(),
            path: path.to_path_buf(),
            source,
        })
}

/// The model table. Insertion order is preserved; the first entry is
/// the default model for the legacy unprefixed routes.
pub struct Registry {
    models: Mutex<Vec<Arc<ModelEntry>>>,
    generation: AtomicU64,
    batch_window: Duration,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("models", &self.ids())
            .field("generation", &self.generation())
            .finish()
    }
}

impl Registry {
    /// A registry holding one in-memory model under the id `default`.
    pub fn single(scorer: Scorer, batch_window: Duration) -> Registry {
        let entry = Arc::new(ModelEntry {
            id: "default".into(),
            generation: 1,
            source: None,
            scorer,
            batcher: MicroBatcher::new(batch_window),
            breaker: CircuitBreaker::new(BreakerPolicy::resolve()),
        });
        Registry {
            models: Mutex::new(vec![entry]),
            generation: AtomicU64::new(1),
            batch_window,
        }
    }

    /// Loads every `(id, path)` artifact; the first entry is the
    /// default model. All-or-nothing: one bad artifact fails the whole
    /// construction with a typed error naming it.
    pub fn from_sources(
        sources: &[(String, PathBuf)],
        batch_window: Duration,
    ) -> Result<Registry, RegistryError> {
        if sources.is_empty() {
            return Err(RegistryError::Empty);
        }
        let retry = RetryPolicy::resolve();
        let mut models: Vec<Arc<ModelEntry>> = Vec::with_capacity(sources.len());
        for (id, path) in sources {
            if models.iter().any(|e| &e.id == id) {
                return Err(RegistryError::DuplicateId(id.clone()));
            }
            let loaded = load_with_retry(&retry, id, path)?;
            models.push(Arc::new(ModelEntry {
                id: id.clone(),
                generation: 1,
                source: Some(path.clone()),
                scorer: Scorer::new(loaded),
                batcher: MicroBatcher::new(batch_window),
                breaker: CircuitBreaker::new(BreakerPolicy::resolve()),
            }));
        }
        Ok(Registry {
            models: Mutex::new(models),
            generation: AtomicU64::new(1),
            batch_window,
        })
    }

    /// Resolves a model id to its current entry. The returned `Arc`
    /// pins that artifact for the caller's whole request, across any
    /// concurrent swap.
    pub fn get(&self, id: &str) -> Option<Arc<ModelEntry>> {
        lock(&self.models).iter().find(|e| e.id == id).cloned()
    }

    /// The default model (first registered). The registry is never
    /// empty by construction, but a defensive `None` beats a panic in a
    /// serving path.
    pub fn default_entry(&self) -> Option<Arc<ModelEntry>> {
        lock(&self.models).first().cloned()
    }

    /// `(id, generation)` pairs in registration order.
    pub fn ids(&self) -> Vec<(String, u64)> {
        lock(&self.models)
            .iter()
            .map(|e| (e.id.clone(), e.generation))
            .collect()
    }

    /// The current registry generation (bumped once per successful
    /// reload or swap).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Replaces (or registers) one model in place, atomically. In-flight
    /// requests holding the old entry finish against it.
    pub fn swap(&self, id: &str, scorer: Scorer, source: Option<&Path>) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let mut models = lock(&self.models);
        let entry = Arc::new(ModelEntry {
            id: id.to_string(),
            generation,
            source: source.map(Path::to_path_buf),
            scorer,
            batcher: MicroBatcher::new(self.batch_window),
            breaker: CircuitBreaker::new(BreakerPolicy::resolve()),
        });
        match models.iter_mut().find(|e| e.id == id) {
            Some(slot) => *slot = entry,
            None => models.push(entry),
        }
        generation
    }

    /// Re-reads every disk-backed entry and swaps them in atomically.
    ///
    /// All new scorers are built before anything is published: a load
    /// failure leaves the registry exactly as it was (the typed error
    /// names the bad artifact). In-flight requests keep their pinned
    /// entries; the old artifacts are freed when the last request
    /// drops its `Arc` — never mid-request.
    pub fn reload(&self) -> Result<ReloadReport, RegistryError> {
        hamlet_chaos::fail_at!(RELOAD_FAILPOINT)
            .map_err(|e| RegistryError::Aborted(e.to_string()))?;
        let retry = RetryPolicy::resolve();
        let snapshot: Vec<Arc<ModelEntry>> = lock(&self.models).clone();
        let generation = self.generation.load(Ordering::SeqCst) + 1;
        let mut replacements: Vec<(String, Arc<ModelEntry>)> = Vec::new();
        let mut reloaded = Vec::new();
        let mut kept = Vec::new();
        for entry in &snapshot {
            match &entry.source {
                None => kept.push(entry.id.clone()),
                Some(path) => {
                    let loaded = load_with_retry(&retry, &entry.id, path)?;
                    replacements.push((
                        entry.id.clone(),
                        Arc::new(ModelEntry {
                            id: entry.id.clone(),
                            generation,
                            source: Some(path.clone()),
                            scorer: Scorer::new(loaded),
                            batcher: MicroBatcher::new(self.batch_window),
                            breaker: CircuitBreaker::new(BreakerPolicy::resolve()),
                        }),
                    ));
                    reloaded.push(entry.id.clone());
                }
            }
        }
        // Publish: every new entry lands under one lock acquisition, so
        // no request ever observes a half-swapped registry.
        {
            let mut models = lock(&self.models);
            for (id, replacement) in replacements {
                match models.iter_mut().find(|e| e.id == id) {
                    Some(slot) => *slot = replacement,
                    // The entry was removed concurrently; re-add it
                    // rather than dropping a model the operator asked for.
                    None => models.push(replacement),
                }
            }
        }
        self.generation.store(generation, Ordering::SeqCst);
        Ok(ReloadReport {
            reloaded,
            kept,
            generation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{FeatureSchema, ModelArtifact, ServableModel};
    use hamlet_ml::NaiveBayesModel;

    fn artifact_with_prior(p: f64) -> ModelArtifact {
        let model = NaiveBayesModel::from_parts(
            vec![0],
            2,
            vec![p.ln(), (1.0 - p).ln()],
            vec![vec![0.9f64.ln(), 0.1f64.ln(), 0.2f64.ln(), 0.8f64.ln()]],
            vec![2],
        );
        ModelArtifact {
            dataset: format!("prior{p}"),
            n_classes: 2,
            class_labels: None,
            features: vec![FeatureSchema {
                name: "x".into(),
                domain_size: 2,
                labels: None,
                fk: None,
            }],
            decisions: vec![],
            model: ServableModel::NaiveBayes(model),
        }
    }

    #[test]
    fn routing_and_default() {
        let r = Registry::single(Scorer::new(artifact_with_prior(0.5)), Duration::ZERO);
        assert!(r.get("default").is_some());
        assert!(r.get("nope").is_none());
        assert_eq!(
            r.default_entry().map(|e| e.id.clone()),
            Some("default".into())
        );
        assert_eq!(r.ids(), vec![("default".into(), 1)]);
    }

    #[test]
    fn swap_is_atomic_and_old_entry_drains_before_release() {
        let r = Registry::single(Scorer::new(artifact_with_prior(0.5)), Duration::ZERO);
        let in_flight = r.get("default").unwrap();
        let weak = Arc::downgrade(&in_flight);

        let gen = r.swap("default", Scorer::new(artifact_with_prior(0.9)), None);
        assert_eq!(gen, 2);
        assert_eq!(r.generation(), 2);
        // The in-flight request still scores against the old artifact…
        assert_eq!(in_flight.scorer.artifact().dataset, "prior0.5");
        // …and the new resolution sees the swapped one.
        assert_eq!(
            r.get("default").unwrap().scorer.artifact().dataset,
            "prior0.9"
        );
        // The old artifact is only released when the last request ends.
        assert!(weak.upgrade().is_some());
        drop(in_flight);
        assert!(
            weak.upgrade().is_none(),
            "old artifact must drain, then free"
        );
    }

    #[test]
    fn reload_from_disk_is_all_or_nothing() {
        let _fp = hamlet_chaos::failpoint::shared();
        let dir = std::env::temp_dir().join(format!("hamlet_registry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.model");
        let b = dir.join("b.model");
        artifact::save(&artifact_with_prior(0.5), &a).unwrap();
        artifact::save(&artifact_with_prior(0.6), &b).unwrap();

        let r = Registry::from_sources(
            &[("a".into(), a.clone()), ("b".into(), b.clone())],
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(r.ids().len(), 2);

        // Swap b's artifact on disk; reload picks it up, bumps generations.
        artifact::save(&artifact_with_prior(0.8), &b).unwrap();
        let report = r.reload().unwrap();
        assert_eq!(report.reloaded, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(report.generation, 2);
        assert_eq!(r.get("b").unwrap().scorer.artifact().dataset, "prior0.8");

        // Corrupt b: reload fails typed and changes nothing.
        std::fs::write(&b, b"{not an artifact").unwrap();
        let before = r.ids();
        let err = r.reload().unwrap_err();
        assert!(
            matches!(err, RegistryError::Load { ref id, .. } if id == "b"),
            "{err}"
        );
        assert_eq!(
            r.ids(),
            before,
            "failed reload must leave the registry untouched"
        );
        assert_eq!(r.get("b").unwrap().scorer.artifact().dataset, "prior0.8");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_artifact_io_is_retried_on_reload() {
        let _g = hamlet_chaos::failpoint::serial();
        let dir =
            std::env::temp_dir().join(format!("hamlet_registry_retry_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.model");
        artifact::save(&artifact_with_prior(0.5), &a).unwrap();
        let r = Registry::from_sources(&[("a".into(), a.clone())], Duration::ZERO).unwrap();

        // The first load attempt faults; the retry (attempt 2) succeeds,
        // so the reload as a whole must too.
        hamlet_chaos::failpoint::set_failpoints("serve.artifact_load=io@1").unwrap();
        let report = r.reload();
        hamlet_chaos::failpoint::clear_failpoints();
        let report = report.unwrap();
        assert_eq!(report.reloaded, vec!["a".to_string()]);
        assert_eq!(r.generation(), 2);

        // A *persistent* IO fault exhausts the retry budget and fails
        // typed, leaving the registry untouched.
        hamlet_chaos::failpoint::set_failpoints("serve.artifact_load=io").unwrap();
        let err = r.reload();
        hamlet_chaos::failpoint::clear_failpoints();
        assert!(
            matches!(err.unwrap_err(), RegistryError::Load { ref id, .. } if id == "a"),
            "persistent IO must fail typed after the retry budget"
        );
        assert_eq!(
            r.generation(),
            2,
            "failed reload must not bump the generation"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_failpoint_aborts_with_the_registry_untouched() {
        let _g = hamlet_chaos::failpoint::serial();
        let r = Registry::single(Scorer::new(artifact_with_prior(0.5)), Duration::ZERO);
        let before = r.ids();
        hamlet_chaos::failpoint::set_failpoints("registry.reload=io").unwrap();
        let err = r.reload();
        hamlet_chaos::failpoint::clear_failpoints();
        assert!(matches!(err.unwrap_err(), RegistryError::Aborted(_)));
        assert_eq!(r.ids(), before);
        assert_eq!(r.generation(), 1);
    }

    #[test]
    fn duplicate_ids_and_empty_sources_are_typed_errors() {
        let _fp = hamlet_chaos::failpoint::shared();
        let dir = std::env::temp_dir().join(format!("hamlet_registry_dup_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.model");
        artifact::save(&artifact_with_prior(0.5), &a).unwrap();
        let dup = Registry::from_sources(
            &[("m".into(), a.clone()), ("m".into(), a.clone())],
            Duration::ZERO,
        );
        assert!(matches!(dup.unwrap_err(), RegistryError::DuplicateId(_)));
        assert!(matches!(
            Registry::from_sources(&[], Duration::ZERO).unwrap_err(),
            RegistryError::Empty
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
