//! `pipeline-yelp`: raw CSVs to served predictions, the way the `hamlet`
//! CLI chains `discover`, `advise`, `train --strategy factorize`,
//! `save-model` and `predict`.
//!
//! Yelp keeps both joins (tuple ratios 9.36 and 2.46 against tau = 20),
//! so ingest, discovery, the FK folds and GBT all do work while feature
//! selection does none.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hamlet_core::advisor::{advise, AdvisorConfig};
use hamlet_core::ModelFamily;
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_discovery::{discover_dir, DiscoveryConfig};
use hamlet_factorized::{fit_factorized_nb, FactorizedView};
use hamlet_ml::{zero_one_error, Classifier, Dataset, NaiveBayes, NaiveBayesModel};
use hamlet_relational::{write_csv, DirtyPolicy, FkPolicy, LoadPolicy, StarSchema, TablePolicy};
use hamlet_serve::{artifact, build_artifact, ModelArtifact, ModelKind, Prediction, Scorer};
use hamlet_trees::{fit_factorized_gbt, Gbt, GbtModel};

use crate::harness::{Pass, Tracer, Workload};
use crate::Config;

/// Everything a pass is checked against, made once in set-up.
struct Reference {
    manifest_text: String,
    nb: NaiveBayesModel,
    gbt: GbtModel,
    nb_error: f64,
    gbt_error: f64,
    artifact: ModelArtifact,
    predictions: Vec<Prediction>,
}

pub struct Pipeline {
    corpus: PathBuf,
    model_path: PathBuf,
    discovery: DiscoveryConfig,
    policy: LoadPolicy,
    advisor: AdvisorConfig,
    n_rows: u64,
    corpus_mb: f64,
    train: Vec<usize>,
    test: Vec<usize>,
    /// Every feature of the joined layout (the model inputs).
    feats: Vec<usize>,
    /// Holdout rows coded in the artifact's feature order.
    holdout: Vec<Vec<u32>>,
    reference: Reference,
}

/// The CLI's discovery load policy: quarantine dirty rows and map FKs
/// they strand to `Others`, so a schema mined within tolerance loads.
fn load_policy(cfg: &DiscoveryConfig) -> LoadPolicy {
    LoadPolicy {
        on_dirty: cfg.on_dirty,
        on_dangling_fk: match cfg.on_dirty {
            DirtyPolicy::Abort => FkPolicy::Abort,
            DirtyPolicy::Quarantine { .. } => FkPolicy::MapToOthers,
        },
        on_missing_table: TablePolicy::Require,
    }
}

/// Writes the star as one CSV per base table; returns the bytes written.
fn write_corpus(star: &StarSchema, dir: &Path) -> Result<u64, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut bytes = 0u64;
    let tables = std::iter::once(star.entity()).chain(star.attributes().iter().map(|a| &a.table));
    for table in tables {
        let path = dir.join(format!("{}.csv", table.name().to_lowercase()));
        let text = write_csv(table, ',');
        bytes += text.len() as u64;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(bytes)
}

/// Codes of `rows` in the dataset's feature order.
pub fn coded_rows(data: &Dataset, rows: &[usize]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|&r| data.features().iter().map(|f| f.codes[r]).collect())
        .collect()
}

/// Checks that `data`'s features are the artifact's input schema.
pub fn check_schema(data: &Dataset, artifact: &ModelArtifact) -> Result<(), String> {
    let names: Vec<&str> = data.features().iter().map(|f| f.name.as_str()).collect();
    let served: Vec<&str> = artifact.features.iter().map(|f| f.name.as_str()).collect();
    if names == served {
        Ok(())
    } else {
        Err(format!(
            "artifact schema {served:?} differs from dataset {names:?}"
        ))
    }
}

pub fn setup(cfg: &Config, _tracer: &mut Tracer) -> Result<Pipeline, String> {
    let spec = DatasetSpec::yelp();
    let g = spec.generate(cfg.scale, cfg.seed);
    let corpus = cfg.work_dir.join("corpus");
    let corpus_bytes = write_corpus(&g.star, &corpus)?;
    drop(g);

    let discovery = DiscoveryConfig {
        target: Some(spec.target.to_string()),
        threads: hamlet_obs::env::resolved_threads(),
        ..DiscoveryConfig::default()
    };
    let policy = load_policy(&discovery);
    let advisor = AdvisorConfig::for_family(ModelFamily::NaiveBayes);
    let d = discover_dir(&corpus, &discovery).map_err(|e| e.to_string())?;
    let star = d
        .manifest
        .load_policy(&corpus, &policy)
        .map_err(|e| e.to_string())?
        .star;
    let report = advise(&star, star.n_s() / 2, &advisor).map_err(|e| e.to_string())?;

    let perm: Vec<usize> = (0..star.n_s()).collect();
    let split = star.split_rows(&perm, 0.5, 0.25);
    let wide = star.materialize_all().map_err(|e| e.to_string())?;
    let data = Dataset::from_table(&wide);
    let feats: Vec<usize> = (0..data.n_features()).collect();
    let nb = NaiveBayes::default().fit(&data, &split.train, &feats);
    let gbt = Gbt::from_env().fit(&data, &split.train, &feats);
    let nb_error = zero_one_error(&nb, &data, &split.test);
    let gbt_error = zero_one_error(&gbt, &data, &split.test);
    drop((wide, data));

    let built = build_artifact(&star, ModelKind::NaiveBayes, &advisor, &d.report.entity)
        .map_err(|e| e.to_string())?;
    let kept = report.plan().joined;
    let served = Dataset::from_table(&star.materialize(&kept).map_err(|e| e.to_string())?);
    check_schema(&served, &built.artifact)?;
    let holdout = coded_rows(&served, &split.test);
    let predictions = Scorer::new(built.artifact.clone())
        .predict_codes(&holdout)
        .map_err(|e| e.to_string())?;

    let mut reference = Reference {
        manifest_text: d.manifest_text,
        nb,
        gbt,
        nb_error,
        gbt_error,
        artifact: built.artifact,
        predictions,
    };
    if cfg.corrupt_references {
        reference.manifest_text.push('\n');
        reference.predictions.pop();
    }
    Ok(Pipeline {
        model_path: cfg.work_dir.join("pipeline.model"),
        corpus,
        discovery,
        policy,
        advisor,
        n_rows: star.n_s() as u64,
        corpus_mb: corpus_bytes as f64 / 1e6,
        train: split.train,
        test: split.test,
        feats,
        holdout,
        reference,
    })
}

impl Workload for Pipeline {
    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let mut pass = Pass {
            rows: self.n_rows,
            ..Pass::default()
        };
        let mut ok = true;
        let mut wall = 0.0;
        let mut timed = Instant::now();
        let r = &self.reference;

        let d = t.span_alloc("discovery.discover_s", "discovery.peak_alloc_mb", || {
            discover_dir(&self.corpus, &self.discovery)
        });
        let d = match d {
            Ok(d) => d,
            Err(_) => return pass.failed_at(timed),
        };
        let load = t.span_alloc("relational.load_s", "relational.load_peak_alloc_mb", || {
            d.manifest.load_policy(&self.corpus, &self.policy)
        });
        let load = match load {
            Ok(l) => l,
            Err(_) => return pass.failed_at(timed),
        };
        let star = &load.star;
        let report = t.span("core.advise_s", || {
            advise(star, star.n_s() / 2, &self.advisor)
        });
        let view = t.span("factorized.view_s", || FactorizedView::new(star));
        let (report, view) = match (report, view) {
            (Ok(r), Ok(v)) => (r, v),
            _ => return pass.failed_at(timed),
        };
        let nb = t.span("factorized.fit_nb_s", || {
            fit_factorized_nb(&view, &NaiveBayes::default(), &self.train, &self.feats)
        });
        let gbt = t.span_alloc("trees.fit_gbt_s", "trees.fit_gbt_peak_alloc_mb", || {
            fit_factorized_gbt(&view, &Gbt::from_env(), &self.train, &self.feats)
        });
        let errors = t.span("ml.eval_s", || {
            nb.as_ref().ok().map(|m| {
                (
                    zero_one_error(m, &view, &self.test),
                    zero_one_error(&gbt, &view, &self.test),
                )
            })
        });
        let built = t.span("serve.build_artifact_s", || {
            build_artifact(star, ModelKind::NaiveBayes, &self.advisor, &d.report.entity)
        });
        let built = match built {
            Ok(b) => b,
            Err(_) => return pass.failed_at(timed),
        };
        let saved = t.span("serve.save_s", || {
            artifact::save(&built.artifact, &self.model_path)
        });
        let scorer = t.span("serve.load_s", || {
            artifact::load(&self.model_path).map(Scorer::new)
        });
        let predictions = scorer.as_ref().ok().and_then(|s| {
            t.span("serve.score_s", || s.predict_codes(&self.holdout))
                .ok()
        });
        wall += timed.elapsed().as_secs_f64();

        // Checks and trace counts, off the clock.
        ok &= d.manifest_text == r.manifest_text;
        ok &= nb.as_ref().is_ok_and(|m| *m == r.nb);
        ok &= gbt == r.gbt;
        ok &= errors == Some((r.nb_error, r.gbt_error));
        ok &= built.artifact == r.artifact;
        ok &= saved.is_ok();
        ok &= scorer
            .as_ref()
            .is_ok_and(|s| *s.artifact() == built.artifact);
        ok &= predictions.as_ref() == Some(&r.predictions);
        if t.enabled() {
            let accepted_fks = d.report.accepted_fks().count();
            let accepted_fds = d.report.accepted_fds().count();
            t.value("discovery.fk_candidates", d.report.fks.len() as f64);
            t.value(
                "discovery.fk_accept_ratio",
                ratio(accepted_fks, d.report.fks.len()),
            );
            t.value("discovery.fd_checks", d.report.fds.len() as f64);
            t.value(
                "discovery.fd_accept_ratio",
                ratio(accepted_fds, d.report.fds.len()),
            );
            let rows = star.n_s()
                + star
                    .attributes()
                    .iter()
                    .map(|a| a.table.n_rows())
                    .sum::<usize>();
            t.value("relational.load_rows", rows as f64);
            t.value("relational.load_mb", self.corpus_mb);
            let quarantined: usize = load.quarantine.iter().map(|q| q.rows.len()).sum();
            t.value("relational.quarantined_rows", quarantined as f64);
            let avoided = report.joins.iter().filter(|j| j.avoid).count();
            t.value("core.joins_avoided", avoided as f64);
            t.value("factorized.cells_avoided", view.cells_avoided() as f64);
            let kb = std::fs::metadata(&self.model_path).map_or(0, |m| m.len());
            t.value("serve.artifact_kb", kb as f64 / 1e3);
            t.value("serve.score_rows", self.holdout.len() as f64);
        }
        timed = Instant::now();
        drop(view);
        drop((load, d, built, scorer));
        wall += timed.elapsed().as_secs_f64();
        pass.wall_s = wall;
        pass.latency_s = wall;
        pass.check(ok);
        pass
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
