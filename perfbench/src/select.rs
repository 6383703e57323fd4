//! `select-walmart`: the paper's Figure 7 shape. Each pass runs the
//! JoinAll and the JoinOpt (TR rule) plans through materialization and
//! the four Naive Bayes feature-selection methods.
//!
//! Both Walmart joins are avoidable, so JoinOpt does a small fraction of
//! JoinAll's work; the count kernels run over contiguous low-cardinality
//! codes. No CSV, discovery, trees or HTTP.

use std::time::Instant;

use hamlet_core::planner::{plan, PlanKind};
use hamlet_core::rules::TrRule;
use hamlet_datagen::realistic::DatasetSpec;
use hamlet_fs::{FilterScore, SelectionContext, SelectionResult, SweepEngine};
use hamlet_ml::{Dataset, ErrorMetric, HoldoutSplit, NaiveBayes};
use hamlet_relational::StarSchema;

use crate::harness::{Pass, Tracer, Workload};
use crate::Config;

/// The two plans of Figure 7, with the spans that time each arm.
const PLANS: [(PlanKind, &str); 2] = [
    (PlanKind::JoinAll, "feature_selection.joinall_s"),
    (PlanKind::JoinOpt, "feature_selection.joinopt_s"),
];

pub struct Select {
    star: StarSchema,
    split: HoldoutSplit,
    /// `[plan][forward, backward, MI filter, IGR filter]` from a
    /// 1-worker sweep engine.
    reference: Vec<[SelectionResult; 4]>,
    /// Model fits one pass makes (from the reference).
    fits: usize,
}

/// Runs one plan arm: plan, materialize, build the dataset, then the
/// four selection methods over one shared sweep engine.
fn run_plan(
    star: &StarSchema,
    split: &HoldoutSplit,
    kind: PlanKind,
    threads: Option<usize>,
    t: &mut Tracer,
) -> Result<[SelectionResult; 4], String> {
    let p = t.span("core.advise_s", || {
        plan(star, kind, &TrRule::default(), split.train.len())
    });
    let table = t
        .span("relational.materialize_s", || p.materialize(star))
        .map_err(|e| e.to_string())?;
    let data = t.span("ml.dataset_s", || Dataset::from_table(&table));
    if kind == PlanKind::JoinAll && t.enabled() {
        let cells = table.n_rows() * table.schema().attributes().len();
        t.value("relational.materialize_cells", cells as f64);
    }
    if kind == PlanKind::JoinOpt {
        t.value("core.joins_avoided", p.avoided(star).len() as f64);
    }
    drop(table);
    let nb = NaiveBayes::default();
    let ctx = SelectionContext {
        data: &data,
        train: &split.train,
        validation: &split.validation,
        classifier: &nb,
        metric: ErrorMetric::for_classes(data.n_classes()),
    };
    let candidates: Vec<usize> = (0..data.n_features()).collect();
    let engine = match threads {
        Some(n) => SweepEngine::new(&ctx).with_threads(n),
        None => SweepEngine::new(&ctx),
    };
    let forward = t.span("feature_selection.forward_s", || {
        engine.forward(&candidates)
    });
    let backward = t.span("feature_selection.backward_s", || {
        engine.backward(&candidates)
    });
    let mi = t.span("feature_selection.filter_s", || {
        engine.filter(&candidates, FilterScore::MutualInformation)
    });
    let igr = t.span("feature_selection.filter_s", || {
        engine.filter(&candidates, FilterScore::InformationGainRatio)
    });
    Ok([forward, backward, mi, igr])
}

pub fn setup(cfg: &Config, _tracer: &mut Tracer) -> Result<Select, String> {
    let star = DatasetSpec::walmart().generate(cfg.scale, cfg.seed).star;
    let split = HoldoutSplit::paper_protocol(star.n_s(), cfg.seed);
    let mut reference = Vec::with_capacity(PLANS.len());
    for (kind, _) in PLANS {
        reference.push(run_plan(&star, &split, kind, Some(1), &mut Tracer::off())?);
    }
    if cfg.corrupt_references {
        for r in &mut reference {
            r[0].model_fits += 1;
        }
    }
    let fits = reference.iter().flatten().map(|r| r.model_fits).sum();
    Ok(Select {
        star,
        split,
        reference,
        fits,
    })
}

impl Workload for Select {
    /// The unit operation is one model fit, the runtime unit of the
    /// paper's Figure 7: a pass's latency sample is its wall time per
    /// fit and its rows are the entity rows each fit covers. How many
    /// fits a greedy search makes depends on the data, so this keeps a
    /// seed whose search takes more steps from reading as slower.
    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let started = Instant::now();
        let mut results = Vec::with_capacity(PLANS.len());
        for (kind, arm) in PLANS {
            let arm_started = Instant::now();
            results.push(run_plan(&self.star, &self.split, kind, None, t));
            t.value(arm, arm_started.elapsed().as_secs_f64());
        }
        pass.wall_s = started.elapsed().as_secs_f64();

        for (got, want) in results.iter().zip(&self.reference) {
            match got {
                Ok(got) => got.iter().zip(want).for_each(|(g, w)| pass.check(g == w)),
                Err(_) => pass.check(false),
            }
        }
        t.value("feature_selection.model_fits", self.fits as f64);
        let fits = self.fits.max(1);
        pass.rows = (self.star.n_s() * fits) as u64;
        pass.latency_s = pass.wall_s / fits as f64;
        pass
    }
}
