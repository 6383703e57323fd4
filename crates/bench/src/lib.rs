//! # hamlet-bench
//!
//! Criterion benchmarks for the "To Join or Not to Join?" reproduction.
//! Bench targets (see `benches/`):
//!
//! * `rules` — cost of the metadata-only decision rules (the paper's
//!   "fast" desideratum): worst-case ROR, tuple ratio, full 15-table
//!   decision sweep;
//! * `relational` — KFK join / materialization throughput per plan;
//! * `classifiers` — Naive Bayes, logistic regression, and TAN training
//!   throughput on joined data;
//! * `selection_fig7` — the Figure 7(B) runtime claim: feature-selection
//!   wall-clock JoinAll vs JoinOpt per method;
//! * `figures` — one bench per paper figure, timing the regeneration of
//!   its rows at micro replication (`fig3` ... `fig13`, `tan_appendix`);
//! * `extensions` — the advisor, star decomposition, FD inference, CSV
//!   parsing, the decision tree and the skew detector;
//! * `factorized` — factorized vs materialized Naive Bayes and logistic
//!   regression training across tuple ratios;
//! * `selection_speedup` — cached, parallel wrapper selection vs the
//!   row-scanning seed path (`BENCH_selection.json`);
//! * `serve` — artifact scoring latency, one request end to end and the
//!   artifact round trip (`BENCH_serve.json`);
//! * `trees` — factorized vs materialized CART and GBT across tuple
//!   ratios (`BENCH_trees.json`);
//! * `discovery` — schema mining end to end and its ingest/verify
//!   stages (`BENCH_discovery.json`);
//! * `dataplane` — count-kernel speedup and budgeted streaming ingest
//!   (`BENCH_dataplane.json`).
//!
//! The `loadgen` binary (`src/bin/`) drives a live server and merges a
//! `"load"` section into `BENCH_serve.json`. Every `BENCH_*.json` goes
//! through [`report`]. Shared fixtures live here so every bench
//! measures the same shapes.

pub mod report;

use hamlet_datagen::realistic::{DatasetSpec, GeneratedDataset};
use hamlet_experiments::MonteCarloOpts;

/// The scale used by benches: small enough for tight iterations, large
/// enough that tuple ratios keep their full-scale values.
pub const BENCH_SCALE: f64 = 0.01;

/// Fixed bench seed.
pub const BENCH_SEED: u64 = 1828; // the paper's tech-report number

/// Micro Monte-Carlo options for figure-regeneration benches.
pub fn micro_mc() -> MonteCarloOpts {
    MonteCarloOpts {
        train_sets: 4,
        repeats: 1,
        base_seed: BENCH_SEED,
    }
}

/// A bench-scale Walmart (both joins safe to avoid).
pub fn walmart() -> GeneratedDataset {
    DatasetSpec::walmart().generate(BENCH_SCALE, BENCH_SEED)
}

/// A bench-scale Yelp (no join safe to avoid).
pub fn yelp() -> GeneratedDataset {
    DatasetSpec::yelp().generate(BENCH_SCALE, BENCH_SEED)
}

/// A bench-scale MovieLens1M (hidden-FK signal, both joins avoidable).
pub fn movielens() -> GeneratedDataset {
    DatasetSpec::movielens().generate(BENCH_SCALE, BENCH_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_generate() {
        assert!(walmart().star.n_s() > 1000);
        assert!(yelp().star.k() == 2);
        assert!(movielens().star.n_s() > 5000);
        assert!(micro_mc().train_sets > 0);
    }
}
