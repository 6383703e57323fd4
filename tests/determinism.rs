//! Determinism golden tests: every generator and every experiment
//! estimate is a pure function of its seed. These lock the exact
//! behaviour so refactors that accidentally perturb sampling order are
//! caught immediately. (If you *intend* to change a generator, update
//! the digests here and note it in EXPERIMENTS.md — every published
//! number depends on them.)

use hamlet::datagen::realistic::DatasetSpec;
use hamlet::datagen::sim::{Scenario, SimulationConfig};
use hamlet::datagen::skew::FkSkew;

/// FNV-1a over a code sequence: a stable, dependency-free digest.
fn digest(codes: &[u32]) -> u64 {
    codes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
        (h ^ c as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

#[test]
fn realistic_generation_digests_are_stable() {
    // Digest of each dataset's label vector at (scale 0.01, seed 1).
    for (name, expected) in [
        ("Walmart", None::<u64>),
        ("Yelp", None),
        ("MovieLens1M", None),
    ] {
        let spec = DatasetSpec::by_name(name).expect("known dataset");
        let a = digest(
            spec.generate(0.01, 1)
                .star
                .entity()
                .target_column()
                .unwrap()
                .codes(),
        );
        let b = digest(
            spec.generate(0.01, 1)
                .star
                .entity()
                .target_column()
                .unwrap()
                .codes(),
        );
        assert_eq!(a, b, "{name}: generation not reproducible");
        if let Some(e) = expected {
            assert_eq!(a, e, "{name}: digest changed");
        }
        // Different seed must change the data.
        let c = digest(
            spec.generate(0.01, 2)
                .star
                .entity()
                .target_column()
                .unwrap()
                .codes(),
        );
        assert_ne!(a, c, "{name}: seed has no effect");
    }
}

#[test]
fn simulation_sampling_is_reproducible_end_to_end() {
    let cfg = SimulationConfig {
        scenario: Scenario::LoneForeignFeature,
        d_s: 2,
        d_r: 3,
        n_r: 20,
        p: 0.1,
        skew: FkSkew::Zipf { exponent: 1.0 },
    };
    let one = || {
        let world = cfg.build_world(9);
        let s = world.sample(500, 10);
        (
            digest(s.star.entity().target_column().unwrap().codes()),
            digest(s.star.entity().column_by_name("FK").unwrap().codes()),
        )
    };
    assert_eq!(one(), one());
}

#[test]
fn experiment_estimates_are_reproducible() {
    use hamlet::experiments::{simulate, MonteCarloOpts};
    let cfg = SimulationConfig {
        scenario: Scenario::LoneForeignFeature,
        d_s: 2,
        d_r: 2,
        n_r: 10,
        p: 0.1,
        skew: FkSkew::Uniform,
    };
    let opts = MonteCarloOpts {
        train_sets: 5,
        repeats: 2,
        base_seed: 42,
    };
    let a = simulate(&cfg, 300, &opts);
    let b = simulate(&cfg, 300, &opts);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.test_error, y.test_error);
        assert_eq!(x.net_variance, y.net_variance);
    }
}

/// The engine-backed selection paths must equal the seed serial
/// implementations whatever `HAMLET_THREADS` resolves to for this
/// process — CI runs this test once with `HAMLET_THREADS=1` and once
/// with `HAMLET_THREADS=8` to pin the bit-for-bit determinism contract
/// at the process level (the in-process sweep over worker counts lives
/// in `proptests_selection.rs`).
#[test]
fn selection_at_resolved_threads_matches_reference() {
    use hamlet::fs::{reference, Method, SelectionContext};
    use hamlet::ml::classifier::ErrorMetric;
    use hamlet::ml::dataset::Dataset;
    use hamlet::ml::naive_bayes::NaiveBayes;
    use hamlet::ml::split::HoldoutSplit;

    let g = DatasetSpec::walmart().generate(0.004, 11);
    let table = g
        .star
        .materialize_all()
        .expect("synthetic star materializes");
    let data = Dataset::from_table(&table);
    let split = HoldoutSplit::paper_protocol(data.n_examples(), 11);
    let nb = NaiveBayes::default();
    let ctx = SelectionContext {
        data: &data,
        train: &split.train,
        validation: &split.validation,
        classifier: &nb,
        metric: ErrorMetric::for_classes(data.n_classes()),
    };
    let candidates: Vec<usize> = (0..data.n_features()).collect();
    for method in Method::ALL {
        let engine_result = method.run(&ctx, &candidates);
        let serial = reference::run_method(method, &ctx, &candidates);
        assert_eq!(
            engine_result,
            serial,
            "{} diverged from the serial reference at HAMLET_THREADS={:?}",
            method.name(),
            std::env::var("HAMLET_THREADS").ok()
        );
    }
}

/// The same contract where the validation set spans several of the
/// Naive Bayes sweep's row blocks (2048 rows each; about 8,400 rows
/// here), so the per-block error totals really merge: every method,
/// filters included, must equal the serial reference whatever
/// `HAMLET_THREADS` resolves to. CI runs it at 1 and 8 threads.
#[test]
fn selection_over_many_row_blocks_matches_reference() {
    use hamlet::fs::{reference, Method, SelectionContext};
    use hamlet::ml::classifier::ErrorMetric;
    use hamlet::ml::dataset::Dataset;
    use hamlet::ml::naive_bayes::NaiveBayes;
    use hamlet::ml::split::HoldoutSplit;

    let g = DatasetSpec::walmart().generate(0.08, 11);
    let table = g
        .star
        .materialize_all()
        .expect("synthetic star materializes");
    let data = Dataset::from_table(&table);
    let split = HoldoutSplit::paper_protocol(data.n_examples(), 11);
    assert!(
        split.validation.len() > 4 * 2048,
        "{}",
        split.validation.len()
    );
    let nb = NaiveBayes::default();
    let ctx = SelectionContext {
        data: &data,
        train: &split.train,
        validation: &split.validation,
        classifier: &nb,
        metric: ErrorMetric::for_classes(data.n_classes()),
    };
    let candidates: Vec<usize> = (0..data.n_features()).collect();
    for method in Method::ALL {
        assert_eq!(
            method.run(&ctx, &candidates),
            reference::run_method(method, &ctx, &candidates),
            "{} diverged from the serial reference at HAMLET_THREADS={:?}",
            method.name(),
            std::env::var("HAMLET_THREADS").ok()
        );
    }
}

/// Tree-based selection under the same contract: CART sweeps through
/// the engine must equal the serial reference whatever `HAMLET_THREADS`
/// resolves to — CI's `trees-smoke` job runs this once at
/// `HAMLET_THREADS=1` and once at `HAMLET_THREADS=8`, so equality with
/// the (thread-free) reference at both pins the sweep bit-for-bit.
#[test]
fn tree_selection_at_resolved_threads_matches_reference() {
    use hamlet::fs::{reference, Method, SelectionContext};
    use hamlet::ml::classifier::ErrorMetric;
    use hamlet::ml::dataset::Dataset;
    use hamlet::ml::split::HoldoutSplit;
    use hamlet::trees::CartTree;

    let g = DatasetSpec::walmart().generate(0.004, 11);
    let table = g
        .star
        .materialize_all()
        .expect("synthetic star materializes");
    let data = Dataset::from_table(&table);
    let split = HoldoutSplit::paper_protocol(data.n_examples(), 11);
    let cart = CartTree::default();
    let ctx = SelectionContext {
        data: &data,
        train: &split.train,
        validation: &split.validation,
        classifier: &cart,
        metric: ErrorMetric::for_classes(data.n_classes()),
    };
    let candidates: Vec<usize> = (0..data.n_features()).collect();
    for method in [Method::Forward, Method::Backward] {
        let engine_result = method.run(&ctx, &candidates);
        let serial = reference::run_method(method, &ctx, &candidates);
        assert_eq!(
            engine_result,
            serial,
            "tree {} diverged from the serial reference at HAMLET_THREADS={:?}",
            method.name(),
            std::env::var("HAMLET_THREADS").ok()
        );
    }
}

#[test]
fn splits_and_selection_are_reproducible() {
    use hamlet::experiments::{join_opt_plan, prepare_plan, run_method};
    use hamlet::fs::Method;
    let g = DatasetSpec::walmart().generate(0.005, 4);
    let one = || {
        let prepared = prepare_plan(&g.star, join_opt_plan(&g.star, 4), 4)
            .expect("synthetic star materializes");
        let r = run_method(&prepared, Method::Forward);
        (r.selection.features.clone(), r.test_error.to_bits())
    };
    assert_eq!(one(), one());
}
