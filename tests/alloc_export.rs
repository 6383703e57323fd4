//! Peak-allocation contract for model export, measured with the real
//! counting allocator (installed process-wide for this test binary):
//! `build_artifact` trains, scores and describes the model on a
//! factorized view, so even with the join kept it never allocates the
//! wide table, and its peak barely moves as the kept table gains
//! foreign features, while the wide table grows by `n_S` cells per
//! feature.

use hamlet::core::advisor::AdvisorConfig;
use hamlet::core::rules::TrRule;
use hamlet::experiments::factorized::fanout_star;
use hamlet::obs::CountingAlloc;
use hamlet::serve::{build_artifact, ModelKind};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak extra bytes allocated while running `f`, over the live baseline.
fn peak_delta<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOC.reset_peak();
    let before = ALLOC.current();
    let out = f();
    (out, ALLOC.peak().saturating_sub(before))
}

#[test]
fn export_peak_stays_below_the_wide_table_and_flat_in_foreign_features() {
    const N_S: usize = 40_000;
    const RATIO: usize = 100;
    // Keep the join whatever its tuple ratio, so every foreign feature
    // is a model input.
    let config = AdvisorConfig {
        tr: TrRule { tau: f64::INFINITY },
        ..AdvisorConfig::default()
    };
    for kind in [ModelKind::NaiveBayes, ModelKind::Gbt] {
        let mut peaks = Vec::new();
        for d_r in [4usize, 32] {
            let star = fanout_star(N_S, RATIO, d_r, 7);
            let wide_bytes = {
                let wide = star.materialize(&[0]).unwrap();
                wide.n_rows() * wide.schema().len() * std::mem::size_of::<u32>()
            };
            let (built, peak) = peak_delta(|| build_artifact(&star, kind, &config, "fanout"));
            let built = built.unwrap();
            assert!(!built.artifact.decisions[0].avoid, "the join must be kept");
            assert_eq!(built.artifact.features.len(), 2 + d_r);
            if d_r == 32 {
                assert!(
                    peak < wide_bytes,
                    "{} with {d_r} foreign features: export peak {peak} bytes must undercut \
                     the {wide_bytes}-byte wide table",
                    kind.name()
                );
            }
            peaks.push((peak, wide_bytes));
        }
        // The wide table grew by N_S cells per added feature; the
        // export may grow only by what scales with n_R (the Others
        // revision's copy of the attribute table, per-feature model
        // tables), a small fraction of that.
        let ((first, wide_first), (last, wide_last)) = (peaks[0], peaks[1]);
        let growth = last.saturating_sub(first);
        assert!(
            growth * 10 < wide_last - wide_first,
            "{}: export peak grew {growth} bytes ({first} -> {last}) while the wide table \
             grew {} bytes",
            kind.name(),
            wide_last - wide_first
        );
    }
}
