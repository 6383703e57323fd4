//! Peak-allocation contract for factorized tree training, measured with
//! the real counting allocator (installed process-wide for this test
//! binary): growing a CART tree over the star must not allocate
//! anything that scales with the join — its working set is the per-node
//! `n_R x |D_Y|` FK histogram plus row partitions, so the peak *falls*
//! (or at worst stays flat) as fanout rises, while the materialized
//! path keeps paying for the full wide table.

use hamlet::experiments::factorized::fanout_star;
use hamlet::ml::classifier::Classifier;
use hamlet::ml::dataset::Dataset;
use hamlet::ml::CodeSource;
use hamlet::obs::CountingAlloc;
use hamlet::trees::CartTree;

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
fn factorized_tree_peak_allocation_does_not_scale_with_fanout() {
    const N_S: usize = 20_000;
    const D_R: usize = 6;
    // Serial scoring so the measurement sees only the algorithm's own
    // allocations, not worker bookkeeping.
    let tree = CartTree {
        threads: Some(1),
        ..CartTree::default()
    };

    let mut fac_peaks = Vec::new();
    for ratio in [1usize, 10, 100] {
        let star = fanout_star(N_S, ratio, D_R, 42);
        let rows: Vec<usize> = (0..star.n_s()).collect();

        let (m_mat, mat_peak) = peak_delta(|| {
            let wide = star.materialize_all().unwrap();
            let data = Dataset::from_table(&wide);
            let feats: Vec<usize> = (0..data.n_features()).collect();
            tree.fit(&data, &rows, &feats)
        });
        let (m_fac, fac_peak) = peak_delta(|| {
            let view = hamlet::factorized::FactorizedView::new(&star).unwrap();
            let feats: Vec<usize> = (0..view.n_features()).collect();
            tree.fit(&view, &rows, &feats)
        });
        assert_eq!(m_mat, m_fac, "parity broke at ratio {ratio}");
        assert!(
            fac_peak < mat_peak,
            "ratio {ratio}: factorized peak {fac_peak} must undercut \
             materialized peak {mat_peak} (the wide table)"
        );
        fac_peaks.push(fac_peak);
    }

    // The join fanout grew 100x across the sweep; the factorized
    // working set must not follow it. Allow 25% jitter for allocator
    // rounding and Vec growth policies.
    let (first, last) = (fac_peaks[0], fac_peaks[2]);
    assert!(
        (last as f64) <= (first as f64) * 1.25,
        "factorized peak grew with fanout: ratio-1 peak {first} bytes, \
         ratio-100 peak {last} bytes"
    );
}
