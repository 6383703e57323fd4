//! Foreign-key skew detection (appendix D).
//!
//! The default guard in [`crate::rules`] is the conservative `H(Y)`
//! check. Appendix D notes a sharper option: "it is possible to detect
//! malign skews using `H(FK|Y)`". This module implements both signals
//! over actual columns, so an analyst (or the ablation experiment) can
//! compare the conservative guard with the targeted detector:
//!
//! * **benign** skew — `P(FK)` is skewed but every class spreads over
//!   many FK values; `H(FK | Y = y)` stays close to `H(FK)` for all `y`;
//! * **malign** skew — some (typically rare) class concentrates on a
//!   handful of FK values ("the needle"); for that class
//!   `H(FK | Y = y)` collapses, so `min_y H(FK|Y=y) / H(FK)` drops.

use hamlet_ml::info::{entropy_of_counts, mutual_information_of_counts};

/// Skew diagnostics for one foreign key against the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewReport {
    /// `H(Y)` in bits.
    pub h_y: f64,
    /// `H(FK)` in bits.
    pub h_fk: f64,
    /// `H(FK | Y)` in bits (averaged over classes).
    pub h_fk_given_y: f64,
    /// `min_y H(FK | Y = y) / H(FK)` — the malign-skew signal (low means
    /// some class sits on very few FK values).
    pub retention: f64,
}

/// Default retention floor below which skew is classified malign: the
/// needle-and-thread distributions of Fig 13(B) fall well under this,
/// while Zipf skews (benign) and ordinary informative FKs stay above it.
pub const MALIGN_RETENTION_FLOOR: f64 = 0.5;

/// Computes skew diagnostics for a foreign-key column and a label column
/// over the given rows, from one `count(FK, Y)` table: `H(Y)`, `H(FK)`
/// and `H(FK|Y) = H(FK) − I(FK;Y)` read its margins, the retention its
/// per-class rows.
pub fn diagnose_skew(
    fk_codes: &[u32],
    fk_domain: usize,
    y_codes: &[u32],
    n_classes: usize,
    rows: &[usize],
) -> SkewReport {
    let mut per_class = vec![vec![0u64; fk_domain]; n_classes];
    for &r in rows {
        per_class[y_codes[r] as usize][fk_codes[r] as usize] += 1;
    }
    let y_counts: Vec<u64> = per_class.iter().map(|counts| counts.iter().sum()).collect();
    let fk_counts: Vec<u64> = (0..fk_domain)
        .map(|fk| per_class.iter().map(|counts| counts[fk]).sum())
        .collect();
    let h_y = entropy_of_counts(&y_counts);
    let h_fk = entropy_of_counts(&fk_counts);
    let h_fk_given_y = h_fk
        - mutual_information_of_counts(rows.len(), &fk_counts, &y_counts, |fk, y| per_class[y][fk]);

    // Per-class conditional entropy H(FK | Y = y).
    let min_h = per_class
        .iter()
        .filter(|counts| counts.iter().any(|&c| c > 0))
        .map(|counts| entropy_of_counts(counts))
        .fold(f64::INFINITY, f64::min);
    let retention = if h_fk > 0.0 && min_h.is_finite() {
        min_h / h_fk
    } else {
        1.0
    };
    SkewReport {
        h_y,
        h_fk,
        h_fk_given_y,
        retention,
    }
}

impl SkewReport {
    /// Whether the skew is malign under the targeted detector.
    pub fn is_malign(&self, retention_floor: f64) -> bool {
        self.retention < retention_floor
    }

    /// Whether the paper's conservative guard would fire
    /// (`H(Y) < 0.5` bits).
    pub fn conservative_guard_fires(&self) -> bool {
        self.h_y < crate::rules::SKEW_GUARD_ENTROPY_BITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Needle-and-thread: FK 0 carries half the mass and is the only FK
    /// with label 0; the rest share label 1.
    fn malign_instance(n: usize, n_fk: usize) -> (Vec<u32>, Vec<u32>) {
        let mut fk = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            if i % 2 == 0 {
                fk.push(0);
                y.push(0);
            } else {
                fk.push(1 + ((i / 2) % (n_fk - 1)) as u32);
                y.push(1);
            }
        }
        (fk, y)
    }

    /// Zipf-ish benign skew: FK mass is skewed but labels alternate
    /// independently of FK.
    fn benign_instance(n: usize, n_fk: usize) -> (Vec<u32>, Vec<u32>) {
        let mut fk = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            // Roughly geometric FK mass.
            let mut v = 0;
            let mut m = i % 16;
            while m > 0 && v + 1 < n_fk {
                v += 1;
                m /= 2;
            }
            fk.push(v as u32);
            y.push((i % 2) as u32);
        }
        (fk, y)
    }

    #[test]
    fn malign_skew_detected() {
        let (fk, y) = malign_instance(4000, 41);
        let rows: Vec<usize> = (0..4000).collect();
        let r = diagnose_skew(&fk, 41, &y, 2, &rows);
        assert!(
            r.is_malign(MALIGN_RETENTION_FLOOR),
            "retention {} should be malign",
            r.retention
        );
        // The conservative guard does NOT fire here: H(Y) = 1 bit.
        assert!(!r.conservative_guard_fires());
    }

    #[test]
    fn benign_skew_not_flagged() {
        let (fk, y) = benign_instance(4000, 41);
        let rows: Vec<usize> = (0..4000).collect();
        let r = diagnose_skew(&fk, 41, &y, 2, &rows);
        assert!(
            !r.is_malign(MALIGN_RETENTION_FLOOR),
            "retention {} should be benign",
            r.retention
        );
    }

    #[test]
    fn uniform_fk_has_full_retention() {
        let fk: Vec<u32> = (0..1000u32).map(|i| i % 10).collect();
        let y: Vec<u32> = (0..1000u32).map(|i| (i / 10) % 2).collect();
        let rows: Vec<usize> = (0..1000).collect();
        let r = diagnose_skew(&fk, 10, &y, 2, &rows);
        assert!(
            (r.retention - 1.0).abs() < 0.01,
            "retention {}",
            r.retention
        );
        assert!((r.h_fk - (10f64).log2()).abs() < 0.01);
    }

    /// The row-scan formulas the count-table build replaced: every float
    /// must match them bit for bit, since the integers and the summation
    /// order are the same.
    #[test]
    fn one_count_table_matches_the_row_scan_formulas_bit_for_bit() {
        use hamlet_ml::info::{conditional_entropy, entropy};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(20160626);
        for case in 0..200 {
            let n = rng.gen_range(0..300usize);
            let fk_domain = rng.gen_range(1..40usize);
            let n_classes = rng.gen_range(1..5usize);
            let fk: Vec<u32> = (0..n).map(|_| rng.gen_range(0..fk_domain as u32)).collect();
            let y: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n_classes as u32)).collect();
            let rows: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.7)).collect();
            let r = diagnose_skew(&fk, fk_domain, &y, n_classes, &rows);
            let h_y = entropy(&y, n_classes, &rows);
            let h_fk = entropy(&fk, fk_domain, &rows);
            let h_fk_given_y = conditional_entropy(&fk, fk_domain, &y, n_classes, &rows);
            assert_eq!(r.h_y.to_bits(), h_y.to_bits(), "case {case}: H(Y)");
            assert_eq!(r.h_fk.to_bits(), h_fk.to_bits(), "case {case}: H(FK)");
            assert_eq!(
                r.h_fk_given_y.to_bits(),
                h_fk_given_y.to_bits(),
                "case {case}: H(FK|Y)"
            );
        }
        let empty = diagnose_skew(&[], 3, &[], 2, &[]);
        assert_eq!((empty.h_y, empty.h_fk, empty.h_fk_given_y), (0.0, 0.0, 0.0));
        assert_eq!(empty.retention, 1.0);
    }

    #[test]
    fn constant_fk_degenerate_case() {
        let fk = vec![0u32; 100];
        let y: Vec<u32> = (0..100u32).map(|i| i % 2).collect();
        let rows: Vec<usize> = (0..100).collect();
        let r = diagnose_skew(&fk, 5, &y, 2, &rows);
        assert_eq!(r.retention, 1.0); // H(FK)=0 -> defined as benign
        assert!(!r.is_malign(MALIGN_RETENTION_FLOOR));
    }
}
