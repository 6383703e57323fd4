//! Information-theoretic quantities over nominal columns.
//!
//! Implements the notions the paper uses for filter-based feature
//! selection and its redundancy/relevancy analysis (Secs 2.2, 3.1,
//! appendix B): entropy `H`, mutual information `I(F;Y)` (Def B.1), and
//! information gain ratio `IGR(F;Y) = I(F;Y) / H(F)`.
//!
//! All logarithms are base 2 (bits).

use crate::source::Column;

/// Entropy `H(X)` in bits of the empirical distribution of `codes` over a
/// domain of `domain_size` values, restricted to `rows`.
pub fn entropy(codes: &[u32], domain_size: usize, rows: &[usize]) -> f64 {
    let mut counts = vec![0u64; domain_size];
    for &r in rows {
        counts[codes[r] as usize] += 1;
    }
    entropy_of_counts(&counts)
}

/// Entropy in bits of a count histogram.
pub fn entropy_of_counts(counts: &[u64]) -> f64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Mutual information `I(A;B)` in bits between two nominal columns over
/// `rows` (Def B.1): `I(A;B) = H(B) - H(B|A)`.
pub fn mutual_information(
    a_codes: &[u32],
    a_size: usize,
    b_codes: &[u32],
    b_size: usize,
    rows: &[usize],
) -> f64 {
    let mut joint = vec![0u64; a_size * b_size];
    let mut a_counts = vec![0u64; a_size];
    let mut b_counts = vec![0u64; b_size];
    for &r in rows {
        let a = a_codes[r] as usize;
        let b = b_codes[r] as usize;
        joint[a * b_size + b] += 1;
        a_counts[a] += 1;
        b_counts[b] += 1;
    }
    mutual_information_of_counts(rows.len(), &a_counts, &b_counts, |a, b| {
        joint[a * b_size + b]
    })
}

/// `I(A;B)` in bits from `n` rows' marginal histograms and their joint
/// count `cell(a, b)`, summed a-major, b-minor. Every mutual-information
/// score sums here, so a score from cached counts equals one from a row
/// scan bit for bit whenever the integer counts agree.
pub(crate) fn mutual_information_of_counts(
    n: usize,
    a_counts: &[u64],
    b_counts: &[u64],
    cell: impl Fn(usize, usize) -> u64,
) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let mut mi = 0.0;
    for (a, &count_a) in a_counts.iter().enumerate() {
        if count_a == 0 {
            continue;
        }
        let pa = count_a as f64 / n;
        for (b, &count_b) in b_counts.iter().enumerate() {
            let c = cell(a, b);
            if c == 0 {
                continue;
            }
            let pab = c as f64 / n;
            let pb = count_b as f64 / n;
            mi += pab * (pab / (pa * pb)).log2();
        }
    }
    mi.max(0.0) // clamp tiny negative rounding
}

/// Information gain ratio `IGR(F;Y) = I(F;Y) / H(F)`, the normalization
/// that "penalizes features with larger domains" (Sec 3.1.2). Returns 0
/// when `H(F) = 0` (a constant feature carries no information).
pub fn information_gain_ratio(
    f_codes: &[u32],
    f_size: usize,
    y_codes: &[u32],
    y_size: usize,
    rows: &[usize],
) -> f64 {
    let h_f = entropy(f_codes, f_size, rows);
    if h_f <= 0.0 {
        return 0.0;
    }
    mutual_information(f_codes, f_size, y_codes, y_size, rows) / h_f
}

/// Conditional mutual information `I(A;B|C)` in bits — the edge weight of
/// TAN's Chow–Liu tree (`I(X_i;X_j|Y)`, appendix E). Each column is read
/// through [`Column::code`], so a foreign feature of a factorized view
/// counts through its FK into the same integer tables a materialized
/// column would fill.
pub fn conditional_mutual_information(
    a_col: Column<'_>,
    a_size: usize,
    b_col: Column<'_>,
    b_size: usize,
    c_col: Column<'_>,
    c_size: usize,
    rows: &[usize],
) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let mut joint = vec![0u64; a_size * b_size * c_size];
    let mut ac = vec![0u64; a_size * c_size];
    let mut bc = vec![0u64; b_size * c_size];
    let mut c_counts = vec![0u64; c_size];
    for &r in rows {
        let a = a_col.code(r) as usize;
        let b = b_col.code(r) as usize;
        let c = c_col.code(r) as usize;
        joint[(a * b_size + b) * c_size + c] += 1;
        ac[a * c_size + c] += 1;
        bc[b * c_size + c] += 1;
        c_counts[c] += 1;
    }
    let n = rows.len() as f64;
    let mut cmi = 0.0;
    for a in 0..a_size {
        for b in 0..b_size {
            for c in 0..c_size {
                let j = joint[(a * b_size + b) * c_size + c];
                if j == 0 {
                    continue;
                }
                let p_abc = j as f64 / n;
                let p_ac = ac[a * c_size + c] as f64 / n;
                let p_bc = bc[b * c_size + c] as f64 / n;
                let p_c = c_counts[c] as f64 / n;
                cmi += p_abc * (p_c * p_abc / (p_ac * p_bc)).log2();
            }
        }
    }
    cmi.max(0.0)
}

/// Entropy of the conditional distribution `H(A|B)` in bits.
pub fn conditional_entropy(
    a_codes: &[u32],
    a_size: usize,
    b_codes: &[u32],
    b_size: usize,
    rows: &[usize],
) -> f64 {
    entropy(a_codes, a_size, rows) - mutual_information(a_codes, a_size, b_codes, b_size, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn entropy_of_fair_coin_is_one_bit() {
        let codes = vec![0u32, 1, 0, 1];
        let rows: Vec<usize> = (0..4).collect();
        assert!((entropy(&codes, 2, &rows) - 1.0).abs() < EPS);
    }

    #[test]
    fn entropy_of_constant_is_zero() {
        let codes = vec![1u32; 10];
        let rows: Vec<usize> = (0..10).collect();
        assert!(entropy(&codes, 3, &rows).abs() < EPS);
        assert_eq!(entropy(&codes, 3, &[]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_quaternary_is_two_bits() {
        let codes = vec![0u32, 1, 2, 3];
        let rows: Vec<usize> = (0..4).collect();
        assert!((entropy(&codes, 4, &rows) - 2.0).abs() < EPS);
    }

    #[test]
    fn mi_of_identical_columns_is_entropy() {
        let codes = vec![0u32, 1, 0, 1, 1, 0];
        let rows: Vec<usize> = (0..6).collect();
        let mi = mutual_information(&codes, 2, &codes, 2, &rows);
        assert!((mi - entropy(&codes, 2, &rows)).abs() < EPS);
    }

    #[test]
    fn mi_of_independent_columns_is_zero() {
        // Perfectly balanced independent pair.
        let a = vec![0u32, 0, 1, 1];
        let b = vec![0u32, 1, 0, 1];
        let rows: Vec<usize> = (0..4).collect();
        assert!(mutual_information(&a, 2, &b, 2, &rows).abs() < EPS);
    }

    #[test]
    fn mi_is_symmetric() {
        let a = vec![0u32, 1, 2, 0, 1, 2, 1, 2];
        let b = vec![0u32, 0, 1, 1, 0, 1, 0, 1];
        let rows: Vec<usize> = (0..8).collect();
        let ab = mutual_information(&a, 3, &b, 2, &rows);
        let ba = mutual_information(&b, 2, &a, 3, &rows);
        assert!((ab - ba).abs() < EPS);
    }

    #[test]
    fn igr_normalizes_by_feature_entropy() {
        // F determines Y and H(F) = 2 bits, H(Y) = 1 bit -> IGR = 0.5.
        let f = vec![0u32, 1, 2, 3];
        let y = vec![0u32, 0, 1, 1];
        let rows: Vec<usize> = (0..4).collect();
        let igr = information_gain_ratio(&f, 4, &y, 2, &rows);
        assert!((igr - 0.5).abs() < EPS);
        // A binary feature identical to Y has IGR = 1.
        let igr2 = information_gain_ratio(&y, 2, &y, 2, &rows);
        assert!((igr2 - 1.0).abs() < EPS);
    }

    #[test]
    fn igr_of_constant_feature_is_zero() {
        let f = vec![0u32; 4];
        let y = vec![0u32, 1, 0, 1];
        let rows: Vec<usize> = (0..4).collect();
        assert_eq!(information_gain_ratio(&f, 2, &y, 2, &rows), 0.0);
    }

    #[test]
    fn theorem_3_1_fk_dominates_foreign_feature() {
        // FK with 4 values; F = f(FK) collapses pairs. Thm 3.1 says
        // I(F;Y) <= I(FK;Y) whatever Y is.
        let fk = vec![0u32, 1, 2, 3, 0, 1, 2, 3, 0, 2];
        let f: Vec<u32> = fk.iter().map(|&v| v / 2).collect();
        let y = vec![0u32, 1, 1, 0, 0, 1, 0, 0, 1, 1];
        let rows: Vec<usize> = (0..10).collect();
        let i_fk = mutual_information(&fk, 4, &y, 2, &rows);
        let i_f = mutual_information(&f, 2, &y, 2, &rows);
        assert!(i_f <= i_fk + EPS);
    }

    #[test]
    fn cmi_matches_mi_when_condition_constant() {
        let a = vec![0u32, 1, 0, 1, 1, 0];
        let b = vec![0u32, 1, 1, 1, 0, 0];
        let c = vec![0u32; 6];
        let rows: Vec<usize> = (0..6).collect();
        let cmi = conditional_mutual_information(
            Column::Rows(&a),
            2,
            Column::Rows(&b),
            2,
            Column::Rows(&c),
            1,
            &rows,
        );
        let mi = mutual_information(&a, 2, &b, 2, &rows);
        assert!((cmi - mi).abs() < EPS);
    }

    #[test]
    fn cmi_zero_when_conditionally_independent() {
        // Given c, a and b are constants -> conditionally independent.
        let c = vec![0u32, 0, 1, 1];
        let a = c.clone();
        let b = c.clone();
        let rows: Vec<usize> = (0..4).collect();
        // I(A;B|C) = 0 because A and B are functions of C.
        let cmi = conditional_mutual_information(
            Column::Rows(&a),
            2,
            Column::Rows(&b),
            2,
            Column::Rows(&c),
            2,
            &rows,
        );
        assert!(cmi.abs() < EPS);
    }

    #[test]
    fn conditional_entropy_chain_rule() {
        let a = vec![0u32, 1, 2, 0, 1, 2];
        let b = vec![0u32, 0, 1, 1, 0, 1];
        let rows: Vec<usize> = (0..6).collect();
        let h_a = entropy(&a, 3, &rows);
        let h_ab = conditional_entropy(&a, 3, &b, 2, &rows);
        let mi = mutual_information(&a, 3, &b, 2, &rows);
        assert!((h_a - h_ab - mi).abs() < EPS);
        assert!(h_ab >= -EPS);
    }
}
