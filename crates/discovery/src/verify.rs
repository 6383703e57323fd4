//! Factorized FD verification: partition counting over one table.
//!
//! The paper's multi-table FD `FK -> X_R` never needs the join to be
//! checked: after the KFK join every entity row carries exactly the
//! attribute row its FK points at, so the FD holds in the join iff
//! `RID -> X_R` holds in the attribute table (and `FK -> X_S` candidates
//! can be checked directly on the entity). This module verifies such a
//! single-table FD as partition counting over codes (Comignani et al.,
//! arXiv 2012.06237): each row's `(determinant, dependent)` code pair is
//! packed into one `u64` and the vector is sorted — the sorted
//! partition. Each determinant group is then a contiguous run, each
//! dependent value a run inside it, and the violation count is read off
//! the run lengths — `Σ_group (rows_in_group − majority_count)`. Memory
//! is one `u64` per row plus one entry per *violating* group, never the
//! joined width and never a hash map per group.
//!
//! Dirty data is first-class: a dup-keyed or miskeyed row shows up as a
//! violation, and the caller decides (via `HAMLET_FD_MAX_VIOLATIONS`)
//! whether the FD still qualifies, with each counted exception
//! journaled through the examples below.

use std::collections::HashMap;

use hamlet_relational::{RelationalError, Table};

/// Violation examples retained per FD check (evidence, not a full dump).
pub const MAX_VIOLATION_EXAMPLES: usize = 3;

/// One row that disagrees with its determinant group's majority value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdViolation {
    /// 0-based data row in the checked table.
    pub row: usize,
    /// The determinant label of the offending row.
    pub determinant_label: String,
    /// The group's majority dependent label (what the FD predicts).
    pub expected_label: String,
    /// The dependent label actually found on this row.
    pub found_label: String,
}

/// Result of one factorized FD check `determinant -> dependent`.
#[derive(Debug, Clone, PartialEq)]
pub struct FdCheck {
    /// Table the FD was checked in.
    pub table: String,
    /// Determinant attribute.
    pub determinant: String,
    /// Dependent attribute.
    pub dependent: String,
    /// Rows scanned.
    pub rows: usize,
    /// Distinct determinant values (count-table partitions).
    pub groups: usize,
    /// Rows disagreeing with their group's majority dependent value
    /// (zero iff the FD holds exactly).
    pub violations: u64,
    /// Up to [`MAX_VIOLATION_EXAMPLES`] violating rows, in row order.
    pub examples: Vec<FdViolation>,
}

impl FdCheck {
    /// Whether the FD qualifies under a violation tolerance.
    pub fn holds_within(&self, max_violations: u64) -> bool {
        self.violations <= max_violations
    }
}

/// Checks `det -> dep` in `table` over a sorted partition.
///
/// Ties inside a group (two dependent values with equal counts) resolve
/// to the smaller code so the violation count and examples are
/// deterministic regardless of row order.
pub fn check_fd(table: &Table, det: &str, dep: &str) -> Result<FdCheck, RelationalError> {
    let det_col = table.column_by_name(det)?;
    let dep_col = table.column_by_name(dep)?;

    // Sorted partition: one packed `(det, dep)` key per row, sorted, so
    // each determinant group is a contiguous run and each dependent value
    // a run inside it.
    let mut pairs: Vec<u64> = det_col
        .codes()
        .iter()
        .zip(dep_col.codes())
        .map(|(&d, &v)| (u64::from(d) << 32) | u64::from(v))
        .collect();
    pairs.sort_unstable();

    // Majority dependent per group; violations fall out of the run
    // lengths. Dependent runs arrive in ascending code order, so a
    // strict `>` keeps the smaller code on ties. Only groups with
    // violations keep a majority entry, for the evidence pass.
    let mut majority: HashMap<u32, u32> = HashMap::new();
    let mut violations = 0u64;
    let mut groups = 0usize;
    for group in pairs.chunk_by(|a, b| a >> 32 == b >> 32) {
        groups += 1;
        let (mut best, mut best_n) = (0u64, 0usize);
        for run in group.chunk_by(|a, b| a == b) {
            if run.len() > best_n {
                (best, best_n) = (run[0], run.len());
            }
        }
        if best_n < group.len() {
            violations += (group.len() - best_n) as u64;
            majority.insert((best >> 32) as u32, best as u32);
        }
    }

    // Evidence pass: the first few violating rows, in row order.
    let mut examples = Vec::new();
    if violations > 0 {
        for row in 0..table.n_rows() {
            if examples.len() >= MAX_VIOLATION_EXAMPLES {
                break;
            }
            let d = det_col.get(row);
            let found = dep_col.get(row);
            let expected = majority.get(&d).copied().unwrap_or(found);
            if found != expected {
                examples.push(FdViolation {
                    row,
                    determinant_label: det_col.domain().label(d).into_owned(),
                    expected_label: dep_col.domain().label(expected).into_owned(),
                    found_label: dep_col.domain().label(found).into_owned(),
                });
            }
        }
    }

    Ok(FdCheck {
        table: table.name().to_string(),
        determinant: det.to_string(),
        dependent: dep.to_string(),
        rows: table.n_rows(),
        groups,
        violations,
        examples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamlet_relational::{Domain, TableBuilder};

    fn table(det: Vec<u32>, dep: Vec<u32>) -> Table {
        TableBuilder::new("T")
            .feature("det", Domain::indexed("det", 8).shared(), det)
            .feature("dep", Domain::indexed("dep", 8).shared(), dep)
            .build()
            .unwrap()
    }

    #[test]
    fn clean_fd_has_zero_violations() {
        let t = table(vec![0, 1, 2, 0, 1], vec![3, 4, 5, 3, 4]);
        let c = check_fd(&t, "det", "dep").unwrap();
        assert_eq!(c.violations, 0);
        assert_eq!(c.groups, 3);
        assert!(c.examples.is_empty());
        assert!(c.holds_within(0));
    }

    #[test]
    fn violations_counted_per_group_minority() {
        // Group 0 maps to {3:2, 4:1} -> one violation; group 1 is clean.
        let t = table(vec![0, 0, 0, 1], vec![3, 3, 4, 5]);
        let c = check_fd(&t, "det", "dep").unwrap();
        assert_eq!(c.violations, 1);
        assert!(!c.holds_within(0));
        assert!(c.holds_within(1));
        assert_eq!(c.examples.len(), 1);
        assert_eq!(c.examples[0].row, 2);
        assert_eq!(c.examples[0].expected_label, "dep#3");
        assert_eq!(c.examples[0].found_label, "dep#4");
    }

    #[test]
    fn ties_break_to_smaller_code() {
        // Group 0: {2:1, 5:1} — the majority is code 2, so row 1 violates.
        let t = table(vec![0, 0], vec![2, 5]);
        let c = check_fd(&t, "det", "dep").unwrap();
        assert_eq!(c.violations, 1);
        assert_eq!(c.examples[0].row, 1);
        assert_eq!(c.examples[0].expected_label, "dep#2");
    }

    #[test]
    fn example_cap_holds() {
        let t = table(vec![0; 10], vec![7, 1, 1, 1, 1, 7, 7, 7, 1, 7]);
        let c = check_fd(&t, "det", "dep").unwrap();
        assert_eq!(c.violations, 5);
        assert_eq!(c.examples.len(), MAX_VIOLATION_EXAMPLES);
    }

    #[test]
    fn unknown_column_is_typed_error() {
        let t = table(vec![0], vec![0]);
        assert!(matches!(
            check_fd(&t, "det", "ghost"),
            Err(RelationalError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn row_order_invariant() {
        let a = check_fd(&table(vec![0, 0, 1, 1], vec![2, 3, 4, 4]), "det", "dep").unwrap();
        let b = check_fd(&table(vec![1, 0, 1, 0], vec![4, 3, 4, 2]), "det", "dep").unwrap();
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.groups, b.groups);
    }
}
