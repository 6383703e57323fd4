//! Star decomposition from functional dependencies (appendix C).
//!
//! Corollary C.1 argues via the standard BCNF construction: "features
//! that occur on the right-hand side of an FD will occur in a separate
//! table whose key will be the features on the left-hand side of that
//! FD", with a KFK dependency from the main table to each new table.
//! This module implements that construction for the star-shaped case the
//! paper studies: every determinant is a single attribute that is not
//! itself dependent on anything (acyclic, one level).
//!
//! Decomposing a denormalized table with the FDs `FK_i -> X_Ri` recovers
//! exactly the normalized schema the join produced — the round-trip the
//! tests check — and turns an analyst's single wide CSV back into the
//! shape the decision rules reason over.

use std::collections::HashMap;

use crate::catalog::{AttributeTable, StarSchema};
use crate::column::Column;
use crate::error::{RelationalError, Result};
use crate::fd::{is_acyclic, FunctionalDependency};
use crate::schema::{AttributeDef, Role, Schema};
use crate::table::Table;

/// Decomposes a single (denormalized) table into a [`StarSchema`] using
/// the given FDs, one attribute table per FD.
///
/// Requirements, checked up front:
/// * the FD set is acyclic (Def C.1) and every FD holds in the instance;
/// * every determinant is a **single** attribute of `table` that appears
///   in no dependent set (star shape, not snowflake);
/// * dependent sets are pairwise disjoint and never include the target
///   or a determinant.
///
/// The determinant attribute stays in the main table, re-roled as a
/// closed-domain foreign key; each dependent attribute moves to the new
/// attribute table keyed by the determinant.
pub fn decompose_star(table: &Table, fds: &[FunctionalDependency]) -> Result<StarSchema> {
    if !is_acyclic(fds) {
        return Err(RelationalError::Decomposition {
            reason: "FD set must be acyclic (Def C.1)".into(),
        });
    }

    // Validate shape.
    let mut dependents_seen: Vec<&str> = Vec::new();
    let mut determinants: Vec<&str> = Vec::new();
    for fd in fds {
        if fd.determinant.len() != 1 {
            return Err(RelationalError::Decomposition {
                reason: format!(
                    "star decomposition needs single-attribute determinants, got {:?}",
                    fd.determinant
                ),
            });
        }
        determinants.push(&fd.determinant[0]);
        for d in &fd.dependents {
            if dependents_seen.contains(&d.as_str()) {
                return Err(RelationalError::DuplicateAttribute {
                    table: table.name().to_string(),
                    attribute: d.clone(),
                });
            }
            dependents_seen.push(d);
        }
    }
    for det in &determinants {
        if dependents_seen.contains(det) {
            return Err(RelationalError::Decomposition {
                reason: format!("attribute '{det}' is both determinant and dependent (snowflake)"),
            });
        }
    }
    if let Some(target) = table.schema().target() {
        let tname = &table.schema().attributes()[target].name;
        if dependents_seen.contains(&tname.as_str()) {
            return Err(RelationalError::Decomposition {
                reason: "the target cannot be moved to an attribute table".into(),
            });
        }
    }
    for fd in fds {
        if !fd.holds_in(table)? {
            return Err(RelationalError::Decomposition {
                reason: format!(
                    "FD {:?} -> {:?} does not hold in '{}'",
                    fd.determinant,
                    fd.dependents,
                    table.name()
                ),
            });
        }
    }

    // Build one attribute table per FD.
    let mut attr_tables = Vec::with_capacity(fds.len());
    for fd in fds {
        let det = &fd.determinant[0];
        let det_col = table.column_by_name(det)?;
        let dep_cols: Vec<&Column> = fd
            .dependents
            .iter()
            .map(|d| table.column_by_name(d))
            .collect::<Result<_>>()?;

        // Distinct determinant codes, first-appearance order.
        let mut row_of: HashMap<u32, u32> = HashMap::new();
        let mut pk_codes: Vec<u32> = Vec::new();
        let mut dep_codes: Vec<Vec<u32>> = vec![Vec::new(); dep_cols.len()];
        for row in 0..table.n_rows() {
            let code = det_col.get(row);
            if let std::collections::hash_map::Entry::Vacant(e) = row_of.entry(code) {
                e.insert(pk_codes.len() as u32);
                pk_codes.push(code);
                for (out, col) in dep_codes.iter_mut().zip(&dep_cols) {
                    out.push(col.get(row));
                }
            }
        }

        let attr_name = format!("{det}_dim");
        let mut defs = vec![AttributeDef::primary_key(det)];
        let mut cols = vec![Column::new_unchecked(det_col.domain().clone(), pk_codes)];
        for (d, codes) in fd.dependents.iter().zip(dep_codes) {
            let src = table.column_by_name(d)?;
            defs.push(AttributeDef::feature(d));
            cols.push(Column::new_unchecked(src.domain().clone(), codes));
        }
        let schema = Schema::new(&attr_name, defs)?;
        attr_tables.push(AttributeTable {
            fk: det.clone(),
            table: Table::new(attr_name, schema, cols)?,
        });
    }

    // Main table: drop dependents, re-role determinants as FKs.
    let mut defs = Vec::new();
    let mut cols = Vec::new();
    for (def, col) in table.schema().attributes().iter().zip(table.columns()) {
        if dependents_seen.contains(&def.name.as_str()) {
            continue;
        }
        let def = if determinants.contains(&def.name.as_str()) {
            AttributeDef::foreign_key(&def.name, format!("{}_dim", def.name))
        } else {
            def.clone()
        };
        defs.push(def);
        cols.push(col.clone());
    }
    let main = Table::new(
        table.name().to_string(),
        Schema::new(table.name(), defs)?,
        cols,
    )?;

    StarSchema::new(main, attr_tables)
}

/// Infers single-determinant FDs `candidate -> dependents` from an
/// instance: for each candidate attribute (feature or FK role), finds
/// every other feature it functionally determines. This is the
/// instance-level discovery step an analyst would run on a wide CSV
/// before calling [`decompose_star`]; the paper's schema-first setting
/// makes the FDs known, but imported data often doesn't declare them.
///
/// Only attributes with at least `min_distinct` distinct values are
/// considered determinants (a near-constant column trivially "determines"
/// nothing useful), and the target/primary key are never dependents.
///
/// The result is canonical regardless of attribute order: dependents are
/// sorted and deduplicated within each FD, and the FDs themselves are
/// ordered by determinant name, so downstream decomposition is stable
/// under column permutations of the input table.
pub fn infer_single_fds(table: &Table, min_distinct: usize) -> Vec<FunctionalDependency> {
    let mut fds: Vec<FunctionalDependency> = Vec::new();
    for (det, dep) in single_fd_candidates(table, min_distinct) {
        let fd = FunctionalDependency::new(&[det], &[dep]);
        if !fd.holds_in(table).unwrap_or(false) {
            continue;
        }
        match fds.last_mut() {
            Some(last) if last.determinant == fd.determinant => {
                last.dependents.push(dep.to_string())
            }
            _ => fds.push(fd),
        }
    }
    fds
}

/// The `det -> dep` attribute pairs [`infer_single_fds`] tests, in its
/// output order (by determinant name, then dependent name). Both sides
/// are feature or FK attributes; the determinant has at least
/// `min_distinct` distinct values and the dependent no more than the
/// determinant (a necessary condition for the FD to hold).
pub fn single_fd_candidates(table: &Table, min_distinct: usize) -> Vec<(&str, &str)> {
    let attrs = table.schema().attributes();
    let eligible: Vec<(&str, usize)> = attrs
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a.role, Role::Feature | Role::ForeignKey { .. }))
        .map(|(i, a)| (a.name.as_str(), table.column(i).distinct_count()))
        .collect();
    let mut pairs = Vec::new();
    for &(det, det_distinct) in &eligible {
        if det_distinct < min_distinct {
            continue;
        }
        for &(dep, dep_distinct) in &eligible {
            if dep != det && dep_distinct <= det_distinct {
                pairs.push((det, dep));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Greedily selects a maximal star-compatible subset of the given FDs:
/// single-attribute determinants, pairwise-disjoint dependents, no
/// attribute both determinant and dependent. FDs with more dependents
/// win conflicts (they normalize more columns away); ties break on
/// determinant name for determinism.
///
/// Inferred FD sets (e.g. from [`infer_single_fds`]) routinely overlap —
/// two keys can each determine a shared column — and [`decompose_star`]
/// rejects such sets; this picks the subset to keep. Duplicate
/// determinants are collapsed (the largest claim wins) and the selection
/// is returned ordered by determinant name, so the output is canonical
/// regardless of the order candidates were supplied in.
pub fn select_compatible_fds(fds: &[FunctionalDependency]) -> Vec<FunctionalDependency> {
    let mut candidates: Vec<&FunctionalDependency> =
        fds.iter().filter(|fd| fd.determinant.len() == 1).collect();
    candidates.sort_by(|a, b| {
        b.dependents
            .len()
            .cmp(&a.dependents.len())
            .then_with(|| a.determinant[0].cmp(&b.determinant[0]))
    });
    let mut taken_dependents: Vec<String> = Vec::new();
    let mut taken_determinants: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for fd in candidates {
        let det = &fd.determinant[0];
        if taken_dependents.contains(det) {
            continue; // would become a snowflake level
        }
        if taken_determinants.contains(det) {
            continue; // duplicate determinant: an earlier, larger claim won
        }
        let mut clean_deps: Vec<String> = fd
            .dependents
            .iter()
            .filter(|d| {
                !taken_dependents.contains(d) && !taken_determinants.contains(d) && *d != det
            })
            .cloned()
            .collect();
        if clean_deps.is_empty() {
            continue;
        }
        clean_deps.sort();
        taken_determinants.push(det.clone());
        taken_dependents.extend(clean_deps.iter().cloned());
        out.push(FunctionalDependency {
            determinant: fd.determinant.clone(),
            dependents: clean_deps,
        });
    }
    out.sort_by(|a, b| a.determinant.cmp(&b.determinant));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::join::kfk_join;
    use crate::table::TableBuilder;

    /// A denormalized table where `emp -> (country, revenue)`.
    fn wide() -> Table {
        let emp = Domain::indexed("emp", 3).shared();
        TableBuilder::new("T")
            .target("y", Domain::boolean("y").shared(), vec![0, 1, 0, 1, 1, 0])
            .feature(
                "age",
                Domain::indexed("age", 4).shared(),
                vec![0, 1, 2, 3, 0, 1],
            )
            .feature("emp", emp, vec![0, 1, 2, 0, 1, 2])
            .feature(
                "country",
                Domain::indexed("country", 2).shared(),
                vec![0, 1, 1, 0, 1, 1],
            )
            .feature(
                "revenue",
                Domain::indexed("revenue", 5).shared(),
                vec![4, 2, 0, 4, 2, 0],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn decomposes_and_rejoins_losslessly() {
        let t = wide();
        let fds = vec![FunctionalDependency::new(&["emp"], &["country", "revenue"])];
        let star = decompose_star(&t, &fds).unwrap();
        assert_eq!(star.k(), 1);
        assert_eq!(star.attributes()[0].n_rows(), 3);
        assert_eq!(star.d_s(), 1); // age stays; emp became a FK
                                   // Re-joining recovers the original columns.
        let rejoined = kfk_join(star.entity(), "emp", &star.attributes()[0].table).unwrap();
        for name in ["y", "age", "emp", "country", "revenue"] {
            assert_eq!(
                rejoined.column_by_name(name).unwrap().codes(),
                t.column_by_name(name).unwrap().codes(),
                "column {name} not preserved"
            );
        }
    }

    #[test]
    fn violated_fd_rejected() {
        let t = wide();
        let fds = vec![FunctionalDependency::new(&["emp"], &["age"])];
        assert!(decompose_star(&t, &fds).is_err());
    }

    #[test]
    fn cyclic_fds_rejected() {
        let t = wide();
        let fds = vec![
            FunctionalDependency::new(&["emp"], &["country"]),
            FunctionalDependency::new(&["country"], &["emp"]),
        ];
        assert!(decompose_star(&t, &fds).is_err());
    }

    #[test]
    fn snowflake_shape_rejected() {
        let t = wide();
        // country is dependent of emp AND determinant of revenue.
        let fds = vec![
            FunctionalDependency::new(&["emp"], &["country"]),
            FunctionalDependency::new(&["country"], &["revenue"]),
        ];
        assert!(decompose_star(&t, &fds).is_err());
    }

    #[test]
    fn overlapping_dependents_rejected() {
        let t = wide();
        let fds = vec![
            FunctionalDependency::new(&["emp"], &["country"]),
            FunctionalDependency::new(&["age"], &["country"]),
        ];
        assert!(decompose_star(&t, &fds).is_err());
    }

    #[test]
    fn target_cannot_move() {
        let emp = Domain::indexed("emp", 2).shared();
        let t = TableBuilder::new("T")
            .target("y", Domain::boolean("y").shared(), vec![0, 1, 0, 1])
            .feature("emp", emp, vec![0, 1, 0, 1])
            .build()
            .unwrap();
        let fds = vec![FunctionalDependency::new(&["emp"], &["y"])];
        assert!(decompose_star(&t, &fds).is_err());
    }

    #[test]
    fn infer_discovers_planted_fds() {
        let t = wide();
        let fds = infer_single_fds(&t, 2);
        let emp_fd = fds
            .iter()
            .find(|f| f.determinant == vec!["emp".to_string()])
            .expect("emp FD discovered");
        assert!(emp_fd.dependents.contains(&"country".to_string()));
        assert!(emp_fd.dependents.contains(&"revenue".to_string()));
        assert!(!emp_fd.dependents.contains(&"age".to_string()));
        assert!(!emp_fd.dependents.contains(&"y".to_string()));
    }

    #[test]
    fn inference_is_column_order_invariant() {
        // The same instance with its feature columns permuted must yield
        // byte-identical FDs: dependents sorted, FDs ordered by determinant.
        let t = wide();
        let emp = Domain::indexed("emp", 3).shared();
        let permuted = TableBuilder::new("T")
            .feature(
                "revenue",
                Domain::indexed("revenue", 5).shared(),
                vec![4, 2, 0, 4, 2, 0],
            )
            .feature(
                "country",
                Domain::indexed("country", 2).shared(),
                vec![0, 1, 1, 0, 1, 1],
            )
            .target("y", Domain::boolean("y").shared(), vec![0, 1, 0, 1, 1, 0])
            .feature("emp", emp, vec![0, 1, 2, 0, 1, 2])
            .feature(
                "age",
                Domain::indexed("age", 4).shared(),
                vec![0, 1, 2, 3, 0, 1],
            )
            .build()
            .unwrap();
        let a = infer_single_fds(&t, 2);
        let b = infer_single_fds(&permuted, 2);
        assert_eq!(a, b);
        for fd in &a {
            let mut sorted = fd.dependents.clone();
            sorted.sort();
            assert_eq!(fd.dependents, sorted, "dependents not canonically ordered");
        }
        // And the stability propagates through selection + decomposition.
        let star_a = decompose_star(&t, &select_compatible_fds(&a)).unwrap();
        let star_b = decompose_star(&permuted, &select_compatible_fds(&b)).unwrap();
        assert_eq!(star_a.k(), star_b.k());
        for i in 0..star_a.k() {
            assert_eq!(star_a.attributes()[i].fk, star_b.attributes()[i].fk);
            assert_eq!(
                star_a.attributes()[i].feature_names(),
                star_b.attributes()[i].feature_names()
            );
        }
    }

    #[test]
    fn infer_then_decompose_roundtrip() {
        let t = wide();
        // Keep only the emp FD (inference may also find accidental FDs on
        // tiny data; a real pipeline would curate).
        let fds: Vec<_> = infer_single_fds(&t, 3)
            .into_iter()
            .filter(|f| f.determinant == vec!["emp".to_string()])
            .collect();
        assert_eq!(fds.len(), 1);
        let star = decompose_star(&t, &fds).unwrap();
        assert!(star.fk_closed(0));
        assert_eq!(
            star.attributes()[0].feature_names(),
            vec!["country", "revenue"]
        );
    }
}

#[cfg(test)]
mod select_tests {
    use super::*;

    fn fd(det: &str, deps: &[&str]) -> FunctionalDependency {
        FunctionalDependency::new(&[det], deps)
    }

    #[test]
    fn disjoint_fds_all_kept() {
        let fds = vec![fd("u", &["age", "country"]), fd("b", &["year"])];
        let sel = select_compatible_fds(&fds);
        assert_eq!(sel.len(), 2);
        // Canonical order: by determinant name, not by claim size.
        assert_eq!(sel[0].determinant, vec!["b".to_string()]);
        assert_eq!(sel[1].determinant, vec!["u".to_string()]);
    }

    #[test]
    fn selection_is_input_order_invariant() {
        let a = vec![
            fd("u", &["age", "country", "shared"]),
            fd("b", &["shared", "x"]),
        ];
        let b = vec![
            fd("b", &["shared", "x"]),
            fd("u", &["age", "country", "shared"]),
        ];
        assert_eq!(select_compatible_fds(&a), select_compatible_fds(&b));
    }

    #[test]
    fn duplicate_determinants_collapse_to_largest_claim() {
        let fds = vec![fd("u", &["age"]), fd("u", &["country", "revenue"])];
        let sel = select_compatible_fds(&fds);
        assert_eq!(sel.len(), 1);
        assert_eq!(
            sel[0].dependents,
            vec!["country".to_string(), "revenue".to_string()]
        );
    }

    #[test]
    fn overlapping_dependents_resolved_by_size() {
        // Both determine "shared"; u has more dependents so it wins it.
        let fds = vec![
            fd("u", &["age", "country", "shared"]),
            fd("b", &["shared", "x"]),
        ];
        let sel = select_compatible_fds(&fds);
        assert_eq!(sel.len(), 2);
        let u = sel.iter().find(|f| f.determinant[0] == "u").unwrap();
        let b = sel.iter().find(|f| f.determinant[0] == "b").unwrap();
        assert!(u.dependents.contains(&"shared".to_string()));
        assert_eq!(b.dependents, vec!["x".to_string()]);
    }

    #[test]
    fn equal_size_conflicts_break_on_name() {
        // Tie on dependent count: "b" sorts before "u" and claims the
        // shared column deterministically.
        let fds = vec![fd("u", &["age", "shared"]), fd("b", &["shared", "x"])];
        let sel = select_compatible_fds(&fds);
        let b = sel.iter().find(|f| f.determinant[0] == "b").unwrap();
        let u = sel.iter().find(|f| f.determinant[0] == "u").unwrap();
        assert!(b.dependents.contains(&"shared".to_string()));
        assert_eq!(u.dependents, vec!["age".to_string()]);
    }

    #[test]
    fn snowflake_chains_broken() {
        // a -> b and b -> c: keeping both would make b a level-2 key.
        let fds = vec![fd("a", &["b", "z"]), fd("b", &["c"])];
        let sel = select_compatible_fds(&fds);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].determinant, vec!["a".to_string()]);
    }

    #[test]
    fn determinant_never_own_dependent() {
        let fds = vec![fd("a", &["a", "b"])];
        let sel = select_compatible_fds(&fds);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].dependents, vec!["b".to_string()]);
    }

    #[test]
    fn composite_determinants_skipped() {
        let fds = vec![FunctionalDependency::new(&["a", "b"], &["c"])];
        assert!(select_compatible_fds(&fds).is_empty());
    }

    #[test]
    fn selected_set_decomposes() {
        // End-to-end: overlapping inferred FDs -> selection -> decompose.
        let emp = Domain::indexed("emp", 3).shared();
        let t = TableBuilder::new("T")
            .target("y", Domain::boolean("y").shared(), vec![0, 1, 0, 1, 1, 0])
            .feature("emp", emp, vec![0, 1, 2, 0, 1, 2])
            .feature(
                "country",
                Domain::indexed("country", 2).shared(),
                vec![0, 1, 1, 0, 1, 1],
            )
            .feature(
                "revenue",
                Domain::indexed("revenue", 5).shared(),
                vec![4, 2, 0, 4, 2, 0],
            )
            .build()
            .unwrap();
        let inferred = infer_single_fds(&t, 2);
        let compatible = select_compatible_fds(&inferred);
        assert!(!compatible.is_empty());
        let star = decompose_star(&t, &compatible).expect("selection is star-compatible");
        assert!(star.k() >= 1);
    }

    use crate::domain::Domain;
    use crate::table::TableBuilder;
}
