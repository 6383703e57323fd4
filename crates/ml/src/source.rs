//! Row/column access abstraction shared by materialized and factorized
//! training.
//!
//! Classifiers fundamentally consume `(feature, row) -> code` lookups plus
//! labels; they do not care whether codes live in one flat [`Dataset`] or
//! are resolved through foreign-key indirection against a normalized star
//! schema. [`CodeSource`] captures that access pattern. Because the SGD
//! and counting loops are generic over it, the materialized and factorized
//! paths execute the *same* sequence of floating-point operations and
//! therefore produce bitwise-identical models given identical codes.
//!
//! Every source describes each feature's physical layout once, through
//! [`CodeSource::column`]: either a [`Column::Rows`] array indexed by
//! example row, or a [`Column::Via`] attribute-table column reached
//! through a foreign key. `code()` is derived from `column()`, so the two
//! can never disagree. Hot loops read the layout instead of calling
//! `code()` per cell: all `Via` columns with the same `join` share one
//! `rid_to_row[fk_codes[row]]` resolution, so a scan can resolve each FK
//! once per row set and then read every feature behind it with a single
//! gather into an `n_R`-sized code array.

use crate::dataset::Dataset;

/// Physical layout of one feature column; see [`CodeSource::column`].
#[derive(Debug, Clone, Copy)]
pub enum Column<'a> {
    /// Codes indexed directly by example row.
    Rows(&'a [u32]),
    /// An attribute-table column read through a foreign key: the code of
    /// example `row` is `codes[rid_to_row[fk_codes[row]]]`. Every feature
    /// of a source with the same `join` id shares `fk_codes` and
    /// `rid_to_row`, so one resolution serves all of them.
    Via {
        /// Identifies the FK index; equal ids mean equal `fk_codes` and
        /// `rid_to_row`.
        join: usize,
        /// FK codes on the entity table (indexed by example row).
        fk_codes: &'a [u32],
        /// Dense RID -> attribute-table row.
        rid_to_row: &'a [u32],
        /// Codes of the column in its attribute table (length `n_R`).
        codes: &'a [u32],
    },
}

impl Column<'_> {
    /// Code on example `row`.
    #[inline]
    pub fn code(&self, row: usize) -> u32 {
        match *self {
            Column::Rows(codes) => codes[row],
            Column::Via {
                fk_codes,
                rid_to_row,
                codes,
                ..
            } => codes[rid_to_row[fk_codes[row] as usize] as usize],
        }
    }
}

/// Uniform access to an all-nominal labeled example collection.
///
/// Feature positions follow the same layout as the materialized
/// [`Dataset`] extracted from the corresponding join output, so a feature
/// index means the same column in both worlds.
pub trait CodeSource {
    /// Number of examples (rows).
    fn n_examples(&self) -> usize;

    /// Number of target classes `|D_Y|`.
    fn n_classes(&self) -> usize;

    /// Number of logical feature columns.
    fn n_features(&self) -> usize;

    /// Domain size `|D_F|` of feature `f`.
    fn feature_domain_size(&self, f: usize) -> usize;

    /// Name of feature `f`.
    fn feature_name(&self, f: usize) -> &str;

    /// Physical layout of feature `f`'s codes.
    fn column(&self, f: usize) -> Column<'_>;

    /// Dense code of feature `f` on example `row`.
    #[inline]
    fn code(&self, f: usize, row: usize) -> u32 {
        self.column(f).code(row)
    }

    /// Label of example `row`.
    fn label(&self, row: usize) -> u32;
}

impl CodeSource for Dataset {
    fn n_examples(&self) -> usize {
        Dataset::n_examples(self)
    }

    fn n_classes(&self) -> usize {
        Dataset::n_classes(self)
    }

    fn n_features(&self) -> usize {
        Dataset::n_features(self)
    }

    fn feature_domain_size(&self, f: usize) -> usize {
        self.feature(f).domain_size
    }

    fn feature_name(&self, f: usize) -> &str {
        &self.feature(f).name
    }

    fn column(&self, f: usize) -> Column<'_> {
        Column::Rows(&self.feature(f).codes)
    }

    fn label(&self, row: usize) -> u32 {
        self.labels()[row]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Feature;

    #[test]
    fn dataset_implements_code_source() {
        let d = Dataset::new(
            vec![Feature {
                name: "a".into(),
                domain_size: 3,
                codes: vec![0, 2, 1],
            }],
            vec![1, 0, 1],
            2,
        );
        assert_eq!(CodeSource::n_examples(&d), 3);
        assert_eq!(CodeSource::n_classes(&d), 2);
        assert_eq!(CodeSource::n_features(&d), 1);
        assert_eq!(d.feature_domain_size(0), 3);
        assert_eq!(d.feature_name(0), "a");
        assert_eq!(d.code(0, 1), 2);
        assert_eq!(d.label(2), 1);
    }

    #[test]
    fn via_column_reads_through_the_fk() {
        // RIDs stored out of order: RID 0 lives at row 2 of R.
        let col = Column::Via {
            join: 0,
            fk_codes: &[0, 2, 1, 0],
            rid_to_row: &[2, 0, 1],
            codes: &[7, 8, 9],
        };
        let got: Vec<u32> = (0..4).map(|r| col.code(r)).collect();
        assert_eq!(got, [9, 8, 7, 9]);
    }
}
