//! Chunked columnar storage: the out-of-core data plane.
//!
//! A dense [`Column`] is a single `Vec<u32>` of codes; everything the
//! substrate computes over it (histograms, joins, count tables) is a
//! scan. This module re-expresses a column as a sequence of fixed-size
//! **chunks** (morsels, ~64K codes each, `HAMLET_MORSEL_ROWS`) behind
//! the [`ColumnChunks`] abstraction:
//!
//! * the dense path implements it trivially ([`DenseChunks`] borrows
//!   subslices of the in-memory code vector, zero copies);
//! * [`ChunkedColumn`] owns its chunks, each either resident in memory
//!   or **spilled** to a chunk file on disk (written through
//!   [`hamlet_obs::atomic_write`], deleted when the owning [`SpillDir`]
//!   drops) — the streaming CSV ingester produces these when a load
//!   runs under a memory budget (`HAMLET_MEM_BUDGET_MB`).
//!
//! Scans over chunks are morsel-driven: work fans out per chunk via
//! [`hamlet_obs::parallel::run_indexed`] and per-chunk partial results
//! merge **in chunk order**. Since every aggregate in the data plane is
//! an integer count table, the merged result is bit-for-bit identical
//! at any thread count and any chunk size — the PR-5 determinism
//! discipline, now over the chunked plane.

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::column::Column;
use crate::domain::Domain;
use crate::error::{RelationalError, Result};
use crate::schema::Schema;
use crate::table::Table;

/// Rows per chunk used by default across the data plane (resolved once
/// per process from `HAMLET_MORSEL_ROWS`).
pub fn default_chunk_rows() -> usize {
    hamlet_obs::resolved_morsel_rows()
}

/// A column viewed as a sequence of fixed-size chunks of `u32` codes.
///
/// Every chunk except the last holds exactly [`chunk_rows`] codes; the
/// last holds the remainder. Reading a chunk may touch the disk (for
/// spilled columns), so it returns a `Result` and a [`Cow`] — borrowed
/// for resident chunks, owned for chunks read back from a spill file.
///
/// [`chunk_rows`]: ColumnChunks::chunk_rows
pub trait ColumnChunks {
    /// The shared domain the codes index into.
    fn domain(&self) -> &Arc<Domain>;

    /// Total rows across all chunks.
    fn n_rows(&self) -> usize;

    /// Rows per full chunk (the morsel size).
    fn chunk_rows(&self) -> usize;

    /// Number of chunks (`ceil(n_rows / chunk_rows)`; 0 when empty).
    fn n_chunks(&self) -> usize {
        self.n_rows().div_ceil(self.chunk_rows().max(1))
    }

    /// The codes of chunk `i`.
    fn chunk(&self, i: usize) -> Result<Cow<'_, [u32]>>;
}

/// The dense path's trivial [`ColumnChunks`]: borrowed subslices of an
/// in-memory [`Column`], produced by [`Column::chunks`].
#[derive(Debug, Clone, Copy)]
pub struct DenseChunks<'a> {
    column: &'a Column,
    chunk_rows: usize,
}

impl<'a> DenseChunks<'a> {
    /// Views `column` as chunks of `chunk_rows` codes.
    pub fn new(column: &'a Column, chunk_rows: usize) -> Self {
        Self {
            column,
            chunk_rows: chunk_rows.max(1),
        }
    }
}

impl ColumnChunks for DenseChunks<'_> {
    fn domain(&self) -> &Arc<Domain> {
        self.column.domain()
    }

    fn n_rows(&self) -> usize {
        self.column.len()
    }

    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn chunk(&self, i: usize) -> Result<Cow<'_, [u32]>> {
        let codes = self.column.codes();
        let lo = i.saturating_mul(self.chunk_rows);
        let hi = lo.saturating_add(self.chunk_rows).min(codes.len());
        match codes.get(lo..hi) {
            Some(slice) => Ok(Cow::Borrowed(slice)),
            None => Err(RelationalError::Io {
                context: format!("dense chunk {i} of column '{}'", self.domain().name()),
                message: format!("chunk out of range (rows {lo}..{hi} of {})", codes.len()),
            }),
        }
    }
}

impl Column {
    /// Views this column as a sequence of `chunk_rows`-sized chunks —
    /// the dense path's [`ColumnChunks`] implementation.
    pub fn chunks(&self, chunk_rows: usize) -> DenseChunks<'_> {
        DenseChunks::new(self, chunk_rows)
    }
}

/// Monotone id so concurrent loads in one process never share a spill
/// directory.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch directory holding spilled chunk files, removed (files and
/// all) when the last reference drops. Held as an `Arc` by every
/// [`ChunkedColumn`] that spilled into it, so the files outlive exactly
/// the columns that need them.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Creates a fresh spill directory under `parent` (the OS temp dir
    /// when `None`). The name embeds the process id and a process-wide
    /// sequence number, so concurrent loads never collide.
    pub fn create(parent: Option<&Path>) -> Result<Arc<Self>> {
        let parent = match parent {
            Some(p) => p.to_path_buf(),
            None => std::env::temp_dir(),
        };
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("hamlet-spill-{}-{}", std::process::id(), seq));
        std::fs::create_dir_all(&path).map_err(|e| RelationalError::Io {
            context: format!("create spill dir {}", path.display()),
            message: e.to_string(),
        })?;
        Ok(Arc::new(Self { path }))
    }

    /// The directory's path (chunk files live directly inside it).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Cleanup is best-effort: a failure leaves a scratch dir behind,
        // which is annoying but never incorrect.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Writes a `u32` chunk as little-endian bytes through the atomic
/// tmp+rename path, so a crash can never leave a half-written chunk
/// behind a valid name.
pub fn write_codes_chunk(path: &Path, codes: &[u32]) -> Result<()> {
    let mut bytes = Vec::with_capacity(codes.len() * 4);
    for &c in codes {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    hamlet_obs::counter_add!("hamlet_spill_chunks_total", 1);
    hamlet_obs::counter_add!("hamlet_spill_bytes_total", bytes.len());
    hamlet_obs::atomic_write(path, &bytes).map_err(|e| RelationalError::Io {
        context: format!("spill chunk {}", path.display()),
        message: e.to_string(),
    })
}

/// Reads a `u32` chunk back, validating the byte count against the
/// expected row count.
pub fn read_codes_chunk(path: &Path, rows: usize) -> Result<Vec<u32>> {
    let bytes = std::fs::read(path).map_err(|e| RelationalError::Io {
        context: format!("read spill chunk {}", path.display()),
        message: e.to_string(),
    })?;
    if bytes.len() != rows * 4 {
        return Err(RelationalError::SpillCorrupt {
            file: path.display().to_string(),
            reason: format!(
                "{} bytes, expected {} ({} rows x 4)",
                bytes.len(),
                rows * 4,
                rows
            ),
        });
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect())
}

/// Writes an `f64` chunk (little-endian IEEE bits) atomically — the
/// streaming ingester spills raw numeric values in these until the
/// global range is known and they can be binned into codes.
pub fn write_values_chunk(path: &Path, values: &[f64]) -> Result<()> {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for &v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    hamlet_obs::counter_add!("hamlet_spill_chunks_total", 1);
    hamlet_obs::counter_add!("hamlet_spill_bytes_total", bytes.len());
    hamlet_obs::atomic_write(path, &bytes).map_err(|e| RelationalError::Io {
        context: format!("spill chunk {}", path.display()),
        message: e.to_string(),
    })
}

/// Reads an `f64` chunk back, validating the byte count.
pub fn read_values_chunk(path: &Path, rows: usize) -> Result<Vec<f64>> {
    let bytes = std::fs::read(path).map_err(|e| RelationalError::Io {
        context: format!("read spill chunk {}", path.display()),
        message: e.to_string(),
    })?;
    if bytes.len() != rows * 8 {
        return Err(RelationalError::SpillCorrupt {
            file: path.display().to_string(),
            reason: format!(
                "{} bytes, expected {} ({} rows x 8)",
                bytes.len(),
                rows * 8,
                rows
            ),
        });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
        .collect())
}

/// One chunk of an owned [`ChunkedColumn`]: resident or spilled.
#[derive(Debug, Clone)]
pub enum Chunk {
    /// Codes resident in memory.
    Mem(Vec<u32>),
    /// Codes spilled to a file inside the column's [`SpillDir`].
    Spilled {
        /// The chunk file (little-endian `u32`s).
        file: PathBuf,
        /// Rows in this chunk (validates the read-back).
        rows: usize,
    },
}

impl Chunk {
    fn rows(&self) -> usize {
        match self {
            Chunk::Mem(codes) => codes.len(),
            Chunk::Spilled { rows, .. } => *rows,
        }
    }
}

/// An owned column stored as a sequence of chunks, any of which may
/// live on disk. Produced by the streaming CSV ingester; the spill
/// directory (if any) is dropped — and its files deleted — when the
/// last column referencing it goes away.
#[derive(Debug, Clone)]
pub struct ChunkedColumn {
    domain: Arc<Domain>,
    chunk_rows: usize,
    n_rows: usize,
    chunks: Vec<Chunk>,
    /// Keeps the spill files alive as long as any chunk needs them.
    spill: Option<Arc<SpillDir>>,
}

impl ChunkedColumn {
    /// Builds a chunked column from parts, validating that chunk sizes
    /// line up with the declared geometry (every chunk but the last has
    /// exactly `chunk_rows` rows).
    pub fn from_parts(
        domain: Arc<Domain>,
        chunk_rows: usize,
        chunks: Vec<Chunk>,
        spill: Option<Arc<SpillDir>>,
    ) -> Result<Self> {
        let chunk_rows = chunk_rows.max(1);
        let n_rows: usize = chunks.iter().map(Chunk::rows).sum();
        for (i, c) in chunks.iter().enumerate() {
            let expect = if i + 1 == chunks.len() {
                n_rows - i * chunk_rows
            } else {
                chunk_rows
            };
            if c.rows() != expect {
                return Err(RelationalError::ColumnLengthMismatch {
                    table: String::new(),
                    column: format!("{} (chunk {i})", domain.name()),
                    expected: expect,
                    actual: c.rows(),
                });
            }
        }
        Ok(Self {
            domain,
            chunk_rows,
            n_rows,
            chunks,
            spill,
        })
    }

    /// Wraps a dense column as a single-geometry chunked column (all
    /// chunks resident). Used to mix dense and spilled columns in one
    /// [`ChunkedTable`].
    pub fn from_column(column: Column, chunk_rows: usize) -> Self {
        let chunk_rows = chunk_rows.max(1);
        let domain = Arc::clone(column.domain());
        let n_rows = column.len();
        let codes = column.into_codes();
        let chunks = if codes.is_empty() {
            Vec::new()
        } else {
            codes
                .chunks(chunk_rows)
                .map(|c| Chunk::Mem(c.to_vec()))
                .collect()
        };
        Self {
            domain,
            chunk_rows,
            n_rows,
            chunks,
            spill: None,
        }
    }

    /// Whether any chunk lives on disk.
    pub fn is_spilled(&self) -> bool {
        self.chunks
            .iter()
            .any(|c| matches!(c, Chunk::Spilled { .. }))
    }

    /// The spill directory keeping this column's on-disk chunks alive,
    /// if any (shared across the columns of one load).
    pub fn spill_dir(&self) -> Option<&Arc<SpillDir>> {
        self.spill.as_ref()
    }

    /// Concatenates all chunks back into a dense [`Column`] (reads any
    /// spilled chunks from disk). The inverse of chunking; proptests
    /// pin `to_column(chunk(x)) == x`.
    pub fn to_column(&self) -> Result<Column> {
        let mut codes = Vec::with_capacity(self.n_rows);
        for i in 0..self.chunks.len() {
            codes.extend_from_slice(&self.chunk(i)?);
        }
        Ok(Column::new_unchecked(Arc::clone(&self.domain), codes))
    }

    /// Counts occurrences of each code without materializing the dense
    /// column: a morsel-driven scan, one partial histogram per chunk,
    /// merged in chunk order (integer adds — identical at any thread
    /// count).
    pub fn histogram(&self, threads: usize) -> Result<Vec<u64>> {
        let per_chunk = hamlet_obs::parallel::run_indexed(self.chunks.len(), threads, &|i| {
            let mut h = vec![0u64; self.domain.size()];
            let chunk = self.chunk(i)?;
            for &c in chunk.iter() {
                match h.get_mut(c as usize) {
                    Some(slot) => *slot += 1,
                    None => {
                        return Err(RelationalError::CodeOutOfDomain {
                            table: String::new(),
                            column: self.domain.name().to_string(),
                            code: c,
                            domain_size: self.domain.size(),
                        })
                    }
                }
            }
            Ok(h)
        });
        let mut total = vec![0u64; self.domain.size()];
        for partial in per_chunk {
            for (t, p) in total.iter_mut().zip(partial?) {
                *t += p;
            }
        }
        Ok(total)
    }
}

impl ColumnChunks for ChunkedColumn {
    fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn chunk(&self, i: usize) -> Result<Cow<'_, [u32]>> {
        match self.chunks.get(i) {
            Some(Chunk::Mem(codes)) => Ok(Cow::Borrowed(codes.as_slice())),
            Some(Chunk::Spilled { file, rows }) => Ok(Cow::Owned(read_codes_chunk(file, *rows)?)),
            None => Err(RelationalError::Io {
                context: format!("chunk {i} of column '{}'", self.domain.name()),
                message: format!("column has {} chunks", self.chunks.len()),
            }),
        }
    }
}

/// Gathers `attribute[fk[i]]` chunk by chunk — the morsel-driven form
/// of the KFK join's core primitive ([`Column::gather`]): the foreign
/// column is produced one chunk at a time, so only one morsel of FK
/// codes is ever resident even when `fk` is spilled. Out-of-range FK
/// codes are a typed error (the dense path would have rejected them at
/// validation).
pub fn gather_chunks<C: ColumnChunks + Sync>(fk: &C, attribute: &Column) -> Result<Column> {
    let attr_codes = attribute.codes();
    let mut out = Vec::with_capacity(fk.n_rows());
    for i in 0..fk.n_chunks() {
        let chunk = fk.chunk(i)?;
        for &code in chunk.iter() {
            match attr_codes.get(code as usize) {
                Some(&v) => out.push(v),
                None => {
                    return Err(RelationalError::CodeOutOfDomain {
                        table: String::new(),
                        column: fk.domain().name().to_string(),
                        code,
                        domain_size: attr_codes.len(),
                    })
                }
            }
        }
    }
    Ok(Column::new_unchecked(Arc::clone(attribute.domain()), out))
}

/// A table whose columns are chunked (possibly spilled): the product of
/// a budgeted streaming CSV load. Schema and row count carry the same
/// invariants as [`Table`]; [`into_table`](Self::into_table) turns it
/// into the dense form (and validates it) when a downstream path needs
/// it.
#[derive(Debug, Clone)]
pub struct ChunkedTable {
    name: String,
    schema: Schema,
    columns: Vec<ChunkedColumn>,
    n_rows: usize,
}

impl ChunkedTable {
    /// Builds a chunked table, validating column lengths against each
    /// other (content validation happens chunk-at-a-time in the scans,
    /// or wholesale in [`into_table`](Self::into_table)).
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<ChunkedColumn>,
    ) -> Result<Self> {
        let name = name.into();
        let n_rows = columns.first().map_or(0, |c| c.n_rows);
        for (i, col) in columns.iter().enumerate() {
            if col.n_rows != n_rows {
                return Err(RelationalError::ColumnLengthMismatch {
                    table: name,
                    column: schema
                        .attributes()
                        .get(i)
                        .map(|a| a.name.clone())
                        .unwrap_or_else(|| format!("<column {i}>")),
                    expected: n_rows,
                    actual: col.n_rows,
                });
            }
        }
        Ok(Self {
            name,
            schema,
            columns,
            n_rows,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The logical schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The chunked columns, in schema order.
    pub fn columns(&self) -> &[ChunkedColumn] {
        &self.columns
    }

    /// Column by attribute name.
    pub fn column_by_name(&self, name: &str) -> Result<&ChunkedColumn> {
        match self.schema.index_of(name) {
            Some(i) => self
                .columns
                .get(i)
                .ok_or_else(|| RelationalError::UnknownAttribute {
                    table: self.name.clone(),
                    attribute: name.to_string(),
                }),
            None => Err(RelationalError::UnknownAttribute {
                table: self.name.clone(),
                attribute: name.to_string(),
            }),
        }
    }

    /// Whether any column spilled chunks to disk.
    pub fn is_spilled(&self) -> bool {
        self.columns.iter().any(ChunkedColumn::is_spilled)
    }

    /// Turns the chunks into the dense [`Table`] (reading spilled
    /// chunks back) and runs full validation — the bridge to every
    /// downstream path that wants the in-memory representation. Each
    /// chunked column is freed as soon as its dense copy exists, so the
    /// two forms of the whole table are never live at once.
    pub fn into_table(self) -> Result<Table> {
        let mut cols = Vec::with_capacity(self.columns.len());
        for c in self.columns {
            cols.push(c.to_column()?);
        }
        Table::new(self.name, self.schema, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(n: usize) -> Arc<Domain> {
        Domain::indexed("D", n).shared()
    }

    #[test]
    fn dense_chunks_are_borrowed_slices() {
        let col = Column::new(dom(10), (0..10).collect()).unwrap();
        let chunks = col.chunks(4);
        assert_eq!(chunks.n_chunks(), 3);
        assert_eq!(chunks.chunk(0).unwrap().as_ref(), &[0, 1, 2, 3]);
        assert_eq!(chunks.chunk(2).unwrap().as_ref(), &[8, 9]);
        assert!(matches!(chunks.chunk(0).unwrap(), Cow::Borrowed(_)));
        assert!(chunks.chunk(3).is_err());
    }

    #[test]
    fn from_column_round_trips_at_any_chunk_size() {
        let codes: Vec<u32> = (0..100).map(|i| i % 7).collect();
        let col = Column::new(dom(7), codes.clone()).unwrap();
        for chunk_rows in [1, 3, 64, 100, 1000] {
            let chunked = ChunkedColumn::from_column(col.clone(), chunk_rows);
            assert_eq!(chunked.n_rows(), 100);
            assert_eq!(chunked.to_column().unwrap().codes(), codes.as_slice());
            assert_eq!(chunked.histogram(2).unwrap(), col.histogram());
        }
    }

    #[test]
    fn spilled_chunks_read_back_and_clean_up() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().to_path_buf();
        let f0 = path.join("c0.bin");
        write_codes_chunk(&f0, &[1, 2, 3]).unwrap();
        let col = ChunkedColumn::from_parts(
            dom(5),
            3,
            vec![
                Chunk::Spilled {
                    file: f0.clone(),
                    rows: 3,
                },
                Chunk::Mem(vec![4, 0]),
            ],
            Some(Arc::clone(&dir)),
        )
        .unwrap();
        assert!(col.is_spilled());
        assert_eq!(col.to_column().unwrap().codes(), &[1, 2, 3, 4, 0]);
        assert_eq!(col.histogram(1).unwrap(), vec![1, 1, 1, 1, 1]);
        drop(dir);
        assert!(path.exists(), "column still holds the spill dir alive");
        drop(col);
        assert!(!path.exists(), "spill dir removed when the last ref drops");
    }

    #[test]
    fn truncated_spill_file_is_a_typed_error() {
        let dir = SpillDir::create(None).unwrap();
        let f = dir.path().join("bad.bin");
        hamlet_obs::atomic_write(&f, &[1, 2, 3]).unwrap(); // not a multiple of 4
        assert!(matches!(
            read_codes_chunk(&f, 1),
            Err(RelationalError::SpillCorrupt { .. })
        ));
        let g = dir.path().join("vals.bin");
        write_values_chunk(&g, &[1.5, -2.25]).unwrap();
        assert_eq!(read_values_chunk(&g, 2).unwrap(), vec![1.5, -2.25]);
        assert!(read_values_chunk(&g, 3).is_err());
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        // A middle chunk shorter than chunk_rows breaks the fixed-size
        // invariant every morsel scan relies on.
        let err = ChunkedColumn::from_parts(
            dom(5),
            3,
            vec![Chunk::Mem(vec![1, 2]), Chunk::Mem(vec![3, 4, 0])],
            None,
        )
        .unwrap_err();
        assert!(matches!(err, RelationalError::ColumnLengthMismatch { .. }));
    }

    #[test]
    fn gather_through_chunked_fk_matches_dense_gather() {
        let attr = Column::new(dom(4), vec![3, 1, 0, 2]).unwrap();
        let fk_codes: Vec<u32> = vec![0, 3, 2, 2, 1, 0, 3];
        let fk_dense = Column::new(dom(4), fk_codes.clone()).unwrap();
        for chunk_rows in [1, 2, 7, 100] {
            let fk = ChunkedColumn::from_column(fk_dense.clone(), chunk_rows);
            let gathered = gather_chunks(&fk, &attr).unwrap();
            assert_eq!(gathered.codes(), attr.gather(&fk_codes).codes());
        }
        // Out-of-range FK code is a typed error, not a panic.
        let bad = ChunkedColumn::from_column(Column::new_unchecked(dom(9), vec![8]), 2);
        assert!(matches!(
            gather_chunks(&bad, &attr),
            Err(RelationalError::CodeOutOfDomain { .. })
        ));
    }

    #[test]
    fn histogram_is_thread_count_invariant() {
        let codes: Vec<u32> = (0..10_000).map(|i| (i * 31) % 11).collect();
        let col = Column::new(dom(11), codes).unwrap();
        let chunked = ChunkedColumn::from_column(col.clone(), 256);
        let h1 = chunked.histogram(1).unwrap();
        let h8 = chunked.histogram(8).unwrap();
        assert_eq!(h1, h8);
        assert_eq!(h1, col.histogram());
    }
}
