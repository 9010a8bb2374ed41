//! Frozen compressed-sparse-row (CSR) trust matrices — the one
//! representation every kernel computes on.
//!
//! [`SparseMatrix`] is the *row builder*: raw trust scores are collected
//! into its `BTreeMap` rows. A [`UserIndex`] interns user ids into dense
//! `u32` positions, and the builder is frozen once into three contiguous
//! arrays (`indptr`/`cols`/`vals`) that the kernels read:
//!
//! - row normalization (Equations 3/5/6) fuses into the freeze itself
//!   ([`CsrMatrix::freeze_normalized_sharded`]),
//! - the Equation 7 blend runs as a k-way scaled merge over row slices
//!   ([`blend_frozen`]),
//! - the Equation 8 power `RM = TM^n` runs as a row-chunked parallel SpGEMM
//!   with a reused dense accumulator per worker, multiplied left to right
//!   ([`CsrMatrix::power`]),
//! - EigenTrust's power iteration walks the frozen rows
//!   ([`principal_eigenvector`](crate::principal_eigenvector)), and
//! - batched Equation 9 queries gather one file's owner columns across many
//!   viewer rows without materializing a `BTreeMap` per row
//!   ([`CsrMatrix::column_set`] / [`CsrMatrix::gather_row`]).
//!
//! Every row kernel fans out through [`par_chunks`](crate::par_chunks) and
//! performs its floating-point additions in one fixed order — ascending
//! user id, blend parts in caller order — so results do not depend on the
//! thread or shard count, and a dirty row normalized with
//! [`normalize_row_mut`](crate::normalize_row_mut) and blended in the same
//! part order is bit-identical to the batch kernels' row.
//!
//! # Overlay
//!
//! A frozen matrix is immutable, but the incremental dirty-row recompute
//! needs to patch a few rows between full rebuilds.
//! [`CsrMatrix::set_row_arc`] stores such patches in a per-row *overlay*
//! keyed by [`UserId`] (so a patched row may reference users that did not
//! exist at freeze time); all reads consult the overlay first. The overlay is folded back into clean
//! contiguous storage by [`CsrMatrix::compact`], which the engine triggers
//! on the next full freeze (and before any multi-step power).

use crate::ops::{par_chunks, validate_blend_weights, BlendError, PowerOptions};
use crate::sparse::{SparseMatrix, SparseVector};
use mdrep_types::UserId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One computed output row: `(row position, column positions, values)`.
type CsrRow = (u32, Vec<u32>, Vec<f64>);

/// Interns [`UserId`]s into dense `u32` positions (and back).
///
/// The ids are kept sorted, so position order equals id order — frozen rows
/// iterate columns in ascending user id, exactly as the builder's rows do.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserIndex {
    ids: Vec<UserId>,
}

impl UserIndex {
    /// Builds an index from arbitrary ids (sorted and deduplicated).
    #[must_use]
    pub fn from_ids<I: IntoIterator<Item = UserId>>(ids: I) -> Self {
        let mut ids: Vec<UserId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        Self { ids }
    }

    /// Builds the union index over every row and column id of `matrices` —
    /// the shared coordinate space the engine freezes `FM`/`DM`/`UM` into.
    #[must_use]
    pub fn from_matrices(matrices: &[&SparseMatrix]) -> Self {
        let mut ids: Vec<UserId> = Vec::new();
        for m in matrices {
            for (r, c, _) in m.iter() {
                ids.push(r);
                ids.push(c);
            }
        }
        Self::from_ids(ids)
    }

    /// The dense position of `id`, if interned.
    #[must_use]
    pub fn position(&self, id: UserId) -> Option<u32> {
        self.ids
            .binary_search(&id)
            .ok()
            .map(|p| u32::try_from(p).expect("user index fits in u32"))
    }

    /// The id at `position`.
    ///
    /// # Panics
    ///
    /// Panics when `position` is out of bounds.
    #[must_use]
    pub fn id(&self, position: u32) -> UserId {
        self.ids[position as usize]
    }

    /// Number of interned ids.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The interned ids in ascending order.
    #[must_use]
    pub fn ids(&self) -> &[UserId] {
        &self.ids
    }
}

/// A pre-resolved column set for repeated row gathers (e.g. one file's
/// owner set queried by many viewers). Built once per query batch by
/// [`CsrMatrix::column_set`].
#[derive(Debug, Clone)]
pub struct ColumnSet {
    /// Queried ids, in caller order (Equation 9 accumulates in this order,
    /// matching the scalar path exactly).
    ids: Vec<UserId>,
    /// Interned position per id (`None` for ids outside the frozen index —
    /// they can still be hit through the overlay).
    positions: Vec<Option<u32>>,
}

impl ColumnSet {
    /// Number of columns in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A frozen, index-interned CSR matrix with an optional per-row overlay.
///
/// Freeze a [`SparseMatrix`] with [`freeze`](Self::freeze) (or
/// [`freeze_normalized_sharded`](Self::freeze_normalized_sharded) to fuse
/// the Equation 3/5/6 row normalization into the same pass), run the
/// contiguous kernels, and [`thaw`](Self::thaw) back when a builder is
/// needed.
///
/// # Examples
///
/// ```
/// use mdrep_matrix::{CsrMatrix, PowerOptions, SparseMatrix};
/// use mdrep_types::UserId;
///
/// let mut tm = SparseMatrix::new();
/// tm.set(UserId::new(0), UserId::new(1), 1.0)?;
/// tm.set(UserId::new(1), UserId::new(2), 1.0)?;
/// let csr = CsrMatrix::freeze(&tm);
/// let two_step = csr.power(2, PowerOptions::exact(), 1);
/// assert_eq!(two_step.get(UserId::new(0), UserId::new(2)), 1.0);
/// assert_eq!(csr.thaw(), tm);
/// # Ok::<(), mdrep_matrix::MatrixError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    index: Arc<UserIndex>,
    /// The frozen arrays, structurally shared (copy-on-write): cloning a
    /// `CsrMatrix` bumps this `Arc` instead of copying `O(nnz)` bytes, so
    /// an epoch snapshot costs only the overlay's pointer map. The arrays
    /// are written exactly once, at construction — no constructed matrix
    /// ever mutates them.
    storage: Arc<CsrStorage>,
    /// Patched rows (dirty-row recompute): reads consult this first. An
    /// empty vector masks the frozen row entirely (row removal). Rows are
    /// `Arc`-wrapped so snapshot clones share the row slabs too;
    /// `set_row_arc` replaces the `Arc`, never the pointee, keeping clones
    /// isolated.
    overlay: BTreeMap<UserId, Arc<SparseVector>>,
}

/// The immutable frozen arrays behind a [`CsrMatrix`] — see the `storage`
/// field. Held in an `Arc` so clones (epoch snapshots, readers) share one
/// allocation.
#[derive(Debug, Default)]
struct CsrStorage {
    /// Row start offsets into `cols`/`vals`; length `index.len() + 1`.
    indptr: Vec<usize>,
    /// Column positions per entry, ascending within each row.
    cols: Vec<u32>,
    /// Entry values, parallel to `cols`.
    vals: Vec<f64>,
}

impl CsrStorage {
    fn bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f64>()
    }
}

impl CsrMatrix {
    /// Freezes `m` under its own (row ∪ column) index.
    #[must_use]
    pub fn freeze(m: &SparseMatrix) -> Self {
        Self::freeze_rows(&Arc::new(UserIndex::from_matrices(&[m])), m, 1, false)
    }

    /// Fused freeze + Equation 3/5/6 row normalization under a shared
    /// `index`, which must intern every row and column id of `m` (build it
    /// with [`UserIndex::from_matrices`]). Every frozen row is scaled to
    /// sum 1 in the same pass; zero-sum rows cannot occur in a validated
    /// [`SparseMatrix`], which never stores zeros.
    ///
    /// The row space is partitioned into `shards` contiguous position
    /// ranges and each range is frozen by its own worker thread, then
    /// stitched back in range order. Each row's sum is taken over that row
    /// alone in ascending column order — the order
    /// [`normalize_row_mut`](crate::normalize_row_mut) uses — so the output
    /// is **bit-identical** at any shard count, and to a dirty row
    /// normalized on its own. This is the kernel the engine's full rebuild
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` or `m` references an id missing from
    /// `index`.
    #[must_use]
    pub fn freeze_normalized_sharded(
        index: &Arc<UserIndex>,
        m: &SparseMatrix,
        shards: usize,
    ) -> Self {
        Self::freeze_rows(index, m, shards, true)
    }

    /// The one freeze loop. Each [`par_chunks`] worker freezes one
    /// contiguous run of interned ids into `(row starts, cols, vals)`, the
    /// starts relative to the run's first entry. A lone chunk (one shard,
    /// or too few rows to split) runs on the calling thread and its arrays
    /// become the matrix's storage as they are, with no second copy.
    fn freeze_rows(
        index: &Arc<UserIndex>,
        m: &SparseMatrix,
        shards: usize,
        normalize: bool,
    ) -> Self {
        let n = index.len();
        let nnz = m.nnz();
        let parts = par_chunks(index.ids(), shards, |ids| {
            // Only the lone chunk knows its final size up front.
            let capacity = if ids.len() == n { nnz } else { 0 };
            let mut starts = Vec::with_capacity(ids.len() + 1);
            let mut cols = Vec::with_capacity(capacity);
            let mut vals = Vec::with_capacity(capacity);
            for &id in ids {
                starts.push(vals.len());
                let Some(row) = m.row(id) else { continue };
                // Dividing by 1.0 is exact, so the unnormalized freeze
                // stores every value bit for bit.
                let scale: f64 = if normalize { row.values().sum() } else { 1.0 };
                debug_assert!(scale > 0.0, "validated matrices store no zero rows");
                for (&c, &v) in row {
                    cols.push(index.position(c).expect("column id interned in index"));
                    vals.push(v / scale);
                }
            }
            (starts, cols, vals)
        });
        // Stitch in chunk order = ascending position order, offsetting
        // each chunk's row starts by the entries before it.
        let mut parts = parts.into_iter();
        let (mut indptr, mut cols, mut vals) = parts.next().expect("at least one chunk");
        indptr.reserve_exact((n + 1).saturating_sub(indptr.len()));
        cols.reserve_exact(nnz.saturating_sub(cols.len()));
        vals.reserve_exact(nnz.saturating_sub(vals.len()));
        for (starts, part_cols, part_vals) in parts {
            let offset = vals.len();
            indptr.extend(starts.into_iter().map(|s| s + offset));
            cols.extend(part_cols);
            vals.extend(part_vals);
        }
        indptr.push(vals.len());
        debug_assert_eq!(indptr.len(), n + 1);
        assert_eq!(cols.len(), nnz, "index must intern every row id of m");
        Self {
            index: Arc::clone(index),
            storage: Arc::new(CsrStorage { indptr, cols, vals }),
            overlay: BTreeMap::new(),
        }
    }

    /// The interner this matrix is frozen under.
    #[must_use]
    pub fn index(&self) -> &Arc<UserIndex> {
        &self.index
    }

    /// Thaws back into a [`SparseMatrix`] builder (overlay folded in).
    #[must_use]
    pub fn thaw(&self) -> SparseMatrix {
        let mut out = SparseMatrix::new();
        for r in self.row_ids() {
            let row: SparseVector = self.row_entries(r).collect();
            out.set_row(r, row).expect("frozen entries are valid");
        }
        out
    }

    /// The frozen (pre-overlay) row slice at dense position `pos`.
    fn base_row(&self, pos: u32) -> (&[u32], &[f64]) {
        let s = &*self.storage;
        let (start, end) = (s.indptr[pos as usize], s.indptr[pos as usize + 1]);
        (&s.cols[start..end], &s.vals[start..end])
    }

    /// Whether `self` and `other` share one frozen-storage allocation —
    /// true exactly when one is a copy-on-write clone of the other (plus
    /// any number of overlay patches). Snapshot tests use this to prove
    /// publication did not deep-copy the matrices.
    #[must_use]
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Heap bytes of the frozen arrays (`indptr`/`cols`/`vals`). Shared,
    /// not copied, by clones — the denominator of the COW savings gauges.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.storage.bytes()
    }

    /// Approximate heap bytes of the overlay row slabs — the only
    /// per-matrix payload a copy-on-write snapshot actually republishes
    /// (clones share the slab `Arc`s, but each patched row was materialized
    /// fresh by the dirty recompute that produced it).
    #[must_use]
    pub fn overlay_bytes(&self) -> usize {
        self.overlay
            .values()
            .map(|row| crate::approx_row_bytes(row.len()))
            .sum()
    }

    /// Entry `(row, col)`, with missing entries reading as `0.0`.
    #[must_use]
    pub fn get(&self, row: UserId, col: UserId) -> f64 {
        if let Some(patched) = self.overlay.get(&row) {
            return patched.get(&col).copied().unwrap_or(0.0);
        }
        let (Some(r), Some(c)) = (self.index.position(row), self.index.position(col)) else {
            return 0.0;
        };
        let (cols, vals) = self.base_row(r);
        cols.binary_search(&c).map(|i| vals[i]).unwrap_or(0.0)
    }

    /// Iterates `(col, value)` over one row in ascending column order,
    /// consulting the overlay first.
    pub fn row_entries(&self, row: UserId) -> impl Iterator<Item = (UserId, f64)> + '_ {
        let (patched, base) = match self.overlay.get(&row) {
            Some(p) => (Some(p), None),
            None => (None, self.index.position(row)),
        };
        let patched_iter = patched
            .into_iter()
            .flat_map(|p| p.iter().map(|(&c, &v)| (c, v)));
        let base_iter = base.into_iter().flat_map(move |pos| {
            let (cols, vals) = self.base_row(pos);
            cols.iter().zip(vals).map(|(&c, &v)| (self.index.id(c), v))
        });
        patched_iter.chain(base_iter)
    }

    /// Ids of non-empty rows, ascending (overlay-aware: patched-empty rows
    /// are skipped, patched-new rows included).
    #[must_use]
    pub fn row_ids(&self) -> Vec<UserId> {
        let mut ids: Vec<UserId> = self
            .index
            .ids()
            .iter()
            .enumerate()
            .filter(|&(pos, id)| {
                !self.overlay.contains_key(id)
                    && self.storage.indptr[pos] < self.storage.indptr[pos + 1]
            })
            .map(|(_, &id)| id)
            .collect();
        ids.extend(
            self.overlay
                .iter()
                .filter(|(_, row)| !row.is_empty())
                .map(|(&id, _)| id),
        );
        ids.sort_unstable();
        ids
    }

    /// Iterates `(row, col, value)` triples in deterministic row-major
    /// order, matching [`SparseMatrix::iter`] on the thawed matrix.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, UserId, f64)> + '_ {
        self.row_ids()
            .into_iter()
            .flat_map(move |r| self.row_entries(r).map(move |(c, v)| (r, c, v)))
    }

    /// Number of stored entries (overlay-aware).
    #[must_use]
    pub fn nnz(&self) -> usize {
        let mut nnz = self.storage.vals.len();
        for (id, row) in &self.overlay {
            if let Some(pos) = self.index.position(*id) {
                nnz -= self.storage.indptr[pos as usize + 1] - self.storage.indptr[pos as usize];
            }
            nnz += row.len();
        }
        nnz
    }

    /// Number of non-empty rows (overlay-aware). Counts without collecting
    /// [`row_ids`](Self::row_ids): the frozen non-empty rows, corrected by
    /// each overlay row that replaces one.
    #[must_use]
    pub fn row_count(&self) -> usize {
        let frozen_nonempty = |pos: usize| self.storage.indptr[pos] < self.storage.indptr[pos + 1];
        let frozen = (0..self.index.len())
            .filter(|&pos| frozen_nonempty(pos))
            .count();
        self.overlay.iter().fold(frozen, |count, (id, row)| {
            let replaced = self
                .index
                .position(*id)
                .is_some_and(|pos| frozen_nonempty(pos as usize));
            count + usize::from(!row.is_empty()) - usize::from(replaced)
        })
    }

    /// Whether the matrix stores no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nnz() == 0
    }

    /// Sum of the entries of `row` (0.0 for a missing row), accumulated in
    /// ascending column order.
    #[must_use]
    pub fn row_sum(&self, row: UserId) -> f64 {
        self.row_entries(row).map(|(_, v)| v).sum()
    }

    /// Largest entry of `row` (0.0 for a missing row) — the scaling factor
    /// of the service policy's relative-reputation view.
    #[must_use]
    pub fn row_max(&self, row: UserId) -> f64 {
        self.row_entries(row).fold(0.0f64, |a, (_, v)| a.max(v))
    }

    /// Returns `true` if every non-empty row sums to 1 within `tol`.
    #[must_use]
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        self.row_ids()
            .into_iter()
            .all(|r| (self.row_sum(r) - 1.0).abs() <= tol)
    }

    /// Patches one row wholesale with a prebuilt, already-filtered slab
    /// (the dirty-row recompute primitive): the replacement lands in the
    /// overlay, masking the frozen row, and an empty slab removes the row.
    /// Columns need not be interned — new users can appear between full
    /// freezes. The parallel dirty recompute materializes each patched row
    /// (and its `Arc`) on a worker thread, leaving the serial merge a
    /// pointer insert; sharing one slab between two matrices (`TM` and a
    /// one-step `RM`) is sound because overlay rows are never mutated in
    /// place — patches always replace the `Arc`.
    ///
    /// Debug-asserts that every entry is finite and positive.
    pub fn set_row_arc(&mut self, row: UserId, values: Arc<SparseVector>) {
        debug_assert!(
            values.values().all(|v| v.is_finite() && *v > 0.0),
            "prebuilt row slabs must be filtered to finite positive entries"
        );
        if values.is_empty() && self.index.position(row).is_none() {
            // Nothing to mask: the row never existed.
            self.overlay.remove(&row);
            return;
        }
        self.overlay.insert(row, values);
    }

    /// Number of overlaid (patched) rows.
    #[must_use]
    pub fn overlay_len(&self) -> usize {
        self.overlay.len()
    }

    /// Whether the matrix has no pending overlay (fully contiguous).
    #[must_use]
    pub fn is_compact(&self) -> bool {
        self.overlay.is_empty()
    }

    /// Folds the overlay back into contiguous storage, extending the index
    /// with any new ids the patches introduced. No-op (cheap clone) when
    /// already compact.
    #[must_use]
    pub fn compact(&self) -> Self {
        if self.is_compact() {
            return self.clone();
        }
        let mut ids: Vec<UserId> = self.index.ids().to_vec();
        for (r, row) in &self.overlay {
            ids.push(*r);
            ids.extend(row.keys().copied());
        }
        let index = Arc::new(UserIndex::from_ids(ids));
        let n = index.len();
        let mut indptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for (pos, &id) in index.ids().iter().enumerate() {
            indptr[pos] = vals.len();
            for (c, v) in self.row_entries(id) {
                cols.push(index.position(c).expect("compacted index covers all ids"));
                vals.push(v);
            }
        }
        indptr[n] = vals.len();
        Self {
            index,
            storage: Arc::new(CsrStorage { indptr, cols, vals }),
            overlay: BTreeMap::new(),
        }
    }

    /// Pre-resolves a column set for repeated [`gather_row`](Self::gather_row) calls.
    #[must_use]
    pub fn column_set(&self, ids: &[UserId]) -> ColumnSet {
        ColumnSet {
            ids: ids.to_vec(),
            positions: ids.iter().map(|&id| self.index.position(id)).collect(),
        }
    }

    /// Gathers `row`'s values at the columns of `set`, in set order, into
    /// `out` (cleared first; missing entries read 0.0). This is the batched
    /// Equation 9 primitive: one binary search per (viewer, owner) pair on
    /// contiguous slices, no `BTreeMap` materialization.
    pub fn gather_row(&self, row: UserId, set: &ColumnSet, out: &mut Vec<f64>) {
        out.clear();
        if let Some(patched) = self.overlay.get(&row) {
            out.extend(
                set.ids
                    .iter()
                    .map(|c| patched.get(c).copied().unwrap_or(0.0)),
            );
            return;
        }
        let Some(pos) = self.index.position(row) else {
            out.extend(std::iter::repeat_n(0.0, set.len()));
            return;
        };
        let (cols, vals) = self.base_row(pos);
        out.extend(set.positions.iter().map(|p| {
            p.and_then(|c| cols.binary_search(&c).ok().map(|i| vals[i]))
                .unwrap_or(0.0)
        }));
    }

    /// One SpGEMM step `self · other` with pruning **fused into the
    /// accumulation pass**, row-partitioned across `threads` workers. Each
    /// worker reuses one dense `f64` accumulator (plus a touched-column
    /// list and candidate/screen buffers) across its whole row chunk, so
    /// per-row cost is `O(nnz(row) · avg_nnz(other) + touched · log
    /// touched)` for exact rows and `O(k · avg_nnz(other) + touched +
    /// k log k)` for `top_k`-pruned rows: the fan-out screen first reduces
    /// the row of `self` to its `top_k` heaviest entries (so the product
    /// work itself shrinks, not just the output), the partial select over
    /// the accumulated candidates replaces the full touched-column sort,
    /// and only the kept entries are ever emitted — no dense product row
    /// is materialized into the output.
    ///
    /// The fused per-row rule is [`PowerOptions`]' ε-drop → top-k →
    /// renormalize, applied to the input row of `self` when `top_k` is
    /// set (the fan-out screen) and to every accumulated product row,
    /// with ties at the k-boundary breaking toward the smaller column
    /// position; selection is a per-row pure function of the operands,
    /// so output is bit-identical at any thread count. Every output entry
    /// starts from `0.0` and accumulates its terms in ascending `k`, and
    /// renormalization sums in ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`, `options.top_k == Some(0)`, or the
    /// operands are frozen under different indices. Operands must be
    /// compact ([`compact`](Self::compact) first).
    #[must_use]
    pub fn multiply_step(&self, other: &Self, options: PowerOptions, threads: usize) -> Self {
        assert!(
            options.top_k != Some(0),
            "top_k must be at least 1 when set"
        );
        assert!(
            self.is_compact() && other.is_compact(),
            "SpGEMM operands must be compact"
        );
        assert!(
            Arc::ptr_eq(&self.index, &other.index) || self.index == other.index,
            "SpGEMM operands must share one index"
        );
        let n = self.index.len();
        let occupied: Vec<u32> = (0..n as u32)
            .filter(|&p| self.storage.indptr[p as usize] < self.storage.indptr[p as usize + 1])
            .collect();
        // The ε-filter, and the top-k order: heaviest first, equal values
        // breaking toward the smaller column position. A total order, so
        // the kept set is independent of candidate order (and therefore of
        // chunking / thread count).
        let keep = |v: f64| options.prune_threshold == 0.0 || v >= options.prune_threshold;
        let heavier = |a: &(u32, f64), b: &(u32, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let chunks = par_chunks(&occupied, threads, |chunk| {
            let mut scratch = vec![0.0f64; n];
            let mut touched: Vec<u32> = Vec::new();
            let mut candidates: Vec<(u32, f64)> = Vec::new();
            let mut screen: Vec<(u32, f64)> = Vec::new();
            let (mut screen_cols, mut screen_vals) = (Vec::new(), Vec::new());
            let mut out = Vec::with_capacity(chunk.len());
            for &r in chunk {
                let (a_cols, a_vals) = match options.top_k {
                    None => self.base_row(r),
                    Some(cap) => {
                        // Fan-out cap: the hop propagates through at most
                        // the `cap` most-trusted intermediaries. The fused
                        // rule applied to the input row — ε-filter,
                        // partial select with the output's total order,
                        // renormalize in ascending column order. This is
                        // where the pruned step beats the exact one on
                        // *work*, not just output size: per-row products
                        // drop from `deg_a · deg_b` to `cap · deg_b`.
                        let (cols, vals) = self.base_row(r);
                        screen.clear();
                        screen.extend(
                            cols.iter()
                                .copied()
                                .zip(vals.iter().copied())
                                .filter(|&(_, v)| keep(v)),
                        );
                        if screen.len() > cap {
                            screen.select_nth_unstable_by(cap - 1, heavier);
                            screen.truncate(cap);
                        }
                        screen.sort_unstable_by_key(|&(c, _)| c);
                        let sum: f64 = screen.iter().map(|&(_, v)| v).sum();
                        screen_cols.clear();
                        screen_vals.clear();
                        if sum > 0.0 {
                            for &(c, v) in &screen {
                                screen_cols.push(c);
                                screen_vals.push(v / sum);
                            }
                        }
                        (&screen_cols[..], &screen_vals[..])
                    }
                };
                for (&k, &a_rk) in a_cols.iter().zip(a_vals) {
                    if a_rk == 0.0 {
                        continue;
                    }
                    let (b_cols, b_vals) = other.base_row(k);
                    for (&c, &b_kc) in b_cols.iter().zip(b_vals) {
                        // A column cancelled back to exact 0.0 re-enters
                        // `touched`; the emit loops below read each column
                        // once and zero it, so duplicates are harmless.
                        if scratch[c as usize] == 0.0 {
                            touched.push(c);
                        }
                        scratch[c as usize] += a_rk * b_kc;
                    }
                }
                let (mut row_cols, mut row_vals) = (Vec::new(), Vec::new());
                if let Some(k) = options.top_k {
                    // Fused top-k emit: drain the accumulator unsorted into
                    // the candidate buffer (ε-filtered), partial-select the
                    // k heaviest, and only then sort the keepers by column.
                    // Avoids the full touched sort *and* the dense emit.
                    candidates.clear();
                    for &c in &touched {
                        let v = scratch[c as usize];
                        scratch[c as usize] = 0.0;
                        if v != 0.0 && keep(v) {
                            candidates.push((c, v));
                        }
                    }
                    if candidates.len() > k {
                        candidates.select_nth_unstable_by(k - 1, heavier);
                        candidates.truncate(k);
                    }
                    candidates.sort_unstable_by_key(|&(c, _)| c);
                    row_cols.reserve_exact(candidates.len());
                    row_vals.reserve_exact(candidates.len());
                    for &(c, v) in &candidates {
                        row_cols.push(c);
                        row_vals.push(v);
                    }
                } else {
                    touched.sort_unstable();
                    for &c in &touched {
                        let v = scratch[c as usize];
                        scratch[c as usize] = 0.0;
                        // Exact zeros are dropped and, when pruning,
                        // sub-threshold entries too.
                        if v != 0.0 && keep(v) {
                            row_cols.push(c);
                            row_vals.push(v);
                        }
                    }
                }
                touched.clear();
                if options.is_pruning() && !row_vals.is_empty() {
                    // Ascending-column sum order, like every other row
                    // normalization.
                    let sum: f64 = row_vals.iter().sum();
                    if sum > 0.0 {
                        for v in &mut row_vals {
                            *v /= sum;
                        }
                    }
                }
                if !row_cols.is_empty() {
                    out.push((r, row_cols, row_vals));
                }
            }
            out
        });
        Self::assemble(Arc::clone(&self.index), n, chunks)
    }

    /// Stitches per-chunk row results (ascending row positions across and
    /// within chunks) into one CSR.
    fn assemble(index: Arc<UserIndex>, n: usize, chunks: Vec<Vec<CsrRow>>) -> Self {
        let nnz = chunks.iter().flatten().map(|(_, c, _)| c.len()).sum();
        let mut indptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        let mut next = 0usize;
        for (r, row_cols, row_vals) in chunks.into_iter().flatten() {
            for p in indptr.iter_mut().take(r as usize + 1).skip(next) {
                *p = vals.len();
            }
            next = r as usize + 1;
            cols.extend(row_cols);
            vals.extend(row_vals);
        }
        for p in indptr.iter_mut().skip(next) {
            *p = vals.len();
        }
        Self {
            index,
            storage: Arc::new(CsrStorage { indptr, cols, vals }),
            overlay: BTreeMap::new(),
        }
    }

    /// Identity matrix over `index`: 1.0 on the diagonal for every interned
    /// id. This is `power(0, ..)`'s return value, matching the mathematical
    /// convention `M^0 = I`.
    #[must_use]
    pub fn identity(index: &Arc<UserIndex>) -> Self {
        let n = index.len();
        Self {
            index: Arc::clone(index),
            storage: Arc::new(CsrStorage {
                indptr: (0..=n).collect(),
                cols: (0..n as u32).collect(),
                vals: vec![1.0; n],
            }),
            overlay: BTreeMap::new(),
        }
    }

    /// Equation 8 on the frozen representation: `RM = TM^n` with optional
    /// fused pruning, multiplied left to right (`((TM·TM)·TM)·…`), one
    /// [`multiply_step`](Self::multiply_step) per hop — the order of the
    /// engine's trust tiers, so `power(n)` equals the engine's `RM` bit for
    /// bit. Pruning *between* hops is the semantics: each hop's sparsity
    /// bound feeds the next. Overlaid matrices are compacted first.
    ///
    /// `n == 0` returns [`identity`](Self::identity) on the (compacted)
    /// index; `n == 1` returns the matrix itself with a single copy.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `options.top_k == Some(0)`.
    #[must_use]
    pub fn power(&self, n: u32, options: PowerOptions, threads: usize) -> Self {
        let base = if self.is_compact() {
            self.clone()
        } else {
            self.compact()
        };
        if n == 0 {
            return Self::identity(base.index());
        }
        let mut acc = base.clone();
        for _ in 1..n {
            acc = acc.multiply_step(&base, options, threads);
        }
        acc
    }
}

impl PartialEq for CsrMatrix {
    /// Semantic equality over the merged (overlay-aware) triples — two
    /// matrices are equal when they store the same entries, regardless of
    /// index layout or overlay state.
    fn eq(&self, other: &Self) -> bool {
        let mut a = self.iter();
        let mut b = other.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) if x == y => {}
                _ => return false,
            }
        }
    }
}

/// Equation 7 on frozen operands: `TM = Σ wᵢ·Mᵢ`, row-partitioned across
/// `threads` workers with a dense accumulator per worker. All parts must be
/// compact and share one index. Per output entry, contributions accumulate
/// in `parts` order starting from `0.0`, so the result is bit-identical at
/// any thread count, and to the engine's dirty-row blend of the same row.
///
/// # Examples
///
/// ```
/// use mdrep_matrix::{blend_frozen, CsrMatrix, SparseMatrix, UserIndex};
/// use mdrep_types::UserId;
/// use std::sync::Arc;
///
/// let (a, b, c) = (UserId::new(0), UserId::new(1), UserId::new(2));
/// let mut fm = SparseMatrix::new();
/// fm.set(a, b, 1.0)?;
/// let mut dm = SparseMatrix::new();
/// dm.set(a, c, 1.0)?;
/// let index = Arc::new(UserIndex::from_matrices(&[&fm, &dm]));
/// let fm = CsrMatrix::freeze_normalized_sharded(&index, &fm, 1);
/// let dm = CsrMatrix::freeze_normalized_sharded(&index, &dm, 1);
/// let tm = blend_frozen(&[(0.7, &fm), (0.3, &dm)], 1).expect("valid weights");
/// assert_eq!(tm.get(a, b), 0.7);
/// assert_eq!(tm.get(a, c), 0.3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Returns [`BlendError`] when the weights are not a convex combination.
///
/// # Panics
///
/// Panics if `threads == 0`, a part is not compact, or indices differ.
pub fn blend_frozen(parts: &[(f64, &CsrMatrix)], threads: usize) -> Result<CsrMatrix, BlendError> {
    validate_blend_weights(parts.iter().map(|(w, _)| *w))?;
    let first = parts.first().expect("validated weights are non-empty").1;
    for (_, m) in parts {
        assert!(m.is_compact(), "blend parts must be compact");
        assert!(
            Arc::ptr_eq(&m.index, &first.index) || m.index == first.index,
            "blend parts must share one index"
        );
    }
    let n = first.index.len();
    let occupied: Vec<u32> = (0..n as u32)
        .filter(|&p| {
            parts
                .iter()
                .any(|(_, m)| m.storage.indptr[p as usize] < m.storage.indptr[p as usize + 1])
        })
        .collect();
    let chunks = par_chunks(&occupied, threads, |chunk| {
        let mut scratch = vec![0.0f64; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut out = Vec::with_capacity(chunk.len());
        for &r in chunk {
            for (w, m) in parts {
                if *w == 0.0 {
                    continue;
                }
                let (cols, vals) = m.base_row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    // Cancellation duplicates in `touched` are harmless:
                    // the emit loop reads each column once and zeroes it.
                    if scratch[c as usize] == 0.0 {
                        touched.push(c);
                    }
                    scratch[c as usize] += w * v;
                }
            }
            touched.sort_unstable();
            let (mut row_cols, mut row_vals) = (Vec::new(), Vec::new());
            for &c in &touched {
                let v = scratch[c as usize];
                scratch[c as usize] = 0.0;
                if v != 0.0 {
                    row_cols.push(c);
                    row_vals.push(v);
                }
            }
            touched.clear();
            if !row_cols.is_empty() {
                out.push((r, row_cols, row_vals));
            }
        }
        out
    });
    Ok(CsrMatrix::assemble(Arc::clone(&first.index), n, chunks))
}

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize_row_mut;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    /// A deterministic pseudo-random matrix: `rows` rows, ~`deg` entries
    /// per row, values in (0, 8).
    fn synth(rows: u64, deg: u64, seed: u64) -> SparseMatrix {
        let mut m = SparseMatrix::new();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for r in 0..rows {
            for _ in 0..deg {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let c = (state >> 33) % rows;
                let v = 1.0 + ((state >> 11) % 7) as f64;
                m.set(u(r), u(c), v).unwrap();
            }
        }
        m
    }

    /// Builds a matrix from `(row, col, value)` triples.
    fn matrix(entries: &[(u64, u64, f64)]) -> SparseMatrix {
        let mut m = SparseMatrix::new();
        for &(r, c, v) in entries {
            m.set(u(r), u(c), v).unwrap();
        }
        m
    }

    /// The 3-user chain 0 → 1 → 2 (row-stochastic), frozen.
    fn chain() -> CsrMatrix {
        CsrMatrix::freeze(&matrix(&[(0, 1, 1.0), (1, 2, 1.0), (2, 2, 1.0)]))
    }

    /// Normalize-on-freeze under a shared index over `ms`, one per input.
    fn freeze_normalized_all(ms: &[&SparseMatrix]) -> Vec<CsrMatrix> {
        let index = Arc::new(UserIndex::from_matrices(ms));
        ms.iter()
            .map(|m| CsrMatrix::freeze_normalized_sharded(&index, m, 1))
            .collect()
    }

    /// `m` row-normalized (by the reference kernel) and frozen.
    fn frozen_stochastic(m: &SparseMatrix) -> (SparseMatrix, CsrMatrix) {
        let norm = oracle::normalized_rows(m);
        let csr = CsrMatrix::freeze(&norm);
        (norm, csr)
    }

    /// Patches `row` through the overlay with a prebuilt slab.
    fn patch(csr: &mut CsrMatrix, row: u64, entries: &[(u64, f64)]) {
        let slab: SparseVector = entries.iter().map(|&(c, v)| (u(c), v)).collect();
        csr.set_row_arc(u(row), Arc::new(slab));
    }

    /// Bit-for-bit equality of two matrices' entries.
    fn assert_bits_eq(a: &CsrMatrix, b: &SparseMatrix, what: &str) {
        let (a, b): (Vec<_>, Vec<_>) = (
            a.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect(),
            b.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect(),
        );
        assert_eq!(a, b, "{what}");
    }

    #[test]
    fn index_interns_sorted_unique() {
        let idx = UserIndex::from_ids([u(5), u(1), u(5), u(3)]);
        assert_eq!(idx.ids(), &[u(1), u(3), u(5)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.position(u(3)), Some(1));
        assert_eq!(idx.position(u(2)), None);
        assert_eq!(idx.id(2), u(5));
        assert!(!idx.is_empty());
        assert!(UserIndex::default().is_empty());
    }

    #[test]
    fn freeze_thaw_round_trip() {
        let m = synth(40, 5, 7);
        let csr = CsrMatrix::freeze(&m);
        assert_eq!(csr.thaw(), m);
        assert_eq!(csr.nnz(), m.nnz());
        assert_eq!(csr.row_count(), m.row_count());
        assert_bits_eq(&csr, &m, "the unnormalized freeze stores values as-is");
    }

    #[test]
    fn freeze_empty_matrix() {
        let csr = CsrMatrix::freeze(&SparseMatrix::new());
        assert!(csr.is_empty());
        assert_eq!(csr.nnz(), 0);
        assert!(csr.row_ids().is_empty());
        assert!(csr.thaw().is_empty());
        assert!(csr.is_row_stochastic(1e-12), "vacuously stochastic");
    }

    #[test]
    fn get_matches_builder() {
        let m = synth(30, 4, 3);
        let csr = CsrMatrix::freeze(&m);
        for (r, c, v) in m.iter() {
            assert_eq!(csr.get(r, c), v);
        }
        assert_eq!(csr.get(u(999), u(0)), 0.0);
        assert_eq!(csr.get(u(0), u(999)), 0.0);
    }

    #[test]
    fn freeze_with_sparse_index_gaps() {
        // Rows 2 and 7 only; index carries extra ids that stay empty.
        let m = matrix(&[(2, 7, 1.0), (7, 2, 2.0)]);
        let index = Arc::new(UserIndex::from_ids([u(0), u(2), u(5), u(7), u(9)]));
        let csr = CsrMatrix::freeze_normalized_sharded(&index, &m, 1);
        assert_eq!(csr.get(u(2), u(7)), 1.0);
        assert_eq!(csr.get(u(7), u(2)), 1.0);
        assert_eq!(csr.get(u(5), u(2)), 0.0);
        assert_eq!(csr.row_ids(), vec![u(2), u(7)]);
        assert_eq!(csr.thaw(), oracle::normalized_rows(&m));
    }

    #[test]
    fn normalized_rows_are_stochastic() {
        let m = matrix(&[(0, 1, 2.0), (0, 2, 6.0), (1, 0, 5.0)]);
        let n = &freeze_normalized_all(&[&m])[0];
        assert!(n.is_row_stochastic(1e-12));
        assert_eq!(n.get(u(0), u(1)), 0.25);
        assert_eq!(n.get(u(0), u(2)), 0.75);
        assert_eq!(n.get(u(1), u(0)), 1.0);
    }

    #[test]
    fn fused_normalize_matches_normalized_rows() {
        let m = synth(50, 6, 11);
        let fused = &freeze_normalized_all(&[&m])[0];
        assert_bits_eq(fused, &oracle::normalized_rows(&m), "bit-identical");
        assert!(fused.is_row_stochastic(1e-12));
        // A dirty row normalized on its own equals the batch row.
        for r in m.row_ids() {
            let mut row = m.row(r).unwrap().clone();
            assert!(normalize_row_mut(&mut row));
            let batch: SparseVector = fused.row_entries(r).collect();
            assert_eq!(row, batch, "row {r}");
        }
    }

    #[test]
    fn sharded_freeze_is_bit_identical_to_serial() {
        let m = synth(97, 6, 77);
        let index = Arc::new(UserIndex::from_matrices(&[&m]));
        let serial = CsrMatrix::freeze_normalized_sharded(&index, &m, 1);
        for shards in [2, 3, 4, 7, 16, 200] {
            let sharded = CsrMatrix::freeze_normalized_sharded(&index, &m, shards);
            assert_eq!(
                sharded.storage.indptr, serial.storage.indptr,
                "{shards} shards"
            );
            assert_eq!(sharded.storage.cols, serial.storage.cols, "{shards} shards");
            // Bit-identical values, not just semantically equal.
            for (a, b) in sharded.storage.vals.iter().zip(&serial.storage.vals) {
                assert_eq!(a.to_bits(), b.to_bits(), "{shards} shards");
            }
        }
    }

    #[test]
    fn sharded_freeze_handles_index_gaps_and_empty() {
        let m = matrix(&[(2, 7, 3.0), (7, 2, 2.0), (7, 7, 2.0)]);
        let index = Arc::new(UserIndex::from_ids([u(0), u(2), u(5), u(7), u(9)]));
        let serial = CsrMatrix::freeze_normalized_sharded(&index, &m, 1);
        let sharded = CsrMatrix::freeze_normalized_sharded(&index, &m, 3);
        assert_eq!(sharded.storage.indptr, serial.storage.indptr);
        assert_eq!(sharded, serial);
        assert!(sharded.is_row_stochastic(1e-12));

        let empty = CsrMatrix::freeze_normalized_sharded(
            &Arc::new(UserIndex::default()),
            &SparseMatrix::new(),
            4,
        );
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "intern every row id")]
    fn freeze_rejects_an_index_missing_rows() {
        let m = matrix(&[(0, 1, 1.0), (3, 1, 1.0)]);
        let index = Arc::new(UserIndex::from_ids([u(0), u(1)]));
        let _ = CsrMatrix::freeze_normalized_sharded(&index, &m, 1);
    }

    #[test]
    fn cow_clone_shares_frozen_storage() {
        let m = synth(60, 5, 9);
        let csr = CsrMatrix::freeze(&m);
        let snap = csr.clone();
        assert!(snap.shares_storage_with(&csr), "clone must not deep-copy");
        assert!(csr.storage_bytes() > 0);
        assert_eq!(snap.storage_bytes(), csr.storage_bytes());
        // A compact() of a compact matrix is a cheap clone — still shared.
        assert!(csr.compact().shares_storage_with(&csr));
    }

    #[test]
    fn set_row_after_clone_leaves_sibling_untouched() {
        let m = synth(40, 4, 21);
        let mut live = CsrMatrix::freeze(&m);
        let snap = live.clone();
        let before: Vec<(UserId, UserId, f64)> = snap.iter().collect();
        // Patch one existing row and one brand-new row on the live copy.
        let target = snap.row_ids()[0];
        patch(&mut live, target.as_u64(), &[(1, 0.25), (2, 0.75)]);
        patch(&mut live, 10_000, &[(3, 1.0)]);
        patch(&mut live, snap.row_ids()[1].as_u64(), &[]); // removal
        assert!(live.shares_storage_with(&snap), "patches stay in overlay");
        assert_eq!(live.overlay_len(), 3);
        assert_eq!(live.row_count(), snap.row_count(), "one added, one removed");
        assert_eq!(live.row_count(), live.row_ids().len());
        assert!(live.overlay_bytes() > 0);
        let after: Vec<(UserId, UserId, f64)> = snap.iter().collect();
        assert_eq!(before, after, "snapshot must not observe patches");
        assert_eq!(live.get(target, u(2)), 0.75);
        // Compacting folds the overlay into fresh storage.
        let folded = live.compact();
        assert!(!folded.shares_storage_with(&live));
        assert_eq!(folded, live, "compaction preserves entries");
    }

    #[test]
    fn multiply_matches_hand_computation() {
        // A = [[0,1],[1,0]] (swap), A·A = I over the occupied rows.
        let a = CsrMatrix::freeze(&matrix(&[(0, 1, 1.0), (1, 0, 1.0)]));
        let sq = a.multiply_step(&a, PowerOptions::exact(), 1);
        assert_eq!(sq.get(u(0), u(0)), 1.0);
        assert_eq!(sq.get(u(1), u(1)), 1.0);
        assert_eq!(sq.get(u(0), u(1)), 0.0);
    }

    #[test]
    fn power_one_is_identity_operation() {
        let m = chain();
        assert_eq!(m.power(1, PowerOptions::exact(), 1), m);
    }

    #[test]
    fn power_extends_reach_along_paths() {
        let m = chain();
        // One step: 0 reaches 1 only.
        assert_eq!(m.get(u(0), u(2)), 0.0);
        // Two steps: 0 reaches 2 through 1.
        let m2 = m.power(2, PowerOptions::exact(), 1);
        assert_eq!(m2.get(u(0), u(2)), 1.0);
        assert_eq!(m2.get(u(0), u(1)), 0.0);
    }

    #[test]
    fn power_of_stochastic_matrix_stays_stochastic() {
        let m = CsrMatrix::freeze(&matrix(&[
            (0, 0, 0.2),
            (0, 1, 0.8),
            (1, 0, 0.6),
            (1, 1, 0.4),
        ]));
        for n in 1..=5 {
            assert!(
                m.power(n, PowerOptions::exact(), 1).is_row_stochastic(1e-9),
                "power {n}"
            );
        }
    }

    #[test]
    fn pruned_power_stays_stochastic_when_renormalizing() {
        // A dense-ish matrix with small entries.
        let mut raw = SparseMatrix::new();
        for i in 0..8u64 {
            for j in 0..8u64 {
                raw.set(u(i), u(j), 1.0 + ((i * 7 + j * 3) % 5) as f64)
                    .unwrap();
            }
        }
        let m = &freeze_normalized_all(&[&raw])[0];
        let p = m.power(3, PowerOptions::pruned(0.05), 1);
        assert!(p.is_row_stochastic(1e-9));
        assert!(p.nnz() <= m.power(3, PowerOptions::exact(), 1).nnz());
    }

    #[test]
    fn power_matches_btreemap_power() {
        let (m, csr) = frozen_stochastic(&synth(60, 5, 13));
        for n in 1..=3 {
            let frozen = csr.power(n, PowerOptions::exact(), 1);
            assert_bits_eq(&frozen, &oracle::power(&m, n, PowerOptions::exact()), "n");
        }
    }

    #[test]
    fn parallel_power_matches_serial() {
        let (_, csr) = frozen_stochastic(&synth(80, 6, 17));
        let serial = csr.power(2, PowerOptions::exact(), 1);
        for threads in [2, 4, 7] {
            assert_eq!(csr.power(2, PowerOptions::exact(), threads), serial);
        }
    }

    #[test]
    fn pruned_power_matches_btreemap() {
        let (m, csr) = frozen_stochastic(&synth(40, 8, 19));
        let frozen = csr.power(3, PowerOptions::pruned(0.02), 2);
        let reference = oracle::power(&m, 3, PowerOptions::pruned(0.02));
        assert_eq!(frozen.thaw(), reference);
        assert!(frozen.is_row_stochastic(1e-9));
    }

    #[test]
    fn blend_weighted_sum() {
        let parts = freeze_normalized_all(&[
            &matrix(&[(0, 1, 1.0)]),
            &matrix(&[(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0)]),
        ]);
        let out = blend_frozen(&[(0.4, &parts[0]), (0.6, &parts[1])], 1).unwrap();
        assert!((out.get(u(0), u(1)) - 0.7).abs() < 1e-12);
        assert!((out.get(u(0), u(2)) - 0.3).abs() < 1e-12);
        assert!((out.get(u(1), u(0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn blend_preserves_row_stochasticity() {
        // Blending row-stochastic matrices with convex weights stays
        // row-stochastic when all matrices cover the same rows.
        let parts = freeze_normalized_all(&[
            &matrix(&[(0, 1, 0.5), (0, 2, 0.5)]),
            &matrix(&[(0, 2, 1.0)]),
        ]);
        let out = blend_frozen(&[(0.5, &parts[0]), (0.5, &parts[1])], 1).unwrap();
        assert!(out.is_row_stochastic(1e-12));
    }

    #[test]
    fn blend_with_three_dimensions_matches_equation_seven() {
        // α·FM + β·DM + γ·UM with hand-computed output.
        let parts = freeze_normalized_all(&[
            &matrix(&[(0, 1, 1.0)]),
            &matrix(&[(0, 1, 1.0)]),
            &matrix(&[(0, 2, 1.0)]),
        ]);
        let tm = blend_frozen(&[(0.5, &parts[0]), (0.3, &parts[1]), (0.2, &parts[2])], 1).unwrap();
        assert!((tm.get(u(0), u(1)) - 0.8).abs() < 1e-12);
        assert!((tm.get(u(0), u(2)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn blend_rejects_bad_weights() {
        let m = CsrMatrix::freeze(&SparseMatrix::new());
        assert!(blend_frozen(&[], 1).is_err());
        assert!(blend_frozen(&[(0.5, &m)], 1).is_err(), "must sum to one");
        assert!(
            blend_frozen(&[(-0.5, &m), (1.5, &m)], 1).is_err(),
            "negative weight"
        );
        assert!(blend_frozen(&[(f64::NAN, &m), (1.0, &m)], 1).is_err());
        let err = blend_frozen(&[(0.2, &m)], 1).unwrap_err();
        assert!(err.to_string().contains("0.2"));
    }

    #[test]
    fn blend_frozen_matches_blend() {
        let raw = [synth(40, 4, 23), synth(40, 4, 29), synth(40, 4, 31)];
        let frozen = freeze_normalized_all(&[&raw[0], &raw[1], &raw[2]]);
        let norm: Vec<SparseMatrix> = raw.iter().map(oracle::normalized_rows).collect();
        let reference = oracle::blend(&[(0.5, &norm[0]), (0.3, &norm[1]), (0.2, &norm[2])]);
        for threads in [1, 3] {
            let tm = blend_frozen(
                &[(0.5, &frozen[0]), (0.3, &frozen[1]), (0.2, &frozen[2])],
                threads,
            )
            .unwrap();
            assert_bits_eq(&tm, &reference, "blend");
        }
    }

    #[test]
    fn overlay_patches_and_masks_rows() {
        let mut csr = CsrMatrix::freeze(&matrix(&[(0, 1, 0.5), (0, 2, 0.5), (1, 0, 1.0)]));

        // Replace row 0, referencing a brand-new user 9.
        patch(&mut csr, 0, &[(9, 1.0)]);
        assert_eq!(csr.get(u(0), u(1)), 0.0, "frozen row masked");
        assert_eq!(csr.get(u(0), u(9)), 1.0, "new column readable");
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.overlay_len(), 1);
        assert!(!csr.is_compact());

        // Remove row 1 outright.
        patch(&mut csr, 1, &[]);
        assert_eq!(csr.get(u(1), u(0)), 0.0);
        assert_eq!(csr.row_ids(), vec![u(0)]);
        assert_eq!(csr.row_count(), 1);
        assert_eq!(csr.nnz(), 1);

        // Patching a nonexistent row to empty is a no-op.
        patch(&mut csr, 42, &[]);
        assert_eq!(csr.overlay_len(), 2);

        // Compaction folds everything back.
        let compacted = csr.compact();
        assert!(compacted.is_compact());
        assert_eq!(compacted, csr, "semantic equality survives compaction");
        assert_eq!(compacted.get(u(0), u(9)), 1.0);
        assert_eq!(compacted.nnz(), 1);
    }

    #[test]
    fn overlay_thaw_matches_patched_builder() {
        let m = synth(15, 3, 43);
        let mut csr = CsrMatrix::freeze(&m);
        let mut reference = m.clone();
        let slab: SparseVector = [(u(3), 0.25), (u(99), 0.75)].into_iter().collect();
        csr.set_row_arc(u(4), Arc::new(slab.clone()));
        reference.set_row(u(4), slab).unwrap();
        assert_eq!(csr.thaw(), reference);
        assert_eq!(csr.nnz(), reference.nnz());
        assert_eq!(csr.row_sum(u(4)), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finite positive entries")]
    fn overlay_rejects_invalid_entries() {
        let mut csr = CsrMatrix::freeze(&synth(4, 2, 47));
        patch(&mut csr, 0, &[(1, -1.0)]);
    }

    #[test]
    fn gather_row_reads_owner_columns() {
        let mut csr = CsrMatrix::freeze(&matrix(&[(0, 1, 0.75), (0, 2, 0.25), (3, 1, 1.0)]));
        let set = csr.column_set(&[u(2), u(1), u(7)]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        let mut out = Vec::new();
        csr.gather_row(u(0), &set, &mut out);
        assert_eq!(out, vec![0.25, 0.75, 0.0], "set order preserved");
        csr.gather_row(u(3), &set, &mut out);
        assert_eq!(out, vec![0.0, 1.0, 0.0]);
        csr.gather_row(u(42), &set, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 0.0], "unknown viewer");

        // Overlay rows are gathered through the patch.
        patch(&mut csr, 0, &[(7, 0.5)]);
        csr.gather_row(u(0), &set, &mut out);
        assert_eq!(out, vec![0.0, 0.0, 0.5], "overlay consulted");
    }

    #[test]
    fn row_helpers_match_builder() {
        let m = synth(25, 4, 53);
        let csr = CsrMatrix::freeze(&m);
        for r in m.row_ids() {
            let row = m.row(r).unwrap();
            assert_eq!(csr.row_sum(r), row.values().sum::<f64>());
            let max = row.values().fold(0.0f64, |a, &b| a.max(b));
            assert_eq!(csr.row_max(r), max);
        }
        assert_eq!(csr.row_sum(u(999)), 0.0);
        assert_eq!(csr.row_max(u(999)), 0.0);
        let ids: Vec<UserId> = m.row_ids().collect();
        assert_eq!(csr.row_ids(), ids);
    }

    #[test]
    fn power_compacts_overlay_first() {
        let (m, mut csr) = frozen_stochastic(&synth(30, 4, 61));
        let mut reference = m.clone();
        let mut slab: SparseVector = [(u(1), 3.0), (u(2), 1.0)].into_iter().collect();
        assert!(normalize_row_mut(&mut slab));
        csr.set_row_arc(u(0), Arc::new(slab.clone()));
        reference.set_row(u(0), slab).unwrap();
        let frozen = csr.power(2, PowerOptions::exact(), 2);
        let expected = oracle::power(&reference, 2, PowerOptions::exact());
        assert_eq!(frozen.thaw(), expected);
    }

    #[test]
    fn equality_is_semantic_not_structural() {
        let m = synth(10, 3, 67);
        let a = &freeze_normalized_all(&[&m])[0];
        // Same entries, wider index.
        let wide = Arc::new(UserIndex::from_ids(
            (0..40).map(u).chain(a.index().ids().iter().copied()),
        ));
        let b = CsrMatrix::freeze_normalized_sharded(&wide, &m, 1);
        assert_eq!(a, &b);
        let mut c = b.clone();
        patch(&mut c, 0, &[]);
        assert_ne!(a, &c);
    }

    #[test]
    fn power_zero_is_identity() {
        let m = chain();
        let id = m.power(0, PowerOptions::exact(), 1);
        // Diagonal ones over every id the matrix mentions (rows ∪ columns).
        for i in 0..=2u64 {
            assert_eq!(id.get(u(i), u(i)), 1.0);
        }
        assert_eq!(id.nnz(), 3, "chain mentions users 0, 1, 2");
        assert!(id.is_row_stochastic(0.0));
        assert_eq!(id.thaw(), oracle::identity_like(&m.thaw()));
        // M^0 · M = M.
        assert_eq!(id.multiply_step(&m, PowerOptions::exact(), 1), m);
        let empty = CsrMatrix::freeze(&SparseMatrix::new());
        assert!(empty.power(0, PowerOptions::exact(), 1).is_empty());
    }

    #[test]
    fn deep_exact_power_matches_btreemap() {
        let (m, csr) = frozen_stochastic(&synth(30, 4, 73));
        for n in 4..=7u32 {
            let frozen = csr.power(n, PowerOptions::exact(), 2);
            assert_bits_eq(&frozen, &oracle::power(&m, n, PowerOptions::exact()), "n");
        }
    }

    #[test]
    fn fused_top_k_bounds_rows_and_breaks_ties_deterministically() {
        // Row 0 has four equal-weight targets; top_k = 2 must keep the two
        // smallest ids (deterministic tie-break), renormalized to sum 1.
        let m = CsrMatrix::freeze(&matrix(&[
            (0, 1, 0.25),
            (0, 2, 0.25),
            (0, 3, 0.25),
            (0, 4, 0.25),
            (1, 0, 1.0),
        ]));
        let p = m.power(2, PowerOptions::pruned(0.0).with_top_k(Some(2)), 1);
        // Row 1 → row 0 of M, pruned to its 2 heaviest (= smallest ids).
        assert_eq!(p.get(u(1), u(1)), 0.5);
        assert_eq!(p.get(u(1), u(2)), 0.5);
        assert_eq!(p.get(u(1), u(3)), 0.0, "tie lost to smaller id");
        assert!(p.row_entries(u(1)).count() <= 2);
        assert!(p.is_row_stochastic(1e-12));
    }

    #[test]
    fn fused_options_compose_eps_and_top_k() {
        let m = CsrMatrix::freeze(&matrix(&[
            (0, 1, 0.90),
            (0, 2, 0.06),
            (0, 3, 0.04),
            (1, 0, 1.0),
            (2, 0, 1.0),
            (3, 0, 1.0),
        ]));
        // ε = 0.05 drops the 0.04 path first; top_k = 1 then keeps only
        // the heaviest survivor, renormalized to 1.
        let opts = PowerOptions::pruned(0.05).with_top_k(Some(1));
        assert!(opts.is_pruning());
        let p = m.power(2, opts, 1);
        assert_eq!(p.row_entries(u(1)).count(), 1);
        assert_eq!(p.get(u(1), u(1)), 1.0);
        // ε = 0 and k = None reproduce the exact power bit-identically: no
        // pruning rule fires, so nothing is renormalized.
        let noop = PowerOptions::pruned(0.0);
        assert!(!noop.is_pruning());
        let (a, b) = (m.power(2, noop, 1), m.power(2, PowerOptions::exact(), 1));
        assert_bits_eq(&a, &b.thaw(), "no-op pruning is exact");
    }

    #[test]
    fn fused_top_k_power_matches_btreemap() {
        let (m, csr) = frozen_stochastic(&synth(50, 8, 79));
        let options = PowerOptions::pruned(1e-3).with_top_k(Some(4));
        let reference = oracle::power(&m, 2, options);
        for threads in [1, 2, 8] {
            let frozen = csr.power(2, options, threads);
            assert_eq!(frozen.thaw(), reference, "{threads} threads");
            assert!(frozen.is_row_stochastic(1e-9));
            for r in frozen.row_ids() {
                assert!(frozen.row_entries(r).count() <= 4, "row {r} over top_k");
            }
        }
    }

    #[test]
    #[should_panic(expected = "top_k must be at least 1")]
    fn multiply_step_top_k_zero_panics() {
        let csr = CsrMatrix::freeze(&synth(4, 2, 71));
        let options = PowerOptions::exact().with_top_k(Some(0));
        let _ = csr.multiply_step(&csr, options, 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn multiply_step_zero_threads_panics() {
        let m = chain();
        let _ = m.multiply_step(&m, PowerOptions::exact(), 0);
    }

    #[test]
    fn multiply_step_empty_is_empty() {
        let empty = CsrMatrix::freeze(&SparseMatrix::new());
        let product = empty.multiply_step(&empty, PowerOptions::exact(), 2);
        assert!(product.is_empty());
        // An empty operand under a populated index annihilates either side.
        let m = chain();
        let zero = CsrMatrix::freeze_normalized_sharded(m.index(), &SparseMatrix::new(), 1);
        assert!(zero.multiply_step(&m, PowerOptions::exact(), 1).is_empty());
        assert!(m.multiply_step(&zero, PowerOptions::exact(), 1).is_empty());
    }
}
