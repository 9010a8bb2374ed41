//! Sparse matrix/vector storage over [`UserId`] indices.

use mdrep_types::UserId;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Error returned when inserting an invalid (negative or non-finite) entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixError {
    row: UserId,
    col: UserId,
    value: f64,
}

impl MatrixError {
    /// The offending value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix entry ({}, {}) = {} is not a finite non-negative value",
            self.row, self.col, self.value
        )
    }
}

impl Error for MatrixError {}

/// A sparse vector over user ids (one matrix row, or a reputation vector).
pub type SparseVector = BTreeMap<UserId, f64>;

/// Scales one sparse row to sum 1 in place — the per-row core of
/// Equations 3/5/6 — returning `false` (and leaving the row untouched) for
/// an empty or zero-sum row, the "no direct trust relationship" case.
///
/// The sum and the divisions run in ascending column id, the order the
/// normalizing freeze ([`CsrMatrix::freeze_normalized_sharded`]) uses, so a
/// dirty row normalized here is bit-identical to the same row of a batch
/// freeze.
///
/// [`CsrMatrix::freeze_normalized_sharded`]: crate::CsrMatrix::freeze_normalized_sharded
pub fn normalize_row_mut(row: &mut SparseVector) -> bool {
    let sum: f64 = row.values().sum();
    if sum <= 0.0 {
        return false;
    }
    for v in row.values_mut() {
        *v /= sum;
    }
    true
}

/// Approximate heap bytes of one sparse row slab: the `BTreeMap` entries
/// plus ~3 words of node overhead each, plus the key/`Arc` pair a
/// copy-on-write overlay spends per patched row. This is the single unit
/// of publish accounting — `CsrMatrix::overlay_bytes` and the engine's
/// republished-bytes gauge both price rows through it, so their numbers
/// stay comparable.
#[must_use]
pub fn approx_row_bytes(len: usize) -> usize {
    len * (std::mem::size_of::<(UserId, f64)>() + 3 * std::mem::size_of::<usize>())
        + 2 * std::mem::size_of::<usize>()
}

/// A sparse, row-major matrix over user ids with non-negative finite
/// entries: the row builder that raw trust scores are collected into
/// before [`CsrMatrix`](crate::CsrMatrix) freezes them for computation.
///
/// Trust values are non-negative by construction in the paper (Equations
/// 2–7), so the insertion API validates that invariant once and every
/// frozen kernel can rely on it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: BTreeMap<UserId, SparseVector>,
}

impl SparseMatrix {
    /// Creates an empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets entry `(row, col)` to `value`, replacing any previous value.
    /// A value of exactly `0.0` removes the entry.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError`] when `value` is negative, NaN, or infinite.
    pub fn set(&mut self, row: UserId, col: UserId, value: f64) -> Result<(), MatrixError> {
        if !value.is_finite() || value < 0.0 {
            return Err(MatrixError { row, col, value });
        }
        if value == 0.0 {
            if let Some(r) = self.rows.get_mut(&row) {
                r.remove(&col);
                if r.is_empty() {
                    self.rows.remove(&row);
                }
            }
        } else {
            self.rows.entry(row).or_default().insert(col, value);
        }
        Ok(())
    }

    /// Returns entry `(row, col)`, with missing entries reading as `0.0`.
    #[must_use]
    pub fn get(&self, row: UserId, col: UserId) -> f64 {
        self.rows
            .get(&row)
            .and_then(|r| r.get(&col))
            .copied()
            .unwrap_or(0.0)
    }

    /// Returns the sparse row for `row`, if it has any entries.
    #[must_use]
    pub fn row(&self, row: UserId) -> Option<&SparseVector> {
        self.rows.get(&row)
    }

    /// Iterates over `(row, col, value)` triples in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, UserId, f64)> + '_ {
        self.rows
            .iter()
            .flat_map(|(&r, cols)| cols.iter().map(move |(&c, &v)| (r, c, v)))
    }

    /// Iterates over the row ids that have at least one entry.
    pub fn row_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        self.rows.keys().copied()
    }

    /// Number of stored (non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.rows.values().map(BTreeMap::len).sum()
    }

    /// Number of non-empty rows.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix stores no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Replaces `row` wholesale: zero entries are dropped, an empty (or
    /// all-zero) `values` removes the row. This is how the raw trust
    /// builders emit one computed row at a time.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError`] on the first negative, NaN, or infinite
    /// entry; the matrix is left unchanged in that case.
    pub fn set_row(&mut self, row: UserId, values: SparseVector) -> Result<(), MatrixError> {
        if let Some((&col, &value)) = values.iter().find(|(_, v)| !v.is_finite() || **v < 0.0) {
            return Err(MatrixError { row, col, value });
        }
        let filtered: SparseVector = values.into_iter().filter(|&(_, v)| v != 0.0).collect();
        if filtered.is_empty() {
            self.rows.remove(&row);
        } else {
            self.rows.insert(row, filtered);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn set_get_round_trip() {
        let mut m = SparseMatrix::new();
        m.set(u(1), u(2), 0.5).unwrap();
        assert_eq!(m.get(u(1), u(2)), 0.5);
        assert_eq!(m.get(u(2), u(1)), 0.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn set_zero_removes_entry() {
        let mut m = SparseMatrix::new();
        m.set(u(1), u(2), 0.5).unwrap();
        m.set(u(1), u(2), 0.0).unwrap();
        assert_eq!(m.nnz(), 0);
        assert!(m.is_empty());
        assert!(m.row(u(1)).is_none());
    }

    #[test]
    fn invalid_values_rejected() {
        let mut m = SparseMatrix::new();
        assert!(m.set(u(0), u(0), -1.0).is_err());
        assert!(m.set(u(0), u(0), f64::NAN).is_err());
        assert!(m.set(u(0), u(0), f64::INFINITY).is_err());
        assert!(m.is_empty());
        let err = m.set(u(0), u(0), -2.0).unwrap_err();
        assert_eq!(err.value(), -2.0);
        assert!(err.to_string().contains("-2"));
    }

    #[test]
    fn iteration_is_deterministic_row_major() {
        let mut m = SparseMatrix::new();
        m.set(u(2), u(0), 1.0).unwrap();
        m.set(u(0), u(5), 1.0).unwrap();
        m.set(u(0), u(3), 1.0).unwrap();
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(
            triples,
            vec![(u(0), u(3), 1.0), (u(0), u(5), 1.0), (u(2), u(0), 1.0)]
        );
        let ids: Vec<_> = m.row_ids().collect();
        assert_eq!(ids, vec![u(0), u(2)]);
        assert_eq!(m.row_count(), 2);
    }

    #[test]
    fn set_row_replaces_and_removes() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.5).unwrap();
        m.set(u(0), u(2), 0.5).unwrap();
        let replacement: SparseVector = [(u(3), 1.0), (u(4), 0.0)].into_iter().collect();
        m.set_row(u(0), replacement).unwrap();
        assert_eq!(m.get(u(0), u(1)), 0.0);
        assert_eq!(m.get(u(0), u(3)), 1.0);
        assert_eq!(m.nnz(), 1, "zero entries are dropped");
        // An empty replacement removes the row.
        m.set_row(u(0), SparseVector::new()).unwrap();
        assert!(m.is_empty());
        assert!(m.row(u(0)).is_none());
    }

    #[test]
    fn set_row_validates_entries() {
        let mut m = SparseMatrix::new();
        m.set(u(0), u(1), 0.5).unwrap();
        let bad: SparseVector = [(u(2), -1.0)].into_iter().collect();
        assert!(m.set_row(u(0), bad).is_err());
        assert_eq!(m.get(u(0), u(1)), 0.5, "matrix unchanged on error");
    }

    #[test]
    fn normalize_row_mut_scales_to_one() {
        let mut row: SparseVector = [(u(1), 2.0), (u(2), 6.0)].into_iter().collect();
        assert!(normalize_row_mut(&mut row));
        assert_eq!(row[&u(1)], 0.25);
        assert_eq!(row[&u(2)], 0.75);

        let mut empty = SparseVector::new();
        assert!(!normalize_row_mut(&mut empty), "zero-sum rows refused");
        assert!(empty.is_empty());
    }

    #[test]
    fn clone_and_equality_are_over_entries() {
        let mut a = SparseMatrix::new();
        a.set(u(0), u(1), 1.0).unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        let mut c = SparseMatrix::new();
        c.set(u(0), u(1), 1.0).unwrap();
        assert_eq!(a, c);
        c.set(u(0), u(2), 1.0).unwrap();
        assert_ne!(a, c);
    }
}
