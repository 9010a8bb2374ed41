//! The reference `BTreeMap` kernels the frozen CSR kernels are checked
//! against: serial row normalization (Equations 3/5/6), the blend
//! (Equation 7) and the multiply/power chain with fused pruning
//! (Equation 8), each written the plain way over [`SparseMatrix`] rows.
//!
//! Test-only: the `mdrep-matrix` unit tests, the matrix property tests and
//! `mdrep`'s property tests include this file with `#[path]`; the including
//! crate root must have `PowerOptions`, `SparseMatrix` and `SparseVector`
//! in scope. Every kernel accumulates in ascending user id (blend parts in
//! caller order) — the order the CSR kernels reproduce bit for bit.

#![allow(dead_code)]

use crate::{PowerOptions, SparseMatrix, SparseVector};
use mdrep_types::UserId;

/// Scales `row` to sum 1, summing in ascending id; a zero-sum row empties.
fn normalize(row: &mut SparseVector) {
    let sum: f64 = row.values().sum();
    if sum > 0.0 {
        for v in row.values_mut() {
            *v /= sum;
        }
    } else {
        row.clear();
    }
}

/// Equations 3/5/6: every non-empty row scaled to sum 1.
pub fn normalized_rows(m: &SparseMatrix) -> SparseMatrix {
    let mut out = SparseMatrix::new();
    for r in m.row_ids() {
        let mut row = m.row(r).expect("row id came from row_ids").clone();
        normalize(&mut row);
        out.set_row(r, row).expect("normalized rows are valid");
    }
    out
}

/// Equation 7: `Σ wᵢ·Mᵢ`, each output entry starting from `0.0` and
/// accumulating in `parts` order. Weights are not validated.
pub fn blend(parts: &[(f64, &SparseMatrix)]) -> SparseMatrix {
    let mut rows: Vec<UserId> = parts.iter().flat_map(|(_, m)| m.row_ids()).collect();
    rows.sort_unstable();
    rows.dedup();
    let mut out = SparseMatrix::new();
    for r in rows {
        let mut row = SparseVector::new();
        for (w, m) in parts {
            if *w == 0.0 {
                continue;
            }
            if let Some(cols) = m.row(r) {
                for (&c, &v) in cols {
                    *row.entry(c).or_insert(0.0) += w * v;
                }
            }
        }
        row.retain(|_, v| *v != 0.0);
        out.set_row(r, row).expect("blended rows are valid");
    }
    out
}

/// `v · M`: rows of `M` scaled by `v`'s weights, in ascending row id;
/// exact zeros are dropped.
pub fn vector_multiply(m: &SparseMatrix, v: &SparseVector) -> SparseVector {
    let mut out = SparseVector::new();
    for (row, &weight) in v {
        if weight == 0.0 {
            continue;
        }
        if let Some(cols) = m.row(*row) {
            for (&c, &x) in cols {
                *out.entry(c).or_insert(0.0) += weight * x;
            }
        }
    }
    out.retain(|_, val| *val != 0.0);
    out
}

/// The product `a · b`, one [`vector_multiply`] per row of `a`.
pub fn multiply(a: &SparseMatrix, b: &SparseMatrix) -> SparseMatrix {
    let mut out = SparseMatrix::new();
    for r in a.row_ids() {
        let row = a.row(r).expect("row id came from row_ids");
        out.set_row(r, vector_multiply(b, row))
            .expect("products of valid entries are valid");
    }
    out
}

/// The identity over `m`'s id space (row ∪ column ids): `M^0`.
pub fn identity_like(m: &SparseMatrix) -> SparseMatrix {
    let mut out = SparseMatrix::new();
    for (r, c, _) in m.iter() {
        out.set(r, r, 1.0).expect("1.0 is a valid entry");
        out.set(c, c, 1.0).expect("1.0 is a valid entry");
    }
    out
}

/// The fused per-row rule of [`PowerOptions`]: ε-drop, keep the `top_k`
/// heaviest (ties toward the smaller id), renormalize.
pub fn prune_row_fused(row: &mut SparseVector, options: &PowerOptions) {
    if options.prune_threshold > 0.0 {
        row.retain(|_, v| *v >= options.prune_threshold);
    }
    if let Some(k) = options.top_k {
        assert!(k >= 1, "top_k must be at least 1 when set");
        if row.len() > k {
            let mut entries: Vec<(UserId, f64)> = row.iter().map(|(&c, &v)| (c, v)).collect();
            entries.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            entries.truncate(k);
            *row = entries.into_iter().collect();
        }
    }
    normalize(row);
}

/// [`prune_row_fused`] over every row of `m`.
fn prune_matrix_fused(m: &mut SparseMatrix, options: &PowerOptions) {
    let rows: Vec<UserId> = m.row_ids().collect();
    for r in rows {
        let mut row = m.row(r).expect("row id came from row_ids").clone();
        prune_row_fused(&mut row, options);
        m.set_row(r, row).expect("pruning keeps entries valid");
    }
}

/// One hop with a top-k fan-out cap: each row of `a` is pruned before it
/// multiplies `b`, and the product row is pruned again.
fn pruned_multiply(a: &SparseMatrix, b: &SparseMatrix, options: &PowerOptions) -> SparseMatrix {
    let mut out = SparseMatrix::new();
    for r in a.row_ids() {
        let mut row = a.row(r).expect("row id came from row_ids").clone();
        prune_row_fused(&mut row, options);
        let mut product = vector_multiply(b, &row);
        prune_row_fused(&mut product, options);
        out.set_row(r, product).expect("pruned rows are valid");
    }
    out
}

/// Equation 8: `M^n` with pruning fused into every step, multiplied left
/// to right (`((M·M)·M)·…`) — the order `CsrMatrix::power` follows. `n = 0`
/// is [`identity_like`].
pub fn power(m: &SparseMatrix, n: u32, options: PowerOptions) -> SparseMatrix {
    if n == 0 {
        return identity_like(m);
    }
    let mut acc = m.clone();
    for _ in 1..n {
        acc = if options.top_k.is_some() {
            pruned_multiply(&acc, m, &options)
        } else {
            let mut p = multiply(&acc, m);
            if options.is_pruning() {
                prune_matrix_fused(&mut p, &options);
            }
            p
        };
    }
    acc
}
