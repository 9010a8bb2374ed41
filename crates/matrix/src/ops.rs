//! Kernel options and errors shared by the frozen kernels: the Equation 7
//! weight check ([`BlendError`]), the Equation 8 pruning rule
//! ([`PowerOptions`]), and the row-parallel builder the raw trust matrices
//! are assembled with ([`build_rows_parallel`]).

use crate::sparse::SparseVector;
use mdrep_types::UserId;
use std::error::Error;
use std::fmt;

/// Error returned by [`blend_frozen`](crate::blend_frozen) when the weights
/// are not a convex combination.
#[derive(Debug, Clone, PartialEq)]
pub struct BlendError {
    weights: Vec<f64>,
}

impl fmt::Display for BlendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blend weights {:?} must be finite, non-negative, and sum to 1",
            self.weights
        )
    }
}

impl Error for BlendError {}

/// Checks that `weights` form a convex combination: non-empty, every
/// weight finite and non-negative, summing to 1 within `1e-9`.
pub(crate) fn validate_blend_weights<I: IntoIterator<Item = f64>>(
    weights: I,
) -> Result<(), BlendError> {
    let weights: Vec<f64> = weights.into_iter().collect();
    let valid = !weights.is_empty()
        && weights.iter().all(|w| w.is_finite() && *w >= 0.0)
        && (weights.iter().sum::<f64>() - 1.0).abs() <= 1e-9;
    if valid {
        Ok(())
    } else {
        Err(BlendError { weights })
    }
}

/// Row-partitioned parallel row construction: evaluates `f` for every id in
/// `rows` across `threads` scoped OS threads and returns the `(id, row)`
/// pairs in the order of `rows`. Rows are computed independently, so the
/// output is identical to the serial loop for any thread count — this is
/// the building block behind the parallel raw trust-matrix builds.
///
/// Small inputs (fewer than two rows per thread) fall back to the serial
/// loop.
///
/// # Panics
///
/// Panics if `threads == 0`.
#[must_use]
pub fn build_rows_parallel<F>(rows: &[UserId], threads: usize, f: F) -> Vec<(UserId, SparseVector)>
where
    F: Fn(UserId) -> SparseVector + Sync,
{
    assert!(threads >= 1, "at least one thread is required");
    if threads == 1 || rows.len() < 2 * threads {
        return rows.iter().map(|&r| (r, f(r))).collect();
    }
    let chunk_len = rows.len().div_ceil(threads);
    let f = &f;
    let partials: Vec<Vec<(UserId, SparseVector)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = rows
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(|&r| (r, f(r))).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    partials.into_iter().flatten().collect()
}

/// Options controlling [`CsrMatrix::power`](crate::CsrMatrix::power) and
/// [`CsrMatrix::multiply_step`](crate::CsrMatrix::multiply_step).
///
/// Pruning is **fused into each multiplication step**: every product row is
/// ε-filtered and (optionally) reduced to its `top_k` heaviest entries the
/// moment it is accumulated, so no intermediate dense matrix is ever
/// materialized. The per-row rule is:
///
/// 1. drop entries below [`prune_threshold`](Self::prune_threshold)
///    (`0.0` keeps everything non-zero),
/// 2. keep only the [`top_k`](Self::top_k) heaviest survivors — ties at
///    the boundary break toward the **smaller column position** (equal to
///    ascending user id), so results are deterministic and independent of
///    thread count,
/// 3. rescale the kept entries to sum 1, keeping the matrix
///    row-stochastic.
///
/// The rule runs only when [`is_pruning`](Self::is_pruning) holds; with
/// neither bound set the power is exact.
///
/// When [`top_k`](Self::top_k) is set, the same rule is additionally
/// applied as a **fan-out screen** to each input row of the left operand
/// before accumulation: a hop propagates through at most `k` most-trusted
/// intermediaries (a truncated random walk), so per-row product work drops
/// from `deg_a · deg_b` to `k · deg_b` — the source of the multi-hop
/// speedup, not just a smaller output. ε-only pruning (`top_k == None`)
/// keeps the original output-only semantics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerOptions {
    /// Entries below this magnitude are dropped from every product row,
    /// bounding fill-in. `0.0` disables the threshold.
    pub prune_threshold: f64,
    /// Upper bound on entries kept per product row (the k-heaviest survive
    /// the ε-filter; ties break toward the smaller column position).
    /// `None` keeps every surviving entry. `Some(0)` is invalid.
    pub top_k: Option<usize>,
}

impl PowerOptions {
    /// Exact computation: no pruning.
    #[must_use]
    pub fn exact() -> Self {
        Self::default()
    }

    /// Pruned computation that keeps rows stochastic: entries below
    /// `threshold` are dropped and rows rescaled after each step.
    #[must_use]
    pub fn pruned(threshold: f64) -> Self {
        Self {
            prune_threshold: threshold,
            top_k: None,
        }
    }

    /// Sets (or clears) the per-row `top_k` bound, keeping the threshold.
    /// `PowerOptions::pruned(eps).with_top_k(Some(k))` is the fused
    /// multi-hop operating point: ε-drop, keep the k heaviest,
    /// renormalize.
    #[must_use]
    pub fn with_top_k(mut self, top_k: Option<usize>) -> Self {
        self.top_k = top_k;
        self
    }

    /// Whether any pruning rule is active (and so whether kept rows are
    /// renormalized). `prune_threshold == 0.0` with `top_k == None`
    /// reproduces [`exact`](Self::exact) bit-identically.
    #[must_use]
    pub fn is_pruning(&self) -> bool {
        self.prune_threshold > 0.0 || self.top_k.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    #[test]
    fn build_rows_parallel_keeps_order_and_values() {
        let rows: Vec<UserId> = (0..33u64).map(u).collect();
        for threads in [1, 2, 4, 16] {
            let built = build_rows_parallel(&rows, threads, |r| {
                [(r, r.as_u64() as f64 + 1.0)].into_iter().collect()
            });
            assert_eq!(built.len(), rows.len(), "{threads} threads");
            for (i, (r, row)) in built.iter().enumerate() {
                assert_eq!(*r, rows[i]);
                assert_eq!(row[r], r.as_u64() as f64 + 1.0);
            }
        }
    }
}
