//! Kernel options and errors shared by the frozen kernels: the Equation 7
//! weight check ([`BlendError`]), the Equation 8 pruning rule
//! ([`PowerOptions`]), and the row-parallel driver every row kernel fans
//! out through ([`par_chunks`]).

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

/// The one row-parallel driver every row kernel fans out through: cuts
/// `items` into at most `threads` contiguous, near-equal chunks, runs
/// `worker` on each chunk in its own scoped thread, and returns the
/// per-chunk results in chunk order. With `threads == 1`, or fewer than two
/// items per thread, the whole slice is one chunk run on the calling
/// thread.
///
/// The chunking depends only on `items.len()` and `threads`, so a kernel
/// whose worker is a pure per-item function produces the same output at
/// any thread count — the contract behind every bit-identity guarantee of
/// the freeze, blend, SpGEMM, raw-row and dirty-row kernels.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker panics.
pub fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    worker: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    assert!(threads >= 1, "at least one thread is required");
    if threads == 1 || items.len() < 2 * threads {
        return vec![worker(items)];
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shard_ranges(items.len(), threads)
            .into_iter()
            .map(|range| scope.spawn(move || worker(&items[range])))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("row worker panicked"))
            .collect()
    })
}

/// Partitions `0..n` into at most `shards` contiguous, near-equal ranges
/// (empty ranges are dropped). The partition depends only on `n` and
/// `shards`, never on runtime thread availability, so [`par_chunks`]
/// stays deterministic.
pub(crate) fn shard_ranges(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let chunk = n.div_ceil(shards).max(1);
    (0..shards)
        .map(|s| (s * chunk).min(n)..((s + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
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

    #[test]
    fn par_chunks_follows_shard_ranges_and_keeps_order() {
        for threads in [1usize, 2, 4, 16] {
            for len in [0, 1, 2 * threads - 1, 2 * threads, 33] {
                let items: Vec<usize> = (0..len).collect();
                let chunks = par_chunks(&items, threads, <[usize]>::to_vec);
                let expected = if threads == 1 || len < 2 * threads {
                    1
                } else {
                    shard_ranges(len, threads).len()
                };
                assert_eq!(chunks.len(), expected, "len {len}, {threads} threads");
                assert_eq!(chunks.concat(), items, "len {len}, {threads} threads");
            }
        }
    }

    #[test]
    fn shard_ranges_cover_and_never_overlap() {
        for n in [0usize, 1, 5, 97, 1000] {
            for shards in [1usize, 2, 3, 7, 64] {
                let ranges = shard_ranges(n, shards);
                let mut covered = 0usize;
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(r.start, covered, "contiguous at n={n} s={shards}");
                    assert!(r.end > r.start, "non-empty range {i}");
                    covered = r.end;
                }
                assert_eq!(covered, n, "full cover at n={n} s={shards}");
                assert!(ranges.len() <= shards);
                // The ranges are exactly `chunks(n.div_ceil(shards))`.
                let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                let expected: Vec<usize> = (0..n)
                    .collect::<Vec<_>>()
                    .chunks(n.div_ceil(shards).max(1))
                    .map(<[usize]>::len)
                    .collect();
                assert_eq!(lens, expected, "n={n} s={shards}");
            }
        }
    }
}
