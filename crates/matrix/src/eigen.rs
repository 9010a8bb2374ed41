//! Left principal eigenvector by power iteration — the EigenTrust substrate.
//!
//! EigenTrust assigns every peer a global rank: the stationary distribution
//! of the normalized local-trust matrix `C`, computed as the fixed point of
//! `t⁽ᵏ⁺¹⁾ = (1−a)·Cᵀ·t⁽ᵏ⁾ + a·p` where `p` is the pre-trusted
//! distribution and `a` a damping weight (Kamvar et al., WWW 2003).

use crate::csr::CsrMatrix;
use crate::sparse::SparseVector;
use mdrep_types::UserId;

/// Options for [`principal_eigenvector`].
#[derive(Debug, Clone, PartialEq)]
pub struct EigenOptions {
    /// Damping weight `a` pulling the iteration toward the pre-trusted
    /// distribution (0.0 = pure power iteration).
    pub damping: f64,
    /// Convergence threshold on the L1 change between iterations.
    pub epsilon: f64,
    /// Hard cap on iterations.
    pub max_iterations: usize,
}

impl Default for EigenOptions {
    fn default() -> Self {
        Self {
            damping: 0.15,
            epsilon: 1e-9,
            max_iterations: 200,
        }
    }
}

/// Result of a power-iteration run.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenResult {
    /// The converged (or last) rank vector, summing to 1.
    pub ranks: SparseVector,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final L1 delta between the last two iterates.
    pub residual: f64,
    /// Whether `residual <= epsilon` was reached within the budget.
    pub converged: bool,
}

/// Computes the left principal eigenvector of `matrix` by damped power
/// iteration, starting from (and damping toward) the uniform distribution
/// over `pretrusted`.
///
/// `matrix` should be row-stochastic (freeze it with
/// [`CsrMatrix::freeze_normalized_sharded`]); rows of dangling users (no
/// outgoing trust) implicitly redistribute to the pre-trusted set through
/// the damping term. Each step accumulates `t · M` in ascending row id,
/// then ascending column, so the ranks are a deterministic function of the
/// matrix's entries.
///
/// # Panics
///
/// Panics if `pretrusted` is empty or `damping` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use mdrep_matrix::{principal_eigenvector, CsrMatrix, EigenOptions, SparseMatrix, UserIndex};
/// use mdrep_types::UserId;
/// use std::sync::Arc;
///
/// // Everyone trusts user 0.
/// let mut m = SparseMatrix::new();
/// for i in 1..5 {
///     m.set(UserId::new(i), UserId::new(0), 1.0)?;
/// }
/// m.set(UserId::new(0), UserId::new(1), 1.0)?;
/// let index = Arc::new(UserIndex::from_matrices(&[&m]));
/// let c = CsrMatrix::freeze_normalized_sharded(&index, &m, 1);
/// let result = principal_eigenvector(&c, &[UserId::new(0)], &EigenOptions::default());
/// assert!(result.converged);
/// let rank0 = result.ranks[&UserId::new(0)];
/// assert!(result.ranks.values().all(|&r| r <= rank0));
/// # Ok::<(), mdrep_matrix::MatrixError>(())
/// ```
#[must_use]
pub fn principal_eigenvector(
    matrix: &CsrMatrix,
    pretrusted: &[UserId],
    options: &EigenOptions,
) -> EigenResult {
    assert!(!pretrusted.is_empty(), "pre-trusted set must be non-empty");
    assert!(
        (0.0..=1.0).contains(&options.damping),
        "damping must lie in [0, 1]"
    );

    let p: SparseVector = {
        let w = 1.0 / pretrusted.len() as f64;
        pretrusted.iter().map(|&u| (u, w)).collect()
    };

    let mut t = p.clone();
    let mut iterations = 0;
    let mut residual = f64::INFINITY;

    while iterations < options.max_iterations {
        iterations += 1;
        // t' = (1−a)·(t · M) + a·p   (row-vector form of (1−a)·Mᵀt + a·p)
        let propagated = propagate(matrix, &t);
        let mut next = SparseVector::new();
        for (&uid, &v) in &propagated {
            if v != 0.0 {
                next.insert(uid, (1.0 - options.damping) * v);
            }
        }
        // Mass lost to dangling rows is redistributed to the pre-trusted set
        // along with the damping term, keeping Σt = 1.
        let propagated_mass: f64 = propagated.values().sum();
        let lost = (1.0 - options.damping) * (1.0 - propagated_mass).max(0.0);
        for (&uid, &pv) in &p {
            *next.entry(uid).or_insert(0.0) += options.damping * pv + lost * pv;
        }

        residual = l1_delta(&t, &next);
        t = next;
        if residual <= options.epsilon {
            return EigenResult {
                ranks: t,
                iterations,
                residual,
                converged: true,
            };
        }
    }

    EigenResult {
        ranks: t,
        iterations,
        residual,
        converged: false,
    }
}

/// `t · M`: the rows of `M` scaled by `t`'s weights, accumulated in
/// ascending row id of `t`, then ascending column; exact zeros dropped.
fn propagate(matrix: &CsrMatrix, t: &SparseVector) -> SparseVector {
    let mut out = SparseVector::new();
    for (&row, &weight) in t {
        if weight == 0.0 {
            continue;
        }
        for (c, m) in matrix.row_entries(row) {
            *out.entry(c).or_insert(0.0) += weight * m;
        }
    }
    out.retain(|_, v| *v != 0.0);
    out
}

fn l1_delta(a: &SparseVector, b: &SparseVector) -> f64 {
    let mut delta = 0.0;
    for (uid, &va) in a {
        delta += (va - b.get(uid).copied().unwrap_or(0.0)).abs();
    }
    for (uid, &vb) in b {
        if !a.contains_key(uid) {
            delta += vb.abs();
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::UserIndex;
    use crate::sparse::SparseMatrix;
    use std::sync::Arc;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    /// Freezes `(row, col, value)` triples, row-normalized.
    fn stochastic(entries: &[(u64, u64, f64)]) -> CsrMatrix {
        let mut m = SparseMatrix::new();
        for &(r, c, v) in entries {
            m.set(u(r), u(c), v).unwrap();
        }
        let index = Arc::new(UserIndex::from_matrices(&[&m]));
        CsrMatrix::freeze_normalized_sharded(&index, &m, 1)
    }

    /// The 3-cycle 0 → 1 → 2 → 0.
    fn cycle() -> CsrMatrix {
        stochastic(&[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    }

    #[test]
    fn ranks_sum_to_one() {
        let r = principal_eigenvector(&cycle(), &[u(0)], &EigenOptions::default());
        let total: f64 = r.ranks.values().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
        assert!(r.converged);
    }

    #[test]
    fn symmetric_cycle_gives_uniform_ranks() {
        // 0 → 1 → 2 → 0 is a symmetric cycle; the stationary distribution is
        // uniform regardless of damping toward user 0... it is not exactly
        // uniform with damping, but all three must be strictly positive and
        // user 0 (the pre-trusted peer) at least as large as the others.
        let r = principal_eigenvector(&cycle(), &[u(0)], &EigenOptions::default());
        for i in 0..3 {
            assert!(r.ranks[&u(i)] > 0.0, "user {i}");
        }
        assert!(r.ranks[&u(0)] >= r.ranks[&u(1)] - 1e-9);
    }

    #[test]
    fn popular_peer_outranks_others() {
        // Star: 1..=9 all trust 0; 0 trusts 1.
        let mut entries: Vec<(u64, u64, f64)> = (1..10u64).map(|i| (i, 0, 1.0)).collect();
        entries.push((0, 1, 1.0));
        let r = principal_eigenvector(&stochastic(&entries), &[u(5)], &EigenOptions::default());
        let rank0 = r.ranks[&u(0)];
        for i in 1..10u64 {
            assert!(
                rank0 > r.ranks.get(&u(i)).copied().unwrap_or(0.0),
                "user {i}"
            );
        }
    }

    #[test]
    fn one_iteration_is_the_hand_computed_product() {
        // M = [[0, 1], [0.5, 0.5]] over users {0, 1}; t0 = (0.5, 0.5) from
        // the pre-trusted pair, no damping: t1 = t0 · M = (0.25, 0.75).
        let m = stochastic(&[(0, 1, 1.0), (1, 0, 0.5), (1, 1, 0.5)]);
        let opts = EigenOptions {
            damping: 0.0,
            epsilon: 0.0,
            max_iterations: 1,
        };
        let r = principal_eigenvector(&m, &[u(0), u(1)], &opts);
        assert_eq!(r.ranks[&u(0)], 0.25);
        assert_eq!(r.ranks[&u(1)], 0.75);
    }

    #[test]
    fn damping_one_returns_pretrusted_distribution() {
        let m = stochastic(&[(0, 1, 1.0)]);
        let opts = EigenOptions {
            damping: 1.0,
            ..EigenOptions::default()
        };
        let r = principal_eigenvector(&m, &[u(0), u(1)], &opts);
        assert!(r.converged);
        assert!((r.ranks[&u(0)] - 0.5).abs() < 1e-9);
        assert!((r.ranks[&u(1)] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dangling_rows_do_not_leak_mass() {
        // User 1 has no outgoing trust at all (dangling).
        let m = stochastic(&[(0, 1, 1.0)]);
        let r = principal_eigenvector(&m, &[u(0)], &EigenOptions::default());
        let total: f64 = r.ranks.values().sum();
        assert!((total - 1.0).abs() < 1e-6, "mass conserved, got {total}");
    }

    #[test]
    fn iteration_budget_respected() {
        let m = stochastic(&[(0, 1, 1.0), (1, 0, 1.0)]);
        let opts = EigenOptions {
            max_iterations: 1,
            epsilon: 0.0,
            ..EigenOptions::default()
        };
        let r = principal_eigenvector(&m, &[u(0)], &opts);
        assert_eq!(r.iterations, 1);
        assert!(!r.converged);
        assert!(r.residual > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pretrusted_panics() {
        let m = CsrMatrix::freeze(&SparseMatrix::new());
        let _ = principal_eigenvector(&m, &[], &EigenOptions::default());
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn invalid_damping_panics() {
        let m = CsrMatrix::freeze(&SparseMatrix::new());
        let opts = EigenOptions {
            damping: 1.5,
            ..EigenOptions::default()
        };
        let _ = principal_eigenvector(&m, &[u(0)], &opts);
    }
}
