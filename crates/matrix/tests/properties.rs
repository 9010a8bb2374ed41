//! Property-based tests for the sparse-matrix substrate.

#[path = "oracle/mod.rs"]
mod oracle;

use mdrep_matrix::{
    blend_frozen, principal_eigenvector, CsrMatrix, EigenOptions, PowerOptions, SparseMatrix,
    SparseVector, UserIndex,
};
use mdrep_types::UserId;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a small random matrix with entries in (0, 10].
fn matrix_strategy(max_users: u64) -> impl Strategy<Value = SparseMatrix> {
    proptest::collection::vec((0..max_users, 0..max_users, 0.01f64..10.0), 0..60).prop_map(
        |triples| {
            let mut m = SparseMatrix::new();
            for (r, c, v) in triples {
                m.set(UserId::new(r), UserId::new(c), v).expect("valid");
            }
            m
        },
    )
}

/// Normalize-on-freeze under a shared index over `ms`, one per input.
fn freeze_normalized_all(ms: &[&SparseMatrix]) -> Vec<CsrMatrix> {
    let index = Arc::new(UserIndex::from_matrices(ms));
    ms.iter()
        .map(|m| CsrMatrix::freeze_normalized_sharded(&index, m, 1))
        .collect()
}

/// Every entry as `(row, col, bits)`, in row-major order.
fn bits(m: impl Iterator<Item = (UserId, UserId, f64)>) -> Vec<(UserId, UserId, u64)> {
    m.map(|(r, c, v)| (r, c, v.to_bits())).collect()
}

proptest! {
    #[test]
    fn normalization_is_idempotent(m in matrix_strategy(12)) {
        let n1 = &freeze_normalized_all(&[&m])[0];
        let thawed = n1.thaw();
        let n2 = &freeze_normalized_all(&[&thawed])[0];
        prop_assert!(n1.is_row_stochastic(1e-9));
        for (r, c, v) in n1.iter() {
            prop_assert!((n2.get(r, c) - v).abs() < 1e-9);
        }
    }

    #[test]
    fn normalized_entries_bounded(m in matrix_strategy(12)) {
        for (_, _, v) in freeze_normalized_all(&[&m])[0].iter() {
            prop_assert!(v > 0.0 && v <= 1.0 + 1e-12);
        }
    }

    /// The normalizing freeze is bit-identical to the reference row
    /// normalization, at any shard count.
    #[test]
    fn normalized_freeze_matches_reference(m in matrix_strategy(12), shards in 1usize..6) {
        let index = Arc::new(UserIndex::from_matrices(&[&m]));
        let frozen = CsrMatrix::freeze_normalized_sharded(&index, &m, shards);
        prop_assert_eq!(bits(frozen.iter()), bits(oracle::normalized_rows(&m).iter()));
    }

    #[test]
    fn product_of_stochastic_matrices_is_stochastic(m in matrix_strategy(10)) {
        prop_assume!(!m.is_empty());
        let n = &freeze_normalized_all(&[&m])[0];
        // n·n is row-substochastic in general (mass can flow to users with
        // no outgoing row). Rows whose every target has an outgoing row stay
        // stochastic; every row sum must be in [0, 1].
        let sq = n.multiply_step(n, PowerOptions::exact(), 1);
        for r in sq.row_ids() {
            let sum = sq.row_sum(r);
            prop_assert!(sum <= 1.0 + 1e-9, "row {r} sums to {sum}");
            prop_assert!(sum > 0.0);
        }
    }

    #[test]
    fn power_nnz_monotone_under_pruning(m in matrix_strategy(8)) {
        prop_assume!(!m.is_empty());
        let n = &freeze_normalized_all(&[&m])[0];
        let exact = n.power(2, PowerOptions::exact(), 1);
        let pruned = n.power(2, PowerOptions::pruned(0.05), 1);
        prop_assert!(pruned.nnz() <= exact.nnz());
    }

    #[test]
    fn blend_entries_are_convex_combinations(a in matrix_strategy(8), b in matrix_strategy(8), w in 0.0f64..=1.0) {
        let parts = freeze_normalized_all(&[&a, &b]);
        let (fa, fb) = (&parts[0], &parts[1]);
        let out = blend_frozen(&[(w, fa), (1.0 - w, fb)], 1).expect("convex weights");
        for (r, c, v) in out.iter() {
            let expected = w * fa.get(r, c) + (1.0 - w) * fb.get(r, c);
            prop_assert!((v - expected).abs() < 1e-9);
        }
        // And no entry appears out of nowhere.
        for (r, c, _) in out.iter() {
            prop_assert!(fa.get(r, c) > 0.0 || fb.get(r, c) > 0.0);
        }
    }

    /// The frozen blend is bit-identical to the reference blend at any
    /// thread count.
    #[test]
    fn blend_frozen_matches_reference(
        a in matrix_strategy(10),
        b in matrix_strategy(10),
        c in matrix_strategy(10),
        threads in 1usize..4,
    ) {
        let parts = freeze_normalized_all(&[&a, &b, &c]);
        let frozen = blend_frozen(&[(0.5, &parts[0]), (0.3, &parts[1]), (0.2, &parts[2])], threads)
            .expect("convex weights");
        let norm: Vec<SparseMatrix> = [&a, &b, &c].into_iter().map(oracle::normalized_rows).collect();
        let reference = oracle::blend(&[(0.5, &norm[0]), (0.3, &norm[1]), (0.2, &norm[2])]);
        prop_assert_eq!(bits(frozen.iter()), bits(reference.iter()));
    }

    #[test]
    fn eigenvector_mass_is_conserved(m in matrix_strategy(10), pre in 0u64..10) {
        let n = &freeze_normalized_all(&[&m])[0];
        let r = principal_eigenvector(n, &[UserId::new(pre)], &EigenOptions::default());
        let total: f64 = r.ranks.values().sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "total {total}");
        for &v in r.ranks.values() {
            prop_assert!(v >= -1e-12);
        }
    }

    /// Every EigenTrust iterate is the reference `t · M` product, damped:
    /// with no damping and one iteration, the ranks are exactly the
    /// pre-trusted distribution times the matrix, plus the mass lost to
    /// dangling rows returned to the pre-trusted set.
    #[test]
    fn eigenvector_step_matches_reference_product(m in matrix_strategy(10), pre in 0u64..10) {
        let n = &freeze_normalized_all(&[&m])[0];
        let opts = EigenOptions { damping: 0.0, epsilon: 0.0, max_iterations: 1 };
        let r = principal_eigenvector(n, &[UserId::new(pre)], &opts);
        let p: SparseVector = [(UserId::new(pre), 1.0)].into_iter().collect();
        let mut expected = oracle::vector_multiply(&n.thaw(), &p);
        let lost = (1.0 - expected.values().sum::<f64>()).max(0.0);
        *expected.entry(UserId::new(pre)).or_insert(0.0) += lost;
        let got: Vec<(UserId, u64)> = r.ranks.iter().map(|(&u, v)| (u, v.to_bits())).collect();
        let want: Vec<(UserId, u64)> = expected.iter().map(|(&u, v)| (u, v.to_bits())).collect();
        prop_assert_eq!(got, want);
    }

    /// The fused-pruning contract: for random (n, ε, k) on a normalized
    /// random matrix, the reference and CSR powers agree within 1e-12
    /// (bit-identical in practice), rows never exceed the top-k cap, and
    /// renormalized rows stay stochastic.
    #[test]
    fn fused_pruned_power_csr_matches_btreemap(
        m in matrix_strategy(10),
        n in 0u32..5,
        eps_exp in 0u8..4,        // 0 disables; else ε = 10^-exp
        raw_top_k in 0usize..5,   // 0 encodes "no cap"
    ) {
        prop_assume!(!m.is_empty());
        let norm = oracle::normalized_rows(&m);
        let eps = if eps_exp == 0 { 0.0 } else { 10f64.powi(-(i32::from(eps_exp))) };
        let top_k = (raw_top_k > 0).then_some(raw_top_k);
        let options = PowerOptions::pruned(eps).with_top_k(top_k);
        let reference = oracle::power(&norm, n, options);
        let csr = CsrMatrix::freeze(&norm);
        for threads in [1usize, 2, 8] {
            let frozen = csr.power(n, options, threads);
            prop_assert_eq!(frozen.nnz(), reference.nnz(), "{} threads", threads);
            for (r, c, v) in frozen.iter() {
                prop_assert!((reference.get(r, c) - v).abs() <= 1e-12,
                    "[{}, {}] at {} threads: csr {} vs reference {}",
                    r, c, threads, v, reference.get(r, c));
            }
            // n <= 1 never multiplies, so fused pruning never runs: the
            // base (or identity) comes back untouched in both paths.
            if n >= 2 {
                if let Some(k) = top_k {
                    for r in frozen.row_ids() {
                        prop_assert!(frozen.row_entries(r).count() <= k, "row {} over cap", r);
                    }
                }
                if options.is_pruning() {
                    prop_assert!(frozen.is_row_stochastic(1e-9));
                }
            }
        }
    }

    /// ε = 0 with no cap is not "pruning" at all: both paths must reproduce
    /// `PowerOptions::exact()` bit-identically at every depth.
    #[test]
    fn noop_pruning_is_exact(m in matrix_strategy(8), n in 1u32..6) {
        prop_assume!(!m.is_empty());
        let norm = oracle::normalized_rows(&m);
        let noop = PowerOptions::pruned(0.0).with_top_k(None);
        prop_assert!(!noop.is_pruning());
        let exact = oracle::power(&norm, n, PowerOptions::exact());
        prop_assert_eq!(&oracle::power(&norm, n, noop), &exact);
        let csr = CsrMatrix::freeze(&norm);
        let frozen_exact = csr.power(n, PowerOptions::exact(), 2);
        prop_assert_eq!(&csr.power(n, noop, 2), &frozen_exact);
        // Exact entries are bit-identical across the two representations.
        prop_assert_eq!(bits(frozen_exact.iter()), bits(exact.iter()));
    }

    /// Thread-count independence, bit-for-bit: the fused kernel's kept set
    /// and values must not depend on row chunking.
    #[test]
    fn fused_pruning_is_thread_count_invariant(
        m in matrix_strategy(12),
        raw_top_k in 1usize..4,
    ) {
        prop_assume!(!m.is_empty());
        let options = PowerOptions::pruned(1e-3).with_top_k(Some(raw_top_k));
        let csr = &freeze_normalized_all(&[&m])[0];
        let serial = csr.power(2, options, 1);
        for threads in [2usize, 8] {
            let parallel = csr.power(2, options, threads);
            prop_assert_eq!(parallel.nnz(), serial.nnz());
            for ((r1, c1, v1), (r2, c2, v2)) in parallel.iter().zip(serial.iter()) {
                prop_assert_eq!((r1, c1), (r2, c2), "support differs at {} threads", threads);
                prop_assert_eq!(v1.to_bits(), v2.to_bits(),
                    "[{}, {}] differs at {} threads", r1, c1, threads);
            }
        }
    }
}
