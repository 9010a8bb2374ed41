//! File-based direct trust: Equations 2 and 3.
//!
//! Two users who rated the same files similarly probably share taste and
//! honesty, so the paper defines
//! `FT_ij = 1 − (1/m)·Σ_{k∈F} |E_ik − E_jk|` over the intersection `F` of
//! their evaluated files (Equation 2), then row-normalizes into the
//! one-step matrix `FM` (Equation 3).
//!
//! Footnote 1 of the paper notes the L1 distance could be replaced by other
//! vector distances (Euclidean, Kullback–Leibler); [`DistanceMetric`]
//! implements all three for the ablation experiment.

use crate::eval::EvaluationStore;
use crate::params::Params;
use mdrep_matrix::{par_chunks, SparseMatrix, SparseVector};
use mdrep_types::{Evaluation, SimTime, UserId};
use std::collections::BTreeMap;

/// The per-file distance used inside Equation 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceMetric {
    /// The paper's choice: mean absolute difference, `FT = 1 − mean|Δ|`.
    #[default]
    L1,
    /// Root-mean-square difference, `FT = 1 − sqrt(meanΔ²)`.
    Euclidean,
    /// Symmetrized Kullback–Leibler divergence between the evaluations
    /// read as Bernoulli parameters, mapped to trust by `exp(−meanKL)`.
    SymmetricKl,
}

impl DistanceMetric {
    /// The per-file contribution for one common file.
    fn per_file(self, a: Evaluation, b: Evaluation) -> f64 {
        match self {
            Self::L1 => a.distance(b),
            Self::Euclidean => {
                let d = a.distance(b);
                d * d
            }
            Self::SymmetricKl => {
                let clamp = |v: f64| v.clamp(1e-6, 1.0 - 1e-6);
                let (p, q) = (clamp(a.value()), clamp(b.value()));
                let kl =
                    |p: f64, q: f64| p * (p / q).ln() + (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln();
                0.5 * (kl(p, q) + kl(q, p))
            }
        }
    }

    /// Maps the accumulated distance over `m` common files to `FT ∈ [0,1]`.
    fn to_trust(self, sum: f64, m: usize) -> f64 {
        let mean = sum / m as f64;
        match self {
            Self::L1 => (1.0 - mean).clamp(0.0, 1.0),
            Self::Euclidean => (1.0 - mean.sqrt()).clamp(0.0, 1.0),
            Self::SymmetricKl => (-mean).exp().clamp(0.0, 1.0),
        }
    }
}

/// Options for [`FileTrust::compute`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FileTrustOptions {
    /// The vector distance of Equation 2.
    pub metric: DistanceMetric,
    /// Cap on evaluators considered per file (popular files can have
    /// thousands; pairing them is quadratic). `None` = unbounded.
    pub max_evaluators_per_file: Option<usize>,
}

/// The computed file-based trust relationship.
///
/// # Examples
///
/// ```
/// use mdrep::{EvaluationStore, FileTrust, Params};
/// use mdrep_types::{Evaluation, FileId, SimTime, UserId};
///
/// let params = Params::builder().eta(0.0).build()?; // pure explicit votes
/// let mut store = EvaluationStore::new();
/// let (a, b, f) = (UserId::new(0), UserId::new(1), FileId::new(0));
/// store.record_vote(SimTime::ZERO, a, f, Evaluation::BEST);
/// store.record_vote(SimTime::ZERO, b, f, Evaluation::BEST);
///
/// let trust = FileTrust::compute(&store, SimTime::ZERO, &params);
/// // Identical opinions → maximal file-based trust.
/// assert_eq!(trust.raw().get(a, b), 1.0);
/// # Ok::<(), mdrep::ParamsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FileTrust {
    ft: SparseMatrix,
}

impl FileTrust {
    /// Computes Equation 2 with default options (L1, unbounded).
    #[must_use]
    pub fn compute(store: &EvaluationStore, now: SimTime, params: &Params) -> Self {
        Self::compute_with(store, now, params, FileTrustOptions::default())
    }

    /// Computes Equation 2 with explicit options: one [`ft_row`] per user,
    /// built across [`Params::effective_threads`] workers. Rows are
    /// independent, so any thread count yields the identical matrix. The
    /// cost is `O(Σ_f e_f²)` where `e_f` is the (possibly capped) evaluator
    /// count of file `f`.
    #[must_use]
    pub fn compute_with(
        store: &EvaluationStore,
        now: SimTime,
        params: &Params,
        options: FileTrustOptions,
    ) -> Self {
        let users: Vec<UserId> = store.users().collect();
        let chunks = par_chunks(&users, params.effective_threads(), |chunk| {
            chunk
                .iter()
                .map(|&u| (u, ft_row(store, u, now, params, options)))
                .collect::<Vec<_>>()
        });
        let mut ft = SparseMatrix::new();
        for (u, row) in chunks.into_iter().flatten() {
            ft.set_row(u, row).expect("trust in [0,1]");
        }
        Self { ft }
    }

    /// The raw symmetric `FT` matrix (Equation 2). Freezing it
    /// row-normalized gives the one-step matrix `FM` (Equation 3).
    #[must_use]
    pub fn raw(&self) -> &SparseMatrix {
        &self.ft
    }
}

/// One row of Equation 2: `user`'s file-based trust in every co-evaluator,
/// at `now`. Shared by the batch and dirty-row paths.
///
/// The row walks `user`'s files in ascending order. Each file costs one
/// lookup of its column, sorted by user. A file counts only when `user`
/// sits in its capped evaluator prefix, which a binary search over the
/// prefix's user ids decides before any Equation 1 work; the file then
/// costs one walk of that prefix, pairing `user` with every other member.
/// Each pair's distance is taken with the lower id's evaluation first, so
/// row `i`'s entry for `j` sums the same terms in the same order as row
/// `j`'s entry for `i`: the matrix is exactly symmetric, and a row rebuilt
/// alone is bit-identical to the same row of [`FileTrust::compute_with`].
/// Zero-trust pairs stay absent.
#[must_use]
pub fn ft_row(
    store: &EvaluationStore,
    user: UserId,
    now: SimTime,
    params: &Params,
    options: FileTrustOptions,
) -> SparseVector {
    let cap = options.max_evaluators_per_file.unwrap_or(usize::MAX);
    let mut acc: BTreeMap<UserId, (f64, usize)> = BTreeMap::new();
    for file in store.files_of(user) {
        let records = store.column_records(file);
        let prefix = &records[..records.len().min(cap)];
        let Ok(at) = prefix.binary_search_by_key(&user, |&(u, _)| u) else {
            continue;
        };
        let own = prefix[at].1.evaluation(now, params);
        for (other, record) in prefix {
            if *other == user {
                continue;
            }
            let theirs = record.evaluation(now, params);
            let d = if user < *other {
                options.metric.per_file(own, theirs)
            } else {
                options.metric.per_file(theirs, own)
            };
            let entry = acc.entry(*other).or_insert((0.0, 0));
            entry.0 += d;
            entry.1 += 1;
        }
    }
    acc.into_iter()
        .map(|(other, (sum, m))| (other, options.metric.to_trust(sum, m)))
        .filter(|&(_, trust)| trust > 0.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_matrix::{CsrMatrix, UserIndex};
    use mdrep_types::FileId;
    use std::sync::Arc;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    /// Pure-explicit params so votes are the evaluation verbatim.
    fn explicit_params() -> Params {
        Params::builder().eta(0.0).build().unwrap()
    }

    fn vote(store: &mut EvaluationStore, user: UserId, file: FileId, v: f64) {
        store.record_vote(SimTime::ZERO, user, file, Evaluation::new(v).unwrap());
    }

    #[test]
    fn identical_opinions_give_full_trust() {
        let mut store = EvaluationStore::new();
        for file in 0..3 {
            vote(&mut store, u(0), f(file), 0.8);
            vote(&mut store, u(1), f(file), 0.8);
        }
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        assert_eq!(t.raw().get(u(0), u(1)), 1.0);
        assert_eq!(t.raw().get(u(1), u(0)), 1.0);
    }

    #[test]
    fn opposite_opinions_give_zero_trust() {
        let mut store = EvaluationStore::new();
        vote(&mut store, u(0), f(0), 1.0);
        vote(&mut store, u(1), f(0), 0.0);
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        assert_eq!(t.raw().get(u(0), u(1)), 0.0);
    }

    #[test]
    fn equation_two_hand_computed() {
        // Common files: e0 = (1.0, 0.6) → |Δ| = 0.4; e1 = (0.5, 0.7) → 0.2.
        // FT = 1 − (0.4 + 0.2)/2 = 0.7.
        let mut store = EvaluationStore::new();
        vote(&mut store, u(0), f(0), 1.0);
        vote(&mut store, u(1), f(0), 0.6);
        vote(&mut store, u(0), f(1), 0.5);
        vote(&mut store, u(1), f(1), 0.7);
        // A third file only user 0 evaluated must not affect the pair.
        vote(&mut store, u(0), f(2), 0.0);
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        assert!((t.raw().get(u(0), u(1)) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn no_common_files_no_relationship() {
        let mut store = EvaluationStore::new();
        vote(&mut store, u(0), f(0), 1.0);
        vote(&mut store, u(1), f(1), 1.0);
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        assert_eq!(t.raw().get(u(0), u(1)), 0.0);
        assert!(t.raw().is_empty());
    }

    #[test]
    fn fm_is_row_stochastic() {
        let mut store = EvaluationStore::new();
        for file in 0..4 {
            vote(&mut store, u(0), f(file), 0.9);
            vote(&mut store, u(1), f(file), 0.8);
            vote(&mut store, u(2), f(file), 0.2);
        }
        let t = FileTrust::compute(&store, SimTime::ZERO, &explicit_params());
        let index = Arc::new(UserIndex::from_matrices(&[t.raw()]));
        let fm = CsrMatrix::freeze_normalized_sharded(&index, t.raw(), 1);
        assert!(fm.is_row_stochastic(1e-12));
        // User 0 trusts user 1 (similar) more than user 2 (dissimilar).
        assert!(fm.get(u(0), u(1)) > fm.get(u(0), u(2)));
    }

    #[test]
    fn euclidean_penalizes_large_deviations_more() {
        // Same mean |Δ| but concentrated in one file: L1 equal, Euclid lower.
        let mut even = EvaluationStore::new();
        vote(&mut even, u(0), f(0), 0.5);
        vote(&mut even, u(1), f(0), 0.0);
        vote(&mut even, u(0), f(1), 0.5);
        vote(&mut even, u(1), f(1), 0.0);

        let mut spiky = EvaluationStore::new();
        vote(&mut spiky, u(0), f(0), 1.0);
        vote(&mut spiky, u(1), f(0), 0.0);
        vote(&mut spiky, u(0), f(1), 0.0);
        vote(&mut spiky, u(1), f(1), 0.0);

        let params = explicit_params();
        let opts = FileTrustOptions {
            metric: DistanceMetric::Euclidean,
            ..Default::default()
        };
        let even_l1 = FileTrust::compute(&even, SimTime::ZERO, &params)
            .raw()
            .get(u(0), u(1));
        let spiky_l1 = FileTrust::compute(&spiky, SimTime::ZERO, &params)
            .raw()
            .get(u(0), u(1));
        assert!((even_l1 - spiky_l1).abs() < 1e-12, "same L1 trust");

        let even_eu = FileTrust::compute_with(&even, SimTime::ZERO, &params, opts)
            .raw()
            .get(u(0), u(1));
        let spiky_eu = FileTrust::compute_with(&spiky, SimTime::ZERO, &params, opts)
            .raw()
            .get(u(0), u(1));
        assert!(spiky_eu < even_eu, "euclidean punishes the spike");
    }

    #[test]
    fn kl_metric_in_range_and_monotone() {
        let params = explicit_params();
        let opts = FileTrustOptions {
            metric: DistanceMetric::SymmetricKl,
            ..Default::default()
        };

        let mut close = EvaluationStore::new();
        vote(&mut close, u(0), f(0), 0.8);
        vote(&mut close, u(1), f(0), 0.7);
        let mut far = EvaluationStore::new();
        vote(&mut far, u(0), f(0), 0.9);
        vote(&mut far, u(1), f(0), 0.1);

        let tc = FileTrust::compute_with(&close, SimTime::ZERO, &params, opts)
            .raw()
            .get(u(0), u(1));
        let tf = FileTrust::compute_with(&far, SimTime::ZERO, &params, opts)
            .raw()
            .get(u(0), u(1));
        assert!((0.0..=1.0).contains(&tc));
        assert!((0.0..=1.0).contains(&tf));
        assert!(tc > tf);
    }

    #[test]
    fn evaluator_cap_limits_pairing() {
        let mut store = EvaluationStore::new();
        for user in 0..10 {
            vote(&mut store, u(user), f(0), 1.0);
        }
        let params = explicit_params();
        let capped = FileTrustOptions {
            max_evaluators_per_file: Some(3),
            ..Default::default()
        };
        let t = FileTrust::compute_with(&store, SimTime::ZERO, &params, capped);
        // Only 3 evaluators considered → 3 pairs → 6 directed entries.
        assert_eq!(t.raw().nnz(), 6);
        let full = FileTrust::compute(&store, SimTime::ZERO, &params);
        assert_eq!(full.raw().nnz(), 90);
    }

    #[test]
    fn rows_match_batch_across_cap_prefix_shift() {
        // With cap 2, only the two lowest-id evaluators of a file pair up.
        // Removing a prefix member promotes the next user in; every row,
        // rebuilt alone, must equal the batch row bit for bit.
        let params = explicit_params();
        let options = FileTrustOptions {
            max_evaluators_per_file: Some(2),
            ..Default::default()
        };
        let mut store = EvaluationStore::new();
        for file in 0..3 {
            vote(&mut store, u(0), f(file), 0.9);
            vote(&mut store, u(1), f(file), 0.7 + 0.05 * file as f64);
            vote(&mut store, u(2), f(file), 0.2);
        }
        let check = |store: &EvaluationStore| {
            let batch = FileTrust::compute_with(store, SimTime::ZERO, &params, options);
            for user in 0..3 {
                let row = ft_row(store, u(user), SimTime::ZERO, &params, options);
                assert_eq!(
                    Some(&row).filter(|r| !r.is_empty()),
                    batch.raw().row(u(user))
                );
            }
            batch
        };
        assert_eq!(
            check(&store).raw().get(u(0), u(2)),
            0.0,
            "u2 beyond the cap"
        );
        store.remove_user(u(1));
        assert!(
            check(&store).raw().get(u(0), u(2)) > 0.0,
            "u2 enters the prefix"
        );
    }

    #[test]
    fn implicit_evaluations_build_trust_without_votes() {
        // Both users download the same file and keep it → similar implicit
        // evaluations → trust edge, with zero votes cast. This is the
        // paper's central argument for implicit evaluation coverage.
        let params = Params::default();
        let mut store = EvaluationStore::new();
        store.record_download(SimTime::ZERO, u(0), f(0));
        store.record_download(SimTime::ZERO, u(1), f(0));
        let later = SimTime::ZERO + mdrep_types::SimDuration::from_days(3);
        let t = FileTrust::compute(&store, later, &params);
        assert_eq!(
            t.raw().get(u(0), u(1)),
            1.0,
            "same retention → same opinion"
        );
    }
}
