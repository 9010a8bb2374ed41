//! EigenTrust (Kamvar, Schlosser, Garcia-Molina; WWW 2003).
//!
//! Each peer keeps a normalized local-trust row built from transaction
//! satisfaction; the global trust vector is the left principal eigenvector
//! of the matrix, damped toward a pre-trusted set. "The page link in the
//! PageRank algorithm becomes traffic flow in EigenTrust."
//!
//! Satisfaction comes from the downloader's vote when one was cast;
//! without a vote the transaction counts as satisfactory (the downloader
//! kept the file). This is what makes EigenTrust vulnerable to colluders
//! who vote each other up — experiment COLL measures exactly that.

use crate::system::ReputationSystem;
use mdrep::OwnerEvaluation;
use mdrep_matrix::{
    principal_eigenvector, CsrMatrix, EigenOptions, SparseMatrix, SparseVector, UserIndex,
};
use mdrep_types::{FileId, SimTime, UserId};
use mdrep_workload::{Catalog, EventKind, TraceEvent};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of the EigenTrust baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct EigenTrustConfig {
    /// The pre-trusted peers `P` (must be non-empty).
    pub pretrusted: Vec<UserId>,
    /// Damping weight toward the pre-trusted distribution.
    pub damping: f64,
    /// Convergence threshold of the power iteration.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for EigenTrustConfig {
    fn default() -> Self {
        Self {
            pretrusted: vec![UserId::new(0)],
            damping: 0.15,
            epsilon: 1e-9,
            max_iterations: 200,
        }
    }
}

/// The EigenTrust global reputation system.
///
/// # Examples
///
/// ```
/// use mdrep_baselines::{EigenTrust, EigenTrustConfig, ReputationSystem};
/// use mdrep_types::{SimTime, UserId};
///
/// let mut et = EigenTrust::new(EigenTrustConfig::default());
/// // Peers 1 and 2 are both satisfied by peer 3.
/// et.record_transaction(UserId::new(1), UserId::new(3), true);
/// et.record_transaction(UserId::new(2), UserId::new(3), true);
/// et.record_transaction(UserId::new(0), UserId::new(1), true);
/// et.recompute(SimTime::ZERO);
/// // Global rank: the same from every viewpoint.
/// let r_a = et.reputation(UserId::new(1), UserId::new(3));
/// let r_b = et.reputation(UserId::new(2), UserId::new(3));
/// assert_eq!(r_a, r_b);
/// ```
#[derive(Debug, Clone)]
pub struct EigenTrust {
    config: EigenTrustConfig,
    /// `(rater, target) → (satisfactory, unsatisfactory)` counts.
    transactions: HashMap<(UserId, UserId), (u64, u64)>,
    /// The last uploader per `(downloader, file)`, so a later vote can
    /// reclassify that exact transaction.
    last_uploader: HashMap<(UserId, FileId), UserId>,
    ranks: SparseVector,
    max_rank: f64,
}

impl EigenTrust {
    /// Creates the system with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the pre-trusted set is empty.
    #[must_use]
    pub fn new(config: EigenTrustConfig) -> Self {
        assert!(
            !config.pretrusted.is_empty(),
            "pre-trusted set must be non-empty"
        );
        Self {
            config,
            transactions: HashMap::new(),
            last_uploader: HashMap::new(),
            ranks: SparseVector::new(),
            max_rank: 0.0,
        }
    }

    /// Records one transaction outcome from `rater` about `target`.
    pub fn record_transaction(&mut self, rater: UserId, target: UserId, satisfactory: bool) {
        let entry = self.transactions.entry((rater, target)).or_insert((0, 0));
        if satisfactory {
            entry.0 += 1;
        } else {
            entry.1 += 1;
        }
    }

    /// The normalized local-trust matrix `C` (`c_ij = max(s−u, 0)`,
    /// row-normalized), frozen.
    #[must_use]
    pub fn local_trust(&self) -> CsrMatrix {
        let mut c = SparseMatrix::new();
        for (&(i, j), &(s, u)) in &self.transactions {
            if i == j {
                continue;
            }
            let v = s.saturating_sub(u) as f64;
            if v > 0.0 {
                c.set(i, j, v).expect("non-negative");
            }
        }
        let index = Arc::new(UserIndex::from_matrices(&[&c]));
        CsrMatrix::freeze_normalized_sharded(&index, &c, 1)
    }

    /// The latest global rank of `user` (0 before recompute / unranked).
    #[must_use]
    pub fn rank(&self, user: UserId) -> f64 {
        self.ranks.get(&user).copied().unwrap_or(0.0)
    }
}

impl ReputationSystem for EigenTrust {
    fn name(&self) -> &'static str {
        "eigentrust"
    }

    fn observe(&mut self, event: &TraceEvent, _catalog: &Catalog) {
        match event.kind {
            EventKind::Download {
                downloader,
                uploader,
                file,
            } => {
                // Without a later vote the transaction counts as
                // satisfactory; an explicit vote refines it below.
                self.record_transaction(downloader, uploader, true);
                self.last_uploader.insert((downloader, file), uploader);
            }
            // A vote below neutral reclassifies the transaction with the
            // provider of that exact file as unsatisfactory.
            EventKind::Vote { user, value, file } if value.value() < 0.5 => {
                if let Some(&uploader) = self.last_uploader.get(&(user, file)) {
                    let entry = self.transactions.entry((user, uploader)).or_insert((0, 0));
                    if entry.0 > 0 {
                        entry.0 -= 1;
                    }
                    entry.1 += 1;
                }
            }
            EventKind::Whitewash { user } => {
                self.transactions
                    .retain(|&(i, j), _| i != user && j != user);
                self.last_uploader
                    .retain(|&(d, _), &mut u| d != user && u != user);
                self.ranks.remove(&user);
            }
            _ => {}
        }
    }

    fn recompute(&mut self, _now: SimTime) {
        let c = self.local_trust();
        let options = EigenOptions {
            damping: self.config.damping,
            epsilon: self.config.epsilon,
            max_iterations: self.config.max_iterations,
        };
        let result = principal_eigenvector(&c, &self.config.pretrusted, &options);
        self.max_rank = result.ranks.values().fold(0.0f64, |a, &b| a.max(b));
        self.ranks = result.ranks;
    }

    /// Global: the rank of `j` scaled by the maximum rank, identical for
    /// every viewer `i`.
    fn reputation(&self, _i: UserId, j: UserId) -> f64 {
        if self.max_rank > 0.0 {
            self.rank(j) / self.max_rank
        } else {
            0.0
        }
    }

    fn file_score(
        &self,
        viewer: UserId,
        _file: FileId,
        evaluations: &[OwnerEvaluation],
        _now: SimTime,
    ) -> Option<f64> {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for oe in evaluations {
            let r = self.reputation(viewer, oe.owner);
            if r > 0.0 {
                weighted += r * oe.evaluation.value();
                weight += r;
            }
        }
        (weight > 0.0).then(|| weighted / weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_types::Evaluation;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    fn config(pretrusted: &[u64]) -> EigenTrustConfig {
        EigenTrustConfig {
            pretrusted: pretrusted.iter().map(|&i| u(i)).collect(),
            ..EigenTrustConfig::default()
        }
    }

    #[test]
    fn good_uploader_earns_global_rank() {
        let mut et = EigenTrust::new(config(&[0]));
        for i in 1..6 {
            et.record_transaction(u(i), u(9), true);
        }
        et.record_transaction(u(0), u(1), true);
        et.record_transaction(u(1), u(9), true);
        et.recompute(SimTime::ZERO);
        assert!(et.rank(u(9)) > 0.0);
        // Reputation is global: any viewer sees the same value.
        assert_eq!(et.reputation(u(2), u(9)), et.reputation(u(5), u(9)));
    }

    #[test]
    fn unsatisfactory_transactions_subtract() {
        let mut et = EigenTrust::new(config(&[1]));
        et.record_transaction(u(1), u(2), true);
        et.record_transaction(u(1), u(2), false);
        // s − u = 0 → no local trust edge.
        assert!(et.local_trust().is_empty());
        et.record_transaction(u(1), u(2), true);
        assert_eq!(et.local_trust().get(u(1), u(2)), 1.0);
    }

    #[test]
    fn self_transactions_ignored() {
        let mut et = EigenTrust::new(config(&[0]));
        et.record_transaction(u(1), u(1), true);
        assert!(et.local_trust().is_empty());
    }

    #[test]
    fn ranks_scale_to_unit_maximum() {
        let mut et = EigenTrust::new(config(&[0]));
        et.record_transaction(u(0), u(1), true);
        et.record_transaction(u(1), u(0), true);
        et.recompute(SimTime::ZERO);
        let best = [u(0), u(1)]
            .iter()
            .map(|&x| et.reputation(u(5), x))
            .fold(0.0f64, f64::max);
        assert!((best - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pretrusted_panics() {
        let _ = EigenTrust::new(EigenTrustConfig {
            pretrusted: vec![],
            ..EigenTrustConfig::default()
        });
    }

    #[test]
    fn file_score_weighs_by_global_rank() {
        let mut et = EigenTrust::new(config(&[0]));
        // Make user 1 highly ranked, user 2 unranked.
        et.record_transaction(u(0), u(1), true);
        et.recompute(SimTime::ZERO);
        let evals = [
            OwnerEvaluation::new(u(1), Evaluation::WORST),
            OwnerEvaluation::new(u(2), Evaluation::BEST),
        ];
        let score = et
            .file_score(u(5), FileId::new(0), &evals, SimTime::ZERO)
            .unwrap();
        // Both 0 and 1 hold rank (damping gives mass to pre-trusted 0);
        // user 2 holds none, so the honest "fake" verdict dominates.
        assert!(score < 0.5, "got {score}");
    }

    #[test]
    fn recompute_before_data_gives_pretrusted_only() {
        let mut et = EigenTrust::new(config(&[3]));
        et.recompute(SimTime::ZERO);
        assert!((et.rank(u(3)) - 1.0).abs() < 1e-9);
        assert_eq!(et.rank(u(1)), 0.0);
    }
}
