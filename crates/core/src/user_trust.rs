//! User-based direct trust: Equation 6.
//!
//! Users can rate each other directly — through explicit values, friend
//! lists (high trust), and blacklists (zero trust). The latest rating per
//! ordered pair is kept as `UT_ij`, and row-normalization yields the
//! one-step matrix `UM` (Equation 6).

use mdrep_matrix::{SparseMatrix, SparseVector};
use mdrep_types::{Evaluation, UserId};
use std::collections::BTreeMap;

/// Accumulates user-to-user ratings and computes `UT`/`UM`.
///
/// # Examples
///
/// ```
/// use mdrep::UserTrust;
/// use mdrep_types::{Evaluation, UserId};
///
/// let mut ut = UserTrust::new();
/// let (a, b, c) = (UserId::new(0), UserId::new(1), UserId::new(2));
/// ut.add_friend(a, b);          // friend list → trust 1
/// ut.add_blacklist(a, c);       // blacklist → trust 0
/// let ut_matrix = ut.raw();
/// assert_eq!(ut_matrix.get(a, b), 1.0);
/// assert_eq!(ut_matrix.get(a, c), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UserTrust {
    /// `rater → target → rating`, row-major so a single rater's `UM` row
    /// can be rebuilt without touching the rest.
    ratings: BTreeMap<UserId, BTreeMap<UserId, Evaluation>>,
}

impl UserTrust {
    /// Creates an empty rating store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `rater`'s rating of `target`, replacing any earlier one.
    /// Self-ratings are ignored (they would let users seed their own rows).
    pub fn rate(&mut self, rater: UserId, target: UserId, value: Evaluation) {
        if rater != target {
            self.ratings.entry(rater).or_default().insert(target, value);
        }
    }

    /// Friend-list shortcut: rate `friend` with the maximum value.
    pub fn add_friend(&mut self, rater: UserId, friend: UserId) {
        self.rate(rater, friend, Evaluation::BEST);
    }

    /// Blacklist shortcut: rate `target` with zero.
    pub fn add_blacklist(&mut self, rater: UserId, target: UserId) {
        self.rate(rater, target, Evaluation::WORST);
    }

    /// The current rating of `target` by `rater`, if any.
    #[must_use]
    pub fn rating(&self, rater: UserId, target: UserId) -> Option<Evaluation> {
        self.ratings
            .get(&rater)
            .and_then(|r| r.get(&target))
            .copied()
    }

    /// Forgets every rating involving `user` — both the ratings it gave and
    /// the ones it received (whitewash handling). Returns the raters that
    /// had rated `user` (ascending) — besides `user`'s own, the only `UT`
    /// rows the removal changes.
    pub fn remove_user(&mut self, user: UserId) -> Vec<UserId> {
        self.ratings.remove(&user);
        let mut changed = Vec::new();
        for (&rater, targets) in &mut self.ratings {
            if targets.remove(&user).is_some() {
                changed.push(rater);
            }
        }
        self.ratings.retain(|_, targets| !targets.is_empty());
        changed
    }

    /// Number of stored ratings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ratings.values().map(BTreeMap::len).sum()
    }

    /// Number of raters with at least one stored rating.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.ratings.len()
    }

    /// Whether no ratings are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ratings.is_empty()
    }

    /// One row of the raw `UT` matrix: `rater`'s positive ratings. Zero
    /// ratings (blacklist entries) are absent from the sparse form —
    /// exactly their Equation 6 semantics, since a zero contributes nothing
    /// to the normalized row. Shared by the batch and dirty-row paths.
    #[must_use]
    pub fn ut_row(&self, rater: UserId) -> SparseVector {
        self.ratings
            .get(&rater)
            .map(|targets| {
                targets
                    .iter()
                    .filter(|(_, v)| v.value() > 0.0)
                    .map(|(&t, v)| (t, v.value()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The raw `UT` matrix. Freezing it row-normalized gives the one-step
    /// matrix `UM` (Equation 6).
    #[must_use]
    pub fn raw(&self) -> SparseMatrix {
        let mut ut = SparseMatrix::new();
        for &rater in self.ratings.keys() {
            ut.set_row(rater, self.ut_row(rater)).expect("in [0,1]");
        }
        ut
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_matrix::{normalize_row_mut, CsrMatrix, UserIndex};
    use std::sync::Arc;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    /// Equation 6: `UT` frozen row-normalized into `UM`.
    fn um(ut: &UserTrust) -> CsrMatrix {
        let raw = ut.raw();
        let index = Arc::new(UserIndex::from_matrices(&[&raw]));
        CsrMatrix::freeze_normalized_sharded(&index, &raw, 1)
    }

    #[test]
    fn ratings_round_trip() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::new(0.8).unwrap());
        assert_eq!(ut.rating(u(0), u(1)).unwrap().value(), 0.8);
        assert_eq!(ut.rating(u(1), u(0)), None);
        assert_eq!(ut.len(), 1);
    }

    #[test]
    fn re_rating_replaces() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::BEST);
        ut.rate(u(0), u(1), Evaluation::new(0.2).unwrap());
        assert_eq!(ut.rating(u(0), u(1)).unwrap().value(), 0.2);
        assert_eq!(ut.len(), 1);
    }

    #[test]
    fn self_ratings_ignored() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(0), Evaluation::BEST);
        ut.add_friend(u(1), u(1));
        assert!(ut.is_empty());
    }

    #[test]
    fn um_normalizes_rows() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::new(0.6).unwrap());
        ut.rate(u(0), u(2), Evaluation::new(0.2).unwrap());
        let um = um(&ut);
        assert!(um.is_row_stochastic(1e-12));
        assert!((um.get(u(0), u(1)) - 0.75).abs() < 1e-12);
        assert!((um.get(u(0), u(2)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn blacklisted_users_get_nothing_after_normalization() {
        let mut ut = UserTrust::new();
        ut.add_friend(u(0), u(1));
        ut.add_blacklist(u(0), u(2));
        let um = um(&ut);
        assert_eq!(um.get(u(0), u(1)), 1.0);
        assert_eq!(um.get(u(0), u(2)), 0.0);
    }

    #[test]
    fn blacklist_overrides_friendship() {
        let mut ut = UserTrust::new();
        ut.add_friend(u(0), u(1));
        ut.add_blacklist(u(0), u(1));
        assert_eq!(um(&ut).get(u(0), u(1)), 0.0);
    }

    #[test]
    fn remove_user_clears_given_and_received() {
        let mut ut = UserTrust::new();
        ut.add_friend(u(0), u(1));
        ut.add_friend(u(1), u(2));
        ut.add_friend(u(2), u(0));
        // Rater 0 pointed at user 1; user 1's own row goes with it.
        assert_eq!(ut.remove_user(u(1)), vec![u(0)]);
        assert_eq!(ut.len(), 1);
        assert!(ut.rating(u(2), u(0)).is_some());
    }

    #[test]
    fn ut_row_matches_matrix_row() {
        let mut ut = UserTrust::new();
        ut.rate(u(0), u(1), Evaluation::new(0.6).unwrap());
        ut.rate(u(0), u(2), Evaluation::new(0.2).unwrap());
        ut.add_blacklist(u(0), u(3));
        let row = ut.ut_row(u(0));
        assert_eq!(row.len(), 2, "blacklist entry absent");
        let mut normalized = row.clone();
        assert!(normalize_row_mut(&mut normalized));
        let batch: SparseVector = um(&ut).row_entries(u(0)).collect();
        assert_eq!(batch, normalized);
    }

    #[test]
    fn all_blacklist_row_is_empty() {
        let mut ut = UserTrust::new();
        ut.add_blacklist(u(0), u(1));
        ut.add_blacklist(u(0), u(2));
        let um = um(&ut);
        assert!(um.is_empty());
    }
}
