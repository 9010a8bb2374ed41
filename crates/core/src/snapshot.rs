//! The engine's computed state as an immutable read view, and the
//! lock-free publication cell readers subscribe to.
//!
//! [`EngineSnapshot`] is the one read API of the system: a
//! [`ReputationEngine`](crate::ReputationEngine) holds its computed state as
//! one (its [`view`](crate::ReputationEngine::view)), and every published
//! epoch is a stamped clone of that view. Equation 9, the Section 3.4
//! service policy, Figure 1 coverage, and the Section 4.2 punishment rule
//! are implemented here once.
//!
//! The sharded engine separates *ingest* (per-shard event queues), *compute*
//! (one recompute at a time over the master state), and *reads* (Equation 9
//! queries, incentive decisions, DHT serving). Reads never touch mutable
//! state: each recompute epoch publishes one [`EngineSnapshot`] — the frozen
//! `FM`/`DM`/`UM`/`TM` components and `RM` under one interner, plus the
//! punished set — into a [`SnapshotCell`]. A snapshot is immutable for its
//! whole lifetime, so a reader holding its `Arc` can answer any number of
//! queries against a *consistent* epoch while the next epoch recomputes
//! concurrently; a torn read (part epoch N, part epoch N+1) is structurally
//! impossible.
//!
//! [`SnapshotReader`] adds the lock-free fast path: it caches the last
//! `Arc<EngineSnapshot>` and revalidates with a single atomic epoch load,
//! taking the cell's read lock only when an epoch actually flipped — in
//! steady state (many reads per epoch) reads cost one `Acquire` load.

use crate::engine::TrustComponents;
use crate::file_reputation::{
    download_decision, file_reputation, DownloadDecision, OwnerEvaluation,
};
use crate::incentive::{ServiceDecision, ServicePolicy};
use crate::params::Params;
use crate::reputation::ReputationMatrix;
use mdrep_types::{Evaluation, SimTime, UserId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One recompute's computed state: the engine's view, or a published
/// epoch of it.
///
/// A published snapshot never changes; the engine's own view changes only
/// through `&mut` engine calls (recompute, punish, pardon). Every query is
/// `&self` — safe to call from any number of threads concurrently. A
/// punished user reads as zero reputation, its evaluations are discarded
/// from Equation 9, and it gets stranger service.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub(crate) epoch: u64,
    pub(crate) as_of: SimTime,
    pub(crate) params: Params,
    pub(crate) components: Option<TrustComponents>,
    pub(crate) rm: Option<ReputationMatrix>,
    pub(crate) punished: HashSet<UserId>,
}

impl EngineSnapshot {
    /// An empty epoch-0 snapshot: every query answers conservatively, like
    /// a fresh engine before its first recompute.
    #[must_use]
    pub fn empty(params: Params) -> Self {
        Self {
            epoch: 0,
            as_of: SimTime::ZERO,
            params,
            components: None,
            rm: None,
            punished: HashSet::new(),
        }
    }

    /// The epoch counter this snapshot was published under (0 = empty).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The simulation time the epoch was computed at.
    #[must_use]
    pub fn as_of(&self) -> SimTime {
        self.as_of
    }

    /// The engine parameters the epoch was computed with.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The epoch's one-step matrices (`None` before the first recompute).
    #[must_use]
    pub fn components(&self) -> Option<&TrustComponents> {
        self.components.as_ref()
    }

    /// The epoch's reputation matrix (`None` before the first recompute).
    #[must_use]
    pub fn reputation_matrix(&self) -> Option<&ReputationMatrix> {
        self.rm.as_ref()
    }

    /// Whether `user` was punished as of this epoch.
    #[must_use]
    pub fn is_punished(&self, user: UserId) -> bool {
        self.punished.contains(&user)
    }

    /// `RM_ij` (0 before the first recompute, for unknown pairs, and for
    /// punished targets).
    #[must_use]
    pub fn reputation(&self, i: UserId, j: UserId) -> f64 {
        if self.punished.contains(&j) {
            return 0.0;
        }
        self.rm.as_ref().map_or(0.0, |rm| rm.reputation(i, j))
    }

    /// [`reputation`](Self::reputation) rescaled so `i`'s most-trusted peer
    /// maps to 1 — the service-differentiation input, and the one place
    /// the row-max scaling lives.
    #[must_use]
    pub fn relative_reputation(&self, i: UserId, j: UserId) -> f64 {
        let raw = self.reputation(i, j);
        if raw <= 0.0 {
            return 0.0;
        }
        let max = self.rm.as_ref().map_or(0.0, |rm| rm.row_max(i));
        if max > 0.0 {
            raw / max
        } else {
            0.0
        }
    }

    /// Equation 9 for `viewer` over the supplied owner evaluations,
    /// punished owners discarded.
    #[must_use]
    pub fn file_reputation(
        &self,
        viewer: UserId,
        evaluations: &[OwnerEvaluation],
    ) -> Option<Evaluation> {
        let trusted = self.trusted_evaluations(evaluations);
        self.rm
            .as_ref()
            .and_then(|rm| file_reputation(rm, viewer, &trusted))
    }

    /// Batched Equation 9: one file's owner set scored by a viewer panel.
    #[must_use]
    pub fn file_reputation_batch(
        &self,
        viewers: &[UserId],
        evaluations: &[OwnerEvaluation],
    ) -> Vec<Option<Evaluation>> {
        let trusted = self.trusted_evaluations(evaluations);
        match &self.rm {
            None => vec![None; viewers.len()],
            Some(rm) => crate::file_reputation::file_reputation_batch(rm, viewers, &trusted),
        }
    }

    /// The download decision for `viewer` (punished owners discarded).
    #[must_use]
    pub fn decide_download(
        &self,
        viewer: UserId,
        evaluations: &[OwnerEvaluation],
    ) -> DownloadDecision {
        let trusted = self.trusted_evaluations(evaluations);
        match &self.rm {
            None => DownloadDecision::Unknown,
            Some(rm) => download_decision(rm, viewer, &trusted, &self.params),
        }
    }

    /// The service `uploader` grants `requester` under `policy`: the
    /// [relative reputation](Self::relative_reputation) decides, so a
    /// punished requester (and anyone before the first recompute) is a
    /// stranger.
    #[must_use]
    pub fn service(
        &self,
        uploader: UserId,
        requester: UserId,
        policy: &ServicePolicy,
    ) -> ServiceDecision {
        policy.decide_scaled(self.relative_reputation(uploader, requester))
    }

    /// Tier-based service (punished requesters are strangers).
    #[must_use]
    pub fn service_tiered(
        &self,
        uploader: UserId,
        requester: UserId,
        policy: &ServicePolicy,
    ) -> ServiceDecision {
        match &self.rm {
            _ if self.punished.contains(&requester) => policy.decide_scaled(0.0),
            None => policy.decide_scaled(0.0),
            Some(rm) => policy.decide_tiered(rm.tier_of(uploader, requester), rm.steps().max(1)),
        }
    }

    /// Figure 1 request coverage: the share of `(from, to)` pairs with
    /// positive [`reputation`](Self::reputation), so punished targets are
    /// uncovered. 0.0 for no pairs and before the first recompute.
    #[must_use]
    pub fn request_coverage(&self, requests: &[(UserId, UserId)]) -> f64 {
        if self.rm.is_none() || requests.is_empty() {
            return 0.0;
        }
        let covered = requests
            .iter()
            .filter(|&&(i, j)| self.reputation(i, j) > 0.0)
            .count();
        covered as f64 / requests.len() as f64
    }

    /// FNV-1a digest over the epoch stamp and every `RM` entry's exact bit
    /// pattern — two snapshots with the same digest carry the same epoch
    /// and bit-identical reputation state. The torn-epoch stress tests
    /// recompute this from a reader thread and compare against the
    /// writer's publication log.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.epoch);
        if let Some(rm) = &self.rm {
            for (r, c, v) in rm.matrix().iter() {
                mix(r.as_u64());
                mix(c.as_u64());
                mix(v.to_bits());
            }
        }
        h
    }

    fn trusted_evaluations(&self, evaluations: &[OwnerEvaluation]) -> Vec<OwnerEvaluation> {
        evaluations
            .iter()
            .filter(|oe| !self.punished.contains(&oe.owner))
            .copied()
            .collect()
    }
}

/// The publication point: holds the current epoch's `Arc<EngineSnapshot>`
/// and an atomic epoch counter readers revalidate against.
///
/// Publishing stores the new `Arc` first, then bumps the epoch with
/// `Release`; a reader that observes the bumped epoch (`Acquire`) therefore
/// sees a slot at least as new. Readers that race a publication get either
/// the old or the new snapshot — both complete, never a mix.
#[derive(Debug)]
pub struct SnapshotCell {
    epoch: AtomicU64,
    slot: RwLock<Arc<EngineSnapshot>>,
}

impl SnapshotCell {
    /// A cell holding the empty epoch-0 snapshot.
    #[must_use]
    pub fn new(params: Params) -> Self {
        Self::with_snapshot(Arc::new(EngineSnapshot::empty(params)))
    }

    /// A cell pre-seeded with an existing snapshot.
    #[must_use]
    pub fn with_snapshot(snapshot: Arc<EngineSnapshot>) -> Self {
        Self {
            epoch: AtomicU64::new(snapshot.epoch()),
            slot: RwLock::new(snapshot),
        }
    }

    /// The epoch of the currently published snapshot (one atomic load).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current snapshot handle (brief read lock).
    #[must_use]
    pub fn load(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.slot.read().expect("snapshot lock poisoned"))
    }

    /// Publishes a new epoch: swap the slot, then advertise the epoch.
    ///
    /// Installation is **strictly monotonic**: a snapshot whose epoch is
    /// not newer than the installed one is skipped (returning `false`).
    /// Epoch numbers are assigned under the master lock, in engine-state
    /// order, but the publish itself happens after that lock is dropped —
    /// so a slow publisher can arrive after a faster one that observed a
    /// *later* engine state. Skipping the stale snapshot is correct (the
    /// installed one already reflects every change the stale one does) and
    /// keeps readers' epochs strictly increasing.
    pub fn publish(&self, snapshot: Arc<EngineSnapshot>) -> bool {
        let epoch = snapshot.epoch();
        let mut slot = self.slot.write().expect("snapshot lock poisoned");
        if epoch <= slot.epoch() {
            return false;
        }
        *slot = snapshot;
        self.epoch.store(epoch, Ordering::Release);
        true
    }

    /// A reader with its own cached handle against this cell.
    #[must_use]
    pub fn reader(&self) -> SnapshotReader<'_> {
        SnapshotReader {
            cell: self,
            cached: self.load(),
        }
    }
}

/// A per-thread reading handle: revalidates its cached snapshot with one
/// atomic load and only touches the cell's lock on an epoch flip.
///
/// # Examples
///
/// ```
/// use mdrep::{Params, ShardedEngine};
/// use mdrep_types::{Evaluation, SimTime, UserId};
///
/// let engine = ShardedEngine::new(Params::default(), 4);
/// engine.observe_rank(UserId::new(0), UserId::new(1), Evaluation::BEST);
/// engine.recompute_epoch(SimTime::ZERO);
///
/// let mut reader = engine.reader();
/// let snap = reader.current();
/// assert_eq!(snap.epoch(), 1);
/// assert!(snap.reputation(UserId::new(0), UserId::new(1)) > 0.0);
/// ```
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    cell: &'a SnapshotCell,
    cached: Arc<EngineSnapshot>,
}

impl SnapshotReader<'_> {
    /// The current snapshot: cached `Arc` when the epoch is unchanged
    /// (lock-free — a single `Acquire` load), refreshed through the cell
    /// otherwise.
    pub fn current(&mut self) -> &Arc<EngineSnapshot> {
        let published = self.cell.epoch();
        if published != self.cached.epoch() {
            self.cached = self.cell.load();
        }
        &self.cached
    }

    /// The epoch of the cached snapshot (no revalidation).
    #[must_use]
    pub fn cached_epoch(&self) -> u64 {
        self.cached.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ReputationEngine;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }

    /// User 0 trusts 1 (its most-trusted peer) and, less, 2.
    fn trusting_engine() -> ReputationEngine {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.observe_rank(u(0), u(2), Evaluation::new(0.5).unwrap());
        engine.recompute(SimTime::ZERO);
        engine
    }

    #[test]
    fn punished_requester_gets_stranger_service() {
        let mut engine = trusting_engine();
        let policy = ServicePolicy::default();
        let friend = policy.decide_scaled(1.0);
        let stranger = policy.decide_scaled(0.0);
        assert_eq!(engine.view().service(u(0), u(1), &policy), friend);

        engine.mark_punished(u(1));
        assert_eq!(engine.view().service(u(0), u(1), &policy), stranger);
        assert_eq!(engine.view().service_tiered(u(0), u(1), &policy), stranger);
        let published = engine.snapshot_at(1, SimTime::ZERO);
        assert_eq!(published.service(u(0), u(1), &policy), stranger);

        engine.pardon(u(1));
        assert_eq!(engine.view().service(u(0), u(1), &policy), friend);
    }

    #[test]
    fn request_coverage_counts_punished_targets_as_uncovered() {
        let mut engine = trusting_engine();
        let pairs = [(u(0), u(1)), (u(0), u(2)), (u(0), u(9)), (u(1), u(0))];
        let share = |view: &EngineSnapshot| {
            let covered = pairs
                .iter()
                .filter(|&&(i, j)| view.reputation(i, j) > 0.0)
                .count();
            covered as f64 / pairs.len() as f64
        };
        assert_eq!(engine.view().request_coverage(&pairs), 0.5);

        engine.mark_punished(u(1));
        assert_eq!(engine.view().request_coverage(&pairs), 0.25);
        assert_eq!(engine.view().request_coverage(&pairs), share(engine.view()));
        assert_eq!(engine.view().request_coverage(&[]), 0.0);
        // Punishment hides a target, not a viewer.
        engine.pardon(u(1));
        engine.mark_punished(u(0));
        assert_eq!(engine.view().request_coverage(&pairs), 0.5);
        assert_eq!(engine.view().request_coverage(&pairs), share(engine.view()));
    }

    #[test]
    fn empty_snapshot_answers_conservatively() {
        let snap = EngineSnapshot::empty(Params::default());
        assert_eq!(snap.epoch(), 0);
        assert_eq!(snap.reputation(u(0), u(1)), 0.0);
        assert_eq!(snap.relative_reputation(u(0), u(1)), 0.0);
        assert!(snap.components().is_none());
        assert!(snap.reputation_matrix().is_none());
        assert_eq!(snap.decide_download(u(0), &[]), DownloadDecision::Unknown);
        assert!(snap
            .service(u(0), u(1), &ServicePolicy::default())
            .is_throttled());
        assert_eq!(snap.request_coverage(&[(u(0), u(1))]), 0.0);
        assert_eq!(snap.file_reputation_batch(&[u(0)], &[]), vec![None]);
    }

    #[test]
    fn cell_publish_flips_epoch_and_slot() {
        let cell = SnapshotCell::new(Params::default());
        assert_eq!(cell.epoch(), 0);
        let mut reader = cell.reader();
        assert_eq!(reader.current().epoch(), 0);

        let next = Arc::new(EngineSnapshot {
            epoch: 7,
            ..EngineSnapshot::empty(Params::default())
        });
        cell.publish(Arc::clone(&next));
        assert_eq!(cell.epoch(), 7);
        assert_eq!(reader.cached_epoch(), 0, "not yet revalidated");
        assert_eq!(reader.current().epoch(), 7, "refresh on flip");
        assert!(Arc::ptr_eq(reader.current(), &next));
    }

    #[test]
    fn digest_distinguishes_epochs() {
        let a = EngineSnapshot::empty(Params::default());
        let b = EngineSnapshot {
            epoch: 1,
            ..EngineSnapshot::empty(Params::default())
        };
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }
}
