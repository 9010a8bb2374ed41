//! The [`ReputationEngine`]: event ingestion and matrix recomputation.
//!
//! The engine is the façade a peer (or the overlay simulator) uses:
//! feed it observations — downloads, votes, deletions, user ratings — then
//! call [`ReputationEngine::recompute`] to rebuild
//! `RM = (α·FM + β·DM + γ·UM)^n`. The computed state lives in the engine's
//! [`view`](ReputationEngine::view), an [`EngineSnapshot`] that answers
//! reputations, file verdicts, and service decisions.

use crate::audit::{AuditOutcome, Auditor};
use crate::eval::EvaluationStore;
use crate::file_trust::{ft_row, FileTrust, FileTrustOptions};
use crate::params::Params;
use crate::reputation::ReputationMatrix;
use crate::sharded::EngineEvent;
use crate::snapshot::EngineSnapshot;
use crate::user_trust::UserTrust;
use crate::volume_trust::VolumeTrust;
use mdrep_matrix::{blend_frozen, normalize_row_mut, par_chunks, CsrMatrix, UserIndex};
use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};
use mdrep_workload::{Catalog, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The one-step matrices of the last recomputation, kept for inspection and
/// experiments.
///
/// The matrices are frozen into CSR form at recompute time (normalization is
/// fused into the freeze); the incremental path patches dirty rows through
/// each matrix's overlay, which the next full rebuild compacts away.
#[derive(Debug, Clone)]
pub struct TrustComponents {
    /// File-based one-step matrix `FM` (Equation 3).
    pub fm: CsrMatrix,
    /// Download-volume one-step matrix `DM` (Equation 5).
    pub dm: CsrMatrix,
    /// User-based one-step matrix `UM` (Equation 6).
    pub um: CsrMatrix,
    /// The blended one-step matrix `TM` (Equation 7).
    pub tm: CsrMatrix,
}

/// How a [`ReputationEngine::recompute`] call actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecomputeMode {
    /// Batch rebuild of every matrix (first recompute, incremental path
    /// disabled, or an explicit [`ReputationEngine::full_rebuild`]).
    Full,
    /// Only the dirty rows were rebuilt, renormalized, and re-blended.
    Incremental,
    /// The dirty fraction exceeded
    /// [`Params::incremental_threshold`](crate::Params::incremental_threshold),
    /// so the engine fell back to a batch rebuild.
    FallbackFull,
}

/// The multi-dimensional reputation engine (see crate docs for the model).
///
/// # Incremental recompute
///
/// Every `observe_*` entry point records which matrix rows it invalidated:
/// an event on file `f` dirties the `FM` rows of *all* current evaluators
/// of `f` (any pair among them can change), the actor's `DM` row, and — for
/// rankings — the rater's `UM` row. [`recompute`](Self::recompute) then
/// rebuilds only those rows in place, renormalizes them, re-blends the
/// affected `TM` rows, and patches `RM`, producing bit-identical results to
/// the batch path. When the dirty fraction exceeds
/// [`Params::incremental_threshold`](crate::Params::incremental_threshold)
/// it falls back to the batch rebuild automatically;
/// [`full_rebuild`](Self::full_rebuild) forces one.
///
/// # Examples
///
/// ```
/// use mdrep::{Params, ReputationEngine};
/// use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};
///
/// let mut engine = ReputationEngine::new(Params::default());
/// let (a, b) = (UserId::new(0), UserId::new(1));
/// engine.observe_download(SimTime::ZERO, a, b, FileId::new(0), FileSize::from_mib(10));
/// engine.observe_vote(SimTime::ZERO, a, FileId::new(0), Evaluation::BEST);
/// engine.recompute(SimTime::ZERO);
/// assert!(engine.view().reputation(a, b) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ReputationEngine {
    file_trust_options: FileTrustOptions,
    evals: EvaluationStore,
    volume: VolumeTrust,
    user_trust: UserTrust,
    /// Users whose `FM` row must be rebuilt. The contract every entry point
    /// upholds: whenever `FT_ij` may have changed, both `i` and `j` are in
    /// here (or reached through [`dirty_files`](Self::dirty_files)). A clean
    /// row's entry for a dirty partner is then unchanged, so rebuilding just
    /// the dirty rows with [`ft_row`] reproduces the batch `FT`.
    fm_dirty: BTreeSet<UserId>,
    /// Files whose evaluation set changed since the last recompute. Kept as
    /// files rather than expanded to evaluator rows eagerly: a popular file
    /// has many co-evaluators, and expanding once per recompute instead of
    /// once per event keeps ingestion O(log n) per event.
    dirty_files: BTreeSet<FileId>,
    /// Users whose `DM` row must be rebuilt. A `VD` row depends only on the
    /// downloader's own evaluations and download log, so events dirty
    /// single rows (plus, on a whitewash, every downloader that had the
    /// removed user as an uploader).
    dm_dirty: BTreeSet<UserId>,
    /// Users whose `UM` row must be rebuilt: raters whose ratings changed.
    um_dirty: BTreeSet<UserId>,
    /// The computed state — params, components, `RM`, punished set — as the
    /// read view every query goes through. Its `as_of` is the time of the
    /// last recompute; its epoch stays 0 until
    /// [`snapshot_at`](Self::snapshot_at) stamps a published copy.
    view: EngineSnapshot,
    last_mode: Option<RecomputeMode>,
    last_dirty_rows: usize,
    /// Rows materialized fresh by the last recompute — everything else in
    /// the next snapshot is shared structurally with the previous one.
    last_publish_rows: usize,
    /// Approximate bytes those fresh rows cost (the true marginal cost of
    /// publishing the next copy-on-write snapshot).
    last_publish_bytes: usize,
}

/// One dirty row's rebuilt slabs, produced by a shard worker of the
/// parallel dirty recompute and merged serially into the CSR overlays.
/// `fm`/`dm`/`um` are `Some` exactly when the row is dirty in that store;
/// the blended `tm` row is always rebuilt (any dirty component changes it).
/// Slabs arrive filtered and `Arc`-wrapped so the serial merge is a
/// pointer insert per row — the allocation and zero-filtering happened on
/// the worker.
struct RowPatch {
    user: UserId,
    fm: Option<Arc<mdrep_matrix::SparseVector>>,
    dm: Option<Arc<mdrep_matrix::SparseVector>>,
    um: Option<Arc<mdrep_matrix::SparseVector>>,
    tm: Arc<mdrep_matrix::SparseVector>,
}

/// A freshly built raw row as a published `FM`/`DM`/`UM` slab: normalized
/// (a zero-sum row empties) and zero-filtered, exactly as the batch freeze
/// stores it.
fn normalized_slab(mut row: mdrep_matrix::SparseVector) -> Arc<mdrep_matrix::SparseVector> {
    if !normalize_row_mut(&mut row) {
        row.clear();
    }
    row.retain(|_, v| *v != 0.0);
    Arc::new(row)
}

/// Runs `f` under the registry timer and the trace span `name`.
fn phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = mdrep_obs::global().span(name);
    let _trace = mdrep_obs::trace_span(name);
    f()
}

impl ReputationEngine {
    /// Creates an engine with default file-trust options.
    #[must_use]
    pub fn new(params: Params) -> Self {
        Self::with_options(params, FileTrustOptions::default())
    }

    /// Creates an engine with explicit file-trust options (distance metric,
    /// per-file evaluator cap).
    #[must_use]
    pub fn with_options(params: Params, file_trust_options: FileTrustOptions) -> Self {
        Self {
            file_trust_options,
            evals: EvaluationStore::new(),
            volume: VolumeTrust::new(),
            user_trust: UserTrust::new(),
            fm_dirty: BTreeSet::new(),
            dirty_files: BTreeSet::new(),
            dm_dirty: BTreeSet::new(),
            um_dirty: BTreeSet::new(),
            view: EngineSnapshot::empty(params),
            last_mode: None,
            last_dirty_rows: 0,
            last_publish_rows: 0,
            last_publish_bytes: 0,
        }
    }

    /// The engine's computed state: every read query (reputations,
    /// Equation 9, service, coverage, punishment) goes through it.
    #[must_use]
    pub fn view(&self) -> &EngineSnapshot {
        &self.view
    }

    /// The engine's parameters.
    #[must_use]
    pub fn params(&self) -> &Params {
        self.view.params()
    }

    /// Whether dirty-row bookkeeping is worth the per-event cost: with a
    /// zero threshold every recompute is a batch rebuild anyway.
    fn dirty_tracking_enabled(&self) -> bool {
        self.view.params.incremental_threshold() > 0.0
    }

    /// Notes that an evaluation change on `file` invalidated `FM` rows: all
    /// of its *current* evaluators. A pair of them can change directly
    /// (shared-file distance) or through the evaluator-cap prefix, and a
    /// pair with at least one evaluator outside this set is untouched by
    /// the event — the invariant the dirty-row rebuild relies on. The
    /// expansion to evaluator rows is deferred to
    /// [`expand_dirty_files`](Self::expand_dirty_files) at recompute time;
    /// evaluator sets only grow between recomputes (shrinking paths —
    /// expiry, whitewash — dirty the affected rows themselves), so the
    /// deferred expansion reaches every row the per-event one would have.
    fn dirty_file_coevaluators(&mut self, file: FileId) {
        self.dirty_files.insert(file);
    }

    /// Folds the deferred per-file dirt into the `FM` dirty-row set.
    fn expand_dirty_files(&mut self) {
        for file in std::mem::take(&mut self.dirty_files) {
            self.fm_dirty.extend(self.evals.evaluators_of(file));
        }
    }

    /// Records a completed download (starts the retention clock and adds
    /// download volume).
    pub fn observe_download(
        &mut self,
        time: SimTime,
        downloader: UserId,
        uploader: UserId,
        file: FileId,
        size: FileSize,
    ) {
        self.evals.record_download(time, downloader, file);
        self.volume
            .record_download(downloader, uploader, file, size);
        if self.dirty_tracking_enabled() {
            self.dm_dirty.insert(downloader);
            self.dirty_file_coevaluators(file);
        }
    }

    /// Records that `user` published `file` (publication starts a retention
    /// record too — the publisher holds the file).
    pub fn observe_publish(&mut self, time: SimTime, user: UserId, file: FileId) {
        self.evals.record_download(time, user, file);
        if self.dirty_tracking_enabled() {
            // Publication resets the retention clock, which can change the
            // user's own download-volume row too.
            self.dm_dirty.insert(user);
            self.dirty_file_coevaluators(file);
        }
    }

    /// Records an explicit vote.
    pub fn observe_vote(&mut self, time: SimTime, user: UserId, file: FileId, value: Evaluation) {
        self.evals.record_vote(time, user, file, value);
        if self.dirty_tracking_enabled() {
            self.dm_dirty.insert(user);
            self.dirty_file_coevaluators(file);
        }
    }

    /// Records a file deletion (freezes the retention clock).
    pub fn observe_delete(&mut self, time: SimTime, user: UserId, file: FileId) {
        self.evals.record_delete(time, user, file);
        if self.dirty_tracking_enabled() {
            self.dm_dirty.insert(user);
            self.dirty_file_coevaluators(file);
        }
    }

    /// Records a user-to-user rating (self-ratings are ignored).
    pub fn observe_rank(&mut self, rater: UserId, target: UserId, value: Evaluation) {
        self.user_trust.rate(rater, target, value);
        if rater != target && self.dirty_tracking_enabled() {
            self.um_dirty.insert(rater);
        }
    }

    /// Handles a whitewash: the user's entire history disappears, exactly
    /// what makes whitewashing unprofitable — the fresh identity also has
    /// zero reputation and gets stranger-level service.
    pub fn observe_whitewash(&mut self, user: UserId) {
        let tracking = self.dirty_tracking_enabled();
        if tracking {
            // Every co-evaluator of the user's files can gain a pair (cap
            // prefixes shift) or lose its pair with `user`; every FT partner
            // is one of them. The user's own row empties.
            let files: Vec<FileId> = self.evals.files_of(user).collect();
            for file in files {
                self.dirty_file_coevaluators(file);
            }
            self.fm_dirty.insert(user);
        }
        self.evals.remove_user(user);
        let downloaders = self.volume.remove_user(user);
        let raters = self.user_trust.remove_user(user);
        if tracking {
            self.dm_dirty.insert(user);
            self.dm_dirty.extend(downloaders);
            self.um_dirty.insert(user);
            self.um_dirty.extend(raters);
        }
    }

    /// Feeds one workload trace event; file sizes are resolved through the
    /// catalog (unknown files fall back to zero size, contributing no
    /// volume trust).
    pub fn observe_trace_event(&mut self, event: &TraceEvent, catalog: &Catalog) {
        if let Some(event) = EngineEvent::from_trace(event, catalog) {
            event.apply_to(self);
        }
    }

    /// Drops evaluations older than the configured interval. Returns how
    /// many records were expired.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let dropped = self.evals.expire_detailed(now, &self.view.params);
        if self.dirty_tracking_enabled() {
            for &(user, file) in &dropped {
                self.dm_dirty.insert(user);
                self.fm_dirty.insert(user);
                // The record is already gone, so this reaches exactly the
                // *remaining* evaluators whose pairs with `user` must drop.
                self.dirty_file_coevaluators(file);
            }
        }
        dropped.len()
    }

    /// Rebuilds `FM`, `DM`, `UM`, `TM`, and `RM` from the observations —
    /// incrementally when the dirty-row fraction is below
    /// [`Params::incremental_threshold`](crate::Params::incremental_threshold),
    /// batch otherwise. Both paths produce bit-identical matrices.
    ///
    /// Each phase reports its wall time to the global [`mdrep_obs`]
    /// registry under `engine.recompute.*`, along with `engine.*.nnz` /
    /// `engine.tm.density` gauges, the `engine.recompute.dirty_rows` gauge,
    /// and an `engine.recompute.mode.*` counter recording which path ran.
    pub fn recompute(&mut self, now: SimTime) {
        self.recompute_inner(now, false);
    }

    /// Forces a batch rebuild of every matrix, regardless of dirty state —
    /// the escape hatch (and the reference the equivalence tests compare
    /// the incremental path against).
    pub fn full_rebuild(&mut self, now: SimTime) {
        self.recompute_inner(now, true);
    }

    fn recompute_inner(&mut self, now: SimTime, force_full: bool) {
        let obs = mdrep_obs::global();
        let _total = obs.span("engine.recompute.total");
        // Per-epoch causal root: every phase below traces as a child, so a
        // stalled epoch can be blamed on its slowest phase in the exported
        // span tree.
        let mut epoch = mdrep_obs::trace_span("engine.recompute.epoch");
        obs.counter_inc("engine.recompute.count");

        let mode = {
            let _trace = mdrep_obs::trace_span("engine.recompute.dirty_expand");
            self.plan_mode(now, force_full)
        };
        self.last_dirty_rows = self.pending_dirty_rows();
        obs.gauge_set("engine.recompute.dirty_rows", self.last_dirty_rows as f64);
        epoch.annotate(
            "mode",
            match mode {
                RecomputeMode::Full => "full",
                RecomputeMode::Incremental => "incremental",
                RecomputeMode::FallbackFull => "fallback_full",
            },
        );
        epoch.annotate("dirty_rows", self.last_dirty_rows.to_string());
        epoch.annotate("sim_time_ticks", now.as_ticks().to_string());
        match mode {
            RecomputeMode::Incremental => self.rebuild_incremental(now),
            RecomputeMode::Full | RecomputeMode::FallbackFull => self.rebuild_full(now),
        }
        obs.counter_inc(match mode {
            RecomputeMode::Full => "engine.recompute.mode.full",
            RecomputeMode::Incremental => "engine.recompute.mode.incremental",
            RecomputeMode::FallbackFull => "engine.recompute.mode.fallback",
        });
        self.view.as_of = now;
        self.last_mode = Some(mode);
    }

    /// Decides the recompute mode and, when the clock moved, folds the
    /// time-drift dirt in: users whose implicit evaluations were still
    /// ramping at the previous recompute have changed rows even without new
    /// events, so they (and their co-evaluators) join the dirty sets.
    fn plan_mode(&mut self, now: SimTime, force_full: bool) -> RecomputeMode {
        let threshold = self.view.params.incremental_threshold();
        if force_full
            || threshold <= 0.0
            || self.view.components.is_none()
            || self.view.rm.is_none()
        {
            return RecomputeMode::Full;
        }
        self.expand_dirty_files();
        let total = self
            .evals
            .user_count()
            .max(self.volume.row_count())
            .max(self.user_trust.row_count())
            .max(1);
        // The dirty-row union can span users from all three stores, so at
        // threshold 1.0 the budget is unbounded: incremental always wins.
        let budget = if threshold >= 1.0 {
            f64::INFINITY
        } else {
            threshold * total as f64
        };
        // A prior recompute exists (components are set), so the view's
        // `as_of` is its time.
        let last = self.view.as_of;
        if now != last {
            let drifting = self
                .evals
                .users_with_unsaturated_records(last, self.view.params.retention_saturation());
            if drifting.len() as f64 > budget {
                // Don't pay for the co-evaluator expansion when the
                // drifting users alone already bust the budget.
                return RecomputeMode::FallbackFull;
            }
            for user in drifting {
                self.dm_dirty.insert(user);
                self.fm_dirty.insert(user);
                let files: Vec<FileId> = self.evals.files_of(user).collect();
                for file in files {
                    self.dirty_file_coevaluators(file);
                }
            }
        }
        if self.pending_dirty_rows() as f64 > budget {
            RecomputeMode::FallbackFull
        } else {
            RecomputeMode::Incremental
        }
    }

    /// The batch path: rebuild every matrix from the stores (rows built and
    /// blended across [`Params::threads`](crate::Params::threads) workers)
    /// and clear all dirty state.
    fn rebuild_full(&mut self, now: SimTime) {
        let threads = self.view.params.effective_threads();
        self.dirty_files.clear();
        self.fm_dirty.clear();
        self.dm_dirty.clear();
        self.um_dirty.clear();
        // Build the raw matrices first, then freeze all three under one
        // shared interner so the blend and power kernels can assume a
        // common dense column space. Row normalization (Eqs. 3/5/6) is
        // fused into the freeze pass. A matrix's raw build and its freeze
        // are both timed under that matrix's phase span.
        let ft = phase("engine.recompute.fm_build", || {
            FileTrust::compute_with(&self.evals, now, &self.view.params, self.file_trust_options)
        });
        let dm_raw = phase("engine.recompute.dm_build", || {
            self.volume
                .raw_parallel(&self.evals, now, &self.view.params, threads)
        });
        let um_raw = phase("engine.recompute.um_build", || self.user_trust.raw());
        let index = Arc::new(UserIndex::from_matrices(&[ft.raw(), &dm_raw, &um_raw]));
        let fm = phase("engine.recompute.fm_build", || {
            CsrMatrix::freeze_normalized_sharded(&index, ft.raw(), threads)
        });
        let dm = phase("engine.recompute.dm_build", || {
            CsrMatrix::freeze_normalized_sharded(&index, &dm_raw, threads)
        });
        let um = phase("engine.recompute.um_build", || {
            CsrMatrix::freeze_normalized_sharded(&index, &um_raw, threads)
        });
        let w = self.view.params.weights();
        let tm = phase("engine.recompute.integrate", || {
            blend_frozen(
                &[(w.alpha(), &fm), (w.beta(), &dm), (w.gamma(), &um)],
                threads,
            )
            .expect("validated weights form a convex combination")
        });
        let rm = ReputationMatrix::compute_csr(tm.clone(), &self.view.params);
        Self::record_matrix_gauges(&tm, &rm);
        // A batch rebuild materializes every matrix from scratch: the next
        // snapshot shares nothing with the previous one.
        self.last_publish_rows = index.len();
        self.last_publish_bytes = fm.storage_bytes()
            + dm.storage_bytes()
            + um.storage_bytes()
            + tm.storage_bytes()
            + rm.approx_bytes();
        self.view.rm = Some(rm);
        self.view.components = Some(TrustComponents { fm, dm, um, tm });
    }

    /// The dirty-row path: recompute only invalidated rows in place. Every
    /// per-row computation (Equation 2 rows, volume sums, normalization,
    /// blending) goes through the same helpers as the batch path, in the
    /// same order, so the patched matrices are bit-identical to a rebuild.
    ///
    /// The row work is **row-parallel**: the sorted dirty-row union fans
    /// out through [`par_chunks`] into contiguous chunks, and each chunk's
    /// `FM`/`DM`/`UM` rows *and* its blended `TM` rows are rebuilt by one
    /// worker in a single pass. Rows are pure per-row functions of the
    /// (immutable during the pass) stores, and the chunking depends only
    /// on the union and [`Params::threads`](crate::Params::threads) — so
    /// the merged result is bit-identical to the serial loop at any
    /// thread count.
    fn rebuild_incremental(&mut self, now: SimTime) {
        let threads = self.view.params.effective_threads();
        let mut comps = self
            .view
            .components
            .take()
            .expect("incremental mode requires prior components");
        let mut rm = self
            .view
            .rm
            .take()
            .expect("incremental mode requires a prior RM");

        // The three dirty sets, each ascending.
        let fm_dirty: Vec<UserId> = std::mem::take(&mut self.fm_dirty).into_iter().collect();
        let dm_dirty: Vec<UserId> = std::mem::take(&mut self.dm_dirty).into_iter().collect();
        let um_dirty: Vec<UserId> = std::mem::take(&mut self.um_dirty).into_iter().collect();

        let mut union: Vec<UserId> =
            Vec::with_capacity(fm_dirty.len() + dm_dirty.len() + um_dirty.len());
        union.extend_from_slice(&fm_dirty);
        union.extend_from_slice(&dm_dirty);
        union.extend_from_slice(&um_dirty);
        union.sort_unstable();
        union.dedup();

        // Parallel, pure: rebuild every dirty row (and its blend) without
        // touching the matrices. Workers own contiguous id ranges of the
        // union; each consults the per-matrix dirty sets by binary search
        // and reads undirtied component rows straight from the frozen
        // matrices — exactly what the serial path would have read, because
        // a row absent from a dirty set is never patched.
        let patches: Vec<Vec<RowPatch>> = phase("engine.recompute.integrate", || {
            let w = self.view.params.weights();
            let (volume, user_trust, evals, params, ft_options) = (
                &self.volume,
                &self.user_trust,
                &self.evals,
                &self.view.params,
                self.file_trust_options,
            );
            par_chunks(&union, threads, |rows| {
                rows.iter()
                    .map(|&u| {
                        let fm = fm_dirty
                            .binary_search(&u)
                            .is_ok()
                            .then(|| normalized_slab(ft_row(evals, u, now, params, ft_options)));
                        let dm = dm_dirty
                            .binary_search(&u)
                            .is_ok()
                            .then(|| normalized_slab(volume.vd_row(u, evals, now, params)));
                        let um = um_dirty
                            .binary_search(&u)
                            .is_ok()
                            .then(|| normalized_slab(user_trust.ut_row(u)));
                        // The Equation 7 blend over the *fresh* rows where
                        // dirty and the frozen rows where not — the rows
                        // the matrices hold after the merge, accumulated
                        // in `blend_frozen`'s part order.
                        let mut tm = mdrep_matrix::SparseVector::new();
                        for (weight, fresh, frozen) in [
                            (w.alpha(), &fm, &comps.fm),
                            (w.beta(), &dm, &comps.dm),
                            (w.gamma(), &um, &comps.um),
                        ] {
                            if weight == 0.0 {
                                continue;
                            }
                            match fresh {
                                Some(row) => {
                                    for (&c, &v) in row.iter() {
                                        *tm.entry(c).or_insert(0.0) += weight * v;
                                    }
                                }
                                None => {
                                    for (c, v) in frozen.row_entries(u) {
                                        *tm.entry(c).or_insert(0.0) += weight * v;
                                    }
                                }
                            }
                        }
                        tm.retain(|_, v| *v != 0.0);
                        RowPatch {
                            user: u,
                            fm,
                            dm,
                            um,
                            tm: Arc::new(tm),
                        }
                    })
                    .collect::<Vec<_>>()
            })
        });

        // Serial merge: fold the prebuilt slabs into the CSR overlays in
        // ascending id order, tallying the copy-on-write publish cost (only
        // these slabs are new bytes in the next snapshot; everything else
        // is shared).
        let one_step = self.view.params.steps() == 1;
        let publish_bytes = phase("engine.recompute.merge", || {
            let mut publish_bytes = 0usize;
            for patch in patches.into_iter().flatten() {
                let u = patch.user;
                if let Some(row) = patch.fm {
                    publish_bytes += mdrep_matrix::approx_row_bytes(row.len());
                    comps.fm.set_row_arc(u, row);
                }
                if let Some(row) = patch.dm {
                    publish_bytes += mdrep_matrix::approx_row_bytes(row.len());
                    comps.dm.set_row_arc(u, row);
                }
                if let Some(row) = patch.um {
                    publish_bytes += mdrep_matrix::approx_row_bytes(row.len());
                    comps.um.set_row_arc(u, row);
                }
                // One slab serves both matrices on the one-step path
                // (overlay rows are immutable), so it is priced once.
                publish_bytes += mdrep_matrix::approx_row_bytes(patch.tm.len());
                if one_step {
                    // RM = TM: patch both from the same blended slab.
                    comps.tm.set_row_arc(u, Arc::clone(&patch.tm));
                    rm.set_one_step_row_arc(u, patch.tm);
                } else {
                    comps.tm.set_row_arc(u, patch.tm);
                }
            }
            if !one_step {
                // The power dominates the cost anyway; recompute it from the
                // incrementally maintained TM (compacted inside
                // `compute_csr` before the SpGEMM steps). The rebuilt RM is
                // fresh storage.
                rm = ReputationMatrix::compute_csr(comps.tm.clone(), &self.view.params);
                publish_bytes += rm.approx_bytes();
            }
            publish_bytes
        });
        self.last_publish_rows = union.len();
        self.last_publish_bytes = publish_bytes;
        Self::record_matrix_gauges(&comps.tm, &rm);
        self.view.rm = Some(rm);
        self.view.components = Some(comps);
    }

    /// The `engine.tm.*` / `engine.rm.nnz` gauges. Each count walks the
    /// matrices' overlays, which grow until the next full freeze, so this
    /// is skipped outright when the registry is off.
    fn record_matrix_gauges(tm: &CsrMatrix, rm: &ReputationMatrix) {
        let obs = mdrep_obs::global();
        if !obs.is_enabled() {
            return;
        }
        let rows = tm.row_count();
        obs.gauge_set("engine.tm.nnz", tm.nnz() as f64);
        if rows > 0 {
            obs.gauge_set("engine.tm.density", tm.nnz() as f64 / (rows * rows) as f64);
        }
        obs.gauge_set("engine.rm.nnz", rm.matrix().nnz() as f64);
    }

    /// How the last [`recompute`](Self::recompute) ran; `None` before the
    /// first one.
    #[must_use]
    pub fn last_recompute_mode(&self) -> Option<RecomputeMode> {
        self.last_mode
    }

    /// How many rows the last recompute treated as dirty (the union across
    /// the `FM`, `DM`, and `UM` dirty sets, including time drift).
    #[must_use]
    pub fn last_dirty_rows(&self) -> usize {
        self.last_dirty_rows
    }

    /// Rows the last recompute materialized fresh — the only slabs the
    /// next copy-on-write snapshot cannot share with its predecessor. A
    /// batch rebuild reports every interned row; the incremental path
    /// reports the dirty union.
    #[must_use]
    pub fn last_publish_rows(&self) -> usize {
        self.last_publish_rows
    }

    /// Approximate bytes of those freshly materialized slabs (plus the
    /// rebuilt `RM` storage when `steps > 1`) — the marginal memory cost
    /// of publishing the next snapshot.
    #[must_use]
    pub fn last_publish_bytes(&self) -> usize {
        self.last_publish_bytes
    }

    /// Rows currently marked dirty and awaiting the next recompute: the
    /// union across the three dirty sets plus the co-evaluators of files
    /// touched since the last recompute (time drift not yet folded in).
    #[must_use]
    pub fn pending_dirty_rows(&self) -> usize {
        let mut union: BTreeSet<UserId> = self.fm_dirty.clone();
        union.extend(&self.dm_dirty);
        union.extend(&self.um_dirty);
        for &file in &self.dirty_files {
            union.extend(self.evals.evaluators_of(file));
        }
        union.len()
    }

    /// Marks `user` as punished (caught forging evaluations, Section 4.2
    /// attack 3): through the [`view`](Self::view) its reputation reads as
    /// zero everywhere, its published evaluations stop counting in
    /// Equation 9, and it gets stranger service. The underlying
    /// observations are kept so a [`pardon`](Self::pardon) can restore the
    /// user.
    pub fn mark_punished(&mut self, user: UserId) {
        self.view.punished.insert(user);
    }

    /// Lifts a punishment.
    pub fn pardon(&mut self, user: UserId) {
        self.view.punished.remove(&user);
    }

    /// Runs one proactive audit of `user`'s published evaluations through
    /// `auditor` and applies the punishment automatically when forgery is
    /// detected. Returns the audit outcome.
    pub fn audit_user(
        &mut self,
        auditor: &mut Auditor,
        user: UserId,
        now: SimTime,
    ) -> AuditOutcome {
        let published = self.published_evaluations(user, now);
        let outcome = auditor.audit(now, user, &published);
        if outcome.is_forged() {
            self.mark_punished(user);
        }
        outcome
    }

    /// The full reputation matrix, if computed.
    #[must_use]
    pub fn reputation_matrix(&self) -> Option<&ReputationMatrix> {
        self.view.reputation_matrix()
    }

    /// The one-step matrices of the last recomputation, if any.
    #[must_use]
    pub fn components(&self) -> Option<&TrustComponents> {
        self.view.components()
    }

    /// The evaluations `user` would publish to the DHT at `now` (Fig. 2
    /// step 1) — also the input the auditor re-examines.
    #[must_use]
    pub fn published_evaluations(
        &self,
        user: UserId,
        now: SimTime,
    ) -> BTreeMap<FileId, Evaluation> {
        self.evals.evaluations_of(user, now, &self.view.params)
    }

    /// Read access to the evaluation store (for experiments).
    #[must_use]
    pub fn evaluations(&self) -> &EvaluationStore {
        &self.evals
    }

    /// The [`view`](Self::view) stamped with `epoch` and `as_of` — the
    /// publication unit of the sharded epoch-snapshot architecture.
    ///
    /// Cheap: the frozen CSR arrays are copy-on-write (`Arc`-shared), so
    /// the clone costs only the overlay pointer maps and the punished set —
    /// `O(dirty rows)`, not `O(nnz)`.
    #[must_use]
    pub fn snapshot_at(&self, epoch: u64, as_of: SimTime) -> EngineSnapshot {
        EngineSnapshot {
            epoch,
            as_of,
            ..self.view.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_reputation::{DownloadDecision, OwnerEvaluation};
    use crate::incentive::ServicePolicy;
    use mdrep_types::SimDuration;
    use mdrep_workload::{BehaviorMix, TraceBuilder, WorkloadConfig};

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    #[test]
    fn fresh_engine_answers_conservatively() {
        let engine = ReputationEngine::new(Params::default());
        assert_eq!(engine.view().reputation(u(0), u(1)), 0.0);
        assert!(engine.reputation_matrix().is_none());
        assert!(engine.components().is_none());
        assert_eq!(
            engine.view().decide_download(u(0), &[]),
            DownloadDecision::Unknown
        );
        let svc = engine.view().service(u(0), u(1), &ServicePolicy::default());
        assert!(svc.is_throttled());
        assert_eq!(engine.view().request_coverage(&[(u(0), u(1))]), 0.0);
    }

    #[test]
    fn download_and_vote_build_reputation() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_download(SimTime::ZERO, u(0), u(1), f(0), FileSize::from_mib(100));
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(
            engine.view().reputation(u(0), u(1)) > 0.0,
            "volume trust edge"
        );
    }

    #[test]
    fn shared_votes_build_file_trust_both_ways() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.view().reputation(u(0), u(1)) > 0.0);
        assert!(engine.view().reputation(u(1), u(0)) > 0.0);
    }

    #[test]
    fn ranking_builds_user_trust() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.view().reputation(u(0), u(1)) > 0.0);
        // γ = 0.2 and UM_01 = 1 → TM_01 = 0.2.
        assert!((engine.view().reputation(u(0), u(1)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn components_are_exposed_and_stochastic() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        let c = engine.components().unwrap();
        assert!(c.fm.is_row_stochastic(1e-9));
        assert!(c.um.is_row_stochastic(1e-9));
        // TM rows sum to at most 1 (a dimension can be empty for a user).
        for r in c.tm.row_ids() {
            assert!(c.tm.row_sum(r) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn whitewash_erases_reputation() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_download(SimTime::ZERO, u(0), u(1), f(0), FileSize::from_mib(100));
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.view().reputation(u(0), u(1)) > 0.0);

        engine.observe_whitewash(u(1));
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.view().reputation(u(0), u(1)), 0.0);
    }

    #[test]
    fn file_reputation_through_engine() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        let evals = [OwnerEvaluation::new(u(1), Evaluation::WORST)];
        let r = engine.view().file_reputation(u(0), &evals).unwrap();
        assert_eq!(r, Evaluation::WORST);
        assert!(!engine.view().decide_download(u(0), &evals).is_accept());
    }

    #[test]
    fn service_differentiation_through_engine() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(1), u(0), Evaluation::BEST); // uploader 1 trusts 0
        engine.recompute(SimTime::ZERO);
        let policy = ServicePolicy::default();
        let friend = engine.view().service(u(1), u(0), &policy);
        let stranger = engine.view().service(u(1), u(9), &policy);
        assert!(friend.queue_offset > stranger.queue_offset);
        assert!(!friend.is_throttled());
        assert!(stranger.is_throttled());
    }

    #[test]
    fn expire_forgets_old_records() {
        let params = Params::builder()
            .evaluation_interval(SimDuration::from_days(2))
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        let later = SimTime::ZERO + SimDuration::from_days(5);
        assert_eq!(engine.expire(later), 2);
        engine.recompute(later);
        assert_eq!(engine.view().reputation(u(0), u(1)), 0.0);
    }

    #[test]
    fn consumes_whole_workload_traces() {
        let config = WorkloadConfig::builder()
            .users(40)
            .titles(50)
            .days(2)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.3)
            .seed(5)
            .build()
            .unwrap();
        let trace = TraceBuilder::new(config).generate();
        let mut engine = ReputationEngine::new(Params::default());
        for event in trace.events() {
            engine.observe_trace_event(event, trace.catalog());
        }
        let end = SimTime::ZERO + SimDuration::from_days(2);
        engine.recompute(end);
        let coverage = engine.view().request_coverage(&trace.request_pairs());
        assert!(coverage > 0.0, "some requests must be covered");
        // Published evaluations exist for active users.
        let some_user = trace.population().iter().next().unwrap().id();
        let _ = engine.published_evaluations(some_user, end);
    }

    #[test]
    fn punished_users_lose_reputation_and_voice() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert!(engine.view().reputation(u(0), u(1)) > 0.0);
        let evals = [OwnerEvaluation::new(u(1), Evaluation::BEST)];
        assert!(engine.view().file_reputation(u(0), &evals).is_some());

        engine.mark_punished(u(1));
        assert!(engine.view().is_punished(u(1)));
        assert_eq!(
            engine.view().reputation(u(0), u(1)),
            0.0,
            "reputation zeroed"
        );
        assert!(
            engine.view().file_reputation(u(0), &evals).is_none(),
            "evaluations discarded"
        );
        assert_eq!(
            engine.view().decide_download(u(0), &evals),
            DownloadDecision::Unknown
        );

        engine.pardon(u(1));
        assert!(!engine.view().is_punished(u(1)));
        assert!(
            engine.view().reputation(u(0), u(1)) > 0.0,
            "pardon restores"
        );
    }

    #[test]
    fn audit_user_punishes_forgery_automatically() {
        use crate::audit::Auditor;
        let mut engine = ReputationEngine::new(Params::default());
        let mut auditor = Auditor::new(0.3);
        // User 1 has a genuine evaluation history.
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(1), Evaluation::BEST);

        // Baseline examination.
        let outcome = engine.audit_user(&mut auditor, u(1), SimTime::ZERO);
        assert!(!outcome.is_forged());
        assert!(!engine.view().is_punished(u(1)));

        // The user swaps its list (re-votes everything inverted).
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::WORST);
        engine.observe_vote(SimTime::ZERO, u(1), f(1), Evaluation::WORST);
        let outcome = engine.audit_user(&mut auditor, u(1), SimTime::ZERO);
        assert!(outcome.is_forged());
        assert!(
            engine.view().is_punished(u(1)),
            "forgery leads to punishment"
        );
    }

    #[test]
    fn tiered_service_prefers_closer_tiers() {
        // Chain 0 → 1 → 2 with two multi-trust steps.
        let params = Params::builder().steps(2).build().unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.observe_rank(u(1), u(2), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        let policy = ServicePolicy::default();
        let tier1 = engine.view().service_tiered(u(0), u(1), &policy);
        let tier2 = engine.view().service_tiered(u(0), u(2), &policy);
        let stranger = engine.view().service_tiered(u(0), u(9), &policy);
        assert!(tier1.queue_offset > tier2.queue_offset);
        assert!(tier2.queue_offset >= stranger.queue_offset);
        assert!(stranger.is_throttled());

        // Punished requesters fall to stranger level regardless of tier.
        engine.mark_punished(u(1));
        let punished = engine.view().service_tiered(u(0), u(1), &policy);
        assert_eq!(punished.queue_offset, stranger.queue_offset);
    }

    /// Asserts the two engines expose bit-identical matrices.
    fn assert_engines_match(incremental: &ReputationEngine, full: &ReputationEngine) {
        let ci = incremental.components().expect("recomputed");
        let cf = full.components().expect("recomputed");
        assert_eq!(ci.fm, cf.fm, "FM diverged");
        assert_eq!(ci.dm, cf.dm, "DM diverged");
        assert_eq!(ci.um, cf.um, "UM diverged");
        assert_eq!(ci.tm, cf.tm, "TM diverged");
        assert_eq!(
            incremental.reputation_matrix().unwrap().matrix(),
            full.reputation_matrix().unwrap().matrix(),
            "RM diverged"
        );
    }

    #[test]
    fn incremental_recompute_matches_full_rebuild_on_trace() {
        let config = WorkloadConfig::builder()
            .users(60)
            .titles(40)
            .days(3)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.2)
            .seed(11)
            .build()
            .unwrap();
        let trace = TraceBuilder::new(config).generate();
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        let events: Vec<_> = trace.events().to_vec();

        // Interleave recomputes with ingestion: first one is Full, the
        // rest run incrementally (threshold 1.0 never falls back).
        let end = SimTime::ZERO + SimDuration::from_days(3);
        for (idx, chunk) in events.chunks(events.len() / 4 + 1).enumerate() {
            for event in chunk {
                engine.observe_trace_event(event, trace.catalog());
            }
            let at = chunk.last().map_or(end, |e| e.time);
            engine.recompute(at);
            let expected = if idx == 0 {
                RecomputeMode::Full
            } else {
                RecomputeMode::Incremental
            };
            assert_eq!(engine.last_recompute_mode(), Some(expected), "chunk {idx}");
        }
        engine.recompute(end);

        let mut reference = engine.clone();
        reference.full_rebuild(end);
        assert_eq!(reference.last_recompute_mode(), Some(RecomputeMode::Full));
        assert_engines_match(&engine, &reference);
    }

    #[test]
    fn incremental_handles_whitewash_and_expiry() {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .evaluation_interval(SimDuration::from_days(4))
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        for i in 0..6 {
            engine.observe_vote(SimTime::ZERO, u(i), f(i % 3), Evaluation::new(0.8).unwrap());
            engine.observe_download(
                SimTime::ZERO,
                u(i),
                u((i + 1) % 6),
                f(i % 3),
                FileSize::from_mib(50),
            );
        }
        engine.recompute(SimTime::ZERO);

        let day2 = SimTime::ZERO + SimDuration::from_days(2);
        engine.observe_vote(day2, u(0), f(0), Evaluation::WORST);
        engine.observe_whitewash(u(3));
        engine.recompute(day2);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );

        let day6 = SimTime::ZERO + SimDuration::from_days(6);
        assert!(engine.expire(day6) > 0, "old records expire");
        engine.recompute(day6);

        let mut reference = engine.clone();
        reference.full_rebuild(day6);
        assert_engines_match(&engine, &reference);
    }

    #[test]
    fn dirty_fraction_triggers_fallback() {
        let params = Params::builder()
            .incremental_threshold(0.05)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        for i in 0..20 {
            engine.observe_rank(u(i), u((i + 1) % 20), Evaluation::BEST);
        }
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.last_recompute_mode(), Some(RecomputeMode::Full));

        // One dirty row out of 20 stays under the 5% threshold.
        engine.observe_rank(u(0), u(5), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );
        assert_eq!(engine.last_dirty_rows(), 1);

        // Ten dirty rows bust it → automatic fallback to batch.
        for i in 0..10 {
            engine.observe_rank(u(i), u(15), Evaluation::new(0.7).unwrap());
        }
        engine.recompute(SimTime::ZERO);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::FallbackFull)
        );
        assert_eq!(engine.last_dirty_rows(), 10);
    }

    #[test]
    fn zero_threshold_disables_incremental_path() {
        let params = Params::builder()
            .incremental_threshold(0.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_rank(u(0), u(1), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        engine.observe_rank(u(1), u(0), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.last_recompute_mode(), Some(RecomputeMode::Full));
    }

    #[test]
    fn events_dirty_coevaluator_rows() {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::BEST);
        engine.observe_vote(SimTime::ZERO, u(2), f(9), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.pending_dirty_rows(), 0, "recompute drains dirt");

        // User 1 re-votes file 0: its own row AND co-evaluator 0's row are
        // invalidated — but not user 2, who shares no file. The expansion
        // from file to evaluator rows is deferred until recompute.
        engine.observe_vote(SimTime::ZERO, u(1), f(0), Evaluation::WORST);
        assert!(engine.fm_dirty.is_empty(), "deferred");
        assert_eq!(engine.pending_dirty_rows(), 2);
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.last_dirty_rows(), 2);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );
    }

    #[test]
    fn time_drift_dirties_unsaturated_users() {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        let day2 = SimTime::ZERO + SimDuration::from_days(2);
        engine.observe_download(SimTime::ZERO, u(0), u(1), f(0), FileSize::from_mib(80));
        engine.observe_download(day2, u(0), u(2), f(1), FileSize::from_mib(80));
        engine.recompute(day2);
        // The day-2 record has zero retention so far: all trust goes to u(1).
        let r0 = engine.view().reputation(u(0), u(1));
        assert!(r0 > 0.0);

        // A day later, with zero new events, the younger record has accrued
        // retention: the incremental recompute must pick the drift up anyway.
        let day3 = SimTime::ZERO + SimDuration::from_days(3);
        engine.recompute(day3);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );
        assert!(engine.last_dirty_rows() >= 1);
        assert!(
            engine.view().reputation(u(0), u(1)) < r0,
            "u(2)'s share grows, diluting u(1)"
        );
        assert!(engine.view().reputation(u(0), u(2)) > 0.0);
        let mut reference = engine.clone();
        reference.full_rebuild(day3);
        assert_engines_match(&engine, &reference);
    }

    #[test]
    fn drift_coevaluators_are_rebuilt_same_recompute() {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);

        // u1 & u3 share f1; u1 also holds f0. All start at t=0 (saturate day 7).
        engine.observe_download(SimTime::ZERO, u(1), u(9), f(1), FileSize::from_mib(50));
        engine.observe_download(SimTime::ZERO, u(3), u(9), f(1), FileSize::from_mib(50));
        engine.observe_download(SimTime::ZERO, u(1), u(9), f(0), FileSize::from_mib(50));
        engine.recompute(SimTime::ZERO);

        // u0 joins f0 at day 6 → unsaturated until day 13.
        let day6 = SimTime::ZERO + SimDuration::from_days(6);
        engine.observe_download(day6, u(0), u(9), f(0), FileSize::from_mib(50));
        let day8 = SimTime::ZERO + SimDuration::from_days(8);
        engine.recompute(day8);

        // Drift-only recompute at day 10: u0 drifts, u1/u3 clean.
        let day10 = SimTime::ZERO + SimDuration::from_days(10);
        engine.recompute(day10);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );

        let mut reference = engine.clone();
        reference.full_rebuild(day10);
        assert_engines_match(&engine, &reference);
    }

    #[test]
    fn dirty_tracking_follows_events() {
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .unwrap();
        let mut engine = ReputationEngine::new(params);
        engine.observe_download(SimTime::ZERO, u(0), u(1), f(0), FileSize::from_mib(10));
        engine.observe_download(SimTime::ZERO, u(2), u(1), f(1), FileSize::from_mib(10));
        engine.observe_rank(u(3), u(1), Evaluation::BEST);
        engine.observe_rank(u(4), u(5), Evaluation::BEST);
        engine.recompute(SimTime::ZERO);
        assert_eq!(engine.pending_dirty_rows(), 0, "recompute drains dirt");

        engine.observe_rank(u(4), u(1), Evaluation::new(0.6).unwrap());
        assert_eq!(engine.pending_dirty_rows(), 1, "the rater's UM row");
        engine.observe_rank(u(6), u(6), Evaluation::BEST);
        assert_eq!(engine.pending_dirty_rows(), 1, "a self-rating is ignored");

        // The whitewash dirties user 1, its downloaders 0 and 2, and its
        // raters 3 and 4.
        engine.observe_whitewash(u(1));
        assert_eq!(engine.pending_dirty_rows(), 5);
        engine.recompute(SimTime::ZERO);
        assert_eq!(
            engine.last_recompute_mode(),
            Some(RecomputeMode::Incremental)
        );
        assert_eq!(engine.last_dirty_rows(), 5);
        assert_eq!(engine.view().reputation(u(0), u(1)), 0.0);
        assert_eq!(engine.view().reputation(u(3), u(1)), 0.0);

        let mut reference = engine.clone();
        reference.full_rebuild(SimTime::ZERO);
        assert_engines_match(&engine, &reference);
    }

    #[test]
    fn publish_event_starts_retention() {
        let mut engine = ReputationEngine::new(Params::default());
        engine.observe_publish(SimTime::ZERO, u(0), f(0));
        let week = SimTime::ZERO + SimDuration::from_days(7);
        let evals = engine.published_evaluations(u(0), week);
        assert_eq!(evals.get(&f(0)), Some(&Evaluation::BEST));
    }
}
