//! Download-volume-based direct trust: Equations 4 and 5.
//!
//! "If a user downloads some real file from another user, it means he can
//! trust this user" — so the *valid download volume*
//! `VD_ij = Σ_{k∈D_ij} E_ik·S_k` (Equation 4) weighs every file `i`
//! downloaded from `j` by its size and by `i`'s own evaluation of it (a
//! fake download contributes nothing because `E_ik ≈ 0`). Row-normalizing
//! gives the one-step matrix `DM` (Equation 5).

use crate::eval::EvaluationStore;
use crate::params::Params;
use mdrep_matrix::{par_chunks, SparseMatrix, SparseVector};
use mdrep_types::{FileId, FileSize, SimTime, UserId};
use std::collections::BTreeMap;

/// Accumulates download records and computes `VD`/`DM`.
///
/// # Examples
///
/// ```
/// use mdrep::{EvaluationStore, Params, VolumeTrust};
/// use mdrep_types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
///
/// let params = Params::default();
/// let mut evals = EvaluationStore::new();
/// let mut volume = VolumeTrust::new();
/// let (a, b, f) = (UserId::new(0), UserId::new(1), FileId::new(0));
///
/// evals.record_download(SimTime::ZERO, a, f);
/// volume.record_download(a, b, f, FileSize::from_mib(100));
///
/// // After a week of retention the evaluation saturates at 1,
/// // so VD_ab = 1.0 · 100 MiB.
/// let week = SimTime::ZERO + SimDuration::from_days(7);
/// let vd = volume.raw_parallel(&evals, week, &params, 1);
/// assert!((vd.get(a, b) - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VolumeTrust {
    /// `downloader → uploader → [(file, size)]`, row-major so a single
    /// downloader's `VD` row can be rebuilt without touching the rest.
    downloads: BTreeMap<UserId, BTreeMap<UserId, Vec<(FileId, FileSize)>>>,
}

impl VolumeTrust {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `downloader` fetched `file` (of `size`) from `uploader`.
    pub fn record_download(
        &mut self,
        downloader: UserId,
        uploader: UserId,
        file: FileId,
        size: FileSize,
    ) {
        self.downloads
            .entry(downloader)
            .or_default()
            .entry(uploader)
            .or_default()
            .push((file, size));
    }

    /// Forgets everything involving `user` (whitewash handling). Returns
    /// the downloaders that had `user` as an uploader (ascending) — besides
    /// `user`'s own, the only `VD` rows the removal changes.
    pub fn remove_user(&mut self, user: UserId) -> Vec<UserId> {
        self.downloads.remove(&user);
        let mut changed = Vec::new();
        for (&downloader, uploads) in &mut self.downloads {
            if uploads.remove(&user).is_some() {
                changed.push(downloader);
            }
        }
        self.downloads.retain(|_, uploads| !uploads.is_empty());
        changed
    }

    /// Number of recorded download edges (distinct user pairs).
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.downloads.values().map(BTreeMap::len).sum()
    }

    /// Number of downloaders with at least one recorded download.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.downloads.len()
    }

    /// One row of Equation 4: `downloader`'s valid download volume per
    /// uploader at `now`. Shared by the batch and dirty-row paths so both
    /// accumulate in the same order (uploaders ascending, files in download
    /// order) and produce bit-identical rows.
    #[must_use]
    pub fn vd_row(
        &self,
        downloader: UserId,
        evals: &EvaluationStore,
        now: SimTime,
        params: &Params,
    ) -> SparseVector {
        let mut row = SparseVector::new();
        if let Some(uploads) = self.downloads.get(&downloader) {
            for (&uploader, files) in uploads {
                let mut volume = 0.0;
                for &(file, size) in files {
                    if let Some(e) = evals.evaluation(downloader, file, now, params) {
                        volume += e.value() * size.as_mib_f64();
                    }
                }
                if volume > 0.0 {
                    row.insert(uploader, volume);
                }
            }
        }
        row
    }

    /// Equation 4: the raw `VD` matrix at `now`, built across `threads` OS
    /// threads (rows are independent, so any thread count yields the
    /// identical matrix). File sizes enter in MiB so magnitudes stay
    /// well-conditioned; evaluations come from the store (files the
    /// downloader no longer has a record for contribute nothing). Freezing
    /// it row-normalized gives the one-step matrix `DM` (Equation 5).
    #[must_use]
    pub fn raw_parallel(
        &self,
        evals: &EvaluationStore,
        now: SimTime,
        params: &Params,
        threads: usize,
    ) -> SparseMatrix {
        let rows: Vec<UserId> = self.downloads.keys().copied().collect();
        let chunks = par_chunks(&rows, threads, |chunk| {
            chunk
                .iter()
                .map(|&r| (r, self.vd_row(r, evals, now, params)))
                .collect::<Vec<_>>()
        });
        let mut vd = SparseMatrix::new();
        for (r, row) in chunks.into_iter().flatten() {
            vd.set_row(r, row)
                .expect("volumes are finite and non-negative");
        }
        vd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrep_matrix::{normalize_row_mut, CsrMatrix, UserIndex};
    use mdrep_types::{Evaluation, SimDuration};
    use std::sync::Arc;

    fn u(i: u64) -> UserId {
        UserId::new(i)
    }
    fn f(i: u64) -> FileId {
        FileId::new(i)
    }

    /// Store + params where votes are taken verbatim (η = 0).
    fn setup() -> (EvaluationStore, Params) {
        (
            EvaluationStore::new(),
            Params::builder().eta(0.0).build().unwrap(),
        )
    }

    #[test]
    fn equation_four_hand_computed() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        // Two files from uploader 1: 100 MiB rated 1.0, 50 MiB rated 0.5.
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(100));
        evals.record_download(SimTime::ZERO, u(0), f(1));
        evals.record_vote(SimTime::ZERO, u(0), f(1), Evaluation::new(0.5).unwrap());
        vt.record_download(u(0), u(1), f(1), FileSize::from_mib(50));

        let vd = vt.raw_parallel(&evals, SimTime::ZERO, &params, 1);
        assert!((vd.get(u(0), u(1)) - 125.0).abs() < 1e-9);
    }

    #[test]
    fn fake_downloads_contribute_nothing() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_vote(SimTime::ZERO, u(0), f(0), Evaluation::WORST);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(700));
        let vd = vt.raw_parallel(&evals, SimTime::ZERO, &params, 1);
        assert_eq!(vd.get(u(0), u(1)), 0.0);
        assert!(vd.is_empty());
    }

    #[test]
    fn dm_is_row_stochastic_and_proportional() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        for (i, uploader, mib) in [(0, 1, 300u64), (1, 2, 100u64)] {
            let file = f(i);
            evals.record_download(SimTime::ZERO, u(0), file);
            evals.record_vote(SimTime::ZERO, u(0), file, Evaluation::BEST);
            vt.record_download(u(0), u(uploader), file, FileSize::from_mib(mib));
        }
        let vd = vt.raw_parallel(&evals, SimTime::ZERO, &params, 1);
        let index = Arc::new(UserIndex::from_matrices(&[&vd]));
        let dm = CsrMatrix::freeze_normalized_sharded(&index, &vd, 1);
        assert!(dm.is_row_stochastic(1e-12));
        assert!((dm.get(u(0), u(1)) - 0.75).abs() < 1e-12);
        assert!((dm.get(u(0), u(2)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deleted_files_weigh_by_frozen_retention() {
        // With default params and no vote, the implicit evaluation is the
        // held fraction (confidence 1 after a week); a quick delete → tiny
        // volume credit to the uploader.
        let params = Params::default();
        let mut evals = EvaluationStore::new();
        let mut vt = VolumeTrust::new();
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_delete(SimTime::ZERO + SimDuration::from_hours(1), u(0), f(0));
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(100));

        let week = SimTime::ZERO + SimDuration::from_days(7);
        let vd = vt.raw_parallel(&evals, week, &params, 1);
        let expected = (1.0 / (7.0 * 24.0)) * 100.0; // held 1h of 7 days
        assert!(
            (vd.get(u(0), u(1)) - expected).abs() < 1e-6,
            "got {}",
            vd.get(u(0), u(1))
        );
    }

    #[test]
    fn remove_user_clears_both_directions() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        vt.record_download(u(1), u(0), f(0), FileSize::from_mib(10));
        vt.record_download(u(2), u(1), f(0), FileSize::from_mib(10));
        assert_eq!(vt.pair_count(), 3);
        // Both downloaders that used uploader 1 are reported.
        assert_eq!(vt.remove_user(u(1)), vec![u(0), u(2)]);
        assert_eq!(vt.pair_count(), 0);
        assert_eq!(vt.row_count(), 0, "rows left empty are dropped");
        assert!(vt
            .raw_parallel(&evals, SimTime::ZERO, &params, 1)
            .is_empty());
    }

    #[test]
    fn repeat_downloads_accumulate() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        evals.record_download(SimTime::ZERO, u(0), f(0));
        evals.record_vote(SimTime::ZERO, u(0), f(0), Evaluation::BEST);
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        let vd = vt.raw_parallel(&evals, SimTime::ZERO, &params, 1);
        assert!((vd.get(u(0), u(1)) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn vd_row_and_parallel_raw_match_batch() {
        let (mut evals, params) = setup();
        let mut vt = VolumeTrust::new();
        for i in 0..20u64 {
            let file = f(i);
            evals.record_download(SimTime::ZERO, u(i % 5), file);
            evals.record_vote(
                SimTime::ZERO,
                u(i % 5),
                file,
                Evaluation::new(0.3 + 0.03 * i as f64).unwrap(),
            );
            vt.record_download(u(i % 5), u(10 + i % 3), file, FileSize::from_mib(5 + i));
        }
        let serial = vt.raw_parallel(&evals, SimTime::ZERO, &params, 1);
        let parallel = vt.raw_parallel(&evals, SimTime::ZERO, &params, 4);
        assert_eq!(serial, parallel);
        let index = Arc::new(UserIndex::from_matrices(&[&serial]));
        let dm = CsrMatrix::freeze_normalized_sharded(&index, &serial, 1);
        for r in serial.row_ids() {
            let mut row = vt.vd_row(r, &evals, SimTime::ZERO, &params);
            assert_eq!(serial.row(r), Some(&row), "shared row helper");
            assert!(normalize_row_mut(&mut row));
            let batch: SparseVector = dm.row_entries(r).collect();
            assert_eq!(batch, row, "dirty-row normalization matches the freeze");
        }
    }

    #[test]
    fn unevaluated_downloads_are_skipped() {
        // The volume store knows about the download but the evaluation
        // store does not (e.g. expired record) → no trust contribution.
        let (evals, params) = setup();
        let mut vt = VolumeTrust::new();
        vt.record_download(u(0), u(1), f(0), FileSize::from_mib(10));
        assert!(vt
            .raw_parallel(&evals, SimTime::ZERO, &params, 1)
            .is_empty());
    }
}
