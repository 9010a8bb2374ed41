//! Property-based tests on the reputation system's invariants.

#[path = "../../matrix/tests/oracle/mod.rs"]
mod oracle;

use mdrep::file_trust::ft_row;
use mdrep::{
    file_reputation, DistanceMetric, EvaluationStore, FileTrust, FileTrustOptions, OwnerEvaluation,
    Params, ReputationEngine, ReputationMatrix, ServicePolicy, UserTrust, Weights,
};
use mdrep_matrix::{CsrMatrix, PowerOptions, SparseMatrix, SparseVector, UserIndex};
use mdrep_types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
use proptest::prelude::*;
use std::sync::Arc;

fn eval_strategy() -> impl Strategy<Value = Evaluation> {
    (0.0f64..=1.0).prop_map(|v| Evaluation::new(v).expect("in range"))
}

/// `raw` frozen row-normalized under its own index (Equations 3/5/6).
fn normalized(raw: &SparseMatrix) -> CsrMatrix {
    let index = Arc::new(UserIndex::from_matrices(&[raw]));
    CsrMatrix::freeze_normalized_sharded(&index, raw, 1)
}

/// A row's entries with their values as bit patterns.
fn bits(row: &SparseVector) -> Vec<(UserId, u64)> {
    row.iter().map(|(&c, v)| (c, v.to_bits())).collect()
}

proptest! {
    /// Equation 2 over random downloads, deletes and votes at mixed times,
    /// read at a `now` inside the retention-saturation window (so held
    /// files carry drifting implicit Eq. 1 values, under the default η),
    /// after a random whitewash and under a random evaluator cap (`0` =
    /// uncapped) that cuts each file's evaluator prefix, for every
    /// distance metric: bounded, symmetric, no self trust, and one matrix
    /// whatever the thread count — with every row equal, bit for bit, to
    /// the dirty-row path's [`ft_row`].
    #[test]
    fn file_trust_is_symmetric_and_bounded(
        events in proptest::collection::vec(
            (0u8..4, 0u64..24, 0u64..10, 0u64..72, eval_strategy()),
            1..150,
        ),
        remove in 0u64..32,
        cap in 0usize..6,
    ) {
        let mut store = EvaluationStore::new();
        for &(kind, u, f, hour, v) in &events {
            let (user, file) = (UserId::new(u), FileId::new(f));
            let at = SimTime::ZERO + SimDuration::from_hours(hour);
            match kind {
                0 | 1 => store.record_download(at, user, file),
                2 => store.record_delete(at, user, file),
                _ => store.record_vote(at, user, file, v),
            }
        }
        // Whitewashing a user (ids ≥ 24 are a no-op) shifts the capped
        // prefixes of its files.
        store.remove_user(UserId::new(remove));
        let params_at = |threads| Params::builder().threads(threads).build().expect("valid");
        let params = params_at(1);
        // Four days in: records from the last three days are still ramping.
        let now = SimTime::ZERO + SimDuration::from_days(4);
        prop_assert!(now < SimTime::ZERO + params.retention_saturation());
        for metric in [DistanceMetric::L1, DistanceMetric::Euclidean, DistanceMetric::SymmetricKl] {
            let options = FileTrustOptions {
                metric,
                max_evaluators_per_file: (cap > 0).then_some(cap),
            };
            let ft = FileTrust::compute_with(&store, now, &params, options);
            for (i, j, v) in ft.raw().iter() {
                prop_assert!((0.0..=1.0).contains(&v));
                prop_assert_eq!(ft.raw().get(j, i).to_bits(), v.to_bits(), "symmetry");
                prop_assert_ne!(i, j, "no self trust");
            }
            prop_assert!(normalized(ft.raw()).is_row_stochastic(1e-9));
            for user in store.users() {
                let row = ft_row(&store, user, now, &params, options);
                let batch = ft.raw().row(user).cloned().unwrap_or_default();
                prop_assert_eq!(bits(&row), bits(&batch), "{:?} row of {}", metric, user);
            }
            for threads in [2, 8] {
                let parallel = FileTrust::compute_with(&store, now, &params_at(threads), options);
                let (a, b): (Vec<_>, Vec<_>) = (
                    ft.raw().iter().map(|(i, j, v)| (i, j, v.to_bits())).collect(),
                    parallel.raw().iter().map(|(i, j, v)| (i, j, v.to_bits())).collect(),
                );
                prop_assert_eq!(a, b, "{:?} at {} threads", metric, threads);
            }
        }
    }

    #[test]
    fn equation_nine_is_bounded_by_evaluations(
        entries in proptest::collection::vec((1u64..10, 0.001f64..1.0), 1..8),
        evals in proptest::collection::vec((1u64..10, 0.0f64..=1.0), 1..8),
    ) {
        let mut tm = SparseMatrix::new();
        for &(j, v) in &entries {
            tm.set(UserId::new(0), UserId::new(j), v).expect("valid");
        }
        let rm = ReputationMatrix::compute_csr(CsrMatrix::freeze(&tm), &Params::default());
        let owner_evals: Vec<OwnerEvaluation> = evals
            .iter()
            .map(|&(j, v)| OwnerEvaluation::new(UserId::new(j), Evaluation::new(v).expect("ok")))
            .collect();
        if let Some(r) = file_reputation(&rm, UserId::new(0), &owner_evals) {
            let lo = owner_evals.iter().map(|o| o.evaluation.value()).fold(f64::INFINITY, f64::min);
            let hi = owner_evals.iter().map(|o| o.evaluation.value()).fold(0.0, f64::max);
            prop_assert!(r.value() >= lo - 1e-9);
            prop_assert!(r.value() <= hi + 1e-9);
        }
    }

    #[test]
    fn service_is_monotone_in_reputation(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let policy = ServicePolicy::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let dlo = policy.decide_scaled(lo);
        let dhi = policy.decide_scaled(hi);
        prop_assert!(dhi.queue_offset >= dlo.queue_offset);
        prop_assert!(dhi.bandwidth_fraction >= dlo.bandwidth_fraction - 1e-12);
        prop_assert!(dlo.bandwidth_fraction > 0.0, "nobody is starved outright");
        prop_assert!(dhi.bandwidth_fraction <= 1.0);
    }

    #[test]
    fn user_trust_rows_normalize(ratings in proptest::collection::vec(
        (0u64..6, 0u64..6, eval_strategy()), 0..40)) {
        let mut ut = UserTrust::new();
        for &(r, t, v) in &ratings {
            ut.rate(UserId::new(r), UserId::new(t), v);
        }
        prop_assert!(normalized(&ut.raw()).is_row_stochastic(1e-9));
    }

    #[test]
    fn engine_reputation_nonnegative_and_rows_bounded(
        downloads in proptest::collection::vec((0u64..6, 0u64..6, 0u64..8, 1u64..500), 1..40),
        votes in proptest::collection::vec((0u64..6, 0u64..8, eval_strategy()), 0..30),
    ) {
        let mut engine = ReputationEngine::new(Params::default());
        for &(d, u, f, mib) in &downloads {
            if d != u {
                engine.observe_download(
                    SimTime::ZERO,
                    UserId::new(d),
                    UserId::new(u),
                    FileId::new(f),
                    FileSize::from_mib(mib),
                );
            }
        }
        for &(u, f, v) in &votes {
            engine.observe_vote(SimTime::ZERO, UserId::new(u), FileId::new(f), v);
        }
        engine.recompute(SimTime::ZERO);
        let rm = engine.reputation_matrix().expect("computed");
        for (i, _, v) in rm.matrix().iter() {
            prop_assert!(v >= 0.0);
            prop_assert!(rm.matrix().row_sum(i) <= 1.0 + 1e-9);
        }
    }

    /// The tentpole invariant: an arbitrary interleaving of events and
    /// incremental recomputes leaves the engine in exactly the state a
    /// from-scratch rebuild of the same history produces. Kinds 0–4 are
    /// events (download, vote, delete, rank, whitewash), 5 recomputes at
    /// the current time, 6 advances the clock six hours and recomputes —
    /// so retention drift, expiring saturation windows, and user removal
    /// all get exercised mid-stream.
    #[test]
    fn incremental_recompute_equals_full_rebuild(
        ops in proptest::collection::vec(
            (0u8..7, 0u64..8, 0u64..8, 0u64..10, eval_strategy()), 1..80),
    ) {
        // Threshold 1.0: the incremental path never falls back, so every
        // mid-stream recompute exercises the dirty-row machinery.
        let params = Params::builder()
            .incremental_threshold(1.0)
            .build()
            .expect("valid");
        let mut engine = ReputationEngine::new(params);
        let mut now = SimTime::ZERO;
        for &(kind, a, b, f, v) in &ops {
            let (user, other, file) = (UserId::new(a), UserId::new(b), FileId::new(f));
            match kind {
                0 if a != b => engine.observe_download(
                    now, user, other, file, FileSize::from_mib(1 + a * 40),
                ),
                1 => engine.observe_vote(now, user, file, v),
                2 => engine.observe_delete(now, user, file),
                3 => engine.observe_rank(user, other, v),
                4 => engine.observe_whitewash(user),
                5 => engine.recompute(now),
                6 => {
                    now += SimDuration::from_hours(6);
                    engine.recompute(now);
                }
                _ => {}
            }
        }
        engine.recompute(now);

        let mut reference = engine.clone();
        reference.full_rebuild(now);
        let incremental = engine.reputation_matrix().expect("computed").matrix();
        let full = reference.reputation_matrix().expect("computed").matrix();
        for (i, j, v) in incremental.iter() {
            prop_assert!((full.get(i, j) - v).abs() <= 1e-12,
                "RM[{i}, {j}]: incremental {v} vs full {}", full.get(i, j));
        }
        for (i, j, v) in full.iter() {
            prop_assert!((incremental.get(i, j) - v).abs() <= 1e-12,
                "RM[{i}, {j}]: full {v} vs incremental {}", incremental.get(i, j));
        }
    }

    /// The CSR contract: on an arbitrary interleaved event stream, the
    /// frozen path — normalize-on-freeze, `blend_frozen`, the SpGEMM power,
    /// and the batched Eq. 9 row-gather — agrees with the reference
    /// `BTreeMap` kernels of the test oracle within 1e-12, and the frozen
    /// one-step matrices thaw back to exactly what was frozen.
    #[test]
    fn csr_kernels_match_btreemap_path(
        ops in proptest::collection::vec(
            (0u8..7, 0u64..8, 0u64..8, 0u64..10, eval_strategy()), 1..80),
        steps in 1u32..4,
        raw_top_k in 0usize..6,
        viewer_ids in proptest::collection::vec(0u64..10, 1..6),
        owner_votes in proptest::collection::vec((0u64..10, eval_strategy()), 0..6),
    ) {
        // 0 encodes "no cap" (the vendored proptest has no option strategy).
        let top_k = (raw_top_k > 0).then_some(raw_top_k);
        let params = Params::builder()
            .incremental_threshold(1.0)
            .steps(steps)
            .top_k(top_k)
            .build()
            .expect("valid");
        let mut engine = ReputationEngine::new(params.clone());
        let mut now = SimTime::ZERO;
        for &(kind, a, b, f, v) in &ops {
            let (user, other, file) = (UserId::new(a), UserId::new(b), FileId::new(f));
            match kind {
                0 if a != b => engine.observe_download(
                    now, user, other, file, FileSize::from_mib(1 + a * 40),
                ),
                1 => engine.observe_vote(now, user, file, v),
                2 => engine.observe_delete(now, user, file),
                3 => engine.observe_rank(user, other, v),
                4 => engine.observe_whitewash(user),
                5 => engine.recompute(now),
                6 => {
                    now += SimDuration::from_hours(6);
                    engine.recompute(now);
                }
                _ => {}
            }
        }
        engine.recompute(now);
        let comps = engine.components().expect("computed");

        // Freeze/thaw round-trips exactly: thawing recovers every entry.
        let fm = comps.fm.thaw();
        let dm = comps.dm.thaw();
        let um = comps.um.thaw();
        prop_assert_eq!(&CsrMatrix::freeze(&fm), &comps.fm, "FM freeze/thaw round-trip");
        prop_assert_eq!(&CsrMatrix::freeze(&dm), &comps.dm, "DM freeze/thaw round-trip");
        prop_assert_eq!(&CsrMatrix::freeze(&um), &comps.um, "UM freeze/thaw round-trip");

        // Eq. 7 blend: fused CSR kernel vs the BTreeMap kernel.
        let w = params.weights();
        let tm_ref = oracle::blend(&[(w.alpha(), &fm), (w.beta(), &dm), (w.gamma(), &um)]);
        prop_assert_eq!(comps.tm.nnz(), tm_ref.nnz(), "blend support");
        for (i, j, v) in comps.tm.iter() {
            prop_assert!((tm_ref.get(i, j) - v).abs() <= 1e-12,
                "TM[{i}, {j}]: csr {v} vs btreemap {}", tm_ref.get(i, j));
        }

        // Eq. 8 power: row-chunked SpGEMM vs the BTreeMap multiply chain.
        let options = if params.prune_threshold() > 0.0 || params.top_k().is_some() {
            PowerOptions::pruned(params.prune_threshold()).with_top_k(params.top_k())
        } else {
            PowerOptions::exact()
        };
        let rm_ref = oracle::power(&tm_ref, steps, options);
        let rm = engine.reputation_matrix().expect("computed");
        prop_assert_eq!(rm.matrix().nnz(), rm_ref.nnz(), "power support");
        for (i, j, v) in rm.matrix().iter() {
            prop_assert!((rm_ref.get(i, j) - v).abs() <= 1e-12,
                "RM[{i}, {j}]: csr {v} vs btreemap {}", rm_ref.get(i, j));
        }

        // Eq. 9 queries: the batched row-gather vs a scalar BTreeMap walk.
        let viewers: Vec<UserId> = viewer_ids.iter().copied().map(UserId::new).collect();
        let evals: Vec<OwnerEvaluation> = owner_votes
            .iter()
            .map(|&(o, v)| OwnerEvaluation::new(UserId::new(o), v))
            .collect();
        let batch = engine.view().file_reputation_batch(&viewers, &evals);
        prop_assert_eq!(batch.len(), viewers.len());
        for (k, &viewer) in viewers.iter().enumerate() {
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for oe in &evals {
                let r = rm_ref.get(viewer, oe.owner);
                if r > 0.0 {
                    weighted += r * oe.evaluation.value();
                    weight += r;
                }
            }
            match batch[k] {
                None => prop_assert!(weight == 0.0, "viewer {viewer} should score"),
                Some(e) => {
                    prop_assert!(weight > 0.0);
                    prop_assert!((e.value() - (weighted / weight).clamp(0.0, 1.0)).abs() <= 1e-12,
                        "Eq. 9 for {viewer}: batch {} vs scalar {}", e.value(), weighted / weight);
                }
            }
        }
    }

    #[test]
    fn weights_validity_is_exact(a in 0.0f64..=1.0, b in 0.0f64..=1.0) {
        let c = 1.0 - a - b;
        let result = Weights::new(a, b, c);
        if c >= 0.0 {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }
}

/// Empty edge case: a recompute with no observations freezes empty CSR
/// matrices that round-trip and answer every query conservatively.
#[test]
fn csr_empty_engine_edge_cases() {
    let mut engine = ReputationEngine::new(Params::default());
    engine.recompute(SimTime::ZERO);
    let comps = engine.components().expect("computed");
    assert_eq!(comps.tm.nnz(), 0);
    assert!(comps.tm.is_empty());
    assert_eq!(
        CsrMatrix::freeze(&comps.tm.thaw()),
        comps.tm,
        "empty freeze/thaw round-trip"
    );
    let rm = engine.reputation_matrix().expect("computed");
    assert_eq!(rm.row_max(UserId::new(0)), 0.0);
    let evals = [OwnerEvaluation::new(UserId::new(1), Evaluation::BEST)];
    assert_eq!(
        engine
            .view()
            .file_reputation_batch(&[UserId::new(0)], &evals),
        vec![None]
    );
}

/// Zero-row edge case: viewers without a reputation row gather all-zero
/// and score `None`, exactly like the scalar path.
#[test]
fn csr_zero_row_viewers_score_none() {
    let mut engine = ReputationEngine::new(Params::default());
    let (a, b, f) = (UserId::new(0), UserId::new(1), FileId::new(0));
    engine.observe_download(SimTime::ZERO, a, b, f, FileSize::from_mib(50));
    engine.observe_vote(SimTime::ZERO, a, f, Evaluation::BEST);
    engine.recompute(SimTime::ZERO);
    let evals = [OwnerEvaluation::new(b, Evaluation::BEST)];
    let stranger = UserId::new(77);
    let batch = engine.view().file_reputation_batch(&[a, stranger], &evals);
    assert_eq!(batch[0], engine.view().file_reputation(a, &evals));
    assert!(batch[0].is_some());
    assert_eq!(batch[1], None, "stranger has no RM row");
}

/// One record of the naive store oracle, with the fields of
/// `EvaluationRecord` and the same update rules.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OracleRecord {
    downloaded_at: SimTime,
    deleted_at: Option<SimTime>,
    vote: Option<Evaluation>,
    last_activity: SimTime,
}

impl OracleRecord {
    fn fresh(time: SimTime) -> Self {
        Self {
            downloaded_at: time,
            deleted_at: None,
            vote: None,
            last_activity: time,
        }
    }
}

type Oracle = std::collections::BTreeMap<(UserId, FileId), OracleRecord>;

/// Asserts that `store` holds exactly the records of `oracle`, through
/// every read of the store.
fn assert_store_matches(store: &EvaluationStore, oracle: &Oracle, now: SimTime, params: &Params) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut by_file: BTreeMap<FileId, Vec<UserId>> = BTreeMap::new();
    let mut by_user: BTreeMap<UserId, Vec<FileId>> = BTreeMap::new();
    for &(u, f) in oracle.keys() {
        by_file.entry(f).or_default().push(u);
        by_user.entry(u).or_default().push(f);
    }
    for list in by_file.values_mut() {
        list.sort_unstable();
    }
    assert_eq!(store.len(), oracle.len(), "len");
    assert_eq!(store.is_empty(), oracle.is_empty(), "is_empty");
    assert_eq!(store.user_count(), by_user.len(), "user_count");
    let users: BTreeSet<UserId> = store.users().collect();
    assert_eq!(users, by_user.keys().copied().collect(), "users");
    assert_eq!(
        store.files().collect::<Vec<_>>(),
        by_file.keys().copied().collect::<Vec<_>>()
    );
    for u in (0..7).map(UserId::new) {
        let files = by_user.get(&u).cloned().unwrap_or_default();
        assert_eq!(
            store.files_of(u).collect::<Vec<_>>(),
            files,
            "files_of {}",
            u
        );
        for f in (0..7).map(FileId::new) {
            let got = store
                .record(u, f)
                .map(|r| (r.downloaded_at(), r.deleted_at(), r.vote()));
            let want = oracle
                .get(&(u, f))
                .map(|r| (r.downloaded_at, r.deleted_at, r.vote));
            assert_eq!(got, want, "record ({}, {})", u, f);
            assert_eq!(
                store.evaluation(u, f, now, params),
                store.record(u, f).map(|r| r.evaluation(now, params)),
                "evaluation ({}, {})",
                u,
                f
            );
        }
    }
    for f in (0..7).map(FileId::new) {
        let evaluators = by_file.get(&f).cloned().unwrap_or_default();
        assert_eq!(
            store.evaluators_of(f).collect::<Vec<_>>(),
            evaluators,
            "evaluators_of {}",
            f
        );
        let column: Vec<(UserId, Evaluation)> = evaluators
            .iter()
            .map(|&u| {
                (
                    u,
                    store.evaluation(u, f, now, params).expect("oracle record"),
                )
            })
            .collect();
        assert_eq!(
            store.column(f, now, params).collect::<Vec<_>>(),
            column,
            "column {}",
            f
        );
    }
    // No empty column and no empty user entry survives.
    for f in store.files() {
        assert!(
            store.evaluators_of(f).next().is_some(),
            "empty column {}",
            f
        );
    }
    for u in store.users() {
        assert!(store.files_of(u).next().is_some(), "empty user entry {}", u);
    }
}

proptest! {
    /// The column-major store against a flat `(user, file)` map: random
    /// interleavings of downloads, votes, deletes (at times up to a day
    /// in the past), expiry and whitewashing leave every read equal.
    #[test]
    fn evaluation_store_matches_flat_oracle(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..7, 0u64..7, 0u64..30, 0u64..24, eval_strategy()),
            1..80,
        ),
    ) {
        let params = Params::builder()
            .evaluation_interval(SimDuration::from_days(3))
            .build()
            .expect("valid");
        let mut store = EvaluationStore::new();
        let mut oracle = Oracle::new();
        let mut now = SimTime::ZERO;
        for &(kind, u, f, advance, back, v) in &ops {
            now += SimDuration::from_hours(advance);
            let (user, file) = (UserId::new(u), FileId::new(f));
            let at = SimTime::from_ticks(
                now.as_ticks().saturating_sub(SimDuration::from_hours(back).as_ticks()),
            );
            match kind {
                0 | 1 => {
                    store.record_download(at, user, file);
                    oracle.insert((user, file), OracleRecord::fresh(at));
                }
                2 | 3 => {
                    store.record_vote(at, user, file, v);
                    let r = oracle.entry((user, file)).or_insert(OracleRecord::fresh(at));
                    r.vote = Some(v);
                    r.last_activity = at;
                }
                4 | 5 => {
                    store.record_delete(at, user, file);
                    if let Some(r) = oracle.get_mut(&(user, file)) {
                        if r.deleted_at.is_none() {
                            r.deleted_at = Some(at.max(r.downloaded_at));
                            r.last_activity = at;
                        }
                    }
                }
                6 => {
                    let cutoff = params.evaluation_interval();
                    let mut want: Vec<(UserId, FileId)> = oracle
                        .iter()
                        .filter(|(_, r)| now - r.last_activity > cutoff)
                        .map(|(&key, _)| key)
                        .collect();
                    oracle.retain(|_, r| now - r.last_activity <= cutoff);
                    let mut got = store.expire_detailed(now, &params);
                    got.sort_unstable();
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "expire_detailed at {:?}", now);
                }
                _ => {
                    store.remove_user(user);
                    oracle.retain(|&(u, _), _| u != user);
                }
            }
            assert_store_matches(&store, &oracle, now, &params);
        }
    }
}
