//! The event-log path is equivalent to the direct path: an engine fed from
//! a parsed log answers identically to one fed from the original trace.

use mdrep_repro::core::{Params, ReputationEngine};
use mdrep_repro::types::{FileSize, SimDuration, SimTime, UserId};
use mdrep_repro::workload::{BehaviorMix, EventKind, EventLog, TraceBuilder, WorkloadConfig};

#[test]
fn log_replay_is_equivalent_to_direct_feeding() {
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(60)
            .titles(80)
            .days(3)
            .behavior_mix(BehaviorMix::realistic())
            .pollution_rate(0.4)
            .seed(112_358)
            .build()
            .expect("valid config"),
    )
    .generate();
    let end = SimTime::ZERO + SimDuration::from_days(3);

    // Path A: direct.
    let mut direct = ReputationEngine::new(Params::default());
    for event in trace.events() {
        direct.observe_trace_event(event, trace.catalog());
    }
    direct.recompute(end);

    // Path B: through the text format.
    let text = EventLog::from_trace(&trace).to_text();
    let parsed = EventLog::from_text(&text).expect("own output parses");
    let sizes = parsed.size_table();
    let mut replayed = ReputationEngine::new(Params::default());
    for event in parsed.events() {
        match event.kind {
            EventKind::Join { .. } => {}
            EventKind::Publish { user, file } => {
                replayed.observe_publish(event.time, user, file);
            }
            EventKind::Download {
                downloader,
                uploader,
                file,
            } => {
                let size = sizes.get(&file).copied().unwrap_or(FileSize::ZERO);
                replayed.observe_download(event.time, downloader, uploader, file, size);
            }
            EventKind::Vote { user, file, value } => {
                replayed.observe_vote(event.time, user, file, value);
            }
            EventKind::Delete { user, file } => replayed.observe_delete(event.time, user, file),
            EventKind::RankUser {
                rater,
                target,
                value,
            } => {
                replayed.observe_rank(rater, target, value);
            }
            EventKind::Whitewash { user } => replayed.observe_whitewash(user),
        }
    }
    replayed.recompute(end);

    // Identical reputations over every observed pair, up to float
    // accumulation order (hash-map iteration varies, so pairwise distance
    // sums can differ by an ulp between engine instances).
    let direct_rm = direct.reputation_matrix().expect("computed");
    let replayed_rm = replayed.reputation_matrix().expect("computed");
    assert_eq!(direct_rm.matrix().nnz(), replayed_rm.matrix().nnz());
    for (i, j, v) in direct_rm.matrix().iter() {
        let other = replayed_rm.matrix().get(i, j);
        assert!(
            (other - v).abs() <= 1e-12 * v.abs().max(1.0),
            "({i}, {j}): {other} vs {v}"
        );
    }
    // And identical coverage over the request log.
    let requests = trace.request_pairs();
    assert_eq!(
        direct.view().request_coverage(&requests),
        replayed.view().request_coverage(&requests)
    );
    // Published evaluations match too (the DHT-facing surface).
    let someone = UserId::new(5);
    assert_eq!(
        direct.published_evaluations(someone, end),
        replayed.published_evaluations(someone, end)
    );
}
