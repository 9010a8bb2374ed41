//! Integration of the full client-node composition (`mdrep-node`) at a
//! community scale: incentives, pollution defense, whitewashing, and
//! DHT-backed evaluation flow, end to end.

use mdrep_repro::node::{Community, DownloadOutcome, NodeConfig};
use mdrep_repro::types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};

fn community(n: u64) -> Community {
    let mut c = Community::new(NodeConfig::default());
    for i in 0..n {
        c.join(UserId::new(i), SimTime::ZERO);
    }
    c
}

#[test]
fn contributors_earn_better_service_than_strangers() {
    let mut c = community(20);
    let uploader = UserId::new(0);
    let contributor = UserId::new(1);
    let stranger = UserId::new(2);
    let mut now = SimTime::ZERO;

    // The contributor serves the uploader several good files and votes.
    for i in 0..6u64 {
        let file = FileId::new(i);
        c.publish(contributor, file, FileSize::from_mib(30), now)
            .unwrap();
        now += SimDuration::from_hours(2);
        let outcome = c.request(uploader, file, now).unwrap();
        assert!(outcome.is_completed());
        c.vote(uploader, file, Evaluation::BEST, now).unwrap();
    }
    now += SimDuration::from_days(1);
    c.tick(now);

    // Both now request a file the uploader publishes.
    let hot = FileId::new(100);
    c.publish(uploader, hot, FileSize::from_mib(30), now)
        .unwrap();
    let (svc_contrib, svc_stranger) = match (
        c.request(contributor, hot, now).unwrap(),
        c.request(stranger, hot, now).unwrap(),
    ) {
        (
            DownloadOutcome::Completed { service: a, .. },
            DownloadOutcome::Completed { service: b, .. },
        ) => (a, b),
        other => panic!("both must complete, got {other:?}"),
    };
    assert!(
        svc_contrib.queue_offset > svc_stranger.queue_offset,
        "contributor {svc_contrib} vs stranger {svc_stranger}"
    );
    assert!(svc_contrib.bandwidth_fraction >= svc_stranger.bandwidth_fraction);
}

#[test]
fn community_learns_to_reject_a_polluted_file() {
    let mut c = community(16);
    let polluter = UserId::new(15);
    let fake = FileId::new(50);
    let mut now = SimTime::ZERO;
    c.publish(polluter, fake, FileSize::from_mib(10), now)
        .unwrap();

    // A few victims download, discover, vote down, delete; everyone
    // befriends the victims through good experiences elsewhere.
    for v in 1..5u64 {
        let victim = UserId::new(v);
        now += SimDuration::from_hours(1);
        if c.request(victim, fake, now).unwrap().is_completed() {
            c.vote(victim, fake, Evaluation::WORST, now).unwrap();
            let _ = c.delete(victim, fake, now);
        }
        // The judge has had good dealings with each victim.
        c.rank(UserId::new(0), victim, Evaluation::BEST).unwrap();
    }
    now += SimDuration::from_hours(6);
    c.tick(now);

    match c.request(UserId::new(0), fake, now).unwrap() {
        DownloadOutcome::RejectedAsFake { reputation } => {
            assert!(reputation.is_below(Evaluation::NEUTRAL));
        }
        DownloadOutcome::NoSource => {} // all holders deleted it — also a win
        DownloadOutcome::Completed { .. } => {
            panic!("the judge should not download the fake");
        }
    }
}

#[test]
fn whitewashing_forfeits_everything() {
    let mut c = community(10);
    let cheat = UserId::new(3);
    let observer = UserId::new(0);
    let mut now = SimTime::ZERO;

    // The cheat builds up reputation and a library.
    for i in 0..5u64 {
        let file = FileId::new(i);
        c.publish(cheat, file, FileSize::from_mib(10), now).unwrap();
        now += SimDuration::from_hours(1);
        assert!(c.request(observer, file, now).unwrap().is_completed());
        c.vote(observer, file, Evaluation::BEST, now).unwrap();
    }
    c.tick(now);
    let before = c
        .peer(observer)
        .unwrap()
        .engine()
        .view()
        .reputation(observer, cheat);
    assert!(before > 0.0);
    let old_score = c.peer(cheat).unwrap().ledger().score(cheat);
    assert!(old_score > 0.0);

    // Whitewash: the fresh identity owns nothing.
    let fresh = c.whitewash(cheat, now).unwrap();
    assert_ne!(fresh, cheat);
    assert!(!c.is_online(cheat));
    assert!(c.is_online(fresh));
    let fresh_peer = c.peer(fresh).unwrap();
    assert!(fresh_peer.library().is_empty());
    assert_eq!(fresh_peer.ledger().score(fresh), 0.0);
    assert_eq!(
        c.peer(observer)
            .unwrap()
            .engine()
            .view()
            .reputation(observer, fresh),
        0.0,
        "nobody knows the fresh identity"
    );
}

#[test]
fn ttl_survival_under_maintenance_and_churn() {
    let mut c = community(24);
    let mut now = SimTime::ZERO;
    for i in 0..8u64 {
        c.publish(UserId::new(i), FileId::new(i), FileSize::from_mib(5), now)
            .unwrap();
    }
    // Two days of 6-hour maintenance ticks with rolling churn.
    for round in 0..8u64 {
        now += SimDuration::from_hours(6);
        c.leave(UserId::new(16 + (round % 8)));
        c.join(UserId::new(16 + ((round + 4) % 8)), now);
        c.tick(now);
    }
    // Every file is still reachable from an online peer.
    let asker = UserId::new(12);
    let mut served = 0;
    for i in 0..8u64 {
        if c.request(asker, FileId::new(i), now)
            .unwrap()
            .is_completed()
        {
            served += 1;
        }
    }
    assert!(
        served >= 6,
        "republishing keeps the catalog alive, served {served}/8"
    );
}

#[test]
fn dht_message_accounting_is_visible() {
    let mut c = community(12);
    let before = c.dht().stats().total();
    c.publish(
        UserId::new(1),
        FileId::new(1),
        FileSize::from_mib(1),
        SimTime::ZERO,
    )
    .unwrap();
    let after_publish = c.dht().stats().total();
    assert!(after_publish > before);
    let _ = c
        .request(UserId::new(2), FileId::new(1), SimTime::ZERO)
        .unwrap();
    assert!(c.dht().stats().total() > after_publish);
    assert!(c.dht().stats().find_value >= 1);
}
