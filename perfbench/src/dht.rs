//! The `dht-download` workload: the Fig. 2 download pipeline over a
//! faulty overlay.
//!
//! One thread, closed loop. Each decision draws an online requester and a
//! file (both Zipf), fetches the file's signed owner evaluations through
//! the cache tier, and decides on a pinned engine snapshot. On Accept the
//! downloader signs and publishes its own evaluation. The engine only
//! serves reads here: it gets no events after its bootstrap, so its epochs
//! measure the fixed cost of an idle publish. The simulated clock advances
//! one second per [`PER_SECOND`] decisions; every simulated minute the tier
//! ticks and churn is applied, and every [`EPOCH_EVERY`] decisions the
//! engine publishes an epoch. `events_per_s` counts decisions here.

use crate::engine::{
    overhead_ratio, rebuild_matches, traced_kernels, EpochLog, EpochMode, ReadLog,
};
use crate::gen::{Rng, Zipf};
use crate::layers;
use crate::report::{peak_rss_mib, Metrics, Sample, NS_PER_MS, NS_PER_S, NS_PER_US};
use crate::traffic::{file_size, opinion};
use crate::{set_tracing, Outcome};
use mdrep::{DownloadDecision, OwnerEvaluation, Params, ShardedEngine};
use mdrep_crypto::{KeyRegistry, SigningKey};
use mdrep_dht::{
    CacheTierConfig, ChurnSchedule, Dht, DhtConfig, EvaluationCacheTier, FaultPlan, RetrievalSource,
};
use mdrep_types::{Evaluation, FileId, SimDuration, SimTime, UserId};
use std::time::{Duration, Instant};

const NODES: usize = 2048;
const FILES: usize = 4096;
const OWNERS_PER_FILE: usize = 4;
const USER_ZIPF: f64 = 0.6;
const FILE_ZIPF: f64 = 0.8;
/// Share of files that are fakes (their owners rate them low).
const FAKE_SHARE: f64 = 0.1;
const LOSS: f64 = 0.10;
const CHURN_DOWN: f64 = 0.05;
const CHURN_PERIOD: SimDuration = SimDuration::from_mins(10);
/// Decisions per simulated second.
const PER_SECOND: usize = 20;
/// Decisions per simulated minute: one tier tick and churn step.
const PER_MINUTE: usize = 60 * PER_SECOND;
/// Decisions per engine epoch (ten simulated seconds).
const EPOCH_EVERY: usize = 10 * PER_SECOND;
/// Publishers are republished in this many cohorts, one per simulated
/// minute, so that republication is spread over the interval.
const COHORTS: u64 = 30;
const SETUP_REPS: usize = 3;
/// Decisions replayed on a second, identical overlay to check that the
/// fault trace repeats.
const REPLAY: usize = 2_000;

/// The overlay's count and ratio metrics, all zero, for the workloads
/// that never touch the overlay.
pub fn not_exercised(out: &mut Metrics) {
    for (name, unit) in [
        ("dht.cache_hit_ratio", "ratio"),
        ("dht.msgs_per_decision", "count"),
        ("dht.retries_per_decision", "count"),
        ("dht.partial_ratio", "ratio"),
        ("dht.error_ratio", "ratio"),
        ("dht.records_per_retrieve", "count"),
        ("dht.lookup_hops_mean", "count"),
    ] {
        out.push(name, 0.0, unit, 0);
    }
}

pub fn shape() -> String {
    format!(
        "nodes={NODES} files={FILES} owners_per_file={OWNERS_PER_FILE} user_zipf={USER_ZIPF} \
         file_zipf={FILE_ZIPF} fake_share={FAKE_SHARE} loss={LOSS} churn={CHURN_DOWN}/{}min \
         decisions_per_sim_second={PER_SECOND} tick=every sim-minute epoch_every={EPOCH_EVERY} \
         republish_cohorts={COHORTS} cache=CacheTierConfig::default()",
        CHURN_PERIOD.as_ticks() / 60
    )
}

/// The benchmark's inputs: who owns what, and with which opinion.
struct Inputs {
    /// `(file, owner, evaluation)` in publication order.
    evaluations: Vec<(FileId, UserId, Evaluation)>,
    fake: Vec<bool>,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0x6468_7431);
        let users = Zipf::new(NODES, USER_ZIPF);
        let fake: Vec<bool> = (0..FILES).map(|_| rng.chance(FAKE_SHARE)).collect();
        let mut evaluations = Vec::with_capacity(FILES * OWNERS_PER_FILE);
        for (f, &is_fake) in fake.iter().enumerate() {
            let mut owners: Vec<UserId> = Vec::with_capacity(OWNERS_PER_FILE);
            while owners.len() < OWNERS_PER_FILE {
                let u = UserId::new(users.sample(&mut rng) as u64);
                if !owners.contains(&u) {
                    owners.push(u);
                }
            }
            for owner in owners {
                let value = opinion(&mut rng, is_fake);
                evaluations.push((FileId::new(f as u64), owner, value));
            }
        }
        Self {
            evaluations,
            fake,
            seed,
        }
    }
}

/// Everything the set-up builds.
struct Overlay {
    dht: Dht,
    registry: KeyRegistry,
    keys: Vec<SigningKey>,
    tier: EvaluationCacheTier,
    engine: ShardedEngine,
    setup_publish_errors: usize,
}

/// Simulated time the decisions start at. The engine history is older
/// than the retention saturation, so it does not drift.
fn start_time() -> SimTime {
    SimTime::from_ticks(SimDuration::from_days(8).as_ticks())
}

/// The simulated time of decision `i`.
fn clock(i: usize) -> SimTime {
    start_time() + SimDuration::from_secs((i / PER_SECOND) as u64)
}

fn set_up(inputs: &Inputs) -> Overlay {
    let start = start_time();
    let plan = FaultPlan::message_loss(LOSS, inputs.seed)
        .with_churn(ChurnSchedule::new(CHURN_PERIOD, CHURN_DOWN));
    let mut dht = Dht::new(DhtConfig {
        fault: plan,
        seed: inputs.seed,
        ..DhtConfig::default()
    });
    // Publication runs over the half hour before the start, one cohort of
    // owners per minute, each followed by the tier's first republication
    // pass for that cohort: from then on every tick refreshes one cohort.
    let first = SimTime::from_ticks(start.as_ticks() - SimDuration::from_mins(COHORTS).as_ticks());
    let mut registry = KeyRegistry::new();
    let mut keys = Vec::with_capacity(NODES);
    for u in 0..NODES as u64 {
        dht.join(UserId::new(u), first);
        keys.push(registry.register(UserId::new(u), inputs.seed ^ 0x6b65_7973));
    }
    let mut tier = EvaluationCacheTier::new(CacheTierConfig::default());
    let mut setup_publish_errors = 0;
    for cohort in 0..COHORTS {
        let now = first + SimDuration::from_mins(cohort);
        for &(file, owner, value) in &inputs.evaluations {
            if owner.as_u64() % COHORTS != cohort {
                continue;
            }
            let key = &keys[owner.as_u64() as usize];
            if tier
                .publish(&mut dht, key, owner, file, value, now)
                .is_err()
            {
                setup_publish_errors += 1;
            }
        }
        tier.tick(&mut dht, now);
    }
    let params = Params::builder()
        .threads(1)
        .build()
        .expect("benchmark parameters are valid");
    let engine = ShardedEngine::new(params, 1);
    let history = SimTime::ZERO;
    let mut first_owner: Option<(FileId, UserId)> = None;
    for &(file, owner, value) in &inputs.evaluations {
        match first_owner {
            Some((f, publisher)) if f == file => {
                engine.observe_download(history, owner, publisher, file, file_size(file));
            }
            _ => {
                engine.observe_publish(history, owner, file);
                first_owner = Some((file, owner));
            }
        }
        engine.observe_vote(history, owner, file, value);
    }
    engine.full_rebuild_epoch(start);
    Overlay {
        dht,
        registry,
        keys,
        tier,
        engine,
        setup_publish_errors,
    }
}

/// Per-decision observations.
#[derive(Default)]
struct Log {
    decision_us: Sample,
    traced_us: Sample,
    untraced_us: Sample,
    retrieve_us: Sample,
    publish_us: Sample,
    tick_ms: Sample,
    epochs: EpochLog,
    reads: ReadLog,
    last_epoch: u64,
    errors: u64,
    partial: u64,
    unverified: u64,
    cache_hits: u64,
    records: u64,
    accepts: u64,
    publish_errors: u64,
}

/// The decision loop's state: the seeded request stream and the clock.
struct Client {
    rng: Rng,
    users: Zipf,
    files: Zipf,
    index: usize,
}

impl Client {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, 0x6465_6369),
            users: Zipf::new(NODES, USER_ZIPF),
            files: Zipf::new(FILES, FILE_ZIPF),
            index: 0,
        }
    }

    /// Runs the next decision (with the tick and epoch due before it).
    /// `measure` says whether its times go into `log`; the counts always do.
    fn step(
        &mut self,
        o: &mut Overlay,
        inputs: &Inputs,
        log: &mut Log,
        measure: bool,
        trace: bool,
    ) {
        let i = self.index;
        self.index += 1;
        let now = clock(i);
        if i.is_multiple_of(PER_MINUTE) {
            let _span = mdrep_obs::trace_span("bench.dht.tick");
            let t = Instant::now();
            o.tier.tick(&mut o.dht, now);
            o.dht.apply_churn(now);
            if measure {
                log.tick_ms.push_duration(t.elapsed(), NS_PER_MS);
            }
        }
        if i.is_multiple_of(EPOCH_EVERY) && i > 0 {
            let mode = match (measure, trace, mdrep_obs::tracer().is_enabled()) {
                (false, _, _) => EpochMode::Catchup,
                (true, false, _) => EpochMode::Plain,
                (true, true, true) => EpochMode::Traced,
                (true, true, false) => EpochMode::Untraced,
            };
            if trace {
                log.epochs.pending_max = log.epochs.pending_max.max(o.engine.pending_events());
            }
            log.epochs.epoch(&o.engine, now, mode);
        }
        let mut requester = UserId::new(self.users.sample(&mut self.rng) as u64);
        while !o.dht.is_online(requester) {
            requester = UserId::new(self.users.sample(&mut self.rng) as u64);
        }
        let file = FileId::new(self.files.sample(&mut self.rng) as u64);
        let opinion_draw = opinion(&mut self.rng, inputs.fake[file.as_u64() as usize]);

        let t = Instant::now();
        let fetched = {
            let _span = mdrep_obs::trace_span("bench.dht.retrieve");
            o.tier
                .retrieve(&mut o.dht, &o.registry, requester, file, now)
        };
        let retrieved = t.elapsed();
        let Ok(fetched) = fetched else {
            log.errors += 1;
            return;
        };
        let owners: Vec<OwnerEvaluation> = fetched
            .records
            .iter()
            .map(|r| OwnerEvaluation::new(r.info.owner, r.info.evaluation))
            .collect();
        let (decision, service, epoch) = {
            let _span = mdrep_obs::trace_span("bench.read.decide");
            let t = Instant::now();
            let snap = o.engine.snapshot();
            let decision = snap.decide_download(requester, &owners);
            (decision, t.elapsed(), snap.epoch())
        };
        let elapsed = t.elapsed();
        if epoch != log.last_epoch {
            log.reads.swaps += 1;
            log.last_epoch = epoch;
        }
        let stale = o.engine.epoch().saturating_sub(epoch);
        log.reads.stale_max = log.reads.stale_max.max(stale);
        if measure {
            log.reads.service_ns.push_duration(service, 1.0);
            log.retrieve_us.push_duration(retrieved, NS_PER_US);
            log.decision_us.push_duration(elapsed, NS_PER_US);
            if trace {
                if mdrep_obs::tracer().is_enabled() {
                    log.traced_us.push_duration(elapsed, NS_PER_US);
                } else {
                    log.untraced_us.push_duration(elapsed, NS_PER_US);
                }
            }
        }
        if fetched
            .records
            .iter()
            .any(|r| !r.valid || !r.info.verify(&o.registry))
        {
            log.unverified += 1;
        }
        if fetched.unreachable > 0 {
            log.partial += 1;
        }
        if matches!(fetched.source, RetrievalSource::Cache { .. }) {
            log.cache_hits += 1;
        }
        log.records += fetched.records.len() as u64;

        if let DownloadDecision::Accept { .. } = decision {
            log.accepts += 1;
            let key = &o.keys[requester.as_u64() as usize];
            let t = Instant::now();
            let published = {
                let _span = mdrep_obs::trace_span("bench.dht.publish");
                o.tier
                    .publish(&mut o.dht, key, requester, file, opinion_draw, now)
            };
            if measure {
                log.publish_us.push_duration(t.elapsed(), NS_PER_US);
            }
            if published.is_err() {
                log.publish_errors += 1;
            }
        }
    }

    /// The state a replay must reproduce: fault-trace and `RM` digests.
    fn digests(o: &Overlay) -> (u64, u64) {
        (
            o.dht.fault_trace().digest(),
            layers::rm_digest(&o.engine.snapshot()),
        )
    }
}

pub fn dht_download(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let inputs = Inputs::new(seed);
    let mut setups = Sample::default();
    let mut overlays = Vec::with_capacity(2);
    let mut setup_digests = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        if overlays.len() == 2 {
            overlays.remove(0);
        }
        let t = Instant::now();
        let o = set_up(&inputs);
        setups.push_duration(t.elapsed(), NS_PER_S);
        setup_digests.push(Client::digests(&o));
        overlays.push(o);
    }
    let mut spare = overlays.remove(0);
    let mut o = overlays.remove(0);

    let mut log = Log::default();
    let mut client = Client::new(seed);
    let stats_before = o.dht.stats();
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut checkpoint = None;
    let mut window_s = 0.0;
    let mut decisions = 0usize;
    while checkpoint.is_none() || start.elapsed() < window {
        let measure = start.elapsed() < window;
        let traced = trace && (client.index / PER_MINUTE).is_multiple_of(2);
        set_tracing(traced);
        client.step(&mut o, &inputs, &mut log, measure, trace);
        set_tracing(false);
        if measure {
            decisions += 1;
            window_s = start.elapsed().as_secs_f64();
        }
        if client.index == REPLAY {
            checkpoint = Some(Client::digests(&o));
        }
    }
    let mut m = Metrics::default();
    m.push("setup_s", setups.pct(50.0), "s", setups.len());
    m.push(
        "events_per_s",
        decisions as f64 / window_s,
        "1/s",
        decisions,
    );
    log.epochs.end_to_end(&mut m);
    m.push(
        "decision_us_p50",
        log.decision_us.pct(50.0),
        "us",
        log.decision_us.len(),
    );
    m.push(
        "decision_us_p90",
        log.decision_us.pct(90.0),
        "us",
        log.decision_us.len(),
    );
    let attempted = client.index as u64;
    let ok = attempted - log.errors - log.partial;
    m.push(
        "decision_ok_ratio",
        ok as f64 / attempted as f64,
        "ratio",
        client.index,
    );
    m.push("peak_rss_mib", peak_rss_mib(), "MiB", 1);

    // Correctness: verified records only, a repeatable set-up, a fault
    // trace and RM that replay identically, and an RM a rebuild reproduces.
    let mut replay_log = Log::default();
    let mut replay = Client::new(seed);
    while replay.index < REPLAY {
        replay.step(&mut spare, &inputs, &mut replay_log, false, false);
    }
    let replayed = Client::digests(&spare);
    let checkpoint = checkpoint.expect("loop ran past the replay checkpoint");
    let setups_agree = setup_digests.windows(2).all(|w| w[0] == w[1]);
    let now = clock(client.index);
    o.engine.recompute_epoch(now);
    let rebuilt = rebuild_matches(&o.engine, now);
    let mut notes =
        vec![
            format!(
            "fault_digest@decision{REPLAY}={:016x} rm_digest@decision{REPLAY}={:016x} replay={}",
            checkpoint.0,
            checkpoint.1,
            if replayed == checkpoint { "identical" } else { "DIFFERENT" }
        ),
            format!(
                "decisions={} accepts={} errors={} partial={} unverified={} publish_errors={} \
             setup_publish_errors={}",
                client.index,
                log.accepts,
                log.errors,
                log.partial,
                log.unverified,
                log.publish_errors,
                o.setup_publish_errors
            ),
        ];
    let checks = [
        (log.unverified == 0, "an unverified record was served"),
        (setups_agree, "set-ups left different fault traces"),
        (
            replayed == checkpoint,
            "the replayed decisions left a different state",
        ),
        (rebuilt, "the last published RM differs from a full rebuild"),
    ];
    let mut correct = true;
    for (ok, what) in checks {
        if !ok {
            eprintln!("check failed: {what}");
            notes.push(format!("check failed: {what}"));
            correct = false;
        }
    }

    if trace {
        let stats = o.dht.stats();
        let msgs = stats.total() - stats_before.total();
        let retried = stats.retried - stats_before.retried;
        let d = log.decision_us.len();
        m.push("dht.retrieve_us_p50", log.retrieve_us.pct(50.0), "us", d);
        m.push("dht.retrieve_us_p99", log.retrieve_us.pct(99.0), "us", d);
        m.push(
            "dht.publish_us_p50",
            log.publish_us.pct(50.0),
            "us",
            log.publish_us.len(),
        );
        m.push(
            "dht.tick_ms_p50",
            log.tick_ms.pct(50.0),
            "ms",
            log.tick_ms.len(),
        );
        let a = attempted as f64;
        m.push(
            "dht.cache_hit_ratio",
            log.cache_hits as f64 / a,
            "ratio",
            client.index,
        );
        m.push(
            "dht.msgs_per_decision",
            msgs as f64 / a,
            "count",
            client.index,
        );
        m.push(
            "dht.retries_per_decision",
            retried as f64 / a,
            "count",
            client.index,
        );
        m.push(
            "dht.partial_ratio",
            log.partial as f64 / a,
            "ratio",
            client.index,
        );
        m.push(
            "dht.error_ratio",
            log.errors as f64 / a,
            "ratio",
            client.index,
        );
        m.push(
            "dht.records_per_retrieve",
            log.records as f64 / a,
            "count",
            client.index,
        );
        let snap = mdrep_obs::global().snapshot();
        let lookups = snap.counter("dht.lookup.count").unwrap_or(0);
        let hops = snap.counter("dht.lookup.hops").unwrap_or(0);
        m.push(
            "dht.lookup_hops_mean",
            hops as f64 / lookups.max(1) as f64,
            "count",
            lookups as usize,
        );
        overhead_ratio(&log.traced_us, &log.untraced_us, &mut m);
        log.reads.per_layer(&mut m);
        log.epochs.per_layer(&mut m);
        let (kernels, consistent) = traced_kernels(&o.engine, now);
        correct &= consistent;
        m.0.extend(kernels.0);
        notes.push(log.epochs.ledger.sum_check());
    }
    Outcome {
        metrics: m,
        correct,
        valid: true,
        attempted,
        failed: log.errors,
        notes,
    }
}
