//! The two engine workloads, and the epoch and read logs every workload
//! keeps.
//!
//! - `maze-live`: Maze-shaped traffic on an advancing event-time clock. One
//!   writer thread ingests and publishes an epoch every [`EPOCH_EVENTS`]
//!   events while one reader thread issues download decisions open-loop at
//!   a fixed rate. The schedule fixes the offered load; the end-to-end
//!   decision time is the call's own, and the latency from each decision's
//!   due time (which adds the host's wake-up delay of the reader) is a
//!   per-layer figure. On a small shared host that delay swings the
//!   due-time tail between microseconds and milliseconds from one run to
//!   the next. The reader sleeps between decisions rather than spinning,
//!   so it does not hold the second core.
//! - `longtail-burst`: a large long-tail catalogue whose history is older
//!   than the retention saturation, then a burst stamped with one clock
//!   value. Two producer threads, each owning half the actors, meet the
//!   epoch driver at a barrier; after each publish the driver makes a few
//!   closed-loop decisions against the fresh snapshot.

use crate::layers::{self, Ledger};
use crate::report::{peak_rss_mib, Metrics, Sample, NS_PER_MS, NS_PER_S, NS_PER_US};
use crate::traffic::{describe, owner_arrays, Traffic, TrafficShape};
use crate::{set_tracing, Outcome};
use mdrep::{EngineEvent, OwnerEvaluation, Params, RecomputeMode, ShardedEngine};
use mdrep_types::{SimDuration, SimTime, UserId};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Events per published epoch.
pub const EPOCH_EVENTS: usize = 500;
/// Ingest shards of the engine under test.
const SHARDS: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The `RM` digest is taken after this many epochs of the run, so that it
/// names the same state on every run of one seed.
const DIGEST_EPOCH: usize = 100;
/// Evaluators per owner array a decision sees.
const OWNER_CAP: usize = 64;
/// Decision inputs generated per run (cycled).
const READ_INPUTS: usize = 1 << 16;
/// Kernel timing repetitions on the final state (traced runs).
const KERNEL_REPS: usize = 3;
/// Traced runs record one read span in this many.
const READ_SPAN_EVERY: usize = 1024;

const MAZE: TrafficShape = TrafficShape {
    users: 10_000,
    titles: 2_500,
    title_zipf: 0.8,
    polluted_titles: 0.2,
};
/// Download episodes in maze-live's week of history.
const MAZE_HISTORY: usize = 6_000;
/// Open-loop decision rate of the maze-live reader.
const MAZE_READ_RATE: f64 = 5_000.0;
/// The reader sleeps until this long before each decision is due and spins
/// the rest, so that it idles between decisions instead of holding a core.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(100);
/// A run whose reader ends the window further behind its schedule than
/// this share of the window fell behind: the rate exceeded what the read
/// path served. (A single host stall of a few milliseconds does not.)
const MAZE_BACKLOG_SHARE: f64 = 0.01;

const LONGTAIL: TrafficShape = TrafficShape {
    users: 40_000,
    titles: 80_000,
    title_zipf: 0.3,
    polluted_titles: 0.05,
};
/// Download episodes in longtail-burst's month of history.
const LONGTAIL_HISTORY: usize = 100_000;
/// Closed-loop decisions after each longtail-burst publish.
const LONGTAIL_PROBES: usize = 64;

pub fn maze_shape() -> String {
    format!(
        "{}; history_episodes={MAZE_HISTORY} (one week, sliding) epoch_events={EPOCH_EVENTS} \
         read_rate={MAZE_READ_RATE}/s owner_cap={OWNER_CAP} shards={SHARDS}",
        describe(&MAZE)
    )
}

pub fn longtail_shape() -> String {
    format!(
        "{}; history_episodes={LONGTAIL_HISTORY} (one month, saturated) epoch_events={EPOCH_EVENTS} \
         producers=2 probes_per_epoch={LONGTAIL_PROBES} shards={SHARDS}",
        describe(&LONGTAIL)
    )
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds the engine from `history` `SETUP_REPS` times and keeps the last;
/// returns it with the set-up time sample.
fn set_up(params: &Params, history: &[EngineEvent], now: SimTime) -> (ShardedEngine, Sample) {
    let mut times = Sample::default();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t = Instant::now();
        let e = ShardedEngine::new(params.clone(), SHARDS);
        for event in history {
            e.ingest(*event);
        }
        e.full_rebuild_epoch(now);
        times.push_duration(t.elapsed(), NS_PER_S);
        engine = Some(e);
    }
    (engine.expect("at least one set-up"), times)
}

/// Per-epoch observations shared by both engine workloads.
#[derive(Default)]
pub(crate) struct EpochLog {
    epoch_ms: Sample,
    traced_ms: Sample,
    untraced_ms: Sample,
    full: usize,
    pub ledger: Ledger,
    dirty_rows: Sample,
    dirty_fraction: Sample,
    useful_ratio: Sample,
    publish_mib: Sample,
    pub pending_max: usize,
    /// Epochs run, measured or not.
    count: usize,
    digest: Option<u64>,
}

/// How an epoch is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EpochMode {
    /// Past the window, run only to reach the digest epoch.
    Catchup,
    /// An untraced run.
    Plain,
    /// A traced run's epoch with tracing off (the overhead baseline).
    Untraced,
    /// A traced run's epoch with tracing on.
    Traced,
}

impl EpochMode {
    pub fn of(trace_run: bool, index: usize) -> Self {
        match (trace_run, index.is_multiple_of(2)) {
            (false, _) => Self::Plain,
            (true, true) => Self::Traced,
            (true, false) => Self::Untraced,
        }
    }
}

impl EpochLog {
    /// Runs one timed epoch at `now` and logs it as `mode` says.
    pub fn epoch(&mut self, engine: &ShardedEngine, now: SimTime, mode: EpochMode) {
        let traced = mode == EpochMode::Traced;
        let trace_run = traced || mode == EpochMode::Untraced;
        let was_tracing = mdrep_obs::tracer().is_enabled();
        set_tracing(traced);
        let prev = trace_run.then(|| engine.snapshot());
        let before = traced.then(|| mdrep_obs::global().snapshot());
        let elapsed = {
            let _span = mdrep_obs::trace_span("bench.epoch.recompute");
            let t = Instant::now();
            engine.recompute_epoch(now);
            t.elapsed()
        };
        let after = traced.then(|| mdrep_obs::global().snapshot());
        set_tracing(was_tracing);
        self.count += 1;
        if self.count == DIGEST_EPOCH {
            self.digest = Some(layers::rm_digest(&engine.snapshot()));
        }
        if mode == EpochMode::Catchup {
            return;
        }
        let ms = elapsed.as_nanos() as f64 / NS_PER_MS;
        self.epoch_ms.push(ms);
        if engine.last_recompute_mode() != Some(RecomputeMode::Incremental) {
            self.full += 1;
        }
        if !trace_run {
            return;
        }
        if traced {
            self.traced_ms.push(ms);
        } else {
            self.untraced_ms.push(ms);
        }
        if let (Some(before), Some(after)) = (before, after) {
            self.ledger.record(&before, &after);
        }
        let (dirty, rows, published, bytes) = engine.with_master(|e| {
            let rows = e.components().map_or(0, |c| c.tm.row_count());
            (
                e.last_dirty_rows(),
                rows,
                e.last_publish_rows(),
                e.last_publish_bytes(),
            )
        });
        self.dirty_rows.push(dirty as f64);
        self.dirty_fraction.push(dirty as f64 / rows.max(1) as f64);
        self.publish_mib.push(bytes as f64 / (1024.0 * 1024.0));
        if let Some(prev) = prev {
            let changed = layers::changed_rows(&prev, &engine.snapshot());
            self.useful_ratio
                .push(changed as f64 / published.max(1) as f64);
        }
    }

    /// Measured epochs.
    fn epochs(&self) -> usize {
        self.epoch_ms.len()
    }

    pub fn end_to_end(&self, out: &mut Metrics) {
        let n = self.epochs();
        out.push("epoch_ms_p50", self.epoch_ms.pct(50.0), "ms", n);
        out.push("epoch_ms_p90", self.epoch_ms.pct(90.0), "ms", n);
    }

    pub fn per_layer(&self, out: &mut Metrics) {
        let n = self.epochs();
        self.ledger.metrics(out);
        out.push(
            "epoch.full_share",
            self.full as f64 / n.max(1) as f64,
            "ratio",
            n,
        );
        let d = self.dirty_rows.len();
        out.push(
            "epoch.dirty_rows_p50",
            self.dirty_rows.pct(50.0),
            "count",
            d,
        );
        out.push(
            "epoch.dirty_fraction_p50",
            self.dirty_fraction.pct(50.0),
            "ratio",
            d,
        );
        out.push(
            "epoch.useful_row_ratio",
            self.useful_ratio.pct(50.0),
            "ratio",
            self.useful_ratio.len(),
        );
        out.push(
            "epoch.publish_mib_p50",
            self.publish_mib.pct(50.0),
            "MiB",
            d,
        );
        out.push("ingest.pending_max", self.pending_max as f64, "count", n);
    }

    /// Traced over untraced median epoch time.
    fn overhead(&self, out: &mut Metrics) {
        overhead_ratio(&self.traced_ms, &self.untraced_ms, out);
    }
}

/// `trace.overhead_ratio`: traced over untraced median.
pub(crate) fn overhead_ratio(traced: &Sample, untraced: &Sample, out: &mut Metrics) {
    let ratio = traced.pct(50.0) / untraced.pct(50.0);
    out.push(
        "trace.overhead_ratio",
        if ratio.is_finite() { ratio } else { 0.0 },
        "ratio",
        traced.len() + untraced.len(),
    );
}

/// Read-path observations.
#[derive(Default)]
pub(crate) struct ReadLog {
    /// Time of each decision call, from issue to answer.
    pub service_ns: Sample,
    /// Open loop only: latency from each decision's due time, and how late
    /// the generator issued it.
    due_latency_us: Sample,
    late_us: Sample,
    pub swaps: u64,
    pub stale_max: u64,
    behind: Duration,
}

impl ReadLog {
    fn end_to_end(&self, out: &mut Metrics) {
        let n = self.service_ns.len();
        let us = |p| self.service_ns.pct(p) / NS_PER_US;
        out.push("decision_us_p50", us(50.0), "us", n);
        out.push("decision_us_p90", us(90.0), "us", n);
        out.push("decision_ok_ratio", 1.0, "ratio", n);
    }

    pub fn per_layer(&self, out: &mut Metrics) {
        let n = self.service_ns.len();
        out.push("read.service_ns_p50", self.service_ns.pct(50.0), "ns", n);
        out.push("read.service_ns_p99", self.service_ns.pct(99.0), "ns", n);
        let due = self.due_latency_us.len();
        if due > 0 {
            for (name, p) in [
                ("read.due_latency_us_p50", 50.0),
                ("read.due_latency_us_p90", 90.0),
                ("read.due_latency_us_p99", 99.0),
            ] {
                out.push(name, self.due_latency_us.pct(p), "us", due);
            }
            out.push("read.late_us_p99", self.late_us.pct(99.0), "us", due);
        }
        out.push("read.snapshot_swaps", self.swaps as f64, "count", n);
        out.push("read.stale_epochs_max", self.stale_max as f64, "count", n);
    }
}

/// One decision against the reader's current snapshot; returns its
/// service time.
fn decide(
    engine: &ShardedEngine,
    reader: &mut mdrep::SnapshotReader<'_>,
    log: &mut ReadLog,
    viewer: UserId,
    owners: &[OwnerEvaluation],
    span: bool,
) -> Duration {
    let _span = span.then(|| mdrep_obs::trace_span("bench.read.decide"));
    let t = Instant::now();
    let cached = reader.cached_epoch();
    let snap = reader.current();
    let decision = snap.decide_download(viewer, owners);
    let service = t.elapsed();
    black_box(decision);
    if snap.epoch() != cached {
        log.swaps += 1;
    }
    log.stale_max = log
        .stale_max
        .max(engine.epoch().saturating_sub(snap.epoch()));
    service
}

/// Final correctness gate shared by the engine workloads: no event left
/// behind, and a forced batch rebuild at the same clock reproduces the
/// last published `RM` bit for bit.
pub(crate) fn rebuild_matches(engine: &ShardedEngine, now: SimTime) -> bool {
    let pending = engine.pending_events();
    let published = engine.snapshot();
    engine.full_rebuild_epoch(now);
    let rebuilt = engine.snapshot();
    let same = match (published.reputation_matrix(), rebuilt.reputation_matrix()) {
        (Some(a), Some(b)) => layers::same_matrix(a.matrix(), b.matrix()),
        _ => false,
    };
    if !same {
        eprintln!("check failed: last published RM differs from a full rebuild");
    }
    pending == 0 && same
}

/// The batch kernels on the final state, with tracing on.
pub(crate) fn traced_kernels(engine: &ShardedEngine, now: SimTime) -> (Metrics, bool) {
    set_tracing(true);
    let result = layers::kernels(engine, now, KERNEL_REPS);
    set_tracing(false);
    if !result.1 {
        eprintln!("check failed: a batch kernel did not reproduce the engine's matrix");
    }
    result
}

fn engine_params(threads: usize, evaluation_interval: Option<SimDuration>) -> Params {
    let mut b = Params::builder();
    b.threads(threads);
    if let Some(interval) = evaluation_interval {
        b.evaluation_interval(interval);
    }
    b.build().expect("benchmark parameters are valid")
}

pub fn maze_live(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let week = SimDuration::from_days(7);
    let step = SimDuration::from_ticks(week.as_ticks() / MAZE_HISTORY as u64);
    let quick = SimDuration::from_mins(10);

    // Inputs (not timed).
    let mut traffic = Traffic::new(MAZE, seed);
    let start = SimTime::from_ticks(week.as_ticks());
    let mut history = traffic.publications(start);
    let mut clock = start;
    for _ in 0..MAZE_HISTORY {
        clock += step;
        traffic.episode(clock, quick, &mut history);
    }
    let owners = owner_arrays(&history, OWNER_CAP);
    let requests = traffic.read_requests(READ_INPUTS, &owners);

    // The engine keeps one sliding week: older evaluations expire.
    let params = engine_params(nproc().saturating_sub(1).max(1), Some(week));
    let (engine, setup) = set_up(&params, &history, clock);
    drop(history);

    let mut log = EpochLog::default();
    let stop = AtomicBool::new(false);
    let window_start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let mut events = 0usize;
    let mut ingest_ns = 0u128;
    let mut window_s = 0.0;
    let mut batch = Vec::with_capacity(EPOCH_EVENTS + 4);
    let period_ns = (1e9 / MAZE_READ_RATE) as u64;

    let reads = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut log = ReadLog::default();
            let mut reader = engine.reader();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let due = window_start + Duration::from_nanos(period_ns * i as u64);
                let mut now = Instant::now();
                if due > now + SPIN_BEFORE_DUE {
                    std::thread::sleep(due - now - SPIN_BEFORE_DUE);
                    now = Instant::now();
                }
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                let (viewer, file) = requests[i % requests.len()];
                let span = trace && i.is_multiple_of(READ_SPAN_EVERY);
                let service = decide(&engine, &mut reader, &mut log, viewer, &owners[&file], span);
                let end = Instant::now();
                log.late_us.push_duration(now - due, NS_PER_US);
                log.service_ns.push_duration(service, 1.0);
                log.due_latency_us.push_duration(end - due, NS_PER_US);
                i += 1;
            }
            let last_due = window_start + Duration::from_nanos(period_ns * i as u64);
            log.behind = Instant::now().saturating_duration_since(last_due);
            log
        });

        let mut epoch = 0usize;
        while window_start.elapsed() < window {
            batch.clear();
            while batch.len() < EPOCH_EVENTS {
                clock += step;
                traffic.episode(clock, quick, &mut batch);
            }
            let mode = EpochMode::of(trace, epoch);
            set_tracing(mode == EpochMode::Traced);
            let t = Instant::now();
            {
                let _span = mdrep_obs::trace_span("bench.ingest.batch");
                for event in &batch {
                    engine.ingest(*event);
                }
            }
            ingest_ns += t.elapsed().as_nanos();
            events += batch.len();
            if trace {
                log.pending_max = log.pending_max.max(engine.pending_events());
            }
            {
                let _span = mdrep_obs::trace_span("bench.epoch.expire");
                engine.expire(clock);
            }
            log.epoch(&engine, clock, mode);
            set_tracing(false);
            epoch += 1;
            window_s = window_start.elapsed().as_secs_f64();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread panicked")
    });

    // Reach the digest epoch if the window ended first (unmeasured).
    while log.count < DIGEST_EPOCH {
        batch.clear();
        while batch.len() < EPOCH_EVENTS {
            clock += step;
            traffic.episode(clock, quick, &mut batch);
        }
        for event in &batch {
            engine.ingest(*event);
        }
        engine.expire(clock);
        log.epoch(&engine, clock, EpochMode::Catchup);
    }

    let mut m = Metrics::default();
    m.push("setup_s", setup.pct(50.0), "s", setup.len());
    m.push("events_per_s", events as f64 / window_s, "1/s", events);
    log.end_to_end(&mut m);
    reads.end_to_end(&mut m);
    m.push("peak_rss_mib", peak_rss_mib(), "MiB", 1);

    let mut correct = rebuild_matches(&engine, clock);
    let mut notes = vec![format!(
        "rm_digest@epoch{DIGEST_EPOCH}={:016x}",
        log.digest.unwrap_or(0)
    )];
    if trace {
        reads.per_layer(&mut m);
        log.per_layer(&mut m);
        log.overhead(&mut m);
        m.push(
            "ingest.ns_per_event",
            ingest_ns as f64 / events.max(1) as f64,
            "ns",
            events,
        );
        let (kernels, consistent) = traced_kernels(&engine, clock);
        correct &= consistent;
        m.0.extend(kernels.0);
        crate::dht::not_exercised(&mut m);
        notes.push(log.ledger.sum_check());
    }
    let limit_ms = MAZE_BACKLOG_SHARE * window_s * 1e3;
    let behind_ms = reads.behind.as_secs_f64() * 1e3;
    let valid = behind_ms <= limit_ms;
    notes.push(format!(
        "reader behind schedule at window end: {behind_ms:.3} ms (limit {limit_ms:.0} ms)"
    ));
    Outcome {
        metrics: m,
        correct,
        valid,
        attempted: (events + reads.service_ns.len()) as u64,
        failed: 0,
        notes,
    }
}

pub fn longtail_burst(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let day = SimDuration::from_days(1);
    let burst = SimTime::from_ticks(day.as_ticks() * 40);
    let history_start = burst.as_ticks() - 37 * day.as_ticks();
    let step = 30 * day.as_ticks() / LONGTAIL_HISTORY as u64;
    let quick = SimDuration::from_mins(10);

    let mut traffic = Traffic::new(LONGTAIL, seed);
    let mut history = traffic.publications(SimTime::from_ticks(history_start));
    for i in 0..LONGTAIL_HISTORY {
        let t = SimTime::from_ticks(history_start + i as u64 * step);
        traffic.episode(t, quick, &mut history);
    }
    let owners = owner_arrays(&history, OWNER_CAP);
    let requests = traffic.read_requests(READ_INPUTS, &owners);

    let params = engine_params(nproc(), None);
    let (engine, setup) = set_up(&params, &history, burst);
    drop(history);

    let mut log = EpochLog::default();
    let mut reads = ReadLog::default();
    let mut reader = engine.reader();
    let halves = [Mutex::new(Vec::new()), Mutex::new(Vec::new())];
    // Per producer: (ingest nanoseconds, events ingested).
    let ingest = [Mutex::new((0u128, 0usize)), Mutex::new((0u128, 0usize))];
    let barrier = Barrier::new(3);
    let stop = AtomicBool::new(false);
    let mut events = 0usize;
    let mut probes = 0usize;
    let mut window_s = 0.0;
    let window = Duration::from_secs_f64(seconds);
    let mut batch = Vec::with_capacity(EPOCH_EVENTS + 4);
    let window_start = Instant::now();

    std::thread::scope(|scope| {
        for (half, total) in halves.iter().zip(&ingest) {
            let (engine, barrier, stop) = (&engine, &barrier, &stop);
            scope.spawn(move || loop {
                barrier.wait();
                if stop.load(Ordering::Acquire) {
                    return;
                }
                let events = std::mem::take(&mut *half.lock().expect("half lock"));
                let t = Instant::now();
                {
                    let _span = mdrep_obs::trace_span("bench.ingest.producer");
                    for event in &events {
                        engine.ingest(*event);
                    }
                }
                let mut total = total.lock().expect("ingest total lock");
                total.0 += t.elapsed().as_nanos();
                total.1 += events.len();
                barrier.wait();
            });
        }
        let mut epoch = 0usize;
        let mut measuring = true;
        while measuring || log.count < DIGEST_EPOCH {
            batch.clear();
            while batch.len() < EPOCH_EVENTS {
                traffic.episode(burst, SimDuration::ZERO, &mut batch);
            }
            for (i, half) in halves.iter().enumerate() {
                let mut h = half.lock().expect("half lock");
                h.extend(batch.iter().filter(|e| e.actor().as_u64() % 2 == i as u64));
            }
            let mode = if measuring {
                EpochMode::of(trace, epoch)
            } else {
                EpochMode::Catchup
            };
            set_tracing(mode == EpochMode::Traced);
            barrier.wait();
            barrier.wait();
            if trace && measuring {
                log.pending_max = log.pending_max.max(engine.pending_events());
            }
            log.epoch(&engine, burst, mode);
            epoch += 1;
            if measuring {
                events += batch.len();
                for k in 0..LONGTAIL_PROBES {
                    let (viewer, file) = requests[probes % requests.len()];
                    let span = trace && k == 0;
                    let service = decide(
                        &engine,
                        &mut reader,
                        &mut reads,
                        viewer,
                        &owners[&file],
                        span,
                    );
                    reads.service_ns.push_duration(service, 1.0);
                    probes += 1;
                }
                window_s = window_start.elapsed().as_secs_f64();
                measuring = window_start.elapsed() < window;
            }
            set_tracing(false);
        }
        stop.store(true, Ordering::Release);
        barrier.wait();
    });

    let mut m = Metrics::default();
    m.push("setup_s", setup.pct(50.0), "s", setup.len());
    m.push("events_per_s", events as f64 / window_s, "1/s", events);
    log.end_to_end(&mut m);
    reads.end_to_end(&mut m);
    m.push("peak_rss_mib", peak_rss_mib(), "MiB", 1);

    let mut correct = rebuild_matches(&engine, burst);
    let mut notes = vec![format!(
        "rm_digest@epoch{DIGEST_EPOCH}={:016x}",
        log.digest.unwrap_or(0)
    )];
    if trace {
        reads.per_layer(&mut m);
        log.per_layer(&mut m);
        log.overhead(&mut m);
        let (ns, ingested) = ingest
            .iter()
            .map(|t| *t.lock().expect("ingest total lock"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        m.push(
            "ingest.ns_per_event",
            ns as f64 / ingested.max(1) as f64,
            "ns",
            ingested,
        );
        let (kernels, consistent) = traced_kernels(&engine, burst);
        correct &= consistent;
        m.0.extend(kernels.0);
        crate::dht::not_exercised(&mut m);
        notes.push(log.ledger.sum_check());
    }
    Outcome {
        metrics: m,
        correct,
        valid: true,
        attempted: (events + probes) as u64,
        failed: 0,
        notes,
    }
}
