//! **RETAIN** — the Section 3.2 / 4.3 storage claim: because users and
//! files churn, "we only need to store the evaluations within an interval"
//! — old evaluations stop contributing to request coverage, so bounding
//! the store costs little accuracy while capping its size.
//!
//! We replay a 20-day trace, expiring evaluations at different intervals,
//! and report the coverage of the final reputation matrix over the *last
//! five days* of requests (the live traffic that matters) together with
//! the evaluation-store size.
//!
//! Run: `cargo run -p mdrep-bench --bin exp_retention_interval --release`

use mdrep::{Params, ReputationEngine};
use mdrep_bench::Table;
use mdrep_types::{SimDuration, SimTime};
use mdrep_workload::{EventKind, TraceBuilder, WorkloadConfig};

fn experiment() {
    let days = 20u64;
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(300)
            .titles(600)
            .days(days)
            .downloads_per_user_day(4.0)
            .title_lifetime_days(6.0) // brisk file churn
            .arrival_spread_days(6)
            .pollution_rate(0.2)
            .seed(2020)
            .build()
            .expect("valid config"),
    )
    .generate();
    let end = SimTime::ZERO + SimDuration::from_days(days);
    let recent_cutoff = SimTime::ZERO + SimDuration::from_days(days - 5);
    let recent_requests: Vec<_> = trace
        .downloads()
        .filter(|(t, _, _, _)| *t >= recent_cutoff)
        .map(|(_, d, u, _)| (d, u))
        .collect();
    println!(
        "trace: {} downloads total, {} in the final 5 days",
        trace.stats().downloads,
        recent_requests.len()
    );

    let mut table = Table::new(
        "Coverage of recent requests vs evaluation retention interval",
        &["interval_days", "store_records", "recent_coverage"],
    );

    for &interval_days in &[3u64, 7, 14, 30, 90] {
        let params = Params::builder()
            .evaluation_interval(SimDuration::from_days(interval_days))
            .build()
            .expect("valid params");
        let mut engine = ReputationEngine::new(params);
        // Replay with daily expiry, as a real peer would run it.
        let mut next_expire = SimTime::ZERO + SimDuration::from_days(1);
        for event in trace.events() {
            while event.time >= next_expire {
                engine.expire(next_expire);
                next_expire += SimDuration::from_days(1);
            }
            if !matches!(event.kind, EventKind::Join { .. }) {
                engine.observe_trace_event(event, trace.catalog());
            }
        }
        engine.expire(end);
        engine.recompute(end);
        let coverage = engine.view().request_coverage(&recent_requests);
        table.row_f64(&[
            interval_days as f64,
            engine.evaluations().len() as f64,
            coverage,
        ]);
    }

    table.finish("exp_retention_interval");
    println!(
        "\npaper claim: most files have a small life cycle, so a bounded retention\n\
         interval keeps nearly all of the coverage that matters (recent traffic)\n\
         while the evaluation store stays a fraction of the unbounded size."
    );
}

fn main() {
    experiment();
    mdrep_bench::write_metrics_if_requested();
}
