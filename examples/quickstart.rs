//! Quickstart: build the multi-dimensional reputation engine from a small
//! synthetic trace and query everything the paper promises — user
//! reputations, fake-file identification, and service differentiation.
//!
//! Run with: `cargo run --example quickstart`

use mdrep_repro::baselines::{MultiDimensional, ReputationSystem};
use mdrep_repro::core::{OwnerEvaluation, Params, ServicePolicy};
use mdrep_repro::types::{Evaluation, SimDuration, SimTime, UserId};
use mdrep_repro::workload::{BehaviorMix, TraceBuilder, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a week of synthetic Maze-like traffic: 120 users, some
    //    free-riders and polluters, 30% of popular titles polluted.
    let config = WorkloadConfig::builder()
        .users(120)
        .titles(200)
        .days(7)
        .behavior_mix(BehaviorMix::realistic())
        .pollution_rate(0.3)
        .seed(42)
        .build()?;
    let trace = TraceBuilder::new(config).generate();
    let stats = trace.stats();
    println!(
        "trace: {} events, {} downloads ({} of fakes), {} votes, {} user ratings",
        stats.events, stats.downloads, stats.fake_downloads, stats.votes, stats.ranks
    );

    // 2. Feed every event into the paper's reputation system.
    let mut system = MultiDimensional::new(Params::default());
    for event in trace.events() {
        system.observe(event, trace.catalog());
    }
    let end = SimTime::ZERO + SimDuration::from_days(7);
    system.recompute(end);

    // 3. Request coverage (the Figure 1 metric): how many download
    //    requests land on a pair the trust relationship already covers?
    let coverage = system.request_coverage(&trace.request_pairs());
    println!("request coverage after 7 days: {:.1}%", coverage * 100.0);

    // 4. Identify a fake file through Equation 9: take a real polluted
    //    file from the catalog and ask a bystander's opinion.
    let engine = system.engine();
    let fake_file = trace
        .catalog()
        .titles()
        .flat_map(|t| t.files())
        .find(|&&f| !trace.catalog().is_authentic(f))
        .copied();
    if let Some(fake) = fake_file {
        // Collect the published evaluations of whoever evaluated it.
        let evals: Vec<OwnerEvaluation> = engine
            .evaluations()
            .column(fake, end, engine.params())
            .map(|(owner, e)| OwnerEvaluation::new(owner, e))
            .take(16)
            .collect();
        let viewer = UserId::new(0);
        match engine.view().file_reputation(viewer, &evals) {
            Some(r) => println!(
                "fake file {fake}: reputation {r} as seen by {viewer} ({} evaluators) → {}",
                evals.len(),
                engine.view().decide_download(viewer, &evals),
            ),
            None => println!("fake file {fake}: no reputable evaluators for {viewer} yet"),
        }
    }

    // 5. Service differentiation: compare the service an active honest
    //    user gets against a stranger, from one uploader's point of view.
    let policy = ServicePolicy::default();
    let uploader = trace
        .population()
        .iter()
        .find(|p| p.behavior() == mdrep_repro::workload::Behavior::Honest)
        .map(|p| p.id())
        .expect("an honest user exists");
    let best_known = (0..trace.population().len() as u64)
        .map(UserId::new)
        .max_by(|&a, &b| {
            engine
                .view()
                .reputation(uploader, a)
                .partial_cmp(&engine.view().reputation(uploader, b))
                .expect("finite")
        })
        .expect("non-empty");
    let friend_service = engine.view().service(uploader, best_known, &policy);
    let stranger_service = engine.view().service(uploader, UserId::new(9_999), &policy);
    println!("service for best-known peer: {friend_service}");
    println!("service for a stranger:      {stranger_service}");

    // 6. Sanity: an honest sharer outranks a polluter in the eyes of an
    //    honest observer (averaged over observers to smooth noise).
    let mean_rep = |target_filter: fn(mdrep_repro::workload::Behavior) -> bool| {
        let mut total = 0.0;
        let mut count = 0;
        for viewer in trace.population().iter() {
            for target in trace.population().iter() {
                if viewer.id() != target.id()
                    && viewer.behavior() == mdrep_repro::workload::Behavior::Honest
                    && target_filter(target.behavior())
                {
                    total += engine.view().reputation(viewer.id(), target.id());
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let honest_rep = mean_rep(|b| b == mdrep_repro::workload::Behavior::Honest);
    let polluter_rep = mean_rep(|b| b.is_polluting());
    println!("mean reputation honest→honest {honest_rep:.4} vs honest→polluter {polluter_rep:.4}");

    let eval_check = Evaluation::new(0.5)?;
    assert!(eval_check.value() > 0.0);
    Ok(())
}
