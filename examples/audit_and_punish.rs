//! Proactive audits and punishment (Section 4.2, attack 3): a virtual
//! user re-examines published evaluation lists at random; a user caught
//! swapping in a copied list is punished — its reputation reads as zero,
//! its published evaluations stop counting in Equation 9, and uploaders
//! serve it as a stranger.
//!
//! Run with: `cargo run --example audit_and_punish`

use mdrep_repro::core::{Auditor, OwnerEvaluation, Params, ReputationEngine, ServicePolicy};
use mdrep_repro::types::{Evaluation, SimDuration, SimTime, UserId};
use mdrep_repro::workload::{BehaviorMix, TraceBuilder, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build reputation state from a few days of honest traffic.
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(80)
            .titles(120)
            .days(4)
            .behavior_mix(BehaviorMix::all_honest())
            .seed(99)
            .build()?,
    )
    .generate();
    let mut engine = ReputationEngine::new(Params::default());
    for event in trace.events() {
        engine.observe_trace_event(event, trace.catalog());
    }
    let now = SimTime::ZERO + SimDuration::from_days(4);
    engine.recompute(now);

    let mut auditor = Auditor::new(0.3);

    // Round 1: baseline snapshots of a few random-ish users.
    let subjects: Vec<UserId> = trace
        .population()
        .iter()
        .map(|p| p.id())
        .filter(|u| engine.published_evaluations(*u, now).len() >= 3)
        .take(5)
        .collect();
    for &user in &subjects {
        let outcome = engine.audit_user(&mut auditor, user, now);
        println!("audit #1 of {user}: {outcome}");
    }

    // Round 2: honest users drift naturally and pass.
    let later = now + SimDuration::from_hours(12);
    for &user in &subjects[1..] {
        let outcome = engine.audit_user(&mut auditor, user, later);
        println!("audit #2 of {user}: {outcome}");
        assert!(!engine.view().is_punished(user));
    }

    // The cheater copies someone else's (inverted) list: re-vote everything
    // flipped, then get audited.
    let cheater = subjects[0];
    let current = engine.published_evaluations(cheater, later);
    for (&file, &value) in &current {
        let flipped = if value.value() >= 0.5 {
            Evaluation::WORST
        } else {
            Evaluation::BEST
        };
        engine.observe_vote(later, cheater, file, flipped);
    }
    let outcome = engine.audit_user(&mut auditor, cheater, later);
    println!("audit #2 of {cheater} (after list swap): {outcome}");
    assert!(engine.view().is_punished(cheater));

    // Consequences: zero reputation, evaluations ignored, stranger service.
    let observer = subjects[1];
    println!(
        "{observer}'s reputation in {cheater}: {:.4} (punished)",
        engine.view().reputation(observer, cheater)
    );
    let evals = [OwnerEvaluation::new(cheater, Evaluation::BEST)];
    println!(
        "Equation 9 with only the cheater's evaluation: {:?}",
        engine.view().file_reputation(observer, &evals)
    );
    let policy = ServicePolicy::default();
    let service = engine.view().service(observer, cheater, &policy);
    println!("service {observer} grants {cheater}: {service}");
    assert_eq!(service, policy.decide_scaled(0.0), "stranger service");

    // A pardon (e.g. after the interval expires) restores the user.
    engine.pardon(cheater);
    println!(
        "after pardon, reputation restored to {:.4}",
        engine.view().reputation(observer, cheater)
    );
    Ok(())
}
