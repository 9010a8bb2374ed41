//! The Figure 2 walkthrough: evaluation co-publication in a DHT overlay.
//!
//! Reproduces every numbered step of the paper's framework figure:
//!
//! 1. publication of a file's evaluation (`EvaluationInfo` with signature),
//! 2. update via regular republication,
//! 3. retrieval of a file's evaluation array,
//! 4. calculation of a user's reputation,
//! 5. calculation of a file's reputation (Equation 9),
//! 6. service differentiation for the requester,
//!
//! plus the Section 4.2 security checks: a forged record is rejected and a
//! copied evaluation list is caught by the proactive audit.
//!
//! Run with: `cargo run --example dht_overlay`

use mdrep_repro::core::{Auditor, OwnerEvaluation, Params, ReputationEngine, ServicePolicy};
use mdrep_repro::crypto::KeyRegistry;
use mdrep_repro::dht::{Dht, DhtConfig, EvaluationInfo, EvaluationPublisher, Key};
use mdrep_repro::types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64-node overlay with a key registry standing in for the PKI.
    let mut dht = Dht::new(DhtConfig::default());
    let mut registry = KeyRegistry::new();
    let mut keys = Vec::new();
    for i in 0..64 {
        let user = UserId::new(i);
        dht.join(user, SimTime::ZERO);
        keys.push(registry.register(user, 9000 + i));
    }
    println!("overlay: {} nodes online", dht.online_count());

    let publisher = EvaluationPublisher::new();
    let file = FileId::new(77);
    let (u1, u2, u3, u4) = (
        UserId::new(1),
        UserId::new(2),
        UserId::new(3),
        UserId::new(4),
    );

    // Step 1 — publication: three owners co-publish signed evaluations.
    for (user, value) in [(u1, 1.0), (u2, 0.9), (u3, 0.1)] {
        let key = &keys[user.as_u64() as usize];
        let replicas = publisher.publish(
            &mut dht,
            key,
            user,
            file,
            Evaluation::new(value)?,
            SimTime::ZERO,
        )?;
        println!("step 1: {user} published evaluation {value} ({replicas} replicas)");
    }

    // Step 2 — update: u1 republishes 20 hours later, refreshing the TTL.
    let t20h = SimTime::ZERO + SimDuration::from_hours(20);
    let refreshed = dht.republish(u1, t20h)?;
    println!("step 2: {u1} republished {refreshed} record(s) at t+20h");

    // Step 3 — retrieval: u4 fetches the evaluation array before deciding
    // whether to download.
    let records = publisher.retrieve(&mut dht, &registry, u4, file, t20h)?;
    println!(
        "step 3: {u4} retrieved {} signed evaluation(s)",
        records.len()
    );
    for r in &records {
        println!(
            "        {} (signature {})",
            r.info,
            if r.valid { "ok" } else { "BAD" }
        );
    }

    // Security check (attack 1): a forged record claiming to be u1 fails
    // verification and is flagged.
    let forged = EvaluationInfo::signed(file, u1, Evaluation::BEST, &keys[5]);
    dht.store(UserId::new(5), Key::for_file(file), forged.encode(), t20h)?;
    let with_forgery = publisher.retrieve(&mut dht, &registry, u4, file, t20h)?;
    let bad = with_forgery.iter().filter(|r| !r.valid).count();
    println!("attack 1: {bad} forged record(s) detected and rejected");

    // Step 4 — u4 computes reputations from its own history: it has
    // previously downloaded good files from u1 and u2, and got burned by u3.
    let mut engine = ReputationEngine::new(Params::default());
    for (uploader, quality) in [(u1, 1.0), (u2, 1.0), (u3, 0.0)] {
        let f = FileId::new(1000 + uploader.as_u64());
        engine.observe_download(SimTime::ZERO, u4, uploader, f, FileSize::from_mib(50));
        engine.observe_vote(SimTime::ZERO, u4, f, Evaluation::new(quality)?);
    }
    engine.recompute(t20h);
    println!(
        "step 4: {u4}'s reputations: {u1} {:.3}, {u2} {:.3}, {u3} {:.3}",
        engine.view().reputation(u4, u1),
        engine.view().reputation(u4, u2),
        engine.view().reputation(u4, u3),
    );

    // Step 5 — file reputation from the verified records (Equation 9).
    let owner_evals: Vec<OwnerEvaluation> = with_forgery
        .iter()
        .filter(|r| r.valid)
        .map(|r| OwnerEvaluation::new(r.info.owner, r.info.evaluation))
        .collect();
    let decision = engine.view().decide_download(u4, &owner_evals);
    println!("step 5: {u4}'s verdict on {file}: {decision}");

    // Step 6 — service differentiation: how u1 would serve u4's request.
    // u1 trusts u4 because both evaluated the same files similarly — here
    // we seed that with a rating for brevity.
    engine.observe_rank(u1, u4, Evaluation::BEST);
    engine.recompute(t20h);
    let service = engine.view().service(u1, u4, &ServicePolicy::default());
    println!("step 6: {u1} grants {u4}: {service}");

    // Attack 3: a copied evaluation list is caught by the proactive audit.
    let mut auditor = Auditor::new(0.3);
    let honest_list = engine.published_evaluations(u4, t20h);
    auditor.audit(t20h, u4, &honest_list); // baseline
    let copied: std::collections::BTreeMap<_, _> = honest_list
        .iter()
        .map(|(&f, &e)| (f, Evaluation::clamped(1.0 - e.value())))
        .collect();
    let outcome = auditor.audit(t20h, u4, &copied);
    println!("attack 3: audit outcome after list swap: {outcome}");

    Ok(())
}
