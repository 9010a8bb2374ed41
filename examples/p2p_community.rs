//! A living P2P community: the full client-node composition
//! (`mdrep-node`) running a small neighbourhood over simulated days —
//! publications, downloads, votes, pollution, audits, and churn, all
//! through the DHT with signed evaluations.
//!
//! Run with: `cargo run --example p2p_community`

use mdrep_repro::node::{Community, DownloadOutcome, NodeConfig};
use mdrep_repro::types::{Evaluation, FileId, FileSize, SimDuration, SimTime, UserId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut community = Community::new(NodeConfig::default());
    let mut rng = StdRng::seed_from_u64(7);
    let peers = 24u64;
    for i in 0..peers {
        community.join(UserId::new(i), SimTime::ZERO);
    }
    println!("community: {} peers online", community.len());

    // Peers 0–19 are honest; 20–23 pollute.
    let honest = 20u64;
    let mut fakes = Vec::new();
    let mut authentic = Vec::new();

    // Day 0: everyone publishes one file (fakes come from the polluters).
    for i in 0..peers {
        let file = FileId::new(i);
        community.publish(UserId::new(i), file, FileSize::from_mib(20), SimTime::ZERO)?;
        if i < honest {
            authentic.push(file);
        } else {
            fakes.push(file);
        }
    }

    // Five simulated days of activity.
    let mut now = SimTime::ZERO;
    let mut completed = 0;
    let mut rejected = 0;
    let mut fake_downloads = 0;
    for day in 1..=5u64 {
        for _ in 0..60 {
            now += SimDuration::from_mins(20);
            let downloader = UserId::new(rng.random_range(0..honest));
            let all_files = authentic.len() + fakes.len();
            let idx = rng.random_range(0..all_files);
            let (file, is_fake) = if idx < authentic.len() {
                (authentic[idx], false)
            } else {
                (fakes[idx - authentic.len()], true)
            };
            match community.request(downloader, file, now) {
                Ok(DownloadOutcome::Completed { .. }) => {
                    completed += 1;
                    if is_fake {
                        fake_downloads += 1;
                        // The downloader discovers the fake: vote, delete.
                        community.vote(downloader, file, Evaluation::WORST, now)?;
                        let _ = community.delete(downloader, file, now);
                    } else if rng.random::<f64>() < 0.4 {
                        community.vote(downloader, file, Evaluation::BEST, now)?;
                    }
                }
                Ok(DownloadOutcome::RejectedAsFake { .. }) => {
                    rejected += 1;
                }
                Ok(DownloadOutcome::NoSource) => {}
                Err(err) => println!("request error: {err}"),
            }
        }
        // Nightly maintenance: recompute, republish, audits; plus churn.
        let forgeries = community.tick(now);
        let bounced = UserId::new(rng.random_range(0..peers));
        community.leave(bounced);
        community.join(bounced, now);
        println!(
            "day {day}: {completed} downloads so far, {rejected} rejected as fake, \
             {fake_downloads} fakes slipped through, {forgeries} forgeries flagged"
        );
    }

    // The verdict: how do honest peers see the polluters by the end?
    let judge = UserId::new(0);
    let engine = community.peer(judge).expect("joined").engine();
    let mean = |range: std::ops::Range<u64>| {
        let values: Vec<f64> = range
            .clone()
            .map(|i| engine.view().reputation(judge, UserId::new(i)))
            .collect();
        values.iter().sum::<f64>() / values.len() as f64
    };
    println!(
        "\npeer {judge}'s final view: honest peers {:.4}, polluters {:.4}",
        mean(1..honest),
        mean(honest..peers),
    );
    println!(
        "DHT traffic: {} messages total ({} dropped)",
        community.dht().stats().total(),
        community.dht().stats().dropped,
    );
    Ok(())
}
