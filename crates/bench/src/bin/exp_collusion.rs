//! **COLL** — collusion resistance (Section 4.2, attack 4; Lian et al.'s
//! analysis): a clique of colluders trades transactions, votes, and
//! ratings among itself to inflate its members' reputations.
//!
//! EigenTrust's *global* rank is known to suffer false positives here: the
//! clique's internal traffic feeds real eigenvector mass. The paper's
//! multi-dimensional reputation is *personalized* — honest users derive
//! trust from their own (bad) experiences with the clique and from opinion
//! similarity, so the clique only fools itself.
//!
//! Reported: reputation inflation = (honest users' mean view of a
//! colluder) / (honest users' mean view of an honest peer) for each
//! system, over a clique-size sweep.
//!
//! Run: `cargo run -p mdrep-bench --bin exp_collusion --release`

use mdrep::{Params, ReputationEngine};
use mdrep_baselines::{EigenTrust, EigenTrustConfig, ReputationSystem};
use mdrep_bench::Table;
use mdrep_types::{Evaluation, FileId, FileSize, SimTime, UserId};

const HONEST: u64 = 50;
const INTRA_CLIQUE_TXNS: u64 = 20;

fn experiment() {
    let mut table = Table::new(
        "Reputation inflation of a colluder clique (honest population: 50)",
        &["clique_size", "eigentrust_inflation", "multidim_inflation"],
    );

    for &clique in &[2u64, 5, 10, 20] {
        let (et, md) = run_scenario(clique);
        table.row_f64(&[clique as f64, et, md]);
    }

    table.finish("exp_collusion");
    println!(
        "\npaper claim: the global eigenvector rewards clique-internal traffic\n\
         (inflation grows with clique size) while the personalized multi-trust\n\
         view keeps colluders near stranger level for honest users."
    );
}

/// Returns `(eigentrust_inflation, multidim_inflation)` for one clique size.
fn run_scenario(clique: u64) -> (f64, f64) {
    let honest: Vec<UserId> = (0..HONEST).map(UserId::new).collect();
    let colluders: Vec<UserId> = (HONEST..HONEST + clique).map(UserId::new).collect();
    let t = SimTime::ZERO;
    let size = FileSize::from_mib(50);
    let mut next_file = 0u64;
    let mut fresh_file = || {
        next_file += 1;
        FileId::new(next_file)
    };

    let mut et = EigenTrust::new(EigenTrustConfig {
        pretrusted: vec![honest[0]],
        ..EigenTrustConfig::default()
    });
    let mut md = ReputationEngine::new(Params::default());

    // Honest background traffic: each honest user downloads good files
    // from a few peers and votes honestly.
    for (i, &downloader) in honest.iter().enumerate() {
        for step in 1..=5u64 {
            let uploader = honest[(i as u64 + step) as usize % honest.len()];
            if uploader == downloader {
                continue;
            }
            let file = fresh_file();
            et.record_transaction(downloader, uploader, true);
            md.observe_download(t, downloader, uploader, file, size);
            md.observe_vote(t, downloader, file, Evaluation::BEST);
            // The uploader holds (and implicitly endorses) its own file.
            md.observe_publish(t, uploader, file);
            md.observe_vote(t, uploader, file, Evaluation::BEST);
        }
    }

    // The clique: heavy internal traffic, maximal mutual votes and ranks.
    for &a in &colluders {
        for &b in &colluders {
            if a == b {
                continue;
            }
            let file = fresh_file();
            for _ in 0..INTRA_CLIQUE_TXNS {
                et.record_transaction(a, b, true);
            }
            md.observe_download(t, a, b, file, size);
            md.observe_vote(t, a, file, Evaluation::BEST);
            md.observe_publish(t, b, file);
            md.observe_vote(t, b, file, Evaluation::BEST);
            md.observe_rank(a, b, Evaluation::BEST);
        }
    }

    // Real colluders bootstrap credibility: each serves some genuine files
    // to honest users (satisfactory; this is what links the clique into
    // the honest web of trust) …
    for (c, &colluder) in colluders.iter().enumerate() {
        for step in 0..6u64 {
            let customer = honest[(c as u64 * 11 + step) as usize % honest.len()];
            let file = fresh_file();
            et.record_transaction(customer, colluder, true);
            md.observe_download(t, customer, colluder, file, size);
            md.observe_vote(t, customer, file, Evaluation::BEST);
            md.observe_publish(t, colluder, file);
            md.observe_vote(t, colluder, file, Evaluation::BEST);
        }
    }
    // … and also pollutes: fakes served to other honest users, who vote
    // them down and blacklist the uploader.
    for (c, &colluder) in colluders.iter().enumerate() {
        for step in 0..4u64 {
            let victim = honest[(c as u64 * 7 + step + 25) as usize % honest.len()];
            let file = fresh_file();
            et.record_transaction(victim, colluder, false);
            md.observe_download(t, victim, colluder, file, size);
            md.observe_vote(t, victim, file, Evaluation::WORST);
            md.observe_rank(victim, colluder, Evaluation::WORST);
            // The colluder of course praises its own fake.
            md.observe_publish(t, colluder, file);
            md.observe_vote(t, colluder, file, Evaluation::BEST);
        }
    }

    et.recompute(t);
    md.recompute(t);

    // Inflation metric per system.
    let et_view = |target: UserId| et.reputation(honest[1], target);
    let md_view = |viewer: UserId, target: UserId| md.view().reputation(viewer, target);

    let et_colluder = mean(colluders.iter().map(|&c| et_view(c)));
    let et_honest = mean(honest.iter().skip(1).map(|&h| et_view(h)));

    let md_colluder = mean(
        honest
            .iter()
            .flat_map(|&v| colluders.iter().map(move |&c| (v, c)))
            .map(|(v, c)| md_view(v, c)),
    );
    let md_honest = mean(
        honest
            .iter()
            .flat_map(|&v| honest.iter().map(move |&h| (v, h)))
            .filter(|(v, h)| v != h)
            .map(|(v, h)| md_view(v, h)),
    );

    (ratio(et_colluder, et_honest), ratio(md_colluder, md_honest))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let collected: Vec<f64> = values.collect();
    if collected.is_empty() {
        0.0
    } else {
        collected.iter().sum::<f64>() / collected.len() as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn main() {
    experiment();
    mdrep_bench::write_metrics_if_requested();
}
