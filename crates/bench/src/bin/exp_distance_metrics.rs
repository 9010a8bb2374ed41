//! **DIST** — footnote 1 ablation: the paper defines `FT` with the L1
//! distance but notes "there are also many other equations to define the
//! distance between two vectors, such as Kullback-Leibler distance and
//! Euclid distance". This experiment swaps the metric and measures what
//! changes: request coverage of `FM` and fake-identification F1.
//!
//! Run: `cargo run -p mdrep-bench --bin exp_distance_metrics --release`

use mdrep::{DistanceMetric, FileTrustOptions, OwnerEvaluation, Params, ReputationEngine};
use mdrep_bench::Table;
use mdrep_types::{Evaluation, SimTime, UserId};
use mdrep_workload::{BehaviorMix, Trace, TraceBuilder, WorkloadConfig};

fn experiment() {
    let trace = TraceBuilder::new(
        WorkloadConfig::builder()
            .users(200)
            .titles(300)
            .days(5)
            .downloads_per_user_day(5.0)
            .behavior_mix(BehaviorMix::new(0.15, 0.10, 0.04, 0.02).expect("valid"))
            .pollution_rate(0.4)
            .seed(606)
            .build()
            .expect("valid config"),
    )
    .generate();
    let end = SimTime::from_ticks(5 * 86_400);
    println!(
        "trace: {} downloads, pollution 0.4",
        trace.stats().downloads
    );

    let mut table = Table::new(
        "Equation 2 distance-metric ablation",
        &["metric", "fm_nnz", "coverage", "fake_f1"],
    );

    for (label, metric) in [
        ("L1 (paper)", DistanceMetric::L1),
        ("Euclidean", DistanceMetric::Euclidean),
        ("symmetric-KL", DistanceMetric::SymmetricKl),
    ] {
        let options = FileTrustOptions {
            metric,
            ..FileTrustOptions::default()
        };
        let mut engine = ReputationEngine::with_options(Params::default(), options);
        for event in trace.events() {
            engine.observe_trace_event(event, trace.catalog());
        }
        engine.recompute(end);
        let coverage = engine.view().request_coverage(&trace.request_pairs());
        let nnz = engine.components().expect("computed").fm.nnz();
        let f1 = fake_f1(&trace, &engine, end);
        table.row(&[
            label.to_string(),
            nnz.to_string(),
            format!("{coverage:.4}"),
            format!("{f1:.4}"),
        ]);
    }

    table.finish("exp_distance_metrics");
    println!(
        "\nreading: all three metrics produce near-identical coverage (the edge set\n\
         is what matters); the scoring differences shift fake-identification F1\n\
         only slightly — supporting the paper's choice of the cheapest (L1)."
    );
}

/// Majority-panel fake-identification F1 (same procedure as WEIGHT).
fn fake_f1(trace: &Trace, engine: &ReputationEngine, end: SimTime) -> f64 {
    let viewers: Vec<UserId> = trace
        .population()
        .iter()
        .filter(|p| p.behavior() == mdrep_workload::Behavior::Honest)
        .map(|p| p.id())
        .take(20)
        .collect();
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for title in trace.catalog().titles() {
        for &file in title.files() {
            let evals: Vec<OwnerEvaluation> = engine
                .evaluations()
                .column(file, end, engine.params())
                .map(|(owner, e)| OwnerEvaluation::new(owner, e))
                .take(16)
                .collect();
            let is_fake = !trace.catalog().is_authentic(file);
            let mut votes_fake = 0usize;
            let mut votes_total = 0usize;
            for r in engine
                .view()
                .file_reputation_batch(&viewers, &evals)
                .into_iter()
                .flatten()
            {
                votes_total += 1;
                if r.is_below(Evaluation::NEUTRAL) {
                    votes_fake += 1;
                }
            }
            if votes_total == 0 {
                if is_fake {
                    fn_ += 1;
                }
                continue;
            }
            match (is_fake, votes_fake * 2 > votes_total) {
                (true, true) => tp += 1,
                (false, true) => fp += 1,
                (true, false) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

fn main() {
    experiment();
    mdrep_bench::write_metrics_if_requested();
}
