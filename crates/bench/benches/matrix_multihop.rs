//! Multi-hop SpGEMM: exact vs fused-pruned powers at 10 000 users.
//!
//! One group, `matrix_multihop/pipeline_10000`, all timings over the same
//! frozen `TM` (Eq. 7 blend of three synthetic one-step matrices at
//! degrees (32, 24, 16) — denser than `engine_csr`'s workload because
//! multi-hop is exactly where fan-in compounds):
//!
//! - `exact_n1`: the full frozen pipeline at `n = 1` (freeze + blend only)
//!   — today's production operating point and the cost yardstick.
//! - `exact_n2`: one exact SpGEMM step on top — the densification cliff
//!   that made the paper wave multi-hop off (~14× over `n1` in
//!   BENCH_csr at half this density).
//! - `pruned_n2`: the same hop with fused pruning at the recommended
//!   operating point (ε = 1e-3, k = 32, renormalized) — the tentpole.
//!   The top-k fan-out screen is what shrinks the *work* (per-row
//!   products drop from `deg² ≈ 75²` to `32 · 75`), not just the output.
//!   CI gates `exact_n2 / pruned_n2 ≥ 5` (machine-independent ratio), and
//!   the regression gate tracks all three against `BENCH_multihop.json`.
//!
//! The setup checks the pruned power gives the same result on one thread
//! as on many; its equivalence with the reference `BTreeMap` kernels is
//! property-tested in the matrix crate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdrep_matrix::{blend_frozen, CsrMatrix, PowerOptions, SparseMatrix, UserIndex};
use mdrep_types::UserId;
use std::hint::black_box;
use std::sync::Arc;

/// Blend weights matching `Params::default()`.
const WEIGHTS: (f64, f64, f64) = (0.5, 0.3, 0.2);

/// The recommended multi-hop operating point (see EXPERIMENTS.md MULTIHOP).
const EPS: f64 = 1e-3;
const TOP_K: usize = 32;

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Deterministic random raw trust matrix — same LCG family as the other
/// bench harnesses so runs are reproducible without a rand dependency.
fn synth(users: u64, deg: u64, seed: u64) -> SparseMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let mut m = SparseMatrix::new();
    for r in 0..users {
        for _ in 0..=(next() % (2 * deg)) {
            let c = next() % users;
            if c != r {
                let v = ((next() % 1000) + 1) as f64 / 1000.0;
                m.set(UserId::new(r), UserId::new(c), v).expect("valid");
            }
        }
    }
    m
}

/// Freezes and blends the three one-step matrices into `TM` (the part of
/// the pipeline every variant shares).
fn freeze_tm(raw: &(SparseMatrix, SparseMatrix, SparseMatrix), threads: usize) -> CsrMatrix {
    let (a, b, g) = WEIGHTS;
    let index = Arc::new(UserIndex::from_matrices(&[&raw.0, &raw.1, &raw.2]));
    let fm = CsrMatrix::freeze_normalized_sharded(&index, &raw.0, 1);
    let dm = CsrMatrix::freeze_normalized_sharded(&index, &raw.1, 1);
    let um = CsrMatrix::freeze_normalized_sharded(&index, &raw.2, 1);
    blend_frozen(&[(a, &fm), (b, &dm), (g, &um)], threads).expect("valid weights")
}

/// The full frozen pipeline: freeze + blend + power.
fn pipeline(
    raw: &(SparseMatrix, SparseMatrix, SparseMatrix),
    n: u32,
    options: PowerOptions,
    threads: usize,
) -> CsrMatrix {
    freeze_tm(raw, threads).power(n, options, threads)
}

fn bench_multihop_10k(c: &mut Criterion) {
    let raw = (
        synth(10_000, 32, 11),
        synth(10_000, 24, 12),
        synth(10_000, 16, 13),
    );
    let t = threads();
    let pruned = PowerOptions::pruned(EPS).with_top_k(Some(TOP_K));

    // The fused rule is a per-row pure function: spot-check on a small
    // instance that row chunking does not change the timed result.
    let small = (synth(300, 32, 11), synth(300, 24, 12), synth(300, 16, 13));
    let small_tm = freeze_tm(&small, t);
    assert_eq!(
        small_tm.power(2, pruned, t),
        small_tm.power(2, pruned, 1),
        "fused CSR pruning must not depend on the thread count"
    );

    let mut group = c.benchmark_group("matrix_multihop/pipeline_10000");
    group.sample_size(10);
    for (name, n, options) in [
        ("exact_n1", 1u32, PowerOptions::exact()),
        ("exact_n2", 2, PowerOptions::exact()),
        ("pruned_n2", 2, pruned),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &raw, |b, raw| {
            b.iter(|| black_box(pipeline(raw, n, options, t)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multihop_10k);
criterion_main!(benches);
