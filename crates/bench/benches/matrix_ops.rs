//! Micro-benchmark of the EigenTrust power iteration over a frozen
//! row-stochastic matrix. The other kernels are timed by `engine_csr`
//! (normalize-on-freeze, blend, power) and `matrix_multihop` (pruned
//! multi-hop powers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mdrep_matrix::{principal_eigenvector, CsrMatrix, EigenOptions, SparseMatrix, UserIndex};
use mdrep_types::UserId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

/// Builds a random row-stochastic matrix with `users` rows of ~`degree`
/// entries each.
fn random_matrix(users: u64, degree: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = SparseMatrix::new();
    for i in 0..users {
        for _ in 0..degree {
            let j = rng.random_range(0..users);
            if i != j {
                let (r, c) = (UserId::new(i), UserId::new(j));
                let v = m.get(r, c) + rng.random::<f64>() + 0.01;
                m.set(r, c, v).expect("valid");
            }
        }
    }
    let index = Arc::new(UserIndex::from_matrices(&[&m]));
    CsrMatrix::freeze_normalized_sharded(&index, &m, 1)
}

fn bench_eigenvector(c: &mut Criterion) {
    let mut group = c.benchmark_group("matrix/eigentrust_iteration");
    group.sample_size(20);
    for &users in &[100u64, 1000] {
        let m = random_matrix(users, 8, 5);
        group.bench_with_input(BenchmarkId::from_parameter(users), &m, |b, m| {
            b.iter(|| {
                black_box(principal_eigenvector(
                    m,
                    &[UserId::new(0)],
                    &EigenOptions::default(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_eigenvector);
criterion_main!(benches);
