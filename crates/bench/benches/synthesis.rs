//! Criterion benchmarks: circuit synthesis throughput — two-qubit bases,
//! the Theorem 12 three-qubit construction, and full QSD.

use ashn_math::randmat::haar_unitary;
use ashn_synth::cnot_basis::decompose_cnot;
use ashn_synth::qsd::{qsd, SynthBasis};
use ashn_synth::sqisw_basis::decompose_sqisw;
use ashn_synth::three_qubit::decompose_three_qubit;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_two_qubit(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let gates: Vec<_> = (0..16).map(|_| haar_unitary(4, &mut rng)).collect();
    let mut i = 0;
    c.bench_function("decompose_cnot_haar", |b| {
        b.iter(|| {
            i = (i + 1) % gates.len();
            black_box(decompose_cnot(&gates[i]));
        })
    });
    let mut j = 0;
    c.bench_function("decompose_sqisw_haar", |b| {
        b.iter(|| {
            j = (j + 1) % gates.len();
            black_box(decompose_sqisw(&gates[j]));
        })
    });
}

fn bench_multi_qubit(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let u8x8 = haar_unitary(8, &mut rng);
    let u16 = haar_unitary(16, &mut rng);
    let mut group = c.benchmark_group("nqubit");
    group.sample_size(10);
    group.bench_function("three_qubit_11_gates", |b| {
        b.iter(|| black_box(decompose_three_qubit(&u8x8)))
    });
    group.bench_function("qsd_cnot_n4", |b| {
        b.iter(|| black_box(qsd(&u16, SynthBasis::Cnot)))
    });
    group.bench_function("qsd_generic_n4", |b| {
        b.iter(|| black_box(qsd(&u16, SynthBasis::Generic)))
    });
    group.finish();
}

criterion_group!(benches, bench_two_qubit, bench_multi_qubit);
criterion_main!(benches);
