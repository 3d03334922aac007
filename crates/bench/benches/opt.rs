//! Criterion benchmarks for the `ashn-opt` circuit optimizer: DAG
//! round-trip cost, the structural passes, and the full standard pipeline
//! (Collect2q + resynthesis over a cached AshN basis) on compiled QV
//! circuits.

use ashn::qv::sample_model_circuit;
use ashn::{Compiler, GateSet, OptLevel, QvNoise};
use ashn_ir::{Circuit, SynthError};
use ashn_opt::{standard_pipeline, structural_pipeline, DagCircuit};
use ashn_qv::experiment::compile_model_on;
use ashn_route::Grid;
use ashn_synth::basis::AshnBasis;
use ashn_synth::cache::CachedBasis;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// One routed d=4 QV circuit compiled to AshN (the optimizer's natural
/// workload shape: per-layer synthesized gates + routed SWAPs).
fn compiled_qv_circuit(seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = sample_model_circuit(4, &mut rng);
    let basis = CachedBasis::new(AshnBasis::with_cutoff(0.0, 1.1));
    compile_model_on::<SynthError>(&model, &basis, Grid::for_qubits(4))
        .expect("compiles")
        .circuit
}

fn bench_dag(c: &mut Criterion) {
    let circuit = compiled_qv_circuit(7);
    let mut group = c.benchmark_group("opt_dag");
    group.bench_function("dag_round_trip_d4", |b| {
        b.iter(|| {
            let dag = DagCircuit::from_circuit(black_box(&circuit)).unwrap();
            black_box(dag.into_circuit())
        })
    });
    let dag = DagCircuit::from_circuit(&circuit).unwrap();
    group.bench_function("dag_topo_order_d4", |b| {
        b.iter(|| black_box(dag.topo_order()))
    });
    group.finish();
}

fn bench_passes(c: &mut Criterion) {
    let circuit = compiled_qv_circuit(8);
    let basis = CachedBasis::new(AshnBasis::with_cutoff(0.0, 1.1));
    let mut group = c.benchmark_group("opt_passes");
    group.sample_size(20);
    group.bench_function("structural_pipeline_d4", |b| {
        b.iter(|| black_box(structural_pipeline().run(black_box(&circuit)).unwrap()))
    });
    // First run populates the synthesis cache; steady-state resynthesis
    // serves repeated Weyl classes from it.
    let pipeline = standard_pipeline(&basis, 1e-5);
    let _ = pipeline.run(&circuit).unwrap();
    group.bench_function("standard_pipeline_d4_warm_cache", |b| {
        b.iter(|| black_box(pipeline.run(black_box(&circuit)).unwrap()))
    });
    group.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let model = sample_model_circuit(4, &mut rng);
    let mut group = c.benchmark_group("opt_compiler");
    group.sample_size(10);
    for (name, level) in [
        ("compile_d4_opt_none", OptLevel::None),
        ("compile_d4_opt_default", OptLevel::Default),
    ] {
        let compiler = Compiler::new()
            .gate_set(GateSet::Ashn { cutoff: 1.1 })
            .noise(QvNoise::with_e_cz(0.007))
            .opt_level(level);
        let _ = compiler.compile(&model).expect("warms the synth cache");
        group.bench_function(name, |b| {
            b.iter(|| black_box(compiler.compile(black_box(&model)).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dag, bench_passes, bench_compiler);
criterion_main!(benches);
