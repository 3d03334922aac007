//! Quantum-volume evidence for the circuit optimizer: on the paper's QV
//! model workloads, the standard `ashn-opt` pipeline must reduce the
//! two-qubit gate count of compiled circuits without regressing the mean
//! heavy-output probability at paper noise.

use ashn_ir::SynthError;
use ashn_opt::standard_pipeline;
use ashn_qv::experiment::{compile_model_on, sample_model_circuit, score_compiled, CompiledModel};
use ashn_qv::QvNoise;
use ashn_route::Grid;
use ashn_synth::basis::AshnBasis;
use ashn_synth::cache::CachedBasis;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Evidence {
    gates_raw: usize,
    gates_opt: usize,
    two_q_raw: usize,
    two_q_opt: usize,
    depth_raw: usize,
    depth_opt: usize,
    hop_raw: f64,
    hop_opt: f64,
}

/// Compiles `circuits` QV model circuits of size `d` to AshN (paper cutoff
/// `r = 1.1`), optimizes each with the standard pipeline, and scores both
/// versions at the same noise.
fn run_workload(d: usize, circuits: usize, noise: &QvNoise, master_seed: u64) -> Evidence {
    let basis = CachedBasis::new(AshnBasis::with_cutoff(0.0, 1.1));
    let pipeline = standard_pipeline(&basis, 1e-5);
    let mut rng = StdRng::seed_from_u64(master_seed);
    let mut ev = Evidence {
        gates_raw: 0,
        gates_opt: 0,
        two_q_raw: 0,
        two_q_opt: 0,
        depth_raw: 0,
        depth_opt: 0,
        hop_raw: 0.0,
        hop_opt: 0.0,
    };
    for _ in 0..circuits {
        let model = sample_model_circuit(d, &mut rng);
        let compiled =
            compile_model_on::<SynthError>(&model, &basis, Grid::for_qubits(d)).expect("compiles");
        let (optimized, stats) = pipeline.run(&compiled.circuit).expect("optimizes");
        assert_eq!(stats.after.gates, optimized.instructions.len());
        ev.gates_raw += compiled.circuit.instructions.len();
        ev.gates_opt += optimized.instructions.len();
        ev.two_q_raw += compiled.circuit.entangler_count();
        ev.two_q_opt += optimized.entangler_count();
        ev.depth_raw += stats.before.depth;
        ev.depth_opt += stats.after.depth;
        let opt_model = CompiledModel {
            circuit: optimized,
            positions: compiled.positions.clone(),
        };
        ev.hop_raw += score_compiled(&compiled, noise).hop;
        ev.hop_opt += score_compiled(&opt_model, noise).hop;
    }
    ev.hop_raw /= circuits as f64;
    ev.hop_opt /= circuits as f64;
    ev
}

fn check_workload(d: usize, circuits: usize, master_seed: u64) {
    let noise = QvNoise::with_e_cz(0.007); // paper noise anchor
    let ev = run_workload(d, circuits, &noise, master_seed);
    println!(
        "d={d}: gates {}→{} ({:.1}% off), 2q {}→{} ({:.1}% off), depth {}→{}, mean hop {:.4}→{:.4}",
        ev.gates_raw,
        ev.gates_opt,
        100.0 * (ev.gates_raw as f64 - ev.gates_opt as f64) / ev.gates_raw as f64,
        ev.two_q_raw,
        ev.two_q_opt,
        100.0 * (ev.two_q_raw as f64 - ev.two_q_opt as f64) / ev.two_q_raw as f64,
        ev.depth_raw,
        ev.depth_opt,
        ev.hop_raw,
        ev.hop_opt,
    );
    assert!(ev.depth_opt <= ev.depth_raw, "depth must not grow");
    assert!(
        ev.two_q_opt < ev.two_q_raw,
        "2q count must drop: {} → {}",
        ev.two_q_raw,
        ev.two_q_opt
    );
    assert!(
        ev.gates_opt < ev.gates_raw,
        "gate count must drop: {} → {}",
        ev.gates_raw,
        ev.gates_opt
    );
    // No mean-hop regression at paper noise (1e-3 covers the 1e-5-scale
    // unitary perturbation resynthesis is allowed to introduce).
    assert!(
        ev.hop_opt >= ev.hop_raw - 1e-3,
        "hop regressed: {} → {}",
        ev.hop_raw,
        ev.hop_opt
    );
    assert!(ev.hop_opt > 0.5, "optimized circuits must stay heavy");
}

#[test]
fn d4_workload_reduces_two_qubit_count_without_hop_regression() {
    check_workload(4, 4, 20260726);
}

#[test]
fn d5_workload_reduces_two_qubit_count_without_hop_regression() {
    check_workload(5, 3, 55);
}

/// The optimizer must never *increase* any cost metric on QV workloads,
/// circuit by circuit.
#[test]
fn optimizer_is_monotone_on_qv_circuits() {
    let basis = CachedBasis::new(AshnBasis::with_cutoff(0.0, 1.1));
    let pipeline = standard_pipeline(&basis, 1e-5);
    let mut rng = StdRng::seed_from_u64(99);
    for d in [3usize, 4] {
        let model = sample_model_circuit(d, &mut rng);
        let compiled =
            compile_model_on::<SynthError>(&model, &basis, Grid::for_qubits(d)).expect("compiles");
        let (optimized, stats) = pipeline.run(&compiled.circuit).expect("optimizes");
        assert!(optimized.entangler_count() <= compiled.circuit.entangler_count());
        assert!(optimized.instructions.len() <= compiled.circuit.instructions.len());
        assert!(stats.after.depth <= stats.before.depth);
        assert!(optimized.total_duration() <= compiled.circuit.total_duration() + 1e-9);
        let _ = rng.gen::<u64>();
    }
}
