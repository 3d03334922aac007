//! The independent output check. The reference is the model circuit run
//! gate by gate on its logical register with `ashn_sim`, never through the
//! compiler; the compiled circuit's noiseless distribution is marginalized
//! onto the logical register through its final placement and compared in
//! total variation distance.

use ashn::ir::Circuit;
use ashn::qv::ModelCircuit;
use ashn::sim::{SimEngine, StateVector};

/// Per-two-qubit-gate synthesis accuracy: the Frobenius distance the
/// numeric bases synthesize to and the optimizer accepts
/// (`Compiler::OPT_ACCEPT_TOL`).
pub const GATE_TOL: f64 = ashn::Compiler::OPT_ACCEPT_TOL;

/// Allowed total variation distance for a compiled circuit with `twoq`
/// two-qubit gates. Each gate's state error is at most its synthesis
/// error, errors add along the circuit, and the distance between two
/// outcome distributions is at most the distance between the states.
pub fn tolerance(twoq: usize) -> f64 {
    GATE_TOL * twoq.max(1) as f64
}

/// Logical outcome probabilities of the model, simulated directly.
pub fn reference_probs(model: &ModelCircuit) -> Vec<f64> {
    let mut state = StateVector::zero(model.d);
    for layer in &model.layers {
        for ((a, b), u) in layer {
            state.apply(&[*a, *b], u);
        }
    }
    state.probabilities()
}

/// Marginalizes a physical-site distribution onto the logical register:
/// `positions[l]` is the site holding logical qubit `l`; site 0 is the
/// most significant bit.
pub fn logical_probs(n_sites: usize, positions: &[usize], physical: &[f64]) -> Vec<f64> {
    let d = positions.len();
    let mut out = vec![0.0; 1 << d];
    for (idx, &p) in physical.iter().enumerate() {
        let mut logical = 0;
        for (l, &site) in positions.iter().enumerate() {
            logical |= ((idx >> (n_sites - 1 - site)) & 1) << (d - 1 - l);
        }
        out[logical] += p;
    }
    out
}

/// Noiseless logical distribution of a compiled circuit.
pub fn compiled_probs(circuit: &Circuit, positions: &[usize]) -> Vec<f64> {
    let mut engine = SimEngine::new(circuit.n_qubits());
    let physical = engine.run_pure(circuit).probabilities();
    logical_probs(circuit.n_qubits(), positions, &physical)
}

pub fn tvd(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// Outcomes whose ideal probability exceeds the median (the heavy set).
pub fn heavy_outputs(ideal: &[f64]) -> Vec<usize> {
    let mut sorted = ideal.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    (0..n).filter(|&i| ideal[i] > median).collect()
}

/// Compares a compiled circuit with its reference; `Err` describes the
/// mismatch.
pub fn verify(reference: &[f64], circuit: &Circuit, positions: &[usize]) -> Result<(), String> {
    let got = compiled_probs(circuit, positions);
    let dist = tvd(reference, &got);
    let tol = tolerance(circuit.two_qubit_gate_count());
    if dist.is_finite() && dist <= tol {
        Ok(())
    } else {
        Err(format!(
            "total variation distance {dist:.3e} exceeds {tol:.3e}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginalization_undoes_the_placement() {
        // Two sites, logical 0 on site 1 and logical 1 on site 0: physical
        // |10> (site 0 set) is logical |01>.
        let physical = [0.0, 0.0, 1.0, 0.0];
        assert_eq!(
            logical_probs(2, &[1, 0], &physical),
            vec![0.0, 1.0, 0.0, 0.0]
        );
        // An idle third site is traced out.
        let physical = [0.25, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0];
        assert_eq!(
            logical_probs(3, &[0, 1], &physical),
            vec![0.5, 0.0, 0.5, 0.0]
        );
    }

    #[test]
    fn heavy_set_is_above_the_median() {
        assert_eq!(heavy_outputs(&[0.1, 0.4, 0.2, 0.3]), vec![1, 3]);
    }
}
