//! Circuit-level simulation on the canonical [`ashn_ir::Circuit`] IR.
//!
//! The circuit representation itself lives in `ashn-ir` (one IR for the
//! whole workspace); this module keeps the noise model and provides the
//! [`Simulate`] extension trait so `circuit.run_pure()` /
//! `circuit.run_noisy(..)` read as methods. Both run on the compiled
//! [`crate::ExecPlan`] kernels: `run_pure` through [`SimEngine`], the
//! noisy runs through [`DensityMatrix`]'s vectorized-ρ executor.

use crate::density::DensityMatrix;
use crate::engine::SimEngine;
use crate::state::StateVector;
pub use ashn_ir::{Circuit, Instruction};

/// Per-arity default depolarizing rates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoiseModel {
    /// Default error probability after a single-qubit gate.
    pub one_qubit: f64,
    /// Default error probability after a two-qubit gate.
    pub two_qubit: f64,
}

impl NoiseModel {
    /// A noiseless model.
    pub const NOISELESS: NoiseModel = NoiseModel {
        one_qubit: 0.0,
        two_qubit: 0.0,
    };

    pub(crate) fn rate_for(&self, gate: &Instruction) -> f64 {
        gate.error_rate.unwrap_or(match gate.qubits.len() {
            1 => self.one_qubit,
            2 => self.two_qubit,
            _ => 0.0,
        })
    }
}

/// Execution of [`ashn_ir::Circuit`]s on the simulators in this crate.
pub trait Simulate {
    /// Runs the circuit on `phase·|0…0⟩` without noise, through
    /// [`SimEngine::run_pure`]: the fused plan path, with the instruction
    /// walk as the fallback for gates on three or more qubits.
    ///
    /// # Panics
    ///
    /// Panics outside `1..=`[`MAX_QUBITS`](crate::MAX_QUBITS) qubits.
    fn run_pure(&self) -> StateVector;

    /// Runs the circuit with depolarizing noise after every gate, returning
    /// the exact output density matrix (see [`crate::density`]).
    ///
    /// # Panics
    ///
    /// Panics outside `1..=12` qubits, or when a rate is above 1.
    fn run_noisy(&self, noise: &NoiseModel) -> DensityMatrix;

    /// Runs the circuit with an externally resolved depolarizing schedule:
    /// `rates[i]` is applied after instruction `i`. This lets callers score
    /// one circuit under many noise models without materializing an
    /// annotated copy of the circuit (and its gate matrices) per model;
    /// [`DensityMatrix::run_scheduled`] also reuses one ρ buffer across
    /// them.
    ///
    /// # Panics
    ///
    /// As [`DensityMatrix::run_scheduled`].
    fn run_noisy_scheduled(&self, rates: &[f64]) -> DensityMatrix;
}

impl Simulate for Circuit {
    fn run_pure(&self) -> StateVector {
        let mut engine = SimEngine::new(self.n);
        engine.run_pure(self);
        engine.take_state()
    }

    fn run_noisy(&self, noise: &NoiseModel) -> DensityMatrix {
        let mut rho = DensityMatrix::zero(self.n);
        rho.run_with(self, |_, g| noise.rate_for(g));
        rho
    }

    fn run_noisy_scheduled(&self, rates: &[f64]) -> DensityMatrix {
        let mut rho = DensityMatrix::zero(self.n);
        rho.run_scheduled(self, rates);
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::randmat::haar_unitary;
    use ashn_math::CMat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn h_gate() -> CMat {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        CMat::from_rows_f64(&[&[s, s], &[s, -s]])
    }

    #[test]
    fn noiseless_density_equals_pure_run() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut c = Circuit::new(3);
        c.push(Instruction::new(vec![0], h_gate(), "H"));
        c.push(Instruction::new(vec![0, 1], haar_unitary(4, &mut rng), "U"));
        c.push(Instruction::new(vec![2, 1], haar_unitary(4, &mut rng), "V"));
        let pure = c.run_pure();
        let rho = c.run_noisy(&NoiseModel::NOISELESS);
        for (a, b) in pure.probabilities().iter().zip(rho.probabilities()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn noise_reduces_purity() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], haar_unitary(4, &mut rng), "U"));
        let rho = c.run_noisy(&NoiseModel {
            one_qubit: 0.001,
            two_qubit: 0.02,
        });
        assert!(rho.purity() < 1.0 - 0.01);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn explicit_error_rate_overrides_default() {
        let mut c = Circuit::new(1);
        c.push(Instruction::new(vec![0], h_gate(), "H").with_error_rate(1.0));
        let rho = c.run_noisy(&NoiseModel::NOISELESS);
        // Full depolarizing: maximally mixed.
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitary_matches_gate_product() {
        let mut rng = StdRng::seed_from_u64(23);
        let u01 = haar_unitary(4, &mut rng);
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], u01.clone(), "U"));
        assert!(c.unitary().dist(&u01) < 1e-10);
    }

    #[test]
    fn durations_accumulate() {
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0], h_gate(), "H").with_duration(0.1));
        c.push(Instruction::new(vec![1], h_gate(), "H").with_duration(0.2));
        assert!((c.total_duration() - 0.3).abs() < 1e-12);
        assert_eq!(c.two_qubit_gate_count(), 0);
    }

    #[test]
    fn run_pure_carries_the_global_phase() {
        let mut c = Circuit::new(2);
        c.phase = ashn_math::Complex::cis(0.9);
        c.push(Instruction::new(vec![0], h_gate(), "H"));
        let amps = c.run_pure();
        let u = c.unitary();
        for (r, a) in amps.amplitudes().iter().enumerate() {
            assert!((*a - u[(r, 0)]).abs() < 1e-12, "row {r}");
        }
    }
}
