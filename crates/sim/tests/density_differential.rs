//! Differential suite pinning the density-matrix executor (vec(ρ) on the
//! plan kernels, see `ashn_sim::density`) against the original
//! gather/scatter `DensityMatrix::apply` / `depolarize` loops, kept here
//! verbatim as the oracle.
//!
//! Every comparison is on the **full** ρ, entry by entry, at `1e-12`:
//!
//! * random 1–6 qubit circuits of 1q, 2q and 3q gates — dense, diagonal,
//!   controlled-phase and exact Pauli X/Y/Z gates on random, reversed and
//!   non-adjacent wire orders;
//! * zero and nonzero rates mixed, so plan fusion is both on and off, and
//!   `p = 1` depolarizing;
//! * `Simulate::run_noisy`, `run_noisy_scheduled`,
//!   `DensityMatrix::run_scheduled` on a reused buffer, and the direct
//!   `apply` / `depolarize` calls.

use ashn_math::randmat::haar_unitary;
use ashn_math::{c, CMat, Complex};
use ashn_sim::{Circuit, DensityMatrix, Instruction, NoiseModel, Simulate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-12;

/// The reference density matrix: row-major `dim × dim`, updated by the
/// gather/scatter loops the simulator used before it ran on the plan
/// kernels.
struct Oracle {
    n: usize,
    dim: usize,
    mat: Vec<Complex>,
}

impl Oracle {
    fn zero(n: usize) -> Self {
        let dim = 1 << n;
        let mut mat = vec![Complex::ZERO; dim * dim];
        mat[0] = Complex::ONE;
        Self { n, dim, mat }
    }

    fn apply(&mut self, qubits: &[usize], u: &CMat) {
        let k = qubits.len();
        assert_eq!(u.rows(), 1 << k, "matrix dimension mismatch");
        let pos: Vec<usize> = qubits.iter().map(|q| self.n - 1 - q).collect();
        let targets_mask: usize = pos.iter().map(|p| 1usize << p).sum();
        let sub = 1usize << k;
        let expand = |base: usize, m: usize| -> usize {
            let mut idx = base;
            for (j, p) in pos.iter().enumerate() {
                if m >> (k - 1 - j) & 1 == 1 {
                    idx |= 1 << p;
                }
            }
            idx
        };
        // Left multiplication: rows transform by U.
        let mut gathered = vec![Complex::ZERO; sub];
        for col in 0..self.dim {
            for base in 0..self.dim {
                if base & targets_mask != 0 {
                    continue;
                }
                for (m, g) in gathered.iter_mut().enumerate() {
                    *g = self.mat[expand(base, m) * self.dim + col];
                }
                for row in 0..sub {
                    let mut acc = Complex::ZERO;
                    for (mcol, g) in gathered.iter().enumerate() {
                        acc += u[(row, mcol)] * *g;
                    }
                    self.mat[expand(base, row) * self.dim + col] = acc;
                }
            }
        }
        // Right multiplication by U†: columns transform by conj(U).
        for row in 0..self.dim {
            for base in 0..self.dim {
                if base & targets_mask != 0 {
                    continue;
                }
                for (m, g) in gathered.iter_mut().enumerate() {
                    *g = self.mat[row * self.dim + expand(base, m)];
                }
                for colm in 0..sub {
                    let mut acc = Complex::ZERO;
                    for (mrow, g) in gathered.iter().enumerate() {
                        acc += u[(colm, mrow)].conj() * *g;
                    }
                    self.mat[row * self.dim + expand(base, colm)] = acc;
                }
            }
        }
    }

    fn depolarize(&mut self, qubits: &[usize], p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p == 0.0 {
            return;
        }
        let k = qubits.len();
        let pos: Vec<usize> = qubits.iter().map(|q| self.n - 1 - q).collect();
        let targets_mask: usize = pos.iter().map(|p| 1usize << p).sum();
        let sub = 1usize << k;
        let expand = |base: usize, m: usize| -> usize {
            let mut idx = base;
            for (j, pp) in pos.iter().enumerate() {
                if m >> (k - 1 - j) & 1 == 1 {
                    idx |= 1 << pp;
                }
            }
            idx
        };
        let norm = 1.0 / sub as f64;
        // For every pair of non-target index parts, mix in the partial trace.
        for rbase in 0..self.dim {
            if rbase & targets_mask != 0 {
                continue;
            }
            for cbase in 0..self.dim {
                if cbase & targets_mask != 0 {
                    continue;
                }
                // Partial trace over targets for this (rest_r, rest_c) pair.
                let mut tr = Complex::ZERO;
                for s in 0..sub {
                    tr += self.mat[expand(rbase, s) * self.dim + expand(cbase, s)];
                }
                let mixed = tr * c(norm, 0.0);
                for mr in 0..sub {
                    for mc in 0..sub {
                        let idx = expand(rbase, mr) * self.dim + expand(cbase, mc);
                        let fresh = if mr == mc { mixed } else { Complex::ZERO };
                        self.mat[idx] = self.mat[idx] * (1.0 - p) + fresh * p;
                    }
                }
            }
        }
    }

    /// Walks `circuit`, depolarizing with `rates[i]` after instruction `i`.
    fn run(circuit: &Circuit, rates: &[f64]) -> Self {
        let mut rho = Self::zero(circuit.n_qubits());
        for (g, &p) in circuit.gates().iter().zip(rates) {
            rho.apply(&g.qubits, &g.matrix);
            if p > 0.0 {
                rho.depolarize(&g.qubits, p);
            }
        }
        rho
    }
}

fn assert_same(rho: &DensityMatrix, oracle: &Oracle, what: &str) {
    assert_eq!(rho.n_qubits(), oracle.n, "{what}: register size");
    let got = rho.entries();
    assert_eq!(got.len(), oracle.mat.len(), "{what}: buffer size");
    let worst = got
        .iter()
        .zip(&oracle.mat)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max);
    assert!(worst < TOL, "{what}: max |Δρ| = {worst:e}");
}

fn pauli(which: usize) -> CMat {
    match which {
        0 => CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]]),
        1 => CMat::from_rows(&[
            &[Complex::ZERO, c(0.0, -1.0)],
            &[c(0.0, 1.0), Complex::ZERO],
        ]),
        _ => CMat::diag(&[Complex::ONE, c(-1.0, 0.0)]),
    }
}

/// `k` distinct wires in random order (so pairs come reversed and
/// non-adjacent).
fn wires(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let q = rng.gen_range(0..n);
        if !out.contains(&q) {
            out.push(q);
        }
    }
    out
}

fn random_gate(n: usize, allow_3q: bool, rng: &mut StdRng) -> Instruction {
    let arity = match rng.gen_range(0..10usize) {
        0 if allow_3q && n >= 3 => 3,
        0..=4 if n >= 2 => 2,
        _ => 1,
    };
    let qs = wires(n, arity, rng);
    let m = match (arity, rng.gen_range(0..4usize)) {
        (1, 0) => haar_unitary(2, rng),
        (1, 1) => CMat::diag(&[
            Complex::cis(rng.gen::<f64>()),
            Complex::cis(rng.gen::<f64>()),
        ]),
        (1, _) => pauli(rng.gen_range(0..3usize)),
        (2, 0) | (2, 1) => haar_unitary(4, rng),
        (2, 2) => CMat::diag(&[
            Complex::ONE,
            Complex::ONE,
            Complex::ONE,
            Complex::cis(rng.gen::<f64>()),
        ]),
        (2, _) => CMat::diag(&[
            Complex::cis(rng.gen::<f64>()),
            Complex::cis(-rng.gen::<f64>()),
            Complex::cis(rng.gen::<f64>()),
            Complex::cis(-rng.gen::<f64>()),
        ]),
        _ => haar_unitary(8, rng),
    };
    Instruction::new(qs, m, "g")
}

/// A random circuit and a rate per instruction: about half the rates are
/// zero (those gates fuse), some are 1.
fn random_case(n: usize, gates: usize, allow_3q: bool, rng: &mut StdRng) -> (Circuit, Vec<f64>) {
    let mut circuit = Circuit::new(n);
    circuit.phase = Complex::cis(rng.gen::<f64>());
    let mut rates = Vec::with_capacity(gates);
    for _ in 0..gates {
        circuit.push(random_gate(n, allow_3q, rng));
        rates.push(match rng.gen_range(0..10usize) {
            0..=4 => 0.0,
            5 => 1.0,
            _ => rng.gen::<f64>() * 0.2,
        });
    }
    (circuit, rates)
}

#[test]
fn scheduled_runs_match_the_oracle_with_and_without_3q_gates() {
    let mut rng = StdRng::seed_from_u64(0xd3_5e);
    for n in 1..=6 {
        for case in 0..6 {
            let allow_3q = case % 2 == 1;
            let (circuit, rates) = random_case(n, 6 + 4 * n, allow_3q, &mut rng);
            let oracle = Oracle::run(&circuit, &rates);
            let rho = circuit.run_noisy_scheduled(&rates);
            assert_same(&rho, &oracle, &format!("n={n} case={case}"));
            assert!((rho.trace() - 1.0).abs() < 1e-10);
        }
    }
}

#[test]
fn noiseless_and_all_noisy_runs_match_the_oracle() {
    // All rates zero: everything that can fuse does. All rates nonzero:
    // nothing fuses.
    let mut rng = StdRng::seed_from_u64(0xd3_5f);
    for n in 1..=6 {
        let (circuit, _) = random_case(n, 5 * n, false, &mut rng);
        let zeros = vec![0.0; circuit.gates().len()];
        assert_same(
            &circuit.run_noisy(&NoiseModel::NOISELESS),
            &Oracle::run(&circuit, &zeros),
            &format!("noiseless n={n}"),
        );
        let noise = NoiseModel {
            one_qubit: 0.03,
            two_qubit: 0.07,
        };
        let rates: Vec<f64> = circuit
            .gates()
            .iter()
            .map(|g| if g.qubits.len() == 1 { 0.03 } else { 0.07 })
            .collect();
        assert_same(
            &circuit.run_noisy(&noise),
            &Oracle::run(&circuit, &rates),
            &format!("noisy n={n}"),
        );
    }
}

#[test]
fn explicit_error_rates_override_the_model_as_in_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xd360);
    let (plain, rates) = random_case(4, 20, true, &mut rng);
    let mut annotated = Circuit::new(4);
    for (g, &p) in plain.gates().iter().zip(&rates) {
        annotated.push(g.clone().with_error_rate(p));
    }
    let noise = NoiseModel {
        one_qubit: 0.5,
        two_qubit: 0.5,
    };
    assert_same(
        &annotated.run_noisy(&noise),
        &Oracle::run(&plain, &rates),
        "annotated",
    );
}

#[test]
fn a_reused_buffer_matches_the_oracle_across_registers() {
    let mut rng = StdRng::seed_from_u64(0xd361);
    let mut rho = DensityMatrix::zero(2);
    for n in [3, 5, 2, 5, 1, 6] {
        let (circuit, rates) = random_case(n, 4 * n, n % 2 == 1, &mut rng);
        rho.run_scheduled(&circuit, &rates);
        assert_same(&rho, &Oracle::run(&circuit, &rates), &format!("n={n}"));
    }
}

#[test]
fn direct_apply_and_depolarize_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xd362);
    for n in 1..=5 {
        let mut rho = DensityMatrix::zero(n);
        let mut oracle = Oracle::zero(n);
        for step in 0..6 * n {
            let g = random_gate(n, true, &mut rng);
            rho.apply(&g.qubits, &g.matrix);
            oracle.apply(&g.qubits, &g.matrix);
            // Depolarize a random wire set, up to three wires.
            let k = rng.gen_range(1..=n.min(3));
            let qs = wires(n, k, &mut rng);
            let p = if step % 5 == 0 { 1.0 } else { rng.gen::<f64>() };
            rho.depolarize(&qs, p);
            oracle.depolarize(&qs, p);
            assert_same(&rho, &oracle, &format!("n={n} step={step}"));
        }
    }
}

#[test]
fn pauli_y_runs_as_minus_y_on_the_columns() {
    // conj(Y) = −Y: a sign slip on the column half shows only on Y gates,
    // so pin them on a state with coherences on every wire.
    let mut rng = StdRng::seed_from_u64(0xd363);
    for n in 1..=4 {
        let mut circuit = Circuit::new(n);
        for q in 0..n {
            circuit.push(Instruction::new(vec![q], haar_unitary(2, &mut rng), "U"));
        }
        for q in 0..n {
            circuit.push(Instruction::new(vec![q], pauli(1), "Y"));
        }
        if n >= 2 {
            circuit.push(Instruction::new(
                vec![n - 1, 0],
                haar_unitary(4, &mut rng),
                "V",
            ));
            circuit.push(Instruction::new(vec![0], pauli(1), "Y"));
        }
        for rate in [0.0, 0.1] {
            let rates = vec![rate; circuit.gates().len()];
            assert_same(
                &circuit.run_noisy_scheduled(&rates),
                &Oracle::run(&circuit, &rates),
                &format!("n={n} rate={rate}"),
            );
        }
    }
}

#[test]
fn full_depolarizing_of_every_wire_gives_the_maximally_mixed_state() {
    let mut rng = StdRng::seed_from_u64(0xd364);
    let mut circuit = Circuit::new(3);
    circuit.push(Instruction::new(vec![2, 0], haar_unitary(4, &mut rng), "U"));
    circuit.push(Instruction::new(
        vec![0, 1, 2],
        haar_unitary(8, &mut rng),
        "W",
    ));
    let rates = [0.0, 1.0];
    let rho = circuit.run_noisy_scheduled(&rates);
    assert_same(&rho, &Oracle::run(&circuit, &rates), "p = 1");
    for (i, p) in rho.probabilities().iter().enumerate() {
        assert!((p - 0.125).abs() < TOL, "p[{i}] = {p}");
    }
    assert!((rho.purity() - 0.125).abs() < TOL);
}
