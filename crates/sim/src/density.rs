//! Exact density-matrix simulator with depolarizing channels.
//!
//! Used for the quantum-volume experiments (paper §6.3): heavy-output
//! probabilities are computed exactly from the noisy density matrix, so the
//! only statistical error left is over the random-circuit ensemble itself.
//!
//! # Layout: ρ as a `2n`-qubit vector
//!
//! ρ is stored row-major as `dim × dim` amplitudes, which is exactly
//! vec(ρ) as a `2n`-qubit state vector: entry `(r, c)` sits at index
//! `r·2^n + c`, so row qubit `q` is bit `2n − 1 − q` and column qubit `q` is
//! bit `n − 1 − q`. Since vec(UρU†) = (U ⊗ Ū)·vec(ρ), a gate is its
//! statevector kernel at the row bits plus the complex-conjugate kernel at
//! the column bits. Circuits therefore run on the same
//! [`ExecPlan`] ops and [`ashn_ir::kernels`] as the statevector engine,
//! fusion included: fusion only merges gates whose depolarizing rate is
//! zero, so every noise channel keeps its place. Gates on three or more
//! qubits, which have no plan opcode, take the generic kernel on the
//! `2n`-qubit register instead.
//!
//! A `k`-qubit depolarizing channel is one in-place sweep over the
//! `4^k`-entry blocks spanned by the targets' row and column bits
//! (`depolarize_at`).

use crate::plan::{ExecPlan, KernelOp};
use crate::state::StateVector;
use ashn_ir::kernels::apply_gate_generic;
use ashn_ir::{Circuit, Instruction};
use ashn_math::{CMat, Complex, Mat2, Mat4};

/// An `n`-qubit density matrix.
#[derive(Clone, Debug)]
pub struct DensityMatrix {
    n: usize,
    dim: usize,
    mat: Vec<Complex>, // row-major dim×dim: vec(ρ) on 2n qubits
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics outside `1..=12` qubits.
    pub fn zero(n: usize) -> Self {
        let mut rho = Self {
            n,
            dim: 0,
            mat: Vec::new(),
        };
        rho.reset(n);
        rho
    }

    /// Resets to `|0…0⟩⟨0…0|` on `n` qubits, reusing the buffer.
    fn reset(&mut self, n: usize) {
        assert!(
            (1..=12).contains(&n),
            "density matrices supported up to 12 qubits"
        );
        self.n = n;
        self.dim = 1 << n;
        self.mat.clear();
        self.mat.resize(self.dim * self.dim, Complex::ZERO);
        self.mat[0] = Complex::ONE;
    }

    /// Density matrix of a pure state.
    pub fn from_state(s: &StateVector) -> Self {
        let n = s.n_qubits();
        let dim = 1 << n;
        let amps = s.amplitudes();
        let mut mat = vec![Complex::ZERO; dim * dim];
        for r in 0..dim {
            for cc in 0..dim {
                mat[r * dim + cc] = amps[r] * amps[cc].conj();
            }
        }
        Self { n, dim, mat }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Trace (1 for a valid state).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.mat[i * self.dim + i].re).sum()
    }

    /// Purity `tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        let mut s = 0.0;
        for r in 0..self.dim {
            for cc in 0..self.dim {
                s += (self.mat[r * self.dim + cc] * self.mat[cc * self.dim + r]).re;
            }
        }
        s
    }

    /// Diagonal measurement probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.mat[i * self.dim + i].re.max(0.0))
            .collect()
    }

    /// The entries in row-major `dim × dim` order, i.e. vec(ρ).
    pub fn entries(&self) -> &[Complex] {
        &self.mat
    }

    /// Applies `ρ → UρU†` with a `k`-qubit unitary on the listed qubits.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StateVector::apply`].
    pub fn apply(&mut self, qubits: &[usize], u: &CMat) {
        self.check_qubits(qubits);
        assert_eq!(u.rows(), 1 << qubits.len(), "matrix dimension mismatch");
        assert!(u.is_square());
        let bit = |q: usize| (self.n - 1 - q) as u8;
        match *qubits {
            [q] => self.apply_kernel(&KernelOp::one_qubit(bit(q), Mat2::try_from(u).unwrap())),
            [q0, q1] => self.apply_kernel(&KernelOp::two_qubit(
                bit(q0),
                bit(q1),
                Mat4::try_from(u).unwrap(),
            )),
            _ => {
                // On the 2n-qubit register row qubit q is wire q and column
                // qubit q is wire q + n.
                let cols: Vec<usize> = qubits.iter().map(|q| q + self.n).collect();
                apply_gate_generic(&mut self.mat, 2 * self.n, qubits, u);
                apply_gate_generic(&mut self.mat, 2 * self.n, &cols, &u.conj());
            }
        }
    }

    /// Applies a `k`-qubit depolarizing channel with probability `p`:
    /// `ρ → (1−p)·ρ + p·(I/2^k ⊗ Tr_targets ρ)`.
    ///
    /// # Panics
    ///
    /// Panics when `p ∉ [0, 1]` or qubits are invalid.
    pub fn depolarize(&mut self, qubits: &[usize], p: f64) {
        self.check_qubits(qubits);
        let pos: Vec<usize> = qubits.iter().map(|q| self.n - 1 - q).collect();
        depolarize_at(&mut self.mat, self.n, &pos, p);
    }

    /// Resets to `|0…0⟩⟨0…0|` on the circuit's register, reusing this
    /// matrix's buffer, and runs the circuit with `rates[i]` depolarizing
    /// after instruction `i`. Scoring one circuit under several noise
    /// models this way allocates ρ once.
    ///
    /// # Panics
    ///
    /// Panics when `rates` does not hold one rate per instruction, when a
    /// rate is above 1, and outside `1..=12` qubits.
    pub fn run_scheduled(&mut self, circuit: &Circuit, rates: &[f64]) {
        assert_eq!(
            rates.len(),
            circuit.gates().len(),
            "one rate per instruction"
        );
        self.run_with(circuit, |i, _| rates[i]);
    }

    /// The one density-matrix execution path: resets to `|0…0⟩⟨0…0|` on
    /// the circuit's register and runs it, with `rate_of(i, gate)` the
    /// depolarizing probability after instruction `i`. The circuit is
    /// compiled to an [`ExecPlan`]; a circuit with a gate on three or more
    /// qubits is walked instruction by instruction instead.
    pub(crate) fn run_with(
        &mut self,
        circuit: &Circuit,
        rate_of: impl Fn(usize, &Instruction) -> f64,
    ) {
        self.reset(circuit.n_qubits());
        match ExecPlan::build_indexed(circuit, &rate_of) {
            Ok(plan) => {
                let mut pos = Vec::with_capacity(2);
                for op in plan.ops() {
                    self.apply_kernel(&op.kernel);
                    if op.rate > 0.0 {
                        pos.clear();
                        pos.extend(op.noise_positions().iter().map(|&p| p as usize));
                        depolarize_at(&mut self.mat, self.n, &pos, op.rate);
                    }
                }
            }
            Err(_) => {
                for (i, g) in circuit.gates().iter().enumerate() {
                    self.apply(&g.qubits, &g.matrix);
                    let p = rate_of(i, g);
                    if p > 0.0 {
                        self.depolarize(&g.qubits, p);
                    }
                }
            }
        }
    }

    /// `ρ → UρU†` for one pre-classified op of the `n`-qubit register: the
    /// op at the row bits, its conjugate at the column bits.
    fn apply_kernel(&mut self, op: &KernelOp) {
        op.shifted(self.n as u8).apply(&mut self.mat);
        op.conj().apply(&mut self.mat);
    }

    /// The qubit checks of [`StateVector::apply`].
    fn check_qubits(&self, qubits: &[usize]) {
        assert!(!qubits.is_empty(), "bad qubit count");
        for (i, &q) in qubits.iter().enumerate() {
            assert!(q < self.n, "qubit {q} out of range");
            assert!(!qubits[..i].contains(&q), "duplicate qubit {q}");
        }
    }
}

/// Inserts a zero bit at position `p`, shifting the higher bits up.
#[inline(always)]
fn insert_zero(x: usize, p: usize) -> usize {
    let low = (1usize << p) - 1;
    ((x & !low) << 1) | (x & low)
}

/// Depolarizes the targets at column bit positions `pos` of vec(ρ) for an
/// `n`-qubit ρ, in place: `ρ → (1−p)·ρ + p·(I/2^k ⊗ Tr_targets ρ)`. Each
/// `4^k`-entry block spanned by the targets' row bits (`pos + n`) and
/// column bits is scaled by `1 − p`, and `p/2^k` of the block's partial
/// trace is added back on its diagonal. Any `k` works.
///
/// # Panics
///
/// Panics when `p ∉ [0, 1]`.
fn depolarize_at(rho: &mut [Complex], n: usize, pos: &[usize], p: f64) {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    if p == 0.0 {
        return;
    }
    let k = pos.len();
    // Block offsets of each target pattern on the row bits / column bits.
    let (mut rows, mut cols) = (vec![0usize], vec![0usize]);
    for &b in pos {
        rows = rows.iter().flat_map(|&r| [r, r | 1 << (b + n)]).collect();
        cols = cols.iter().flat_map(|&c| [c, c | 1 << b]).collect();
    }
    let mut bits: Vec<usize> = pos.iter().flat_map(|&b| [b, b + n]).collect();
    bits.sort_unstable();
    let (keep, mix) = (1.0 - p, p / (1usize << k) as f64);
    // Constant-length slices let the one- and two-qubit channels unroll.
    match k {
        1 => depolarize_blocks(rho, &bits[..2], &rows[..2], &cols[..2], keep, mix),
        2 => depolarize_blocks(rho, &bits[..4], &rows[..4], &cols[..4], keep, mix),
        _ => depolarize_blocks(rho, &bits, &rows, &cols, keep, mix),
    }
}

/// [`depolarize_at`]'s sweep: `bits` are the block's bit positions in
/// ascending order, `rows[s] | cols[t]` the offset of block entry `(s, t)`.
#[inline(always)]
fn depolarize_blocks(
    rho: &mut [Complex],
    bits: &[usize],
    rows: &[usize],
    cols: &[usize],
    keep: f64,
    mix: f64,
) {
    for i in 0..rho.len() >> bits.len() {
        let base = bits.iter().fold(i, |x, &b| insert_zero(x, b));
        let tr: Complex = rows.iter().zip(cols).map(|(r, c)| rho[base | r | c]).sum();
        for r in rows {
            for c in cols {
                rho[base | r | c] *= keep;
            }
        }
        for (r, c) in rows.iter().zip(cols) {
            rho[base | r | c] += tr * mix;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn h_gate() -> CMat {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        CMat::from_rows_f64(&[&[s, s], &[s, -s]])
    }

    #[test]
    fn pure_state_round_trip() {
        let mut s = StateVector::zero(3);
        let mut rng = StdRng::seed_from_u64(11);
        s.apply(&[0, 1], &haar_unitary(4, &mut rng));
        s.apply(&[1, 2], &haar_unitary(4, &mut rng));
        let rho = DensityMatrix::from_state(&s);
        let ps = s.probabilities();
        let pr = rho.probabilities();
        for (a, b) in ps.iter().zip(pr.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn unitary_application_matches_statevector() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut s = StateVector::zero(3);
        let mut rho = DensityMatrix::zero(3);
        for (qs, dim) in [(vec![0usize], 2usize), (vec![2, 0], 4), (vec![1, 2], 4)] {
            let u = haar_unitary(dim, &mut rng);
            s.apply(&qs, &u);
            rho.apply(&qs, &u);
        }
        let expect = DensityMatrix::from_state(&s);
        let diff: f64 = rho
            .mat
            .iter()
            .zip(expect.mat.iter())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(diff < 1e-10, "density/state mismatch: {diff}");
    }

    #[test]
    fn trace_preserved_by_unitaries_and_noise() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut rho = DensityMatrix::zero(4);
        for step in 0..8 {
            let u = haar_unitary(4, &mut rng);
            rho.apply(&[step % 3, step % 3 + 1], &u);
            rho.depolarize(&[step % 4], 0.02);
            rho.depolarize(&[step % 3, step % 3 + 1], 0.01);
            assert!((rho.trace() - 1.0).abs() < 1e-9, "trace drifted");
        }
        assert!(rho.purity() < 1.0, "noise must reduce purity");
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::zero(2);
        rho.apply(&[0], &h_gate());
        rho.depolarize(&[0, 1], 1.0);
        for (i, p) in rho.probabilities().iter().enumerate() {
            assert!((p - 0.25).abs() < 1e-12, "p[{i}] = {p}");
        }
        assert!((rho.purity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn single_qubit_depolarizing_mixes_only_that_qubit() {
        // Prepare |+0⟩, depolarize qubit 1 fully: qubit 0 stays pure.
        let mut rho = DensityMatrix::zero(2);
        rho.apply(&[0], &h_gate());
        rho.depolarize(&[1], 1.0);
        let p = rho.probabilities();
        // All four outcomes: 0.25 each (qubit0 half + half coherent, qubit1 mixed).
        for v in &p {
            assert!((v - 0.25).abs() < 1e-12);
        }
        // But purity is 0.5 (pure ⊗ mixed), not 0.25.
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_is_unitarily_covariant_on_targets() {
        // D_p(UρU†) = U D_p(ρ) U† when U acts on the depolarized qubits.
        let mut rng = StdRng::seed_from_u64(14);
        let u = haar_unitary(4, &mut rng);
        let mut a = DensityMatrix::zero(3);
        a.apply(&[0], &h_gate());
        let mut b = a.clone();
        a.apply(&[1, 2], &u);
        a.depolarize(&[1, 2], 0.3);
        b.depolarize(&[1, 2], 0.3);
        b.apply(&[1, 2], &u);
        let diff: f64 = a
            .mat
            .iter()
            .zip(b.mat.iter())
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(diff < 1e-10, "covariance violated: {diff}");
    }
}
