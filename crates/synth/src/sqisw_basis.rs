//! Two-qubit synthesis over the SQiSW (√iSWAP) basis, following Huang et
//! al., "Quantum instruction set design for performance" [30]: one
//! application for the SQiSW class itself, two applications exactly when the
//! target class satisfies `x ≥ y + |z|` (the region `W₀`, ≈79% of Haar
//! measure), three otherwise.
//!
//! Every interleaver is closed form; no search runs.
//!
//! * **Two applications** use Huang et al.'s formula: the class
//!   `(x, y, z) ∈ W₀` is `SQiSW · (Rz(γ)Rx(α)Rz(γ) ⊗ Rx(β)) · SQiSW`, with
//!   `α, β = acos(cos2x − cos2y + cos2z ± 2√C)` for
//!   `C = sin(x+y−z)·sin(x−y+z)·sin(−x−y−z)·sin(−x+y+z)`, and
//!   `γ = acos(sign(z)·√(s/(s+t)))` for `s = 4cos²x·cos²z·sin²y`,
//!   `t = cos2x·cos2y·cos2z` (evaluated in an equivalent half-angle form
//!   that stays accurate on the chamber faces).
//! * **Three applications** split the class with a fixed shift table.
//!   Each of the twelve vectors `s` with two entries `±π/8` and one `0`
//!   gives a class `CAN(s)` locally equivalent to SQiSW, and
//!   `CAN(p) = CAN(s)·CAN(p − s)` because `XX`, `YY`, `ZZ` commute. The
//!   shift whose remainder `p − s` lies deepest inside `W₀` is used: one
//!   SQiSW for `CAN(s)`, the two-application core for `CAN(p − s)`.
//!
//! KAK alignment supplies the outer single-qubit gates in every case.

use crate::circuit2::{align_to_target, Op2, TwoQubitCircuit};
use ashn_gates::kak::weyl_coordinates;
use ashn_gates::single::{rx, rz};
use ashn_gates::two::{canonical, sqisw};
use ashn_gates::weyl::WeylPoint;
use ashn_ir::Circuit;
use ashn_math::{CMat, Complex};
use std::f64::consts::{FRAC_PI_4, FRAC_PI_8};

/// Duration of one flux-tuned SQiSW gate in units of `1/g` (paper §6.1: π/4).
pub const SQISW_DURATION: f64 = FRAC_PI_4;

/// The interaction vectors `s` whose class `CAN(s)` is `[SQiSW]`: two
/// entries `±π/8`, one `0`.
const SHIFTS: [[f64; 3]; 12] = [
    [FRAC_PI_8, FRAC_PI_8, 0.0],
    [FRAC_PI_8, -FRAC_PI_8, 0.0],
    [-FRAC_PI_8, FRAC_PI_8, 0.0],
    [-FRAC_PI_8, -FRAC_PI_8, 0.0],
    [FRAC_PI_8, 0.0, FRAC_PI_8],
    [FRAC_PI_8, 0.0, -FRAC_PI_8],
    [-FRAC_PI_8, 0.0, FRAC_PI_8],
    [-FRAC_PI_8, 0.0, -FRAC_PI_8],
    [0.0, FRAC_PI_8, FRAC_PI_8],
    [0.0, FRAC_PI_8, -FRAC_PI_8],
    [0.0, -FRAC_PI_8, FRAC_PI_8],
    [0.0, -FRAC_PI_8, -FRAC_PI_8],
];

/// How far the class lies inside `W₀`: `x − y − |z|` of its canonical
/// point (negative outside).
fn w0_margin(p: WeylPoint) -> f64 {
    let p = p.canonicalize();
    p.x - p.y - p.z.abs()
}

/// `true` when the class is two-SQiSW-compilable (`x ≥ y + |z|`).
pub fn in_w0(p: WeylPoint) -> bool {
    w0_margin(p) >= -1e-9
}

/// The SQiSW shift `s` (one of twelve) whose remainder `p − s` has the
/// largest `W₀` margin, with that remainder. `CAN(p) = CAN(s)·CAN(p − s)`.
pub fn w0_shift(p: WeylPoint) -> ([f64; 3], WeylPoint) {
    SHIFTS
        .iter()
        .map(|s| (*s, WeylPoint::new(p.x - s[0], p.y - s[1], p.z - s[2])))
        .max_by(|a, b| w0_margin(a.1).total_cmp(&w0_margin(b.1)))
        .expect("the shift table is not empty")
}

/// Number of SQiSW applications needed for the class of `u` (1, 2 or 3;
/// 0 for the identity class).
pub fn sqisw_count(u: &CMat) -> usize {
    sqisw_count_for(weyl_coordinates(u))
}

/// Number of SQiSW applications for a canonical class.
pub fn sqisw_count_for(p: WeylPoint) -> usize {
    let tol = 1e-9;
    if p.dist(WeylPoint::IDENTITY) < tol {
        0
    } else if p.gate_dist(WeylPoint::SQISW) < tol {
        1
    } else if in_w0(p) {
        2
    } else {
        3
    }
}

fn entangler() -> Op2 {
    Op2::Entangler {
        label: "SQiSW".into(),
        matrix: sqisw(),
        duration: SQISW_DURATION,
    }
}

/// One bare SQiSW.
fn one_application() -> TwoQubitCircuit {
    TwoQubitCircuit {
        phase: Complex::ONE,
        ops: vec![entangler()],
    }
}

/// `SQiSW · (Rz(γ)Rx(α)Rz(γ) ⊗ Rx(β)) · SQiSW`, in the class of the
/// canonical point `p ∈ W₀` (Huang et al. [30]).
///
/// The angles are the paper's `acos` formulas evaluated in half-angle
/// form: `cos α` sits at ±1 on the `z = 0` and `x = π/4` faces, where
/// `acos` turns a rounding error of `1e-16` into an angle error of `1e-8`.
/// With `P = sin²x − sin²y + sin²z = sin(x+y)·sin(x−y) + sin²z`,
/// `Q = cos²x + sin²y − sin²z = 1 − P` and `√C` as above,
/// `sin²(α/2) = P − √C = 4sin²x·sin²z·cos²y / (P + √C)`,
/// `cos²(α/2) = Q + √C`, `sin²(β/2) = P + √C`,
/// `cos²(β/2) = Q − √C = (s + t) / (Q + √C)`, and
/// `tan γ = √t / (sign(z)·√s)`. Every quantity is a sum or quotient of
/// non-negative terms, so no cancellation is left. A class in the `in_w0`
/// tolerance band but outside `W₀` first has `|z|` shrunk to `x − y`,
/// which keeps `C ≥ 0` exact.
fn two_application_core(p: WeylPoint) -> TwoQubitCircuit {
    let (x, y) = (p.x, p.y);
    let gap = (x - y).max(0.0);
    let z = p.z.clamp(-gap, gap);
    let (sx, cx) = x.sin_cos();
    let (sy, cy) = y.sin_cos();
    let (sz, cz) = z.sin_cos();
    let root_c = ((x + y - z).sin() * (x - y + z).sin() * (x + y + z).sin() * (x - y - z).sin())
        .max(0.0)
        .sqrt();
    let big_p = (x + y).sin() * (x - y).sin() + sz * sz;
    let big_q = cx * cx + sy * sy - sz * sz;
    let s = 4.0 * (cx * cz * sy).powi(2);
    let t = ((2.0 * x).cos() * (2.0 * y).cos() * (2.0 * z).cos()).max(0.0);
    // P + √C vanishes only where x = y and z = 0, and then so does the
    // numerator.
    let alpha_sin2 = if big_p + root_c > 0.0 {
        4.0 * (sx * sz * cy).powi(2) / (big_p + root_c)
    } else {
        0.0
    };
    let alpha = 2.0 * alpha_sin2.sqrt().atan2((big_q + root_c).sqrt());
    let beta_sin2 = (big_p + root_c).max(0.0);
    let beta = 2.0 * beta_sin2.sqrt().atan2(((s + t) / (big_q + root_c)).sqrt());
    // s = t = 0 only at the CNOT class (x = π/4, y = 0), where every γ
    // gives the class; atan2 returns 0 or π there.
    let sign = if z < 0.0 { -1.0 } else { 1.0 };
    let gamma = t.sqrt().atan2(sign * s.sqrt());
    let m0 = rz(gamma).matmul(&rx(alpha)).matmul(&rz(gamma));
    TwoQubitCircuit {
        phase: Complex::ONE,
        ops: vec![entangler(), Op2::L0(m0), Op2::L1(rx(beta)), entangler()],
    }
}

/// Three applications for the canonical point `p ∉ W₀`: the
/// two-application core for `CAN(p − s)`, then one SQiSW for `CAN(s)`,
/// each aligned to its canonical gate. The result's unitary is `CAN(p)`.
fn three_application_core(p: WeylPoint) -> TwoQubitCircuit {
    let (s, rest) = w0_shift(p);
    let first = align_to_target(
        &canonical(rest.x, rest.y, rest.z),
        two_application_core(rest.canonicalize()),
    );
    let last = align_to_target(&canonical(s[0], s[1], s[2]), one_application());
    let mut ops = first.ops;
    ops.extend(last.ops);
    TwoQubitCircuit {
        phase: first.phase * last.phase,
        ops,
    }
}

/// Decomposes an arbitrary two-qubit unitary into SQiSW applications plus
/// single-qubit gates (0–3 applications, minimal per [30]).
pub fn decompose_sqisw(u: &CMat) -> TwoQubitCircuit {
    let p = weyl_coordinates(u);
    match sqisw_count_for(p) {
        0 => align_to_target(u, TwoQubitCircuit::identity()),
        1 => align_to_target(u, one_application()),
        2 => align_to_target(u, two_application_core(p)),
        _ => {
            // Fuse the locals where the aligned pieces meet, so the circuit
            // has one gate per wire between entanglers.
            let c = Circuit::from(align_to_target(u, three_application_core(p)));
            TwoQubitCircuit::try_from(c.fuse_single_qubit_runs())
                .expect("a fused two-qubit circuit keeps its two wires")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_gates::two::{cnot, iswap, swap};
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn w0_membership() {
        assert!(in_w0(WeylPoint::CNOT));
        assert!(in_w0(WeylPoint::ISWAP));
        assert!(!in_w0(WeylPoint::SWAP));
        assert!(!in_w0(WeylPoint::new(0.2, 0.19, 0.1)));
    }

    #[test]
    fn sqisw_itself_uses_one() {
        let c = decompose_sqisw(&sqisw());
        assert_eq!(c.entangler_count(), 1);
        assert!(c.error(&sqisw()) < 1e-12);
    }

    #[test]
    fn cnot_uses_two_applications() {
        let c = decompose_sqisw(&cnot());
        assert_eq!(c.entangler_count(), 2);
        assert!(c.error(&cnot()) < 1e-7, "error {}", c.error(&cnot()));
    }

    #[test]
    fn iswap_uses_two_applications() {
        let c = decompose_sqisw(&iswap());
        assert_eq!(c.entangler_count(), 2);
        assert!(c.error(&iswap()) < 1e-12);
    }

    #[test]
    fn swap_needs_three() {
        let c = decompose_sqisw(&swap());
        assert_eq!(c.entangler_count(), 3);
        // One fused local per wire around and between the entanglers.
        assert_eq!(c.ops.len(), 11);
        assert!(c.error(&swap()) < 1e-12, "error {}", c.error(&swap()));
    }

    #[test]
    fn haar_random_gates_reconstruct() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut threes = 0;
        for _ in 0..10 {
            let u = haar_unitary(4, &mut rng);
            let c = decompose_sqisw(&u);
            let expected = sqisw_count(&u);
            assert_eq!(c.entangler_count(), expected);
            if expected == 3 {
                threes += 1;
            }
            assert!(c.error(&u) < 1e-10, "error {}", c.error(&u));
        }
        // ~21% of Haar gates need 3; with 10 samples we just check the
        // mechanism exercised at least one two-application case.
        assert!(threes < 10);
    }

    #[test]
    fn durations_match_application_count() {
        let c = decompose_sqisw(&cnot());
        assert!((c.entangler_duration() - 2.0 * SQISW_DURATION).abs() < 1e-12);
    }
}
