//! Property-based tests for circuit synthesis: minimal counts and exact
//! reconstruction over randomized inputs.

use ashn_gates::kak::{kak, weyl_coordinates};
use ashn_gates::two::canonical;
use ashn_gates::weyl::WeylPoint;
use ashn_ir::embed;
use ashn_math::randmat::{haar_su, haar_unitary};
use ashn_math::CMat;
use ashn_synth::circuit2::{Op2, TwoQubitCircuit};
use ashn_synth::cnot_basis::{cnot_count_for, decompose_cnot};
use ashn_synth::csd::csd;
use ashn_synth::multiplexor::{demultiplex, mux_rotation, Axis};
use ashn_synth::sqisw_basis::{decompose_sqisw, in_w0, sqisw_count, sqisw_count_for, w0_shift};
use ashn_synth::three_qubit::lemma14;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::FRAC_PI_4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cnot_decomposition_reconstructs_and_is_minimal(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(4, &mut rng);
        let c = decompose_cnot(&u);
        prop_assert!(c.error(&u) < 1e-6);
        prop_assert_eq!(c.entangler_count(), 3); // Haar ⇒ generically 3
    }

    #[test]
    fn canonical_gates_use_the_predicted_count(
        a in 0.05f64..0.78, b in 0.0f64..1.0, zsign in proptest::bool::ANY,
    ) {
        let x = a.min(FRAC_PI_4 - 1e-3);
        let y = b * x;
        let g = canonical(x, y, 0.0);
        let count = cnot_count_for(weyl_coordinates(&g));
        prop_assert!(count <= 2, "z = 0 classes need ≤ 2 CNOTs, got {count}");
        let _ = zsign;
    }

    #[test]
    fn sqisw_counts_agree_with_region(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(4, &mut rng);
        let p = weyl_coordinates(&u);
        let count = sqisw_count_for(p);
        if in_w0(p) {
            prop_assert!(count <= 2);
        } else {
            prop_assert_eq!(count, 3);
        }
    }

    #[test]
    fn csd_reconstructs_random_unitaries(seed in 0u64..200, half in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = haar_unitary(2 << half, &mut rng);
        let d = csd(&u);
        prop_assert!(d.reconstruct().dist(&u) < 1e-7);
        for &t in &d.theta {
            prop_assert!((0.0..=std::f64::consts::FRAC_PI_2 + 1e-9).contains(&t));
        }
    }

    #[test]
    fn demultiplex_is_exact(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u0 = haar_unitary(4, &mut rng);
        let u1 = haar_unitary(4, &mut rng);
        let (v, angles, w) = demultiplex(&u0, &u1);
        let mut mux = CMat::zeros(8, 8);
        mux.set_block(0, 0, &u0);
        mux.set_block(4, 4, &u1);
        let rest: Vec<usize> = vec![1, 2];
        let rebuilt = embed(3, &rest, &v)
            .matmul(&mux_rotation(Axis::Z, &angles))
            .matmul(&embed(3, &rest, &w));
        prop_assert!(rebuilt.dist(&mux) < 1e-7);
    }

    #[test]
    fn lemma14_five_gates_three_diagonal(seed in 0u64..200, mirrored in proptest::bool::ANY) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u0 = haar_unitary(4, &mut rng);
        let u1 = haar_unitary(4, &mut rng);
        let gates = lemma14(&u0, &u1, 0, 1, 2, mirrored);
        prop_assert_eq!(gates.len(), 5);
        let diag = gates.iter().filter(|g| g.is_diagonal(1e-8)).count();
        prop_assert_eq!(diag, 3);
        // Reconstruction.
        let mut c = ashn_ir::Circuit::new(3);
        for g in gates {
            c.push(g);
        }
        let mut mux = CMat::zeros(8, 8);
        mux.set_block(0, 0, &u0);
        mux.set_block(4, 4, &u1);
        prop_assert!(c.unitary().dist(&mux) < 1e-6);
    }
}

/// Every matrix entry and the phase of a synthesized circuit, as IEEE-754
/// bits, for bit-identity checks.
fn circuit_bits(c: &TwoQubitCircuit) -> Vec<u64> {
    let mut bits = vec![c.phase.re.to_bits(), c.phase.im.to_bits()];
    for op in &c.ops {
        let m = match op {
            Op2::L0(m) | Op2::L1(m) => m,
            Op2::Entangler { matrix, .. } => matrix,
        };
        bits.push(m.rows() as u64);
        for z in m.as_slice() {
            bits.push(z.re.to_bits());
            bits.push(z.im.to_bits());
        }
    }
    bits
}

/// Canonical classes covering the parts of the chamber where the SQiSW
/// closed form changes regime: the `in_w0` tolerance band, the `z = 0`
/// face, the `x = π/4` face with both signs of `z`, and the corners.
fn sqisw_chamber_grid() -> Vec<WeylPoint> {
    let mut grid = vec![
        WeylPoint::IDENTITY,
        WeylPoint::SQISW,
        WeylPoint::CNOT,
        WeylPoint::ISWAP,
        WeylPoint::B,
        WeylPoint::SWAP,
    ];
    for i in 1..=8 {
        let y = 0.3 * FRAC_PI_4 * f64::from(i) / 8.0;
        for z in [0.0, 0.4 * y, -0.4 * y, y, -y] {
            for band in [-1e-9, -5e-10, 0.0, 5e-10, 1e-9] {
                grid.push(WeylPoint::new(y + z.abs() + band, y, z));
            }
        }
    }
    for i in 0..=8 {
        let x = FRAC_PI_4 * f64::from(i) / 8.0;
        for j in 0..=i {
            let y = x * f64::from(j) / f64::from(i.max(1));
            // Smaller offsets near the y = z = 0 edge (~1e-12) are left
            // out: `kak` itself fails to diagonalise those targets.
            for z in [0.0, -1e-9, 1e-7] {
                grid.push(WeylPoint::new(x, y, z));
            }
        }
    }
    for j in 0..=8 {
        let y = FRAC_PI_4 * f64::from(j) / 8.0;
        for k in 0..=j {
            let z = y * f64::from(k) / f64::from(j.max(1));
            grid.push(WeylPoint::new(FRAC_PI_4, y, z));
            grid.push(WeylPoint::new(FRAC_PI_4, y, -z));
        }
    }
    grid
}

/// Checks one SQiSW synthesis: the minimal count, bit-identical output on
/// a second call, and reconstruction within `slack` beyond `1e-10` plus
/// twice KAK's own reconstruction error of `u` (a few Haar samples
/// reconstruct through KAK only to ~1e-10, and synthesis runs KAK on the
/// target and on its own circuit).
fn check_sqisw(u: &CMat, slack: f64) {
    let c = decompose_sqisw(u);
    let p = weyl_coordinates(u);
    assert_eq!(c.entangler_count(), sqisw_count(u), "count for {p}");
    let tol = 1e-10 + 2.0 * kak(u).error(u) + slack;
    let err = c.error(u);
    assert!(err <= tol, "error {err:.2e} > {tol:.2e} for {p}");
    assert_eq!(circuit_bits(&c), circuit_bits(&decompose_sqisw(u)), "{p}");
}

#[test]
fn sqisw_closed_form_is_exact_minimal_and_deterministic_on_haar_samples() {
    let mut rng = StdRng::seed_from_u64(2105);
    for _ in 0..2000 {
        check_sqisw(&haar_unitary(4, &mut rng), 0.0);
    }
}

#[test]
fn sqisw_closed_form_covers_the_chamber_grid() {
    let mut rng = StdRng::seed_from_u64(612);
    for p in sqisw_chamber_grid() {
        let l = haar_su(2, &mut rng).kron(&haar_su(2, &mut rng));
        let r = haar_su(2, &mut rng).kron(&haar_su(2, &mut rng));
        let u = l.matmul(&canonical(p.x, p.y, p.z)).matmul(&r);
        // A class in the `in_w0` band but outside W₀ gets two applications
        // and is reached only up to its distance from W₀.
        let c = p.canonicalize();
        let outside = (c.y + c.z.abs() - c.x).max(0.0);
        check_sqisw(&u, 4.0 * outside);
    }
}

#[test]
fn every_class_outside_w0_has_a_shift_into_w0() {
    let mut rng = StdRng::seed_from_u64(71);
    let haar = (0..500).map(|_| weyl_coordinates(&haar_unitary(4, &mut rng)));
    let mut outside = 0;
    for p in sqisw_chamber_grid().into_iter().chain(haar) {
        let p = p.canonicalize();
        if !in_w0(p) {
            outside += 1;
            let (s, rest) = w0_shift(p);
            assert!(in_w0(rest), "shift {s:?} leaves {p} at {rest}, outside W₀");
        }
    }
    assert!(outside > 50, "only {outside} classes outside W₀");
}
