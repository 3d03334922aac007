//! Property tests for the route-and-assemble core: on random grids (4–9
//! qubits, square and skewed), routing arbitrary circuits of 1q gates, 2q
//! gates on random wire pairs, and a scalar phase with
//! [`route_circuit`] must preserve circuit semantics exactly — the routed
//! circuit acts on the logical state as the unrouted circuit does, up to
//! the wire permutation the router reports.

use ashn_ir::{Circuit, Instruction};
use ashn_math::randmat::haar_unitary;
use ashn_math::{CMat, Complex};
use ashn_route::{route_circuit, Grid, RouteError, Routed};
use ashn_sim::Simulate;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn swap_fragment() -> Circuit {
    let swap = CMat::from_rows_f64(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
    ]);
    let mut c = Circuit::new(2);
    c.push(Instruction::new(vec![0, 1], swap, "SWAP"));
    c
}

/// Routes with every two-qubit instruction emitted verbatim as its
/// fragment.
fn route(logical: &Circuit, grid: Grid) -> Routed {
    route_circuit(logical, grid, &swap_fragment(), |_, inst| {
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], inst.matrix.clone(), "2q"));
        Ok::<_, RouteError>(c)
    })
    .expect("routes")
}

/// A random `n`-qubit circuit of `gates` instructions: Haar 2q gates on
/// random distinct wire pairs, Haar 1q gates, a random global phase, and
/// one scalar instruction. Returns the circuit and its reference: the same
/// circuit with the scalar folded into the global phase (the simulator
/// applies 1q/2q gates only).
fn random_circuit(n: usize, gates: usize, rng: &mut StdRng) -> (Circuit, Circuit) {
    let mut logical = Circuit::new(n);
    logical.phase = Complex::cis(rng.gen_range(0.0..6.0));
    let mut reference = logical.clone();
    let scalar_at = rng.gen_range(0..gates);
    for k in 0..gates {
        if k == scalar_at {
            let z = Complex::cis(rng.gen_range(0.0..6.0));
            let scalar = CMat::from_fn(1, 1, |_, _| z);
            logical.push(Instruction::new(Vec::new(), scalar, "phase"));
            reference.phase *= z;
        }
        let inst = if rng.gen_bool(0.3) {
            Instruction::new(vec![rng.gen_range(0..n)], haar_unitary(2, rng), "1q")
        } else {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            Instruction::new(vec![a, b], haar_unitary(4, rng), "2q")
        };
        logical.push(inst.clone());
        reference.push(inst);
    }
    (logical, reference)
}

/// Checks that the physical state equals the logical state transported
/// through the router's final wire permutation, with idle sites in `|0⟩`.
fn assert_equivalent(reference: &Circuit, routed: &Routed) {
    let n = reference.n_qubits();
    let sites = routed.circuit.n_qubits();
    let l_state = reference.run_pure();
    let p_state = routed.circuit.run_pure();
    let l_amps = l_state.amplitudes();
    let mut occupied = 0usize;
    for &site in &routed.positions {
        occupied |= 1 << (sites - 1 - site);
    }
    for (idx, amp) in p_state.amplitudes().iter().enumerate() {
        let expect = if idx & !occupied != 0 {
            Complex::ZERO
        } else {
            let mut logical_idx = 0usize;
            for (l, &site) in routed.positions.iter().enumerate() {
                let bit = (idx >> (sites - 1 - site)) & 1;
                logical_idx |= bit << (n - 1 - l);
            }
            l_amps[logical_idx]
        };
        let diff = ((amp.re - expect.re).powi(2) + (amp.im - expect.im).powi(2)).sqrt();
        assert!(
            diff < 1e-9,
            "physical index {idx}: amplitude off by {diff:.3e}"
        );
    }
}

/// The core's telemetry: one `route` span per routed circuit, plus the
/// circuit's pair and SWAP totals. A 1×6 strip forces SWAP chains. With
/// the `telemetry` feature off the snapshot stays empty — routing itself
/// is unaffected either way.
#[test]
fn routing_records_one_span_and_pair_swap_totals_per_circuit() {
    let reg = ashn_telemetry::Registry::with_journal_capacity(0);
    let _guard = ashn_telemetry::install(&reg);

    let n = 6;
    let mut logical = Circuit::new(n);
    for (a, b) in [(0, 1), (2, 5), (0, 5)] {
        logical.push(Instruction::new(vec![a, b], CMat::identity(4), "2q"));
    }
    let mut swaps = 0;
    for _ in 0..2 {
        let routed = route(&logical, Grid::new(1, n));
        swaps += routed
            .circuit
            .instructions
            .iter()
            .filter(|i| i.label == "SWAP")
            .count() as u64;
    }
    assert!(swaps > 0, "strip endpoints must cost routed SWAPs");

    let snap = reg.snapshot();
    if cfg!(feature = "telemetry") {
        assert_eq!(snap.counter("route.pairs"), Some(6));
        assert_eq!(snap.counter("route.swaps"), Some(swaps));
        let h = snap.histogram("route").expect("per-circuit span");
        assert_eq!(h.count, 2, "one timing sample per routed circuit");
        assert_eq!(snap.counters.len(), 2, "{:?}", snap.counters);
        assert_eq!(snap.histograms.len(), 1);
    } else {
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline property: any random circuit on any 4–9 qubit grid
    /// routes to a physically equivalent circuit.
    #[test]
    fn routed_circuits_preserve_semantics(seed in 0u64..1000, n in 4usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (logical, reference) = random_circuit(n, 3 * n, &mut rng);
        assert_equivalent(&reference, &route(&logical, Grid::for_qubits(n)));
    }

    /// Same property on deliberately skewed grids (1×k strips and 2×k
    /// rectangles force long SWAP chains).
    #[test]
    fn routed_circuits_preserve_semantics_on_skewed_grids(seed in 0u64..1000, n in 4usize..8) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for grid in [Grid::new(1, n), Grid::new(2, n.div_ceil(2))] {
            let (logical, reference) = random_circuit(n, 2 * n, &mut rng);
            assert_equivalent(&reference, &route(&logical, grid));
        }
    }

    /// The reported placement is always a permutation of distinct sites.
    #[test]
    fn final_positions_form_a_valid_placement(seed in 0u64..1000, n in 4usize..10) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb0);
        let grid = Grid::for_qubits(n);
        let (logical, _) = random_circuit(n, 4 * n, &mut rng);
        let positions = route(&logical, grid).positions;
        prop_assert_eq!(positions.len(), n);
        let mut seen = std::collections::HashSet::new();
        for &p in &positions {
            prop_assert!(p < grid.len());
            prop_assert!(seen.insert(p), "two logical qubits share site {p}");
        }
    }
}
