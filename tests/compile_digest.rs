//! Pins the facade's compiled output bit for bit: fixed-seed QV model
//! circuits at d = 3…8, compiled with `Compiler::compile` for CZ, SQiSW,
//! and AshN at `OptLevel::None` and `OptLevel::Default`, hashed over every
//! gate (wires, duration, matrix entries by their IEEE-754 bits) and the
//! final placement. The global phase is left out: it is the running
//! product of every fragment's phase, so its last bits depend on the
//! order the products are taken in, and it is unobservable.
//!
//! A change to routing, assembly, synthesis, or the optimizer that moves a
//! single ulp of the output changes a digest here.

use ashn::qv::sample_model_circuit;
use ashn::{Compiled, Compiler, GateSet, OptLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over 64-bit words.
fn fnv(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(hash: u64, compiled: &Compiled) -> u64 {
    let circuit = compiled.circuit();
    let mut words = vec![circuit.n_qubits() as u64];
    for inst in &circuit.instructions {
        words.push(inst.qubits.len() as u64);
        words.extend(inst.qubits.iter().map(|&q| q as u64));
        words.push(inst.duration.to_bits());
        for z in inst.matrix.as_slice() {
            words.push(z.re.to_bits());
            words.push(z.im.to_bits());
        }
    }
    words.extend(compiled.positions().iter().map(|&p| p as u64));
    words.into_iter().fold(hash, fnv)
}

/// One digest per (gate set, opt level) over d = 3…8, each compiled by a
/// fresh compiler.
fn case_digest(gate_set: GateSet, opt: OptLevel) -> u64 {
    let compiler = Compiler::new().gate_set(gate_set).opt_level(opt);
    (3..=8).fold(0xcbf2_9ce4_8422_2325, |hash, d| {
        let model = sample_model_circuit(d, &mut StdRng::seed_from_u64(1000 + d as u64));
        let compiled = compiler.compile(&model).expect("compiles");
        digest(hash, &compiled)
    })
}

/// Two-qubit gate count and summed two-qubit duration over d = 3…8.
fn case_twoq(gate_set: GateSet, opt: OptLevel) -> (usize, f64) {
    let compiler = Compiler::new().gate_set(gate_set).opt_level(opt);
    (3..=8).fold((0, 0.0), |(count, duration), d| {
        let model = sample_model_circuit(d, &mut StdRng::seed_from_u64(1000 + d as u64));
        let compiled = compiler.compile(&model).expect("compiles");
        let circuit = compiled.circuit();
        (
            count + circuit.entangler_count(),
            duration + circuit.entangler_duration(),
        )
    })
}

/// The SQiSW digests move whenever the interleaver matrices do; this pins
/// what must not move with them: which two-qubit gates are emitted.
#[test]
fn sqisw_two_qubit_profile_is_pinned() {
    let cases = [
        (OptLevel::None, 379, 0x4072_9aa7_8ae0_775a),
        (OptLevel::Default, 329, 0x4070_2655_ffa5_cef4),
    ];
    for (opt, count, duration_bits) in cases {
        let (got_count, got_duration) = case_twoq(GateSet::Sqisw, opt);
        assert_eq!(
            (got_count, got_duration.to_bits()),
            (count, duration_bits),
            "{opt:?}: {got_count} gates, duration {got_duration}"
        );
    }
}

#[test]
fn facade_output_matches_the_pinned_digests() {
    let cases = [
        (GateSet::Cz, OptLevel::None, 0xc19f_dfb7_bea8_c757),
        (GateSet::Cz, OptLevel::Default, 0xf109_4b6c_a471_1b17),
        (GateSet::Sqisw, OptLevel::None, 0x07a2_cb18_d954_605d),
        (GateSet::Sqisw, OptLevel::Default, 0x10cb_5fe5_cfc0_1abc),
        (
            GateSet::Ashn { cutoff: 1.1 },
            OptLevel::None,
            0x5a7e_bd65_d263_3cc3,
        ),
        (
            GateSet::Ashn { cutoff: 1.1 },
            OptLevel::Default,
            0x3068_9d7d_ddf6_1168,
        ),
    ];
    let mut mismatches = Vec::new();
    for (gate_set, opt, expected) in cases {
        let got = case_digest(gate_set, opt);
        if got != expected {
            mismatches.push(format!("{gate_set:?} {opt:?}: got {got:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
