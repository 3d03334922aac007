//! Seeded input generation. Every circuit is a pure function of
//! `(seed, stream, index)`, so a run materializes only the units it reaches
//! and two runs with one seed see the same circuits in the same order.

use ashn::ir::Circuit;
use ashn::prelude::Instruction;
use ashn::qv::{sample_model_circuit, ModelCircuit};
use ashn::GateSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's three contenders (§6.3, Fig. 7).
pub const GATE_SETS: [GateSet; 3] = [GateSet::Cz, GateSet::Sqisw, GateSet::Ashn { cutoff: 1.1 }];
/// Label prefix of every native two-qubit gate of each of [`GATE_SETS`]
/// (`AshN[<branch>]` for the AshN pulses).
pub const NATIVE_LABELS: [&str; 3] = ["CZ", "SQiSW", "AshN["];

/// `qv_fig7` circuit widths, cycled every three units.
pub const QV_WIDTHS: [usize; 3] = [4, 5, 6];
/// `service_mixed` circuit width.
pub const SERVICE_WIDTH: usize = 8;
/// `service_mixed` recurring pool: 64 circuits × 32 two-qubit gates =
/// 2048 classes, half of the service cache's default capacity.
pub const SERVICE_POOL: usize = 64;
/// Requests per `compile_batch` call.
pub const BATCH_SIZE: usize = 16;
/// Share of batch requests drawn from the recurring pool.
pub const POOL_SHARE: f64 = 0.5;

/// Independent generator streams (one per input role).
#[derive(Clone, Copy)]
pub enum Stream {
    QvUnits = 1,
    QvPrimer = 2,
    ServicePool = 4,
    ServiceBatches = 5,
    ServicePrimer = 6,
}

fn rng_for(seed: u64, stream: Stream, index: u64) -> StdRng {
    // SplitMix-style finalizer over the three coordinates: distinct
    // (seed, stream, index) triples get unrelated generator states.
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((stream as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// One model circuit of width `d` from its stream position.
pub fn model(seed: u64, stream: Stream, index: u64, d: usize) -> ModelCircuit {
    sample_model_circuit(d, &mut rng_for(seed, stream, index))
}

/// A circuit to compile: the model plus the gate set it targets
/// (an index into [`GATE_SETS`]).
#[derive(Clone, Debug)]
pub struct QvCircuit {
    pub set: usize,
    pub model: ModelCircuit,
}

/// `qv_fig7` unit `i`: gate sets round-robin, widths cycled every three.
pub fn qv_unit(seed: u64, i: usize) -> QvCircuit {
    QvCircuit {
        set: i % 3,
        model: model(seed, Stream::QvUnits, i as u64, QV_WIDTHS[(i / 3) % 3]),
    }
}

/// Seed of the `qv_fig7` set-up primers. It is fixed, so set-up does the
/// same work whatever `--seed` is (the SQiSW search cost varies by class).
const PRIMER_SEED: u64 = 0;

/// One small primer circuit per gate set, compiled and scored during
/// set-up so lazily built state (the routed SWAP, allocator pools) is in
/// place before timing.
pub fn qv_primers() -> Vec<QvCircuit> {
    (0..GATE_SETS.len())
        .map(|set| QvCircuit {
            set,
            model: model(PRIMER_SEED, Stream::QvPrimer, set as u64, QV_WIDTHS[0]),
        })
        .collect()
}

/// The recurring `service_mixed` pool.
pub fn service_pool(seed: u64) -> Vec<ModelCircuit> {
    (0..SERVICE_POOL as u64)
        .map(|i| model(seed, Stream::ServicePool, i, SERVICE_WIDTH))
        .collect()
}

/// One request of a service batch.
#[derive(Clone, Debug)]
pub enum Member {
    /// A recurring pool circuit (index into [`service_pool`]).
    Pool(usize),
    /// A circuit seen once.
    Fresh(ModelCircuit),
}

/// Service batch `b` of `stream` (the measured stream or the set-up
/// primer stream): each request is a pool circuit with probability
/// [`POOL_SHARE`], else a fresh one.
pub fn service_batch(seed: u64, stream: Stream, b: usize) -> Vec<Member> {
    let mut rng = rng_for(seed, stream, b as u64);
    (0..BATCH_SIZE)
        .map(|_| {
            if rng.gen_bool(POOL_SHARE) {
                Member::Pool(rng.gen_range(0..SERVICE_POOL))
            } else {
                Member::Fresh(sample_model_circuit(SERVICE_WIDTH, &mut rng))
            }
        })
        .collect()
}

/// The model as a logical circuit (one `SU(4)` instruction per pair), the
/// form a service request carries.
pub fn to_circuit(model: &ModelCircuit) -> Circuit {
    let mut circuit = Circuit::new(model.d);
    for layer in &model.layers {
        for ((a, b), u) in layer {
            circuit.push(Instruction::new(vec![*a, *b], u.clone(), "su4"));
        }
    }
    circuit
}

/// Appends a byte encoding of `model`: width, then per gate its pair and
/// the bit patterns of its matrix entries.
pub fn encode(model: &ModelCircuit, out: &mut Vec<u8>) {
    out.extend_from_slice(&(model.d as u64).to_le_bytes());
    for layer in &model.layers {
        out.extend_from_slice(&(layer.len() as u64).to_le_bytes());
        for ((a, b), u) in layer {
            out.extend_from_slice(&(*a as u64).to_le_bytes());
            out.extend_from_slice(&(*b as u64).to_le_bytes());
            for z in u.as_slice() {
                out.extend_from_slice(&z.re.to_bits().to_le_bytes());
                out.extend_from_slice(&z.im.to_bits().to_le_bytes());
            }
        }
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Units of the measured stream covered by the input digest.
pub const DIGEST_UNITS: usize = 64;

/// The bytes of the inputs a workload's digest covers: its fixed pool (if
/// any) and the first [`DIGEST_UNITS`] units of its measured stream.
pub fn digest_bytes(workload: &str, seed: u64) -> Vec<u8> {
    let mut out = workload.as_bytes().to_vec();
    match workload {
        "qv_fig7" => {
            for i in 0..DIGEST_UNITS {
                let unit = qv_unit(seed, i);
                out.push(unit.set as u8);
                encode(&unit.model, &mut out);
            }
        }
        "service_mixed" => {
            for m in service_pool(seed) {
                encode(&m, &mut out);
            }
            for b in 0..DIGEST_UNITS {
                for member in service_batch(seed, Stream::ServiceBatches, b) {
                    match member {
                        Member::Pool(i) => out.extend_from_slice(&(i as u64).to_le_bytes()),
                        Member::Fresh(m) => encode(&m, &mut out),
                    }
                }
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 2] = ["qv_fig7", "service_mixed"];

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        for w in WORKLOADS {
            assert_eq!(digest_bytes(w, 7), digest_bytes(w, 7), "{w}");
        }
    }

    #[test]
    fn two_seeds_give_different_inputs() {
        for w in WORKLOADS {
            assert_ne!(digest_bytes(w, 1), digest_bytes(w, 2), "{w}");
            assert_ne!(
                fnv1a(&digest_bytes(w, 1)),
                fnv1a(&digest_bytes(w, 2)),
                "{w}"
            );
        }
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let mut a = Vec::new();
        encode(&model(5, Stream::QvUnits, 0, 4), &mut a);
        let mut b = Vec::new();
        encode(&model(5, Stream::QvPrimer, 0, 4), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn workload_shapes_match_their_definition() {
        let widths: Vec<usize> = (0..9).map(|i| qv_unit(1, i).model.d).collect();
        assert_eq!(widths, [4, 4, 4, 5, 5, 5, 6, 6, 6]);
        let sets: Vec<usize> = (0..6).map(|i| qv_unit(1, i).set).collect();
        assert_eq!(sets, [0, 1, 2, 0, 1, 2]);
        let pool = service_pool(1);
        let classes: usize = pool
            .iter()
            .map(|m| m.layers.iter().map(Vec::len).sum::<usize>())
            .sum();
        assert_eq!(classes, 2048);
        let batch = service_batch(1, Stream::ServiceBatches, 0);
        assert_eq!(batch.len(), BATCH_SIZE);
        let c = to_circuit(&pool[0]);
        assert_eq!(c.two_qubit_gate_count(), 32);
    }
}
