//! `qv_fig7`: the paper's Fig. 7 as users run it. Fresh QV model circuits
//! at d ∈ {4, 5, 6}, round-robin over CZ / SQiSW / AshN(r=1.1), one
//! `Compiler` per gate set at `OptLevel::None`; each circuit is `compile`
//! + `score_many` at three noise points.
//!
//! The compilers run the default resilience policy, as the compile service
//! does: a gate the basis cannot synthesize (an error or a panic) is served
//! through the exact CNOT fallback instead of failing the whole circuit.

use crate::check::{reference_probs, verify};
use crate::inputs::{qv_primers, qv_unit, GATE_SETS, NATIVE_LABELS};
use crate::timed::TimedBasis;
use crate::trace::Tracer;
use crate::{Failure, Public, Quality, Unit, Workload};
use ashn::qv::CircuitScore;
use ashn::{AshnError, Compiled, Compiler, QvNoise, RetryPolicy};
use std::sync::Arc;
use std::time::Instant;

/// The paper's e_cz sweep (0.7%, 1.2%, 1.7%).
const E_CZ: [f64; 3] = [0.007, 0.012, 0.017];
/// Rounding allowed on a heavy-output probability, a sum of up to 2^d
/// floating-point probabilities. A model that never touches one qubit has
/// a heavy set holding all the probability, so its HOP is 1 up to rounding.
const HOP_ROUNDING: f64 = 1e-9;

pub struct QvFig7 {
    seed: u64,
    noises: Vec<QvNoise>,
    /// The compilers exactly as users build them, with no wrapper: the
    /// untraced units, and so every end-to-end metric, run through these.
    plain: Vec<Compiler>,
    /// Twins with the timing wrapper, built only for a traced run. Their
    /// memo caches are their own, so a traced block can replay the
    /// circuits of the untraced block before it and still synthesize cold.
    timed: Vec<Compiler>,
    tracer: Option<Arc<Tracer>>,
    /// The traced compilers' (hits, lookups) at the end of set-up.
    setup_lookups: (u64, u64),
    quality: Quality,
    public: Public,
}

fn compilers(tracer: Option<&Arc<Tracer>>) -> Vec<Compiler> {
    GATE_SETS
        .iter()
        .map(|gs| {
            let compiler = match tracer {
                None => Compiler::new().gate_set(*gs),
                Some(t) => Compiler::new().basis(TimedBasis::new(gs.basis(), t.clone())),
            };
            compiler.resilience(RetryPolicy::default())
        })
        .collect()
}

impl QvFig7 {
    /// (hits, lookups) summed over the traced compilers' caches.
    fn timed_lookups(&self) -> (u64, u64) {
        self.timed
            .iter()
            .filter_map(Compiler::synth_stats)
            .fold((0, 0), |(h, l), s| (h + s.hits(), l + s.lookups()))
    }

    fn compile_and_score(
        &self,
        set: usize,
        i: usize,
        traced: bool,
        model: &ashn::qv::ModelCircuit,
    ) -> Result<(Compiled, Vec<CircuitScore>), AshnError> {
        match (&self.tracer, traced) {
            (Some(t), true) => {
                let compiled = t.top("compile", i as u64, || self.timed[set].compile(model))?;
                let scores = t.top("score", i as u64, || compiled.score_many(&self.noises));
                Ok((compiled, scores))
            }
            _ => {
                let compiled = self.plain[set].compile(model)?;
                let scores = compiled.score_many(&self.noises);
                Ok((compiled, scores))
            }
        }
    }
}

impl Workload for QvFig7 {
    const NAME: &'static str = "qv_fig7";
    const CYCLE: usize = 9;
    /// 12 cycles: 108 circuits, 36 per width and 12 per (width, gate set).
    const QUALITY_UNITS: usize = 108;

    fn setup(seed: u64, tracer: Option<Arc<Tracer>>, _workers: usize) -> Self {
        let mut w = Self {
            seed,
            noises: E_CZ.iter().map(|&e| QvNoise::with_e_cz(e)).collect(),
            plain: compilers(None),
            timed: tracer
                .as_ref()
                .map_or_else(Vec::new, |t| compilers(Some(t))),
            tracer,
            setup_lookups: (0, 0),
            quality: Quality::default(),
            public: Public::default(),
        };
        // Prime every compiler: the routed SWAP is synthesized once per
        // basis, and the simulator's buffers are allocated.
        for primer in qv_primers() {
            for traced in [false, true] {
                if traced && w.tracer.is_none() {
                    continue;
                }
                w.compile_and_score(primer.set, 0, traced, &primer.model)
                    .expect("primer circuit compiles");
            }
        }
        w.setup_lookups = w.timed_lookups();
        w
    }

    fn unit(&mut self, i: usize, traced: bool) -> Unit {
        // A traced block replays the circuits of the untraced block before
        // it, so `trace.overhead` compares the same inputs.
        let input = if traced { i - Self::CYCLE } else { i };
        let unit = qv_unit(self.seed, input);
        let t0 = Instant::now();
        let out = self.compile_and_score(unit.set, i, traced, &unit.model);
        let seconds = t0.elapsed().as_secs_f64();
        let label = format!(
            "{} d={} (input {input})",
            GATE_SETS[unit.set].name(),
            unit.model.d
        );
        let mut failures = Vec::new();
        match out {
            Err(e) => failures.push(Failure::Failed(format!("{label}: {e}"))),
            Ok((compiled, scores)) => {
                let foreign = compiled
                    .circuit()
                    .gates()
                    .iter()
                    .filter(|g| {
                        g.qubits.len() == 2 && !g.label.starts_with(NATIVE_LABELS[unit.set])
                    })
                    .count();
                if foreign > 0 {
                    failures.push(Failure::Degraded(format!(
                        "{label}: {foreign} two-qubit gates outside the gate set (CNOT fallback)"
                    )));
                }
                let reference = reference_probs(&unit.model);
                let hops = scores.iter().map(|s| s.hop);
                if let Err(e) = verify(&reference, compiled.circuit(), compiled.positions()) {
                    failures.push(Failure::Wrong(format!("{label}: {e}")));
                } else if let Some(bad) = hops
                    .clone()
                    .find(|h| !(-HOP_ROUNDING..=1.0 + HOP_ROUNDING).contains(h))
                {
                    failures.push(Failure::Wrong(format!("{label}: HOP {bad} outside [0, 1]")));
                }
                if i < Self::QUALITY_UNITS {
                    let circuit = compiled.circuit();
                    self.quality
                        .add_circuit(circuit.two_qubit_gate_count(), circuit.entangler_duration());
                    self.quality
                        .add_hop(hops.sum::<f64>() / scores.len() as f64);
                }
                if traced {
                    let circuit = compiled.circuit();
                    let rho = 16.0 * 4f64.powi(circuit.n_qubits() as i32);
                    self.public.rho_bytes +=
                        rho * circuit.gates().len() as f64 * self.noises.len() as f64;
                }
            }
        }
        Unit {
            seconds,
            items: 1,
            failures,
        }
    }

    fn quality(&mut self) -> Quality {
        std::mem::take(&mut self.quality)
    }

    fn public(&self) -> Public {
        // The traced compilers served only the traced units and the
        // set-up primers, whose lookups are subtracted.
        let (hits, lookups) = self.timed_lookups();
        Public {
            synth_hits: hits - self.setup_lookups.0,
            synth_lookups: lookups - self.setup_lookups.1,
            rho_bytes: self.public.rho_bytes,
            workers: 1,
            ..Public::default()
        }
    }

    fn telemetry_json(&self) -> String {
        self.plain[0].telemetry().render_json()
    }
}
