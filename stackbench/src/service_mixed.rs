//! `service_mixed`: 16-request `compile_batch` calls on `nproc` workers,
//! noise scheduling on, structural optimizer passes (`OptLevel::Light`:
//! exact rewrites, no resynthesis). Each batch mixes circuits from a
//! recurring pool of d=8 AshN circuits (~2048 classes, half the cache's
//! default capacity) with fresh ones, so cache reads, writes and
//! evictions all happen.

use crate::check::{heavy_outputs, logical_probs, reference_probs, verify};
use crate::inputs::{service_batch, service_pool, to_circuit, Member, Stream, BATCH_SIZE};
use crate::timed::TimedBasis;
use crate::trace::Tracer;
use crate::{Failure, Public, Quality, Unit, Workload};
use ashn::ir::Circuit;
use ashn::qv::ModelCircuit;
use ashn::service::{CompileRequest, CompileService, OptLevel, ShardedCache};
use ashn::sim::trajectory::trajectory_probabilities_batched;
use ashn::sim::NoiseModel;
use ashn::synth::basis::AshnBasis;
use ashn::QvNoise;
use std::sync::Arc;
use std::time::Instant;

/// Noise the requests schedule per-gate error rates from.
const E_CZ: f64 = 0.012;
/// Mixed batches run during set-up, after the pool is cached, so the
/// cache starts the measured loop full and evicting.
const PRIMER_BATCHES: usize = 16;
/// Trajectories for the heavy-output estimate of each batch's first
/// request.
const HOP_TRAJECTORIES: usize = 32;

fn ashn_basis() -> AshnBasis {
    AshnBasis::with_cutoff(0.0, 1.1)
}

fn request(circuit: Circuit) -> CompileRequest {
    CompileRequest::new(circuit)
        .opt(OptLevel::Light)
        .noise(QvNoise::with_e_cz(E_CZ))
}

pub struct ServiceMixed {
    seed: u64,
    pool: Vec<ModelCircuit>,
    pool_requests: Vec<CompileRequest>,
    /// Reference distributions of the pool circuits, filled on first use.
    pool_references: Vec<Option<Vec<f64>>>,
    /// The service exactly as users build it, with no wrapper: the
    /// untraced batches, and so every end-to-end metric, run through it.
    plain: CompileService<AshnBasis>,
    /// A twin with the timing wrapper, built only for a traced run. It
    /// shares `plain`'s cache, so traced batches meet the same cache state.
    timed: Option<(Arc<Tracer>, CompileService<TimedBasis<AshnBasis>>)>,
    quality: Quality,
    public: Public,
}

impl ServiceMixed {
    fn batch(&self, b: usize, stream: Stream) -> (Vec<Member>, Vec<CompileRequest>) {
        let members = service_batch(self.seed, stream, b);
        let requests = members
            .iter()
            .map(|m| match m {
                Member::Pool(k) => self.pool_requests[*k].clone(),
                Member::Fresh(model) => request(to_circuit(model)),
            })
            .collect();
        (members, requests)
    }
}

impl Workload for ServiceMixed {
    const NAME: &'static str = "service_mixed";
    const CYCLE: usize = 1;
    const QUALITY_UNITS: usize = 64;

    fn setup(seed: u64, tracer: Option<Arc<Tracer>>, workers: usize) -> Self {
        let pool = service_pool(seed);
        let pool_requests: Vec<CompileRequest> =
            pool.iter().map(|m| request(to_circuit(m))).collect();
        let cache = ShardedCache::new();
        let plain = CompileService::with_cache(ashn_basis(), cache.clone()).workers(workers);
        let timed = tracer.map(|t| {
            let service =
                CompileService::with_cache(TimedBasis::new(ashn_basis(), t.clone()), cache)
                    .workers(workers);
            (t, service)
        });
        let w = Self {
            seed,
            pool_references: vec![None; pool.len()],
            pool,
            pool_requests,
            plain,
            timed,
            quality: Quality::default(),
            public: Public {
                workers,
                ..Public::default()
            },
        };
        for chunk in w.pool_requests.chunks(BATCH_SIZE) {
            w.plain.compile_batch(chunk);
        }
        for b in 0..PRIMER_BATCHES {
            w.plain.compile_batch(&w.batch(b, Stream::ServicePrimer).1);
        }
        w
    }

    fn unit(&mut self, i: usize, traced: bool) -> Unit {
        let (members, requests) = self.batch(i, Stream::ServiceBatches);
        let t0 = Instant::now();
        let batch = match (&self.timed, traced) {
            (Some((t, service)), true) => {
                t.top("service", i as u64, || service.compile_batch(&requests))
            }
            _ => self.plain.compile_batch(&requests),
        };
        let seconds = t0.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        for (r, (member, result)) in members.iter().zip(&batch.results).enumerate() {
            let fresh;
            let (label, reference): (String, &[f64]) = match member {
                Member::Pool(k) => (
                    format!("request {r} (pool#{k})"),
                    self.pool_references[*k].get_or_insert_with(|| reference_probs(&self.pool[*k])),
                ),
                Member::Fresh(model) => {
                    fresh = reference_probs(model);
                    (format!("request {r} (fresh)"), &fresh)
                }
            };
            match result {
                Err(e) => failures.push(Failure::Failed(format!("{label}: {e}"))),
                Ok(out) => {
                    if out.degraded {
                        failures.push(Failure::Degraded(format!(
                            "{label}: degraded to CNOT fallback"
                        )));
                    }
                    if let (true, Some(stats)) = (traced, &out.opt_stats) {
                        let p = &mut self.public;
                        p.opt_compiles += 1;
                        p.opt_iterations += stats.iterations as u64;
                        p.opt_twoq_removed += stats.two_qubit_removed() as u64;
                        for pass in &stats.passes {
                            p.opt_runs += pass.runs as u64;
                            p.opt_fired += pass.fired as u64;
                        }
                    }
                    if let Err(e) = verify(reference, &out.circuit, &out.positions) {
                        failures.push(Failure::Wrong(format!("{label}: {e}")));
                    }
                    if i < Self::QUALITY_UNITS {
                        self.quality.add_circuit(
                            out.circuit.two_qubit_gate_count(),
                            out.circuit.entangler_duration(),
                        );
                        if r == 0 {
                            // The circuit carries its scheduled per-gate
                            // error rates; trajectories sample them.
                            let physical = trajectory_probabilities_batched(
                                &out.circuit,
                                &NoiseModel::NOISELESS,
                                HOP_TRAJECTORIES,
                                self.seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
                                0,
                            );
                            let probs =
                                logical_probs(out.circuit.n_qubits(), &out.positions, &physical);
                            self.quality
                                .add_hop(heavy_outputs(reference).iter().map(|&j| probs[j]).sum());
                        }
                    }
                }
            }
        }
        if traced {
            let s = &batch.stats;
            let p = &mut self.public;
            p.batches += 1;
            p.synth_hits += s.exact_hits + s.class_hits + s.rule_hits;
            p.synth_lookups += s.targets as u64;
            p.dedup_sum += s.dedup_ratio();
            p.cold_classes += s.cold_classes as u64;
            p.retries += s.retries;
            p.degraded += s.degraded;
            p.worker_panics += s.worker_panics;
        }
        Unit {
            seconds,
            items: requests.len(),
            failures,
        }
    }

    fn quality(&mut self) -> Quality {
        std::mem::take(&mut self.quality)
    }

    fn public(&self) -> Public {
        self.public
    }

    fn telemetry_json(&self) -> String {
        self.plain.telemetry_snapshot().render_json()
    }
}
