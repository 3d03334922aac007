//! Deterministic parallel batch execution for trajectory/circuit ensembles.
//!
//! [`BatchRunner`] fans indexed jobs across `std::thread::scope` workers.
//! Each job gets its own RNG stream derived from the master seed and the
//! job index alone, so results are bit-identical for any worker count —
//! the property the determinism suite in `crates/sim/tests/determinism.rs`
//! and the quantum-volume tests pin down.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The default worker count: the `ASHN_WORKERS` environment variable when
/// set to a positive integer, otherwise one per available hardware thread.
///
/// `ASHN_WORKERS=0`, unset, or unparsable all mean the hardware default —
/// the same zero-means-default convention as
/// [`BatchRunner::with_workers`]. Constrained CI runners export the
/// variable once instead of threading `--workers` through every binary.
pub fn default_workers() -> usize {
    let configured = std::env::var("ASHN_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok());
    match configured {
        Some(w) if w > 0 => w,
        _ => std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
    }
}

/// Fans indexed jobs across scoped worker threads with per-job
/// deterministic RNG streams.
///
/// # Examples
///
/// ```
/// use ashn_sim::BatchRunner;
/// use rand::Rng;
///
/// let sums: Vec<f64> = BatchRunner::new(7)
///     .with_workers(4)
///     .run(8, |_, rng| (0..100).map(|_| rng.gen::<f64>()).sum());
/// // Identical regardless of worker count:
/// let serial: Vec<f64> = BatchRunner::new(7)
///     .with_workers(1)
///     .run(8, |_, rng| (0..100).map(|_| rng.gen::<f64>()).sum());
/// assert_eq!(sums, serial);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    master_seed: u64,
    workers: usize,
}

impl BatchRunner {
    /// A runner over the default worker count.
    pub fn new(master_seed: u64) -> Self {
        Self {
            master_seed,
            workers: default_workers(),
        }
    }

    /// Overrides the worker count (results do not depend on it).
    ///
    /// **Zero means "use the default"** ([`default_workers`], which honors
    /// `ASHN_WORKERS`). This is the canonical statement of the convention:
    /// the bench binaries' `--workers 0` flag, the batched experiment and
    /// trajectory APIs, and `ashn_core::par::parallel_map` all defer here
    /// rather than restating it.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The seed of job `index`'s RNG stream (a pure function of the master
    /// seed and the index — never of scheduling).
    pub fn job_seed(&self, index: usize) -> u64 {
        mix64(self.master_seed ^ mix64(index as u64))
    }

    /// Runs `n_jobs` jobs, each with its own seeded [`StdRng`], returning
    /// results in job order. Work is pulled from a shared counter, so
    /// stragglers do not serialize the batch.
    ///
    /// A panicking job does not kill the batch mid-flight: every other job
    /// still runs to completion, then the panic with the *lowest job index*
    /// is re-raised — independent of scheduling, so the observable behavior
    /// matches serial execution. Use [`BatchRunner::try_run`] to keep the
    /// surviving results instead.
    pub fn run<T, F>(&self, n_jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        let mut first_panic = None;
        let results: Vec<Option<T>> = self
            .run_caught(n_jobs, job)
            .into_iter()
            .map(|r| match r {
                Ok(t) => Some(t),
                Err(caught) => {
                    if first_panic.is_none() {
                        first_panic = Some(caught.payload);
                    }
                    None
                }
            })
            .collect();
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results.into_iter().map(|t| t.expect("no panics")).collect()
    }

    /// [`BatchRunner::run`] with per-job panic isolation: a job that panics
    /// yields `Err(JobPanic)` at its index while every other job's result
    /// is returned untouched (in job order, bit-identical to a run without
    /// the panicking jobs).
    pub fn try_run<T, F>(&self, n_jobs: usize, job: F) -> Vec<Result<T, JobPanic>>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        self.run_caught(n_jobs, job)
            .into_iter()
            .enumerate()
            .map(|(index, r)| {
                r.map_err(|caught| JobPanic {
                    index,
                    detail: caught.detail,
                })
            })
            .collect()
    }

    fn run_caught<T, F>(&self, n_jobs: usize, job: F) -> Vec<Result<T, Caught>>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        let run_one = |i: usize| -> Result<T, Caught> {
            catch_unwind(AssertUnwindSafe(|| {
                if ashn_math::failpoint!("sim::batch::job") {
                    panic!("injected fault: sim::batch::job (job {i})");
                }
                job(i, &mut StdRng::seed_from_u64(self.job_seed(i)))
            }))
            .map_err(|payload| {
                let detail = describe_panic(payload.as_ref());
                Caught { payload, detail }
            })
        };
        let workers = self.workers.min(n_jobs.max(1));
        if n_jobs > 0 {
            // Bulk per-batch accounting — one add regardless of job count.
            ashn_telemetry::current().add("sim.batch.jobs", n_jobs as u64);
        }
        if workers <= 1 || n_jobs <= 1 {
            return (0..n_jobs).map(run_one).collect();
        }
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, Result<T, Caught>)>> =
            Mutex::new(Vec::with_capacity(n_jobs));
        // Workers inherit the spawning thread's current telemetry registry.
        let telemetry = ashn_telemetry::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _telemetry = ashn_telemetry::install(&telemetry);
                    let mut local: Vec<(usize, Result<T, Caught>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_jobs {
                            break;
                        }
                        local.push((i, run_one(i)));
                    }
                    collected
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(local);
                });
            }
        });
        let mut results = collected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        results.sort_by_key(|(i, _)| *i);
        debug_assert_eq!(results.len(), n_jobs);
        results.into_iter().map(|(_, t)| t).collect()
    }
}

/// A job that panicked inside [`BatchRunner::try_run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job whose closure panicked.
    pub index: usize,
    /// The panic message when it was a string, else a placeholder.
    pub detail: String,
}

struct Caught {
    payload: Box<dyn Any + Send>,
    detail: String,
}

fn describe_panic(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_are_in_job_order() {
        let out = BatchRunner::new(1).with_workers(4).run(32, |i, _| i * 3);
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let reference = BatchRunner::new(99)
            .with_workers(1)
            .run(16, |i, rng| (i, rng.gen::<u64>(), rng.gen::<f64>()));
        for workers in [2, 3, 8] {
            let got = BatchRunner::new(99)
                .with_workers(workers)
                .run(16, |i, rng| (i, rng.gen::<u64>(), rng.gen::<f64>()));
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn different_jobs_get_different_streams() {
        let runner = BatchRunner::new(5);
        let draws = runner.with_workers(2).run(8, |_, rng| rng.gen::<u64>());
        for i in 0..draws.len() {
            for j in i + 1..draws.len() {
                assert_ne!(draws[i], draws[j], "jobs {i} and {j} collided");
            }
        }
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = BatchRunner::new(1).run(4, |_, rng| rng.gen::<u64>());
        let b = BatchRunner::new(2).run(4, |_, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn try_run_isolates_panics_in_place() {
        let out = BatchRunner::new(11).with_workers(4).try_run(16, |i, rng| {
            if i % 5 == 3 {
                panic!("job {i} failed");
            }
            (i, rng.gen::<u64>())
        });
        let reference = BatchRunner::new(11)
            .with_workers(1)
            .run(16, |i, rng| (i, rng.gen::<u64>()));
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 3 {
                let p = r.as_ref().unwrap_err();
                assert_eq!(p.index, i);
                assert_eq!(p.detail, format!("job {i} failed"));
            } else {
                // Survivors are bit-identical to an all-success run.
                assert_eq!(r.as_ref().unwrap(), &reference[i]);
            }
        }
    }

    #[test]
    fn run_repropagates_the_lowest_indexed_panic() {
        let caught = std::panic::catch_unwind(|| {
            BatchRunner::new(1).with_workers(4).run(16, |i, _| {
                if i == 6 || i == 12 {
                    panic!("die {i}");
                }
                i
            })
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().cloned().unwrap();
        assert_eq!(msg, "die 6");
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u64> = BatchRunner::new(3).run(0, |_, rng| rng.gen());
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_means_default_and_env_overrides() {
        // Env manipulation is process-global, so every assertion touching
        // `default_workers()` lives in this one test (no cross-test race).
        let hardware = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        std::env::remove_var("ASHN_WORKERS");
        assert_eq!(default_workers(), hardware);
        let runner = BatchRunner::new(0).with_workers(0);
        assert_eq!(runner.workers(), default_workers());

        std::env::set_var("ASHN_WORKERS", "3");
        assert_eq!(default_workers(), 3);
        assert_eq!(BatchRunner::new(0).with_workers(0).workers(), 3);
        std::env::set_var("ASHN_WORKERS", "0");
        assert_eq!(default_workers(), hardware);
        std::env::set_var("ASHN_WORKERS", "not-a-number");
        assert_eq!(default_workers(), hardware);
        std::env::remove_var("ASHN_WORKERS");
    }
}
