//! `stackbench` — one benchmark for the whole ashn stack.
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload qv_fig7 --seed 1 --seconds 55 --trace 0
//! ```
//!
//! Runs one seeded workload through the public entry points
//! (`Compiler::compile`, `Compiled::score_many`,
//! `CompileService::compile_batch`), checks every output against an
//! independent simulation, and prints a report followed by one JSON result
//! line. `--trace 0` reports the end-to-end metrics with the benchmark's
//! own tracing off; `--trace 1` alternates traced and untraced blocks of
//! units and reports the per-layer metrics. See `stackbench/README.md`.

mod check;
mod inputs;
mod machine;
mod qv_fig7;
mod service_mixed;
mod timed;
mod trace;

use machine::{json_str, Machine};
use std::fmt::Write as _;
use std::fs;
use std::sync::Arc;
use std::time::Instant;
use trace::{children_of, union_ns, SpanRec, Tracer};

/// Each run sets up at least `SETUP_REPEATS` times, and keeps setting up
/// until `SETUP_MIN_SECONDS` have passed (at most `SETUP_MAX_REPEATS`
/// times); `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 2.0;
const SETUP_MAX_REPEATS: usize = 100;
/// Where results, spans and telemetry snapshots are written, relative to
/// the working directory.
const OUT_DIR: &str = ".stackbench_out";

/// One closed-loop unit: a circuit (compile + score, or compile) or a
/// service batch.
pub struct Unit {
    /// The timed section: the public calls only.
    pub seconds: f64,
    /// Circuits or requests the unit completed (the throughput count).
    pub items: usize,
    /// Items that failed or were degraded, each described.
    pub failures: Vec<Failure>,
}

/// Why an item is not a correct output in the requested gate set.
pub enum Failure {
    /// The call returned an error: no output. Counts in `failed`.
    Failed(String),
    /// An output disagreed with its reference: counts in `failed`, and the
    /// result line's `correct` becomes `false`.
    Wrong(String),
    /// The program's resilience layer served a correct output through the
    /// exact CNOT fallback instead of the requested gate set. The call
    /// succeeded, so it does not count in `failed`; it lowers `ok_frac`.
    Degraded(String),
}

/// Quality of the compiled outputs over the first `QUALITY_UNITS` units.
#[derive(Default)]
pub struct Quality {
    twoq_sum: f64,
    time_sum: f64,
    circuits: usize,
    hop_sum: f64,
    hops: usize,
}

impl Quality {
    pub fn add_circuit(&mut self, twoq: usize, interaction_time: f64) {
        self.twoq_sum += twoq as f64;
        self.time_sum += interaction_time;
        self.circuits += 1;
    }

    pub fn add_hop(&mut self, hop: f64) {
        self.hop_sum += hop;
        self.hops += 1;
    }
}

/// Per-layer counts read from the program's public stats structs, over
/// the traced units only.
#[derive(Clone, Copy, Default)]
pub struct Public {
    pub synth_hits: u64,
    pub synth_lookups: u64,
    /// Bytes of ρ the density-matrix scoring computed: `16·4ⁿ` per gate,
    /// per noise point.
    pub rho_bytes: f64,
    pub opt_compiles: u64,
    pub opt_runs: u64,
    pub opt_fired: u64,
    pub opt_twoq_removed: u64,
    pub opt_iterations: u64,
    pub batches: u64,
    pub dedup_sum: f64,
    pub cold_classes: u64,
    pub retries: u64,
    pub degraded: u64,
    pub worker_panics: u64,
    /// Worker threads behind a `service` span.
    pub workers: usize,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Units per trace block: the length of the workload's natural cycle,
    /// so traced and untraced blocks see the same mix.
    const CYCLE: usize;
    /// The loop runs at least this many units; the quality metrics cover
    /// exactly these, so they are identical across runs of one seed.
    const QUALITY_UNITS: usize;
    /// Builds the inputs and brings the program to steady state. With a
    /// tracer, also builds the instrumented twins of the entry points.
    fn setup(seed: u64, tracer: Option<Arc<Tracer>>, workers: usize) -> Self;
    fn unit(&mut self, i: usize, traced: bool) -> Unit;
    /// Called once after an untraced loop.
    fn quality(&mut self) -> Quality;
    fn public(&self) -> Public;
    /// The program's own telemetry snapshot as JSON, unmodified.
    fn telemetry_json(&self) -> String;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("bad --seconds: {e}"))?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!(
                "usage: stackbench --workload qv_fig7|service_mixed \
                 --seed N --seconds S [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let machine = Machine::detect();
    match args.workload.as_str() {
        "qv_fig7" => run::<qv_fig7::QvFig7>(&args, &machine),
        "service_mixed" => run::<service_mixed::ServiceMixed>(&args, &machine),
        other => {
            eprintln!("stackbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// A metric whose inputs were empty (a 0/0 ratio, e.g. no score calls on a
/// workload that never scores) reads 0; adding 0.0 turns the -0.0 an empty
/// float sum yields into 0.
fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
    }
}

/// Linear-interpolated percentile of `values` (`p` in `[0, 1]`).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

struct UnitRecord {
    seconds: f64,
    items: usize,
    traced: bool,
}

fn run<W: Workload>(args: &Args, machine: &Machine) {
    let mut setups: Vec<f64> = Vec::new();
    let mut state = None;
    let mut tracer = None;
    while setups.len() < SETUP_REPEATS
        || (setups.iter().sum::<f64>() < SETUP_MIN_SECONDS && setups.len() < SETUP_MAX_REPEATS)
    {
        drop(state.take());
        let t = args.trace.then(|| Arc::new(Tracer::default()));
        let t0 = Instant::now();
        let w = W::setup(args.seed, t.clone(), machine.nproc);
        setups.push(t0.elapsed().as_secs_f64());
        state = Some(w);
        tracer = t;
    }
    let mut w = state.expect("at least one set-up");
    if let Some(t) = &tracer {
        t.clear();
    }
    let digest = inputs::fnv1a(&inputs::digest_bytes(W::NAME, args.seed));

    // The program records its own telemetry into this registry for the
    // measured loop only (worker pools re-install it on their threads).
    let registry = ashn::telemetry::Registry::new();
    let _installed = ashn::telemetry::install(&registry);

    let mut units: Vec<UnitRecord> = Vec::new();
    let (mut attempted, mut failures) = (0usize, Vec::new());
    let (mut failed, mut wrong, mut degraded) = (0usize, 0usize, 0usize);
    let loop_start = Instant::now();
    while units.len() < W::QUALITY_UNITS || loop_start.elapsed().as_secs_f64() < args.seconds {
        let i = units.len();
        let traced = args.trace && (i / W::CYCLE) % 2 == 1;
        let unit = w.unit(i, traced);
        attempted += unit.items;
        for f in unit.failures {
            failures.push(match f {
                Failure::Failed(what) => {
                    failed += 1;
                    format!("FAILED unit {i}: {what}")
                }
                Failure::Wrong(what) => {
                    failed += 1;
                    wrong += 1;
                    format!("WRONG unit {i}: {what}")
                }
                Failure::Degraded(what) => {
                    degraded += 1;
                    format!("DEGRADED unit {i}: {what}")
                }
            });
        }
        units.push(UnitRecord {
            seconds: unit.seconds,
            items: unit.items,
            traced,
        });
    }
    let metrics = if args.trace {
        let spans = tracer.as_ref().map(|t| t.spans()).unwrap_or_default();
        let metrics = layer_metrics::<W>(&spans, &w.public(), &units);
        write_trace::<W>(args, &spans, &w.telemetry_json());
        metrics
    } else {
        let quality = w.quality();
        let latencies: Vec<f64> = units.iter().map(|u| u.seconds * 1e3).collect();
        let busy: f64 = units.iter().map(|u| u.seconds).sum();
        let items: usize = units.iter().map(|u| u.items).sum();
        vec![
            metric("setup_s", "s", percentile(&setups, 0.5)),
            metric("throughput_per_s", "1/s", items as f64 / busy),
            metric("latency_ms_p50", "ms", percentile(&latencies, 0.5)),
            metric("latency_ms_p90", "ms", percentile(&latencies, 0.9)),
            metric(
                "twoq_gates_mean",
                "count",
                quality.twoq_sum / quality.circuits as f64,
            ),
            metric(
                "interaction_time_mean",
                "1/g",
                quality.time_sum / quality.circuits as f64,
            ),
            metric("hop_mean", "prob", quality.hop_sum / quality.hops as f64),
            metric(
                "ok_frac",
                "ratio",
                1.0 - (failed + degraded) as f64 / attempted as f64,
            ),
            metric("peak_rss_mb", "MiB", machine::peak_rss_mb()),
        ]
    };

    // Human-readable report.
    println!(
        "stackbench {} seed={} seconds={} trace={}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("machine: {}", machine.to_json());
    println!("input digest: {digest:016x}");
    println!(
        "units: {} ({} traced), items attempted: {attempted}, failed: {failed}, \
         degraded: {degraded}",
        units.len(),
        units.iter().filter(|u| u.traced).count()
    );
    println!(
        "latency samples: {}; set-ups: {} (median {:.4} s)",
        units.iter().filter(|u| !u.traced).count(),
        setups.len(),
        percentile(&setups, 0.5)
    );
    for f in &failures {
        println!("{f}");
    }
    for m in &metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        wrong == 0,
        attempted,
        failed,
        metrics_json.join(", ")
    );
    write_result::<W>(args, machine, digest, &units, &setups, &failures, &line);
    println!("{line}");
}

fn layer_metrics<W: Workload>(
    spans: &[SpanRec],
    public: &Public,
    units: &[UnitRecord],
) -> Vec<Metric> {
    let traced: Vec<&UnitRecord> = units.iter().filter(|u| u.traced).collect();
    let n = traced.len() as f64;
    let kids = children_of(spans);
    let ms = |ns: u64| ns as f64 / 1e6;
    // Top-level busy and self time by name.
    let top = |name: &str| -> (u64, u64, usize) {
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == name)
            .fold((0, 0, 0), |(busy, own, count), (i, s)| {
                let child = union_ns(kids[i].clone());
                (busy + s.ns(), own + s.ns().saturating_sub(child), count + 1)
            })
    };
    let synth_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "synth")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    let synth_busy_ns = synth_us.iter().sum::<f64>() * 1e3;
    let synth_capacity_ns: f64 = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| {
            let workers = if s.name == "service" {
                public.workers
            } else {
                1
            };
            union_ns(kids[i].clone()) as f64 * workers as f64
        })
        .sum();
    let (score_busy, _, score_calls) = top("score");
    let (compile_busy, compile_self, _) = top("compile");
    let (service_busy, service_self, _) = top("service");
    let top_busy: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(SpanRec::ns)
        .sum();
    let traced_s: f64 = traced.iter().map(|u| u.seconds).sum();

    // Overhead over complete (untraced, traced) block pairs only, so both
    // sides saw the same mix of units (on `qv_fig7`, the same circuits).
    let pair = 2 * W::CYCLE;
    let paired = if units.len() >= pair {
        units.len() / pair * pair
    } else {
        units.len()
    };
    let (mut on, mut off) = (0.0, 0.0);
    for u in &units[..paired] {
        if u.traced {
            on += u.seconds;
        } else {
            off += u.seconds;
        }
    }
    let per = |x: f64| x / n;
    let batches = public.batches as f64;
    let compiles = public.opt_compiles as f64;
    vec![
        metric("score.busy_ms", "ms", per(ms(score_busy))),
        metric("score.calls", "count", per(score_calls as f64)),
        metric(
            "score.rho_gbps",
            "GB/s",
            public.rho_bytes / score_busy as f64,
        ),
        metric("synth.calls", "count", per(synth_us.len() as f64)),
        metric("synth.busy_ms", "ms", per(synth_busy_ns / 1e6)),
        metric("synth.call_us_p50", "us", percentile(&synth_us, 0.5)),
        metric("synth.call_us_p90", "us", percentile(&synth_us, 0.9)),
        metric(
            "synth.hit_rate",
            "ratio",
            public.synth_hits as f64 / public.synth_lookups as f64,
        ),
        metric("compile.busy_ms", "ms", per(ms(compile_busy))),
        metric("compile.self_ms", "ms", per(ms(compile_self))),
        metric(
            "opt.fired_frac",
            "ratio",
            public.opt_fired as f64 / public.opt_runs as f64,
        ),
        metric(
            "opt.twoq_removed_mean",
            "count",
            public.opt_twoq_removed as f64 / compiles,
        ),
        metric(
            "opt.iterations_mean",
            "count",
            public.opt_iterations as f64 / compiles,
        ),
        metric("service.busy_ms", "ms", per(ms(service_busy))),
        metric("service.self_ms", "ms", per(ms(service_self))),
        metric("service.dedup_ratio", "ratio", public.dedup_sum / batches),
        metric(
            "service.cold_classes",
            "count",
            public.cold_classes as f64 / batches,
        ),
        metric("service.retries", "count", public.retries as f64 / batches),
        metric(
            "service.degraded",
            "count",
            public.degraded as f64 / batches,
        ),
        metric(
            "service.worker_panics",
            "count",
            public.worker_panics as f64 / batches,
        ),
        metric(
            "par.synth_utilization",
            "ratio",
            synth_busy_ns / synth_capacity_ns,
        ),
        metric("trace.overhead", "ratio", on / off),
        metric("trace.coverage", "ratio", top_busy as f64 / 1e9 / traced_s),
    ]
}

fn out_stem<W: Workload>(args: &Args) -> String {
    format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        W::NAME,
        args.seed,
        u8::from(args.trace)
    )
}

/// Writes the run's record: machine, input digest, per-unit samples,
/// set-up times, failures, and the result line.
fn write_result<W: Workload>(
    args: &Args,
    machine: &Machine,
    digest: u64,
    units: &[UnitRecord],
    setups: &[f64],
    failures: &[String],
    line: &str,
) {
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n\"workload\": {},\n\"seed\": {},\n\"seconds\": {},\n\"trace\": {},\n\
         \"machine\": {},\n\"input_digest\": \"{digest:016x}\",\n\"setup_s\": {:?},\n",
        json_str(W::NAME),
        args.seed,
        args.seconds,
        args.trace,
        machine.to_json(),
        setups
    );
    let samples: Vec<String> = units
        .iter()
        .map(|u| format!("[{}, {}, {}]", u.seconds, u.items, u8::from(u.traced)))
        .collect();
    let _ = writeln!(
        doc,
        "\"units\": {{\"columns\": [\"seconds\", \"items\", \"traced\"], \"rows\": [{}]}},",
        samples.join(", ")
    );
    let failures: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    let _ = write!(
        doc,
        "\"failures\": [{}],\n\"result\": {line}\n}}\n",
        failures.join(", ")
    );
    if fs::create_dir_all(OUT_DIR).is_ok() {
        let _ = fs::write(format!("{}.json", out_stem::<W>(args)), doc);
    }
}

/// Writes the traced run's spans (JSON and folded stacks) and the
/// program's telemetry snapshot beside them.
fn write_trace<W: Workload>(args: &Args, spans: &[SpanRec], telemetry: &str) {
    if fs::create_dir_all(OUT_DIR).is_err() {
        return;
    }
    let stem = out_stem::<W>(args);
    let _ = fs::write(format!("{stem}.spans.json"), trace::spans_json(spans));
    let _ = fs::write(format!("{stem}.folded"), trace::folded(W::NAME, spans));
    let _ = fs::write(format!("{stem}.telemetry.json"), telemetry);
}
