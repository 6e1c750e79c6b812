//! `qnbench`: one benchmark for the quadratic-neuron stack.
//!
//! ```text
//! cargo run --release --manifest-path qnbench/Cargo.toml -- \
//!     --workload <resnet-infer|resnet-serve|seq2seq-decode> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures one workload end to end through the
//! stack's public entry points, with no tracing, and reports the
//! end-to-end metrics. With `--trace 1` it runs the traced suite instead,
//! whatever `--workload` names, since every traced record carries every
//! per-layer metric: every model path through a timing `Exec` wrapper
//! (`trace.rs`), the GEMM/im2col shape replay, the serving phases with the
//! server's own counters, a replica of the training steps and the decode
//! steps. Its run header names the workload `traced-suite`. The traced
//! run never feeds an end-to-end metric.
//!
//! The end-to-end metrics are CPU time (see `stats::cpu_ms` for why);
//! wall-clock figures are reported beside them, unbounded.
//!
//! Every output is checked within the run; a mismatch counts as a failed
//! operation. Stdout carries a header line, a human-readable report (each
//! metric by name with unit, median, p90 and sample count) and, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

#[global_allocator]
static ALLOC: qn_bench::counting_alloc::CountingAlloc = qn_bench::counting_alloc::CountingAlloc;

mod decode;
mod infer;
mod serve;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::Duration;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

const WORKLOADS: [&str; 3] = ["resnet-infer", "resnet-serve", "seq2seq-decode"];

/// The run header's workload name for `--trace 1`, which runs one suite
/// whatever `--workload` names.
const TRACED_SUITE: &str = "traced-suite";

/// What one workload (or the traced suite) hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in the order of `BENCHMARK.json`.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
    }
}

/// Prints one report line for a sampled timing: median, p90 and count.
pub fn report_samples(name: &str, unit: &str, samples: &[f64]) {
    println!(
        "  {name:<28} median {:>10.4} {unit:<9} p90 {:>10.4}  n={}",
        stats::median(samples),
        stats::quantile(samples, 0.9),
        samples.len()
    );
}

pub fn report_value(name: &str, unit: &str, value: f64) {
    println!("  {name:<28} {value:>17.4} {unit}");
}

/// Median set-up CPU time in s over `reps` repetitions of `build`;
/// returns the last build.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut t = stats::Timings::default();
    let mut last = None;
    for _ in 0..reps {
        // drop the previous build first so its memory is not live
        drop(last.take());
        let c = stats::Clock::start();
        let built = build();
        t.stop(&c);
        last = Some(built);
    }
    t.report("setup");
    (stats::median(&t.cpu) / 1e3, last.expect("reps >= 1"))
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qnbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Run header: a comparison of two records is meaningful only when
    // these agree (compare.py refuses records whose headers differ).
    println!(
        "header {{\"workload\":\"{}\",\"trace\":{},\"seed\":{},\"seconds\":{},\"host_cpus\":{},\
         \"simd\":\"{}\",\"kernel_profile\":\"{}\",\"threads\":{},\"rev\":\"{}\"}}",
        if args.trace {
            TRACED_SUITE
        } else {
            &args.workload
        },
        u8::from(args.trace),
        args.seed,
        args.seconds,
        host_cpus(),
        qn_simd::SimdLevel::active().name(),
        qn_simd::KernelProfile::active().name(),
        qn_parallel::num_threads(),
        std::env::var("QN_BENCH_REV").unwrap_or_default(),
    );
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        let mut o = Outcome::default();
        o.absorb(infer::trace(args.seed));
        o.absorb(serve::trace(args.seed, budget));
        o.absorb(train::trace(args.seed));
        o.absorb(decode::trace(args.seed));
        o
    } else {
        match args.workload.as_str() {
            "resnet-infer" => infer::run(args.seed, budget),
            "resnet-serve" => serve::run(args.seed, budget),
            _ => decode::run(args.seed, budget),
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
