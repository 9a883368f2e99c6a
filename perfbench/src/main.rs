//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--inject-delay-us <us>]
//! ```
//!
//! Runs one workload as a closed loop for `--seconds`, checks every op
//! against an oracle computed during set-up, and prints one JSON object
//! as its last line: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from a separate traced run and writes its spans as
//! JSON lines to `.bench_out/`. `--inject-delay-us` adds a busy wait
//! inside each op's guest-execution window; only the self-test uses it,
//! to check that a slowdown is reported as a regression. See README.md
//! for every metric.

mod counters;
mod ladder;
mod measure;
mod oracle;
mod programs;
mod storm;
mod trace;
mod vmwork;

use std::path::PathBuf;

use vmwork::Kind;

/// Op id that tags spans recorded during set-up.
pub const SETUP_OP: u64 = u64::MAX;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    /// The only source of variation between runs.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end run.
    pub trace: bool,
    /// Busy wait added to each op, for the self-test.
    pub delay_ns: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        delay_ns: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--inject-delay-us" => {
                let us: f64 = value.parse().map_err(|e| bad(&e))?;
                args.delay_ns = (us * 1e3) as u64;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Metrics in the order they were put, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds metric `name`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed or disagreed with the oracle.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<trace::Span>,
}

/// Self time per layer boundary over all spans, as log lines.
pub fn self_time_lines(spans: &[trace::Span]) -> Vec<String> {
    let selfs = trace::self_times(spans);
    let total: u64 = selfs.iter().map(|(_, t)| t).sum();
    selfs
        .into_iter()
        .map(|(name, t)| {
            format!(
                "self time {name:<20} {:>10.3} ms  {:>5.1}%",
                t as f64 / 1e6,
                100.0 * measure::ratio(t as f64, total as f64)
            )
        })
        .collect()
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "pipeline_cold" => vmwork::run(Kind::PipelineCold, args),
        "calls_hot" => vmwork::run(Kind::CallsHot, args),
        "loops_hot" => vmwork::run(Kind::LoopsHot, args),
        "cluster_storm" => storm::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let result = parse_args().and_then(|args| {
        let out = run(&args)?;
        if args.trace {
            let path = PathBuf::from(format!(
                ".bench_out/spans-{}-{}.jsonl",
                args.workload, args.seed
            ));
            trace::write_jsonl(&path, &out.spans)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("spans: {} written to {}", out.spans.len(), path.display());
        }
        Ok(out)
    });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in &out.log {
        println!("{line}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        measure::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    for (name, value, unit) in &out.metrics.0 {
        println!("{name} = {value} {unit}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.json()
    );
}
