//! H1 — host-side simulator throughput: byte-decode vs predecode.
//!
//! Everything else in this harness measures the *simulated* machine;
//! H1 measures the simulator itself. The predecoded instruction
//! stream (`fpc-vm/src/predecode.rs`) must leave every simulated
//! counter bit-identical (`tests/predecode_parity.rs`), so the only
//! thing it can buy is host wall-clock — this experiment reports how
//! much, as simulated instructions per host second with the
//! byte-at-a-time decoder versus the predecoded stream.
//!
//! Call-dense workloads are the interesting rows: they re-enter the
//! same small procedure bodies millions of times, which is exactly the
//! case where re-parsing the Mesa encoding's guard chain on every
//! step hurts most.

use std::time::Instant;

use fpc_compiler::{Linkage, Options};
use fpc_vm::{Machine, MachineConfig, NativeLicense};
use fpc_workloads::{compile_workload, corpus, Workload};

/// Workloads reported by H1: the call-dense set the predecoder is
/// aimed at, plus iterative contrast rows.
pub const WORKLOADS: [&str; 7] = [
    "fib",
    "ackermann",
    "tak",
    "hanoi",
    "leafcalls",
    "sieve",
    "matrix",
];

/// Sampling effort: how many timed samples per cell and how many
/// machine runs are averaged inside each sample.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Timed samples per cell; the minimum is reported.
    pub runs: usize,
    /// Machine runs averaged inside one timed sample. The corpus
    /// programs finish in well under a millisecond, so a single run is
    /// at the mercy of scheduler noise; averaging several keeps each
    /// sample in the milliseconds.
    pub reps: usize,
}

impl Params {
    /// Full effort, for the committed `BENCH_host.json`.
    pub fn full() -> Self {
        Params { runs: 5, reps: 16 }
    }

    /// One cheap pass per cell — CI smoke mode. The ratios it produces
    /// are noisy; the point is to prove the harness runs end to end
    /// and emits well-formed JSON.
    pub fn smoke() -> Self {
        Params { runs: 1, reps: 1 }
    }
}

/// One (workload, config) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Machine configuration name (i1–i4).
    pub config: &'static str,
    /// Simulated instructions per run (identical on both paths).
    pub instructions: u64,
    /// Simulated instructions per host second, byte decoder.
    pub byte_ips: f64,
    /// Simulated instructions per host second, predecoded stream.
    pub pre_ips: f64,
}

impl Row {
    /// Host speedup of the predecoded path.
    pub fn speedup(&self) -> f64 {
        self.pre_ips / self.byte_ips
    }
}

fn configs() -> [(&'static str, MachineConfig, Linkage); 4] {
    [
        ("i1", MachineConfig::i1(), Linkage::Mesa),
        ("i2", MachineConfig::i2(), Linkage::Mesa),
        ("i3", MachineConfig::i3(), Linkage::Direct),
        ("i4", MachineConfig::i4(), Linkage::Direct),
    ]
}

/// One timed sample: average seconds over `reps` fresh runs, each
/// loaded cold and, given a license, armed for the native tier.
pub(crate) fn sample(
    image: &fpc_vm::Image,
    config: MachineConfig,
    license: Option<NativeLicense>,
    fuel: u64,
    reps: usize,
) -> (u64, f64) {
    let mut instructions = 0;
    let mut elapsed = 0.0;
    for _ in 0..reps {
        let mut m = Machine::load(image, config).expect("loads");
        if let Some(license) = license {
            assert!(m.arm_native(license), "license must arm");
        }
        let t0 = Instant::now();
        m.run(fuel).expect("runs");
        elapsed += t0.elapsed().as_secs_f64();
        instructions = m.stats().instructions;
    }
    (instructions, elapsed / reps as f64)
}

/// Measures one cell on both decode paths, returning
/// `(instructions, best byte seconds, best predecode seconds)`.
///
/// The two paths are timed in *alternation* within the same loop
/// rather than back to back: host frequency scaling and scheduler
/// interference come in windows long enough to swallow a whole
/// back-to-back measurement and skew the ratio, whereas alternating
/// samples expose both paths to the same conditions and the best-of
/// picks an undisturbed window for each.
fn measure(w: &Workload, config: MachineConfig, linkage: Linkage, p: Params) -> (u64, f64, f64) {
    let compiled = compile_workload(
        w,
        Options {
            linkage,
            bank_args: config.renaming(),
        },
    )
    .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name));
    // H1 isolates the predecoder: the native tier is off on both
    // paths; it gets its own rung in H5.
    let [(_, byte_cfg), (_, pre_cfg), ..] = config.dispatch_ladder();
    // Untimed warmup: fault in code paths and allocator pools.
    Machine::load(&compiled.image, byte_cfg)
        .expect("loads")
        .run(w.fuel)
        .expect("runs");
    Machine::load(&compiled.image, pre_cfg)
        .expect("loads")
        .run(w.fuel)
        .expect("runs");
    let (mut best_byte, mut best_pre) = (f64::INFINITY, f64::INFINITY);
    let mut instructions = 0;
    for _ in 0..p.runs {
        let (byte_i, byte_s) = sample(&compiled.image, byte_cfg, None, w.fuel, p.reps);
        let (pre_i, pre_s) = sample(&compiled.image, pre_cfg, None, w.fuel, p.reps);
        assert_eq!(
            byte_i, pre_i,
            "{}: decode paths must simulate identically",
            w.name
        );
        instructions = byte_i;
        best_byte = best_byte.min(byte_s);
        best_pre = best_pre.min(pre_s);
    }
    (instructions, best_byte, best_pre)
}

/// Runs the full measurement matrix.
pub fn measure_all(p: Params) -> Vec<Row> {
    let corpus = corpus();
    let mut rows = Vec::new();
    for name in WORKLOADS {
        let w = corpus
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("no corpus entry {name}"));
        for (cname, config, linkage) in configs() {
            let (instructions, byte_s, pre_s) = measure(w, config, linkage, p);
            rows.push(Row {
                workload: name,
                config: cname,
                instructions,
                byte_ips: instructions as f64 / byte_s,
                pre_ips: instructions as f64 / pre_s,
            });
        }
    }
    rows
}

fn fmt_mips(ips: f64) -> String {
    format!("{:.1}", ips / 1e6)
}

/// The report and the `BENCH_host.json` contents.
pub fn report_and_json(p: Params) -> (String, String) {
    let rows = measure_all(p);
    let mut out = String::new();
    out.push_str("H1: host throughput (simulated Minstr/s), byte decode vs predecoded\n");
    out.push_str(&format!(
        "{:<10} {:>4} {:>12} {:>10} {:>10} {:>8}\n",
        "workload", "cfg", "sim instrs", "byte", "predec", "speedup"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<10} {:>4} {:>12} {:>10} {:>10} {:>7.2}x\n",
            r.workload,
            r.config,
            r.instructions,
            fmt_mips(r.byte_ips),
            fmt_mips(r.pre_ips),
            r.speedup()
        ));
    }
    let call_dense: Vec<&Row> = rows
        .iter()
        .filter(|r| matches!(r.workload, "fib" | "ackermann" | "tak"))
        .collect();
    let worst = call_dense
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    // The bank machine (i4) is reported separately: its calls move
    // real simulated words (bank flushes, renamed arguments), host
    // work both decoders share, so decode can only be a smaller slice
    // of its step. On i1–i3 decode is the bottleneck and the ratio is
    // the honest measure of the predecoder.
    let worst_decode_bound = call_dense
        .iter()
        .filter(|r| r.config != "i4")
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "call-dense (fib/ackermann/tak) worst-case speedup: {worst_decode_bound:.2}x on i1-i3, {worst:.2}x including the bank machine (i4)\n"
    ));

    let mut json = String::from("{\n  \"experiment\": \"h1_host_speed\",\n  \"unit\": \"simulated instructions per host second\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"instructions\": {}, \"byte_ips\": {:.0}, \"predecode_ips\": {:.0}, \"speedup\": {:.3}}}{}\n",
            r.workload,
            r.config,
            r.instructions,
            r.byte_ips,
            r.pre_ips,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"call_dense_worst_speedup_i1_i3\": {worst_decode_bound:.3},\n  \"call_dense_worst_speedup_all\": {worst:.3}\n}}\n"
    ));
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_the_matrix() {
        // A cheap smoke check: measure one small workload on one
        // config end to end (the full matrix runs in the binary).
        let corpus = corpus();
        let w = corpus.iter().find(|w| w.name == "leafcalls").unwrap();
        let (instrs, byte_s, pre_s) =
            measure(w, MachineConfig::i2(), Linkage::Mesa, Params::smoke());
        assert!(instrs > 0 && byte_s > 0.0 && pre_s > 0.0);
    }
}
