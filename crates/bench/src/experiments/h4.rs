//! H4 — what the static verifier buys: certificate-licensed check
//! elision, and the cost of verification itself.
//!
//! The verifier (`fpc-verify`) proves per-procedure stack-depth bounds
//! and call-target well-formedness ahead of time; a machine configured
//! with [`MachineConfig::with_verified_images`] then skips the dynamic
//! stack and size-class checks on every step. Those checks are
//! host-side bookkeeping only — the simulated counters are
//! bit-identical either way, which this experiment *asserts* on every
//! cell before timing it. What remains is host wall-clock: simulated
//! instructions per host second with the checks in place versus
//! elided, on all four dispatch rungs, the native one armed by the
//! same certificate.
//!
//! The second thing H4 reports is the price of admission: how long
//! verification itself takes per image, as code bytes per host
//! second. The certificate is only a good trade if it is cheap
//! relative to the runs it licenses; the `verify_us` column shows it
//! is microseconds against runs of milliseconds.

use std::time::Instant;

use fpc_compiler::{Linkage, Options};
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{Image, Machine, MachineConfig, NativeLicense};
use fpc_workloads::{compile_workload, corpus, Workload};

use super::{h1, h5};

/// Workloads reported by H4: the call-dense set where per-step check
/// overhead concentrates, plus iterative contrast rows.
pub const WORKLOADS: [&str; 7] = [
    "fib",
    "ackermann",
    "tak",
    "hanoi",
    "leafcalls",
    "sieve",
    "matrix",
];

pub use h1::Params;

/// The four host dispatch rungs, applied to the I3 machine (the
/// paper's full design under direct linkage — the headline machine),
/// the native rung at H5's threshold.
fn rungs() -> [(&'static str, MachineConfig); 4] {
    h5::dispatches(MachineConfig::i3())
}

/// One (workload, rung) measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Dispatch rung name.
    pub rung: &'static str,
    /// Simulated instructions per run (identical on both paths).
    pub instructions: u64,
    /// Simulated instructions per host second, dynamic checks on.
    pub checked_ips: f64,
    /// Simulated instructions per host second, checks elided.
    pub elided_ips: f64,
    /// Host microseconds to verify the image (one-time, per image).
    pub verify_us: f64,
    /// Image code size in bytes (the verifier's input).
    pub code_bytes: usize,
}

impl Row {
    /// Host speedup of the check-elided path.
    pub fn speedup(&self) -> f64 {
        self.elided_ips / self.checked_ips
    }
}

/// Runs the image once on each path and asserts the simulated side is
/// bit-identical — output, halt state, and every counter.
fn assert_parity(
    image: &Image,
    checked: MachineConfig,
    elided: MachineConfig,
    license: Option<NativeLicense>,
    fuel: u64,
) {
    let fingerprint = |config: MachineConfig| {
        let mut m = Machine::load(image, config).expect("loads");
        if let Some(license) = license {
            assert!(m.arm_native(license), "license must arm");
        }
        m.run(fuel).expect("runs");
        format!("{:?}/{}/{:?}", m.output(), m.halted(), m.stats())
    };
    assert_eq!(
        fingerprint(checked),
        fingerprint(elided),
        "check elision must not change the simulated machine"
    );
}

/// Measures one cell, returning
/// `(instructions, best checked seconds, best elided seconds)`.
/// Alternates the two paths within the loop for the same reason H1
/// does: both see the same host conditions, best-of picks an
/// undisturbed window for each.
fn measure(w: &Workload, config: MachineConfig, p: Params) -> (u64, f64, f64, f64, usize) {
    let compiled = compile_workload(
        w,
        Options {
            linkage: Linkage::Direct,
            bank_args: config.renaming(),
        },
    )
    .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.name));
    let opts = VerifyOptions::for_config(&config);
    // Time verification itself (best of a few, it is microseconds).
    let mut verify_s = f64::INFINITY;
    let mut license = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let report = verify_image(&compiled.image, &opts);
        verify_s = verify_s.min(t0.elapsed().as_secs_f64());
        assert!(report.is_ok(), "{} must verify:\n{report}", w.name);
        // The native rung runs under the certificate's license.
        license = report
            .certificate()
            .filter(|_| config.native)
            .map(|c| c.native_license());
    }
    let checked_cfg = config.with_verified_images(false);
    let elided_cfg = config.with_verified_images(true);
    assert_parity(&compiled.image, checked_cfg, elided_cfg, license, w.fuel);
    // Untimed warmup on both paths.
    h1::sample(&compiled.image, checked_cfg, license, w.fuel, 1);
    h1::sample(&compiled.image, elided_cfg, license, w.fuel, 1);
    let (mut best_checked, mut best_elided) = (f64::INFINITY, f64::INFINITY);
    let mut instructions = 0;
    for _ in 0..p.runs {
        let (c_i, c_s) = h1::sample(&compiled.image, checked_cfg, license, w.fuel, p.reps);
        let (e_i, e_s) = h1::sample(&compiled.image, elided_cfg, license, w.fuel, p.reps);
        assert_eq!(c_i, e_i, "{}: both paths must simulate identically", w.name);
        instructions = c_i;
        best_checked = best_checked.min(c_s);
        best_elided = best_elided.min(e_s);
    }
    (
        instructions,
        best_checked,
        best_elided,
        verify_s,
        compiled.image.code.len(),
    )
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
        for (rname, config) in rungs() {
            let (instructions, checked_s, elided_s, verify_s, code_bytes) = measure(w, config, p);
            rows.push(Row {
                workload: name,
                rung: rname,
                instructions,
                checked_ips: instructions as f64 / checked_s,
                elided_ips: instructions as f64 / elided_s,
                verify_us: verify_s * 1e6,
                code_bytes,
            });
        }
    }
    rows
}

fn fmt_mips(ips: f64) -> String {
    format!("{:.1}", ips / 1e6)
}

/// The report and the `BENCH_host_verify.json` contents.
pub fn report_and_json(p: Params) -> (String, String) {
    let rows = measure_all(p);
    let mut out = String::new();
    out.push_str(
        "H4: certificate-licensed check elision (simulated Minstr/s), checked vs elided, I3\n",
    );
    out.push_str(&format!(
        "{:<10} {:>9} {:>12} {:>9} {:>9} {:>8} {:>10}\n",
        "workload", "rung", "sim instrs", "checked", "elided", "speedup", "verify_us"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<10} {:>9} {:>12} {:>9} {:>9} {:>7.2}x {:>10.1}\n",
            r.workload,
            r.rung,
            r.instructions,
            fmt_mips(r.checked_ips),
            fmt_mips(r.elided_ips),
            r.speedup(),
            r.verify_us,
        ));
    }
    let median_speedup = {
        let mut s: Vec<f64> = rows.iter().map(Row::speedup).collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[s.len() / 2]
    };
    let worst_verify_us = rows.iter().map(|r| r.verify_us).fold(0.0, f64::max);
    out.push_str(&format!(
        "median elision speedup {median_speedup:.2}x; worst verify cost {worst_verify_us:.1} us per image\n"
    ));

    let mut json = String::from(
        "{\n  \"experiment\": \"h4_verify_speed\",\n  \"unit\": \"simulated instructions per host second\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"rung\": \"{}\", \"instructions\": {}, \"checked_ips\": {:.0}, \"elided_ips\": {:.0}, \"speedup\": {:.3}, \"verify_us\": {:.1}, \"code_bytes\": {}}}{}\n",
            r.workload,
            r.rung,
            r.instructions,
            r.checked_ips,
            r.elided_ips,
            r.speedup(),
            r.verify_us,
            r.code_bytes,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"median_speedup\": {median_speedup:.3},\n  \"worst_verify_us\": {worst_verify_us:.1}\n}}\n"
    ));
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cell_end_to_end() {
        let corpus = corpus();
        let w = corpus.iter().find(|w| w.name == "leafcalls").unwrap();
        let (rname, config) = rungs()[3];
        assert_eq!(rname, "native");
        let (instrs, checked_s, elided_s, verify_s, bytes) = measure(w, config, Params::smoke());
        assert!(instrs > 0 && checked_s > 0.0 && elided_s > 0.0);
        assert!(verify_s > 0.0 && bytes > 0);
    }
}
