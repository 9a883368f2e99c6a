//! The dispatch ladder, timed in alternation over a workload's images.
//!
//! Each round runs every image once on every setting, in a rotating
//! order, so slow drift of the host hits all settings alike. A sample
//! loads the image cold, arms the native tier where the setting has it,
//! and times `Machine::run` over at most a fixed prefix of the run: the
//! same prefix on every setting, since all of them simulate the same
//! instructions. ns/instr is reported as the median over rounds, with
//! the quartiles as the spread.

use std::time::{Duration, Instant};

use fpc_rng::Rng;
use fpc_vm::{Image, Machine, MachineConfig, NativeLicense, VmError};

use crate::counters::VmCounters;
use crate::measure::{median, quartiles, ratio};
use crate::programs::Rung;
use crate::Metrics;

/// Instructions one ladder sample runs at most.
const PREFIX_FUEL: u64 = 300_000;

/// The settings, with their metric names. `alone.ic` is the same
/// setting as `predecode_ic`, sampled a second time in each round, so
/// the two give an A/A noise floor for the IC question.
const SETTINGS: [(Rung, &str); 8] = [
    (Rung::Byte, "byte"),
    (Rung::Predecode, "predecode"),
    (Rung::PredecodeIc, "predecode_ic"),
    (Rung::PredecodeIcFuse, "predecode_ic_fuse"),
    (Rung::Native, "native"),
    (Rung::PredecodeIc, "alone.ic"),
    (Rung::AloneFuse, "alone.fuse"),
    (Rung::AloneNative, "alone.native"),
];

const NATIVE: usize = 4;

/// One image the ladder runs.
pub struct Subject<'a> {
    /// The image.
    pub image: &'a Image,
    /// Its verifier license.
    pub license: NativeLicense,
    /// The implementation preset (plus any memory sizing) it runs on.
    pub base: MachineConfig,
    /// Implementation index, 0 = I1 … 3 = I4.
    pub imp: usize,
    /// The oracle's output when the whole run fits in the prefix.
    pub output: &'a [u16],
}

/// Per-round ns/instr for every setting, and for the native setting
/// per implementation.
#[derive(Debug, Default)]
pub struct Ladder {
    rounds: Vec<[f64; SETTINGS.len()]>,
    native_by_imp: Vec<[f64; 4]>,
    /// Samples run.
    pub attempted: u64,
    /// Samples that failed or disagreed with the oracle.
    pub failed: u64,
}

fn sample(s: &Subject, rung: Rung) -> Result<(u64, u64, Machine), String> {
    let mut m = Machine::load(s.image, rung.config(s.base)).map_err(|e| e.to_string())?;
    if rung.native() && !m.arm_native(s.license) {
        return Err("license did not arm".into());
    }
    let t = Instant::now();
    let r = m.run(PREFIX_FUEL);
    let ns = t.elapsed().as_nanos() as u64;
    match r {
        Ok(()) if m.output() != s.output => Err("ladder run differs from the oracle".into()),
        Ok(()) | Err(VmError::OutOfFuel) => Ok((ns, m.stats().instructions, m)),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs rounds until `budget` has passed and at least `min_rounds` are
/// done. With `counters`, the native-setting machines of the first
/// round are added to it.
pub fn run(
    subjects: &[Subject],
    budget: Duration,
    min_rounds: usize,
    rng: &mut Rng,
    mut counters: Option<&mut VmCounters>,
) -> Ladder {
    let start = Instant::now();
    let mut out = Ladder::default();
    while out.rounds.len() < min_rounds || start.elapsed() < budget {
        let mut ns = [0u64; SETTINGS.len()];
        let mut instrs = [0u64; SETTINGS.len()];
        let mut nat_ns = [0u64; 4];
        let mut nat_instrs = [0u64; 4];
        let first = out.rounds.is_empty();
        for s in subjects {
            let offset = rng.gen_index(SETTINGS.len());
            for k in 0..SETTINGS.len() {
                let i = (k + offset) % SETTINGS.len();
                out.attempted += 1;
                match sample(s, SETTINGS[i].0) {
                    Ok((t, n, m)) => {
                        ns[i] += t;
                        instrs[i] += n;
                        if i == NATIVE {
                            nat_ns[s.imp] += t;
                            nat_instrs[s.imp] += n;
                            if first {
                                if let Some(c) = counters.as_deref_mut() {
                                    c.add(s.imp, &m);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("ladder {}: {e}", SETTINGS[i].1);
                    }
                }
            }
        }
        out.rounds.push(std::array::from_fn(|i| {
            ratio(ns[i] as f64, instrs[i] as f64)
        }));
        out.native_by_imp.push(std::array::from_fn(|i| {
            ratio(nat_ns[i] as f64, nat_instrs[i] as f64)
        }));
    }
    out
}

impl Ladder {
    fn column(&self, i: usize) -> Vec<f64> {
        self.rounds.iter().map(|r| r[i]).collect()
    }

    fn paired(&self, a: usize, b: usize) -> Vec<f64> {
        self.rounds.iter().map(|r| ratio(r[a], r[b])).collect()
    }

    /// Writes `vm.ns_per_instr.*`.
    pub fn report(&self, out: &mut Metrics) {
        for (i, (_, name)) in SETTINGS.iter().enumerate() {
            out.put(
                &format!("vm.ns_per_instr.{name}"),
                median(&self.column(i)),
                "ns/instr",
            );
        }
        for (i, name) in ["i1", "i2", "i3", "i4"].iter().enumerate() {
            let col: Vec<f64> = self.native_by_imp.iter().map(|r| r[i]).collect();
            out.put(&format!("vm.ns_per_instr.{name}"), median(&col), "ns/instr");
        }
    }

    /// The log lines answering whether the inline XFER cache helps
    /// beyond noise and how the native tier fares per implementation.
    pub fn answers(&self) -> Vec<String> {
        let spread = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.3} [{q1:.3}, {q3:.3}]", median(v))
        };
        let mut lines = Vec::new();
        for (i, (_, name)) in SETTINGS.iter().enumerate() {
            lines.push(format!(
                "ladder {name:<18} ns/instr median [q1, q3] over {} rounds: {}",
                self.rounds.len(),
                spread(&self.column(i))
            ));
        }
        // Beyond noise: the IC ratio's quartiles exclude 1, and its
        // median is further from 1 than the A/A ratio's quartiles are
        // apart.
        let ic = self.paired(5, 1);
        let aa = self.paired(5, 2);
        let (ic1, ic3) = quartiles(&ic);
        let (aa1, aa3) = quartiles(&aa);
        let separated = (ic3 < 1.0 || ic1 > 1.0) && (median(&ic) - 1.0).abs() > aa3 - aa1;
        lines.push(format!(
            "IC question: alone.ic / predecode ns ratio {} vs A/A alone.ic / predecode_ic {}: {}",
            spread(&ic),
            spread(&aa),
            if separated {
                "beyond noise"
            } else {
                "within noise"
            }
        ));
        for (i, name) in ["i1", "i2", "i3", "i4"].iter().enumerate() {
            let col: Vec<f64> = self.native_by_imp.iter().map(|r| r[i]).collect();
            lines.push(format!("native rung on {name}: ns/instr {}", spread(&col)));
        }
        lines
    }
}
