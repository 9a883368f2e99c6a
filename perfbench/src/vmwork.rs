//! The three single-machine workloads: `pipeline_cold`, `calls_hot`
//! and `loops_hot`. One op is one image on one implementation.

use std::time::Instant;

use fpc_rng::Rng;
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{Image, Machine, NativeLicense, VmError};
use fpc_workloads::{compile_workload, Workload};

use crate::counters::VmCounters;
use crate::ladder::{self, Subject};
use crate::measure::{closed_loop, median, peak_rss_mb, quiet_median, spin, LoopStats, Sample};
use crate::oracle::{self, Record};
use crate::programs::{self, implementations, Impl, Rung};
use crate::{trace, Args, Metrics, Outcome, SETUP_OP};

/// Which of the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Why: this is what a user pays per image. Corpus runs are only
    /// 5–40 k instructions long, so the compiler, verifier, loader and
    /// native warm-up take a large share. It is the only workload that
    /// covers coroutines, processes, pointers and module instances.
    PipelineCold,
    /// Why: nearly all the work is in dispatch, XFER resolution, the
    /// return stack, the frame heap, the banks and the native tier; the
    /// compiler and verifier do none. The I4 rows hold the bank-machine
    /// native regression.
    CallsHot,
    /// Why: transfers are rare, so the XFER cache, the return stack, the
    /// banks and procedure-level native tiering are all bypassed; plain
    /// dispatch and fusion carry the run. It is the foil for any change
    /// to the transfer path or to tiering: the prediction for such
    /// changes is no movement here.
    LoopsHot,
}

/// One program on one implementation, with its oracle record.
struct Item {
    program: usize,
    imp: Impl,
    imp_idx: usize,
    oracle: Record,
}

/// A compiled, verified image and its native license.
pub struct Prepared {
    /// The image.
    pub image: Image,
    /// The license its verifier certificate grants.
    pub license: NativeLicense,
}

/// Compiles `p` for `imp` and verifies it for the fastest setting.
pub fn prepare(p: &Workload, imp: &Impl) -> Result<Prepared, String> {
    let compiled = trace::span("compiler.compile", || compile_workload(p, imp.options()))
        .map_err(|e| e.to_string())?;
    let opts = VerifyOptions::for_config(&Rung::Native.config(imp.config));
    let report = trace::span("verify.verify", || verify_image(&compiled.image, &opts));
    let cert = report
        .certificate()
        .ok_or_else(|| format!("{} does not verify clean", p.name))?;
    Ok(Prepared {
        image: compiled.image,
        license: cert.native_license(),
    })
}

struct Bench {
    kind: Kind,
    programs: Vec<Workload>,
    items: Vec<Item>,
}

/// Instructions each image runs during `calls_hot`/`loops_hot` warm-up.
const WARM_FUEL: u64 = 50_000;
/// Set-ups per run; `setup_s` is the median of those in the host's
/// fast regime.
const SETUPS: usize = 15;
/// Ops per run at least, so that p90 has ten samples beyond it.
const MIN_OPS: usize = 100;

fn build(kind: Kind, rng: &mut Rng) -> Result<Bench, String> {
    let programs = match kind {
        Kind::PipelineCold => programs::pipeline_programs(),
        Kind::CallsHot => programs::calls_programs(rng),
        Kind::LoopsHot => programs::loop_programs(rng),
    };
    let mut items = Vec::new();
    for (pi, p) in programs.iter().enumerate() {
        for (imp_idx, imp) in implementations().into_iter().enumerate() {
            let compiled =
                compile_workload(p, imp.options()).map_err(|e| format!("{}: {e}", p.name))?;
            // Early binding collapses module instances onto their owner,
            // so `accounts` legitimately differs from its host reference
            // under Direct linkage; it is checked against the oracle only.
            let host = !(p.name == "accounts" && imp.linkage == fpc_compiler::Linkage::Direct);
            let expected = host.then_some(p.expected.as_slice());
            let oracle = oracle::run(&compiled.image, imp.config, p.fuel, expected)
                .map_err(|e| format!("{} on {}: {e}", p.name, imp.name))?;
            items.push(Item {
                program: pi,
                imp,
                imp_idx,
                oracle,
            });
        }
    }
    Ok(Bench {
        kind,
        programs,
        items,
    })
}

impl Bench {
    fn prepare(&self, item: &Item) -> Result<Prepared, String> {
        prepare(&self.programs[item.program], &item.imp)
    }

    /// Loads on the fastest licensed setting, arms the native tier and
    /// runs for `fuel`; returns the machine and the run's host time.
    fn execute(
        &self,
        item: &Item,
        prep: &Prepared,
        fuel: u64,
        delay_ns: u64,
    ) -> Result<(Machine, u64), VmError> {
        let cfg = Rung::Native.config(item.imp.config);
        let mut m = trace::span("vm.load", || {
            let mut m = Machine::load(&prep.image, cfg)?;
            if m.arm_native(prep.license) {
                Ok(m)
            } else {
                Err(VmError::BadImage("native license did not arm".into()))
            }
        })?;
        let t = Instant::now();
        let r = trace::span("vm.run", || {
            let r = m.run(fuel);
            if delay_ns > 0 {
                spin(delay_ns);
            }
            r
        });
        let run_ns = t.elapsed().as_nanos() as u64;
        r.map(|()| (m, run_ns))
    }

    /// What a user pays before the first op. `calls_hot`/`loops_hot`:
    /// compile and verify every image, then warm each up for a short
    /// prefix. `pipeline_cold` compiles per op, so its set-up is one
    /// warm-up pass of whole ops.
    fn setup(&self) -> Result<Vec<Prepared>, String> {
        match self.kind {
            Kind::PipelineCold => {
                for item in &self.items {
                    self.op(item, None, 0)?;
                }
                Ok(Vec::new())
            }
            Kind::CallsHot | Kind::LoopsHot => {
                let prepared = self
                    .items
                    .iter()
                    .map(|item| self.prepare(item))
                    .collect::<Result<Vec<_>, _>>()?;
                for (item, prep) in self.items.iter().zip(&prepared) {
                    match self.execute(item, prep, WARM_FUEL, 0) {
                        Ok(_) | Err(VmError::OutOfFuel) => {}
                        Err(e) => return Err(e.to_string()),
                    }
                }
                Ok(prepared)
            }
        }
    }

    /// One op, checked against the oracle. `prepared` is `None` for
    /// `pipeline_cold`, whose op compiles and verifies itself.
    fn op(
        &self,
        item: &Item,
        prepared: Option<&Prepared>,
        delay_ns: u64,
    ) -> Result<(Sample, Machine), String> {
        let p = &self.programs[item.program];
        let t0 = Instant::now();
        let owned;
        let prep = match prepared {
            Some(prep) => prep,
            None => {
                owned = self.prepare(item)?;
                &owned
            }
        };
        let (m, run_ns) = self
            .execute(item, prep, p.fuel, delay_ns)
            .map_err(|e| e.to_string())?;
        let op_ns = t0.elapsed().as_nanos() as u64;
        oracle::check(&m, &item.oracle)
            .map_err(|e| format!("{} on {}: {e}", p.name, item.imp.name))?;
        let sample = Sample {
            op_ns,
            run_ns,
            instructions: m.stats().instructions,
            items: 1,
        };
        Ok((sample, m))
    }

    /// The closed loop over every item. With `traced`, odd passes run
    /// with tracing on and the first traced pass's counters go into it.
    fn timed(
        &self,
        prepared: &[Prepared],
        seconds: f64,
        rng: &mut Rng,
        delay_ns: u64,
        mut traced: Option<&mut VmCounters>,
        between: impl FnMut(f64),
    ) -> LoopStats {
        let op = |i: usize, pass: usize| {
            trace::enable(traced.is_some() && pass % 2 == 1);
            trace::set_op(i as u64);
            let item = &self.items[i];
            let (s, m) = self.op(item, prepared.get(i), delay_ns)?;
            if pass == 1 {
                if let Some(c) = traced.as_deref_mut() {
                    c.add(item.imp_idx, &m);
                }
            }
            Ok(s)
        };
        closed_loop(self.items.len(), seconds, MIN_OPS, rng, op, between)
    }

    /// Simulated totals over one pass, from the oracle records.
    fn simulated(&self, out: &mut Metrics) {
        let sum =
            |f: fn(&Record) -> u64| self.items.iter().map(|i| f(&i.oracle)).sum::<u64>() as f64;
        out.put(
            "sim_cpi",
            sum(|r| r.cycles) / sum(|r| r.instructions),
            "cycles/instr",
        );
        out.put(
            "jump_speed_frac",
            sum(|r| r.fast_calls_returns) / sum(|r| r.calls_returns),
            "share",
        );
        out.put("sim_makespan_mcycles", sum(|r| r.cycles) / 1e6, "Mcycles");
    }
}

/// Times one set-up.
fn timed_setup(w: &Bench) -> Result<(f64, Vec<Prepared>), String> {
    let t = Instant::now();
    let prepared = w.setup()?;
    Ok((t.elapsed().as_secs_f64(), prepared))
}

/// Runs one of the three workloads as `args` asks.
pub fn run(kind: Kind, args: &Args) -> Result<Outcome, String> {
    let mut rng = Rng::seed_from_u64(args.seed);
    let w = build(kind, &mut rng)?;
    let mut out = Outcome::default();
    if !args.trace {
        // The first set-up prepares the run; the others are spread over
        // the timed loop, so their median samples the host across the
        // whole run rather than one moment of it.
        let (first, prepared) = timed_setup(&w)?;
        let mut times = vec![first];
        let mut failed = None;
        let stats = w.timed(
            &prepared,
            args.seconds,
            &mut rng,
            args.delay_ns,
            None,
            |done| {
                if times.len() < SETUPS && done * SETUPS as f64 >= times.len() as f64 {
                    match timed_setup(&w) {
                        Ok((t, _)) => times.push(t),
                        Err(e) => failed = Some(e),
                    }
                }
            },
        );
        // Before the analysis below allocates per-op scratch space.
        let peak_rss = peak_rss_mb();
        if let Some(e) = failed {
            return Err(e);
        }
        let setup_s = quiet_median(&times) * stats.host_scale();
        out.attempted = stats.attempted;
        out.failed = stats.failed;
        let m = &mut out.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("peak_rss_mb", peak_rss, "MB");
        let host = stats.quiet();
        m.put("items_per_s", host.items_per_s, "1/s");
        m.put("op_ms_p50", host.op_ms_p50, "ms");
        m.put("op_ms_p90", host.op_ms_p90, "ms");
        m.put("sim_mips", host.sim_mips, "Minstr/s");
        w.simulated(m);
        out.log
            .push(format!("ops {} over {} images", stats.ops(), w.items.len()));
        out.log.extend(stats.log());
        return Ok(out);
    }

    trace::set_op(SETUP_OP);
    trace::enable(true);
    let (_, prepared) = timed_setup(&w)?;
    trace::enable(false);
    // Half the time on a loop whose odd passes are traced, so host drift
    // hits traced and untraced ops alike; half on the ladder. A traced
    // run takes about as long as an untraced one.
    let half = args.seconds / 2.0;
    let mut counters = VmCounters::default();
    let mixed = w.timed(&prepared, half, &mut rng, 0, Some(&mut counters), |_| {});
    trace::enable(false);
    let spans = trace::take();
    let (plain_p50, traced_p50) = (
        mixed.op_ms_parity(false, 0.5),
        mixed.op_ms_parity(true, 0.5),
    );

    let ladder_prepared = if prepared.is_empty() {
        w.items
            .iter()
            .map(|i| w.prepare(i))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        prepared
    };
    let subjects: Vec<Subject> = w
        .items
        .iter()
        .zip(&ladder_prepared)
        .map(|(item, prep)| Subject {
            image: &prep.image,
            license: prep.license,
            base: item.imp.config,
            imp: item.imp_idx,
            output: &item.oracle.output,
        })
        .collect();
    let budget = std::time::Duration::from_secs_f64(half);
    let lad = ladder::run(&subjects, budget, 3, &mut rng, None);

    out.attempted = mixed.attempted + lad.attempted;
    out.failed = mixed.failed + lad.failed;
    let m = &mut out.metrics;
    // Compile and verify spans come from set-up on the hot workloads;
    // load and run spans only from timed ops, not from warm-up.
    let us = |name: &str, with_setup: bool| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && (with_setup || s.op != SETUP_OP))
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        median(&v)
    };
    m.put("compiler.compile_us", us("compiler.compile", true), "us");
    m.put("verify.verify_us", us("verify.verify", true), "us");
    m.put("vm.load_us", us("vm.load", false), "us");
    m.put("vm.run_us", us("vm.run", false), "us");
    lad.report(m);
    counters.report(m);
    crate::storm::report_absent(m);
    m.put("trace.overhead_frac", traced_p50 / plain_p50 - 1.0, "share");
    out.log.extend(lad.answers());
    out.log.extend(crate::self_time_lines(&spans));
    out.spans = spans;
    Ok(out)
}
