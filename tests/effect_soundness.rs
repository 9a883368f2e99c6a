//! Effect-summary soundness, differentially: everything a machine
//! *actually does* must be covered by what the verifier's effect
//! analysis said it *could* do.
//!
//! The static side is `fpc-verify`'s interprocedural summary of the
//! entry procedure (transitive over the resolved call graph, `⊤` at
//! recursion and control escapes). The dynamic side is the VM's
//! charge-free observation journal ([`ObservedEffects`]), recorded at
//! the same granularity — global footprints per code segment, effect
//! flags per category. The inclusion `observed ⊆ static` must hold for
//! the whole corpus, on every dispatch rung and on the checked native
//! tier, across
//! machine presets and seeded preemption schedules: acceleration and
//! slicing may change *when* an effect happens, never whether the
//! summary predicted it.

use fpc_compiler::Options;
use fpc_isa::Instr;
use fpc_rng::Rng;
use fpc_verify::{verify_image, EffectSummary, VerifyOptions};
use fpc_vm::{
    Image, ImageBuilder, Machine, MachineConfig, ObservedEffects, ProcRef, ProcSpec, VmError,
};
use fpc_workloads::{compile_workload, corpus};

/// The three host dispatch rungs, native last, then the native tier
/// left unarmed (`checked`).
fn ladder(base: MachineConfig) -> [(&'static str, MachineConfig); 4] {
    let [byte, predecode, native] = base.dispatch_ladder();
    [byte, predecode, native, ("checked", native.1)]
}

/// Arms the native tier when `rung` is the `native` rung.
fn arm(m: &mut Machine, image: &Image, rung: &str, cfg: MachineConfig) {
    if rung == "native" {
        let report = verify_image(image, &VerifyOptions::for_config(&cfg));
        let license = report
            .certificate()
            .expect("corpus verifies clean")
            .native_license();
        assert!(m.arm_native(license), "license must arm");
    }
}

/// Checks `obs ⊆ sum`: every observed effect is predicted by the
/// summary (or the summary is `⊤`). Returns what leaked, if anything.
fn check_included(obs: &ObservedEffects, sum: &EffectSummary) -> Result<(), String> {
    if sum.unknown {
        return Ok(()); // ⊤ covers everything
    }
    let flags = [
        (obs.reads_memory, sum.reads_memory, "reads_memory"),
        (obs.writes_memory, sum.writes_memory, "writes_memory"),
        (obs.writes_output, sum.writes_output, "writes_output"),
        (obs.donates, sum.donates, "donates"),
        (obs.binds_modules, sum.binds_modules, "binds_modules"),
        (obs.trapped, sum.may_trap, "trapped vs may_trap"),
        (obs.context_ops, sum.context_ops, "context_ops"),
        (obs.handler_ops, sum.handler_ops, "handler_ops"),
        (obs.called_remote, sum.calls_remote, "called_remote"),
    ];
    for (observed, predicted, name) in flags {
        if observed && !predicted {
            return Err(format!("observed {name} not predicted by the summary"));
        }
    }
    for (footprint, hull, what) in [
        (&obs.global_reads, &sum.global_reads, "read"),
        (&obs.global_writes, &sum.global_writes, "write"),
    ] {
        for (&seg, &(lo, hi)) in footprint {
            match hull.get(&seg) {
                Some(&(slo, shi)) if slo <= lo && hi <= shi => {}
                Some(&(slo, shi)) => {
                    return Err(format!(
                        "observed {what} m{seg}[{lo}..={hi}] escapes static hull [{slo}..={shi}]"
                    ));
                }
                None => {
                    return Err(format!(
                        "observed {what} m{seg}[{lo}..={hi}] on a segment the summary never {what}s"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Loads, arms native on the `native` rung, and runs under
/// observation; returns the halted machine.
fn run_observed(image: &Image, rung: &str, cfg: MachineConfig, fuel: u64) -> Machine {
    let cfg = cfg.with_observe_effects(true);
    let mut m = Machine::load(image, cfg).expect("loads");
    arm(&mut m, image, rung, cfg);
    m.run(fuel).expect("runs to completion");
    m
}

/// The headline inclusion: every corpus workload, every machine
/// preset, every dispatch rung — the journal of the run is covered by
/// the entry procedure's transitive static summary.
#[test]
fn observed_effects_covered_by_static_summary_on_every_rung() {
    for w in corpus() {
        for (pname, preset) in [
            ("i1", MachineConfig::i1()),
            ("i2", MachineConfig::i2()),
            ("i3", MachineConfig::i3()),
        ] {
            let options = Options {
                bank_args: preset.renaming(),
                ..Options::default()
            };
            let compiled = compile_workload(&w, options).expect("corpus compiles");
            let report = verify_image(&compiled.image, &VerifyOptions::for_config(&preset));
            assert!(report.is_ok(), "{}: corpus must verify clean", w.name);
            let entry = compiled.image.entry;
            let summary = report
                .effects_of(entry.module, entry.ev_index)
                .expect("entry is a known procedure");
            for (rname, cfg) in ladder(preset) {
                let m = run_observed(&compiled.image, rname, cfg, w.fuel);
                let obs = m.observed_effects().expect("journal was armed");
                if let Err(leak) = check_included(obs, summary) {
                    panic!(
                        "{} on {pname}/{rname}: {leak}\nobserved: {obs:?}\nstatic: {summary:?}",
                        w.name
                    );
                }
            }
        }
    }
}

/// Observation is charge-free: the same run with the journal on and
/// off produces identical simulated counters and output.
#[test]
fn observation_is_charge_free() {
    for w in corpus() {
        let compiled = compile_workload(&w, Options::default()).expect("compiles");
        for (rname, cfg) in ladder(MachineConfig::i2()) {
            let observed = run_observed(&compiled.image, rname, cfg, w.fuel);
            let mut plain = Machine::load(&compiled.image, cfg).expect("loads");
            arm(&mut plain, &compiled.image, rname, cfg);
            plain.run(w.fuel).expect("runs");
            assert_eq!(
                observed.stats().cycles,
                plain.stats().cycles,
                "{} on {rname}: observation charged cycles",
                w.name
            );
            assert_eq!(
                observed.stats().instructions,
                plain.stats().instructions,
                "{} on {rname}",
                w.name
            );
            assert_eq!(observed.output(), plain.output(), "{} on {rname}", w.name);
        }
    }
}

/// Seeded preemption schedules: slicing a run into random fuel quanta
/// (the scheduler's actual access pattern) neither loses nor invents
/// observed effects — the journal at halt is bit-identical to the
/// one-shot journal, and still included in the static summary.
#[test]
fn observed_effects_stable_under_seeded_slicing() {
    let w = fpc_workloads::programs::fib(12);
    let compiled = compile_workload(&w, Options::default()).expect("fib compiles");
    let report = verify_image(&compiled.image, &VerifyOptions::default());
    let entry = compiled.image.entry;
    let summary = report
        .effects_of(entry.module, entry.ev_index)
        .expect("entry known");
    for (rname, cfg) in ladder(MachineConfig::i2()) {
        let whole = run_observed(&compiled.image, rname, cfg, w.fuel);
        let want = whole.observed_effects().expect("armed").clone();
        for seed in [41u64, 42, 43] {
            let mut rng = Rng::seed_from_u64(seed);
            let ocfg = cfg.with_observe_effects(true);
            let mut m = Machine::load(&compiled.image, ocfg).expect("loads");
            arm(&mut m, &compiled.image, rname, ocfg);
            loop {
                match m.run(1 + rng.next_u64() % 97) {
                    Ok(()) => break,
                    Err(VmError::OutOfFuel) => continue,
                    Err(e) => panic!("{rname} seed {seed}: {e}"),
                }
            }
            let obs = m.observed_effects().expect("armed");
            assert_eq!(
                *obs, want,
                "{rname} seed {seed}: slicing changed the journal"
            );
            check_included(obs, summary)
                .unwrap_or_else(|leak| panic!("{rname} seed {seed}: {leak}"));
        }
    }
}

/// The remote seam: a call through a remote descriptor is journalled
/// as `called_remote` the moment the transfer parks, and the static
/// summary predicted it (`calls_remote`, hence not retry-safe).
#[test]
fn remote_calls_are_observed_and_predicted() {
    let mut b = ImageBuilder::new();
    let m = b.module("cli");
    let lv = b.import_remote(m, "f", 1, 1, 1);
    b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
        a.instr(Instr::LoadImm(7));
        a.instr(Instr::ExternalCall(lv));
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let report = verify_image(&image, &VerifyOptions::default());
    let summary = report.effects_of(0, 0).expect("entry known");
    assert!(summary.calls_remote, "static side must mark the seam");
    assert!(!report.retry_safe(0, 0), "nested remote calls forbid retry");

    let cfg = MachineConfig::i2().with_observe_effects(true);
    let mut machine = Machine::load(&image, cfg).expect("loads");
    assert!(matches!(machine.run(10_000), Err(VmError::RemoteBlocked)));
    let obs = machine.observed_effects().expect("armed");
    assert!(obs.called_remote, "the park must be journalled");
    check_included(obs, summary).expect("observed ⊆ static at the seam");
}

/// Trap dispatch is journalled wherever it originates (explicit `TRAP`
/// here) and was statically reachable.
#[test]
fn traps_are_observed_and_predicted() {
    let mut b = ImageBuilder::new();
    let m = b.module("t");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::Trap(3));
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    let report = verify_image(&image, &VerifyOptions::default());
    let summary = report.effects_of(0, 0).expect("entry known");
    assert!(summary.may_trap, "static side must see the trap");

    let cfg = MachineConfig::i2().with_observe_effects(true);
    let mut machine = Machine::load(&image, cfg).expect("loads");
    let _ = machine.run(10_000); // faults: no handler installed
    let obs = machine.observed_effects().expect("armed");
    assert!(obs.trapped, "dispatch must be journalled");
    check_included(obs, summary).expect("observed ⊆ static under traps");
}

/// Observation is strictly opt-in: the default configuration keeps no
/// journal at all.
#[test]
fn observation_is_opt_in() {
    let w = fpc_workloads::programs::fib(8);
    let compiled = compile_workload(&w, Options::default()).expect("compiles");
    let mut m = Machine::load(&compiled.image, MachineConfig::i2()).expect("loads");
    m.run(w.fuel).expect("runs");
    assert!(m.observed_effects().is_none(), "no journal unless asked");
}
