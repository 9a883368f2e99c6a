//! Failure injection: the orderly *error* paths — transfers through
//! NIL, resource exhaustion, compile-time limits — fail loudly and
//! precisely, never silently. Since the recoverable-fault subsystem,
//! most of this file exercises the other half of the contract: faults
//! with handlers installed are *survivable*, restartable, and
//! precisely accounted, on every implementation (I1–I4) and every host
//! dispatch rung.
//!
//! The differential tests are the heart: a run that weathers injected
//! heap pressure must end with the same output and — after subtracting
//! the `FaultStats` handler/injection accounting — the same
//! instruction, cycle, reference and jump counters as the undisturbed
//! run, bit for bit.

use fpc_compiler::{compile, Options};
use fpc_isa::Instr;
use fpc_rng::Rng;
use fpc_vm::{
    run_with_plan, FaultEvent, FaultKind, FaultPlan, Image, ImageBuilder, Machine, MachineConfig,
    ProcRef, ProcSpec, StepOutcome, TrapCode, VmError,
};
use fpc_workloads::{compile_workload, corpus};

const FUEL: u64 = 10_000_000;

fn run_src(src: &str, config: MachineConfig) -> Result<Machine, VmError> {
    let compiled =
        compile(&[src], Options::default()).map_err(|e| VmError::BadImage(e.to_string()))?;
    let mut m = Machine::load(&compiled.image, config)?;
    m.run(FUEL)?;
    Ok(m)
}

/// The three interpreted host dispatch rungs. Simulated counters are
/// bit-identical across them by construction; these tests additionally
/// pin down that *fault behaviour* — codes, recovery, accounting — is
/// too.
fn rungs(base: MachineConfig) -> [(&'static str, MachineConfig); 3] {
    let [byte, predecode, fuse, _native] = base.dispatch_ladder();
    [byte, predecode, fuse]
}

fn implementations() -> [(&'static str, MachineConfig); 4] {
    [
        ("i1", MachineConfig::i1()),
        ("i2", MachineConfig::i2()),
        ("i3", MachineConfig::i3()),
        ("i4", MachineConfig::i4()),
    ]
}

/// What the installable fault handler does.
#[derive(Clone, Copy)]
enum Handler {
    /// Consume the fault code and return — the cure happens host-side
    /// (released pressure), so the restart just succeeds.
    Trivial,
    /// The §5.3 software replenisher: donate `grant` reserve words back
    /// to the frame region per activation.
    Donate(u16),
    /// The pager's helper: re-bind both modules (`BINDMOD` is
    /// idempotent on bound modules).
    Rebind,
}

/// A two-module image: `lib` (module 0) holds `rec(n)`, a recursion
/// `depth` frames deep returning 7; `main` (module 1) holds the entry
/// point and the fault handler, so the handler stays reachable while
/// `lib` is unbound. Returns the image and the handler's `ProcRef`.
fn fault_image(depth: u16, renaming: bool, handler: Handler) -> (Image, ProcRef) {
    let mut b = ImageBuilder::new();
    if renaming {
        b.bank_args();
    }
    let lib = b.module("lib");
    b.proc_with(lib, ProcSpec::new("rec", 1, 2), move |a| {
        if !renaming {
            a.instr(Instr::StoreLocal(0));
        }
        let done = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(done);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::Ret);
        a.bind(done);
        a.instr(Instr::LoadImm(7));
        a.instr(Instr::Ret);
    });
    let main = b.module("main");
    let lv = b.import(
        main,
        ProcRef {
            module: 0,
            ev_index: 0,
        },
    );
    b.proc_with(main, ProcSpec::new("main", 0, 0), move |a| {
        // Two passes: the first warms the AV free lists (its unwind
        // frees `depth` frames onto them), so the second allocates
        // purely from the lists — the steady state the differential
        // pressure tests need, since seizure drains lists and carve
        // region alike but release can only refill the lists.
        for _ in 0..2 {
            a.instr(Instr::LoadImm(depth));
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    b.proc_with(main, ProcSpec::new("on_fault", 1, 2), move |a| {
        if !renaming {
            a.instr(Instr::StoreLocal(0));
        }
        match handler {
            Handler::Trivial => {}
            Handler::Donate(grant) => {
                a.instr(Instr::LoadImm(grant));
                a.instr(Instr::Donate);
                a.instr(Instr::Drop);
            }
            Handler::Rebind => {
                for m in 0..2 {
                    a.instr(Instr::LoadImm(m));
                    a.instr(Instr::BindModule);
                    a.instr(Instr::Drop);
                }
            }
        }
        a.instr(Instr::Ret);
    });
    let image = b
        .build(ProcRef {
            module: 1,
            ev_index: 0,
        })
        .unwrap();
    (
        image,
        ProcRef {
            module: 1,
            ev_index: 1,
        },
    )
}

/// An image whose `main` needs `depth` evaluation-stack slots at once
/// (pushes then sums then prints), plus a trivial stack-fault handler.
fn overflow_image(depth: u16, renaming: bool) -> (Image, ProcRef) {
    let mut b = ImageBuilder::new();
    if renaming {
        b.bank_args();
    }
    let m = b.module("main");
    b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
        for _ in 0..depth {
            a.instr(Instr::LoadImm(1));
        }
        for _ in 1..depth {
            a.instr(Instr::Add);
        }
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    b.proc_with(m, ProcSpec::new("on_fault", 1, 2), move |a| {
        if !renaming {
            a.instr(Instr::StoreLocal(0));
        }
        a.instr(Instr::Ret);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    (
        image,
        ProcRef {
            module: 0,
            ev_index: 1,
        },
    )
}

/// The fault-free fingerprint of a finished run: every whole-run
/// counter minus the precisely-accounted handler and injection work.
/// For an undisturbed run the subtraction is zero and this is just the
/// run's counters.
fn adjusted(m: &Machine) -> (u64, u64, u64, u64, Vec<u16>) {
    let s = m.stats();
    let f = m.fault_stats();
    (
        s.instructions - f.handler_instructions,
        s.cycles - f.handler_cycles,
        m.total_refs() - f.handler_refs - f.injected_refs,
        s.jumps_taken - f.handler_jumps,
        m.output().to_vec(),
    )
}

// ---------------------------------------------------------------------
// The original terminal-error tests: these behaviours must survive the
// fault subsystem unchanged when no handler is installed.
// ---------------------------------------------------------------------

#[test]
fn transfer_through_nil_context_is_caught() {
    // A ctx variable defaults to zero = NIL; transferring to it is the
    // §4 error ("an attempt to return from this return would be an
    // error").
    let src = "
        module M;
        proc main()
        var c: ctx;
        begin
          out co_transfer(c, 1);
        end;
        end.";
    for config in [MachineConfig::i2(), MachineConfig::i3()] {
        assert_eq!(run_src(src, config).unwrap_err(), VmError::XferToNil);
    }
}

#[test]
fn unbounded_recursion_exhausts_the_frame_heap() {
    let src = "
        module M;
        proc rec(n: int): int begin return rec(n + 1); end;
        proc main() begin out rec(0); end;
        end.";
    let err = run_src(src, MachineConfig::i2()).unwrap_err();
    assert!(
        matches!(err, VmError::Frame(fpc_frames::FrameError::OutOfMemory)),
        "expected frame exhaustion, got {err}"
    );
}

#[test]
fn division_by_zero_traps_on_every_machine() {
    let src = "module M; proc main() var z: int; begin out 7 / z; end; end.";
    for config in [
        MachineConfig::i1(),
        MachineConfig::i2(),
        MachineConfig::i3(),
    ] {
        assert_eq!(
            run_src(src, config).unwrap_err(),
            VmError::UnhandledTrap(TrapCode::DivideByZero)
        );
    }
}

#[test]
fn compiler_rejects_expressions_beyond_the_register_stack() {
    // 15 nested additions exceed the 14-deep generator limit.
    let mut expr = String::from("1");
    for _ in 0..16 {
        expr = format!("(1 + {expr})");
    }
    // Force depth with a right-leaning tree of parenthesised operands.
    let mut deep = String::from("1");
    for _ in 0..16 {
        deep = format!("(2 * {deep})");
    }
    let src = format!("module M; proc main() begin out {deep} + {expr}; end; end.");
    let err = compile(&[&src], Options::default()).unwrap_err();
    assert!(err.to_string().contains("too deep"), "{err}");
}

#[test]
fn out_of_fuel_is_distinguished_from_errors() {
    let src = "module M; proc main() begin while true do end; end; end.";
    let compiled = compile(&[src], Options::default()).unwrap();
    let mut m = Machine::load(&compiled.image, MachineConfig::i2()).unwrap();
    assert_eq!(m.run(1000).unwrap_err(), VmError::OutOfFuel);
    assert!(!m.halted());
}

#[test]
fn compiler_rejects_too_large_frames() {
    // A local array beyond the largest size class (2048 words).
    let src = "
        module M;
        proc main() var a: array[4096] of int; begin a[0] := 1; end;
        end.";
    let err = compile(&[src], Options::default()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("local words") || msg.contains("largest class"),
        "{msg}"
    );
}

// ---------------------------------------------------------------------
// Fault codes are identical on every implementation and every dispatch
// rung (no handler installed: the structured error is the observable).
// ---------------------------------------------------------------------

#[test]
fn frame_exhaustion_error_is_identical_on_every_rung() {
    let src = "
        module M;
        proc rec(n: int): int begin return rec(n + 1); end;
        proc main() begin out rec(0); end;
        end.";
    for (iname, base) in implementations() {
        if base.renaming() {
            // Compiled images carry prologue stores; skip the renaming
            // machine here (covered by the assembled-image tests).
            continue;
        }
        for (rname, cfg) in rungs(base) {
            let err = run_src(src, cfg).unwrap_err();
            assert_eq!(
                err,
                VmError::Frame(fpc_frames::FrameError::OutOfMemory),
                "{iname}/{rname}"
            );
        }
    }
}

#[test]
fn unbound_module_error_is_identical_on_every_rung() {
    for (iname, base) in implementations() {
        for (rname, cfg) in rungs(base) {
            let (image, _) = fault_image(8, base.renaming(), Handler::Trivial);
            let mut m = Machine::load(&image, cfg).unwrap();
            m.unbind_module(0).unwrap();
            let err = m.run(FUEL).unwrap_err();
            assert_eq!(err, VmError::UnboundCode { module: 0 }, "{iname}/{rname}");
        }
    }
}

#[test]
fn stack_overflow_error_is_identical_on_every_rung() {
    for (iname, base) in implementations() {
        for (rname, cfg) in rungs(base) {
            let (image, _) = overflow_image(20, base.renaming());
            let mut m = Machine::load(&image, cfg).unwrap();
            let err = m.run(FUEL).unwrap_err();
            assert_eq!(
                err,
                VmError::UnhandledTrap(TrapCode::StackOverflow),
                "{iname}/{rname}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Recovery: the software replenisher and friends.
// ---------------------------------------------------------------------

/// The paper's §5.3 replenisher scenario on all four implementations:
/// every free frame is seized before the run, so the machine starts
/// against an exhausted heap; the handler donates reserve words back a
/// little at a time, and the run completes — repeatedly faulting,
/// replenishing, and restarting the faulted transfer.
#[test]
fn replenisher_completes_a_heap_exhausted_run_on_all_implementations() {
    for (name, base) in implementations() {
        let (image, fh) = fault_image(48, base.renaming(), Handler::Donate(64));
        let cfg = base.with_fault_reserve(4096);
        let mut m = Machine::load(&image, cfg).unwrap();
        m.install_fault_handler(FaultKind::FrameFault, &image, fh)
            .unwrap();
        let seized = m.seize_free_frames();
        assert!(seized > 0, "{name}: nothing to seize");
        m.run(FUEL).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(m.output(), &[7, 7], "{name}");
        let f = m.fault_stats();
        assert!(
            f.raised[FaultKind::FrameFault.index()] >= 1,
            "{name}: expected frame faults, got {f:?}"
        );
        assert_eq!(
            f.recovered,
            f.total_raised(),
            "{name}: every fault recovered"
        );
    }
}

/// A swapped-out module mid-run: the next transfer into it faults, the
/// handler re-binds, and the faulted transfer restarts. The output and
/// the recovery accounting are checked on i2–i4 at several trigger
/// points.
#[test]
fn unbind_mid_run_recovers_through_the_rebinding_handler() {
    for (name, base) in [
        ("i2", MachineConfig::i2()),
        ("i3", MachineConfig::i3()),
        ("i4", MachineConfig::i4()),
    ] {
        for t in [10u64, 50, 90] {
            let (image, fh) = fault_image(40, base.renaming(), Handler::Rebind);
            let cfg = base.with_fault_reserve(1024);
            let mut m = Machine::load(&image, cfg).unwrap();
            m.install_fault_handler(FaultKind::UnboundProcedure, &image, fh)
                .unwrap();
            let mut unbound = false;
            for _ in 0..FUEL {
                if !unbound && m.stats().instructions >= t {
                    m.unbind_module(0).unwrap();
                    unbound = true;
                }
                match m.step() {
                    Ok(StepOutcome::Halted) => break,
                    Ok(StepOutcome::Ran) => {}
                    Err(e) => panic!("{name} t={t}: {e}"),
                }
            }
            assert!(m.halted(), "{name} t={t}: did not halt");
            assert_eq!(m.output(), &[7, 7], "{name} t={t}");
            let f = m.fault_stats();
            assert!(
                f.raised[FaultKind::UnboundProcedure.index()] >= 1,
                "{name} t={t}: expected an unbound-procedure fault"
            );
            assert_eq!(f.recovered, f.total_raised(), "{name} t={t}");
            assert!(m.module_bound(0), "{name} t={t}: handler re-bound lib");
        }
    }
}

/// Stack overflow as a recoverable fault: the handler runs on the
/// emergency reserve, and its return restarts the push into the
/// "grown" stack.
#[test]
fn stack_overflow_fault_recovers_onto_the_grown_stack() {
    for (name, base) in implementations() {
        let (image, fh) = overflow_image(20, base.renaming());
        let cfg = base.with_stack_reserve(8).with_fault_reserve(512);
        let mut m = Machine::load(&image, cfg).unwrap();
        m.install_fault_handler(FaultKind::StackOverflow, &image, fh)
            .unwrap();
        m.run(FUEL).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(m.output(), &[20], "{name}");
        let f = m.fault_stats();
        assert_eq!(f.raised[FaultKind::StackOverflow.index()], 1, "{name}");
        assert_eq!(f.recovered, 1, "{name}");
    }
}

/// Overflow past the already-granted reserve cannot be cured by
/// faulting again: it is terminal, as a structured error.
#[test]
fn stack_overflow_past_the_reserve_is_terminal_not_a_panic() {
    let (image, fh) = overflow_image(30, false);
    let cfg = MachineConfig::i2()
        .with_stack_reserve(8)
        .with_fault_reserve(512);
    let mut m = Machine::load(&image, cfg).unwrap();
    m.install_fault_handler(FaultKind::StackOverflow, &image, fh)
        .unwrap();
    let err = m.run(FUEL).unwrap_err();
    assert_eq!(err, VmError::UnhandledTrap(TrapCode::StackOverflow));
    assert_eq!(m.fault_stats().raised[FaultKind::StackOverflow.index()], 1);
}

/// A frame fault whose handler cannot even get an activation frame
/// (no reserve) is a double fault — a structured error, never a host
/// panic.
#[test]
fn double_fault_is_a_structured_error() {
    for (name, base) in [("i1", MachineConfig::i1()), ("i2", MachineConfig::i2())] {
        let (image, fh) = fault_image(48, false, Handler::Trivial);
        // No fault reserve: dispatching the handler needs a frame and
        // the heap has none left.
        let mut m = Machine::load(&image, base).unwrap();
        m.install_fault_handler(FaultKind::FrameFault, &image, fh)
            .unwrap();
        m.seize_free_frames();
        let err = m.run(FUEL).unwrap_err();
        assert_eq!(
            err,
            VmError::DoubleFault {
                first: FaultKind::FrameFault,
                second: FaultKind::FrameFault,
            },
            "{name}"
        );
    }
}

/// The fault-depth bound turns runaway handler nesting into a
/// structured error.
#[test]
fn fault_depth_limit_is_enforced() {
    let (image, fh) = fault_image(48, false, Handler::Trivial);
    let cfg = MachineConfig::i2()
        .with_fault_reserve(1024)
        .with_max_fault_depth(0);
    let mut m = Machine::load(&image, cfg).unwrap();
    m.install_fault_handler(FaultKind::FrameFault, &image, fh)
        .unwrap();
    m.seize_free_frames();
    let err = m.run(FUEL).unwrap_err();
    assert_eq!(
        err,
        VmError::FaultDepthExceeded {
            kind: FaultKind::FrameFault,
            limit: 0,
        }
    );
}

// ---------------------------------------------------------------------
// The differential invariant: recovered runs are bit-identical to
// fault-free runs modulo the accounted handler/injection work.
// ---------------------------------------------------------------------

/// Steps the machine with frame pressure injected `delta` instructions
/// after the warm pass's output appears (i.e. a few levels into the
/// second, list-fed descent) and released the moment the frame fault
/// is dispatched (while the handler runs), so the restarted allocation
/// pops the same free lists, at the same 3-reference cost, as the
/// fault-free run.
fn run_with_pressure(
    image: &Image,
    fh: ProcRef,
    cfg: MachineConfig,
    delta: u64,
    label: &str,
) -> Machine {
    let mut m = Machine::load(image, cfg).unwrap();
    m.install_fault_handler(FaultKind::FrameFault, image, fh)
        .unwrap();
    let mut seize_at = None;
    let mut seized = false;
    let mut released = false;
    for _ in 0..FUEL {
        if seize_at.is_none() && !m.output().is_empty() {
            seize_at = Some(m.stats().instructions + delta);
        }
        if let Some(at) = seize_at {
            if !seized && m.stats().instructions >= at {
                assert!(m.seize_free_frames() > 0, "{label}: nothing to seize");
                seized = true;
            }
        }
        if seized && !released && m.fault_stats().raised[FaultKind::FrameFault.index()] > 0 {
            m.release_seized_frames();
            released = true;
        }
        match m.step() {
            Ok(StepOutcome::Halted) => break,
            Ok(StepOutcome::Ran) => {}
            Err(e) => panic!("{label}: {e}"),
        }
    }
    assert!(m.halted(), "{label}: did not halt");
    assert!(released, "{label}: pressure never produced a fault");
    let f = m.fault_stats();
    assert_eq!(f.total_raised(), 1, "{label}: exactly one fault");
    assert_eq!(f.recovered, 1, "{label}: the fault recovered");
    m
}

/// ≥3 seeds × all 4 dispatch rungs: adjusted counters and output of the
/// recovered run equal the fault-free run's, and all rungs agree with
/// each other.
///
/// The trigger points stay shallow in the second descent (delta ≤ 40
/// instructions ≈ recursion depth 5) so on i3 the fault lands while
/// the return-prediction stack still has headroom: once it is full,
/// the handler's dispatch transfer evicts an entry whose spill the
/// fault-free run pays later as normal work, which moves those
/// references between accounting buckets.
#[test]
fn recovered_runs_are_differentially_identical_across_seeds_and_rungs() {
    let (image, fh) = fault_image(40, false, Handler::Trivial);
    for seed in [11u64, 22, 33] {
        let mut rng = Rng::seed_from_u64(seed);
        let delta = 5 + rng.next_u64() % 32;
        let mut fingerprints = Vec::new();
        for (rname, cfg) in rungs(MachineConfig::i2().with_fault_reserve(512)) {
            let label = format!("seed {seed} delta={delta} rung {rname}");
            let mut base = Machine::load(&image, cfg).unwrap();
            base.run(FUEL).unwrap();
            let want = adjusted(&base);
            let m = run_with_pressure(&image, fh, cfg, delta, &label);
            assert!(
                m.fault_stats().handler_instructions > 0,
                "{label}: handler work was accounted"
            );
            assert_eq!(adjusted(&m), want, "{label}: differential identity");
            fingerprints.push(want);
        }
        fingerprints.dedup();
        assert_eq!(
            fingerprints.len(),
            1,
            "seed {seed}: all rungs agree on the fault-free fingerprint"
        );
    }
}

/// The same differential identity on the other allocator families:
/// i1's general heap (charged first-fit walks) and i3's return-stack
/// machine.
#[test]
fn recovered_runs_are_differentially_identical_on_i1_and_i3() {
    let (image, fh) = fault_image(40, false, Handler::Trivial);
    for (name, base) in [("i1", MachineConfig::i1()), ("i3", MachineConfig::i3())] {
        for delta in [7u64, 21, 35] {
            let cfg = base.with_fault_reserve(512);
            let label = format!("{name} delta={delta}");
            let mut clean = Machine::load(&image, cfg).unwrap();
            clean.run(FUEL).unwrap();
            let m = run_with_pressure(&image, fh, cfg, delta, &label);
            assert_eq!(adjusted(&m), adjusted(&clean), "{label}");
        }
    }
}

/// Generation storms (same-value rewrites of watched table words) bump
/// cache generations without changing architecture: every counter —
/// not just the adjusted ones — must match the undisturbed run, on
/// every rung. This is the charge-not-perform contract of the inline
/// caches under revalidation pressure.
#[test]
fn generation_storms_perturb_no_counter() {
    let (image, _) = fault_image(24, false, Handler::Trivial);
    let plan = FaultPlan::from_events(vec![
        FaultEvent::GenStorm { at: 10, writes: 5 },
        FaultEvent::GenStorm { at: 60, writes: 9 },
        FaultEvent::GenStorm { at: 200, writes: 3 },
    ]);
    for (rname, cfg) in rungs(MachineConfig::i3()) {
        let mut clean = Machine::load(&image, cfg).unwrap();
        clean.run(FUEL).unwrap();
        let mut m = Machine::load(&image, cfg).unwrap();
        let report = run_with_plan(&mut m, &plan, FUEL).unwrap_or_else(|e| panic!("{rname}: {e}"));
        assert_eq!(report.storm_writes, 17, "{rname}");
        assert_eq!(m.fault_stats(), Default::default(), "{rname}: no faults");
        assert_eq!(adjusted(&m), adjusted(&clean), "{rname}");
    }
}

// ---------------------------------------------------------------------
// Resumability: running out of fuel is a pause, not a death.
// ---------------------------------------------------------------------

/// A run chopped into 97-instruction slices by `OutOfFuel` pauses ends
/// bit-identical to the uninterrupted run — stats, output, and the
/// host-side cache statistics included.
#[test]
fn paused_and_resumed_runs_are_bit_identical() {
    let w = corpus().into_iter().find(|w| w.name == "fib").unwrap();
    let compiled = compile_workload(&w, Options::default()).unwrap();
    for (rname, cfg) in rungs(MachineConfig::i3()) {
        let mut whole = Machine::load(&compiled.image, cfg).unwrap();
        whole.run(w.fuel).unwrap();
        let mut sliced = Machine::load(&compiled.image, cfg).unwrap();
        let mut pauses = 0u32;
        loop {
            match sliced.run(97) {
                Ok(()) => break,
                Err(VmError::OutOfFuel) => pauses += 1,
                Err(e) => panic!("{rname}: {e}"),
            }
            assert!(pauses < 1_000_000, "{rname}: runaway");
        }
        assert!(pauses > 0, "{rname}: fib must outlast one slice");
        assert!(sliced.halted(), "{rname}");
        assert_eq!(sliced.output(), whole.output(), "{rname}");
        assert_eq!(
            sliced.stats().instructions,
            whole.stats().instructions,
            "{rname}"
        );
        assert_eq!(sliced.stats().cycles, whole.stats().cycles, "{rname}");
        assert_eq!(
            sliced.stats().jumps_taken,
            whole.stats().jumps_taken,
            "{rname}"
        );
        assert_eq!(sliced.total_refs(), whole.total_refs(), "{rname}");
        assert_eq!(
            format!("{:?}", sliced.fusion_stats()),
            format!("{:?}", whole.fusion_stats()),
            "{rname}"
        );
    }
}

/// Pauses interleaved with fault recovery: slicing a run that also
/// faults and recovers changes nothing observable.
#[test]
fn pauses_interleave_with_fault_recovery() {
    let (image, fh) = fault_image(48, false, Handler::Donate(64));
    let cfg = MachineConfig::i2().with_fault_reserve(4096);
    let run = |slice: Option<u64>| -> Machine {
        let mut m = Machine::load(&image, cfg).unwrap();
        m.install_fault_handler(FaultKind::FrameFault, &image, fh)
            .unwrap();
        m.seize_free_frames();
        match slice {
            None => m.run(FUEL).unwrap(),
            Some(s) => loop {
                match m.run(s) {
                    Ok(()) => break,
                    Err(VmError::OutOfFuel) => continue,
                    Err(e) => panic!("sliced: {e}"),
                }
            },
        }
        m
    };
    let whole = run(None);
    let sliced = run(Some(61));
    assert!(whole.fault_stats().total_raised() >= 1);
    assert_eq!(sliced.output(), whole.output());
    assert_eq!(sliced.fault_stats(), whole.fault_stats());
    assert_eq!(sliced.stats().instructions, whole.stats().instructions);
    assert_eq!(sliced.stats().cycles, whole.stats().cycles);
    assert_eq!(sliced.total_refs(), whole.total_refs());
}

// ---------------------------------------------------------------------
// Chaos: seeded fault plans over the whole corpus must never panic the
// host, whatever they break.
// ---------------------------------------------------------------------

/// Deterministic chaos over the corpus: seeded plans of pressure
/// windows, unbinds and storms against machines with no handlers
/// installed. Any `Result` is acceptable; a host panic is the only
/// failure.
#[test]
fn chaos_plans_never_panic_the_host() {
    for w in corpus() {
        let compiled = match compile_workload(&w, Options::default()) {
            Ok(c) => c,
            Err(e) => panic!("{}: {e}", w.name),
        };
        for seed in [1u64, 2, 3] {
            let plan = FaultPlan::generate(seed, 20_000, 2);
            let mut m = Machine::load(&compiled.image, MachineConfig::i2()).unwrap();
            let r = run_with_plan(&mut m, &plan, 200_000);
            // The machine stays queryable whatever happened.
            let _ = (m.stats().instructions, m.fault_stats(), m.output().len());
            drop(r);
        }
    }
}

/// Chaos with handlers installed, including a deliberately wrong one:
/// the workload's own entry procedure doubles as every fault handler.
/// Recovery is not expected; panics are still forbidden.
#[test]
fn chaos_with_arbitrary_handlers_never_panics() {
    for w in corpus() {
        let compiled = compile_workload(&w, Options::default()).unwrap();
        let handler = ProcRef {
            module: 0,
            ev_index: 0,
        };
        for seed in [4u64, 5] {
            let plan = FaultPlan::generate(seed, 10_000, 2);
            let mut m = Machine::load(&compiled.image, MachineConfig::i2().with_fault_reserve(256))
                .unwrap();
            for kind in [
                FaultKind::FrameFault,
                FaultKind::UnboundProcedure,
                FaultKind::StackOverflow,
            ] {
                m.install_fault_handler(kind, &compiled.image, handler)
                    .unwrap();
            }
            let _ = run_with_plan(&mut m, &plan, 100_000);
            let _ = m.fault_stats();
        }
    }
}

/// A guest that scribbles seeded garbage over the transfer tables and
/// then attempts transfers: every outcome must be a typed `VmError`
/// (or a surprising success), never a host panic or out-of-range
/// memory access.
#[test]
fn table_scribbling_guests_fail_with_typed_errors() {
    for seed in [7u64, 8, 9] {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        let writes: Vec<(u16, u16)> = (0..24)
            .map(|_| {
                (
                    rng.gen_range_u32(0, 0x200) as u16, // GFT/AV/table space
                    rng.next_u64() as u16,
                )
            })
            .collect();
        let xfer_word = rng.next_u64() as u16;
        b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
            for &(addr, val) in &writes {
                a.instr(Instr::LoadImm(val));
                a.instr(Instr::LoadImm(addr));
                a.instr(Instr::Write);
            }
            // Transfers through whatever is left of the tables.
            a.instr(Instr::LoadImm(5));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::LoadImm(xfer_word));
            a.instr(Instr::Xfer);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 0,
            })
            .unwrap();
        for (_rname, cfg) in rungs(MachineConfig::i2()) {
            let mut machine = Machine::load(&image, cfg).unwrap();
            let r = machine.run(100_000);
            if let Err(e) = r {
                // Any typed error is fine; the Display impl must hold
                // together too.
                let _ = e.to_string();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mutation robustness: the verifier and the VM between them must leave
// no gap a flipped code byte can fall through.
// ---------------------------------------------------------------------

/// Seeded single-byte mutations of every verified corpus image, on I3
/// and on the bank machine I4: each mutant must either fail
/// verification, or — if it still certifies — load and run to
/// completion or a typed [`VmError`] with the native tier armed by the
/// mutant's own certificate (a low threshold so hot bodies really run
/// as unchecked threaded code). Rejected mutants run on the plain
/// interpreter to confirm the dynamic checks degrade to typed errors
/// too. A host panic anywhere fails this test.
#[test]
fn single_byte_mutants_are_rejected_or_fail_typed() {
    use fpc_verify::{verify_image, VerifyOptions};
    const MUTANTS_PER_IMAGE: usize = 32;
    const MUTANT_FUEL: u64 = 100_000;
    for preset in [MachineConfig::i3(), MachineConfig::i4()] {
        // Certified mutants whose run reached native code.
        let mut native_runs = 0usize;
        let opts = VerifyOptions::for_config(&preset);
        let options = Options {
            bank_args: preset.renaming(),
            ..Options::default()
        };
        for (wi, w) in corpus().into_iter().enumerate() {
            let compiled = compile_workload(&w, options).unwrap();
            assert!(
                verify_image(&compiled.image, &opts).is_ok(),
                "{}: pristine image must verify",
                w.name
            );
            let mut rng = Rng::seed_from_u64(0xF1ED ^ (wi as u64));
            for _ in 0..MUTANTS_PER_IMAGE {
                let mut img = compiled.image.clone();
                let at = (rng.next_u64() % img.code.len() as u64) as usize;
                // XOR with a nonzero mask so the byte always changes.
                img.code[at] ^= (rng.next_u64() as u8) | 1;
                let cert = verify_image(&img, &opts).certificate();
                let config = match cert {
                    Some(_) => preset.with_native_tier(true).with_native_threshold(2),
                    None => preset,
                };
                match Machine::load(&img, config) {
                    Ok(mut m) => {
                        if let Some(cert) = &cert {
                            // Still certified: the certificate must be
                            // safe to act on.
                            assert!(m.arm_native(cert.native_license()), "{}", w.name);
                        }
                        if let Err(e) = m.run(MUTANT_FUEL) {
                            let _ = e.to_string(); // typed, displayable
                        }
                        native_runs +=
                            m.native_stats().is_some_and(|n| n.native_instrs > 0) as usize;
                    }
                    Err(e) => {
                        let _ = e.to_string();
                    }
                }
            }
        }
        assert!(native_runs > 0, "no certified mutant ran native code");
    }
}

/// Builds a minimal one-procedure image for the targeted-corruption
/// tests below.
fn tiny_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(7));
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 0,
    })
    .unwrap()
}

/// Regression for a host panic found by mutation testing: an entry
/// vector slot that points a procedure header past the end of the code
/// store used to index `raw_code` out of bounds during placement. It
/// must be a typed load error.
#[test]
fn header_past_code_store_is_a_typed_load_error() {
    use fpc_core::layout;
    let mut img = tiny_image();
    let slot = layout::ev_slot(img.modules[0].code_base, 0).0 as usize;
    // Point proc 0's header 0xFFFF bytes past the module's code base —
    // far outside the code store.
    img.code[slot] = 0xFF;
    img.code[slot + 1] = 0xFF;
    match Machine::load(&img, MachineConfig::i1()) {
        Err(VmError::BadImage(msg)) => {
            assert!(
                msg.contains("runs past the code store"),
                "unexpected message: {msg}"
            );
        }
        Err(e) => panic!("expected BadImage, got {e}"),
        Ok(_) => panic!("corrupt entry vector must not load"),
    }
}

/// Regression for a host panic found by mutation testing: an entry
/// procedure whose header flags byte claims arguments used to trip a
/// debug assertion in `start`. The initial transfer passes no argument
/// record, so this must be a typed load error.
#[test]
fn entry_proc_claiming_args_is_a_typed_load_error() {
    use fpc_core::layout;
    let img = tiny_image();
    let hdr = img
        .proc_header_addr(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .0 as usize;
    let mut img = img;
    img.code[hdr + layout::HDR_FLAGS as usize] = layout::pack_flags(3, false);
    match Machine::load(&img, MachineConfig::i1()) {
        Err(VmError::BadImage(msg)) => {
            assert!(msg.contains("argument"), "unexpected message: {msg}");
        }
        Err(e) => panic!("expected BadImage, got {e}"),
        Ok(_) => panic!("entry procedure with arguments must not load"),
    }
}

/// Regression for a host panic found by mutation testing: a branch
/// displacement that takes the pc below byte address zero used to trip
/// a debug assertion in `ByteAddr::displace`. Displacements are guest
/// data; the run must end in a typed error (or halt), never a panic.
#[test]
fn jump_below_code_start_fails_typed() {
    use fpc_isa::opcode;
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        // i8 -128: jumps far below the start of the code store.
        a.raw(&[opcode::JB, 0x80]);
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    // I4 wants a bank-args image; the builder emits the stack
    // convention, so exercise the three stack-convention presets.
    for i in [
        MachineConfig::i1(),
        MachineConfig::i2(),
        MachineConfig::i3(),
    ] {
        let mut machine = Machine::load(&image, i).unwrap();
        let err = machine.run(FUEL).expect_err("wild backward jump must fail");
        let _ = err.to_string(); // typed, displayable
    }
}
