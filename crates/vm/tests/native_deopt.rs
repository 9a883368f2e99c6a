//! Deoptimization tests for the native tier.
//!
//! Every event that lapses a verify certificate's premises —
//! trap-handler install, fault-handler install, module unbind, module
//! relocation, procedure replacement — must demote an *armed, mid-run* native
//! machine back to the interpretive ladder, permanently, without
//! perturbing one simulated counter. Each test here runs a recursive
//! workload natively, fires one re-arm hook in the middle,
//! and holds the final machine state bit-identical to an
//! all-accelerators-off reference given the same hook at the same
//! simulated point. The license gate is tested from both directions:
//! no license → bursts run checked, and a stack fault mid-burst ends
//! exactly as on the byte rung; lapsed premises → arming refuses and
//! the tier stays stopped. Compilation itself is held to the same
//! oracle: the tier compiles every body on its first step, once, and
//! again once per code change, and a loop in a procedure entered once
//! runs native from its first instruction with the same counters
//! however fuel is sliced, armed or checked.

use fpc_isa::Instr;
use fpc_vm::{
    FaultKind, Image, ImageBuilder, Machine, MachineConfig, NativeLicense, ProcRef, ProcSpec,
    VmError,
};

/// Every simulated-side observable, flattened through Debug (the same
/// fingerprint the parity suite uses).
fn fingerprint(m: &Machine) -> String {
    format!(
        "output={:?} stack={:?} stats={:?} mem={:?} rs={:?} banks={:?} cache={:?} heap={:?}",
        m.output(),
        m.stack(),
        m.stats(),
        m.mem_stats(),
        m.return_stack_stats(),
        m.bank_stats(),
        m.cache_stats(),
        m.heap_stats(),
    )
}

/// The native rung under test.
fn native_config() -> MachineConfig {
    native_on(MachineConfig::i2())
}

/// `base` (one of I1–I4) on the native rung.
fn native_on(base: MachineConfig) -> MachineConfig {
    base.dispatch_ladder()[2].1
}

/// The reference rung: every host accelerator off.
fn reference_config() -> MachineConfig {
    byte_on(MachineConfig::i2())
}

/// `base` on the byte rung.
fn byte_on(base: MachineConfig) -> MachineConfig {
    base.dispatch_ladder()[0].1
}

/// A license generous enough for these tiny images. The verifier mints
/// real ones; tests construct them directly to isolate the machinery.
fn license() -> NativeLicense {
    NativeLicense::new(8, 4)
}

/// tri(n) = n + tri(n-1), called repeatedly from main, plus a handler
/// procedure (index 2) that tests can install for traps or faults.
fn tri_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("tri", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        let base = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(base);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
        a.bind(base);
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..6 {
            a.instr(Instr::LoadImm(40));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    b.proc_with(m, ProcSpec::new("handler", 1, 1), |a| {
        a.instr(Instr::Drop);
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Ret);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

const TRI_EXPECTED: &[u16] = &[820, 820, 820, 820, 820, 820];

fn handler_ref() -> ProcRef {
    ProcRef {
        module: 0,
        ev_index: 2,
    }
}

/// One fuel unit of progress; spending it without halting is the
/// expected case while pacing.
fn pace(m: &mut Machine) {
    match m.run(1) {
        Ok(()) | Err(VmError::OutOfFuel) => {}
        Err(e) => panic!("pacing step failed: {e:?}"),
    }
}

/// Loads and arms a native machine, runs until `outputs` values are
/// out, and asserts the burst engine actually retired instructions.
fn warm_native(image: &Image, outputs: usize) -> Machine {
    let mut m = Machine::load(image, native_config()).unwrap();
    assert!(m.arm_native(license()), "fresh machine must arm");
    assert!(m.native_armed());
    while m.output().len() < outputs {
        pace(&mut m);
    }
    let stats = m.native_stats().expect("tier is configured");
    assert!(
        stats.native_instrs > 0,
        "the run must execute compiled code: {stats:?}"
    );
    m
}

/// Runs the all-off reference to the same point.
fn warm_reference(image: &Image, outputs: usize) -> Machine {
    let mut m = Machine::load(image, reference_config()).unwrap();
    while m.output().len() < outputs {
        pace(&mut m);
    }
    m
}

/// Drives both machines to halt and compares every simulated counter.
fn finish_and_compare(mut native: Machine, mut reference: Machine, label: &str) {
    native.run(200_000).unwrap();
    reference.run(200_000).unwrap();
    assert_eq!(native.output(), TRI_EXPECTED, "{label}: wrong output");
    assert_eq!(
        fingerprint(&native),
        fingerprint(&reference),
        "{label}: demoted run diverged from the all-off reference"
    );
}

/// After any deopt the tier must refuse to re-arm: the certificate
/// premises are gone until a fresh verification run mints a new one.
fn assert_demoted(m: &mut Machine, label: &str) {
    assert!(!m.native_armed(), "{label}: hook must disarm the tier");
    let stats = m.native_stats().expect("tier is configured");
    assert_eq!(stats.disarms, 1, "{label}: exactly one permanent deopt");
    assert_eq!(
        stats.compiled_procs, 0,
        "{label}: compiled bodies must be discarded"
    );
    assert!(
        !m.arm_native(license()),
        "{label}: re-arming without re-verification must fail"
    );
    assert!(!m.native_armed(), "{label}: refused arm must not arm");
}

#[test]
fn trap_handler_install_demotes_mid_run() {
    let image = tri_image();
    let mut native = warm_native(&image, 2);
    let mut reference = warm_reference(&image, 2);
    native.set_trap_handler(&image, handler_ref()).unwrap();
    reference.set_trap_handler(&image, handler_ref()).unwrap();
    assert_demoted(&mut native, "trap install");
    finish_and_compare(native, reference, "trap install");
}

#[test]
fn fault_handler_install_demotes_mid_run() {
    let image = tri_image();
    let mut native = warm_native(&image, 2);
    let mut reference = warm_reference(&image, 2);
    for m in [&mut native, &mut reference] {
        m.install_fault_handler(FaultKind::FrameFault, &image, handler_ref())
            .unwrap();
    }
    assert_demoted(&mut native, "fault install");
    finish_and_compare(native, reference, "fault install");
}

#[test]
fn unbind_demotes_mid_run_and_rebind_does_not_rearm() {
    let image = tri_image();
    let mut native = warm_native(&image, 2);
    let mut reference = warm_reference(&image, 2);
    for m in [&mut native, &mut reference] {
        m.unbind_module(0).unwrap();
        m.bind_module(0).unwrap();
    }
    assert_demoted(&mut native, "unbind");
    finish_and_compare(native, reference, "unbind");
}

#[test]
fn relocation_demotes_mid_run() {
    let image = tri_image();
    let mut native = warm_native(&image, 2);
    let mut reference = warm_reference(&image, 2);
    native.relocate_module(0).unwrap();
    reference.relocate_module(0).unwrap();
    assert_demoted(&mut native, "relocate");
    finish_and_compare(native, reference, "relocate");
}

#[test]
fn replacement_demotes_mid_run() {
    let image = tri_image();
    let mut native = warm_native(&image, 2);
    let mut reference = warm_reference(&image, 2);
    // Swap tri for a body computing n*2+x the same recursive way is
    // overkill; replace the *handler* slot (never called) so the
    // output stream is unchanged while the entry vector mutates.
    for m in [&mut native, &mut reference] {
        m.replace_proc(0, 2, 1, 1, |a| {
            a.instr(Instr::Drop);
            a.instr(Instr::LoadImm(7));
            a.instr(Instr::Ret);
        })
        .unwrap();
    }
    assert_demoted(&mut native, "replace");
    finish_and_compare(native, reference, "replace");
}

/// `main` counts a local down from 3, outputting it, then runs `tail`
/// — which must end the run with a stack fault — and halts.
fn stack_fault_image(tail: fn(&mut fpc_isa::Assembler)) -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 1), move |a| {
        a.instr(Instr::LoadImm(3));
        a.instr(Instr::StoreLocal(0));
        let top = a.label();
        let done = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(done);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Out);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::StoreLocal(0));
        a.jump(top);
        a.bind(done);
        tail(a);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 0,
    })
    .unwrap()
}

/// A [`stack_fault_image`] whose tail loop leaves a word behind on
/// every iteration, so it outgrows the 16-word stack mid-burst, inside
/// a superinstruction.
fn overflow_image() -> Image {
    stack_fault_image(|a| {
        a.instr(Instr::LoadImm(40));
        a.instr(Instr::StoreLocal(0));
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::StoreLocal(0));
        a.jump(top);
    })
}

/// Holds `image`'s checked native run — the tier on, never armed —
/// to the byte rung's error, stack and counters, whole and in 1-, 3-
/// and 7-unit fuel slices, and returns the error.
fn checked_fault_matches_byte_rung(image: &Image, label: &str) -> VmError {
    let (reference, want) = run_sliced_to_end(image, reference_config(), false, u64::MAX);
    let err = want.expect_err("the image must end in a fault");
    for slice in [u64::MAX, 1, 3, 7] {
        let (m, got) = run_sliced_to_end(image, native_config(), false, slice);
        let label = format!("{label}, slice {slice}");
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", Err::<(), _>(&err)),
            "{label}"
        );
        assert_eq!(fingerprint(&m), fingerprint(&reference), "{label}");
        let stats = m.native_stats().unwrap();
        assert!(
            !stats.armed && stats.native_instrs > 0,
            "{label}: {stats:?}"
        );
    }
    err
}

#[test]
fn unarmed_bursts_run_checked() {
    // The config enables the tier but nobody arms it: every body still
    // compiles and runs in bursts, and the machine behaves — and
    // counts — exactly like the reference.
    let image = tri_image();
    let mut m = Machine::load(&image, native_config()).unwrap();
    m.run(200_000).unwrap();
    let stats = m.native_stats().expect("tier is configured");
    assert!(!stats.armed);
    assert_eq!(stats.compiles, 3, "every body compiles: {stats:?}");
    assert!(stats.entries > 0 && stats.native_instrs > 0, "{stats:?}");
    let mut reference = Machine::load(&image, reference_config()).unwrap();
    reference.run(200_000).unwrap();
    assert_eq!(m.output(), TRI_EXPECTED);
    assert_eq!(fingerprint(&m), fingerprint(&reference));
    // Underflow mid-burst: `Exch` on a one-word stack pops the word,
    // then faults on the second pop.
    let under = stack_fault_image(|a| {
        a.instr(Instr::LoadImm(9));
        a.instr(Instr::Exch);
        a.instr(Instr::Out);
    });
    let err = checked_fault_matches_byte_rung(&under, "underflow");
    assert!(matches!(err, VmError::StackUnderflow), "{err:?}");
    let err = checked_fault_matches_byte_rung(&overflow_image(), "overflow");
    assert!(
        matches!(err, VmError::UnhandledTrap(fpc_vm::TrapCode::StackOverflow)),
        "{err:?}"
    );
}

#[test]
fn arming_refuses_lapsed_premises_and_overdeep_licenses() {
    let image = tri_image();
    // Premise lapse before arming: handler already installed. The tier
    // has stopped: it neither arms nor runs.
    let mut m = Machine::load(&image, native_config()).unwrap();
    m.set_trap_handler(&image, handler_ref()).unwrap();
    assert!(!m.arm_native(license()), "lapsed premises must refuse");
    assert!(!m.native_armed());
    m.run(200_000).unwrap();
    let stats = m.native_stats().unwrap();
    assert_eq!((stats.compiles, stats.entries), (0, 0), "{stats:?}");
    // A proven stack bound deeper than the configured stack must
    // refuse: the whole point of the license is that bursts can skip
    // depth checks.
    let mut m = Machine::load(&image, native_config()).unwrap();
    let depth = 1_000_000;
    assert!(
        !m.arm_native(NativeLicense::new(depth, 4)),
        "a bound beyond the machine's stack must refuse"
    );
    // The tier keeps running, checked…
    let mut reference = warm_reference(&image, 2);
    while m.output().len() < 2 {
        pace(&mut m);
    }
    let stats = m.native_stats().unwrap();
    assert!(!stats.armed && stats.native_instrs > 0, "{stats:?}");
    // …and stays armable after a refused license.
    assert!(m.arm_native(license()), "valid license still arms");
    pace(&mut m);
    pace(&mut reference);
    finish_and_compare(m, reference, "refused license");
    // Refused, a license leaves the checks in: a program that outgrows
    // the stack still faults exactly as on the byte rung.
    let image = overflow_image();
    let (reference, want) = run_sliced_to_end(&image, reference_config(), false, u64::MAX);
    let mut m = Machine::load(&image, native_config()).unwrap();
    assert!(!m.arm_native(NativeLicense::new(depth, 1)));
    let got = m.run(FUEL_CAP);
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    assert_eq!(fingerprint(&m), fingerprint(&reference));
    assert!(m.native_stats().unwrap().native_instrs > 0);
}

#[test]
fn terminal_faults_match_the_interpreter() {
    // Unbounded recursion exhausts frames. While armed no fault
    // handler can exist, so the fault is terminal — and must surface
    // as the same error, at the same simulated instant, with the same
    // counters, as the all-off reference.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("spin", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::Halt);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 1,
        })
        .unwrap();
    let mut native = Machine::load(&image, native_config()).unwrap();
    assert!(native.arm_native(license()));
    let native_err = native.run(5_000_000).unwrap_err();
    assert!(
        !matches!(native_err, VmError::OutOfFuel),
        "recursion must die on resources, not fuel: {native_err:?}"
    );
    let stats = native.native_stats().unwrap();
    assert!(
        stats.native_instrs > 0,
        "the spin must have run native before faulting: {stats:?}"
    );
    let mut reference = Machine::load(&image, reference_config()).unwrap();
    let reference_err = reference.run(5_000_000).unwrap_err();
    assert_eq!(
        format!("{native_err:?}"),
        format!("{reference_err:?}"),
        "terminal faults must agree"
    );
    assert_eq!(
        fingerprint(&native),
        fingerprint(&reference),
        "state at the terminal fault must agree"
    );
}

/// sum(n) = n + (n-1) + … + 1 by a call-free loop, called once from
/// main.
fn loop_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("sum", 1, 2), |a| {
        a.instr(Instr::StoreLocal(0));
        let head = a.label();
        let done = a.label();
        a.bind(head);
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(done);
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Add);
        a.instr(Instr::StoreLocal(1));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::StoreLocal(0));
        a.jump(head);
        a.bind(done);
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(200));
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

#[test]
fn a_loop_in_a_once_entered_procedure_runs_native_from_its_first_instruction() {
    let image = loop_image();
    // The first fuel unit compiles both bodies and retires main's
    // first instruction in a burst.
    let mut m = Machine::load(&image, native_config()).unwrap();
    assert!(m.arm_native(license()));
    assert!(matches!(m.run(1), Err(VmError::OutOfFuel)));
    let stats = m.native_stats().unwrap();
    assert_eq!((stats.compiles, stats.native_instrs), (2, 1), "{stats:?}");
    // Whole and in 1/3/7-unit slices, every instruction retires in a
    // burst: natively, or (the final `Halt`) through the fallback.
    let m = native_matches_byte_rung(&image, &[20100], "loop");
    let stats = m.native_stats().unwrap();
    assert_eq!(stats.interp_ops, 1, "only the Halt interprets: {stats:?}");
    assert_eq!(
        stats.native_instrs + stats.interp_ops,
        m.stats().instructions,
        "nothing runs outside a burst: {stats:?}"
    );
}

#[test]
fn every_body_compiles_once_per_key() {
    // tri, main and the never-called handler: all three compile on the
    // first step, and a long run compiles nothing more. The key is the
    // code version.
    let image = tri_image();
    let mut m = Machine::load(&image, native_config()).unwrap();
    assert!(m.arm_native(license()));
    pace(&mut m);
    let first = m.native_stats().unwrap();
    assert_eq!((first.compiles, first.compiled_procs), (3, 3), "{first:?}");
    let mut reference = warm_reference(&image, 2);
    while m.output().len() < 2 {
        pace(&mut m);
    }
    let warm = m.native_stats().unwrap();
    assert_eq!((warm.compiles, warm.flushes), (3, 0), "{warm:?}");
    // Binding an already-bound module moves the code version without
    // lapsing a premise: one flush, after which the next step
    // recompiles each body once, and the run stays bit-identical.
    m.bind_module(0).unwrap();
    reference.bind_module(0).unwrap();
    pace(&mut m);
    pace(&mut reference);
    let flushed = m.native_stats().unwrap();
    assert_eq!((flushed.compiles, flushed.flushes), (6, 1), "{flushed:?}");
    assert_eq!(flushed.compiled_procs, 3);
    finish_and_compare(m, reference, "flush");
}

/// The bank machine's native rung: I4 (8×16 renaming banks, divert
/// policy).
fn bank_native_config() -> MachineConfig {
    native_on(MachineConfig::i4())
}

/// A renaming image: `tri` recurses 40 deep — five times the bank
/// count, so every descent overflows banks and every unwind underflows
/// them — and `poke` round-trips its argument through a pointer to its
/// own shadowed local (a diverted `Write` and `Read`, plus a diverted
/// `LoadIndex`), called from a loop.
fn bank_image() -> Image {
    let mut b = ImageBuilder::new();
    b.bank_args();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("tri", 1, 1), |a| {
        let base = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(base);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
        a.bind(base);
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("poke", 1, 2).with_addr_taken(), |a| {
        // local1 := x through a pointer, then x + 1 + local1 read back
        // through the pointer twice (once as a[1] off local 0's address).
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadLocalAddr(1));
        a.instr(Instr::Write);
        a.instr(Instr::LoadLocalAddr(1));
        a.instr(Instr::Read);
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Add);
        a.instr(Instr::LoadLocalAddr(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::LoadIndex);
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        for _ in 0..3 {
            a.instr(Instr::LoadImm(40));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Out);
        }
        a.instr(Instr::LoadImm(20));
        a.instr(Instr::StoreLocal(0));
        let top = a.label();
        let done = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(done);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LocalCall(1));
        a.instr(Instr::Out);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::StoreLocal(0));
        a.jump(top);
        a.bind(done);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 2,
    })
    .unwrap()
}

#[test]
fn bank_machine_bursts_overflow_underflow_and_divert_like_the_byte_rung() {
    let image = bank_image();
    let expected: Vec<u16> = [820, 820, 820]
        .into_iter()
        .chain((1..=20).rev().map(|x| 2 * x + 1))
        .collect();
    let byte = byte_on(MachineConfig::i4());
    let mut reference = Machine::load(&image, byte).unwrap();
    reference.run(200_000).unwrap();
    assert_eq!(reference.output(), expected.as_slice());
    let banks = reference.bank_stats().expect("i4 has banks");
    assert!(banks.overflows > 0 && banks.underflows > 0, "{banks:?}");
    assert!(banks.diversions > 0, "{banks:?}");

    // One run straight through, and one paced in 7-unit slices so
    // burst exits land all over the bank traffic.
    for slice in [200_000u64, 7] {
        let mut m = Machine::load(&image, bank_native_config()).unwrap();
        assert!(m.arm_native(license()));
        loop {
            match m.run(slice) {
                Ok(()) => break,
                Err(VmError::OutOfFuel) => {}
                Err(e) => panic!("slice {slice}: {e:?}"),
            }
        }
        let stats = m.native_stats().unwrap();
        assert!(stats.native_instrs > 0, "slice {slice}: {stats:?}");
        assert!(m.bank_stats().unwrap().diversions > 0);
        assert_eq!(
            fingerprint(&m),
            fingerprint(&reference),
            "slice {slice}: bank-machine bursts diverged from the byte rung"
        );
    }
}

/// Runs `image` on `cfg` (arming the tier when `armed`) to halt in
/// `slice`-unit fuel slices.
fn run_sliced(image: &Image, cfg: MachineConfig, armed: bool, slice: u64) -> Machine {
    let (m, end) = run_sliced_to_end(image, cfg, armed, slice);
    end.unwrap_or_else(|e| panic!("slice {slice}: {e:?}"));
    m
}

/// The fuel every run here must end within. A bound, not a slice: a
/// program whose stack fault went unnoticed would otherwise grow the
/// host stack without end.
const FUEL_CAP: u64 = 5_000_000;

/// Runs `image` on `cfg` (arming the tier when `armed`) in
/// `slice`-unit fuel slices until it halts, fails with anything but
/// running out of fuel, or has spent [`FUEL_CAP`].
fn run_sliced_to_end(
    image: &Image,
    cfg: MachineConfig,
    armed: bool,
    slice: u64,
) -> (Machine, Result<(), VmError>) {
    let mut m = Machine::load(image, cfg).unwrap();
    if armed {
        assert!(m.arm_native(license()), "fresh machine must arm");
    }
    let mut left = FUEL_CAP;
    loop {
        let fuel = slice.min(left);
        left -= fuel;
        match m.run(fuel) {
            Err(VmError::OutOfFuel) if left > 0 => {}
            end => return (m, end),
        }
    }
}

/// Holds `image`'s native run, armed and checked, bit-identical to the
/// byte rung, run whole and in 1-, 3- and 7-unit fuel slices, and
/// returns the whole armed run.
fn native_matches_byte_rung(image: &Image, expected: &[u16], label: &str) -> Machine {
    native_matches_byte_rung_on(MachineConfig::i2(), image, expected, label)
}

/// [`native_matches_byte_rung`] on implementation `base`.
fn native_matches_byte_rung_on(
    base: MachineConfig,
    image: &Image,
    expected: &[u16],
    label: &str,
) -> Machine {
    let reference = run_sliced(image, byte_on(base), false, u64::MAX);
    assert_eq!(reference.output(), expected, "{label}: reference output");
    let want = fingerprint(&reference);
    for armed in [false, true] {
        let label = format!("{label} (armed: {armed})");
        for slice in [1u64, 3, 7] {
            let m = run_sliced(image, native_on(base), armed, slice);
            assert_eq!(fingerprint(&m), want, "{label}: {slice}-unit slices");
        }
        let whole = run_sliced(image, native_on(base), armed, u64::MAX);
        let stats = whole.native_stats().unwrap();
        assert!(stats.native_instrs > 0, "{label}: {stats:?}");
        assert_eq!(fingerprint(&whole), want, "{label}: whole run");
        if armed {
            return whole;
        }
    }
    unreachable!("the armed pass returns")
}

/// `tri` recursing `depth` deep, called three times from a
/// straight-line main.
fn deep_tri_image(depth: u16) -> Image {
    deep_tri_image_with(depth, false)
}

/// [`deep_tri_image`], passing the argument by bank renaming when
/// `bank_args` is set.
fn deep_tri_image_with(depth: u16, bank_args: bool) -> Image {
    let mut b = ImageBuilder::new();
    if bank_args {
        b.bank_args();
    }
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("tri", 1, 1), |a| {
        if !bank_args {
            a.instr(Instr::StoreLocal(0));
        }
        let base = a.label();
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(base);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
        a.bind(base);
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..3 {
            a.instr(Instr::LoadImm(depth));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

#[test]
fn recursion_deeper_than_the_return_predictor_matches_the_byte_rung() {
    // 100 frames deep: the predictor (32 entries) overflows on the way
    // down, so the last returns on the way up find it empty and look
    // their targets up instead.
    let tri = 100 * 101 / 2;
    let m = native_matches_byte_rung(&deep_tri_image(100), &[tri, tri, tri], "deep recursion");
    assert_eq!(m.stats().transfers.returns.count, 3 * 101);
}

#[test]
fn first_calls_on_an_empty_av_list_replenish_inside_bursts() {
    // Every AV list starts empty, and each replenishing trap carves
    // four frames: tri is compiled before its first call, so the whole
    // 60-deep first descent traps to the software allocator from
    // inside a burst.
    let tri = 60 * 61 / 2;
    let m = native_matches_byte_rung(&deep_tri_image(60), &[tri, tri, tri], "replenish");
    let heap = m.heap_stats().expect("i2 has an AV heap");
    assert!(heap.traps >= 15, "the descent must trap: {heap:?}");
}

#[test]
fn i3_recursion_deeper_than_the_return_stack_evicts_then_misses() {
    let tri = 40 * 41 / 2;
    let m = native_matches_byte_rung_on(
        MachineConfig::i3(),
        &deep_tri_image(40),
        &[tri, tri, tri],
        "i3 return stack",
    );
    let rs = m.return_stack_stats();
    assert!(rs.evictions > 0 && rs.misses > 0, "{rs:?}");
}

#[test]
fn i4_recursion_deeper_than_the_banks_spills_and_fills() {
    let tri = 40 * 41 / 2;
    let m = native_matches_byte_rung_on(
        MachineConfig::i4(),
        &deep_tri_image_with(40, true),
        &[tri, tri, tri],
        "i4 banks",
    );
    let banks = m.bank_stats().expect("i4 has banks");
    assert!(banks.overflows > 0 && banks.underflows > 0, "{banks:?}");
}

#[test]
fn frame_heap_exhaustion_matches_the_byte_rung_in_every_slicing() {
    // Unbounded recursion: the same terminal error at the same
    // instruction, with the same counters, however fuel is sliced.
    for (base, bank_args) in [
        (MachineConfig::i2(), false),
        (MachineConfig::i3(), false),
        (MachineConfig::i4(), true),
    ] {
        let mut b = ImageBuilder::new();
        if bank_args {
            b.bank_args();
        }
        let m = b.module("m");
        b.proc_with(m, ProcSpec::new("spin", 1, 1), |a| {
            if !bank_args {
                a.instr(Instr::StoreLocal(0));
            }
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Ret);
        });
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap();
        let (reference, want) = run_sliced_to_end(&image, byte_on(base), false, u64::MAX);
        let want = format!("{want:?}");
        assert!(want.contains("OutOfMemory"), "{want}");
        for slice in [u64::MAX, 1, 3, 7] {
            let (m, got) = run_sliced_to_end(&image, native_on(base), true, slice);
            let label = format!("{base:?} slice {slice}");
            assert_eq!(format!("{got:?}"), want, "{label}");
            assert_eq!(fingerprint(&m), fingerprint(&reference), "{label}");
            // In 1-unit slices the `LdCall` superinstruction never has
            // the fuel to run; the whole run must go native.
            if slice == u64::MAX {
                assert!(m.native_stats().unwrap().native_instrs > 0, "{label}");
            }
        }
    }
}

/// `main` calls `scrib(rel)`, which rewrites main's saved PC to `rel`
/// (relative to the code base), skipping `LoadImm 1; Out; LoadLocal 0`
/// so the return lands on `LoadImm 5`. That op is the second of the
/// `LoadLocal; LoadImm` superinstruction, so no compiled op starts
/// there.
fn swallowed_return_image(rel: u16) -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("scrib", 1, 1), |a| {
        // The caller's frame address is its context word doubled; its
        // saved PC is frame word 0.
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::ReturnContext);
        a.instr(Instr::Dup);
        a.instr(Instr::Add);
        a.instr(Instr::Write);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 1), move |a| {
        a.instr(Instr::LoadImm(rel));
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Out);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(5));
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

#[test]
fn a_return_to_no_compiled_op_start_leaves_the_burst() {
    // The relative PC is solved by rebuilding until the layout stops
    // moving: `LoadImm 5` is main's sixth instruction.
    let mut rel = 0u16;
    let image = loop {
        let image = swallowed_return_image(rel);
        let cb = image.modules[0].code_base.0 as usize;
        let ev = cb + 2;
        let body = cb
            + u16::from_le_bytes([image.code[ev], image.code[ev + 1]]) as usize
            + fpc_core::layout::PROC_HEADER_BYTES as usize;
        let (at, ..) = fpc_isa::walk(&image.code, body, image.code.len())
            .nth(5)
            .unwrap()
            .unwrap();
        let want = (at - cb) as u16;
        if want == rel {
            break image;
        }
        rel = want;
    };
    let m = native_matches_byte_rung(&image, &[5], "swallowed return");
    // The burst leaves at the return; `LoadImm 5` is the one
    // instruction interpreted outside a burst, and the next burst
    // enters at the `Out` after it.
    let stats = m.native_stats().unwrap();
    assert_eq!(stats.compiled_procs, 2, "{stats:?}");
    assert_eq!(
        m.stats().instructions - stats.native_instrs - stats.interp_ops,
        1,
        "{stats:?}"
    );
}

/// A generator coroutine, a second process and a leaf procedure, all
/// compiled, so coroutine `XFER`s, process switches, calls and returns
/// all happen inside bursts:
///
/// * `gen` yields 1, 2, 3, … to whoever resumes it;
/// * `leaf(x)` switches process, then returns 2x — so each process's
///   call returns after the *other* process's call, and every return
///   finds the other process's return point on the predictor;
/// * `worker` (a process) outputs `leaf(7)`, forever;
/// * `main` resumes `gen` 30 times and outputs `leaf` of each value,
///   then halts.
fn coroutine_process_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("gen", 0, 2), |a| {
        // The first resume carries a dummy value, like every other.
        let top = a.label();
        a.bind(top);
        a.instr(Instr::Drop);
        a.instr(Instr::ReturnContext);
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::AddImm(1));
        a.instr(Instr::StoreLocal(1));
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Xfer);
        a.jump(top);
    });
    b.proc_with(m, ProcSpec::new("leaf", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::ProcessSwitch);
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(2));
        a.instr(Instr::Mul);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("worker", 0, 0), |a| {
        let top = a.label();
        a.bind(top);
        a.instr(Instr::LoadImm(7));
        a.instr(Instr::LocalCall(1));
        a.instr(Instr::Out);
        a.jump(top);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 2), |a| {
        a.instr(Instr::LoadImm(0x8000)); // gen: gft 0, ev 0
        a.instr(Instr::NewContext);
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadImm(0x8002)); // worker: gft 0, ev 2
        a.instr(Instr::Spawn);
        a.instr(Instr::Drop);
        a.instr(Instr::LoadImm(30));
        a.instr(Instr::StoreLocal(1));
        let top = a.label();
        let done = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(1));
        a.jump_zero(done);
        a.instr(Instr::LoadImm(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Xfer);
        a.instr(Instr::ReturnContext);
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LocalCall(1));
        a.instr(Instr::Out);
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::StoreLocal(1));
        a.jump(top);
        a.bind(done);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 3,
    })
    .unwrap()
}

#[test]
fn coroutine_and_process_switches_inside_bursts_match_the_byte_rung() {
    // main's 30 results interleave with the worker's; main halts right
    // after its last.
    let mut expected: Vec<u16> = (1..=30).flat_map(|i| [2 * i, 14]).collect();
    expected.pop();
    let m = native_matches_byte_rung(&coroutine_process_image(), &expected, "xfer/switch");
    let t = &m.stats().transfers;
    assert!(t.coroutines.count >= 60, "{t:?}");
    assert!(t.switches.count >= 60, "{t:?}");
    let stats = m.native_stats().unwrap();
    assert!(stats.compiled_procs >= 3, "{stats:?}");
    assert!(
        stats.interp_ops > 0,
        "XFER and switches interpret: {stats:?}"
    );
}

/// `probe()` rewrites GFT entry 0 with its own value (a relink to the
/// same target) and returns 1; `main` calls it from a loop, so the
/// store lands between a compiled call and its return. No compiled op
/// binds a table word, so the store neither ends the burst nor
/// recompiles anything.
fn relink_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("probe", 0, 0), |a| {
        a.instr(Instr::LoadImm(fpc_vm::GFT_BASE.0 as u16));
        a.instr(Instr::Read);
        a.instr(Instr::LoadImm(fpc_vm::GFT_BASE.0 as u16));
        a.instr(Instr::Write);
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 2), |a| {
        a.instr(Instr::LoadImm(40));
        a.instr(Instr::StoreLocal(0));
        let top = a.label();
        let done = a.label();
        a.bind(top);
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(done);
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::Add);
        a.instr(Instr::StoreLocal(1));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Sub);
        a.instr(Instr::StoreLocal(0));
        a.jump(top);
        a.bind(done);
        a.instr(Instr::LoadLocal(1));
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 1,
    })
    .unwrap()
}

#[test]
fn relink_under_a_compiled_call_site_exits_and_flushes() {
    let m = native_matches_byte_rung(&relink_image(), &[40], "relink");
    let stats = m.native_stats().unwrap();
    assert_eq!(
        (stats.flushes, stats.compiles),
        (0, 2),
        "a relink leaves the compiled bodies coherent: {stats:?}"
    );
}

/// Module `a` (0): `one` outputs 1; `scrib(x)`, when `x` is non-zero,
/// rewrites its caller's saved PC to `rel`; `main` calls `b.entry` five
/// times, `scrib(0)` five times, then `scrib(1)`. Module `b` (1): `two`
/// outputs 2; `entry` is `LocalCall 0; Ret`.
fn foreign_return_image(rel: u16) -> Image {
    let mut b = ImageBuilder::new();
    let ma = b.module("a");
    let mb = b.module("b");
    b.proc_with(ma, ProcSpec::new("one", 0, 0), |a| {
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Out);
        a.instr(Instr::Ret);
    });
    b.proc_with(ma, ProcSpec::new("scrib", 1, 1), move |a| {
        let done = a.label();
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.jump_zero(done);
        // The caller's frame address is its context word doubled; its
        // saved PC is frame word 0.
        a.instr(Instr::LoadImm(rel));
        a.instr(Instr::ReturnContext);
        a.instr(Instr::Dup);
        a.instr(Instr::Add);
        a.instr(Instr::Write);
        a.bind(done);
        a.instr(Instr::Ret);
    });
    b.proc_with(mb, ProcSpec::new("two", 0, 0), |a| {
        a.instr(Instr::LoadImm(2));
        a.instr(Instr::Out);
        a.instr(Instr::Ret);
    });
    b.proc_with(mb, ProcSpec::new("entry", 0, 0), |a| {
        a.instr(Instr::LocalCall(0));
        a.instr(Instr::Ret);
    });
    let lv = b.import(
        ma,
        ProcRef {
            module: 1,
            ev_index: 1,
        },
    );
    b.proc_with(ma, ProcSpec::new("main", 0, 0), move |a| {
        for _ in 0..5 {
            a.instr(Instr::ExternalCall(lv));
        }
        for x in [0, 0, 0, 0, 0, 1] {
            a.instr(Instr::LoadImm(x));
            a.instr(Instr::LocalCall(1));
        }
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 2,
    })
    .unwrap()
}

#[test]
fn local_call_under_a_foreign_code_base_resolves_through_the_callers_entry_vector() {
    // `scrib(1)` returns into `b.entry`'s body while the frame's global
    // frame — and so the code base — is still `a`'s. `LocalCall 0`
    // indexes the *current* code base's entry vector, so it calls
    // `a.one`, although `b.entry`'s compiled site was resolved against
    // `b`'s entry vector (`b.two`). The relative PC is solved by
    // rebuilding until the layout stops moving.
    let mut rel = 0u16;
    let image = loop {
        let image = foreign_return_image(rel);
        let (ma, mb) = (&image.modules[0], &image.modules[1]);
        let ev = mb.code_base.0 as usize + 2;
        let entry = mb.code_base.0 as usize
            + u16::from_le_bytes([image.code[ev], image.code[ev + 1]]) as usize
            + fpc_core::layout::PROC_HEADER_BYTES as usize;
        let want = (entry - ma.code_base.0 as usize) as u16;
        if want == rel {
            break image;
        }
        rel = want;
    };
    let m = native_matches_byte_rung(&image, &[2, 2, 2, 2, 2, 1], "foreign code base");
    assert!(m.native_stats().unwrap().compiled_procs >= 2);
}
