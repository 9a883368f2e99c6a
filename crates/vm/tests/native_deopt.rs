//! Deoptimization tests for the tier-5 native compiler.
//!
//! Every event that lapses a verify certificate's premises —
//! trap-handler install, fault-handler install, module unbind, module
//! relocation, procedure replacement — must demote an *armed, mid-run* native
//! machine back to the interpretive ladder, permanently, without
//! perturbing one simulated counter. Each test here runs a recursive
//! workload hot enough to compile, fires one re-arm hook in the middle,
//! and holds the final machine state bit-identical to an
//! all-accelerators-off reference given the same hook at the same
//! simulated point. The license gate is tested from both directions:
//! no license → the tier never runs; lapsed premises → arming refuses.
//! Tier-up itself is held to the same oracle: a loop in a procedure
//! entered once must go native by its back-edge count alone, with the
//! same counters however a fuel slice falls around the crossing jump.

use fpc_isa::Instr;
use fpc_vm::{
    FaultKind, Image, ImageBuilder, Machine, MachineConfig, NativeLicense, ProcRef, ProcSpec,
    VmError,
};

/// Every simulated-side observable, flattened through Debug (the same
/// fingerprint the 4-rung parity suite uses).
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

/// The native rung under test, with a low threshold so short runs go
/// native quickly.
fn native_config() -> MachineConfig {
    native_on(MachineConfig::i2())
}

/// `base` (one of I1–I4) on the native rung.
fn native_on(base: MachineConfig) -> MachineConfig {
    base.with_native_threshold(4).dispatch_ladder()[3].1
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
        "the run must be hot enough to execute compiled code: {stats:?}"
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

#[test]
fn tier_is_dormant_without_a_license() {
    let image = tri_image();
    // Config enables the tier but nobody arms it: the machine must
    // behave — and count — exactly like the reference, and the burst
    // engine must never run.
    let mut m = Machine::load(&image, native_config()).unwrap();
    m.run(200_000).unwrap();
    let stats = m.native_stats().expect("tier is configured");
    assert!(!stats.armed);
    assert_eq!(stats.native_instrs, 0, "no license, no native execution");
    assert_eq!(stats.compiles, 0, "no license, no compilation");
    assert_eq!(stats.entries, 0, "no license, no burst entries");
    let mut reference = Machine::load(&image, reference_config()).unwrap();
    reference.run(200_000).unwrap();
    assert_eq!(m.output(), TRI_EXPECTED);
    assert_eq!(fingerprint(&m), fingerprint(&reference));
}

#[test]
fn arming_refuses_lapsed_premises_and_overdeep_licenses() {
    let image = tri_image();
    // Premise lapse before arming: handler already installed.
    let mut m = Machine::load(&image, native_config()).unwrap();
    m.set_trap_handler(&image, handler_ref()).unwrap();
    assert!(!m.arm_native(license()), "lapsed premises must refuse");
    assert!(!m.native_armed());
    // A proven stack bound deeper than the configured stack must
    // refuse: the whole point of the license is that bursts can skip
    // depth checks.
    let mut m = Machine::load(&image, native_config()).unwrap();
    let depth = 1_000_000;
    assert!(
        !m.arm_native(NativeLicense::new(depth, 4)),
        "a bound beyond the machine's stack must refuse"
    );
    // And the tier must stay armable after a refused license.
    assert!(m.arm_native(license()), "valid license still arms");
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
/// main: the procedure never gets hot by invocation count, only by its
/// back-edge.
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
fn loop_in_a_once_entered_procedure_tiers_up_by_back_edge() {
    let image = loop_image();
    let mut reference = Machine::load(&image, reference_config()).unwrap();
    reference.run(200_000).unwrap();
    assert_eq!(reference.output(), &[20100]);

    let mut native = Machine::load(&image, native_config()).unwrap();
    assert!(native.arm_native(license()));
    native.run(200_000).unwrap();
    let stats = native.native_stats().unwrap();
    assert!(
        stats.native_instrs > 0,
        "the loop must run native: {stats:?}"
    );
    assert_eq!(stats.compiles, 1, "only sum's body compiles: {stats:?}");
    let hot = native.native_hotness().unwrap();
    assert_eq!(hot.count(), 1, "sum is entered exactly once");
    assert_eq!(
        fingerprint(&native),
        fingerprint(&reference),
        "loop tier-up diverged from the byte rung"
    );

    // Find the fuel unit that retires the threshold-crossing back-edge:
    // the probe it queues compiles at the start of the following run.
    // Every step before the crossing is interpreted, one fuel unit
    // each, so a slice of that many units ends exactly on the jump.
    let mut probe = Machine::load(&image, native_config()).unwrap();
    assert!(probe.arm_native(license()));
    let mut spent = 0u64;
    while probe.native_stats().unwrap().compiles == 0 {
        pace(&mut probe);
        spent += 1;
    }
    let crossing = spent - 1;
    for split in [crossing - 1, crossing, crossing + 1] {
        let mut m = Machine::load(&image, native_config()).unwrap();
        assert!(m.arm_native(license()));
        assert!(matches!(m.run(split), Err(VmError::OutOfFuel)));
        if split == crossing {
            assert_eq!(
                m.native_stats().unwrap().compiles,
                0,
                "the slice ends before the queued probe compiles"
            );
        }
        m.run(200_000).unwrap();
        let stats = m.native_stats().unwrap();
        assert!(stats.native_instrs > 0, "split {split}: {stats:?}");
        assert_eq!(
            fingerprint(&m),
            fingerprint(&reference),
            "a slice ending at fuel {split} diverged from the byte rung"
        );
    }
}

/// The bank machine's native rung: I4 (8×16 renaming banks, divert
/// policy) with a low threshold.
fn bank_native_config() -> MachineConfig {
    native_on(MachineConfig::i4())
}

/// A renaming image: `tri` recurses 40 deep — five times the bank
/// count, so every descent overflows banks and every unwind underflows
/// them — and `poke` round-trips its argument through a pointer to its
/// own shadowed local (a diverted `Write` and `Read`, plus a diverted
/// `LoadIndex`), called from a loop until it is hot.
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

/// Runs `image` on `cfg` (arming the tier when it has one) to halt in
/// `slice`-unit fuel slices.
fn run_sliced(image: &Image, cfg: MachineConfig, slice: u64) -> Machine {
    let (m, end) = run_sliced_to_end(image, cfg, slice);
    end.unwrap_or_else(|e| panic!("slice {slice}: {e:?}"));
    m
}

/// Runs `image` on `cfg` in `slice`-unit fuel slices until it halts or
/// fails with anything but running out of fuel.
fn run_sliced_to_end(
    image: &Image,
    cfg: MachineConfig,
    slice: u64,
) -> (Machine, Result<(), VmError>) {
    let mut m = Machine::load(image, cfg).unwrap();
    if cfg.native {
        assert!(m.arm_native(license()), "fresh machine must arm");
    }
    let mut slices = 0u64;
    loop {
        match m.run(slice) {
            Err(VmError::OutOfFuel) => {}
            end => return (m, end),
        }
        slices += 1;
        assert!(slices < 10_000_000, "slice {slice}: runaway");
    }
}

/// Holds `image`'s native run bit-identical to the byte rung, run
/// whole and in 1-, 3- and 7-unit fuel slices, and returns the whole
/// native run.
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
    let reference = run_sliced(image, byte_on(base), u64::MAX);
    assert_eq!(reference.output(), expected, "{label}: reference output");
    let want = fingerprint(&reference);
    let whole = run_sliced(image, native_on(base), u64::MAX);
    for slice in [1u64, 3, 7] {
        let m = run_sliced(image, native_on(base), slice);
        assert_eq!(fingerprint(&m), want, "{label}: {slice}-unit slices");
    }
    let stats = whole.native_stats().unwrap();
    assert!(stats.native_instrs > 0, "{label}: {stats:?}");
    assert_eq!(fingerprint(&whole), want, "{label}: whole run");
    whole
}

/// `tri` recursing `depth` deep, called three times from a
/// straight-line main (which is entered once, so never compiled).
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
    // four frames: tri compiles on its fourth call, so most of a
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
        let (reference, want) = run_sliced_to_end(&image, byte_on(base), u64::MAX);
        let want = format!("{want:?}");
        assert!(want.contains("OutOfMemory"), "{want}");
        for slice in [u64::MAX, 1, 3, 7] {
            let (m, got) = run_sliced_to_end(&image, native_on(base), slice);
            let label = format!("{base:?} slice {slice}");
            assert_eq!(format!("{got:?}"), want, "{label}");
            assert_eq!(fingerprint(&m), fingerprint(&reference), "{label}");
            // In 1-unit slices the fused `LdCall` never has the fuel to
            // run; the whole run must go native.
            if slice == u64::MAX {
                assert!(m.native_stats().unwrap().native_instrs > 0, "{label}");
            }
        }
    }
}

#[test]
fn returns_into_an_uncompiled_caller_leave_the_burst() {
    // main runs once and has no loop, so it never compiles: every
    // outermost return of the compiled `tri` lands in interpreted code.
    let m = native_matches_byte_rung(&deep_tri_image(10), &[55, 55, 55], "uncompiled caller");
    let stats = m.native_stats().unwrap();
    assert_eq!(stats.compiled_procs, 1, "only tri compiles: {stats:?}");
}

/// A generator coroutine, a second process and a hot leaf procedure,
/// all compiled by their loops or call counts, so coroutine `XFER`s,
/// process switches, calls and returns all happen inside bursts:
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
/// same target) and returns 1; `main` calls it from a hot loop, so the
/// store lands between a compiled call and its return.
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
    assert!(
        stats.flushes > 0,
        "every relink bumps the table generation: {stats:?}"
    );
    assert!(stats.compiles > 2, "flushed bodies recompile: {stats:?}");
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
