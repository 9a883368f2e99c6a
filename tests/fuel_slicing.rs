//! Fuel slicing is invisible: the property the host scheduler stands
//! on.
//!
//! `fpc-sched` preempts machines at arbitrary fuel boundaries and
//! resumes them on arbitrary workers. That is sound only if a run
//! split into slices `a + b + …` is *bit-identical* to the unsliced
//! run — stats, output, references, cache and bank statistics — on
//! every rung of the dispatch ladder and on the checked native tier,
//! including a zero-length first slice and splits that land inside a
//! native burst or one of its superinstructions. The split tests run
//! on I3 and on the renaming bank machine I4, where splits also land
//! inside bank-local superinstructions.
//!
//! The second half pins the same property for fault-injection plans:
//! a [`PlanCursor`] advanced across preemptions must fire every event
//! exactly once, so a sliced plan run matches the one-shot
//! [`run_with_plan`] to the counter.

use fpc_compiler::{Linkage, Options};
use fpc_rng::Rng;
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{
    run_with_plan, FaultEvent, FaultPlan, Image, Machine, MachineConfig, PlanCursor, VmError,
};
use fpc_workloads::{compile_workload, programs};

const FUEL: u64 = 50_000_000;

/// The three host dispatch rungs, native last, then the native tier
/// left unarmed (`checked`). The native tier compiles every body before
/// the first instruction, so random splits land inside its bursts.
fn ladder(base: MachineConfig) -> [(&'static str, MachineConfig); 4] {
    let [byte, predecode, native] = base.dispatch_ladder();
    [byte, predecode, native, ("checked", native.1)]
}

/// Loads a machine on `cfg`, arming the native tier on the `native`
/// rung (the image must verify clean — fib does).
fn load(image: &Image, rung: &str, cfg: MachineConfig) -> Machine {
    let mut m = Machine::load(image, cfg).expect("loads");
    if rung == "native" {
        let report = verify_image(image, &VerifyOptions::for_config(&cfg));
        let license = report
            .certificate()
            .expect("fib verifies clean")
            .native_license();
        assert!(m.arm_native(license), "license must arm");
    }
    m
}

/// Everything slicing must preserve: architectural state. The native
/// tier's *occupancy* counters are deliberately excluded: a pause exits
/// a burst, so where preemption lands changes which tier retires an
/// instruction — but never what it computes or charges, which is
/// exactly the charge-not-perform contract. Those counters are the
/// burst entries and the native vs interpreted instruction shares.
fn fingerprint(m: &Machine) -> String {
    format!(
        "instr={} cycles={} jumps={} refs={} out={:?} banks={:?}",
        m.stats().instructions,
        m.stats().cycles,
        m.stats().jumps_taken,
        m.total_refs(),
        m.output(),
        m.bank_stats(),
    )
}

/// fib(14), compiled for argument renaming when `bank_args` is set.
fn fib_image_with(bank_args: bool) -> Image {
    compile_workload(
        &programs::fib(14),
        Options {
            linkage: Linkage::Direct,
            bank_args,
        },
    )
    .expect("fib compiles")
    .image
}

fn fib_image() -> Image {
    fib_image_with(false)
}

/// The machines the split tests cover: I3, and the I4 bank machine
/// running a renaming fib (recursion deeper than its banks, so slices
/// also split bank overflow and underflow traffic).
fn split_targets() -> [(&'static str, MachineConfig, Image); 2] {
    [
        ("i3", MachineConfig::i3(), fib_image()),
        ("i4", MachineConfig::i4(), fib_image_with(true)),
    ]
}

/// Any two-slice split `a + b` of an exact-fuel run, including `a = 0`
/// (an empty first slice must be a true no-op) and odd offsets that
/// land mid-superinstruction and mid-native-burst, matches the
/// one-shot run on every rung.
#[test]
fn any_two_slice_split_is_bit_identical_on_every_rung() {
    for (name, base, image) in split_targets() {
        two_slice_splits_match(name, base, &image);
    }
}

fn two_slice_splits_match(name: &str, base: MachineConfig, image: &Image) {
    for (rung, cfg) in ladder(base) {
        let rname = format!("{name}/{rung}");
        let mut whole = load(image, rung, cfg);
        whole.run(FUEL).unwrap();
        let total = whole.stats().instructions;
        let want = fingerprint(&whole);

        // An exact-fuel one-shot run must also halt cleanly: fuel
        // accounting has no off-by-one to hide behind.
        let mut exact = load(image, rung, cfg);
        exact.run(total).unwrap_or_else(|e| panic!("{rname}: {e}"));
        assert_eq!(fingerprint(&exact), want, "{rname}: exact fuel");

        let mut rng = Rng::seed_from_u64(0xF0E1);
        let mut splits = vec![0, 1, 2, 3, total - 1, total / 2];
        splits.extend((0..8).map(|_| rng.next_u64() % total));
        for a in splits {
            let b = total - a;
            let mut m = load(image, rung, cfg);
            if a == 0 {
                // A zero-fuel slice is OutOfFuel by definition…
                assert!(matches!(m.run(0), Err(VmError::OutOfFuel)), "{rname}");
            } else {
                match m.run(a) {
                    // One fuel unit retires *at least* one instruction,
                    // so a split near `total` can finish inside slice
                    // `a` — then the fingerprint must already match and
                    // there is no second leg.
                    Ok(()) => {
                        assert_eq!(fingerprint(&m), want, "{rname}: a={a} completed");
                        continue;
                    }
                    Err(VmError::OutOfFuel) => {
                        assert!(m.stats().instructions >= a, "{rname}: a={a}")
                    }
                    Err(e) => panic!("{rname}: a={a}: {e}"),
                }
            }
            // …and the remainder finishes on exactly `b`.
            m.run(b).unwrap_or_else(|e| panic!("{rname}: a={a}: {e}"));
            assert!(m.halted(), "{rname}: a={a}");
            assert_eq!(fingerprint(&m), want, "{rname}: split {a}+{b}");
        }
    }
}

/// Seeded random many-slice schedules (the scheduler's actual access
/// pattern) are bit-identical to the one-shot run on every rung.
#[test]
fn random_slice_schedules_are_bit_identical_on_every_rung() {
    for (name, base, image) in split_targets() {
        random_schedules_match(name, base, &image);
    }
}

fn random_schedules_match(name: &str, base: MachineConfig, image: &Image) {
    for (rung, cfg) in ladder(base) {
        let rname = format!("{name}/{rung}");
        let mut whole = load(image, rung, cfg);
        whole.run(FUEL).unwrap();
        let want = fingerprint(&whole);
        for seed in [1u64, 2, 3] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut m = load(image, rung, cfg);
            let mut slices = 0u32;
            loop {
                // 1-instruction slices through multi-thousand quanta.
                let fuel = 1 + rng.next_u64() % (10u64.pow(rng.gen_index(4) as u32 + 1));
                match m.run(fuel) {
                    Ok(()) => break,
                    Err(VmError::OutOfFuel) => slices += 1,
                    Err(e) => panic!("{rname}/seed {seed}: {e}"),
                }
                assert!(slices < 1_000_000, "{rname}: runaway");
            }
            assert!(slices > 0, "{rname}: fib must outlast one slice");
            assert_eq!(fingerprint(&m), want, "{rname}: seed {seed}");
        }
    }
}

/// A plan that fib survives without a handler: frame-pressure windows
/// of zero length (every free frame seized, then released, before the
/// same instruction), each after fib's deepest descent has filled its
/// frame list, and an unbind of a module the image does not have,
/// which fires but changes nothing.
fn harmless_plan(windows: &[u64]) -> FaultPlan {
    let mut plan = Vec::new();
    for &at in windows {
        plan.push(FaultEvent::FramePressure { at });
        plan.push(FaultEvent::ReleasePressure { at });
    }
    plan.push(FaultEvent::UnbindModule { at: 20, module: 99 });
    FaultPlan::from_events(plan)
}

/// A fault plan applied through a [`PlanCursor`] in fuel slices fires
/// each event exactly once and matches the one-shot [`run_with_plan`]
/// bit-for-bit — preempting mid-plan neither drops nor re-fires events.
#[test]
fn sliced_plan_runs_match_one_shot_plan_runs() {
    let image = fib_image();
    let plan = harmless_plan(&[600, 997, 5_000, 5_001]);
    for (rname, cfg) in ladder(MachineConfig::i3()) {
        let mut oneshot = load(&image, rname, cfg);
        let report = run_with_plan(&mut oneshot, &plan, FUEL).unwrap();
        assert_eq!(report.applied, 9, "{rname}");
        assert!(report.frames_seized > 0, "{rname}");
        assert_eq!(report.unbinds, 0, "{rname}");
        let want = fingerprint(&oneshot);

        for quantum in [1u64, 97, 4096] {
            let mut m = load(&image, rname, cfg);
            let mut cursor = PlanCursor::new(plan.clone());
            loop {
                match cursor.run(&mut m, quantum) {
                    Ok(()) => break,
                    Err(VmError::OutOfFuel) => {}
                    Err(e) => panic!("{rname}/q={quantum}: {e}"),
                }
            }
            assert!(cursor.exhausted(), "{rname}/q={quantum}: all events fired");
            assert_eq!(cursor.report(), report, "{rname}/q={quantum}");
            assert_eq!(fingerprint(&m), want, "{rname}/q={quantum}");
        }
    }
}

/// The cursor is the resumable form — calling the *one-shot*
/// [`run_with_plan`] twice on a paused machine would re-fire events;
/// the cursor must not. This pins the exact bug class the scheduler
/// would otherwise hit when composing plans with preemption.
#[test]
fn plan_cursor_does_not_refire_applied_events_across_pauses() {
    let image = fib_image();
    let plan = harmless_plan(&[500]);
    let cfg = MachineConfig::i3();
    let mut m = load(&image, "checked", cfg);
    let mut cursor = PlanCursor::new(plan);
    // Pause long after the events fired…
    assert!(matches!(cursor.run(&mut m, 1_000), Err(VmError::OutOfFuel)));
    let fired = cursor.report();
    assert_eq!(fired.applied, 3);
    assert!(fired.frames_seized > 0);
    assert!(cursor.exhausted());
    // …and resume: no event may fire again.
    cursor.run(&mut m, FUEL).unwrap();
    assert_eq!(cursor.report(), fired);
}
