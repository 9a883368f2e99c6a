//! Fuel slicing is invisible: the property the host scheduler stands
//! on.
//!
//! `fpc-sched` preempts machines at arbitrary fuel boundaries and
//! resumes them on arbitrary workers. That is sound only if a run
//! split into slices `a + b + …` is *bit-identical* to the unsliced
//! run — stats, output, references, cache and bank statistics — on
//! every rung of the five-level dispatch ladder, including a
//! zero-length first slice and splits that land inside a fused pair or
//! a native burst. The split tests run on I3 and on the renaming bank
//! machine I4, where splits also land inside fused bank-local ops.
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

/// The five host dispatch rungs, native last. The native rung's
/// threshold is low so bursts begin early and random splits land
/// inside them.
fn ladder(base: MachineConfig) -> [(&'static str, MachineConfig); 5] {
    [
        (
            "byte",
            base.with_predecode(false)
                .with_inline_xfer(false)
                .with_fusion(false),
        ),
        (
            "predecode",
            base.with_predecode(true)
                .with_inline_xfer(false)
                .with_fusion(false),
        ),
        (
            "predecode_ic",
            base.with_predecode(true)
                .with_inline_xfer(true)
                .with_fusion(false),
        ),
        (
            "predecode_ic_fuse",
            base.with_predecode(true)
                .with_inline_xfer(true)
                .with_fusion(true),
        ),
        (
            "native",
            base.with_predecode(true)
                .with_inline_xfer(true)
                .with_fusion(true)
                .with_native_tier(true)
                .with_native_threshold(4),
        ),
    ]
}

/// Loads a machine on `cfg`, arming the native tier when the rung has
/// one (the image must verify clean — fib does).
fn load(image: &Image, cfg: MachineConfig) -> Machine {
    let mut m = Machine::load(image, cfg).expect("loads");
    if cfg.native {
        let report = verify_image(image, &VerifyOptions::for_config(&cfg));
        let license = report
            .certificate()
            .expect("fib verifies clean")
            .native_license();
        assert!(m.arm_native(license), "license must arm");
    }
    m
}

/// Everything slicing must preserve: architectural state, plus, on
/// interpreted rungs, the inline-cache and fusion counters. The native
/// rung's *tier occupancy* counters are deliberately excluded: a pause
/// exits a burst, so where preemption lands changes which tier retires
/// an instruction — but never what it computes or charges, which is
/// exactly the charge-not-perform contract. Those counters are the
/// burst entries, the native vs interpreted instruction shares, and the
/// inline-cache statistics, since native calls resolve their targets
/// without the cache and only interpreted calls consult it.
fn fingerprint(m: &Machine, include_tier: bool) -> String {
    let tier = if include_tier {
        format!(
            " xfer={:?} fusion={:?}",
            m.xfer_cache_stats(),
            m.fusion_stats()
        )
    } else {
        String::new()
    };
    format!(
        "instr={} cycles={} jumps={} refs={} out={:?} banks={:?}{}",
        m.stats().instructions,
        m.stats().cycles,
        m.stats().jumps_taken,
        m.total_refs(),
        m.output(),
        m.bank_stats(),
        tier,
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
/// land mid-fused-pair and mid-native-burst, matches the one-shot run
/// on every rung.
#[test]
fn any_two_slice_split_is_bit_identical_on_every_rung() {
    for (name, base, image) in split_targets() {
        two_slice_splits_match(name, base, &image);
    }
}

fn two_slice_splits_match(name: &str, base: MachineConfig, image: &Image) {
    for (rung, cfg) in ladder(base) {
        let rname = format!("{name}/{rung}");
        let mut whole = load(image, cfg);
        whole.run(FUEL).unwrap();
        let total = whole.stats().instructions;
        let tier = !cfg.native;
        let want = fingerprint(&whole, tier);

        // An exact-fuel one-shot run must also halt cleanly: fuel
        // accounting has no off-by-one to hide behind.
        let mut exact = load(image, cfg);
        exact.run(total).unwrap_or_else(|e| panic!("{rname}: {e}"));
        assert_eq!(fingerprint(&exact, tier), want, "{rname}: exact fuel");

        let mut rng = Rng::seed_from_u64(0xF0E1);
        let mut splits = vec![0, 1, 2, 3, total - 1, total / 2];
        splits.extend((0..8).map(|_| rng.next_u64() % total));
        for a in splits {
            let b = total - a;
            let mut m = load(image, cfg);
            if a == 0 {
                // A zero-fuel slice is OutOfFuel by definition…
                assert!(matches!(m.run(0), Err(VmError::OutOfFuel)), "{rname}");
            } else {
                match m.run(a) {
                    // One fuel unit retires *at least* one instruction
                    // (a fused pair two, a native burst op one), so a
                    // split near `total` can finish inside slice `a`
                    // on the accelerated rungs — then the fingerprint
                    // must already match and there is no second leg.
                    Ok(()) => {
                        assert_eq!(fingerprint(&m, tier), want, "{rname}: a={a} completed");
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
            assert_eq!(fingerprint(&m, tier), want, "{rname}: split {a}+{b}");
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
        let mut whole = load(image, cfg);
        whole.run(FUEL).unwrap();
        let tier = !cfg.native;
        let want = fingerprint(&whole, tier);
        for seed in [1u64, 2, 3] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut m = load(image, cfg);
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
            assert_eq!(fingerprint(&m, tier), want, "{rname}: seed {seed}");
        }
    }
}

/// A generation-storm plan applied through a [`PlanCursor`] in fuel
/// slices fires each event exactly once and matches the one-shot
/// [`run_with_plan`] bit-for-bit — preempting mid-plan neither drops
/// nor re-fires events.
#[test]
fn sliced_plan_runs_match_one_shot_plan_runs() {
    let image = fib_image();
    let plan = FaultPlan::from_events(vec![
        FaultEvent::GenStorm { at: 10, writes: 3 },
        FaultEvent::GenStorm { at: 997, writes: 7 },
        FaultEvent::GenStorm {
            at: 5_000,
            writes: 1,
        },
        FaultEvent::GenStorm {
            at: 5_001,
            writes: 9,
        },
    ]);
    for (rname, cfg) in ladder(MachineConfig::i3()) {
        let mut oneshot = load(&image, cfg);
        let report = run_with_plan(&mut oneshot, &plan, FUEL).unwrap();
        assert_eq!(report.applied, 4, "{rname}");
        assert_eq!(report.storm_writes, 20, "{rname}");
        let tier = !cfg.native;
        let want = fingerprint(&oneshot, tier);

        for quantum in [1u64, 97, 4096] {
            let mut m = load(&image, cfg);
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
            assert_eq!(fingerprint(&m, tier), want, "{rname}/q={quantum}");
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
    let plan = FaultPlan::from_events(vec![FaultEvent::GenStorm { at: 5, writes: 2 }]);
    let cfg = MachineConfig::i3();
    let mut m = load(&image, cfg);
    let mut cursor = PlanCursor::new(plan);
    // Pause long after the event fired…
    assert!(matches!(cursor.run(&mut m, 1_000), Err(VmError::OutOfFuel)));
    assert_eq!(cursor.report().applied, 1);
    assert_eq!(cursor.report().storm_writes, 2);
    assert!(cursor.exhausted());
    // …and resume: the event must not fire again.
    cursor.run(&mut m, FUEL).unwrap();
    assert_eq!(cursor.report().applied, 1);
    assert_eq!(cursor.report().storm_writes, 2);
}
