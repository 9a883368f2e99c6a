//! Differential tests for the host-side acceleration layers.
//!
//! The predecode cache and the native tier, checked or armed, are
//! host-side optimisations only: a run using any combination
//! of them must be **bit-identical** in every simulated respect —
//! outputs, instruction/cycle/jump counters, memory-reference counters,
//! per-transfer-kind statistics, return stack, bank, frame-cache and
//! heap statistics — to a run re-parsing the code bytes on every step
//! with every accelerator off. These tests enforce that over the whole
//! corpus on all four machine configurations, and across mid-run code
//! mutation (module relocation and procedure replacement), where a
//! stale cache would be most tempting and most wrong.

use fpc_compiler::Options;
use fpc_isa::Instr;
use fpc_vm::{
    BankConfig, Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec, PtrLocalPolicy,
    StepOutcome,
};
use fpc_workloads::{compile_workload, corpus, run_workload, Workload};

/// Every simulated-side observable, flattened through Debug. Any
/// divergence — one cycle, one table read, one histogram bucket —
/// shows up as a string diff.
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

/// The four presets, and five machines whose transfers take the
/// generic call discipline: the general heap with a return stack, AV
/// frames with renaming banks, banks that do not rename, the
/// flush-on-exit pointer policy, and I4 without its return stack.
fn all_configs() -> [(&'static str, MachineConfig); 9] {
    [
        ("i1", MachineConfig::i1()),
        ("i2", MachineConfig::i2()),
        ("i3", MachineConfig::i3()),
        ("i4", MachineConfig::i4()),
        ("i1+rs", MachineConfig::i1().with_return_stack(8)),
        (
            "i2+banks",
            MachineConfig::i2().with_banks(Some(BankConfig::paper_default())),
        ),
        (
            "i3+plain-banks",
            MachineConfig::i3().with_banks(Some(BankConfig {
                renaming: false,
                ..BankConfig::paper_default()
            })),
        ),
        (
            "i4+flush",
            MachineConfig::i4().with_banks(Some(BankConfig {
                ptr_policy: PtrLocalPolicy::FlushOnExit,
                ..BankConfig::paper_default()
            })),
        ),
        ("i4-rs", MachineConfig::i4().with_return_stack(0)),
    ]
}

/// The dispatch ladder, byte first. The native rung compiles every
/// body before the first instruction, so even short corpus runs spend
/// time in compiled bodies.
fn ladder(c: MachineConfig) -> [(&'static str, MachineConfig); 3] {
    c.dispatch_ladder()
}

/// Runs `w` on the native tier without a license: checked bursts.
fn run_checked(w: &Workload, config: MachineConfig) -> Machine {
    let options = Options {
        bank_args: config.renaming(),
        ..Default::default()
    };
    let image = compile_workload(w, options).expect("compiles").image;
    let mut m = Machine::load(&image, config).expect("loads");
    m.run(w.fuel).expect("runs");
    m
}

#[test]
fn corpus_counters_identical_across_decode_paths() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 17, "parity must cover the whole corpus");
    let mut native_instrs = [0u64; 2];
    for w in &corpus {
        for (name, config) in all_configs() {
            let mut runs: Vec<(&str, Machine)> = ladder(config)
                .into_iter()
                .map(|(rung, cfg)| {
                    let m = run_workload(w, cfg, Default::default())
                        .unwrap_or_else(|e| panic!("{} on {name} ({rung}): {e}", w.name));
                    (rung, m)
                })
                .collect();
            runs.push(("checked", run_checked(w, ladder(config)[2].1)));
            let reference = fingerprint(&runs[0].1);
            assert_eq!(
                runs[0].1.output(),
                w.expected.as_slice(),
                "{} on {name}",
                w.name
            );
            for (rung, m) in &runs[1..] {
                assert_eq!(
                    fingerprint(m),
                    reference,
                    "{} on {name}: {rung} diverged from the byte-decoded run",
                    w.name
                );
            }
            let ps = runs[1].1.predecode_stats().expect("cache is on");
            assert!(
                ps.hits > ps.lazy_decodes,
                "{} on {name}: eager translation should serve the steady state \
                 ({ps:?})",
                w.name
            );
            assert!(runs[0].1.predecode_stats().is_none(), "cache is off");
            assert!(runs[0].1.native_stats().is_none(), "native tier is off");
            assert!(runs[1].1.native_stats().is_none(), "native tier is off");
            for (i, (_, m)) in runs[2..].iter().enumerate() {
                let nstats = m.native_stats().expect("native tier is on");
                assert_eq!(
                    nstats.armed,
                    i == 0,
                    "{} on {name}: the corpus verifies clean, so the license arms",
                    w.name
                );
                native_instrs[i] += nstats.native_instrs;
            }
        }
    }
    assert!(
        native_instrs.iter().all(|&n| n > 0),
        "the corpus must actually retire native-compiled instructions, \
         armed and checked: {native_instrs:?}"
    );
}

/// tri(n) recursion whose main calls it five times — long enough to
/// mutate code mid-run, deep enough that suspended frames span the
/// mutation.
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
        for _ in 0..5 {
            a.instr(Instr::LoadImm(40));
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

/// Steps to completion, relocating module 0 every ~500 *instructions*.
/// Pacing by the instruction counter keeps the mutation points aligned
/// in simulated time across every rung of the acceleration ladder.
fn run_with_relocations(image: &Image, config: MachineConfig) -> Machine {
    let mut machine = Machine::load(image, config).unwrap();
    let mut last_move = 0u64;
    let mut moves = 0;
    loop {
        match machine.step().unwrap() {
            StepOutcome::Halted => break,
            StepOutcome::Ran => {
                let done = machine.stats().instructions;
                if done - last_move >= 500 && moves < 5 {
                    machine.relocate_module(0).unwrap();
                    moves += 1;
                    last_move = done;
                }
            }
        }
        assert!(machine.stats().instructions < 1_000_000, "runaway");
    }
    assert!(moves >= 3, "run long enough to move code: {moves}");
    machine
}

#[test]
fn relocation_mid_run_preserves_counters() {
    let image = tri_image();
    for config in [MachineConfig::i2(), MachineConfig::i3()] {
        let runs: Vec<(&str, Machine)> = ladder(config)
            .into_iter()
            .map(|(rung, cfg)| (rung, run_with_relocations(&image, cfg)))
            .collect();
        let reference = fingerprint(&runs[0].1);
        assert_eq!(runs[0].1.output(), &[820, 820, 820, 820, 820]);
        for (rung, m) in &runs[1..] {
            assert_eq!(
                fingerprint(m),
                reference,
                "relocation under {config:?} diverged on {rung}"
            );
        }
        let ps = runs[1].1.predecode_stats().unwrap();
        assert!(
            ps.rebuilds >= 3,
            "each relocation re-keys the cache: {ps:?}"
        );
    }
}

/// f(x) = x + 1 at entry 0; main prints `f(x)` `calls` times, then
/// halts.
fn replace_image(x: u16, calls: usize) -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("f", 1, 1), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::Add);
        a.instr(Instr::Ret);
    });
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..calls {
            a.instr(Instr::LoadImm(x));
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

/// Once the program has printed `after` values, entry 0 is swapped for
/// a body computing `x * mul + add`.
struct Swap {
    after: usize,
    mul: u16,
    add: u16,
}

fn run_with_replacements(image: &Image, config: MachineConfig, swaps: &[Swap]) -> Machine {
    let mut machine = Machine::load(image, config).unwrap();
    for &Swap { after, mul, add } in swaps {
        while machine.output().len() < after {
            assert_eq!(machine.step().unwrap(), StepOutcome::Ran);
        }
        machine
            .replace_proc(0, 0, 1, 2, |a| {
                a.instr(Instr::StoreLocal(0));
                a.instr(Instr::LoadLocal(0));
                a.instr(Instr::LoadImm(mul));
                a.instr(Instr::Mul);
                a.instr(Instr::LoadImm(add));
                a.instr(Instr::Add);
                a.instr(Instr::StoreLocal(1));
                a.instr(Instr::LoadLocal(1));
                a.instr(Instr::Ret);
            })
            .unwrap();
    }
    machine.run(10_000).unwrap();
    machine
}

#[test]
fn replacement_mid_run_preserves_counters() {
    let swap = |after, mul, add| Swap { after, mul, add };
    // (image, swaps, expected output): one swap after two calls; one
    // after three; three in succession; and one before the first call.
    let cases = [
        (
            replace_image(10, 4),
            vec![swap(2, 3, 0)],
            vec![11, 11, 30, 30],
        ),
        (
            replace_image(5, 6),
            vec![swap(3, 1, 10)],
            vec![6, 6, 6, 15, 15, 15],
        ),
        (
            replace_image(5, 8),
            vec![swap(2, 1, 11), swap(4, 1, 21), swap(6, 1, 31)],
            vec![6, 6, 16, 16, 26, 26, 36, 36],
        ),
        (replace_image(5, 2), vec![swap(0, 2, 0)], vec![10, 10]),
    ];
    for (image, swaps, expected) in &cases {
        for config in [MachineConfig::i2(), MachineConfig::i3()] {
            let runs: Vec<(&str, Machine)> = ladder(config)
                .into_iter()
                .map(|(rung, cfg)| (rung, run_with_replacements(image, cfg, swaps)))
                .collect();
            let reference = fingerprint(&runs[0].1);
            assert_eq!(runs[0].1.output(), expected.as_slice());
            for (rung, m) in &runs[1..] {
                assert_eq!(
                    fingerprint(m),
                    reference,
                    "replacement under {config:?} diverged on {rung}"
                );
            }
            // The replacement body must have been executed from the
            // cache, not just decoded lazily as a straggler.
            let ps = runs[1].1.predecode_stats().unwrap();
            assert!(ps.rebuilds >= 1, "{ps:?}");
        }
    }
}
