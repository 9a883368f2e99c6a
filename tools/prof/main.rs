//! Sampling profile of the `calls_hot` or `loops_hot` programs, or of
//! the scheduler's `fib` contexts, on the working tree's simulator.
//!
//! Arms an `ITIMER_PROF` interval timer whose `SIGPROF` handler records
//! the interrupted instruction pointer, then runs every item of the set
//! repeatedly for an even share of the time budget. Prints one line per
//! item (`item <name> <ns per simulated instruction>`), the load
//! address of this executable (`base`), the CPU time the samples cover
//! (`cpu`), and every sampled address with its count (`pc`), which
//! `prof.py` attributes with `addr2line`.
//!
//! Built and run by `prof.py`, which generates the manifest and copies
//! the loop programs in as `loops.rs`; see there for usage. Arguments:
//! the run time in seconds, the set (`calls`, `loops` or `contexts`),
//! the rung (`native` or `unarmed`), then optionally a substring that
//! item names must contain.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use compiler::{Linkage, Options};
use vm::{Image, Machine, MachineConfig, NativeLicense};
use workloads::programs;

/// perfbench's loop programs.
mod loops {
    use ::rng::Rng;
    use workloads::{Kind, Workload};
    include!("loops.rs");
}

/// Loads and runs per `contexts` repetition, as `tools/ab` times them.
const CONTEXT_REPS: usize = 200;

/// Sampled instruction pointers; samples past the end are dropped.
static SAMPLES: [AtomicU64; 1 << 18] = [const { AtomicU64::new(0) }; 1 << 18];
static TAKEN: AtomicUsize = AtomicUsize::new(0);

/// The `SIGPROF` timer, through the C library's own entry points.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod timer {
    use super::{Ordering, SAMPLES, TAKEN};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in glibc's x86-64
    /// `ucontext_t`: flags, link and the 24-byte `stack_t`, then 16
    /// registers.
    const RIP_OFFSET: usize = 40 + 16 * 8;

    #[repr(C)]
    struct SigAction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    #[repr(C)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
        fn clock_gettime(clock: i32, tp: *mut TimeSpec) -> i32;
    }

    extern "C" fn on_prof(_sig: i32, _info: *mut u8, ctx: *mut u8) {
        // SAFETY: the kernel passes a valid `ucontext_t` to an
        // `SA_SIGINFO` handler.
        let rip = unsafe { ctx.add(RIP_OFFSET).cast::<u64>().read_unaligned() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = SAMPLES.get(i) {
            slot.store(rip, Ordering::Relaxed);
        }
    }

    /// Samples every `usec` microseconds of CPU time; 0 stops.
    pub fn arm(usec: i64) {
        let act = SigAction {
            sa_sigaction: on_prof as *const () as usize,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        let t = ITimerVal {
            interval: TimeVal { sec: 0, usec },
            value: TimeVal { sec: 0, usec },
        };
        // SAFETY: plain C calls on initialised structs of the C layout.
        unsafe {
            assert_eq!(sigaction(SIGPROF, &act, std::ptr::null_mut()), 0, "sigaction");
            assert_eq!(setitimer(ITIMER_PROF, &t, std::ptr::null_mut()), 0, "setitimer");
        }
    }

    /// CPU seconds this process has used.
    pub fn cpu_seconds() -> f64 {
        let mut t = TimeSpec { sec: 0, nsec: 0 };
        // SAFETY: `t` is a valid out-parameter.
        unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
        t.sec as f64 + t.nsec as f64 * 1e-9
    }
}

/// Elsewhere nothing is sampled; the ns/instr lines still print.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod timer {
    pub fn arm(_usec: i64) {}
    pub fn cpu_seconds() -> f64 {
        0.0
    }
}

struct Item {
    name: String,
    image: Image,
    license: Option<NativeLicense>,
    config: MachineConfig,
    cold: bool,
}

/// The items of `set` at `rung`, as `tools/ab` builds them.
fn items(set: &str, rung: &str) -> Vec<Item> {
    let mut imps = vec![
        ("i1", MachineConfig::i1(), Linkage::Mesa),
        ("i2", MachineConfig::i2(), Linkage::Mesa),
        ("i3", MachineConfig::i3(), Linkage::Direct),
        ("i4", MachineConfig::i4(), Linkage::Direct),
    ];
    let programs = match set {
        "calls" => vec![
            programs::fib(23),
            programs::ackermann(3, 6),
            programs::tak(12, 6, 0),
            programs::hanoi(15),
            programs::leafcalls(32_000),
        ],
        "loops" => loops::loop_programs(&mut ::rng::Rng::seed_from_u64(1)),
        "contexts" => {
            imps.drain(..2);
            for imp in &mut imps {
                imp.1 = imp.1.with_memory_words(2048);
            }
            (6..=13).map(programs::fib).collect()
        }
        _ => panic!("set: calls, loops or contexts, not {set}"),
    };
    let armed = match rung {
        "native" => true,
        "unarmed" => false,
        _ => panic!("rung: native or unarmed, not {rung}"),
    };
    let mut items = Vec::new();
    for (i, p) in programs.iter().enumerate() {
        let name = match set {
            "contexts" => format!("fib{}", 6 + i),
            _ => p.name.to_string(),
        };
        for &(imp, base, linkage) in &imps {
            let config = base.with_predecode(true).with_native_tier(true);
            let options = Options {
                linkage,
                bank_args: config.renaming(),
            };
            let image = workloads::compile_workload(p, options)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name))
                .image;
            let report = verify::verify_image(&image, &verify::VerifyOptions::for_config(&config));
            let license = report
                .certificate()
                .unwrap_or_else(|| panic!("{} does not verify clean", p.name))
                .native_license();
            items.push(Item {
                name: format!("{name}/{imp}"),
                image,
                license: armed.then_some(license),
                config,
                cold: set == "contexts",
            });
        }
    }
    items
}

/// One load and run of `item`: its instructions.
fn run_once(item: &Item) -> u64 {
    let mut m = Machine::load(&item.image, item.config).expect("load");
    if let Some(license) = item.license {
        assert!(m.arm_native(license), "{}: license did not arm", item.name);
    }
    m.run(100_000_000).expect("run");
    m.stats().instructions
}

/// The start of this executable's first mapping, which addresses are
/// relative to.
fn load_base() -> u64 {
    let exe = std::env::current_exe().expect("current exe");
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    maps.lines()
        .find(|l| l.ends_with(exe.to_str().unwrap_or("?")))
        .and_then(|l| l.split('-').next())
        .and_then(|a| u64::from_str_radix(a, 16).ok())
        .unwrap_or(0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seconds: f64 = args
        .next()
        .map(|s| s.parse().expect("seconds: a number"))
        .unwrap_or(30.0);
    let set = args.next().unwrap_or_else(|| "calls".into());
    let rung = args.next().unwrap_or_else(|| "native".into());
    let only = args.next().unwrap_or_default();
    let items: Vec<_> = items(&set, &rung)
        .into_iter()
        .filter(|i| i.name.contains(&only))
        .collect();
    assert!(!items.is_empty(), "no item matches {only:?}");
    let share = Duration::from_secs_f64(seconds / items.len() as f64);
    let cpu0 = timer::cpu_seconds();
    timer::arm(1000);
    for item in &items {
        let reps = if item.cold { CONTEXT_REPS } else { 1 };
        let (mut ns, mut instrs) = (0u128, 0u64);
        let start = Instant::now();
        // At least one timed repetition, however short the share.
        loop {
            let t = Instant::now();
            for _ in 0..reps {
                instrs += run_once(item);
            }
            ns += t.elapsed().as_nanos();
            if start.elapsed() >= share {
                break;
            }
        }
        println!(
            "item {:<16} {:8.3} ns/instr",
            item.name,
            ns as f64 / instrs.max(1) as f64
        );
    }
    timer::arm(0);
    let cpu = timer::cpu_seconds() - cpu0;
    let taken = TAKEN.load(Ordering::Relaxed).min(SAMPLES.len());
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for s in &SAMPLES[..taken] {
        *counts.entry(s.load(Ordering::Relaxed)).or_default() += 1;
    }
    println!("base {:#x}", load_base());
    println!("cpu {cpu:.3}");
    for (pc, n) in counts {
        println!("pc {pc:#x} {n}");
    }
}
