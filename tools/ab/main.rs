//! Same-binary A/B timing of the `calls_hot` or `loops_hot` programs,
//! or of the scheduler's `fib` contexts.
//!
//! Two copies of the simulator are linked into this one binary: `base`
//! (a committed revision) and `head` (the working tree). Every round
//! runs every item once on each side, alternating which side goes
//! first, so both see the same host state. For `calls` and `loops` only
//! `Machine::run` is timed; a `contexts` item times `CONTEXT_REPS`
//! loads and runs, so the per-machine compile is inside the timing.
//! After every run the two sides' instructions, cycles, total counted
//! references and output must be equal, or the harness stops.
//!
//! Each ratio is reported as the median over rounds of the paired
//! base/head ratio, with its quartiles and a 95% percentile-bootstrap
//! interval for the median, resampled over rounds.
//!
//! Built and run by `ab.py`, which generates the manifest naming the
//! two copies and copies the loop programs in as `loops.rs`; see there
//! for usage. Arguments: the number of timed rounds, the set (`calls`,
//! `loops` or `contexts`), the rung (`native` or `unarmed`), then
//! optionally a substring that item names must contain.

use std::time::Instant;

/// Loads and runs per timed `contexts` item.
const CONTEXT_REPS: usize = 200;

/// The counters both sides must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Counters {
    instructions: u64,
    cycles: u64,
    refs: u64,
    output: Vec<u16>,
}

/// One copy of the simulator: compile, verify, load, arm and run
/// through its public API only.
macro_rules! side {
    ($side:ident, $vm:ident, $compiler:ident, $verify:ident, $workloads:ident) => {
        mod $side {
            use $compiler::{Linkage, Options};
            use $vm::{BankConfig, Image, Machine, MachineConfig, NativeLicense};
            use $workloads::programs;

            /// perfbench's loop programs.
            mod loops {
                use ::rng::Rng;
                use $workloads::{Kind, Workload};
                include!("loops.rs");
            }

            pub struct Item {
                pub name: String,
                image: Image,
                /// The license to arm, on the native rung.
                license: Option<NativeLicense>,
                config: MachineConfig,
                /// Whether loads are timed too (`contexts`).
                cold: bool,
            }

            /// The programs of `set` at `rung`: `native` is the fastest
            /// licensed setting, `unarmed` the native tier without a
            /// license — the path the scheduler and cluster guests take
            /// (on a base from before the checked tier, the fused
            /// rung). `calls` and `loops` run on I1–I4 (Mesa linkage
            /// on I1/I2, Direct on I3/I4) and on I2 with the paper's
            /// renaming banks (`i2b`, Mesa linkage), whose transfers
            /// take the generic call discipline; `contexts` as
            /// `cluster_storm` admits its `fib` guests: `fib(6..=13)` on
            /// I3 and I4, Direct linkage, a 2 048-word memory.
            pub fn items(set: &str, rung: &str) -> Vec<Item> {
                let mut imps = vec![
                    ("i1", MachineConfig::i1(), Linkage::Mesa),
                    ("i2", MachineConfig::i2(), Linkage::Mesa),
                    ("i3", MachineConfig::i3(), Linkage::Direct),
                    ("i4", MachineConfig::i4(), Linkage::Direct),
                    (
                        "i2b",
                        MachineConfig::i2().with_banks(Some(BankConfig::paper_default())),
                        Linkage::Mesa,
                    ),
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
                        imps.truncate(4);
                        imps.drain(..2);
                        for imp in &mut imps {
                            imp.1 = imp.1.with_memory_words(2048);
                        }
                        (6..=13).map(programs::fib).collect()
                    }
                    _ => panic!("set: calls, loops or contexts, not {set}"),
                };
                // Every `contexts` program is named `fib`: name each
                // after its argument.
                let named = programs.iter().enumerate().map(|(i, p)| match set {
                    "contexts" => (format!("fib{}", 6 + i), p),
                    _ => (p.name.to_string(), p),
                });
                let native = match rung {
                    "native" => true,
                    "unarmed" => false,
                    _ => panic!("rung: native or unarmed, not {rung}"),
                };
                let mut items = Vec::new();
                for (name, p) in named {
                    for &(imp, base, linkage) in &imps {
                        let config = base.with_predecode(true).with_native_tier(true);
                        let options = Options {
                            linkage,
                            bank_args: config.renaming(),
                        };
                        let image = $workloads::compile_workload(p, options)
                            .unwrap_or_else(|e| panic!("{}: {e}", p.name))
                            .image;
                        let opts = $verify::VerifyOptions::for_config(&config);
                        let report = $verify::verify_image(&image, &opts);
                        let license = report
                            .certificate()
                            .unwrap_or_else(|| panic!("{} does not verify clean", p.name))
                            .native_license();
                        let license = native.then_some(license);
                        items.push(Item {
                            name: format!("{name}/{imp}"),
                            image,
                            license,
                            config,
                            cold: set == "contexts",
                        });
                    }
                }
                items
            }

            /// Loads `item`, arming it on the native rung.
            fn load(item: &Item) -> Machine {
                let mut m = Machine::load(&item.image, item.config).expect("load");
                if let Some(license) = item.license {
                    assert!(m.arm_native(license), "{}: license did not arm", item.name);
                }
                m
            }

            /// Times one whole run of `item`, or `CONTEXT_REPS` loads
            /// and runs of a cold item.
            pub fn run(item: &Item) -> (u64, super::Counters) {
                let (mut m, t) = if item.cold {
                    let t = super::Instant::now();
                    for _ in 1..super::CONTEXT_REPS {
                        load(item).run(100_000_000).expect("run");
                    }
                    (load(item), t)
                } else {
                    let m = load(item);
                    (m, super::Instant::now())
                };
                m.run(100_000_000).expect("run");
                let ns = t.elapsed().as_nanos() as u64;
                let c = super::Counters {
                    instructions: m.stats().instructions,
                    cycles: m.stats().cycles,
                    refs: m.total_refs(),
                    output: m.output().to_vec(),
                };
                (ns, c)
            }
        }
    };
}

side!(base, base_vm, base_compiler, base_verify, base_workloads);
side!(head, head_vm, head_compiler, head_verify, head_workloads);

/// The `q`-quantile of sorted `v`, interpolated.
fn quantile(v: &[f64], q: f64) -> f64 {
    let x = q * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

/// Median and quartiles of `v`.
fn summary(v: &[f64]) -> (f64, f64, f64) {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    (quantile(&v, 0.5), quantile(&v, 0.25), quantile(&v, 0.75))
}

/// Bootstrap resamples behind each interval.
const RESAMPLES: usize = 2000;

/// A 95% percentile-bootstrap interval for the median of `v`: the
/// rounds are resampled with replacement, from a fixed seed.
fn bootstrap(v: &[f64]) -> (f64, f64) {
    let mut rng = ::rng::Rng::seed_from_u64(0x0ab);
    let mut medians = Vec::with_capacity(RESAMPLES);
    let mut sample = vec![0.0; v.len()];
    for _ in 0..RESAMPLES {
        for s in &mut sample {
            *s = v[rng.gen_index(v.len())];
        }
        medians.push(summary(&sample).0);
    }
    medians.sort_by(f64::total_cmp);
    (quantile(&medians, 0.025), quantile(&medians, 0.975))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: usize = args
        .next()
        .map(|s| s.parse().expect("rounds: a number"))
        .unwrap_or(30);
    let set = args.next().unwrap_or_else(|| "calls".into());
    let rung = args.next().unwrap_or_else(|| "native".into());
    // Only the items whose name contains this, e.g. "/i4" or "fib/".
    let only = args.next().unwrap_or_default();
    let base: Vec<_> = base::items(&set, &rung)
        .into_iter()
        .filter(|i| i.name.contains(&only))
        .collect();
    let head: Vec<_> = head::items(&set, &rung)
        .into_iter()
        .filter(|i| i.name.contains(&only))
        .collect();
    assert_eq!(base.len(), head.len());
    // Per item: the paired base/head time of each round.
    let mut ratios = vec![Vec::with_capacity(rounds); base.len()];
    let mut totals = Vec::with_capacity(rounds);
    let mut base_ns = vec![0u64; base.len()];
    let mut head_ns = vec![0u64; base.len()];
    // Round 0 warms both sides up and is not counted.
    for round in 0..=rounds {
        let (mut round_base, mut round_head) = (0u64, 0u64);
        for (i, (b, h)) in base.iter().zip(&head).enumerate() {
            let ((bt, bc), (ht, hc)) = if (round + i) % 2 == 0 {
                let b = base::run(b);
                (b, head::run(h))
            } else {
                let h = head::run(h);
                (base::run(b), h)
            };
            assert_eq!(bc, hc, "{}: simulated counters differ", b.name);
            if round > 0 {
                ratios[i].push(bt as f64 / ht as f64);
                base_ns[i] += bt;
                head_ns[i] += ht;
                round_base += bt;
                round_head += ht;
            }
        }
        if round > 0 {
            totals.push(round_base as f64 / round_head as f64);
        }
    }
    println!(
        "{set} on the {rung} rung: base/head run time over {rounds} alternating rounds \
         (>1: head faster)"
    );
    println!(
        "{:<20} {:>10} {:>10} {:>8} {:>8} {:>8} {:>17}",
        "item", "base ms", "head ms", "median", "q1", "q3", "95% bootstrap"
    );
    let ms = |ns: u64| ns as f64 / rounds as f64 / 1e6;
    let row = |name: &str, base: u64, head: u64, ratios: &[f64]| {
        let (med, q1, q3) = summary(ratios);
        let (lo, hi) = bootstrap(ratios);
        println!(
            "{:<20} {:>10.3} {:>10.3} {:>8.3} {:>8.3} {:>8.3}   [{lo:.3}, {hi:.3}]",
            name,
            ms(base),
            ms(head),
            med,
            q1,
            q3
        );
    };
    for (i, item) in head.iter().enumerate() {
        row(&item.name, base_ns[i], head_ns[i], &ratios[i]);
    }
    let better = totals.iter().filter(|&&r| r > 1.0).count();
    row(
        "total",
        base_ns.iter().sum(),
        head_ns.iter().sum(),
        &totals,
    );
    println!("head faster in {better} of {rounds} rounds; counters equal on every run");
}
