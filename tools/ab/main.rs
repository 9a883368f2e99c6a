//! Same-binary A/B timing of the `calls_hot` programs.
//!
//! Two copies of the simulator are linked into this one binary: `base`
//! (a committed revision) and `head` (the working tree). Every round
//! runs every item once on each side, alternating which side goes
//! first, so both see the same host state. Only `Machine::run` is
//! timed. After every run the two sides' instructions, cycles, total
//! counted references and output must be equal, or the harness stops.
//!
//! Built and run by `ab.py`, which generates the manifest naming the
//! two copies; see there for usage. Arguments: the number of timed
//! rounds, then optionally a substring that item names must contain.

use std::time::Instant;

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
            use $vm::{Image, Machine, MachineConfig, NativeLicense};
            use $workloads::programs;

            pub struct Item {
                pub name: String,
                image: Image,
                license: NativeLicense,
                config: MachineConfig,
            }

            /// The `calls_hot` programs on I1–I4 (Mesa linkage on
            /// I1/I2, Direct on I3/I4), at the fastest licensed setting.
            pub fn items() -> Vec<Item> {
                let programs = [
                    programs::fib(23),
                    programs::ackermann(3, 6),
                    programs::tak(12, 6, 0),
                    programs::hanoi(15),
                    programs::leafcalls(32_000),
                ];
                let imps = [
                    ("i1", MachineConfig::i1(), Linkage::Mesa),
                    ("i2", MachineConfig::i2(), Linkage::Mesa),
                    ("i3", MachineConfig::i3(), Linkage::Direct),
                    ("i4", MachineConfig::i4(), Linkage::Direct),
                ];
                let mut items = Vec::new();
                for p in &programs {
                    for (imp, base, linkage) in imps {
                        let config = base
                            .with_predecode(true)
                            .with_fusion(true)
                            .with_native_tier(true);
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
                        items.push(Item {
                            name: format!("{}/{imp}", p.name),
                            image,
                            license,
                            config,
                        });
                    }
                }
                items
            }

            /// Loads and arms `item`, then times one whole run.
            pub fn run(item: &Item) -> (u64, super::Counters) {
                let mut m = Machine::load(&item.image, item.config).expect("load");
                assert!(
                    m.arm_native(item.license),
                    "{}: license did not arm",
                    item.name
                );
                let t = super::Instant::now();
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

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: usize = args
        .next()
        .map(|s| s.parse().expect("rounds: a number"))
        .unwrap_or(30);
    // Only the items whose name contains this, e.g. "/i4" or "fib/".
    let only = args.next().unwrap_or_default();
    let base: Vec<_> = base::items()
        .into_iter()
        .filter(|i| i.name.contains(&only))
        .collect();
    let head: Vec<_> = head::items()
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
    println!("base/head run time over {rounds} alternating rounds (>1: head faster)");
    println!(
        "{:<20} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "item", "base ms", "head ms", "median", "q1", "q3"
    );
    let ms = |ns: u64| ns as f64 / rounds as f64 / 1e6;
    for (i, item) in head.iter().enumerate() {
        let (med, q1, q3) = summary(&ratios[i]);
        println!(
            "{:<20} {:>10.3} {:>10.3} {:>8.3} {:>8.3} {:>8.3}",
            item.name,
            ms(base_ns[i]),
            ms(head_ns[i]),
            med,
            q1,
            q3
        );
    }
    let (med, q1, q3) = summary(&totals);
    let better = totals.iter().filter(|&&r| r > 1.0).count();
    println!(
        "{:<20} {:>10.3} {:>10.3} {:>8.3} {:>8.3} {:>8.3}",
        "total",
        ms(base_ns.iter().sum()),
        ms(head_ns.iter().sum()),
        med,
        q1,
        q3
    );
    println!("head faster in {better} of {rounds} rounds; counters equal on every run");
}
