//! The scheduler's headline differential: worker count is invisible
//! to the guests.
//!
//! The same seeded population driven by the deterministic scheduler on
//! 1, 2, 4 and 8 workers must retire every context to a bit-identical
//! final architectural state — instructions, cycles, references,
//! jumps, output — because a context's fuel quanta are a property of
//! the context and a paused machine resumes exactly
//! (`tests/fuel_slicing.rs`). Stealing, shard assignment and
//! interleaving may differ wildly; none of it may show through.

use std::sync::Arc;

use fpc_compiler::{Linkage, Options};
use fpc_rng::Rng;
use fpc_sched::{run, Context, FuelPolicy, Population, SchedConfig};
use fpc_vm::{FaultEvent, FaultPlan};
use fpc_vm::{Image, Machine, MachineConfig, PlanCursor};
use fpc_workloads::{compile_workload, programs};

/// A call-dense mixed population: context `id` runs `fib(6 + id % 7)`
/// with a per-context quantum drawn from a seeded RNG — quanta belong
/// to contexts, not workers, so they are worker-count invariant. Every
/// third context also carries a fault plan that fib survives without a
/// handler — an unbind of a module the image lacks, and zero-length
/// frame-pressure windows (every free frame seized and released before
/// the same instruction) after fib's deepest descent has filled its
/// frame list — proving plans compose with preemption under real
/// scheduling.
fn population(count: u64, seed: u64) -> Population {
    let cfg = MachineConfig::i3().with_memory_words(2048);
    let images: Arc<Vec<Image>> = Arc::new(
        (6..=12)
            .map(|n| {
                compile_workload(
                    &programs::fib(n),
                    Options {
                        linkage: Linkage::Direct,
                        ..Default::default()
                    },
                )
                .expect("fib compiles")
                .image
            })
            .collect(),
    );
    Population::from_factory(count, move |id, buf| {
        let image = &images[(id % images.len() as u64) as usize];
        let m = Machine::load_in(image, cfg, buf).expect("fib loads");
        let mut rng = Rng::seed_from_u64(seed ^ id);
        let quantum = 64 + rng.next_u64() % 512;
        let mut ctx = Context::new(id, m, FuelPolicy::Quantum(quantum));
        if id % 3 == 0 {
            let unbind = 5 + rng.next_u64() % 200;
            let (a, b) = (200 + rng.next_u64() % 200, 400 + rng.next_u64() % 500);
            let plan = FaultPlan::from_events(vec![
                FaultEvent::UnbindModule {
                    at: unbind,
                    module: 99,
                },
                FaultEvent::FramePressure { at: a },
                FaultEvent::ReleasePressure { at: a },
                FaultEvent::FramePressure { at: b },
                FaultEvent::ReleasePressure { at: b },
            ]);
            ctx = ctx.with_plan(PlanCursor::new(plan));
        }
        ctx
    })
}

const COUNT: u64 = 96;
const SEED: u64 = 0xD1FF;

#[test]
fn final_states_are_bit_identical_across_worker_counts() {
    let baseline = run(
        population(COUNT, SEED),
        &SchedConfig::default().with_workers(1).with_seed(SEED),
    );
    assert_eq!(baseline.retired(), COUNT);
    assert_eq!(baseline.faults(), 0);
    assert!(
        baseline.preemptions() > 0,
        "quanta must actually preempt for the differential to bite"
    );
    let want: Vec<_> = baseline
        .finals_sorted()
        .iter()
        .map(|f| f.architectural())
        .collect();
    assert_eq!(want.len(), COUNT as usize);

    for workers in [2usize, 4, 8] {
        let report = run(
            population(COUNT, SEED),
            &SchedConfig::default().with_workers(workers).with_seed(SEED),
        );
        assert_eq!(report.retired(), COUNT, "workers={workers}");
        let got: Vec<_> = report
            .finals_sorted()
            .iter()
            .map(|f| f.architectural())
            .collect();
        assert_eq!(
            got, want,
            "workers={workers}: guest states must not see the schedule"
        );
        if workers > 1 {
            assert!(
                report.steals() + report.pending_steals() > 0,
                "workers={workers}: stealing must actually occur"
            );
        }
    }
}

/// Per-context *slice counts* are also schedule-invariant (fuel is
/// deterministic), even though which worker ran each slice is not.
#[test]
fn slice_counts_are_schedule_invariant() {
    let a = run(
        population(48, 7),
        &SchedConfig::default().with_workers(2).with_seed(1),
    );
    let b = run(
        population(48, 7),
        &SchedConfig::default().with_workers(8).with_seed(99),
    );
    let slices = |r: &fpc_sched::SchedReport| {
        r.finals_sorted()
            .iter()
            .map(|f| (f.id, f.slices))
            .collect::<Vec<_>>()
    };
    assert_eq!(slices(&a), slices(&b));
}
