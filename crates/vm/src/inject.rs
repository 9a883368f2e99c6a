//! Deterministic fault injection.
//!
//! The fault subsystem's claim is differential: a run that weathers
//! injected adversity — heap pressure, code unbinds — must end in the
//! same architectural state as the
//! undisturbed run, with every extra reference and cycle attributed to
//! the handlers in [`FaultStats`]. This module provides the adversity:
//! a [`FaultPlan`] is a seeded, sorted schedule of [`FaultEvent`]s
//! keyed on the machine's committed instruction count, and
//! [`run_with_plan`] interleaves it with stepping. Same seed, same
//! plan, same interleaving — failures replay exactly.
//!
//! [`FaultStats`]: crate::FaultStats

use fpc_rng::Rng;

use crate::error::VmError;
use crate::machine::{Machine, StepOutcome};

/// One scheduled adversity, applied just before the machine executes
/// the instruction whose index is `at` (instruction counts are the
/// committed totals in [`Machine::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Seize every free frame the allocator holds, so the next frame
    /// allocation raises a frame fault (empty AV lists / exhausted
    /// carve region / full general heap).
    FramePressure {
        /// Instruction count to trigger at.
        at: u64,
    },
    /// Return every frame seized by earlier pressure events.
    ReleasePressure {
        /// Instruction count to trigger at.
        at: u64,
    },
    /// Unbind a module's code segment, as if the pager swapped it out:
    /// the next transfer into it raises an unbound-procedure fault.
    UnbindModule {
        /// Instruction count to trigger at.
        at: u64,
        /// Module index to unbind.
        module: usize,
    },
}

impl FaultEvent {
    /// The instruction count this event triggers at.
    pub fn at(&self) -> u64 {
        match *self {
            FaultEvent::FramePressure { at }
            | FaultEvent::ReleasePressure { at }
            | FaultEvent::UnbindModule { at, .. } => at,
        }
    }
}

/// A schedule of [`FaultEvent`]s sorted by trigger point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from explicit events (sorted here; a stable sort,
    /// so same-instant events keep their given order).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at());
        FaultPlan { events }
    }

    /// Generates a pseudo-random plan over the first `horizon`
    /// instructions of a run against an image with `modules` modules:
    /// a few seize/release pressure windows and up to two unbinds.
    /// Deterministic in `seed`.
    pub fn generate(seed: u64, horizon: u64, modules: usize) -> Self {
        let h = horizon.max(1);
        let mut rng = Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        for _ in 0..1 + rng.gen_index(3) {
            let at = rng.next_u64() % h;
            let hold = 1 + rng.next_u64() % (h / 4).max(1);
            events.push(FaultEvent::FramePressure { at });
            events.push(FaultEvent::ReleasePressure {
                at: at.saturating_add(hold),
            });
        }
        if modules > 0 {
            for _ in 0..rng.gen_index(3) {
                events.push(FaultEvent::UnbindModule {
                    at: rng.next_u64() % h,
                    module: rng.gen_index(modules),
                });
            }
        }
        Self::from_events(events)
    }

    /// The scheduled events, in trigger order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// One scheduled **network** adversity, applied to the packet whose
/// send index is `at` (packets are counted in transport-send order,
/// requests and replies alike, starting at 0) — except for the node
/// and partition events, which change topology state when the `at`-th
/// packet is sent and stay in force until revoked.
///
/// Like [`FaultEvent`], this is pure data: the VM knows nothing about
/// networks. The `fpc-rpc` transport layer interprets the plan, and
/// the differential claim mirrors the local one — a client that
/// weathers the storm (retries, failover) must end bit-identical to
/// the undisturbed run, with the recovery cost priced separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// Silently drop the packet (the client sees only its deadline).
    Drop {
        /// Packet send index to drop.
        at: u64,
    },
    /// Hold the packet for `cycles` extra simulated cycles.
    Delay {
        /// Packet send index to delay.
        at: u64,
        /// Extra in-flight cycles.
        cycles: u64,
    },
    /// Deliver the packet twice (the receiver must deduplicate).
    Duplicate {
        /// Packet send index to duplicate.
        at: u64,
    },
    /// Swap delivery order of this packet and the next one sent.
    Reorder {
        /// Packet send index to reorder past its successor.
        at: u64,
    },
    /// Crash a node: it drops in-flight work and NAKs new requests as
    /// dead until restarted.
    CrashNode {
        /// Packet send index at which the crash takes effect.
        at: u64,
        /// Node to crash.
        node: u16,
    },
    /// Restart a crashed node with fresh (empty) service state.
    RestartNode {
        /// Packet send index at which the restart takes effect.
        at: u64,
        /// Node to restart.
        node: u16,
    },
    /// Partition the network between nodes `a` and `b`: packets
    /// between them are silently dropped in both directions.
    Partition {
        /// Packet send index at which the partition forms.
        at: u64,
        /// One side.
        a: u16,
        /// The other side.
        b: u16,
    },
    /// Heal every active partition.
    Heal {
        /// Packet send index at which the network heals.
        at: u64,
    },
}

impl NetEvent {
    /// The packet send index this event triggers at.
    pub fn at(&self) -> u64 {
        match *self {
            NetEvent::Drop { at }
            | NetEvent::Delay { at, .. }
            | NetEvent::Duplicate { at }
            | NetEvent::Reorder { at }
            | NetEvent::CrashNode { at, .. }
            | NetEvent::RestartNode { at, .. }
            | NetEvent::Partition { at, .. }
            | NetEvent::Heal { at } => at,
        }
    }
}

/// A schedule of [`NetEvent`]s sorted by trigger point — the network
/// analogue of [`FaultPlan`]. Same seed, same storm, same recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPlan {
    events: Vec<NetEvent>,
}

impl NetPlan {
    /// Builds a plan from explicit events (stable-sorted, so
    /// same-instant events keep their given order).
    pub fn from_events(mut events: Vec<NetEvent>) -> Self {
        events.sort_by_key(|e| e.at());
        NetPlan { events }
    }

    /// Generates a pseudo-random storm over the first `horizon`
    /// packets of a run against a cluster of `nodes` server nodes
    /// (node ids `1..=nodes`; node 0 is the client and is never
    /// crashed): drops, delays, duplicates, reorders, up to two
    /// crash/restart windows, and up to two partition/heal windows.
    /// Deterministic in `seed`.
    pub fn generate(seed: u64, horizon: u64, nodes: u16) -> Self {
        let h = horizon.max(1);
        let mut rng = Rng::seed_from_u64(seed);
        let mut events = Vec::new();
        for _ in 0..1 + rng.gen_index(4) {
            events.push(NetEvent::Drop {
                at: rng.next_u64() % h,
            });
        }
        for _ in 0..rng.gen_index(4) {
            events.push(NetEvent::Delay {
                at: rng.next_u64() % h,
                cycles: rng.gen_range_u32(100, 5_000) as u64,
            });
        }
        for _ in 0..rng.gen_index(3) {
            events.push(NetEvent::Duplicate {
                at: rng.next_u64() % h,
            });
        }
        for _ in 0..rng.gen_index(3) {
            events.push(NetEvent::Reorder {
                at: rng.next_u64() % h,
            });
        }
        if nodes > 0 {
            for _ in 0..rng.gen_index(3) {
                let node = 1 + rng.gen_index(nodes as usize) as u16;
                let at = rng.next_u64() % h;
                let hold = 1 + rng.next_u64() % (h / 4).max(1);
                events.push(NetEvent::CrashNode { at, node });
                events.push(NetEvent::RestartNode {
                    at: at.saturating_add(hold),
                    node,
                });
            }
        }
        if nodes > 0 {
            for _ in 0..rng.gen_index(3) {
                let b = 1 + rng.gen_index(nodes as usize) as u16;
                let at = rng.next_u64() % h;
                let hold = 1 + rng.next_u64() % (h / 4).max(1);
                events.push(NetEvent::Partition { at, a: 0, b });
                events.push(NetEvent::Heal {
                    at: at.saturating_add(hold),
                });
            }
        }
        Self::from_events(events)
    }

    /// The scheduled events, in trigger order.
    pub fn events(&self) -> &[NetEvent] {
        &self.events
    }
}

/// What a [`run_with_plan`] actually did to the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionReport {
    /// Events whose trigger point was reached.
    pub applied: usize,
    /// Frames seized across all pressure events.
    pub frames_seized: usize,
    /// Modules unbound (releases and guest `BINDMOD`s not deducted).
    pub unbinds: usize,
}

/// Steps `m` for at most `fuel` instructions, applying `plan`'s events
/// as their trigger points are reached. Events scheduled at or before
/// the current committed instruction count fire before the next step,
/// in plan order.
///
/// One-shot wrapper over [`PlanCursor`]: the cursor starts at the
/// plan's first event, so calling this twice on the same machine would
/// re-fire events already applied. A run that is fuel-sliced
/// externally (a scheduler preempting at quantum boundaries) must keep
/// one [`PlanCursor`] across the slices instead.
///
/// # Errors
///
/// Whatever the machine raises, plus [`VmError::OutOfFuel`] if the
/// budget runs out first — the machine is left intact and resumable
/// either way, and events already applied stay applied.
pub fn run_with_plan(
    m: &mut Machine,
    plan: &FaultPlan,
    fuel: u64,
) -> Result<InjectionReport, VmError> {
    let mut cursor = PlanCursor::new(plan.clone());
    let r = cursor.run(m, fuel);
    let report = cursor.report();
    r.map(|_| report)
}

/// A [`FaultPlan`] with its application progress: which events have
/// already fired and what they did. This is the resumable form of
/// [`run_with_plan`] — a scheduler that preempts a run mid-plan calls
/// [`PlanCursor::run`] again on resume and the plan picks up exactly
/// where it left off, instead of re-firing every event whose trigger
/// point is already past. Slicing a plan run at any fuel boundaries
/// is therefore observationally identical to one unsliced run.
#[derive(Debug, Clone)]
pub struct PlanCursor {
    plan: FaultPlan,
    next: usize,
    report: InjectionReport,
}

impl PlanCursor {
    /// Starts a cursor at the beginning of `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        PlanCursor {
            plan,
            next: 0,
            report: InjectionReport::default(),
        }
    }

    /// Steps `m` for at most `fuel` instructions, firing the plan's
    /// remaining events as their trigger points are reached.
    ///
    /// # Errors
    ///
    /// Whatever the machine raises, plus [`VmError::OutOfFuel`] when
    /// the slice's budget runs out — resume with another `run` call.
    pub fn run(&mut self, m: &mut Machine, fuel: u64) -> Result<(), VmError> {
        for _ in 0..fuel {
            self.fire_due(m);
            if let StepOutcome::Halted = m.step()? {
                return Ok(());
            }
        }
        if m.halted() {
            Ok(())
        } else {
            Err(VmError::OutOfFuel)
        }
    }

    /// Fires every not-yet-applied event scheduled at or before the
    /// machine's committed instruction count, in plan order.
    fn fire_due(&mut self, m: &mut Machine) {
        while let Some(&ev) = self.plan.events.get(self.next) {
            if ev.at() > m.stats().instructions {
                break;
            }
            apply(m, ev, &mut self.report);
            self.next += 1;
        }
    }

    /// Whether every event in the plan has fired.
    pub fn exhausted(&self) -> bool {
        self.next >= self.plan.events.len()
    }

    /// What the fired events did so far.
    pub fn report(&self) -> InjectionReport {
        self.report
    }
}

fn apply(m: &mut Machine, ev: FaultEvent, report: &mut InjectionReport) {
    report.applied += 1;
    match ev {
        FaultEvent::FramePressure { .. } => {
            report.frames_seized += m.seize_free_frames();
        }
        FaultEvent::ReleasePressure { .. } => m.release_seized_frames(),
        FaultEvent::UnbindModule { module, .. } => {
            // Unbinding an already-unbound or out-of-range module is a
            // no-op for the report.
            if m.module_bound(module) && m.unbind_module(module).is_ok() {
                report.unbinds += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let a = FaultPlan::generate(7, 10_000, 2);
        let b = FaultPlan::generate(7, 10_000, 2);
        assert_eq!(a, b);
        assert!(a.events().windows(2).all(|w| w[0].at() <= w[1].at()));
        let c = FaultPlan::generate(8, 10_000, 2);
        assert_ne!(a, c, "different seeds give different plans");
    }

    #[test]
    fn net_plans_are_deterministic_and_sorted() {
        let a = NetPlan::generate(7, 200, 3);
        let b = NetPlan::generate(7, 200, 3);
        assert_eq!(a, b);
        assert!(a.events().windows(2).all(|w| w[0].at() <= w[1].at()));
        let c = NetPlan::generate(8, 200, 3);
        assert_ne!(a, c, "different seeds give different storms");
    }

    #[test]
    fn net_from_events_sorts_stably() {
        let p = NetPlan::from_events(vec![
            NetEvent::Heal { at: 9 },
            NetEvent::CrashNode { at: 3, node: 1 },
            NetEvent::RestartNode { at: 3, node: 1 },
        ]);
        assert_eq!(p.events()[0], NetEvent::CrashNode { at: 3, node: 1 });
        assert_eq!(p.events()[1], NetEvent::RestartNode { at: 3, node: 1 });
        assert_eq!(p.events()[2].at(), 9);
    }

    #[test]
    fn net_plans_never_crash_the_client() {
        for seed in 0..32 {
            let p = NetPlan::generate(seed, 500, 4);
            for e in p.events() {
                if let NetEvent::CrashNode { node, .. } = e {
                    assert_ne!(*node, 0, "node 0 is the client");
                }
            }
        }
    }

    #[test]
    fn from_events_sorts_stably() {
        let p = FaultPlan::from_events(vec![
            FaultEvent::UnbindModule { at: 9, module: 0 },
            FaultEvent::FramePressure { at: 3 },
            FaultEvent::ReleasePressure { at: 3 },
        ]);
        assert_eq!(p.events()[0], FaultEvent::FramePressure { at: 3 });
        assert_eq!(p.events()[1], FaultEvent::ReleasePressure { at: 3 });
        assert_eq!(p.events()[2].at(), 9);
    }
}
