//! H8 — what the effect analysis buys: corpus-wide footprint coverage
//! and the makespan value of certificate-licensed retry under storms.
//!
//! Two sections. The **static** section sweeps the whole `fpc-lint`
//! corpus through the verifier's interprocedural effect analysis and
//! reports what it proved: how many procedures certify retry-safe and
//! what the dead-store / unreachable-code diagnostics found. The
//! **storm** section prices the retry license: the same seeded
//! network-fault storms are run twice — once under a no-retry policy
//! (every failure goes to the guest's failover handler) and once
//! under `auto_retry_if_certified`, where the host resends because the
//! verifier proved the serving procedure idempotent. Both recover to
//! bit-identical adjusted finals (the `tests/rpc_chaos.rs`
//! discipline); the difference is purely *cost*, and the headline is
//! the makespan ratio.
//!
//! **Metric.** Simulated cycles from the deterministic virtual-time
//! engine, as in H7; the static section counts analysis facts, not
//! time.

use fpc_compiler::{Linkage, Options};
use fpc_isa::Instr;
use fpc_rpc::{CallPolicy, ChannelTransport, Cluster, ClusterReport, LinkConfig, ServerNode};
use fpc_sched::{Context, FuelPolicy, Population, SchedConfig};
use fpc_verify::{verify_image, DiagKind, VerifyOptions};
use fpc_vm::inject::NetPlan;
use fpc_vm::{FaultKind, Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec};
use fpc_workloads::{compile_workload, corpus};

/// Preemption quantum for client contexts.
pub const QUANTUM: u64 = 400;

/// Server fuel per request.
pub const SERVER_FUEL: u64 = 100_000;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Client contexts in the storm section.
    pub contexts: u64,
    /// Remote calls each client makes.
    pub calls: u16,
    /// Seeds for the storm section's generated fault plans.
    pub storm_seeds: Vec<u64>,
    /// Base seed for scheduler and retry-jitter randomness.
    pub seed: u64,
}

impl Params {
    /// The full sweep.
    pub fn full() -> Self {
        Params {
            contexts: 64,
            calls: 8,
            storm_seeds: vec![1, 2, 3, 4, 5],
            seed: 0x0008,
        }
    }

    /// CI mode: small population, one storm — proves the harness and
    /// the JSON shape, not the asymptotics.
    pub fn smoke() -> Self {
        Params {
            contexts: 6,
            calls: 2,
            storm_seeds: vec![1],
            seed: 0x0008,
        }
    }
}

/// What the effect analysis proved across the lint corpus.
#[derive(Debug, Clone, Default)]
pub struct CorpusEffects {
    /// Images analyzed (corpus × every linkage/convention option).
    pub images: usize,
    /// Procedures summarized.
    pub procs: usize,
    /// Procedures certified retry-safe.
    pub retry_safe: usize,
    /// Procedures whose summary hit the conservative top `⊤`.
    pub unknown: usize,
    /// Dead-store diagnostics.
    pub dead_stores: usize,
    /// Unreachable-code diagnostics.
    pub unreachable: usize,
}

/// Runs the effect analysis over the same image set `fpc-lint
/// --corpus` gates: every workload under every linkage × argument
/// convention.
pub fn corpus_effects() -> CorpusEffects {
    let mut out = CorpusEffects::default();
    for w in corpus() {
        for linkage in [
            Linkage::Mesa,
            Linkage::Direct,
            Linkage::ShortDirect,
            Linkage::Mixed,
        ] {
            for bank_args in [false, true] {
                let compiled =
                    compile_workload(&w, Options { linkage, bank_args }).expect("corpus compiles");
                let report = verify_image(&compiled.image, &VerifyOptions::default());
                assert!(report.is_ok(), "{}: corpus must verify clean", w.name);
                out.images += 1;
                out.procs += report.procs.len();
                out.retry_safe += report.effects.iter().filter(|e| e.retry_safe()).count();
                out.unknown += report.effects.iter().filter(|e| e.unknown).count();
                out.dead_stores += report
                    .diagnostics
                    .iter()
                    .filter(|d| matches!(d.kind, DiagKind::DeadStore { .. }))
                    .count();
                out.unreachable += report
                    .diagnostics
                    .iter()
                    .filter(|d| matches!(d.kind, DiagKind::UnreachableCode { .. }))
                    .count();
            }
        }
    }
    out
}

/// The client image: `calls` invocations of `double` through a remote
/// descriptor (declared idempotence left `Unknown` — the point is the
/// certificate), plus a failover-and-restart `RemoteFault` handler.
fn client_image(calls: u16) -> (Image, ProcRef) {
    let mut b = ImageBuilder::new();
    let m = b.module("cli");
    let lv = b.import_remote(m, "double", 1, 1, 1);
    b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
        for i in 0..calls {
            a.instr(Instr::LoadImm(i + 1));
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Out);
        }
        a.instr(Instr::Halt);
    });
    let fh = b.proc_with(m, ProcSpec::new("on_remote_fault", 1, 2), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::RemoteInfo);
        a.instr(Instr::Failover);
        a.instr(Instr::Ret);
    });
    let image = b
        .build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap();
    (
        image,
        ProcRef {
            module: 0,
            ev_index: fh,
        },
    )
}

/// The server whose `double` the verifier certifies retry-safe.
fn server_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("srv");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::Halt);
    });
    b.proc_with(m, ProcSpec::new("double", 1, 2), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Add);
        a.instr(Instr::Halt);
    });
    b.build(ProcRef {
        module: 0,
        ev_index: 0,
    })
    .unwrap()
}

fn server() -> ServerNode {
    ServerNode::new(server_image(), MachineConfig::i2())
        .service(
            "double",
            ProcRef {
                module: 0,
                ev_index: 1,
            },
            1,
            1,
        )
        .fuel(SERVER_FUEL)
}

/// The no-retry baseline: one attempt, every failure to the guest.
/// Its deadline must be conservative — sized to the worst-case link
/// burst (h7's sizing) — because a premature timeout here is not a
/// harmless resend: it delivers a guest fault for a call that may
/// still be queued, and the guest's restart duplicates execution the
/// import site never declared safe.
fn no_retry_policy(contexts: u64) -> CallPolicy {
    CallPolicy {
        deadline: 20_000 + contexts * 2_000,
        max_attempts: 1,
        ..CallPolicy::fail_fast()
    }
}

/// The licensed policy: retries fire only because the serving
/// procedure carries an idempotence certificate — and *that* is what
/// lets detection be aggressive. A deadline sized to the common-case
/// round trip (not the worst-case burst) fires spurious timeouts under
/// congestion, but a spurious resend of a certified call is provably
/// unobservable (stateless re-execution + seq dedup), so the only
/// cost is a duplicate frame. The uncertified baseline cannot make
/// this trade.
fn certified_policy(contexts: u64) -> CallPolicy {
    CallPolicy {
        deadline: 8_000 + contexts * 1_000,
        backoff_base: 500,
        backoff_cap: 8_000,
        ..CallPolicy::auto_retry_if_certified()
    }
}

fn run_cluster(p: &Params, plan: NetPlan, policy: CallPolicy) -> ClusterReport {
    let (image, fh) = client_image(p.calls);
    let cfg = MachineConfig::i2().with_fault_reserve(512);
    let population = Population::from_factory(p.contexts, move |id, buf| {
        let mut m = Machine::load_in(&image, cfg, buf).expect("client loads");
        m.install_fault_handler(FaultKind::RemoteFault, &image, fh)
            .expect("handler installs");
        Context::new(id, m, FuelPolicy::Quantum(QUANTUM))
    });
    let sched_cfg = SchedConfig {
        workers: 2,
        deterministic: true,
        seed: p.seed,
        record_trace: false,
        record_finals: true,
    };
    let mut cluster = Cluster::new(
        population,
        &sched_cfg,
        ChannelTransport::with_plan(LinkConfig::default(), plan),
        policy,
        p.seed,
    );
    cluster.add_server(1, server());
    cluster.add_server(2, server());
    cluster.set_replicas(0, vec![1, 2]);
    cluster.run()
}

/// One policy's cost under one storm.
#[derive(Debug, Clone)]
pub struct PolicyCell {
    /// Simulated makespan.
    pub makespan_cycles: u64,
    /// Restartable faults delivered to guest handlers.
    pub faults_delivered: u64,
    /// Host-side resends (0 by construction under no-retry).
    pub retries: u64,
    /// Guest instructions spent inside fault handlers.
    pub handler_instructions: u64,
    /// Fault-adjusted finals bit-identical to the clean run.
    pub adjusted_identical: bool,
}

/// One storm seed, both policies.
#[derive(Debug, Clone)]
pub struct StormRow {
    /// Plan seed.
    pub seed: u64,
    /// Frames lost to drops and partitions (identical plan, so
    /// reported once).
    pub lost_frames: u64,
    /// The guest-recovery baseline.
    pub no_retry: PolicyCell,
    /// The certificate-licensed policy.
    pub certified: PolicyCell,
    /// `no_retry.makespan / certified.makespan` — the value of the
    /// license under this storm.
    pub improvement: f64,
}

fn cell(report: &ClusterReport, clean_adj: &[(u64, u64, u64, u64, u64, u64)]) -> PolicyCell {
    let finals = report.sched.finals_sorted();
    PolicyCell {
        makespan_cycles: report.sched.makespan_cycles(),
        faults_delivered: report.rpc.faults_delivered,
        retries: report.rpc.retries,
        handler_instructions: finals.iter().map(|f| f.handler_instructions).sum(),
        adjusted_identical: finals.iter().map(|f| f.adjusted()).collect::<Vec<_>>() == clean_adj,
    }
}

/// Runs every storm seed under both policies and differences them.
pub fn storms(p: &Params) -> (u64, Vec<StormRow>) {
    let clean = run_cluster(
        p,
        NetPlan::from_events(Vec::new()),
        certified_policy(p.contexts),
    );
    assert_eq!(clean.rpc.faults_delivered, 0, "clean run must not fault");
    let clean_makespan = clean.sched.makespan_cycles();
    let clean_adj: Vec<_> = clean
        .sched
        .finals_sorted()
        .iter()
        .map(|f| f.adjusted())
        .collect();
    let horizon = p.contexts * p.calls as u64;
    let mut rows = Vec::new();
    for &seed in &p.storm_seeds {
        let plan = NetPlan::generate(seed, horizon, 2);
        let base = run_cluster(p, plan.clone(), no_retry_policy(p.contexts));
        let cert = run_cluster(p, plan, certified_policy(p.contexts));
        for (name, r) in [("no-retry", &base), ("certified", &cert)] {
            assert_eq!(
                r.rpc.completed,
                p.contexts * p.calls as u64,
                "storm seed {seed} under {name}: every call must complete"
            );
        }
        assert_eq!(base.rpc.retries, 0, "no-retry must never resend");
        let base_cell = cell(&base, &clean_adj);
        let cert_cell = cell(&cert, &clean_adj);
        rows.push(StormRow {
            seed,
            lost_frames: base.net.dropped + base.net.partition_dropped,
            improvement: base_cell.makespan_cycles as f64 / cert_cell.makespan_cycles as f64,
            no_retry: base_cell,
            certified: cert_cell,
        });
    }
    (clean_makespan, rows)
}

/// The report and the `BENCH_host_effects.json` contents.
pub fn report_and_json(p: &Params) -> (String, String) {
    let fx = corpus_effects();
    let (clean_makespan, storm) = storms(p);

    let mut out = String::new();
    out.push_str("H8: effect analysis and licensed retry\n");
    out.push_str(&format!(
        "corpus: {} image(s), {} proc(s): {} retry-safe, {} at ⊤; \
         {} dead store(s), {} unreachable run(s)\n",
        fx.images, fx.procs, fx.retry_safe, fx.unknown, fx.dead_stores, fx.unreachable,
    ));
    out.push_str(&format!(
        "storms ({} contexts x {} calls, clean makespan {clean_makespan}):\n\
         {:>5} {:>5} | {:>12} {:>7} {:>9} | {:>12} {:>7} {:>8} {:>9} | {:>7}\n",
        p.contexts,
        p.calls,
        "seed",
        "lost",
        "base mksp",
        "faults",
        "hndl ins",
        "cert mksp",
        "faults",
        "retries",
        "hndl ins",
        "improv"
    ));
    for r in &storm {
        out.push_str(&format!(
            "{:>5} {:>5} | {:>12} {:>7} {:>9} | {:>12} {:>7} {:>8} {:>9} | {:>6.2}x\n",
            r.seed,
            r.lost_frames,
            r.no_retry.makespan_cycles,
            r.no_retry.faults_delivered,
            r.no_retry.handler_instructions,
            r.certified.makespan_cycles,
            r.certified.faults_delivered,
            r.certified.retries,
            r.certified.handler_instructions,
            r.improvement
        ));
    }

    let mut json = String::from("{\n  \"experiment\": \"h8_effects\",\n");
    json.push_str("  \"unit\": \"simulated cycles, deterministic virtual-time engine\",\n");
    json.push_str(&format!(
        "  \"corpus\": {{\"images\": {}, \"procs\": {}, \"retry_safe\": {}, \"unknown\": {}, \
         \"dead_stores\": {}, \"unreachable\": {}}},\n",
        fx.images, fx.procs, fx.retry_safe, fx.unknown, fx.dead_stores, fx.unreachable,
    ));
    json.push_str(&format!(
        "  \"contexts\": {}, \"calls\": {}, \"seed\": {},\n  \"clean_makespan_cycles\": {},\n",
        p.contexts, p.calls, p.seed, clean_makespan
    ));
    json.push_str("  \"storms\": [\n");
    let cell_json = |c: &PolicyCell| {
        format!(
            "{{\"makespan_cycles\": {}, \"faults_delivered\": {}, \"retries\": {}, \
             \"handler_instructions\": {}, \"adjusted_identical\": {}}}",
            c.makespan_cycles,
            c.faults_delivered,
            c.retries,
            c.handler_instructions,
            c.adjusted_identical
        )
    };
    for (i, r) in storm.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"seed\": {}, \"lost_frames\": {}, \"no_retry\": {}, \"certified\": {}, \
             \"improvement\": {:.4}}}{}\n",
            r.seed,
            r.lost_frames,
            cell_json(&r.no_retry),
            cell_json(&r.certified),
            r.improvement,
            if i + 1 == storm.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sections_hold_their_invariants() {
        let p = Params::smoke();
        let fx = corpus_effects();
        assert!(fx.images >= 100, "the whole lint corpus");
        assert!(fx.retry_safe > 0, "something must certify");
        let (_, storm) = storms(&p);
        assert_eq!(storm.len(), p.storm_seeds.len());
        for r in &storm {
            assert!(
                r.no_retry.adjusted_identical && r.certified.adjusted_identical,
                "seed {}: both policies must recover to the clean finals",
                r.seed
            );
            assert_eq!(r.no_retry.retries, 0, "seed {}", r.seed);
        }
    }
}
