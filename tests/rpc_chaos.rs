//! Network chaos, differentially: a client population that weathers a
//! seeded storm of drops, delays, duplicates, reorders, node crashes
//! and partitions — by retrying, backing off and failing over — must
//! end in a final architectural state **bit-identical** to the
//! fault-free run, with every cycle of recovery work accounted
//! separately (the `FaultStats` discipline, stretched over a network).
//!
//! This is the cross-machine mirror of `tests/failure_injection.rs`:
//! same adjusted-counter identity, new failure surface.

use fpc_isa::Instr;
use fpc_rpc::{CallPolicy, ChannelTransport, Cluster, LinkConfig, ServerNode};
use fpc_sched::{Context, FinalState, FuelPolicy, Population, SchedConfig};
use fpc_vm::inject::NetPlan;
use fpc_vm::{FaultKind, Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec, VmError};

const CONTEXTS: u64 = 3;
const CALLS: u16 = 3;

/// The client: `CALLS` calls through a remote descriptor, each result
/// `Out`ed, plus a `RemoteFault` handler that requests failover and
/// restarts the transfer.
fn client_image() -> (Image, ProcRef) {
    let mut b = ImageBuilder::new();
    let m = b.module("cli");
    let lv = b.import_remote(m, "double", 1, 1, 1);
    b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
        for i in 0..CALLS {
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

/// The server: `double(x)` halts with `2 * x` on the stack.
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
    ServerNode::new(server_image(), MachineConfig::i2()).service(
        "double",
        ProcRef {
            module: 0,
            ev_index: 1,
        },
        1,
        1,
    )
}

/// Runs the population under `plan` with `policy`, serving via
/// `mk_server`, and returns the finals plus the full RPC counters.
fn run_cluster_with(
    config: MachineConfig,
    plan: NetPlan,
    policy: CallPolicy,
    mk_server: fn() -> ServerNode,
) -> (Vec<FinalState>, fpc_rpc::RpcStats) {
    let (image, fh) = client_image();
    let cfg = config.with_fault_reserve(512);
    let population = Population::from_factory(CONTEXTS, move |id, buf| {
        let mut m = Machine::load_in(&image, cfg, buf).unwrap();
        m.install_fault_handler(FaultKind::RemoteFault, &image, fh)
            .unwrap();
        Context::new(id, m, FuelPolicy::Quantum(400))
    });
    let sched_cfg = SchedConfig {
        workers: 2,
        deterministic: true,
        seed: 99,
        record_trace: false,
        record_finals: true,
    };
    let mut cluster = Cluster::new(
        population,
        &sched_cfg,
        ChannelTransport::with_plan(LinkConfig::default(), plan),
        policy,
        0xC0DE,
    );
    cluster.add_server(1, mk_server());
    cluster.add_server(2, mk_server());
    cluster.set_replicas(0, vec![1, 2]);
    let report = cluster.run();
    (report.sched.finals_sorted(), report.rpc)
}

/// Runs the population under `plan` and returns (finals, faults
/// delivered, calls completed).
fn run_cluster(config: MachineConfig, plan: NetPlan) -> (Vec<FinalState>, u64, u64) {
    let (finals, rpc) = run_cluster_with(config, plan, CallPolicy::default(), server);
    (finals, rpc.faults_delivered, rpc.completed)
}

fn implementations() -> [(&'static str, MachineConfig); 3] {
    [
        ("i1", MachineConfig::i1()),
        ("i2", MachineConfig::i2()),
        ("i3", MachineConfig::i3()),
    ]
}

/// The headline invariant: for every seeded storm, on every (stack
/// convention) implementation, each client's adjusted counters and
/// output hash equal the fault-free run's — storms cost time and
/// accounted recovery work, never architecture.
#[test]
fn storm_survivors_are_bit_identical_to_the_clean_run() {
    for (name, config) in implementations() {
        let (clean, clean_faults, clean_completed) =
            run_cluster(config, NetPlan::from_events(Vec::new()));
        assert_eq!(clean_faults, 0, "{name}: clean run must not fault");
        assert_eq!(clean_completed, CONTEXTS * CALLS as u64, "{name}");
        let clean_adj: Vec<_> = clean.iter().map(|f| f.adjusted()).collect();
        assert!(
            clean.iter().all(|f| f.handler_instructions == 0),
            "{name}: no handler work without faults"
        );
        let mut storms_with_recovery = 0;
        for seed in [1u64, 2, 3, 4, 5] {
            let plan = NetPlan::generate(seed, 48, 2);
            let label = format!("{name} seed {seed}");
            let (storm, faults, completed) = run_cluster(config, plan);
            assert_eq!(completed, CONTEXTS * CALLS as u64, "{label}");
            assert!(
                storm.iter().all(|f| !f.faulted),
                "{label}: every context must survive the storm"
            );
            let storm_adj: Vec<_> = storm.iter().map(|f| f.adjusted()).collect();
            assert_eq!(storm_adj, clean_adj, "{label}: differential identity");
            if faults > 0 {
                storms_with_recovery += 1;
                assert!(
                    storm.iter().any(|f| f.handler_instructions > 0),
                    "{label}: delivered faults must show up as handler work"
                );
            }
        }
        assert!(
            storms_with_recovery >= 1,
            "{name}: at least one storm must have exercised guest-visible recovery"
        );
    }
}

/// The same storm replayed is the same storm: finals, fault counts and
/// completion counts all repeat exactly.
#[test]
fn storms_replay_bit_identically() {
    let run = || run_cluster(MachineConfig::i2(), NetPlan::generate(7, 48, 2));
    let (a_finals, a_faults, a_done) = run();
    let (b_finals, b_faults, b_done) = run();
    assert_eq!(a_faults, b_faults);
    assert_eq!(a_done, b_done);
    let a: Vec<_> = a_finals.iter().map(|f| f.architectural()).collect();
    let b: Vec<_> = b_finals.iter().map(|f| f.architectural()).collect();
    assert_eq!(a, b);
}

/// A server whose `double` also writes the output port: functionally
/// the same reply record, but re-execution is observable, so the
/// verifier must refuse it an idempotence certificate.
fn loud_server_image() -> Image {
    let mut b = ImageBuilder::new();
    let m = b.module("srv");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::Halt);
    });
    b.proc_with(m, ProcSpec::new("double", 1, 2), |a| {
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Out);
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

fn loud_server() -> ServerNode {
    ServerNode::new(loud_server_image(), MachineConfig::i2()).service(
        "double",
        ProcRef {
            module: 0,
            ev_index: 1,
        },
        1,
        1,
    )
}

/// The licensed-retry invariant: under `auto_retry_if_certified`, an
/// `Unknown`-declared call retries only because the verifier's effect
/// analysis certified the serving procedure — and with retries
/// actually firing, every storm's adjusted counters still match the
/// fault-free run bit for bit.
#[test]
fn certified_retry_storms_stay_bit_identical() {
    // Precondition, checked directly so a certification regression
    // fails here and not as a mysterious retry-count change: the pure
    // server's `double` is retry-safe, the loud one's is not.
    let report = fpc_verify::verify_image(
        &server_image(),
        &fpc_verify::VerifyOptions::for_config(&MachineConfig::i2()),
    );
    assert!(report.retry_safe(0, 1), "pure double must certify");
    let report = fpc_verify::verify_image(
        &loud_server_image(),
        &fpc_verify::VerifyOptions::for_config(&MachineConfig::i2()),
    );
    assert!(
        !report.retry_safe(0, 1),
        "Out makes re-execution observable"
    );

    let policy = CallPolicy::auto_retry_if_certified();
    for (name, config) in implementations() {
        let (clean, clean_rpc) =
            run_cluster_with(config, NetPlan::from_events(Vec::new()), policy, server);
        assert_eq!(clean_rpc.retries, 0, "{name}: clean run never resends");
        let clean_adj: Vec<_> = clean.iter().map(|f| f.adjusted()).collect();
        let mut total_retries = 0;
        for seed in [1u64, 2, 3, 4, 5] {
            let plan = NetPlan::generate(seed, 48, 2);
            let label = format!("{name} seed {seed}");
            let (storm, rpc) = run_cluster_with(config, plan, policy, server);
            assert_eq!(rpc.completed, CONTEXTS * CALLS as u64, "{label}");
            assert!(
                storm.iter().all(|f| !f.faulted),
                "{label}: every context must survive the storm"
            );
            let storm_adj: Vec<_> = storm.iter().map(|f| f.adjusted()).collect();
            assert_eq!(storm_adj, clean_adj, "{label}: differential identity");
            total_retries += rpc.retries;
        }
        assert!(
            total_retries > 0,
            "{name}: the certificate must actually have licensed retries"
        );
    }
}

/// The negative half of the license: the same storms against the loud
/// server, same `IfCertified` policy, must never host-retry — every
/// failure goes to the guest handler instead, which recovers by
/// failover + restart, and the adjusted counters *still* match that
/// policy's own clean run.
#[test]
fn uncertified_service_never_auto_retries() {
    let policy = CallPolicy::auto_retry_if_certified();
    let (clean, _) = run_cluster_with(
        MachineConfig::i2(),
        NetPlan::from_events(Vec::new()),
        policy,
        loud_server,
    );
    let clean_adj: Vec<_> = clean.iter().map(|f| f.adjusted()).collect();
    let mut faults_total = 0;
    for seed in [1u64, 2, 3, 4, 5] {
        let (storm, rpc) = run_cluster_with(
            MachineConfig::i2(),
            NetPlan::generate(seed, 48, 2),
            policy,
            loud_server,
        );
        assert_eq!(rpc.retries, 0, "seed {seed}: no certificate, no resend");
        assert_eq!(rpc.completed, CONTEXTS * CALLS as u64, "seed {seed}");
        assert!(
            storm.iter().all(|f| !f.faulted),
            "seed {seed}: guest-driven recovery must still succeed"
        );
        let storm_adj: Vec<_> = storm.iter().map(|f| f.adjusted()).collect();
        assert_eq!(storm_adj, clean_adj, "seed {seed}: differential identity");
        faults_total += rpc.faults_delivered;
    }
    assert!(
        faults_total > 0,
        "at least one storm must have pushed recovery into the guest"
    );
}

/// The zero-commit park at a quantum boundary: a context whose
/// quantum expires *exactly* at the remote call (remaining fuel
/// `a = 0`) parks on the next step without committing anything, stays
/// parked across redundant steps, and after completion commits the
/// marshal exactly once — identical counters to the unsliced run.
#[test]
fn quantum_boundary_park_restarts_the_marshal_exactly_once() {
    let image = {
        let mut b = ImageBuilder::new();
        let m = b.module("cli");
        let lv = b.import_remote(m, "double", 1, 1, 1);
        b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
            a.instr(Instr::LoadImm(21));
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        b.build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap()
    };
    let cfg = MachineConfig::i2();

    // Control: one-shot run, park once, complete, finish.
    let mut control = Machine::load(&image, cfg).unwrap();
    assert!(matches!(control.run(10_000), Err(VmError::RemoteBlocked)));
    control.complete_remote(vec![42]);
    control.run(10_000).unwrap();
    assert_eq!(control.output(), &[42]);

    // Sliced: the quantum runs dry after `LoadImm`, so the boundary
    // lands exactly on the call with zero fuel left for it. The next
    // quantum's first step parks; the park runs before any counted
    // reference or fuel charge, so it commits nothing.
    let mut m = Machine::load(&image, cfg).unwrap();
    assert!(matches!(m.run(1), Err(VmError::OutOfFuel)));
    assert_eq!(m.stats().instructions, 1, "only LoadImm retired");
    let (refs_at_boundary, cycles_at_boundary) = (m.total_refs(), m.stats().cycles);
    assert!(matches!(m.run(10_000), Err(VmError::RemoteBlocked)));
    assert_eq!(m.stats().instructions, 1, "the park retires nothing");
    assert_eq!(m.total_refs(), refs_at_boundary);
    assert_eq!(m.stats().cycles, cycles_at_boundary);
    // Re-stepping without a completion stays parked, still free.
    assert!(matches!(m.run(10_000), Err(VmError::RemoteBlocked)));
    assert_eq!(m.total_refs(), refs_at_boundary);
    // Completion restarts the call instruction: pop args, push
    // results, charge the marshal — exactly once.
    m.complete_remote(vec![42]);
    m.run(10_000).unwrap();
    assert!(m.halted());
    assert_eq!(m.output(), control.output());
    assert_eq!(m.total_refs(), control.total_refs(), "marshal charged once");
    assert_eq!(m.stats().cycles, control.stats().cycles);
    assert_eq!(m.stats().instructions, control.stats().instructions);
}

/// Chaos without a handler installed: contexts may die on exhausted
/// retries — that is allowed — but the host must never panic, and the
/// accounting must stay coherent.
#[test]
fn unhandled_storms_never_panic_the_host() {
    let (image, _) = client_image();
    for seed in [11u64, 12, 13] {
        let cfg = MachineConfig::i2();
        let image = image.clone();
        let population = Population::from_factory(2, move |id, buf| {
            let m = Machine::load_in(&image, cfg, buf).unwrap();
            Context::new(id, m, FuelPolicy::Quantum(300))
        });
        let sched_cfg = SchedConfig {
            workers: 1,
            deterministic: true,
            seed,
            record_trace: false,
            record_finals: true,
        };
        let mut cluster = Cluster::new(
            population,
            &sched_cfg,
            ChannelTransport::with_plan(LinkConfig::default(), NetPlan::generate(seed, 24, 2)),
            CallPolicy {
                max_attempts: 2,
                ..CallPolicy::default()
            },
            seed,
        );
        cluster.add_server(1, server());
        cluster.add_server(2, server());
        let report = cluster.run();
        assert_eq!(report.sched.retired(), 2, "every context retires somehow");
        assert_eq!(
            report.rpc.completed + report.rpc.faults_delivered + report.rpc.stale_replies,
            report.rpc.completed + report.rpc.faults_delivered + report.rpc.stale_replies,
        );
        assert!(report.rpc.issued >= report.rpc.completed);
    }
}
