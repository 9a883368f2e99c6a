//! `cluster_storm`: one `Cluster::run` of a mixed population on the
//! deterministic engine with two virtual workers.
//!
//! Why: it is the only workload that exercises `sched` (admission,
//! preemption, stealing, arena recycling) and `rpc` (marshal, wire,
//! transport, retry, failover). The storm makes both the clean path
//! and the recovery path run. Without it those two layers would go
//! unmeasured.
//!
//! Most contexts run `fib` in 4 KB guests on I3 or I4, preempted at a
//! quantum; a minority are RPC clients that call a replicated `double`
//! service through a seeded `NetPlan` storm. The seed picks the order of
//! the `fib` contexts, where the evenly spaced clients start, and which
//! storm the link suffers; the multiset of guests is fixed, so the guest
//! work is the same for every seed.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fpc_isa::Instr;
use fpc_rng::Rng;
use fpc_rpc::{
    wire, CallPolicy, ChannelTransport, Cluster, ClusterReport, Delivery, LinkConfig, NetStats,
    NodeId, ServerNode, Transport,
};
use fpc_sched::{Context, FinalState, FuelPolicy, Population, SchedConfig};
use fpc_vm::inject::NetPlan;
use fpc_vm::{FaultKind, Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec};

use crate::counters::VmCounters;
use crate::ladder::{self, Subject};
use crate::measure::{closed_loop, median, peak_rss_mb, quiet_median, ratio, spin, Sample};
use crate::oracle::{self, Record};
use crate::programs::implementations;
use crate::vmwork;
use crate::{trace, Args, Metrics, Outcome, SETUP_OP};

/// Instructions per slice for `fib` contexts.
const QUANTUM: u64 = 1024;
/// Instructions per slice for RPC clients.
const CLIENT_QUANTUM: u64 = 400;
/// Guest memory of a `fib` context, in words (4 KB).
const MEMORY_WORDS: u32 = 2048;
/// `fib(n)` sizes in the population.
const FIB_SIZES: std::ops::RangeInclusive<i16> = 6..=13;
/// `fib` contexts per (size, implementation).
const FIB_COPIES: usize = 24;
/// RPC clients.
const CLIENTS: usize = 48;
/// Remote calls each client makes.
const CALLS: u16 = 4;
/// Virtual workers.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is the median of those in the host's
/// fast regime.
const SETUPS: usize = 15;
/// Ops per run at least, so that p90 has ten samples beyond it.
const MIN_OPS: usize = 100;
/// Ops in the traced part of a `--trace 1` run.
const TRACED_OPS: usize = 50;

/// A context's guest.
#[derive(Debug, Clone, Copy)]
enum Guest {
    /// Index into the `fib` images.
    Fib(usize),
    Client,
}

/// One `fib` image in the population.
struct FibImage {
    n: i16,
    imp: usize,
    config: MachineConfig,
    image: Image,
    oracle: Record,
}

struct Storm {
    fibs: Arc<Vec<FibImage>>,
    client: Arc<(Image, ProcRef)>,
    server: Image,
    /// Guest per context id, in a seeded order.
    guests: Arc<Vec<Guest>>,
    plan: NetPlan,
    seed: u64,
}

/// The expected output hash of a retired context (`FinalState`'s
/// FNV-1a over the `out` stream).
fn fnv1a(words: &[u16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// The client: `CALLS` invocations of `double` through a remote
/// descriptor bound to node 1, plus a `RemoteFault` handler that fails
/// over to the next replica and restarts the call.
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
        .expect("client image builds");
    (
        image,
        ProcRef {
            module: 0,
            ev_index: fh,
        },
    )
}

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
    .expect("server image builds")
}

fn client_config() -> MachineConfig {
    MachineConfig::i2()
        .with_fault_reserve(512)
        .with_memory_words(2 * MEMORY_WORDS)
}

/// A transport that records a span around each `send` and `poll`, and
/// keeps a copy of every frame sent so the wire codec can be timed on
/// the same frames afterwards.
struct Timed<T> {
    inner: T,
    frames: Option<Rc<RefCell<Vec<Vec<u8>>>>>,
}

impl<T: Transport> Transport for Timed<T> {
    fn send(&mut self, now: u64, from: NodeId, to: NodeId, bytes: Vec<u8>) {
        if let Some(f) = &self.frames {
            f.borrow_mut().push(bytes.clone());
        }
        trace::span("rpc.transport.send", || {
            self.inner.send(now, from, to, bytes)
        });
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery> {
        trace::span("rpc.transport.poll", || self.inner.poll(now))
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn next_due(&self) -> Option<u64> {
        self.inner.next_due()
    }

    fn net_stats(&self) -> NetStats {
        self.inner.net_stats()
    }
}

impl Storm {
    /// Compiles the `fib` images (I3 and I4, Direct linkage) and deals
    /// the guests. With `with_oracle`, every `fib` image also runs once
    /// on the byte rung (untimed).
    fn build(seed: u64, with_oracle: bool) -> Result<Storm, String> {
        let mut fibs = Vec::new();
        for (n, imp) in FIB_SIZES.flat_map(|n| [(n, 2), (n, 3)]) {
            let i = implementations()[imp];
            let p = fpc_workloads::programs::fib(n);
            let image = trace::span("compiler.compile", || {
                fpc_workloads::compile_workload(&p, i.options())
            })
            .map_err(|e| e.to_string())?
            .image;
            let config = i.config.with_memory_words(MEMORY_WORDS);
            let oracle = if with_oracle {
                oracle::run(&image, config, p.fuel, Some(&p.expected))
                    .map_err(|e| format!("fib({n}): {e}"))?
            } else {
                Record::default()
            };
            fibs.push(FibImage {
                n,
                imp,
                config,
                image,
                oracle,
            });
        }
        // The `fib` contexts in a seeded order, with a client at every
        // `stride`-th id from a seeded offset: spreading the clients
        // evenly keeps about as many of them parked at once, and so as
        // much guest memory live, on every seed.
        let mut rng = Rng::seed_from_u64(seed);
        let mut fib_order: Vec<Guest> = (0..fibs.len())
            .flat_map(|i| std::iter::repeat_n(Guest::Fib(i), FIB_COPIES))
            .collect();
        for i in (1..fib_order.len()).rev() {
            fib_order.swap(i, rng.gen_index(i + 1));
        }
        let stride = (fib_order.len() + CLIENTS) / CLIENTS;
        let offset = rng.gen_index(stride);
        let mut fib_order = fib_order.into_iter();
        let guests: Vec<Guest> = (0..fib_order.len() + CLIENTS)
            .map(|id| {
                if id % stride == offset {
                    Guest::Client
                } else {
                    fib_order.next().expect("ids cover the population")
                }
            })
            .collect();
        let plan = NetPlan::generate(rng.next_u64(), (CLIENTS * CALLS as usize) as u64, 2);
        Ok(Storm {
            fibs: Arc::new(fibs),
            client: Arc::new(client_image()),
            server: server_image(),
            guests: Arc::new(guests),
            plan,
            seed,
        })
    }

    fn population(&self) -> Population {
        let fibs = Arc::clone(&self.fibs);
        let client = Arc::clone(&self.client);
        let guests = Arc::clone(&self.guests);
        Population::from_factory(guests.len() as u64, move |id, buf| {
            trace::span("sched.admit", || match guests[id as usize] {
                Guest::Fib(i) => {
                    let f = &fibs[i];
                    let m = trace::span("vm.load", || Machine::load_in(&f.image, f.config, buf))
                        .expect("fib loads");
                    Context::new(id, m, FuelPolicy::Quantum(QUANTUM))
                }
                Guest::Client => {
                    let (image, handler) = &*client;
                    let mut m =
                        trace::span("vm.load", || Machine::load_in(image, client_config(), buf))
                            .expect("client loads");
                    m.install_fault_handler(FaultKind::RemoteFault, image, *handler)
                        .expect("handler installs");
                    Context::new(id, m, FuelPolicy::Quantum(CLIENT_QUANTUM))
                }
            })
        })
    }

    fn cluster<T: Transport>(&self, transport: T) -> Cluster<T> {
        let sched = SchedConfig::default()
            .with_workers(WORKERS)
            .with_seed(self.seed)
            .with_finals(true);
        let policy = CallPolicy {
            deadline: 20_000 + CLIENTS as u64 * 2_000,
            backoff_base: 2_000,
            backoff_cap: 64_000,
            ..CallPolicy::default()
        };
        let mut c = Cluster::new(self.population(), &sched, transport, policy, self.seed);
        let server = || {
            // Every request loads a fresh machine; a 4 KB guest keeps
            // that from zeroing the default 128 KB memory each time.
            let config = MachineConfig::i2().with_memory_words(MEMORY_WORDS);
            ServerNode::new(self.server.clone(), config)
                .service(
                    "double",
                    ProcRef {
                        module: 0,
                        ev_index: 1,
                    },
                    1,
                    1,
                )
                .fuel(100_000)
        };
        c.add_server(1, server());
        c.add_server(2, server());
        c.set_replicas(0, vec![1, 2]);
        c
    }

    fn link(&self, storm: bool) -> ChannelTransport {
        let plan = if storm {
            self.plan.clone()
        } else {
            NetPlan::from_events(Vec::new())
        };
        ChannelTransport::with_plan(LinkConfig::default(), plan)
    }

    /// Checks a storm run against the clean run's adjusted finals and
    /// against the host reference outputs.
    fn check(&self, r: &ClusterReport, clean: &[FinalState]) -> Result<(), String> {
        let calls = (CLIENTS * CALLS as usize) as u64;
        if r.rpc.completed != calls {
            return Err(format!("{} of {calls} calls completed", r.rpc.completed));
        }
        if r.sched.retired() != self.guests.len() as u64 || r.sched.faults() != 0 {
            return Err(format!(
                "{} contexts retired, {} faulted",
                r.sched.retired(),
                r.sched.faults()
            ));
        }
        let finals = r.sched.finals_sorted();
        let client_out: Vec<u16> = (1..=CALLS).map(|i| 2 * i).collect();
        for (f, c) in finals.iter().zip(clean) {
            if f.adjusted() != c.adjusted() {
                return Err(format!("context {} differs from the clean run", f.id));
            }
            let want = match self.guests[f.id as usize] {
                Guest::Fib(i) => {
                    let o = &self.fibs[i].oracle;
                    if (f.instructions, f.cycles, f.refs) != (o.instructions, o.cycles, o.refs) {
                        return Err(format!("context {} differs from the oracle", f.id));
                    }
                    fnv1a(&o.output)
                }
                Guest::Client => fnv1a(&client_out),
            };
            if f.output_hash != want {
                return Err(format!(
                    "context {} output differs from the reference",
                    f.id
                ));
            }
        }
        Ok(())
    }

    /// Share of calls and returns at jump speed, over the population's
    /// `fib` contexts (the clients make remote calls only).
    fn jump_speed_frac(&self) -> f64 {
        let (mut fast, mut all) = (0, 0);
        for g in self.guests.iter() {
            if let Guest::Fib(i) = g {
                fast += self.fibs[*i].oracle.fast_calls_returns;
                all += self.fibs[*i].oracle.calls_returns;
            }
        }
        ratio(fast as f64, all as f64)
    }
}

/// One op: a fresh cluster over the population, run to completion.
fn op<T: Transport>(storm: &Storm, transport: T, delay_ns: u64) -> (Sample, ClusterReport) {
    let cluster = storm.cluster(transport);
    let t = Instant::now();
    let report = trace::span("cluster.run", || {
        let r = cluster.run();
        if delay_ns > 0 {
            spin(delay_ns);
        }
        r
    });
    let ns = t.elapsed().as_nanos() as u64;
    let sample = Sample {
        op_ns: ns,
        run_ns: ns,
        instructions: report.sched.instructions(),
        items: report.sched.retired(),
    };
    (sample, report)
}

/// Runs `cluster_storm` as `args` asks.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let storm = Storm::build(args.seed, true)?;
    let clean = storm.cluster(storm.link(false)).run();
    if clean.rpc.faults_delivered != 0 {
        return Err("the clean run delivered faults".into());
    }
    let clean_finals = clean.sched.finals_sorted();
    let mut rng = Rng::seed_from_u64(args.seed ^ 0x5707);

    // Set-up: compile the images, build the population and the cluster,
    // and warm up with one run. Spread over the timed loop like the VM
    // workloads' set-ups.
    let timed_setup = || -> Result<f64, String> {
        let t = Instant::now();
        let s = Storm::build(args.seed, false)?;
        op(&s, s.link(true), 0);
        Ok(t.elapsed().as_secs_f64())
    };
    let mut times = vec![timed_setup()?];
    let mut out = Outcome::default();
    let (storm, clean_finals) = (&storm, clean_finals.as_slice());
    let loop_op = |delay| {
        move |_: usize, _: usize| {
            let (s, r) = op(storm, storm.link(true), delay);
            storm.check(&r, clean_finals).map(|()| s)
        }
    };

    if !args.trace {
        let mut failed = None;
        let stats = closed_loop(
            1,
            args.seconds,
            MIN_OPS,
            &mut rng,
            loop_op(args.delay_ns),
            |done| {
                if times.len() < SETUPS && done * SETUPS as f64 >= times.len() as f64 {
                    match timed_setup() {
                        Ok(t) => times.push(t),
                        Err(e) => failed = Some(e),
                    }
                }
            },
        );
        // Before the analysis below allocates per-op scratch space.
        let peak_rss = peak_rss_mb();
        if let Some(e) = failed {
            return Err(e);
        }
        let (_, report) = op(storm, storm.link(true), 0);
        out.attempted = stats.attempted;
        out.failed = stats.failed;
        let m = &mut out.metrics;
        m.put("setup_s", quiet_median(&times) * stats.host_scale(), "s");
        m.put("peak_rss_mb", peak_rss, "MB");
        let host = stats.quiet();
        m.put("items_per_s", host.items_per_s, "1/s");
        m.put("op_ms_p50", host.op_ms_p50, "ms");
        m.put("op_ms_p90", host.op_ms_p90, "ms");
        m.put("sim_mips", host.sim_mips, "Minstr/s");
        m.put(
            "sim_cpi",
            ratio(
                report.sched.guest_cycles() as f64,
                report.sched.instructions() as f64,
            ),
            "cycles/instr",
        );
        m.put("jump_speed_frac", storm.jump_speed_frac(), "share");
        m.put(
            "sim_makespan_mcycles",
            report.sched.makespan_cycles() as f64 / 1e6,
            "Mcycles",
        );
        out.log.push(format!(
            "ops {} of {} contexts each",
            stats.ops(),
            storm.guests.len()
        ));
        out.log.extend(stats.log());
        return Ok(out);
    }

    // Untraced and traced ops alternate, so host drift hits both alike;
    // their number is fixed because each traced op records a few
    // thousand transport spans. Then half the time on the ladder.
    // Between ops, each population image also runs standalone on its own
    // config: its ns/instr, sampled over the same stretch of time as the
    // cluster ops, prices the guest share of Cluster::run.
    let frames = Rc::new(RefCell::new(Vec::new()));
    let mut report = None;
    let mut standalone = vec![Vec::new(); storm.fibs.len()];
    let mut calibrate = |_: f64| {
        trace::enable(true);
        for (f, ns) in storm.fibs.iter().zip(standalone.iter_mut()) {
            let Ok(mut m) = Machine::load(&f.image, f.config) else {
                continue;
            };
            let t = Instant::now();
            if trace::span("vm.run", || m.run(f.oracle.instructions + 1)).is_ok() {
                ns.push(t.elapsed().as_nanos() as f64 / f.oracle.instructions as f64);
            }
        }
        trace::enable(false);
    };
    let mixed = closed_loop(
        1,
        0.0,
        2 * TRACED_OPS,
        &mut rng,
        |_, pass| {
            if pass % 2 == 0 {
                return loop_op(0)(0, pass);
            }
            trace::enable(true);
            trace::set_op(pass as u64);
            let capture = (pass == 1).then(|| Rc::clone(&frames));
            let t = Timed {
                inner: storm.link(true),
                frames: capture,
            };
            let (s, r) = op(storm, t, 0);
            trace::enable(false);
            storm.check(&r, clean_finals)?;
            report.get_or_insert(r);
            Ok(s)
        },
        &mut calibrate,
    );
    let (plain_p50, traced_p50) = (
        mixed.op_ms_parity(false, 0.5),
        mixed.op_ms_parity(true, 0.5),
    );
    trace::enable(true);
    // The ladder's images: the population's fib sizes on I1–I4 with the
    // default memory, compiled and verified here under the trace.
    trace::set_op(SETUP_OP);
    let mut ladder_images = Vec::new();
    for f in storm.fibs.iter().filter(|f| f.imp == 3) {
        for (imp_idx, imp) in implementations().into_iter().enumerate() {
            let p = fpc_workloads::programs::fib(f.n);
            let prep = vmwork::prepare(&p, &imp)?;
            ladder_images.push((prep, imp, imp_idx, p.expected));
        }
    }
    let standalone: Vec<f64> = standalone.iter().map(|v| median(v)).collect();
    trace::enable(false);
    let spans = trace::take();
    let report = report.ok_or("no traced cluster run completed")?;

    let subjects: Vec<Subject> = ladder_images
        .iter()
        .map(|(prep, imp, imp_idx, expected)| Subject {
            image: &prep.image,
            license: prep.license,
            base: imp.config,
            imp: *imp_idx,
            output: expected,
        })
        .collect();
    let mut counters = VmCounters::default();
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let lad = ladder::run(&subjects, budget, 3, &mut rng, Some(&mut counters));

    out.attempted = mixed.attempted + lad.attempted;
    out.failed = mixed.failed + lad.failed;
    let m = &mut out.metrics;
    let us = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        median(&v)
    };
    m.put("compiler.compile_us", us("compiler.compile"), "us");
    m.put("verify.verify_us", us("verify.verify"), "us");
    m.put("vm.load_us", us("vm.load"), "us");
    m.put("vm.run_us", us("vm.run"), "us");
    lad.report(m);
    counters.report(m);

    // Guest time: each context's instructions at its image's standalone
    // speed; clients at the mean fib speed.
    let mut guest_ns = 0.0;
    let mut fib_instrs = 0u64;
    for g in storm.guests.iter() {
        if let Guest::Fib(i) = g {
            let n = storm.fibs[*i].oracle.instructions;
            guest_ns += n as f64 * standalone[*i];
            fib_instrs += n;
        }
    }
    let client_instrs = report.sched.instructions() - fib_instrs;
    guest_ns += client_instrs as f64 * median(&standalone);
    let s = &report.sched;
    let idle: u64 = s.workers.iter().map(|w| w.idle_spins).sum();
    m.put("sched.admit_us", us("sched.admit"), "us");
    m.put(
        "sched.slices_per_context",
        ratio(s.slices() as f64, s.retired() as f64),
        "count",
    );
    m.put("sched.preemptions", s.preemptions() as f64, "count");
    m.put(
        "sched.steal_hit_ratio",
        ratio(s.steals() as f64, s.steal_attempts() as f64),
        "share",
    );
    m.put(
        "sched.idle_spin_frac",
        ratio(idle as f64, (s.slices() + idle) as f64),
        "share",
    );
    m.put("sched.guest_frac", guest_ns / (plain_p50 * 1e6), "share");
    m.put(
        "sched.makespan_mcycles",
        s.makespan_cycles() as f64 / 1e6,
        "Mcycles",
    );

    let (enc, dec) = time_codec(&frames.borrow());
    let r = &report.rpc;
    let kc = |h: &fpc_stats::Histogram, q: f64| h.quantile(q).unwrap_or(0) as f64 / 1e3;
    m.put("rpc.transport.send_us", us("rpc.transport.send"), "us");
    m.put("rpc.transport.poll_us", us("rpc.transport.poll"), "us");
    m.put("rpc.wire.encode_ns", enc, "ns");
    m.put("rpc.wire.decode_ns", dec, "ns");
    m.put(
        "rpc.useful_ratio",
        ratio(r.completed as f64, (r.issued + r.retries) as f64),
        "share",
    );
    m.put("rpc.retries", r.retries as f64, "count");
    m.put("rpc.timeouts", r.timeouts as f64, "count");
    m.put("rpc.naks", r.naks as f64, "count");
    m.put("rpc.failovers", r.failovers as f64, "count");
    m.put("rpc.stale_replies", r.stale_replies as f64, "count");
    m.put(
        "rpc.clean_latency_p50_kcycles",
        kc(&r.clean_latency, 0.5),
        "kcycles",
    );
    m.put(
        "rpc.recovery_latency_p50_kcycles",
        kc(&r.recovery_latency, 0.5),
        "kcycles",
    );
    m.put(
        "rpc.frames_per_call",
        ratio(report.net.sent as f64, r.issued as f64),
        "count",
    );
    m.put("rpc.latency_p50_kcycles", kc(&r.latency, 0.5), "kcycles");
    m.put("rpc.latency_p99_kcycles", kc(&r.latency, 0.99), "kcycles");
    m.put("trace.overhead_frac", traced_p50 / plain_p50 - 1.0, "share");
    out.log.extend(lad.answers());
    out.log.push(format!(
        "H6 gap: guest code at standalone speed is {:.3} of Cluster::run host time; the rest is scheduler and cluster pump",
        guest_ns / (plain_p50 * 1e6)
    ));
    out.log.extend(crate::self_time_lines(&spans));
    out.spans = spans;
    Ok(out)
}

/// Replays the frames of one traced run through `wire::decode` and
/// `wire::encode`; mean ns per frame for each.
fn time_codec(frames: &[Vec<u8>]) -> (f64, f64) {
    let packets: Vec<wire::Packet> = frames.iter().filter_map(|f| wire::decode(f).ok()).collect();
    if packets.is_empty() {
        return (0.0, 0.0);
    }
    let reps = (200_000 / packets.len()).max(1);
    let t = Instant::now();
    for _ in 0..reps {
        for f in frames {
            std::hint::black_box(wire::decode(std::hint::black_box(f)).ok());
        }
    }
    let dec = t.elapsed().as_nanos() as f64 / (reps * frames.len()) as f64;
    let t = Instant::now();
    for _ in 0..reps {
        for p in &packets {
            std::hint::black_box(wire::encode(std::hint::black_box(p)));
        }
    }
    let enc = t.elapsed().as_nanos() as f64 / (reps * packets.len()) as f64;
    (enc, dec)
}

/// The `sched.*` and `rpc.*` metrics for workloads that do not reach
/// those layers: zero.
pub fn report_absent(m: &mut Metrics) {
    for (name, unit) in [
        ("sched.admit_us", "us"),
        ("sched.slices_per_context", "count"),
        ("sched.preemptions", "count"),
        ("sched.steal_hit_ratio", "share"),
        ("sched.idle_spin_frac", "share"),
        ("sched.guest_frac", "share"),
        ("sched.makespan_mcycles", "Mcycles"),
        ("rpc.transport.send_us", "us"),
        ("rpc.transport.poll_us", "us"),
        ("rpc.wire.encode_ns", "ns"),
        ("rpc.wire.decode_ns", "ns"),
        ("rpc.useful_ratio", "share"),
        ("rpc.retries", "count"),
        ("rpc.timeouts", "count"),
        ("rpc.naks", "count"),
        ("rpc.failovers", "count"),
        ("rpc.stale_replies", "count"),
        ("rpc.clean_latency_p50_kcycles", "kcycles"),
        ("rpc.recovery_latency_p50_kcycles", "kcycles"),
        ("rpc.frames_per_call", "count"),
        ("rpc.latency_p50_kcycles", "kcycles"),
        ("rpc.latency_p99_kcycles", "kcycles"),
    ] {
        m.put(name, 0.0, unit);
    }
}
