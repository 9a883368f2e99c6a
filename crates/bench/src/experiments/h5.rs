//! H5 — native execution: the full dispatch ladder topped by the
//! certificate-licensed direct-threaded compiler.
//!
//! The top rung stops interpreting procedure bodies at all and runs
//! them as chains of pre-monomorphized host handlers
//! (`crates/vm/src/native.rs`). The whole
//! [`MachineConfig::dispatch_ladder`], identical in every simulated
//! counter (`tests/predecode_parity.rs`):
//!
//! | name | predecode | native |
//! |------|-----------|--------|
//! | `byte`      | off | off |
//! | `predecode` | on  | off |
//! | `native`    | on  | on, armed |
//!
//! The workload set is the corpus's call-dense slice — these programs
//! re-enter tiny procedure bodies millions of times. The armed tier compiles
//! every body before the first instruction, so the whole run executes
//! in native bursts. The native rung is timed *including* that
//! compilation: machines load cold, the license is armed, and the
//! compile pass and deoptimization checks all happen inside the timed
//! window, so the ratio is end-to-end honest.
//!
//! Arming requires an `fpc-verify` certificate; `prepare` verifies
//! each image and panics if the corpus ever stops verifying clean,
//! because an unarmed native rung would silently time the checked
//! bursts instead.
//!
//! The per-layer call cost comes from a leaf-call loop
//! (`while i < n do i := leaf(i)`, `leaf(x) = x + 1`) timed on the
//! native rung against the same loop with the call replaced by
//! `j := i; i := j + 1`: the difference per iteration is the host cost
//! of one native call+return pair, set beside the host cost of one
//! instruction of the call-free loop.

use fpc_compiler::{Linkage, Options};
use fpc_verify::{verify_image, VerifyOptions};
use fpc_vm::{Image, Machine, MachineConfig, NativeLicense};
use fpc_workloads::{compile_workload, corpus, programs, Kind, Workload};

use super::h1::{sample, Params};
use crate::driver::{default_workers, parallel_map};

/// The call-dense slice of the corpus.
pub const WORKLOADS: [&str; 5] = ["fib", "ackermann", "tak", "hanoi", "leafcalls"];

/// The dispatch ladder over `base`, weakest first, native last.
fn dispatches(base: MachineConfig) -> [(&'static str, MachineConfig); 3] {
    base.dispatch_ladder()
}

fn configs() -> [(&'static str, MachineConfig, Linkage); 4] {
    [
        ("i1", MachineConfig::i1(), Linkage::Mesa),
        ("i2", MachineConfig::i2(), Linkage::Mesa),
        ("i3", MachineConfig::i3(), Linkage::Direct),
        ("i4", MachineConfig::i4(), Linkage::Direct),
    ]
}

/// One (workload, config) measurement across the three-rung ladder.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Machine configuration name (i1–i4).
    pub config: &'static str,
    /// Simulated instructions per run (identical on every dispatch).
    pub instructions: u64,
    /// Simulated instructions per host second, per dispatch, in
    /// ladder order.
    pub ips: [f64; 3],
    /// Instructions retired by fast native handlers in one run.
    pub native_instrs: u64,
    /// Instructions retired through the interpreter fallback inside
    /// native bursts (calls, returns, traps, banked locals).
    pub interp_ops: u64,
    /// Bodies compiled by the end of one run.
    pub compiled_procs: usize,
}

impl Row {
    /// The headline ratio: native over the predecoding interpreter.
    pub fn native_over_predecode(&self) -> f64 {
        self.ips[2] / self.ips[1]
    }

    /// The native rung over the byte decoder.
    pub fn native_over_byte(&self) -> f64 {
        self.ips[2] / self.ips[0]
    }

    /// Fraction of all retired instructions that ran as fast native
    /// handlers.
    pub fn native_share(&self) -> f64 {
        self.native_instrs as f64 / self.instructions.max(1) as f64
    }
}

struct Cell {
    workload: Workload,
    cname: &'static str,
    config: MachineConfig,
    linkage: Linkage,
}

struct Prepared {
    image: Image,
    license: NativeLicense,
    instructions: u64,
    native_instrs: u64,
    interp_ops: u64,
    compiled_procs: usize,
}

/// Compiles and verifies one cell, then runs the weakest and strongest
/// dispatch once each: confirms the simulated counters agree, checks
/// the native tier genuinely engaged, and harvests its statistics.
/// Pure counter work — safe to fan out.
fn prepare(cell: &Cell) -> Prepared {
    let compiled = compile_workload(
        &cell.workload,
        Options {
            linkage: cell.linkage,
            bank_args: cell.config.renaming(),
        },
    )
    .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", cell.workload.name));
    let [(_, byte_cfg), _, (_, native_cfg)] = dispatches(cell.config);
    let report = verify_image(&compiled.image, &VerifyOptions::for_config(&native_cfg));
    let license = report
        .certificate()
        .unwrap_or_else(|| {
            panic!(
                "{}/{}: corpus image no longer verifies clean:\n{report}",
                cell.workload.name, cell.cname
            )
        })
        .native_license();
    let mut byte = Machine::load(&compiled.image, byte_cfg).expect("loads");
    byte.run(cell.workload.fuel).expect("runs");
    let mut native = Machine::load(&compiled.image, native_cfg).expect("loads");
    assert!(native.arm_native(license), "license must arm");
    native.run(cell.workload.fuel).expect("runs");
    assert_eq!(
        byte.stats().instructions,
        native.stats().instructions,
        "{}/{}: dispatch variants must simulate identically",
        cell.workload.name,
        cell.cname
    );
    assert_eq!(
        byte.output(),
        native.output(),
        "{}/{}: outputs must agree",
        cell.workload.name,
        cell.cname
    );
    let nstats = native.native_stats().expect("native tier is on");
    Prepared {
        image: compiled.image,
        license,
        instructions: native.stats().instructions,
        native_instrs: nstats.native_instrs,
        interp_ops: nstats.interp_ops,
        compiled_procs: nstats.compiled_procs,
    }
}

/// Runs the full measurement matrix.
pub fn measure_all(p: Params) -> Vec<Row> {
    let corpus = corpus();
    let cells: Vec<Cell> = WORKLOADS
        .iter()
        .map(|&name| {
            corpus
                .iter()
                .find(|w| w.name == name)
                .unwrap_or_else(|| panic!("no corpus entry {name}"))
        })
        .flat_map(|w| {
            configs().map(|(cname, config, linkage)| Cell {
                workload: w.clone(),
                cname,
                config,
                linkage,
            })
        })
        .collect();
    // Stage 1 (parallel): compile + verify + harvest counters.
    let prepared = parallel_map(&cells, default_workers(cells.len()), prepare);
    // Stage 2 (serial, alternating): wall-clock per dispatch variant.
    cells
        .iter()
        .zip(prepared)
        .map(|(cell, prep)| {
            let mut best = [f64::INFINITY; 3];
            for _ in 0..p.runs {
                for (d, (_, cfg)) in dispatches(cell.config).into_iter().enumerate() {
                    let license = cfg.native.then_some(prep.license);
                    let (instrs, secs) =
                        sample(&prep.image, cfg, license, cell.workload.fuel, p.reps);
                    assert_eq!(instrs, prep.instructions, "{}", cell.workload.name);
                    best[d] = best[d].min(secs);
                }
            }
            Row {
                workload: cell.workload.name,
                config: cell.cname,
                instructions: prep.instructions,
                ips: best.map(|s| prep.instructions as f64 / s),
                native_instrs: prep.native_instrs,
                interp_ops: prep.interp_ops,
                compiled_procs: prep.compiled_procs,
            }
        })
        .collect()
}

/// Iterations of the call-cost loops.
const LEAF_CALLS: i16 = 32_000;

/// The call-cost loop with its call replaced by straight-line code.
fn no_call_loop(n: i16) -> Workload {
    let src = format!(
        "module NoLeaf;
         proc main()
         var i: int;
         var j: int;
         begin
           i := 0;
           while i < {n} do j := i; i := j + 1; end;
           out i;
         end;
         end."
    );
    Workload {
        name: "noleaf",
        sources: vec![src],
        expected: vec![n as u16],
        fuel: 10_000_000,
        kind: Kind::Iterative,
    }
}

/// The host cost of a native call+return pair on one configuration.
#[derive(Debug, Clone)]
pub struct CallCost {
    /// Machine configuration name (i1–i4).
    pub config: &'static str,
    /// Host ns per call+return pair: `(t_call − t_nocall) / calls`.
    pub pair_ns: f64,
    /// Host ns per instruction of the call-free loop.
    pub instr_ns: f64,
}

impl CallCost {
    /// How many loop instructions one call+return pair costs.
    pub fn pair_over_instr(&self) -> f64 {
        self.pair_ns / self.instr_ns
    }
}

/// Times the leaf-call loop against the call-free loop on the native
/// rung of every configuration: the best of `runs × reps` single runs
/// of each, alternating, so that a slow spell of the host or a run's
/// cold start does not land in the difference.
pub fn measure_call_costs(p: Params) -> Vec<CallCost> {
    configs()
        .into_iter()
        .map(|(cname, config, linkage)| {
            let cell = |workload: Workload| Cell {
                workload,
                cname,
                config,
                linkage,
            };
            let call = prepare(&cell(programs::leafcalls(LEAF_CALLS)));
            let plain = prepare(&cell(no_call_loop(LEAF_CALLS)));
            let (_, cfg) = dispatches(config)[2];
            let mut best = [f64::INFINITY; 2];
            for _ in 0..p.runs * p.reps {
                for (b, prep) in best.iter_mut().zip([&call, &plain]) {
                    let (_, secs) = sample(&prep.image, cfg, Some(prep.license), 10_000_000, 1);
                    *b = b.min(secs);
                }
            }
            CallCost {
                config: cname,
                pair_ns: (best[0] - best[1]) * 1e9 / LEAF_CALLS as f64,
                instr_ns: best[1] * 1e9 / plain.instructions as f64,
            }
        })
        .collect()
}

/// Native run time of the whole call-dense set on the bank machine over
/// the same on I3: a ratio of run times for the same programs, not of
/// per-instruction costs. Renaming drops I4's argument-store prologues,
/// so I4 retires fewer instructions for the same work, and per its own
/// instruction count a bank machine as fast as I3 would read slower.
fn i4_over_i3(rows: &[Row]) -> f64 {
    let native_ns = |config: &str| -> f64 {
        rows.iter()
            .filter(|r| r.config == config)
            .map(|r| r.instructions as f64 * 1e9 / r.ips[2])
            .sum()
    };
    native_ns("i4") / native_ns("i3")
}

fn fmt_mips(ips: f64) -> String {
    format!("{:.1}", ips / 1e6)
}

/// Worst headline ratio over a config subset.
fn worst(rows: &[Row], keep: impl Fn(&Row) -> bool) -> f64 {
    rows.iter()
        .filter(|r| keep(r))
        .map(Row::native_over_predecode)
        .fold(f64::INFINITY, f64::min)
}

/// The report and the `BENCH_host_native.json` contents.
pub fn report_and_json(p: Params) -> (String, String) {
    let rows = measure_all(p);
    let costs = measure_call_costs(p);
    let mut out = String::new();
    out.push_str("H5: native execution (simulated Minstr/s) on call-dense workloads\n");
    out.push_str(&format!(
        "{:<10} {:>4} {:>12} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "workload", "cfg", "sim instrs", "byte", "predec", "native", "nat%", "vs predec"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<10} {:>4} {:>12} {:>8} {:>8} {:>8} {:>7.1}% {:>9.2}x\n",
            r.workload,
            r.config,
            r.instructions,
            fmt_mips(r.ips[0]),
            fmt_mips(r.ips[1]),
            fmt_mips(r.ips[2]),
            100.0 * r.native_share(),
            r.native_over_predecode()
        ));
    }
    // The bank machine (i4) runs its locals and indirect accesses in
    // compiled code like i1–i3 and is judged by the same bar; the
    // i1–i3 worst case is still reported on its own so the figure
    // stays comparable with runs from before i4 went native.
    let worst_i1_i3 = worst(&rows, |r| r.config != "i4");
    let worst_all = worst(&rows, |_| true);
    out.push_str(&format!(
        "worst-case native over predecode: {worst_i1_i3:.2}x on i1-i3, {worst_all:.2}x including the bank machine (i4)\n"
    ));
    out.push_str("native call+return pair vs loop instruction (host ns)\n");
    for c in &costs {
        out.push_str(&format!(
            "{:>4}  pair {:>6.1} ns  instr {:>5.2} ns  pair/instr {:>5.1}\n",
            c.config,
            c.pair_ns,
            c.instr_ns,
            c.pair_over_instr()
        ));
    }
    let i4_i3 = i4_over_i3(&rows);
    out.push_str(&format!(
        "i4 over i3 native run time on the call-dense set: {i4_i3:.2}x\n"
    ));

    let mut json = String::from(
        "{\n  \"experiment\": \"h5_native_speed\",\n  \"unit\": \"simulated instructions per host second\",\n",
    );
    json.push_str(&format!(
        "  \"configs\": [{}],\n  \"dispatches\": [{}],\n  \"rows\": [\n",
        configs().map(|(c, _, _)| format!("\"{c}\"")).join(", "),
        dispatches(MachineConfig::i1())
            .map(|(d, _)| format!("\"{d}\""))
            .join(", ")
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"instructions\": {}, \
             \"ips\": {{\"byte\": {:.0}, \"predecode\": {:.0}, \"native\": {:.0}}}, \
             \"native_instrs\": {}, \"interp_ops\": {}, \"compiled_procs\": {}, \
             \"native_share\": {:.3}, \"native_over_predecode\": {:.3}, \"native_over_byte\": {:.3}}}{}\n",
            r.workload,
            r.config,
            r.instructions,
            r.ips[0],
            r.ips[1],
            r.ips[2],
            r.native_instrs,
            r.interp_ops,
            r.compiled_procs,
            r.native_share(),
            r.native_over_predecode(),
            r.native_over_byte(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n  \"call_cost\": {\n");
    for (i, c) in costs.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"pair_ns\": {:.2}, \"instr_ns\": {:.3}, \"pair_over_instr\": {:.2}}}{}\n",
            c.config,
            c.pair_ns,
            c.instr_ns,
            c.pair_over_instr(),
            if i + 1 == costs.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  }},\n  \"i4_over_i3_native_ns_per_instr\": {i4_i3:.3},\n  \"worst_native_over_predecode_i1_i3\": {worst_i1_i3:.3},\n  \"worst_native_over_predecode_all\": {worst_all:.3}\n}}\n"
    ));
    (out, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cell_prepares_with_a_live_native_tier() {
        let corpus = corpus();
        let w = corpus.iter().find(|w| w.name == "fib").unwrap();
        let cell = Cell {
            workload: w.clone(),
            cname: "i2",
            config: MachineConfig::i2(),
            linkage: Linkage::Mesa,
        };
        let prep = prepare(&cell);
        assert!(prep.instructions > 0);
        assert_eq!(prep.compiled_procs, 2, "main and fib both compile");
        assert_eq!(
            (prep.native_instrs, prep.interp_ops),
            (prep.instructions, 0),
            "every fib instruction retires as a fast native op"
        );
    }

    #[test]
    fn the_ladder_tops_out_at_native() {
        let [(_, byte), (_, predecode), (_, native)] = dispatches(MachineConfig::i2());
        assert!(!byte.predecode && !byte.native);
        assert!(predecode.predecode && !predecode.native);
        assert!(native.predecode && native.native);
    }
}
