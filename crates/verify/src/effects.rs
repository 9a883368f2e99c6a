//! Interprocedural effect summaries: what each procedure can touch.
//!
//! The stack analysis proves images *well-formed*; this pass extends
//! the certificate to *what a procedure can do to observable state*.
//! Per procedure it computes a summary lattice — global-frame
//! read/write footprints as per-module slot intervals, pointer-memory
//! effects, output, allocator donations, module rebinds, trap
//! reachability, remote-call seams, context operations — from the
//! reachable ops of the settled dataflow, then solves the
//! whole-program summary as a fixpoint over the resolved call graph.
//! Recursion cycles (the Tarjan components the stack analysis already
//! found) and control escapes (`XFER`, `PROCESSSWITCH`) are joined to
//! the conservative top element `unknown`; the remote boundary
//! contributes its arity-matched local stub (pure) plus the
//! `calls_remote` mark, since the callee's real effects happen on a
//! machine the static proof cannot see into.
//!
//! One licensed capability falls out: **retry safety**
//! ([`EffectSummary::retry_safe`]). A procedure whose summary proves
//! no observable-state mutation outside its result record — no global
//! writes, no pointer writes, no output, no allocator/linkage
//! mutation, no context creation, no nested remote calls — can be
//! re-run from scratch with no effect the first run did not already
//! have. `fpc-rpc` consults this to license automatic retry of
//! timed-out calls.

use std::collections::BTreeMap;
use std::fmt;

use fpc_isa::Instr;

/// Per-procedure effect summary. The lattice join is field-wise:
/// interval hull on footprints, disjunction on the flags, with
/// `unknown` as the absorbing top element for verdicts (footprints and
/// flags are still reported best-effort under `unknown`, for
/// diagnostics).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EffectSummary {
    /// Global-frame slots read, per owning module: `module → [lo, hi]`
    /// slot-index interval hull.
    pub global_reads: BTreeMap<usize, (u32, u32)>,
    /// Global-frame slots written, per owning module.
    pub global_writes: BTreeMap<usize, (u32, u32)>,
    /// Reads memory through a computed address (`READ`/`LOADINDEX`).
    pub reads_memory: bool,
    /// Writes memory through a computed address
    /// (`WRITE`/`STOREINDEX`).
    pub writes_memory: bool,
    /// Takes the address of a global or local slot
    /// (`LGA`/`LLA`), exposing it to pointer traffic.
    pub address_exposed: bool,
    /// Appends to the output stream (`OUT`).
    pub writes_output: bool,
    /// Donates fault-reserve words back to the allocator (`DONATE`).
    pub donates: bool,
    /// Requests a module rebind (`BINDMOD`).
    pub binds_modules: bool,
    /// Can raise a trap (`TRAP n`, or `DIV`/`MOD` by zero).
    pub may_trap: bool,
    /// Creates, frees or switches execution contexts
    /// (`NEWCONTEXT`/`SPAWN`/`FREECONTEXT`/`XFER`/`PROCESSSWITCH`).
    pub context_ops: bool,
    /// Runs remote-fault handler protocol ops (`RFINFO`/`FAILOVER`).
    pub handler_ops: bool,
    /// Calls through a remote descriptor: the real effects happen on
    /// another machine.
    pub calls_remote: bool,
    /// Reachable `EXTERNALCALL` pcs routed through remote descriptors.
    pub remote_sites: Vec<u32>,
    /// Member of a recursion cycle in the resolved call graph.
    pub recursive: bool,
    /// Conservative top: the summary over-approximates but cannot
    /// bound the procedure's effects (recursion, or control escapes
    /// via `XFER`/`PROCESSSWITCH` whose destinations are dynamic).
    pub unknown: bool,
}

/// Widens `interval` to cover `slot`.
fn widen(map: &mut BTreeMap<usize, (u32, u32)>, module: usize, slot: u32) {
    map.entry(module)
        .and_modify(|iv| *iv = (iv.0.min(slot), iv.1.max(slot)))
        .or_insert((slot, slot));
}

/// Hulls `b`'s footprint into `a`.
fn hull(a: &mut BTreeMap<usize, (u32, u32)>, b: &BTreeMap<usize, (u32, u32)>) {
    for (&m, &(lo, hi)) in b {
        a.entry(m)
            .and_modify(|iv| *iv = (iv.0.min(lo), iv.1.max(hi)))
            .or_insert((lo, hi));
    }
}

impl EffectSummary {
    /// Accumulates one reachable instruction's intraprocedural effect.
    /// `module` is the owning (code) module whose global frame
    /// `LOADGLOBAL`/`STOREGLOBAL` address from this body.
    pub(crate) fn record(&mut self, instr: Instr, module: usize) {
        match instr {
            Instr::LoadGlobal(n) => widen(&mut self.global_reads, module, n as u32),
            Instr::StoreGlobal(n) => widen(&mut self.global_writes, module, n as u32),
            Instr::LoadGlobalAddr(_) | Instr::LoadLocalAddr(_) => self.address_exposed = true,
            Instr::Read | Instr::LoadIndex => self.reads_memory = true,
            Instr::Write | Instr::StoreIndex => self.writes_memory = true,
            Instr::Out => self.writes_output = true,
            Instr::Donate => self.donates = true,
            Instr::BindModule => self.binds_modules = true,
            Instr::Trap(_) | Instr::Div | Instr::Mod => self.may_trap = true,
            Instr::RemoteInfo | Instr::Failover => self.handler_ops = true,
            Instr::NewContext | Instr::Spawn | Instr::FreeContext => self.context_ops = true,
            Instr::Xfer | Instr::ProcessSwitch => {
                // The destination context is a run-time value: control
                // (and therefore effects) can leave the analyzed call
                // tree entirely.
                self.context_ops = true;
                self.unknown = true;
            }
            _ => {}
        }
    }

    /// Marks a reachable remote call site at `pc`.
    pub(crate) fn record_remote_site(&mut self, pc: u32) {
        self.calls_remote = true;
        if !self.remote_sites.contains(&pc) {
            self.remote_sites.push(pc);
        }
    }

    /// Field-wise lattice join (callee into caller). Remote sites are
    /// *not* inherited: they locate this procedure's own seams.
    pub(crate) fn join(&mut self, other: &EffectSummary) {
        hull(&mut self.global_reads, &other.global_reads);
        hull(&mut self.global_writes, &other.global_writes);
        self.reads_memory |= other.reads_memory;
        self.writes_memory |= other.writes_memory;
        self.address_exposed |= other.address_exposed;
        self.writes_output |= other.writes_output;
        self.donates |= other.donates;
        self.binds_modules |= other.binds_modules;
        self.may_trap |= other.may_trap;
        self.context_ops |= other.context_ops;
        self.handler_ops |= other.handler_ops;
        self.calls_remote |= other.calls_remote;
        self.unknown |= other.unknown;
    }

    /// Whether re-running this procedure from scratch can have any
    /// observable effect its first run did not already have. Reads
    /// (global, local or pointer), traps and handler-protocol ops are
    /// harmless under re-execution; any mutation of state that
    /// outlives the activation — global writes, pointer writes,
    /// output, allocator donations, module rebinds, context creation —
    /// or an effect the analysis cannot bound disqualifies it, as does
    /// a nested remote call (re-running would re-issue it).
    pub fn retry_safe(&self) -> bool {
        !self.unknown
            && self.global_writes.is_empty()
            && !self.writes_memory
            && !self.writes_output
            && !self.donates
            && !self.binds_modules
            && !self.context_ops
            && !self.calls_remote
    }
}

impl fmt::Display for EffectSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        for (m, (lo, hi)) in &self.global_reads {
            parts.push(format!("gr m{m}[{lo}..={hi}]"));
        }
        for (m, (lo, hi)) in &self.global_writes {
            parts.push(format!("gw m{m}[{lo}..={hi}]"));
        }
        for (on, tag) in [
            (self.reads_memory, "mem-read"),
            (self.writes_memory, "mem-write"),
            (self.address_exposed, "addr-exposed"),
            (self.writes_output, "out"),
            (self.donates, "donate"),
            (self.binds_modules, "bindmod"),
            (self.may_trap, "trap?"),
            (self.context_ops, "ctx"),
            (self.handler_ops, "handler"),
            (self.calls_remote, "remote"),
            (self.recursive, "recursive"),
            (self.unknown, "⊤"),
        ] {
            if on {
                parts.push(tag.to_string());
            }
        }
        if parts.is_empty() {
            write!(f, "pure")
        } else {
            write!(f, "{}", parts.join(" "))
        }
    }
}

/// Solves the interprocedural fixpoint: each procedure's whole-program
/// summary is its intraprocedural summary joined with every resolved
/// callee's solved summary. Cycle members (the stack analysis's Tarjan
/// components) short-circuit to their intra summary with `unknown` and
/// `recursive` set — the conservative top the issue of a certificate
/// demands at recursion. `components` lists every callee's component
/// before its callers', so one pass in that order solves every
/// procedure after its callees.
pub(crate) fn solve(
    mut summaries: Vec<EffectSummary>,
    edges: &[Vec<usize>],
    cyclic: &[bool],
    components: &[Vec<usize>],
) -> Vec<EffectSummary> {
    for &pid in components.iter().flatten() {
        let mut s = std::mem::take(&mut summaries[pid]);
        if cyclic[pid] {
            s.recursive = true;
            s.unknown = true;
        } else {
            for &t in &edges[pid] {
                s.join(&summaries[t]);
            }
        }
        summaries[pid] = s;
    }
    summaries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(f: impl FnOnce(&mut EffectSummary)) -> EffectSummary {
        let mut s = EffectSummary::default();
        f(&mut s);
        s
    }

    #[test]
    fn pure_summary_is_retry_safe() {
        let s = summary(|s| {
            s.record(Instr::LoadGlobal(3), 0);
            s.record(Instr::Add, 0);
            s.record(Instr::Trap(1), 0);
        });
        assert!(s.retry_safe(), "reads and traps are re-runnable: {s}");
        assert_eq!(s.global_reads.get(&0), Some(&(3, 3)));
    }

    #[test]
    fn mutations_disqualify_retry() {
        for instr in [
            Instr::StoreGlobal(0),
            Instr::Write,
            Instr::StoreIndex,
            Instr::Out,
            Instr::Donate,
            Instr::BindModule,
            Instr::NewContext,
            Instr::Xfer,
        ] {
            let s = summary(|s| s.record(instr, 0));
            assert!(!s.retry_safe(), "{instr:?} must disqualify retry");
        }
    }

    #[test]
    fn footprints_hull_on_join() {
        let mut a = summary(|s| s.record(Instr::StoreGlobal(2), 1));
        let b = summary(|s| s.record(Instr::StoreGlobal(7), 1));
        a.join(&b);
        assert_eq!(a.global_writes.get(&1), Some(&(2, 7)));
    }

    #[test]
    fn cycles_solve_to_top() {
        // 0 -> 1 <-> 2, with 1 writing a global.
        let intra = vec![
            EffectSummary::default(),
            summary(|s| s.record(Instr::StoreGlobal(4), 0)),
            EffectSummary::default(),
        ];
        let edges = vec![vec![1], vec![2], vec![1]];
        let cyclic = vec![false, true, true];
        let solved = solve(intra, &edges, &cyclic, &[vec![1, 2], vec![0]]);
        assert!(solved[1].unknown && solved[1].recursive);
        assert!(solved[0].unknown, "caller inherits the cycle's top");
        assert_eq!(
            solved[0].global_writes.get(&0),
            Some(&(4, 4)),
            "best-effort footprint still propagates"
        );
        assert!(!solved[0].recursive, "recursion is not inherited");
    }

    #[test]
    fn remote_sites_stay_local() {
        let mut callee = EffectSummary::default();
        callee.record_remote_site(0x40);
        let mut caller = EffectSummary::default();
        caller.join(&callee);
        assert!(caller.calls_remote);
        assert!(caller.remote_sites.is_empty(), "sites locate own seams");
    }
}
