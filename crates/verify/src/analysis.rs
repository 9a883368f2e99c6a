//! The analyses: stack-depth abstract interpretation, call-target
//! resolution, descriptor inversion, recursion-cycle detection and the
//! frame-depth bound.
//!
//! The depth domain is intervals `[lo, hi]` joined at merge points;
//! calls are resolved statically and treated pushdown-style — a call
//! site's successor depth is the callee's proven return arity, not a
//! merge over every return in the program — which is what makes the
//! bound exact on straight-line code. A body's dataflow re-runs only
//! when a callee's arity changed, and stepping an op never allocates.

use std::collections::VecDeque;

use fpc_core::{Context, ContextWord};
use fpc_isa::Instr;
use fpc_vm::{gft_entries_for, Image};

use crate::effects::{solve, EffectSummary};
use crate::procs::{discover, Discovery};
use crate::report::{Cycle, DiagKind, Diagnostic, ProcSummary, TargetFault, VerifyReport};
use crate::VerifyOptions;

/// Return-arity lattice: `Bottom` (never returns) < `Known(n)` <
/// `Conflict`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    Bottom,
    Known(u32),
    Conflict,
}

impl Arity {
    fn join(self, other: Arity) -> Arity {
        match (self, other) {
            (Arity::Bottom, a) | (a, Arity::Bottom) => a,
            (Arity::Known(a), Arity::Known(b)) if a == b => Arity::Known(a),
            _ => Arity::Conflict,
        }
    }
}

/// An op's statically resolved call site.
#[derive(Debug, Clone, Copy)]
enum Site {
    /// Not a call.
    None,
    /// Callee proc ids `callees[from..to]` (arity-consistent,
    /// non-empty).
    Procs { from: usize, to: usize },
    /// Unusable, and already diagnosed: a path through it ends.
    Bad,
}

/// One step's outcome: successor op indices with their entry
/// intervals (the first `nsuccs` of `succs`). The op's diagnostics go
/// to `diag`, in a fixed order.
struct Step<'s, D> {
    succs: [(usize, (u32, u32)); 2],
    nsuccs: usize,
    /// Return depth interval when the op is a `RET` with a consistent
    /// depth.
    ret: Option<(u32, u32)>,
    /// Depth the op can attain (post-state upper bound), for the
    /// max-stack summary.
    reach: u32,
    diag: &'s mut D,
}

impl<D: FnMut(DiagKind)> Step<'_, D> {
    /// An edge to op `to` entered at `interval`, or the diagnostic for
    /// why there is none.
    fn edge(&mut self, to: Result<usize, DiagKind>, interval: (u32, u32)) {
        match to {
            Ok(i) => {
                self.succs[self.nsuccs] = (i, interval);
                self.nsuccs += 1;
            }
            Err(kind) => (self.diag)(kind),
        }
    }
}

/// Every body's last dataflow: joined return arity, maximum
/// attainable depth, and per op (indexed like the per-op tables)
/// `None` = unreachable, else the entry-depth interval `[lo, hi]`.
struct Flows {
    states: Vec<Option<(u32, u32)>>,
    ret: Vec<Arity>,
    max_depth: Vec<Option<u32>>,
}

/// Plain `(pops, pushes)` for ops with no control effect, `None` for
/// the control ops handled in [`Analysis::step`].
fn effect(i: Instr) -> Option<(u32, u32)> {
    use Instr::*;
    Some(match i {
        LoadLocal(_) | LoadLocalAddr(_) | LoadGlobalAddr(_) | LoadGlobal(_) | LoadImm(_) => (0, 1),
        StoreLocal(_) | StoreGlobal(_) => (1, 0),
        Read => (1, 1),
        Write => (2, 0),
        LoadIndex => (2, 1),
        StoreIndex => (3, 0),
        Add | Sub | Mul | Div | Mod | And | Or | Xor | Shl | Shr => (2, 1),
        CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe => (2, 1),
        Neg | AddImm(_) => (1, 1),
        Dup => (1, 2),
        Drop => (1, 0),
        Exch => (2, 2),
        AllocRecord(_) => (0, 1),
        FreeRecord => (1, 0),
        NewContext | Spawn | Donate | BindModule => (1, 1),
        FreeContext | Out | Failover => (1, 0),
        ReturnContext | RemoteInfo => (0, 1),
        ProcessSwitch | Noop => (0, 0),
        Jump(_) | JumpZero(_) | JumpNotZero(_) | ExternalCall(_) | LocalCall(_) | DirectCall(_)
        | ShortDirectCall(_) | Ret | Xfer | Trap(_) | Halt => return None,
    })
}

/// The local-slot index an instruction names, for the size-class
/// capacity check.
fn local_slot(i: Instr) -> Option<u32> {
    match i {
        Instr::LoadLocal(k) | Instr::StoreLocal(k) | Instr::LoadLocalAddr(k) => Some(k as u32),
        _ => None,
    }
}

/// Headroom withheld from the stack limit when the image transfers:
/// an `XFER` entering a creation context leaves its argument record
/// riding the processor stack *below* the created frame's own depth
/// accounting (`perform_xfer` is exempt from the strict stack check
/// for exactly this reason), so the physical stack can run up to this
/// many words above the per-procedure model. Matches the headroom the
/// code generator reserves (`fpc_compiler::MAX_DEPTH` = 14 of 16).
const XFER_RESIDUE_WORDS: u32 = 2;

pub(crate) struct Analysis<'a> {
    image: &'a Image,
    d: Discovery,
    limit: u32,
    residue: u32,
    /// Per op (image-wide numbering, see `ProcInfo::first_op`): its
    /// resolved call site.
    sites: Vec<Site>,
    /// The callee lists `Site::Procs` ranges index.
    callees: Vec<usize>,
    /// Per op: an `EXTERNALCALL` routed through a remote descriptor
    /// (the effect analysis's remote seams).
    remote: Vec<bool>,
    arity: Vec<Arity>,
}

impl<'a> Analysis<'a> {
    pub fn run(image: &'a Image, opts: &VerifyOptions) -> VerifyReport {
        let d = discover(image);
        let transfers = d
            .procs
            .iter()
            .any(|p| p.ops.iter().any(|&(_, i, _)| matches!(i, Instr::Xfer)));
        let residue = if transfers { XFER_RESIDUE_WORDS } else { 0 };
        let limit = (opts.stack_depth as u32).saturating_sub(residue);
        let mut a = Analysis {
            sites: vec![Site::None; d.total_ops],
            callees: Vec::new(),
            remote: vec![false; d.total_ops],
            arity: vec![Arity::Bottom; d.procs.len()],
            image,
            d,
            limit,
            residue,
        };
        let mut diagnostics = std::mem::take(&mut a.d.diagnostics);
        a.resolve_sites(&mut diagnostics);
        a.scan_descriptors(&mut diagnostics);
        let flows = a.arity_fixpoint();
        a.final_pass(diagnostics, flows)
    }

    fn diag(&self, pid: usize, pc: u32, kind: DiagKind) -> Diagnostic {
        let p = &self.d.procs[pid];
        let rendered = p
            .op_at(pc)
            .map(|i| format!("c{:#06x}: {}", pc, p.ops[i].1))
            .unwrap_or_default();
        Diagnostic {
            module: p.seg,
            module_name: self.image.modules[p.seg].name.clone(),
            ev_index: p.ev_index,
            pc,
            rendered,
            kind,
        }
    }

    /// Resolves every call site in every body to proc ids, collecting
    /// diagnostics for unusable targets (these are static table facts,
    /// flagged whether or not the site is reachable).
    fn resolve_sites(&mut self, diagnostics: &mut Vec<Diagnostic>) {
        for pid in 0..self.d.procs.len() {
            let first_op = self.d.procs[pid].first_op;
            for idx in 0..self.d.procs[pid].ops.len() {
                let (off, instr, _len) = self.d.procs[pid].ops[idx];
                let from = self.callees.len();
                let resolved = match instr {
                    Instr::LocalCall(k) => self.resolve_local(pid, k),
                    Instr::ExternalCall(k) => self.resolve_external(pid, k),
                    Instr::DirectCall(addr) => self.resolve_direct(addr as u64),
                    Instr::ShortDirectCall(disp) => {
                        self.resolve_direct((off as i64 + disp as i64) as u64)
                    }
                    _ => continue,
                };
                let site = match resolved {
                    Ok(()) => Site::Procs {
                        from,
                        to: self.callees.len(),
                    },
                    Err(kinds) => {
                        self.callees.truncate(from);
                        for k in kinds {
                            diagnostics.push(self.diag(pid, off, k));
                        }
                        Site::Bad
                    }
                };
                self.sites[first_op + idx] = site;
                // An EXTERNALCALL through a remote descriptor: the
                // local stub carries the proof, but flag the seam as
                // an informational note.
                if let Instr::ExternalCall(k) = instr {
                    let seg = self.d.procs[pid].seg;
                    for ri in self.image.remote_imports.iter().filter(|ri| {
                        ri.lv_index == k
                            && (ri.module == seg
                                || self.image.modules[ri.module].code_of == Some(seg))
                    }) {
                        self.remote[first_op + idx] = true;
                        diagnostics.push(self.diag(
                            pid,
                            off,
                            DiagKind::RemoteTarget {
                                lv_index: k as u32,
                                node: ri.node,
                                name: ri.name.clone(),
                            },
                        ));
                    }
                }
            }
        }
    }

    fn resolve_local(&mut self, pid: usize, k: u8) -> Result<(), Vec<DiagKind>> {
        let seg = self.d.procs[pid].seg;
        let fault = if (k as u16) >= self.image.modules[seg].nprocs {
            TargetFault::EvIndexOutOfRange
        } else if let Some(callee) = self.d.by_ref(seg, k as u16) {
            self.callees.push(callee);
            return Ok(());
        } else {
            TargetFault::NotAHeader
        };
        Err(vec![DiagKind::BadCallTarget {
            target: k as u32,
            fault,
        }])
    }

    fn resolve_external(&mut self, pid: usize, k: u8) -> Result<(), Vec<DiagKind>> {
        // The executing global frame can belong to the owner or to any
        // instance sharing the segment; every candidate's link vector
        // must resolve, and all resolutions must agree on arity.
        let seg = self.d.procs[pid].seg;
        let from = self.callees.len();
        let mut bad = Vec::new();
        for (mi, m) in self.image.modules.iter().enumerate() {
            if mi != seg && m.code_of != Some(seg) {
                continue;
            }
            let Some(&t) = m.lv.get(k as usize) else {
                bad.push(DiagKind::BadCallTarget {
                    target: k as u32,
                    fault: TargetFault::LvIndexOutOfRange,
                });
                continue;
            };
            let Some(tm) = self.image.modules.get(t.module) else {
                bad.push(DiagKind::UnboundModule {
                    lv_index: k as u32,
                    module: t.module,
                });
                continue;
            };
            if t.ev_index >= tm.nprocs {
                bad.push(DiagKind::UnboundModule {
                    lv_index: k as u32,
                    module: t.module,
                });
                continue;
            }
            let owner = tm.code_of.unwrap_or(t.module);
            match self.d.by_ref(owner, t.ev_index) {
                Some(callee) if self.callees[from..].contains(&callee) => {}
                Some(callee) => self.callees.push(callee),
                None => bad.push(DiagKind::BadCallTarget {
                    target: k as u32,
                    fault: TargetFault::NotAHeader,
                }),
            }
        }
        if !bad.is_empty() {
            return Err(bad);
        }
        let callees = &self.callees[from..];
        let fault = match callees.first() {
            None => TargetFault::LvIndexOutOfRange,
            Some(&c) => {
                let nargs = self.d.procs[c].nargs;
                if callees.iter().all(|&p| self.d.procs[p].nargs == nargs) {
                    return Ok(());
                }
                TargetFault::ArityDisagrees
            }
        };
        Err(vec![DiagKind::BadCallTarget {
            target: k as u32,
            fault,
        }])
    }

    fn resolve_direct(&mut self, addr: u64) -> Result<(), Vec<DiagKind>> {
        let fault = if addr >= self.image.code.len() as u64 {
            TargetFault::OutOfRange
        } else if let Some(callee) = self.d.by_header(addr as u32) {
            self.callees.push(callee);
            return Ok(());
        } else {
            TargetFault::NotAHeader
        };
        Err(vec![DiagKind::BadCallTarget {
            target: addr as u32,
            fault,
        }])
    }

    /// Flags `LOADIMM`-fed context creations whose descriptor word
    /// cannot name any procedure in the image.
    fn scan_descriptors(&self, diagnostics: &mut Vec<Diagnostic>) {
        for (pid, p) in self.d.procs.iter().enumerate() {
            for w in p.ops.windows(2) {
                let (off, Instr::LoadImm(word), _) = w[0] else {
                    continue;
                };
                if !matches!(w[1].1, Instr::NewContext | Instr::Spawn) {
                    continue;
                }
                if self.resolve_descriptor(word).is_none() {
                    diagnostics.push(self.diag(pid, off, DiagKind::BadDescriptor { word }));
                }
            }
        }
    }

    /// Inverts a packed procedure-descriptor word back to a proc id.
    fn resolve_descriptor(&self, word: u16) -> Option<usize> {
        let Context::Proc(p) = Context::from(ContextWord::from_raw(word)) else {
            return None;
        };
        let env = p.env().get();
        let code = p.code().get() as u16;
        for (mi, m) in self.image.modules.iter().enumerate() {
            let base = self.image.gft_base(mi);
            let n = gft_entries_for(m.nprocs);
            if env >= base && env < base + n {
                let ev = (env - base) * 32 + code;
                if ev >= m.nprocs {
                    return None;
                }
                return self.d.by_ref(m.code_of.unwrap_or(mi), ev);
            }
        }
        None
    }

    /// Optimistic fixpoint over return arities: procedures start as
    /// `Bottom` ("never returns"), so calls into not-yet-proven
    /// callees do not poison their callers. Each round re-analyses, in
    /// proc order, every body that has not yet run under its callees'
    /// current arities (its own, for a self-call); any other body would
    /// only reproduce its last result. The lattice has height two per
    /// procedure, so the loop is linearly bounded.
    fn arity_fixpoint(&mut self) -> Flows {
        let n = self.d.procs.len();
        let mut flows = Flows {
            states: vec![None; self.d.total_ops],
            ret: vec![Arity::Bottom; n],
            max_depth: vec![None; n],
        };
        let mut wl = VecDeque::new();
        // Runs are numbered from 1: `ran[p]` is the run that last
        // analysed body `p`, `moved[p]` the run that last changed its
        // arity (0 = never).
        let (mut runs, mut ran, mut moved) = (0, vec![0; n], vec![0; n]);
        for _round in 0..(2 * n + 2) {
            let mut changed = false;
            for pid in 0..n {
                let p = &self.d.procs[pid];
                let stale = ran[pid] == 0
                    || self.sites[p.first_op..p.first_op + p.ops.len()]
                        .iter()
                        .any(|site| match *site {
                            Site::Procs { from, to } => {
                                self.callees[from..to].iter().any(|&t| moved[t] >= ran[pid])
                            }
                            _ => false,
                        });
                if !stale {
                    continue;
                }
                runs += 1;
                ran[pid] = runs;
                self.dataflow(pid, &mut flows, &mut wl);
                let joined = self.arity[pid].join(flows.ret[pid]);
                if joined != self.arity[pid] {
                    self.arity[pid] = joined;
                    moved[pid] = runs;
                    changed = true;
                }
            }
            if !changed {
                return flows;
            }
        }
        debug_assert!(false, "arity fixpoint did not converge");
        flows
    }

    /// One op's transfer function at interval `(lo, hi)`. Its
    /// diagnostics go to `diag`, in a fixed order.
    fn step<'s, D: FnMut(DiagKind)>(
        &self,
        pid: usize,
        idx: usize,
        (lo, hi): (u32, u32),
        diag: &'s mut D,
    ) -> Step<'s, D> {
        let p = &self.d.procs[pid];
        let (off, instr, len) = p.ops[idx];
        let mut step = Step {
            succs: [(0, (0, 0)); 2],
            nsuccs: 0,
            ret: None,
            reach: hi,
            diag,
        };

        if let Some(slot) = local_slot(instr) {
            if p.capacity > 0 && slot >= p.capacity {
                (step.diag)(DiagKind::SizeClassMismatch {
                    fsi: p.fsi,
                    capacity: p.capacity,
                    slot,
                });
            }
        }

        // Fallthrough: the next linear offset is the next op, the
        // opaque tail, or the body end.
        let next = off + len as u32;
        let fall = p.op_at(next).ok_or(if p.opaque == Some(next) {
            DiagKind::Undecodable { at: next }
        } else {
            DiagKind::FallsOffEnd
        });
        // Jump edges: targets must be decoded boundaries inside the
        // body.
        let jump = |target: i64| {
            if target < p.body_start as i64 || target >= p.body_end as i64 {
                return Err(DiagKind::JumpOutOfBody { target });
            }
            let t = target as u32;
            p.op_at(t).ok_or(if p.opaque.is_some_and(|o| t >= o) {
                DiagKind::Undecodable { at: t }
            } else {
                DiagKind::MidInstructionJump { target: t }
            })
        };

        match instr {
            Instr::Jump(d) => step.edge(jump(off as i64 + d as i64), (lo, hi)),
            Instr::JumpZero(d) | Instr::JumpNotZero(d) => {
                if lo < 1 {
                    (step.diag)(DiagKind::StackUnderflow { depth: lo, pops: 1 });
                } else {
                    let after = (lo - 1, hi - 1);
                    step.edge(jump(off as i64 + d as i64), after);
                    step.edge(fall, after);
                }
            }
            Instr::LocalCall(_)
            | Instr::ExternalCall(_)
            | Instr::DirectCall(_)
            | Instr::ShortDirectCall(_) => match self.sites[p.first_op + idx] {
                Site::Procs { from, to } => {
                    let targets = &self.callees[from..to];
                    let nargs = self.d.procs[targets[0]].nargs;
                    if lo != hi || lo != nargs {
                        (step.diag)(DiagKind::CallDepthMismatch { lo, hi, nargs });
                    } else {
                        let joined = targets
                            .iter()
                            .fold(Arity::Bottom, |a, &t| a.join(self.arity[t]));
                        match joined {
                            // Never returns: the call is terminal.
                            Arity::Bottom => {}
                            Arity::Known(r) => {
                                if r > self.limit {
                                    (step.diag)(DiagKind::StackOverflow {
                                        depth: r,
                                        limit: self.limit,
                                    });
                                } else {
                                    step.reach = step.reach.max(r);
                                    step.edge(fall, (r, r));
                                }
                            }
                            // The callee's own RETs carry the
                            // inconsistency diagnostic; this path just
                            // stops.
                            Arity::Conflict => {}
                        }
                    }
                }
                // Already diagnosed at resolution; path ends.
                Site::Bad => {}
                Site::None => unreachable!("call instructions always get a site entry"),
            },
            Instr::Ret => {
                step.ret = Some((lo, hi));
                if lo != hi {
                    (step.diag)(DiagKind::InconsistentReturnArity {
                        first: lo,
                        second: hi,
                    });
                }
            }
            Instr::Xfer => {
                // Single-word transfer-record protocol: destination
                // context on top, at most one transferred value below;
                // the partner's transfer leaves exactly one value.
                if lo < 1 || hi > 2 {
                    (step.diag)(DiagKind::XferDepth { lo, hi });
                } else {
                    step.edge(fall, (1, 1));
                }
            }
            Instr::Trap(_) | Instr::Halt => {}
            _ => {
                let (pops, pushes) = effect(instr).expect("control ops matched above");
                if lo < pops {
                    (step.diag)(DiagKind::StackUnderflow { depth: lo, pops });
                } else {
                    let (alo, ahi) = (lo - pops + pushes, hi - pops + pushes);
                    if ahi > self.limit {
                        (step.diag)(DiagKind::StackOverflow {
                            depth: ahi,
                            limit: self.limit,
                        });
                    } else {
                        step.reach = step.reach.max(ahi);
                        step.edge(fall, (alo, ahi));
                    }
                }
            }
        }
        step
    }

    /// Runs the worklist dataflow over one body under the current
    /// arities, leaving its states, joined return arity and maximum
    /// attainable depth in `flows`. `wl` is scratch.
    fn dataflow(&self, pid: usize, flows: &mut Flows, wl: &mut VecDeque<usize>) {
        let p = &self.d.procs[pid];
        let entry = if self.image.bank_args { 0 } else { p.nargs };
        let state = &mut flows.states[p.first_op..p.first_op + p.ops.len()];
        state.fill(None);
        flows.ret[pid] = Arity::Bottom;
        if p.ops.is_empty() {
            flows.max_depth[pid] = None;
            return;
        }
        flows.max_depth[pid] = Some(entry);
        if entry > self.limit {
            // Entry alone overflows; the body is never soundly
            // enterable, so nothing further is provable.
            return;
        }
        state[0] = Some((entry, entry));
        wl.clear();
        wl.push_back(0);
        let mut ret = Arity::Bottom;
        let mut max_depth = entry;
        while let Some(idx) = wl.pop_front() {
            let interval = state[idx].expect("queued ops have state");
            let Step {
                succs,
                nsuccs,
                ret: step_ret,
                reach,
                ..
            } = self.step(pid, idx, interval, &mut |_| {});
            max_depth = max_depth.max(reach);
            if let Some((rlo, rhi)) = step_ret {
                ret = ret.join(if rlo == rhi {
                    Arity::Known(rlo)
                } else {
                    Arity::Conflict
                });
            }
            for &(succ, (slo, shi)) in &succs[..nsuccs] {
                let joined = match state[succ] {
                    None => (slo, shi),
                    Some((olo, ohi)) => (olo.min(slo), ohi.max(shi)),
                };
                if state[succ] != Some(joined) {
                    state[succ] = Some(joined);
                    wl.push_back(succ);
                }
            }
        }
        flows.ret[pid] = ret;
        flows.max_depth[pid] = Some(max_depth);
    }

    /// The final pass: sweep every reachable op of every body's settled
    /// states emitting diagnostics, and assemble the report.
    fn final_pass(&self, mut diagnostics: Vec<Diagnostic>, flows: Flows) -> VerifyReport {
        let n = self.d.procs.len();
        let nmodules = self.image.modules.len();
        let mut summaries = Vec::with_capacity(n);
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut intra: Vec<EffectSummary> = vec![EffectSummary::default(); n];
        // Dead-store evidence, keyed by code segment (an instance runs
        // its owner's code, so reads through any sharing frame count):
        // global slot `s` of segment `m` was loaded at `seg_reads[m * 256 + s]`.
        let mut seg_reads = vec![false; nmodules * 256];
        let mut seg_exposed = vec![false; nmodules];
        let mut global_stores: Vec<(usize, u32, usize, u32)> = Vec::new();
        let mut indirect_reads = false;
        for (pid, out_edges) in edges.iter_mut().enumerate() {
            let p = &self.d.procs[pid];
            let state = &flows.states[p.first_op..p.first_op + p.ops.len()];
            // Entry-point structural problems the dataflow cannot even
            // start on.
            if p.ops.is_empty() {
                if p.opaque == Some(p.body_start) {
                    diagnostics.push(self.diag(
                        pid,
                        p.body_start,
                        DiagKind::Undecodable { at: p.body_start },
                    ));
                } else {
                    diagnostics.push(self.diag(pid, p.body_start, DiagKind::FallsOffEnd));
                }
            } else if !self.image.bank_args && p.nargs > self.limit {
                diagnostics.push(self.diag(
                    pid,
                    p.body_start,
                    DiagKind::StackOverflow {
                        depth: p.nargs,
                        limit: self.limit,
                    },
                ));
            }
            let mut ret_seen: Option<u32> = None;
            let mut in_dead_run = false;
            for (idx, st) in state.iter().enumerate() {
                let Some(interval) = *st else {
                    // Flag the head of each contiguous unreachable run
                    // (only when the body itself was analysable).
                    if !in_dead_run && state[0].is_some() {
                        let at = p.ops[idx].0;
                        diagnostics.push(self.diag(pid, at, DiagKind::UnreachableCode { at }));
                    }
                    in_dead_run = true;
                    continue;
                };
                in_dead_run = false;
                let (off, instr, _) = p.ops[idx];
                let ret = self
                    .step(pid, idx, interval, &mut |kind| {
                        diagnostics.push(self.diag(pid, off, kind))
                    })
                    .ret;
                intra[pid].record(instr, p.seg);
                if self.remote[p.first_op + idx] {
                    intra[pid].record_remote_site(off);
                }
                match instr {
                    Instr::LoadGlobal(s) => seg_reads[p.seg * 256 + s as usize] = true,
                    Instr::StoreGlobal(s) => global_stores.push((pid, off, p.seg, s as u32)),
                    Instr::LoadGlobalAddr(_) => seg_exposed[p.seg] = true,
                    Instr::Read | Instr::LoadIndex => indirect_reads = true,
                    _ => {}
                }
                if let Some((rlo, rhi)) = ret {
                    if rlo == rhi {
                        if let Some(first) = ret_seen {
                            if first != rlo {
                                diagnostics.push(self.diag(
                                    pid,
                                    off,
                                    DiagKind::InconsistentReturnArity { first, second: rlo },
                                ));
                            }
                        } else {
                            ret_seen = Some(rlo);
                        }
                    }
                }
                // Call edges for the graph: only reachable resolved
                // sites.
                if let Site::Procs { from, to } = self.sites[p.first_op + idx] {
                    for &t in &self.callees[from..to] {
                        if !out_edges.contains(&t) {
                            out_edges.push(t);
                        }
                    }
                }
            }
            summaries.push(ProcSummary {
                module: p.seg,
                ev_index: p.ev_index,
                header: p.header,
                nargs: p.nargs,
                fsi: p.fsi,
                max_stack: flows.max_depth[pid],
                ret_arity: match flows.ret[pid] {
                    Arity::Known(r) => Some(r),
                    _ => None,
                },
                calls: Vec::new(),
            });
        }

        let components = components(&edges);
        // Actual cycles: components of size > 1, or a self-loop.
        let cycles: Vec<Cycle> = components
            .iter()
            .filter(|c| c.len() > 1 || edges[c[0]].contains(&c[0]))
            .cloned()
            .collect();
        let mut cyclic = vec![false; n];
        for &pid in cycles.iter().flatten() {
            cyclic[pid] = true;
        }
        let effects = solve(intra, &edges, &cyclic, &components);
        // A stored slot never loaded through its segment is a dead
        // store — but only when no alias channel could read it: no
        // indirect reads anywhere in the image, and the segment never
        // takes a global's address.
        if !indirect_reads {
            for &(pid, off, seg, slot) in &global_stores {
                if !seg_exposed[seg] && !seg_reads[seg * 256 + slot as usize] {
                    diagnostics.push(self.diag(pid, off, DiagKind::DeadStore { slot }));
                }
            }
        }
        let frame_bound = self.frame_bound(&edges, &cyclic, &components);
        for (summary, e) in summaries.iter_mut().zip(edges) {
            summary.calls = e;
        }
        VerifyReport {
            diagnostics,
            procs: summaries,
            cycles,
            stack_limit: self.limit,
            xfer_residue: self.residue,
            frame_words_bound: frame_bound,
            effects,
        }
    }

    /// Longest-chain frame-words bound from the entry procedure over
    /// the resolved call graph; `None` when a cycle is reachable from
    /// the entry (recursion depth is data-dependent) or the entry is
    /// unknown. `components` lists every callee's component before its
    /// callers', so each chain extends already-known ones.
    fn frame_bound(
        &self,
        edges: &[Vec<usize>],
        cyclic: &[bool],
        components: &[Vec<usize>],
    ) -> Option<u32> {
        let e = self.image.entry;
        let m = self.image.modules.get(e.module)?;
        let entry = self.d.by_ref(m.code_of.unwrap_or(e.module), e.ev_index)?;
        let classes = &self.image.classes;
        let mut cost: Vec<Option<u32>> = vec![None; edges.len()];
        for &pid in components.iter().flatten().filter(|&&pid| !cyclic[pid]) {
            let fsi = self.d.procs[pid].fsi;
            let frame = if (fsi as usize) < classes.len() {
                classes.size_of(fsi)
            } else {
                0
            };
            let deepest = edges[pid]
                .iter()
                .try_fold(0, |deepest: u32, &t| cost[t].map(|c| deepest.max(c)));
            cost[pid] = deepest.map(|d| frame + d);
        }
        cost[entry]
    }
}

/// Tarjan strongly-connected components, each listed after every
/// component it has edges into.
fn components(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    struct T<'a> {
        edges: &'a [Vec<usize>],
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on: Vec<bool>,
        stack: Vec<usize>,
        next: u32,
        out: Vec<Vec<usize>>,
    }
    fn strong(t: &mut T, v: usize) {
        t.index[v] = Some(t.next);
        t.low[v] = t.next;
        t.next += 1;
        t.stack.push(v);
        t.on[v] = true;
        for i in 0..t.edges[v].len() {
            let w = t.edges[v][i];
            if t.index[w].is_none() {
                strong(t, w);
                t.low[v] = t.low[v].min(t.low[w]);
            } else if t.on[w] {
                t.low[v] = t.low[v].min(t.index[w].unwrap());
            }
        }
        if Some(t.low[v]) == t.index[v] {
            let mut comp = Vec::new();
            loop {
                let w = t.stack.pop().expect("tarjan stack");
                t.on[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            comp.reverse();
            t.out.push(comp);
        }
    }
    let n = edges.len();
    let mut t = T {
        edges,
        index: vec![None; n],
        low: vec![0; n],
        on: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    for v in 0..n {
        if t.index[v].is_none() {
            strong(&mut t, v);
        }
    }
    t.out
}
