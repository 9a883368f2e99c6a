//! The analyses: stack-depth abstract interpretation, call-target
//! resolution, descriptor inversion, recursion-cycle detection and the
//! frame-depth bound.
//!
//! The depth domain is intervals `[lo, hi]` joined at merge points;
//! calls are resolved statically and treated pushdown-style — a call
//! site's successor depth is the callee's proven return arity, not a
//! merge over every return in the program — which is what makes the
//! bound exact on straight-line code.

use std::collections::{HashMap, HashSet, VecDeque};

use fpc_core::{Context, ContextWord};
use fpc_isa::Instr;
use fpc_vm::{gft_entries_for, Image};

use crate::effects::{solve, EffectSummary};
use crate::procs::{discover, Discovery};
use crate::report::{Cycle, DiagKind, Diagnostic, ProcSummary, TargetFault, VerifyReport};
use crate::VerifyOptions;

/// Fixpoint state per op: `None` = unreachable, else the entry-depth
/// interval `[lo, hi]`.
type OpStates = Vec<Option<(u32, u32)>>;

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

/// A statically resolved call site.
enum Site {
    /// Callee proc ids (arity-consistent, non-empty).
    Procs(Vec<usize>),
    /// Unusable: the diagnostics to emit at this pc.
    Bad(Vec<DiagKind>),
}

/// One step's outcome: successor op indices with their entry
/// intervals, plus any diagnostics the op raises at this interval.
struct Step {
    succs: Vec<(usize, (u32, u32))>,
    diags: Vec<DiagKind>,
    /// Return depth interval when the op is a `RET` with a consistent
    /// depth.
    ret: Option<(u32, u32)>,
    /// Depth the op can attain (post-state upper bound), for the
    /// max-stack summary.
    reach: u32,
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
    /// Per-proc, per-op-index resolved call sites.
    sites: Vec<HashMap<usize, Site>>,
    /// Per-proc, op indices of `EXTERNALCALL`s routed through remote
    /// descriptors (the effect analysis's remote seams).
    remote: Vec<HashSet<usize>>,
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
            sites: Vec::new(),
            remote: Vec::new(),
            arity: vec![Arity::Bottom; d.procs.len()],
            image,
            d,
            limit,
            residue,
        };
        let mut diagnostics = std::mem::take(&mut a.d.diagnostics);
        a.resolve_sites(&mut diagnostics);
        a.scan_descriptors(&mut diagnostics);
        a.arity_fixpoint();
        a.final_pass(diagnostics)
    }

    fn diag(&self, pid: usize, pc: u32, kind: DiagKind) -> Diagnostic {
        let p = &self.d.procs[pid];
        let rendered = p
            .bounds
            .get(&pc)
            .map(|&i| format!("c{:#06x}: {}", pc, p.ops[i].1))
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
        let mut sites: Vec<HashMap<usize, Site>> = Vec::with_capacity(self.d.procs.len());
        let mut remote: Vec<HashSet<usize>> = Vec::with_capacity(self.d.procs.len());
        for pid in 0..self.d.procs.len() {
            let mut map = HashMap::new();
            let mut remote_map = HashSet::new();
            for (idx, &(off, instr, _len)) in self.d.procs[pid].ops.iter().enumerate() {
                let site = match instr {
                    Instr::LocalCall(k) => Some(self.resolve_local(pid, k)),
                    Instr::ExternalCall(k) => Some(self.resolve_external(pid, k)),
                    Instr::DirectCall(addr) => Some(self.resolve_direct(addr as u64)),
                    Instr::ShortDirectCall(disp) => {
                        Some(self.resolve_direct((off as i64 + disp as i64) as u64))
                    }
                    _ => None,
                };
                if let Some(site) = site {
                    if let Site::Bad(kinds) = &site {
                        for k in kinds {
                            diagnostics.push(self.diag(pid, off, k.clone()));
                        }
                    }
                    // An EXTERNALCALL through a remote descriptor: the
                    // local stub carries the proof, but flag the seam
                    // as an informational note.
                    if let Instr::ExternalCall(k) = instr {
                        let seg = self.d.procs[pid].seg;
                        for ri in self.image.remote_imports.iter().filter(|ri| {
                            ri.lv_index == k
                                && (ri.module == seg
                                    || self.image.modules[ri.module].code_of == Some(seg))
                        }) {
                            remote_map.insert(idx);
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
                    map.insert(idx, site);
                }
            }
            sites.push(map);
            remote.push(remote_map);
        }
        self.sites = sites;
        self.remote = remote;
    }

    fn arity_checked(&self, pids: Vec<usize>, target: u32) -> Site {
        let first = self.d.procs[pids[0]].nargs;
        if pids.iter().any(|&p| self.d.procs[p].nargs != first) {
            return Site::Bad(vec![DiagKind::BadCallTarget {
                target,
                fault: TargetFault::ArityDisagrees,
            }]);
        }
        Site::Procs(pids)
    }

    fn resolve_local(&self, pid: usize, k: u8) -> Site {
        let seg = self.d.procs[pid].seg;
        if (k as u16) < self.image.modules[seg].nprocs {
            match self.d.by_ref.get(&(seg, k as u16)) {
                Some(&callee) => self.arity_checked(vec![callee], k as u32),
                None => Site::Bad(vec![DiagKind::BadCallTarget {
                    target: k as u32,
                    fault: TargetFault::NotAHeader,
                }]),
            }
        } else {
            Site::Bad(vec![DiagKind::BadCallTarget {
                target: k as u32,
                fault: TargetFault::EvIndexOutOfRange,
            }])
        }
    }

    fn resolve_external(&self, pid: usize, k: u8) -> Site {
        // The executing global frame can belong to the owner or to any
        // instance sharing the segment; every candidate's link vector
        // must resolve, and all resolutions must agree on arity.
        let seg = self.d.procs[pid].seg;
        let mut pids = Vec::new();
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
            match self.d.by_ref.get(&(owner, t.ev_index)) {
                Some(&callee) => {
                    if !pids.contains(&callee) {
                        pids.push(callee);
                    }
                }
                None => bad.push(DiagKind::BadCallTarget {
                    target: k as u32,
                    fault: TargetFault::NotAHeader,
                }),
            }
        }
        if !bad.is_empty() {
            Site::Bad(bad)
        } else if pids.is_empty() {
            Site::Bad(vec![DiagKind::BadCallTarget {
                target: k as u32,
                fault: TargetFault::LvIndexOutOfRange,
            }])
        } else {
            self.arity_checked(pids, k as u32)
        }
    }

    fn resolve_direct(&self, addr: u64) -> Site {
        if addr >= self.image.code.len() as u64 {
            return Site::Bad(vec![DiagKind::BadCallTarget {
                target: addr as u32,
                fault: TargetFault::OutOfRange,
            }]);
        }
        match self.d.by_header.get(&(addr as u32)) {
            Some(&callee) => self.arity_checked(vec![callee], addr as u32),
            None => Site::Bad(vec![DiagKind::BadCallTarget {
                target: addr as u32,
                fault: TargetFault::NotAHeader,
            }]),
        }
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
                let owner = m.code_of.unwrap_or(mi);
                return self.d.by_ref.get(&(owner, ev)).copied();
            }
        }
        None
    }

    /// Optimistic fixpoint over return arities: procedures start as
    /// `Bottom` ("never returns"), so calls into not-yet-proven
    /// callees do not poison their callers; each round re-analyses
    /// every body under the current assumptions. The lattice has
    /// height two per procedure, so the loop is linearly bounded.
    fn arity_fixpoint(&mut self) {
        let n = self.d.procs.len();
        for _round in 0..(2 * n + 2) {
            let mut changed = false;
            for pid in 0..n {
                let (_, ret, _) = self.dataflow(pid);
                let joined = self.arity[pid].join(ret);
                if joined != self.arity[pid] {
                    self.arity[pid] = joined;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
        debug_assert!(false, "arity fixpoint did not converge");
    }

    /// One op's transfer function at interval `(lo, hi)`.
    fn step(&self, pid: usize, idx: usize, lo: u32, hi: u32) -> Step {
        let p = &self.d.procs[pid];
        let (off, instr, len) = p.ops[idx];
        let mut diags = Vec::new();
        let mut succs = Vec::new();
        let mut ret = None;
        let mut reach = hi;

        if let Some(slot) = local_slot(instr) {
            if p.capacity > 0 && slot >= p.capacity {
                diags.push(DiagKind::SizeClassMismatch {
                    fsi: p.fsi,
                    capacity: p.capacity,
                    slot,
                });
            }
        }

        // Fallthrough helper: the next linear offset is the next op,
        // the opaque tail, or the body end.
        let fall = |interval: (u32, u32), diags: &mut Vec<DiagKind>, succs: &mut Vec<_>| {
            let next = off + len as u32;
            if let Some(&i) = p.bounds.get(&next) {
                succs.push((i, interval));
            } else if p.opaque == Some(next) {
                diags.push(DiagKind::Undecodable { at: next });
            } else {
                diags.push(DiagKind::FallsOffEnd);
            }
        };
        // Jump-edge helper: targets must be decoded boundaries inside
        // the body.
        let jump =
            |target: i64, interval: (u32, u32), diags: &mut Vec<DiagKind>, succs: &mut Vec<_>| {
                if target < p.body_start as i64 || target >= p.body_end as i64 {
                    diags.push(DiagKind::JumpOutOfBody { target });
                    return;
                }
                let t = target as u32;
                if let Some(&i) = p.bounds.get(&t) {
                    succs.push((i, interval));
                } else if p.opaque.is_some_and(|o| t >= o) {
                    diags.push(DiagKind::Undecodable { at: t });
                } else {
                    diags.push(DiagKind::MidInstructionJump { target: t });
                }
            };

        match instr {
            Instr::Jump(d) => jump(off as i64 + d as i64, (lo, hi), &mut diags, &mut succs),
            Instr::JumpZero(d) | Instr::JumpNotZero(d) => {
                if lo < 1 {
                    diags.push(DiagKind::StackUnderflow { depth: lo, pops: 1 });
                } else {
                    let after = (lo - 1, hi - 1);
                    jump(off as i64 + d as i64, after, &mut diags, &mut succs);
                    fall(after, &mut diags, &mut succs);
                }
            }
            Instr::LocalCall(_)
            | Instr::ExternalCall(_)
            | Instr::DirectCall(_)
            | Instr::ShortDirectCall(_) => match self.sites[pid].get(&idx) {
                Some(Site::Procs(targets)) => {
                    let nargs = self.d.procs[targets[0]].nargs;
                    if lo != hi || lo != nargs {
                        diags.push(DiagKind::CallDepthMismatch { lo, hi, nargs });
                    } else {
                        let joined = targets
                            .iter()
                            .fold(Arity::Bottom, |a, &t| a.join(self.arity[t]));
                        match joined {
                            // Never returns: the call is terminal.
                            Arity::Bottom => {}
                            Arity::Known(r) => {
                                if r > self.limit {
                                    diags.push(DiagKind::StackOverflow {
                                        depth: r,
                                        limit: self.limit,
                                    });
                                } else {
                                    reach = reach.max(r);
                                    fall((r, r), &mut diags, &mut succs);
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
                Some(Site::Bad(_)) => {}
                None => unreachable!("call instructions always get a site entry"),
            },
            Instr::Ret => {
                ret = Some((lo, hi));
                if lo != hi {
                    diags.push(DiagKind::InconsistentReturnArity {
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
                    diags.push(DiagKind::XferDepth { lo, hi });
                } else {
                    fall((1, 1), &mut diags, &mut succs);
                }
            }
            Instr::Trap(_) | Instr::Halt => {}
            _ => {
                let (pops, pushes) = effect(instr).expect("control ops matched above");
                if lo < pops {
                    diags.push(DiagKind::StackUnderflow { depth: lo, pops });
                } else {
                    let (alo, ahi) = (lo - pops + pushes, hi - pops + pushes);
                    if ahi > self.limit {
                        diags.push(DiagKind::StackOverflow {
                            depth: ahi,
                            limit: self.limit,
                        });
                    } else {
                        reach = reach.max(ahi);
                        fall((alo, ahi), &mut diags, &mut succs);
                    }
                }
            }
        }
        Step {
            succs,
            diags,
            ret,
            reach,
        }
    }

    /// Runs the worklist dataflow over one body. Returns the fixpoint
    /// states (entry interval per op), the joined return arity, and
    /// the maximum attainable depth.
    fn dataflow(&self, pid: usize) -> (OpStates, Arity, Option<u32>) {
        let p = &self.d.procs[pid];
        let entry = if self.image.bank_args { 0 } else { p.nargs };
        let mut state: Vec<Option<(u32, u32)>> = vec![None; p.ops.len()];
        let mut max_depth = None;
        if p.ops.is_empty() {
            return (state, Arity::Bottom, max_depth);
        }
        if entry > self.limit {
            // Entry alone overflows; the body is never soundly
            // enterable, so nothing further is provable.
            return (state, Arity::Bottom, Some(entry));
        }
        max_depth = Some(entry);
        state[0] = Some((entry, entry));
        let mut wl = VecDeque::from([0usize]);
        let mut ret = Arity::Bottom;
        while let Some(idx) = wl.pop_front() {
            let (lo, hi) = state[idx].expect("queued ops have state");
            let step = self.step(pid, idx, lo, hi);
            max_depth = Some(max_depth.unwrap_or(0).max(step.reach));
            if let Some((rlo, rhi)) = step.ret {
                ret = ret.join(if rlo == rhi {
                    Arity::Known(rlo)
                } else {
                    Arity::Conflict
                });
            }
            for (succ, (slo, shi)) in step.succs {
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
        (state, ret, max_depth)
    }

    /// The final pass: dataflow once more under the fixpoint arities,
    /// then sweep every reachable op emitting diagnostics from the
    /// settled states, and assemble the report.
    fn final_pass(&mut self, mut diagnostics: Vec<Diagnostic>) -> VerifyReport {
        let n = self.d.procs.len();
        let mut summaries = Vec::with_capacity(n);
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut intra: Vec<EffectSummary> = vec![EffectSummary::default(); n];
        // Dead-store evidence, keyed by code segment (an instance runs
        // its owner's code, so reads through any sharing frame count).
        let mut seg_reads: HashMap<usize, HashSet<u32>> = HashMap::new();
        let mut seg_exposed: HashSet<usize> = HashSet::new();
        let mut global_stores: Vec<(usize, u32, usize, u32)> = Vec::new();
        let mut indirect_reads = false;
        for (pid, out_edges) in edges.iter_mut().enumerate() {
            let p = &self.d.procs[pid];
            let (state, ret, max_depth) = self.dataflow(pid);
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
                let Some((lo, hi)) = *st else {
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
                let step = self.step(pid, idx, lo, hi);
                let off = p.ops[idx].0;
                for kind in step.diags {
                    diagnostics.push(self.diag(pid, off, kind));
                }
                let instr = p.ops[idx].1;
                intra[pid].record(instr, p.seg);
                if self.remote[pid].contains(&idx) {
                    intra[pid].record_remote_site(off);
                }
                match instr {
                    Instr::LoadGlobal(s) => {
                        seg_reads.entry(p.seg).or_default().insert(s as u32);
                    }
                    Instr::StoreGlobal(s) => global_stores.push((pid, off, p.seg, s as u32)),
                    Instr::LoadGlobalAddr(_) => {
                        seg_exposed.insert(p.seg);
                    }
                    Instr::Read | Instr::LoadIndex => indirect_reads = true,
                    _ => {}
                }
                if let Some((rlo, rhi)) = step.ret {
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
                if let Some(Site::Procs(targets)) = self.sites[pid].get(&idx) {
                    for &t in targets {
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
                max_stack: max_depth,
                ret_arity: match ret {
                    Arity::Known(r) => Some(r),
                    _ => None,
                },
                calls: Vec::new(),
            });
        }
        for (pid, e) in edges.iter().enumerate() {
            summaries[pid].calls = e.clone();
        }

        let cycles = find_cycles(&edges);
        let mut cyclic = vec![false; n];
        for c in &cycles {
            for &pid in c {
                cyclic[pid] = true;
            }
        }
        let effects = solve(&intra, &edges, &cyclic);
        // A stored slot never loaded through its segment is a dead
        // store — but only when no alias channel could read it: no
        // indirect reads anywhere in the image, and the segment never
        // takes a global's address.
        if !indirect_reads {
            for &(pid, off, seg, slot) in &global_stores {
                if !seg_exposed.contains(&seg)
                    && !seg_reads.get(&seg).is_some_and(|s| s.contains(&slot))
                {
                    diagnostics.push(self.diag(pid, off, DiagKind::DeadStore { slot }));
                }
            }
        }
        let frame_bound = self.frame_bound(&edges, &cycles);
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
    /// unknown.
    fn frame_bound(&self, edges: &[Vec<usize>], cycles: &[Cycle]) -> Option<u32> {
        let entry_owner = {
            let e = self.image.entry;
            let m = self.image.modules.get(e.module)?;
            (m.code_of.unwrap_or(e.module), e.ev_index)
        };
        let &entry = self.d.by_ref.get(&entry_owner)?;
        let mut cyclic = vec![false; self.d.procs.len()];
        for c in cycles {
            for &pid in c {
                cyclic[pid] = true;
            }
        }
        // Memoised DFS over the DAG; a cyclic node reachable from the
        // entry voids the bound.
        fn cost(
            pid: usize,
            edges: &[Vec<usize>],
            cyclic: &[bool],
            frame: &dyn Fn(usize) -> u32,
            memo: &mut [Option<Option<u32>>],
        ) -> Option<u32> {
            if cyclic[pid] {
                return None;
            }
            if let Some(m) = memo[pid] {
                return m;
            }
            let mut deepest = 0;
            let mut r = Some(());
            for &t in &edges[pid] {
                match cost(t, edges, cyclic, frame, memo) {
                    Some(c) => deepest = deepest.max(c),
                    None => {
                        r = None;
                        break;
                    }
                }
            }
            let out = r.map(|()| frame(pid) + deepest);
            memo[pid] = Some(out);
            out
        }
        let classes = &self.image.classes;
        let procs = &self.d.procs;
        let frame = |pid: usize| -> u32 {
            let fsi = procs[pid].fsi;
            if (fsi as usize) < classes.len() {
                classes.size_of(fsi)
            } else {
                0
            }
        };
        let mut memo = vec![None; self.d.procs.len()];
        cost(entry, edges, &cyclic, &frame, &mut memo)
    }
}

/// Tarjan strongly-connected components; returns components that are
/// actual cycles (size > 1, or a self-loop).
fn find_cycles(edges: &[Vec<usize>]) -> Vec<Cycle> {
    struct T<'a> {
        edges: &'a [Vec<usize>],
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on: Vec<bool>,
        stack: Vec<usize>,
        next: u32,
        out: Vec<Cycle>,
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
            if comp.len() > 1 || t.edges[v].contains(&v) {
                t.out.push(comp);
            }
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
