//! The native tier: direct-threaded compilation of every procedure
//! body, checked by default and unchecked under a verifier license.
//!
//! The dispatch ladder below it (byte → predecode) still pays an
//! interpretive dispatch per step. This module adds the third rung:
//! each procedure body of the loaded image is compiled into a chain of
//! pre-monomorphized host handlers ([`NOp`]) with operands inlined and
//! jump targets resolved to op indices — direct-threaded code in safe
//! Rust, no runtime codegen. The tier compiles every body in one pass
//! when it first syncs to the code version (and again after each
//! flush), linking each known call site to its target's compiled entry
//! in the same pass: the binding work is done once, like the paper's
//! early-bound `DIRECTCALL`.
//!
//! # Checks and the license
//!
//! A machine with [`crate::MachineConfig::native`] set runs compiled
//! bursts from its first `run`. Before each op an unarmed burst checks
//! the op's stack effect ([`Effect`], from the one table
//! [`stack_effect`]); when the check fails the burst exits at the op's
//! start and the interpreter raises the byte rung's exact error. A
//! [`NativeLicense`], normally minted from a clean
//! `fpc_verify::Certificate`, carries the verifier's whole-image
//! stack-depth bound; arming under it compiles the check out, and
//! fails unless that bound fits the machine's configured stack limit.
//! Every event that lapses a certificate premise (trap/fault-handler
//! install, `unbind`, `relocate`, `replace_proc`, a remote link) stops
//! the tier for good, armed or not, so a burst never runs under a
//! handler.
//!
//! # Charge-not-perform
//!
//! Native handlers keep every simulated counter bit-identical to byte
//! dispatch. A single-op handler calls the interpreter's own
//! definition of its instruction (`Machine::straight`), so it performs
//! the same counted [`fpc_mem::Memory`] traffic and the same bank paths
//! — a shadow hit is a register access, a diverted indirect reference
//! counts a divert cycle, everything else is one counted reference.
//! Only the superinstructions are written here by hand. No
//! handler charges cycles: the burst charges its fast ops by the
//! interpreter's linear rule once, from the changes of the reference,
//! divert and jump counters. Calls and returns are native instructions
//! too (see *Calls at jump cost* below); anything else with
//! non-trivial accounting (XFER, traps, heap ops, `LoadLocalAddr` under
//! banks, which the `Outlaw` policy traps) falls back to the
//! interpreter's own `step_one`, instruction by instruction, inside the
//! native burst.
//!
//! # Calls at jump cost
//!
//! The paper makes a call cost what a jump costs by binding the target
//! early (`DIRECTCALL`) and predicting the return (the IFU return
//! stack). The tier does the same for its host cost:
//!
//! * **Known targets.** A `DirectCall`, `ShortDirectCall` or
//!   `LocalCall` whose target is fixed by the code bytes is resolved at
//!   compile time into a per-body [`Site`]: header, frame size index
//!   and flags, plus the destination global frame and code base for
//!   direct calls. The handler charges what the table walk would (one
//!   entry-vector read for a local call, nothing for a direct one) and
//!   goes straight to the frame allocation and link. External calls,
//!   and any site whose target did not resolve, walk the tables as the
//!   interpreter does.
//! * **One handler per call discipline.** A burst's calls and returns
//!   are specialised to the machine's allocator (general, AV, AV behind
//!   the frame cache), return stack (on or off) and banks (on or off),
//!   chosen once at burst entry: the four presets have their own, every
//!   other combination takes the generic instance. A known-site call
//!   does only the simulated work (pop the AV list, claim the frame
//!   record, push the return entry, write the GF word, switch
//!   registers) and a return its mirror; the rare cases (an AV trap,
//!   an unbound module, a strict-stack violation, a process exit) are
//!   cold calls into the interpreter's own transfer.
//! * **Resume points.** With the IFU return stack on, each entry carries
//!   the compiled `(body, op)` its return resumes at, so a hit continues
//!   in compiled code at once. Without it, a burst-local
//!   [`ReturnPredictor`] holds them and a return checks the prediction
//!   against the architectural `pc`, as the IFU checks its stack against
//!   the link; a mismatch, an empty predictor, or any other transfer
//!   looks `pc` up in the compiled-body map instead.
//!
//! # Deoptimization
//!
//! Compiled code is keyed by the code store's version alone: no
//! compiled op binds a data-memory word (a local site re-checks the
//! caller's code base at run time, and external calls walk the tables).
//! A version change at burst entry flushes every compiled body and
//! recompiles the image; one inside a burst (an interpreted `BINDMOD`)
//! exits the burst at the next instruction boundary.

use fpc_core::layout::PROC_HEADER_BYTES;
use fpc_isa::Instr;
use std::ops::Range;

use crate::machine::CallTarget;

/// License to run the native tier, normally obtained from
/// `fpc_verify::Certificate::native_license()`.
///
/// Carries the verifier's proven whole-image operand-stack bound and
/// the number of procedures the proof covers. `Machine::arm_native`
/// refuses a license whose bound exceeds the configured stack depth;
/// an accepted one lets bursts skip their stack checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeLicense {
    max_stack_depth: u32,
    procs: usize,
}

impl NativeLicense {
    /// Packages a verifier-proven stack bound covering `procs`
    /// procedures. Prefer minting licenses through
    /// `fpc_verify::Certificate::native_license()`, which only exists
    /// for diagnostic-free reports.
    pub fn new(max_stack_depth: u32, procs: usize) -> Self {
        NativeLicense {
            max_stack_depth,
            procs,
        }
    }

    /// The proven whole-image operand-stack bound.
    pub fn max_stack_depth(&self) -> u32 {
        self.max_stack_depth
    }

    /// Number of procedures covered by the proof.
    pub fn procs(&self) -> usize {
        self.procs
    }
}

/// Host-side observability counters for the native tier.
///
/// These describe the *host* acceleration and are deliberately
/// excluded from simulated-counter fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Whether the tier is armed: its bursts run unchecked.
    pub armed: bool,
    /// Compiled bodies currently resident.
    pub compiled_procs: usize,
    /// Total successful body compilations (including recompiles).
    pub compiles: u64,
    /// Native burst entries from the run loop.
    pub entries: u64,
    /// Instructions retired by native handlers, calls and returns
    /// included.
    pub native_instrs: u64,
    /// Instructions retired via the interpreter fallback (`step_one`)
    /// inside bursts.
    pub interp_ops: u64,
    /// Transient deopts: whole-tier flushes on a code-version change.
    pub flushes: u64,
    /// Permanent deopts of an armed tier: certificate-lapse disarms.
    pub disarms: u64,
}

/// One direct-threaded host handler with operands inlined.
///
/// Each single-op variant names one straight-line instruction, and its
/// handler calls the interpreter's definition of that instruction
/// rather than replicating it; the superinstructions from `Ld2` on are
/// the only bodies written by hand. Everything else lowers to
/// [`NOp::Interp`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum NOp {
    /// `LoadImm`.
    Imm(u16),
    /// `LoadLocal`.
    LocalRd(u8),
    /// `StoreLocal`.
    LocalWr(u8),
    /// `LoadLocalAddr`, lowered only without banks.
    LocalAddr(u8),
    /// `LoadGlobal`.
    GlobalRd(u8),
    /// `StoreGlobal`.
    GlobalWr(u8),
    /// `LoadGlobalAddr`.
    GlobalAddr(u8),
    Read,
    Write,
    LoadIndex,
    StoreIndex,
    Add,
    Sub,
    Mul,
    Neg,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    AddImm(u8),
    Dup,
    Drop,
    Exch,
    Out,
    Noop,
    /// Unconditional jump to a resolved op index.
    Jmp(u32),
    /// Pop; jump to the resolved op index if zero.
    Jz(u32),
    /// Pop; jump to the resolved op index if non-zero.
    Jnz(u32),
    /// Interpreter fallback: run this instruction through `step_one`.
    Interp(Instr, u8),
    /// A call or return: index of its [`Site`] in the body's side
    /// table. Retired natively with the interpreter's accounting, minus
    /// the handler-attribution bookkeeping that is provably dead while
    /// the tier is armed (arming requires no installed trap or fault
    /// handlers).
    Xfer(u16),
    /// Fell off the end of the compiled body; resume interpretation.
    Exit,
    /// Fused `LoadLocal n; LoadImm v` — two instructions, one dispatch.
    Ld2(u8, u16),
    /// Fused `LoadLocal n; LoadLocal m`.
    LdLd(u8, u8),
    /// Fused `LoadImm v; Add`.
    AddIW(u16),
    /// Fused `LoadImm v; Sub`.
    SubIW(u16),
    /// Fused compare + `JumpZero`: pops both operands and jumps when
    /// the comparison is false (the interpreter would push 0 and `Jz`
    /// would take it).
    CmpJz(Cmp, u32),
    /// Fused `LoadLocal n; LoadImm v; Sub` — push `local − v`.
    LdSubI(u8, u16),
    /// Fused `LoadLocal n; LoadImm v; Add` — push `local + v`.
    LdAddI(u8, u16),
    /// Fused guard `LoadLocal n; LoadImm v; cmp; JumpZero`: four
    /// instructions, one dispatch, zero net stack traffic.
    LdICmpJz(u8, u16, Cmp, u32),
    /// Fused guard `LoadLocal n; LoadLocal m; cmp; JumpZero`.
    LdLdCmpJz(u8, u8, Cmp, u32),
    /// Fused `LoadLocal n; Exch; Add` — pop `t`, push `local + t` (the
    /// accumulate-result idiom in recursive epilogues).
    LdXAdd(u8),
    /// Fused argument push + transfer: `LoadLocal n; <call>`. The last
    /// field is the transfer's [`Site`], which records its
    /// architectural instruction start.
    LdCall(u8, u16),
    /// Fused `LoadLocal n; LoadImm v; Sub; <call>` — the dominant
    /// argument-setup shape of recursive call sites.
    LdSubICall(u8, u16, u16),
    /// Fused `LoadLocal n; LoadImm v; Add; <call>`.
    LdAddICall(u8, u16, u16),
    /// Fused `LoadLocal n; LoadLocal m; <call>` — two-argument setup.
    LdLdCall(u8, u8, u16),
    /// Fused `LoadLocal n; Exch; Add; <call>` — accumulate then return.
    LdXAddCall(u8, u16),
    /// Fused `StoreLocal n; Jump` — the store-result-and-loop tail.
    WrJmp(u8, u32),
}

// Call operands live in a [`Site`], so no op carries a whole `Instr`
// and the handler chain stays dense.
const _: () = assert!(std::mem::size_of::<NOp>() <= 12);

/// Comparison selector for the fused [`NOp::CmpJz`] handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    #[inline]
    pub fn eval(self, a: i16, b: i16) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// A call or return site, kept beside the handler chain so [`NOp`]
/// stays small.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Site {
    /// The transfer instruction.
    pub instr: Instr,
    /// Its encoded length: a call returns to `at + len`.
    pub len: u8,
    /// Its absolute byte address.
    pub at: u32,
    /// The call target, when the code bytes fix it. For a
    /// direct call it is the whole target. For a local call, `cb` is
    /// the code base whose entry vector was read: the target holds only
    /// while the caller runs under that code base, and the destination
    /// global frame is the caller's (`gf` is unused).
    pub target: Option<CallTarget>,
    /// The compiled entry of a known target's body, if compiled: where
    /// the call continues without [`Compiled::locate`].
    pub entry: Option<Entry>,
}

/// A compiled procedure body. Immutable once built.
#[derive(Debug, Default)]
pub(crate) struct NativeProc {
    /// First body byte (absolute code address).
    pub start: u32,
    /// Op index for each body-relative byte offset; `u32::MAX` marks
    /// mid-instruction bytes and undecodable suffixes.
    pub off_to_ip: Vec<u32>,
    /// The direct-threaded handler chain; last op is always [`NOp::Exit`].
    pub ops: Vec<NOp>,
    /// Absolute byte address of each op (the [`NOp::Exit`] entry holds
    /// the fall-off address), used to materialize `pc` on burst exit.
    pub offs: Vec<u32>,
    /// The stack effect of each op, which an unarmed burst checks
    /// before running it.
    pub effects: Vec<Effect>,
    /// Call and return sites, indexed by [`NOp::Xfer`] and the fused
    /// call ops.
    pub sites: Vec<Site>,
}

/// The compiled-body table and the map from code bytes into it. A
/// burst takes it out of the tier by value for its whole length, so
/// following a transfer into another body is an index, not a handle
/// clone.
#[derive(Debug, Default)]
pub(crate) struct Compiled {
    procs: Vec<NativeProc>,
    /// Code byte → compiled proc index + 1; 0 = uncovered.
    pc_map: Vec<u16>,
}

impl Compiled {
    /// A compiled body by index.
    #[inline]
    pub fn proc(&self, idx: usize) -> &NativeProc {
        &self.procs[idx]
    }

    /// Resolves a code address to a compiled (proc, op index) entry
    /// point. `None` off-coverage or mid-instruction. A body's first
    /// byte enters op 0 without the offset map.
    #[inline]
    pub fn locate(&self, pc: u32) -> Option<(usize, u32)> {
        let p = *self.pc_map.get(pc as usize)?;
        if p == 0 {
            return None;
        }
        let idx = (p - 1) as usize;
        let proc = &self.procs[idx];
        if pc == proc.start {
            return Some((idx, 0));
        }
        let ip = *proc.off_to_ip.get(pc.wrapping_sub(proc.start) as usize)?;
        if ip == u32::MAX {
            return None;
        }
        Some((idx, ip))
    }

    /// Where a burst continues after a transfer left `pc` at a new
    /// address: the predicted entry when it names `pc`, else the body
    /// covering `pc`. A prediction `(body, op, address)` is only a
    /// shortcut: its makers guarantee that `address` is the op's, so it
    /// is taken exactly when [`Compiled::locate`] would return it.
    #[inline]
    pub fn chase(&self, pc: u32, predicted: Option<Entry>) -> Option<(usize, u32)> {
        match predicted {
            Some((p, ip, at)) if at == pc => Some((p as usize, ip)),
            _ => self.locate(pc),
        }
    }
}

/// A compiled entry point: body index, op index, and the op's byte
/// address.
pub(crate) type Entry = (u32, u32, u32);

/// Entries in the [`ReturnPredictor`]; a power of two.
pub(crate) const PREDICTOR_DEPTH: usize = 32;

/// A burst-local return-address stack: `(body, op index)` pairs pushed
/// by native calls and popped by native returns. Like the IFU's stack
/// it is only a prediction, checked against the architectural `pc`
/// before use; when it overflows the oldest entry is overwritten, and
/// a return past its bottom finds it empty.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReturnPredictor {
    slots: [Entry; PREDICTOR_DEPTH],
    top: usize,
    len: usize,
}

impl ReturnPredictor {
    pub fn new() -> Self {
        ReturnPredictor {
            slots: [(0, 0, 0); PREDICTOR_DEPTH],
            top: 0,
            len: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, proc: usize, ip: u32, at: u32) {
        self.top = (self.top + 1) % PREDICTOR_DEPTH;
        self.slots[self.top] = (proc as u32, ip, at);
        self.len = (self.len + 1).min(PREDICTOR_DEPTH);
    }

    #[inline]
    pub fn pop(&mut self) -> Option<Entry> {
        if self.len == 0 {
            return None;
        }
        let e = self.slots[self.top];
        self.top = (self.top + PREDICTOR_DEPTH - 1) % PREDICTOR_DEPTH;
        self.len -= 1;
        Some(e)
    }
}

/// The per-machine native tier: the compiled-body table and the code
/// version that deoptimizes it.
#[derive(Debug)]
pub(crate) struct NativeTier {
    /// Bursts run unchecked under a license.
    armed: bool,
    /// Certificate premises still hold (no handler installs, unbinds,
    /// relocations or patches since load). While they do, bursts run;
    /// once false, the tier is stopped for good.
    live: bool,
    /// The code version every compiled body was built from.
    version: u64,
    compiled: Compiled,
    pub compiles: u64,
    pub entries: u64,
    pub native_instrs: u64,
    pub interp_ops: u64,
    pub flushes: u64,
    pub disarms: u64,
}

impl NativeTier {
    pub fn new() -> Self {
        NativeTier {
            armed: false,
            live: true,
            // Sentinel version: the first burst entry always compiles.
            version: u64::MAX,
            compiled: Compiled::default(),
            compiles: 0,
            entries: 0,
            native_instrs: 0,
            interp_ops: 0,
            flushes: 0,
            disarms: 0,
        }
    }

    pub fn live(&self) -> bool {
        self.live
    }

    pub fn armed(&self) -> bool {
        self.armed
    }

    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Permanent deopt: the certificate premises lapsed.
    pub fn disarm(&mut self) {
        if self.armed {
            self.disarms += 1;
        }
        self.armed = false;
        self.live = false;
        self.compiled = Compiled::default();
    }

    /// Hands the compiled-body table to a burst.
    pub fn take_compiled(&mut self) -> Compiled {
        std::mem::take(&mut self.compiled)
    }

    /// Takes the table back at burst exit. Nothing inside a burst can
    /// flush or disarm the tier: only burst entry and host calls do.
    pub fn restore_compiled(&mut self, compiled: Compiled) {
        self.compiled = compiled;
    }

    /// Whether the compiled table was built from this code version.
    /// When it was not, the next burst entry recompiles the image.
    #[inline]
    pub fn current(&self, code_version: u64) -> bool {
        self.version == code_version
    }

    /// Flushes the table and compiles every body in `bodies` from code
    /// version `version`, then points each known call site at its
    /// target's compiled entry. `resolve` names the target of a call at
    /// a given address when the code fixes it (see [`Site::target`]). A
    /// body that lowers to nothing (its first byte does not decode)
    /// stays interpreted.
    pub fn compile_image(
        &mut self,
        version: u64,
        code: &[u8],
        bodies: &[Range<u32>],
        banks: bool,
        resolve: &dyn Fn(Instr, u32) -> Option<CallTarget>,
    ) {
        let c = &mut self.compiled;
        if !c.pc_map.is_empty() {
            self.flushes += 1;
        }
        self.version = version;
        c.procs.clear();
        c.pc_map.clear();
        c.pc_map.resize(code.len(), 0);
        // The map holds a body index + 1 in a `u16`.
        for body in bodies.iter().take(u16::MAX as usize) {
            let Some(map) = c.pc_map.get_mut(body.start as usize..body.end as usize) else {
                continue;
            };
            let proc = compile_body(code, body.start, body.end, banks, resolve);
            if proc.ops.len() <= 1 {
                continue;
            }
            map.fill(c.procs.len() as u16 + 1);
            c.procs.push(proc);
            self.compiles += 1;
        }
        for i in 0..c.procs.len() {
            for j in 0..c.procs[i].sites.len() {
                let at = c.procs[i].sites[j]
                    .target
                    .map(|t| t.header.0 + PROC_HEADER_BYTES);
                let entry = at.and_then(|at| c.locate(at).map(|(q, ip)| (q as u32, ip, at)));
                c.procs[i].sites[j].entry = entry;
            }
        }
    }

    /// The compiled-body table (outside bursts).
    #[inline]
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    pub fn stats(&self) -> NativeStats {
        NativeStats {
            armed: self.armed,
            compiled_procs: self.compiled.procs.len(),
            compiles: self.compiles,
            entries: self.entries,
            native_instrs: self.native_instrs,
            interp_ops: self.interp_ops,
            flushes: self.flushes,
            disarms: self.disarms,
        }
    }
}

/// Lowers one decoded body into a direct-threaded chain. Stops at the
/// first undecodable byte (that suffix stays interpreter-only). `banks`
/// says whether the machine has register banks; `resolve` is as for
/// [`NativeTier::compile_image`].
fn compile_body(
    code: &[u8],
    body: u32,
    end: u32,
    banks: bool,
    resolve: &dyn Fn(Instr, u32) -> Option<CallTarget>,
) -> NativeProc {
    let mut decoded: Vec<(u32, Instr, u8)> = Vec::new();
    for step in fpc_isa::walk(code, body as usize, end as usize) {
        match step {
            Ok((at, instr, len)) => decoded.push((at as u32, instr, len as u8)),
            Err(_) => break,
        }
    }
    let mut off_to_ip = vec![u32::MAX; (end - body) as usize];
    for (ip, &(at, _, _)) in decoded.iter().enumerate() {
        off_to_ip[(at - body) as usize] = ip as u32;
    }
    let mut ops = Vec::with_capacity(decoded.len() + 1);
    let mut offs = Vec::with_capacity(decoded.len() + 1);
    let mut effects = Vec::with_capacity(decoded.len() + 1);
    let mut sites = Vec::new();
    for &(at, instr, len) in &decoded {
        offs.push(at);
        let op = match lower(instr, len, at, body, end, &off_to_ip, banks) {
            // A body with more sites than an index holds interprets
            // the rest.
            NOp::Xfer(_) if sites.len() > u16::MAX as usize => NOp::Interp(instr, len),
            NOp::Xfer(_) => {
                sites.push(Site {
                    instr,
                    len,
                    at,
                    target: resolve(instr, at),
                    entry: None,
                });
                NOp::Xfer((sites.len() - 1) as u16)
            }
            op => op,
        };
        // Transfers and fallbacks check their own stack.
        effects.push(match op {
            NOp::Interp(..) | NOp::Xfer(_) => Effect::default(),
            _ => Effect::of(instr),
        });
        ops.push(op);
    }
    offs.push(decoded.last().map_or(body, |&(at, _, len)| at + len as u32));
    ops.push(NOp::Exit);
    effects.push(Effect::default());
    fuse(NativeProc {
        start: body,
        off_to_ip,
        ops,
        offs,
        effects,
        sites,
    })
}

/// The one stack-effect table: `(pops, pushes)` of each straight-line
/// instruction as `Machine::straight` performs it, pushes landing after
/// pops. `None` for every other instruction, which checks its own stack.
fn stack_effect(i: Instr) -> Option<(u8, u8)> {
    use Instr::*;
    Some(match i {
        LoadImm(_) | LoadLocal(_) | LoadLocalAddr(_) | LoadGlobal(_) | LoadGlobalAddr(_) => (0, 1),
        StoreLocal(_) | StoreGlobal(_) | Drop | Out | JumpZero(_) | JumpNotZero(_) => (1, 0),
        Dup => (1, 2),
        Exch => (2, 2),
        Neg | AddImm(_) | Read => (1, 1),
        Add | Sub | Mul | And | Or | Xor | Shl | Shr | LoadIndex => (2, 1),
        CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe => (2, 1),
        Write => (2, 0),
        StoreIndex => (3, 0),
        Noop | Jump(_) => (0, 0),
        _ => return None,
    })
}

/// The stack effect of an op, a single instruction or a run fused into
/// one: the depth it needs beneath it, its peak growth above its
/// starting depth, and its net change. An op whose starting depth `d`
/// has `d >= need` and `d + grow` within the stack limit runs every
/// instruction in it without an underflow or an overflow.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Effect {
    pub need: u8,
    pub grow: u8,
    net: i8,
}

impl Effect {
    /// The effect of one instruction from [`stack_effect`]; none for an
    /// instruction the table does not hold.
    fn of(i: Instr) -> Effect {
        stack_effect(i).map_or(Effect::default(), |(pops, pushes)| Effect {
            need: pops,
            grow: pushes.saturating_sub(pops),
            net: pushes as i8 - pops as i8,
        })
    }

    /// `self` followed by `next`, which starts `self.net` words higher.
    fn then(self, next: Effect) -> Effect {
        let (net, need, grow) = (self.net as i32, next.need as i32, next.grow as i32);
        Effect {
            need: self.need.max((need - net).max(0) as u8),
            grow: self.grow.max((net + grow).max(0) as u8),
            net: self.net + next.net,
        }
    }
}

/// Superinstruction pass: greedily fuses the longest known run of
/// adjacent fast ops at each position into a single dispatch (pairs,
/// and the 3- and 4-instruction idioms that dominate call-dense code:
/// `local − const` argument setup and `local cmp operand; branch`
/// guards), whose stack effect is its ops' effects in sequence. A run only
/// forms when none of its non-first ops is a jump target or an
/// interpreter re-entry point (the op after an [`NOp::Interp`] or
/// [`NOp::Xfer`]), so every architecturally reachable boundary stays
/// mapped; swallowed ops' byte offsets are unmapped, which at worst
/// costs one interpreted step before the next mapped boundary
/// re-enters.
fn fuse(p: NativeProc) -> NativeProc {
    let n = p.ops.len();
    let mut blocked = vec![false; n];
    for (i, op) in p.ops.iter().enumerate() {
        match *op {
            NOp::Jmp(t) | NOp::Jz(t) | NOp::Jnz(t) => blocked[t as usize] = true,
            // Returns land on the op after a call, and the interpreter
            // resumes after a fallback op: both must stay mapped.
            NOp::Interp(..) | NOp::Xfer(_) if i + 1 < n => blocked[i + 1] = true,
            _ => {}
        }
    }
    // Pattern length chosen at each start index (0 = swallowed).
    let mut span = vec![0u8; n];
    let mut i = 0;
    while i < n {
        let len = match_len(&p.ops, &blocked, i);
        span[i] = len;
        i += len as usize;
    }
    // Old op index → new op index; swallowed ops disappear.
    let mut remap = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut i = 0;
    while i < n {
        remap[i] = next;
        next += 1;
        i += span[i] as usize;
    }
    let mut off_to_ip = p.off_to_ip;
    for x in off_to_ip.iter_mut() {
        if *x != u32::MAX {
            *x = remap[*x as usize];
        }
    }
    let mut ops = Vec::with_capacity(next as usize);
    let mut offs = Vec::with_capacity(next as usize);
    let mut effects = Vec::with_capacity(next as usize);
    let mut i = 0;
    while i < n {
        let run = i..i + span[i] as usize;
        offs.push(p.offs[i]);
        effects.push(
            p.effects[run.clone()]
                .iter()
                .fold(Effect::default(), |e, &x| e.then(x)),
        );
        ops.push(combine(&p.ops[run], &remap));
        i += span[i] as usize;
    }
    NativeProc {
        start: p.start,
        off_to_ip,
        ops,
        offs,
        effects,
        sites: p.sites,
    }
}

fn cmp_of(op: NOp) -> Option<Cmp> {
    match op {
        NOp::CmpEq => Some(Cmp::Eq),
        NOp::CmpNe => Some(Cmp::Ne),
        NOp::CmpLt => Some(Cmp::Lt),
        NOp::CmpLe => Some(Cmp::Le),
        NOp::CmpGt => Some(Cmp::Gt),
        NOp::CmpGe => Some(Cmp::Ge),
        _ => None,
    }
}

/// Longest fusible run starting at `i`; 1 means no fusion.
fn match_len(ops: &[NOp], blocked: &[bool], i: usize) -> u8 {
    let w = &ops[i..];
    let clear = |upto: usize| (1..=upto).all(|k| !blocked.get(i + k).copied().unwrap_or(true));
    if w.len() >= 4 && clear(3) {
        if let [NOp::LocalRd(_), NOp::Imm(_) | NOp::LocalRd(_), c, NOp::Jz(_), ..] = *w {
            if cmp_of(c).is_some() {
                return 4;
            }
        }
        if matches!(
            *w,
            [
                NOp::LocalRd(_),
                NOp::Imm(_),
                NOp::Sub | NOp::Add,
                NOp::Xfer(_),
                ..
            ] | [NOp::LocalRd(_), NOp::Exch, NOp::Add, NOp::Xfer(_), ..]
        ) {
            return 4;
        }
    }
    if w.len() >= 3
        && clear(2)
        && matches!(
            *w,
            [NOp::LocalRd(_), NOp::Imm(_), NOp::Sub | NOp::Add, ..]
                | [NOp::LocalRd(_), NOp::LocalRd(_), NOp::Xfer(_), ..]
                | [NOp::LocalRd(_), NOp::Exch, NOp::Add, ..]
        )
    {
        return 3;
    }
    if w.len() >= 2 && clear(1) && pairable(w[0], w[1]) {
        return 2;
    }
    1
}

fn pairable(a: NOp, b: NOp) -> bool {
    matches!(
        (a, b),
        (NOp::LocalRd(_), NOp::Imm(_))
            | (NOp::LocalRd(_), NOp::LocalRd(_))
            | (NOp::LocalRd(_), NOp::Xfer(_))
            | (NOp::LocalWr(_), NOp::Jmp(_))
            | (NOp::Imm(_), NOp::Add)
            | (NOp::Imm(_), NOp::Sub)
            | (
                NOp::CmpEq | NOp::CmpNe | NOp::CmpLt | NOp::CmpLe | NOp::CmpGt | NOp::CmpGe,
                NOp::Jz(_)
            )
    )
}

fn combine(run: &[NOp], remap: &[u32]) -> NOp {
    match *run {
        [op] => retarget(op, remap),
        [NOp::LocalRd(n), NOp::Imm(v), c, NOp::Jz(t)] => {
            NOp::LdICmpJz(n, v, cmp_of(c).expect("matched"), remap[t as usize])
        }
        [NOp::LocalRd(n), NOp::LocalRd(m), c, NOp::Jz(t)] => {
            NOp::LdLdCmpJz(n, m, cmp_of(c).expect("matched"), remap[t as usize])
        }
        [NOp::LocalRd(n), NOp::Imm(v), NOp::Sub, NOp::Xfer(s)] => NOp::LdSubICall(n, v, s),
        [NOp::LocalRd(n), NOp::Imm(v), NOp::Add, NOp::Xfer(s)] => NOp::LdAddICall(n, v, s),
        [NOp::LocalRd(n), NOp::Exch, NOp::Add, NOp::Xfer(s)] => NOp::LdXAddCall(n, s),
        [NOp::LocalRd(n), NOp::Imm(v), NOp::Sub] => NOp::LdSubI(n, v),
        [NOp::LocalRd(n), NOp::Imm(v), NOp::Add] => NOp::LdAddI(n, v),
        [NOp::LocalRd(n), NOp::LocalRd(m), NOp::Xfer(s)] => NOp::LdLdCall(n, m, s),
        [NOp::LocalRd(n), NOp::Exch, NOp::Add] => NOp::LdXAdd(n),
        [NOp::LocalRd(n), NOp::Imm(v)] => NOp::Ld2(n, v),
        [NOp::LocalRd(n), NOp::LocalRd(m)] => NOp::LdLd(n, m),
        [NOp::LocalRd(n), NOp::Xfer(s)] => NOp::LdCall(n, s),
        [NOp::LocalWr(n), NOp::Jmp(t)] => NOp::WrJmp(n, remap[t as usize]),
        [NOp::Imm(v), NOp::Add] => NOp::AddIW(v),
        [NOp::Imm(v), NOp::Sub] => NOp::SubIW(v),
        [c, NOp::Jz(t)] => NOp::CmpJz(cmp_of(c).expect("pairable matched"), remap[t as usize]),
        _ => unreachable!("match_len() admitted an uncombinable run"),
    }
}

fn retarget(op: NOp, remap: &[u32]) -> NOp {
    match op {
        NOp::Jmp(t) => NOp::Jmp(remap[t as usize]),
        NOp::Jz(t) => NOp::Jz(remap[t as usize]),
        NOp::Jnz(t) => NOp::Jnz(remap[t as usize]),
        other => other,
    }
}

fn lower(
    instr: Instr,
    len: u8,
    at: u32,
    body: u32,
    end: u32,
    off_to_ip: &[u32],
    banks: bool,
) -> NOp {
    // Displacements are from instruction start; a target outside the
    // body (or mid-instruction) goes through the interpreter, which
    // re-enters native code if the landing pad is compiled.
    let target = |d: i32| -> Option<u32> {
        let t = at as i64 + d as i64;
        if t < body as i64 || t >= end as i64 {
            return None;
        }
        let ip = off_to_ip[(t as u32 - body) as usize];
        (ip != u32::MAX).then_some(ip)
    };
    match instr {
        Instr::LoadImm(v) => NOp::Imm(v),
        Instr::LoadLocal(n) => NOp::LocalRd(n),
        Instr::StoreLocal(n) => NOp::LocalWr(n),
        // Under banks the `Outlaw` pointer policy traps here.
        Instr::LoadLocalAddr(n) if !banks => NOp::LocalAddr(n),
        Instr::LoadGlobal(n) => NOp::GlobalRd(n),
        Instr::StoreGlobal(n) => NOp::GlobalWr(n),
        Instr::LoadGlobalAddr(n) => NOp::GlobalAddr(n),
        Instr::Read => NOp::Read,
        Instr::Write => NOp::Write,
        Instr::LoadIndex => NOp::LoadIndex,
        Instr::StoreIndex => NOp::StoreIndex,
        Instr::Add => NOp::Add,
        Instr::Sub => NOp::Sub,
        Instr::Mul => NOp::Mul,
        Instr::Neg => NOp::Neg,
        Instr::And => NOp::And,
        Instr::Or => NOp::Or,
        Instr::Xor => NOp::Xor,
        Instr::Shl => NOp::Shl,
        Instr::Shr => NOp::Shr,
        Instr::CmpEq => NOp::CmpEq,
        Instr::CmpNe => NOp::CmpNe,
        Instr::CmpLt => NOp::CmpLt,
        Instr::CmpLe => NOp::CmpLe,
        Instr::CmpGt => NOp::CmpGt,
        Instr::CmpGe => NOp::CmpGe,
        Instr::AddImm(n) => NOp::AddImm(n),
        Instr::Dup => NOp::Dup,
        Instr::Drop => NOp::Drop,
        Instr::Exch => NOp::Exch,
        Instr::Out => NOp::Out,
        Instr::Noop => NOp::Noop,
        Instr::Jump(d) => target(d).map_or(NOp::Interp(instr, len), NOp::Jmp),
        Instr::JumpZero(d) => target(d).map_or(NOp::Interp(instr, len), NOp::Jz),
        Instr::JumpNotZero(d) => target(d).map_or(NOp::Interp(instr, len), NOp::Jnz),
        // Calls and returns are native transfers through a side-table
        // site (`compile_body` fills it in).
        Instr::LocalCall(_)
        | Instr::ExternalCall(_)
        | Instr::DirectCall(_)
        | Instr::ShortDirectCall(_)
        | Instr::Ret => NOp::Xfer(0),
        // Division traps, XFER, contexts, processes, heap and module
        // ops all carry their own accounting; interpret them.
        _ => NOp::Interp(instr, len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_bytes(instrs: &[Instr]) -> Vec<u8> {
        let mut out = Vec::new();
        for i in instrs {
            i.encode(&mut out);
        }
        out
    }

    /// A resolver that knows no call target.
    fn unknown(_: Instr, _: u32) -> Option<CallTarget> {
        None
    }

    #[test]
    fn compile_body_lowers_and_maps_offsets() {
        let bytes = body_bytes(&[Instr::LoadImm(7), Instr::AddImm(1), Instr::Out, Instr::Ret]);
        let end = bytes.len() as u32;
        let p = compile_body(&bytes, 0, end, false, &unknown);
        assert!(matches!(p.ops[0], NOp::Imm(7)));
        assert!(matches!(p.ops[1], NOp::AddImm(1)));
        assert!(matches!(p.ops[2], NOp::Out));
        assert!(matches!(p.ops[3], NOp::Xfer(0)));
        assert!(matches!(p.sites[0].instr, Instr::Ret));
        assert_eq!((p.sites[0].at, p.sites[0].len), (5, 1));
        assert!(p.sites[0].target.is_none());
        assert!(matches!(p.ops[4], NOp::Exit));
        assert_eq!(p.off_to_ip[0], 0);
        // LoadImm is 3 bytes; its interior bytes must be unmapped.
        assert_eq!(p.off_to_ip[1], u32::MAX);
        assert_eq!(*p.offs.last().unwrap(), end);
    }

    #[test]
    fn in_body_jumps_resolve_and_bank_mem_ops_lower_natively() {
        // 0: LoadLocal 0 (1 byte, LL0) ; 1: JumpZero back to it.
        let bytes = body_bytes(&[Instr::LoadLocal(0), Instr::JumpZero(-1)]);
        let end = bytes.len() as u32;
        let flat = compile_body(&bytes, 0, end, false, &unknown);
        assert!(matches!(flat.ops[0], NOp::LocalRd(0)));
        assert!(matches!(flat.ops[1], NOp::Jz(0)));
        // Under banks locals and indirect accesses still lower to fast
        // ops; only the address-of, which `Outlaw` traps, interprets.
        let bytes = body_bytes(&[
            Instr::LoadLocal(0),
            Instr::StoreLocal(1),
            Instr::LoadLocalAddr(2),
            Instr::LoadIndex,
            Instr::Ret,
        ]);
        let end = bytes.len() as u32;
        let banked = compile_body(&bytes, 0, end, true, &unknown);
        assert!(matches!(banked.ops[0], NOp::LocalRd(0)));
        assert!(matches!(banked.ops[1], NOp::LocalWr(1)));
        assert!(matches!(
            banked.ops[2],
            NOp::Interp(Instr::LoadLocalAddr(2), _)
        ));
        assert!(matches!(banked.ops[3], NOp::LoadIndex));
        let flat = compile_body(&bytes, 0, end, false, &unknown);
        assert!(matches!(flat.ops[2], NOp::LocalAddr(2)));
        // Out-of-body jump falls back to the interpreter.
        let bytes = body_bytes(&[Instr::Jump(100)]);
        let p = compile_body(&bytes, 0, bytes.len() as u32, false, &unknown);
        assert!(matches!(p.ops[0], NOp::Interp(Instr::Jump(100), _)));
    }

    #[test]
    fn tier_compiles_the_image_and_locates() {
        // A loop whose head is not the body start: LoadImm(0x1234)
        // takes the 3-byte LIW form, giving the body interior
        // (mid-instruction) bytes; the head is the `Out` at byte 3.
        let bytes = body_bytes(&[Instr::LoadImm(0x1234), Instr::Out, Instr::Jump(-1)]);
        let end = bytes.len() as u32;
        let mut t = NativeTier::new();
        assert!(!t.current(1), "a fresh tier has compiled nothing");
        t.compile_image(1, &bytes, std::slice::from_ref(&(0..end)), false, &unknown);
        assert!(t.current(1) && !t.current(2));
        let stats = t.stats();
        assert_eq!((stats.compiled_procs, stats.compiles), (1, 1));
        assert_eq!(stats.flushes, 0, "the first pass flushes nothing");
        let c = t.compiled();
        assert_eq!(c.locate(0), Some((0, 0)), "the body start enters op 0");
        assert_eq!(c.locate(3), Some((0, 1)), "the loop head enters mid-body");
        assert!(c.locate(1).is_none(), "mid-instruction bytes don't enter");
        assert!(c.locate(end).is_none(), "past the code, nothing enters");
        // A prediction is taken only when it names the pc; otherwise
        // the chase falls back to the map.
        assert_eq!(c.chase(3, Some((0, 1, 3))), Some((0, 1)));
        assert_eq!(c.chase(3, Some((0, 0, 0))), Some((0, 1)));
        assert_eq!(c.chase(1, Some((0, 0, 0))), None);
        // Taking the table out for a burst and handing it back keeps
        // the bodies.
        let c = t.take_compiled();
        assert_eq!(t.stats().compiled_procs, 0);
        t.restore_compiled(c);
        assert_eq!(t.stats().compiled_procs, 1);
        // A pass over a new code version flushes the table and
        // compiles each body once more.
        t.compile_image(2, &bytes, std::slice::from_ref(&(0..end)), false, &unknown);
        let stats = t.stats();
        assert_eq!((stats.compiled_procs, stats.compiles), (1, 2));
        assert_eq!(stats.flushes, 1);
        assert_eq!(t.compiled().locate(3), Some((0, 1)));
        // Disarm is permanent; it counts only when the tier was armed.
        t.arm();
        t.disarm();
        assert!(!t.armed() && !t.live());
        assert_eq!(t.stats().disarms, 1);
        assert_eq!(t.stats().compiled_procs, 0);
    }

    #[test]
    fn bodies_that_lower_to_nothing_stay_interpreted() {
        // An opcode byte that does not decode starts the second body;
        // the third body lies past the end of the code.
        let bad = (0..=u8::MAX)
            .find(|&b| fpc_isa::decode(&[b, 0, 0, 0], 0).is_err())
            .expect("some opcode byte is unassigned");
        let mut bytes = body_bytes(&[Instr::LoadImm(1), Instr::Ret]);
        let good_end = bytes.len() as u32;
        bytes.extend_from_slice(&[bad, 0, 0]);
        let end = bytes.len() as u32;
        let mut t = NativeTier::new();
        let bodies = [0..good_end, good_end..end, end + 4..end + 8];
        t.compile_image(1, &bytes, &bodies, false, &unknown);
        let stats = t.stats();
        assert_eq!((stats.compiled_procs, stats.compiles), (1, 1));
        assert_eq!(t.compiled().locate(0), Some((0, 0)));
        for pc in good_end..end + 8 {
            assert!(t.compiled().locate(pc).is_none(), "{pc} is interpreted");
        }
    }

    #[test]
    fn superinstructions_fuse_and_preserve_boundaries() {
        // LoadLocal 0 ; LoadImm 2 ; CmpLt ; JumpZero over Out to Ret —
        // the fib guard shape. Greedy pairing gives Ld2 + CmpJz.
        let bytes = body_bytes(&[
            Instr::LoadLocal(0),
            Instr::LoadImm(2),
            Instr::CmpLt,
            Instr::JumpZero(2),
            Instr::Out,
            Instr::Ret,
        ]);
        let p = compile_body(&bytes, 0, bytes.len() as u32, false, &unknown);
        // The whole guard collapses into one dispatch.
        assert!(matches!(p.ops[0], NOp::LdICmpJz(0, 2, Cmp::Lt, 2)));
        assert!(matches!(p.ops[1], NOp::Out));
        assert!(matches!(p.ops[2], NOp::Xfer(0)));
        // The run start stays mapped; swallowed ops do not.
        assert_eq!(p.off_to_ip[0], 0);
        assert_eq!(p.off_to_ip[1], u32::MAX, "swallowed op is unmapped");
        assert_eq!(p.off_to_ip[3], u32::MAX, "swallowed CmpLt is unmapped");
        // offs of a fused run is the first element's address.
        assert_eq!(p.offs[0], 0);
        assert_eq!(p.offs[1], 5, "Out follows the 5-byte guard");

        // A jump landing on the would-be second blocks the pair.
        let bytes = body_bytes(&[Instr::LoadLocal(0), Instr::LoadImm(7), Instr::Jump(-2)]);
        let p = compile_body(&bytes, 0, bytes.len() as u32, false, &unknown);
        assert!(
            matches!(p.ops[0], NOp::LocalRd(0)),
            "jump-target second must not fuse"
        );
        assert!(matches!(p.ops[1], NOp::Imm(7)));
        assert!(matches!(p.ops[2], NOp::Jmp(1)));
    }

    #[test]
    fn superinstruction_guards_encode_stack_extremes() {
        let effect = |instrs: &[Instr]| {
            let bytes = body_bytes(instrs);
            compile_body(&bytes, 0, bytes.len() as u32, false, &unknown).effects[0]
        };
        let guard = |e: Effect| (e.need, e.grow);
        // (LoadImm, Add): transiently one deeper, needs one beneath.
        assert_eq!(guard(effect(&[Instr::LoadImm(5), Instr::Add])), (1, 1));
        // (CmpLt, JumpZero): consumes two, never grows.
        let cmp = [Instr::CmpLt, Instr::JumpZero(2), Instr::Noop, Instr::Ret];
        assert_eq!(guard(effect(&cmp)), (2, 0));
        // The fib guard: two pushes, then the compare and branch eat
        // them, so it needs nothing and peaks two above its start.
        let fib = [
            Instr::LoadLocal(0),
            Instr::LoadImm(2),
            Instr::CmpLt,
            Instr::JumpZero(2),
            Instr::Out,
            Instr::Ret,
        ];
        assert_eq!(guard(effect(&fib)), (0, 2));
        // `LoadLocal; Exch; Add`: the exchange reaches one below.
        let acc = [Instr::LoadLocal(0), Instr::Exch, Instr::Add];
        assert_eq!(guard(effect(&acc)), (1, 1));
        // A call's prefix is checked; the call checks itself.
        let call = [
            Instr::LoadLocal(1),
            Instr::LoadImm(1),
            Instr::Sub,
            Instr::Ret,
        ];
        assert_eq!(guard(effect(&call)), (0, 2));
        // Single ops: `Dup` needs one and grows one, `StoreIndex` needs
        // three.
        assert_eq!(guard(effect(&[Instr::Dup, Instr::Ret])), (1, 1));
        assert_eq!(guard(effect(&[Instr::StoreIndex, Instr::Ret])), (3, 0));
    }

    #[test]
    fn stack_effects_cover_only_straight_line_ops() {
        // Transfers, traps and heap ops check their own stack, so the
        // table leaves them out and their ops carry no effect.
        for i in [Instr::Ret, Instr::LocalCall(0), Instr::Div, Instr::Xfer] {
            assert_eq!(stack_effect(i), None, "{i:?}");
        }
        assert_eq!(stack_effect(Instr::LoadLocalAddr(0)), Some((0, 1)));
        let bytes = body_bytes(&[Instr::Div, Instr::LoadLocalAddr(0), Instr::Ret]);
        let p = compile_body(&bytes, 0, bytes.len() as u32, true, &unknown);
        assert!(matches!(p.ops[0], NOp::Interp(Instr::Div, _)));
        assert!(matches!(p.ops[1], NOp::Interp(Instr::LoadLocalAddr(0), _)));
        assert!(p.effects.iter().all(|&e| e == Effect::default()));
        assert_eq!(p.effects.len(), p.ops.len());
    }

    #[test]
    fn call_sites_carry_their_resolved_targets() {
        use fpc_mem::{ByteAddr, WordAddr};
        let bytes = body_bytes(&[
            Instr::LoadLocal(0),
            Instr::DirectCall(0x40),
            Instr::LocalCall(2),
            Instr::ExternalCall(1),
            Instr::Ret,
        ]);
        let target = CallTarget::new(
            ByteAddr(0x40),
            WordAddr(0x100),
            ByteAddr(0),
            (1, 0),
            &fpc_frames::SizeClasses::mesa(),
        );
        // The resolver knows direct and local calls, never external
        // ones (their link-vector word is data).
        let resolve = |instr: Instr, _at: u32| match instr {
            Instr::DirectCall(_) | Instr::LocalCall(_) => Some(target),
            _ => None,
        };
        let p = compile_body(&bytes, 0, bytes.len() as u32, false, &resolve);
        // `LoadLocal; DirectCall` fuses; the site keeps the call's own
        // address, one byte into the run.
        assert!(matches!(p.ops[0], NOp::LdCall(0, 0)));
        assert!(matches!(p.ops[1], NOp::Xfer(1)));
        assert!(matches!(p.ops[2], NOp::Xfer(2)));
        assert!(matches!(p.ops[3], NOp::Xfer(3)));
        let s = &p.sites;
        assert_eq!(s.len(), 4);
        assert_eq!((s[0].at, s[0].target), (1, Some(target)));
        assert_eq!(s[1].at, s[0].at + s[0].len as u32);
        assert_eq!(s[1].target, Some(target));
        assert!(matches!(s[2].instr, Instr::ExternalCall(1)));
        assert_eq!(s[2].target, None);
        assert!(matches!(s[3].instr, Instr::Ret));
        // Each return lands on a mapped op: the one after its call.
        for (i, site) in s.iter().enumerate().take(3) {
            let back = site.at + site.len as u32;
            assert_eq!(p.offs[i + 1], back);
            assert_eq!(p.off_to_ip[back as usize], i as u32 + 1);
        }
    }

    #[test]
    fn known_call_sites_learn_their_targets_compiled_entry() {
        use fpc_mem::{ByteAddr, WordAddr};
        // Body A calls the procedure whose header sits at `hdr`; its
        // body B follows the header.
        let mut bytes = body_bytes(&[Instr::DirectCall(0), Instr::Ret]);
        let a_end = bytes.len() as u32;
        let hdr = a_end;
        bytes.extend_from_slice(&[0; PROC_HEADER_BYTES as usize]);
        let b_start = hdr + PROC_HEADER_BYTES;
        bytes.extend(body_bytes(&[Instr::LoadImm(1), Instr::Ret]));
        let target = CallTarget::new(
            ByteAddr(hdr),
            WordAddr(0x100),
            ByteAddr(0),
            (0, 0),
            &fpc_frames::SizeClasses::mesa(),
        );
        let resolve =
            |instr: Instr, _at: u32| matches!(instr, Instr::DirectCall(_)).then_some(target);
        let end = bytes.len() as u32;
        let mut t = NativeTier::new();
        // Without B in the image, A's call has nowhere compiled to go.
        t.compile_image(
            1,
            &bytes,
            std::slice::from_ref(&(0..a_end)),
            false,
            &resolve,
        );
        assert_eq!(
            t.compiled().proc(0).sites[0].entry,
            None,
            "B is not compiled"
        );
        t.compile_image(2, &bytes, &[0..a_end, b_start..end], false, &resolve);
        let entry = t.compiled().proc(0).sites[0].entry;
        assert_eq!(entry, Some((1, 0, b_start)), "A's call enters B's op 0");
        assert_eq!(t.compiled().chase(b_start, entry), Some((1, 0)));
        assert_eq!(
            t.compiled().proc(0).sites[1].entry,
            None,
            "a return has no target"
        );
    }

    #[test]
    fn return_predictor_is_a_bounded_lifo() {
        let mut r = ReturnPredictor::new();
        assert_eq!(r.pop(), None);
        r.push(1, 10, 100);
        r.push(2, 20, 200);
        assert_eq!(r.pop(), Some((2, 20, 200)));
        assert_eq!(r.pop(), Some((1, 10, 100)));
        assert_eq!(r.pop(), None);
        // Past its depth the oldest entries are overwritten: the
        // newest `PREDICTOR_DEPTH` come back, newest first, and then
        // the predictor is empty.
        let n = PREDICTOR_DEPTH as u32 + 8;
        for i in 0..n {
            r.push(0, i, i);
        }
        for i in (8..n).rev() {
            assert_eq!(r.pop(), Some((0, i, i)));
        }
        assert_eq!(r.pop(), None);
    }
}
