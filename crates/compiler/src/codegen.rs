//! Byte-code generation for one procedure.
//!
//! The generator tracks the virtual evaluation-stack depth and enforces
//! the strict discipline the Mesa encoding requires: at every `XFER`
//! the stack holds exactly the outgoing argument record, so pending
//! temporaries are **spilled** to frame temporaries before a call and
//! reloaded after — the cost §5.2 complains about for `f[g[], h[]]`.
//! The number of static spill/reload pairs is reported in the
//! compilation statistics (experiment E9).

use fpc_isa::{Assembler, Instr, Label};

use crate::ast::*;
use crate::error::{CompileError, Phase};
use crate::sema::ProgramInfo;

/// Call linkage selection (§5 vs §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Linkage {
    /// The Mesa encoding: `LOCALCALL` within a module, `EXTERNALCALL`
    /// through the link vector across modules.
    #[default]
    Mesa,
    /// Early binding: every call is a 4-byte `DIRECTCALL` (§6).
    Direct,
    /// Early binding with locality: every call is a 3-byte
    /// `SHORTDIRECTCALL`; linking fails if a callee is out of reach.
    ShortDirect,
    /// The mixed encoding §8 calls attractive: compact one-level
    /// `LOCALCALL`s within the module (the code "under development"
    /// keeps its flexibility) and early-bound `DIRECTCALL`s into other
    /// modules ("most procedures are 'in the system' … and hence are
    /// well known").
    Mixed,
}

/// Compiler options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Options {
    /// Call linkage.
    pub linkage: Linkage,
    /// Compile for register-bank argument renaming (§7.2): prologues do
    /// not store arguments; the image then requires a renaming machine.
    pub bank_args: bool,
}

/// Maximum evaluation-stack depth the generator will produce (the
/// machine's register stack is 16; two slots are headroom for the
/// transfer operands).
pub const MAX_DEPTH: u32 = 14;

/// Calls with more arguments than this use §4's long-argument-record
/// protocol: "an argument or return record can be so large that it
/// will not fit [the registers]. When this happens, space is allocated
/// from the heap to hold the record, and a pointer is passed in one of
/// the registers." The record comes from the same allocator as frames
/// and is freed by the receiver.
pub const LONG_ARG_THRESHOLD: usize = 8;

/// A linker fixup recorded against a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixKind {
    /// Patch a 24-bit absolute header address into a `DFC` site.
    Direct,
    /// Patch a 16-bit PC-relative displacement into an `SDFC` site.
    ShortDirect,
    /// Patch a packed procedure-descriptor word into a `LIW` site.
    DescWord,
}

/// One fixup: the label marks the instruction start.
#[derive(Debug, Clone, Copy)]
pub struct CallFixup {
    /// Label bound at the instruction's first byte.
    pub label: Label,
    /// What to patch.
    pub kind: FixKind,
    /// Target `(module, proc)`.
    pub target: (usize, usize),
}

/// Static call-site counts by linkage (experiment E4).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallSiteCounts {
    /// `LOCALCALL` sites.
    pub local: u64,
    /// `EXTERNALCALL` sites.
    pub external: u64,
    /// `DIRECTCALL` sites.
    pub direct: u64,
    /// `SHORTDIRECTCALL` sites.
    pub short_direct: u64,
}

impl CallSiteCounts {
    /// Total call sites.
    pub fn total(&self) -> u64 {
        self.local + self.external + self.direct + self.short_direct
    }
}

/// Result of generating one procedure body.
#[derive(Debug)]
pub struct ProcCode {
    /// Bound at the first header byte.
    pub header_label: Label,
    /// Bound at the first body instruction.
    pub body_start: Label,
    /// Bound just past the last body instruction.
    pub body_end: Label,
    /// Locals including parameters and spill temporaries.
    pub nlocals: u32,
    /// Parameter count.
    pub nargs: u8,
    /// §7.4 header flag.
    pub addr_taken: bool,
    /// Fixups to apply after placement.
    pub fixups: Vec<CallFixup>,
    /// Static spill/reload pairs emitted.
    pub spills: u64,
    /// Call sites by linkage.
    pub calls: CallSiteCounts,
}

/// Per-module link-vector accumulation: target → LV index.
#[derive(Debug, Default)]
pub struct LvBuilder {
    order: Vec<(usize, usize)>,
}

impl LvBuilder {
    /// The accumulated targets in LV order.
    pub fn targets(&self) -> &[(usize, usize)] {
        &self.order
    }

    fn get_or_insert(&mut self, target: (usize, usize)) -> Result<u8, CompileError> {
        if let Some(i) = self.order.iter().position(|&t| t == target) {
            return Ok(i as u8);
        }
        if self.order.len() >= 256 {
            return Err(CompileError::new(
                Phase::Codegen,
                None,
                "more than 256 link-vector entries in one module",
            ));
        }
        let i = self.order.len() as u8;
        self.order.push(target);
        Ok(i)
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Local(u32, Type),
    Global(u8, Type),
}

/// Generates the body of `proc` into `asm` (the module's assembler).
///
/// The caller has already emitted the 6-byte header placeholder and
/// bound `header_label` at its start.
///
/// # Errors
///
/// [`CompileError`] for encoding-limit violations (expression too deep,
/// too many temporaries, too many LV entries).
#[allow(clippy::too_many_arguments)]
pub fn gen_proc(
    asm: &mut Assembler,
    header_label: Label,
    info: &ProgramInfo,
    module: usize,
    proc: &ProcDecl,
    options: Options,
    lv: &mut LvBuilder,
) -> Result<ProcCode, CompileError> {
    let named_words = proc
        .params
        .iter()
        .chain(&proc.locals)
        .map(|v| v.ty.words())
        .sum();

    let body_start = asm.label();
    let body_end = asm.label();
    asm.bind(body_start);

    let mut g = Gen {
        asm,
        info,
        module,
        options,
        lv,
        proc,
        addr_taken: proc.locals.iter().any(|l| !l.ty.is_scalar()),
        named_words,
        temps_live: 0,
        max_temps: 0,
        depth: 0,
        fixups: Vec::new(),
        spills: 0,
        calls: CallSiteCounts::default(),
    };

    // Prologue. Short argument lists arrive in the registers: without
    // renaming, pop them into their local slots (§5.2's "ordinary
    // STORE instructions"); with renaming they are already in place
    // (§7.2). Long argument lists arrive as a pointer to a heap record
    // (§4): copy the record into the locals and free it — "the
    // receiver can therefore free it as soon as he is done with it."
    let nparams = proc.params.len();
    let nargs = if nparams > LONG_ARG_THRESHOLD {
        1u8
    } else {
        nparams as u8
    };
    if nparams > LONG_ARG_THRESHOLD {
        if !options.bank_args {
            // The record pointer parks in slot 0 (overwritten last).
            g.depth = 1;
            g.emit(Instr::StoreLocal(0));
            g.depth -= 1;
        }
        for i in (1..nparams).rev() {
            g.emit(Instr::LoadLocal(0));
            g.emit(Instr::LoadImm(i as u16));
            g.emit(Instr::LoadIndex);
            g.emit(Instr::StoreLocal(i as u8));
        }
        g.emit(Instr::LoadLocal(0));
        g.emit(Instr::Dup);
        g.emit(Instr::LoadImm(0));
        g.emit(Instr::LoadIndex);
        g.emit(Instr::Exch);
        g.emit(Instr::FreeRecord);
        g.emit(Instr::StoreLocal(0));
    } else if !options.bank_args {
        g.depth = nargs as u32;
        for i in (0..nargs).rev() {
            g.emit(Instr::StoreLocal(i));
            g.depth -= 1;
        }
    }

    g.stmts(&proc.body)?;

    // Epilogue: a value-returning procedure falling off the end is a
    // runtime error; a plain procedure just returns.
    if proc.ret.is_some() {
        g.emit(Instr::Trap(254));
    } else {
        g.emit(Instr::Ret);
    }

    let nlocals = g.named_words + g.max_temps;
    let (addr_taken, fixups, spills, calls) = (g.addr_taken, g.fixups, g.spills, g.calls);
    asm.bind(body_end);
    Ok(ProcCode {
        header_label,
        body_start,
        body_end,
        nlocals,
        nargs,
        addr_taken,
        fixups,
        spills,
        calls,
    })
}

struct Gen<'a> {
    asm: &'a mut Assembler,
    info: &'a ProgramInfo,
    module: usize,
    options: Options,
    lv: &'a mut LvBuilder,
    proc: &'a ProcDecl,
    /// The §7.4 header flag: the body takes a local's address or
    /// declares a local array (both compile to `LLA`).
    addr_taken: bool,
    named_words: u32,
    temps_live: u32,
    max_temps: u32,
    depth: u32,
    fixups: Vec<CallFixup>,
    spills: u64,
    calls: CallSiteCounts,
}

impl Gen<'_> {
    fn emit(&mut self, i: Instr) {
        self.asm.instr(i);
    }

    fn err(&self, line: Option<u32>, msg: impl Into<String>) -> CompileError {
        CompileError::new(Phase::Codegen, line, msg)
    }

    fn pushed(&mut self, line: Option<u32>) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(line, "expression too deep for the register stack"));
        }
        Ok(())
    }

    fn local_slot_u8(&self, slot: u32, line: Option<u32>) -> Result<u8, CompileError> {
        u8::try_from(slot).map_err(|_| self.err(line, "more than 255 local words"))
    }

    fn alloc_temp(&mut self, line: Option<u32>) -> Result<u8, CompileError> {
        let slot = self.named_words + self.temps_live;
        self.temps_live += 1;
        self.max_temps = self.max_temps.max(self.temps_live);
        self.local_slot_u8(slot, line)
    }

    /// Where `name` lives: a parameter or local (which shadow
    /// globals), else a global.
    fn slot(&self, name: &str, _line: u32) -> Slot {
        let mut next = 0u32;
        for v in self.proc.params.iter().chain(&self.proc.locals) {
            if v.name == name {
                return Slot::Local(next, v.ty);
            }
            next += v.ty.words();
        }
        let g = self.info.modules[self.module].globals[name];
        Slot::Global(g.offset, g.ty)
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        debug_assert_eq!(self.depth, 0, "statements start with an empty stack");
        match s {
            Stmt::Assign { name, value, line } => {
                self.expr(value)?;
                match self.slot(name, *line) {
                    Slot::Local(slot, _) => {
                        let slot = self.local_slot_u8(slot, Some(*line))?;
                        self.emit(Instr::StoreLocal(slot));
                    }
                    Slot::Global(off, _) => self.emit(Instr::StoreGlobal(off)),
                }
                self.depth -= 1;
            }
            Stmt::StoreIndex {
                name,
                index,
                value,
                line,
            } => {
                self.expr(value)?;
                self.push_base(name, *line)?;
                self.expr(index)?;
                self.emit(Instr::StoreIndex);
                self.depth -= 3;
            }
            Stmt::StoreThrough { ptr, value, .. } => {
                self.expr(value)?;
                self.expr(ptr)?;
                self.emit(Instr::Write);
                self.depth -= 2;
            }
            Stmt::If { arms, els } => {
                let end = self.asm.label();
                let mut next = self.asm.label();
                for (i, (cond, body)) in arms.iter().enumerate() {
                    if i > 0 {
                        self.asm.bind(next);
                        next = self.asm.label();
                    }
                    self.expr(cond)?;
                    self.depth -= 1;
                    self.asm.jump_zero(next);
                    self.stmts(body)?;
                    self.asm.jump(end);
                }
                self.asm.bind(next);
                self.stmts(els)?;
                self.asm.bind(end);
            }
            Stmt::While { cond, body } => {
                let top = self.asm.label();
                let exit = self.asm.label();
                self.asm.bind(top);
                self.expr(cond)?;
                self.depth -= 1;
                self.asm.jump_zero(exit);
                self.stmts(body)?;
                self.asm.jump(top);
                self.asm.bind(exit);
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.expr(v)?;
                    self.depth -= 1;
                }
                self.emit(Instr::Ret);
            }
            Stmt::Out(e) => {
                self.expr(e)?;
                self.emit(Instr::Out);
                self.depth -= 1;
            }
            Stmt::Halt => self.emit(Instr::Halt),
            Stmt::Yield => self.emit(Instr::ProcessSwitch),
            Stmt::Call(c) => {
                let has_result = self.gen_call(c)?;
                if has_result {
                    self.emit(Instr::Drop);
                    self.depth -= 1;
                }
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.emit(Instr::Drop);
                self.depth -= 1;
            }
            Stmt::CoFree(e) => {
                self.expr(e)?;
                self.emit(Instr::FreeContext);
                self.depth -= 1;
            }
        }
        debug_assert_eq!(self.depth, 0, "statements end with an empty stack");
        Ok(())
    }

    /// Pushes the base address (array) or base value (pointer) for
    /// indexed access to `name`.
    fn push_base(&mut self, name: &str, line: u32) -> Result<(), CompileError> {
        match self.slot(name, line) {
            Slot::Local(slot, Type::Array(_)) => {
                let slot = self.local_slot_u8(slot, Some(line))?;
                self.emit(Instr::LoadLocalAddr(slot));
            }
            Slot::Local(slot, _) => {
                let slot = self.local_slot_u8(slot, Some(line))?;
                self.emit(Instr::LoadLocal(slot));
            }
            Slot::Global(off, Type::Array(_)) => self.emit(Instr::LoadGlobalAddr(off)),
            Slot::Global(off, _) => self.emit(Instr::LoadGlobal(off)),
        }
        self.pushed(Some(line))
    }

    /// Spills everything on the virtual stack to temporaries. Returns
    /// the temp slots in pop order (first element holds what was the
    /// top of stack).
    fn spill_pending(&mut self, line: Option<u32>) -> Result<Vec<u8>, CompileError> {
        let pending = self.depth;
        let mut temps = Vec::with_capacity(pending as usize);
        for _ in 0..pending {
            let t = self.alloc_temp(line)?;
            self.emit(Instr::StoreLocal(t));
            self.depth -= 1;
            temps.push(t);
        }
        self.spills += pending as u64;
        Ok(temps)
    }

    /// Reloads spilled values, keeping a result (if any) on top.
    fn reload_pending(&mut self, temps: &[u8], has_result: bool) -> Result<(), CompileError> {
        for &t in temps.iter().rev() {
            self.emit(Instr::LoadLocal(t));
            self.pushed(None)?;
            if has_result {
                self.emit(Instr::Exch);
            }
        }
        self.temps_live -= temps.len() as u32;
        Ok(())
    }

    /// Emits a call; returns whether a result was pushed.
    fn gen_call(&mut self, c: &CallExpr) -> Result<bool, CompileError> {
        let (mi, pi) = self.info.resolve(self.module, &c.target)?;
        let has_result = self.info.sig(mi, pi).ret.is_some();
        let line = Some(c.target.line);
        let temps = self.spill_pending(line)?;
        let long = c.args.len() > LONG_ARG_THRESHOLD;
        if long {
            // §4 long argument record: allocate, fill, pass the pointer.
            self.emit(Instr::AllocRecord(c.args.len() as u8));
            self.pushed(line)?;
            for (i, a) in c.args.iter().enumerate() {
                self.emit(Instr::Dup);
                self.pushed(line)?;
                self.expr(a)?;
                self.emit(Instr::Exch);
                self.emit(Instr::LoadImm(i as u16));
                self.pushed(line)?;
                self.emit(Instr::StoreIndex);
                self.depth -= 3;
            }
        } else {
            for a in &c.args {
                self.expr(a)?;
            }
        }
        match self.options.linkage {
            Linkage::Mesa | Linkage::Mixed if mi == self.module => {
                self.emit(Instr::LocalCall(pi as u8));
                self.calls.local += 1;
            }
            Linkage::Mesa => {
                let idx = self.lv.get_or_insert((mi, pi))?;
                self.emit(Instr::ExternalCall(idx));
                self.calls.external += 1;
            }
            Linkage::Direct | Linkage::Mixed => {
                let l = self.asm.label();
                self.asm.bind(l);
                self.asm.raw(&[fpc_isa::opcode::DFC, 0, 0, 0]);
                self.fixups.push(CallFixup {
                    label: l,
                    kind: FixKind::Direct,
                    target: (mi, pi),
                });
                self.calls.direct += 1;
            }
            Linkage::ShortDirect => {
                let l = self.asm.label();
                self.asm.bind(l);
                self.asm.raw(&[fpc_isa::opcode::SDFC, 0, 0]);
                self.fixups.push(CallFixup {
                    label: l,
                    kind: FixKind::ShortDirect,
                    target: (mi, pi),
                });
                self.calls.short_direct += 1;
            }
        }
        self.depth -= if long { 1 } else { c.args.len() as u32 };
        if has_result {
            self.pushed(line)?;
        }
        self.reload_pending(&temps, has_result)?;
        Ok(has_result)
    }

    /// Emits a descriptor-word load for `target` (patched at link).
    fn gen_desc(&mut self, target: &ProcName) -> Result<(), CompileError> {
        let t = self.info.resolve(self.module, target)?;
        let l = self.asm.label();
        self.asm.bind(l);
        self.asm.raw(&[fpc_isa::opcode::LIW, 0, 0]);
        self.fixups.push(CallFixup {
            label: l,
            kind: FixKind::DescWord,
            target: t,
        });
        self.pushed(Some(target.line))
    }

    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Num(n) => {
                let v = if *n < 0 {
                    (*n as i16) as u16
                } else {
                    *n as u16
                };
                self.emit(Instr::LoadImm(v));
                self.pushed(e.line())
            }
            Expr::Bool(b) => {
                self.emit(Instr::LoadImm(*b as u16));
                self.pushed(None)
            }
            Expr::Var { name, line } => {
                match self.slot(name, *line) {
                    Slot::Local(slot, _) => {
                        let slot = self.local_slot_u8(slot, Some(*line))?;
                        self.emit(Instr::LoadLocal(slot));
                    }
                    Slot::Global(off, _) => self.emit(Instr::LoadGlobal(off)),
                }
                self.pushed(Some(*line))
            }
            Expr::Index { name, index, line } => {
                self.push_base(name, *line)?;
                self.expr(index)?;
                self.emit(Instr::LoadIndex);
                self.depth -= 1;
                Ok(())
            }
            Expr::Unary { op, expr } => {
                self.expr(expr)?;
                match op {
                    UnOp::Neg => self.emit(Instr::Neg),
                    UnOp::Not => {
                        self.emit(Instr::LoadImm(0));
                        self.emit(Instr::CmpEq);
                    }
                }
                Ok(())
            }
            Expr::Deref(p) => {
                self.expr(p)?;
                self.emit(Instr::Read);
                Ok(())
            }
            Expr::Binary { op, lhs, rhs } => {
                match op {
                    BinOp::And | BinOp::Or => {
                        // Logical: normalise both sides to 0/1.
                        self.expr(lhs)?;
                        self.emit(Instr::LoadImm(0));
                        self.emit(Instr::CmpNe);
                        self.expr(rhs)?;
                        self.emit(Instr::LoadImm(0));
                        self.emit(Instr::CmpNe);
                        self.emit(if *op == BinOp::And {
                            Instr::And
                        } else {
                            Instr::Or
                        });
                    }
                    _ => {
                        self.expr(lhs)?;
                        self.expr(rhs)?;
                        self.emit(match op {
                            BinOp::Add => Instr::Add,
                            BinOp::Sub => Instr::Sub,
                            BinOp::Mul => Instr::Mul,
                            BinOp::Div => Instr::Div,
                            BinOp::Mod => Instr::Mod,
                            BinOp::Eq => Instr::CmpEq,
                            BinOp::Ne => Instr::CmpNe,
                            BinOp::Lt => Instr::CmpLt,
                            BinOp::Le => Instr::CmpLe,
                            BinOp::Gt => Instr::CmpGt,
                            BinOp::Ge => Instr::CmpGe,
                            // Audited: not guest-reachable. And/Or are
                            // consumed by the logical-normalisation arm
                            // above; this arm only sees the arithmetic
                            // and comparison operators.
                            BinOp::And | BinOp::Or => unreachable!(),
                        });
                    }
                }
                self.depth -= 1;
                Ok(())
            }
            Expr::Call(c) => self.gen_call(c).map(|_| ()),
            Expr::AddrOf { name, index, line } => {
                match self.slot(name, *line) {
                    Slot::Local(slot, _) => {
                        let slot = self.local_slot_u8(slot, Some(*line))?;
                        self.emit(Instr::LoadLocalAddr(slot));
                        self.addr_taken = true;
                    }
                    Slot::Global(off, _) => self.emit(Instr::LoadGlobalAddr(off)),
                }
                self.pushed(Some(*line))?;
                if let Some(i) = index {
                    self.expr(i)?;
                    self.emit(Instr::Add);
                    self.depth -= 1;
                }
                Ok(())
            }
            Expr::CoCreate(p) => {
                self.gen_desc(p)?;
                self.emit(Instr::NewContext);
                Ok(())
            }
            Expr::Spawn(p) => {
                self.gen_desc(p)?;
                self.emit(Instr::Spawn);
                Ok(())
            }
            Expr::CoStart(c) => {
                // First transfer: no values sent, one received.
                let temps = self.spill_pending(e.line())?;
                self.expr(c)?;
                self.emit(Instr::Xfer);
                // The context word was consumed; the resumption value
                // replaces it, so depth is unchanged.
                self.reload_pending(&temps, true)?;
                Ok(())
            }
            Expr::CoTransfer { ctx, value } => {
                let temps = self.spill_pending(e.line())?;
                self.expr(value)?;
                self.expr(ctx)?;
                self.emit(Instr::Xfer);
                // Value and context consumed; one value comes back.
                self.depth -= 1;
                self.reload_pending(&temps, true)?;
                Ok(())
            }
            Expr::CoCaller => {
                self.emit(Instr::ReturnContext);
                self.pushed(None)
            }
        }
    }
}
