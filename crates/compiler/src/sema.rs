//! Name resolution and shape checking.
//!
//! Mesa-lite is weakly typed in the BCPL tradition — every scalar is a
//! 16-bit word — so "checking" here means: names resolve, call arities
//! match, arrays are not used as scalars, returns agree with
//! signatures, and the various encoding limits hold (≤ 63 parameters,
//! ≤ 256 entry points per module, global offsets within a byte).

use std::collections::HashMap;

use crate::ast::*;
use crate::error::{CompileError, Phase};

/// A module's global variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalSlot {
    /// Word offset within the global variables area.
    pub offset: u8,
    /// Declared type.
    pub ty: Type,
}

/// A procedure signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcSig {
    /// Name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type, if any.
    pub ret: Option<Type>,
    /// Entry-vector index.
    pub ev: u16,
}

/// Resolved facts about one module.
#[derive(Debug, Clone)]
pub struct ModuleInfo {
    /// Module name.
    pub name: String,
    /// Globals by name.
    pub globals: HashMap<String, GlobalSlot>,
    /// Total global words.
    pub globals_words: u32,
    /// Procedures in entry-vector order.
    pub procs: Vec<ProcSig>,
    /// Procedure name → entry-vector index.
    pub proc_index: HashMap<String, usize>,
    /// Imported module indices.
    pub imports: Vec<usize>,
    /// `Some(owner)` when this entry is an instance of another module
    /// (same code, own globals — §5.1).
    pub instance_of: Option<usize>,
    /// For instances: the module whose source declared them (the only
    /// place the instance name is visible).
    pub declared_in: Option<usize>,
}

/// The resolved program.
#[derive(Debug, Clone)]
pub struct ProgramInfo {
    /// Per-module facts, in input order.
    pub modules: Vec<ModuleInfo>,
    /// Module name → index.
    pub by_name: HashMap<String, usize>,
    /// `(module, ev)` of the unique `main`.
    pub main: (usize, u16),
}

impl ProgramInfo {
    /// Resolves a possibly-qualified procedure name from the viewpoint
    /// of module `from`.
    ///
    /// # Errors
    ///
    /// [`CompileError`] for unknown modules/procedures or modules not
    /// imported.
    pub fn resolve(&self, from: usize, target: &ProcName) -> Result<(usize, usize), CompileError> {
        let err = |msg: String| CompileError::new(Phase::Sema, Some(target.line), msg);
        let (mi, name) = match &target.module {
            None => (from, &target.name),
            Some(m) => {
                let &mi = self
                    .by_name
                    .get(m)
                    .ok_or_else(|| err(format!("unknown module `{m}`")))?;
                let visible = mi == from
                    || self.modules[from].imports.contains(&mi)
                    || self.modules[mi].declared_in == Some(from);
                if !visible {
                    return Err(err(format!(
                        "module `{}` does not import `{m}`",
                        self.modules[from].name
                    )));
                }
                (mi, &target.name)
            }
        };
        let pi = self.modules[mi]
            .proc_index
            .get(name)
            .copied()
            .ok_or_else(|| {
                err(format!(
                    "unknown procedure `{}` in module `{}`",
                    name, self.modules[mi].name
                ))
            })?;
        Ok((mi, pi))
    }

    /// The signature of `(module, proc)`.
    pub fn sig(&self, module: usize, proc: usize) -> &ProcSig {
        &self.modules[module].procs[proc]
    }
}

/// Maximum parameters (the header flags byte limit).
pub const MAX_PARAMS: usize = 63;
/// Maximum entry points per module (the `LFCB` operand range).
pub const MAX_PROCS: usize = 256;
/// Maximum global word offset (the `LG`/`LGA` operand range).
pub const MAX_GLOBAL_OFFSET: u32 = 255;
/// Maximum local slot (the `LLB` operand range).
pub const MAX_LOCAL_SLOT: u32 = 255;

/// Analyses a parsed program.
///
/// # Errors
///
/// The first [`CompileError`] found.
pub fn analyze(modules: &[Module]) -> Result<ProgramInfo, CompileError> {
    let err = |line: u32, msg: String| CompileError::new(Phase::Sema, Some(line), msg);

    // Pass 1: module-level tables.
    let mut by_name = HashMap::new();
    for (i, m) in modules.iter().enumerate() {
        if by_name.insert(m.name.clone(), i).is_some() {
            return Err(err(m.line, format!("duplicate module `{}`", m.name)));
        }
    }
    let mut infos = Vec::with_capacity(modules.len());
    for m in modules {
        let mut globals = HashMap::new();
        let mut offset = 0u32;
        for g in &m.globals {
            if offset > MAX_GLOBAL_OFFSET {
                return Err(err(
                    g.line,
                    format!("global `{}` beyond word offset 255", g.name),
                ));
            }
            if globals
                .insert(
                    g.name.clone(),
                    GlobalSlot {
                        offset: offset as u8,
                        ty: g.ty,
                    },
                )
                .is_some()
            {
                return Err(err(g.line, format!("duplicate global `{}`", g.name)));
            }
            offset += g.ty.words();
        }
        if m.procs.len() > MAX_PROCS {
            return Err(err(
                m.line,
                format!("module `{}` has more than 256 procedures", m.name),
            ));
        }
        let mut procs = Vec::new();
        let mut proc_index = HashMap::new();
        for (pi, p) in m.procs.iter().enumerate() {
            if p.params.len() > MAX_PARAMS {
                return Err(err(
                    p.line,
                    format!("`{}` has more than 63 parameters", p.name),
                ));
            }
            if proc_index.insert(p.name.clone(), pi).is_some() {
                return Err(err(p.line, format!("duplicate procedure `{}`", p.name)));
            }
            procs.push(ProcSig {
                name: p.name.clone(),
                params: p.params.iter().map(|v| v.ty).collect(),
                ret: p.ret,
                ev: pi as u16,
            });
        }
        let imports = m
            .imports
            .iter()
            .map(|name| {
                by_name
                    .get(name)
                    .copied()
                    .ok_or_else(|| err(m.line, format!("unknown import `{name}`")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        infos.push(ModuleInfo {
            name: m.name.clone(),
            globals,
            globals_words: offset,
            procs,
            proc_index,
            imports,
            instance_of: None,
            declared_in: None,
        });
    }

    // Instance declarations become additional ModuleInfo entries
    // appended after the real modules, sharing the owner's procedures
    // and global layout but naming a fresh global frame (§5.1).
    for (mi, m) in modules.iter().enumerate() {
        for inst in &m.instances {
            if by_name.contains_key(&inst.name) {
                return Err(err(inst.line, format!("duplicate module `{}`", inst.name)));
            }
            let &owner = by_name.get(&inst.of).ok_or_else(|| {
                err(
                    inst.line,
                    format!("unknown module `{}` in instance", inst.of),
                )
            })?;
            if infos[owner].instance_of.is_some() {
                return Err(err(
                    inst.line,
                    format!(
                        "`{}` is itself an instance; instantiate `{}`'s owner",
                        inst.of, inst.of
                    ),
                ));
            }
            let mut clone = infos[owner].clone();
            clone.name = inst.name.clone();
            clone.instance_of = Some(owner);
            clone.declared_in = Some(mi);
            by_name.insert(inst.name.clone(), infos.len());
            infos.push(clone);
        }
    }

    // Find main (instances share their owner's procedures and do not
    // contribute additional mains).
    let mut main = None;
    for (mi, info) in infos.iter().enumerate() {
        if info.instance_of.is_some() {
            continue;
        }
        if let Some(&pi) = info.proc_index.get("main") {
            if main.is_some() {
                return Err(err(modules[mi].line, "more than one `main`".into()));
            }
            if !info.procs[pi].params.is_empty() {
                return Err(err(
                    modules[mi].procs[pi].line,
                    "`main` takes no parameters".into(),
                ));
            }
            main = Some((mi, pi as u16));
        }
    }
    let main = main
        .ok_or_else(|| CompileError::new(Phase::Sema, None, "no `main` procedure in any module"))?;

    let info = ProgramInfo {
        modules: infos,
        by_name,
        main,
    };

    // Pass 2: walk bodies.
    for (mi, m) in modules.iter().enumerate() {
        for p in &m.procs {
            let mut ck = Checker::new(&info, mi, p)?;
            ck.stmts(&p.body)?;
        }
    }
    Ok(info)
}

/// The parameter or local `name` of `p`, if it names one.
fn local<'a>(p: &'a ProcDecl, name: &str) -> Option<&'a VarDecl> {
    p.params.iter().chain(&p.locals).find(|v| v.name == name)
}

/// What a name refers to inside a procedure body.
#[derive(Debug, Clone, Copy)]
enum Binding {
    Local(Type),
    Global(Type),
}

struct Checker<'a> {
    info: &'a ProgramInfo,
    module: usize,
    proc: &'a ProcDecl,
}

impl<'a> Checker<'a> {
    fn new(info: &'a ProgramInfo, module: usize, p: &'a ProcDecl) -> Result<Self, CompileError> {
        let mut slot = 0u32;
        for v in p.params.iter().chain(&p.locals) {
            // Any but a name's first declaration is a duplicate.
            if local(p, &v.name).is_some_and(|first| !std::ptr::eq(first, v)) {
                return Err(CompileError::new(
                    Phase::Sema,
                    Some(v.line),
                    format!("duplicate local `{}`", v.name),
                ));
            }
            slot += v.ty.words();
        }
        if slot > MAX_LOCAL_SLOT {
            return Err(CompileError::new(
                Phase::Sema,
                Some(p.line),
                format!("`{}` needs more than 255 local words", p.name),
            ));
        }
        Ok(Checker {
            info,
            module,
            proc: p,
        })
    }

    fn err(&self, line: Option<u32>, msg: String) -> CompileError {
        CompileError::new(Phase::Sema, line, msg)
    }

    /// What `name` refers to: a parameter or local (which shadow
    /// globals), else a global.
    fn lookup(&self, name: &str, line: u32) -> Result<Binding, CompileError> {
        if let Some(v) = local(self.proc, name) {
            return Ok(Binding::Local(v.ty));
        }
        self.info.modules[self.module]
            .globals
            .get(name)
            .map(|g| Binding::Global(g.ty))
            .ok_or_else(|| self.err(Some(line), format!("unknown variable `{name}`")))
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Assign { name, value, line } => {
                let b = self.lookup(name, *line)?;
                let ty = match b {
                    Binding::Local(t) | Binding::Global(t) => t,
                };
                if !ty.is_scalar() {
                    return Err(self.err(Some(*line), format!("cannot assign to array `{name}`")));
                }
                self.expr(value)
            }
            Stmt::StoreIndex {
                name,
                index,
                value,
                line,
            } => {
                let b = self.lookup(name, *line)?;
                let ty = match b {
                    Binding::Local(t) | Binding::Global(t) => t,
                };
                if !matches!(ty, Type::Array(_) | Type::Ptr) {
                    return Err(self.err(Some(*line), format!("`{name}` is not indexable")));
                }
                self.expr(index)?;
                self.expr(value)
            }
            Stmt::StoreThrough { ptr, value, .. } => {
                self.expr(ptr)?;
                self.expr(value)
            }
            Stmt::If { arms, els } => {
                for (c, b) in arms {
                    self.expr(c)?;
                    self.stmts(b)?;
                }
                self.stmts(els)
            }
            Stmt::While { cond, body } => {
                self.expr(cond)?;
                self.stmts(body)
            }
            Stmt::Return { value, line } => match (self.proc.ret, value) {
                (Some(_), Some(e)) => self.expr(e),
                (None, None) => Ok(()),
                (Some(_), None) => Err(self.err(Some(*line), "missing return value".into())),
                (None, Some(_)) => Err(self.err(Some(*line), "procedure returns no value".into())),
            },
            Stmt::Out(e) | Stmt::CoFree(e) | Stmt::Expr(e) => self.expr(e),
            Stmt::Halt | Stmt::Yield => Ok(()),
            Stmt::Call(c) => self.call(c, false).map(|_| ()),
        }
    }

    /// Checks a call; `need_value` requires a return value.
    fn call(&mut self, c: &CallExpr, need_value: bool) -> Result<(), CompileError> {
        let (mi, pi) = self.info.resolve(self.module, &c.target)?;
        let sig = self.info.sig(mi, pi);
        if sig.params.len() != c.args.len() {
            return Err(self.err(
                Some(c.target.line),
                format!(
                    "`{}` takes {} arguments, {} given",
                    sig.name,
                    sig.params.len(),
                    c.args.len()
                ),
            ));
        }
        if need_value && sig.ret.is_none() {
            return Err(self.err(
                Some(c.target.line),
                format!("`{}` returns no value", sig.name),
            ));
        }
        for a in &c.args {
            self.expr(a)?;
        }
        Ok(())
    }

    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Num(_) | Expr::Bool(_) | Expr::CoCaller => Ok(()),
            Expr::Var { name, line } => {
                let b = self.lookup(name, *line)?;
                let ty = match b {
                    Binding::Local(t) | Binding::Global(t) => t,
                };
                if !ty.is_scalar() {
                    return Err(self.err(
                        Some(*line),
                        format!("array `{name}` used as a value; index it or take `&{name}`"),
                    ));
                }
                Ok(())
            }
            Expr::Index { name, index, line } => {
                let b = self.lookup(name, *line)?;
                let ty = match b {
                    Binding::Local(t) | Binding::Global(t) => t,
                };
                if !matches!(ty, Type::Array(_) | Type::Ptr) {
                    return Err(self.err(Some(*line), format!("`{name}` is not indexable")));
                }
                self.expr(index)
            }
            Expr::Unary { expr, .. } | Expr::Deref(expr) => self.expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs)?;
                self.expr(rhs)
            }
            Expr::Call(c) => self.call(c, true),
            Expr::AddrOf { name, index, line } => {
                let _ = self.lookup(name, *line)?;
                if let Some(i) = index {
                    self.expr(i)?;
                }
                Ok(())
            }
            Expr::CoCreate(p) | Expr::Spawn(p) => {
                let (mi, pi) = self.info.resolve(self.module, p)?;
                let sig = self.info.sig(mi, pi);
                if !sig.params.is_empty() {
                    return Err(self.err(
                        Some(p.line),
                        format!(
                            "`{}` takes parameters; coroutine and process roots take none \
                             (receive values via co_transfer)",
                            sig.name
                        ),
                    ));
                }
                Ok(())
            }
            Expr::CoStart(c) => self.expr(c),
            Expr::CoTransfer { ctx, value } => {
                self.expr(ctx)?;
                self.expr(value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn analyze_srcs(srcs: &[&str]) -> Result<ProgramInfo, CompileError> {
        let modules: Vec<Module> = srcs.iter().map(|s| parse_module(s).unwrap()).collect();
        analyze(&modules)
    }

    #[test]
    fn resolves_simple_program() {
        let info = analyze_srcs(&["module M; proc main() begin out 1; end; end."]).unwrap();
        assert_eq!(info.main, (0, 0));
        assert_eq!(info.modules[0].procs[0].name, "main");
    }

    #[test]
    fn global_offsets_account_for_arrays() {
        let info = analyze_srcs(&["module M;
             var a: int;
             var t: array[5] of int;
             var b: int;
             proc main() begin b := a; end;
             end."])
        .unwrap();
        let g = &info.modules[0].globals;
        assert_eq!(g["a"].offset, 0);
        assert_eq!(g["t"].offset, 1);
        assert_eq!(g["b"].offset, 6);
        assert_eq!(info.modules[0].globals_words, 7);
    }

    #[test]
    fn cross_module_calls_need_imports() {
        let lib = "module Lib; proc f(): int begin return 1; end; end.";
        let ok = "module M imports Lib; proc main() begin out Lib.f(); end; end.";
        assert!(analyze_srcs(&[lib, ok]).is_ok());
        let bad = "module M; proc main() begin out Lib.f(); end; end.";
        let e = analyze_srcs(&[lib, bad]).unwrap_err();
        assert!(e.to_string().contains("import"), "{e}");
    }

    #[test]
    fn arity_checked() {
        let e = analyze_srcs(&["module M;
             proc f(a: int, b: int): int begin return a + b; end;
             proc main() begin out f(1); end;
             end."])
        .unwrap_err();
        assert!(e.to_string().contains("2 arguments"));
    }

    #[test]
    fn void_call_in_expression_rejected() {
        let e = analyze_srcs(&["module M;
             proc f() begin end;
             proc main() begin out f(); end;
             end."])
        .unwrap_err();
        assert!(e.to_string().contains("returns no value"));
    }

    #[test]
    fn array_as_value_rejected() {
        let e = analyze_srcs(&["module M;
             proc main() var a: array[3] of int; begin out a; end;
             end."])
        .unwrap_err();
        assert!(e.to_string().contains("used as a value"));
    }

    #[test]
    fn unknown_names_rejected() {
        assert!(analyze_srcs(&["module M; proc main() begin out x; end; end."]).is_err());
        assert!(analyze_srcs(&["module M; proc main() begin out g(); end; end."]).is_err());
    }

    #[test]
    fn return_shape_checked() {
        assert!(analyze_srcs(&[
            "module M; proc f(): int begin return; end; proc main() begin end; end."
        ])
        .is_err());
        assert!(analyze_srcs(&[
            "module M; proc f() begin return 1; end; proc main() begin end; end."
        ])
        .is_err());
    }

    #[test]
    fn main_required_and_unique() {
        let e = analyze_srcs(&["module M; proc f() begin end; end."]).unwrap_err();
        assert!(e.to_string().contains("main"));
        let e = analyze_srcs(&[
            "module A; proc main() begin end; end.",
            "module B; proc main() begin end; end.",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("more than one"));
    }

    #[test]
    fn duplicate_locals_rejected() {
        let e = analyze_srcs(&[
            "module M; proc f(x: int) var x: int; begin end; proc main() begin end; end.",
        ])
        .unwrap_err();
        assert!(e.to_string().contains("duplicate local"));
    }
}
