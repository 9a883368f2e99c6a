//! Recursive-descent parser for Mesa-lite.

use crate::ast::*;
use crate::error::{CompileError, Phase};
use crate::token::{lex, Tok, Token};

/// Parses one module source.
///
/// # Errors
///
/// [`CompileError`] with the offending line on lexical or syntactic
/// problems.
pub fn parse_module(src: &str) -> Result<Module, CompileError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let m = p.module()?;
    p.expect(Tok::Eof)?;
    Ok(m)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Consumes the current token, moving it out. The parser never
    /// looks back, and the final `Eof` is never consumed past.
    fn bump(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.tokens[self.pos].kind, Tok::Eof);
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(Phase::Parse, Some(self.line()), msg)
    }

    fn expect(&mut self, t: Tok) -> Result<(), CompileError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        if let Tok::Ident(s) = &mut self.tokens[self.pos].kind {
            let s = std::mem::take(s);
            self.bump();
            return Ok(s);
        }
        Err(self.err(format!("expected identifier, found {}", self.peek())))
    }

    fn module(&mut self) -> Result<Module, CompileError> {
        let line = self.line();
        self.expect(Tok::Module)?;
        let name = self.ident()?;
        let mut imports = Vec::new();
        if self.eat(Tok::Imports) {
            imports.push(self.ident()?);
            while self.eat(Tok::Comma) {
                imports.push(self.ident()?);
            }
        }
        self.expect(Tok::Semi)?;
        let mut globals = Vec::new();
        let mut procs = Vec::new();
        let mut instances = Vec::new();
        loop {
            match self.peek() {
                Tok::Var => globals.push(self.var_decl()?),
                Tok::Proc => procs.push(self.proc_decl()?),
                Tok::Instance => {
                    let iline = self.line();
                    self.bump();
                    let iname = self.ident()?;
                    self.expect(Tok::Of)?;
                    let of = self.ident()?;
                    self.expect(Tok::Semi)?;
                    instances.push(InstanceDecl {
                        name: iname,
                        of,
                        line: iline,
                    });
                }
                Tok::End => break,
                other => return Err(self.err(format!("expected declaration, found {other}"))),
            }
        }
        self.expect(Tok::End)?;
        self.expect(Tok::Dot)?;
        Ok(Module {
            name,
            imports,
            globals,
            procs,
            instances,
            line,
        })
    }

    fn var_decl(&mut self) -> Result<VarDecl, CompileError> {
        let line = self.line();
        self.expect(Tok::Var)?;
        let name = self.ident()?;
        self.expect(Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(Tok::Semi)?;
        Ok(VarDecl { name, ty, line })
    }

    fn ty(&mut self) -> Result<Type, CompileError> {
        match self.bump() {
            Tok::Int => Ok(Type::Int),
            Tok::Bool => Ok(Type::Bool),
            Tok::Ctx => Ok(Type::Ctx),
            Tok::Ptr => Ok(Type::Ptr),
            Tok::Array => {
                self.expect(Tok::LBracket)?;
                let n = match self.bump() {
                    Tok::Num(n) if (1..=4096).contains(&n) => n as u16,
                    Tok::Num(n) => {
                        return Err(self.err(format!("array size {n} out of range 1..=4096")))
                    }
                    other => return Err(self.err(format!("expected array size, found {other}"))),
                };
                self.expect(Tok::RBracket)?;
                self.expect(Tok::Of)?;
                self.expect(Tok::Int)?;
                Ok(Type::Array(n))
            }
            other => Err(self.err(format!("expected type, found {other}"))),
        }
    }

    fn proc_decl(&mut self) -> Result<ProcDecl, CompileError> {
        let line = self.line();
        self.expect(Tok::Proc)?;
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(Tok::RParen) {
            loop {
                let pline = self.line();
                let pname = self.ident()?;
                self.expect(Tok::Colon)?;
                let ty = self.ty()?;
                if !ty.is_scalar() {
                    return Err(self.err("array parameters are not supported; pass a pointer"));
                }
                params.push(VarDecl {
                    name: pname,
                    ty,
                    line: pline,
                });
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
        }
        let ret = if self.eat(Tok::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        if let Some(t) = ret {
            if !t.is_scalar() {
                return Err(self.err("procedures cannot return arrays"));
            }
        }
        let mut locals = Vec::new();
        while *self.peek() == Tok::Var {
            locals.push(self.var_decl()?);
        }
        let body = self.block()?;
        self.eat(Tok::Semi); // optional after `end`
        Ok(ProcDecl {
            name,
            params,
            ret,
            locals,
            body,
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect(Tok::Begin)?;
        let body = self.stmts_until(&[Tok::End])?;
        self.expect(Tok::End)?;
        Ok(body)
    }

    fn stmts_until(&mut self, stops: &[Tok]) -> Result<Vec<Stmt>, CompileError> {
        let mut out = Vec::new();
        while !stops.contains(self.peek()) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek() {
            Tok::If => {
                self.bump();
                let mut arms = Vec::new();
                let cond = self.expr()?;
                self.expect(Tok::Then)?;
                let body = self.stmts_until(&[Tok::Elsif, Tok::Else, Tok::End])?;
                arms.push((cond, body));
                while self.eat(Tok::Elsif) {
                    let c = self.expr()?;
                    self.expect(Tok::Then)?;
                    let b = self.stmts_until(&[Tok::Elsif, Tok::Else, Tok::End])?;
                    arms.push((c, b));
                }
                let els = if self.eat(Tok::Else) {
                    self.stmts_until(&[Tok::End])?
                } else {
                    Vec::new()
                };
                self.expect(Tok::End)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::If { arms, els })
            }
            Tok::While => {
                self.bump();
                let cond = self.expr()?;
                self.expect(Tok::Do)?;
                let body = self.stmts_until(&[Tok::End])?;
                self.expect(Tok::End)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Return => {
                self.bump();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            Tok::Out => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Out(e))
            }
            Tok::Halt => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Halt)
            }
            Tok::Yield => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Yield)
            }
            Tok::Star => {
                self.bump();
                let ptr = self.unary()?;
                self.expect(Tok::Assign)?;
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::StoreThrough { ptr, value, line })
            }
            Tok::Ident(name) => {
                match self.peek2() {
                    Tok::Assign => {
                        let name = self.ident()?;
                        self.bump();
                        let value = self.expr()?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Assign { name, value, line })
                    }
                    Tok::LBracket => {
                        let name = self.ident()?;
                        self.bump();
                        let index = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        self.expect(Tok::Assign)?;
                        let value = self.expr()?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::StoreIndex {
                            name,
                            index,
                            value,
                            line,
                        })
                    }
                    Tok::LParen | Tok::Dot => {
                        // A call statement, or a builtin.
                        if name.as_str() == "co_free" {
                            self.bump();
                            self.expect(Tok::LParen)?;
                            let e = self.expr()?;
                            self.expect(Tok::RParen)?;
                            self.expect(Tok::Semi)?;
                            return Ok(Stmt::CoFree(e));
                        }
                        let e = self.expr()?;
                        self.expect(Tok::Semi)?;
                        match e {
                            Expr::Call(c) => Ok(Stmt::Call(c)),
                            e @ (Expr::CoTransfer { .. } | Expr::Spawn(_)) => {
                                // A transfer or spawn for effect: the
                                // result is dropped.
                                Ok(Stmt::Expr(e))
                            }
                            _ => Err(self.err("expected a call statement")),
                        }
                    }
                    other => Err(self.err(format!(
                        "expected `:=`, `[` or `(` after `{name}`, found {other}"
                    ))),
                }
            }
            other => Err(self.err(format!("expected statement, found {other}"))),
        }
    }

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.and_expr()?;
        while self.eat(Tok::Or) {
            let r = self.and_expr()?;
            e = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.cmp_expr()?;
        while self.eat(Tok::And) {
            let r = self.cmp_expr()?;
            e = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<Expr, CompileError> {
        let e = self.add_expr()?;
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(e),
        };
        self.bump();
        let r = self.add_expr()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(e),
            rhs: Box::new(r),
        })
    }

    fn add_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.mul_expr()?;
            e = Expr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let r = self.unary()?;
            e = Expr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(r),
            };
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                })
            }
            Tok::Not => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                })
            }
            Tok::Star => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Deref(Box::new(e)))
            }
            Tok::Amp => {
                let line = self.line();
                self.bump();
                let name = self.ident()?;
                let index = if self.eat(Tok::LBracket) {
                    let i = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Some(Box::new(i))
                } else {
                    None
                };
                Ok(Expr::AddrOf { name, index, line })
            }
            _ => self.primary(),
        }
    }

    fn proc_name(&mut self, first: String, line: u32) -> Result<ProcName, CompileError> {
        if self.eat(Tok::Dot) {
            let name = self.ident()?;
            Ok(ProcName {
                module: Some(first),
                name,
                line,
            })
        } else {
            Ok(ProcName {
                module: None,
                name: first,
                line,
            })
        }
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.bump() {
            Tok::Num(n) => Ok(Expr::Num(n)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                match self.peek() {
                    Tok::LBracket => {
                        self.bump();
                        let index = self.expr()?;
                        self.expect(Tok::RBracket)?;
                        Ok(Expr::Index {
                            name,
                            index: Box::new(index),
                            line,
                        })
                    }
                    Tok::LParen | Tok::Dot => {
                        // Builtins are syntactically calls.
                        match name.as_str() {
                            "co_create" | "spawn" => {
                                self.expect(Tok::LParen)?;
                                let fline = self.line();
                                let first = self.ident()?;
                                let target = self.proc_name(first, fline)?;
                                self.expect(Tok::RParen)?;
                                if name == "co_create" {
                                    Ok(Expr::CoCreate(target))
                                } else {
                                    Ok(Expr::Spawn(target))
                                }
                            }
                            "co_start" => {
                                self.expect(Tok::LParen)?;
                                let ctx = self.expr()?;
                                self.expect(Tok::RParen)?;
                                Ok(Expr::CoStart(Box::new(ctx)))
                            }
                            "co_transfer" => {
                                self.expect(Tok::LParen)?;
                                let ctx = self.expr()?;
                                self.expect(Tok::Comma)?;
                                let value = self.expr()?;
                                self.expect(Tok::RParen)?;
                                Ok(Expr::CoTransfer {
                                    ctx: Box::new(ctx),
                                    value: Box::new(value),
                                })
                            }
                            "co_caller" => {
                                self.expect(Tok::LParen)?;
                                self.expect(Tok::RParen)?;
                                Ok(Expr::CoCaller)
                            }
                            _ => {
                                let target = self.proc_name(name, line)?;
                                self.expect(Tok::LParen)?;
                                let mut args = Vec::new();
                                if !self.eat(Tok::RParen) {
                                    loop {
                                        args.push(self.expr()?);
                                        if !self.eat(Tok::Comma) {
                                            break;
                                        }
                                    }
                                    self.expect(Tok::RParen)?;
                                }
                                Ok(Expr::Call(CallExpr { target, args }))
                            }
                        }
                    }
                    _ => Ok(Expr::Var { name, line }),
                }
            }
            other => Err(CompileError::new(
                Phase::Parse,
                Some(line),
                format!("expected expression, found {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_module() {
        let m = parse_module("module M; end.").unwrap();
        assert_eq!(m.name, "M");
        assert!(m.procs.is_empty());
    }

    #[test]
    fn parses_imports_and_globals() {
        let m = parse_module("module M imports A, B;\nvar g: int;\nvar t: array[8] of int;\nend.")
            .unwrap();
        assert_eq!(m.imports, vec!["A", "B"]);
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[1].ty, Type::Array(8));
    }

    #[test]
    fn parses_fib() {
        let m = parse_module(
            "module Math;
             proc fib(n: int): int
             begin
               if n < 2 then return n; end;
               return fib(n - 1) + fib(n - 2);
             end;
             end.",
        )
        .unwrap();
        let p = &m.procs[0];
        assert_eq!(p.name, "fib");
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.ret, Some(Type::Int));
        assert_eq!(p.body.len(), 2);
    }

    #[test]
    fn parses_locals_and_while() {
        let m = parse_module(
            "module M;
             proc main()
             var i: int;
             begin
               i := 0;
               while i < 10 do
                 out i;
                 i := i + 1;
               end;
             end;
             end.",
        )
        .unwrap();
        let p = &m.procs[0];
        assert_eq!(p.locals.len(), 1);
        assert!(matches!(p.body[1], Stmt::While { .. }));
    }

    #[test]
    fn parses_pointers_and_arrays() {
        let m = parse_module(
            "module M;
             proc f(p: ptr)
             begin
               *p := *p + 1;
             end;
             proc main()
             var a: array[4] of int;
             begin
               a[0] := 3;
               f(&a[0]);
               out a[0];
             end;
             end.",
        )
        .unwrap();
        assert!(matches!(m.procs[0].body[0], Stmt::StoreThrough { .. }));
        assert!(matches!(m.procs[1].body[1], Stmt::Call(_)));
    }

    #[test]
    fn parses_qualified_calls() {
        let m = parse_module(
            "module Main imports Math;
             proc main() begin out Math.fib(10); end;
             end.",
        )
        .unwrap();
        let Stmt::Out(Expr::Call(c)) = &m.procs[0].body[0] else {
            panic!("expected out(call)");
        };
        assert_eq!(c.target.module.as_deref(), Some("Math"));
        assert_eq!(c.target.name, "fib");
    }

    #[test]
    fn parses_coroutine_builtins() {
        let m = parse_module(
            "module M;
             proc gen() begin end;
             proc main()
             var c: ctx;
             var v: int;
             begin
               c := co_create(gen);
               v := co_transfer(c, 0);
               co_free(c);
               yield;
             end;
             end.",
        )
        .unwrap();
        let body = &m.procs[1].body;
        assert!(matches!(body[0], Stmt::Assign { .. }));
        assert!(matches!(body[2], Stmt::CoFree(_)));
        assert!(matches!(body[3], Stmt::Yield));
    }

    #[test]
    fn parses_if_elsif_else() {
        let m = parse_module(
            "module M;
             proc f(x: int): int
             begin
               if x = 0 then return 1;
               elsif x = 1 then return 2;
               else return 3;
               end;
             end;
             end.",
        )
        .unwrap();
        let Stmt::If { arms, els } = &m.procs[0].body[0] else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(els.len(), 1);
    }

    #[test]
    fn operator_precedence() {
        let m =
            parse_module("module M; proc f(): int begin return 1 + 2 * 3 < 4 and true; end; end.")
                .unwrap();
        // Shape: ((1 + (2*3)) < 4) and true
        let Stmt::Return { value: Some(e), .. } = &m.procs[0].body[0] else {
            panic!()
        };
        let Expr::Binary {
            op: BinOp::And,
            lhs,
            ..
        } = e
        else {
            panic!("top is and: {e:?}")
        };
        let Expr::Binary { op: BinOp::Lt, .. } = lhs.as_ref() else {
            panic!()
        };
    }

    #[test]
    fn parses_instance_declarations() {
        let m = parse_module(
            "module Main imports Counter;
             instance C2 of Counter;
             instance C3 of Counter;
             proc main() begin out C2.bump(); end;
             end.",
        )
        .unwrap();
        assert_eq!(m.instances.len(), 2);
        assert_eq!(m.instances[0].name, "C2");
        assert_eq!(m.instances[0].of, "Counter");
        assert_eq!(m.instances[1].line, 3);
    }

    #[test]
    fn instance_syntax_errors() {
        assert!(parse_module("module M; instance of X; end.").is_err());
        assert!(parse_module("module M; instance A X; end.").is_err());
        assert!(parse_module("module M; instance A of X end.").is_err());
    }

    #[test]
    fn error_reports_line() {
        let e = parse_module("module M;\nproc f(\nbegin end; end.").unwrap_err();
        assert_eq!(e.line(), Some(3));
    }

    #[test]
    fn missing_semicolon_is_an_error() {
        assert!(parse_module("module M; proc f() begin out 1 end; end.").is_err());
    }
}
