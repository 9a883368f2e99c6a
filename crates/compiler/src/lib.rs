#![warn(missing_docs)]
//! Mesa-lite: a small Algol-family module language for the *Fast
//! Procedure Calls* reproduction.
//!
//! The paper's static claims — encoding density (two-thirds one-byte
//! instructions), frame-size distribution (95% under 80 bytes), call
//! linkage space (D1) — are properties of compiled code, so this crate
//! is a real compiler: lexer → parser → checker → code generator →
//! linker, targeting the `fpc-isa` byte code and producing `fpc-vm`
//! images.
//!
//! The language has modules with global variables (the paper's global
//! frames), procedures, ints/bools/pointers/arrays, structured control
//! flow, and the transfer builtins that make coroutines and processes
//! ordinary programs: `co_create`, `co_start`, `co_transfer`,
//! `co_caller`, `co_free`, `spawn`, `yield`.
//!
//! # Example
//!
//! ```
//! use fpc_compiler::{compile, Options};
//! use fpc_vm::{Machine, MachineConfig};
//!
//! let src = "
//!     module Demo;
//!     proc double(x: int): int begin return x + x; end;
//!     proc main() begin out double(21); end;
//!     end.";
//! let compiled = compile(&[src], Options::default())?;
//! let mut m = Machine::load(&compiled.image, MachineConfig::i2()).unwrap();
//! m.run(10_000).unwrap();
//! assert_eq!(m.output(), &[42]);
//! # Ok::<(), fpc_compiler::CompileError>(())
//! ```

mod ast;
mod codegen;
mod error;
mod link;
mod parser;
mod sema;
mod token;

pub use ast::{BinOp, Expr, Module, ProcDecl, ProcName, Stmt, Type, UnOp, VarDecl};
pub use codegen::{CallSiteCounts, Linkage, Options, LONG_ARG_THRESHOLD, MAX_DEPTH};
pub use error::{CompileError, Phase};
pub use link::{CompileStats, Compiled, FrameStat};
pub use parser::parse_module;
pub use sema::{analyze, ProgramInfo};

/// Compiles a set of module sources into a loadable image.
///
/// Modules may import each other in any order; exactly one must define
/// a parameterless `main`, which becomes the entry procedure.
///
/// # Errors
///
/// The first [`CompileError`] encountered in any phase.
pub fn compile(sources: &[&str], options: Options) -> Result<Compiled, CompileError> {
    let modules: Vec<Module> = sources
        .iter()
        .map(|s| parse_module(s))
        .collect::<Result<_, _>>()?;
    let info = analyze(&modules)?;
    link::link(&modules, &info, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_vm::{Machine, MachineConfig};

    fn run(src: &str, config: MachineConfig, options: Options) -> Vec<u16> {
        let compiled = compile(&[src], options).unwrap();
        let mut m = Machine::load(&compiled.image, config).unwrap();
        m.run(5_000_000).unwrap();
        m.output().to_vec()
    }

    fn run_default(src: &str) -> Vec<u16> {
        run(src, MachineConfig::i2(), Options::default())
    }

    /// The §7.4 `addr_taken` header flag of module 0's procedure `ev`.
    fn addr_taken(c: &Compiled, ev: u16) -> bool {
        let at = c.image.proc_header_addr(fpc_vm::ProcRef {
            module: 0,
            ev_index: ev,
        });
        let flags = c.image.code[(at.0 + fpc_core::layout::HDR_FLAGS) as usize];
        fpc_core::layout::unpack_flags(flags).1
    }

    #[test]
    fn addr_taken_flag_computed() {
        let src = "module M;
             proc plain(x: int): int begin return x; end;
             proc takes() var v: int; begin out *(&v); end;
             proc arr() var a: array[2] of int; begin a[0] := 1; end;
             proc main() begin end;
             end.";
        let c = compile(&[src], Options::default()).unwrap();
        assert!(!addr_taken(&c, 0));
        assert!(addr_taken(&c, 1));
        assert!(addr_taken(&c, 2), "local arrays imply LLA");
        assert!(!addr_taken(&c, 3));
    }

    #[test]
    fn globals_do_not_set_addr_taken() {
        let src = "module M;
             var t: array[4] of int;
             proc main() begin t[1] := 2; out &t[1]; end;
             end.";
        let c = compile(&[src], Options::default()).unwrap();
        assert!(!addr_taken(&c, 0));
    }

    const FIB: &str = "
        module Math;
        proc fib(n: int): int
        begin
          if n < 2 then return n; end;
          return fib(n - 1) + fib(n - 2);
        end;
        proc main() begin out fib(12); end;
        end.";

    #[test]
    fn fib_compiles_and_runs() {
        assert_eq!(run_default(FIB), vec![144]);
    }

    #[test]
    fn fib_runs_under_all_linkages_and_machines() {
        for linkage in [Linkage::Mesa, Linkage::Direct, Linkage::ShortDirect] {
            for (cfg, bank_args) in [
                (MachineConfig::i1(), false),
                (MachineConfig::i2(), false),
                (MachineConfig::i3(), false),
                (MachineConfig::i4(), true),
            ] {
                let options = Options { linkage, bank_args };
                assert_eq!(
                    run(FIB, cfg, options),
                    vec![144],
                    "linkage {linkage:?} config {cfg:?}"
                );
            }
        }
    }

    #[test]
    fn nested_calls_spill_correctly() {
        // §5.2's f[g[], h[]] case: g's result must survive h's call.
        let src = "
            module M;
            proc g(): int begin return 30; end;
            proc h(): int begin return 12; end;
            proc f(a: int, b: int): int begin return a - b; end;
            proc main() begin out f(g(), h()); end;
            end.";
        assert_eq!(run_default(src), vec![18]);
        // The compiler must have recorded at least one static spill.
        let c = compile(&[src], Options::default()).unwrap();
        assert!(
            c.stats.static_spills >= 1,
            "spills {}",
            c.stats.static_spills
        );
    }

    #[test]
    fn gnarly_nesting_spills_and_reloads_in_order() {
        // Multiple pending values across several calls: the reload
        // order must restore the original stack exactly.
        let src = "
            module M;
            proc g(x: int): int begin return x + 1; end;
            proc h(x: int): int begin return x * 2; end;
            proc k(): int begin return 5; end;
            proc f(a: int, b: int): int begin return a - b; end;
            proc main()
            begin
              -- f(g(h(1)) + 2, k() * g(10)):
              --   h(1)=2, g(2)=3, +2 = 5; k()=5, g(10)=11, * = 55
              --   f(5, 55) = -50 → negated = 50
              out 0 - f(g(h(1)) + 2, k() * g(10));
            end;
            end.";
        assert_eq!(run_default(src), vec![50]);
        let c = compile(&[src], Options::default()).unwrap();
        assert!(
            c.stats.static_spills >= 3,
            "spills {}",
            c.stats.static_spills
        );
        // And the same under full acceleration with renaming.
        assert_eq!(
            run(
                src,
                MachineConfig::i4(),
                Options {
                    bank_args: true,
                    ..Default::default()
                }
            ),
            vec![50]
        );
    }

    #[test]
    fn deeply_nested_expression_spills() {
        let src = "
            module M;
            proc id(x: int): int begin return x; end;
            proc main() begin
              out id(1) + id(2) + id(3) + id(4) + id(5);
            end;
            end.";
        assert_eq!(run_default(src), vec![15]);
    }

    #[test]
    fn while_loops_and_globals() {
        let src = "
            module M;
            var sum: int;
            proc main()
            var i: int;
            begin
              i := 1;
              while i <= 10 do
                sum := sum + i;
                i := i + 1;
              end;
              out sum;
            end;
            end.";
        assert_eq!(run_default(src), vec![55]);
    }

    #[test]
    fn arrays_local_and_global() {
        let src = "
            module M;
            var gt: array[4] of int;
            proc main()
            var lt: array[4] of int;
            var i: int;
            begin
              i := 0;
              while i < 4 do
                lt[i] := i * 2;
                gt[i] := lt[i] + 1;
                i := i + 1;
              end;
              out lt[3];
              out gt[3];
            end;
            end.";
        assert_eq!(run_default(src), vec![6, 7]);
    }

    #[test]
    fn pointers_and_var_param_idiom() {
        let src = "
            module M;
            proc bump(p: ptr) begin *p := *p + 5; end;
            proc main()
            var v: int;
            begin
              v := 10;
              bump(&v);
              out v;
            end;
            end.";
        assert_eq!(run_default(src), vec![15]);
        // Also under register banks with the divert policy.
        assert_eq!(
            run(
                src,
                MachineConfig::i4(),
                Options {
                    bank_args: true,
                    ..Default::default()
                }
            ),
            vec![15]
        );
    }

    #[test]
    fn cross_module_program() {
        let lib = "
            module Lib;
            var calls: int;
            proc inc(x: int): int
            begin
              calls := calls + 1;
              return x + 1;
            end;
            proc count(): int begin return calls; end;
            end.";
        let main = "
            module Main imports Lib;
            proc main()
            begin
              out Lib.inc(Lib.inc(40));
              out Lib.count();
            end;
            end.";
        let compiled = compile(&[lib, main], Options::default()).unwrap();
        let mut m = Machine::load(&compiled.image, MachineConfig::i2()).unwrap();
        m.run(10_000).unwrap();
        assert_eq!(m.output(), &[42, 2]);
        assert!(compiled.stats.calls.external >= 2);
    }

    #[test]
    fn coroutines_in_the_source_language() {
        let src = "
            module M;
            proc gen()
            var mine: ctx;
            var v: int;
            begin
              v := 1;
              while v < 4 do
                mine := co_caller();
                v := co_transfer(mine, v * 10);
              end;
              co_transfer(co_caller(), 999);
            end;
            proc main()
            var c: ctx;
            var got: int;
            begin
              c := co_create(gen);
              got := co_start(c);
              out got;          -- 10
              got := co_transfer(co_caller(), 2);
              out got;          -- 20
              got := co_transfer(co_caller(), 3);
              out got;          -- 30
            end;
            end.";
        assert_eq!(run_default(src), vec![10, 20, 30]);
    }

    #[test]
    fn processes_in_the_source_language() {
        let src = "
            module M;
            proc worker()
            begin
              out 100;
              yield;
              out 101;
            end;
            proc main()
            begin
              spawn(worker);
              out 1;
              yield;
              out 2;
            end;
            end.";
        assert_eq!(run_default(src), vec![1, 100, 2, 101]);
    }

    #[test]
    fn stats_report_density_and_frames() {
        let c = compile(&[FIB], Options::default()).unwrap();
        assert!(c.stats.size.total() > 10);
        // Most instructions in this recursive code are one byte.
        assert!(c.stats.size.one_byte_fraction() > 0.5);
        assert_eq!(c.stats.frames.len(), 2);
        for f in &c.stats.frames {
            assert!(f.frame_bytes() < 80, "{} bytes", f.frame_bytes());
        }
        assert!(c.stats.calls.local >= 3);
    }

    #[test]
    fn direct_linkage_is_larger() {
        let mesa = compile(
            &[FIB],
            Options {
                linkage: Linkage::Mesa,
                ..Default::default()
            },
        )
        .unwrap();
        let direct = compile(
            &[FIB],
            Options {
                linkage: Linkage::Direct,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            direct.stats.size.bytes() > mesa.stats.size.bytes(),
            "direct {} vs mesa {}",
            direct.stats.size.bytes(),
            mesa.stats.size.bytes()
        );
    }

    #[test]
    fn long_argument_records_round_trip_many_parameters() {
        // Twelve arguments exceed the register-record threshold, so
        // they travel through a heap record (§4) — on every machine,
        // with and without renaming, and nothing leaks.
        let src = "
            module M;
            proc sum12(a: int, b: int, c: int, d: int, e: int, f: int,
                       g: int, h: int, i: int, j: int, k: int, l: int): int
            begin
              return a + b + c + d + e + f + g + h + i + j + k + l;
            end;
            proc main()
            var n: int;
            begin
              n := 0;
              while n < 20 do
                out sum12(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, n);
                n := n + 1;
              end;
            end;
            end.";
        let expected: Vec<u16> = (0..20).map(|n| 66 + n).collect();
        for (cfg, bank_args) in [
            (MachineConfig::i1(), false),
            (MachineConfig::i2(), false),
            (MachineConfig::i3(), false),
            (MachineConfig::i4(), true),
        ] {
            let out = run(
                src,
                cfg,
                Options {
                    bank_args,
                    ..Default::default()
                },
            );
            assert_eq!(out, expected, "config {cfg:?}");
        }
        // The records were allocated and freed in step: run on I2 and
        // inspect the heap.
        let compiled = compile(&[src], Options::default()).unwrap();
        let mut m = Machine::load(&compiled.image, MachineConfig::i2()).unwrap();
        m.run(1_000_000).unwrap();
        let heap = m.heap_stats().unwrap();
        assert_eq!(
            heap.live, 0,
            "records and frames all freed after main returns"
        );
        assert!(heap.allocs >= 40, "20 calls allocated 20 records + frames");
    }

    #[test]
    fn long_argument_records_spill_safely_inside_expressions() {
        // A long call nested inside another expression: the record
        // pointer itself is a pending value that must spill.
        let src = "
            module M;
            proc big(a: int, b: int, c: int, d: int, e: int,
                     f: int, g: int, h: int, i: int): int
            begin
              return a + b + c + d + e + f + g + h + i;
            end;
            proc one(): int begin return 1; end;
            proc main()
            begin
              out one() + big(1, 2, 3, 4, 5, 6, 7, 8, one() * 9);
            end;
            end.";
        assert_eq!(run_default(src), vec![46]);
    }

    const COUNTERS: [&str; 2] = [
        "module Counter;
         var n: int;
         proc bump(): int
         begin
           n := n + 1;
           return n;
         end;
         end.",
        "module Main imports Counter;
         instance Counter2 of Counter;
         proc main()
         begin
           out Counter.bump();   -- 1
           out Counter.bump();   -- 2
           out Counter2.bump();  -- 1: its own globals
           out Counter.bump();   -- 3
           out Counter2.bump();  -- 2
         end;
         end.",
    ];

    #[test]
    fn module_instances_have_independent_globals() {
        // §5.1: several instances of a module, each with its own global
        // variables, one copy of the code — reachable because the Mesa
        // linkage resolves environments through the GFT at call time.
        let compiled = compile(&COUNTERS, Options::default()).unwrap();
        assert_eq!(compiled.image.modules.len(), 3);
        assert_eq!(compiled.image.modules[2].name, "Counter2");
        assert_eq!(compiled.image.modules[2].code_of, Some(0));
        assert_eq!(
            compiled.image.modules[2].code_base, compiled.image.modules[0].code_base,
            "one copy of the code"
        );
        for cfg in [
            MachineConfig::i1(),
            MachineConfig::i2(),
            MachineConfig::i3(),
        ] {
            let mut m = Machine::load(&compiled.image, cfg).unwrap();
            m.run(10_000).unwrap();
            assert_eq!(m.output(), &[1, 2, 1, 3, 2], "config {cfg:?}");
        }
    }

    #[test]
    fn direct_linkage_collapses_instances_onto_the_owner() {
        // §6 D2: "Multiple instances of p's module are not possible
        // [with DIRECTCALL], since the global environment information
        // is bound into the code." The same program under early
        // binding funnels every bump into Counter's globals.
        let compiled = compile(
            &COUNTERS,
            Options {
                linkage: Linkage::Direct,
                ..Default::default()
            },
        )
        .unwrap();
        let mut m = Machine::load(&compiled.image, MachineConfig::i3()).unwrap();
        m.run(10_000).unwrap();
        assert_eq!(m.output(), &[1, 2, 3, 4, 5], "all five bumps hit the owner");
    }

    #[test]
    fn instance_scoping_and_errors() {
        // Instances are visible only in the declaring module.
        let third = "module Other imports Main;
             proc f() begin Counter2.bump(); end;
             end.";
        let e = compile(&[COUNTERS[0], COUNTERS[1], third], Options::default()).unwrap_err();
        assert!(e.to_string().contains("does not import"), "{e}");
        // Instantiating an instance is rejected.
        let bad = "module M imports Counter;
             instance A of Counter;
             instance B of A;
             proc main() begin end;
             end.";
        let e = compile(&[COUNTERS[0], bad], Options::default()).unwrap_err();
        assert!(e.to_string().contains("itself an instance"), "{e}");
        // Unknown target module.
        let bad = "module M; instance A of Ghost; proc main() begin end; end.";
        let e = compile(&[bad], Options::default()).unwrap_err();
        assert!(e.to_string().contains("unknown module"), "{e}");
    }

    #[test]
    fn mixed_linkage_blends_local_and_direct() {
        let lib = "module Lib; proc f(x: int): int begin return x + 1; end; end.";
        let main = "
            module Main imports Lib;
            proc g(x: int): int begin return x * 2; end;
            proc main() begin out g(Lib.f(20)); end;
            end.";
        let compiled = compile(
            &[lib, main],
            Options {
                linkage: Linkage::Mixed,
                ..Default::default()
            },
        )
        .unwrap();
        // Intra-module call stays a LOCALCALL, cross-module becomes a
        // DIRECTCALL; nothing goes through the link vector.
        assert_eq!(compiled.stats.calls.local, 1);
        assert_eq!(compiled.stats.calls.direct, 1);
        assert_eq!(compiled.stats.calls.external, 0);
        let mut m = Machine::load(&compiled.image, MachineConfig::i3()).unwrap();
        m.run(10_000).unwrap();
        assert_eq!(m.output(), &[42]);
    }

    #[test]
    fn mixed_linkage_size_sits_between_mesa_and_direct() {
        let lib = "module Lib; proc f(x: int): int begin return x + 1; end; end.";
        let main = "
            module Main imports Lib;
            proc g(x: int): int begin return g(x) + Lib.f(x); end;
            proc main() begin out Lib.f(g(1)); end;
            end.";
        let size = |linkage| {
            compile(
                &[lib, main],
                Options {
                    linkage,
                    ..Default::default()
                },
            )
            .unwrap()
            .stats
            .size
            .bytes()
        };
        let mesa = size(Linkage::Mesa);
        let mixed = size(Linkage::Mixed);
        let direct = size(Linkage::Direct);
        assert!(mesa <= mixed && mixed <= direct, "{mesa} {mixed} {direct}");
    }

    #[test]
    fn large_module_uses_gft_bias_entries() {
        // A module with 40 entry points: packed descriptors for entries
        // 32..39 need the second GFT entry (bias 1) — §5.1's escape
        // hatch, exercised end to end through compiled code.
        let mut lib = String::from("module Big;\n");
        for i in 0..40 {
            lib.push_str(&format!(
                "proc p{i}(x: int): int begin return x + {i}; end;\n"
            ));
        }
        lib.push_str("end.");
        let main = "
            module Main imports Big;
            proc main()
            begin
              out Big.p0(100);
              out Big.p33(100);
              out Big.p39(100);
            end;
            end.";
        let compiled = compile(&[&lib, main], Options::default()).unwrap();
        assert_eq!(compiled.image.gft_base(1), 2, "Big owns two GFT entries");
        for config in [
            MachineConfig::i1(),
            MachineConfig::i2(),
            MachineConfig::i3(),
        ] {
            let mut m = Machine::load(&compiled.image, config).unwrap();
            m.run(100_000).unwrap();
            assert_eq!(m.output(), &[100, 133, 139]);
        }
    }

    #[test]
    fn division_by_zero_traps() {
        let src = "module M; proc main() var x: int; begin x := 0; out 1 / x; end; end.";
        let compiled = compile(&[src], Options::default()).unwrap();
        let mut m = Machine::load(&compiled.image, MachineConfig::i2()).unwrap();
        assert!(matches!(
            m.run(1000).unwrap_err(),
            fpc_vm::VmError::UnhandledTrap(fpc_vm::TrapCode::DivideByZero)
        ));
    }

    #[test]
    fn logical_operators_normalise() {
        let src = "
            module M;
            proc main()
            begin
              if 2 and 1 then out 1; else out 0; end;
              if 0 or 7 then out 1; else out 0; end;
              if not 0 then out 1; else out 0; end;
            end;
            end.";
        assert_eq!(run_default(src), vec![1, 1, 1]);
    }

    #[test]
    fn elsif_chains() {
        let src = "
            module M;
            proc classify(x: int): int
            begin
              if x < 0 then return 0 - 1;
              elsif x = 0 then return 0;
              elsif x < 10 then return 1;
              else return 2;
              end;
            end;
            proc main()
            begin
              out classify(0 - 5) + 1;  -- 0
              out classify(0);          -- 0
              out classify(5);          -- 1
              out classify(50);         -- 2
            end;
            end.";
        assert_eq!(run_default(src), vec![0, 0, 1, 2]);
    }

    #[test]
    fn falling_off_valued_proc_traps() {
        let src = "
            module M;
            proc f(x: int): int begin if x > 0 then return 1; end; end;
            proc main() begin out f(0); end;
            end.";
        let compiled = compile(&[src], Options::default()).unwrap();
        let mut m = Machine::load(&compiled.image, MachineConfig::i2()).unwrap();
        assert!(matches!(
            m.run(1000).unwrap_err(),
            fpc_vm::VmError::UnhandledTrap(fpc_vm::TrapCode::User(254))
        ));
    }
}
