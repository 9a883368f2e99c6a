//! `fpc-verify` — static bytecode verifier for Fast Procedure Calls
//! images.
//!
//! The verifier proves, before a single instruction executes, the
//! properties the VM otherwise checks on every step:
//!
//! * **Stack safety.** An abstract interpreter runs each procedure
//!   body over the interval domain `[lo, hi]` of evaluation-stack
//!   depths, joining at merge points, and rejects any path that could
//!   underflow or exceed the configured stack depth.
//! * **Transfer safety.** Every `DIRECTCALL`, `SHORTDIRECTCALL`,
//!   `LOCALCALL` and `EXTERNALCALL` is resolved statically against the
//!   image's entry vectors and link vectors (pushdown-style: a call's
//!   successor depth is its callee's proven return arity, not a join
//!   over every return in the program), and `LOADIMM`-fed descriptor
//!   creations are inverted back to procedures. Unbound, out-of-range
//!   and mid-instruction targets are typed diagnostics.
//! * **Frame bounds.** The resolved call graph is searched for
//!   recursion cycles; acyclic programs get a worst-case frame-words
//!   bound from the entry procedure.
//!
//! A clean [`VerifyReport`] issues a [`Certificate`], and the
//! certificate licenses exactly one thing: skipping the VM's native
//! tier's stack checks ([`Certificate::native_license`] →
//! `Machine::arm_native`), so the tier runs every body as unchecked
//! threaded code. The interpreter keeps every dynamic check whether or
//! not the image verified.
//!
//! ```
//! use fpc_verify::{verify_image, VerifyOptions};
//! use fpc_vm::{ImageBuilder, ProcRef, ProcSpec};
//! use fpc_isa::Instr;
//!
//! let mut b = ImageBuilder::new();
//! let m = b.module("main");
//! b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
//!     a.instr(Instr::LoadImm(42));
//!     a.instr(Instr::Out);
//!     a.instr(Instr::Halt);
//! });
//! let image = b.build(ProcRef { module: 0, ev_index: 0 }).unwrap();
//! let report = verify_image(&image, &VerifyOptions::default());
//! assert!(report.is_ok(), "{report}");
//! ```

#![warn(missing_docs)]

mod analysis;
mod effects;
mod procs;
mod report;

pub use effects::EffectSummary;
pub use report::{
    Certificate, Cycle, DiagKind, Diagnostic, ProcSummary, TargetFault, VerifyReport,
};

use fpc_vm::{Image, MachineConfig};

/// Parameters the proof is made against.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Evaluation-stack capacity in words. Must match the
    /// [`MachineConfig::stack_depth`] the image will run under — the
    /// proof, and so the native license, is made at this limit.
    pub stack_depth: usize,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions { stack_depth: 16 }
    }
}

impl VerifyOptions {
    /// Options matching a concrete machine configuration.
    pub fn for_config(config: &MachineConfig) -> Self {
        VerifyOptions {
            stack_depth: config.stack_depth,
        }
    }
}

/// Verifies a linked image, returning every diagnostic found plus
/// per-procedure summaries and the call-graph facts.
pub fn verify_image(image: &Image, opts: &VerifyOptions) -> VerifyReport {
    analysis::Analysis::run(image, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_isa::Instr;
    use fpc_vm::{ImageBuilder, ProcRef, ProcSpec};

    fn entry() -> ProcRef {
        ProcRef {
            module: 0,
            ev_index: 0,
        }
    }

    #[test]
    fn straight_line_verifies_with_exact_depth() {
        let mut b = ImageBuilder::new();
        let m = b.module("m");
        b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
            a.instr(Instr::LoadImm(3));
            a.instr(Instr::LoadImm(4));
            a.instr(Instr::Add);
            a.instr(Instr::StoreLocal(0));
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        let image = b.build(entry()).unwrap();
        let report = verify_image(&image, &VerifyOptions::default());
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.procs.len(), 1);
        assert_eq!(report.procs[0].max_stack, Some(2));
        assert!(report.cycles.is_empty());
        assert!(report.frame_words_bound.is_some());
    }

    #[test]
    fn underflow_is_rejected() {
        let mut b = ImageBuilder::new();
        let m = b.module("m");
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::Drop);
            a.instr(Instr::Halt);
        });
        let image = b.build(entry()).unwrap();
        let report = verify_image(&image, &VerifyOptions::default());
        assert!(!report.is_ok());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagKind::StackUnderflow { .. })));
    }

    #[test]
    fn overflow_is_rejected() {
        let mut b = ImageBuilder::new();
        let m = b.module("m");
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            for _ in 0..17 {
                a.instr(Instr::LoadImm(1));
            }
            a.instr(Instr::Halt);
        });
        let image = b.build(entry()).unwrap();
        let report = verify_image(&image, &VerifyOptions { stack_depth: 16 });
        assert!(!report.is_ok());
        assert!(report.diagnostics.iter().any(|d| matches!(
            d.kind,
            DiagKind::StackOverflow {
                depth: 17,
                limit: 16
            }
        )));
    }

    #[test]
    fn branch_join_takes_interval_hull() {
        // One arm leaves an extra word: the RET sees [1, 2] and the
        // arity is inconsistent.
        let mut b = ImageBuilder::new();
        let m = b.module("m");
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::LoadImm(0));
            let l = a.label();
            a.jump_zero(l);
            a.instr(Instr::LoadImm(7));
            a.bind(l);
            a.instr(Instr::LoadImm(9));
            a.instr(Instr::Ret);
        });
        let image = b.build(entry()).unwrap();
        let report = verify_image(&image, &VerifyOptions::default());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagKind::InconsistentReturnArity { .. })));
    }

    #[test]
    fn recursion_is_reported_as_cycle() {
        let mut b = ImageBuilder::new();
        let m = b.module("m");
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Halt);
        });
        let image = b.build(entry()).unwrap();
        let report = verify_image(&image, &VerifyOptions::default());
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.cycles.len(), 1);
        assert!(report.frame_words_bound.is_none());
    }

    #[test]
    fn remote_imports_verify_with_an_informational_note() {
        // A remote descriptor resolves to its local marshalling stub,
        // so the image still certifies — the native tier stays
        // licensed for modules with remote calls — while the remote
        // seam is surfaced as an informational RemoteTarget diagnostic.
        let mut b = ImageBuilder::new();
        let m = b.module("cli");
        let lv = b.import_remote(m, "echo", 3, 2, 1);
        b.proc_with(m, ProcSpec::new("main", 0, 0), move |a| {
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        let image = b.build(entry()).unwrap();
        let report = verify_image(&image, &VerifyOptions::default());
        assert!(report.is_ok(), "{report}");
        let notes: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.kind.is_informational())
            .collect();
        assert_eq!(notes.len(), 1, "exactly one remote call site");
        assert!(matches!(
            &notes[0].kind,
            DiagKind::RemoteTarget { lv_index: 0, node: 3, name } if name == "echo"
        ));
        assert!(
            report.certificate().is_some(),
            "remote imports must not revoke the certificate"
        );
    }

    #[test]
    fn call_depth_must_match_arity_exactly() {
        let mut b = ImageBuilder::new();
        let m = b.module("m");
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            // Callee wants 0 args but one word is on the stack.
            a.instr(Instr::LoadImm(5));
            a.instr(Instr::LocalCall(1));
            a.instr(Instr::Halt);
        });
        b.proc_with(m, ProcSpec::new("leaf", 0, 0), |a| {
            a.instr(Instr::Ret);
        });
        let image = b.build(entry()).unwrap();
        let report = verify_image(&image, &VerifyOptions::default());
        assert!(report.diagnostics.iter().any(|d| matches!(
            d.kind,
            DiagKind::CallDepthMismatch {
                lo: 1,
                hi: 1,
                nargs: 0
            }
        )));
    }
}
