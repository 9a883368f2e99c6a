//! End-to-end tests for the static verifier (`fpc-verify`).
//!
//! Two angles:
//!
//! * **Completeness** — everything the compiler emits, over every
//!   linkage and argument convention, must verify with zero
//!   diagnostics; the certificate would be useless if honest images
//!   failed.
//! * **Soundness** — hand-built ill-formed images exercising each
//!   diagnostic class must be rejected, and the static stack bound
//!   must dominate the dynamically observed depth (exactly, on
//!   straight-line code).

use fpc_compiler::{compile, Linkage, Options};
use fpc_isa::Instr;
use fpc_verify::{verify_image, DiagKind, VerifyOptions, VerifyReport};
use fpc_vm::{Image, ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec, StepOutcome};
use fpc_workloads::{compile_workload, corpus};

fn verify_default(image: &Image) -> VerifyReport {
    verify_image(image, &VerifyOptions::default())
}

/// Every linkage × argument-convention combination the compiler
/// supports.
fn all_options() -> Vec<Options> {
    let mut out = Vec::new();
    for linkage in [
        Linkage::Mesa,
        Linkage::Direct,
        Linkage::ShortDirect,
        Linkage::Mixed,
    ] {
        for bank_args in [false, true] {
            out.push(Options { linkage, bank_args });
        }
    }
    out
}

#[test]
fn whole_corpus_verifies_cleanly_under_every_linkage() {
    for w in corpus() {
        for options in all_options() {
            let compiled = compile_workload(&w, options)
                .unwrap_or_else(|e| panic!("{} ({options:?}): {e}", w.name));
            let report = verify_default(&compiled.image);
            assert!(
                report.is_ok(),
                "workload {} under {options:?} failed verification:\n{report}",
                w.name
            );
            assert!(!report.procs.is_empty());
        }
    }
}

#[test]
fn example_programs_verify_cleanly() {
    for path in [
        "examples/programs/queens.mesa",
        "examples/programs/streams.mesa",
    ] {
        let src = std::fs::read_to_string(path).unwrap();
        let compiled = compile(&[&src], Options::default()).unwrap();
        let report = verify_default(&compiled.image);
        assert!(report.is_ok(), "{path} failed verification:\n{report}");
    }
}

// ---------------------------------------------------------------------
// Soundness: hand-built ill-formed images, one per diagnostic class.
// ---------------------------------------------------------------------

fn entry() -> ProcRef {
    ProcRef {
        module: 0,
        ev_index: 0,
    }
}

fn expect_reject(image: &Image, pred: impl Fn(&DiagKind) -> bool, what: &str) {
    let report = verify_default(image);
    assert!(!report.is_ok(), "{what}: expected rejection, got OK");
    assert!(
        report.diagnostics.iter().any(|d| pred(&d.kind)),
        "{what}: no matching diagnostic in:\n{report}"
    );
}

#[test]
fn rejects_stack_underflow() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::Add); // pops 2 at depth 0
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    expect_reject(
        &image,
        |k| matches!(k, DiagKind::StackUnderflow { depth: 0, pops: 2 }),
        "underflow",
    );
}

#[test]
fn rejects_stack_overflow() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        for _ in 0..20 {
            a.instr(Instr::LoadImm(9));
        }
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    expect_reject(
        &image,
        |k| matches!(k, DiagKind::StackOverflow { .. }),
        "overflow",
    );
}

#[test]
fn rejects_direct_call_outside_code_store() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::DirectCall(0x00FF_FFFF));
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    expect_reject(
        &image,
        |k| {
            matches!(
                k,
                DiagKind::BadCallTarget {
                    fault: fpc_verify::TargetFault::OutOfRange,
                    ..
                }
            )
        },
        "direct call out of range",
    );
}

#[test]
fn rejects_direct_call_at_non_header() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::DirectCall(1)); // mid-entry-vector, not a header
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    expect_reject(
        &image,
        |k| {
            matches!(
                k,
                DiagKind::BadCallTarget {
                    fault: fpc_verify::TargetFault::NotAHeader,
                    ..
                }
            )
        },
        "direct call at non-header",
    );
}

#[test]
fn rejects_bad_descriptor_word() {
    // LOADIMM of a word that names no procedure (proc tag, absurd GFT
    // index) straight into NEWCONTEXT.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(0x8000 | (0x3FF << 5)));
        a.instr(Instr::NewContext);
        a.instr(Instr::Drop);
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    expect_reject(
        &image,
        |k| matches!(k, DiagKind::BadDescriptor { .. }),
        "bad descriptor",
    );
}

#[test]
fn rejects_jump_into_fused_pair_interior() {
    // The wide LOADIMM at body offset 2 is 3 bytes and the native tier
    // fuses it with the following ADD into one superinstruction (span
    // [2, 6)); the hand-encoded byte jump at offset 0 targets offset 3 —
    // the middle of the LOADIMM's immediate, strictly inside the fused
    // span. Fusion changes nothing here: the target is not an
    // instruction boundary.
    use fpc_isa::opcode;
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.raw(&[opcode::JB, 3]);
        a.raw(&[opcode::LIW, 0x34, 0x12]);
        a.instr(Instr::Add);
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    let report = verify_default(&image);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.kind == DiagKind::MidInstructionJump { target: d.pc + 3 }),
        "expected a mid-instruction jump diagnostic at the LOADIMM's immediate:\n{report}"
    );
}

#[test]
fn rejects_local_slot_beyond_size_class() {
    // Frame class for 1 local; slot 11 is beyond any capacity the
    // class ladder grants it.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::StoreLocal(11));
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    expect_reject(
        &image,
        |k| matches!(k, DiagKind::SizeClassMismatch { .. }),
        "size-class mismatch",
    );
}

#[test]
fn rejects_unbound_module_import() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    let lv = b.import(
        m,
        ProcRef {
            module: 7, // no such module
            ev_index: 0,
        },
    );
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::ExternalCall(lv));
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    expect_reject(
        &image,
        |k| matches!(k, DiagKind::UnboundModule { module: 7, .. }),
        "unbound module",
    );
}

#[test]
fn rejects_xfer_at_wrong_depth() {
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
        a.instr(Instr::LoadImm(1));
        a.instr(Instr::LoadImm(2));
        a.instr(Instr::LoadImm(3)); // three words under the XFER
        a.instr(Instr::Xfer);
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    expect_reject(
        &image,
        |k| matches!(k, DiagKind::XferDepth { lo: 3, hi: 3 }),
        "xfer depth",
    );
}

// ---------------------------------------------------------------------
// Property: static bound dominates dynamic observation.
// ---------------------------------------------------------------------

/// Steps an image on an unaccelerated I2 machine, tracking the deepest
/// evaluation stack ever observed.
fn dynamic_max_depth(image: &Image, fuel: u64) -> usize {
    let [(_, config), ..] = MachineConfig::i2().dispatch_ladder();
    let mut m = Machine::load(image, config).unwrap();
    let mut max = m.stack().len();
    for _ in 0..fuel {
        match m.step() {
            Ok(StepOutcome::Ran) => max = max.max(m.stack().len()),
            Ok(StepOutcome::Halted) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    max
}

#[test]
fn static_bound_dominates_dynamic_depth_on_corpus() {
    for w in corpus() {
        let compiled = compile_workload(&w, Options::default()).unwrap();
        let report = verify_default(&compiled.image);
        assert!(report.is_ok(), "{}:\n{report}", w.name);
        // The certificate's bound includes the transfer-residue
        // allowance for images that XFER (a creation-context transfer
        // can leave its argument record riding below the new frame's
        // accounting).
        let static_max = report.certificate().unwrap().max_stack_depth as usize;
        let dynamic_max = dynamic_max_depth(&compiled.image, w.fuel);
        assert!(
            static_max >= dynamic_max,
            "{}: static bound {static_max} < observed depth {dynamic_max}",
            w.name
        );
    }
}

#[test]
fn static_bound_is_exact_on_straight_line_code() {
    // No branches, no calls: the interval is a point everywhere and
    // the dynamic run must attain the static maximum exactly.
    let mut b = ImageBuilder::new();
    let m = b.module("m");
    b.proc_with(m, ProcSpec::new("main", 0, 2), |a| {
        a.instr(Instr::LoadImm(10));
        a.instr(Instr::LoadImm(20));
        a.instr(Instr::LoadImm(30));
        a.instr(Instr::Add);
        a.instr(Instr::Mul);
        a.instr(Instr::StoreLocal(0));
        a.instr(Instr::LoadLocal(0));
        a.instr(Instr::Out);
        a.instr(Instr::Halt);
    });
    let image = b.build(entry()).unwrap();
    let report = verify_default(&image);
    assert!(report.is_ok(), "{report}");
    let static_max = report.procs[0].max_stack.unwrap() as usize;
    assert_eq!(static_max, 3);
    assert_eq!(dynamic_max_depth(&image, 1000), static_max);
}
