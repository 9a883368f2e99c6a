//! `fpc-lint` — run the static verifier over Mesa-lite sources or the
//! shipped corpus.
//!
//! ```text
//! fpc-lint prog.mesa [more.mesa ...]   # verify each source file
//! fpc-lint --cert prog.mesa [...]      # verify, then print the
//!                                      # per-procedure certificate:
//!                                      # stack and frame bounds,
//!                                      # recursion-cycle membership,
//!                                      # native-tier eligibility
//! fpc-lint --effects prog.mesa [...]   # verify, then print each
//!                                      # procedure's interprocedural
//!                                      # effect summary and
//!                                      # retry-safety verdict
//! fpc-lint --corpus                    # verify the whole fpc-workloads
//!                                      # corpus under every linkage and
//!                                      # argument convention, plus the
//!                                      # example programs
//! fpc-lint --effects --corpus          # corpus sweep with per-image
//!                                      # effect-analysis summaries
//! fpc-lint --json ...                  # machine-readable output; any
//!                                      # mode above combines with it
//! ```
//!
//! Exit status: 0 when everything verifies, 1 when verification fails,
//! 2 on usage or compile errors. Under `--json` the bar is stricter:
//! the exit is nonzero when *any* diagnostic — informational notes
//! included — was emitted, so a CI gate can diff reports instead of
//! grepping stdout.

use std::process::ExitCode;

use fpc_compiler::{compile, Linkage, Options};
use fpc_verify::{verify_image, DiagKind, Diagnostic, VerifyOptions, VerifyReport};
use fpc_workloads::{compile_workload, corpus};

#[derive(Debug, Clone, Copy, Default)]
struct Mode {
    json: bool,
    effects: bool,
    cert: bool,
    corpus: bool,
}

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

/// The stable machine-readable tag for a diagnostic kind.
fn kind_name(k: &DiagKind) -> &'static str {
    match k {
        DiagKind::BadEntry { .. } => "bad_entry",
        DiagKind::BadSizeClass { .. } => "bad_size_class",
        DiagKind::SizeClassMismatch { .. } => "size_class_mismatch",
        DiagKind::StackUnderflow { .. } => "stack_underflow",
        DiagKind::StackOverflow { .. } => "stack_overflow",
        DiagKind::CallDepthMismatch { .. } => "call_depth_mismatch",
        DiagKind::XferDepth { .. } => "xfer_depth",
        DiagKind::InconsistentReturnArity { .. } => "inconsistent_return_arity",
        DiagKind::BadCallTarget { .. } => "bad_call_target",
        DiagKind::UnboundModule { .. } => "unbound_module",
        DiagKind::BadDescriptor { .. } => "bad_descriptor",
        DiagKind::MidInstructionJump { .. } => "mid_instruction_jump",
        DiagKind::JumpOutOfBody { .. } => "jump_out_of_body",
        DiagKind::Undecodable { .. } => "undecodable",
        DiagKind::FallsOffEnd => "falls_off_end",
        DiagKind::RemoteTarget { .. } => "remote_target",
        DiagKind::DeadStore { .. } => "dead_store",
        DiagKind::UnreachableCode { .. } => "unreachable_code",
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn diag_json(d: &Diagnostic) -> String {
    format!(
        "{{\"kind\":\"{}\",\"module\":{},\"module_name\":\"{}\",\"ev_index\":{},\"pc\":{},\
         \"informational\":{},\"message\":\"{}\"}}",
        kind_name(&d.kind),
        d.module,
        json_escape(&d.module_name),
        d.ev_index,
        d.pc,
        d.kind.is_informational(),
        json_escape(&d.kind.to_string()),
    )
}

/// One image's report as a JSON object (one line, schema-stable).
fn report_json(name: &str, report: &VerifyReport) -> String {
    let diags: Vec<String> = report.diagnostics.iter().map(diag_json).collect();
    let procs: Vec<String> = report
        .procs
        .iter()
        .enumerate()
        .map(|(id, p)| {
            format!(
                "{{\"module\":{},\"ev_index\":{},\"nargs\":{},\"max_stack\":{},\
                 \"retry_safe\":{},\"effects\":\"{}\"}}",
                p.module,
                p.ev_index,
                p.nargs,
                p.max_stack.map_or("null".into(), |d| d.to_string()),
                report.effects[id].retry_safe(),
                json_escape(&report.effects[id].to_string()),
            )
        })
        .collect();
    format!(
        "{{\"image\":\"{}\",\"ok\":{},\"diagnostics\":[{}],\"procs\":[{}]}}",
        json_escape(name),
        report.is_ok(),
        diags.join(","),
        procs.join(",")
    )
}

/// `--effects` (per file): the whole-corpus analysis, procedure by
/// procedure — transitive footprint and retry verdict — plus any
/// dead-store / unreachable-code notes among the diagnostics.
fn print_effects(name: &str, report: &VerifyReport) {
    println!("{name}: effect analysis");
    for (id, p) in report.procs.iter().enumerate() {
        let e = &report.effects[id];
        let verdict = if e.retry_safe() {
            "retry-safe"
        } else {
            "not retry-safe"
        };
        println!(
            "  proc {id}: m{}[{}] {verdict} | effects: {e}",
            p.module, p.ev_index
        );
    }
    for d in report.diagnostics.iter().filter(|d| {
        matches!(
            d.kind,
            DiagKind::DeadStore { .. } | DiagKind::UnreachableCode { .. }
        )
    }) {
        println!("  {d}");
    }
}

/// One corpus image's `--effects` summary line.
fn effects_summary_line(name: &str, report: &VerifyReport) -> String {
    let retry_safe = report.effects.iter().filter(|e| e.retry_safe()).count();
    let dead = report
        .diagnostics
        .iter()
        .filter(|d| matches!(d.kind, DiagKind::DeadStore { .. }))
        .count();
    let unreachable = report
        .diagnostics
        .iter()
        .filter(|d| matches!(d.kind, DiagKind::UnreachableCode { .. }))
        .count();
    format!(
        "{name}: {} proc(s), {retry_safe} retry-safe, \
         {dead} dead-store note(s), {unreachable} unreachable note(s)",
        report.procs.len(),
    )
}

fn lint_corpus(mode: Mode) -> ExitCode {
    let mut failures = 0usize;
    let mut checked = 0usize;
    let mut any_diags = false;
    let mut json_images: Vec<String> = Vec::new();
    let mut handle = |name: &str, report: &VerifyReport| {
        checked += 1;
        any_diags |= !report.diagnostics.is_empty();
        if !report.is_ok() {
            failures += 1;
            if !mode.json {
                eprintln!("{name}:\n{report}");
            }
        }
        if mode.json {
            json_images.push(report_json(name, report));
        } else if mode.effects {
            println!("{}", effects_summary_line(name, report));
        }
    };
    for w in corpus() {
        for options in all_options() {
            let compiled = match compile_workload(&w, options) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("fpc-lint: {} ({options:?}): compile error: {e}", w.name);
                    return ExitCode::from(2);
                }
            };
            let report = verify_image(&compiled.image, &VerifyOptions::default());
            handle(&format!("{} {options:?}", w.name), &report);
        }
    }
    for path in [
        "examples/programs/queens.mesa",
        "examples/programs/streams.mesa",
    ] {
        match std::fs::read_to_string(path) {
            Ok(src) => match compile(&[&src], Options::default()) {
                Ok(c) => {
                    let report = verify_image(&c.image, &VerifyOptions::default());
                    handle(path, &report);
                }
                Err(e) => {
                    eprintln!("fpc-lint: {path}: compile error: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("fpc-lint: {path}: {e} (run from the repository root)");
                return ExitCode::from(2);
            }
        }
    }
    if mode.json {
        println!(
            "{{\"checked\":{checked},\"failures\":{failures},\"images\":[{}]}}",
            json_images.join(",")
        );
        // JSON consumers gate on the payload; any diagnostic at all is
        // a nonzero exit so report diffs cannot be silently skipped.
        return if failures > 0 || any_diags {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        };
    }
    if failures == 0 {
        println!("fpc-lint: {checked} image(s) verified clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("fpc-lint: {failures} of {checked} image(s) failed verification");
        ExitCode::from(1)
    }
}

/// Renders the full certificate for one clean report: the whole-image
/// bounds the VM trusts, the native-tier license they mint, and one
/// line per procedure showing what the analysis proved about it.
fn print_certificate(path: &str, report: &VerifyReport) {
    let cert = report
        .certificate()
        .expect("only clean reports reach certificate printing");
    println!("{path}: certificate");
    println!(
        "  stack bound: {} word(s) against limit {} ({} xfer-residue word(s) withheld)",
        cert.max_stack_depth, report.stack_limit, report.xfer_residue
    );
    match cert.frame_words_bound {
        Some(w) => println!("  frame bound: {w} word(s) on the deepest acyclic call chain"),
        None => println!(
            "  frame bound: data-dependent ({} recursion cycle(s) reachable from the entry)",
            report.cycles.len()
        ),
    }
    let license = cert.native_license();
    println!(
        "  native tier: eligible — license covers {} procedure(s), proven depth {}",
        license.procs(),
        license.max_stack_depth()
    );
    for (id, p) in report.procs.iter().enumerate() {
        let depth = match p.max_stack {
            Some(d) => d.to_string(),
            None => "dead".to_string(),
        };
        let ret = match p.ret_arity {
            Some(r) => r.to_string(),
            None => "never".to_string(),
        };
        let cycles: Vec<usize> = report
            .cycles
            .iter()
            .enumerate()
            .filter(|(_, c)| c.contains(&id))
            .map(|(i, _)| i)
            .collect();
        let recursion = if cycles.is_empty() {
            "acyclic".to_string()
        } else {
            format!("cycle {cycles:?}")
        };
        println!(
            "  proc {id}: m{}[{}] header c{:#06x} nargs={} fsi={} depth={depth} ret={ret} \
             calls={:?} {recursion}",
            p.module, p.ev_index, p.header, p.nargs, p.fsi, p.calls
        );
    }
}

/// Verifies each file and renders per the mode. A file that fails
/// verification has no certificate; its diagnostics print instead and
/// the exit status reports the failure.
fn lint_files(mode: Mode, paths: &[String]) -> ExitCode {
    let mut failed = false;
    let mut any_diags = false;
    for path in paths {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fpc-lint: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let compiled = match compile(&[&src], Options::default()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("fpc-lint: {path}: compile error: {e}");
                return ExitCode::from(2);
            }
        };
        let report = verify_image(&compiled.image, &VerifyOptions::default());
        any_diags |= !report.diagnostics.is_empty();
        failed |= !report.is_ok();
        if mode.json {
            println!("{}", report_json(path, &report));
            continue;
        }
        if !report.is_ok() {
            eprintln!("{path}: {report}");
            continue;
        }
        if mode.cert {
            print_certificate(path, &report);
        } else if mode.effects {
            print_effects(path, &report);
        } else {
            println!("{path}: {report}");
        }
    }
    if failed || (mode.json && any_diags) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut mode = Mode::default();
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => mode.json = true,
            "--effects" => mode.effects = true,
            "--cert" => mode.cert = true,
            "--corpus" => mode.corpus = true,
            f if !f.starts_with("--") => files.push(arg),
            f => {
                eprintln!("fpc-lint: unknown flag {f}");
                return ExitCode::from(2);
            }
        }
    }
    if mode.cert && mode.effects {
        eprintln!("fpc-lint: --cert and --effects are mutually exclusive");
        return ExitCode::from(2);
    }
    if mode.corpus {
        if !files.is_empty() {
            eprintln!("fpc-lint: --corpus takes no file arguments");
            return ExitCode::from(2);
        }
        return lint_corpus(mode);
    }
    if files.is_empty() {
        eprintln!(
            "usage: fpc-lint [--json] [--cert|--effects] <file.mesa ...> | \
             fpc-lint [--json] [--effects] --corpus"
        );
        return ExitCode::from(2);
    }
    lint_files(mode, &files)
}
