//! Typed diagnostics and the verification report.

use std::fmt;

/// Why a statically resolved transfer target is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetFault {
    /// The target address or index is outside the code store / tables.
    OutOfRange,
    /// A `DIRECTCALL`/`SHORTDIRECTCALL` destination that is not any
    /// known procedure header.
    NotAHeader,
    /// A `LOCALCALL` entry-vector index beyond the module's `nprocs`.
    EvIndexOutOfRange,
    /// An `EXTERNALCALL` link-vector index beyond the module's link
    /// vector.
    LvIndexOutOfRange,
    /// Resolvable targets whose declared argument counts disagree, so
    /// no single call-site stack depth can satisfy them all.
    ArityDisagrees,
}

impl fmt::Display for TargetFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetFault::OutOfRange => write!(f, "target out of range"),
            TargetFault::NotAHeader => write!(f, "target is not a procedure header"),
            TargetFault::EvIndexOutOfRange => write!(f, "entry-vector index out of range"),
            TargetFault::LvIndexOutOfRange => write!(f, "link-vector index out of range"),
            TargetFault::ArityDisagrees => write!(f, "resolved targets disagree on arity"),
        }
    }
}

/// One class of verification failure. Each variant corresponds to one
/// analysis: structural entry checks, the stack-depth abstract
/// interpreter, call-target resolution, descriptor resolution, or the
/// jump-target check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagKind {
    /// The entry vector, header bytes or body range are malformed.
    BadEntry {
        /// What was wrong, in prose.
        reason: String,
    },
    /// The header's frame-size index is not in the image's ladder.
    BadSizeClass {
        /// The out-of-ladder index.
        fsi: u8,
    },
    /// A local-slot access beyond the capacity the header's size class
    /// actually provides (`size_of(fsi)` minus the frame header).
    SizeClassMismatch {
        /// The declared size-class index.
        fsi: u8,
        /// Local slots the class provides.
        capacity: u32,
        /// The out-of-capacity slot the instruction names.
        slot: u32,
    },
    /// An instruction pops below an empty evaluation stack on some
    /// path.
    StackUnderflow {
        /// Depth interval lower bound reaching the instruction.
        depth: u32,
        /// Words the instruction pops.
        pops: u32,
    },
    /// An instruction pushes beyond the depth limit on some path.
    StackOverflow {
        /// Depth the instruction can reach.
        depth: u32,
        /// The configured limit it exceeds.
        limit: u32,
    },
    /// A call site whose stack depth is not exactly the callee's
    /// argument count (the strict XFER discipline the compiler emits).
    CallDepthMismatch {
        /// Depth interval lower bound at the call.
        lo: u32,
        /// Depth interval upper bound at the call.
        hi: u32,
        /// The callee's declared argument count.
        nargs: u32,
    },
    /// An `XFER` whose stack depth cannot match the single-word
    /// transfer-record protocol (destination context word on top, at
    /// most one transferred value beneath).
    XferDepth {
        /// Depth interval lower bound at the `XFER`.
        lo: u32,
        /// Depth interval upper bound at the `XFER`.
        hi: u32,
    },
    /// A procedure whose `RET` sites leave different depths, so no
    /// caller resumption depth is defined.
    InconsistentReturnArity {
        /// One observed return depth.
        first: u32,
        /// A conflicting one.
        second: u32,
    },
    /// A `DIRECTCALL`/`SHORTDIRECTCALL`/`LOCALCALL`/`EXTERNALCALL`
    /// whose statically resolved destination is unusable.
    BadCallTarget {
        /// The offending absolute target (code byte address for direct
        /// calls, table index otherwise).
        target: u32,
        /// Why it is unusable.
        fault: TargetFault,
    },
    /// A link-vector entry naming a module or entry the image does not
    /// contain.
    UnboundModule {
        /// The link-vector slot.
        lv_index: u32,
        /// The module index it names.
        module: usize,
    },
    /// A `LOADIMM`-fed context operation whose descriptor word cannot
    /// name any procedure in the image.
    BadDescriptor {
        /// The raw descriptor word.
        word: u16,
    },
    /// A jump landing inside an instruction's encoding rather than on
    /// a decoded boundary.
    MidInstructionJump {
        /// The absolute byte offset jumped to.
        target: u32,
    },
    /// A jump leaving the procedure body entirely.
    JumpOutOfBody {
        /// The absolute byte offset jumped to.
        target: i64,
    },
    /// Reachable code runs into bytes that do not decode.
    Undecodable {
        /// Where decoding failed, as an absolute byte offset.
        at: u32,
    },
    /// A reachable path falls off the end of the procedure body
    /// without a transfer.
    FallsOffEnd,
    /// **Informational**: an `EXTERNALCALL` routed through a remote
    /// procedure descriptor. The local marshalling stub is verified
    /// like any procedure (so the certificate stands and the native
    /// tier stays licensed), but the call's real effects happen on another
    /// machine the static proof cannot see into — tooling may want to
    /// know where those seams are.
    RemoteTarget {
        /// The link-vector slot carrying the remote descriptor.
        lv_index: u32,
        /// The node the descriptor is bound to at link time.
        node: u16,
        /// The remote procedure's name.
        name: String,
    },
    /// **Informational**: a global slot the image writes but never
    /// reads. Only emitted when the effect analysis can prove the
    /// store unobservable — no `LOADGLOBAL` of the slot anywhere in
    /// the owning segment, no address of the global frame taken, and
    /// no pointer reads or control escapes anywhere in the image that
    /// could alias it.
    DeadStore {
        /// The written-but-never-read global slot index.
        slot: u32,
    },
    /// **Informational**: an instruction boundary the dataflow proves
    /// unreachable from its procedure's entry (dead code; decoded but
    /// never executed on any path).
    UnreachableCode {
        /// First absolute byte offset of the unreachable run.
        at: u32,
    },
}

impl DiagKind {
    /// Whether this diagnostic is informational only: it reports a
    /// fact about the image, not a violation, and does not fail
    /// verification ([`VerifyReport::is_ok`] ignores it).
    pub fn is_informational(&self) -> bool {
        matches!(
            self,
            DiagKind::RemoteTarget { .. }
                | DiagKind::DeadStore { .. }
                | DiagKind::UnreachableCode { .. }
        )
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagKind::BadEntry { reason } => write!(f, "malformed entry: {reason}"),
            DiagKind::BadSizeClass { fsi } => {
                write!(f, "frame-size index {fsi} is not in the image's ladder")
            }
            DiagKind::SizeClassMismatch {
                fsi,
                capacity,
                slot,
            } => write!(
                f,
                "local slot {slot} exceeds size class {fsi}'s capacity of {capacity}"
            ),
            DiagKind::StackUnderflow { depth, pops } => {
                write!(f, "pops {pops} at depth {depth}: stack underflow")
            }
            DiagKind::StackOverflow { depth, limit } => {
                write!(f, "reaches depth {depth} over the limit of {limit}")
            }
            DiagKind::CallDepthMismatch { lo, hi, nargs } => write!(
                f,
                "call at depth [{lo},{hi}] but the callee takes exactly {nargs} argument(s)"
            ),
            DiagKind::XferDepth { lo, hi } => write!(
                f,
                "XFER at depth [{lo},{hi}]; the transfer protocol needs [1,2]"
            ),
            DiagKind::InconsistentReturnArity { first, second } => {
                write!(
                    f,
                    "returns at depth {first} on one path, {second} on another"
                )
            }
            DiagKind::BadCallTarget { target, fault } => {
                write!(f, "call target {target:#06x}: {fault}")
            }
            DiagKind::UnboundModule { lv_index, module } => write!(
                f,
                "link-vector slot {lv_index} names module {module}, which the image does not bind"
            ),
            DiagKind::BadDescriptor { word } => {
                write!(f, "descriptor {word:#06x} names no procedure in the image")
            }
            DiagKind::MidInstructionJump { target } => {
                write!(f, "jump to {target:#06x} lands mid-instruction")
            }
            DiagKind::JumpOutOfBody { target } => {
                write!(f, "jump to {target:#06x} leaves the procedure body")
            }
            DiagKind::Undecodable { at } => {
                write!(f, "reachable code fails to decode at {at:#06x}")
            }
            DiagKind::FallsOffEnd => write!(f, "control falls off the end of the body"),
            DiagKind::RemoteTarget {
                lv_index,
                node,
                name,
            } => write!(
                f,
                "note: XFER through remote descriptor at link slot {lv_index}: `{name}` on node {node}"
            ),
            DiagKind::DeadStore { slot } => {
                write!(f, "note: global slot {slot} is written but never read")
            }
            DiagKind::UnreachableCode { at } => {
                write!(f, "note: code at c{at:#06x} is unreachable")
            }
        }
    }
}

/// One diagnostic, with module/procedure/pc provenance and the
/// offending instruction rendered via `fpc-isa`'s disassembler when
/// the bytes decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Module index within the image.
    pub module: usize,
    /// Module name, for human-readable rendering.
    pub module_name: String,
    /// Entry-vector index of the procedure, when the diagnostic is
    /// attributable to one.
    pub ev_index: u16,
    /// Absolute code byte offset the diagnostic anchors to.
    pub pc: u32,
    /// The instruction at `pc`, disassembled, or empty when the bytes
    /// there do not decode.
    pub rendered: String,
    /// What went wrong.
    pub kind: DiagKind,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at c{:#06x}: {}",
            self.module_name, self.ev_index, self.pc, self.kind
        )?;
        if !self.rendered.is_empty() {
            write!(f, "\n    {}", self.rendered)?;
        }
        Ok(())
    }
}

/// Per-procedure facts the analysis established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcSummary {
    /// Module index.
    pub module: usize,
    /// Entry-vector index.
    pub ev_index: u16,
    /// Header byte address.
    pub header: u32,
    /// Declared argument count.
    pub nargs: u32,
    /// Frame-size class index.
    pub fsi: u8,
    /// Maximum evaluation-stack depth any reachable path attains, or
    /// `None` when the procedure body is unreachable dead code with no
    /// instructions analysed.
    pub max_stack: Option<u32>,
    /// Depth every `RET` leaves, when the procedure returns at all.
    pub ret_arity: Option<u32>,
    /// Indices (into the report's proc table) of procedures this one
    /// calls through statically resolved sites.
    pub calls: Vec<usize>,
}

/// The certificate a clean verification issues: what the image was
/// proven to respect. Its one use is licensing the VM's native tier
/// ([`Certificate::native_license`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// No reachable path exceeds this evaluation-stack depth,
    /// transfer residue included (see [`VerifyReport::stack_limit`]).
    pub max_stack_depth: u32,
    /// Procedures proven.
    pub procs: usize,
    /// Total frame words of the deepest acyclic call chain from the
    /// entry, or `None` when the call graph has a cycle reachable from
    /// the entry (recursion: frame depth is data-dependent).
    pub frame_words_bound: Option<u32>,
}

/// One recursion cycle in the resolved call graph, as a list of
/// indices into the report's proc table.
pub type Cycle = Vec<usize>;

/// Everything the verifier established about an image.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// All diagnostics, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-procedure facts, indexed by the analysis's proc ids.
    pub procs: Vec<ProcSummary>,
    /// Recursion cycles found in the resolved call graph (strongly
    /// connected components with more than one member, or self-loops).
    pub cycles: Vec<Cycle>,
    /// The stack-depth limit the analysis checked against. When the
    /// image transfers (`XFER`), this is the machine limit minus
    /// [`VerifyReport::xfer_residue`]: a transfer that enters a
    /// creation context can leave its argument record riding the
    /// processor stack below the new frame's accounting, so the
    /// verifier budgets the same headroom the code generator reserves.
    pub stack_limit: u32,
    /// Words of transfer-residue headroom withheld from
    /// [`VerifyReport::stack_limit`] (0 for transfer-free images).
    pub xfer_residue: u32,
    /// Total frame words of the deepest acyclic call chain from the
    /// entry, or `None` when recursion reachable from the entry makes
    /// frame depth data-dependent.
    pub frame_words_bound: Option<u32>,
    /// Interprocedural effect summaries, parallel to
    /// [`VerifyReport::procs`] (each is the whole-program summary of
    /// the procedure and everything it can reach).
    pub effects: Vec<crate::EffectSummary>,
}

impl VerifyReport {
    /// Whether verification succeeded. Informational diagnostics
    /// (see [`DiagKind::is_informational`]) do not count against it.
    pub fn is_ok(&self) -> bool {
        self.diagnostics.iter().all(|d| d.kind.is_informational())
    }

    /// The proc-table index of `(module, ev_index)`, resolving module
    /// instances to their code owner via `code_of` is the caller's
    /// job — summaries are keyed by owning module.
    pub fn proc_id(&self, module: usize, ev_index: u16) -> Option<usize> {
        self.procs
            .iter()
            .position(|p| p.module == module && p.ev_index == ev_index)
    }

    /// The whole-program effect summary of `(owning module, ev_index)`,
    /// when the procedure exists.
    pub fn effects_of(&self, module: usize, ev_index: u16) -> Option<&crate::EffectSummary> {
        self.proc_id(module, ev_index)
            .and_then(|i| self.effects.get(i))
    }

    /// Whether `(owning module, ev_index)` is certified retry-safe: the
    /// report is clean *and* the procedure's effect summary proves
    /// re-execution unobservable (see
    /// [`EffectSummary::retry_safe`](crate::EffectSummary::retry_safe)).
    pub fn retry_safe(&self, module: usize, ev_index: u16) -> bool {
        self.is_ok()
            && self
                .effects_of(module, ev_index)
                .is_some_and(|e| e.retry_safe())
    }

    /// The certificate, when verification succeeded.
    pub fn certificate(&self) -> Option<Certificate> {
        if !self.is_ok() {
            return None;
        }
        Some(Certificate {
            max_stack_depth: self
                .procs
                .iter()
                .filter_map(|p| p.max_stack)
                .max()
                .unwrap_or(0)
                + self.xfer_residue,
            procs: self.procs.len(),
            frame_words_bound: self.frame_words_bound,
        })
    }
}

impl Certificate {
    /// Mints the license that arms the VM's native tier
    /// ([`fpc_vm::Machine::arm_native`]), letting its bursts skip their
    /// stack checks. Only clean verifications
    /// produce a [`Certificate`], so holding one *is* the eligibility
    /// proof; the license carries the proven stack bound for the VM's
    /// final fit check against its configured stack depth.
    pub fn native_license(&self) -> fpc_vm::NativeLicense {
        fpc_vm::NativeLicense::new(self.max_stack_depth, self.procs)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            writeln!(
                f,
                "OK: {} procedure(s), max stack depth {} (limit {})",
                self.procs.len(),
                self.procs
                    .iter()
                    .filter_map(|p| p.max_stack)
                    .max()
                    .unwrap_or(0),
                self.stack_limit,
            )?;
            match self.frame_words_bound {
                Some(w) => writeln!(f, "frame bound: {w} words on the deepest call chain")?,
                None => writeln!(
                    f,
                    "frame bound: none ({} recursion cycle(s))",
                    self.cycles.len()
                )?,
            }
            for d in &self.diagnostics {
                writeln!(f, "  {d}")?;
            }
        } else {
            let hard = self
                .diagnostics
                .iter()
                .filter(|d| !d.kind.is_informational())
                .count();
            writeln!(f, "FAILED: {hard} diagnostic(s)")?;
            for d in &self.diagnostics {
                writeln!(f, "  {d}")?;
            }
        }
        Ok(())
    }
}
