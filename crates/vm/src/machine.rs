//! The interpreter: one engine, four implementations.
//!
//! The machine executes the `fpc-isa` byte code under a
//! [`MachineConfig`], realising the paper's implementations I1–I4 as
//! configurations of the same engine:
//!
//! * the **general scheme** is always present: every context is a frame
//!   in storage holding PC, return link and global-frame pointer, and
//!   any `XFER` can fall back to it;
//! * the **return-prediction stack** (§6) makes LIFO returns — and the
//!   corresponding calls — run without touching frame words in memory;
//! * **register banks** (§7) shadow the locals of recent frames and
//!   absorb argument passing by renaming;
//! * the **free-frame cache** (§7.1) hides allocation cost for
//!   standard-size frames.
//!
//! Every architectural memory reference is counted, so "three
//! references to allocate", "four levels of indirection" and "as fast
//! as an unconditional jump" are measurements here, not claims.

use std::ops::Range;

use fpc_core::{layout, Context, ContextWord, FrameHandle, GftEntry, ProcDesc};
use fpc_frames::{FrameError, FrameHeap, FrameRecord, FrameTable, GeneralHeap, HeapStats};
use fpc_isa::{decode, Instr};
use fpc_mem::{ByteAddr, CodeStore, Memory, WordAddr};

use crate::banks::{BankMachine, BankStats};
use crate::cache::{CacheStats, FrameCache};
use crate::config::{AllocStrategy, MachineConfig, PtrLocalPolicy};
use crate::cost::{
    TransferBatch, TransferKind, TransferStats, CYCLE_BASE, CYCLE_MEMREF, CYCLE_REFILL,
};
use crate::error::{FaultKind, RemoteFaultClass, TrapCode, VmError};
use crate::ifu::{Resume, ReturnEntry, ReturnStack, ReturnStackStats, NO_RESUME};
use crate::image::{self, Image, ProcRef, AV_BASE, GFT_BASE};
use crate::native::{
    Compiled, Effect, Entry, NOp, NativeLicense, NativeTier, ReturnPredictor, Site,
};
use crate::observe::ObservedEffects;
use crate::predecode::{PredecodeCache, PredecodeStats};

/// Whole-run statistics.
#[derive(Debug, Default, Clone)]
pub struct MachineStats {
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles under the [`crate::cost`] model.
    pub cycles: u64,
    /// Taken jumps (the yardstick events).
    pub jumps_taken: u64,
    /// Per-transfer-kind statistics.
    pub transfers: TransferStats,
    /// Extra cycles charged for §7.4 diverted references.
    pub divert_cycles: u64,
    /// Distribution of requested frame sizes in **bytes** (the class
    /// the procedure header asked for), for the §7.1 "95% of frames
    /// are smaller than 80 bytes" statistic (experiment E7).
    pub frame_bytes: fpc_stats::Histogram,
}

impl MachineStats {
    /// The paper's §1 density statistic: instructions per call-or-return
    /// ("one call or return for every 10 instructions executed is not
    /// uncommon").
    pub fn instructions_per_transfer(&self) -> f64 {
        let t = self.transfers.calls_and_returns();
        if t == 0 {
            f64::INFINITY
        } else {
            self.instructions as f64 / t as f64
        }
    }
}

#[derive(Debug)]
enum Allocator {
    General(GeneralHeap, FrameTable),
    Av(FrameHeap),
    Cached { heap: FrameHeap, cache: FrameCache },
}

#[derive(Debug, Clone)]
struct Process {
    /// Suspended context (a frame word), or the running marker.
    ctx: ContextWord,
    saved_stack: Vec<u16>,
    alive: bool,
}

/// Where a module landed at load time (needed for §5 T2 relocation).
#[derive(Debug, Clone)]
struct LoadedModule {
    gf: WordAddr,
    code_base: ByteAddr,
    code_len: u32,
    nprocs: u16,
    /// The module whose code this one runs: itself, or its owner when
    /// it is an instance (`ModuleImage::code_of`). Effect observation
    /// keys footprints by code segment to match the static analysis.
    code_seg: usize,
}

/// What [`Machine::fusion_stats`] would report; it never does.
/// Kept only for `perfbench/`, its one caller.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FusionStats {
    /// Steps that executed a fused pair.
    pub fused_execs: u64,
    /// Pairs demoted to a single step.
    pub demotions: u64,
}

/// What [`Machine::xfer_cache_stats`] would report; it never does.
/// Kept only for `perfbench/`, its one caller.
#[doc(hidden)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct XferCacheStats {
    /// Calls served from a memoised target.
    pub hits: u64,
    /// Calls resolved through the tables.
    pub misses: u64,
}

/// Counters for the recoverable-fault subsystem.
///
/// The `handler_*` fields account **every** simulated cost incurred on
/// behalf of fault handling: the aborted attempt of a faulting
/// instruction, the dispatch transfer, and every instruction executed
/// while a handler is on the stack. Subtracting them from
/// [`MachineStats`] recovers the counters of a fault-free run of the
/// same program — the differential invariant the injection tests
/// check. `injected_refs` separately accounts references made by
/// host-side injection hooks ([`Machine::seize_free_frames`] and
/// friends), which a fault-free run also never pays.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults dispatched to a handler, indexed by [`FaultKind::index`].
    pub raised: [u64; FaultKind::COUNT],
    /// Handler activations that completed (handler frame freed).
    pub recovered: u64,
    /// Instructions executed on behalf of fault handling.
    pub handler_instructions: u64,
    /// Cycles spent on behalf of fault handling.
    pub handler_cycles: u64,
    /// Counted references made on behalf of fault handling.
    pub handler_refs: u64,
    /// Taken jumps executed inside handlers.
    pub handler_jumps: u64,
    /// Counted references made by host-side injection hooks.
    pub injected_refs: u64,
}

impl FaultStats {
    /// Total faults dispatched across all kinds.
    pub fn total_raised(&self) -> u64 {
        self.raised.iter().sum()
    }
}

/// Outcome of [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction was executed.
    Ran,
    /// The machine is halted.
    Halted,
}

/// A link-vector entry registered as a remote procedure descriptor:
/// `EFC` through it becomes a cross-machine `XFER` instead of a local
/// table walk.
struct RemoteLink {
    /// Owning module index (instances sharing the owner's code are not
    /// intercepted — remote descriptors live in owner link vectors).
    module: usize,
    /// Link-vector index of the descriptor.
    lv_index: u8,
    /// Current node binding; rotated by failover.
    node: u16,
    /// Exported name of the remote procedure.
    name: String,
    /// Argument words marshalled off the evaluation stack.
    nargs: u8,
    /// Result words unmarshalled back onto it.
    nret: u8,
    /// The importer's idempotence declaration.
    idempotence: crate::image::Idempotence,
}

/// State of the (at most one) in-flight remote operation.
enum RemoteOpState {
    /// Request issued; the machine is parked on the call instruction.
    Issued,
    /// Reply arrived; the restarted call commits these results.
    Completed(Vec<u16>),
    /// Transport failed; the restarted call raises a remote fault.
    Failed(RemoteFaultClass),
}

struct RemoteOp {
    /// Index into `remote_links`.
    link: usize,
    state: RemoteOpState,
}

/// An in-flight remote call surfaced to the host transport layer: the
/// descriptor identity plus the argument record copied
/// (non-destructively) off the top of the evaluation stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteRequest {
    /// Owning module index of the remote descriptor.
    pub module: usize,
    /// Link-vector index of the descriptor.
    pub lv_index: u8,
    /// Node the descriptor is currently bound to.
    pub node: u16,
    /// Exported name of the remote procedure.
    pub name: String,
    /// The marshalled argument record (stack top, caller order).
    pub args: Vec<u16>,
    /// Result words the caller expects back.
    pub nret: u8,
    /// The importer's idempotence declaration — the conservative input
    /// to the host retry policy's decision matrix.
    pub idempotence: crate::image::Idempotence,
}

/// The byte-code machine.
pub struct Machine {
    mem: Memory,
    code: CodeStore,
    config: MachineConfig,
    allocator: Allocator,
    rs: ReturnStack,
    banks: Option<BankMachine>,
    defer_headers: bool,
    classes: fpc_frames::SizeClasses,
    predecode: Option<PredecodeCache>,
    /// The native tier ([`MachineConfig::native`]): the image's
    /// direct-threaded compiled bodies. Present whenever the config
    /// enables the tier; its bursts check stack effects until
    /// [`Machine::arm_native`] accepts a [`NativeLicense`], and it stops
    /// for good the moment a certificate premise lapses: a trap or
    /// fault handler is installed (handler code runs at stack depths
    /// the static analysis did not model) or loaded code is mutated
    /// (`replace_proc` / `relocate_module` / `unbind_module`).
    native: Option<NativeTier>,
    /// The call discipline the native tier's transfer handlers are
    /// specialised for.
    disc: Disc,

    // Registers.
    lf: WordAddr,
    gf: WordAddr,
    code_base: ByteAddr,
    pc: ByteAddr,
    return_ctx: ContextWord,
    stack: Vec<u16>,
    /// `memory size − 1` when the size is a power of two, else 0: the
    /// mask [`Machine::wrap`] uses in place of a modulo.
    wrap_mask: u32,

    modules: Vec<LoadedModule>,
    processes: Vec<Process>,
    current_proc: usize,
    trap_handler: Option<ContextWord>,

    // Recoverable-fault machinery.
    fault_handlers: [Option<ContextWord>; FaultKind::COUNT],
    /// Nesting depth of live fault handlers (frames in
    /// `handler_frames`).
    fault_depth: u32,
    /// Set while a fault is being dispatched (between the fault point
    /// and the handler's entry); a second fault in that window is a
    /// double fault.
    dispatching_fault: Option<FaultKind>,
    /// Sticky: once a stack-overflow fault is dispatched, the
    /// evaluation-stack reserve stays unlocked (the "grown stack").
    stack_relaxed: bool,
    /// Frames belonging to live fault handlers, newest last.
    handler_frames: Vec<WordAddr>,
    /// Per-module swapped-out flag; transfers into an unbound module
    /// fault with [`FaultKind::UnboundProcedure`].
    unbound: Vec<bool>,
    /// Whether any `unbound` flag is set: while none is, the boundness
    /// checks on every transfer cannot fail and return at once.
    any_unbound: bool,
    /// Frames grabbed by [`Machine::seize_free_frames`].
    seized: Vec<(WordAddr, u32)>,
    fstats: FaultStats,

    // Remote-transfer (cross-machine XFER) machinery.
    /// Link-vector entries registered as remote descriptors.
    remote_links: Vec<RemoteLink>,
    /// The in-flight remote operation, if any — at most one, because
    /// the parked context *is* the machine.
    remote_op: Option<RemoteOp>,
    /// `FAILOVER` info words queued for the host to drain.
    failover_requests: Vec<u16>,
    /// Info word of the most recent remote fault
    /// (`lv_index << 4 | failure class`), read by `RFINFO`.
    last_remote_fault: u16,

    /// Charge-free effect journal; `Some` iff
    /// [`MachineConfig::observe_effects`] is on.
    observe: Option<Box<ObservedEffects>>,

    output: Vec<u16>,
    stats: MachineStats,
    halted: bool,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.pc)
            .field("lf", &self.lf)
            .field("gf", &self.gf)
            .field("halted", &self.halted)
            .field("instructions", &self.stats.instructions)
            .finish_non_exhaustive()
    }
}

/// `Machine: Send` is a load-bearing property, not an accident: the
/// `fpc-sched` work-stealing scheduler moves whole suspended machines
/// between worker threads at fuel-quantum boundaries. The audit behind
/// this assertion: every field is owned (memory, code store, frame
/// allocator, caches travel with the machine — no shared mutable host
/// state), the one interior-mutability cell (the bank lookup memo) is
/// `Cell`, which is `Send`, and the compiled native bodies are plain
/// owned data. The accelerator
/// caches stay valid across a steal because their coherence key (the
/// code-store version) is derived from the machine's own state, which
/// moves with it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

enum Flow {
    Next,
    Taken(Option<TransferKind>),
    Halt,
}

/// A resolved call target and its call plan: everything
/// [`Machine::enter_call`] needs beyond the transfer kind, with the
/// header's packed bytes already unpacked. The native tier builds one
/// per known call site at compile time, so a call through it derives
/// nothing from the header or the size-class ladder at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CallTarget {
    /// Procedure header address.
    pub header: ByteAddr,
    /// Destination global frame.
    pub gf: WordAddr,
    /// Destination code base.
    pub cb: ByteAddr,
    /// Header frame-size index byte.
    pub fsi: u8,
    /// Argument count, from the header flags.
    pub nargs: u8,
    /// The §7.4 flag, from the header flags: the callee's locals may be
    /// addressed.
    pub addr_taken: bool,
    /// Words in the class's locals region (0 beyond the ladder, where
    /// the frame allocation fails first).
    pub locals: u32,
    /// Bytes of a frame of the class, for `frame_bytes`.
    pub frame_bytes: u32,
}

impl CallTarget {
    /// The plan for a call of the procedure at `header`, whose header
    /// holds `fsi` and the packed `flags`.
    pub(crate) fn new(
        header: ByteAddr,
        gf: WordAddr,
        cb: ByteAddr,
        (fsi, flags): (u8, u8),
        classes: &fpc_frames::SizeClasses,
    ) -> Self {
        let (nargs, addr_taken) = layout::unpack_flags(flags);
        let words = classes.words(fsi).unwrap_or(0);
        CallTarget {
            header,
            gf,
            cb,
            fsi,
            nargs,
            addr_taken,
            locals: words.saturating_sub(layout::FRAME_HEADER_WORDS),
            frame_bytes: words * 2,
        }
    }
}

/// The counters whose changes a native burst charges its fast ops by:
/// counted references, bank diversions and taken jumps. A burst keeps
/// their values at entry, advanced past every change that a transfer
/// or an interpreter fallback charged itself.
#[derive(Clone, Copy)]
struct Mark {
    refs: u64,
    divert: u64,
    jumps: u64,
}

impl Mark {
    /// Advances past the changes from `before` to `after`.
    #[inline(always)]
    fn skip(&mut self, before: Mark, after: Mark) {
        self.refs += after.refs - before.refs;
        self.divert += after.divert - before.divert;
        self.jumps += after.jumps - before.jumps;
    }
}

/// The frame allocator a [`Discipline`]'s handlers inline.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AllocKind {
    General,
    Av,
    Cached,
}

/// A call discipline: what a native burst's call and return handlers
/// are specialised for. A known-site call and a return are written once
/// per discipline, doing only the work the discipline's machine
/// simulates; every rare case (an AV trap, an unbound module, a
/// strict-stack violation, a frame not in use, a process exit) is a
/// cold call into [`Machine::enter_call`] or [`Machine::perform_return`],
/// which stay the one definition of a transfer. Whether the machine has
/// banks is the burst's own `BANKS` parameter.
trait Discipline {
    /// The allocator, or `None` for the generic instance, whose every
    /// transfer takes the general path.
    const ALLOC: Option<AllocKind>;
    /// Whether the IFU return stack is on. Its entries then carry the
    /// compiled resume points; without it a burst-local
    /// [`ReturnPredictor`] does.
    const RS: bool;
}

/// I1: general heap, no return stack, no banks.
struct I1;
/// I2: AV heap, no return stack, no banks.
struct I2;
/// I3: AV heap and the return stack, no banks.
struct I3;
/// I4: AV heap behind the frame cache, the return stack, and renaming
/// banks whose pointer policy is not flush-on-exit.
struct I4;
/// Every other combination.
struct AnyCalls;

impl Discipline for I1 {
    const ALLOC: Option<AllocKind> = Some(AllocKind::General);
    const RS: bool = false;
}
impl Discipline for I2 {
    const ALLOC: Option<AllocKind> = Some(AllocKind::Av);
    const RS: bool = false;
}
impl Discipline for I3 {
    const ALLOC: Option<AllocKind> = Some(AllocKind::Av);
    const RS: bool = true;
}
impl Discipline for I4 {
    const ALLOC: Option<AllocKind> = Some(AllocKind::Cached);
    const RS: bool = true;
}
impl Discipline for AnyCalls {
    const ALLOC: Option<AllocKind> = None;
    const RS: bool = false;
}

/// The discipline of a machine, chosen once at load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disc {
    I1,
    I2,
    I3,
    I4,
    Any,
}

impl Disc {
    fn of(config: &MachineConfig) -> Disc {
        let rs = config.return_stack > 0;
        match (config.alloc, rs, config.banks) {
            (AllocStrategy::General, false, None) => Disc::I1,
            (AllocStrategy::Av, false, None) => Disc::I2,
            (AllocStrategy::Av, true, None) => Disc::I3,
            (AllocStrategy::AvCached { .. }, true, Some(b))
                if b.renaming && b.ptr_policy != PtrLocalPolicy::FlushOnExit =>
            {
                Disc::I4
            }
            _ => Disc::Any,
        }
    }
}

/// A burst's transfer accounting: the calls and returns it batches,
/// the mark its fast ops charge from, the transfers' cycles beyond
/// `CYCLE_BASE`, and the predictor of a machine without a return stack.
struct Xfers {
    batch: TransferBatch,
    mark: Mark,
    cycles: u64,
    predictor: ReturnPredictor,
}

impl Xfers {
    /// Records a fast call or return that made `refs` counted
    /// references and no diversion, as [`Machine::native_xfer`] would.
    /// The references are not in the mark: the fast transfer counted
    /// them into [`Owed`], or skipped the mark past them itself.
    #[inline(always)]
    fn record(&mut self, stats: &mut TransferStats, kind: TransferKind, refs: u64) {
        let c = refs * CYCLE_MEMREF + CYCLE_REFILL;
        self.cycles += c;
        self.batch.record(stats, kind, CYCLE_BASE + c, refs);
    }
}

/// References the fast transfers of a burst have made but not yet
/// counted into memory: data reads and writes, and references charged
/// outside data memory (table reads, the general heap's walks). The
/// burst counts them at exit, so its fast transfers update no memory
/// counter on the way. Never leaves the burst, so it lives in
/// registers.
#[derive(Default)]
struct Owed {
    reads: u64,
    writes: u64,
    charged: u64,
}

impl Owed {
    /// An AV list's pop: two reads and a write.
    #[inline(always)]
    fn pop(&mut self) {
        self.reads += 2;
        self.writes += 1;
    }

    /// An AV list's push: two reads and two writes.
    #[inline(always)]
    fn push(&mut self) {
        self.reads += 2;
        self.writes += 2;
    }
}

/// Where a burst continues after a call or return.
enum Next {
    /// At this compiled op, known to start at `pc`.
    At(u32, u32),
    /// Wherever `pc` is, trying the predicted entry first, unless the
    /// transfer halted the machine or changed the code.
    Chase(Option<Entry>),
}

/// How a native burst ended.
enum NativeExit {
    /// The machine halted inside the burst.
    Halted,
    /// Fuel ran out, an op's stack check failed, or control left
    /// compiled code (transfer, code change, fall-off); `pc` is
    /// materialized and the interpreter resumes.
    Left,
}

/// On a renaming machine every argument must land in the callee's
/// bank: a call renames `nargs` stack words into it, and a bank shadows
/// only `min(frame locals, bank words)` words, so a procedure with more
/// arguments would silently drop the rest. Images (and replacement
/// bodies) declaring such a procedure are refused up front.
fn renaming_fits(
    config: &MachineConfig,
    classes: &fpc_frames::SizeClasses,
    fsi: u8,
    nargs: u8,
) -> Result<(), VmError> {
    let Some(b) = config.banks.filter(|b| b.renaming) else {
        return Ok(());
    };
    let locals = classes.iter().nth(fsi as usize).map_or(0, |(_, words)| {
        words.saturating_sub(layout::FRAME_HEADER_WORDS)
    });
    let shadow = locals.min(b.words);
    if nargs as u32 > shadow {
        return Err(VmError::BadImage(format!(
            "a procedure takes {nargs} arguments but a renaming bank shadows only {shadow}"
        )));
    }
    Ok(())
}

/// Runs one general-heap operation, charging the references it models
/// into the memory's count.
#[inline]
fn general<R>(g: &mut GeneralHeap, mem: &mut Memory, op: impl FnOnce(&mut GeneralHeap) -> R) -> R {
    let before = g.charged_refs();
    let r = op(g);
    mem.charge_refs(g.charged_refs() - before);
    r
}

impl Machine {
    /// Loads an image under a configuration and prepares the entry
    /// call (the entry procedure's frame is created; execution will
    /// begin at its first instruction).
    ///
    /// # Errors
    ///
    /// [`VmError::BadImage`] for malformed or incompatible images
    /// (e.g. a renaming machine requires an image compiled without
    /// prologue argument stores, and vice versa).
    pub fn load(image: &Image, config: MachineConfig) -> Result<Self, VmError> {
        Self::load_in(image, config, fpc_mem::MemoryBuffer::default())
    }

    /// [`Machine::load`], building the simulated memory inside a
    /// recycled [`fpc_mem::MemoryBuffer`] (see
    /// [`Machine::into_memory_buffer`]). The buffer only recycles the
    /// host allocation; the loaded machine is bit-identical to a
    /// freshly allocated one.
    ///
    /// # Errors
    ///
    /// As [`Machine::load`].
    pub fn load_in(
        image: &Image,
        config: MachineConfig,
        buf: fpc_mem::MemoryBuffer,
    ) -> Result<Self, VmError> {
        let mut machine = Self::construct(image, config, buf)?;
        machine.start_at(image, image.entry, &[])?;
        machine.refresh_predecode();
        Ok(machine)
    }

    /// [`Machine::load`], but beginning execution at `entry` with
    /// `args` pre-pushed on the evaluation stack — the server-side
    /// entry point for executing one remote request to completion.
    ///
    /// Only stored-prologue images are supported: with argument
    /// renaming the callee expects its arguments in a register bank,
    /// not on the stack, and there is no caller here to rename them.
    ///
    /// # Errors
    ///
    /// As [`Machine::load`], plus [`VmError::BadImage`] when the entry
    /// arity disagrees with `args` or the config renames arguments.
    pub fn load_service(
        image: &Image,
        config: MachineConfig,
        entry: ProcRef,
        args: &[u16],
    ) -> Result<Self, VmError> {
        if config.renaming() {
            return Err(VmError::BadImage(
                "remote service execution requires a non-renaming machine".into(),
            ));
        }
        let mut machine = Self::construct(image, config, fpc_mem::MemoryBuffer::default())?;
        machine.start_at(image, entry, args)?;
        machine.refresh_predecode();
        Ok(machine)
    }

    /// The shared constructor: everything in [`Machine::load_in`] up to
    /// (but not including) the initial transfer.
    fn construct(
        image: &Image,
        config: MachineConfig,
        buf: fpc_mem::MemoryBuffer,
    ) -> Result<Self, VmError> {
        if image.bank_args != config.renaming() {
            return Err(VmError::BadImage(format!(
                "image bank_args={} but machine renaming={}",
                image.bank_args,
                config.renaming()
            )));
        }
        let (mem, code, placement) = image::load_with_buffer(image, config.memory_words, buf)?;
        if config.renaming() {
            // The loader has bounds-checked every owner's headers.
            let owners = image.modules.iter().enumerate();
            for (mi, m) in owners.filter(|(_, m)| m.code_of.is_none()) {
                for p in 0..m.nprocs {
                    let header = image.proc_header_addr(ProcRef {
                        module: mi,
                        ev_index: p,
                    });
                    let fsi = code.peek(header.offset(layout::HDR_FSI));
                    let flags = code.peek(header.offset(layout::HDR_FLAGS));
                    renaming_fits(&config, &image.classes, fsi, layout::unpack_flags(flags).0)?;
                }
            }
        }
        let mut mem = mem;
        let region = placement.frame_region.clone();
        let reserve = config.fault_reserve_words;
        if reserve > 0 && reserve + 2 >= region.end - region.start {
            return Err(VmError::BadImage(format!(
                "fault reserve of {reserve} words leaves no frame region"
            )));
        }
        let allocator = match config.alloc {
            AllocStrategy::General => Allocator::General(
                GeneralHeap::with_reserve(region.start, region.end - region.start, reserve),
                FrameTable::for_region(region.end),
            ),
            AllocStrategy::Av => Allocator::Av(FrameHeap::with_reserve(
                &mut mem,
                AV_BASE,
                image.classes.clone(),
                region,
                reserve,
            )?),
            AllocStrategy::AvCached { cache_frames, .. } => {
                let heap = FrameHeap::with_reserve(
                    &mut mem,
                    AV_BASE,
                    image.classes.clone(),
                    region,
                    reserve,
                )?;
                let cache = FrameCache::new(&heap, cache_frames);
                Allocator::Cached { heap, cache }
            }
        };
        let defer_headers = matches!(config.alloc, AllocStrategy::AvCached { defer: true, .. })
            && config.return_stack > 0
            && config.banks.is_some();
        let banks = config.banks.map(|b| BankMachine::new(b.banks, b.words));
        // Segment extents, for relocation: modules were placed in
        // order, so each runs to the next base (or the end of code).
        let mut bases: Vec<u32> = image.modules.iter().map(|m| m.code_base.0).collect();
        bases.push(image.code.len() as u32);
        let modules = image
            .modules
            .iter()
            .enumerate()
            .map(|(i, m)| LoadedModule {
                gf: placement.gf_addrs[i],
                code_base: m.code_base,
                code_len: bases[i + 1..]
                    .iter()
                    .copied()
                    .filter(|&b| b > m.code_base.0)
                    .min()
                    .unwrap_or(image.code.len() as u32)
                    - m.code_base.0,
                nprocs: m.nprocs,
                code_seg: m.code_of.unwrap_or(i),
            })
            .collect();
        let wrap_mask = if mem.size().is_power_of_two() {
            mem.size() - 1
        } else {
            0
        };
        let mut machine = Machine {
            mem,
            code,
            config,
            allocator,
            rs: ReturnStack::new(config.return_stack),
            banks,
            defer_headers,
            classes: image.classes.clone(),
            predecode: config.predecode.then(PredecodeCache::new),
            native: config.native.then(NativeTier::new),
            disc: Disc::of(&config),
            lf: WordAddr::NIL,
            gf: WordAddr::NIL,
            code_base: ByteAddr(0),
            pc: ByteAddr(0),
            return_ctx: ContextWord::NIL,
            stack: Vec::with_capacity(config.stack_depth + config.stack_reserve),
            wrap_mask,
            modules,
            processes: vec![Process {
                ctx: ContextWord::NIL,
                saved_stack: Vec::new(),
                alive: true,
            }],
            current_proc: 0,
            trap_handler: None,
            fault_handlers: [None; FaultKind::COUNT],
            fault_depth: 0,
            dispatching_fault: None,
            stack_relaxed: false,
            handler_frames: Vec::new(),
            unbound: vec![false; image.modules.len()],
            any_unbound: false,
            seized: Vec::new(),
            fstats: FaultStats::default(),
            remote_links: Vec::new(),
            remote_op: None,
            failover_requests: Vec::new(),
            last_remote_fault: 0,
            observe: config.observe_effects.then(Box::default),
            output: Vec::new(),
            stats: MachineStats::default(),
            halted: false,
        };
        for ri in &image.remote_imports {
            machine.register_remote_link(ri);
        }
        Ok(machine)
    }

    /// Eagerly (re)translates every loaded procedure body into the
    /// predecode cache, so steady-state dispatch never falls back to
    /// the lazy byte decoder. Called after load and after every code
    /// mutation; a no-op when predecoding is off or already coherent.
    /// Runs that stop decoding early are left to the lazy path.
    fn refresh_predecode(&mut self) {
        if self.predecode.is_none() {
            return;
        }
        let bodies = self.proc_bodies();
        let cache = self.predecode.as_mut().expect("checked above");
        cache.sync(&self.code);
        for body in bodies {
            cache.translate_range(&self.code, body.start, body.end);
        }
    }

    /// Every loaded procedure body as a byte range, sorted by start
    /// and free of duplicates.
    ///
    /// Bodies are found by walking each module's entry vector —
    /// exactly the data structure `replace_proc` redirects, so a
    /// replaced procedure's fresh body is picked up and its old one is
    /// dropped. Everything between a header's end and the next stop (a
    /// header, a segment base — entry vectors are data — or the end of
    /// the store) is treated as one straight-line run.
    fn proc_bodies(&self) -> Vec<Range<u32>> {
        let mut headers: Vec<u32> = Vec::new();
        for m in &self.modules {
            for p in 0..m.nprocs {
                let rel = self.code.peek_u16(layout::ev_slot(m.code_base, p));
                headers.push(m.code_base.0 + rel as u32);
            }
        }
        headers.sort_unstable();
        headers.dedup();
        let mut stops: Vec<u32> = self.modules.iter().map(|m| m.code_base.0).collect();
        stops.extend_from_slice(&headers);
        stops.push(self.code.len());
        stops.sort_unstable();
        headers
            .iter()
            .map(|&h| {
                let body = h + layout::PROC_HEADER_BYTES;
                let i = stops.partition_point(|&s| s < body);
                body..stops.get(i).copied().unwrap_or_else(|| self.code.len())
            })
            .collect()
    }

    /// Predecode-cache statistics, when predecoding is enabled.
    pub fn predecode_stats(&self) -> Option<PredecodeStats> {
        self.predecode.as_ref().map(|p| {
            let mut s = p.stats();
            // One lookup per interpreted instruction — native bursts
            // (fallback ops included) look up nothing; the cache leaves
            // the hit counter to us so its hot path stays counter-free.
            let native = self
                .native
                .as_ref()
                .map_or(0, |nt| nt.native_instrs + nt.interp_ops);
            s.hits = self
                .stats
                .instructions
                .saturating_sub(s.lazy_decodes + native);
            s
        })
    }

    /// Always `None`: calls resolve through the tables, or through a
    /// native site's compile-time target, and nothing memoises them.
    /// Kept only for `perfbench/`, its one caller.
    #[doc(hidden)]
    pub fn xfer_cache_stats(&self) -> Option<XferCacheStats> {
        None
    }

    /// Always `None`: there is no fused rung. Kept only for
    /// `perfbench/`, its one caller.
    #[doc(hidden)]
    pub fn fusion_stats(&self) -> Option<FusionStats> {
        None
    }

    /// Performs the initial transfer to `entry` with `args` pre-pushed
    /// on the evaluation stack (the stored-prologue caller convention;
    /// empty for the ordinary image entry).
    fn start_at(&mut self, image: &Image, entry: ProcRef, args: &[u16]) -> Result<(), VmError> {
        let desc = image.proc_desc(entry)?;
        let Context::Proc(p) = Context::from(desc) else {
            // Audited: not guest-reachable. `proc_desc` does not read
            // the word from the image — it packs Context::Proc itself,
            // so unpacking here can only yield the same variant.
            unreachable!("validated")
        };
        let (header, dest_gf, dest_cb) = self.resolve_proc_desc(p)?;
        // The root has no caller: return link stays NIL (memory is
        // zeroed) and nothing is pushed on the return stack.
        let (fsi, flags) = self.read_header(header);
        let (nargs, addr_taken) = layout::unpack_flags(flags);
        // Guest-controlled (the flags byte lives in the code image): a
        // corrupt header can claim an arity the initial transfer does
        // not provide.
        if nargs as usize != args.len() {
            return Err(VmError::BadImage(format!(
                "entry procedure declares {nargs} argument(s); the initial transfer passes {}",
                args.len()
            )));
        }
        let frame = self.alloc_frame(fsi, addr_taken)?;
        self.record_frame_bytes(fsi);
        if !self.defer_headers {
            self.mem
                .write(frame.offset(layout::FRAME_GLOBAL), dest_gf.0 as u16);
        }
        let locals = self.locals_of(frame);
        let rename: Option<&[u16]> = if self.config.renaming() {
            Some(&[])
        } else {
            None
        };
        if let Some(b) = self.banks.as_mut() {
            b.assign(&mut self.mem, frame, locals, rename, None);
        }
        self.lf = frame;
        self.gf = dest_gf;
        self.code_base = dest_cb;
        self.pc = header.offset(layout::PROC_HEADER_BYTES);
        self.stack.extend_from_slice(args);
        self.mem.reset_stats(); // setup is not part of the run
        Ok(())
    }

    /// Installs a trap handler procedure; traps transfer to it with the
    /// trap code as the single argument.
    ///
    /// # Errors
    ///
    /// [`VmError::BadImage`] if the reference is invalid.
    pub fn set_trap_handler(&mut self, image: &Image, handler: ProcRef) -> Result<(), VmError> {
        self.trap_handler = Some(image.proc_desc(handler)?);
        // Handler code runs stacked on top of the trapping context at
        // depths the verify certificate did not model.
        self.native_deopt();
        Ok(())
    }

    /// Installs a fault handler for one [`FaultKind`]. Unlike a trap
    /// handler — which resumes after the trapping instruction — a fault
    /// handler's return **restarts** the faulting instruction, so the
    /// handler must remove the cause: donate reserve words
    /// (`DONATE`, the §5.3 software replenisher), re-bind swapped-out
    /// code (`BINDMOD`), or accept the stack extension.
    ///
    /// # Errors
    ///
    /// [`VmError::BadImage`] if the reference is invalid.
    pub fn install_fault_handler(
        &mut self,
        kind: FaultKind,
        image: &Image,
        handler: ProcRef,
    ) -> Result<(), VmError> {
        self.fault_handlers[kind.index()] = Some(image.proc_desc(handler)?);
        // As with trap handlers: fault dispatch runs guest code at
        // unmodelled depths, so the verify certificate lapses.
        self.native_deopt();
        Ok(())
    }

    /// Fault-subsystem counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.fstats
    }

    /// Marks a module's code segment swapped out. The bytes stay in the
    /// host store (a real swap would reinstate identical bytes), but
    /// every transfer into the module — call, return, coroutine `XFER`,
    /// context creation — faults with [`FaultKind::UnboundProcedure`]
    /// until [`Machine::bind_module`] (or the guest's `BINDMOD`)
    /// reinstates it. Code currently executing keeps running (its pages
    /// are resident until it leaves), exactly like a segment whose swap
    /// is deferred while in use.
    ///
    /// The accelerators are flushed first so no return stack entry,
    /// bank, or compiled body can carry control into the unbound
    /// segment behind the check's back.
    ///
    /// # Errors
    ///
    /// [`VmError::BadImage`] if the module index is out of range.
    pub fn unbind_module(&mut self, module: usize) -> Result<(), VmError> {
        if module >= self.modules.len() {
            return Err(VmError::BadImage(format!("no module {module}")));
        }
        self.fallback_flush();
        self.unbound[module] = true;
        self.any_unbound = true;
        // Caches over the code must revalidate across the transition.
        self.code.bump_version();
        // The certificate covered the loaded image; unbinding changes
        // which transfers can complete.
        self.native_deopt();
        Ok(())
    }

    /// Reinstates a module unbound by [`Machine::unbind_module`].
    ///
    /// # Errors
    ///
    /// [`VmError::BadImage`] if the module index is out of range.
    pub fn bind_module(&mut self, module: usize) -> Result<(), VmError> {
        if module >= self.modules.len() {
            return Err(VmError::BadImage(format!("no module {module}")));
        }
        self.unbound[module] = false;
        self.any_unbound = self.unbound.contains(&true);
        self.code.bump_version();
        self.refresh_predecode();
        Ok(())
    }

    /// Whether a module's code segment is currently bound.
    pub fn module_bound(&self, module: usize) -> bool {
        !self.unbound.get(module).copied().unwrap_or(false)
    }

    /// Injection hook: grabs every frame the allocator will currently
    /// hand out, so the next guest allocation raises
    /// [`FaultKind::FrameFault`]. Returns the number of frames seized.
    /// The references this spends are recorded in
    /// [`FaultStats::injected_refs`], not charged to the guest's run —
    /// a fault-free run never pays them.
    pub fn seize_free_frames(&mut self) -> usize {
        let refs0 = self.refs_total();
        let n0 = self.seized.len();
        for fsi in (0..self.classes.len() as u8).rev() {
            let words = self.classes.size_of(fsi);
            loop {
                let got = match &mut self.allocator {
                    Allocator::General(g, _) => general(g, &mut self.mem, |g| g.alloc(words)),
                    Allocator::Av(h) | Allocator::Cached { heap: h, .. } => {
                        h.alloc_fsi(&mut self.mem, fsi)
                    }
                };
                match got {
                    Ok(frame) => self.seized.push((frame, words)),
                    Err(_) => break,
                }
            }
        }
        self.fstats.injected_refs += self.refs_total() - refs0;
        self.seized.len() - n0
    }

    /// Releases every frame taken by [`Machine::seize_free_frames`].
    /// References are recorded as injection overhead, as in seizure.
    pub fn release_seized_frames(&mut self) {
        let refs0 = self.refs_total();
        while let Some((frame, words)) = self.seized.pop() {
            let r = match &mut self.allocator {
                Allocator::General(g, _) => general(g, &mut self.mem, |g| g.free(frame, words)),
                Allocator::Av(h) | Allocator::Cached { heap: h, .. } => {
                    h.free(&mut self.mem, frame)
                }
            };
            debug_assert!(r.is_ok(), "seized frames free cleanly");
        }
        self.fstats.injected_refs += self.refs_total() - refs0;
    }

    /// Runs until `HALT`, all processes exit, or an error.
    ///
    /// # Errors
    ///
    /// [`VmError::OutOfFuel`] if `fuel` instructions were not enough,
    /// or any execution error.
    pub fn run(&mut self, fuel: u64) -> Result<(), VmError> {
        if self.native.is_some() {
            return self.run_tiered(fuel);
        }
        for _ in 0..fuel {
            if let StepOutcome::Halted = self.step()? {
                return Ok(());
            }
        }
        if self.halted {
            Ok(())
        } else {
            Err(VmError::OutOfFuel)
        }
    }

    /// The native-tier run loop: enter a compiled body whenever `pc`
    /// lands on one, otherwise single-step the interpreter. Native
    /// instructions consume one fuel unit each (the byte-dispatch
    /// pace), so a fuel budget sufficient for byte dispatch is always
    /// sufficient here.
    fn run_tiered(&mut self, fuel: u64) -> Result<(), VmError> {
        let mut left = fuel;
        while left > 0 {
            if self.halted {
                return Ok(());
            }
            if let Some((proc, ip)) = self.native_begin() {
                let before = left;
                // One check decision and one discipline per burst:
                // armed bursts carry no stack check, I1–I3 bursts no
                // per-access bank check at all, and each preset's calls
                // and returns their own handlers.
                macro_rules! run {
                    ($checked:literal) => {
                        match (self.disc, self.banks.is_some()) {
                            (Disc::I1, _) => {
                                self.native_run::<$checked, false, I1>(proc, ip, &mut left)
                            }
                            (Disc::I2, _) => {
                                self.native_run::<$checked, false, I2>(proc, ip, &mut left)
                            }
                            (Disc::I3, _) => {
                                self.native_run::<$checked, false, I3>(proc, ip, &mut left)
                            }
                            (Disc::I4, _) => {
                                self.native_run::<$checked, true, I4>(proc, ip, &mut left)
                            }
                            (Disc::Any, false) => {
                                self.native_run::<$checked, false, AnyCalls>(proc, ip, &mut left)
                            }
                            (Disc::Any, true) => {
                                self.native_run::<$checked, true, AnyCalls>(proc, ip, &mut left)
                            }
                        }
                    };
                }
                let exit = if self.native_armed() {
                    run!(false)?
                } else {
                    run!(true)?
                };
                match exit {
                    NativeExit::Halted => return Ok(()),
                    // A burst that retired nothing (a superinstruction
                    // needs more fuel than remains, the entry op's stack
                    // check fails, or the entry op is the body's exit
                    // pad) falls through to retire one instruction
                    // interpretively — which raises the check's error
                    // exactly as the byte rung would, and keeps a
                    // 1-fuel run from re-entering the same burst
                    // forever.
                    NativeExit::Left if left < before => continue,
                    NativeExit::Left => {}
                }
            }
            left -= 1;
            if let StepOutcome::Halted = self.step()? {
                return Ok(());
            }
        }
        if self.halted {
            Ok(())
        } else {
            Err(VmError::OutOfFuel)
        }
    }

    /// Arms the native tier under a verifier license: its bursts skip
    /// their stack checks from then on.
    ///
    /// Returns `false` — leaving the tier as it was — when the config
    /// never enabled it, when any certificate premise has already
    /// lapsed (a trap or fault handler was installed, or loaded code
    /// was mutated: the tier has stopped), or when the license's proven
    /// stack bound does not fit this machine's configured stack depth
    /// (the tier keeps running checked).
    pub fn arm_native(&mut self, license: NativeLicense) -> bool {
        let stack_depth = self.config.stack_depth;
        let Some(nt) = self.native.as_mut() else {
            return false;
        };
        if !nt.live() || license.max_stack_depth() as usize > stack_depth {
            return false;
        }
        nt.arm();
        true
    }

    /// Whether the native tier is armed right now.
    pub fn native_armed(&self) -> bool {
        self.native.as_ref().is_some_and(|nt| nt.armed())
    }

    /// Host-side native-tier counters, when the config enables the tier.
    pub fn native_stats(&self) -> Option<crate::NativeStats> {
        self.native.as_ref().map(|nt| nt.stats())
    }

    /// Permanent native deopt: a certificate premise lapsed (a handler
    /// install or a code mutation).
    fn native_deopt(&mut self) {
        if let Some(nt) = self.native.as_mut() {
            nt.disarm();
        }
    }

    /// Burst-entry gate: recompile the image if the code changed since
    /// the last pass, then look up `pc` in the compiled-body map.
    fn native_begin(&mut self) -> Option<(usize, u32)> {
        let nt = self.native.as_ref()?;
        if !nt.live() {
            return None;
        }
        if !nt.current(self.code.version()) {
            self.native_compile_image();
        }
        self.native.as_ref()?.compiled().locate(self.pc.0)
    }

    /// Compiles every loaded procedure body from the current code.
    fn native_compile_image(&mut self) {
        // The tier is out of `self` while the resolver reads the code.
        let Some(mut nt) = self.native.take() else {
            return;
        };
        let bodies = self.proc_bodies();
        // The return stack's resume points name the old bodies.
        self.rs.clear_resumes();
        let resolve = |instr: Instr, at: u32| self.known_target(instr, ByteAddr(at));
        nt.compile_image(
            self.code.version(),
            self.code.bytes(),
            &bodies,
            self.banks.is_some(),
            &resolve,
        );
        self.native = Some(nt);
    }

    /// Code base of the module whose segment holds `addr`.
    fn code_base_of(&self, addr: u32) -> Option<ByteAddr> {
        self.modules
            .iter()
            .find(|m| (m.code_base.0..m.code_base.0 + m.code_len).contains(&addr))
            .map(|m| m.code_base)
    }

    /// The target of the call at `at` when the code fixes it — every
    /// byte it is read from is code, which changes only with the code
    /// version — or `None` when it does not (an
    /// external call reads the link vector) or does not resolve. A
    /// local call indexes the entry vector of the module holding the
    /// call. Uncounted: this is compile-time work; the native handler
    /// charges what the run-time walk would.
    fn known_target(&self, instr: Instr, at: ByteAddr) -> Option<CallTarget> {
        let direct = |header: ByteAddr| {
            self.check_header(header).ok()?;
            let (gf, cb) = self.read_header_gf_cb(header);
            Some((header, gf, cb))
        };
        let (header, gf, cb) = match instr {
            Instr::DirectCall(a) => direct(ByteAddr(a))?,
            Instr::ShortDirectCall(d) => direct(at.displace(d))?,
            Instr::LocalCall(k) => {
                let cb = self.code_base_of(at.0)?;
                let slot = layout::ev_slot(cb, k as u16);
                self.check_ev_slot(slot).ok()?;
                let header = cb.offset(self.code.peek_u16(slot) as u32);
                self.check_header(header).ok()?;
                // The destination global frame is the caller's, read
                // at run time.
                (header, WordAddr::NIL, cb)
            }
            _ => return None,
        };
        let header_bytes = self.read_header(header);
        Some(CallTarget::new(header, gf, cb, header_bytes, &self.classes))
    }

    /// Executes a native burst starting at op `ip` of compiled body
    /// `proc`. The burst holds the compiled-body table by value for its
    /// whole length and hands it back to the tier on every exit path.
    fn native_run<const CHECKED: bool, const BANKS: bool, D: Discipline>(
        &mut self,
        proc: usize,
        ip: u32,
        budget: &mut u64,
    ) -> Result<NativeExit, VmError> {
        let compiled = self.native.as_mut().expect("live tier").take_compiled();
        let result = self.native_burst::<CHECKED, BANKS, D>(&compiled, proc, ip, budget);
        self.native
            .as_mut()
            .expect("live tier")
            .restore_compiled(compiled);
        result
    }

    /// The burst loop, consuming one fuel unit per retired instruction.
    ///
    /// Fast ops charge by the linear rule [`Machine::step_one`] applies,
    /// once per burst rather than per op: at exit, `CYCLE_BASE` per
    /// retired op plus the changes of `Memory::refs` (`CYCLE_MEMREF`
    /// each), `divert_cycles` and `jumps_taken` (`CYCLE_REFILL` each),
    /// less the changes that something else charged itself — a call or
    /// return, which its handler records exactly, and an interpreter
    /// fallback, which `step_one` charges. The references a fast call
    /// or return makes are counted into memory at exit too ([`Owed`]).
    /// `CHECKED` is whether the tier is unarmed: each op's stack effect
    /// is then checked before it runs, and an op that would underflow
    /// or overflow ends the burst at its start, untouched, for the
    /// interpreter to raise the error. Armed, the license has proven
    /// the check never fails. `BANKS` is whether the machine has
    /// register banks; when it is false the bank lookups and the
    /// divert counter drop out entirely. `D` is the machine's call
    /// discipline, whose handlers its calls and returns take.
    ///
    /// Kept out of line: each instance is one machine's whole hot loop.
    #[inline(never)]
    fn native_burst<const CHECKED: bool, const BANKS: bool, D: Discipline>(
        &mut self,
        code: &Compiled,
        mut cur: usize,
        mut ip: u32,
        budget: &mut u64,
    ) -> Result<NativeExit, VmError> {
        use Instr as I;
        // The tier runs only while the certificate premises hold, so no
        // trap or fault handler can be installed while it runs: burst
        // instructions are never handler-attributed, and the stack
        // limit is the configured depth.
        debug_assert_eq!(self.fault_depth, 0);
        let limit = self.stack_limit();
        let ver0 = self.code.version();
        let mut body = code.proc(cur);
        let budget0 = *budget;
        // The fuel left, in a register for the loop; written back at exit.
        let mut fuel = budget0;
        // Transfers' cycles beyond `CYCLE_BASE`, and the counters the
        // fast ops' charge starts from.
        let mut x = Xfers {
            batch: TransferBatch::default(),
            mark: self.mark::<BANKS>(),
            cycles: 0,
            predictor: ReturnPredictor::new(),
        };
        let mut owed = Owed::default();
        let mut interp_ops = 0u64;
        // A superinstruction retiring `1 + extra` instructions takes the extra
        // fuel up front; on shortfall it refunds the loop-top unit —
        // nothing has executed, so `pc` still names the run start.
        macro_rules! need {
            ($extra:expr) => {
                if fuel < $extra {
                    fuel += 1;
                    self.pc = ByteAddr(body.offs[(ip - 1) as usize]);
                    break Ok(NativeExit::Left);
                }
                fuel -= $extra;
            };
        }
        // A single-op handler: the interpreter's own definition of the
        // named instruction, unchecked: the license or the op's stack
        // check has proven it. A burst never passes a jump, so no
        // address is needed.
        macro_rules! exec {
            ($instr:expr) => {
                if let Err(e) = self.straight::<false, BANKS>($instr, ByteAddr(0)) {
                    fuel += 1;
                    break Err(e);
                }
            };
        }
        macro_rules! run {
            ($instr:expr) => {{
                exec!($instr);
                continue;
            }};
        }
        // Follows a transfer that moved `pc`: to the predicted entry
        // when it holds, else to whatever compiled op covers `pc`; the
        // burst exits when nothing does.
        macro_rules! follow {
            ($predicted:expr) => {
                match code.chase(self.pc.0, $predicted) {
                    Some((p, i)) => {
                        cur = p;
                        body = code.proc(p);
                        ip = i;
                    }
                    None => break Ok(NativeExit::Left),
                }
            };
        }
        // Jumps to op `t` when `taken`, counting it where `step_one`
        // does; the exit charges its refill. (The store also keeps the
        // compiler from turning the branch into a data dependence of
        // the next dispatch.)
        macro_rules! jump {
            ($t:expr, $taken:expr) => {{
                if $taken {
                    ip = $t;
                    self.stats.jumps_taken += 1;
                }
                continue;
            }};
        }
        let fits =
            |e: Effect, depth: usize| depth >= e.need as usize && depth + e.grow as usize <= limit;
        let result = loop {
            if fuel == 0 || (CHECKED && !fits(body.effects[ip as usize], self.stack.len())) {
                self.pc = ByteAddr(body.offs[ip as usize]);
                break Ok(NativeExit::Left);
            }
            fuel -= 1;
            let op = body.ops[ip as usize];
            ip += 1;
            // Every op but a call or return continues the loop; those
            // name their site for the transfer block below.
            let site = match op {
                NOp::Imm(v) => run!(I::LoadImm(v)),
                NOp::LocalRd(n) => run!(I::LoadLocal(n)),
                NOp::LocalWr(n) => run!(I::StoreLocal(n)),
                NOp::LocalAddr(n) => run!(I::LoadLocalAddr(n)),
                NOp::GlobalRd(n) => run!(I::LoadGlobal(n)),
                NOp::GlobalWr(n) => run!(I::StoreGlobal(n)),
                NOp::GlobalAddr(n) => run!(I::LoadGlobalAddr(n)),
                NOp::Read => run!(I::Read),
                NOp::Write => run!(I::Write),
                NOp::LoadIndex => run!(I::LoadIndex),
                NOp::StoreIndex => run!(I::StoreIndex),
                NOp::Add => run!(I::Add),
                NOp::Sub => run!(I::Sub),
                NOp::Mul => run!(I::Mul),
                NOp::Neg => run!(I::Neg),
                NOp::And => run!(I::And),
                NOp::Or => run!(I::Or),
                NOp::Xor => run!(I::Xor),
                NOp::Shl => run!(I::Shl),
                NOp::Shr => run!(I::Shr),
                NOp::CmpEq => run!(I::CmpEq),
                NOp::CmpNe => run!(I::CmpNe),
                NOp::CmpLt => run!(I::CmpLt),
                NOp::CmpLe => run!(I::CmpLe),
                NOp::CmpGt => run!(I::CmpGt),
                NOp::CmpGe => run!(I::CmpGe),
                NOp::AddImm(n) => run!(I::AddImm(n)),
                NOp::Dup => run!(I::Dup),
                NOp::Drop => run!(I::Drop),
                NOp::Exch => run!(I::Exch),
                NOp::Out => run!(I::Out),
                NOp::Noop => run!(I::Noop),
                NOp::Jmp(t) => jump!(t, true),
                NOp::Jz(t) => jump!(t, self.stack.pop().unwrap_or(0) == 0),
                NOp::Jnz(t) => jump!(t, self.stack.pop().unwrap_or(0) != 0),
                NOp::Xfer(s) => s,
                NOp::Interp(instr, len) => {
                    interp_ops += 1;
                    let start = body.offs[(ip - 1) as usize];
                    let before = self.mark::<BANKS>();
                    let r = self.step_one(instr, len, ByteAddr(start));
                    // `step_one` charged what it changed, or nothing
                    // when it failed.
                    x.mark.skip(before, self.mark::<BANKS>());
                    if let Err(e) = r {
                        break Err(e);
                    }
                    if self.halted {
                        break Ok(NativeExit::Halted);
                    }
                    if self.code.version() != ver0 {
                        // The code changed under the burst; `pc` is
                        // already architectural.
                        break Ok(NativeExit::Left);
                    }
                    if self.pc.0 != start + len as u32 {
                        // A transfer (XFER, a trap, a process switch):
                        // chase it natively if the target is compiled.
                        follow!(None);
                    }
                    continue;
                }
                NOp::Exit => {
                    // Fell off the compiled body: no instruction
                    // retired, so refund the fuel unit.
                    fuel += 1;
                    self.pc = ByteAddr(body.offs[(ip - 1) as usize]);
                    break Ok(NativeExit::Left);
                }
                // Superinstructions retire several instructions per dispatch:
                // `need!` takes the extra fuel, which the exit charge
                // counts like any other retired op.
                NOp::Ld2(n, v) => {
                    need!(1);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a);
                    self.stack.push(v);
                    continue;
                }
                NOp::LdLd(n, m) => {
                    need!(1);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a);
                    let b = self.read_local::<BANKS>(m as u32);
                    self.stack.push(b);
                    continue;
                }
                NOp::AddIW(v) => {
                    need!(1);
                    let a = self.stack.pop().unwrap_or(0);
                    self.stack.push(a.wrapping_add(v));
                    continue;
                }
                NOp::SubIW(v) => {
                    need!(1);
                    let a = self.stack.pop().unwrap_or(0);
                    self.stack.push(a.wrapping_sub(v));
                    continue;
                }
                NOp::CmpJz(c, t) => {
                    need!(1);
                    let b = self.stack.pop().unwrap_or(0) as i16;
                    let a = self.stack.pop().unwrap_or(0) as i16;
                    jump!(t, !c.eval(a, b));
                }
                NOp::LdSubI(n, v) => {
                    need!(2);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a.wrapping_sub(v));
                    continue;
                }
                NOp::LdAddI(n, v) => {
                    need!(2);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a.wrapping_add(v));
                    continue;
                }
                NOp::LdXAdd(n) => {
                    need!(2);
                    let t = self.stack.pop().unwrap_or(0);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a.wrapping_add(t));
                    continue;
                }
                NOp::LdICmpJz(n, v, c, t) => {
                    need!(3);
                    let a = self.read_local::<BANKS>(n as u32);
                    jump!(t, !c.eval(a as i16, v as i16));
                }
                NOp::LdLdCmpJz(n, m, c, t) => {
                    need!(3);
                    let a = self.read_local::<BANKS>(n as u32);
                    let b = self.read_local::<BANKS>(m as u32);
                    jump!(t, !c.eval(a as i16, b as i16));
                }
                NOp::WrJmp(n, t) => {
                    need!(1);
                    let v = self.stack.pop().unwrap_or(0);
                    self.write_local::<BANKS>(n as u32, v);
                    jump!(t, true);
                }
                // Argument setup + transfer: the prefix retires
                // as fast ops, then the call retires through its site.
                NOp::LdCall(n, s) => {
                    need!(1);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a);
                    s
                }
                NOp::LdSubICall(n, v, s) => {
                    need!(3);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a.wrapping_sub(v));
                    s
                }
                NOp::LdAddICall(n, v, s) => {
                    need!(3);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a.wrapping_add(v));
                    s
                }
                NOp::LdXAddCall(n, s) => {
                    need!(3);
                    let t = self.stack.pop().unwrap_or(0);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a.wrapping_add(t));
                    s
                }
                NOp::LdLdCall(n, m, s) => {
                    need!(2);
                    let a = self.read_local::<BANKS>(n as u32);
                    self.stack.push(a);
                    let b = self.read_local::<BANKS>(m as u32);
                    self.stack.push(b);
                    s
                }
            };
            // A call or return retires through its discipline's
            // handler, which says where the burst continues. Calls and
            // returns take separate paths, so neither branches on the
            // transfer kind.
            let site = &body.sites[site as usize];
            let next = if matches!(site.instr, Instr::Ret) {
                self.native_return::<BANKS, D>(site, &mut x, &mut owed)
            } else {
                self.native_call::<BANKS, D>(site, &mut x, &mut owed, (cur, ip))
            };
            match next {
                Ok(Next::At(p, i)) => {
                    cur = p as usize;
                    body = code.proc(cur);
                    ip = i;
                }
                Ok(Next::Chase(_)) if self.halted => break Ok(NativeExit::Halted),
                Ok(Next::Chase(_)) if self.code.version() != ver0 => break Ok(NativeExit::Left),
                Ok(Next::Chase(predicted)) => follow!(predicted),
                Err(e) => {
                    // The faulting transfer retired nothing.
                    fuel += 1;
                    break Err(e);
                }
            }
        };
        *budget = fuel;
        let now = self.mark::<BANKS>();
        let retired = budget0 - fuel;
        let fast = retired - interp_ops;
        self.stats.instructions += fast;
        self.stats.cycles += fast * CYCLE_BASE
            + (now.refs - x.mark.refs) * CYCLE_MEMREF
            + (now.divert - x.mark.divert)
            + (now.jumps - x.mark.jumps) * CYCLE_REFILL
            + x.cycles;
        x.batch.flush_into(&mut self.stats, &self.classes);
        self.mem.charge(owed.reads, owed.writes);
        self.mem.charge_refs(owed.charged);
        if let Some(nt) = self.native.as_mut() {
            nt.entries += 1;
            nt.native_instrs += fast;
            nt.interp_ops += interp_ops;
        }
        result
    }

    /// The counters whose changes a burst charges by the linear rule.
    #[inline(always)]
    fn mark<const BANKS: bool>(&self) -> Mark {
        Mark {
            refs: self.refs_total(),
            divert: if BANKS { self.stats.divert_cycles } else { 0 },
            jumps: self.stats.jumps_taken,
        }
    }

    /// A call site inside a burst. A known target under a specialised
    /// discipline takes [`Machine::fast_call`]; anything else, and every
    /// rare case the fast call declines, retires through
    /// [`Machine::cold_call`]. `(cur, ip)` is the compiled op after the
    /// call, where its return resumes.
    #[inline(always)]
    fn native_call<const BANKS: bool, D: Discipline>(
        &mut self,
        site: &Site,
        x: &mut Xfers,
        owed: &mut Owed,
        (cur, ip): (usize, u32),
    ) -> Result<Next, VmError> {
        let back = site.at + site.len as u32;
        self.pc = ByteAddr(back);
        if D::ALLOC.is_none() {
            return self.general_call::<D>(site, x, (cur, ip));
        }
        let known = match (site.instr, &site.target) {
            (Instr::LocalCall(_), Some(t)) if t.cb == self.code_base => Some((t, true)),
            (Instr::DirectCall(_) | Instr::ShortDirectCall(_), Some(t)) => Some((t, false)),
            _ => None,
        };
        if let Some((t, local)) = known {
            let resume = (cur as u64) << 32 | ip as u64;
            if self.fast_call::<BANKS, D>(t, local, resume, x, owed)? {
                if !D::RS {
                    x.predictor.push(cur, ip, back);
                }
                // `site.entry` is the target's first op, at `pc`.
                return Ok(match site.entry {
                    Some((p, i, _)) => Next::At(p, i),
                    None => Next::Chase(None),
                });
            }
        }
        self.cold_call::<D>(site, x, (cur, ip))
    }

    /// A call of the known target `t`: the simulated work of
    /// [`Machine::enter_call`] and nothing else — claim the frame, push
    /// the return entry (or, without a return stack, link the frames in
    /// storage), write the GF word, rename the arguments into a bank,
    /// switch registers — recorded as [`Machine::native_xfer`] would,
    /// its references owed. A `local` call also owes its entry-vector
    /// read, and runs under the caller's global frame. The return entry
    /// carries `resume`. A return-stack eviction and a bank overflow
    /// spill through the same helpers `enter_call` uses, which count
    /// their references at once.
    ///
    /// Returns false, having changed nothing, on any rare case: an
    /// unbound module, a strict-stack violation, or an allocation the
    /// AV list cannot serve at once. The general heap's walk fails only
    /// when the heap is exhausted, which is terminal inside a burst; it
    /// returns the error with the walk owed, as `native_xfer` would
    /// count it.
    #[inline(always)]
    fn fast_call<const BANKS: bool, D: Discipline>(
        &mut self,
        t: &CallTarget,
        local: bool,
        resume: Resume,
        x: &mut Xfers,
        owed: &mut Owed,
    ) -> Result<bool, VmError> {
        let nargs = t.nargs as usize;
        if self.any_unbound || (self.config.strict_stack && self.stack.len() != nargs) {
            return Ok(false);
        }
        let record = FrameRecord {
            fsi: t.fsi,
            addr_taken: t.addr_taken,
            in_use: true,
        };
        let (frame, mut refs) = match (D::ALLOC, &mut self.allocator) {
            (Some(AllocKind::Av), Allocator::Av(h)) => {
                let Some(frame) = h.try_pop(&mut self.mem, t.fsi, record) else {
                    return Ok(false);
                };
                owed.pop();
                (frame, 3)
            }
            (Some(AllocKind::Cached), Allocator::Cached { heap, cache }) => {
                match cache.try_alloc(heap, &mut self.mem, record) {
                    Some((frame, true)) => {
                        owed.pop();
                        (frame, 3)
                    }
                    Some((frame, false)) => (frame, 0),
                    None => return Ok(false),
                }
            }
            (Some(AllocKind::General), Allocator::General(g, table)) => {
                let before = g.charged_refs();
                let got = g.alloc(self.classes.size_of(t.fsi));
                let walk = g.charged_refs() - before;
                owed.charged += walk;
                match got {
                    Ok(frame) => {
                        table.insert(frame, record);
                        (frame, walk)
                    }
                    Err(e) => {
                        if local {
                            owed.charged += 1;
                            self.code.charge_table_reads(1);
                        }
                        return Err(e.into());
                    }
                }
            }
            _ => return Ok(false),
        };
        if local {
            owed.charged += 1;
            self.code.charge_table_reads(1);
            refs += 1;
        }
        let dest_gf = if local { self.gf } else { t.gf };
        let caller_ctx = self.lf_ctx();
        if D::RS {
            let entry = ReturnEntry {
                frame: self.lf,
                gf: self.gf,
                code_base: self.code_base,
                pc: self.pc,
            };
            if let Some(ev) = self.rs.push_with(entry, resume) {
                let n = self.spill_evicted(ev);
                x.mark.refs += n;
                refs += n;
            }
            if !self.defer_headers {
                self.mem
                    .poke(frame.offset(layout::FRAME_GLOBAL), dest_gf.0 as u16);
                owed.writes += 1;
                refs += 1;
            }
        } else {
            let rel = self.rel_pc(self.pc);
            self.mem.poke(self.lf.offset(layout::FRAME_PC), rel);
            self.mem
                .poke(frame.offset(layout::FRAME_RETURN_LINK), caller_ctx.raw());
            self.mem
                .poke(frame.offset(layout::FRAME_GLOBAL), dest_gf.0 as u16);
            owed.writes += 3;
            refs += 3;
        }
        if let (true, Some(b)) = (BANKS, self.banks.as_mut()) {
            // A renaming machine: the arguments appear in place (§7.2).
            let at = self.stack.len().saturating_sub(nargs);
            let n = b.assign(
                &mut self.mem,
                frame,
                t.locals,
                Some(&self.stack[at..]),
                Some(self.lf),
            );
            self.stack.truncate(at);
            x.mark.refs += n;
            refs += n;
        }
        self.return_ctx = caller_ctx;
        self.lf = frame;
        self.gf = dest_gf;
        self.code_base = t.cb;
        self.pc = t.header.offset(layout::PROC_HEADER_BYTES);
        x.record(&mut self.stats.transfers, TransferKind::Call, refs);
        if !x.batch.record_frame(t.fsi) {
            self.stats.frame_bytes.record(t.frame_bytes as u64);
        }
        Ok(true)
    }

    /// A return site inside a burst: [`Machine::fast_return`] under a
    /// specialised discipline, else, and on every rare case it declines,
    /// [`Machine::cold_return`].
    #[inline(always)]
    fn native_return<const BANKS: bool, D: Discipline>(
        &mut self,
        site: &Site,
        x: &mut Xfers,
        owed: &mut Owed,
    ) -> Result<Next, VmError> {
        self.pc = ByteAddr(site.at + site.len as u32);
        if D::ALLOC.is_none() {
            return self.general_return::<D>(site, x);
        }
        if let Some(next) = self.fast_return::<BANKS, D>(x, owed)? {
            return Ok(next);
        }
        self.cold_return::<D>(site, x)
    }

    /// A return, the mirror of [`Machine::fast_call`]: the simulated
    /// work of [`Machine::perform_return`] and nothing else. A
    /// return-stack hit pops the entry, frees the frame, makes the
    /// entry's bank current (loading it if it was spilled) and switches
    /// to the entry, resuming at its resume point; without a return
    /// stack, or on a miss, [`Machine::fast_return_via_link`] returns.
    ///
    /// Returns `None`, having changed nothing, on any rare case: a
    /// frame not in use or with a corrupt size word, or one of
    /// `fast_return_via_link`'s.
    #[inline(always)]
    fn fast_return<const BANKS: bool, D: Discipline>(
        &mut self,
        x: &mut Xfers,
        owed: &mut Owed,
    ) -> Result<Option<Next>, VmError> {
        let top = if D::RS { self.rs.top() } else { None };
        let Some((entry, resume)) = top else {
            return self.fast_return_via_link::<BANKS, D>(x, owed);
        };
        let returning = self.lf;
        let Some(mut refs) = self.free_claimed::<D>(returning, owed) else {
            return Ok(None);
        };
        self.rs.pop_top();
        if let (true, Some(b)) = (BANKS, self.banks.as_mut()) {
            match b.return_banks(returning, entry.frame) {
                Some(pair) => b.take_return(pair, entry.frame),
                None => {
                    b.release(returning);
                    let n = self.fill_bank(entry.frame);
                    x.mark.refs += n;
                    refs += n;
                }
            }
        }
        self.lf = entry.frame;
        self.gf = entry.gf;
        self.code_base = entry.code_base;
        self.pc = entry.pc;
        self.return_ctx = ContextWord::NIL;
        x.record(&mut self.stats.transfers, TransferKind::Return, refs);
        Ok(Some(if resume == NO_RESUME {
            Next::Chase(None)
        } else {
            Next::At((resume >> 32) as u32, resume as u32)
        }))
    }

    /// The general scheme's return inside a burst, as
    /// [`Machine::return_via_link`] performs it: the link in the
    /// returning frame names the caller, the frame is freed and the
    /// caller is entered as [`Machine::enter_frame`] enters it, its
    /// references owed. A return-stack machine counts the miss. The
    /// burst's predictor names the resume point.
    ///
    /// Returns `None`, having changed nothing, on a process exit or a
    /// bad link, an unbound module, or a frame the allocator's fast free
    /// declines. The general heap's free fails only on a frame it does
    /// not hold, which is terminal; as in [`Machine::fast_call`], the
    /// error leaves the walk owed.
    #[inline(always)]
    fn fast_return_via_link<const BANKS: bool, D: Discipline>(
        &mut self,
        x: &mut Xfers,
        owed: &mut Owed,
    ) -> Result<Option<Next>, VmError> {
        let returning = self.lf;
        let link_at = self.wrap(returning.offset(layout::FRAME_RETURN_LINK));
        let link = ContextWord::from_raw(self.mem.peek(link_at));
        let Context::Frame(to) = Context::from(link) else {
            return Ok(None);
        };
        if self.any_unbound {
            return Ok(None);
        }
        let mut refs = if let (Some(AllocKind::General), Allocator::General(g, table)) =
            (D::ALLOC, &mut self.allocator)
        {
            let Some(record) = table.remove(returning) else {
                return Ok(None);
            };
            let before = g.charged_refs();
            let freed = g.free(returning, self.classes.size_of(record.fsi));
            let walk = g.charged_refs() - before;
            owed.charged += walk;
            owed.reads += 1;
            if let Err(e) = freed {
                return Err(e.into());
            }
            walk
        } else {
            let Some(refs) = self.free_claimed::<D>(returning, owed) else {
                return Ok(None);
            };
            owed.reads += 1;
            refs
        };
        if D::RS {
            // Counts the miss.
            self.rs.pop();
        }
        if let (true, Some(b)) = (BANKS, self.banks.as_mut()) {
            b.release(returning);
        }
        self.return_ctx = ContextWord::NIL;
        owed.reads += 3;
        let n = self.switch_frame(to.addr());
        x.mark.refs += n;
        refs += 1 + 3 + n;
        x.record(&mut self.stats.transfers, TransferKind::Return, refs);
        Ok(Some(Next::Chase(if D::RS {
            None
        } else {
            x.predictor.pop()
        })))
    }

    /// Frees `frame`, held by its owner, on the AV heap or through the
    /// frame cache, returning the references spent, which it owes;
    /// `None`, having changed nothing, when the frame is not in use or
    /// the heap would report an error.
    #[inline(always)]
    fn free_claimed<D: Discipline>(&mut self, frame: WordAddr, owed: &mut Owed) -> Option<u64> {
        let to_heap = match (D::ALLOC, &mut self.allocator) {
            (Some(AllocKind::Av), Allocator::Av(h)) => {
                h.try_free_claimed(&mut self.mem, frame).then_some(true)
            }
            (Some(AllocKind::Cached), Allocator::Cached { heap, cache }) => {
                cache.try_free(heap, &mut self.mem, frame)
            }
            _ => None,
        }?;
        if to_heap {
            owed.push();
            return Some(4);
        }
        Some(0)
    }

    /// A call the fast path declined, retired through
    /// [`Machine::general_call`] out of line.
    #[cold]
    #[inline(never)]
    fn cold_call<D: Discipline>(
        &mut self,
        site: &Site,
        x: &mut Xfers,
        at: (usize, u32),
    ) -> Result<Next, VmError> {
        self.general_call::<D>(site, x, at)
    }

    /// A call retired through the general machinery
    /// ([`Machine::call_site`]): the generic instance's every call. Its
    /// return entry, or the predictor, learns its resume point.
    #[inline(always)]
    fn general_call<D: Discipline>(
        &mut self,
        site: &Site,
        x: &mut Xfers,
        (cur, ip): (usize, u32),
    ) -> Result<Next, VmError> {
        let kind = self.native_xfer(site, x, |m, s, b| m.call_site(s, b))?;
        if kind != Some(TransferKind::Call) {
            return Ok(Next::Chase(None));
        }
        if D::RS {
            self.rs.set_top_resume((cur as u64) << 32 | ip as u64);
        } else {
            x.predictor.push(cur, ip, site.at + site.len as u32);
        }
        Ok(Next::Chase(site.entry))
    }

    /// A return the fast path declined, retired through
    /// [`Machine::general_return`] out of line.
    #[cold]
    #[inline(never)]
    fn cold_return<D: Discipline>(&mut self, site: &Site, x: &mut Xfers) -> Result<Next, VmError> {
        self.general_return::<D>(site, x)
    }

    /// A return retired through [`Machine::perform_return`]: the
    /// generic instance's every return. A return-stack hit resumes at
    /// its entry's resume point, read before the pop.
    #[inline(always)]
    fn general_return<D: Discipline>(
        &mut self,
        site: &Site,
        x: &mut Xfers,
    ) -> Result<Next, VmError> {
        let top = if D::RS { self.rs.top() } else { None };
        let kind = self.native_xfer(site, x, |m, _, _| m.perform_return())?;
        let predicted = match kind {
            Some(TransferKind::Return) if D::RS => top
                .filter(|&(_, r)| r != NO_RESUME)
                .map(|(e, r)| ((r >> 32) as u32, r as u32, e.pc.0)),
            Some(TransferKind::Return) => x.predictor.pop(),
            _ => None,
        };
        Ok(Next::Chase(predicted))
    }

    /// Retires a call or return site inside a burst through `retire`
    /// and returns its transfer kind. It charges what
    /// [`Machine::step_one`] would beyond `CYCLE_BASE`, which the burst
    /// charges per op, into the burst's cycles, and advances its mark
    /// past the references it charged; a transfer that fails charges
    /// nothing. A transfer makes no indirect reference, so it diverts
    /// nothing. The tier runs only while no trap or fault handler is
    /// installed, so the handler-attribution block and the
    /// `dispatch_fault` recovery path are provably dead: a fault here
    /// is terminal exactly as `dispatch_fault` would conclude with no
    /// handler present (it returns the error before touching any
    /// state).
    #[inline(always)]
    fn native_xfer(
        &mut self,
        site: &Site,
        x: &mut Xfers,
        retire: impl FnOnce(&mut Self, &Site, &mut TransferBatch) -> Result<Flow, VmError>,
    ) -> Result<Option<TransferKind>, VmError> {
        let r0 = self.refs_total();
        self.pc = ByteAddr(site.at + site.len as u32);
        let flow = retire(self, site, &mut x.batch);
        let refs = self.refs_total() - r0;
        x.mark.refs += refs;
        let mut c = refs * CYCLE_MEMREF;
        let mut kind = None;
        match flow? {
            Flow::Next => {}
            // Charged at exit, like the burst's own jumps.
            Flow::Taken(None) => self.stats.jumps_taken += 1,
            Flow::Taken(Some(k)) => {
                c += CYCLE_REFILL;
                kind = Some(k);
                x.batch
                    .record(&mut self.stats.transfers, k, CYCLE_BASE + c, refs);
            }
            Flow::Halt => self.halted = true,
        }
        x.cycles += c;
        Ok(kind)
    }

    /// A call site through the general machinery. A known target goes
    /// straight to the frame allocation and link, charging what the
    /// table walk would: one entry-vector read for a local call,
    /// nothing for a direct one; its frame size goes into the batch.
    /// Anything else walks the tables as the interpreter does.
    fn call_site(&mut self, site: &Site, batch: &mut TransferBatch) -> Result<Flow, VmError> {
        let (t, local) = match (site.instr, &site.target) {
            (Instr::LocalCall(_), Some(t)) if t.cb == self.code_base => (t, true),
            (Instr::DirectCall(_) | Instr::ShortDirectCall(_), Some(t)) => (t, false),
            (instr, _) => return self.call_via_tables(instr, ByteAddr(site.at)),
        };
        let flow = if local {
            self.charge_table_read();
            self.enter_call(&CallTarget { gf: self.gf, ..*t }, TransferKind::Call, true)?
        } else {
            self.enter_call(t, TransferKind::Call, true)?
        };
        if !batch.record_frame(t.fsi) {
            self.stats.frame_bytes.record(t.frame_bytes as u64);
        }
        Ok(flow)
    }

    /// Retires the machine and returns its simulated memory's backing
    /// store for recycling through [`Machine::load_in`]. Everything
    /// else (code store, caches, stats) is dropped.
    pub fn into_memory_buffer(self) -> fpc_mem::MemoryBuffer {
        self.mem.into_buffer()
    }

    /// Values emitted by `OUT`.
    pub fn output(&self) -> &[u16] {
        &self.output
    }

    /// The charge-free effect journal, when
    /// [`MachineConfig::observe_effects`] is on.
    pub fn observed_effects(&self) -> Option<&ObservedEffects> {
        self.observe.as_deref()
    }

    /// The evaluation stack (e.g. results after the root returns).
    pub fn stack(&self) -> &[u16] {
        &self.stack
    }

    /// Whether the machine has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Run statistics.
    pub fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Return-stack statistics (E5).
    pub fn return_stack_stats(&self) -> ReturnStackStats {
        self.rs.stats()
    }

    /// Bank statistics (E6, E9), if banks are configured.
    pub fn bank_stats(&self) -> Option<BankStats> {
        self.banks.as_ref().map(|b| b.stats())
    }

    /// Free-frame-cache statistics (E8), if the cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match &self.allocator {
            Allocator::Cached { cache, .. } => Some(cache.stats()),
            _ => None,
        }
    }

    /// AV-heap statistics (E3), when the AV allocator is in use.
    pub fn heap_stats(&self) -> Option<&HeapStats> {
        match &self.allocator {
            Allocator::Av(h) | Allocator::Cached { heap: h, .. } => Some(h.stats()),
            Allocator::General(..) => None,
        }
    }

    /// Memory-reference counters.
    pub fn mem_stats(&self) -> fpc_mem::MemStats {
        self.mem.stats()
    }

    /// Total counted references across every source — data memory,
    /// code-table reads, and the general heap's charged walk costs.
    /// This is the unit the [`FaultStats`] `handler_refs` and
    /// `injected_refs` fields are denominated in, so
    /// `total_refs() - handler_refs - injected_refs` is the reference
    /// count of the equivalent fault-free run.
    pub fn total_refs(&self) -> u64 {
        self.refs_total()
    }

    /// Host-side read of a word (uncounted), seeing through banks.
    pub fn peek_word(&self, addr: WordAddr) -> u16 {
        if let Some(b) = &self.banks {
            if let Some((frame, idx)) = b.shadow_hit(addr) {
                if let Some(v) = b.peek_local(frame, idx) {
                    return v;
                }
            }
        }
        self.mem.peek(addr)
    }

    /// Every counted reference so far. Code-table reads and the
    /// general heap's modelled walks are charged into the memory's
    /// count as they happen, so this is one counter and a transfer's
    /// references are one difference.
    #[inline(always)]
    fn refs_total(&self) -> u64 {
        self.mem.refs()
    }

    /// A counted read of a code-table word (an entry-vector slot).
    #[inline]
    fn read_table(&mut self, slot: ByteAddr) -> u16 {
        self.mem.charge_refs(1);
        self.code.read_table(slot)
    }

    /// Charges the table read of a walk whose result is already known.
    #[inline]
    fn charge_table_read(&mut self) {
        self.mem.charge_refs(1);
        self.code.charge_table_reads(1);
    }

    /// Moves a module's code segment to freshly allocated space in the
    /// code store and returns the new base — the paper's §5 point T2
    /// made live: "the global frame permits the code segment to be
    /// moved. This … allows a simple and efficient implementation of
    /// code swapping and relocation."
    ///
    /// Works because every durable PC in the system is **relative** to
    /// the code base: saved frame PCs, entry-vector slots and return
    /// links all survive unchanged; only the global frame's code-base
    /// word, the header copies of it, and the machine's own registers
    /// are rebased. The accelerators hold absolute PCs, so the orderly
    /// fallback flushes them first.
    ///
    /// Direct-call sites burned into *other* modules keep their old
    /// absolute addresses — the paper's D3 trade-off: early binding
    /// gives up exactly this freedom. Only Mesa-linkage images should
    /// be relocated.
    ///
    /// # Errors
    ///
    /// [`VmError::BadImage`] if the module index is out of range.
    pub fn relocate_module(&mut self, module: usize) -> Result<ByteAddr, VmError> {
        let Some(info) = self.modules.get(module).cloned() else {
            return Err(VmError::BadImage(format!("no module {module}")));
        };
        // Flush the absolute-PC caches (return stack, banks).
        self.fallback_flush();
        // Copy the segment to the end of the store, word-aligned.
        if !self.code.len().is_multiple_of(2) {
            self.code.append(&[0]);
        }
        let old = info.code_base;
        let seg: Vec<u8> = (0..info.code_len)
            .map(|i| self.code.peek(old.offset(i)))
            .collect();
        let new_base = self.code.append(&seg);
        let new_cb = layout::code_base_word(new_base);
        // Patch each procedure header's code-base field in the copy.
        for p in 0..info.nprocs {
            let ev = self.code.peek_u16(layout::ev_slot(new_base, p));
            let hdr = new_base.offset(ev as u32);
            self.code
                .poke(hdr.offset(layout::HDR_CODE_BASE), new_cb as u8);
            self.code
                .poke(hdr.offset(layout::HDR_CODE_BASE + 1), (new_cb >> 8) as u8);
        }
        // One architectural store moves the whole module: the global
        // frame's code-base word.
        self.mem.write(info.gf.offset(layout::GF_CODE_BASE), new_cb);
        // Rebase the running registers if control is inside the module.
        if self.code_base == old {
            let rel = self.pc.0 - old.0;
            self.code_base = new_base;
            self.pc = new_base.offset(rel);
        }
        self.modules[module].code_base = new_base;
        // The appends and pokes above bumped the store's version, so
        // the predecode cache is already invalid; walk the relocated
        // segment now rather than on first execution.
        self.refresh_predecode();
        // The relocated segment was never seen by the verifier.
        self.native_deopt();
        Ok(new_base)
    }

    /// Replaces a procedure's implementation at run time — the entry
    /// vector's freedom from §5 T2: "EV permits a procedure to be
    /// moved in the code segment. This allows a procedure to be
    /// dynamically replaced by another of a different size, without
    /// any loss of efficient packing."
    ///
    /// The new body (with `nargs` arguments and `nlocals` locals) is
    /// placed in fresh code space; one entry-vector store redirects
    /// all future calls, packed descriptors and link vectors included.
    /// Activations already running the old body finish on it — their
    /// saved PCs still resolve against the unchanged code base.
    ///
    /// # Errors
    ///
    /// [`VmError::BadImage`] if the reference is invalid, the new body
    /// lands beyond the entry vector's 16-bit reach, or the frame
    /// exceeds the size ladder; assembler errors likewise.
    pub fn replace_proc(
        &mut self,
        module: usize,
        ev_index: u16,
        nargs: u8,
        nlocals: u32,
        build: impl FnOnce(&mut fpc_isa::Assembler),
    ) -> Result<ByteAddr, VmError> {
        let Some(info) = self.modules.get(module).cloned() else {
            return Err(VmError::BadImage(format!("no module {module}")));
        };
        if ev_index >= info.nprocs {
            return Err(VmError::BadImage(format!("no entry {ev_index}")));
        }
        let mut asm = fpc_isa::Assembler::new();
        build(&mut asm);
        let body = asm
            .assemble()
            .map_err(|e| VmError::BadImage(e.to_string()))?
            .bytes;
        let frame_words = layout::FRAME_HEADER_WORDS + nlocals;
        let fsi = self
            .classes
            .fsi_for(frame_words)
            .ok_or_else(|| VmError::BadImage("replacement frame too large".into()))?;
        renaming_fits(&self.config, &self.classes, fsi, nargs)?;
        if !self.code.len().is_multiple_of(2) {
            self.code.append(&[0]);
        }
        let cb = layout::code_base_word(info.code_base);
        let mut blob = vec![
            fsi,
            layout::pack_flags(nargs, false),
            (info.gf.0 as u16) as u8,
            ((info.gf.0 as u16) >> 8) as u8,
            cb as u8,
            (cb >> 8) as u8,
        ];
        blob.extend_from_slice(&body);
        let hdr = self.code.append(&blob);
        let rel = hdr.0 - info.code_base.0;
        let rel = u16::try_from(rel)
            .map_err(|_| VmError::BadImage("replacement beyond the entry vector's reach".into()))?;
        // The single redirecting store: the entry-vector slot.
        let slot = layout::ev_slot(info.code_base, ev_index);
        self.code.poke(slot, rel as u8);
        self.code.poke(slot.offset(1), (rel >> 8) as u8);
        // Version bumped; retranslate so the new body (found through
        // the redirected entry-vector slot) is predecoded up front.
        self.refresh_predecode();
        // The replacement body carries no certificate.
        self.native_deopt();
        Ok(hdr)
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; the machine should be considered stopped after
    /// an error.
    pub fn step(&mut self) -> Result<StepOutcome, VmError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let instr_start = self.pc;
        let (instr, len) = match self.predecode.as_mut() {
            Some(cache) => cache.lookup(&self.code, instr_start.0)?,
            None => decode(self.code.bytes(), instr_start.0 as usize)?,
        };
        self.step_one(instr, len as u8, instr_start)
    }

    /// Executes one instruction and commits its cost — the classic
    /// step body (decoding is uncounted, so snapshotting the counters
    /// after fetch is identical to before).
    #[inline]
    fn step_one(
        &mut self,
        instr: Instr,
        len: u8,
        instr_start: ByteAddr,
    ) -> Result<StepOutcome, VmError> {
        let refs0 = self.refs_total();
        let divert0 = self.stats.divert_cycles;
        let in_handler = self.fault_depth > 0;
        self.pc = instr_start.offset(len as u32);
        let (flow, faulted) = match self.execute(instr, instr_start) {
            Ok(f) => (f, false),
            // A recoverable fault: the restartability invariant means
            // no architectural state was committed, so dispatching the
            // handler with the PC rewound to `instr_start` makes the
            // eventual retry indistinguishable from a first execution.
            Err(e) => (self.dispatch_fault(e, instr_start)?, true),
        };
        let refs = self.refs_total() - refs0;
        let divert = self.stats.divert_cycles - divert0;
        let mut cycles = CYCLE_BASE + refs * CYCLE_MEMREF + divert;
        let mut kind = None;
        let mut jumped = false;
        match flow {
            Flow::Next => {}
            Flow::Taken(k) => {
                cycles += CYCLE_REFILL;
                kind = k;
                if k.is_none() {
                    self.stats.jumps_taken += 1;
                    jumped = true;
                }
            }
            Flow::Halt => self.halted = true,
        }
        self.stats.cycles += cycles;
        self.stats.instructions += 1;
        if let Some(k) = kind {
            self.stats.transfers.record(k, cycles, refs);
        }
        if in_handler || faulted {
            self.fstats.handler_cycles += cycles;
            self.fstats.handler_refs += refs;
            self.fstats.handler_instructions += 1;
            self.fstats.handler_jumps += jumped as u64;
        }
        Ok(StepOutcome::Ran)
    }

    /// Maps a recoverable error to its [`FaultKind`] when a handler
    /// could run for it; `None` means the error is terminal.
    fn fault_kind_of(&self, e: &VmError) -> Option<FaultKind> {
        match e {
            VmError::Frame(FrameError::OutOfMemory) => Some(FaultKind::FrameFault),
            VmError::UnboundCode { .. } => Some(FaultKind::UnboundProcedure),
            VmError::RemoteFailure { .. } => Some(FaultKind::RemoteFault),
            // Overflow past an already-unlocked reserve cannot be
            // cured by dispatching again: stay terminal.
            VmError::UnhandledTrap(TrapCode::StackOverflow) if !self.stack_relaxed => {
                Some(FaultKind::StackOverflow)
            }
            _ => None,
        }
    }

    /// Attempts to recover from `e` by transferring to the installed
    /// fault handler, with the PC rewound to `restart` so the faulting
    /// instruction re-executes when the handler returns. Returns the
    /// dispatch transfer's flow, or the (possibly escalated) error when
    /// recovery is impossible: no handler, a second fault inside the
    /// dispatch window ([`VmError::DoubleFault`]), or handlers nested
    /// past the configured bound ([`VmError::FaultDepthExceeded`]).
    fn dispatch_fault(&mut self, e: VmError, restart: ByteAddr) -> Result<Flow, VmError> {
        let Some(kind) = self.fault_kind_of(&e) else {
            return Err(e);
        };
        let Some(handler) = self.fault_handlers[kind.index()] else {
            return Err(e);
        };
        if let Some(first) = self.dispatching_fault {
            return Err(VmError::DoubleFault {
                first,
                second: kind,
            });
        }
        if self.fault_depth >= self.config.max_fault_depth {
            return Err(VmError::FaultDepthExceeded {
                kind,
                limit: self.config.max_fault_depth,
            });
        }
        let Context::Proc(p) = Context::from(handler) else {
            return Err(VmError::InvalidContext(handler.raw()));
        };
        self.fstats.raised[kind.index()] += 1;
        self.pc = restart;
        self.dispatching_fault = Some(kind);
        self.fault_depth += 1;
        if kind == FaultKind::StackOverflow {
            self.stack_relaxed = true;
        }
        // The handler's own frame may borrow from the reserve — only
        // during dispatch, so the handler cannot recursively
        // frame-fault on its own activation record.
        self.set_emergency(true);
        // The fault code is the handler's argument; the raw push rides
        // the emergency stack headroom unlocked by `fault_depth`.
        self.stack.push(kind.code());
        let dispatched = match self.resolve_proc_desc(p) {
            Ok((header, gf, cb)) => self.perform_call(header, gf, cb, TransferKind::Trap, false),
            Err(e2) => Err(e2),
        };
        self.set_emergency(false);
        self.dispatching_fault = None;
        match dispatched {
            Ok(flow) => {
                self.handler_frames.push(self.lf);
                Ok(flow)
            }
            Err(e2) => {
                self.fault_depth -= 1;
                self.stack.pop();
                match self.fault_kind_of(&e2) {
                    Some(second) => Err(VmError::DoubleFault {
                        first: kind,
                        second,
                    }),
                    None => Err(e2),
                }
            }
        }
    }

    /// Switches the allocator's emergency mode (reserve borrowing).
    fn set_emergency(&mut self, on: bool) {
        match &mut self.allocator {
            Allocator::General(g, _) => g.set_emergency(on),
            Allocator::Av(h) | Allocator::Cached { heap: h, .. } => h.set_emergency(on),
        }
    }

    /// The evaluation-stack depth limit in force. The configured
    /// reserve unlocks while a fault handler runs (headroom above the
    /// depth that just overflowed) and stays unlocked once a
    /// stack-overflow fault has been dispatched — the "grown" stack
    /// the handler's return restarts into.
    #[inline]
    fn stack_limit(&self) -> usize {
        if self.stack_relaxed || self.fault_depth > 0 {
            self.config.stack_depth + self.config.stack_reserve
        } else {
            self.config.stack_depth
        }
    }

    #[inline(always)]
    fn push(&mut self, v: u16) -> Result<(), VmError> {
        if self.stack.len() >= self.stack_limit() {
            // Without a StackOverflow fault handler this is fatal
            // rather than a catchable trap: the compiler bounds
            // expression depth statically, so hitting it means
            // miscompiled code. With a handler installed the step loop
            // converts it into a restartable fault.
            return Err(VmError::UnhandledTrap(TrapCode::StackOverflow));
        }
        self.stack.push(v);
        Ok(())
    }

    #[inline(always)]
    fn pop(&mut self) -> Result<u16, VmError> {
        self.stack.pop().ok_or(VmError::StackUnderflow)
    }

    /// A local: a bank register when the frame's bank shadows it, else
    /// one counted reference. `BANKS` is as for [`Machine::straight`].
    #[inline(always)]
    fn read_local<const BANKS: bool>(&mut self, idx: u32) -> u16 {
        if let (true, Some(b)) = (BANKS, self.banks.as_mut()) {
            if let Some(v) = b.read_local(self.lf, idx) {
                return v;
            }
        }
        self.mem.read(self.wrap(layout::local_slot(self.lf, idx)))
    }

    #[inline(always)]
    fn write_local<const BANKS: bool>(&mut self, idx: u32, v: u16) {
        if let (true, Some(b)) = (BANKS, self.banks.as_mut()) {
            if b.write_local(self.lf, idx, v) {
                return;
            }
        }
        self.mem
            .write(self.wrap(layout::local_slot(self.lf, idx)), v);
    }

    /// A reference through a pointer: diverted to a bank register (one
    /// divert cycle, no counted reference) when a bank shadows `addr`,
    /// else one counted reference.
    ///
    /// The guest pointer is first masked into the address space
    /// ([`Machine::wrap`]), as every other guest-derived address is.
    #[inline(always)]
    fn read_indirect<const BANKS: bool>(&mut self, addr: WordAddr) -> u16 {
        let addr = self.wrap(addr);
        if let (true, Some(b)) = (BANKS, self.banks.as_mut()) {
            if let Some((frame, idx)) = b.shadow_hit(addr) {
                self.stats.divert_cycles += 1;
                return b.divert_read(frame, idx);
            }
        }
        self.mem.read(addr)
    }

    #[inline(always)]
    fn write_indirect<const BANKS: bool>(&mut self, addr: WordAddr, v: u16) {
        let addr = self.wrap(addr);
        if let (true, Some(b)) = (BANKS, self.banks.as_mut()) {
            if let Some((frame, idx)) = b.shadow_hit(addr) {
                self.stats.divert_cycles += 1;
                b.divert_write(frame, idx, v);
                return;
            }
        }
        self.mem.write(addr, v);
    }

    #[inline]
    fn global_addr(&self, idx: u32) -> WordAddr {
        self.wrap(self.gf.offset(layout::GF_GLOBALS + idx))
    }

    /// Journals an effect when observation is on. Charge-free: the
    /// closure only touches the journal, never simulated state.
    #[inline(always)]
    fn obs(&mut self, f: impl FnOnce(&mut ObservedEffects)) {
        if let Some(o) = self.observe.as_mut() {
            f(o);
        }
    }

    /// Journals a global-frame access against the executing code
    /// segment (resolved from the live `gf`, so instances record
    /// against their owner's code — the static summary's domain).
    #[inline(always)]
    fn obs_global(&mut self, slot: u32, write: bool) {
        if self.observe.is_some() {
            self.journal_global(slot, write);
        }
    }

    fn journal_global(&mut self, slot: u32, write: bool) {
        let seg = self
            .modules
            .iter()
            .position(|m| m.gf == self.gf)
            .map(|i| self.modules[i].code_seg)
            .unwrap_or(usize::MAX);
        let o = self.observe.as_mut().expect("checked above");
        if write {
            o.global_write(seg, slot);
        } else {
            o.global_read(seg, slot);
        }
    }

    fn lf_ctx(&self) -> ContextWord {
        ContextWord::from(Context::Frame(
            FrameHandle::from_addr(self.lf).expect("live frames are aligned and non-nil"),
        ))
    }

    fn rel_pc(&self, pc: ByteAddr) -> u16 {
        (pc.0 - self.code_base.0) as u16
    }

    /// Reads a procedure header's fsi and flags bytes. Header bytes are
    /// part of the instruction stream and prefetched by the IFU, so
    /// they cost no cycles (uncounted).
    fn read_header(&self, header: ByteAddr) -> (u8, u8) {
        (
            self.code.peek(header.offset(layout::HDR_FSI)),
            self.code.peek(header.offset(layout::HDR_FLAGS)),
        )
    }

    fn read_header_gf_cb(&self, header: ByteAddr) -> (WordAddr, ByteAddr) {
        let gf = self.code.peek_u16(header.offset(layout::HDR_GF));
        let cb = self.code.peek_u16(header.offset(layout::HDR_CODE_BASE));
        (WordAddr(gf as u32), layout::code_base_bytes(cb))
    }

    /// Resolves a packed procedure descriptor through the tables:
    /// GFT → global frame (code base) → entry vector. (The LV read, if
    /// any, happened at the call site.) Returns header, GF, code base.
    /// Registers a link-vector entry as a remote procedure descriptor:
    /// `EFC k` from the owning module becomes a cross-machine `XFER`.
    /// Called automatically at load for `image.remote_imports`.
    pub fn register_remote_link(&mut self, import: &crate::image::RemoteImport) {
        self.remote_links.push(RemoteLink {
            module: import.module,
            lv_index: import.lv_index,
            node: import.node,
            name: import.name.clone(),
            nargs: import.nargs,
            nret: import.nret,
            idempotence: import.idempotence,
        });
        // The native tier compiles EFC sites into direct threaded
        // calls that would bypass the remote intercept: disarm it. The
        // verify certificate itself is unaffected — remote descriptors
        // are modelled by their arity-matched stubs.
        self.native_deopt();
    }

    /// Rebinds the remote descriptor `(module, lv_index)` to `node`
    /// (failover to a replica). Returns whether a descriptor matched.
    pub fn rebind_remote_link(&mut self, module: usize, lv_index: u8, node: u16) -> bool {
        match self
            .remote_links
            .iter_mut()
            .find(|l| l.module == module && l.lv_index == lv_index)
        {
            Some(l) => {
                l.node = node;
                true
            }
            None => false,
        }
    }

    /// Whether the machine is parked on an in-flight remote call.
    pub fn remote_blocked(&self) -> bool {
        matches!(
            self.remote_op,
            Some(RemoteOp {
                state: RemoteOpState::Issued,
                ..
            })
        )
    }

    /// The in-flight remote request, when parked on one. The argument
    /// record is *copied* off the stack top — marshalling must not
    /// disturb the restartable call instruction's operands.
    pub fn remote_request(&self) -> Option<RemoteRequest> {
        let op = self.remote_op.as_ref()?;
        if !matches!(op.state, RemoteOpState::Issued) {
            return None;
        }
        let l = &self.remote_links[op.link];
        let n = l.nargs as usize;
        debug_assert!(self.stack.len() >= n, "strict discipline: args on top");
        let start = self.stack.len().saturating_sub(n);
        Some(RemoteRequest {
            module: l.module,
            lv_index: l.lv_index,
            node: l.node,
            name: l.name.clone(),
            args: self.stack[start..].to_vec(),
            nret: l.nret,
            idempotence: l.idempotence,
        })
    }

    /// Delivers the reply for the in-flight remote call; the next step
    /// restarts the parked call instruction, which pops the arguments,
    /// pushes `results`, and charges the marshal cost.
    pub fn complete_remote(&mut self, results: Vec<u16>) {
        if let Some(op) = self.remote_op.as_mut() {
            op.state = RemoteOpState::Completed(results);
        }
    }

    /// Fails the in-flight remote call; the next step restarts the
    /// parked call instruction, which raises a restartable
    /// [`FaultKind::RemoteFault`] of the given class.
    pub fn fail_remote(&mut self, class: RemoteFaultClass) {
        if let Some(op) = self.remote_op.as_mut() {
            op.state = RemoteOpState::Failed(class);
        }
    }

    /// Drains the `FAILOVER` info words queued by the guest
    /// (`lv_index << 4 | failure class` each).
    pub fn take_failover_requests(&mut self) -> Vec<u16> {
        std::mem::take(&mut self.failover_requests)
    }

    /// Finds the remote-link registration covering `EFC k` from the
    /// current environment, if any. Keyed on the executing global
    /// frame, so module *instances* sharing an owner's code are not
    /// intercepted (remote descriptors live in owner modules).
    fn remote_link_at(&self, k: u8) -> Option<usize> {
        if self.remote_links.is_empty() {
            return None; // the common case: zero cost
        }
        let module = self.modules.iter().position(|m| m.gf == self.gf)?;
        self.remote_links
            .iter()
            .position(|l| l.module == module && l.lv_index == k)
    }

    /// The cross-machine `XFER`: runs *instead of* the local `EFC`
    /// table walk, before any counted memory reference, so a parked
    /// attempt commits nothing at all.
    ///
    /// First execution issues the request, rewinds the PC onto the
    /// call instruction, and parks the machine with
    /// [`VmError::RemoteBlocked`] — the arguments stay on the
    /// evaluation stack as the marshal source. The host completes or
    /// fails the operation; stepping again restarts the instruction,
    /// which either commits the round trip (pop arguments, push
    /// results, charge one data reference per marshalled word, record
    /// a [`TransferKind::Remote`]) or raises a restartable
    /// [`FaultKind::RemoteFault`].
    fn remote_xfer(&mut self, link: usize, instr_start: ByteAddr) -> Result<Flow, VmError> {
        self.obs(|o| o.called_remote = true);
        match self.remote_op.take() {
            None => {
                self.remote_op = Some(RemoteOp {
                    link,
                    state: RemoteOpState::Issued,
                });
                self.pc = instr_start;
                Err(VmError::RemoteBlocked)
            }
            Some(op) => {
                debug_assert_eq!(op.link, link, "resumed at a different call site");
                match op.state {
                    RemoteOpState::Issued => {
                        // Re-stepped without a completion: stay parked.
                        self.remote_op = Some(op);
                        self.pc = instr_start;
                        Err(VmError::RemoteBlocked)
                    }
                    RemoteOpState::Completed(results) => {
                        let l = &self.remote_links[link];
                        let (nargs, nret) = (l.nargs, l.nret);
                        debug_assert_eq!(results.len(), nret as usize, "reply arity");
                        self.stack
                            .truncate(self.stack.len().saturating_sub(nargs as usize));
                        self.stack.extend_from_slice(&results);
                        // The marshal cost: one data reference per
                        // argument packed off the stack and per result
                        // unpacked onto it — charged exactly once per
                        // successful call, never for parked attempts.
                        self.mem.charge(nargs as u64 + nret as u64, 0);
                        Ok(Flow::Taken(Some(TransferKind::Remote)))
                    }
                    RemoteOpState::Failed(class) => {
                        let l = &self.remote_links[link];
                        self.last_remote_fault = ((l.lv_index as u16) << 4) | class.code();
                        Err(VmError::RemoteFailure { class })
                    }
                }
            }
        }
    }

    fn resolve_proc_desc(
        &mut self,
        p: ProcDesc,
    ) -> Result<(ByteAddr, WordAddr, ByteAddr), VmError> {
        let raw = self
            .mem
            .read(self.wrap(GFT_BASE.offset(p.env().get() as u32)));
        let entry = GftEntry::from_raw(raw);
        let gf = entry.global_frame();
        let cb_word = self.mem.read(self.wrap(gf.offset(layout::GF_CODE_BASE)));
        let base = layout::code_base_bytes(cb_word);
        let eff = entry.effective_ev_index(p.code().get());
        let slot = layout::ev_slot(base, eff);
        self.check_ev_slot(slot)?;
        let rel = self.read_table(slot);
        let header = base.offset(rel as u32);
        self.check_header(header)?;
        Ok((header, gf, base))
    }

    /// The four call linkages resolved through the tables: every
    /// interpreted call, and every native call whose target was not
    /// fixed at compile time (remote link-vector entries disarm the
    /// native tier, so bursts need no remote intercept).
    fn call_via_tables(&mut self, instr: Instr, instr_start: ByteAddr) -> Result<Flow, VmError> {
        let (header, local) = match instr {
            Instr::ExternalCall(k) => {
                // One reference into the link vector…
                let w = ContextWord::from_raw(
                    self.mem.read(self.wrap(layout::lv_slot(self.gf, k as u32))),
                );
                return match Context::from(w) {
                    Context::Proc(p) => {
                        // …then GFT, global frame, entry vector.
                        let (header, dest_gf, dest_cb) = self.resolve_proc_desc(p)?;
                        self.perform_call(header, dest_gf, dest_cb, TransferKind::Call, true)
                    }
                    // A frame bound into the link vector: the
                    // destination decides the discipline (F3).
                    Context::Frame(_) => self.perform_xfer(w),
                    Context::Nil => Err(VmError::XferToNil),
                };
            }
            Instr::LocalCall(k) => {
                // Same module: same environment and code base, one
                // level of indirection (the entry vector).
                let slot = layout::ev_slot(self.code_base, k as u16);
                self.check_ev_slot(slot)?;
                let rel = self.read_table(slot);
                (self.code_base.offset(rel as u32), true)
            }
            Instr::DirectCall(addr) => (ByteAddr(addr), false),
            Instr::ShortDirectCall(d) => (instr_start.displace(d), false),
            _ => return self.execute(instr, instr_start),
        };
        self.check_header(header)?;
        let (gf, cb) = if local {
            (self.gf, self.code_base)
        } else {
            self.read_header_gf_cb(header)
        };
        self.perform_call(header, gf, cb, TransferKind::Call, true)
    }

    /// The per-frame records: the AV heap's own table, or the one kept
    /// beside the general heap.
    #[inline(always)]
    fn frames(&mut self) -> &mut FrameTable {
        match &mut self.allocator {
            Allocator::General(_, t) => t,
            Allocator::Av(h) | Allocator::Cached { heap: h, .. } => h.frames_mut(),
        }
    }

    /// Words in `frame`'s locals region, sized by the class its
    /// procedure asked for: the extra words of a larger cached frame
    /// are never referenced, so bank shadowing ignores them.
    fn locals_of(&mut self, frame: WordAddr) -> u32 {
        let fsi = self.frames().get(frame).map(|r| r.fsi);
        fsi.map_or(0, |f| self.classes.size_of(f) - layout::FRAME_HEADER_WORDS)
    }

    /// Allocates a frame of class `fsi` and records it in use, writing
    /// its one record as it is popped. Callers record its size in
    /// `frame_bytes` once the whole transfer has succeeded, so a
    /// frame-faulted attempt leaves every observable untouched and the
    /// handler-driven retry is indistinguishable from a first try.
    #[inline(always)]
    fn alloc_frame(&mut self, fsi: u8, addr_taken: bool) -> Result<WordAddr, VmError> {
        let record = FrameRecord {
            fsi,
            addr_taken,
            in_use: true,
        };
        Ok(match &mut self.allocator {
            Allocator::General(g, t) => {
                let words = self.classes.size_of(fsi);
                let frame = general(g, &mut self.mem, |g| g.alloc(words))?;
                t.insert(frame, record);
                frame
            }
            Allocator::Av(h) => h.alloc_record(&mut self.mem, fsi, record)?,
            Allocator::Cached { heap, cache } => cache.alloc_record(heap, &mut self.mem, record)?,
        })
    }

    /// Records one allocation of class `fsi` in the `frame_bytes`
    /// histogram.
    #[inline]
    fn record_frame_bytes(&mut self, fsi: u8) {
        let bytes = self.classes.size_of(fsi) as u64 * 2;
        self.stats.frame_bytes.record(bytes);
    }

    /// Frees a frame in use. A frame that is not (never allocated,
    /// already freed, or held in the frame cache) is an invalid free.
    /// The record is looked up once: the AV heap frees the frame
    /// without checking it again.
    #[inline(always)]
    fn free_frame(&mut self, frame: WordAddr) -> Result<(), VmError> {
        // The AV heap drops the record itself, once the frame's size
        // word has been read back.
        let fsi = match &mut self.allocator {
            Allocator::General(_, t) => t.remove(frame).map(|r| r.fsi),
            Allocator::Av(h) => h
                .frames_mut()
                .get(frame)
                .filter(|r| r.in_use)
                .map(|r| r.fsi),
            Allocator::Cached { heap, .. } => heap.frames_mut().release(frame),
        };
        let Some(fsi) = fsi else {
            return Err(VmError::Frame(FrameError::InvalidFrame(frame)));
        };
        if let Some(b) = self.banks.as_mut() {
            b.release(frame);
        }
        match &mut self.allocator {
            Allocator::General(g, _) => {
                let words = self.classes.size_of(fsi);
                general(g, &mut self.mem, |g| g.free(frame, words))?
            }
            Allocator::Av(h) => h.free_live(&mut self.mem, frame)?,
            Allocator::Cached { heap, cache } => cache.free(heap, &mut self.mem, frame, fsi)?,
        }
        // A fault handler's frame going away is its completion: the
        // nesting depth drops and the recovery is counted.
        if let Some(pos) = self.handler_frames.iter().rposition(|&f| f == frame) {
            self.handler_frames.remove(pos);
            self.fault_depth = self.fault_depth.saturating_sub(1);
            self.fstats.recovered += 1;
        }
        // Re-arm stack-overflow faulting once the handlers have wound
        // down and the stack is back inside its normal bound.
        // Strictly below: at the handler's return the stack still holds
        // exactly the full depth that overflowed, and the retried push
        // needs the reserve to land.
        if self.stack_relaxed && self.fault_depth == 0 && self.stack.len() < self.config.stack_depth
        {
            self.stack_relaxed = false;
        }
        Ok(())
    }

    /// Whether `base` is the code base of an unbound module. Returns at
    /// once while every module is bound.
    #[inline(always)]
    fn check_bound(&self, base: ByteAddr) -> Result<(), VmError> {
        if self.any_unbound {
            return self.check_unbound(base);
        }
        Ok(())
    }

    #[cold]
    fn check_unbound(&self, base: ByteAddr) -> Result<(), VmError> {
        if let Some(i) = self.modules.iter().position(|m| m.code_base == base) {
            if self.unbound[i] {
                return Err(VmError::UnboundCode { module: i });
            }
        }
        Ok(())
    }

    /// Checks — with uncounted peeks, before anything is committed —
    /// that a suspended frame's module is bound, so transfers into it
    /// can fault while they are still restartable. Garbage frame words
    /// are masked into the address space; they then fail later on the
    /// ordinary typed-error paths.
    #[inline(always)]
    fn check_frame_bound(&self, frame: WordAddr) -> Result<(), VmError> {
        if !self.any_unbound {
            return Ok(());
        }
        let gf = self.mem.peek(self.wrap(frame.offset(layout::FRAME_GLOBAL))) as u32;
        let cb_word = self
            .mem
            .peek(self.wrap(WordAddr(gf).offset(layout::GF_CODE_BASE)));
        self.check_unbound(layout::code_base_bytes(cb_word))
    }

    /// Masks a guest-derived word address into the address space:
    /// scribbled frame words and table entries yield wrong-but-typed
    /// behaviour (and eventually a typed error) instead of a host
    /// panic. Identity for every address a well-formed image produces.
    /// On a power-of-two memory a mask gives the same address as the
    /// modulo without a host divide.
    #[inline(always)]
    fn wrap(&self, a: WordAddr) -> WordAddr {
        WordAddr(if self.wrap_mask != 0 {
            a.0 & self.wrap_mask
        } else {
            a.0 % self.mem.size()
        })
    }

    /// Bounds-checks a procedure header derived from guest-reachable
    /// table words before its bytes are peeked.
    fn check_header(&self, header: ByteAddr) -> Result<(), VmError> {
        match header.0.checked_add(layout::PROC_HEADER_BYTES) {
            Some(end) if end <= self.code.len() => Ok(()),
            _ => Err(VmError::BadImage(format!(
                "procedure header at {:#x} outside code",
                header.0
            ))),
        }
    }

    /// Bounds-checks an entry-vector slot before it is read.
    fn check_ev_slot(&self, slot: ByteAddr) -> Result<(), VmError> {
        match slot.0.checked_add(2) {
            Some(end) if end <= self.code.len() => Ok(()),
            _ => Err(VmError::BadImage(format!(
                "entry-vector slot at {:#x} outside code",
                slot.0
            ))),
        }
    }

    /// The orderly fallback: flush banks and the return stack so every
    /// suspended frame's PC, return link and (when deferred) global
    /// frame are valid in storage. The links are written as the entries
    /// drain, newest first, without a host allocation.
    fn fallback_flush(&mut self) {
        if let Some(b) = self.banks.as_mut() {
            b.flush_all(&mut self.mem);
        }
        let mut cur = self.lf;
        for e in self.rs.flush() {
            Self::spill_entry(&mut self.mem, self.defer_headers, cur, e);
            cur = e.frame;
        }
        if self.defer_headers {
            // Materialise the current frame's header too: whoever
            // re-enters it later goes through storage.
            self.mem
                .write(self.lf.offset(layout::FRAME_GLOBAL), self.gf.0 as u16);
        }
    }

    /// Writes a return-stack entry back to storage: the caller's PC
    /// (and, when deferred, global frame) into its frame, and the
    /// caller as its callee's return link. Returns the words written.
    fn spill_entry(mem: &mut Memory, defer_headers: bool, callee: WordAddr, e: ReturnEntry) -> u64 {
        let link = ContextWord::from(Context::Frame(
            FrameHandle::from_addr(e.frame).expect("stacked frames are valid"),
        ));
        mem.write(callee.offset(layout::FRAME_RETURN_LINK), link.raw());
        mem.write(
            e.frame.offset(layout::FRAME_PC),
            (e.pc.0 - e.code_base.0) as u16,
        );
        if defer_headers {
            mem.write(e.frame.offset(layout::FRAME_GLOBAL), e.gf.0 as u16);
        }
        2 + defer_headers as u64
    }

    /// A call evicted the return stack's oldest entry: its callee is the
    /// new bottom entry's frame.
    #[cold]
    fn spill_evicted(&mut self, ev: ReturnEntry) -> u64 {
        let callee = self.rs.bottom_frame().expect("stack non-empty after push");
        Self::spill_entry(&mut self.mem, self.defer_headers, callee, ev)
    }

    /// Enters an existing suspended frame: the general scheme's three
    /// reads (PC, GF, code base), plus a bank activation.
    #[inline(always)]
    fn enter_frame(&mut self, frame: WordAddr) -> Result<(), VmError> {
        // Backstop: callers precheck boundness before committing state,
        // so this only fires on paths that have committed nothing yet.
        self.check_frame_bound(frame)?;
        // Three reads, counted as one group.
        self.mem.charge(3, 0);
        self.switch_frame(frame);
        Ok(())
    }

    /// The registers of [`Machine::enter_frame`], read from `frame`'s
    /// words without counting them, and its bank activation. Returns
    /// the references a bank fill made.
    #[inline(always)]
    fn switch_frame(&mut self, frame: WordAddr) -> u64 {
        let pc_rel = self.mem.peek(self.wrap(frame.offset(layout::FRAME_PC)));
        let gf = WordAddr(self.mem.peek(self.wrap(frame.offset(layout::FRAME_GLOBAL))) as u32);
        let cb_word = self.mem.peek(self.wrap(gf.offset(layout::GF_CODE_BASE)));
        let base = layout::code_base_bytes(cb_word);
        self.lf = frame;
        self.gf = gf;
        self.code_base = base;
        self.pc = base.offset(pc_rel as u32);
        self.activate_bank(frame)
    }

    /// Makes `frame`'s bank current, filling one from storage when the
    /// frame has none. Returns the references the fill made.
    #[inline(always)]
    fn activate_bank(&mut self, frame: WordAddr) -> u64 {
        if self.banks.as_mut().is_some_and(|b| !b.touch(frame)) {
            return self.fill_bank(frame);
        }
        0
    }

    /// Underflow: loads a bank for `frame`, which `touch` just found
    /// without one.
    #[cold]
    fn fill_bank(&mut self, frame: WordAddr) -> u64 {
        let locals = self.locals_of(frame);
        self.banks
            .as_mut()
            .map_or(0, |b| b.load(&mut self.mem, frame, locals, None))
    }

    /// The common call path, shared by all four call linkages, traps
    /// and `XFER`s to procedure descriptors. Every caller has already
    /// bounds-checked `header` (`check_header`, directly or through
    /// `resolve_proc_desc`), so it is checked once per call.
    fn perform_call(
        &mut self,
        header: ByteAddr,
        dest_gf: WordAddr,
        dest_cb: ByteAddr,
        kind: TransferKind,
        strict: bool,
    ) -> Result<Flow, VmError> {
        let header_bytes = self.read_header(header);
        let t = CallTarget::new(header, dest_gf, dest_cb, header_bytes, &self.classes);
        let flow = self.enter_call(&t, kind, strict)?;
        self.stats.frame_bytes.record(t.frame_bytes as u64);
        Ok(flow)
    }

    /// The call itself: allocate and link the callee's frame, suspend
    /// the caller and jump to the callee's first instruction. Every
    /// rare case (an empty AV list, a return-stack eviction, a bank
    /// spill, an unbound module, a fault) is a cold helper. The caller
    /// records the frame in `frame_bytes`.
    #[inline(always)]
    fn enter_call(
        &mut self,
        t: &CallTarget,
        kind: TransferKind,
        strict: bool,
    ) -> Result<Flow, VmError> {
        let &CallTarget {
            header,
            gf: dest_gf,
            cb: dest_cb,
            fsi,
            nargs,
            addr_taken,
            locals,
            ..
        } = t;
        // Faultable work first, commits second: an unbound destination
        // or an empty AV list must surface while the caller's state is
        // still exactly as the restarted instruction will find it.
        self.check_bound(dest_cb)?;
        if strict && self.config.strict_stack && self.stack.len() != nargs as usize {
            return Err(VmError::StrictStackViolation {
                depth: self.stack.len(),
                nargs: nargs as usize,
            });
        }
        let frame = self.alloc_frame(fsi, addr_taken)?;
        // §7.4 flush-on-exit: leaving a flagged context writes its bank
        // back so storage references from elsewhere see current data.
        let (policy, lf) = (self.config.banks.map(|c| c.ptr_policy), self.lf);
        if matches!(policy, Some(PtrLocalPolicy::FlushOnExit))
            && self.frames().get(lf).is_some_and(|r| r.addr_taken)
        {
            if let Some(b) = self.banks.as_mut() {
                b.flush_frame(&mut self.mem, self.lf);
            }
        }

        let caller_ctx = self.lf_ctx();
        if self.rs.enabled() {
            let entry = ReturnEntry {
                frame: self.lf,
                gf: self.gf,
                code_base: self.code_base,
                pc: self.pc,
            };
            if let Some(ev) = self.rs.push(entry) {
                // Evicted caller: its PC goes to its frame; its callee's
                // return link now lives in storage.
                self.spill_evicted(ev);
            }
            if !self.defer_headers {
                self.mem
                    .write(frame.offset(layout::FRAME_GLOBAL), dest_gf.0 as u16);
            }
        } else {
            // General scheme: suspend the caller and link the callee,
            // three writes counted as one group.
            let rel = self.rel_pc(self.pc);
            self.mem.poke(self.lf.offset(layout::FRAME_PC), rel);
            self.mem
                .poke(frame.offset(layout::FRAME_RETURN_LINK), caller_ctx.raw());
            self.mem
                .poke(frame.offset(layout::FRAME_GLOBAL), dest_gf.0 as u16);
            self.mem.charge(0, 3);
        }

        if let Some(b) = self.banks.as_mut() {
            if self.config.renaming() {
                // §7.2: the stack bank becomes the callee's local bank;
                // arguments appear in place.
                let at = self.stack.len().saturating_sub(nargs as usize);
                b.assign(
                    &mut self.mem,
                    frame,
                    locals,
                    Some(&self.stack[at..]),
                    Some(self.lf),
                );
                self.stack.truncate(at);
            } else {
                b.assign(&mut self.mem, frame, locals, None, Some(self.lf));
            }
        }

        self.return_ctx = caller_ctx;
        self.lf = frame;
        self.gf = dest_gf;
        self.code_base = dest_cb;
        self.pc = header.offset(layout::PROC_HEADER_BYTES);
        Ok(Flow::Taken(Some(kind)))
    }

    /// RETURN (§4/§5.1): free the frame, set `returnContext` to NIL,
    /// `XFER` to the return link — served by the IFU stack when it can.
    #[inline(always)]
    fn perform_return(&mut self) -> Result<Flow, VmError> {
        let returning = self.lf;
        let Some(entry) = self.rs.pop() else {
            return self.return_via_link(returning);
        };
        self.free_frame(returning)?;
        self.lf = entry.frame;
        self.gf = entry.gf;
        self.code_base = entry.code_base;
        self.pc = entry.pc;
        self.return_ctx = ContextWord::NIL;
        self.activate_bank(entry.frame);
        Ok(Flow::Taken(Some(TransferKind::Return)))
    }

    /// The general scheme's return, through the link in the returning
    /// frame: every return without a return stack, and a return-stack
    /// miss.
    #[inline(always)]
    fn return_via_link(&mut self, returning: WordAddr) -> Result<Flow, VmError> {
        // The destination's boundness is checked before the returning
        // frame is freed: a fault after the free could not restart (the
        // frame — and the link in it — would be gone).
        let link = ContextWord::from_raw(
            self.mem
                .read(self.wrap(returning.offset(layout::FRAME_RETURN_LINK))),
        );
        match Context::from(link) {
            Context::Frame(h) => self.check_frame_bound(h.addr())?,
            Context::Nil => self.precheck_next_process()?,
            Context::Proc(_) => return Err(VmError::InvalidContext(link.raw())),
        }
        self.free_frame(returning)?;
        self.return_ctx = ContextWord::NIL;
        let Context::Frame(h) = Context::from(link) else {
            return self.process_exit();
        };
        self.enter_frame(h.addr())?;
        Ok(Flow::Taken(Some(TransferKind::Return)))
    }

    /// Restartability precheck for a process exit: the process that
    /// [`Machine::process_exit`] will resume must be bound *before* the
    /// exiting frame is freed. Mirrors `process_exit`'s scan with the
    /// current process treated as already dead.
    #[cold]
    fn precheck_next_process(&self) -> Result<(), VmError> {
        let n = self.processes.len();
        for off in 1..n {
            let i = (self.current_proc + off) % n;
            if self.processes[i].alive {
                if let Context::Frame(h) = Context::from(self.processes[i].ctx) {
                    self.check_frame_bound(h.addr())?;
                }
                return Ok(());
            }
        }
        Ok(())
    }

    /// The current process's root returned: mark it dead and resume the
    /// next live process, or halt.
    #[cold]
    fn process_exit(&mut self) -> Result<Flow, VmError> {
        self.processes[self.current_proc].alive = false;
        let n = self.processes.len();
        for off in 1..=n {
            let i = (self.current_proc + off) % n;
            if self.processes[i].alive {
                self.current_proc = i;
                let ctx = self.processes[i].ctx;
                self.stack = std::mem::take(&mut self.processes[i].saved_stack);
                let Context::Frame(h) = Context::from(ctx) else {
                    return Err(VmError::InvalidContext(ctx.raw()));
                };
                self.enter_frame(h.addr())?;
                return Ok(Flow::Taken(Some(TransferKind::ProcessSwitch)));
            }
        }
        Ok(Flow::Halt)
    }

    /// Uncounted boundness precheck for a transfer through a procedure
    /// descriptor: walks GFT → GF → code base with host peeks so the
    /// unbound fault can be raised before any state is committed. The
    /// counted walk happens later, on the committed path.
    fn precheck_proc_bound(&self, p: ProcDesc) -> Result<(), VmError> {
        let size = self.mem.size();
        let raw = self.mem.peek(WordAddr(
            GFT_BASE.0.wrapping_add(p.env().get() as u32) % size,
        ));
        let entry = GftEntry::from_raw(raw);
        let gf = entry.global_frame();
        let cb_word = self
            .mem
            .peek(WordAddr(gf.0.wrapping_add(layout::GF_CODE_BASE) % size));
        self.check_bound(layout::code_base_bytes(cb_word))
    }

    /// General `XFER` through a context word popped from the stack.
    fn perform_xfer(&mut self, w: ContextWord) -> Result<Flow, VmError> {
        // Boundness surfaces before the flush: once the banks and the
        // return stack have been spilled the instruction is no longer
        // bit-restartable (re-execution would skip the spill work).
        match Context::from(w) {
            Context::Frame(h) => self.check_frame_bound(h.addr())?,
            Context::Proc(p) => self.precheck_proc_bound(p)?,
            Context::Nil => return Err(VmError::XferToNil),
        }
        // Unusual transfer: orderly fallback first.
        self.fallback_flush();
        let rel = self.rel_pc(self.pc);
        self.mem.write(self.lf.offset(layout::FRAME_PC), rel);
        let source_ctx = self.lf_ctx();
        match Context::from(w) {
            Context::Nil => Err(VmError::XferToNil),
            Context::Frame(h) => {
                self.return_ctx = source_ctx;
                self.enter_frame(h.addr())?;
                Ok(Flow::Taken(Some(TransferKind::Coroutine)))
            }
            Context::Proc(p) => {
                let (header, dest_gf, dest_cb) = self.resolve_proc_desc(p)?;
                // A creation context: same as a call, but classified as
                // a coroutine-style transfer and exempt from the strict
                // stack check (the argument record rides the stack).
                let flow =
                    self.perform_call(header, dest_gf, dest_cb, TransferKind::Coroutine, false)?;
                self.return_ctx = source_ctx;
                Ok(flow)
            }
        }
    }

    /// Creates a suspended context for a procedure descriptor (NEWCTX).
    fn create_context(&mut self, w: ContextWord) -> Result<ContextWord, VmError> {
        let Context::Proc(p) = Context::from(w) else {
            return Err(VmError::InvalidContext(w.raw()));
        };
        let (header, dest_gf, dest_cb) = self.resolve_proc_desc(p)?;
        self.check_bound(dest_cb)?;
        let (fsi, flags) = self.read_header(header);
        let (_, addr_taken) = layout::unpack_flags(flags);
        let frame = self.alloc_frame(fsi, addr_taken)?;
        self.record_frame_bytes(fsi);
        let entry_rel = (header.0 + layout::PROC_HEADER_BYTES - dest_cb.0) as u16;
        self.mem.write(frame.offset(layout::FRAME_PC), entry_rel);
        self.mem
            .write(frame.offset(layout::FRAME_GLOBAL), dest_gf.0 as u16);
        self.mem.write(
            frame.offset(layout::FRAME_RETURN_LINK),
            ContextWord::NIL.raw(),
        );
        Ok(ContextWord::from(Context::Frame(
            FrameHandle::from_addr(frame).expect("frames are aligned"),
        )))
    }

    fn do_trap(&mut self, code: TrapCode) -> Result<Flow, VmError> {
        // One choke point for every tier: an explicit TRAP and a zero
        // divisor both dispatch here.
        self.obs(|o| o.trapped = true);
        let Some(handler) = self.trap_handler else {
            return Err(VmError::UnhandledTrap(code));
        };
        let Context::Proc(p) = Context::from(handler) else {
            return Err(VmError::InvalidContext(handler.raw()));
        };
        self.stack.push(code.code());
        let dispatched = self
            .resolve_proc_desc(p)
            .and_then(|(header, dest_gf, dest_cb)| {
                self.perform_call(header, dest_gf, dest_cb, TransferKind::Trap, false)
            });
        if dispatched.is_err() {
            // Un-push the trap code so a faulted trap dispatch (e.g. a
            // frame fault allocating the handler's frame) restarts from
            // the stack the instruction originally saw.
            self.stack.pop();
        }
        dispatched
    }

    /// [`Machine::do_trap`] for instructions that consumed operands
    /// before discovering the trap: if dispatch itself fails — a frame
    /// fault allocating the trap handler's frame, say — the consumed
    /// operands are restored so the whole instruction can restart.
    fn restartable_trap(&mut self, code: TrapCode, consumed: &[u16]) -> Result<Flow, VmError> {
        let r = self.do_trap(code);
        if r.is_err() {
            // Re-push in original stack order; slots were just vacated.
            for &v in consumed {
                self.stack.push(v);
            }
        }
        r
    }

    /// The one definition of every straight-line instruction: the ops
    /// the native tier's stack-effect table holds. `execute` and every
    /// single-op native handler run it. It charges nothing: each
    /// driver applies the paper's linear rule around it — `CYCLE_BASE`
    /// per instruction, `CYCLE_MEMREF` per change of `Memory::refs`,
    /// the change of `divert_cycles`, and `CYCLE_REFILL` per taken jump.
    ///
    /// `CHECKED` is whether stack depth is checked here (`execute`) or
    /// already proven, by a burst's per-op stack check or by the native
    /// license. The unchecked form pops 0 from an empty
    /// stack rather than panicking, so a broken proof corrupts guest
    /// state, never the host. `BANKS` is false
    /// only when the driver knows the machine has no register banks (a
    /// burst fixes that once), which drops the bank lookup from every
    /// local and indirect reference.
    ///
    /// Jumps set `pc` relative to `at`, their own start. The native tier
    /// resolves jumps to op indices itself and never passes one here, so
    /// its handlers pass no address. No driver passes any other
    /// instruction: [`Machine::execute`] defines the rest itself, and
    /// the native tier admits only these.
    #[inline(always)]
    fn straight<const CHECKED: bool, const BANKS: bool>(
        &mut self,
        instr: Instr,
        at: ByteAddr,
    ) -> Result<Flow, VmError> {
        use Instr as I;
        macro_rules! pop {
            () => {
                if CHECKED {
                    self.pop()?
                } else {
                    self.stack.pop().unwrap_or(0)
                }
            };
        }
        macro_rules! push {
            ($v:expr) => {{
                let v = $v;
                if CHECKED {
                    self.push(v)?
                } else {
                    self.stack.push(v)
                }
            }};
        }
        // Replaces the top word `t` with the expression, in place: a pop
        // and a push that leave the depth as it was, so only underflow
        // can fail (an unchecked empty stack pops 0). In place, not as a
        // pop and a push, is what keeps the native handlers as fast as
        // specialised arms (DESIGN §6b).
        macro_rules! top {
            (|$t:ident| $e:expr) => {{
                if self.stack.is_empty() {
                    if CHECKED {
                        return Err(VmError::StackUnderflow);
                    }
                    self.stack.push(0);
                }
                let i = self.stack.len() - 1;
                let $t = self.stack[i];
                let v = $e;
                self.stack[i] = v;
            }};
        }
        // Pops b, then replaces a with the expression.
        macro_rules! binary {
            (|$a:ident, $b:ident| $e:expr) => {{
                let $b = pop!() as i16;
                top!(|a| {
                    let $a = a as i16;
                    ($e) as u16
                })
            }};
        }
        match instr {
            I::LoadLocal(n) => push!(self.read_local::<BANKS>(n as u32)),
            I::StoreLocal(n) => {
                let v = pop!();
                self.write_local::<BANKS>(n as u32, v);
            }
            I::LoadLocalAddr(n) => {
                if BANKS
                    && self.banks.is_some()
                    && matches!(
                        self.config.banks.map(|b| b.ptr_policy),
                        Some(PtrLocalPolicy::Outlaw)
                    )
                {
                    return Err(VmError::PointerToLocalOutlawed);
                }
                push!(layout::local_slot(self.lf, n as u32).0 as u16);
            }
            I::LoadGlobal(n) => {
                self.obs_global(n as u32, false);
                push!(self.mem.read(self.global_addr(n as u32)));
            }
            I::LoadGlobalAddr(n) => push!(self.global_addr(n as u32).0 as u16),
            I::StoreGlobal(n) => {
                self.obs_global(n as u32, true);
                let v = pop!();
                self.mem.write(self.global_addr(n as u32), v);
            }
            I::LoadImm(v) => push!(v),
            I::Read => {
                self.obs(|o| o.reads_memory = true);
                top!(|addr| self.read_indirect::<BANKS>(WordAddr(addr as u32)));
            }
            I::Write => {
                self.obs(|o| o.writes_memory = true);
                let addr = WordAddr(pop!() as u32);
                let v = pop!();
                self.write_indirect::<BANKS>(addr, v);
            }
            I::LoadIndex => {
                self.obs(|o| o.reads_memory = true);
                let idx = pop!();
                top!(|base| self.read_indirect::<BANKS>(WordAddr(base.wrapping_add(idx) as u32)));
            }
            I::StoreIndex => {
                self.obs(|o| o.writes_memory = true);
                let idx = pop!();
                let base = pop!();
                let v = pop!();
                self.write_indirect::<BANKS>(WordAddr(base.wrapping_add(idx) as u32), v);
            }
            I::Add => binary!(|a, b| a.wrapping_add(b)),
            I::Sub => binary!(|a, b| a.wrapping_sub(b)),
            I::Mul => binary!(|a, b| a.wrapping_mul(b)),
            I::Neg => top!(|t| (t as i16).wrapping_neg() as u16),
            I::And => binary!(|a, b| a & b),
            I::Or => binary!(|a, b| a | b),
            I::Xor => binary!(|a, b| a ^ b),
            I::Shl => binary!(|v, n| (v as u16) << (n as u16 & 0x0F)),
            I::Shr => binary!(|v, n| (v as u16) >> (n as u16 & 0x0F)),
            I::CmpEq => binary!(|a, b| a == b),
            I::CmpNe => binary!(|a, b| a != b),
            I::CmpLt => binary!(|a, b| a < b),
            I::CmpLe => binary!(|a, b| a <= b),
            I::CmpGt => binary!(|a, b| a > b),
            I::CmpGe => binary!(|a, b| a >= b),
            I::AddImm(n) => top!(|t| t.wrapping_add(n as u16)),
            I::Dup => {
                let v = if CHECKED {
                    *self.stack.last().ok_or(VmError::StackUnderflow)?
                } else {
                    self.stack.last().copied().unwrap_or(0)
                };
                push!(v);
            }
            I::Drop => {
                pop!();
            }
            I::Exch => {
                let b = pop!();
                let a = pop!();
                push!(b);
                push!(a);
            }
            I::Out => {
                self.obs(|o| o.writes_output = true);
                let v = pop!();
                self.output.push(v);
            }
            I::Noop => {}
            I::Jump(d) => {
                self.pc = at.displace(d);
                return Ok(Flow::Taken(None));
            }
            I::JumpZero(d) => {
                if pop!() == 0 {
                    self.pc = at.displace(d);
                    return Ok(Flow::Taken(None));
                }
            }
            I::JumpNotZero(d) => {
                if pop!() != 0 {
                    self.pc = at.displace(d);
                    return Ok(Flow::Taken(None));
                }
            }
            _ => unreachable!("not a straight-line instruction"),
        }
        Ok(Flow::Next)
    }

    /// Executes one instruction, checked: the interpreter's step, and
    /// every fallback of the native tier. It defines
    /// the instructions with their own accounting or error paths —
    /// traps, transfers, contexts, processes, heap, module and remote
    /// ops — and runs [`Machine::straight`] for the rest.
    fn execute(&mut self, instr: Instr, instr_start: ByteAddr) -> Result<Flow, VmError> {
        match instr {
            Instr::Div => {
                let b = self.pop()? as i16;
                let a = self.pop()? as i16;
                if b == 0 {
                    return self.restartable_trap(TrapCode::DivideByZero, &[a as u16, b as u16]);
                }
                self.push(a.wrapping_div(b) as u16)?;
            }
            Instr::Mod => {
                let b = self.pop()? as i16;
                let a = self.pop()? as i16;
                if b == 0 {
                    return self.restartable_trap(TrapCode::DivideByZero, &[a as u16, b as u16]);
                }
                self.push(a.wrapping_rem(b) as u16)?;
            }
            Instr::ExternalCall(k) => {
                // The remote intercept runs before any counted memory
                // reference (the LV read), so a parked attempt charges
                // exactly zero.
                if let Some(link) = self.remote_link_at(k) {
                    return self.remote_xfer(link, instr_start);
                }
                return self.call_via_tables(instr, instr_start);
            }
            Instr::LocalCall(_) | Instr::DirectCall(_) | Instr::ShortDirectCall(_) => {
                return self.call_via_tables(instr, instr_start);
            }
            Instr::Ret => return self.perform_return(),
            Instr::Xfer => {
                self.obs(|o| o.context_ops = true);
                let w = ContextWord::from_raw(self.pop()?);
                let r = self.perform_xfer(w);
                if r.is_err() {
                    // Restore the popped context word: a faulted XFER
                    // restarts by popping it again.
                    self.stack.push(w.raw());
                }
                return r;
            }
            Instr::NewContext => {
                self.obs(|o| o.context_ops = true);
                let w = ContextWord::from_raw(self.pop()?);
                match self.create_context(w) {
                    Ok(ctx) => self.push(ctx.raw())?,
                    Err(e) => {
                        self.stack.push(w.raw());
                        return Err(e);
                    }
                }
            }
            Instr::FreeContext => {
                self.obs(|o| o.context_ops = true);
                let w = ContextWord::from_raw(self.pop()?);
                let Context::Frame(h) = Context::from(w) else {
                    return Err(VmError::InvalidContext(w.raw()));
                };
                if h.addr() == self.lf {
                    return Err(VmError::InvalidContext(w.raw()));
                }
                self.free_frame(h.addr())?;
            }
            Instr::ReturnContext => {
                let w = self.return_ctx.raw();
                self.push(w)?;
            }
            Instr::AllocRecord(words) => {
                // Long argument records come from the same allocator as
                // frames (§5.3) and are tracked like frames: exactly
                // one reference, freed by the receiver.
                let fsi = self.classes.fsi_for(words as u32).ok_or(VmError::Frame(
                    FrameError::OversizeRequest {
                        words: words as u32,
                    },
                ))?;
                // Preflight the push: overflowing *after* the alloc
                // would leak the record across the fault and restart.
                if self.stack.len() >= self.stack_limit() {
                    return Err(VmError::UnhandledTrap(TrapCode::StackOverflow));
                }
                let rec = self.alloc_frame(fsi, false)?;
                self.record_frame_bytes(fsi);
                self.push(rec.0 as u16)?;
            }
            Instr::FreeRecord => {
                let addr = WordAddr(self.pop()? as u32);
                self.free_frame(addr)?;
            }
            Instr::Trap(n) => return self.do_trap(TrapCode::User(n)),
            Instr::ProcessSwitch => {
                self.obs(|o| o.context_ops = true);
                let n = self.processes.len();
                let next = (1..=n)
                    .map(|off| (self.current_proc + off) % n)
                    .find(|&i| i != self.current_proc && self.processes[i].alive);
                let Some(next) = next else {
                    return Ok(Flow::Next); // nothing to switch to
                };
                // Precheck the destination before the flush and the
                // stack swap commit anything.
                if let Context::Frame(h) = Context::from(self.processes[next].ctx) {
                    self.check_frame_bound(h.addr())?;
                }
                self.fallback_flush();
                let rel = self.rel_pc(self.pc);
                self.mem.write(self.lf.offset(layout::FRAME_PC), rel);
                self.processes[self.current_proc].ctx = self.lf_ctx();
                self.processes[self.current_proc].saved_stack = std::mem::take(&mut self.stack);
                self.current_proc = next;
                let ctx = self.processes[next].ctx;
                self.stack = std::mem::take(&mut self.processes[next].saved_stack);
                let Context::Frame(h) = Context::from(ctx) else {
                    return Err(VmError::InvalidContext(ctx.raw()));
                };
                self.enter_frame(h.addr())?;
                return Ok(Flow::Taken(Some(TransferKind::ProcessSwitch)));
            }
            Instr::Spawn => {
                self.obs(|o| o.context_ops = true);
                let w = ContextWord::from_raw(self.pop()?);
                let ctx = match self.create_context(w) {
                    Ok(ctx) => ctx,
                    Err(e) => {
                        self.stack.push(w.raw());
                        return Err(e);
                    }
                };
                self.processes.push(Process {
                    ctx,
                    saved_stack: Vec::new(),
                    alive: true,
                });
                let idx = (self.processes.len() - 1) as u16;
                self.push(idx)?;
            }
            Instr::Donate => {
                // The §5.3 replenisher's donation: move words from the
                // fault reserve into the allocatable pool, pushing the
                // number actually granted (0 when the reserve is dry).
                self.obs(|o| o.donates = true);
                let req = self.pop()? as u32;
                let granted = match &mut self.allocator {
                    Allocator::General(g, _) => general(g, &mut self.mem, |g| g.donate(req)),
                    Allocator::Av(h) => h.donate(req),
                    Allocator::Cached { heap, .. } => heap.donate(req),
                };
                self.push(granted as u16)?;
            }
            Instr::BindModule => {
                // Ask the host loader to bind a module back in; pushes
                // 1 on a state change, 0 when already bound or out of
                // range. The replenisher analogue for code faults.
                self.obs(|o| o.binds_modules = true);
                let m = self.pop()? as usize;
                let rebound = m < self.unbound.len() && self.unbound[m];
                if rebound {
                    self.unbound[m] = false;
                    self.any_unbound = self.unbound.contains(&true);
                    self.code.bump_version();
                }
                self.push(rebound as u16)?;
            }
            Instr::RemoteInfo => {
                self.obs(|o| o.handler_ops = true);
                let w = self.last_remote_fault;
                self.push(w)?;
            }
            Instr::Failover => {
                self.obs(|o| o.handler_ops = true);
                // Queue a host rebind request for the descriptor named
                // by the info word; the host (transport layer) rotates
                // the binding to the next replica before the fault
                // handler returns and the call restarts.
                let w = self.pop()?;
                self.failover_requests.push(w);
            }
            Instr::Halt => return Ok(Flow::Halt),
            Instr::LoadLocal(_)
            | Instr::StoreLocal(_)
            | Instr::LoadLocalAddr(_)
            | Instr::LoadGlobalAddr(_)
            | Instr::LoadGlobal(_)
            | Instr::StoreGlobal(_)
            | Instr::LoadImm(_)
            | Instr::Read
            | Instr::Write
            | Instr::LoadIndex
            | Instr::StoreIndex
            | Instr::Add
            | Instr::Sub
            | Instr::Mul
            | Instr::Neg
            | Instr::And
            | Instr::Or
            | Instr::Xor
            | Instr::Shl
            | Instr::Shr
            | Instr::CmpEq
            | Instr::CmpNe
            | Instr::CmpLt
            | Instr::CmpLe
            | Instr::CmpGt
            | Instr::CmpGe
            | Instr::AddImm(_)
            | Instr::Dup
            | Instr::Drop
            | Instr::Exch
            | Instr::Jump(_)
            | Instr::JumpZero(_)
            | Instr::JumpNotZero(_)
            | Instr::Out
            | Instr::Noop => return self.straight::<true, true>(instr, instr_start),
        }
        Ok(Flow::Next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{ImageBuilder, ProcSpec};

    fn run_image(image: &Image, config: MachineConfig) -> Machine {
        let mut m = Machine::load(image, config).unwrap();
        m.run(1_000_000).unwrap();
        m
    }

    fn all_configs() -> Vec<(&'static str, MachineConfig)> {
        vec![
            ("i1", MachineConfig::i1()),
            ("i2", MachineConfig::i2()),
            ("i3", MachineConfig::i3()),
        ]
    }

    /// fib via local calls, with prologue argument stores.
    fn fib_image(call: fn(&mut fpc_isa::Assembler)) -> Image {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        // proc 0: fib(n)
        b.proc_with(m, ProcSpec::new("fib", 1, 1), |a| {
            a.instr(Instr::StoreLocal(0)); // prologue: store arg
            let recurse = a.label();
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::CmpLt);
            a.jump_zero(recurse);
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Ret);
            a.bind(recurse);
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Sub);
            call(a); // fib(n-1)
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::Sub);
            a.instr(Instr::Exch); // keep first result below the arg
            a.instr(Instr::Exch); // (net no-op; exercise stack ops)
                                  // Spill the pending result before the second call.
            a.instr(Instr::Exch);
            a.instr(Instr::StoreLocal(0)); // reuse local 0 as temp
            call(a); // fib(n-2)
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Add);
            a.instr(Instr::Ret);
        });
        // proc 1: main
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::LoadImm(10));
            call(a);
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        b.build(ProcRef {
            module: 0,
            ev_index: 1,
        })
        .unwrap()
    }

    fn fib_local_calls() -> Image {
        fib_image(|a| a.instr(Instr::LocalCall(0)))
    }

    #[test]
    fn fib_runs_on_every_configuration() {
        let image = fib_local_calls();
        for (name, cfg) in all_configs() {
            let m = run_image(&image, cfg);
            assert_eq!(m.output(), &[55], "config {name}");
        }
        // I4 requires a renaming-free bank config for this image.
        let cfg = MachineConfig::i4().with_banks(Some(crate::config::BankConfig {
            renaming: false,
            ..crate::config::BankConfig::paper_default()
        }));
        let m = run_image(&image, cfg);
        assert_eq!(m.output(), &[55], "config i4/no-renaming");
    }

    /// Instructions retired in native bursts, armed or checked, never
    /// look up the predecode cache, so they are not predecode hits.
    #[test]
    fn native_bursts_are_not_predecode_hits() {
        let image = fib_local_calls();
        let [_, (_, interp), (_, cfg)] = MachineConfig::i2().dispatch_ladder();
        let mut armed = Machine::load(&image, cfg).unwrap();
        assert!(armed.arm_native(NativeLicense::new(8, 2)));
        armed.run(1_000_000).unwrap();
        let checked = run_image(&image, cfg);
        for m in [&armed, &checked] {
            assert_eq!(m.predecode_stats().unwrap().hits, 0);
            let n = m.native_stats().unwrap();
            assert_eq!(
                n.native_instrs + n.interp_ops,
                m.stats().instructions,
                "every instruction retires in a burst: {n:?}"
            );
        }
        // With the tier off, the machine interprets, and every lookup
        // hits.
        let interpreted = run_image(&image, interp);
        assert_eq!(interpreted.output(), armed.output());
        assert_eq!(checked.output(), armed.output());
        assert!(interpreted.predecode_stats().unwrap().hits > 0);
    }

    #[test]
    fn renaming_image_runs_on_renaming_machine() {
        // Same fib but without the prologue store: with renaming the
        // argument is already local 0.
        let mut b = ImageBuilder::new();
        b.bank_args();
        let m = b.module("main");
        b.proc_with(m, ProcSpec::new("fib", 1, 2), |a| {
            let recurse = a.label();
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::CmpLt);
            a.jump_zero(recurse);
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Ret);
            a.bind(recurse);
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Sub);
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::StoreLocal(1)); // spill result
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::Sub);
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::LoadLocal(1));
            a.instr(Instr::Add);
            a.instr(Instr::Ret);
        });
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::LoadImm(10));
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap();
        let m = run_image(&image, MachineConfig::i4());
        assert_eq!(m.output(), &[55]);
        let bs = m.bank_stats().unwrap();
        assert!(bs.renames > 100, "renaming was exercised: {bs:?}");
    }

    #[test]
    fn mismatched_renaming_rejected() {
        let image = fib_local_calls();
        assert!(matches!(
            Machine::load(&image, MachineConfig::i4()),
            Err(VmError::BadImage(_))
        ));
    }

    /// A renaming call moves every argument into the callee's bank, so
    /// a procedure with more arguments than a bank shadows would lose
    /// the excess (local 16 read back as 0, not 17). Load refuses it.
    #[test]
    fn renaming_rejects_more_arguments_than_a_bank_shadows() {
        let build = |nargs: u8| {
            let mut b = ImageBuilder::new();
            b.bank_args();
            let m = b.module("main");
            b.proc_with(m, ProcSpec::new("wide", nargs, nargs as u32), |a| {
                a.instr(Instr::LoadLocal(nargs - 1));
                a.instr(Instr::Out);
                a.instr(Instr::LoadLocal(0));
                a.instr(Instr::Out);
                a.instr(Instr::Ret);
            });
            b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
                for v in 1..=nargs as u16 {
                    a.instr(Instr::LoadImm(v));
                }
                a.instr(Instr::LocalCall(0));
                a.instr(Instr::Halt);
            });
            b.build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap()
        };
        let cfg = MachineConfig {
            stack_depth: 32,
            ..MachineConfig::i4()
        };
        assert!(matches!(
            Machine::load(&build(17), cfg),
            Err(VmError::BadImage(_))
        ));
        // Exactly a bank's worth still renames in full.
        let m = run_image(&build(16), cfg);
        assert_eq!(m.output(), &[16, 1]);
        // A replacement body is held to the same bound.
        let mut m = Machine::load(&build(16), cfg).unwrap();
        assert!(matches!(
            m.replace_proc(0, 0, 17, 17, |a| {
                a.instr(Instr::Ret);
            }),
            Err(VmError::BadImage(_))
        ));
    }

    #[test]
    fn external_call_crosses_modules() {
        let mut b = ImageBuilder::new();
        let lib = b.module("lib");
        b.proc_with(lib, ProcSpec::new("inc", 1, 1), |a| {
            a.instr(Instr::StoreLocal(0));
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Add);
            a.instr(Instr::Ret);
        });
        let main = b.module("main");
        let lv = b.import(
            main,
            ProcRef {
                module: 0,
                ev_index: 0,
            },
        );
        b.proc_with(main, ProcSpec::new("main", 0, 0), move |a| {
            a.instr(Instr::LoadImm(41));
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 1,
                ev_index: 0,
            })
            .unwrap();
        let m = run_image(&image, MachineConfig::i2());
        assert_eq!(m.output(), &[42]);
        // The external call made exactly 4 table references for the PC:
        // LV, GFT, GF code base (EV is a code-table read).
        assert!(m.stats().transfers.calls.count >= 1);
    }

    #[test]
    fn external_call_costs_four_levels_of_indirection() {
        // Measure just the call instruction's data references under I2.
        let mut b = ImageBuilder::new();
        let lib = b.module("lib");
        b.proc_with(lib, ProcSpec::new("nop", 0, 0), |a| {
            a.instr(Instr::Ret);
        });
        let main = b.module("main");
        let lv = b.import(
            main,
            ProcRef {
                module: 0,
                ev_index: 0,
            },
        );
        b.proc_with(main, ProcSpec::new("main", 0, 0), move |a| {
            a.instr(Instr::ExternalCall(lv));
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 1,
                ev_index: 0,
            })
            .unwrap();
        let mut m = Machine::load(&image, MachineConfig::i2()).unwrap();
        m.run(10).unwrap();
        let call = &m.stats().transfers.calls;
        assert_eq!(call.count, 1);
        // 3 data reads (LV, GFT, GF) + 1 EV table read + 3 alloc refs
        // + 3 header writes (caller PC, return link, callee GF) = 10.
        assert_eq!(call.refs, 10, "refs per I2 external call");
    }

    #[test]
    fn direct_call_avoids_indirection() {
        // Hand-build: main direct-calls a procedure in the same image.
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        b.proc_with(m, ProcSpec::new("f", 0, 0), |a| {
            a.instr(Instr::Ret);
        });
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::DirectCall(0)); // patched below
            a.instr(Instr::Halt);
        });
        let mut image = b
            .build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap();
        // Patch the DFC operand to f's header address.
        let target = image.proc_header_addr(ProcRef {
            module: 0,
            ev_index: 0,
        });
        let main_hdr = image.proc_header_addr(ProcRef {
            module: 0,
            ev_index: 1,
        });
        let site = main_hdr.0 as usize + layout::PROC_HEADER_BYTES as usize;
        assert_eq!(image.code[site], fpc_isa::opcode::DFC);
        image.code[site + 1] = target.0 as u8;
        image.code[site + 2] = (target.0 >> 8) as u8;
        image.code[site + 3] = (target.0 >> 16) as u8;

        let mut m = Machine::load(&image, MachineConfig::i2()).unwrap();
        m.run(10).unwrap();
        let call = &m.stats().transfers.calls;
        assert_eq!(call.count, 1);
        // No indirection: 3 alloc refs + 3 header writes only.
        assert_eq!(call.refs, 6, "refs per I2 direct call");
    }

    /// Patches the first `DFC 0` site in `proc_ev` to call `target_ev`.
    fn patch_direct_call(image: &mut Image, proc_ev: u16, target_ev: u16) {
        let target = image.proc_header_addr(ProcRef {
            module: 0,
            ev_index: target_ev,
        });
        let hdr = image.proc_header_addr(ProcRef {
            module: 0,
            ev_index: proc_ev,
        });
        let mut at = hdr.0 as usize + layout::PROC_HEADER_BYTES as usize;
        while image.code[at] != fpc_isa::opcode::DFC {
            let (_, len) = decode(&image.code, at).unwrap();
            at += len;
        }
        image.code[at + 1] = target.0 as u8;
        image.code[at + 2] = (target.0 >> 8) as u8;
        image.code[at + 3] = (target.0 >> 16) as u8;
    }

    #[test]
    fn i4_direct_calls_run_at_jump_speed() {
        // A leaf-call loop with DIRECTCALL linkage: under full I4 every
        // call+return should hit the fast path after warm-up.
        let mut b = ImageBuilder::new();
        b.bank_args();
        let m = b.module("main");
        b.proc_with(m, ProcSpec::new("leaf", 1, 1), |a| {
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Ret);
        });
        b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
            a.instr(Instr::LoadImm(100));
            a.instr(Instr::StoreLocal(0));
            let top = a.label();
            a.bind(top);
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::DirectCall(0)); // patched to leaf below
            a.instr(Instr::Drop);
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Sub);
            a.instr(Instr::StoreLocal(0));
            a.instr(Instr::LoadLocal(0));
            a.jump_not_zero(top);
            a.instr(Instr::Halt);
        });
        let mut image = b
            .build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap();
        patch_direct_call(&mut image, 1, 0);
        let m = run_image(&image, MachineConfig::i4());
        let frac = m.stats().transfers.fast_call_return_fraction();
        assert!(frac > 0.95, "fast fraction {frac}");
        // And the fast events really cost exactly jump_cycles.
        assert_eq!(
            m.stats().transfers.returns.cycle_hist.quantile(0.5),
            Some(crate::cost::jump_cycles())
        );
    }

    #[test]
    fn return_stack_hit_rate_high_on_recursion() {
        let image = fib_local_calls();
        let m = run_image(&image, MachineConfig::i3());
        let rs = m.return_stack_stats();
        assert!(rs.hit_rate() > 0.9, "hit rate {}", rs.hit_rate());
        assert!(rs.pushes > 100);
    }

    #[test]
    fn coroutine_ping_pong_via_newctx_and_xfer() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        // proc 0: generator — discovers its peer via RETCTX, yields
        // 10, 20, then halts.
        b.proc_with(m, ProcSpec::new("gen", 0, 1), |a| {
            a.instr(Instr::ReturnContext);
            a.instr(Instr::StoreLocal(0)); // peer
            a.instr(Instr::LoadImm(10));
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Xfer); // yield 10
            a.instr(Instr::Drop); // value sent back in (unused)
            a.instr(Instr::ReturnContext);
            a.instr(Instr::StoreLocal(0));
            a.instr(Instr::LoadImm(20));
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Xfer); // yield 20
            a.instr(Instr::Halt);
        });
        // proc 1: main — creates the generator with NEWCTX (the packed
        // descriptor for gft 0 / ev 0 is 0x8000) and pulls two values.
        b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
            a.instr(Instr::LoadImm(0x8000));
            a.instr(Instr::NewContext);
            a.instr(Instr::StoreLocal(0));
            // First transfer: expect 10.
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Xfer);
            a.instr(Instr::Out);
            // Send a dummy value back to the generator (its context
            // is in returnContext after it transferred to us).
            a.instr(Instr::LoadImm(0));
            a.instr(Instr::ReturnContext);
            a.instr(Instr::Xfer);
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap();
        for cfg in [MachineConfig::i2(), MachineConfig::i3()] {
            let m = run_image(&image, cfg);
            assert_eq!(m.output(), &[10, 20]);
            assert!(m.stats().transfers.coroutines.count >= 4);
        }
    }

    #[test]
    fn processes_round_robin() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        // proc 0: worker — emits 100, yields, emits 101, returns.
        b.proc_with(m, ProcSpec::new("worker", 0, 0), |a| {
            a.instr(Instr::LoadImm(100));
            a.instr(Instr::Out);
            a.instr(Instr::ProcessSwitch);
            a.instr(Instr::LoadImm(101));
            a.instr(Instr::Out);
            a.instr(Instr::Ret); // process exit
        });
        // proc 1: main — spawns worker, emits 1, yields, emits 2, returns.
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::LoadImm(0x8000)); // packed desc: gft 0, ev 0
            a.instr(Instr::Spawn);
            a.instr(Instr::Drop); // process index
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Out);
            a.instr(Instr::ProcessSwitch);
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::Out);
            a.instr(Instr::Ret);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap();
        let m = run_image(&image, MachineConfig::i3());
        assert_eq!(m.output(), &[1, 100, 2, 101]);
        assert!(m.stats().transfers.switches.count >= 2);
    }

    #[test]
    fn divide_by_zero_without_handler_errors() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::LoadImm(0));
            a.instr(Instr::Div);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 0,
            })
            .unwrap();
        let mut m = Machine::load(&image, MachineConfig::i2()).unwrap();
        assert_eq!(
            m.run(10).unwrap_err(),
            VmError::UnhandledTrap(TrapCode::DivideByZero)
        );
    }

    #[test]
    fn trap_handler_catches_and_resumes() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        // proc 0: handler(code) — emits the code and returns.
        b.proc_with(m, ProcSpec::new("handler", 1, 1), |a| {
            a.instr(Instr::StoreLocal(0));
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::Out);
            a.instr(Instr::Ret);
        });
        // proc 1: main — traps, then emits 5.
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::Trap(9));
            a.instr(Instr::LoadImm(5));
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap();
        let mut machine = Machine::load(&image, MachineConfig::i3()).unwrap();
        machine
            .set_trap_handler(
                &image,
                ProcRef {
                    module: 0,
                    ev_index: 0,
                },
            )
            .unwrap();
        machine.run(100).unwrap();
        assert_eq!(machine.output(), &[9, 5]);
        assert_eq!(machine.stats().transfers.traps.count, 1);
    }

    #[test]
    fn strict_stack_violation_detected() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        b.proc_with(m, ProcSpec::new("f", 0, 0), |a| {
            a.instr(Instr::Ret);
        });
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            a.instr(Instr::LoadImm(1)); // pending value, never spilled
            a.instr(Instr::LocalCall(0));
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 1,
            })
            .unwrap();
        let mut m = Machine::load(&image, MachineConfig::i2()).unwrap();
        assert!(matches!(
            m.run(10).unwrap_err(),
            VmError::StrictStackViolation { depth: 1, nargs: 0 }
        ));
    }

    #[test]
    fn pointer_to_local_respects_policies() {
        let build = || {
            let mut b = ImageBuilder::new();
            let m = b.module("main");
            b.proc_with(m, ProcSpec::new("main", 0, 2).with_addr_taken(), |a| {
                a.instr(Instr::LoadImm(31));
                a.instr(Instr::StoreLocal(1));
                a.instr(Instr::LoadLocalAddr(1));
                a.instr(Instr::Read); // read own local through pointer
                a.instr(Instr::Out);
                a.instr(Instr::Halt);
            });
            b.build(ProcRef {
                module: 0,
                ev_index: 0,
            })
            .unwrap()
        };
        let image = build();
        // Divert: works, counts a diversion.
        let cfg = MachineConfig::i3().with_banks(Some(crate::config::BankConfig {
            renaming: false,
            ptr_policy: PtrLocalPolicy::Divert,
            ..crate::config::BankConfig::paper_default()
        }));
        let m = run_image(&image, cfg);
        assert_eq!(m.output(), &[31]);
        assert!(m.bank_stats().unwrap().diversions >= 1);
        // Outlaw: errors.
        let cfg = MachineConfig::i3().with_banks(Some(crate::config::BankConfig {
            renaming: false,
            ptr_policy: PtrLocalPolicy::Outlaw,
            ..crate::config::BankConfig::paper_default()
        }));
        let mut machine = Machine::load(&image, cfg).unwrap();
        assert_eq!(
            machine.run(100).unwrap_err(),
            VmError::PointerToLocalOutlawed
        );
        // No banks at all: plain storage access.
        let m = run_image(&image, MachineConfig::i2());
        assert_eq!(m.output(), &[31]);
    }

    #[test]
    fn output_and_arith_cover_opcodes() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
            // (7*3 - 1) / 2 = 10; 10 mod 3 = 1; -(1) = -1; (-1 ^ -1)=0;
            // (0 | 5) & 13 = 5; 5 << 1 = 10; 10 >> 1 = 5.
            a.instr(Instr::LoadImm(7));
            a.instr(Instr::LoadImm(3));
            a.instr(Instr::Mul);
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Sub);
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::Div);
            a.instr(Instr::LoadImm(3));
            a.instr(Instr::Mod);
            a.instr(Instr::Neg);
            a.instr(Instr::Dup);
            a.instr(Instr::Xor);
            a.instr(Instr::LoadImm(5));
            a.instr(Instr::Or);
            a.instr(Instr::LoadImm(13));
            a.instr(Instr::And);
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Shl);
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Shr);
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 0,
            })
            .unwrap();
        let m = run_image(&image, MachineConfig::i2());
        assert_eq!(m.output(), &[5]);

        // Every straight-line instruction, in a loop so that the native
        // handlers and the superinstructions run, on every rung of every
        // implementation and on the checked tier: each must agree with
        // the byte rung on everything simulated.
        for (imp, base) in [
            ("i1", MachineConfig::i1()),
            ("i2", MachineConfig::i2()),
            ("i3", MachineConfig::i3()),
            ("i4", MachineConfig::i4()),
        ] {
            let image = straight_line_loop(base.renaming());
            let mut runs = Vec::new();
            let ladder = base.dispatch_ladder();
            for (rung, cfg) in ladder.into_iter().chain([("checked", ladder[2].1)]) {
                let mut m = Machine::load(&image, cfg).unwrap();
                if rung == "native" {
                    assert!(m.arm_native(NativeLicense::new(8, 1)), "{imp}");
                }
                m.run(1_000_000).unwrap();
                if cfg.native {
                    assert!(m.native_stats().unwrap().native_instrs > 100, "{imp}");
                }
                let s = m.stats();
                let counters = (s.instructions, s.cycles, s.jumps_taken, m.total_refs());
                runs.push((rung, m.output().to_vec(), m.stack().to_vec(), counters));
            }
            let (_, output, stack, counters) = &runs[0];
            assert_eq!(
                output.len(),
                6,
                "{imp}: one output per iteration and the array"
            );
            for (rung, o, st, c) in &runs[1..] {
                assert_eq!((o, st, c), (output, stack, counters), "{imp} {rung}");
            }
        }
    }

    /// A loop of five iterations using every straight-line instruction:
    /// arithmetic, logic, shifts and comparisons on the counter, stack
    /// shuffles, a global array through `StoreIndex`/`LoadIndex`,
    /// `Read`/`Write` through global and local addresses, and all three
    /// jumps. Outputs the accumulator each iteration and leaves it on
    /// the stack. `bank_args` builds it for a renaming machine.
    fn straight_line_loop(bank_args: bool) -> Image {
        use Instr as I;
        let mut b = ImageBuilder::new();
        if bank_args {
            b.bank_args();
        }
        let m = b.module("main");
        let g = b.global(m, 0);
        let arr = b.global(m, 0);
        for _ in 0..6 {
            b.global(m, 0);
        }
        b.proc_with(m, ProcSpec::new("main", 0, 4), |a| {
            let (top, end, skip) = (a.label(), a.label(), a.label());
            for i in [
                I::LoadImm(5),
                I::StoreLocal(0),
                I::LoadImm(0),
                I::StoreLocal(1),
            ] {
                a.instr(i);
            }
            a.bind(top);
            a.instr(I::LoadLocal(0));
            a.jump_zero(end);
            #[rustfmt::skip]
            let body = [
                I::LoadLocal(0), I::LoadImm(3), I::Mul, I::LoadImm(1), I::Sub,
                I::LoadImm(7), I::Add, I::Neg, I::AddImm(100),
                I::LoadImm(0x0F0F), I::And, I::LoadImm(0x0100), I::Or,
                I::LoadImm(0x00FF), I::Xor, I::LoadImm(2), I::Shl, I::LoadImm(1), I::Shr,
                I::Dup, I::Exch, I::Drop, I::Noop,
                // arr[i] = x; x = arr[i]; g = x; x = g (by address)
                I::LoadGlobalAddr(arr), I::LoadLocal(0), I::StoreIndex,
                I::LoadGlobalAddr(arr), I::LoadLocal(0), I::LoadIndex,
                I::LoadGlobalAddr(g), I::Write, I::LoadGlobalAddr(g), I::Read,
                // local 3 = x through its address, then back
                I::LoadLocalAddr(3), I::Write, I::LoadLocalAddr(3), I::Read, I::StoreLocal(2),
                I::LoadLocal(2), I::LoadImm(50), I::CmpEq,
                I::LoadLocal(2), I::LoadImm(50), I::CmpNe, I::Add,
                I::LoadLocal(2), I::LoadImm(50), I::CmpLt, I::Add,
                I::LoadLocal(2), I::LoadImm(50), I::CmpLe, I::Add,
                I::LoadLocal(2), I::LoadImm(50), I::CmpGt, I::Add,
                I::LoadLocal(2), I::LoadImm(50), I::CmpGe, I::Add,
                I::LoadLocal(2), I::Add, I::LoadGlobal(g), I::Add,
                I::LoadLocal(1), I::Add, I::StoreLocal(1), I::LoadLocal(1), I::Out,
                I::LoadGlobal(arr), I::LoadImm(1), I::Add, I::StoreGlobal(arr),
                I::LoadLocal(0), I::LoadImm(1), I::Sub, I::StoreLocal(0),
                I::LoadLocal(0),
            ];
            for i in body {
                a.instr(i);
            }
            a.jump_not_zero(skip);
            a.instr(I::Noop);
            a.bind(skip);
            a.jump(top);
            a.bind(end);
            for i in [I::LoadGlobal(arr), I::Out, I::LoadLocal(1), I::Halt] {
                a.instr(i);
            }
        });
        b.build(ProcRef {
            module: 0,
            ev_index: 0,
        })
        .unwrap()
    }

    #[test]
    fn globals_and_arrays_work() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        let g = b.global(m, 5);
        b.proc_with(m, ProcSpec::new("main", 0, 4), |a| {
            // global += 2 → 7; local array [3] at locals 1..4: a[2]=g.
            a.instr(Instr::LoadGlobal(g));
            a.instr(Instr::AddImm(2));
            a.instr(Instr::StoreGlobal(g));
            a.instr(Instr::LoadGlobal(g));
            a.instr(Instr::LoadLocalAddr(1)); // base of array
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::StoreIndex); // a[2] = 7
            a.instr(Instr::LoadLocalAddr(1));
            a.instr(Instr::LoadImm(2));
            a.instr(Instr::LoadIndex);
            a.instr(Instr::Out);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 0,
            })
            .unwrap();
        for cfg in [
            MachineConfig::i1(),
            MachineConfig::i2(),
            MachineConfig::i3(),
        ] {
            let m = run_image(&image, cfg);
            assert_eq!(m.output(), &[7], "config {cfg:?}");
        }
    }

    #[test]
    fn jump_cost_is_the_yardstick() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
            let l = a.label();
            a.jump(l);
            a.bind(l);
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 0,
            })
            .unwrap();
        let mut m = Machine::load(&image, MachineConfig::i2()).unwrap();
        m.run(10).unwrap();
        // jump (2 cycles) + halt (1 cycle)
        assert_eq!(m.stats().cycles, 3);
        assert_eq!(m.stats().jumps_taken, 1);
    }

    #[test]
    fn instructions_per_transfer_computed() {
        let image = fib_local_calls();
        let m = run_image(&image, MachineConfig::i2());
        let ipt = m.stats().instructions_per_transfer();
        assert!(ipt > 2.0 && ipt < 30.0, "instructions per transfer {ipt}");
    }

    /// Two library modules returning 1 and 2, and a main module that
    /// first (when `guest_bind`) asks the loader to bind module 0 back
    /// in and outputs the answer, then calls both libraries,
    /// outputting each result.
    fn two_library_image(guest_bind: bool) -> Image {
        let mut b = ImageBuilder::new();
        for (name, v) in [("one", 1), ("two", 2)] {
            let lib = b.module(name);
            b.proc_with(lib, ProcSpec::new(name, 0, 0), move |a| {
                a.instr(Instr::LoadImm(v));
                a.instr(Instr::Ret);
            });
        }
        let main = b.module("main");
        let lvs: Vec<u8> = (0..2)
            .map(|module| {
                b.import(
                    main,
                    ProcRef {
                        module,
                        ev_index: 0,
                    },
                )
            })
            .collect();
        b.proc_with(main, ProcSpec::new("main", 0, 0), move |a| {
            if guest_bind {
                a.instr(Instr::LoadImm(0));
                a.instr(Instr::BindModule);
                a.instr(Instr::Out);
            }
            for &lv in &lvs {
                a.instr(Instr::ExternalCall(lv));
                a.instr(Instr::Out);
            }
            a.instr(Instr::Halt);
        });
        b.build(ProcRef {
            module: 2,
            ev_index: 0,
        })
        .unwrap()
    }

    #[test]
    fn rebinding_one_module_keeps_the_other_unbound() {
        for (name, cfg) in all_configs() {
            // Host rebind.
            let image = two_library_image(false);
            let mut m = Machine::load(&image, cfg).unwrap();
            m.unbind_module(0).unwrap();
            m.unbind_module(1).unwrap();
            m.bind_module(0).unwrap();
            let err = m.run(1_000).unwrap_err();
            assert_eq!(err, VmError::UnboundCode { module: 1 }, "{name}: host");
            assert_eq!(m.output(), &[1], "{name}: host");
            // Guest rebind (`BINDMOD 0` answers 1: a state change).
            let image = two_library_image(true);
            let mut m = Machine::load(&image, cfg).unwrap();
            m.unbind_module(0).unwrap();
            m.unbind_module(1).unwrap();
            let err = m.run(1_000).unwrap_err();
            assert_eq!(err, VmError::UnboundCode { module: 1 }, "{name}: guest");
            assert_eq!(m.output(), &[1, 1], "{name}: guest");
            // With both bound again, the same image runs to the end.
            let mut m = Machine::load(&image, cfg).unwrap();
            m.unbind_module(1).unwrap();
            m.bind_module(1).unwrap();
            m.run(1_000).unwrap();
            assert_eq!(m.output(), &[0, 1, 2], "{name}: all bound");
        }
    }

    /// A direct call whose target header lies past the end of code is
    /// a malformed image on every rung: the header is bounds-checked
    /// (once) before any of its bytes are read. On the native rung the
    /// loop ahead of the call retires natively before the call faults.
    #[test]
    fn direct_call_past_code_end_is_bad_image_on_every_rung() {
        let mut b = ImageBuilder::new();
        let m = b.module("main");
        b.proc_with(m, ProcSpec::new("main", 0, 1), |a| {
            let (top, out) = (a.label(), a.label());
            a.instr(Instr::LoadImm(8));
            a.instr(Instr::StoreLocal(0));
            a.bind(top);
            a.instr(Instr::LoadLocal(0));
            a.jump_zero(out);
            a.instr(Instr::LoadLocal(0));
            a.instr(Instr::LoadImm(1));
            a.instr(Instr::Sub);
            a.instr(Instr::StoreLocal(0));
            a.jump(top);
            a.bind(out);
            a.instr(Instr::DirectCall(0xFF_FF00));
            a.instr(Instr::Halt);
        });
        let image = b
            .build(ProcRef {
                module: 0,
                ev_index: 0,
            })
            .unwrap();
        for (rung, cfg) in MachineConfig::i3().dispatch_ladder() {
            let mut m = Machine::load(&image, cfg).unwrap();
            if cfg.native {
                assert!(m.arm_native(NativeLicense::new(2, 1)), "{rung}");
            }
            let err = m.run(10_000).unwrap_err();
            assert!(matches!(err, VmError::BadImage(_)), "{rung}: {err:?}");
            if cfg.native {
                assert!(m.native_stats().unwrap().native_instrs > 0, "{rung}");
            }
        }
    }
}
