#![warn(missing_docs)]
//! The four implementations of *Fast Procedure Calls* over one
//! byte-code engine.
//!
//! The paper's thesis is that one very general control-transfer model
//! — contexts plus `XFER` — admits implementations spanning a wide
//! simplicity/space/speed trade-off, and that the fast end can execute
//! "simple Pascal-style calls and returns … as fast as unconditional
//! jumps at least 95% of the time". This crate builds that spectrum:
//!
//! | config | paper | ingredients |
//! |--------|-------|-------------|
//! | [`MachineConfig::i1`] | §4 | frames from a general heap, no acceleration |
//! | [`MachineConfig::i2`] | §5 | packed descriptors, LV/GFT/EV tables, AV frame heap |
//! | [`MachineConfig::i3`] | §6 | + IFU return-prediction stack, direct calls |
//! | [`MachineConfig::i4`] | §7 | + register banks, argument renaming, free-frame cache |
//!
//! All four run the same [`Image`]s (renaming images differ only in
//! prologues) and produce identical outputs; they differ in counted
//! memory references and cycles, which is exactly what the paper's
//! evaluation is about.
//!
//! # Example
//!
//! ```
//! use fpc_isa::Instr;
//! use fpc_vm::{ImageBuilder, Machine, MachineConfig, ProcRef, ProcSpec};
//!
//! let mut b = ImageBuilder::new();
//! let m = b.module("main");
//! b.proc_with(m, ProcSpec::new("main", 0, 0), |a| {
//!     a.instr(Instr::LoadImm(3));
//!     a.instr(Instr::LoadImm(4));
//!     a.instr(Instr::Add);
//!     a.instr(Instr::Out);
//!     a.instr(Instr::Halt);
//! });
//! let image = b.build(ProcRef { module: 0, ev_index: 0 })?;
//! let mut machine = Machine::load(&image, MachineConfig::i2())?;
//! machine.run(100)?;
//! assert_eq!(machine.output(), &[7]);
//! # Ok::<(), fpc_vm::VmError>(())
//! ```

mod banks;
mod cache;
mod config;
pub mod cost;
mod error;
mod ifu;
mod image;
pub mod inject;
mod listing;
mod machine;
mod native;
mod observe;
mod predecode;

pub use banks::{BankMachine, BankStats};
pub use cache::{CacheStats, FrameCache};
pub use config::{AllocStrategy, BankConfig, MachineConfig, PtrLocalPolicy};
pub use cost::{TransferKind, TransferStats};
pub use error::{FaultKind, RemoteFaultClass, TrapCode, VmError};
pub use ifu::{ReturnEntry, ReturnStack, ReturnStackStats};
pub use image::{
    gft_entries_for, load, load_with_buffer, Idempotence, Image, ImageBuilder, ModuleHandle,
    ModuleImage, Placement, ProcRef, ProcSpec, RemoteImport, AV_BASE, DEFAULT_MEMORY_WORDS,
    GFT_BASE, GFT_ENTRIES, LINK_BASE,
};
pub use inject::{
    run_with_plan, FaultEvent, FaultPlan, InjectionReport, NetEvent, NetPlan, PlanCursor,
};
pub use listing::listing;
pub use machine::{FaultStats, FusionStats, Machine, MachineStats, RemoteRequest, StepOutcome};
pub use native::{NativeLicense, NativeStats};
pub use observe::ObservedEffects;
pub use predecode::{PredecodeCache, PredecodeStats};
