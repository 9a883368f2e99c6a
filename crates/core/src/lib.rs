#![warn(missing_docs)]
//! The control-transfer model of Lampson's *Fast Procedure Calls*
//! (ASPLOS 1982).
//!
//! The paper's abstraction (§3) has two elements: **contexts** — the
//! entities among which control is transferred — and **`XFER`** — the
//! single primitive that transfers control, working with two globals,
//! `returnContext` and `argumentRecord`. Procedure call, return,
//! coroutine transfer, exceptions and process switches are all patterns
//! of `XFER`, distinguished by the destination, not the caller (the
//! paper's feature F3).
//!
//! This crate provides:
//!
//! * [`ContextWord`] / [`Context`] — the packed 16-bit context
//!   representation of §5.1 (1-bit tag, 10-bit GFT index, 5-bit entry
//!   index) and its unpacked form;
//! * [`GftEntry`] — packed global-frame-table entries (14-bit
//!   quad-aligned address + 2-bit entry-point bias);
//! * [`layout`] — the frame and procedure-header layouts shared by the
//!   compiler (`fpc-compiler`) and the interpreters (`fpc-vm`);
//! * [`tables`] — the quantitative model behind the paper's point T1
//!   (replace an `f`-bit address used `n` times by an `i`-bit table
//!   index: `n·f` vs `n·i + f` bits);
//! * [`model`] — a direct, executable rendering of the §3 abstract
//!   machine, independent of the byte-coded implementations, used to
//!   state and test the model-level invariants F1–F4.
//!
//! # Example
//!
//! ```
//! use fpc_core::{Context, ContextWord, EvIndex, GftIndex, ProcDesc};
//!
//! // A procedure descriptor: (environment, entry point), packed into
//! // one 16-bit word exactly as in the Mesa encoding.
//! let desc = ProcDesc::new(GftIndex::new(3).unwrap(), EvIndex::new(7).unwrap());
//! let w = ContextWord::from(Context::Proc(desc));
//! assert_eq!(Context::from(w), Context::Proc(desc));
//! ```

mod context;
mod gft;
pub mod layout;
pub mod model;
pub mod tables;

pub use context::{Context, ContextWord, EvIndex, FrameHandle, GftIndex, PackError, ProcDesc};
pub use gft::GftEntry;
