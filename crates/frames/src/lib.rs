#![warn(missing_docs)]
//! The frame-heap allocator of *Fast Procedure Calls* §5.3.
//!
//! "A specialized heap is used to make the allocation nearly as fast as
//! stack allocation … A procedure specifies its frame size in its first
//! byte by a frame size index into an array of free lists called the
//! allocation vector AV. … Only three memory references are required to
//! allocate a frame …, and four to free it. If the free list is empty
//! there is a trap to a software allocator which creates more frames of
//! the desired size."
//!
//! The crate provides:
//!
//! * [`SizeClasses`] — the geometric frame-size ladder (the choice is
//!   "private to the compiler … and the software allocator");
//! * [`FrameHeap`] — the AV free-list allocator operating on simulated
//!   [`Memory`](fpc_mem::Memory), with exact reference counts and
//!   fragmentation accounting (experiment E3);
//! * [`GeneralHeap`] — a first-fit baseline with a modelled reference
//!   cost, standing in for a conventional Algol-style runtime
//!   allocator;
//! * [`StackAllocator`] — the strictly LIFO baseline that conventional
//!   architectures force, which cannot serve coroutines or multiple
//!   processes (it reports [`FrameError::NonLifoFree`] instead).
//!
//! # Example
//!
//! ```
//! use fpc_frames::{FrameHeap, SizeClasses};
//! use fpc_mem::{Memory, WordAddr};
//!
//! let mut mem = Memory::new(0x4000);
//! let mut heap = FrameHeap::new(&mut mem, WordAddr(0x10), SizeClasses::mesa(), 0x100..0x4000)?;
//! let f = heap.alloc(&mut mem, 10)?;
//! assert!(!f.is_nil());
//! heap.free(&mut mem, f)?;
//! # Ok::<(), fpc_frames::FrameError>(())
//! ```

mod baseline;
mod classes;
mod heap;

pub use baseline::{GeneralHeap, StackAllocator};
pub use classes::SizeClasses;
pub use heap::{FrameError, FrameHeap, FrameRecord, FrameTable, HeapStats};
