//! Baseline allocators the paper compares against (implicitly):
//! a conventional general heap and a strictly LIFO stack.

use fpc_mem::WordAddr;

use crate::heap::FrameError;

/// A first-fit general heap with address-ordered free list and
//  coalescing, standing in for a conventional Algol/PL1 runtime
/// allocator ("it may be implemented by a runtime routine (this is
/// common in Algol and PL/1 implementations)", §4).
///
/// The free list is kept host-side but every operation **charges** the
/// memory references the equivalent in-memory structure would make:
/// two references per free-list node visited (size and next fields)
/// plus bookkeeping writes. Experiment E3 uses the charge to show the
/// gap to the 3/4-reference AV heap.
#[derive(Debug, Clone)]
pub struct GeneralHeap {
    /// Free blocks as (addr, words), address-ordered, coalesced.
    free: Vec<(u32, u32)>,
    /// Withheld tail block as (addr, words): not visible to first fit
    /// until donated (or emergency mode borrows from it).
    reserve: (u32, u32),
    /// While set, a failed first fit may carve from the reserve — the
    /// fault-dispatch guarantee, mirroring `FrameHeap::set_emergency`.
    emergency: bool,
    charged_refs: u64,
    allocs: u64,
    frees: u64,
}

impl GeneralHeap {
    /// Creates a heap owning `region` (start and length in words).
    ///
    /// The start is rounded up to an odd address and block sizes are
    /// kept even, so every allocated frame (one word past its header)
    /// is two-word aligned as the packed context word requires.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty.
    pub fn new(start: u32, words: u32) -> Self {
        Self::with_reserve(start, words, 0)
    }

    /// Like [`GeneralHeap::new`] but withholds the last `reserve` words
    /// from the free list; only [`GeneralHeap::donate`] or emergency
    /// mode can reach them.
    ///
    /// # Panics
    ///
    /// Panics if the region minus the reserve is empty.
    pub fn with_reserve(start: u32, words: u32, reserve: u32) -> Self {
        assert!(words > reserve + 2, "empty region");
        let start = start | 1;
        // Even usable size keeps the reserve base odd, so emergency
        // frames (base + 1) stay two-word aligned like first-fit ones.
        let usable = if reserve == 0 {
            words - 1
        } else {
            (words - 1 - reserve) & !1
        };
        GeneralHeap {
            free: vec![(start, usable)],
            // Exactly the requested reserve; the odd slack word lost to
            // alignment rounding (if any) is simply never handed out.
            reserve: (start + usable, reserve),
            emergency: false,
            charged_refs: 0,
            allocs: 0,
            frees: 0,
        }
    }

    /// Words still held in reserve (donatable).
    pub fn reserve_words(&self) -> u32 {
        self.reserve.1
    }

    /// Releases up to `words` reserve words to the free list; returns
    /// the count granted. Charged like a free-list insertion.
    pub fn donate(&mut self, words: u32) -> u32 {
        // Whole word pairs only, preserving frame alignment.
        let granted = words.min(self.reserve.1) & !1;
        if granted == 0 {
            return 0;
        }
        let (addr, _) = self.reserve;
        self.reserve = (addr + granted, self.reserve.1 - granted);
        self.charged_refs += 3;
        // The reserve is the tail: the released block either follows the
        // last free block directly or forms a new one.
        match self.free.last_mut() {
            Some((a, s)) if *a + *s == addr => {
                *s += granted;
                self.charged_refs += 2;
            }
            _ => self.free.push((addr, granted)),
        }
        granted
    }

    /// Toggles emergency mode (carve handler frames from the reserve
    /// when first fit fails).
    pub fn set_emergency(&mut self, on: bool) {
        self.emergency = on;
    }

    /// Total modelled memory references charged so far.
    pub fn charged_refs(&self) -> u64 {
        self.charged_refs
    }

    /// Mean charged references per operation.
    pub fn refs_per_op(&self) -> f64 {
        let ops = self.allocs + self.frees;
        if ops == 0 {
            0.0
        } else {
            self.charged_refs as f64 / ops as f64
        }
    }

    /// Allocates `words` words, first fit.
    ///
    /// # Errors
    ///
    /// [`FrameError::OutOfMemory`] when no block fits.
    pub fn alloc(&mut self, words: u32) -> Result<WordAddr, FrameError> {
        // Header word to remember the size at free time, as real
        // general allocators do; rounded to an even block so frames
        // stay two-word aligned.
        let need = (words + 2) & !1;
        for i in 0..self.free.len() {
            self.charged_refs += 2; // visit: read size + next
            let (addr, size) = self.free[i];
            if size >= need {
                if size == need {
                    self.free.remove(i);
                } else {
                    self.free[i] = (addr + need, size - need);
                }
                // Write header, update the list node.
                self.charged_refs += 3;
                self.allocs += 1;
                return Ok(WordAddr(addr + 1));
            }
        }
        if self.emergency && self.reserve.1 >= need {
            let (addr, left) = self.reserve;
            self.reserve = (addr + need, left - need);
            self.charged_refs += 3;
            self.allocs += 1;
            return Ok(WordAddr(addr + 1));
        }
        Err(FrameError::OutOfMemory)
    }

    /// Frees the block at `frame` (allocated by [`GeneralHeap::alloc`])
    /// of `words` words, coalescing with neighbours.
    ///
    /// # Errors
    ///
    /// [`FrameError::InvalidFrame`] if the block overlaps the free list
    /// (double free).
    pub fn free(&mut self, frame: WordAddr, words: u32) -> Result<(), FrameError> {
        let addr = frame.0 - 1; // header word
        let size = (words + 2) & !1;
        self.charged_refs += 1; // read header
        let pos = self.free.partition_point(|&(a, _)| a < addr);
        self.charged_refs += 2 * pos.min(self.free.len()) as u64; // walk to position
                                                                  // Overlap checks (double free / bad pointer).
        if pos > 0 {
            let (pa, ps) = self.free[pos - 1];
            if pa + ps > addr {
                return Err(FrameError::InvalidFrame(frame));
            }
        }
        if pos < self.free.len() && addr + size > self.free[pos].0 {
            return Err(FrameError::InvalidFrame(frame));
        }
        self.charged_refs += 3; // link in
                                // Coalesce with successor then predecessor, each charged as a
                                // node merge; the block is merged in place rather than inserted
                                // and then removed.
        let succ = (self.free.get(pos)).and_then(|&(na, ns)| (addr + size == na).then_some(ns));
        let pred = pos > 0 && {
            let (pa, ps) = self.free[pos - 1];
            pa + ps == addr
        };
        match (pred, succ) {
            (false, None) => self.free.insert(pos, (addr, size)),
            (false, Some(ns)) => {
                self.free[pos] = (addr, size + ns);
                self.charged_refs += 2;
            }
            (true, None) => {
                self.free[pos - 1].1 += size;
                self.charged_refs += 2;
            }
            (true, Some(ns)) => {
                self.free[pos - 1].1 += size + ns;
                self.free.remove(pos);
                self.charged_refs += 4;
            }
        }
        self.frees += 1;
        Ok(())
    }

    /// Number of blocks on the free list (fragmentation indicator).
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }
}

/// The strictly LIFO allocator conventional call architectures imply:
/// a bump pointer per contiguous stack.
///
/// Allocation and deallocation are free in memory references — that is
/// exactly why the paper wants the frame heap to be "nearly as fast as
/// stack allocation" — but only the **top** frame can be freed, so
/// coroutines, retained frames and multiple processes do not fit.
///
/// ```
/// use fpc_frames::{FrameError, StackAllocator};
///
/// let mut s = StackAllocator::new(0x100, 0x1000);
/// let a = s.alloc(10)?;
/// let b = s.alloc(20)?;
/// assert_eq!(s.free(a), Err(FrameError::NonLifoFree(a))); // not top
/// s.free(b)?;
/// s.free(a)?;
/// # Ok::<(), FrameError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StackAllocator {
    base: u32,
    limit: u32,
    /// Live frames as (addr, words), in stack order.
    frames: Vec<(u32, u32)>,
    sp: u32,
    peak: u32,
}

impl StackAllocator {
    /// Creates a stack growing upward from `base` with `words` capacity.
    pub fn new(base: u32, words: u32) -> Self {
        StackAllocator {
            base,
            limit: base + words,
            frames: Vec::new(),
            sp: base,
            peak: base,
        }
    }

    /// Pushes a frame of `words` words.
    ///
    /// # Errors
    ///
    /// [`FrameError::OutOfMemory`] past the reserved limit — the
    /// paper's point that "each coroutine or process needs a contiguous
    /// piece of storage large enough to hold the largest set of frames
    /// it will ever have".
    pub fn alloc(&mut self, words: u32) -> Result<WordAddr, FrameError> {
        if self.sp + words > self.limit {
            return Err(FrameError::OutOfMemory);
        }
        let addr = self.sp;
        self.frames.push((addr, words));
        self.sp += words;
        self.peak = self.peak.max(self.sp);
        Ok(WordAddr(addr))
    }

    /// Pops a frame; it must be the top one.
    ///
    /// # Errors
    ///
    /// [`FrameError::NonLifoFree`] if `frame` is live but not on top,
    /// [`FrameError::InvalidFrame`] if it is not live at all.
    pub fn free(&mut self, frame: WordAddr) -> Result<(), FrameError> {
        match self.frames.last() {
            Some(&(addr, words)) if addr == frame.0 => {
                self.frames.pop();
                self.sp = addr;
                let _ = words;
                Ok(())
            }
            _ if self.frames.iter().any(|&(a, _)| a == frame.0) => {
                Err(FrameError::NonLifoFree(frame))
            }
            _ => Err(FrameError::InvalidFrame(frame)),
        }
    }

    /// High-water mark in words — the contiguous reservation this
    /// stack would need.
    pub fn peak_words(&self) -> u32 {
        self.peak - self.base
    }

    /// Current depth in frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_heap_allocates_and_reuses() {
        let mut h = GeneralHeap::new(0x100, 0x1000);
        let a = h.alloc(10).unwrap();
        let b = h.alloc(20).unwrap();
        assert_ne!(a, b);
        h.free(a, 10).unwrap();
        let c = h.alloc(10).unwrap();
        assert_eq!(a, c, "first fit reuses the freed block");
    }

    #[test]
    fn general_heap_coalesces() {
        let mut h = GeneralHeap::new(0x100, 0x1000);
        let a = h.alloc(10).unwrap();
        let b = h.alloc(10).unwrap();
        let c = h.alloc(10).unwrap();
        h.free(a, 10).unwrap();
        h.free(c, 10).unwrap();
        // [a] plus [c merged with the tail]: c was the last allocation,
        // so it is adjacent to the remaining free tail.
        assert_eq!(h.free_blocks(), 2);
        h.free(b, 10).unwrap();
        assert_eq!(h.free_blocks(), 1, "all merged back into one block");
    }

    #[test]
    fn general_heap_double_free_detected() {
        let mut h = GeneralHeap::new(0x100, 0x1000);
        let a = h.alloc(10).unwrap();
        h.free(a, 10).unwrap();
        assert!(matches!(h.free(a, 10), Err(FrameError::InvalidFrame(_))));
    }

    #[test]
    fn general_heap_charges_more_when_fragmented() {
        let mut h = GeneralHeap::new(0x100, 0x4000);
        let frames: Vec<_> = (0..64).map(|_| h.alloc(16).unwrap()).collect();
        // Free every other block: fragmented list.
        for f in frames.iter().step_by(2) {
            h.free(*f, 16).unwrap();
        }
        let before = h.charged_refs();
        // A larger request must walk past the 16-word holes.
        let _ = h.alloc(64).unwrap();
        let walk_cost = h.charged_refs() - before;
        assert!(walk_cost > 3 + 4, "walked {walk_cost} refs");
    }

    #[test]
    fn general_heap_out_of_memory() {
        let mut h = GeneralHeap::new(0x100, 16);
        assert!(h.alloc(100).is_err());
    }

    #[test]
    fn general_heap_reserve_withheld_until_donated() {
        let mut h = GeneralHeap::with_reserve(0x100, 0x100, 0x80);
        assert_eq!(h.reserve_words(), 0x80);
        let mut live = Vec::new();
        while let Ok(f) = h.alloc(14) {
            live.push(f);
        }
        let held_back = live.len();
        assert!(held_back > 0);
        assert_eq!(h.donate(0x80), 0x80);
        assert_eq!(h.reserve_words(), 0);
        while let Ok(f) = h.alloc(14) {
            live.push(f);
        }
        assert!(live.len() > held_back, "donation freed more capacity");
        // All frames stay two-word aligned across the boundary.
        for f in &live {
            assert_eq!(f.0 % 2, 0, "misaligned frame {f:?}");
        }
    }

    #[test]
    fn general_heap_emergency_borrows_from_reserve() {
        let mut h = GeneralHeap::with_reserve(0x100, 0x100, 0x40);
        while h.alloc(14).is_ok() {}
        assert!(h.alloc(14).is_err());
        h.set_emergency(true);
        let f = h.alloc(14).unwrap();
        assert_eq!(f.0 % 2, 0);
        h.set_emergency(false);
        assert!(h.alloc(14).is_err());
        // Emergency consumption shrinks what remains donatable.
        assert!(h.reserve_words() < 0x40);
    }

    #[test]
    fn stack_allocator_is_strictly_lifo() {
        let mut s = StackAllocator::new(0, 100);
        let a = s.alloc(10).unwrap();
        let b = s.alloc(10).unwrap();
        assert_eq!(s.free(a), Err(FrameError::NonLifoFree(a)));
        s.free(b).unwrap();
        s.free(a).unwrap();
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn stack_allocator_tracks_peak_reservation() {
        let mut s = StackAllocator::new(0, 1000);
        let mut frames = Vec::new();
        for _ in 0..10 {
            frames.push(s.alloc(37).unwrap());
        }
        for f in frames.into_iter().rev() {
            s.free(f).unwrap();
        }
        assert_eq!(s.peak_words(), 370);
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn stack_allocator_overflow() {
        let mut s = StackAllocator::new(0, 10);
        assert!(s.alloc(11).is_err());
    }

    #[test]
    fn stack_free_of_unknown_frame() {
        let mut s = StackAllocator::new(0, 10);
        assert_eq!(
            s.free(WordAddr(5)),
            Err(FrameError::InvalidFrame(WordAddr(5)))
        );
    }
}
