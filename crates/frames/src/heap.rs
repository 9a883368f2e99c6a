//! The AV free-list frame heap (§5.3, figure 2).

use std::fmt;
use std::ops::Range;

use fpc_mem::{Memory, WordAddr};
use fpc_stats::Histogram;

use crate::classes::SizeClasses;

/// Errors from the frame allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The request exceeds the largest size class; a real system would
    /// divert such frames to the general allocator.
    OversizeRequest {
        /// Requested frame size in words.
        words: u32,
    },
    /// The frame region is exhausted.
    OutOfMemory,
    /// The address freed was not a live frame of this heap.
    InvalidFrame(WordAddr),
    /// A strictly LIFO allocator was asked to free a frame that is not
    /// on top — the restriction that makes conventional stack schemes
    /// "unsuitable for coroutines, retained frames, and multiple
    /// processes" (§1).
    NonLifoFree(WordAddr),
    /// Heap metadata read back from simulated memory (a free-list link
    /// or a hidden size word) was not a valid value: the guest wrote
    /// over it. Reported as a typed error rather than a host panic.
    CorruptHeap(WordAddr),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::OversizeRequest { words } => {
                write!(f, "frame of {words} words exceeds the largest size class")
            }
            FrameError::OutOfMemory => write!(f, "frame region exhausted"),
            FrameError::InvalidFrame(a) => write!(f, "free of non-live frame at {a}"),
            FrameError::NonLifoFree(a) => {
                write!(f, "LIFO allocator cannot free non-top frame at {a}")
            }
            FrameError::CorruptHeap(a) => {
                write!(f, "corrupt frame-heap metadata at {a}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Counters kept by [`FrameHeap`].
#[derive(Debug, Default, Clone)]
pub struct HeapStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Traps to the software allocator (empty free list).
    pub traps: u64,
    /// Words carved from the region by the software allocator,
    /// including the hidden size-index words.
    pub carved_words: u64,
    /// Sum of requested frame sizes (words).
    pub requested_words: u64,
    /// Sum of granted class sizes (words).
    pub granted_words: u64,
    /// Live frames now.
    pub live: u64,
    /// High-water mark of live frames.
    pub peak_live: u64,
    /// Memory references on the fast path (3 per alloc, 4 per free).
    pub fast_refs: u64,
    /// Memory references spent inside software-allocator traps.
    pub slow_refs: u64,
    /// Reserve words released to the carve region by [`FrameHeap::donate`].
    pub donated_words: u64,
    /// Distribution of requested sizes in words.
    pub request_sizes: Histogram,
}

impl HeapStats {
    /// Internal fragmentation so far: `1 − requested/granted`.
    ///
    /// The paper claims "this scheme wastes only 10% of the space in
    /// fragmentation" for the Mesa ladder.
    pub fn fragmentation(&self) -> f64 {
        if self.granted_words == 0 {
            0.0
        } else {
            1.0 - self.requested_words as f64 / self.granted_words as f64
        }
    }

    /// Mean fast-path references per operation.
    pub fn refs_per_op(&self) -> f64 {
        let ops = self.allocs + self.frees;
        if ops == 0 {
            0.0
        } else {
            self.fast_refs as f64 / ops as f64
        }
    }
}

/// One allocated frame's record in a [`FrameTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameRecord {
    /// Size class the frame was requested at.
    pub fsi: u8,
    /// The §7.4 header flag: the frame's locals may be addressed.
    pub addr_taken: bool,
    /// Held by its owner: not unclaimed, nor in a frame cache's stock.
    pub in_use: bool,
}

/// The one record of each allocated frame, indexed directly by frame
/// address: a flat vector, because it sits on the call/return path.
///
/// [`FrameTable::for_region`] reserves room for every frame address of
/// a region up front, so covering a newly carved frame never goes to
/// the host allocator.
#[derive(Debug, Clone, Default)]
pub struct FrameTable(Vec<Option<FrameRecord>>);

impl FrameTable {
    /// An empty table with room for every frame below `end`.
    pub fn for_region(end: u32) -> Self {
        FrameTable(Vec::with_capacity(end as usize))
    }

    /// The record of an allocated frame.
    #[inline]
    pub fn get(&self, frame: WordAddr) -> Option<&FrameRecord> {
        self.0.get(frame.0 as usize)?.as_ref()
    }

    /// The record of an allocated frame, for update.
    #[inline]
    pub fn get_mut(&mut self, frame: WordAddr) -> Option<&mut FrameRecord> {
        self.0.get_mut(frame.0 as usize)?.as_mut()
    }

    /// Records `frame` as allocated.
    #[inline(always)]
    pub fn insert(&mut self, frame: WordAddr, record: FrameRecord) {
        let i = frame.0 as usize;
        if i >= self.0.len() {
            self.cover(frame.0 + 1);
        }
        self.0[i] = Some(record);
    }

    /// Forgets `frame`, returning its record.
    #[inline]
    pub fn remove(&mut self, frame: WordAddr) -> Option<FrameRecord> {
        self.0.get_mut(frame.0 as usize)?.take()
    }

    /// Drops its owner's claim on `frame`: the size class of a frame
    /// in use, which stays recorded but unclaimed, or `None` when
    /// `frame` is not in use.
    #[inline]
    pub fn release(&mut self, frame: WordAddr) -> Option<u8> {
        match self.get_mut(frame) {
            Some(r) if r.in_use => {
                r.in_use = false;
                Some(r.fsi)
            }
            _ => None,
        }
    }

    /// Extends the table to cover every address below `end`.
    #[cold]
    fn cover(&mut self, end: u32) {
        if end as usize > self.0.len() {
            self.0.resize(end as usize, None);
        }
    }
}

/// How many frames the software allocator carves per trap.
const REPLENISH_COUNT: u32 = 4;

/// The allocation-vector frame heap.
///
/// The AV lives in simulated memory at `av_base`, one head word per
/// size class; free frames are chained through their first word; each
/// frame block carries one hidden word (at `frame − 1`) holding its
/// size-class index "so that the size need not be specified when it is
/// freed" (§5.3).
///
/// All architectural accesses go through [`Memory`], so the paper's
/// reference counts are measurable rather than asserted — and the unit
/// tests below assert them anyway: **3** references per allocation,
/// **4** per free.
#[derive(Debug, Clone)]
pub struct FrameHeap {
    av_base: WordAddr,
    classes: SizeClasses,
    carve: u32,
    /// Normal carve limit. At most `region_end`; the gap between the
    /// two is the reserve a frame-fault handler can [`FrameHeap::donate`].
    soft_end: u32,
    region_end: u32,
    /// While set, `replenish` may carve past `soft_end` up to
    /// `region_end` — used by the machine to guarantee the fault
    /// handler's own frame can be allocated.
    emergency: bool,
    /// Every allocated frame's record, shared with the owner.
    frames: FrameTable,
    stats: HeapStats,
}

impl FrameHeap {
    /// Creates a heap: zeroes the AV heads and prepares to carve frames
    /// from `region`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::OutOfMemory`] if the region cannot hold
    /// even one smallest frame.
    ///
    /// # Panics
    ///
    /// Panics if the AV overlaps the region or either is out of memory
    /// bounds — those are configuration bugs, not runtime conditions.
    pub fn new(
        mem: &mut Memory,
        av_base: WordAddr,
        classes: SizeClasses,
        region: Range<u32>,
    ) -> Result<Self, FrameError> {
        Self::with_reserve(mem, av_base, classes, region, 0)
    }

    /// Like [`FrameHeap::new`] but holds back the last `reserve` words
    /// of the region: normal replenishing stops short of them, and only
    /// [`FrameHeap::donate`] (the fault handler's privilege) or
    /// emergency mode can reach them.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::OutOfMemory`] if the region minus the
    /// reserve cannot hold even one smallest frame.
    ///
    /// # Panics
    ///
    /// Panics if the AV overlaps the region or either is out of memory
    /// bounds — those are configuration bugs, not runtime conditions.
    pub fn with_reserve(
        mem: &mut Memory,
        av_base: WordAddr,
        classes: SizeClasses,
        region: Range<u32>,
        reserve: u32,
    ) -> Result<Self, FrameError> {
        let av_end = av_base.0 + classes.len() as u32;
        assert!(av_end <= mem.size(), "AV outside memory");
        assert!(region.end <= mem.size(), "frame region outside memory");
        assert!(
            av_end <= region.start || av_base.0 >= region.end,
            "AV overlaps the frame region"
        );
        for i in 0..classes.len() as u32 {
            mem.poke(av_base.offset(i), 0);
        }
        // First block starts at an odd address so the frame proper
        // (block + 1) is two-word aligned; blocks are even-sized, so
        // parity is preserved thereafter.
        let carve = region.start | 1;
        let soft_end = region.end.saturating_sub(reserve).max(region.start);
        if carve + 1 + classes.size_of(0) > soft_end {
            return Err(FrameError::OutOfMemory);
        }
        Ok(FrameHeap {
            av_base,
            classes,
            carve,
            soft_end,
            region_end: region.end,
            emergency: false,
            frames: FrameTable::for_region(region.end),
            stats: HeapStats::default(),
        })
    }

    /// Words still held in reserve (donatable).
    pub fn reserve_words(&self) -> u32 {
        self.region_end - self.soft_end
    }

    /// Releases up to `words` reserve words to the normal carve region
    /// (the §5.3 replenisher's donation); returns the count granted.
    pub fn donate(&mut self, words: u32) -> u32 {
        let granted = words.min(self.reserve_words());
        self.soft_end += granted;
        self.stats.donated_words += granted as u64;
        granted
    }

    /// Toggles emergency mode: while on, replenishing may carve past
    /// the soft end into the reserve. The machine sets this only while
    /// dispatching a fault handler, so handler frames cannot themselves
    /// frame-fault until the true region end.
    pub fn set_emergency(&mut self, on: bool) {
        self.emergency = on;
    }

    /// The size-class ladder in use.
    pub fn classes(&self) -> &SizeClasses {
        &self.classes
    }

    /// Allocation counters.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// The frame records, where the owner keeps its per-frame data.
    #[inline]
    pub fn frames_mut(&mut self) -> &mut FrameTable {
        &mut self.frames
    }

    /// The size-class index for a frame of `words` words, as the
    /// compiler would burn into the procedure header.
    ///
    /// # Errors
    ///
    /// [`FrameError::OversizeRequest`] beyond the largest class.
    pub fn fsi_for(&self, words: u32) -> Result<u8, FrameError> {
        self.classes
            .fsi_for(words)
            .ok_or(FrameError::OversizeRequest { words })
    }

    /// Allocates a frame of at least `words` words.
    ///
    /// # Errors
    ///
    /// [`FrameError::OversizeRequest`] or [`FrameError::OutOfMemory`].
    pub fn alloc(&mut self, mem: &mut Memory, words: u32) -> Result<WordAddr, FrameError> {
        let fsi = self.fsi_for(words)?;
        let frame = self.alloc_fsi(mem, fsi)?;
        // alloc_fsi accounted the granted size; fix up the requested.
        self.stats.requested_words += words as u64;
        self.stats.request_sizes.record(words as u64);
        Ok(frame)
    }

    /// Allocates a frame of size class `fsi` — the operation performed
    /// by the XFER microcode, which reads the fsi straight from the
    /// procedure header. The frame is recorded unclaimed; see
    /// [`FrameHeap::alloc_record`] for an allocation its owner claims
    /// at once.
    ///
    /// Fast path: exactly three memory references (fetch list head from
    /// AV, fetch next pointer from the first node, store it into the
    /// list head).
    ///
    /// # Errors
    ///
    /// [`FrameError::OutOfMemory`] if the region cannot be replenished,
    /// [`FrameError::OversizeRequest`] for an fsi beyond the ladder,
    /// [`FrameError::CorruptHeap`] if a free-list head read back from
    /// simulated memory points outside memory or at a live frame (the
    /// guest scribbled over the AV or a link word).
    #[inline]
    pub fn alloc_fsi(&mut self, mem: &mut Memory, fsi: u8) -> Result<WordAddr, FrameError> {
        let unclaimed = FrameRecord {
            fsi,
            ..Default::default()
        };
        self.alloc_record(mem, fsi, unclaimed)
    }

    /// Pops a frame off class `fsi`'s free list and writes `record` as
    /// its one record: a call claims its frame in the same step that
    /// allocates it. `record.fsi` may name a smaller class than `fsi`
    /// (a frame cache serving small requests with standard frames).
    ///
    /// A non-empty list is the inline fast path, [`FrameHeap::try_pop`].
    /// An empty list (the software allocator's trap), an fsi beyond the
    /// ladder and a corrupt head take the cold path, with the same
    /// errors.
    ///
    /// # Errors
    ///
    /// As [`FrameHeap::alloc_fsi`].
    #[inline]
    pub fn alloc_record(
        &mut self,
        mem: &mut Memory,
        fsi: u8,
        record: FrameRecord,
    ) -> Result<WordAddr, FrameError> {
        match self.try_pop(mem, fsi, record) {
            Some(frame) => {
                mem.charge(2, 1);
                Ok(frame)
            }
            None => self.alloc_miss(mem, fsi, record),
        }
    }

    /// The fast path of [`FrameHeap::alloc_record`], the three
    /// references of [`FrameHeap::alloc_fsi`]: reads the head of class
    /// `fsi`'s list, reads its link, writes the head and records the
    /// frame. The caller counts the references into `mem` (two reads,
    /// one write), so a run of them can be counted at once. Returns
    /// `None`, having changed nothing, when the list is empty, the head
    /// is not a free frame the table covers, or `fsi` is beyond the
    /// ladder.
    #[inline(always)]
    pub fn try_pop(&mut self, mem: &mut Memory, fsi: u8, record: FrameRecord) -> Option<WordAddr> {
        let words = self.classes.words(fsi)?;
        let head_slot = self.av_base.offset(fsi as u32);
        let head = mem.peek(head_slot); // ref 1
        match self.frames.0.get_mut(head as usize) {
            // A free frame the table covers; 0 (an empty list) is
            // never recorded.
            Some(slot @ None) if head != 0 => *slot = Some(record),
            _ => return None,
        }
        let frame = WordAddr(head as u32);
        let next = mem.peek(frame); // ref 2
        mem.poke(head_slot, next); // ref 3
        self.stats.fast_refs += 3;
        self.count_alloc(words);
        Some(frame)
    }

    /// [`FrameHeap::alloc_record`] when [`FrameHeap::try_pop`] declined:
    /// report an fsi beyond the ladder, replenish an empty list, report
    /// a corrupt head, or cover a free frame the table does not reach
    /// yet.
    #[cold]
    fn alloc_miss(
        &mut self,
        mem: &mut Memory,
        fsi: u8,
        record: FrameRecord,
    ) -> Result<WordAddr, FrameError> {
        if self.classes.words(fsi).is_none() {
            return Err(self.oversize());
        }
        let head_slot = self.av_base.offset(fsi as u32);
        let mut head = mem.read(head_slot); // ref 1
        self.stats.fast_refs += 1; // the head read
        if head == 0 {
            self.replenish(mem, fsi)?;
            head = mem.read(head_slot); // still part of the trap cost
            self.stats.slow_refs += 1;
        }
        let frame = WordAddr(head as u32);
        if frame.0 >= mem.size() || self.is_live(frame) {
            return Err(FrameError::CorruptHeap(head_slot));
        }
        let next = mem.read(frame); // ref 2
        mem.write(head_slot, next); // ref 3
        self.stats.fast_refs += 2;
        self.count_alloc(self.classes.size_of(fsi));
        self.frames.insert(frame, record);
        Ok(frame)
    }

    #[cold]
    fn oversize(&self) -> FrameError {
        FrameError::OversizeRequest {
            words: self.classes.max_words() + 1,
        }
    }

    #[inline(always)]
    fn count_alloc(&mut self, words: u32) {
        self.stats.allocs += 1;
        self.stats.granted_words += words as u64;
        self.stats.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
    }

    /// Frees a frame. Exactly four memory references: fetch the hidden
    /// size-index word, fetch the AV head, link the frame, store the
    /// new head.
    ///
    /// # Errors
    ///
    /// [`FrameError::InvalidFrame`] if `frame` is not a live frame of
    /// this heap, [`FrameError::CorruptHeap`] if its hidden size word
    /// was overwritten with a value outside the ladder.
    #[inline]
    pub fn free(&mut self, mem: &mut Memory, frame: WordAddr) -> Result<(), FrameError> {
        if !self.is_live(frame) {
            return Err(FrameError::InvalidFrame(frame));
        }
        self.free_live(mem, frame)
    }

    /// [`FrameHeap::free`] of a frame its owner has just found live,
    /// without checking it again. The record is dropped once the hidden
    /// size word has been read back valid.
    ///
    /// # Errors
    ///
    /// [`FrameError::CorruptHeap`] as for [`FrameHeap::free`].
    #[inline]
    pub fn free_live(&mut self, mem: &mut Memory, frame: WordAddr) -> Result<(), FrameError> {
        let size_word = WordAddr(frame.0 - 1);
        let fsi = mem.peek(size_word); // ref 1
        if fsi as usize >= self.classes.len() {
            mem.charge(1, 0);
            return Err(FrameError::CorruptHeap(size_word));
        }
        self.frames.remove(frame);
        self.link(mem, frame, fsi);
        mem.charge(2, 2);
        Ok(())
    }

    /// Frees a frame its owner holds (its record is in use): drops the
    /// record and links the frame, the four references of
    /// [`FrameHeap::free`], which the caller counts into `mem` (two
    /// reads, two writes). Returns false, having changed nothing, when
    /// the frame is not in use or its hidden size word is corrupt:
    /// [`FrameHeap::free_live`] reports those.
    #[inline(always)]
    pub fn try_free_claimed(&mut self, mem: &mut Memory, frame: WordAddr) -> bool {
        let slot = match self.frames.0.get_mut(frame.0 as usize) {
            Some(slot @ Some(FrameRecord { in_use: true, .. })) => slot,
            _ => return false,
        };
        let fsi = mem.peek(WordAddr(frame.0 - 1)); // ref 1
        if fsi as usize >= self.classes.len() {
            return false;
        }
        *slot = None;
        self.link(mem, frame, fsi);
        true
    }

    /// Pushes `frame` on class `fsi`'s list: references 2–4 of a free
    /// (the hidden size word has been read as `fsi`), counted by the
    /// caller.
    #[inline(always)]
    fn link(&mut self, mem: &mut Memory, frame: WordAddr, fsi: u16) {
        let head_slot = self.av_base.offset(fsi as u32);
        let head = mem.peek(head_slot); // ref 2
        mem.poke(frame, head); // ref 3
        mem.poke(head_slot, frame.0 as u16); // ref 4
        self.stats.fast_refs += 4;
        self.stats.frees += 1;
        self.stats.live -= 1;
    }

    /// Whether `frame` is currently live.
    #[inline]
    pub fn is_live(&self, frame: WordAddr) -> bool {
        self.frames.get(frame).is_some()
    }

    /// The software allocator: carve fresh blocks of class `fsi` from
    /// the region and push them on the free list. This is the trap path
    /// whose cost the fast path avoids.
    #[cold]
    fn replenish(&mut self, mem: &mut Memory, fsi: u8) -> Result<(), FrameError> {
        self.stats.traps += 1;
        let size = self.classes.size_of(fsi);
        let block = 1 + size; // hidden fsi word + frame
        let before = mem.stats();
        let end = if self.emergency {
            self.region_end
        } else {
            self.soft_end
        };
        let mut carved = 0;
        for _ in 0..REPLENISH_COUNT {
            if self.carve + block > end {
                break;
            }
            let frame = WordAddr(self.carve + 1);
            debug_assert_eq!(frame.0 % 2, 0, "frame misaligned");
            mem.write(WordAddr(self.carve), fsi as u16); // hidden size word
            let head_slot = self.av_base.offset(fsi as u32);
            let head = mem.read(head_slot);
            mem.write(frame, head);
            mem.write(head_slot, frame.0 as u16);
            self.carve += block;
            carved += 1;
        }
        // Every carved frame lies below `carve`, inside the region the
        // table reserved room for.
        self.frames.cover(self.carve);
        self.stats.carved_words += carved as u64 * block as u64;
        self.stats.slow_refs += mem.stats().since(before).total();
        if carved == 0 {
            Err(FrameError::OutOfMemory)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Memory, FrameHeap) {
        let mut mem = Memory::new(0x8000);
        let heap =
            FrameHeap::new(&mut mem, WordAddr(0x10), SizeClasses::mesa(), 0x100..0x8000).unwrap();
        (mem, heap)
    }

    #[test]
    fn alloc_returns_aligned_nonnil_frames() {
        let (mut mem, mut heap) = setup();
        let f = heap.alloc(&mut mem, 10).unwrap();
        assert!(!f.is_nil());
        assert_eq!(f.0 % 2, 0);
        assert!(heap.is_live(f));
    }

    #[test]
    fn fast_path_costs_exactly_three_and_four_references() {
        let (mut mem, mut heap) = setup();
        // Warm the free list: allocate and free once so a node exists.
        let f = heap.alloc(&mut mem, 10).unwrap();
        heap.free(&mut mem, f).unwrap();

        let before = mem.stats();
        let f = heap.alloc(&mut mem, 10).unwrap();
        assert_eq!(mem.stats().since(before).total(), 3, "alloc fast path");

        let before = mem.stats();
        heap.free(&mut mem, f).unwrap();
        assert_eq!(mem.stats().since(before).total(), 4, "free fast path");
    }

    #[test]
    fn claimed_allocation_writes_its_record_once() {
        let (mut mem, mut heap) = setup();
        let fsi = heap.fsi_for(10).unwrap();
        let f = heap.alloc_fsi(&mut mem, fsi).unwrap();
        heap.free(&mut mem, f).unwrap();
        let claimed = FrameRecord {
            fsi,
            addr_taken: true,
            in_use: true,
        };
        let before = mem.stats();
        let g = heap.alloc_record(&mut mem, fsi, claimed).unwrap();
        assert_eq!(g, f, "the warm list pops the freed frame");
        assert_eq!(mem.stats().since(before).total(), 3, "claimed fast path");
        assert_eq!(heap.frames_mut().get(g), Some(&claimed));
        // Its owner releases the claim and frees it without a lookup.
        assert_eq!(heap.frames_mut().release(g), Some(fsi));
        assert_eq!(heap.frames_mut().release(g), None, "claim already dropped");
        let before = mem.stats();
        heap.free_live(&mut mem, g).unwrap();
        assert_eq!(mem.stats().since(before).total(), 4, "free fast path");
        assert!(!heap.is_live(g));
        assert_eq!(heap.stats().live, 0);
        assert_eq!(heap.stats().fast_refs, 2 * (3 + 4));
    }

    #[test]
    fn freed_frame_is_reused() {
        let (mut mem, mut heap) = setup();
        let f1 = heap.alloc(&mut mem, 10).unwrap();
        heap.free(&mut mem, f1).unwrap();
        let f2 = heap.alloc(&mut mem, 10).unwrap();
        assert_eq!(f1, f2, "LIFO reuse of the per-size free list");
    }

    #[test]
    fn different_classes_use_different_lists() {
        let (mut mem, mut heap) = setup();
        let small = heap.alloc(&mut mem, 5).unwrap();
        let big = heap.alloc(&mut mem, 200).unwrap();
        heap.free(&mut mem, small).unwrap();
        // Freeing the small frame must not satisfy a big request.
        let big2 = heap.alloc(&mut mem, 200).unwrap();
        assert_ne!(big2, small);
        assert_ne!(big2, big);
    }

    #[test]
    fn non_lifo_free_order_is_fine() {
        // The whole point (§5.3): "it does not depend on a last-in
        // first-out discipline".
        let (mut mem, mut heap) = setup();
        let frames: Vec<_> = (0..16).map(|_| heap.alloc(&mut mem, 12).unwrap()).collect();
        for f in frames.iter().step_by(2) {
            heap.free(&mut mem, *f).unwrap();
        }
        for f in frames.iter().skip(1).step_by(2) {
            heap.free(&mut mem, *f).unwrap();
        }
        assert_eq!(heap.stats().live, 0);
    }

    #[test]
    fn double_free_detected() {
        let (mut mem, mut heap) = setup();
        let f = heap.alloc(&mut mem, 10).unwrap();
        heap.free(&mut mem, f).unwrap();
        assert_eq!(heap.free(&mut mem, f), Err(FrameError::InvalidFrame(f)));
    }

    #[test]
    fn free_of_garbage_detected() {
        let (mut mem, mut heap) = setup();
        assert!(matches!(
            heap.free(&mut mem, WordAddr(0x200)),
            Err(FrameError::InvalidFrame(_))
        ));
    }

    #[test]
    fn oversize_request_rejected() {
        let (mut mem, mut heap) = setup();
        let too_big = heap.classes().max_words() + 1;
        assert_eq!(
            heap.alloc(&mut mem, too_big),
            Err(FrameError::OversizeRequest { words: too_big })
        );
    }

    #[test]
    fn region_exhaustion_reported() {
        let mut mem = Memory::new(0x400);
        let mut heap =
            FrameHeap::new(&mut mem, WordAddr(0x10), SizeClasses::mesa(), 0x100..0x180).unwrap();
        let mut live = Vec::new();
        let err = loop {
            match heap.alloc(&mut mem, 9) {
                Ok(f) => live.push(f),
                Err(e) => break e,
            }
        };
        assert_eq!(err, FrameError::OutOfMemory);
        assert!(!live.is_empty());
    }

    #[test]
    fn fragmentation_accounting() {
        let (mut mem, mut heap) = setup();
        // Request sizes that sit mid-class.
        for words in [5u32, 10, 15, 20, 40, 80] {
            let _ = heap.alloc(&mut mem, words).unwrap();
        }
        let frag = heap.stats().fragmentation();
        assert!(frag > 0.0 && frag < 0.5, "fragmentation {frag}");
        assert_eq!(heap.stats().allocs, 6);
        assert_eq!(heap.stats().peak_live, 6);
    }

    #[test]
    fn traps_counted_and_amortised() {
        let (mut mem, mut heap) = setup();
        let mut frames = Vec::new();
        for _ in 0..32 {
            frames.push(heap.alloc(&mut mem, 9).unwrap());
        }
        // 32 allocations of one class with REPLENISH_COUNT=4: 8 traps.
        assert_eq!(heap.stats().traps, 8);
        assert!(heap.stats().slow_refs > 0);
        // Fast path refs are exactly 3 per alloc.
        assert_eq!(heap.stats().fast_refs, 32 * 3);
    }

    #[test]
    fn hidden_size_word_survives_reuse_cycles() {
        let (mut mem, mut heap) = setup();
        let f = heap.alloc(&mut mem, 9).unwrap();
        let fsi = mem.peek(WordAddr(f.0 - 1));
        heap.free(&mut mem, f).unwrap();
        let f2 = heap.alloc(&mut mem, 9).unwrap();
        assert_eq!(f, f2);
        assert_eq!(mem.peek(WordAddr(f2.0 - 1)), fsi);
    }

    #[test]
    fn reserve_is_withheld_until_donated() {
        let mut mem = Memory::new(0x400);
        let mut heap = FrameHeap::with_reserve(
            &mut mem,
            WordAddr(0x10),
            SizeClasses::mesa(),
            0x100..0x200,
            0x80,
        )
        .unwrap();
        assert_eq!(heap.reserve_words(), 0x80);
        let mut live = Vec::new();
        let err = loop {
            match heap.alloc(&mut mem, 9) {
                Ok(f) => live.push(f),
                Err(e) => break e,
            }
        };
        assert_eq!(err, FrameError::OutOfMemory);
        let held_back = live.len();
        // Donating the reserve lets allocation continue.
        assert_eq!(heap.donate(0x80), 0x80);
        assert_eq!(heap.reserve_words(), 0);
        assert!(heap.alloc(&mut mem, 9).is_ok());
        // A second donation grants nothing.
        assert_eq!(heap.donate(16), 0);
        // And the reserve roughly doubles capacity here.
        while let Ok(f) = heap.alloc(&mut mem, 9) {
            live.push(f);
        }
        assert!(live.len() > held_back);
        assert_eq!(heap.stats().donated_words, 0x80);
    }

    #[test]
    fn emergency_mode_carves_past_the_soft_end() {
        let mut mem = Memory::new(0x400);
        let mut heap = FrameHeap::with_reserve(
            &mut mem,
            WordAddr(0x10),
            SizeClasses::mesa(),
            0x100..0x200,
            0x80,
        )
        .unwrap();
        while heap.alloc(&mut mem, 9).is_ok() {}
        assert_eq!(heap.alloc(&mut mem, 9), Err(FrameError::OutOfMemory));
        heap.set_emergency(true);
        assert!(heap.alloc(&mut mem, 9).is_ok());
        heap.set_emergency(false);
        // The soft end is unchanged: emergency carving borrows from the
        // reserve without re-drawing the donation boundary.
        assert_eq!(heap.reserve_words(), 0x80);
    }

    #[test]
    fn scribbled_fsi_word_is_a_typed_error() {
        let (mut mem, mut heap) = setup();
        let f = heap.alloc(&mut mem, 10).unwrap();
        mem.poke(WordAddr(f.0 - 1), 0xBEEF); // corrupt the hidden fsi
        assert_eq!(
            heap.free(&mut mem, f),
            Err(FrameError::CorruptHeap(WordAddr(f.0 - 1)))
        );
        // The frame stays live: the error is reported, not masked.
        assert!(heap.is_live(f));
    }

    #[test]
    fn scribbled_free_list_head_is_a_typed_error() {
        let (mut mem, mut heap) = setup();
        let f = heap.alloc(&mut mem, 10).unwrap();
        heap.free(&mut mem, f).unwrap();
        // Point the AV head at a live frame of another class.
        let live = heap.alloc(&mut mem, 200).unwrap();
        let fsi = heap.fsi_for(10).unwrap();
        mem.poke(WordAddr(0x10 + fsi as u32), live.0 as u16);
        assert!(matches!(
            heap.alloc(&mut mem, 10),
            Err(FrameError::CorruptHeap(_))
        ));
    }

    #[test]
    fn oversize_fsi_is_a_typed_error() {
        let (mut mem, mut heap) = setup();
        assert!(matches!(
            heap.alloc_fsi(&mut mem, 0xFF),
            Err(FrameError::OversizeRequest { .. })
        ));
    }

    #[test]
    fn av_overlap_is_a_panic() {
        let mut mem = Memory::new(0x1000);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FrameHeap::new(
                &mut mem,
                WordAddr(0x100),
                SizeClasses::mesa(),
                0x100..0x1000,
            )
        }));
        assert!(r.is_err());
    }
}
