//! The processor's free-frame stack (paper §7.1).
//!
//! "Since nearly all local frames are fairly small, a reasonable
//! strategy is to make the smallest frame size the 80 bytes just cited;
//! hopefully this would handle 95% of all frame allocations. Now the
//! processor can keep a stack of free frames of this size, and
//! allocation will be extremely fast; furthermore, it can be done in
//! parallel with the rest of an XFER operation."
//!
//! The cache holds frames of one **standard** size class. Requests at
//! or below that class pop a frame with zero serial memory references;
//! larger requests and cache misses fall back to the AV heap.

use fpc_frames::{FrameError, FrameHeap, FrameRecord};
use fpc_mem::{Memory, WordAddr};

/// Counters kept by the frame cache (experiment E8).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Allocations served from the cache (zero references).
    pub hits: u64,
    /// Allocations that fell back to the AV heap.
    pub misses: u64,
    /// Frees absorbed by the cache (zero references).
    pub fast_frees: u64,
    /// Frees that went to the AV heap (cache full or non-standard).
    pub slow_frees: u64,
}

impl CacheStats {
    /// Fraction of allocations served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

/// The free-frame stack in processor registers.
#[derive(Debug, Clone)]
pub struct FrameCache {
    frames: Vec<WordAddr>,
    capacity: usize,
    standard_fsi: u8,
    stats: CacheStats,
}

impl FrameCache {
    /// The standard frame size in words (the paper's 80 bytes).
    pub const STANDARD_WORDS: u32 = 40;

    /// Creates a cache of `capacity` standard frames over `heap`'s
    /// ladder.
    ///
    /// # Panics
    ///
    /// Panics if the ladder cannot hold a standard frame or `capacity`
    /// is zero.
    pub fn new(heap: &FrameHeap, capacity: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one frame");
        let standard_fsi = heap
            .classes()
            .fsi_for(Self::STANDARD_WORDS)
            .expect("ladder covers the standard frame size");
        FrameCache {
            frames: Vec::with_capacity(capacity),
            capacity,
            standard_fsi,
            stats: CacheStats::default(),
        }
    }

    /// The standard size class.
    pub fn standard_fsi(&self) -> u8 {
        self.standard_fsi
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Current cached frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the cache holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Allocates a frame of class `fsi`.
    ///
    /// At or below the standard class and with the cache non-empty,
    /// this is a register pop: **zero** memory references. Otherwise
    /// the AV heap runs (its usual 3 references, plus any trap).
    ///
    /// Returns the frame and the class it actually occupies.
    ///
    /// # Errors
    ///
    /// Propagates AV-heap errors on the fallback path.
    #[inline]
    pub fn alloc(
        &mut self,
        heap: &mut FrameHeap,
        mem: &mut Memory,
        fsi: u8,
    ) -> Result<(WordAddr, u8), FrameError> {
        let class = self.class_for(fsi);
        let unclaimed = FrameRecord {
            fsi: class,
            ..Default::default()
        };
        Ok((self.alloc_record(heap, mem, unclaimed)?, class))
    }

    /// [`FrameCache::alloc`] for a frame of class `record.fsi` whose
    /// one record is `record`: a cached frame's record is overwritten,
    /// a heap frame is recorded as [`FrameHeap::alloc_record`] pops it.
    ///
    /// # Errors
    ///
    /// As [`FrameCache::alloc`].
    #[inline]
    pub fn alloc_record(
        &mut self,
        heap: &mut FrameHeap,
        mem: &mut Memory,
        record: FrameRecord,
    ) -> Result<WordAddr, FrameError> {
        if record.fsi <= self.standard_fsi {
            if let Some(f) = self.frames.pop() {
                self.stats.hits += 1;
                heap.frames_mut().insert(f, record);
                return Ok(f);
            }
        }
        self.stats.misses += 1;
        heap.alloc_record(mem, self.class_for(record.fsi), record)
    }

    /// The class a request of class `fsi` occupies.
    #[inline(always)]
    fn class_for(&self, fsi: u8) -> u8 {
        fsi.max(self.standard_fsi)
    }

    /// Frees a frame allocated for class `fsi` (the class asked of
    /// [`FrameCache::alloc`], or the one it returned).
    ///
    /// Standard frames go back on the register stack for free while
    /// there is room; everything else takes the AV heap's 4 references.
    ///
    /// # Errors
    ///
    /// Propagates AV-heap errors.
    #[inline]
    pub fn free(
        &mut self,
        heap: &mut FrameHeap,
        mem: &mut Memory,
        frame: WordAddr,
        fsi: u8,
    ) -> Result<(), FrameError> {
        if fsi <= self.standard_fsi && self.frames.len() < self.capacity {
            self.stats.fast_frees += 1;
            self.frames.push(frame);
            Ok(())
        } else {
            self.stats.slow_frees += 1;
            heap.free(mem, frame)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpc_frames::SizeClasses;

    fn setup() -> (Memory, FrameHeap) {
        let mut mem = Memory::new(0x8000);
        let heap =
            FrameHeap::new(&mut mem, WordAddr(0x10), SizeClasses::mesa(), 0x100..0x8000).unwrap();
        (mem, heap)
    }

    #[test]
    fn warm_cache_allocates_with_zero_references() {
        let (mut mem, mut heap) = setup();
        let mut cache = FrameCache::new(&heap, 4);
        // Warm: one alloc-free cycle through the heap.
        let (f, fsi) = cache.alloc(&mut heap, &mut mem, 0).unwrap();
        cache.free(&mut heap, &mut mem, f, fsi).unwrap();

        let before = mem.stats();
        let (f, fsi) = cache.alloc(&mut heap, &mut mem, 0).unwrap();
        assert_eq!(mem.stats().since(before).total(), 0, "cache hit is free");
        let before = mem.stats();
        cache.free(&mut heap, &mut mem, f, fsi).unwrap();
        assert_eq!(mem.stats().since(before).total(), 0, "cache free is free");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().fast_frees, 2);
    }

    #[test]
    fn small_requests_get_standard_frames() {
        let (mut mem, mut heap) = setup();
        let mut cache = FrameCache::new(&heap, 4);
        let (_, fsi) = cache.alloc(&mut heap, &mut mem, 0).unwrap();
        assert_eq!(fsi, cache.standard_fsi());
        assert!(heap.classes().size_of(fsi) >= FrameCache::STANDARD_WORDS);
    }

    #[test]
    fn oversize_requests_bypass_the_cache() {
        let (mut mem, mut heap) = setup();
        let mut cache = FrameCache::new(&heap, 4);
        let big_fsi = heap.classes().fsi_for(500).unwrap();
        let (f, fsi) = cache.alloc(&mut heap, &mut mem, big_fsi).unwrap();
        assert_eq!(fsi, big_fsi);
        cache.free(&mut heap, &mut mem, f, fsi).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().slow_frees, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn full_cache_overflows_to_heap() {
        let (mut mem, mut heap) = setup();
        let mut cache = FrameCache::new(&heap, 2);
        let frames: Vec<_> = (0..3)
            .map(|_| cache.alloc(&mut heap, &mut mem, 0).unwrap())
            .collect();
        for (f, fsi) in frames {
            cache.free(&mut heap, &mut mem, f, fsi).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().fast_frees, 2);
        assert_eq!(cache.stats().slow_frees, 1);
    }

    #[test]
    fn hit_rate_reported() {
        let (mut mem, mut heap) = setup();
        let mut cache = FrameCache::new(&heap, 4);
        let (f, fsi) = cache.alloc(&mut heap, &mut mem, 0).unwrap(); // miss
        cache.free(&mut heap, &mut mem, f, fsi).unwrap();
        let (_, _) = cache.alloc(&mut heap, &mut mem, 0).unwrap(); // hit
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
