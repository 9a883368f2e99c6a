//! Word-addressed data storage with reference accounting.

use crate::{Word, WordAddr};

/// Reference counts for a [`Memory`].
///
/// The paper's cost comparisons are in units of memory references, so the
/// simulator needs these to be exact: every architectural data reference
/// goes through [`Memory::read`]/[`Memory::write`] and bumps a counter,
/// while host-side inspection uses [`Memory::peek`]/[`Memory::poke`],
/// which do not.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Architectural data-word reads.
    pub data_reads: u64,
    /// Architectural data-word writes.
    pub data_writes: u64,
}

impl MemStats {
    /// Total architectural references (reads + writes).
    pub fn total(&self) -> u64 {
        self.data_reads + self.data_writes
    }

    /// References accumulated since an earlier snapshot.
    pub fn since(&self, earlier: MemStats) -> MemStats {
        MemStats {
            data_reads: self.data_reads - earlier.data_reads,
            data_writes: self.data_writes - earlier.data_writes,
        }
    }
}

/// Word-addressed data storage.
///
/// Word 0 is reserved as the nil word (see [`WordAddr::NIL`]); reading it
/// is legal and yields 0, but well-formed programs never store there.
///
/// # Example
///
/// ```
/// use fpc_mem::{Memory, WordAddr};
///
/// let mut m = Memory::new(64);
/// m.write(WordAddr(5), 42);
/// let before = m.stats();
/// assert_eq!(m.read(WordAddr(5)), 42);
/// assert_eq!(m.stats().since(before).data_reads, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    words: Vec<Word>,
    stats: MemStats,
    /// One flag per word: stores to flagged words bump [`Memory::table_gen`].
    watched: Vec<bool>,
    table_gen: u64,
}

/// The recyclable backing store of a retired [`Memory`]: the word and
/// watch-flag vectors with their host allocations intact.
///
/// A host that churns through many short-lived machines (a scheduler
/// retiring and respawning guest contexts) hands buffers back to
/// [`Memory::with_buffer`] so steady-state context creation reuses the
/// arena instead of going to the host allocator.
#[derive(Debug, Default)]
pub struct MemoryBuffer {
    words: Vec<Word>,
    watched: Vec<bool>,
}

impl MemoryBuffer {
    /// Host-word capacity currently held (the larger of the two
    /// vectors' capacities, in words).
    pub fn capacity(&self) -> usize {
        self.words.capacity().max(self.watched.capacity())
    }
}

impl Memory {
    /// Creates a zeroed memory of `size` words.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero (word 0 must exist as nil).
    pub fn new(size: u32) -> Self {
        assert!(size > 0, "memory must contain at least the nil word");
        Memory {
            words: vec![0; size as usize],
            stats: MemStats::default(),
            watched: vec![false; size as usize],
            table_gen: 0,
        }
    }

    /// Creates a zeroed memory of `size` words inside a recycled
    /// buffer: the vectors are cleared and re-zeroed but keep their
    /// allocations, so no host allocation happens when the buffer's
    /// capacity already covers `size`. Semantically identical to
    /// [`Memory::new`] — stats and the table generation start at zero.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn with_buffer(size: u32, buf: MemoryBuffer) -> Self {
        assert!(size > 0, "memory must contain at least the nil word");
        let MemoryBuffer {
            mut words,
            mut watched,
        } = buf;
        words.clear();
        words.resize(size as usize, 0);
        watched.clear();
        watched.resize(size as usize, false);
        Memory {
            words,
            stats: MemStats::default(),
            watched,
            table_gen: 0,
        }
    }

    /// Dismantles the memory into its recyclable backing store.
    pub fn into_buffer(self) -> MemoryBuffer {
        MemoryBuffer {
            words: self.words,
            watched: self.watched,
        }
    }

    /// Marks `addr` as a transfer-table word: any store to it (counted
    /// or host-side) bumps the generation returned by
    /// [`Memory::table_gen`]. Host-side caches derived from table words
    /// — e.g. the VM's native tier, whose compiled call sites resolve
    /// through the GFT and the global frames' code-base words — key
    /// themselves on that generation, so a simulated program
    /// overwriting a table entry invalidates them without any
    /// per-cache hook.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn watch(&mut self, addr: WordAddr) {
        self.watched[addr.0 as usize] = true;
    }

    /// Watches `len` consecutive words starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of memory.
    pub fn watch_range(&mut self, start: WordAddr, len: u32) {
        for i in 0..len {
            self.watch(start.offset(i));
        }
    }

    /// Generation of the watched (transfer-table) words: bumped by
    /// every store to a watched word. Monotonic; never reset.
    #[inline]
    pub fn table_gen(&self) -> u64 {
        self.table_gen
    }

    /// Counts `n` architectural reads without performing them.
    ///
    /// This exists for host-side memoisation that must preserve the
    /// paper's reference arithmetic: a cache that remembers the result
    /// of an N-read table walk still owes the simulated machine those N
    /// references, it merely skips the host work of the walk. Charging
    /// keeps [`MemStats`] bit-identical to the uncached run.
    #[inline]
    pub fn charge_reads(&mut self, n: u64) {
        self.stats.data_reads += n;
    }

    /// Number of words.
    pub fn size(&self) -> u32 {
        self.words.len() as u32
    }

    /// Architectural read: counted in [`MemStats`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range — an out-of-range architectural
    /// reference is a simulator bug, not a program error, because the
    /// frame allocator and linker only hand out in-range addresses.
    #[inline]
    pub fn read(&mut self, addr: WordAddr) -> Word {
        self.stats.data_reads += 1;
        self.words[addr.0 as usize]
    }

    /// Architectural write: counted in [`MemStats`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn write(&mut self, addr: WordAddr, value: Word) {
        self.stats.data_writes += 1;
        if self.watched[addr.0 as usize] {
            self.table_gen += 1;
        }
        self.words[addr.0 as usize] = value;
    }

    /// Host-side read for inspection and test assertions; not counted.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn peek(&self, addr: WordAddr) -> Word {
        self.words[addr.0 as usize]
    }

    /// Host-side write for image loading; not counted.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn poke(&mut self, addr: WordAddr, value: Word) {
        if self.watched[addr.0 as usize] {
            self.table_gen += 1;
        }
        self.words[addr.0 as usize] = value;
    }

    /// Current reference counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets the reference counters (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_writes_round_trip() {
        let mut m = Memory::new(16);
        m.write(WordAddr(3), 0x1234);
        assert_eq!(m.read(WordAddr(3)), 0x1234);
    }

    #[test]
    fn recycled_buffer_is_indistinguishable_from_fresh() {
        let mut dirty = Memory::new(64);
        dirty.watch(WordAddr(5));
        dirty.write(WordAddr(5), 9); // stats, watch flags, generation all dirty
        let buf = dirty.into_buffer();
        assert!(buf.capacity() >= 64);

        let mut reused = Memory::with_buffer(32, buf);
        assert_eq!(reused.size(), 32);
        assert_eq!(reused.stats().total(), 0);
        assert_eq!(reused.table_gen(), 0);
        for i in 0..32 {
            assert_eq!(reused.peek(WordAddr(i)), 0, "word {i} not zeroed");
        }
        // The old watch flag must not survive into the new lease.
        reused.write(WordAddr(5), 1);
        assert_eq!(reused.table_gen(), 0, "stale watch flag leaked");
    }

    #[test]
    fn with_buffer_can_grow_past_the_recycled_capacity() {
        let m = Memory::with_buffer(128, Memory::new(8).into_buffer());
        assert_eq!(m.size(), 128);
        assert_eq!(m.peek(WordAddr(127)), 0);
    }

    #[test]
    fn stats_count_only_architectural_accesses() {
        let mut m = Memory::new(16);
        m.poke(WordAddr(1), 7);
        assert_eq!(m.stats().total(), 0);
        let _ = m.peek(WordAddr(1));
        assert_eq!(m.stats().total(), 0);
        m.write(WordAddr(1), 8);
        let _ = m.read(WordAddr(1));
        assert_eq!(
            m.stats(),
            MemStats {
                data_reads: 1,
                data_writes: 1
            }
        );
    }

    #[test]
    fn since_gives_deltas() {
        let mut m = Memory::new(16);
        m.write(WordAddr(1), 1);
        let snap = m.stats();
        m.write(WordAddr(2), 2);
        let _ = m.read(WordAddr(2));
        let d = m.stats().since(snap);
        assert_eq!(d.data_reads, 1);
        assert_eq!(d.data_writes, 1);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut m = Memory::new(16);
        m.write(WordAddr(1), 1);
        m.reset_stats();
        assert_eq!(m.stats().total(), 0);
    }

    #[test]
    fn watched_words_bump_the_generation() {
        let mut m = Memory::new(16);
        m.watch(WordAddr(3));
        m.watch_range(WordAddr(8), 2);
        assert_eq!(m.table_gen(), 0);
        m.write(WordAddr(1), 5); // unwatched: no bump
        assert_eq!(m.table_gen(), 0);
        m.write(WordAddr(3), 5);
        assert_eq!(m.table_gen(), 1);
        m.poke(WordAddr(9), 7); // host-side stores count too
        assert_eq!(m.table_gen(), 2);
        m.reset_stats(); // counters reset; the generation must not
        assert_eq!(m.table_gen(), 2);
    }

    #[test]
    fn charged_reads_count_without_touching_words() {
        let mut m = Memory::new(16);
        m.poke(WordAddr(1), 42);
        m.charge_reads(3);
        assert_eq!(
            m.stats(),
            MemStats {
                data_reads: 3,
                data_writes: 0
            }
        );
        assert_eq!(m.peek(WordAddr(1)), 42, "words untouched");
    }

    #[test]
    #[should_panic]
    fn zero_sized_memory_rejected() {
        let _ = Memory::new(0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        let mut m = Memory::new(4);
        let _ = m.read(WordAddr(4));
    }
}
