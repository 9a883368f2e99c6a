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
    /// References charged with [`Memory::charge_refs`]: counted in
    /// [`Memory::refs`], not in `stats`.
    charged: u64,
    /// One flag per word below the highest watched word: stores to
    /// flagged words bump [`Memory::table_gen`]. Its length is the watch
    /// bound; a store at or above it skips the lookup, so the frame
    /// region, which lies above every transfer table, pays one compare.
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
            charged: 0,
            watched: Vec::new(),
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
        Memory {
            words,
            stats: MemStats::default(),
            charged: 0,
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
    /// [`Memory::table_gen`]. A host-side cache derived from table words
    /// can key itself on that generation, so a simulated program
    /// overwriting a table entry invalidates it without any per-cache
    /// hook. The VM's native tier is keyed on it, but binds no table
    /// word: it resolves known call targets from the code store alone
    /// and walks the tables at run time for the rest. There a watched
    /// store only ends the burst and recompiles the image.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn watch(&mut self, addr: WordAddr) {
        self.watch_range(addr, 1);
    }

    /// Watches `len` consecutive words starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of memory.
    pub fn watch_range(&mut self, start: WordAddr, len: u32) {
        let (lo, hi) = (start.0 as usize, start.0 as usize + len as usize);
        assert!(
            hi <= self.words.len(),
            "watched words {start}+{len} out of range"
        );
        if hi > self.watched.len() {
            self.watched.resize(hi, false);
        }
        self.watched[lo..hi].fill(true);
    }

    /// Generation of the watched (transfer-table) words: bumped by
    /// every store to a watched word. Monotonic; never reset.
    #[inline]
    pub fn table_gen(&self) -> u64 {
        self.table_gen
    }

    /// Counts `reads` architectural reads and `writes` architectural
    /// writes without performing them through [`Memory::read`] and
    /// [`Memory::write`].
    ///
    /// A path that makes a fixed group of references (a frame
    /// allocation's three, say) does them with
    /// [`Memory::peek`]/[`Memory::poke`] and counts the group once, so
    /// the counters move once per group instead of once per word. A
    /// host-side shortcut that skips a walk still owes the simulated
    /// machine the walk's references and charges them here. Either way
    /// [`MemStats`] stays bit-identical to doing every access one by
    /// one.
    #[inline(always)]
    pub fn charge(&mut self, reads: u64, writes: u64) {
        self.stats.data_reads += reads;
        self.stats.data_writes += writes;
    }

    /// Counts `n` references made outside data memory (code-table
    /// reads, a modelled allocator's list walk) into [`Memory::refs`]
    /// only: [`MemStats`] does not see them, and
    /// [`Memory::reset_stats`] keeps them.
    #[inline]
    pub fn charge_refs(&mut self, n: u64) {
        self.charged += n;
    }

    /// Every counted reference so far: [`MemStats::total`] plus the
    /// references charged with [`Memory::charge_refs`]. The difference
    /// of two readings is what the references between them cost.
    #[inline]
    pub fn refs(&self) -> u64 {
        self.stats.total() + self.charged
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
    #[inline(always)]
    pub fn read(&mut self, addr: WordAddr) -> Word {
        self.stats.data_reads += 1;
        self.words[addr.0 as usize]
    }

    /// Architectural write: counted in [`MemStats`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline(always)]
    pub fn write(&mut self, addr: WordAddr, value: Word) {
        self.stats.data_writes += 1;
        self.note_store(addr);
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
        self.note_store(addr);
        self.words[addr.0 as usize] = value;
    }

    /// Bumps the table generation for a store to a watched word. Words
    /// at or above the watch bound are never watched.
    #[inline(always)]
    fn note_store(&mut self, addr: WordAddr) {
        if self.watched.get(addr.0 as usize).copied().unwrap_or(false) {
            self.table_gen += 1;
        }
    }

    /// Current reference counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets the data reference counters (e.g. after a warm-up
    /// phase). References charged with [`Memory::charge_refs`] stay
    /// counted in [`Memory::refs`].
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
    fn stores_above_the_watch_bound_skip_the_generation() {
        let mut m = Memory::new(64);
        m.watch(WordAddr(10));
        m.write(WordAddr(10), 1); // watched, below the bound
        assert_eq!(m.table_gen(), 1);
        m.write(WordAddr(11), 1); // at the bound
        m.write(WordAddr(40), 1); // above it
        m.poke(WordAddr(63), 1);
        assert_eq!(m.table_gen(), 1);
        m.write(WordAddr(9), 1); // below the bound, unwatched
        assert_eq!(m.table_gen(), 1);
        // Watching a higher word moves the bound past it.
        m.watch(WordAddr(40));
        m.write(WordAddr(40), 2);
        assert_eq!(m.table_gen(), 2);
        m.write(WordAddr(39), 2);
        m.write(WordAddr(41), 2);
        assert_eq!(m.table_gen(), 2);
        m.write(WordAddr(10), 2); // the lower watch still holds
        assert_eq!(m.table_gen(), 3);
    }

    #[test]
    #[should_panic]
    fn watching_past_the_end_panics() {
        Memory::new(4).watch(WordAddr(4));
    }

    #[test]
    fn charged_refs_count_in_refs_only() {
        let mut m = Memory::new(16);
        m.write(WordAddr(1), 1);
        let _ = m.read(WordAddr(1));
        m.charge(2, 0);
        m.charge_refs(5);
        assert_eq!(
            m.stats(),
            MemStats {
                data_reads: 3,
                data_writes: 1
            }
        );
        assert_eq!(m.refs(), 9);
        m.reset_stats();
        assert_eq!(m.stats().total(), 0);
        assert_eq!(m.refs(), 5, "charged references survive a reset");
    }

    #[test]
    fn charged_accesses_count_without_touching_words() {
        let mut m = Memory::new(16);
        m.poke(WordAddr(1), 42);
        m.charge(3, 2);
        assert_eq!(
            m.stats(),
            MemStats {
                data_reads: 3,
                data_writes: 2
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
