//! The byte-coded object program store.

use crate::ByteAddr;

/// Byte-addressed code storage.
///
/// Code is written once by the linker (or assembler) and then only read.
/// Reads through [`CodeStore::fetch`] count as instruction-stream
/// references; the paper's entry-vector (EV) lives in the code segment
/// and its reads are counted separately via [`CodeStore::read_table`],
/// because they are data-like references made by the call microcode
/// rather than sequential instruction fetches.
///
/// # Example
///
/// ```
/// use fpc_mem::{ByteAddr, CodeStore};
///
/// let mut c = CodeStore::new();
/// let base = c.append(&[0x01, 0x02]);
/// assert_eq!(base, ByteAddr(0));
/// assert_eq!(c.fetch(ByteAddr(1)), 0x02);
/// assert_eq!(c.stats().fetches, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CodeStore {
    bytes: Vec<u8>,
    stats: CodeStats,
    /// Bumped on every mutation (`append`, `poke`) so host-side caches
    /// over the code bytes (e.g. the VM's predecoded instruction
    /// stream) can detect staleness with one comparison.
    version: u64,
}

/// Reference counts for a [`CodeStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CodeStats {
    /// Instruction-stream byte fetches.
    pub fetches: u64,
    /// Table reads (entry-vector lookups) made by transfer microcode.
    pub table_reads: u64,
}

impl CodeStore {
    /// Creates an empty code store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes and returns the base address of the appended run.
    pub fn append(&mut self, bytes: &[u8]) -> ByteAddr {
        let base = ByteAddr(self.bytes.len() as u32);
        self.bytes.extend_from_slice(bytes);
        self.version += 1;
        base
    }

    /// Total code size in bytes.
    pub fn len(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Whether no code has been loaded.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Architectural instruction fetch; counted.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is past the end of code — the program counter ran
    /// off the program, a linker or interpreter bug.
    #[inline]
    pub fn fetch(&mut self, addr: ByteAddr) -> u8 {
        self.stats.fetches += 1;
        self.bytes[addr.0 as usize]
    }

    /// A 16-bit little-endian table entry read by transfer microcode
    /// (e.g. an entry-vector slot); counted as one table reference, as
    /// the paper counts EV lookups as single memory references.
    ///
    /// # Panics
    ///
    /// Panics if the two bytes are not in range.
    #[inline]
    pub fn read_table(&mut self, addr: ByteAddr) -> u16 {
        self.stats.table_reads += 1;
        let lo = self.bytes[addr.0 as usize] as u16;
        let hi = self.bytes[addr.0 as usize + 1] as u16;
        lo | (hi << 8)
    }

    /// Counts `n` table reads without performing them — the
    /// [`crate::Memory::charge`] analogue for entry-vector
    /// lookups, used by host-side caches that memoise a resolved
    /// transfer target but still owe the simulated machine its
    /// references.
    #[inline]
    pub fn charge_table_reads(&mut self, n: u64) {
        self.stats.table_reads += n;
    }

    /// Uncounted read, for disassembly and tests.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn peek(&self, addr: ByteAddr) -> u8 {
        self.bytes[addr.0 as usize]
    }

    /// Host-side write, for loaders and code movers (the paper's §5
    /// point T2: tables make objects movable); not counted.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn poke(&mut self, addr: ByteAddr, value: u8) {
        self.bytes[addr.0 as usize] = value;
        self.version += 1;
    }

    /// Mutation counter: changes whenever the code bytes may have
    /// changed. Caches keyed on this value (and nothing else) are
    /// always coherent with [`CodeStore::bytes`].
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bumps the mutation counter without touching the bytes — models a
    /// code segment being swapped out or back in: the bytes a loader
    /// would reinstate are identical, but every host-side cache must
    /// re-validate across the unbind/bind transition.
    #[inline]
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Uncounted 16-bit little-endian read.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn peek_u16(&self, addr: ByteAddr) -> u16 {
        let lo = self.bytes[addr.0 as usize] as u16;
        let hi = self.bytes[addr.0 as usize + 1] as u16;
        lo | (hi << 8)
    }

    /// The raw code bytes (for static-size analyses).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Current reference counters.
    pub fn stats(&self) -> CodeStats {
        self.stats
    }

    /// Resets the reference counters.
    pub fn reset_stats(&mut self) {
        self.stats = CodeStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_returns_consecutive_bases() {
        let mut c = CodeStore::new();
        assert!(c.is_empty());
        let a = c.append(&[1, 2, 3]);
        let b = c.append(&[4]);
        assert_eq!(a, ByteAddr(0));
        assert_eq!(b, ByteAddr(3));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn fetch_counts_but_peek_does_not() {
        let mut c = CodeStore::new();
        c.append(&[9, 8]);
        let _ = c.peek(ByteAddr(0));
        assert_eq!(c.stats().fetches, 0);
        assert_eq!(c.fetch(ByteAddr(0)), 9);
        assert_eq!(c.stats().fetches, 1);
    }

    #[test]
    fn table_reads_are_little_endian_and_counted() {
        let mut c = CodeStore::new();
        c.append(&[0x34, 0x12]);
        assert_eq!(c.read_table(ByteAddr(0)), 0x1234);
        assert_eq!(c.peek_u16(ByteAddr(0)), 0x1234);
        assert_eq!(c.stats().table_reads, 1);
    }

    #[test]
    fn version_tracks_mutation_only() {
        let mut c = CodeStore::new();
        let v0 = c.version();
        c.append(&[1, 2]);
        let v1 = c.version();
        assert_ne!(v0, v1);
        let _ = c.fetch(ByteAddr(0));
        let _ = c.peek(ByteAddr(1));
        let _ = c.read_table(ByteAddr(0));
        assert_eq!(c.version(), v1, "reads do not invalidate");
        c.poke(ByteAddr(0), 9);
        assert_ne!(c.version(), v1);
    }

    #[test]
    fn charged_table_reads_count_without_reading() {
        let mut c = CodeStore::new();
        c.append(&[0x34, 0x12]);
        let v = c.version();
        c.charge_table_reads(2);
        assert_eq!(c.stats().table_reads, 2);
        assert_eq!(c.version(), v, "charging is not a mutation");
    }

    #[test]
    fn bump_version_invalidates_without_mutation() {
        let mut c = CodeStore::new();
        c.append(&[1, 2]);
        let v = c.version();
        let bytes = c.bytes().to_vec();
        c.bump_version();
        assert_ne!(c.version(), v);
        assert_eq!(c.bytes(), &bytes[..], "bytes untouched");
    }

    #[test]
    #[should_panic]
    fn fetch_past_end_panics() {
        let mut c = CodeStore::new();
        c.append(&[0]);
        let _ = c.fetch(ByteAddr(1));
    }
}
