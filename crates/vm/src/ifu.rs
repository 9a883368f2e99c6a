//! The instruction-fetch-unit return-prediction stack (paper §6).
//!
//! "The IFU can keep a small stack of return information: frame
//! pointer, global frame pointer GF and PC. As long as calls and
//! returns follow a LIFO discipline this allows returns to be handled
//! as fast as calls. When something unusual happens (e.g., any XFER
//! other than a simple call or return, or running out of space in the
//! return stack), fall back to the general scheme by flushing the
//! return stack."
//!
//! The stack itself is bookkeeping; the memory writes implied by a
//! flush or eviction (the caller's PC into its frame, the frame pointer
//! into the callee's return link) are performed by the machine, which
//! receives the affected entries from [`ReturnStack::push`] and
//! [`ReturnStack::flush`].

use fpc_mem::{ByteAddr, WordAddr};

/// One suspended caller recorded by the IFU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReturnEntry {
    /// The caller's local frame.
    pub frame: WordAddr,
    /// The caller's global frame.
    pub gf: WordAddr,
    /// The caller's code base (cached so a fast return restores it
    /// without touching the global frame).
    pub code_base: ByteAddr,
    /// Absolute resume address.
    pub pc: ByteAddr,
}

/// Counters kept by the return stack (experiment E5).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReturnStackStats {
    /// Entries pushed (calls while the stack is enabled).
    pub pushes: u64,
    /// Returns served from the stack (fast).
    pub hits: u64,
    /// Returns that found the stack empty (slow path).
    pub misses: u64,
    /// Entries evicted because the stack was full.
    pub evictions: u64,
    /// Whole-stack flushes (unusual XFERs).
    pub flushes: u64,
}

impl ReturnStackStats {
    /// Fraction of returns served from the stack.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bounded return-prediction stack.
///
/// A capacity of zero disables it (every pop is a miss), which is how
/// the I1/I2 configurations run. The entries live in a fixed ring: a
/// push onto a full stack overwrites the oldest entry in place.
#[derive(Debug, Clone, Default)]
pub struct ReturnStack {
    ring: Vec<ReturnEntry>,
    /// Ring index of the oldest entry.
    bottom: usize,
    len: usize,
    stats: ReturnStackStats,
}

impl ReturnStack {
    /// Creates a stack holding up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        ReturnStack {
            ring: vec![ReturnEntry::default(); capacity],
            bottom: 0,
            len: 0,
            stats: ReturnStackStats::default(),
        }
    }

    /// Whether the stack exists at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        !self.ring.is_empty()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.len
    }

    /// Counters.
    pub fn stats(&self) -> ReturnStackStats {
        self.stats
    }

    /// Ring index of the entry `i` places above the bottom.
    #[inline(always)]
    fn slot(&self, i: usize) -> usize {
        let at = self.bottom + i;
        if at >= self.ring.len() {
            at - self.ring.len()
        } else {
            at
        }
    }

    /// Pushes a caller entry. If the stack is full, the **oldest**
    /// entry is evicted and returned; the machine must then write the
    /// evicted caller's PC into its frame and the frame pointer into
    /// its callee's return link. The evicted entry's callee is the new
    /// bottom entry's frame (the stack is never empty after a push).
    ///
    /// Returns `None` (and records nothing) when disabled.
    #[inline]
    pub fn push(&mut self, entry: ReturnEntry) -> Option<ReturnEntry> {
        if !self.enabled() {
            return None;
        }
        self.stats.pushes += 1;
        if self.len == self.ring.len() {
            self.stats.evictions += 1;
            let evicted = std::mem::replace(&mut self.ring[self.bottom], entry);
            self.bottom = self.slot(1);
            return Some(evicted);
        }
        let top = self.slot(self.len);
        self.ring[top] = entry;
        self.len += 1;
        None
    }

    /// The frame of the current bottom entry — the callee of a
    /// just-evicted entry.
    pub fn bottom_frame(&self) -> Option<WordAddr> {
        (self.len > 0).then(|| self.ring[self.bottom].frame)
    }

    /// Pops the top entry for a return; `None` means the general path
    /// must run. Recorded as a hit or miss only when enabled.
    #[inline]
    pub fn pop(&mut self) -> Option<ReturnEntry> {
        if !self.enabled() {
            return None;
        }
        if self.len == 0 {
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        self.len -= 1;
        Some(self.ring[self.slot(self.len)])
    }

    /// Flushes all entries, newest first — the order in which the
    /// machine must chain return links (current frame's link points at
    /// the newest entry's frame, and so on down). The stack is empty
    /// at once; dropping the iterator early discards the rest.
    pub fn flush(&mut self) -> impl Iterator<Item = ReturnEntry> + '_ {
        if self.len > 0 {
            self.stats.flushes += 1;
        }
        let len = std::mem::take(&mut self.len);
        let this = &*self;
        (0..len).rev().map(move |i| this.ring[this.slot(i)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u32) -> ReturnEntry {
        ReturnEntry {
            frame: WordAddr(n * 2),
            gf: WordAddr(0x500),
            code_base: ByteAddr(0),
            pc: ByteAddr(n),
        }
    }

    #[test]
    fn disabled_stack_never_hits() {
        let mut rs = ReturnStack::new(0);
        assert!(!rs.enabled());
        assert_eq!(rs.push(entry(1)), None);
        assert_eq!(rs.pop(), None);
        assert_eq!(rs.stats().pushes, 0);
        assert_eq!(rs.stats().misses, 0);
    }

    #[test]
    fn lifo_hits() {
        let mut rs = ReturnStack::new(4);
        rs.push(entry(1));
        rs.push(entry(2));
        assert_eq!(rs.pop().unwrap().pc, ByteAddr(2));
        assert_eq!(rs.pop().unwrap().pc, ByteAddr(1));
        assert!(rs.pop().is_none());
        let s = rs.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn overflow_evicts_oldest() {
        let mut rs = ReturnStack::new(2);
        assert!(rs.push(entry(1)).is_none());
        assert!(rs.push(entry(2)).is_none());
        let ev = rs.push(entry(3)).unwrap();
        assert_eq!(ev.pc, ByteAddr(1), "oldest evicted");
        assert_eq!(rs.bottom_frame(), Some(entry(2).frame), "callee of evicted");
        assert_eq!(rs.stats().evictions, 1);
        // Deep returns: 3 and 2 hit, then the stack is empty.
        assert_eq!(rs.pop().unwrap().pc, ByteAddr(3));
        assert_eq!(rs.pop().unwrap().pc, ByteAddr(2));
        assert!(rs.pop().is_none());
    }

    #[test]
    fn flush_returns_newest_first() {
        let mut rs = ReturnStack::new(4);
        rs.push(entry(1));
        rs.push(entry(2));
        rs.push(entry(3));
        let pcs: Vec<u32> = rs.flush().map(|e| e.pc.0).collect();
        assert_eq!(pcs, vec![3, 2, 1]);
        assert_eq!(rs.depth(), 0);
        assert_eq!(rs.stats().flushes, 1);
        // Flushing an empty stack is free and uncounted.
        assert!(rs.flush().next().is_none());
        assert_eq!(rs.stats().flushes, 1);
    }
}
