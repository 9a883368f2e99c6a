//! Register banks shadowing local frames (paper §7).
//!
//! "The processor has a small number of register banks (say 4–8) of
//! some modest fixed size (say 16 words). Each of these banks can hold
//! the first 16 words of some local frame. … References to the
//! shadowed words are made directly to the register bank. … When the
//! frame is freed, the shadowing register bank is also marked free …
//! its contents are unimportant, and never need to be saved."
//!
//! The bank machine shadows the **locals region** of a frame (frame
//! words 3…), matching the argument-renaming trick of §7.2: the bank
//! holding the evaluation stack becomes the callee's local bank, so
//! "the arguments will automatically appear as the first few local
//! variables, without any actual data movement."
//!
//! Dirty bits per word implement the paper's "keep track of which
//! registers have been written, to avoid the cost of dumping registers
//! which have never been written."

use std::cell::Cell;

use fpc_core::layout;
use fpc_mem::{Memory, WordAddr};

/// Counters kept by the bank machine (experiments E6, E9, A2).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BankStats {
    /// Banks assigned to freshly created frames.
    pub assigns: u64,
    /// Assignments that renamed the evaluation stack into the callee's
    /// local bank (§7.2).
    pub renames: u64,
    /// Argument words that appeared in place thanks to renaming.
    pub renamed_words: u64,
    /// Overflows: a bank had to be stolen (victim flushed) to satisfy
    /// an assignment.
    pub overflows: u64,
    /// Underflows: an `XFER` reached a frame with no shadowing bank and
    /// one had to be loaded from storage.
    pub underflows: u64,
    /// Dirty words written back by flushes.
    pub flushed_words: u64,
    /// Words loaded from storage on underflow.
    pub loaded_words: u64,
    /// Whole-machine flushes (unusual XFERs, process switches).
    pub full_flushes: u64,
    /// Indirect references diverted to a bank (§7.4 C2 handling).
    pub diversions: u64,
}

impl BankStats {
    /// Overflow + underflow events, the numerator of the paper's
    /// "<5% of XFERs with 4 banks" statistic.
    pub fn slow_events(&self) -> u64 {
        self.overflows + self.underflows
    }
}

/// Empty-memo sentinel: no frame sits at the top of the address space.
const NO_FRAME: u32 = u32::MAX;

/// Hard cap on words per bank. The paper's sketch says "some modest
/// fixed size (say 16 words)"; capping at 64 lets each bank's storage
/// live inline in the `Bank` struct and dirtiness be one bitmask.
pub const MAX_BANK_WORDS: u32 = 64;

/// Hard cap on banks, so the free banks fit one bitmask.
pub const MAX_BANKS: usize = 64;

#[derive(Debug, Clone)]
struct Bank {
    /// Words actually shadowed (min of bank size and the frame's
    /// locals capacity).
    shadow_words: u32,
    data: [u16; MAX_BANK_WORDS as usize],
    /// Bit `i` set = word `i` written since assignment/activation.
    dirty: u64,
    /// LRU stamp of the bank's last use (see `BankMachine::stamp`).
    last_use: u64,
    /// The caller's bank at assignment, or [`NO_FRAME`]: where a
    /// return from this bank's frame most likely lands.
    caller: u32,
}

/// The register-bank machine.
#[derive(Debug, Clone)]
pub struct BankMachine {
    banks: Vec<Bank>,
    /// Frame whose locals each bank shadows; [`NO_FRAME`] = free.
    /// Apart from the data, so a scan for a frame or a free bank reads
    /// one line.
    frames: Vec<u32>,
    /// Bit `b` set = bank `b` is free, so the first free bank is one
    /// `trailing_zeros`.
    free: u64,
    words: u32,
    /// LRU clock: the last stamp handed out.
    clock: u64,
    /// Memo of the last `(frame, bank)` resolution. Local reads and
    /// writes resolve the same (current) frame almost every time, so
    /// this turns the per-access scan into one comparison. Every change
    /// to a bank's `frame` sets or clears the memo, so a hit is exact
    /// without re-reading the bank; [`NO_FRAME`] marks it empty.
    memo: Cell<(u32, u32)>,
    /// Lowest locals-region address any bank has shadowed. Indirect
    /// references below it (globals, tables) cannot hit a bank, so
    /// [`BankMachine::shadow_hit`] rejects them without a scan.
    floor: u32,
    stats: BankStats,
}

impl BankMachine {
    /// Creates `banks` banks of `words` words each.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two banks or zero words are requested (the
    /// current frame's bank must never be the victim, so one bank
    /// cannot rotate).
    pub fn new(banks: usize, words: u32) -> Self {
        assert!(banks >= 2, "at least two banks required");
        assert!(banks <= MAX_BANKS, "at most {MAX_BANKS} banks");
        assert!(words > 0, "banks must hold at least one word");
        assert!(
            words <= MAX_BANK_WORDS,
            "banks hold at most {MAX_BANK_WORDS} words"
        );
        BankMachine {
            banks: (0..banks)
                .map(|_| Bank {
                    shadow_words: 0,
                    data: [0; MAX_BANK_WORDS as usize],
                    dirty: 0,
                    last_use: 0,
                    caller: NO_FRAME,
                })
                .collect(),
            frames: vec![NO_FRAME; banks],
            free: u64::MAX >> (MAX_BANKS - banks),
            words,
            clock: 0,
            memo: Cell::new((NO_FRAME, 0)),
            floor: u32::MAX,
            stats: BankStats::default(),
        }
    }

    /// Words per bank.
    pub fn bank_words(&self) -> u32 {
        self.words
    }

    /// Counters.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// The bank index shadowing `frame`, if any. There are at most a
    /// handful of banks (the paper says 4–8), so this is a linear scan
    /// rather than a map — it sits on the per-instruction local
    /// read/write path, where a hashed lookup would dominate the cost
    /// of the access itself.
    #[inline]
    pub fn bank_of(&self, frame: WordAddr) -> Option<usize> {
        if frame.0 == NO_FRAME {
            return None;
        }
        let (f, b) = self.memo.get();
        if f == frame.0 {
            return Some(b as usize);
        }
        let idx = self.frames.iter().position(|&f| f == frame.0)?;
        self.memo.set((frame.0, idx as u32));
        Some(idx)
    }

    /// Reads local `idx` of `frame` from its bank, if shadowed there.
    pub fn read_local(&mut self, frame: WordAddr, idx: u32) -> Option<u16> {
        let b = self.bank_of(frame)?;
        if idx < self.banks[b].shadow_words {
            self.stamp(b);
            Some(self.banks[b].data[idx as usize])
        } else {
            None
        }
    }

    /// Writes local `idx` of `frame` into its bank, if shadowed there.
    /// Returns `false` if the access must go to storage.
    pub fn write_local(&mut self, frame: WordAddr, idx: u32, value: u16) -> bool {
        let Some(b) = self.bank_of(frame) else {
            return false;
        };
        if idx < self.banks[b].shadow_words {
            self.stamp(b);
            let bank = &mut self.banks[b];
            bank.data[idx as usize] = value;
            bank.dirty |= 1 << idx;
            true
        } else {
            false
        }
    }

    /// Assigns a bank to a freshly created `frame` whose locals region
    /// holds `locals_words` words. With `rename_args`, the argument
    /// values land in slots `0..n` with no data movement (§7.2); they
    /// are dirty (the frame in storage does not have them).
    ///
    /// `protect` is the current frame, whose bank must not be stolen.
    /// Returns the memory references spent flushing a victim.
    #[inline(always)]
    pub fn assign(
        &mut self,
        mem: &mut Memory,
        frame: WordAddr,
        locals_words: u32,
        rename_args: Option<&[u16]>,
        protect: Option<WordAddr>,
    ) -> u64 {
        let shadow = locals_words.min(self.words);
        let caller = protect.and_then(|p| self.bank_of(p));
        let (b, refs) = self.take_bank(mem, protect);
        self.floor = self.floor.min(layout::local_slot(frame, 0).0);
        self.memo.set((frame.0, b as u32));
        self.frames[b] = frame.0;
        self.free &= !(1 << b);
        let bank = &mut self.banks[b];
        bank.caller = caller.map_or(NO_FRAME, |c| c as u32);
        bank.shadow_words = shadow;
        bank.data[..shadow as usize].fill(0);
        bank.dirty = 0;
        if let Some(args) = rename_args {
            debug_assert!(args.len() as u32 <= shadow, "arguments exceed bank shadow");
            bank.data[..args.len()].copy_from_slice(args);
            bank.dirty = ((1u128 << args.len()) - 1) as u64;
            self.stats.renames += 1;
            self.stats.renamed_words += args.len() as u64;
        }
        self.stamp(b);
        self.stats.assigns += 1;
        refs
    }

    /// Marks `frame`'s bank used; false if it has none.
    #[inline]
    pub fn touch(&mut self, frame: WordAddr) -> bool {
        let Some(b) = self.bank_of(frame) else {
            return false;
        };
        self.stamp(b);
        true
    }

    /// Marks bank `b` the most recently used: every use stamps it, and
    /// the stamps pick the overflow victim.
    #[inline(always)]
    fn stamp(&mut self, b: usize) {
        self.clock += 1;
        self.banks[b].last_use = self.clock;
    }

    /// Ensures `frame` (an existing context being re-entered) has a
    /// bank; loads it from storage on underflow. Returns the memory
    /// references spent (victim flush + load).
    pub fn activate(
        &mut self,
        mem: &mut Memory,
        frame: WordAddr,
        locals_words: u32,
        protect: Option<WordAddr>,
    ) -> u64 {
        if self.touch(frame) {
            return 0;
        }
        self.load(mem, frame, locals_words, protect)
    }

    /// The underflow half of [`BankMachine::activate`], for a caller
    /// whose [`BankMachine::touch`] of `frame` just failed: "a free
    /// bank is assigned and loaded from the frame" (§7.1). Returns the
    /// memory references spent (victim flush + load).
    pub fn load(
        &mut self,
        mem: &mut Memory,
        frame: WordAddr,
        locals_words: u32,
        protect: Option<WordAddr>,
    ) -> u64 {
        debug_assert!(self.bank_of(frame).is_none(), "frame already shadowed");
        self.stats.underflows += 1;
        let shadow = locals_words.min(self.words);
        let (b, mut refs) = self.take_bank(mem, protect);
        self.floor = self.floor.min(layout::local_slot(frame, 0).0);
        self.memo.set((frame.0, b as u32));
        self.frames[b] = frame.0;
        self.free &= !(1 << b);
        let bank = &mut self.banks[b];
        bank.caller = NO_FRAME;
        bank.shadow_words = shadow;
        bank.dirty = 0;
        for i in 0..shadow {
            bank.data[i as usize] = mem.read(layout::local_slot(frame, i));
        }
        refs += shadow as u64;
        self.stats.loaded_words += shadow as u64;
        self.stamp(b);
        refs
    }

    /// Releases the bank shadowing a freed frame: "its contents are
    /// unimportant, and never need to be saved in storage."
    #[inline]
    pub fn release(&mut self, frame: WordAddr) {
        if let Some(b) = self.bank_of(frame) {
            self.frames[b] = NO_FRAME;
            self.free |= 1 << b;
            self.banks[b].shadow_words = 0;
            // The return that freed this frame lands in its caller's bank.
            let c = self.banks[b].caller;
            let f = self.frames.get(c as usize).copied().unwrap_or(NO_FRAME);
            self.memo
                .set(if f == NO_FRAME { (NO_FRAME, 0) } else { (f, c) });
        }
    }

    /// Flushes the bank shadowing `frame` (dirty words to storage) and
    /// unshadows it. Returns references spent. Used by the
    /// flush-on-exit pointer policy and by full flushes.
    pub fn flush_frame(&mut self, mem: &mut Memory, frame: WordAddr) -> u64 {
        match self.bank_of(frame) {
            Some(b) => self.flush_bank(mem, b),
            None => 0,
        }
    }

    /// Flushes every bank — the orderly fallback for process switches
    /// and other unusual transfers ("all the banks are flushed into
    /// storage", §7.1). Returns references spent.
    pub fn flush_all(&mut self, mem: &mut Memory) -> u64 {
        if self.free.count_ones() as usize == self.banks.len() {
            return 0;
        }
        self.stats.full_flushes += 1;
        let mut refs = 0;
        for b in 0..self.banks.len() {
            refs += self.flush_bank(mem, b);
        }
        refs
    }

    /// Checks whether `addr` falls inside any shadowed locals region —
    /// the §7.4 "C2" detection. Returns `(frame, local index)` on a
    /// match; the caller decides whether to divert or flush.
    #[inline]
    pub fn shadow_hit(&self, addr: WordAddr) -> Option<(WordAddr, u32)> {
        if addr.0 < self.floor {
            return None;
        }
        for (bank, &frame) in self.banks.iter().zip(&self.frames) {
            if frame == NO_FRAME {
                continue;
            }
            let frame = WordAddr(frame);
            let lo = layout::local_slot(frame, 0).0;
            let hi = lo + bank.shadow_words;
            if (lo..hi).contains(&addr.0) {
                return Some((frame, addr.0 - lo));
            }
        }
        None
    }

    /// Diverted indirect read of a shadowed local (§7.4's "the
    /// reference can be diverted to read or write the proper
    /// register").
    ///
    /// # Panics
    ///
    /// Panics if the word is not actually shadowed; callers must use
    /// [`BankMachine::shadow_hit`] first.
    pub fn divert_read(&mut self, frame: WordAddr, idx: u32) -> u16 {
        self.stats.diversions += 1;
        self.read_local(frame, idx)
            .expect("diverted read of unshadowed word")
    }

    /// Diverted indirect write of a shadowed local.
    ///
    /// # Panics
    ///
    /// Panics if the word is not actually shadowed.
    pub fn divert_write(&mut self, frame: WordAddr, idx: u32, value: u16) {
        self.stats.diversions += 1;
        assert!(
            self.write_local(frame, idx, value),
            "diverted write of unshadowed word"
        );
    }

    /// Host-side inspection of a shadowed word (uncounted).
    pub fn peek_local(&self, frame: WordAddr, idx: u32) -> Option<u16> {
        let b = self.bank_of(frame)?;
        let bank = &self.banks[b];
        (idx < bank.shadow_words).then(|| bank.data[idx as usize])
    }

    /// Picks the first free bank, or steals the least recently used one
    /// that is not `protect` (overflow: "the contents of the oldest bank
    /// is written out into the frame").
    #[inline]
    fn take_bank(&mut self, mem: &mut Memory, protect: Option<WordAddr>) -> (usize, u64) {
        match self.free {
            0 => self.spill(mem, protect),
            free => (free.trailing_zeros() as usize, 0),
        }
    }

    /// Overflow: steals and flushes the least recently used bank that
    /// is not `protect`.
    #[cold]
    fn spill(&mut self, mem: &mut Memory, protect: Option<WordAddr>) -> (usize, u64) {
        self.stats.overflows += 1;
        let protect = protect.map_or(NO_FRAME, |p| p.0);
        let victim = (0..self.banks.len())
            .filter(|&i| self.frames[i] != protect)
            .min_by_key(|&i| self.banks[i].last_use)
            .expect("at least two banks, so a victim exists");
        let refs = self.flush_bank(mem, victim);
        (victim, refs)
    }

    fn flush_bank(&mut self, mem: &mut Memory, b: usize) -> u64 {
        let frame = std::mem::replace(&mut self.frames[b], NO_FRAME);
        if frame == NO_FRAME {
            return 0;
        }
        self.free |= 1 << b;
        let frame = WordAddr(frame);
        let bank = &mut self.banks[b];
        let mut refs = 0;
        // Walk set bits only: "avoid the cost of dumping registers
        // which have never been written."
        let mut dirty = bank.dirty;
        while dirty != 0 {
            let i = dirty.trailing_zeros();
            mem.write(layout::local_slot(frame, i), bank.data[i as usize]);
            dirty &= dirty - 1;
            refs += 1;
        }
        self.stats.flushed_words += refs;
        if self.memo.get().1 == b as u32 {
            self.memo.set((NO_FRAME, 0));
        }
        bank.shadow_words = 0;
        bank.dirty = 0;
        refs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(0x1000)
    }

    #[test]
    fn assign_and_access() {
        let mut m = mem();
        let mut bm = BankMachine::new(4, 16);
        let f = WordAddr(0x100);
        let refs = bm.assign(&mut m, f, 8, None, None);
        assert_eq!(refs, 0);
        assert!(bm.write_local(f, 3, 42));
        assert_eq!(bm.read_local(f, 3), Some(42));
        // Beyond the shadow: storage.
        assert_eq!(bm.read_local(f, 9), None);
    }

    #[test]
    fn renaming_places_args_without_movement() {
        let mut m = mem();
        let mut bm = BankMachine::new(4, 16);
        let f = WordAddr(0x100);
        bm.assign(&mut m, f, 8, Some(&[7, 8, 9]), None);
        assert_eq!(bm.read_local(f, 0), Some(7));
        assert_eq!(bm.read_local(f, 2), Some(9));
        assert_eq!(bm.stats().renames, 1);
        assert_eq!(bm.stats().renamed_words, 3);
    }

    #[test]
    fn overflow_steals_lru_and_flushes_dirty_words() {
        let mut m = mem();
        let mut bm = BankMachine::new(2, 16);
        let f1 = WordAddr(0x100);
        let f2 = WordAddr(0x120);
        let f3 = WordAddr(0x140);
        bm.assign(&mut m, f1, 4, None, None);
        bm.write_local(f1, 0, 11);
        bm.write_local(f1, 1, 22);
        bm.assign(&mut m, f2, 4, None, Some(f1));
        // Third assignment must steal f1's bank (LRU, f2 protected).
        let refs = bm.assign(&mut m, f3, 4, None, Some(f2));
        assert_eq!(refs, 2, "two dirty words written back");
        assert_eq!(bm.stats().overflows, 1);
        assert!(bm.bank_of(f1).is_none());
        // The flushed values are in storage.
        assert_eq!(m.peek(layout::local_slot(f1, 0)), 11);
        assert_eq!(m.peek(layout::local_slot(f1, 1)), 22);
    }

    #[test]
    fn underflow_reloads_from_storage() {
        let mut m = mem();
        let mut bm = BankMachine::new(2, 16);
        let f = WordAddr(0x100);
        m.poke(layout::local_slot(f, 0), 77);
        m.poke(layout::local_slot(f, 2), 99);
        let refs = bm.activate(&mut m, f, 4, None);
        assert_eq!(refs, 4, "four shadowed words loaded");
        assert_eq!(bm.stats().underflows, 1);
        assert_eq!(bm.read_local(f, 0), Some(77));
        assert_eq!(bm.read_local(f, 2), Some(99));
        // Re-activation is free.
        assert_eq!(bm.activate(&mut m, f, 4, None), 0);
        assert_eq!(bm.stats().underflows, 1);
    }

    #[test]
    fn release_discards_contents() {
        let mut m = mem();
        let mut bm = BankMachine::new(2, 16);
        let f = WordAddr(0x100);
        bm.assign(&mut m, f, 4, None, None);
        bm.write_local(f, 0, 123);
        bm.release(f);
        assert!(bm.bank_of(f).is_none());
        // Nothing was written back — the frame is dead.
        assert_eq!(m.peek(layout::local_slot(f, 0)), 0);
        assert_eq!(m.stats().data_writes, 0);
    }

    #[test]
    fn full_flush_writes_all_dirty_banks() {
        let mut m = mem();
        let mut bm = BankMachine::new(4, 16);
        let f1 = WordAddr(0x100);
        let f2 = WordAddr(0x140);
        bm.assign(&mut m, f1, 4, None, None);
        bm.assign(&mut m, f2, 4, None, None);
        bm.write_local(f1, 0, 5);
        bm.write_local(f2, 1, 6);
        let refs = bm.flush_all(&mut m);
        assert_eq!(refs, 2);
        assert_eq!(bm.stats().full_flushes, 1);
        assert_eq!(m.peek(layout::local_slot(f1, 0)), 5);
        assert_eq!(m.peek(layout::local_slot(f2, 1)), 6);
        assert!(bm.bank_of(f1).is_none());
        // Empty flush is free and uncounted.
        assert_eq!(bm.flush_all(&mut m), 0);
        assert_eq!(bm.stats().full_flushes, 1);
    }

    #[test]
    fn shadow_hit_finds_pointed_to_locals() {
        let mut m = mem();
        let mut bm = BankMachine::new(2, 16);
        let f = WordAddr(0x100);
        bm.assign(&mut m, f, 8, None, None);
        let addr = layout::local_slot(f, 5);
        assert_eq!(bm.shadow_hit(addr), Some((f, 5)));
        // One word past the shadow: miss.
        let past = layout::local_slot(f, 8);
        assert_eq!(bm.shadow_hit(past), None);
        // Unrelated address: miss.
        assert_eq!(bm.shadow_hit(WordAddr(0x50)), None);
    }

    #[test]
    fn shadow_hit_floor_follows_the_lowest_shadowed_frame() {
        let mut m = mem();
        let mut bm = BankMachine::new(2, 16);
        let high = WordAddr(0x200);
        bm.assign(&mut m, high, 8, None, None);
        assert_eq!(bm.shadow_hit(layout::local_slot(WordAddr(0x100), 1)), None);
        // A lower frame lowers the floor; releasing it does not raise
        // the floor back (it only ever gets more conservative).
        let low = WordAddr(0x100);
        bm.activate(&mut m, low, 8, Some(high));
        assert_eq!(bm.shadow_hit(layout::local_slot(low, 1)), Some((low, 1)));
        bm.release(low);
        assert_eq!(bm.shadow_hit(layout::local_slot(low, 1)), None);
        assert_eq!(bm.shadow_hit(layout::local_slot(high, 7)), Some((high, 7)));
    }

    #[test]
    fn memo_never_serves_an_unshadowed_frame() {
        let mut m = mem();
        let mut bm = BankMachine::new(2, 16);
        let (f1, f2, f3) = (WordAddr(0x100), WordAddr(0x120), WordAddr(0x140));
        // Flushed, released and fully flushed frames all drop out.
        bm.assign(&mut m, f1, 4, None, None);
        assert_eq!(bm.bank_of(f1), Some(0));
        bm.flush_frame(&mut m, f1);
        assert_eq!(bm.bank_of(f1), None);
        bm.assign(&mut m, f1, 4, None, None);
        bm.release(f1);
        assert_eq!(bm.read_local(f1, 0), None);
        bm.assign(&mut m, f1, 4, None, None);
        bm.flush_all(&mut m);
        assert_eq!(bm.bank_of(f1), None);
        // A stolen bank: the memo names f1 when its bank is taken.
        bm.assign(&mut m, f1, 4, None, None);
        bm.assign(&mut m, f2, 4, None, Some(f1));
        assert!(bm.write_local(f1, 0, 9));
        bm.assign(&mut m, f3, 4, None, Some(f2));
        assert_eq!(bm.bank_of(f1), None);
        assert_eq!(bm.read_local(f1, 0), None);
        assert!(bm.bank_of(f3).is_some());
    }

    #[test]
    fn diversion_reads_and_writes_the_register() {
        let mut m = mem();
        let mut bm = BankMachine::new(2, 16);
        let f = WordAddr(0x100);
        bm.assign(&mut m, f, 8, None, None);
        bm.divert_write(f, 2, 31);
        assert_eq!(bm.divert_read(f, 2), 31);
        assert_eq!(bm.stats().diversions, 2);
        // Storage never saw the value.
        assert_eq!(m.peek(layout::local_slot(f, 2)), 0);
    }

    #[test]
    fn dirty_bits_limit_flush_cost() {
        let mut m = mem();
        let mut bm = BankMachine::new(2, 16);
        let f = WordAddr(0x100);
        bm.assign(&mut m, f, 16, None, None);
        bm.write_local(f, 0, 1); // only one dirty word
        let refs = bm.flush_frame(&mut m, f);
        assert_eq!(refs, 1, "clean words are not dumped");
    }

    #[test]
    #[should_panic(expected = "two banks")]
    fn single_bank_rejected() {
        let _ = BankMachine::new(1, 16);
    }
}
