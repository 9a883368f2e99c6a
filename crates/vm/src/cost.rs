//! The cycle cost model and per-transfer statistics.
//!
//! Every comparison in the paper reduces to counting memory references
//! and asking whether a call can proceed "as fast as an unconditional
//! jump". The model here makes that checkable:
//!
//! * every instruction costs [`CYCLE_BASE`] to decode/execute;
//! * every architectural **data** reference costs [`CYCLE_MEMREF`]
//!   (sequential instruction fetch is covered by the IFU and free, as
//!   the paper assumes a machine "likely to have some kind of
//!   instruction fetch unit");
//! * every **taken** control transfer — jump, call or return — costs
//!   [`CYCLE_REFILL`] for the fetch-unit redirect.
//!
//! An unconditional jump therefore costs exactly
//! [`jump_cycles`]`()` = 2, and a call or return is "as fast as a
//! jump" exactly when it also completes in 2 cycles: no table
//! indirection, no frame-word traffic, frame allocation hidden by the
//! free-frame cache, arguments renamed rather than stored.

use std::fmt;

use fpc_frames::SizeClasses;
use fpc_stats::Histogram;

use crate::MachineStats;

/// Cycles to decode and execute any instruction.
pub const CYCLE_BASE: u64 = 1;
/// Cycles per architectural data-memory reference.
pub const CYCLE_MEMREF: u64 = 1;
/// Cycles to redirect the instruction-fetch unit on a taken transfer.
pub const CYCLE_REFILL: u64 = 1;

/// Cycles of an unconditional jump under this model — the yardstick
/// for the paper's headline claim.
pub const fn jump_cycles() -> u64 {
    CYCLE_BASE + CYCLE_REFILL
}

/// The kinds of transfer event the machine classifies (E10, E12, E5,
/// E6 all aggregate over these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// A procedure call (any linkage).
    Call,
    /// A procedure return.
    Return,
    /// A general `XFER` (coroutine transfer).
    Coroutine,
    /// A process switch.
    ProcessSwitch,
    /// A trap transfer.
    Trap,
    /// A completed remote procedure call (cross-machine `XFER`): the
    /// marshalled round trip, charged once per successful call.
    Remote,
}

impl fmt::Display for TransferKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransferKind::Call => write!(f, "call"),
            TransferKind::Return => write!(f, "return"),
            TransferKind::Coroutine => write!(f, "coroutine"),
            TransferKind::ProcessSwitch => write!(f, "process-switch"),
            TransferKind::Trap => write!(f, "trap"),
            TransferKind::Remote => write!(f, "remote"),
        }
    }
}

/// Aggregated statistics for one [`TransferKind`].
#[derive(Debug, Default, Clone)]
pub struct KindStats {
    /// Number of events.
    pub count: u64,
    /// Events that completed at jump speed.
    pub fast: u64,
    /// Total cycles spent in these events.
    pub cycles: u64,
    /// Total data references made by these events.
    pub refs: u64,
    /// Distribution of cycles per event.
    pub cycle_hist: Histogram,
}

impl KindStats {
    /// Fraction of events at jump speed.
    pub fn fast_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.fast as f64 / self.count as f64
        }
    }

    /// Mean cycles per event.
    pub fn mean_cycles(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.cycles as f64 / self.count as f64
        }
    }

    /// Mean data references per event.
    pub fn mean_refs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.refs as f64 / self.count as f64
        }
    }
}

/// Per-transfer statistics for a run.
#[derive(Debug, Default, Clone)]
pub struct TransferStats {
    /// Calls.
    pub calls: KindStats,
    /// Returns.
    pub returns: KindStats,
    /// Coroutine transfers.
    pub coroutines: KindStats,
    /// Process switches.
    pub switches: KindStats,
    /// Traps.
    pub traps: KindStats,
    /// Completed remote calls.
    pub remotes: KindStats,
}

impl TransferStats {
    /// Records one event.
    pub fn record(&mut self, kind: TransferKind, cycles: u64, refs: u64) {
        let k = self.kind_mut(kind);
        k.count += 1;
        k.cycles += cycles;
        k.refs += refs;
        k.cycle_hist.record(cycles);
        if cycles <= jump_cycles() {
            k.fast += 1;
        }
    }

    pub(crate) fn kind_mut(&mut self, kind: TransferKind) -> &mut KindStats {
        match kind {
            TransferKind::Call => &mut self.calls,
            TransferKind::Return => &mut self.returns,
            TransferKind::Coroutine => &mut self.coroutines,
            TransferKind::ProcessSwitch => &mut self.switches,
            TransferKind::Trap => &mut self.traps,
            TransferKind::Remote => &mut self.remotes,
        }
    }

    /// Statistics for one kind.
    pub fn kind(&self, kind: TransferKind) -> &KindStats {
        match kind {
            TransferKind::Call => &self.calls,
            TransferKind::Return => &self.returns,
            TransferKind::Coroutine => &self.coroutines,
            TransferKind::ProcessSwitch => &self.switches,
            TransferKind::Trap => &self.traps,
            TransferKind::Remote => &self.remotes,
        }
    }

    /// Calls plus returns — the denominator of the paper's "one call
    /// or return for every 10 instructions" and of the 95% headline.
    pub fn calls_and_returns(&self) -> u64 {
        self.calls.count + self.returns.count
    }

    /// The headline metric: fraction of calls and returns that ran at
    /// jump speed.
    pub fn fast_call_return_fraction(&self) -> f64 {
        let total = self.calls_and_returns();
        if total == 0 {
            0.0
        } else {
            (self.calls.fast + self.returns.fast) as f64 / total as f64
        }
    }
}

/// Cycle values a [`TransferBatch`] counts in its own buckets; a
/// costlier event goes straight into the run's histogram.
const BATCH_CYCLES: usize = 16;

/// One kind's share of a [`TransferBatch`]: the cycle histogram of
/// its cheap events and their summed references. Their count, cycles
/// and jump-speed count follow from the histogram at flush.
#[derive(Debug, Clone, Copy, Default)]
struct KindBatch {
    refs: u64,
    hist: [u64; BATCH_CYCLES],
}

impl KindBatch {
    fn flush_into(&mut self, k: &mut KindStats) {
        for (v, &n) in self.hist.iter().enumerate() {
            if n > 0 {
                let v = v as u64;
                k.count += n;
                k.cycles += v * n;
                if v <= jump_cycles() {
                    k.fast += n;
                }
                k.cycle_hist.record_n(v, n);
            }
        }
        k.refs += self.refs;
        *self = KindBatch::default();
    }
}

/// Calls and returns, and the size classes of the frames the calls
/// allocated, accumulated over one native burst and added to the run's
/// statistics once, at burst exit. Lives on the stack: recording is a
/// few adds, with no histogram growth check. Since the statistics are
/// sums and multisets, the flushed result is identical to recording
/// each event as it happens.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TransferBatch {
    calls: KindBatch,
    returns: KindBatch,
    /// Frames allocated per size class, for the classes it covers.
    frames: [u64; 16],
}

impl TransferBatch {
    /// Records one event: calls and returns that cost fewer cycles than
    /// the batch's histogram covers into the batch, everything else
    /// directly into `stats`.
    #[inline(always)]
    pub fn record(
        &mut self,
        stats: &mut TransferStats,
        kind: TransferKind,
        cycles: u64,
        refs: u64,
    ) {
        let b = match kind {
            TransferKind::Call => &mut self.calls,
            TransferKind::Return => &mut self.returns,
            _ => return stats.record(kind, cycles, refs),
        };
        match b.hist.get_mut(cycles as usize) {
            Some(n) => {
                *n += 1;
                b.refs += refs;
            }
            None => stats.record(kind, cycles, refs),
        }
    }

    /// Counts a frame allocated at class `fsi`; false past the batch's
    /// classes, when the caller must record it.
    #[inline]
    pub fn record_frame(&mut self, fsi: u8) -> bool {
        self.frames.get_mut(fsi as usize).map(|n| *n += 1).is_some()
    }

    /// Adds the batch into `stats` and empties it.
    pub fn flush_into(&mut self, stats: &mut MachineStats, classes: &SizeClasses) {
        self.calls.flush_into(&mut stats.transfers.calls);
        self.returns.flush_into(&mut stats.transfers.returns);
        for (fsi, n) in self.frames.iter_mut().enumerate() {
            if *n > 0 {
                let bytes = classes.size_of(fsi as u8) as u64 * 2;
                stats.frame_bytes.record_n(bytes, std::mem::take(n));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jump_is_two_cycles() {
        assert_eq!(jump_cycles(), 2);
    }

    #[test]
    fn record_classifies_fast_events() {
        let mut t = TransferStats::default();
        t.record(TransferKind::Call, jump_cycles(), 0);
        t.record(TransferKind::Call, 12, 10);
        t.record(TransferKind::Return, 2, 0);
        assert_eq!(t.calls.count, 2);
        assert_eq!(t.calls.fast, 1);
        assert_eq!(t.returns.fast, 1);
        assert_eq!(t.calls_and_returns(), 3);
        assert!((t.fast_call_return_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn means_computed() {
        let mut t = TransferStats::default();
        t.record(TransferKind::Coroutine, 10, 8);
        t.record(TransferKind::Coroutine, 20, 16);
        let k = t.kind(TransferKind::Coroutine);
        assert_eq!(k.mean_cycles(), 15.0);
        assert_eq!(k.mean_refs(), 12.0);
        assert_eq!(k.fast_fraction(), 0.0);
    }

    #[test]
    fn batched_events_equal_direct_records() {
        let events = [
            (TransferKind::Call, 2, 0),
            (TransferKind::Return, 2, 0),
            (TransferKind::Call, 9, 7),
            (TransferKind::Call, 40, 38), // past the batch's buckets
            (TransferKind::Coroutine, 12, 10),
            (TransferKind::Return, 5, 3),
            (TransferKind::Call, 2, 0),
        ];
        let mut direct = TransferStats::default();
        for &(k, c, r) in &events {
            direct.record(k, c, r);
        }
        let classes = SizeClasses::mesa();
        let frames = [0u8, 3, 0, 20, 1];
        let mut direct_bytes = Histogram::new();
        for &fsi in &frames {
            direct_bytes.record(classes.size_of(fsi) as u64 * 2);
        }
        let mut batched = MachineStats::default();
        let mut batch = TransferBatch::default();
        for &(k, c, r) in &events {
            batch.record(&mut batched.transfers, k, c, r);
        }
        for &fsi in &frames {
            if !batch.record_frame(fsi) {
                // Past the batch's classes.
                batched.frame_bytes.record(classes.size_of(fsi) as u64 * 2);
            }
        }
        batch.flush_into(&mut batched, &classes);
        let want = format!("{direct:?} {direct_bytes:?}");
        let got = |b: &MachineStats| format!("{:?} {:?}", b.transfers, b.frame_bytes);
        assert_eq!(got(&batched), want);
        // The flush empties the batch: a second one adds nothing.
        batch.flush_into(&mut batched, &classes);
        assert_eq!(got(&batched), want);
    }

    #[test]
    fn empty_stats_are_zero() {
        let t = TransferStats::default();
        assert_eq!(t.fast_call_return_fraction(), 0.0);
        assert_eq!(t.kind(TransferKind::Trap).mean_cycles(), 0.0);
    }
}
