//! Synthetic call/return/transfer traces and the drivers that replay
//! them against the acceleration structures.
//!
//! The paper's §7.1 statistics ("with 4 banks [overflow/underflow]
//! happens on less than 5% of XFERs; with 4–8 banks the rate is less
//! than 1%") are properties of long call/return sequences. Real
//! programs supply some; these seeded generators supply arbitrarily
//! long ones with controlled depth behaviour, so experiments E5 and E6
//! can sweep stack depth and bank count precisely.

use fpc_rng::Rng;

use fpc_core::layout;
use fpc_mem::{ByteAddr, Memory, WordAddr};
use fpc_vm::{BankMachine, BankStats, ReturnEntry, ReturnStack, ReturnStackStats};

/// One event of a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A procedure call creating a frame with this many locals words.
    Call {
        /// Locals-region words of the new frame.
        frame_words: u32,
    },
    /// A procedure return.
    Return,
    /// An unusual transfer (coroutine switch, process switch): the
    /// orderly fallback flushes banks and the return stack.
    UnusualXfer,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// Number of events to generate.
    pub len: usize,
    /// RNG seed (traces are reproducible).
    pub seed: u64,
    /// Probability that a step is a call rather than a return when
    /// both are possible. 0.5 is a balanced random walk; higher values
    /// drift deeper. "Long runs of calls nearly uninterrupted by
    /// returns, or vice versa, are quite rare" (§7.1) corresponds to
    /// values near 0.5.
    pub call_bias: f64,
    /// Depth ceiling (a call at this depth becomes a return).
    pub max_depth: u32,
    /// Probability of an unusual transfer at any step.
    pub unusual_rate: f64,
}

/// Default seed (arbitrary but fixed: "FPCE").
const DEFAULT_SEED: u64 = 0x4643_5045;

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            len: 100_000,
            seed: DEFAULT_SEED,
            call_bias: 0.5,
            max_depth: 64,
            unusual_rate: 0.0,
        }
    }
}

/// Samples a frame's locals size in words, matching the paper's
/// distribution: "95% of all frames allocated are smaller than 80
/// bytes" (40 words), with a tail of larger frames.
pub fn sample_frame_words(rng: &mut Rng) -> u32 {
    if rng.gen_bool(0.95) {
        // Small frames: 2..=36 locals words, biased low.
        let r = rng.next_f64();
        2 + (r * r * 34.0) as u32
    } else {
        // Large frames: 40..=500 words.
        rng.gen_range_u32(40, 500)
    }
}

/// Generates a seeded trace. Depth starts at 1 (the root frame) and
/// never returns past it.
pub fn generate(params: TraceParams) -> Vec<TraceEvent> {
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut out = Vec::with_capacity(params.len);
    let mut depth = 1u32;
    for _ in 0..params.len {
        if params.unusual_rate > 0.0 && rng.gen_bool(params.unusual_rate) {
            out.push(TraceEvent::UnusualXfer);
            continue;
        }
        let call = if depth <= 1 {
            true
        } else if depth >= params.max_depth {
            false
        } else {
            rng.gen_bool(params.call_bias)
        };
        if call {
            out.push(TraceEvent::Call {
                frame_words: sample_frame_words(&mut rng),
            });
            depth += 1;
        } else {
            out.push(TraceEvent::Return);
            depth -= 1;
        }
    }
    out
}

/// The exact call/return sequence of a complete binary-tree recursion
/// of the given height (the fib shape): the depth behaviour of real
/// call-dense programs, where most activity is near the leaves. This
/// is the model under which the paper's bank statistics hold; the
/// random walk of [`generate`] wanders much further in depth and is
/// deliberately pessimistic.
pub fn tree_trace(height: u32, frame_words: u32) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    // Iterative preorder with explicit state: at each node, call, walk
    // both children, return.
    fn rec(h: u32, frame_words: u32, out: &mut Vec<TraceEvent>) {
        out.push(TraceEvent::Call { frame_words });
        if h > 0 {
            rec(h - 1, frame_words, out);
            rec(h - 1, frame_words, out);
        }
        out.push(TraceEvent::Return);
    }
    assert!(
        height <= 20,
        "tree trace of height {height} would be enormous"
    );
    rec(height, frame_words, &mut out);
    out
}

/// A leaf-heavy trace: the shape of typical systems code, where most
/// calls are to leaf procedures that return immediately and only a
/// fraction of calls descend further. `leaf_fraction` of the call
/// events are immediate call/return pairs.
///
/// This is the flat profile under which the paper's "<5% of XFERs with
/// 4 banks" holds; uniform deep recursion ([`tree_trace`]) is harder
/// on the banks (≈ 2·2^−(w−1) slow events for w banks).
pub fn leafy_trace(params: TraceParams, leaf_fraction: f64) -> Vec<TraceEvent> {
    let mut rng = Rng::seed_from_u64(params.seed);
    let mut out = Vec::with_capacity(params.len);
    let mut depth = 1u32;
    while out.len() < params.len {
        if rng.gen_bool(leaf_fraction) {
            let frame_words = sample_frame_words(&mut rng);
            out.push(TraceEvent::Call { frame_words });
            out.push(TraceEvent::Return);
            continue;
        }
        let call = if depth <= 1 {
            true
        } else if depth >= params.max_depth {
            false
        } else {
            rng.gen_bool(params.call_bias)
        };
        if call {
            out.push(TraceEvent::Call {
                frame_words: sample_frame_words(&mut rng),
            });
            depth += 1;
        } else {
            out.push(TraceEvent::Return);
            depth -= 1;
        }
    }
    out
}

/// Result of driving a trace through the bank machine.
#[derive(Debug, Clone, Copy)]
pub struct BankDrive {
    /// Calls plus returns replayed (the paper's "XFERs").
    pub xfers: u64,
    /// Final bank statistics.
    pub stats: BankStats,
}

impl BankDrive {
    /// Overflow+underflow events per XFER — the §7.1 rate.
    pub fn slow_rate(&self) -> f64 {
        if self.xfers == 0 {
            0.0
        } else {
            self.stats.slow_events() as f64 / self.xfers as f64
        }
    }
}

/// Frame addresses for the replay: one fixed (even) address per depth,
/// spaced far enough apart for the largest sampled frame. Reusing an
/// address after its frame was released is exactly what the real frame
/// heap does.
fn frame_addr(depth: u32) -> WordAddr {
    WordAddr(0x100 + depth * 0x400)
}

/// Replays a trace against a [`BankMachine`] with argument renaming,
/// counting overflow and underflow events (experiment E6).
pub fn drive_banks(trace: &[TraceEvent], banks: usize, bank_words: u32) -> BankDrive {
    // Depth × spacing must stay inside the address space.
    let mut mem = Memory::new(0x40000);
    let mut bm = BankMachine::new(banks, bank_words);
    let mut stack: Vec<(WordAddr, u32)> = vec![(frame_addr(1), 8)];
    bm.assign(&mut mem, stack[0].0, 8, Some(&[]), None);
    let mut xfers = 0u64;
    for ev in trace {
        match *ev {
            TraceEvent::Call { frame_words } => {
                let depth = stack.len() as u32 + 1;
                let frame = frame_addr(depth);
                let caller = stack.last().map(|&(f, _)| f);
                bm.assign(&mut mem, frame, frame_words, Some(&[0, 0]), caller);
                stack.push((frame, frame_words));
                xfers += 1;
            }
            TraceEvent::Return => {
                let (frame, _) = stack.pop().expect("trace never underflows the root");
                bm.release(frame);
                let &(caller, words) = stack.last().expect("root stays");
                bm.activate(&mut mem, caller, words, None);
                xfers += 1;
            }
            TraceEvent::UnusualXfer => {
                bm.flush_all(&mut mem);
            }
        }
    }
    BankDrive {
        xfers,
        stats: bm.stats(),
    }
}

/// Replays a trace against a [`ReturnStack`] (experiment E5).
pub fn drive_return_stack(trace: &[TraceEvent], depth: usize) -> ReturnStackStats {
    let mut rs = ReturnStack::new(depth);
    let mut level = 1u32;
    for ev in trace {
        match *ev {
            TraceEvent::Call { .. } => {
                rs.push(ReturnEntry {
                    frame: frame_addr(level),
                    gf: WordAddr(0x40),
                    code_base: ByteAddr(0),
                    pc: ByteAddr(level),
                });
                level += 1;
            }
            TraceEvent::Return => {
                let _ = rs.pop();
                level -= 1;
            }
            TraceEvent::UnusualXfer => {
                let _ = rs.flush();
            }
        }
    }
    let _ = layout::FRAME_HEADER_WORDS; // layout is linked for address sanity only
    rs.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_reproducible() {
        let p = TraceParams {
            len: 1000,
            ..Default::default()
        };
        assert_eq!(generate(p), generate(p));
        let other = TraceParams { seed: 99, ..p };
        assert_ne!(generate(p), generate(other));
    }

    #[test]
    fn depth_never_underflows() {
        let p = TraceParams {
            len: 10_000,
            call_bias: 0.2,
            ..Default::default()
        };
        let mut depth = 1i64;
        for ev in generate(p) {
            match ev {
                TraceEvent::Call { .. } => depth += 1,
                TraceEvent::Return => depth -= 1,
                TraceEvent::UnusualXfer => {}
            }
            assert!(depth >= 1);
        }
    }

    #[test]
    fn frame_sizes_match_the_claimed_distribution() {
        let mut rng = Rng::seed_from_u64(7);
        let mut small = 0u32;
        let n = 100_000;
        for _ in 0..n {
            let words = sample_frame_words(&mut rng);
            assert!(words >= 2);
            if words * 2 < 80 {
                small += 1;
            }
        }
        let frac = small as f64 / n as f64;
        assert!(frac > 0.90 && frac < 0.99, "small-frame fraction {frac}");
    }

    #[test]
    fn balanced_walk_is_the_pessimistic_model() {
        // A symmetric random walk wanders in depth far more than real
        // programs, so its slow rate with 4 banks exceeds the paper's
        // <5% — that is the point of keeping both models.
        let trace = generate(TraceParams {
            len: 50_000,
            ..Default::default()
        });
        let drive = drive_banks(&trace, 4, 16);
        assert!(drive.xfers > 40_000);
        assert!(
            drive.slow_rate() < 0.35,
            "slow rate {} with 4 banks",
            drive.slow_rate()
        );
    }

    #[test]
    fn tree_recursion_rates_follow_the_window_law() {
        // Uniform tree recursion costs ≈ 2·2^−(w−1) slow events per
        // XFER: 12.5% at 4 banks, under 1% at 8 — the paper's 8-bank
        // figure holds even for this hardest shape.
        let trace = tree_trace(15, 6);
        let r4 = drive_banks(&trace, 4, 16).slow_rate();
        let r8 = drive_banks(&trace, 8, 16).slow_rate();
        assert!((r4 - 0.125).abs() < 0.02, "4 banks: {r4}");
        assert!(r8 < 0.01, "8 banks: {r8}");
    }

    #[test]
    fn leafy_profile_meets_the_four_bank_figure() {
        // The flat, leaf-dominated profile of typical system code:
        // the paper's "<5% of XFERs with 4 banks".
        let trace = leafy_trace(
            TraceParams {
                len: 50_000,
                ..Default::default()
            },
            0.8,
        );
        let r4 = drive_banks(&trace, 4, 16).slow_rate();
        assert!(r4 < 0.05, "4 banks: {r4}");
        let r8 = drive_banks(&trace, 8, 16).slow_rate();
        assert!(r8 < 0.02 && r8 < r4 / 2.0, "8 banks: {r8}");
    }

    #[test]
    fn more_banks_lower_the_rate() {
        let trace = generate(TraceParams {
            len: 50_000,
            ..Default::default()
        });
        let r2 = drive_banks(&trace, 2, 16).slow_rate();
        let r8 = drive_banks(&trace, 8, 16).slow_rate();
        assert!(r8 < r2, "8 banks {r8} should beat 2 banks {r2}");
    }

    #[test]
    fn return_stack_hit_rate_grows_with_depth() {
        let trace = generate(TraceParams {
            len: 50_000,
            ..Default::default()
        });
        let s2 = drive_return_stack(&trace, 2);
        let s16 = drive_return_stack(&trace, 16);
        assert!(s16.hit_rate() >= s2.hit_rate());
        assert!(
            s16.hit_rate() > 0.8,
            "deep stack hit rate {}",
            s16.hit_rate()
        );
    }

    #[test]
    fn unusual_transfers_flush() {
        let trace = generate(TraceParams {
            len: 10_000,
            unusual_rate: 0.05,
            ..Default::default()
        });
        assert!(trace.contains(&TraceEvent::UnusualXfer));
        let drive = drive_banks(&trace, 4, 16);
        assert!(drive.stats.full_flushes > 0);
    }
}
