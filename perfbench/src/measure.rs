//! Small statistics and host probes.

use std::time::{Duration, Instant};

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q` quantile of `values`, each with a weight: every value sits at
/// the middle of its share of the total weight, and the quantile
/// interpolates linearly between neighbours. Equal weights give the
/// same answer as [`quantile`] up to the ends; 0 for an empty slice.
pub fn weighted_quantile(values: &[(f64, f64)], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = v.iter().map(|(_, w)| w).sum();
    let mut at = Vec::with_capacity(v.len());
    let mut before = 0.0;
    for &(x, w) in &v {
        at.push(((before + w / 2.0) / total, x));
        before += w;
    }
    match at.iter().position(|&(pos, _)| pos >= q) {
        None => at.last().map_or(0.0, |&(_, x)| x),
        Some(0) => at[0].1,
        Some(i) => {
            let ((p0, x0), (p1, x1)) = (at[i - 1], at[i]);
            x0 + (x1 - x0) * (q - p0) / (p1 - p0)
        }
    }
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The first and third quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    (quantile(values, 0.25), quantile(values, 0.75))
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of the values in the host's fast regime: those at most
/// [`QUIET_FACTOR`] times their [`REFERENCE_Q`] quantile (see
/// [`LoopStats`]).
pub fn quiet_median(values: &[f64]) -> f64 {
    let limit = QUIET_FACTOR * quantile(values, REFERENCE_Q);
    let quiet: Vec<f64> = values.iter().copied().filter(|&v| v <= limit).collect();
    median(&quiet)
}

/// One completed op.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Host time of the whole op.
    pub op_ns: u64,
    /// Host time of the part that executes guest code.
    pub run_ns: u64,
    /// Simulated instructions the op executed.
    pub instructions: u64,
    /// Work items the op completed (images, or retired contexts).
    pub items: u64,
}

/// Steps of the calibration loop per sample.
const CAL_STEPS: u64 = 100_000;
/// Op time between calibration samples, at least.
const CAL_EVERY_NS: u64 = 20_000_000;
/// A calibration sample's time in the fast regime of the host the
/// bounds in `BENCHMARK.json` were set on (a shared two-vCPU 2.0 GHz
/// Intel Xeon VM), so that normalised figures stay close to that host's
/// raw ones.
const CAL_REFERENCE_NS: f64 = 285_000.0;

/// The calibration loop: a fixed interpreter of eight operations over
/// a 64 KB table, independent of every crate the benchmark measures.
/// Returns the host time of one sample.
fn calibration_sample(table: &mut [u32]) -> u64 {
    const CODE: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 0, 2, 1, 3, 5, 4, 6, 7];
    let mask = table.len() as u32 - 1;
    let (mut pc, mut a, mut b, mut i) = (0usize, 1u32, 7u32, 0u32);
    let t = Instant::now();
    for _ in 0..CAL_STEPS {
        match CODE[pc & 15] {
            0 => a = a.wrapping_add(table[(i & mask) as usize]),
            1 => b ^= a.rotate_left(5),
            2 => table[((i ^ b) & mask) as usize] = a,
            3 => i = i.wrapping_mul(5).wrapping_add(1),
            4 => pc += (a & 1 == 0) as usize,
            5 => a = a.wrapping_mul(3),
            6 => b = b.wrapping_add(i),
            _ => i ^= b >> 7,
        }
        pc += 1;
    }
    std::hint::black_box((a, b));
    t.elapsed().as_nanos() as u64
}

/// Ops one loop records at most.
const MAX_OPS: usize = 1 << 17;
/// Calibration samples one loop records at most.
const MAX_CAL: usize = 1 << 12;

/// The quantile of an item's op times that is its reference pace: low,
/// so that a run with only a few fast-regime ops still finds them.
const REFERENCE_Q: f64 = 0.05;
/// An op is in the host's fast regime when it takes at most this many
/// times its item's reference pace.
const QUIET_FACTOR: f64 = 1.4;

/// What one op of an item does; the same on every op of that item,
/// since every op is checked against the item's oracle.
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    instructions: u64,
    items: u64,
}

/// Host-time figures over a set of ops.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct HostFigures {
    /// Work items per second: one op of every item, at each item's mean
    /// op time.
    pub items_per_s: f64,
    /// Median op time, ms, with every item weighted alike, as in a pass.
    pub op_ms_p50: f64,
    /// 90th percentile op time, ms, weighted as `op_ms_p50`.
    pub op_ms_p90: f64,
    /// Simulated Minstr per second of guest-execution time: one op of
    /// every item, at each item's mean run time.
    pub sim_mips: f64,
    /// Ops the figures cover.
    pub ops: usize,
}

/// Everything one closed loop measured: each op's item and its two
/// times as `u32` nanoseconds. The record is allocated and touched in
/// full before the loop starts, so that `peak_rss_mb` does not depend on
/// how many ops the host managed.
///
/// On a shared host the simulator runs in two regimes: other tenants
/// make it about 1.9× slower for stretches of a fraction of a second to
/// several seconds, and a run's share of slow stretches varies from run
/// to run. [`LoopStats::quiet`] reports the ops of the fast regime: an
/// op is in it when it takes at most [`QUIET_FACTOR`] times the
/// [`REFERENCE_Q`] quantile of its own item's op times. A slowdown of
/// every op moves that quantile with it and shows in full. A slowdown of
/// only some ops would be classed with the host's slow regime, so
/// [`LoopStats::log`] also prints the raw figures over all ops and over
/// each half of the run.
///
/// The fast regime itself drifts by several percent over minutes. The
/// loop tracks that drift with a calibration sample after every
/// [`CAL_EVERY_NS`] of op time, and [`LoopStats::quiet`] scales its
/// figures to the calibration loop's [`CAL_REFERENCE_NS`].
#[derive(Debug, Default)]
pub struct LoopStats {
    item: Vec<u16>,
    op_ns: Vec<u32>,
    run_ns: Vec<u32>,
    odd_pass: Vec<bool>,
    work: Vec<Work>,
    /// Calibration samples: the index of the op before each, and its time.
    cal: Vec<(u32, u32)>,
    /// Op time since the last calibration sample.
    since_cal_ns: u64,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that failed or disagreed with the oracle.
    pub failed: u64,
}

fn ns32(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}

impl LoopStats {
    fn new(items: usize) -> Self {
        // Filled with a value other than zero, which the allocator could
        // hand out as untouched zero pages.
        fn touched<T: Clone>(fill: T, capacity: usize) -> Vec<T> {
            let mut v = vec![fill; capacity];
            v.clear();
            v
        }
        LoopStats {
            item: touched(u16::MAX, MAX_OPS),
            op_ns: touched(u32::MAX, MAX_OPS),
            run_ns: touched(u32::MAX, MAX_OPS),
            odd_pass: touched(true, MAX_OPS),
            work: vec![Work::default(); items],
            cal: touched((u32::MAX, u32::MAX), MAX_CAL),
            ..LoopStats::default()
        }
    }

    fn record(&mut self, item: usize, pass: usize, s: Sample) {
        self.work[item] = Work {
            instructions: s.instructions,
            items: s.items,
        };
        self.item.push(item as u16);
        self.op_ns.push(ns32(s.op_ns));
        self.run_ns.push(ns32(s.run_ns));
        self.odd_pass.push(pass % 2 == 1);
        self.since_cal_ns += s.op_ns;
    }

    /// Takes a calibration sample once [`CAL_EVERY_NS`] of op time has
    /// passed since the last one.
    fn calibrate_if_due(&mut self, table: &mut [u32]) {
        if self.since_cal_ns >= CAL_EVERY_NS && self.cal.len() < MAX_CAL {
            self.since_cal_ns = 0;
            let ns = calibration_sample(table);
            self.cal.push((self.ops() as u32 - 1, ns32(ns)));
        }
    }

    /// Completed ops.
    pub fn ops(&self) -> usize {
        self.op_ns.len()
    }

    /// Figures over the ops `keep` selects by op index.
    fn figures(&self, keep: impl Fn(usize) -> bool) -> HostFigures {
        let n = self.work.len();
        let (mut count, mut op_sum, mut run_sum) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        let kept: Vec<usize> = (0..self.ops()).filter(|&i| keep(i)).collect();
        for &i in &kept {
            let it = self.item[i] as usize;
            count[it] += 1;
            op_sum[it] += self.op_ns[i] as u64;
            run_sum[it] += self.run_ns[i] as u64;
        }
        // Each item weighs the same however many of its ops are kept, so
        // which items the slow regime happened to hit does not move the
        // quantiles.
        let ms: Vec<(f64, f64)> = kept
            .iter()
            .map(|&i| {
                let it = self.item[i] as usize;
                (self.op_ns[i] as f64 / 1e6, 1.0 / count[it] as f64)
            })
            .collect();
        // One op of every item that has any, at its mean times.
        let (mut items, mut instrs, mut op_ns, mut run_ns) = (0.0, 0.0, 0.0, 0.0);
        for it in (0..n).filter(|&it| count[it] > 0) {
            items += self.work[it].items as f64;
            instrs += self.work[it].instructions as f64;
            op_ns += op_sum[it] as f64 / count[it] as f64;
            run_ns += run_sum[it] as f64 / count[it] as f64;
        }
        HostFigures {
            items_per_s: ratio(items * 1e9, op_ns),
            op_ms_p50: weighted_quantile(&ms, 0.5),
            op_ms_p90: weighted_quantile(&ms, 0.9),
            sim_mips: ratio(instrs * 1e3, run_ns),
            ops: ms.len(),
        }
    }

    /// Whether each op ran in the host's fast regime.
    fn quiet_ops(&self) -> Vec<bool> {
        let mut per_item: Vec<Vec<f64>> = vec![Vec::new(); self.work.len()];
        for (&it, &ns) in self.item.iter().zip(&self.op_ns) {
            per_item[it as usize].push(ns as f64);
        }
        let reference: Vec<f64> = per_item.iter().map(|v| quantile(v, REFERENCE_Q)).collect();
        self.item
            .iter()
            .zip(&self.op_ns)
            .map(|(&it, &ns)| ns as f64 <= QUIET_FACTOR * reference[it as usize])
            .collect()
    }

    /// The figures over the ops in the host's fast regime, in raw host
    /// time.
    pub fn quiet_raw(&self) -> HostFigures {
        let quiet = self.quiet_ops();
        self.figures(|i| quiet[i])
    }

    /// The median calibration sample taken right after a fast-regime op
    /// (after any op, if none was), in ns; 0 without samples.
    pub fn calibration_ns(&self) -> f64 {
        let quiet = self.quiet_ops();
        let after_quiet: Vec<f64> = self
            .cal
            .iter()
            .filter(|(op, _)| quiet[*op as usize])
            .map(|&(_, ns)| ns as f64)
            .collect();
        if after_quiet.is_empty() {
            let all: Vec<f64> = self.cal.iter().map(|&(_, ns)| ns as f64).collect();
            median(&all)
        } else {
            median(&after_quiet)
        }
    }

    /// What host times of this run are multiplied by to express them at
    /// the reference host speed: [`CAL_REFERENCE_NS`] over
    /// [`LoopStats::calibration_ns`], or 1 without samples.
    pub fn host_scale(&self) -> f64 {
        match self.calibration_ns() {
            ns if ns > 0.0 => CAL_REFERENCE_NS / ns,
            _ => 1.0,
        }
    }

    /// The figures over the ops in the host's fast regime, normalised to
    /// the reference host speed.
    pub fn quiet(&self) -> HostFigures {
        let (f, k) = (self.quiet_raw(), self.host_scale());
        HostFigures {
            items_per_s: f.items_per_s / k,
            op_ms_p50: f.op_ms_p50 * k,
            op_ms_p90: f.op_ms_p90 * k,
            sim_mips: f.sim_mips / k,
            ops: f.ops,
        }
    }

    /// The figures over every op, and over each half of the run.
    pub fn log(&self) -> Vec<String> {
        let line = |what: &str, f: HostFigures| {
            format!(
                "{what:<22} ops {:>6}  items_per_s {:.4}  op_ms_p50 {:.4}  op_ms_p90 {:.4}  sim_mips {:.3}",
                f.ops, f.items_per_s, f.op_ms_p50, f.op_ms_p90, f.sim_mips
            )
        };
        let half = self.ops() / 2;
        vec![
            format!(
                "host speed: calibration sample {:.0} ns (median of {} samples, fast regime), scale {:.4}",
                self.calibration_ns(),
                self.cal.len(),
                self.host_scale()
            ),
            line("fast-regime ops, raw", self.quiet_raw()),
            line("all ops, raw", self.figures(|_| true)),
            line("first half, raw", self.figures(|i| i < half)),
            line("second half, raw", self.figures(|i| i >= half)),
        ]
    }

    /// The `q` quantile of op time, in ms, over all odd (or even) passes.
    pub fn op_ms_parity(&self, odd: bool, q: f64) -> f64 {
        let ms: Vec<f64> = self
            .op_ns
            .iter()
            .zip(&self.odd_pass)
            .filter(|(_, &o)| o == odd)
            .map(|(&ns, _)| ns as f64 / 1e6)
            .collect();
        quantile(&ms, q)
    }
}

/// A closed loop: issues op `i` of `n` only after the previous op
/// completes, in passes over all `n` in a seeded order, until `seconds`
/// have passed and at least `min_ops` ops are done, or the record has no
/// room for another pass. The clock is only checked between passes, so
/// every pass is whole. `op` gets the item
/// index and the pass number; `between` runs after each pass, untimed,
/// with the share of `seconds` elapsed so far.
pub fn closed_loop(
    n: usize,
    seconds: f64,
    min_ops: usize,
    rng: &mut fpc_rng::Rng,
    mut op: impl FnMut(usize, usize) -> Result<Sample, String>,
    mut between: impl FnMut(f64),
) -> LoopStats {
    let start = Instant::now();
    let mut out = LoopStats::new(n);
    let mut table = vec![0u32; 1 << 14];
    let mut order: Vec<usize> = (0..n).collect();
    let mut pass = 0;
    while (pass == 0 || out.ops() < min_ops || start.elapsed().as_secs_f64() < seconds)
        && out.ops() + n <= MAX_OPS
    {
        for i in (1..n).rev() {
            order.swap(i, rng.gen_index(i + 1));
        }
        for &i in &order {
            out.attempted += 1;
            match op(i, pass) {
                Ok(s) => {
                    out.record(i, pass, s);
                    out.calibrate_if_due(&mut table);
                }
                Err(e) => {
                    out.failed += 1;
                    if out.failed <= 5 {
                        eprintln!("op {i} failed: {e}");
                    }
                }
            }
        }
        pass += 1;
        if out.ops() == 0 {
            break;
        }
        between(start.elapsed().as_secs_f64() / seconds);
    }
    out
}

/// Busy-waits for `ns` nanoseconds. Used only by the self-test's
/// injected per-op delay.
pub fn spin(ns: u64) {
    let (from, d) = (Instant::now(), Duration::from_nanos(ns));
    while from.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    fn sample(ns: u64) -> Sample {
        Sample {
            op_ns: ns,
            run_ns: ns / 2,
            instructions: 1000,
            items: 1,
        }
    }

    #[test]
    fn weighted_quantile_weighs_items_alike() {
        let even = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)];
        assert_eq!(weighted_quantile(&even, 0.5), 2.5);
        assert_eq!(weighted_quantile(&even, 0.0), 1.0);
        assert_eq!(weighted_quantile(&even, 1.0), 4.0);
        // Three ops of item A weigh as much as one of item B, so the
        // median lies between them rather than at A.
        let a_b = [
            (1.0, 1.0 / 3.0),
            (1.0, 1.0 / 3.0),
            (1.0, 1.0 / 3.0),
            (3.0, 1.0),
        ];
        assert_eq!(weighted_quantile(&a_b, 0.5), 1.5);
        assert_eq!(weighted_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quiet_median_leaves_out_the_slow_regime() {
        let v = [1.0, 1.1, 2.0, 1.2, 2.1, 1.3, 2.2];
        assert_eq!(quiet_median(&v), 1.15);
        assert_eq!(quiet_median(&[3.0]), 3.0);
    }

    #[test]
    fn slow_regime_ops_are_left_out_and_logged() {
        let mut s = LoopStats::new(2);
        for pass in 0..20 {
            // Item 1 is twice as long as item 0; every fourth pass runs
            // in a slow regime.
            let slow = if pass % 4 == 3 { 2 } else { 1 };
            s.record(0, pass, sample(1_000_000 * slow));
            s.record(1, pass, sample(2_000_000 * slow));
        }
        let q = s.quiet();
        assert_eq!(q.ops, 30);
        assert!((q.items_per_s - 2.0 / 3e-3).abs() < 1e-9);
        assert!((q.sim_mips - 2000.0 * 1e3 / 1.5e6).abs() < 1e-9);
        assert_eq!(s.figures(|_| true).ops, 40);
        assert_eq!(s.log().len(), 5);
    }

    #[test]
    fn a_slowdown_of_every_op_shows_in_full() {
        let (mut a, mut b) = (LoopStats::new(1), LoopStats::new(1));
        for pass in 0..10 {
            a.record(0, pass, sample(1_000_000 + pass as u64));
            b.record(0, pass, sample(1_300_000 + pass as u64));
        }
        let (qa, qb) = (a.quiet(), b.quiet());
        assert_eq!(qa.ops, 10);
        assert_eq!(qb.ops, 10);
        assert!((qa.items_per_s / qb.items_per_s - 1.3).abs() < 1e-3);
        assert!((b.op_ms_parity(true, 0.5) - 1.300005).abs() < 1e-9);
    }
}
