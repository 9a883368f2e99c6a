//! An exact histogram over `u64` samples.
//!
//! The experiments need exact distributional answers ("95% of frames are
//! smaller than 80 bytes", "two-thirds of instructions are one byte"),
//! and sample counts are modest, so this is an exact histogram rather
//! than an approximate sketch.
//!
//! Internally it is split by value: small values (the overwhelming
//! majority — cycle counts, frame sizes, instruction lengths) are
//! counted in a dense array indexed by value, anything larger spills to
//! a sorted map. `record` sits on the simulator's per-transfer path, so
//! the common case must be an array increment, not a tree walk.

use std::collections::BTreeMap;
use std::fmt;

/// Values below this are counted in the dense array; the rest go to the
/// spill map. Large enough for every per-event statistic the simulator
/// records (cycles, references, frame bytes).
const DENSE_LIMIT: u64 = 1024;

/// An exact histogram of `u64` samples.
///
/// ```
/// use fpc_stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record_n(1, 2); // two one-byte instructions
/// h.record(3);      // one three-byte instruction
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(3));
/// assert!((h.mean() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Default, Clone)]
pub struct Histogram {
    /// `dense[v]` counts samples of value `v`; grown lazily, so the
    /// length carries no information beyond the largest small value
    /// ever recorded.
    dense: Vec<u64>,
    /// Counts for values `>= DENSE_LIMIT`.
    spill: BTreeMap<u64, u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample with the given value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples with the given value.
    ///
    /// Totals (`count`, `sum`) are derived at query time, not
    /// maintained here: recording must stay a bare array increment,
    /// because the simulator calls it on every transfer.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        // The hit path: a value the dense array already covers. The
        // array never grows past `DENSE_LIMIT`, so this also keeps
        // spill values out.
        if value < self.dense.len() as u64 {
            self.dense[value as usize] += n;
        } else {
            self.record_cold(value, n);
        }
    }

    /// [`Histogram::record_n`] for a value the dense array does not
    /// cover yet: grow it, or spill. A zero weight changes nothing.
    #[cold]
    #[inline(never)]
    fn record_cold(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if value < DENSE_LIMIT {
            let i = value as usize;
            self.dense.resize(i + 1, 0);
            self.dense[i] += n;
        } else {
            *self.spill.entry(value).or_insert(0) += n;
        }
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.dense.iter().sum::<u64>() + self.spill.values().sum::<u64>()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.iter().map(|(v, n)| v as u128 * n as u128).sum()
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        self.iter().next().map(|(v, _)| v)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        self.spill
            .keys()
            .next_back()
            .copied()
            .or_else(|| self.dense.iter().rposition(|&n| n > 0).map(|i| i as u64))
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Fraction of samples strictly below `threshold`, in `[0, 1]`.
    ///
    /// This is the paper's favourite statistic: "95% of all frames
    /// allocated are smaller than 80 bytes" is `fraction_below(80) >= 0.95`.
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let cut = (threshold.min(DENSE_LIMIT) as usize).min(self.dense.len());
        let below: u64 = self.dense[..cut].iter().sum::<u64>()
            + self.spill.range(..threshold).map(|(_, &n)| n).sum::<u64>();
        below as f64 / count as f64
    }

    /// Fraction of samples equal to `value`.
    pub fn fraction_at(&self, value: u64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let at = if value < DENSE_LIMIT {
            self.dense.get(value as usize).copied().unwrap_or(0)
        } else {
            self.spill.get(&value).copied().unwrap_or(0)
        };
        at as f64 / count as f64
    }

    /// Smallest value `v` such that at least `q` (in `[0,1]`) of the
    /// samples are `<= v`. Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
        let count = self.count();
        if count == 0 {
            return None;
        }
        let target = (q * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (value, n) in self.iter() {
            seen += n;
            if seen >= target {
                return Some(value);
            }
        }
        self.max()
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(v, &n)| (v as u64, n))
            .chain(self.spill.iter().map(|(&v, &n)| (v, n)))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, n) in other.iter() {
            self.record_n(v, n);
        }
    }

    /// Number of samples recorded at exactly `value`.
    pub fn count_at(&self, value: u64) -> u64 {
        if value < DENSE_LIMIT {
            self.dense.get(value as usize).copied().unwrap_or(0)
        } else {
            self.spill.get(&value).copied().unwrap_or(0)
        }
    }

    /// The `k` most frequently recorded values as `(value, count)`
    /// pairs, heaviest first. Ties break toward the smaller value so
    /// the ranking is deterministic.
    ///
    /// This is the hotness query: when the histogram maps procedure
    /// identifiers to invocation counts, `top_k` is the set of bodies
    /// worth promoting to a faster execution tier.
    ///
    /// ```
    /// use fpc_stats::Histogram;
    ///
    /// let mut h = Histogram::new();
    /// h.record_n(7, 100);
    /// h.record_n(3, 250);
    /// h.record_n(9, 5);
    /// assert_eq!(h.top_k(2), vec![(3, 250), (7, 100)]);
    /// ```
    pub fn top_k(&self, k: usize) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self.iter().collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

/// Merges `parts` into one distribution and ranks it: the `k` heaviest
/// `(value, count)` pairs of the combined multiset, heaviest first.
///
/// Shards that each count hotness locally (one histogram per worker,
/// per phase, per machine) are ranked globally this way without the
/// caller mutating any of them.
pub fn merged_top_k<'a, I>(parts: I, k: usize) -> Vec<(u64, u64)>
where
    I: IntoIterator<Item = &'a Histogram>,
{
    let mut merged = Histogram::new();
    for part in parts {
        merged.merge(part);
    }
    merged.top_k(k)
}

/// The quantiles of the union of `parts`: for each `q` in `qs`, the
/// smallest value `v` such that at least `q` of the combined samples
/// are `<= v` (`None` for every entry when all parts are empty).
///
/// This is the merged-percentile query for sharded collection: workers
/// that each record latencies locally get one global p50/p95/p99
/// without any shard mutating — or even seeing — another's histogram.
/// Percentiles do not compose shard-by-shard (the p95 of per-shard
/// p95s is not the p95 of the union), so the merge has to happen on
/// the full distributions; exact histograms make that cheap.
pub fn merged_quantiles<'a, I>(parts: I, qs: &[f64]) -> Vec<Option<u64>>
where
    I: IntoIterator<Item = &'a Histogram>,
{
    let mut merged = Histogram::new();
    for part in parts {
        merged.merge(part);
    }
    qs.iter().map(|&q| merged.quantile(q)).collect()
}

/// Equality is over the recorded multiset — the dense array's trailing
/// zeros (an artifact of growth order) do not participate.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Histogram {}

/// Debug shows the logical `(value, count)` map, not the dense/spill
/// split, so representation details never leak into golden output.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Buckets<'a>(&'a Histogram);
        impl fmt::Debug for Buckets<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("buckets", &Buckets(self))
            .finish()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let count = self.count();
        if count == 0 {
            return write!(f, "(empty histogram)");
        }
        writeln!(f, "n={count} mean={:.2}", self.mean())?;
        for (v, n) in self.iter() {
            writeln!(f, "  {v:>8}: {n}")?;
        }
        Ok(())
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

impl Extend<u64> for Histogram {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_statistics() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.fraction_below(100), 0.0);
        assert_eq!(h.to_string(), "(empty histogram)");
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(5, 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn record_n_grows_spills_and_batches_like_single_records() {
        let mut h = Histogram::new();
        // The first value grows the dense array to cover it.
        h.record_n(6, 2);
        assert_eq!(h.dense.len(), 7);
        assert!(h.spill.is_empty());
        // A covered value is a plain increment.
        h.record_n(3, 1);
        assert_eq!(h.dense.len(), 7);
        // A value at or past the dense limit spills.
        h.record_n(DENSE_LIMIT, 4);
        assert_eq!(h.spill.get(&DENSE_LIMIT), Some(&4));
        assert_eq!(h.dense.len(), 7);
        // A zero weight changes nothing, dense or spill.
        let before = h.clone();
        h.record_n(500, 0);
        h.record_n(DENSE_LIMIT + 9, 0);
        assert_eq!(h.dense.len(), 7);
        assert_eq!(h.spill.len(), 1);
        assert_eq!(h, before);
        assert_eq!(format!("{h:?}"), format!("{before:?}"));

        // Batched records equal the same events one by one, recorded
        // in another order.
        let events = [2u64, 9, 2, 5_000, 2, 9, 1, 70_000, 5_000, 1_023];
        let mut single = Histogram::new();
        for &v in events.iter().rev() {
            single.record(v);
        }
        let mut batched = Histogram::new();
        for (v, n) in [(9, 2), (5_000, 2), (1, 1), (2, 3), (70_000, 1), (1_023, 1)] {
            batched.record_n(v, n);
        }
        assert_eq!(batched, single);
        assert_eq!(format!("{batched:?}"), format!("{single:?}"));
    }

    #[test]
    fn fraction_below_is_strict() {
        let h: Histogram = [10u64, 20, 30].into_iter().collect();
        assert_eq!(h.fraction_below(10), 0.0);
        assert!((h.fraction_below(21) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.fraction_below(31), 1.0);
    }

    #[test]
    fn quantiles_match_sorted_order() {
        let h: Histogram = [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10].into_iter().collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(0.95), Some(10));
        assert_eq!(h.quantile(1.0), Some(10));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_out_of_range() {
        let h: Histogram = [1u64].into_iter().collect();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a: Histogram = [1u64, 1, 2].into_iter().collect();
        let b: Histogram = [2u64, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.fraction_at(2), 0.4);
    }

    #[test]
    fn mean_tracks_sum() {
        let mut h = Histogram::new();
        h.record_n(4, 3);
        h.record(8);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        assert_eq!(h.sum(), 20);
    }

    #[test]
    fn spill_values_join_the_distribution() {
        let mut h = Histogram::new();
        h.record(3);
        h.record_n(5_000, 2); // beyond the dense range
        h.record(70_000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(70_000));
        assert_eq!(h.quantile(0.5), Some(5_000));
        assert!((h.fraction_below(5_000) - 0.25).abs() < 1e-12);
        assert!((h.fraction_below(5_001) - 0.75).abs() < 1e-12);
        assert_eq!(h.fraction_at(5_000), 0.5);
        assert_eq!(
            h.iter().collect::<Vec<_>>(),
            vec![(3, 1), (5_000, 2), (70_000, 1)]
        );
    }

    #[test]
    fn top_k_ranks_by_count_with_deterministic_ties() {
        let mut h = Histogram::new();
        h.record_n(10, 3);
        h.record_n(4, 7);
        h.record_n(2_000, 7); // spill value, tied with 4
        h.record_n(1, 1);
        assert_eq!(h.top_k(0), vec![]);
        assert_eq!(h.top_k(2), vec![(4, 7), (2_000, 7)]);
        assert_eq!(h.top_k(10), vec![(4, 7), (2_000, 7), (10, 3), (1, 1)]);
        assert_eq!(Histogram::new().top_k(3), vec![]);
    }

    #[test]
    fn count_at_covers_dense_and_spill() {
        let mut h = Histogram::new();
        h.record_n(9, 4);
        h.record_n(9_000, 2);
        assert_eq!(h.count_at(9), 4);
        assert_eq!(h.count_at(9_000), 2);
        assert_eq!(h.count_at(8), 0);
        assert_eq!(h.count_at(8_888), 0);
    }

    #[test]
    fn merged_quantiles_are_union_quantiles_not_quantiles_of_quantiles() {
        // Two skewed shards: per-shard p50s are 1 and 100; the union's
        // p50 is 1 (six of ten samples are 1). A shard-wise combine
        // would get this wrong, which is the point of the helper.
        let a: Histogram = [1u64, 1, 1, 1, 1].into_iter().collect();
        let b: Histogram = [1u64, 100, 100, 100, 200].into_iter().collect();
        assert_eq!(
            merged_quantiles([&a, &b], &[0.5, 0.95, 0.99, 1.0]),
            vec![Some(1), Some(200), Some(200), Some(200)]
        );
        assert_eq!(
            merged_quantiles(std::iter::empty::<&Histogram>(), &[0.5]),
            vec![None]
        );
        // Inputs untouched.
        assert_eq!(a.count(), 5);
        assert_eq!(b.count(), 5);
    }

    #[test]
    fn merged_top_k_ranks_the_union() {
        let a: Histogram = [1u64, 1, 2].into_iter().collect();
        let b: Histogram = [2u64, 2, 3].into_iter().collect();
        // union: 1→2, 2→3, 3→1
        assert_eq!(merged_top_k([&a, &b], 2), vec![(2, 3), (1, 2)]);
        assert_eq!(merged_top_k(std::iter::empty::<&Histogram>(), 2), vec![]);
        // inputs untouched
        assert_eq!(a.count(), 3);
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn equality_ignores_growth_order() {
        let mut a = Histogram::new();
        a.record(100); // grows dense past the other's length
        a.record(2);
        let mut b = Histogram::new();
        b.record(2);
        b.record(100);
        assert_eq!(a, b);
        let c: Histogram = [2u64].into_iter().collect();
        assert_ne!(a, c);
    }
}
