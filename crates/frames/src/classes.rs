//! Frame size classes: the geometric ladder behind the allocation
//! vector.
//!
//! "Frame sizes increase from a minimum of about 16 bytes in steps of
//! about 20%. … The choice of frame sizes is private to the compiler
//! (which assigns the frame size index values) and the software
//! allocator (which replenishes the free lists), and is not known to
//! the fast heap allocator." (§5.3)
//!
//! Sizes here are in 16-bit words and are rounded up to **odd** word
//! counts so that a frame block — one hidden size-index word followed
//! by the frame proper — occupies an even number of words, keeping
//! every frame two-word aligned as the packed context word requires.

/// The frame-size ladder.
///
/// ```
/// use fpc_frames::SizeClasses;
///
/// let c = SizeClasses::mesa();
/// let fsi = c.fsi_for(10).unwrap();
/// assert!(c.size_of(fsi) >= 10);
/// // Every class size is odd, so frames stay two-word aligned.
/// assert!(c.size_of(fsi) % 2 == 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeClasses {
    sizes: Vec<u32>,
}

impl SizeClasses {
    /// The largest frame-size index representable in a procedure
    /// header byte.
    pub const MAX_FSI: usize = 255;

    /// Builds a geometric ladder: the smallest class holds `min_words`,
    /// each subsequent class is `ratio` times larger (at least one word
    /// larger), until `max_words` is covered. All sizes are rounded up
    /// to odd word counts.
    ///
    /// # Panics
    ///
    /// Panics if `min_words` is zero, `ratio <= 1.0`, `max_words <
    /// min_words`, or more than 256 classes would be needed.
    pub fn geometric(min_words: u32, ratio: f64, max_words: u32) -> Self {
        assert!(min_words > 0, "minimum frame size must be positive");
        assert!(ratio > 1.0, "ratio must exceed 1");
        assert!(max_words >= min_words, "max below min");
        let mut sizes = Vec::new();
        let mut s = min_words | 1; // round up to odd
        loop {
            sizes.push(s);
            if s >= max_words {
                break;
            }
            let next = ((s as f64 * ratio).ceil() as u32).max(s + 2);
            s = next | 1;
            assert!(sizes.len() <= Self::MAX_FSI, "too many size classes");
        }
        SizeClasses { sizes }
    }

    /// The ladder used by the Mesa-style machine: minimum ≈16 bytes
    /// (9 words), ≈20% steps, covering frames up to several thousand
    /// bytes (2048 words).
    ///
    /// With a strict 20% step this takes 29 classes; the paper's
    /// "less than 20 steps" corresponds to slightly coarser steps over
    /// the same range — experiment E3 sweeps the ratio and shows the
    /// fragmentation/steps trade-off either way.
    pub fn mesa() -> Self {
        Self::geometric(9, 1.2, 2048)
    }

    /// A coarser ladder with under 20 steps covering the same range
    /// (ratio ≈ 1.35), matching the paper's step count at the price of
    /// more internal fragmentation.
    pub fn paper_nominal() -> Self {
        Self::geometric(9, 1.35, 2048)
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the ladder is empty (never true for constructed ladders).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The smallest class index whose size is at least `words`, or
    /// `None` if the request exceeds the largest class.
    pub fn fsi_for(&self, words: u32) -> Option<u8> {
        let idx = self.sizes.partition_point(|&s| s < words);
        (idx < self.sizes.len()).then_some(idx as u8)
    }

    /// The frame size (in words) of class `fsi`.
    ///
    /// # Panics
    ///
    /// Panics if `fsi` is out of range.
    pub fn size_of(&self, fsi: u8) -> u32 {
        self.sizes[fsi as usize]
    }

    /// The frame size (in words) of class `fsi`, or `None` beyond the
    /// ladder.
    #[inline]
    pub fn words(&self, fsi: u8) -> Option<u32> {
        self.sizes.get(fsi as usize).copied()
    }

    /// The largest frame size covered.
    pub fn max_words(&self) -> u32 {
        *self.sizes.last().expect("ladder is never empty")
    }

    /// Iterates over `(fsi, words)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u8, u32)> + '_ {
        self.sizes.iter().enumerate().map(|(i, &s)| (i as u8, s))
    }

    /// Worst-case internal fragmentation of this ladder: the largest
    /// value of `1 − request/granted` over all request sizes, which is
    /// approached just above each class boundary.
    pub fn worst_case_fragmentation(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for w in self.sizes.windows(2) {
            // Request one word above the smaller class.
            let req = w[0] + 1;
            let frag = 1.0 - req as f64 / w[1] as f64;
            worst = worst.max(frag);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesa_ladder_shape() {
        let c = SizeClasses::mesa();
        assert!(
            c.len() < 32,
            "fsi must fit comfortably in a byte: {}",
            c.len()
        );
        assert!(c.max_words() >= 2048);
        assert_eq!(c.size_of(0), 9); // ≈16 bytes
                                     // Monotone strictly increasing, all odd.
        for (i, (_, s)) in c.iter().enumerate() {
            assert_eq!(s % 2, 1, "class {i} size {s} not odd");
            if i > 0 {
                assert!(s > c.size_of(i as u8 - 1));
            }
        }
    }

    #[test]
    fn paper_nominal_has_under_20_steps() {
        let c = SizeClasses::paper_nominal();
        assert!(c.len() < 20, "got {} classes", c.len());
        assert!(c.max_words() >= 2048);
    }

    #[test]
    fn fsi_for_picks_smallest_sufficient_class() {
        let c = SizeClasses::mesa();
        for req in 1..=c.max_words() {
            let fsi = c.fsi_for(req).unwrap();
            assert!(c.size_of(fsi) >= req);
            if fsi > 0 {
                assert!(
                    c.size_of(fsi - 1) < req,
                    "class {} would suffice for {req}",
                    fsi - 1
                );
            }
        }
    }

    #[test]
    fn oversize_request_is_none() {
        let c = SizeClasses::mesa();
        assert_eq!(c.fsi_for(c.max_words() + 1), None);
    }

    #[test]
    fn steps_are_about_twenty_percent() {
        let c = SizeClasses::mesa();
        for w in c.iter().collect::<Vec<_>>().windows(2) {
            let ratio = w[1].1 as f64 / w[0].1 as f64;
            // Small classes step coarser due to odd rounding; cap well
            // below a factor of 2.
            assert!(ratio > 1.0 && ratio < 1.6, "step {ratio}");
        }
    }

    #[test]
    fn worst_case_fragmentation_reasonable() {
        // ~20% steps mean worst-case internal waste just under ~17%,
        // consistent with the paper's ~10% average claim (average
        // requests sit midway into a class).
        let frag = SizeClasses::mesa().worst_case_fragmentation();
        assert!(frag < 0.35, "worst-case fragmentation {frag}");
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn ratio_must_exceed_one() {
        let _ = SizeClasses::geometric(9, 1.0, 100);
    }

    #[test]
    fn custom_ladder() {
        let c = SizeClasses::geometric(5, 2.0, 40);
        // 5, 11, 23, 47 (odd-rounded doubling)
        assert_eq!(c.len(), 4);
        assert_eq!(c.size_of(0), 5);
        assert!(c.max_words() >= 40);
    }
}
