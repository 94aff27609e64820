//! Simulation units: cycles, durations, and byte sizes.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub};

/// An absolute point in simulated time, measured in GPU core cycles
/// (the paper's shader clock runs at 1.0 GHz, so 1 cycle = 1 ns).
///
/// # Examples
///
/// ```
/// use mgpu_types::{Cycle, Duration};
///
/// let t = Cycle::ZERO + Duration::cycles(40);
/// assert_eq!(t.as_u64(), 40);
/// assert_eq!(t - Cycle::ZERO, Duration::cycles(40));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero: the start of the simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// The largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Creates an absolute time from a raw cycle count.
    #[must_use]
    pub const fn new(cycles: u64) -> Self {
        Cycle(cycles)
    }

    /// Raw cycle count since simulation start.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating difference: `self - earlier`, or zero if `earlier` is later.
    #[must_use]
    pub const fn saturating_since(self, earlier: Cycle) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    #[must_use]
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl Add<Duration> for Cycle {
    type Output = Cycle;

    fn add(self, rhs: Duration) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Cycle {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Cycle) -> Duration {
        debug_assert!(self.0 >= rhs.0, "negative cycle difference");
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A span of simulated time in cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration of `n` cycles.
    #[must_use]
    pub const fn cycles(n: u64) -> Self {
        Duration(n)
    }

    /// Raw cycle count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A quantity of bytes, used for wire-traffic accounting and storage sizing.
///
/// # Examples
///
/// ```
/// use mgpu_types::ByteSize;
///
/// let block = ByteSize::CACHELINE;
/// assert_eq!(block.as_u64(), 64);
/// assert_eq!((block * 64).as_u64(), 4096); // one page
/// assert_eq!(ByteSize::new(2816).to_string(), "2.75 KB");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// One 64 B cacheline — the granularity of direct block access.
    pub const CACHELINE: ByteSize = ByteSize(64);

    /// One 4 KB page — the granularity of page migration.
    pub const PAGE: ByteSize = ByteSize(4096);

    /// Creates a size from a raw byte count.
    #[must_use]
    pub const fn new(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size from a bit count, rounding up to whole bytes.
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        ByteSize(bits.div_ceil(8))
    }

    /// Raw byte count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Size in KiB as a float (the paper's Table I reports KB = KiB).
    #[must_use]
    pub fn as_kib(self) -> f64 {
        self.0 as f64 / 1024.0
    }
}

impl Add for ByteSize {
    type Output = ByteSize;

    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl core::ops::Mul<u64> for ByteSize {
    type Output = ByteSize;

    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        ByteSize(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.2} MB", self.0 as f64 / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.2} KB", self.as_kib())
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle::new(100);
        assert_eq!(t + Duration::cycles(60), Cycle::new(160));
        assert_eq!(Cycle::new(160) - t, Duration::cycles(60));
        assert_eq!(t.saturating_since(Cycle::new(200)), Duration::ZERO);
        assert_eq!(t.max(Cycle::new(50)), t);
    }

    #[test]
    fn cycle_add_assign() {
        let mut t = Cycle::ZERO;
        t += Duration::cycles(5);
        t += Duration::cycles(7);
        assert_eq!(t.as_u64(), 12);
    }

    #[test]
    #[should_panic(expected = "negative")]
    #[cfg(debug_assertions)]
    fn negative_cycle_difference_panics_in_debug() {
        let _ = Cycle::new(1) - Cycle::new(2);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::cycles(n)).sum();
        assert_eq!(total, Duration::cycles(6));
        assert_eq!(
            Duration::cycles(3).saturating_sub(Duration::cycles(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn byte_size_constants_and_math() {
        assert_eq!(ByteSize::CACHELINE * 64, ByteSize::PAGE);
        assert_eq!(ByteSize::from_bits(512).as_u64(), 64);
        assert_eq!(ByteSize::from_bits(1).as_u64(), 1);
        assert_eq!(ByteSize::from_bits(9).as_u64(), 2);
        let total: ByteSize = [ByteSize::new(10), ByteSize::new(20)].into_iter().sum();
        assert_eq!(total.as_u64(), 30);
    }

    #[test]
    fn byte_size_display_scales() {
        assert_eq!(ByteSize::new(64).to_string(), "64 B");
        assert_eq!(ByteSize::new(2816).to_string(), "2.75 KB");
        assert_eq!(ByteSize::new(2 * 1024 * 1024).to_string(), "2.00 MB");
    }

    #[test]
    fn table_one_entry_size_matches_paper() {
        // Paper §IV-D: an OTP buffer entry is valid(1) + enc pad(512) +
        // auth pad(128) + counter(64) = 705 bits.
        let entry_bits = 1 + 512 + 128 + 64;
        // 32 OTPs (4-GPU, 1x) => 705 * 32 bits = 2820 bytes = 2.75 KB.
        let total = ByteSize::from_bits(entry_bits * 32);
        assert_eq!(total.as_u64(), 2820);
        assert_eq!(format!("{:.2}", total.as_kib()), "2.75");
    }
}
