//! Physical quantities: byte counts.
//!
//! The planner and simulator shuffle tensor sizes around constantly; a
//! dedicated newtype keeps units straight and gives uniform formatting
//! ("2.56 GB") in reports. Durations are plain `f64` microseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A byte count (tensor size, memory footprint, traffic volume).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(pub u64);

pub const KIB: u64 = 1024;
pub const MIB: u64 = 1024 * 1024;
pub const GIB: u64 = 1024 * 1024 * 1024;

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    /// Constructs from mebibytes.
    #[inline]
    pub fn mib(v: f64) -> Self {
        Bytes((v * MIB as f64).round() as u64)
    }

    /// Constructs from decimal megabytes (10^6 bytes) — the unit the paper's
    /// tables use for model statistics.
    #[inline]
    pub fn mb(v: f64) -> Self {
        Bytes((v * 1e6).round() as u64)
    }

    /// Constructs from decimal gigabytes (10^9 bytes).
    #[inline]
    pub fn gb(v: f64) -> Self {
        Bytes((v * 1e9).round() as u64)
    }

    /// Value in decimal megabytes.
    #[inline]
    pub fn to_mb(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in decimal gigabytes.
    #[inline]
    pub fn to_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Constructs from gibibytes.
    #[inline]
    pub fn gib(v: f64) -> Self {
        Bytes((v * GIB as f64).round() as u64)
    }

    /// Byte count as `f64`, for rate arithmetic.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Value in gibibytes.
    #[inline]
    pub fn to_gib(self) -> f64 {
        self.0 as f64 / GIB as f64
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Scales the byte count by a dimensionless factor, rounding to nearest.
    #[inline]
    pub fn scale(self, factor: f64) -> Bytes {
        debug_assert!(factor >= 0.0, "negative byte scale factor {factor}");
        Bytes((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0 as f64;
        if self.0 >= GIB {
            write!(f, "{:.2} GB", v / GIB as f64)
        } else if self.0 >= MIB {
            write!(f, "{:.1} MB", v / MIB as f64)
        } else if self.0 >= KIB {
            write!(f, "{:.1} KB", v / KIB as f64)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bytes_display_picks_unit() {
        assert_eq!(Bytes(512).to_string(), "512 B");
        assert_eq!(Bytes::mib(8.8).to_string(), "8.8 MB");
        assert_eq!(Bytes::gib(2.56).to_string(), "2.56 GB");
    }

    #[test]
    fn bytes_arithmetic() {
        let a = Bytes::mib(1.0);
        let b = Bytes::mib(2.0);
        assert_eq!(a + b, Bytes::mib(3.0));
        assert_eq!(b - a, a);
        assert_eq!(a * 4, Bytes::mib(4.0));
        assert_eq!(b / 2, a);
        assert_eq!(Bytes::mib(1.0).saturating_sub(Bytes::mib(2.0)), Bytes::ZERO);
    }

    #[test]
    fn bytes_scale_rounds() {
        assert_eq!(Bytes(100).scale(0.5), Bytes(50));
        assert_eq!(Bytes(3).scale(1.0 / 3.0), Bytes(1));
    }

    proptest! {
        #[test]
        fn bytes_add_commutes(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            prop_assert_eq!(Bytes(a) + Bytes(b), Bytes(b) + Bytes(a));
        }
    }
}
