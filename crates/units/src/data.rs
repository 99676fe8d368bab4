//! Frame sizes ([`Bytes`]) and link rates ([`BitsPerSecond`]).

use crate::time::Seconds;

/// A frame or field size in whole bytes.
///
/// Packet formats are specified in bytes, so this is an integer newtype
/// rather than an `f64` quantity; conversion to airtime happens through
/// [`BitsPerSecond::airtime`] or `Bytes / BitsPerSecond`.
///
/// # Examples
///
/// ```
/// use edmac_units::{BitsPerSecond, Bytes};
///
/// let payload = Bytes::new(32) + Bytes::new(18); // payload + header
/// let radio = BitsPerSecond::new(250_000.0);
/// let airtime = payload / radio;
/// assert!((airtime.as_millis() - 1.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u32);

impl Bytes {
    /// The empty size.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a size of `n` bytes.
    #[inline]
    pub const fn new(n: u32) -> Bytes {
        Bytes(n)
    }

    /// Returns the size in bytes.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Returns the size in bits.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0 as u64 * 8
    }
}

impl std::ops::Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Bytes {
    type Output = Bytes;
    /// # Panics
    ///
    /// Panics on underflow in debug builds, like integer subtraction.
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u32> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u32) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl std::iter::Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl std::fmt::Display for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} B", self.0)
    }
}

quantity! {
    /// A physical-layer link rate in bits per second.
    ///
    /// # Examples
    ///
    /// ```
    /// use edmac_units::{BitsPerSecond, Bytes};
    ///
    /// // IEEE 802.15.4 (CC2420): 250 kbps.
    /// let rate = BitsPerSecond::from_kilo(250.0);
    /// assert_eq!(rate.airtime(Bytes::new(125)).as_millis(), 4.0);
    /// ```
    pub struct BitsPerSecond("bit/s");
}

impl BitsPerSecond {
    /// Creates a rate from kilobits per second.
    #[inline]
    pub const fn from_kilo(kbps: f64) -> BitsPerSecond {
        BitsPerSecond::new(kbps * 1_000.0)
    }

    /// Returns the time taken to serialize `size` onto the link.
    #[inline]
    pub fn airtime(self, size: Bytes) -> Seconds {
        Seconds::new(size.bits() as f64 / self.value())
    }
}

/// Size over a link rate yields airtime.
impl std::ops::Div<BitsPerSecond> for Bytes {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: BitsPerSecond) -> Seconds {
        rhs.airtime(self)
    }
}

#[cfg(test)]
mod tests {
    use super::{BitsPerSecond, Bytes};

    #[test]
    fn byte_arithmetic() {
        let a = Bytes::new(10);
        let b = Bytes::new(4);
        assert_eq!((a + b).value(), 14);
        assert_eq!((a - b).value(), 6);
        assert_eq!((b * 3).value(), 12);
        let total: Bytes = [a, b, Bytes::new(1)].into_iter().sum();
        assert_eq!(total.value(), 15);
    }

    #[test]
    fn bits_conversion() {
        assert_eq!(Bytes::new(0).bits(), 0);
        assert_eq!(Bytes::new(125).bits(), 1000);
    }

    #[test]
    fn airtime_at_802154_rate() {
        let rate = BitsPerSecond::from_kilo(250.0);
        // 50-byte frame = 400 bits = 1.6 ms at 250 kbps.
        assert!((rate.airtime(Bytes::new(50)).as_millis() - 1.6).abs() < 1e-12);
        assert!(((Bytes::new(50) / rate).as_millis() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bytes::new(18).to_string(), "18 B");
        assert_eq!(BitsPerSecond::from_kilo(250.0).to_string(), "250000 bit/s");
    }
}
