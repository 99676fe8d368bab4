//! Simulation time: integer nanoseconds.
//!
//! Floating-point event times accumulate ordering hazards (two events
//! "at the same time" that differ in the last ulp); integer nanoseconds
//! make event ordering exact and the simulation reproducible.

use edmac_units::Seconds;

/// A point in simulated time, in nanoseconds from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// The raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Converts a (non-negative, finite) duration into simulation time
    /// units, rounding to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `s` is negative or not finite — a
    /// protocol scheduling a NaN timer is a bug worth stopping on.
    pub fn from_seconds(s: Seconds) -> SimTime {
        debug_assert!(s.is_non_negative(), "negative or non-finite duration: {s}");
        SimTime(round_to_u64(s.value() * 1e9))
    }

    /// This time as a [`Seconds`] duration since the run began.
    pub fn as_seconds(self) -> Seconds {
        Seconds::new(self.0 as f64 / 1e9)
    }

    /// The time `duration` after `self`.
    #[must_use]
    pub fn after(self, duration: Seconds) -> SimTime {
        SimTime(self.0 + SimTime::from_seconds(duration).0)
    }

    /// The elapsed nanoseconds since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn nanos_since(self, earlier: SimTime) -> u64 {
        assert!(
            earlier.0 <= self.0,
            "time moved backward: {} < {}",
            self.0,
            earlier.0
        );
        self.0 - earlier.0
    }

    /// The elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (time cannot flow
    /// backward in a monotone event loop).
    pub fn since(self, earlier: SimTime) -> Seconds {
        Seconds::new(self.nanos_since(earlier) as f64 / 1e9)
    }
}

/// `x.round() as u64` without the `round` call, which the baseline
/// x86-64 target (no SSE4.1 `roundsd`) lowers to a libm routine on
/// every conversion.
///
/// Exact for every input: the fractional part `x - trunc(x)` of a
/// finite double is representable, so comparing it with one half is
/// round-half-away-from-zero; the saturating casts send negatives and
/// NaN to 0 and everything from 2^64 up to `u64::MAX`, as `as` does
/// after `round`.
fn round_to_u64(x: f64) -> u64 {
    let i = x as u64;
    if x - i as f64 >= 0.5 {
        i.saturating_add(1)
    } else {
        i
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.0 as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn assert_rounds_like_libm(x: f64) {
        assert_eq!(
            round_to_u64(x),
            x.round() as u64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }

    #[test]
    fn rounding_matches_libm_at_the_edges() {
        let two52 = 2f64.powi(52);
        let two53 = 2f64.powi(53);
        let two64 = 2f64.powi(64);
        let mut edges = vec![
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            -0.5,
            -0.7,
            -1e9,
            f64::MIN,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            two52 - 0.5,
            two52,
            two52 + 0.5,
            two52 + 1.5,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            two64,
            two64 * 2.0,
            f64::MAX,
        ];
        // The largest doubles below 2^64, where `i as f64` rounds up.
        let mut below = two64;
        for _ in 0..4 {
            below = f64::from_bits(below.to_bits() - 1);
            edges.push(below);
        }
        for k in 0..200u64 {
            edges.push(k as f64 + 0.5);
            edges.push(two52 + k as f64 + 0.5);
        }
        for x in edges {
            assert_rounds_like_libm(x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn rounding_matches_libm_everywhere(x in any::<f64>()) {
            assert_rounds_like_libm(x);
        }

        #[test]
        fn rounding_matches_libm_on_nanosecond_scales(s in 0.0..1e7f64, k in 0u64..4) {
            // Simulation times in ns, and the same value pushed into
            // the binades where halves and integers get scarce.
            assert_rounds_like_libm(s * 1e9);
            assert_rounds_like_libm(s * 2f64.powi(40 + 4 * k as i32));
        }
    }

    #[test]
    fn conversion_round_trips() {
        let t = SimTime::from_seconds(Seconds::from_millis(2.5));
        assert_eq!(t.as_nanos(), 2_500_000);
        assert!((t.as_seconds().as_millis() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn after_and_since_are_inverse() {
        let t0 = SimTime::from_seconds(Seconds::new(1.0));
        let t1 = t0.after(Seconds::from_millis(125.0));
        assert!((t1.since(t0).as_millis() - 125.0).abs() < 1e-9);
        assert!(t1 > t0);
    }

    #[test]
    #[should_panic(expected = "time moved backward")]
    fn since_rejects_reversed_arguments() {
        let t0 = SimTime::from_nanos(10);
        let t1 = SimTime::from_nanos(20);
        let _ = t0.since(t1);
    }

    #[test]
    fn ordering_is_exact() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_is_seconds() {
        assert_eq!(SimTime::from_nanos(1_500_000_000).to_string(), "1.500000s");
    }
}
