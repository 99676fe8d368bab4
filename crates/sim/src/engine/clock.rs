//! [`WakeClock`] and [`IdleWake`]: a node's wake schedule, what each of
//! its wakes does when nothing happens, and the run of elided wakes it
//! still owes the energy ledger.

use crate::frame::FrameKind;
use crate::time::SimTime;
use edmac_radio::Cause;
use edmac_units::Seconds;
use std::ops::Range;

/// What the radio does in an idle wake: one the engine charges instead
/// of simulating ([`Ctx::owe_wakes`](super::Ctx::owe_wakes)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleWake {
    /// Started up, then listened to silence until this many
    /// nanoseconds after the wake (the startup included), then slept.
    /// Listening is one ledger bucket, so where a protocol re-labels
    /// its listen mid-wake (DMAC's transmit slot) makes no difference.
    Listen(u64),
    /// Received one frame of this kind, addressed elsewhere, starting
    /// the instant the radio was up, then slept (LMAC's heartbeat from
    /// a slot owner).
    Receive(FrameKind),
    /// Transmitted one frame of this kind the instant the radio was up,
    /// then slept (LMAC's own-slot heartbeat).
    Transmit(FrameKind),
}

/// One distinct idle-wake shape of a clock's pattern.
#[derive(Debug)]
pub(super) struct Shape {
    pub(super) wake: IdleWake,
    /// What the startup, and any listening, is charged to.
    pub(super) cause: Cause,
    /// How long the wake keeps the radio up, startup included, in
    /// nanoseconds.
    pub(super) active_ns: u64,
    /// The pattern positions of this shape, one bit each.
    positions: Box<[u64]>,
}

impl Shape {
    /// How many of pattern positions `0..i` have this shape.
    fn ones_below(&self, i: u64) -> u64 {
        let (word, bit) = ((i / 64) as usize, i % 64);
        let whole: u32 = self.positions[..word].iter().map(|w| w.count_ones()).sum();
        let part = self.positions.get(word).map_or(0, |w| w & ((1 << bit) - 1));
        u64::from(whole + part.count_ones())
    }
}

/// A node's wake schedule, registered once through
/// [`Ctx::set_wake_clock`](super::Ctx::set_wake_clock): wake `k` is due
/// at `max(0, period·k + offset − lead)` and, were it idle, would have
/// the shape at position `k mod len` of a static pattern of `len`
/// shapes.
///
/// The engine also keeps here the node's *owed run*: the wakes the node
/// elided and has not yet been charged for.
#[derive(Debug)]
pub struct WakeClock {
    period: f64,
    offset: f64,
    lead: f64,
    len: u64,
    pub(super) shapes: Vec<Shape>,
    pub(super) owed: Range<u64>,
}

impl WakeClock {
    /// The clock `max(0, period·k + offset − lead)` over the pattern
    /// `wakes`, on a radio that starts up in `startup_ns` and sends a
    /// frame of kind `k` in `airtime_ns[k.index()]`.
    pub(super) fn new(
        period: Seconds,
        offset: Seconds,
        lead: Seconds,
        wakes: impl IntoIterator<Item = (IdleWake, Cause)>,
        startup_ns: u64,
        airtime_ns: &[u64],
    ) -> WakeClock {
        let wakes: Vec<(IdleWake, Cause)> = wakes.into_iter().collect();
        let mut shapes: Vec<Shape> = Vec::new();
        for (i, &(wake, cause)) in wakes.iter().enumerate() {
            let s = shapes
                .iter()
                .position(|s| (s.wake, s.cause) == (wake, cause));
            let s = s.unwrap_or_else(|| {
                shapes.push(Shape {
                    wake,
                    cause,
                    active_ns: match wake {
                        IdleWake::Listen(until) => until.max(startup_ns),
                        IdleWake::Receive(kind) | IdleWake::Transmit(kind) => {
                            startup_ns + airtime_ns[kind.index()]
                        }
                    },
                    positions: vec![0; wakes.len().div_ceil(64)].into(),
                });
                shapes.len() - 1
            });
            shapes[s].positions[i / 64] |= 1 << (i % 64);
        }
        WakeClock {
            period: period.value(),
            offset: offset.value(),
            lead: lead.value(),
            len: wakes.len() as u64,
            shapes,
            owed: 0..0,
        }
    }

    /// The instant wake `k` is due.
    pub fn at(&self, k: u64) -> SimTime {
        let at = self.period * k as f64 + self.offset - self.lead;
        SimTime::from_seconds(Seconds::new(at.max(0.0)))
    }

    /// The index into the shapes of wake `k`'s idle shape.
    pub(super) fn shape_of(&self, k: u64) -> usize {
        let i = k % self.len;
        let has = |s: &Shape| s.positions[(i / 64) as usize] & (1 << (i % 64)) != 0;
        self.shapes
            .iter()
            .position(has)
            .expect("every position has a shape")
    }

    /// How many of `wakes` have shape `s`.
    pub(super) fn count(&self, s: usize, wakes: Range<u64>) -> u64 {
        let shape = &self.shapes[s];
        let per_pattern = shape.ones_below(self.len);
        let upto = |k: u64| k / self.len * per_pattern + shape.ones_below(k % self.len);
        upto(wakes.end) - upto(wakes.start)
    }

    /// Whether wake `k`, were it idle, would have the radio back asleep
    /// strictly before `bound`.
    pub fn closes_before(&self, k: u64, bound: SimTime) -> bool {
        self.at(k).as_nanos() + self.shapes[self.shape_of(k)].active_ns < bound.as_nanos()
    }

    /// The first wake at `from` or a whole number of patterns after it
    /// that does not [close before](WakeClock::closes_before) `bound`.
    ///
    /// # Panics
    ///
    /// Panics if the clock has no pattern.
    pub fn first_reaching(&self, from: u64, bound: SimTime) -> u64 {
        let active = self.shapes[self.shape_of(from)].active_ns;
        let k = (bound.as_seconds().value() - active as f64 / 1e9 + self.lead - self.offset)
            / self.period;
        let guess = (k - from as f64) / self.len as f64;
        let closes = |m: u64| self.at(from + m * self.len).as_nanos() + active < bound.as_nanos();
        from + first_failing(0, guess, closes) * self.len
    }

    /// The first owed wake not due by `now` (the owed run's end if
    /// every one is).
    pub(super) fn due_end(&self, now: SimTime) -> u64 {
        let Range { start, end } = self.owed;
        if start == end || self.at(start) > now {
            return start;
        }
        let guess = (now.as_seconds().value() + self.lead - self.offset) / self.period;
        first_failing(start + 1, guess.min(end as f64), |k| {
            k < end && self.at(k) <= now
        })
    }
}

/// The first `k >= from` for which `pred` fails, where `pred` holds on
/// every index from `from` up to some point and fails from there on.
///
/// `guess` is a closed-form estimate of the answer (a clock's
/// `(t − phase) / period`). It is corrected against `pred` itself, by
/// galloping away from it and bisecting, so the answer is the one a
/// scan from `from` would give whatever the rounding of the estimate.
/// A good estimate costs two evaluations.
fn first_failing(from: u64, guess: f64, pred: impl Fn(u64) -> bool) -> u64 {
    let k = if guess > from as f64 {
        guess.ceil() as u64
    } else {
        from
    };
    // Bracket the answer in `lo..=hi`: `pred` holds below `lo` (down to
    // `from`) and fails at `hi`.
    let (mut lo, mut hi) = if pred(k) {
        let (mut lo, mut step) = (k + 1, 1);
        loop {
            let probe = lo + step - 1;
            if !pred(probe) {
                break (lo, probe);
            }
            lo = probe + 1;
            step *= 2;
        }
    } else {
        let (mut hi, mut step) = (k, 1);
        loop {
            if hi == from {
                break (from, from);
            }
            let probe = hi.saturating_sub(step).max(from);
            if pred(probe) {
                break (probe + 1, hi);
            }
            hi = probe;
            step *= 2;
        }
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_failing_agrees_with_a_scan_whatever_the_guess() {
        // A rounded clock, like the poll grids and ladders it serves.
        let at = |k: u64| SimTime::from_seconds(Seconds::new(0.0123 + 0.1 * k as f64));
        for from in [0, 3, 40] {
            for bound_ns in [0, 12_300_000, 112_300_000, 3_512_300_001, 9_999_999_999] {
                let pred = |k: u64| at(k).as_nanos() < bound_ns;
                let scan = (from..).find(|&k| !pred(k)).expect("bounded");
                for guess in [f64::NAN, -5.0, 0.0, 2.4, 34.5, 35.0, 35.2, 99.9, 1e6] {
                    assert_eq!(
                        first_failing(from, guess, pred),
                        scan,
                        "from {from}, bound {bound_ns} ns, guess {guess}"
                    );
                }
            }
        }
    }

    #[test]
    fn shapes_are_counted_like_a_scan_of_the_pattern() {
        // A 70-position pattern (two bit words): a transmit at 3, a
        // receive at every multiple of 5, a listen elsewhere.
        let pattern: Vec<(IdleWake, Cause)> = (0..70)
            .map(|i| match i {
                3 => (IdleWake::Transmit(FrameKind::Control), Cause::SyncTx),
                _ if i % 5 == 0 => (IdleWake::Receive(FrameKind::Control), Cause::SyncRx),
                _ => (IdleWake::Listen(1_000), Cause::SyncRx),
            })
            .collect();
        let (period, airtime) = (Seconds::new(0.01), [0; FrameKind::ALL.len()]);
        let wakes = pattern.iter().copied();
        let clock = WakeClock::new(period, Seconds::ZERO, Seconds::ZERO, wakes, 1, &airtime);
        assert_eq!(clock.shapes.len(), 3);
        for wakes in [0..0, 0..70, 3..4, 64..65, 60..200, 137..1_000, 69..71] {
            for s in 0..3 {
                let scan = wakes.clone().filter(|&k| clock.shape_of(k) == s).count();
                assert_eq!(clock.count(s, wakes.clone()), scan as u64, "{wakes:?}");
            }
        }
        for k in 0..140 {
            let (wake, cause) = pattern[(k % 70) as usize];
            let s = &clock.shapes[clock.shape_of(k)];
            assert_eq!((s.wake, s.cause), (wake, cause), "wake {k}");
        }
    }
}
