//! The paper's six-way energy decomposition and the ledger that
//! accumulates it.

use crate::hardware::{Mode, PowerProfile};
use edmac_units::{Joules, Seconds};

/// Why the radio was consuming energy.
///
/// Matches the decomposition in §2 of the paper,
/// `En = Ecs + Etx + Erx + Eovr + Estx + Esrx`, extended with an explicit
/// `Sleep` bucket so a ledger can account for every simulated second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Carrier sensing / channel polling / idle listening (`Ecs`).
    CarrierSense,
    /// Transmitting application data, including any preamble the
    /// protocol prepends (`Etx`).
    DataTx,
    /// Receiving application data destined to this node (`Erx`).
    DataRx,
    /// Receiving or sampling frames addressed to other nodes (`Eovr`).
    Overhearing,
    /// Transmitting synchronization/schedule/control frames (`Estx`).
    SyncTx,
    /// Receiving synchronization/schedule/control frames (`Esrx`).
    SyncRx,
    /// Baseline sleep draw.
    Sleep,
}

impl Cause {
    /// All causes, in the order the paper lists them (sleep last).
    pub const ALL: [Cause; 7] = [
        Cause::CarrierSense,
        Cause::DataTx,
        Cause::DataRx,
        Cause::Overhearing,
        Cause::SyncTx,
        Cause::SyncRx,
        Cause::Sleep,
    ];
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Cause::CarrierSense => "carrier-sense",
            Cause::DataTx => "data-tx",
            Cause::DataRx => "data-rx",
            Cause::Overhearing => "overhearing",
            Cause::SyncTx => "sync-tx",
            Cause::SyncRx => "sync-rx",
            Cause::Sleep => "sleep",
        };
        f.write_str(name)
    }
}

/// Energy consumed by one node over an accounting window, split by
/// [`Cause`].
///
/// This is the quantity the paper's player *Energy* bargains over
/// (via [`EnergyBreakdown::total`], usually excluding or including the
/// sleep floor — the models here include it; it is negligible but real).
///
/// # Examples
///
/// ```
/// use edmac_radio::EnergyBreakdown;
/// use edmac_units::Joules;
///
/// let mut e = EnergyBreakdown::ZERO;
/// e.carrier_sense = Joules::from_milli(2.0);
/// e.tx = Joules::from_milli(1.0);
/// assert_eq!(e.total(), Joules::from_milli(3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// `Ecs`: carrier sensing / channel polling.
    pub carrier_sense: Joules,
    /// `Etx`: data (and data-preamble) transmission.
    pub tx: Joules,
    /// `Erx`: data reception.
    pub rx: Joules,
    /// `Eovr`: overhearing traffic addressed elsewhere.
    pub overhearing: Joules,
    /// `Estx`: synchronization/control transmission.
    pub sync_tx: Joules,
    /// `Esrx`: synchronization/control reception.
    pub sync_rx: Joules,
    /// Baseline sleep draw over the remainder of the window.
    pub sleep: Joules,
}

impl EnergyBreakdown {
    /// The all-zero breakdown.
    pub const ZERO: EnergyBreakdown = EnergyBreakdown {
        carrier_sense: Joules::ZERO,
        tx: Joules::ZERO,
        rx: Joules::ZERO,
        overhearing: Joules::ZERO,
        sync_tx: Joules::ZERO,
        sync_rx: Joules::ZERO,
        sleep: Joules::ZERO,
    };

    /// Returns the component for `cause`.
    pub fn get(&self, cause: Cause) -> Joules {
        match cause {
            Cause::CarrierSense => self.carrier_sense,
            Cause::DataTx => self.tx,
            Cause::DataRx => self.rx,
            Cause::Overhearing => self.overhearing,
            Cause::SyncTx => self.sync_tx,
            Cause::SyncRx => self.sync_rx,
            Cause::Sleep => self.sleep,
        }
    }

    /// Returns a mutable reference to the component for `cause`.
    pub fn get_mut(&mut self, cause: Cause) -> &mut Joules {
        match cause {
            Cause::CarrierSense => &mut self.carrier_sense,
            Cause::DataTx => &mut self.tx,
            Cause::DataRx => &mut self.rx,
            Cause::Overhearing => &mut self.overhearing,
            Cause::SyncTx => &mut self.sync_tx,
            Cause::SyncRx => &mut self.sync_rx,
            Cause::Sleep => &mut self.sleep,
        }
    }

    /// The node's total consumption, `En` in the paper.
    pub fn total(&self) -> Joules {
        Cause::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Total excluding the baseline sleep draw — the "activity" energy
    /// the MAC parameters actually control.
    pub fn activity(&self) -> Joules {
        self.total() - self.sleep
    }

    /// Scales every component by `factor` (e.g. per-second rates to a
    /// reporting epoch).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        let mut out = *self;
        for cause in Cause::ALL {
            let v = out.get(cause);
            *out.get_mut(cause) = v * factor;
        }
        out
    }

    /// Returns `true` if every component is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        Cause::ALL.iter().all(|&c| self.get(c).is_non_negative())
    }
}

impl std::ops::Add for EnergyBreakdown {
    type Output = EnergyBreakdown;
    fn add(self, rhs: EnergyBreakdown) -> EnergyBreakdown {
        let mut out = self;
        for cause in Cause::ALL {
            let v = out.get(cause) + rhs.get(cause);
            *out.get_mut(cause) = v;
        }
        out
    }
}

impl std::ops::AddAssign for EnergyBreakdown {
    fn add_assign(&mut self, rhs: EnergyBreakdown) {
        *self = *self + rhs;
    }
}

impl std::fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cs={:.3} tx={:.3} rx={:.3} ovr={:.3} stx={:.3} srx={:.3} sleep={:.3} total={:.3} (mJ)",
            self.carrier_sense.as_milli(),
            self.tx.as_milli(),
            self.rx.as_milli(),
            self.overhearing.as_milli(),
            self.sync_tx.as_milli(),
            self.sync_rx.as_milli(),
            self.sleep.as_milli(),
            self.total().as_milli(),
        )
    }
}

/// Accumulates `(mode, cause, duration)` charges into an
/// [`EnergyBreakdown`] using a [`PowerProfile`].
///
/// The simulator charges the ledger on every radio-state transition; the
/// analytical models construct breakdowns directly but reuse the same
/// power profile, so the two accountings are comparable by construction.
///
/// # Examples
///
/// ```
/// use edmac_radio::{Cause, EnergyLedger, Mode, PowerProfile};
/// use edmac_units::Seconds;
///
/// let mut ledger = EnergyLedger::new(PowerProfile::cc2420());
/// ledger.charge(Mode::Tx, Cause::DataTx, Seconds::from_millis(1.6));
/// ledger.charge(Mode::Sleep, Cause::Sleep, Seconds::new(1.0));
/// let b = ledger.breakdown();
/// assert!(b.tx > b.sleep); // 1.6 ms of tx beats a full second of sleep
/// ```
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    profile: PowerProfile,
    breakdown: EnergyBreakdown,
    busy_time: Seconds,
}

impl EnergyLedger {
    /// Creates an empty ledger for the given power profile.
    pub fn new(profile: PowerProfile) -> EnergyLedger {
        EnergyLedger {
            profile,
            breakdown: EnergyBreakdown::ZERO,
            busy_time: Seconds::ZERO,
        }
    }

    /// Charges `duration` spent in `mode` to `cause`.
    ///
    /// Negative or non-finite durations are ignored (and would indicate a
    /// simulator bug; the simulator asserts separately).
    pub fn charge(&mut self, mode: Mode, cause: Cause, duration: Seconds) {
        if !duration.is_non_negative() {
            return;
        }
        let energy: Joules = self.profile.draw(mode) * duration;
        *self.breakdown.get_mut(cause) += energy;
        if mode != Mode::Sleep {
            self.busy_time += duration;
        }
    }

    /// The accumulated breakdown so far.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.breakdown
    }

    /// Total time charged in non-sleep modes (for duty-cycle reporting).
    pub fn busy_time(&self) -> Seconds {
        self.busy_time
    }

    /// The profile this ledger charges against.
    pub fn profile(&self) -> &PowerProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edmac_units::Seconds;

    #[test]
    fn total_sums_all_causes() {
        let mut b = EnergyBreakdown::ZERO;
        let mut expected = 0.0;
        for (i, cause) in Cause::ALL.iter().enumerate() {
            *b.get_mut(*cause) = Joules::new((i + 1) as f64);
            expected += (i + 1) as f64;
        }
        assert!((b.total().value() - expected).abs() < 1e-12);
        assert!((b.activity().value() - (expected - 7.0)).abs() < 1e-12);
    }

    #[test]
    fn add_is_componentwise() {
        let mut a = EnergyBreakdown::ZERO;
        a.tx = Joules::new(1.0);
        let mut b = EnergyBreakdown::ZERO;
        b.tx = Joules::new(2.0);
        b.rx = Joules::new(3.0);
        let c = a + b;
        assert_eq!(c.tx, Joules::new(3.0));
        assert_eq!(c.rx, Joules::new(3.0));
        assert_eq!(c.carrier_sense, Joules::ZERO);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let mut a = EnergyBreakdown::ZERO;
        a.overhearing = Joules::new(0.5);
        a.sleep = Joules::new(0.25);
        let s = a.scaled(4.0);
        assert_eq!(s.overhearing, Joules::new(2.0));
        assert_eq!(s.sleep, Joules::new(1.0));
        assert_eq!(s.total(), Joules::new(3.0));
    }

    #[test]
    fn ledger_charges_at_profile_draw() {
        let profile = PowerProfile::cc2420();
        let mut ledger = EnergyLedger::new(profile);
        ledger.charge(Mode::Listen, Cause::CarrierSense, Seconds::new(2.0));
        let expected = profile.listen * Seconds::new(2.0);
        assert_eq!(ledger.breakdown().carrier_sense, expected);
        assert_eq!(ledger.busy_time(), Seconds::new(2.0));
    }

    #[test]
    fn ledger_ignores_invalid_durations() {
        let mut ledger = EnergyLedger::new(PowerProfile::cc2420());
        ledger.charge(Mode::Tx, Cause::DataTx, Seconds::new(-1.0));
        ledger.charge(Mode::Tx, Cause::DataTx, Seconds::new(f64::NAN));
        assert_eq!(ledger.breakdown().total(), Joules::ZERO);
        assert_eq!(ledger.busy_time(), Seconds::ZERO);
    }

    #[test]
    fn sleep_does_not_count_as_busy() {
        let mut ledger = EnergyLedger::new(PowerProfile::cc2420());
        ledger.charge(Mode::Sleep, Cause::Sleep, Seconds::new(100.0));
        assert_eq!(ledger.busy_time(), Seconds::ZERO);
        assert!(ledger.breakdown().sleep.value() > 0.0);
    }

    #[test]
    fn display_mentions_every_bucket() {
        let text = EnergyBreakdown::ZERO.to_string();
        for key in [
            "cs=", "tx=", "rx=", "ovr=", "stx=", "srx=", "sleep=", "total=",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
