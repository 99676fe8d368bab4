//! Radio hardware descriptions: operating modes, power profiles, timings
//! and named presets.

use edmac_units::{BitsPerSecond, Bytes, Seconds, Watts};

/// The operating mode of a transceiver at a point in time.
///
/// The analytical models and the simulator agree on this five-state
/// machine; duty-cycled MAC protocols are exactly policies for scheduling
/// transitions between these states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Oscillator off; the node only keeps its clock running.
    Sleep,
    /// Receiver powered and sampling the channel, no frame locked.
    Listen,
    /// Actively receiving a frame.
    Rx,
    /// Actively transmitting a frame.
    Tx,
    /// Powering up / calibrating before the radio is usable.
    Startup,
}

impl Mode {
    /// All modes, in a stable order (useful for tabular reports).
    pub const ALL: [Mode; 5] = [Mode::Sleep, Mode::Listen, Mode::Rx, Mode::Tx, Mode::Startup];
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Mode::Sleep => "sleep",
            Mode::Listen => "listen",
            Mode::Rx => "rx",
            Mode::Tx => "tx",
            Mode::Startup => "startup",
        };
        f.write_str(name)
    }
}

/// Power drawn by the transceiver in each [`Mode`].
///
/// # Examples
///
/// ```
/// use edmac_radio::{Mode, PowerProfile};
/// use edmac_units::Watts;
///
/// let p = PowerProfile::cc2420();
/// assert!(p.draw(Mode::Rx) > p.draw(Mode::Sleep));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerProfile {
    /// Draw while sleeping (clock only).
    pub sleep: Watts,
    /// Draw while listening for (or sampling) the channel.
    pub listen: Watts,
    /// Draw while receiving a frame. On most hardware identical to
    /// `listen`.
    pub rx: Watts,
    /// Draw while transmitting at the configured output power.
    pub tx: Watts,
    /// Draw during startup/calibration.
    pub startup: Watts,
}

impl PowerProfile {
    /// Returns the draw in the given mode.
    pub fn draw(&self, mode: Mode) -> Watts {
        match mode {
            Mode::Sleep => self.sleep,
            Mode::Listen => self.listen,
            Mode::Rx => self.rx,
            Mode::Tx => self.tx,
            Mode::Startup => self.startup,
        }
    }

    /// TI CC2420 (IEEE 802.15.4, 2.4 GHz) at 3.0 V, 0 dBm output.
    ///
    /// Datasheet currents: rx/listen 18.8 mA, tx 17.4 mA, power-down
    /// 20 µA; startup modelled at half the receive draw while the
    /// oscillator and PLL settle.
    pub fn cc2420() -> PowerProfile {
        PowerProfile {
            sleep: Watts::from_micro(60.0),
            listen: Watts::from_milli(56.4),
            rx: Watts::from_milli(56.4),
            tx: Watts::from_milli(52.2),
            startup: Watts::from_milli(28.2),
        }
    }

    /// TI CC1000 (sub-GHz FSK) at 3.0 V, 0 dBm output.
    ///
    /// Datasheet currents at 868 MHz: rx 9.6 mA, tx 16.5 mA, power-down
    /// 0.2 µA (we budget 30 µW for the sleep-mode strobe oscillator).
    pub fn cc1000() -> PowerProfile {
        PowerProfile {
            sleep: Watts::from_micro(30.0),
            listen: Watts::from_milli(28.8),
            rx: Watts::from_milli(28.8),
            tx: Watts::from_milli(49.5),
            startup: Watts::from_milli(14.4),
        }
    }

    /// Returns `true` if every draw is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        Mode::ALL.iter().all(|&m| self.draw(m).is_non_negative())
    }
}

/// Transition and channel-assessment timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timings {
    /// Time from [`Mode::Sleep`] until the receiver is usable
    /// (oscillator start + PLL calibration).
    pub startup: Seconds,
    /// Rx/tx turnaround time.
    pub turnaround: Seconds,
    /// Duration of one clear-channel assessment once the receiver is up.
    pub cca: Seconds,
}

impl Timings {
    /// CC2420 timings: 0.86 ms voltage-regulator + oscillator start,
    /// 192 µs turnaround, 128 µs (8 symbol) CCA.
    pub fn cc2420() -> Timings {
        Timings {
            startup: Seconds::from_micros(860.0),
            turnaround: Seconds::from_micros(192.0),
            cca: Seconds::from_micros(128.0),
        }
    }

    /// CC1000 timings: ~2 ms crystal + PLL settling, 250 µs turnaround,
    /// 350 µs received-signal-strength sample.
    pub fn cc1000() -> Timings {
        Timings {
            startup: Seconds::from_millis(2.0),
            turnaround: Seconds::from_micros(250.0),
            cca: Seconds::from_micros(350.0),
        }
    }

    /// Returns `true` if every timing is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.startup.is_non_negative()
            && self.turnaround.is_non_negative()
            && self.cca.is_non_negative()
    }
}

/// A complete transceiver description: draw, timings and link rate.
///
/// # Examples
///
/// ```
/// use edmac_radio::Radio;
/// use edmac_units::Bytes;
///
/// let r = Radio::cc2420();
/// // A 50-byte frame takes 1.6 ms on the 250 kbps 802.15.4 PHY.
/// assert!((r.airtime(Bytes::new(50)).as_millis() - 1.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Radio {
    /// Human-readable chipset name.
    pub name: &'static str,
    /// Per-mode power draw.
    pub power: PowerProfile,
    /// Transition timings.
    pub timings: Timings,
    /// Physical-layer bitrate.
    pub bitrate: BitsPerSecond,
}

impl Radio {
    /// The TI CC2420 IEEE 802.15.4 transceiver (250 kbps), the radio of
    /// the TelosB/TMote-class motes the X-MAC and DMAC papers evaluate on.
    pub fn cc2420() -> Radio {
        Radio {
            name: "CC2420",
            power: PowerProfile::cc2420(),
            timings: Timings::cc2420(),
            bitrate: BitsPerSecond::from_kilo(250.0),
        }
    }

    /// The TI CC1000 sub-GHz transceiver (76.8 kbps Manchester), the
    /// radio of the Mica2 motes the LMAC paper targets.
    pub fn cc1000() -> Radio {
        Radio {
            name: "CC1000",
            power: PowerProfile::cc1000(),
            timings: Timings::cc1000(),
            bitrate: BitsPerSecond::from_kilo(76.8),
        }
    }

    /// Airtime of a frame of the given size at this radio's bitrate.
    pub fn airtime(&self, size: Bytes) -> Seconds {
        self.bitrate.airtime(size)
    }

    /// Returns `true` if the draw, timings and bitrate are all physically
    /// meaningful.
    pub fn is_valid(&self) -> bool {
        self.power.is_valid() && self.timings.is_valid() && self.bitrate.value() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(Radio::cc2420().is_valid());
        assert!(Radio::cc1000().is_valid());
    }

    #[test]
    fn draw_matches_fields() {
        let p = PowerProfile::cc2420();
        assert_eq!(p.draw(Mode::Sleep), p.sleep);
        assert_eq!(p.draw(Mode::Listen), p.listen);
        assert_eq!(p.draw(Mode::Rx), p.rx);
        assert_eq!(p.draw(Mode::Tx), p.tx);
        assert_eq!(p.draw(Mode::Startup), p.startup);
    }

    #[test]
    fn sleep_draw_orders_of_magnitude_below_listen() {
        for radio in [Radio::cc2420(), Radio::cc1000()] {
            let ratio = radio.power.listen / radio.power.sleep;
            assert!(
                ratio > 100.0,
                "{}: listening must dominate sleeping, got ratio {ratio}",
                radio.name
            );
        }
    }

    #[test]
    fn cc1000_is_slower_than_cc2420() {
        assert!(Radio::cc1000().bitrate < Radio::cc2420().bitrate);
        let frame = edmac_units::Bytes::new(50);
        assert!(Radio::cc1000().airtime(frame) > Radio::cc2420().airtime(frame));
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        let mut p = PowerProfile::cc2420();
        p.tx = Watts::new(-1.0);
        assert!(!p.is_valid());
        let mut t = Timings::cc2420();
        t.startup = Seconds::new(f64::NAN);
        assert!(!t.is_valid());
    }

    #[test]
    fn mode_display_is_lowercase() {
        let names: Vec<String> = Mode::ALL.iter().map(|m| m.to_string()).collect();
        assert_eq!(names, ["sleep", "listen", "rx", "tx", "startup"]);
    }
}
