//! Radio hardware models and energy accounting for duty-cycled MAC analysis.
//!
//! The paper decomposes the per-node energy of any duty-cycled MAC into six
//! causes:
//!
//! ```text
//! En = Ecs + Etx + Erx + Eovr + Estx + Esrx
//! ```
//!
//! (carrier sensing, data transmission, data reception, overhearing, and
//! synchronization frame tx/rx). This crate provides the substrate both the
//! analytical protocol models (`edmac-mac`) and the packet-level simulator
//! (`edmac-sim`) use to produce that decomposition from the same hardware
//! description:
//!
//! * [`Radio`] — a named hardware preset: per-[`Mode`] power draw
//!   ([`PowerProfile`]), switching [`Timings`], link bitrate and frame
//!   airtime computation;
//! * [`EnergyBreakdown`] — the paper's six-way (plus sleep) decomposition;
//! * [`EnergyLedger`] — an accumulator of `(mode, cause, nanoseconds)`
//!   charges, priced into an [`EnergyBreakdown`], used by the simulator;
//! * [`FrameSizes`] — the frame formats whose airtimes drive every model.
//!
//! # Examples
//!
//! ```
//! use edmac_radio::{Cause, EnergyLedger, Mode, Radio};
//! use edmac_units::Seconds;
//!
//! let radio = Radio::cc2420();
//! let nanos = |s: Seconds| (s.value() * 1e9).round() as u64;
//! let mut ledger = EnergyLedger::new(radio.power);
//! // One channel poll: startup then a clear-channel assessment.
//! ledger.charge(Mode::Startup, Cause::CarrierSense, nanos(radio.timings.startup));
//! ledger.charge(Mode::Listen, Cause::CarrierSense, nanos(radio.timings.cca));
//! let breakdown = ledger.breakdown();
//! assert!(breakdown.carrier_sense.value() > 0.0);
//! assert_eq!(breakdown.total(), breakdown.carrier_sense);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs, missing_debug_implementations)]

mod energy;
mod frames;
mod hardware;

pub use energy::{Cause, EnergyBreakdown, EnergyLedger};
pub use frames::FrameSizes;
pub use hardware::{Mode, PowerProfile, Radio, Timings};
