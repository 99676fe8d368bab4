//! Deterministic packet-level simulation of duty-cycled MAC protocols.
//!
//! The paper's energy/latency formulas descend from Langendoen & Meier's
//! analysis, whose credibility rested on packet-level validation. This
//! crate rebuilds that evidence chain: a discrete-event simulator with
//!
//! * a channel with **collisions** (overlapping in-range
//!   transmissions corrupt each other at a listening receiver) realized
//!   by an [`edmac_phy::ChannelModel`] and judged by one decode rule:
//!   the unit disk is its capture-off case, a SINR channel with capture
//!   lets a strong frame ride out weak interferers,
//! * a five-state **radio** (sleep / startup / listen / rx / tx) whose
//!   transitions charge, in whole nanoseconds, an
//!   [`EnergyLedger`](edmac_radio::EnergyLedger)
//!   using the same power profiles and cause taxonomy as the analytical
//!   models — so simulated and modelled breakdowns are directly
//!   comparable,
//! * per-node implementations of **X-MAC** (strobed preambles + early
//!   ack), **DMAC** (staggered slot ladder) and **LMAC** (TDMA frame
//!   with control sections, slots assigned by distance-2 coloring),
//! * periodic per-node traffic with random phases, forwarded over the
//!   BFS routing tree toward the sink,
//! * end-to-end packet records (creation, delivery, hops) and per-node
//!   energy breakdowns.
//!
//! Everything is seeded and deterministic: the same
//! [`SimConfig::seed`] reproduces the same [`SimReport`] bit-for-bit.
//! There is one sequential engine, in three modules: the builder and
//! report collection, the [`Ctx`] handler API, and the run loop. A
//! conservative-parallel sharded engine used to run next to it; it
//! never ran two shards at once often enough to pay for its
//! coordination (two shards made the smoke study 88× slower on a 2-core
//! machine) and was deleted, and [`Simulation::with_shards`] is now a
//! no-op (see the README's "Simulator architecture" section).
//!
//! Protocols are configured through the object-safe [`SimProtocol`]
//! trait — [`XmacSim`], [`DmacSim`], [`LmacSim`] and [`ScpSim`] are the
//! built-in configurations, and downstream crates implement the trait
//! on their own types to run new MAC protocols on the same substrate
//! (the old closed `ProtocolConfig` enum is gone; see the README's
//! migration notes).
//!
//! # Example
//!
//! ```
//! use edmac_sim::{SimConfig, Simulation, XmacSim};
//! use edmac_units::Seconds;
//!
//! let cfg = SimConfig {
//!     duration: Seconds::new(120.0),
//!     sample_period: Seconds::new(20.0),
//!     seed: 7,
//!     ..SimConfig::default()
//! };
//! let protocol = XmacSim::new(Seconds::from_millis(100.0));
//! let report = Simulation::ring(3, 4, &protocol, cfg).unwrap().run();
//! assert!(report.delivery_ratio() > 0.8);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs, missing_debug_implementations)]

mod engine;
mod events;
mod frame;
mod protocol;
mod protocols;
pub mod queue;
mod report;
mod time;

pub use engine::{
    BurstWindows, CoexNetwork, Ctx, IdleWake, MacNode, RunStats, SimConfig, Simulation,
    TrafficProfile, WakeMode,
};
pub use frame::{Frame, FrameCounters, FrameKind, Packet, PacketId};
pub use protocol::{DmacSim, LmacSim, ScpSim, SimProtocol, XmacSim};
pub use queue::{HeapQueue, OrderKey};
pub use report::{DepthDelayStats, NodeStats, PacketRecord, SimReport};
pub use time::SimTime;
