//! `edmac-serve`: the deployment-planning service over the study's
//! content-addressed solver — "solve this deployment" as a network
//! query instead of a batch run.
//!
//! The ROADMAP asked the study pipeline to scale like a service, not a
//! script: a planning backend that answers the paper's per-deployment
//! NBS solve (energy-delay bargaining over duty-cycled MAC parameters)
//! continuously, the regime Khodaian et al.'s delay-constrained
//! utility-energy trade-off describes. This crate is that backend, as
//! a std-only TCP server (`std::net` + thread pool, no async runtime)
//! speaking line-delimited JSON:
//!
//! * **Three tiers.** A request's scenario spec is canonicalized to
//!   the PR 7 content key; its digest resolves through an in-memory
//!   LRU hot tier ([`HotTier`]), the on-disk [`edmac_study::CellCache`]
//!   (write-through), and finally a cold NBS solve via the
//!   [`edmac_proto::ProtocolRegistry`].
//! * **Single-flight.** Concurrent identical queries elect one leader
//!   per digest ([`FlightMap`]); everyone else waits for its published
//!   result — N requests, exactly one solve.
//! * **Byte-identity on the wire.** A response's `outcome` payload is
//!   the verbatim cache-entry text — byte-equal to what the offline
//!   runner serializes for the same key — so the repo's determinism
//!   gate (CI diffing artifacts bit for bit) extends to the service.
//! * **Robustness and observability.** Per-request deadlines with
//!   honest `timeout` responses, a bounded accept queue that answers
//!   `overloaded` instead of hanging, SIGTERM/ctrl-c drain
//!   ([`install_drain_flag`]), one structured log line per request,
//!   and a `stats` verb reporting per-tier hit rates and latency
//!   quantiles in the same schema `study cache-stats --json` emits.
//!
//! The `study serve` / `study query` subcommands (in `edmac-bench`)
//! are the CLI faces of [`Server`] and [`Client`].

#![deny(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs, missing_debug_implementations)]

mod client;
mod flight;
mod hot;
mod metrics;
mod request;
mod server;
mod signal;

pub use client::Client;
pub use flight::{FlightMap, FlightResult, FollowHandle, Joined};
pub use hot::HotTier;
pub use metrics::{Histogram, Metrics, StatsReport, TierStats, STATS_SCHEMA};
pub use request::{Request, Response, SolveRequest, Tier, WIRE_SCHEMA};
pub use server::{ServeConfig, Server, MAX_LINE_BYTES};
pub use signal::install_drain_flag;
