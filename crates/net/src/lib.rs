//! Network, topology and traffic models for duty-cycled MAC analysis.
//!
//! The paper adopts the network abstraction of Langendoen & Meier
//! (*Analyzing MAC protocols for low data-rate applications*, ACM TOSN
//! 2010): a field of uniform node density observed through a **ring
//! model** — nodes are layered into rings `d = 1..D` by hop distance to a
//! single sink, a unit disk contains `C + 1` nodes, every node samples its
//! sensor with frequency `Fs` and forwards over a shortest-path spanning
//! tree. All per-protocol energy/latency formulas consume only four
//! per-ring figures derived here:
//!
//! * `F_out^d` — packets a ring-`d` node transmits per second,
//! * `F_I^d` — packets it receives for forwarding per second,
//! * `F_B^d` — background traffic transmitted within hearing range,
//! * `I^d` — the number of tree children ("input links") it serves.
//!
//! Two representations are provided:
//!
//! * [`RingModel`] / [`RingTraffic`] — the closed-form analytic model used
//!   by the optimization framework (`edmac-mac`, `edmac-core`);
//! * [`Topology`] / [`Graph`] / [`RoutingTree`] / [`TreeTraffic`] — explicit
//!   geometric instantiations used by the packet-level simulator
//!   (`edmac-sim`) and by the validation experiments, including a
//!   generator that realizes the ring model as actual node positions.
//!
//! # Examples
//!
//! Analytic flows at the bottleneck ring:
//!
//! ```
//! use edmac_net::{RingModel, RingTraffic};
//! use edmac_units::{Hertz, Seconds};
//!
//! let net = RingModel::new(8, 4).unwrap();
//! let traffic = RingTraffic::new(net, Hertz::per_interval(Seconds::new(60.0)));
//! // Ring-1 nodes forward everything: F_out^1 = Fs * D^2.
//! let f1 = traffic.f_out(1).unwrap();
//! assert!((f1.value() - 64.0 / 60.0).abs() < 1e-12);
//! ```
//!
//! A concrete unit-disk realization with a routing tree:
//!
//! ```
//! use edmac_net::{NodeId, Topology, RoutingTree};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let topo = Topology::ring_model(4, 4, &mut rng).unwrap();
//! let tree = RoutingTree::shortest_path(&topo.graph(), topo.sink()).unwrap();
//! assert_eq!(tree.max_depth(), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs, missing_debug_implementations)]

mod coloring;
mod error;
mod geometry;
mod graph;
mod rings;
mod topology;
mod traffic;
mod tree;

pub use coloring::{distance_two_coloring, random_slot_assignment, Coloring};
pub use error::NetError;
pub use geometry::{each_pair_within, Point2};
pub use graph::{Graph, NodeId};
pub use rings::RingModel;
pub use topology::Topology;
pub use traffic::{RingTraffic, TreeTraffic};
pub use tree::RoutingTree;
