//! Two-player cooperative bargaining over *cost* outcomes.
//!
//! The paper models the energy–delay trade-off as a bargaining game whose
//! players are the two performance metrics themselves: player *Energy*
//! and player *Latency*. Each feasible MAC parameter vector `X` induces a
//! cost pair `(E(X), L(X))`; the disagreement point is
//! `v = (Eworst, Lworst)` — what each player is left with if negotiation
//! breaks down (the paper's (P3)). The **Nash Bargaining Solution** picks
//! the feasible pair maximizing the product of gains
//! `(Eworst − E)·(Lworst − L)`.
//!
//! This crate implements that machinery independently of anything
//! MAC-specific, so it is reusable for any two-cost trade-off:
//!
//! * [`CostPoint`] — a two-cost outcome (both players minimize);
//! * [`pareto_filter`] — the Pareto frontier of a sampled outcome set;
//! * [`BargainingProblem`] — a sampled feasible set plus disagreement
//!   point, with five solution concepts: [`BargainingProblem::nash`],
//!   [`BargainingProblem::nash_weighted`],
//!   [`BargainingProblem::kalai_smorodinsky`],
//!   [`BargainingProblem::egalitarian`], and the non-strategic
//!   [`BargainingProblem::weighted_sum`] aggregate;
//! * [`SolutionConcept`] — the object-safe interface over all of them
//!   ([`standard_concepts`] is the study's fixed panel);
//! * [`nash_continuous`] — the continuous (P4) solver: maximize
//!   `log(v₁ − c₁(x)) + log(v₂ − c₂(x))` over a parameter box via the
//!   interior-point method of `edmac-optim`;
//! * [`proportional_ratios`] — the proportional-fairness identity the
//!   paper proves for its choice of disagreement point;
//! * [`axioms`] — executable checks of the four Nash axioms, used by the
//!   property-test suite.
//!
//! # Examples
//!
//! ```
//! use edmac_game::{BargainingProblem, CostPoint};
//!
//! let feasible = vec![
//!     CostPoint::new(1.0, 9.0),
//!     CostPoint::new(3.0, 3.0), // balanced: gain product (9-3)(9-3)=36
//!     CostPoint::new(9.0, 1.0),
//! ];
//! let v = CostPoint::new(9.0, 9.0);
//! let game = BargainingProblem::new(feasible, v).unwrap();
//! assert_eq!(game.nash().unwrap().point, CostPoint::new(3.0, 3.0));
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod axioms;
mod concept;
mod continuous;
mod error;
mod fairness;
mod pareto;
mod point;
mod problem;
mod weighted;

pub use concept::{
    standard_concepts, Egalitarian, KalaiSmorodinsky, Nash, SolutionConcept, WeightedNash,
    WeightedSum,
};
pub use continuous::{nash_continuous, ContinuousBargain};
pub use error::GameError;
pub use fairness::proportional_ratios;
pub use pareto::pareto_filter;
pub use point::CostPoint;
pub use problem::{Bargain, BargainingProblem};
pub use weighted::{weighted_nash_product, BargainingPower};
