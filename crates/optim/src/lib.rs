//! Numerical optimization substrate for the energy–delay game.
//!
//! The paper's framework solves three nonlinear programs per protocol —
//! energy minimization under a delay bound **(P1)**, delay minimization
//! under an energy budget **(P2)**, and the concave Nash-bargaining
//! program **(P4)** — over one- or two-dimensional MAC parameter vectors.
//! None of the permitted dependencies provide a solver, so this crate
//! implements the required numerics from scratch:
//!
//! * [`NelderMead`] — simplex minimization with box bounds for
//!   multi-parameter protocols;
//! * [`Penalty`] — exterior penalty wrapper turning constrained problems
//!   into a sequence of unconstrained ones;
//! * [`LogBarrier`] — interior-point maximizer for the concave (P4)
//!   objective `log(Eworst − E) + log(Lworst − L)`;
//! * [`grid_minimize`] — a coarse global sweep that seeds the local
//!   methods, guarding against the non-convexity the paper notes in
//!   (P3) before its transform.
//!
//! Every solver is deterministic, allocation-light and returns a typed
//! [`OptimError`] instead of silently returning garbage on bad input.
//!
//! # Examples
//!
//! ```
//! use edmac_optim::{grid_minimize, Bounds};
//!
//! let bounds = Bounds::new(vec![(0.0, 5.0)]).unwrap();
//! let m = grid_minimize(|x| (x[0] - 2.0).powi(2), &bounds, 51).unwrap();
//! assert!((m.x[0] - 2.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs, missing_debug_implementations)]

mod barrier;
mod error;
mod grid;
mod nelder_mead;
mod penalty;

pub use barrier::LogBarrier;
pub use error::OptimError;
pub use grid::{grid_minimize, Bounds};
pub use nelder_mead::{NelderMead, SimplexMinimum};
pub use penalty::Penalty;
