//! Non-learned comparators from the paper's evaluation (Section V-A):
//!
//! * [`Baseline1`] — dispatch to the vehicle with the smallest *incremental*
//!   route length (the strategy deployed in the paper's UAT environment);
//! * [`Baseline2`] — dispatch to the vehicle with the smallest *total* route
//!   length after acceptance;
//! * [`Baseline3`] — dispatch to the vehicle with the most accepted orders
//!   (minimising the number of used vehicles);
//! * [`ExactSolver`] — a branch-and-bound exact solver for the static PDP
//!   relaxation, standing in for the paper's MIP solved by Gurobi, a
//!   commercial solver this repo does not depend on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod greedy;
pub mod improve;

pub use exact::{ExactConfig, ExactSolution, ExactSolver};
pub use greedy::{Baseline1, Baseline2, Baseline3};
pub use improve::{relocate_improvement, Improvement};
