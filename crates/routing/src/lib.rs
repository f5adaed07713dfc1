//! Routes, schedules, constraint checks and insertion evaluation.
//!
//! This crate implements the *route planner* of the paper (Algorithm 2):
//! given a vehicle's remaining route and a new order, it considers every
//! way of inserting the order's pickup and delivery stops, checks the
//! time-window, capacity, LIFO and back-to-depot constraints, and returns
//! the shortest feasible route together with the quantities the MDP state
//! needs (`d_{t,k}`, `d^i_{t,k}`).
//!
//! The central types are:
//!
//! * [`Route`] — the remaining stop sequence of a vehicle (the return to the
//!   depot is implicit and always included in length computations);
//! * [`VehicleView`] — a snapshot of everything the planner needs to know
//!   about a vehicle (anchor position/time, cargo stack, remaining route);
//! * [`simulate_schedule`] — the feasibility oracle;
//! * [`RoutePlanner`] — Algorithm 2, in two halves: [`PlanScore`] is what
//!   it scores, [`PlannerOutput`] what it materialises.
//!
//! # Insertion evaluation: one evaluator and its oracle
//!
//! Every candidate is scored by the **incremental evaluator**
//! ([`incremental`]): one forward pass (prefix departure times, loads,
//! cumulative length) and one backward pass (per-position deadline slack
//! with wait absorption) over the base route, then each of the
//! `(n+1)(n+2)/2` position pairs scored allocation-free — O(n²) total per
//! `(order, vehicle)` pair, with LIFO-violating pairs pruned before
//! evaluation. Its cache is struct-of-arrays with persisted base-leg
//! tables filled through the `dpdp_net` row kernels (see [`incremental`]
//! for the layout).
//!
//! The **oracle** ([`enumerate_insertions`], [`best_insertion_naive`]) is
//! Algorithm 2 as written: clone and re-simulate every candidate, O(n³) per
//! pair. It is the specification the evaluator is tested against
//! (`tests/incremental_parity.rs`: feasible set, lengths, winning positions
//! and a bit-identical winning length on randomized routes), and what the
//! evaluator falls back to where its cached passes do not apply — an
//! infeasible base route, a probe order already on the route or on board,
//! or a winner the oracle rejects.
//!
//! # Scoring and materialising
//!
//! Algorithm 2 hands a policy a handful of scalars per `(order, vehicle)`
//! pair and one route — the one the chosen vehicle adopts. The API is
//! split the same way. [`RoutePlanner::score_cached`] runs the sweep and
//! the oracle and returns a [`PlanScore`]: `d_{t,k}`, and the winner as an
//! [`InsertionScore`] — positions, length, counts; `Copy`, no heap, no
//! allocation to compute. [`RoutePlanner::materialise`] turns a score into
//! the [`PlannerOutput`] with the winner's [`Route`] and [`Schedule`], and
//! is the one place an insertion winner's route is built;
//! [`RoutePlanner::plan`] and [`RoutePlanner::plan_cached`] are the two
//! composed. An epoch scores every cell and materialises the accepted one.
//!
//! The oracle is **one walk with two sinks** ([`schedule`]):
//! [`simulate_schedule`] collects per-stop timings into a [`Schedule`],
//! [`simulate_insertion`] walks the base route with the pair spliced in,
//! keeps nothing but the [`ScheduleTotals`] and allocates nothing. The
//! evaluator validates its winner through the second, and the score's
//! length *is* that walk's total — so it is bit-identical to the
//! [`Schedule::total_length`] a later materialisation computes (same
//! operations in the same order) and to the naive oracle's winning length,
//! and the determinism guarantees of the parallel epoch sweep
//! (bit-identical results at any thread count) carry over unchanged. See
//! [`incremental`] for the invariants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod incremental;
pub mod insertion;
pub mod planner;
pub mod route;
pub mod schedule;
pub mod stop;
pub mod view;

pub use constraints::Violation;
pub use incremental::{
    best_insertion_cached, score_insertion_cached, sweep_best, sweep_insertions, InsertionSweep,
    ScheduleCache, ScoredInsertion,
};
pub use insertion::{
    best_insertion, best_insertion_naive, enumerate_insertions, BestInsertion, InsertionCandidate,
    InsertionScore,
};
pub use planner::{
    earliest_delivery_arrival, PlanScore, PlannerOutput, PruneProbe, RoutePlanner,
    PRUNE_MARGIN_SECS,
};
pub use route::Route;
pub use schedule::{simulate_insertion, simulate_schedule, Schedule, ScheduleTotals, StopTiming};
pub use stop::{Stop, StopAction};
pub use view::VehicleView;
