//! Event-driven DPDP simulation core — the paper's Algorithm 1 rebuilt
//! around a deterministic **event engine** feeding **batched decision
//! epochs**.
//!
//! # Architecture: sources → event stream → epochs → decisions
//!
//! An episode is a time-ordered stream of [`SimEvent`]s consumed by the
//! engine ([`Simulator::run_events`]):
//!
//! | event | effect |
//! |---|---|
//! | [`OrderArrival`] | the order joins the dispatch buffer until its decision epoch flushes |
//! | [`OrderCancelled`] | buffered → logged as a [`Cancelled`] rejection; assigned with an undriven pickup → route surgery ([`Route::remove_order`]) revokes the assignment; picked up → too late, ignored |
//! | [`VehicleBreakdown`] | undriven pickups are *stranded* back into the buffer (re-dispatched at the next epoch), onboard cargo is written off as [`VehicleLost`], and the vehicle is masked out of every [`DecisionBatch`] |
//! | [`VehicleRecovered`] | the vehicle rejoins dispatch at its current anchor |
//! | [`EpochFlush`] | a pure time heartbeat releasing every epoch due at or before it |
//!
//! Events come from pluggable [`EventSource`]s, merged deterministically
//! (time, then a fixed event-class rank, then source position):
//!
//! * [`ReplaySource`] — the instance's order table; feeding the engine
//!   from it alone forms one epoch per run of orders sharing a decision
//!   time. `tests/event_parity.rs` pins the resulting episodes, in every
//!   shard × thread cell it runs, to committed decision digests.
//! * [`StreamSource`] — a channel of [`StreamCommand`]s pushed by another
//!   thread ([`Simulator::serve`]): the simulator as a serving loop for
//!   live traffic.
//! * [`DisruptionSource`] — seeded stochastic cancellations and
//!   breakdowns ([`DisruptionConfig`], armed via
//!   [`SimulatorBuilder::disruptions`]) drawn from dedicated RNG streams
//!   of the builder seed, so legacy draws are untouched.
//!
//! **Source contract.** A source yields events in nondecreasing time
//! order and may block (that is how a channel source works — virtual time
//! cannot pass an instant until every source has spoken). The engine
//! clamps stragglers to the current clock.
//!
//! **Determinism guarantee.** The merged stream — and therefore the whole
//! episode — is a pure function of the sources' contents: same instance,
//! config and seed ⇒ bit-identical [`EpisodeResult`] and disruption
//! trace, for every thread count and shard count
//! (`tests/event_parity.rs`, `tests/batch_parity.rs`).
//!
//! # Batched decision epochs
//!
//! Buffered orders sharing one decision time (immediate service: their
//! creation instant; fixed-interval buffering: the flush multiple) are
//! decided through a single [`Dispatcher::dispatch_batch`] call over a
//! [`DecisionBatch`]: one shared set of vehicle snapshots and Algorithm 2
//! scores, delta-updated as decisions commit. There is one commit —
//! [`DecisionBatch::resolve`] — and one fleet: the engine owns it as two
//! vehicle-indexed columns, the [`dpdp_routing::VehicleView`]s policies
//! read and the [`VehicleState`]s beside them, and moves both into the
//! batch for the length of the epoch and back out, so no epoch copies a
//! view and a commit changes the accepting vehicle's view in place. A
//! policy resolves each order (the engine resolves, with the claimed
//! vehicle, any order a policy returns unresolved), and the engine records
//! what `resolve` recorded. Per-order policies implement [`Dispatcher::dispatch`] and
//! ride the default adapter; batch-native policies (like
//! `dpdp-baselines`' greedy baselines) read the batch's rows directly.
//! Stranded orders from breakdowns re-enter here as re-dispatchable
//! arrivals; broken vehicles keep their dense snapshot slot but every
//! plan of theirs arrives as `best: None`.
//!
//! **Schedule caches outlive the epoch.** Each vehicle has a slot in the
//! episode's arena holding the [`dpdp_routing::ScheduleCache`] it last
//! built and the view fields it was built from. An epoch rebuilds a
//! column's cache only when that view changed — a vehicle still driving
//! the leg it was driving last epoch is scored on the cache it has — and
//! an acceptance rebuilds the accepting vehicle's own slot;
//! [`ShardStats::caches_built`] counts the builds.
//!
//! **Validity, not just parity.** [`SimObserver::on_fleet`] hands
//! observers the whole fleet after every epoch and every disruption, and
//! the [`InvariantAuditor`] re-checks every route on it: LIFO, pickup
//! before delivery, capacity, deadlines, nothing on a broken-down vehicle,
//! and `served + rejected == orders` at the end. The integration suites
//! run with it switched on.
//!
//! # Parallel epoch scoring
//!
//! [`SimulatorBuilder::num_threads`] hands every [`DecisionBatch`] a
//! [`dpdp_pool::ThreadPool`]: the initial `B x K` Algorithm 2 sweep of an
//! epoch of at least [`FAN_OUT_MIN_CELLS`] cells fans out across it, with
//! every result written to a pre-indexed slot — results are bit-identical
//! for every thread count. Smaller epochs and the per-commit plan deltas
//! run inline on the caller.
//!
//! # Candidate rows
//!
//! A batch owns the epoch's plan matrix and is its only writer. A cell is
//! a [`dpdp_routing::PlanScore`]: the scalars Algorithm 2 scores for the
//! pair (`fe`, `d_{t,k}`, `d^i_{t,k}`) with the best insertion held as
//! positions — `Copy`, no route. Policies read the matrix one order at a
//! time: batch-native policies by folding over the order's *candidate
//! row* of scores at decision time ([`DecisionBatch::fold_candidates`]),
//! per-order policies through the [`DispatchContext`] of
//! [`DecisionBatch::with_context`], whose
//! [`PlannerOutput`](dpdp_routing::PlannerOutput)s — route and schedule
//! per feasible column — are materialised for that call and dropped
//! after it. Whoever looks inside a route pays for building it: a
//! per-order policy pays for its row, a batch-native one for nothing, and
//! [`DecisionBatch::resolve`] builds the one route an accepted order's
//! vehicle adopts. A row is the cells some sweep actually evaluated —
//! every cell it omits is a masked vehicle's or was proven infeasible by
//! the exact bound, and reads as the vehicle's `best: None` fallback, so
//! it could never win an argmin and a policy stays `O(work)` instead of
//! `O(K)` per order; unsharded, that is every active vehicle. The matrix
//! costs the epoch's *distinct* vehicles: idle vehicles that share anchor
//! node, anchor time and depot are one input to Algorithm 2, so each such group
//! is one *column* — classified, scored and stored once per order, one
//! cell per `(order, group)` (the member cells this saves are
//! [`ShardStats::shared`]). Readers see every member: the candidate row
//! hands each current member the group's score (the ungrouped vehicles
//! ascending first, then each group's members together, so a tie-break
//! toward the lower id must compare ids), and `with_context` materialises
//! it once, on its lowest member's view, as the plan every member's
//! [`DispatchContext::plan`] returns. A row changes only when an acceptance
//! commits: the accepting vehicle leaves its group, if any, for a column
//! of its own, that column is rescored for every still-undecided order,
//! and cells the bound prunes again stay implicit (the column's fallback
//! is refreshed once; the batch keeps a per-column index, so only the
//! rows that hold a cell of that column are touched, not every row
//! searched). Positions only mean something against the view they were
//! scored on, so the row of a resolved order — which no commit rescores —
//! can no longer be shown: `with_context` on it panics.
//!
//! # Region-sharded dispatch: partition → score → merge
//!
//! [`SimulatorBuilder::sharding`] takes a validated [`ShardConfig`] and
//! turns every decision epoch into a merge of cell-local batches. One cell
//! — the default, unsharded layout — is the degenerate partition: every
//! pair is in-cell, so nothing is pruned, and the epoch runs the same
//! classification, scoring, storage and commit as any other layout.
//!
//! * **Flat** ([`ShardConfig::flat`]) — one level of k-means cells.
//!   In-cell `(order, vehicle)` pairs run the full insertion sweep
//!   shard-concurrently; cross-cell pairs are escalated (the `m` nearest
//!   foreign vehicles) or skipped through the **exact** geometric bound
//!   of [`dpdp_routing::RoutePlanner::provably_infeasible`].
//! * **Hierarchical** ([`ShardConfig::hierarchical`]) — two levels:
//!   coarse metro regions, each split into fine cells. Cross-cell
//!   escalation is resolved *within the parent region* (the `m` nearest
//!   same-region foreign vehicles); cross-region pairs rely on the exact
//!   bound alone, so sweep cost scales with cell size instead of fleet
//!   size at megacity scale.
//! * **Mid-episode re-partitioning** ([`RepartitionPolicy`]) — at flush
//!   boundaries, quantity-weighted pickup demand accumulated from the
//!   order stream re-seeds the k-means centroids
//!   ([`ShardMap::build_weighted`]), so the partition tracks demand drift
//!   (e.g. `Presets::metro`'s staggered hotspot peaks). Re-seeding is
//!   seeded and serial, so a fixed seed stays bit-identical across thread
//!   counts and escalation widths; [`EpochInfo::repartitioned`] flags the
//!   epochs where it fired.
//!
//! See [`crate::sweep`] for the sweep pipeline and its determinism
//! argument, [`crate::sharding`] for the config surface.
//!
//! [`OrderArrival`]: event::SimEvent::OrderArrival
//! [`OrderCancelled`]: event::SimEvent::OrderCancelled
//! [`VehicleBreakdown`]: event::SimEvent::VehicleBreakdown
//! [`VehicleRecovered`]: event::SimEvent::VehicleRecovered
//! [`EpochFlush`]: event::SimEvent::EpochFlush
//! [`Cancelled`]: batch::DecisionReason::Cancelled
//! [`VehicleLost`]: batch::DecisionReason::VehicleLost
//! [`Route::remove_order`]: dpdp_routing::Route::remove_order
//! [`Dispatcher::dispatch`]: dispatcher::Dispatcher::dispatch
//! [`Dispatcher::dispatch_batch`]: dispatcher::Dispatcher::dispatch_batch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod batch;
pub mod dispatcher;
pub mod engine;
pub mod event;
pub mod metrics;
pub mod observer;
pub mod profile;
pub mod sharding;
pub mod simulator;
pub mod state;
pub mod sweep;

pub use audit::InvariantAuditor;
pub use batch::{Decision, DecisionBatch, DecisionReason, FAN_OUT_MIN_CELLS};
pub use dispatcher::{DispatchContext, Dispatcher, FirstFeasible, PerOrder};
pub use dpdp_net::{ShardMap, ShardPolicy};
pub use event::{
    DisruptionConfig, DisruptionSource, EventSource, ReplaySource, SimEvent, StreamCommand,
    StreamSource, TimedEvent,
};
pub use metrics::{
    AssignmentRecord, EpisodeMetrics, EpisodeResult, MetricsOptions, RejectionCounts, VehicleStats,
};
pub use observer::{
    CancelOutcome, DecisionRecord, DisruptionKind, DisruptionRecord, EpochInfo, EventCounter,
    FleetRecord, SimObserver,
};
pub use profile::{EpochProfile, Stage, StageTimer};
pub use sharding::{RepartitionPolicy, ShardConfig};
pub use simulator::{
    BufferingMode, SimBuildError, Simulator, SimulatorBuilder, DEFAULT_SHARD_ESCALATION,
};
pub use state::{BreakdownOutcome, VehicleState};
pub use sweep::ShardStats;
