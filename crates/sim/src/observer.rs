//! Episode observation hooks.
//!
//! A [`SimObserver`] watches a simulation from the outside: it is notified
//! when an episode starts, when each decision epoch opens, after every
//! decision, and when the episode ends. Experience recording (RL replay,
//! capacity distributions, convergence curves) plugs in here instead of
//! being hard-wired into dispatcher internals — the dispatcher decides,
//! observers account.
//!
//! Guaranteed call order, enforced by the event engine behind
//! [`Simulator::run_observed`](crate::simulator::Simulator::run_observed):
//!
//! ```text
//! on_episode_begin
//!   (on_epoch  on_decision*        // one on_epoch per dispatch_batch call
//!      on_epoch_profile?           // iff wants_profile() said so for the epoch
//!      on_fleet                    // the fleet the epoch's commits left
//!    | on_decision                 // cancelled before dispatch
//!    | on_disruption  on_fleet)*   // cancellations, breakdowns, recoveries
//! on_episode_end
//! ```
//!
//! Disruption events interleave with epochs in simulation-time order: an
//! [`on_disruption`](SimObserver::on_disruption) call lands after every
//! epoch that precedes it and before every epoch that follows it.

use crate::batch::Decision;
use crate::metrics::{AssignmentRecord, EpisodeResult};
use crate::profile::EpochProfile;
use crate::sweep::ShardStats;
use dpdp_net::{FleetConfig, Instance, Order, OrderId, RoadNetwork, TimePoint, VehicleId};
use dpdp_routing::{PlannerOutput, VehicleView};

/// One decision epoch, as announced to observers before its decisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochInfo {
    /// Zero-based index of the epoch within the episode.
    pub index: usize,
    /// Wall-clock decision time shared by the epoch's orders.
    pub now: TimePoint,
    /// Index of the epoch's time interval on the instance grid.
    pub interval: usize,
    /// Number of orders flushed at this epoch.
    pub num_orders: usize,
    /// Number of geographic shards the epoch is scored with (1 when the
    /// simulator runs unsharded, the one-cell layout).
    pub num_shards: usize,
    /// Work accounting of the epoch's initial `B x K` sweep under its shard
    /// layout (commit deltas applied *during* the dispatch call are visible
    /// through `DecisionBatch::shard_stats` instead). These counters vary
    /// with the shard configuration while the epoch's decisions do not.
    pub shards: ShardStats,
    /// Whether the shard map was re-seeded from accumulated demand at this
    /// flush boundary (see `RepartitionPolicy`; always `false` under
    /// `RepartitionPolicy::Never`, and under one cell, which re-seeding
    /// cannot change). Like the work counters, this varies with the shard
    /// configuration while the epoch's decisions do not.
    pub repartitioned: bool,
}

/// Everything an observer may inspect about one committed decision.
#[derive(Debug)]
pub struct DecisionRecord<'a> {
    /// The dispatcher's (validated) decision.
    pub decision: &'a Decision,
    /// The assignment log entry the simulator recorded.
    pub assignment: &'a AssignmentRecord,
    /// The chosen vehicle's view *before* accepting the order, when
    /// assigned.
    pub view: Option<&'a VehicleView>,
    /// The validated Algorithm 2 output the assignment committed, when
    /// assigned.
    pub plan: Option<&'a PlannerOutput>,
    /// The fleet configuration.
    pub fleet: &'a FleetConfig,
    /// The road network.
    pub net: &'a RoadNetwork,
}

/// The whole fleet as it stands after an epoch's commits or after an
/// applied disruption, as handed to [`SimObserver::on_fleet`]: read-only,
/// one view per vehicle, dense by vehicle id.
#[derive(Debug)]
pub struct FleetRecord<'a> {
    /// The epoch instant, or the time the disruption was applied at.
    pub time: TimePoint,
    /// Every vehicle's view: anchor, cargo on board, remaining route.
    pub views: &'a [VehicleView],
    /// The episode's order table, dense by id (streamed orders included).
    pub orders: &'a [Order],
    /// The fleet configuration.
    pub fleet: &'a FleetConfig,
    /// The road network.
    pub net: &'a RoadNetwork,
}

/// How an applied [`OrderCancelled`] event found its order.
///
/// [`OrderCancelled`]: crate::event::SimEvent::OrderCancelled
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The order was still buffered: it never reaches a dispatcher and is
    /// logged as a [`Cancelled`](crate::batch::DecisionReason::Cancelled)
    /// rejection (the decision record flows through `on_decision`).
    BeforeDispatch,
    /// The order was assigned but its pickup was still undriven: the
    /// serving vehicle's route was shortened by surgery and the assignment
    /// revoked (no `on_decision` follows — the episode log entry is
    /// rewritten in place).
    AfterAssignment,
    /// The pickup had already been driven (or the order was already
    /// rejected): the cancellation has no effect.
    TooLate,
}

/// What a disruption event did to the episode, as announced through
/// [`SimObserver::on_disruption`].
#[derive(Debug, Clone, PartialEq)]
pub enum DisruptionKind {
    /// An order cancellation was processed.
    OrderCancelled {
        /// The cancelled order.
        order: OrderId,
        /// Where the cancellation caught the order.
        outcome: CancelOutcome,
        /// The vehicle whose route was shortened, for
        /// [`CancelOutcome::AfterAssignment`].
        vehicle: Option<VehicleId>,
    },
    /// A vehicle broke down.
    VehicleBreakdown {
        /// The broken vehicle.
        vehicle: VehicleId,
        /// Accepted-but-unpicked orders returned to the dispatch queue
        /// (each will produce a fresh decision at the next epoch it joins).
        stranded: Vec<OrderId>,
        /// Picked-up orders written off as
        /// [`VehicleLost`](crate::batch::DecisionReason::VehicleLost).
        lost: Vec<OrderId>,
    },
    /// A broken vehicle came back into service at its current anchor.
    VehicleRecovered {
        /// The recovered vehicle.
        vehicle: VehicleId,
    },
}

/// One applied disruption event, stamped with its simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct DisruptionRecord {
    /// When the event was applied.
    pub time: TimePoint,
    /// What it did.
    pub kind: DisruptionKind,
}

/// Observation hooks over one simulated episode. All methods default to
/// no-ops so observers implement only what they need.
pub trait SimObserver {
    /// Called once before any decision, with the instance being run.
    fn on_episode_begin(&mut self, _instance: &Instance) {}

    /// Called when a decision epoch opens, immediately before the epoch's
    /// single `dispatch_batch` call.
    fn on_epoch(&mut self, _epoch: &EpochInfo) {}

    /// Called after each decision is validated and committed.
    fn on_decision(&mut self, _record: &DecisionRecord<'_>) {}

    /// Whether this observer wants the next epoch profiled. Asked once as
    /// each epoch begins, before its fleet advance; an epoch is profiled
    /// when any observer says yes. Profiling only reads the clock, so the
    /// answer never changes a decision.
    fn wants_profile(&self) -> bool {
        false
    }

    /// Called with a profiled epoch's [`EpochProfile`], after the epoch's
    /// last `on_decision`, on each observer whose
    /// [`wants_profile`](SimObserver::wants_profile) says yes at that
    /// point.
    fn on_epoch_profile(&mut self, _profile: &EpochProfile) {}

    /// Called after a disruption event (cancellation, breakdown, recovery)
    /// is applied, in simulation-time order relative to epochs.
    ///
    /// Accounting rules for observers mirroring the episode aggregates:
    /// a [`CancelOutcome::AfterAssignment`] cancellation and every `lost`
    /// order of a breakdown move one order from served to rejected
    /// (reasons `Cancelled` / `VehicleLost`); every `stranded` order
    /// un-counts one served order, whose replacement decision arrives
    /// through `on_decision` when the order is re-dispatched.
    fn on_disruption(&mut self, _record: &DisruptionRecord) {}

    /// Called with the whole fleet after every epoch — once its commits are
    /// recorded, after its last `on_decision` and any `on_epoch_profile` —
    /// and after every `on_disruption`, so an observer sees each route the
    /// engine holds, disruption surgery included (see
    /// [`InvariantAuditor`](crate::audit::InvariantAuditor)).
    fn on_fleet(&mut self, _record: &FleetRecord<'_>) {}

    /// Called once with the finished episode result.
    fn on_episode_end(&mut self, _result: &EpisodeResult) {}
}

/// An observer that counts events — useful to assert the epoch/decision
/// protocol in tests and as a minimal example implementation.
#[derive(Debug, Default, Clone)]
pub struct EventCounter {
    /// `on_episode_begin` calls seen.
    pub episodes_begun: usize,
    /// `on_epoch` calls seen.
    pub epochs: usize,
    /// `on_decision` calls seen.
    pub decisions: usize,
    /// Decisions that assigned a vehicle.
    pub assigned: usize,
    /// Cancellation events applied (any [`CancelOutcome`]).
    pub cancellations: usize,
    /// Breakdown events applied.
    pub breakdowns: usize,
    /// Recovery events applied.
    pub recoveries: usize,
    /// `on_episode_end` calls seen.
    pub episodes_ended: usize,
}

impl SimObserver for EventCounter {
    fn on_episode_begin(&mut self, _instance: &Instance) {
        self.episodes_begun += 1;
    }

    fn on_epoch(&mut self, _epoch: &EpochInfo) {
        self.epochs += 1;
    }

    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        self.decisions += 1;
        if record.decision.is_assigned() {
            self.assigned += 1;
        }
    }

    fn on_disruption(&mut self, record: &DisruptionRecord) {
        match record.kind {
            DisruptionKind::OrderCancelled { .. } => self.cancellations += 1,
            DisruptionKind::VehicleBreakdown { .. } => self.breakdowns += 1,
            DisruptionKind::VehicleRecovered { .. } => self.recoveries += 1,
        }
    }

    fn on_episode_end(&mut self, _result: &EpisodeResult) {
        self.episodes_ended += 1;
    }
}
