//! The dispatcher abstraction: who serves each order of a decision epoch?

use crate::batch::{Decision, DecisionBatch};
use dpdp_net::{FleetConfig, Instance, Order, RoadNetwork, TimePoint, VehicleId};
use dpdp_routing::{PlannerOutput, VehicleView};

/// Everything a dispatching policy may look at when assigning one order.
///
/// This is the joint state `S^i_t` of the paper's MDP in raw form: one
/// [`VehicleView`] and one [`PlannerOutput`] (Algorithm 2 result) per
/// vehicle, plus the decision time and its interval index.
#[derive(Debug)]
pub struct DispatchContext<'a> {
    /// The order being assigned.
    pub order: &'a Order,
    /// Wall-clock decision time (order creation, or the buffer flush time).
    pub now: TimePoint,
    /// Index of the current time interval `t` on the instance grid.
    pub interval: usize,
    /// Per-vehicle snapshots, dense by vehicle id.
    pub views: &'a [VehicleView],
    /// Per-vehicle Algorithm 2 outputs, dense by vehicle id. A
    /// [`DecisionBatch`] keeps scores, not routes: it materialises this
    /// slice — the best route and schedule of every feasible vehicle — for
    /// each [`DecisionBatch::with_context`] call, against the snapshot as
    /// it stands then.
    pub plans: &'a [PlannerOutput],
    /// The road network.
    pub net: &'a RoadNetwork,
    /// The fleet configuration.
    pub fleet: &'a FleetConfig,
    /// Dense order table for the whole instance.
    pub orders: &'a [Order],
}

impl<'a> DispatchContext<'a> {
    /// Ids of vehicles that can feasibly take the order.
    pub fn feasible_vehicles(&self) -> impl Iterator<Item = VehicleId> + '_ {
        self.plans
            .iter()
            .enumerate()
            .filter(|(_, p)| p.feasible())
            .map(|(k, _)| VehicleId::from_index(k))
    }

    /// Whether any vehicle can take the order.
    pub fn any_feasible(&self) -> bool {
        self.plans.iter().any(|p| p.feasible())
    }
}

/// A dispatching policy: picks the vehicle that serves each incoming order.
///
/// The simulator drives policies exclusively through
/// [`dispatch_batch`](Dispatcher::dispatch_batch): one call per decision
/// epoch, covering every order flushed at that epoch. Policies come in two
/// flavours:
///
/// * **Per-order policies** implement only [`dispatch`](Dispatcher::dispatch)
///   and inherit the default `dispatch_batch`, which walks the batch in
///   creation order, shows each order the delta-updated joint state, and
///   commits through [`DecisionBatch::resolve`] — bit-for-bit the legacy
///   one-order-at-a-time semantics.
/// * **Batch-native policies** override `dispatch_batch` to exploit the
///   shared epoch snapshot (e.g. ranking every order's candidate plans in
///   one parallel pass, as `dpdp-baselines`' greedy baselines do).
///
/// Returning `None` from `dispatch`, or a vehicle whose plan is infeasible,
/// rejects the order (the simulator records it as unserved).
///
/// A policy only ever *answers*: the simulator owns the fleet, and
/// [`DecisionBatch::resolve`] is the one place an answer is checked and
/// applied (contract: [`dispatch_batch`](Dispatcher::dispatch_batch)).
pub trait Dispatcher {
    /// Chooses a vehicle for the order in `ctx`.
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId>;

    /// Decides every order of one epoch, returning one [`Decision`] per
    /// batch order **in batch order**.
    ///
    /// # Contract
    ///
    /// [`DecisionBatch::resolve`] is the commit: it decides the order,
    /// updates the chosen vehicle's route and rescores that vehicle for the
    /// orders still undecided (Algorithm 1's rule inside the epoch). The
    /// returned vector reports those commits; it cannot change them.
    ///
    /// * An order the policy resolved must come back as exactly the
    ///   [`Decision`] `resolve` returned. Anything else is a contract
    ///   violation and panics with the dispatcher's
    ///   [`name`](Dispatcher::name), like a wrong count or order.
    /// * An order left unresolved is resolved by the simulator, through
    ///   the same `resolve`, with the vehicle the returned decision names.
    ///   The claim is untrusted: an infeasible, masked (broken-down) or
    ///   out-of-range vehicle degrades to `InfeasibleChoice`. Leftovers
    ///   commit after the policy returns, in batch order — so after every
    ///   commit the policy made itself — and a leftover rejection gets the
    ///   reason `resolve` computes (`PolicyRejected` / `NoFeasibleVehicle`),
    ///   whatever reason the policy wrote.
    ///
    /// The default implementation adapts a per-order policy: for each order
    /// it builds the current [`DispatchContext`] (reflecting all decisions
    /// committed so far in this batch) and funnels the choice through
    /// [`DecisionBatch::resolve`].
    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        (0..batch.len())
            .map(|i| {
                let choice = batch.with_context(i, |ctx| self.dispatch(ctx));
                batch.resolve(i, choice)
            })
            .collect()
    }

    /// Called once when an episode starts, with the instance being run.
    fn begin_episode(&mut self, _instance: &Instance) {}

    /// Called once when the episode ends.
    fn end_episode(&mut self) {}

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "dispatcher"
    }
}

/// Forces a policy through the default per-order adapter even when it has a
/// native `dispatch_batch`, by hiding the override behind delegation.
///
/// Useful to A/B a batch-native implementation against the sequential
/// reference — the batch/serial parity tests run every policy both ways and
/// assert identical [`EpisodeResult`](crate::metrics::EpisodeResult)s.
#[derive(Debug, Default, Clone)]
pub struct PerOrder<D>(pub D);

impl<D: Dispatcher> Dispatcher for PerOrder<D> {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        self.0.dispatch(ctx)
    }

    // No dispatch_batch override: the trait default (sequential adapter)
    // applies, regardless of D's own override.

    fn begin_episode(&mut self, instance: &Instance) {
        self.0.begin_episode(instance);
    }

    fn end_episode(&mut self) {
        self.0.end_episode();
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A trivial dispatcher for tests and smoke runs: picks the first feasible
/// vehicle in id order.
#[derive(Debug, Default, Clone)]
pub struct FirstFeasible;

impl Dispatcher for FirstFeasible {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        ctx.feasible_vehicles().next()
    }

    fn name(&self) -> &str {
        "first-feasible"
    }
}
