//! The dispatcher abstraction: who serves each order of a decision epoch?

use crate::batch::{Decision, DecisionBatch};
use dpdp_net::{FleetConfig, Instance, Order, RoadNetwork, TimePoint, VehicleId};
use dpdp_routing::{PlannerOutput, VehicleView};

/// Everything a dispatching policy may look at when assigning one order.
///
/// This is the joint state `S^i_t` of the paper's MDP in raw form: one
/// [`VehicleView`] and one [`PlannerOutput`] (Algorithm 2 result) per
/// vehicle, plus the decision time and its interval index.
///
/// **One plan per column.** Vehicles that are the same input to
/// Algorithm 2 have the same plan, so the plans are stored once per
/// *column* of the row ([`DispatchContext::column_plans`]) and each vehicle
/// names its column ([`DispatchContext::column_of`]); [`DispatchContext::plan`]
/// reads vehicle `k`'s. A [`DecisionBatch`] context's columns are the
/// plan matrix's: each idle-twin group is one column (see
/// [`crate::batch`]), every other vehicle its own. Members of one column
/// share everything Algorithm 2 and the ST Score read — anchor node and
/// time, depot, an empty route, nothing on board — but not `view.used`,
/// which a policy still reads per vehicle off [`DispatchContext::views`].
/// A context built by hand may give every vehicle a column of its own.
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
    /// One Algorithm 2 output per column some vehicle reads, columns
    /// numbered by their lowest member: column 0 is vehicle 0's, and each
    /// vehicle that reads no earlier vehicle's column opens the next one.
    /// A [`DecisionBatch`] keeps scores, not routes: it materialises these
    /// plans — the best route and schedule of every feasible column, on
    /// its lowest member's view — for each [`DecisionBatch::with_context`]
    /// call, against the snapshot as it stands then.
    pub column_plans: &'a [PlannerOutput],
    /// `column_of[k]`: vehicle `k`'s index into
    /// [`DispatchContext::column_plans`], dense by vehicle id.
    pub column_of: &'a [u32],
    /// The road network.
    pub net: &'a RoadNetwork,
    /// The fleet configuration.
    pub fleet: &'a FleetConfig,
    /// Dense order table for the whole instance.
    pub orders: &'a [Order],
}

impl<'a> DispatchContext<'a> {
    /// Vehicle `k`'s Algorithm 2 output: its column's plan.
    ///
    /// # Panics
    /// Panics if `k >= num_vehicles()`.
    #[inline]
    pub fn plan(&self, k: usize) -> &PlannerOutput {
        &self.column_plans[self.column_of[k] as usize]
    }

    /// Number of vehicles `K` in the snapshot.
    #[inline]
    pub fn num_vehicles(&self) -> usize {
        self.column_of.len()
    }

    /// Ids of vehicles that can feasibly take the order.
    pub fn feasible_vehicles(&self) -> impl Iterator<Item = VehicleId> + '_ {
        (0..self.num_vehicles())
            .filter(|&k| self.plan(k).feasible())
            .map(VehicleId::from_index)
    }

    /// Whether any vehicle can take the order.
    pub fn any_feasible(&self) -> bool {
        self.column_plans.iter().any(|p| p.feasible())
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
