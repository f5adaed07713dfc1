//! The route planner: the paper's Algorithm 2.

use crate::incremental::{score_insertion_cached, ScheduleCache};
use crate::insertion::{BestInsertion, InsertionScore};
use crate::view::VehicleView;
use dpdp_net::{FleetConfig, NodeId, Order, RoadNetwork, TimeDelta, TimePoint};

/// Safety margin (seconds) the geographic infeasibility prune keeps between
/// its lower bound and an order's deadline. The bound's arithmetic differs
/// from the schedule simulator's leg-by-leg accumulation only by float
/// rounding plus the network's metric tolerance
/// ([`dpdp_net::METRIC_TOLERANCE_KM`] per contracted leg) — both orders of
/// magnitude below a second — while genuine geographic hopelessness is
/// minutes to hours, so one second of slack makes the prune exact without
/// costing it any real pruning power.
pub const PRUNE_MARGIN_SECS: f64 = 1.0;

/// Lower bound on the arrival time at `order`'s delivery node over **every**
/// possible insertion of the order into `view`'s remaining route.
///
/// The vehicle cannot reach the pickup before
/// `anchor_time + travel(d(anchor, pickup))` (on a metric network any stop
/// sequence from the anchor to the pickup drives at least the direct
/// distance, and intermediate service times only add), cannot start pickup
/// service before the order exists, and cannot reach the delivery earlier
/// than one service plus the direct pickup→delivery drive later. Only valid
/// as a bound when [`RoadNetwork::is_metric`] holds — callers must gate on
/// it (see [`RoutePlanner::provably_infeasible`]).
pub fn earliest_delivery_arrival(
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
) -> TimePoint {
    let to_pickup =
        view.anchor_time + fleet.travel_time(net.distance(view.anchor_node, order.pickup));
    let pickup_service = to_pickup.max(order.created);
    pickup_service
        + fleet.service_time
        + fleet.travel_time(net.distance(order.pickup, order.delivery))
}

/// One order's precomputed prune state (see
/// [`RoutePlanner::prune_probe`]): everything
/// [`RoutePlanner::provably_infeasible`] derives from the order alone,
/// leaving only the vehicle's anchor time and anchor→pickup leg to the
/// per-vehicle call.
#[derive(Debug, Clone, Copy)]
pub struct PruneProbe {
    metric: bool,
    created: TimePoint,
    service: TimeDelta,
    tail: TimeDelta,
    cutoff_secs: f64,
}

impl PruneProbe {
    /// Whether every insertion is provably infeasible for a vehicle free
    /// at `anchor_time` whose direct drive to the pickup takes
    /// `to_pickup`. Bit-identical to
    /// [`RoutePlanner::provably_infeasible`] when `to_pickup` is the
    /// [`RoutePlanner::leg_time`] of the vehicle's anchor→pickup drive.
    #[inline]
    pub fn prunes(&self, anchor_time: TimePoint, to_pickup: TimeDelta) -> bool {
        if !self.metric {
            return false;
        }
        let pickup_service = (anchor_time + to_pickup).max(self.created);
        (pickup_service + self.service + self.tail).seconds() > self.cutoff_secs
    }
}

/// What Algorithm 2 *scores* for one `(order, vehicle)` pair: the
/// feasibility flag `fe^i_{t,k}`, the current route length `d_{t,k}` and
/// the best temporary route's length `d^i_{t,k}`, with that route held as
/// insertion positions instead of stops. `Copy` and 40 bytes — this is the
/// cell of an epoch's plan matrix, and everything an argmin over vehicles
/// reads. [`RoutePlanner::materialise`] builds the [`PlannerOutput`] (the
/// route and its schedule) for the cells somebody wants to look inside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanScore {
    /// Length of the vehicle's current remaining route, `d_{t,k}` (km).
    pub current_length: f64,
    /// The shortest feasible insertion as positions, if any.
    pub best: Option<InsertionScore>,
}

impl PlanScore {
    /// The feasibility flag `fe^i_{t,k}`.
    #[inline]
    pub fn feasible(&self) -> bool {
        self.best.is_some()
    }

    /// Length of the best temporary route `d^i_{t,k}`, if feasible.
    #[inline]
    pub fn best_length(&self) -> Option<f64> {
        self.best.map(|b| b.length)
    }

    /// Incremental distance `Δd^i_{t,k} = d^i_{t,k} - d_{t,k}` caused by
    /// taking the order, if feasible.
    #[inline]
    pub fn incremental_length(&self) -> Option<f64> {
        self.best_length().map(|l| l - self.current_length)
    }
}

/// Output of Algorithm 2 for one `(order, vehicle)` pair.
///
/// Mirrors the paper's outputs: the feasibility flag `fe^i_{t,k}`, the
/// current route length `d_{t,k}`, the best temporary route and its length
/// `d^i_{t,k}`. (The used flag `f_{t,k}` lives on [`VehicleView`]; the ST
/// Score `xi^i_{t,k}` is computed by `dpdp-data` on top of the best route.)
///
/// This is a [`PlanScore`] with its winner materialised
/// ([`RoutePlanner::materialise`]); [`PlannerOutput::score`] goes back.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerOutput {
    /// Length of the vehicle's current remaining route, `d_{t,k}` (km).
    pub current_length: f64,
    /// The shortest feasible temporary route, if any: the materialised
    /// route and schedule, out of line so an infeasible output — most of
    /// any row a policy is shown — is two words and owns nothing.
    pub best: Option<Box<BestInsertion>>,
}

impl PlannerOutput {
    /// The feasibility flag `fe^i_{t,k}`.
    #[inline]
    pub fn feasible(&self) -> bool {
        self.best.is_some()
    }

    /// Length of the best temporary route `d^i_{t,k}`, if feasible.
    #[inline]
    pub fn best_length(&self) -> Option<f64> {
        self.best.as_ref().map(|b| b.length())
    }

    /// Incremental distance `Δd^i_{t,k} = d^i_{t,k} - d_{t,k}` caused by
    /// taking the order, if feasible.
    #[inline]
    pub fn incremental_length(&self) -> Option<f64> {
        self.best_length().map(|l| l - self.current_length)
    }

    /// The scalars of this output: what [`RoutePlanner::materialise`] was
    /// given to build it.
    pub fn score(&self) -> PlanScore {
        PlanScore {
            current_length: self.current_length,
            best: self.best.as_ref().map(|b| b.score()),
        }
    }
}

/// The route planner (Algorithm 2). Stateless; bundles the problem data it
/// plans against.
#[derive(Debug, Clone, Copy)]
pub struct RoutePlanner<'a> {
    net: &'a RoadNetwork,
    fleet: &'a FleetConfig,
    orders: &'a [Order],
}

impl<'a> RoutePlanner<'a> {
    /// Creates a planner over the given problem data. `orders` must be
    /// dense by id, as guaranteed by [`dpdp_net::Instance`].
    pub fn new(net: &'a RoadNetwork, fleet: &'a FleetConfig, orders: &'a [Order]) -> Self {
        RoutePlanner { net, fleet, orders }
    }

    /// Builds the reusable prefix/suffix schedule cache for a vehicle view
    /// (O(n)). One cache serves every [`RoutePlanner::plan_cached`] call
    /// against the same view — e.g. all orders of a decision epoch — which
    /// is where the `d_{t,k}` route length and the forward/backward passes
    /// stop being recomputed per order.
    pub fn cache(&self, view: &VehicleView) -> ScheduleCache {
        ScheduleCache::build(view, self.net, self.fleet, self.orders)
    }

    /// In-place variant of [`RoutePlanner::cache`]: re-runs both passes
    /// into an existing cache, reusing its allocations
    /// ([`ScheduleCache::rebuild`]). Bit-identical to a fresh build; the
    /// epoch arena rebuilds its per-vehicle caches through this.
    pub fn cache_into(&self, cache: &mut ScheduleCache, view: &VehicleView) {
        cache.rebuild(view, self.net, self.fleet, self.orders);
    }

    /// Runs Algorithm 2: checks whether `view`'s vehicle can take `order`,
    /// and if so finds the shortest feasible temporary route.
    pub fn plan(&self, view: &VehicleView, order: &Order) -> PlannerOutput {
        self.plan_cached(&self.cache(view), view, order)
    }

    /// Runs Algorithm 2 against a prebuilt [`ScheduleCache`] for `view`
    /// (see [`RoutePlanner::cache`]): [`RoutePlanner::score_cached`], then
    /// [`RoutePlanner::materialise`] on what it found.
    pub fn plan_cached(
        &self,
        cache: &ScheduleCache,
        view: &VehicleView,
        order: &Order,
    ) -> PlannerOutput {
        self.materialise(&self.score_cached(cache, view, order), view, order)
    }

    /// The scoring half of Algorithm 2 against a prebuilt
    /// [`ScheduleCache`] for `view`: the vehicle's current route length
    /// comes from the cache, the candidate sweep and the oracle walk over
    /// its winner are allocation-free, and the winner stays positions — no
    /// route is built ([`score_insertion_cached`]).
    ///
    /// An infeasible cache (base route fails the oracle; committed routes
    /// never do) has no passes to sweep: the score then comes from the
    /// [`crate::best_insertion_naive`] oracle and the route length from
    /// [`crate::Route::length`].
    pub fn score_cached(
        &self,
        cache: &ScheduleCache,
        view: &VehicleView,
        order: &Order,
    ) -> PlanScore {
        PlanScore {
            best: score_insertion_cached(cache, view, order, self.net, self.fleet, self.orders),
            ..self.pruned_score(Some(cache), view)
        }
    }

    /// The materialising half of Algorithm 2: builds the route and schedule
    /// `score` stands for ([`InsertionScore::materialise`]). `view` and
    /// `order` must be the ones the score was computed for — positions mean
    /// nothing against another route. An infeasible score materialises to
    /// `best: None` and touches neither.
    ///
    /// # Panics
    /// Panics if a feasible score does not fit `view` (see
    /// [`InsertionScore::materialise`]).
    pub fn materialise(
        &self,
        score: &PlanScore,
        view: &VehicleView,
        order: &Order,
    ) -> PlannerOutput {
        PlannerOutput {
            current_length: score.current_length,
            best: score.best.map(|best| {
                Box::new(best.materialise(view, order, self.net, self.fleet, self.orders))
            }),
        }
    }

    /// Whether **every** insertion of `order` into `view`'s route is
    /// provably infeasible, without running the candidate sweep.
    ///
    /// True only when the network is metric and the
    /// [`earliest_delivery_arrival`] lower bound already misses the order's
    /// deadline by more than [`PRUNE_MARGIN_SECS`] — in that case the
    /// schedule simulator would reject every position pair with a
    /// time-window violation, so the full Algorithm 2 output is known to be
    /// `best: None` in advance. This is the cross-shard pruning rule of the
    /// region-sharded dispatch pipeline: skipping a pruned `(order,
    /// vehicle)` pair is **bit-identical** to evaluating it.
    ///
    /// On non-metric networks the bound is unsound, so this always returns
    /// `false` (every pair gets the full sweep).
    pub fn provably_infeasible(&self, view: &VehicleView, order: &Order) -> bool {
        self.prune_probe(order).prunes(
            view.anchor_time,
            self.leg_time(view.anchor_node, order.pickup),
        )
    }

    /// Travel time of the direct `from → to` drive — the unit the prune
    /// bound is assembled from.
    #[inline]
    pub fn leg_time(&self, from: NodeId, to: NodeId) -> TimeDelta {
        self.fleet.travel_time(self.net.distance(from, to))
    }

    /// Travel time for a raw distance in km (the fleet's speed model),
    /// for callers that already hold the distance.
    #[inline]
    pub fn travel_time(&self, km: f64) -> TimeDelta {
        self.fleet.travel_time(km)
    }

    /// Precomputes the order-only parts of
    /// [`RoutePlanner::provably_infeasible`] so a sweep classifying one
    /// order against thousands of vehicles pays the pickup→delivery leg
    /// and the deadline cutoff **once**. [`PruneProbe::prunes`] then runs
    /// the identical float expression the unfactored check runs — same
    /// operations in the same order — so the two agree bit for bit.
    pub fn prune_probe(&self, order: &Order) -> PruneProbe {
        PruneProbe {
            metric: self.net.is_metric(),
            created: order.created,
            service: self.fleet.service_time,
            tail: self.leg_time(order.pickup, order.delivery),
            cutoff_secs: order.deadline.seconds() + PRUNE_MARGIN_SECS,
        }
    }

    /// The [`PlanScore`] for a pair pruned by
    /// [`RoutePlanner::provably_infeasible`]: `best: None` with the
    /// `current_length` the full evaluation would have reported —
    /// `cache.base_length()` of a feasible cache, the view's route length
    /// when there is no cache or it is infeasible (mirroring
    /// [`RoutePlanner::score_cached`] exactly, so pruned and evaluated
    /// cells are indistinguishable).
    pub fn pruned_score(&self, cache: Option<&ScheduleCache>, view: &VehicleView) -> PlanScore {
        let current_length = match cache {
            Some(cache) if cache.is_feasible() => cache.base_length(),
            _ => view.route.length(self.net, view.anchor_node, view.depot),
        };
        PlanScore {
            current_length,
            best: None,
        }
    }

    /// The network this planner plans against.
    #[inline]
    pub fn network(&self) -> &RoadNetwork {
        self.net
    }

    /// The fleet configuration this planner plans against.
    #[inline]
    pub fn fleet(&self) -> &FleetConfig {
        self.fleet
    }

    /// The dense order table this planner plans against.
    #[inline]
    pub fn orders(&self) -> &[Order] {
        self.orders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insertion::best_insertion_naive;
    use crate::route::Route;
    use crate::stop::Stop;
    use dpdp_net::{Node, NodeId, OrderId, Point, TimeDelta, TimePoint, VehicleId};

    fn setup() -> (RoadNetwork, FleetConfig, Vec<Order>) {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(10.0, 0.0)),
            Node::factory(NodeId(2), Point::new(20.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet =
            FleetConfig::homogeneous(1, &[NodeId(0)], 10.0, 500.0, 2.0, 60.0, TimeDelta::ZERO)
                .unwrap();
        let orders = vec![Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(2),
            5.0,
            TimePoint::ZERO,
            TimePoint::from_hours(24.0),
        )
        .unwrap()];
        (net, fleet, orders)
    }

    #[test]
    fn plan_on_idle_vehicle() {
        let (net, fleet, orders) = setup();
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        let out = planner.plan(&view, &orders[0]);
        assert!(out.feasible());
        assert_eq!(out.current_length, 0.0);
        assert!((out.best_length().unwrap() - 40.0).abs() < 1e-9);
        assert!((out.incremental_length().unwrap() - 40.0).abs() < 1e-9);
    }

    /// The size the epoch matrix pays per cell.
    #[test]
    fn a_plan_score_is_forty_bytes() {
        assert_eq!(std::mem::size_of::<PlanScore>(), 40);
    }

    #[test]
    fn plan_reports_infeasible_without_best() {
        let (net, fleet, mut orders) = setup();
        // Impossible deadline.
        orders[0].deadline = TimePoint::from_seconds(60.0);
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        let out = planner.plan(&view, &orders[0]);
        assert!(!out.feasible());
        assert_eq!(out.best_length(), None);
        assert_eq!(out.incremental_length(), None);
    }

    #[test]
    fn plan_matches_the_oracle_and_cache_is_reusable() {
        let (net, fleet, mut orders) = setup();
        orders.push(
            Order::new(
                OrderId(1),
                NodeId(2),
                NodeId(1),
                2.0,
                TimePoint::ZERO,
                TimePoint::from_hours(24.0),
            )
            .unwrap(),
        );
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        view.route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        // One cache serves every order planned against the same view.
        let cache = planner.cache(&view);
        for order in &orders {
            let oracle = PlannerOutput {
                current_length: view.route.length(&net, view.anchor_node, view.depot),
                best: best_insertion_naive(&view, order, &net, &fleet, &orders).map(Box::new),
            };
            assert_eq!(planner.plan(&view, order), oracle, "plan, {}", order.id);
            assert_eq!(
                planner.plan_cached(&cache, &view, order),
                oracle,
                "plan_cached, {}",
                order.id
            );
        }
    }

    #[test]
    fn provably_infeasible_agrees_with_full_sweep() {
        let (net, fleet, _) = setup();
        let planner_orders: Vec<Order> = (0..40u32)
            .map(|i| {
                // Deadline slack sweeps from hopeless (under a minute) to
                // loose (nearly an hour); pickups alternate between near
                // and far factories.
                let (p, d) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
                let created = TimePoint::from_hours(0.1 * (i % 5) as f64);
                Order::new(
                    OrderId(i),
                    NodeId(p),
                    NodeId(d),
                    1.0,
                    created,
                    created + TimeDelta::from_hours(0.015 * i as f64 + 0.01),
                )
                .unwrap()
            })
            .collect();
        let planner = RoutePlanner::new(&net, &fleet, &planner_orders);
        let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        view.route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        let mut pruned = 0;
        for order in &planner_orders[1..] {
            let full = planner.plan(&view, order);
            // The memoized probe is the same expression factored: it must
            // agree with the unfactored bound on every pair, bit for bit.
            let unfactored = net.is_metric()
                && earliest_delivery_arrival(&view, order, &net, &fleet).seconds()
                    > order.deadline.seconds() + PRUNE_MARGIN_SECS;
            assert_eq!(
                planner.provably_infeasible(&view, order),
                unfactored,
                "probe diverged from the unfactored bound for {}",
                order.id
            );
            if planner.provably_infeasible(&view, order) {
                pruned += 1;
                assert!(
                    !full.feasible(),
                    "bound pruned a feasible pair for {}",
                    order.id
                );
                let out = planner.pruned_score(Some(&planner.cache(&view)), &view);
                assert_eq!(out, full.score(), "pruned score diverged for {}", order.id);
            }
        }
        assert!(pruned > 0, "the deadline sweep must exercise the prune");
    }

    #[test]
    fn earliest_delivery_bound_matches_direct_insertion() {
        let (net, fleet, orders) = setup();
        let view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        // Empty route: the bound equals the one possible candidate's
        // delivery arrival exactly.
        let bound = earliest_delivery_arrival(&view, &orders[0], &net, &fleet);
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let best = planner.plan(&view, &orders[0]).best.unwrap();
        let arrival = best.candidate.schedule.timings.last().unwrap().arrival;
        assert!((bound.seconds() - arrival.seconds()).abs() < 1e-9);
    }

    #[test]
    fn non_metric_network_disables_the_prune() {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::factory(NodeId(2), Point::new(2.0, 0.0)),
        ];
        // The direct depot→2 arc is absurdly long while the detour through
        // node 1 is short: the triangle inequality fails, the
        // direct-distance bound would over-estimate, and the prune must
        // stay off.
        #[rustfmt::skip]
        let dist = vec![
            0.0,   1.0, 500.0,
            1.0,   0.0,   1.0,
            1.0,   1.0,   0.0,
        ];
        let net = RoadNetwork::with_matrix(nodes, dist).unwrap();
        assert!(!net.is_metric());
        let fleet =
            FleetConfig::homogeneous(1, &[NodeId(0)], 10.0, 500.0, 2.0, 60.0, TimeDelta::ZERO)
                .unwrap();
        let orders = vec![
            Order::new(
                OrderId(0),
                NodeId(1),
                NodeId(2),
                1.0,
                TimePoint::ZERO,
                TimePoint::from_hours(1.0),
            )
            .unwrap(),
            Order::new(
                OrderId(1),
                NodeId(2),
                NodeId(1),
                1.0,
                TimePoint::ZERO,
                TimePoint::from_hours(1.0),
            )
            .unwrap(),
        ];
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        // A route already heading through node 1 makes pickup node 2 cheap
        // to reach even though the direct arc says 500 km: the bound would
        // wrongly prune order 1, so the metric gate must keep it off.
        let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        view.route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        let bound = earliest_delivery_arrival(&view, &orders[1], &net, &fleet);
        assert!(
            bound.seconds() > orders[1].deadline.seconds() + PRUNE_MARGIN_SECS,
            "the unsound bound must actually fire for this test to bite"
        );
        assert!(
            planner.plan(&view, &orders[1]).feasible(),
            "the pair is genuinely feasible through the short detour"
        );
        assert!(!planner.provably_infeasible(&view, &orders[1]));
    }

    #[test]
    fn current_length_reflects_existing_route() {
        let (net, fleet, orders) = setup();
        let planner = RoutePlanner::new(&net, &fleet, &orders);
        let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        view.route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        // Planning a second copy of the same movement pattern.
        let o2 = Order::new(
            OrderId(1),
            NodeId(1),
            NodeId(2),
            4.0,
            TimePoint::ZERO,
            TimePoint::from_hours(24.0),
        )
        .unwrap();
        let mut all = orders.clone();
        all.push(o2.clone());
        let planner2 = RoutePlanner::new(planner.network(), planner.fleet(), &all);
        let out = planner2.plan(&view, &o2);
        assert!((out.current_length - 40.0).abs() < 1e-9);
        // Best plan hitchhikes: no extra distance.
        assert!(out.incremental_length().unwrap().abs() < 1e-9);
    }
}
