//! Runtime state of one vehicle during an episode, beside its view.

use dpdp_net::{FleetConfig, Order, OrderId, RoadNetwork, TimePoint};
use dpdp_routing::{Route, StopAction, VehicleView};

/// What the episode keeps about a vehicle besides its [`VehicleView`]: the
/// distance already driven, the orders it holds, whether it is broken down.
///
/// The engine owns the fleet as two vehicle-indexed columns, the views and
/// these states, and moves both into each epoch's
/// [`DecisionBatch`](crate::batch::DecisionBatch) and back, so the view a
/// policy reads is the one the commit mutates — there is no second copy to
/// keep in sync. Every method that changes the vehicle takes the view it
/// acts on.
///
/// The *anchor* invariant: `view.anchor_node` / `view.anchor_time` always
/// describe the next point in space-time where the vehicle is free to change
/// plans. While a leg is being driven the anchor is that leg's destination —
/// this is how the paper's "no interference with in-service vehicles" rule is
/// enforced: route edits only touch stops after the anchor.
#[derive(Debug, Clone, Default)]
pub struct VehicleState {
    /// Kilometres of already-committed driving (executed legs).
    pub traveled: f64,
    /// Number of orders this vehicle has accepted (and not had revoked by
    /// a cancellation or breakdown).
    pub orders_accepted: usize,
    /// Whether the vehicle is currently broken down (see
    /// [`VehicleState::break_down`]). Broken vehicles are masked out of
    /// every [`DecisionBatch`](crate::batch::DecisionBatch) until a
    /// recovery event clears the flag.
    pub broken: bool,
}

/// What a [`VehicleState::break_down`] call swept off the dying vehicle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakdownOutcome {
    /// Accepted orders whose pickup had not been driven yet: their stops
    /// were removed and they can be re-dispatched to another vehicle.
    pub stranded: Vec<OrderId>,
    /// Orders already picked up but not delivered: the cargo is stuck on
    /// the dead vehicle and the order is unservable.
    pub lost: Vec<OrderId>,
}

/// A fleet at time zero: every vehicle idle at its depot, as the two
/// columns the engine owns (views, states), dense by vehicle id.
pub(crate) fn fresh_fleet(fleet: &FleetConfig) -> (Vec<VehicleView>, Vec<VehicleState>) {
    let views = fleet
        .vehicles
        .iter()
        .map(|v| VehicleView::idle_at_depot(v.id, v.depot))
        .collect();
    (views, vec![VehicleState::default(); fleet.vehicles.len()])
}

impl VehicleState {
    /// Advances the vehicle to wall-clock time `now`, committing every route
    /// leg of `view` whose departure has already happened.
    ///
    /// A vehicle departs toward its next stop the moment it becomes free, so
    /// a leg is committed (distance accrued, cargo stack updated, anchor
    /// moved to the leg destination) as soon as `anchor_time <= now`. After
    /// the loop, an idle vehicle's anchor time is brought forward to `now`.
    pub fn advance_to(
        &mut self,
        view: &mut VehicleView,
        now: TimePoint,
        net: &RoadNetwork,
        fleet: &FleetConfig,
        orders: &[Order],
    ) {
        loop {
            if view.route.is_empty() {
                break;
            }
            if view.anchor_time > now {
                // Still executing the previous leg; destination is locked.
                break;
            }
            let stop = view.route.pop_front().expect("route checked non-empty");
            let leg = net.distance(view.anchor_node, stop.node);
            self.traveled += leg;
            let arrival = view.anchor_time + fleet.travel_time(leg);
            let order = &orders[stop.action.order().index()];
            let service_start = match stop.action {
                StopAction::Pickup(id) => {
                    view.onboard.push((id, order.quantity));
                    arrival.max(order.created)
                }
                StopAction::Delivery(id) => {
                    debug_assert_eq!(
                        view.onboard.last().map(|&(o, _)| o),
                        Some(id),
                        "simulator executed a LIFO-violating route"
                    );
                    view.onboard.pop();
                    arrival
                }
            };
            view.anchor_node = stop.node;
            view.anchor_time = service_start + fleet.service_time;
        }
        if view.route.is_empty() && view.anchor_time < now {
            view.anchor_time = now;
        }
    }

    /// Commits an assignment: replaces `view`'s remaining route and marks
    /// the vehicle used.
    pub fn accept(&mut self, view: &mut VehicleView, route: Route) {
        view.route = route;
        view.used = true;
        self.orders_accepted += 1;
    }

    /// Removes a cancelled order's remaining stops from `view`'s route
    /// (both pickup and delivery; the caller must have advanced the vehicle
    /// to the cancellation instant first so "remaining" is wall-clock
    /// honest). Returns `true` when the order was actually still on the
    /// route, in which case the acceptance is also un-counted.
    pub fn cancel_order(&mut self, view: &mut VehicleView, order: OrderId) -> bool {
        let removed = view.route.remove_order(order) > 0;
        if removed {
            self.orders_accepted = self.orders_accepted.saturating_sub(1);
        }
        removed
    }

    /// Breaks the vehicle down at its current anchor (the caller advances
    /// to the breakdown instant first): `view`'s remaining route is
    /// stripped, undriven pickups come back as re-dispatchable *stranded*
    /// orders, onboard cargo is written off as *lost*, and the vehicle is
    /// masked out of dispatch until [`VehicleState::recover`]. Executed
    /// kilometres and the used flag are kept — the truck did drive.
    pub fn break_down(&mut self, view: &mut VehicleView) -> BreakdownOutcome {
        let stranded = view.route.pending_pickups();
        let lost: Vec<OrderId> = view.onboard.iter().map(|&(o, _)| o).collect();
        view.route = Route::empty();
        view.onboard.clear();
        self.orders_accepted = self
            .orders_accepted
            .saturating_sub(stranded.len() + lost.len());
        self.broken = true;
        BreakdownOutcome { stranded, lost }
    }

    /// Clears the breakdown flag: the vehicle is available again at its
    /// view's current anchor, with an empty route.
    pub fn recover(&mut self) {
        self.broken = false;
    }

    /// Total travel length if the vehicle finished `view`'s remaining route
    /// now: executed kilometres plus remaining route (anchor through stops,
    /// home to depot). Unused vehicles report 0.
    pub fn final_travel_length(&self, view: &VehicleView, net: &RoadNetwork) -> f64 {
        if !view.used {
            return 0.0;
        }
        self.traveled + view.route.length(net, view.anchor_node, view.depot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{Node, NodeId, OrderId, Point, TimeDelta, VehicleId};
    use dpdp_routing::Stop;

    fn setup() -> (RoadNetwork, FleetConfig, Vec<Order>) {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(10.0, 0.0)),
            Node::factory(NodeId(2), Point::new(20.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet = FleetConfig::homogeneous(
            1,
            &[NodeId(0)],
            10.0,
            500.0,
            2.0,
            60.0,
            TimeDelta::from_minutes(5.0),
        )
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

    fn vehicle(fleet: &FleetConfig) -> (VehicleView, VehicleState) {
        let config = fleet.vehicle(VehicleId(0));
        let view = VehicleView::idle_at_depot(config.id, config.depot);
        (view, VehicleState::default())
    }

    #[test]
    fn advance_commits_departed_legs_only() {
        let (net, fleet, orders) = setup();
        let (mut v, mut s) = vehicle(&fleet);
        s.accept(
            &mut v,
            dpdp_routing::Route::from_stops(vec![
                Stop::pickup(NodeId(1), OrderId(0)),
                Stop::delivery(NodeId(2), OrderId(0)),
            ]),
        );
        // At t = 0 the vehicle departs immediately: first leg is committed,
        // anchor moves to node 1 at (10 min travel + 5 min service) = 15 min.
        s.advance_to(&mut v, TimePoint::ZERO, &net, &fleet, &orders);
        assert_eq!(v.anchor_node, NodeId(1));
        assert!((v.anchor_time.seconds() - 900.0).abs() < 1e-6);
        assert_eq!(v.route.len(), 1);
        assert!((s.traveled - 10.0).abs() < 1e-12);
        assert_eq!(v.onboard.len(), 1);

        // At 10 minutes, still servicing at node 1; nothing more commits.
        s.advance_to(
            &mut v,
            TimePoint::from_seconds(600.0),
            &net,
            &fleet,
            &orders,
        );
        assert_eq!(v.route.len(), 1);

        // At 15 minutes it departs the delivery leg.
        s.advance_to(
            &mut v,
            TimePoint::from_seconds(900.0),
            &net,
            &fleet,
            &orders,
        );
        assert_eq!(v.anchor_node, NodeId(2));
        assert!(v.route.is_empty());
        assert!(v.onboard.is_empty());
        assert!((s.traveled - 20.0).abs() < 1e-12);
    }

    #[test]
    fn idle_vehicle_anchor_time_tracks_now() {
        let (net, fleet, orders) = setup();
        let (mut v, mut s) = vehicle(&fleet);
        s.advance_to(&mut v, TimePoint::from_hours(3.0), &net, &fleet, &orders);
        assert_eq!(v.anchor_time, TimePoint::from_hours(3.0));
        assert_eq!(v.anchor_node, NodeId(0));
        assert!(!v.used);
    }

    #[test]
    fn final_travel_length_includes_remaining_and_home() {
        let (net, fleet, orders) = setup();
        let (mut v, mut s) = vehicle(&fleet);
        assert_eq!(s.final_travel_length(&v, &net), 0.0);
        s.accept(
            &mut v,
            dpdp_routing::Route::from_stops(vec![
                Stop::pickup(NodeId(1), OrderId(0)),
                Stop::delivery(NodeId(2), OrderId(0)),
            ]),
        );
        // Nothing executed yet: full route from depot = 10 + 10 + 20 = 40.
        assert!((s.final_travel_length(&v, &net) - 40.0).abs() < 1e-9);
        // After full execution the remaining part is just home from node 2.
        s.advance_to(&mut v, TimePoint::from_hours(1.0), &net, &fleet, &orders);
        assert!((s.final_travel_length(&v, &net) - 40.0).abs() < 1e-9);
        assert!((s.traveled - 20.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_strips_route_and_classifies_orders() {
        let (net, fleet, _) = setup();
        // Two orders: one will be picked up before the breakdown, one not.
        let orders = vec![
            Order::new(
                OrderId(0),
                NodeId(1),
                NodeId(2),
                2.0,
                TimePoint::ZERO,
                TimePoint::from_hours(24.0),
            )
            .unwrap(),
            Order::new(
                OrderId(1),
                NodeId(2),
                NodeId(1),
                2.0,
                TimePoint::ZERO,
                TimePoint::from_hours(24.0),
            )
            .unwrap(),
        ];
        let (mut v, mut s) = vehicle(&fleet);
        s.accept(
            &mut v,
            dpdp_routing::Route::from_stops(vec![
                Stop::pickup(NodeId(1), OrderId(0)),
                Stop::delivery(NodeId(2), OrderId(0)),
                Stop::pickup(NodeId(2), OrderId(1)),
                Stop::delivery(NodeId(1), OrderId(1)),
            ]),
        );
        s.orders_accepted = 2;
        // At t = 0 the first leg departs: order 0 is onboard, order 1 not.
        s.advance_to(&mut v, TimePoint::ZERO, &net, &fleet, &orders);
        assert_eq!(v.onboard.len(), 1);
        let outcome = s.break_down(&mut v);
        assert_eq!(outcome.lost, vec![OrderId(0)]);
        assert_eq!(outcome.stranded, vec![OrderId(1)]);
        assert!(s.broken);
        assert!(v.route.is_empty());
        assert!(v.onboard.is_empty());
        assert_eq!(s.orders_accepted, 0);
        assert!(v.used, "the truck drove; it stays used");
        assert!(s.traveled > 0.0);
        s.recover();
        assert!(!s.broken);
    }

    #[test]
    fn cancel_order_only_touches_undriven_stops() {
        let (net, fleet, orders) = setup();
        let (mut v, mut s) = vehicle(&fleet);
        s.accept(
            &mut v,
            dpdp_routing::Route::from_stops(vec![
                Stop::pickup(NodeId(1), OrderId(0)),
                Stop::delivery(NodeId(2), OrderId(0)),
            ]),
        );
        assert!(s.cancel_order(&mut v, OrderId(0)));
        assert!(v.route.is_empty());
        assert_eq!(s.orders_accepted, 0);
        // Cancelling an order that is not on the route is a no-op.
        assert!(!s.cancel_order(&mut v, OrderId(0)));
        let _ = (&net, &orders);
    }

    #[test]
    fn waiting_for_order_creation_delays_anchor() {
        let (net, fleet, _) = setup();
        let orders = vec![Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(2),
            5.0,
            TimePoint::from_hours(2.0),
            TimePoint::from_hours(24.0),
        )
        .unwrap()];
        let (mut v, mut s) = vehicle(&fleet);
        s.accept(
            &mut v,
            dpdp_routing::Route::from_stops(vec![
                Stop::pickup(NodeId(1), OrderId(0)),
                Stop::delivery(NodeId(2), OrderId(0)),
            ]),
        );
        s.advance_to(&mut v, TimePoint::ZERO, &net, &fleet, &orders);
        // Arrives at 10 min but waits until 2 h for the cargo; departs 2h05.
        assert_eq!(v.anchor_node, NodeId(1));
        assert!((v.anchor_time.seconds() - (7200.0 + 300.0)).abs() < 1e-6);
    }
}
