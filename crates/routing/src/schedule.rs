//! Schedule simulation: the feasibility oracle for candidate routes.
//!
//! One stop-by-stop walk tracks time (constant travel speed plus per-stop
//! service time, waiting allowed before an order's creation time), the
//! LIFO cargo stack and the load, and stops at the first [`Violation`].
//! The walk is generic over where its stops come from and what happens to
//! each stop's timing, and has two callers:
//!
//! * [`simulate_schedule`] walks a [`Route`] and **collects** every
//!   [`StopTiming`] into a full [`Schedule`] — what a route that somebody
//!   will read (a committed plan, a policy's per-order context) needs;
//! * [`simulate_insertion`] walks a base route with one pickup/delivery
//!   pair spliced in at given positions and **discards** the timings,
//!   returning only the [`ScheduleTotals`]. It never builds the spliced
//!   route and allocates nothing in steady state, which is what lets the
//!   insertion evaluator oracle-check every winner it scores without
//!   materialising it (see [`crate::incremental`]).
//!
//! Both run the identical operations in the identical order, so the
//! totals of a discarded walk are bit-identical to the `total_length`,
//! `return_time` and `max_load` of the [`Schedule`] a collecting walk over
//! the same stops returns.

use crate::constraints::Violation;
use crate::route::Route;
use crate::stop::{Stop, StopAction};
use crate::view::VehicleView;
use dpdp_net::{FleetConfig, Order, OrderId, RoadNetwork, TimePoint};
use std::cell::RefCell;

/// Timing of one stop in a simulated schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopTiming {
    /// The stop.
    pub stop: Stop,
    /// Arrival time at the stop's node.
    pub arrival: TimePoint,
    /// When service starts (arrival, or the order's creation time if the
    /// vehicle has to wait for the cargo to exist).
    pub service_start: TimePoint,
    /// When the vehicle leaves the stop.
    pub departure: TimePoint,
    /// Load on board after the stop's action.
    pub load_after: f64,
}

/// A feasible simulated schedule for a remaining route.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Per-stop timings, in visit order.
    pub timings: Vec<StopTiming>,
    /// Total driven distance from the anchor through all stops back to the
    /// depot, km.
    pub total_length: f64,
    /// Time the vehicle arrives back at its depot.
    pub return_time: TimePoint,
    /// Maximum load reached anywhere along the route.
    pub max_load: f64,
}

/// Looks up an order in a dense-by-id order slice.
fn lookup(orders: &[Order], id: OrderId) -> Result<&Order, Violation> {
    match orders.get(id.index()) {
        Some(o) if o.id == id => Ok(o),
        _ => Err(Violation::UnknownOrder(id)),
    }
}

/// What a feasible walk adds up to: a [`Schedule`] minus its per-stop
/// timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleTotals {
    /// Total driven distance from the anchor through all stops back to the
    /// depot, km.
    pub total_length: f64,
    /// Time the vehicle arrives back at its depot.
    pub return_time: TimePoint,
    /// Maximum load reached anywhere along the route.
    pub max_load: f64,
}

thread_local! {
    /// The walk's LIFO cargo stack. Per thread so that a walk needs no
    /// caller scratch and, once the buffer has grown to the deepest stack
    /// the thread has seen, no allocation either.
    static STACK: RefCell<Vec<(OrderId, f64)>> = const { RefCell::new(Vec::new()) };
}

/// The walk behind [`simulate_schedule`] and [`simulate_insertion`]: visits
/// `stops` from the view's anchor with the view's onboard stack, checks the
/// time-window, capacity and LIFO constraints (the back-to-depot constraint
/// is structural, but the stack must empty before the depot return), and
/// hands every visited stop's timing to `sink`.
fn walk(
    view: &VehicleView,
    stops: impl IntoIterator<Item = Stop>,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
    mut sink: impl FnMut(StopTiming),
) -> Result<ScheduleTotals, Violation> {
    STACK.with_borrow_mut(|stack| {
        stack.clear();
        stack.extend_from_slice(&view.onboard);
        let mut node = view.anchor_node;
        let mut time = view.anchor_time;
        let mut load: f64 = stack.iter().map(|(_, q)| q).sum();
        let mut total_length = 0.0;
        let mut max_load = load;

        for stop in stops {
            let leg = net.distance(node, stop.node);
            total_length += leg;
            time += fleet.travel_time(leg);
            node = stop.node;
            let arrival = time;

            let order = lookup(orders, stop.action.order())?;
            let (service_start, load_after) = match stop.action {
                StopAction::Pickup(id) => {
                    // Cargo only exists from the order's creation time; the
                    // vehicle may wait at the factory.
                    let start = arrival.max(order.created);
                    let new_load = load + order.quantity;
                    if new_load > fleet.capacity + 1e-9 {
                        return Err(Violation::Capacity {
                            order: id,
                            load: new_load,
                            capacity: fleet.capacity,
                        });
                    }
                    stack.push((id, order.quantity));
                    load = new_load;
                    max_load = max_load.max(load);
                    (start, load)
                }
                StopAction::Delivery(id) => {
                    if arrival > order.deadline {
                        return Err(Violation::TimeWindow {
                            order: id,
                            arrival,
                            deadline: order.deadline,
                        });
                    }
                    match stack.last() {
                        Some(&(top, qty)) if top == id => {
                            stack.pop();
                            load -= qty;
                        }
                        _ => return Err(Violation::Lifo { order: id }),
                    }
                    (arrival, load)
                }
            };

            time = service_start + fleet.service_time;
            sink(StopTiming {
                stop,
                arrival,
                service_start,
                departure: time,
                load_after,
            });
        }

        if !stack.is_empty() {
            return Err(Violation::IncompleteRoute {
                undelivered: stack.iter().map(|&(o, _)| o).collect(),
            });
        }

        let home = net.distance(node, view.depot);
        total_length += home;
        time += fleet.travel_time(home);

        Ok(ScheduleTotals {
            total_length,
            return_time: time,
            max_load,
        })
    })
}

/// Simulates `route` for the vehicle described by `view`, starting from the
/// view's anchor with the view's onboard stack. Checks the time-window,
/// capacity and LIFO constraints; the back-to-depot constraint is structural
/// but the simulator verifies the stack empties before the depot return.
///
/// `orders` must be dense by id (`orders[i].id.index() == i`), which
/// [`dpdp_net::Instance`] guarantees.
///
/// # Errors
/// Returns the first [`Violation`] encountered along the route.
pub fn simulate_schedule(
    view: &VehicleView,
    route: &Route,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
) -> Result<Schedule, Violation> {
    let mut timings = Vec::with_capacity(route.len());
    let stops = route.stops().iter().copied();
    let totals = walk(view, stops, net, fleet, orders, |t| timings.push(t))?;
    Ok(Schedule {
        timings,
        total_length: totals.total_length,
        return_time: totals.return_time,
        max_load: totals.max_load,
    })
}

/// Simulates `view`'s route with `order`'s pickup inserted at `pickup_pos`
/// and its delivery at `delivery_pos` (positions as in
/// [`Route::with_insertion`]) without building that route or keeping any
/// timing: the same walk as [`simulate_schedule`] over
/// [`Route::insertion_stops`], so the verdict and the totals are
/// bit-identical to simulating the materialised route, at no allocation
/// once the thread's stack buffer has grown.
///
/// # Errors
/// Returns the first [`Violation`] encountered along the spliced route.
///
/// # Panics
/// Panics if the positions are out of range or `delivery_pos < pickup_pos`.
pub fn simulate_insertion(
    view: &VehicleView,
    order: &Order,
    pickup_pos: usize,
    delivery_pos: usize,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
) -> Result<ScheduleTotals, Violation> {
    let stops = view.route.insertion_stops(
        Stop::pickup(order.pickup, order.id),
        pickup_pos,
        Stop::delivery(order.delivery, order.id),
        delivery_pos,
    );
    walk(view, stops, net, fleet, orders, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{Node, NodeId, Point, TimeDelta, VehicleId};

    /// Line network: depot at 0 km, factories at 10, 20, 30 km.
    fn setup() -> (RoadNetwork, FleetConfig) {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(10.0, 0.0)),
            Node::factory(NodeId(2), Point::new(20.0, 0.0)),
            Node::factory(NodeId(3), Point::new(30.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        // 60 km/h so that 10 km = 10 minutes; 5-minute service.
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
        (net, fleet)
    }

    fn order(id: u32, p: u32, d: u32, q: f64, created_h: f64, deadline_h: f64) -> Order {
        Order::new(
            OrderId(id),
            NodeId(p),
            NodeId(d),
            q,
            TimePoint::from_hours(created_h),
            TimePoint::from_hours(deadline_h),
        )
        .unwrap()
    }

    fn idle() -> VehicleView {
        VehicleView::idle_at_depot(VehicleId(0), NodeId(0))
    }

    #[test]
    fn simple_feasible_route_times_and_length() {
        let (net, fleet) = setup();
        let orders = vec![order(0, 1, 2, 5.0, 0.0, 10.0)];
        let route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        let s = simulate_schedule(&idle(), &route, &net, &fleet, &orders).unwrap();
        // 0 -> 10km -> 10min arrival; +5 service; -> 10km -> 10 min; arrival 25min.
        assert!((s.timings[0].arrival.seconds() - 600.0).abs() < 1e-6);
        assert!((s.timings[0].departure.seconds() - 900.0).abs() < 1e-6);
        assert!((s.timings[1].arrival.seconds() - 1500.0).abs() < 1e-6);
        // Length: 10 + 10 + 20(home) = 40 km.
        assert!((s.total_length - 40.0).abs() < 1e-9);
        assert!((s.max_load - 5.0).abs() < 1e-12);
        // Return: depart delivery at 1500+300=1800, 20km home = 20min -> 3000s.
        assert!((s.return_time.seconds() - 3000.0).abs() < 1e-6);
    }

    #[test]
    fn vehicle_waits_for_order_creation() {
        let (net, fleet) = setup();
        // Order created at 1h but vehicle arrives at 10 min.
        let orders = vec![order(0, 1, 2, 5.0, 1.0, 10.0)];
        let route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        let s = simulate_schedule(&idle(), &route, &net, &fleet, &orders).unwrap();
        assert!((s.timings[0].arrival.seconds() - 600.0).abs() < 1e-6);
        // Waits until 1 h, then services.
        assert!((s.timings[0].service_start.seconds() - 3600.0).abs() < 1e-6);
    }

    #[test]
    fn late_delivery_is_a_time_window_violation() {
        let (net, fleet) = setup();
        // Deadline 20 minutes but drive+service needs 25.
        let orders = vec![order(0, 1, 2, 5.0, 0.0, 20.0 / 60.0)];
        let route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        let err = simulate_schedule(&idle(), &route, &net, &fleet, &orders).unwrap_err();
        assert!(matches!(err, Violation::TimeWindow { order, .. } if order == OrderId(0)));
    }

    #[test]
    fn overload_is_a_capacity_violation() {
        let (net, fleet) = setup();
        let orders = vec![
            order(0, 1, 3, 6.0, 0.0, 10.0),
            order(1, 2, 3, 6.0, 0.0, 10.0),
        ];
        // Pick up both (6 + 6 > 10) before delivering.
        let route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::pickup(NodeId(2), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(0)),
        ]);
        let err = simulate_schedule(&idle(), &route, &net, &fleet, &orders).unwrap_err();
        assert!(matches!(err, Violation::Capacity { order, .. } if order == OrderId(1)));
    }

    #[test]
    fn interleaved_deliveries_violate_lifo() {
        let (net, fleet) = setup();
        let orders = vec![
            order(0, 1, 3, 2.0, 0.0, 10.0),
            order(1, 2, 3, 2.0, 0.0, 10.0),
        ];
        // P0 P1 D0 D1: delivering order 0 while order 1 is on top.
        let route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::pickup(NodeId(2), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(0)),
            Stop::delivery(NodeId(3), OrderId(1)),
        ]);
        let err = simulate_schedule(&idle(), &route, &net, &fleet, &orders).unwrap_err();
        assert!(matches!(err, Violation::Lifo { order } if order == OrderId(0)));

        // Nested P0 P1 D1 D0 is fine.
        let route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::pickup(NodeId(2), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(0)),
        ]);
        assert!(simulate_schedule(&idle(), &route, &net, &fleet, &orders).is_ok());
    }

    #[test]
    fn delivering_unknown_or_unloaded_order_fails() {
        let (net, fleet) = setup();
        let orders = vec![order(0, 1, 2, 2.0, 0.0, 10.0)];
        // Deliver without pickup: stack empty -> LIFO violation.
        let route = Route::from_stops(vec![Stop::delivery(NodeId(2), OrderId(0))]);
        let err = simulate_schedule(&idle(), &route, &net, &fleet, &orders).unwrap_err();
        assert!(matches!(err, Violation::Lifo { .. }));
        // Reference to an order that does not exist.
        let route = Route::from_stops(vec![Stop::pickup(NodeId(1), OrderId(9))]);
        let err = simulate_schedule(&idle(), &route, &net, &fleet, &orders).unwrap_err();
        assert!(matches!(err, Violation::UnknownOrder(OrderId(9))));
    }

    #[test]
    fn pickup_without_delivery_is_incomplete() {
        let (net, fleet) = setup();
        let orders = vec![order(0, 1, 2, 2.0, 0.0, 10.0)];
        let route = Route::from_stops(vec![Stop::pickup(NodeId(1), OrderId(0))]);
        let err = simulate_schedule(&idle(), &route, &net, &fleet, &orders).unwrap_err();
        assert!(
            matches!(err, Violation::IncompleteRoute { ref undelivered } if undelivered == &[OrderId(0)])
        );
    }

    #[test]
    fn onboard_stack_respected_for_in_service_vehicle() {
        let (net, fleet) = setup();
        let orders = vec![
            order(0, 1, 3, 4.0, 0.0, 10.0),
            order(1, 2, 3, 4.0, 0.0, 10.0),
        ];
        // Vehicle already carries order 0, anchored at node 2.
        let mut view = idle();
        view.anchor_node = NodeId(2);
        view.anchor_time = TimePoint::from_hours(1.0);
        view.onboard = vec![(OrderId(0), 4.0)];
        // Must deliver 1 before 0 if it picks up 1 (LIFO).
        let route = Route::from_stops(vec![
            Stop::pickup(NodeId(2), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(0)),
        ]);
        let s = simulate_schedule(&view, &route, &net, &fleet, &orders).unwrap();
        assert!((s.max_load - 8.0).abs() < 1e-12);
        // Delivering 0 first violates LIFO because 1 would be loaded on top…
        let bad = Route::from_stops(vec![
            Stop::pickup(NodeId(2), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(0)),
            Stop::delivery(NodeId(3), OrderId(1)),
        ]);
        assert!(simulate_schedule(&view, &bad, &net, &fleet, &orders).is_err());
    }

    #[test]
    fn empty_route_drives_home_only() {
        let (net, fleet) = setup();
        let mut view = idle();
        view.anchor_node = NodeId(2);
        view.anchor_time = TimePoint::from_hours(2.0);
        let s = simulate_schedule(&view, &Route::empty(), &net, &fleet, &[]).unwrap();
        assert!((s.total_length - 20.0).abs() < 1e-9);
        assert!(s.timings.is_empty());
        assert!((s.return_time.seconds() - (7200.0 + 1200.0)).abs() < 1e-6);
    }
}
