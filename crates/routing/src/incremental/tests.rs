use super::*;
use crate::insertion::enumerate_insertions;
use crate::planner::RoutePlanner;
use crate::route::Route;
use crate::stop::Stop;
use dpdp_net::{Node, Point, TimeDelta, TimePoint, VehicleId};

fn setup() -> (RoadNetwork, FleetConfig) {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(10.0, 0.0)),
        Node::factory(NodeId(2), Point::new(20.0, 0.0)),
        Node::factory(NodeId(3), Point::new(30.0, 0.0)),
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

fn loaded_view(orders: &[Order], net: &RoadNetwork, fleet: &FleetConfig) -> VehicleView {
    let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    for o in &orders[..orders.len() - 1] {
        if let Some(best) = best_insertion_naive(&view, o, net, fleet, orders) {
            view.route = best.candidate.route;
            view.used = true;
        }
    }
    view
}

/// The sweep agrees with full enumeration on the feasibility set and
/// the candidate lengths on a multi-order route.
#[test]
fn sweep_matches_enumeration() {
    let (net, fleet) = setup();
    let orders = vec![
        order(0, 1, 3, 3.0, 0.0, 10.0),
        order(1, 2, 3, 3.0, 0.5, 10.0),
        order(2, 3, 1, 2.0, 1.0, 12.0),
        order(3, 1, 2, 4.0, 1.5, 12.0),
    ];
    let view = loaded_view(&orders, &net, &fleet);
    assert!(view.route.len() >= 4, "route: {:?}", view.route.stops());
    let probe = orders.last().unwrap();
    let naive = enumerate_insertions(&view, probe, &net, &fleet, &orders);
    let cache = ScheduleCache::build(&view, &net, &fleet, &orders);
    assert!(cache.is_feasible());
    let mut swept = Vec::new();
    sweep_insertions(&cache, &view, probe, &net, &fleet, &orders, |c| {
        swept.push(c)
    });
    assert_eq!(swept.len(), naive.len(), "feasibility sets differ");
    for (s, c) in swept.iter().zip(&naive) {
        assert_eq!(
            (s.pickup_pos, s.delivery_pos),
            (c.pickup_pos, c.delivery_pos)
        );
        assert!(
            (s.length - c.length()).abs() < 1e-9,
            "length mismatch at ({}, {}): {} vs {}",
            s.pickup_pos,
            s.delivery_pos,
            s.length,
            c.length()
        );
    }
}

/// In-service vehicle with a non-empty onboard stack: the LIFO pruning
/// must agree with the oracle.
#[test]
fn sweep_respects_onboard_stack() {
    let (net, fleet) = setup();
    let orders = vec![
        order(0, 1, 3, 4.0, 0.0, 10.0),
        order(1, 2, 3, 4.0, 0.0, 10.0),
    ];
    let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    view.anchor_node = NodeId(2);
    view.anchor_time = TimePoint::from_hours(1.0);
    view.onboard = vec![(OrderId(0), 4.0)];
    view.route = Route::from_stops(vec![Stop::delivery(NodeId(3), OrderId(0))]);
    let probe = &orders[1];
    let naive = enumerate_insertions(&view, probe, &net, &fleet, &orders);
    let cache = ScheduleCache::build(&view, &net, &fleet, &orders);
    assert!(cache.is_feasible());
    let mut swept = Vec::new();
    sweep_insertions(&cache, &view, probe, &net, &fleet, &orders, |c| {
        swept.push(c)
    });
    assert_eq!(swept.len(), naive.len());
    for (s, c) in swept.iter().zip(&naive) {
        assert_eq!(
            (s.pickup_pos, s.delivery_pos),
            (c.pickup_pos, c.delivery_pos)
        );
    }
}

/// Both halves of the planner answer `order` on `view` exactly as the
/// naive oracle does: the plan is its winner, the score that winner's
/// positions and length.
fn assert_falls_back_to_naive(
    cache: &ScheduleCache,
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
    label: &str,
) {
    let planner = RoutePlanner::new(net, fleet, orders);
    let naive = best_insertion_naive(view, order, net, fleet, orders);
    let plan = planner.plan_cached(cache, view, order);
    assert_eq!(plan.best.as_deref(), naive.as_ref(), "{label}: plan");
    let score = planner.score_cached(cache, view, order);
    assert_eq!(score.best, naive.map(|b| b.score()), "{label}: score");
    assert_eq!(score, plan.score(), "{label}: score vs plan");
}

/// Base-route infeasibility (here: a stop referencing an unknown order)
/// marks the cache infeasible and the cached entry points fall back to
/// the naive reference.
#[test]
fn infeasible_base_falls_back_to_naive() {
    let (net, fleet) = setup();
    let orders = vec![order(0, 1, 2, 5.0, 0.0, 10.0)];
    let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    view.route = Route::from_stops(vec![Stop::pickup(NodeId(1), OrderId(7))]);
    let cache = ScheduleCache::build(&view, &net, &fleet, &orders);
    assert!(!cache.is_feasible());
    assert_falls_back_to_naive(&cache, &view, &orders[0], &net, &fleet, &orders, "base");
}

/// A probe whose order id is already routed (its stops are on the
/// base route) or already on board is outside the sweep's
/// distinct-id assumption: the cached entry points must return exactly
/// the naive verdict for it.
#[test]
fn duplicate_probe_order_falls_back_to_naive() {
    let (net, fleet) = setup();
    let orders = vec![order(0, 1, 3, 3.0, 0.0, 10.0)];
    let mut routed = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    routed.route = Route::from_stops(vec![
        Stop::pickup(NodeId(1), OrderId(0)),
        Stop::delivery(NodeId(3), OrderId(0)),
    ]);
    let mut onboard = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    onboard.anchor_node = NodeId(1);
    onboard.anchor_time = TimePoint::from_hours(0.5);
    onboard.onboard = vec![(OrderId(0), 3.0)];
    onboard.route = Route::from_stops(vec![Stop::delivery(NodeId(3), OrderId(0))]);
    for (view, label) in [(&routed, "on the route"), (&onboard, "on board")] {
        let cache = ScheduleCache::build(view, &net, &fleet, &orders);
        assert!(cache.is_feasible(), "{label}: base route must be feasible");
        assert_falls_back_to_naive(&cache, view, &orders[0], &net, &fleet, &orders, label);
    }
}

/// A probe order missing from the dense table is rejected everywhere,
/// exactly like the naive per-candidate `UnknownOrder` violation.
#[test]
fn unknown_probe_order_has_no_candidates() {
    let (net, fleet) = setup();
    let orders = vec![order(0, 1, 2, 5.0, 0.0, 10.0)];
    let ghost = order(9, 1, 2, 1.0, 0.0, 10.0);
    let view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    let cache = ScheduleCache::build(&view, &net, &fleet, &orders);
    let sweep = sweep_best(&cache, &view, &ghost, &net, &fleet, &orders);
    assert_eq!(sweep.num_feasible, 0);
    assert!(sweep.best.is_none());
    assert!(enumerate_insertions(&view, &ghost, &net, &fleet, &orders).is_empty());
}

/// The slack table encodes wait absorption: a pickup that waits for its
/// order's creation absorbs injected delay.
#[test]
fn slack_absorbs_waiting_time() {
    let (net, fleet) = setup();
    // Order 0 is created at 2 h; the vehicle arrives at its pickup long
    // before that and waits, so upstream slack exceeds the raw deadline
    // margin by the wait.
    let orders = vec![
        order(0, 2, 3, 2.0, 2.0, 3.0),
        order(1, 1, 2, 2.0, 0.0, 24.0),
    ];
    let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    view.route = Route::from_stops(vec![
        Stop::pickup(NodeId(2), OrderId(0)),
        Stop::delivery(NodeId(3), OrderId(0)),
    ]);
    let cache = ScheduleCache::build(&view, &net, &fleet, &orders);
    assert!(cache.is_feasible());
    // Delivery slack: deadline 3 h, arrival 2 h + 5 min service +
    // 10 min drive = 2:15 -> 45 min of raw slack.
    let delivery_slack = cache.slack(1);
    assert!((delivery_slack - 2700.0).abs() < 1e-6);
    // Pickup slack: the same 45 min plus the wait from 20 min (drive)
    // to 2 h = 100 min of absorption.
    let pickup_slack = cache.slack(0);
    assert!((pickup_slack - (2700.0 + 6000.0)).abs() < 1e-6);
    // And the evaluator exploits it: inserting order 1 entirely before
    // the waiting pickup is free time-wise.
    let best =
        best_insertion_cached(&cache, &view, &orders[1], &net, &fleet, &orders).expect("feasible");
    assert_eq!(
        (best.candidate.pickup_pos, best.candidate.delivery_pos),
        (0, 0)
    );
}

/// `rebuild` into a dirty cache (previously holding a different, longer
/// route) is bit-identical to a fresh `build`.
#[test]
fn rebuild_reuses_allocations_bit_identically() {
    let (net, fleet) = setup();
    let orders = vec![
        order(0, 1, 3, 3.0, 0.0, 10.0),
        order(1, 2, 3, 3.0, 0.5, 10.0),
        order(2, 3, 1, 2.0, 1.0, 12.0),
        order(3, 1, 2, 4.0, 1.5, 12.0),
    ];
    let long_view = loaded_view(&orders, &net, &fleet);
    assert!(long_view.route.len() >= 4);
    let mut short_view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    short_view.route = Route::from_stops(vec![
        Stop::pickup(NodeId(2), OrderId(1)),
        Stop::delivery(NodeId(3), OrderId(1)),
    ]);

    // Dirty the cache with the long route, then rebuild on the short.
    let mut dirty = ScheduleCache::build(&long_view, &net, &fleet, &orders);
    assert!(dirty.is_feasible());
    dirty.rebuild(&short_view, &net, &fleet, &orders);
    let fresh = ScheduleCache::build(&short_view, &net, &fleet, &orders);
    assert_eq!(dirty.is_feasible(), fresh.is_feasible());
    assert_eq!(dirty.len(), fresh.len());
    assert_eq!(dirty.base_length().to_bits(), fresh.base_length().to_bits());
    for p in 0..fresh.len() {
        assert_eq!(dirty.slack(p).to_bits(), fresh.slack(p).to_bits());
        assert_eq!(dirty.arrival[p].to_bits(), fresh.arrival[p].to_bits());
        assert_eq!(dirty.departure[p].to_bits(), fresh.departure[p].to_bits());
        assert_eq!(dirty.cum_len[p].to_bits(), fresh.cum_len[p].to_bits());
    }
    // And the sweep over the rebuilt cache matches the fresh one.
    let probe = orders.last().unwrap();
    let a = sweep_best(&dirty, &short_view, probe, &net, &fleet, &orders);
    let b = sweep_best(&fresh, &short_view, probe, &net, &fleet, &orders);
    assert_eq!(a, b);
}
