//! Allocation budget of the score/materialise split: a warmed-up
//! `RoutePlanner::score_cached` on a grown, in-service route — sweep,
//! argmin and the oracle walk over the winner — allocates nothing, and
//! `materialise` of that score allocates only what it hands back: the
//! route, its timings and the box.

use dpdp_net::{
    FleetConfig, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta, TimePoint, VehicleId,
};
use dpdp_routing::{simulate_schedule, RoutePlanner, StopAction, VehicleView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (const-initialised: reading it
    /// never allocates).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are `System.realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Six light, loose orders between five factories around a depot; the last
/// one is the probe.
fn fixture() -> (RoadNetwork, FleetConfig, Vec<Order>) {
    let at = [
        (0.0, 0.0),
        (8.0, 1.0),
        (15.0, 6.0),
        (11.0, 14.0),
        (3.0, 12.0),
        (9.0, 7.0),
    ];
    let nodes = at
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            let (id, p) = (NodeId::from_index(i), Point::new(x, y));
            if i == 0 {
                Node::depot(id, p)
            } else {
                Node::factory(id, p)
            }
        })
        .collect();
    let net = RoadNetwork::euclidean(nodes, 1.2).unwrap();
    let service = TimeDelta::from_minutes(3.0);
    let fleet = FleetConfig::homogeneous(1, &[NodeId(0)], 12.0, 300.0, 2.0, 45.0, service).unwrap();
    let legs = [(1, 3), (2, 4), (5, 1), (4, 2), (3, 5), (2, 5)];
    let orders = legs
        .iter()
        .enumerate()
        .map(|(i, &(p, d))| {
            Order::new(
                OrderId(i as u32),
                NodeId(p),
                NodeId(d),
                2.0,
                TimePoint::from_hours(8.0),
                TimePoint::from_hours(20.0),
            )
            .unwrap()
        })
        .collect();
    (net, fleet, orders)
}

/// A vehicle carrying every order but the probe, advanced past its first
/// pickup so it is in service with cargo on board.
fn in_service_view(planner: &RoutePlanner<'_>, orders: &[Order]) -> VehicleView {
    let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    view.anchor_time = TimePoint::from_hours(8.0);
    for order in &orders[..orders.len() - 1] {
        let best = planner.plan(&view, order).best.expect("loose orders fit");
        view.route = best.candidate.route;
        view.used = true;
    }
    let (net, fleet) = (planner.network(), planner.fleet());
    let schedule = simulate_schedule(&view, &view.route, net, fleet, orders).unwrap();
    let first = schedule.timings[0];
    let StopAction::Pickup(id) = first.stop.action else {
        panic!("an idle vehicle's route starts with a pickup");
    };
    view.route.pop_front();
    view.onboard.push((id, orders[id.index()].quantity));
    view.anchor_node = first.stop.node;
    view.anchor_time = first.departure;
    view
}

#[test]
fn warmed_up_score_allocates_nothing_and_materialise_only_its_result() {
    let (net, fleet, orders) = fixture();
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let view = in_service_view(&planner, &orders);
    assert_eq!(view.route.len(), 9, "five orders less one executed pickup");
    let probe = orders.last().unwrap();
    let cache = planner.cache(&view);
    assert!(cache.is_feasible());

    // The first call on this thread grows the oracle walk's stack buffer.
    let warm = planner.score_cached(&cache, &view, probe);
    assert!(warm.feasible(), "the probe must have a winner to validate");

    let (allocations, score) = allocations_of(|| planner.score_cached(&cache, &view, probe));
    assert_eq!(score, warm);
    assert_eq!(allocations, 0, "score_cached allocated");

    let (allocations, plan) = allocations_of(|| planner.materialise(&score, &view, probe));
    assert_eq!(plan.score(), score);
    assert!(
        allocations <= 3,
        "materialise allocated {allocations} times for a route, its timings and a box"
    );
}
