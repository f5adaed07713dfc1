//! Allocation budget of a decision: a warmed-up `DqnAgent::dispatch` at
//! K = 100 allocates what it returns to itself — the joint-state snapshot
//! and one Q-vector — and nothing per tape node, so the tensor churn the
//! reusable tape removed cannot creep back unnoticed.

use dpdp_net::{
    FleetConfig, Instance, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork,
    TimeDelta, TimePoint, VehicleId,
};
use dpdp_rl::{AgentConfig, DqnAgent, ModelKind, StateBuilder};
use dpdp_sim::{DispatchContext, Dispatcher, Simulator};
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

/// 100 vehicles on a four-node campus; light orders every vehicle can take.
fn instance() -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(5.0, 0.0)),
        Node::factory(NodeId(2), Point::new(10.0, 0.0)),
        Node::factory(NodeId(3), Point::new(5.0, 5.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet =
        FleetConfig::homogeneous(100, &[NodeId(0)], 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO)
            .unwrap();
    let orders = (0..12u32)
        .map(|i| {
            let (pickup, delivery) = if i % 2 == 0 { (1, 2) } else { (3, 1) };
            Order::new(
                OrderId(i),
                NodeId(pickup),
                NodeId(delivery),
                1.0,
                TimePoint::from_hours(8.0 + i as f64 * 0.25),
                TimePoint::from_hours(16.0 + i as f64 * 0.25),
            )
            .unwrap()
        })
        .collect();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

/// Forwards to the agent, recording per order what `dispatch` allocated and
/// what building the same joint state alone allocates.
struct Probe {
    agent: DqnAgent,
    builder: StateBuilder,
    /// `(dispatch, snapshot)` allocation counts, one pair per order.
    counts: Vec<(usize, usize)>,
}

impl Dispatcher for Probe {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        assert_eq!(ctx.views.len(), 100);
        let (snapshot, _) = allocations_of(|| self.builder.build(ctx));
        let (dispatch, choice) = allocations_of(|| self.agent.dispatch(ctx));
        self.counts.push((dispatch, snapshot));
        choice
    }
}

#[test]
fn warmed_up_dispatch_allocates_only_what_it_returns() {
    let config = AgentConfig::new(ModelKind::Ddgn);
    let builder = StateBuilder::new(config.dist_scale, 144, config.ne);
    let mut agent = DqnAgent::new(config, 144, None);
    agent.set_training(false);
    let mut probe = Probe {
        agent,
        builder,
        counts: Vec::with_capacity(16),
    };
    let inst = instance();
    let result = Simulator::builder(&inst).build().unwrap().run(&mut probe);
    assert_eq!(result.metrics.served, 12);

    // The first decision sizes the tape; from then on a decision costs the
    // snapshot plus the Q-vector, whatever the ~60 nodes of the tape hold.
    let (first, _) = probe.counts[0];
    for &(dispatch, snapshot) in &probe.counts[2..] {
        assert!(
            dispatch <= snapshot + 2,
            "dispatch allocated {dispatch} times, its snapshot alone {snapshot}"
        );
        assert!(
            dispatch + 20 < first,
            "the first decision pays for the tape"
        );
    }
}
