//! Allocation budgets. Of a training step: none of its own once warm (the
//! last test). Of a decision: a warmed-up `DqnAgent::dispatch` at
//! K = 100 or 200 allocates what it returns to itself — the joint-state snapshot
//! and one Q-vector — and nothing per tape node or per class of the
//! partition, so the tensor churn the reusable tape removed cannot creep
//! back unnoticed. The snapshot itself costs a fixed number of
//! allocations: nothing per vehicle and nothing per occupied node. The tape holds one row per class of interchangeable
//! vehicles, so "warmed up" means it has seen a decision with at least as
//! many classes: its buffers grow when a joint state sets a new high, and
//! at no other time.

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

/// `vehicles` vehicles on a five-node campus, parked round-robin at `depots`;
/// light orders every vehicle can take. The fleet starts as one class of
/// idle twins per depot and splits as vehicles are put to use.
fn instance(vehicles: usize, depots: &[NodeId]) -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(5.0, 0.0)),
        Node::factory(NodeId(2), Point::new(10.0, 0.0)),
        Node::factory(NodeId(3), Point::new(5.0, 5.0)),
        Node::depot(NodeId(4), Point::new(12.0, 4.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet = FleetConfig::homogeneous(vehicles, depots, 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO)
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

/// What one decision allocated, and how many rows its forward held.
struct Decision {
    dispatch: usize,
    /// Building the same joint state alone.
    snapshot: usize,
    classes: u64,
}

/// Forwards to the agent, recording every decision.
struct Probe {
    vehicles: usize,
    agent: DqnAgent,
    builder: StateBuilder,
    decisions: Vec<Decision>,
}

impl Dispatcher for Probe {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        assert_eq!(ctx.views.len(), self.vehicles);
        let (snapshot, _) = allocations_of(|| self.builder.build(ctx));
        let before = self.agent.forward_stats().evaluated;
        let (dispatch, choice) = allocations_of(|| self.agent.dispatch(ctx));
        self.decisions.push(Decision {
            dispatch,
            snapshot,
            classes: self.agent.forward_stats().evaluated - before,
        });
        choice
    }
}

#[test]
fn warmed_up_dispatch_allocates_only_what_it_returns() {
    // Allocations of every snapshot built, over every fleet below.
    let mut snapshots = Vec::new();
    let fleets = [100, 200].map(|k| [(k, &[NodeId(0)][..]), (k, &[NodeId(0), NodeId(4)])]);
    for (vehicles, depots) in fleets.into_iter().flatten() {
        let config = AgentConfig::new(ModelKind::Ddgn);
        let builder = StateBuilder::new(config.dist_scale, 144, config.ne);
        let mut agent = DqnAgent::new(config, 144, None);
        agent.set_training(false);
        let mut probe = Probe {
            vehicles,
            agent,
            builder,
            decisions: Vec::with_capacity(32),
        };
        let inst = instance(vehicles, depots);
        let sim = Simulator::builder(&inst).build().unwrap();
        for _ in 0..2 {
            assert_eq!(sim.run(&mut probe).metrics.served, 12);
        }
        let (cold, warm) = probe.decisions.split_at(12);

        // The first decision sizes the tape and the partition's scratch.
        // After it the tape grows only under a joint state with more
        // classes than any before it; every other decision costs the
        // snapshot plus the Q-vector, whatever the ~60 tape nodes hold.
        let mut high = 0;
        for (at, d) in cold.iter().enumerate() {
            if at > 0 && d.classes <= high {
                assert!(
                    d.dispatch <= d.snapshot + 2,
                    "decision {at} ({} classes, {high} seen) allocated {} times, \
                     its snapshot alone {}",
                    d.classes,
                    d.dispatch,
                    d.snapshot
                );
            }
            high = high.max(d.classes);
        }
        assert!(
            (2..50).contains(&high),
            "the fleet should split into a few classes, not {high}"
        );

        // Evaluation repeats its decisions, so the second episode meets
        // nothing larger than the first did: the budget holds throughout.
        for (at, d) in warm.iter().enumerate() {
            assert_eq!(d.classes, cold[at].classes);
            assert!(
                d.dispatch <= d.snapshot + 2,
                "warm decision {at} allocated {} times, its snapshot alone {}",
                d.dispatch,
                d.snapshot
            );
            assert!(
                d.dispatch + 20 < cold[0].dispatch,
                "the first decision pays for the tape"
            );
        }
        snapshots.extend(probe.decisions.iter().map(|d| d.snapshot));
    }
    // The vehicles sit on one or two depots and up to three more nodes as
    // they are put to use: the count moves with neither K nor the number
    // of occupied nodes.
    assert_eq!(snapshots.len(), 4 * 24);
    assert!(
        snapshots.iter().all(|&n| n == snapshots[0]),
        "snapshot allocations vary: {snapshots:?}"
    );
}

/// Forwards to a training agent, recording what each `end_episode` — the
/// episode's training steps — allocated.
struct TrainProbe {
    agent: DqnAgent,
    episodes: Vec<usize>,
}

impl Dispatcher for TrainProbe {
    fn begin_episode(&mut self, instance: &Instance) {
        self.agent.begin_episode(instance);
    }

    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        self.agent.dispatch(ctx)
    }

    fn end_episode(&mut self) {
        let (allocations, ()) = allocations_of(|| self.agent.end_episode());
        self.episodes.push(allocations);
    }
}

/// Training on a replayed transition records the network on the agent's
/// tape and partition scratch and nothing else: once those have met
/// fields as large as the day's, an episode's training steps allocate
/// nothing — whatever the fleet size and the minibatch size — except in
/// the episode after a target sync, whose first optimizer step un-shares
/// each parameter tensor from the target network it was synced to.
#[test]
fn warmed_up_training_allocates_nothing_per_sample() {
    for (vehicles, batch_size) in [(50, 8), (100, 8), (100, 16)] {
        let mut config = AgentConfig::new(ModelKind::Ddgn);
        config.batch_size = batch_size;
        // Widths change no count, only how long the test takes.
        (config.hidden, config.heads) = (8, 2);
        let sync = config.target_sync_period;
        let mut probe = TrainProbe {
            agent: DqnAgent::new(config, 144, None),
            episodes: Vec::with_capacity(32),
        };
        let inst = instance(vehicles, &[NodeId(0), NodeId(4)]);
        let sim = Simulator::builder(&inst).build().unwrap();
        for _ in 0..30 {
            assert_eq!(sim.run(&mut probe).metrics.served, 12);
        }
        // A copied tensor is two allocations: its buffer and its `Arc`.
        let parameters = probe.agent.params().len();
        assert_eq!(parameters, 18);
        for (episode, &allocations) in probe.episodes.iter().enumerate().skip(20) {
            let copied = if episode % sync == 0 {
                2 * parameters
            } else {
                0
            };
            assert_eq!(
                allocations, copied,
                "K = {vehicles}, minibatches of {batch_size}: episode {episode} \
                 allocated {allocations} times while training"
            );
        }
        // Non-vacuous: every episode trained, on fields well under the fleet.
        let stats = probe.agent.train_stats();
        assert_eq!(stats.rows, stats.samples * vehicles as u64);
        assert!(stats.samples >= 30 * 8 * 8 && 2 * stats.field_rows <= stats.rows);
    }
}
