//! Allocation budgets of a decision epoch.
//!
//! A commit delta on a sharded batch: a warmed-up acceptance allocates for
//! its commit record — the one materialised plan, the pre-commit view, the
//! adopted route — and nothing per delta cell, evaluated or pruned. A cell
//! is a `Copy` score: rescoring one touches no allocator, and pruned cells
//! stay implicit (they used to be written into every still-undecided row;
//! evaluated ones used to own a boxed route and schedule each). The
//! accepting vehicle's view changes in place, and its schedule cache is
//! rebuilt in its own slot of the episode's arena, which allocates only
//! the first time that vehicle holds a route that long.
//!
//! A commit delta on a vehicle that was an idle twin: it leaves its group
//! for a column of its own, so its delta cells are inserted into rows that
//! held only the group's cell. On top of the commit record it allocates
//! only when a row (or the column index) outgrows its capacity.
//!
//! The batch build over a fleet of idle twins: grouping the twins into the
//! column map, the column index and the rows, one cell per `(order,
//! group)`, live in the episode's epoch arena or are moved, not copied, so
//! a warmed-up build allocates no more than it did when every parked
//! vehicle was scored and stored on its own.
//!
//! The batch build over a busy fleet, where every vehicle has stops to
//! drive and cargo on board: the fleet moves into the batch and back, no
//! view is copied, so a warmed-up build allocates the same at `K` vehicles
//! and at `2K`.

use dpdp_net::{
    FleetConfig, Instance, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork,
    TimeDelta, TimePoint, VehicleId,
};
use dpdp_sim::{
    BufferingMode, Decision, DecisionBatch, Dispatcher, EpochInfo, FleetRecord, MetricsOptions,
    ShardConfig, SimObserver, Simulator,
};
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

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

fn allocations_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = allocations();
    let result = f();
    (allocations() - before, result)
}

/// What one warmed-up acceptance of this fixture allocates, however many
/// cells it rescores (with a boxed route per evaluated cell it was
/// `7 + 5 * evaluated`; 7 while the commit copied the vehicle's new view
/// into the batch's view mirror).
const ACCEPTANCE_ALLOCATIONS: usize = 4;
/// What one warmed-up acceptance by a member of an idle-twin group
/// allocates at most here: the commit record plus the growth of the rows
/// its split column inserts into (measured: 5, 4, 6, 4, 4 — the first and
/// third grow rows; 9 while the commit copied the vehicle's new view).
const SPLIT_ACCEPTANCE_ALLOCATIONS: usize = 6;
const TOWN_A_ORDERS: usize = 6;
const TOWN_B_ORDERS: usize = 40;
/// Epochs of the acceptance fixture: the first warms up, the second is
/// measured.
const ACCEPTANCE_EPOCHS: usize = 2;

/// Two towns 300 km apart. Six vehicles idle in town A, each at a depot of
/// its own or, with `twins`, all at one (one idle-twin group). Two epochs
/// two hours apart, each the same: six loose town-A orders head it, forty
/// town-B orders with ninety minutes of slack follow (no vehicle can reach
/// them: every one of their cells is pruned, before and after each
/// commit). Every vehicle has long finished its first order when the
/// second epoch opens, so it is idle again — with the same neighbours, and
/// in the same idle-twin group.
fn instance(twins: bool) -> Instance {
    let mut nodes: Vec<Node> = (0..TOWN_A_ORDERS)
        .map(|d| Node::depot(NodeId::from_index(d), Point::new(0.0, d as f64)))
        .collect();
    let factories = [(4.0, 0.0), (0.0, 5.0), (300.0, 0.0), (304.0, 3.0)];
    for (x, y) in factories {
        nodes.push(Node::factory(
            NodeId::from_index(nodes.len()),
            Point::new(x, y),
        ));
    }
    let depots: Vec<NodeId> = (0..if twins { 1 } else { TOWN_A_ORDERS })
        .map(NodeId::from_index)
        .collect();
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet = FleetConfig::homogeneous(
        TOWN_A_ORDERS,
        &depots,
        10.0,
        500.0,
        2.0,
        60.0,
        TimeDelta::from_minutes(2.0),
    )
    .unwrap();
    let factory = |f: usize| TOWN_A_ORDERS as u32 + f as u32;
    let per_epoch = TOWN_A_ORDERS + TOWN_B_ORDERS;
    let orders = (0..ACCEPTANCE_EPOCHS * per_epoch)
        .map(|id| {
            let (epoch, i) = (id / per_epoch, id % per_epoch);
            let created = TimePoint::from_hours(8.5 + 2.0 * epoch as f64);
            let (pickup, delivery, slack_h) = if i < TOWN_A_ORDERS {
                (factory(0), factory(1), 12.0)
            } else {
                (factory(2), factory(3), 1.5)
            };
            Order::new(
                OrderId(id as u32),
                NodeId(pickup),
                NodeId(delivery),
                1.0,
                created,
                created + TimeDelta::from_hours(slack_h),
            )
            .unwrap()
        })
        .collect();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

/// Gives town-A order `i` of each epoch to vehicle `i` (a fresh idle vehicle each time,
/// so every acceptance replans a column no row stores yet) and records,
/// per acceptance, what `resolve` allocated and how many delta cells it
/// evaluated.
#[derive(Default)]
struct Probe {
    /// `(allocations, evaluated delta cells, pruned delta cells)`.
    acceptances: Vec<(usize, usize, usize)>,
}

impl Dispatcher for Probe {
    fn dispatch(&mut self, _ctx: &dpdp_sim::DispatchContext<'_>) -> Option<VehicleId> {
        unreachable!("batch-native")
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        assert_eq!(batch.len(), TOWN_A_ORDERS + TOWN_B_ORDERS);
        assert_eq!(batch.num_shards(), 2);
        self.acceptances.reserve(TOWN_A_ORDERS);
        (0..batch.len())
            .map(|i| {
                let choice = (i < TOWN_A_ORDERS).then(|| VehicleId::from_index(i));
                let before = batch.shard_stats();
                let (allocations, decision) = allocations_of(|| batch.resolve(i, choice));
                if decision.is_assigned() {
                    let after = batch.shard_stats();
                    self.acceptances.push((
                        allocations,
                        after.evaluated - before.evaluated,
                        after.pruned - before.pruned,
                    ));
                }
                decision
            })
            .collect()
    }
}

/// The twelve acceptances of the fixture's two epochs.
fn acceptances(twins: bool) -> Vec<(usize, usize, usize)> {
    let inst = instance(twins);
    let mut probe = Probe::default();
    let result = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)))
        .sharding(ShardConfig::flat(2).unwrap().escalation(0))
        .build()
        .unwrap()
        .run(&mut probe);
    assert_eq!(result.metrics.served, ACCEPTANCE_EPOCHS * TOWN_A_ORDERS);
    assert_eq!(probe.acceptances.len(), ACCEPTANCE_EPOCHS * TOWN_A_ORDERS);
    let evaluated: Vec<usize> = probe.acceptances.iter().map(|a| a.1).collect();
    assert_eq!(
        evaluated,
        [5, 4, 3, 2, 1, 0].repeat(ACCEPTANCE_EPOCHS),
        "one delta cell per remaining town-A order"
    );
    probe.acceptances
}

#[test]
fn warmed_up_acceptance_allocates_only_its_commit_record() {
    let acceptances = acceptances(false);

    // The first epoch sizes each vehicle's cache slot for a route of two
    // stops, and the oracle walk's stack. In the second an acceptance
    // costs its commit record — the accepted cell's route, timings and
    // box, and the adopted route (the pre-commit view of an idle vehicle
    // holds nothing on the heap) — whether it goes on to rescore five
    // delta cells or none; the forty pruned town-B cells cost nothing
    // either.
    for &(allocations, evaluated, pruned) in &acceptances[TOWN_A_ORDERS..] {
        assert_eq!(pruned, TOWN_B_ORDERS);
        assert!(
            allocations <= ACCEPTANCE_ALLOCATIONS,
            "acceptance allocated {allocations} times for {evaluated} evaluated \
             and {pruned} pruned delta cells"
        );
    }
}

/// The same epochs over six idle twins: every acceptance is a member
/// leaving the group, and each of its evaluated delta cells is inserted
/// into a row that stored only the group's cell until then. The first
/// acceptance of an epoch also starts the column index's chain of inserted
/// cells, which the batch does not keep across epochs.
#[test]
fn warmed_up_acceptance_by_a_grouped_member_allocates_its_record_and_row_growth() {
    let acceptances = acceptances(true);
    for &(allocations, evaluated, pruned) in &acceptances[TOWN_A_ORDERS + 1..] {
        assert_eq!(pruned, TOWN_B_ORDERS);
        assert!(
            allocations <= SPLIT_ACCEPTANCE_ALLOCATIONS,
            "acceptance allocated {allocations} times inserting {evaluated} delta cells"
        );
    }
}

const TWIN_FLEET: usize = 24;
const EPOCHS: usize = 3;
const ORDERS_PER_EPOCH: usize = 10;

/// Two towns 300 km apart with a depot each and twelve vehicles per depot;
/// three hourly epochs of ten ninety-minute orders, five per town. Nobody
/// is ever assigned, so every epoch sees the same two groups of twelve
/// idle twins.
fn twin_instance() -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::depot(NodeId(1), Point::new(300.0, 0.0)),
        Node::factory(NodeId(2), Point::new(4.0, 0.0)),
        Node::factory(NodeId(3), Point::new(0.0, 5.0)),
        Node::factory(NodeId(4), Point::new(304.0, 3.0)),
        Node::factory(NodeId(5), Point::new(300.0, 4.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet = FleetConfig::homogeneous(
        TWIN_FLEET,
        &[NodeId(0), NodeId(1)],
        10.0,
        500.0,
        2.0,
        60.0,
        TimeDelta::from_minutes(2.0),
    )
    .unwrap();
    let orders = (0..EPOCHS * ORDERS_PER_EPOCH)
        .map(|i| {
            let created = TimePoint::from_hours(8.5 + (i / ORDERS_PER_EPOCH) as f64);
            let (pickup, delivery) = if i % 2 == 0 { (2, 3) } else { (4, 5) };
            Order::new(
                OrderId(i as u32),
                NodeId(pickup),
                NodeId(delivery),
                1.0,
                created,
                created + TimeDelta::from_hours(1.5),
            )
            .unwrap()
        })
        .collect();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

thread_local! {
    /// The allocation count when the previous epoch's dispatch returned.
    static DISPATCH_END: Cell<usize> = const { Cell::new(0) };
}

/// Declines every order, so the fleet stays parked.
struct DeclineAll;

impl Dispatcher for DeclineAll {
    fn dispatch(&mut self, _ctx: &dpdp_sim::DispatchContext<'_>) -> Option<VehicleId> {
        unreachable!("batch-native")
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        let decisions = (0..batch.len()).map(|i| batch.resolve(i, None)).collect();
        DISPATCH_END.with(|mark| mark.set(allocations()));
        decisions
    }
}

/// Per epoch, what was allocated between the previous dispatch returning
/// and this epoch's batch being announced: the engine's bookkeeping for
/// the epoch boundary plus `DecisionBatch::new`.
#[derive(Default)]
struct BuildProbe {
    builds: Vec<(usize, usize)>,
    /// Per epoch, the vehicles it left with both stops and cargo.
    busy: Vec<usize>,
}

impl SimObserver for BuildProbe {
    fn on_epoch(&mut self, epoch: &EpochInfo) {
        let since = allocations() - DISPATCH_END.with(Cell::get);
        self.builds.push((since, epoch.shards.shared));
    }

    fn on_fleet(&mut self, fleet: &FleetRecord<'_>) {
        let busy = fleet.views.iter();
        let busy = busy.filter(|v| !v.route.is_empty() && !v.onboard.is_empty());
        self.busy.push(busy.count());
    }
}

/// Epoch-boundary allocations of the second and third epoch, flat and
/// under two shards, measured with this file's probe on the commit before
/// idle twins were grouped (PR 19): the ceiling the grouped build keeps.
const FLAT_BUILD_ALLOCATIONS: usize = 19;
const SHARDED_BUILD_ALLOCATIONS: usize = 37;

#[test]
fn warmed_up_batch_build_over_idle_twins_allocates_no_more_than_ungrouped() {
    let inst = twin_instance();
    for (shards, ceiling) in [(1, FLAT_BUILD_ALLOCATIONS), (2, SHARDED_BUILD_ALLOCATIONS)] {
        let mut probe = BuildProbe::default();
        probe.builds.reserve(EPOCHS);
        probe.busy.reserve(EPOCHS);
        let result = Simulator::builder(&inst)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)))
            .sharding(ShardConfig::flat(shards).unwrap().escalation(0))
            .build()
            .unwrap()
            .run_observed(&mut DeclineAll, &mut [&mut probe]);
        assert_eq!(result.metrics.served, 0);
        assert_eq!(probe.builds.len(), EPOCHS);
        for &(allocations, shared) in &probe.builds[1..] {
            if shards > 1 {
                // Five in-town orders a depot, eleven of twelve cells each.
                assert_eq!(shared, ORDERS_PER_EPOCH * (TWIN_FLEET / 2 - 1));
            }
            assert!(
                allocations <= ceiling,
                "epoch boundary allocated {allocations} times at {shards} shard(s), \
                 {ceiling} before twins were grouped"
            );
        }
    }
}

const BUSY_EPOCHS: usize = 4;
const ORDERS_PER_BUSY_EPOCH: usize = 2;

/// A home town and a far town 300 km apart, `k` vehicles at the home
/// depot. At 08:00 every vehicle takes one far-town order and sets off
/// for its pickup, five hours away: from then on each one drives with
/// the order on board and its delivery left on its route. Three more
/// hourly epochs of two home-town orders follow, which nobody takes.
fn busy_instance(k: usize) -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(4.0, 0.0)),
        Node::factory(NodeId(2), Point::new(0.0, 5.0)),
        Node::factory(NodeId(3), Point::new(300.0, 0.0)),
        Node::factory(NodeId(4), Point::new(304.0, 3.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet = FleetConfig::homogeneous(
        k,
        &[NodeId(0)],
        10.0,
        500.0,
        2.0,
        60.0,
        TimeDelta::from_minutes(2.0),
    )
    .unwrap();
    let far = (0..k).map(|_| (7.5, 3, 4));
    let home = (1..BUSY_EPOCHS)
        .flat_map(|e| (0..ORDERS_PER_BUSY_EPOCH).map(move |_| (7.5 + e as f64, 1, 2)));
    let orders = far
        .chain(home)
        .enumerate()
        .map(|(id, (created_h, pickup, delivery))| {
            let created = TimePoint::from_hours(created_h);
            Order::new(
                OrderId(id as u32),
                NodeId(pickup),
                NodeId(delivery),
                1.0,
                created,
                created + TimeDelta::from_hours(24.0),
            )
            .unwrap()
        })
        .collect();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

/// Gives order `i` of the first epoch to vehicle `i` and declines every
/// later order, marking when each dispatch returned.
struct SendEveryVehicleAway;

impl Dispatcher for SendEveryVehicleAway {
    fn dispatch(&mut self, _ctx: &dpdp_sim::DispatchContext<'_>) -> Option<VehicleId> {
        unreachable!("batch-native")
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        let first = batch.len() == batch.num_vehicles();
        let decisions = (0..batch.len())
            .map(|i| batch.resolve(i, first.then(|| VehicleId::from_index(i))))
            .collect();
        DISPATCH_END.with(|mark| mark.set(allocations()));
        decisions
    }
}

/// Epoch-boundary allocations of the last two busy epochs, at `k`
/// vehicles.
fn busy_builds(k: usize) -> Vec<usize> {
    let inst = busy_instance(k);
    let mut probe = BuildProbe::default();
    probe.builds.reserve(BUSY_EPOCHS);
    probe.busy.reserve(BUSY_EPOCHS);
    let result = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)))
        .metrics(MetricsOptions {
            record_assignments: false,
            record_vehicle_stats: false,
        })
        .build()
        .unwrap()
        .run_observed(&mut SendEveryVehicleAway, &mut [&mut probe]);
    assert_eq!(result.metrics.served, k);
    assert_eq!(probe.busy, [k; BUSY_EPOCHS]);
    probe.builds[2..].iter().map(|&(n, _)| n).collect()
}

#[test]
fn warmed_up_batch_build_over_a_busy_fleet_allocates_nothing_per_vehicle() {
    let (k, twice) = (busy_builds(8), busy_builds(16));
    assert_eq!(k, twice, "a batch build copies something per vehicle");
}
