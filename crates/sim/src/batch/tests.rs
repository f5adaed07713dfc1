use super::*;
use crate::sweep::ShardContext;
use dpdp_net::{
    FleetConfig, Instance, IntervalGrid, Node, NodeId, Point, ShardMap, ShardPolicy, TimeDelta,
};
use proptest::prelude::*;
use std::sync::Arc;

mod blocks;

/// Every fixture epoch is decided at 08:00.
const NOW_H: f64 = 8.0;

impl DecisionBatch<'_> {
    /// The shard owning the `i`-th order (its pickup node's region); 0 for
    /// every order of a one-cell layout.
    fn shard_of_order(&self, i: usize) -> usize {
        self.shards.map.shard_of(self.order(i).pickup)
    }

    /// The shard a vehicle currently belongs to (its anchor node's region,
    /// which moves as commits advance the vehicle); 0 for every vehicle of
    /// a one-cell layout.
    fn shard_of_vehicle(&self, k: VehicleId) -> usize {
        let anchor = self.inner.borrow().views[k.index()].anchor_node;
        self.shards.map.shard_of(anchor)
    }
}

fn instance() -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(10.0, 0.0)),
        Node::factory(NodeId(2), Point::new(20.0, 0.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet =
        FleetConfig::homogeneous(2, &[NodeId(0)], 10.0, 500.0, 2.0, 60.0, TimeDelta::ZERO).unwrap();
    let orders = vec![
        Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(2),
            9.0,
            TimePoint::from_hours(8.0),
            // Tight deadline: no time to serve both orders back to
            // back, and 9 + 9 exceeds the capacity of 10, so a vehicle
            // that commits to one order cannot take the other.
            TimePoint::from_hours(8.34),
        )
        .unwrap(),
        Order::new(
            OrderId(1),
            NodeId(1),
            NodeId(2),
            9.0,
            TimePoint::from_hours(8.0),
            TimePoint::from_hours(8.34),
        )
        .unwrap(),
    ];
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

fn batch(inst: &Instance) -> DecisionBatch<'_> {
    batch_with(inst, town_shards(inst, false), &mut EpochScratch::default())
}

/// The 08:00 epoch over every order of `inst`, on a serial pool, every
/// vehicle idle at its depot.
fn batch_with<'a>(
    inst: &'a Instance,
    shards: ShardContext,
    scratch: &mut EpochScratch,
) -> DecisionBatch<'a> {
    batch_of(inst, idle_fleet(inst), None, shards, scratch)
}

/// A fleet as the engine owns it: the view column and the state column.
type Fleet = (Vec<VehicleView>, Vec<VehicleState>);

/// `inst`'s fleet at 08:00, nothing accepted yet.
fn idle_fleet(inst: &Instance) -> Fleet {
    let now = TimePoint::from_hours(NOW_H);
    let (mut views, mut states) = crate::state::fresh_fleet(&inst.fleet);
    for (s, v) in states.iter_mut().zip(&mut views) {
        s.advance_to(v, now, &inst.network, &inst.fleet, inst.orders());
    }
    (views, states)
}

/// The 08:00 epoch over every order of `inst` for the given fleet and
/// availability mask, on a serial pool.
fn batch_of<'a>(
    inst: &'a Instance,
    (views, states): Fleet,
    active: Option<Vec<bool>>,
    shards: ShardContext,
    scratch: &mut EpochScratch,
) -> DecisionBatch<'a> {
    let now = TimePoint::from_hours(NOW_H);
    DecisionBatch::new(
        now,
        inst.grid.interval_of(now),
        &inst.network,
        &inst.fleet,
        inst.orders(),
        inst.orders().iter().map(|o| o.id).collect(),
        views,
        states,
        &ThreadPool::serial(),
        shards,
        active,
        None,
        scratch,
    )
}

/// Reusing one `EpochScratch` across batch builds must be invisible:
/// a scratch dirtied by a previous epoch yields the same plan matrix,
/// bit for bit, as a freshly allocated one.
#[test]
fn dirty_epoch_scratch_is_bit_identical_to_fresh() {
    let inst = instance();
    let snapshot = |b: &DecisionBatch<'_>| -> Vec<Vec<PlannerOutput>> {
        (0..b.len()).map(|i| dense_row(b, i)).collect()
    };
    let fresh = snapshot(&batch(&inst));
    let mut scratch = EpochScratch::default();
    let one_cell = || town_shards(&inst, false);
    let first = snapshot(&batch_with(&inst, one_cell(), &mut scratch));
    let second = snapshot(&batch_with(&inst, one_cell(), &mut scratch));
    assert_eq!(fresh, first);
    assert_eq!(fresh, second);
}

/// A schedule cache is kept into the next epoch only for a view equal to
/// the one it was built from. Vehicle 0 is still driving to the depot when
/// it accepts order 0 — its anchor does not move — and the order is then
/// cancelled by route surgery, so the next epoch finds the view the first
/// epoch's sweep built its cache from. The accepting commit rebuilt that
/// cache for the route with the order on it, and re-keyed it: the next
/// epoch must rebuild it again and score order 1 (which no longer fits
/// beside order 0) as feasible, exactly as a fresh scratch does.
#[test]
fn a_kept_cache_belongs_to_the_view_it_was_last_built_from() {
    let inst = instance();
    let now = TimePoint::from_hours(NOW_H);
    let one_cell = || town_shards(&inst, false);
    let (mut views, mut states) = idle_fleet(&inst);
    views[0].anchor_time = now + TimeDelta::from_minutes(0.2);
    let mut scratch = EpochScratch::default();
    let first = batch_of(&inst, (views, states), None, one_cell(), &mut scratch);
    assert_eq!(first.shard_stats().caches_built, 2);
    assert!(first.resolve(0, Some(VehicleId(0))).is_assigned());
    (views, states) = (Vec::new(), Vec::new());
    let _ = first.into_parts(&mut scratch, &mut views, &mut states);
    assert_eq!(views[0].anchor_time, now + TimeDelta::from_minutes(0.2));
    assert!(states[0].cancel_order(&mut views[0], OrderId(0)));
    let fleet = (views.clone(), states.clone());
    let fresh = batch_of(&inst, fleet, None, one_cell(), &mut EpochScratch::default());
    let kept = batch_of(&inst, (views, states), None, one_cell(), &mut scratch);
    assert!(fresh.with_context(1, |ctx| ctx.plan(0).feasible()));
    for i in 0..kept.len() {
        assert_eq!(dense_row(&kept, i), dense_row(&fresh, i), "row {i}");
    }
    // Both epochs are at 08:00, so idle vehicle 1 is where it was and
    // keeps its cache; vehicle 0's is rebuilt.
    assert_eq!(kept.shard_stats().caches_built, 1);
}

#[test]
fn resolve_updates_plan_deltas_for_later_orders() {
    let inst = instance();
    let b = batch(&inst);
    assert_eq!(b.len(), 2);
    assert!(b.any_feasible(0) && b.any_feasible(1));
    // Before any commit both orders see an idle vehicle 0.
    let d0_before = b.with_context(1, |ctx| ctx.plan(0).incremental_length().unwrap());
    let d = b.resolve(0, Some(VehicleId(0)));
    assert_eq!(d, Decision::assigned(OrderId(0), VehicleId(0)));
    // Vehicle 0 is now loaded with 9 of 10 capacity: order 1 (quantity
    // 9) no longer fits on it, so its plan flipped infeasible.
    let feasible_now = b.with_context(1, |ctx| ctx.plan(0).feasible());
    assert!(!feasible_now, "capacity should exclude vehicle 0");
    assert!(d0_before.is_finite());
    // Vehicle 1 remains available.
    let d2 = b.resolve(1, Some(VehicleId(1)));
    assert_eq!(d2.reason, DecisionReason::Assigned);
}

#[test]
fn resolve_classifies_rejections() {
    let inst = instance();
    let b = batch(&inst);
    // Policy declined although feasible vehicles exist.
    assert_eq!(b.resolve(0, None).reason, DecisionReason::PolicyRejected);
    // Choosing an infeasible vehicle: make vehicle 0 full first.
    let b2 = batch(&inst);
    b2.resolve(0, Some(VehicleId(0)));
    let d = b2.with_context(1, |ctx| ctx.plan(0).feasible());
    assert!(!d);
    assert_eq!(
        b2.resolve(1, Some(VehicleId(0))).reason,
        DecisionReason::InfeasibleChoice
    );
    // So is a vehicle outside the fleet: the engine passes on whatever id
    // a policy returned unresolved, so it is input to reject, not an index.
    let b3 = batch(&inst);
    let outside = Some(VehicleId::from_index(b3.num_vehicles()));
    let reason = DecisionReason::InfeasibleChoice;
    assert_eq!(
        b3.resolve(0, outside),
        Decision::rejected(OrderId(0), reason)
    );
}

#[test]
#[should_panic(expected = "resolved twice")]
fn double_resolve_panics() {
    let inst = instance();
    let b = batch(&inst);
    b.resolve(0, None);
    b.resolve(0, None);
}

/// A resolved order's row is no longer rescored when later acceptances
/// change routes, so its positions cannot be materialised any more:
/// asking for its context is a caller bug and says so.
#[test]
#[should_panic(expected = "order O0 already resolved: its row is no longer maintained")]
fn with_context_on_a_resolved_order_panics() {
    let inst = instance();
    let b = batch(&inst);
    b.resolve(0, Some(VehicleId(0)));
    b.with_context(0, |ctx| ctx.num_vehicles());
}

/// One epoch order of the two-town fixture: pickup town (`true` = B),
/// pickup factory, delivery offset within the town, hours to the deadline.
type OrderSpec = (bool, usize, usize, f64);

/// Two towns 300 km apart, each one depot plus four factories within a few
/// km; vehicles alternate between the depots (even ids in town A). At
/// 60 km/h a tight order (under two hours of slack) is servable in-town
/// only, so under a two-shard map every cross-town cell of a tight order
/// is pruned by the bound. All orders are created at the 08:00 epoch.
fn two_towns(num_vehicles: usize, specs: &[OrderSpec]) -> Instance {
    let offsets = [(4.0, 0.0), (0.0, 5.0), (6.0, 6.0), (9.0, 2.0)];
    let mut nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::depot(NodeId(1), Point::new(300.0, 0.0)),
    ];
    for town_x in [0.0, 300.0] {
        for (dx, dy) in offsets {
            let id = NodeId::from_index(nodes.len());
            nodes.push(Node::factory(id, Point::new(town_x + dx, dy)));
        }
    }
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet = FleetConfig::homogeneous(
        num_vehicles,
        &[NodeId(0), NodeId(1)],
        10.0,
        500.0,
        2.0,
        60.0,
        TimeDelta::from_minutes(2.0),
    )
    .unwrap();
    let orders = specs
        .iter()
        .enumerate()
        .map(|(i, &(town_b, pickup, hop, slack_h))| {
            let base = if town_b { 6 } else { 2 };
            Order::new(
                OrderId(i as u32),
                NodeId::from_index(base + pickup % 4),
                NodeId::from_index(base + (pickup + 1 + hop % 3) % 4),
                1.0,
                TimePoint::from_hours(NOW_H),
                TimePoint::from_hours(NOW_H + slack_h),
            )
            .unwrap()
        })
        .collect();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

/// The two-shard map of a two-town instance (escalation 0, so foreign
/// cells survive on the bound alone), or the one-cell map of the unsharded
/// default.
fn town_shards(inst: &Instance, sharded: bool) -> ShardContext {
    let cells = if sharded { 2 } else { 1 };
    ShardContext {
        map: Arc::new(ShardMap::build(
            &inst.network,
            cells,
            ShardPolicy::default(),
            7,
        )),
        escalation: 0,
    }
}

/// The epoch over every order of `inst`, under one cell or two shards.
fn town_batch(inst: &Instance, sharded: bool) -> DecisionBatch<'_> {
    let shards = town_shards(inst, sharded);
    batch_with(inst, shards, &mut EpochScratch::default())
}

/// The columns row `i` of a batch stores a cell of.
fn stored_columns(b: &DecisionBatch<'_>, i: usize) -> Vec<u32> {
    let inner = b.inner.borrow();
    inner.plans.rows[i].iter().map(|e| e.0).collect()
}

/// The batch's column map as `(column_of, members of every column id)`.
fn column_map(b: &DecisionBatch<'_>) -> (Vec<u32>, Vec<Vec<u32>>) {
    let inner = b.inner.borrow();
    let map = &inner.plans.map;
    let column_of = (0..b.num_vehicles()).map(|k| map.column_of(k).unwrap());
    let members = (0..map.num_columns() as u32).map(|c| map.members(&c).to_vec());
    (column_of.collect(), members.collect())
}

/// Row `i` of the context as one plan per vehicle: each vehicle's column's.
fn dense_row(b: &DecisionBatch<'_>, i: usize) -> Vec<PlannerOutput> {
    b.with_context(i, |ctx| {
        (0..ctx.num_vehicles())
            .map(|k| ctx.plan(k).clone())
            .collect()
    })
}

/// The context's `column_of`, with `column_plans.len()` beside it.
fn context_columns(b: &DecisionBatch<'_>, i: usize) -> (Vec<u32>, usize) {
    b.with_context(i, |ctx| (ctx.column_of.to_vec(), ctx.column_plans.len()))
}

/// A context has one plan per column the row reads, numbered by first
/// member: the mixed fleet's two groups are one plan each, every
/// look-alike its own, and a member that accepts an order reads a new
/// column of its own in every later context.
#[test]
fn a_context_materialises_each_column_once() {
    let inst = mixed_instance();
    for sharded in [false, true] {
        let (b, _) = mixed_batch(&inst, sharded);
        for i in 0..b.len() {
            let (column_of, plans) = context_columns(&b, i);
            assert_eq!(column_of, [0, 1, 0, 2, 0, 2, 3, 4, 5, 2, 0]);
            assert_eq!(plans, 6);
        }
        b.resolve(1, Some(VehicleId(2)));
        let (column_of, plans) = context_columns(&b, 0);
        assert_eq!(column_of, [0, 1, 2, 3, 0, 3, 4, 5, 6, 3, 0]);
        assert_eq!(plans, 7);
        assert_undecided_rows_are_own_plans(&b);
    }
}

/// The mixed fleet: idle twins plus one of every vehicle that looks like a
/// twin and is not. By vehicle id (even ids are homed in town A):
/// 0, 2, 4 idle at A's depot and 3, 5, 9 idle at B's — the twin groups —
/// then the five below; ids from 11 on are more idle twins.
const MIXED_FLEET: usize = 11;
/// Broken down at B's depot: the lowest id there, so it would lead B's
/// group if a stripped route made a twin.
const MASKED: usize = 1;
/// At A's depot with an empty route, but its last leg ends at 08:45.
const LATE: usize = 6;
/// Idle at A's depot, homed at B's.
const FAR_HOME: usize = 7;
/// Idle at A's depot with a unit of order 1's cargo on board and no stop
/// left to deliver it (no feasible insertion exists).
const LOADED: usize = 8;
/// Back at A's depot after an earlier job: a twin in everything but
/// `used` and the odometer.
const RETURNED: usize = 10;

fn mixed_fleet(inst: &Instance) -> (Fleet, Vec<bool>) {
    assert!(inst.fleet.vehicles.len() >= MIXED_FLEET);
    let (mut views, mut states) = idle_fleet(inst);
    let mut active = vec![true; states.len()];
    states[MASKED].broken = true;
    active[MASKED] = false;
    views[LATE].anchor_time = TimePoint::from_hours(NOW_H + 0.75);
    views[FAR_HOME].anchor_node = NodeId(0);
    views[LOADED].onboard.push((OrderId(1), 1.0));
    views[RETURNED].used = true;
    states[RETURNED].traveled = 30.0;
    ((views, states), active)
}

/// The hook's epoch plus a half-hour town-A order only a vehicle free at
/// 08:00 can serve, over the mixed fleet.
fn mixed_instance() -> Instance {
    two_towns(MIXED_FLEET, &epoch_specs(vec![(false, 1, 1, 0.5)]))
}

fn mixed_batch(inst: &Instance, sharded: bool) -> (DecisionBatch<'_>, EpochScratch) {
    let (fleet, active) = mixed_fleet(inst);
    let mut scratch = EpochScratch::default();
    let shards = town_shards(inst, sharded);
    let batch = batch_of(inst, fleet, Some(active), shards, &mut scratch);
    (batch, scratch)
}

/// Algorithm 2 on nothing but vehicle `k`'s own view — what cell `(i, k)`
/// must read as whoever computed it; a masked vehicle offers no plan.
fn own_plan(b: &DecisionBatch<'_>, i: usize, k: usize) -> PlannerOutput {
    let planner = RoutePlanner::new(b.net, b.fleet, b.orders);
    let view = b.inner.borrow().views[k].clone();
    if b.vehicle_active(VehicleId::from_index(k)) {
        planner.plan(&view, b.order(i))
    } else {
        planner.materialise(&planner.pruned_score(None, &view), &view, b.order(i))
    }
}

/// Row `i` as both readers see it is Algorithm 2 on every vehicle's own
/// view: the dense context cell for cell, and the candidate row, which
/// names every vehicle at most once, each with its own plan's score, and
/// omits none that can take the order.
fn assert_row_is_own_plans(b: &DecisionBatch<'_>, i: usize) {
    let own: Vec<PlannerOutput> = (0..b.num_vehicles()).map(|k| own_plan(b, i, k)).collect();
    for (k, plan) in dense_row(b, i).into_iter().enumerate() {
        assert_eq!(plan, own[k], "order {i} on vehicle {k}");
    }
    let mut seen = vec![false; own.len()];
    b.fold_candidates(i, (), |(), k, score| {
        assert!(!seen[k.index()], "order {i}: vehicle {k} visited twice");
        seen[k.index()] = true;
        assert_eq!(*score, own[k.index()].score(), "order {i}, candidate {k}");
    });
    for (k, seen) in seen.into_iter().enumerate() {
        assert!(
            seen || !own[k].feasible(),
            "order {i}: vehicle {k} not visited"
        );
    }
    assert_eq!(b.any_feasible(i), own.iter().any(PlannerOutput::feasible));
}

fn assert_undecided_rows_are_own_plans(b: &DecisionBatch<'_>) {
    for i in (0..b.len()).filter(|&i| b.committed(i).is_none()) {
        assert_row_is_own_plans(b, i);
    }
}

/// Resolves each `(order, vehicle)` acceptance in turn: the vehicle must
/// be assigned and read its own column afterwards, and every undecided row
/// must still read as Algorithm 2 on every vehicle's own view.
fn accept_in_turn(b: &DecisionBatch<'_>, acceptances: &[(usize, u32)]) {
    for &(i, k) in acceptances {
        assert!(b.resolve(i, Some(VehicleId(k))).is_assigned());
        assert_eq!(column_map(b).0[k as usize], k, "vehicle {k} left its group");
        assert_undecided_rows_are_own_plans(b);
    }
}

/// The groups the mixed fleet forms: A's idle vehicles and the returned
/// one follow vehicle 0 into column 11, B's unmasked ones follow vehicle 3
/// into column 12, and each look-alike reads its own column.
#[test]
fn mixed_fleet_groups_only_its_idle_twins() {
    let inst = mixed_instance();
    for sharded in [false, true] {
        let (b, scratch) = mixed_batch(&inst, sharded);
        assert_eq!(scratch.twin_rep, [0, 1, 0, 3, 0, 3, 6, 7, 8, 3, 0]);
        let (column_of, members) = column_map(&b);
        assert_eq!(column_of, [11, 1, 11, 12, 11, 12, 6, 7, 8, 12, 11]);
        assert_eq!(members[11..], [vec![0, 2, 4, 10], vec![3, 5, 9]]);
        for i in 0..b.len() {
            assert_row_is_own_plans(&b, i);
        }
    }
}

/// Same node, different depot: the route home differs, so both `d_{t,k}`
/// and the best insertion's length do.
#[test]
fn idle_vehicles_with_different_depots_do_not_share() {
    let inst = mixed_instance();
    for sharded in [false, true] {
        let (b, _) = mixed_batch(&inst, sharded);
        let row = dense_row(&b, 1);
        assert_eq!(row[0].current_length, 0.0);
        assert_eq!(row[FAR_HOME].current_length, 300.0);
        assert!(row[FAR_HOME].best_length() > row[0].best_length());
        for i in 0..b.len() {
            assert_eq!(dense_row(&b, i)[FAR_HOME], own_plan(&b, i, FAR_HOME));
        }
    }
}

/// Same node and depot, but one is still driving its last leg (`route`
/// empty, `anchor_time > now`): the half-hour order is out of its reach.
#[test]
fn a_vehicle_still_driving_its_last_leg_does_not_share() {
    let inst = mixed_instance();
    for sharded in [false, true] {
        let (b, _) = mixed_batch(&inst, sharded);
        let tight = b.len() - 1;
        let row = dense_row(&b, tight);
        assert!(row[0].feasible() && row[2].feasible());
        assert!(!row[LATE].feasible());
        for i in 0..b.len() {
            assert_eq!(dense_row(&b, i)[LATE], own_plan(&b, i, LATE));
        }
    }
}

/// Cargo on board and an empty route is not idle, whatever the route
/// looks like: nothing can be inserted behind an undeliverable load.
#[test]
fn a_vehicle_with_cargo_on_board_does_not_share() {
    let inst = mixed_instance();
    for sharded in [false, true] {
        let (b, _) = mixed_batch(&inst, sharded);
        for i in 0..b.len() {
            let row = dense_row(&b, i);
            assert!(!row[LOADED].feasible());
            assert_eq!(row[LOADED], own_plan(&b, i, LOADED));
        }
        assert!(dense_row(&b, 1)[0].feasible());
    }
}

/// A broken-down vehicle's stripped route looks idle. It stays
/// `best: None`, and B's twins are scored although the lowest id at their
/// depot is the masked one.
#[test]
fn a_masked_vehicle_among_idle_twins_neither_borrows_nor_lends() {
    let inst = mixed_instance();
    for sharded in [false, true] {
        let (b, _) = mixed_batch(&inst, sharded);
        assert!(!b.vehicle_active(VehicleId::from_index(MASKED)));
        for i in 0..b.len() {
            let row = dense_row(&b, i);
            assert!(!row[MASKED].feasible());
            assert_eq!(row[MASKED].current_length, 0.0);
            for k in [3, 5, 9] {
                assert_eq!(row[k], own_plan(&b, i, k));
            }
        }
        // Order 2 is the tight town-B one.
        let row = dense_row(&b, 2);
        assert!(row[3].feasible() && row[5].feasible() && row[9].feasible());
        let choice = Some(VehicleId::from_index(MASKED));
        let reason = DecisionReason::InfeasibleChoice;
        assert_eq!(b.resolve(2, choice).reason, reason);
    }
}

/// `used` and the odometer are not Algorithm 2 inputs: a vehicle that
/// returned to its depot shares with the never-used ones parked there,
/// and a policy still reads its own `used` flag off the snapshot.
#[test]
fn a_used_and_returned_vehicle_shares_and_keeps_its_used_flag() {
    let inst = mixed_instance();
    for sharded in [false, true] {
        let (b, scratch) = mixed_batch(&inst, sharded);
        assert_eq!(scratch.twin_rep[RETURNED], 0);
        for i in 0..b.len() {
            let row = dense_row(&b, i);
            assert_eq!(row[RETURNED], row[0]);
            assert_eq!(row[RETURNED], own_plan(&b, i, RETURNED));
        }
        let used: Vec<bool> = b.with_context(1, |ctx| ctx.views.iter().map(|v| v.used).collect());
        assert!(used[RETURNED] && !used[0]);
        // Taking the order leaves the group: the others still share.
        b.resolve(0, Some(VehicleId::from_index(RETURNED)));
        for i in 1..b.len() {
            assert_row_is_own_plans(&b, i);
        }
    }
}

/// The lowest member of a group — the one a lowest-id tie-break accepts
/// first — leaves it for its own column, and the group keeps its column
/// for the members left: every undecided row still reads as Algorithm 2 on
/// every vehicle's own view after each acceptance, group cells included.
#[test]
fn an_accepting_representative_leaves_its_group() {
    let inst = mixed_instance();
    for sharded in [false, true] {
        let (b, _) = mixed_batch(&inst, sharded);
        // Tight A, tight B, half-hour A, then the hook: each to the lowest
        // member its group has left.
        accept_in_turn(&b, &[(1, 0), (2, 3), (3, 2), (0, 5)]);
        let (_, members) = column_map(&b);
        assert_eq!(members[11..], [vec![4, 10], vec![9]]);
    }
}

/// Members that are not their group's lowest leave it too, the middle,
/// the last and the returned one, down to an empty group whose cells the
/// last undecided row still stores.
#[test]
fn an_accepting_member_leaves_its_group() {
    // The mixed epoch plus a second loose and a second tight town-B order.
    let extra = vec![(false, 1, 1, 0.5), (true, 3, 1, 20.0), (true, 1, 2, 1.5)];
    let inst = two_towns(MIXED_FLEET, &epoch_specs(extra));
    for sharded in [false, true] {
        let (b, _) = mixed_batch(&inst, sharded);
        accept_in_turn(&b, &[(1, 4), (0, 9), (3, RETURNED as u32), (2, 5), (4, 3)]);
        let (_, members) = column_map(&b);
        assert_eq!(members[11..], [vec![0, 2], vec![]]);
        let (group_b, tight_b) = (12, 5);
        assert!(stored_columns(&b, tight_b).contains(&group_b));
    }
}

/// A group every member of which left still has its cells in the rows,
/// feasible ones included, and they stand for nobody: two town-A twins
/// take the two loose town-B orders, and the half-hour town-A order their
/// group's cell still calls feasible has no vehicle left that can serve it.
#[test]
fn a_group_whose_members_all_left_stands_for_nobody() {
    let inst = two_towns(
        4,
        &[(true, 0, 0, 20.0), (true, 1, 1, 20.0), (false, 1, 1, 0.5)],
    );
    let (group_a, half_hour) = (4, 2);
    for sharded in [false, true] {
        let b = town_batch(&inst, sharded);
        assert_eq!(column_map(&b).1[group_a], [0, 2]);
        accept_in_turn(&b, &[(0, 0), (1, 2)]);
        assert!(column_map(&b).1[group_a].is_empty());
        let group_cell = b.inner.borrow().plans.rows[half_hour]
            .iter()
            .find(|e| e.0 == group_a as u32)
            .map(|e| e.1);
        assert!(group_cell.is_some_and(|p| p.feasible()));
        assert_row_is_own_plans(&b, half_hour);
        assert!(!b.any_feasible(half_hour));
        let reason = DecisionReason::NoFeasibleVehicle;
        assert_eq!(b.resolve(half_hour, None).reason, reason);
    }
}

/// A row stores one cell per `(order, column)` it holds: exactly the
/// columns with a member the per-vehicle classification rule evaluates — a
/// group once, however many of its members that is. Under one cell that is
/// every active vehicle's column; the masked vehicle's is absent and reads
/// as its fallback.
#[test]
fn a_twin_group_is_stored_once_per_row() {
    let inst = mixed_instance();
    let planner = RoutePlanner::new(&inst.network, &inst.fleet, inst.orders());
    for sharded in [false, true] {
        let (b, _) = mixed_batch(&inst, sharded);
        let (column_of, members) = column_map(&b);
        let mut stored_cells = 0;
        for i in 0..b.len() {
            let evaluated = |k: usize| {
                let v = VehicleId::from_index(k);
                let view = b.inner.borrow().views[k].clone();
                b.vehicle_active(v)
                    && (b.shard_of_order(i) == b.shard_of_vehicle(v)
                        || !planner.provably_infeasible(&view, b.order(i)))
            };
            let mut expect: Vec<u32> = (0..b.num_vehicles())
                .filter(|&k| evaluated(k))
                .map(|k| column_of[k])
                .collect();
            expect.sort_unstable();
            expect.dedup();
            let stored = stored_columns(&b, i);
            assert_eq!(stored, expect, "order {i}, sharded: {sharded}");
            assert!(stored.iter().any(|&c| members[c as usize].len() > 1));
            stored_cells += stored.len();
        }
        let stats = b.shard_stats();
        assert_eq!(stored_cells, stats.evaluated - stats.shared);
    }
}

/// Escalation picks vehicles, and twins are equidistant, so it picks a
/// group's lowest members: a group the bound prunes is evaluated once for
/// them, and the counters count the picked members, not the group. The
/// expectation is the per-vehicle rule of `crate::sweep` run here by hand,
/// with one escalation slot on the two-shard map.
#[test]
fn shard_stats_count_the_escalated_members_of_a_group() {
    let inst = mixed_instance();
    let planner = RoutePlanner::new(&inst.network, &inst.fleet, inst.orders());
    let (fleet, active) = mixed_fleet(&inst);
    let shards = ShardContext {
        escalation: 1,
        ..town_shards(&inst, true)
    };
    let b = batch_of(
        &inst,
        fleet,
        Some(active),
        shards,
        &mut EpochScratch::default(),
    );
    let (column_of, _) = column_map(&b);
    let views = b.inner.borrow().views.clone();
    let k_n = b.num_vehicles();
    let mut expect = ShardStats {
        cells: b.len() * k_n,
        ..ShardStats::default()
    };
    let mut cells = Vec::new();
    let mut picked = Vec::new();
    for i in 0..b.len() {
        let order = b.order(i);
        let active = |k: usize| b.vehicle_active(VehicleId::from_index(k));
        let foreign =
            |k: usize| b.shard_of_order(i) != b.shard_of_vehicle(VehicleId::from_index(k));
        let distance = |k: usize| inst.network.distance(views[k].anchor_node, order.pickup);
        let nearest = (0..k_n)
            .filter(|&k| active(k) && foreign(k))
            .min_by(|&x, &y| distance(x).total_cmp(&distance(y)).then(x.cmp(&y)));
        picked.push(nearest);
        for k in (0..k_n).filter(|&k| active(k)) {
            if !foreign(k) || nearest == Some(k) || !planner.provably_infeasible(&views[k], order) {
                expect.evaluated += 1;
                expect.escalated += usize::from(foreign(k));
                cells.push((i, column_of[k]));
            }
        }
    }
    // The tight orders escalate to the other town's representative, whose
    // group the bound prunes.
    for (i, rep) in [(1, 3), (2, 0)] {
        assert_eq!(picked[i], Some(rep));
        assert!(planner.provably_infeasible(&views[rep], b.order(i)));
    }
    cells.sort_unstable();
    cells.dedup();
    expect.pruned = expect.cells - expect.evaluated;
    expect.shared = expect.evaluated - cells.len();
    // One cache per column with a cell, in a fresh scratch.
    let mut columns: Vec<u32> = cells.iter().map(|&(_, c)| c).collect();
    columns.sort_unstable();
    columns.dedup();
    expect.caches_built = columns.len();
    assert_eq!(b.shard_stats(), expect);
}

/// A sharded epoch counts what the twins saved: of the cells classified
/// for evaluation, all but one per `(order, group)` are shared.
#[test]
fn shared_counts_the_cells_copied_from_a_twin() {
    let inst = mixed_instance();
    let (b, _) = mixed_batch(&inst, true);
    let stats = b.shard_stats();
    // Town A's group has four members, town B's three; the hook (order 0)
    // is loose enough for both towns, the other three are in-town only.
    let a_rows = 3; // orders 0, 1, 3
    let b_rows = 2; // orders 0, 2
    assert_eq!(stats.shared, a_rows * 3 + b_rows * 2);
    assert!(stats.shared < stats.evaluated);
}

/// A one-cell epoch counts its work like any other layout: every `(order,
/// vehicle)` cell, the masked vehicle's pruned, nothing escalated, and the
/// cells the idle twins share — after the sweep, and after every
/// acceptance, whose delta cells are all evaluated.
#[test]
fn a_one_cell_batch_counts_every_cell() {
    let inst = mixed_instance();
    let (b, _) = mixed_batch(&inst, false);
    assert_eq!(b.num_shards(), 1);
    let (n, k_n, masked) = (b.len(), b.num_vehicles(), 1);
    // Every order reads both groups: four members in town A, three in B.
    // A fresh scratch builds one cache per active column, and every
    // acceptance one more.
    let mut expect = ShardStats {
        cells: n * k_n,
        evaluated: n * (k_n - masked),
        pruned: n * masked,
        escalated: 0,
        shared: n * (3 + 2),
        caches_built: k_n - masked - (3 + 2),
    };
    assert_eq!(b.shard_stats(), expect);
    let acceptances = [(1, 0), (2, 3), (3, 2), (0, 5)];
    for (accepted, &(i, k)) in acceptances.iter().enumerate() {
        assert!(b.resolve(i, Some(VehicleId(k))).is_assigned());
        let undecided = n - accepted - 1;
        expect.cells += undecided;
        expect.evaluated += undecided;
        expect.caches_built += 1;
        assert_eq!(b.shard_stats(), expect, "after accepting order {i}");
    }
}

/// The hook (a loose town-B order a town-A vehicle accepts first, which
/// sends it across the gap), one tight order per town, then the extras.
fn epoch_specs(extra: Vec<OrderSpec>) -> Vec<OrderSpec> {
    let mut specs = vec![(true, 0, 0, 20.0), (false, 1, 1, 1.5), (true, 2, 0, 1.5)];
    specs.extend(extra);
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sharded and a flat batch over the same epoch, driven through the
    /// same `resolve` sequence, expose `==` rows for every undecided order
    /// after every step — while the sparse rows keep pruned delta cells
    /// implicit. Every case crosses both transitions: the far-homed
    /// vehicle, which stands for itself, leaving town A turns its *stored*
    /// town-A cells pruned (overwritten in place with the fallback), and
    /// its *absent* town-B cells in-shard, hence evaluated and inserted. (They come out infeasible: the bound only
    /// grows along a route, so a pruned pair cannot turn feasible on a
    /// metric network — the insert is what keeps that a checked fact
    /// instead of an assumption.) The work counters are recomputed here
    /// from the public classification rule and must match `shard_stats`.
    ///
    /// The fleet is the mixed one — at least three idle twins per depot
    /// plus every look-alike — so both batches store most cells once per
    /// group, and every row shown must also be Algorithm 2 run per cell on
    /// the vehicle's own view. The tight orders go to a group member that
    /// is not its representative and to one that is, so every case splits
    /// both groups.
    #[test]
    fn sharded_rows_match_flat_rows_through_commits(
        more_twins in 0usize..4,
        extra in proptest::collection::vec(
            (proptest::bool::ANY, 0usize..4, 0usize..3, 0.5f64..2.0),
            0..6,
        ),
        picks in proptest::collection::vec(0usize..16, 9),
    ) {
        let inst = two_towns(MIXED_FLEET + more_twins, &epoch_specs(extra));
        let planner = RoutePlanner::new(&inst.network, &inst.fleet, inst.orders());
        let (flat, _) = mixed_batch(&inst, false);
        let (sharded, _) = mixed_batch(&inst, true);
        prop_assert!(sharded.shard_stats().shared > 0);
        let b = flat.len();
        let mut picks = picks.into_iter();
        let initial: Vec<usize> = (0..b).map(|j| stored_columns(&sharded, j).len()).collect();
        let mut evaluated = vec![0usize; b];
        let mut inserted = vec![0usize; b];
        let (mut stale_pruned, mut absent_evaluated) = (0usize, 0usize);
        for i in 0..b {
            for j in i..b {
                prop_assert_eq!(dense_row(&sharded, j), dense_row(&flat, j), "row {} at step {}", j, i);
                assert_row_is_own_plans(&flat, j);
            }
            // The hook goes to the vehicle homed across the gap, the tight
            // orders to a member of A's group that is not its lowest and to
            // B's representative, the rest at random among the feasible
            // vehicles.
            let choice = match i {
                0 => Some(VehicleId::from_index(FAR_HOME)),
                1 => Some(VehicleId(4)),
                2 => Some(VehicleId(3)),
                _ => {
                    let feasible: Vec<usize> = flat.with_context(i, |ctx| {
                        (0..ctx.num_vehicles()).filter(|&k| ctx.plan(k).feasible()).collect()
                    });
                    feasible.get(picks.next().expect("one pick per order") % (feasible.len() + 1)).map(|&k| VehicleId::from_index(k))
                }
            };
            let was_stored: Vec<bool> = (0..b)
                .map(|j| choice.is_some_and(|k| stored_columns(&sharded, j).contains(&k.0)))
                .collect();
            let mut expect = sharded.shard_stats();
            let decision = sharded.resolve(i, choice);
            prop_assert_eq!(decision, flat.resolve(i, choice));
            prop_assert!(i > 2 || decision.is_assigned(), "forced choice {} refused", i);
            let Some(k) = decision.vehicle else {
                prop_assert_eq!(sharded.shard_stats(), expect);
                continue;
            };
            // An acceptance builds the accepting vehicle's cache.
            expect.caches_built += 1;
            let view = sharded.inner.borrow().views[k.index()].clone();
            for j in i + 1..b {
                let foreign = sharded.shard_of_order(j) != sharded.shard_of_vehicle(k);
                let pruned = foreign && planner.provably_infeasible(&view, sharded.order(j));
                let stored = stored_columns(&sharded, j).contains(&k.0);
                expect.cells += 1;
                if pruned {
                    expect.pruned += 1;
                    prop_assert_eq!(stored, was_stored[j], "a pruned cell was inserted");
                    stale_pruned += usize::from(stored);
                } else {
                    expect.evaluated += 1;
                    expect.escalated += usize::from(foreign);
                    evaluated[j] += 1;
                    prop_assert!(stored, "an evaluated cell must be stored");
                    if !was_stored[j] {
                        inserted[j] += 1;
                        absent_evaluated += 1;
                    }
                }
            }
            prop_assert_eq!(sharded.shard_stats(), expect);
        }
        for j in 0..b {
            prop_assert_eq!(stored_columns(&sharded, j).len(), initial[j] + inserted[j]);
            prop_assert!(inserted[j] <= evaluated[j]);
        }
        prop_assert!(stale_pruned >= 1, "no stored cell turned pruned");
        prop_assert!(absent_evaluated >= 1, "no pruned cell turned evaluated");
    }
}

/// The column index must also list the cells a delta *inserted*: the
/// initial sweep pruned `(tight town-B order, vehicle 2)`, and vehicle 2
/// left A's group for its own column when it took the first town-A order,
/// so no run of the sweep lists that row for it. Once a delta has stored
/// the cell (done by hand here, with a score nothing computes), the next
/// acceptance on vehicle 2 prunes it again and has to find it — through
/// column 2's chain of inserted cells — to overwrite it with the refreshed
/// fallback. Without the chain the stale score would stay and the row
/// would no longer read as the one-cell batch's.
#[test]
fn a_cell_a_delta_inserted_is_overwritten_by_the_next_acceptance_on_its_vehicle() {
    let inst = two_towns(4, &epoch_specs(vec![(false, 3, 2, 20.0)]));
    let (flat, sharded) = (town_batch(&inst, false), town_batch(&inst, true));
    let (town_a_orders, town_b_order, k) = ([1, 3], 2, 2);
    let choice = Some(VehicleId::from_index(k));
    assert!(sharded.resolve(town_a_orders[0], choice).is_assigned());
    assert!(flat.resolve(town_a_orders[0], choice).is_assigned());
    assert_eq!(column_map(&sharded).0[k], k as u32);
    assert!(!stored_columns(&sharded, town_b_order).contains(&(k as u32)));
    let stale = PlanScore {
        current_length: -1.0,
        best: None,
    };
    sharded
        .inner
        .borrow_mut()
        .plans
        .store(town_b_order, k, stale);
    let listed: Vec<usize> = sharded.inner.borrow().plans.stored_rows(k).collect();
    assert!(listed.contains(&town_b_order));
    assert_eq!(
        sharded.inner.borrow().plans.cell(town_b_order, k),
        Some(stale)
    );

    assert!(sharded.resolve(town_a_orders[1], choice).is_assigned());
    assert!(flat.resolve(town_a_orders[1], choice).is_assigned());
    let inner = sharded.inner.borrow();
    let fallback = inner.plans.columns[k].fallback;
    assert!(fallback.current_length > 0.0, "vehicle 2 has a route now");
    assert_eq!(inner.plans.cell(town_b_order, k), Some(fallback));
    drop(inner);
    assert_eq!(
        dense_row(&sharded, town_b_order),
        dense_row(&flat, town_b_order)
    );
}

/// `shard_stats` counts commit-delta cells exactly as it did when pruned
/// delta cells were still written into the rows: the counters of this
/// fixed epoch — after the initial sweep and after a first-feasible
/// dispatch behind the hook — are the values the previous store produced.
#[test]
fn shard_stats_count_commit_deltas_as_before() {
    let extra = vec![
        (false, 0, 2, 1.0),
        (true, 3, 1, 0.8),
        (false, 2, 0, 1.9),
        (true, 1, 2, 1.2),
        (false, 3, 1, 0.6),
    ];
    let inst = two_towns(6, &epoch_specs(extra));
    let batch = town_batch(&inst, true);
    let stats = |cells, evaluated, pruned, escalated, shared, caches_built| ShardStats {
        cells,
        evaluated,
        pruned,
        escalated,
        shared,
        caches_built,
    };
    assert_eq!(batch.shard_stats(), stats(48, 27, 21, 3, 18, 2));
    for i in 0..batch.len() {
        let choice = if i == 0 {
            Some(VehicleId(0))
        } else {
            batch.with_context(i, |ctx| {
                (0..ctx.num_vehicles())
                    .find(|&k| ctx.plan(k).feasible())
                    .map(VehicleId::from_index)
            })
        };
        batch.resolve(i, choice);
    }
    assert_eq!(batch.shard_stats(), stats(76, 39, 37, 3, 18, 10));
}
