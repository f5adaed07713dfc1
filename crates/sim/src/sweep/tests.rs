use super::*;
use dpdp_net::{
    FleetConfig, Node, NodeId, Order, OrderId, Point, RoadNetwork, ShardPolicy, TimeDelta,
    TimePoint,
};

/// Two clusters 200 km apart; deadlines allow in-cluster service only.
fn setup() -> (RoadNetwork, FleetConfig, Vec<Order>) {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(5.0, 0.0)),
        Node::factory(NodeId(2), Point::new(10.0, 0.0)),
        Node::depot(NodeId(3), Point::new(200.0, 0.0)),
        Node::factory(NodeId(4), Point::new(205.0, 0.0)),
        Node::factory(NodeId(5), Point::new(210.0, 0.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet = FleetConfig::homogeneous(
        2,
        &[NodeId(0), NodeId(3)],
        10.0,
        500.0,
        2.0,
        60.0,
        TimeDelta::ZERO,
    )
    .unwrap();
    // One order per cluster, one hour of slack: served locally in
    // minutes, unreachable from the other cluster (200 km ≈ 3.3 h).
    let orders = vec![
        Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(2),
            1.0,
            TimePoint::from_hours(8.0),
            TimePoint::from_hours(9.0),
        )
        .unwrap(),
        Order::new(
            OrderId(1),
            NodeId(4),
            NodeId(5),
            1.0,
            TimePoint::from_hours(8.0),
            TimePoint::from_hours(9.0),
        )
        .unwrap(),
    ];
    (net, fleet, orders)
}

/// Classifies `epoch` over an ungrouped fleet on a serial pool: the
/// work accounting and the work list.
fn classify(
    ctx: &ShardContext,
    planner: &RoutePlanner<'_>,
    views: &[VehicleView],
    epoch: &[OrderId],
) -> (ShardStats, Vec<(u32, u32)>) {
    let mut scr = SweepBuffers::default();
    let columns = ColumnMap::ungrouped(views.len());
    let pool = ThreadPool::new(1);
    let stats = plan_sweep(ctx, planner, views, epoch, None, &columns, &pool, &mut scr);
    (stats, scr.work)
}

/// Epoch-time views: the simulator advances every vehicle to the
/// decision instant before a batch forms, so anchor times sit at `now`
/// (a vehicle anchored in the past could pre-position and the bound
/// would rightly not prune it).
fn views_at(fleet: &FleetConfig, now: TimePoint) -> Vec<VehicleView> {
    fleet
        .vehicles
        .iter()
        .map(|v| {
            let mut view = VehicleView::idle_at_depot(v.id, v.depot);
            view.anchor_time = now;
            view
        })
        .collect()
}

#[test]
fn cross_cluster_cells_prune_and_escalation_overrides() {
    let (net, fleet, orders) = setup();
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let views = views_at(&fleet, TimePoint::from_hours(8.0));
    let map = Arc::new(ShardMap::build(&net, 2, ShardPolicy::default(), 7));
    let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();

    // No escalation: both cross-cluster cells prune.
    let ctx = ShardContext {
        map: Arc::clone(&map),
        escalation: 0,
    };
    let (stats, work) = classify(&ctx, &planner, &views, &epoch);
    assert_eq!(stats.cells, 4);
    assert_eq!(stats.pruned, 2);
    assert_eq!(stats.evaluated, 2);
    assert_eq!(stats.escalated, 0);
    assert_eq!(work.len(), 2);
    // Exactly the in-shard diagonal survives.
    assert!(work.contains(&(0, 0)));
    assert!(work.contains(&(1, 1)));

    // Escalation m = 1 forces the nearest foreign vehicle back in.
    let ctx = ShardContext { map, escalation: 1 };
    let (stats, work) = classify(&ctx, &planner, &views, &epoch);
    assert_eq!(stats.pruned, 0);
    assert_eq!(stats.escalated, 2);
    assert_eq!(work.len(), 4);
}

#[test]
fn loose_deadlines_keep_every_cell_evaluated() {
    let (net, fleet, mut orders) = setup();
    for o in &mut orders {
        o.deadline = TimePoint::from_hours(48.0);
    }
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let views = views_at(&fleet, TimePoint::from_hours(8.0));
    let map = Arc::new(ShardMap::build(&net, 2, ShardPolicy::default(), 7));
    let ctx = ShardContext { map, escalation: 0 };
    let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();
    let (stats, _) = classify(&ctx, &planner, &views, &epoch);
    assert_eq!(stats.pruned, 0);
    assert_eq!(stats.evaluated, 4);
    assert_eq!(stats.escalated, 2);
}

#[test]
fn hierarchical_escalation_stays_inside_the_parent_region() {
    // Four clusters in two metro regions: A = {x≈0, x≈40}, B =
    // {x≈1000, x≈1040}. At 60 km/h with half an hour of slack only the
    // in-cell vehicle can serve an order, so every cross-cell cell is
    // prunable — whatever survives beyond the diagonal is escalation.
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(1.0, 0.0)),
        Node::depot(NodeId(2), Point::new(40.0, 0.0)),
        Node::factory(NodeId(3), Point::new(41.0, 0.0)),
        Node::depot(NodeId(4), Point::new(1000.0, 0.0)),
        Node::factory(NodeId(5), Point::new(1001.0, 0.0)),
        Node::depot(NodeId(6), Point::new(1040.0, 0.0)),
        Node::factory(NodeId(7), Point::new(1041.0, 0.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet = FleetConfig::homogeneous(
        4,
        &[NodeId(0), NodeId(2), NodeId(4), NodeId(6)],
        10.0,
        500.0,
        2.0,
        60.0,
        TimeDelta::ZERO,
    )
    .unwrap();
    // One order picked up in cell A1 (classification keys on the
    // pickup node; the delivery in A2 leaves the cell assignment
    // untouched).
    let orders = vec![Order::new(
        OrderId(0),
        NodeId(1),
        NodeId(3),
        1.0,
        TimePoint::from_hours(8.0),
        TimePoint::from_hours(8.5),
    )
    .unwrap()];
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let views = views_at(&fleet, TimePoint::from_hours(8.0));
    let map = Arc::new(ShardMap::build(
        &net,
        4,
        ShardPolicy::Hierarchical {
            regions: 2,
            cells_per_region: 2,
            iterations: 8,
        },
        7,
    ));
    assert_eq!(map.num_regions(), 2);
    let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();

    // m = 3 would reach every foreign vehicle under a flat map; under
    // the hierarchical map only the same-region foreign vehicle (A2)
    // may consume an escalation slot — region B's two vehicles must
    // stay pruned however wide the escalation gets.
    let ctx = ShardContext {
        map: Arc::clone(&map),
        escalation: 3,
    };
    let (stats, _) = classify(&ctx, &planner, &views, &epoch);
    assert_eq!(stats.cells, 4);
    assert_eq!(stats.evaluated, 2, "in-cell + same-region escalation");
    assert_eq!(stats.escalated, 1);
    assert_eq!(
        stats.pruned, 2,
        "cross-region vehicles must not consume escalation slots"
    );
}

/// The block bound is live on a hierarchical map and changes nothing:
/// four clusters in two regions 1000 km apart, two vehicles per depot,
/// tight orders in every cluster and one loose one in region B. Some
/// cross-region blocks are dismissed whole, and the loose order's cell
/// keeps its block for region A's cells, so both sides of the check
/// run — while the work list and the counters are those of the
/// per-pair rule, computed here pair by pair: in-cell, escalated (the
/// `m` nearest foreign vehicles of the order's region) or not pruned
/// by `provably_infeasible`.
#[test]
fn dismissed_blocks_leave_the_per_pair_classification_unchanged() {
    let depots = [0.0, 40.0, 1000.0, 1040.0];
    let mut nodes = Vec::new();
    for &x in &depots {
        let id = NodeId::from_index(nodes.len());
        nodes.push(Node::depot(id, Point::new(x, 0.0)));
        for dx in [1.0, 3.0] {
            let id = NodeId::from_index(nodes.len());
            nodes.push(Node::factory(id, Point::new(x + dx, 1.0)));
        }
    }
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let homes: Vec<NodeId> = (0..4).map(|c| NodeId(3 * c)).collect();
    let fleet =
        FleetConfig::homogeneous(8, &homes, 10.0, 500.0, 2.0, 60.0, TimeDelta::ZERO).unwrap();
    let mut orders = Vec::new();
    for (c, slack_h) in [(0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5), (0, 0.6), (2, 48.0)] {
        let id = OrderId(orders.len() as u32);
        let (pickup, delivery) = (NodeId(3 * c + 1), NodeId(3 * c + 2));
        let created = TimePoint::from_hours(8.0);
        let deadline = TimePoint::from_hours(8.0 + slack_h);
        orders.push(Order::new(id, pickup, delivery, 1.0, created, deadline).unwrap());
    }
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let views = views_at(&fleet, TimePoint::from_hours(8.0));
    let policy = ShardPolicy::Hierarchical {
        regions: 2,
        cells_per_region: 2,
        iterations: 8,
    };
    let map = Arc::new(ShardMap::build(&net, 4, policy, 7));
    let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();
    let shard = |node: NodeId| map.shard_of(node);
    for m in [0, 1] {
        let ctx = ShardContext {
            map: Arc::clone(&map),
            escalation: m,
        };
        let mut scr = SweepBuffers::default();
        let columns = ColumnMap::ungrouped(views.len());
        let pool = ThreadPool::new(1);
        let stats = plan_sweep(
            &ctx, &planner, &views, &epoch, None, &columns, &pool, &mut scr,
        );
        // Which foreign-region blocks the bound dismissed, and kept.
        let (mut dismissed, mut kept) = (0, 0);
        for s in 0..4 {
            for &u in scr.order_cells.occupied() {
                if map.region_of(s) != map.region_of(u as usize) {
                    let block = scr.block[s * 4 + u as usize];
                    dismissed += usize::from(block == u32::MAX);
                    kept += usize::from(block != u32::MAX);
                }
            }
        }
        assert!(
            dismissed > 0 && kept > 0,
            "m {m}: {dismissed} dismissed, {kept} kept"
        );
        // The per-pair rule.
        let mut expect = ShardStats {
            cells: orders.len() * views.len(),
            ..ShardStats::default()
        };
        let mut work = Vec::new();
        let mut by_shard: Vec<usize> = (0..views.len()).collect();
        by_shard.sort_by_key(|&k| (shard(views[k].anchor_node), k));
        for &k in &by_shard {
            let vs = shard(views[k].anchor_node);
            for (i, order) in orders.iter().enumerate() {
                let os = shard(order.pickup);
                let d = |k: usize| net.distance(views[k].anchor_node, order.pickup);
                let mut rivals: Vec<usize> = (0..views.len())
                    .filter(|&r| {
                        let rs = shard(views[r].anchor_node);
                        rs != os && map.region_of(rs) == map.region_of(os)
                    })
                    .collect();
                rivals.sort_by(|&x, &y| d(x).total_cmp(&d(y)).then(x.cmp(&y)));
                let escalated = rivals[..m.min(rivals.len())].contains(&k);
                let foreign = vs != os;
                if !foreign || escalated || !planner.provably_infeasible(&views[k], order) {
                    expect.evaluated += 1;
                    expect.escalated += usize::from(foreign);
                    work.push((i as u32, k as u32));
                }
            }
        }
        expect.pruned = expect.cells - expect.evaluated;
        assert_eq!(stats, expect, "m {m}");
        assert_eq!(scr.work, work, "m {m}");
    }
}

#[test]
fn work_list_is_vehicle_shard_major() {
    let (net, fleet, orders) = setup();
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let views = views_at(&fleet, TimePoint::from_hours(8.0));
    let epoch: Vec<OrderId> = orders.iter().map(|o| o.id).collect();
    // Two shards, and the one cell of the unsharded default.
    for cells in [2, 1] {
        let map = Arc::new(ShardMap::build(&net, cells, ShardPolicy::default(), 7));
        let shard_of = |k: u32| map.shard_of(views[k as usize].anchor_node);
        let ctx = ShardContext {
            map: Arc::clone(&map),
            escalation: 2,
        };
        let (_, work) = classify(&ctx, &planner, &views, &epoch);
        let shards: Vec<usize> = work.iter().map(|&(_, k)| shard_of(k)).collect();
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        assert_eq!(shards, sorted, "work must group by vehicle shard");
        // Inside a shard the list is column-major: a column's cells are
        // one run, rows ascending (the batch's column index is this list).
        let runs: Vec<&[(u32, u32)]> = work.chunk_by(|a, b| a.1 == b.1).collect();
        let mut vehicles: Vec<u32> = runs.iter().map(|run| run[0].1).collect();
        assert_eq!(vehicles.len(), views.len(), "every vehicle has cells here");
        vehicles.sort_unstable();
        vehicles.dedup();
        assert_eq!(vehicles.len(), runs.len(), "one run per vehicle");
        for run in runs {
            assert!(run.len() > 1 && run.is_sorted_by(|a, b| a.0 < b.0));
        }
    }
}
