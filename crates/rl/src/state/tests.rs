use super::*;
use dpdp_data::FactoryIndex;
use dpdp_net::{
    FleetConfig, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta,
    TimePoint, VehicleId,
};
use dpdp_routing::{RoutePlanner, VehicleView};

fn fixture() -> (RoadNetwork, FleetConfig, Vec<Order>) {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(10.0, 0.0)),
        Node::factory(NodeId(2), Point::new(20.0, 0.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet =
        FleetConfig::homogeneous(2, &[NodeId(0)], 10.0, 500.0, 2.0, 60.0, TimeDelta::ZERO).unwrap();
    let orders = vec![Order::new(
        OrderId(0),
        NodeId(1),
        NodeId(2),
        5.0,
        TimePoint::from_hours(10.0),
        TimePoint::from_hours(20.0),
    )
    .unwrap()];
    (net, fleet, orders)
}

#[test]
fn build_fills_features_and_mask() {
    let (net, fleet, orders) = fixture();
    let views = vec![VehicleView::idle_at_depot(VehicleId(0), NodeId(0)), {
        let mut v = VehicleView::idle_at_depot(VehicleId(1), NodeId(0));
        v.used = true;
        v
    }];
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let plans: Vec<_> = views.iter().map(|v| planner.plan(v, &orders[0])).collect();
    let grid = IntervalGrid::paper_default();
    let ctx = DispatchContext {
        order: &orders[0],
        now: orders[0].created,
        interval: grid.interval_of(orders[0].created),
        views: &views,
        column_plans: &plans,
        column_of: &[0, 1],
        net: &net,
        fleet: &fleet,
        orders: &orders,
    };
    let builder = StateBuilder::new(100.0, 144, 4);
    let snap = builder.build(&ctx);
    assert_eq!(snap.features.shape(), (2, 5));
    assert!(snap.feasible.iter().all(|&f| f));
    assert!(snap.any_feasible());
    // d = 0 (idle at depot), d' = 40 km / 100.
    assert_eq!(snap.features.get(0, 0), 0.0);
    assert!((snap.features.get(0, 1) - 0.4).abs() < 1e-9);
    // Used flags.
    assert_eq!(snap.features.get(0, 3), 0.0);
    assert_eq!(snap.features.get(1, 3), 1.0);
    // 10:00 -> interval 60 of 144.
    assert!((snap.features.get(0, 4) - 60.0 / 144.0).abs() < 1e-9);
    assert_eq!(snap.neighbors.len(), 2);
}

#[test]
fn infeasible_vehicle_gets_sentinels() {
    let (net, fleet, mut orders) = fixture();
    orders[0].deadline = TimePoint::from_hours(10.001); // impossible
    let views = vec![VehicleView::idle_at_depot(VehicleId(0), NodeId(0))];
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let plans: Vec<_> = views.iter().map(|v| planner.plan(v, &orders[0])).collect();
    let ctx = DispatchContext {
        order: &orders[0],
        now: orders[0].created,
        interval: 60,
        views: &views,
        column_plans: &plans,
        column_of: &[0],
        net: &net,
        fleet: &fleet,
        orders: &orders,
    };
    let snap = StateBuilder::new(100.0, 144, 4).build(&ctx);
    assert!(!snap.any_feasible());
    for c in 0..4 {
        assert_eq!(snap.features.get(0, c), -1.0);
    }
}

#[test]
fn st_feature_requires_scorer_and_prediction() {
    let (net, fleet, orders) = fixture();
    let views = vec![VehicleView::idle_at_depot(VehicleId(0), NodeId(0))];
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let plans: Vec<_> = views.iter().map(|v| planner.plan(v, &orders[0])).collect();
    let grid = IntervalGrid::paper_default();
    let ctx = DispatchContext {
        order: &orders[0],
        now: orders[0].created,
        interval: 60,
        views: &views,
        column_plans: &plans,
        column_of: &[0],
        net: &net,
        fleet: &fleet,
        orders: &orders,
    };
    // Without prediction the feature stays 0 even with a scorer.
    let index = FactoryIndex::new(&[NodeId(1), NodeId(2)]);
    let builder = StateBuilder::new(100.0, 144, 4).with_scorer(StScorer::new(grid, index.clone()));
    assert!(!builder.st_active());
    let snap = builder.build(&ctx);
    assert_eq!(snap.features.get(0, 2), 0.0);
    // With a prediction concentrated away from the route, score > 0.
    let mut b2 = StateBuilder::new(100.0, 144, 4).with_scorer(StScorer::new(grid, index));
    let mut pred = StdMatrix::zeros(2, 144);
    *pred.get_mut(1, 143) = 50.0;
    b2.set_prediction(Some(pred));
    assert!(b2.st_active());
    let snap2 = b2.build(&ctx);
    assert!(snap2.features.get(0, 2) > 0.0);
}

/// Two vehicles parked at one depot are one column, one plan; the
/// returned one is used. They share `d`, `d'` and ξ, and each keeps its
/// own `used` flag.
#[test]
fn a_shared_column_keeps_each_members_used_flag() {
    let (net, fleet, orders) = fixture();
    let mut returned = VehicleView::idle_at_depot(VehicleId(1), NodeId(0));
    returned.used = true;
    let views = vec![
        VehicleView::idle_at_depot(VehicleId(0), NodeId(0)),
        returned,
    ];
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let plans = vec![planner.plan(&views[0], &orders[0])];
    let ctx = DispatchContext {
        order: &orders[0],
        now: orders[0].created,
        interval: 60,
        views: &views,
        column_plans: &plans,
        column_of: &[0, 0],
        net: &net,
        fleet: &fleet,
        orders: &orders,
    };
    let snap = StateBuilder::new(100.0, 144, 4).build(&ctx);
    assert_eq!(snap.feasible, [true, true]);
    for c in [0, 1, 2, 4] {
        assert_eq!(
            snap.features.get(0, c),
            snap.features.get(1, c),
            "feature {c}"
        );
    }
    assert_eq!(
        (snap.features.get(0, 3), snap.features.get(1, 3)),
        (0.0, 1.0)
    );
}

#[test]
#[should_panic(expected = "columns are numbered by first member")]
fn columns_out_of_first_member_order_panic() {
    let (net, fleet, orders) = fixture();
    let views: Vec<VehicleView> = (0..2)
        .map(|v| VehicleView::idle_at_depot(VehicleId(v), NodeId(0)))
        .collect();
    let planner = RoutePlanner::new(&net, &fleet, &orders);
    let plans: Vec<_> = views.iter().map(|v| planner.plan(v, &orders[0])).collect();
    let ctx = DispatchContext {
        order: &orders[0],
        now: orders[0].created,
        interval: 60,
        views: &views,
        column_plans: &plans,
        column_of: &[1, 0],
        net: &net,
        fleet: &fleet,
        orders: &orders,
    };
    StateBuilder::new(100.0, 144, 4).build(&ctx);
}

/// Random fleets through real batch contexts: the columns a
/// `DecisionBatch` shares change no feature bit.
mod columns {
    use super::*;
    use dpdp_data::StScorer;
    use dpdp_net::Instance;
    use dpdp_sim::{BufferingMode, Dispatcher, Simulator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The joint state as the build wrote it before contexts had columns:
    /// every vehicle's row from Algorithm 2 run on its own view, ξ on its
    /// own view too.
    fn per_vehicle_build(builder: &StateBuilder, ctx: &DispatchContext<'_>) -> StateSnapshot {
        let planner = RoutePlanner::new(ctx.net, ctx.fleet, ctx.orders);
        let k = ctx.views.len();
        let mut features = Tensor::zeros(k, STATE_DIM);
        let mut feasible = vec![false; k];
        let t_feat = ctx.interval as f64 / builder.interval_scale;
        for (v, view) in ctx.views.iter().enumerate() {
            let plan = planner.plan(view, ctx.order);
            let row: [f64; STATE_DIM] = match &plan.best {
                Some(best) => {
                    feasible[v] = true;
                    let xi = match (&builder.scorer, &builder.predicted) {
                        (Some(scorer), Some(pred)) => {
                            scorer.score(view, &best.candidate.schedule, pred, ctx.fleet.capacity)
                        }
                        _ => 0.0,
                    };
                    [
                        plan.current_length / builder.dist_scale,
                        best.length() / builder.dist_scale,
                        xi,
                        if view.used { 1.0 } else { 0.0 },
                        t_feat,
                    ]
                }
                None => [-1.0, -1.0, -1.0, -1.0, t_feat],
            };
            for (c, x) in row.into_iter().enumerate() {
                *features.get_mut(v, c) = x;
            }
        }
        StateSnapshot {
            features,
            feasible,
            neighbors: nearest_neighbors(ctx.views, ctx.net, builder.ne),
        }
    }

    /// Feasible vehicles whose features 0–2 were copied from their column's
    /// first member, over every context of the property below, and of them
    /// the ones that had been used (parked where their last job ended).
    static COPIED: AtomicU64 = AtomicU64::new(0);
    static COPIED_USED: AtomicU64 = AtomicU64::new(0);

    /// Checks one context: members of a column agree on every feature bit
    /// but `f_{t,k}`, and the build is the per-vehicle build, bit for bit.
    fn check(builder: &StateBuilder, ctx: &DispatchContext<'_>) -> Result<(), String> {
        let snap = builder.build(ctx);
        let reference = per_vehicle_build(builder, ctx);
        let bits = |s: &StateSnapshot, v: usize| -> Vec<u64> {
            s.features.row(v).iter().map(|x| x.to_bits()).collect()
        };
        let mut first: Vec<usize> = Vec::new();
        for (v, &c) in ctx.column_of.iter().enumerate() {
            if bits(&snap, v) != bits(&reference, v) {
                return Err(format!(
                    "{} on vehicle {v} (column {c}): {:?} built, {:?} per vehicle",
                    ctx.order.id,
                    snap.features.row(v),
                    reference.features.row(v)
                ));
            }
            let Some(&f) = first.get(c as usize) else {
                first.push(v);
                continue;
            };
            let (row, first_row) = (bits(&snap, v), bits(&snap, f));
            for feature in [0, 1, 2, 4] {
                if row[feature] != first_row[feature] {
                    return Err(format!(
                        "{}: vehicles {f} and {v} share column {c} but not feature {feature}",
                        ctx.order.id
                    ));
                }
            }
            if snap.feasible[v] {
                COPIED.fetch_add(1, Ordering::Relaxed);
                COPIED_USED.fetch_add(u64::from(ctx.views[v].used), Ordering::Relaxed);
            }
        }
        if snap.feasible != reference.feasible || snap.neighbors != reference.neighbors {
            return Err(format!("{}: mask or neighbour lists differ", ctx.order.id));
        }
        Ok(())
    }

    /// Checks every context it is shown, then takes a random feasible
    /// vehicle, so vehicles of every depot go out, finish and park.
    struct Audit<'b> {
        builder: &'b StateBuilder,
        rng: StdRng,
        failure: Option<String>,
    }

    impl Dispatcher for Audit<'_> {
        fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
            if self.failure.is_none() {
                self.failure = check(self.builder, ctx).err();
            }
            let feasible: Vec<VehicleId> = ctx.feasible_vehicles().collect();
            (!feasible.is_empty()).then(|| feasible[self.rng.random_range(0..feasible.len())])
        }
    }

    /// A random morning: 1–3 depots and 2–4 factories on a 20 km square,
    /// 2–16 vehicles homed round robin, 6–24 light orders created between
    /// 08:00 and 11:00, each due two to five hours later. Few factories and
    /// short days: vehicles of different depots finish at one factory and
    /// park there side by side.
    fn random_world(rng: &mut StdRng) -> (Instance, Vec<NodeId>) {
        let depots = rng.random_range(1..=3usize);
        let factories = rng.random_range(2..=4usize);
        let nodes = (0..depots + factories)
            .map(|n| {
                let at = Point::new(rng.random_range(0.0..20.0), rng.random_range(0.0..20.0));
                let id = NodeId::from_index(n);
                if n < depots {
                    Node::depot(id, at)
                } else {
                    Node::factory(id, at)
                }
            })
            .collect();
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let homes: Vec<NodeId> = (0..depots).map(NodeId::from_index).collect();
        let vehicles = rng.random_range(2..=16usize);
        let fleet =
            FleetConfig::homogeneous(vehicles, &homes, 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO)
                .unwrap();
        let factory_ids: Vec<NodeId> = (depots..depots + factories)
            .map(NodeId::from_index)
            .collect();
        let mut orders: Vec<Order> = (0..rng.random_range(6..=24usize))
            .map(|_| {
                let pickup = rng.random_range(0..factories);
                let delivery = (pickup + rng.random_range(1..factories)) % factories;
                let created = TimePoint::from_hours(8.0 + rng.random_range(0.0..3.0));
                let due = created + TimeDelta::from_hours(rng.random_range(2.0..5.0));
                let quantity = f64::from(rng.random_range(1..=4u8));
                let (pickup, delivery) = (factory_ids[pickup], factory_ids[delivery]);
                Order::new(OrderId(0), pickup, delivery, quantity, created, due).unwrap()
            })
            .collect();
        orders.sort_by(|a, b| a.created.seconds().total_cmp(&b.created.seconds()));
        for (i, order) in orders.iter_mut().enumerate() {
            order.id = OrderId::from_index(i);
        }
        let instance = Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap();
        (instance, factory_ids)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Run by `a_columns_members_get_equal_rows_and_the_per_vehicle_build`.
        fn random_column_case(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (instance, factories) = random_world(&mut rng);
            let grid = instance.grid;
            let index = FactoryIndex::new(&factories);
            let mut builder =
                StateBuilder::new(100.0, 144, 4).with_scorer(StScorer::new(grid, index.clone()));
            builder.set_prediction(Some(StdMatrix::from_orders(instance.orders(), &grid, &index)));
            let buffering = match rng.random_range(0..3u8) {
                0 => BufferingMode::Immediate,
                minutes => BufferingMode::FixedInterval(TimeDelta::from_minutes(f64::from(minutes) * 15.0)),
            };
            let sim = Simulator::builder(&instance).buffering(buffering).build().unwrap();
            let mut audit = Audit {
                builder: &builder,
                rng: StdRng::seed_from_u64(seed ^ 0x5eed),
                failure: None,
            };
            sim.run(&mut audit);
            prop_assert!(
                audit.failure.is_none(),
                "seed {seed}: {}",
                audit.failure.unwrap_or_default()
            );
        }
    }

    #[test]
    fn a_columns_members_get_equal_rows_and_the_per_vehicle_build() {
        random_column_case();
        // Non-vacuous: features were copied, to parked used vehicles too.
        let (copied, used) = (
            COPIED.load(Ordering::Relaxed),
            COPIED_USED.load(Ordering::Relaxed),
        );
        assert!(
            copied > 500 && used > 20,
            "{copied} rows copied, {used} of them used"
        );
    }
}
