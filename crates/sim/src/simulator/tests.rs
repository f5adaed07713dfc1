use super::*;
use crate::batch::{DecisionBatch, DecisionReason};
use crate::dispatcher::FirstFeasible;
use dpdp_net::{
    FleetConfig, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta,
    TimePoint,
};

fn instance(num_vehicles: usize, orders: Vec<Order>) -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(10.0, 0.0)),
        Node::factory(NodeId(2), Point::new(20.0, 0.0)),
        Node::factory(NodeId(3), Point::new(30.0, 0.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet = FleetConfig::homogeneous(
        num_vehicles,
        &[NodeId(0)],
        10.0,
        500.0,
        2.0,
        60.0,
        TimeDelta::ZERO,
    )
    .unwrap();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
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

fn sim(inst: &Instance) -> Simulator<'_> {
    Simulator::builder(inst)
        .build()
        .expect("immediate never fails")
}

#[test]
fn single_order_single_vehicle() {
    let inst = instance(1, vec![order(0, 1, 2, 5.0, 8.0, 20.0)]);
    let result = sim(&inst).run(&mut FirstFeasible);
    assert_eq!(result.metrics.nuv, 1);
    assert_eq!(result.metrics.served, 1);
    assert_eq!(result.metrics.rejected, 0);
    // Route 0 -> 1 -> 2 -> 0 = 40 km; TC = 500 + 2 * 40 = 580.
    assert!((result.metrics.ttl - 40.0).abs() < 1e-9);
    assert!((result.metrics.total_cost - 580.0).abs() < 1e-9);
    assert_eq!(result.metrics.avg_response_secs, 0.0);
    assert_eq!(result.assignments[0].reason, DecisionReason::Assigned);
}

#[test]
fn infeasible_order_is_rejected() {
    // Deadline before any vehicle can reach the delivery node.
    let inst = instance(1, vec![order(0, 1, 2, 5.0, 8.0, 8.01)]);
    let result = sim(&inst).run(&mut FirstFeasible);
    assert_eq!(result.metrics.served, 0);
    assert_eq!(result.metrics.rejected, 1);
    assert_eq!(result.metrics.nuv, 0);
    assert_eq!(result.metrics.ttl, 0.0);
    assert_eq!(result.assignments[0].vehicle, None);
    assert_eq!(
        result.assignments[0].reason,
        DecisionReason::NoFeasibleVehicle
    );
}

#[test]
fn capacity_forces_second_vehicle() {
    // Two simultaneous heavy orders on the same lane: capacity (9+9 > 10)
    // forbids carrying both, and the deadlines are too tight to serve
    // them sequentially, so a second vehicle is needed. Both orders
    // share one decision epoch (same creation instant), so this also
    // exercises the within-batch plan delta.
    let inst = instance(
        2,
        vec![
            order(0, 1, 2, 9.0, 8.0, 8.34),
            order(1, 1, 2, 9.0, 8.0, 8.34),
        ],
    );
    let result = sim(&inst).run(&mut FirstFeasible);
    assert_eq!(result.metrics.served, 2);
    assert_eq!(result.metrics.nuv, 2);
}

#[test]
fn total_cost_identity_holds() {
    let inst = instance(
        3,
        vec![
            order(0, 1, 2, 2.0, 8.0, 20.0),
            order(1, 2, 3, 3.0, 9.0, 20.0),
            order(2, 3, 1, 4.0, 10.0, 20.0),
        ],
    );
    let result = sim(&inst).run(&mut FirstFeasible);
    let m = &result.metrics;
    let expect = inst.fleet.total_cost(m.nuv, m.ttl);
    assert!((m.total_cost - expect).abs() < 1e-9);
    assert_eq!(m.served + m.rejected, inst.num_orders());
}

#[test]
fn vehicle_stats_are_consistent_with_aggregates() {
    let inst = instance(
        3,
        vec![
            order(0, 1, 2, 2.0, 8.0, 20.0),
            order(1, 3, 1, 3.0, 9.0, 20.0),
        ],
    );
    let result = sim(&inst).run(&mut FirstFeasible);
    assert_eq!(result.vehicles.len(), 3);
    let used = result.vehicles.iter().filter(|v| v.used).count();
    assert_eq!(used, result.metrics.nuv);
    let total: f64 = result.vehicles.iter().map(|v| v.travel_km).sum();
    assert!((total - result.metrics.ttl).abs() < 1e-9);
    let accepted: usize = result.vehicles.iter().map(|v| v.orders_accepted).sum();
    assert_eq!(accepted, result.metrics.served);
    for v in &result.vehicles {
        assert_eq!(v.used, v.orders_accepted > 0);
        assert!(v.travel_km >= 0.0);
    }
}

#[test]
fn buffering_delays_decisions() {
    let inst = instance(1, vec![order(0, 1, 2, 5.0, 8.05, 20.0)]);
    let result = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .build()
        .unwrap()
        .run(&mut FirstFeasible);
    assert_eq!(result.metrics.served, 1);
    // Created 8:03, flushed at 8:30 -> 27 minutes response.
    let expect = 8.5 * 3600.0 - 8.05 * 3600.0;
    assert!((result.metrics.avg_response_secs - expect).abs() < 1e-6);
    assert!(result.assignments[0].time > TimePoint::from_hours(8.05));
}

#[test]
fn hitchhike_reuses_vehicle() {
    // Second order lies exactly on the first's path and fits capacity:
    // the first-feasible dispatcher reuses vehicle 0 with no extra km.
    let inst = instance(
        2,
        vec![
            order(0, 1, 3, 4.0, 8.0, 20.0),
            order(1, 1, 3, 4.0, 8.0, 20.0),
        ],
    );
    let result = sim(&inst).run(&mut FirstFeasible);
    assert_eq!(result.metrics.nuv, 1);
    assert!((result.metrics.ttl - 60.0).abs() < 1e-9);
    assert!((result.assignments[1].incremental_length()).abs() < 1e-9);
}

#[test]
fn order_created_exactly_on_flush_multiple_decides_at_that_flush() {
    // 8:30 is exactly the 17th multiple of a 30-minute period.
    let inst = instance(1, vec![order(0, 1, 2, 5.0, 8.5, 20.0)]);
    let s = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .build()
        .unwrap();
    assert_eq!(
        s.decision_time(TimePoint::from_hours(8.5)),
        TimePoint::from_hours(8.5),
    );
    let result = s.run(&mut FirstFeasible);
    assert_eq!(result.metrics.avg_response_secs, 0.0);
    assert_eq!(result.assignments[0].time, TimePoint::from_hours(8.5));
}

#[test]
fn decision_time_boundary_survives_float_rounding() {
    // With an awkward period, created / period can round up past the
    // true quotient; the guard must keep created = k * period on flush
    // k. 0.1 s is the classic non-representable decimal.
    let inst = instance(1, vec![]);
    let s = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_seconds(0.1)))
        .build()
        .unwrap();
    for k in 1..2000u32 {
        let created = TimePoint::from_seconds(k as f64 * 0.1);
        let decided = s.decision_time(created);
        assert!(
            decided == created,
            "created at multiple {k} of 0.1 s delayed from {:?} to {:?}",
            created,
            decided
        );
    }
    // Orders strictly inside a period still wait for the next flush.
    let inside = s.decision_time(TimePoint::from_seconds(0.05));
    assert!((inside.seconds() - 0.1).abs() < 1e-12);
}

#[test]
fn non_positive_period_is_a_build_error() {
    let inst = instance(1, vec![]);
    for seconds in [0.0, -10.0] {
        let err = Simulator::builder(&inst)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_seconds(
                seconds,
            )))
            .build()
            .unwrap_err();
        assert_eq!(err, SimBuildError::NonPositivePeriod { seconds });
        assert!(err.to_string().contains("must be positive"));
    }
}

#[test]
fn metrics_options_suppress_logs_without_changing_aggregates() {
    let orders = vec![
        order(0, 1, 2, 2.0, 8.0, 20.0),
        order(1, 2, 3, 3.0, 9.0, 20.0),
    ];
    let inst = instance(2, orders);
    let full = sim(&inst).run(&mut FirstFeasible);
    let lean = Simulator::builder(&inst)
        .metrics(MetricsOptions {
            record_assignments: false,
            record_vehicle_stats: false,
        })
        .build()
        .unwrap()
        .run(&mut FirstFeasible);
    assert_eq!(full.metrics, lean.metrics);
    assert!(lean.assignments.is_empty());
    assert!(lean.vehicles.is_empty());
    assert_eq!(full.assignments.len(), 2);
    assert_eq!(full.vehicles.len(), 2);
}

#[test]
fn unresolved_decisions_are_revalidated_not_trusted() {
    // A rogue dispatcher that never touches `DecisionBatch::resolve`
    // and claims every order for vehicle 0: the simulator must take
    // the re-validation path, honouring feasible claims and degrading
    // infeasible ones to rejections.
    struct ClaimVehicleZero;
    impl Dispatcher for ClaimVehicleZero {
        fn dispatch(
            &mut self,
            _ctx: &crate::dispatcher::DispatchContext<'_>,
        ) -> Option<dpdp_net::VehicleId> {
            unreachable!("batch override bypasses per-order dispatch")
        }
        fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
            batch
                .order_ids()
                .iter()
                .map(|&oid| Decision::assigned(oid, dpdp_net::VehicleId(0)))
                .collect()
        }
    }

    // Two heavy same-instant orders: vehicle 0 can only take one.
    let inst = instance(
        2,
        vec![
            order(0, 1, 2, 9.0, 8.0, 8.34),
            order(1, 1, 2, 9.0, 8.0, 8.34),
        ],
    );
    let result = sim(&inst).run(&mut ClaimVehicleZero);
    assert_eq!(result.metrics.served, 1);
    assert_eq!(result.metrics.rejected, 1);
    assert_eq!(result.assignments[0].vehicle, Some(dpdp_net::VehicleId(0)));
    assert_eq!(
        result.assignments[1].reason,
        DecisionReason::InfeasibleChoice,
        "bogus claim must degrade to a rejection"
    );
}

#[test]
fn builder_carries_seed() {
    let inst = instance(1, vec![]);
    let s = Simulator::builder(&inst).seed(99).build().unwrap();
    assert_eq!(s.seed(), 99);
}

#[test]
fn zero_threads_is_a_build_error() {
    let inst = instance(1, vec![]);
    let err = Simulator::builder(&inst)
        .num_threads(0)
        .build()
        .unwrap_err();
    assert_eq!(err, SimBuildError::ZeroThreads);
    assert!(err.to_string().contains("at least 1"));
}

#[test]
fn zero_shards_is_a_config_error() {
    let err = ShardConfig::flat(0).unwrap_err();
    assert_eq!(err, SimBuildError::ZeroShards);
    assert!(err.to_string().contains("at least 1"));
}

#[test]
fn episode_results_are_shard_count_invariant() {
    // Same fixture as the thread-parity test: multi-order epochs
    // exercise the sharded sweep and the per-commit column delta.
    let inst = instance(
        3,
        vec![
            order(0, 1, 2, 9.0, 8.0, 8.34),
            order(1, 1, 2, 9.0, 8.0, 8.34),
            order(2, 2, 3, 4.0, 9.0, 20.0),
            order(3, 3, 1, 4.0, 9.0, 20.0),
        ],
    );
    let flat = Simulator::builder(&inst)
        .build()
        .unwrap()
        .run(&mut FirstFeasible);
    let configs = [
        ShardConfig::flat(2).unwrap(),
        ShardConfig::flat(3).unwrap(),
        ShardConfig::flat(8).unwrap(),
        ShardConfig::hierarchical(2, 2).unwrap(),
        ShardConfig::hierarchical(2, 4).unwrap().escalation(0),
        ShardConfig::flat(4)
            .unwrap()
            .repartition(crate::sharding::RepartitionPolicy::Periodic {
                every_epochs: 1,
                min_orders: 1,
            })
            .unwrap(),
    ];
    for config in configs {
        let expect_shards = config.num_shards();
        let s = Simulator::builder(&inst)
            .sharding(config.clone())
            .build()
            .unwrap();
        assert_eq!(s.num_shards(), expect_shards);
        assert_eq!(s.shard_map().num_shards(), expect_shards);
        let sharded = s.run(&mut FirstFeasible);
        assert_eq!(flat, sharded, "{config:?} diverged from one cell");
    }
}

#[test]
fn episode_results_are_thread_count_invariant() {
    // Multi-order epochs (shared creation instants) exercise the
    // parallel B x K sweep and the per-commit plan delta.
    let inst = instance(
        3,
        vec![
            order(0, 1, 2, 9.0, 8.0, 8.34),
            order(1, 1, 2, 9.0, 8.0, 8.34),
            order(2, 2, 3, 4.0, 9.0, 20.0),
            order(3, 3, 1, 4.0, 9.0, 20.0),
        ],
    );
    let serial = Simulator::builder(&inst)
        .build()
        .unwrap()
        .run(&mut FirstFeasible);
    for threads in [2, 4] {
        let s = Simulator::builder(&inst)
            .num_threads(threads)
            .build()
            .unwrap();
        assert_eq!(s.num_threads(), threads);
        let parallel = s.run(&mut FirstFeasible);
        assert_eq!(serial, parallel, "{threads} threads diverged from serial");
    }
}
