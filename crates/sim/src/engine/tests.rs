use super::*;
use crate::dispatcher::FirstFeasible;
use crate::event::{DisruptionConfig, TimedEvent};
use crate::observer::EventCounter;
use dpdp_net::{FleetConfig, Instance, IntervalGrid, Node, NodeId, Point, RoadNetwork, TimeDelta};

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

/// A fixed pre-sorted event list, for injecting disruptions in tests.
struct Fixed(std::vec::IntoIter<TimedEvent>);

impl Fixed {
    fn new(events: Vec<TimedEvent>) -> Self {
        Fixed(events.into_iter())
    }
}

impl EventSource for Fixed {
    fn next_event(&mut self) -> Option<TimedEvent> {
        self.0.next()
    }
}

fn run_with_events(
    inst: &Instance,
    buffering: crate::simulator::BufferingMode,
    events: Vec<TimedEvent>,
    counter: &mut EventCounter,
) -> EpisodeResult {
    let sim = Simulator::builder(inst)
        .buffering(buffering)
        .build()
        .unwrap();
    let sources: Vec<Box<dyn EventSource + '_>> = vec![
        Box::new(crate::event::ReplaySource::new(inst)),
        Box::new(Fixed::new(events)),
    ];
    sim.run_events(sources, &mut FirstFeasible, &mut [&mut *counter])
}

#[test]
fn replayed_orders_are_decided_at_their_decision_times() {
    use crate::simulator::BufferingMode;
    // Order 2 is created half a second after orders 0 and 1; under
    // immediate dispatch it is decided in an epoch of its own.
    let mut half_second_later = order(2, 1, 3, 1.0, 8.0, 20.0);
    half_second_later.created = TimePoint::from_seconds(8.0 * 3600.0 + 0.5);
    let inst = instance(
        3,
        vec![
            order(0, 1, 2, 9.0, 8.0, 8.34),
            order(1, 1, 2, 9.0, 8.0, 8.34),
            half_second_later,
            order(3, 2, 3, 4.0, 9.0, 20.0),
            order(4, 3, 1, 4.0, 9.0, 20.0),
        ],
    );
    // Under half-hourly buffering order 2 waits for the 8:30 flush.
    let half_hourly = BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0));
    for (buffering, order_2_at) in [(BufferingMode::Immediate, 0.5), (half_hourly, 1800.0)] {
        let sim = Simulator::builder(&inst)
            .buffering(buffering)
            .build()
            .unwrap();
        // (order, vehicle, reason, decision time in seconds after 8:00).
        let decisions: Vec<_> = sim
            .run(&mut FirstFeasible)
            .assignments
            .iter()
            .map(|r| {
                let after_eight = r.time.seconds() - 8.0 * 3600.0;
                (r.order.0, r.vehicle.map(|k| k.0), r.reason, after_eight)
            })
            .collect();
        use DecisionReason::Assigned;
        let expected = [
            (0, Some(0), Assigned, 0.0),
            (1, Some(1), Assigned, 0.0),
            (2, Some(0), Assigned, order_2_at),
            (3, Some(0), Assigned, 3600.0),
            (4, Some(0), Assigned, 3600.0),
        ];
        assert_eq!(decisions, expected, "under {buffering:?}");
    }
}

#[test]
fn buffered_cancellation_before_dispatch_never_reaches_the_policy() {
    use crate::simulator::BufferingMode;
    // Created 8:05, due at the 8:30 flush, cancelled at 8:10.
    let inst = instance(1, vec![order(0, 1, 2, 5.0, 8.05, 20.0)]);
    let mut counter = EventCounter::default();
    let result = run_with_events(
        &inst,
        BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)),
        vec![TimedEvent {
            time: TimePoint::from_hours(8.0 + 10.0 / 60.0),
            event: SimEvent::OrderCancelled(OrderId(0)),
        }],
        &mut counter,
    );
    assert_eq!(result.metrics.served, 0);
    assert_eq!(result.metrics.rejected, 1);
    assert_eq!(result.metrics.rejections.cancelled, 1);
    assert_eq!(result.assignments[0].reason, DecisionReason::Cancelled);
    assert_eq!(counter.epochs, 0, "the cancelled order forms no epoch");
    assert_eq!(counter.cancellations, 1);
    assert_eq!(counter.decisions, 1);
}

#[test]
fn post_assignment_cancellation_shortens_the_route_by_surgery() {
    // Order 0 departs immediately at 8:00 (pickup driven, onboard);
    // order 1 is appended at 8:05 while the vehicle is mid-leg, so its
    // pickup is still undriven when the 8:07 cancellation lands.
    let inst = instance(
        1,
        vec![
            order(0, 1, 2, 2.0, 8.0, 20.0),
            order(1, 1, 2, 2.0, 8.0 + 5.0 / 60.0, 20.0),
        ],
    );
    let mut counter = EventCounter::default();
    let result = run_with_events(
        &inst,
        crate::simulator::BufferingMode::Immediate,
        vec![TimedEvent {
            time: TimePoint::from_hours(8.0 + 7.0 / 60.0),
            event: SimEvent::OrderCancelled(OrderId(1)),
        }],
        &mut counter,
    );
    assert_eq!(result.metrics.served, 1);
    assert_eq!(result.metrics.rejected, 1);
    assert_eq!(result.metrics.rejections.cancelled, 1);
    let rec1 = result
        .assignments
        .iter()
        .find(|r| r.order == OrderId(1))
        .unwrap();
    assert_eq!(rec1.reason, DecisionReason::Cancelled);
    assert_eq!(rec1.vehicle, None);
    // The surgically shortened route still serves order 0 alone: the
    // vehicle ends with exactly order 0's travel (0->1->2->0 = 40 km).
    assert!((result.metrics.ttl - 40.0).abs() < 1e-9);
    assert_eq!(result.vehicles[0].orders_accepted, 1);
    assert_eq!(counter.cancellations, 1);
}

#[test]
fn cancelling_a_driven_pickup_is_too_late() {
    let inst = instance(1, vec![order(0, 1, 2, 2.0, 8.0, 20.0)]);
    let mut counter = EventCounter::default();
    let result = run_with_events(
        &inst,
        crate::simulator::BufferingMode::Immediate,
        vec![TimedEvent {
            time: TimePoint::from_hours(8.05),
            event: SimEvent::OrderCancelled(OrderId(0)),
        }],
        &mut counter,
    );
    // Pickup departed at 8:00 sharp: the cancellation has no effect.
    assert_eq!(result.metrics.served, 1);
    assert_eq!(result.metrics.rejections.cancelled, 0);
    assert_eq!(counter.cancellations, 1, "the event still fired");
}

#[test]
fn breakdown_strands_undriven_orders_and_loses_onboard_cargo() {
    let created_1 = 8.0 + 5.0 / 60.0;
    let inst = instance(
        2,
        vec![
            order(0, 1, 2, 2.0, 8.0, 20.0),
            order(1, 2, 3, 2.0, created_1, 20.0),
        ],
    );
    let breakdown = TimePoint::from_hours(created_1 + 0.5 / 3600.0);
    let mut counter = EventCounter::default();
    let result = run_with_events(
        &inst,
        crate::simulator::BufferingMode::Immediate,
        vec![TimedEvent {
            time: breakdown,
            event: SimEvent::VehicleBreakdown(VehicleId(0)),
        }],
        &mut counter,
    );
    // First-feasible put both orders on vehicle 0; order 1's epoch
    // commits before the breakdown half a second later. Then order 0 is
    // onboard (lost) and order 1's pickup is undriven (stranded); the
    // stranded order re-dispatches to vehicle 1 at the breakdown instant.
    assert_eq!(counter.breakdowns, 1);
    assert_eq!(result.metrics.served, 1);
    assert_eq!(result.metrics.rejected, 1);
    assert_eq!(result.metrics.rejections.vehicle_lost, 1);
    let rec0 = result
        .assignments
        .iter()
        .find(|r| r.order == OrderId(0))
        .unwrap();
    assert_eq!(rec0.reason, DecisionReason::VehicleLost);
    let rec1 = result
        .assignments
        .iter()
        .find(|r| r.order == OrderId(1))
        .unwrap();
    assert_eq!(rec1.vehicle, Some(VehicleId(1)));
    assert_eq!(rec1.time, breakdown, "re-dispatched at the breakdown");
    // One final record per order; totals invariant holds.
    assert_eq!(result.assignments.len(), 2);
    assert_eq!(
        result.metrics.served + result.metrics.rejections.total(),
        inst.num_orders()
    );
    // The broken vehicle keeps its driven kilometres and used flag.
    assert!(result.vehicles[0].used);
    assert!(result.vehicles[0].travel_km > 0.0);
    assert_eq!(result.vehicles[0].orders_accepted, 0);
}

#[test]
fn a_stranded_order_waits_for_the_next_flush() {
    // Both orders go to vehicle 0 at 8:00; its 8:06 breakdown strands
    // order 1, which half-hourly buffering re-dispatches at 8:30.
    let inst = instance(
        2,
        vec![
            order(0, 1, 2, 2.0, 8.0, 20.0),
            order(1, 2, 3, 2.0, 8.0, 20.0),
        ],
    );
    let breakdown = TimedEvent {
        time: TimePoint::from_hours(8.1),
        event: SimEvent::VehicleBreakdown(VehicleId(0)),
    };
    let half_hourly = crate::simulator::BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0));
    let mut counter = EventCounter::default();
    let result = run_with_events(&inst, half_hourly, vec![breakdown], &mut counter);
    let stranded = &result.assignments[1];
    assert_eq!(
        (stranded.order, stranded.vehicle, stranded.time),
        (OrderId(1), Some(VehicleId(1)), TimePoint::from_hours(8.5))
    );
}

#[test]
fn broken_vehicle_is_masked_until_recovery() {
    let inst = instance(
        1,
        vec![
            order(0, 1, 2, 2.0, 8.0 + 5.0 / 60.0, 20.0),
            order(1, 2, 3, 2.0, 9.0, 20.0),
        ],
    );
    let mut counter = EventCounter::default();
    let result = run_with_events(
        &inst,
        crate::simulator::BufferingMode::Immediate,
        vec![
            TimedEvent {
                time: TimePoint::from_hours(8.0),
                event: SimEvent::VehicleBreakdown(VehicleId(0)),
            },
            TimedEvent {
                time: TimePoint::from_hours(8.5),
                event: SimEvent::VehicleRecovered(VehicleId(0)),
            },
        ],
        &mut counter,
    );
    // Broken at 8:00: the 8:05 order finds no feasible vehicle.
    // Recovered at 8:30: the 9:00 order is served.
    assert_eq!(
        result.assignments[0].reason,
        DecisionReason::NoFeasibleVehicle
    );
    assert_eq!(result.assignments[1].reason, DecisionReason::Assigned);
    assert_eq!(counter.breakdowns, 1);
    assert_eq!(counter.recoveries, 1);
}

/// A batch-native dispatcher that is one function of the batch.
struct Scripted(fn(&DecisionBatch<'_>) -> Vec<Decision>);

impl Dispatcher for Scripted {
    fn dispatch(&mut self, _ctx: &crate::dispatcher::DispatchContext<'_>) -> Option<VehicleId> {
        unreachable!("batch override bypasses per-order dispatch")
    }
    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        (self.0)(batch)
    }
}

#[test]
fn leftover_orders_commit_after_the_policys_own_with_records_in_batch_order() {
    // The hitchhike fixture: both orders ride vehicle 0, and whichever
    // commits first opens the vehicle and pays the whole 60 km.
    let inst = instance(
        2,
        vec![
            order(0, 1, 3, 4.0, 8.0, 20.0),
            order(1, 1, 3, 4.0, 8.0, 20.0),
        ],
    );
    // Resolves the second order itself, returns a bare claim for the first.
    let sim = Simulator::builder(&inst).build().unwrap();
    let mixed = sim.run(&mut Scripted(|batch| {
        let second = batch.resolve(1, Some(VehicleId(0)));
        let first = Decision::assigned(batch.order_ids()[0], VehicleId(0));
        vec![first, second]
    }));
    let all_resolved = sim.run(&mut Scripted(|batch| {
        let second = batch.resolve(1, Some(VehicleId(0)));
        vec![batch.resolve(0, Some(VehicleId(0))), second]
    }));
    assert_eq!(mixed, all_resolved);
    // Records in batch order, both on vehicle 0 — and the policy's own
    // commit went first: the engine's leftover found the vehicle open.
    let [first, second] = &mixed.assignments[..] else {
        panic!("one record per order");
    };
    assert_eq!((first.order, second.order), (OrderId(0), OrderId(1)));
    assert_eq!(
        (first.vehicle, second.vehicle),
        (Some(VehicleId(0)), Some(VehicleId(0)))
    );
    assert!(!second.vehicle_was_used && first.vehicle_was_used);
    assert!(first.incremental_length().abs() < 1e-9);
}

#[test]
#[should_panic(expected = "did not commit")]
fn returning_a_decision_that_contradicts_its_commit_panics() {
    let inst = instance(1, vec![order(0, 1, 2, 5.0, 8.0, 20.0)]);
    let sim = Simulator::builder(&inst).build().unwrap();
    sim.run(&mut Scripted(|batch| {
        batch.resolve(0, Some(VehicleId(0)));
        let reason = DecisionReason::PolicyRejected;
        vec![Decision::rejected(batch.order_ids()[0], reason)]
    }));
}

#[test]
fn masked_vehicle_claimed_without_resolve_is_an_infeasible_choice() {
    // Vehicle 0 is broken at 8:00 and still down at the 8:05 epoch. A
    // dispatcher that bypasses `resolve` and claims it anyway must not get
    // it: the engine resolves the claim, and a masked vehicle's cell is
    // `best: None`. Vehicle 1 was free, so the reason is the bad choice.
    let inst = instance(2, vec![order(0, 1, 2, 2.0, 8.0 + 5.0 / 60.0, 20.0)]);
    let sim = Simulator::builder(&inst).build().unwrap();
    let sources: Vec<Box<dyn EventSource + '_>> = vec![
        Box::new(crate::event::ReplaySource::new(&inst)),
        Box::new(Fixed::new(vec![TimedEvent {
            time: TimePoint::from_hours(8.0),
            event: SimEvent::VehicleBreakdown(VehicleId(0)),
        }])),
    ];
    let mut claim_masked = Scripted(|batch| {
        assert!(!batch.vehicle_active(VehicleId(0)));
        vec![Decision::assigned(batch.order_ids()[0], VehicleId(0))]
    });
    let result = sim.run_events(sources, &mut claim_masked, &mut []);
    assert_eq!(result.metrics.served, 0);
    let reason = result.assignments[0].reason;
    assert_eq!(reason, DecisionReason::InfeasibleChoice);
    assert!(!result.vehicles[0].used && !result.vehicles[1].used);
}

#[test]
fn serve_flushes_buffered_epochs_as_the_stream_reveals_time() {
    use crate::simulator::BufferingMode;
    let inst = instance(2, vec![]);
    let (tx, rx) = std::sync::mpsc::channel();
    // All commands queued up front; the channel closing releases the
    // final epoch.
    tx.send(StreamCommand::Order(order(0, 1, 2, 2.0, 8.2, 20.0)))
        .unwrap();
    tx.send(StreamCommand::Order(order(1, 2, 3, 2.0, 8.9, 20.0)))
        .unwrap();
    drop(tx);
    let sim = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .build()
        .unwrap();
    let mut counter = EventCounter::default();
    let result = sim.serve_observed(rx, &mut FirstFeasible, &mut [&mut counter]);
    assert_eq!(result.metrics.served, 2);
    // Pushed orders get sequential engine ids and land on their flush
    // multiples: 8:12 -> 8:30, 8:54 -> 9:00.
    assert_eq!(result.assignments[0].order, OrderId(0));
    assert!((result.assignments[0].time.hours() - 8.5).abs() < 1e-9);
    assert!((result.assignments[1].time.hours() - 9.0).abs() < 1e-9);
    assert_eq!(counter.epochs, 2);
}

#[test]
fn serve_sender_dropped_mid_episode_drains_buffered_epochs_cleanly() {
    // The EOF contract: a producer that dies mid-episode — engine
    // blocked on `recv`, orders still buffered, no Flush heartbeat,
    // no goodbye — must end the episode cleanly with final metrics.
    use crate::simulator::BufferingMode;
    let inst = instance(2, vec![]);
    let (tx, rx) = std::sync::mpsc::channel();
    let producer = std::thread::spawn(move || {
        tx.send(StreamCommand::Order(order(0, 1, 2, 2.0, 8.2, 20.0)))
            .unwrap();
        // Let the engine reach its blocking recv before the hang-up.
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(StreamCommand::Order(order(1, 2, 3, 2.0, 8.9, 20.0)))
            .unwrap();
        // The sender drops here, with both epochs still buffered.
    });
    let sim = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .build()
        .unwrap();
    let result = sim.serve(rx, &mut FirstFeasible);
    producer.join().unwrap();
    assert_eq!(result.assignments.len(), 2, "both buffered orders decided");
    assert_eq!(result.metrics.served + result.metrics.rejected, 2);
    assert!((result.assignments[0].time.hours() - 8.5).abs() < 1e-9);
    assert!((result.assignments[1].time.hours() - 9.0).abs() < 1e-9);
}

#[test]
fn serve_with_immediately_dropped_sender_equals_the_replay_episode() {
    // The degenerate stream — hung up before a single command — must
    // reduce `serve` to exactly the replay-only episode of `run`.
    use crate::simulator::BufferingMode;
    let inst = instance(
        2,
        vec![
            order(0, 1, 2, 2.0, 8.0, 20.0),
            order(1, 2, 3, 2.0, 9.0, 20.0),
        ],
    );
    for buffering in [
        BufferingMode::Immediate,
        BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)),
    ] {
        let sim = Simulator::builder(&inst)
            .buffering(buffering)
            .build()
            .unwrap();
        let reference = sim.run(&mut FirstFeasible);
        let (tx, rx) = std::sync::mpsc::channel::<StreamCommand>();
        drop(tx);
        assert_eq!(sim.serve(rx, &mut FirstFeasible), reference);
    }
}

#[test]
fn streamed_orders_interleaving_with_replay_keep_ids_stable() {
    use crate::simulator::BufferingMode;
    // Replay table: ids 0 (8:00) and 1 (10:00). A streamed order
    // created 9:00 interleaves between them — it must get id 2 (after
    // the instance table), never shift the replayed 10:00 order, and a
    // cancellation targeting id 2 must kill exactly the streamed
    // order.
    let inst = instance(
        2,
        vec![
            order(0, 1, 2, 2.0, 8.0, 20.0),
            order(1, 2, 3, 2.0, 10.0, 20.0),
        ],
    );
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(StreamCommand::Order(order(0, 3, 1, 2.0, 9.0, 20.0)))
        .unwrap();
    tx.send(StreamCommand::Cancel {
        order: OrderId(2),
        at: TimePoint::from_hours(8.95),
    })
    .unwrap();
    drop(tx);
    let sim = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .build()
        .unwrap();
    let result = sim.serve(rx, &mut FirstFeasible);
    assert_eq!(result.metrics.served, 2);
    assert_eq!(result.metrics.rejections.cancelled, 1);
    let rec = |o: u32| {
        result
            .assignments
            .iter()
            .find(|r| r.order == OrderId(o))
            .unwrap()
    };
    // Replayed orders keep their ids and are served at their own
    // flush instants; the streamed order (id 2) is the cancelled one.
    assert_eq!(rec(0).reason, DecisionReason::Assigned);
    assert!((rec(0).time.hours() - 8.0).abs() < 1e-9);
    assert_eq!(rec(1).reason, DecisionReason::Assigned);
    assert!((rec(1).time.hours() - 10.0).abs() < 1e-9);
    assert_eq!(rec(2).reason, DecisionReason::Cancelled);
}

#[test]
fn stranded_redispatch_keeps_only_the_final_response_sample() {
    // Same fixture as the breakdown test above: at the 8:06 breakdown
    // order 0 is onboard (lost, its 0 s sample kept by design) and
    // order 1 is stranded — its withdrawn 0 s sample must be
    // subtracted, and the re-dispatch at 8:06 contributes a fresh
    // 60 s sample (it was created 8:05).
    let inst = instance(
        2,
        vec![
            order(0, 1, 2, 2.0, 8.0, 20.0),
            order(1, 2, 3, 2.0, 8.0 + 5.0 / 60.0, 20.0),
        ],
    );
    let mut counter = EventCounter::default();
    let result = run_with_events(
        &inst,
        crate::simulator::BufferingMode::Immediate,
        vec![TimedEvent {
            time: TimePoint::from_hours(8.1),
            event: SimEvent::VehicleBreakdown(VehicleId(0)),
        }],
        &mut counter,
    );
    assert_eq!(counter.breakdowns, 1);
    assert_eq!(result.metrics.rejections.vehicle_lost, 1);
    assert_eq!(result.metrics.served, 1);
    // Kept samples: order 0 (0 s) and order 1's re-dispatch (60 s);
    // with the withdrawn sample wrongly retained this would read
    // (0 + 0 + 60) / 3 = 20 s instead.
    let expect = (0.0 + 60.0) / 2.0;
    assert!(
        (result.metrics.avg_response_secs - expect).abs() < 1e-6,
        "{} vs {expect}",
        result.metrics.avg_response_secs
    );
}

#[test]
fn epoch_flush_heartbeat_releases_buffered_orders() {
    use crate::simulator::BufferingMode;
    let inst = instance(1, vec![]);
    let (tx, rx) = std::sync::mpsc::channel();
    tx.send(StreamCommand::Order(order(0, 1, 2, 2.0, 8.2, 20.0)))
        .unwrap();
    // Without this heartbeat the 8:30 epoch would only flush at
    // channel close; with it, the epoch flushes as soon as the
    // heartbeat is consumed.
    tx.send(StreamCommand::Flush {
        at: TimePoint::from_hours(9.0),
    })
    .unwrap();
    drop(tx);
    let sim = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .build()
        .unwrap();
    let result = sim.serve(rx, &mut FirstFeasible);
    assert_eq!(result.metrics.served, 1);
    assert!((result.assignments[0].time.hours() - 8.5).abs() < 1e-9);
}

#[test]
fn seeded_disruptions_are_deterministic_and_seed_sensitive() {
    let orders: Vec<Order> = (0..24)
        .map(|i| {
            order(
                i,
                1 + (i % 3),
                1 + ((i + 1) % 3),
                1.0,
                8.0 + 0.25 * i as f64,
                23.0,
            )
        })
        .collect();
    let inst = instance(4, orders);
    let cfg = DisruptionConfig {
        cancellation_prob: 0.3,
        cancellation_delay: TimeDelta::from_minutes(20.0),
        breakdown_prob: 0.5,
        breakdown_window: (TimePoint::from_hours(8.0), TimePoint::from_hours(14.0)),
        recovery_delay: Some((TimeDelta::from_minutes(30.0), TimeDelta::from_hours(2.0))),
    };
    let run = |seed: u64| {
        let mut counter = EventCounter::default();
        let sim = Simulator::builder(&inst)
            .disruptions(cfg.clone())
            .seed(seed)
            .build()
            .unwrap();
        let result = sim.run_observed(&mut FirstFeasible, &mut [&mut counter]);
        (result, counter)
    };
    let (a, ca) = run(5);
    let (b, _) = run(5);
    assert_eq!(a, b, "same seed must reproduce the episode bit for bit");
    assert!(ca.cancellations > 0 && ca.breakdowns > 0, "non-vacuous");
    let (c, _) = run(6);
    assert_ne!(a, c, "a different seed must move the disruption draw");
    // Every order ends in exactly one final state.
    assert_eq!(
        a.metrics.served + a.metrics.rejections.total(),
        inst.num_orders()
    );
}

#[test]
fn invalid_disruption_config_is_a_build_error() {
    let inst = instance(1, vec![]);
    let err = Simulator::builder(&inst)
        .disruptions(DisruptionConfig {
            cancellation_prob: 2.0,
            ..DisruptionConfig::default()
        })
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        crate::simulator::SimBuildError::InvalidDisruption { .. }
    ));
    assert!(err.to_string().contains("cancellation_prob"));
}
