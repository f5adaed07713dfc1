//! Protocol tests for the observer/epoch seam: one `dispatch_batch` call
//! per decision epoch, and the guaranteed observer call order
//! (`on_episode_begin`, then `on_epoch` followed by that epoch's
//! `on_decision`s and, for an observer that asked, its
//! `on_epoch_profile`, then `on_episode_end`).

use dpdp_net::{
    FleetConfig, Instance, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork,
    TimeDelta, TimePoint, VehicleId,
};
use dpdp_sim::{
    BufferingMode, Decision, DecisionBatch, DecisionRecord, DispatchContext, Dispatcher,
    EpisodeResult, EpochInfo, EpochProfile, FirstFeasible, SimObserver, Simulator, Stage,
};

fn instance(orders: Vec<Order>) -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(10.0, 0.0)),
        Node::factory(NodeId(2), Point::new(20.0, 0.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet =
        FleetConfig::homogeneous(4, &[NodeId(0)], 50.0, 500.0, 2.0, 60.0, TimeDelta::ZERO).unwrap();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

fn order(id: u32, created_h: f64) -> Order {
    Order::new(
        OrderId(id),
        NodeId(1),
        NodeId(2),
        2.0,
        TimePoint::from_hours(created_h),
        TimePoint::from_hours(created_h + 10.0),
    )
    .unwrap()
}

/// Counts `dispatch_batch` invocations while delegating to the inner
/// policy.
struct CountBatches<D> {
    inner: D,
    batch_calls: usize,
    batch_sizes: Vec<usize>,
}

impl<D> CountBatches<D> {
    fn new(inner: D) -> Self {
        CountBatches {
            inner,
            batch_calls: 0,
            batch_sizes: Vec::new(),
        }
    }
}

impl<D: Dispatcher> Dispatcher for CountBatches<D> {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        self.inner.dispatch(ctx)
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        self.batch_calls += 1;
        self.batch_sizes.push(batch.len());
        self.inner.dispatch_batch(batch)
    }

    fn begin_episode(&mut self, instance: &Instance) {
        self.inner.begin_episode(instance);
    }

    fn end_episode(&mut self) {
        self.inner.end_episode();
    }
}

#[derive(Debug, PartialEq)]
enum Event {
    Begin,
    Epoch { index: usize, num_orders: usize },
    Decision(OrderId),
    Profile,
    End,
}

#[derive(Default)]
struct EventLog {
    events: Vec<Event>,
}

impl SimObserver for EventLog {
    fn on_episode_begin(&mut self, _instance: &Instance) {
        self.events.push(Event::Begin);
    }

    fn on_epoch(&mut self, epoch: &EpochInfo) {
        self.events.push(Event::Epoch {
            index: epoch.index,
            num_orders: epoch.num_orders,
        });
    }

    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        self.events.push(Event::Decision(record.assignment.order));
    }

    fn on_episode_end(&mut self, _result: &EpisodeResult) {
        self.events.push(Event::End);
    }
}

#[test]
fn fixed_interval_issues_one_dispatch_batch_per_flush_epoch() {
    // Orders at 8:05, 8:10 (flush 8:30), 8:40 (flush 9:00), 9:00 (flush
    // 9:00 — created exactly on the boundary): two flush epochs in total.
    let inst = instance(vec![
        order(0, 8.0 + 5.0 / 60.0),
        order(1, 8.0 + 10.0 / 60.0),
        order(2, 8.0 + 40.0 / 60.0),
        order(3, 9.0),
    ]);
    let sim = Simulator::builder(&inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .build()
        .unwrap();
    let mut counter = CountBatches::new(FirstFeasible);
    let mut log = EventLog::default();
    let result = sim.run_observed(&mut counter, &mut [&mut log]);

    assert_eq!(result.metrics.served, 4);
    assert_eq!(counter.batch_calls, 2, "one dispatch_batch per flush epoch");
    assert_eq!(counter.batch_sizes, vec![2, 2]);
    let epochs: Vec<&Event> = log
        .events
        .iter()
        .filter(|e| matches!(e, Event::Epoch { .. }))
        .collect();
    assert_eq!(epochs.len(), counter.batch_calls);
}

#[test]
fn observer_sees_every_decision_between_epoch_and_end() {
    let inst = instance(vec![
        order(0, 8.0),
        order(1, 8.0),
        order(2, 8.5),
        order(3, 10.0),
    ]);
    let sim = Simulator::builder(&inst).build().unwrap();
    let mut log = EventLog::default();
    sim.run_observed(&mut FirstFeasible, &mut [&mut log]);

    // Exactly one Begin first and one End last.
    assert_eq!(log.events.first(), Some(&Event::Begin));
    assert_eq!(log.events.last(), Some(&Event::End));
    assert_eq!(
        log.events
            .iter()
            .filter(|e| matches!(e, Event::Begin))
            .count(),
        1
    );
    assert_eq!(
        log.events
            .iter()
            .filter(|e| matches!(e, Event::End))
            .count(),
        1
    );

    // Every decision happens after some epoch announcement and before the
    // end, and each epoch announces exactly the number of decisions that
    // follow it.
    let mut seen_epoch = false;
    let mut remaining_in_epoch = 0usize;
    let mut decisions = 0usize;
    for event in &log.events {
        match event {
            Event::Begin => {}
            Event::Epoch { num_orders, .. } => {
                assert_eq!(
                    remaining_in_epoch, 0,
                    "epoch opened before the previous one finished"
                );
                seen_epoch = true;
                remaining_in_epoch = *num_orders;
            }
            Event::Decision(_) => {
                assert!(seen_epoch, "decision before any epoch");
                assert!(remaining_in_epoch > 0, "more decisions than announced");
                remaining_in_epoch -= 1;
                decisions += 1;
            }
            Event::End => {
                assert_eq!(remaining_in_epoch, 0, "episode ended mid-epoch");
            }
            Event::Profile => unreachable!("EventLog does not ask for profiles"),
        }
    }
    assert_eq!(decisions, inst.num_orders());

    // Epoch indices are sequential: 0, 1, 2 (orders 0 and 1 share one
    // epoch under immediate service because they share a creation time).
    let indices: Vec<usize> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Epoch { index, .. } => Some(*index),
            _ => None,
        })
        .collect();
    assert_eq!(indices, vec![0, 1, 2]);
}

/// Logs the protocol like [`EventLog`], plus every profile it is handed.
struct ProfileLog {
    wants: bool,
    events: Vec<Event>,
    profiles: Vec<EpochProfile>,
}

impl ProfileLog {
    fn new(wants: bool) -> Self {
        ProfileLog {
            wants,
            events: Vec::new(),
            profiles: Vec::new(),
        }
    }
}

impl SimObserver for ProfileLog {
    fn on_epoch(&mut self, epoch: &EpochInfo) {
        self.events.push(Event::Epoch {
            index: epoch.index,
            num_orders: epoch.num_orders,
        });
    }

    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        self.events.push(Event::Decision(record.assignment.order));
    }

    fn on_episode_end(&mut self, _result: &EpisodeResult) {
        self.events.push(Event::End);
    }

    fn wants_profile(&self) -> bool {
        self.wants
    }

    fn on_epoch_profile(&mut self, profile: &EpochProfile) {
        self.events.push(Event::Profile);
        self.profiles.push(*profile);
    }
}

/// Baseline 1's shape: batch-native, each order's cheapest insertion off
/// its candidate row, no row materialised.
struct CheapestInsertion;

impl Dispatcher for CheapestInsertion {
    fn dispatch(&mut self, _ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        unreachable!("batch-native: every order goes through dispatch_batch")
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        (0..batch.len())
            .map(|i| {
                let best = batch.fold_candidates(i, None, |best, k, score| {
                    match (score.incremental_length(), best) {
                        (Some(d), Some((b, bk))) if (d, k) < (b, bk) => Some((d, k)),
                        (Some(d), None) => Some((d, k)),
                        _ => best,
                    }
                });
                batch.resolve(i, best.map(|(_, k)| k))
            })
            .collect()
    }
}

/// Twelve orders over five hours, several sharing a 30-minute flush.
fn busy_instance() -> Instance {
    instance(
        (0..12)
            .map(|i| order(i, 8.0 + f64::from(i) * 0.4))
            .collect(),
    )
}

fn simulator(inst: &Instance, threads: usize) -> Simulator<'_> {
    Simulator::builder(inst)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .num_threads(threads)
        .build()
        .unwrap()
}

#[test]
fn a_profile_follows_its_epochs_decisions_and_only_where_wanted() {
    let inst = busy_instance();
    let sim = simulator(&inst, 1);
    let (mut wants, mut declines) = (ProfileLog::new(true), ProfileLog::new(false));
    sim.run_observed(&mut FirstFeasible, &mut [&mut wants, &mut declines]);

    assert!(declines.profiles.is_empty() && !declines.events.contains(&Event::Profile));
    // Every epoch's decisions, then its profile, before the next epoch.
    let mut expect_profile = false;
    let mut remaining = 0;
    for event in &wants.events {
        match event {
            Event::Epoch { num_orders, .. } => {
                assert!(!expect_profile, "an epoch opened before the last profile");
                remaining = *num_orders;
                expect_profile = true;
            }
            Event::Profile => {
                assert!(
                    expect_profile && remaining == 0,
                    "profile before a decision"
                );
                expect_profile = false;
            }
            Event::Decision(_) => remaining -= 1,
            _ => assert!(!expect_profile, "the episode ended before a profile"),
        }
    }
    let epochs: Vec<usize> = wants
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Epoch { num_orders, .. } => Some(*num_orders),
            _ => None,
        })
        .collect();
    assert_eq!(wants.profiles.len(), epochs.len());
    assert!(
        epochs.iter().any(|&n| n > 1),
        "some epoch holds several orders"
    );
}

#[test]
fn a_profile_counts_one_resolve_per_order_and_a_row_per_order_shown() {
    let inst = busy_instance();
    let sim = simulator(&inst, 1);
    for per_order in [true, false] {
        let mut log = ProfileLog::new(true);
        let mut policy: Box<dyn Dispatcher> = if per_order {
            Box::new(FirstFeasible)
        } else {
            Box::new(CheapestInsertion)
        };
        let result = sim.run_observed(policy.as_mut(), &mut [&mut log]);
        assert_eq!(result.metrics.served, inst.num_orders());
        let orders = log.events.iter().filter_map(|e| match e {
            Event::Epoch { num_orders, .. } => Some(*num_orders as u64),
            _ => None,
        });
        for (profile, orders) in log.profiles.iter().zip(orders) {
            assert_eq!(profile.calls(Stage::Resolve), orders);
            let rows = if per_order { orders } else { 0 };
            assert_eq!(profile.calls(Stage::Materialise), rows);
            for stage in [
                Stage::Advance,
                Stage::Classify,
                Stage::Score,
                Stage::Store,
                Stage::Policy,
                Stage::Record,
            ] {
                assert_eq!(profile.calls(stage), 1, "{}", stage.name());
            }
            assert!(Stage::ALL.iter().any(|&stage| profile.nanos(stage) > 0));
        }
    }
}

/// Parallel width for the thread leg: `DPDP_TEST_THREADS`, or 4.
fn test_threads() -> usize {
    std::env::var("DPDP_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

#[test]
fn a_profiled_episode_is_bit_identical_to_an_unprofiled_one() {
    let inst = busy_instance();
    for threads in [1, test_threads()] {
        let sim = simulator(&inst, threads);
        for per_order in [true, false] {
            let run = |log: &mut ProfileLog| {
                let mut policy: Box<dyn Dispatcher> = if per_order {
                    Box::new(FirstFeasible)
                } else {
                    Box::new(CheapestInsertion)
                };
                sim.run_observed(policy.as_mut(), &mut [log])
            };
            let (mut on, mut off) = (ProfileLog::new(true), ProfileLog::new(false));
            let profiled = run(&mut on);
            assert!(!on.profiles.is_empty());
            assert_eq!(profiled, run(&mut off), "{threads} threads");
            let decisions =
                |log: &ProfileLog| log.events.iter().filter(|e| **e != Event::Profile).count();
            assert_eq!(decisions(&on), decisions(&off));
        }
    }
}
