//! Event-engine parity and determinism.
//!
//! 1. **Replay parity** — `Simulator::run_observed` now drives episodes
//!    through the event engine (a `ReplaySource` over the order table
//!    merged with nothing else); `Simulator::run_reference` is the plain
//!    scan over the sorted order table, flushing through the same epoch
//!    body — so what is compared is how epochs come to exist (event
//!    merge, flush timing, order-table handling). For Baselines 1–3 and DQN,
//!    across shard counts {1, 4} × thread widths {1, N} and both
//!    buffering strategies, the two must produce **bit-identical**
//!    `EpisodeResult`s.
//! 2. **Seeded-disruption determinism** — with a `DisruptionConfig`
//!    armed, the same seed reproduces the identical episode *and* the
//!    identical disruption trace; a different seed moves the trace.
//! 3. **Stream serving** — a second thread pushes orders into a live
//!    episode (`Simulator::serve`) and each pushed order is decided at
//!    exactly the flush epoch its creation time maps to.

use dpdp_core::prelude::*;
use dpdp_net::{
    FleetConfig, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta,
    TimePoint,
};
use dpdp_rl::ActorCriticConfig;
use dpdp_sim::{
    BufferingMode, DisruptionRecord, EpisodeResult, EpochInfo, InvariantAuditor, ShardConfig,
};

/// Parallel width for the thread-parity legs: `DPDP_TEST_THREADS`, or 4.
fn parallel_threads() -> usize {
    std::env::var("DPDP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

fn build_sim<'a>(
    instance: &'a Instance,
    buffering: BufferingMode,
    shards: usize,
    threads: usize,
) -> Simulator<'a> {
    Simulator::builder(instance)
        .buffering(buffering)
        .sharding(ShardConfig::flat(shards).expect("positive shard count"))
        .num_threads(threads)
        .build()
        .expect("valid configuration")
}

/// The engine and the reference scan loop, same configuration, compared.
fn assert_parity(
    instance: &Instance,
    buffering: BufferingMode,
    shards: usize,
    threads: usize,
    make: &dyn Fn() -> Box<dyn Dispatcher>,
    label: &str,
) {
    let sim = build_sim(instance, buffering, shards, threads);
    let engine = sim.run_observed(&mut *make(), &mut [&mut InvariantAuditor::default()]);
    let reference = sim.run_reference(&mut *make(), &mut [&mut InvariantAuditor::default()]);
    assert_eq!(
        engine, reference,
        "{label} diverged between the event engine and the reference loop \
         at {shards} shard(s) / {threads} thread(s) under {buffering:?}"
    );
}

#[test]
fn replay_source_is_bit_identical_to_the_reference_loop() {
    let metro = Presets::metro(7);
    let instance = metro.metro_instance(60, 32, 5);
    let threads = parallel_threads();
    type MakeDispatcher = fn() -> Box<dyn Dispatcher>;
    let heuristics: [(&str, MakeDispatcher); 3] = [
        ("Baseline1", || Box::new(Baseline1)),
        ("Baseline2", || Box::new(Baseline2)),
        ("Baseline3", || Box::<Baseline3>::default()),
    ];
    let modes = [
        BufferingMode::Immediate,
        BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)),
    ];
    for mode in modes {
        for (name, make) in heuristics {
            for shards in [1usize, 4] {
                for &width in &[1usize, threads] {
                    assert_parity(&instance, mode, shards, width, &|| make(), name);
                }
            }
        }
    }
}

#[test]
fn replay_parity_covers_the_campus_preset_and_actor_critic() {
    // The quick-campus workload batch_parity runs on, plus the one policy
    // the metro matrix above leaves out: identically seeded AC agents on
    // each side of the engine/reference comparison.
    let mut cfg = DatasetConfig::default();
    cfg.generator.orders_per_day = 60;
    let presets = Presets::with_config(cfg);
    let instance = presets.dataset().sampled_instance(0..3, 30, 8, 21);
    let rl_instance = presets.dataset().sampled_instance(0..3, 20, 6, 13);
    let threads = parallel_threads();
    for mode in [
        BufferingMode::Immediate,
        BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)),
    ] {
        for &width in &[1usize, threads] {
            assert_parity(
                &instance,
                mode,
                1,
                width,
                &|| Box::new(Baseline1),
                "Baseline1",
            );
            let sim = build_sim(&rl_instance, mode, 1, width);
            let ac_cfg = ActorCriticConfig {
                seed: 3,
                ..ActorCriticConfig::default()
            };
            let engine = {
                let mut agent = ActorCriticAgent::new(ac_cfg.clone(), 144);
                sim.run_observed(&mut agent, &mut [&mut InvariantAuditor::default()])
            };
            let reference = {
                let mut agent = ActorCriticAgent::new(ac_cfg.clone(), 144);
                sim.run_reference(&mut agent, &mut [&mut InvariantAuditor::default()])
            };
            assert_eq!(
                engine, reference,
                "AC diverged at {width} thread(s) under {mode:?}"
            );
        }
    }
}

#[test]
fn replay_parity_holds_for_dqn_training_episodes() {
    // Identically seeded agents on each side: the whole training episode
    // (exploration RNG included) must match decision for decision.
    let metro = Presets::metro(7);
    let instance = metro.metro_instance(24, 12, 9);
    let threads = parallel_threads();
    for mode in [
        BufferingMode::Immediate,
        BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)),
    ] {
        for shards in [1usize, 4] {
            for &width in &[1usize, threads] {
                let sim = build_sim(&instance, mode, shards, width);
                let engine = {
                    let mut agent = models::dqn_agent(ModelKind::Dgn, metro.dataset(), 5);
                    sim.run_observed(&mut agent, &mut [&mut InvariantAuditor::default()])
                };
                let reference = {
                    let mut agent = models::dqn_agent(ModelKind::Dgn, metro.dataset(), 5);
                    sim.run_reference(&mut agent, &mut [&mut InvariantAuditor::default()])
                };
                assert_eq!(
                    engine, reference,
                    "DQN diverged at {shards} shard(s) / {width} thread(s) under {mode:?}"
                );
            }
        }
    }
}

/// Records a comparable rendering of every disruption the episode applied.
#[derive(Default)]
struct DisruptionTrace(Vec<String>);

impl SimObserver for DisruptionTrace {
    fn on_disruption(&mut self, record: &DisruptionRecord) {
        self.0
            .push(format!("{:.3}s {:?}", record.time.seconds(), record.kind));
    }
}

#[test]
fn seeded_disruptions_are_deterministic_and_seed_sensitive() {
    let (metro, disruptions) = Presets::metro_disrupted(3);
    let instance = metro.metro_instance(80, 16, 2);
    let run = |seed: u64| -> (EpisodeResult, Vec<String>) {
        let mut trace = DisruptionTrace::default();
        let result = Simulator::builder(&instance)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
            .disruptions(disruptions.clone())
            .seed(seed)
            .build()
            .expect("valid disrupted configuration")
            .run_observed(
                &mut Baseline1,
                &mut [&mut trace, &mut InvariantAuditor::default()],
            );
        (result, trace.0)
    };
    let (a, trace_a) = run(11);
    let (b, trace_b) = run(11);
    assert_eq!(a, b, "same seed must reproduce the episode bit for bit");
    assert_eq!(trace_a, trace_b, "and the same disruption trace");
    assert!(
        !trace_a.is_empty(),
        "the disrupted metro preset must actually disrupt"
    );
    let (_, trace_c) = run(12);
    assert_ne!(trace_a, trace_c, "a different seed must move the trace");
    // Every order ends in exactly one final state: served, or rejected
    // with a reason (stranded orders re-dispatched or accounted for).
    assert_eq!(
        a.metrics.served + a.metrics.rejections.total(),
        instance.num_orders()
    );
    assert_eq!(a.metrics.rejections.total(), a.metrics.rejected);
}

/// Records each epoch's flush instant and order count.
#[derive(Default)]
struct EpochTrace(Vec<(f64, usize)>);

impl SimObserver for EpochTrace {
    fn on_epoch(&mut self, epoch: &EpochInfo) {
        self.0.push((epoch.now.hours(), epoch.num_orders));
    }
}

#[test]
fn orders_pushed_from_a_second_thread_land_in_their_flush_epoch() {
    // An instance with no replayed orders: everything arrives live.
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(10.0, 0.0)),
        Node::factory(NodeId(2), Point::new(20.0, 0.0)),
        Node::factory(NodeId(3), Point::new(30.0, 0.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let fleet =
        FleetConfig::homogeneous(2, &[NodeId(0)], 10.0, 500.0, 2.0, 60.0, TimeDelta::ZERO).unwrap();
    let instance = Instance::new(net, fleet, IntervalGrid::paper_default(), vec![]).unwrap();

    let order = |id: u32, p: u32, d: u32, created_h: f64| {
        Order::new(
            OrderId(id),
            NodeId(p),
            NodeId(d),
            2.0,
            TimePoint::from_hours(created_h),
            TimePoint::from_hours(created_h + 8.0),
        )
        .unwrap()
    };

    let (tx, rx) = std::sync::mpsc::channel();
    let producer = std::thread::spawn(move || {
        // 8:12 and 8:24 share the 8:30 flush; 8:54 lands on 9:00. The
        // trailing heartbeat proves buffered epochs release without
        // waiting for the channel to close.
        tx.send(StreamCommand::Order(order(0, 1, 2, 8.2))).unwrap();
        tx.send(StreamCommand::Order(order(1, 2, 3, 8.4))).unwrap();
        tx.send(StreamCommand::Order(order(2, 3, 1, 8.9))).unwrap();
        tx.send(StreamCommand::Flush {
            at: TimePoint::from_hours(12.0),
        })
        .unwrap();
    });

    let sim = Simulator::builder(&instance)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .build()
        .unwrap();
    let mut epochs = EpochTrace::default();
    let mut b1 = Baseline1;
    let result = sim.serve_observed(
        rx,
        &mut b1,
        &mut [&mut epochs, &mut InvariantAuditor::default()],
    );
    producer.join().expect("producer thread");

    assert_eq!(result.metrics.served, 3);
    // Engine-assigned ids are sequential in arrival order.
    let times: Vec<(u32, f64)> = result
        .assignments
        .iter()
        .map(|r| (r.order.0, r.time.hours()))
        .collect();
    assert_eq!(times, vec![(0, 8.5), (1, 8.5), (2, 9.0)]);
    // Two flush epochs: 8:30 with two orders, 9:00 with one.
    assert_eq!(epochs.0, vec![(8.5, 2), (9.0, 1)]);
    // Response times measure creation -> flush.
    let resp = result.metrics.avg_response_secs;
    let expect = ((8.5 - 8.2) + (8.5 - 8.4) + (9.0 - 8.9)) / 3.0 * 3600.0;
    assert!((resp - expect).abs() < 1e-6, "{resp} vs {expect}");
}
