//! Event-engine decisions, determinism and stream serving.
//!
//! 1. **Committed episodes** — the event engine fed by a `ReplaySource`
//!    alone, for Baselines 1–3, actor-critic and DGN training under both
//!    buffering strategies: every shard × thread cell, audited, matches
//!    its case's committed decision digest (`tests/golden`). One case's
//!    epochs are wide enough to fan out on the pool at the parallel width
//!    (`dpdp_sim::FAN_OUT_MIN_CELLS`), and its pool is shown to have
//!    fanned out; every other case's pool is shown never to.
//! 2. **Seeded-disruption determinism** — with a `DisruptionConfig`
//!    armed, the same seed reproduces the identical, committed episode
//!    *and* the identical disruption trace; a different seed moves the
//!    trace.
//! 3. **Stream serving** — a second thread pushes orders into a live
//!    episode (`Simulator::serve`) and each pushed order is decided at
//!    exactly the flush epoch its creation time maps to.

mod golden;

use dpdp_core::prelude::*;
use dpdp_net::{
    FleetConfig, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta,
    TimePoint,
};
use dpdp_pool::ThreadPool;
use dpdp_sim::{DisruptionRecord, EpisodeResult, EpochInfo, InvariantAuditor, FAN_OUT_MIN_CELLS};
use golden::{parallel_threads, Case};
use std::sync::Arc;

/// `case` against its digest at the given shard counts × widths {1, N},
/// each cell on a pool of its own. At a parallel width the pool must have
/// fanned out exactly when `fans_out`: only an epoch of at least
/// `FAN_OUT_MIN_CELLS` cells (orders × active vehicles) reaches it.
fn assert_cells(case: &Case, shard_counts: &[usize], fans_out: bool) {
    for &shards in shard_counts {
        for threads in [1, parallel_threads()] {
            let pool = Arc::new(ThreadPool::new(threads));
            let sharding = ShardConfig::flat(shards).expect("positive shard count");
            let result = case.run(sharding, &pool, &mut []);
            let cell = format!("{shards} shard(s) / {threads} thread(s)");
            case.assert_digest(&result, &cell);
            if pool.is_parallel() {
                assert_eq!(
                    pool.fan_outs() > 0,
                    fans_out,
                    "{cell}: the pool fanned out {} time(s) against a gate of \
                     {FAN_OUT_MIN_CELLS} cells",
                    pool.fan_outs()
                );
            }
        }
    }
}

#[test]
fn metro_baseline_episodes_are_the_committed_ones() {
    for case in golden::cases("metro_baseline") {
        assert_cells(&case, &[1, 4], false);
    }
}

#[test]
fn replay_parity_covers_the_campus_preset_and_actor_critic() {
    // batch_parity's quick campus, and actor-critic agents.
    for case in golden::cases("campus_") {
        assert_cells(&case, &[1], false);
    }
}

#[test]
fn replay_parity_holds_for_dqn_training_episodes() {
    // The whole training episode, exploration RNG included.
    for case in golden::cases("metro_dgn_training") {
        assert_cells(&case, &[1, 4], false);
    }
}

#[test]
fn wide_epochs_fan_out_and_are_the_committed_ones() {
    // The one case whose epochs reach the gate: at the parallel width its
    // widest epochs run on the pool, and every cell still matches.
    let case = golden::cases("metro_wide").pop().expect("the wide case");
    assert_cells(&case, &[1, 4], true);
}

/// Rewrites `tests/golden/episodes.digest` (see `tests/golden/mod.rs`).
#[test]
#[ignore]
fn rewrite_the_committed_digests() {
    golden::rewrite();
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
    let case = golden::cases("metro_disrupted")
        .pop()
        .expect("the disrupted case");
    let run = |seed: u64| -> (EpisodeResult, Vec<String>) {
        let mut trace = DisruptionTrace::default();
        let result = case
            .builder()
            .seed(seed)
            .build()
            .expect("valid disrupted configuration")
            .run_observed(
                &mut *case.policy(),
                &mut [&mut trace, &mut InvariantAuditor::default()],
            );
        (result, trace.0)
    };
    let (a, trace_a) = run(11);
    let (b, trace_b) = run(11);
    assert_eq!(a, b, "same seed must reproduce the episode bit for bit");
    case.assert_digest(&a, "seed 11");
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
        case.instance.num_orders()
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
