//! Batch/serial parity: every built-in dispatcher must produce identical
//! `EpisodeResult`s through the legacy per-order path (the default
//! `dispatch_batch` adapter, forced via `PerOrder`) and through its native
//! `dispatch_batch`, on quick-preset instances under both immediate service
//! and fixed-interval buffering (where real multi-order batches form).
//!
//! The same suite also proves the **thread-count invariance** the parallel
//! epoch scoring guarantees: running any policy on a
//! `SimulatorBuilder::num_threads(n)` pool yields decisions and metrics
//! bit-identical to `num_threads(1)`. The parallel width defaults to 4 and
//! can be overridden through the `DPDP_TEST_THREADS` env var (the CI test
//! matrix runs 1 and 4).
//!
//! And it proves the **shard-layout invariance** of the region-sharded
//! dispatch pipeline: `SimulatorBuilder::sharding(ShardConfig::flat(s))`
//! partitions every epoch geographically, prunes cross-shard
//! `(order, vehicle)` pairs through an exact infeasibility bound and
//! escalates the rest — and the resulting episodes are bit-identical to
//! the flat `shards = 1` scan for every policy, at 1 thread and at the
//! parallel width, on the metro preset (where the prune genuinely fires; a
//! guard test asserts non-vacuity). Hierarchical layouts and mid-episode
//! re-partitioning get the same treatment in `tests/repartition.rs`.
//!
//! Finally, parity says two runs agree, not that either is right: the
//! `OracleChecked` wrapper compares every plan cell a policy is shown —
//! under all of the above — against the naive Algorithm 2 oracle, and
//! every episode here runs with an `InvariantAuditor` switched on, which
//! re-checks every route the engine holds after each epoch and disruption.

mod golden;

use dpdp_core::prelude::*;
use dpdp_net::{TimeDelta, VehicleId};
use dpdp_pool::ThreadPool;
use dpdp_rl::ActorCriticConfig;
use dpdp_routing::best_insertion_naive;
use dpdp_sim::{
    BufferingMode, Decision, DecisionBatch, DispatchContext, DisruptionConfig, EpisodeResult,
    EpochInfo, InvariantAuditor, PerOrder, RepartitionPolicy, ShardConfig, SimObserver,
    FAN_OUT_MIN_CELLS,
};
use golden::parallel_threads;
use std::sync::Arc;

fn presets() -> Presets {
    let mut cfg = DatasetConfig::default();
    cfg.generator.orders_per_day = 60;
    Presets::with_config(cfg)
}

fn run(
    instance: &Instance,
    buffering: BufferingMode,
    dispatcher: &mut dyn Dispatcher,
) -> EpisodeResult {
    run_threads(instance, buffering, dispatcher, 1)
}

fn run_threads(
    instance: &Instance,
    buffering: BufferingMode,
    dispatcher: &mut dyn Dispatcher,
    num_threads: usize,
) -> EpisodeResult {
    Simulator::builder(instance)
        .buffering(buffering)
        .num_threads(num_threads)
        .build()
        .expect("valid configuration")
        .run_observed(dispatcher, &mut [&mut InvariantAuditor::default()])
}

fn modes() -> [BufferingMode; 3] {
    [
        BufferingMode::Immediate,
        BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)),
        // A coarse period so whole groups of orders share one batch.
        BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)),
    ]
}

#[test]
fn greedy_baselines_match_through_both_paths() {
    let presets = presets();
    let instance = presets.dataset().sampled_instance(0..3, 30, 8, 21);
    for mode in modes() {
        let native1 = run(&instance, mode, &mut Baseline1);
        let serial1 = run(&instance, mode, &mut PerOrder(Baseline1));
        assert_eq!(native1, serial1, "Baseline1 diverged under {mode:?}");

        let native2 = run(&instance, mode, &mut Baseline2);
        let serial2 = run(&instance, mode, &mut PerOrder(Baseline2));
        assert_eq!(native2, serial2, "Baseline2 diverged under {mode:?}");

        let native3 = run(&instance, mode, &mut Baseline3::default());
        let serial3 = run(&instance, mode, &mut PerOrder(Baseline3::default()));
        assert_eq!(native3, serial3, "Baseline3 diverged under {mode:?}");
    }
}

#[test]
fn buffered_baseline1_actually_forms_multi_order_batches() {
    // Guard against the parity test going vacuous: under the coarse buffer
    // the episode must contain at least one epoch with several orders.

    #[derive(Default)]
    struct MaxBatch(usize);
    impl SimObserver for MaxBatch {
        fn on_epoch(&mut self, epoch: &EpochInfo) {
            self.0 = self.0.max(epoch.num_orders);
        }
    }

    let presets = presets();
    let instance = presets.dataset().sampled_instance(0..3, 30, 8, 21);
    let mut probe = MaxBatch::default();
    Simulator::builder(&instance)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)))
        .build()
        .unwrap()
        .run_observed(
            &mut Baseline1,
            &mut [&mut probe, &mut InvariantAuditor::default()],
        );
    assert!(
        probe.0 >= 2,
        "expected at least one multi-order flush epoch, largest was {}",
        probe.0
    );
}

/// Per-order wrapper that checks every vehicle's plan in every context it
/// is shown against the Algorithm 2 oracle before delegating: the winner
/// (and its bookkeeping counts) must equal `best_insertion_naive`'s on the
/// vehicle's own view — none for a vehicle the epoch masks out (broken
/// down) — and `d_{t,k}` must be the bit pattern `Route::length` folds — so
/// a plan an idle-twin column shares is checked once per member. `cells`
/// counts vehicles, not columns. Going through the per-order adapter's
/// loop, it sees each order's row as it stands when the order is decided —
/// commit deltas and the sparse store's implicit pruned cells included.
struct OracleChecked {
    inner: Box<dyn Dispatcher>,
    cells: usize,
    /// The epoch's availability mask.
    active: Vec<bool>,
}

impl Dispatcher for OracleChecked {
    /// The default per-order adapter, after reading the epoch's mask.
    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        self.active.clear();
        let vehicles = (0..batch.num_vehicles()).map(VehicleId::from_index);
        self.active
            .extend(vehicles.map(|k| batch.vehicle_active(k)));
        (0..batch.len())
            .map(|i| {
                let choice = batch.with_context(i, |ctx| self.dispatch(ctx));
                batch.resolve(i, choice)
            })
            .collect()
    }

    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        for (k, view) in ctx.views.iter().enumerate() {
            let plan = ctx.plan(k);
            let oracle = self.active[k]
                .then(|| best_insertion_naive(view, ctx.order, ctx.net, ctx.fleet, ctx.orders))
                .flatten();
            assert_eq!(
                plan.best.as_deref(),
                oracle.as_ref(),
                "{} on {}: winner diverged from the oracle",
                ctx.order.id,
                view.vehicle
            );
            assert_eq!(
                plan.current_length.to_bits(),
                view.route
                    .length(ctx.net, view.anchor_node, view.depot)
                    .to_bits(),
                "{} on {}: d_(t,k) not bit-identical",
                ctx.order.id,
                view.vehicle
            );
        }
        self.cells += ctx.num_vehicles();
        self.inner.dispatch(ctx)
    }

    fn begin_episode(&mut self, instance: &Instance) {
        self.inner.begin_episode(instance);
    }

    fn end_episode(&mut self) {
        self.inner.end_episode();
    }
}

/// Counts, over an episode's initial sweeps, the schedule caches built and
/// the live columns — the columns with a cell, whose caches a sweep reads.
/// On one cell every active column has a cell for every order, so an
/// epoch's live columns are its `(order, column)` cells over its orders.
#[derive(Default)]
struct CacheTally {
    built: usize,
    live: usize,
}

impl SimObserver for CacheTally {
    fn on_epoch(&mut self, epoch: &EpochInfo) {
        self.built += epoch.shards.caches_built;
        self.live += (epoch.shards.evaluated - epoch.shards.shared) / epoch.num_orders;
    }
}

/// Every cell a policy can read equals the naive Algorithm 2 oracle, and
/// checking changes nothing: for Baselines 1–3 the oracle-checked episode
/// is the unwrapped native-batch episode — on the campus instance under
/// every buffering mode at both thread widths, on the metro instance
/// flat, sharded (where pruned cells are never evaluated) and under a
/// hierarchical layout that re-partitions mid-episode, and on a disrupted
/// metro day under immediate dispatch. There, cancellations, breakdowns
/// with stranded re-dispatch and recoveries rewrite routes between epochs,
/// and a schedule cache is kept from one epoch to the next whenever its
/// vehicle's view did not change: the episode must build fewer caches than
/// its sweeps read, or the reuse went unchecked.
#[test]
fn every_cell_a_policy_reads_matches_the_naive_oracle() {
    type MakeDispatcher = fn() -> Box<dyn Dispatcher>;
    let lineup: [(&str, MakeDispatcher); 3] = [
        ("Baseline1", || Box::new(Baseline1)),
        ("Baseline2", || Box::new(Baseline2)),
        ("Baseline3", || Box::<Baseline3>::default()),
    ];
    let campus = presets().dataset().sampled_instance(0..3, 30, 8, 21);
    let metro = Presets::metro(7).metro_instance(60, 32, 5);
    let (disrupted_metro, disruptions) = Presets::metro_disrupted(3);
    let disrupted = disrupted_metro.metro_instance(120, 24, 2);
    let hourly = BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0));
    let unsharded = ShardConfig::flat(1).expect("one shard");
    let repartitioned = ShardConfig::hierarchical(2, 2)
        .expect("positive region/cell counts")
        .escalation(2)
        .repartition(RepartitionPolicy::Periodic {
            every_epochs: 2,
            min_orders: 1,
        })
        .expect("positive epoch period");
    let mut configs: Vec<(
        &Instance,
        BufferingMode,
        ShardConfig,
        Option<DisruptionConfig>,
    )> = modes()
        .into_iter()
        .map(|mode| (&campus, mode, unsharded.clone(), None))
        .collect();
    configs.push((&metro, hourly, unsharded.clone(), None));
    configs.push((
        &metro,
        hourly,
        ShardConfig::flat(4).expect("four shards"),
        None,
    ));
    configs.push((&metro, hourly, repartitioned, None));
    configs.push((
        &disrupted,
        BufferingMode::Immediate,
        unsharded.clone(),
        Some(disruptions),
    ));
    for (instance, mode, sharding, disruptions) in configs {
        for width in [1, parallel_threads()] {
            let mut builder = Simulator::builder(instance)
                .buffering(mode)
                .sharding(sharding.clone())
                .num_threads(width);
            if let Some(disruptions) = &disruptions {
                builder = builder.disruptions(disruptions.clone()).seed(9);
            }
            let sim = builder.build().expect("valid configuration");
            for (name, make) in lineup {
                let mut checked = OracleChecked {
                    inner: make(),
                    cells: 0,
                    active: Vec::new(),
                };
                let mut caches = CacheTally::default();
                assert_eq!(
                    sim.run_observed(
                        &mut checked,
                        &mut [&mut caches, &mut InvariantAuditor::default()]
                    ),
                    sim.run_observed(&mut *make(), &mut [&mut InvariantAuditor::default()]),
                    "{name}: oracle-checked episode diverged under {mode:?} / \
                     {sharding:?} at {width} thread(s)"
                );
                if disruptions.is_some() {
                    assert!(
                        caches.built < caches.live,
                        "{name}: {} caches built for {} live columns: none was reused",
                        caches.built,
                        caches.live
                    );
                    continue;
                }
                assert_eq!(
                    checked.cells,
                    instance.num_orders() * instance.fleet.vehicles.len(),
                    "{name}: every order must show its full row"
                );
            }
        }
    }
}

/// The region-sharded dispatch pipeline must be invisible in results:
/// episodes at `shards = N` are bit-identical to `shards = 1`, for
/// Baselines 1–3 and DQN, at 1 thread and at the parallel width, under
/// immediate service and coarse buffering (multi-order sharded epochs).
/// Runs on a metro instance where cross-shard pruning genuinely fires
/// (see `sharded_metro_epochs_actually_prune` for the non-vacuity guard).
#[test]
fn every_policy_is_bit_identical_across_shard_counts() {
    let metro = Presets::metro(7);
    let instance = metro.metro_instance(60, 32, 5);
    let rl_instance = metro.metro_instance(24, 12, 9);
    let threads = parallel_threads();
    let run_sharded = |instance: &Instance,
                       buffering: BufferingMode,
                       dispatcher: &mut dyn Dispatcher,
                       shards: usize,
                       num_threads: usize| {
        Simulator::builder(instance)
            .buffering(buffering)
            .sharding(ShardConfig::flat(shards).expect("positive shard count"))
            .num_threads(num_threads)
            .build()
            .expect("valid configuration")
            .run_observed(dispatcher, &mut [&mut InvariantAuditor::default()])
    };
    let buffer_modes = [
        BufferingMode::Immediate,
        BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)),
    ];
    for mode in buffer_modes {
        type MakeDispatcher = fn() -> Box<dyn Dispatcher>;
        let heuristics: [(&str, MakeDispatcher); 3] = [
            ("Baseline1", || Box::new(Baseline1)),
            ("Baseline2", || Box::new(Baseline2)),
            ("Baseline3", || Box::<Baseline3>::default()),
        ];
        for (name, make) in heuristics {
            let flat = run_sharded(&instance, mode, &mut *make(), 1, 1);
            assert_eq!(flat.assignments.len(), instance.num_orders());
            for shards in [2usize, 4] {
                for &width in &[1usize, threads] {
                    let sharded = run_sharded(&instance, mode, &mut *make(), shards, width);
                    assert_eq!(
                        flat, sharded,
                        "{name} diverged at {shards} shards / {width} thread(s) under {mode:?}"
                    );
                }
            }
        }

        // One learned policy: identically seeded agents, so the whole
        // training episode (exploration RNG included) must match.
        let flat = {
            let mut agent = models::dqn_agent(ModelKind::Dgn, metro.dataset(), 5);
            run_sharded(&rl_instance, mode, &mut agent, 1, 1)
        };
        for &(shards, width) in &[(4usize, 1usize), (4, threads)] {
            let mut agent = models::dqn_agent(ModelKind::Dgn, metro.dataset(), 5);
            let sharded = run_sharded(&rl_instance, mode, &mut agent, shards, width);
            assert_eq!(
                flat, sharded,
                "DQN diverged at {shards} shards / {width} thread(s) under {mode:?}"
            );
        }
    }
}

/// Non-vacuity guard for the shard parity suite: on the metro instance the
/// sharded sweep must actually prune a substantial share of cross-shard
/// cells — otherwise the bit-identity assertions above would hold
/// trivially because every cell ran the full sweep anyway.
#[test]
fn sharded_metro_epochs_actually_prune() {
    use dpdp_sim::ShardStats;

    #[derive(Default)]
    struct Tally(ShardStats);
    impl SimObserver for Tally {
        fn on_epoch(&mut self, e: &EpochInfo) {
            self.0.cells += e.shards.cells;
            self.0.evaluated += e.shards.evaluated;
            self.0.pruned += e.shards.pruned;
            self.0.escalated += e.shards.escalated;
        }
    }

    let metro = Presets::metro(7);
    let instance = metro.metro_instance(60, 32, 5);
    let mut tally = Tally::default();
    Simulator::builder(&instance)
        .sharding(ShardConfig::flat(4).unwrap())
        .build()
        .unwrap()
        .run_observed(
            &mut Baseline1,
            &mut [&mut tally, &mut InvariantAuditor::default()],
        );
    let stats = tally.0;
    assert_eq!(stats.cells, stats.evaluated + stats.pruned);
    assert!(
        stats.pruned as f64 >= 0.3 * stats.cells as f64,
        "expected >= 30% of cells pruned on the metro instance, got {}/{}",
        stats.pruned,
        stats.cells
    );
    assert!(stats.escalated > 0, "escalation must also fire");
}

/// The ledger's `megacity_b1` configuration at a tenth of its size: the
/// hierarchical 64 x 2 layout with escalation 2 and periodic
/// re-partitioning under 30-minute buffering, where most of a commit
/// delta's column is pruned and the sparse rows keep those cells implicit.
/// Baselines 1-3 must decide exactly as on the flat unsharded scan — at
/// both thread widths, and through the per-order adapter reading the same
/// sharded batch — and the commit deltas must actually prune.
#[test]
fn hierarchical_megacity_commit_deltas_are_invisible_to_the_baselines() {
    use dpdp_sim::ShardStats;

    /// Forwards to `inner`, tallying the work its commits added on top of
    /// each epoch's initial sweep.
    struct DeltaTally {
        inner: Box<dyn Dispatcher>,
        deltas: ShardStats,
    }
    impl Dispatcher for DeltaTally {
        fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
            self.inner.dispatch(ctx)
        }
        fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
            let before = batch.shard_stats();
            let decisions = self.inner.dispatch_batch(batch);
            let after = batch.shard_stats();
            self.deltas.cells += after.cells - before.cells;
            self.deltas.pruned += after.pruned - before.pruned;
            self.deltas.evaluated += after.evaluated - before.evaluated;
            decisions
        }
        fn begin_episode(&mut self, instance: &Instance) {
            self.inner.begin_episode(instance);
        }
    }

    let megacity = Presets::megacity(7);
    let instance = megacity.megacity_instance(2_000, 1_000, 7);
    let buffering = BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0));
    let sharding = ShardConfig::hierarchical(64, 2)
        .expect("positive region and cell counts")
        .escalation(2)
        .repartition(RepartitionPolicy::periodic(4))
        .expect("positive re-partition period");
    let run_with = |inner: Box<dyn Dispatcher>, sharded: bool, num_threads: usize| {
        let mut builder = Simulator::builder(&instance)
            .buffering(buffering)
            .num_threads(num_threads);
        if sharded {
            builder = builder.sharding(sharding.clone());
        }
        let mut tally = DeltaTally {
            inner,
            deltas: ShardStats::default(),
        };
        let result = builder
            .build()
            .expect("valid configuration")
            .run_observed(&mut tally, &mut [&mut InvariantAuditor::default()]);
        (result, tally.deltas)
    };
    type MakeDispatcher = fn() -> Box<dyn Dispatcher>;
    let heuristics: [(&str, MakeDispatcher, MakeDispatcher); 3] = [
        (
            "Baseline1",
            || Box::new(Baseline1),
            || Box::new(PerOrder(Baseline1)),
        ),
        (
            "Baseline2",
            || Box::new(Baseline2),
            || Box::new(PerOrder(Baseline2)),
        ),
        (
            "Baseline3",
            || Box::<Baseline3>::default(),
            || Box::new(PerOrder(Baseline3::default())),
        ),
    ];
    for (name, native, per_order) in heuristics {
        let (flat, _) = run_with(native(), false, 1);
        assert_eq!(flat.assignments.len(), instance.num_orders());
        for width in [1, parallel_threads()] {
            let (sharded, deltas) = run_with(native(), true, width);
            assert_eq!(
                flat, sharded,
                "{name} diverged under the hierarchical layout at {width} thread(s)"
            );
            assert!(
                deltas.pruned > deltas.evaluated && deltas.evaluated > 0,
                "{name}: commit deltas should mostly prune, got {deltas:?}"
            );
        }
        let (adapter, _) = run_with(per_order(), true, 1);
        assert_eq!(
            flat, adapter,
            "{name} diverged through the per-order adapter"
        );
    }
}

/// A *disrupted* episode is layout-invariant too: on the metro preset with
/// seeded cancellations, breakdowns (stranded pickups re-dispatched) and
/// recoveries, Baselines 1-3 produce the same decisions, metrics and
/// disruption trace on one cell, under four flat shards and under a
/// hierarchical 2 x 2 layout, at both thread widths, and every layout
/// scores idle twins once. This is the path where a broken-down vehicle —
/// route stripped, masked out of the sweep — is parked among the idle
/// twins whose scores are computed once.
#[test]
fn disrupted_episodes_are_bit_identical_across_shard_layouts() {
    use dpdp_sim::{DisruptionKind, DisruptionRecord};

    #[derive(Default)]
    struct Trace {
        /// The disruptions the episode applied, in order.
        disruptions: Vec<DisruptionRecord>,
        /// Cells that took an idle twin's score, over all epochs.
        shared: usize,
    }
    impl SimObserver for Trace {
        fn on_disruption(&mut self, record: &DisruptionRecord) {
            self.disruptions.push(record.clone());
        }
        fn on_epoch(&mut self, epoch: &EpochInfo) {
            self.shared += epoch.shards.shared;
        }
    }

    let (metro, disruptions) = Presets::metro_disrupted(3);
    let instance = metro.metro_instance(120, 24, 2);
    let layouts = [
        ShardConfig::flat(1).expect("one shard"),
        ShardConfig::flat(4).expect("four shards"),
        ShardConfig::hierarchical(2, 2)
            .expect("positive region and cell counts")
            .escalation(2),
    ];
    let run = |make: fn() -> Box<dyn Dispatcher>, sharding: &ShardConfig, width: usize| {
        let mut trace = Trace::default();
        let result = Simulator::builder(&instance)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
            .disruptions(disruptions.clone())
            .sharding(sharding.clone())
            .num_threads(width)
            .seed(9)
            .build()
            .expect("valid disrupted configuration")
            .run_observed(
                &mut *make(),
                &mut [&mut trace, &mut InvariantAuditor::default()],
            );
        (result, trace.disruptions, trace.shared)
    };
    type MakeDispatcher = fn() -> Box<dyn Dispatcher>;
    let lineup: [(&str, MakeDispatcher); 3] = [
        ("Baseline1", || Box::new(Baseline1)),
        ("Baseline2", || Box::new(Baseline2)),
        ("Baseline3", || Box::<Baseline3>::default()),
    ];
    let mut stranded = 0;
    for (name, make) in lineup {
        let (reference, trace, _) = run(make, &layouts[0], 1);
        // Non-vacuity: every kind of disruption fired.
        let count =
            |kind: fn(&DisruptionKind) -> bool| trace.iter().filter(|r| kind(&r.kind)).count();
        assert!(count(|k| matches!(k, DisruptionKind::OrderCancelled { .. })) > 0);
        assert!(count(|k| matches!(k, DisruptionKind::VehicleBreakdown { .. })) > 0);
        assert!(count(|k| matches!(k, DisruptionKind::VehicleRecovered { .. })) > 0);
        stranded += count(|k| match k {
            DisruptionKind::VehicleBreakdown { stranded, .. } => !stranded.is_empty(),
            _ => false,
        });
        for sharding in &layouts {
            for width in [1, parallel_threads()] {
                let (result, layout_trace, shared) = run(make, sharding, width);
                assert!(
                    shared > 0,
                    "{name}: every layout must score idle twins once ({sharding:?})"
                );
                assert_eq!(
                    reference, result,
                    "{name}: disrupted episode diverged under {sharding:?} at {width} thread(s)"
                );
                assert_eq!(
                    trace, layout_trace,
                    "{name}: disruption trace diverged under {sharding:?} at {width} thread(s)"
                );
            }
        }
    }
    assert!(
        stranded > 0,
        "no breakdown sent an accepted order back to dispatch"
    );
}

#[test]
fn dqn_agent_matches_through_both_paths() {
    // Two freshly built agents share every seed, so as long as the batch
    // path consumes the RNG and scores snapshots identically, the whole
    // training episode (exploration included) must match decision for
    // decision.
    let presets = presets();
    let instance = presets.dataset().sampled_instance(0..3, 20, 6, 9);
    for mode in modes() {
        let mut native = models::dqn_agent(ModelKind::Dgn, presets.dataset(), 5);
        let mut serial = PerOrder(models::dqn_agent(ModelKind::Dgn, presets.dataset(), 5));
        for episode in 0..2 {
            let a = run(&instance, mode, &mut native);
            let b = run(&instance, mode, &mut serial);
            assert_eq!(
                a, b,
                "DQN episode {episode} diverged between native batch and \
                 per-order dispatch under {mode:?}"
            );
        }
    }
}

/// Every policy of the evaluation lineup — Baselines 1-3, DQN, AC — must
/// produce identical decisions (assignment log included) and metrics on a
/// multi-threaded scoring pool, under both immediate service and coarse
/// buffering (where the parallel `B x K` sweep sees real multi-order
/// epochs).
#[test]
fn every_policy_is_bit_identical_across_thread_counts() {
    let presets = presets();
    let threads = parallel_threads();
    let instance = presets.dataset().sampled_instance(0..3, 30, 8, 21);
    let rl_instance = presets.dataset().sampled_instance(0..3, 20, 6, 9);
    for mode in modes() {
        // Heuristics are stateless across runs (Baseline3 resets per
        // episode), so one value can serve both thread counts.
        type MakeDispatcher = fn() -> Box<dyn Dispatcher>;
        let heuristics: [(&str, MakeDispatcher); 3] = [
            ("Baseline1", || Box::new(Baseline1)),
            ("Baseline2", || Box::new(Baseline2)),
            ("Baseline3", || Box::<Baseline3>::default()),
        ];
        for (name, make) in heuristics {
            let serial = run_threads(&instance, mode, &mut *make(), 1);
            let parallel = run_threads(&instance, mode, &mut *make(), threads);
            assert_eq!(
                serial, parallel,
                "{name} diverged at {threads} threads under {mode:?}"
            );
            assert_eq!(serial.assignments.len(), instance.num_orders());
        }

        // Learned agents: identical seeds, training mode (exploration RNG
        // included) — the whole episode must match decision for decision.
        let mut dqn_serial = models::dqn_agent(ModelKind::Dgn, presets.dataset(), 5);
        let mut dqn_parallel = models::dqn_agent(ModelKind::Dgn, presets.dataset(), 5);
        let a = run_threads(&rl_instance, mode, &mut dqn_serial, 1);
        let b = run_threads(&rl_instance, mode, &mut dqn_parallel, threads);
        assert_eq!(a, b, "DQN diverged at {threads} threads under {mode:?}");

        let cfg = ActorCriticConfig {
            seed: 3,
            ..ActorCriticConfig::default()
        };
        let mut ac_serial = ActorCriticAgent::new(cfg.clone(), 144);
        let mut ac_parallel = ActorCriticAgent::new(cfg, 144);
        let a = run_threads(&rl_instance, mode, &mut ac_serial, 1);
        let b = run_threads(&rl_instance, mode, &mut ac_parallel, threads);
        assert_eq!(a, b, "AC diverged at {threads} threads under {mode:?}");
    }
}

/// Epochs at or above `FAN_OUT_MIN_CELLS` fan out on the pool, every
/// smaller one runs inline: the golden case whose widest epochs reach the
/// gate gives the committed episode through the native batch path and the
/// per-order adapter, at 1 thread and at the parallel width, where both
/// runs fan out on the pool.
#[test]
fn wide_epochs_match_through_both_paths_at_both_widths() {
    let case = golden::cases("metro_wide").pop().expect("the wide case");
    for width in [1, parallel_threads()] {
        let pool = Arc::new(ThreadPool::new(width));
        let sim = case
            .builder()
            .thread_pool(Arc::clone(&pool))
            .build()
            .expect("valid configuration");
        let native = sim.run_observed(&mut Baseline1, &mut [&mut InvariantAuditor::default()]);
        case.assert_digest(&native, &format!("native batch / {width} thread(s)"));
        let native_fan_outs = pool.fan_outs();
        let serial = sim.run_observed(
            &mut PerOrder(Baseline1),
            &mut [&mut InvariantAuditor::default()],
        );
        case.assert_digest(&serial, &format!("per-order / {width} thread(s)"));
        if pool.is_parallel() {
            assert!(
                native_fan_outs > 0 && pool.fan_outs() > native_fan_outs,
                "no epoch reached the gate of {FAN_OUT_MIN_CELLS} cells on one \
                 of the two paths"
            );
        }
    }
}

#[test]
fn actor_critic_matches_through_both_paths() {
    let presets = presets();
    let instance = presets.dataset().sampled_instance(0..3, 20, 6, 13);
    let cfg = ActorCriticConfig {
        seed: 3,
        ..ActorCriticConfig::default()
    };
    for mode in modes() {
        let mut native = ActorCriticAgent::new(cfg.clone(), 144);
        let mut serial = PerOrder(ActorCriticAgent::new(cfg.clone(), 144));
        for episode in 0..2 {
            let a = run(&instance, mode, &mut native);
            let b = run(&instance, mode, &mut serial);
            assert_eq!(
                a, b,
                "AC episode {episode} diverged between native batch and \
                 per-order dispatch under {mode:?}"
            );
        }
    }
}
