//! The episode simulator (paper Algorithm 1), organised around batched
//! decision epochs.

use crate::batch::{Decision, DecisionBatch, DecisionReason, EpochScratch};
use crate::dispatcher::Dispatcher;
use crate::event::DisruptionConfig;
use crate::metrics::{AssignmentRecord, EpisodeResult, MetricsAccumulator, MetricsOptions};
use crate::observer::{DecisionRecord, EpochInfo, SimObserver};
use crate::shard::ShardContext;
use crate::sharding::{ShardConfig, ShardRuntime};
use crate::state::VehicleState;
use dpdp_net::{Instance, ShardMap, TimeDelta, TimePoint};
use dpdp_pool::ThreadPool;
use dpdp_routing::{PlannerOutput, RoutePlanner, VehicleView};
use std::sync::Arc;

/// When dispatch decisions are made relative to order creation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferingMode {
    /// Process each order the moment it is created (the paper's deployed
    /// strategy; short response time). Orders created at the same instant
    /// still share one decision epoch.
    Immediate,
    /// Accumulate orders and flush them at fixed wall-clock multiples of the
    /// given period (the alternative strategy the paper evaluated and
    /// rejected for its ~154 s response times). Every flush is one decision
    /// epoch: all orders buffered since the previous flush are decided
    /// through a single [`Dispatcher::dispatch_batch`] call.
    ///
    /// An order created *exactly* at a flush multiple (`created = k * period`)
    /// is decided at that flush, not delayed to the next one.
    FixedInterval(TimeDelta),
}

/// Errors detected when building a [`Simulator`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimBuildError {
    /// `FixedInterval` buffering needs a strictly positive period.
    NonPositivePeriod {
        /// The offending period, in seconds.
        seconds: f64,
    },
    /// [`SimulatorBuilder::num_threads`] needs at least one thread.
    ZeroThreads,
    /// [`ShardConfig::flat`] needs at least one shard.
    ZeroShards,
    /// A [`ShardConfig`] constructor or knob got inconsistent values
    /// (zero region/cell counts, a hierarchical policy handed to
    /// [`ShardConfig::flat_with`], or a zero re-partition cadence).
    InvalidSharding {
        /// What was wrong.
        reason: String,
    },
    /// [`SimulatorBuilder::disruptions`] got invalid knobs (probability
    /// outside `[0, 1]`, negative delay, or an unordered window/range).
    InvalidDisruption {
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for SimBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimBuildError::NonPositivePeriod { seconds } => write!(
                f,
                "fixed-interval buffering period must be positive, got {seconds} s"
            ),
            SimBuildError::ZeroThreads => {
                write!(f, "num_threads must be at least 1 (1 = serial)")
            }
            SimBuildError::ZeroShards => {
                write!(f, "shard count must be at least 1 (1 = unsharded)")
            }
            SimBuildError::InvalidSharding { reason } => {
                write!(f, "invalid shard config: {reason}")
            }
            SimBuildError::InvalidDisruption { reason } => {
                write!(f, "invalid disruption config: {reason}")
            }
        }
    }
}

impl std::error::Error for SimBuildError {}

/// Configures and validates a [`Simulator`].
///
/// ```
/// # use dpdp_sim::{Simulator, BufferingMode};
/// # use dpdp_net::{FleetConfig, Instance, IntervalGrid, Node, NodeId, Point,
/// #     RoadNetwork, TimeDelta};
/// # let nodes = vec![Node::depot(NodeId(0), Point::new(0.0, 0.0))];
/// # let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
/// # let fleet = FleetConfig::homogeneous(1, &[NodeId(0)], 10.0, 500.0, 2.0,
/// #     60.0, TimeDelta::ZERO).unwrap();
/// # let instance =
/// #     Instance::new(net, fleet, IntervalGrid::paper_default(), vec![]).unwrap();
/// let sim = Simulator::builder(&instance)
///     .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
///     .seed(7)
///     .build()
///     .expect("positive period");
/// ```
#[derive(Debug, Clone)]
pub struct SimulatorBuilder<'a> {
    instance: &'a Instance,
    buffering: BufferingMode,
    horizon: Option<TimePoint>,
    metrics: MetricsOptions,
    seed: u64,
    num_threads: usize,
    pool: Option<Arc<ThreadPool>>,
    sharding: ShardConfig,
    disruptions: Option<DisruptionConfig>,
}

impl<'a> SimulatorBuilder<'a> {
    /// Starts from the defaults: immediate service, no horizon, full
    /// metrics, seed 0, single-threaded scoring, unsharded dispatch.
    pub fn new(instance: &'a Instance) -> Self {
        SimulatorBuilder {
            instance,
            buffering: BufferingMode::Immediate,
            horizon: None,
            metrics: MetricsOptions::default(),
            seed: 0,
            num_threads: 1,
            pool: None,
            sharding: ShardConfig::default(),
            disruptions: None,
        }
    }

    /// Sets the buffering strategy.
    pub fn buffering(mut self, buffering: BufferingMode) -> Self {
        self.buffering = buffering;
        self
    }

    /// Convenience: fixed-interval buffering with the given period.
    pub fn fixed_interval(self, period: TimeDelta) -> Self {
        self.buffering(BufferingMode::FixedInterval(period))
    }

    /// Stops dispatching at `horizon`: orders whose decision time falls
    /// strictly after it are recorded as rejected with
    /// [`DecisionReason::HorizonExceeded`] and excluded from the
    /// response-time average.
    pub fn horizon(mut self, horizon: TimePoint) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Chooses which episode logs to materialise.
    pub fn metrics(mut self, options: MetricsOptions) -> Self {
        self.metrics = options;
        self
    }

    /// Seeds the simulator's deterministic identity. The replay itself is
    /// deterministic; the seed is carried for stochastic scenario
    /// extensions (e.g. sampled travel times) and surfaced to dispatchers
    /// via [`Simulator::seed`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of threads decision epochs are scored with (via an in-repo
    /// [`dpdp_pool::ThreadPool`] handed to every [`DecisionBatch`]).
    ///
    /// The default of 1 runs everything inline on the caller — bit-exact
    /// legacy behaviour with zero synchronisation. Any `n > 1` spawns
    /// `n - 1` workers, and because every parallel loop writes to
    /// pre-indexed slots, **episode results are identical for every thread
    /// count** (the parity suite in `tests/batch_parity.rs` asserts this
    /// for all built-in policies).
    ///
    /// [`DecisionBatch`]: crate::batch::DecisionBatch
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self.pool = None;
        self
    }

    /// Shares an existing pool instead of spawning a fresh one in
    /// [`SimulatorBuilder::build`] — the cheap path when many simulators
    /// (e.g. one per evaluation episode) should reuse the same workers
    /// rather than pay thread spawn/teardown per episode. Overrides any
    /// previous [`SimulatorBuilder::num_threads`]; the pool's own width
    /// applies.
    pub fn thread_pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.num_threads = pool.threads();
        self.pool = Some(pool);
        self
    }

    /// Sets the sharding configuration: how decision epochs are
    /// partitioned geographically (the region-sharded dispatch pipeline;
    /// see [`crate::shard`] and [`crate::sharding`]).
    ///
    /// The default [`ShardConfig::default`] (one flat cell) is the plain
    /// fleet scan. Any multi-cell config builds a [`ShardMap`] over the
    /// instance's node coordinates at [`SimulatorBuilder::build`] time and
    /// scores every epoch as a merge of cell-local batches: in-cell
    /// `(order, vehicle)` pairs run the full insertion sweep
    /// shard-concurrently, cross-cell pairs are either escalated within
    /// the parent region (see [`ShardConfig::escalation`]) or skipped
    /// through an exact geometric infeasibility bound. A
    /// [`RepartitionPolicy`](crate::sharding::RepartitionPolicy) can
    /// additionally re-seed the partition from live demand at flush
    /// boundaries. **Episode results are bit-identical for every shard
    /// layout** — the partition changes wall time, never decisions
    /// (`tests/batch_parity.rs` and `tests/repartition.rs` assert it).
    pub fn sharding(mut self, config: ShardConfig) -> Self {
        self.sharding = config;
        self
    }

    /// Arms seeded stochastic disruptions for every episode this simulator
    /// runs: order cancellations and vehicle breakdowns/recoveries sampled
    /// by a [`DisruptionSource`](crate::event::DisruptionSource) from the
    /// simulator seed (see [`SimulatorBuilder::seed`]) through dedicated
    /// RNG streams — legacy draws are untouched, and a simulator without a
    /// disruption config replays exactly the legacy episode.
    ///
    /// Validated at [`SimulatorBuilder::build`] time
    /// ([`SimBuildError::InvalidDisruption`]).
    pub fn disruptions(mut self, config: DisruptionConfig) -> Self {
        self.disruptions = Some(config);
        self
    }

    /// Validates the configuration and builds the simulator.
    ///
    /// # Errors
    /// [`SimBuildError::NonPositivePeriod`] when fixed-interval buffering
    /// was requested with a period `<= 0`;
    /// [`SimBuildError::ZeroThreads`] when `num_threads(0)` was requested.
    /// (Shard configs are validated at [`ShardConfig`] construction time.)
    pub fn build(self) -> Result<Simulator<'a>, SimBuildError> {
        if let BufferingMode::FixedInterval(period) = self.buffering {
            let seconds = period.seconds();
            if seconds.is_nan() || seconds <= 0.0 {
                return Err(SimBuildError::NonPositivePeriod { seconds });
            }
        }
        if self.num_threads == 0 {
            return Err(SimBuildError::ZeroThreads);
        }
        if let Some(config) = &self.disruptions {
            config
                .validate()
                .map_err(|reason| SimBuildError::InvalidDisruption { reason })?;
        }
        let pool = self
            .pool
            .unwrap_or_else(|| Arc::new(ThreadPool::new(self.num_threads)));
        // The initial partition is built once here from node geometry and
        // shared by every episode; a re-partition policy lets each episode
        // evolve its own copy from the live demand stream.
        let shards = self
            .sharding
            .initial_context(&self.instance.network, self.seed);
        Ok(Simulator {
            instance: self.instance,
            buffering: self.buffering,
            horizon: self.horizon,
            metrics: self.metrics,
            seed: self.seed,
            pool,
            sharding: self.sharding,
            shards,
            disruptions: self.disruptions,
        })
    }
}

/// Default escalation width `m` of [`ShardConfig::escalation`]: every
/// order always sees its two nearest same-region foreign vehicles
/// evaluated in full, wherever the infeasibility bound stands.
pub const DEFAULT_SHARD_ESCALATION: usize = 2;

/// Fans every episode event out to the observers and feeds decisions into
/// the metrics accumulator — the single place a decision is recorded, so
/// the horizon, fast-commit, re-validation and disruption paths cannot
/// drift apart.
pub(crate) struct EpisodeSink<'run, 'obs, 'world> {
    pub(crate) observers: &'run mut [&'obs mut dyn SimObserver],
    pub(crate) acc: MetricsAccumulator,
    pub(crate) fleet: &'world dpdp_net::FleetConfig,
    pub(crate) net: &'world dpdp_net::RoadNetwork,
}

impl EpisodeSink<'_, '_, '_> {
    pub(crate) fn begin(&mut self, instance: &Instance) {
        for obs in self.observers.iter_mut() {
            obs.on_episode_begin(instance);
        }
    }

    pub(crate) fn epoch(&mut self, info: &EpochInfo) {
        for obs in self.observers.iter_mut() {
            obs.on_epoch(info);
        }
    }

    /// Fans a disruption record out to the observers.
    pub(crate) fn disruption(&mut self, record: &crate::observer::DisruptionRecord) {
        for obs in self.observers.iter_mut() {
            obs.on_disruption(record);
        }
    }

    /// Records one committed decision. `committed` carries the chosen
    /// vehicle's pre-accept view and validated plan for assignments;
    /// `response_secs` is `None` for orders that were never dispatched.
    pub(crate) fn decision(
        &mut self,
        decision: &Decision,
        record: AssignmentRecord,
        committed: Option<(&VehicleView, &PlannerOutput)>,
        response_secs: Option<f64>,
    ) {
        for obs in self.observers.iter_mut() {
            obs.on_decision(&DecisionRecord {
                decision,
                assignment: &record,
                view: committed.map(|(view, _)| view),
                plan: committed.map(|(_, plan)| plan),
                fleet: self.fleet,
                net: self.net,
            });
        }
        self.acc.record(record, response_secs);
    }

    pub(crate) fn finish(self, states: &[VehicleState]) -> EpisodeResult {
        let result = self.acc.finish(states, self.net, self.fleet);
        for obs in self.observers.iter_mut() {
            obs.on_episode_end(&result);
        }
        result
    }
}

/// The episode simulator: replays an instance's orders against a fleet under
/// a given [`Dispatcher`], one batched decision epoch at a time.
///
/// Construct via [`Simulator::builder`].
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    pub(crate) instance: &'a Instance,
    pub(crate) buffering: BufferingMode,
    pub(crate) horizon: Option<TimePoint>,
    pub(crate) metrics: MetricsOptions,
    pub(crate) seed: u64,
    pub(crate) pool: Arc<ThreadPool>,
    pub(crate) sharding: ShardConfig,
    pub(crate) shards: Option<ShardContext>,
    pub(crate) disruptions: Option<DisruptionConfig>,
}

impl<'a> Simulator<'a> {
    /// Starts configuring a simulator for `instance`.
    pub fn builder(instance: &'a Instance) -> SimulatorBuilder<'a> {
        SimulatorBuilder::new(instance)
    }

    /// The instance being simulated.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// The buffering strategy in effect.
    pub fn buffering(&self) -> BufferingMode {
        self.buffering
    }

    /// The simulator's seed (see [`SimulatorBuilder::seed`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Width of the scoring thread pool (see
    /// [`SimulatorBuilder::num_threads`]).
    pub fn num_threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of geographic shards (cells) epochs are scored with (see
    /// [`SimulatorBuilder::sharding`]; 1 = flat scan).
    pub fn num_shards(&self) -> usize {
        self.shards.as_ref().map_or(1, |c| c.map.num_shards())
    }

    /// The sharding configuration in effect (see
    /// [`SimulatorBuilder::sharding`]).
    pub fn sharding(&self) -> &ShardConfig {
        &self.sharding
    }

    /// The *initial* region partition, when sharding is on. Episodes under
    /// a re-partition policy evolve their own episode-local copy; this is
    /// the geometry-seeded map every episode starts from.
    pub fn shard_map(&self) -> Option<&ShardMap> {
        self.shards.as_ref().map(|c| &*c.map)
    }

    /// Builds the episode-local sharding runtime both episode loops start
    /// from — one per episode so mid-episode re-partitioning never leaks
    /// across runs.
    pub(crate) fn shard_runtime(&self) -> ShardRuntime {
        ShardRuntime::new(
            &self.sharding,
            self.shards.as_ref(),
            self.seed,
            self.instance.network.nodes().len(),
        )
    }

    /// The armed disruption config, if any (see
    /// [`SimulatorBuilder::disruptions`]).
    pub fn disruption_config(&self) -> Option<&DisruptionConfig> {
        self.disruptions.as_ref()
    }

    /// The wall-clock time at which an order created at `created` is
    /// decided.
    ///
    /// Under immediate service this is the creation time itself. Under
    /// fixed-interval buffering it is the first flush instant `k * period`
    /// with `k * period >= created` — in particular, an order created
    /// exactly at a flush multiple is decided at that flush, not one period
    /// later. (The implementation guards the `created / period` division
    /// against floating-point round-up so the boundary holds even when the
    /// product `k * period` is not exactly representable.)
    pub fn decision_time(&self, created: TimePoint) -> TimePoint {
        match self.buffering {
            BufferingMode::Immediate => created,
            BufferingMode::FixedInterval(period) => {
                let p = period.seconds();
                let mut k = (created.seconds() / p).ceil();
                // Float guard: if the division rounded up past the true
                // quotient, (k-1)*p already covers the creation time.
                if k >= 1.0 && (k - 1.0) * p >= created.seconds() {
                    k -= 1.0;
                }
                TimePoint::from_seconds(k * p)
            }
        }
    }

    /// Runs one full episode and returns the result. The dispatcher's
    /// `begin_episode` / `end_episode` hooks bracket the run.
    pub fn run(&self, dispatcher: &mut dyn Dispatcher) -> EpisodeResult {
        self.run_observed(dispatcher, &mut [])
    }

    /// Runs one full episode, notifying `observers` of every epoch,
    /// decision and disruption (see [`SimObserver`] for the guaranteed
    /// call order).
    ///
    /// This is the event-driven engine (see [`crate::event`] and
    /// [`Simulator::run_events`]): the instance's order table replays
    /// through a [`ReplaySource`](crate::event::ReplaySource) —
    /// bit-identical to the legacy scan loop kept as
    /// [`Simulator::run_reference`] — and, when
    /// [`SimulatorBuilder::disruptions`] armed a config, a seeded
    /// [`DisruptionSource`](crate::event::DisruptionSource) rides along.
    ///
    /// Orders are grouped into *decision epochs* — maximal runs of orders
    /// sharing one decision time — and each epoch is decided through a
    /// single [`Dispatcher::dispatch_batch`] call against one shared fleet
    /// snapshot. Every decision the dispatcher returns is re-validated:
    /// the simulator replans the chosen `(vehicle, order)` pair against
    /// its authoritative state and downgrades infeasible choices to
    /// rejections, so a buggy or adversarial policy cannot corrupt the
    /// episode.
    ///
    /// # Panics
    /// Panics if the dispatcher violates the `dispatch_batch` contract by
    /// returning the wrong number of decisions or decisions out of order.
    pub fn run_observed(
        &self,
        dispatcher: &mut dyn Dispatcher,
        observers: &mut [&mut dyn SimObserver],
    ) -> EpisodeResult {
        use crate::event::{DisruptionSource, EventSource, ReplaySource};
        let mut sources: Vec<Box<dyn EventSource + '_>> =
            vec![Box::new(ReplaySource::new(self.instance))];
        if let Some(config) = &self.disruptions {
            sources.push(Box::new(DisruptionSource::new(
                self.instance,
                config,
                self.seed,
            )));
        }
        self.run_events(sources, dispatcher, observers)
    }

    /// The pre-event reference implementation: a direct scan over the
    /// sorted order table, kept verbatim so `tests/event_parity.rs` can
    /// assert the event-driven engine reproduces it **bit-identically**
    /// for every scenario, policy, shard count and thread count.
    ///
    /// Supports everything the scan loop ever supported — buffering,
    /// horizon, threads, shards — but *not* event-only
    /// features: any [`SimulatorBuilder::disruptions`] config is ignored
    /// here, and nothing can arrive mid-episode.
    ///
    /// # Panics
    /// Panics if the dispatcher violates the `dispatch_batch` contract.
    pub fn run_reference(
        &self,
        dispatcher: &mut dyn Dispatcher,
        observers: &mut [&mut dyn SimObserver],
    ) -> EpisodeResult {
        let instance = self.instance;
        let net = &instance.network;
        let fleet = &instance.fleet;
        let orders = instance.orders();
        dispatcher.begin_episode(instance);
        let mut sink = EpisodeSink {
            observers,
            acc: MetricsAccumulator::new(self.metrics, orders.len()),
            fleet,
            net,
        };
        sink.begin(instance);

        let mut states: Vec<VehicleState> = fleet.vehicles.iter().map(VehicleState::new).collect();

        let mut shard_rt = self.shard_runtime();
        let mut epoch_index = 0;
        let mut start = 0;
        // Per-epoch planning arena, reused across the whole episode:
        // cleared at each batch build, never freed (see `EpochScratch`).
        let mut scratch = EpochScratch::default();
        while start < orders.len() {
            let now = self.decision_time(orders[start].created);
            let mut end = start + 1;
            while end < orders.len() && self.decision_time(orders[end].created) == now {
                end += 1;
            }
            let epoch_orders = &orders[start..end];
            let interval = instance.grid.interval_of(now);

            if self.horizon.is_some_and(|h| now > h) {
                // Beyond the horizon: never dispatched. Orders are sorted
                // by creation and decision times are monotone, so every
                // later epoch is beyond it too — but keep scanning epochs
                // to log each order.
                for order in epoch_orders {
                    let decision = Decision::rejected(order.id, DecisionReason::HorizonExceeded);
                    let record = AssignmentRecord::rejected(
                        order.id,
                        DecisionReason::HorizonExceeded,
                        now,
                        interval,
                    );
                    sink.decision(&decision, record, None, None);
                }
                start = end;
                continue;
            }

            for s in &mut states {
                s.advance_to(now, net, fleet, orders);
            }
            // Demand accumulation and re-partitioning happen serially at
            // the flush boundary, before the batch forms — the event
            // engine does the same, so both loops stay bit-identical.
            for order in epoch_orders {
                shard_rt.observe(order);
            }
            let repartitioned = shard_rt.maybe_repartition(net);
            let batch = DecisionBatch::new(
                now,
                interval,
                net,
                fleet,
                orders,
                epoch_orders.iter().map(|o| o.id).collect(),
                states.clone(),
                Arc::clone(&self.pool),
                shard_rt.context(),
                None,
                &mut scratch,
            );
            sink.epoch(&EpochInfo {
                index: epoch_index,
                now,
                interval,
                num_orders: epoch_orders.len(),
                num_shards: self.num_shards(),
                shards: batch.shard_stats(),
                repartitioned,
            });
            let decisions = dispatcher.dispatch_batch(&batch);
            assert_eq!(
                decisions.len(),
                epoch_orders.len(),
                "{}: dispatch_batch returned {} decisions for {} orders",
                dispatcher.name(),
                decisions.len(),
                epoch_orders.len(),
            );

            // Fast path: when every returned decision matches what the
            // batch itself committed through `resolve` (true for the
            // default adapter and every built-in policy), adopt the batch's
            // scratch states and recorded plans verbatim — no replanning.
            // Otherwise fall back to re-validating each decision against
            // the authoritative state, so a stale or bogus choice degrades
            // to a rejection instead of corrupting the episode.
            let (commits, scratch_states) = batch.into_parts();
            let resolved_by_batch = decisions
                .iter()
                .zip(&commits)
                .all(|(d, c)| c.as_ref().is_some_and(|c| c.decision == *d));
            if resolved_by_batch {
                for ((order, decision), commit) in epoch_orders.iter().zip(&decisions).zip(commits)
                {
                    let commit = commit.expect("all commits checked present");
                    let response = (now - order.created).seconds();
                    match &commit.assignment {
                        Some(a) => {
                            let record = AssignmentRecord::assigned(
                                order.id,
                                decision.vehicle.expect("assignment has a vehicle"),
                                now,
                                interval,
                                &a.plan,
                                a.vehicle_was_used,
                            );
                            sink.decision(
                                &commit.decision,
                                record,
                                Some((&a.pre_view, &a.plan)),
                                Some(response),
                            );
                        }
                        None => {
                            let record = AssignmentRecord::rejected(
                                order.id,
                                decision.reason,
                                now,
                                interval,
                            );
                            sink.decision(&commit.decision, record, None, Some(response));
                        }
                    }
                }
                states = scratch_states;
            } else {
                let planner = RoutePlanner::new(net, fleet, orders);
                for (order, decision) in epoch_orders.iter().zip(&decisions) {
                    assert_eq!(
                        decision.order,
                        order.id,
                        "{}: dispatch_batch returned decisions out of order",
                        dispatcher.name(),
                    );
                    let response = (now - order.created).seconds();
                    let validated = decision.vehicle.and_then(|k| {
                        let plan = planner.plan(&states[k.index()].view, order);
                        plan.best.is_some().then_some((k, plan))
                    });
                    match validated {
                        Some((k, plan)) => {
                            let record = AssignmentRecord::assigned(
                                order.id,
                                k,
                                now,
                                interval,
                                &plan,
                                states[k.index()].used(),
                            );
                            let committed = Decision::assigned(order.id, k);
                            sink.decision(
                                &committed,
                                record,
                                Some((&states[k.index()].view, &plan)),
                                Some(response),
                            );
                            let best = plan.best.as_ref().expect("validated feasible");
                            states[k.index()].accept(best.candidate.route.clone());
                            states[k.index()].advance_to(now, net, fleet, orders);
                        }
                        None => {
                            let reason = match decision.reason {
                                // An assignment that failed re-validation.
                                DecisionReason::Assigned => DecisionReason::InfeasibleChoice,
                                other => other,
                            };
                            let committed = Decision::rejected(order.id, reason);
                            let record =
                                AssignmentRecord::rejected(order.id, reason, now, interval);
                            sink.decision(&committed, record, None, Some(response));
                        }
                    }
                }
            }
            epoch_index += 1;
            start = end;
        }

        dispatcher.end_episode();
        sink.finish(&states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .fixed_interval(TimeDelta::from_minutes(30.0))
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
            .fixed_interval(TimeDelta::from_minutes(30.0))
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
            .fixed_interval(TimeDelta::from_seconds(0.1))
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
                .fixed_interval(TimeDelta::from_seconds(seconds))
                .build()
                .unwrap_err();
            assert_eq!(err, SimBuildError::NonPositivePeriod { seconds });
            assert!(err.to_string().contains("must be positive"));
        }
    }

    #[test]
    fn horizon_drops_late_orders_as_rejections() {
        let inst = instance(
            2,
            vec![
                order(0, 1, 2, 2.0, 8.0, 20.0),
                order(1, 2, 3, 2.0, 15.0, 23.0),
            ],
        );
        let result = Simulator::builder(&inst)
            .horizon(TimePoint::from_hours(12.0))
            .build()
            .unwrap()
            .run(&mut FirstFeasible);
        assert_eq!(result.metrics.served, 1);
        assert_eq!(result.metrics.rejected, 1);
        assert_eq!(
            result.assignments[1].reason,
            DecisionReason::HorizonExceeded
        );
        // Dropped orders do not distort the response-time average.
        assert_eq!(result.metrics.avg_response_secs, 0.0);
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
            ShardConfig::flat_with(2, dpdp_net::ShardPolicy::Grid).unwrap(),
            ShardConfig::flat_with(8, dpdp_net::ShardPolicy::Grid).unwrap(),
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
            assert!(s.shard_map().is_some());
            let sharded = s.run(&mut FirstFeasible);
            assert_eq!(flat, sharded, "{config:?} diverged from the flat scan");
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
}
