//! The episode simulator (paper Algorithm 1), organised around batched
//! decision epochs.

use crate::batch::{Decision, EpochScratch};
use crate::dispatcher::Dispatcher;
use crate::event::DisruptionConfig;
use crate::metrics::{AssignmentRecord, EpisodeResult, MetricsAccumulator, MetricsOptions};
use crate::observer::{DecisionRecord, EpochInfo, FleetRecord, SimObserver};
use crate::profile::EpochProfile;
use crate::sharding::{ShardConfig, ShardRuntime};
use crate::state::{fresh_fleet, VehicleState};
use crate::sweep::ShardContext;
use dpdp_net::{Instance, Order, ShardMap, TimeDelta, TimePoint};
use dpdp_pool::ThreadPool;
use dpdp_routing::{PlannerOutput, VehicleView};
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
    /// (zero region/cell counts or a zero re-partition cadence).
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
    metrics: MetricsOptions,
    seed: u64,
    num_threads: usize,
    pool: Option<Arc<ThreadPool>>,
    sharding: ShardConfig,
    disruptions: Option<DisruptionConfig>,
}

impl<'a> SimulatorBuilder<'a> {
    /// Starts from the defaults: immediate service, full metrics, seed 0,
    /// single-threaded scoring, unsharded (one-cell) dispatch.
    pub fn new(instance: &'a Instance) -> Self {
        SimulatorBuilder {
            instance,
            buffering: BufferingMode::Immediate,
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
    /// see [`crate::sweep`] and [`crate::sharding`]).
    ///
    /// Every config builds a [`ShardMap`] over the instance's node
    /// coordinates at [`SimulatorBuilder::build`] time and scores every
    /// epoch as a merge of cell-local batches: in-cell `(order, vehicle)`
    /// pairs run the full insertion sweep shard-concurrently, cross-cell
    /// pairs are either escalated within the parent region (see
    /// [`ShardConfig::escalation`]) or skipped through an exact geometric
    /// infeasibility bound. The default [`ShardConfig::default`] is the
    /// degenerate partition, one cell: every pair is in-cell, so every
    /// vehicle is scored for every order, through the same path. A
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
/// the commit and disruption paths cannot drift apart.
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

    /// Whether any observer wants the epoch about to run profiled.
    pub(crate) fn wants_profile(&self) -> bool {
        self.observers.iter().any(|obs| obs.wants_profile())
    }

    /// Hands a profiled epoch's profile to the observers that want it.
    pub(crate) fn epoch_profile(&mut self, profile: &EpochProfile) {
        for obs in self.observers.iter_mut() {
            if obs.wants_profile() {
                obs.on_epoch_profile(profile);
            }
        }
    }

    /// Fans a disruption record out to the observers, then the fleet it
    /// left.
    pub(crate) fn disruption(
        &mut self,
        record: &crate::observer::DisruptionRecord,
        views: &[VehicleView],
        orders: &[Order],
    ) {
        for obs in self.observers.iter_mut() {
            obs.on_disruption(record);
        }
        self.fleet(record.time, views, orders);
    }

    /// Hands the fleet as it stands at `time` to the observers.
    pub(crate) fn fleet(&mut self, time: TimePoint, views: &[VehicleView], orders: &[Order]) {
        for obs in self.observers.iter_mut() {
            obs.on_fleet(&FleetRecord {
                time,
                views,
                orders,
                fleet: self.fleet,
                net: self.net,
            });
        }
    }

    /// Records one committed decision. `committed` carries the chosen
    /// vehicle's pre-accept view and the plan it adopted for assignments;
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

    pub(crate) fn finish(self, views: &[VehicleView], states: &[VehicleState]) -> EpisodeResult {
        let result = self.acc.finish(views, states, self.net, self.fleet);
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
    pub(crate) metrics: MetricsOptions,
    pub(crate) seed: u64,
    pub(crate) pool: Arc<ThreadPool>,
    pub(crate) sharding: ShardConfig,
    pub(crate) shards: ShardContext,
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
    /// [`SimulatorBuilder::sharding`]; 1 = unsharded).
    pub fn num_shards(&self) -> usize {
        self.shards.map.num_shards()
    }

    /// The sharding configuration in effect (see
    /// [`SimulatorBuilder::sharding`]).
    pub fn sharding(&self) -> &ShardConfig {
        &self.sharding
    }

    /// The *initial* region partition — one cell when unsharded. Episodes
    /// under a re-partition policy evolve their own episode-local copy;
    /// this is the geometry-seeded map every episode starts from.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shards.map
    }

    /// Builds the episode-local sharding runtime — one per episode so
    /// mid-episode re-partitioning never leaks across runs.
    pub(crate) fn shard_runtime(&self) -> ShardRuntime {
        ShardRuntime::new(
            &self.sharding,
            &self.shards,
            self.seed,
            self.instance.network.nodes().len(),
        )
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
    /// through a [`ReplaySource`](crate::event::ReplaySource) — grouped
    /// into the same epochs as the plain scan kept as
    /// [`Simulator::run_reference`] — and, when
    /// [`SimulatorBuilder::disruptions`] armed a config, a seeded
    /// [`DisruptionSource`](crate::event::DisruptionSource) rides along.
    ///
    /// Orders are grouped into *decision epochs* — maximal runs of orders
    /// sharing one decision time — and each epoch is decided through a
    /// single [`Dispatcher::dispatch_batch`] call against one shared fleet
    /// snapshot. An order is decided by
    /// [`DecisionBatch::resolve`](crate::batch::DecisionBatch::resolve) and
    /// by nothing else: a policy calls it, and the engine calls it for any
    /// order the policy returned without resolving, so every choice is
    /// checked against the snapshot as it stands when it commits and an
    /// infeasible one degrades to a rejection — a buggy or adversarial
    /// policy cannot corrupt the episode.
    ///
    /// # Panics
    /// Panics if the dispatcher violates the `dispatch_batch` contract:
    /// the wrong number of decisions, decisions out of order, or a
    /// returned decision that contradicts the one it committed.
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

    /// The scan reference: groups the creation-sorted order table into
    /// maximal runs sharing one decision time and flushes each through the
    /// same crate-private epoch body as the event engine (advance,
    /// re-partition, batch, dispatch, commit — one code, not a copy). What
    /// `tests/event_parity.rs`, `tests/repartition.rs` and the engine's
    /// unit test prove by comparing the two **bit for bit** is
    /// therefore how epochs come to exist — event merge, flush timing, the
    /// engine's growable order table — not what a commit does
    /// (`tests/batch_parity.rs` and the routing oracle cover that).
    ///
    /// Event-only features do not exist here: any
    /// [`SimulatorBuilder::disruptions`] config is ignored and nothing can
    /// arrive mid-episode.
    ///
    /// # Panics
    /// Panics if the dispatcher violates the `dispatch_batch` contract.
    pub fn run_reference(
        &self,
        dispatcher: &mut dyn Dispatcher,
        observers: &mut [&mut dyn SimObserver],
    ) -> EpisodeResult {
        let instance = self.instance;
        let fleet = &instance.fleet;
        let orders = instance.orders();
        dispatcher.begin_episode(instance);
        let mut sink = EpisodeSink {
            observers,
            acc: MetricsAccumulator::new(self.metrics, orders.len()),
            fleet,
            net: &instance.network,
        };
        sink.begin(instance);

        let (mut views, mut states) = fresh_fleet(fleet);
        // Assignee bookkeeping the epoch body keeps for cancellations and
        // breakdowns; nothing reads it here.
        let mut assigned_to = vec![None; orders.len()];
        let mut shard_rt = self.shard_runtime();
        let mut scratch = EpochScratch::default();
        let mut epoch_index = 0;
        let mut start = 0;
        while start < orders.len() {
            let now = self.decision_time(orders[start].created);
            let mut end = start + 1;
            while end < orders.len() && self.decision_time(orders[end].created) == now {
                end += 1;
            }
            self.run_epoch(
                &mut sink,
                &mut views,
                &mut states,
                orders,
                orders[start..end].iter().map(|o| o.id).collect(),
                now,
                &mut epoch_index,
                &mut assigned_to,
                &mut shard_rt,
                &mut scratch,
                dispatcher,
            );
            start = end;
        }

        dispatcher.end_episode();
        sink.finish(&views, &states)
    }
}

#[cfg(test)]
mod tests;
