//! The in-process workloads: four `Simulator` episodes (`campus_infer`,
//! `campus_infer_b10`, `metro_b1`, `megacity_b1`) and `campus_train`.
//!
//! Layers are timed from outside: a [`Timed`] dispatcher brackets the
//! inner `dispatch_batch` / `end_episode`, an [`EpochClock`] observer
//! stamps `on_epoch` / `on_decision`.

use crate::harness::{
    alternate, report_end_to_end, report_trace_ratios, tiles, Outcome, Quality, Quiet, RepLoop,
    RunArgs, SetupTimer, TimedPhase,
};
use crate::kernels;
use crate::spec::{Workload, WORLD_SEED};
use crate::stats;
use crate::trace::{trace_path, Tracer, NO_PARENT};
use dpdp_baselines::Baseline1;
use dpdp_core::models;
use dpdp_core::presets::Presets;
use dpdp_net::{Instance, Order, TimeDelta, VehicleId};
use dpdp_pool::ThreadPool;
use dpdp_rl::{train, DqnAgent, ModelKind, TrainReport, TrainerConfig};
use dpdp_routing::simulate_schedule;
use dpdp_sim::{
    BufferingMode, Decision, DecisionBatch, DecisionRecord, DispatchContext, Dispatcher,
    EpisodeResult, EpochInfo, RepartitionPolicy, ShardConfig, SimObserver, Simulator,
};
use std::sync::Arc;
use std::time::Instant;

/// Days of history the ST-DDGN demand prediction averages (the paper's k).
const PREDICTION_DAYS: usize = 4;

/// The campus day: as many orders as the paper preset's first test day
/// holds, drawn by `--seed` from the twenty held-out days, 100 vehicles.
const CAMPUS_ORDERS: usize = 593;
const CAMPUS_VEHICLES: usize = 100;

/// Episodes per `campus_train` repetition.
const TRAIN_EPISODES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    CampusInfer,
    CampusInferB10,
    MetroB1,
    MegacityB1,
}

enum Policy {
    StDdgn(Box<DqnAgent>),
    Baseline1(Baseline1),
}

impl Policy {
    fn dispatcher(&mut self) -> &mut dyn Dispatcher {
        match self {
            Policy::StDdgn(agent) => agent.as_mut(),
            Policy::Baseline1(b1) => b1,
        }
    }

    /// Span names of the policy's layer.
    fn spans(&self) -> (&'static str, &'static str) {
        match self {
            Policy::StDdgn(_) => ("rl.dispatch", "rl.end_episode"),
            Policy::Baseline1(_) => ("baselines.dispatch", "baselines.end_episode"),
        }
    }
}

/// How a workload's simulator is configured.
struct SimSetup {
    buffering: BufferingMode,
    sharding: ShardConfig,
    pool: Arc<ThreadPool>,
    seed: u64,
}

impl SimSetup {
    fn simulator<'a>(&self, instance: &'a Instance) -> Simulator<'a> {
        Simulator::builder(instance)
            .buffering(self.buffering)
            .sharding(self.sharding.clone())
            .seed(self.seed)
            .thread_pool(Arc::clone(&self.pool))
            .build()
            .expect("workload simulator configs are valid")
    }
}

/// Everything a simulator workload owns.
pub struct World {
    pub presets: Presets,
    pub instance: Instance,
    policy: Policy,
    setup: SimSetup,
}

fn eval_agent(presets: &Presets) -> Policy {
    let mut agent = models::dqn_agent(ModelKind::StDdgn, presets.dataset(), WORLD_SEED);
    agent.set_training(false);
    agent.set_prediction(Some(presets.test_prediction(0, PREDICTION_DAYS)));
    Policy::StDdgn(Box::new(agent))
}

impl World {
    pub fn build(kind: SimKind, pool_width: usize, seed: u64) -> World {
        let minutes = |m: f64| BufferingMode::FixedInterval(TimeDelta::from_minutes(m));
        let pool = Arc::new(ThreadPool::new(pool_width));
        let (presets, instance, policy, buffering, sharding) = match kind {
            SimKind::CampusInfer | SimKind::CampusInferB10 => {
                let presets = Presets::paper();
                let dataset = presets.dataset();
                let test_days = dataset.config().test_days.clone();
                let instance =
                    dataset.sampled_instance(test_days, CAMPUS_ORDERS, CAMPUS_VEHICLES, seed);
                let policy = eval_agent(&presets);
                let buffering = if kind == SimKind::CampusInfer {
                    BufferingMode::Immediate
                } else {
                    minutes(10.0)
                };
                (presets, instance, policy, buffering, ShardConfig::default())
            }
            SimKind::MetroB1 => {
                let presets = Presets::metro(WORLD_SEED);
                let instance = presets.metro_instance(1600, 256, seed);
                let sharding = ShardConfig::flat(4).expect("positive shard count");
                (
                    presets,
                    instance,
                    Policy::Baseline1(Baseline1),
                    minutes(10.0),
                    sharding,
                )
            }
            SimKind::MegacityB1 => {
                let presets = Presets::megacity(WORLD_SEED);
                let instance = presets.megacity_instance(20_000, 10_000, seed);
                let sharding = ShardConfig::hierarchical(64, 2)
                    .expect("positive region and cell counts")
                    .escalation(2)
                    .repartition(RepartitionPolicy::periodic(4))
                    .expect("positive re-partition period");
                (
                    presets,
                    instance,
                    Policy::Baseline1(Baseline1),
                    minutes(30.0),
                    sharding,
                )
            }
        };
        World {
            presets,
            instance,
            policy,
            setup: SimSetup {
                buffering,
                sharding,
                pool,
                seed,
            },
        }
    }

    pub fn sharding(&self) -> &ShardConfig {
        &self.setup.sharding
    }

    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.setup.pool
    }
}

/// One dispatcher call, as the [`Timed`] wrapper saw it.
#[derive(Debug, Clone, Copy)]
enum Call {
    Begin(Instant),
    Batch {
        enter: Instant,
        exit: Instant,
        orders: usize,
    },
    End {
        enter: Instant,
        exit: Instant,
    },
}

/// Brackets the inner dispatcher's calls with timestamps.
struct Timed<'d> {
    inner: &'d mut dyn Dispatcher,
    calls: Vec<Call>,
}

impl<'d> Timed<'d> {
    fn new(inner: &'d mut dyn Dispatcher) -> Self {
        Timed {
            inner,
            calls: Vec::new(),
        }
    }
}

impl Dispatcher for Timed<'_> {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        self.inner.dispatch(ctx)
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        let enter = Instant::now();
        let decisions = self.inner.dispatch_batch(batch);
        self.calls.push(Call::Batch {
            enter,
            exit: Instant::now(),
            orders: batch.len(),
        });
        decisions
    }

    fn begin_episode(&mut self, instance: &Instance) {
        self.inner.begin_episode(instance);
        self.calls.push(Call::Begin(Instant::now()));
    }

    fn end_episode(&mut self) {
        let enter = Instant::now();
        self.inner.end_episode();
        self.calls.push(Call::End {
            enter,
            exit: Instant::now(),
        });
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// One decision epoch as the observer saw it: its work starts when the
/// previous epoch's last decision committed (or the episode began) and
/// ends with its own last committed decision.
#[derive(Debug, Clone, Copy)]
struct EpochStamp {
    start: Instant,
    on_epoch: Instant,
    end: Instant,
    info: EpochInfo,
}

impl EpochStamp {
    fn millis(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }

    fn orders(&self) -> usize {
        self.info.num_orders.max(1)
    }
}

struct EpochClock {
    mark: Instant,
    last_decision: Instant,
    open: Option<(Instant, EpochInfo)>,
    epochs: Vec<EpochStamp>,
}

impl EpochClock {
    fn new() -> EpochClock {
        let now = Instant::now();
        EpochClock {
            mark: now,
            last_decision: now,
            open: None,
            epochs: Vec::new(),
        }
    }

    fn close(&mut self) {
        if let Some((on_epoch, info)) = self.open.take() {
            self.epochs.push(EpochStamp {
                start: self.mark,
                on_epoch,
                end: self.last_decision,
                info,
            });
            self.mark = self.last_decision;
        }
    }
}

impl SimObserver for EpochClock {
    fn on_episode_begin(&mut self, _instance: &Instance) {
        self.mark = Instant::now();
    }

    fn on_epoch(&mut self, epoch: &EpochInfo) {
        self.close();
        self.open = Some((Instant::now(), *epoch));
    }

    fn on_decision(&mut self, _record: &DecisionRecord<'_>) {
        self.last_decision = Instant::now();
    }

    fn on_episode_end(&mut self, _result: &EpisodeResult) {
        self.close();
    }
}

/// Re-checks every committed assignment against the authoritative
/// schedule simulator (capacity, LIFO, time windows, back to depot).
/// Runs on the warm-up repetition only: repetitions are
/// asserted bit-identical to it, so one audit covers them all.
pub struct PlanAuditor<'a> {
    /// The dense order table the routes refer to.
    pub orders: &'a [Order],
    pub decisions: u64,
    pub infeasible: u64,
}

impl<'a> PlanAuditor<'a> {
    pub fn new(orders: &'a [Order]) -> Self {
        PlanAuditor {
            orders,
            decisions: 0,
            infeasible: 0,
        }
    }
}

impl SimObserver for PlanAuditor<'_> {
    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        self.decisions += 1;
        if !record.decision.is_assigned() {
            return;
        }
        let valid = match (record.view, record.plan.and_then(|p| p.best.as_deref())) {
            (Some(view), Some(best)) => simulate_schedule(
                view,
                &best.candidate.route,
                record.net,
                record.fleet,
                self.orders,
            )
            .is_ok_and(|s| s.total_length.to_bits() == best.length().to_bits()),
            _ => false,
        };
        if !valid {
            self.infeasible += 1;
        }
    }
}

/// `served + rejections.total() == orders`, finite metrics.
fn check_result(out: &mut Outcome, result: &EpisodeResult, orders: usize) {
    let m = &result.metrics;
    out.check(m.served + m.rejections.total() == orders, || {
        format!(
            "served {} + rejected {} != {orders} orders",
            m.served,
            m.rejections.total()
        )
    });
    out.check(
        m.total_cost.is_finite() && m.ttl.is_finite() && m.avg_response_secs.is_finite(),
        || "non-finite episode metrics".to_string(),
    );
}

fn quality_of(result: &EpisodeResult, orders: usize) -> Quality {
    Quality {
        orders,
        served: result.metrics.served,
        nuv: result.metrics.nuv,
        total_cost: result.metrics.total_cost,
    }
}

/// The warm-up episode, audited: the reference every timed repetition must
/// reproduce bit for bit. It is stamped like them, so its tiles join the
/// quiet times; cold caches and the audit only ever make it slower.
fn warm_up(world: &mut World, out: &mut Outcome) -> Episode {
    let sim = world.setup.simulator(&world.instance);
    let mut auditor = PlanAuditor::new(world.instance.orders());
    let mut clock = EpochClock::new();
    let began = Instant::now();
    let result = sim.run_observed(world.policy.dispatcher(), &mut [&mut auditor, &mut clock]);
    let ended = Instant::now();
    let orders = world.instance.num_orders();
    check_result(out, &result, orders);
    out.failed += auditor.infeasible + (orders as u64).saturating_sub(auditor.decisions);
    out.check(auditor.infeasible == 0, || {
        format!("{} committed plans fail re-simulation", auditor.infeasible)
    });
    Episode {
        result,
        epochs: clock.epochs,
        calls: Vec::new(),
        began,
        ended,
    }
}

/// One timed episode.
struct Episode {
    result: EpisodeResult,
    epochs: Vec<EpochStamp>,
    /// The dispatcher's calls (traced episodes only).
    calls: Vec<Call>,
    began: Instant,
    ended: Instant,
}

impl Episode {
    /// The episode's wall time in tiles: before the first epoch, every
    /// epoch, after the last.
    fn tiles(&self) -> Vec<f64> {
        let mut bounds = vec![self.began];
        bounds.extend(self.epochs.first().map(|e| e.start));
        bounds.extend(self.epochs.iter().map(|e| e.end));
        bounds.push(self.ended);
        tiles(&bounds)
    }

    /// Milliseconds to decide, one sample per order: its epoch's
    /// processing time shared equally among the epoch's orders. Per-epoch
    /// samples follow the batch sizes the seed happens to draw (the median
    /// batch of `campus_infer_b10` is 4, 5 or 6 orders, and its median
    /// epoch 28, 35 or 41 ms with it); per order they do not.
    fn order_millis(&self) -> Vec<f64> {
        let mut samples = Vec::new();
        for epoch in &self.epochs {
            let share = epoch.millis() / epoch.orders() as f64;
            samples.extend(std::iter::repeat_n(share, epoch.orders()));
        }
        samples
    }

    fn wall(&self) -> f64 {
        (self.ended - self.began).as_secs_f64()
    }
}

/// One episode under the epoch clock; `traced` also brackets the
/// dispatcher's calls.
fn run_episode(sim: &Simulator<'_>, dispatcher: &mut dyn Dispatcher, traced: bool) -> Episode {
    let mut clock = EpochClock::new();
    let began = Instant::now();
    let (result, calls) = if traced {
        let mut timed = Timed::new(dispatcher);
        let result = sim.run_observed(&mut timed, &mut [&mut clock]);
        (result, timed.calls)
    } else {
        (sim.run_observed(dispatcher, &mut [&mut clock]), Vec::new())
    };
    Episode {
        result,
        epochs: clock.epochs,
        calls,
        began,
        ended: Instant::now(),
    }
}

/// Runs one simulator workload.
pub fn run_sim(kind: SimKind, workload: &Workload, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let build = || {
        let world = World::build(kind, workload.pool_width, args.seed);
        let _ = world.setup.simulator(&world.instance);
        world
    };
    let (mut setup, mut world) = SetupTimer::first(build);
    let warm = warm_up(&mut world, &mut out);
    let reference = &warm.result;
    let orders = world.instance.num_orders();

    if args.trace {
        trace_sim(
            kind,
            workload,
            args,
            &mut world,
            reference,
            warm.wall(),
            &mut out,
        );
        return out;
    }

    let sim = world.setup.simulator(&world.instance);
    let mut reps = RepLoop::start(args);
    let (mut wall_tiles, mut order_ms) = (Quiet::default(), Quiet::default());
    let mut identical = wall_tiles.observe(&warm.tiles()) & order_ms.observe(&warm.order_millis());
    while reps.again() {
        let episode = reps.rep(|| run_episode(&sim, world.policy.dispatcher(), false));
        identical &= &episode.result == reference;
        identical &= wall_tiles.observe(&episode.tiles());
        identical &= order_ms.observe(&episode.order_millis());
        if reps.peak_taken() {
            drop(setup.again(build));
        }
    }
    out.check(identical, || {
        "episode results differ between repetitions of one seed".to_string()
    });
    out.attempted = (orders * reps.walls.len()) as u64;
    report_end_to_end(
        &mut out,
        workload,
        TimedPhase {
            reps: &reps,
            setup: &setup,
            tiles: &wall_tiles,
            latencies_ms: &order_ms,
            orders_per_rep: orders,
            quality: quality_of(reference, orders),
        },
    );
    out
}

/// Emits one traced episode's spans: the episode, and per epoch its
/// build (event advance, `plan_sweep`, cache build, BxK sweep), the
/// policy's `dispatch_batch`, and the commit tail after it returns.
fn emit_episode_spans(
    tracer: &mut Tracer,
    episode: u32,
    (began, ended): (Instant, Instant),
    epochs: &[EpochStamp],
    calls: &[Call],
    (dispatch_name, end_name): (&'static str, &'static str),
) {
    let root = tracer.record("episode", began, ended, NO_PARENT, episode);
    let mut stamps = epochs.iter();
    for call in calls {
        match *call {
            Call::Begin(_) => {}
            Call::Batch { enter, exit, .. } => {
                let Some(e) = stamps.next() else { continue };
                let epoch = tracer.record("sim.epoch", e.start, e.end, root, episode);
                tracer.record("sim.epoch_build", e.start, e.on_epoch, epoch, episode);
                tracer.record(dispatch_name, enter, exit, epoch, episode);
                tracer.record("sim.epoch_commit", exit, e.end, epoch, episode);
            }
            Call::End { enter, exit } => {
                tracer.record(end_name, enter, exit, root, episode);
            }
        }
    }
}

fn median_us(tracer: &Tracer, span: &str) -> f64 {
    stats::median(&tracer.durations_ns(span)) / 1e3
}

/// Per-layer metrics every traced in-process run derives from its spans.
fn report_span_metrics(out: &mut Outcome, tracer: &Tracer, dispatch_name: &'static str) {
    let wall_ns = tracer.total_ns("episode");
    let epoch_ns = tracer.durations_ns("sim.epoch");
    out.set("sim.epoch_p50_ms", stats::median(&epoch_ns) / 1e6);
    out.set("sim.epoch_p75_ms", stats::percentile(&epoch_ns, 75.0) / 1e6);
    out.set("sim.epoch_build_us", median_us(tracer, "sim.epoch_build"));
    out.set("sim.epoch_commit_us", median_us(tracer, "sim.epoch_commit"));
    out.set(
        "sim.build_share",
        tracer.total_ns("sim.epoch_build") / wall_ns,
    );
    let (us, share, end_ms) = if dispatch_name == "rl.dispatch" {
        (
            "rl.dispatch_us",
            "rl.dispatch_share",
            Some("rl.end_episode"),
        )
    } else {
        ("baselines.dispatch_us", "baselines.dispatch_share", None)
    };
    out.set(us, median_us(tracer, dispatch_name));
    out.set(share, tracer.total_ns(dispatch_name) / wall_ns);
    if let Some(span) = end_ms {
        out.set("rl.end_episode_ms", median_us(tracer, span) / 1e3);
    }
}

/// The `sim.*` work counts of one episode, from its `EpochInfo`s.
fn epoch_counts(epochs: &[EpochStamp]) -> [(&'static str, f64); 8] {
    let sum = |f: fn(&EpochInfo) -> usize| epochs.iter().map(|e| f(&e.info)).sum::<usize>() as f64;
    let cells = sum(|i| i.shards.cells);
    let pruned = sum(|i| i.shards.pruned);
    [
        ("sim.epochs", epochs.len() as f64),
        (
            "sim.orders_per_epoch_mean",
            sum(|i| i.num_orders) / epochs.len().max(1) as f64,
        ),
        ("sim.cells", cells),
        ("sim.cells_evaluated", sum(|i| i.shards.evaluated)),
        ("sim.cells_pruned", pruned),
        ("sim.cells_escalated", sum(|i| i.shards.escalated)),
        (
            "sim.pruned_fraction",
            if cells > 0.0 { pruned / cells } else { 0.0 },
        ),
        ("sim.repartitions", sum(|i| i.repartitioned as usize)),
    ]
}

/// The traced run: untraced and traced episodes alternate (see
/// [`alternate`]), then the workload's isolated kernels run, then the
/// spans are written out.
fn trace_sim(
    kind: SimKind,
    workload: &Workload,
    args: &RunArgs,
    world: &mut World,
    reference: &EpisodeResult,
    warmup_wall: f64,
    out: &mut Outcome,
) {
    let sim = world.setup.simulator(&world.instance);
    let span_names = world.policy.spans();
    let mut tracer = Tracer::new();
    let mut counts: Option<[(&'static str, f64); 8]> = None;
    let mut identical = true;
    let mut episode = 0;
    let walls = alternate(args.seconds, |traced| {
        let ep = run_episode(&sim, world.policy.dispatcher(), traced);
        identical &= &ep.result == reference;
        if traced {
            episode += 1;
            let stamps = (ep.began, ep.ended);
            emit_episode_spans(
                &mut tracer,
                episode,
                stamps,
                &ep.epochs,
                &ep.calls,
                span_names,
            );
            let these = epoch_counts(&ep.epochs);
            identical &= *counts.get_or_insert(these) == these;
        }
        Ok(ep.tiles())
    });
    let (plain, traced) = match walls {
        Ok(walls) => walls,
        Err(e) => {
            out.problem(e);
            return;
        }
    };
    out.check(identical, || {
        "traced and untraced episodes differ in results or work counts".to_string()
    });
    out.attempted = (world.instance.num_orders() * (plain.reps() + traced.reps())) as u64;

    report_span_metrics(out, &tracer, span_names.0);
    for (name, value) in counts.expect("at least one traced episode") {
        out.set(name, value);
    }
    report_trace_ratios(out, &plain, &traced, warmup_wall);

    match kind {
        SimKind::CampusInfer => kernels::campus_infer(world, out),
        SimKind::CampusInferB10 => kernels::campus_infer_b10(world, out),
        SimKind::MetroB1 => kernels::metro(world, out),
        SimKind::MegacityB1 => kernels::megacity(world, args.seed, out),
    }
    if let Err(e) = tracer.write_jsonl(&trace_path(workload.name)) {
        out.problem(format!("cannot write the trace file: {e}"));
    }
}

// ---------------------------------------------------------------------
// campus_train
// ---------------------------------------------------------------------

struct TrainWorld {
    presets: Presets,
    instance: Instance,
}

impl TrainWorld {
    fn build(seed: u64) -> TrainWorld {
        let presets = Presets::paper();
        let instance = presets.large_instance(seed);
        TrainWorld { presets, instance }
    }

    /// A fresh learner: every repetition trains the same agent from the
    /// same weights, so repetitions are bit-identical.
    fn agent(&self) -> DqnAgent {
        let mut agent = models::dqn_agent(ModelKind::StDdgn, self.presets.dataset(), WORLD_SEED);
        agent.set_prediction(Some(self.presets.train_prediction(PREDICTION_DAYS)));
        agent
    }
}

/// One training repetition through the public `train` entry point, which
/// builds its own simulator and takes no observers — so epochs are seen
/// through the [`Timed`] dispatcher alone, in end-to-end and traced runs
/// alike (two clock reads per dispatcher call against a ~0.5 ms step).
fn train_rep(world: &TrainWorld) -> TrainRep {
    let mut agent = world.agent();
    let config = TrainerConfig::new(TRAIN_EPISODES);
    let began = Instant::now();
    let mut timed = Timed::new(&mut agent);
    let report = train(&mut timed, &world.instance, &config);
    TrainRep {
        report,
        calls: timed.calls,
        began,
        ended: Instant::now(),
    }
}

/// One timed training repetition.
struct TrainRep {
    report: TrainReport,
    calls: Vec<Call>,
    began: Instant,
    ended: Instant,
}

impl TrainRep {
    fn wall(&self) -> f64 {
        (self.ended - self.began).as_secs_f64()
    }

    /// The repetition's wall time cut at the end of every dispatcher call:
    /// one tile per `begin_episode`, per decision step and per
    /// `end_episode` (replay + updates), plus the trainer's tail.
    fn tiles(&self) -> Vec<f64> {
        let mut bounds = vec![self.began];
        bounds.extend(self.calls.iter().map(|call| match *call {
            Call::Begin(at) => at,
            Call::Batch { exit, .. } | Call::End { exit, .. } => exit,
        }));
        bounds.push(self.ended);
        tiles(&bounds)
    }
}

/// Per-epoch latency seen from the dispatcher: previous `dispatch_batch`
/// return (or `begin_episode`) to this one's return. The previous epoch's
/// commit tail is folded into this epoch's build.
fn step_millis(calls: &[Call]) -> Vec<f64> {
    let mut mark: Option<Instant> = None;
    let mut out = Vec::new();
    for call in calls {
        match *call {
            Call::Begin(at) => mark = Some(at),
            Call::Batch { exit, .. } => {
                if let Some(from) = mark.replace(exit) {
                    out.push((exit - from).as_secs_f64() * 1e3);
                }
            }
            Call::End { .. } => {}
        }
    }
    out
}

fn check_train_report(out: &mut Outcome, report: &TrainReport, orders: usize) {
    out.check(report.points.len() == TRAIN_EPISODES, || {
        format!(
            "{} training episodes, expected {TRAIN_EPISODES}",
            report.points.len()
        )
    });
    for p in &report.points {
        out.check(p.served + p.rejected == orders, || {
            format!(
                "episode {}: served {} + rejected {} != {orders}",
                p.episode, p.served, p.rejected
            )
        });
        out.check(p.total_cost.is_finite() && p.ttl.is_finite(), || {
            format!("episode {}: non-finite metrics", p.episode)
        });
    }
}

pub fn run_train(workload: &Workload, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let build = || {
        let world = TrainWorld::build(args.seed);
        let _ = world.agent();
        world
    };
    let (mut setup, world) = SetupTimer::first(build);
    let orders = world.instance.num_orders();
    let per_rep = orders * TRAIN_EPISODES;

    let warm_up = train_rep(&world);
    let reference = &warm_up.report;
    check_train_report(&mut out, reference, orders);
    let last = reference.points.last().expect("at least one episode");
    let quality = Quality {
        orders,
        served: last.served,
        nuv: last.nuv,
        total_cost: last.total_cost,
    };

    if args.trace {
        let mut tracer = Tracer::new();
        let mut batches = (0usize, 0usize);
        let mut identical = true;
        let mut rep = 0;
        // Traced and untraced repetitions run the same code here (the
        // spans are cut from the wrapper's stamps afterwards).
        let walls = alternate(args.seconds, |traced| {
            let run = train_rep(&world);
            identical &= run.report.points == reference.points;
            if traced {
                rep += 1;
                emit_train_spans(&mut tracer, rep, (run.began, run.ended), &run.calls);
                batches = run.calls.iter().fold((0, 0), |(n, orders), c| match c {
                    Call::Batch { orders: b, .. } => (n + 1, orders + b),
                    _ => (n, orders),
                });
            }
            Ok(run.tiles())
        });
        let (plain, traced) = match walls {
            Ok(walls) => walls,
            Err(e) => {
                out.problem(e);
                return out;
            }
        };
        out.check(identical, || {
            "training curves differ between repetitions of one seed".to_string()
        });
        out.attempted = (per_rep * (plain.reps() + traced.reps())) as u64;
        report_span_metrics(&mut out, &tracer, "rl.dispatch");
        out.set("sim.epochs", batches.0 as f64 / TRAIN_EPISODES as f64);
        out.set(
            "sim.orders_per_epoch_mean",
            batches.1 as f64 / batches.0.max(1) as f64,
        );
        report_trace_ratios(&mut out, &plain, &traced, warm_up.wall());
        kernels::campus_train(&mut out);
        if let Err(e) = tracer.write_jsonl(&trace_path(workload.name)) {
            out.problem(format!("cannot write the trace file: {e}"));
        }
        return out;
    }

    let mut reps = RepLoop::start(args);
    let (mut wall_tiles, mut step_ms) = (Quiet::default(), Quiet::default());
    let mut identical =
        wall_tiles.observe(&warm_up.tiles()) & step_ms.observe(&step_millis(&warm_up.calls));
    while reps.again() {
        let run = reps.rep(|| train_rep(&world));
        identical &= run.report.points == reference.points;
        identical &= wall_tiles.observe(&run.tiles());
        identical &= step_ms.observe(&step_millis(&run.calls));
        if reps.peak_taken() {
            drop(setup.again(build));
        }
    }
    out.check(identical, || {
        "training curves differ between repetitions of one seed".to_string()
    });
    out.attempted = (per_rep * reps.walls.len()) as u64;
    report_end_to_end(
        &mut out,
        workload,
        TimedPhase {
            reps: &reps,
            setup: &setup,
            tiles: &wall_tiles,
            latencies_ms: &step_ms,
            orders_per_rep: per_rep,
            quality,
        },
    );
    out
}

/// Spans of one training repetition. Without observer hooks the commit
/// tail cannot be told from the next epoch's build: `sim.epoch_build`
/// here runs from the previous `dispatch_batch` return to this one's
/// entry, and `sim.epoch_commit` is empty.
fn emit_train_spans(
    tracer: &mut Tracer,
    rep: u32,
    (began, ended): (Instant, Instant),
    calls: &[Call],
) {
    let root = tracer.record("train", began, ended, NO_PARENT, rep);
    let mut episode = NO_PARENT;
    let mut mark = began;
    for (i, call) in calls.iter().enumerate() {
        match *call {
            Call::Begin(at) => {
                // The episode ends with its `end_episode` return.
                let end = calls[i..]
                    .iter()
                    .find_map(|c| match c {
                        Call::End { exit, .. } => Some(*exit),
                        _ => None,
                    })
                    .unwrap_or(ended);
                episode = tracer.record("episode", at, end, root, rep);
                mark = at;
            }
            Call::Batch { enter, exit, .. } => {
                let epoch = tracer.record("sim.epoch", mark, exit, episode, rep);
                tracer.record("sim.epoch_build", mark, enter, epoch, rep);
                tracer.record("rl.dispatch", enter, exit, epoch, rep);
                tracer.record("sim.epoch_commit", exit, exit, epoch, rep);
                mark = exit;
            }
            Call::End { enter, exit } => {
                tracer.record("rl.end_episode", enter, exit, episode, rep);
            }
        }
    }
}
