//! Where a decision epoch's time goes, stage by stage, on three days the
//! perf ledger also runs:
//!
//! * the `campus_infer` day — 593 held-out campus orders, 100 vehicles,
//!   ST-DDGN in evaluation mode, immediate dispatch (one order per epoch);
//! * the `metro_b1` day — 1600 metro orders, 256 vehicles, Baseline 1,
//!   `flat(4)` region shards, 10-minute buffering;
//! * the `megacity_b1` day — 20000 megacity orders, 10000 vehicles,
//!   Baseline 1, `hierarchical(64, 2)` shards with escalation 2,
//!   re-partitioned every fourth flush, 30-minute buffering.
//!
//! Each day runs once to warm up and then `EPISODES` times with an
//! observer that asks for every epoch's [`EpochProfile`]. Episodes repeat
//! bit for bit, so epoch `e` of one episode is the same work as epoch `e`
//! of the next: per epoch and stage the table keeps the fastest episode's
//! time — the perf ledger's "quiet" rule, which discards the time a busy
//! host steals — and prints each stage's sum over the day in microseconds
//! per order and as a share of the whole. Under the table, `caches_built`
//! counts the schedule caches one episode built: those its sweeps rebuilt
//! because a vehicle's view had changed, plus one per acceptance
//! (`dpdp_sim::ShardStats::caches_built`). `Snapshot`, `Partition` and
//! `Forward` are the parts of `Policy` the ST-DDGN agent times itself
//! (zero under Baseline 1), and under the campus table `forward_stats`
//! reads the agent's `ForwardStats` per episode: forwards, rows offered,
//! feasible rows, and rows evaluated — one per class of interchangeable
//! vehicles — per forward. The first line names the
//! build of the Q-network's matmul kernel this CPU ran
//! (`dpdp_nn::matmul_kernel`): profiles from hosts that ran different
//! builds do not compare.
//!
//! ```text
//! cargo run --release --example epoch_profile
//! ```

use dpdp_core::models;
use dpdp_core::prelude::*;
use dpdp_net::TimeDelta;
use dpdp_sim::{DecisionRecord, EpochInfo, EpochProfile, Stage};

/// The ledger's world seed and `--seed 7`.
const SEED: u64 = 7;
/// Profiled episodes per day, after one warm-up episode.
const EPISODES: usize = 20;

/// Keeps the profile of every epoch of an episode, and counts the
/// schedule caches it built.
#[derive(Default)]
struct Profiler {
    epochs: Vec<EpochProfile>,
    caches_built: usize,
}

impl SimObserver for Profiler {
    fn wants_profile(&self) -> bool {
        true
    }

    fn on_epoch(&mut self, epoch: &EpochInfo) {
        self.caches_built += epoch.shards.caches_built;
    }

    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        // An acceptance builds the accepting vehicle's cache.
        self.caches_built += usize::from(record.decision.is_assigned());
    }

    fn on_epoch_profile(&mut self, profile: &EpochProfile) {
        self.epochs.push(*profile);
    }
}

fn profile_day(title: &str, sim: &Simulator<'_>, policy: &mut dyn Dispatcher) {
    let orders = sim.instance().num_orders();
    let warm = sim.run(policy);
    let mut caches_built = 0;
    let episodes: Vec<Vec<EpochProfile>> = (0..EPISODES)
        .map(|_| {
            let mut profiler = Profiler::default();
            let result = sim.run_observed(policy, &mut [&mut profiler]);
            assert_eq!(result, warm, "evaluation episodes repeat bit for bit");
            caches_built = profiler.caches_built;
            profiler.epochs
        })
        .collect();
    let quiet = Stage::ALL.map(|stage| -> u64 {
        (0..episodes[0].len())
            .map(|e| episodes.iter().map(|ep| ep[e].nanos(stage)).min().unwrap())
            .sum()
    });
    let total: u64 = quiet.iter().sum();
    let per_order = |nanos: u64| nanos as f64 / 1e3 / orders as f64;
    println!("{title}: {orders} orders, fastest of {EPISODES} episodes per epoch");
    println!("{:<12} {:>10} {:>7}", "stage", "us/order", "share");
    for (stage, nanos) in Stage::ALL.into_iter().zip(quiet) {
        let share = 100.0 * nanos as f64 / total as f64;
        println!(
            "{:<12} {:>10.2} {share:>6.1}%",
            stage.name(),
            per_order(nanos)
        );
    }
    println!("{:<12} {:>10.2} {:>6.1}%", "total", per_order(total), 100.0);
    println!("{:<12} {caches_built:>10} per episode\n", "caches_built");
}

fn main() {
    println!("{:<12} {}\n", "matmul_kernel", dpdp_nn::matmul_kernel());
    let presets = Presets::paper();
    let dataset = presets.dataset();
    let test_days = dataset.config().test_days.clone();
    let campus = dataset.sampled_instance(test_days, 593, 100, SEED);
    let mut agent = models::dqn_agent(ModelKind::StDdgn, dataset, SEED);
    agent.set_training(false);
    agent.set_prediction(Some(presets.test_prediction(0, 4)));
    let sim = Simulator::builder(&campus).seed(SEED).build().unwrap();
    let before = agent.forward_stats();
    profile_day("campus_infer (ST-DDGN, immediate)", &sim, &mut agent);
    let after = agent.forward_stats();
    // The warm-up episode and the profiled ones.
    let episodes = (EPISODES + 1) as f64;
    let forwards = (after.forwards - before.forwards) as f64;
    let per_episode = |n: u64| n as f64 / episodes;
    println!(
        "{:<12} {:.0} forwards per episode, {:.0} rows, {:.0} feasible, \
         {:.1} rows evaluated per forward\n",
        "forward_stats",
        forwards / episodes,
        per_episode(after.rows - before.rows),
        per_episode(after.feasible - before.feasible),
        (after.evaluated - before.evaluated) as f64 / forwards,
    );

    let metro = Presets::metro(SEED).metro_instance(1600, 256, SEED);
    let sim = Simulator::builder(&metro)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
        .sharding(ShardConfig::flat(4).unwrap())
        .seed(SEED)
        .build()
        .unwrap();
    profile_day(
        "metro_b1 (Baseline 1, flat(4), 10-minute buffering)",
        &sim,
        &mut Baseline1,
    );

    let megacity = Presets::megacity(SEED).megacity_instance(20_000, 10_000, SEED);
    let sharding = ShardConfig::hierarchical(64, 2)
        .unwrap()
        .escalation(2)
        .repartition(RepartitionPolicy::periodic(4))
        .unwrap();
    let sim = Simulator::builder(&megacity)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .sharding(sharding)
        .seed(SEED)
        .build()
        .unwrap();
    profile_day(
        "megacity_b1 (Baseline 1, hierarchical(64, 2), 30-minute buffering)",
        &sim,
        &mut Baseline1,
    );
}
