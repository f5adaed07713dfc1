//! The training loop (Algorithm 3) and convergence recording.
//!
//! [`train_observed`] runs a dispatcher for a number of episodes on one
//! instance and **streams** the per-episode NUV/TC curve points (the
//! paper's Fig. 8) — plus, optionally, spatial-temporal capacity snapshots
//! and their Frobenius `Diff` against the demand distribution (Fig. 9) —
//! into a [`TrainObserver`], one call per episode, with nothing retained.
//! This is the training-side leg of the observer-based experiment
//! pipeline: convergence-curve consumers (the `fig8`/`fig9` regenerators)
//! ride the stream instead of scraping a materialized report. [`train`]
//! wraps it with a collecting observer and returns the classic
//! [`TrainReport`].

use crate::recorder::CapacityRecorder;
use dpdp_data::{FactoryIndex, StdMatrix};
use dpdp_net::Instance;
use dpdp_sim::{Dispatcher, SimObserver, Simulator};

/// Trainer configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Number of training episodes.
    pub episodes: usize,
    /// If set, record capacity STD matrices and `Diff` values using this
    /// factory index (Fig. 9).
    pub capacity_index: Option<FactoryIndex>,
    /// Episodes whose capacity matrices should be kept in full (e.g.
    /// `[0, 100, 200]`; the final episode is always kept when recording).
    pub snapshot_episodes: Vec<usize>,
}

impl TrainerConfig {
    /// Plain training without capacity recording.
    pub fn new(episodes: usize) -> Self {
        TrainerConfig {
            episodes,
            capacity_index: None,
            snapshot_episodes: Vec::new(),
        }
    }
}

/// One point of a convergence curve.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodePoint {
    /// Episode index.
    pub episode: usize,
    /// Number of used vehicles.
    pub nuv: usize,
    /// Total cost.
    pub total_cost: f64,
    /// Total travel length, km.
    pub ttl: f64,
    /// Orders served / rejected.
    pub served: usize,
    /// Orders rejected.
    pub rejected: usize,
    /// Frobenius distance between the episode's capacity distribution and
    /// the instance's demand distribution (Fig. 9's `Diff`), when recorded.
    pub capacity_diff: Option<f64>,
}

/// The full output of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-episode convergence curve.
    pub points: Vec<EpisodePoint>,
    /// Kept capacity matrices `(episode, matrix)`.
    pub capacity_matrices: Vec<(usize, StdMatrix)>,
    /// The instance's demand STD matrix (for plotting alongside Fig. 10).
    pub demand: Option<StdMatrix>,
}

impl TrainReport {
    /// The best (lowest) total cost reached during training.
    pub fn best_cost(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.total_cost)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
    }

    /// Mean total cost over the final `n` episodes (converged performance).
    pub fn tail_mean_cost(&self, n: usize) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let take = n.min(self.points.len());
        let tail = &self.points[self.points.len() - take..];
        Some(tail.iter().map(|p| p.total_cost).sum::<f64>() / take as f64)
    }
}

/// A streaming consumer of training progress: one [`EpisodePoint`] per
/// episode, plus the capacity snapshots the [`TrainerConfig`] asked to
/// keep. All methods default to no-ops.
pub trait TrainObserver {
    /// Called after every training episode with its curve point.
    fn on_episode(&mut self, _point: &EpisodePoint) {}

    /// Called with the episode's capacity STD matrix for kept snapshots
    /// (the configured `snapshot_episodes` plus the final episode), when
    /// capacity recording is on.
    fn on_capacity_snapshot(&mut self, _episode: usize, _matrix: &StdMatrix) {}
}

/// Trains `dispatcher` for `config.episodes` episodes on `instance`,
/// streaming every convergence point (and kept capacity snapshot) into
/// `observer` as it happens — no curve is materialized here. Returns the
/// instance's demand STD matrix when capacity recording is on (the
/// reference surface Fig. 9/10 plot `Diff` against).
///
/// The dispatcher learns inside its own `end_episode` hook, so any
/// [`Dispatcher`] can be passed — heuristics simply yield flat curves.
pub fn train_observed(
    dispatcher: &mut dyn Dispatcher,
    instance: &Instance,
    config: &TrainerConfig,
    observer: &mut dyn TrainObserver,
) -> Option<StdMatrix> {
    let sim = Simulator::builder(instance)
        .build()
        .expect("immediate-service simulator always builds");
    let demand = config
        .capacity_index
        .as_ref()
        .map(|index| StdMatrix::from_orders(instance.orders(), &instance.grid, index));
    // The capacity recorder is an episode observer: it composes with any
    // dispatcher without wrapping it.
    let mut recorder = config
        .capacity_index
        .as_ref()
        .map(|index| CapacityRecorder::new(instance.grid, index.clone()));

    for episode in 0..config.episodes {
        let (metrics, cap) = match recorder.as_mut() {
            Some(rec) => {
                let result = sim.run_observed(dispatcher, &mut [rec as &mut dyn SimObserver]);
                (result.metrics, Some(rec.take_matrix()))
            }
            None => (sim.run(dispatcher).metrics, None),
        };
        let capacity_diff = match (&cap, &demand) {
            (Some(c), Some(d)) => Some(c.frobenius_diff(d)),
            _ => None,
        };
        observer.on_episode(&EpisodePoint {
            episode,
            nuv: metrics.nuv,
            total_cost: metrics.total_cost,
            ttl: metrics.ttl,
            served: metrics.served,
            rejected: metrics.rejected,
            capacity_diff,
        });
        if let Some(c) = cap {
            let keep =
                config.snapshot_episodes.contains(&episode) || episode + 1 == config.episodes;
            if keep {
                observer.on_capacity_snapshot(episode, &c);
            }
        }
    }
    demand
}

/// Trains `dispatcher` for `config.episodes` episodes on `instance` and
/// collects the streamed curve into a [`TrainReport`] (see
/// [`train_observed`] for the streaming form).
pub fn train(
    dispatcher: &mut dyn Dispatcher,
    instance: &Instance,
    config: &TrainerConfig,
) -> TrainReport {
    #[derive(Default)]
    struct Collect {
        points: Vec<EpisodePoint>,
        capacity_matrices: Vec<(usize, StdMatrix)>,
    }
    impl TrainObserver for Collect {
        fn on_episode(&mut self, point: &EpisodePoint) {
            self.points.push(point.clone());
        }
        fn on_capacity_snapshot(&mut self, episode: usize, matrix: &StdMatrix) {
            self.capacity_matrices.push((episode, matrix.clone()));
        }
    }
    let mut collect = Collect {
        points: Vec::with_capacity(config.episodes),
        capacity_matrices: Vec::new(),
    };
    let demand = train_observed(dispatcher, instance, config, &mut collect);
    TrainReport {
        points: collect.points,
        capacity_matrices: collect.capacity_matrices,
        demand,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentConfig, DqnAgent, ModelKind};
    use crate::schedule::EpsilonSchedule;
    use dpdp_net::{
        FleetConfig, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta,
        TimePoint,
    };
    use dpdp_sim::dispatcher::FirstFeasible;

    fn instance() -> Instance {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(5.0, 0.0)),
            Node::factory(NodeId(2), Point::new(10.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet =
            FleetConfig::homogeneous(2, &[NodeId(0)], 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO)
                .unwrap();
        let orders = (0..4)
            .map(|i| {
                Order::new(
                    OrderId(i),
                    NodeId(1 + (i % 2)),
                    NodeId(2 - (i % 2)),
                    2.0,
                    TimePoint::from_hours(8.0 + i as f64),
                    TimePoint::from_hours(18.0),
                )
                .unwrap()
            })
            .collect();
        Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
    }

    #[test]
    fn heuristic_training_curve_is_flat() {
        let inst = instance();
        let report = train(&mut FirstFeasible, &inst, &TrainerConfig::new(3));
        assert_eq!(report.points.len(), 3);
        let c0 = report.points[0].total_cost;
        for p in &report.points {
            assert_eq!(p.total_cost, c0);
            assert_eq!(p.served, 4);
            assert_eq!(p.capacity_diff, None);
        }
        assert_eq!(report.best_cost(), Some(c0));
        assert_eq!(report.tail_mean_cost(2), Some(c0));
        assert!(report.capacity_matrices.is_empty());
    }

    #[test]
    fn capacity_recording_produces_diffs_and_snapshots() {
        let inst = instance();
        let index = FactoryIndex::new(&[NodeId(1), NodeId(2)]);
        let mut cfg = TrainerConfig::new(3);
        cfg.capacity_index = Some(index);
        cfg.snapshot_episodes = vec![0];
        let report = train(&mut FirstFeasible, &inst, &cfg);
        assert!(report.points.iter().all(|p| p.capacity_diff.is_some()));
        // Snapshot at 0 and final at 2.
        let eps: Vec<usize> = report.capacity_matrices.iter().map(|(e, _)| *e).collect();
        assert_eq!(eps, vec![0, 2]);
        assert!(report.demand.is_some());
        assert!(report.demand.unwrap().total() > 0.0);
    }

    #[test]
    fn dqn_agent_trains_through_the_trainer() {
        let inst = instance();
        let mut cfg = AgentConfig::new(ModelKind::Ddgn);
        cfg.hidden = 8;
        cfg.heads = 2;
        cfg.levels = 1;
        cfg.batch_size = 4;
        cfg.updates_per_episode = 1;
        cfg.epsilon = EpsilonSchedule::constant(0.2);
        let mut agent = DqnAgent::new(cfg, 144, None);
        let report = train(&mut agent, &inst, &TrainerConfig::new(4));
        assert_eq!(report.points.len(), 4);
        assert_eq!(agent.episodes_completed(), 4);
    }
}
