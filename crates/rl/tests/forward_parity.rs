//! The agent around the partitioned forward did not move: an evaluation
//! episode audited decision by decision against the dense pass, and a
//! digest of three training episodes pinned at the commit before the
//! partition existed — when training still differentiated the dense pass
//! — beside the count of the rows those episodes' gradients were taken on.

use dpdp_data::{FactoryIndex, StScorer, StdMatrix};
use dpdp_net::{
    FleetConfig, Instance, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork,
    TimeDelta, TimePoint, VehicleId,
};
use dpdp_nn::serialize::save_params;
use dpdp_nn::{Graph, ParamStore};
use dpdp_rl::{
    AgentConfig, DqnAgent, ModelKind, QNetwork, QNetworkConfig, StateBuilder, TrainStats,
};
use dpdp_sim::{DispatchContext, Dispatcher, Simulator};

const FACTORIES: [NodeId; 4] = [NodeId(2), NodeId(3), NodeId(4), NodeId(5)];

/// Two depots 30 km apart with twelve vehicles each (vehicle `v` parks at
/// depot `v % 2`), four factories between them, sixteen orders 3.6 minutes
/// apart — two or three per 10-minute interval, so most transitions
/// bootstrap from a successor state: idle twins at both depots all day,
/// used vehicles among them.
fn two_depot_instance() -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::depot(NodeId(1), Point::new(30.0, 0.0)),
        Node::factory(NodeId(2), Point::new(6.0, 4.0)),
        Node::factory(NodeId(3), Point::new(12.0, -3.0)),
        Node::factory(NodeId(4), Point::new(20.0, 5.0)),
        Node::factory(NodeId(5), Point::new(26.0, -2.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let depots = [NodeId(0), NodeId(1)];
    let fleet =
        FleetConfig::homogeneous(24, &depots, 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO).unwrap();
    let orders = (0..16u32)
        .map(|i| {
            Order::new(
                OrderId(i),
                FACTORIES[i as usize % 4],
                FACTORIES[(i as usize * 3 + 1) % 4],
                2.0 + (i % 4) as f64,
                TimePoint::from_hours(8.0 + i as f64 * 0.06),
                TimePoint::from_hours(12.0 + i as f64 * 0.06),
            )
            .unwrap()
        })
        .collect();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

fn config() -> AgentConfig {
    let mut config = AgentConfig::new(ModelKind::StDdgn);
    config.batch_size = 8;
    config.updates_per_episode = 4;
    config.seed = 5;
    config
}

/// The ST scorer and the day's prediction (the instance's own demand).
fn st_parts(instance: &Instance) -> (StScorer, StdMatrix) {
    let grid = IntervalGrid::paper_default();
    let index = FactoryIndex::new(&FACTORIES);
    let predicted = StdMatrix::from_orders(instance.orders(), &grid, &index);
    (StScorer::new(grid, index), predicted)
}

fn st_ddgn(instance: &Instance) -> DqnAgent {
    let (scorer, predicted) = st_parts(instance);
    let mut agent = DqnAgent::new(config(), 144, Some(scorer));
    agent.set_prediction(Some(predicted));
    agent
}

/// Forwards to the agent and, per decision, recomputes the joint state's
/// Q-vector through the dense `QNetwork::forward` on a fresh tape.
struct DenseAudit {
    agent: DqnAgent,
    builder: StateBuilder,
    qnet: QNetwork,
    decisions: usize,
}

impl Dispatcher for DenseAudit {
    fn begin_episode(&mut self, instance: &Instance) {
        self.agent.begin_episode(instance);
    }

    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        let snap = self.builder.build(ctx);
        let store = self.agent.params();
        let mut tape = Graph::new();
        let dense = self.qnet.forward(&mut tape, store, &snap);
        let dense = tape.value(dense).data();
        let quotient = self.qnet.q_values(store, &snap);
        // The first feasible vehicle holding the highest dense Q-value:
        // twins tie, and the lowest index wins.
        let mut best: Option<usize> = None;
        for v in 0..snap.num_vehicles() {
            if !snap.feasible[v] {
                assert_eq!(quotient[v], f64::NEG_INFINITY);
                continue;
            }
            assert_eq!(
                quotient[v].to_bits(),
                dense[v].to_bits(),
                "decision {}, vehicle {v}",
                self.decisions
            );
            if best.is_none_or(|b| dense[v] > dense[b]) {
                best = Some(v);
            }
        }
        let before = self.agent.forward_stats();
        let choice = self.agent.dispatch(ctx);
        let after = self.agent.forward_stats();
        assert_eq!(choice, best.map(VehicleId::from_index));
        assert_eq!(after.forwards - before.forwards, 1);
        // Non-vacuous: idle twins at a depot share a row.
        let (feasible, evaluated) = (
            after.feasible - before.feasible,
            after.evaluated - before.evaluated,
        );
        assert!(
            evaluated + 4 <= feasible,
            "decision {}: {evaluated} rows for {feasible} feasible vehicles",
            self.decisions
        );
        self.decisions += 1;
        choice
    }

    fn end_episode(&mut self) {
        self.agent.end_episode();
    }
}

#[test]
fn evaluation_decisions_equal_the_dense_forward() {
    let instance = two_depot_instance();
    let sim = Simulator::builder(&instance).build().unwrap();
    let mut agent = st_ddgn(&instance);
    // A few training episodes first, so the audited weights are not the
    // initial ones and the replayed TD targets ran through the partition.
    for _ in 0..2 {
        sim.run(&mut agent);
    }
    agent.set_training(false);
    let trained = agent.forward_stats();

    let (scorer, predicted) = st_parts(&instance);
    let cfg = config();
    let mut builder = StateBuilder::new(cfg.dist_scale, 144, cfg.ne).with_scorer(scorer);
    builder.set_prediction(Some(predicted));
    let qcfg = QNetworkConfig {
        hidden: cfg.hidden,
        heads: cfg.heads,
        levels: cfg.levels,
        graph: true,
    };
    let qnet = QNetwork::new(&mut ParamStore::new(0), qcfg);
    let mut audit = DenseAudit {
        agent,
        builder,
        qnet,
        decisions: 0,
    };
    let result = sim.run(&mut audit);
    assert_eq!(result.metrics.served, 16);
    assert_eq!(audit.decisions, 16);

    let stats = audit.agent.forward_stats();
    assert_eq!(stats.forwards - trained.forwards, 16);
    assert_eq!(stats.rows - trained.rows, 16 * 24);
}

/// FNV-1a over the checkpoint bytes and the loss bits.
fn digest(agent: &DqnAgent, losses: &[f64]) -> u64 {
    let checkpoint = save_params(agent.params());
    let loss_bytes = losses.iter().flat_map(|l| l.to_bits().to_le_bytes());
    checkpoint
        .iter()
        .copied()
        .chain(loss_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Three training episodes of ST-DDGN: the agent and each episode's loss.
fn three_training_episodes() -> (DqnAgent, Vec<f64>) {
    let instance = two_depot_instance();
    let sim = Simulator::builder(&instance).build().unwrap();
    let mut agent = st_ddgn(&instance);
    let mut losses = Vec::new();
    for _ in 0..3 {
        let result = sim.run(&mut agent);
        assert_eq!(result.metrics.served, 16);
        losses.push(agent.last_loss().expect("every episode trains"));
    }
    (agent, losses)
}

/// Three training episodes of ST-DDGN leave the weights and the loss
/// sequence they left at the parent of the partition change (the constant
/// was computed there, on this file minus the audit above): the gradient
/// path, the replay draws and the exploration stream are untouched.
#[test]
fn training_digest_is_the_parents() {
    let (agent, losses) = three_training_episodes();
    assert_eq!(digest(&agent, &losses), PARENT_DIGEST, "losses {losses:?}");
}

/// What those gradients were taken on: four updates of eight transitions
/// per episode, each a joint state of 24 vehicles, recorded on the rows its
/// one Q-value reads — at most a depot's twelve and whoever of the other
/// depot's is on the road nearby.
#[test]
fn training_records_the_field_of_each_sample() {
    let (agent, _) = three_training_episodes();
    let stats = agent.train_stats();
    let counted = TrainStats {
        samples: 96,
        rows: 96 * 24,
        field_rows: 925,
    };
    assert_eq!(stats, counted);
    // Non-vacuous: a field is well under the fleet.
    assert!(2 * stats.field_rows <= stats.rows, "{stats:?}");
}

const PARENT_DIGEST: u64 = 14_541_465_741_671_711_526;
