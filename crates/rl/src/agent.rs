//! The DQN-family dispatching agent: DQN / DDQN / DGN / DDGN and their
//! ST-aided variants, trained per Algorithm 3.

use crate::adjacency::NeighborMemo;
use crate::qnet::{
    best_feasible, first_max, ForwardStats, Partition, QNetwork, QNetworkConfig, TrainStats,
};
use crate::replay::ReplayBuffer;
use crate::reward::{instant_reward, long_term_reward, RewardParams};
use crate::schedule::EpsilonSchedule;
use crate::state::{StateBuilder, StateSnapshot};
use dpdp_data::{StScorer, StdMatrix};
use dpdp_net::{Instance, VehicleId};
use dpdp_nn::{Adam, Graph, Optimizer, ParamStore};
use dpdp_sim::{DispatchContext, Dispatcher, Stage, StageTimer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// The model family of the paper's experiments and ablations (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Vanilla DQN: single network target, no graph, no ST Score.
    Dqn,
    /// Double DQN.
    Ddqn,
    /// Double DQN + ST Score.
    StDdqn,
    /// Graph (neighbourhood attention) + DQN target.
    Dgn,
    /// Graph + Double DQN.
    Ddgn,
    /// The paper's full model: graph + Double DQN + ST Score.
    StDdgn,
}

impl ModelKind {
    /// `(double, graph, st_score)` switches.
    pub fn flags(self) -> (bool, bool, bool) {
        match self {
            ModelKind::Dqn => (false, false, false),
            ModelKind::Ddqn => (true, false, false),
            ModelKind::StDdqn => (true, false, true),
            ModelKind::Dgn => (false, true, false),
            ModelKind::Ddgn => (true, true, false),
            ModelKind::StDdgn => (true, true, true),
        }
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Dqn => "DQN",
            ModelKind::Ddqn => "DDQN",
            ModelKind::StDdqn => "ST-DDQN",
            ModelKind::Dgn => "DGN",
            ModelKind::Ddgn => "DDGN",
            ModelKind::StDdgn => "ST-DDGN",
        }
    }

    /// Whether the ST Score feature is enabled.
    pub fn uses_st(self) -> bool {
        self.flags().2
    }
}

/// Hyper-parameters of a DQN-family agent.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentConfig {
    /// Which family member this is.
    pub kind: ModelKind,
    /// Embedding width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Stacked attention blocks.
    pub levels: usize,
    /// Neighbourhood size `NE`.
    pub ne: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Exploration schedule.
    pub epsilon: EpsilonSchedule,
    /// Replay capacity (transitions).
    pub replay_capacity: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Gradient steps per episode.
    pub updates_per_episode: usize,
    /// Target-network sync period in episodes (Algorithm 3's `T`).
    pub target_sync_period: usize,
    /// Reward scale `alpha`.
    pub reward_alpha: f64,
    /// Distance normalisation for state features, km.
    pub dist_scale: f64,
    /// Seed for weights and exploration.
    pub seed: u64,
}

impl AgentConfig {
    /// Paper-flavoured defaults for the given model kind.
    pub fn new(kind: ModelKind) -> Self {
        AgentConfig {
            kind,
            hidden: 32,
            heads: 4,
            levels: 2,
            ne: 8,
            gamma: 0.9,
            lr: 1e-3,
            epsilon: EpsilonSchedule::linear(0.5, 0.02, 150),
            replay_capacity: 20_000,
            batch_size: 32,
            updates_per_episode: 8,
            target_sync_period: 5,
            reward_alpha: 0.01,
            dist_scale: 50.0,
            seed: 0,
        }
    }
}

/// One stored MDP transition. A joint state is held once: `next` is the
/// following transition's `state`.
#[derive(Debug, Clone)]
struct Transition {
    state: Arc<StateSnapshot>,
    action: usize,
    reward: f64,
    next: Option<Arc<StateSnapshot>>,
    terminal: bool,
}

/// A trainable DQN-family dispatcher.
pub struct DqnAgent {
    config: AgentConfig,
    qnet: QNetwork,
    online: ParamStore,
    target: ParamStore,
    optimizer: Adam,
    /// The one tape every forward of this agent is recorded on (dispatch,
    /// TD targets, training steps), cleared between uses so its buffers
    /// are recycled.
    tape: Graph,
    /// Scratch of every forward's partition and receptive field, kept
    /// beside the tape for the same reason.
    partition: Partition,
    train_stats: TrainStats,
    replay: ReplayBuffer<Transition>,
    /// Replay indices of the minibatch being trained on.
    minibatch: Vec<usize>,
    state_builder: StateBuilder,
    /// The neighbour table of the last joint state this agent built.
    neighbors: NeighborMemo,
    rng: StdRng,
    episode: usize,
    training: bool,
    reward_params: RewardParams,
    // Per-episode bookkeeping.
    last: Option<(Arc<StateSnapshot>, usize, f64, usize)>, // state, action, r, interval
    pending: Vec<Transition>,
    episode_instant_rewards: Vec<f64>,
    last_losses: Vec<f64>,
}

impl DqnAgent {
    /// Creates an agent. `scorer` must be provided iff the model kind uses
    /// the ST Score; call [`DqnAgent::set_prediction`] before each episode
    /// to supply the day's predicted STD matrix.
    ///
    /// # Panics
    /// Panics if the ST switch and `scorer` presence disagree.
    pub fn new(config: AgentConfig, num_intervals: usize, scorer: Option<StScorer>) -> Self {
        let (_, graph, st) = config.kind.flags();
        assert_eq!(
            st,
            scorer.is_some(),
            "ST-score models need a scorer; others must not get one"
        );
        let qcfg = QNetworkConfig {
            hidden: config.hidden,
            heads: config.heads,
            levels: config.levels,
            graph,
        };
        let mut online = ParamStore::new(config.seed);
        let qnet = QNetwork::new(&mut online, qcfg);
        let mut target = ParamStore::new(config.seed.wrapping_add(1));
        let _ = QNetwork::new(&mut target, qcfg);
        target.copy_values_from(&online);
        let mut state_builder = StateBuilder::new(config.dist_scale, num_intervals, config.ne);
        if let Some(s) = scorer {
            state_builder = state_builder.with_scorer(s);
        }
        let optimizer = Adam::with_lr(config.lr);
        let replay = ReplayBuffer::new(config.replay_capacity);
        let rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
        let reward_params = RewardParams::new(config.reward_alpha, 0.0, 0.0);
        DqnAgent {
            config,
            qnet,
            online,
            target,
            optimizer,
            tape: Graph::new(),
            partition: Partition::default(),
            train_stats: TrainStats::default(),
            replay,
            minibatch: Vec::new(),
            state_builder,
            neighbors: NeighborMemo::default(),
            rng,
            episode: 0,
            training: true,
            reward_params,
            last: None,
            pending: Vec::new(),
            episode_instant_rewards: Vec::new(),
            last_losses: Vec::new(),
        }
    }

    /// Supplies the predicted STD matrix for the upcoming episode (no-op
    /// for non-ST models, which have no scorer).
    pub fn set_prediction(&mut self, predicted: Option<StdMatrix>) {
        self.state_builder.set_prediction(predicted);
    }

    /// Enables/disables learning and exploration. In evaluation mode the
    /// agent acts greedily and learns nothing: no transition is recorded,
    /// the replay memory and the weights stay as they are.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Episodes completed so far.
    pub fn episodes_completed(&self) -> usize {
        self.episode
    }

    /// Mean TD loss of the most recent training updates.
    pub fn last_loss(&self) -> Option<f64> {
        if self.last_losses.is_empty() {
            None
        } else {
            Some(self.last_losses.iter().sum::<f64>() / self.last_losses.len() as f64)
        }
    }

    /// Read-only access to the online parameters (for checkpointing).
    pub fn params(&self) -> &ParamStore {
        &self.online
    }

    /// Mutable access to the online parameters (for checkpoint loading);
    /// the target network is synced to match.
    pub fn load_params(&mut self, params: &ParamStore) {
        self.online.copy_values_from(params);
        self.target.copy_values_from(params);
    }

    /// Lifetime totals of this agent's forward-only evaluations — action
    /// choices and TD targets; the passes gradients are taken of are
    /// counted by [`DqnAgent::train_stats`].
    pub fn forward_stats(&self) -> ForwardStats {
        self.partition.stats()
    }

    /// Lifetime totals of this agent's training passes: the rows replayed
    /// joint states held against the rows `Q(s, a)` read.
    pub fn train_stats(&self) -> TrainStats {
        self.train_stats
    }

    fn epsilon(&self) -> f64 {
        if self.training {
            self.config.epsilon.at(self.episode)
        } else {
            0.0
        }
    }

    /// Epsilon-greedy action choice; a greedy one charges its partition
    /// and its forward to `timer`.
    fn choose_action(&mut self, snap: &StateSnapshot, timer: StageTimer<'_>) -> Option<usize> {
        let feasible = snap.feasible.iter().filter(|&&f| f).count();
        if feasible == 0 {
            return None;
        }
        if self.rng.random_range(0.0..1.0) < self.epsilon() {
            let pick = self.rng.random_range(0..feasible);
            return (0..snap.num_vehicles())
                .filter(|&i| snap.feasible[i])
                .nth(pick);
        }
        let (qnet, tape, part) = (&self.qnet, &mut self.tape, &mut self.partition);
        timer.time(Stage::Partition, || qnet.partition(part, snap));
        let q = timer.time(Stage::Forward, || {
            qnet.q_values_of(tape, part, &self.online, snap)
        });
        best_feasible(&q, &snap.feasible)
    }

    /// The TD target of the replayed transition `replay[at]`.
    fn td_target(&mut self, at: usize) -> f64 {
        let t = self.replay.get(at);
        if t.terminal {
            return t.reward;
        }
        let next = t.next.as_ref().expect("non-terminal has next state");
        if !next.any_feasible() {
            return t.reward;
        }
        let (qnet, tape, part) = (&self.qnet, &mut self.tape, &mut self.partition);
        let (double, _, _) = self.config.kind.flags();
        // The partition is a property of `next`: both networks share it,
        // and the best vehicle's value is its class's.
        qnet.partition(part, next);
        let every_class = if double { &self.online } else { &self.target };
        let q = qnet.forward_classes(tape, part, every_class, next, None);
        let values = tape.value(q).data();
        let best = first_max(values.iter().copied().enumerate()).expect("a feasible vehicle");
        let q_target = if double {
            // DDQN: argmax under the online network, value under the
            // target — which is asked for that one class.
            let q = qnet.forward_classes(tape, part, &self.target, next, Some(&[best]));
            tape.value(q).item()
        } else {
            values[best]
        };
        t.reward + self.config.gamma * q_target
    }

    fn train_step(&mut self) -> Option<f64> {
        if self.replay.is_empty() {
            return None;
        }
        self.replay
            .sample_indices(&mut self.rng, self.config.batch_size, &mut self.minibatch);
        let b = self.minibatch.len() as f64;
        let mut total = 0.0;
        for i in 0..self.minibatch.len() {
            let at = self.minibatch[i];
            let y = self.td_target(at);
            let t = self.replay.get(at);
            let (qnet, g, part) = (&self.qnet, &mut self.tape, &mut self.partition);
            g.clear();
            // `Q(s, a)` on the rows it reads: the dense pass's gradients.
            let q_sa = qnet.forward_on(g, part, &self.online, &t.state, Some(&[t.action]));
            self.train_stats.samples += 1;
            self.train_stats.rows += t.state.num_vehicles() as u64;
            self.train_stats.field_rows += part.field_rows() as u64;
            let target = g.constant_scalar(y);
            let err = g.mse(q_sa, target);
            total += g.value(err).item();
            let scaled = g.scale(err, 1.0 / b);
            g.backward(scaled, &mut self.online);
        }
        // Let go of the parameter leaves first: the optimizer updates in
        // place only what nobody else still holds.
        self.tape.clear();
        self.optimizer.step(&mut self.online);
        Some(total / b)
    }

    /// Finishes the open transition (if any) with the given successor.
    fn close_last(&mut self, next: Option<(&Arc<StateSnapshot>, usize)>) {
        if let Some((state, action, r, interval)) = self.last.take() {
            // Algorithm 3 marks the last order of each time interval
            // terminal, bounding bootstrapping within intervals.
            let (next_snap, terminal) = match next {
                Some((snap, next_interval)) => (Some(Arc::clone(snap)), next_interval != interval),
                None => (None, true),
            };
            self.pending.push(Transition {
                state,
                action,
                reward: r,
                next: next_snap,
                terminal,
            });
        }
    }
}

impl Dispatcher for DqnAgent {
    fn begin_episode(&mut self, instance: &Instance) {
        self.reward_params = RewardParams::new(
            self.config.reward_alpha,
            instance.fleet.fixed_cost,
            instance.fleet.unit_cost,
        );
        self.last = None;
        self.pending.clear();
        self.episode_instant_rewards.clear();
    }

    /// Scores the order's joint state once, when it is decided. Under
    /// buffering the simulator's default per-order adapter calls this for
    /// each order of the epoch against the state the earlier assignments
    /// left behind, so no order is ever scored against a stale fleet.
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        let (builder, memo) = (&self.state_builder, &mut self.neighbors);
        let snap = ctx
            .timer
            .time(Stage::Snapshot, || builder.build_memoised(ctx, memo));
        let action = self.choose_action(&snap, ctx.timer)?;
        if self.training {
            let snap = Arc::new(snap);
            let delta = ctx
                .plan(action)
                .incremental_length()
                .expect("chosen action is feasible");
            let r = instant_reward(&self.reward_params, ctx.views[action].used, delta);
            self.close_last(Some((&snap, ctx.interval)));
            self.last = Some((snap, action, r, ctx.interval));
            self.episode_instant_rewards.push(r);
        }
        Some(VehicleId::from_index(action))
    }

    fn end_episode(&mut self) {
        if !self.training {
            return;
        }
        self.close_last(None);
        // Eq. (7)-(8): add the episode-mean reward to every transition.
        let r_bar = long_term_reward(&self.episode_instant_rewards);
        for mut t in self.pending.drain(..) {
            t.reward += r_bar;
            self.replay.push(t);
        }
        self.last_losses.clear();
        for _ in 0..self.config.updates_per_episode {
            if let Some(loss) = self.train_step() {
                self.last_losses.push(loss);
            }
        }
        self.episode += 1;
        if self
            .episode
            .is_multiple_of(self.config.target_sync_period.max(1))
        {
            self.target.copy_values_from(&self.online);
        }
    }

    fn name(&self) -> &str {
        self.config.kind.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{
        FleetConfig, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta,
        TimePoint,
    };
    use dpdp_routing::VehicleView;
    use dpdp_sim::Simulator;

    fn tiny_instance(orders: usize) -> Instance {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(5.0, 0.0)),
            Node::factory(NodeId(2), Point::new(10.0, 0.0)),
            Node::factory(NodeId(3), Point::new(5.0, 5.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet =
            FleetConfig::homogeneous(3, &[NodeId(0)], 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO)
                .unwrap();
        let mut os = Vec::new();
        for i in 0..orders {
            let (p, d) = if i % 2 == 0 { (1, 2) } else { (3, 1) };
            os.push(
                Order::new(
                    OrderId(i as u32),
                    NodeId(p),
                    NodeId(d),
                    2.0 + (i % 3) as f64,
                    TimePoint::from_hours(8.0 + i as f64 * 0.5),
                    TimePoint::from_hours(14.0 + i as f64 * 0.5),
                )
                .unwrap(),
            );
        }
        Instance::new(net, fleet, IntervalGrid::paper_default(), os).unwrap()
    }

    fn quick_config(kind: ModelKind) -> AgentConfig {
        let mut c = AgentConfig::new(kind);
        c.hidden = 8;
        c.heads = 2;
        c.levels = 1;
        c.batch_size = 8;
        c.updates_per_episode = 2;
        c.epsilon = EpsilonSchedule::linear(0.3, 0.0, 5);
        c
    }

    #[test]
    fn all_kinds_run_episodes_and_fill_replay() {
        for kind in [
            ModelKind::Dqn,
            ModelKind::Ddqn,
            ModelKind::Dgn,
            ModelKind::Ddgn,
        ] {
            let inst = tiny_instance(6);
            let mut agent = DqnAgent::new(quick_config(kind), 144, None);
            let sim = Simulator::builder(&inst).build().unwrap();
            let result = sim.run(&mut agent);
            assert_eq!(result.metrics.served, 6, "{kind:?} should serve all");
            assert_eq!(agent.replay.len(), 6);
            assert_eq!(agent.episodes_completed(), 1);
            assert!(agent.last_loss().is_some());
        }
    }

    /// Hands each context to the agent after checking that the agent's
    /// own snapshot of it — its neighbour table from the memo — is the one
    /// `StateBuilder::build` computes from scratch, bit for bit. Counts the
    /// contexts whose anchors had all stayed put since the previous one
    /// (a memo hit) and those where one moved.
    struct SameSnapshots<'a> {
        agent: &'a mut DqnAgent,
        builder: StateBuilder,
        last: Vec<NodeId>,
        kept: usize,
        moved: usize,
    }

    impl Dispatcher for SameSnapshots<'_> {
        fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
            let anchors: Vec<NodeId> = ctx.views.iter().map(|v| v.anchor_node).collect();
            if anchors == self.last {
                self.kept += 1;
            } else {
                self.moved += 1;
            }
            self.last = anchors;
            let agent = &mut *self.agent;
            let memoised = agent
                .state_builder
                .build_memoised(ctx, &mut agent.neighbors);
            assert_eq!(memoised, self.builder.build(ctx), "{}", ctx.order.id);
            agent.dispatch(ctx)
        }
    }

    /// Reusing the last neighbour table is invisible: across an evaluation
    /// episode, where most orders find every anchor where the previous
    /// order left it, every snapshot the agent builds equals a fresh build.
    #[test]
    fn memoised_neighbour_tables_are_the_built_ones() {
        // Orders two minutes apart, so most find the fleet mid-leg.
        let tiny = tiny_instance(0);
        let orders = (0..16)
            .map(|i| {
                let created = TimePoint::from_hours(8.0) + TimeDelta::from_minutes(2.0 * i as f64);
                let (p, d) = [(1, 2), (3, 1), (2, 3)][i % 3];
                let id = OrderId(i as u32);
                let deadline = created + TimeDelta::from_hours(6.0);
                Order::new(id, NodeId(p), NodeId(d), 1.0, created, deadline).unwrap()
            })
            .collect();
        let (net, fleet) = (tiny.network.clone(), tiny.fleet.clone());
        let inst = Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap();
        let mut config = quick_config(ModelKind::Dgn);
        config.ne = 2;
        let mut agent = DqnAgent::new(config.clone(), 144, None);
        agent.set_training(false);
        let sim = Simulator::builder(&inst).build().unwrap();
        let reference = sim.run(&mut agent);
        let mut probe = SameSnapshots {
            agent: &mut agent,
            builder: StateBuilder::new(config.dist_scale, 144, config.ne),
            last: Vec::new(),
            kept: 0,
            moved: 0,
        };
        assert_eq!(sim.run(&mut probe), reference);
        assert!(
            probe.kept > 0 && probe.moved > 0,
            "{} / {}",
            probe.kept,
            probe.moved
        );
    }

    /// One memo serves every instance an agent runs on, and node ids alone
    /// do not name a place: two networks that number their depots alike
    /// but place them differently give the same anchors different
    /// neighbours. Three vehicles at three depots on a line; vehicle 0's
    /// nearest other is vehicle 1 on the first network and vehicle 2 on
    /// the second.
    #[test]
    fn a_memo_misses_when_the_anchor_nodes_moved() {
        let instance = |x: [f64; 3]| {
            let mut nodes: Vec<Node> = (0..3)
                .map(|d| Node::depot(NodeId(d), Point::new(x[d as usize], 0.0)))
                .collect();
            nodes.push(Node::factory(NodeId(3), Point::new(5.0, 5.0)));
            nodes.push(Node::factory(NodeId(4), Point::new(6.0, 5.0)));
            let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
            let depots = [NodeId(0), NodeId(1), NodeId(2)];
            let fleet =
                FleetConfig::homogeneous(3, &depots, 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO)
                    .unwrap();
            let order = Order::new(
                OrderId(0),
                NodeId(3),
                NodeId(4),
                1.0,
                TimePoint::from_hours(8.0),
                TimePoint::from_hours(14.0),
            )
            .unwrap();
            Instance::new(net, fleet, IntervalGrid::paper_default(), vec![order]).unwrap()
        };
        let (near_one, near_two) = (instance([0.0, 1.0, 3.0]), instance([0.0, 3.0, 1.0]));
        let mut config = quick_config(ModelKind::Dgn);
        config.ne = 2;
        let mut agent = DqnAgent::new(config.clone(), 144, None);
        agent.set_training(false);
        for inst in [&near_one, &near_two] {
            let mut probe = SameSnapshots {
                agent: &mut agent,
                builder: StateBuilder::new(config.dist_scale, 144, config.ne),
                last: Vec::new(),
                kept: 0,
                moved: 0,
            };
            Simulator::builder(inst).build().unwrap().run(&mut probe);
            assert_eq!(probe.moved, 1, "one context, after the other instance's");
        }
        // The two networks do give the same anchors different neighbours.
        let first = agent.neighbors.neighbors(
            &[0, 1, 2].map(|d| VehicleView::idle_at_depot(VehicleId(d), NodeId(d))),
            &near_one.network,
            2,
        );
        assert_eq!(first.list(0), [0, 1]);
        let second = agent.neighbors.neighbors(
            &[0, 1, 2].map(|d| VehicleView::idle_at_depot(VehicleId(d), NodeId(d))),
            &near_two.network,
            2,
        );
        assert_eq!(second.list(0), [0, 2]);
    }

    #[test]
    #[should_panic(expected = "scorer")]
    fn st_kind_requires_scorer() {
        let _ = DqnAgent::new(quick_config(ModelKind::StDdgn), 144, None);
    }

    #[test]
    fn training_improves_or_holds_on_fixed_instance() {
        let inst = tiny_instance(8);
        let mut cfg = quick_config(ModelKind::Ddgn);
        cfg.updates_per_episode = 4;
        cfg.epsilon = EpsilonSchedule::linear(0.8, 0.0, 40);
        let mut agent = DqnAgent::new(cfg, 144, None);
        let sim = Simulator::builder(&inst).build().unwrap();
        let mut costs = Vec::new();
        for _ in 0..50 {
            let r = sim.run(&mut agent);
            assert_eq!(r.metrics.served, 8, "training run must serve all orders");
            costs.push(r.metrics.total_cost);
        }
        agent.set_training(false);
        let greedy = sim.run(&mut agent).metrics.total_cost;
        // The learned greedy policy should be no worse than the average
        // exploratory episode early in training (deterministic seeds make
        // this a stable regression check, not a statistical one).
        let early = costs[..10].iter().sum::<f64>() / 10.0;
        assert!(
            greedy <= early * 1.25,
            "greedy eval {greedy} much worse than early training mean {early}"
        );
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let inst = tiny_instance(6);
        let mut agent = DqnAgent::new(quick_config(ModelKind::Ddgn), 144, None);
        let sim = Simulator::builder(&inst).build().unwrap();
        for _ in 0..3 {
            sim.run(&mut agent);
        }
        agent.set_training(false);
        let a = sim.run(&mut agent);
        let b = sim.run(&mut agent);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.assignments, b.assignments);
    }

    /// Evaluation leaves no trace in the learner: nothing is recorded, the
    /// replay memory and the last training loss stay put, and greedy
    /// decisions repeat.
    #[test]
    fn eval_episodes_have_no_training_side_effects() {
        let inst = tiny_instance(6);
        let mut agent = DqnAgent::new(quick_config(ModelKind::Ddgn), 144, None);
        let sim = Simulator::builder(&inst).build().unwrap();
        for _ in 0..3 {
            sim.run(&mut agent);
        }
        let (stored, loss) = (agent.replay.len(), agent.last_loss());
        let weights = dpdp_nn::serialize::save_params(agent.params());
        agent.set_training(false);
        let first = sim.run(&mut agent);
        let second = sim.run(&mut agent);
        assert_eq!(first.assignments, second.assignments);
        assert_eq!(first.metrics, second.metrics);
        assert_eq!(agent.replay.len(), stored);
        assert_eq!(agent.last_loss(), loss);
        assert!(agent.pending.is_empty() && agent.last.is_none());
        assert_eq!(agent.episodes_completed(), 3);
        assert_eq!(dpdp_nn::serialize::save_params(agent.params()), weights);
    }

    /// The counters on a fixed day: six vehicles at two depots, eight
    /// orders, greedy evaluation. Every order is one forward over all six
    /// vehicles; what is evaluated is one row per class — the first
    /// order sees two (one per depot).
    #[test]
    fn forward_stats_count_rows_offered_and_rows_evaluated() {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::depot(NodeId(1), Point::new(20.0, 0.0)),
            Node::factory(NodeId(2), Point::new(5.0, 3.0)),
            Node::factory(NodeId(3), Point::new(15.0, -3.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let depots = [NodeId(0), NodeId(1)];
        let fleet =
            FleetConfig::homogeneous(6, &depots, 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO).unwrap();
        let orders = (0..8u32)
            .map(|i| {
                let (p, d) = if i % 2 == 0 { (2, 3) } else { (3, 2) };
                Order::new(
                    OrderId(i),
                    NodeId(p),
                    NodeId(d),
                    3.0,
                    TimePoint::from_hours(8.0 + i as f64 * 0.2),
                    TimePoint::from_hours(12.0 + i as f64 * 0.2),
                )
                .unwrap()
            })
            .collect();
        let inst = Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap();
        let mut agent = DqnAgent::new(quick_config(ModelKind::Ddgn), 144, None);
        agent.set_training(false);
        assert_eq!(agent.forward_stats(), ForwardStats::default());

        struct FirstOrder(DqnAgent, Option<ForwardStats>);
        impl Dispatcher for FirstOrder {
            fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
                let choice = self.0.dispatch(ctx);
                self.1.get_or_insert(self.0.forward_stats());
                choice
            }
        }
        let mut probe = FirstOrder(agent, None);
        let result = Simulator::builder(&inst).build().unwrap().run(&mut probe);
        assert_eq!(result.metrics.served, 8);
        assert_eq!(
            probe.1,
            Some(ForwardStats {
                forwards: 1,
                rows: 6,
                feasible: 6,
                evaluated: 2
            })
        );
        assert_eq!(
            probe.0.forward_stats(),
            ForwardStats {
                forwards: 8,
                rows: 48,
                feasible: 48,
                evaluated: 23
            }
        );
    }

    /// Replay holds each joint state once: a transition's successor is the
    /// very snapshot the following transition starts from.
    #[test]
    fn successor_state_is_shared_with_the_following_transition() {
        let inst = tiny_instance(6);
        let mut agent = DqnAgent::new(quick_config(ModelKind::Ddgn), 144, None);
        let sim = Simulator::builder(&inst).build().unwrap();
        sim.run(&mut agent);
        assert_eq!(agent.replay.len(), 6);
        for at in 0..5 {
            let next = agent.replay.get(at).next.as_ref().expect("a later order");
            assert!(Arc::ptr_eq(next, &agent.replay.get(at + 1).state), "{at}");
        }
        let last = agent.replay.get(5);
        assert!(last.next.is_none() && last.terminal);
    }

    #[test]
    fn interval_boundaries_mark_terminals() {
        // Orders 30 minutes apart span different 10-minute intervals, so all
        // non-final transitions should still be terminal per Algorithm 3.
        let inst = tiny_instance(4);
        let mut agent = DqnAgent::new(quick_config(ModelKind::Dqn), 144, None);
        let sim = Simulator::builder(&inst).build().unwrap();
        sim.run(&mut agent);
        // Replay now has 4 transitions, all terminal.
        let mut rng = StdRng::seed_from_u64(0);
        for t in agent.replay.sample(&mut rng, 10) {
            assert!(t.terminal);
        }
    }
}
