//! The Actor-Critic baseline (the paper's "AC" comparator).
//!
//! A per-vehicle policy network (shared weights) produces a logit for each
//! feasible vehicle; actions are sampled from the softmax over feasible
//! logits. A value network estimates `V(S)` by mean-pooling per-vehicle
//! embeddings. Both are updated once per episode from the on-policy
//! trajectory with discounted-return advantages.

use crate::reward::{instant_reward, long_term_reward, RewardParams};
use crate::state::{StateBuilder, StateSnapshot, STATE_DIM};
use dpdp_net::{Instance, VehicleId};
use dpdp_nn::{Adam, Graph, Mlp, Optimizer, ParamStore, Tensor};
use dpdp_sim::{DispatchContext, Dispatcher};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Actor-Critic hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ActorCriticConfig {
    /// Hidden width of both networks.
    pub hidden: usize,
    /// Discount factor.
    pub gamma: f64,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Reward scale `alpha`.
    pub reward_alpha: f64,
    /// Distance normalisation for state features, km.
    pub dist_scale: f64,
    /// Neighbourhood size used only for state building (AC has no graph).
    pub ne: usize,
    /// Entropy-free exploration floor: with this probability a uniform
    /// feasible vehicle is chosen during training.
    pub explore_floor: f64,
    /// RNG / weight seed.
    pub seed: u64,
}

impl Default for ActorCriticConfig {
    fn default() -> Self {
        ActorCriticConfig {
            hidden: 32,
            gamma: 0.9,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            reward_alpha: 0.01,
            dist_scale: 50.0,
            ne: 8,
            explore_floor: 0.05,
            seed: 0,
        }
    }
}

struct Step {
    snap: StateSnapshot,
    action: usize,
    reward: f64,
}

/// The Actor-Critic dispatcher.
pub struct ActorCriticAgent {
    config: ActorCriticConfig,
    actor_params: ParamStore,
    actor: Mlp,
    critic_params: ParamStore,
    critic: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    state_builder: StateBuilder,
    rng: StdRng,
    training: bool,
    reward_params: RewardParams,
    trajectory: Vec<Step>,
    episodes: usize,
}

impl ActorCriticAgent {
    /// Creates an AC agent for fleets evaluated on `num_intervals`-interval
    /// days.
    pub fn new(config: ActorCriticConfig, num_intervals: usize) -> Self {
        let mut actor_params = ParamStore::new(config.seed);
        let actor = Mlp::new(
            &mut actor_params,
            &[STATE_DIM, config.hidden, config.hidden, 1],
        );
        let mut critic_params = ParamStore::new(config.seed.wrapping_add(101));
        let critic = Mlp::new(
            &mut critic_params,
            &[STATE_DIM, config.hidden, config.hidden, 1],
        );
        let state_builder = StateBuilder::new(config.dist_scale, num_intervals, config.ne);
        ActorCriticAgent {
            actor_opt: Adam::with_lr(config.actor_lr),
            critic_opt: Adam::with_lr(config.critic_lr),
            config,
            actor_params,
            actor,
            critic_params,
            critic,
            state_builder,
            rng: StdRng::seed_from_u64(31),
            training: true,
            reward_params: RewardParams::new(0.01, 0.0, 0.0),
            trajectory: Vec::new(),
            episodes: 0,
        }
    }

    /// Enables/disables learning and exploration.
    pub fn set_training(&mut self, training: bool) {
        self.training = training;
    }

    /// Episodes completed so far.
    pub fn episodes_completed(&self) -> usize {
        self.episodes
    }

    /// Policy probabilities over feasible vehicles (indices returned
    /// alongside, in ascending vehicle order).
    fn policy(&self, snap: &StateSnapshot) -> (Vec<usize>, Vec<f64>) {
        let feasible: Vec<usize> = (0..snap.num_vehicles())
            .filter(|&i| snap.feasible[i])
            .collect();
        if feasible.is_empty() {
            return (feasible, Vec::new());
        }
        let mut g = Graph::new();
        let x = g.constant(&snap.features);
        let logits = self.actor.forward(&mut g, &self.actor_params, x); // K x 1
        let picked = g.gather_rows(logits, &feasible); // F x 1
        let row = g.transpose(picked); // 1 x F
        let probs = g.softmax_rows(row);
        (feasible, g.value(probs).row(0).to_vec())
    }

    /// The per-order decision body: sample (training) or argmax
    /// (evaluation) over the feasible policy, account the reward, and
    /// extend the on-policy trajectory.
    fn decide_one(
        &mut self,
        ctx: &DispatchContext<'_>,
        snap: StateSnapshot,
        feasible: Vec<usize>,
        probs: Vec<f64>,
    ) -> Option<usize> {
        if feasible.is_empty() {
            return None;
        }
        let action = if self.training {
            if self.rng.random_range(0.0..1.0) < self.config.explore_floor {
                feasible[self.rng.random_range(0..feasible.len())]
            } else {
                // Sample from the policy.
                let mut u = self.rng.random_range(0.0..1.0);
                let mut pick = feasible[feasible.len() - 1];
                for (i, &p) in probs.iter().enumerate() {
                    if u < p {
                        pick = feasible[i];
                        break;
                    }
                    u -= p;
                }
                pick
            }
        } else {
            // Greedy: most probable feasible vehicle.
            let best = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty");
            feasible[best]
        };
        let delta = ctx
            .plan(action)
            .incremental_length()
            .expect("chosen action is feasible");
        let reward = instant_reward(&self.reward_params, ctx.views[action].used, delta);
        if self.training {
            self.trajectory.push(Step {
                snap,
                action,
                reward,
            });
        }
        Some(action)
    }

    fn value_of(&self, snap: &StateSnapshot) -> f64 {
        let feasible: Vec<usize> = (0..snap.num_vehicles())
            .filter(|&i| snap.feasible[i])
            .collect();
        if feasible.is_empty() {
            return 0.0;
        }
        let mut g = Graph::new();
        let x = g.constant(&snap.features);
        let v = self.critic.forward(&mut g, &self.critic_params, x);
        let picked = g.gather_rows(v, &feasible);
        let pooled = g.mean_all(picked);
        g.value(pooled).item()
    }

    fn update(&mut self) {
        if self.trajectory.is_empty() {
            return;
        }
        // Eq. (7)-(8): add the episode-mean reward to every step.
        let rewards: Vec<f64> = self.trajectory.iter().map(|s| s.reward).collect();
        let r_bar = long_term_reward(&rewards);
        // Discounted returns from final rewards.
        let n = self.trajectory.len();
        let mut returns = vec![0.0; n];
        let mut acc = 0.0;
        for i in (0..n).rev() {
            acc = (self.trajectory[i].reward + r_bar) + self.config.gamma * acc;
            returns[i] = acc;
        }
        let inv_n = 1.0 / n as f64;
        for (step, &ret) in self.trajectory.iter().zip(&returns) {
            let advantage = ret - self.value_of(&step.snap);
            let feasible: Vec<usize> = (0..step.snap.num_vehicles())
                .filter(|&i| step.snap.feasible[i])
                .collect();
            let pos = feasible
                .iter()
                .position(|&i| i == step.action)
                .expect("chosen action was feasible");
            // Actor: minimise -log pi(a|S) * advantage.
            let mut g = Graph::new();
            let x = g.constant(&step.snap.features);
            let logits = self.actor.forward(&mut g, &self.actor_params, x);
            let picked = g.gather_rows(logits, &feasible);
            let row = g.transpose(picked);
            let probs = g.softmax_rows(row);
            let p_a = g.slice_cols(probs, pos, 1);
            let log_p = g.ln(p_a);
            let loss = g.scale(log_p, -advantage * inv_n);
            g.backward(loss, &mut self.actor_params);
            // Critic: minimise (V(S) - G)^2.
            let mut gc = Graph::new();
            let xc = gc.constant(&step.snap.features);
            let v = self.critic.forward(&mut gc, &self.critic_params, xc);
            let picked_v = gc.gather_rows(v, &feasible);
            let pooled = gc.mean_all(picked_v);
            let target = gc.constant(Tensor::scalar(ret));
            let vloss = gc.mse(pooled, target);
            let scaled = gc.scale(vloss, inv_n);
            gc.backward(scaled, &mut self.critic_params);
        }
        self.actor_opt.step(&mut self.actor_params);
        self.critic_opt.step(&mut self.critic_params);
        self.trajectory.clear();
    }
}

impl Dispatcher for ActorCriticAgent {
    fn begin_episode(&mut self, instance: &Instance) {
        self.reward_params = RewardParams::new(
            self.config.reward_alpha,
            instance.fleet.fixed_cost,
            instance.fleet.unit_cost,
        );
        self.trajectory.clear();
    }

    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        let snap = self.state_builder.build(ctx);
        let (feasible, probs) = self.policy(&snap);
        self.decide_one(ctx, snap, feasible, probs)
            .map(VehicleId::from_index)
    }

    fn end_episode(&mut self) {
        if self.training {
            self.update();
            self.episodes += 1;
        }
    }

    fn name(&self) -> &str {
        "AC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{
        FleetConfig, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta,
        TimePoint,
    };
    use dpdp_sim::Simulator;

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
        let orders = (0..5)
            .map(|i| {
                Order::new(
                    OrderId(i),
                    NodeId(1 + (i % 2)),
                    NodeId(2 - (i % 2)),
                    2.0,
                    TimePoint::from_hours(8.0 + i as f64),
                    TimePoint::from_hours(16.0 + i as f64),
                )
                .unwrap()
            })
            .collect();
        Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
    }

    #[test]
    fn ac_runs_and_learns_without_panicking() {
        let inst = instance();
        let mut agent = ActorCriticAgent::new(ActorCriticConfig::default(), 144);
        let sim = Simulator::builder(&inst).build().unwrap();
        for _ in 0..5 {
            let r = sim.run(&mut agent);
            assert_eq!(r.metrics.served, 5);
        }
        assert_eq!(agent.episodes_completed(), 5);
    }

    #[test]
    fn eval_mode_is_deterministic_and_does_not_learn() {
        let inst = instance();
        let mut agent = ActorCriticAgent::new(ActorCriticConfig::default(), 144);
        let sim = Simulator::builder(&inst).build().unwrap();
        sim.run(&mut agent);
        agent.set_training(false);
        let a = sim.run(&mut agent);
        let b = sim.run(&mut agent);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(agent.episodes_completed(), 1);
    }

    #[test]
    fn policy_probabilities_are_normalised() {
        let inst = instance();
        let mut agent = ActorCriticAgent::new(ActorCriticConfig::default(), 144);
        // Run one episode to exercise the policy path, then inspect via a
        // fabricated snapshot from the first decision of a fresh run.
        let sim = Simulator::builder(&inst).build().unwrap();
        sim.run(&mut agent);
        // Build a snapshot manually.
        let snap = StateSnapshot {
            features: Tensor::zeros(2, STATE_DIM),
            feasible: vec![true, true],
            neighbors: [vec![0, 1], vec![1, 0]].into_iter().collect(),
        };
        let (feasible, probs) = agent.policy(&snap);
        assert_eq!(feasible, vec![0, 1]);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
