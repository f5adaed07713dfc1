//! Deep reinforcement learning for DPDP: the paper's route-centric MDP
//! (Section IV-B), the relational Q-networks (Section IV-C) and the training
//! loop (Algorithm 3).
//!
//! One [`AgentConfig`] covers the whole model family of the paper's
//! experiments and ablations via three switches:
//!
//! | model    | `double` | `graph` | `st_score` |
//! |----------|----------|---------|------------|
//! | DQN      | no       | no      | no         |
//! | DDQN     | yes      | no      | no         |
//! | ST-DDQN  | yes      | no      | yes        |
//! | DGN      | no       | yes     | no         |
//! | DDGN     | yes      | yes     | no         |
//! | ST-DDGN  | yes      | yes     | yes        |
//!
//! The Actor-Critic baseline is a separate agent ([`ActorCriticAgent`]).
//!
//! # How an order is scored
//!
//! Both agents are per-order policies: they implement
//! [`Dispatcher::dispatch`](dpdp_sim::Dispatcher::dispatch) and ride the
//! simulator's default `dispatch_batch` adapter, under immediate service
//! and under buffering alike. Every order is scored exactly once, at the
//! moment it is decided, against the joint state the epoch's earlier
//! assignments left behind. One decision is one [`StateBuilder::build`]
//! (a distance row per occupied node for the neighbour lists) and one
//! [`QNetwork::forward`] — `O(K · NE)` attention on the agent's reusable
//! tape, so a warmed-up [`DqnAgent`] allocates only the snapshot and the
//! Q-vector it hands back. In evaluation mode ([`DqnAgent::set_training`])
//! nothing is recorded and nothing is learned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac;
pub mod adjacency;
pub mod agent;
pub mod qnet;
pub mod recorder;
pub mod replay;
pub mod reward;
pub mod schedule;
pub mod state;
pub mod trainer;

pub use ac::{ActorCriticAgent, ActorCriticConfig};
pub use adjacency::nearest_neighbors;
pub use agent::{AgentConfig, DqnAgent, ModelKind};
pub use qnet::{QNetwork, QNetworkConfig};
pub use recorder::CapacityRecorder;
pub use replay::ReplayBuffer;
pub use reward::{instant_reward, RewardParams};
pub use schedule::EpsilonSchedule;
pub use state::{StateBuilder, StateSnapshot};
pub use trainer::{train, train_observed, EpisodePoint, TrainObserver, TrainReport, TrainerConfig};
