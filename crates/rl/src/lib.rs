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
//! assignments left behind. For a [`DqnAgent`] one decision is one
//! snapshot, one partition and one forward over the partition's classes:
//!
//! * **The snapshot.** [`StateBuilder::build`] writes the joint state — a
//!   `K x 5` feature matrix, the feasibility mask, and each vehicle's `NE`
//!   nearest vehicles (a distance row per occupied node).
//! * **The partition.** Most of a fleet is interchangeable — the paper's
//!   objective keeps most vehicles parked at a handful of depots — and
//!   the network is the same function on every row, so the feasible
//!   vehicles are first split into *classes* the network cannot tell
//!   apart. Two vehicles share a class when their five features are equal
//!   bit for bit (`f64::to_bits`: `0.0` and `-0.0` differ) and, for each
//!   attention level in turn, their canonical neighbour lists — the
//!   vehicle itself and its feasible neighbours, ascending by vehicle
//!   index, each once — name vehicles of equal classes in equal positions.
//!   That key is complete: the embedding and head MLPs are row-wise, and
//!   an attention level reads, for row `i`, only `i`'s representation and
//!   its neighbours' in list order, so by induction over the levels the
//!   members of a class hold bit-identical representations at every depth
//!   and bit-identical Q-values. Classes are numbered by their lowest
//!   member, which represents them; the partition is a function of the
//!   snapshot alone (no thread count, no hash seed enters it). Infeasible
//!   vehicles are in no class: nobody attends to them and their Q-value
//!   is `-inf` whatever the network says.
//! * **The forward.** The network is recorded once, on one row per class,
//!   each representative attending to its canonical list with every
//!   vehicle replaced by its class — same length, same order, nine parked
//!   twins as nine equal entries — so every dot product, softmax sum and
//!   weighted sum adds the dense pass's terms in the dense pass's order,
//!   and `Q[v]` is its class's value: bit for bit what
//!   [`QNetwork::forward`] computes for row `v`. [`DqnAgent::forward_stats`]
//!   counts the rows offered and the rows evaluated.
//!
//! Cost follows the classes, not the fleet: `O(R · NE)` attention on the
//! agent's reusable tape for `R` classes. A [`DqnAgent`] whose tape has
//! seen a joint state with at least as many classes allocates only the
//! snapshot and the Q-vector it hands back. Both TD-target forwards of a
//! replayed transition go the same way and share one partition.
//! **Training differentiates the dense pass**: [`QNetwork::forward`] on
//! all `K` rows is the node `train_step` takes gradients of — on the
//! classes the values would be equal, but a representative's gradient
//! would add its members' contributions in another order. In evaluation
//! mode ([`DqnAgent::set_training`]) nothing is recorded and nothing is
//! learned.

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
pub use qnet::{ForwardStats, QNetwork, QNetworkConfig};
pub use recorder::CapacityRecorder;
pub use replay::ReplayBuffer;
pub use reward::{instant_reward, RewardParams};
pub use schedule::EpsilonSchedule;
pub use state::{StateBuilder, StateSnapshot};
pub use trainer::{train, train_observed, EpisodePoint, TrainObserver, TrainReport, TrainerConfig};
