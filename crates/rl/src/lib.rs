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
//! snapshot, one partition and one forward over the partition's classes
//! — the `Snapshot`, `Partition` and `Forward` stages of a profiled
//! epoch ([`dpdp_sim::Stage`]), which the agent charges through the
//! context's [`StageTimer`](dpdp_sim::StageTimer):
//!
//! * **The snapshot.** [`StateBuilder::build`] writes the joint state — a
//!   `K x 5` feature matrix, the feasibility mask, and each vehicle's `NE`
//!   nearest vehicles. The context holds one plan per column of the
//!   batch's plan matrix (an idle-twin group is one column), so the route
//!   lengths and the ST Score are computed once per column and copied to
//!   its members, each of which writes its own used flag ([`state`]). The
//!   neighbour table is kept per occupied node, not per vehicle: a node's
//!   ranking of the fleet once, and per vehicle its node and whether it is
//!   on that ranking — every vehicle's list is one of two lists of its
//!   node ([`Neighbors`]).
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
//!   is `-inf` whatever the network says. The canonical lists follow the
//!   neighbour table: at most two per node, built once, each vehicle
//!   reading one of them with itself appended or not. So a refinement
//!   round hashes each list's class sequence once and each vehicle in
//!   `O(1)` — that hash mixed with the vehicle's own class — and a vehicle
//!   that reads the list of its class's representative is told apart by
//!   its own class alone. Round zero, the feature bits, stays per vehicle.
//! * **The forward.** The network is recorded once, on one row per class
//!   — only the representatives' feature rows go on the tape —
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
//! snapshot and the Q-vector it hands back. In evaluation mode
//! ([`DqnAgent::set_training`]) nothing is recorded and nothing is
//! learned.
//!
//! # How a transition is learned from
//!
//! Algorithm 3's loss reads one entry of the network's output per replayed
//! transition, `Q(s, a)`, against a TD target.
//!
//! * **The field.** The value of vehicle `a` is a function of `a` and the
//!   vehicles it attends to, two attention levels deep: with
//!   `need[L] = {a}` and `need[l-1] = need[l] ∪ lists(need[l])` over the
//!   canonical neighbour lists, `Q(s, a)` reads the level-`l`
//!   representation of the rows `need[l]` and of no other. `train_step`
//!   records [`QNetwork::forward`] on exactly those rows — the embedding
//!   on `need[0]`, each level's queries and output layer on `need[l]` with
//!   keys and values on `need[l-1]`, the head on `a` — on the agent's tape
//!   and partition scratch, so a sample costs its receptive field, not
//!   `K`. There is no dense training path beside it: a fleet whose field
//!   is the whole fleet simply records every row.
//!   [`DqnAgent::train_stats`] counts the rows replayed joint states held
//!   and the rows embedded.
//! * **Its gradient is the dense gradient, bit for bit.** In the dense
//!   pass the rows outside the field receive an upstream gradient of
//!   exactly zero. Every gradient accumulator on the tape starts at `+0.0`
//!   and only adds, so it is never `-0.0`, and adding the `±0.0` terms of
//!   those rows — or leaving them out — changes none of its bits. What is
//!   left are the field's terms, and they arrive in the dense order: every
//!   `need[l]` is ascending, so each `Xᵀ·dY`, bias sum and per-key
//!   accumulation visits the kept rows in the dense pass's order, and the
//!   row gathers are recorded where each node with several consumers (a
//!   level's input: its `q`, `k`, `v` products; the embedding: the first
//!   level and the head) still collects their contributions in the dense
//!   order. Three training episodes leave the weights and losses of the
//!   dense pass (`tests/forward_parity.rs`), and a property holds the two
//!   to each other on random fleets for every action.
//! * **The target.** Both TD-target forwards of a replayed transition run
//!   on the successor's classes and share one partition. Choosing `a*`
//!   needs every class under the online network; its value under the
//!   target network (DDQN) is then asked for the one class of `a*`, on
//!   that class's field *in class space*.
//! * **Classes are not trained on.** On the classes the values would be
//!   equal, but a representative stands for several rows of the dense
//!   pass, and its gradient adds its members' contributions in another
//!   order than the dense pass adds them: equal up to rounding, not bit
//!   for bit, and training would drift from the reference. The two
//!   reductions are different observations — classes say many rows are
//!   *equal*, which forward values can use; the field says most rows are
//!   *unread*, which gradients can use too.

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
pub use adjacency::{nearest_neighbors, Neighbors};
pub use agent::{AgentConfig, DqnAgent, ModelKind};
pub use qnet::{ForwardStats, QNetwork, QNetworkConfig, TrainStats};
pub use recorder::CapacityRecorder;
pub use replay::ReplayBuffer;
pub use reward::{instant_reward, RewardParams};
pub use schedule::EpsilonSchedule;
pub use state::{StateBuilder, StateSnapshot};
pub use trainer::{train, train_observed, EpisodePoint, TrainObserver, TrainReport, TrainerConfig};
