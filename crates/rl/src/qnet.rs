//! The relational Q-network of the paper (Fig. 4 / Fig. 5).
//!
//! Per vehicle: an initial MLP embeds the 5-feature state; stacked
//! *neighbourhood attention* blocks let each vehicle integrate its `NE`
//! nearest (feasible) vehicles' representations via multi-head scaled
//! dot-product attention; finally the initial and top-level representations
//! are concatenated and mapped to a scalar Q-value. All vehicles share
//! weights ("each vehicle owns its network but shares the same weights").

use crate::state::{StateSnapshot, STATE_DIM};
use dpdp_nn::{Graph, Mlp, MultiHeadAttention, ParamStore, Var};
use dpdp_pool::ThreadPool;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Q-network architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QNetworkConfig {
    /// Embedding width of the per-vehicle representation.
    pub hidden: usize,
    /// Attention heads per neighbourhood block.
    pub heads: usize,
    /// Number of stacked neighbourhood-attention blocks (the paper uses 2).
    pub levels: usize,
    /// Whether the graph (attention) pathway is enabled; `false` gives the
    /// plain DQN/DDQN ablations.
    pub graph: bool,
}

impl Default for QNetworkConfig {
    fn default() -> Self {
        QNetworkConfig {
            hidden: 32,
            heads: 4,
            levels: 2,
            graph: true,
        }
    }
}

/// The Q-network: maps a joint state (`K x 5`) to per-vehicle Q-values
/// (`K x 1`).
#[derive(Debug, Clone)]
pub struct QNetwork {
    config: QNetworkConfig,
    initial: Mlp,
    attention: Vec<MultiHeadAttention>,
    head: Mlp,
}

impl QNetwork {
    /// Registers all parameters in `store`.
    pub fn new(store: &mut ParamStore, config: QNetworkConfig) -> Self {
        let initial = Mlp::new(store, &[STATE_DIM, config.hidden, config.hidden]);
        let attention = if config.graph {
            (0..config.levels)
                .map(|_| MultiHeadAttention::new(store, config.hidden, config.heads))
                .collect()
        } else {
            Vec::new()
        };
        let head_in = if config.graph {
            2 * config.hidden
        } else {
            config.hidden
        };
        let head = Mlp::new(store, &[head_in, config.hidden, 1]);
        QNetwork {
            config,
            initial,
            attention,
            head,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> QNetworkConfig {
        self.config
    }

    /// Forward pass on the tape: returns a `K x 1` Q-value node. This is
    /// the one definition of the network — training, target evaluation and
    /// inference all record it.
    ///
    /// Each vehicle attends to itself and to the *feasible* vehicles among
    /// its `snap.neighbors` (the constraint embedding: infeasible vehicles
    /// take no part in anyone else's inference), through
    /// [`MultiHeadAttention::forward_neighbors`] — `O(K · NE)` work per
    /// level, no `K x K` mask. The neighbour lists may come in any order
    /// and may repeat or include the vehicle itself. Output rows of
    /// infeasible vehicles are meaningless — callers must mask them.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, snap: &StateSnapshot) -> Var {
        let x = g.constant(&snap.features);
        let h0 = self.initial.forward(g, store, x);
        if !self.config.graph {
            return self.head.forward(g, store, h0);
        }
        let lists = g.neighbor_lists((0..snap.num_vehicles()).map(|v| {
            let others = snap.neighbors[v].iter().copied();
            std::iter::once(v).chain(others.filter(|&n| snap.feasible[n]))
        }));
        let mut top = h0;
        for attn in &self.attention {
            let out = attn.forward_neighbors(g, store, top, lists);
            top = g.relu(out);
        }
        let head_in = g.concat_cols(&[h0, top]);
        self.head.forward(g, store, head_in)
    }

    /// Q-values of one joint state as a plain vector (infeasible entries
    /// set to `f64::NEG_INFINITY`, the paper's "extremely small negative"),
    /// evaluated on a throwaway tape.
    pub fn q_values(&self, store: &ParamStore, snap: &StateSnapshot) -> Vec<f64> {
        self.q_values_on(&mut Graph::new(), store, snap)
    }

    /// [`QNetwork::q_values`] recorded on `tape`, which is cleared first:
    /// a caller that keeps its tape stops allocating after the first call.
    pub(crate) fn q_values_on(
        &self,
        tape: &mut Graph,
        store: &ParamStore,
        snap: &StateSnapshot,
    ) -> Vec<f64> {
        tape.clear();
        let q = self.forward(tape, store, snap);
        let values = tape.value(q).data();
        snap.feasible
            .iter()
            .zip(values)
            .map(|(&feasible, &q)| if feasible { q } else { f64::NEG_INFINITY })
            .collect()
    }

    /// Q-values of many joint states, one vector per snapshot, in order:
    /// a map of [`QNetwork::q_values`] over `snaps` across `pool`. The
    /// forward is linear in `K`, so there is nothing to gain from stacking
    /// states into one pass, and no limit on how many may be passed.
    pub fn q_values_batch(
        &self,
        store: &ParamStore,
        snaps: &[StateSnapshot],
        pool: &Arc<ThreadPool>,
    ) -> Vec<Vec<f64>> {
        pool.par_map(snaps.len(), |i| self.q_values(store, &snaps[i]))
    }

    /// Index of the feasible vehicle with the highest Q-value, if any.
    pub fn greedy_action(&self, store: &ParamStore, snap: &StateSnapshot) -> Option<usize> {
        best_feasible(&self.q_values(store, snap), &snap.feasible)
    }
}

/// Index of the first feasible entry holding the highest value, if any.
pub(crate) fn best_feasible(q: &[f64], feasible: &[bool]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in q.iter().enumerate() {
        if feasible[i] && best.is_none_or(|(_, b)| v > b) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_nn::Tensor;

    fn snapshot(k: usize, feasible: Vec<bool>) -> StateSnapshot {
        let features = Tensor::from_vec(
            k,
            STATE_DIM,
            (0..k * STATE_DIM)
                .map(|i| (i as f64 * 0.13).sin())
                .collect(),
        );
        let neighbors = (0..k)
            .map(|i| (0..k).filter(|&j| j != i).take(3).collect())
            .collect();
        StateSnapshot {
            features,
            feasible,
            neighbors,
        }
    }

    #[test]
    fn forward_shapes_with_and_without_graph() {
        for graph in [true, false] {
            let mut store = ParamStore::new(0);
            let net = QNetwork::new(
                &mut store,
                QNetworkConfig {
                    hidden: 8,
                    heads: 2,
                    levels: 2,
                    graph,
                },
            );
            let snap = snapshot(4, vec![true; 4]);
            let mut g = Graph::new();
            let q = net.forward(&mut g, &store, &snap);
            assert_eq!(g.value(q).shape(), (4, 1));
        }
    }

    #[test]
    fn infeasible_vehicles_masked_in_q_values() {
        let mut store = ParamStore::new(1);
        let net = QNetwork::new(&mut store, QNetworkConfig::default());
        let snap = snapshot(3, vec![true, false, true]);
        let q = net.q_values(&store, &snap);
        assert_eq!(q.len(), 3);
        assert_eq!(q[1], f64::NEG_INFINITY);
        assert!(q[0].is_finite() && q[2].is_finite());
        let a = net.greedy_action(&store, &snap).unwrap();
        assert_ne!(a, 1);
    }

    #[test]
    fn no_feasible_vehicle_yields_no_action() {
        let mut store = ParamStore::new(2);
        let net = QNetwork::new(&mut store, QNetworkConfig::default());
        let snap = snapshot(2, vec![false, false]);
        assert_eq!(net.greedy_action(&store, &snap), None);
    }

    #[test]
    fn gradients_flow_through_both_pathways() {
        let mut store = ParamStore::new(3);
        let net = QNetwork::new(
            &mut store,
            QNetworkConfig {
                hidden: 8,
                heads: 2,
                levels: 1,
                graph: true,
            },
        );
        let snap = snapshot(3, vec![true; 3]);
        let mut g = Graph::new();
        let q = net.forward(&mut g, &store, &snap);
        let loss = g.sum_all(q);
        g.backward(loss, &mut store);
        let live = (0..store.len())
            .filter(|&i| store.grad(dpdp_nn::ParamId(i)).norm() > 0.0)
            .count();
        assert!(
            live as f64 >= store.len() as f64 * 0.8,
            "only {live}/{} params received gradient",
            store.len()
        );
    }

    #[test]
    fn attention_context_excludes_infeasible_neighbors() {
        // Changing an infeasible neighbour's features must not change a
        // feasible vehicle's Q-value.
        let mut store = ParamStore::new(4);
        let net = QNetwork::new(
            &mut store,
            QNetworkConfig {
                hidden: 8,
                heads: 2,
                levels: 1,
                graph: true,
            },
        );
        let mut snap = snapshot(3, vec![true, false, true]);
        let q1 = net.q_values(&store, &snap);
        // Perturb the infeasible vehicle's features wildly.
        for c in 0..STATE_DIM {
            *snap.features.get_mut(1, c) = 1000.0;
        }
        let q2 = net.q_values(&store, &snap);
        assert!((q1[0] - q2[0]).abs() < 1e-9, "{} vs {}", q1[0], q2[0]);
        assert!((q1[2] - q2[2]).abs() < 1e-9);
    }
}
