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

    /// The network on the rows of `x` (`R x 5`), row `r` attending to the
    /// rows `lists` names for it, in that order: an `R x 1` node. This is
    /// the one definition of the network — the dense pass training
    /// differentiates ([`QNetwork::forward`]) and the pass over a joint
    /// state's classes that every forward-only caller runs
    /// ([`QNetwork::q_values`]) both record it. Without the graph pathway
    /// `lists` is not read.
    fn forward_rows<I, J>(&self, g: &mut Graph, store: &ParamStore, x: Var, lists: I) -> Var
    where
        I: IntoIterator<Item = J>,
        I::IntoIter: ExactSizeIterator,
        J: IntoIterator<Item = usize>,
    {
        let h0 = self.initial.forward(g, store, x);
        if !self.config.graph {
            return self.head.forward(g, store, h0);
        }
        let lists = g.neighbor_lists(lists);
        let mut top = h0;
        for attn in &self.attention {
            let out = attn.forward_neighbors(g, store, top, lists);
            top = g.relu(out);
        }
        let head_in = g.concat_cols(&[h0, top]);
        self.head.forward(g, store, head_in)
    }

    /// The dense forward pass on the tape: all `K` rows, a `K x 1` Q-value
    /// node. This is the pass training differentiates; forward-only
    /// callers go through [`QNetwork::q_values`], which records the same
    /// network on one row per class of interchangeable vehicles and reads
    /// the same bits.
    ///
    /// Each vehicle attends to itself and to the *feasible* vehicles among
    /// its `snap.neighbors` (the constraint embedding: infeasible vehicles
    /// take no part in anyone else's inference), through
    /// [`MultiHeadAttention::forward_neighbors`] — `O(K · NE)` work per
    /// level, no `K x K` mask. The neighbour lists may come in any order
    /// and may repeat or include the vehicle itself: the pass runs on their
    /// canonical form, ascending by vehicle index and de-duplicated.
    /// Output rows of infeasible vehicles are meaningless — callers must
    /// mask them.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, snap: &StateSnapshot) -> Var {
        let mut part = Partition::default();
        if self.config.graph {
            part.canonical_lists(snap);
        }
        let x = g.constant(&snap.features);
        let rows = 0..snap.num_vehicles();
        self.forward_rows(g, store, x, rows.map(|v| part.list(v).iter().copied()))
    }

    /// Q-values of one joint state as a plain vector (infeasible entries
    /// set to `f64::NEG_INFINITY`, the paper's "extremely small negative"),
    /// evaluated on a throwaway tape: bit for bit the feasible rows of
    /// [`QNetwork::forward`], computed once per class of interchangeable
    /// vehicles (see the [crate docs](crate#how-an-order-is-scored)).
    pub fn q_values(&self, store: &ParamStore, snap: &StateSnapshot) -> Vec<f64> {
        self.q_values_on(&mut Graph::new(), &mut Partition::default(), store, snap)
    }

    /// [`QNetwork::q_values`] recorded on `tape`, which is cleared first,
    /// with `part` as the partition's scratch: a caller that keeps both
    /// stops allocating once they have seen its largest joint state.
    pub(crate) fn q_values_on(
        &self,
        tape: &mut Graph,
        part: &mut Partition,
        store: &ParamStore,
        snap: &StateSnapshot,
    ) -> Vec<f64> {
        self.partition(part, snap);
        self.q_values_of(tape, part, store, snap)
    }

    /// Splits `snap`'s feasible vehicles into the classes this network
    /// cannot tell apart: equal feature bits, then one refinement round
    /// per attention level by the classes of the vehicles attended to. The
    /// result depends on the snapshot and the architecture only, so
    /// evaluations of one snapshot under different weights share it.
    pub(crate) fn partition(&self, part: &mut Partition, snap: &StateSnapshot) {
        part.group_by_features(snap);
        if self.config.graph {
            part.canonical_lists(snap);
            for _ in 0..self.attention.len() {
                if !part.refine(snap) {
                    break;
                }
            }
        }
    }

    /// Q-values of `snap` under `store`, given `snap`'s partition in
    /// `part`: the network recorded on one representative row per class,
    /// each vehicle reading its class's value.
    pub(crate) fn q_values_of(
        &self,
        tape: &mut Graph,
        part: &mut Partition,
        store: &ParamStore,
        snap: &StateSnapshot,
    ) -> Vec<f64> {
        tape.clear();
        let all = tape.constant(&snap.features);
        let x = tape.gather_rows(all, &part.reps);
        // A representative's canonical list with every vehicle replaced by
        // its class: same length, same order, twins as repeated entries,
        // so each sum over neighbours has the dense pass's terms in the
        // dense pass's order.
        let lists = part.reps.iter().map(|&rep| {
            let list = part.list(rep).iter();
            list.map(|&neighbor| part.class[neighbor])
        });
        let q = self.forward_rows(tape, store, x, lists);
        part.stats.forwards += 1;
        part.stats.rows += snap.num_vehicles() as u64;
        part.stats.feasible += snap.feasible.iter().filter(|&&f| f).count() as u64;
        part.stats.evaluated += part.reps.len() as u64;
        let values = tape.value(q).data();
        snap.feasible
            .iter()
            .zip(&part.class)
            .map(|(&feasible, &class)| {
                if feasible {
                    values[class]
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect()
    }

    /// Q-values of many joint states, one vector per snapshot, in order:
    /// a map of [`QNetwork::q_values`] over `snaps` across `pool`. A
    /// forward costs its snapshot's distinct rows, and classes are a
    /// property of one joint state — rows of different snapshots attend to
    /// different fleets — so stacking states into one pass would share
    /// nothing; there is no limit on how many may be passed.
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

/// Lifetime totals of an agent's forward-only evaluations (action choice
/// and TD targets): how many rows the fleet offered and how many the
/// network was recorded on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForwardStats {
    /// Evaluations of the network on a joint state.
    pub forwards: u64,
    /// Vehicles in those joint states (`K` per forward).
    pub rows: u64,
    /// Of `rows`, the feasible ones — the rows whose Q-value is read.
    pub feasible: u64,
    /// Rows put on the tape: one representative per class.
    pub evaluated: u64,
}

/// Marks an unused slot of [`Partition::slots`].
const EMPTY: usize = usize::MAX;

/// One step of the word-at-a-time hash the grouping table uses. Only its
/// speed matters: equal keys are told by comparing them, and classes are
/// numbered by first member, so no result depends on where a key lands.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(26)
}

/// The partition of a joint state's feasible vehicles into classes with
/// bit-identical Q-values, and the scratch it is computed in (every
/// buffer is reused from call to call).
///
/// Two vehicles share a class when the network cannot tell them apart:
/// their feature rows are equal bit for bit and, attention level by
/// level, their canonical neighbour lists name vehicles of equal classes
/// in equal positions. Row-wise layers map equal rows to equal rows and
/// the attention op sums a row's terms in list order, so by induction
/// over the levels a class's members hold equal representations at every
/// depth — the key leaves out nothing the forward pass reads.
/// Infeasible vehicles are in no class: nobody attends to them and their
/// Q-value is never read.
#[derive(Debug, Default)]
pub(crate) struct Partition {
    /// Canonical neighbour lists of all `K` vehicles, flat: vehicle `v`
    /// attends to `flat[bounds[v]..bounds[v + 1]]` — itself and its
    /// feasible neighbours, ascending, each once.
    bounds: Vec<usize>,
    flat: Vec<usize>,
    /// Class of each vehicle ([`EMPTY`] for the infeasible), classes
    /// numbered by their lowest member.
    class: Vec<usize>,
    /// The previous round's classes, which a refinement round reads.
    prev: Vec<usize>,
    /// Lowest member of each class.
    reps: Vec<usize>,
    /// Open-addressing table of the classes found so far in a round.
    slots: Vec<usize>,
    stats: ForwardStats,
}

impl Partition {
    /// Totals over every [`QNetwork::q_values_of`] this scratch served.
    pub(crate) fn stats(&self) -> ForwardStats {
        self.stats
    }

    /// Vehicle `v`'s canonical neighbour list.
    fn list(&self, v: usize) -> &[usize] {
        &self.flat[self.bounds[v]..self.bounds[v + 1]]
    }

    /// Builds every vehicle's canonical list: itself and the feasible
    /// vehicles among its `snap.neighbors`, ascending by vehicle index,
    /// de-duplicated — the form in which a list is a function of the set
    /// it names.
    fn canonical_lists(&mut self, snap: &StateSnapshot) {
        let k = snap.num_vehicles();
        self.bounds.clear();
        self.flat.clear();
        self.bounds.reserve(k + 1);
        self.flat
            .reserve(k + snap.neighbors.iter().map(Vec::len).sum::<usize>());
        for (v, neighbors) in snap.neighbors.iter().enumerate() {
            let start = self.flat.len();
            self.bounds.push(start);
            self.flat.push(v);
            let feasible = neighbors.iter().copied().filter(|&n| snap.feasible[n]);
            self.flat.extend(feasible);
            self.flat[start..].sort_unstable();
            let mut end = start + 1;
            for at in start + 1..self.flat.len() {
                if self.flat[at] != self.flat[end - 1] {
                    self.flat[end] = self.flat[at];
                    end += 1;
                }
            }
            self.flat.truncate(end);
        }
        self.bounds.push(self.flat.len());
    }

    /// Round zero: feasible vehicles with equal feature bits share a
    /// class (`0.0` and `-0.0`, or two NaNs, are different bits).
    fn group_by_features(&mut self, snap: &StateSnapshot) {
        let k = snap.num_vehicles();
        self.class.clear();
        self.class.resize(k, EMPTY);
        self.slots.clear();
        self.slots.resize((2 * k).next_power_of_two(), EMPTY);
        let bits = |v: usize| snap.features.row(v).iter().map(|x| x.to_bits());
        group(
            &snap.feasible,
            &mut self.slots,
            &mut self.class,
            &mut self.reps,
            |v| bits(v).fold(0, mix),
            |a, b| bits(a).eq(bits(b)),
        );
    }

    /// One refinement round: two vehicles stay together when they were
    /// together and their lists name equal classes in equal positions.
    /// Returns whether any class split; once none does, none ever will.
    fn refine(&mut self, snap: &StateSnapshot) -> bool {
        let before = self.reps.len();
        std::mem::swap(&mut self.class, &mut self.prev);
        self.class.clear();
        self.class.resize(self.prev.len(), EMPTY);
        let (bounds, flat, prev) = (&self.bounds, &self.flat, &self.prev);
        let key = |v: usize| {
            let list = &flat[bounds[v]..bounds[v + 1]];
            std::iter::once(prev[v]).chain(list.iter().map(|&n| prev[n]))
        };
        group(
            &snap.feasible,
            &mut self.slots,
            &mut self.class,
            &mut self.reps,
            |v| key(v).fold(0, |hash, class| mix(hash, class as u64)),
            |a, b| key(a).eq(key(b)),
        );
        self.reps.len() != before
    }
}

/// Groups the feasible vehicles by a key given as its hash and its
/// equality: `class[v]` becomes the number of `v`'s group and `reps` the
/// groups' lowest members, groups numbered in order of first appearance —
/// a function of the keys alone.
fn group(
    feasible: &[bool],
    slots: &mut [usize],
    class: &mut [usize],
    reps: &mut Vec<usize>,
    hash: impl Fn(usize) -> u64,
    same: impl Fn(usize, usize) -> bool,
) {
    let mask = slots.len() - 1;
    slots.fill(EMPTY);
    reps.clear();
    for v in (0..feasible.len()).filter(|&v| feasible[v]) {
        let mut at = hash(v) as usize & mask;
        class[v] = loop {
            match slots[at] {
                EMPTY => {
                    slots[at] = reps.len();
                    reps.push(v);
                    break slots[at];
                }
                found if same(reps[found], v) => break found,
                _ => at = (at + 1) & mask,
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_nn::Tensor;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};

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

    fn graph_net(seed: u64, levels: usize) -> (QNetwork, ParamStore) {
        let mut store = ParamStore::new(seed);
        let config = QNetworkConfig {
            hidden: 8,
            heads: 2,
            levels,
            graph: true,
        };
        (QNetwork::new(&mut store, config), store)
    }

    fn state(
        rows: &[[f64; STATE_DIM]],
        feasible: &[bool],
        neighbors: &[&[usize]],
    ) -> StateSnapshot {
        let rows: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
        StateSnapshot {
            features: Tensor::from_rows(&rows),
            feasible: feasible.to_vec(),
            neighbors: neighbors.iter().map(|n| n.to_vec()).collect(),
        }
    }

    /// Asserts that the partitioned Q-values are the dense forward's, bit
    /// for bit, and returns how many rows each put on the tape.
    fn assert_dense_parity(
        net: &QNetwork,
        store: &ParamStore,
        snap: &StateSnapshot,
    ) -> ForwardStats {
        let mut tape = Graph::new();
        let dense = net.forward(&mut tape, store, snap);
        let dense = tape.value(dense).data().to_vec();
        let mut part = Partition::default();
        let q = net.q_values_on(&mut tape, &mut part, store, snap);
        assert_eq!(q.len(), snap.num_vehicles());
        for (v, (&q, &dense)) in q.iter().zip(&dense).enumerate() {
            if snap.feasible[v] {
                assert_eq!(q.to_bits(), dense.to_bits(), "vehicle {v}: {q} vs {dense}");
            } else {
                assert_eq!(q, f64::NEG_INFINITY, "vehicle {v}");
            }
        }
        part.stats()
    }

    const A: [f64; STATE_DIM] = [0.3, 0.7, 0.1, 0.0, 0.5];
    const B: [f64; STATE_DIM] = [0.9, 1.4, -0.2, 1.0, 0.5];
    const C: [f64; STATE_DIM] = [0.1, 0.2, 0.6, 1.0, 0.5];

    #[test]
    fn canonical_lists_are_sorted_and_deduplicated() {
        // Unsorted, with repeats, with and without the vehicle itself;
        // vehicle 3 is infeasible, so only its own list names it.
        let snap = state(
            &[A; 4],
            &[true, true, true, false],
            &[&[2, 0, 3, 2, 1], &[], &[1, 1, 3], &[0, 0]],
        );
        let mut part = Partition::default();
        part.canonical_lists(&snap);
        let lists: Vec<&[usize]> = (0..4).map(|v| part.list(v)).collect();
        assert_eq!(lists, [&[0, 1, 2][..], &[1], &[1, 2], &[0, 3]]);
    }

    #[test]
    fn twins_share_a_row_and_edge_cases_hold() {
        let (net, store) = graph_net(5, 2);
        // Nine parked twins attending to each other: one row.
        let ring: Vec<Vec<usize>> = (0..9).map(|v| vec![(v + 1) % 9, (v + 4) % 9]).collect();
        let ring: Vec<&[usize]> = ring.iter().map(|l| &l[..]).collect();
        let stats = assert_dense_parity(&net, &store, &state(&[A; 9], &[true; 9], &ring));
        assert_eq!((stats.rows, stats.feasible, stats.evaluated), (9, 9, 1));
        // K = 1.
        let stats = assert_dense_parity(&net, &store, &state(&[B], &[true], &[&[0]]));
        assert_eq!((stats.rows, stats.feasible, stats.evaluated), (1, 1, 1));
        // Nobody feasible: nothing is evaluated.
        let stats = assert_dense_parity(&net, &store, &state(&[A, B], &[false; 2], &[&[1], &[0]]));
        assert_eq!(
            stats,
            ForwardStats {
                forwards: 1,
                rows: 2,
                feasible: 0,
                evaluated: 0
            }
        );
        // Every row distinct: every feasible row is evaluated.
        let stats = assert_dense_parity(&net, &store, &snapshot(7, vec![true; 7]));
        assert_eq!((stats.feasible, stats.evaluated), (7, 7));
    }

    /// Equal features, but vehicle 1 attends to one feasible vehicle more.
    #[test]
    fn key_holds_the_neighbour_list() {
        let (net, store) = graph_net(6, 1);
        let snap = state(&[A, A, B, C], &[true; 4], &[&[2], &[2, 3], &[], &[]]);
        let stats = assert_dense_parity(&net, &store, &snap);
        assert_eq!(stats.evaluated, 4);
    }

    /// Vehicles 1 and 3 have equal features and attend to the same
    /// multiset of classes — themselves, a `B` and a `C` — but by vehicle
    /// index vehicle 1 meets them as `B, self, C` and vehicle 3 as
    /// `C, self, B`: different summation orders, different classes.
    #[test]
    fn key_holds_the_order_of_the_neighbours() {
        let (net, store) = graph_net(7, 1);
        let snap = state(
            &[B, A, C, A, B],
            &[true; 5],
            &[&[], &[0, 2], &[], &[2, 4], &[]],
        );
        let stats = assert_dense_parity(&net, &store, &snap);
        assert_eq!(stats.evaluated, 4);
    }

    /// The second attention level reads what the first made of the
    /// neighbours: vehicles 0 and 1 agree on features and on their
    /// neighbours' features, but vehicle 1's neighbour has a neighbour.
    #[test]
    fn key_is_refined_once_per_level() {
        let snap = state(&[A, A, B, B, C], &[true; 5], &[&[2], &[3], &[], &[4], &[]]);
        let (net, store) = graph_net(8, 2);
        assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 5);
        // One level never looks that far.
        let (net, store) = graph_net(8, 1);
        assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 4);
    }

    #[test]
    fn key_holds_every_feature_bit() {
        let (net, store) = graph_net(9, 1);
        // Only the `used` flag differs.
        let mut used = A;
        used[3] = 1.0;
        let snap = state(&[A, used], &[true; 2], &[&[], &[]]);
        assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 2);
        // Only the sign of a zero differs.
        let mut negative = A;
        negative[3] = -0.0;
        let snap = state(&[A, negative], &[true; 2], &[&[], &[]]);
        assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 2);
    }

    /// Vehicles 0 and 1 are twins although vehicle 1 lists the infeasible
    /// vehicle 2: it takes no part in anyone's inference.
    #[test]
    fn infeasible_neighbour_changes_no_class() {
        let (net, store) = graph_net(10, 2);
        let snap = state(
            &[A, A, B, C],
            &[true, true, false, true],
            &[&[3], &[3, 2], &[0], &[]],
        );
        let stats = assert_dense_parity(&net, &store, &snap);
        assert_eq!((stats.feasible, stats.evaluated), (3, 2));
    }

    /// The ablations without the graph pathway group by features alone,
    /// whatever the neighbour lists say.
    #[test]
    fn plain_network_groups_by_features() {
        let mut store = ParamStore::new(11);
        let config = QNetworkConfig {
            graph: false,
            ..QNetworkConfig::default()
        };
        let net = QNetwork::new(&mut store, config);
        let snap = state(&[A, A, B, A], &[true; 4], &[&[2], &[3], &[], &[0, 1, 2]]);
        assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 2);
    }

    /// A random fleet drawn from few prototypes, so that twins are
    /// common: 1–64 vehicles over 1–6 feature rows and 1–4 neighbour
    /// lists (unsorted, with repeats, 0–12 entries against an `NE` of 8,
    /// sometimes naming the vehicle itself), about one vehicle in ten
    /// infeasible.
    fn random_fleet(rng: &mut StdRng) -> StateSnapshot {
        let k = rng.random_range(1..=64usize);
        let rows: Vec<[f64; STATE_DIM]> = (0..rng.random_range(1..=6usize))
            .map(|_| std::array::from_fn(|_| rng.random_range(0..=16usize) as f64 / 4.0 - 2.0))
            .collect();
        let lists: Vec<Vec<usize>> = (0..rng.random_range(1..=4usize))
            .map(|_| {
                let len = rng.random_range(0..=12usize);
                (0..len).map(|_| rng.random_range(0..k)).collect()
            })
            .collect();
        let mut features = Vec::with_capacity(k * STATE_DIM);
        let mut neighbors = Vec::with_capacity(k);
        for v in 0..k {
            features.extend(rows[rng.random_range(0..rows.len())]);
            let mut list = lists[rng.random_range(0..lists.len())].clone();
            if rng.random_range(0..4usize) == 0 {
                list.insert(rng.random_range(0..=list.len()), v);
            }
            neighbors.push(list);
        }
        StateSnapshot {
            features: Tensor::from_vec(k, STATE_DIM, features),
            feasible: (0..k).map(|_| rng.random_range(0..10usize) != 0).collect(),
            neighbors,
        }
    }

    /// Rows the partition spared over all cases of the property below.
    static SPARED: AtomicU64 = AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Run by `partitioned_forward_is_the_dense_forward_on_random_fleets`.
        fn random_fleet_case(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let heads = rng.random_range(1..=4usize);
            let config = QNetworkConfig {
                hidden: 12,
                heads,
                levels: rng.random_range(0..=3usize),
                graph: rng.random_range(0..4usize) != 0,
            };
            let mut store = ParamStore::new(seed);
            let net = QNetwork::new(&mut store, config);
            let snap = random_fleet(&mut rng);

            let mut tape = Graph::new();
            let dense = net.forward(&mut tape, &store, &snap);
            let dense = tape.value(dense).data().to_vec();
            let mut part = Partition::default();
            let q = net.q_values_on(&mut tape, &mut part, &store, &snap);
            for v in 0..snap.num_vehicles() {
                let want = if snap.feasible[v] { dense[v] } else { f64::NEG_INFINITY };
                prop_assert!(
                    q[v].to_bits() == want.to_bits(),
                    "seed {seed}, {config:?}, vehicle {v}: {} != {want}\n{snap:?}",
                    q[v]
                );
            }
            let stats = part.stats();
            prop_assert!(stats.evaluated <= stats.feasible, "seed {seed}: {stats:?}");
            SPARED.fetch_add(stats.feasible - stats.evaluated, Ordering::Relaxed);
        }
    }

    #[test]
    fn partitioned_forward_is_the_dense_forward_on_random_fleets() {
        random_fleet_case();
        // Non-vacuous: the fleets had twins, and the partition found them.
        let spared = SPARED.load(Ordering::Relaxed);
        assert!(spared > 1000, "only {spared} rows spared over 300 fleets");
    }
}
