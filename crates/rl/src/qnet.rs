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
pub(crate) use partition::Partition;
use partition::{list_of, Field};
use std::sync::Arc;

mod partition;

/// Q-network architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
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

    /// The network on the rows `want` of `x` (`R x 5`; `None` wants every
    /// row), row `r` attending to the rows `lists(r)` names, in that
    /// order: a node with one Q-value per wanted row. This is the one
    /// definition of the network — the dense pass ([`QNetwork::forward`]),
    /// the pass over a joint state's classes that every forward-only
    /// caller runs ([`QNetwork::q_values`]) and the pass a replayed
    /// transition is learned from all record it.
    ///
    /// Only the wanted rows' receptive field is recorded: with
    /// `need[L] = want` at the top level and
    /// `need[l-1] = need[l] ∪ lists(need[l])` below it (kept in `field`,
    /// each ascending), the embedding runs on `need[0]`, level `l` takes
    /// its queries and its output layer on `need[l]` with keys and values
    /// on `need[l-1]`, and the head runs on `want`. A level that reads
    /// every row of the one below records no gather, so a pass that wants
    /// every row is the plain network, node for node. The row gathers sit
    /// where each node with several consumers still collects their
    /// gradients in the dense pass's order: a level's query gather before
    /// its `q`, `k`, `v` products, the head's gather of the embedding after
    /// the last level. Without the graph pathway `lists` is not read.
    fn forward_rows<J: IntoIterator<Item = usize>>(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        field: &mut Field,
        x: Var,
        lists: impl Fn(usize) -> J,
        want: Option<&[usize]>,
    ) -> Var {
        let rows = g.value(x).rows();
        field.derive(self.attention.len(), rows, want, &lists);
        let Field { need, picks } = field;
        let embedded = &need[0];
        let x = if embedded.len() == rows {
            x
        } else {
            g.gather_rows(x, embedded)
        };
        let h0 = self.initial.forward(g, store, x);
        if !self.config.graph {
            return self.head.forward(g, store, h0);
        }
        let mut top = h0;
        for (attn, level) in self.attention.iter().zip(need.windows(2)) {
            let (keys, queries) = (&level[0], &level[1]);
            let at = |row: usize| position(keys, rows, row);
            let query = rows_among(g, picks, top, keys, queries, rows);
            let local = queries.iter().map(|&row| lists(row).into_iter().map(at));
            let local = g.neighbor_lists_over(keys.len(), local);
            let out = attn.forward_neighbors(g, store, query, top, local);
            top = g.relu(out);
        }
        let h0 = rows_among(g, picks, h0, embedded, &need[need.len() - 1], rows);
        let head_in = g.concat_cols(&[h0, top]);
        self.head.forward(g, store, head_in)
    }

    /// The dense forward pass on the tape: all `K` rows, a `K x 1` Q-value
    /// node. This is the reference: forward-only callers go through
    /// [`QNetwork::q_values`], which records the same network on one row
    /// per class of interchangeable vehicles and reads the same bits, and
    /// training records it on the rows its one Q-value reads and leaves
    /// the same gradients (see the
    /// [crate docs](crate#how-a-transition-is-learned-from)).
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
        self.forward_on(g, &mut Partition::default(), store, snap, None)
    }

    /// [`QNetwork::forward`] on the vehicles `want` (ascending; `None`
    /// wants all `K`), recorded after what `g` already holds, with `part`
    /// as the scratch: one Q-value per wanted vehicle, values and
    /// gradients bit for bit the dense pass's.
    pub(crate) fn forward_on(
        &self,
        g: &mut Graph,
        part: &mut Partition,
        store: &ParamStore,
        snap: &StateSnapshot,
        want: Option<&[usize]>,
    ) -> Var {
        if self.config.graph {
            part.canonical_lists(snap);
        }
        let x = g.constant(&snap.features);
        let Partition {
            bounds,
            flat,
            field,
            ..
        } = part;
        let list = |v: usize| list_of(bounds, flat, v).iter().copied();
        self.forward_rows(g, store, field, x, list, want)
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
        let q = self.forward_classes(tape, part, store, snap, None);
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

    /// The network under `store` on the classes `want` of `snap`'s
    /// partition in `part` (ascending; `None` wants every class), recorded
    /// on `tape`, which is cleared first: one Q-value per wanted class —
    /// the value of each of its members — from one representative row per
    /// class in the wanted ones' receptive field.
    pub(crate) fn forward_classes(
        &self,
        tape: &mut Graph,
        part: &mut Partition,
        store: &ParamStore,
        snap: &StateSnapshot,
        want: Option<&[usize]>,
    ) -> Var {
        tape.clear();
        let all = tape.constant(&snap.features);
        let x = tape.gather_rows(all, &part.reps);
        let Partition {
            bounds,
            flat,
            class,
            reps,
            field,
            stats,
            ..
        } = part;
        // A representative's canonical list with every vehicle replaced by
        // its class: same length, same order, twins as repeated entries,
        // so each sum over neighbours has the dense pass's terms in the
        // dense pass's order.
        let list = |c: usize| {
            let list = list_of(bounds, flat, reps[c]).iter();
            list.map(|&neighbor| class[neighbor])
        };
        let q = self.forward_rows(tape, store, field, x, list, want);
        stats.forwards += 1;
        stats.rows += snap.num_vehicles() as u64;
        stats.feasible += snap.feasible.iter().filter(|&&f| f).count() as u64;
        stats.evaluated += field.need[0].len() as u64;
        q
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
    first_max(q.iter().copied().enumerate().filter(|&(i, _)| feasible[i]))
}

/// Index of the first entry holding the highest value, if any. Over the
/// values of a pass on every class this is the class of the vehicle
/// [`best_feasible`] picks from the Q-vector: classes are numbered by
/// their lowest member.
pub(crate) fn first_max(values: impl IntoIterator<Item = (usize, f64)>) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in values {
        if best.is_none_or(|(_, b)| v > b) {
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
    /// Rows put on the tape: one representative per class the pass reads
    /// — every class, or the field of the one class a target value is
    /// asked of.
    pub evaluated: u64,
}

/// Lifetime totals of an agent's training passes: how many rows the
/// replayed joint states held and how many the network was recorded on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainStats {
    /// Replayed transitions a gradient was taken of.
    pub samples: u64,
    /// Vehicles in their joint states (`K` per sample).
    pub rows: u64,
    /// Of `rows`, the ones embedded: the receptive field of `Q(s, a)`.
    pub field_rows: u64,
}

/// Where `row` sits in `set`, an ascending set of some of `rows` rows that
/// holds it.
fn position(set: &[usize], rows: usize, row: usize) -> usize {
    if set.len() == rows {
        return row;
    }
    set.binary_search(&row)
        .expect("a level's set holds every row the level above reads")
}

/// The rows `some` of `x`, which holds the rows `held` (`some` among them):
/// `x` itself when that is all of them, a gather — its indices written in
/// `picks` — otherwise.
fn rows_among(
    g: &mut Graph,
    picks: &mut Vec<usize>,
    x: Var,
    held: &[usize],
    some: &[usize],
    rows: usize,
) -> Var {
    if some.len() == held.len() {
        return x;
    }
    picks.clear();
    picks.extend(some.iter().map(|&row| position(held, rows, row)));
    g.gather_rows(x, picks)
}

#[cfg(test)]
mod tests;
