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

/// The receptive field of a pass's wanted rows, and the scratch its row
/// gathers are written in.
#[derive(Debug, Default)]
struct Field {
    /// `need[l]`: the rows whose level-`l` representation the wanted rows
    /// read, ascending — `need[0]` is embedded, the last set is wanted.
    need: Vec<Vec<usize>>,
    picks: Vec<usize>,
}

impl Field {
    /// Derives `need` for `want` (ascending; `None` wants all `rows` rows)
    /// under `levels` attention levels: a level reads, of the one below,
    /// its own rows and the rows their lists name.
    fn derive<J: IntoIterator<Item = usize>>(
        &mut self,
        levels: usize,
        rows: usize,
        want: Option<&[usize]>,
        lists: impl Fn(usize) -> J,
    ) {
        self.need.resize_with(levels + 1, Vec::new);
        let wanted = &mut self.need[levels];
        wanted.clear();
        match want {
            Some(want) => {
                assert!(want.is_sorted_by(|a, b| a < b), "wanted rows ascend");
                wanted.extend_from_slice(want);
            }
            None => wanted.extend(0..rows),
        }
        for level in (0..levels).rev() {
            let (below, above) = self.need.split_at_mut(level + 1);
            let (below, above) = (&mut below[level], &above[0]);
            below.clone_from(above);
            // Every row reads every row below it at most.
            if above.len() < rows {
                below.extend(above.iter().flat_map(|&row| lists(row)));
                below.sort_unstable();
                below.dedup();
            }
        }
    }
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
    /// The receptive field of the last pass recorded through this scratch.
    field: Field,
    stats: ForwardStats,
}

impl Partition {
    /// Totals over every [`QNetwork::forward_classes`] this scratch served.
    pub(crate) fn stats(&self) -> ForwardStats {
        self.stats
    }

    /// Rows the last pass through this scratch embedded.
    pub(crate) fn field_rows(&self) -> usize {
        self.field.need[0].len()
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
            let list = list_of(bounds, flat, v).iter();
            std::iter::once(prev[v]).chain(list.map(|&n| prev[n]))
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

/// Vehicle `v`'s canonical neighbour list in [`Partition`]'s flat layout.
fn list_of<'a>(bounds: &[usize], flat: &'a [usize], v: usize) -> &'a [usize] {
    &flat[bounds[v]..bounds[v + 1]]
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
        let lists: Vec<&[usize]> = (0..4)
            .map(|v| list_of(&part.bounds, &part.flat, v))
            .collect();
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

    /// The loss bits and every parameter's gradient bits after one
    /// training-shaped backward from the `1 x 1` node `record` leaves.
    fn loss_and_gradients(
        store: &ParamStore,
        record: impl FnOnce(&mut Graph, &ParamStore) -> Var,
    ) -> (u64, Vec<Vec<u64>>) {
        let mut store = store.clone();
        let mut g = Graph::new();
        let q_sa = record(&mut g, &store);
        let target = g.constant_scalar(0.25);
        let err = g.mse(q_sa, target);
        let loss = g.scale(err, 1.0 / 8.0);
        g.backward(loss, &mut store);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect();
        let grads = (0..store.len()).map(|i| bits(store.grad(dpdp_nn::ParamId(i))));
        (g.value(loss).item().to_bits(), grads.collect())
    }

    /// `Q(s, a)` recorded on `a`'s receptive field leaves the loss and the
    /// gradients of the dense pass, bit for bit, for every feasible `a`.
    /// Returns the rows embedded, summed over the actions.
    fn assert_gradient_parity(
        net: &QNetwork,
        store: &ParamStore,
        snap: &StateSnapshot,
        case: &str,
    ) -> usize {
        let mut part = Partition::default();
        let mut embedded = 0;
        for a in (0..snap.num_vehicles()).filter(|&a| snap.feasible[a]) {
            let dense = loss_and_gradients(store, |g, store| {
                let q_all = net.forward(g, store, snap);
                g.gather_rows(q_all, &[a])
            });
            let field = loss_and_gradients(store, |g, store| {
                net.forward_on(g, &mut part, store, snap, Some(&[a]))
            });
            assert!(dense.0 == field.0, "{case}, action {a}: loss\n{snap:?}");
            for (id, (dense, field)) in dense.1.iter().zip(&field.1).enumerate() {
                assert!(
                    dense == field,
                    "{case}, action {a}: parameter {id}\n{snap:?}"
                );
            }
            assert!(
                dense.1.iter().flatten().any(|&g| g != 0),
                "{case}: no gradient"
            );
            embedded += part.field_rows();
        }
        embedded
    }

    /// Graph pathway off, and on at zero to three levels.
    fn shapes(seed: u64, heads: usize) -> Vec<(QNetwork, ParamStore)> {
        let config = |graph, levels| QNetworkConfig {
            hidden: 12,
            heads,
            levels,
            graph,
        };
        let configs = std::iter::once(config(false, 2)).chain((0..=3).map(|l| config(true, l)));
        configs
            .map(|config| {
                let mut store = ParamStore::new(seed);
                (QNetwork::new(&mut store, config), store)
            })
            .collect()
    }

    #[test]
    fn field_gradients_are_the_dense_gradients_on_edge_cases() {
        // Infeasible neighbours, self-listed and repeated ones, unsorted.
        let messy = state(
            &[A, B, C, A, B, C],
            &[true, true, false, true, true, true],
            &[&[2, 0, 1, 1], &[2, 3, 3], &[0], &[4, 4, 3], &[0], &[]],
        );
        // A chain: vehicle 0 reads the whole fleet at two levels or more.
        let chain = state(&[A, B, C], &[true; 3], &[&[1], &[2], &[]]);
        let alone = state(&[B], &[true], &[&[]]);
        for (net, store) in &shapes(21, 2) {
            let case = format!("{:?}", net.config());
            assert_gradient_parity(net, store, &messy, &case);
            assert_gradient_parity(net, store, &alone, &case);
            assert_gradient_parity(net, store, &chain, &case);
            let mut part = Partition::default();
            net.forward_on(&mut Graph::new(), &mut part, store, &chain, Some(&[0]));
            let reach = match net.config() {
                QNetworkConfig { graph: false, .. } => 1,
                QNetworkConfig { levels, .. } => (levels + 1).min(3),
            };
            assert_eq!(part.field_rows(), reach, "{case}");
        }
    }

    /// Rows the fleets of the property below held and rows their fields
    /// embedded, summed over every action.
    static OFFERED: AtomicU64 = AtomicU64::new(0);
    static EMBEDDED: AtomicU64 = AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Run by `field_gradients_are_the_dense_gradients_on_random_fleets`.
        fn random_field_case(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let heads = rng.random_range(1..=4usize);
            let snap = random_fleet(&mut rng);
            let actions = snap.feasible.iter().filter(|&&f| f).count();
            for (net, store) in &shapes(seed, heads) {
                let case = format!("seed {seed}, {:?}", net.config());
                let embedded = assert_gradient_parity(net, store, &snap, &case);
                OFFERED.fetch_add((actions * snap.num_vehicles()) as u64, Ordering::Relaxed);
                EMBEDDED.fetch_add(embedded as u64, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn field_gradients_are_the_dense_gradients_on_random_fleets() {
        random_field_case();
        // Non-vacuous: most passes were recorded on a part of the fleet.
        let (offered, embedded) = (
            OFFERED.load(Ordering::Relaxed),
            EMBEDDED.load(Ordering::Relaxed),
        );
        assert!(
            2 * embedded < offered,
            "{embedded} of {offered} rows embedded"
        );
    }

    #[test]
    fn partitioned_forward_is_the_dense_forward_on_random_fleets() {
        random_fleet_case();
        // Non-vacuous: the fleets had twins, and the partition found them.
        let spared = SPARED.load(Ordering::Relaxed);
        assert!(spared > 1000, "only {spared} rows spared over 300 fleets");
    }
}
