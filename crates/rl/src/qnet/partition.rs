//! The partition of a joint state's feasible vehicles into the classes the
//! Q-network cannot tell apart, and the receptive field a pass is recorded
//! on.

use super::ForwardStats;
use crate::state::StateSnapshot;

/// The receptive field of a pass's wanted rows, and the scratch its row
/// gathers are written in.
#[derive(Debug, Default)]
pub(super) struct Field {
    /// `need[l]`: the rows whose level-`l` representation the wanted rows
    /// read, ascending — `need[0]` is embedded, the last set is wanted.
    pub(super) need: Vec<Vec<usize>>,
    pub(super) picks: Vec<usize>,
}

impl Field {
    /// Derives `need` for `want` (ascending; `None` wants all `rows` rows)
    /// under `levels` attention levels: a level reads, of the one below,
    /// its own rows and the rows their lists name.
    pub(super) fn derive<J: IntoIterator<Item = usize>>(
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

/// Marks a vehicle that is on its own canonical list
/// ([`CanonicalLists::list`]).
const ON_LIST: u32 = u32::MAX;

/// The canonical neighbour lists of a joint state, built once per group
/// of its neighbour table and variant, not once per vehicle.
///
/// Vehicle `v`'s canonical list is `v` and the feasible vehicles of its
/// neighbour list, ascending, each once — the form in which a list is a
/// function of the set it names. By the table's lemma (see
/// [`Neighbors`](crate::Neighbors)) a vehicle on its group's list reads,
/// as a set, itself and that list, and a vehicle off it reads itself and
/// all of the list but its last entry, every one of them below it. So a
/// group needs at most two canonical lists: the feasible vehicles of the
/// whole list, and of the list less its last entry, with the vehicle
/// appended. A vehicle keeps the index of its group's list and where it
/// goes itself: nowhere when it is already on it (a feasible vehicle on
/// its group's list is, and a collected table's list is made to hold its
/// one vehicle), at the end when it is off the list, and at its place by
/// index when it is an infeasible vehicle on the list — whose own list
/// only the dense pass reads.
#[derive(Debug, Default)]
pub(super) struct CanonicalLists {
    /// The lists, flat: list `l` is `flat[bounds[l]..bounds[l + 1]]` —
    /// feasible vehicles, ascending, each once.
    bounds: Vec<usize>,
    flat: Vec<usize>,
    /// Per vehicle: its list, and where the vehicle itself goes in it
    /// ([`ON_LIST`] when it is there already).
    of: Vec<(u32, u32)>,
    /// Per group of the neighbour table: the index of its list for the
    /// vehicles on the group's list and for those off it ([`EMPTY`] until
    /// a vehicle reads it).
    built: Vec<[usize; 2]>,
    /// The most entries the vehicles' lists can hold, whichever of them
    /// are built: `K` lists of a group list and a vehicle.
    room: usize,
}

impl CanonicalLists {
    /// Builds every vehicle's canonical list of `snap`: each list a group
    /// and variant some vehicle reads, once.
    pub(super) fn build(&mut self, snap: &StateSnapshot) {
        let (table, feasible) = (&snap.neighbors, &snap.feasible);
        let k = snap.num_vehicles();
        // At most one list per vehicle, each at most a group list and the
        // vehicle long: sized for that, a fleet of `K` allocates once.
        let longest = (0..table.groups())
            .map(|g| table.group_list(g).len())
            .max()
            .unwrap_or(0);
        self.room = k * (longest + 1);
        self.bounds.clear();
        self.flat.clear();
        self.of.clear();
        self.built.clear();
        self.bounds.reserve(k + 1);
        self.flat.reserve(self.room);
        self.of.reserve(k);
        self.built.reserve(k);
        self.bounds.push(0);
        self.built.resize(table.groups(), [EMPTY; 2]);
        for v in 0..k {
            let (group, listed) = table.member(v);
            let slot = &mut self.built[group][usize::from(!listed)];
            if *slot == EMPTY {
                *slot = self.bounds.len() - 1;
                let list = table.group_list(group);
                let prefix = if listed {
                    list
                } else {
                    &list[..list.len() - 1]
                };
                let start = self.flat.len();
                self.flat
                    .extend(prefix.iter().copied().filter(|&n| feasible[n]));
                // A ranked list holds its feasible vehicles already; a
                // collected one need not hold its one vehicle.
                if listed && feasible[v] {
                    self.flat.push(v);
                }
                let list = &mut self.flat[start..];
                list.sort_unstable();
                let mut kept = 0;
                for at in 0..list.len() {
                    if kept == 0 || list[at] != list[kept - 1] {
                        list[kept] = list[at];
                        kept += 1;
                    }
                }
                self.flat.truncate(start + kept);
                self.bounds.push(self.flat.len());
            }
            let l = *slot;
            let list = &self.flat[self.bounds[l]..self.bounds[l + 1]];
            let at = match (listed, feasible[v]) {
                (false, _) => list.len(),
                (true, true) => ON_LIST as usize,
                (true, false) => list.partition_point(|&n| n < v),
            };
            self.of.push((l as u32, at as u32));
        }
    }

    /// Vehicle `v`'s canonical list.
    pub(super) fn list(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        let (l, at) = self.of[v];
        let list = self.shared(l as usize);
        let (head, tail) = list.split_at((at as usize).min(list.len()));
        let own = (at != ON_LIST).then_some(v);
        head.iter().copied().chain(own).chain(tail.iter().copied())
    }

    /// The lists vehicles share, by index.
    fn shared(&self, l: usize) -> &[usize] {
        &self.flat[self.bounds[l]..self.bounds[l + 1]]
    }

    /// Number of lists vehicles share.
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }
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
///
/// Round zero groups by feature bits, vehicle by vehicle. The refinement
/// rounds work per canonical list: a list's class sequence is hashed once
/// per round, and a vehicle's hash is that hash mixed with its own class
/// (appended first when the vehicle goes at the list's end) — `O(1)` per
/// vehicle. Keys are still compared exactly, and a vehicle sharing the
/// list of the class's lowest member compares its own class alone.
#[derive(Debug, Default)]
pub(crate) struct Partition {
    /// Canonical neighbour lists of all `K` vehicles.
    pub(super) lists: CanonicalLists,
    /// Class of each vehicle ([`EMPTY`] for the infeasible), classes
    /// numbered by their lowest member.
    pub(super) class: Vec<usize>,
    /// The previous round's classes, which a refinement round reads.
    prev: Vec<usize>,
    /// Lowest member of each class.
    pub(super) reps: Vec<usize>,
    /// Per canonical list, the hash of its class sequence this round.
    hashes: Vec<u64>,
    /// Per canonical list, the last class representative a vehicle
    /// reading it was found equal to this round ([`EMPTY`] if none).
    matched: Vec<usize>,
    /// Open-addressing table of the classes found so far in a round.
    slots: Vec<usize>,
    /// Each class's list in class space, flat: class `c` attends along
    /// `class_flat[class_bounds[c]..class_bounds[c + 1]]`.
    pub(super) class_bounds: Vec<usize>,
    pub(super) class_flat: Vec<usize>,
    /// The receptive field of the last pass recorded through this scratch.
    pub(super) field: Field,
    pub(super) stats: ForwardStats,
}

impl Partition {
    /// Totals over every [`QNetwork::forward_classes`](super::QNetwork::forward_classes) this scratch served.
    pub(crate) fn stats(&self) -> ForwardStats {
        self.stats
    }

    /// Rows the last pass through this scratch embedded.
    pub(crate) fn field_rows(&self) -> usize {
        self.field.need[0].len()
    }

    /// Writes each class's list in class space: its representative's
    /// canonical list with every vehicle replaced by its class — same
    /// length, same order, twins as repeated entries, so each sum over
    /// neighbours has the dense pass's terms in the dense pass's order. A
    /// pass over the classes reads it at every level, so it is written
    /// out once.
    pub(super) fn class_lists(&mut self) {
        let k = self.class.len();
        self.class_bounds.clear();
        self.class_flat.clear();
        self.class_bounds.reserve(k + 1);
        self.class_flat.reserve(self.lists.room);
        self.class_bounds.push(0);
        for &rep in &self.reps {
            let list = self.lists.list(rep).map(|n| self.class[n]);
            self.class_flat.extend(list);
            self.class_bounds.push(self.class_flat.len());
        }
    }

    /// Round zero: feasible vehicles with equal feature bits share a
    /// class (`0.0` and `-0.0`, or two NaNs, are different bits).
    pub(super) fn group_by_features(&mut self, snap: &StateSnapshot) {
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

    /// One refinement round on the canonical lists built last: two
    /// vehicles stay together when they were together and their lists
    /// name equal classes in equal positions. Returns whether any class
    /// split; once none does, none ever will.
    pub(super) fn refine(&mut self, snap: &StateSnapshot) -> bool {
        let before = self.reps.len();
        std::mem::swap(&mut self.class, &mut self.prev);
        self.class.clear();
        self.class.resize(self.prev.len(), EMPTY);
        let (lists, prev) = (&self.lists, &self.prev);
        let k = snap.num_vehicles();
        self.hashes.clear();
        self.hashes.reserve(k);
        self.hashes
            .extend((0..lists.len()).map(|l| sequence_hash(lists.shared(l), prev)));
        self.matched.clear();
        self.matched.reserve(k);
        self.matched.resize(lists.len(), EMPTY);
        let (hashes, matched) = (&self.hashes, &mut self.matched);
        let key = |v: usize| lists.list(v).map(|n| prev[n]);
        // Given equal own classes, whether vehicle `b` matches the
        // representative `a` depends on `b`'s list alone: its sequence is
        // the shared list's, with `b`'s own class appended or not. So a
        // list is compared with a class in full once per round.
        let same = |a: usize, b: usize| {
            let l = lists.of[b].0 as usize;
            prev[a] == prev[b]
                && (lists.of[a].0 as usize == l
                    || matched[l] == a
                    || (key(a).eq(key(b)) && {
                        matched[l] = a;
                        true
                    }))
        };
        group(
            &snap.feasible,
            &mut self.slots,
            &mut self.class,
            &mut self.reps,
            |v| refine_hash(lists, hashes, prev, v),
            same,
        );
        self.reps.len() != before
    }
}

/// The hash of the classes `prev` gives `list`, in order.
fn sequence_hash(list: &[usize], prev: &[usize]) -> u64 {
    list.iter().fold(0, |hash, &n| mix(hash, prev[n] as u64))
}

/// A feasible vehicle's hash in a refinement round: its canonical list's
/// class sequence — the shared list's hash, with the vehicle's own class
/// mixed in when it goes at the end — mixed with its own class. A
/// function of the round's key alone, and `O(1)`: a feasible vehicle is
/// on its list or goes at its end (see [`CanonicalLists`]).
fn refine_hash(lists: &CanonicalLists, hashes: &[u64], prev: &[usize], v: usize) -> u64 {
    let (l, at) = lists.of[v];
    let own = prev[v] as u64;
    let sequence = if at == ON_LIST {
        hashes[l as usize]
    } else {
        debug_assert_eq!(at as usize, lists.shared(l as usize).len());
        mix(hashes[l as usize], own)
    };
    mix(sequence, own)
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
    mut same: impl FnMut(usize, usize) -> bool,
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
    use crate::state::STATE_DIM;
    use dpdp_net::{Node, NodeId, Point, RoadNetwork, VehicleId};
    use dpdp_nn::Tensor;
    use dpdp_routing::VehicleView;

    /// A round hashes a vehicle by its key and by nothing else: vehicles
    /// reading one list but holding different classes hash apart, so a
    /// class's members reach their representative's slot without probing
    /// past every other class of their node. Twelve vehicles on one node
    /// with `NE = 4` — four on the node's list, eight appending themselves
    /// to its first three — in three feature classes, one infeasible.
    #[test]
    fn a_refinement_hash_is_a_function_of_the_key_that_separates_keys() {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(3.0, 4.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let views: Vec<VehicleView> = (0..12)
            .map(|v| VehicleView::idle_at_depot(VehicleId(v), NodeId(0)))
            .collect();
        let rows = (0..12).flat_map(|v| [(v % 3) as f64; STATE_DIM]).collect();
        let snap = StateSnapshot {
            features: Tensor::from_vec(12, STATE_DIM, rows),
            feasible: (0..12).map(|v| v != 5).collect(),
            neighbors: crate::nearest_neighbors(&views, &net, 4),
        };
        let mut part = Partition::default();
        part.group_by_features(&snap);
        part.lists.build(&snap);
        let (lists, prev) = (&part.lists, &part.class);
        assert_eq!(lists.len(), 2, "one node, two variants");
        let hashes: Vec<u64> = (0..lists.len())
            .map(|l| sequence_hash(lists.shared(l), prev))
            .collect();
        let feasible = (0..12).filter(|&v| snap.feasible[v]);
        let keyed: Vec<(Vec<usize>, u64)> = feasible
            .map(|v| {
                let key = std::iter::once(prev[v]).chain(lists.list(v).map(|n| prev[n]));
                (key.collect(), refine_hash(lists, &hashes, prev, v))
            })
            .collect();
        for (a, (key_a, hash_a)) in keyed.iter().enumerate() {
            for (key_b, hash_b) in &keyed[a + 1..] {
                assert_eq!(key_a == key_b, hash_a == hash_b, "{key_a:?} / {key_b:?}");
            }
        }
    }
}
