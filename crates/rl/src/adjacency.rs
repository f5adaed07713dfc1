//! Vehicle adjacency for neighbourhood attention.
//!
//! The paper measures spatial proximity between vehicles by Euclidean
//! distance and selects the `NE` nearest vehicles as each vehicle's
//! neighbours (Section IV-C, "Neighborhood attention").
//!
//! A joint state's lists live in one [`Neighbors`] table, and the table
//! keeps them in the form [`nearest_neighbors`] computes them in: vehicles
//! anchored on one node share their distances to everyone, so the node is
//! ranked once and its vehicles' lists are read off that one ranking. The
//! table stores the ranking per occupied node and, per vehicle, its node
//! and whether it is on that ranking — not `K` lists of `NE` entries — and
//! what reads the lists downstream (the partition of the Q-network's
//! forward, see `qnet`) works per node too.
//!
//! A policy that decides order after order mostly sees the fleet standing
//! where it stood for the previous order: a vehicle's anchor moves only
//! when it reaches a stop or takes an order. `NeighborMemo` keeps the
//! last table with what it was computed from and hands out copies until
//! an anchor moves.

use dpdp_net::{NodeId, RoadNetwork};
use dpdp_routing::VehicleView;

/// Every vehicle's neighbour list, kept per *group* of vehicles that read
/// one list: group `g`'s list is `flat[bounds[g]..bounds[g + 1]]`, and
/// vehicle `v` names its group and whether it is on the group's list.
///
/// **Two forms, one layout.**
/// * [`nearest_neighbors`] writes the *ranked* form: one group per
///   occupied node, whose list is the node's first `take = min(NE, K)`
///   vehicles by distance, then index. Vehicle `v`'s list is `v` itself,
///   then the ranking without `v`, cut to `take` entries.
/// * Any other list of lists — ragged, unsorted, repeating — collects into
///   the *collected* form from its `Vec<usize>` lists
///   (`lists.into_iter().collect()`): every vehicle its own group, the
///   list as given, and every vehicle counted on it. It reads back list
///   for list.
///
/// **The lemma the ranked form rests on.** Let `R` be a node's ranking and
/// `v` a vehicle on the node. As a set, `v`'s list is `R[..take]` when `v`
/// is on it, and `R[..take − 1] ∪ {v}` when it is not — and then `v` has
/// the highest index in its list. Why: `v` is at distance zero from its
/// node, so it belongs to the ranking's first run, the vehicles at
/// distance zero merged by index. If `take` vehicles come before it, they
/// are all of that run and all of a lower index. So every list of a node
/// is one of two lists — the ranking, or its first `take − 1` entries with
/// the vehicle appended — and the vehicles on the ranking are a prefix of
/// the node's vehicles by index. `NE = 1` gives every vehicle the list of
/// itself alone, by either rule. `NE = 0` has no ranking to be on: every
/// list is empty, and [`nearest_neighbors`] writes it in the collected
/// form.
pub struct Neighbors {
    /// `groups + 1` offsets into `flat`, from 0 to `flat.len()`.
    bounds: Vec<usize>,
    flat: Vec<usize>,
    /// Per vehicle: its group, and whether it is on the group's list.
    member: Vec<(u32, bool)>,
    /// Whether this is the ranked form (lists read self first) rather than
    /// the collected one (lists read as given).
    ranked: bool,
}

impl Clone for Neighbors {
    fn clone(&self) -> Self {
        Neighbors {
            bounds: self.bounds.clone(),
            flat: self.flat.clone(),
            member: self.member.clone(),
            ranked: self.ranked,
        }
    }

    /// Copies `source` into this table's own buffers, allocating only if
    /// they are too small.
    fn clone_from(&mut self, source: &Self) {
        self.bounds.clone_from(&source.bounds);
        self.flat.clone_from(&source.flat);
        self.member.clone_from(&source.member);
        self.ranked = source.ranked;
    }
}

impl Neighbors {
    /// Number of lists `K`.
    pub fn len(&self) -> usize {
        self.member.len()
    }

    /// Whether the table holds no list.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vehicle `v`'s list, written out.
    ///
    /// # Panics
    /// Panics if `v >= len()`.
    pub fn list(&self, v: usize) -> Vec<usize> {
        let (group, _) = self.member(v);
        let list = self.group_list(group);
        if !self.ranked {
            return list.to_vec();
        }
        let others = list.iter().copied().filter(|&a| a != v);
        std::iter::once(v).chain(others).take(list.len()).collect()
    }

    /// The lists in vehicle order, written out.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Vec<usize>> + '_ {
        (0..self.len()).map(|v| self.list(v))
    }

    /// Number of groups.
    pub(crate) fn groups(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Group `g`'s list.
    pub(crate) fn group_list(&self, g: usize) -> &[usize] {
        &self.flat[self.bounds[g]..self.bounds[g + 1]]
    }

    /// Vehicle `v`'s group, and whether `v` is counted on the group's
    /// list. As a set, `v` and its list are then `v` and the group's list;
    /// otherwise they are `v` and all of the group's list but its last
    /// entry, every one of them below `v`.
    pub(crate) fn member(&self, v: usize) -> (usize, bool) {
        let (group, listed) = self.member[v];
        (group as usize, listed)
    }

    /// An empty table with room for `groups` groups and `entries` list
    /// entries over `k` vehicles: copying a table of that size into it
    /// allocates nothing.
    fn with_room(k: usize, groups: usize, entries: usize) -> Self {
        Neighbors {
            bounds: Vec::with_capacity(groups + 1),
            flat: Vec::with_capacity(entries),
            member: Vec::with_capacity(k),
            ranked: false,
        }
    }
}

/// Two tables are equal when they read back the same lists, whichever
/// form holds them.
impl PartialEq for Neighbors {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Neighbors {}

impl FromIterator<Vec<usize>> for Neighbors {
    fn from_iter<I: IntoIterator<Item = Vec<usize>>>(lists: I) -> Self {
        let mut table = Neighbors::with_room(0, 0, 0);
        table.bounds.push(0);
        for list in lists {
            table.flat.extend_from_slice(&list);
            table.bounds.push(table.flat.len());
            table.member.push((table.member.len() as u32, true));
        }
        table
    }
}

impl std::fmt::Debug for Neighbors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// For each vehicle, the indices of its `ne` nearest vehicles (by Euclidean
/// distance between anchor-node positions), **including itself first**;
/// the others follow by distance, ties by index. Every list has length
/// `min(ne, K)`. The table is the ranked form (see [`Neighbors`]).
///
/// Vehicles anchored on one node see the same fleet at the same distances,
/// so only the *occupied* nodes are ranked, once per occupied node: a
/// counting sort lists each node's vehicles in ascending order, an
/// anchor's occupied nodes are sorted by distance, and its ranking reads
/// their vehicles off in that order — one node's vehicles ascending, the
/// vehicles of nodes at equal distance merged by index — until `min(ne, K)`
/// are in hand. The ranking is the node's list, and its vehicles are
/// counted on it or not (by the lemma, the first few by index are). The
/// cost is `O(K + N)` for the sort over the network's `N` nodes plus
/// `O(M log M + ne)` per occupied node of `M`, and a fixed number of
/// allocations whatever `K` and `M` are.
pub fn nearest_neighbors(views: &[VehicleView], net: &RoadNetwork, ne: usize) -> Neighbors {
    let k = views.len();
    let take = ne.min(k);
    if take == 0 {
        // Every list is empty: the collected form of `K` empty lists, in
        // which every vehicle reads itself alone.
        return (0..k).map(|_| Vec::new()).collect();
    }
    let node = |v: usize| views[v].anchor_node.index();
    // Counting sort: `by_node[head[n]..head[n + 1]]` are the vehicles
    // anchored on node `n`, ascending.
    let mut head = vec![0usize; net.num_nodes() + 1];
    for v in 0..k {
        head[node(v) + 1] += 1;
    }
    let occupied = head.iter().filter(|&&n| n > 0).count();
    for n in 1..head.len() {
        head[n] += head[n - 1];
    }
    let mut by_node = vec![0usize; k];
    for v in 0..k {
        let at = &mut head[node(v)];
        by_node[*at] = v;
        *at += 1;
    }
    // Placing shifted every start to its node's end: node `n`'s vehicles
    // now end at `head[n]` and start where node `n - 1`'s end. One group
    // per occupied node, in node order: its vehicles and its position.
    let mut groups = Vec::with_capacity(occupied);
    let mut begin = 0;
    for (n, &end) in head[..net.num_nodes()].iter().enumerate() {
        if end > begin {
            groups.push((begin..end, net.node(NodeId::from_index(n)).pos));
        }
        begin = end;
    }

    let mut table = Neighbors::with_room(k, occupied, occupied * take);
    table.ranked = true;
    table.bounds.push(0);
    table.member.resize(k, (0, true));
    // Per anchor node: the occupied nodes by distance (the order within a
    // run at one distance does not matter, the run is merged below).
    let mut nearest: Vec<(f64, usize)> = Vec::with_capacity(occupied);
    // Per anchor node: its `take` first vehicles by distance, then index
    // (room for a whole fleet while a tie is merged).
    let mut ranked: Vec<usize> = Vec::with_capacity(k);
    for (g, (members, from)) in groups.iter().enumerate() {
        let members = &by_node[members.clone()];
        nearest.clear();
        let distances = groups.iter().map(|(_, to)| from.distance(to));
        nearest.extend(distances.zip(0..));
        nearest.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        ranked.clear();
        let mut at = 0;
        while ranked.len() < take {
            // The run of nodes at the next distance: their vehicles, merged
            // by index.
            let run = nearest[at..]
                .iter()
                .take_while(|n| n.0.total_cmp(&nearest[at].0).is_eq())
                .count();
            let start = ranked.len();
            for &(_, g) in &nearest[at..at + run] {
                ranked.extend_from_slice(&by_node[groups[g].0.clone()]);
            }
            if run > 1 {
                ranked[start..].sort_unstable();
            }
            at += run;
        }
        table.flat.extend_from_slice(&ranked[..take]);
        table.bounds.push(table.flat.len());
        // By the lemma, the node's vehicles on its ranking lead its
        // vehicles by index.
        let here = node(members[0]);
        let listed = ranked[..take].iter().filter(|&&a| node(a) == here).count();
        for (j, &v) in members.iter().enumerate() {
            table.member[v] = (g as u32, j < listed);
        }
    }
    table
}

/// The last neighbour table a policy computed, with what it was computed
/// from: `NE` and, per vehicle, its anchor node and that node's position
/// bits. [`nearest_neighbors`] reads nothing else — not the routes, the
/// cargo or the clock — so an equal key means an equal table, bit for bit,
/// and the memo hands out a copy instead. The positions are part of the
/// key because one memo serves every instance a policy is run on, and two
/// networks can number their nodes alike.
#[derive(Debug, Clone, Default)]
pub(crate) struct NeighborMemo {
    ne: usize,
    /// Per vehicle: anchor node, position `x` and `y` bits.
    anchors: Vec<(NodeId, u64, u64)>,
    /// The table for `anchors`, `None` until the first call.
    table: Option<Neighbors>,
}

impl NeighborMemo {
    /// `nearest_neighbors(views, net, ne)`: a copy of the memo when no
    /// anchor moved since it was filled, else computed and copied into the
    /// memo's buffers.
    pub(crate) fn neighbors(
        &mut self,
        views: &[VehicleView],
        net: &RoadNetwork,
        ne: usize,
    ) -> Neighbors {
        let anchor = |v: &VehicleView| {
            let at = net.node(v.anchor_node).pos;
            (v.anchor_node, at.x.to_bits(), at.y.to_bits())
        };
        let same = |anchors: &[(NodeId, u64, u64)]| {
            anchors.len() == views.len() && anchors.iter().zip(views).all(|(a, v)| *a == anchor(v))
        };
        if let Some(table) = &self.table {
            if self.ne == ne && same(&self.anchors) {
                return table.clone();
            }
        }
        let table = nearest_neighbors(views, net, ne);
        self.ne = ne;
        self.anchors.clear();
        self.anchors.extend(views.iter().map(anchor));
        // Room for a group per vehicle, so that no later copy of a fleet
        // this size allocates, however many nodes it occupies.
        let (k, take) = (views.len(), ne.min(views.len()));
        self.table
            .get_or_insert_with(|| Neighbors::with_room(k, k, k * take))
            .clone_from(&table);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{Node, NodeId, Point, VehicleId};

    fn net() -> RoadNetwork {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::factory(NodeId(2), Point::new(2.0, 0.0)),
            Node::factory(NodeId(3), Point::new(10.0, 0.0)),
        ];
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    fn view_at(k: u32, node: u32) -> VehicleView {
        let mut v = VehicleView::idle_at_depot(VehicleId(k), NodeId(0));
        v.anchor_node = NodeId(node);
        v
    }

    #[test]
    fn self_is_first_neighbor() {
        let net = net();
        let views = vec![view_at(0, 0), view_at(1, 1), view_at(2, 3)];
        let adj = nearest_neighbors(&views, &net, 2);
        assert_eq!(adj.list(0)[0], 0);
        assert_eq!(adj.list(1)[0], 1);
        assert_eq!(adj.list(2)[0], 2);
    }

    #[test]
    fn nearest_by_position() {
        let net = net();
        let views = vec![view_at(0, 0), view_at(1, 1), view_at(2, 2), view_at(3, 3)];
        let adj = nearest_neighbors(&views, &net, 3);
        // Vehicle 0 at x=0: nearest others are x=1 then x=2.
        assert_eq!(adj.list(0), vec![0, 1, 2]);
        // Vehicle 3 at x=10: nearest others are x=2 then x=1.
        assert_eq!(adj.list(3), vec![3, 2, 1]);
    }

    #[test]
    fn ne_larger_than_fleet_is_clamped() {
        let net = net();
        let views = vec![view_at(0, 0), view_at(1, 1)];
        let adj = nearest_neighbors(&views, &net, 10);
        assert_eq!(adj.list(0).len(), 2);
        assert_eq!(adj.list(1).len(), 2);
    }

    /// `NE = 0`: every list is empty. `NE = 1`: every list is the vehicle
    /// alone, whether it leads its node's ranking or not.
    #[test]
    fn the_two_smallest_neighbourhoods() {
        let net = net();
        let views = vec![view_at(0, 1), view_at(1, 1), view_at(2, 2), view_at(3, 1)];
        let none = nearest_neighbors(&views, &net, 0);
        assert!(none.len() == 4 && none.iter().all(|l| l.is_empty()));
        let alone = nearest_neighbors(&views, &net, 1);
        assert!(alone.iter().enumerate().all(|(v, l)| l == [v]));
        // Node 1's ranking is vehicle 0: it is on it, its node's others
        // are not.
        let on = |v| alone.member(v).1;
        assert_eq!([0, 1, 2, 3].map(on), [true, false, true, false]);
    }

    /// The ranking per node: the vehicles on it lead their node by index,
    /// and the others' lists are the ranking's first `NE - 1` and
    /// themselves.
    #[test]
    fn a_node_keeps_one_ranking() {
        let net = net();
        let views: Vec<VehicleView> = (0..6).map(|v| view_at(v, 1 + v % 2)).collect();
        let adj = nearest_neighbors(&views, &net, 2);
        assert_eq!(adj.groups(), 2);
        // Node 1 holds vehicles 0, 2, 4 and ranks 0, 2; node 2 holds 1, 3, 5.
        assert_eq!(adj.group_list(adj.member(0).0), [0, 2]);
        let on = |v| adj.member(v).1;
        assert_eq!(
            [0, 1, 2, 3, 4, 5].map(on),
            [true, true, true, true, false, false]
        );
        assert_eq!(adj.list(4), [4, 0]);
        assert_eq!(adj.list(2), [2, 0]);
    }

    #[test]
    fn colocated_vehicles_break_ties_by_index() {
        let net = net();
        let views = vec![view_at(0, 1), view_at(1, 1), view_at(2, 1)];
        let adj = nearest_neighbors(&views, &net, 3);
        assert_eq!(adj.list(1), vec![1, 0, 2]);
    }
}
