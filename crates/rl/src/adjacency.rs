//! Vehicle adjacency for neighbourhood attention.
//!
//! The paper measures spatial proximity between vehicles by Euclidean
//! distance and selects the `NE` nearest vehicles as each vehicle's
//! neighbours (Section IV-C, "Neighborhood attention").
//!
//! A joint state's lists live in one flat [`Neighbors`] table — `K + 1`
//! offsets into one buffer of vehicle indices — not one `Vec` per vehicle.
//! [`nearest_neighbors`] fills it without ranking the fleet once per
//! vehicle, or even once per occupied node: vehicles anchored on one node
//! share their distances to everyone, so it ranks the occupied nodes and
//! reads each node's vehicles off in index order.
//!
//! A policy that decides order after order mostly sees the fleet standing
//! where it stood for the previous order: a vehicle's anchor moves only
//! when it reaches a stop or takes an order. `NeighborMemo` keeps the
//! last table with what it was computed from and hands out copies until
//! an anchor moves.

use dpdp_net::{NodeId, RoadNetwork};
use dpdp_routing::VehicleView;

/// Every vehicle's neighbour list in one flat table: vehicle `v`'s list
/// is `flat[bounds[v]..bounds[v + 1]]`, so a joint state's `K` lists cost
/// two allocations, not `K + 1`.
///
/// [`nearest_neighbors`] writes it directly; any other list of lists —
/// ragged, unsorted, repeating — collects into it from its `Vec<usize>`
/// lists (`lists.into_iter().collect()`), and reads back list for list.
#[derive(PartialEq, Eq)]
pub struct Neighbors {
    /// `K + 1` offsets into `flat`, from 0 to `flat.len()`.
    bounds: Vec<usize>,
    flat: Vec<usize>,
}

impl Clone for Neighbors {
    fn clone(&self) -> Self {
        Neighbors {
            bounds: self.bounds.clone(),
            flat: self.flat.clone(),
        }
    }

    /// Copies `source` into this table's own buffers, allocating only if
    /// they are too small.
    fn clone_from(&mut self, source: &Self) {
        self.bounds.clone_from(&source.bounds);
        self.flat.clone_from(&source.flat);
    }
}

impl Neighbors {
    /// Number of lists `K`.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the table holds no list.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vehicle `v`'s list.
    ///
    /// # Panics
    /// Panics if `v >= len()`.
    pub fn list(&self, v: usize) -> &[usize] {
        &self.flat[self.bounds[v]..self.bounds[v + 1]]
    }

    /// The lists in vehicle order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        self.bounds.windows(2).map(|b| &self.flat[b[0]..b[1]])
    }
}

impl FromIterator<Vec<usize>> for Neighbors {
    fn from_iter<I: IntoIterator<Item = Vec<usize>>>(lists: I) -> Self {
        let mut table = Neighbors {
            bounds: vec![0],
            flat: Vec::new(),
        };
        for list in lists {
            table.flat.extend_from_slice(&list);
            table.bounds.push(table.flat.len());
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
/// `min(ne, K)`.
///
/// Vehicles anchored on one node see the same fleet at the same distances,
/// so only the *occupied* nodes are ranked, once per occupied node: a
/// counting sort lists each node's vehicles in ascending order, an
/// anchor's occupied nodes are sorted by distance, and its ranking reads
/// their vehicles off in that order — one node's vehicles ascending, the
/// vehicles of nodes at equal distance merged by index — until `min(ne, K)`
/// are in hand. Each of the anchor's vehicles then writes itself and the
/// ranking's others into its slice of the table. The cost is `O(K + N)`
/// for the sort over the network's `N` nodes plus `O(M log M + ne)` per
/// occupied node of `M`, and a fixed number of allocations whatever `K`
/// and `M` are.
pub fn nearest_neighbors(views: &[VehicleView], net: &RoadNetwork, ne: usize) -> Neighbors {
    let k = views.len();
    let take = ne.min(k);
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

    let mut bounds = Vec::with_capacity(k + 1);
    bounds.extend((0..=k).map(|v| v * take));
    let mut flat = vec![0usize; k * take];
    if take == 0 {
        return Neighbors { bounds, flat };
    }
    // Per anchor node: the occupied nodes by distance (the order within a
    // run at one distance does not matter, the run is merged below).
    let mut nearest: Vec<(f64, usize)> = Vec::with_capacity(occupied);
    // Per anchor node: its `take` first vehicles by distance, then index
    // (room for a whole fleet while a tie is merged).
    let mut ranked: Vec<usize> = Vec::with_capacity(k);
    for (members, from) in &groups {
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
        for &i in &by_node[members.clone()] {
            // `i` is in its node's ranking unless `take` others come
            // before it; either way it goes first and `take` remain.
            let list = &mut flat[i * take..(i + 1) * take];
            list[0] = i;
            let others = ranked.iter().copied().filter(|&a| a != i);
            for (slot, a) in list[1..].iter_mut().zip(others) {
                *slot = a;
            }
        }
    }
    Neighbors { bounds, flat }
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
        match &mut self.table {
            Some(memo) => memo.clone_from(&table),
            None => self.table = Some(table.clone()),
        }
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

    #[test]
    fn colocated_vehicles_break_ties_by_index() {
        let net = net();
        let views = vec![view_at(0, 1), view_at(1, 1), view_at(2, 1)];
        let adj = nearest_neighbors(&views, &net, 3);
        assert_eq!(adj.list(1), vec![1, 0, 2]);
    }
}
