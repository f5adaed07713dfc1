//! Vehicle adjacency for neighbourhood attention.
//!
//! The paper measures spatial proximity between vehicles by Euclidean
//! distance and selects the `NE` nearest vehicles as each vehicle's
//! neighbours (Section IV-C, "Neighborhood attention").

use dpdp_net::RoadNetwork;
use dpdp_routing::VehicleView;

/// For each vehicle, the indices of its `ne` nearest vehicles (by Euclidean
/// distance between anchor-node positions), **including itself first**;
/// the others follow by distance, ties by index. Every list has length
/// `min(ne, K)`.
///
/// Vehicles anchored on one node see the same fleet at the same distances,
/// so the fleet is ranked once per occupied node: one row of distances and
/// a top-`ne` insertion (one comparison per vehicle once the list has
/// settled), never a sort of the fleet.
pub fn nearest_neighbors(views: &[VehicleView], net: &RoadNetwork, ne: usize) -> Vec<Vec<usize>> {
    let k = views.len();
    let take = ne.min(k);
    let positions: Vec<_> = views.iter().map(|v| net.node(v.anchor_node).pos).collect();
    let mut dist = vec![0.0; k];
    // Per node, the `take` vehicles nearest to it, by distance then index.
    let mut ranked: Vec<Option<Vec<usize>>> = vec![None; net.num_nodes()];
    (0..k)
        .map(|i| {
            let nearest = ranked[views[i].anchor_node.index()].get_or_insert_with(|| {
                for (d, p) in dist.iter_mut().zip(&positions) {
                    *d = positions[i].distance(p);
                }
                let mut nearest: Vec<usize> = Vec::with_capacity(take);
                for a in 0..k {
                    // Candidates come in index order, so among equal
                    // distances the lower index already sits ahead: `a`
                    // goes in front of the strictly farther ones only.
                    let mut slot = nearest.len();
                    while slot > 0 && dist[nearest[slot - 1]].total_cmp(&dist[a]).is_gt() {
                        slot -= 1;
                    }
                    if slot < take {
                        nearest.truncate(take - 1);
                        nearest.insert(slot, a);
                    }
                }
                nearest
            });
            // `i` is among its own node's nearest unless `take` others
            // share the node; either way it goes first and `take` remain.
            let others = nearest.iter().copied().filter(|&a| a != i);
            let mut list = Vec::with_capacity(take);
            list.extend(std::iter::once(i).chain(others).take(take));
            list
        })
        .collect()
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
        assert_eq!(adj[0][0], 0);
        assert_eq!(adj[1][0], 1);
        assert_eq!(adj[2][0], 2);
    }

    #[test]
    fn nearest_by_position() {
        let net = net();
        let views = vec![view_at(0, 0), view_at(1, 1), view_at(2, 2), view_at(3, 3)];
        let adj = nearest_neighbors(&views, &net, 3);
        // Vehicle 0 at x=0: nearest others are x=1 then x=2.
        assert_eq!(adj[0], vec![0, 1, 2]);
        // Vehicle 3 at x=10: nearest others are x=2 then x=1.
        assert_eq!(adj[3], vec![3, 2, 1]);
    }

    #[test]
    fn ne_larger_than_fleet_is_clamped() {
        let net = net();
        let views = vec![view_at(0, 0), view_at(1, 1)];
        let adj = nearest_neighbors(&views, &net, 10);
        assert_eq!(adj[0].len(), 2);
        assert_eq!(adj[1].len(), 2);
    }

    #[test]
    fn colocated_vehicles_break_ties_by_index() {
        let net = net();
        let views = vec![view_at(0, 1), view_at(1, 1), view_at(2, 1)];
        let adj = nearest_neighbors(&views, &net, 3);
        assert_eq!(adj[1], vec![1, 0, 2]);
    }
}
