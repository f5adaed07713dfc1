//! Property tests for the agents' state pipeline (proptest shim: cases are
//! drawn from a generator seeded by the test's name, so every run and every
//! machine checks the same committed sequence).

use dpdp_net::{Node, NodeId, Point, RoadNetwork, VehicleId};
use dpdp_rl::{nearest_neighbors, Neighbors};
use dpdp_routing::VehicleView;
use proptest::prelude::*;

/// The definition `nearest_neighbors` must keep: per vehicle, a full sort
/// of the fleet — itself first, then by distance, then by index — cut to
/// `min(ne, K)`.
fn full_sort_reference(positions: &[Point], ne: usize) -> Vec<Vec<usize>> {
    let k = positions.len();
    (0..k)
        .map(|i| {
            let mut order: Vec<usize> = (0..k).collect();
            order.sort_by(|&a, &b| {
                let key = |v: usize| (v != i, positions[i].distance(&positions[v]));
                let (ka, kb) = (key(a), key(b));
                (ka.0.cmp(&kb.0))
                    .then(ka.1.total_cmp(&kb.1))
                    .then(a.cmp(&b))
            });
            order.truncate(ne.min(k));
            order
        })
        .collect()
}

/// Checks a fleet of `anchors.len()` vehicles, vehicle `v` anchored on node
/// `anchors[v]` of a network with the given node positions.
fn check(nodes: &[(f64, f64)], anchors: &[usize], ne: usize) -> Result<(), String> {
    let net_nodes: Vec<Node> = nodes
        .iter()
        .enumerate()
        .map(|(n, &(x, y))| match n {
            0 => Node::depot(NodeId(0), Point::new(x, y)),
            _ => Node::factory(NodeId(n as u32), Point::new(x, y)),
        })
        .collect();
    let net = RoadNetwork::euclidean(net_nodes, 1.0).expect("valid network");
    let views: Vec<VehicleView> = anchors
        .iter()
        .enumerate()
        .map(|(v, &node)| {
            let mut view = VehicleView::idle_at_depot(VehicleId(v as u32), NodeId(0));
            view.anchor_node = NodeId(node as u32);
            view
        })
        .collect();
    let positions: Vec<Point> = anchors
        .iter()
        .map(|&node| Point::new(nodes[node].0, nodes[node].1))
        .collect();
    let (got, want) = (
        nearest_neighbors(&views, &net, ne),
        full_sort_reference(&positions, ne),
    );
    if got.len() == want.len() && got.iter().eq(want.iter().map(Vec::as_slice)) {
        Ok(())
    } else {
        Err(format!("selection {got:?} != full sort {want:?}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Vehicles scattered over distinct random positions.
    #[test]
    fn selection_matches_full_sort_on_random_positions(
        nodes in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..24),
        ne in 0usize..12,
    ) {
        let anchors: Vec<usize> = (0..nodes.len()).collect();
        check(&nodes, &anchors, ne).map_err(TestCaseError::fail)?;
    }

    /// Many vehicles on few nodes, nodes on a small lattice and on top of
    /// each other (exact distance ties): the index tie-break and the
    /// per-node ranking both have to hold.
    #[test]
    fn selection_matches_full_sort_on_colocated_positions(
        lattice in proptest::collection::vec((0usize..3, 0usize..3), 1..6),
        anchors in proptest::collection::vec(0usize..6, 1..40),
        ne in 0usize..12,
    ) {
        let nodes: Vec<(f64, f64)> = lattice.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
        let anchors: Vec<usize> = anchors.iter().map(|a| a % nodes.len()).collect();
        check(&nodes, &anchors, ne).map_err(TestCaseError::fail)?;
    }

    /// A large fleet crowded onto at most six lattice nodes with long
    /// lists: a ranking runs through several nodes and crosses groups of
    /// nodes at one distance (on a 3 x 3 lattice a node has up to four
    /// neighbours at 1 and four at sqrt 2), whose vehicles interleave by
    /// index.
    #[test]
    fn selection_matches_full_sort_across_equidistant_nodes(
        lattice in proptest::collection::vec((0usize..3, 0usize..3), 1..7),
        anchors in proptest::collection::vec(0usize..6, 1..301),
        ne in 0usize..41,
    ) {
        let nodes: Vec<(f64, f64)> = lattice.iter().map(|&(x, y)| (x as f64, y as f64)).collect();
        let anchors: Vec<usize> = anchors.iter().map(|a| a % nodes.len()).collect();
        check(&nodes, &anchors, ne).map_err(TestCaseError::fail)?;
    }
}

/// The form the lists take outside the builder — one `Vec` per vehicle,
/// ragged, unsorted, repeating, some empty — collects into the table
/// and reads back list for list.
#[test]
fn lists_collected_into_the_table_read_back_unchanged() {
    let lists: Vec<Vec<usize>> = vec![vec![2, 0, 2], vec![], vec![1], vec![3, 1, 0, 2, 3]];
    let table: Neighbors = lists.iter().cloned().collect();
    assert_eq!(table.len(), lists.len());
    for (v, list) in lists.iter().enumerate() {
        assert_eq!(table.list(v), list.as_slice());
    }
    assert!(table.iter().eq(lists.iter().map(Vec::as_slice)));
    assert_eq!(format!("{table:?}"), format!("{lists:?}"));
    let empty: Neighbors = std::iter::empty().collect();
    assert!(empty.is_empty() && empty.iter().next().is_none());
}
