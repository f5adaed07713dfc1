//! The road network: a complete directed graph over depots and factories
//! with a dense distance matrix.

use crate::error::NetError;
use crate::ids::NodeId;
use crate::node::{Node, NodeKind};

/// A planar point; coordinates are in kilometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Easting, km.
    pub x: f64,
    /// Northing, km.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point, km.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// A complete directed road network `G = (N, A)` with non-negative arc
/// distances `d_{i,j}` stored as a dense row-major matrix.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    /// Row-major `n x n` distance matrix in kilometres.
    dist: Vec<f64>,
    /// Whether the matrix satisfies the triangle inequality (within
    /// [`METRIC_TOLERANCE_KM`]); computed once at construction.
    metric: bool,
}

/// Slack allowed when classifying a network as metric: a triple may violate
/// the triangle inequality by at most this many kilometres.
/// [`RoadNetwork::with_matrix`] tests every triple against it in an `O(n³)`
/// scan; [`RoadNetwork::euclidean`] proves the flag from rounding bounds
/// when every distance is at most 1e5 km and runs the same scan otherwise.
/// Consumers that prune work based on [`RoadNetwork::is_metric`] must absorb
/// this slack in their own safety margins (see `dpdp-routing`'s escalation
/// bound).
pub const METRIC_TOLERANCE_KM: f64 = 1e-9;

/// Largest Euclidean distance, km, up to which [`RoadNetwork::euclidean`]
/// proves the metric flag instead of scanning for it (see its doc).
const EUCLIDEAN_PROOF_MAX_KM: f64 = 1e5;

/// Triangle-inequality check over all node triples, `O(n³)` — run once at
/// construction so [`RoadNetwork::is_metric`] is a free lookup afterwards.
fn matrix_is_metric(dist: &[f64], n: usize) -> bool {
    for i in 0..n {
        for k in 0..n {
            let d_ik = dist[i * n + k];
            for j in 0..n {
                if dist[i * n + j] > d_ik + dist[k * n + j] + METRIC_TOLERANCE_KM {
                    return false;
                }
            }
        }
    }
    true
}

impl RoadNetwork {
    /// Builds a network from nodes using Euclidean distances scaled by
    /// `detour_factor` (>= 1.0 models the fact that road distance exceeds
    /// straight-line distance).
    ///
    /// The metric flag is proved rather than scanned when every distance is
    /// at most 1e5 km, and [`RoadNetwork::is_metric`] then has the value the
    /// `O(n³)` scan of [`RoadNetwork::with_matrix`] would give:
    ///
    /// - each entry `f·‖pᵢ−pⱼ‖` is within about 4u relative error of its
    ///   exact value, u = 2⁻⁵³ (the subtraction, square, sum, root and
    ///   detour product each add at most u; the root halves what came
    ///   before it), and the exact values obey the triangle inequality;
    /// - so a computed `d_ij` exceeds the computed `d_ik + d_kj` by at most
    ///   10u·(d_ik + d_kj), and the scan's test
    ///   `d_ij > (d_ik + d_kj) + 1e-9` can only fire when that exceeds
    ///   [`METRIC_TOLERANCE_KM`], which needs entries above ≈ 4.5e5 km.
    ///   Underflow in the square adds at most ≈ 1e-161 km per entry.
    ///
    /// Above the bound, or on a non-finite entry, this constructor runs the
    /// scan.
    ///
    /// # Errors
    /// Returns an error if node ids are not dense `0..n` or the detour factor
    /// is invalid.
    pub fn euclidean(nodes: Vec<Node>, detour_factor: f64) -> Result<Self, NetError> {
        if !(detour_factor.is_finite() && detour_factor >= 1.0) {
            return Err(NetError::InvalidDistanceMatrix(format!(
                "detour factor must be finite and >= 1.0, got {detour_factor}"
            )));
        }
        Self::validate_node_ids(&nodes)?;
        let n = nodes.len();
        let mut dist = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    dist[i * n + j] = nodes[i].pos.distance(&nodes[j].pos) * detour_factor;
                }
            }
        }
        // The rounding bound in the doc above proves the flag for entries up
        // to EUCLIDEAN_PROOF_MAX_KM; `<=` is false on NaN, so a non-finite
        // entry is scanned like a large one.
        let metric =
            dist.iter().all(|&d| d <= EUCLIDEAN_PROOF_MAX_KM) || matrix_is_metric(&dist, n);
        Ok(RoadNetwork {
            nodes,
            dist,
            metric,
        })
    }

    /// Builds a network from an explicit row-major distance matrix.
    ///
    /// # Errors
    /// Returns an error if the matrix is not `n x n`, contains negative or
    /// non-finite entries, or has a non-zero diagonal.
    pub fn with_matrix(nodes: Vec<Node>, dist: Vec<f64>) -> Result<Self, NetError> {
        Self::validate_node_ids(&nodes)?;
        let n = nodes.len();
        if dist.len() != n * n {
            return Err(NetError::InvalidDistanceMatrix(format!(
                "expected {} entries for {n} nodes, got {}",
                n * n,
                dist.len()
            )));
        }
        for i in 0..n {
            for j in 0..n {
                let d = dist[i * n + j];
                if !d.is_finite() || d < 0.0 {
                    return Err(NetError::InvalidDistanceMatrix(format!(
                        "distance ({i},{j}) = {d} is negative or non-finite"
                    )));
                }
                if i == j && d != 0.0 {
                    return Err(NetError::InvalidDistanceMatrix(format!(
                        "diagonal entry ({i},{i}) must be zero, got {d}"
                    )));
                }
            }
        }
        let metric = matrix_is_metric(&dist, n);
        Ok(RoadNetwork {
            nodes,
            dist,
            metric,
        })
    }

    fn validate_node_ids(nodes: &[Node]) -> Result<(), NetError> {
        for (i, node) in nodes.iter().enumerate() {
            if node.id.index() != i {
                return Err(NetError::InvalidDistanceMatrix(format!(
                    "node at position {i} has id {}, ids must be dense 0..n",
                    node.id
                )));
            }
        }
        Ok(())
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes in id order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Checked node lookup.
    pub fn try_node(&self, id: NodeId) -> Result<&Node, NetError> {
        self.nodes.get(id.index()).ok_or(NetError::UnknownNode(id))
    }

    /// Distance from `from` to `to` in kilometres.
    ///
    /// # Panics
    /// Panics if either id is out of range.
    #[inline]
    pub fn distance(&self, from: NodeId, to: NodeId) -> f64 {
        self.dist[from.index() * self.nodes.len() + to.index()]
    }

    /// Batched distance row: `out[i] = distance(from, targets[i])`.
    ///
    /// One bounds-checked row-base computation covers the whole call, and
    /// the row of the distance matrix is scanned contiguously — this is the
    /// kernel the insertion-sweep leg tables and the epoch classification
    /// memo are built from, amortizing matrix indexing across a candidate
    /// row instead of paying it per [`RoadNetwork::distance`] call. Each
    /// entry is the identical matrix element `distance` returns, so batched
    /// and per-call lookups are interchangeable bit for bit.
    ///
    /// # Panics
    /// Panics if `out.len() != targets.len()` or any id is out of range.
    pub fn distances_from(&self, from: NodeId, targets: &[NodeId], out: &mut [f64]) {
        assert_eq!(out.len(), targets.len(), "distances_from length mismatch");
        let row =
            &self.dist[from.index() * self.nodes.len()..(from.index() + 1) * self.nodes.len()];
        for (o, t) in out.iter_mut().zip(targets) {
            *o = row[t.index()];
        }
    }

    /// Batched distance column gather: `out[i] = distance(sources[i], to)`.
    ///
    /// The column-major companion of [`RoadNetwork::distances_from`] (same
    /// bit-for-bit contract); the gather is strided rather than contiguous,
    /// but still amortizes the per-call index arithmetic and bounds checks.
    ///
    /// # Panics
    /// Panics if `out.len() != sources.len()` or any id is out of range.
    pub fn distances_to(&self, to: NodeId, sources: &[NodeId], out: &mut [f64]) {
        assert_eq!(out.len(), sources.len(), "distances_to length mismatch");
        let n = self.nodes.len();
        let col = to.index();
        assert!(col < n, "distances_to target out of range");
        for (o, s) in out.iter_mut().zip(sources) {
            *o = self.dist[s.index() * n + col];
        }
    }

    /// Batched pairwise legs: `out[i] = distance(from[i], to[i])`.
    ///
    /// Used to evaluate all consecutive legs of a route in one call (pass
    /// the path's node list offset by one); same bit-for-bit contract as
    /// [`RoadNetwork::distance`].
    ///
    /// # Panics
    /// Panics if the three slices have different lengths or any id is out
    /// of range.
    pub fn leg_distances(&self, from: &[NodeId], to: &[NodeId], out: &mut [f64]) {
        assert_eq!(from.len(), to.len(), "leg_distances length mismatch");
        assert_eq!(out.len(), from.len(), "leg_distances length mismatch");
        let n = self.nodes.len();
        for ((o, f), t) in out.iter_mut().zip(from).zip(to) {
            *o = self.dist[f.index() * n + t.index()];
        }
    }

    /// Ids of all depot nodes.
    pub fn depots(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Depot)
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all factory nodes.
    pub fn factories(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Factory)
            .map(|n| n.id)
            .collect()
    }

    /// Number of factory nodes (`n` in the paper's STD matrix).
    pub fn num_factories(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Factory)
            .count()
    }

    /// Total length of a node sequence (sum of consecutive arc distances).
    pub fn path_length(&self, path: &[NodeId]) -> f64 {
        path.windows(2).map(|w| self.distance(w[0], w[1])).sum()
    }

    /// Whether the distance matrix satisfies the triangle inequality
    /// (within [`METRIC_TOLERANCE_KM`]). [`RoadNetwork::with_matrix`] scans
    /// every triple for it; [`RoadNetwork::euclidean`] proves it when every
    /// distance is at most 1e5 km and scans otherwise, so both constructors
    /// agree with the scan on every network. Geometric shortcut reasoning —
    /// e.g. the cross-shard infeasibility bound in `dpdp-routing` — is only
    /// sound on metric networks, so consumers gate on this flag.
    #[inline]
    pub fn is_metric(&self) -> bool {
        self.metric
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_net() -> RoadNetwork {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::factory(NodeId(2), Point::new(1.0, 1.0)),
            Node::factory(NodeId(3), Point::new(0.0, 1.0)),
        ];
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    #[test]
    fn euclidean_distances_are_symmetric_here() {
        let net = square_net();
        assert_eq!(net.num_nodes(), 4);
        assert!((net.distance(NodeId(0), NodeId(1)) - 1.0).abs() < 1e-12);
        assert!((net.distance(NodeId(0), NodeId(2)) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(
            net.distance(NodeId(1), NodeId(3)),
            net.distance(NodeId(3), NodeId(1))
        );
        assert_eq!(net.distance(NodeId(2), NodeId(2)), 0.0);
    }

    #[test]
    fn detour_factor_scales_distances() {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(3.0, 4.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.3).unwrap();
        assert!((net.distance(NodeId(0), NodeId(1)) - 6.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_detour_factor_rejected() {
        let nodes = vec![Node::depot(NodeId(0), Point::new(0.0, 0.0))];
        assert!(RoadNetwork::euclidean(nodes.clone(), 0.5).is_err());
        assert!(RoadNetwork::euclidean(nodes, f64::NAN).is_err());
    }

    #[test]
    fn matrix_validation_rejects_bad_input() {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
        ];
        // Wrong size.
        assert!(RoadNetwork::with_matrix(nodes.clone(), vec![0.0; 3]).is_err());
        // Negative entry.
        assert!(RoadNetwork::with_matrix(nodes.clone(), vec![0.0, -1.0, 1.0, 0.0]).is_err());
        // Non-zero diagonal.
        assert!(RoadNetwork::with_matrix(nodes.clone(), vec![1.0, 1.0, 1.0, 0.0]).is_err());
        // Asymmetric but valid (complete *directed* graph).
        let net = RoadNetwork::with_matrix(nodes, vec![0.0, 2.0, 5.0, 0.0]).unwrap();
        assert_eq!(net.distance(NodeId(0), NodeId(1)), 2.0);
        assert_eq!(net.distance(NodeId(1), NodeId(0)), 5.0);
    }

    #[test]
    fn non_dense_ids_rejected() {
        let nodes = vec![Node::depot(NodeId(5), Point::new(0.0, 0.0))];
        assert!(RoadNetwork::euclidean(nodes, 1.0).is_err());
    }

    #[test]
    fn depot_factory_partition() {
        let net = square_net();
        assert_eq!(net.depots(), vec![NodeId(0)]);
        assert_eq!(net.factories(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(net.num_factories(), 3);
    }

    #[test]
    fn euclidean_networks_are_metric() {
        assert!(square_net().is_metric());
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(3.0, 4.0)),
        ];
        assert!(RoadNetwork::euclidean(nodes, 1.3).unwrap().is_metric());
    }

    #[test]
    fn matrix_networks_report_metric_violations() {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::factory(NodeId(2), Point::new(2.0, 0.0)),
        ];
        // 0 -> 2 direct costs 10 but 0 -> 1 -> 2 costs 2: non-metric.
        #[rustfmt::skip]
        let non_metric = vec![
            0.0, 1.0, 10.0,
            1.0, 0.0,  1.0,
            10.0, 1.0, 0.0,
        ];
        let net = RoadNetwork::with_matrix(nodes.clone(), non_metric).unwrap();
        assert!(!net.is_metric());
        // A consistent shortest-path matrix is metric.
        #[rustfmt::skip]
        let metric = vec![
            0.0, 1.0, 2.0,
            1.0, 0.0, 1.0,
            2.0, 1.0, 0.0,
        ];
        let net = RoadNetwork::with_matrix(nodes, metric).unwrap();
        assert!(net.is_metric());
    }

    #[test]
    fn path_length_sums_arcs() {
        let net = square_net();
        let path = [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(0)];
        assert!((net.path_length(&path) - 4.0).abs() < 1e-12);
        assert_eq!(net.path_length(&[NodeId(0)]), 0.0);
        assert_eq!(net.path_length(&[]), 0.0);
    }
}
