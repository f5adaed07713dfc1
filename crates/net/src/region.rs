//! Geographic regions: partitioning a road network's nodes into shards.
//!
//! Industry-scale dispatch scores every order of a decision epoch against
//! every vehicle, even though most `(order, vehicle)` pairs are
//! geographically hopeless. A [`ShardMap`] carves the network's nodes into
//! `S` spatial cells so the dispatch layer can evaluate in-cell pairs
//! concurrently and handle cross-cell pairs through a cheap escalation
//! rule (see `dpdp-sim`'s partition → score → merge pipeline).
//!
//! Two partition policies exist ([`ShardPolicy`]):
//!
//! * [`ShardPolicy::KMeans`] — k-means-style seeded centroids over node
//!   coordinates (farthest-point initialisation from a seeded start, a
//!   fixed number of Lloyd refinement rounds), which adapts the regions to
//!   hotspot geometry;
//! * [`ShardPolicy::Hierarchical`] — a **two-level** partition for
//!   megacity scale: a coarse k-means pass carves the map into metro
//!   *regions*, then each region is k-means-split into fine *cells*. The
//!   flat shard index space is the cell space (`regions *
//!   cells_per_region` cells); [`ShardMap::region_of`] recovers a cell's
//!   parent region so escalation can stay region-local.
//!
//! Flat maps (`KMeans`) are a single region containing all their cells,
//! so two-level consumers can treat every map uniformly.
//!
//! Both policies are **deterministic**: the partition is a pure function of
//! `(nodes, num_shards, policy, seed[, weights])`. Ties in
//! nearest-centroid assignments break toward the lower shard index
//! (first-wins under [`f64::total_cmp`]), so shard layouts never depend on
//! float ordering quirks or iteration interleaving.
//!
//! [`ShardMap::build_weighted`] re-derives a map from per-node demand
//! weights (e.g. recent order pickups): Lloyd means become weighted means,
//! pulling centroids toward live demand — the primitive behind
//! mid-episode re-partitioning in `dpdp-sim`.
//!
//! **Cell-pair gaps.** Every map, re-derived ones included, carries one
//! conservative lower bound per ordered pair of cells on the road distance
//! from any node of the first to any node of the second
//! ([`ShardMap::gap_km`]). Each cell has a *reference node* — the member
//! nearest its centroid — an *out-radius* `r_out[u] = max d(ref_u, a)` and
//! an *in-radius* `r_in[u] = max d(a, ref_u)` over its members `a`. On a
//! metric network (each triangle inequality holding up to
//! [`METRIC_TOLERANCE_KM`]), for `a ∈ u` and `p ∈ s`:
//!
//! - `d(ref_u, ref_s) ≤ d(ref_u, a) + d(a, ref_s) + tol`, and
//! - `d(a, ref_s) ≤ d(a, p) + d(p, ref_s) + tol`,
//!
//! so `d(a, p) ≥ d(ref_u, ref_s) − r_out[u] − r_in[s] − 2·tol`. The table
//! stores that, less a rounding margin, clamped at 0, and stores 0 on a
//! network that is not metric. It lets `dpdp-sim` dismiss a whole
//! `(vehicle cell, order cell)` block of an epoch with one bound check.

use crate::ids::NodeId;
use crate::network::{Point, RoadNetwork, METRIC_TOLERANCE_KM};

/// Fixed part of the margin [`ShardMap::gap_km`] keeps below the exact
/// cell-pair bound. The rounding of the two triangle checks and of the
/// bound's own subtractions is under 10 ulps of the distances involved; the
/// margin takes 16 machine epsilons of them plus this, so it covers the
/// rounding at any distance and costs the bound nothing at road scale.
const GAP_ROUNDING_KM: f64 = 1e-6;

/// How a [`ShardMap`] assigns nodes to regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardPolicy {
    /// K-means-style clustering of node coordinates: the seed picks the
    /// first centroid, the remaining `S - 1` start farthest-point from the
    /// already-chosen set, then `iterations` Lloyd rounds refine them.
    KMeans {
        /// Number of Lloyd refinement rounds (8 is plenty for campus-scale
        /// node counts; 0 keeps the farthest-point seeding as-is).
        iterations: usize,
    },
    /// Two-level partition: a coarse k-means pass into `regions` metro
    /// regions, then a per-region k-means pass into `cells_per_region`
    /// cells each. Cell `c`'s parent region is `c / cells_per_region`;
    /// the map's shard count is always `regions * cells_per_region`.
    Hierarchical {
        /// Number of coarse metro regions.
        regions: usize,
        /// Number of fine cells each region is split into.
        cells_per_region: usize,
        /// Lloyd rounds for both the coarse and the per-region pass.
        iterations: usize,
    },
}

impl Default for ShardPolicy {
    /// Learned-geometry default: [`ShardPolicy::KMeans`] with 8 rounds.
    fn default() -> Self {
        ShardPolicy::KMeans { iterations: 8 }
    }
}

/// A deterministic partition of a network's nodes into `num_shards`
/// geographic cells, optionally grouped under coarse parent regions.
///
/// The map is built once per simulator (the node set is static) and read
/// throughout an episode: vehicles belong to the shard of their current
/// anchor node, orders to the shard of their pickup node. Mid-episode
/// re-partitioning swaps in a fresh map built by
/// [`ShardMap::build_weighted`] at an epoch boundary.
///
/// Every build also derives the cell-pair distance bound
/// [`ShardMap::gap_km`] from the network (see the module docs): `S²`
/// entries, each from one reference-to-reference distance and two radii,
/// so it costs `O(n + S²)` on top of the partition.
#[derive(Debug, Clone)]
pub struct ShardMap {
    /// Shard (cell) index per node, dense by node id.
    assignment: Vec<usize>,
    /// Representative point per shard (its final centroid).
    centroids: Vec<Point>,
    /// Parent region per cell; all zeros for flat (single-region) maps.
    cell_region: Vec<usize>,
    /// The policy the map was built with.
    policy: ShardPolicy,
    num_shards: usize,
    num_regions: usize,
    /// `gap[u * num_shards + s]`: [`ShardMap::gap_km`]`(u, s)`.
    gap: Vec<f64>,
}

impl ShardMap {
    /// Partitions `net`'s nodes into `num_shards` cells.
    ///
    /// `num_shards` is clamped to at least 1; requesting more shards than
    /// nodes leaves the surplus shards empty (their centroids collapse onto
    /// existing nodes), which is harmless — empty shards simply never own a
    /// vehicle or an order.
    ///
    /// # Panics
    /// Panics if `net` has no nodes, or if the policy is
    /// [`ShardPolicy::Hierarchical`] and `num_shards != regions *
    /// cells_per_region`.
    pub fn build(net: &RoadNetwork, num_shards: usize, policy: ShardPolicy, seed: u64) -> ShardMap {
        Self::build_inner(net, num_shards, policy, seed, None)
    }

    /// Like [`ShardMap::build`], but Lloyd centroid updates use the given
    /// per-node demand `weights` (weighted means), pulling cells toward
    /// where demand actually is. Nodes with zero weight still get
    /// assigned to their nearest cell; a cell whose members carry no
    /// weight falls back to the unweighted mean.
    ///
    /// # Panics
    /// Panics on the same conditions as [`ShardMap::build`], and if
    /// `weights.len()` differs from the node count.
    pub fn build_weighted(
        net: &RoadNetwork,
        num_shards: usize,
        policy: ShardPolicy,
        seed: u64,
        weights: &[f64],
    ) -> ShardMap {
        assert_eq!(
            weights.len(),
            net.nodes().len(),
            "demand weights must cover every node"
        );
        Self::build_inner(net, num_shards, policy, seed, Some(weights))
    }

    fn build_inner(
        net: &RoadNetwork,
        num_shards: usize,
        policy: ShardPolicy,
        seed: u64,
        weights: Option<&[f64]>,
    ) -> ShardMap {
        let nodes = net.nodes();
        assert!(!nodes.is_empty(), "cannot shard an empty network");
        if let ShardPolicy::Hierarchical {
            regions,
            cells_per_region,
            ..
        } = policy
        {
            assert_eq!(
                num_shards,
                regions * cells_per_region,
                "hierarchical shard count must equal regions * cells_per_region"
            );
        }
        let num_shards = num_shards.max(1);
        let points: Vec<Point> = nodes.iter().map(|n| n.pos).collect();
        let (assignment, centroids, cell_region, num_regions) = if num_shards == 1 {
            (vec![0; points.len()], vec![mean_point(&points)], vec![0], 1)
        } else {
            match policy {
                ShardPolicy::KMeans { iterations } => {
                    let (a, c) = kmeans_partition(&points, weights, num_shards, iterations, seed);
                    (a, c, vec![0; num_shards], 1)
                }
                ShardPolicy::Hierarchical {
                    regions,
                    cells_per_region,
                    iterations,
                } => {
                    let (a, c) = hierarchical_partition(
                        &points,
                        weights,
                        regions,
                        cells_per_region,
                        iterations,
                        seed,
                    );
                    let cell_region = (0..num_shards).map(|s| s / cells_per_region).collect();
                    (a, c, cell_region, regions)
                }
            }
        };
        let gap = gap_table(net, &assignment, &centroids);
        ShardMap {
            assignment,
            centroids,
            cell_region,
            policy,
            num_shards,
            num_regions,
            gap,
        }
    }

    /// Number of shards (cells) the map was built for (empty shards
    /// included).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of coarse parent regions: 1 for flat maps, `regions` for
    /// hierarchical ones.
    #[inline]
    pub fn num_regions(&self) -> usize {
        self.num_regions
    }

    /// The policy the map was built with.
    #[inline]
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// The shard (cell) owning `node`.
    ///
    /// # Panics
    /// Panics if the id is out of range for the map's network.
    #[inline]
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.assignment[node.index()]
    }

    /// The parent region of a cell (always 0 on flat maps).
    ///
    /// # Panics
    /// Panics if `shard >= num_shards()`.
    #[inline]
    pub fn region_of(&self, shard: usize) -> usize {
        self.cell_region[shard]
    }

    /// The parent region owning `node` (via its cell).
    #[cfg(test)]
    fn region_of_node(&self, node: NodeId) -> usize {
        self.region_of(self.shard_of(node))
    }

    /// A lower bound, km, on the distance from any node of cell `from` to
    /// any node of cell `to`: `gap_km(u, s) ≤ d(a, p)` for every `a` with
    /// `shard_of(a) == u` and `p` with `shard_of(p) == s` (derivation in
    /// the module docs). 0 when the network is not metric, for an empty
    /// cell, and whenever the cells' reference nodes are no farther apart
    /// than their radii.
    ///
    /// # Panics
    /// Panics if either cell is `>= num_shards()`.
    #[inline]
    pub fn gap_km(&self, from: usize, to: usize) -> f64 {
        assert!(to < self.num_shards, "cell out of range");
        self.gap[from * self.num_shards + to]
    }

    /// Representative point of a shard (its final centroid).
    ///
    /// # Panics
    /// Panics if `shard >= num_shards()`.
    #[inline]
    pub fn centroid(&self, shard: usize) -> Point {
        self.centroids[shard]
    }

    /// Number of nodes assigned to each shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_shards];
        for &s in &self.assignment {
            sizes[s] += 1;
        }
        sizes
    }

    /// Number of non-empty shards.
    #[cfg(test)]
    fn occupied_shards(&self) -> usize {
        self.shard_sizes().iter().filter(|&&n| n > 0).count()
    }
}

/// The cell-pair bound table of [`ShardMap::gap_km`], row-major by the
/// `from` cell: reference nodes (the member nearest the cell's centroid,
/// ties toward the lower node id), their out- and in-radii, then one
/// entry per pair (see the module docs for the two triangle inequalities).
/// All zeros on a network that is not metric and for a one-cell map.
fn gap_table(net: &RoadNetwork, assignment: &[usize], centroids: &[Point]) -> Vec<f64> {
    let cells = centroids.len();
    let mut gap = vec![0.0; cells * cells];
    if cells == 1 || !net.is_metric() {
        return gap;
    }
    let mut reference: Vec<Option<(NodeId, f64)>> = vec![None; cells];
    for (node, &s) in net.nodes().iter().zip(assignment) {
        let d = dist2(node.pos, centroids[s]);
        if reference[s].is_none_or(|(_, best)| d < best) {
            reference[s] = Some((node.id, d));
        }
    }
    let (mut r_out, mut r_in) = (vec![0.0f64; cells], vec![0.0f64; cells]);
    for (node, &s) in net.nodes().iter().zip(assignment) {
        let (r, _) = reference[s].expect("a node's cell has a reference node");
        r_out[s] = r_out[s].max(net.distance(r, node.id));
        r_in[s] = r_in[s].max(net.distance(node.id, r));
    }
    for (u, ref_u) in reference.iter().enumerate() {
        let Some((ref_u, _)) = *ref_u else { continue };
        for (s, ref_s) in reference.iter().enumerate() {
            let Some((ref_s, _)) = *ref_s else { continue };
            let d = net.distance(ref_u, ref_s);
            let bound = d - r_out[u] - r_in[s] - 2.0 * METRIC_TOLERANCE_KM;
            let margin = GAP_ROUNDING_KM + 16.0 * f64::EPSILON * (d + r_out[u] + r_in[s]);
            gap[u * cells + s] = (bound - margin).max(0.0);
        }
    }
    gap
}

fn mean_point(points: &[Point]) -> Point {
    let n = points.len() as f64;
    Point::new(
        points.iter().map(|p| p.x).sum::<f64>() / n,
        points.iter().map(|p| p.y).sum::<f64>() / n,
    )
}

/// Splitmix64: the deterministic seed scrambler used for centroid init.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn dist2(a: Point, b: Point) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    dx * dx + dy * dy
}

/// Nearest centroid by squared distance; ties break toward the lower shard
/// index (strict `<` under `total_cmp` — first wins).
fn nearest_centroid(p: Point, centroids: &[Point]) -> usize {
    let mut best = 0usize;
    let mut best_d = dist2(p, centroids[0]);
    for (s, c) in centroids.iter().enumerate().skip(1) {
        let d = dist2(p, *c);
        if d.total_cmp(&best_d) == std::cmp::Ordering::Less {
            best = s;
            best_d = d;
        }
    }
    best
}

/// Seeded farthest-point initialisation + fixed Lloyd rounds.
///
/// With `weights`, each Lloyd round moves a centroid to the *weighted*
/// mean of its members (falling back to the unweighted mean when the
/// members carry no weight); initialisation stays geometric so that empty
/// demand cannot collapse the layout.
///
/// After the rounds, any cluster that ended up with zero members is
/// deterministically **re-seeded**: it steals the point farthest from its
/// current centroid among clusters that can spare one (≥ 2 members; ties
/// toward the lower node index). This guarantees
/// `occupied == min(num_shards, points.len())` even for degenerate seeds
/// or duplicate node coordinates, where plain Lloyd iteration can strand
/// a shard with zero nodes.
fn kmeans_partition(
    points: &[Point],
    weights: Option<&[f64]>,
    num_shards: usize,
    iterations: usize,
    seed: u64,
) -> (Vec<usize>, Vec<Point>) {
    let k = num_shards.min(points.len());
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    let first = (splitmix64(&mut state) % points.len() as u64) as usize;
    let mut centroids = vec![points[first]];
    // Farthest-point: each next centroid maximises the distance to the
    // chosen set (ties toward the lower node index — first wins).
    while centroids.len() < k {
        let mut best_idx = 0usize;
        let mut best_d = f64::NEG_INFINITY;
        for (i, p) in points.iter().enumerate() {
            let d = centroids
                .iter()
                .map(|c| dist2(*p, *c))
                .fold(f64::INFINITY, f64::min);
            if d.total_cmp(&best_d) == std::cmp::Ordering::Greater {
                best_idx = i;
                best_d = d;
            }
        }
        centroids.push(points[best_idx]);
    }
    let weight_of = |i: usize| weights.map_or(1.0, |w| w[i]);
    let mut assignment: Vec<usize> = points
        .iter()
        .map(|p| nearest_centroid(*p, &centroids))
        .collect();
    for _ in 0..iterations {
        // Lloyd: move each centroid to the (weighted) mean of its members
        // (empty shards keep their centroid this round — the final
        // re-seed pass below guarantees they do not stay empty), then
        // re-assign.
        // Per cluster: (w·x, w·y, Σw, Σx, Σy, count).
        let mut sums = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0usize); centroids.len()];
        for (i, (p, &s)) in points.iter().zip(&assignment).enumerate() {
            let w = weight_of(i);
            sums[s].0 += w * p.x;
            sums[s].1 += w * p.y;
            sums[s].2 += w;
            sums[s].3 += p.x;
            sums[s].4 += p.y;
            sums[s].5 += 1;
        }
        for (c, &(wx, wy, wsum, sx, sy, n)) in centroids.iter_mut().zip(&sums) {
            if wsum > 0.0 {
                *c = Point::new(wx / wsum, wy / wsum);
            } else if n > 0 {
                *c = Point::new(sx / n as f64, sy / n as f64);
            }
        }
        let next: Vec<usize> = points
            .iter()
            .map(|p| nearest_centroid(*p, &centroids))
            .collect();
        if next == assignment {
            break;
        }
        assignment = next;
    }
    // Deterministic empty-cluster re-seed (see doc comment above).
    let mut counts = vec![0usize; centroids.len()];
    for &s in &assignment {
        counts[s] += 1;
    }
    for c in 0..centroids.len() {
        if counts[c] > 0 {
            continue;
        }
        let mut donor: Option<(usize, f64)> = None;
        for (i, p) in points.iter().enumerate() {
            if counts[assignment[i]] < 2 {
                continue;
            }
            let d = dist2(*p, centroids[assignment[i]]);
            if donor.is_none_or(|(_, bd)| d.total_cmp(&bd) == std::cmp::Ordering::Greater) {
                donor = Some((i, d));
            }
        }
        if let Some((i, _)) = donor {
            counts[assignment[i]] -= 1;
            assignment[i] = c;
            counts[c] = 1;
            centroids[c] = points[i];
        }
    }
    // Surplus shards (k < num_shards) stay empty; park their centroids on
    // the first real centroid so `centroid()` stays total.
    while centroids.len() < num_shards {
        centroids.push(centroids[0]);
    }
    (assignment, centroids)
}

/// Two-level partition: a coarse k-means pass into `regions`, then a
/// per-region k-means pass into `cells_per_region` cells each. Cell ids
/// are region-major (`region * cells_per_region + local_cell`), so the
/// parent region of cell `c` is always `c / cells_per_region`.
///
/// Each region's cell pass runs on an independent splitmix64-derived
/// sub-seed, so the whole layout stays a pure function of
/// `(points, weights, regions, cells_per_region, iterations, seed)`.
fn hierarchical_partition(
    points: &[Point],
    weights: Option<&[f64]>,
    regions: usize,
    cells_per_region: usize,
    iterations: usize,
    seed: u64,
) -> (Vec<usize>, Vec<Point>) {
    let regions = regions.max(1);
    let cells_per_region = cells_per_region.max(1);
    let num_shards = regions * cells_per_region;
    let (region_assignment, region_centroids) =
        kmeans_partition(points, weights, regions, iterations, seed);
    let mut assignment = vec![0usize; points.len()];
    let mut centroids = vec![Point::new(0.0, 0.0); num_shards];
    for (r, &region_centroid) in region_centroids.iter().enumerate().take(regions) {
        let members: Vec<usize> = (0..points.len())
            .filter(|&i| region_assignment[i] == r)
            .collect();
        let base = r * cells_per_region;
        if members.is_empty() {
            // An empty region (more regions than nodes): park its cells'
            // centroids on the region centroid so `centroid()` stays total.
            for c in 0..cells_per_region {
                centroids[base + c] = region_centroid;
            }
            continue;
        }
        let sub_points: Vec<Point> = members.iter().map(|&i| points[i]).collect();
        let sub_weights: Vec<f64> = match weights {
            Some(w) => members.iter().map(|&i| w[i]).collect(),
            None => Vec::new(),
        };
        let sub_weights = weights.map(|_| sub_weights.as_slice());
        let mut sub_state = seed ^ (r as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let sub_seed = splitmix64(&mut sub_state);
        let (sub_assignment, sub_centroids) = kmeans_partition(
            &sub_points,
            sub_weights,
            cells_per_region,
            iterations,
            sub_seed,
        );
        for (&i, &cell) in members.iter().zip(&sub_assignment) {
            assignment[i] = base + cell;
        }
        centroids[base..base + cells_per_region].copy_from_slice(&sub_centroids);
    }
    (assignment, centroids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;

    /// Two far-apart clusters of two nodes each.
    fn clustered_net() -> RoadNetwork {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::depot(NodeId(2), Point::new(100.0, 100.0)),
            Node::factory(NodeId(3), Point::new(101.0, 100.0)),
        ];
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    /// Four well-separated quadrant clusters of three nodes each.
    fn quadrant_net() -> RoadNetwork {
        let mut nodes = Vec::new();
        for (q, (cx, cy)) in [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)]
            .into_iter()
            .enumerate()
        {
            for j in 0..3u32 {
                let id = NodeId(q as u32 * 3 + j);
                let p = Point::new(cx + j as f64, cy + (j % 2) as f64);
                nodes.push(if j == 0 {
                    Node::depot(id, p)
                } else {
                    Node::factory(id, p)
                });
            }
        }
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    #[test]
    fn single_shard_owns_everything() {
        let net = clustered_net();
        let map = ShardMap::build(&net, 1, ShardPolicy::default(), 7);
        assert_eq!(map.num_shards(), 1);
        assert_eq!(map.num_regions(), 1);
        for n in net.nodes() {
            assert_eq!(map.shard_of(n.id), 0);
            assert_eq!(map.region_of_node(n.id), 0);
        }
        assert_eq!(map.occupied_shards(), 1);
    }

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let net = clustered_net();
        let map = ShardMap::build(&net, 2, ShardPolicy::default(), 7);
        assert_eq!(map.shard_of(NodeId(0)), map.shard_of(NodeId(1)));
        assert_eq!(map.shard_of(NodeId(2)), map.shard_of(NodeId(3)));
        assert_ne!(map.shard_of(NodeId(0)), map.shard_of(NodeId(2)));
        assert_eq!(map.occupied_shards(), 2);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let net = clustered_net();
        let a = ShardMap::build(&net, 2, ShardPolicy::default(), 42);
        let b = ShardMap::build(&net, 2, ShardPolicy::default(), 42);
        for n in net.nodes() {
            assert_eq!(a.shard_of(n.id), b.shard_of(n.id));
        }
    }

    #[test]
    fn more_shards_than_nodes_leaves_surplus_empty() {
        let net = clustered_net();
        let map = ShardMap::build(&net, 9, ShardPolicy::default(), 3);
        assert_eq!(map.num_shards(), 9);
        // The re-seed guarantee: as many occupied shards as nodes allow.
        assert_eq!(map.occupied_shards(), 4);
        // Every node still gets a valid shard and every shard a centroid.
        for n in net.nodes() {
            assert!(map.shard_of(n.id) < 9);
        }
        for s in 0..9 {
            let c = map.centroid(s);
            assert!(c.x.is_finite() && c.y.is_finite());
        }
    }

    #[test]
    fn duplicate_coordinates_no_longer_strand_empty_shards() {
        // Three distinct locations but six nodes: farthest-point init must
        // duplicate a centroid, and duplicate centroids tie every
        // assignment toward the lower shard — without the re-seed pass one
        // shard ends the Lloyd rounds with zero nodes.
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(0.0, 0.0)),
            Node::factory(NodeId(2), Point::new(0.0, 0.0)),
            Node::factory(NodeId(3), Point::new(10.0, 0.0)),
            Node::factory(NodeId(4), Point::new(10.0, 0.0)),
            Node::factory(NodeId(5), Point::new(20.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        for seed in 0..8 {
            let map = ShardMap::build(&net, 4, ShardPolicy::default(), seed);
            assert_eq!(
                map.occupied_shards(),
                4,
                "seed {seed} stranded an empty shard: sizes {:?}",
                map.shard_sizes()
            );
            let again = ShardMap::build(&net, 4, ShardPolicy::default(), seed);
            for n in net.nodes() {
                assert_eq!(map.shard_of(n.id), again.shard_of(n.id));
            }
        }
    }

    #[test]
    fn hierarchical_nests_cells_inside_regions() {
        let net = quadrant_net();
        let policy = ShardPolicy::Hierarchical {
            regions: 4,
            cells_per_region: 2,
            iterations: 8,
        };
        let map = ShardMap::build(&net, 8, policy, 11);
        assert_eq!(map.num_shards(), 8);
        assert_eq!(map.num_regions(), 4);
        // Cell ids are region-major.
        for s in 0..8 {
            assert_eq!(map.region_of(s), s / 2);
        }
        // The coarse pass separates the quadrants: nodes of one quadrant
        // share a region, different quadrants never do.
        for q in 0..4u32 {
            let r = map.region_of_node(NodeId(q * 3));
            for j in 1..3u32 {
                assert_eq!(map.region_of_node(NodeId(q * 3 + j)), r, "quadrant {q}");
            }
        }
        let regions: std::collections::HashSet<usize> = (0..4u32)
            .map(|q| map.region_of_node(NodeId(q * 3)))
            .collect();
        assert_eq!(regions.len(), 4, "quadrants must land in distinct regions");
        // Every quadrant's 3 nodes split across its own 2 cells.
        assert_eq!(map.occupied_shards(), 8);
    }

    #[test]
    #[should_panic(expected = "regions * cells_per_region")]
    fn hierarchical_rejects_mismatched_shard_count() {
        let net = quadrant_net();
        let policy = ShardPolicy::Hierarchical {
            regions: 4,
            cells_per_region: 2,
            iterations: 8,
        };
        let _ = ShardMap::build(&net, 7, policy, 0);
    }

    #[test]
    fn weighted_build_pulls_centroids_toward_demand() {
        let net = clustered_net();
        // All demand on the far cluster: its shard centroid must sit on
        // the demand-weighted mean of nodes 2 and 3, not the geometric one.
        let weights = vec![0.0, 0.0, 3.0, 1.0];
        let map = ShardMap::build_weighted(&net, 2, ShardPolicy::default(), 7, &weights);
        assert_eq!(map.occupied_shards(), 2, "zero-weight nodes keep a shard");
        let hot = map.shard_of(NodeId(2));
        let c = map.centroid(hot);
        let expected_x = (3.0 * 100.0 + 101.0) / 4.0;
        assert!((c.x - expected_x).abs() < 1e-9, "got {}", c.x);
        // Uniform weights reproduce the unweighted build exactly.
        let uniform = ShardMap::build_weighted(&net, 2, ShardPolicy::default(), 7, &[1.0; 4]);
        let plain = ShardMap::build(&net, 2, ShardPolicy::default(), 7);
        for n in net.nodes() {
            assert_eq!(uniform.shard_of(n.id), plain.shard_of(n.id));
        }
    }

    /// The quadrants are 100 km apart and a few km wide: every pair of
    /// cells in different quadrants gets a bound within a few km of the
    /// closest pair of their nodes, the same for the demand-weighted
    /// rebuild, and a cell's bound to itself is 0.
    #[test]
    fn the_gap_table_bounds_cells_in_different_quadrants() {
        let net = quadrant_net();
        let policy = ShardPolicy::Hierarchical {
            regions: 4,
            cells_per_region: 2,
            iterations: 8,
        };
        let weights: Vec<f64> = (0..12).map(|i| (i % 5) as f64).collect();
        for map in [
            ShardMap::build(&net, 8, policy, 11),
            ShardMap::build_weighted(&net, 8, policy, 11, &weights),
        ] {
            for u in 0..8 {
                assert_eq!(map.gap_km(u, u), 0.0);
                for s in 0..8 {
                    let closest = net
                        .nodes()
                        .iter()
                        .filter(|a| map.shard_of(a.id) == u)
                        .flat_map(|a| {
                            let to_s = net.nodes().iter().filter(|p| map.shard_of(p.id) == s);
                            to_s.map(|p| net.distance(a.id, p.id))
                        })
                        .fold(f64::INFINITY, f64::min);
                    let gap = map.gap_km(u, s);
                    assert!(gap <= closest, "gap_km({u}, {s}) = {gap} > {closest}");
                    if map.region_of(u) != map.region_of(s) {
                        assert!(gap > closest - 10.0, "gap_km({u}, {s}) = {gap}");
                    }
                }
            }
        }
    }

    /// On a network that is not metric the bound has no footing: 0.
    #[test]
    fn a_network_that_is_not_metric_has_no_gaps() {
        let net = quadrant_net();
        let n = net.num_nodes();
        let mut dist: Vec<f64> = (0..n * n)
            .map(|e| net.distance(NodeId::from_index(e / n), NodeId::from_index(e % n)))
            .collect();
        dist[1] = 1e4;
        let crooked = RoadNetwork::with_matrix(net.nodes().to_vec(), dist).unwrap();
        assert!(!crooked.is_metric());
        let map = ShardMap::build(&crooked, 4, ShardPolicy::default(), 11);
        assert_eq!(map.occupied_shards(), 4);
        for u in 0..4 {
            assert!((0..4).all(|s| map.gap_km(u, s) == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn empty_network_panics() {
        let net = RoadNetwork::euclidean(vec![], 1.0).unwrap();
        let _ = ShardMap::build(&net, 2, ShardPolicy::default(), 0);
    }
}
