//! Synthetic manufacturing campus: depots + factories on a plane.

use dpdp_net::{Node, NodeId, Point, RoadNetwork};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of a synthetic campus.
#[derive(Debug, Clone)]
pub struct CampusConfig {
    /// Number of depots (the paper's `{w_i}`; vehicles start here).
    pub num_depots: usize,
    /// Number of factories (27 in the paper's campus).
    pub num_factories: usize,
    /// Side length of the square campus area, km.
    pub area_km: f64,
    /// Road distance = Euclidean distance × this factor (>= 1).
    pub detour_factor: f64,
    /// RNG seed for node placement.
    pub seed: u64,
    /// Number of spatial hotspots (metro-style multi-cluster layout).
    /// `0` or `1` keeps the legacy uniform placement over the whole area;
    /// `>= 2` places hotspot centres on a ring and gathers depots and
    /// factories around them (round-robin), giving region sharding
    /// geography to bite on.
    pub hotspots: usize,
    /// Standard deviation of node placement around its hotspot centre, km
    /// (only used with `hotspots >= 2`).
    pub hotspot_spread_km: f64,
}

impl Default for CampusConfig {
    /// The paper's campus: 27 factories (Pearl River Delta manufacturing
    /// campus), 2 depots, a ~10 km site, mild road detour, no hotspot
    /// clustering.
    fn default() -> Self {
        CampusConfig {
            num_depots: 2,
            num_factories: 27,
            area_km: 10.0,
            detour_factor: 1.3,
            seed: 20210527, // arXiv submission date of the paper
            hotspots: 0,
            hotspot_spread_km: 1.0,
        }
    }
}

/// A generated campus: the road network plus the depot/factory id ranges.
///
/// Node layout: depots occupy ids `0..num_depots`, factories occupy
/// `num_depots..num_depots+num_factories`.
#[derive(Debug, Clone)]
pub struct Campus {
    /// The road network over all campus nodes.
    pub network: RoadNetwork,
    /// Ids of the depot nodes.
    pub depots: Vec<NodeId>,
    /// Ids of the factory nodes, in STD-matrix row order.
    pub factories: Vec<NodeId>,
    /// Hotspot index per factory (row order of `factories`). Empty when
    /// the campus was generated without hotspot clustering.
    pub factory_cluster: Vec<usize>,
}

impl Campus {
    /// Generates a campus from the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration has zero depots or factories (a campus
    /// without both cannot host any order).
    pub fn generate(config: &CampusConfig) -> Self {
        assert!(config.num_depots > 0, "campus needs at least one depot");
        assert!(
            config.num_factories > 0,
            "campus needs at least one factory"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut nodes = Vec::with_capacity(config.num_depots + config.num_factories);
        let mut factory_cluster = Vec::new();
        if config.hotspots >= 2 {
            // Metro layout: hotspot centres on a ring around the area
            // centre (with angular jitter), nodes gathered gaussian around
            // their round-robin hotspot.
            let c = config.hotspots;
            let mid = config.area_km / 2.0;
            let ring = config.area_km * 0.35;
            let centres: Vec<Point> = (0..c)
                .map(|i| {
                    let jitter = rng.random_range(-0.25..0.25) / c as f64;
                    let angle = (i as f64 / c as f64 + jitter) * std::f64::consts::TAU;
                    Point::new(mid + ring * angle.cos(), mid + ring * angle.sin())
                })
                .collect();
            let gauss = |rng: &mut StdRng, centre: Point| {
                // Box–Muller pair for an isotropic spread around the centre.
                let u1: f64 = rng.random_range(f64::EPSILON..1.0);
                let u2: f64 = rng.random_range(0.0..1.0);
                let r = (-2.0 * u1.ln()).sqrt() * config.hotspot_spread_km;
                let theta = std::f64::consts::TAU * u2;
                Point::new(centre.x + r * theta.cos(), centre.y + r * theta.sin())
            };
            for i in 0..config.num_depots {
                let centre = centres[i % c];
                nodes.push(Node::depot(NodeId::from_index(i), gauss(&mut rng, centre)));
            }
            for i in 0..config.num_factories {
                let cluster = i % c;
                factory_cluster.push(cluster);
                nodes.push(Node::factory(
                    NodeId::from_index(config.num_depots + i),
                    gauss(&mut rng, centres[cluster]),
                ));
            }
        } else {
            let place = |rng: &mut StdRng| {
                Point::new(
                    rng.random_range(0.0..config.area_km),
                    rng.random_range(0.0..config.area_km),
                )
            };
            for i in 0..config.num_depots {
                nodes.push(Node::depot(NodeId::from_index(i), place(&mut rng)));
            }
            for i in 0..config.num_factories {
                nodes.push(Node::factory(
                    NodeId::from_index(config.num_depots + i),
                    place(&mut rng),
                ));
            }
        }
        let network = RoadNetwork::euclidean(nodes, config.detour_factor)
            .expect("generated nodes are dense and detour factor validated");
        let depots = network.depots();
        let factories = network.factories();
        Campus {
            network,
            depots,
            factories,
            factory_cluster,
        }
    }

    /// Number of factories `n`.
    pub fn num_factories(&self) -> usize {
        self.factories.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campus_matches_paper_shape() {
        let campus = Campus::generate(&CampusConfig::default());
        assert_eq!(campus.num_factories(), 27);
        assert_eq!(campus.depots.len(), 2);
        assert_eq!(campus.network.num_nodes(), 29);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = CampusConfig::default();
        let a = Campus::generate(&cfg);
        let b = Campus::generate(&cfg);
        for (na, nb) in a.network.nodes().iter().zip(b.network.nodes()) {
            assert_eq!(na.pos, nb.pos);
        }
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let c = Campus::generate(&cfg2);
        assert_ne!(a.network.nodes()[0].pos, c.network.nodes()[0].pos);
    }

    #[test]
    fn distances_respect_detour_factor() {
        let campus = Campus::generate(&CampusConfig::default());
        let nodes = campus.network.nodes();
        let i = campus.factories[0];
        let j = campus.factories[1];
        let euclid = nodes[i.index()].pos.distance(&nodes[j.index()].pos);
        let road = campus.network.distance(i, j);
        assert!((road - euclid * 1.3).abs() < 1e-9);
    }

    #[test]
    fn hotspot_campus_forms_separated_clusters() {
        let cfg = CampusConfig {
            num_depots: 4,
            num_factories: 28,
            area_km: 60.0,
            hotspots: 4,
            hotspot_spread_km: 1.5,
            ..CampusConfig::default()
        };
        let campus = Campus::generate(&cfg);
        assert_eq!(campus.factory_cluster.len(), 28);
        assert!(campus.factory_cluster.iter().all(|&c| c < 4));
        // Same-cluster factories sit far closer together than cross-cluster
        // ones: compare mean intra vs inter distances.
        let pos = |id: NodeId| campus.network.nodes()[id.index()].pos;
        let (mut intra, mut inter, mut ni, mut nx) = (0.0, 0.0, 0usize, 0usize);
        for (a, &ca) in campus.factories.iter().zip(&campus.factory_cluster) {
            for (b, &cb) in campus.factories.iter().zip(&campus.factory_cluster) {
                if a >= b {
                    continue;
                }
                let d = pos(*a).distance(&pos(*b));
                if ca == cb {
                    intra += d;
                    ni += 1;
                } else {
                    inter += d;
                    nx += 1;
                }
            }
        }
        let (intra, inter) = (intra / ni as f64, inter / nx as f64);
        assert!(
            inter > 4.0 * intra,
            "clusters not separated: intra {intra:.1} km vs inter {inter:.1} km"
        );
        // One depot lands in each hotspot.
        assert_eq!(campus.depots.len(), 4);
    }

    #[test]
    fn legacy_campus_has_no_cluster_labels() {
        let campus = Campus::generate(&CampusConfig::default());
        assert!(campus.factory_cluster.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one depot")]
    fn zero_depots_panics() {
        let cfg = CampusConfig {
            num_depots: 0,
            ..CampusConfig::default()
        };
        let _ = Campus::generate(&cfg);
    }
}
