//! Property-based tests for the core problem types.

use dpdp_net::*;
use proptest::prelude::*;

fn arb_points(n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), n..=n)
}

fn network_from(points: &[(f64, f64)], detour: f64) -> RoadNetwork {
    let nodes: Vec<Node> = points
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            if i == 0 {
                Node::depot(NodeId::from_index(i), Point::new(x, y))
            } else {
                Node::factory(NodeId::from_index(i), Point::new(x, y))
            }
        })
        .collect();
    RoadNetwork::euclidean(nodes, detour).unwrap()
}

/// SplitMix64: the seeded stream [`euclidean_flag_is_the_scan`] builds each
/// network from, so a failing seed replays alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One seeded network of 2–24 points: random, near-collinear (on a line
/// up to a perpendicular jitter of at most 1e-9 of the extent) or with
/// about half the points duplicating earlier ones; extent log-uniform in
/// 1e-3..1e8 km around a random offset, detour factor in [1, 1.5].
fn seeded_points(seed: u64) -> (Vec<Node>, f64) {
    let mut rng = SplitMix(seed);
    let n = 2 + (rng.next() % 23) as usize;
    let extent = 10f64.powf(-3.0 + 11.0 * rng.unit());
    let detour = 1.0 + 0.5 * rng.unit();
    let shape = rng.next() % 3;
    let (ox, oy) = (extent * rng.unit(), extent * rng.unit());
    let angle = std::f64::consts::TAU * rng.unit();
    let jitter = extent * 1e-9 * rng.unit();
    let mut points: Vec<(f64, f64)> = Vec::with_capacity(n);
    for i in 0..n {
        let point = if shape == 1 {
            let t = extent * rng.unit();
            let h = jitter * (2.0 * rng.unit() - 1.0);
            (
                ox + t * angle.cos() - h * angle.sin(),
                oy + t * angle.sin() + h * angle.cos(),
            )
        } else if shape == 2 && i > 0 && rng.next().is_multiple_of(2) {
            points[(rng.next() % i as u64) as usize]
        } else {
            (ox + extent * rng.unit(), oy + extent * rng.unit())
        };
        points.push(point);
    }
    let nodes = points
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| Node::factory(NodeId::from_index(i), Point::new(x, y)))
        .collect();
    (nodes, detour)
}

/// `euclidean` proves the metric flag up to 1e5 km and scans above it;
/// either way the flag is the verdict `with_matrix`'s scan gives on the
/// same distances — and both verdicts occur, so the comparison is live on
/// both sides of the bound.
#[test]
fn euclidean_flag_is_the_scan() {
    let mut verdicts = [0usize; 2];
    for seed in 0..3000u64 {
        let (nodes, detour) = seeded_points(seed);
        let net = RoadNetwork::euclidean(nodes.clone(), detour).unwrap();
        let n = net.num_nodes();
        let dist: Vec<f64> = (0..n * n)
            .map(|e| net.distance(NodeId::from_index(e / n), NodeId::from_index(e % n)))
            .collect();
        let scanned = RoadNetwork::with_matrix(nodes, dist).unwrap().is_metric();
        assert_eq!(net.is_metric(), scanned, "seed {seed}");
        verdicts[usize::from(scanned)] += 1;
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "verdicts (non-metric, metric): {verdicts:?}"
    );
}

proptest! {
    /// Euclidean networks satisfy metric axioms: zero diagonal, symmetry,
    /// triangle inequality (all scaled by the same detour factor).
    #[test]
    fn euclidean_network_is_metric(pts in arb_points(6), detour in 1.0f64..2.0) {
        let net = network_from(&pts, detour);
        let n = net.num_nodes();
        for i in 0..n {
            let ni = NodeId::from_index(i);
            prop_assert_eq!(net.distance(ni, ni), 0.0);
            for j in 0..n {
                let nj = NodeId::from_index(j);
                prop_assert!((net.distance(ni, nj) - net.distance(nj, ni)).abs() < 1e-9);
                for k in 0..n {
                    let nk = NodeId::from_index(k);
                    prop_assert!(
                        net.distance(ni, nk) <= net.distance(ni, nj) + net.distance(nj, nk) + 1e-9
                    );
                }
            }
        }
    }

    /// Path length is additive over concatenation.
    #[test]
    fn path_length_is_additive(pts in arb_points(5)) {
        let net = network_from(&pts, 1.0);
        let a = [NodeId(0), NodeId(1), NodeId(2)];
        let b = [NodeId(2), NodeId(3), NodeId(4)];
        let joined = [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let sum = net.path_length(&a) + net.path_length(&b);
        prop_assert!((net.path_length(&joined) - sum).abs() < 1e-9);
    }

    /// Interval mapping is total, in-range, and monotone in time.
    #[test]
    fn interval_grid_is_monotone(
        horizon_h in 1.0f64..48.0,
        n in 1usize..500,
        times in proptest::collection::vec(0.0f64..200_000.0, 2..20),
    ) {
        let grid = IntervalGrid::new(TimeDelta::from_hours(horizon_h), n);
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0usize;
        for (i, &t) in sorted.iter().enumerate() {
            let idx = grid.interval_of(TimePoint::from_seconds(t));
            prop_assert!(idx < n);
            if i > 0 {
                prop_assert!(idx >= prev, "interval_of must be monotone");
            }
            prev = idx;
        }
    }

    /// `interval_start` is a left inverse of `interval_of`.
    #[test]
    fn interval_start_left_inverse(n in 1usize..300, idx_frac in 0.0f64..1.0) {
        let grid = IntervalGrid::new(TimeDelta::from_hours(24.0), n);
        let idx = ((n as f64 - 1.0) * idx_frac) as usize;
        prop_assert_eq!(grid.interval_of(grid.interval_start(idx)), idx);
    }

    /// Orders constructed with valid parameters always produce valid
    /// windows containing their creation time.
    #[test]
    fn order_window_contains_creation(
        q in 0.1f64..100.0,
        created_h in 0.0f64..24.0,
        slack_h in 0.0f64..24.0,
    ) {
        let o = Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(2),
            q,
            TimePoint::from_hours(created_h),
            TimePoint::from_hours(created_h + slack_h),
        ).unwrap();
        prop_assert!(o.window().contains(o.created));
        prop_assert!(o.window().contains(o.deadline));
        prop_assert!((o.window().length().seconds() - slack_h * 3600.0).abs() < 1e-6);
    }

    /// Fleet cost is linear in both NUV and TTL.
    #[test]
    fn fleet_cost_linearity(
        mu in 1.0f64..1000.0,
        delta in 0.1f64..10.0,
        nuv in 0usize..100,
        ttl in 0.0f64..10_000.0,
    ) {
        let fleet = FleetConfig::homogeneous(
            1, &[NodeId(0)], 10.0, mu, delta, 40.0, TimeDelta::ZERO,
        ).unwrap();
        let base = fleet.total_cost(nuv, ttl);
        prop_assert!((fleet.total_cost(nuv + 1, ttl) - base - mu).abs() < 1e-9);
        prop_assert!((fleet.total_cost(nuv, ttl + 1.0) - base - delta).abs() < 1e-9);
    }

    /// Instances sort orders by creation time with dense ids, for any
    /// shuffled input.
    #[test]
    fn instance_sorts_and_reindexes(times in proptest::collection::vec(0.0f64..86_000.0, 1..20)) {
        let net = network_from(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)], 1.0);
        let fleet = FleetConfig::homogeneous(
            2, &[NodeId(0)], 10.0, 100.0, 1.0, 40.0, TimeDelta::ZERO,
        ).unwrap();
        let orders: Vec<Order> = times.iter().enumerate().map(|(i, &t)| {
            Order::new(
                OrderId(i as u32),
                NodeId(1),
                NodeId(2),
                1.0,
                TimePoint::from_seconds(t),
                TimePoint::from_seconds(t + 3600.0),
            ).unwrap()
        }).collect();
        let inst = Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap();
        for (i, o) in inst.orders().iter().enumerate() {
            prop_assert_eq!(o.id.index(), i);
            if i > 0 {
                prop_assert!(o.created >= inst.orders()[i - 1].created);
            }
        }
    }
}
