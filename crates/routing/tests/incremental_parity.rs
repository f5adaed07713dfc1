//! Randomized parity: the incremental O(n²) insertion evaluator must agree
//! with the naive enumerate-and-resimulate reference on every randomly
//! generated scenario — feasibility count, the full feasible position set,
//! per-candidate lengths (within 1e-9), and the winning candidate's exact
//! `(pickup_pos, delivery_pos)` and bit-identical route length.
//!
//! The same cases pin the score/materialise split: a score materialises to
//! exactly the naive winner and already carries its bit-identical length,
//! and the allocation-free oracle walk ([`simulate_insertion`]) returns, for
//! every position pair of a sample of the routes, the verdict and totals
//! of [`simulate_schedule`] over the materialised route.
//!
//! Scenarios cover idle vehicles at the depot and in-service vehicles
//! advanced partway through their route with non-empty onboard LIFO stacks,
//! over random geometry, capacities, speeds, service times and deadline
//! tightness (including zero-feasible epochs).

use dpdp_net::{
    FleetConfig, Node, NodeId, Order, OrderId, Point, RoadNetwork, TimeDelta, TimePoint, VehicleId,
};
use dpdp_routing::{
    best_insertion, best_insertion_naive, enumerate_insertions, simulate_insertion,
    simulate_schedule, sweep_insertions, RoutePlanner, ScheduleCache, Stop, StopAction,
    VehicleView,
};

/// Minimal deterministic RNG (xorshift64*), independent of any shimmed
/// external crate.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform f64 in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform f64 in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform usize in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

struct Scenario {
    net: RoadNetwork,
    fleet: FleetConfig,
    orders: Vec<Order>,
}

fn scenario(rng: &mut Rng) -> Scenario {
    let num_factories = 4 + rng.below(6);
    let mut nodes = vec![Node::depot(NodeId(0), Point::new(0.0, 0.0))];
    for f in 0..num_factories {
        nodes.push(Node::factory(
            NodeId::from_index(f + 1),
            Point::new(rng.range(0.0, 60.0), rng.range(0.0, 60.0)),
        ));
    }
    let net = RoadNetwork::euclidean(nodes, rng.range(1.0, 1.4)).unwrap();
    let capacity = rng.range(8.0, 20.0);
    let service = if rng.f64() < 0.3 {
        TimeDelta::ZERO
    } else {
        TimeDelta::from_seconds(rng.range(60.0, 420.0))
    };
    let fleet = FleetConfig::homogeneous(
        1,
        &[NodeId(0)],
        capacity,
        300.0,
        2.0,
        rng.range(30.0, 70.0),
        service,
    )
    .unwrap();
    let num_orders = 5 + rng.below(6);
    let orders = (0..num_orders)
        .map(|i| {
            let p = 1 + rng.below(num_factories);
            let mut d = 1 + rng.below(num_factories);
            if d == p {
                d = 1 + (p % num_factories);
            }
            let created = rng.range(0.0, 10.0);
            // Mix loose and tight deadlines so infeasible candidates (and
            // whole infeasible epochs) occur regularly.
            let slack = if rng.f64() < 0.35 {
                rng.range(0.4, 2.0)
            } else {
                rng.range(3.0, 14.0)
            };
            Order::new(
                OrderId(i as u32),
                NodeId::from_index(p),
                NodeId::from_index(d),
                rng.range(0.5, capacity * 0.7),
                TimePoint::from_hours(created),
                TimePoint::from_hours(created + slack),
            )
            .unwrap()
        })
        .collect();
    Scenario { net, fleet, orders }
}

/// Builds a view carrying all but the last order (greedy reference
/// insertions), then optionally advances it `advance` stops into service,
/// replaying the onboard LIFO stack exactly as the simulator would.
fn make_view(sc: &Scenario, rng: &mut Rng, advance: bool) -> Option<VehicleView> {
    let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
    for order in &sc.orders[..sc.orders.len() - 1] {
        if let Some(best) = best_insertion_naive(&view, order, &sc.net, &sc.fleet, &sc.orders) {
            view.route = best.candidate.route;
            view.used = true;
        }
    }
    if !advance {
        return Some(view);
    }
    if view.route.is_empty() {
        return None;
    }
    let schedule = simulate_schedule(&view, &view.route, &sc.net, &sc.fleet, &sc.orders)
        .expect("accumulated route is feasible");
    let m = 1 + rng.below(view.route.len());
    for timing in &schedule.timings[..m] {
        let stop = view.route.pop_front().expect("route has m stops");
        assert_eq!(stop, timing.stop);
        match stop.action {
            StopAction::Pickup(id) => {
                let q = sc.orders[id.index()].quantity;
                view.onboard.push((id, q));
            }
            StopAction::Delivery(_) => {
                view.onboard.pop();
            }
        }
        view.anchor_node = stop.node;
        view.anchor_time = timing.departure;
    }
    Some(view)
}

fn assert_parity(sc: &Scenario, view: &VehicleView, label: &str) {
    let probe = sc.orders.last().unwrap();
    let naive = enumerate_insertions(view, probe, &sc.net, &sc.fleet, &sc.orders);
    let cache = ScheduleCache::build(view, &sc.net, &sc.fleet, &sc.orders);
    assert!(cache.is_feasible(), "{label}: base route must be feasible");
    assert_eq!(cache.len(), view.route.len(), "{label}: cache length");

    // Full feasibility-set parity: same pairs in the same enumeration
    // order, lengths within 1e-9 of the simulated candidate lengths.
    let mut swept = Vec::new();
    sweep_insertions(&cache, view, probe, &sc.net, &sc.fleet, &sc.orders, |c| {
        swept.push(c)
    });
    assert_eq!(
        swept.len(),
        naive.len(),
        "{label}: feasibility count diverged (route n = {})",
        view.route.len()
    );
    for (s, c) in swept.iter().zip(&naive) {
        assert_eq!(
            (s.pickup_pos, s.delivery_pos),
            (c.pickup_pos, c.delivery_pos),
            "{label}: feasible sets diverged"
        );
        assert!(
            (s.length - c.length()).abs() < 1e-9,
            "{label}: length mismatch at ({}, {}): {} vs {}",
            s.pickup_pos,
            s.delivery_pos,
            s.length,
            c.length()
        );
    }

    // Winner parity: identical positions, bit-identical length, identical
    // bookkeeping counts.
    let fast = best_insertion(view, probe, &sc.net, &sc.fleet, &sc.orders);
    let slow = best_insertion_naive(view, probe, &sc.net, &sc.fleet, &sc.orders);

    // The split: the score alone carries the winner's authoritative length,
    // and materialising it yields the naive winner, route and schedule.
    let planner = RoutePlanner::new(&sc.net, &sc.fleet, &sc.orders);
    let score = planner.score_cached(&cache, view, probe);
    let out = planner.materialise(&score, view, probe);
    assert_eq!(out.best.as_deref(), slow.as_ref(), "{label}: materialise");
    assert_eq!(out.score(), score, "{label}: score round trip");
    assert_eq!(
        score.best.map(|b| b.length.to_bits()),
        out.best
            .as_ref()
            .map(|b| b.candidate.schedule.total_length.to_bits()),
        "{label}: scored length is not the schedule's"
    );

    match (fast, slow) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(
                (a.candidate.pickup_pos, a.candidate.delivery_pos),
                (b.candidate.pickup_pos, b.candidate.delivery_pos),
                "{label}: winning positions diverged"
            );
            assert_eq!(a.candidate.route, b.candidate.route, "{label}: routes");
            assert_eq!(
                a.length().to_bits(),
                b.length().to_bits(),
                "{label}: winning length not bit-identical"
            );
            assert_eq!(a.num_feasible, b.num_feasible, "{label}: num_feasible");
            assert_eq!(
                a.num_enumerated, b.num_enumerated,
                "{label}: num_enumerated"
            );
        }
        (a, b) => panic!(
            "{label}: one path found a winner, the other did not: \
             incremental = {:?}, naive = {:?}",
            a.map(|x| x.length()),
            b.map(|x| x.length())
        ),
    }
}

/// For every position pair of `view`'s route, feasible or not, the walk
/// over the spliced stop sequence agrees with the oracle over the
/// materialised route: same totals bit for bit, or the same violation.
fn assert_walk_parity(sc: &Scenario, view: &VehicleView, label: &str) {
    let probe = sc.orders.last().unwrap();
    let pickup = Stop::pickup(probe.pickup, probe.id);
    let delivery = Stop::delivery(probe.delivery, probe.id);
    let bits = |length: f64, back: TimePoint, load: f64| {
        (length.to_bits(), back.seconds().to_bits(), load.to_bits())
    };
    let n = view.route.len();
    for i in 0..=n {
        for j in i..=n {
            let walked = simulate_insertion(view, probe, i, j, &sc.net, &sc.fleet, &sc.orders);
            let route = view.route.with_insertion(pickup, i, delivery, j);
            let simulated = simulate_schedule(view, &route, &sc.net, &sc.fleet, &sc.orders);
            assert_eq!(
                walked.map(|t| bits(t.total_length, t.return_time, t.max_load)),
                simulated.map(|s| bits(s.total_length, s.return_time, s.max_load)),
                "{label}: walk diverged at ({i}, {j})"
            );
        }
    }
}

#[test]
fn incremental_matches_naive_on_random_idle_routes() {
    let mut rng = Rng::new(0xD1D5_2024);
    let mut nonempty = 0;
    for case in 0..300 {
        let sc = scenario(&mut rng);
        let view = make_view(&sc, &mut rng, false).unwrap();
        if view.route.len() >= 4 {
            nonempty += 1;
        }
        assert_parity(&sc, &view, &format!("idle case {case}"));
        if case % 25 == 0 {
            assert_walk_parity(&sc, &view, &format!("idle case {case}"));
        }
    }
    assert!(
        nonempty >= 150,
        "generator degenerated: only {nonempty} multi-stop routes"
    );
}

#[test]
fn incremental_matches_naive_on_in_service_vehicles() {
    let mut rng = Rng::new(0xBEEF_0042);
    let mut with_stack = 0;
    for case in 0..300 {
        let sc = scenario(&mut rng);
        let Some(view) = make_view(&sc, &mut rng, true) else {
            continue;
        };
        if !view.onboard.is_empty() {
            with_stack += 1;
        }
        assert_parity(&sc, &view, &format!("in-service case {case}"));
        if case % 25 == 0 {
            assert_walk_parity(&sc, &view, &format!("in-service case {case}"));
        }
    }
    assert!(
        with_stack >= 60,
        "generator degenerated: only {with_stack} views had cargo on board"
    );
}

/// Deadline-starved scenarios where whole epochs are infeasible: both paths
/// must agree on the (frequently empty) feasible set.
#[test]
fn incremental_matches_naive_under_tight_deadlines() {
    let mut rng = Rng::new(0x7EA_0001);
    let mut infeasible_epochs = 0;
    for case in 0..200 {
        let mut sc = scenario(&mut rng);
        // Clamp every deadline towards creation: most insertions die.
        for o in &mut sc.orders {
            let slack_h = rng.range(0.05, 0.6);
            o.deadline = o.created + TimeDelta::from_hours(slack_h);
        }
        let view = make_view(&sc, &mut rng, false).unwrap();
        let probe = sc.orders.last().unwrap();
        if enumerate_insertions(&view, probe, &sc.net, &sc.fleet, &sc.orders).is_empty() {
            infeasible_epochs += 1;
        }
        assert_parity(&sc, &view, &format!("tight case {case}"));
        if case % 25 == 0 {
            assert_walk_parity(&sc, &view, &format!("tight case {case}"));
        }
    }
    assert!(
        infeasible_epochs >= 20,
        "generator degenerated: only {infeasible_epochs} zero-feasible cases"
    );
}
