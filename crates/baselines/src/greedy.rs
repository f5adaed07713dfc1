//! The three greedy insertion baselines (Section V-A).
//!
//! Each baseline is an argmin over the vehicles with a feasible insertion
//! under a strict comparison, ties going to the lower vehicle id. The
//! tie-break is explicit — a candidate whose key neither beats nor loses to
//! the incumbent's wins on the lower id — because a batch's candidate row
//! is not visited in ascending vehicle order (an idle-twin group is one
//! column, its members visited together; see
//! [`DecisionBatch::fold_candidates`]); for a strict weak order it picks
//! what an ascending first-wins scan picks, whatever the visit order. Its
//! key is a function of a [`PlanScore`] — the
//! scalars Algorithm 2 scores for an `(order, vehicle)` pair; no baseline
//! looks inside a route. The per-order [`Dispatcher::dispatch`] scans the
//! score of every vehicle's plan in its [`DispatchContext`]; the
//! batch-native [`Dispatcher::dispatch_batch`] commits the epoch's orders
//! in creation order and, for each, folds the same comparison over the
//! batch's own candidate row at decision time
//! ([`DecisionBatch::fold_candidates`]). A batch's cells *are* scores, so
//! on that path no route exists until `resolve` builds the winner's — the
//! policy pays for none, the epoch for one per accepted order. The
//! policies keep no copy of the plan matrix: the batch refreshes the
//! accepting vehicle's column itself on every acceptance, and the next
//! order's fold simply reads the refreshed row.
//!
//! A candidate row carries only the cells the shard-local sweeps and
//! commit deltas of the layout (`SimulatorBuilder::sharding`) actually
//! evaluated: masked vehicles and cross-shard pairs the exact geometric
//! bound proves infeasible never appear, and since an absent cell is
//! `best: None` it could never win an argmin anyway — same argmins, same
//! episodes as the per-order path, with per-order policy work
//! proportional to the candidate count instead of `K`. Under the default
//! one-cell layout the row is every active vehicle (`tests/batch_parity.rs`
//! asserts both the per-order parity and the shard-count invariance for
//! all three baselines).

use dpdp_net::{Instance, VehicleId};
use dpdp_routing::PlanScore;
use dpdp_sim::{Decision, DecisionBatch, DispatchContext, Dispatcher};

/// One step of a greedy scan: `best` is the running `(vehicle, key)`
/// winner, `key` the candidate's (`None` = infeasible, never wins), and
/// `better(candidate, incumbent)` the policy's strict comparison. Equal
/// keys — neither better than the other — go to the lower vehicle id, so
/// the winner does not depend on the order the candidates come in.
fn keep_better<K: Copy>(
    best: Option<(VehicleId, K)>,
    k: VehicleId,
    key: Option<K>,
    better: impl Fn(K, K) -> bool,
) -> Option<(VehicleId, K)> {
    match (key, best) {
        (None, _) => best,
        (Some(v), Some((bk, b))) if !(better(v, b) || (k < bk && !better(b, v))) => best,
        (Some(v), _) => Some((k, v)),
    }
}

/// Scans the scores of a per-order context's plans, vehicle by vehicle in
/// ascending order, with [`keep_better`].
fn scan_context<K: Copy>(
    ctx: &DispatchContext<'_>,
    key: impl Fn(VehicleId, &PlanScore) -> Option<K>,
    better: impl Fn(K, K) -> bool,
) -> Option<VehicleId> {
    (0..ctx.num_vehicles())
        .map(VehicleId::from_index)
        .fold(None, |best, k| {
            keep_better(best, k, key(k, &ctx.plan(k.index()).score()), &better)
        })
        .map(|(k, _)| k)
}

/// Folds [`keep_better`] over the `i`-th order's candidate row (visited by
/// column, not in ascending vehicle order).
fn scan_candidates<K: Copy>(
    batch: &DecisionBatch<'_>,
    i: usize,
    key: impl Fn(VehicleId, &PlanScore) -> Option<K>,
    better: impl Fn(K, K) -> bool,
) -> Option<VehicleId> {
    batch
        .fold_candidates(i, None, |best, k, p| {
            keep_better(best, k, key(k, p), &better)
        })
        .map(|(k, _)| k)
}

/// Per-order dispatch for a lowest-`score` policy (`None` = infeasible).
fn lowest_score(
    ctx: &DispatchContext<'_>,
    score: impl Fn(&PlanScore) -> Option<f64>,
) -> Option<VehicleId> {
    scan_context(ctx, |_, p| score(p), |v, b| v < b)
}

/// Batch-native dispatch for a lowest-`score` policy: orders commit in
/// creation order, each choosing over its candidate row as it stands after
/// the commits before it.
fn lowest_score_batch(
    batch: &DecisionBatch<'_>,
    score: impl Fn(&PlanScore) -> Option<f64>,
) -> Vec<Decision> {
    (0..batch.len())
        .map(|i| {
            let choice = scan_candidates(batch, i, |_, p| score(p), |v, b| v < b);
            batch.resolve(i, choice)
        })
        .collect()
}

/// Baseline 1 (Mitrovic-Minic & Laporte): the vehicle with the **shortest
/// incremental route length** after accepting the order. This is the
/// strategy deployed in the paper's UAT environment.
#[derive(Debug, Default, Clone)]
pub struct Baseline1;

impl Dispatcher for Baseline1 {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        lowest_score(ctx, PlanScore::incremental_length)
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        lowest_score_batch(batch, PlanScore::incremental_length)
    }

    fn name(&self) -> &str {
        "Baseline1"
    }
}

/// Baseline 2: the vehicle with the **shortest total route length** after
/// accepting the order.
#[derive(Debug, Default, Clone)]
pub struct Baseline2;

impl Dispatcher for Baseline2 {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        lowest_score(ctx, PlanScore::best_length)
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        lowest_score_batch(batch, PlanScore::best_length)
    }

    fn name(&self) -> &str {
        "Baseline2"
    }
}

/// Baseline 3 (adapted from Grandinetti et al.): the vehicle with the
/// **largest number of accepted orders**, reducing fixed cost by minimising
/// the number of used vehicles. Ties break toward the smaller incremental
/// length.
#[derive(Debug, Default, Clone)]
pub struct Baseline3 {
    accepted: Vec<usize>,
}

impl Baseline3 {
    /// Sizes the counters for a dispatch outside an episode bracket.
    fn ensure_counts(&mut self, num_vehicles: usize) {
        if self.accepted.len() != num_vehicles {
            self.accepted = vec![0; num_vehicles];
        }
    }

    /// A feasible plan's `(accepted count, incremental length)` key.
    fn key(&self, k: VehicleId, plan: &PlanScore) -> Option<(usize, f64)> {
        Some((self.accepted[k.index()], plan.incremental_length()?))
    }

    /// More accepted orders wins; equal counts fall to the shorter detour.
    fn better((count, delta): (usize, f64), (bc, bd): (usize, f64)) -> bool {
        count > bc || (count == bc && delta < bd)
    }
}

impl Dispatcher for Baseline3 {
    fn begin_episode(&mut self, instance: &Instance) {
        self.accepted = vec![0; instance.num_vehicles()];
    }

    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        self.ensure_counts(ctx.num_vehicles());
        let k = scan_context(ctx, |k, p| self.key(k, p), Self::better)?;
        self.accepted[k.index()] += 1;
        Some(k)
    }

    fn dispatch_batch(&mut self, batch: &DecisionBatch<'_>) -> Vec<Decision> {
        self.ensure_counts(batch.num_vehicles());
        (0..batch.len())
            .map(|i| {
                let choice = scan_candidates(batch, i, |k, p| self.key(k, p), Self::better);
                let decision = batch.resolve(i, choice);
                if let Some(k) = decision.vehicle {
                    self.accepted[k.index()] += 1;
                }
                decision
            })
            .collect()
    }

    fn name(&self) -> &str {
        "Baseline3"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{
        FleetConfig, Instance, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork,
        TimeDelta, TimePoint,
    };
    use dpdp_sim::{EpochProfile, SimObserver, Simulator, Stage};

    /// Two far-apart lanes: orders alternate between them. Baseline 3
    /// crams everything onto one vehicle (fewest vehicles, long detours),
    /// Baseline 1 splits by marginal distance.
    fn instance() -> Instance {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(10.0, 0.0)),
            Node::factory(NodeId(2), Point::new(20.0, 0.0)),
            Node::factory(NodeId(3), Point::new(0.0, 50.0)),
            Node::factory(NodeId(4), Point::new(0.0, 60.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet =
            FleetConfig::homogeneous(4, &[NodeId(0)], 50.0, 300.0, 2.0, 60.0, TimeDelta::ZERO)
                .unwrap();
        let orders = vec![
            Order::new(
                OrderId(0),
                NodeId(1),
                NodeId(2),
                5.0,
                TimePoint::from_hours(8.0),
                TimePoint::from_hours(23.0),
            )
            .unwrap(),
            Order::new(
                OrderId(1),
                NodeId(3),
                NodeId(4),
                5.0,
                TimePoint::from_hours(8.5),
                TimePoint::from_hours(23.0),
            )
            .unwrap(),
            Order::new(
                OrderId(2),
                NodeId(1),
                NodeId(2),
                5.0,
                TimePoint::from_hours(9.0),
                TimePoint::from_hours(23.0),
            )
            .unwrap(),
        ];
        Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
    }

    #[test]
    fn baseline1_minimises_marginal_distance() {
        let inst = instance();
        let r = Simulator::builder(&inst)
            .build()
            .unwrap()
            .run(&mut Baseline1);
        assert_eq!(r.metrics.served, 3);
        // B1 never pays more than a fresh vehicle would: an empty vehicle is
        // always available in this instance, so each order's incremental
        // length is bounded by its own depot -> pickup -> delivery -> depot
        // loop.
        for a in &r.assignments {
            let o = &inst.orders()[a.order.index()];
            let fresh = inst.network.distance(NodeId(0), o.pickup)
                + inst.network.distance(o.pickup, o.delivery)
                + inst.network.distance(o.delivery, NodeId(0));
            assert!(
                a.incremental_length() <= fresh + 1e-9,
                "order {} cost {} km, more than a fresh vehicle's {fresh}",
                a.order,
                a.incremental_length()
            );
        }
    }

    /// Baseline 1 reads candidate rows and has no row of routes built: a
    /// profiled epoch charges `Materialise` nothing and `Resolve` once per
    /// order.
    #[test]
    fn baseline1_materialises_no_row() {
        struct Profiles(Vec<EpochProfile>);
        impl SimObserver for Profiles {
            fn wants_profile(&self) -> bool {
                true
            }
            fn on_epoch_profile(&mut self, profile: &EpochProfile) {
                self.0.push(*profile);
            }
        }
        let inst = instance();
        let mut profiles = Profiles(Vec::new());
        let sim = Simulator::builder(&inst).build().unwrap();
        sim.run_observed(&mut Baseline1, &mut [&mut profiles]);
        // Three orders at three instants: three one-order epochs.
        assert_eq!(profiles.0.len(), 3);
        for profile in &profiles.0 {
            assert_eq!(profile.calls(Stage::Materialise), 0);
            assert_eq!(profile.calls(Stage::Resolve), 1);
        }
    }

    #[test]
    fn baseline1_routes_to_the_nearest_depot_vehicle() {
        // Two depots far apart; the order sits next to depot 1, so the
        // minimum-incremental-length vehicle is the one stationed there.
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::depot(NodeId(1), Point::new(100.0, 0.0)),
            Node::factory(NodeId(2), Point::new(90.0, 0.0)),
            Node::factory(NodeId(3), Point::new(95.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet = FleetConfig::homogeneous(
            2,
            &[NodeId(0), NodeId(1)],
            10.0,
            300.0,
            2.0,
            60.0,
            TimeDelta::ZERO,
        )
        .unwrap();
        let orders = vec![Order::new(
            OrderId(0),
            NodeId(2),
            NodeId(3),
            5.0,
            TimePoint::from_hours(8.0),
            TimePoint::from_hours(20.0),
        )
        .unwrap()];
        let inst = Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap();
        let r = Simulator::builder(&inst)
            .build()
            .unwrap()
            .run(&mut Baseline1);
        assert_eq!(
            r.assignments[0].vehicle,
            Some(dpdp_net::VehicleId(1)),
            "vehicle at the nearby depot should win"
        );
        // 100 -> 90 -> 95 -> 100: 10 + 5 + 5 = 20 km.
        assert!((r.metrics.ttl - 20.0).abs() < 1e-9);
    }

    #[test]
    fn baseline3_uses_fewest_vehicles() {
        let inst = instance();
        let r3 = Simulator::builder(&inst)
            .build()
            .unwrap()
            .run(&mut Baseline3::default());
        let r1 = Simulator::builder(&inst)
            .build()
            .unwrap()
            .run(&mut Baseline1);
        assert_eq!(r3.metrics.served, 3);
        assert!(
            r3.metrics.nuv <= r1.metrics.nuv,
            "B3 NUV {} should not exceed B1 NUV {}",
            r3.metrics.nuv,
            r1.metrics.nuv
        );
        // And pays for it in travel length.
        assert!(r3.metrics.ttl >= r1.metrics.ttl);
    }

    #[test]
    fn baseline2_serves_everything() {
        let inst = instance();
        let r = Simulator::builder(&inst)
            .build()
            .unwrap()
            .run(&mut Baseline2);
        assert_eq!(r.metrics.served, 3);
        // Baseline 2 favours short *total* routes, so it spreads orders over
        // fresh (empty) vehicles whenever that keeps routes short.
        assert!(r.metrics.nuv >= 2);
    }

    /// Any visit order gives the ascending first-wins scan's winner: random
    /// keys drawn from a handful of values (so most of them tie), for the
    /// lowest-score baselines and for Baseline 3's `(accepted, delta)`
    /// pairs — twins share a delta but not necessarily a count — visited in
    /// a shuffled order.
    mod visit_order {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        /// The reference: ascending vehicle order, a candidate replaces the
        /// incumbent only when strictly better.
        fn ascending<K: Copy>(keys: &[Option<K>], better: impl Fn(K, K) -> bool) -> Option<usize> {
            let mut best: Option<(usize, K)> = None;
            for (k, key) in keys.iter().enumerate() {
                if let Some(v) = *key {
                    if best.is_none_or(|(_, b)| better(v, b)) {
                        best = Some((k, v));
                    }
                }
            }
            best.map(|(k, _)| k)
        }

        /// [`keep_better`] over `keys` in the order `visit` names them.
        fn visited<K: Copy>(
            keys: &[Option<K>],
            visit: &[usize],
            better: impl Fn(K, K) -> bool,
        ) -> Option<usize> {
            let scan = visit.iter().fold(None, |best, &k| {
                keep_better(best, VehicleId::from_index(k), keys[k], &better)
            });
            scan.map(|(k, _)| k.index())
        }

        fn shuffled(rng: &mut StdRng, n: usize) -> Vec<usize> {
            let mut visit: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                visit.swap(i, rng.random_range(0..=i));
            }
            visit
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn the_winner_does_not_depend_on_the_visit_order(seed in 0u64..u64::MAX) {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = rng.random_range(1..24usize);
                // Lowest score: a third infeasible, the rest on four values.
                let scores: Vec<Option<f64>> = (0..n)
                    .map(|_| (rng.random_range(0..3u8) > 0).then(|| f64::from(rng.random_range(0..4u8))))
                    .collect();
                // Baseline 3: groups of twins share a delta, not a count.
                let mut pairs: Vec<Option<(usize, f64)>> = Vec::with_capacity(n);
                while pairs.len() < n {
                    let delta = f64::from(rng.random_range(0..3u8));
                    for _ in 0..rng.random_range(1..5u8) {
                        let feasible = rng.random_range(0..5u8) > 0;
                        pairs.push(feasible.then(|| (rng.random_range(0..3usize), delta)));
                    }
                }
                pairs.truncate(n);
                for round in 0..4 {
                    let visit = shuffled(&mut rng, n);
                    let lower = |v: f64, b: f64| v < b;
                    prop_assert_eq!(
                        visited(&scores, &visit, lower),
                        ascending(&scores, lower),
                        "seed {}, round {}: {:?} visited as {:?}", seed, round, scores, visit
                    );
                    prop_assert_eq!(
                        visited(&pairs, &visit, Baseline3::better),
                        ascending(&pairs, Baseline3::better),
                        "seed {}, round {}: {:?} visited as {:?}", seed, round, pairs, visit
                    );
                }
            }
        }
    }

    #[test]
    fn all_baselines_reject_impossible_orders() {
        let mut inst = instance();
        // Shrink every deadline to make all orders impossible.
        let orders: Vec<Order> = inst
            .orders()
            .iter()
            .map(|o| {
                Order::new(
                    o.id,
                    o.pickup,
                    o.delivery,
                    o.quantity,
                    o.created,
                    o.created + TimeDelta::from_seconds(1.0),
                )
                .unwrap()
            })
            .collect();
        inst = Instance::new(inst.network.clone(), inst.fleet.clone(), inst.grid, orders).unwrap();
        for d in [
            &mut Baseline1 as &mut dyn Dispatcher,
            &mut Baseline2,
            &mut Baseline3::default(),
        ] {
            let r = Simulator::builder(&inst).build().unwrap().run(d);
            assert_eq!(r.metrics.served, 0);
            assert_eq!(r.metrics.nuv, 0);
        }
    }
}
