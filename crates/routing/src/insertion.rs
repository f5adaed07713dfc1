//! Insertion enumeration: every way to add an order to a route.
//!
//! Step 2 of the paper's Algorithm 2 constructs "all possible temporary
//! routes … via inserting the pickup and delivery node of order `o` into
//! vehicle `k`'s current route in an enumeration way". For a route with `n`
//! remaining stops there are `(n+1)(n+2)/2` position pairs.
//!
//! The answer comes in two forms. An [`InsertionScore`] is the winner as
//! *positions*: where the pair goes, how long the route gets, how many
//! pairs were feasible — five `Copy` numbers, all a ranking needs. A
//! [`BestInsertion`] is the winner as a *route*: the same numbers plus the
//! materialised [`Route`] and its [`Schedule`], which only whoever adopts
//! or inspects the route needs. [`InsertionScore::materialise`] turns the
//! first into the second and is the one place that builds a winner's
//! route; [`BestInsertion::score`] goes back.
//!
//! [`best_insertion`] is the evaluator: it delegates to
//! [`crate::incremental`], which scores every pair allocation-free from
//! cached prefix/suffix passes (O(n²) per call) and materialises the
//! winner.
//!
//! [`enumerate_insertions`] / [`best_insertion_naive`] are the oracle it is
//! tested against and falls back to: every candidate clones the route and
//! re-validates it with [`simulate_schedule`] (O(n) work and two
//! allocations per pair, O(n³) per call). The evaluator returns the
//! identical winning position pair and length (see the parity notes on
//! [`crate::incremental`]).

use crate::route::Route;
use crate::schedule::{simulate_schedule, Schedule};
use crate::stop::Stop;
use crate::view::VehicleView;
use dpdp_net::{FleetConfig, Order, RoadNetwork};

/// One feasible insertion candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertionCandidate {
    /// Index (in the original stop list) where the pickup was inserted.
    pub pickup_pos: usize,
    /// Index (in the original stop list) before which the delivery was
    /// inserted; `>= pickup_pos`.
    pub delivery_pos: usize,
    /// The resulting route.
    pub route: Route,
    /// Its simulated schedule.
    pub schedule: Schedule,
}

impl InsertionCandidate {
    /// Total remaining length of the candidate route (km, anchor to depot).
    #[inline]
    pub fn length(&self) -> f64 {
        self.schedule.total_length
    }
}

/// The shortest feasible insertion (step 9 of Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct BestInsertion {
    /// The winning candidate.
    pub candidate: InsertionCandidate,
    /// Number of feasible candidates among all enumerated position pairs.
    pub num_feasible: usize,
    /// Number of enumerated position pairs.
    pub num_enumerated: usize,
}

impl BestInsertion {
    /// Length of the best route, `d^i_{t,k}`.
    #[inline]
    pub fn length(&self) -> f64 {
        self.candidate.length()
    }

    /// This winner reduced to its positions and counts.
    pub fn score(&self) -> InsertionScore {
        InsertionScore {
            pickup_pos: narrow(self.candidate.pickup_pos),
            delivery_pos: narrow(self.candidate.delivery_pos),
            length: self.length(),
            num_feasible: narrow(self.num_feasible),
            num_enumerated: narrow(self.num_enumerated),
        }
    }
}

/// A route position or pair count as an [`InsertionScore`] stores it. A
/// route has to pass 92 000 stops before its `(n+1)(n+2)/2` overflows.
#[inline]
pub(crate) fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("insertion positions and pair counts fit in u32")
}

/// The shortest feasible insertion as positions: a [`BestInsertion`]
/// without its route and schedule. `Copy` and 24 bytes, so an epoch can
/// keep one per `(order, vehicle)` cell and build a route only for the
/// cells somebody reads ([`InsertionScore::materialise`]).
///
/// The positions index the stop list of the [`VehicleView`] the score was
/// computed against and mean nothing against any other view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsertionScore {
    /// Index (in the view's stop list) where the pickup is inserted.
    pub pickup_pos: u32,
    /// Index (in the view's stop list) before which the delivery is
    /// inserted; `>= pickup_pos`.
    pub delivery_pos: u32,
    /// Length of the resulting route, `d^i_{t,k}` (km): the oracle walk's
    /// total, bit-identical to the materialised [`Schedule::total_length`].
    pub length: f64,
    /// Number of feasible candidates among all enumerated position pairs.
    pub num_feasible: u32,
    /// Number of enumerated position pairs.
    pub num_enumerated: u32,
}

impl InsertionScore {
    /// Builds the route and schedule this score stands for: `order`'s
    /// stops spliced into `view`'s route at the scored positions, simulated
    /// by the collecting oracle. `view` and `order` must be the ones the
    /// score was computed for.
    ///
    /// # Panics
    /// Panics if the positions do not fit `view`'s route or the spliced
    /// route does not simulate feasibly — either means the score belongs
    /// to a different view.
    pub fn materialise(
        &self,
        view: &VehicleView,
        order: &Order,
        net: &RoadNetwork,
        fleet: &FleetConfig,
        orders: &[Order],
    ) -> BestInsertion {
        let (pickup_pos, delivery_pos) = (self.pickup_pos as usize, self.delivery_pos as usize);
        let route = view.route.with_insertion(
            Stop::pickup(order.pickup, order.id),
            pickup_pos,
            Stop::delivery(order.delivery, order.id),
            delivery_pos,
        );
        let schedule = simulate_schedule(view, &route, net, fleet, orders)
            .expect("a score materialises against the view it was scored on");
        debug_assert_eq!(
            schedule.total_length.to_bits(),
            self.length.to_bits(),
            "scored and materialised lengths are the same walk"
        );
        BestInsertion {
            candidate: InsertionCandidate {
                pickup_pos,
                delivery_pos,
                route,
                schedule,
            },
            num_feasible: self.num_feasible as usize,
            num_enumerated: self.num_enumerated as usize,
        }
    }
}

/// Enumerates all feasible insertions of `order` into the vehicle's
/// remaining route. Returns feasible candidates in enumeration order.
pub fn enumerate_insertions(
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
) -> Vec<InsertionCandidate> {
    let n = view.route.len();
    let pickup = Stop::pickup(order.pickup, order.id);
    let delivery = Stop::delivery(order.delivery, order.id);
    let mut feasible = Vec::new();
    for i in 0..=n {
        for j in i..=n {
            let route = view.route.with_insertion(pickup, i, delivery, j);
            if let Ok(schedule) = simulate_schedule(view, &route, net, fleet, orders) {
                feasible.push(InsertionCandidate {
                    pickup_pos: i,
                    delivery_pos: j,
                    route,
                    schedule,
                });
            }
        }
    }
    feasible
}

/// Finds the shortest feasible insertion of `order` into the vehicle's
/// remaining route, or `None` if no position pair satisfies all constraints.
///
/// This is the O(n²) incremental path: one [`crate::ScheduleCache`] build
/// plus one allocation-free sweep and oracle walk, then the winner
/// materialised — see [`crate::incremental`]. Callers evaluating many
/// orders against the same view should build the cache once and use
/// [`crate::RoutePlanner::score_cached`] (or
/// [`crate::best_insertion_cached`]) directly.
pub fn best_insertion(
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
) -> Option<BestInsertion> {
    let cache = crate::incremental::ScheduleCache::build(view, net, fleet, orders);
    crate::incremental::best_insertion_cached(&cache, view, order, net, fleet, orders)
}

/// Reference implementation of [`best_insertion`]: full enumeration with a
/// per-candidate [`simulate_schedule`] (O(n³) per call).
///
/// Ties in length are broken towards the earlier enumeration position, and
/// candidates are ordered with [`f64::total_cmp`] so a pathological
/// instance producing non-finite lengths degrades deterministically
/// (non-finite candidates sort last) instead of panicking mid-epoch.
pub fn best_insertion_naive(
    view: &VehicleView,
    order: &Order,
    net: &RoadNetwork,
    fleet: &FleetConfig,
    orders: &[Order],
) -> Option<BestInsertion> {
    let n = view.route.len();
    let num_enumerated = (n + 1) * (n + 2) / 2;
    let candidates = enumerate_insertions(view, order, net, fleet, orders);
    let num_feasible = candidates.len();
    candidates
        .into_iter()
        .min_by(|a, b| a.length().total_cmp(&b.length()))
        .map(|candidate| BestInsertion {
            candidate,
            num_feasible,
            num_enumerated,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{Node, NodeId, OrderId, Point, TimeDelta, TimePoint, VehicleId};

    fn setup() -> (RoadNetwork, FleetConfig) {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(10.0, 0.0)),
            Node::factory(NodeId(2), Point::new(20.0, 0.0)),
            Node::factory(NodeId(3), Point::new(30.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet =
            FleetConfig::homogeneous(1, &[NodeId(0)], 10.0, 500.0, 2.0, 60.0, TimeDelta::ZERO)
                .unwrap();
        (net, fleet)
    }

    fn order(id: u32, p: u32, d: u32, q: f64, deadline_h: f64) -> Order {
        Order::new(
            OrderId(id),
            NodeId(p),
            NodeId(d),
            q,
            TimePoint::ZERO,
            TimePoint::from_hours(deadline_h),
        )
        .unwrap()
    }

    #[test]
    fn empty_route_has_single_insertion() {
        let (net, fleet) = setup();
        let o = order(0, 1, 2, 5.0, 24.0);
        let orders = vec![o.clone()];
        let view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        let cands = enumerate_insertions(&view, &o, &net, &fleet, &orders);
        assert_eq!(cands.len(), 1);
        // 0 -> 1 -> 2 -> 0: 10 + 10 + 20 = 40 km.
        assert!((cands[0].length() - 40.0).abs() < 1e-9);
        let best = best_insertion(&view, &o, &net, &fleet, &orders).unwrap();
        assert_eq!(best.num_enumerated, 1);
        assert_eq!(best.num_feasible, 1);
    }

    #[test]
    fn best_insertion_picks_hitchhike() {
        let (net, fleet) = setup();
        // Existing order 0: 1 -> 3. New order 1: 2 -> 3 lies on the way.
        let orders = vec![order(0, 1, 3, 3.0, 24.0), order(1, 2, 3, 3.0, 24.0)];
        let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        view.route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(3), OrderId(0)),
        ]);
        let base = view.route.length(&net, NodeId(0), NodeId(0));
        let best = best_insertion(&view, &orders[1], &net, &fleet, &orders).unwrap();
        // The optimal plan picks up order 1 at node 2 en route and delivers
        // both at node 3 — zero extra distance.
        assert!(
            (best.length() - base).abs() < 1e-9,
            "expected hitchhike with no detour, got {} vs {}",
            best.length(),
            base
        );
        // And the LIFO order must be respected in the winning route: order 1
        // (picked second) is delivered first.
        let stops = best.candidate.route.stops();
        let d1 = stops
            .iter()
            .position(|s| *s == Stop::delivery(NodeId(3), OrderId(1)))
            .unwrap();
        let d0 = stops
            .iter()
            .position(|s| *s == Stop::delivery(NodeId(3), OrderId(0)))
            .unwrap();
        assert!(d1 < d0, "LIFO: later pickup must be delivered first");
    }

    #[test]
    fn infeasible_when_capacity_blocks_everything() {
        let (net, fleet) = setup();
        let orders = vec![order(0, 1, 3, 8.0, 24.0), order(1, 2, 3, 8.0, 24.0)];
        let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        view.route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(3), OrderId(0)),
        ]);
        // 8 + 8 > 10 so the only feasible insertions serve the new order
        // entirely before or after order 0; both exist, so still feasible.
        let best = best_insertion(&view, &orders[1], &net, &fleet, &orders).unwrap();
        assert!(best.num_feasible < best.num_enumerated);

        // With a tight deadline on order 0, serving 1 first is impossible
        // and serving it after misses 1's own deadline -> infeasible.
        let orders = vec![order(0, 1, 3, 8.0, 0.7), order(1, 2, 3, 8.0, 0.7)];
        let best = best_insertion(&view, &orders[1], &net, &fleet, &orders);
        assert!(best.is_none());
    }

    #[test]
    fn enumeration_count_matches_formula() {
        let (net, fleet) = setup();
        let orders = vec![
            order(0, 1, 2, 1.0, 24.0),
            order(1, 2, 3, 1.0, 24.0),
            order(2, 1, 3, 1.0, 24.0),
        ];
        let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        view.route = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
            Stop::pickup(NodeId(2), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(1)),
        ]);
        let best = best_insertion(&view, &orders[2], &net, &fleet, &orders).unwrap();
        // n = 4 -> 5*6/2 = 15 position pairs.
        assert_eq!(best.num_enumerated, 15);
        assert!(best.num_feasible >= 1);
        assert!(best.num_feasible <= 15);
    }
}
