//! The remaining route of a vehicle.

use crate::stop::{Stop, StopAction};
use dpdp_net::{NodeId, OrderId, RoadNetwork};

/// The remaining stop sequence of a vehicle. The route starts wherever the
/// vehicle currently is (its *anchor*, tracked separately by
/// [`crate::VehicleView`]) and implicitly ends with a return to the depot —
/// the back-to-depot constraint is therefore structural and cannot be
/// violated.
///
/// Internally the stops live in a `Vec` behind a consumed-prefix index:
/// [`Route::pop_front`] — called once per executed leg by the simulator's
/// advance loop — bumps the index instead of shifting the whole vector, so
/// advancing is O(1) rather than the O(n) `Vec::remove(0)` shift. Equality
/// and cloning always operate on the *remaining* stops (a clone trims the
/// consumed prefix), so the representation is invisible to callers.
#[derive(Debug, Default)]
pub struct Route {
    stops: Vec<Stop>,
    /// Index of the first remaining stop; everything before it has been
    /// executed and popped.
    head: usize,
}

impl Clone for Route {
    fn clone(&self) -> Route {
        // Trim the consumed prefix: snapshots (one per vehicle per epoch)
        // carry only the live tail.
        Route {
            stops: self.stops[self.head..].to_vec(),
            head: 0,
        }
    }
}

impl PartialEq for Route {
    fn eq(&self, other: &Route) -> bool {
        self.stops() == other.stops()
    }
}

impl Eq for Route {}

impl Route {
    /// An empty route (vehicle idles and returns to its depot).
    pub fn empty() -> Self {
        Route::default()
    }

    /// Builds a route from stops.
    pub fn from_stops(stops: Vec<Stop>) -> Self {
        Route { stops, head: 0 }
    }

    /// The stops in visit order.
    #[inline]
    pub fn stops(&self) -> &[Stop] {
        &self.stops[self.head..]
    }

    /// Number of remaining stops.
    #[inline]
    pub fn len(&self) -> usize {
        self.stops.len() - self.head
    }

    /// True if no stops remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.stops.len()
    }

    /// Removes and returns the first stop, if any. O(1): the stop is
    /// consumed by advancing the front index, not by shifting the vector.
    pub fn pop_front(&mut self) -> Option<Stop> {
        let stop = self.stops.get(self.head).copied()?;
        self.head += 1;
        Some(stop)
    }

    /// The first stop, if any.
    pub fn front(&self) -> Option<&Stop> {
        self.stops.get(self.head)
    }

    /// The stops of this route with `pickup` inserted at `pickup_pos` and
    /// `delivery` inserted so that it ends up at position `delivery_pos + 1`
    /// relative to the original stop list (i.e. `delivery_pos >= pickup_pos`
    /// counts positions in the *original* route), in visit order. This is
    /// what an insertion position pair *means*; [`Route::with_insertion`]
    /// collects it, the oracle walks it in place
    /// ([`crate::simulate_insertion`]).
    ///
    /// # Panics
    /// Panics if positions are out of range or `delivery_pos < pickup_pos`.
    pub fn insertion_stops(
        &self,
        pickup: Stop,
        pickup_pos: usize,
        delivery: Stop,
        delivery_pos: usize,
    ) -> impl Iterator<Item = Stop> + '_ {
        let live = self.stops();
        assert!(pickup_pos <= live.len(), "pickup_pos out of range");
        assert!(delivery_pos <= live.len(), "delivery_pos out of range");
        assert!(delivery_pos >= pickup_pos, "delivery before pickup");
        let head = live[..pickup_pos].iter().copied();
        let between = live[pickup_pos..delivery_pos].iter().copied();
        let tail = live[delivery_pos..].iter().copied();
        head.chain([pickup])
            .chain(between)
            .chain([delivery])
            .chain(tail)
    }

    /// Returns a new route holding [`Route::insertion_stops`].
    ///
    /// # Panics
    /// Panics if positions are out of range or `delivery_pos < pickup_pos`.
    pub fn with_insertion(
        &self,
        pickup: Stop,
        pickup_pos: usize,
        delivery: Stop,
        delivery_pos: usize,
    ) -> Route {
        let stops = self.insertion_stops(pickup, pickup_pos, delivery, delivery_pos);
        Route::from_stops(stops.collect())
    }

    /// The full node sequence `anchor -> stops... -> depot`.
    pub fn node_sequence(&self, anchor: NodeId, depot: NodeId) -> Vec<NodeId> {
        let mut seq = Vec::with_capacity(self.len() + 2);
        seq.push(anchor);
        seq.extend(self.stops().iter().map(|s| s.node));
        seq.push(depot);
        seq
    }

    /// Length of the remaining route in km: from `anchor` through every stop
    /// and back to `depot`. An empty route anchored at the depot has length 0.
    pub fn length(&self, net: &RoadNetwork, anchor: NodeId, depot: NodeId) -> f64 {
        net.path_length(&self.node_sequence(anchor, depot))
    }

    /// Removes every remaining stop of `order` from the route (route
    /// surgery for order cancellations and breakdown recovery), returning
    /// how many stops were removed (0, 1 or 2).
    ///
    /// Removing stops never invalidates a route on a metric network — every
    /// remaining arrival can only get earlier — and the LIFO discipline is
    /// preserved because a pickup/delivery pair brackets a contiguous stack
    /// interval: deleting both endpoints leaves every other pair properly
    /// nested. The consumed-prefix head is normalised away, so the result
    /// behaves exactly like a fresh route over the surviving stops.
    pub fn remove_order(&mut self, order: OrderId) -> usize {
        let before = self.len();
        let live: Vec<Stop> = self
            .stops()
            .iter()
            .filter(|s| s.action.order() != order)
            .copied()
            .collect();
        let removed = before - live.len();
        self.stops = live;
        self.head = 0;
        removed
    }

    /// Orders with a pickup stop still in this route.
    pub fn pending_pickups(&self) -> Vec<OrderId> {
        self.stops()
            .iter()
            .filter_map(|s| match s.action {
                StopAction::Pickup(o) => Some(o),
                StopAction::Delivery(_) => None,
            })
            .collect()
    }

    /// Orders with a delivery stop still in this route.
    pub fn pending_deliveries(&self) -> Vec<OrderId> {
        self.stops()
            .iter()
            .filter_map(|s| match s.action {
                StopAction::Delivery(o) => Some(o),
                StopAction::Pickup(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{Node, Point, RoadNetwork};

    fn line_net() -> RoadNetwork {
        // Nodes 0(depot),1,2,3 on a line at x = 0,1,2,3.
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::factory(NodeId(2), Point::new(2.0, 0.0)),
            Node::factory(NodeId(3), Point::new(3.0, 0.0)),
        ];
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    #[test]
    fn empty_route_at_depot_has_zero_length() {
        let net = line_net();
        let r = Route::empty();
        assert_eq!(r.length(&net, NodeId(0), NodeId(0)), 0.0);
        // Empty route away from depot: must still drive home.
        assert!((r.length(&net, NodeId(2), NodeId(0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn length_includes_depot_return() {
        let net = line_net();
        let r = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(3), OrderId(0)),
        ]);
        // 0 -> 1 -> 3 -> 0 = 1 + 2 + 3 = 6.
        assert!((r.length(&net, NodeId(0), NodeId(0)) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn insertion_positions_are_relative_to_original() {
        let r = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        let p = Stop::pickup(NodeId(3), OrderId(1));
        let d = Stop::delivery(NodeId(1), OrderId(1));
        // Insert pickup at 1 and delivery at 1: P0 [P1 D1] D0.
        let r2 = r.with_insertion(p, 1, d, 1);
        assert_eq!(
            r2.stops(),
            &[
                Stop::pickup(NodeId(1), OrderId(0)),
                p,
                d,
                Stop::delivery(NodeId(2), OrderId(0)),
            ]
        );
        // Insert around everything: [P1] P0 D0 [D1].
        let r3 = r.with_insertion(p, 0, d, 2);
        assert_eq!(r3.stops()[0], p);
        assert_eq!(r3.stops()[3], d);
        assert_eq!(r3.len(), 4);
    }

    #[test]
    #[should_panic(expected = "delivery before pickup")]
    fn insertion_rejects_delivery_before_pickup() {
        let r = Route::from_stops(vec![Stop::pickup(NodeId(1), OrderId(0))]);
        let p = Stop::pickup(NodeId(2), OrderId(1));
        let d = Stop::delivery(NodeId(3), OrderId(1));
        let _ = r.with_insertion(p, 1, d, 0);
    }

    #[test]
    fn pending_accessors() {
        let r = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
            Stop::delivery(NodeId(3), OrderId(9)),
        ]);
        assert_eq!(r.pending_pickups(), vec![OrderId(0)]);
        assert_eq!(r.pending_deliveries(), vec![OrderId(0), OrderId(9)]);
    }

    #[test]
    fn popped_route_behaves_like_fresh_tail() {
        // The consumed-prefix representation must be invisible: a partly
        // executed route equals (and clones to) the fresh tail route.
        let mut r = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
            Stop::pickup(NodeId(3), OrderId(1)),
            Stop::delivery(NodeId(1), OrderId(1)),
        ]);
        r.pop_front();
        r.pop_front();
        let tail = Route::from_stops(vec![
            Stop::pickup(NodeId(3), OrderId(1)),
            Stop::delivery(NodeId(1), OrderId(1)),
        ]);
        assert_eq!(r, tail);
        assert_eq!(r.len(), 2);
        assert_eq!(r.stops(), tail.stops());
        assert_eq!(r.front(), tail.front());
        let cloned = r.clone();
        assert_eq!(cloned, tail);
        // Insertions count positions relative to the remaining stops.
        let p = Stop::pickup(NodeId(2), OrderId(2));
        let d = Stop::delivery(NodeId(3), OrderId(2));
        assert_eq!(
            r.with_insertion(p, 0, d, 2),
            tail.with_insertion(p, 0, d, 2)
        );
        let net = line_net();
        assert_eq!(
            r.length(&net, NodeId(0), NodeId(0)),
            tail.length(&net, NodeId(0), NodeId(0))
        );
        assert_eq!(r.pending_pickups(), vec![OrderId(1)]);
    }

    #[test]
    fn remove_order_excises_both_stops_and_normalises_head() {
        let mut r = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::pickup(NodeId(2), OrderId(1)),
            Stop::delivery(NodeId(3), OrderId(1)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        assert_eq!(r.remove_order(OrderId(1)), 2);
        assert_eq!(
            r.stops(),
            &[
                Stop::pickup(NodeId(1), OrderId(0)),
                Stop::delivery(NodeId(2), OrderId(0)),
            ]
        );
        // Removing an absent order is a no-op.
        assert_eq!(r.remove_order(OrderId(9)), 0);
        assert_eq!(r.len(), 2);
        // A partially executed route only loses the remaining stop.
        let mut r = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
            Stop::pickup(NodeId(3), OrderId(1)),
            Stop::delivery(NodeId(1), OrderId(1)),
        ]);
        r.pop_front();
        assert_eq!(r.remove_order(OrderId(0)), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.pending_pickups(), vec![OrderId(1)]);
        assert_eq!(r.pending_deliveries(), vec![OrderId(1)]);
    }

    #[test]
    fn pop_front_consumes_in_order() {
        let mut r = Route::from_stops(vec![
            Stop::pickup(NodeId(1), OrderId(0)),
            Stop::delivery(NodeId(2), OrderId(0)),
        ]);
        assert_eq!(r.pop_front(), Some(Stop::pickup(NodeId(1), OrderId(0))));
        assert_eq!(r.front(), Some(&Stop::delivery(NodeId(2), OrderId(0))));
        assert_eq!(r.pop_front(), Some(Stop::delivery(NodeId(2), OrderId(0))));
        assert_eq!(r.pop_front(), None);
    }
}
