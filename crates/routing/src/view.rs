//! Planner-facing snapshot of a vehicle.

use crate::route::Route;
use dpdp_net::{NodeId, OrderId, TimePoint, VehicleId};

/// Everything the route planner needs to know about one vehicle at decision
/// time.
///
/// The *anchor* is where the vehicle will next be free to change plans: for
/// an idle vehicle it is the node it is waiting at (now); for an in-service
/// vehicle it is the destination of the leg currently being driven, at the
/// arrival time. This encodes the paper's "no interference with in-service
/// vehicles" rule — insertions can only alter the route from the anchor on.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleView {
    /// Which vehicle this is.
    pub vehicle: VehicleId,
    /// Home depot `w_k` the route must end at.
    pub depot: NodeId,
    /// Node from which the remaining route starts.
    pub anchor_node: NodeId,
    /// Time at which the vehicle is (or becomes) available at the anchor.
    pub anchor_time: TimePoint,
    /// Cargo currently on board as a LIFO stack, bottom first:
    /// `(order, quantity)` pairs.
    pub onboard: Vec<(OrderId, f64)>,
    /// Remaining (re-plannable) route from the anchor.
    pub route: Route,
    /// Whether the vehicle has served any order before (the `f_{t,k}` used
    /// flag of the MDP state).
    pub used: bool,
}

impl VehicleView {
    /// A fresh, unused vehicle idling at its depot at time zero.
    pub fn idle_at_depot(vehicle: VehicleId, depot: NodeId) -> Self {
        VehicleView {
            vehicle,
            depot,
            anchor_node: depot,
            anchor_time: TimePoint::ZERO,
            onboard: Vec::new(),
            route: Route::empty(),
            used: false,
        }
    }

    /// Total quantity currently loaded.
    pub fn load(&self) -> f64 {
        self.onboard.iter().map(|(_, q)| q).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_view_defaults() {
        let v = VehicleView::idle_at_depot(VehicleId(3), NodeId(0));
        assert_eq!(v.anchor_node, NodeId(0));
        assert_eq!(v.anchor_time, TimePoint::ZERO);
        assert!(v.route.is_empty());
        assert!(!v.used);
        assert_eq!(v.load(), 0.0);
    }

    #[test]
    fn load_sums_onboard() {
        let mut v = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        v.onboard.push((OrderId(0), 3.0));
        v.onboard.push((OrderId(1), 4.5));
        assert!((v.load() - 7.5).abs() < 1e-12);
    }
}
