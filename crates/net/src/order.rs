//! Delivery orders.

use crate::error::NetError;
use crate::ids::{NodeId, OrderId};
use crate::network::RoadNetwork;
use crate::time::{TimePoint, TimeWindow};

/// A delivery order `o_i = (F_p, F_d, q, t_c, t_l)`: pick up `quantity`
/// units of cargo at `pickup` no earlier than `created`, and deliver them to
/// `delivery` no later than `deadline`.
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    /// Identifier; equals the order's index within its instance.
    pub id: OrderId,
    /// Pickup node `F_p`.
    pub pickup: NodeId,
    /// Delivery node `F_d`.
    pub delivery: NodeId,
    /// Amount of cargo `q` (same unit as vehicle capacity).
    pub quantity: f64,
    /// Creation time `t_c`, also the earliest pickup time.
    pub created: TimePoint,
    /// Latest delivery time `t_l`.
    pub deadline: TimePoint,
}

impl Order {
    /// Creates an order, validating the basic invariants.
    ///
    /// # Errors
    /// Returns [`NetError::InvalidOrder`] if the quantity is non-positive,
    /// pickup equals delivery, or the deadline precedes the creation time.
    pub fn new(
        id: OrderId,
        pickup: NodeId,
        delivery: NodeId,
        quantity: f64,
        created: TimePoint,
        deadline: TimePoint,
    ) -> Result<Self, NetError> {
        if !(quantity.is_finite() && quantity > 0.0) {
            return Err(NetError::InvalidOrder {
                order: id,
                reason: format!("quantity must be positive and finite, got {quantity}"),
            });
        }
        if pickup == delivery {
            return Err(NetError::InvalidOrder {
                order: id,
                reason: "pickup and delivery nodes must differ".into(),
            });
        }
        if deadline < created {
            return Err(NetError::InvalidOrder {
                order: id,
                reason: format!("deadline {} precedes creation time {}", deadline, created),
            });
        }
        Ok(Order {
            id,
            pickup,
            delivery,
            quantity,
            created,
            deadline,
        })
    }

    /// The order's service window `[t_c, t_l]`.
    pub fn window(&self) -> TimeWindow {
        TimeWindow::new(self.created, self.deadline)
            .expect("order invariants guarantee a valid window")
    }

    /// Validates the order's node references against a network; both nodes
    /// must exist and be factories.
    pub fn validate_against(&self, net: &RoadNetwork) -> Result<(), NetError> {
        for node in [self.pickup, self.delivery] {
            let n = net.try_node(node)?;
            if !n.is_factory() {
                return Err(NetError::InvalidOrder {
                    order: self.id,
                    reason: format!("node {node} is a depot, orders connect factories"),
                });
            }
        }
        Ok(())
    }

    /// Direct pickup-to-delivery distance on the given network.
    pub fn direct_distance(&self, net: &RoadNetwork) -> f64 {
        net.distance(self.pickup, self.delivery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Point;
    use crate::node::Node;

    fn net() -> RoadNetwork {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::factory(NodeId(2), Point::new(2.0, 0.0)),
        ];
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    fn order(pickup: u32, delivery: u32) -> Result<Order, NetError> {
        Order::new(
            OrderId(0),
            NodeId(pickup),
            NodeId(delivery),
            5.0,
            TimePoint::from_hours(8.0),
            TimePoint::from_hours(12.0),
        )
    }

    #[test]
    fn valid_order_constructs() {
        let o = order(1, 2).unwrap();
        assert_eq!(o.quantity, 5.0);
        assert!(o.window().contains(TimePoint::from_hours(9.0)));
        assert!((o.direct_distance(&net()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_orders_rejected() {
        assert!(order(1, 1).is_err());
        assert!(Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(2),
            0.0,
            TimePoint::ZERO,
            TimePoint::from_hours(1.0)
        )
        .is_err());
        assert!(Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(2),
            1.0,
            TimePoint::from_hours(2.0),
            TimePoint::from_hours(1.0)
        )
        .is_err());
        assert!(Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(2),
            f64::INFINITY,
            TimePoint::ZERO,
            TimePoint::from_hours(1.0)
        )
        .is_err());
    }

    #[test]
    fn validate_against_checks_node_kind() {
        let n = net();
        assert!(order(1, 2).unwrap().validate_against(&n).is_ok());
        // Pickup at a depot is invalid.
        let bad = Order::new(
            OrderId(0),
            NodeId(0),
            NodeId(2),
            1.0,
            TimePoint::ZERO,
            TimePoint::from_hours(1.0),
        )
        .unwrap();
        assert!(bad.validate_against(&n).is_err());
        // Out-of-range node.
        let bad = Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(9),
            1.0,
            TimePoint::ZERO,
            TimePoint::from_hours(1.0),
        )
        .unwrap();
        assert!(bad.validate_against(&n).is_err());
    }
}
