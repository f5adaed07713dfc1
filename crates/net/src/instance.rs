//! Complete problem instances: network + fleet + a day of orders.

use crate::error::NetError;
use crate::ids::OrderId;
use crate::network::RoadNetwork;
use crate::order::Order;
use crate::time::IntervalGrid;
use crate::vehicle::FleetConfig;

/// A DPDP instance: the road network, the fleet configuration, the interval
/// grid for spatial-temporal features, and the day's delivery orders sorted
/// by creation time.
///
/// In the *dynamic* problem an order only becomes visible to the dispatcher
/// at its creation time; the simulator enforces that. Solvers for the
/// *static* relaxation (the exact baseline) are allowed to read all orders up
/// front.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The road network.
    pub network: RoadNetwork,
    /// Fleet configuration.
    pub fleet: FleetConfig,
    /// Time discretisation used for STD matrices and state features.
    pub grid: IntervalGrid,
    orders: Vec<Order>,
}

impl Instance {
    /// Builds an instance, validating all cross-references and sorting orders
    /// by creation time (ties broken by id). Order ids are re-assigned to be
    /// dense in creation order so that `orders()[i].id.index() == i`.
    ///
    /// # Errors
    /// Returns the first validation error found.
    pub fn new(
        network: RoadNetwork,
        fleet: FleetConfig,
        grid: IntervalGrid,
        mut orders: Vec<Order>,
    ) -> Result<Self, NetError> {
        fleet.validate_against(&network)?;
        for order in &orders {
            order.validate_against(&network)?;
        }
        orders.sort_by(|a, b| {
            a.created
                .seconds()
                .partial_cmp(&b.created.seconds())
                .expect("times are finite")
                .then(a.id.cmp(&b.id))
        });
        for (i, order) in orders.iter_mut().enumerate() {
            order.id = OrderId::from_index(i);
        }
        Ok(Instance {
            network,
            fleet,
            grid,
            orders,
        })
    }

    /// Orders sorted by creation time; `orders()[i].id.index() == i`.
    #[inline]
    pub fn orders(&self) -> &[Order] {
        &self.orders
    }

    /// Number of orders.
    #[inline]
    pub fn num_orders(&self) -> usize {
        self.orders.len()
    }

    /// Number of vehicles `K`.
    #[inline]
    pub fn num_vehicles(&self) -> usize {
        self.fleet.num_vehicles()
    }

    /// The order with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn order(&self, id: OrderId) -> &Order {
        &self.orders[id.index()]
    }

    /// Total cargo quantity across all orders.
    pub fn total_quantity(&self) -> f64 {
        self.orders.iter().map(|o| o.quantity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{NodeId, OrderId};
    use crate::network::Point;
    use crate::node::Node;
    use crate::time::{TimeDelta, TimePoint};

    fn build() -> Instance {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::factory(NodeId(2), Point::new(2.0, 0.0)),
        ];
        let network = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet =
            FleetConfig::homogeneous(2, &[NodeId(0)], 100.0, 500.0, 2.0, 40.0, TimeDelta::ZERO)
                .unwrap();
        let orders = vec![
            Order::new(
                OrderId(0),
                NodeId(1),
                NodeId(2),
                5.0,
                TimePoint::from_hours(10.0),
                TimePoint::from_hours(14.0),
            )
            .unwrap(),
            Order::new(
                OrderId(1),
                NodeId(2),
                NodeId(1),
                3.0,
                TimePoint::from_hours(8.0),
                TimePoint::from_hours(12.0),
            )
            .unwrap(),
        ];
        Instance::new(network, fleet, IntervalGrid::paper_default(), orders).unwrap()
    }

    #[test]
    fn orders_sorted_and_reindexed_by_creation_time() {
        let inst = build();
        assert_eq!(inst.num_orders(), 2);
        // The 8:00 order must come first and get id 0.
        assert_eq!(inst.orders()[0].created, TimePoint::from_hours(8.0));
        assert_eq!(inst.orders()[0].id, OrderId(0));
        assert_eq!(inst.orders()[1].id, OrderId(1));
        assert_eq!(inst.order(OrderId(1)).created, TimePoint::from_hours(10.0));
    }

    #[test]
    fn totals() {
        let inst = build();
        assert!((inst.total_quantity() - 8.0).abs() < 1e-12);
        assert_eq!(inst.num_vehicles(), 2);
    }

    #[test]
    fn invalid_cross_reference_rejected() {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
        ];
        let network = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet =
            FleetConfig::homogeneous(1, &[NodeId(0)], 100.0, 500.0, 2.0, 40.0, TimeDelta::ZERO)
                .unwrap();
        let orders = vec![Order::new(
            OrderId(0),
            NodeId(1),
            NodeId(7),
            5.0,
            TimePoint::ZERO,
            TimePoint::from_hours(1.0),
        )
        .unwrap()];
        assert!(Instance::new(network, fleet, IntervalGrid::paper_default(), orders).is_err());
    }
}
