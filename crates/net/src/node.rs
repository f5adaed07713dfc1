//! Nodes of the road network: depots and factories.

use crate::ids::NodeId;
use crate::network::Point;

/// Whether a node is a vehicle depot or a factory/warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A depot where vehicles start and end their routes.
    Depot,
    /// A factory or warehouse where cargo is picked up and delivered.
    Factory,
}

/// A node in the road network.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Identifier; equals the node's index in [`crate::RoadNetwork`].
    pub id: NodeId,
    /// Depot or factory.
    pub kind: NodeKind,
    /// Planar position (kilometres); used by Euclidean network builders and
    /// by the neighbourhood-attention adjacency.
    pub pos: Point,
    /// Human-readable label, e.g. `"F3"` or `"W0"`.
    pub label: String,
}

impl Node {
    /// Creates a depot node.
    pub fn depot(id: NodeId, pos: Point) -> Self {
        Node {
            id,
            kind: NodeKind::Depot,
            pos,
            label: format!("W{}", id.0),
        }
    }

    /// Creates a factory node.
    pub fn factory(id: NodeId, pos: Point) -> Self {
        Node {
            id,
            kind: NodeKind::Factory,
            pos,
            label: format!("F{}", id.0),
        }
    }

    /// True if this node is a depot.
    #[inline]
    pub fn is_depot(&self) -> bool {
        self.kind == NodeKind::Depot
    }

    /// True if this node is a factory.
    #[inline]
    pub fn is_factory(&self) -> bool {
        self.kind == NodeKind::Factory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_and_label() {
        let d = Node::depot(NodeId(0), Point::new(0.0, 0.0));
        assert!(d.is_depot());
        assert!(!d.is_factory());
        assert_eq!(d.label, "W0");

        let f = Node::factory(NodeId(3), Point::new(1.0, 2.0));
        assert!(f.is_factory());
        assert_eq!(f.label, "F3");
    }
}
