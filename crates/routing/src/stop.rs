//! Route stops: a node plus a pickup or delivery action.

use dpdp_net::{NodeId, OrderId};
use std::fmt;

/// What a vehicle does at a stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopAction {
    /// Load the cargo of the given order (`↑` in the paper's Fig. 1).
    Pickup(OrderId),
    /// Unload the cargo of the given order (`↓`).
    Delivery(OrderId),
}

impl StopAction {
    /// The order this action belongs to.
    #[inline]
    pub fn order(self) -> OrderId {
        match self {
            StopAction::Pickup(o) | StopAction::Delivery(o) => o,
        }
    }

    /// True if this is a pickup.
    #[inline]
    pub fn is_pickup(self) -> bool {
        matches!(self, StopAction::Pickup(_))
    }
}

/// One stop of a route: visit `node` and perform `action` there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stop {
    /// Node to visit.
    pub node: NodeId,
    /// Pickup or delivery performed at the node.
    pub action: StopAction,
}

impl Stop {
    /// A pickup stop.
    #[inline]
    pub fn pickup(node: NodeId, order: OrderId) -> Self {
        Stop {
            node,
            action: StopAction::Pickup(order),
        }
    }

    /// A delivery stop.
    #[inline]
    pub fn delivery(node: NodeId, order: OrderId) -> Self {
        Stop {
            node,
            action: StopAction::Delivery(order),
        }
    }
}

impl fmt::Display for Stop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.action {
            StopAction::Pickup(o) => write!(f, "{}↑{}", self.node, o),
            StopAction::Delivery(o) => write!(f, "{}↓{}", self.node, o),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Stop::pickup(NodeId(1), OrderId(7));
        assert!(p.action.is_pickup());
        assert_eq!(p.action.order(), OrderId(7));
        let d = Stop::delivery(NodeId(2), OrderId(7));
        assert!(!d.action.is_pickup());
        assert_eq!(d.action.order(), OrderId(7));
    }

    #[test]
    fn display() {
        assert_eq!(Stop::pickup(NodeId(1), OrderId(2)).to_string(), "N1↑O2");
        assert_eq!(Stop::delivery(NodeId(3), OrderId(4)).to_string(), "N3↓O4");
    }
}
