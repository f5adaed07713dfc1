//! Constraint violations reported by the schedule simulator.

use dpdp_net::{OrderId, TimePoint};
use std::fmt;

/// Why a candidate route is infeasible.
///
/// The four enterprise constraints of Section III: time windows, capacity,
/// LIFO loading and back-to-depot (the latter is structural — see
/// [`crate::Route`] — so it appears here only as [`Violation::IncompleteRoute`],
/// i.e. returning to the depot while still loaded).
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A delivery would arrive after the order's latest delivery time.
    TimeWindow {
        /// The late order.
        order: OrderId,
        /// When the vehicle would arrive.
        arrival: TimePoint,
        /// The order's deadline.
        deadline: TimePoint,
    },
    /// Loading the order would exceed vehicle capacity.
    Capacity {
        /// The order being loaded.
        order: OrderId,
        /// Load after the pickup.
        load: f64,
        /// Vehicle capacity `Q`.
        capacity: f64,
    },
    /// Unloading would violate the Last-In-First-Out stack discipline.
    Lifo {
        /// The order whose delivery is not on top of the stack.
        order: OrderId,
    },
    /// A stop referenced an order the planner does not know about.
    UnknownOrder(OrderId),
    /// The route ends (returns to depot) while cargo is still on board.
    IncompleteRoute {
        /// Orders still loaded at the end of the route.
        undelivered: Vec<OrderId>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TimeWindow {
                order,
                arrival,
                deadline,
            } => write!(
                f,
                "time window violated for {order}: arrival {arrival} after deadline {deadline}"
            ),
            Violation::Capacity {
                order,
                load,
                capacity,
            } => write!(
                f,
                "capacity violated loading {order}: load {load} exceeds capacity {capacity}"
            ),
            Violation::Lifo { order } => {
                write!(f, "LIFO violated: {order} is not on top of the cargo stack")
            }
            Violation::UnknownOrder(order) => write!(f, "unknown order {order}"),
            Violation::IncompleteRoute { undelivered } => {
                write!(
                    f,
                    "route returns to depot with {} undelivered order(s)",
                    undelivered.len()
                )
            }
        }
    }
}

impl std::error::Error for Violation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render() {
        let v = Violation::Lifo { order: OrderId(3) };
        assert!(v.to_string().contains("LIFO"));
        let v = Violation::Capacity {
            order: OrderId(1),
            load: 12.0,
            capacity: 10.0,
        };
        assert!(v.to_string().contains("12"));
        let v = Violation::IncompleteRoute {
            undelivered: vec![OrderId(0), OrderId(1)],
        };
        assert!(v.to_string().contains("2 undelivered"));
    }
}
