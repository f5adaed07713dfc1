//! Strongly-typed identifiers for nodes, orders and vehicles.
//!
//! Using newtypes instead of bare integers prevents accidentally indexing a
//! distance matrix with an order id (and similar bugs) at zero runtime cost.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index, suitable for indexing dense arrays.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a dense array index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index exceeds u32::MAX"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Identifier of a node (depot or factory) in the road network.
    NodeId,
    "N"
);
define_id!(
    /// Identifier of a delivery order.
    OrderId,
    "O"
);
define_id!(
    /// Identifier of a vehicle in the fleet.
    VehicleId,
    "V"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_roundtrip_through_index() {
        for i in [0usize, 1, 7, 1000, u32::MAX as usize] {
            assert_eq!(NodeId::from_index(i).index(), i);
            assert_eq!(OrderId::from_index(i).index(), i);
            assert_eq!(VehicleId::from_index(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn oversized_index_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(OrderId(4).to_string(), "O4");
        assert_eq!(VehicleId(5).to_string(), "V5");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(NodeId(1));
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }
}
