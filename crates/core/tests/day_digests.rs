//! The generated order days of the paper, metro and megacity presets,
//! pinned to FNV-1a digests. A change to the order generator that moves one
//! bit of any order's id, endpoints, quantity, creation time or deadline —
//! or draws one more or one fewer random number — fails here.
//!
//! The constants were computed before the generator summed each weight
//! vector once per day instead of once per draw.

use dpdp_core::Presets;
use dpdp_net::Order;

/// FNV-1a over each order's id, pickup and delivery, and the bits of its
/// quantity, creation time and deadline.
fn digest(orders: &[Order]) -> u64 {
    orders
        .iter()
        .flat_map(|o| {
            [
                o.id.index() as u64,
                o.pickup.index() as u64,
                o.delivery.index() as u64,
                o.quantity.to_bits(),
                o.created.seconds().to_bits(),
                o.deadline.seconds().to_bits(),
            ]
        })
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The first held-out day of the paper campus: one global hour curve.
#[test]
fn paper_test_day_is_the_parents() {
    let orders = Presets::paper().dataset().day_orders(100);
    assert_eq!(orders.len(), PAPER_DAY_100.0);
    assert_eq!(digest(&orders), PAPER_DAY_100.1);
}

/// The metro day its sampled instances draw from first: one hour curve
/// per hotspot, region-biased deliveries.
#[test]
fn metro_day_is_the_parents() {
    let orders = Presets::metro(7).dataset().day_orders(0);
    assert_eq!(orders.len(), METRO_DAY_0.0);
    assert_eq!(digest(&orders), METRO_DAY_0.1);
}

/// The full ~100k-order megacity day `megacity_instance` samples from:
/// 640 factories, each with its own hour curve.
#[test]
fn megacity_day_is_the_parents() {
    let orders = Presets::megacity(7).dataset().day_orders(0);
    assert_eq!(orders.len(), MEGACITY_DAY_0.0);
    assert_eq!(digest(&orders), MEGACITY_DAY_0.1);
}

/// `(orders, digest)` per day.
const PAPER_DAY_100: (usize, u64) = (593, 2_438_825_144_915_367_872);
const METRO_DAY_0: (usize, u64) = (424, 16_273_378_537_488_074_878);
const MEGACITY_DAY_0: (usize, u64) = (106_017, 17_106_421_711_792_667_523);
