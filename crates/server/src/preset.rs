//! Named serving presets: the instance geometries and dispatch policies a
//! session can ask for at `HELLO` time.
//!
//! Every preset has an **empty replay table**: all demand arrives over the
//! wire, so the engine assigns streamed orders the dense ids `0, 1, 2, …`
//! in send order — which is what lets clients target `CANCEL` frames and
//! the parity suite replay the same trace in-process.

use dpdp_baselines::{Baseline1, Baseline2, Baseline3};
use dpdp_net::{FleetConfig, Instance, IntervalGrid, Node, NodeId, Point, RoadNetwork, TimeDelta};
use dpdp_sim::{Dispatcher, FirstFeasible, ShardConfig};

/// The preset names `HELLO` accepts, in the order they are advertised.
pub const PRESET_NAMES: &[&str] = &["line4", "grid9", "ring12"];

/// The dispatch policy names `HELLO` accepts.
pub const POLICY_NAMES: &[&str] = &["baseline1", "baseline2", "baseline3", "first_feasible"];

fn line4() -> Instance {
    // The two-hotspot line city of `examples/live_serve`: a depot and
    // three factories strung along 24 km.
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::factory(NodeId(1), Point::new(8.0, 0.0)),
        Node::factory(NodeId(2), Point::new(16.0, 0.0)),
        Node::factory(NodeId(3), Point::new(24.0, 0.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).expect("valid preset network");
    let fleet = FleetConfig::homogeneous(
        3,
        &[NodeId(0)],
        10.0,
        500.0,
        2.0,
        40.0,
        TimeDelta::from_minutes(2.0),
    )
    .expect("valid preset fleet");
    Instance::new(net, fleet, IntervalGrid::paper_default(), vec![]).expect("valid preset")
}

fn grid9() -> Instance {
    // A 3 x 3 factory block on a 20 km square, depot at the corner.
    let mut nodes = vec![Node::depot(NodeId(0), Point::new(0.0, 0.0))];
    for row in 0..3u32 {
        for col in 0..3u32 {
            let id = 1 + row * 3 + col;
            nodes.push(Node::factory(
                NodeId(id),
                Point::new(5.0 + 7.5 * col as f64, 5.0 + 7.5 * row as f64),
            ));
        }
    }
    let net = RoadNetwork::euclidean(nodes, 1.2).expect("valid preset network");
    let fleet = FleetConfig::homogeneous(
        6,
        &[NodeId(0)],
        12.0,
        500.0,
        2.0,
        40.0,
        TimeDelta::from_minutes(2.0),
    )
    .expect("valid preset fleet");
    Instance::new(net, fleet, IntervalGrid::paper_default(), vec![]).expect("valid preset")
}

fn ring12() -> Instance {
    // Twelve factories on a 15 km ring around a central depot — the
    // loadgen workhorse: enough spread that routes stay non-trivial.
    let mut nodes = vec![Node::depot(NodeId(0), Point::new(0.0, 0.0))];
    for i in 0..12u32 {
        let angle = std::f64::consts::TAU * i as f64 / 12.0;
        nodes.push(Node::factory(
            NodeId(1 + i),
            Point::new(15.0 * angle.cos(), 15.0 * angle.sin()),
        ));
    }
    let net = RoadNetwork::euclidean(nodes, 1.1).expect("valid preset network");
    let fleet = FleetConfig::homogeneous(
        8,
        &[NodeId(0)],
        10.0,
        500.0,
        2.0,
        40.0,
        TimeDelta::from_minutes(2.0),
    )
    .expect("valid preset fleet");
    Instance::new(net, fleet, IntervalGrid::paper_default(), vec![]).expect("valid preset")
}

/// Builds the named preset instance, or `None` for an unknown name.
pub fn build_instance(name: &str) -> Option<Instance> {
    match name {
        "line4" => Some(line4()),
        "grid9" => Some(grid9()),
        "ring12" => Some(ring12()),
        _ => None,
    }
}

/// The shard layout each preset's episodes score under, or `None` for an
/// unknown name.
///
/// Sharding never changes decisions — the pruned evaluation is
/// bit-identical to the full sweep — so the registry only tunes how much
/// scoring work each preset's epochs parallelise. The tiny line and grid
/// cities run on one cell, the default layout, which prunes nothing; the
/// ring is wide enough to exercise the hierarchical two-level layout,
/// which also keeps the socket-parity suite honest about sharded ≡ one
/// cell over the wire. A `HELLO` frame
/// may override the registered layout with a flat shard count.
pub fn shard_config(name: &str) -> Option<ShardConfig> {
    match name {
        "line4" | "grid9" => Some(ShardConfig::default()),
        "ring12" => Some(ShardConfig::hierarchical(2, 2).expect("positive region and cell counts")),
        _ => None,
    }
}

/// Builds the named dispatch policy, or `None` for an unknown name.
pub fn build_policy(name: &str) -> Option<Box<dyn Dispatcher>> {
    match name {
        "baseline1" => Some(Box::new(Baseline1)),
        "baseline2" => Some(Box::new(Baseline2)),
        "baseline3" => Some(Box::new(Baseline3::default())),
        "first_feasible" => Some(Box::new(FirstFeasible)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_advertised_preset_builds_with_an_empty_table() {
        for name in PRESET_NAMES {
            let instance = build_instance(name).expect("advertised preset builds");
            assert_eq!(instance.num_orders(), 0, "{name} must stream all demand");
            assert!(instance.num_vehicles() >= 3, "{name} fleet too small");
        }
        assert!(build_instance("mars").is_none());
    }

    #[test]
    fn every_advertised_policy_builds() {
        for name in POLICY_NAMES {
            assert!(build_policy(name).is_some(), "policy {name} must build");
        }
        assert!(build_policy("oracle").is_none());
    }

    #[test]
    fn every_advertised_preset_registers_a_shard_config() {
        for name in PRESET_NAMES {
            assert!(
                shard_config(name).is_some(),
                "preset {name} must register a shard layout"
            );
        }
        assert!(shard_config("mars").is_none());
        // The ring showcases the two-level layout: 2 regions × 2 cells.
        let ring = shard_config("ring12").expect("registered");
        assert_eq!(ring.num_shards(), 4);
        // The tiny cities stay on one cell.
        assert_eq!(shard_config("line4").expect("registered").num_shards(), 1);
    }
}
