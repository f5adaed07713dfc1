//! The unified sharding surface: [`ShardConfig`] describes *how* decision
//! epochs are partitioned (flat cells or two-level regions → cells), how
//! wide the cross-cell escalation rule is, and *when* the partition is
//! re-seeded from live demand mid-episode ([`RepartitionPolicy`]).
//!
//! One validated value replaces what used to be three loose
//! `SimulatorBuilder` knobs (`num_shards` / `shard_policy` /
//! `shard_escalation`): build a config with [`ShardConfig::flat`] or
//! [`ShardConfig::hierarchical`], refine it with
//! [`ShardConfig::escalation`] / [`ShardConfig::repartition`], and hand it
//! to [`SimulatorBuilder::sharding`].
//!
//! ```
//! # use dpdp_sim::{RepartitionPolicy, ShardConfig};
//! let cfg = ShardConfig::hierarchical(4, 8)
//!     .expect("positive region/cell counts")
//!     .escalation(3)
//!     .repartition(RepartitionPolicy::periodic(4))
//!     .expect("positive epoch period");
//! assert_eq!(cfg.num_shards(), 32);
//! ```
//!
//! Every knob here is a **work knob**: episode decisions are bit-identical
//! for any shard layout, escalation width, re-partition cadence and thread
//! count (see [`crate::sweep`] for why). Only wall time moves.
//!
//! [`SimulatorBuilder::sharding`]: crate::simulator::SimulatorBuilder::sharding

use crate::simulator::{SimBuildError, DEFAULT_SHARD_ESCALATION};
use crate::sweep::ShardContext;
use dpdp_net::{Order, RoadNetwork, ShardMap, ShardPolicy};
use std::sync::Arc;

/// When (if ever) an episode re-seeds its shard map from live demand.
///
/// Re-partitioning only ever happens **at flush boundaries** and is a pure
/// function of the demand stream decided so far, so a fixed seed stays
/// bit-identical across thread counts and escalation widths.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum RepartitionPolicy {
    /// Keep the initial (geometry-seeded) partition for the whole episode.
    #[default]
    Never,
    /// Every `every_epochs`-th flush boundary, re-run the partition's
    /// k-means with centroid updates weighted by the quantity-weighted
    /// pickup demand observed since the previous re-partition (the same
    /// accumulation `dpdp-core`'s `DemandRecorder` observer performs).
    /// Skipped until at least `min_orders` orders accumulated, so quiet
    /// stretches keep their partition.
    Periodic {
        /// Flush boundaries between re-seeds (must be ≥ 1).
        every_epochs: usize,
        /// Minimum orders observed since the last re-seed before another
        /// one fires (0 = always).
        min_orders: usize,
    },
}

impl RepartitionPolicy {
    /// Periodic re-seeding every `every_epochs` flushes with a small
    /// default demand floor (8 orders).
    pub fn periodic(every_epochs: usize) -> RepartitionPolicy {
        RepartitionPolicy::Periodic {
            every_epochs,
            min_orders: 8,
        }
    }
}

/// A validated sharding configuration for
/// [`SimulatorBuilder::sharding`](crate::simulator::SimulatorBuilder::sharding):
/// partition shape, escalation width and re-partition cadence in one value.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    policy: ShardPolicy,
    num_shards: usize,
    escalation: usize,
    repartition: RepartitionPolicy,
}

impl Default for ShardConfig {
    /// Unsharded: one flat cell, the degenerate partition every pair of
    /// which is in-cell.
    fn default() -> Self {
        ShardConfig {
            policy: ShardPolicy::default(),
            num_shards: 1,
            escalation: DEFAULT_SHARD_ESCALATION,
            repartition: RepartitionPolicy::Never,
        }
    }
}

impl ShardConfig {
    /// A flat partition into `num_shards` seeded k-means cells (1 = one
    /// cell, unsharded).
    ///
    /// # Errors
    /// [`SimBuildError::ZeroShards`] when `num_shards == 0`.
    pub fn flat(num_shards: usize) -> Result<ShardConfig, SimBuildError> {
        if num_shards == 0 {
            return Err(SimBuildError::ZeroShards);
        }
        Ok(ShardConfig {
            num_shards,
            ..ShardConfig::default()
        })
    }

    /// A two-level partition: `regions` coarse metro regions, each split
    /// into `cells_per_region` fine cells (`regions * cells_per_region`
    /// shards total). Cross-cell escalation stays inside the parent
    /// region; cross-region pairs rely on the exact geometric prune.
    ///
    /// # Errors
    /// [`SimBuildError::InvalidSharding`] when either count is zero.
    pub fn hierarchical(
        regions: usize,
        cells_per_region: usize,
    ) -> Result<ShardConfig, SimBuildError> {
        if regions == 0 || cells_per_region == 0 {
            return Err(SimBuildError::InvalidSharding {
                reason: format!(
                    "hierarchical sharding needs positive counts, got {regions} regions x \
                     {cells_per_region} cells"
                ),
            });
        }
        Ok(ShardConfig {
            policy: ShardPolicy::Hierarchical {
                regions,
                cells_per_region,
                iterations: 8,
            },
            num_shards: regions * cells_per_region,
            ..ShardConfig::default()
        })
    }

    /// Sets the escalation width `m`: the `m` nearest same-region foreign
    /// vehicles per order that are always evaluated in full (default
    /// [`DEFAULT_SHARD_ESCALATION`]; 0 = prune-only). Purely a work knob —
    /// results are bit-identical for every `m`.
    pub fn escalation(mut self, m: usize) -> ShardConfig {
        self.escalation = m;
        self
    }

    /// Sets the mid-episode re-partition cadence (default
    /// [`RepartitionPolicy::Never`]).
    ///
    /// # Errors
    /// [`SimBuildError::InvalidSharding`] for
    /// [`RepartitionPolicy::Periodic`] with `every_epochs == 0`.
    pub fn repartition(mut self, policy: RepartitionPolicy) -> Result<ShardConfig, SimBuildError> {
        if let RepartitionPolicy::Periodic { every_epochs, .. } = policy {
            if every_epochs == 0 {
                return Err(SimBuildError::InvalidSharding {
                    reason: "re-partition cadence must be at least 1 epoch".into(),
                });
            }
        }
        self.repartition = policy;
        Ok(self)
    }

    /// Total number of shards (cells): `num_shards` for flat configs,
    /// `regions * cells_per_region` for hierarchical ones.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The partition policy the config builds maps with.
    pub fn policy(&self) -> ShardPolicy {
        self.policy
    }

    /// The escalation width `m`.
    pub fn escalation_width(&self) -> usize {
        self.escalation
    }

    /// The re-partition cadence.
    pub fn repartition_policy(&self) -> RepartitionPolicy {
        self.repartition
    }

    /// Builds the initial [`ShardContext`] for an episode: a one-cell map
    /// for the unsharded default.
    pub(crate) fn initial_context(&self, net: &RoadNetwork, seed: u64) -> ShardContext {
        ShardContext {
            map: Arc::new(ShardMap::build(net, self.num_shards, self.policy, seed)),
            escalation: self.escalation,
        }
    }
}

/// Episode-local sharding state: the current [`ShardContext`] plus the
/// demand accumulator driving mid-episode re-partitioning.
///
/// An episode creates one and the epoch body drives it: `observe` every
/// epoch order, then `maybe_repartition` at the flush boundary **before**
/// the epoch's batch forms. Because the demand stream decided so far is
/// bit-identical across thread counts, escalation widths and shard
/// layouts, so is every re-seeded map — the partition stays a work detail.
pub(crate) struct ShardRuntime {
    ctx: ShardContext,
    config: ShardConfig,
    seed: u64,
    /// Quantity-weighted pickup demand per node since the last re-seed.
    demand: Vec<f64>,
    orders_seen: usize,
    epochs_since: usize,
    repartitions: usize,
}

impl ShardRuntime {
    pub(crate) fn new(
        config: &ShardConfig,
        initial: &ShardContext,
        seed: u64,
        num_nodes: usize,
    ) -> ShardRuntime {
        // Re-seeding one cell cannot change the map.
        let track_demand =
            config.num_shards > 1 && !matches!(config.repartition, RepartitionPolicy::Never);
        ShardRuntime {
            ctx: initial.clone(),
            config: config.clone(),
            seed,
            demand: if track_demand {
                vec![0.0; num_nodes]
            } else {
                Vec::new()
            },
            orders_seen: 0,
            epochs_since: 0,
            repartitions: 0,
        }
    }

    /// The context the next [`DecisionBatch`](crate::batch::DecisionBatch)
    /// should score under.
    pub(crate) fn context(&self) -> ShardContext {
        self.ctx.clone()
    }

    /// Accumulates one epoch order's pickup demand (quantity-weighted,
    /// mirroring `dpdp-core`'s `DemandRecorder`). Serial, in epoch order —
    /// deterministic by construction.
    pub(crate) fn observe(&mut self, order: &Order) {
        if self.demand.is_empty() {
            return;
        }
        self.demand[order.pickup.index()] += order.quantity;
        self.orders_seen += 1;
    }

    /// At a flush boundary: re-seeds the shard map from the accumulated
    /// demand when the cadence and demand floor are met. Returns whether a
    /// re-partition fired (surfaced as
    /// [`EpochInfo::repartitioned`](crate::observer::EpochInfo::repartitioned)).
    pub(crate) fn maybe_repartition(&mut self, net: &RoadNetwork) -> bool {
        if self.demand.is_empty() {
            return false;
        }
        let RepartitionPolicy::Periodic {
            every_epochs,
            min_orders,
        } = self.config.repartition
        else {
            return false;
        };
        self.epochs_since += 1;
        if self.epochs_since < every_epochs || self.orders_seen < min_orders.max(1) {
            return false;
        }
        // Derive a fresh deterministic seed per re-seed so consecutive
        // re-partitions explore different initialisations.
        let derived = self
            .seed
            .wrapping_add((self.repartitions as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.ctx.map = Arc::new(ShardMap::build_weighted(
            net,
            self.config.num_shards,
            self.config.policy,
            derived,
            &self.demand,
        ));
        self.demand.fill(0.0);
        self.orders_seen = 0;
        self.epochs_since = 0;
        self.repartitions += 1;
        true
    }

    /// Number of mid-episode re-partitions fired so far.
    #[cfg(test)]
    pub(crate) fn repartitions(&self) -> usize {
        self.repartitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{Node, NodeId, OrderId, Point, TimePoint};

    fn two_cluster_net() -> RoadNetwork {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
            Node::depot(NodeId(2), Point::new(100.0, 100.0)),
            Node::factory(NodeId(3), Point::new(101.0, 100.0)),
        ];
        RoadNetwork::euclidean(nodes, 1.0).unwrap()
    }

    #[test]
    fn constructors_validate() {
        assert_eq!(ShardConfig::flat(0).unwrap_err(), SimBuildError::ZeroShards);
        assert!(matches!(
            ShardConfig::hierarchical(0, 4).unwrap_err(),
            SimBuildError::InvalidSharding { .. }
        ));
        assert!(matches!(
            ShardConfig::hierarchical(4, 0).unwrap_err(),
            SimBuildError::InvalidSharding { .. }
        ));
        assert!(matches!(
            ShardConfig::flat(2)
                .unwrap()
                .repartition(RepartitionPolicy::Periodic {
                    every_epochs: 0,
                    min_orders: 0
                }),
            Err(SimBuildError::InvalidSharding { .. })
        ));
        let cfg = ShardConfig::hierarchical(3, 5).unwrap().escalation(7);
        assert_eq!(cfg.num_shards(), 15);
        assert_eq!(cfg.escalation_width(), 7);
        assert_eq!(cfg.repartition_policy(), RepartitionPolicy::Never);
    }

    #[test]
    fn the_default_is_one_cell() {
        let net = two_cluster_net();
        let cfg = ShardConfig::default();
        assert_eq!(cfg.num_shards(), 1);
        let map = cfg.initial_context(&net, 7).map;
        assert_eq!(map.num_shards(), 1);
        assert!(net.nodes().iter().all(|n| map.shard_of(n.id) == 0));
        assert_eq!(cfg, ShardConfig::flat(1).unwrap());
    }

    /// An order of the two-cluster network picked up at `pickup` (1 or 3)
    /// and delivered in the other cluster.
    fn order(pickup: u32) -> Order {
        Order::new(
            OrderId(0),
            NodeId(pickup),
            NodeId(if pickup == 1 { 3 } else { 1 }),
            1.0,
            TimePoint::from_hours(8.0),
            TimePoint::from_hours(12.0),
        )
        .unwrap()
    }

    #[test]
    fn runtime_repartitions_on_cadence_and_demand_floor() {
        let net = two_cluster_net();
        let cfg = ShardConfig::flat(2)
            .unwrap()
            .repartition(RepartitionPolicy::Periodic {
                every_epochs: 2,
                min_orders: 2,
            })
            .unwrap();
        let ctx = cfg.initial_context(&net, 7);
        let mut rt = ShardRuntime::new(&cfg, &ctx, 7, net.nodes().len());
        // Epoch 1: cadence not yet met.
        rt.observe(&order(1));
        rt.observe(&order(3));
        assert!(!rt.maybe_repartition(&net));
        // Epoch 2: cadence met, demand floor met → fires.
        rt.observe(&order(1));
        assert!(rt.maybe_repartition(&net));
        assert_eq!(rt.repartitions(), 1);
        assert!(!Arc::ptr_eq(&rt.context().map, &ctx.map));
        // Counters reset: two quiet epochs do not fire (no demand).
        assert!(!rt.maybe_repartition(&net));
        assert!(!rt.maybe_repartition(&net));
        assert_eq!(rt.repartitions(), 1);
    }

    #[test]
    fn unsharded_or_never_runtime_is_inert() {
        let net = two_cluster_net();
        for cfg in [ShardConfig::flat(1).unwrap(), ShardConfig::flat(2).unwrap()] {
            let ctx = cfg.initial_context(&net, 7);
            let mut rt = ShardRuntime::new(&cfg, &ctx, 7, net.nodes().len());
            assert!(!rt.maybe_repartition(&net));
        }
    }

    /// Re-seeding one cell cannot change the map, so a one-cell runtime
    /// tracks no demand and never fires, however eager its cadence.
    #[test]
    fn a_one_cell_runtime_never_repartitions() {
        let net = two_cluster_net();
        let eager = RepartitionPolicy::Periodic {
            every_epochs: 1,
            min_orders: 0,
        };
        let cfg = ShardConfig::flat(1).unwrap().repartition(eager).unwrap();
        let ctx = cfg.initial_context(&net, 7);
        let mut rt = ShardRuntime::new(&cfg, &ctx, 7, net.nodes().len());
        for pickup in [1, 3, 1, 3] {
            rt.observe(&order(pickup));
            assert!(!rt.maybe_repartition(&net));
        }
        assert_eq!(rt.repartitions(), 0);
        assert!(Arc::ptr_eq(&rt.context().map, &ctx.map));
    }
}
