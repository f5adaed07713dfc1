//! Mid-episode re-partition determinism.
//!
//! Re-partitioning re-seeds the shard map from live demand at flush
//! boundaries — a pure work optimisation. These tests pin the contract:
//!
//! 1. **Layout invariance** — a hierarchical, periodically re-partitioned
//!    episode is the committed digest of the plain unsharded one
//!    (`tests/golden`), across thread widths {1, N} × escalation widths
//!    {0, 2, 3}.
//! 2. **Non-vacuity** — the suite is only meaningful if re-partitions
//!    actually fire, so every sharded leg asserts ≥ 1 `repartitioned`
//!    epoch, and the *count* of them is itself invariant.
//! 3. **Inertness** — `RepartitionPolicy::Never` never sets the flag.

mod golden;

use dpdp_core::prelude::*;
use dpdp_net::TimeDelta;
use dpdp_pool::ThreadPool;
use dpdp_sim::{BufferingMode, EpochInfo, InvariantAuditor, RepartitionPolicy, ShardConfig};
use golden::parallel_threads;
use std::sync::Arc;

/// Counts epochs whose shard map was re-seeded.
#[derive(Default)]
struct RepartitionCounter(usize);

impl SimObserver for RepartitionCounter {
    fn on_epoch(&mut self, epoch: &EpochInfo) {
        if epoch.repartitioned {
            self.0 += 1;
        }
    }
}

/// A two-level layout that re-seeds aggressively: every other flush, no
/// demand floor, so an hour-buffered metro day fires several times.
fn repartitioning_config(escalation: usize) -> ShardConfig {
    ShardConfig::hierarchical(2, 2)
        .expect("positive region/cell counts")
        .escalation(escalation)
        .repartition(RepartitionPolicy::Periodic {
            every_epochs: 2,
            min_orders: 1,
        })
        .expect("positive epoch period")
}

#[test]
fn repartitioned_episodes_match_the_unsharded_run_bit_for_bit() {
    let case = golden::cases("metro_baseline1_60min")
        .pop()
        .expect("the unsharded episode, committed as a metro case");
    let mut fire_counts = Vec::new();
    for escalation in [0usize, 2, 3] {
        for threads in [1usize, parallel_threads()] {
            let mut fired = RepartitionCounter::default();
            let result = case.run(
                repartitioning_config(escalation),
                &Arc::new(ThreadPool::new(threads)),
                &mut [&mut fired],
            );
            case.assert_digest(
                &result,
                &format!("escalation {escalation} / {threads} thread(s)"),
            );
            assert!(
                fired.0 >= 1,
                "vacuous run: no re-partition fired at escalation {escalation} / \
                 {threads} thread(s)"
            );
            fire_counts.push(fired.0);
        }
    }
    assert!(
        fire_counts.windows(2).all(|w| w[0] == w[1]),
        "re-partition cadence must be a pure function of the demand \
         stream, got {fire_counts:?}"
    );
}

#[test]
fn the_never_policy_keeps_the_initial_partition() {
    let metro = Presets::metro(7);
    let instance = metro.metro_instance(40, 16, 3);
    let mut fired = RepartitionCounter::default();
    let result = Simulator::builder(&instance)
        .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
        .sharding(ShardConfig::hierarchical(2, 2).expect("positive region/cell counts"))
        .build()
        .expect("valid sharded configuration")
        .run_observed(
            &mut Baseline1,
            &mut [&mut fired, &mut InvariantAuditor::default()],
        );
    assert_eq!(fired.0, 0, "Never must not re-seed");
    assert!(result.metrics.served > 0, "episode must do real work");
}
