//! Mid-episode re-partition determinism.
//!
//! Re-partitioning re-seeds the shard map from live demand at flush
//! boundaries — a pure work optimisation. These tests pin the contract:
//!
//! 1. **Layout invariance** — a hierarchical, periodically re-partitioned
//!    episode is **bit-identical** to the plain unsharded one, across
//!    thread widths {1, N} × escalation widths {0, 2, 3}.
//! 2. **Non-vacuity** — the suite is only meaningful if re-partitions
//!    actually fire, so every sharded leg asserts ≥ 1 `repartitioned`
//!    epoch, and the *count* of them is itself invariant.
//! 3. **Engine parity** — `run_observed` (event engine) and
//!    `run_reference` (scan loop) re-partition in lockstep.
//! 4. **Inertness** — `RepartitionPolicy::Never` never sets the flag.

use dpdp_core::prelude::*;
use dpdp_net::TimeDelta;
use dpdp_sim::{BufferingMode, EpochInfo, InvariantAuditor, RepartitionPolicy, ShardConfig};

/// Parallel width for the thread-parity legs: `DPDP_TEST_THREADS`, or 4.
fn parallel_threads() -> usize {
    std::env::var("DPDP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

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
    let metro = Presets::metro(7);
    let instance = metro.metro_instance(60, 32, 5);
    let buffering = BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0));
    let baseline = Simulator::builder(&instance)
        .buffering(buffering)
        .build()
        .expect("valid unsharded configuration")
        .run_observed(&mut Baseline1, &mut [&mut InvariantAuditor::default()]);

    let mut fire_counts = Vec::new();
    for escalation in [0usize, 2, 3] {
        for threads in [1usize, parallel_threads()] {
            let mut fired = RepartitionCounter::default();
            let result = Simulator::builder(&instance)
                .buffering(buffering)
                .sharding(repartitioning_config(escalation))
                .num_threads(threads)
                .build()
                .expect("valid sharded configuration")
                .run_observed(
                    &mut Baseline1,
                    &mut [&mut fired, &mut InvariantAuditor::default()],
                );
            assert_eq!(
                result, baseline,
                "episode diverged at escalation {escalation} / {threads} thread(s)"
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
fn engine_and_reference_loop_repartition_in_lockstep() {
    let metro = Presets::metro(7);
    let instance = metro.metro_instance(48, 24, 9);
    for threads in [1usize, parallel_threads()] {
        let sim = Simulator::builder(&instance)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(60.0)))
            .sharding(repartitioning_config(2))
            .num_threads(threads)
            .build()
            .expect("valid sharded configuration");
        let mut engine_fired = RepartitionCounter::default();
        let engine = sim.run_observed(
            &mut Baseline1,
            &mut [&mut engine_fired, &mut InvariantAuditor::default()],
        );
        let mut reference_fired = RepartitionCounter::default();
        let reference = sim.run_reference(
            &mut Baseline1,
            &mut [&mut reference_fired, &mut InvariantAuditor::default()],
        );
        assert_eq!(
            engine, reference,
            "engine vs reference diverged at {threads} thread(s)"
        );
        assert_eq!(
            engine_fired.0, reference_fired.0,
            "the two loops must re-seed at the same epochs"
        );
        assert!(engine_fired.0 >= 1, "vacuous parity run");
    }
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
