//! Committed decision digests of the parity suites' episodes.
//!
//! `episodes.digest` holds one `case digest` line per [`Case`], the
//! [`digest`] of its episode. A suite runs a case in each shard × thread
//! cell it covers and asserts the committed digest in every one, so the
//! cells agree with each other and with the committed decisions.
//!
//! Digests are per target: the learned policies call `f64::exp`, which
//! comes from the system libm. The committed file is the x86_64-linux
//! one. A change meant to move decisions rewrites it with `cargo test
//! --test event_parity -- --ignored rewrite_the_committed_digests` and
//! says why each moved line moved.
#![allow(dead_code)] // each root test crate including it uses a part

use dpdp_core::prelude::*;
use dpdp_net::TimeDelta;
use dpdp_pool::ThreadPool;
use dpdp_rl::ActorCriticConfig;
use dpdp_sim::InvariantAuditor;
use std::sync::Arc;

/// Parallel width for the thread-parity legs: `DPDP_TEST_THREADS`, or 4.
pub fn parallel_threads() -> usize {
    std::env::var("DPDP_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

type Policy = fn() -> Box<dyn Dispatcher>;

/// One committed episode; a suite picks each cell's layout and width.
pub struct Case {
    name: String,
    pub instance: Instance,
    buffering: BufferingMode,
    /// The disruptions armed and their seed.
    disruptions: Option<(DisruptionConfig, u64)>,
    policy: Policy,
}

impl Case {
    /// The case's simulator: instance, buffering and disruptions.
    pub fn builder(&self) -> SimulatorBuilder<'_> {
        let builder = Simulator::builder(&self.instance).buffering(self.buffering);
        match &self.disruptions {
            Some((config, seed)) => builder.disruptions(config.clone()).seed(*seed),
            None => builder,
        }
    }

    /// A fresh policy, identically seeded on every call.
    pub fn policy(&self) -> Box<dyn Dispatcher> {
        (self.policy)()
    }

    /// The case's episode in one cell — a layout and a pool the caller
    /// keeps, to read what reached it — watched by `probes` and an
    /// [`InvariantAuditor`].
    pub fn run(
        &self,
        sharding: ShardConfig,
        pool: &Arc<ThreadPool>,
        probes: &mut [&mut dyn SimObserver],
    ) -> EpisodeResult {
        let mut auditor = InvariantAuditor::default();
        let mut observers: Vec<&mut dyn SimObserver> = vec![&mut auditor];
        observers.extend(probes.iter_mut().map(|p| &mut **p as &mut dyn SimObserver));
        self.builder()
            .sharding(sharding)
            .thread_pool(Arc::clone(pool))
            .build()
            .expect("valid configuration")
            .run_observed(&mut *self.policy(), &mut observers)
    }

    /// Asserts that `result`, the case's episode in `cell`, is the
    /// committed one.
    pub fn assert_digest(&self, result: &EpisodeResult, cell: &str) {
        let prefix = format!("{} ", self.name);
        let committed = include_str!("episodes.digest")
            .lines()
            .find_map(|line| line.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("no committed digest for case {}", self.name));
        let digest = format!("{:016x}", digest(result));
        assert_eq!(digest, committed, "case {} moved in {cell}", self.name);
    }
}

/// Every case, in file order: each family immediate and buffered, then
/// Baseline 1 on the disrupted metro preset.
fn all_cases() -> Vec<Case> {
    let metro = Presets::metro(7);
    let metro_60 = metro.metro_instance(60, 32, 5);
    let metro_24 = metro.metro_instance(24, 12, 9);
    let mut cfg = DatasetConfig::default();
    cfg.generator.orders_per_day = 60;
    let campus = Presets::with_config(cfg);
    let campus_30 = campus.dataset().sampled_instance(0..3, 30, 8, 21);
    let campus_20 = campus.dataset().sampled_instance(0..3, 20, 6, 13);
    let mut cases = Vec::new();
    let mut family = |name: &str, instance: &Instance, minutes: f64, policy: Policy| {
        let buffered = BufferingMode::FixedInterval(TimeDelta::from_minutes(minutes));
        for (buffering, mode) in [
            (BufferingMode::Immediate, "immediate".to_string()),
            (buffered, format!("{minutes}min")),
        ] {
            cases.push(Case {
                name: format!("{name}_{mode}"),
                instance: instance.clone(),
                buffering,
                disruptions: None,
                policy,
            });
        }
    };
    family("metro_baseline1", &metro_60, 60.0, || Box::new(Baseline1));
    family("metro_baseline2", &metro_60, 60.0, || Box::new(Baseline2));
    family("metro_baseline3", &metro_60, 60.0, || {
        Box::<Baseline3>::default()
    });
    family("campus_baseline1", &campus_30, 10.0, || Box::new(Baseline1));
    family("campus_ac", &campus_20, 10.0, || {
        let config = ActorCriticConfig {
            seed: 3,
            ..ActorCriticConfig::default()
        };
        Box::new(ActorCriticAgent::new(config, 144))
    });
    family("metro_dgn_training", &metro_24, 60.0, || {
        let metro = Presets::metro(7);
        Box::new(models::dqn_agent(ModelKind::Dgn, metro.dataset(), 5))
    });
    let (disrupted, disruptions) = Presets::metro_disrupted(3);
    cases.push(Case {
        name: "metro_disrupted_seed11".into(),
        instance: disrupted.metro_instance(80, 16, 2),
        buffering: BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)),
        disruptions: Some((disruptions, 11)),
        policy: || Box::new(Baseline1),
    });
    // A wide fleet buffered for two hours: its largest epochs reach
    // `FAN_OUT_MIN_CELLS`, so this is the case whose epochs fan out on the
    // pool at the parallel width — every other case's stay below the gate
    // and run inline.
    cases.push(Case {
        name: "metro_wide_baseline1_120min".into(),
        instance: metro.metro_instance(300, 2048, 5),
        buffering: BufferingMode::FixedInterval(TimeDelta::from_minutes(120.0)),
        disruptions: None,
        policy: || Box::new(Baseline1),
    });
    cases
}

/// The committed cases whose names start with `prefix`.
pub fn cases(prefix: &str) -> Vec<Case> {
    all_cases()
        .into_iter()
        .filter(|case| case.name.starts_with(prefix))
        .collect()
}

/// Rewrites `episodes.digest` from each case's one-cell, one-thread run.
pub fn rewrite() {
    let lines: String = all_cases()
        .iter()
        .map(|case| {
            let serial = Arc::new(ThreadPool::serial());
            let result = case.run(ShardConfig::default(), &serial, &mut []);
            format!("{} {:016x}\n", case.name, digest(&result))
        })
        .collect();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/episodes.digest");
    std::fs::write(path, lines).expect("write the digest file");
}

/// FNV-1a (the offset and prime of `crates/core/tests/day_digests.rs`)
/// over every field `EpisodeResult`'s `PartialEq` compares: the metrics
/// and rejection counts, each `AssignmentRecord` and each `VehicleStats`,
/// floats as their bits and each list after its length. A field added to
/// one of those types must be added here.
pub fn digest(result: &EpisodeResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |words: &[u64]| {
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let (m, r) = (&result.metrics, &result.metrics.rejections);
    fold(&[m.nuv, m.served, m.rejected].map(|n| n as u64));
    fold(&[r.no_feasible_vehicle, r.policy_rejected].map(|n| n as u64));
    fold(&[r.infeasible_choice, r.cancelled, r.vehicle_lost].map(|n| n as u64));
    fold(&[m.ttl, m.total_cost, m.avg_response_secs].map(f64::to_bits));
    fold(&[result.assignments.len() as u64]);
    for a in &result.assignments {
        let vehicle = a.vehicle.map_or(u64::MAX, |k| k.index() as u64);
        fold(&[a.order.index() as u64, vehicle, a.reason as u64]);
        fold(&[a.interval as u64, a.vehicle_was_used as u64]);
        fold(&[a.time.seconds(), a.prev_length, a.new_length].map(f64::to_bits));
    }
    fold(&[result.vehicles.len() as u64]);
    for v in &result.vehicles {
        fold(&[v.vehicle.index() as u64, v.used as u64]);
        fold(&[v.travel_km.to_bits(), v.orders_accepted as u64]);
    }
    h
}
