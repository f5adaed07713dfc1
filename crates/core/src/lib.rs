//! High-level API for the ST-DDGN DPDP reproduction.
//!
//! This crate ties the substrates together into the paper's experimental
//! pipeline:
//!
//! * [`presets`] — the three instance scales of Section V (tiny instances
//!   for the optimality study, large-scale 50-vehicle/150-order instances,
//!   industry-scale full days);
//! * [`models`] — one-call construction of every dispatcher the paper
//!   evaluates (Baselines 1–3, DQN, AC, DGN, DDQN, DDGN, ST-DDQN, ST-DDGN);
//! * [`experiment`] — timed evaluation of dispatchers on instances and
//!   comparison tables;
//! * [`report`] — plain-text / CSV rendering used by the table and figure
//!   regenerators in `dpdp-bench`.
//!
//! # Quickstart
//!
//! ```no_run
//! use dpdp_core::presets::Presets;
//! use dpdp_core::models;
//! use dpdp_core::experiment::evaluate;
//!
//! let presets = Presets::quick();
//! let instance = presets.large_instance(0);
//! let mut b1 = models::baseline1();
//! let row = evaluate(&mut *b1, &instance);
//! println!("NUV = {}, TC = {:.1}", row.nuv, row.total_cost);
//! ```
//!
//! For full control, configure the simulator through its builder and watch
//! episodes through observers. Dispatch runs in *batched decision epochs*:
//! all orders sharing a decision time are decided by one
//! `Dispatcher::dispatch_batch` call against a shared fleet snapshot
//! (per-order policies are adapted automatically):
//!
//! ```no_run
//! use dpdp_core::prelude::*;
//! use dpdp_net::TimeDelta;
//!
//! let presets = Presets::quick();
//! let instance = presets.large_instance(0);
//! let sim = Simulator::builder(&instance)
//!     .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(10.0)))
//!     .seed(7)
//!     .build()
//!     .expect("positive buffering period");
//! let mut counter = EventCounter::default(); // a SimObserver
//! let mut b1 = models::baseline1();
//! let result = sim.run_observed(&mut *b1, &mut [&mut counter]);
//! println!(
//!     "{} epochs, {} decisions, TC {:.1}",
//!     counter.epochs, counter.decisions, result.metrics.total_cost,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod models;
pub mod presets;
pub mod probes;
pub mod report;

pub use experiment::{
    evaluate, evaluate_many_threads, evaluate_pooled, evaluate_threads, EvalProbe, EvalRow,
};
pub use models::ModelSpec;
pub use presets::Presets;
pub use probes::{CurveProbe, DemandRecorder};

/// Commonly used re-exports for downstream binaries and examples.
pub mod prelude {
    pub use crate::experiment::{
        evaluate, evaluate_many_threads, evaluate_pooled, evaluate_threads, EvalProbe, EvalRow,
    };
    pub use crate::models::{self, ModelSpec};
    pub use crate::presets::Presets;
    pub use crate::probes::{CurveProbe, DemandRecorder};
    pub use crate::report;
    pub use dpdp_baselines::{Baseline1, Baseline2, Baseline3, ExactSolver};
    pub use dpdp_data::{Dataset, DatasetConfig, StScorer, StdMatrix};
    pub use dpdp_net::Instance;
    pub use dpdp_rl::{
        train, train_observed, ActorCriticAgent, AgentConfig, DqnAgent, ModelKind, TrainObserver,
        TrainerConfig,
    };
    pub use dpdp_sim::{
        BufferingMode, Decision, DecisionBatch, DecisionReason, Dispatcher, DisruptionConfig,
        DisruptionKind, DisruptionRecord, EpisodeMetrics, EpisodeResult, EventCounter,
        MetricsOptions, RepartitionPolicy, ShardConfig, SimObserver, Simulator, SimulatorBuilder,
        StreamCommand,
    };
}
