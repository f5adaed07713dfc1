//! Data substrate for the DPDP reproduction.
//!
//! The paper trains and evaluates on four months of proprietary delivery
//! orders from a 27-factory manufacturing campus. This crate replaces that
//! data with a **seeded synthetic generator** that reproduces the structure
//! the method exploits (see [`generator`]): persistent factory-level demand
//! heterogeneity and a two-peak intra-day profile, drifting slowly from day
//! to day.
//!
//! On top of the generator it implements the paper's spatial-temporal
//! machinery:
//!
//! * [`StdMatrix`] — Definition 1, the `n x T` spatial-temporal distribution
//!   of delivery demand;
//! * [`MeanPredictor`] / [`EwmaPredictor`] — Eq. (3), forecasting the next
//!   day's STD matrix from history;
//! * [`divergence`] — KL / symmetric-KL / JS divergences;
//! * [`StScorer`] — Definitions 2–5, the ST Score of a candidate route.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campus;
pub mod dataset;
pub mod divergence;
pub mod generator;
pub mod predictor;
pub mod st_score;
pub mod std_matrix;

pub use campus::{Campus, CampusConfig};
pub use dataset::{Dataset, DatasetConfig};
pub use divergence::{js_divergence, kl_divergence, normalize, symmetric_kl, DivergenceKind};
pub use generator::{DemandProfile, OrderGenerator, OrderGeneratorConfig};
pub use predictor::{DemandPredictor, EwmaPredictor, MeanPredictor};
pub use st_score::StScorer;
pub use std_matrix::{FactoryIndex, StdMatrix};
