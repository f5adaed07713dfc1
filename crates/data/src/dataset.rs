//! Dataset assembly: campus + generator + fleet → ready-to-run instances.
//!
//! Mirrors the paper's experimental data protocol (Section V-B): months of
//! daily order data, a train/test split by day, *sampled* instances of a
//! chosen scale drawn uniformly from a day pool, and *industry-scale*
//! instances that take a full generated day as-is.

use crate::campus::{Campus, CampusConfig};
use crate::generator::{OrderGenerator, OrderGeneratorConfig};
use crate::predictor::{DemandPredictor, MeanPredictor};
use crate::std_matrix::{FactoryIndex, StdMatrix};
use dpdp_net::{FleetConfig, Instance, IntervalGrid, Order, OrderId, TimeDelta};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;

/// Full dataset configuration.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Campus layout parameters.
    pub campus: CampusConfig,
    /// Order generation parameters.
    pub generator: OrderGeneratorConfig,
    /// Vehicle capacity `Q`.
    pub capacity: f64,
    /// Fixed cost `mu` per used vehicle.
    pub fixed_cost: f64,
    /// Operating cost `delta` per km.
    pub unit_cost: f64,
    /// Constant travel speed, km/h.
    pub speed_kmh: f64,
    /// Per-stop service time.
    pub service_time: TimeDelta,
    /// Days used for training (e.g. July–September).
    pub train_days: Range<u64>,
    /// Days used for testing (the paper holds out the last 20 days).
    pub test_days: Range<u64>,
}

impl Default for DatasetConfig {
    /// Paper-like defaults: ~4 months of days, the last 20 held out.
    fn default() -> Self {
        DatasetConfig {
            campus: CampusConfig::default(),
            generator: OrderGeneratorConfig::default(),
            capacity: 10.0,
            fixed_cost: 300.0,
            unit_cost: 2.0,
            speed_kmh: 40.0,
            service_time: TimeDelta::from_minutes(5.0),
            train_days: 0..100,
            test_days: 100..120,
        }
    }
}

/// A materialised dataset: the campus and the (lazy, seeded) order stream.
#[derive(Debug, Clone)]
pub struct Dataset {
    campus: Campus,
    generator: OrderGenerator,
    config: DatasetConfig,
    grid: IntervalGrid,
}

impl Dataset {
    /// Builds the dataset (generates the campus; orders are generated on
    /// demand, deterministically per day).
    pub fn new(config: DatasetConfig) -> Self {
        let campus = Campus::generate(&config.campus);
        let generator = OrderGenerator::new(&campus, config.generator.clone());
        Dataset {
            campus,
            generator,
            config,
            grid: IntervalGrid::paper_default(),
        }
    }

    /// The generated campus.
    pub fn campus(&self) -> &Campus {
        &self.campus
    }

    /// The dataset configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// The interval grid (paper default: 144 ten-minute intervals).
    pub fn grid(&self) -> IntervalGrid {
        self.grid
    }

    /// Factory-to-row mapping for STD matrices.
    pub fn factory_index(&self) -> FactoryIndex {
        FactoryIndex::new(&self.campus.factories)
    }

    /// All orders of one day.
    pub fn day_orders(&self, day: u64) -> Vec<Order> {
        self.generator.generate_day(day)
    }

    /// Builds a fleet of `k` vehicles over the campus depots.
    pub fn fleet(&self, k: usize) -> FleetConfig {
        FleetConfig::homogeneous(
            k,
            &self.campus.depots,
            self.config.capacity,
            self.config.fixed_cost,
            self.config.unit_cost,
            self.config.speed_kmh,
            self.config.service_time,
        )
        .expect("dataset config validated at construction")
    }

    /// An *industry-scale* instance: one full day of orders, as generated.
    pub fn day_instance(&self, day: u64, num_vehicles: usize) -> Instance {
        Instance::new(
            self.campus.network.clone(),
            self.fleet(num_vehicles),
            self.grid,
            self.day_orders(day),
        )
        .expect("generated orders are valid for the campus")
    }

    /// A *sampled* instance: `num_orders` orders drawn uniformly (without
    /// replacement) from the pool of `days`, keeping their creation times.
    /// This matches the paper's "various scales of instances constructed by
    /// uniformly sampling" protocol.
    pub fn sampled_instance(
        &self,
        days: Range<u64>,
        num_orders: usize,
        num_vehicles: usize,
        seed: u64,
    ) -> Instance {
        let mut pool: Vec<Order> = days.flat_map(|d| self.day_orders(d)).collect();
        assert!(
            pool.len() >= num_orders,
            "pool of {} orders cannot supply {num_orders}",
            pool.len()
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Partial Fisher–Yates: the first `num_orders` entries become the
        // uniform sample.
        for i in 0..num_orders {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(num_orders);
        for (i, o) in pool.iter_mut().enumerate() {
            o.id = OrderId::from_index(i);
        }
        Instance::new(
            self.campus.network.clone(),
            self.fleet(num_vehicles),
            self.grid,
            pool,
        )
        .expect("sampled orders remain valid")
    }

    /// STD matrices for a range of days, oldest first.
    pub fn std_history(&self, days: Range<u64>) -> Vec<StdMatrix> {
        let index = self.factory_index();
        days.map(|d| StdMatrix::from_orders(&self.day_orders(d), &self.grid, &index))
            .collect()
    }

    /// Predicted STD matrix for `day` using the paper's mean aggregate over
    /// the `k` preceding days (Eq. (3)).
    pub fn predicted_std(&self, day: u64, k: usize) -> StdMatrix {
        let start = day.saturating_sub(k as u64);
        let history = self.std_history(start..day.max(1));
        MeanPredictor::new(k).predict(&history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        let mut cfg = DatasetConfig::default();
        cfg.generator.orders_per_day = 60;
        Dataset::new(cfg)
    }

    #[test]
    fn day_instance_shapes() {
        let ds = small();
        let inst = ds.day_instance(0, 10);
        assert_eq!(inst.num_vehicles(), 10);
        assert!(inst.num_orders() > 30);
        // Orders dense and sorted.
        for (i, o) in inst.orders().iter().enumerate() {
            assert_eq!(o.id.index(), i);
        }
    }

    #[test]
    fn sampled_instance_is_deterministic_and_correctly_sized() {
        let ds = small();
        let a = ds.sampled_instance(0..3, 40, 5, 99);
        let b = ds.sampled_instance(0..3, 40, 5, 99);
        assert_eq!(a.num_orders(), 40);
        assert_eq!(a.orders(), b.orders());
        let c = ds.sampled_instance(0..3, 40, 5, 100);
        assert_ne!(a.orders(), c.orders());
    }

    #[test]
    #[should_panic(expected = "cannot supply")]
    fn oversampling_panics() {
        let ds = small();
        let _ = ds.sampled_instance(0..1, 100_000, 5, 0);
    }

    #[test]
    fn std_history_and_prediction() {
        let ds = small();
        let hist = ds.std_history(0..4);
        assert_eq!(hist.len(), 4);
        for m in &hist {
            assert_eq!(m.num_factories(), 27);
            assert_eq!(m.num_intervals(), 144);
            assert!(m.total() > 0.0);
        }
        let pred = ds.predicted_std(4, 3);
        assert_eq!(pred.num_factories(), 27);
        // Prediction total should be near the mean of the last 3 days.
        let mean: f64 = hist[1..].iter().map(|m| m.total()).sum::<f64>() / 3.0;
        assert!((pred.total() - mean).abs() < 1e-6);
    }

    #[test]
    fn predicted_matrix_correlates_with_actual_next_day() {
        // Individual 10-minute cells are sparse, but per-factory demand
        // recurs day over day: the predicted row sums should align with the
        // actual next day far better than a uniform spread would.
        let ds = small();
        let actual = ds.std_history(5..6).pop().unwrap();
        let pred = ds.predicted_std(5, 4);
        let cosine = |a: &[f64], b: &[f64]| -> f64 {
            let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
            dot / (na * nb)
        };
        let sim = cosine(&pred.row_sums(), &actual.row_sums());
        assert!(
            sim > 0.8,
            "factory-level prediction similarity {sim} too low"
        );
        let uniform = vec![1.0; 27];
        let baseline = cosine(&uniform, &actual.row_sums());
        assert!(
            sim > baseline,
            "prediction ({sim}) no better than uniform ({baseline})"
        );
    }
}
