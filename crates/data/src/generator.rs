//! Synthetic delivery-order generation with a recurring spatial-temporal
//! pattern.
//!
//! The generator is the repo's substitute for the paper's four months of
//! campus orders, which were never released. It reproduces the structure
//! visible in the paper's Fig. 2: (a) a few "hot" factories generate most
//! demand on every day, (b) demand concentrates in two intra-day peaks
//! (10–12 a.m., 2–5 p.m.), and (c) consecutive days are more alike than
//! distant ones — modelled by an AR(1) multiplicative drift on per-factory
//! weights.

use crate::campus::Campus;
use dpdp_net::{NodeId, Order, OrderId, TimeDelta, TimePoint};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Standard normal sample via Box–Muller (rand_distr is not a dependency).
fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples an index from unnormalised non-negative weights; `total` is
/// `weights.iter().sum()`, which callers compute once per weight vector
/// rather than once per draw.
fn sample_weighted(rng: &mut StdRng, weights: &[f64], total: f64) -> usize {
    debug_assert!(total > 0.0, "weights must not be all zero");
    let mut target = rng.random_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if target < *w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

/// The stationary part of the demand pattern: per-factory base weights and
/// the intra-day intensity profile.
#[derive(Debug, Clone)]
pub struct DemandProfile {
    /// Unnormalised pickup intensity per factory (row order of the campus'
    /// factory list). A heavy-tailed mix: a few hot factories dominate.
    pub factory_weights: Vec<f64>,
    /// Unnormalised intensity per hour of day (24 entries). Two-peak shape.
    pub hourly_weights: [f64; 24],
    /// Optional per-factory hourly profiles (same row order as
    /// `factory_weights`). When non-empty, an order's creation hour is
    /// drawn from its pickup factory's own curve instead of the global
    /// `hourly_weights` — this is how metro hotspots get *distinct*
    /// order-rate profiles (staggered peaks per cluster). Empty = legacy
    /// single-profile behaviour.
    pub factory_hours: Vec<[f64; 24]>,
}

impl DemandProfile {
    /// Builds the paper-like profile for `num_factories` factories: factory
    /// weights decay geometrically (hot spots), hours follow a two-peak
    /// working-day curve.
    pub fn paper_like(num_factories: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Geometric decay with multiplicative jitter; shuffle so hot
        // factories are not always the low ids.
        let mut factory_weights: Vec<f64> = (0..num_factories)
            .map(|i| 0.85f64.powi(i as i32) * rng.random_range(0.6..1.4))
            .collect();
        for i in (1..factory_weights.len()).rev() {
            let j = rng.random_range(0..=i);
            factory_weights.swap(i, j);
        }
        // Two peaks: 10-12 a.m. and 2-5 p.m.; low but non-zero otherwise
        // during working hours, nearly zero at night.
        let mut hourly_weights = [0.0f64; 24];
        for (h, w) in hourly_weights.iter_mut().enumerate() {
            *w = match h {
                10 | 11 => 10.0,
                14..=16 => 8.0,
                8 | 9 | 12 | 13 | 17 => 3.0,
                7 | 18 | 19 => 1.0,
                _ => 0.1,
            };
        }
        DemandProfile {
            factory_weights,
            hourly_weights,
            factory_hours: Vec::new(),
        }
    }

    /// Builds a metro-style profile: the paper-like heavy-tailed factory
    /// weights, plus a **distinct hourly curve per hotspot** — cluster `c`'s
    /// working-day peaks shift by `c` hours (cluster 0 peaks 10–12 a.m.,
    /// cluster 1 at 11–1, …), so demand rolls across the city's regions
    /// over the day instead of spiking everywhere at once.
    ///
    /// `clusters` maps each factory row to its hotspot (see
    /// [`Campus::factory_cluster`](crate::campus::Campus::factory_cluster)).
    ///
    /// # Panics
    /// Panics if `clusters.len() != num_factories`.
    pub fn metro_like(num_factories: usize, clusters: &[usize], seed: u64) -> Self {
        assert_eq!(
            clusters.len(),
            num_factories,
            "cluster labels must cover every factory"
        );
        let base = Self::paper_like(num_factories, seed);
        let factory_hours = clusters
            .iter()
            .map(|&c| {
                let mut hours = [0.0f64; 24];
                for (h, w) in hours.iter_mut().enumerate() {
                    // Shift the base curve back by `c` hours (wrapping), so
                    // cluster c's peaks land `c` hours later in the day.
                    *w = base.hourly_weights[(h + 24 - (c % 24)) % 24];
                }
                hours
            })
            .collect();
        DemandProfile {
            factory_hours,
            ..base
        }
    }

    /// Per-factory weights for day `day`, with AR(1) multiplicative drift so
    /// that nearby days look more alike than distant ones.
    pub fn weights_for_day(&self, day: u64, drift: f64, seed: u64) -> Vec<f64> {
        let mut weights = self.factory_weights.clone();
        // Walk the AR(1) chain deterministically from day 0 so that any day
        // can be generated independently yet consistently.
        let mut factors = vec![1.0f64; weights.len()];
        for d in 0..=day {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(d + 1)));
            for f in factors.iter_mut() {
                let shock = 1.0 + drift * sample_normal(&mut rng);
                *f = (*f * 0.8 + 0.2) * shock.clamp(0.5, 1.5);
            }
        }
        for (w, f) in weights.iter_mut().zip(&factors) {
            *w *= f.max(0.05);
        }
        weights
    }
}

/// Order-generation parameters.
#[derive(Debug, Clone)]
pub struct OrderGeneratorConfig {
    /// Mean number of orders per day.
    pub orders_per_day: usize,
    /// Mean cargo quantity (same unit as vehicle capacity).
    pub quantity_mean: f64,
    /// Log-normal shape parameter for quantities.
    pub quantity_sigma: f64,
    /// Cap on a single order's quantity (e.g. vehicle capacity).
    pub quantity_max: f64,
    /// Minimum service slack: deadline >= created + min_slack.
    pub min_slack: TimeDelta,
    /// Maximum service slack.
    pub max_slack: TimeDelta,
    /// AR(1) day-to-day drift magnitude (0 disables drift).
    pub day_drift: f64,
    /// Probability that an order's delivery factory is drawn from the
    /// pickup's own hotspot (requires a clustered campus; 0 = legacy
    /// uniform cross-factory flow). High values make demand mostly
    /// region-local — the regime where sharded dispatch pays off.
    pub intra_cluster_bias: f64,
    /// Master seed; combined with the day number for per-day streams.
    pub seed: u64,
}

impl Default for OrderGeneratorConfig {
    fn default() -> Self {
        OrderGeneratorConfig {
            orders_per_day: 600,
            quantity_mean: 2.0,
            quantity_sigma: 0.6,
            quantity_max: 10.0,
            min_slack: TimeDelta::from_hours(2.0),
            max_slack: TimeDelta::from_hours(6.0),
            day_drift: 0.08,
            intra_cluster_bias: 0.0,
            seed: 7,
        }
    }
}

/// Generates days of delivery orders over a campus.
#[derive(Debug, Clone)]
pub struct OrderGenerator {
    profile: DemandProfile,
    config: OrderGeneratorConfig,
    factories: Vec<NodeId>,
    /// Hotspot label per factory row; empty on unclustered campuses.
    clusters: Vec<usize>,
    /// Factory rows per hotspot, ascending (precomputed for the biased
    /// delivery draw); empty on unclustered campuses.
    cluster_rows: Vec<Vec<usize>>,
    /// Each factory row's position within its hotspot's `cluster_rows`
    /// list; empty on unclustered campuses.
    cluster_pos: Vec<usize>,
}

/// Groups factory rows by hotspot and records each row's position within
/// its group.
fn cluster_lookup(clusters: &[usize]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let num_clusters = clusters.iter().map(|&c| c + 1).max().unwrap_or(0);
    let mut rows = vec![Vec::new(); num_clusters];
    let mut pos = Vec::with_capacity(clusters.len());
    for (row, &c) in clusters.iter().enumerate() {
        pos.push(rows[c].len());
        rows[c].push(row);
    }
    (rows, pos)
}

impl OrderGenerator {
    /// Creates a generator for the campus: the paper-like profile on a
    /// uniform campus, the metro profile (per-hotspot hourly curves) when
    /// the campus was generated with hotspot clustering.
    pub fn new(campus: &Campus, config: OrderGeneratorConfig) -> Self {
        let profile = if campus.factory_cluster.is_empty() {
            DemandProfile::paper_like(campus.num_factories(), config.seed)
        } else {
            DemandProfile::metro_like(campus.num_factories(), &campus.factory_cluster, config.seed)
        };
        Self::with_profile(campus, profile, config)
    }

    /// Creates a generator with an explicit profile.
    pub fn with_profile(
        campus: &Campus,
        profile: DemandProfile,
        config: OrderGeneratorConfig,
    ) -> Self {
        assert_eq!(
            profile.factory_weights.len(),
            campus.num_factories(),
            "profile must cover every campus factory"
        );
        let (cluster_rows, cluster_pos) = cluster_lookup(&campus.factory_cluster);
        OrderGenerator {
            profile,
            config,
            factories: campus.factories.clone(),
            clusters: campus.factory_cluster.clone(),
            cluster_rows,
            cluster_pos,
        }
    }

    /// The generator's demand profile.
    pub fn profile(&self) -> &DemandProfile {
        &self.profile
    }

    /// Generates one day of orders (sorted by creation time, dense ids).
    pub fn generate_day(&self, day: u64) -> Vec<Order> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(day.wrapping_mul(0xA24B_AED4)));
        let weights = self
            .profile
            .weights_for_day(day, cfg.day_drift, cfg.seed ^ 0xD1F7);
        let weights_total: f64 = weights.iter().sum();
        let hourly_total: f64 = self.profile.hourly_weights.iter().sum();
        let factory_hour_totals: Vec<f64> = self
            .profile
            .factory_hours
            .iter()
            .map(|hours| hours.iter().sum())
            .collect();
        // Day-level volume noise: +-15%.
        let count_f = cfg.orders_per_day as f64 * rng.random_range(0.85..1.15);
        let count = count_f.round().max(1.0) as usize;
        let mut orders = Vec::with_capacity(count);
        for i in 0..count {
            let pickup_row = sample_weighted(&mut rng, &weights, weights_total);
            // Delivery factory: biased toward the pickup's own hotspot on
            // clustered campuses, uniform over the others otherwise. The
            // extra RNG draw only happens when the bias is active, so
            // legacy configurations keep their exact order streams.
            let delivery_row = if cfg.intra_cluster_bias > 0.0
                && !self.clusters.is_empty()
                && rng.random_range(0.0..1.0) < cfg.intra_cluster_bias
            {
                self.sample_same_cluster(&mut rng, pickup_row)
            } else {
                self.sample_other_factory(&mut rng, pickup_row)
            };
            // Creation time: sample an hour by weight — the pickup
            // factory's own curve when per-hotspot profiles are active —
            // then uniform within the hour.
            let (hours, hours_total) = match self.profile.factory_hours.get(pickup_row) {
                Some(hours) => (hours, factory_hour_totals[pickup_row]),
                None => (&self.profile.hourly_weights, hourly_total),
            };
            let hour = sample_weighted(&mut rng, hours, hours_total);
            let created = TimePoint::from_hours(hour as f64 + rng.random_range(0.0..1.0));
            // Quantity: log-normal with mean quantity_mean, capped.
            let mu = cfg.quantity_mean.ln() - cfg.quantity_sigma * cfg.quantity_sigma / 2.0;
            let q = (mu + cfg.quantity_sigma * sample_normal(&mut rng)).exp();
            let quantity = q.clamp(0.1, cfg.quantity_max);
            let slack_secs = rng.random_range(cfg.min_slack.seconds()..=cfg.max_slack.seconds());
            let deadline = created + TimeDelta::from_seconds(slack_secs);
            orders.push(
                Order::new(
                    OrderId::from_index(i),
                    self.factories[pickup_row],
                    self.factories[delivery_row],
                    quantity,
                    created,
                    deadline,
                )
                .expect("generated order parameters are valid by construction"),
            );
        }
        orders.sort_by(|a, b| {
            a.created
                .seconds()
                .partial_cmp(&b.created.seconds())
                .expect("finite")
        });
        for (i, o) in orders.iter_mut().enumerate() {
            o.id = OrderId::from_index(i);
        }
        orders
    }

    /// Uniform delivery factory over everything except the pickup (one
    /// draw over `n - 1` rows, skipping the pickup's slot).
    fn sample_other_factory(&self, rng: &mut StdRng, pickup_row: usize) -> usize {
        let mut row = rng.random_range(0..self.factories.len() - 1);
        if row >= pickup_row {
            row += 1;
        }
        row
    }

    /// Uniform delivery factory from the pickup's own hotspot (excluding
    /// the pickup itself); falls back to the global uniform rule when the
    /// hotspot has no other factory. One draw either way, over the
    /// precomputed per-hotspot row lists.
    fn sample_same_cluster(&self, rng: &mut StdRng, pickup_row: usize) -> usize {
        let mates = &self.cluster_rows[self.clusters[pickup_row]];
        if mates.len() <= 1 {
            return self.sample_other_factory(rng, pickup_row);
        }
        let mut idx = rng.random_range(0..mates.len() - 1);
        if idx >= self.cluster_pos[pickup_row] {
            idx += 1;
        }
        mates[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campus::CampusConfig;

    fn campus() -> Campus {
        Campus::generate(&CampusConfig::default())
    }

    #[test]
    fn day_generation_is_deterministic() {
        let c = campus();
        let g = OrderGenerator::new(&c, OrderGeneratorConfig::default());
        let a = g.generate_day(3);
        let b = g.generate_day(3);
        assert_eq!(a, b);
        let c2 = g.generate_day(4);
        assert_ne!(a, c2);
    }

    #[test]
    fn orders_are_sorted_valid_and_within_bounds() {
        let c = campus();
        let cfg = OrderGeneratorConfig::default();
        let g = OrderGenerator::new(&c, cfg.clone());
        let orders = g.generate_day(0);
        assert!(!orders.is_empty());
        let mut prev = TimePoint::ZERO;
        for (i, o) in orders.iter().enumerate() {
            assert_eq!(o.id.index(), i);
            assert!(o.created >= prev);
            prev = o.created;
            assert!(o.quantity > 0.0 && o.quantity <= cfg.quantity_max);
            assert!(o.deadline >= o.created + cfg.min_slack);
            assert!(o.deadline <= o.created + cfg.max_slack);
            assert_ne!(o.pickup, o.delivery);
            assert!(c.factories.contains(&o.pickup));
            assert!(c.factories.contains(&o.delivery));
        }
    }

    #[test]
    fn demand_concentrates_in_peak_hours() {
        let c = campus();
        let g = OrderGenerator::new(&c, OrderGeneratorConfig::default());
        let orders = g.generate_day(0);
        let peak = orders
            .iter()
            .filter(|o| {
                let h = o.created.hours();
                (10.0..12.0).contains(&h) || (14.0..17.0).contains(&h)
            })
            .count();
        // Peak hours carry 5/24ths of the day but far more of the demand.
        assert!(
            peak as f64 > 0.5 * orders.len() as f64,
            "peak share too low: {peak}/{}",
            orders.len()
        );
    }

    #[test]
    fn hot_factories_dominate() {
        let c = campus();
        let g = OrderGenerator::new(&c, OrderGeneratorConfig::default());
        let orders = g.generate_day(0);
        let mut counts = vec![0usize; c.num_factories()];
        for o in &orders {
            let row = c.factories.iter().position(|f| *f == o.pickup).unwrap();
            counts[row] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top5: usize = sorted.iter().take(5).sum();
        assert!(
            top5 as f64 > 0.4 * orders.len() as f64,
            "top-5 factories should dominate pickups, got {top5}/{}",
            orders.len()
        );
    }

    #[test]
    fn nearby_days_are_more_similar_than_distant_ones() {
        let profile = DemandProfile::paper_like(27, 1);
        let d0 = profile.weights_for_day(10, 0.08, 1);
        let d1 = profile.weights_for_day(11, 0.08, 1);
        let d9 = profile.weights_for_day(60, 0.08, 1);
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        assert!(dist(&d0, &d1) < dist(&d0, &d9) * 2.0);
    }

    fn metro_campus() -> Campus {
        Campus::generate(&CampusConfig {
            num_depots: 4,
            num_factories: 28,
            area_km: 60.0,
            hotspots: 4,
            hotspot_spread_km: 1.5,
            ..CampusConfig::default()
        })
    }

    #[test]
    fn intra_cluster_bias_keeps_deliveries_local() {
        let c = metro_campus();
        let cfg = OrderGeneratorConfig {
            intra_cluster_bias: 0.9,
            ..OrderGeneratorConfig::default()
        };
        let g = OrderGenerator::new(&c, cfg);
        let orders = g.generate_day(0);
        let cluster_of = |node: NodeId| {
            let row = c.factories.iter().position(|f| *f == node).unwrap();
            c.factory_cluster[row]
        };
        let local = orders
            .iter()
            .filter(|o| cluster_of(o.pickup) == cluster_of(o.delivery))
            .count();
        // 0.9 bias + the ~1/4 chance a uniform draw stays local anyway.
        assert!(
            local as f64 > 0.8 * orders.len() as f64,
            "only {local}/{} deliveries stayed in-cluster",
            orders.len()
        );
    }

    #[test]
    fn metro_clusters_have_staggered_peaks() {
        let c = metro_campus();
        let g = OrderGenerator::new(&c, OrderGeneratorConfig::default());
        assert_eq!(g.profile().factory_hours.len(), 28);
        // Cluster c's curve is the base curve shifted by c hours: compare
        // a factory from cluster 0 against one from cluster 2.
        let row0 = c.factory_cluster.iter().position(|&x| x == 0).unwrap();
        let row2 = c.factory_cluster.iter().position(|&x| x == 2).unwrap();
        let h0 = g.profile().factory_hours[row0];
        let h2 = g.profile().factory_hours[row2];
        for h in 0..24 {
            assert_eq!(h0[h], h2[(h + 2) % 24], "hour {h} not shifted by 2");
        }
        // And the generated day reflects it: the mean creation hour of
        // cluster-2 pickups trails cluster-0 pickups.
        let orders = g.generate_day(0);
        let mean_hour = |cluster: usize| {
            let hours: Vec<f64> = orders
                .iter()
                .filter(|o| {
                    let row = c.factories.iter().position(|f| *f == o.pickup).unwrap();
                    c.factory_cluster[row] == cluster
                })
                .map(|o| o.created.hours())
                .collect();
            hours.iter().sum::<f64>() / hours.len().max(1) as f64
        };
        assert!(
            mean_hour(2) > mean_hour(0) + 0.5,
            "cluster 2 ({:.2}h) should peak after cluster 0 ({:.2}h)",
            mean_hour(2),
            mean_hour(0)
        );
    }

    #[test]
    fn legacy_generation_is_unchanged_by_the_metro_knobs() {
        // Zero bias + unclustered campus must draw the exact same stream
        // as before the knobs existed (the extra RNG draw is gated off).
        let c = campus();
        let g = OrderGenerator::new(&c, OrderGeneratorConfig::default());
        let orders = g.generate_day(3);
        assert!(g.profile().factory_hours.is_empty());
        assert_eq!(orders, g.generate_day(3));
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let weights = [0.0, 5.0, 0.0, 1.0];
        let mut counts = [0usize; 4];
        for _ in 0..6000 {
            counts[sample_weighted(&mut rng, &weights, 6.0)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[2], 0);
        let ratio = counts[1] as f64 / counts[3] as f64;
        assert!((3.5..6.5).contains(&ratio), "ratio {ratio}");
    }
}
