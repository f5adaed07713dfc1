//! Vehicle and fleet configuration.

use crate::error::NetError;
use crate::ids::{NodeId, VehicleId};
use crate::network::RoadNetwork;
use crate::time::TimeDelta;

/// Per-vehicle configuration `conf_k = (w_k, Q, mu, delta)` restricted to the
/// per-vehicle parts: the starting depot. Capacity and costs are fleet-wide
/// because the fleet is homogeneous (Section III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleConfig {
    /// Identifier; equals the vehicle's index within the fleet.
    pub id: VehicleId,
    /// Starting (and ending) depot `w_k`.
    pub depot: NodeId,
}

/// Configuration of the homogeneous fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// One entry per vehicle, ids dense `0..K`.
    pub vehicles: Vec<VehicleConfig>,
    /// Maximum loading capacity `Q` per vehicle.
    pub capacity: f64,
    /// Fixed cost `mu` of using a vehicle at all (considerably larger than
    /// the per-km cost in practice).
    pub fixed_cost: f64,
    /// Operating cost `delta` per kilometre (fuel, maintenance, wages).
    pub unit_cost: f64,
    /// Constant average travel speed, km/h (Definition 2 simplifies travel
    /// time to distance over a constant speed).
    pub speed_kmh: f64,
    /// Service (loading or unloading) time spent at each stop.
    pub service_time: TimeDelta,
}

impl FleetConfig {
    /// Creates a fleet of `k` vehicles distributed round-robin over `depots`.
    ///
    /// # Errors
    /// Returns an error on empty depots or invalid scalar parameters.
    pub fn homogeneous(
        k: usize,
        depots: &[NodeId],
        capacity: f64,
        fixed_cost: f64,
        unit_cost: f64,
        speed_kmh: f64,
        service_time: TimeDelta,
    ) -> Result<Self, NetError> {
        if depots.is_empty() {
            return Err(NetError::InvalidFleet("no depots provided".into()));
        }
        for (name, v) in [
            ("capacity", capacity),
            ("fixed_cost", fixed_cost),
            ("unit_cost", unit_cost),
            ("speed_kmh", speed_kmh),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(NetError::InvalidFleet(format!(
                    "{name} must be positive and finite, got {v}"
                )));
            }
        }
        if !service_time.is_non_negative() {
            return Err(NetError::InvalidFleet(
                "service_time must be non-negative".into(),
            ));
        }
        let vehicles = (0..k)
            .map(|i| VehicleConfig {
                id: VehicleId::from_index(i),
                depot: depots[i % depots.len()],
            })
            .collect();
        Ok(FleetConfig {
            vehicles,
            capacity,
            fixed_cost,
            unit_cost,
            speed_kmh,
            service_time,
        })
    }

    /// Number of vehicles `K`.
    #[inline]
    pub fn num_vehicles(&self) -> usize {
        self.vehicles.len()
    }

    /// The configuration of vehicle `k`.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn vehicle(&self, k: VehicleId) -> &VehicleConfig {
        &self.vehicles[k.index()]
    }

    /// Travel time for `distance_km` kilometres at the fleet's constant speed.
    #[inline]
    pub fn travel_time(&self, distance_km: f64) -> TimeDelta {
        TimeDelta::from_hours(distance_km / self.speed_kmh)
    }

    /// Batched travel times: `out[i] = travel_time(distances_km[i])`.
    ///
    /// Each element is computed by the exact same expression as
    /// [`FleetConfig::travel_time`] — the per-element division is *not*
    /// rewritten as a multiplication by a hoisted reciprocal — so fused
    /// batch conversion of a distance row (e.g. one produced by
    /// `RoadNetwork::distances_from`) is bit-identical to per-call
    /// conversion. The batching amortizes call overhead and keeps the
    /// divisions in one contiguous loop the compiler can pipeline.
    ///
    /// # Panics
    /// Panics if `out.len() != distances_km.len()`.
    pub fn travel_times(&self, distances_km: &[f64], out: &mut [TimeDelta]) {
        assert_eq!(
            out.len(),
            distances_km.len(),
            "travel_times length mismatch"
        );
        for (o, &d) in out.iter_mut().zip(distances_km) {
            *o = self.travel_time(d);
        }
    }

    /// Batched travel times in raw f64 seconds: `out[i]` equals
    /// `travel_time(distances_km[i]).seconds()`.
    ///
    /// Same bit-identity contract as [`FleetConfig::travel_times`]; the raw
    /// representation feeds hot loops (insertion-sweep leg tables) that do
    /// their time arithmetic in plain `f64` seconds, which round-trips
    /// exactly through `TimeDelta`.
    ///
    /// # Panics
    /// Panics if `out.len() != distances_km.len()`.
    pub fn travel_times_secs(&self, distances_km: &[f64], out: &mut [f64]) {
        assert_eq!(
            out.len(),
            distances_km.len(),
            "travel_times_secs length mismatch"
        );
        for (o, &d) in out.iter_mut().zip(distances_km) {
            *o = self.travel_time(d).seconds();
        }
    }

    /// Validates depot references against a network: every vehicle must start
    /// at an existing depot node.
    pub fn validate_against(&self, net: &RoadNetwork) -> Result<(), NetError> {
        for v in &self.vehicles {
            let node = net.try_node(v.depot)?;
            if !node.is_depot() {
                return Err(NetError::InvalidVehicle {
                    vehicle: v.id,
                    reason: format!("start node {} is not a depot", v.depot),
                });
            }
        }
        Ok(())
    }

    /// Total transportation cost for `nuv` used vehicles travelling `ttl`
    /// kilometres in aggregate: `TC = mu * NUV + delta * TTL`.
    #[inline]
    pub fn total_cost(&self, nuv: usize, ttl: f64) -> f64 {
        self.fixed_cost * nuv as f64 + self.unit_cost * ttl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Point;
    use crate::node::Node;

    fn fleet(k: usize) -> FleetConfig {
        FleetConfig::homogeneous(
            k,
            &[NodeId(0), NodeId(1)],
            100.0,
            500.0,
            2.0,
            40.0,
            TimeDelta::from_minutes(5.0),
        )
        .unwrap()
    }

    #[test]
    fn round_robin_depot_assignment() {
        let f = fleet(5);
        assert_eq!(f.num_vehicles(), 5);
        assert_eq!(f.vehicle(VehicleId(0)).depot, NodeId(0));
        assert_eq!(f.vehicle(VehicleId(1)).depot, NodeId(1));
        assert_eq!(f.vehicle(VehicleId(2)).depot, NodeId(0));
        assert_eq!(f.vehicle(VehicleId(4)).depot, NodeId(0));
    }

    #[test]
    fn travel_time_uses_constant_speed() {
        let f = fleet(1);
        // 40 km/h -> 20 km takes 30 minutes.
        assert!((f.travel_time(20.0).seconds() - 1800.0).abs() < 1e-9);
        assert_eq!(f.travel_time(0.0), TimeDelta::ZERO);
    }

    #[test]
    fn total_cost_formula() {
        let f = fleet(1);
        assert!((f.total_cost(3, 100.0) - (3.0 * 500.0 + 2.0 * 100.0)).abs() < 1e-12);
        assert_eq!(f.total_cost(0, 0.0), 0.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let depots = [NodeId(0)];
        let st = TimeDelta::ZERO;
        assert!(FleetConfig::homogeneous(1, &[], 1.0, 1.0, 1.0, 1.0, st).is_err());
        assert!(FleetConfig::homogeneous(1, &depots, 0.0, 1.0, 1.0, 1.0, st).is_err());
        assert!(FleetConfig::homogeneous(1, &depots, 1.0, -1.0, 1.0, 1.0, st).is_err());
        assert!(FleetConfig::homogeneous(1, &depots, 1.0, 1.0, 1.0, f64::NAN, st).is_err());
        assert!(FleetConfig::homogeneous(
            1,
            &depots,
            1.0,
            1.0,
            1.0,
            1.0,
            TimeDelta::from_seconds(-1.0)
        )
        .is_err());
    }

    #[test]
    fn validate_against_requires_depot_nodes() {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(1.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let ok =
            FleetConfig::homogeneous(2, &[NodeId(0)], 1.0, 1.0, 1.0, 1.0, TimeDelta::ZERO).unwrap();
        assert!(ok.validate_against(&net).is_ok());
        let bad =
            FleetConfig::homogeneous(1, &[NodeId(1)], 1.0, 1.0, 1.0, 1.0, TimeDelta::ZERO).unwrap();
        assert!(bad.validate_against(&net).is_err());
    }
}
