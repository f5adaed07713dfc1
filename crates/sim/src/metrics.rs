//! Episode outcome metrics: NUV, TTL, TC (Section V-A of the paper).

use crate::batch::DecisionReason;
use crate::state::VehicleState;
use dpdp_net::{FleetConfig, OrderId, RoadNetwork, TimePoint, VehicleId};
use dpdp_routing::VehicleView;

/// One dispatch decision recorded by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentRecord {
    /// The order assigned (or rejected).
    pub order: OrderId,
    /// The serving vehicle, or `None` if the order was rejected.
    pub vehicle: Option<VehicleId>,
    /// Why the decision turned out this way.
    pub reason: DecisionReason,
    /// Decision time.
    pub time: TimePoint,
    /// Time-interval index of the decision.
    pub interval: usize,
    /// Remaining-route length of the chosen vehicle before the assignment
    /// (`d_{t,k}`), km. Zero for rejections.
    pub prev_length: f64,
    /// Remaining-route length after the assignment (`d^i_{t,k}`), km.
    pub new_length: f64,
    /// Whether the chosen vehicle had been used before this assignment.
    pub vehicle_was_used: bool,
}

impl AssignmentRecord {
    /// Incremental distance `Δd` caused by the assignment, km.
    #[inline]
    pub fn incremental_length(&self) -> f64 {
        self.new_length - self.prev_length
    }

    /// Record for a committed assignment, reading the route lengths off the
    /// validated plan.
    ///
    /// # Panics
    /// Panics if `plan` has no best route.
    pub(crate) fn assigned(
        order: OrderId,
        vehicle: VehicleId,
        time: TimePoint,
        interval: usize,
        plan: &dpdp_routing::PlannerOutput,
        vehicle_was_used: bool,
    ) -> Self {
        let best = plan
            .best
            .as_ref()
            .expect("assigned record needs a feasible plan");
        AssignmentRecord {
            order,
            vehicle: Some(vehicle),
            reason: DecisionReason::Assigned,
            time,
            interval,
            prev_length: plan.current_length,
            new_length: best.length(),
            vehicle_was_used,
        }
    }

    /// Record for a rejection.
    pub(crate) fn rejected(
        order: OrderId,
        reason: DecisionReason,
        time: TimePoint,
        interval: usize,
    ) -> Self {
        AssignmentRecord {
            order,
            vehicle: None,
            reason,
            time,
            interval,
            prev_length: 0.0,
            new_length: 0.0,
            vehicle_was_used: false,
        }
    }
}

/// Per-[`DecisionReason`] rejection tallies of one episode, so
/// infeasibility and policy-rejection rates (and, under region sharding,
/// the escalation outcomes they reflect) are observable without replaying
/// the assignment log.
///
/// Rejection *reasons* are part of the decision stream, so these counts are
/// bit-identical across thread counts and shard counts — the batch-parity
/// suite compares them as part of [`EpisodeMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionCounts {
    /// No vehicle had a feasible insertion
    /// ([`DecisionReason::NoFeasibleVehicle`]).
    pub no_feasible_vehicle: usize,
    /// Feasible vehicles existed but the policy declined them all
    /// ([`DecisionReason::PolicyRejected`]).
    pub policy_rejected: usize,
    /// The policy chose a vehicle whose plan failed commit-time validation
    /// ([`DecisionReason::InfeasibleChoice`]).
    pub infeasible_choice: usize,
    /// The order was cancelled by a disruption event, before dispatch or by
    /// revoking its assignment while the pickup was still undriven
    /// ([`DecisionReason::Cancelled`]).
    pub cancelled: usize,
    /// The order's serving vehicle broke down after the pickup, stranding
    /// the cargo ([`DecisionReason::VehicleLost`]).
    pub vehicle_lost: usize,
}

impl RejectionCounts {
    /// Total rejections across all reasons (equals
    /// [`EpisodeMetrics::rejected`]).
    pub fn total(&self) -> usize {
        self.no_feasible_vehicle
            + self.policy_rejected
            + self.infeasible_choice
            + self.cancelled
            + self.vehicle_lost
    }

    /// Tallies one rejection. [`DecisionReason::Assigned`] is not a
    /// rejection and is ignored. Public so streaming observers (e.g.
    /// `dpdp-core`'s evaluation probe) can maintain the same breakdown
    /// from the decision stream.
    pub fn record(&mut self, reason: DecisionReason) {
        match reason {
            DecisionReason::Assigned => {}
            DecisionReason::NoFeasibleVehicle => self.no_feasible_vehicle += 1,
            DecisionReason::PolicyRejected => self.policy_rejected += 1,
            DecisionReason::InfeasibleChoice => self.infeasible_choice += 1,
            DecisionReason::Cancelled => self.cancelled += 1,
            DecisionReason::VehicleLost => self.vehicle_lost += 1,
        }
    }
}

/// Aggregate metrics of one episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeMetrics {
    /// Number of Used Vehicles.
    pub nuv: usize,
    /// Total Travel Length over all used vehicles, km (committed plus
    /// remaining-route distance at episode end).
    pub ttl: f64,
    /// Total Cost `TC = mu * NUV + delta * TTL`.
    pub total_cost: f64,
    /// Orders successfully assigned.
    pub served: usize,
    /// Orders no vehicle could feasibly take (or the dispatcher declined).
    pub rejected: usize,
    /// Rejections broken down by [`DecisionReason`]
    /// (`rejections.total() == rejected`).
    pub rejections: RejectionCounts,
    /// Mean seconds between an order's creation and its dispatch decision.
    /// Zero under immediate service; positive under buffering (Section IV-D).
    pub avg_response_secs: f64,
}

/// Per-vehicle end-of-episode statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleStats {
    /// The vehicle.
    pub vehicle: VehicleId,
    /// Whether the vehicle served anything.
    pub used: bool,
    /// Total travel length (committed + remaining), km.
    pub travel_km: f64,
    /// Orders accepted over the episode.
    pub orders_accepted: usize,
}

/// Full outcome of one simulated episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeResult {
    /// Aggregate metrics.
    pub metrics: EpisodeMetrics,
    /// Per-order dispatch log in processing order.
    pub assignments: Vec<AssignmentRecord>,
    /// Per-vehicle statistics, dense by vehicle id.
    pub vehicles: Vec<VehicleStats>,
}

impl EpisodeResult {
    /// Convenience accessor: number of used vehicles.
    #[inline]
    pub fn nuv(&self) -> usize {
        self.metrics.nuv
    }

    /// Convenience accessor: total cost.
    #[inline]
    pub fn total_cost(&self) -> f64 {
        self.metrics.total_cost
    }
}

/// Which parts of an [`EpisodeResult`] the simulator should materialise.
///
/// Aggregate [`EpisodeMetrics`] are always computed; the per-order and
/// per-vehicle logs can be switched off to keep long sweeps (training runs,
/// benchmarks) allocation-light.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsOptions {
    /// Keep the per-order [`AssignmentRecord`] log (default `true`).
    pub record_assignments: bool,
    /// Keep the per-vehicle [`VehicleStats`] (default `true`).
    pub record_vehicle_stats: bool,
}

impl Default for MetricsOptions {
    fn default() -> Self {
        MetricsOptions {
            record_assignments: true,
            record_vehicle_stats: true,
        }
    }
}

/// Streaming accumulator behind the simulator's episode bookkeeping —
/// consumes one [`AssignmentRecord`] per decision and finishes into an
/// [`EpisodeResult`].
#[derive(Debug)]
pub(crate) struct MetricsAccumulator {
    options: MetricsOptions,
    assignments: Vec<AssignmentRecord>,
    served: usize,
    rejected: usize,
    rejections: RejectionCounts,
    response_total: f64,
    responses_counted: usize,
}

impl MetricsAccumulator {
    pub(crate) fn new(options: MetricsOptions, capacity: usize) -> Self {
        MetricsAccumulator {
            options,
            assignments: if options.record_assignments {
                Vec::with_capacity(capacity)
            } else {
                Vec::new()
            },
            served: 0,
            rejected: 0,
            rejections: RejectionCounts::default(),
            response_total: 0.0,
            responses_counted: 0,
        }
    }

    /// Accounts one decision. `response_secs` is `None` only for an order
    /// cancelled before its dispatch epoch, which is excluded from the
    /// response-time average.
    pub(crate) fn record(&mut self, record: AssignmentRecord, response_secs: Option<f64>) {
        if record.vehicle.is_some() {
            self.served += 1;
        } else {
            self.rejected += 1;
            self.rejections.record(record.reason);
        }
        if let Some(secs) = response_secs {
            self.response_total += secs;
            self.responses_counted += 1;
        }
        if self.options.record_assignments {
            self.assignments.push(record);
        }
    }

    /// Flips a previously recorded assignment of `order` into a rejection
    /// with `reason` — a post-assignment cancellation or a breakdown that
    /// lost the picked-up cargo. The order's log entry is rewritten in
    /// place as a rejection stamped with the disruption's time and
    /// interval; the original response-time sample is kept (the dispatch
    /// decision did happen).
    pub(crate) fn revoke_to_rejection(
        &mut self,
        order: OrderId,
        reason: DecisionReason,
        time: TimePoint,
        interval: usize,
    ) {
        debug_assert!(self.served > 0, "revoking with no assignment on record");
        self.served -= 1;
        self.rejected += 1;
        self.rejections.record(reason);
        if self.options.record_assignments {
            if let Some(idx) = self.assignments.iter().rposition(|r| r.order == order) {
                self.assignments[idx] = AssignmentRecord::rejected(order, reason, time, interval);
            }
        }
    }

    /// Withdraws a previously recorded assignment of `order` entirely: the
    /// order goes back into the dispatch queue (a breakdown stranded it
    /// before pickup), so its *next* decision — not this one — is the one
    /// the episode log keeps. `response_secs` is the sample the withdrawn
    /// decision contributed to the response-time average; it is subtracted
    /// so the average covers exactly the decisions the episode kept.
    pub(crate) fn withdraw_assignment(&mut self, order: OrderId, response_secs: f64) {
        debug_assert!(self.served > 0, "withdrawing with no assignment on record");
        self.served -= 1;
        self.response_total -= response_secs;
        self.responses_counted = self.responses_counted.saturating_sub(1);
        if self.options.record_assignments {
            if let Some(idx) = self.assignments.iter().rposition(|r| r.order == order) {
                self.assignments.remove(idx);
            }
        }
    }

    pub(crate) fn finish(
        self,
        views: &[VehicleView],
        states: &[VehicleState],
        net: &RoadNetwork,
        fleet: &FleetConfig,
    ) -> EpisodeResult {
        let nuv = views.iter().filter(|v| v.used).count();
        let lengths: Vec<f64> = states
            .iter()
            .zip(views)
            .map(|(s, v)| s.final_travel_length(v, net))
            .collect();
        let ttl: f64 = lengths.iter().sum();
        let vehicles = if self.options.record_vehicle_stats {
            (views.iter().zip(states))
                .zip(&lengths)
                .map(|((v, s), &travel_km)| VehicleStats {
                    vehicle: v.vehicle,
                    used: v.used,
                    travel_km,
                    orders_accepted: s.orders_accepted,
                })
                .collect()
        } else {
            Vec::new()
        };
        let metrics = EpisodeMetrics {
            nuv,
            ttl,
            total_cost: fleet.total_cost(nuv, ttl),
            served: self.served,
            rejected: self.rejected,
            rejections: self.rejections,
            avg_response_secs: if self.responses_counted == 0 {
                0.0
            } else {
                self.response_total / self.responses_counted as f64
            },
        };
        EpisodeResult {
            metrics,
            assignments: self.assignments,
            vehicles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_counts_tally_by_reason() {
        let mut acc = MetricsAccumulator::new(MetricsOptions::default(), 4);
        let t = TimePoint::ZERO;
        acc.record(
            AssignmentRecord::rejected(OrderId(0), DecisionReason::NoFeasibleVehicle, t, 0),
            Some(0.0),
        );
        acc.record(
            AssignmentRecord::rejected(OrderId(1), DecisionReason::PolicyRejected, t, 0),
            Some(0.0),
        );
        acc.record(
            AssignmentRecord::rejected(OrderId(2), DecisionReason::Cancelled, t, 0),
            None,
        );
        acc.record(
            AssignmentRecord::rejected(OrderId(3), DecisionReason::InfeasibleChoice, t, 0),
            Some(0.0),
        );
        let result = acc.finish(&[], &[], &RoadNetwork::euclidean(vec![], 1.0).unwrap(), {
            // A fleet is only read for total_cost; a minimal one suffices.
            &FleetConfig::homogeneous(
                1,
                &[dpdp_net::NodeId(0)],
                1.0,
                1.0,
                1.0,
                1.0,
                dpdp_net::TimeDelta::ZERO,
            )
            .unwrap()
        });
        let r = result.metrics.rejections;
        assert_eq!(r.no_feasible_vehicle, 1);
        assert_eq!(r.policy_rejected, 1);
        assert_eq!(r.cancelled, 1);
        assert_eq!(r.infeasible_choice, 1);
        assert_eq!(r.total(), result.metrics.rejected);
    }

    #[test]
    fn revoke_and_withdraw_keep_the_totals_invariant() {
        // The breakdown totals invariant: after any mix of assignments,
        // rejections, post-assignment cancellations, lost cargo and
        // stranded-order re-dispatch, `assigned + sum(rejected by reason)`
        // equals the number of orders with a final decision.
        let fleet = FleetConfig::homogeneous(
            1,
            &[dpdp_net::NodeId(0)],
            1.0,
            1.0,
            1.0,
            1.0,
            dpdp_net::TimeDelta::ZERO,
        )
        .unwrap();
        let net = RoadNetwork::euclidean(vec![], 1.0).unwrap();
        let mut acc = MetricsAccumulator::new(MetricsOptions::default(), 5);
        let t = TimePoint::ZERO;
        let assigned = |order: u32| AssignmentRecord {
            order: OrderId(order),
            vehicle: Some(VehicleId(0)),
            reason: DecisionReason::Assigned,
            time: t,
            interval: 0,
            prev_length: 0.0,
            new_length: 1.0,
            vehicle_was_used: false,
        };
        // Orders 0-3 assigned, order 4 rejected outright.
        for o in 0..4 {
            acc.record(assigned(o), Some(0.0));
        }
        acc.record(
            AssignmentRecord::rejected(OrderId(4), DecisionReason::NoFeasibleVehicle, t, 0),
            Some(0.0),
        );
        // Order 1 cancelled after assignment, order 2 lost to a breakdown,
        // order 3 stranded (withdrawn) and later re-assigned.
        acc.revoke_to_rejection(OrderId(1), DecisionReason::Cancelled, t, 0);
        acc.revoke_to_rejection(OrderId(2), DecisionReason::VehicleLost, t, 0);
        acc.withdraw_assignment(OrderId(3), 0.0);
        acc.record(assigned(3), Some(5.0));
        let result = acc.finish(&[], &[], &net, &fleet);
        let m = &result.metrics;
        assert_eq!(m.served, 2);
        assert_eq!(m.rejected, 3);
        assert_eq!(m.rejections.cancelled, 1);
        assert_eq!(m.rejections.vehicle_lost, 1);
        assert_eq!(m.rejections.no_feasible_vehicle, 1);
        assert_eq!(m.served + m.rejections.total(), 5, "totals invariant");
        // The log keeps exactly one final record per order.
        assert_eq!(result.assignments.len(), 5);
        let rec = |o: u32| {
            result
                .assignments
                .iter()
                .find(|r| r.order == OrderId(o))
                .unwrap()
        };
        assert_eq!(rec(1).reason, DecisionReason::Cancelled);
        assert_eq!(rec(1).vehicle, None);
        assert_eq!(rec(2).reason, DecisionReason::VehicleLost);
        assert_eq!(rec(3).reason, DecisionReason::Assigned);
        assert_eq!(rec(0).reason, DecisionReason::Assigned);
    }

    #[test]
    fn incremental_length() {
        let r = AssignmentRecord {
            order: OrderId(0),
            vehicle: Some(VehicleId(1)),
            reason: DecisionReason::Assigned,
            time: TimePoint::ZERO,
            interval: 0,
            prev_length: 12.0,
            new_length: 20.0,
            vehicle_was_used: true,
        };
        assert!((r.incremental_length() - 8.0).abs() < 1e-12);
    }
}
