//! Validity, not just parity: an observer that re-checks the fleet.
//!
//! Parity suites prove that two runs agree, not that either is right. The
//! [`InvariantAuditor`] looks at what the engine actually committed: after
//! every epoch and every applied disruption it receives the whole fleet
//! ([`SimObserver::on_fleet`]) and re-checks each vehicle's remaining
//! route from its anchor with its cargo on board — the constraint list of
//! the paper's problem statement:
//!
//! * **LIFO** and **pickup before delivery**, by an independent replay of
//!   the cargo stack: every delivery must find its own order on top, and
//!   every pickup must be delivered later on the same route;
//! * **capacity** and **deadlines**, by re-simulating the route with the
//!   authoritative [`simulate_schedule`] (which checks LIFO once more);
//! * **the availability mask**: a broken-down vehicle carries no route
//!   and no cargo, and no decision commits an order to it;
//! * **accounting**: at episode end every order the episode saw is either
//!   served or rejected, `served + rejected == orders`.
//!
//! A violation panics with the vehicle, the time and what broke, so a test
//! that runs an episode with the auditor switched on fails at the first
//! corrupt route, disruption surgery included.

use crate::metrics::EpisodeResult;
use crate::observer::{DecisionRecord, DisruptionKind, DisruptionRecord, FleetRecord, SimObserver};
use dpdp_net::{Instance, OrderId};
use dpdp_routing::{simulate_schedule, StopAction, VehicleView};

/// A [`SimObserver`] that checks every route the engine holds after every
/// epoch and every disruption, and the episode's order accounting at its
/// end (see the module docs). It panics on the first violation; the
/// counters say how much it checked.
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    /// `masked[k]`: vehicle `k` is broken down (between its breakdown and
    /// its recovery).
    masked: Vec<bool>,
    /// Orders the current episode has seen: the instance's table, grown by
    /// the streamed orders fleet records reveal.
    orders: usize,
    /// Stack replay scratch.
    stack: Vec<OrderId>,
    /// Non-empty routes (or cargo stacks) re-checked, over every episode.
    pub routes: usize,
    /// Episodes whose order accounting was checked.
    pub episodes: usize,
}

impl InvariantAuditor {
    /// Replays `view`'s cargo stack along its route: each delivery pops its
    /// own order off the top, and nothing is left on board at the end.
    fn check_stack(&mut self, view: &VehicleView) -> Result<(), String> {
        self.stack.clear();
        self.stack.extend(view.onboard.iter().map(|&(o, _)| o));
        for stop in view.route.stops() {
            match stop.action {
                StopAction::Pickup(o) => {
                    if self.stack.contains(&o) {
                        return Err(format!("{o} is picked up while on board"));
                    }
                    self.stack.push(o);
                }
                StopAction::Delivery(o) => match self.stack.pop() {
                    Some(top) if top == o => {}
                    Some(top) => return Err(format!("LIFO: {o} is delivered with {top} on top")),
                    None => return Err(format!("{o} is delivered before its pickup")),
                },
            }
        }
        match self.stack.last() {
            Some(o) => Err(format!("{o} is never delivered")),
            None => Ok(()),
        }
    }
}

impl SimObserver for InvariantAuditor {
    fn on_episode_begin(&mut self, instance: &Instance) {
        self.masked.clear();
        self.masked.resize(instance.fleet.vehicles.len(), false);
        self.orders = instance.num_orders();
    }

    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        if let Some(k) = record.decision.vehicle {
            assert!(
                !self.masked[k.index()],
                "{} was committed to {k}, which is broken down",
                record.decision.order
            );
        }
    }

    fn on_disruption(&mut self, record: &DisruptionRecord) {
        match record.kind {
            DisruptionKind::VehicleBreakdown { vehicle, .. } => self.masked[vehicle.index()] = true,
            DisruptionKind::VehicleRecovered { vehicle } => self.masked[vehicle.index()] = false,
            DisruptionKind::OrderCancelled { .. } => {}
        }
    }

    fn on_fleet(&mut self, record: &FleetRecord<'_>) {
        self.orders = self.orders.max(record.orders.len());
        for (k, view) in record.views.iter().enumerate() {
            let idle = view.route.is_empty() && view.onboard.is_empty();
            if self.masked[k] {
                assert!(
                    idle,
                    "{} at {:?}: broken down but holds a route or cargo",
                    view.vehicle, record.time
                );
            }
            if idle {
                continue;
            }
            self.routes += 1;
            let checked = self.check_stack(view).and_then(|()| {
                simulate_schedule(view, &view.route, record.net, record.fleet, record.orders)
                    .map(drop)
                    .map_err(|violation| violation.to_string())
            });
            if let Err(violation) = checked {
                panic!(
                    "{} at {:?}: invalid route {:?} with {:?} on board: {violation}",
                    view.vehicle,
                    record.time,
                    view.route.stops(),
                    view.onboard
                );
            }
        }
    }

    fn on_episode_end(&mut self, result: &EpisodeResult) {
        self.episodes += 1;
        let metrics = &result.metrics;
        assert_eq!(
            metrics.served + metrics.rejected,
            self.orders,
            "served + rejected must account for every order the episode saw"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{NodeId, VehicleId};
    use dpdp_routing::{Route, Stop};

    fn view(onboard: &[u32], stops: Vec<Stop>) -> VehicleView {
        let mut view = VehicleView::idle_at_depot(VehicleId(0), NodeId(0));
        view.onboard = onboard.iter().map(|&o| (OrderId(o), 1.0)).collect();
        view.route = Route::from_stops(stops);
        view
    }

    #[test]
    fn the_stack_replay_accepts_nested_routes_and_names_each_fault() {
        let mut auditor = InvariantAuditor::default();
        let (p, d) = (
            |o| Stop::pickup(NodeId(1), OrderId(o)),
            |o| Stop::delivery(NodeId(2), OrderId(o)),
        );
        let ok = view(&[0], vec![p(1), p(2), d(2), d(1), d(0)]);
        assert_eq!(auditor.check_stack(&ok), Ok(()));
        let faults = [
            (view(&[], vec![p(1), p(2), d(1), d(2)]), "LIFO"),
            (view(&[], vec![d(1)]), "before its pickup"),
            (view(&[0], vec![p(1), d(1)]), "never delivered"),
            (view(&[1], vec![p(1), d(1), d(1)]), "while on board"),
        ];
        for (bad, fault) in faults {
            let err = auditor.check_stack(&bad).unwrap_err();
            assert!(err.contains(fault), "{err}");
        }
    }
}
