//! The event-driven episode engine.
//!
//! [`Simulator::run_events`] drives one episode off a deterministic merged
//! stream of [`SimEvent`]s instead of a scan over a pre-sorted order
//! table. The engine owns a growable order table (replayed orders keep
//! their dense ids; streamed orders are appended with the next id),
//! buffers arrivals until their decision time, and flushes a decision
//! epoch the moment the merged stream proves no earlier event can arrive:
//!
//! ```text
//! loop {
//!     if the next event's time <= the earliest pending decision time {
//!         apply the event  (arrival / cancel / breakdown / recovery / flush)
//!     } else {
//!         flush the due epoch through one dispatch_batch call
//!     }
//! }
//! ```
//!
//! With a lone [`ReplaySource`](crate::event::ReplaySource) this grouping
//! is provably the legacy one — arrivals are creation-sorted and decision
//! times are monotone, so an epoch closes exactly when the next order's
//! decision time differs — and `tests/event_parity.rs` asserts the
//! resulting episodes are bit-identical to the retained
//! [`Simulator::run_reference`] scan loop for every policy, shard count
//! and thread count.
//!
//! Disruption events mutate the authoritative vehicle states *between*
//! epochs: cancellations drop buffered orders or shorten a committed route
//! (`Route::remove_order` surgery), breakdowns strand undriven pickups
//! back into the dispatch queue (they re-enter the next epoch as
//! re-dispatchable arrivals) and write off onboard cargo, and broken
//! vehicles are masked out of every [`DecisionBatch`] until they recover.

use crate::batch::{Decision, DecisionBatch, DecisionReason, EpochScratch};
use crate::dispatcher::Dispatcher;
use crate::event::{EventMux, EventSource, SimEvent, StreamCommand, StreamSource};
use crate::metrics::{AssignmentRecord, EpisodeResult, MetricsAccumulator};
use crate::observer::{CancelOutcome, DisruptionKind, DisruptionRecord, EpochInfo, SimObserver};
use crate::sharding::ShardRuntime;
use crate::simulator::{EpisodeSink, Simulator};
use crate::state::VehicleState;
use dpdp_net::{Order, OrderId, TimePoint, VehicleId};
use dpdp_routing::{RoutePlanner, StopAction};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// One buffered order waiting for its decision epoch.
#[derive(Debug, Clone, Copy)]
struct PendingOrder {
    id: OrderId,
    /// The epoch instant this order is decided at: its creation's decision
    /// time for fresh arrivals, the breakdown instant's decision time for
    /// stranded re-dispatches.
    due: TimePoint,
}

impl<'a> Simulator<'a> {
    /// Runs one episode fed by `sources` — the engine underneath
    /// [`Simulator::run_observed`] (replay) and [`Simulator::serve`]
    /// (live streams), exposed for custom source stacks.
    ///
    /// Events are merged deterministically (see [`crate::event`]); the
    /// episode ends when every source is exhausted and every buffered
    /// order has been decided. Orders arriving with a timestamp already in
    /// the past are clamped to the current simulation clock.
    ///
    /// # Panics
    /// Panics if the dispatcher violates the `dispatch_batch` contract.
    pub fn run_events(
        &self,
        sources: Vec<Box<dyn EventSource + '_>>,
        dispatcher: &mut dyn Dispatcher,
        observers: &mut [&mut dyn SimObserver],
    ) -> EpisodeResult {
        let instance = self.instance;
        let net = &instance.network;
        let fleet = &instance.fleet;
        dispatcher.begin_episode(instance);
        let mut sink = EpisodeSink {
            observers,
            acc: MetricsAccumulator::new(self.metrics, instance.num_orders()),
            fleet,
            net,
        };
        sink.begin(instance);

        let mut states: Vec<VehicleState> = fleet.vehicles.iter().map(VehicleState::new).collect();
        // The engine-owned order table, pre-seeded with the instance's
        // table so replayed orders keep their dense ids no matter how
        // stream arrivals interleave in time; streamed orders append
        // strictly after it, which is what lets a producer (and the
        // disruption source) predict ids for cancellation targeting.
        let mut table: Vec<Order> = instance.orders().to_vec();
        // Which pre-seeded orders have actually arrived (a resident order
        // only joins dispatch once its arrival event fires).
        let mut arrived: Vec<bool> = vec![false; table.len()];
        // Current assignee and response-time sample per order (dense by
        // order id), for cancellation and breakdown bookkeeping.
        let mut assigned_to: Vec<Option<(VehicleId, f64)>> = vec![None; table.len()];
        let mut pending: Vec<PendingOrder> = Vec::new();
        let mut mux = EventMux::new(sources);
        let mut shard_rt = self.shard_runtime();
        let mut epoch_index = 0usize;
        let mut clock = TimePoint::ZERO;
        // Per-epoch planning arena, reused across the whole session:
        // cleared at each batch build, never freed (see `EpochScratch`).
        let mut scratch = EpochScratch::default();

        loop {
            let next_due =
                pending
                    .iter()
                    .map(|p| p.due)
                    .reduce(|a, b| if b.seconds() < a.seconds() { b } else { a });
            let take_event = match (next_due, mux.peek_time()) {
                (None, None) => break,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                // An event exactly at the flush instant belongs to the
                // epoch (a same-instant arrival joins it, a same-instant
                // breakdown masks its vehicle out of it).
                (Some(due), Some(t)) => t.seconds() <= due.seconds(),
            };
            if !take_event {
                let now = next_due.expect("flush branch requires a due epoch");
                let mut epoch_ids: Vec<OrderId> = Vec::new();
                pending.retain(|p| {
                    if p.due.seconds() == now.seconds() {
                        epoch_ids.push(p.id);
                        false
                    } else {
                        true
                    }
                });
                self.run_epoch(
                    &mut sink,
                    &mut states,
                    &table,
                    epoch_ids,
                    now,
                    &mut epoch_index,
                    &mut assigned_to,
                    &mut shard_rt,
                    &mut scratch,
                    dispatcher,
                );
                continue;
            }
            let ev = mux.pop().expect("event branch requires a live head");
            let time = ev.time.max(clock);
            clock = time;
            match ev.event {
                SimEvent::OrderArrival(mut order) => {
                    // Streamed orders must reference this instance's
                    // factories; anything else is dropped (replayed orders
                    // were validated at instance construction).
                    if order.validate_against(net).is_err() {
                        continue;
                    }
                    let idx = order.id.index();
                    let id = if idx < arrived.len() && !arrived[idx] && table[idx] == order {
                        // A pre-seeded (replayed) order arriving under its
                        // own id.
                        arrived[idx] = true;
                        order.id
                    } else {
                        // A streamed/new order: appended after the
                        // instance table with the next dense id.
                        let id = OrderId::from_index(table.len());
                        order.id = id;
                        table.push(order);
                        assigned_to.push(None);
                        id
                    };
                    let due = self.decision_time(time);
                    pending.push(PendingOrder { id, due });
                }
                SimEvent::OrderCancelled(oid) => {
                    if oid.index() >= table.len() {
                        continue; // never arrived; nothing to cancel
                    }
                    let outcome = self.apply_cancellation(
                        &mut sink,
                        &mut states,
                        &table,
                        &mut pending,
                        &mut assigned_to,
                        oid,
                        time,
                    );
                    let vehicle = match outcome {
                        CancelOutcome::AfterAssignment => {
                            assigned_to[oid.index()].take().map(|(k, _)| k)
                        }
                        _ => None,
                    };
                    sink.disruption(&DisruptionRecord {
                        time,
                        kind: DisruptionKind::OrderCancelled {
                            order: oid,
                            outcome,
                            vehicle,
                        },
                    });
                }
                SimEvent::VehicleBreakdown(v) => {
                    if v.index() >= states.len() || states[v.index()].broken {
                        continue;
                    }
                    let state = &mut states[v.index()];
                    state.advance_to(time, net, fleet, &table);
                    let outcome = state.break_down();
                    let interval = instance.grid.interval_of(time);
                    for &oid in &outcome.stranded {
                        // Back into the queue: the earlier assignment — its
                        // response-time sample included — is withdrawn and
                        // the order's next decision is the one the episode
                        // keeps.
                        let response = assigned_to[oid.index()].take().map_or(0.0, |(_, r)| r);
                        sink.acc.withdraw_assignment(oid, response);
                        pending.push(PendingOrder {
                            id: oid,
                            due: self.decision_time(time),
                        });
                    }
                    for &oid in &outcome.lost {
                        sink.acc.revoke_to_rejection(
                            oid,
                            DecisionReason::VehicleLost,
                            time,
                            interval,
                        );
                        assigned_to[oid.index()] = None;
                    }
                    sink.disruption(&DisruptionRecord {
                        time,
                        kind: DisruptionKind::VehicleBreakdown {
                            vehicle: v,
                            stranded: outcome.stranded,
                            lost: outcome.lost,
                        },
                    });
                }
                SimEvent::VehicleRecovered(v) => {
                    if v.index() >= states.len() || !states[v.index()].broken {
                        continue;
                    }
                    let state = &mut states[v.index()];
                    state.advance_to(time, net, fleet, &table);
                    state.recover();
                    sink.disruption(&DisruptionRecord {
                        time,
                        kind: DisruptionKind::VehicleRecovered { vehicle: v },
                    });
                }
                // A pure heartbeat: consuming it advanced the clock's
                // knowledge, which is all it is for.
                SimEvent::EpochFlush => {}
            }
        }

        dispatcher.end_episode();
        sink.finish(&states)
    }

    /// Serves a live episode: the instance's order table replays while a
    /// producer thread pushes [`StreamCommand`]s through `rx` — the
    /// simulator as a serving loop. The episode's virtual clock advances
    /// only as far as *every* source has spoken, so buffered epochs flush
    /// when a later-stamped command arrives (or a
    /// [`StreamCommand::Flush`] heartbeat passes them) and the episode
    /// ends once the channel hangs up and the replay is exhausted.
    ///
    /// Pushed orders get ids sequentially after the replayed table. Any
    /// armed [`SimulatorBuilder::disruptions`] config rides along exactly
    /// as in [`Simulator::run_observed`].
    ///
    /// # EOF contract
    ///
    /// Dropping every sending half of `rx` — deliberately, or because the
    /// producer thread (or its network connection) died mid-episode — is
    /// the stream's end-of-file, **never** an error: the engine treats the
    /// hang-up as "no further event can arrive", flushes every still
    /// buffered epoch in due order, decides their orders, and returns the
    /// complete [`EpisodeResult`]. It does not hang and it does not panic.
    /// A receiver dropped before any command was sent yields exactly the
    /// replay-only episode of [`Simulator::run`]. `dpdp-server` leans on
    /// this to drain tenant sessions on `DRAIN` frames and on abrupt
    /// disconnects alike.
    ///
    /// # Determinism and journaled recovery
    ///
    /// An episode is a pure function of the builder configuration and the
    /// ordered command sequence: re-running `serve` with the same
    /// instance, seed, buffering mode, and commands lands bit-identical
    /// decisions and [`EpisodeMetrics`](crate::EpisodeMetrics). This is
    /// the property `dpdp-server`'s write-ahead session journal builds
    /// on — after a crash it replays the journaled commands through a
    /// fresh `serve` call and the episode resumes exactly where the wire
    /// left off.
    ///
    /// [`SimulatorBuilder::disruptions`]:
    ///     crate::simulator::SimulatorBuilder::disruptions
    pub fn serve(
        &self,
        rx: Receiver<StreamCommand>,
        dispatcher: &mut dyn Dispatcher,
    ) -> EpisodeResult {
        self.serve_observed(rx, dispatcher, &mut [])
    }

    /// [`Simulator::serve`] with observers.
    pub fn serve_observed(
        &self,
        rx: Receiver<StreamCommand>,
        dispatcher: &mut dyn Dispatcher,
        observers: &mut [&mut dyn SimObserver],
    ) -> EpisodeResult {
        use crate::event::{DisruptionSource, ReplaySource};
        let mut sources: Vec<Box<dyn EventSource + '_>> =
            vec![Box::new(ReplaySource::new(self.instance))];
        if let Some(config) = &self.disruptions {
            sources.push(Box::new(DisruptionSource::new(
                self.instance,
                config,
                self.seed,
            )));
        }
        sources.push(Box::new(StreamSource::new(rx)));
        self.run_events(sources, dispatcher, observers)
    }

    /// Applies one cancellation and reports where it caught the order.
    #[allow(clippy::too_many_arguments)] // engine-internal plumbing
    fn apply_cancellation(
        &self,
        sink: &mut EpisodeSink<'_, '_, '_>,
        states: &mut [VehicleState],
        table: &[Order],
        pending: &mut Vec<PendingOrder>,
        assigned_to: &mut [Option<(VehicleId, f64)>],
        oid: OrderId,
        time: TimePoint,
    ) -> CancelOutcome {
        let interval = self.instance.grid.interval_of(time);
        if let Some(pos) = pending.iter().position(|p| p.id == oid) {
            // Still buffered: it never reaches a dispatcher.
            pending.remove(pos);
            let decision = Decision::rejected(oid, DecisionReason::Cancelled);
            let record = AssignmentRecord::rejected(oid, DecisionReason::Cancelled, time, interval);
            sink.decision(&decision, record, None, None);
            return CancelOutcome::BeforeDispatch;
        }
        if let Some((k, _)) = assigned_to[oid.index()] {
            let state = &mut states[k.index()];
            state.advance_to(time, &self.instance.network, &self.instance.fleet, table);
            let pickup_undriven = state
                .view
                .route
                .stops()
                .iter()
                .any(|s| matches!(s.action, StopAction::Pickup(o) if o == oid));
            if pickup_undriven && state.cancel_order(oid) {
                sink.acc
                    .revoke_to_rejection(oid, DecisionReason::Cancelled, time, interval);
                return CancelOutcome::AfterAssignment;
            }
        }
        CancelOutcome::TooLate
    }

    /// Flushes one decision epoch: advances the fleet to `now`, builds the
    /// shared [`DecisionBatch`] (broken vehicles masked out), dispatches,
    /// and commits — the exact sequence of the reference scan loop, plus
    /// the availability mask and assignee bookkeeping.
    #[allow(clippy::too_many_arguments)] // engine-internal plumbing
    fn run_epoch(
        &self,
        sink: &mut EpisodeSink<'_, '_, '_>,
        states: &mut Vec<VehicleState>,
        table: &[Order],
        epoch_ids: Vec<OrderId>,
        now: TimePoint,
        epoch_index: &mut usize,
        assigned_to: &mut [Option<(VehicleId, f64)>],
        shard_rt: &mut ShardRuntime,
        scratch: &mut EpochScratch,
        dispatcher: &mut dyn Dispatcher,
    ) {
        let instance = self.instance;
        let net = &instance.network;
        let fleet = &instance.fleet;
        let interval = instance.grid.interval_of(now);

        if self.horizon.is_some_and(|h| now > h) {
            // Beyond the horizon: never dispatched, only logged.
            for &oid in &epoch_ids {
                let decision = Decision::rejected(oid, DecisionReason::HorizonExceeded);
                let record =
                    AssignmentRecord::rejected(oid, DecisionReason::HorizonExceeded, now, interval);
                sink.decision(&decision, record, None, None);
            }
            return;
        }

        for s in states.iter_mut() {
            s.advance_to(now, net, fleet, table);
        }
        // Broken vehicles keep their dense snapshot slot but are masked
        // out of the sweep; with no breakdown in effect the mask is absent
        // and the batch is bit-identical to the reference loop's.
        let active: Option<Vec<bool>> = states
            .iter()
            .any(|s| s.broken)
            .then(|| states.iter().map(|s| !s.broken).collect());
        // Demand accumulation and re-partitioning mirror the reference
        // loop exactly: serial, in epoch order, at the flush boundary,
        // before the batch forms.
        for &oid in &epoch_ids {
            shard_rt.observe(&table[oid.index()]);
        }
        let repartitioned = shard_rt.maybe_repartition(net);
        let batch = DecisionBatch::new(
            now,
            interval,
            net,
            fleet,
            table,
            epoch_ids.clone(),
            states.clone(),
            Arc::clone(&self.pool),
            shard_rt.context(),
            active,
            scratch,
        );
        sink.epoch(&EpochInfo {
            index: *epoch_index,
            now,
            interval,
            num_orders: epoch_ids.len(),
            num_shards: self.num_shards(),
            shards: batch.shard_stats(),
            repartitioned,
        });
        let decisions = dispatcher.dispatch_batch(&batch);
        assert_eq!(
            decisions.len(),
            epoch_ids.len(),
            "{}: dispatch_batch returned {} decisions for {} orders",
            dispatcher.name(),
            decisions.len(),
            epoch_ids.len(),
        );

        // Fast path: adopt the batch's own commits verbatim when the
        // returned decisions match them; otherwise re-validate each
        // decision against the authoritative state (see run_reference for
        // the rationale — the two paths are kept in lockstep).
        let (commits, scratch_states) = batch.into_parts();
        let resolved_by_batch = decisions
            .iter()
            .zip(&commits)
            .all(|(d, c)| c.as_ref().is_some_and(|c| c.decision == *d));
        if resolved_by_batch {
            for ((&oid, decision), commit) in epoch_ids.iter().zip(&decisions).zip(commits) {
                let commit = commit.expect("all commits checked present");
                let order = &table[oid.index()];
                let response = (now - order.created).seconds();
                match &commit.assignment {
                    Some(a) => {
                        let vehicle = decision.vehicle.expect("assignment has a vehicle");
                        let record = AssignmentRecord::assigned(
                            oid,
                            vehicle,
                            now,
                            interval,
                            &a.plan,
                            a.vehicle_was_used,
                        );
                        assigned_to[oid.index()] = Some((vehicle, response));
                        sink.decision(
                            &commit.decision,
                            record,
                            Some((&a.pre_view, &a.plan)),
                            Some(response),
                        );
                    }
                    None => {
                        let record =
                            AssignmentRecord::rejected(oid, decision.reason, now, interval);
                        sink.decision(&commit.decision, record, None, Some(response));
                    }
                }
            }
            *states = scratch_states;
        } else {
            let planner = RoutePlanner::new(net, fleet, table);
            for (&oid, decision) in epoch_ids.iter().zip(&decisions) {
                assert_eq!(
                    decision.order,
                    oid,
                    "{}: dispatch_batch returned decisions out of order",
                    dispatcher.name(),
                );
                let order = &table[oid.index()];
                let response = (now - order.created).seconds();
                let validated = decision.vehicle.and_then(|k| {
                    if states[k.index()].broken {
                        return None; // a dead truck cannot serve
                    }
                    let plan = planner.plan(&states[k.index()].view, order);
                    plan.best.is_some().then_some((k, plan))
                });
                match validated {
                    Some((k, plan)) => {
                        let record = AssignmentRecord::assigned(
                            oid,
                            k,
                            now,
                            interval,
                            &plan,
                            states[k.index()].used(),
                        );
                        let committed = Decision::assigned(oid, k);
                        assigned_to[oid.index()] = Some((k, response));
                        sink.decision(
                            &committed,
                            record,
                            Some((&states[k.index()].view, &plan)),
                            Some(response),
                        );
                        let best = plan.best.as_ref().expect("validated feasible");
                        states[k.index()].accept(best.candidate.route.clone());
                        states[k.index()].advance_to(now, net, fleet, table);
                    }
                    None => {
                        let reason = match decision.reason {
                            // An assignment that failed re-validation.
                            DecisionReason::Assigned => DecisionReason::InfeasibleChoice,
                            other => other,
                        };
                        let committed = Decision::rejected(oid, reason);
                        let record = AssignmentRecord::rejected(oid, reason, now, interval);
                        sink.decision(&committed, record, None, Some(response));
                    }
                }
            }
        }
        *epoch_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::FirstFeasible;
    use crate::event::{DisruptionConfig, TimedEvent};
    use crate::observer::EventCounter;
    use dpdp_net::{
        FleetConfig, Instance, IntervalGrid, Node, NodeId, Point, RoadNetwork, TimeDelta,
    };

    fn instance(num_vehicles: usize, orders: Vec<Order>) -> Instance {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(10.0, 0.0)),
            Node::factory(NodeId(2), Point::new(20.0, 0.0)),
            Node::factory(NodeId(3), Point::new(30.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet = FleetConfig::homogeneous(
            num_vehicles,
            &[NodeId(0)],
            10.0,
            500.0,
            2.0,
            60.0,
            TimeDelta::ZERO,
        )
        .unwrap();
        Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
    }

    fn order(id: u32, p: u32, d: u32, q: f64, created_h: f64, deadline_h: f64) -> Order {
        Order::new(
            OrderId(id),
            NodeId(p),
            NodeId(d),
            q,
            TimePoint::from_hours(created_h),
            TimePoint::from_hours(deadline_h),
        )
        .unwrap()
    }

    /// A fixed pre-sorted event list, for injecting disruptions in tests.
    struct Fixed(std::vec::IntoIter<TimedEvent>);

    impl Fixed {
        fn new(events: Vec<TimedEvent>) -> Self {
            Fixed(events.into_iter())
        }
    }

    impl EventSource for Fixed {
        fn next_event(&mut self) -> Option<TimedEvent> {
            self.0.next()
        }
    }

    fn run_with_events(
        inst: &Instance,
        buffering: crate::simulator::BufferingMode,
        events: Vec<TimedEvent>,
        counter: &mut EventCounter,
    ) -> EpisodeResult {
        let sim = Simulator::builder(inst)
            .buffering(buffering)
            .build()
            .unwrap();
        let sources: Vec<Box<dyn EventSource + '_>> = vec![
            Box::new(crate::event::ReplaySource::new(inst)),
            Box::new(Fixed::new(events)),
        ];
        sim.run_events(sources, &mut FirstFeasible, &mut [&mut *counter])
    }

    #[test]
    fn engine_matches_reference_loop_without_disruptions() {
        use crate::simulator::BufferingMode;
        let inst = instance(
            3,
            vec![
                order(0, 1, 2, 9.0, 8.0, 8.34),
                order(1, 1, 2, 9.0, 8.0, 8.34),
                order(2, 2, 3, 4.0, 9.0, 20.0),
                order(3, 3, 1, 4.0, 9.0, 20.0),
            ],
        );
        for buffering in [
            BufferingMode::Immediate,
            BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)),
        ] {
            let sim = Simulator::builder(&inst)
                .buffering(buffering)
                .build()
                .unwrap();
            let engine = sim.run_observed(&mut FirstFeasible, &mut []);
            let reference = sim.run_reference(&mut FirstFeasible, &mut []);
            assert_eq!(engine, reference, "diverged under {buffering:?}");
        }
    }

    #[test]
    fn buffered_cancellation_before_dispatch_never_reaches_the_policy() {
        use crate::simulator::BufferingMode;
        // Created 8:05, due at the 8:30 flush, cancelled at 8:10.
        let inst = instance(1, vec![order(0, 1, 2, 5.0, 8.05, 20.0)]);
        let mut counter = EventCounter::default();
        let result = run_with_events(
            &inst,
            BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)),
            vec![TimedEvent {
                time: TimePoint::from_hours(8.0 + 10.0 / 60.0),
                event: SimEvent::OrderCancelled(OrderId(0)),
            }],
            &mut counter,
        );
        assert_eq!(result.metrics.served, 0);
        assert_eq!(result.metrics.rejected, 1);
        assert_eq!(result.metrics.rejections.cancelled, 1);
        assert_eq!(result.assignments[0].reason, DecisionReason::Cancelled);
        assert_eq!(counter.epochs, 0, "the cancelled order forms no epoch");
        assert_eq!(counter.cancellations, 1);
        assert_eq!(counter.decisions, 1);
    }

    #[test]
    fn post_assignment_cancellation_shortens_the_route_by_surgery() {
        // Order 0 departs immediately at 8:00 (pickup driven, onboard);
        // order 1 is appended at 8:05 while the vehicle is mid-leg, so its
        // pickup is still undriven when the 8:07 cancellation lands.
        let inst = instance(
            1,
            vec![
                order(0, 1, 2, 2.0, 8.0, 20.0),
                order(1, 1, 2, 2.0, 8.0 + 5.0 / 60.0, 20.0),
            ],
        );
        let mut counter = EventCounter::default();
        let result = run_with_events(
            &inst,
            crate::simulator::BufferingMode::Immediate,
            vec![TimedEvent {
                time: TimePoint::from_hours(8.0 + 7.0 / 60.0),
                event: SimEvent::OrderCancelled(OrderId(1)),
            }],
            &mut counter,
        );
        assert_eq!(result.metrics.served, 1);
        assert_eq!(result.metrics.rejected, 1);
        assert_eq!(result.metrics.rejections.cancelled, 1);
        let rec1 = result
            .assignments
            .iter()
            .find(|r| r.order == OrderId(1))
            .unwrap();
        assert_eq!(rec1.reason, DecisionReason::Cancelled);
        assert_eq!(rec1.vehicle, None);
        // The surgically shortened route still serves order 0 alone: the
        // vehicle ends with exactly order 0's travel (0->1->2->0 = 40 km).
        assert!((result.metrics.ttl - 40.0).abs() < 1e-9);
        assert_eq!(result.vehicles[0].orders_accepted, 1);
        assert_eq!(counter.cancellations, 1);
    }

    #[test]
    fn cancelling_a_driven_pickup_is_too_late() {
        let inst = instance(1, vec![order(0, 1, 2, 2.0, 8.0, 20.0)]);
        let mut counter = EventCounter::default();
        let result = run_with_events(
            &inst,
            crate::simulator::BufferingMode::Immediate,
            vec![TimedEvent {
                time: TimePoint::from_hours(8.05),
                event: SimEvent::OrderCancelled(OrderId(0)),
            }],
            &mut counter,
        );
        // Pickup departed at 8:00 sharp: the cancellation has no effect.
        assert_eq!(result.metrics.served, 1);
        assert_eq!(result.metrics.rejections.cancelled, 0);
        assert_eq!(counter.cancellations, 1, "the event still fired");
    }

    #[test]
    fn breakdown_strands_undriven_orders_and_loses_onboard_cargo() {
        let inst = instance(
            2,
            vec![
                order(0, 1, 2, 2.0, 8.0, 20.0),
                order(1, 2, 3, 2.0, 8.0 + 5.0 / 60.0, 20.0),
            ],
        );
        let mut counter = EventCounter::default();
        let result = run_with_events(
            &inst,
            crate::simulator::BufferingMode::Immediate,
            vec![TimedEvent {
                time: TimePoint::from_hours(8.1),
                event: SimEvent::VehicleBreakdown(VehicleId(0)),
            }],
            &mut counter,
        );
        // First-feasible put both orders on vehicle 0. At the 8:06
        // breakdown order 0 is onboard (lost) and order 1's pickup is
        // undriven (stranded); the stranded order re-dispatches to
        // vehicle 1 at the breakdown instant.
        assert_eq!(counter.breakdowns, 1);
        assert_eq!(result.metrics.served, 1);
        assert_eq!(result.metrics.rejected, 1);
        assert_eq!(result.metrics.rejections.vehicle_lost, 1);
        let rec0 = result
            .assignments
            .iter()
            .find(|r| r.order == OrderId(0))
            .unwrap();
        assert_eq!(rec0.reason, DecisionReason::VehicleLost);
        let rec1 = result
            .assignments
            .iter()
            .find(|r| r.order == OrderId(1))
            .unwrap();
        assert_eq!(rec1.vehicle, Some(VehicleId(1)));
        assert!(
            (rec1.time.hours() - 8.1).abs() < 1e-9,
            "re-dispatched at the breakdown instant"
        );
        // One final record per order; totals invariant holds.
        assert_eq!(result.assignments.len(), 2);
        assert_eq!(
            result.metrics.served + result.metrics.rejections.total(),
            inst.num_orders()
        );
        // The broken vehicle keeps its driven kilometres and used flag.
        assert!(result.vehicles[0].used);
        assert!(result.vehicles[0].travel_km > 0.0);
        assert_eq!(result.vehicles[0].orders_accepted, 0);
    }

    #[test]
    fn broken_vehicle_is_masked_until_recovery() {
        let inst = instance(
            1,
            vec![
                order(0, 1, 2, 2.0, 8.0 + 5.0 / 60.0, 20.0),
                order(1, 2, 3, 2.0, 9.0, 20.0),
            ],
        );
        let mut counter = EventCounter::default();
        let result = run_with_events(
            &inst,
            crate::simulator::BufferingMode::Immediate,
            vec![
                TimedEvent {
                    time: TimePoint::from_hours(8.0),
                    event: SimEvent::VehicleBreakdown(VehicleId(0)),
                },
                TimedEvent {
                    time: TimePoint::from_hours(8.5),
                    event: SimEvent::VehicleRecovered(VehicleId(0)),
                },
            ],
            &mut counter,
        );
        // Broken at 8:00: the 8:05 order finds no feasible vehicle.
        // Recovered at 8:30: the 9:00 order is served.
        assert_eq!(
            result.assignments[0].reason,
            DecisionReason::NoFeasibleVehicle
        );
        assert_eq!(result.assignments[1].reason, DecisionReason::Assigned);
        assert_eq!(counter.breakdowns, 1);
        assert_eq!(counter.recoveries, 1);
    }

    #[test]
    fn serve_flushes_buffered_epochs_as_the_stream_reveals_time() {
        use crate::simulator::BufferingMode;
        let inst = instance(2, vec![]);
        let (tx, rx) = std::sync::mpsc::channel();
        // All commands queued up front; the channel closing releases the
        // final epoch.
        tx.send(StreamCommand::Order(order(0, 1, 2, 2.0, 8.2, 20.0)))
            .unwrap();
        tx.send(StreamCommand::Order(order(1, 2, 3, 2.0, 8.9, 20.0)))
            .unwrap();
        drop(tx);
        let sim = Simulator::builder(&inst)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
            .build()
            .unwrap();
        let mut counter = EventCounter::default();
        let result = sim.serve_observed(rx, &mut FirstFeasible, &mut [&mut counter]);
        assert_eq!(result.metrics.served, 2);
        // Pushed orders get sequential engine ids and land on their flush
        // multiples: 8:12 -> 8:30, 8:54 -> 9:00.
        assert_eq!(result.assignments[0].order, OrderId(0));
        assert!((result.assignments[0].time.hours() - 8.5).abs() < 1e-9);
        assert!((result.assignments[1].time.hours() - 9.0).abs() < 1e-9);
        assert_eq!(counter.epochs, 2);
    }

    #[test]
    fn serve_sender_dropped_mid_episode_drains_buffered_epochs_cleanly() {
        // The EOF contract: a producer that dies mid-episode — engine
        // blocked on `recv`, orders still buffered, no Flush heartbeat,
        // no goodbye — must end the episode cleanly with final metrics.
        use crate::simulator::BufferingMode;
        let inst = instance(2, vec![]);
        let (tx, rx) = std::sync::mpsc::channel();
        let producer = std::thread::spawn(move || {
            tx.send(StreamCommand::Order(order(0, 1, 2, 2.0, 8.2, 20.0)))
                .unwrap();
            // Let the engine reach its blocking recv before the hang-up.
            std::thread::sleep(std::time::Duration::from_millis(20));
            tx.send(StreamCommand::Order(order(1, 2, 3, 2.0, 8.9, 20.0)))
                .unwrap();
            // The sender drops here, with both epochs still buffered.
        });
        let sim = Simulator::builder(&inst)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
            .build()
            .unwrap();
        let result = sim.serve(rx, &mut FirstFeasible);
        producer.join().unwrap();
        assert_eq!(result.assignments.len(), 2, "both buffered orders decided");
        assert_eq!(result.metrics.served + result.metrics.rejected, 2);
        assert!((result.assignments[0].time.hours() - 8.5).abs() < 1e-9);
        assert!((result.assignments[1].time.hours() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn serve_with_immediately_dropped_sender_equals_the_replay_episode() {
        // The degenerate stream — hung up before a single command — must
        // reduce `serve` to exactly the replay-only episode of `run`.
        use crate::simulator::BufferingMode;
        let inst = instance(
            2,
            vec![
                order(0, 1, 2, 2.0, 8.0, 20.0),
                order(1, 2, 3, 2.0, 9.0, 20.0),
            ],
        );
        for buffering in [
            BufferingMode::Immediate,
            BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)),
        ] {
            let sim = Simulator::builder(&inst)
                .buffering(buffering)
                .build()
                .unwrap();
            let reference = sim.run(&mut FirstFeasible);
            let (tx, rx) = std::sync::mpsc::channel::<StreamCommand>();
            drop(tx);
            assert_eq!(sim.serve(rx, &mut FirstFeasible), reference);
        }
    }

    #[test]
    fn streamed_orders_interleaving_with_replay_keep_ids_stable() {
        use crate::simulator::BufferingMode;
        // Replay table: ids 0 (8:00) and 1 (10:00). A streamed order
        // created 9:00 interleaves between them — it must get id 2 (after
        // the instance table), never shift the replayed 10:00 order, and a
        // cancellation targeting id 2 must kill exactly the streamed
        // order.
        let inst = instance(
            2,
            vec![
                order(0, 1, 2, 2.0, 8.0, 20.0),
                order(1, 2, 3, 2.0, 10.0, 20.0),
            ],
        );
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send(StreamCommand::Order(order(0, 3, 1, 2.0, 9.0, 20.0)))
            .unwrap();
        tx.send(StreamCommand::Cancel {
            order: OrderId(2),
            at: TimePoint::from_hours(8.95),
        })
        .unwrap();
        drop(tx);
        let sim = Simulator::builder(&inst)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
            .build()
            .unwrap();
        let result = sim.serve(rx, &mut FirstFeasible);
        assert_eq!(result.metrics.served, 2);
        assert_eq!(result.metrics.rejections.cancelled, 1);
        let rec = |o: u32| {
            result
                .assignments
                .iter()
                .find(|r| r.order == OrderId(o))
                .unwrap()
        };
        // Replayed orders keep their ids and are served at their own
        // flush instants; the streamed order (id 2) is the cancelled one.
        assert_eq!(rec(0).reason, DecisionReason::Assigned);
        assert!((rec(0).time.hours() - 8.0).abs() < 1e-9);
        assert_eq!(rec(1).reason, DecisionReason::Assigned);
        assert!((rec(1).time.hours() - 10.0).abs() < 1e-9);
        assert_eq!(rec(2).reason, DecisionReason::Cancelled);
    }

    #[test]
    fn stranded_redispatch_keeps_only_the_final_response_sample() {
        // Same fixture as the breakdown test above: at the 8:06 breakdown
        // order 0 is onboard (lost, its 0 s sample kept by design) and
        // order 1 is stranded — its withdrawn 0 s sample must be
        // subtracted, and the re-dispatch at 8:06 contributes a fresh
        // 60 s sample (it was created 8:05).
        let inst = instance(
            2,
            vec![
                order(0, 1, 2, 2.0, 8.0, 20.0),
                order(1, 2, 3, 2.0, 8.0 + 5.0 / 60.0, 20.0),
            ],
        );
        let mut counter = EventCounter::default();
        let result = run_with_events(
            &inst,
            crate::simulator::BufferingMode::Immediate,
            vec![TimedEvent {
                time: TimePoint::from_hours(8.1),
                event: SimEvent::VehicleBreakdown(VehicleId(0)),
            }],
            &mut counter,
        );
        assert_eq!(counter.breakdowns, 1);
        assert_eq!(result.metrics.rejections.vehicle_lost, 1);
        assert_eq!(result.metrics.served, 1);
        // Kept samples: order 0 (0 s) and order 1's re-dispatch (60 s);
        // with the withdrawn sample wrongly retained this would read
        // (0 + 0 + 60) / 3 = 20 s instead.
        let expect = (0.0 + 60.0) / 2.0;
        assert!(
            (result.metrics.avg_response_secs - expect).abs() < 1e-6,
            "{} vs {expect}",
            result.metrics.avg_response_secs
        );
    }

    #[test]
    fn epoch_flush_heartbeat_releases_buffered_orders() {
        use crate::simulator::BufferingMode;
        let inst = instance(1, vec![]);
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send(StreamCommand::Order(order(0, 1, 2, 2.0, 8.2, 20.0)))
            .unwrap();
        // Without this heartbeat the 8:30 epoch would only flush at
        // channel close; with it, the epoch flushes as soon as the
        // heartbeat is consumed.
        tx.send(StreamCommand::Flush {
            at: TimePoint::from_hours(9.0),
        })
        .unwrap();
        drop(tx);
        let sim = Simulator::builder(&inst)
            .buffering(BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)))
            .build()
            .unwrap();
        let result = sim.serve(rx, &mut FirstFeasible);
        assert_eq!(result.metrics.served, 1);
        assert!((result.assignments[0].time.hours() - 8.5).abs() < 1e-9);
    }

    #[test]
    fn seeded_disruptions_are_deterministic_and_seed_sensitive() {
        let orders: Vec<Order> = (0..24)
            .map(|i| {
                order(
                    i,
                    1 + (i % 3),
                    1 + ((i + 1) % 3),
                    1.0,
                    8.0 + 0.25 * i as f64,
                    23.0,
                )
            })
            .collect();
        let inst = instance(4, orders);
        let cfg = DisruptionConfig {
            cancellation_prob: 0.3,
            cancellation_delay: TimeDelta::from_minutes(20.0),
            breakdown_prob: 0.5,
            breakdown_window: (TimePoint::from_hours(8.0), TimePoint::from_hours(14.0)),
            recovery_delay: Some((TimeDelta::from_minutes(30.0), TimeDelta::from_hours(2.0))),
        };
        let run = |seed: u64| {
            let mut counter = EventCounter::default();
            let sim = Simulator::builder(&inst)
                .disruptions(cfg.clone())
                .seed(seed)
                .build()
                .unwrap();
            let result = sim.run_observed(&mut FirstFeasible, &mut [&mut counter]);
            (result, counter)
        };
        let (a, ca) = run(5);
        let (b, _) = run(5);
        assert_eq!(a, b, "same seed must reproduce the episode bit for bit");
        assert!(ca.cancellations > 0 && ca.breakdowns > 0, "non-vacuous");
        let (c, _) = run(6);
        assert_ne!(a, c, "a different seed must move the disruption draw");
        // Every order ends in exactly one final state.
        assert_eq!(
            a.metrics.served + a.metrics.rejections.total(),
            inst.num_orders()
        );
    }

    #[test]
    fn invalid_disruption_config_is_a_build_error() {
        let inst = instance(1, vec![]);
        let err = Simulator::builder(&inst)
            .disruptions(DisruptionConfig {
                cancellation_prob: 2.0,
                ..DisruptionConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            crate::simulator::SimBuildError::InvalidDisruption { .. }
        ));
        assert!(err.to_string().contains("cancellation_prob"));
    }
}
