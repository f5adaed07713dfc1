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
//! is provably the plain scan's — arrivals are creation-sorted and
//! decision times are monotone, so an epoch closes exactly when the next
//! order's decision time differs — and `tests/event_parity.rs` asserts the
//! resulting episodes are bit-identical to the [`Simulator::run_reference`]
//! scan for every policy, shard count and thread count. Both flush through
//! the one epoch body at the bottom of this file, so the comparison is
//! about how epochs come to exist (merge order, flush timing, the growable
//! order table), not about what a commit does.
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
use crate::profile::{self, Stage, StageClock};
use crate::sharding::ShardRuntime;
use crate::simulator::{EpisodeSink, Simulator};
use crate::state::{fresh_fleet, VehicleState};
use dpdp_net::{Order, OrderId, TimePoint, VehicleId};
use dpdp_routing::{StopAction, VehicleView};
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

        // The fleet, as two vehicle-indexed columns moved into each epoch's
        // batch and back (see `VehicleState`).
        let (mut views, mut states) = fresh_fleet(fleet);
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
                    &mut views,
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
                        &mut views,
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
                    sink.disruption(
                        &DisruptionRecord {
                            time,
                            kind: DisruptionKind::OrderCancelled {
                                order: oid,
                                outcome,
                                vehicle,
                            },
                        },
                        &views,
                        &table,
                    );
                }
                SimEvent::VehicleBreakdown(v) => {
                    if v.index() >= states.len() || states[v.index()].broken {
                        continue;
                    }
                    let (view, state) = (&mut views[v.index()], &mut states[v.index()]);
                    state.advance_to(view, time, net, fleet, &table);
                    let outcome = state.break_down(view);
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
                    sink.disruption(
                        &DisruptionRecord {
                            time,
                            kind: DisruptionKind::VehicleBreakdown {
                                vehicle: v,
                                stranded: outcome.stranded,
                                lost: outcome.lost,
                            },
                        },
                        &views,
                        &table,
                    );
                }
                SimEvent::VehicleRecovered(v) => {
                    if v.index() >= states.len() || !states[v.index()].broken {
                        continue;
                    }
                    let state = &mut states[v.index()];
                    state.advance_to(&mut views[v.index()], time, net, fleet, &table);
                    state.recover();
                    sink.disruption(
                        &DisruptionRecord {
                            time,
                            kind: DisruptionKind::VehicleRecovered { vehicle: v },
                        },
                        &views,
                        &table,
                    );
                }
                // A pure heartbeat: consuming it advanced the clock's
                // knowledge, which is all it is for.
                SimEvent::EpochFlush => {}
            }
        }

        dispatcher.end_episode();
        sink.finish(&views, &states)
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
        views: &mut [VehicleView],
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
            let (view, state) = (&mut views[k.index()], &mut states[k.index()]);
            state.advance_to(
                view,
                time,
                &self.instance.network,
                &self.instance.fleet,
                table,
            );
            let pickup_undriven = view
                .route
                .stops()
                .iter()
                .any(|s| matches!(s.action, StopAction::Pickup(o) if o == oid));
            if pickup_undriven && state.cancel_order(view, oid) {
                sink.acc
                    .revoke_to_rejection(oid, DecisionReason::Cancelled, time, interval);
                return CancelOutcome::AfterAssignment;
            }
        }
        CancelOutcome::TooLate
    }

    /// Flushes one decision epoch — the crate's one epoch body, shared by
    /// the event loop above and the [`Simulator::run_reference`] scan:
    /// fleet advance to `now`, re-partition, [`DecisionBatch`] (broken
    /// vehicles masked out), dispatch, commit.
    ///
    /// [`DecisionBatch::resolve`] is the commit and the batch owns the
    /// fleet for the length of the epoch. What the dispatcher returns is
    /// only checked against it: a resolved order must come back as the
    /// decision `resolve` gave, and an unresolved one is resolved here, by
    /// the same call, with the vehicle it claimed — so an untrusted claim
    /// degrades to [`DecisionReason::InfeasibleChoice`], never to a
    /// corrupt route.
    ///
    /// When an observer wants the epoch profiled, a [`StageClock`] is
    /// lapped at each stage boundary (see [`crate::profile`]) and the
    /// profile is handed over after the last `on_decision`.
    #[allow(clippy::too_many_arguments)] // engine-internal plumbing
    pub(crate) fn run_epoch(
        &self,
        sink: &mut EpisodeSink<'_, '_, '_>,
        views: &mut Vec<VehicleView>,
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
        let mut clock = sink.wants_profile().then(StageClock::start);

        for (state, view) in states.iter_mut().zip(views.iter_mut()) {
            state.advance_to(view, now, net, fleet, table);
        }
        // Broken vehicles keep their dense snapshot slot but are masked
        // out of the sweep; with no breakdown in effect the mask is absent.
        let active: Option<Vec<bool>> = states
            .iter()
            .any(|s| s.broken)
            .then(|| states.iter().map(|s| !s.broken).collect());
        // Demand accumulation and re-partitioning are serial, in epoch
        // order, at the flush boundary, before the batch forms.
        for &oid in &epoch_ids {
            shard_rt.observe(&table[oid.index()]);
        }
        let repartitioned = shard_rt.maybe_repartition(net);
        profile::lap(&mut clock, Stage::Advance);
        let batch = DecisionBatch::new(
            now,
            interval,
            net,
            fleet,
            table,
            epoch_ids,
            std::mem::take(views),
            std::mem::take(states),
            Arc::clone(&self.pool),
            shard_rt.context(),
            active,
            clock,
            scratch,
        );
        sink.epoch(&EpochInfo {
            index: *epoch_index,
            now,
            interval,
            num_orders: batch.len(),
            num_shards: self.num_shards(),
            shards: batch.shard_stats(),
            repartitioned,
        });
        let decisions = dispatcher.dispatch_batch(&batch);
        assert_eq!(
            decisions.len(),
            batch.len(),
            "{}: dispatch_batch returned {} decisions for {} orders",
            dispatcher.name(),
            decisions.len(),
            batch.len(),
        );
        for (i, (decision, &oid)) in decisions.iter().zip(batch.order_ids()).enumerate() {
            assert_eq!(
                decision.order,
                oid,
                "{}: dispatch_batch returned decisions out of order",
                dispatcher.name(),
            );
            match batch.committed(i) {
                Some(committed) => assert!(
                    *decision == committed,
                    "{}: dispatch_batch returned {decision:?} for an order it did not commit \
                     that way: `resolve` gave {committed:?}",
                    dispatcher.name(),
                ),
                // Left to the engine: validated and committed by the same
                // `resolve`, after the policy's own commits.
                None => {
                    batch.resolve(i, decision.vehicle);
                }
            }
        }

        batch.lap(Stage::Policy);
        let (commits, mut clock) = batch.into_parts(scratch, views, states);
        for commit in commits {
            let commit = commit.expect("every epoch order was resolved above");
            let (decision, assignment) = (commit.decision, commit.assignment);
            let oid = decision.order;
            let response = (now - table[oid.index()].created).seconds();
            let record = match &assignment {
                Some(a) => {
                    let vehicle = decision.vehicle.expect("an assignment has a vehicle");
                    assigned_to[oid.index()] = Some((vehicle, response));
                    AssignmentRecord::assigned(
                        oid,
                        vehicle,
                        now,
                        interval,
                        &a.plan,
                        a.vehicle_was_used,
                    )
                }
                None => AssignmentRecord::rejected(oid, decision.reason, now, interval),
            };
            let committed = assignment.as_ref().map(|a| (&a.pre_view, &a.plan));
            sink.decision(&decision, record, committed, Some(response));
        }
        if let Some(clock) = &mut clock {
            clock.lap(Stage::Record);
            sink.epoch_profile(&clock.profile);
        }
        sink.fleet(now, views, table);
        *epoch_index += 1;
    }
}

#[cfg(test)]
mod tests;
