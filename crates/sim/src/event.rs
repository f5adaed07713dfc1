//! The event taxonomy and pluggable event sources of the simulation core.
//!
//! The engine (see [`Simulator::run_events`]) consumes one deterministic,
//! time-ordered stream of [`SimEvent`]s merged from any number of
//! [`EventSource`]s. Three sources ship with the crate:
//!
//! * [`ReplaySource`] — wraps an instance's order table as a stream of
//!   [`SimEvent::OrderArrival`]s, one epoch per run of orders sharing a
//!   decision time (episodes pinned to committed digests by
//!   `tests/event_parity.rs`);
//! * [`StreamSource`] — a channel-backed push source: another thread feeds
//!   [`StreamCommand`]s into a live episode (`Simulator::serve`), turning
//!   the simulator into a serving loop;
//! * [`DisruptionSource`] — seeded stochastic cancellations and vehicle
//!   breakdowns/recoveries sampled from a [`DisruptionConfig`], consuming
//!   the simulator seed through dedicated RNG streams so every legacy draw
//!   (dataset generation, exploration) is untouched.
//!
//! # Determinism
//!
//! Sources must yield events in nondecreasing time order (the engine clamps
//! stragglers up to the current simulation clock). When several events
//! share one instant, the merge breaks ties by a fixed event-class rank —
//! arrivals, then cancellations, then breakdowns, then recoveries, then
//! flush heartbeats — and then by source position, so the merged stream is
//! a pure function of the sources' contents: same sources, same episode.
//!
//! [`Simulator::run_events`]: crate::simulator::Simulator::run_events

use dpdp_net::{Instance, Order, OrderId, TimeDelta, TimePoint, VehicleId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::mpsc::Receiver;

/// One simulation event.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// An order enters the system. Replayed orders keep their instance-
    /// table ids (the engine pre-seeds its table, so stream arrivals can
    /// interleave in time without shifting them); new orders are appended
    /// with the next dense id after the instance table. The order is
    /// buffered until its decision epoch flushes.
    OrderArrival(Order),
    /// An order is cancelled. Before dispatch the order is dropped from
    /// the buffer; after assignment (pickup still undriven) the serving
    /// vehicle's route is shortened by surgery and the assignment revoked;
    /// after pickup the event is too late and ignored.
    OrderCancelled(OrderId),
    /// A vehicle breaks down at its current position: undriven pickups are
    /// stranded back into the dispatch queue, onboard cargo is lost, and
    /// the vehicle is masked out of dispatch.
    VehicleBreakdown(VehicleId),
    /// A broken vehicle returns to service at its current anchor.
    VehicleRecovered(VehicleId),
    /// A pure time heartbeat: carries no state change, but its timestamp
    /// tells the engine that no earlier event can arrive any more, which
    /// releases any decision epoch due at or before it. Push sources use
    /// it to flush buffered orders without sending another order.
    EpochFlush,
}

impl SimEvent {
    /// Tie-break rank for events sharing one instant (lower fires first).
    pub(crate) fn rank(&self) -> u8 {
        match self {
            SimEvent::OrderArrival(_) => 0,
            SimEvent::OrderCancelled(_) => 1,
            SimEvent::VehicleBreakdown(_) => 2,
            SimEvent::VehicleRecovered(_) => 3,
            SimEvent::EpochFlush => 4,
        }
    }
}

/// A [`SimEvent`] stamped with its simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// When the event happens.
    pub time: TimePoint,
    /// The event.
    pub event: SimEvent,
}

/// A pluggable producer of simulation events.
///
/// The contract: [`EventSource::next_event`] yields events in
/// nondecreasing time order and returns `None` once the source is
/// exhausted. A call may block — that is how a channel-backed source
/// works: the episode's virtual clock cannot pass an instant until every
/// source has revealed its next event, so a [`StreamSource`] holds the
/// engine until its producer pushes another command or hangs up.
pub trait EventSource {
    /// The next event, or `None` when the source is exhausted.
    fn next_event(&mut self) -> Option<TimedEvent>;

    /// A short human-readable name for diagnostics.
    fn name(&self) -> &str {
        "event-source"
    }
}

/// Replays a fixed order table as a stream of arrivals — the classic
/// simulator input. The episodes of an engine fed from a `ReplaySource`
/// alone are pinned to committed decision digests in every shard × thread
/// cell of `tests/event_parity.rs`.
#[derive(Debug, Clone)]
pub struct ReplaySource<'a> {
    orders: &'a [Order],
    next: usize,
}

impl<'a> ReplaySource<'a> {
    /// Replays `instance`'s order table (sorted by creation time).
    pub fn new(instance: &'a Instance) -> Self {
        ReplaySource {
            orders: instance.orders(),
            next: 0,
        }
    }

    /// Replays an explicit creation-sorted order slice.
    pub fn from_orders(orders: &'a [Order]) -> Self {
        ReplaySource { orders, next: 0 }
    }
}

impl EventSource for ReplaySource<'_> {
    fn next_event(&mut self) -> Option<TimedEvent> {
        let order = self.orders.get(self.next)?.clone();
        self.next += 1;
        Some(TimedEvent {
            time: order.created,
            event: SimEvent::OrderArrival(order),
        })
    }

    fn name(&self) -> &str {
        "replay"
    }
}

/// What a producer thread can push into a live episode (see
/// [`Simulator::serve`](crate::simulator::Simulator::serve)).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamCommand {
    /// A new order; its event time is its creation time. The engine
    /// assigns ids sequentially after the replayed table (the first pushed
    /// order of a `serve` run gets id `instance.num_orders()`), so a
    /// producer can predict the id a later [`StreamCommand::Cancel`] needs.
    Order(Order),
    /// Cancel an order at `at`.
    Cancel {
        /// The order to cancel (engine-assigned id).
        order: OrderId,
        /// When the cancellation lands.
        at: TimePoint,
    },
    /// Break a vehicle down at `at`.
    Breakdown {
        /// The vehicle.
        vehicle: VehicleId,
        /// When it breaks.
        at: TimePoint,
    },
    /// Recover a broken vehicle at `at`.
    Recover {
        /// The vehicle.
        vehicle: VehicleId,
        /// When it recovers.
        at: TimePoint,
    },
    /// A time heartbeat: releases every epoch due at or before `at`
    /// without pushing an order (see [`SimEvent::EpochFlush`]).
    Flush {
        /// The heartbeat instant.
        at: TimePoint,
    },
}

impl StreamCommand {
    fn into_timed(self) -> TimedEvent {
        match self {
            StreamCommand::Order(order) => TimedEvent {
                time: order.created,
                event: SimEvent::OrderArrival(order),
            },
            StreamCommand::Cancel { order, at } => TimedEvent {
                time: at,
                event: SimEvent::OrderCancelled(order),
            },
            StreamCommand::Breakdown { vehicle, at } => TimedEvent {
                time: at,
                event: SimEvent::VehicleBreakdown(vehicle),
            },
            StreamCommand::Recover { vehicle, at } => TimedEvent {
                time: at,
                event: SimEvent::VehicleRecovered(vehicle),
            },
            StreamCommand::Flush { at } => TimedEvent {
                time: at,
                event: SimEvent::EpochFlush,
            },
        }
    }
}

/// A channel-backed push source: the receiving half of an
/// [`std::sync::mpsc::channel`] whose sending half lives on the producer
/// thread(s). The source blocks the engine between commands — simulation
/// time only advances as far as the producer has spoken — and is exhausted
/// when every sender hangs up, which releases the episode's final epochs.
///
/// Hang-up is the *only* end-of-stream signal, and it is always clean: a
/// sender dropped mid-episode (producer crash, connection reset) simply
/// exhausts the source, and the engine finishes the episode with final
/// metrics — the EOF contract documented on
/// [`Simulator::serve`](crate::simulator::Simulator::serve).
#[derive(Debug)]
pub struct StreamSource {
    rx: Receiver<StreamCommand>,
}

impl StreamSource {
    /// Wraps a command receiver.
    pub fn new(rx: Receiver<StreamCommand>) -> Self {
        StreamSource { rx }
    }
}

impl EventSource for StreamSource {
    fn next_event(&mut self) -> Option<TimedEvent> {
        self.rx.recv().ok().map(StreamCommand::into_timed)
    }

    fn name(&self) -> &str {
        "stream"
    }
}

/// Stochastic disruption knobs for [`DisruptionSource`], validated by
/// [`SimulatorBuilder::disruptions`].
///
/// All sampling is driven by dedicated RNG streams derived from the
/// simulator seed, so enabling disruptions perturbs **no** legacy draw
/// (dataset generation, policy exploration): the same seed without a
/// disruption config replays exactly the legacy episode. Each knob also
/// has its own stream — changing the cancellation probability never
/// reshuffles the breakdown timeline, and vice versa.
///
/// [`SimulatorBuilder::disruptions`]: crate::simulator::SimulatorBuilder::disruptions
#[derive(Debug, Clone, PartialEq)]
pub struct DisruptionConfig {
    /// Probability that a replayed order is cancelled (per order, iid).
    pub cancellation_prob: f64,
    /// Cancellations land uniformly within `[created, created + delay]`:
    /// under buffered dispatch, delays longer than the buffering period
    /// exercise post-assignment route surgery, shorter ones the
    /// before-dispatch path.
    pub cancellation_delay: TimeDelta,
    /// Probability that a vehicle breaks down during the episode (per
    /// vehicle, iid).
    pub breakdown_prob: f64,
    /// Breakdown instants are sampled uniformly within this window.
    pub breakdown_window: (TimePoint, TimePoint),
    /// Recovery delay range after a breakdown (`None` = the vehicle never
    /// recovers this episode).
    pub recovery_delay: Option<(TimeDelta, TimeDelta)>,
}

impl Default for DisruptionConfig {
    /// A vacuous config: nothing is ever cancelled or broken.
    fn default() -> Self {
        DisruptionConfig {
            cancellation_prob: 0.0,
            cancellation_delay: TimeDelta::ZERO,
            breakdown_prob: 0.0,
            breakdown_window: (TimePoint::ZERO, TimePoint::ZERO),
            recovery_delay: None,
        }
    }
}

impl DisruptionConfig {
    /// Whether the config can never produce an event.
    pub fn is_vacuous(&self) -> bool {
        self.cancellation_prob <= 0.0 && self.breakdown_prob <= 0.0
    }

    /// Validates the knobs (probabilities in `[0, 1]`, non-negative
    /// delays, an ordered breakdown window, an ordered recovery range).
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("cancellation_prob", self.cancellation_prob),
            ("breakdown_prob", self.breakdown_prob),
        ] {
            if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if !self.cancellation_delay.is_non_negative() {
            return Err(format!(
                "cancellation_delay must be non-negative, got {} s",
                self.cancellation_delay.seconds()
            ));
        }
        let (w0, w1) = self.breakdown_window;
        if w1.seconds() < w0.seconds() {
            return Err(format!(
                "breakdown_window must be ordered, got [{}, {}]",
                w0, w1
            ));
        }
        if let Some((lo, hi)) = self.recovery_delay {
            if !lo.is_non_negative() || hi.seconds() < lo.seconds() {
                return Err(format!(
                    "recovery_delay must be an ordered non-negative range, got [{}, {}] s",
                    lo.seconds(),
                    hi.seconds()
                ));
            }
        }
        Ok(())
    }
}

/// Salt of the cancellation RNG stream (`seed ^ CANCEL_STREAM`).
const CANCEL_STREAM: u64 = 0x4341_4E43_454C_5F44;
/// Salt of the breakdown RNG stream (`seed ^ BREAK_STREAM`).
const BREAK_STREAM: u64 = 0x4252_4541_4B5F_4450;

/// Seeded stochastic disruption injector: samples an episode's
/// cancellation and breakdown/recovery events up front from an instance
/// and a [`DisruptionConfig`], then replays them as a sorted source.
///
/// Sampling draws the same number of RNG values for every order/vehicle
/// whether or not the event fires, so one entity's timeline never shifts
/// another's; the whole event list is a pure function of `(instance
/// shape, config, seed)`.
#[derive(Debug)]
pub struct DisruptionSource {
    events: std::vec::IntoIter<TimedEvent>,
}

impl DisruptionSource {
    /// Samples the disruption events for one episode.
    pub fn new(instance: &Instance, config: &DisruptionConfig, seed: u64) -> Self {
        let mut events: Vec<TimedEvent> = Vec::new();
        if config.cancellation_prob > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed ^ CANCEL_STREAM);
            let delay = config.cancellation_delay.seconds().max(0.0);
            for order in instance.orders() {
                let u = rng.random_range(0.0..1.0);
                let d = rng.random_range(0.0..=delay);
                if u < config.cancellation_prob {
                    events.push(TimedEvent {
                        time: order.created + TimeDelta::from_seconds(d),
                        event: SimEvent::OrderCancelled(order.id),
                    });
                }
            }
        }
        if config.breakdown_prob > 0.0 {
            let mut rng = StdRng::seed_from_u64(seed ^ BREAK_STREAM);
            let (w0, w1) = config.breakdown_window;
            for vehicle in &instance.fleet.vehicles {
                let u = rng.random_range(0.0..1.0);
                let t = rng.random_range(w0.seconds()..=w1.seconds());
                let r = config
                    .recovery_delay
                    .map(|(lo, hi)| rng.random_range(lo.seconds()..=hi.seconds()));
                if u < config.breakdown_prob {
                    let at = TimePoint::from_seconds(t);
                    events.push(TimedEvent {
                        time: at,
                        event: SimEvent::VehicleBreakdown(vehicle.id),
                    });
                    if let Some(delay) = r {
                        events.push(TimedEvent {
                            time: at + TimeDelta::from_seconds(delay),
                            event: SimEvent::VehicleRecovered(vehicle.id),
                        });
                    }
                }
            }
        }
        // Stable sort by (time, class rank): equal keys keep generation
        // order, so the list is deterministic.
        events.sort_by(|a, b| {
            a.time
                .seconds()
                .total_cmp(&b.time.seconds())
                .then(a.event.rank().cmp(&b.event.rank()))
        });
        DisruptionSource {
            events: events.into_iter(),
        }
    }

    /// Number of events left to emit.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the source has no events (the config was vacuous or the
    /// draws all missed).
    pub fn is_empty(&self) -> bool {
        self.events.len() == 0
    }
}

impl EventSource for DisruptionSource {
    fn next_event(&mut self) -> Option<TimedEvent> {
        self.events.next()
    }

    fn name(&self) -> &str {
        "disruptions"
    }
}

/// Deterministic k-way merge over event sources: the engine's one event
/// feed. Each source keeps one buffered head; [`EventMux::pop`] takes the
/// head with the smallest `(time, class rank, source index)` key and
/// refills it from the owning source (which may block — see
/// [`EventSource`]).
pub(crate) struct EventMux<'s> {
    sources: Vec<Box<dyn EventSource + 's>>,
    heads: Vec<Option<TimedEvent>>,
}

impl<'s> EventMux<'s> {
    /// Primes one head per source (blocking sources block here first).
    pub(crate) fn new(mut sources: Vec<Box<dyn EventSource + 's>>) -> Self {
        let heads = sources.iter_mut().map(|s| s.next_event()).collect();
        EventMux { sources, heads }
    }

    fn best(&self) -> Option<usize> {
        let mut best: Option<(f64, u8, usize)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some(ev) = head {
                let key = (ev.time.seconds(), ev.event.rank(), i);
                let better = match best {
                    None => true,
                    Some((t, r, _)) => ev
                        .time
                        .seconds()
                        .total_cmp(&t)
                        .then(ev.event.rank().cmp(&r))
                        .is_lt(),
                };
                if better {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// The time of the next event across all sources, if any.
    pub(crate) fn peek_time(&self) -> Option<TimePoint> {
        self.best().map(|i| {
            self.heads[i]
                .as_ref()
                .expect("best() only returns live heads")
                .time
        })
    }

    /// Pops the next event and refills its source's head.
    pub(crate) fn pop(&mut self) -> Option<TimedEvent> {
        let i = self.best()?;
        let event = self.heads[i].take();
        self.heads[i] = self.sources[i].next_event();
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdp_net::{FleetConfig, IntervalGrid, Node, NodeId, Point, RoadNetwork};

    fn order(id: u32, created_h: f64) -> Order {
        Order::new(
            OrderId(id),
            NodeId(1),
            NodeId(2),
            1.0,
            TimePoint::from_hours(created_h),
            TimePoint::from_hours(created_h + 4.0),
        )
        .unwrap()
    }

    fn instance(orders: Vec<Order>, vehicles: usize) -> Instance {
        let nodes = vec![
            Node::depot(NodeId(0), Point::new(0.0, 0.0)),
            Node::factory(NodeId(1), Point::new(5.0, 0.0)),
            Node::factory(NodeId(2), Point::new(10.0, 0.0)),
        ];
        let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
        let fleet = FleetConfig::homogeneous(
            vehicles,
            &[NodeId(0)],
            10.0,
            500.0,
            2.0,
            40.0,
            TimeDelta::ZERO,
        )
        .unwrap();
        Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
    }

    #[test]
    fn replay_source_emits_creation_ordered_arrivals() {
        let inst = instance(vec![order(0, 9.0), order(1, 8.0)], 1);
        let mut src = ReplaySource::new(&inst);
        let a = src.next_event().unwrap();
        let b = src.next_event().unwrap();
        assert!(src.next_event().is_none());
        assert_eq!(a.time, TimePoint::from_hours(8.0));
        assert_eq!(b.time, TimePoint::from_hours(9.0));
        assert!(matches!(a.event, SimEvent::OrderArrival(_)));
    }

    #[test]
    fn mux_merges_sources_by_time_then_rank_then_source() {
        struct Fixed(std::vec::IntoIter<TimedEvent>);
        impl EventSource for Fixed {
            fn next_event(&mut self) -> Option<TimedEvent> {
                self.0.next()
            }
        }
        let t = TimePoint::from_hours(8.0);
        let later = TimePoint::from_hours(9.0);
        let a = Fixed(
            vec![
                TimedEvent {
                    time: t,
                    event: SimEvent::OrderCancelled(OrderId(0)),
                },
                TimedEvent {
                    time: later,
                    event: SimEvent::EpochFlush,
                },
            ]
            .into_iter(),
        );
        let b = Fixed(
            vec![TimedEvent {
                time: t,
                event: SimEvent::OrderArrival(order(0, 8.0)),
            }]
            .into_iter(),
        );
        let mut mux = EventMux::new(vec![Box::new(a), Box::new(b)]);
        // Same instant: the arrival (rank 0) beats the cancellation
        // (rank 1) even though its source comes second.
        assert!(matches!(
            mux.pop().unwrap().event,
            SimEvent::OrderArrival(_)
        ));
        assert!(matches!(
            mux.pop().unwrap().event,
            SimEvent::OrderCancelled(_)
        ));
        assert_eq!(mux.peek_time(), Some(later));
        assert!(matches!(mux.pop().unwrap().event, SimEvent::EpochFlush));
        assert!(mux.pop().is_none());
        assert_eq!(mux.peek_time(), None);
    }

    #[test]
    fn disruption_source_is_deterministic_per_seed() {
        let inst = instance((0..20).map(|i| order(i, 8.0 + 0.2 * i as f64)).collect(), 6);
        let cfg = DisruptionConfig {
            cancellation_prob: 0.5,
            cancellation_delay: TimeDelta::from_minutes(30.0),
            breakdown_prob: 0.5,
            breakdown_window: (TimePoint::from_hours(8.0), TimePoint::from_hours(16.0)),
            recovery_delay: Some((TimeDelta::from_minutes(10.0), TimeDelta::from_minutes(60.0))),
        };
        let drain = |seed: u64| {
            let mut src = DisruptionSource::new(&inst, &cfg, seed);
            let mut out = Vec::new();
            while let Some(ev) = src.next_event() {
                out.push(ev);
            }
            out
        };
        let a = drain(7);
        let b = drain(7);
        let c = drain(8);
        assert_eq!(a, b, "same seed must reproduce the same event list");
        assert_ne!(a, c, "different seeds must diverge");
        assert!(!a.is_empty());
        // Sorted by time.
        for w in a.windows(2) {
            assert!(w[0].time.seconds() <= w[1].time.seconds());
        }
        // Cancellations sit inside their window.
        for ev in &a {
            if let SimEvent::OrderCancelled(oid) = ev.event {
                let created = inst.order(oid).created;
                assert!(ev.time.seconds() >= created.seconds());
                assert!(ev.time.seconds() <= created.seconds() + 1800.0 + 1e-9);
            }
        }
    }

    #[test]
    fn cancellation_knob_does_not_reshuffle_breakdowns() {
        let inst = instance((0..10).map(|i| order(i, 9.0)).collect(), 8);
        let base = DisruptionConfig {
            breakdown_prob: 0.6,
            breakdown_window: (TimePoint::from_hours(8.0), TimePoint::from_hours(16.0)),
            ..DisruptionConfig::default()
        };
        let with_cancels = DisruptionConfig {
            cancellation_prob: 0.9,
            cancellation_delay: TimeDelta::from_minutes(5.0),
            ..base.clone()
        };
        let breakdowns = |cfg: &DisruptionConfig| {
            let mut src = DisruptionSource::new(&inst, cfg, 5);
            let mut out = Vec::new();
            while let Some(ev) = src.next_event() {
                if matches!(ev.event, SimEvent::VehicleBreakdown(_)) {
                    out.push((ev.time.seconds(), ev.event.clone()));
                }
            }
            out
        };
        assert_eq!(breakdowns(&base), breakdowns(&with_cancels));
        assert!(!breakdowns(&base).is_empty());
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        let mut cfg = DisruptionConfig {
            cancellation_prob: 1.5,
            ..DisruptionConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.cancellation_prob = 0.5;
        cfg.cancellation_delay = TimeDelta::from_seconds(-1.0);
        assert!(cfg.validate().is_err());
        cfg.cancellation_delay = TimeDelta::ZERO;
        cfg.breakdown_window = (TimePoint::from_hours(2.0), TimePoint::from_hours(1.0));
        assert!(cfg.validate().is_err());
        cfg.breakdown_window = (TimePoint::ZERO, TimePoint::from_hours(1.0));
        cfg.recovery_delay = Some((TimeDelta::from_hours(2.0), TimeDelta::from_hours(1.0)));
        assert!(cfg.validate().is_err());
        cfg.recovery_delay = None;
        assert!(cfg.validate().is_ok());
        assert!(DisruptionConfig::default().is_vacuous());
        assert!(!cfg.is_vacuous());
    }
}
