//! The agent's own stages in the epoch profile: `Snapshot`, `Partition`
//! and `Forward`, charged through the dispatch context's timer, nested in
//! `Policy`. Profiling an ST-DDGN evaluation episode changes none of its
//! decisions, charges one forward per greedy decision that had a feasible
//! vehicle, and leaves every epoch's stages summing to its wall time.

use dpdp_data::{FactoryIndex, StScorer, StdMatrix};
use dpdp_net::{
    FleetConfig, Instance, IntervalGrid, Node, NodeId, Order, OrderId, Point, RoadNetwork,
    TimeDelta, TimePoint,
};
use dpdp_rl::{AgentConfig, DqnAgent, ModelKind};
use dpdp_sim::{
    BufferingMode, DecisionRecord, EpochInfo, EpochProfile, FleetRecord, SimObserver, Simulator,
    Stage,
};
use std::time::Instant;

const FACTORIES: [NodeId; 3] = [NodeId(2), NodeId(3), NodeId(4)];

/// Sixteen vehicles at two depots, eighteen orders; every sixth one is due
/// a minute after it is placed, so no vehicle can take it.
fn instance() -> Instance {
    let nodes = vec![
        Node::depot(NodeId(0), Point::new(0.0, 0.0)),
        Node::depot(NodeId(1), Point::new(24.0, 0.0)),
        Node::factory(NodeId(2), Point::new(6.0, 4.0)),
        Node::factory(NodeId(3), Point::new(13.0, -3.0)),
        Node::factory(NodeId(4), Point::new(19.0, 5.0)),
    ];
    let net = RoadNetwork::euclidean(nodes, 1.0).unwrap();
    let depots = [NodeId(0), NodeId(1)];
    let fleet =
        FleetConfig::homogeneous(16, &depots, 10.0, 300.0, 2.0, 40.0, TimeDelta::ZERO).unwrap();
    let orders = (0..18u32)
        .map(|i| {
            let created = TimePoint::from_hours(8.0 + f64::from(i) * 0.1);
            let due = if i % 6 == 5 {
                TimeDelta::from_minutes(1.0)
            } else {
                TimeDelta::from_hours(4.0)
            };
            Order::new(
                OrderId(i),
                FACTORIES[i as usize % 3],
                FACTORIES[(i as usize + 1) % 3],
                2.0,
                created,
                created + due,
            )
            .unwrap()
        })
        .collect();
    Instance::new(net, fleet, IntervalGrid::paper_default(), orders).unwrap()
}

/// ST-DDGN in evaluation mode, the day's own demand as its prediction.
fn agent(instance: &Instance) -> DqnAgent {
    let grid = IntervalGrid::paper_default();
    let index = FactoryIndex::new(&FACTORIES);
    let predicted = StdMatrix::from_orders(instance.orders(), &grid, &index);
    let mut agent = DqnAgent::new(
        AgentConfig::new(ModelKind::StDdgn),
        144,
        Some(StScorer::new(grid, index)),
    );
    agent.set_prediction(Some(predicted));
    agent.set_training(false);
    agent
}

/// One profiled epoch: its profile, its orders and acceptances, and the
/// wall time it must fit — at least from `on_epoch` to its profile, at
/// most from the previous epoch's `on_fleet` (or the episode's start).
struct Epoch {
    profile: EpochProfile,
    orders: u64,
    assigned: u64,
    inner_nanos: u128,
    outer_nanos: u128,
}

#[derive(Default)]
struct Profiles {
    epochs: Vec<Epoch>,
    /// When the running epoch can have started at the earliest, and when
    /// its `on_epoch` came.
    last_fleet: Option<Instant>,
    opened: Option<Instant>,
    orders: u64,
    assigned: u64,
}

impl SimObserver for Profiles {
    fn on_episode_begin(&mut self, _instance: &Instance) {
        self.last_fleet = Some(Instant::now());
    }

    fn on_epoch(&mut self, epoch: &EpochInfo) {
        self.opened = Some(Instant::now());
        self.orders = epoch.num_orders as u64;
        self.assigned = 0;
    }

    fn on_decision(&mut self, record: &DecisionRecord<'_>) {
        self.assigned += u64::from(record.decision.is_assigned());
    }

    fn wants_profile(&self) -> bool {
        true
    }

    fn on_epoch_profile(&mut self, profile: &EpochProfile) {
        let now = Instant::now();
        let since = |at: Option<Instant>| now.duration_since(at.unwrap()).as_nanos();
        self.epochs.push(Epoch {
            profile: *profile,
            orders: self.orders,
            assigned: self.assigned,
            inner_nanos: since(self.opened),
            outer_nanos: since(self.last_fleet),
        });
    }

    fn on_fleet(&mut self, _record: &FleetRecord<'_>) {
        self.last_fleet = Some(Instant::now());
    }
}

#[test]
fn profiled_evaluation_episodes_charge_the_agents_stages() {
    let instance = instance();
    for buffering in [
        BufferingMode::Immediate,
        BufferingMode::FixedInterval(TimeDelta::from_minutes(30.0)),
    ] {
        let sim = Simulator::builder(&instance)
            .buffering(buffering)
            .build()
            .unwrap();
        let mut plain = agent(&instance);
        let unprofiled = sim.run(&mut plain);
        let mut profiled_agent = agent(&instance);
        let mut profiles = Profiles::default();
        let profiled = sim.run_observed(&mut profiled_agent, &mut [&mut profiles]);
        assert_eq!(profiled, unprofiled, "{buffering:?}");
        assert_eq!(profiled_agent.forward_stats(), plain.forward_stats());

        // Non-vacuous: some orders found no feasible vehicle, the others
        // were all taken, and some epoch held several orders when buffered.
        let (served, orders) = (profiled.metrics.served, instance.num_orders());
        assert!(0 < served && served < orders, "{served} of {orders}");
        assert_eq!(
            profiles.epochs.iter().map(|e| e.assigned).sum::<u64>(),
            served as u64
        );
        if buffering != BufferingMode::Immediate {
            assert!(profiles.epochs.iter().any(|e| e.orders > 1));
        }
        let mut forwards = 0;
        for (at, epoch) in profiles.epochs.iter().enumerate() {
            let p = &epoch.profile;
            // One joint state per order shown, one partition and one
            // forward per greedy decision that had a vehicle to choose.
            assert_eq!(p.calls(Stage::Snapshot), epoch.orders, "epoch {at}");
            assert_eq!(p.calls(Stage::Materialise), epoch.orders, "epoch {at}");
            assert_eq!(p.calls(Stage::Partition), epoch.assigned, "epoch {at}");
            assert_eq!(p.calls(Stage::Forward), epoch.assigned, "epoch {at}");
            forwards += p.calls(Stage::Forward);
            // The stages tile the epoch: nested charges are not counted
            // twice.
            let sum: u128 = Stage::ALL.iter().map(|&s| u128::from(p.nanos(s))).sum();
            assert!(
                epoch.inner_nanos <= sum && sum <= epoch.outer_nanos,
                "epoch {at}: stages sum to {sum} ns, wall time between {} and {} ns",
                epoch.inner_nanos,
                epoch.outer_nanos
            );
        }
        assert_eq!(forwards, profiled_agent.forward_stats().forwards);
    }
}
