//! Isolated calls into each layer's public functions, on inputs taken from
//! the owning workload's own instance. Each kernel runs in the traced run
//! of exactly one workload (the one whose inputs it uses); elsewhere its
//! metric reads 0.

use crate::harness::Outcome;
use crate::inproc::World;
use crate::spec::WORLD_SEED;
use crate::stats;
use dpdp_baselines::Baseline1;
use dpdp_core::presets::Presets;
use dpdp_data::StScorer;
use dpdp_net::{NodeId, Order, OrderId, ShardMap, TimePoint, VehicleId};
use dpdp_nn::{Graph, ParamStore, Tensor};
use dpdp_pool::ThreadPool;
use dpdp_rl::{AgentConfig, ModelKind, QNetwork, QNetworkConfig, StateBuilder, StateSnapshot};
use dpdp_routing::{simulate_schedule, sweep_best, RoutePlanner, ScheduleCache, VehicleView};
use dpdp_server::journal::JournalStore;
use dpdp_server::proto::{format_decision, parse_command, parse_server_msg};
use dpdp_server::{SessionSpec, WireDecision};
use dpdp_sim::{DecisionReason, DispatchContext, Dispatcher, Simulator, StreamCommand};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `f`. Calls are grouped into samples of
/// at least 1 ms; 30 samples, or fewer (never under 5) once half a second
/// has been spent on slow calls.
pub fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let took = t0.elapsed();
        if took >= Duration::from_millis(1) {
            break;
        }
        // Aim a little past 1 ms so most samples clear it first time.
        let scale = 1.2e6 / took.as_nanos().max(1) as f64;
        iters = ((iters as f64 * scale).ceil() as u64).max(iters + 1);
    }
    let began = Instant::now();
    let mut samples = Vec::with_capacity(30);
    while samples.len() < 30 && (samples.len() < 5 || began.elapsed() < Duration::from_millis(500))
    {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    stats::median(&samples)
}

// ---------------------------------------------------------------------
// rl / nn / data — campus workloads
// ---------------------------------------------------------------------

/// A per-order dispatcher that captures the joint states of a few
/// mid-day orders (routes are non-trivial by then) and times one
/// `StateBuilder::build` on the first, deciding like Baseline 1 throughout.
struct SnapshotProbe<'b> {
    builder: &'b StateBuilder,
    first: usize,
    want: usize,
    seen: usize,
    build_ns: f64,
    snapshots: Vec<StateSnapshot>,
    inner: Baseline1,
}

impl Dispatcher for SnapshotProbe<'_> {
    fn dispatch(&mut self, ctx: &DispatchContext<'_>) -> Option<VehicleId> {
        if self.seen == self.first {
            self.build_ns = time_ns(|| {
                black_box(self.builder.build(black_box(ctx)));
            });
        }
        if (self.first..self.first + self.want).contains(&self.seen) {
            self.snapshots.push(self.builder.build(ctx));
        }
        self.seen += 1;
        self.inner.dispatch(ctx)
    }
}

/// The agent's state builder and Q-network, rebuilt from public parts
/// with the agent's own hyper-parameters.
struct RlParts {
    builder: StateBuilder,
    qnet: QNetwork,
    store: ParamStore,
}

fn rl_parts(presets: &Presets) -> RlParts {
    let cfg = AgentConfig::new(ModelKind::StDdgn);
    let dataset = presets.dataset();
    let mut builder = StateBuilder::new(cfg.dist_scale, dataset.grid().num_intervals(), cfg.ne)
        .with_scorer(StScorer::new(dataset.grid(), dataset.factory_index()));
    builder.set_prediction(Some(presets.test_prediction(0, 4)));
    let mut store = ParamStore::new(WORLD_SEED);
    let qnet = QNetwork::new(
        &mut store,
        QNetworkConfig {
            hidden: cfg.hidden,
            heads: cfg.heads,
            levels: cfg.levels,
            graph: true,
        },
    );
    RlParts {
        builder,
        qnet,
        store,
    }
}

/// Captures `want` consecutive joint states from the middle of the
/// workload's day (K = the instance's fleet) and the median
/// `StateBuilder::build` time on the first of them.
fn capture_snapshots(world: &World, parts: &RlParts, want: usize) -> (f64, Vec<StateSnapshot>) {
    let mut probe = SnapshotProbe {
        builder: &parts.builder,
        first: world.instance.num_orders() / 2,
        want,
        seen: 0,
        build_ns: f64::NAN,
        snapshots: Vec::new(),
        inner: Baseline1,
    };
    let sim = Simulator::builder(&world.instance)
        .build()
        .expect("immediate-service simulator always builds");
    sim.run(&mut probe);
    (probe.build_ns, probe.snapshots)
}

pub fn campus_infer(world: &World, out: &mut Outcome) {
    let parts = rl_parts(&world.presets);
    let (build_ns, snapshots) = capture_snapshots(world, &parts, 1);
    let Some(snapshot) = snapshots.first() else {
        out.problem("no mid-day joint state captured for the rl kernels");
        return;
    };
    out.set("rl.snapshot_build_us", build_ns / 1e3);
    let q_ns = time_ns(|| {
        black_box(parts.qnet.q_values(&parts.store, black_box(snapshot)));
    });
    out.set("rl.q_forward_us", q_ns / 1e3);
    let predicted_ns = time_ns(|| {
        black_box(world.presets.test_prediction(0, 4));
    });
    out.set("data.predicted_std_ms", predicted_ns / 1e6);
}

pub fn campus_infer_b10(world: &World, out: &mut Outcome) {
    const BATCH: usize = 8;
    let parts = rl_parts(&world.presets);
    let (_, snapshots) = capture_snapshots(world, &parts, BATCH);
    if snapshots.len() != BATCH {
        out.problem("too few mid-day joint states captured for the batch kernel");
        return;
    }
    let ns = time_ns(|| {
        black_box(
            parts
                .qnet
                .q_values_batch(&parts.store, black_box(&snapshots), world.pool()),
        );
    });
    out.set("rl.q_forward_batch_us_per_order", ns / 1e3 / BATCH as f64);
}

/// A synthetic joint state of the `campus_train` fleet size.
fn synthetic_snapshot(k: usize, ne: usize) -> StateSnapshot {
    let features = Tensor::from_vec(k, 5, (0..k * 5).map(|i| (i as f64 * 0.17).sin()).collect());
    let neighbors = (0..k)
        .map(|i| (0..k).filter(|&j| j != i).take(ne).collect())
        .collect();
    StateSnapshot {
        features,
        feasible: vec![true; k],
        neighbors,
    }
}

pub fn campus_train(out: &mut Outcome) {
    const K: usize = 50;
    let cfg = AgentConfig::new(ModelKind::StDdgn);
    let a = Tensor::from_vec(
        K,
        cfg.hidden,
        (0..K * cfg.hidden)
            .map(|i| (i as f64 * 0.31).cos())
            .collect(),
    );
    let b = Tensor::from_vec(
        cfg.hidden,
        cfg.hidden,
        (0..cfg.hidden * cfg.hidden)
            .map(|i| (i as f64 * 0.13).sin())
            .collect(),
    );
    let matmul_ns = time_ns(|| {
        black_box(black_box(&a).matmul(black_box(&b)));
    });
    out.set("nn.matmul_fwd_us", matmul_ns / 1e3);

    let mut store = ParamStore::new(0);
    let qnet = QNetwork::new(
        &mut store,
        QNetworkConfig {
            hidden: cfg.hidden,
            heads: cfg.heads,
            levels: cfg.levels,
            graph: true,
        },
    );
    let snapshot = synthetic_snapshot(K, cfg.ne);
    // One training-shaped pass over a Q-net graph: forward, a scalar
    // loss, backward into the parameter gradients.
    let backward_ns = time_ns(|| {
        let mut g = Graph::new();
        let q = qnet.forward(&mut g, &store, &snapshot);
        let loss = g.sum_all(q);
        g.backward(loss, &mut store);
        store.zero_grads();
    });
    out.set("nn.backward_us", backward_ns / 1e3);
}

// ---------------------------------------------------------------------
// routing / pool — metro_b1
// ---------------------------------------------------------------------

/// Grows one vehicle's route to `stops` stops by planning the instance's
/// orders into it in creation order, and picks a probe order the grown
/// route can still take.
fn grow_route(world: &World, stops: usize) -> Option<(VehicleView, Order)> {
    let inst = &world.instance;
    let planner = RoutePlanner::new(&inst.network, &inst.fleet, inst.orders());
    let vehicle = inst.fleet.vehicles.first()?;
    let mut view = VehicleView::idle_at_depot(vehicle.id, vehicle.depot);
    let mut orders = inst.orders().iter();
    for order in orders.by_ref() {
        if view.route.len() >= stops {
            break;
        }
        if let Some(best) = planner.plan(&view, order).best {
            view.route = best.candidate.route;
            view.used = true;
        }
    }
    let probe = orders.find(|o| planner.plan(&view, o).feasible())?;
    (view.route.len() >= stops).then_some((view, probe.clone()))
}

pub fn metro(world: &World, out: &mut Outcome) {
    let inst = &world.instance;
    let (net, fleet, orders) = (&inst.network, &inst.fleet, inst.orders());
    let Some((view, probe)) = grow_route(world, 16) else {
        out.problem("could not grow a 16-stop route for the routing kernels");
        return;
    };
    let planner = RoutePlanner::new(net, fleet, orders);
    let mut cache = ScheduleCache::build(&view, net, fleet, orders);
    let ns = time_ns(|| cache.rebuild(black_box(&view), net, fleet, orders));
    out.set("routing.cache_rebuild_ns", ns);
    let ns = time_ns(|| {
        black_box(sweep_best(
            &cache,
            &view,
            black_box(&probe),
            net,
            fleet,
            orders,
        ));
    });
    out.set("routing.sweep_best_ns", ns);
    let ns = time_ns(|| {
        black_box(planner.plan(black_box(&view), black_box(&probe)));
    });
    out.set("routing.plan_ns", ns);
    let ns = time_ns(|| {
        black_box(simulate_schedule(&view, black_box(&view.route), net, fleet, orders).is_ok());
    });
    out.set("routing.simulate_schedule_ns", ns);
    let ns = time_ns(|| {
        black_box(planner.provably_infeasible(black_box(&view), black_box(&probe)));
    });
    out.set("routing.provably_infeasible_ns", ns);

    // 256 no-op slots: what a small epoch pays for fanning out at all.
    for (name, width) in [
        ("pool.par_map_overhead_us_w1", 1),
        ("pool.par_map_overhead_us_w2", 2),
    ] {
        let pool = ThreadPool::new(width);
        let ns = time_ns(|| {
            black_box(pool.par_map(256, |i| i));
        });
        out.set(name, ns / 1e3);
    }
    let pool = ThreadPool::new(2);
    let ns = time_ns(|| pool.scope(|s| s.spawn(|| {})));
    out.set("pool.scope_spawn_us", ns / 1e3);
}

// ---------------------------------------------------------------------
// net / data — megacity_b1
// ---------------------------------------------------------------------

pub fn megacity(world: &World, seed: u64, out: &mut Outcome) {
    let inst = &world.instance;
    let net = &inst.network;
    let targets: Vec<NodeId> = net.nodes().iter().map(|n| n.id).collect();
    let mut dists = vec![0.0; targets.len()];
    let ns = time_ns(|| net.distances_from(targets[0], black_box(&targets), &mut dists));
    out.set("net.distances_from_ns_per_elem", ns / targets.len() as f64);
    let mut secs = vec![0.0; dists.len()];
    let ns = time_ns(|| inst.fleet.travel_times_secs(black_box(&dists), &mut secs));
    out.set("net.travel_times_ns_per_elem", ns / dists.len() as f64);

    // The partition the workload's own ShardConfig builds, and its
    // demand-weighted re-seed (what a re-partition epoch pays).
    let sharding = world.sharding();
    let (cells, policy) = (sharding.num_shards(), sharding.policy());
    let ns = time_ns(|| {
        black_box(ShardMap::build(net, cells, policy, seed));
    });
    out.set("net.shardmap_build_ms", ns / 1e6);
    let mut weights = vec![0.0; net.num_nodes()];
    for order in inst.orders() {
        weights[order.pickup.index()] += order.quantity;
    }
    let ns = time_ns(|| {
        black_box(ShardMap::build_weighted(net, cells, policy, seed, &weights));
    });
    out.set("net.shardmap_build_weighted_ms", ns / 1e6);

    let dataset = world.presets.dataset();
    let day = dataset.config().train_days.start;
    let ns = time_ns(|| {
        black_box(dataset.day_orders(day));
    });
    out.set("data.generate_day_ms", ns / 1e6);
    let (orders, vehicles) = (inst.num_orders(), inst.num_vehicles());
    let ns = time_ns(|| {
        black_box(world.presets.megacity_instance(orders, vehicles, 1));
    });
    out.set("data.sampled_instance_ms", ns / 1e6);
}

// ---------------------------------------------------------------------
// server — serve_closed / serve_journal
// ---------------------------------------------------------------------

fn sample_order() -> Order {
    Order::new(
        OrderId(0),
        NodeId(3),
        NodeId(7),
        3.0,
        TimePoint::from_seconds(30_000.0),
        TimePoint::from_seconds(51_600.0),
    )
    .expect("a valid sample order")
}

pub fn server_codec(out: &mut Outcome) {
    let order_line = "ORDER 3 7 3 30000 51600";
    let ns = time_ns(|| {
        black_box(parse_command(black_box(order_line)).is_ok());
    });
    out.set("server.parse_command_ns", ns);
    let decision = WireDecision {
        order: OrderId(12_345),
        vehicle: Some(VehicleId(5)),
        reason: DecisionReason::Assigned,
        time_s: 30_000.0,
    };
    let ns = time_ns(|| {
        black_box(format_decision(black_box(&decision)));
    });
    out.set("server.format_decision_ns", ns);
    let decision_line = format_decision(&decision);
    let ns = time_ns(|| {
        black_box(parse_server_msg(black_box(&decision_line)).is_ok());
    });
    out.set("server.parse_server_msg_ns", ns);
}

/// `Journal::append` of one `ORDER` command: in memory when `dir` is
/// `None`, mirrored to (and flushed into) a file under `dir` otherwise.
pub fn journal_append_ns(dir: Option<&Path>) -> Option<f64> {
    let store = JournalStore::new(dir.map(Path::to_path_buf));
    let journal = store
        .open(SessionSpec {
            tenant: "ledger-kernel".to_string(),
            preset: "ring12".to_string(),
            seed: 0,
            policy: "baseline1".to_string(),
            buffer_mins: 0.0,
            shards: None,
        })
        .ok()?;
    let order = sample_order();
    let ns = {
        let mut journal = journal.lock().ok()?;
        time_ns(|| {
            journal.append(StreamCommand::Order(order.clone()));
            // Keep the in-memory log from growing across a million appends.
            if journal.commands.len() >= 4096 {
                journal.commands.clear();
            }
        })
    };
    store.finish("ledger-kernel");
    Some(ns)
}
