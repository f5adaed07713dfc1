//! Route-planner microbenchmarks: insertion evaluation (Algorithm 2)
//! throughput as a function of route length — naive O(n³) reference vs the
//! incremental O(n²) prefix/suffix-cached evaluator, the SoA schedule
//! cache vs the retained AoS reference layout, and the batched
//! distance-row kernels vs per-call matrix reads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpdp_bench::{insertion_fixture, insertion_fixture_with_probes};
use dpdp_core::prelude::*;
use dpdp_routing::{
    sweep_best, sweep_best_aos, AosScheduleCache, PlannerMode, RoutePlanner, ScheduleCache,
    VehicleView,
};
use dpdp_sim::Simulator;

/// Builds a view whose route already carries `orders_on_route` orders by
/// replaying a greedy single-vehicle run.
fn loaded_view(instance: &Instance, orders_on_route: usize) -> VehicleView {
    let conf = &instance.fleet.vehicles[0];
    let mut view = VehicleView::idle_at_depot(conf.id, conf.depot);
    let planner = RoutePlanner::new(&instance.network, &instance.fleet, instance.orders());
    for order in instance.orders().iter().take(orders_on_route) {
        if let Some(best) = planner.plan(&view, order).best {
            view.route = best.candidate.route;
            view.used = true;
        }
    }
    view
}

fn bench_insertion(c: &mut Criterion) {
    let presets = Presets::quick();
    let instance = presets.tiny_instance(10, 3);
    let planner = RoutePlanner::new(&instance.network, &instance.fleet, instance.orders());
    let probe = &instance.orders()[9];

    let mut group = c.benchmark_group("route_planner");
    for &n in &[0usize, 2, 4, 8] {
        let view = loaded_view(&instance, n);
        group.bench_with_input(
            BenchmarkId::new("best_insertion_orders", n),
            &view,
            |b, view| b.iter(|| std::hint::black_box(planner.plan(view, probe))),
        );
    }
    group.finish();
}

/// Head-to-head: the naive enumerate-and-resimulate reference vs the
/// incremental evaluator on the same loose ring fixture, route lengths
/// n = 4, 8, 16 and 32 stops. The acceptance bar for this PR is >= 3x at
/// n = 16 (the real gap grows with n; the CI bench-smoke job gates on the
/// wall times archived by the `table1` binary).
fn bench_naive_vs_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("insertion_sweep");
    for &orders_on_route in &[2usize, 4, 8, 16] {
        let (instance, view) = insertion_fixture(orders_on_route);
        let probe = instance.orders().last().unwrap();
        let n = 2 * orders_on_route;
        let incremental = RoutePlanner::new(&instance.network, &instance.fleet, instance.orders());
        let naive = RoutePlanner::with_mode(
            &instance.network,
            &instance.fleet,
            instance.orders(),
            PlannerMode::Naive,
        );
        group.bench_with_input(BenchmarkId::new("incremental", n), &view, |b, view| {
            b.iter(|| std::hint::black_box(incremental.plan(view, probe)))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &view, |b, view| {
            b.iter(|| std::hint::black_box(naive.plan(view, probe)))
        });
    }
    group.finish();
}

/// Head-to-head on the epoch-shaped `B × K` workload (cache rebuild + ten
/// distinct probe sweeps): the SoA [`ScheduleCache`] sweep vs the retained
/// AoS reference layout. Bit-identical winners by construction (the parity
/// suites assert it); this group tracks the layout's wall-time edge — the
/// SoA path reads its persisted base-leg tables where the AoS walk
/// re-derives each leg with a matrix read and a division.
fn bench_soa_vs_aos_sweep(c: &mut Criterion) {
    const B: usize = 10;
    let mut group = c.benchmark_group("soa_vs_aos_sweep");
    for &orders_on_route in &[4usize, 8, 16] {
        let (instance, view) = insertion_fixture_with_probes(orders_on_route, B);
        let net = &instance.network;
        let fleet = &instance.fleet;
        let orders = instance.orders();
        let probes: Vec<_> = orders.iter().rev().take(B).collect();
        let n = 2 * orders_on_route;
        group.bench_with_input(BenchmarkId::new("soa", n), &view, |b, view| {
            let mut cache = ScheduleCache::default();
            b.iter(|| {
                cache.rebuild(view, net, fleet, orders);
                for probe in &probes {
                    std::hint::black_box(sweep_best(&cache, view, probe, net, fleet, orders));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("aos", n), &view, |b, view| {
            b.iter(|| {
                let cache = AosScheduleCache::build(view, net, fleet, orders);
                for probe in &probes {
                    std::hint::black_box(sweep_best_aos(&cache, view, probe, net, fleet, orders));
                }
            })
        });
    }
    group.finish();
}

/// The batched distance/travel-time row kernels vs an equivalent loop of
/// per-call matrix reads: one row of `d(anchor, target_i)` plus its
/// travel-time conversion, the exact shape `plan_sweep` fills per anchor
/// slot. Bit-identical outputs; the kernels amortize index arithmetic and
/// bounds checks and keep the divisions in one pipelined loop.
fn bench_batched_distance_row(c: &mut Criterion) {
    let (instance, _) = insertion_fixture(8);
    let net = &instance.network;
    let fleet = &instance.fleet;
    let nodes = net.nodes();
    let anchor = nodes[0].id;
    let mut group = c.benchmark_group("batched_distance_row");
    for &width in &[16usize, 64, 256] {
        let targets: Vec<_> = (0..width).map(|i| nodes[i % nodes.len()].id).collect();
        let mut dist = vec![0.0; width];
        let mut tt = vec![dpdp_net::TimeDelta::ZERO; width];
        group.bench_with_input(
            BenchmarkId::new("batched", width),
            &targets,
            |b, targets| {
                b.iter(|| {
                    net.distances_from(anchor, targets, &mut dist);
                    fleet.travel_times(&dist, &mut tt);
                    std::hint::black_box((&dist, &tt));
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("per_call", width),
            &targets,
            |b, targets| {
                b.iter(|| {
                    for (i, &t) in targets.iter().enumerate() {
                        dist[i] = net.distance(anchor, t);
                        tt[i] = fleet.travel_time(dist[i]);
                    }
                    std::hint::black_box((&dist, &tt));
                })
            },
        );
    }
    group.finish();
}

fn bench_episode_planning(c: &mut Criterion) {
    let presets = Presets::quick();
    let instance = presets.tiny_instance(10, 3);
    c.bench_function("simulate_10_orders_baseline1", |b| {
        b.iter(|| {
            let mut b1 = Baseline1;
            std::hint::black_box(Simulator::builder(&instance).build().unwrap().run(&mut b1))
        })
    });
}

criterion_group!(
    benches,
    bench_insertion,
    bench_naive_vs_incremental,
    bench_soa_vs_aos_sweep,
    bench_batched_distance_row,
    bench_episode_planning
);
criterion_main!(benches);
