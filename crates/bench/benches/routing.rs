//! Route-planner microbenchmarks: insertion evaluation (Algorithm 2)
//! throughput as a function of route length, and the batched distance-row
//! kernels vs per-call matrix reads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpdp_bench::insertion_fixture;
use dpdp_core::prelude::*;
use dpdp_routing::{RoutePlanner, VehicleView};
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
    bench_batched_distance_row,
    bench_episode_planning
);
criterion_main!(benches);
