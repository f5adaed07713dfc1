//! Neural-network benchmarks: ST-DDGN Q-network forward and
//! forward+backward at fleet scale, with and without the graph pathway
//! (quantifying the cost of neighbourhood attention), and the campus-fleet
//! (K = 100) `q_values` forward the perf ledger's `rl.q_forward_us` times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpdp_nn::{Graph, ParamStore, Tensor};
use dpdp_rl::{QNetwork, QNetworkConfig, StateSnapshot};

fn snapshot(k: usize, ne: usize) -> StateSnapshot {
    let features = Tensor::from_vec(k, 5, (0..k * 5).map(|i| (i as f64 * 0.17).sin()).collect());
    let neighbors = (0..k)
        .map(|i| {
            let mut v = vec![i];
            v.extend((0..k).filter(|&j| j != i).take(ne - 1));
            v
        })
        .collect();
    StateSnapshot {
        features,
        feasible: vec![true; k],
        neighbors,
    }
}

fn bench_qnet(c: &mut Criterion) {
    let mut group = c.benchmark_group("qnet");
    group.sample_size(20);
    for &(k, graph) in &[(50usize, true), (50, false), (150, true)] {
        let mut store = ParamStore::new(0);
        let net = QNetwork::new(
            &mut store,
            QNetworkConfig {
                hidden: 32,
                heads: 4,
                levels: 2,
                graph,
            },
        );
        let snap = snapshot(k, 8);
        let label = format!("K{k}_graph{graph}");
        group.bench_with_input(BenchmarkId::new("forward", &label), &snap, |b, snap| {
            b.iter(|| std::hint::black_box(net.q_values(&store, snap)))
        });
        group.bench_with_input(
            BenchmarkId::new("forward_backward", &label),
            &snap,
            |b, snap| {
                b.iter(|| {
                    let mut store2 = store.clone();
                    let mut g = Graph::new();
                    let q = net.forward(&mut g, &store2, snap);
                    let loss = g.sum_all(q);
                    g.backward(loss, &mut store2);
                    std::hint::black_box(store2.grad(dpdp_nn::ParamId(0)).norm())
                })
            },
        );
    }
    group.finish();
}

/// One ST-DDGN decision's forward at the campus fleet size, on a throwaway
/// tape (`q_values`) and across a batch of eight (`q_values_batch`).
fn bench_q_values_k100(c: &mut Criterion) {
    let mut group = c.benchmark_group("q_values_k100");
    group.sample_size(50);
    let mut store = ParamStore::new(7);
    let net = QNetwork::new(&mut store, QNetworkConfig::default());
    let snap = snapshot(100, 8);
    group.bench_function("one", |b| {
        b.iter(|| std::hint::black_box(net.q_values(&store, &snap)))
    });
    let batch = vec![snap; 8];
    let pool = std::sync::Arc::new(dpdp_pool::ThreadPool::new(1));
    group.bench_function("batch_of_8", |b| {
        b.iter(|| std::hint::black_box(net.q_values_batch(&store, &batch, &pool)))
    });
    group.finish();
}

criterion_group!(benches, bench_qnet, bench_q_values_k100);
criterion_main!(benches);
