use super::*;
use dpdp_nn::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

fn snapshot(k: usize, feasible: Vec<bool>) -> StateSnapshot {
    let features = Tensor::from_vec(
        k,
        STATE_DIM,
        (0..k * STATE_DIM)
            .map(|i| (i as f64 * 0.13).sin())
            .collect(),
    );
    let neighbors = (0..k)
        .map(|i| (0..k).filter(|&j| j != i).take(3).collect())
        .collect();
    StateSnapshot {
        features,
        feasible,
        neighbors,
    }
}

#[test]
fn forward_shapes_with_and_without_graph() {
    for graph in [true, false] {
        let mut store = ParamStore::new(0);
        let net = QNetwork::new(
            &mut store,
            QNetworkConfig {
                hidden: 8,
                heads: 2,
                levels: 2,
                graph,
            },
        );
        let snap = snapshot(4, vec![true; 4]);
        let mut g = Graph::new();
        let q = net.forward(&mut g, &store, &snap);
        assert_eq!(g.value(q).shape(), (4, 1));
    }
}

#[test]
fn infeasible_vehicles_masked_in_q_values() {
    let mut store = ParamStore::new(1);
    let net = QNetwork::new(&mut store, QNetworkConfig::default());
    let snap = snapshot(3, vec![true, false, true]);
    let q = net.q_values(&store, &snap);
    assert_eq!(q.len(), 3);
    assert_eq!(q[1], f64::NEG_INFINITY);
    assert!(q[0].is_finite() && q[2].is_finite());
    let a = net.greedy_action(&store, &snap).unwrap();
    assert_ne!(a, 1);
}

#[test]
fn no_feasible_vehicle_yields_no_action() {
    let mut store = ParamStore::new(2);
    let net = QNetwork::new(&mut store, QNetworkConfig::default());
    let snap = snapshot(2, vec![false, false]);
    assert_eq!(net.greedy_action(&store, &snap), None);
}

#[test]
fn gradients_flow_through_both_pathways() {
    let mut store = ParamStore::new(3);
    let net = QNetwork::new(
        &mut store,
        QNetworkConfig {
            hidden: 8,
            heads: 2,
            levels: 1,
            graph: true,
        },
    );
    let snap = snapshot(3, vec![true; 3]);
    let mut g = Graph::new();
    let q = net.forward(&mut g, &store, &snap);
    let loss = g.sum_all(q);
    g.backward(loss, &mut store);
    let live = (0..store.len())
        .filter(|&i| store.grad(dpdp_nn::ParamId(i)).norm() > 0.0)
        .count();
    assert!(
        live as f64 >= store.len() as f64 * 0.8,
        "only {live}/{} params received gradient",
        store.len()
    );
}

#[test]
fn attention_context_excludes_infeasible_neighbors() {
    // Changing an infeasible neighbour's features must not change a
    // feasible vehicle's Q-value.
    let mut store = ParamStore::new(4);
    let net = QNetwork::new(
        &mut store,
        QNetworkConfig {
            hidden: 8,
            heads: 2,
            levels: 1,
            graph: true,
        },
    );
    let mut snap = snapshot(3, vec![true, false, true]);
    let q1 = net.q_values(&store, &snap);
    // Perturb the infeasible vehicle's features wildly.
    for c in 0..STATE_DIM {
        *snap.features.get_mut(1, c) = 1000.0;
    }
    let q2 = net.q_values(&store, &snap);
    assert!((q1[0] - q2[0]).abs() < 1e-9, "{} vs {}", q1[0], q2[0]);
    assert!((q1[2] - q2[2]).abs() < 1e-9);
}

fn graph_net(seed: u64, levels: usize) -> (QNetwork, ParamStore) {
    let mut store = ParamStore::new(seed);
    let config = QNetworkConfig {
        hidden: 8,
        heads: 2,
        levels,
        graph: true,
    };
    (QNetwork::new(&mut store, config), store)
}

fn state(rows: &[[f64; STATE_DIM]], feasible: &[bool], neighbors: &[&[usize]]) -> StateSnapshot {
    let rows: Vec<&[f64]> = rows.iter().map(|r| &r[..]).collect();
    StateSnapshot {
        features: Tensor::from_rows(&rows),
        feasible: feasible.to_vec(),
        neighbors: neighbors.iter().map(|n| n.to_vec()).collect(),
    }
}

/// Asserts that the partitioned Q-values are the dense forward's, bit
/// for bit, and returns how many rows each put on the tape.
fn assert_dense_parity(net: &QNetwork, store: &ParamStore, snap: &StateSnapshot) -> ForwardStats {
    let mut tape = Graph::new();
    let dense = net.forward(&mut tape, store, snap);
    let dense = tape.value(dense).data().to_vec();
    let mut part = Partition::default();
    let q = net.q_values_on(&mut tape, &mut part, store, snap);
    assert_eq!(q.len(), snap.num_vehicles());
    for (v, (&q, &dense)) in q.iter().zip(&dense).enumerate() {
        if snap.feasible[v] {
            assert_eq!(q.to_bits(), dense.to_bits(), "vehicle {v}: {q} vs {dense}");
        } else {
            assert_eq!(q, f64::NEG_INFINITY, "vehicle {v}");
        }
    }
    part.stats()
}

const A: [f64; STATE_DIM] = [0.3, 0.7, 0.1, 0.0, 0.5];
const B: [f64; STATE_DIM] = [0.9, 1.4, -0.2, 1.0, 0.5];
const C: [f64; STATE_DIM] = [0.1, 0.2, 0.6, 1.0, 0.5];

#[test]
fn canonical_lists_are_sorted_and_deduplicated() {
    // Unsorted, with repeats, with and without the vehicle itself;
    // vehicle 3 is infeasible, so only its own list names it.
    let snap = state(
        &[A; 4],
        &[true, true, true, false],
        &[&[2, 0, 3, 2, 1], &[], &[1, 1, 3], &[0, 0]],
    );
    let mut part = Partition::default();
    part.canonical_lists(&snap);
    let lists: Vec<&[usize]> = (0..4)
        .map(|v| list_of(&part.bounds, &part.flat, v))
        .collect();
    assert_eq!(lists, [&[0, 1, 2][..], &[1], &[1, 2], &[0, 3]]);
}

#[test]
fn twins_share_a_row_and_edge_cases_hold() {
    let (net, store) = graph_net(5, 2);
    // Nine parked twins attending to each other: one row.
    let ring: Vec<Vec<usize>> = (0..9).map(|v| vec![(v + 1) % 9, (v + 4) % 9]).collect();
    let ring: Vec<&[usize]> = ring.iter().map(|l| &l[..]).collect();
    let stats = assert_dense_parity(&net, &store, &state(&[A; 9], &[true; 9], &ring));
    assert_eq!((stats.rows, stats.feasible, stats.evaluated), (9, 9, 1));
    // K = 1.
    let stats = assert_dense_parity(&net, &store, &state(&[B], &[true], &[&[0]]));
    assert_eq!((stats.rows, stats.feasible, stats.evaluated), (1, 1, 1));
    // Nobody feasible: nothing is evaluated.
    let stats = assert_dense_parity(&net, &store, &state(&[A, B], &[false; 2], &[&[1], &[0]]));
    assert_eq!(
        stats,
        ForwardStats {
            forwards: 1,
            rows: 2,
            feasible: 0,
            evaluated: 0
        }
    );
    // Every row distinct: every feasible row is evaluated.
    let stats = assert_dense_parity(&net, &store, &snapshot(7, vec![true; 7]));
    assert_eq!((stats.feasible, stats.evaluated), (7, 7));
}

/// Equal features, but vehicle 1 attends to one feasible vehicle more.
#[test]
fn key_holds_the_neighbour_list() {
    let (net, store) = graph_net(6, 1);
    let snap = state(&[A, A, B, C], &[true; 4], &[&[2], &[2, 3], &[], &[]]);
    let stats = assert_dense_parity(&net, &store, &snap);
    assert_eq!(stats.evaluated, 4);
}

/// Vehicles 1 and 3 have equal features and attend to the same
/// multiset of classes — themselves, a `B` and a `C` — but by vehicle
/// index vehicle 1 meets them as `B, self, C` and vehicle 3 as
/// `C, self, B`: different summation orders, different classes.
#[test]
fn key_holds_the_order_of_the_neighbours() {
    let (net, store) = graph_net(7, 1);
    let snap = state(
        &[B, A, C, A, B],
        &[true; 5],
        &[&[], &[0, 2], &[], &[2, 4], &[]],
    );
    let stats = assert_dense_parity(&net, &store, &snap);
    assert_eq!(stats.evaluated, 4);
}

/// The second attention level reads what the first made of the
/// neighbours: vehicles 0 and 1 agree on features and on their
/// neighbours' features, but vehicle 1's neighbour has a neighbour.
#[test]
fn key_is_refined_once_per_level() {
    let snap = state(&[A, A, B, B, C], &[true; 5], &[&[2], &[3], &[], &[4], &[]]);
    let (net, store) = graph_net(8, 2);
    assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 5);
    // One level never looks that far.
    let (net, store) = graph_net(8, 1);
    assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 4);
}

#[test]
fn key_holds_every_feature_bit() {
    let (net, store) = graph_net(9, 1);
    // Only the `used` flag differs.
    let mut used = A;
    used[3] = 1.0;
    let snap = state(&[A, used], &[true; 2], &[&[], &[]]);
    assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 2);
    // Only the sign of a zero differs.
    let mut negative = A;
    negative[3] = -0.0;
    let snap = state(&[A, negative], &[true; 2], &[&[], &[]]);
    assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 2);
}

/// Vehicles 0 and 1 are twins although vehicle 1 lists the infeasible
/// vehicle 2: it takes no part in anyone's inference.
#[test]
fn infeasible_neighbour_changes_no_class() {
    let (net, store) = graph_net(10, 2);
    let snap = state(
        &[A, A, B, C],
        &[true, true, false, true],
        &[&[3], &[3, 2], &[0], &[]],
    );
    let stats = assert_dense_parity(&net, &store, &snap);
    assert_eq!((stats.feasible, stats.evaluated), (3, 2));
}

/// The ablations without the graph pathway group by features alone,
/// whatever the neighbour lists say.
#[test]
fn plain_network_groups_by_features() {
    let mut store = ParamStore::new(11);
    let config = QNetworkConfig {
        graph: false,
        ..QNetworkConfig::default()
    };
    let net = QNetwork::new(&mut store, config);
    let snap = state(&[A, A, B, A], &[true; 4], &[&[2], &[3], &[], &[0, 1, 2]]);
    assert_eq!(assert_dense_parity(&net, &store, &snap).evaluated, 2);
}

/// A random fleet drawn from few prototypes, so that twins are
/// common: 1–64 vehicles over 1–6 feature rows and 1–4 neighbour
/// lists (unsorted, with repeats, 0–12 entries against an `NE` of 8,
/// sometimes naming the vehicle itself), about one vehicle in ten
/// infeasible.
fn random_fleet(rng: &mut StdRng) -> StateSnapshot {
    let k = rng.random_range(1..=64usize);
    let rows: Vec<[f64; STATE_DIM]> = (0..rng.random_range(1..=6usize))
        .map(|_| std::array::from_fn(|_| rng.random_range(0..=16usize) as f64 / 4.0 - 2.0))
        .collect();
    let lists: Vec<Vec<usize>> = (0..rng.random_range(1..=4usize))
        .map(|_| {
            let len = rng.random_range(0..=12usize);
            (0..len).map(|_| rng.random_range(0..k)).collect()
        })
        .collect();
    let mut features = Vec::with_capacity(k * STATE_DIM);
    let mut neighbors = Vec::with_capacity(k);
    for v in 0..k {
        features.extend(rows[rng.random_range(0..rows.len())]);
        let mut list = lists[rng.random_range(0..lists.len())].clone();
        if rng.random_range(0..4usize) == 0 {
            list.insert(rng.random_range(0..=list.len()), v);
        }
        neighbors.push(list);
    }
    StateSnapshot {
        features: Tensor::from_vec(k, STATE_DIM, features),
        feasible: (0..k).map(|_| rng.random_range(0..10usize) != 0).collect(),
        neighbors: neighbors.into_iter().collect(),
    }
}

/// Rows the partition spared over all cases of the property below.
static SPARED: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Run by `partitioned_forward_is_the_dense_forward_on_random_fleets`.
    fn random_fleet_case(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let heads = rng.random_range(1..=4usize);
        let config = QNetworkConfig {
            hidden: 12,
            heads,
            levels: rng.random_range(0..=3usize),
            graph: rng.random_range(0..4usize) != 0,
        };
        let mut store = ParamStore::new(seed);
        let net = QNetwork::new(&mut store, config);
        let snap = random_fleet(&mut rng);

        let mut tape = Graph::new();
        let dense = net.forward(&mut tape, &store, &snap);
        let dense = tape.value(dense).data().to_vec();
        let mut part = Partition::default();
        let q = net.q_values_on(&mut tape, &mut part, &store, &snap);
        for v in 0..snap.num_vehicles() {
            let want = if snap.feasible[v] { dense[v] } else { f64::NEG_INFINITY };
            prop_assert!(
                q[v].to_bits() == want.to_bits(),
                "seed {seed}, {config:?}, vehicle {v}: {} != {want}\n{snap:?}",
                q[v]
            );
        }
        let stats = part.stats();
        prop_assert!(stats.evaluated <= stats.feasible, "seed {seed}: {stats:?}");
        SPARED.fetch_add(stats.feasible - stats.evaluated, Ordering::Relaxed);
    }
}

/// The loss bits and every parameter's gradient bits after one
/// training-shaped backward from the `1 x 1` node `record` leaves.
fn loss_and_gradients(
    store: &ParamStore,
    record: impl FnOnce(&mut Graph, &ParamStore) -> Var,
) -> (u64, Vec<Vec<u64>>) {
    let mut store = store.clone();
    let mut g = Graph::new();
    let q_sa = record(&mut g, &store);
    let target = g.constant_scalar(0.25);
    let err = g.mse(q_sa, target);
    let loss = g.scale(err, 1.0 / 8.0);
    g.backward(loss, &mut store);
    let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect();
    let grads = (0..store.len()).map(|i| bits(store.grad(dpdp_nn::ParamId(i))));
    (g.value(loss).item().to_bits(), grads.collect())
}

/// `Q(s, a)` recorded on `a`'s receptive field leaves the loss and the
/// gradients of the dense pass, bit for bit, for every feasible `a`.
/// Returns the rows embedded, summed over the actions.
fn assert_gradient_parity(
    net: &QNetwork,
    store: &ParamStore,
    snap: &StateSnapshot,
    case: &str,
) -> usize {
    let mut part = Partition::default();
    let mut embedded = 0;
    for a in (0..snap.num_vehicles()).filter(|&a| snap.feasible[a]) {
        let dense = loss_and_gradients(store, |g, store| {
            let q_all = net.forward(g, store, snap);
            g.gather_rows(q_all, &[a])
        });
        let field = loss_and_gradients(store, |g, store| {
            net.forward_on(g, &mut part, store, snap, Some(&[a]))
        });
        assert!(dense.0 == field.0, "{case}, action {a}: loss\n{snap:?}");
        for (id, (dense, field)) in dense.1.iter().zip(&field.1).enumerate() {
            assert!(
                dense == field,
                "{case}, action {a}: parameter {id}\n{snap:?}"
            );
        }
        assert!(
            dense.1.iter().flatten().any(|&g| g != 0),
            "{case}: no gradient"
        );
        embedded += part.field_rows();
    }
    embedded
}

/// Graph pathway off, and on at zero to three levels.
fn shapes(seed: u64, heads: usize) -> Vec<(QNetwork, ParamStore)> {
    let config = |graph, levels| QNetworkConfig {
        hidden: 12,
        heads,
        levels,
        graph,
    };
    let configs = std::iter::once(config(false, 2)).chain((0..=3).map(|l| config(true, l)));
    configs
        .map(|config| {
            let mut store = ParamStore::new(seed);
            (QNetwork::new(&mut store, config), store)
        })
        .collect()
}

#[test]
fn field_gradients_are_the_dense_gradients_on_edge_cases() {
    // Infeasible neighbours, self-listed and repeated ones, unsorted.
    let messy = state(
        &[A, B, C, A, B, C],
        &[true, true, false, true, true, true],
        &[&[2, 0, 1, 1], &[2, 3, 3], &[0], &[4, 4, 3], &[0], &[]],
    );
    // A chain: vehicle 0 reads the whole fleet at two levels or more.
    let chain = state(&[A, B, C], &[true; 3], &[&[1], &[2], &[]]);
    let alone = state(&[B], &[true], &[&[]]);
    for (net, store) in &shapes(21, 2) {
        let case = format!("{:?}", net.config());
        assert_gradient_parity(net, store, &messy, &case);
        assert_gradient_parity(net, store, &alone, &case);
        assert_gradient_parity(net, store, &chain, &case);
        let mut part = Partition::default();
        net.forward_on(&mut Graph::new(), &mut part, store, &chain, Some(&[0]));
        let reach = match net.config() {
            QNetworkConfig { graph: false, .. } => 1,
            QNetworkConfig { levels, .. } => (levels + 1).min(3),
        };
        assert_eq!(part.field_rows(), reach, "{case}");
    }
}

/// Rows the fleets of the property below held and rows their fields
/// embedded, summed over every action.
static OFFERED: AtomicU64 = AtomicU64::new(0);
static EMBEDDED: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Run by `field_gradients_are_the_dense_gradients_on_random_fleets`.
    fn random_field_case(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let heads = rng.random_range(1..=4usize);
        let snap = random_fleet(&mut rng);
        let actions = snap.feasible.iter().filter(|&&f| f).count();
        for (net, store) in &shapes(seed, heads) {
            let case = format!("seed {seed}, {:?}", net.config());
            let embedded = assert_gradient_parity(net, store, &snap, &case);
            OFFERED.fetch_add((actions * snap.num_vehicles()) as u64, Ordering::Relaxed);
            EMBEDDED.fetch_add(embedded as u64, Ordering::Relaxed);
        }
    }
}

#[test]
fn field_gradients_are_the_dense_gradients_on_random_fleets() {
    random_field_case();
    // Non-vacuous: most passes were recorded on a part of the fleet.
    let (offered, embedded) = (
        OFFERED.load(Ordering::Relaxed),
        EMBEDDED.load(Ordering::Relaxed),
    );
    assert!(
        2 * embedded < offered,
        "{embedded} of {offered} rows embedded"
    );
}

#[test]
fn partitioned_forward_is_the_dense_forward_on_random_fleets() {
    random_fleet_case();
    // Non-vacuous: the fleets had twins, and the partition found them.
    let spared = SPARED.load(Ordering::Relaxed);
    assert!(spared > 1000, "only {spared} rows spared over 300 fleets");
}
