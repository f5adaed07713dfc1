//! The fused neighbourhood-attention op against the dense composition it
//! replaced — on all rows and on some rows as queries — and tape reuse
//! against fresh tapes, all bit for bit.

use dpdp_nn::{Graph, Mlp, MultiHeadAttention, ParamStore, Tensor, Var};

/// A small deterministic generator (the tests need reproducible noise,
/// not quality).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Values in `[-1, 1)`, about one in six exactly zero (post-ReLU
    /// activations are, and the kernels skip them).
    fn tensor(&mut self, rows: usize, cols: usize) -> Tensor {
        let data = (0..rows * cols)
            .map(|_| match self.next() % 6 {
                0 => 0.0,
                _ => (self.next() % 2000) as f64 / 1000.0 - 1.0,
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }
}

/// The pre-fusion attention core: per head, `K x K` scores, scale, masked
/// softmax under the adjacency mask, weighted values; heads concatenated.
fn dense_attention(g: &mut Graph, q: Var, k: Var, v: Var, heads: usize, mask: &Tensor) -> Var {
    let dk = g.value(q).cols() / heads;
    let scale = 1.0 / (dk as f64).sqrt();
    let outputs: Vec<Var> = (0..heads)
        .map(|h| {
            let qh = g.slice_cols(q, h * dk, dk);
            let kh = g.slice_cols(k, h * dk, dk);
            let vh = g.slice_cols(v, h * dk, dk);
            let kt = g.transpose(kh);
            let scores = g.matmul(qh, kt);
            let scaled = g.scale(scores, scale);
            let attn = g.masked_softmax_rows(scaled, mask);
            g.matmul(attn, vh)
        })
        .collect();
    g.concat_cols(&outputs)
}

fn bits(t: &Tensor) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sparse_attention_is_bit_identical_to_the_dense_composition() {
    let mut rng = Lcg(0x5EED_0001);
    for (rows, d, heads) in [(1, 4, 2), (3, 4, 1), (3, 8, 4), (50, 32, 4), (100, 32, 4)] {
        for density in [2, 5, 11] {
            let (qt, kt, vt) = (
                rng.tensor(rows, d),
                rng.tensor(rows, d),
                rng.tensor(rows, d),
            );
            let weights = rng.tensor(rows, d);
            // Random adjacency (some rows empty). The tape keeps lists as
            // given, and a mask can say neither order nor multiplicity, so
            // the draws are put in the form the mask does describe:
            // ascending, each neighbour once.
            let mut mask = Tensor::zeros(rows, rows);
            let lists: Vec<Vec<usize>> = (0..rows)
                .map(|r| {
                    let picks = rng.next() as usize % density;
                    let mut list: Vec<usize> =
                        (0..picks).map(|_| rng.next() as usize % rows).collect();
                    list.sort_unstable();
                    list.dedup();
                    for &c in &list {
                        *mask.get_mut(r, c) = 1.0;
                    }
                    list
                })
                .collect();

            let run = |dense: bool| {
                let mut g = Graph::new();
                let (q, k, v) = (g.constant(&qt), g.constant(&kt), g.constant(&vt));
                let out = if dense {
                    dense_attention(&mut g, q, k, v, heads, &mask)
                } else {
                    let lists = g.neighbor_lists(lists.iter().map(|l| l.iter().copied()));
                    g.neighbor_attention(q, k, v, heads, lists)
                };
                let w = g.constant(&weights);
                let prod = g.mul(out, w);
                let loss = g.sum_all(prod);
                g.backward_graph_only(loss);
                let grads = [q, k, v].map(|x| match g.grad(x) {
                    Some(grad) => grad.clone(),
                    None => Tensor::zeros(rows, d),
                });
                (g.value(out).clone(), grads)
            };
            let (dense_out, dense_grads) = run(true);
            let (sparse_out, sparse_grads) = run(false);
            assert_eq!(
                bits(&dense_out),
                bits(&sparse_out),
                "forward, K={rows} d={d} heads={heads}"
            );
            // Gradients sum the same terms in the same order; the dense
            // path also adds the masked entries' exact zeros, which can
            // only turn a -0.0 into +0.0 — hence `==`, not `to_bits`.
            for (dense, sparse) in dense_grads.iter().zip(&sparse_grads) {
                assert!(
                    dense.data() == sparse.data(),
                    "backward, K={rows} d={d} heads={heads}"
                );
            }
        }
    }
}

/// Fewer attending rows than attended ones: the op on an ascending subset
/// of the rows as queries is the dense composition under the `R x N` mask,
/// and it is the all-rows op with the other rows' upstream gradient zero —
/// the rows it computes, and every gradient it leaves, bit for bit.
#[test]
fn attention_from_some_rows_is_the_dense_composition_and_the_square_op() {
    let mut rng = Lcg(0x5EED_0003);
    for (rows, d, heads) in [(2, 4, 2), (7, 8, 4), (50, 32, 4)] {
        for density in [2, 5, 11] {
            let (xq, kt, vt) = (
                rng.tensor(rows, d),
                rng.tensor(rows, d),
                rng.tensor(rows, d),
            );
            let picked: Vec<usize> = (0..rows).filter(|_| rng.next().is_multiple_of(3)).collect();
            let lists: Vec<Vec<usize>> = (0..rows)
                .map(|_| {
                    let picks = rng.next() as usize % density;
                    let mut list: Vec<usize> =
                        (0..picks).map(|_| rng.next() as usize % rows).collect();
                    list.sort_unstable();
                    list.dedup();
                    list
                })
                .collect();
            let mut mask = Tensor::zeros(picked.len(), rows);
            for (at, &r) in picked.iter().enumerate() {
                for &c in &lists[r] {
                    *mask.get_mut(at, c) = 1.0;
                }
            }
            // The weights of the picked rows, zero elsewhere: the all-rows
            // op then sends a zero gradient into every other row.
            let weights = rng.tensor(picked.len(), d);
            let mut spread = Tensor::zeros(rows, d);
            for (at, &r) in picked.iter().enumerate() {
                spread.data_mut()[r * d..(r + 1) * d].copy_from_slice(weights.row(at));
            }

            #[derive(Clone, Copy, PartialEq)]
            enum Pass {
                Dense,
                Some,
                All,
            }
            let run = |pass: Pass| {
                let mut g = Graph::new();
                let (x, k, v) = (g.constant(&xq), g.constant(&kt), g.constant(&vt));
                let q = g.gather_rows(x, &picked);
                let picked_lists = picked.iter().map(|&r| lists[r].iter().copied());
                let (out, w) = match pass {
                    Pass::Dense => (dense_attention(&mut g, q, k, v, heads, &mask), &weights),
                    Pass::Some => {
                        let lists = g.neighbor_lists_over(rows, picked_lists);
                        (g.neighbor_attention(q, k, v, heads, lists), &weights)
                    }
                    Pass::All => {
                        let lists = g.neighbor_lists(lists.iter().map(|l| l.iter().copied()));
                        (g.neighbor_attention(x, k, v, heads, lists), &spread)
                    }
                };
                let w = g.constant(w);
                let prod = g.mul(out, w);
                let loss = g.sum_all(prod);
                g.backward_graph_only(loss);
                let grads = [x, k, v].map(|x| match g.grad(x) {
                    Some(grad) => grad.clone(),
                    None => Tensor::zeros(rows, d),
                });
                let out = match pass {
                    Pass::All => {
                        let out = g.gather_rows(out, &picked);
                        g.value(out).clone()
                    }
                    _ => g.value(out).clone(),
                };
                (out, g.value(loss).item(), grads)
            };
            let case = format!("K={rows} d={d} heads={heads} queries={picked:?}");
            let (some_out, some_loss, some_grads) = run(Pass::Some);
            let (dense_out, dense_loss, dense_grads) = run(Pass::Dense);
            assert_eq!(bits(&dense_out), bits(&some_out), "forward, {case}");
            assert_eq!(dense_loss.to_bits(), some_loss.to_bits(), "loss, {case}");
            for (dense, some) in dense_grads.iter().zip(&some_grads) {
                assert!(dense.data() == some.data(), "backward, {case}");
            }
            let (all_out, _, all_grads) = run(Pass::All);
            assert_eq!(bits(&all_out), bits(&some_out), "forward, {case}");
            for (all, some) in all_grads.iter().zip(&some_grads) {
                assert_eq!(bits(all), bits(some), "backward, {case}");
            }
        }
    }
}

/// The forward scores a repeated key once per row and copies the score
/// and its `exp` to the repeats. That must be invisible: lists that name a
/// key several times give, bit for bit in the forward and in `dq`, what
/// the op gives when each repeat names a copy of the key's `k` and `v`
/// rows instead. Adjacent repeats, repeats apart, one key nine times, and
/// random lists that repeat keys across many rows — run on one tape, so
/// the memo meets slots left by other rows and by the previous pass.
#[test]
fn repeated_keys_are_indistinguishable_from_copied_rows() {
    let mut rng = Lcg(0x5EED_0004);
    let mut tape = Graph::new();
    for (keys, d, heads) in [(8, 4, 1), (8, 8, 2), (30, 32, 4)] {
        let mut lists: Vec<Vec<usize>> = vec![
            vec![2, 2, 5, 7, 7, 7],
            vec![3, 5, 3, 1, 5, 3],
            vec![4; 9],
            vec![6, 0, 6, 6, 1, 0],
            vec![],
            vec![1, 0],
        ];
        for _ in 0..20 {
            let picks = rng.next() as usize % 12;
            let spread = 1 + rng.next() as usize % keys;
            lists.push((0..picks).map(|_| rng.next() as usize % spread).collect());
        }
        let rows = lists.len();
        let (qt, kt, vt) = (
            rng.tensor(rows, d),
            rng.tensor(keys, d),
            rng.tensor(keys, d),
        );
        let weights = rng.tensor(rows, d);

        // Each repeat renamed to a fresh copy of its key's rows.
        let (mut kc, mut vc) = (kt.data().to_vec(), vt.data().to_vec());
        let mut copies = keys;
        let renamed: Vec<Vec<usize>> = lists
            .iter()
            .map(|list| {
                list.iter()
                    .enumerate()
                    .map(|(e, &j)| {
                        if !list[..e].contains(&j) {
                            return j;
                        }
                        kc.extend_from_slice(kt.row(j));
                        vc.extend_from_slice(vt.row(j));
                        copies += 1;
                        copies - 1
                    })
                    .collect()
            })
            .collect();
        let (kc, vc) = (
            Tensor::from_vec(copies, d, kc),
            Tensor::from_vec(copies, d, vc),
        );

        let mut run = |lists: &[Vec<usize>], kt: &Tensor, vt: &Tensor| {
            tape.clear();
            let g = &mut tape;
            let (q, k, v) = (g.constant(&qt), g.constant(kt), g.constant(vt));
            let lists = g.neighbor_lists_over(kt.rows(), lists.iter().map(|l| l.iter().copied()));
            let out = g.neighbor_attention(q, k, v, heads, lists);
            let w = g.constant(&weights);
            let prod = g.mul(out, w);
            let loss = g.sum_all(prod);
            g.backward_graph_only(loss);
            let dq = g.grad(q).expect("a gradient reaches q").clone();
            (bits(g.value(out)), bits(&dq))
        };
        let copied = run(&renamed, &kc, &vc);
        let repeated = run(&lists, &kt, &vt);
        assert!(copies > keys + 20, "the lists repeat keys");
        assert_eq!(repeated.0, copied.0, "forward, keys={keys} d={d}");
        assert_eq!(repeated.1, copied.1, "dq, keys={keys} d={d}");
    }
}

/// One training-shaped pass of a small attention network: values of the
/// output and the gradient of every parameter, as bit patterns.
fn network_pass(
    g: &mut Graph,
    layers: &(Mlp, MultiHeadAttention, Mlp),
    store: &ParamStore,
    x: &Tensor,
    lists: &[Vec<usize>],
) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut store = store.clone();
    let (embed, attention, head) = layers;
    let xv = g.constant(x);
    let h0 = embed.forward(g, &store, xv);
    let lists = g.neighbor_lists(lists.iter().map(|l| l.iter().copied()));
    let mixed = attention.forward_neighbors(g, &store, h0, h0, lists);
    let top = g.relu(mixed);
    let both = g.concat_cols(&[h0, top]);
    let out = head.forward(g, &store, both);
    let picked = g.gather_rows(out, &[x.rows() - 1]);
    let target = g.constant(Tensor::scalar(0.25));
    let loss = g.mse(picked, target);
    g.backward(loss, &mut store);
    let grads = (0..store.len())
        .map(|i| bits(store.grad(dpdp_nn::ParamId(i))))
        .collect();
    (bits(g.value(out)), grads)
}

/// Reusing a tape must be invisible: a tape dirtied by passes of other
/// shapes, then cleared, yields the same values and parameter gradients,
/// bit for bit, as a fresh one.
#[test]
fn cleared_and_reused_tape_is_bit_identical_to_fresh() {
    let mut rng = Lcg(0x5EED_0002);
    let mut store = ParamStore::new(11);
    let layers = (
        Mlp::new(&mut store, &[5, 8, 8]),
        MultiHeadAttention::new(&mut store, 8, 2),
        Mlp::new(&mut store, &[16, 8, 1]),
    );
    let ring = |k: usize| -> Vec<Vec<usize>> {
        (0..k).map(|r| vec![r, (r + 1) % k, (r + 3) % k]).collect()
    };
    let (small, large) = (rng.tensor(4, 5), rng.tensor(9, 5));
    let fresh_small = network_pass(&mut Graph::new(), &layers, &store, &small, &ring(4));
    let fresh_large = network_pass(&mut Graph::new(), &layers, &store, &large, &ring(9));

    let mut tape = Graph::new();
    for _ in 0..2 {
        tape.clear();
        assert!(tape.is_empty());
        let reused = network_pass(&mut tape, &layers, &store, &large, &ring(9));
        assert_eq!(reused, fresh_large);
        tape.clear();
        let reused = network_pass(&mut tape, &layers, &store, &small, &ring(4));
        assert_eq!(reused, fresh_small);
    }
}
