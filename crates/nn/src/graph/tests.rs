use super::*;

/// Central finite-difference gradient check: builds the graph twice per
/// perturbed element and compares against the analytic gradient.
fn grad_check(build: impl Fn(&mut Graph, &Tensor) -> Var, input: &Tensor, tol: f64) {
    let mut g = Graph::new();
    let _ = build(&mut g, input);
    // The build closure must create the input as node 0.
    let loss = Var(g.nodes.len() - 1);
    g.backward_graph_only(loss);
    let analytic = g.grad(Var(0)).expect("gradient reaches the input").clone();

    let eps = 1e-6;
    for r in 0..input.rows() {
        for c in 0..input.cols() {
            let mut plus = input.clone();
            *plus.get_mut(r, c) += eps;
            let mut minus = input.clone();
            *minus.get_mut(r, c) -= eps;
            let mut gp = Graph::new();
            let lp = build(&mut gp, &plus);
            let mut gm = Graph::new();
            let lm = build(&mut gm, &minus);
            let fd = (gp.value(lp).item() - gm.value(lm).item()) / (2.0 * eps);
            let a = analytic.get(r, c);
            assert!(
                (fd - a).abs() <= tol * (1.0 + fd.abs().max(a.abs())),
                "grad mismatch at ({r},{c}): fd={fd} analytic={a}"
            );
        }
    }
}

fn test_input() -> Tensor {
    Tensor::from_rows(&[&[0.5, -1.2, 2.0], &[1.5, 0.3, -0.7]])
}

#[test]
fn grad_matmul() {
    let w = Tensor::from_rows(&[&[0.2, -0.4], &[1.0, 0.6], &[-0.3, 0.9]]);
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let wv = g.constant(w.clone());
            let y = g.matmul(xv, wv);
            g.sum_all(y)
        },
        &test_input(),
        1e-6,
    );
}

#[test]
fn grad_add_sub_mul() {
    let other = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.5, 0.25]]);
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let o = g.constant(other.clone());
            let s = g.add(xv, o);
            let d = g.sub(s, xv);
            let m = g.mul(d, xv);
            g.sum_all(m)
        },
        &test_input(),
        1e-6,
    );
}

#[test]
fn grad_add_row_broadcast() {
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let b = g.constant(Tensor::from_rows(&[&[0.1, -0.2, 0.3]]));
            let y = g.add_row(xv, b);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        },
        &test_input(),
        1e-6,
    );
    // Also check the bias gradient itself.
    let mut g = Graph::new();
    let x = g.constant(test_input());
    let b = g.constant(Tensor::from_rows(&[&[0.1, -0.2, 0.3]]));
    let y = g.add_row(x, b);
    let loss = g.sum_all(y);
    g.backward_graph_only(loss);
    // d(sum)/db_c = number of rows = 2.
    assert_eq!(g.grad(b).unwrap().data(), &[2.0, 2.0, 2.0]);
}

#[test]
fn grad_relu_and_scale() {
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let r = g.relu(xv);
            let s = g.scale(r, 3.0);
            g.sum_all(s)
        },
        &test_input(),
        1e-6,
    );
}

#[test]
fn grad_softmax_rows() {
    // Weighted sum of softmax outputs exercises the full Jacobian.
    let w = Tensor::from_rows(&[&[0.3, -0.7, 1.1], &[0.9, 0.2, -0.5]]);
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let sm = g.softmax_rows(xv);
            let wv = g.constant(w.clone());
            let prod = g.mul(sm, wv);
            g.sum_all(prod)
        },
        &test_input(),
        1e-5,
    );
}

#[test]
fn softmax_rows_sum_to_one() {
    let mut g = Graph::new();
    let x = g.constant(Tensor::from_rows(&[&[1000.0, 1001.0], &[-5.0, -5.0]]));
    let y = g.softmax_rows(x);
    let v = g.value(y);
    for r in 0..2 {
        let s: f64 = v.row(r).iter().sum();
        assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
    }
    // Large inputs do not overflow thanks to max subtraction.
    assert!(v.get(0, 1) > v.get(0, 0));
    assert!((v.get(1, 0) - 0.5).abs() < 1e-12);
}

#[test]
fn masked_softmax_respects_mask_and_grads() {
    let mask = Tensor::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 0.0, 0.0]]);
    let mut g = Graph::new();
    let x = g.constant(test_input());
    let y = g.masked_softmax_rows(x, &mask);
    let v = g.value(y);
    // Masked entries are exactly zero; unmasked rows sum to one.
    assert_eq!(v.get(0, 2), 0.0);
    assert!((v.row(0).iter().sum::<f64>() - 1.0).abs() < 1e-12);
    // Fully masked row is all zeros.
    assert_eq!(v.row(1), &[0.0, 0.0, 0.0]);

    // Gradient check against finite differences.
    let w = Tensor::from_rows(&[&[0.3, -0.7, 1.1], &[0.9, 0.2, -0.5]]);
    let mask2 = mask.clone();
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let sm = g.masked_softmax_rows(xv, &mask2);
            let wv = g.constant(w.clone());
            let prod = g.mul(sm, wv);
            g.sum_all(prod)
        },
        &test_input(),
        1e-5,
    );
}

#[test]
fn grad_transpose_slice_concat() {
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let t = g.transpose(xv); // 3x2
            let left = g.slice_cols(t, 0, 1); // 3x1
            let right = g.slice_cols(t, 1, 1); // 3x1
            let cat = g.concat_cols(&[right, left]); // swapped 3x2
            let sq = g.mul(cat, cat);
            g.sum_all(sq)
        },
        &test_input(),
        1e-6,
    );
}

#[test]
fn grad_concat_rows_and_ln() {
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let sq = g.mul(xv, xv); // strictly positive for ln
            let one = g.constant(Tensor::full(2, 3, 1.0));
            let pos = g.add(sq, one);
            let l = g.ln(pos);
            let stack = g.concat_rows(&[l, l]);
            g.sum_all(stack)
        },
        &test_input(),
        1e-6,
    );
    // Value check: concat_rows stacks vertically.
    let mut g = Graph::new();
    let a = g.constant(Tensor::from_rows(&[&[1.0, 2.0]]));
    let b = g.constant(Tensor::from_rows(&[&[3.0, 4.0]]));
    let s = g.concat_rows(&[a, b]);
    assert_eq!(g.value(s).shape(), (2, 2));
    assert_eq!(g.value(s).row(1), &[3.0, 4.0]);
}

#[test]
fn grad_gather_rows_accumulates_repeats() {
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let gathered = g.gather_rows(xv, &[0, 0, 1]);
            let sq = g.mul(gathered, gathered);
            g.sum_all(sq)
        },
        &test_input(),
        1e-6,
    );
}

#[test]
fn grad_mean_and_mse() {
    let target = Tensor::from_rows(&[&[0.0, 1.0, -1.0], &[2.0, 0.5, 0.0]]);
    grad_check(
        |g, x| {
            let xv = g.constant(x.clone());
            let t = g.constant(target.clone());
            g.mse(xv, t)
        },
        &test_input(),
        1e-6,
    );
    // MSE value is correct.
    let mut g = Graph::new();
    let a = g.constant(Tensor::from_rows(&[&[1.0, 3.0]]));
    let b = g.constant(Tensor::from_rows(&[&[0.0, 1.0]]));
    let l = g.mse(a, b);
    assert!((g.value(l).item() - 2.5).abs() < 1e-12);
}

#[test]
fn backward_flushes_param_grads() {
    let mut store = ParamStore::new(0);
    let w = store.add(Tensor::from_rows(&[&[2.0], &[3.0]]));
    let mut g = Graph::new();
    let x = g.constant(Tensor::from_rows(&[&[1.0, 4.0]]));
    let wv = g.param(&store, w);
    let y = g.matmul(x, wv); // 1x1 = 2 + 12
    let loss = g.sum_all(y);
    assert_eq!(g.value(loss).item(), 14.0);
    g.backward(loss, &mut store);
    assert_eq!(store.grad(w).data(), &[1.0, 4.0]);
    // Second backward accumulates.
    let mut g2 = Graph::new();
    let x2 = g2.constant(Tensor::from_rows(&[&[1.0, 1.0]]));
    let wv2 = g2.param(&store, w);
    let y2 = g2.matmul(x2, wv2);
    let loss2 = g2.sum_all(y2);
    g2.backward(loss2, &mut store);
    assert_eq!(store.grad(w).data(), &[2.0, 5.0]);
}

#[test]
#[should_panic(expected = "scalar loss")]
fn backward_requires_scalar() {
    let mut g = Graph::new();
    let x = g.constant(test_input());
    g.backward_graph_only(x);
}

/// Neighbourhood attention against finite differences, through all
/// three projections at once. The lists reach the op as written: a
/// self-only row, an unsorted list, and rows that name a neighbour —
/// or themselves — twice, so repeated entries are differentiated as
/// the separate softmax terms they are. Nobody but row 2 lists row 2.
#[test]
fn grad_neighbor_attention() {
    let proj =
        |seed: f64| Tensor::from_vec(4, 4, (0..16).map(|i| (i as f64 * seed).sin()).collect());
    let (wq, wk, wv) = (proj(0.7), proj(1.3), proj(2.1));
    let weights = Tensor::from_vec(4, 4, (0..16).map(|i| (i as f64 * 0.9).cos()).collect());
    let feasible = [true, true, false, true];
    let raw: [&[usize]; 4] = [&[2], &[3, 0, 2], &[2, 1, 1], &[0, 3, 0]];
    let input = Tensor::from_vec(4, 4, (0..16).map(|i| (i as f64 * 0.37).sin()).collect());
    grad_check(
        |g, x| {
            let xv = g.constant(x);
            let (wq, wk, wv) = (g.constant(&wq), g.constant(&wk), g.constant(&wv));
            let (q, k, v) = (g.matmul(xv, wq), g.matmul(xv, wk), g.matmul(xv, wv));
            let lists = g.neighbor_lists((0..4).map(|r| {
                let others = raw[r].iter().copied().filter(|&n| feasible[n]);
                std::iter::once(r).chain(others)
            }));
            let mixed = g.neighbor_attention(q, k, v, 2, lists);
            let w = g.constant(&weights);
            let prod = g.mul(mixed, w);
            g.sum_all(prod)
        },
        &input,
        1e-5,
    );
}

#[test]
fn neighbor_lists_are_kept_verbatim() {
    let mut g = Graph::new();
    let lists = g.neighbor_lists([vec![2, 0, 2, 1], vec![], vec![1, 1]]);
    let bounds = g.neighbor_bounds(lists).to_vec();
    let rows: Vec<&[usize]> = bounds.windows(2).map(|b| &g.ints[b[0]..b[1]]).collect();
    assert_eq!(rows, [&[2, 0, 2, 1][..], &[], &[1, 1]]);
}

/// The same op with fewer attending rows than attended ones: three
/// query rows — projections of rows 1, 4 and 6 of the input — over all
/// seven as keys and values, so the input collects from the query
/// gather and from both `7 x d` gradients. Lists as written: unsorted,
/// with a repeat, one empty.
#[test]
fn grad_neighbor_attention_over_more_keys_than_queries() {
    let proj =
        |seed: f64| Tensor::from_vec(4, 4, (0..16).map(|i| (i as f64 * seed).sin()).collect());
    let (wq, wk, wv) = (proj(0.7), proj(1.3), proj(2.1));
    let weights = Tensor::from_vec(3, 4, (0..12).map(|i| (i as f64 * 0.9).cos()).collect());
    let raw: [&[usize]; 3] = [&[5, 0, 6, 0], &[], &[3, 6, 2, 1]];
    let input = Tensor::from_vec(7, 4, (0..28).map(|i| (i as f64 * 0.37).sin()).collect());
    grad_check(
        |g, x| {
            let xv = g.constant(x);
            let queries = g.gather_rows(xv, &[1, 4, 6]);
            let (wq, wk, wv) = (g.constant(&wq), g.constant(&wk), g.constant(&wv));
            let (q, k, v) = (g.matmul(queries, wq), g.matmul(xv, wk), g.matmul(xv, wv));
            let lists = g.neighbor_lists_over(7, raw.iter().map(|l| l.iter().copied()));
            let mixed = g.neighbor_attention(q, k, v, 2, lists);
            assert_eq!(g.value(mixed).shape(), (3, 4));
            let w = g.constant(&weights);
            let prod = g.mul(mixed, w);
            g.sum_all(prod)
        },
        &input,
        1e-5,
    );
}

#[test]
#[should_panic(expected = "attention key shape")]
fn neighbor_attention_rejects_keys_of_another_count() {
    let mut g = Graph::new();
    let q = g.constant(Tensor::zeros(2, 4));
    let kv = g.constant(Tensor::zeros(2, 4));
    let lists = g.neighbor_lists_over(3, [vec![0], vec![2]]);
    g.neighbor_attention(q, kv, kv, 2, lists);
}

#[test]
#[should_panic(expected = "neighbour index out of range")]
fn neighbor_lists_reject_unknown_rows() {
    let square = std::panic::catch_unwind(|| Graph::new().neighbor_lists([vec![0, 2], vec![1]]));
    assert!(square.is_err(), "row 2 of two");
    // Row 2 attends, but only rows 0 and 1 are attended to.
    Graph::new().neighbor_lists_over(2, [vec![0], vec![1], vec![2]]);
}
