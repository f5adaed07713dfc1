//! Property-based tests for the autodiff substrate: random graphs checked
//! against finite differences, tensor algebra laws, optimizer behaviour.

use dpdp_nn::{Graph, ParamStore, Tensor};
use proptest::prelude::*;

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

/// Central-difference check of d(loss)/d(input) for a generic builder that
/// returns `(input_var, loss_var)`.
fn fd_check(
    build: impl Fn(&mut Graph, &Tensor) -> (dpdp_nn::Var, dpdp_nn::Var),
    input: &Tensor,
) -> Result<(), String> {
    let mut g = Graph::new();
    let (input_var, loss) = build(&mut g, input);
    g.backward_graph_only(loss);
    let analytic = g
        .grad(input_var)
        .ok_or("no gradient reached the input")?
        .clone();
    let eps = 1e-6;
    for r in 0..input.rows() {
        for c in 0..input.cols() {
            let mut plus = input.clone();
            *plus.get_mut(r, c) += eps;
            let mut minus = input.clone();
            *minus.get_mut(r, c) -= eps;
            let mut gp = Graph::new();
            let (_, lp) = build(&mut gp, &plus);
            let mut gm = Graph::new();
            let (_, lm) = build(&mut gm, &minus);
            let fd = (gp.value(lp).item() - gm.value(lm).item()) / (2.0 * eps);
            let a = analytic.get(r, c);
            if (fd - a).abs() > 1e-4 * (1.0 + fd.abs().max(a.abs())) {
                return Err(format!("grad mismatch at ({r},{c}): fd={fd} analytic={a}"));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Matmul distributes over addition: (A + B) C = AC + BC.
    #[test]
    fn matmul_distributes(a in arb_tensor(3, 4), b in arb_tensor(3, 4), c in arb_tensor(4, 2)) {
        let mut sum = a.clone();
        sum.add_assign(&b);
        let lhs = sum.matmul(&c);
        let mut rhs = a.matmul(&c);
        rhs.add_assign(&b.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    /// (AB)^T = B^T A^T.
    #[test]
    fn transpose_of_product(a in arb_tensor(3, 4), b in arb_tensor(4, 2)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
    }

    /// Softmax rows are probability distributions regardless of input
    /// scale, and the op is shift-invariant per row.
    #[test]
    fn softmax_is_a_distribution(x in arb_tensor(4, 5), shift in -100.0f64..100.0) {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let y = g.softmax_rows(xv);
        let shifted = x.map(|v| v + shift);
        let xv2 = g.constant(shifted);
        let y2 = g.softmax_rows(xv2);
        for r in 0..4 {
            let s: f64 = g.value(y).row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            for c in 0..5 {
                let a = g.value(y).get(r, c);
                prop_assert!(a >= 0.0);
                prop_assert!((a - g.value(y2).get(r, c)).abs() < 1e-9, "shift invariance");
            }
        }
    }

    /// A random composite graph (linear -> relu -> softmax -> weighted sum)
    /// matches finite differences.
    #[test]
    fn random_composite_graph_grads(x in arb_tensor(2, 3), w in arb_tensor(3, 3), s in 0.1f64..3.0) {
        // Stay away from the ReLU kink, where finite differences are
        // ill-defined.
        let pre = x.matmul(&w);
        prop_assume!(pre.data().iter().all(|v| v.abs() > 1e-3));
        let build = |g: &mut Graph, input: &Tensor| {
            let xv = g.constant(input.clone());
            let wv = g.constant(w.clone());
            let h = g.matmul(xv, wv);
            let r = g.relu(h);
            let sm = g.softmax_rows(r);
            let scaled = g.scale(sm, s);
            let prod = g.mul(scaled, scaled);
            (xv, g.sum_all(prod))
        };
        fd_check(build, &x).map_err(TestCaseError::fail)?;
    }

    /// Masked softmax always yields zero exactly at masked positions and a
    /// distribution over the rest.
    #[test]
    fn masked_softmax_distribution(
        x in arb_tensor(3, 4),
        mask_bits in proptest::collection::vec(proptest::bool::ANY, 12),
    ) {
        let mask = Tensor::from_vec(
            3, 4,
            mask_bits.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
        );
        let mut g = Graph::new();
        let xv = g.constant(x);
        let y = g.masked_softmax_rows(xv, &mask);
        for r in 0..3 {
            let allowed: f64 = mask.row(r).iter().sum();
            let sum: f64 = g.value(y).row(r).iter().sum();
            if allowed == 0.0 {
                prop_assert_eq!(sum, 0.0);
            } else {
                prop_assert!((sum - 1.0).abs() < 1e-9);
            }
            for c in 0..4 {
                if mask.get(r, c) == 0.0 {
                    prop_assert_eq!(g.value(y).get(r, c), 0.0);
                }
            }
        }
    }

    /// Gradient accumulation is linear: running backward twice doubles the
    /// parameter gradient.
    #[test]
    fn grad_accumulation_is_linear(x in arb_tensor(1, 3), w0 in arb_tensor(3, 1)) {
        let mut store = ParamStore::new(0);
        let w = store.add(w0);
        let run = |store: &mut ParamStore| {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let wv = g.param(store, w);
            let y = g.matmul(xv, wv);
            let loss = g.sum_all(y);
            g.backward(loss, store);
        };
        run(&mut store);
        let once = store.grad(w).clone();
        run(&mut store);
        let mut twice = once.clone();
        twice.add_assign(&once);
        prop_assert!(store.grad(w).max_abs_diff(&twice) < 1e-9);
    }

    /// SGD on a convex quadratic from any start converges toward the
    /// optimum (distance strictly decreases over 50 steps).
    #[test]
    fn sgd_descends_quadratics(start in -10.0f64..10.0, target in -10.0f64..10.0) {
        use dpdp_nn::{Optimizer, Sgd};
        prop_assume!((start - target).abs() > 1e-3);
        let mut store = ParamStore::new(0);
        let w = store.add(Tensor::scalar(start));
        let mut sgd = Sgd::new(0.05);
        for _ in 0..50 {
            let mut g = Graph::new();
            let wv = g.param(&store, w);
            let t = g.constant(Tensor::scalar(target));
            let loss = g.mse(wv, t);
            g.backward(loss, &mut store);
            sgd.step(&mut store);
        }
        let end = store.value(w).item();
        prop_assert!((end - target).abs() < (start - target).abs() * 0.1);
    }

    /// Checkpoint serialisation roundtrips arbitrary parameter shapes.
    #[test]
    fn checkpoint_roundtrip(shapes in proptest::collection::vec((1usize..6, 1usize..6), 1..5)) {
        use dpdp_nn::serialize::{load_params, save_params};
        let mut a = ParamStore::new(1);
        let mut b = ParamStore::new(2);
        for &(r, c) in &shapes {
            a.add_xavier(r, c);
            b.add_xavier(r, c);
        }
        let bytes = save_params(&a);
        load_params(&mut b, &bytes).unwrap();
        for i in 0..a.len() {
            let id = dpdp_nn::ParamId(i);
            prop_assert!(a.value(id).max_abs_diff(b.value(id)) == 0.0);
        }
    }
}
