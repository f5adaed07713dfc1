//! Layers: linear, MLP, and multi-head scaled dot-product attention.

use crate::graph::{Graph, Neighbors, Var};
use crate::params::{ParamId, ParamStore};

/// A fully-connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a Xavier-initialised `in_dim -> out_dim` layer in `store`.
    pub fn new(store: &mut ParamStore, in_dim: usize, out_dim: usize) -> Self {
        Linear {
            w: store.add_xavier(in_dim, out_dim),
            b: store.add_zeros(1, out_dim),
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to a `m x in_dim` input.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        debug_assert_eq!(g.value(x).cols(), self.in_dim, "Linear input width");
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

/// A multi-layer perceptron with ReLU activations between layers (none after
/// the last).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[5, 32, 32]` is
    /// `5 -> 32 -> 32` with one hidden ReLU.
    ///
    /// # Panics
    /// Panics if fewer than two widths are given.
    pub fn new(store: &mut ParamStore, widths: &[usize]) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(store, w[0], w[1]))
            .collect();
        Mlp { layers }
    }

    /// Applies the MLP to a `m x widths[0]` input.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, store, h);
            if i + 1 < self.layers.len() {
                h = g.relu(h);
            }
        }
        h
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }
}

/// Multi-head scaled dot-product attention (Vaswani et al.), the building
/// block of the paper's neighbourhood attention module (Fig. 5).
///
/// `forward(query m x d, context n x d)` returns `m x d`: each query row
/// attends over all context rows.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    out: Linear,
    d_model: usize,
    heads: usize,
}

impl MultiHeadAttention {
    /// Registers an attention block with `heads` heads over `d_model`-wide
    /// representations.
    ///
    /// # Panics
    /// Panics unless `heads` divides `d_model`.
    pub fn new(store: &mut ParamStore, d_model: usize, heads: usize) -> Self {
        assert!(
            heads > 0 && d_model.is_multiple_of(heads),
            "heads must divide d_model"
        );
        MultiHeadAttention {
            wq: store.add_xavier(d_model, d_model),
            wk: store.add_xavier(d_model, d_model),
            wv: store.add_xavier(d_model, d_model),
            out: Linear::new(store, d_model, d_model),
            d_model,
            heads,
        }
    }

    /// Applies attention: `query` is `m x d_model`, `context` is
    /// `n x d_model`; the result is `m x d_model`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, query: Var, context: Var) -> Var {
        debug_assert_eq!(g.value(query).cols(), self.d_model, "query width");
        debug_assert_eq!(g.value(context).cols(), self.d_model, "context width");
        let wq = g.param(store, self.wq);
        let wk = g.param(store, self.wk);
        let wv = g.param(store, self.wv);
        let q = g.matmul(query, wq);
        let k = g.matmul(context, wk);
        let v = g.matmul(context, wv);
        let dk = self.d_model / self.heads;
        let scale = 1.0 / (dk as f64).sqrt();
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = g.slice_cols(q, h * dk, dk);
            let kh = g.slice_cols(k, h * dk, dk);
            let vh = g.slice_cols(v, h * dk, dk);
            let kt = g.transpose(kh);
            let scores = g.matmul(qh, kt);
            let scaled = g.scale(scores, scale);
            let attn = g.softmax_rows(scaled);
            head_outputs.push(g.matmul(attn, vh));
        }
        let concat = g.concat_cols(&head_outputs);
        self.out.forward(g, store, concat)
    }

    /// Neighbourhood attention — the paper's neighbourhood attention
    /// module: row `i` of `query` (`R x d_model`) attends only to the rows
    /// of `context` (`N x d_model`) its list names
    /// ([`Graph::neighbor_lists_over`]), and the result is `R x d_model`.
    /// **Self**-attention over a `K x d_model` batch passes it as both
    /// (lists from [`Graph::neighbor_lists`]; put `i` itself in the list
    /// for self-inclusive attention); a caller that reads only some rows
    /// of the result passes those rows of the batch as `query`. A row with
    /// an empty list produces zero attention output (only the output
    /// layer's bias survives).
    pub fn forward_neighbors(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        query: Var,
        context: Var,
        lists: Neighbors,
    ) -> Var {
        debug_assert_eq!(g.value(query).cols(), self.d_model, "query width");
        debug_assert_eq!(g.value(context).cols(), self.d_model, "context width");
        let wq = g.param(store, self.wq);
        let wk = g.param(store, self.wk);
        let wv = g.param(store, self.wv);
        let q = g.matmul(query, wq);
        let k = g.matmul(context, wk);
        let v = g.matmul(context, wv);
        let mixed = g.neighbor_attention(q, k, v, self.heads, lists);
        self.out.forward(g, store, mixed)
    }

    /// Representation width.
    pub fn d_model(&self) -> usize {
        self.d_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn linear_shapes_and_values() {
        let mut store = ParamStore::new(0);
        let l = Linear::new(&mut store, 3, 2);
        // Overwrite with known weights.
        store.set_value(
            crate::params::ParamId(0),
            Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
        );
        store.set_value(
            crate::params::ParamId(1),
            Tensor::from_rows(&[&[0.5, -0.5]]),
        );
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let y = l.forward(&mut g, &store, x);
        assert_eq!(g.value(y).data(), &[4.5, 4.5]);
    }

    #[test]
    fn mlp_reduces_loss_with_sgd() {
        use crate::optim::{Optimizer, Sgd};
        let mut store = ParamStore::new(3);
        let mlp = Mlp::new(&mut store, &[2, 16, 1]);
        let mut sgd = Sgd::new(0.05);
        // Learn XOR-ish soft targets.
        let xs = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let ys = Tensor::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..400 {
            let mut g = Graph::new();
            let x = g.constant(xs.clone());
            let y = g.constant(ys.clone());
            let pred = mlp.forward(&mut g, &store, x);
            let loss = g.mse(pred, y);
            last = g.value(loss).item();
            first.get_or_insert(last);
            g.backward(loss, &mut store);
            sgd.step(&mut store);
        }
        assert!(
            last < first.unwrap() * 0.2,
            "MLP failed to learn: {} -> {last}",
            first.unwrap()
        );
        assert!(last < 0.05, "final loss too high: {last}");
    }

    #[test]
    fn attention_output_shape_and_grad_flow() {
        let mut store = ParamStore::new(1);
        let attn = MultiHeadAttention::new(&mut store, 8, 2);
        let mut g = Graph::new();
        // Varied inputs so softmax is non-uniform and all projections matter.
        let q = g.constant(Tensor::from_vec(
            3,
            8,
            (0..24).map(|i| (i as f64 * 0.37).sin()).collect(),
        ));
        let ctx = g.constant(Tensor::from_vec(
            5,
            8,
            (0..40).map(|i| (i as f64 * 0.61).cos()).collect(),
        ));
        let y = attn.forward(&mut g, &store, q, ctx);
        assert_eq!(g.value(y).shape(), (3, 8));
        let loss = g.sum_all(y);
        g.backward(loss, &mut store);
        // Every attention parameter must receive gradient.
        let grads_nonzero = (0..store.len())
            .filter(|i| store.grad(crate::params::ParamId(*i)).norm() > 0.0)
            .count();
        // wq receives zero gradient only if attention is perfectly uniform
        // AND values identical; with nonzero inputs expect most params hit.
        assert!(
            grads_nonzero >= store.len() - 1,
            "{grads_nonzero}/{}",
            store.len()
        );
    }

    #[test]
    fn attention_attends_to_matching_context() {
        // With identity-like weights, a query equal to one context row should
        // attend mostly to that row after softmax scaling.
        let mut store = ParamStore::new(2);
        let d = 4;
        let attn = MultiHeadAttention::new(&mut store, d, 1);
        // Force Wq = Wk = Wv = 10*I, output layer = identity.
        let eye10 = {
            let mut t = Tensor::zeros(d, d);
            for i in 0..d {
                *t.get_mut(i, i) = 10.0;
            }
            t
        };
        let eye = {
            let mut t = Tensor::zeros(d, d);
            for i in 0..d {
                *t.get_mut(i, i) = 1.0;
            }
            t
        };
        store.set_value(crate::params::ParamId(0), eye10.clone()); // wq
        store.set_value(crate::params::ParamId(1), eye10); // wk
        store.set_value(crate::params::ParamId(2), eye.clone()); // wv
        store.set_value(crate::params::ParamId(3), eye); // out.w
        let mut g = Graph::new();
        let q = g.constant(Tensor::from_rows(&[&[1.0, 0.0, 0.0, 0.0]]));
        let ctx = g.constant(Tensor::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
        ]));
        let y = attn.forward(&mut g, &store, q, ctx);
        let out = g.value(y);
        // Output should be dominated by the first context row's value.
        assert!(
            out.get(0, 0) > 0.9,
            "expected strong attention on matching row, got {:?}",
            out
        );
        assert!(out.get(0, 1) < 0.1);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn invalid_head_count_panics() {
        let mut store = ParamStore::new(0);
        let _ = MultiHeadAttention::new(&mut store, 6, 4);
    }
}
