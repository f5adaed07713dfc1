//! The autodiff tape: eager forward evaluation, reverse-mode backward.
//!
//! Operations append nodes to a [`Graph`] and compute values eagerly;
//! [`Graph::backward`] walks the tape in reverse, accumulating gradients,
//! and flushes the gradients of parameter-bound leaves into the
//! [`ParamStore`].
//!
//! # Tape lifecycle
//!
//! A tape records one forward pass (define-by-run). Drop it afterwards, or
//! [`Graph::clear`] it and record again: clearing keeps every node buffer,
//! and the next pass takes them back in the order it first asked for them,
//! so a tape that replays the same network on same-sized inputs stops
//! allocating after its first pass. Reuse never shows in the results —
//! values and gradients are bit-identical to a fresh tape's.
//!
//! A forward pass allocates only what it reads. Gradients appear, zeroed,
//! the first time backward reaches a node (one that no gradient reaches has
//! none: [`Graph::grad`] is `None`), and parameter leaves share the
//! store's tensors instead of copying them.

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;
use std::borrow::Borrow;
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Handle to per-row neighbour lists held by a [`Graph`]
/// ([`Graph::neighbor_lists`], [`Graph::neighbor_lists_over`]).
#[derive(Debug, Clone, Copy)]
pub struct Neighbors {
    /// Where the `rows + 1` list boundaries start in the tape's index
    /// arena; the boundaries are themselves arena positions.
    offsets: usize,
    /// Rows that attend: one list each.
    rows: usize,
    /// Rows attended to: every list entry is below this.
    keys: usize,
}

/// A run of the tape's index arena.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Leaf,
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    AddRow(Var, Var),
    Scale(Var, f64),
    Relu(Var),
    SoftmaxRows(Var),
    Transpose(Var),
    SliceCols(Var, usize),
    ConcatCols(Span),
    ConcatRows(Span),
    GatherRows(Var, Span),
    MeanAll(Var),
    SumAll(Var),
    Ln(Var),
    NeighborAttention {
        q: Var,
        k: Var,
        v: Var,
        /// The attention weights (a leaf the op pushes for its backward).
        probs: Var,
        heads: usize,
        lists: Neighbors,
    },
}

#[derive(Debug)]
enum Value {
    /// Computed on this tape, in a buffer the tape recycles.
    Owned(Tensor),
    /// A parameter, shared with its store.
    Shared(Arc<Tensor>),
}

#[derive(Debug)]
struct Node {
    value: Value,
    grad: Option<Tensor>,
    op: Op,
}

/// A tape-based autodiff graph.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    bindings: Vec<(ParamId, usize)>,
    /// Index arena of the recorded ops: concatenation parts, gather
    /// indices, neighbour lists.
    ints: Vec<usize>,
    /// Buffers of cleared nodes and finished backward temporaries, handed
    /// to later nodes.
    free: Vec<Vec<f64>>,
    /// The attention forward's repeat memo: per key, the list position
    /// that last claimed to be its first in a row (stale across rows; see
    /// [`Graph::neighbor_attention`]). Kept across passes, so a warm tape
    /// does not allocate it.
    first_seen: Vec<usize>,
}

/// `Σ a[c]·b[c]` with `c` ascending and exact-zero `a[c]` skipped: one
/// output element of [`Tensor::matmul_into`], term for term.
#[inline]
fn dot_skip(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        if x != 0.0 {
            acc += x * y;
        }
    }
    acc
}

/// `out += s · row`.
#[inline]
fn axpy(out: &mut [f64], s: f64, row: &[f64]) {
    for (o, &b) in out.iter_mut().zip(row) {
        *o += s * b;
    }
}

/// `out += row`.
#[inline]
fn add_to(out: &mut [f64], row: &[f64]) {
    for (o, &b) in out.iter_mut().zip(row) {
        *o += b;
    }
}

/// `acc += f(upstream)`, element-wise.
fn add_map(acc: &mut Tensor, upstream: &Tensor, f: impl Fn(f64) -> f64) {
    for (a, &g) in acc.data_mut().iter_mut().zip(upstream.data()) {
        *a += f(g);
    }
}

/// `acc += f(upstream, x)`, element-wise.
fn add_zip(acc: &mut Tensor, upstream: &Tensor, x: &Tensor, f: impl Fn(f64, f64) -> f64) {
    for ((a, &g), &x) in acc.data_mut().iter_mut().zip(upstream.data()).zip(x.data()) {
        *a += f(g, x);
    }
}

/// Softmax Jacobian product, row by row: `acc += y ⊙ (g − ⟨g, y⟩)`. Entries
/// a mask zeroed in `y` contribute and receive exactly nothing.
fn add_softmax_grad(acc: &mut Tensor, upstream: &Tensor, y: &Tensor) {
    let n = y.cols();
    if n == 0 {
        return;
    }
    for ((row_a, row_g), row_y) in acc
        .data_mut()
        .chunks_exact_mut(n)
        .zip(upstream.data().chunks_exact(n))
        .zip(y.data().chunks_exact(n))
    {
        let dot: f64 = row_g.iter().zip(row_y).map(|(g, y)| g * y).sum();
        for ((a, &g), &y) in row_a.iter_mut().zip(row_g).zip(row_y) {
            *a += y * (g - dot);
        }
    }
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Forgets the recorded pass but keeps its buffers for the next one
    /// (see the [module docs](self) for the lifecycle). Every [`Var`] and
    /// [`Neighbors`] handle of the cleared pass is invalid afterwards.
    pub fn clear(&mut self) {
        // Hand-back order is the reverse of the order the next pass asks
        // in (values first to last, then gradients last to first), so a
        // replay of the same pass finds each buffer already at its size.
        for node in &mut self.nodes {
            if let Some(grad) = node.grad.take() {
                self.free.push(grad.into_data());
            }
        }
        for node in self.nodes.drain(..).rev() {
            if let Value::Owned(value) = node.value {
                self.free.push(value.into_data());
            }
        }
        self.bindings.clear();
        self.ints.clear();
    }

    /// A zeroed `rows x cols` tensor in a recycled buffer when one is free.
    fn zeros(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf.resize(rows * cols, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    fn recycle(&mut self, t: Tensor) {
        self.free.push(t.into_data());
    }

    fn push_node(&mut self, value: Value, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.push_node(Value::Owned(value), op)
    }

    fn span(&mut self, items: impl IntoIterator<Item = usize>) -> Span {
        let start = self.ints.len();
        self.ints.extend(items);
        Span {
            start,
            len: self.ints.len() - start,
        }
    }

    fn ints(&self, span: Span) -> &[usize] {
        &self.ints[span.start..span.start + span.len]
    }

    /// The current value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        match &self.nodes[v.0].value {
            Value::Owned(t) => t,
            Value::Shared(t) => t,
        }
    }

    /// The gradient of a node after [`Graph::backward`]; `None` if no
    /// gradient reached it.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Number of tape nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- leaves -----------------------------------------------------------

    /// A constant leaf (inputs, targets): `value` is copied onto the tape,
    /// so pass a reference to keep yours. Gradients are computed but not
    /// propagated anywhere.
    pub fn constant(&mut self, value: impl Borrow<Tensor>) -> Var {
        let value = value.borrow();
        let mut copy = self.zeros(value.rows(), value.cols());
        copy.data_mut().copy_from_slice(value.data());
        self.push(copy, Op::Leaf)
    }

    /// A `1 x 1` constant leaf holding `v`.
    pub fn constant_scalar(&mut self, v: f64) -> Var {
        self.scalar(v, Op::Leaf)
    }

    /// A parameter leaf: shares the store's current value and records the
    /// binding so `backward` accumulates the gradient into the store.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let v = self.push_node(Value::Shared(store.shared_value(id)), Op::Leaf);
        self.bindings.push((id, v.0));
        v
    }

    // ---- ops --------------------------------------------------------------

    fn map(&mut self, a: Var, op: Op, f: impl Fn(f64) -> f64) -> Var {
        let (m, n) = self.value(a).shape();
        let mut value = self.zeros(m, n);
        for (o, &x) in value.data_mut().iter_mut().zip(self.value(a).data()) {
            *o = f(x);
        }
        self.push(value, op)
    }

    fn zip(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f64, f64) -> f64) -> Var {
        let (m, n) = self.value(a).shape();
        assert_eq!(
            (m, n),
            self.value(b).shape(),
            "element-wise op shape mismatch"
        );
        let mut value = self.zeros(m, n);
        for ((o, &x), &y) in value
            .data_mut()
            .iter_mut()
            .zip(self.value(a).data())
            .zip(self.value(b).data())
        {
            *o = f(x, y);
        }
        self.push(value, op)
    }

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.zeros(self.value(a).rows(), self.value(b).cols());
        self.value(a).matmul_into(self.value(b), value.data_mut());
        self.push(value, Op::MatMul(a, b))
    }

    /// Element-wise sum of same-shape tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Element-wise difference `a - b` of same-shape tensors.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Hadamard (element-wise) product of same-shape tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Adds a `1 x n` row vector to every row of an `m x n` matrix
    /// (bias broadcast).
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let (m, n) = self.value(a).shape();
        assert_eq!(self.value(b).shape(), (1, n), "add_row wants a 1x{n} bias");
        let mut value = self.zeros(m, n);
        if n > 0 {
            let bias = self.value(b).data();
            for (row_o, row_a) in value
                .data_mut()
                .chunks_exact_mut(n)
                .zip(self.value(a).data().chunks_exact(n))
            {
                for ((o, &x), &y) in row_o.iter_mut().zip(row_a).zip(bias) {
                    *o = x + y;
                }
            }
        }
        self.push(value, Op::AddRow(a, b))
    }

    /// Scalar multiple `a * s`.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        self.map(a, Op::Scale(a, s), |x| x * s)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.map(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Row-wise softmax (numerically stabilised).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        self.softmax_where(a, |_, _| true)
    }

    /// Row-wise softmax restricted to entries where `mask` is non-zero;
    /// masked entries get probability 0. A fully-masked row becomes all
    /// zeros. `mask` must have the same shape as the input and is treated
    /// as a constant (no gradient flows into it).
    ///
    /// This is the dense statement of what [`Graph::neighbor_attention`]
    /// computes on neighbour lists; the parity tests hold one to the other.
    pub fn masked_softmax_rows(&mut self, a: Var, mask: &Tensor) -> Var {
        assert_eq!(
            mask.shape(),
            self.value(a).shape(),
            "mask shape must match input"
        );
        self.softmax_where(a, |r, c| mask.get(r, c) != 0.0)
    }

    fn softmax_where(&mut self, a: Var, keep: impl Fn(usize, usize) -> bool) -> Var {
        let (m, n) = self.value(a).shape();
        let mut value = self.zeros(m, n);
        for r in 0..m {
            let row = self.value(a).row(r);
            let out = &mut value.data_mut()[r * n..(r + 1) * n];
            let max = (0..n)
                .filter(|&c| keep(r, c))
                .map(|c| row[c])
                .fold(f64::NEG_INFINITY, f64::max);
            if max == f64::NEG_INFINITY {
                continue; // fully masked row
            }
            let mut sum = 0.0;
            for c in (0..n).filter(|&c| keep(r, c)) {
                out[c] = (row[c] - max).exp();
                sum += out[c];
            }
            for o in out.iter_mut() {
                *o /= sum;
            }
        }
        self.push(value, Op::SoftmaxRows(a))
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let (m, n) = self.value(a).shape();
        let mut value = self.zeros(n, m);
        self.value(a).transpose_into(value.data_mut());
        self.push(value, Op::Transpose(a))
    }

    /// Columns `[start, start + len)` of a matrix.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let (m, n) = self.value(a).shape();
        assert!(start + len <= n, "slice_cols out of range");
        let mut value = self.zeros(m, len);
        for r in 0..m {
            value.data_mut()[r * len..(r + 1) * len]
                .copy_from_slice(&self.value(a).row(r)[start..start + len]);
        }
        self.push(value, Op::SliceCols(a, start))
    }

    /// Horizontal concatenation of matrices with equal row counts.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let m = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut value = self.zeros(m, total);
        let mut off = 0;
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.rows(), m, "concat_cols row mismatch");
            for r in 0..m {
                value.data_mut()[r * total + off..][..t.cols()].copy_from_slice(t.row(r));
            }
            off += t.cols();
        }
        let parts = self.span(parts.iter().map(|p| p.0));
        self.push(value, Op::ConcatCols(parts))
    }

    /// Vertical concatenation of matrices with equal column counts.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows needs at least one part");
        let n = self.value(parts[0]).cols();
        let total: usize = parts.iter().map(|&p| self.value(p).rows()).sum();
        let mut value = self.zeros(total, n);
        let mut off = 0;
        for &p in parts {
            let t = self.value(p);
            assert_eq!(t.cols(), n, "concat_rows column mismatch");
            value.data_mut()[off..off + t.data().len()].copy_from_slice(t.data());
            off += t.data().len();
        }
        let parts = self.span(parts.iter().map(|p| p.0));
        self.push(value, Op::ConcatRows(parts))
    }

    /// Natural logarithm, element-wise. Inputs must be strictly positive.
    pub fn ln(&mut self, a: Var) -> Var {
        self.map(a, Op::Ln(a), |x| x.max(1e-300).ln())
    }

    /// Row gather: `out[i, :] = a[indices[i], :]`. Rows may repeat.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let (rows, n) = self.value(a).shape();
        let mut value = self.zeros(indices.len(), n);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < rows, "gather_rows index out of range");
            value.data_mut()[i * n..(i + 1) * n].copy_from_slice(self.value(a).row(idx));
        }
        let indices = self.span(indices.iter().copied());
        self.push(value, Op::GatherRows(a, indices))
    }

    fn scalar(&mut self, v: f64, op: Op) -> Var {
        let mut value = self.zeros(1, 1);
        value.data_mut()[0] = v;
        self.push(value, op)
    }

    /// Mean over all elements (a `1 x 1` result).
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t = self.value(a);
        let n = (t.rows() * t.cols()) as f64;
        let mean = t.data().iter().sum::<f64>() / n;
        self.scalar(mean, Op::MeanAll(a))
    }

    /// Sum over all elements (a `1 x 1` result).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let sum = self.value(a).data().iter().sum::<f64>();
        self.scalar(sum, Op::SumAll(a))
    }

    /// Mean-squared-error between same-shape tensors (a `1 x 1` result).
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.mul(d, d);
        self.mean_all(sq)
    }

    // ---- neighbourhood attention --------------------------------------------

    /// Registers per-row neighbour lists for self-attention
    /// ([`Graph::neighbor_attention`] with `q`, `k` and `v` of equal row
    /// counts) over as many rows as `lists` has items: row `r` attends to
    /// the rows its list names — [`Graph::neighbor_lists_over`] with the
    /// attending rows as the attended ones.
    ///
    /// # Panics
    /// Panics if a list names a row that does not exist.
    pub fn neighbor_lists<I, J>(&mut self, lists: I) -> Neighbors
    where
        I: IntoIterator<Item = J>,
        I::IntoIter: ExactSizeIterator,
        J: IntoIterator<Item = usize>,
    {
        let lists = lists.into_iter();
        self.neighbor_lists_over(lists.len(), lists)
    }

    /// Registers per-row neighbour lists for [`Graph::neighbor_attention`]:
    /// `lists` has one item per attending (`q`) row, naming rows of the
    /// `keys` attended (`k`, `v`) ones. Lists are kept **verbatim**: the
    /// order given is the op's accumulation order, and a row named twice
    /// is attended to — and weighted by the softmax — twice. An empty list
    /// is a row that attends to nothing.
    ///
    /// # Panics
    /// Panics if a list names a row `>= keys`.
    pub fn neighbor_lists_over<I, J>(&mut self, keys: usize, lists: I) -> Neighbors
    where
        I: IntoIterator<Item = J>,
        I::IntoIter: ExactSizeIterator,
        J: IntoIterator<Item = usize>,
    {
        let lists = lists.into_iter();
        let rows = lists.len();
        let offsets = self.ints.len();
        self.ints.resize(offsets + rows + 1, 0);
        for (r, list) in lists.enumerate() {
            self.ints[offsets + r] = self.ints.len();
            self.ints.extend(list);
        }
        let end = self.ints.len();
        self.ints[offsets + rows] = end;
        assert!(
            self.ints[offsets + rows + 1..end].iter().all(|&c| c < keys),
            "neighbour index out of range"
        );
        Neighbors {
            offsets,
            rows,
            keys,
        }
    }

    /// The arena boundaries of `lists`: row `i`'s neighbours are
    /// `ints[b[i]..b[i + 1]]`.
    fn neighbor_bounds(&self, lists: Neighbors) -> &[usize] {
        &self.ints[lists.offsets..lists.offsets + lists.rows + 1]
    }

    /// Multi-head scaled dot-product attention over neighbour lists, fused
    /// into one op. `q` is `R x d`, one row per attending row of `lists`;
    /// `k` and `v` are `N x d`, one row per attended row (`lists`' `keys`)
    /// — self-attention is `R = N` with all three computed from one input.
    /// For every head `h` (a `d / heads`-wide column block of `q`, `k`,
    /// `v`) row `i` of the result is
    /// `Σ_j softmax_j(q_i·k_j / √(d/heads)) · v_j` over the entries `j` of
    /// row `i`'s list, which index `k` and `v`, in list order and once per
    /// entry — a row listed `n` times carries `n` equal terms of the
    /// softmax — the heads side by side (`R x d`). The gradients of `k` and
    /// `v` are `N x d`: key row `j` collects from the attending rows in
    /// ascending order, each in its list's order. Work and memory are
    /// `O(R · NE · d + N · d)` in forward and backward; no `R x N` matrix
    /// exists.
    ///
    /// The forward computes one score and one `exp` per **distinct** key
    /// of a row: an entry that repeats an earlier key of its list copies
    /// that entry's score and weight, which are the same inputs through
    /// the same arithmetic, so the bits are the same. The softmax sum, the
    /// division and the value sum still take every entry in list order. A
    /// per-key slot on the tape finds a key's first entry in `O(1)`
    /// without being cleared between rows: a slot is trusted only when it
    /// points at an earlier entry of the row that names the same key.
    ///
    /// On lists that are **ascending and free of repeats** the result is
    /// bit-identical to the dense composition it replaces — per head
    /// `slice_cols`, `transpose`, `matmul`, `scale`,
    /// [`Graph::masked_softmax_rows`] under the lists' `R x N` adjacency
    /// mask, `matmul`, then `concat_cols` — because every output and gradient
    /// entry sums the same terms in the same order: neighbours ascending,
    /// and the entries the mask zeroed are the ones [`Tensor::matmul`]
    /// skipped.
    ///
    /// # Panics
    /// Panics on shape mismatch or if `heads` does not divide `d`.
    pub fn neighbor_attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        lists: Neighbors,
    ) -> Var {
        let (rows, d) = self.value(q).shape();
        assert_eq!(lists.rows, rows, "one neighbour list per query row");
        let keys = (lists.keys, d);
        assert_eq!(self.value(k).shape(), keys, "attention key shape");
        assert_eq!(self.value(v).shape(), keys, "attention value shape");
        assert!(heads > 0 && d.is_multiple_of(heads), "heads must divide d");
        let dk = d / heads;
        let scale = 1.0 / (dk as f64).sqrt();
        let nnz = self.ints[lists.offsets + rows] - self.ints[lists.offsets];
        let mut probs = self.zeros(heads, nnz);
        let mut out = self.zeros(rows, d);
        let mut first = std::mem::take(&mut self.first_seen);
        if first.len() < lists.keys {
            first.resize(lists.keys, 0);
        }
        let bounds = self.neighbor_bounds(lists);
        let (qd, kd, vd) = (
            self.value(q).data(),
            self.value(k).data(),
            self.value(v).data(),
        );
        for i in 0..rows {
            let cols = &self.ints[bounds[i]..bounds[i + 1]];
            let at = bounds[i] - bounds[0];
            for h in 0..heads {
                let block = h * dk..(h + 1) * dk;
                let qh = &qd[i * d..][block.clone()];
                let p = &mut probs.data_mut()[h * nnz + at..][..cols.len()];
                let mut max = f64::NEG_INFINITY;
                for (e, &j) in cols.iter().enumerate() {
                    // A stale slot points past `e` or at another key.
                    let f = first[j];
                    p[e] = if f < e && cols[f] == j {
                        p[f]
                    } else {
                        first[j] = e;
                        dot_skip(qh, &kd[j * d..][block.clone()]) * scale
                    };
                    max = max.max(p[e]);
                }
                if max == f64::NEG_INFINITY {
                    p.fill(0.0); // attends to nothing
                    continue;
                }
                // Every key of the row now holds its first position.
                let mut sum = 0.0;
                for (e, &j) in cols.iter().enumerate() {
                    let f = first[j];
                    p[e] = if f < e { p[f] } else { (p[e] - max).exp() };
                    sum += p[e];
                }
                let oh = &mut out.data_mut()[i * d..][block.clone()];
                for (s, &j) in p.iter_mut().zip(cols) {
                    *s /= sum;
                    if *s != 0.0 {
                        axpy(oh, *s, &vd[j * d..][block.clone()]);
                    }
                }
            }
        }
        self.first_seen = first;
        let probs = self.push(probs, Op::Leaf);
        self.push(
            out,
            Op::NeighborAttention {
                q,
                k,
                v,
                probs,
                heads,
                lists,
            },
        )
    }

    // ---- backward ----------------------------------------------------------

    /// Detaches `v`'s gradient — created zeroed on first touch — lets `f`
    /// add to it with the rest of the tape readable, and puts it back.
    fn accumulate_with(&mut self, v: Var, f: impl FnOnce(&Graph, &mut Tensor)) {
        let mut grad = match self.nodes[v.0].grad.take() {
            Some(grad) => grad,
            None => {
                let (m, n) = self.value(v).shape();
                self.zeros(m, n)
            }
        };
        f(self, &mut grad);
        self.nodes[v.0].grad = Some(grad);
    }

    fn accumulate(&mut self, v: Var, delta: &Tensor) {
        self.accumulate_with(v, |_, grad| grad.add_assign(delta));
    }

    /// Runs reverse-mode accumulation from `loss` (which must be `1 x 1`)
    /// without touching any parameter store. Node gradients are then
    /// available through [`Graph::grad`].
    pub fn backward_graph_only(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward requires a scalar loss"
        );
        for i in 0..self.nodes.len() {
            if let Some(stale) = self.nodes[i].grad.take() {
                self.recycle(stale);
            }
        }
        self.accumulate_with(loss, |_, grad| grad.data_mut()[0] = 1.0);

        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = self.nodes[i].grad.take() else {
                continue;
            };
            if grad.data().iter().any(|&g| g != 0.0) {
                self.backward_node(Var(i), &grad);
            }
            self.nodes[i].grad = Some(grad);
        }
    }

    /// Adds node `at`'s share of the upstream gradient `grad` to its
    /// inputs. A contribution that is itself a sum (a matmul, a gather
    /// with repeats, the attention op) is completed in a temporary before
    /// it is added, so an input's gradient is always `(0 + Δ₁) + Δ₂ + …`
    /// over its consumers' whole contributions, whatever was there before.
    fn backward_node(&mut self, at: Var, grad: &Tensor) {
        let op = self.nodes[at.0].op;
        match op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (m, n) = grad.shape();
                let p = self.value(a).cols();
                let mut bt = self.zeros(n, p);
                self.value(b).transpose_into(bt.data_mut());
                let mut da = self.zeros(m, p);
                grad.matmul_into(&bt, da.data_mut());
                let mut db = self.zeros(p, n);
                self.value(a).matmul_tn_into(grad, db.data_mut());
                self.accumulate(a, &da);
                self.accumulate(b, &db);
                self.recycle(bt);
                self.recycle(da);
                self.recycle(db);
            }
            Op::Add(a, b) => {
                self.accumulate(a, grad);
                self.accumulate(b, grad);
            }
            Op::Sub(a, b) => {
                self.accumulate(a, grad);
                self.accumulate_with(b, |_, gb| add_map(gb, grad, |g| -g));
            }
            Op::Mul(a, b) => {
                self.accumulate_with(a, |t, ga| add_zip(ga, grad, t.value(b), |g, x| g * x));
                self.accumulate_with(b, |t, gb| add_zip(gb, grad, t.value(a), |g, x| g * x));
            }
            Op::AddRow(a, b) => {
                self.accumulate(a, grad);
                let n = grad.cols();
                let mut db = self.zeros(1, n);
                if n > 0 {
                    for row in grad.data().chunks_exact(n) {
                        add_to(db.data_mut(), row);
                    }
                }
                self.accumulate(b, &db);
                self.recycle(db);
            }
            Op::Scale(a, s) => self.accumulate_with(a, |_, ga| add_map(ga, grad, |g| g * s)),
            Op::Relu(a) => self.accumulate_with(a, |t, ga| {
                add_zip(ga, grad, t.value(a), |g, x| if x > 0.0 { g } else { 0.0 })
            }),
            Op::SoftmaxRows(a) => {
                self.accumulate_with(a, |t, ga| add_softmax_grad(ga, grad, t.value(at)))
            }
            Op::Transpose(a) => self.accumulate_with(a, |_, ga| {
                let (m, n) = grad.shape();
                for r in 0..m {
                    for c in 0..n {
                        ga.data_mut()[c * m + r] += grad.data()[r * n + c];
                    }
                }
            }),
            Op::SliceCols(a, start) => self.accumulate_with(a, |_, ga| {
                let (len, an) = (grad.cols(), ga.cols());
                for r in 0..grad.rows() {
                    add_to(&mut ga.data_mut()[r * an + start..][..len], grad.row(r));
                }
            }),
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for part in parts.start..parts.start + parts.len {
                    let p = Var(self.ints[part]);
                    self.accumulate_with(p, |_, gp| {
                        let n = gp.cols();
                        for r in 0..gp.rows() {
                            add_to(&mut gp.data_mut()[r * n..][..n], &grad.row(r)[off..off + n]);
                        }
                        off += n;
                    });
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for part in parts.start..parts.start + parts.len {
                    let p = Var(self.ints[part]);
                    self.accumulate_with(p, |_, gp| {
                        let len = gp.data().len();
                        add_to(gp.data_mut(), &grad.data()[off..off + len]);
                        off += len;
                    });
                }
            }
            Op::GatherRows(a, indices) => {
                let (rows, n) = self.value(a).shape();
                let mut da = self.zeros(rows, n);
                for (i, &idx) in self.ints(indices).iter().enumerate() {
                    add_to(&mut da.data_mut()[idx * n..][..n], grad.row(i));
                }
                self.accumulate(a, &da);
                self.recycle(da);
            }
            Op::MeanAll(a) => {
                let (m, n) = self.value(a).shape();
                let g = grad.item() / (m * n) as f64;
                self.accumulate_with(a, |_, ga| ga.data_mut().iter_mut().for_each(|x| *x += g));
            }
            Op::SumAll(a) => {
                let g = grad.item();
                self.accumulate_with(a, |_, ga| ga.data_mut().iter_mut().for_each(|x| *x += g));
            }
            Op::Ln(a) => self.accumulate_with(a, |t, ga| {
                add_zip(ga, grad, t.value(a), |g, x| g / x.max(1e-300))
            }),
            Op::NeighborAttention {
                q,
                k,
                v,
                probs,
                heads,
                lists,
            } => {
                let (rows, d) = grad.shape();
                let dk = d / heads;
                let scale = 1.0 / (dk as f64).sqrt();
                let nnz = self.value(probs).cols();
                let mut dq = self.zeros(rows, d);
                let mut dkey = self.zeros(lists.keys, d);
                let mut dv = self.zeros(lists.keys, d);
                let mut ds = self.zeros(1, nnz);
                let bounds = self.neighbor_bounds(lists);
                let (qd, kd, vd, pd) = (
                    self.value(q).data(),
                    self.value(k).data(),
                    self.value(v).data(),
                    self.value(probs).data(),
                );
                for i in 0..rows {
                    let cols = &self.ints[bounds[i]..bounds[i + 1]];
                    let at = bounds[i] - bounds[0];
                    for h in 0..heads {
                        let block = h * dk..(h + 1) * dk;
                        let g = &grad.data()[i * d..][block.clone()];
                        let qh = &qd[i * d..][block.clone()];
                        let p = &pd[h * nnz + at..][..cols.len()];
                        let ds = &mut ds.data_mut()[at..][..cols.len()];
                        // Through the weighted sum of values ...
                        for ((s, &y), &j) in ds.iter_mut().zip(p).zip(cols) {
                            *s = dot_skip(g, &vd[j * d..][block.clone()]);
                            if y != 0.0 {
                                axpy(&mut dv.data_mut()[j * d..][block.clone()], y, g);
                            }
                        }
                        // ... the softmax and the 1/sqrt(dk) scale ...
                        let dot: f64 = ds.iter().zip(p).map(|(g, y)| g * y).sum();
                        for (s, &y) in ds.iter_mut().zip(p) {
                            *s = (y * (*s - dot)) * scale;
                        }
                        // ... into the scores' two factors.
                        let dqh = &mut dq.data_mut()[i * d..][block.clone()];
                        for (&s, &j) in ds.iter().zip(cols) {
                            if s != 0.0 {
                                axpy(dqh, s, &kd[j * d..][block.clone()]);
                            }
                            let dkh = &mut dkey.data_mut()[j * d..][block.clone()];
                            for (o, &x) in dkh.iter_mut().zip(qh) {
                                if x != 0.0 {
                                    *o += x * s;
                                }
                            }
                        }
                    }
                }
                self.accumulate(q, &dq);
                self.accumulate(k, &dkey);
                self.accumulate(v, &dv);
                for t in [dq, dkey, dv, ds] {
                    self.recycle(t);
                }
            }
        }
    }

    /// Full backward pass: accumulates node gradients and flushes the
    /// gradients of parameter leaves into `store`.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        self.backward_graph_only(loss);
        for &(id, node) in &self.bindings {
            if let Some(grad) = &self.nodes[node].grad {
                store.accumulate_grad(id, grad);
            }
        }
    }
}

#[cfg(test)]
mod tests;
