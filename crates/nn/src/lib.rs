//! A minimal neural-network substrate: dense tensors, a tape-based
//! reverse-mode autodiff graph, the layers the paper's networks need
//! (linear, MLP, multi-head scaled dot-product attention — dense, and over
//! neighbour lists), and SGD/Adam optimizers.
//!
//! The paper's models are small (per-vehicle 5-feature states, two stacked
//! attention blocks over at most a few hundred vehicles), so a straight
//! `f64` CPU implementation reproduces the training dynamics without any
//! external ML framework. Every op's backward pass is verified against
//! central finite differences in the test suite.
//!
//! # The tape
//!
//! A [`Graph`] records one forward pass. Three rules keep it at the cost
//! of its arithmetic:
//!
//! * **Reuse.** [`Graph::clear`] forgets the pass and keeps its buffers; a
//!   tape that replays the same network on same-sized inputs stops
//!   allocating after the first pass. Long-lived callers (an agent
//!   deciding order after order) keep one tape; a one-off caller may
//!   still build and drop a fresh one. Results are bit-identical either
//!   way.
//! * **Lazy gradients.** A forward pass allocates no gradient. Backward
//!   creates a node's gradient the first time it adds to it, so
//!   [`Graph::grad`] is `None` for a node no gradient reached, and
//!   inference pays nothing for being differentiable.
//! * **Shared parameters.** [`Graph::param`] takes a reference-counted
//!   handle to the store's tensor, not a copy. An optimizer step copies a
//!   parameter only if a tape (or a synced target network) still holds the
//!   old value — clear the tape before stepping.
//!
//! # Neighbourhood attention
//!
//! [`Graph::neighbor_attention`] (wrapped by
//! [`MultiHeadAttention::forward_neighbors`]) is attention in which row
//! `i` attends only to the rows in its list, at `O(K · NE)` cost in
//! forward and backward. The rows that attend and the rows attended to
//! need not be the same: `q` has one row per list, `k` and `v` one row per
//! index a list may name, and their gradients have the shape of `k` and
//! `v`. Self-attention is the case where all three come from one batch;
//! a caller that reads only some rows of the result passes those rows'
//! queries and leaves the rest out. The lists are registered with
//! [`Graph::neighbor_lists`] (rows attend to each other) or
//! [`Graph::neighbor_lists_over`] (rows attend to `keys` others), which
//! keep them **verbatim**: the op sums over a row's entries in the order
//! given, once per entry, so a neighbour named twice is two terms of the
//! softmax. On ascending lists
//! without repeats that order is what makes the op bit-identical to the
//! dense formulation (`matmul` → `scale` →
//! [`Graph::masked_softmax_rows`] → `matmul` under the adjacency mask) it
//! is tested against; a caller that wants that form sorts and
//! de-duplicates before registering. A row's own index must be in its
//! list for it to attend to itself; an empty list yields a zero row.
//!
//! # Example
//!
//! ```
//! use dpdp_nn::{Graph, ParamStore, Linear, Adam, Optimizer, Tensor};
//!
//! let mut store = ParamStore::new(42);
//! let layer = Linear::new(&mut store, 3, 1);
//! let mut adam = Adam::with_lr(1e-2);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
//!     let y = g.constant(Tensor::from_rows(&[&[6.0], &[15.0]]));
//!     let pred = layer.forward(&mut g, &store, x);
//!     let loss = g.mse(pred, y);
//!     g.backward(loss, &mut store);
//!     adam.step(&mut store);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod init;
pub mod layers;
pub mod optim;
pub mod params;
pub mod serialize;
pub mod tensor;

pub use graph::{Graph, Neighbors, Var};
pub use layers::{Linear, Mlp, MultiHeadAttention};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
pub use tensor::Tensor;
