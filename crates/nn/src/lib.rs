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
//! softmax (scored once: the repeat copies the first entry's score and
//! weight). On ascending lists
//! without repeats that order is what makes the op bit-identical to the
//! dense formulation (`matmul` → `scale` →
//! [`Graph::masked_softmax_rows`] → `matmul` under the adjacency mask) it
//! is tested against; a caller that wants that form sorts and
//! de-duplicates before registering. A row's own index must be in its
//! list for it to attend to itself; an empty list yields a zero row.
//!
//! # Kernels
//!
//! Every matrix product — [`Tensor::matmul`], each matmul on a tape and
//! both products of its backward — runs one kernel, whose contract is the
//! **accumulation order**: output element `(i, c)` is
//! `((0 + a[i,t₁]·b[t₁,c]) + a[i,t₂]·b[t₂,c]) + …` over `t` ascending,
//! with every exact-zero `a[i,t]` (either sign) skipped, and each product
//! rounded before it is added. Skipping zeros keeps `0 · ∞` out of a sum,
//! and the neighbourhood-attention op scores and sums term for term in
//! the same order, which is what makes it bit-identical to the dense
//! composition.
//!
//! The kernel holds a block of output columns of a row in registers
//! across the whole `t` loop (then narrower blocks for the rest of the
//! row) and updates them with vector multiplies and adds. **Blocking over
//! output columns cannot move a bit:** each vector lane is one output
//! element, lanes do not mix, and every element still meets the same
//! operations in the same order as in the plain triple loop; the blocking
//! only decides which elements share an instruction. What would move bits
//! is splitting the `t` sum into partial sums or fusing the multiply into
//! the add (FMA rounds once, not twice). The kernel does neither, and Rust
//! never fuses `a * b + c` on its own.
//!
//! **One source, compiled three times.** The loop is an
//! `#[inline(always)]` function whose block width is a const parameter,
//! called from three wrappers:
//!
//! * `avx512f`, built under `#[target_feature(enable = "avx512f")]`: eight
//!   `f64` to a vector, 32 columns to a block in four zmm accumulators, so
//!   one block covers a whole hidden-width (32) row of the Q-network; then
//!   16, 8, 4, 2 and 1 for the rest of a row;
//! * `avx2`, built under `#[target_feature(enable = "avx2")]`: four `f64`
//!   to a vector, 16 columns to a block in four ymm accumulators; then 8,
//!   4, 2 and 1;
//! * `portable`, built for the baseline target (SSE2 on x86-64, two `f64`
//!   to a vector): the AVX2 build's widths, in eight xmm accumulators.
//!
//! Why these widths: four accumulators keep the vector units busy without
//! spilling, and under AVX-512F four of them hold 32 columns, the
//! Q-network's hidden width, so a hidden-width output row is one block
//! that reads (and zero-tests) each left-hand entry once instead of
//! twice. Each product runs the widest build the CPU has, as
//! [`matmul_kernel`] names it: `is_x86_feature_detected!`, a cached load,
//! decides. No option selects it, and every build is tested bit-equal to
//! a triple-loop reference.
//!
//! **The two `unsafe`s.** Running AVX-512F or AVX2 instructions on a CPU
//! without them is undefined behaviour, so calling either vector wrapper
//! is `unsafe`. The crate is `deny(unsafe_code)`, and those two calls,
//! each directly after the detection it relies on, are its only two
//! `#[allow(unsafe_code)]` sites.
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

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
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
pub use tensor::{matmul_kernel, Tensor};
