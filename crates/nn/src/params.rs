//! Trainable parameter storage with accumulated gradients and optimizer
//! state.

use crate::init::xavier_uniform;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Handle to a parameter inside a [`ParamStore`]. The raw index is public
/// so callers can iterate a store's parameters (e.g. for gradient
/// diagnostics); indices are assigned in registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub usize);

/// One trainable parameter: value, accumulated gradient, and Adam moments.
///
/// The value sits behind an [`Arc`] so a tape's parameter leaves
/// ([`Graph::param`](crate::Graph::param)) and a synced target network
/// share it instead of copying it; writers go through [`Arc::make_mut`],
/// which copies only while someone else still holds the old value.
#[derive(Debug, Clone)]
pub(crate) struct Param {
    pub value: Arc<Tensor>,
    pub grad: Tensor,
    pub m: Tensor,
    pub v: Tensor,
}

/// Owns every trainable tensor of a model, its gradients and optimizer
/// state, plus the seed used for initialisation (so model construction is
/// fully deterministic given a seed).
#[derive(Debug, Clone)]
pub struct ParamStore {
    params: Vec<Param>,
    seed: u64,
    init_counter: u64,
}

impl ParamStore {
    /// Creates an empty store seeded for deterministic initialisation.
    pub fn new(seed: u64) -> Self {
        ParamStore {
            params: Vec::new(),
            seed,
            init_counter: 0,
        }
    }

    /// Registers an explicitly-initialised parameter.
    pub fn add(&mut self, value: Tensor) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            value: Arc::new(value),
            grad: Tensor::zeros(r, c),
            m: Tensor::zeros(r, c),
            v: Tensor::zeros(r, c),
        });
        ParamId(self.params.len() - 1)
    }

    /// Registers a Xavier-uniform initialised `rows x cols` parameter.
    /// Each registration draws from a fresh stream derived from the store
    /// seed and a registration counter, so initialisation depends only on
    /// the seed and the order of registrations.
    pub fn add_xavier(&mut self, rows: usize, cols: usize) -> ParamId {
        self.init_counter += 1;
        let stream = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(self.init_counter));
        let mut rng = StdRng::seed_from_u64(stream);
        let t = xavier_uniform(rows, cols, &mut rng);
        self.add(t)
    }

    /// Registers an all-zero parameter (e.g. biases).
    pub fn add_zeros(&mut self, rows: usize, cols: usize) -> ParamId {
        self.add(Tensor::zeros(rows, cols))
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    /// A shared handle to the current value (what a tape leaf holds).
    pub(crate) fn shared_value(&self, id: ParamId) -> Arc<Tensor> {
        Arc::clone(&self.params[id.0].value)
    }

    /// Overwrites the value of a parameter (e.g. target-network sync).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn set_value(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.params[id.0].value.shape(),
            value.shape(),
            "set_value shape mismatch"
        );
        self.params[id.0].value = Arc::new(value);
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].grad
    }

    /// Adds `grad` into the parameter's accumulated gradient.
    pub fn accumulate_grad(&mut self, id: ParamId, grad: &Tensor) {
        self.params[id.0].grad.add_assign(grad);
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.data_mut().fill(0.0);
        }
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.params
            .iter()
            .map(|p| p.value.rows() * p.value.cols())
            .sum()
    }

    /// Copies every parameter *value* from another store (shapes must
    /// match): used to sync a DDQN target network from the online network.
    ///
    /// # Panics
    /// Panics if the stores have different layouts.
    pub fn copy_values_from(&mut self, other: &ParamStore) {
        assert_eq!(
            self.params.len(),
            other.params.len(),
            "stores must have the same number of parameters"
        );
        for (dst, src) in self.params.iter_mut().zip(&other.params) {
            assert_eq!(
                dst.value.shape(),
                src.value.shape(),
                "parameter shape mismatch"
            );
            dst.value = Arc::clone(&src.value);
        }
    }

    pub(crate) fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    pub(crate) fn params(&self) -> &[Param] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_and_grads() {
        let mut s = ParamStore::new(0);
        let w = s.add_xavier(3, 4);
        let b = s.add_zeros(1, 4);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 16);
        assert_eq!(s.value(w).shape(), (3, 4));
        assert_eq!(s.value(b).data(), &[0.0; 4]);

        s.accumulate_grad(b, &Tensor::full(1, 4, 2.0));
        s.accumulate_grad(b, &Tensor::full(1, 4, 1.0));
        assert_eq!(s.grad(b).data(), &[3.0; 4]);
        s.zero_grads();
        assert_eq!(s.grad(b).data(), &[0.0; 4]);
    }

    #[test]
    fn initialisation_is_deterministic_per_seed() {
        let mut a = ParamStore::new(7);
        let mut b = ParamStore::new(7);
        assert_eq!(a.add_xavier(4, 4).0, b.add_xavier(4, 4).0);
        assert_eq!(a.value(ParamId(0)), b.value(ParamId(0)));
        let mut c = ParamStore::new(8);
        c.add_xavier(4, 4);
        assert_ne!(a.value(ParamId(0)), c.value(ParamId(0)));
    }

    #[test]
    fn copy_values_syncs_target_network() {
        let mut online = ParamStore::new(1);
        let w = online.add_xavier(2, 2);
        let mut target = ParamStore::new(2);
        let wt = target.add_xavier(2, 2);
        assert_ne!(online.value(w), target.value(wt));
        target.copy_values_from(&online);
        assert_eq!(online.value(w), target.value(wt));
    }
}
