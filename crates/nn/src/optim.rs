//! Optimizers: SGD and Adam over a [`ParamStore`].

use crate::params::ParamStore;
use std::sync::Arc;

/// A first-order optimizer: consumes accumulated gradients and updates
/// parameter values in place, then clears the gradients.
pub trait Optimizer {
    /// Applies one update step using the store's accumulated gradients.
    fn step(&mut self, store: &mut ParamStore);
}

/// Plain stochastic gradient descent, optionally with gradient clipping by
/// global norm.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// If set, gradients are scaled so their global L2 norm is at most this.
    pub clip_norm: Option<f64>,
}

impl Sgd {
    /// SGD with the given learning rate and no clipping.
    pub fn new(lr: f64) -> Self {
        Sgd {
            lr,
            clip_norm: None,
        }
    }
}

fn global_grad_norm(store: &ParamStore) -> f64 {
    store
        .params()
        .iter()
        .map(|p| {
            let n = p.grad.norm();
            n * n
        })
        .sum::<f64>()
        .sqrt()
}

fn clip_scale(store: &ParamStore, clip: Option<f64>) -> f64 {
    match clip {
        Some(max) => {
            let norm = global_grad_norm(store);
            if norm > max && norm > 0.0 {
                max / norm
            } else {
                1.0
            }
        }
        None => 1.0,
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        let scale = clip_scale(store, self.clip_norm);
        for p in store.params_mut() {
            let value = Arc::make_mut(&mut p.value).data_mut();
            for (w, g) in value.iter_mut().zip(p.grad.data()) {
                *w -= self.lr * scale * g;
            }
        }
        store.zero_grads();
    }
}

/// Adam (Kingma & Ba) with bias correction and optional global-norm clipping.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stabiliser.
    pub eps: f64,
    /// If set, gradients are scaled so their global L2 norm is at most this.
    pub clip_norm: Option<f64>,
    t: u64,
}

impl Adam {
    /// Adam with standard hyper-parameters and the given learning rate.
    pub fn with_lr(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: None,
            t: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let scale = clip_scale(store, self.clip_norm);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for p in store.params_mut() {
            let value = Arc::make_mut(&mut p.value).data_mut();
            for (i, w) in value.iter_mut().enumerate() {
                let g = p.grad.data()[i] * scale;
                let m = self.beta1 * p.m.data()[i] + (1.0 - self.beta1) * g;
                let v = self.beta2 * p.v.data()[i] + (1.0 - self.beta2) * g * g;
                p.m.data_mut()[i] = m;
                p.v.data_mut()[i] = v;
                let m_hat = m / bc1;
                let v_hat = v / bc2;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::tensor::Tensor;

    /// Minimise f(w) = (w - 3)^2 starting from w = 0.
    fn quadratic_descent(opt: &mut dyn Optimizer, iters: usize) -> f64 {
        let mut store = ParamStore::new(0);
        let w = store.add(Tensor::scalar(0.0));
        for _ in 0..iters {
            let mut g = Graph::new();
            let wv = g.param(&store, w);
            let target = g.constant(Tensor::scalar(3.0));
            let loss = g.mse(wv, target);
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        store.value(w).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = quadratic_descent(&mut Sgd::new(0.1), 100);
        assert!((w - 3.0).abs() < 1e-6, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = quadratic_descent(&mut Adam::with_lr(0.1), 500);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn step_clears_gradients() {
        let mut store = ParamStore::new(0);
        let w = store.add(Tensor::scalar(1.0));
        store.accumulate_grad(w, &Tensor::scalar(2.0));
        Sgd::new(0.5).step(&mut store);
        assert_eq!(store.value(w).item(), 0.0);
        assert_eq!(store.grad(w).item(), 0.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new(0);
        let w = store.add(Tensor::scalar(0.0));
        store.accumulate_grad(w, &Tensor::scalar(1000.0));
        let mut sgd = Sgd::new(1.0);
        sgd.clip_norm = Some(1.0);
        sgd.step(&mut store);
        assert!((store.value(w).item() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn adam_counts_steps() {
        let mut adam = Adam::with_lr(0.01);
        let mut store = ParamStore::new(0);
        store.add(Tensor::scalar(0.0));
        assert_eq!(adam.steps(), 0);
        adam.step(&mut store);
        adam.step(&mut store);
        assert_eq!(adam.steps(), 2);
    }
}
