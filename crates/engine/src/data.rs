//! Deterministic synthetic datasets for training tests and examples.
//!
//! A batch is drawn from one seeded stream and computed with the engine's
//! own arithmetic — the canonical fused product of `tensor` and the
//! in-repo [`tanh`] — so its bits, like a training step's, are the same
//! on every host.

use crate::layer::tanh;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A synthetic regression batch: targets are a fixed random linear map of
/// the inputs passed through a mild nonlinearity, plus small noise — easy
/// enough for a small MLP to fit, hard enough that loss must actually
/// decrease through learning.
///
/// Draw order, each draw one `f32` in `[0, 1)` from a `StdRng` seeded
/// with `seed`: the `in_dim x out_dim` map `W` row by row (`2u − 1`),
/// then for each sample its `in_dim` inputs (`2u − 1`) followed by its
/// `out_dim` noise values (`(u − 0.5) · 0.02`). Targets are
/// `tanh(x·W) + noise`, `x·W` being [`Tensor::matmul`] (one ascending
/// fused chain per element).
pub fn regression_batch(
    samples: usize,
    in_dim: usize,
    out_dim: usize,
    seed: u64,
) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f32> = (0..in_dim * out_dim)
        .map(|_| rng.random::<f32>() * 2.0 - 1.0)
        .collect();
    let w = Tensor::from_vec(in_dim, out_dim, w);
    let mut x = Tensor::zeros(samples, in_dim);
    let mut t = Tensor::zeros(samples, out_dim);
    for r in 0..samples {
        for v in &mut x.data[r * in_dim..(r + 1) * in_dim] {
            *v = rng.random::<f32>() * 2.0 - 1.0;
        }
        for noise in &mut t.data[r * out_dim..(r + 1) * out_dim] {
            *noise = (rng.random::<f32>() - 0.5) * 0.02;
        }
    }
    for (t, v) in t.data.iter_mut().zip(&x.matmul(&w).data) {
        *t += tanh(*v);
    }
    (x, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let (x1, t1) = regression_batch(8, 3, 2, 42);
        let (x2, t2) = regression_batch(8, 3, 2, 42);
        assert_eq!(x1, x2);
        assert_eq!(t1, t2);
        let (x3, _) = regression_batch(8, 3, 2, 43);
        assert_ne!(x1, x3);
    }

    #[test]
    fn shapes_and_ranges() {
        let (x, t) = regression_batch(16, 5, 3, 1);
        assert_eq!((x.rows, x.cols), (16, 5));
        assert_eq!((t.rows, t.cols), (16, 3));
        assert!(x.data.iter().all(|v| v.abs() <= 1.0));
        assert!(t.data.iter().all(|v| v.abs() <= 1.1));
    }
}
