//! A sequential MLP model and the single-device reference trainer.
//!
//! The reference trainer is the ground truth for every pipeline
//! equivalence test: synchronous pipelined training must produce the same
//! gradients (and therefore the same weight trajectory) as full-batch
//! training on one device.

use crate::layer::{Activation, Dense, DenseGrads};
use crate::tensor::Tensor;

/// A chain of dense layers trained with mean-squared error.
///
/// ```
/// use dapple_engine::{data, MlpModel};
///
/// let mut model = MlpModel::new(&[4, 8, 2], 42);
/// let (x, t) = data::regression_batch(16, 4, 2, 7);
/// let first = model.reference_step(&x, &t, 4, 0.3).loss;
/// for _ in 0..50 { model.reference_step(&x, &t, 4, 0.3); }
/// let last = model.reference_step(&x, &t, 4, 0.3).loss;
/// assert!(last < first);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpModel {
    /// Layers in forward order.
    pub layers: Vec<Dense>,
}

/// Statistics of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mean-squared-error loss over the global batch.
    pub loss: f32,
    /// Number of samples processed.
    pub samples: usize,
}

impl MlpModel {
    /// Builds an MLP with the given hidden widths, e.g. `[8, 16, 16, 4]`
    /// creates three layers `8 -> 16 -> 16 -> 4`; all hidden layers use
    /// `tanh`, the output layer is linear.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() {
                    Activation::Identity
                } else {
                    Activation::Tanh
                };
                Dense::new(w[0], w[1], act, seed.wrapping_add(i as u64))
            })
            .collect();
        MlpModel { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Full forward pass; returns the per-layer output chain. The last
    /// element is the prediction; together with the input it is exactly
    /// the state the backward pass needs (no separate caches).
    pub fn forward(&self, x: &Tensor) -> Vec<Tensor> {
        let mut ys = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let input = if i == 0 { x } else { &ys[i - 1] };
            ys.push(layer.forward(input));
        }
        ys
    }

    /// MSE loss and its gradient w.r.t. predictions, normalized by
    /// `total_samples` (so micro-batch gradients sum to the full-batch
    /// gradient).
    pub fn mse_loss_grad(pred: &Tensor, target: &Tensor, total_samples: usize) -> (f32, Tensor) {
        assert_eq!(pred.rows, target.rows, "loss batch mismatch");
        assert_eq!(pred.cols, target.cols, "loss width mismatch");
        let inv = 1.0 / (total_samples as f32 * pred.cols as f32);
        let mut grad = Tensor::zeros(pred.rows, pred.cols);
        let mut loss = 0.0f32;
        for i in 0..pred.data.len() {
            let d = pred.data[i] - target.data[i];
            loss += d * d * inv;
            grad.data[i] = 2.0 * d * inv;
        }
        (loss, grad)
    }

    /// Backward through all layers; returns per-layer parameter grads.
    ///
    /// `x` and `ys` are the forward input and the output chain from
    /// [`MlpModel::forward`]; `dy` is the loss gradient w.r.t. the final
    /// output (consumed as scratch).
    pub fn backward(&self, x: &Tensor, ys: &[Tensor], dy: Tensor) -> Vec<DenseGrads> {
        assert_eq!(ys.len(), self.layers.len(), "output chain length");
        let mut grads: Vec<Option<DenseGrads>> = (0..self.layers.len()).map(|_| None).collect();
        let mut cur = dy;
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let input = if i == 0 { x } else { &ys[i - 1] };
            let (dx, g) = layer.backward(input, &ys[i], &mut cur);
            grads[i] = Some(g);
            cur = dx;
        }
        grads.into_iter().map(|g| g.expect("all layers")).collect()
    }

    /// Reference single-device training step over the whole batch, with
    /// gradient accumulation across `micro_batches` (equivalent results
    /// for any `micro_batches` that divides the batch), then one plain
    /// [`Optimizer::sgd`](crate::Optimizer::sgd) update.
    pub fn reference_step(
        &mut self,
        x: &Tensor,
        target: &Tensor,
        micro_batches: usize,
        lr: f32,
    ) -> StepStats {
        let (loss, grads) = self.reference_grads(x, target, micro_batches);
        crate::optim::Optimizer::sgd(lr).step(self, &grads);
        StepStats {
            loss,
            samples: x.rows,
        }
    }

    /// Full-batch gradients via micro-batch accumulation, without
    /// updating weights. The ground truth for pipeline-equivalence tests.
    pub fn reference_grads(
        &self,
        x: &Tensor,
        target: &Tensor,
        micro_batches: usize,
    ) -> (f32, Vec<DenseGrads>) {
        self.reference_grads_loss(x, target, micro_batches, crate::loss::LossKind::Mse)
    }

    /// [`MlpModel::reference_grads`] under an explicit loss function.
    pub fn reference_grads_loss(
        &self,
        x: &Tensor,
        target: &Tensor,
        micro_batches: usize,
        loss_kind: crate::loss::LossKind,
    ) -> (f32, Vec<DenseGrads>) {
        let n = x.rows;
        assert!(
            micro_batches >= 1 && n.is_multiple_of(micro_batches),
            "uneven split"
        );
        let mb = n / micro_batches;
        let mut acc: Vec<DenseGrads> = self.layers.iter().map(DenseGrads::zeros_like).collect();
        let mut total_loss = 0.0f32;
        for u in 0..micro_batches {
            let xs = x.slice_rows(u * mb..(u + 1) * mb);
            let ts = target.slice_rows(u * mb..(u + 1) * mb);
            let ys = self.forward(&xs);
            let pred = ys.last().expect("at least one layer");
            let (loss, dy) = crate::loss::loss_grad(loss_kind, pred, &ts, n);
            total_loss += loss;
            let grads = self.backward(&xs, &ys, dy);
            for (a, g) in acc.iter_mut().zip(&grads) {
                a.accumulate(g);
            }
        }
        (total_loss, acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    fn close(a: &DenseGrads, b: &DenseGrads, tol: f32) -> bool {
        a.dw.data
            .iter()
            .zip(&b.dw.data)
            .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(1.0))
            && a.db
                .iter()
                .zip(&b.db)
                .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(1.0))
    }

    /// Gradient accumulation is exact: any micro-batch count gives the
    /// same gradients as full batch (the paper's convergence argument).
    #[test]
    fn micro_batching_preserves_gradients() {
        let model = MlpModel::new(&[6, 8, 8, 3], 11);
        let (x, t) = data::regression_batch(24, 6, 3, 5);
        let (_, full) = model.reference_grads(&x, &t, 1);
        for m in [2usize, 3, 4, 6, 8, 12, 24] {
            let (_, acc) = model.reference_grads(&x, &t, m);
            for (a, b) in full.iter().zip(&acc) {
                assert!(close(a, b, 1e-4), "M={m}");
            }
        }
    }

    #[test]
    fn loss_decreases_under_training() {
        let mut model = MlpModel::new(&[4, 12, 12, 2], 3);
        let (x, t) = data::regression_batch(64, 4, 2, 7);
        let first = model.reference_step(&x, &t, 4, 0.3).loss;
        let mut last = first;
        for _ in 0..60 {
            last = model.reference_step(&x, &t, 4, 0.3).loss;
        }
        assert!(
            last < first * 0.5,
            "loss should halve: first {first}, last {last}"
        );
    }

    #[test]
    fn mse_grad_is_zero_at_target() {
        let pred = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let (loss, grad) = MlpModel::mse_loss_grad(&pred, &pred, 2);
        assert_eq!(loss, 0.0);
        assert!(grad.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn model_shape_helpers() {
        let model = MlpModel::new(&[4, 8, 2], 1);
        assert_eq!(model.num_layers(), 2);
        assert_eq!(model.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(model.layers[0].act, Activation::Tanh);
        assert_eq!(model.layers[1].act, Activation::Identity);
    }

    #[test]
    #[should_panic(expected = "uneven split")]
    fn uneven_microbatching_rejected() {
        let model = MlpModel::new(&[2, 2], 1);
        let (x, t) = data::regression_batch(10, 2, 2, 1);
        let _ = model.reference_grads(&x, &t, 3);
    }
}
