//! Optimizers: SGD, SGD with momentum, and Adam.
//!
//! The paper trains its benchmarks with Adam (GNMT/BERT/XLNet), SGD
//! (VGG) and RMSProp (AmoebaNet) — and its memory model charges 16 bytes
//! per parameter for Adam state (Table VIII). These optimizers make the
//! engine exercise the same state footprint for real.

use crate::layer::DenseGrads;
use crate::model::MlpModel;
use rayon::prelude::*;

/// Optimizer state and update rule, applied model-wide.
#[derive(Debug, Clone, PartialEq)]
pub enum Optimizer {
    /// Plain SGD: `w -= lr * g`.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Heavy-ball momentum: `v = beta v + g; w -= lr * v`.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        beta: f32,
        /// Per-layer velocity buffers (flat: weights then biases).
        velocity: Vec<Vec<f32>>,
    },
    /// Adam with bias correction.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical floor.
        eps: f32,
        /// Step counter.
        t: u64,
        /// Per-layer first moments.
        m: Vec<Vec<f32>>,
        /// Per-layer second moments.
        v: Vec<Vec<f32>>,
    },
}

impl Optimizer {
    /// Plain SGD.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr }
    }

    /// SGD with momentum, buffers sized to `model`.
    pub fn momentum(lr: f32, beta: f32, model: &MlpModel) -> Self {
        Optimizer::Momentum {
            lr,
            beta,
            velocity: zeros_like(model),
        }
    }

    /// Adam with the canonical hyper-parameters (0.9 / 0.999 / 1e-8).
    pub fn adam(lr: f32, model: &MlpModel) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: zeros_like(model),
            v: zeros_like(model),
        }
    }

    /// Persistent state bytes per fp32 parameter (weights included) —
    /// matches `dapple_model::OptimizerKind::bytes_per_param`'s account.
    pub fn bytes_per_param(&self) -> u64 {
        match self {
            Optimizer::Sgd { .. } => 8,       // weight + grad
            Optimizer::Momentum { .. } => 12, // + velocity
            Optimizer::Adam { .. } => 16,     // + two moments
        }
    }

    /// Applies one update step to `model` from accumulated `grads`.
    ///
    /// State and weights are updated in one pass that reads the gradient
    /// tensors where they lie and allocates nothing parameter-sized; every
    /// rule runs through `banded`, so a tensor longer than one band is
    /// shared with the worker pool.
    pub fn step(&mut self, model: &mut MlpModel, grads: &[DenseGrads]) {
        assert_eq!(grads.len(), model.layers.len(), "grad/layer mismatch");
        match self {
            Optimizer::Sgd { lr } => {
                let lr = *lr;
                let rule = |p: &mut [f32], g: &[f32], []: [&mut [f32]; 0]| {
                    for (p, g) in p.iter_mut().zip(g) {
                        *p -= lr * g;
                    }
                };
                for (layer, g) in model.layers.iter_mut().zip(grads) {
                    let [gw, gb] = g.segments();
                    banded(&mut layer.w.data, gw, [], &rule);
                    banded(&mut layer.b, gb, [], &rule);
                }
            }
            Optimizer::Momentum { lr, beta, velocity } => {
                let (lr, beta) = (*lr, *beta);
                let rule = |p: &mut [f32], g: &[f32], [vel]: [&mut [f32]; 1]| {
                    for ((p, g), v) in p.iter_mut().zip(g).zip(vel) {
                        *v = beta * *v + *g;
                        *p -= lr * *v;
                    }
                };
                for ((layer, g), vel) in model.layers.iter_mut().zip(grads).zip(velocity) {
                    let (vel_w, vel_b) = vel.split_at_mut(layer.w.data.len());
                    let [gw, gb] = g.segments();
                    banded(&mut layer.w.data, gw, [vel_w], &rule);
                    banded(&mut layer.b, gb, [vel_b], &rule);
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                *t += 1;
                let (lr, beta1, beta2, eps) = (*lr, *beta1, *beta2, *eps);
                let bc1 = 1.0 - beta1.powi(*t as i32);
                let bc2 = 1.0 - beta2.powi(*t as i32);
                let rule = |p: &mut [f32], g: &[f32], [m, v]: [&mut [f32]; 2]| {
                    for (((p, g), mi), vi) in p.iter_mut().zip(g).zip(m).zip(v) {
                        *mi = beta1 * *mi + (1.0 - beta1) * g;
                        *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                        let mhat = *mi / bc1;
                        let vhat = *vi / bc2;
                        *p -= lr * (mhat / (vhat.sqrt() + eps));
                    }
                };
                for (((layer, g), m), v) in model.layers.iter_mut().zip(grads).zip(m).zip(v) {
                    let nw = layer.w.data.len();
                    let (mw, mb) = m.split_at_mut(nw);
                    let (vw, vb) = v.split_at_mut(nw);
                    let [gw, gb] = g.segments();
                    banded(&mut layer.w.data, gw, [mw, vw], &rule);
                    banded(&mut layer.b, gb, [mb, vb], &rule);
                }
            }
        }
    }
}

/// Elements per band of an element-wise update: 128 KiB of each slice, so
/// handing a band to the pool is noise beside updating it, and the 768 x
/// 768 tensors of the benchmark's large models are 18 bands apiece.
pub(crate) const BAND: usize = 32 * 1024;

/// The element-wise driver every update rule runs through: `rule` sees
/// the same `BAND`-element bands of one tensor's parameters, its gradient
/// and each of its `S` state buffers, handed out across the worker pool.
/// A tensor of one band or fewer is updated inline and never touches the
/// pool. Bands are disjoint and a rule is element-wise, so the result
/// does not depend on the pool size or on who ran which band.
fn banded<const S: usize>(
    p: &mut [f32],
    g: &[f32],
    state: [&mut [f32]; S],
    rule: &(impl Fn(&mut [f32], &[f32], [&mut [f32]; S]) + Sync),
) {
    if p.len() <= BAND {
        return rule(p, g, state);
    }
    let mut state = state.map(|s| s.chunks_mut(BAND));
    let mut next_state = || {
        let band = state.each_mut().map(|s| s.next());
        band.map(|s| s.expect("state shaped like the parameters"))
    };
    p.chunks_mut(BAND)
        .zip(g.chunks(BAND))
        .map(|(p, g)| (p, g, next_state()))
        .par_bridge()
        .for_each(|(p, g, s)| rule(p, g, s));
}

/// Flat zero buffers shaped like each layer's `(weights, bias)`.
fn zeros_like(model: &MlpModel) -> Vec<Vec<f32>> {
    model
        .layers
        .iter()
        .map(|l| vec![0.0f32; l.num_params()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    fn train(optimizer: &mut Optimizer, steps: usize, seed: u64) -> (f32, f32) {
        let mut model = MlpModel::new(&[4, 16, 2], seed);
        let (x, t) = data::regression_batch(32, 4, 2, seed);
        let (first, _) = model.reference_grads(&x, &t, 1);
        let mut last = first;
        for _ in 0..steps {
            let (loss, grads) = model.reference_grads(&x, &t, 1);
            last = loss;
            optimizer.step(&mut model, &grads);
        }
        (first, last)
    }

    #[test]
    fn all_optimizers_reduce_loss() {
        let model = MlpModel::new(&[4, 16, 2], 1);
        for mut opt in [
            Optimizer::sgd(0.5),
            Optimizer::momentum(0.2, 0.9, &model),
            Optimizer::adam(0.02, &model),
        ] {
            let (first, last) = train(&mut opt, 60, 1);
            assert!(
                last < first * 0.8,
                "{:?}: {first} -> {last}",
                opt.bytes_per_param()
            );
        }
    }

    /// Adam's first step is a unit-scaled move: |update| ~ lr regardless
    /// of gradient magnitude (bias correction).
    #[test]
    fn adam_first_step_is_lr_scaled() {
        let mut model = MlpModel::new(&[2, 1], 3);
        let before = model.layers[0].w.data.clone();
        let grads = vec![DenseGrads {
            dw: crate::tensor::Tensor::from_vec(2, 1, vec![1000.0, -0.001]),
            db: vec![5.0],
        }];
        let mut adam = Optimizer::adam(0.01, &model);
        adam.step(&mut model, &grads);
        for (w0, w1) in before.iter().zip(&model.layers[0].w.data) {
            let step = (w0 - w1).abs();
            assert!((step - 0.01).abs() < 1e-3, "step {step}");
        }
    }

    /// Momentum accumulates: two identical gradients move further than
    /// twice a single plain-SGD step.
    #[test]
    fn momentum_accumulates_velocity() {
        let mk = || MlpModel::new(&[1, 1], 9);
        let grads = vec![DenseGrads {
            dw: crate::tensor::Tensor::from_vec(1, 1, vec![1.0]),
            db: vec![0.0],
        }];
        let mut plain = mk();
        let mut sgd = Optimizer::sgd(0.1);
        sgd.step(&mut plain, &grads);
        sgd.step(&mut plain, &grads);

        let mut heavy = mk();
        let mut mom = Optimizer::momentum(0.1, 0.9, &heavy);
        mom.step(&mut heavy, &grads);
        mom.step(&mut heavy, &grads);
        assert!(heavy.layers[0].w.data[0] < plain.layers[0].w.data[0]);
    }

    #[test]
    fn state_bytes_match_profiler_accounting() {
        let model = MlpModel::new(&[2, 2], 0);
        assert_eq!(Optimizer::sgd(0.1).bytes_per_param(), 8);
        assert_eq!(Optimizer::momentum(0.1, 0.9, &model).bytes_per_param(), 12);
        assert_eq!(Optimizer::adam(0.1, &model).bytes_per_param(), 16);
    }
}
