//! Optimizers: SGD, SGD with momentum, and Adam.
//!
//! The paper trains its benchmarks with Adam (GNMT/BERT/XLNet), SGD
//! (VGG) and RMSProp (AmoebaNet) — and its memory model charges 16 bytes
//! per parameter for Adam state (Table VIII). These optimizers make the
//! engine exercise the same state footprint for real.
//!
//! Every rule is element-wise over a layer's parameters, its gradient
//! and its state, and runs through one function (`update`). The layer
//! stores `W` as panels with `W^T` beside them (`crate::layer::Dense`),
//! and the gradient and every state buffer keep `W`'s panel order, so a
//! rule streams the four buffers as they lie; `update` then rebuilds
//! `W^T` from the new `W`, panel by panel.

use crate::layer::{Dense, DenseGrads};
use crate::model::MlpModel;
use crate::tensor::{panels, transpose_into};
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
        /// Per-layer velocity buffers (flat: weights in `W`'s panel
        /// order, then biases).
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
        /// Per-layer first moments, ordered like `velocity`.
        m: Vec<Vec<f32>>,
        /// Per-layer second moments, ordered like `velocity`.
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
    /// tensors where they lie and allocates nothing; every rule runs
    /// through `update`, which then rebuilds each layer's `W^T`.
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
                    update(layer, g, [], &rule);
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
                    update(layer, g, [vel], &rule);
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
                    update(layer, g, [m, v], &rule);
                }
            }
        }
    }
}

/// The most weight values an update runs inline (128 KiB): a larger
/// tensor hands its chunks of this many values, and its `W^T` panels, to
/// the worker pool, so the 768 x 768 tensors of the benchmark's large
/// models are 18 chunks and 24 panels apiece.
const BAND: usize = 32 * 1024;

/// Cuts the first `n` values off `rest`.
fn cut_front<'a>(rest: &mut &'a mut [f32], n: usize) -> &'a mut [f32] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

/// Runs `run` over every item of `items`: inline for a tensor of
/// `values` at most [`BAND`], across the worker pool otherwise.
fn spread<I: ExactSizeIterator<Item: Send> + Send>(
    values: usize,
    items: I,
    run: impl Fn(I::Item) + Sync,
) {
    if values <= BAND {
        items.for_each(run);
    } else {
        items.par_bridge().for_each(run);
    }
}

/// The element-wise driver every update rule runs through, for one
/// layer whose gradient is `g` and whose `S` state buffers each hold its
/// weights, in `W`'s panel order like the gradient, then its bias. The
/// bias is one call of `rule`. Then two passes over `W` (`k x m`):
///
/// 1. `rule` over `W`, the gradient and the state in storage order,
///    [`BAND`] values at a time, so every stream it reads and writes is
///    contiguous;
/// 2. every `W^T` panel — the transpose of one group of up to 32 rows
///    of `W`, whose piece of each `W` panel is a contiguous tile — built
///    from those tiles, so `W^T` holds exactly the new `W` and no step
///    reads a weight to lay it out.
///
/// A weight tensor of [`BAND`] values or fewer is updated inline and
/// never touches the pool; a larger one hands its chunks, then its
/// panels, across the pool. Chunks and panels are disjoint and a rule is
/// element-wise, so the result does not depend on the pool size or on
/// who ran which.
fn update<const S: usize>(
    layer: &mut Dense,
    g: &DenseGrads,
    state: [&mut [f32]; S],
    rule: &(impl Fn(&mut [f32], &[f32], [&mut [f32]; S]) + Sync),
) {
    assert!(g.fits(layer), "gradients shaped like the layer");
    let (k, m) = layer.w.dims();
    let [gw, gb] = g.segments();
    let mut state = state;
    let mut state_w = state.each_mut().map(|s| cut_front(s, k * m));
    rule(&mut layer.b, gb, state);

    let (mut w_left, mut g_left) = (&mut layer.w.data[..], gw);
    let chunks = (0..(k * m).div_ceil(BAND)).map(|_| {
        let n = BAND.min(g_left.len());
        let (g, rest) = g_left.split_at(n);
        g_left = rest;
        let s = state_w.each_mut().map(|s| cut_front(s, n));
        (cut_front(&mut w_left, n), g, s)
    });
    spread(k * m, chunks, |(w, g, s)| rule(w, g, s));

    let w = &layer.w.data[..];
    let (mut groups, mut wt_left) = (panels(k), &mut layer.wt.data[..]);
    let wt_panels = (0..panels(k).count()).map(|_| {
        let (i0, h) = groups.next().expect("one W^T panel per row group");
        (i0, h, cut_front(&mut wt_left, h * m))
    });
    spread(k * m, wt_panels, |(i0, h, wt)| {
        for (j, wd) in panels(m) {
            let tile = &w[k * j + i0 * wd..k * j + (i0 + h) * wd];
            transpose_into(tile, &mut wt[j * h..(j + wd) * h], h, wd);
        }
    });
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

    /// A weight gradient from its row-major values.
    fn grad_w(rows: usize, cols: usize, data: Vec<f32>) -> crate::tensor::PackedRhs {
        let mut dw = crate::tensor::PackedRhs::new();
        dw.pack(&crate::tensor::Tensor::from_vec(rows, cols, data));
        dw
    }

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
        let before = model.layers[0].weights().data;
        let grads = vec![DenseGrads {
            dw: grad_w(2, 1, vec![1000.0, -0.001]),
            db: vec![5.0],
        }];
        let mut adam = Optimizer::adam(0.01, &model);
        adam.step(&mut model, &grads);
        for (w0, w1) in before.iter().zip(&model.layers[0].weights().data) {
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
            dw: grad_w(1, 1, vec![1.0]),
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
        assert!(heavy.layers[0].weights().data[0] < plain.layers[0].weights().data[0]);
    }

    /// `W^T` holds the transpose of `W`, bit for bit, after every update
    /// of every rule — on tensors updated inline (one band or less) and
    /// on the pool (the 200 x 192 one, ragged in both directions) —
    /// after a checkpoint restore, and after a reconfiguration.
    #[test]
    fn w_transpose_is_the_transpose_of_w_after_every_update() {
        use crate::checkpoint::{from_bytes, to_bytes, Partition, TrainState};
        use crate::pipeline::EngineConfig;
        use crate::recovery::{DataStream, TrainLoop};
        use crate::FaultPlan;

        let check = |model: &MlpModel, ctx: &str| {
            for (l, layer) in model.layers.iter().enumerate() {
                let (want, got) = (layer.weights().transpose(), layer.wt.to_tensor());
                let same =
                    (want.data.iter().zip(&got.data)).all(|(a, b)| a.to_bits() == b.to_bits());
                let shape = (got.rows, got.cols) == (want.rows, want.cols);
                assert!(shape && same, "{ctx}: layer {l}");
            }
        };
        let dims = [6, 200, 192, 37, 3];
        assert!(dims.windows(2).any(|d| d[0] * d[1] > BAND));
        assert!(dims.windows(2).any(|d| d[0] * d[1] <= BAND));
        let (x, t) = data::regression_batch(8, 6, 3, 2);
        let rules: [fn(&MlpModel) -> Optimizer; 3] = [
            |_| Optimizer::sgd(0.1),
            |m| Optimizer::momentum(0.1, 0.9, m),
            |m| Optimizer::adam(0.01, m),
        ];
        for rule in rules {
            let mut model = MlpModel::new(&dims, 4);
            let mut opt = rule(&model);
            let name = opt.bytes_per_param();
            for step in 0..3 {
                let (_, grads) = model.reference_grads(&x, &t, 2);
                opt.step(&mut model, &grads);
                check(&model, &format!("{name} B/param, step {step}"));
            }
            let partition = Partition {
                stage_bounds: vec![0..2, 2..4],
                replication: vec![1, 1],
            };
            let state = TrainState {
                model,
                optimizer: opt,
                step: 3,
                data_seed: 2,
                data_cursor: 3,
                batch_samples: 8,
            };
            let (restored, _) = from_bytes(&to_bytes(state.view(), &partition)).unwrap();
            check(&restored.model, &format!("{name} B/param, restored"));

            let cfg = EngineConfig::straight(partition.stage_bounds, 2, 0.1);
            let stream = DataStream::new(2, 8, 6, 3);
            let mut lp = TrainLoop::new(restored.model, cfg, restored.optimizer, stream).unwrap();
            lp.try_step(&FaultPlan::new()).unwrap();
            lp.reconfigure(EngineConfig::straight(vec![0..1, 1..4], 2, 0.1))
                .unwrap();
            check(lp.model(), &format!("{name} B/param, reconfigured"));
            lp.try_step(&FaultPlan::new()).unwrap();
            check(
                lp.model(),
                &format!("{name} B/param, stepped after reconfiguring"),
            );
        }
    }

    #[test]
    fn state_bytes_match_profiler_accounting() {
        let model = MlpModel::new(&[2, 2], 0);
        assert_eq!(Optimizer::sgd(0.1).bytes_per_param(), 8);
        assert_eq!(Optimizer::momentum(0.1, 0.9, &model).bytes_per_param(), 12);
        assert_eq!(Optimizer::adam(0.1, &model).bytes_per_param(), 16);
    }
}
