//! Dense layers with exact backward passes, and the activations they
//! apply.
//!
//! A layer stores its weights in the layout its products stream (see
//! [`Dense`]). Its forward is its product followed by bias and
//! activation as the product's per-band epilogue; its backward scales
//! `dy` by the activation's derivative and runs the two gradient
//! products. Each element pass matches on the activation once, outside
//! the loop, so every arm is a plain slice map the compiler vectorizes.
//!
//! The hyperbolic tangent is [`tanh`], defined here as a fixed sequence
//! of IEEE-754 operations rather than taken from the host's libm: its
//! bits are part of the determinism contract (`tensor` module docs) and
//! are the same on every host, build and vector width.

use crate::tensor::{PackedRhs, Rhs, Tensor};
use dapple_core::{DappleError, Result};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Below this `|x|`, [`tanh`] returns `x` itself (`tanh x = x − x³/3 + …`
/// is within 0.74 ulp of `x` here).
const TANH_TINY: f32 = 4e-4;

/// From this `|x|` on, [`tanh`] returns `±1.0` exactly: the smallest
/// `|x|` (`0x40fff644`) at which its rational reaches `1.0`.
const TANH_KNEE: f32 = 7.998_811_7;

/// Numerator coefficients of [`tanh`]'s rational, highest power first:
/// `α13, α11, …, α1` (odd powers of `x`).
const TANH_P: [f32; 7] = [
    -2.760_768_4e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_3e-8,
    1.485_722_35e-5,
    6.372_619_5e-4,
    4.893_524_6e-3,
];

/// Denominator coefficients, highest power first: `β6, β4, β2, β0` (even
/// powers of `x`).
const TANH_Q: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_7e-3, 4.893_525e-3];

/// `c[0]·tⁿ + c[1]·tⁿ⁻¹ + … + c[n]` by Horner's rule: one fused step per
/// coefficient after the first.
#[inline(always)]
fn horner(t: f32, c: &[f32]) -> f32 {
    c[1..].iter().fold(c[0], |acc, &c| t.mul_add(acc, c))
}

/// The hyperbolic tangent of [`Activation::Tanh`] and of the synthetic
/// targets ([`crate::data::regression_batch`]), as a fixed sequence of
/// IEEE-754 basic operations. With `t = x·x` (rounded):
///
/// 1. `p = fma(t, … fma(t, fma(t, α13, α11), α9) …, α1)` — six
///    [`f32::mul_add`] Horner steps — then `p = x·p` (rounded);
/// 2. `q = fma(t, fma(t, fma(t, β6, β4), β2), β0)` — three steps;
/// 3. `r = p / q`, correctly rounded;
/// 4. compare and select: `|x| < 4e-4` gives `x` (so `±0` and
///    subnormals come back unchanged), `|x| ≥ 7.998 811 7` gives `±1.0`
///    exactly (`1.0` with the sign of `x`), anything else `r`. A NaN
///    fails both tests and stays NaN through the arithmetic; there is no
///    `min`/`max`/`clamp`, which would drop it.
///
/// The rational is the odd 13 / even 6 form of Eigen's `ptanh_float`,
/// its coefficients rounded to `f32`. Every step rounds once, per lane,
/// as IEEE-754 defines it — `mul_add` is fusedMultiplyAdd whether the
/// target has FMA hardware or falls back to a software `fmaf` — so this
/// scalar function, the loops that call it once the compiler has
/// vectorized them at any width, and a build without FMA give the same
/// bits (`tests/kernel_reference.rs` pins a golden table and the slice
/// path).
///
/// Accuracy, over every finite `f32` against `tanh` evaluated in `f64`:
/// within 5 ulp of the exact value (largest 4.90 ulp, at `x ≈ 5.126`;
/// an ulp being the spacing of `f32`s in the exact value's binade) and
/// within 2.92e-7 absolute. The result is odd bit for bit
/// (`tanh(-x) == -tanh(x)`) and never exceeds 1 in magnitude.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let t = x * x;
    let r = x * horner(t, &TANH_P) / horner(t, &TANH_Q);
    let a = x.abs();
    if a < TANH_TINY {
        x
    } else if a >= TANH_KNEE {
        1.0f32.copysign(x)
    } else {
        r
    }
}

/// Element-wise activation following the affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation (linear layer).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent, [`tanh`].
    Tanh,
}

/// `v = f(v + b)` along every row of `rows` (`b.len()` wide).
#[inline(always)]
fn map_rows(rows: &mut [f32], b: &[f32], f: impl Fn(f32) -> f32) {
    for row in rows.chunks_exact_mut(b.len()) {
        for (v, b) in row.iter_mut().zip(b) {
            *v = f(*v + *b);
        }
    }
}

/// `d *= f(y)` element by element.
#[inline(always)]
fn scale(dy: &mut [f32], y: &[f32], f: impl Fn(f32) -> f32) {
    for (d, y) in dy.iter_mut().zip(y) {
        *d *= f(*y);
    }
}

/// A dense layer: `y = act(x W + b)`.
///
/// `W` is stored as the column panels the `nn` tiles stream
/// ([`PackedRhs`]), its only copy, and `W^T` beside it in the same
/// layout for the input gradient `dz W^T`, so no product of the layer
/// packs. The two are one value: they are built together by
/// [`Dense::new`] and [`Dense::from_weights`], and the optimizer's
/// driver writes `W^T` in the pass that updates `W`. Row-major copies
/// for the edges — tests, checkpoints, reports — come from
/// [`Dense::weights`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    /// `W`, `in_dim x out_dim`, panel-major.
    pub(crate) w: PackedRhs,
    /// `W^T`, `out_dim x in_dim`, panel-major.
    pub(crate) wt: PackedRhs,
    /// Bias, `out_dim`.
    pub b: Vec<f32>,
    /// Activation.
    pub act: Activation,
}

/// Parameter gradients of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrads {
    /// `dL/dW`.
    pub dw: Tensor,
    /// `dL/db`.
    pub db: Vec<f32>,
}

impl DenseGrads {
    /// Zero gradients shaped like `layer`.
    pub fn zeros_like(layer: &Dense) -> Self {
        DenseGrads {
            dw: Tensor::zeros(layer.in_dim(), layer.out_dim()),
            db: vec![0.0; layer.b.len()],
        }
    }

    /// Accumulates `other` into `self`.
    pub fn accumulate(&mut self, other: &DenseGrads) {
        self.dw.add_assign(&other.dw);
        for (a, b) in self.db.iter_mut().zip(&other.db) {
            *a += *b;
        }
    }

    /// The gradient values as `[dW, db]` — the one place that fixes the
    /// flat order (weights, then bias) shared by the optimizer's moment
    /// buffers, the checkpoint shards and the replica reduce.
    pub fn segments(&self) -> [&[f32]; 2] {
        [&self.dw.data, &self.db]
    }

    /// [`DenseGrads::segments`], mutable.
    pub fn segments_mut(&mut self) -> [&mut [f32]; 2] {
        [&mut self.dw.data, &mut self.db]
    }

    /// Whether these gradients have `layer`'s shape.
    pub(crate) fn fits(&self, layer: &Dense) -> bool {
        let shape = (layer.in_dim(), layer.out_dim(), layer.b.len());
        (self.dw.rows, self.dw.cols, self.db.len()) == shape
    }

    /// Resets every value to zero, keeping the storage.
    pub(crate) fn zero(&mut self) {
        self.dw.data.fill(0.0);
        self.db.fill(0.0);
    }
}

impl Dense {
    /// Xavier-style deterministic initialization: `W`'s values drawn in
    /// row-major order, then stored as panels.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let scale = (2.0 / (in_dim + out_dim) as f32).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| (rng.random::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        let w = Tensor::from_vec(in_dim, out_dim, data);
        Dense::from_weights(w, vec![0.0; out_dim], act).expect("shapes agree by construction")
    }

    /// A layer with row-major weights `w` (`in_dim x out_dim`) and bias
    /// `b` (`out_dim`). A tensor whose storage is not `rows * cols` long,
    /// or a bias of another width, is rejected here, so a step never
    /// sees a malformed weight.
    pub fn from_weights(w: Tensor, b: Vec<f32>, act: Activation) -> Result<Self> {
        if w.data.len() != w.rows * w.cols || b.len() != w.cols {
            return Err(DappleError::InvalidConfig(format!(
                "a {} x {} weight tensor holding {} values, with {} biases",
                w.rows,
                w.cols,
                w.data.len(),
                b.len()
            )));
        }
        let (mut packed, mut packed_t) = (PackedRhs::new(), PackedRhs::new());
        packed.pack(&w);
        packed_t.pack_transposed(&w);
        Ok(Dense {
            w: packed,
            wt: packed_t,
            b,
            act,
        })
    }

    /// `W` as a row-major tensor (a copy).
    pub fn weights(&self) -> Tensor {
        self.w.to_tensor()
    }

    /// `W` as stored: the panels the forward product streams.
    pub fn packed_weights(&self) -> &PackedRhs {
        &self.w
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.dims().0
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.dims().1
    }

    /// Forward pass: `y = act(x W + b)`.
    ///
    /// The backward pass takes `x` and `y` explicitly, so nothing is
    /// cloned into a cache here — the caller keeps both tensors alive
    /// (the hot 1F1B path stores the per-layer `y` chain once, instead
    /// of the old `DenseCache` which duplicated every activation).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut y = Tensor::zeros(x.rows, self.out_dim());
        self.forward_into(x, &mut y);
        y
    }

    /// [`Dense::forward`] into a caller-provided buffer (recycled contents
    /// allowed). Bit-identical to `forward`, without the allocation.
    ///
    /// Bias and activation are the product's epilogue, applied to each
    /// band of rows by the thread that has just computed it — `v + b`
    /// rounded, then the activation, as two passes would.
    pub fn forward_into(&self, x: &Tensor, y: &mut Tensor) {
        assert_eq!(self.b.len(), self.out_dim(), "bias length");
        let b = &self.b[..];
        x.matmul_with_into(Rhs::Packed(&self.w), y, |rows| match self.act {
            Activation::Identity => map_rows(rows, b, |z| z),
            Activation::Relu => map_rows(rows, b, |z| z.max(0.0)),
            Activation::Tanh => map_rows(rows, b, tanh),
        });
    }

    /// Backward pass: input gradient and parameter gradients.
    ///
    /// `x` and `y` are the forward input/output of this layer. `dy` is
    /// used as in-place scratch: on return it holds `dz = dy * act'(y)`,
    /// its original contents are destroyed — but the caller keeps the
    /// buffer, so the boundary-message storage it arrived in can be
    /// recycled. The products run transpose-free: `dW = x^T dz` by
    /// `matmul_tn`, `dx = dz W^T` against the stored `W^T`.
    pub fn backward(&self, x: &Tensor, y: &Tensor, dy: &mut Tensor) -> (Tensor, DenseGrads) {
        let mut g = DenseGrads::zeros_like(self);
        let mut dx = Tensor::zeros(dy.rows, self.in_dim());
        self.backward_grads_into(x, y, dy, &mut dx, &mut g);
        (dx, g)
    }

    /// Fully buffered backward: input gradient *and* parameter gradients
    /// land in caller-provided storage (`g` shaped by
    /// [`DenseGrads::zeros_like`]; recycled contents allowed — every
    /// kernel stores, never accumulates). Bit-identical to `backward`.
    pub fn backward_grads_into(
        &self,
        x: &Tensor,
        y: &Tensor,
        dy: &mut Tensor,
        dx: &mut Tensor,
        g: &mut DenseGrads,
    ) {
        self.scale_by_act_grad(y, dy);
        assert_eq!(x.rows, y.rows, "cache batch mismatch");
        x.matmul_tn_into(dy, &mut g.dw);
        dy.col_sums_into(&mut g.db);
        self.input_grad_into(dy, dx);
    }

    /// The pipeline's backward: this call's `dW`/`db` are *added* into
    /// `acc` by the kernels' epilogues ([`Tensor::matmul_tn_add_into`]),
    /// bit for bit what [`Dense::backward_grads_into`] followed by
    /// [`DenseGrads::accumulate`] leaves there, and with `Some(dx)` the
    /// input gradient lands in `dx`. A caller with no use for the input
    /// gradient (the first layer of a pipeline) passes `None` and skips
    /// that product. Every gradient value is tested on the way: a
    /// non-finite one is added as `+0.0`, and the number of those is
    /// returned.
    pub fn backward_add_into(
        &self,
        x: &Tensor,
        y: &Tensor,
        dy: &mut Tensor,
        acc: &mut DenseGrads,
        dx: Option<&mut Tensor>,
    ) -> usize {
        self.scale_by_act_grad(y, dy);
        let zeroed = x.matmul_tn_add_into(dy, &mut acc.dw) + dy.col_sums_add_into(&mut acc.db);
        if let Some(dx) = dx {
            self.input_grad_into(dy, dx);
        }
        zeroed
    }

    /// `dx = dz W^T`, the `nn` product against the stored `W^T`.
    fn input_grad_into(&self, dz: &Tensor, dx: &mut Tensor) {
        dz.matmul_with_into(Rhs::Packed(&self.wt), dx, |_| {});
    }

    /// `dz = dy * act'(y)`, in place, the derivative expressed through the
    /// activation *output* `y`.
    fn scale_by_act_grad(&self, y: &Tensor, dy: &mut Tensor) {
        assert_eq!(dy.rows, y.rows, "grad batch mismatch");
        assert_eq!(dy.cols, y.cols, "grad width mismatch");
        let (dy, y) = (&mut dy.data[..], &y.data[..]);
        match self.act {
            // `dy · 1` is `dy`.
            Activation::Identity => {}
            Activation::Relu => scale(dy, y, |y| if y > 0.0 { 1.0 } else { 0.0 }),
            Activation::Tanh => scale(dy, y, |y| 1.0 - y * y),
        }
    }

    /// Parameter count (weights + biases).
    pub fn num_params(&self) -> usize {
        self.in_dim() * self.out_dim() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of the dense backward pass.
    #[test]
    fn backward_matches_finite_differences() {
        for act in [Activation::Identity, Activation::Tanh] {
            let layer = Dense::new(3, 2, act, 42);
            let x = Tensor::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.5, 0.4, -0.1]);
            let loss = |l: &Dense, x: &Tensor| -> f32 {
                let y = l.forward(x);
                y.data.iter().map(|v| v * v).sum::<f32>() * 0.5
            };
            let y = layer.forward(&x);
            let mut dy = y.clone(); // dL/dy for L = 0.5 sum y^2
            let (dx, grads) = layer.backward(&x, &y, &mut dy);

            let eps = 1e-3f32;
            // Check dW numerically at a few coordinates.
            let nudged = |delta: f32, at: usize| {
                let mut w = layer.weights();
                w.data[at] += delta;
                Dense::from_weights(w, layer.b.clone(), act).unwrap()
            };
            for &(r, c) in &[(0usize, 0usize), (2, 1), (1, 0)] {
                let (lp, lm) = (nudged(eps, r * 2 + c), nudged(-eps, r * 2 + c));
                let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * eps);
                let ana = grads.dw.at(r, c);
                assert!(
                    (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                    "{act:?} dW[{r},{c}]: {num} vs {ana}"
                );
            }
            // Check dx numerically.
            for i in 0..3 {
                let mut xp = x.clone();
                xp.data[i] += eps;
                let mut xm = x.clone();
                xm.data[i] -= eps;
                let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
                let ana = dx.data[i];
                assert!(
                    (num - ana).abs() < 2e-2 * ana.abs().max(1.0),
                    "{act:?} dx[{i}]: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn relu_masks_gradients() {
        let w = Tensor::from_vec(1, 2, vec![1.0, -1.0]);
        let layer = Dense::from_weights(w, vec![0.0, 0.0], Activation::Relu).unwrap();
        let x = Tensor::from_vec(1, 1, vec![2.0]); // y = [2, 0(-2 clipped)]
        let y = layer.forward(&x);
        assert_eq!(y.data, vec![2.0, 0.0]);
        let mut dy = Tensor::from_vec(1, 2, vec![1.0, 1.0]);
        let (_, grads) = layer.backward(&x, &y, &mut dy);
        // The clipped unit contributes no gradient.
        assert_eq!(grads.dw.data, vec![2.0, 0.0]);
        assert_eq!(grads.db, vec![1.0, 0.0]);
    }

    #[test]
    fn accumulate_sums_gradients() {
        let layer = Dense::new(2, 2, Activation::Identity, 3);
        let x = Tensor::from_vec(1, 2, vec![1.0, 2.0]);
        let y = layer.forward(&x);
        let mut dy = y.clone();
        let (_, g1) = layer.backward(&x, &y, &mut dy);
        let mut acc = DenseGrads::zeros_like(&layer);
        acc.accumulate(&g1);
        acc.accumulate(&g1);
        for (a, b) in acc.dw.data.iter().zip(&g1.dw.data) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn deterministic_init() {
        let a = Dense::new(4, 3, Activation::Tanh, 123);
        let b = Dense::new(4, 3, Activation::Tanh, 123);
        assert_eq!(a, b);
        let c = Dense::new(4, 3, Activation::Tanh, 124);
        assert_ne!(a, c);
    }

    /// The layer stores `W` and `W^T` from the row-major values it is
    /// given, and hands the same values back.
    #[test]
    fn weights_round_trip_through_both_layouts() {
        let w = Tensor::from_vec(3, 37, (0..111).map(|v| v as f32 - 50.0).collect());
        let layer = Dense::from_weights(w.clone(), vec![0.5; 37], Activation::Tanh).unwrap();
        assert_eq!(layer.weights(), w);
        assert_eq!(layer.wt.to_tensor(), w.transpose());
        assert_eq!(
            (layer.in_dim(), layer.out_dim(), layer.num_params()),
            (3, 37, 148)
        );
    }
}
