//! Pins the SIMD matmul kernels to the canonical accumulation order
//! (crates/engine/src/tensor.rs module docs, determinism contract v2).
//!
//! Every variant — `matmul`, `matmul_tn`, `matmul_nt`, their `_into`
//! forms, and the product against a right-hand side packed beforehand
//! (`PackedRhs::pack` / `pack_transposed`, then `matmul_with_into`) —
//! must be *bit-identical* to an independent scalar reference
//! implementing the documented order: one ascending fused
//! (`f32::mul_add`) chain per output element, starting from `0.0`.
//! Register tiling, column panels, ragged edges, the AVX-512 fast path,
//! the panel-major layout and the worker pool's row-banding are all
//! implementation details that may never change a single bit — and
//! neither may what follows a chain: the band epilogue sees every element
//! once, and `matmul_tn_add_into` is a store followed by `add_assign`.
//!
//! Thread-count invariance is pinned the same way from two sides: the
//! properties here cover shapes below and above the parallel work
//! threshold, and CI runs this suite (and the determinism suite) again
//! under `RAYON_NUM_THREADS` = 1, 3 and 8 — no helper, an odd pool, and
//! more helpers than the host has cores or a matmul has bands. Since
//! every result must equal the same scalar reference at any pool size,
//! runs at different sizes are transitively bit-identical.
//!
//! The activation is part of the contract too: `tanh` is a documented
//! sequence of IEEE-754 operations (`crates/engine/src/layer.rs`), pinned
//! here by a golden table, an accuracy sweep against `f64`, and the
//! vectorized epilogue against the scalar function — and CI runs this
//! suite on three builds (x86-64-v4, x86-64-v3, and x86-64 without FMA
//! hardware), so the same table holds on each. The data generator, which
//! uses both the product and `tanh`, is pinned against a scalar model of
//! its documented order.

use dapple::engine::{data, tanh, Activation, Dense, PackedRhs, Rhs, Tensor};
use proptest::prelude::*;

/// Independent scalar model of the canonical order. Deliberately naive:
/// no tiling, no SIMD, just the documented chain.
fn ref_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows, b.cols);
    for r in 0..a.rows {
        for c in 0..b.cols {
            let mut acc = 0.0f32;
            for i in 0..a.cols {
                acc = a.at(r, i).mul_add(b.at(i, c), acc);
            }
            out.data[r * b.cols + c] = acc;
        }
    }
    out
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{what} shape");
    for (i, (x, y)) in got.data.iter().zip(&want.data).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} element {i}: {x} vs {y}");
    }
}

/// Deterministic pseudo-random fill with signs, zeros and magnitude
/// spread — enough structure to expose reassociation.
fn fill(salt: u64, seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u64 + salt).wrapping_mul(seed.wrapping_mul(2) + 12345);
            ((h % 23) as f32 - 11.0) * 0.173
        })
        .collect()
}

/// All three variants against the reference on one shape.
fn check_shape(n: usize, k: usize, m: usize, seed: u64) {
    let a = Tensor::from_vec(n, k, fill(1, seed, n * k));
    let b = Tensor::from_vec(k, m, fill(2, seed, k * m));
    let want = ref_matmul(&a, &b);
    assert_bits_eq(&a.matmul(&b), &want, "matmul");
    // TN: same product expressed through the transposed lhs.
    let at = a.transpose();
    assert_bits_eq(&at.matmul_tn(&b), &want, "matmul_tn");
    // NT: same product expressed through the transposed rhs.
    let bt = b.transpose();
    assert_bits_eq(&a.matmul_nt(&bt), &want, "matmul_nt");
    // The _into forms overwrite recycled garbage completely.
    let mut dirty = Tensor::from_vec(n, m, vec![f32::NAN; n * m]);
    a.matmul_into(&b, &mut dirty);
    assert_bits_eq(&dirty, &want, "matmul_into");
    dirty.data.fill(f32::INFINITY);
    at.matmul_tn_into(&b, &mut dirty);
    assert_bits_eq(&dirty, &want, "matmul_tn_into");
    dirty.data.fill(-1e30);
    a.matmul_nt_into(&bt, &mut dirty);
    assert_bits_eq(&dirty, &want, "matmul_nt_into");
    check_packed(&a, &b, &want);
}

/// `a * b` against both packs of `b` — packed as it lies, and packed
/// from its transpose — each into storage that last held a larger
/// matrix of NaNs, multiplied twice over recycled output.
fn check_packed(a: &Tensor, b: &Tensor, want: &Tensor) {
    let larger = Tensor::from_vec(
        b.rows + 3,
        b.cols + 33,
        vec![f32::NAN; (b.rows + 3) * (b.cols + 33)],
    );
    let bt = b.transpose();
    let mut out = Tensor::zeros(a.rows, b.cols);
    for transposed in [false, true] {
        let mut packed = PackedRhs::new();
        packed.pack(&larger);
        if transposed {
            packed.pack_transposed(&bt);
        } else {
            packed.pack(b);
        }
        assert_eq!(packed.dims(), (b.rows, b.cols));
        for garbage in [f32::NAN, 7.5] {
            out.data.fill(garbage);
            a.matmul_with_into(Rhs::Packed(&packed), &mut out, |_| {});
            assert_bits_eq(
                &out,
                want,
                if transposed {
                    "pack_transposed"
                } else {
                    "pack"
                },
            );
        }
    }
}

/// Shapes straddling every tile boundary: single row/column, exact
/// tile multiples, one-off ragged edges, and panel-width steps.
#[test]
fn tile_boundary_shapes_match_reference() {
    for &(n, k, m) in &[
        (1, 1, 1),
        (1, 7, 1),
        (8, 16, 32),  // exactly one 8x32 tile
        (9, 16, 33),  // one ragged row and column past the tile
        (7, 5, 31),   // everything below tile sizes, m % 8 != 0
        (16, 3, 40),  // two row tiles, 32 + 8 panels
        (33, 33, 17), // band boundary (32) + 16/1 panels
        (40, 64, 48), // multiple full tiles each way
    ] {
        check_shape(n, k, m, 11);
    }
}

/// `k == 0` is the empty chain: exact `0.0` everywhere, even into a
/// dirty recycled buffer.
#[test]
fn empty_inner_dimension_is_exact_zero() {
    let a = Tensor::zeros(3, 0);
    let b = Tensor::zeros(0, 5);
    let got = a.matmul(&b);
    assert!(got.data.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    let mut dirty = Tensor::from_vec(3, 5, vec![f32::NAN; 15]);
    a.matmul_into(&b, &mut dirty);
    assert!(dirty.data.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
    let bt = Tensor::zeros(5, 0);
    let mut dirty = Tensor::from_vec(3, 5, vec![f32::NAN; 15]);
    a.matmul_nt_into(&bt, &mut dirty);
    assert!(dirty.data.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
}

/// `0 * NaN` must stay NaN in every variant and every tile path (the
/// PR-2 zero-skip regression must not return under SIMD).
#[test]
fn zero_times_nan_propagates_in_all_variants() {
    let n = 40; // wide enough to hit the 8x32 fast path
    let mut av = vec![0.0f32; n * n];
    av[17] = 1.0;
    let a = Tensor::from_vec(n, n, av);
    let mut bv = fill(3, 5, n * n);
    for r in 0..n {
        bv[r * n + 20] = f32::NAN; // column 20 poisons every output row
    }
    let b = Tensor::from_vec(n, n, bv);
    for (name, got) in [
        ("matmul", a.matmul(&b)),
        ("matmul_tn", a.transpose().matmul_tn(&b)),
        ("matmul_nt", a.matmul_nt(&b.transpose())),
    ] {
        for r in 0..n {
            assert!(got.at(r, 20).is_nan(), "{name}: 0*NaN swallowed at row {r}");
        }
    }
}

/// Above the parallel work threshold the rayon row-banding must not
/// change a bit relative to the same scalar reference. (160^3 ≈ 4M
/// multiply-adds > the 2M gate; the small shapes in the other tests
/// stay serial, so both dispatch paths are pinned.)
#[test]
fn parallel_path_matches_reference_bitwise() {
    check_shape(160, 160, 160, 7);
}

/// Skinny and fat shapes around the FLOP-based parallel gate: a deep
/// inner dimension parallelizes correctly (the old output-element gate
/// kept it serial) and a trivial `k == 1` product stays correct while
/// skipping thread dispatch.
#[test]
fn skinny_and_fat_shapes_match_reference() {
    check_shape(32, 4096, 24, 3); // deep k: above the gate despite the small output
    check_shape(96, 1, 96, 4); // trivial k: below the gate despite the large output
    check_shape(1, 512, 257, 5); // single-row activation against a wide layer
}

/// The packed product over every panel-width sequence (`m % 32` on both
/// sides of 8 and 16), row counts that end in every row-tile height,
/// inner dimensions around the empty chain and around 64, below the
/// parallel gate and above it.
#[test]
fn packed_rhs_matches_reference_over_ragged_shapes() {
    let mut seed = 0;
    let mut check = |n: usize, k: usize, m: usize| {
        seed += 1;
        let a = Tensor::from_vec(n, k, fill(1, seed, n * k));
        let b = Tensor::from_vec(k, m, fill(2, seed, k * m));
        check_packed(&a, &b, &ref_matmul(&a, &b));
    };
    for r in [0, 1, 7, 8, 9, 15, 16, 17, 31] {
        for k in [0, 1, 2, 63, 64, 65] {
            check(13, k, 32 + r);
            check(7, k, r.max(1));
        }
        for k in [63, 64, 65] {
            // 70 rows: two full bands and a 6-row one (4 + 2).
            assert!(70 * k * (480 + r) >= 2 * 1024 * 1024);
            check(70, k, 480 + r);
        }
    }
    check(1450, 1, 1447); // above the gate on the shortest chain
    check(1030, 2, 1031);
}

/// The epilogue of `matmul_with_into` is handed whole rows, and every
/// element exactly once, whichever layout the right-hand side has and
/// however many bands (and pool threads — CI runs this at 1, 3 and 8)
/// share the product: adding one in the epilogue gives `reference + 1`.
#[test]
fn band_epilogue_touches_every_element_once() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    for (n, k, m) in [(5, 9, 33), (3, 0, 5), (200, 64, 170), (33, 2048, 40)] {
        let a = Tensor::from_vec(n, k, fill(1, 9, n * k));
        let b = Tensor::from_vec(k, m, fill(2, 9, k * m));
        let mut want = ref_matmul(&a, &b);
        want.data.iter_mut().for_each(|v| *v += 1.0);
        let mut packed = PackedRhs::new();
        packed.pack(&b);
        for rhs in [Rhs::RowMajor(&b), Rhs::Packed(&packed)] {
            let touched = AtomicUsize::new(0);
            let mut out = Tensor::from_vec(n, m, vec![f32::NAN; n * m]);
            a.matmul_with_into(rhs, &mut out, |rows| {
                assert_eq!(rows.len() % m, 0, "an epilogue sees whole rows");
                touched.fetch_add(rows.len(), Ordering::Relaxed);
                rows.iter_mut().for_each(|v| *v += 1.0);
            });
            assert_eq!(touched.into_inner(), n * m);
            assert_bits_eq(&out, &want, "product + 1");
        }
    }
}

/// `Dense::forward`, whose bias and activation ride in that epilogue, is
/// the product followed by two separate passes — `v + b` rounded, then
/// the activation of the rounded sum — against the layer's stored
/// panels, serial and banded, into a fresh or a recycled buffer. The
/// backward's input gradient, against the stored `W^T`, is `dz W^T`.
#[test]
fn dense_forward_is_product_then_bias_then_activation() {
    for (n, k, m) in [(5, 9, 33), (70, 64, 480)] {
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh] {
            let w = Tensor::from_vec(k, m, fill(2, 17, k * m));
            let layer = Dense::from_weights(w.clone(), fill(3, 17, m), act).unwrap();
            let x = Tensor::from_vec(n, k, fill(1, 17, n * k));
            let mut want = ref_matmul(&x, &w);
            for row in want.data.chunks_mut(m) {
                row.iter_mut().zip(&layer.b).for_each(|(v, b)| *v += *b);
            }
            for v in &mut want.data {
                *v = match act {
                    Activation::Identity => *v,
                    Activation::Relu => v.max(0.0),
                    Activation::Tanh => tanh(*v),
                };
            }
            assert_bits_eq(&layer.forward(&x), &want, "forward");
            let mut y = Tensor::from_vec(n, m, vec![f32::NAN; n * m]);
            layer.forward_into(&x, &mut y);
            assert_bits_eq(&y, &want, "forward_into");
            // Identity keeps `dz = dy`, so the input gradient is the bare
            // product against `W^T`.
            if act == Activation::Identity {
                let mut dy = Tensor::from_vec(n, m, fill(4, 17, n * m));
                let want = ref_matmul(&dy, &w.transpose());
                let (dx, _) = layer.backward(&x, &layer.forward(&x), &mut dy);
                assert_bits_eq(&dx, &want, "backward dx");
            }
        }
    }
}

/// `(input bits, output bits)` of `tanh`, generated once from its
/// documented operation sequence: ±0, the smallest and largest subnormals
/// and the smallest normal, the `4e-4` threshold and the `7.998 811 7`
/// knee with their neighbours, ±`f32::MAX`, ±∞, NaN, and values in
/// between (`0x40a40883`, `x ≈ 5.126`, is where the error peaks).
const TANH_GOLDEN: [(u32, u32); 32] = [
    (0x0000_0000, 0x0000_0000),
    (0x8000_0000, 0x8000_0000),
    (0x0000_0001, 0x0000_0001),
    (0x8000_0001, 0x8000_0001),
    (0x007f_ffff, 0x007f_ffff),
    (0x0080_0000, 0x0080_0000),
    (0x39d1_b716, 0x39d1_b716), // just below the threshold: x itself
    (0x39d1_b717, 0x39d1_b714), // 4e-4: the rational
    (0x39d1_b718, 0x39d1_b716),
    (0xb9d1_b717, 0xb9d1_b714),
    (0x3a83_126f, 0x3a83_126b), // 1e-3
    (0x3dcc_cccd, 0x3dcc_1ebb), // 0.1
    (0x3e80_0000, 0x3e7a_cbf5), // 0.25
    (0x3f00_0000, 0x3eec_9a9f), // 0.5
    (0xbf00_0000, 0xbeec_9a9f),
    (0x3f80_0000, 0x3f42_f7d6), // 1
    (0xbf80_0000, 0xbf42_f7d6),
    (0x4000_0000, 0x3f76_ca83), // 2
    (0x4040_0000, 0x3f7e_bbe8), // 3
    (0x40a4_0883, 0x3f7f_fb65), // 5.126
    (0x40ff_f643, 0x3f7f_fffc), // just below the knee: the rational
    (0x40ff_f644, 0x3f80_0000), // the knee: exactly 1
    (0x40ff_f645, 0x3f80_0000),
    (0xc0ff_f643, 0xbf7f_fffc),
    (0xc0ff_f644, 0xbf80_0000),
    (0x4100_0000, 0x3f80_0000), // 8
    (0x42c8_0000, 0x3f80_0000), // 100
    (0x7f7f_ffff, 0x3f80_0000),
    (0xff7f_ffff, 0xbf80_0000),
    (0x7f80_0000, 0x3f80_0000), // +∞
    (0xff80_0000, 0xbf80_0000), // -∞
    (0x7fc0_0000, 0x7fc0_0000), // NaN: any NaN out
];

#[test]
fn tanh_matches_its_golden_table() {
    for (x, want) in TANH_GOLDEN {
        let got = tanh(f32::from_bits(x));
        if f32::from_bits(want).is_nan() {
            assert!(got.is_nan(), "tanh({x:#010x}) = {got}, want NaN");
        } else {
            assert_eq!(got.to_bits(), want, "tanh({x:#010x}) = {got}");
        }
    }
}

/// Every 4099th finite non-negative `f32` — every binade, about half a
/// million values: within the documented 5 ulp of `tanh` evaluated in
/// `f64` (an ulp being the `f32` spacing in the exact value's binade),
/// never above 1 in magnitude, and odd bit for bit.
#[test]
fn tanh_is_within_five_ulp_bounded_and_odd() {
    let ulp = |exact: f64| {
        let binade = ((exact.abs().to_bits() >> 52) as i32 - 1023).max(-126);
        2f64.powi(binade - 23)
    };
    for bits in (0..f32::INFINITY.to_bits()).step_by(4099) {
        let x = f32::from_bits(bits);
        let y = tanh(x);
        let exact = f64::from(x).tanh();
        let err = (f64::from(y) - exact).abs() / ulp(exact);
        assert!(
            err <= 5.0,
            "tanh({x:e}) = {y:e}: {err:.2} ulp from {exact:e}"
        );
        assert!(y.abs() <= 1.0, "tanh({x:e}) = {y:e}");
        assert_eq!(tanh(-x).to_bits(), (-y).to_bits(), "tanh(-{x:e})");
    }
}

/// The forward epilogue's `tanh` — a slice map the compiler vectorizes —
/// equals the scalar function called one element at a time, bitwise, on
/// rows of every length from 0 to 67 (whole 16-lane bodies plus every
/// ragged tail), over values that include zero, subnormals, the
/// threshold, the knee, `f32::MAX`, ±∞ and NaN.
#[test]
fn vectorized_tanh_equals_the_scalar_function() {
    const SPECIAL: [f32; 14] = [
        0.0,
        -0.0,
        1e-45,
        -1e-40,
        4e-4,
        -4e-4,
        0.1,
        f32::from_bits(0x40ff_f643),
        -f32::from_bits(0x40ff_f644),
        9.0,
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    // Through a fn pointer the optimizer cannot see through: a call per
    // element, never a vector loop.
    let scalar: fn(f32) -> f32 = std::hint::black_box(tanh);
    let value = |c: usize| match c % 2 {
        0 => SPECIAL[c / 2 % SPECIAL.len()],
        _ => ((c * 7919) % 201) as f32 * 0.05 - 5.0,
    };
    for m in 0..=67 {
        // Three rows, the values scaled by 1, -1 and 0.5 in the product
        // (k = 1); a `-0.0` bias keeps every sum the product's value.
        let x = Tensor::from_vec(3, 1, vec![1.0, -1.0, 0.5]);
        let w = Tensor::from_vec(1, m, (0..m).map(value).collect());
        let layer = Dense::from_weights(w.clone(), vec![-0.0; m], Activation::Tanh).unwrap();
        let mut want = ref_matmul(&x, &w);
        for row in want.data.chunks_mut(m.max(1)) {
            for (v, b) in row.iter_mut().zip(&layer.b) {
                *v = scalar(*v + *b);
            }
        }
        let got = layer.forward(&x);
        for (i, (g, w)) in got.data.iter().zip(&want.data).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "m = {m}, element {i}: {g:e} vs {w:e}");
        }
    }
}

/// `regression_batch` is its documented draw order and arithmetic: `W`
/// drawn first, then each sample's inputs and its noise; `x` is exactly
/// those inputs, and `t` is `tanh` of the ascending fused chain
/// `x·W`, plus the noise — modelled here one scalar at a time.
#[test]
fn regression_batch_is_the_documented_draw_and_product() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    for (samples, in_dim, out_dim, seed) in [(7, 5, 3, 1), (33, 64, 32, 11), (2, 1, 9, 4)] {
        let (x, t) = data::regression_batch(samples, in_dim, out_dim, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..in_dim * out_dim)
            .map(|_| rng.random::<f32>() * 2.0 - 1.0)
            .collect();
        let draws: Vec<(Vec<f32>, Vec<f32>)> = (0..samples)
            .map(|_| {
                let inputs = (0..in_dim)
                    .map(|_| rng.random::<f32>() * 2.0 - 1.0)
                    .collect();
                let noise = (0..out_dim)
                    .map(|_| (rng.random::<f32>() - 0.5) * 0.02)
                    .collect();
                (inputs, noise)
            })
            .collect();
        for (r, (inputs, noise)) in draws.iter().enumerate() {
            for (c, v) in inputs.iter().enumerate() {
                assert_eq!(x.at(r, c).to_bits(), v.to_bits(), "x[{r}][{c}]");
            }
            for (o, noise) in noise.iter().enumerate() {
                let chain =
                    (0..in_dim).fold(0.0f32, |acc, c| inputs[c].mul_add(w[c * out_dim + o], acc));
                let want = tanh(chain) + noise;
                assert_eq!(t.at(r, o).to_bits(), want.to_bits(), "t[{r}][{o}]");
            }
        }
    }
}

/// A NaN input row still ends a pipeline step in `NonFinite`, at the
/// micro-batch that carries it: the row poisons the first layer's `dW`
/// directly and every later layer through `tanh`, and skipping the first
/// stage's input gradient hides nothing, since that gradient was never
/// checked.
#[test]
fn a_nan_input_row_ends_the_step_non_finite() {
    use dapple::engine::{EngineConfig, MlpModel, PipelineTrainer};
    use dapple_core::DappleError;
    let (mut x, t) = data::regression_batch(24, 5, 3, 9);
    // Row 7: the second of four 6-row micro-batches.
    x.data[7 * 5..8 * 5].fill(f32::NAN);
    let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
    let model = MlpModel::new(&[5, 12, 10, 8, 8, 4, 3], 77);
    let trainer = PipelineTrainer::new(model, cfg).expect("valid config");
    match trainer.step_grads(&x, &t) {
        Err(DappleError::NonFinite { micro, .. }) => assert_eq!(micro, 1),
        other => panic!("a NaN input row must end the step NonFinite, got {other:?}"),
    }
}

/// What `matmul_tn_add_into` must equal: the stored product, its
/// non-finite values counted and zeroed, then `add_assign`.
fn store_check_add(at: &Tensor, b: &Tensor, dst: &Tensor) -> (Tensor, usize) {
    let mut contribution = at.matmul_tn(b);
    let mut bad = 0;
    for v in contribution.data.iter_mut().filter(|v| !v.is_finite()) {
        *v = 0.0;
        bad += 1;
    }
    let mut want = dst.clone();
    want.add_assign(&contribution);
    (want, bad)
}

/// `matmul_tn_add_into` is `matmul_tn_into` + `add_assign` bit for bit —
/// on clean inputs, and on contributions holding NaN, both infinities
/// and an overflow to infinity from finite operands in a single lane,
/// each added as `+0.0` and counted — into a destination that holds
/// `-0.0`; serial and banded, every tile shape, `k = 0` included.
#[test]
fn tn_add_is_store_then_add_assign_bitwise() {
    for (k, n, m) in [
        (0, 5, 7),
        (1, 1, 1),
        (9, 13, 31),
        (17, 40, 72),
        (64, 200, 170),
    ] {
        let mut at = Tensor::from_vec(k, n, fill(1, 31, k * n));
        let mut b = Tensor::from_vec(k, m, fill(2, 31, k * m));
        let mut dst = Tensor::from_vec(n, m, fill(3, 31, n * m));
        dst.data.iter_mut().step_by(5).for_each(|v| *v = -0.0);

        let (want, bad) = store_check_add(&at, &b, &dst);
        assert_eq!(bad, 0, "the clean contribution is finite");
        let mut got = dst.clone();
        assert_eq!(at.matmul_tn_add_into(&b, &mut got), 0);
        assert_bits_eq(&got, &want, "clean matmul_tn_add_into");
        if k == 0 {
            continue;
        }

        // Column 0 of the contribution: NaN. Column m - 1: ±∞ (or NaN
        // under a zero of `at`). One more lane, (n - 1, m / 2): finite
        // operands whose product overflows.
        b.data[0] = f32::NAN;
        b.data[(k - 1) * m + m - 1] = f32::NEG_INFINITY;
        at.data[..n].iter_mut().for_each(|v| *v = v.abs() + 1.0);
        for t in 0..k {
            at.data[t * n + n - 1] = if t == 0 { 1e30 } else { 0.0 };
        }
        b.data[m / 2] = 1e9;
        assert!(at.data.iter().all(|v| v.is_finite()) && b.data[m / 2].is_finite());
        let (want, bad) = store_check_add(&at, &b, &dst);
        let overflow_only = usize::from(m > 2);
        assert!(
            bad >= n + overflow_only,
            "{k} x {n} x {m}: {bad} poisoned values"
        );
        let mut got = dst.clone();
        assert_eq!(at.matmul_tn_add_into(&b, &mut got), bad, "{k} x {n} x {m}");
        assert_bits_eq(&got, &want, "poisoned matmul_tn_add_into");
    }
}

/// `a * b` computed one output row at a time: every sub-product is far
/// below the parallel gate, so this is the single-threaded kernel's
/// answer for operands whose full product goes through the pool.
fn matmul_row_by_row(a: &Tensor, b: &Tensor) -> Tensor {
    let rows: Vec<Tensor> = (0..a.rows)
        .map(|r| a.slice_rows(r..r + 1).matmul(b))
        .collect();
    Tensor::concat_rows(&rows)
}

/// Several threads post jobs to the one worker pool at once: four
/// callers, each 200 rounds of all three variants on its own above-gate
/// shape, every result bit-identical to the single-threaded kernel on
/// the same operands. The helpers are shared, the jobs queue, and
/// nothing may deadlock — the bounded wait for the callers is the
/// timeout.
#[test]
fn concurrent_callers_share_the_pool_without_changing_a_bit() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let callers: Vec<_> = [
        (160, 160, 160),
        (64, 512, 96),
        (40, 2048, 33),
        (512, 64, 72),
    ]
    .into_iter()
    .enumerate()
    .map(|(t, (n, k, m))| {
        let done = done_tx.clone();
        std::thread::spawn(move || {
            assert!(n * k * m >= 2 * 1024 * 1024, "shape must be above the gate");
            let seed = 20 + t as u64;
            let a = Tensor::from_vec(n, k, fill(1, seed, n * k));
            let b = Tensor::from_vec(k, m, fill(2, seed, k * m));
            let (at, bt) = (a.transpose(), b.transpose());
            let want = matmul_row_by_row(&a, &b);
            let mut out = Tensor::zeros(n, m);
            for round in 0..200 {
                a.matmul_into(&b, &mut out);
                assert_bits_eq(&out, &want, &format!("caller {t} round {round} matmul"));
                at.matmul_tn_into(&b, &mut out);
                assert_bits_eq(&out, &want, &format!("caller {t} round {round} matmul_tn"));
                a.matmul_nt_into(&bt, &mut out);
                assert_bits_eq(&out, &want, &format!("caller {t} round {round} matmul_nt"));
            }
            done.send(t).expect("the test is still waiting");
        })
    })
    .collect();
    drop(done_tx);
    for _ in 0..callers.len() {
        // A caller that panicked drops its sender: a disconnect, not a
        // timeout, and the join below reports its message.
        match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
            Ok(_) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("a caller is stuck in the pool after 120 s")
            }
        }
    }
    for caller in callers {
        caller.join().expect("caller thread");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random ragged shapes: every variant, every `_into` form, bitwise
    /// equal to the scalar canonical order.
    #[test]
    fn random_shapes_match_reference(
        n in 1usize..24, k in 0usize..24, m in 1usize..24, seed in 0u64..1000
    ) {
        check_shape(n, k, m, seed);
    }
}
