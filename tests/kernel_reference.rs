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

use dapple::engine::{PackedRhs, Rhs, Tensor};
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
/// the activation of the rounded sum — against `W` where it lies and
/// against its pack, serial and banded.
#[test]
fn dense_forward_is_product_then_bias_then_activation() {
    use dapple::engine::{Activation, Dense};
    for (n, k, m) in [(5, 9, 33), (70, 64, 480)] {
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh] {
            let layer = Dense {
                w: Tensor::from_vec(k, m, fill(2, 17, k * m)),
                b: fill(3, 17, m),
                act,
            };
            let x = Tensor::from_vec(n, k, fill(1, 17, n * k));
            let mut want = ref_matmul(&x, &layer.w);
            for row in want.data.chunks_mut(m) {
                row.iter_mut().zip(&layer.b).for_each(|(v, b)| *v += *b);
            }
            for v in &mut want.data {
                *v = match act {
                    Activation::Identity => *v,
                    Activation::Relu => v.max(0.0),
                    Activation::Tanh => v.tanh(),
                };
            }
            assert_bits_eq(&layer.forward(&x), &want, "forward");
            let mut packed = PackedRhs::new();
            packed.pack(&layer.w);
            let mut y = Tensor::from_vec(n, m, vec![f32::NAN; n * m]);
            layer.forward_packed_into(&packed, &x, &mut y);
            assert_bits_eq(&y, &want, "forward_packed_into");
        }
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
