//! A minimal row-major 2-D tensor.
//!
//! Deliberately small: dense matmul, transpose, row slicing/concat and
//! element-wise helpers — everything an MLP pipeline needs, nothing more.
//! Above a work threshold a matmul hands its row bands to the process-wide
//! worker pool behind the rayon stub: the calling thread takes bands
//! itself and parked helpers claim the rest, so no thread is created.
//!
//! # Canonical accumulation order (determinism contract, v2)
//!
//! Every matmul result is defined by a fixed, documented accumulation
//! order, so results are bit-identical run to run, thread count to
//! thread count, and machine to machine:
//!
//! * **All products are fused.** Each `a·b` term enters its accumulator
//!   through [`f32::mul_add`] — IEEE-754 `fusedMultiplyAdd`, a single
//!   rounding, identically defined on every target (hardware FMA where
//!   available, exact software fallback otherwise). This is the change
//!   from v1, which used separately rounded multiply-then-add.
//! * **One order for all three variants.** Each output element is one
//!   fused chain over the inner dimension in ascending order,
//!   `acc = fma(a_i, b_i, acc)` starting from `0.0`. SIMD comes from
//!   vectorizing *across output columns* (each vector lane is a
//!   different output element), which never reassociates the
//!   per-element chain. A scalar implementation of the same order
//!   produces the same bits (see `tests/kernel_reference.rs`).
//!
//! Consequences: `matmul_tn(b)` is bit-identical to
//! `transpose().matmul(b)` and `matmul_nt(b)` is bit-identical to
//! `matmul(b.transpose())` — the transpose-free variants change memory
//! traffic, never bits.
//!
//! # Layout and epilogues are not arithmetic
//!
//! A right-hand side is multiplied where it lies or from a [`PackedRhs`]:
//! the same `k x m` values stored as the column panels the tiles walk
//! (32 → 16 → 8 → 1 wide), each a contiguous `[k][w]` block, so one panel
//! of a wide matrix spans a handful of pages instead of one per row. The
//! tiles take a panel's base and row stride ([`Rhs`]) and run the same
//! chain on either layout; `matmul_nt` is [`PackedRhs::pack_transposed`]
//! into a thread-local pack followed by that product. The `tn` tiles
//! take their output's base and row stride the same way, so `matmul_tn`
//! stores a row-major tensor or a panel-major one
//! ([`Tensor::matmul_tn_packed_into`]) with the same chains. A `Dense`
//! layer keeps `W`, `W^T` beside it, and its gradient `dW` in this
//! layout and updates them there, so no product of a layer packs; no
//! size heuristic packs on a caller's behalf.
//!
//! What becomes of a finished chain is outside it too. The `nn` product
//! hands each band's finished rows to an epilogue on the thread that
//! computed them (a `Dense` layer applies bias and activation there), and
//! [`Tensor::matmul_tn_packed_add_into`] adds every finished chain into
//! its destination with one separately rounded `+` — a store followed by
//! an element-wise add, bit for bit. The accumulators are never seeded
//! from the destination and the add is never fused into the chain:
//! either would round differently.
//!
//! Parallelism splits the output into contiguous chunks — bands of rows,
//! or for a panel-major `tn` output runs of whole panels; each output
//! element is computed by exactly one thread with the order above, so
//! the chunking (and thus `RAYON_NUM_THREADS`) cannot change results.
//! Tile and panel grouping inside a chunk are equally irrelevant to
//! bits: every element's chain is independent.
//!
//! # The activation is part of the contract
//!
//! A `Dense` layer's epilogue applies its activation to each rounded
//! `v + b`, and [`Activation::Tanh`](crate::Activation::Tanh) is
//! [`crate::tanh`]: a documented sequence of `mul_add` Horner steps, one
//! multiply, one division and compare/selects, each rounded once per lane
//! — no libm. So a layer's output, like a chain, has the same bits on
//! every host, at every vector width and with or without FMA hardware
//! (`tests/kernel_reference.rs` pins a golden table, and CI runs it on
//! three builds). The data generator uses the same product and `tanh`.
//! One libm dependency remains in the engine's arithmetic:
//! `LossKind::SoftmaxXent` takes `exp` and `ln` from the host's C
//! library, whose bits it does not promise across versions; no benchmark
//! workload uses that loss.

use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Row-major `rows x cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Number of rows (samples).
    pub rows: usize,
    /// Number of columns (features).
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

/// Rows per register tile in the output-stationary kernels: enough that
/// one column-panel load of `b` is reused across several accumulator
/// rows, few enough that the `ROW_TILE x COL_TILE` accumulator block
/// stays in vector registers (8 x 32 f32: sixteen 16-wide accumulators
/// plus two `b` vectors and a broadcast, well under the 32 AVX-512
/// registers).
const ROW_TILE: usize = 8;

/// Rows per parallel band. Within a band the column-panel loop is
/// outermost, so one `COL_TILE`-wide panel of `b` (`k * COL_TILE`
/// floats) stays cache-resident across all the band's row tiles; bands
/// re-read `b`, so they are sized well above [`ROW_TILE`].
const BAND_ROWS: usize = 32;

/// Columns per register tile in the output-stationary kernels (two
/// 16-wide vectors).
const COL_TILE: usize = 32;

/// Minimum multiply-add count (`n·k·m`) before a matmul posts its bands
/// to the worker pool. The gate is on *work*, not output size: a skinny
/// output with a huge inner dimension parallelizes, a large-but-trivial
/// `k == 1` product does not. What it amortises is posting a job and
/// waking a parked helper (microseconds), not a thread spawn; below it
/// the single-threaded kernel finishes before a helper would have woken.
const PAR_MIN_MULS: usize = 2 * 1024 * 1024;

/// Whether `n x k x m` of multiply-adds is worth waking a helper.
#[inline]
fn par_worth_it(n: usize, k: usize, m: usize) -> bool {
    n.saturating_mul(k).saturating_mul(m) >= PAR_MIN_MULS
}

/// The column panels `(first column, width)` of an `m`-wide matrix:
/// always the widest of 32, 16, 8, 1 that still fits.
pub(crate) fn panels(m: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j = 0;
    std::iter::from_fn(move || {
        let w = [COL_TILE, 16, 8, 1].into_iter().find(|w| j + w <= m)?;
        j += w;
        Some((j - w, w))
    })
}

/// A `k x m` matrix stored panel-major: its column panels (32, then 16,
/// 8, 1 wide) one after another, each a contiguous row-major `[k][w]`
/// block, so the tiles stream a panel instead of striding through
/// `m`-wide rows. A `Dense` layer keeps `W`, `W^T` and `dW` this way.
/// Packing is data movement, never arithmetic. The storage is kept
/// across packs; every pack overwrites all of it.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PackedRhs {
    rows: usize,
    cols: usize,
    /// `rows * cols` values; the panel at column `j` starts at `rows * j`.
    /// Element-wise work (an optimizer rule, a sum of two packs of one
    /// shape) can run over it as it lies.
    pub data: Vec<f32>,
}

impl PackedRhs {
    /// An empty pack (no storage yet).
    pub const fn new() -> Self {
        PackedRhs {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        PackedRhs {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// `(rows, cols)` of the matrix held.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The matrix as a row-major tensor (a copy).
    pub fn to_tensor(&self) -> Tensor {
        let (k, m) = self.dims();
        let mut data = Vec::with_capacity(k * m);
        row_runs(&self.data, k, m).for_each(|run| data.extend_from_slice(run));
        Tensor::from_vec(k, m, data)
    }

    /// Takes the shape `rows x cols` for a pack of `src`, whose storage
    /// must be what its own shape says: the copies below index on it.
    fn reshape(&mut self, src: &Tensor, rows: usize, cols: usize) {
        assert_eq!(
            src.data.len(),
            src.rows * src.cols,
            "pack of a {} x {} tensor holding {} values",
            src.rows,
            src.cols,
            src.data.len()
        );
        (self.rows, self.cols) = (rows, cols);
        self.data.resize(rows * cols, 0.0);
    }

    /// Packs `src` itself: every panel row is a chunk of a `src` row.
    /// Row by row, so `src` is read once in order (a panel at a time
    /// re-strides through all of it, and measured slower).
    pub fn pack(&mut self, src: &Tensor) {
        let (k, m) = (src.rows, src.cols);
        self.reshape(src, k, m);
        for i in 0..k {
            let row = &src.data[i * m..(i + 1) * m];
            for (j, w) in panels(m) {
                self.data[k * j + i * w..][..w].copy_from_slice(&row[j..j + w]);
            }
        }
    }

    /// Packs `src^T` (`src` is `m x k`): a panel is the transpose of `w`
    /// consecutive rows of `src`, so source slab and destination panel
    /// are both contiguous.
    pub fn pack_transposed(&mut self, src: &Tensor) {
        let (m, k) = (src.rows, src.cols);
        self.reshape(src, k, m);
        for (j, w) in panels(m) {
            let slab = &src.data[j * k..(j + w) * k];
            transpose_into(slab, &mut self.data[k * j..k * (j + w)], w, k);
        }
    }
}

/// The `k x m` matrix `vals`, stored panel-major ([`PackedRhs`]), in
/// row-major order, as runs: row by row, that row's piece of every panel
/// from left to right. (Gathering 32 rows at a time into their row
/// slots instead measured slower on the reference host.)
pub(crate) fn row_runs(vals: &[f32], k: usize, m: usize) -> impl Iterator<Item = &[f32]> {
    (0..k).flat_map(move |i| panels(m).map(move |(j, w)| &vals[k * j + i * w..][..w]))
}

/// Stores the transpose of the `w x k` row-major `slab` into the `k x w`
/// `panel`: whole 16 x 16 blocks in registers where the build has them,
/// the ragged rest (or everything) one element at a time.
pub(crate) fn transpose_into(slab: &[f32], panel: &mut [f32], w: usize, k: usize) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    let done = simd::transpose_blocks(slab, panel, w, k);
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    let done = 0;
    for (i, dst) in panel.chunks_exact_mut(w).enumerate().skip(done) {
        for (l, d) in dst.iter_mut().enumerate() {
            *d = slab[l * k + i];
        }
    }
}

/// The right-hand side of [`Tensor::matmul_with_into`], in either layout.
#[derive(Debug, Clone, Copy)]
pub enum Rhs<'a> {
    /// A row-major tensor, multiplied where it lies.
    RowMajor(&'a Tensor),
    /// The same values packed beforehand.
    Packed(&'a PackedRhs),
}

impl<'a> Rhs<'a> {
    /// `(k, m)`.
    fn dims(self) -> (usize, usize) {
        match self {
            Rhs::RowMajor(t) => (t.rows, t.cols),
            Rhs::Packed(p) => p.dims(),
        }
    }

    /// Values actually stored.
    fn len(self) -> usize {
        match self {
            Rhs::RowMajor(t) => t.data.len(),
            Rhs::Packed(p) => p.data.len(),
        }
    }

    /// The panel of columns `j..j + w` as the tiles read it: its base and
    /// row stride, row `i` being `base[i * stride..i * stride + w]`.
    #[inline]
    fn panel(self, j: usize, w: usize) -> (&'a [f32], usize) {
        match self {
            Rhs::RowMajor(t) => (&t.data[j..], t.cols),
            Rhs::Packed(p) => (&p.data[p.rows * j..p.rows * (j + w)], w),
        }
    }
}

/// Output-stationary register tile: `RT` rows by `W` columns of `out`,
/// each element one ascending-`i` fused chain. `a` holds the tile's
/// `RT` rows (row-major, stride `k`), `out` the same rows of the output
/// (stride `m`) from column `j`; `b` is the column panel's base and `ldb`
/// its row stride ([`Rhs::panel`]).
#[inline]
fn nn_tile<const RT: usize, const W: usize>(
    a: &[f32],
    (b, ldb): (&[f32], usize),
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
) {
    let mut a_rows: [&[f32]; RT] = [&[]; RT];
    for r in 0..RT {
        a_rows[r] = &a[r * k..(r + 1) * k];
    }
    let mut acc = [[0.0f32; W]; RT];
    for i in 0..k {
        let bb: &[f32; W] = b[i * ldb..i * ldb + W].try_into().expect("tile width");
        for r in 0..RT {
            let av = a_rows[r][i];
            for l in 0..W {
                acc[r][l] = av.mul_add(bb[l], acc[r][l]);
            }
        }
    }
    for r in 0..RT {
        out[r * m + j..r * m + j + W].copy_from_slice(&acc[r]);
    }
}

/// Single-column tail of [`nn_tile`]: same ascending-`i` fused chain.
#[inline]
fn nn_col<const RT: usize>(
    a: &[f32],
    (b, ldb): (&[f32], usize),
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
) {
    for r in 0..RT {
        let mut acc = 0.0f32;
        for i in 0..k {
            acc = a[r * k + i].mul_add(b[i * ldb], acc);
        }
        out[r * m + j] = acc;
    }
}

/// One column panel (`w` ∈ {32, 16, 8, 1}) of `RT` rows.
#[inline]
fn nn_panel<const RT: usize>(
    a: &[f32],
    b: (&[f32], usize),
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
    w: usize,
) {
    match w {
        COL_TILE => nn_tile::<RT, COL_TILE>(a, b, out, k, m, j),
        16 => nn_tile::<RT, 16>(a, b, out, k, m, j),
        8 => nn_tile::<RT, 8>(a, b, out, k, m, j),
        _ => nn_col::<RT>(a, b, out, k, m, j),
    }
}

/// Full-height (`ROW_TILE` rows) panel: takes the AVX-512 tile for the
/// hot 32-wide case, the portable tiles otherwise.
#[inline]
fn nn_row_tile(
    a: &[f32],
    b: (&[f32], usize),
    out: &mut [f32],
    k: usize,
    m: usize,
    j: usize,
    w: usize,
) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    if w == COL_TILE {
        // SAFETY: nn_band only calls with ROW_TILE full rows left in
        // `a`/`out` and `j + COL_TILE <= m`, and `b` is a 32-wide panel
        // of a right-hand side it has checked to hold `k x m` values.
        unsafe { simd::nn_8x32(a, b, out, k, m, j) };
        return;
    }
    nn_panel::<ROW_TILE>(a, b, out, k, m, j, w);
}

/// One band of `matmul`: `out.len() / m` rows. The column-panel loop is
/// outermost so each `b` panel stays cache-resident across the band's
/// row tiles; widths step 32 → 16 → 8 → 1, row tiles 8 → 4 → 2 → 1, and
/// every element takes the same ascending fused chain regardless of
/// which tile computes it, from which layout.
fn nn_band(a: &[f32], rhs: Rhs<'_>, out: &mut [f32], k: usize, m: usize) {
    let rows = out.len() / m;
    // The tiles index (and the AVX-512 ones read) on the strength of the
    // shapes alone; a tensor whose `data` is shorter than its shape says
    // stops here, with the numbers.
    assert!(
        a.len() >= rows * k && rhs.len() >= k * m,
        "matmul band of {rows} rows: lhs holds {} values ({rows} x {k} needed), \
         rhs holds {} ({k} x {m} needed)",
        a.len(),
        rhs.len()
    );
    for (j, w) in panels(m) {
        let b = rhs.panel(j, w);
        let mut r = 0;
        while rows - r >= ROW_TILE {
            nn_row_tile(&a[r * k..], b, &mut out[r * m..], k, m, j, w);
            r += ROW_TILE;
        }
        while rows - r >= 4 {
            nn_panel::<4>(&a[r * k..], b, &mut out[r * m..], k, m, j, w);
            r += 4;
        }
        while rows - r >= 2 {
            nn_panel::<2>(&a[r * k..], b, &mut out[r * m..], k, m, j, w);
            r += 2;
        }
        while r < rows {
            nn_panel::<1>(&a[r * k..], b, &mut out[r * m..], k, m, j, w);
            r += 1;
        }
    }
}

/// Adds one finished gradient value into its accumulator, a non-finite
/// one as `+0.0`; returns how many it zeroed. The scalar form of the
/// `add` epilogue ([`Tensor::matmul_tn_packed_add_into`]).
#[inline]
fn add_checked(dst: &mut f32, c: f32) -> usize {
    let finite = c.is_finite();
    *dst += if finite { c } else { 0.0 };
    usize::from(!finite)
}

/// [`nn_tile`] for the TN product: output row `i0 + r` reads column
/// `i0 + r` of `a` (`k x n`, so stride-`n` scalar loads), everything
/// else identical — same ascending-order fused chains. `b` is the
/// column panel's base and row stride, `out` the tile's first output
/// element and the output's row stride, so one tile serves a row-major
/// output and a panel-major one. The finished chains are stored, or with
/// `add` go through [`add_checked`]; returns the values zeroed.
#[inline]
fn tn_tile<const RT: usize, const W: usize>(
    a: &[f32],
    n: usize,
    i0: usize,
    (b, ldb): (&[f32], usize),
    (out, ldo): (&mut [f32], usize),
    k: usize,
    add: bool,
) -> usize {
    let mut acc = [[0.0f32; W]; RT];
    for t in 0..k {
        let bb: &[f32; W] = b[t * ldb..t * ldb + W].try_into().expect("tile width");
        let arow = &a[t * n + i0..t * n + i0 + RT];
        for r in 0..RT {
            let av = arow[r];
            for l in 0..W {
                acc[r][l] = av.mul_add(bb[l], acc[r][l]);
            }
        }
    }
    let mut zeroed = 0;
    for r in 0..RT {
        let dst = &mut out[r * ldo..r * ldo + W];
        if add {
            for (d, c) in dst.iter_mut().zip(acc[r]) {
                zeroed += add_checked(d, c);
            }
        } else {
            dst.copy_from_slice(&acc[r]);
        }
    }
    zeroed
}

/// Single-column tail of [`tn_tile`].
#[inline]
fn tn_col<const RT: usize>(
    a: &[f32],
    n: usize,
    i0: usize,
    (b, ldb): (&[f32], usize),
    (out, ldo): (&mut [f32], usize),
    k: usize,
    add: bool,
) -> usize {
    let mut zeroed = 0;
    for r in 0..RT {
        let mut acc = 0.0f32;
        for t in 0..k {
            acc = a[t * n + i0 + r].mul_add(b[t * ldb], acc);
        }
        if add {
            zeroed += add_checked(&mut out[r * ldo], acc);
        } else {
            out[r * ldo] = acc;
        }
    }
    zeroed
}

/// One column panel (`w` ∈ {32, 16, 8, 1}) of `RT` TN output rows.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tn_panel<const RT: usize>(
    a: &[f32],
    n: usize,
    i0: usize,
    b: (&[f32], usize),
    out: (&mut [f32], usize),
    k: usize,
    w: usize,
    add: bool,
) -> usize {
    match w {
        COL_TILE => tn_tile::<RT, COL_TILE>(a, n, i0, b, out, k, add),
        16 => tn_tile::<RT, 16>(a, n, i0, b, out, k, add),
        8 => tn_tile::<RT, 8>(a, n, i0, b, out, k, add),
        _ => tn_col::<RT>(a, n, i0, b, out, k, add),
    }
}

/// Full-height (`ROW_TILE` rows) TN panel: AVX-512 tile for the hot
/// 32-wide case, portable tiles otherwise.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tn_row_tile(
    a: &[f32],
    n: usize,
    i0: usize,
    b: (&[f32], usize),
    out: (&mut [f32], usize),
    k: usize,
    w: usize,
    add: bool,
) -> usize {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    if w == COL_TILE {
        // SAFETY: tn_rows only calls with `i0 + ROW_TILE <= n`, ROW_TILE
        // full 32-wide output rows left at stride `ldo`, and `b` a 32-wide
        // column panel of `k` rows at stride `ldb` (tn_store has checked
        // that `a` and `b` hold their shapes).
        return unsafe { simd::tn_8x32(a, n, i0, b, out, k, add) };
    }
    tn_panel::<ROW_TILE>(a, n, i0, b, out, k, w, add)
}

/// Rows `i0..i0 + rows` of one TN column panel (`w` wide, `b` its base
/// and row stride): row tiles 8 → 4 → 2 → 1, row `i0 + r` stored from
/// `out[r * ldo]`. Returns the values the `add` epilogue zeroed.
#[allow(clippy::too_many_arguments)]
fn tn_rows(
    a: &[f32],
    n: usize,
    (i0, rows): (usize, usize),
    b: (&[f32], usize),
    (out, ldo): (&mut [f32], usize),
    k: usize,
    w: usize,
    add: bool,
) -> usize {
    let (mut r, mut zeroed) = (0, 0);
    while rows - r >= ROW_TILE {
        zeroed += tn_row_tile(a, n, i0 + r, b, (&mut out[r * ldo..], ldo), k, w, add);
        r += ROW_TILE;
    }
    while rows - r >= 4 {
        zeroed += tn_panel::<4>(a, n, i0 + r, b, (&mut out[r * ldo..], ldo), k, w, add);
        r += 4;
    }
    while rows - r >= 2 {
        zeroed += tn_panel::<2>(a, n, i0 + r, b, (&mut out[r * ldo..], ldo), k, w, add);
        r += 2;
    }
    while r < rows {
        zeroed += tn_panel::<1>(a, n, i0 + r, b, (&mut out[r * ldo..], ldo), k, w, add);
        r += 1;
    }
    zeroed
}

/// `a^T b` (`a` is `k x n`, `b` is `k x m`, both row-major) into the
/// `n x m` `out`: row-major, or with `packed` panel-major
/// ([`PackedRhs`]). Every element is stored, or with `add` added to
/// through [`add_checked`]; returns how many it zeroed. A row-major
/// output goes to the pool in bands of rows, a panel-major one in runs
/// of 32-wide panels — contiguous either way — and each column panel of
/// `b` stays cache-resident across its rows. `k = 0` is the empty chain,
/// exact `0.0`.
fn tn_store(
    a: &[f32],
    b: &[f32],
    (k, n, m): (usize, usize, usize),
    out: &mut [f32],
    packed: bool,
    add: bool,
) -> usize {
    assert!(
        a.len() >= k * n && b.len() >= k * m && out.len() >= n * m,
        "matmul_tn of {k} x {n} by {k} x {m}: lhs holds {} values, rhs {}, out {}",
        a.len(),
        b.len(),
        out.len()
    );
    let out = &mut out[..n * m];
    if out.is_empty() {
        return 0;
    }
    if k == 0 {
        out.iter_mut()
            .for_each(|v| *v = if add { *v + 0.0 } else { 0.0 });
        return 0;
    }
    let chunk = if packed { n * COL_TILE } else { BAND_ROWS * m };
    let run = |c: usize, out: &mut [f32]| -> usize {
        if packed {
            // Whole panels from column `c * COL_TILE`, every row of each.
            let j0 = c * COL_TILE;
            (panels(out.len() / n))
                .map(|(j, w)| {
                    let panel = &mut out[n * j..n * (j + w)];
                    tn_rows(a, n, (0, n), (&b[j0 + j..], m), (panel, w), k, w, add)
                })
                .sum()
        } else {
            // Whole rows from row `c * BAND_ROWS`, every panel of each.
            let rows = (c * BAND_ROWS, out.len() / m);
            (panels(m))
                .map(|(j, w)| tn_rows(a, n, rows, (&b[j..], m), (&mut out[j..], m), k, w, add))
                .sum()
        }
    };
    if par_worth_it(n, k, m) {
        // Relaxed: a tally, read after the pool has joined the chunks.
        let zeroed = AtomicUsize::new(0);
        out.par_chunks_mut(chunk).enumerate().for_each(|(c, out)| {
            zeroed.fetch_add(run(c, out), Ordering::Relaxed);
        });
        zeroed.into_inner()
    } else {
        run(0, out)
    }
}

thread_local! {
    /// `matmul_nt`'s packed `rhs^T`. Reused across calls, so repeated
    /// calls on one thread do not allocate; every pack overwrites it.
    static NT_PACK: std::cell::RefCell<PackedRhs> = const { std::cell::RefCell::new(PackedRhs::new()) };
}

/// Explicit AVX-512 implementations of the hot register tiles.
///
/// These compute the *same canonical accumulation orders* as the
/// portable tiles — `_mm512_fmadd_ps` is IEEE-754 fusedMultiplyAdd per
/// lane, exactly [`f32::mul_add`] — so they are bit-identical to the
/// portable code and to the scalar references in the tests. They exist
/// because the autovectorizer cannot be trusted to keep a 16-vector
/// accumulator block in registers: on this exact code it has been
/// observed spilling accumulators to the stack and round-tripping them
/// through gather/scatter on every FMA, a ~20x slowdown. Hand-placed
/// intrinsics make the register tiling explicit.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod simd {
    use core::arch::x86_64::*;

    // The tiles below hard-code the 8 x 32 tile shape (two 512-bit
    // vectors wide); keep them in sync with the constants.
    const _: () = assert!(super::ROW_TILE == 8);
    const _: () = assert!(super::COL_TILE == 32);

    /// 8 x 32 output-stationary tile of `matmul`: rows `0..8` of `a`
    /// (row-major, stride `k`) times the 32-wide panel `b` (row stride
    /// `ldb`), each output element one ascending-`i` fused chain, stored
    /// from column `j` of `out`.
    ///
    /// # Safety
    /// Caller guarantees `a.len() >= 8 * k`, `b.len() >= (k - 1) * ldb +
    /// 32`, `out.len() >= 7 * m + j + 32` and `j + 32 <= m`.
    pub(super) unsafe fn nn_8x32(
        a: &[f32],
        (b, ldb): (&[f32], usize),
        out: &mut [f32],
        k: usize,
        m: usize,
        j: usize,
    ) {
        unsafe {
            let ap = a.as_ptr();
            let bp = b.as_ptr();
            let op = out.as_mut_ptr().add(j);
            let mut acc0 = [_mm512_setzero_ps(); 8];
            let mut acc1 = [_mm512_setzero_ps(); 8];
            for i in 0..k {
                let b0 = _mm512_loadu_ps(bp.add(i * ldb));
                let b1 = _mm512_loadu_ps(bp.add(i * ldb + 16));
                for r in 0..8 {
                    let av = _mm512_set1_ps(*ap.add(r * k + i));
                    acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
                    acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
                }
            }
            for r in 0..8 {
                _mm512_storeu_ps(op.add(r * m), acc0[r]);
                _mm512_storeu_ps(op.add(r * m + 16), acc1[r]);
            }
        }
    }

    /// [`nn_8x32`] for `matmul_tn`: output rows are columns `i0..i0 + 8`
    /// of `a` (`k x n` row-major), same chains; `b` is a 32-wide column
    /// panel (row stride `ldb`) and output row `r` starts at `out[r *
    /// ldo]`. With `add` the finished chains are not stored but added
    /// into `out`, each lane tested in its register (`|c| < ∞`, false for
    /// NaN) and a non-finite one added as `+0.0` — [`super::add_checked`]
    /// sixteen at a time; returns how many were.
    ///
    /// # Safety
    /// Caller guarantees `a.len() >= k * n`, `i0 + 8 <= n`,
    /// `b.len() >= (k - 1) * ldb + 32` and `out.len() >= 7 * ldo + 32`.
    pub(super) unsafe fn tn_8x32(
        a: &[f32],
        n: usize,
        i0: usize,
        (b, ldb): (&[f32], usize),
        (out, ldo): (&mut [f32], usize),
        k: usize,
        add: bool,
    ) -> usize {
        unsafe {
            let ap = a.as_ptr().add(i0);
            let bp = b.as_ptr();
            let op = out.as_mut_ptr();
            let mut acc0 = [_mm512_setzero_ps(); 8];
            let mut acc1 = [_mm512_setzero_ps(); 8];
            for t in 0..k {
                let b0 = _mm512_loadu_ps(bp.add(t * ldb));
                let b1 = _mm512_loadu_ps(bp.add(t * ldb + 16));
                for r in 0..8 {
                    let av = _mm512_set1_ps(*ap.add(t * n + r));
                    acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
                    acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
                }
            }
            let mut zeroed = 0;
            for r in 0..8 {
                for (c, p) in [(acc0[r], op.add(r * ldo)), (acc1[r], op.add(r * ldo + 16))] {
                    if add {
                        let finite = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(
                            _mm512_abs_ps(c),
                            _mm512_set1_ps(f32::INFINITY),
                        );
                        zeroed += finite.count_zeros();
                        let c = _mm512_maskz_mov_ps(finite, c);
                        _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), c));
                    } else {
                        _mm512_storeu_ps(p, c);
                    }
                }
            }
            zeroed as usize
        }
    }

    /// Transposes the `w x k` row-major `slab` into the `k x w` `panel`
    /// as far as whole 16 x 16 blocks go; returns how many panel rows
    /// that covered (all `w` columns of each).
    pub(super) fn transpose_blocks(slab: &[f32], panel: &mut [f32], w: usize, k: usize) -> usize {
        assert!(slab.len() == w * k && panel.len() == w * k);
        let rows = if w.is_multiple_of(16) { k - k % 16 } else { 0 };
        for i0 in (0..rows).step_by(16) {
            for l0 in (0..w).step_by(16) {
                // SAFETY: `l0 + 16 <= w` and `i0 + 16 <= k`, so the block's
                // 16 rows of 16 lie inside the `w x k` slab (from row `l0`,
                // column `i0`) and inside the `k x w` panel (from row `i0`,
                // column `l0`), whose lengths were just checked.
                unsafe {
                    transpose_16x16(
                        slab.as_ptr().add(l0 * k + i0),
                        k,
                        panel.as_mut_ptr().add(i0 * w + l0),
                        w,
                    );
                }
            }
        }
        rows
    }

    /// Transposes the 16 x 16 block at `src` (row stride `lds`) into the
    /// one at `dst` (row stride `ldd`) in registers: 32-bit unpacks pair
    /// rows, 64-bit unpacks make each 128-bit lane a column of four rows,
    /// and two rounds of lane shuffles gather a column's four lanes.
    ///
    /// # Safety
    /// Caller guarantees 16 readable floats at `src + r * lds` and 16
    /// writable ones at `dst + r * ldd` for every `r < 16`.
    unsafe fn transpose_16x16(src: *const f32, lds: usize, dst: *mut f32, ldd: usize) {
        unsafe {
            let mut r = [_mm512_setzero_ps(); 16];
            let mut t = r;
            for (i, row) in r.iter_mut().enumerate() {
                *row = _mm512_loadu_ps(src.add(i * lds));
            }
            for i in 0..8 {
                t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
                t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
            }
            // r[4 * i + c], 128-bit lane q: column 4 * q + c of rows
            // 4 * i..4 * i + 4.
            for i in 0..4 {
                for c in 0..2 {
                    let lo = _mm512_castps_pd(t[4 * i + c]);
                    let hi = _mm512_castps_pd(t[4 * i + c + 2]);
                    r[4 * i + 2 * c] = _mm512_castpd_ps(_mm512_unpacklo_pd(lo, hi));
                    r[4 * i + 2 * c + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(lo, hi));
                }
            }
            for c in 0..4 {
                // Lanes (0, 2) and (1, 3) of the upper and lower eight rows.
                let even_top = _mm512_shuffle_f32x4::<0x88>(r[c], r[4 + c]);
                let odd_top = _mm512_shuffle_f32x4::<0xdd>(r[c], r[4 + c]);
                let even_bot = _mm512_shuffle_f32x4::<0x88>(r[8 + c], r[12 + c]);
                let odd_bot = _mm512_shuffle_f32x4::<0xdd>(r[8 + c], r[12 + c]);
                let cols = [
                    _mm512_shuffle_f32x4::<0x88>(even_top, even_bot),
                    _mm512_shuffle_f32x4::<0x88>(odd_top, odd_bot),
                    _mm512_shuffle_f32x4::<0xdd>(even_top, even_bot),
                    _mm512_shuffle_f32x4::<0xdd>(odd_top, odd_bot),
                ];
                for (q, col) in cols.into_iter().enumerate() {
                    _mm512_storeu_ps(dst.add((4 * q + c) * ldd), col);
                }
            }
        }
    }
}

/// `a (n x k) * rhs (k x m)` stored into `out (n x m)`: the kernel behind
/// every `nn` product, `matmul_nt` included. Register-tiled stores
/// (accumulators live in registers for the whole `k` loop and are written
/// once), so `out`'s prior contents never matter. `k = 0` produces exact
/// `0.0` — the empty chain. `epilogue` then runs over each band's rows,
/// on the thread that computed them, while they are cache-hot.
fn nn_store(a: &[f32], rhs: Rhs<'_>, out: &mut [f32], epilogue: impl Fn(&mut [f32]) + Sync) {
    if out.is_empty() {
        return;
    }
    let (k, m) = rhs.dims();
    let n = out.len() / m;
    if k == 0 {
        out.fill(0.0);
        epilogue(out);
    } else if par_worth_it(n, k, m) {
        out.par_chunks_mut(BAND_ROWS * m)
            .enumerate()
            .for_each(|(band, band_out)| {
                nn_band(&a[band * BAND_ROWS * k..], rhs, band_out, k, m);
                epilogue(band_out);
            });
    } else {
        nn_band(a, rhs, out, k, m);
        epilogue(out);
    }
}

impl Tensor {
    /// Zero-filled tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major vector. Panics on length mismatch.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor shape mismatch");
        Tensor { rows, cols, data }
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self (n x k) * rhs (k x m) -> (n x m)`.
    ///
    /// Each output element is one ascending-`k` fused chain (module
    /// docs). No sparsity fast path: an earlier version skipped rows of
    /// `rhs` whenever the `self` element was exactly zero, which silently
    /// swallowed NaN/Inf propagation (`0 * NaN` must be NaN) and could
    /// mask poisoned activations from the engine's NaN detection — FMA
    /// propagates them the same way plain multiply-add did.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul`] into a caller-provided buffer. The kernel
    /// overwrites every element, so recycled contents need no zeroing —
    /// a pooled buffer skips both the allocation and the memset.
    /// Bit-identical to `matmul`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        self.matmul_with_into(Rhs::RowMajor(rhs), out, |_| {});
    }

    /// [`Tensor::matmul_into`] against either layout of the right-hand
    /// side, followed by `epilogue`: called once on every band's finished
    /// rows (a slice of whole rows of `out`; together the calls cover
    /// every element exactly once) by the thread that computed them. The
    /// product's bits do not depend on the layout.
    pub fn matmul_with_into(
        &self,
        rhs: Rhs<'_>,
        out: &mut Tensor,
        epilogue: impl Fn(&mut [f32]) + Sync,
    ) {
        let (k, m) = rhs.dims();
        assert_eq!(self.cols, k, "matmul inner dims");
        assert_eq!(out.rows, self.rows, "matmul_into out rows");
        assert_eq!(out.cols, m, "matmul_into out cols");
        nn_store(&self.data, rhs, &mut out.data, epilogue);
    }

    /// Transpose-free product `self^T (k x n) * rhs (k x m) -> (n x m)`.
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)` — the per-element
    /// chain is the same ascending fused sum — without materializing the
    /// transposed copy. This is the `dW = x^T dz` kernel of the dense
    /// backward pass.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] into a caller-provided buffer. The kernel
    /// stores (never accumulates), so recycled contents need no zeroing.
    /// Bit-identical to `matmul_tn`.
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        let dims = self.tn_dims(rhs, (out.rows, out.cols));
        tn_store(&self.data, &rhs.data, dims, &mut out.data, false, false);
    }

    /// [`Tensor::matmul_tn_into`] into an output kept panel-major, as a
    /// `Dense` layer keeps `dW`: the same tiles, the same chains, each
    /// stored where [`PackedRhs::pack`] would have put it. `out` must
    /// already be `self.cols x rhs.cols` ([`PackedRhs::zeros`]).
    pub fn matmul_tn_packed_into(&self, rhs: &Tensor, out: &mut PackedRhs) {
        let dims = self.tn_dims(rhs, out.dims());
        tn_store(&self.data, &rhs.data, dims, &mut out.data, true, false);
    }

    /// [`Tensor::matmul_tn_packed_into`] followed by an element-wise
    /// `dst += ..`, bit for bit, without the buffer in between: each
    /// chain is computed exactly as there and then added to its `dst`
    /// element with one separately rounded `+`. Every finished chain is
    /// tested for finiteness on the way; a NaN or ±∞ is added as `+0.0`
    /// instead, and the number of those is returned.
    pub fn matmul_tn_packed_add_into(&self, rhs: &Tensor, dst: &mut PackedRhs) -> usize {
        let dims = self.tn_dims(rhs, dst.dims());
        tn_store(&self.data, &rhs.data, dims, &mut dst.data, true, true)
    }

    /// `(k, n, m)` of `self^T rhs` into an output of shape `out`.
    fn tn_dims(&self, rhs: &Tensor, out: (usize, usize)) -> (usize, usize, usize) {
        assert_eq!(self.rows, rhs.rows, "matmul_tn outer dims");
        assert_eq!(out.0, self.cols, "matmul_tn_into out rows");
        assert_eq!(out.1, rhs.cols, "matmul_tn_into out cols");
        (self.rows, self.cols, rhs.cols)
    }

    /// Transpose-free product `self (n x k) * rhs^T (k x m) -> (n x m)`
    /// where `rhs` is `m x k`.
    ///
    /// Bit-identical to `self.matmul(&rhs.transpose())` — same
    /// ascending fused chain per element — and computed the same way,
    /// minus the allocation: `rhs^T` is packed into a reused thread-local
    /// [`PackedRhs`] and multiplied from there. Computing NT directly
    /// (both operands row-major, reducing along the SIMD axis) re-streams
    /// all of `rhs` for every pair of output rows, which is memory-bound
    /// ~4x slower than packing once. The pack is O(m·k) against the
    /// O(n·m·k) multiply, which is still most of the call when `n` is
    /// small — a caller multiplying by one `rhs` repeatedly should keep
    /// its own pack and call [`Tensor::matmul_with_into`], as a `Dense`
    /// layer does with the `W^T` it stores.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, rhs.rows);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] into a caller-provided buffer. The kernel
    /// stores (never accumulates), so recycled contents need no zeroing —
    /// a pooled buffer skips both the allocation and the memset.
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, rhs.cols, "matmul_nt inner dims");
        NT_PACK.with(|cell| {
            let pack = &mut *cell.borrow_mut();
            pack.pack_transposed(rhs);
            self.matmul_with_into(Rhs::Packed(pack), out, |_| {});
        });
    }

    /// Transposed copy (cache-blocked: within a block, contiguous stores
    /// and strided loads one destination row at a time).
    pub fn transpose(&self) -> Tensor {
        const BT: usize = 32;
        let (rows, cols) = (self.rows, self.cols);
        assert_eq!(self.data.len(), rows * cols, "transpose source shape");
        let mut out = Tensor::zeros(cols, rows);
        for r0 in (0..rows).step_by(BT) {
            let r1 = (r0 + BT).min(rows);
            for c0 in (0..cols).step_by(BT) {
                for c in c0..(c0 + BT).min(cols) {
                    for (r, d) in (r0..r1).zip(&mut out.data[c * rows + r0..c * rows + r1]) {
                        *d = self.data[r * cols + c];
                    }
                }
            }
        }
        out
    }

    /// Column sums (the bias gradient) into a caller-provided buffer
    /// (recycled contents allowed — the buffer is reset first): plain adds
    /// in ascending row order.
    pub fn col_sums_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "col_sums_into length");
        out.fill(0.0);
        for row in self.data.chunks(self.cols) {
            for (o, v) in out.iter_mut().zip(row) {
                *o += *v;
            }
        }
    }

    /// [`Tensor::col_sums_into`] followed by `dst[c] += sum[c]`, with the
    /// finiteness treatment of [`Tensor::matmul_tn_packed_add_into`]: each
    /// column's sum is formed exactly as there (ascending rows from
    /// `0.0`, a few columns at a time on the stack), a non-finite one is
    /// added as `+0.0`, and the number of those is returned.
    pub fn col_sums_add_into(&self, dst: &mut [f32]) -> usize {
        assert_eq!(dst.len(), self.cols, "col_sums_add_into length");
        const BLOCK: usize = 64;
        let mut zeroed = 0;
        for (block, dst) in dst.chunks_mut(BLOCK).enumerate() {
            let mut sums = [0.0f32; BLOCK];
            for row in self.data.chunks(self.cols) {
                for (s, v) in sums.iter_mut().zip(&row[block * BLOCK..]) {
                    *s += *v;
                }
            }
            for (d, s) in dst.iter_mut().zip(sums) {
                zeroed += add_checked(d, s);
            }
        }
        zeroed
    }

    /// Copy of rows `range`.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Tensor {
        assert!(range.end <= self.rows, "row slice out of range");
        let data = self.data[range.start * self.cols..range.end * self.cols].to_vec();
        Tensor::from_vec(range.len(), self.cols, data)
    }

    /// Vertically concatenates tensors with equal column counts.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of nothing");
        let cols = parts[0].cols;
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "concat column mismatch");
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(rows, cols, data)
    }

    /// Element-wise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.data.len(), other.data.len(), "add shape");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Independent scalar model of the output-stationary canonical order:
    /// one ascending fused chain per element.
    fn ref_nn(a: &Tensor, b: &Tensor) -> Tensor {
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

    /// The same scalar model applied to the NT formulation: identical
    /// ascending fused chains, indices read from `b` row-major.
    fn ref_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.rows);
        for r in 0..a.rows {
            for c in 0..b.rows {
                let mut acc = 0.0f32;
                for i in 0..a.cols {
                    acc = a.at(r, i).mul_add(b.at(c, i), acc);
                }
                out.data[r * b.rows + c] = acc;
            }
        }
        out
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols));
        for (i, (x, y)) in got.data.iter().zip(&want.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).data, a.data);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn col_sums_stored_and_added() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 1.0, f32::INFINITY, 1.0, 2.0]);
        let mut sums = [0.0; 2];
        a.col_sums_into(&mut sums);
        assert_eq!(sums, [3.0, f32::INFINITY]);
        // Added: the finite sum lands, the infinite one counts and adds 0.
        let mut acc = [0.5, -0.0];
        assert_eq!(a.col_sums_add_into(&mut acc), 1);
        assert_eq!(acc.map(f32::to_bits), [3.5f32, 0.0].map(f32::to_bits));
    }

    #[test]
    fn col_sums_into_overwrites_recycled_contents() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut dirty = vec![f32::NAN, 1e9, -7.0];
        a.col_sums_into(&mut dirty);
        assert_eq!(dirty, [5.0, 7.0, 9.0]);
    }

    #[test]
    fn slice_concat_round_trip() {
        let a = Tensor::from_vec(4, 2, (0..8).map(|v| v as f32).collect());
        let parts = [a.slice_rows(0..1), a.slice_rows(1..3), a.slice_rows(3..4)];
        assert_eq!(Tensor::concat_rows(&parts), a);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Regression: `0 * NaN` must propagate. An earlier zero-skip fast
    /// path silently produced finite results when the zero operand sat in
    /// `self`, masking poisoned operands from downstream NaN detection.
    /// FMA propagates NaN/Inf exactly like plain multiply-add.
    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        let a = Tensor::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Tensor::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.matmul(&b).data[0].is_nan(), "0 * NaN must be NaN");
        // All-zero lhs row against NaN rhs: still NaN, never a clean 0.
        let z = Tensor::zeros(1, 2);
        assert!(z.matmul(&b).data[0].is_nan());
        // Same contract for the transpose-free variants.
        let a_t = Tensor::from_vec(2, 1, vec![0.0, 1.0]);
        assert!(a_t.matmul_tn(&b).data[0].is_nan());
        let b_row = Tensor::from_vec(1, 2, vec![f32::NAN, 2.0]);
        assert!(a.matmul_nt(&b_row).data[0].is_nan());
        // Inf behaves the same way: 0 * Inf is NaN.
        let inf = Tensor::from_vec(2, 1, vec![f32::INFINITY, 2.0]);
        assert!(z.matmul(&inf).data[0].is_nan());
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|v| v as f32 * 0.5 - 2.0).collect());
        let fast = a.matmul_tn(&b);
        assert_eq!(fast.rows, 2);
        assert_eq!(fast.cols, 4);
        assert_bits_eq(&fast, &a.transpose().matmul(&b));
    }

    /// `matmul_nt` shares the canonical order: bit-exact against both
    /// the scalar model and the explicit-transpose formulation.
    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec(2, 3, vec![1.0, -2.0, 3.0, 0.5, 4.0, -6.0]);
        let b = Tensor::from_vec(4, 3, (0..12).map(|v| (v % 5) as f32 - 2.0).collect());
        let fast = a.matmul_nt(&b);
        assert_eq!(fast.rows, 2);
        assert_eq!(fast.cols, 4);
        assert_bits_eq(&fast, &ref_nt(&a, &b));
        assert_bits_eq(&fast, &a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_tn_into_overwrites_recycled_contents() {
        let a = Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 4, (0..12).map(|v| v as f32 * 0.25 - 1.0).collect());
        let mut dirty = Tensor::from_vec(2, 4, vec![f32::NAN; 8]);
        a.matmul_tn_into(&b, &mut dirty);
        assert_bits_eq(&dirty, &a.matmul_tn(&b));
    }

    #[test]
    #[should_panic(expected = "matmul_tn outer dims")]
    fn matmul_tn_dim_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul_tn(&Tensor::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "matmul_nt inner dims")]
    fn matmul_nt_dim_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul_nt(&Tensor::zeros(2, 2));
    }

    /// The parallel (rayon) paths agree bit-for-bit with the canonical
    /// order above the work threshold too: both transpose-free variants
    /// against their explicit-transpose formulations.
    #[test]
    fn parallel_transpose_free_variants_match() {
        let n = 160; // n^3 > PAR_MIN_MULS
        let a = Tensor::from_vec(
            n,
            n,
            (0..n * n).map(|v| (v % 11) as f32 * 0.3 - 1.5).collect(),
        );
        let b = Tensor::from_vec(
            n,
            n,
            (0..n * n).map(|v| (v % 7) as f32 * 0.2 - 0.6).collect(),
        );
        assert_bits_eq(&a.matmul_tn(&b), &a.transpose().matmul(&b));
        assert_bits_eq(&a.matmul_nt(&b), &a.matmul(&b.transpose()));
    }

    /// The parallel path of plain matmul is bit-identical to the scalar
    /// model of its canonical order (banding cannot change results).
    #[test]
    fn parallel_matmul_matches_serial() {
        let n = 160; // n^3 > PAR_MIN_MULS
        let a = Tensor::from_vec(n, n, (0..n * n).map(|v| (v % 13) as f32 * 0.1).collect());
        let b = Tensor::from_vec(n, n, (0..n * n).map(|v| (v % 7) as f32 * 0.2).collect());
        assert_bits_eq(&a.matmul(&b), &ref_nn(&a, &b));
    }

    /// Quick local throughput probe (`cargo test --release -p
    /// dapple-engine tensor::tests::kernel_timing -- --ignored
    /// --nocapture`); dapple-bench owns the tracked numbers.
    #[test]
    #[ignore]
    fn kernel_timing() {
        let n = 256;
        let a = Tensor::from_vec(n, n, (0..n * n).map(|v| (v % 13) as f32 * 0.1).collect());
        let b = Tensor::from_vec(n, n, (0..n * n).map(|v| (v % 7) as f32 * 0.2).collect());
        let flops = 2.0 * (n * n * n) as f64;
        for (name, f) in [
            ("nn", (&|| a.matmul(&b)) as &dyn Fn() -> Tensor),
            ("tn", &|| a.matmul_tn(&b)),
            ("nt", &|| a.matmul_nt(&b)),
        ] {
            let mut sink = 0.0f32;
            let iters = 20;
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                sink += f().data[0];
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            println!(
                "{name}: {:.0} ns/iter, {:.1} GFLOP/s (sink {sink})",
                ns,
                flops / ns
            );
        }
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_addition(
            n in 1usize..6, k in 1usize..6, m in 1usize..6, seed in 0u64..100
        ) {
            let fill = |salt: u64, len: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| (((i as u64 + salt).wrapping_mul(seed + 1) % 17) as f32 - 8.0) * 0.25)
                    .collect()
            };
            let a = Tensor::from_vec(n, k, fill(1, n * k));
            let b1 = Tensor::from_vec(k, m, fill(2, k * m));
            let b2 = Tensor::from_vec(k, m, fill(3, k * m));
            let mut b_sum = b1.clone();
            b_sum.add_assign(&b2);
            let mut lhs = a.matmul(&b1);
            lhs.add_assign(&a.matmul(&b2));
            let rhs = a.matmul(&b_sum);
            for (x, y) in lhs.data.iter().zip(&rhs.data) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// Every variant matches the scalar model of its own canonical
        /// order bit-for-bit, on ragged shapes nowhere near the tile
        /// sizes included.
        #[test]
        fn variants_match_scalar_references(
            n in 1usize..12, k in 1usize..12, m in 1usize..12, seed in 0u64..100
        ) {
            let fill = |salt: u64, len: usize| -> Vec<f32> {
                (0..len)
                    .map(|i| (((i as u64 + salt).wrapping_mul(seed + 3) % 19) as f32 - 9.0) * 0.125)
                    .collect()
            };
            let a = Tensor::from_vec(n, k, fill(1, n * k));
            let b = Tensor::from_vec(k, m, fill(2, k * m));
            let nn = a.matmul(&b);
            let nn_ref = ref_nn(&a, &b);
            for (x, y) in nn.data.iter().zip(&nn_ref.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // tn: (k x n)^T * (k x m) — same chain as the explicit
            // transpose, still bit-identical to it.
            let at = Tensor::from_vec(k, n, fill(3, k * n));
            let tn = at.matmul_tn(&b);
            let tn_ref = at.transpose().matmul(&b);
            for (x, y) in tn.data.iter().zip(&tn_ref.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            // nt: (n x k) * (m x k)^T — same chain again, bit-identical
            // to both the scalar model and the explicit transpose.
            let d = Tensor::from_vec(m, k, fill(4, m * k));
            let nt = a.matmul_nt(&d);
            let nt_ref = ref_nt(&a, &d);
            for (x, y) in nt.data.iter().zip(&nt_ref.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            let nt_t = a.matmul(&d.transpose());
            for (x, y) in nt.data.iter().zip(&nt_t.data) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }

        #[test]
        fn slice_rows_preserves_content(rows in 1usize..10, cols in 1usize..6) {
            let t = Tensor::from_vec(rows, cols, (0..rows * cols).map(|v| v as f32).collect());
            for start in 0..rows {
                for end in start + 1..=rows {
                    let s = t.slice_rows(start..end);
                    for r in 0..s.rows {
                        prop_assert_eq!(s.row(r), t.row(start + r));
                    }
                }
            }
        }
    }
}
