//! Dependency-free binary checkpointing of full training state: one
//! versioned little-endian format, one self-contained file per save.
//!
//! ```text
//! magic "DAPL" | version=5 u32 |
//! step u64 | data_seed u64 | data_cursor u64 | batch_samples u32 |
//! n_stages u32 | per stage: start u32 | end u32 | replication u32
//!   (the *active* partition — a checkpoint taken while degraded
//!    restores the degraded pipeline, not the original one) |
//! n_layers u32 | per layer: in u32 | out u32 | act u8 |
//! opt u8 + scalars (0: lr | 1: lr beta | 2: lr b1 b2 eps t) |
//! n_shards u32 (= n_layers) | header checksum u64 over every preceding byte |
//! per shard, in layer order: layer u32 |
//!   payload f32*: weights, bias, then one optimizer buffer per
//!     moment (velocity, or Adam m then v), each `num_params` long
//!     and, like the weights, row-major whatever its layout in memory |
//!   shard checksum u64 over the record (layer through payload)
//! ```
//!
//! DAPPLE is synchronous: every step trains every layer, so every save
//! carries every layer and a file never depends on another.
//!
//! **The checksum** ([`checksum`]) is part of the format. With FNV-1a's
//! 64-bit offset basis `B` and prime `P`, every product wrapping:
//!
//! ```text
//! lanes   l_i = B ^ i                    for i in 0..8
//! blocks  l_i = (l_i ^ w_i) * P          for each whole 64-byte block, in
//!                                        order; w_i is its i-th LE u64
//! fold    h = B ^ len; h = (h ^ l_i) * P for i in 0..8
//! tail    h = (h ^ b) * P                for each byte after the last block
//! ```
//!
//! Eight independent multiply chains run at memory speed where a
//! byte-serial FNV-1a waits a multiply latency per byte. Every step
//! is an xor, then a multiplication by an odd constant: a bijection of
//! the state for a fixed input and of the input for a fixed state. Two
//! records of one length that differ only inside one word of one block
//! leave that word's lane different, every later step keeps it so, and
//! the fold carries the difference into `h`; a differing tail byte acts
//! on `h` directly. Any single-byte or single-bit corruption therefore
//! changes the sum *by construction*, not with high probability.
//!
//! Training through a pipeline is only trustworthy if the state can
//! round-trip exactly, so encoding preserves every bit of every `f32` —
//! including optimizer moments, whose loss would silently change the
//! trajectory after a resume. Payload lengths are implied by the layer
//! dims in the checksummed header, and all size arithmetic on the read
//! path is checked: a crafted header can never drive a huge allocation
//! or an offset overflow (bounds are validated against the bytes
//! actually remaining before any buffer is reserved). A header carrying
//! any other version — including the retired formats 1 to 4 — is
//! rejected as unsupported before anything else is read.
//!
//! [`to_bytes`] is the writer ([`write_into`] fills a caller's buffer, so
//! a periodic save reuses storage that is already mapped) and
//! [`from_bytes`] the parser. The state is written as one **shard per
//! layer**, each with its own checksum, so corruption is rejected with a
//! structured [`DappleError::ShardCorrupt`] *naming the bad shard*
//! instead of a whole-file error (the file-level checksum covers only the
//! header).

use crate::layer::{Activation, Dense};
use crate::model::MlpModel;
use crate::optim::Optimizer;
use crate::tensor::{row_runs, PackedRhs, Tensor};
use dapple_core::{DappleError, Result};
use std::ops::Range;

const MAGIC: &[u8; 4] = b"DAPL";
const VERSION: u32 = 5;

/// Upper bound accepted for `n_stages` on the read path.
const MAX_STAGES: usize = 1 << 16;

/// Everything a training run needs to continue bit-identically: the
/// model, the optimizer (velocity / Adam moments / step counter `t`),
/// the training-step counter, and the deterministic data-stream cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Model weights.
    pub model: MlpModel,
    /// Optimizer with its persistent state buffers.
    pub optimizer: Optimizer,
    /// Completed training steps.
    pub step: u64,
    /// Seed of the deterministic data stream.
    pub data_seed: u64,
    /// Batches already drawn from the data stream.
    pub data_cursor: u64,
    /// Samples per global batch.
    pub batch_samples: u32,
}

impl TrainState {
    /// This state, borrowed, as the writer takes it.
    pub fn view(&self) -> StateView<'_> {
        StateView {
            model: &self.model,
            optimizer: &self.optimizer,
            step: self.step,
            data_seed: self.data_seed,
            data_cursor: self.data_cursor,
            batch_samples: self.batch_samples,
        }
    }
}

/// A [`TrainState`] by reference: what a save needs to read, without the
/// model and optimizer moments being cloned to hand it over.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    /// Model weights.
    pub model: &'a MlpModel,
    /// Optimizer with its persistent state buffers.
    pub optimizer: &'a Optimizer,
    /// Completed training steps.
    pub step: u64,
    /// Seed of the deterministic data stream.
    pub data_seed: u64,
    /// Batches already drawn from the data stream.
    pub data_cursor: u64,
    /// Samples per global batch.
    pub batch_samples: u32,
}

/// The active pipeline partition, persisted so that a checkpoint taken
/// while degraded restores the degraded pipeline rather than the
/// original configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Contiguous layer ranges, one per stage.
    pub stage_bounds: Vec<Range<usize>>,
    /// Replicas per stage.
    pub replication: Vec<usize>,
}

impl Partition {
    /// Structural validity against a layer count.
    fn validate(&self, num_layers: usize) -> Result<()> {
        if self.stage_bounds.is_empty() || self.stage_bounds.len() != self.replication.len() {
            return Err(DappleError::InvalidConfig(
                "checkpoint partition: stages and replication must align and be non-empty".into(),
            ));
        }
        let mut next = 0usize;
        for (i, r) in self.stage_bounds.iter().enumerate() {
            if r.start != next || r.is_empty() {
                return Err(DappleError::InvalidConfig(format!(
                    "checkpoint partition: stage {i} range {r:?} not contiguous from {next}"
                )));
            }
            if self.replication[i] == 0 {
                return Err(DappleError::InvalidConfig(format!(
                    "checkpoint partition: stage {i} has 0 replicas"
                )));
            }
            next = r.end;
        }
        if next != num_layers {
            return Err(DappleError::InvalidConfig(format!(
                "checkpoint partition covers {next} layers, model has {num_layers}"
            )));
        }
        Ok(())
    }
}

/// Serializes the full state as one self-contained file.
pub fn to_bytes(state: StateView<'_>, partition: &Partition) -> Vec<u8> {
    let mut out = Vec::new();
    write_into(&mut out, state, partition);
    out
}

/// [`to_bytes`] into `out`: its contents are replaced, its storage is
/// reused. `out` is sized exactly once the header is down, so the shards —
/// the model — are appended without a single regrowth, each tensor as one
/// block.
pub fn write_into(out: &mut Vec<u8>, state: StateView<'_>, partition: &Partition) {
    let layers = &state.model.layers;
    out.clear();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&state.step.to_le_bytes());
    out.extend_from_slice(&state.data_seed.to_le_bytes());
    out.extend_from_slice(&state.data_cursor.to_le_bytes());
    out.extend_from_slice(&state.batch_samples.to_le_bytes());
    out.extend_from_slice(&(partition.stage_bounds.len() as u32).to_le_bytes());
    for (r, &rep) in partition.stage_bounds.iter().zip(&partition.replication) {
        out.extend_from_slice(&(r.start as u32).to_le_bytes());
        out.extend_from_slice(&(r.end as u32).to_le_bytes());
        out.extend_from_slice(&(rep as u32).to_le_bytes());
    }
    out.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    for layer in layers {
        out.extend_from_slice(&(layer.in_dim() as u32).to_le_bytes());
        out.extend_from_slice(&(layer.out_dim() as u32).to_le_bytes());
        out.push(match layer.act {
            Activation::Identity => 0,
            Activation::Relu => 1,
            Activation::Tanh => 2,
        });
    }
    let opt_bufs = match state.optimizer {
        Optimizer::Sgd { lr } => {
            out.push(0);
            out.extend_from_slice(&lr.to_le_bytes());
            0
        }
        Optimizer::Momentum { lr, beta, .. } => {
            out.push(1);
            out.extend_from_slice(&lr.to_le_bytes());
            out.extend_from_slice(&beta.to_le_bytes());
            1
        }
        Optimizer::Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            ..
        } => {
            out.push(2);
            out.extend_from_slice(&lr.to_le_bytes());
            out.extend_from_slice(&beta1.to_le_bytes());
            out.extend_from_slice(&beta2.to_le_bytes());
            out.extend_from_slice(&eps.to_le_bytes());
            out.extend_from_slice(&t.to_le_bytes());
            2
        }
    };
    out.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    let header_sum = checksum(out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    // Per shard: layer, weights + bias and as many again per optimizer
    // buffer, checksum.
    let shards_len: usize = layers
        .iter()
        .map(|l| 4 + 4 * l.num_params() * (1 + opt_bufs) + 8)
        .sum();
    out.reserve_exact(shards_len);
    let end = out.len() + shards_len;
    let moments: &[&Vec<Vec<f32>>] = match state.optimizer {
        Optimizer::Sgd { .. } => &[],
        Optimizer::Momentum { velocity, .. } => &[velocity],
        Optimizer::Adam { m, v, .. } => &[m, v],
    };
    for (i, layer) in layers.iter().enumerate() {
        let record_start = out.len();
        out.extend_from_slice(&(i as u32).to_le_bytes());
        // The shard's sum is taken as the record is written, each 4 KiB
        // folded while it is still in cache, not read back at the end.
        let mut sum = Sum::new();
        let mut append = |out: &mut Vec<u8>, vals: &[f32]| {
            append_f32s(out, vals);
            let record = &out[record_start..];
            if record.len() - sum.folded >= FOLD_BYTES {
                sum.fold_blocks(record);
            }
        };
        // Weights, then bias: a layer's `W`, or the weight part of a state
        // buffer, is panel-major and written row-major.
        let (k, m) = layer.w.dims();
        let params = moments.iter().map(|moment| moment[i].split_at(k * m));
        for (w, b) in std::iter::once((&layer.w.data[..], &layer.b[..])).chain(params) {
            row_runs(w, k, m).for_each(|run| append(out, run));
            append(out, b);
        }
        let shard_sum = sum.finish(&out[record_start..]);
        out.extend_from_slice(&shard_sum.to_le_bytes());
    }
    debug_assert_eq!(out.len(), end, "shard sizing must be exact");
}

/// Appends a tensor's values, little-endian, as one block: on a
/// little-endian target that is a copy of the tensor's own bytes.
#[allow(unsafe_code)]
fn append_f32s(out: &mut Vec<u8>, vals: &[f32]) {
    if cfg!(target_endian = "little") {
        // SAFETY: `vals` borrows `size_of_val(vals)` initialised bytes for
        // as long as the view lives; `u8` has alignment 1 and no invalid
        // bit pattern, and nothing is written through the view.
        let bytes = unsafe {
            std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals))
        };
        out.extend_from_slice(bytes);
    } else {
        append_f32s_portable(out, vals);
    }
}

/// [`append_f32s`] for any byte order, one value at a time.
fn append_f32s_portable(out: &mut Vec<u8>, vals: &[f32]) {
    out.extend(vals.iter().flat_map(|v| v.to_le_bytes()));
}

/// Parses and verifies one file into the training state and the partition
/// that was active when it was written. Header corruption is an
/// [`DappleError::InvalidConfig`]; shard corruption is a structured
/// [`DappleError::ShardCorrupt`] naming the bad shard.
pub fn from_bytes(bytes: &[u8]) -> Result<(TrainState, Partition)> {
    let mut cur = Cursor { bytes, pos: 0 };
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(DappleError::InvalidConfig("bad checkpoint magic".into()));
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(DappleError::InvalidConfig(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let step = cur.u64()?;
    let data_seed = cur.u64()?;
    let data_cursor = cur.u64()?;
    let batch_samples = cur.u32()?;
    let n_stages = cur.u32()? as usize;
    if n_stages == 0 || n_stages > MAX_STAGES {
        return Err(DappleError::InvalidConfig(format!(
            "implausible stage count {n_stages}"
        )));
    }
    // Stage records are 12 bytes each; bound before reserving.
    if n_stages.saturating_mul(12) > cur.remaining() {
        return Err(DappleError::InvalidConfig("truncated checkpoint".into()));
    }
    let mut stage_bounds = Vec::with_capacity(n_stages);
    let mut replication = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let start = cur.u32()? as usize;
        let end = cur.u32()? as usize;
        stage_bounds.push(start..end);
        replication.push(cur.u32()? as usize);
    }
    let n_layers = cur.u32()? as usize;
    if n_layers == 0 || n_layers > 1 << 20 {
        return Err(DappleError::InvalidConfig(format!(
            "implausible layer count {n_layers}"
        )));
    }
    if n_layers.saturating_mul(9) > cur.remaining() {
        return Err(DappleError::InvalidConfig("truncated checkpoint".into()));
    }
    let mut dims = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let in_dim = cur.u32()? as usize;
        let out_dim = cur.u32()? as usize;
        let act = match cur.u8()? {
            0 => Activation::Identity,
            1 => Activation::Relu,
            2 => Activation::Tanh,
            a => {
                return Err(DappleError::InvalidConfig(format!(
                    "unknown activation tag {a}"
                )))
            }
        };
        dims.push((in_dim, out_dim, act));
    }
    let partition = Partition {
        stage_bounds,
        replication,
    };
    partition.validate(n_layers)?;
    // Hyper-parameters and global scalars; the per-layer moment buffers
    // are filled from the shards.
    let mut optimizer = match cur.u8()? {
        0 => Optimizer::Sgd { lr: cur.f32()? },
        1 => Optimizer::Momentum {
            lr: cur.f32()?,
            beta: cur.f32()?,
            velocity: Vec::with_capacity(n_layers),
        },
        2 => Optimizer::Adam {
            lr: cur.f32()?,
            beta1: cur.f32()?,
            beta2: cur.f32()?,
            eps: cur.f32()?,
            t: cur.u64()?,
            m: Vec::with_capacity(n_layers),
            v: Vec::with_capacity(n_layers),
        },
        tag => {
            return Err(DappleError::InvalidConfig(format!(
                "unknown optimizer tag {tag}"
            )))
        }
    };
    let n_shards = cur.u32()? as usize;
    if n_shards != n_layers {
        return Err(DappleError::InvalidConfig(format!(
            "{n_shards} shards for a {n_layers}-layer model"
        )));
    }
    // Header integrity: everything up to (excluding) the stored sum.
    let header_end = cur.pos;
    let stored = cur.u64()?;
    let computed = checksum(&bytes[..header_end]);
    if stored != computed {
        return Err(DappleError::InvalidConfig(format!(
            "checkpoint header checksum mismatch: stored {stored:#018x}, \
             computed {computed:#018x}"
        )));
    }
    let mut layers = Vec::with_capacity(n_layers);
    let mut moments: Vec<&mut Vec<Vec<f32>>> = match &mut optimizer {
        Optimizer::Sgd { .. } => vec![],
        Optimizer::Momentum { velocity, .. } => vec![velocity],
        Optimizer::Adam { m, v, .. } => vec![m, v],
    };
    for (s, (in_dim, out_dim, act)) in dims.into_iter().enumerate() {
        let record_start = cur.pos;
        let layer = cur.u32()? as usize;
        let corrupt = |detail: String| DappleError::ShardCorrupt {
            shard: s,
            layer,
            detail,
        };
        if layer != s {
            return Err(corrupt(format!("shard {s} must hold layer {s}")));
        }
        // The payload length comes from header dims a crafted file
        // controls: checked arithmetic, then bounded by the bytes that
        // are actually there, before any buffer is reserved.
        let n_params = in_dim
            .checked_mul(out_dim)
            .and_then(|n| n.checked_add(out_dim));
        let need = n_params
            .and_then(|n| n.checked_mul(1 + moments.len()))
            .and_then(|n| n.checked_mul(4))
            .and_then(|n| n.checked_add(8));
        let (Some(n_params), Some(need)) = (n_params, need) else {
            return Err(corrupt("shard size overflows".into()));
        };
        if need > cur.remaining() {
            return Err(corrupt(format!(
                "shard claims {need} bytes, only {} remain",
                cur.remaining()
            )));
        }
        let w = cur.f32s(n_params - out_dim)?;
        let b = cur.f32s(out_dim)?;
        for buf in &mut moments {
            // Row-major on file, panel-major in memory, like `W`.
            let mut state = PackedRhs::new();
            state.data.reserve_exact(n_params);
            state.pack(&Tensor::from_vec(
                in_dim,
                out_dim,
                cur.f32s(n_params - out_dim)?,
            ));
            state.data.extend(cur.f32s(out_dim)?);
            buf.push(state.data);
        }
        let record_end = cur.pos;
        let stored = cur.u64()?;
        let computed = checksum(&bytes[record_start..record_end]);
        if stored != computed {
            return Err(corrupt(format!(
                "shard checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        layers.push(Dense::from_weights(
            Tensor::from_vec(in_dim, out_dim, w),
            b,
            act,
        )?);
    }
    if cur.pos != bytes.len() {
        return Err(DappleError::InvalidConfig(format!(
            "trailing {} bytes in checkpoint",
            bytes.len() - cur.pos
        )));
    }
    let state = TrainState {
        model: MlpModel { layers },
        optimizer,
        step,
        data_seed,
        data_cursor,
        batch_samples,
    };
    Ok((state, partition))
}

/// How many appended bytes [`write_into`] lets wait before folding them
/// into a shard's sum: few enough to be read back from L1.
const FOLD_BYTES: usize = 4096;

const SUM_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const SUM_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The format's integrity sum over headers and shard records, defined in
/// the module docs.
pub fn checksum(bytes: &[u8]) -> u64 {
    Sum::new().finish(bytes)
}

/// [`checksum`] taken while its input grows: the eight lanes over the
/// whole 64-byte blocks folded so far.
struct Sum {
    lanes: [u64; 8],
    /// Bytes of the input already folded: a whole number of blocks.
    folded: usize,
}

impl Sum {
    fn new() -> Self {
        Sum {
            lanes: std::array::from_fn(|i| SUM_BASIS ^ i as u64),
            folded: 0,
        }
    }

    /// Folds the whole blocks of `bytes` past those already folded;
    /// `bytes` is every byte seen so far, the same prefix at each call.
    fn fold_blocks(&mut self, bytes: &[u8]) {
        let blocks = bytes[self.folded..].chunks_exact(64);
        self.folded = bytes.len() - blocks.remainder().len();
        for block in blocks {
            for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
                *lane = (*lane ^ word).wrapping_mul(SUM_PRIME);
            }
        }
    }

    /// The sum of `bytes`, the whole input: the blocks not yet folded,
    /// then the lanes, then the tail.
    fn finish(mut self, bytes: &[u8]) -> u64 {
        self.fold_blocks(bytes);
        let mut h = SUM_BASIS ^ bytes.len() as u64;
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(SUM_PRIME);
        }
        for &b in &bytes[self.folded..] {
            h = (h ^ u64::from(b)).wrapping_mul(SUM_PRIME);
        }
        h
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| DappleError::InvalidConfig("checkpoint offset overflows".into()))?;
        if end > self.bytes.len() {
            return Err(DappleError::InvalidConfig("truncated checkpoint".into()));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// `n` values as one block: one bounds check, one pass.
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>> {
        let block = self.take(n.saturating_mul(4))?;
        let values = block.chunks_exact(4);
        Ok(values
            .map(|v| f32::from_le_bytes(v.try_into().expect("4 bytes")))
            .collect())
    }
}

#[cfg(test)]
// One-stage partitions really are arrays of a single `Range`.
#[allow(clippy::single_range_in_vec_init)]
mod tests {
    use super::*;
    use crate::data;

    fn state_with(optimizer: Optimizer, model: MlpModel) -> TrainState {
        TrainState {
            model,
            optimizer,
            step: 17,
            data_seed: 99,
            data_cursor: 17,
            batch_samples: 16,
        }
    }

    fn part(bounds: &[Range<usize>], reps: &[usize]) -> Partition {
        Partition {
            stage_bounds: bounds.to_vec(),
            replication: reps.to_vec(),
        }
    }

    /// Trains `state.model` a little so weights/optimizer buffers are
    /// non-trivial.
    fn train_all(state: &mut TrainState, steps: usize) {
        let (x, t) = data::regression_batch(16, 5, 3, 3);
        for _ in 0..steps {
            let (_, grads) = state.model.reference_grads(&x, &t, 2);
            state.optimizer.step(&mut state.model, &grads);
        }
    }

    /// Where each shard record of `bytes`, a save of `state`, starts.
    fn shard_offsets(state: &TrainState, bytes: &[u8]) -> Vec<usize> {
        let bufs = match state.optimizer {
            Optimizer::Sgd { .. } => 0,
            Optimizer::Momentum { .. } => 1,
            Optimizer::Adam { .. } => 2,
        };
        let size = |l: &Dense| 4 + 4 * l.num_params() * (1 + bufs) + 8;
        let layers = &state.model.layers;
        let mut end = bytes.len() - layers.iter().map(size).sum::<usize>();
        let start_of = |l| {
            end += size(l);
            end - size(l)
        };
        layers.iter().map(start_of).collect()
    }

    #[test]
    fn full_round_trip_is_exact_for_all_optimizers() {
        let model = MlpModel::new(&[5, 9, 3], 1234);
        let mks: [fn(&MlpModel) -> Optimizer; 3] = [
            |_| Optimizer::sgd(0.1),
            |m| Optimizer::momentum(0.1, 0.9, m),
            |m| Optimizer::adam(0.01, m),
        ];
        let partition = part(&[0..1, 1..2], &[2, 1]);
        for mk in mks {
            let mut state = state_with(mk(&model), model.clone());
            train_all(&mut state, 2);
            let bytes = to_bytes(state.view(), &partition);
            assert_eq!(from_bytes(&bytes).unwrap(), (state, partition.clone()));
        }
    }

    #[test]
    fn shard_corruption_names_the_shard() {
        let model = MlpModel::new(&[5, 9, 3], 7);
        let partition = part(&[0..2], &[1]);
        let mut state = state_with(Optimizer::adam(0.01, &model), model);
        train_all(&mut state, 1);
        let bytes = to_bytes(state.view(), &partition);
        // Flip one payload byte inside the SECOND shard.
        let mut bad = bytes.clone();
        bad[shard_offsets(&state, &bytes)[1] + 4 + 3] ^= 0x40;
        match from_bytes(&bad) {
            Err(DappleError::ShardCorrupt { shard, layer, .. }) => {
                assert_eq!(shard, 1);
                assert_eq!(layer, 1);
            }
            other => panic!("expected ShardCorrupt for shard 1, got {other:?}"),
        }
        // Header corruption is caught before any shard is parsed.
        let mut bad = bytes.clone();
        bad[MAGIC.len() + 4] ^= 0x01; // step byte
        assert!(matches!(
            from_bytes(&bad),
            Err(DappleError::InvalidConfig(_))
        ));
    }

    /// Shard `s` is layer `s`: two records that each pass their own
    /// checksum are still refused when swapped, or when one layer's
    /// record stands in for another's.
    #[test]
    fn shard_out_of_order_or_repeated_is_shard_corrupt() {
        let model = MlpModel::new(&[4, 4, 4], 7);
        let state = state_with(Optimizer::momentum(0.1, 0.9, &model), model);
        let bytes = to_bytes(state.view(), &part(&[0..2], &[1]));
        assert!(from_bytes(&bytes).is_ok());
        let at = shard_offsets(&state, &bytes);
        let mut swapped = bytes.clone();
        swapped[at[0]..].rotate_left(at[1] - at[0]);
        assert!(matches!(
            from_bytes(&swapped),
            Err(DappleError::ShardCorrupt {
                shard: 0,
                layer: 1,
                ..
            })
        ));
        let mut repeated = bytes;
        repeated.copy_within(at[0]..at[1], at[1]);
        assert!(matches!(
            from_bytes(&repeated),
            Err(DappleError::ShardCorrupt {
                shard: 1,
                layer: 0,
                ..
            })
        ));
    }

    #[test]
    fn detects_any_single_byte_corruption_exhaustively() {
        let model = MlpModel::new(&[4, 3, 2], 5);
        let partition = part(&[0..1, 1..2], &[1, 1]);
        let state = state_with(Optimizer::momentum(0.1, 0.9, &model), model);
        let bytes = to_bytes(state.view(), &partition);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                from_bytes(&bad).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    /// A small save plus the offset of its header checksum, for tests
    /// that patch a header field and must re-seal the header so the
    /// field check — not the checksum — is what rejects the file.
    fn small_save(optimizer: fn(&MlpModel) -> Optimizer) -> (Vec<u8>, usize) {
        let model = MlpModel::new(&[2, 3, 2], 5);
        let state = state_with(optimizer(&model), model);
        let bytes = to_bytes(state.view(), &part(&[0..2], &[1]));
        let header_end = shard_offsets(&state, &bytes)[0] - 8;
        (bytes, header_end)
    }

    /// Offset of layer 0's `in u32 | out u32 | act u8` record: magic,
    /// version | step, seed, cursor, batch | n_stages + 1 stage | n_layers.
    const LAYER0: usize = 8 + 28 + (4 + 12) + 4;

    fn reseal_header(bytes: &mut [u8], header_end: usize) {
        let sum = checksum(&bytes[..header_end]);
        bytes[header_end..header_end + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn rejects_bad_magic_every_truncation_and_trailing_garbage() {
        let (bytes, _) = small_save(|m| Optimizer::adam(0.01, m));
        assert!(from_bytes(&bytes).is_ok());
        for len in 0..bytes.len() {
            assert!(
                from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(from_bytes(&longer).is_err());
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert!(from_bytes(&bad_magic).is_err());
    }

    /// The retired formats (and any future one) are refused by version,
    /// not handed to a parser: the error names the version whatever
    /// follows the header.
    #[test]
    fn other_format_versions_are_unsupported_not_parsed() {
        let (current, _) = small_save(|_| Optimizer::sgd(0.1));
        for version in [1u32, 2, 3, 4, 6, 99] {
            for body in [&current[8..], &[][..]] {
                let mut bytes = Vec::from(*MAGIC);
                bytes.extend_from_slice(&version.to_le_bytes());
                bytes.extend_from_slice(body);
                assert_eq!(
                    from_bytes(&bytes).map(|_| ()),
                    Err(DappleError::InvalidConfig(format!(
                        "unsupported checkpoint version {version}"
                    )))
                );
            }
        }
    }

    #[test]
    fn rejects_unknown_activation() {
        let (mut bytes, header_end) = small_save(|_| Optimizer::sgd(0.1));
        bytes[LAYER0 + 8] = 7;
        reseal_header(&mut bytes, header_end);
        assert_eq!(
            from_bytes(&bytes).map(|_| ()),
            Err(DappleError::InvalidConfig(
                "unknown activation tag 7".into()
            ))
        );
    }

    /// A well-sealed header claiming huge layer dims must be rejected by
    /// checked arithmetic and the remaining-bytes bound before any
    /// allocation is attempted — this test would OOM, or overflow
    /// `n_params * buffers`, if `Vec::with_capacity` ran on the
    /// attacker-controlled `in_dim * out_dim` product.
    #[test]
    fn adversarial_dims_rejected_before_allocation() {
        let mks: [fn(&MlpModel) -> Optimizer; 2] =
            [|_| Optimizer::sgd(0.1), |m| Optimizer::adam(0.01, m)];
        for mk in mks {
            for dims in [[u32::MAX, u32::MAX], [1 << 15, 1 << 15]] {
                let (mut bytes, header_end) = small_save(mk);
                bytes[LAYER0..LAYER0 + 4].copy_from_slice(&dims[0].to_le_bytes());
                bytes[LAYER0 + 4..LAYER0 + 8].copy_from_slice(&dims[1].to_le_bytes());
                reseal_header(&mut bytes, header_end);
                assert!(matches!(
                    from_bytes(&bytes),
                    Err(DappleError::ShardCorrupt { layer: 0, .. })
                ));
            }
        }
    }

    /// The borrowed view a little-endian target appends and the portable
    /// per-value loop write the same bytes — each value's bit pattern,
    /// low byte first — for the values a numeric conversion would disturb.
    #[test]
    fn both_encodings_keep_every_bit_of_special_values() {
        // Quiet, payload-carrying, signalling and all-ones NaNs; -0.0 and
        // 0.0; the smallest and the largest negative subnormal; infinities.
        #[rustfmt::skip]
        let specials = [
            0x7fc0_0000u32, 0x7fc1_2345, 0x7f80_0001, 0xffff_ffff, 0x8000_0000,
            0, 1, 0x807f_ffff, 0x7f80_0000, 0xff80_0000,
        ];
        let vals: Vec<f32> = specials.iter().map(|&b| f32::from_bits(b)).collect();
        let (mut view, mut portable) = (Vec::new(), Vec::new());
        append_f32s(&mut view, &vals);
        append_f32s_portable(&mut portable, &vals);
        assert_eq!(view, portable);
        let bits: Vec<u8> = specials.iter().flat_map(|b| b.to_le_bytes()).collect();
        assert_eq!(view, bits);
    }
}
