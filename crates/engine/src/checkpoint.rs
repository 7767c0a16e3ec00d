//! Dependency-free binary checkpointing of full training state: one
//! versioned little-endian format, sharded per layer and delta-capable.
//!
//! ```text
//! magic "DAPL" | version=4 u32 | kind u8 (0=full, 1=delta) |
//! save_id u64 | base_id u64 (the full save a delta builds on; equal
//!   to save_id for a full save) |
//! step u64 | data_seed u64 | data_cursor u64 | batch_samples u32 |
//! n_stages u32 | per stage: start u32 | end u32 | replication u32
//!   (the *active* partition — a checkpoint taken while degraded
//!    restores the degraded pipeline, not the original one) |
//! n_layers u32 | per layer: in u32 | out u32 | act u8 |
//! opt u8 + scalars (0: lr | 1: lr beta | 2: lr b1 b2 eps t) |
//! n_shards u32 | header checksum u64 over every preceding byte |
//! per shard: layer u32 | version u64 |
//!   payload f32*: weights, bias, then one optimizer buffer per
//!     moment (velocity, or Adam m then v), each `num_params` long |
//!   shard checksum u64 over the record (layer through payload)
//! ```
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
//! Eight independent multiply chains run at memory speed where version
//! 3's byte-serial FNV-1a waited a multiply latency per byte. Every step
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
//! any other version — including the retired formats 1 to 3 — is
//! rejected as unsupported before anything else is read.
//!
//! The state is split into **per-layer shards** carrying monotonic
//! version counters (PipeDream checkpoints per stage with no global
//! coordination; this is that design at layer granularity).
//! [`full_to_bytes`] writes every shard; [`delta_to_bytes`] writes
//! only the shards whose version advanced since the previous save —
//! O(changed shards), not O(model) — and [`chain_to_state`] merges a
//! full base plus its delta chain back into a [`TrainState`]. The
//! `…_into` writers fill a caller's buffer, so a periodic save reuses
//! storage that is already mapped. Every shard carries its own checksum,
//! so corruption is rejected with a structured
//! [`DappleError::ShardCorrupt`] *naming the bad shard* instead of a
//! whole-file error (the file-level checksum covers only the header).
//! [`CheckpointStore`] layers a directory convention on top, with
//! coordination-free GC of deltas obsoleted by a newer full save.

use crate::layer::{Activation, Dense};
use crate::model::MlpModel;
use crate::optim::Optimizer;
use crate::tensor::Tensor;
use dapple_core::{DappleError, Result};
use std::fs::File;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DAPL";
const VERSION: u32 = 4;

/// The fixed head of every file: magic, version, kind, the two save ids.
const IDENTITY_LEN: usize = 4 + 4 + 1 + 8 + 8;

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
    /// This state, borrowed, as the writers take it.
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

/// Whether a file carries the whole state or only changed shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveKind {
    /// Every shard present; self-contained.
    Full,
    /// Only shards whose version advanced since the base save.
    Delta,
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

/// The result of merging a base + delta chain: the training state,
/// the partition active when the newest file was written, and the shard
/// versions carried forward.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedState {
    /// The merged training state.
    pub state: TrainState,
    /// Active partition at the newest save in the chain.
    pub partition: Partition,
    /// Per-layer shard versions after the merge.
    pub versions: Vec<u64>,
    /// `save_id` of the newest file in the chain.
    pub save_id: u64,
}

/// Serializes the full state as a self-contained file (every shard).
pub fn full_to_bytes(
    state: StateView<'_>,
    partition: &Partition,
    versions: &[u64],
    save_id: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    full_into(&mut out, state, partition, versions, save_id);
    out
}

/// [`full_to_bytes`] into `out`: its contents are replaced, its storage
/// is reused.
pub fn full_into(
    out: &mut Vec<u8>,
    state: StateView<'_>,
    partition: &Partition,
    versions: &[u64],
    save_id: u64,
) {
    write_into(out, state, partition, versions, save_id, save_id, &|_| true);
}

/// Serializes only the shards whose version advanced past `since`
/// (`versions[i] > since[i]`) — O(changed shards), not O(model).
/// `base_id` names the full save the delta builds on.
pub fn delta_to_bytes(
    state: StateView<'_>,
    partition: &Partition,
    versions: &[u64],
    since: &[u64],
    save_id: u64,
    base_id: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    delta_into(
        &mut out, state, partition, versions, since, save_id, base_id,
    );
    out
}

/// [`delta_to_bytes`] into `out`: its contents are replaced, its storage
/// is reused.
pub fn delta_into(
    out: &mut Vec<u8>,
    state: StateView<'_>,
    partition: &Partition,
    versions: &[u64],
    since: &[u64],
    save_id: u64,
    base_id: u64,
) {
    write_into(out, state, partition, versions, save_id, base_id, &|i| {
        versions[i] > since.get(i).copied().unwrap_or(0)
    });
}

/// The writer; `include(layer)` selects the shards to emit. `out` is
/// sized exactly once the header is down, so the shards — the model —
/// are appended without a single regrowth, each tensor as one block.
fn write_into(
    out: &mut Vec<u8>,
    state: StateView<'_>,
    partition: &Partition,
    versions: &[u64],
    save_id: u64,
    base_id: u64,
    include: &dyn Fn(usize) -> bool,
) {
    let layers = &state.model.layers;
    assert_eq!(
        versions.len(),
        layers.len(),
        "one shard version per model layer"
    );
    let kind = if save_id == base_id { 0u8 } else { 1u8 };
    let shard_layers: Vec<usize> = (0..layers.len()).filter(|&i| include(i)).collect();
    out.clear();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&save_id.to_le_bytes());
    out.extend_from_slice(&base_id.to_le_bytes());
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
    out.extend_from_slice(&(shard_layers.len() as u32).to_le_bytes());
    let header_sum = checksum(out);
    out.extend_from_slice(&header_sum.to_le_bytes());
    // Per shard: layer, version, weights + bias and as many again per
    // optimizer buffer, checksum.
    let shards_len: usize = shard_layers
        .iter()
        .map(|&i| 4 + 8 + 4 * layers[i].num_params() * (1 + opt_bufs) + 8)
        .sum();
    out.reserve_exact(shards_len);
    let end = out.len() + shards_len;
    for &i in &shard_layers {
        let record_start = out.len();
        out.extend_from_slice(&(i as u32).to_le_bytes());
        out.extend_from_slice(&versions[i].to_le_bytes());
        append_f32s(out, &layers[i].w.data);
        append_f32s(out, &layers[i].b);
        match state.optimizer {
            Optimizer::Sgd { .. } => {}
            Optimizer::Momentum { velocity, .. } => append_f32s(out, &velocity[i]),
            Optimizer::Adam { m, v, .. } => {
                append_f32s(out, &m[i]);
                append_f32s(out, &v[i]);
            }
        }
        let shard_sum = checksum(&out[record_start..]);
        out.extend_from_slice(&shard_sum.to_le_bytes());
    }
    debug_assert_eq!(out.len(), end, "shard sizing must be exact");
}

/// Appends a tensor's values, little-endian, as one block: on a
/// little-endian target that is a copy of the tensor's own bytes.
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

/// The optimizer header of a file: hyper-parameters and global
/// scalars, without the per-layer buffers (those live in the shards).
#[derive(Debug, Clone, Copy, PartialEq)]
enum OptHeader {
    Sgd {
        lr: f32,
    },
    Momentum {
        lr: f32,
        beta: f32,
    },
    Adam {
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
    },
}

impl OptHeader {
    /// Optimizer moment buffers per layer (payload multiplier).
    fn num_bufs(self) -> usize {
        match self {
            OptHeader::Sgd { .. } => 0,
            OptHeader::Momentum { .. } => 1,
            OptHeader::Adam { .. } => 2,
        }
    }
}

/// One parsed shard: the layer's weights, bias and optimizer buffers.
#[derive(Debug, Clone, PartialEq)]
struct Shard {
    layer: usize,
    version: u64,
    w: Vec<f32>,
    b: Vec<f32>,
    bufs: Vec<Vec<f32>>,
}

/// One fully parsed and integrity-checked file.
#[derive(Debug, Clone, PartialEq)]
struct ParsedFile {
    kind: SaveKind,
    save_id: u64,
    base_id: u64,
    step: u64,
    data_seed: u64,
    data_cursor: u64,
    batch_samples: u32,
    partition: Partition,
    dims: Vec<(usize, usize, Activation)>,
    opt: OptHeader,
    shards: Vec<Shard>,
}

/// Parses and verifies one file. Header corruption is an
/// [`DappleError::InvalidConfig`]; shard corruption is a structured
/// [`DappleError::ShardCorrupt`] naming the bad shard.
fn parse_file(bytes: &[u8]) -> Result<ParsedFile> {
    let (kind, save_id, base_id) = peek(bytes)?;
    let mut cur = Cursor {
        bytes,
        pos: IDENTITY_LEN,
    };
    if (kind == SaveKind::Full) != (save_id == base_id) {
        return Err(DappleError::InvalidConfig(format!(
            "save kind/base mismatch: kind {kind:?}, save_id {save_id}, base_id {base_id}"
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
    let opt = match cur.u8()? {
        0 => OptHeader::Sgd { lr: cur.f32()? },
        1 => OptHeader::Momentum {
            lr: cur.f32()?,
            beta: cur.f32()?,
        },
        2 => OptHeader::Adam {
            lr: cur.f32()?,
            beta1: cur.f32()?,
            beta2: cur.f32()?,
            eps: cur.f32()?,
            t: cur.u64()?,
        },
        tag => {
            return Err(DappleError::InvalidConfig(format!(
                "unknown optimizer tag {tag}"
            )))
        }
    };
    let n_shards = cur.u32()? as usize;
    if n_shards > n_layers {
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
    let mut shards = Vec::with_capacity(n_shards);
    let mut seen = vec![false; n_layers];
    for s in 0..n_shards {
        let record_start = cur.pos;
        let corrupt = |layer: usize, detail: String| DappleError::ShardCorrupt {
            shard: s,
            layer,
            detail,
        };
        let layer = cur.u32()? as usize;
        if layer >= n_layers {
            return Err(corrupt(
                layer,
                format!("layer id out of range (model has {n_layers} layers)"),
            ));
        }
        if seen[layer] {
            return Err(corrupt(layer, "duplicate shard for layer".into()));
        }
        seen[layer] = true;
        let version = cur.u64()?;
        // The payload length comes from header dims a crafted file
        // controls: checked arithmetic, then bounded by the bytes that
        // are actually there, before any buffer is reserved.
        let (in_dim, out_dim, _) = dims[layer];
        let n_params = in_dim
            .checked_mul(out_dim)
            .and_then(|n| n.checked_add(out_dim));
        let need = n_params
            .and_then(|n| n.checked_mul(1 + opt.num_bufs()))
            .and_then(|n| n.checked_mul(4))
            .and_then(|n| n.checked_add(8));
        let (Some(n_params), Some(need)) = (n_params, need) else {
            return Err(corrupt(layer, "shard size overflows".into()));
        };
        if need > cur.remaining() {
            return Err(corrupt(
                layer,
                format!("shard claims {need} bytes, only {} remain", cur.remaining()),
            ));
        }
        let w = cur.f32s(n_params - out_dim)?;
        let b = cur.f32s(out_dim)?;
        let bufs = (0..opt.num_bufs())
            .map(|_| cur.f32s(n_params))
            .collect::<Result<Vec<_>>>()?;
        let record_end = cur.pos;
        let stored = cur.u64()?;
        let computed = checksum(&bytes[record_start..record_end]);
        if stored != computed {
            return Err(corrupt(
                layer,
                format!(
                    "shard checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                ),
            ));
        }
        shards.push(Shard {
            layer,
            version,
            w,
            b,
            bufs,
        });
    }
    if cur.pos != bytes.len() {
        return Err(DappleError::InvalidConfig(format!(
            "trailing {} bytes in checkpoint",
            bytes.len() - cur.pos
        )));
    }
    if kind == SaveKind::Full && shards.len() != n_layers {
        return Err(DappleError::InvalidConfig(format!(
            "full save carries {} of {n_layers} shards",
            shards.len()
        )));
    }
    Ok(ParsedFile {
        kind,
        save_id,
        base_id,
        step,
        data_seed,
        data_cursor,
        batch_samples,
        partition,
        dims,
        opt,
        shards,
    })
}

/// Merges a chain — one full base followed by its deltas in save
/// order — into the final training state. Cost is O(model) once for the
/// base plus O(changed shards) per delta; metadata (step, cursors,
/// partition, optimizer scalars) comes from the newest file.
pub fn chain_to_state<B: AsRef<[u8]>>(chain: &[B]) -> Result<ShardedState> {
    let Some((base_bytes, deltas)) = chain.split_first() else {
        return Err(DappleError::InvalidConfig("empty checkpoint chain".into()));
    };
    let mut newest = parse_file(base_bytes.as_ref())?;
    if newest.kind != SaveKind::Full {
        return Err(DappleError::InvalidConfig(
            "checkpoint chain must start with a full save".into(),
        ));
    }
    // A full save carries every layer exactly once (`parse_file` checked),
    // so sorted by layer the shards are indexed by it.
    let mut shards = std::mem::take(&mut newest.shards);
    shards.sort_by_key(|s| s.layer);
    for bytes in deltas {
        let mut delta = parse_file(bytes.as_ref())?;
        if delta.kind != SaveKind::Delta {
            return Err(DappleError::InvalidConfig(
                "checkpoint chain has a second full save; start a new chain".into(),
            ));
        }
        if delta.base_id != newest.base_id {
            return Err(DappleError::InvalidConfig(format!(
                "delta {} builds on full save {}, chain base is {}",
                delta.save_id, delta.base_id, newest.base_id
            )));
        }
        if delta.save_id <= newest.save_id {
            return Err(DappleError::InvalidConfig(format!(
                "delta save ids must increase: {} after {}",
                delta.save_id, newest.save_id
            )));
        }
        if delta.dims != newest.dims {
            return Err(DappleError::InvalidConfig(
                "delta layer dims differ from the chain base".into(),
            ));
        }
        if delta.opt.num_bufs() != newest.opt.num_bufs() {
            return Err(DappleError::InvalidConfig(
                "delta optimizer kind differs from the chain base".into(),
            ));
        }
        for shard in std::mem::take(&mut delta.shards) {
            let current = &mut shards[shard.layer];
            if shard.version < current.version {
                return Err(DappleError::InvalidConfig(format!(
                    "shard for layer {} regressed from version {} to {}",
                    shard.layer, current.version, shard.version
                )));
            }
            *current = shard;
        }
        // Everything but the shards comes from the newest file.
        newest = delta;
    }
    // Assemble the model and optimizer from the merged shards.
    let n_layers = newest.dims.len();
    let mut layers = Vec::with_capacity(n_layers);
    let mut versions = Vec::with_capacity(n_layers);
    let mut moment_bufs: Vec<Vec<Vec<f32>>> = (0..newest.opt.num_bufs())
        .map(|_| Vec::with_capacity(n_layers))
        .collect();
    for (&(in_dim, out_dim, act), shard) in newest.dims.iter().zip(shards) {
        versions.push(shard.version);
        layers.push(Dense {
            w: Tensor::from_vec(in_dim, out_dim, shard.w),
            b: shard.b,
            act,
        });
        for (dst, src) in moment_bufs.iter_mut().zip(shard.bufs) {
            dst.push(src);
        }
    }
    let model = MlpModel { layers };
    let mut moments = moment_bufs.into_iter();
    let optimizer = match newest.opt {
        OptHeader::Sgd { lr } => Optimizer::Sgd { lr },
        OptHeader::Momentum { lr, beta } => Optimizer::Momentum {
            lr,
            beta,
            velocity: moments.next().expect("one momentum buffer"),
        },
        OptHeader::Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
        } => Optimizer::Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m: moments.next().expect("adam m"),
            v: moments.next().expect("adam v"),
        },
    };
    Ok(ShardedState {
        state: TrainState {
            model,
            optimizer,
            step: newest.step,
            data_seed: newest.data_seed,
            data_cursor: newest.data_cursor,
            batch_samples: newest.batch_samples,
        },
        partition: newest.partition,
        versions,
        save_id: newest.save_id,
    })
}

/// Peeks the identity of a checkpoint file without parsing its body:
/// returns `(kind, save_id, base_id)` from the fixed 25-byte head every
/// file starts with, and reads no more of `src` than that. Errors on
/// anything that does not start with a header of this format — callers
/// scanning a directory skip those files; any version but 4 is refused
/// here, before a single field of the body is looked at.
pub fn peek(src: impl Read) -> Result<(SaveKind, u64, u64)> {
    let mut head = Vec::with_capacity(IDENTITY_LEN);
    src.take(IDENTITY_LEN as u64)
        .read_to_end(&mut head)
        .map_err(|e| DappleError::InvalidConfig(format!("cannot read checkpoint: {e}")))?;
    let mut cur = Cursor {
        bytes: &head,
        pos: 0,
    };
    if cur.take(MAGIC.len())? != MAGIC {
        return Err(DappleError::InvalidConfig("bad checkpoint magic".into()));
    }
    let version = cur.u32()?;
    if version != VERSION {
        return Err(DappleError::InvalidConfig(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let kind = match cur.u8()? {
        0 => SaveKind::Full,
        1 => SaveKind::Delta,
        k => return Err(DappleError::InvalidConfig(format!("unknown save kind {k}"))),
    };
    Ok((kind, cur.u64()?, cur.u64()?))
}

/// A directory of checkpoint files with a coordination-free layout:
/// each file is self-describing ([`peek`]), so saving, resuming and
/// garbage collection never need a manifest or a lock — concurrent
/// writers with distinct `save_id`s cannot conflict.
///
/// Files are named `full-{save_id}.dapl` / `delta-{save_id}.dapl` for
/// human eyes only; discovery always reads the headers. A file appears
/// under its name complete or not at all: it is written and synced as
/// `….dapl.tmp` and renamed into place, and discovery ignores `*.tmp`.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (and creates if absent) a checkpoint directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            DappleError::InvalidConfig(format!("cannot create checkpoint dir: {e}"))
        })?;
        Ok(CheckpointStore { dir })
    }

    /// The directory backing the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a full save; returns the path and the serialized size.
    pub fn save_full(
        &self,
        state: &TrainState,
        partition: &Partition,
        versions: &[u64],
        save_id: u64,
    ) -> Result<(PathBuf, usize)> {
        let bytes = full_to_bytes(state.view(), partition, versions, save_id);
        self.publish(format!("full-{save_id:010}.dapl"), &bytes)
    }

    /// Writes a delta save of the shards with `versions[i] > since[i]`;
    /// returns the path and the serialized size.
    pub fn save_delta(
        &self,
        state: &TrainState,
        partition: &Partition,
        versions: &[u64],
        since: &[u64],
        save_id: u64,
        base_id: u64,
    ) -> Result<(PathBuf, usize)> {
        let bytes = delta_to_bytes(state.view(), partition, versions, since, save_id, base_id);
        self.publish(format!("delta-{save_id:010}.dapl"), &bytes)
    }

    /// Publishes `bytes` under `name` atomically: a crash mid-write leaves
    /// a `.tmp` file nobody reads, never a torn file whose intact header
    /// would shadow an older, valid generation.
    fn publish(&self, name: String, bytes: &[u8]) -> Result<(PathBuf, usize)> {
        let path = self.dir.join(name);
        let tmp = path.with_extension("dapl.tmp");
        let write = || {
            let mut file = File::create(&tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            // The new name is durable once its directory is.
            #[cfg(unix)]
            File::open(&self.dir)?.sync_all()?;
            std::io::Result::Ok(())
        };
        write().map_err(|e| DappleError::InvalidConfig(format!("cannot write checkpoint: {e}")))?;
        Ok((path, bytes.len()))
    }

    /// Every published file of this format in the store: `(kind, save_id,
    /// base_id, path)`, sorted by `save_id`. Only each file's identity
    /// prefix is read; other files — `*.tmp` included — are skipped.
    pub fn scan(&self) -> Result<Vec<(SaveKind, u64, u64, PathBuf)>> {
        self.list(false)
    }

    /// [`CheckpointStore::scan`] over the published files, or (`tmp`) over
    /// what writers have not published: still being written, or left by a
    /// writer that died.
    fn list(&self, tmp: bool) -> Result<Vec<(SaveKind, u64, u64, PathBuf)>> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| DappleError::InvalidConfig(format!("cannot read checkpoint dir: {e}")))?;
        let mut files = Vec::new();
        for entry in entries {
            let path = entry
                .map_err(|e| DappleError::InvalidConfig(format!("checkpoint dir entry: {e}")))?
                .path();
            if !path.is_file() || path.extension().is_some_and(|e| e == "tmp") != tmp {
                continue;
            }
            let Ok(file) = File::open(&path) else {
                continue;
            };
            if let Ok((kind, save_id, base_id)) = peek(file) {
                files.push((kind, save_id, base_id, path));
            }
        }
        files.sort_by_key(|&(_, save_id, _, _)| save_id);
        Ok(files)
    }

    /// Resumes from the newest full save plus its delta chain.
    pub fn resume(&self) -> Result<ShardedState> {
        let files = self.scan()?;
        let newest_full = files
            .iter()
            .rev()
            .find(|(kind, ..)| *kind == SaveKind::Full)
            .cloned()
            .ok_or_else(|| {
                DappleError::InvalidConfig("checkpoint store has no full save".into())
            })?;
        let (_, full_id, _, full_path) = newest_full;
        let read = |path: &Path| {
            std::fs::read(path)
                .map_err(|e| DappleError::InvalidConfig(format!("cannot read checkpoint: {e}")))
        };
        let mut chain = vec![read(&full_path)?];
        for (kind, save_id, base_id, path) in &files {
            if *kind == SaveKind::Delta && *base_id == full_id && *save_id > full_id {
                chain.push(read(path)?);
            }
        }
        chain_to_state(&chain)
    }

    /// Deletes deltas obsoleted by a newer full save (their `save_id`
    /// precedes the newest full's, so no resume can ever need them),
    /// orphan deltas whose base full is gone, and unpublished `*.tmp`
    /// files obsolete by the same rule. Never touches full saves.
    /// Coordination-free: decisions use only the self-describing file
    /// headers. Returns the number of files removed.
    pub fn gc(&self) -> Result<usize> {
        let files = self.scan()?;
        let fulls: std::collections::BTreeSet<u64> = files
            .iter()
            .filter(|(kind, ..)| *kind == SaveKind::Full)
            .map(|&(_, save_id, ..)| save_id)
            .collect();
        let obsolete = |save_id: u64| fulls.last().is_some_and(|&f| save_id < f);
        let mut removed = 0usize;
        for (kind, save_id, base_id, path) in files {
            if kind != SaveKind::Delta {
                continue;
            }
            let orphan = !fulls.contains(&base_id);
            if (obsolete(save_id) || orphan) && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        for (_, save_id, _, path) in self.list(true)? {
            if obsolete(save_id) && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

const SUM_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const SUM_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The format's integrity sum over headers and shard records, defined in
/// the module docs.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes: [u64; 8] = std::array::from_fn(|i| SUM_BASIS ^ i as u64);
    let mut blocks = bytes.chunks_exact(64);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            *lane = (*lane ^ word).wrapping_mul(SUM_PRIME);
        }
    }
    let mut h = SUM_BASIS ^ bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(SUM_PRIME);
    }
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(SUM_PRIME);
    }
    h
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
    /// non-trivial, bumping `versions` for every layer.
    fn train_all(state: &mut TrainState, versions: &mut [u64], steps: usize) {
        let (x, t) = data::regression_batch(16, 5, 3, 3);
        for _ in 0..steps {
            let (_, grads) = state.model.reference_grads(&x, &t, 2);
            state.optimizer.step(&mut state.model, &grads);
        }
        for v in versions {
            *v += steps as u64;
        }
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
            let mut versions = vec![3u64, 5];
            train_all(&mut state, &mut versions, 2);
            let bytes = full_to_bytes(state.view(), &partition, &versions, 42);
            let sharded = chain_to_state(&[&bytes]).unwrap();
            assert_eq!(sharded.state, state);
            assert_eq!(sharded.partition, partition);
            assert_eq!(sharded.versions, versions);
            assert_eq!(sharded.save_id, 42);
        }
    }

    #[test]
    fn delta_carries_only_advanced_shards_and_merges() {
        let model = MlpModel::new(&[5, 9, 3], 7);
        let partition = part(&[0..2], &[1]);
        let mut state = state_with(Optimizer::adam(0.01, &model), model);
        let mut versions = vec![1u64, 1];
        train_all(&mut state, &mut versions, 1);
        let since = versions.clone();
        let base = full_to_bytes(state.view(), &partition, &versions, 1);

        // Mutate ONLY layer 1, bump only its version.
        let mut newer = state.clone();
        newer.step += 3;
        newer.data_cursor += 3;
        for w in &mut newer.model.layers[1].w.data {
            *w += 0.25;
        }
        versions[1] += 1;
        let delta = delta_to_bytes(newer.view(), &partition, &versions, &since, 2, 1);
        // O(changed shards): layer 0 (5x9, the big one) is absent.
        assert!(
            delta.len() * 2 < base.len(),
            "delta {} bytes vs full {}",
            delta.len(),
            base.len()
        );
        let merged = chain_to_state(&[&base, &delta]).unwrap();
        assert_eq!(merged.state, newer);
        assert_eq!(merged.versions, versions);
        assert_eq!(merged.save_id, 2);

        // A second delta on the same base supersedes the first's shard.
        let mut newest = newer.clone();
        newest.step += 1;
        for b in &mut newest.model.layers[1].b {
            *b -= 1.0;
        }
        versions[1] += 1;
        let delta2 = delta_to_bytes(newest.view(), &partition, &versions, &since, 3, 1);
        let merged = chain_to_state(&[&base, &delta, &delta2]).unwrap();
        assert_eq!(merged.state, newest);
    }

    #[test]
    fn chain_misuse_is_rejected() {
        let model = MlpModel::new(&[5, 9, 3], 7);
        let partition = part(&[0..2], &[1]);
        let state = state_with(Optimizer::sgd(0.1), model);
        let versions = vec![2u64, 2];
        let base = full_to_bytes(state.view(), &partition, &versions, 10);
        let since = versions.clone();
        let mut v2s = versions.clone();
        v2s[0] += 1;
        let delta = delta_to_bytes(state.view(), &partition, &v2s, &since, 11, 10);
        // A delta alone is not a resumable checkpoint.
        assert!(chain_to_state(&[&delta]).is_err());
        // A delta built on a different full save is rejected.
        let other = full_to_bytes(state.view(), &partition, &versions, 20);
        assert!(chain_to_state(&[&other, &delta]).is_err());
        // Save ids must increase along the chain.
        assert!(chain_to_state(&[&base, &delta, &delta]).is_err());
        // A second full save mid-chain starts a new generation.
        assert!(chain_to_state(&[&base, &other]).is_err());
        // The empty chain is a structured error, not a panic.
        assert!(chain_to_state::<&[u8]>(&[]).is_err());
    }

    #[test]
    fn shard_corruption_names_the_shard() {
        let model = MlpModel::new(&[5, 9, 3], 7);
        let partition = part(&[0..2], &[1]);
        let mut state = state_with(Optimizer::adam(0.01, &model), model);
        let mut versions = vec![1u64, 1];
        train_all(&mut state, &mut versions, 1);
        let bytes = full_to_bytes(state.view(), &partition, &versions, 1);
        // Flip one payload byte inside the SECOND shard. The header ends
        // at the header checksum; shard 0 record = 4 + 8 + payload + 8.
        let n0 = state.model.layers[0].num_params() * 3; // adam: w,b + m + v
        let header_len =
            bytes.len() - 2 * (4 + 8 + 8) - n0 * 4 - state.model.layers[1].num_params() * 3 * 4;
        let shard1_payload = header_len + (4 + 8 + n0 * 4 + 8) + 4 + 8 + 3;
        let mut bad = bytes.clone();
        bad[shard1_payload] ^= 0x40;
        match chain_to_state(&[&bad]) {
            Err(DappleError::ShardCorrupt { shard, layer, .. }) => {
                assert_eq!(shard, 1);
                assert_eq!(layer, 1);
            }
            other => panic!("expected ShardCorrupt for shard 1, got {other:?}"),
        }
        // Header corruption is caught before any shard is parsed.
        let mut bad = bytes.clone();
        bad[MAGIC.len() + 4 + 1] ^= 0x01; // save_id byte
        assert!(matches!(
            chain_to_state(&[&bad]),
            Err(DappleError::InvalidConfig(_))
        ));
    }

    #[test]
    fn detects_any_single_byte_corruption_exhaustively() {
        let model = MlpModel::new(&[4, 3, 2], 5);
        let partition = part(&[0..1, 1..2], &[1, 1]);
        let state = state_with(Optimizer::momentum(0.1, 0.9, &model), model);
        let versions = vec![1u64, 1];
        let bytes = full_to_bytes(state.view(), &partition, &versions, 1);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                chain_to_state(&[&bad]).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    /// A small full save plus the offset of its header checksum, for
    /// tests that patch a header field and must re-seal the header so
    /// the field check — not the checksum — is what rejects the file.
    fn small_full(optimizer: fn(&MlpModel) -> Optimizer) -> (Vec<u8>, usize) {
        let model = MlpModel::new(&[2, 3, 2], 5);
        let state = state_with(optimizer(&model), model);
        let bytes = full_to_bytes(state.view(), &part(&[0..2], &[1]), &[1, 1], 1);
        let opt_len = match state.optimizer {
            Optimizer::Sgd { .. } => 1 + 4,
            Optimizer::Momentum { .. } => 1 + 8,
            Optimizer::Adam { .. } => 1 + 16 + 8,
        };
        // two 9-byte layer records | opt | n_shards
        (bytes, LAYER0 + 2 * 9 + opt_len + 4)
    }

    /// Offset of layer 0's `in u32 | out u32 | act u8` record: identity |
    /// step, seed, cursor, batch | n_stages + 1 stage | n_layers.
    const LAYER0: usize = IDENTITY_LEN + 28 + (4 + 12) + 4;

    fn reseal_header(bytes: &mut [u8], header_end: usize) {
        let sum = checksum(&bytes[..header_end]);
        bytes[header_end..header_end + 8].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn rejects_bad_magic_every_truncation_and_trailing_garbage() {
        let (bytes, _) = small_full(|m| Optimizer::adam(0.01, m));
        assert!(chain_to_state(&[&bytes]).is_ok());
        for len in 0..bytes.len() {
            assert!(
                chain_to_state(&[&bytes[..len]]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(chain_to_state(&[&longer]).is_err());
        let mut bad_magic = bytes;
        bad_magic[0] = b'X';
        assert!(chain_to_state(&[&bad_magic]).is_err());
        assert!(peek(&bad_magic[..]).is_err());
    }

    /// The retired formats (and any future one) are refused by version,
    /// not handed to a parser: the error names the version whatever
    /// follows the header.
    #[test]
    fn other_format_versions_are_unsupported_not_parsed() {
        let (current, _) = small_full(|_| Optimizer::sgd(0.1));
        for version in [1u32, 2, 3, 5, 99] {
            for body in [&current[8..], &[][..]] {
                let mut bytes = Vec::from(*MAGIC);
                bytes.extend_from_slice(&version.to_le_bytes());
                bytes.extend_from_slice(body);
                for got in [
                    chain_to_state(&[&bytes]).map(|_| ()),
                    peek(&bytes[..]).map(|_| ()),
                ] {
                    assert_eq!(
                        got,
                        Err(DappleError::InvalidConfig(format!(
                            "unsupported checkpoint version {version}"
                        )))
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_unknown_activation() {
        let (mut bytes, header_end) = small_full(|_| Optimizer::sgd(0.1));
        bytes[LAYER0 + 8] = 7;
        reseal_header(&mut bytes, header_end);
        assert_eq!(
            chain_to_state(&[&bytes]),
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
                let (mut bytes, header_end) = small_full(mk);
                bytes[LAYER0..LAYER0 + 4].copy_from_slice(&dims[0].to_le_bytes());
                bytes[LAYER0 + 4..LAYER0 + 8].copy_from_slice(&dims[1].to_le_bytes());
                reseal_header(&mut bytes, header_end);
                assert!(matches!(
                    chain_to_state(&[&bytes]),
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

    /// Discovery reads a file's identity, not the file: of a
    /// multi-megabyte save exactly the fixed prefix is consumed (std's
    /// cursor counts what a reader took from it).
    #[test]
    fn identity_reads_only_the_fixed_prefix() {
        let model = MlpModel::new(&[512, 512, 512], 3);
        let state = state_with(Optimizer::sgd(0.1), model);
        let bytes = full_to_bytes(state.view(), &part(&[0..2], &[1]), &[1, 1], 7);
        assert!(bytes.len() > 2 << 20);
        let mut src = std::io::Cursor::new(&bytes[..]);
        assert_eq!(peek(&mut src).unwrap(), (SaveKind::Full, 7, 7));
        assert_eq!(src.position(), IDENTITY_LEN as u64);
    }

    #[test]
    fn checkpoint_store_saves_resumes_and_gcs() {
        let dir = std::env::temp_dir().join(format!(
            "dapple-ckpt-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir).unwrap();
        let model = MlpModel::new(&[5, 9, 3], 7);
        let partition = part(&[0..2], &[1]);
        let mut state = state_with(Optimizer::adam(0.01, &model), model);
        let mut versions = vec![1u64, 1];
        train_all(&mut state, &mut versions, 1);
        store.save_full(&state, &partition, &versions, 1).unwrap();

        let since = versions.clone();
        let mut newer = state.clone();
        newer.step += 1;
        for b in &mut newer.model.layers[0].b {
            *b += 1.0;
        }
        versions[0] += 1;
        store
            .save_delta(&newer, &partition, &versions, &since, 2, 1)
            .unwrap();
        let resumed = store.resume().unwrap();
        assert_eq!(resumed.state, newer);
        assert_eq!(resumed.save_id, 2);

        // A writer died mid-save: half of a newer full under its `.tmp`
        // name. Its intact header must not shadow the valid generation.
        versions[1] += 1;
        let torn = full_to_bytes(newer.view(), &partition, &versions, 3);
        let torn_path = dir.join("full-0000000003.dapl.tmp");
        std::fs::write(&torn_path, &torn[..torn.len() / 2]).unwrap();
        assert_eq!(store.scan().unwrap().len(), 2);
        assert_eq!(store.resume().unwrap().save_id, 2);
        assert_eq!(store.gc().unwrap(), 0, "nothing newer is published yet");

        // A newer full save obsoletes the delta and the torn file; gc
        // removes exactly those, and publishing left no `.tmp` of its own.
        store.save_full(&newer, &partition, &versions, 4).unwrap();
        assert_eq!(store.scan().unwrap().len(), 3);
        assert_eq!(store.gc().unwrap(), 2);
        assert!(!torn_path.exists());
        let left = store.scan().unwrap();
        assert_eq!(left.len(), 2);
        assert!(left.iter().all(|(k, ..)| *k == SaveKind::Full));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        // Resume still lands on the newest full save.
        assert_eq!(store.resume().unwrap().save_id, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
