//! The model graph: a linear chain of layers plus training metadata.

use crate::layer::Layer;
use dapple_core::{Bytes, DappleError, Result};
use std::ops::Range;

/// Optimizer used to train a model; determines per-parameter state bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Plain SGD: weight + gradient (8 B/param).
    Sgd,
    /// SGD with momentum: weight + gradient + momentum (12 B/param).
    SgdMomentum,
    /// RMSProp: weight + gradient + mean-square accumulator (12 B/param).
    RmsProp,
    /// Adam: weight + gradient + two moments (16 B/param) — the figure the
    /// paper uses in Table VIII ("each model parameter needs 16 bytes").
    Adam,
}

impl OptimizerKind {
    /// Bytes of persistent state per fp32 parameter (weights included).
    pub fn bytes_per_param(self) -> u64 {
        match self {
            OptimizerKind::Sgd => 8,
            OptimizerKind::SgdMomentum | OptimizerKind::RmsProp => 12,
            OptimizerKind::Adam => 16,
        }
    }
}

/// A model: an ordered chain of layers.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGraph {
    /// Model name, e.g. `"BERT-48"`.
    pub name: String,
    /// Layers in execution order.
    pub layers: Vec<Layer>,
    /// Input size per sample fed to layer 0 (e.g. image or token ids).
    pub input_bytes: Bytes,
    /// Device-saturation constant, in samples.
    ///
    /// Kernel time is affine in batch size: `t(b) ∝ b + saturation_samples`
    /// — tiny per-device batches under-fill the device. Efficiency at batch
    /// `b` is `b / (b + c)`; the zoo calibrates `c` to 1/16 of each model's
    /// profile batch (≈94% efficiency at the published per-device batch).
    /// This is the effect behind the paper's "large enough micro-batch size
    /// to ensure device efficiency" (§V-B2) and its preference for fewer
    /// pipeline stages.
    pub saturation_samples: f64,
}

impl ModelGraph {
    /// Creates a graph, rejecting empty layer lists.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>, input_bytes: Bytes) -> Result<Self> {
        if layers.is_empty() {
            return Err(DappleError::InvalidConfig("model has no layers".into()));
        }
        Ok(ModelGraph {
            name: name.into(),
            layers,
            input_bytes,
            saturation_samples: 0.0,
        })
    }

    /// Sets the device-saturation constant (see the field docs).
    pub fn with_saturation(mut self, samples: f64) -> Self {
        self.saturation_samples = samples;
        self
    }

    /// Number of layers.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total parameter bytes (fp32 weights). Gradient traffic equals this.
    pub fn total_param_bytes(&self) -> Bytes {
        self.layers.iter().map(|l| l.param_bytes).sum()
    }

    /// Total number of parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Parameter bytes within a layer range.
    pub fn param_bytes_in(&self, range: Range<usize>) -> Bytes {
        self.layers[range].iter().map(|l| l.param_bytes).sum()
    }

    /// Forward FLOPs per sample within a layer range.
    pub fn flops_fw_in(&self, range: Range<usize>) -> f64 {
        self.layers[range].iter().map(|l| l.flops_fw).sum()
    }

    /// Per-sample activation bytes crossing a boundary placed after layer
    /// `boundary - 1` (i.e. between `boundary - 1` and `boundary`).
    ///
    /// `boundary == 0` yields the model input size.
    pub fn boundary_act(&self, boundary: usize) -> Bytes {
        if boundary == 0 {
            self.input_bytes
        } else {
            self.layers[boundary - 1].output_act
        }
    }

    /// Per-sample stored-activation bytes within a layer range.
    pub fn stored_act_in(&self, range: Range<usize>) -> Bytes {
        self.layers[range].iter().map(|l| l.stored_act).sum()
    }

    /// Per-sample forward FLOPs of the full model.
    pub fn total_flops_fw(&self) -> f64 {
        self.flops_fw_in(0..self.num_layers())
    }
}

/// A benchmark model plus the training configuration the paper uses for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// The layer graph.
    pub graph: ModelGraph,
    /// Per-device batch size used for offline profiling (Table II).
    pub profile_batch: usize,
    /// Global batch size used in the planning experiments (Table V).
    pub global_batch: usize,
    /// Optimizer the paper trains this model with (§VI-A).
    pub optimizer: OptimizerKind,
}

impl ModelSpec {
    /// Model name shorthand.
    pub fn name(&self) -> &str {
        &self.graph.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    fn toy() -> ModelGraph {
        let layers = (0..4)
            .map(|i| {
                Layer::from_ref_time(
                    format!("l{i}"),
                    10.0 * (i + 1) as f64,
                    Bytes::mib(1.0),
                    Bytes(1000 * (i + 1) as u64),
                    Bytes(2000),
                )
            })
            .collect();
        ModelGraph::new("toy", layers, Bytes(500)).unwrap()
    }

    #[test]
    fn rejects_empty_model() {
        assert!(ModelGraph::new("empty", vec![], Bytes(0)).is_err());
    }

    #[test]
    fn totals_sum_over_layers() {
        let g = toy();
        assert_eq!(g.total_param_bytes(), Bytes::mib(4.0));
        assert_eq!(g.total_params(), 4 * (1024 * 1024 / 4));
        let fw = g.total_flops_fw();
        assert!((fw - (10.0 + 20.0 + 30.0 + 40.0) * crate::FLOPS_PER_US).abs() < 1.0);
    }

    #[test]
    fn boundary_act_zero_is_input() {
        let g = toy();
        assert_eq!(g.boundary_act(0), Bytes(500));
        assert_eq!(g.boundary_act(1), Bytes(1000));
        assert_eq!(g.boundary_act(4), Bytes(4000));
    }

    #[test]
    fn range_sums() {
        let g = toy();
        assert_eq!(g.param_bytes_in(1..3), Bytes::mib(2.0));
        assert!((g.flops_fw_in(1..3) - 50.0 * crate::FLOPS_PER_US).abs() < 1.0);
        assert_eq!(g.stored_act_in(0..4), Bytes(8000));
    }

    #[test]
    fn optimizer_state_sizes() {
        assert_eq!(OptimizerKind::Adam.bytes_per_param(), 16);
        assert_eq!(OptimizerKind::Sgd.bytes_per_param(), 8);
        assert_eq!(OptimizerKind::SgdMomentum.bytes_per_param(), 12);
        assert_eq!(OptimizerKind::RmsProp.bytes_per_param(), 12);
    }
}
