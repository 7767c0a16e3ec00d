//! Per-layer execution profiles.

use dapple_cluster::DeviceSpec;
use dapple_core::Bytes;
use dapple_model::ModelGraph;
use std::ops::Range;

/// Execution statistics of one layer for one sample on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerProfile {
    /// Layer name (copied from the graph).
    pub name: String,
    /// Forward compute time per sample, µs.
    pub fw_us: f64,
    /// Backward compute time per sample, µs.
    pub bw_us: f64,
    /// Parameter bytes (batch-independent).
    pub param_bytes: Bytes,
    /// Output activation bytes per sample.
    pub output_act: Bytes,
    /// Stored activation bytes per sample (kept alive until backward).
    pub stored_act: Bytes,
}

/// A profiled model: per-layer statistics normalized **per sample**.
///
/// Times and activation sizes scale linearly with batch size; helpers take
/// an explicit sample count so callers can evaluate any micro-batch size
/// from one profile (exactly how the paper profiles once and plans over a
/// range of global batch sizes).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    /// Model name.
    pub name: String,
    /// Per-layer, per-sample statistics.
    pub layers: Vec<LayerProfile>,
    /// Model input bytes per sample (activation entering layer 0).
    pub input_bytes: Bytes,
    /// Device-saturation constant in samples (see
    /// [`dapple_model::ModelGraph::saturation_samples`]).
    pub saturation_samples: f64,
}

impl ModelProfile {
    /// Profiles `graph` on `device`.
    pub fn profile(graph: &ModelGraph, device: &DeviceSpec) -> Self {
        let layers = graph
            .layers
            .iter()
            .map(|l| LayerProfile {
                name: l.name.clone(),
                fw_us: l.flops_fw / device.flops * 1e6,
                bw_us: l.flops_bw() / device.flops * 1e6,
                param_bytes: l.param_bytes,
                output_act: l.output_act,
                stored_act: l.stored_act,
            })
            .collect();
        ModelProfile {
            name: graph.name.clone(),
            layers,
            input_bytes: graph.input_bytes,
            saturation_samples: graph.saturation_samples,
        }
    }

    /// Number of layers.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward time of `range` for `samples` samples, µs.
    pub fn fw_us_in(&self, range: Range<usize>, samples: f64) -> f64 {
        self.layers[range].iter().map(|l| l.fw_us).sum::<f64>() * samples
    }

    /// Backward time of `range` for `samples` samples, µs.
    pub fn bw_us_in(&self, range: Range<usize>, samples: f64) -> f64 {
        self.layers[range].iter().map(|l| l.bw_us).sum::<f64>() * samples
    }

    /// Parameter bytes of `range` (batch-independent).
    pub fn param_bytes_in(&self, range: Range<usize>) -> Bytes {
        self.layers[range].iter().map(|l| l.param_bytes).sum()
    }

    /// Stored-activation bytes of `range` for `samples` samples.
    pub fn stored_act_in(&self, range: Range<usize>, samples: f64) -> Bytes {
        let per_sample: Bytes = self.layers[range].iter().map(|l| l.stored_act).sum();
        per_sample.scale(samples)
    }

    /// Activation bytes crossing the boundary before layer `boundary`, for
    /// `samples` samples.
    pub fn boundary_act(&self, boundary: usize, samples: f64) -> Bytes {
        let per_sample = if boundary == 0 {
            self.input_bytes
        } else {
            self.layers[boundary - 1].output_act
        };
        per_sample.scale(samples)
    }

    /// Total per-sample forward time of the full model, µs.
    pub fn total_fw_us(&self) -> f64 {
        self.fw_us_in(0..self.num_layers(), 1.0)
    }

    /// Total per-sample backward time of the full model, µs.
    pub fn total_bw_us(&self) -> f64 {
        self.bw_us_in(0..self.num_layers(), 1.0)
    }

    /// Total parameter bytes.
    pub fn total_param_bytes(&self) -> Bytes {
        self.param_bytes_in(0..self.num_layers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapple_cluster::DeviceSpec;
    use dapple_model::{synthetic, zoo};

    #[test]
    fn profile_converts_flops_to_time() {
        let g = synthetic::uniform(4, 100.0, Bytes::mb(1.0), Bytes::mb(1.0));
        let p = ModelProfile::profile(&g, &DeviceSpec::v100());
        // Calibration: 100 µs per sample on the reference device.
        for l in &p.layers {
            assert!((l.fw_us - 100.0).abs() < 1e-6, "{}", l.fw_us);
            assert!((l.bw_us - 200.0).abs() < 1e-6, "{}", l.bw_us);
        }
    }

    #[test]
    fn faster_device_shrinks_times() {
        let g = synthetic::uniform(2, 100.0, Bytes::mb(1.0), Bytes::mb(1.0));
        let fast = DeviceSpec {
            flops: 2.0e13,
            mem: Bytes::gib(16.0),
            launch_us: 10.0,
        };
        let p = ModelProfile::profile(&g, &fast);
        assert!((p.layers[0].fw_us - 50.0).abs() < 1e-6);
    }

    #[test]
    fn range_sums_scale_with_samples() {
        let g = synthetic::uniform(8, 10.0, Bytes::mb(1.0), Bytes::mb(2.0));
        let p = ModelProfile::profile(&g, &DeviceSpec::v100());
        assert!((p.fw_us_in(0..4, 2.0) - 80.0).abs() < 1e-6);
        assert!((p.bw_us_in(0..4, 2.0) - 160.0).abs() < 1e-6);
        assert_eq!(p.stored_act_in(0..2, 3.0), Bytes::mb(24.0));
        assert_eq!(p.boundary_act(4, 2.0), Bytes::mb(4.0));
        assert_eq!(p.boundary_act(0, 2.0), Bytes::mb(4.0)); // input = act here
    }

    #[test]
    fn bert48_per_layer_time_matches_calibration() {
        let spec = zoo::bert48();
        let p = ModelProfile::profile(&spec.graph, &DeviceSpec::v100());
        // Encoder layers calibrated at 650 µs/sample forward.
        assert!((p.layers[1].fw_us - 650.0).abs() < 1.0);
        // Full model fw+bw per sample ~ 48 * 3 * 650 µs ~ 92 ms.
        let total = p.total_fw_us() + p.total_bw_us();
        assert!((total / 1e3 - 92.0).abs() < 3.0, "{total}");
    }
}
