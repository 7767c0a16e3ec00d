//! A single model layer.

use dapple_core::Bytes;

use crate::FLOPS_PER_US;

/// One layer of a model graph.
///
/// All per-sample quantities scale linearly with (micro-)batch size, which
/// is the same assumption the DAPPLE profiler makes when it profiles at one
/// batch size and plans at another.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable name, e.g. `"encoder_03"` or `"conv4_2"`.
    pub name: String,
    /// Forward-pass FLOPs per sample.
    pub flops_fw: f64,
    /// Backward FLOPs as a multiple of forward FLOPs.
    ///
    /// Backprop recomputes both the input gradient and the weight gradient,
    /// so 2.0 is the canonical value for dense/conv/attention layers.
    pub bw_flops_ratio: f64,
    /// Parameter size (fp32 weights) in bytes. Gradients have the same size.
    pub param_bytes: Bytes,
    /// Output activation size per sample — what must cross a stage boundary
    /// placed after this layer.
    pub output_act: Bytes,
    /// Total activation memory per sample this layer must keep alive for its
    /// backward pass (intermediates included; usually a small multiple of
    /// `output_act`).
    pub stored_act: Bytes,
}

impl Layer {
    /// Creates a layer from calibrated reference-device timings.
    ///
    /// `fw_us_per_sample` is the forward time per sample on the reference
    /// device; it is converted to FLOPs via [`FLOPS_PER_US`] so the graph
    /// itself stays device-independent.
    pub fn from_ref_time(
        name: impl Into<String>,
        fw_us_per_sample: f64,
        param_bytes: Bytes,
        output_act: Bytes,
        stored_act: Bytes,
    ) -> Self {
        Layer {
            name: name.into(),
            flops_fw: fw_us_per_sample * FLOPS_PER_US,
            bw_flops_ratio: 2.0,
            param_bytes,
            output_act,
            stored_act,
        }
    }

    /// Backward-pass FLOPs per sample.
    #[inline]
    pub fn flops_bw(&self) -> f64 {
        self.flops_fw * self.bw_flops_ratio
    }

    /// Number of fp32 parameters.
    #[inline]
    pub fn num_params(&self) -> u64 {
        self.param_bytes.0 / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_ref_time_converts_to_flops() {
        let l = Layer::from_ref_time("x", 100.0, Bytes::mib(1.0), Bytes(10), Bytes(20));
        assert!((l.flops_fw - 100.0 * FLOPS_PER_US).abs() < 1.0);
        assert!((l.flops_bw() - 2.0 * l.flops_fw).abs() < 1.0);
    }

    #[test]
    fn num_params_is_bytes_over_four() {
        let l = Layer::from_ref_time("x", 1.0, Bytes(400), Bytes(0), Bytes(0));
        assert_eq!(l.num_params(), 100);
    }
}
