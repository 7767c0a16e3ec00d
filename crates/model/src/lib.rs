//! # dapple-model
//!
//! Model graphs and the DAPPLE benchmark model zoo.
//!
//! The paper treats a DNN model as a linear chain of layers, each with a
//! forward/backward compute cost, a parameter size and an output activation
//! size — exactly the statistics the DAPPLE profiler extracts (§II-C,
//! Fig. 1). This crate provides:
//!
//! * [`Layer`] / [`ModelGraph`] — the device-independent layer chain;
//! * [`zoo`] — the six benchmark models of Table II (GNMT-16, BERT-48,
//!   XLNet-36, ResNet-50, VGG-19, AmoebaNet-36), calibrated against every
//!   published per-model statistic (Tables I, II, V and §VI-C prose);
//! * [`synthetic`] — parameterized model generators for tests and ablations.
//!
//! Compute costs are stored as FLOPs per sample so the graph stays
//! device-independent; the profiler divides by a device's effective
//! throughput. The zoo is calibrated such that on the reference device
//! ([`REF_DEVICE_FLOPS`], a V100-class accelerator at sustained fp32
//! throughput) the per-layer times reproduce the paper's ratios.

#![forbid(unsafe_code)]

pub mod graph;
pub mod layer;
pub mod synthetic;
pub mod zoo;

pub use graph::{ModelGraph, ModelSpec, OptimizerKind};
pub use layer::Layer;

/// Effective sustained fp32 throughput of the reference device (FLOPs/s).
///
/// A V100 peaks at 15.7 TFLOPs fp32; 10 TFLOPs is a realistic sustained
/// figure for large dense kernels and is the basis of the zoo calibration.
pub const REF_DEVICE_FLOPS: f64 = 1.0e13;

/// FLOPs that take one microsecond on the reference device.
pub const FLOPS_PER_US: f64 = REF_DEVICE_FLOPS / 1e6;
