//! # dapple-cluster
//!
//! The hardware substrate: machines, devices and interconnects, plus the
//! three topology-aware device-assignment policies of §IV-B.
//!
//! The paper's three hardware environments (Table III) are provided as
//! constructors:
//!
//! * [`Cluster::config_a`] — servers with 8 V100s each, NVLink inside the
//!   server, 25 Gbps Ethernet between servers (hierarchical);
//! * [`Cluster::config_b`] — single-V100 servers on 25 Gbps Ethernet (flat);
//! * [`Cluster::config_c`] — single-V100 servers on 10 Gbps Ethernet (flat).
//!
//! Placement search uses [`Allocation`] with the [`PlacementPolicy`]
//! trio — Fresh First, Append First, Scatter First — which reduces the
//! device-assignment space from brute-force enumeration to fewer than
//! `O(2^S)` compositions while retaining the placements that matter
//! (§IV-B, Fig. 5).

#![forbid(unsafe_code)]

pub mod alloc;
pub mod spec;
pub mod topology;

pub use alloc::{Allocation, PlacementPolicy, ALL_POLICIES};
pub use spec::{DeviceSpec, Interconnect};
pub use topology::Cluster;
