//! Device and link specifications.

use dapple_core::Bytes;

/// An accelerator's capabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Effective sustained fp32 throughput in FLOPs/s.
    pub flops: f64,
    /// Device memory capacity.
    pub mem: Bytes,
    /// Fixed per-layer invocation overhead in µs (kernel launch, framework
    /// dispatch). This is what makes very small micro-batch slices
    /// inefficient and pushes the planner toward "large enough micro-batch
    /// size to ensure device efficiency" (§V-B2).
    pub launch_us: f64,
}

impl DeviceSpec {
    /// A V100-class device: 10 TFLOPs sustained, 16 GB HBM2 (Table III).
    pub fn v100() -> Self {
        DeviceSpec {
            flops: 1.0e13,
            mem: Bytes::gib(16.0),
            launch_us: 10.0,
        }
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::v100()
    }
}

/// A point-to-point link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interconnect {
    /// Unidirectional bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-message latency in microseconds.
    pub latency_us: f64,
}

impl Interconnect {
    /// NVLink within a server: the paper quotes "up to 130 GB/s".
    pub fn nvlink() -> Self {
        Interconnect {
            bandwidth: 130.0e9,
            latency_us: 3.0,
        }
    }

    /// 25 Gbps Ethernet (Config A inter-server, Config B).
    pub fn ethernet_25gbps() -> Self {
        Interconnect {
            bandwidth: 25.0e9 / 8.0,
            latency_us: 25.0,
        }
    }

    /// 10 Gbps Ethernet (Config C).
    pub fn ethernet_10gbps() -> Self {
        Interconnect {
            bandwidth: 10.0e9 / 8.0,
            latency_us: 25.0,
        }
    }

    /// Time to move `bytes` across this link once.
    #[inline]
    pub fn transfer_us(&self, bytes: Bytes) -> f64 {
        self.latency_us + bytes.as_f64() / self.bandwidth * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_defaults() {
        let d = DeviceSpec::v100();
        assert_eq!(d.mem, Bytes::gib(16.0));
        assert!((d.flops - 1.0e13).abs() < 1.0);
        assert_eq!(DeviceSpec::default(), d);
    }

    #[test]
    fn link_bandwidth_ordering() {
        assert!(Interconnect::nvlink().bandwidth > Interconnect::ethernet_25gbps().bandwidth);
        assert!(
            Interconnect::ethernet_25gbps().bandwidth > Interconnect::ethernet_10gbps().bandwidth
        );
        // 25 Gbps == 3.125 GB/s.
        assert!((Interconnect::ethernet_25gbps().bandwidth - 3.125e9).abs() < 1.0);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let eth = Interconnect::ethernet_25gbps();
        // 26 MB over 25 Gbps ~ 8.3 ms (GNMT boundary activation, Table I).
        let t = eth.transfer_us(Bytes::mb(26.0));
        assert!((t / 1e3 - 8.3).abs() < 0.2, "{t} us");
        // Latency dominates tiny messages.
        let tiny = eth.transfer_us(Bytes(100));
        assert!(tiny >= eth.latency_us);
    }
}
