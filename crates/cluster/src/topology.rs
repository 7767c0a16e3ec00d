//! Cluster topology: machines holding devices, hierarchical interconnects.

use crate::spec::{DeviceSpec, Interconnect};
use dapple_core::{DeviceId, MachineId};

/// A homogeneous cluster: `machines[m]` devices on machine `m`, one device
/// spec, one intra-machine link class and one inter-machine link class.
///
/// Device ids are assigned machine-major: machine 0 owns devices
/// `0..machines[0]`, machine 1 the next `machines[1]`, and so on — the same
/// numbering as the paper's Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Descriptive name, e.g. `"Config-A (2x8)"`.
    pub name: String,
    /// Devices per machine.
    pub machines: Vec<usize>,
    /// Per-device capabilities.
    pub device: DeviceSpec,
    /// Link class within a machine.
    pub intra: Interconnect,
    /// Link class between machines.
    pub inter: Interconnect,
    /// Machine of each device, indexed by `DeviceId`.
    device_machine: Vec<MachineId>,
}

impl Cluster {
    /// Builds a cluster from an explicit devices-per-machine list.
    pub fn new(
        name: impl Into<String>,
        machines: Vec<usize>,
        device: DeviceSpec,
        intra: Interconnect,
        inter: Interconnect,
    ) -> Self {
        let mut device_machine = Vec::with_capacity(machines.iter().sum());
        for (m, &n) in machines.iter().enumerate() {
            device_machine.extend(std::iter::repeat_n(MachineId(m as u32), n));
        }
        Cluster {
            name: name.into(),
            machines,
            device,
            intra,
            inter,
            device_machine,
        }
    }

    /// Table III Config A: `servers` machines with 8 V100s each, NVLink
    /// inside the server and 25 Gbps Ethernet between servers.
    ///
    /// ```
    /// use dapple_cluster::Cluster;
    /// use dapple_core::DeviceId;
    ///
    /// let a = Cluster::config_a(2);
    /// assert_eq!(a.num_devices(), 16);
    /// // Devices 7 and 8 sit on different machines: Ethernet, not NVLink.
    /// assert!(a.link_between(DeviceId(7), DeviceId(8)).bandwidth
    ///     < a.link_between(DeviceId(0), DeviceId(7)).bandwidth);
    /// ```
    pub fn config_a(servers: usize) -> Self {
        Cluster::new(
            format!("Config-A ({servers}x8)"),
            vec![8; servers],
            DeviceSpec::v100(),
            Interconnect::nvlink(),
            Interconnect::ethernet_25gbps(),
        )
    }

    /// Table III Config B: `servers` single-V100 machines, 25 Gbps Ethernet.
    pub fn config_b(servers: usize) -> Self {
        let eth = Interconnect::ethernet_25gbps();
        Cluster::new(
            format!("Config-B ({servers}x1)"),
            vec![1; servers],
            DeviceSpec::v100(),
            eth,
            eth,
        )
    }

    /// Table III Config C: `servers` single-V100 machines, 10 Gbps Ethernet.
    pub fn config_c(servers: usize) -> Self {
        let eth = Interconnect::ethernet_10gbps();
        Cluster::new(
            format!("Config-C ({servers}x1)"),
            vec![1; servers],
            DeviceSpec::v100(),
            eth,
            eth,
        )
    }

    /// Total device count.
    pub fn num_devices(&self) -> usize {
        self.device_machine.len()
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Machine hosting `device`.
    #[inline]
    pub fn machine_of(&self, device: DeviceId) -> MachineId {
        self.device_machine[device.index()]
    }

    /// All device ids in order.
    pub fn all_devices(&self) -> Vec<DeviceId> {
        (0..self.num_devices() as u32).map(DeviceId).collect()
    }

    /// Devices hosted on `machine`.
    pub fn devices_on(&self, machine: MachineId) -> Vec<DeviceId> {
        let before: usize = self.machines[..machine.index()].iter().sum();
        (before..before + self.machines[machine.index()])
            .map(DeviceId::from)
            .collect()
    }

    /// True when both devices live on the same machine.
    #[inline]
    pub fn same_machine(&self, a: DeviceId, b: DeviceId) -> bool {
        self.machine_of(a) == self.machine_of(b)
    }

    /// The link class connecting two devices (intra for same machine).
    #[inline]
    pub fn link_between(&self, a: DeviceId, b: DeviceId) -> &Interconnect {
        if self.same_machine(a, b) {
            &self.intra
        } else {
            &self.inter
        }
    }

    /// The sub-cluster spanning only `devices` — the surviving hardware
    /// after failures, ready to be re-planned over.
    ///
    /// Devices are renumbered contiguously machine-major (the same
    /// numbering rule as the full cluster); machines left with no
    /// surviving device disappear. Returns the sub-cluster and the
    /// mapping from new device index to original [`DeviceId`], so a plan
    /// produced against the subset can be translated back:
    /// `original = mapping[new.index()]`.
    ///
    /// ```
    /// use dapple_cluster::Cluster;
    /// use dapple_core::DeviceId;
    ///
    /// let full = Cluster::config_a(2);
    /// // Machine 0 keeps devices 1 and 3, machine 1 keeps device 8.
    /// let survivors = [DeviceId(1), DeviceId(3), DeviceId(8)];
    /// let (sub, mapping) = full.subset(&survivors);
    /// assert_eq!(sub.num_devices(), 3);
    /// assert_eq!(sub.num_machines(), 2);
    /// assert_eq!(mapping, vec![DeviceId(1), DeviceId(3), DeviceId(8)]);
    /// ```
    pub fn subset(&self, devices: &[DeviceId]) -> (Cluster, Vec<DeviceId>) {
        let mut keep: Vec<DeviceId> = devices
            .iter()
            .copied()
            .filter(|d| d.index() < self.num_devices())
            .collect();
        keep.sort_unstable();
        keep.dedup();
        let mut machines = Vec::new();
        let mut last_machine: Option<MachineId> = None;
        for &d in &keep {
            let m = self.machine_of(d);
            if last_machine == Some(m) {
                *machines.last_mut().expect("non-empty") += 1;
            } else {
                machines.push(1);
                last_machine = Some(m);
            }
        }
        let sub = Cluster::new(
            format!("{} subset({})", self.name, keep.len()),
            machines,
            self.device,
            self.intra,
            self.inter,
        );
        (sub, keep)
    }

    /// Number of distinct machines hosting `devices`.
    pub fn machines_spanned(&self, devices: &[DeviceId]) -> usize {
        let mut ms: Vec<MachineId> = devices.iter().map(|&d| self.machine_of(d)).collect();
        ms.sort_unstable();
        ms.dedup();
        ms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_a_layout() {
        let c = Cluster::config_a(2);
        assert_eq!(c.num_devices(), 16);
        assert_eq!(c.num_machines(), 2);
        assert_eq!(c.machine_of(DeviceId(0)), MachineId(0));
        assert_eq!(c.machine_of(DeviceId(7)), MachineId(0));
        assert_eq!(c.machine_of(DeviceId(8)), MachineId(1));
        assert_eq!(c.devices_on(MachineId(1)).len(), 8);
        assert_eq!(c.devices_on(MachineId(1))[0], DeviceId(8));
    }

    #[test]
    fn config_bc_are_flat() {
        let b = Cluster::config_b(16);
        assert_eq!(b.num_machines(), 16);
        assert_eq!(b.num_devices(), 16);
        // All links are Ethernet in flat configs.
        assert_eq!(
            b.link_between(DeviceId(0), DeviceId(1)).bandwidth,
            Interconnect::ethernet_25gbps().bandwidth
        );
        let c = Cluster::config_c(16);
        assert!(
            c.link_between(DeviceId(0), DeviceId(1)).bandwidth
                < b.link_between(DeviceId(0), DeviceId(1)).bandwidth
        );
    }

    #[test]
    fn links_depend_on_machine_boundary() {
        let c = Cluster::config_a(2);
        let intra = c.link_between(DeviceId(0), DeviceId(7));
        let inter = c.link_between(DeviceId(7), DeviceId(8));
        assert!(intra.bandwidth > inter.bandwidth);
    }

    #[test]
    fn spanning_sets_count_their_machines() {
        let c = Cluster::config_a(2);
        let within: Vec<DeviceId> = (0..8).map(DeviceId).collect();
        let across: Vec<DeviceId> = (4..12).map(DeviceId).collect();
        assert_eq!(c.machines_spanned(&within), 1);
        assert_eq!(c.machines_spanned(&across), 2);
    }

    #[test]
    fn subset_preserves_machine_structure() {
        let c = Cluster::config_a(2);
        // Lose device 2 on machine 0 and all of machine 1 except dev 12.
        let survivors: Vec<DeviceId> = (0..8)
            .filter(|&i| i != 2)
            .chain(std::iter::once(12))
            .map(DeviceId)
            .collect();
        let (sub, mapping) = c.subset(&survivors);
        assert_eq!(sub.num_devices(), 8);
        assert_eq!(sub.num_machines(), 2);
        assert_eq!(sub.machines, vec![7, 1]);
        assert_eq!(mapping.len(), 8);
        assert_eq!(mapping[7], DeviceId(12));
        // New numbering is machine-major: first 7 on machine 0.
        assert_eq!(sub.machine_of(DeviceId(6)), MachineId(0));
        assert_eq!(sub.machine_of(DeviceId(7)), MachineId(1));
        // Out-of-range and duplicate ids are ignored.
        let (one, m) = c.subset(&[DeviceId(3), DeviceId(3), DeviceId(99)]);
        assert_eq!(one.num_devices(), 1);
        assert_eq!(m, vec![DeviceId(3)]);
    }

    #[test]
    fn heterogeneous_machine_sizes() {
        let c = Cluster::new(
            "odd",
            vec![2, 3, 1],
            DeviceSpec::v100(),
            Interconnect::nvlink(),
            Interconnect::ethernet_25gbps(),
        );
        assert_eq!(c.num_devices(), 6);
        assert_eq!(c.machine_of(DeviceId(1)), MachineId(0));
        assert_eq!(c.machine_of(DeviceId(4)), MachineId(1));
        assert_eq!(c.machine_of(DeviceId(5)), MachineId(2));
        assert_eq!(
            c.devices_on(MachineId(1)),
            vec![DeviceId(2), DeviceId(3), DeviceId(4)]
        );
    }
}
