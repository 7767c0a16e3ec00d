//! Device allocation state and the three placement policies of §IV-B.
//!
//! The planner grows a pipeline stage by stage; each stage requests `n`
//! devices from the remaining pool. Instead of enumerating every subset of
//! free devices (exponential), DAPPLE composes three policies (Fig. 5):
//!
//! * **Fresh First** — allocate from machines with no occupied devices,
//!   keeping the stage on NVLink-connected devices;
//! * **Append First** — fill partially-occupied machines first, reducing
//!   fragmentation;
//! * **Scatter First** — spread the allocation evenly across machines,
//!   for stages whose activations dwarf their weights.

use crate::topology::Cluster;
use dapple_core::{DeviceId, MachineId};
use std::fmt;

/// The three device-assignment policies (§IV-B, Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Allocate GPUs from a fresh (fully unoccupied) machine.
    FreshFirst,
    /// Allocate from machines that already have occupied GPUs.
    AppendFirst,
    /// Use available GPUs equally from all (used, else all) machines.
    ScatterFirst,
}

/// All policies, in the order the planner enumerates them.
pub const ALL_POLICIES: [PlacementPolicy; 3] = [
    PlacementPolicy::FreshFirst,
    PlacementPolicy::AppendFirst,
    PlacementPolicy::ScatterFirst,
];

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementPolicy::FreshFirst => write!(f, "fresh-first"),
            PlacementPolicy::AppendFirst => write!(f, "append-first"),
            PlacementPolicy::ScatterFirst => write!(f, "scatter-first"),
        }
    }
}

/// Which devices of a cluster are already assigned to earlier stages.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Allocation {
    used: Vec<bool>,
}

impl Allocation {
    /// An empty allocation over `n` devices.
    pub fn empty(n: usize) -> Self {
        Allocation {
            used: vec![false; n],
        }
    }

    /// Number of devices already allocated.
    pub fn used_count(&self) -> usize {
        self.used.iter().filter(|&&u| u).count()
    }

    /// Number of devices still free.
    pub fn free_count(&self) -> usize {
        self.used.len() - self.used_count()
    }

    /// Whether `device` is already allocated.
    #[inline]
    pub fn is_used(&self, device: DeviceId) -> bool {
        self.used[device.index()]
    }

    /// All free devices, ascending.
    pub fn free_devices(&self) -> Vec<DeviceId> {
        self.used
            .iter()
            .enumerate()
            .filter_map(|(i, &u)| (!u).then_some(DeviceId::from(i)))
            .collect()
    }

    /// Marks `devices` as used. Panics on double allocation (planner bug).
    pub fn commit(&mut self, devices: &[DeviceId]) {
        for &d in devices {
            assert!(!self.used[d.index()], "device {d} allocated twice");
            self.used[d.index()] = true;
        }
    }

    /// Free devices per machine, in machine order.
    pub fn free_per_machine(&self, cluster: &Cluster) -> Vec<usize> {
        let mut free = vec![0usize; cluster.num_machines()];
        for (i, &u) in self.used.iter().enumerate() {
            if !u {
                free[cluster.machine_of(DeviceId::from(i)).index()] += 1;
            }
        }
        free
    }

    /// A canonical key for memoization.
    ///
    /// Machines of the same size with the same free count are
    /// interchangeable in a homogeneous cluster, so the key is the sorted
    /// list of `(machine_size, free_count)` pairs.
    pub fn canonical_key(&self, cluster: &Cluster) -> Vec<(usize, usize)> {
        let free = self.free_per_machine(cluster);
        let mut key: Vec<(usize, usize)> = cluster.machines.iter().copied().zip(free).collect();
        key.sort_unstable();
        key
    }

    /// Selects `n` free devices under `policy`, without committing.
    ///
    /// Returns `None` when the policy cannot supply `n` devices (e.g. Fresh
    /// First with no fresh machine, or fewer than `n` free devices overall).
    pub fn select(
        &self,
        cluster: &Cluster,
        n: usize,
        policy: PlacementPolicy,
    ) -> Option<Vec<DeviceId>> {
        if n == 0 || self.free_count() < n {
            return None;
        }
        let free = self.free_per_machine(cluster);
        let machine_ids: Vec<MachineId> =
            (0..cluster.num_machines() as u32).map(MachineId).collect();
        let fresh: Vec<MachineId> = machine_ids
            .iter()
            .copied()
            .filter(|m| free[m.index()] == cluster.machines[m.index()] && free[m.index()] > 0)
            .collect();
        let partial: Vec<MachineId> = machine_ids
            .iter()
            .copied()
            .filter(|m| free[m.index()] > 0 && free[m.index()] < cluster.machines[m.index()])
            .collect();

        let take_from = |machines: &[MachineId], want: usize| -> Vec<DeviceId> {
            let mut out = Vec::with_capacity(want);
            for &m in machines {
                for d in cluster.devices_on(m) {
                    if out.len() == want {
                        return out;
                    }
                    if !self.is_used(d) {
                        out.push(d);
                    }
                }
            }
            out
        };

        match policy {
            PlacementPolicy::FreshFirst => {
                // Only fresh machines may serve the request.
                let capacity: usize = fresh.iter().map(|m| free[m.index()]).sum();
                if capacity < n {
                    return None;
                }
                let got = take_from(&fresh, n);
                (got.len() == n).then_some(got)
            }
            PlacementPolicy::AppendFirst => {
                // Partially used machines first; spill into fresh ones.
                if partial.is_empty() {
                    return None;
                }
                let mut order = partial.clone();
                order.extend(fresh.iter().copied());
                let got = take_from(&order, n);
                (got.len() == n).then_some(got)
            }
            PlacementPolicy::ScatterFirst => {
                // Round-robin across used machines with free devices, or all
                // machines when none are partially used.
                let pool: Vec<MachineId> = if partial.is_empty() {
                    machine_ids
                        .iter()
                        .copied()
                        .filter(|m| free[m.index()] > 0)
                        .collect()
                } else {
                    partial
                };
                let mut per_machine: Vec<Vec<DeviceId>> = pool
                    .iter()
                    .map(|&m| {
                        cluster
                            .devices_on(m)
                            .into_iter()
                            .filter(|&d| !self.is_used(d))
                            .collect()
                    })
                    .collect();
                let mut out = Vec::with_capacity(n);
                let mut idx = 0usize;
                while out.len() < n {
                    let mut progressed = false;
                    for queue in per_machine.iter_mut() {
                        if out.len() == n {
                            break;
                        }
                        if idx < queue.len() {
                            out.push(queue[idx]);
                            progressed = true;
                        }
                    }
                    if !progressed {
                        return None;
                    }
                    idx += 1;
                }
                out.sort_unstable();
                Some(out)
            }
        }
    }

    /// Enumerates the distinct selections the three policies yield for `n`
    /// devices — the planner's per-stage placement candidates.
    pub fn candidate_selections(&self, cluster: &Cluster, n: usize) -> Vec<Vec<DeviceId>> {
        self.candidate_selections_from(cluster, n, &ALL_POLICIES)
    }

    /// [`Allocation::candidate_selections`] restricted to a policy subset
    /// (the placement-policy ablation of DESIGN.md §5).
    pub fn candidate_selections_from(
        &self,
        cluster: &Cluster,
        n: usize,
        policies: &[PlacementPolicy],
    ) -> Vec<Vec<DeviceId>> {
        let mut out: Vec<Vec<DeviceId>> = Vec::with_capacity(policies.len());
        for &policy in policies {
            if let Some(sel) = self.select(cluster, n, policy) {
                let mut sorted = sel.clone();
                sorted.sort_unstable();
                if !out.iter().any(|existing| {
                    let mut e = existing.clone();
                    e.sort_unstable();
                    e == sorted
                }) {
                    out.push(sel);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces Fig. 5: three machines of 8, M0 fully used, M1 has
    /// devices 8..14 used (2 free), M2 fresh; request 6 devices.
    fn fig5_state() -> (Cluster, Allocation) {
        let c = Cluster::config_a(3);
        let mut a = Allocation::empty(24);
        let used: Vec<DeviceId> = (0..14).map(DeviceId).collect();
        a.commit(&used);
        (c, a)
    }

    #[test]
    fn fresh_first_takes_a_fresh_machine() {
        let (c, a) = fig5_state();
        let got = a.select(&c, 6, PlacementPolicy::FreshFirst).unwrap();
        let want: Vec<DeviceId> = (16..22).map(DeviceId).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn append_first_fills_partial_then_spills() {
        let (c, a) = fig5_state();
        let got = a.select(&c, 6, PlacementPolicy::AppendFirst).unwrap();
        let want: Vec<DeviceId> = vec![14, 15, 16, 17, 18, 19]
            .into_iter()
            .map(DeviceId)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scatter_first_round_robins() {
        let (c, a) = fig5_state();
        // Only M1 is partially used, so scatter draws from M1 alone: it has
        // just 2 free devices, not 6 -> scatter fails here.
        assert!(a.select(&c, 6, PlacementPolicy::ScatterFirst).is_none());
        // But 2 devices succeed and come from M1.
        let got = a.select(&c, 2, PlacementPolicy::ScatterFirst).unwrap();
        assert_eq!(got, vec![DeviceId(14), DeviceId(15)]);
    }

    #[test]
    fn scatter_on_fresh_cluster_spreads_across_machines() {
        let c = Cluster::config_a(2);
        let a = Allocation::empty(16);
        let got = a.select(&c, 4, PlacementPolicy::ScatterFirst).unwrap();
        let machines = c.machines_spanned(&got);
        assert_eq!(machines, 2, "scatter should span both machines: {got:?}");
    }

    #[test]
    fn fresh_first_fails_without_fresh_machines() {
        let c = Cluster::config_a(2);
        let mut a = Allocation::empty(16);
        a.commit(&[DeviceId(0), DeviceId(8)]); // both machines touched
        assert!(a.select(&c, 2, PlacementPolicy::FreshFirst).is_none());
    }

    #[test]
    fn append_first_fails_without_partial_machines() {
        let c = Cluster::config_a(2);
        let a = Allocation::empty(16);
        assert!(a.select(&c, 2, PlacementPolicy::AppendFirst).is_none());
    }

    #[test]
    fn selection_never_returns_used_devices() {
        let (c, a) = fig5_state();
        for policy in ALL_POLICIES {
            for n in 1..=a.free_count() {
                if let Some(sel) = a.select(&c, n, policy) {
                    assert_eq!(sel.len(), n);
                    for d in &sel {
                        assert!(!a.is_used(*d), "{policy} returned used device {d}");
                    }
                    let mut dedup = sel.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    assert_eq!(dedup.len(), n, "{policy} returned duplicates");
                }
            }
        }
    }

    #[test]
    fn oversized_requests_fail() {
        let (c, a) = fig5_state();
        for policy in ALL_POLICIES {
            assert!(a.select(&c, 11, policy).is_none());
        }
        assert!(a.select(&c, 0, PlacementPolicy::FreshFirst).is_none());
    }

    #[test]
    fn canonical_key_is_machine_permutation_invariant() {
        let c = Cluster::config_a(3);
        let mut a1 = Allocation::empty(24);
        let mut a2 = Allocation::empty(24);
        // Using 3 devices on M0 vs 3 devices on M2 is the same canonical state.
        a1.commit(&[DeviceId(0), DeviceId(1), DeviceId(2)]);
        a2.commit(&[DeviceId(16), DeviceId(17), DeviceId(18)]);
        assert_eq!(a1.canonical_key(&c), a2.canonical_key(&c));
        // But a different spread is a different state.
        let mut a3 = Allocation::empty(24);
        a3.commit(&[DeviceId(0), DeviceId(8), DeviceId(16)]);
        assert_ne!(a1.canonical_key(&c), a3.canonical_key(&c));
    }

    #[test]
    fn candidate_selections_deduplicate() {
        // Flat cluster: fresh-first and scatter-first coincide when every
        // machine is fresh with one device.
        let c = Cluster::config_b(4);
        let a = Allocation::empty(4);
        let cands = a.candidate_selections(&c, 2);
        assert!(!cands.is_empty());
        for c1 in &cands {
            assert_eq!(c1.len(), 2);
        }
        // No two candidates may be the same set.
        for i in 0..cands.len() {
            for j in i + 1..cands.len() {
                let (mut x, mut y) = (cands[i].clone(), cands[j].clone());
                x.sort_unstable();
                y.sort_unstable();
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn double_commit_panics() {
        let mut a = Allocation::empty(4);
        a.commit(&[DeviceId(1)]);
        a.commit(&[DeviceId(1)]);
    }
}
