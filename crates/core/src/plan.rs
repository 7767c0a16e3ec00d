//! Parallelization plans.
//!
//! A [`Plan`] is the planner's output and the runtime's input: an ordered
//! list of pipeline stages, each owning a contiguous range of layers and a
//! set of devices the stage is replicated on. Data parallelism and straight
//! (replication-free) pipelines are special cases, mirroring the paper's
//! Table V notation:
//!
//! * `DP` — one stage replicated on every device;
//! * `Straight` — as many stages as devices, one device per stage;
//! * `P : Q` — a two-stage pipeline with the first stage replicated on `P`
//!   devices and the second on `Q`.

use crate::ids::DeviceId;
use std::fmt;
use std::ops::Range;

/// One pipeline stage: a contiguous layer range replicated over devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// Half-open range of layer indices `[start, end)` assigned to the stage.
    pub layers: Range<usize>,
    /// Devices the stage is replicated on (data parallelism within a stage).
    pub devices: Vec<DeviceId>,
}

impl StagePlan {
    /// Creates a stage plan over `layers` replicated on `devices`.
    pub fn new(layers: Range<usize>, devices: Vec<DeviceId>) -> Self {
        StagePlan { layers, devices }
    }

    /// Number of replicas (devices) executing this stage.
    #[inline]
    pub fn replication(&self) -> usize {
        self.devices.len()
    }

    /// Number of layers in the stage.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Coarse classification of a plan, matching the paper's notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Single stage replicated on all devices: pure data parallelism.
    DataParallel,
    /// One device per stage, no replication anywhere.
    Straight,
    /// General pipeline, possibly with replicated stages.
    Pipeline,
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanKind::DataParallel => write!(f, "DP"),
            PlanKind::Straight => write!(f, "Straight"),
            PlanKind::Pipeline => write!(f, "Pipeline"),
        }
    }
}

/// A complete parallelization plan.
///
/// ```
/// use dapple_core::{DeviceId, Plan, PlanKind, StagePlan};
///
/// // BERT-48's Table V plan on Config A: two stages, 8 devices each.
/// let plan = Plan::new(vec![
///     StagePlan::new(0..24, (0..8).map(DeviceId).collect()),
///     StagePlan::new(24..48, (8..16).map(DeviceId).collect()),
/// ]);
/// assert_eq!(plan.kind(), PlanKind::Pipeline);
/// assert_eq!(plan.notation(), "8 : 8");
/// assert_eq!(plan.split_notation(), "24 : 24");
/// plan.validate(48, 16).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Pipeline stages in order. Never empty for a valid plan.
    pub stages: Vec<StagePlan>,
}

impl Plan {
    /// Creates a plan from stages. Use [`Plan::validate`] to check coherence.
    pub fn new(stages: Vec<StagePlan>) -> Self {
        Plan { stages }
    }

    /// Number of pipeline stages.
    #[inline]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total number of devices across all stages.
    pub fn num_devices(&self) -> usize {
        self.stages.iter().map(|s| s.devices.len()).sum()
    }

    /// Total number of layers covered.
    pub fn num_layers(&self) -> usize {
        self.stages.last().map_or(0, |s| s.layers.end)
    }

    /// Classifies the plan per the paper's Table V notation.
    pub fn kind(&self) -> PlanKind {
        if self.stages.len() == 1 {
            PlanKind::DataParallel
        } else if self.stages.iter().all(|s| s.replication() == 1) {
            PlanKind::Straight
        } else {
            PlanKind::Pipeline
        }
    }

    /// Replication factor per stage, e.g. `[8, 8]` for an `8 : 8` plan.
    pub fn replications(&self) -> Vec<usize> {
        self.stages.iter().map(StagePlan::replication).collect()
    }

    /// Layer-count split, e.g. `[23, 25]` for BERT-48's `23 : 25` partition.
    pub fn split_layer_counts(&self) -> Vec<usize> {
        self.stages.iter().map(StagePlan::num_layers).collect()
    }

    /// Every device referenced by the plan, in stage order.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.stages
            .iter()
            .flat_map(|s| s.devices.iter().copied())
            .collect()
    }

    /// The stage and replica slot a device occupies, if any.
    pub fn locate_device(&self, device: DeviceId) -> Option<(usize, usize)> {
        self.stages
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.devices.iter().position(|&d| d == device).map(|p| (i, p)))
    }

    /// The plan with `device` removed from its stage — the degraded
    /// shape after losing that device. `None` when the device is not in
    /// the plan or removing it would leave its stage empty.
    pub fn without_device(&self, device: DeviceId) -> Option<Plan> {
        let (stage, slot) = self.locate_device(device)?;
        if self.stages[stage].devices.len() <= 1 {
            return None;
        }
        let mut plan = self.clone();
        plan.stages[stage].devices.remove(slot);
        Some(plan)
    }

    /// Renders the plan in the paper's notation: `DP`, `Straight` or `P : Q`.
    pub fn notation(&self) -> String {
        match self.kind() {
            PlanKind::DataParallel => "DP".to_string(),
            PlanKind::Straight => "Straight".to_string(),
            PlanKind::Pipeline => self
                .replications()
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(" : "),
        }
    }

    /// Renders the split positions, e.g. `23 : 25`; `-` for single stage.
    pub fn split_notation(&self) -> String {
        if self.stages.len() <= 1 {
            "-".to_string()
        } else {
            self.split_layer_counts()
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(" : ")
        }
    }

    /// Checks structural coherence:
    ///
    /// * stages cover `0..num_layers` contiguously without gaps or overlap;
    /// * every stage has at least one layer and one device;
    /// * no device appears in two stages.
    pub fn validate(&self, num_layers: usize, num_devices: usize) -> crate::Result<()> {
        use crate::DappleError::InvalidConfig;
        if self.stages.is_empty() {
            return Err(InvalidConfig("plan has no stages".into()));
        }
        let mut next = 0usize;
        let mut seen = std::collections::BTreeSet::new();
        for (i, st) in self.stages.iter().enumerate() {
            if st.layers.start != next {
                return Err(InvalidConfig(format!(
                    "stage {i} starts at layer {} but expected {next}",
                    st.layers.start
                )));
            }
            if st.layers.is_empty() {
                return Err(InvalidConfig(format!("stage {i} owns no layers")));
            }
            if st.devices.is_empty() {
                return Err(InvalidConfig(format!("stage {i} has no devices")));
            }
            for &d in &st.devices {
                if d.index() >= num_devices {
                    return Err(InvalidConfig(format!(
                        "stage {i} references device {d} but cluster has {num_devices}"
                    )));
                }
                if !seen.insert(d) {
                    return Err(InvalidConfig(format!(
                        "device {d} assigned to more than one stage"
                    )));
                }
            }
            next = st.layers.end;
        }
        if next != num_layers {
            return Err(InvalidConfig(format!(
                "stages cover layers 0..{next} but the model has {num_layers}"
            )));
        }
        Ok(())
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [", self.notation())?;
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(
                f,
                "L{}..L{} @ {} dev",
                s.layers.start,
                s.layers.end,
                s.devices.len()
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devs(r: Range<u32>) -> Vec<DeviceId> {
        r.map(DeviceId).collect()
    }

    #[test]
    fn dp_plan_classification() {
        let p = Plan::new(vec![StagePlan::new(0..10, devs(0..16))]);
        assert_eq!(p.kind(), PlanKind::DataParallel);
        assert_eq!(p.notation(), "DP");
        assert_eq!(p.split_notation(), "-");
        p.validate(10, 16).unwrap();
    }

    #[test]
    fn straight_plan_classification() {
        let stages = (0..4)
            .map(|i| StagePlan::new(i..i + 1, vec![DeviceId(i as u32)]))
            .collect();
        let p = Plan::new(stages);
        assert_eq!(p.kind(), PlanKind::Straight);
        assert_eq!(p.notation(), "Straight");
        p.validate(4, 4).unwrap();
    }

    #[test]
    fn hybrid_plan_notation() {
        let p = Plan::new(vec![
            StagePlan::new(0..23, devs(0..8)),
            StagePlan::new(23..48, devs(8..16)),
        ]);
        assert_eq!(p.kind(), PlanKind::Pipeline);
        assert_eq!(p.notation(), "8 : 8");
        assert_eq!(p.split_notation(), "23 : 25");
        p.validate(48, 16).unwrap();
    }

    #[test]
    fn device_removal_yields_the_degraded_plan() {
        let p = Plan::new(vec![
            StagePlan::new(0..3, devs(0..2)),
            StagePlan::new(3..6, devs(2..3)),
        ]);
        assert_eq!(p.devices(), devs(0..3));
        assert_eq!(p.locate_device(DeviceId(1)), Some((0, 1)));
        assert_eq!(p.locate_device(DeviceId(2)), Some((1, 0)));
        assert_eq!(p.locate_device(DeviceId(9)), None);
        let degraded = p.without_device(DeviceId(1)).unwrap();
        assert_eq!(degraded.replications(), vec![1, 1]);
        degraded.validate(6, 3).unwrap();
        // Removing the last device of a stage is refused.
        assert!(degraded.without_device(DeviceId(2)).is_none());
        assert!(p.without_device(DeviceId(7)).is_none());
    }

    #[test]
    fn validate_rejects_gap() {
        let p = Plan::new(vec![
            StagePlan::new(0..2, devs(0..1)),
            StagePlan::new(3..4, devs(1..2)),
        ]);
        assert!(p.validate(4, 2).is_err());
    }

    #[test]
    fn validate_rejects_duplicate_device() {
        let p = Plan::new(vec![
            StagePlan::new(0..2, devs(0..1)),
            StagePlan::new(2..4, devs(0..1)),
        ]);
        assert!(p.validate(4, 2).is_err());
    }

    #[test]
    fn validate_rejects_incomplete_cover() {
        let p = Plan::new(vec![StagePlan::new(0..2, devs(0..1))]);
        assert!(p.validate(4, 1).is_err());
    }

    #[test]
    fn validate_rejects_unknown_device() {
        let p = Plan::new(vec![StagePlan::new(0..2, devs(0..4))]);
        assert!(p.validate(2, 2).is_err());
    }

    #[test]
    fn validate_rejects_empty_stage_layers() {
        let p = Plan::new(vec![
            StagePlan::new(0..0, devs(0..1)),
            StagePlan::new(0..2, devs(1..2)),
        ]);
        assert!(p.validate(2, 2).is_err());
    }
}
