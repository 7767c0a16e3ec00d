//! Per-stage task orders for the pipeline schedules.

use std::fmt;

/// Warmup-depth policy for DAPPLE's early backward scheduling (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KPolicy {
    /// `K_i = min(S - i, D)` — minimal warmup; best when the cross-stage
    /// communication-to-computation ratio (ACR) is small.
    PA,
    /// `K_i = min(2(S - i) - 1, D)` — twice the forwards in flight, needed
    /// to saturate the pipeline when cross-stage communication is
    /// comparable to compute.
    PB,
}

impl fmt::Display for KPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KPolicy::PA => write!(f, "PA"),
            KPolicy::PB => write!(f, "PB"),
        }
    }
}

impl KPolicy {
    /// Warmup depth for stage `i` of `s` compute stages, bounded by the
    /// memory-determined maximum `d` of in-flight micro-batches and by the
    /// micro-batch count `m`.
    pub fn warmup(self, i: usize, s: usize, d: usize, m: usize) -> usize {
        let raw = match self {
            KPolicy::PA => s - i,
            KPolicy::PB => 2 * (s - i) - 1,
        };
        raw.min(d).min(m).max(1)
    }
}

/// A pipeline schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// GPipe: all forwards, then all backwards (in reverse micro-batch
    /// order, matching the LIFO activation stack of Fig. 3a).
    GPipe,
    /// DAPPLE early backward scheduling with the given warmup policy.
    Dapple(KPolicy),
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Schedule::GPipe => write!(f, "GPipe"),
            Schedule::Dapple(k) => write!(f, "DAPPLE-{k}"),
        }
    }
}

/// One scheduled step of a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Forward of micro-batch `µ`.
    Fw(usize),
    /// Backward of micro-batch `µ`.
    Bw(usize),
}

/// Builds the deterministic execution order of stage `i` (of `s` compute
/// stages) over `m` micro-batches under `schedule`, where at most `d`
/// micro-batches may hold activations simultaneously.
///
/// The order is exactly what the DAPPLE runtime wires with control
/// dependencies (Fig. 11): warmup forwards, then strict 1F1B
/// interleaving, then the backward drain. GPipe ignores `d` (it admits
/// everything and simply overflows memory — the simulator reports it).
/// ```
/// use dapple_sim::schedule::{stage_order, Step};
/// use dapple_sim::{KPolicy, Schedule};
///
/// // Stage 0 of 2 under PA: two warmup forwards, then strict 1F1B.
/// let order = stage_order(Schedule::Dapple(KPolicy::PA), 0, 2, 3, usize::MAX);
/// assert_eq!(
///     order,
///     vec![Step::Fw(0), Step::Fw(1), Step::Bw(0), Step::Fw(2), Step::Bw(1), Step::Bw(2)]
/// );
/// ```
pub fn stage_order(schedule: Schedule, i: usize, s: usize, m: usize, d: usize) -> Vec<Step> {
    assert!(i < s, "stage index {i} out of {s}");
    assert!(m >= 1);
    let mut steps = Vec::with_capacity(2 * m);
    match schedule {
        Schedule::GPipe => {
            steps.extend((0..m).map(Step::Fw));
            steps.extend((0..m).rev().map(Step::Bw));
        }
        Schedule::Dapple(policy) => {
            let k = policy.warmup(i, s, d, m);
            let mut next_fw = 0usize;
            let mut next_bw = 0usize;
            while next_fw < k.min(m) {
                steps.push(Step::Fw(next_fw));
                next_fw += 1;
            }
            // Strict interleave: one backward, one forward, ...
            while next_fw < m {
                steps.push(Step::Bw(next_bw));
                next_bw += 1;
                steps.push(Step::Fw(next_fw));
                next_fw += 1;
            }
            while next_bw < m {
                steps.push(Step::Bw(next_bw));
                next_bw += 1;
            }
        }
    }
    steps
}

/// [`stage_order`] with each step paired with its index — the coordinate
/// system shared by the simulator's task records and the engine's
/// fault-injection layer ([`dapple_core::DappleError::Stalled`] reports
/// these indices).
pub fn indexed_stage_order(
    schedule: Schedule,
    i: usize,
    s: usize,
    m: usize,
    d: usize,
) -> Vec<(usize, Step)> {
    stage_order(schedule, i, s, m, d)
        .into_iter()
        .enumerate()
        .collect()
}

/// The index of `step` within stage `i`'s deterministic order, or `None`
/// if the stage never executes it (µ out of range). Lets callers target
/// an injection or a task record by semantic coordinates ("the backward
/// of µ=2 on stage 1") instead of a raw position.
pub fn step_index_of(
    schedule: Schedule,
    i: usize,
    s: usize,
    m: usize,
    d: usize,
    step: Step,
) -> Option<usize> {
    stage_order(schedule, i, s, m, d)
        .into_iter()
        .position(|candidate| candidate == step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpipe_runs_all_forwards_first() {
        let order = stage_order(Schedule::GPipe, 0, 3, 4, usize::MAX);
        assert_eq!(
            order,
            vec![
                Step::Fw(0),
                Step::Fw(1),
                Step::Fw(2),
                Step::Fw(3),
                Step::Bw(3),
                Step::Bw(2),
                Step::Bw(1),
                Step::Bw(0),
            ]
        );
    }

    #[test]
    fn dapple_interleaves_after_warmup() {
        // Stage 0 of 3, PA: K = 3 warmup forwards.
        let order = stage_order(Schedule::Dapple(KPolicy::PA), 0, 3, 5, usize::MAX);
        assert_eq!(
            order,
            vec![
                Step::Fw(0),
                Step::Fw(1),
                Step::Fw(2),
                Step::Bw(0),
                Step::Fw(3),
                Step::Bw(1),
                Step::Fw(4),
                Step::Bw(2),
                Step::Bw(3),
                Step::Bw(4),
            ]
        );
    }

    #[test]
    fn last_stage_warmup_is_one() {
        // Stage S-1 alternates F B F B ... from the start under PA and PB.
        for policy in [KPolicy::PA, KPolicy::PB] {
            let order = stage_order(Schedule::Dapple(policy), 2, 3, 3, usize::MAX);
            assert_eq!(
                order,
                vec![
                    Step::Fw(0),
                    Step::Bw(0),
                    Step::Fw(1),
                    Step::Bw(1),
                    Step::Fw(2),
                    Step::Bw(2),
                ],
                "{policy}"
            );
        }
    }

    #[test]
    fn pb_doubles_warmup() {
        assert_eq!(KPolicy::PA.warmup(0, 4, usize::MAX, 100), 4);
        assert_eq!(KPolicy::PB.warmup(0, 4, usize::MAX, 100), 7);
        assert_eq!(KPolicy::PB.warmup(3, 4, usize::MAX, 100), 1);
    }

    #[test]
    fn warmup_respects_memory_bound() {
        assert_eq!(KPolicy::PB.warmup(0, 4, 3, 100), 3);
        assert_eq!(KPolicy::PA.warmup(0, 4, 2, 100), 2);
        // And never exceeds the micro-batch count.
        assert_eq!(KPolicy::PA.warmup(0, 8, usize::MAX, 2), 2);
        // At least one forward must be admitted.
        assert_eq!(KPolicy::PA.warmup(0, 4, 0, 8), 1);
    }

    #[test]
    fn every_microbatch_appears_exactly_once_each_way() {
        for schedule in [
            Schedule::GPipe,
            Schedule::Dapple(KPolicy::PA),
            Schedule::Dapple(KPolicy::PB),
        ] {
            for s in 1..5 {
                for i in 0..s {
                    for m in 1..9 {
                        for d in [1, 2, usize::MAX] {
                            let order = stage_order(schedule, i, s, m, d);
                            let mut fw = vec![0u32; m];
                            let mut bw = vec![0u32; m];
                            for step in &order {
                                match step {
                                    Step::Fw(u) => fw[*u] += 1,
                                    Step::Bw(u) => bw[*u] += 1,
                                }
                            }
                            assert!(fw.iter().all(|&c| c == 1), "{schedule} {order:?}");
                            assert!(bw.iter().all(|&c| c == 1), "{schedule} {order:?}");
                        }
                    }
                }
            }
        }
    }

    /// A backward for µ can never be ordered before its forward.
    #[test]
    fn backward_never_precedes_forward() {
        for schedule in [Schedule::GPipe, Schedule::Dapple(KPolicy::PB)] {
            let order = stage_order(schedule, 1, 4, 8, 3);
            let mut seen_fw = [false; 8];
            for step in order {
                match step {
                    Step::Fw(u) => seen_fw[u] = true,
                    Step::Bw(u) => assert!(seen_fw[u], "{schedule}: B{u} before F{u}"),
                }
            }
        }
    }

    #[test]
    fn indexed_order_pairs_each_step_with_its_position() {
        for schedule in [Schedule::GPipe, Schedule::Dapple(KPolicy::PB)] {
            let plain = stage_order(schedule, 1, 3, 4, usize::MAX);
            let indexed = indexed_stage_order(schedule, 1, 3, 4, usize::MAX);
            assert_eq!(indexed.len(), plain.len());
            for (pos, (idx, step)) in indexed.iter().enumerate() {
                assert_eq!(*idx, pos);
                assert_eq!(*step, plain[pos]);
            }
        }
    }

    #[test]
    fn step_index_round_trips_through_the_order() {
        let schedule = Schedule::Dapple(KPolicy::PA);
        let (s, m, d) = (3, 4, usize::MAX);
        for i in 0..s {
            let order = stage_order(schedule, i, s, m, d);
            for u in 0..m {
                for step in [Step::Fw(u), Step::Bw(u)] {
                    let idx = step_index_of(schedule, i, s, m, d, step)
                        .expect("every µ appears on every stage");
                    assert_eq!(order[idx], step);
                }
            }
            // Out-of-range micro-batches are never scheduled.
            assert_eq!(step_index_of(schedule, i, s, m, d, Step::Fw(m)), None);
        }
    }

    /// Under DAPPLE, at most `max(K_i, 1)` micro-batches are ever in
    /// flight (forward done, backward pending) on a stage.
    #[test]
    fn dapple_bounds_in_flight_microbatches() {
        for d in 1..6 {
            let order = stage_order(Schedule::Dapple(KPolicy::PA), 0, 4, 12, d);
            let k = KPolicy::PA.warmup(0, 4, d, 12);
            let mut in_flight = 0usize;
            let mut peak = 0usize;
            for step in order {
                match step {
                    Step::Fw(_) => {
                        in_flight += 1;
                        peak = peak.max(in_flight);
                    }
                    Step::Bw(_) => in_flight -= 1,
                }
            }
            assert_eq!(peak, k, "d={d}");
        }
    }
}
