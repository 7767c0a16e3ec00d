//! List scheduling: one lane builder, [`step_lanes`], and one
//! discrete-event pass, [`list_schedule`], that both time the simulator's
//! workers and channels ([`crate::PipelineSim`]) and order the engine's
//! workers on its step threads.
//!
//! A *lane* is a script of ops that runs in order on one *resource*: a
//! stage replica (a *worker*) on its device or step thread, or a boundary
//! channel. Lanes may share a resource (the engine puts several workers on
//! one thread) or own one each (the simulator's devices and channels).

use crate::schedule::Step;
use std::ops::Range;

/// One op of a [`Lane`].
#[derive(Debug, Clone)]
pub struct Op {
    /// The op's slot within its lane. A dependency is named by slot: an op
    /// waits for the op in *its own* slot of every lane in [`Op::after`].
    pub slot: usize,
    /// The lanes whose op in [`Op::slot`] must end before this op starts.
    pub after: Range<usize>,
    /// How long the op holds its lane's resource: finite, non-negative.
    pub cost: f64,
}

/// A script of ops that runs in order on one resource.
#[derive(Debug, Clone)]
pub struct Lane {
    /// The resource the lane's ops hold. Resources are numbered from 0;
    /// the highest lane's resource sets how many there are.
    pub resource: usize,
    /// The lane's ops, in script order, each in its own slot.
    pub ops: Vec<Op>,
}

/// The lanes of one step, lane `l` on `resource(l)`: per worker,
/// stage-major, its stage's script and then its sync; then, given a
/// `(forward, backward)` cost per boundary, each forward channel and each
/// backward one, carrying its sender's transfers.
///
/// Micro-batch `u`'s forward and its transfer take slot `u`, its backward
/// and its gradient's transfer `m + u`, a sync `2m`. A forward waits for
/// the stage before it, a backward for the one after it (every replica, or
/// the channel between), a transfer for every replica of its sender. A
/// step costs `cost(stage, Some(step))`. Replica 0's sync (the reduce)
/// waits for its peers' and costs `cost(stage, None)`; a peer's costs
/// nothing, so on a resource per worker each replica keeps replica 0's times.
pub fn step_lanes(
    scripts: &[Vec<Step>],
    replication: &[usize],
    cost: impl Fn(usize, Option<Step>) -> f64,
    resource: impl Fn(usize) -> usize,
    channels: Option<&[(f64, f64)]>,
) -> Vec<Lane> {
    let (s, m) = (scripts.len(), scripts.first().map_or(0, |sc| sc.len() / 2));
    let first = |i: usize| replication[..i].iter().sum::<usize>();
    let stage = |i: usize| first(i)..first(i + 1);
    // Boundary `b`'s forward channel is lane `cf + b`, its backward one `cb + b`.
    let (cf, cb) = (first(s), first(s) + s.saturating_sub(1));
    let after = |i: usize, step| match (step, channels) {
        (Step::Fw(_), None) if i > 0 => stage(i - 1),
        (Step::Fw(_), Some(_)) if i > 0 => cf + i - 1..cf + i,
        (Step::Bw(_), None) if i + 1 < s => stage(i + 1),
        (Step::Bw(_), Some(_)) if i + 1 < s => cb + i..cb + i + 1,
        _ => 0..0,
    };
    let slot = |step| match step {
        Step::Fw(u) => u,
        Step::Bw(u) => m + u,
    };
    let op = |slot, after, cost| Op { slot, after, cost };
    let workers = (0..s).flat_map(|i| (0..replication[i]).map(move |p| (i, p)));
    let mut lanes: Vec<Lane> = (workers.enumerate())
        .map(|(w, (i, p))| {
            let steps =
                (scripts[i].iter()).map(|&st| op(slot(st), after(i, st), cost(i, Some(st))));
            let sync = match p {
                0 => op(2 * m, first(i) + 1..first(i + 1), cost(i, None)),
                _ => op(2 * m, 0..0, 0.0),
            };
            let (resource, ops) = (resource(w), steps.chain([sync]).collect());
            Lane { resource, ops }
        })
        .collect();
    let channels = channels.unwrap_or_default().iter().enumerate();
    let forward = channels.clone().map(|(b, c)| (b, false, c.0));
    let sends = forward.chain(channels.map(|(b, c)| (b + 1, true, c.1)));
    for (i, backward, cost) in sends {
        let mine = (scripts[i].iter()).filter(|st| matches!(st, Step::Bw(_)) == backward);
        let ops = mine.map(|&st| op(slot(st), stage(i), cost)).collect();
        let resource = resource(lanes.len());
        lanes.push(Lane { resource, ops });
    }
    lanes
}

/// What [`list_schedule`] decided.
#[derive(Debug, Clone)]
pub struct ListSchedule {
    /// Per resource: its ops in run order, as `(lane, k)` for op `k` of
    /// lane `lane`.
    pub orders: Vec<Vec<(usize, usize)>>,
    /// Per lane, per op: its `(start, end)`.
    pub times: Vec<Vec<(f64, f64)>>,
}

/// Runs `lanes` on their resources, all free at time 0, one op at a
/// time:
///
/// * An op is *ready* once its lane's previous op and the op in its slot
///   of every lane in [`Op::after`] have been emitted. It could start at
///   the later of its resource's free time and the end of each op it
///   waits for; a lane holds one resource, so the free time covers the
///   lane's previous op.
/// * Of the ready ops, the pass emits the one that could start first — on
///   a tied start a lane's last op (the engine's sync, the simulator's
///   AllReduce), then the lower lane — and its resource is busy until
///   `start + cost`. Times are non-negative, so their bits order as they
///   do.
///
/// Every op follows everything it waits for in the emission order, and
/// each resource's order is that order restricted to its ops. This is what
/// makes the engine's per-thread orders deadlock-free: at any point, the
/// earliest op of the emission order that has not run is at the head of
/// its resource's order with its inputs done, so it can run.
///
/// # Panics
///
/// With "pipeline deadlock" when ops remain but none is ready: lanes
/// that wait on each other.
pub fn list_schedule(lanes: &[Lane]) -> ListSchedule {
    let resources = lanes.iter().map(|l| l.resource + 1).max().unwrap_or(0);
    let ops = lanes.iter().flat_map(|lane| &lane.ops);
    let slots = ops.map(|op| op.slot + 1).max().unwrap_or(0);
    let mut end = vec![vec![None::<f64>; slots]; lanes.len()];
    let (mut free, mut orders) = (vec![0.0f64; resources], vec![Vec::new(); resources]);
    let mut times: Vec<Vec<(f64, f64)>> = (lanes.iter())
        .map(|lane| Vec::with_capacity(lane.ops.len()))
        .collect();
    loop {
        let ready = lanes.iter().zip(&times).enumerate();
        let ready = ready.filter_map(|(l, (lane, done))| {
            let op = lane.ops.get(done.len())?;
            let inputs = (op.after.clone().map(|q| end[q][op.slot]))
                .try_fold(0.0f64, |t, e| Some(t.max(e?)))?;
            let start = free[lane.resource].max(inputs).to_bits();
            Some((start, done.len() + 1 < lane.ops.len(), l))
        });
        let Some((start, _, l)) = ready.min() else {
            break;
        };
        let (lane, k) = (&lanes[l], times[l].len());
        let start = f64::from_bits(start);
        let done = start + lane.ops[k].cost;
        (end[l][lane.ops[k].slot], free[lane.resource]) = (Some(done), done);
        times[l].push((start, done));
        orders[lane.resource].push((l, k));
    }
    let (done, ops): (Vec<_>, Vec<_>) = (times.iter().zip(lanes))
        .map(|(t, lane)| (t.len(), lane.ops.len()))
        .unzip();
    assert!(done == ops, "pipeline deadlock: {done:?} of {ops:?}");
    ListSchedule { orders, times }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::stage_order;
    use crate::{KPolicy, Schedule};

    fn lane(resource: usize, ops: &[(usize, Range<usize>, f64)]) -> Lane {
        let ops = ops
            .iter()
            .cloned()
            .map(|(slot, after, cost)| Op { slot, after, cost });
        Lane {
            resource,
            ops: ops.collect(),
        }
    }

    /// Lanes 0 and 2 share a resource: while lane 2 waits for lane 1's op,
    /// lane 0 fills the gap. A tied start goes to a lane's last op, then to
    /// the lower lane.
    #[test]
    fn ops_start_when_their_resource_and_inputs_are_free() {
        let lanes = [
            lane(0, &[(0, 0..0, 2.0), (1, 0..0, 1.0)]),
            lane(1, &[(0, 0..1, 3.0)]),
            lane(0, &[(0, 1..2, 1.0), (1, 0..0, 0.0)]),
        ];
        let s = list_schedule(&lanes);
        let times = [
            vec![(0.0, 2.0), (2.0, 3.0)],
            vec![(2.0, 5.0)],
            vec![(5.0, 6.0), (6.0, 6.0)],
        ];
        assert_eq!(s.times, times);
        assert_eq!(
            s.orders,
            [vec![(0, 0), (0, 1), (2, 0), (2, 1)], vec![(1, 0)]]
        );
        let lanes = [
            lane(0, &[(0, 0..0, 2.0), (1, 0..0, 1.0)]),
            lane(0, &[(0, 0..0, 0.0)]),
        ];
        assert_eq!(list_schedule(&lanes).orders, [[(1, 0), (0, 0), (0, 1)]]);
    }

    /// A lane's resource and its ops as `(slot, after, cost)`.
    type Spelled = (usize, Vec<(usize, Range<usize>, f64)>);

    fn spelled(lanes: &[Lane]) -> Vec<Spelled> {
        let op = |o: &Op| (o.slot, o.after.clone(), o.cost);
        lanes
            .iter()
            .map(|l| (l.resource, l.ops.iter().map(op).collect()))
            .collect()
    }

    /// Stage 0 fw 1, bw 2, reduce 0.5; stage 1 fw 3, bw 4, nothing to
    /// reduce.
    fn cost(i: usize, step: Option<Step>) -> f64 {
        match step {
            Some(Step::Fw(_)) => [1.0, 3.0][i],
            Some(Step::Bw(_)) => [2.0, 4.0][i],
            None => [0.5, 0.0][i],
        }
    }

    /// A `[2, 1]` pipeline at M = 2 under PA: workers `(0, 0)`, `(0, 1)`
    /// and `(1, 0)`, then, with channels, boundary 0's forward and
    /// backward lanes.
    #[test]
    fn step_lanes_spell_out_a_replicated_pipeline() {
        use Step::{Bw, Fw};
        let pa = |i| stage_order(Schedule::Dapple(KPolicy::PA), i, 2, 2, usize::MAX);
        let scripts = [pa(0), pa(1)];
        let expect = [[Fw(0), Fw(1), Bw(0), Bw(1)], [Fw(0), Bw(0), Fw(1), Bw(1)]];
        assert_eq!(scripts, expect);
        // Replica `p` of stage 0, whose backwards wait for lanes `bw`, and
        // stage 1, whose forwards wait for lanes `fw`. Replica 0 reduces.
        let stage0 = |bw: Range<usize>, p| {
            let sync = if p == 0 {
                (4, 1..2, 0.5)
            } else {
                (4, 0..0, 0.0)
            };
            let fw = [(0, 0..0, 1.0), (1, 0..0, 1.0)];
            [fw.to_vec(), vec![(2, bw.clone(), 2.0), (3, bw, 2.0), sync]].concat()
        };
        let stage1 = |fw: Range<usize>| {
            let bw = |slot| (slot, 0..0, 4.0);
            vec![
                (0, fw.clone(), 3.0),
                bw(2),
                (1, fw, 3.0),
                bw(3),
                (4, 3..3, 0.0),
            ]
        };

        // Without channels a step waits for the other stage's workers.
        let lanes = step_lanes(&scripts, &[2, 1], cost, |w| 2 - w, None);
        let expect = [
            (2, stage0(2..3, 0)),
            (1, stage0(2..3, 1)),
            (0, stage1(0..2)),
        ];
        assert_eq!(spelled(&lanes), expect);

        // With channels it waits for lane 3, boundary 0's forward channel
        // (stage 0's forwards), or lane 4, its backward one (stage 1's
        // backwards).
        let lanes = step_lanes(&scripts, &[2, 1], cost, |w| w, Some(&[(0.25, 0.75)]));
        let forward = vec![(0, 0..2, 0.25), (1, 0..2, 0.25)];
        let backward = vec![(2, 2..3, 0.75), (3, 2..3, 0.75)];
        let workers = [
            (0, stage0(4..5, 0)),
            (1, stage0(4..5, 1)),
            (2, stage1(3..4)),
        ];
        let expect = [workers.to_vec(), vec![(3, forward), (4, backward)]].concat();
        assert_eq!(spelled(&lanes), expect);
    }

    /// On a resource per worker, every replica's steps take its replica
    /// 0's times bit for bit and its sync starts with replica 0's — what
    /// lets the simulator read a stage from its replica 0.
    #[test]
    fn replicas_on_their_own_resources_run_their_replica_0s_times() {
        for (replication, m) in [(vec![2, 1], 2), (vec![2, 3, 1], 5), (vec![1, 4], 3)] {
            let s = replication.len();
            for policy in [KPolicy::PA, KPolicy::PB] {
                let scripts: Vec<Vec<Step>> = (0..s)
                    .map(|i| stage_order(Schedule::Dapple(policy), i, s, m, usize::MAX))
                    .collect();
                let cost = |i: usize, step: Option<Step>| match step {
                    Some(Step::Fw(u)) => 1.0 + 0.1 * (i + u) as f64,
                    Some(Step::Bw(u)) => 2.3 + 0.7 * (i * u) as f64,
                    None => 0.9,
                };
                let channels: Vec<(f64, f64)> = (1..s).map(|b| (0.3 * b as f64, 0.4)).collect();
                for channels in [None, Some(&channels[..])] {
                    let lanes = step_lanes(&scripts, &replication, cost, |w| w, channels);
                    let times = list_schedule(&lanes).times;
                    let mut first = 0;
                    for &r in &replication {
                        let bits = |w: usize| -> Vec<[u64; 2]> {
                            let t = times[w].iter();
                            t.map(|&(a, b)| [a.to_bits(), b.to_bits()]).collect()
                        };
                        let ctx = format!("{replication:?} m={m} {policy} {channels:?}");
                        for w in first + 1..first + r {
                            let (mine, zero) = (bits(w), bits(first));
                            assert_eq!(mine[..2 * m], zero[..2 * m], "{ctx}");
                            assert_eq!(mine[2 * m][0], zero[2 * m][0], "{ctx}");
                        }
                        first += r;
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pipeline deadlock")]
    fn lanes_that_wait_on_each_other_deadlock() {
        list_schedule(&[lane(0, &[(0, 1..2, 1.0)]), lane(1, &[(0, 0..1, 1.0)])]);
    }
}
