//! List scheduling: the one discrete-event pass that both times the
//! simulator's stages and channels ([`crate::PipelineSim`]) and orders the
//! engine's workers on its step threads.
//!
//! A *lane* is a script of ops that runs in order on one *resource*: a
//! simulated stage on its device, a boundary channel, or an engine worker
//! on a step thread. Lanes may share a resource (the engine puts several
//! workers on one thread) or own one each (the simulator's stages and
//! channels).

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

    #[test]
    #[should_panic(expected = "pipeline deadlock")]
    fn lanes_that_wait_on_each_other_deadlock() {
        list_schedule(&[lane(0, &[(0, 1..2, 1.0)]), lane(1, &[(0, 0..1, 1.0)])]);
    }
}
