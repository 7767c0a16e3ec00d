//! The planner's closed-form latency objective and the discrete-event
//! simulator must agree: the formula is exact on uniform pipelines and a
//! tight approximation elsewhere ("it works practically very well for all
//! our benchmarks", §IV-A). Over a sweep of the same three fixtures the
//! simulator is also pinned on its own: a digest of every bit it reports,
//! and each resource's timeline replayed against its dependencies.

use dapple::cluster::Cluster;
use dapple::core::{Bytes, DeviceId, Plan, StagePlan};
use dapple::model::{synthetic, ModelGraph, OptimizerKind};
use dapple::planner::{pipeline_latency, CostModel};
use dapple::profiler::{MemoryModel, ModelProfile};
use dapple::sim::{KPolicy, PipelineSim, Schedule, SimConfig, SimResult, TaskKind, TaskRecord};
use std::collections::HashMap;

/// A cluster, a model, a global batch and a plan over them.
type Fixture = (Cluster, ModelGraph, usize, Plan);

/// Four uniform stages of two layers, one device each.
fn straight() -> Fixture {
    let g = synthetic::uniform(8, 200.0, Bytes::mb(30.0), Bytes::mb(0.5));
    let plan = Plan::new(
        (0..4)
            .map(|i| StagePlan::new(i * 2..(i + 1) * 2, vec![DeviceId(i as u32)]))
            .collect(),
    );
    (Cluster::config_b(4), g, 32, plan)
}

/// A deliberately unbalanced split of a ramped model.
fn uneven() -> Fixture {
    let g = synthetic::ramped(9, 150.0, 0.8, Bytes::mb(25.0));
    let plan = Plan::new(vec![
        StagePlan::new(0..2, vec![DeviceId(0)]),
        StagePlan::new(2..5, vec![DeviceId(1)]),
        StagePlan::new(5..9, vec![DeviceId(2)]),
    ]);
    (Cluster::config_b(3), g, 24, plan)
}

/// Two stages of four replicas each.
fn replicated() -> Fixture {
    let g = synthetic::uniform(8, 300.0, Bytes::mb(40.0), Bytes::mb(2.0));
    let plan = Plan::new(vec![
        StagePlan::new(0..4, (0..4).map(DeviceId).collect()),
        StagePlan::new(4..8, (4..8).map(DeviceId).collect()),
    ]);
    (Cluster::config_a(1), g, 64, plan)
}

/// `f` over every run of the golden sweep: each fixture under GPipe, PA
/// and PB, with and without re-computation, at M = 1, 2, 5 and 8.
fn sweep(mut f: impl FnMut(&str, SimResult)) {
    for (name, (cluster, g, gbs, plan)) in [
        ("straight", straight()),
        ("uneven", uneven()),
        ("replicated", replicated()),
    ] {
        let p = ModelProfile::profile(&g, &cluster.device);
        let cm = CostModel::new(&p, &cluster, MemoryModel::new(OptimizerKind::Adam), gbs);
        let sim = PipelineSim::new(&cm, &plan);
        for schedule in [
            Schedule::GPipe,
            Schedule::Dapple(KPolicy::PA),
            Schedule::Dapple(KPolicy::PB),
        ] {
            for recompute in [false, true] {
                for micro_batches in [1, 2, 5, 8] {
                    let cfg = SimConfig {
                        micro_batches,
                        schedule,
                        recompute,
                    };
                    f(&format!("{name} {cfg:?}"), sim.run(cfg));
                }
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes = words.into_iter().flat_map(u64::to_le_bytes);
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Every bit of a run the sweep pins: makespan, busy time, peak memory,
/// the memory series, the OOM flag, and the tasks sorted by start, stage,
/// kind and micro-batch — so the digest does not depend on the order in
/// which the simulator lists its tasks.
fn bits(r: &SimResult) -> Vec<u64> {
    let mut tasks = r.tasks.clone();
    tasks.sort_by(|a, b| {
        let key = |t: &TaskRecord| (t.stage, t.kind as u8, t.micro);
        a.start_us.total_cmp(&b.start_us).then(key(a).cmp(&key(b)))
    });
    let mut w = vec![r.makespan_us.to_bits(), u64::from(r.oom)];
    w.extend(r.busy_us.iter().map(|b| b.to_bits()));
    w.extend(r.peak_mem.iter().map(|b| b.0));
    for series in &r.mem_series {
        w.push(series.len() as u64);
        w.extend(series.iter().flat_map(|&(t, b)| [t.to_bits(), b.0]));
    }
    for t in tasks {
        let (stage, kind, micro) = (t.stage as u64, t.kind as u64, t.micro as u64);
        w.extend([stage, kind, micro, t.bytes]);
        w.extend([t.start_us.to_bits(), t.end_us.to_bits()]);
    }
    w
}

fn agreement(plan: &Plan, cm: &CostModel<'_>, m: usize) -> f64 {
    let sim = PipelineSim::new(cm, plan)
        .run(SimConfig {
            micro_batches: m,
            schedule: Schedule::Dapple(KPolicy::PB),
            recompute: false,
        })
        .makespan_us;
    let lat = cm.stage_latencies(&plan.stages, m);
    let formula = pipeline_latency(&lat, m).total_us();
    (sim - formula).abs() / formula
}

#[test]
fn formula_matches_sim_on_uniform_straight_pipelines() {
    let (cluster, g, gbs, plan) = straight();
    let p = ModelProfile::profile(&g, &cluster.device);
    let cm = CostModel::new(&p, &cluster, MemoryModel::new(OptimizerKind::Adam), gbs);
    for m in [1usize, 2, 4, 8, 16, 32] {
        let rel = agreement(&plan, &cm, m);
        assert!(rel < 0.02, "M={m}: rel err {rel}");
    }
}

#[test]
fn formula_tracks_sim_on_uneven_pipelines() {
    let (cluster, g, gbs, plan) = uneven();
    let p = ModelProfile::profile(&g, &cluster.device);
    let cm = CostModel::new(&p, &cluster, MemoryModel::new(OptimizerKind::Adam), gbs);
    for m in [2usize, 6, 12, 24] {
        let rel = agreement(&plan, &cm, m);
        // Approximation: internal bubbles are not modeled, so allow slack.
        assert!(rel < 0.15, "M={m}: rel err {rel}");
    }
}

#[test]
fn formula_tracks_sim_with_replicated_stages() {
    let (cluster, g, gbs, plan) = replicated();
    let p = ModelProfile::profile(&g, &cluster.device);
    let cm = CostModel::new(&p, &cluster, MemoryModel::new(OptimizerKind::Adam), gbs);
    for m in [4usize, 8, 16] {
        let rel = agreement(&plan, &cm, m);
        assert!(rel < 0.10, "M={m}: rel err {rel}");
    }
}

/// The simulator's every bit over the sweep, as one digest: a change to
/// any simulated time, busy total, memory figure or task moves it.
#[test]
fn simulated_timelines_match_their_golden_digest() {
    let mut words = Vec::new();
    let mut runs = 0;
    sweep(|_, r| {
        words.extend(bits(&r));
        runs += 1;
    });
    assert_eq!(runs, 72);
    assert_eq!(fnv1a(words), 13_284_677_139_109_138_332);
}

/// On every run of the sweep, each resource's order — a stage's device,
/// or one direction of a boundary's channel, its tasks by start — has no
/// overlap and is a subsequence of one global order in which every task
/// follows what it waits for on another resource: a forward its
/// activation's transfer, a backward its gradient's transfer, a transfer
/// its sender's compute. Replayed: each resource runs its next task once
/// those inputs have run, which must never start after the task does.
#[test]
fn resource_orders_interleave_into_one_dependency_order() {
    sweep(|ctx, r| {
        let stages = r.busy_us.len();
        let resource = |t: &TaskRecord| match t.kind {
            TaskKind::Fw | TaskKind::Bw | TaskKind::AllReduce => t.stage,
            TaskKind::CommF => stages + t.stage,
            TaskKind::CommB => 2 * stages + t.stage,
        };
        let mut orders = vec![Vec::new(); 3 * stages];
        for t in &r.tasks {
            orders[resource(t)].push(t);
        }
        for order in &mut orders {
            order.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
            assert!(
                order.windows(2).all(|w| w[0].end_us <= w[1].start_us),
                "{ctx}: overlap"
            );
        }
        let key = |kind: TaskKind, stage: usize, micro: usize| (kind as u8, stage, micro);
        let input = |t: &TaskRecord| match t.kind {
            TaskKind::Fw if t.stage > 0 => Some(key(TaskKind::CommF, t.stage - 1, t.micro)),
            TaskKind::Bw if t.stage + 1 < stages => Some(key(TaskKind::CommB, t.stage, t.micro)),
            TaskKind::CommF => Some(key(TaskKind::Fw, t.stage, t.micro)),
            TaskKind::CommB => Some(key(TaskKind::Bw, t.stage + 1, t.micro)),
            _ => None,
        };
        let (mut ended, mut at) = (HashMap::new(), vec![0; orders.len()]);
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (order, at) in orders.iter().zip(&mut at) {
                while let Some(t) = order.get(*at) {
                    if let Some(i) = input(t) {
                        let Some(&end) = ended.get(&i) else { break };
                        assert!(end <= t.start_us, "{ctx}: {t:?} starts early");
                    }
                    ended.insert(key(t.kind, t.stage, t.micro), t.end_us);
                    (*at, progressed) = (*at + 1, true);
                }
            }
        }
        let stuck: Vec<_> = (orders.iter().zip(&at))
            .filter_map(|(order, &at)| order.get(at))
            .collect();
        assert!(stuck.is_empty(), "{ctx}: replay stuck at {stuck:?}");
    });
}
