//! The Chrome-trace export is real JSON. The workspace parser
//! (`dapple::core::json`) parses `to_chrome_trace` output from an actual simulation and checks that
//! every simulated task appears as a complete-event object with the
//! documented fields — and that every cross-stage transfer appears on
//! *both* endpoint rows (a send slice on the sender, a recv-wait slice on
//! the receiver). The engine's export names, on every worker event, the
//! step thread that ran the worker.

mod common;

use common::{field, items, num, parse_json, text, Json};
use dapple::cluster::Cluster;
use dapple::core::{Bytes, DeviceId, Plan, StagePlan};
use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer};
use dapple::model::synthetic;
use dapple::planner::CostModel;
use dapple::profiler::{MemoryModel, ModelProfile};
use dapple::sim::{
    to_chrome_trace, KPolicy, PipelineSim, Schedule, SimConfig, SimResult, TaskKind,
};

fn simulate(schedule: Schedule) -> SimResult {
    let cluster = Cluster::config_b(2);
    let graph = synthetic::uniform(4, 100.0, Bytes::mb(10.0), Bytes::mb(1.0));
    let profile = ModelProfile::profile(&graph, &cluster.device);
    let cm = CostModel::new(
        &profile,
        &cluster,
        MemoryModel::new(dapple::model::OptimizerKind::Adam),
        8,
    );
    let plan = Plan::new(vec![
        StagePlan::new(0..2, vec![DeviceId(0)]),
        StagePlan::new(2..4, vec![DeviceId(1)]),
    ]);
    PipelineSim::new(&cm, &plan).run(SimConfig {
        micro_batches: 4,
        schedule,
        recompute: false,
    })
}

/// Events whose slice starts at `ts` with the given name, as objects.
fn events_named<'a>(events: &'a [Json], name: &str, ts: f64) -> Vec<&'a Json> {
    events
        .iter()
        .filter(|o| text(o, "name") == name && (num(o, "ts") - ts).abs() < 1e-3)
        .collect()
}

#[test]
fn chrome_trace_is_valid_json_covering_every_task() {
    for schedule in [
        Schedule::GPipe,
        Schedule::Dapple(KPolicy::PA),
        Schedule::Dapple(KPolicy::PB),
    ] {
        let run = simulate(schedule);
        let trace = to_chrome_trace(&run);
        let root = parse_json(&trace)
            .unwrap_or_else(|e| panic!("{schedule:?}: invalid JSON: {e}\n{trace}"));
        let events = items(&root);

        // Every comm task is rendered twice (send + recv-wait); everything
        // else exactly once.
        let comm = run
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::CommF | TaskKind::CommB))
            .count();
        assert!(comm > 0, "{schedule:?}: 2-stage run must transfer");
        assert_eq!(
            events.len(),
            run.tasks.len() + comm,
            "{schedule:?}: one event per task plus one extra per transfer"
        );

        for obj in events {
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                assert!(
                    obj.get(key).is_some(),
                    "{schedule:?}: missing {key:?} in {obj:?}"
                );
            }
            assert_eq!(text(obj, "ph"), "X", "complete events only");
            assert!(!text(obj, "name").is_empty());
            assert!(
                ["forward", "backward", "comm", "allreduce"].contains(&text(obj, "cat")),
                "{schedule:?}: unexpected cat {:?}",
                text(obj, "cat")
            );
        }

        // Each task maps onto its event(s): compute tasks land on their
        // stage's compute row; a transfer across boundary `b` produces a
        // send on the source stage's comm row and a recv-wait on the
        // destination's, both with the payload size in `args`.
        for task in &run.tasks {
            let dur = task.end_us - task.start_us;
            match task.kind {
                TaskKind::Fw | TaskKind::Bw => {
                    let letter = if task.kind == TaskKind::Fw { "F" } else { "B" };
                    let found =
                        events_named(events, &format!("{letter}{}", task.micro), task.start_us);
                    let on_stage: Vec<_> = found
                        .iter()
                        .filter(|o| num(o, "pid") as usize == task.stage)
                        .collect();
                    assert_eq!(on_stage.len(), 1, "{schedule:?}: {task:?}");
                    let obj = on_stage[0];
                    assert_eq!(num(obj, "tid") as usize, 0);
                    assert!((num(obj, "dur") - dur).abs() < 1e-3);
                    assert_eq!(num(field(obj, "args"), "micro") as usize, task.micro);
                }
                TaskKind::CommF | TaskKind::CommB => {
                    let (src, dst) = if task.kind == TaskKind::CommF {
                        (task.stage, task.stage + 1)
                    } else {
                        (task.stage + 1, task.stage)
                    };
                    for (name, pid) in [
                        (format!("send{}", task.micro), src),
                        (format!("recv-wait{}", task.micro), dst),
                    ] {
                        let found = events_named(events, &name, task.start_us);
                        let hit = found
                            .iter()
                            .find(|o| num(o, "pid") as usize == pid)
                            .unwrap_or_else(|| {
                                panic!("{schedule:?}: no {name:?} on pid {pid} for {task:?}")
                            });
                        assert_eq!(num(hit, "tid") as usize, 1, "comm row");
                        assert!((num(hit, "dur") - dur).abs() < 1e-3);
                        let args = field(hit, "args");
                        assert_eq!(num(args, "micro") as u64, task.micro as u64);
                        assert_eq!(num(args, "bytes") as u64, task.bytes);
                        assert!(task.bytes > 0, "transfers move real bytes");
                    }
                }
                TaskKind::AllReduce => {
                    let found = events_named(events, "AllReduce", task.start_us);
                    assert!(!found.is_empty(), "{schedule:?}: {task:?}");
                    assert_eq!(num(field(found[0], "args"), "bytes") as u64, task.bytes);
                }
            }
        }
    }
}

/// Every event of a traced engine step carries, in `args.thread`, the
/// thread its worker ran on — the one `PipelineTrainer::threads` placed
/// it on and its `WorkerTrace` records.
#[test]
fn engine_trace_names_each_workers_thread() {
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
    (cfg.replication, cfg.tracing) = (vec![2, 1, 1], true);
    let model = MlpModel::new(&[5, 12, 10, 8, 8, 4, 3], 7);
    let trainer = PipelineTrainer::new(model, cfg).unwrap();
    let threads = trainer.threads();
    let thread_of = |stage: usize, replica: usize| {
        let on = threads.iter().position(|ws| ws.contains(&(stage, replica)));
        on.unwrap_or_else(|| panic!("({stage}, {replica}) is placed nowhere: {threads:?}"))
    };
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let (result, trace) = trainer.step_with_trace(&x, &t, &FaultPlan::new());
    result.unwrap();
    let trace = trace.expect("tracing on");
    for w in &trace.workers {
        assert_eq!(w.thread, thread_of(w.stage, w.replica), "{threads:?}");
    }

    let root = parse_json(&trace.to_chrome_trace()).unwrap();
    let events = items(&root);
    // Coordinator events (the stage reduces) name no thread.
    let workers = (events.iter()).filter(|o| text(o, "cat") != "allreduce");
    let mut seen = 0;
    for obj in workers {
        let args = field(obj, "args");
        let (stage, replica) = (num(obj, "pid") as usize, num(args, "replica") as usize);
        assert_eq!(
            num(args, "thread") as usize,
            thread_of(stage, replica),
            "{obj:?}"
        );
        seen += 1;
    }
    assert!(seen >= 4 * 2 * 4, "every worker's forwards and backwards");
}
