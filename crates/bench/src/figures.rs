//! Regeneration of Figures 3, 7, 8, 12, 13 and 14.

use crate::common::{plan_from, speedup_or_dash, Bench, Report};
use dapple_cluster::Cluster;
use dapple_core::Bytes;
use dapple_model::{synthetic, zoo, ModelSpec};
use dapple_planner::dp;
use dapple_profiler::ModelProfile;
use dapple_sim::list::{list_schedule, Lane, Op};
use dapple_sim::schedule::{stage_order, Step};
use dapple_sim::{render_timeline, KPolicy, PipelineSim, Schedule, SimConfig};
use std::fmt::Write as _;
use std::ops::Range;

/// Fig. 3: GPipe vs DAPPLE schedules and GPU0 memory over time.
pub fn fig3() -> Report {
    let cluster = Cluster::config_b(3);
    // Small boundary activations (Fig. 3 abstracts communication away; the
    // bubble-equality claim of §III-B holds when transfers are negligible)
    // but large *stored* activations, so the schedules' memory behaviour —
    // GPipe's O(M) ramp vs DAPPLE's early-release plateau — dominates the
    // fixed model state.
    let layers = (0..6)
        .map(|i| {
            dapple_model::Layer::from_ref_time(
                format!("block_{i}"),
                500.0,
                Bytes::mb(10.0),
                Bytes::mb(0.1),
                Bytes::mb(60.0),
            )
        })
        .collect();
    let graph = dapple_model::ModelGraph::new("Fig3-Synthetic", layers, Bytes::mb(0.1)).unwrap();
    let profile = ModelProfile::profile(&graph, &cluster.device);
    let mm = dapple_profiler::MemoryModel::new(dapple_model::OptimizerKind::Adam);
    let cm = dapple_planner::CostModel::new(&profile, &cluster, mm, 28);
    let plan = plan_from(&[(0..2, 0..1), (2..4, 1..2), (4..6, 2..3)]);
    let m = 7;
    let sim = PipelineSim::new(&cm, &plan);
    let gpipe = sim.run(SimConfig {
        micro_batches: m,
        schedule: Schedule::GPipe,
        recompute: false,
    });
    let dapple = sim.run(SimConfig {
        micro_batches: m,
        schedule: Schedule::Dapple(KPolicy::PA),
        recompute: false,
    });
    let mut text = String::new();
    writeln!(text, "(a) GPipe, 3 stages, M = {m}:").unwrap();
    text.push_str(&render_timeline(&gpipe, 96));
    writeln!(text, "(b) DAPPLE early backward scheduling:").unwrap();
    text.push_str(&render_timeline(&dapple, 96));
    writeln!(text, "(c) GPU0 memory over time (activation levels 1-8):").unwrap();
    write!(text, "  GPipe  ").unwrap();
    text.push_str(&dapple_sim::timeline::render_memory_series(
        &gpipe.mem_series[0],
        80,
    ));
    write!(text, "  DAPPLE ").unwrap();
    text.push_str(&dapple_sim::timeline::render_memory_series(
        &dapple.mem_series[0],
        80,
    ));
    writeln!(
        text,
        "peak GPU0: GPipe {} vs DAPPLE {} ({:.0}% saved); makespans {:.1} / {:.1} ms",
        gpipe.peak_mem[0],
        dapple.peak_mem[0],
        (1.0 - dapple.peak_mem[0].as_f64() / gpipe.peak_mem[0].as_f64()) * 100.0,
        gpipe.makespan_us / 1e3,
        dapple.makespan_us / 1e3,
    )
    .unwrap();
    let csv = format!(
        "schedule,makespan_ms,peak_gpu0_mb\nGPipe,{:.2},{:.1}\nDAPPLE,{:.2},{:.1}\n",
        gpipe.makespan_us / 1e3,
        gpipe.peak_mem[0].to_mb(),
        dapple.makespan_us / 1e3,
        dapple.peak_mem[0].to_mb()
    );
    Report {
        id: "fig3",
        title: "GPipe vs DAPPLE scheduling and memory (Fig. 3)".into(),
        text,
        csv,
    }
}

/// Fig. 7 / §IV-D1: uneven layer splits beat the even layer-count split.
///
/// Two demonstrations of the claim:
/// * a minimum example — four layers `[500, 500, 500, 1500] µs` on two
///   devices, where the even layer-count split 2:2 badly imbalances stage
///   *time* while the "uneven" 3:1 split balances it;
/// * the paper's real-world instance — GNMT-16's decoder layers cost 1.45x
///   the encoder's, so the planner's 9:7 split beats the even 8:8 (§VI-B).
pub fn fig7() -> Report {
    let mut text = String::new();
    let mut csv = String::from("case,split,makespan_ms\n");

    // Minimum example.
    let cluster = Cluster::config_b(2);
    let graph = synthetic::from_triples(&[
        (500.0, 10.0, 0.5),
        (500.0, 10.0, 0.5),
        (500.0, 10.0, 0.5),
        (1500.0, 10.0, 0.5),
    ]);
    let profile = ModelProfile::profile(&graph, &cluster.device);
    let mm = dapple_profiler::MemoryModel::new(dapple_model::OptimizerKind::Adam);
    let cm = dapple_planner::CostModel::new(&profile, &cluster, mm, 8);
    let run = |plan: &dapple_core::Plan, m: usize| {
        PipelineSim::new(&cm, plan)
            .run(SimConfig {
                micro_batches: m,
                schedule: Schedule::Dapple(KPolicy::PA),
                recompute: false,
            })
            .makespan_us
    };
    let even = plan_from(&[(0..2, 0..1), (2..4, 1..2)]);
    let uneven = plan_from(&[(0..3, 0..1), (3..4, 1..2)]);
    let (t_even, t_uneven) = (run(&even, 4), run(&uneven, 4));
    writeln!(
        text,
        "Minimum example: layers [500, 500, 500, 1500] us on 2 devices, M = 4:"
    )
    .unwrap();
    writeln!(text, "  even layer count 2:2 -> {:>8.2} ms", t_even / 1e3).unwrap();
    writeln!(text, "  uneven           3:1 -> {:>8.2} ms", t_uneven / 1e3).unwrap();
    writeln!(csv, "minimum,2:2,{:.3}", t_even / 1e3).unwrap();
    writeln!(csv, "minimum,3:1,{:.3}", t_uneven / 1e3).unwrap();

    // GNMT-16's 9:7 vs 8:8 on Config A (the paper's planning result).
    let b = Bench::new(zoo::gnmt16(), Cluster::config_a(2));
    let cm = b.cost();
    let split_97 = plan_from(&[(0..9, 0..8), (9..16, 8..16)]);
    let split_88 = plan_from(&[(0..8, 0..8), (8..16, 8..16)]);
    let ev97 = cm.evaluate(&split_97.stages, false);
    let ev88 = cm.evaluate(&split_88.stages, false);
    writeln!(text, "GNMT-16 on Config A (decoder layers 1.45x encoder):").unwrap();
    writeln!(
        text,
        "  even  8:8 split -> {:>8.2} ms",
        ev88.total_us() / 1e3
    )
    .unwrap();
    writeln!(
        text,
        "  uneven 9:7 split -> {:>8.2} ms ({:.1}% faster)",
        ev97.total_us() / 1e3,
        (1.0 - ev97.total_us() / ev88.total_us()) * 100.0
    )
    .unwrap();
    writeln!(csv, "gnmt,8:8,{:.3}", ev88.total_us() / 1e3).unwrap();
    writeln!(csv, "gnmt,9:7,{:.3}", ev97.total_us() / 1e3).unwrap();
    Report {
        id: "fig7",
        title: "Uneven pipeline partitioning (Fig. 7 / §IV-D1)".into(),
        text,
        csv,
    }
}

/// Fig. 8: replicating a stage by splitting micro-batches vs round-robin
/// whole micro-batches (tail effect).
pub fn fig8() -> Report {
    // Stage 0 costs 2T per micro-batch, stage 1 costs T; stage 0 is
    // replicated on two devices; backward costs twice forward. Both
    // replication styles run through the simulator's list scheduler.
    let t = 1.0f64;
    let m = 5usize;
    // (a) split: each replica handles half of every micro-batch in T, so
    // the pipeline is a uniform 2-stage 1F1B pipeline at (T fw, 2T bw).
    let split_makespan = simulate_replicated(m, &vec![0..2; m], t, 2.0 * t, t, 2.0 * t);
    // (b) round-robin: replica u % 2 handles the whole micro-batch u, each
    // taking 2T fw / 4T bw — the tail effect of §V-B2.
    let assignment: Vec<Range<usize>> = (0..m).map(|u| u % 2..u % 2 + 1).collect();
    let rr_makespan = simulate_replicated(m, &assignment, 2.0 * t, 4.0 * t, t, 2.0 * t);
    let mut text = String::new();
    writeln!(
        text,
        "Stage 0 = 2T per micro-batch on 2 replicas; stage 1 = T; M = {m}:"
    )
    .unwrap();
    writeln!(text, "  (a) split micro-batches : {split_makespan:>6.1} T").unwrap();
    writeln!(text, "  (b) round-robin         : {rr_makespan:>6.1} T").unwrap();
    writeln!(
        text,
        "  round-robin / split = {:.2} (tail effect, §V-B2)",
        rr_makespan / split_makespan
    )
    .unwrap();
    let csv =
        format!("approach,makespan_T\nsplit,{split_makespan:.2}\nround_robin,{rr_makespan:.2}\n");
    Report {
        id: "fig8",
        title: "Stage replication: split vs round-robin (Fig. 8)".into(),
        text,
        csv,
    }
}

/// Simulates a 2-stage pipeline whose first stage is replicated on two
/// devices, with `assignment[u]` the stage-0 replicas that process
/// micro-batch `u` (all of them must finish before stage 1 can start it).
/// Each stage-0 replica runs its micro-batches as stage 0 of a 2-stage
/// DAPPLE-PA script (two warmup forwards, then 1F1B); stage 1 is a single
/// device running each micro-batch's forward and backward back to back.
fn simulate_replicated(
    m: usize,
    assignment: &[Range<usize>],
    fw0: f64,
    bw0: f64,
    fw1: f64,
    bw1: f64,
) -> f64 {
    let op = |slot, after, cost| Op { slot, after, cost };
    let mut lanes: Vec<Lane> = (0..2)
        .map(|r| {
            let mine: Vec<usize> = (0..m).filter(|u| assignment[*u].contains(&r)).collect();
            let script = stage_order(Schedule::Dapple(KPolicy::PA), 0, 2, mine.len(), usize::MAX);
            let ops = script.into_iter().map(|step| match step {
                Step::Fw(i) => op(mine[i], 0..0, fw0),
                Step::Bw(i) => op(m + mine[i], 2..3, bw0),
            });
            Lane {
                resource: r,
                ops: ops.collect(),
            }
        })
        .collect();
    let stage1 = (0..m).flat_map(|u| [op(u, assignment[u].clone(), fw1), op(m + u, 0..0, bw1)]);
    lanes.push(Lane {
        resource: 2,
        ops: stage1.collect(),
    });
    let times = list_schedule(&lanes).times;
    times.iter().flatten().fold(0.0, |end, t| t.1.max(end))
}

/// The GBS sweep used for a model in Fig. 12.
fn gbs_sweep(name: &str) -> Vec<usize> {
    match name {
        "VGG-19" | "GNMT-16" => vec![512, 1024, 2048, 4096],
        "AmoebaNet-36" => vec![128, 256, 512, 1024],
        _ => vec![32, 64, 128, 256], // BERT-48, XLNet-36
    }
}

/// One Fig. 12 cell: speedups for the three implementations over a GBS
/// sweep on one cluster.
fn fig12_cell(spec: &ModelSpec, cluster: &Cluster, text: &mut String, csv: &mut String) {
    writeln!(text, "{} on {}:", spec.name(), cluster.name).unwrap();
    writeln!(
        text,
        "  {:>6} {:>10} {:>12} {:>12}",
        "GBS", "DP no-ovl", "DP overlap", "Best hybrid"
    )
    .unwrap();
    for gbs in gbs_sweep(spec.name()) {
        let b = Bench::new(spec.clone(), cluster.clone());
        let cm = b.cost_at(gbs);
        let single = cm.single_device_us();
        let all = cluster.all_devices();
        let dp_plan = vec![dapple_core::StagePlan::new(
            0..b.profile.num_layers(),
            all.clone(),
        )];
        let dp_feasible = cm.evaluate(&dp_plan, false).feasible;
        let no = dp_feasible.then(|| single / dp::dp_no_overlap(&cm, &all).latency_us);
        let ov = dp_feasible.then(|| single / dp::dp_overlap(&cm, &all).latency_us);
        let hybrid = b.plan_at(gbs).ok().map(|s| s.speedup(single));
        writeln!(
            text,
            "  {:>6} {:>10} {:>12} {:>12}",
            gbs,
            speedup_or_dash(no),
            speedup_or_dash(ov),
            speedup_or_dash(hybrid)
        )
        .unwrap();
        writeln!(
            csv,
            "{},{},{gbs},{},{},{}",
            spec.name(),
            cluster.name,
            no.map(|v| format!("{v:.2}")).unwrap_or_default(),
            ov.map(|v| format!("{v:.2}")).unwrap_or_default(),
            hybrid.map(|v| format!("{v:.2}")).unwrap_or_default()
        )
        .unwrap();
    }
}

/// Fig. 12: training speedups vs global batch size, 5 models x 3 configs.
pub fn fig12() -> Report {
    let mut text = String::new();
    let mut csv = String::from("model,config,gbs,dp_no_overlap,dp_overlap,best_hybrid\n");
    let configs = [
        Cluster::config_a(2),
        Cluster::config_b(16),
        Cluster::config_c(16),
    ];
    for spec in [
        zoo::vgg19(),
        zoo::gnmt16(),
        zoo::bert48(),
        zoo::xlnet36(),
        zoo::amoebanet36(),
    ] {
        for cluster in &configs {
            fig12_cell(&spec, cluster, &mut text, &mut csv);
        }
    }
    Report {
        id: "fig12",
        title: "Speedups vs global batch size (Fig. 12, 16 devices)".into(),
        text,
        csv,
    }
}

/// Fig. 13: DAPPLE plans vs PipeDream plans under the synchronous cost
/// model, 2x8 and 4x8 clusters.
pub fn fig13() -> Report {
    let mut text = format!(
        "{:<14} {:>10} {:>14} {:>10} {:>14}\n",
        "Model", "DAPPLE 4x8", "PipeDream 4x8", "DAPPLE 2x8", "PipeDream 2x8"
    );
    let mut csv = String::from("model,servers,dapple_speedup,pipedream_speedup\n");
    let specs = [zoo::xlnet36(), zoo::bert_large(), zoo::amoebanet36(), {
        let mut v = zoo::vgg19();
        v.global_batch = 1024;
        v
    }];
    for spec in specs {
        let mut row: Vec<Option<f64>> = Vec::new();
        let mut per_servers: Vec<(usize, Option<f64>, Option<f64>)> = Vec::new();
        for servers in [4usize, 2] {
            let b = Bench::new(spec.clone(), Cluster::config_a(servers));
            let cm = b.cost();
            let single = cm.single_device_us();
            let da = b.plan().ok().map(|s| s.speedup(single));
            let pd = dapple_planner::pipedream::plan(&cm, b.spec.profile_batch as f64)
                .ok()
                .map(|p| {
                    let ev = cm.evaluate(&p.stages, false);
                    single / ev.total_us()
                })
                .filter(|v| v.is_finite());
            row.push(da);
            row.push(pd);
            per_servers.push((servers, da, pd));
        }
        writeln!(
            text,
            "{:<14} {:>10} {:>14} {:>10} {:>14}",
            spec.name(),
            speedup_or_dash(row[0]),
            speedup_or_dash(row[1]),
            speedup_or_dash(row[2]),
            speedup_or_dash(row[3]),
        )
        .unwrap();
        for (servers, da, pd) in per_servers {
            writeln!(
                csv,
                "{},{servers},{},{}",
                spec.name(),
                da.map(|v| format!("{v:.2}")).unwrap_or_default(),
                pd.map(|v| format!("{v:.2}")).unwrap_or_default()
            )
            .unwrap();
        }
    }
    Report {
        id: "fig13",
        title: "DAPPLE vs PipeDream planner quality (Fig. 13)".into(),
        text,
        csv,
    }
}

/// Fig. 14: strong scaling on Config A, 2 to 16 GPUs at fixed GBS.
pub fn fig14() -> Report {
    let mut text = String::new();
    let mut csv = String::from("model,gpus,dp_no_overlap,dp_overlap,best_hybrid\n");
    let cases: Vec<(ModelSpec, usize)> = vec![
        (zoo::gnmt16(), 2048),
        (zoo::bert48(), 128),
        (zoo::xlnet36(), 128),
        (zoo::amoebanet36(), 256),
    ];
    for (mut spec, gbs) in cases {
        spec.global_batch = gbs;
        writeln!(text, "{} (GBS {gbs}), Config A:", spec.name()).unwrap();
        writeln!(
            text,
            "  {:>5} {:>10} {:>12} {:>12}",
            "GPUs", "DP no-ovl", "DP overlap", "Best hybrid"
        )
        .unwrap();
        for gpus in [2usize, 4, 6, 8, 10, 12, 14, 16] {
            // Hierarchical servers of 8: fill the first, spill to a second.
            let cluster = if gpus <= 8 {
                Cluster::new(
                    format!("Config-A ({gpus} GPUs)"),
                    vec![gpus],
                    dapple_cluster::DeviceSpec::v100(),
                    dapple_cluster::Interconnect::nvlink(),
                    dapple_cluster::Interconnect::ethernet_25gbps(),
                )
            } else {
                Cluster::new(
                    format!("Config-A (8+{} GPUs)", gpus - 8),
                    vec![8, gpus - 8],
                    dapple_cluster::DeviceSpec::v100(),
                    dapple_cluster::Interconnect::nvlink(),
                    dapple_cluster::Interconnect::ethernet_25gbps(),
                )
            };
            let b = Bench::new(spec.clone(), cluster.clone());
            let cm = b.cost();
            let single = cm.single_device_us();
            let all = cluster.all_devices();
            let dp_plan = vec![dapple_core::StagePlan::new(
                0..b.profile.num_layers(),
                all.clone(),
            )];
            let dp_feasible = cm.evaluate(&dp_plan, false).feasible;
            let no = dp_feasible.then(|| single / dp::dp_no_overlap(&cm, &all).latency_us);
            let ov = dp_feasible.then(|| single / dp::dp_overlap(&cm, &all).latency_us);
            let hybrid = b.plan().ok().map(|s| s.speedup(single));
            writeln!(
                text,
                "  {:>5} {:>10} {:>12} {:>12}",
                gpus,
                speedup_or_dash(no),
                speedup_or_dash(ov),
                speedup_or_dash(hybrid)
            )
            .unwrap();
            writeln!(
                csv,
                "{},{gpus},{},{},{}",
                spec.name(),
                no.map(|v| format!("{v:.2}")).unwrap_or_default(),
                ov.map(|v| format!("{v:.2}")).unwrap_or_default(),
                hybrid.map(|v| format!("{v:.2}")).unwrap_or_default()
            )
            .unwrap();
        }
    }
    Report {
        id: "fig14",
        title: "Strong scaling, fixed GBS, Config A (Fig. 14)".into(),
        text,
        csv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_dapple_saves_memory_same_bubbles() {
        let r = fig3();
        let lines: Vec<&str> = r.csv.lines().skip(1).collect();
        let parse = |l: &str| -> (f64, f64) {
            let mut it = l.split(',').skip(1);
            (
                it.next().unwrap().parse().unwrap(),
                it.next().unwrap().parse().unwrap(),
            )
        };
        let (gp_ms, gp_peak) = parse(lines[0]);
        let (da_ms, da_peak) = parse(lines[1]);
        assert!(da_peak < gp_peak, "DAPPLE must use less memory");
        // "the exact same bubble time as GPipe" (§III-B): makespans match.
        assert!((da_ms - gp_ms).abs() / gp_ms < 0.02, "{da_ms} vs {gp_ms}");
    }

    #[test]
    fn fig7_uneven_wins() {
        let r = fig7();
        let val = |case: &str, split: &str| -> f64 {
            r.csv
                .lines()
                .find(|l| l.starts_with(&format!("{case},{split},")))
                .map(|l| l.split(',').nth(2).unwrap().parse().unwrap())
                .unwrap()
        };
        assert!(
            val("minimum", "3:1") < val("minimum", "2:2"),
            "3:1 must beat 2:2"
        );
        assert!(val("gnmt", "9:7") < val("gnmt", "8:8"), "9:7 must beat 8:8");
    }

    #[test]
    fn fig8_round_robin_pays_tail_effect() {
        let r = fig8();
        let vals: Vec<f64> = r
            .csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(vals[1] > vals[0], "round-robin must be slower: {vals:?}");
        assert_eq!(vals, [18.0, 21.0]);
    }
}
