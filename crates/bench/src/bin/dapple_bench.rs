//! `dapple-bench` — machine-readable baseline for the per-iteration hot
//! paths below the step that `benchmark/` cannot see, each timing a
//! function a step calls: the engine's in-place replica reduce, the
//! packed forward product around the parallel gate, what a matmul pays
//! around its kernel inside the pipeline (worker-pool dispatch, the
//! layer's products, the activation epilogue, the data generator), and
//! the state passes and elastic ladder of recovery. What a whole step
//! costs, supervised or not, is `benchmark/`'s to measure.
//!
//! ```text
//! cargo run --release -p dapple-bench --bin dapple-bench -- \
//!     [--smoke] [--out PATH] [--trace PATH] [--recovery-log PATH] \
//!     [--gate-err-steady THRESHOLD] [--commit SHA] [--timestamp ISO]
//! cargo run --release -p dapple-bench --bin dapple-bench -- \
//!     diff <old.json> <new.json> [--threshold REL] [--md PATH] [--json PATH]
//! ```
//!
//! Writes a [`dapple_bench::report`] (default `dapple-bench.json`; the
//! committed `BENCH_N.json` series is written only when named): one record
//! per measurement, plus the round-by-round trace-calibration loop and
//! the replan demonstration from [`dapple_bench::validate`]. `--trace`
//! exports the calibration loop's last median measured step as a Chrome
//! Trace Event file, `--recovery-log` the elastic ladder's recovery-event
//! log; `--gate-err-steady T` exits non-zero when the calibrated
//! steady-phase error exceeds `T`; `--commit`/`--timestamp` stamp the
//! report so `diff` can label its endpoints. `--smoke` shrinks every
//! shape to a couple of seconds — for CI, not for comparing numbers.
//! README.md has the groups ("Benchmark harness") and the rule of the
//! `diff` subcommand ("Barometer"; [`dapple_bench::diff`]).

use dapple_bench::flags::{number, value};
use dapple_bench::report::{render, Field, Record};
use dapple_bench::timing::time_ns_min;
use dapple_bench::validate::{
    calibrate_validation, replan_from_measured, Scenario, MAX_CALIBRATION_ROUNDS, MEASURE_ITERS,
};
use dapple_core::{DeviceId, Plan, StagePlan};
use dapple_engine::checkpoint::checksum;
use dapple_engine::data::regression_batch;
use dapple_engine::{
    tanh, Activation, DataStream, Dense, EngineConfig, FaultKind, FaultPlan, MlpModel, Optimizer,
    PackedRhs, RetryPolicy, Rhs, Supervisor, Tensor, TrainLoop,
};
use std::hint::black_box;
use std::time::Instant;

/// Deterministic pseudo-random tensor (no RNG crate in the bin target).
fn filled(rows: usize, cols: usize, seed: u32) -> Tensor {
    let mut s = seed.wrapping_mul(2_654_435_761).max(1);
    let data = (0..rows * cols)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s as f32 / u32::MAX as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// The engine's gradient sync, `reduce_sum_in_place`: every rank's
/// buffer summed into the first in the ring's order. `gib_per_s` is the
/// payload over time; one thread reads every rank's buffer, so
/// `input_gib_per_s` (all bytes summed over time) is the number that
/// should hold steady as ranks are added. A pass is microseconds at most:
/// enough of them that the minimum is interference-free even in smoke
/// mode.
fn inplace_reduce_benches(smoke: bool, out: &mut Vec<Record>) {
    let configs: &[(usize, usize)] = if smoke {
        &[(2, 1024), (4, 1024)]
    } else {
        &[
            (2, 4096),
            (4, 4096),
            (8, 4096),
            (2, 65536),
            (4, 65536),
            (8, 65536),
            (8, 1 << 20),
        ]
    };
    let iters = 200;
    for &(ranks, len) in configs {
        let proto: Vec<Vec<f32>> = (0..ranks)
            .map(|r| (0..len).map(|i| (r * 31 + i) as f32 * 0.25).collect())
            .collect();
        let mut first = proto[0].clone();
        let ns = time_ns_min(iters, || {
            let rest: Vec<Vec<&[f32]>> = proto[1..].iter().map(|b| vec![b.as_slice()]).collect();
            dapple_collectives::reduce_sum_in_place(&mut [first.as_mut_slice()], &rest);
            black_box(first[0]);
        });
        let bytes = (len * 4) as f64;
        let gib_per_s =
            |bytes: f64, ns: f64| Field::Fixed(bytes / ns * 1e9 / (1u64 << 30) as f64, 4);
        out.push(Record {
            group: "inplace_reduce",
            name: format!("ranks{ranks}_len{len}"),
            iters,
            ns_per_iter: ns,
            extra: vec![
                ("ranks", ranks.into()),
                ("elems", len.into()),
                ("gib_per_s", gib_per_s(bytes, ns)),
                ("input_gib_per_s", gib_per_s(bytes * ranks as f64, ns)),
                ("method", Field::Str("min_of_iters".into())),
            ],
        });
    }
}

/// The forward product a step runs, `matmul_with_into` against a
/// [`PackedRhs`] into a reused output, at shapes straddling the kernels'
/// FLOP-based parallel gate (`n·k·m >= 2M` multiply-adds). `skinny_deep`
/// is the shape class an output-element threshold misjudges: a small
/// `n×m` output over a deep inner dimension carries real work and
/// parallelizes. `flat_wide` is the inverse — a large output over
/// `k = 1` is trivial per element and must stay serial (thread dispatch
/// would dominate). `row_activation` is the single-row inference shape,
/// which can only run serial because row-banding has one band; the gate
/// keeps it from paying dispatch for nothing. Minimum over iterations
/// (a helper thread may be involved, see [`time_ns_min`]).
fn matmul_benches(smoke: bool, out: &mut Vec<Record>) {
    let (shapes, iters): (&[(&str, usize, usize, usize)], u32) = if smoke {
        (&[("skinny_deep", 8, 512, 8), ("flat_wide", 64, 1, 64)], 3)
    } else {
        (
            &[
                ("skinny_deep", 32, 8192, 24),
                ("flat_wide", 512, 1, 512),
                ("row_activation", 1, 1024, 1024),
            ],
            40,
        )
    };
    for &(label, n, k, m) in shapes {
        let a = filled(n, k, 3);
        let mut packed = PackedRhs::new();
        packed.pack(&filled(k, m, 4));
        let mut y = Tensor::zeros(n, m);
        let muls = n * k * m;
        let flops = 2.0 * muls as f64;
        let ns = time_ns_min(iters, || {
            a.matmul_with_into(Rhs::Packed(&packed), black_box(&mut y), |_| {})
        });
        out.push(Record {
            group: "matmul",
            name: format!("{label}_{n}x{k}x{m}"),
            iters,
            ns_per_iter: ns,
            extra: vec![
                ("muls", muls.into()),
                ("gflops", (flops / ns.max(1.0)).into()),
                ("method", Field::Str("min_of_iters".into())),
            ],
        });
    }
}

/// What a matmul inside the pipeline pays around its kernel: the cost of
/// handing bands to the worker pool, and the products a layer runs.
///
/// `par_for_each_2_bands_noop` is one empty two-band parallel call — post
/// the job, wake a helper, drain — i.e. pure dispatch. The `matmul_*`
/// records are the products of one dense layer's forward/backward at
/// `compute_wide`'s shape, 64 rows through a 512 x 512 layer (each
/// 64·512·512 multiply-adds, all above the parallel gate): `nn_packed`
/// and `nt_packed` are the two `nn` products against a [`PackedRhs`]
/// (`x W` and `dz W^T`), and `tn_packed` / `tn_packed_add` the product
/// `x^T dz` stored into, and added with the finiteness check into, a
/// panel-major `dW` — what the layer and the pipeline run. Around the products at the same shape:
/// `tanh_64x512` is the activation alone over a 64 x 512 slice
/// (`ns_per_elem`), `dense_forward_packed_64x512x512` the whole forward
/// the pipeline runs (the product against the layer's stored panels,
/// then bias and `tanh` as its epilogue), and
/// `regression_batch_512x64x32` one `compute_wide` batch from the data
/// generator. `matmul_nn_packed_16x768x768` is the forward product at
/// `sync_hybrid`/`recovery_adam`'s shape. Minimum over iterations (a
/// helper thread is involved, see [`time_ns_min`]).
fn dispatch_benches(smoke: bool, out: &mut Vec<Record>) {
    use rayon::prelude::*;
    let iters: u32 = if smoke { 30 } else { 300 };
    let mut push =
        |name: &str, f: &mut dyn FnMut(), extra: &dyn Fn(f64) -> (&'static str, Field)| {
            let ns = time_ns_min(iters, f);
            out.push(Record {
                group: "dispatch",
                name: name.to_string(),
                iters,
                ns_per_iter: ns,
                extra: vec![extra(ns), ("method", Field::Str("min_of_iters".into()))],
            });
        };

    let mut two_bands = [0u8; 2];
    push(
        "par_for_each_2_bands_noop",
        &mut || {
            two_bands.par_chunks_mut(1).enumerate().for_each(|band| {
                black_box(band);
            })
        },
        &|_| ("bands", 2.into()),
    );

    let (rows, width) = (64usize, 512usize);
    let x = filled(rows, width, 5);
    let dz = filled(rows, width, 6);
    let w = filled(width, width, 7);
    let (mut packed, mut packed_t) = (PackedRhs::new(), PackedRhs::new());
    packed.pack(&w);
    packed_t.pack_transposed(&w);
    let mut y = Tensor::zeros(rows, width);
    let mut dw_packed = PackedRhs::zeros(width, width);
    let gflops_of =
        |muls: usize| move |ns: f64| ("gflops", (2.0 * muls as f64 / ns.max(1.0)).into());
    let gflops = gflops_of(rows * width * width);
    let shape = format!("{rows}x{width}x{width}");
    push(
        &format!("matmul_nn_packed_{shape}"),
        &mut || x.matmul_with_into(Rhs::Packed(&packed), black_box(&mut y), |_| {}),
        &gflops,
    );
    push(
        &format!("matmul_tn_packed_{shape}"),
        &mut || x.matmul_tn_packed_into(&dz, black_box(&mut dw_packed)),
        &gflops,
    );
    push(
        &format!("matmul_tn_packed_add_{shape}"),
        &mut || {
            black_box(x.matmul_tn_packed_add_into(&dz, &mut dw_packed));
        },
        &gflops,
    );
    push(
        &format!("matmul_nt_packed_{shape}"),
        &mut || dz.matmul_with_into(Rhs::Packed(&packed_t), black_box(&mut y), |_| {}),
        &gflops,
    );
    let z = filled(rows, width, 9);
    push(
        &format!("tanh_{rows}x{width}"),
        &mut || {
            for (y, z) in black_box(&mut y.data).iter_mut().zip(&z.data) {
                *y = tanh(*z);
            }
        },
        &|ns| ("ns_per_elem", (ns / (rows * width) as f64).into()),
    );
    let layer = Dense::from_weights(w.clone(), filled(1, width, 10).data, Activation::Tanh)
        .expect("a well-formed layer");
    push(
        &format!("dense_forward_packed_{shape}"),
        &mut || layer.forward_into(&x, black_box(&mut y)),
        &gflops,
    );
    let (samples, inputs, outputs) = (512, 64, 32);
    push(
        &format!("regression_batch_{samples}x{inputs}x{outputs}"),
        &mut || drop(black_box(regression_batch(samples, inputs, outputs, 11))),
        &|ns| ("ns_per_sample", (ns / samples as f64).into()),
    );
    let (x, w) = (filled(16, 768, 5), filled(768, 768, 7));
    packed.pack(&w);
    let mut y = Tensor::zeros(16, 768);
    push(
        "matmul_nn_packed_16x768x768",
        &mut || x.matmul_with_into(Rhs::Packed(&packed), black_box(&mut y), |_| {}),
        &gflops_of(16 * 768 * 768),
    );
}

/// Recovery costs `benchmark/` does not time at these sizes: the
/// state-proportional passes between steps and the elastic-migration
/// ladder. (What a supervised step costs, clean or retried, and what a
/// save or resume of a real state costs, is `benchmark/`'s to measure,
/// with a probe-normalised clock.)
fn recovery_benches(smoke: bool, out: &mut Vec<Record>, recovery_log: Option<&str>) {
    let (dims, batch): (Vec<usize>, usize) = if smoke {
        (vec![5, 12, 10, 8, 8, 4, 3], 24)
    } else {
        (vec![64, 256, 256, 256, 256, 128, 32], 128)
    };
    state_pass_benches(out);

    // The full escalation ladder, timed end to end: a transient fault is
    // retried, then a replica of the wide stage dies for good (retries
    // exhaust, the replica is dropped), a short degraded window runs,
    // and the supervisor re-plans onto the survivors and rebuilds the
    // pipeline around the live state. The migration cost is the paper's
    // recovery-time story; the event log written by `--recovery-log`
    // comes from this run, so it exercises every event kind — retry,
    // rollback, recovered, replica drop, checkpoint save and repartition.
    let elastic_loop = {
        let model = MlpModel::new(&dims, 3);
        let optimizer = Optimizer::adam(0.01, &model);
        let mut cfg = EngineConfig::straight(vec![0..4, 4..6], 4, 0.1);
        cfg.replication = vec![2, 1];
        TrainLoop::new(
            model,
            cfg,
            optimizer,
            DataStream::new(11, batch, dims[0], *dims.last().unwrap()),
        )
        .unwrap()
    };
    let plan = Plan::new(vec![
        StagePlan {
            layers: 0..4,
            devices: vec![DeviceId(0), DeviceId(1)],
        },
        StagePlan {
            layers: 4..6,
            devices: vec![DeviceId(2)],
        },
    ]);
    let mut sup = Supervisor::new(elastic_loop, RetryPolicy::default())
        .with_checkpoint_every(2)
        .with_elastic(plan, 2, |survivors: &[DeviceId]| {
            let split = vec![0..3, 3..6];
            Some(Plan::new(
                split
                    .into_iter()
                    .zip(survivors)
                    .map(|(layers, &d)| StagePlan {
                        layers,
                        devices: vec![d],
                    })
                    .collect(),
            ))
        })
        .unwrap();
    let mut script = |step: u64, attempt: usize| {
        if step == 1 && attempt == 0 {
            FaultPlan::new().with_fault(1, 0, 1, FaultKind::Panic)
        } else if step == 2 {
            FaultPlan::new().with_fault(0, 1, 0, FaultKind::Panic)
        } else {
            FaultPlan::new()
        }
    };
    let t0 = Instant::now();
    for _ in 0..6 {
        sup.step_with(&mut script).unwrap();
    }
    let ladder_ns = t0.elapsed().as_nanos() as f64;
    let m = sup.metrics();
    assert_eq!(m.repartitions, 1, "elastic bench must migrate exactly once");
    out.push(Record {
        group: "recovery",
        name: "elastic_migration".into(),
        iters: 1,
        ns_per_iter: m.migration_us as f64 * 1e3,
        extra: vec![
            ("ladder_total_ns", ladder_ns.into()),
            ("repartitions", m.repartitions.into()),
            ("replica_drops", m.replica_drops.into()),
            ("checkpoint_saves", m.checkpoint_saves.into()),
            ("mttr_virtual_us", m.mttr_virtual_us.into()),
        ],
    });

    if let Some(path) = recovery_log {
        write_or_exit(path, "recovery event log", &sup.events_json());
    }
}

/// The two state-proportional passes between pipeline steps, at sizes the
/// smoke run's 13 KB checkpoints cannot show: the checkpoint checksum over
/// 4 MiB (a byte-serial sum reads a tenth of this), and an Adam step and
/// an SGD step over ~1 M parameters — as one 1024 x 1024 tensor (32
/// chunks, then 32 `W^T` panels, shared with the pool) and as 32 layers
/// of 180 x 180 (each under one band: inline). SGD's rule costs almost
/// nothing, so its record is the memory streams and the `W^T` pass.
fn state_pass_benches(out: &mut Vec<Record>) {
    let iters = 20;
    let mut push = |name: &str, ns: f64, rate: &'static str, value: f64| {
        out.push(Record {
            group: "recovery",
            name: name.into(),
            iters,
            ns_per_iter: ns,
            extra: vec![(rate, value.into())],
        });
    };
    let bytes: Vec<u8> = (0..4usize << 20).map(|i| (i * 31 + 7) as u8).collect();
    let ns = time_ns_min(iters, || {
        black_box(checksum(black_box(&bytes)));
    });
    let gib = bytes.len() as f64 / (1u64 << 30) as f64;
    push("checkpoint_checksum_4mib", ns, "gib_per_s", gib / ns * 1e9);
    for (label, dims) in [("pool", vec![1024, 1024]), ("inline", vec![180; 33])] {
        let mut model = MlpModel::new(&dims, 9);
        let (_, grads) = model.reference_grads(&filled(2, dims[0], 3), &filled(2, dims[0], 4), 1);
        let params: usize = model.layers.iter().map(|l| l.num_params()).sum();
        for (rule, mut opt) in [
            ("adam", Optimizer::adam(1e-3, &model)),
            ("sgd", Optimizer::sgd(1e-3)),
        ] {
            let ns = time_ns_min(iters, || opt.step(black_box(&mut model), &grads));
            let name = format!("{rule}_step_1m_{label}");
            push(&name, ns, "ns_per_param", ns / params as f64);
        }
    }
}

/// Predicted-vs-actual: the full calibration loop, one record per round.
/// Round 0 is the uncalibrated analytic prediction; each later round
/// predicts from the previous round's trace-calibrated profile. Returns
/// the final (calibrated) steady-phase error for the `--gate-err-steady`
/// regression gate. `--trace` exports the last round's median step.
fn validation_benches(smoke: bool, out: &mut Vec<Record>, trace_path: Option<&str>) -> f64 {
    let scenario = if smoke {
        Scenario::smoke()
    } else {
        Scenario::default_2stage()
    };
    let outcome = calibrate_validation(&scenario, MAX_CALIBRATION_ROUNDS, MEASURE_ITERS);
    if let Some(path) = trace_path {
        write_or_exit(path, "chrome trace", &outcome.trace.to_chrome_trace());
    }
    let rounds = outcome.rounds.len();
    for (round, v) in outcome.rounds.iter().enumerate() {
        let calibrated = round > 0;
        out.push(Record {
            group: "validation",
            name: format!(
                "predicted_vs_actual_s{}_m{}_round{round}",
                scenario.stage_bounds.len(),
                scenario.micro_batches
            ),
            iters: v.measured_iters as u32,
            ns_per_iter: v.measured_makespan_us * 1e3,
            extra: vec![
                ("round", round.into()),
                ("calibrated", Field::Bool(calibrated)),
                (
                    "converged",
                    Field::Bool(outcome.converged && round + 1 == rounds),
                ),
                ("predicted_makespan_us", v.predicted_makespan_us.into()),
                ("measured_makespan_us", v.measured_makespan_us.into()),
                ("measured_min_us", v.measured_range_us.0.into()),
                ("measured_max_us", v.measured_range_us.1.into()),
                ("predicted_bubble_ratio", v.predicted_bubble.into()),
                ("measured_bubble_ratio", v.measured_bubble.into()),
                (
                    "stage_busy_fraction",
                    Field::F64s(v.stage_busy_fraction.clone()),
                ),
                ("err_makespan", v.makespan_error.into()),
                ("err_warmup", v.phase_errors[0].into()),
                ("err_steady", v.phase_errors[1].into()),
                ("err_tail", v.phase_errors[2].into()),
            ],
        });
    }
    outcome.final_round().phase_errors[1]
}

/// Replanning from a measured profile: the planner's choice under the
/// analytic cost model vs. under the trace-calibrated one, both plans
/// executed on the engine.
fn replan_benches(smoke: bool, out: &mut Vec<Record>) {
    let iters = if smoke { 3 } else { MEASURE_ITERS };
    let r = replan_from_measured(smoke, iters);
    let fmt_bounds = |bounds: &[std::ops::Range<usize>]| {
        let bounds: Vec<_> = bounds
            .iter()
            .map(|b| format!("{}..{}", b.start, b.end))
            .collect();
        Field::Str(bounds.join(" "))
    };
    out.push(Record {
        group: "replan",
        name: format!("analytic_vs_measured_profile_l{}", r.dims.len() - 1),
        iters: iters as u32,
        ns_per_iter: r.calibrated_us * 1e3,
        extra: vec![
            ("analytic_bounds", fmt_bounds(&r.analytic_bounds)),
            ("analytic_micro_batches", r.analytic_micro.into()),
            ("analytic_measured_us", r.analytic_us.into()),
            ("calibrated_bounds", fmt_bounds(&r.calibrated_bounds)),
            ("calibrated_micro_batches", r.calibrated_micro.into()),
            ("calibrated_measured_us", r.calibrated_us.into()),
            ("plans_differ", Field::Bool(r.plans_differ)),
            ("speedup", r.speedup.into()),
        ],
    });
}

/// Writes an output file, or exits 1 saying why not.
fn write_or_exit(path: &str, what: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {what} {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("[dapple-bench] wrote {what} to {path}");
}

const USAGE: &str = "usage: dapple-bench [--smoke] [--out PATH] [--trace PATH] \
     [--recovery-log PATH] [--gate-err-steady THRESHOLD] [--commit SHA] [--timestamp ISO]\n\
     or:    dapple-bench diff <old.json> <new.json> [--threshold REL] [--md PATH] [--json PATH]";

#[derive(Default)]
struct Options<'a> {
    smoke: bool,
    out_path: Option<&'a str>,
    trace_path: Option<&'a str>,
    recovery_log: Option<&'a str>,
    gate_err_steady: Option<f64>,
    commit: Option<&'a str>,
    timestamp: Option<&'a str>,
}

fn parse_options(args: &[String]) -> Result<Options<'_>, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => o.smoke = true,
            "--out" => o.out_path = Some(value(&mut it, a, "a path")?),
            "--trace" => o.trace_path = Some(value(&mut it, a, "a path")?),
            "--recovery-log" => o.recovery_log = Some(value(&mut it, a, "a path")?),
            "--gate-err-steady" => o.gate_err_steady = Some(number(&mut it, a)?),
            "--commit" => o.commit = Some(value(&mut it, a, "a value")?),
            "--timestamp" => o.timestamp = Some(value(&mut it, a, "a value")?),
            _ => return Err(format!("unknown argument: {a}")),
        }
    }
    Ok(o)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        std::process::exit(dapple_bench::diff::run_diff_cli(&args[1..]));
    }
    let o = parse_options(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let smoke = o.smoke;
    let out_path = o.out_path.unwrap_or("dapple-bench.json");

    let mode = if smoke { "smoke" } else { "full" };
    let mut records = Vec::new();
    eprintln!("[dapple-bench] in-place reduce ({mode})...");
    inplace_reduce_benches(smoke, &mut records);
    eprintln!("[dapple-bench] matmul around the parallel gate ({mode})...");
    matmul_benches(smoke, &mut records);
    eprintln!("[dapple-bench] dispatch and layer products ({mode})...");
    dispatch_benches(smoke, &mut records);
    eprintln!("[dapple-bench] fault recovery ({mode})...");
    recovery_benches(smoke, &mut records, o.recovery_log);
    eprintln!("[dapple-bench] calibration loop ({mode})...");
    let err_steady = validation_benches(smoke, &mut records, o.trace_path);
    eprintln!("[dapple-bench] replan from measured profile ({mode})...");
    replan_benches(smoke, &mut records);

    let json = render(mode, o.commit, o.timestamp, &records);
    std::fs::write(out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    for r in &records {
        eprintln!(
            "  {:<16} {:<32} {:>12.1} ns/iter",
            r.group, r.name, r.ns_per_iter
        );
    }
    println!("{out_path}");
    if let Some(threshold) = o.gate_err_steady {
        // NaN (no validation record produced) must fail the gate too.
        if err_steady.is_nan() || err_steady > threshold {
            eprintln!(
                "[dapple-bench] GATE FAILED: calibrated err_steady {err_steady:.4} \
                 exceeds threshold {threshold:.4}"
            );
            std::process::exit(1);
        }
        eprintln!(
            "[dapple-bench] gate OK: calibrated err_steady {err_steady:.4} <= {threshold:.4}"
        );
    }
}
