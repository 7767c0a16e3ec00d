//! The per-layer run (`--trace 1`): every layer of the stack measured
//! from outside, by timing calls into its public functions and reading
//! the counters the engine already exposes.
//!
//! Five copies of the workload advance in lock-step from the same seed,
//! each one layer of wrapping thinner than the one before, so a private
//! layer's cost is the difference between two neighbours:
//!
//! | copy       | what runs                                   | engine tracing |
//! |------------|---------------------------------------------|----------------|
//! | `run`      | `Supervisor::step_with` (the real top)       | on             |
//! | `plain`    | `TrainLoop::try_step`                        | on             |
//! | `recorded` | `try_step` with a `RunRecorder` on `io::sink`| on             |
//! | `untraced` | `try_step`                                   | off            |
//! | twin       | `next_batch` → `step_with_trace` → `Optimizer::step` | on     |
//!
//! The twin is the step rebuilt from public pieces; after every step its
//! model must equal the supervisor's bit for bit. The harness keeps its
//! own spans (name, start, end, parent, step) in memory and writes them
//! out as Chrome-trace JSON when the run ends.

use crate::hostclock::reference_ms;
use crate::json::{self, Json};
use crate::run::{millis, Outcome, Supervised};
use crate::stats::median;
use crate::workloads::Workload;
use dapple::collectives::allreduce_sum;
use dapple::core::chrome::{chrome_trace_json, ChromeArg, ChromeEvent};
use dapple::engine::layer::DenseGrads;
use dapple::engine::{
    DataStream, FaultPlan, LossKind, Optimizer, PipelineTrainer, RecoveryEventKind, RunRecorder,
    SpanKind, StepOutcome, StepTrace, Tensor, TrainLoop,
};
use std::time::{Duration, Instant};

/// One harness span. `parent` indexes the span that caused it.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    step: u64,
}

/// The harness's own spans, kept in memory until the run ends.
struct Spans {
    epoch: Instant,
    all: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            all: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, step: u64) -> usize {
        let start_ns = self.now_ns();
        self.all.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            step,
        });
        self.all.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.all[id].end_ns = self.now_ns();
    }

    /// Times `f` as a leaf span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        step: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, step);
        let out = f();
        self.close(id);
        out
    }

    fn ms(&self, id: usize) -> f64 {
        (self.all[id].end_ns - self.all[id].start_ns) as f64 / 1e6
    }

    /// Durations of every span called `name`, ms.
    fn durations(&self, name: &str) -> Vec<f64> {
        let ids = (0..self.all.len()).filter(|&id| self.all[id].name == name);
        ids.map(|id| self.ms(id)).collect()
    }

    /// Median duration of the spans called `name`, ms (0 if none ran).
    fn p50(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// For each span called `name`: the share of its duration that none
    /// of its child spans covers, in percent.
    fn self_time_pct(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.all.len()];
        for span in &self.all {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let ids = (0..self.all.len()).filter(|&id| self.all[id].name == name);
        ids.map(|id| {
            let total = (self.all[id].end_ns - self.all[id].start_ns).max(1);
            100.0 * total.saturating_sub(covered[id]) as f64 / total as f64
        })
        .collect()
    }

    fn chrome_trace(&self) -> String {
        chrome_trace_json(self.all.iter().enumerate().map(|(id, span)| {
            let mut args = vec![
                ("id", ChromeArg::Int(id as u64)),
                ("step", ChromeArg::Int(span.step)),
            ];
            args.extend(span.parent.map(|p| ("parent", ChromeArg::Int(p as u64))));
            ChromeEvent {
                name: span.name.to_string(),
                cat: "harness",
                ts_us: span.start_ns as f64 / 1e3,
                dur_us: (span.end_ns - span.start_ns) as f64 / 1e3,
                pid: 0,
                tid: 0,
                args,
            }
        }))
    }
}

/// What one twin pipeline step reported about itself: the per-layer
/// metrics read off its `StepOutcome` and `StepTrace`, by metric name.
fn pipeline_sample(out: &StepOutcome, trace: &StepTrace) -> Vec<(&'static str, f64)> {
    let m = trace.metrics();
    let ms = |ns: u64| ns as f64 / 1e6;
    let sends = trace
        .workers
        .iter()
        .flat_map(|w| &w.spans)
        .filter(|s| s.kind == SpanKind::CommSend);
    let allreduces = trace
        .coord
        .iter()
        .filter(|c| c.span.kind == SpanKind::AllReduce);
    let busy_min = m.stages.iter().map(|s| s.busy_fraction).fold(1.0, f64::min);
    vec![
        ("pipeline.makespan_ms", ms(m.makespan_ns)),
        ("pipeline.busy_ms", ms(m.busy_ns())),
        ("pipeline.recv_wait_ms", ms(m.channel_wait_ns())),
        (
            "pipeline.send_ms",
            ms(m.stages.iter().map(|s| s.send_ns).sum()),
        ),
        (
            "pipeline.allreduce_ms",
            ms(m.stages.iter().map(|s| s.allreduce_ns).sum()),
        ),
        ("pipeline.bubble_ratio", m.bubble_ratio),
        ("pipeline.stage_busy_min", busy_min),
        ("pipeline.workers", trace.workers.len() as f64),
        ("pipeline.msgs_per_step", sends.clone().count() as f64),
        (
            "pipeline.boundary_bytes_per_step",
            sends.map(|s| s.bytes).sum::<u64>() as f64,
        ),
        ("pipeline.pool_hits", out.pool_hits as f64),
        ("pipeline.pool_misses", out.pool_misses as f64),
        ("pipeline.dropped_spans", trace.dropped_spans() as f64),
        (
            "collectives.calls_per_step",
            allreduces.clone().count() as f64,
        ),
        (
            "collectives.bytes_per_step",
            allreduces.map(|c| c.span.bytes).sum::<u64>() as f64,
        ),
    ]
}

/// The five lock-stepped copies and everything measured on them.
struct Lab<'a> {
    w: &'a Workload,
    seed: u64,
    spans: Spans,
    run: Supervised<'a>,
    plain: TrainLoop,
    recorded: TrainLoop,
    untraced: TrainLoop,
    twin: PipelineTrainer,
    twin_opt: Optimizer,
    twin_data: DataStream,
    /// One [`pipeline_sample`] per twin step.
    pipeline: Vec<Vec<(&'static str, f64)>>,
    rollback_ms: Vec<f64>,
    problems: Vec<String>,
}

impl<'a> Lab<'a> {
    fn new(w: &'a Workload, seed: u64) -> Self {
        let model = w.model(seed);
        let twin_opt = w.optimizer(&model);
        let mut recorded = w.train_loop(seed, true);
        recorded.attach_recorder(RunRecorder::new(Box::new(std::io::sink())));
        Lab {
            w,
            seed,
            spans: Spans::new(),
            run: Supervised::new(w, seed, true),
            plain: w.train_loop(seed, true),
            recorded,
            untraced: w.train_loop(seed, false),
            twin: PipelineTrainer::new(model, w.engine_config(true)).expect("valid workload"),
            twin_opt,
            twin_data: w.stream(seed),
            pipeline: Vec::new(),
            rollback_ms: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn problem(&mut self, step: u64, what: impl std::fmt::Display) {
        // Keep the first few: one broken step usually breaks all later ones.
        if self.problems.len() < 8 {
            self.problems.push(format!("step {step}: {what}"));
        }
    }

    /// Advances every copy by one training step.
    fn iteration(&mut self) {
        let clean = FaultPlan::new();
        let step = self.run.sup.train().step();

        // The real top of the stack. Named after what the step turned
        // out to contain, so clean steps can be told from the rest.
        let id = self.spans.open("recovery.step_with", None, step);
        self.run.step();
        self.spans.close(id);
        let recovery = self
            .run
            .sup
            .last_step_metrics()
            .map(|m| m.recovery)
            .unwrap_or_default();
        if recovery.retries > 0 {
            self.spans.all[id].name = "recovery.step_with+retry";
        } else if recovery.checkpoint_save_ns > 0 {
            self.spans.all[id].name = "recovery.step_with+save";
        }

        // The twin: the same step from public pieces.
        let id = self.spans.open("twin.step", None, step);
        let (x, t) = self.spans.time("data.next_batch", Some(id), step, || {
            self.twin_data.next_batch()
        });
        let (result, trace) = self.spans.time("pipeline.step", Some(id), step, || {
            self.twin.step_with_trace(&x, &t, &clean)
        });
        match (result, trace) {
            (Ok(out), Some(trace)) => {
                self.spans.time("optim.step", Some(id), step, || {
                    self.twin_opt.step(&mut self.twin.model, &out.grads)
                });
                self.spans.close(id);
                self.pipeline.push(pipeline_sample(&out, &trace));
            }
            (Err(e), _) => self.problem(step, format!("twin pipeline step failed: {e}")),
            (Ok(_), None) => self.problem(step, "twin pipeline step returned no trace"),
        }
        if self.twin.model != *self.run.sup.train().model() {
            self.problem(step, "twin model differs from the supervisor's");
        }

        // One layer below the supervisor, with the wasted attempt the
        // supervisor would have paid timed on its own.
        let fault = self.w.fault_plan(self.seed, step, 0);
        if !fault.is_empty() {
            let failed = self.spans.time("recovery.failed_attempt", None, step, || {
                self.plain.try_step(&fault)
            });
            if failed.is_ok() {
                self.problem(step, "the scheduled fault did not fail the attempt");
            }
            self.rollback_ms
                .push(self.plain.last_rollback_ns() as f64 / 1e6);
        }
        let loops = [
            ("recovery.try_step", &mut self.plain),
            ("runlog.try_step", &mut self.recorded),
            ("trace.untraced_try_step", &mut self.untraced),
        ];
        let mut failures = Vec::new();
        for (name, train) in loops {
            let result = self.spans.time(name, None, step, || train.try_step(&clean));
            failures.extend(result.err().map(|e| format!("{name} failed: {e}")));
        }
        for failure in failures {
            self.problem(step, failure);
        }
    }

    /// Per metric of [`pipeline_sample`], the median over the twin's steps.
    fn pipeline_medians(&self) -> Vec<(&'static str, f64)> {
        let Some(first) = self.pipeline.first() else {
            return Vec::new();
        };
        let column = |i: usize| self.pipeline.iter().map(|s| s[i].1).collect::<Vec<_>>();
        let names = first.iter().enumerate();
        names
            .map(|(i, (name, _))| (*name, median(&column(i))))
            .collect()
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// Median of `rep`'s own timings, ms, over as many repetitions as fit in
/// `budget` (three at least).
fn median_of(budget: Duration, mut rep: impl FnMut() -> Duration) -> f64 {
    let started = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < 3 || started.elapsed() < budget {
        ms.push(millis(rep()));
    }
    median(&ms)
}

/// A tensor of small non-zero values (no denormals, no zeros to skip).
fn filled(rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|i| ((i % 17) as f32 - 8.0) * 0.01 + 0.005);
    Tensor::from_vec(rows, cols, data.collect())
}

/// The layers below the pipeline, each called directly at the shapes the
/// workload drives them with. Returns `(metric, value)` pairs.
fn standalone(w: &Workload, seed: u64, budget: Duration) -> Vec<(&'static str, f64)> {
    let each = budget / 9;
    let rows = w.micro_rows(0);
    let width = w.dims[1];
    let gflops = |ms: f64| 2.0 * (rows * width * width) as f64 / (ms * 1e6);
    let mut out = Vec::new();

    // tensor: the three matmul kernels at micro-batch rows x width x width.
    let (x, weight, dy) = (
        filled(rows, width),
        filled(width, width),
        filled(rows, width),
    );
    let (mut y, mut dw) = (Tensor::zeros(rows, width), Tensor::zeros(width, width));
    let nn = median_of(each, || timed(|| x.matmul_into(&weight, &mut y)));
    let tn = median_of(each, || timed(|| x.matmul_tn_into(&dy, &mut dw)));
    let nt = median_of(each, || timed(|| dy.matmul_nt_into(&weight, &mut y)));
    out.push(("tensor.matmul_gflops", gflops(nn)));
    out.push(("tensor.matmul_tn_gflops", gflops(tn)));
    out.push(("tensor.matmul_nt_gflops", gflops(nt)));

    // layer: one micro-batch forward and backward through the whole model.
    let model = w.model(seed);
    let input = filled(rows, w.dims[0]);
    let mut ys: Vec<Tensor> = model
        .layers
        .iter()
        .map(|l| Tensor::zeros(rows, l.out_dim()))
        .collect();
    // dys[i] is the gradient arriving at layer i's output; dys[0] (the
    // gradient w.r.t. the input) is computed and dropped, as the engine does.
    let mut dys: Vec<Tensor> = w.dims.iter().map(|&d| Tensor::zeros(rows, d)).collect();
    let mut grads: Vec<DenseGrads> = model.layers.iter().map(DenseGrads::zeros_like).collect();
    let (mut fw_ms, mut bw_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while fw_ms.len() < 3 || started.elapsed() < 2 * each {
        fw_ms.push(millis(timed(|| {
            for (i, layer) in model.layers.iter().enumerate() {
                let (before, after) = ys.split_at_mut(i);
                layer.forward_into(before.last().unwrap_or(&input), &mut after[0]);
            }
        })));
        let last = dys.len() - 1;
        dys[last].data.fill(0.01);
        bw_ms.push(millis(timed(|| {
            for (i, layer) in model.layers.iter().enumerate().rev() {
                let (dx, dy) = dys.split_at_mut(i + 1);
                let layer_in = if i == 0 { &input } else { &ys[i - 1] };
                layer.backward_grads_into(layer_in, &ys[i], &mut dy[0], &mut dx[i], &mut grads[i]);
            }
        })));
    }
    out.push(("layer.fw_ms", median(&fw_ms)));
    out.push(("layer.bw_ms", median(&bw_ms)));

    // model: the plain baseline — one worker, the whole batch, then apply.
    let mut scratch = w.model(seed);
    let mut opt = w.optimizer(&scratch);
    let (bx, bt) = w.stream(seed).next_batch();
    let reference = median_of(each, || {
        timed(|| {
            let (_, g) = scratch.reference_grads_loss(&bx, &bt, w.micro_batches, LossKind::Mse);
            opt.step(&mut scratch, &g);
        })
    });
    out.push(("model.reference_step_ms", reference));

    // collectives: the ring at stage 0's flat-gradient length.
    let len: usize = w.stage_bounds[0]
        .clone()
        .map(|l| model.layers[l].num_params())
        .sum();
    let ring = |ranks: usize| {
        let mut buffers = vec![vec![0.0f32; len]; ranks];
        median_of(each, || {
            buffers.iter_mut().for_each(|b| b.fill(1.0));
            timed(|| allreduce_sum(&mut buffers))
        })
    };
    let gib_s = |ms: f64| (len * 4) as f64 / (1u64 << 30) as f64 / (ms / 1e3);
    out.push(("collectives.allreduce_ms", ring(w.replication[0])));
    out.push(("collectives.allreduce_gib_s_r2", gib_s(ring(2))));
    out.push(("collectives.allreduce_gib_s_r4", gib_s(ring(4))));
    out.push(("collectives.allreduce_gib_s_r8", gib_s(ring(8))));
    out
}

/// Where traced-run artifacts and suite results go: `benchmark/out/`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The per-layer run. Spends about `seconds`: warm-up, the standalone
/// layer measurements, then lock-stepped slices until the time is up.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut lab = Lab::new(w, seed);
    for _ in 0..w.warmup_steps {
        lab.iteration();
    }
    // Warm-up spans and samples are not measurements.
    lab.spans = Spans::new();
    lab.pipeline.clear();
    lab.rollback_ms.clear();

    let standalone = standalone(w, seed, Duration::from_secs_f64(seconds * 0.15));

    let before = lab.run.sup.metrics();
    let events_before = lab.run.sup.events().len();
    let mut steps = 0usize;
    let mut probes_ms = vec![reference_ms()];
    while steps == 0 || started.elapsed().as_secs_f64() < seconds {
        for _ in 0..w.slice_steps {
            lab.iteration();
        }
        steps += w.slice_steps;
        probes_ms.push(reference_ms());
    }
    let after = lab.run.sup.metrics();
    lab.problems.extend(lab.run.check_schedule_counts().err());

    let chain = lab.run.sup.checkpoint_chain();
    let resume_ms = if chain.is_empty() {
        0.0
    } else {
        let cfg = w.engine_config(true);
        median_of(Duration::ZERO, || {
            timed(|| {
                let resumed = TrainLoop::resume_chain(chain, cfg.clone());
                std::hint::black_box(resumed.is_ok());
            })
        })
    };
    let saves: Vec<(f64, f64)> = lab.run.sup.events()[events_before..]
        .iter()
        .filter_map(|e| match e.kind {
            RecoveryEventKind::CheckpointSaved { bytes, ns, .. } => {
                Some((ns as f64 / 1e6, bytes as f64))
            }
            _ => None,
        })
        .collect();

    let spans = &lab.spans;
    let per_100 = |count: usize| 100.0 * count as f64 / steps as f64;
    let retries = after.retries - before.retries;
    let step_with_all: f64 = [
        "recovery.step_with",
        "recovery.step_with+retry",
        "recovery.step_with+save",
    ]
    .iter()
    .map(|name| spans.durations(name).iter().sum::<f64>())
    .sum();
    let step_with = spans.p50("recovery.step_with");
    let try_step = spans.p50("recovery.try_step");
    let untraced = spans.p50("trace.untraced_try_step");
    let (data, pipeline, optim) = (
        spans.p50("data.next_batch"),
        spans.p50("pipeline.step"),
        spans.p50("optim.step"),
    );
    let sampled = lab.pipeline_medians();
    let sampled_value = |name: &str| {
        sampled
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |m| m.1)
    };
    let (makespan, busy) = (
        sampled_value("pipeline.makespan_ms"),
        sampled_value("pipeline.busy_ms"),
    );
    let reference_step = standalone
        .iter()
        .find(|(n, _)| *n == "model.reference_step_ms");
    let reference_step = reference_step.expect("measured by `standalone`").1;
    let save_ms = median(&saves.iter().map(|s| s.0).collect::<Vec<_>>());
    let save_total_ms = (after.checkpoint_save_ns - before.checkpoint_save_ns) as f64 / 1e6;

    let mut metrics = standalone;
    metrics.extend([
        ("data.next_batch_ms", data),
        ("pipeline.step_ms", pipeline),
        ("pipeline.outside_makespan_ms", pipeline - makespan),
        ("pipeline.compute_gflops", w.step_flops() / (busy * 1e6)),
        (
            "pipeline.speedup_vs_sequential",
            reference_step / (pipeline + optim),
        ),
    ]);
    metrics.extend(sampled.iter().copied());
    metrics.extend([
        ("optim.step_ms", optim),
        ("recovery.step_with_ms", step_with),
        ("recovery.try_step_ms", try_step),
        (
            "recovery.tx_overhead_ms",
            try_step - (data + pipeline + optim),
        ),
        ("recovery.supervisor_overhead_ms", step_with - try_step),
        (
            "recovery.failed_attempt_ms",
            spans.p50("recovery.failed_attempt"),
        ),
        ("recovery.rollback_ms", median(&lab.rollback_ms)),
        (
            "recovery.recovered_step_ms",
            spans.p50("recovery.step_with+retry"),
        ),
        ("recovery.retries", per_100(retries)),
        (
            "recovery.rollbacks",
            per_100(after.rollbacks - before.rollbacks),
        ),
        (
            "recovery.useful_attempt_ratio",
            steps as f64 / (steps + retries) as f64,
        ),
        ("checkpoint.save_ms", save_ms),
        ("checkpoint.saves", per_100(saves.len())),
        ("checkpoint.bytes", saves.last().map_or(0.0, |s| s.1)),
        ("checkpoint.stall_share", save_total_ms / step_with_all),
        ("checkpoint.resume_ms", resume_ms),
        (
            "runlog.record_overhead_ms",
            spans.p50("runlog.try_step") - try_step,
        ),
        (
            "trace.overhead_pct",
            100.0 * (try_step - untraced) / untraced,
        ),
        (
            "trace.ledger_residual_pct",
            median(&spans.self_time_pct("twin.step")),
        ),
        // Per-layer times are raw wall time; this is the host's speed
        // while they were taken (nominal: `hostclock::NOMINAL_MS`).
        ("host.reference_ms", median(&probes_ms)),
    ]);

    print_ledger(w, &metrics, spans.p50("twin.step"));
    let trace_path = out_dir().join(format!("{}-seed{seed}-spans.json", w.name));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&trace_path, spans.chrome_trace()));
    match written {
        Ok(()) => println!("harness spans: {}", trace_path.display()),
        // The artifact is a convenience; the run's numbers stand without it.
        Err(e) => eprintln!("warning: cannot write {}: {e}", trace_path.display()),
    }

    let failed = if lab.problems.is_empty() {
        lab.run.failed
    } else {
        lab.run.attempted
    };
    Outcome {
        correct: lab.problems.is_empty() && lab.run.failed == 0,
        attempted: lab.run.attempted,
        failed,
        metrics,
        detail: json::obj([
            ("traced_steps", Json::Num(steps as f64)),
            ("harness_spans", Json::Num(spans.all.len() as f64)),
            ("problems", json::arr(lab.problems.iter().map(json::text))),
        ]),
    }
}

/// The outside-in step ledger: wall-clock rows that nest (each level's
/// children and the part no child explains), then the CPU work inside
/// the pipeline step.
fn print_ledger(w: &Workload, metrics: &[(&'static str, f64)], twin_step: f64) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |m| m.1)
    };
    let step_with = get("recovery.step_with_ms");
    let row = |depth: usize, name: &str, ms: f64| {
        let label = format!("{}{name}", "  ".repeat(depth));
        println!(
            "  {label:<44} {ms:>10.4} ms {:>7.1}%",
            100.0 * ms / step_with
        );
    };
    println!(
        "ledger: {} — p50 wall time of one clean step, share of recovery.step_with",
        w.name
    );
    row(0, "recovery.step_with", step_with);
    row(
        1,
        "recovery.supervisor_overhead_ms",
        get("recovery.supervisor_overhead_ms"),
    );
    row(1, "recovery.try_step_ms", get("recovery.try_step_ms"));
    row(2, "recovery.tx_overhead_ms", get("recovery.tx_overhead_ms"));
    row(2, "data.next_batch_ms", get("data.next_batch_ms"));
    row(2, "pipeline.step_ms", get("pipeline.step_ms"));
    row(3, "pipeline.makespan_ms", get("pipeline.makespan_ms"));
    row(
        3,
        "pipeline.outside_makespan_ms",
        get("pipeline.outside_makespan_ms"),
    );
    row(2, "optim.step_ms", get("optim.step_ms"));
    let leaves = get("data.next_batch_ms") + get("pipeline.step_ms") + get("optim.step_ms");
    row(0, "sum of data + pipeline + optim", leaves);
    row(0, "twin step (the same three, one span)", twin_step);
    row(0, "residual (twin step - sum)", twin_step - leaves);
    println!(
        "  trace.ledger_residual_pct {:.3}% (median per-step self time of the twin step)",
        get("trace.ledger_residual_pct")
    );
    println!(
        "  CPU work inside pipeline.step (summed over {} workers):",
        get("pipeline.workers")
    );
    row(
        1,
        "pipeline.busy_ms (fw + bw compute)",
        get("pipeline.busy_ms"),
    );
    row(1, "pipeline.recv_wait_ms", get("pipeline.recv_wait_ms"));
    row(1, "pipeline.send_ms", get("pipeline.send_ms"));
    row(1, "pipeline.allreduce_ms", get("pipeline.allreduce_ms"));
    let standalone =
        (get("layer.fw_ms") + get("layer.bw_ms")) * (w.micro_batches * w.replication[0]) as f64;
    row(1, "layer.fw_ms + layer.bw_ms x micro-batches", standalone);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_part_no_child_covers() {
        let mut spans = Spans::new();
        let parent = spans.open("parent", None, 7);
        let child = spans.open("child", Some(parent), 7);
        spans.all[parent].start_ns = 0;
        spans.all[parent].end_ns = 1000;
        spans.all[child].start_ns = 100;
        spans.all[child].end_ns = 850;
        assert_eq!(spans.self_time_pct("parent"), vec![25.0]);
        assert_eq!(spans.self_time_pct("child"), vec![100.0]);
        assert_eq!(spans.durations("child"), vec![0.00075]);
        assert_eq!(spans.p50("absent"), 0.0);
        // The artifact carries ids, parents and step ids, and parses.
        let trace = crate::json::parse_json(&spans.chrome_trace()).unwrap();
        let Json::Arr(events) = trace else {
            panic!("not an array")
        };
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("step").and_then(Json::as_f64), Some(7.0));
        assert!(events[0].get("args").unwrap().get("parent").is_none());
    }
}
