//! One benchmark run: one workload, one seed, one process.
//!
//! `--trace 0` is the end-to-end run — a closed loop with one client
//! (the training loop itself; every other thread is the engine's own)
//! driving `Supervisor::step_with` with engine tracing off. `--trace 1`
//! is the per-layer run in [`crate::layers`].

use crate::contract::{Contract, MetricDef};
use crate::hostclock::HostClock;
use crate::json::{self, Json};
use crate::stats;
use crate::workloads::{self, Workload, PERIOD};
use dapple::engine::{FaultPlan, LossKind, PipelineTrainer, Supervisor, TrainLoop};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed slices every run completes, however slow the host: the loss
/// trajectory is hashed and `final_loss` read at the end of these, at a
/// step index that is the same on every commit.
pub const MIN_SLICES: usize = 3;

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a run reports: the contract's result line plus everything else
/// worth keeping (`detail` goes into suite result files).
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub detail: Json,
}

/// A supervisor under the workload's fault schedule, counting
/// operations. One operation is one `Supervisor::step_with` call; it
/// fails if it returns `Err` or a non-finite loss. A fault the
/// supervisor recovers from is a retry, not a failure.
pub struct Supervised<'a> {
    workload: &'a Workload,
    seed: u64,
    pub sup: Supervisor,
    pub attempted: u64,
    pub failed: u64,
    /// Loss of every step so far (NaN for a failed one).
    pub losses: Vec<f32>,
}

impl<'a> Supervised<'a> {
    pub fn new(workload: &'a Workload, seed: u64, tracing: bool) -> Self {
        Supervised {
            workload,
            seed,
            sup: workload.supervisor(seed, tracing),
            attempted: 0,
            failed: 0,
            losses: Vec::new(),
        }
    }

    /// Runs one operation; returns its wall time.
    pub fn step(&mut self) -> Duration {
        let (workload, seed) = (self.workload, self.seed);
        let t0 = Instant::now();
        let result = self
            .sup
            .step_with(&mut |step, attempt| workload.fault_plan(seed, step, attempt));
        let wall = t0.elapsed();
        self.attempted += 1;
        match result {
            Ok(stats) if stats.loss.is_finite() => self.losses.push(stats.loss),
            _ => {
                self.failed += 1;
                self.losses.push(f32::NAN);
            }
        }
        wall
    }

    /// Retries and checkpoint saves must equal what the seeded schedule
    /// implies for the steps run so far.
    pub fn check_schedule_counts(&self) -> Result<(), String> {
        let steps = self.sup.train().step();
        let seen = self.sup.metrics();
        let want = (
            self.workload.expected_retries(steps),
            self.workload.expected_saves(steps),
        );
        if (seen.retries as u64, seen.checkpoint_saves as u64) == want {
            Ok(())
        } else {
            Err(format!(
                "after {steps} steps: {} retries / {} saves, schedule implies {} / {}",
                seen.retries, seen.checkpoint_saves, want.0, want.1
            ))
        }
    }
}

/// Step-0 pipeline gradients against the sequential reference, 1e-4
/// relative (L2 per tensor): the paper's "equivalent gradients" claim,
/// re-checked on every workload's own shape.
fn check_step0_gradients(w: &Workload, seed: u64) -> Result<(), String> {
    let model = w.model(seed);
    let (x, t) = w.stream(seed).next_batch();
    let (ref_loss, ref_grads) = model.reference_grads_loss(&x, &t, w.micro_batches, LossKind::Mse);
    let trainer = PipelineTrainer::new(model, w.engine_config(false)).map_err(|e| e.to_string())?;
    let (loss, grads) = trainer.step_grads(&x, &t).map_err(|e| e.to_string())?;
    let rel = |got: &[f32], want: &[f32]| {
        let diff: f64 = got
            .iter()
            .zip(want)
            .map(|(g, w)| f64::from(g - w).powi(2))
            .sum();
        let norm: f64 = want.iter().map(|w| f64::from(*w).powi(2)).sum();
        (diff / norm.max(f64::MIN_POSITIVE)).sqrt()
    };
    let mut worst = rel(&[loss], &[ref_loss]);
    for (g, r) in grads.iter().zip(&ref_grads) {
        worst = worst
            .max(rel(&g.dw.data, &r.dw.data))
            .max(rel(&g.db, &r.db));
    }
    if worst <= 1e-4 {
        Ok(())
    } else {
        Err(format!("step-0 gradients off the reference by {worst:e}"))
    }
}

/// Runs half a period past the last checkpoint, then resumes the chain
/// in a fresh loop and replays: model, optimizer and the last loss must
/// come back bit for bit.
fn check_resume_replay(run: &mut Supervised) -> Result<(), String> {
    for _ in 0..PERIOD / 2 {
        run.step();
    }
    let live = run.sup.train();
    let cfg = run.workload.engine_config(false);
    let mut resumed =
        TrainLoop::resume_chain(run.sup.checkpoint_chain(), cfg).map_err(|e| e.to_string())?;
    let mut replayed = 0;
    let mut last_loss = f32::NAN;
    while resumed.step() < live.step() {
        last_loss = resumed
            .try_step(&FaultPlan::new())
            .map_err(|e| e.to_string())?
            .loss;
        replayed += 1;
    }
    let same_loss = run.losses.last().map(|l| l.to_bits()) == Some(last_loss.to_bits());
    if replayed == 0 || !same_loss {
        return Err(format!(
            "replayed {replayed} steps to loss {last_loss}, live run differs"
        ));
    }
    if resumed.model() != live.model() || resumed.optimizer() != live.optimizer() {
        return Err("resumed state differs from the live run after replay".into());
    }
    Ok(())
}

/// The end-to-end run. Sets the workload up [`SETUPS`] times (each one
/// from scratch: model init, loop and supervisor construction, warm-up),
/// then measures the last instance for `seconds` of wall time, in whole
/// slices. Every set-up and slice is timed on the [`HostClock`].
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    min_slices: usize,
) -> Outcome {
    let mut problems: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut setup_s = Vec::new();
    let mut warmup_hashes = Vec::new();
    let mut run: Option<Supervised> = None;
    let mut clock = HostClock::start();
    let mut slowdowns = Vec::new();
    for _ in 0..setups {
        // Drop the previous instance first: peak memory is one instance.
        if let Some(old) = run.take() {
            attempted += old.attempted;
            failed += old.failed;
        }
        let t0 = Instant::now();
        let mut fresh = Supervised::new(w, seed, false);
        for _ in 0..w.warmup_steps {
            fresh.step();
        }
        let wall_s = t0.elapsed().as_secs_f64();
        slowdowns.push(clock.slowdown());
        setup_s.push(wall_s / slowdowns[slowdowns.len() - 1]);
        warmup_hashes.push(stats::trajectory_hash(&fresh.losses));
        run = Some(fresh);
    }
    let mut run = run.expect("at least one set-up");
    if warmup_hashes.iter().any(|h| *h != warmup_hashes[0]) {
        problems.push(format!(
            "warm-up trajectories differ across set-ups: {warmup_hashes:x?}"
        ));
    }

    let (mut step_ms, mut wall_step_ms) = (Vec::new(), Vec::new());
    let (mut slice_rates, mut wall_slice_rates) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while slice_rates.len() < min_slices || started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        for _ in 0..w.slice_steps {
            wall_step_ms.push(millis(run.step()));
        }
        let wall_rate = (w.slice_steps * w.batch) as f64 / t0.elapsed().as_secs_f64();
        let slowdown = clock.slowdown();
        let slice = &wall_step_ms[step_ms.len()..];
        step_ms.extend(slice.iter().map(|ms| ms / slowdown));
        slice_rates.push(wall_rate * slowdown);
        wall_slice_rates.push(wall_rate);
        slowdowns.push(slowdown);
    }
    let timed_s = started.elapsed().as_secs_f64();
    // Before the checks below, which build second copies of the state.
    let peak_rss_mib = stats::peak_rss_mib().unwrap_or_else(|| {
        problems.push("cannot read VmHWM from /proc/self/status".into());
        f64::NAN
    });

    let fixed_steps = w.warmup_steps + min_slices * w.slice_steps;
    let trajectory_hash = stats::trajectory_hash(&run.losses[..fixed_steps]);
    let final_loss = f64::from(run.losses[fixed_steps - 1]);
    let p95 = stats::percentile(&step_ms, 95.0, 10);

    problems.extend(check_step0_gradients(w, seed).err());
    problems.extend(run.check_schedule_counts().err());
    if w.recovery {
        problems.extend(check_resume_replay(&mut run).err());
        problems.extend(run.check_schedule_counts().err());
    }
    attempted += run.attempted;
    failed += run.failed;
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} steps failed"));
    }
    // A run whose outputs are wrong measured nothing worth keeping.
    if !problems.is_empty() {
        failed = attempted;
    }

    let metrics = vec![
        ("samples_per_s", stats::median(&slice_rates)),
        ("step_ms_p50", stats::median(&step_ms)),
        // Below 200 timed steps fewer than ten samples lie beyond p95;
        // the value is still printed, `p95_has_10_beyond` says so.
        (
            "step_ms_p95",
            p95.or(stats::percentile(&step_ms, 95.0, 0))
                .unwrap_or(f64::NAN),
        ),
        ("setup_s", stats::median(&setup_s)),
        ("peak_rss_mib", peak_rss_mib),
        ("final_loss", final_loss),
    ];
    let detail = json::obj([
        ("setup_s_each", json::nums(&setup_s)),
        ("slice_samples_per_s", json::nums(&slice_rates)),
        ("host_slowdown", Json::Num(stats::median(&slowdowns))),
        ("reference_probe_ms", json::nums(&clock.probes_ms)),
        (
            "wall_samples_per_s",
            Json::Num(stats::median(&wall_slice_rates)),
        ),
        ("wall_step_ms_p50", Json::Num(stats::median(&wall_step_ms))),
        ("timed_steps", Json::Num(step_ms.len() as f64)),
        ("timed_s", Json::Num(timed_s)),
        ("p95_has_10_beyond", Json::Bool(p95.is_some())),
        (
            "trajectory_hash",
            json::text(format!("{trajectory_hash:016x}")),
        ),
        ("trajectory_steps", Json::Num(fixed_steps as f64)),
        ("retries", Json::Num(run.sup.metrics().retries as f64)),
        (
            "checkpoint_saves",
            Json::Num(run.sup.metrics().checkpoint_saves as f64),
        ),
        ("problems", json::arr(problems.iter().map(json::text))),
    ]);
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// What the host and the workload were: provenance for a result line.
fn provenance(w: &Workload, seed: u64, trace: bool, smoke: bool) -> Vec<(&'static str, Json)> {
    let sizes = |v: &[usize]| json::arr(v.iter().map(|&d| Json::Num(d as f64)));
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", json::text(w.name)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(smoke)),
        ("nproc", Json::Num(threads as f64)),
        (
            "rayon_num_threads",
            std::env::var("RAYON_NUM_THREADS").map_or(Json::Null, json::text),
        ),
        (
            "avx512f",
            Json::Bool(std::arch::is_x86_feature_detected!("avx512f")),
        ),
        ("dims", sizes(&w.dims)),
        (
            "stages",
            json::arr(w.stage_bounds.iter().map(|r| sizes(&[r.start, r.end]))),
        ),
        ("replication", sizes(&w.replication)),
        ("schedule", json::text(format!("{:?}", w.schedule))),
        ("micro_batches", Json::Num(w.micro_batches as f64)),
        ("batch", Json::Num(w.batch as f64)),
        ("optimizer", json::text(if w.adam { "adam" } else { "sgd" })),
        ("params", Json::Num(w.params() as f64)),
        ("warmup_steps", Json::Num(w.warmup_steps as f64)),
        ("slice_steps", Json::Num(w.slice_steps as f64)),
    ]
}

/// Prints every metric by name with its unit, then the detail line, then
/// — last — the contract's result line.
fn report(defs: &[MetricDef], outcome: &Outcome, provenance: Vec<(&'static str, Json)>) {
    let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
    let listed: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, listed, "harness metrics and BENCHMARK.json disagree");
    for (def, (name, value)) in defs.iter().zip(&outcome.metrics) {
        let direction = if def.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = def
            .bound
            .map_or(String::new(), |b| format!(", bound {:.1}%", b * 100.0));
        println!(
            "{name:<36} {value:>16.6} {:<12} ({direction} is better{bound})",
            def.unit
        );
    }
    println!(
        "steps attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    let mut detail: Vec<(String, Json)> = provenance
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    if let Json::Obj(fields) = &outcome.detail {
        detail.extend(fields.iter().cloned());
    }
    println!("detail: {}", json::render(&json::obj(detail)));
    let metrics = defs
        .iter()
        .zip(&outcome.metrics)
        .map(|(def, (name, value))| {
            let entry = json::obj([
                ("value", Json::Num(*value)),
                ("unit", json::text(&def.unit)),
            ]);
            (*name, entry)
        });
    let line = json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", json::obj(metrics)),
    ]);
    println!("{}", json::render(&line));
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String], contract: &Contract) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (11, contract.run_seconds, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(workloads::by_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.0..=120.0).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = matches!(value.as_str(), "0" | "1")
                    .then(|| value == "1")
                    .ok_or_else(bad)?
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or_else(|| {
        let names: Vec<String> = contract.workloads.iter().map(|(n, _)| n.clone()).collect();
        format!("--workload <{}> is required", names.join("|"))
    })?;
    Ok(Args {
        workload: if smoke { workload.smoke() } else { workload },
        seed,
        seconds: if smoke { seconds.min(1.0) } else { seconds },
        trace,
        smoke,
    })
}

/// `--workload <name> [--seed n] [--seconds s] [--trace 0|1] [--smoke]`
pub fn cli(args: &[String]) -> ExitCode {
    let contract = Contract::load();
    let args = match parse_args(args, &contract) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let (setups, min_slices) = if args.smoke {
        (2, 1)
    } else {
        (SETUPS, MIN_SLICES)
    };
    let w = &args.workload;
    let (defs, outcome) = if args.trace {
        (
            &contract.per_layer,
            crate::layers::traced(w, args.seed, args.seconds),
        )
    } else {
        (
            &contract.end_to_end,
            end_to_end(w, args.seed, args.seconds, setups, min_slices),
        )
    };
    report(
        defs,
        &outcome,
        provenance(w, args.seed, args.trace, args.smoke),
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: output checks failed, see `problems` in the detail line");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_smoke_run_reports_every_end_to_end_metric_and_passes_its_checks() {
        let contract = Contract::load();
        let w = workloads::by_name("overhead_narrow").unwrap().smoke();
        let outcome = end_to_end(&w, 5, 0.0, 2, 1);
        assert!(outcome.correct, "{}", json::render(&outcome.detail));
        assert_eq!(outcome.failed, 0);
        assert_eq!(
            outcome.attempted as usize,
            2 * w.warmup_steps + w.slice_steps
        );
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        let listed: Vec<&str> = contract
            .end_to_end
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(names, listed);
        assert!(outcome
            .metrics
            .iter()
            .all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn a_traced_smoke_run_reports_every_per_layer_metric() {
        let contract = Contract::load();
        let w = workloads::by_name("overhead_narrow").unwrap().smoke();
        let outcome = crate::layers::traced(&w, 5, 0.2);
        assert!(outcome.correct, "{}", json::render(&outcome.detail));
        let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
        let listed: Vec<&str> = contract.per_layer.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, listed);
        assert!(outcome.metrics.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn a_run_that_misses_its_scheduled_faults_fails_the_count_check() {
        let w = workloads::by_name("recovery_adam").unwrap();
        let mut run = Supervised::new(&w, 5, false);
        // Drive the supervisor without the schedule: no fault ever fires.
        for _ in 0..6 {
            run.sup.step_with(&mut |_, _| FaultPlan::new()).unwrap();
        }
        let problem = run.check_schedule_counts().unwrap_err();
        assert!(
            problem.contains("0 retries / 0 saves, schedule implies 1 / 0"),
            "{problem}"
        );
        // The same steps under the schedule pass it.
        let mut run = Supervised::new(&w, 5, false);
        for _ in 0..6 {
            run.step();
        }
        assert_eq!((run.attempted, run.failed), (6, 0));
        run.check_schedule_counts().unwrap();
    }
}
