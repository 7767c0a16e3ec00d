//! Per-step run telemetry: a [`RunRecorder`] owned by the
//! [`crate::TrainLoop`] that keeps the run's totals and writes an
//! append-only JSONL [`RunLog`] after every successful training step.
//!
//! The recorder is strictly an observer: it never fails a step (sink
//! write errors are counted, not raised) and its steady-state cost is a
//! handful of field writes plus one buffered line write — zero heap
//! allocation once the line buffer and per-stage scratch vectors reach
//! their working size (asserted in `tests/alloc_counts.rs`).
//!
//! Each JSONL record carries the always-available scalars (step, loss,
//! samples, wall time, throughput, buffer-pool hit/miss counters) plus
//! the recovery costs accumulated since the last successful step
//! (rollbacks, checkpoint save/load time — charged by the
//! [`crate::Supervisor`]), and, when [`crate::EngineConfig::tracing`] is
//! on, the trace-derived schedule metrics: makespan, bubble ratio,
//! channel wait, per-stage busy fractions and the straggler flag
//! ([`dapple_core::metrics::straggler_stages`] — a stage whose busy
//! fraction falls below a fraction of the median, the BENCH_5 shape
//! where stage 2 sat at 0.25 against 0.48/0.50).

use crate::trace::{RecoveryStepMetrics, StepMetrics};
use dapple_core::json::Object;
use dapple_core::metrics::{straggler_stages, Histogram, RunLog};
use std::io::Write;

/// The straggler bar: flag a stage below 60% of the median stage busy
/// fraction.
pub const DEFAULT_STRAGGLER_FRACTION: f64 = 0.6;

/// What a run adds up to: counters, last values and latency histograms,
/// in the order [`RunRecorder::summary_json`] reports them.
#[derive(Default)]
struct Totals {
    steps: u64,
    samples: u64,
    pool_hits: u64,
    pool_misses: u64,
    rollbacks: u64,
    straggler_steps: u64,
    throughput_sps: f64,
    bubble_ratio: f64,
    loss: f64,
    step_ns: Histogram,
    makespan_ns: Histogram,
    channel_wait_ns: Histogram,
    rollback_ns: Histogram,
}

/// Streams per-step telemetry to a JSONL sink and keeps the run's totals.
/// Construct with [`RunRecorder::new`], attach via
/// [`crate::TrainLoop::attach_recorder`].
pub struct RunRecorder {
    log: RunLog<Box<dyn Write + Send>>,
    totals: Totals,
    write_errors: u64,

    busy: Vec<f64>,
    scratch: Vec<f64>,
    stragglers: Vec<usize>,
}

impl RunRecorder {
    /// A recorder writing JSON lines to `sink`.
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        RunRecorder {
            log: RunLog::new(sink),
            totals: Totals::default(),
            write_errors: 0,
            busy: Vec::new(),
            scratch: Vec::new(),
            stragglers: Vec::new(),
        }
    }

    /// Records written to the JSONL sink.
    pub fn records(&self) -> u64 {
        self.log.records()
    }

    /// Sink writes that failed (telemetry never fails the step).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// End-of-run summary, one JSON object: counters as integers, last
    /// values as numbers, histograms as
    /// `{count, sum, min, max, mean, p50, p95, p99}`. Allocates (call it
    /// at run end, not per step).
    pub fn summary_json(&self) -> String {
        let t = &self.totals;
        let mut s = String::new();
        let mut o = Object::new(&mut s)
            .spaced()
            .u64("steps", t.steps)
            .u64("samples", t.samples)
            .u64("pool_hits", t.pool_hits)
            .u64("pool_misses", t.pool_misses)
            .u64("rollbacks", t.rollbacks)
            .u64("straggler_steps", t.straggler_steps)
            .f64("throughput_sps", t.throughput_sps)
            .f64("bubble_ratio", t.bubble_ratio)
            .f64("loss", t.loss);
        for (name, h) in [
            ("step_ns", &t.step_ns),
            ("makespan_ns", &t.makespan_ns),
            ("channel_wait_ns", &t.channel_wait_ns),
            ("rollback_ns", &t.rollback_ns),
        ] {
            o = o.object(name, |o| {
                o.u64("count", h.count())
                    .u64("sum", h.sum())
                    .u64("min", h.min())
                    .u64("max", h.max())
                    .f64("mean", h.mean())
                    .u64("p50", h.percentile(0.50))
                    .u64("p95", h.percentile(0.95))
                    .u64("p99", h.percentile(0.99))
            });
        }
        o.end();
        s.push('\n');
        s
    }

    /// Feeds one successful step. Called by
    /// [`crate::TrainLoop::try_step`]; `recovery` is everything charged
    /// since the previous successful step, `metrics` is present iff
    /// tracing is on. Allocation-free at steady state.
    #[allow(clippy::too_many_arguments)]
    pub fn record_step(
        &mut self,
        step: u64,
        loss: f32,
        samples: usize,
        wall_ns: u64,
        pool_hits: u64,
        pool_misses: u64,
        recovery: &RecoveryStepMetrics,
        metrics: Option<&StepMetrics>,
    ) {
        let throughput_sps = if wall_ns > 0 {
            samples as f64 * 1e9 / wall_ns as f64
        } else {
            0.0
        };
        let totals = &mut self.totals;
        totals.steps += 1;
        totals.samples += samples as u64;
        totals.pool_hits += pool_hits;
        totals.pool_misses += pool_misses;
        totals.rollbacks += recovery.retries as u64;
        totals.throughput_sps = throughput_sps;
        totals.loss = f64::from(loss);
        totals.step_ns.record(wall_ns);
        if recovery.rollback_ns > 0 {
            totals.rollback_ns.record(recovery.rollback_ns);
        }

        let mut line = self
            .log
            .line()
            .u64("step", step)
            .f64("loss", f64::from(loss))
            .u64("samples", samples as u64)
            .u64("wall_ns", wall_ns)
            .f64("throughput_sps", throughput_sps)
            .u64("pool_hits", pool_hits)
            .u64("pool_misses", pool_misses)
            .u64("retries", recovery.retries as u64)
            .u64("rollback_ns", recovery.rollback_ns)
            .u64("checkpoint_save_ns", recovery.checkpoint_save_ns)
            .u64("checkpoint_load_ns", recovery.checkpoint_load_ns)
            .u64("migration_ns", recovery.migration_ns);

        if let Some(m) = metrics {
            totals.bubble_ratio = m.bubble_ratio;
            totals.makespan_ns.record(m.makespan_ns);
            totals.channel_wait_ns.record(m.channel_wait_ns());
            self.busy.clear();
            self.busy.extend(m.stages.iter().map(|s| s.busy_fraction));
            straggler_stages(
                &self.busy,
                DEFAULT_STRAGGLER_FRACTION,
                &mut self.scratch,
                &mut self.stragglers,
            );
            if !self.stragglers.is_empty() {
                totals.straggler_steps += 1;
            }
            line = line
                .u64("makespan_ns", m.makespan_ns)
                .f64("bubble_ratio", m.bubble_ratio)
                .u64("channel_wait_ns", m.channel_wait_ns())
                .f64_slice("stage_busy_fraction", &self.busy)
                .usize_slice("stragglers", &self.stragglers)
                .bool("straggler", !self.stragglers.is_empty());
        }
        if line.end().is_err() {
            self.write_errors += 1;
        }
    }
}

impl std::fmt::Debug for RunRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunRecorder")
            .field("records", &self.records())
            .field("write_errors", &self.write_errors)
            .finish()
    }
}
