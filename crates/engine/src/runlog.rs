//! Per-step run telemetry: a [`RunRecorder`] owned by the
//! [`crate::TrainLoop`] that feeds a [`MetricsRegistry`] and an
//! append-only JSONL [`RunLog`] after every successful training step.
//!
//! The recorder is strictly an observer: it never fails a step (sink
//! write errors are counted, not raised) and its steady-state cost is a
//! handful of array writes plus one buffered line write — zero heap
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
//! fraction falls below a configurable fraction of the median, the
//! BENCH_5 shape where stage 2 sat at 0.25 against 0.48/0.50).

use crate::trace::{RecoveryStepMetrics, StepMetrics};
use dapple_core::metrics::{
    straggler_stages, CounterId, GaugeId, HistogramId, MetricsRegistry, RunLog,
};
use std::io::Write;

/// Default straggler bar: flag a stage below 60% of the median stage
/// busy fraction.
pub const DEFAULT_STRAGGLER_FRACTION: f64 = 0.6;

/// Streams per-step telemetry to a JSONL sink and aggregates it in a
/// [`MetricsRegistry`]. Construct with [`RunRecorder::new`], attach via
/// [`crate::TrainLoop::attach_recorder`].
pub struct RunRecorder {
    log: RunLog<Box<dyn Write + Send>>,
    registry: MetricsRegistry,
    straggler_fraction: f64,
    write_errors: u64,

    c_steps: CounterId,
    c_samples: CounterId,
    c_pool_hits: CounterId,
    c_pool_misses: CounterId,
    c_rollbacks: CounterId,
    c_straggler_steps: CounterId,
    g_throughput: GaugeId,
    g_bubble: GaugeId,
    g_loss: GaugeId,
    h_step_ns: HistogramId,
    h_makespan_ns: HistogramId,
    h_channel_wait_ns: HistogramId,
    h_rollback_ns: HistogramId,

    busy: Vec<f64>,
    scratch: Vec<f64>,
    stragglers: Vec<usize>,
}

impl RunRecorder {
    /// A recorder writing JSON lines to `sink`.
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        let mut registry = MetricsRegistry::new();
        let c_steps = registry.counter("steps");
        let c_samples = registry.counter("samples");
        let c_pool_hits = registry.counter("pool_hits");
        let c_pool_misses = registry.counter("pool_misses");
        let c_rollbacks = registry.counter("rollbacks");
        let c_straggler_steps = registry.counter("straggler_steps");
        let g_throughput = registry.gauge("throughput_sps");
        let g_bubble = registry.gauge("bubble_ratio");
        let g_loss = registry.gauge("loss");
        let h_step_ns = registry.histogram("step_ns");
        let h_makespan_ns = registry.histogram("makespan_ns");
        let h_channel_wait_ns = registry.histogram("channel_wait_ns");
        let h_rollback_ns = registry.histogram("rollback_ns");
        RunRecorder {
            log: RunLog::new(sink),
            registry,
            straggler_fraction: DEFAULT_STRAGGLER_FRACTION,
            write_errors: 0,
            c_steps,
            c_samples,
            c_pool_hits,
            c_pool_misses,
            c_rollbacks,
            c_straggler_steps,
            g_throughput,
            g_bubble,
            g_loss,
            h_step_ns,
            h_makespan_ns,
            h_channel_wait_ns,
            h_rollback_ns,
            busy: Vec::new(),
            scratch: Vec::new(),
            stragglers: Vec::new(),
        }
    }

    /// Overrides the straggler bar (fraction of the median busy
    /// fraction below which a stage is flagged).
    pub fn with_straggler_fraction(mut self, fraction: f64) -> Self {
        self.straggler_fraction = fraction;
        self
    }

    /// The aggregated run metrics.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Records written to the JSONL sink.
    pub fn records(&self) -> u64 {
        self.log.records()
    }

    /// Sink writes that failed (telemetry never fails the step).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// End-of-run summary: the whole registry as one JSON object.
    pub fn summary_json(&self) -> String {
        self.registry.summary_json()
    }

    /// Consumes the recorder, returning registry and sink.
    pub fn into_parts(self) -> (MetricsRegistry, Box<dyn Write + Send>) {
        (self.registry, self.log.into_sink())
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
        self.registry.inc(self.c_steps, 1);
        self.registry.inc(self.c_samples, samples as u64);
        self.registry.inc(self.c_pool_hits, pool_hits);
        self.registry.inc(self.c_pool_misses, pool_misses);
        self.registry.inc(self.c_rollbacks, recovery.retries as u64);
        self.registry.set(self.g_throughput, throughput_sps);
        self.registry.set(self.g_loss, f64::from(loss));
        self.registry.observe(self.h_step_ns, wall_ns);
        if recovery.rollback_ns > 0 {
            self.registry
                .observe(self.h_rollback_ns, recovery.rollback_ns);
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
            self.registry.set(self.g_bubble, m.bubble_ratio);
            self.registry.observe(self.h_makespan_ns, m.makespan_ns);
            self.registry
                .observe(self.h_channel_wait_ns, m.channel_wait_ns());
            self.busy.clear();
            self.busy.extend(m.stages.iter().map(|s| s.busy_fraction));
            straggler_stages(
                &self.busy,
                self.straggler_fraction,
                &mut self.scratch,
                &mut self.stragglers,
            );
            if !self.stragglers.is_empty() {
                self.registry.inc(self.c_straggler_steps, 1);
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
