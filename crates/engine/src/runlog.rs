//! Per-step run telemetry: a [`RunRecorder`] owned by the
//! [`crate::TrainLoop`] that writes one append-only JSONL line after every
//! successful training step. The lines are the run's whole record: a
//! run-long figure (total samples, retries, a latency percentile) is read
//! from them, exactly.
//!
//! The recorder is strictly an observer: it never fails a step (sink
//! write errors are counted, not raised) and its steady-state cost is one
//! line written into a reused buffer plus one `write_all` — zero heap
//! allocation once the line buffer and per-stage scratch vectors reach
//! their working size (asserted in `tests/alloc_counts.rs`).
//!
//! Each JSONL record carries the always-available scalars (step, loss,
//! samples, wall time, throughput, buffer-pool hit/miss counters) plus
//! the recovery costs accumulated since the last successful step
//! (failed attempts, rollback, checkpoint save/load and migration time —
//! charged by the [`crate::Supervisor`]), and, when
//! [`crate::EngineConfig::tracing`] is on, the trace-derived schedule
//! metrics: makespan, bubble ratio, channel wait, per-stage busy fractions
//! and the straggler flag (a stage whose busy fraction falls below a
//! fraction of the median, the BENCH_5 shape where stage 2 sat at 0.25
//! against 0.48/0.50).

use crate::trace::{RecoveryStepMetrics, StepMetrics};
use dapple_core::json::Object;
use std::io::Write;

/// The straggler bar: flag a stage below 60% of the median stage busy
/// fraction.
pub const DEFAULT_STRAGGLER_FRACTION: f64 = 0.6;

/// Streams per-step telemetry to a JSONL sink, one line per
/// [`RunRecorder::record_step`].
///
/// Attach it to a loop, run, and take it back:
///
/// ```
/// use dapple_engine::{DataStream, EngineConfig, MlpModel, Optimizer, RunRecorder, TrainLoop};
///
/// let model = MlpModel::new(&[5, 12, 10, 3], 41);
/// let cfg = EngineConfig::straight(vec![0..2, 2..3], 4, 0.1);
/// let stream = DataStream::new(11, 24, 5, 3);
/// let mut lp = TrainLoop::new(model, cfg, Optimizer::sgd(0.1), stream).unwrap();
/// lp.attach_recorder(RunRecorder::new(Box::new(std::io::sink())));
/// lp.run(3).unwrap();
/// let rec = lp.take_recorder().unwrap();
/// assert_eq!(rec.records(), 3);
/// assert_eq!(rec.write_errors(), 0);
/// ```
pub struct RunRecorder {
    sink: Box<dyn Write + Send>,
    /// The line under construction, reused from record to record.
    line: String,
    records: u64,
    write_errors: u64,

    busy: Vec<f64>,
    scratch: Vec<f64>,
    stragglers: Vec<usize>,
}

impl RunRecorder {
    /// A recorder writing JSON lines to `sink`.
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        RunRecorder {
            sink,
            line: String::with_capacity(512),
            records: 0,
            write_errors: 0,
            busy: Vec::new(),
            scratch: Vec::new(),
            stragglers: Vec::new(),
        }
    }

    /// Records written to the JSONL sink.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Sink writes that failed (telemetry never fails the step).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
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
        self.line.clear();
        let mut line = Object::new(&mut self.line)
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
            self.busy.clear();
            self.busy.extend(m.stages.iter().map(|s| s.busy_fraction));
            straggler_stages(
                &self.busy,
                DEFAULT_STRAGGLER_FRACTION,
                &mut self.scratch,
                &mut self.stragglers,
            );
            line = line
                .u64("makespan_ns", m.makespan_ns)
                .f64("bubble_ratio", m.bubble_ratio)
                .u64("channel_wait_ns", m.channel_wait_ns())
                .f64_slice("stage_busy_fraction", &self.busy)
                .usize_slice("stragglers", &self.stragglers)
                .bool("straggler", !self.stragglers.is_empty());
        }
        line.end();
        self.line.push('\n');
        self.records += 1;
        if self.sink.write_all(self.line.as_bytes()).is_err() {
            self.write_errors += 1;
        }
    }
}

impl std::fmt::Debug for RunRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunRecorder")
            .field("records", &self.records)
            .field("write_errors", &self.write_errors)
            .finish()
    }
}

/// Flags straggler stages: indices whose busy fraction falls below
/// `fraction` of the median busy fraction. `scratch` and `out` are
/// caller-owned so repeated calls allocate nothing once their capacity
/// covers the stage count; `out` is cleared and refilled.
///
/// The median of an even count is the lower-middle element — a
/// deterministic choice that never manufactures a value absent from the
/// input. Stages with a non-finite busy fraction are treated as 0 (fully
/// idle) and therefore flagged whenever any healthy stage is busy.
fn straggler_stages(
    busy_fractions: &[f64],
    fraction: f64,
    scratch: &mut Vec<f64>,
    out: &mut Vec<usize>,
) {
    out.clear();
    if busy_fractions.len() < 2 {
        return;
    }
    scratch.clear();
    scratch.extend(
        busy_fractions
            .iter()
            .map(|&b| if b.is_finite() { b } else { 0.0 }),
    );
    scratch.sort_unstable_by(f64::total_cmp);
    let median = scratch[(scratch.len() - 1) / 2];
    // A non-positive (or NaN) bar means the median stage did no work —
    // nothing meaningful to flag against.
    let bar = fraction * median;
    if bar.is_nan() || bar <= 0.0 {
        return;
    }
    for (i, &b) in busy_fractions.iter().enumerate() {
        let b = if b.is_finite() { b } else { 0.0 };
        if b < bar {
            out.push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StageMetrics;
    use std::sync::{Arc, Mutex};

    /// A sink the test reads back while the recorder still holds it.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_traced_step_is_one_exact_line() {
        let sink = Shared::default();
        let mut rec = RunRecorder::new(Box::new(sink.clone()));
        // BENCH_5's shape: stage 2 sits at 0.25 against 0.48/0.50.
        let stage = |stage, busy_fraction, comm_wait_ns| StageMetrics {
            stage,
            replicas: 1,
            comm_wait_ns,
            busy_fraction,
            ..StageMetrics::default()
        };
        let metrics = StepMetrics {
            makespan_ns: 1_500_000,
            bubble_ratio: 0.25,
            stages: vec![
                stage(0, 0.476163, 100),
                stage(1, 0.495678, 20),
                stage(2, 0.251198, 3),
            ],
            recovery: RecoveryStepMetrics::default(),
        };
        let recovery = RecoveryStepMetrics {
            retries: 1,
            rollback_ns: 12_345,
            checkpoint_save_ns: 6_789,
            ..Default::default()
        };
        rec.record_step(7, 0.5, 24, 2_000_000, 10, 2, &recovery, Some(&metrics));
        rec.record_step(8, 0.25, 24, 0, 0, 0, &RecoveryStepMetrics::default(), None);
        assert_eq!(rec.records(), 2);
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            text,
            "{\"step\":7,\"loss\":0.500000,\"samples\":24,\"wall_ns\":2000000,\
             \"throughput_sps\":12000.000000,\"pool_hits\":10,\"pool_misses\":2,\
             \"retries\":1,\"rollback_ns\":12345,\"checkpoint_save_ns\":6789,\
             \"checkpoint_load_ns\":0,\"migration_ns\":0,\"makespan_ns\":1500000,\
             \"bubble_ratio\":0.250000,\"channel_wait_ns\":123,\
             \"stage_busy_fraction\":[0.476163,0.495678,0.251198],\"stragglers\":[2],\
             \"straggler\":true}\n\
             {\"step\":8,\"loss\":0.250000,\"samples\":24,\"wall_ns\":0,\
             \"throughput_sps\":0.000000,\"pool_hits\":0,\"pool_misses\":0,\
             \"retries\":0,\"rollback_ns\":0,\"checkpoint_save_ns\":0,\
             \"checkpoint_load_ns\":0,\"migration_ns\":0}\n"
        );
    }

    #[test]
    fn straggler_flags_below_fraction_of_median() {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        // BENCH_5's shape: stage 2 sits at 0.25 vs 0.48/0.50.
        let bench5 = [0.476163, 0.495678, 0.251198];
        straggler_stages(&bench5, 0.6, &mut scratch, &mut out);
        assert_eq!(out, vec![2]);
        // A lower bar tolerates the imbalance.
        straggler_stages(&bench5, 0.4, &mut scratch, &mut out);
        assert!(out.is_empty());
        // All-even pipeline: nothing flagged.
        straggler_stages(&[0.5, 0.5, 0.5], 0.6, &mut scratch, &mut out);
        assert!(out.is_empty());
        // Degenerate inputs flag nothing.
        straggler_stages(&[0.5], 0.6, &mut scratch, &mut out);
        assert!(out.is_empty());
        straggler_stages(&[0.0, 0.0], 0.6, &mut scratch, &mut out);
        assert!(out.is_empty());
        // NaN busy fractions count as idle, never as the median bar.
        straggler_stages(&[f64::NAN, 0.5, 0.5], 0.6, &mut scratch, &mut out);
        assert_eq!(out, vec![0]);
    }
}
