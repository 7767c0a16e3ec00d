//! Runtime tracing for the threaded 1F1B engine.
//!
//! Each stage-replica worker has a [`SpanLog`] — a `Vec<Span>` sized
//! before the first micro-batch, owned by the thread that runs the worker
//! — and writes to it through a plain `&mut`: recording a span is one
//! bounds check and one slot write, never a heap allocation
//! (`tests/alloc_counts.rs`), and a span that does not fit is dropped and
//! counted. The thread hands its workers' logs back at the join, whether
//! they finished, failed or panicked, and the coordinator collects the
//! logs into a [`StepTrace`], which renders as a Chrome Trace Event JSON
//! timeline (via [`dapple_core::chrome`]) and derives per-stage
//! busy/bubble/backpressure metrics ([`StepMetrics`]).
//!
//! Busy and bubble are per worker, whichever thread ran it. Workers that
//! share a thread ([`WorkerTrace::thread`]) take turns on it, so a
//! worker's idle time includes the compute of its co-located neighbours.
//!
//! Timestamps are monotonic nanoseconds relative to a per-step epoch
//! (`Instant` taken before the step packs its weights, ahead of the
//! workers; [`SpanKind::Pack`]), so spans from different
//! threads share one clock and predicted-vs-actual comparisons can align
//! the measured timeline with the simulator's.

use dapple_core::chrome::{chrome_trace_json, ChromeArg, ChromeEvent};
use dapple_core::phase::{PhaseSplit, PhaseTag};
use std::time::Instant;

/// Sentinel for spans not tied to a micro-batch (AllReduce).
pub const NO_MICRO: u32 = u32::MAX;

/// What a recorded span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Forward compute of one micro-batch on one stage replica.
    Fw,
    /// Backward compute of one micro-batch.
    Bw,
    /// Activation re-materialization before a backward (recompute mode).
    Recompute,
    /// Copying/moving a boundary message into its channel.
    CommSend,
    /// Blocked waiting for boundary input (channel backpressure).
    CommRecvWait,
    /// The reduce of a replicated stage's gradients across its replicas
    /// (the arithmetic only, not the wait for the replicas to arrive).
    AllReduce,
    /// The step's prelude: every layer's weights packed for the kernels
    /// before any worker starts (one whole-model span per step; `bytes`
    /// is the bytes packed). It precedes the pipeline, so it counts
    /// toward neither the makespan nor a phase.
    Pack,
}

impl SpanKind {
    /// Category string for Chrome trace export.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Fw => "forward",
            SpanKind::Bw => "backward",
            SpanKind::Recompute => "recompute",
            SpanKind::CommSend | SpanKind::CommRecvWait => "comm",
            SpanKind::AllReduce => "allreduce",
            SpanKind::Pack => "pack",
        }
    }

    /// Phase classification for warmup/steady/tail splitting. Only plain
    /// forwards count as `Forward` (recompute happens inside the backward
    /// drain), matching how the simulator tags its tasks.
    pub fn phase_tag(self) -> PhaseTag {
        match self {
            SpanKind::Fw => PhaseTag::Forward,
            SpanKind::Bw => PhaseTag::Backward,
            _ => PhaseTag::Other,
        }
    }
}

/// One recorded span: epoch-relative monotonic nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Micro-batch index, or [`NO_MICRO`].
    pub micro: u32,
    /// Payload bytes moved (comm/AllReduce spans; 0 for compute).
    pub bytes: u64,
    /// Span start, ns since the step epoch.
    pub start_ns: u64,
    /// Span end, ns since the step epoch.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One worker's spans for one step, owned by the worker's thread.
///
/// The storage is allocated up front and never grows: a span past the
/// capacity is dropped and counted, so recording never allocates.
pub struct SpanLog {
    spans: Vec<Span>,
    dropped: usize,
    epoch: Instant,
}

impl SpanLog {
    /// A log with room for `capacity` spans, timed against `epoch`.
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        SpanLog {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
            epoch,
        }
    }

    /// Nanoseconds since the step epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one span, or counts it as dropped when the log is full.
    #[inline]
    pub fn record(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// The finished log as the trace of worker `(stage, replica)`, run on
    /// the step's thread `thread`.
    pub fn into_trace(self, stage: usize, replica: usize, thread: usize) -> WorkerTrace {
        WorkerTrace {
            stage,
            replica,
            thread,
            spans: self.spans,
            dropped: self.dropped,
        }
    }
}

/// The spans one stage-replica worker recorded during a step.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Stage index.
    pub stage: usize,
    /// Replica index within the stage.
    pub replica: usize,
    /// The step thread that ran this worker, beside any others placed on
    /// it ([`crate::PipelineTrainer::threads`]).
    pub thread: usize,
    /// Recorded spans in program order.
    pub spans: Vec<Span>,
    /// Spans that did not fit the log (0 unless it was undersized).
    pub dropped: usize,
}

/// A stage-level span (a stage's gradient AllReduce, timed by its
/// reducing worker) or a whole-model one (the step's [`SpanKind::Pack`]).
#[derive(Debug, Clone, Copy)]
pub struct CoordSpan {
    /// Stage the span belongs to; `None` for whole-model spans.
    pub stage: Option<usize>,
    /// The span itself.
    pub span: Span,
}

/// The full measured timeline of one pipelined step.
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Per-worker spans, in spawn order (stage-major, replica-minor).
    pub workers: Vec<WorkerTrace>,
    /// The step's pack, then the stage-level spans (one AllReduce per
    /// replicated stage, in stage order).
    pub coord: Vec<CoordSpan>,
    /// Replication factor per stage (fixes the Chrome `tid` layout).
    pub replication: Vec<usize>,
}

impl StepTrace {
    pub(crate) fn new(replication: Vec<usize>) -> Self {
        StepTrace {
            workers: Vec::new(),
            coord: Vec::new(),
            replication,
        }
    }

    /// The pipeline's spans with their stage attribution: all but the
    /// pack that precedes it.
    fn all_spans(&self) -> impl Iterator<Item = (Option<usize>, Span)> + '_ {
        self.workers
            .iter()
            .flat_map(|w| w.spans.iter().map(move |s| (Some(w.stage), *s)))
            .chain(self.coord.iter().map(|c| (c.stage, c.span)))
            .filter(|(_, s)| s.kind != SpanKind::Pack)
    }

    /// Total spans that did not fit their logs, across all workers.
    pub fn dropped_spans(&self) -> usize {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Renders the measured timeline as Chrome Trace Event JSON.
    ///
    /// Layout: `pid` = stage (coordinator spans without a stage go on
    /// `pid` = number of stages), and within a stage each replica owns two
    /// `tid` rows — `2r` for compute, `2r + 1` for communication — so
    /// multi-replica stages don't overdraw one row. Stage-level AllReduce
    /// spans take the row after the last replica pair. A worker's events
    /// carry the thread that ran it in `args.thread`.
    pub fn to_chrome_trace(&self) -> String {
        let num_stages = self.replication.len();
        let mut events: Vec<ChromeEvent> = Vec::new();
        for w in &self.workers {
            for s in &w.spans {
                events.push(self.event_for(Some(w.stage), w.replica, Some(w.thread), *s));
            }
        }
        for c in &self.coord {
            let mut e = self.event_for(c.stage, 0, None, c.span);
            e.pid = c.stage.unwrap_or(num_stages);
            // Stage-level coordinator spans take the row after the last
            // replica pair; whole-model spans own row 0 of their pid.
            e.tid = match c.stage {
                Some(stage) => 2 * self.replication.get(stage).copied().unwrap_or(1),
                None => 0,
            };
            events.push(e);
        }
        chrome_trace_json(events)
    }

    fn event_for(
        &self,
        stage: Option<usize>,
        replica: usize,
        thread: Option<usize>,
        s: Span,
    ) -> ChromeEvent {
        let micro_name = if s.micro == NO_MICRO {
            String::new()
        } else {
            s.micro.to_string()
        };
        let (name, comm_row) = match s.kind {
            SpanKind::Fw => (format!("F{micro_name}"), false),
            SpanKind::Bw => (format!("B{micro_name}"), false),
            SpanKind::Recompute => (format!("RC{micro_name}"), false),
            SpanKind::CommSend => (format!("send{micro_name}"), true),
            SpanKind::CommRecvWait => (format!("recv-wait{micro_name}"), true),
            SpanKind::AllReduce => ("AllReduce".to_string(), false),
            SpanKind::Pack => ("pack".to_string(), false),
        };
        let mut args = vec![("replica", ChromeArg::Int(replica as u64))];
        args.extend(thread.map(|t| ("thread", ChromeArg::Int(t as u64))));
        if s.micro != NO_MICRO {
            args.push(("micro", ChromeArg::Int(u64::from(s.micro))));
        }
        if s.bytes > 0 {
            args.push(("bytes", ChromeArg::Int(s.bytes)));
        }
        ChromeEvent {
            name,
            cat: s.kind.category(),
            ts_us: s.start_ns as f64 / 1e3,
            dur_us: s.dur_ns() as f64 / 1e3,
            pid: stage.unwrap_or(self.replication.len()),
            tid: 2 * replica + usize::from(comm_row),
            args,
        }
    }

    /// Warmup/steady/tail split of the measured timeline, µs.
    pub fn phase_split(&self) -> PhaseSplit {
        PhaseSplit::from_spans(self.all_spans().map(|(_, s)| {
            (
                s.kind.phase_tag(),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            )
        }))
    }

    /// Derives per-step metrics from the recorded spans.
    pub fn metrics(&self) -> StepMetrics {
        let num_stages = self.replication.len();
        let mut t0 = u64::MAX;
        let mut t_end = 0u64;
        let mut stages: Vec<StageMetrics> = (0..num_stages)
            .map(|i| StageMetrics {
                stage: i,
                replicas: self.replication[i],
                ..StageMetrics::default()
            })
            .collect();
        for (stage, s) in self.all_spans() {
            t0 = t0.min(s.start_ns);
            t_end = t_end.max(s.end_ns);
            let Some(stage) = stage else { continue };
            let m = &mut stages[stage];
            match s.kind {
                SpanKind::Fw | SpanKind::Bw | SpanKind::Recompute => m.busy_ns += s.dur_ns(),
                SpanKind::CommRecvWait => m.comm_wait_ns += s.dur_ns(),
                SpanKind::CommSend => m.send_ns += s.dur_ns(),
                SpanKind::AllReduce => m.allreduce_ns += s.dur_ns(),
                SpanKind::Pack => {}
            }
        }
        let makespan_ns = t_end.saturating_sub(if t0 == u64::MAX { 0 } else { t0 });
        for m in &mut stages {
            let denom = makespan_ns.max(1) as f64 * m.replicas.max(1) as f64;
            // `denom >= 1`: a stage with no spans (its worker died before
            // its first) reads as idle, never NaN.
            m.busy_fraction = (m.busy_ns as f64 / denom).min(1.0);
            m.bubble_ratio = 1.0 - m.busy_fraction;
        }
        // Aggregate bubble via the shared definition in `dapple_core::phase`
        // (mean per-stage idle share, per-replica busy time, occupancy
        // capped at 1) — the simulator's `SimResult::bubble_ratio` uses the
        // same helper, which is what makes predicted-vs-measured bubble
        // comparisons meaningful.
        let busy_us: Vec<f64> = stages
            .iter()
            .map(|m| m.busy_ns as f64 / 1e3 / m.replicas.max(1) as f64)
            .collect();
        StepMetrics {
            makespan_ns,
            bubble_ratio: dapple_core::phase::bubble_ratio(&busy_us, makespan_ns as f64 / 1e3),
            stages,
            recovery: RecoveryStepMetrics::default(),
        }
    }
}

/// Per-stage time accounting, summed over the stage's replicas.
#[derive(Debug, Clone, Default)]
pub struct StageMetrics {
    /// Stage index.
    pub stage: usize,
    /// Replica count.
    pub replicas: usize,
    /// Compute time (forward + backward + recompute), ns.
    pub busy_ns: u64,
    /// Time blocked on boundary receives (backpressure), ns.
    pub comm_wait_ns: u64,
    /// Time spent copying/moving boundary messages out, ns.
    pub send_ns: u64,
    /// Gradient AllReduce wall time, ns.
    pub allreduce_ns: u64,
    /// `busy_ns / (replicas * makespan)` — per-replica compute occupancy.
    pub busy_fraction: f64,
    /// `1 - busy_fraction`.
    pub bubble_ratio: f64,
}

/// Metrics of one measured step.
#[derive(Debug, Clone)]
pub struct StepMetrics {
    /// Timeline length (last span end − first span start), ns: the
    /// pipeline's, from its first op, so the step's pack is not in it.
    pub makespan_ns: u64,
    /// Mean per-stage bubble ratio.
    pub bubble_ratio: f64,
    /// Per-stage accounting.
    pub stages: Vec<StageMetrics>,
    /// Recovery costs attributed to this step by the supervisor
    /// (`engine::recovery`); all-zero when the step never faulted.
    pub recovery: RecoveryStepMetrics,
}

impl StepMetrics {
    /// Total time blocked on boundary receives, summed over stages, ns.
    pub fn channel_wait_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.comm_wait_ns).sum()
    }

    /// Total compute time, summed over stages, ns.
    pub fn busy_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.busy_ns).sum()
    }
}

/// Recovery costs the supervisor charged to one training step. Filled by
/// [`crate::recovery::Supervisor::last_step_metrics`]; the trace itself
/// only ever sees the final successful attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStepMetrics {
    /// Failed attempts, each rolled back.
    pub retries: usize,
    /// Wall-clock time spent rewinding failed attempts, ns (a rewind is
    /// the data cursor only, so this can legitimately be 0).
    pub rollback_ns: u64,
    /// Wall-clock time serializing checkpoints after this step, ns.
    pub checkpoint_save_ns: u64,
    /// Wall-clock time deserializing checkpoints into this loop, ns.
    pub checkpoint_load_ns: u64,
    /// Wall-clock time spent migrating to a re-planned pipeline (save,
    /// teardown, rebuild, resume), ns. Non-zero only on the step where an
    /// elastic repartition landed.
    pub migration_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, micro: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            micro,
            bytes: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn log_records_in_order_and_counts_overflow() {
        let mut log = SpanLog::new(2, Instant::now());
        for i in 0..3 {
            log.record(span(SpanKind::Fw, i, 0, 1));
        }
        let trace = log.into_trace(0, 0, 0);
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].micro, 0);
        assert_eq!(trace.spans[1].micro, 1);
        assert_eq!(trace.dropped, 1);
    }

    fn trace_fixture() -> StepTrace {
        let mut t = StepTrace::new(vec![1, 1]);
        t.workers.push(WorkerTrace {
            stage: 0,
            replica: 0,
            thread: 0,
            spans: vec![
                span(SpanKind::Fw, 0, 0, 100),
                span(SpanKind::CommSend, 0, 100, 110),
                span(SpanKind::CommRecvWait, 0, 110, 300),
                span(SpanKind::Bw, 0, 300, 500),
            ],
            dropped: 0,
        });
        t.workers.push(WorkerTrace {
            stage: 1,
            replica: 0,
            thread: 0,
            spans: vec![
                span(SpanKind::CommRecvWait, 0, 0, 110),
                span(SpanKind::Fw, 0, 110, 200),
                span(SpanKind::Bw, 0, 200, 290),
                span(SpanKind::CommSend, 0, 290, 300),
            ],
            dropped: 0,
        });
        t
    }

    #[test]
    fn metrics_account_busy_wait_and_bubbles() {
        let m = trace_fixture().metrics();
        assert_eq!(m.makespan_ns, 500);
        assert_eq!(m.stages[0].busy_ns, 300);
        assert_eq!(m.stages[0].comm_wait_ns, 190);
        assert_eq!(m.stages[0].send_ns, 10);
        assert_eq!(m.stages[1].busy_ns, 180);
        assert!((m.stages[0].busy_fraction - 0.6).abs() < 1e-12);
        assert!((m.bubble_ratio - (0.4 + 1.0 - 0.36) / 2.0).abs() < 1e-12);
    }

    /// The aggregate bubble ratio is exactly the shared
    /// `dapple_core::phase::bubble_ratio` over per-replica busy times — the
    /// same definition the simulator reports, so the validation table's
    /// predicted and measured bubbles are comparable by construction.
    #[test]
    fn bubble_ratio_matches_shared_core_definition() {
        let m = trace_fixture().metrics();
        let busy_us: Vec<f64> = m
            .stages
            .iter()
            .map(|s| s.busy_ns as f64 / 1e3 / s.replicas.max(1) as f64)
            .collect();
        let shared = dapple_core::phase::bubble_ratio(&busy_us, m.makespan_ns as f64 / 1e3);
        assert_eq!(m.bubble_ratio, shared);
    }

    /// Regression guard for faulted partial traces: stages that recorded
    /// no spans at all (their worker died before its first span, or
    /// never started) must report finite, sensible occupancy — fully
    /// idle, never NaN — and the aggregate bubble must stay finite even
    /// when the whole trace is empty.
    #[test]
    fn zero_span_stages_report_finite_idle_metrics() {
        // One live stage out of three.
        let mut t = StepTrace::new(vec![1, 2, 1]);
        t.workers.push(WorkerTrace {
            stage: 0,
            replica: 0,
            thread: 0,
            spans: vec![span(SpanKind::Fw, 0, 0, 100)],
            dropped: 0,
        });
        let m = t.metrics();
        assert_eq!(m.makespan_ns, 100);
        for s in &m.stages {
            assert!(s.busy_fraction.is_finite(), "stage {} NaN busy", s.stage);
            assert!(s.bubble_ratio.is_finite(), "stage {} NaN bubble", s.stage);
        }
        assert_eq!(m.stages[1].busy_fraction, 0.0);
        assert_eq!(m.stages[1].bubble_ratio, 1.0);
        assert_eq!(m.stages[2].busy_fraction, 0.0);
        assert!(m.bubble_ratio.is_finite());

        // Entirely empty trace (every worker died pre-span).
        let empty = StepTrace::new(vec![1, 1]);
        let m = empty.metrics();
        assert_eq!(m.makespan_ns, 0);
        assert!(m.bubble_ratio.is_finite());
        for s in &m.stages {
            assert_eq!(s.busy_fraction, 0.0);
            assert_eq!(s.bubble_ratio, 1.0);
        }
        assert_eq!(m.channel_wait_ns(), 0);
        assert_eq!(m.busy_ns(), 0);
    }

    #[test]
    fn phase_split_totals_makespan() {
        let p = trace_fixture().phase_split();
        // First backward starts at 200 ns = 0.2 µs; last forward ends at
        // 200 ns; tail runs to 500 ns.
        assert!((p.warmup_us - 0.2).abs() < 1e-12);
        assert_eq!(p.steady_us, 0.0);
        assert!((p.tail_us - 0.3).abs() < 1e-12);
        assert!((p.total_us() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chrome_export_routes_rows_and_args() {
        let mut t = trace_fixture();
        let span = Span {
            kind: SpanKind::AllReduce,
            micro: NO_MICRO,
            bytes: 4096,
            start_ns: 0,
            end_ns: 0,
        };
        let stage = Some(1);
        t.coord.push(CoordSpan { stage, span });
        let json = t.to_chrome_trace();
        assert!(json.contains(r#""name":"F0""#));
        assert!(json.contains(r#""name":"recv-wait0""#));
        assert!(json.contains(r#""cat":"comm""#));
        // Comm spans sit on the odd tid row.
        assert!(json.contains(r#""tid":1"#));
        assert!(json.contains(r#""args":{"replica":0,"thread":0,"micro":0}"#));
        assert!(json.contains(r#""bytes":4096"#));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// The step's pack is exported on the whole-model row, but it is no
    /// part of the pipeline's timeline: neither the makespan nor a phase.
    #[test]
    fn the_pack_is_exported_but_outside_the_makespan() {
        let mut t = trace_fixture();
        let (makespan, phases) = (t.metrics().makespan_ns, t.phase_split().total_us());
        let span = Span {
            kind: SpanKind::Pack,
            micro: NO_MICRO,
            bytes: 1 << 20,
            start_ns: 0,
            end_ns: 2_000,
        };
        t.coord.push(CoordSpan { stage: None, span });
        assert_eq!(t.metrics().makespan_ns, makespan);
        assert_eq!(t.phase_split().total_us(), phases);
        let json = t.to_chrome_trace();
        assert!(json.contains(r#""name":"pack","cat":"pack","ph":"X""#));
        assert!(json.contains(r#""pid":2,"tid":0"#));
        assert!(json.contains(r#""bytes":1048576"#));
    }
}
