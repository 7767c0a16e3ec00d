//! Allocation accounting for the two per-iteration hot paths.
//!
//! The ring AllReduce is measured with a counting global allocator: its
//! allocation count must be bounded by the rank count (one circulating
//! scratch buffer per rank plus fixed wiring), not by the number of ring
//! messages — the seed implementation `to_vec`'d every chunk of every
//! step, costing `2 n (n-1)` extra allocations per call.
//!
//! The pipeline engine is measured through its own allocation-counter
//! hook (`StepOutcome::pool_misses`): boundary messages, the per-layer
//! forward chain, and the backward input gradients all circulate through per-trainer free lists, so fresh
//! allocations happen only during pipeline warmup and their count is
//! independent of the number of micro-batches.
//!
//! A byte counter beside the call counter pins the gradient path: the
//! accumulators, the replica reduce and the optimizer work in persistent
//! buffers, so the bytes a steady-state training step allocates do not
//! depend on how many parameters the model has.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts every heap allocation made by this test binary.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested by those allocations (a `realloc` counts its new size).
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Every test in this binary runs under this guard, measuring or not:
/// the counter is process-global, so an engine step running beside a
/// measured window lands in that window's count. The lock guards no
/// data, so a test that failed while holding it leaves nothing to
/// repair and the poison is dropped rather than cascaded.
fn measure() -> MutexGuard<'static, ()> {
    MEASURE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fewest allocations one call of `f` makes over `reps` calls. The lock
/// keeps other tests out, but not the test harness: its own threads
/// allocate when they report the previous test and spawn the next one,
/// and blocking receives allocate wakeup tokens nondeterministically.
/// Both only ever add, so the minimum is the deterministic floor.
fn min_allocs(reps: usize, f: impl FnMut()) -> usize {
    min_growth(&ALLOCS, reps, f)
}

/// [`min_allocs`] for any of the allocator's counters.
fn min_growth(counter: &AtomicUsize, reps: usize, mut f: impl FnMut()) -> usize {
    (0..reps)
        .map(|_| {
            let before = counter.load(Ordering::Relaxed);
            f();
            counter.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one repetition")
}

/// Allocations performed by one `allreduce_sum` call on `n` ranks of
/// `len` elements each (buffer construction excluded).
fn ring_allocs(n: usize, len: usize) -> usize {
    const REPS: usize = 3;
    let mut inputs: Vec<Vec<Vec<f32>>> = (0..REPS)
        .map(|_| {
            (0..n)
                .map(|r| (0..len).map(|i| (r * 31 + i) as f32 * 0.25).collect())
                .collect()
        })
        .collect();
    let expect: Vec<f32> = (0..len)
        .map(|i| (0..n).map(|r| (r * 31 + i) as f32 * 0.25).sum())
        .collect();
    let mut fresh = inputs.iter_mut();
    let used = min_allocs(REPS, || {
        dapple::collectives::allreduce_sum(fresh.next().expect("one input per repetition"));
    });
    // The measurement is only meaningful for a correct reduction.
    for b in inputs.iter().flatten() {
        for (got, want) in b.iter().zip(&expect) {
            assert!((got - want).abs() <= 1e-3 * want.abs().max(1.0));
        }
    }
    used
}

/// The ring's allocation count is bounded by the rank count — one
/// scratch buffer per rank plus fixed per-thread/per-channel wiring —
/// and in particular far below the seed's per-message `to_vec` cost of
/// `2 n (n-1)` extra allocations.
#[test]
fn ring_allreduce_allocations_bounded_by_ranks() {
    let _guard = measure();
    let n = 16;
    // Warm up lazy allocator state (thread-local caches etc.).
    let _ = ring_allocs(n, 64);
    let used = ring_allocs(n, 4096);
    // Per rank: 1 scratch + thread spawn + channel wiring + the cloned
    // bounds table. ~10/rank observed; 20/rank plus slack is generous
    // headroom yet far below the 2*16*15 = 480 per-message allocations
    // the seed code added on top.
    assert!(used < n * 20 + 60, "ring allreduce made {used} allocations");
}

/// The allocation count must not scale with the payload length: the
/// scratch buffer is preallocated at max-chunk capacity and never grows.
#[test]
fn ring_allreduce_allocations_independent_of_length() {
    let _guard = measure();
    let n = 8;
    let _ = ring_allocs(n, 64);
    let small = ring_allocs(n, 1024);
    let big = ring_allocs(n, 65536);
    let diff = small.abs_diff(big);
    assert!(
        diff <= n,
        "allocations scale with length: {small} vs {big} (diff {diff})"
    );
}

/// Runs one pipelined step and returns its outcome (with pool counters).
fn engine_step(micro_batches: usize) -> dapple::engine::StepOutcome {
    use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer};
    let dims = [5usize, 12, 10, 8, 8, 4, 3];
    let cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], micro_batches, 0.1);
    let trainer = PipelineTrainer::new(MlpModel::new(&dims, 77), cfg).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    trainer
        .step_with_trace(&x, &t, &FaultPlan::new())
        .0
        .unwrap()
}

/// Steady-state 1F1B boundary sends allocate nothing: pool misses are a
/// warmup-only cost, so tripling the micro-batch count leaves the miss
/// count unchanged while the hit count grows with the extra traffic.
#[test]
fn steady_state_pipeline_pool_misses_are_warmup_only() {
    let _guard = measure();
    let few = engine_step(4);
    let many = engine_step(12);
    assert!(few.pool_hits > 0, "the pool must actually recycle buffers");
    assert!(
        many.pool_hits > few.pool_hits,
        "hits must grow with traffic: {} vs {}",
        many.pool_hits,
        few.pool_hits
    );
    assert_eq!(
        few.pool_misses, many.pool_misses,
        "steady-state micro-batches must not allocate: {} misses at m=4, {} at m=12",
        few.pool_misses, many.pool_misses
    );
}

/// Allocations of one single-stage pipelined step on a warmed trainer.
#[allow(clippy::single_range_in_vec_init)] // a one-stage split really is vec![0..6]
fn single_stage_step_allocs(micro_batches: usize) -> usize {
    use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer};
    let dims = [5usize, 12, 10, 8, 8, 4, 3];
    let cfg = EngineConfig::straight(vec![0..6], micro_batches, 0.1);
    let trainer = PipelineTrainer::new(MlpModel::new(&dims, 77), cfg).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let plan = FaultPlan::new();
    trainer.step_with_trace(&x, &t, &plan).0.unwrap();
    min_allocs(5, || {
        trainer.step_with_trace(&x, &t, &plan).0.unwrap();
    })
}

/// The whole per-micro-batch compute path — forward chain, loss target
/// slice and gradient, and in particular the per-layer `dW`/`db`
/// parameter gradients — allocates nothing in steady state: tripling the
/// micro-batch count must not change a warmed single-stage step's
/// allocation count at all. Before `backward_grads_into`, every extra
/// micro-batch cost two fresh gradient tensors per layer (the `dW` hole
/// the TensorPool never covered), which here would show up as ≥100
/// extra allocations.
#[test]
fn steady_state_micro_batch_allocations_are_zero() {
    let _guard = measure();
    let few = single_stage_step_allocs(4);
    let many = single_stage_step_allocs(12);
    assert!(
        few.abs_diff(many) <= 4,
        "per-micro-batch work allocates: {few} allocs at m=4, {many} at m=12"
    );
}

/// Recording a span is a slot write into a log sized up front: exactly
/// zero heap allocations, even at overflow. This is the invariant that
/// lets workers trace the hot path without breaking the alloc-free
/// steady state — and with tracing off the engine skips even this.
#[test]
fn span_recording_allocates_nothing() {
    use dapple::engine::{Span, SpanKind, SpanLog};

    let _guard = measure();
    let mut log = SpanLog::new(64, std::time::Instant::now());
    // 64 in-capacity records, then overflowing ones. Many short windows:
    // this test usually starts the instant the previous one releases the
    // measuring lock, while the harness is still reporting that one and
    // spawning the next — a burst that can outlast a few 10 µs windows.
    const REPS: usize = 50;
    let used = min_allocs(REPS, || {
        for micro in 0..200u32 {
            let (kind, bytes, start_ns) = (SpanKind::Fw, 0, log.now_ns());
            let end_ns = log.now_ns();
            log.record(Span {
                kind,
                micro,
                bytes,
                start_ns,
                end_ns,
            });
        }
    });
    assert_eq!(used, 0, "span recording must not allocate");
    let trace = log.into_trace(0, 0, 0);
    assert_eq!(trace.spans.len(), 64);
    assert_eq!(trace.dropped, REPS * 200 - 64);
}

/// One pipelined step on a warmed trainer; returns its allocation count.
fn traced_step_allocs(micro_batches: usize, tracing: bool) -> usize {
    use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer};
    let dims = [5usize, 12, 10, 8, 8, 4, 3];
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], micro_batches, 0.1);
    cfg.tracing = tracing;
    let trainer = PipelineTrainer::new(MlpModel::new(&dims, 77), cfg).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let plan = FaultPlan::new();
    trainer.step_with_trace(&x, &t, &plan).0.unwrap();
    min_allocs(5, || {
        trainer.step_with_trace(&x, &t, &plan).0.unwrap();
    })
}

/// Steady-state run telemetry is allocation-free: the totals are plain
/// field writes and the JSONL line is rendered into one reused buffer.
/// Construction and the first few records may grow buffers to
/// working size; after that warmup, a thousand fully-populated records
/// (scalars + recovery costs + trace-derived schedule metrics) must not
/// touch the heap at all.
#[test]
fn metrics_recording_allocates_nothing_at_steady_state() {
    use dapple::engine::{
        data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer, RecoveryStepMetrics, RunRecorder,
    };

    let _guard = measure();

    // The full recorder path, including the trace-derived fields. A real
    // traced step supplies the StepMetrics (its derivation allocates;
    // that happens once, outside the measured region — the engine
    // re-derives per step only because tracing itself already allocates
    // its per-step snapshot).
    let dims = [5usize, 12, 10, 8, 8, 4, 3];
    let mut cfg = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, 0.1);
    cfg.tracing = true;
    let trainer = PipelineTrainer::new(MlpModel::new(&dims, 77), cfg).unwrap();
    let (x, t) = data::regression_batch(24, 5, 3, 9);
    let (_, trace) = trainer.step_with_trace(&x, &t, &FaultPlan::new());
    let metrics = trace.expect("tracing on").metrics();

    let mut rec = RunRecorder::new(Box::new(std::io::sink()));
    let recovery = RecoveryStepMetrics {
        retries: 1,
        rollback_ns: 12_345,
        checkpoint_save_ns: 6_789,
        ..Default::default()
    };
    // Warm up: line buffer and per-stage scratch reach working size.
    for step in 0..5u64 {
        rec.record_step(step, 0.5, 24, 1_000_000, 10, 2, &recovery, Some(&metrics));
    }
    let used = min_allocs(3, || {
        for step in 5..1_005u64 {
            rec.record_step(
                step,
                0.5 + step as f32,
                24,
                1_000_000 + step * 997,
                10,
                2,
                &recovery,
                Some(&metrics),
            );
        }
    });
    assert_eq!(used, 0, "steady-state record_step allocated {used} times");
    assert_eq!(rec.records(), 3_005);
    assert_eq!(rec.write_errors(), 0);
}

/// Fewest bytes one steady-state `TrainLoop::try_step` allocates on a
/// model with hidden layers `width` wide (batch, depth and the input and
/// output widths are fixed, so only the parameter count varies).
fn train_step_bytes(width: usize, hybrid: bool, adam: bool) -> usize {
    use dapple::engine::{DataStream, EngineConfig, FaultPlan, MlpModel, Optimizer, TrainLoop};
    let model = MlpModel::new(&[8, width, width, width, 4], 77);
    let mut cfg = if hybrid {
        EngineConfig::straight(vec![0..2, 2..4], 4, 0.05)
    } else {
        EngineConfig::straight(vec![0..1, 1..3, 3..4], 4, 0.05)
    };
    if hybrid {
        cfg.replication = vec![2, 2];
    }
    let optimizer = if adam {
        Optimizer::adam(0.01, &model)
    } else {
        Optimizer::sgd(0.05)
    };
    // The gradient accumulators are parameter-sized and persistent: the
    // first step allocates them, and the warm-up steps below absorb that.
    // (4 rows per micro-batch keeps every matmul under the kernels'
    // parallel gate at both widths, so the worker pool's per-job
    // allocation does not enter the comparison either.)
    let mut lp = TrainLoop::new(model, cfg, optimizer, DataStream::new(5, 16, 8, 4)).unwrap();
    let clean = FaultPlan::new();
    for _ in 0..3 {
        lp.try_step(&clean).expect("warm-up step");
    }
    min_growth(&BYTES, 5, || {
        lp.try_step(&clean).expect("measured step");
    })
}

/// A parallel matmul allocates O(1): the job it posts to the worker pool
/// and nothing per band or per thread — helpers are parked threads that
/// already exist, bands are claimed off a counter. 512 x 64 x 512 is 16
/// bands; a per-band allocation would show as 16 or more.
#[test]
fn a_parallel_matmul_allocates_a_small_constant() {
    use dapple::engine::Tensor;
    let _guard = measure();
    let a = Tensor::from_vec(512, 64, vec![0.5; 512 * 64]);
    let b = Tensor::from_vec(64, 512, vec![0.25; 64 * 512]);
    let mut out = Tensor::zeros(512, 512);
    // Warm-up: starts the pool's helpers and grows its job list.
    a.matmul_into(&b, &mut out);
    let used = min_allocs(5, || a.matmul_into(&b, &mut out));
    assert!(
        used <= 2,
        "an above-gate matmul_into made {used} allocations"
    );
    assert!(out.data.iter().all(|v| *v == 8.0));
}

/// The gradient path allocates nothing that scales with the model: a
/// steady-state training step — SGD or Adam, straight pipeline or
/// replicated stages — requests the same number of bytes for a model
/// with 16x the parameters, up to a fixed slack for the nondeterministic
/// small allocations of thread wake-ups. One parameter-sized buffer of
/// the wide model — a set of gradients, or of weights — would be
/// 500 KiB.
#[test]
fn train_step_bytes_do_not_scale_with_parameters() {
    let _guard = measure();
    const SLACK: usize = 4096;
    for hybrid in [false, true] {
        for adam in [false, true] {
            let narrow = train_step_bytes(64, hybrid, adam);
            let wide = train_step_bytes(256, hybrid, adam);
            assert!(
                narrow.abs_diff(wide) <= SLACK,
                "hybrid={hybrid} adam={adam}: a step allocates {narrow} bytes at width 64 \
                 but {wide} at width 256"
            );
        }
    }
}

/// A reconfiguration (replica drop, elastic migration) rebuilds the
/// workers' scratch around the model where it lies — no weight-sized
/// allocation, the same weight buffers — and a configuration it rejects
/// leaves the loop as usable as before.
#[test]
fn reconfigure_rebuilds_around_the_model_in_place() {
    use dapple::engine::{DataStream, EngineConfig, FaultPlan, MlpModel, Optimizer, TrainLoop};
    let _guard = measure();
    let model = MlpModel::new(&[8, 256, 256, 256, 4], 77);
    let params = 4 * model.num_params();
    let cfg = EngineConfig::straight(vec![0..1, 1..3, 3..4], 4, 0.05);
    let stream = DataStream::new(5, 16, 8, 4);
    let mut lp = TrainLoop::new(model, cfg.clone(), Optimizer::sgd(0.05), stream).unwrap();
    let clean = FaultPlan::new();
    lp.try_step(&clean).expect("first step");
    let weights_at = lp.model().layers[1].packed_weights().values().as_ptr();

    let mut uncovered = cfg.clone();
    uncovered.stage_bounds.pop();
    uncovered.replication.pop();
    assert!(lp.reconfigure(uncovered).is_err());
    assert_eq!(lp.config().stage_bounds, cfg.stage_bounds);
    lp.try_step(&clean).expect("step after a rejected config");

    let mut merged = cfg.clone();
    merged.stage_bounds = vec![0..2, 2..4];
    merged.replication = vec![1, 1];
    let mut shapes = [merged, cfg].into_iter().cycle();
    let bytes = min_growth(&BYTES, 4, || {
        lp.reconfigure(shapes.next().unwrap()).unwrap()
    });
    assert!(
        bytes < params / 10,
        "a reconfiguration allocated {bytes} bytes beside {params} bytes of parameters"
    );
    let weights = lp.model().layers[1].packed_weights();
    assert_eq!(weights.values().as_ptr(), weights_at);
    lp.try_step(&clean).expect("step in the new shape");
}

/// What a straight pipeline's trainer owns that scales with the model is
/// one parameter-sized buffer, the workers' gradient accumulators: the
/// layers hold their weights in the kernels' layout, so a step packs
/// nothing, and no per-micro-batch contribution buffer exists, because
/// the kernels add into the accumulators directly. Counted as the fewest
/// bytes a trainer allocates from its construction through its first two
/// steps, over three trainers: every persistent buffer it will ever own.
#[test]
fn a_trainer_owns_one_parameter_sized_buffer_per_worker() {
    use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, PipelineTrainer};
    let _guard = measure();
    let width = 256;
    let mut models: Vec<MlpModel> = (0..3)
        .map(|_| MlpModel::new(&[8, width, width, width, 4], 77))
        .collect();
    let params = 4 * models[0].num_params();
    let (x, t) = data::regression_batch(16, 8, 4, 9);
    let bytes = min_growth(&BYTES, 3, || {
        let cfg = EngineConfig::straight(vec![0..1, 1..3, 3..4], 4, 0.05);
        let model = models.pop().expect("one model per repetition");
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        for _ in 0..2 {
            trainer
                .step_with_trace(&x, &t, &FaultPlan::new())
                .0
                .unwrap();
        }
    });
    // Half a parameter set of slack covers the activation pools, channels
    // and thread bookkeeping; a second parameter-sized buffer does not fit.
    assert!(
        bytes < params + params / 2,
        "a trainer allocates {bytes} bytes for {params} bytes of parameters"
    );
}

/// Tracing's allocation overhead is a per-step constant — the rings and
/// the post-join snapshot — and does not grow with the micro-batch count,
/// because recording itself is allocation-free (see above). Tripling the
/// span traffic must not move the traced-minus-untraced delta by more
/// than scheduling noise.
#[test]
fn tracing_alloc_overhead_independent_of_micro_batches() {
    let _guard = measure();
    let delta_few = traced_step_allocs(4, true) as i64 - traced_step_allocs(4, false) as i64;
    let delta_many = traced_step_allocs(12, true) as i64 - traced_step_allocs(12, false) as i64;
    // m=12 records ~100 more spans than m=4; if recording allocated even
    // once per span the deltas would diverge by that much.
    assert!(
        (delta_many - delta_few).abs() <= 40,
        "tracing alloc overhead scales with micro-batches: \
         {delta_few} extra allocs at m=4, {delta_many} at m=12"
    );
}
