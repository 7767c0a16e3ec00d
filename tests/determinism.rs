//! Property: with an empty fault plan the pipeline runtime is bit-exact
//! deterministic. For random stage splits, replication factors,
//! micro-batch counts, schedules and in-flight caps, repeated steps on
//! the same trainer produce bit-identical losses and gradients — the
//! bits of a reference that shares no code with the engine: public layer
//! ops, a fresh allocation per tensor, the channel ring.
//!
//! This rests on the kernels' canonical accumulation order (see
//! `crates/engine/src/tensor.rs` docs and `tests/kernel_reference.rs`):
//! every matmul variant accumulates one ascending fused chain per output
//! element regardless of tiling, SIMD width or thread count, so the
//! pipeline's numerics cannot drift with `RAYON_NUM_THREADS` — CI runs
//! this suite at pool sizes 1, 3, 8 and the default to pin that.

use dapple::collectives::{allreduce_sum, reduce_sum_in_place};
use dapple::engine::layer::DenseGrads;
use dapple::engine::loss::loss_grad_into;
use dapple::engine::{
    data, Dense, EngineConfig, FaultPlan, MlpModel, Optimizer, PipelineTrainer, StepOutcome, Tensor,
};
use dapple::sim::{KPolicy, Schedule};
use proptest::prelude::*;

const DIMS: [usize; 7] = [5, 12, 10, 8, 8, 4, 3];
const BATCH: usize = 24;

/// Stage splits of the 6-layer model, from trivial to one-layer head.
#[allow(clippy::single_range_in_vec_init)] // a one-stage split really is vec![0..6]
fn splits(idx: usize) -> Vec<std::ops::Range<usize>> {
    match idx {
        0 => vec![0..6],
        1 => vec![0..2, 2..6],
        2 => vec![0..3, 3..6],
        3 => vec![0..2, 2..4, 4..6],
        _ => vec![0..1, 1..4, 4..6],
    }
}

/// Builds the randomized engine config shared by the properties below.
fn build_cfg(
    split_idx: usize,
    micro_idx: usize,
    rep_bits: u64,
    sched_idx: usize,
    recompute_bit: usize,
    flight_idx: usize,
) -> EngineConfig {
    let stage_bounds = splits(split_idx);
    let micro_batches = [1usize, 2, 3, 4, 6, 8][micro_idx];
    let rows_per_micro = BATCH / micro_batches;
    // Replicate a stage 2-ways only when the micro-batch splits evenly.
    let replication: Vec<usize> = (0..stage_bounds.len())
        .map(|i| {
            if rows_per_micro.is_multiple_of(2) && rep_bits & (1 << i) != 0 {
                2
            } else {
                1
            }
        })
        .collect();
    let mut cfg = EngineConfig::straight(stage_bounds, micro_batches, 0.1);
    cfg.replication = replication;
    cfg.schedule = [
        Schedule::GPipe,
        Schedule::Dapple(KPolicy::PA),
        Schedule::Dapple(KPolicy::PB),
    ][sched_idx];
    cfg.recompute = recompute_bit == 1;
    cfg.max_in_flight = [1, 2, usize::MAX][flight_idx];
    cfg
}

/// One clean step, its gradients on loan.
fn clean_step(trainer: &PipelineTrainer, x: &Tensor, t: &Tensor) -> StepOutcome {
    trainer.step_with_trace(x, t, &FaultPlan::new()).0.unwrap()
}

/// Tracing observes the same determinism the numerics do: two identical
/// traced runs record the same spans in the same per-worker order —
/// timestamps differ (wall clock), the event *structure* must not.
#[test]
fn traced_runs_have_identical_event_order() {
    let event_orders = || {
        let mut cfg = build_cfg(3, 3, 0b10, 1, 0, 2);
        cfg.tracing = true;
        let trainer = PipelineTrainer::new(MlpModel::new(&DIMS, 77), cfg).unwrap();
        let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);
        let (result, trace) = trainer.step_with_trace(&x, &t, &FaultPlan::new());
        result.unwrap();
        trace
            .expect("tracing on")
            .workers
            .iter()
            .map(|w| {
                (
                    w.stage,
                    w.replica,
                    w.spans
                        .iter()
                        .map(|s| (s.kind, s.micro, s.bytes))
                        .collect::<Vec<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let a = event_orders();
    let b = event_orders();
    assert!(!a.is_empty() && a.iter().all(|(_, _, spans)| !spans.is_empty()));
    assert_eq!(a, b, "event order must not depend on thread timing");
}

/// Order-sensitive data: magnitudes that absorb and cancel, so summing
/// the ranks in any association but the ring's changes the bits.
fn rank_values(rank: usize, len: usize) -> Vec<f32> {
    const PALETTE: [f32; 6] = [1e8, 1.0, -1e8, 3e-7, -0.75, 16_777_217.0];
    let mut state = (rank as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            PALETTE[(state >> 33) as usize % PALETTE.len()]
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The in-place ordered reduce is the ring AllReduce, bit for bit: for
/// every rank count 1..=8 and lengths around the chunking edge cases
/// (empty chunks, one element per chunk, a ragged last chunk, a large odd
/// length), with the flat index space cut into segments at points that
/// fall inside chunks, on chunk boundaries and on empty segments — the
/// `dW`/`db` boundaries of a real gradient set.
#[test]
fn in_place_reduce_is_the_ring_bit_for_bit() {
    let mut order_sensitive = false;
    for n in 1..=8usize {
        for len in [0, 1, n - 1, n, n + 1, 1_000_003] {
            let ranks: Vec<Vec<f32>> = (0..n).map(|r| rank_values(r, len)).collect();
            let mut ring = ranks.clone();
            allreduce_sum(&mut ring);
            if n >= 3 {
                let naive: Vec<f32> = (0..len)
                    .map(|j| ranks.iter().fold(0.0f32, |acc, b| acc + b[j]))
                    .collect();
                order_sensitive |= bits(&naive) != bits(&ring[0]);
            }
            let cuts: [&[usize]; 5] = [
                &[],
                &[len / 3],
                &[len / n, len / n],
                &[1.min(len), len / 2, len - len / 7],
                &[0, len],
            ];
            for cuts in cuts {
                let split = |buf: &[f32]| -> Vec<Vec<f32>> {
                    let mut at = 0usize;
                    let mut segs: Vec<Vec<f32>> = cuts
                        .iter()
                        .map(|&c| {
                            let seg = buf[at..c.max(at)].to_vec();
                            at = c.max(at);
                            seg
                        })
                        .collect();
                    segs.push(buf[at..].to_vec());
                    segs
                };
                let mut first = split(&ranks[0]);
                let rest: Vec<Vec<Vec<f32>>> = ranks[1..].iter().map(|b| split(b)).collect();
                {
                    let mut first: Vec<&mut [f32]> =
                        first.iter_mut().map(Vec::as_mut_slice).collect();
                    let rest: Vec<Vec<&[f32]>> = rest
                        .iter()
                        .map(|segs| segs.iter().map(Vec::as_slice).collect())
                        .collect();
                    reduce_sum_in_place(&mut first, &rest);
                }
                assert_eq!(
                    bits(&first.concat()),
                    bits(&ring[0]),
                    "{n} ranks, length {len}, cuts {cuts:?}"
                );
            }
        }
    }
    assert!(
        order_sensitive,
        "the data must tell the ring's order from rank order"
    );
}

/// Micro-batch-local rows of replica `rep` out of `r` (the first
/// `mb % r` replicas take one extra row) — the engine's split rule.
fn replica_rows(mb: usize, r: usize, rep: usize) -> std::ops::Range<usize> {
    let (w, rem) = (mb / r, mb % r);
    let start = rep * w + rep.min(rem);
    start..start + w + usize::from(rep < rem)
}

fn rows_of(t: &Tensor, rows: std::ops::Range<usize>) -> Tensor {
    Tensor::from_vec(
        rows.len(),
        t.cols,
        t.data[rows.start * t.cols..rows.end * t.cols].to_vec(),
    )
}

/// The reference the engine's pooled buffers, kernel epilogues and
/// in-worker reduce are pinned against: a step from public
/// layer ops only, with a fresh allocation for every tensor. Every replica
/// accumulates its row share of each micro-batch (and, on the last
/// stage, of the loss) in the order the schedule retires backwards: GPipe
/// drains newest first, 1F1B oldest first. Then per stage the replicas'
/// gradients are flattened (`dW‖db` per layer), ring-AllReduced, and
/// replica 0's buffer is unflattened into layer slots. Returns the loss
/// and the per-layer gradients.
fn flatten_ring_unflatten(
    model: &MlpModel,
    x: &Tensor,
    t: &Tensor,
    cfg: &EngineConfig,
) -> (f32, Vec<DenseGrads>) {
    let (n, m) = (x.rows, cfg.micro_batches);
    let mb = n / m;
    let backward_order: Vec<usize> = match cfg.schedule {
        Schedule::GPipe => (0..m).rev().collect(),
        Schedule::Dapple(_) => (0..m).collect(),
    };
    let last_stage_replicas = *cfg.replication.last().unwrap();
    let mut losses = vec![0.0f32; last_stage_replicas];
    let zeros = |layers: &std::ops::Range<usize>| -> Vec<DenseGrads> {
        model.layers[layers.clone()]
            .iter()
            .map(DenseGrads::zeros_like)
            .collect()
    };
    // acc[stage][replica][layer within the stage]
    let mut acc: Vec<Vec<Vec<DenseGrads>>> = cfg
        .stage_bounds
        .iter()
        .zip(&cfg.replication)
        .map(|(layers, &r)| (0..r).map(|_| zeros(layers)).collect())
        .collect();
    for u in backward_order {
        let input = rows_of(x, u * mb..(u + 1) * mb);
        let target = rows_of(t, u * mb..(u + 1) * mb);
        let mut ys: Vec<Tensor> = Vec::new();
        for layer in &model.layers {
            let y = layer.forward(ys.last().unwrap_or(&input));
            ys.push(y);
        }
        let pred = ys.last().unwrap();
        for (rep, loss) in losses.iter_mut().enumerate() {
            let rows = replica_rows(mb, last_stage_replicas, rep);
            let mut unused = Tensor::zeros(rows.len(), pred.cols);
            *loss += loss_grad_into(
                cfg.loss,
                &rows_of(pred, rows.clone()),
                &rows_of(&target, rows),
                n,
                &mut unused,
            );
        }
        let mut dy = Tensor::zeros(pred.rows, pred.cols);
        loss_grad_into(cfg.loss, pred, &target, n, &mut dy);
        for (stage, layers) in cfg.stage_bounds.iter().enumerate().rev() {
            for l in layers.clone().rev() {
                let layer = &model.layers[l];
                let layer_in = if l == 0 { &input } else { &ys[l - 1] };
                for (rep, acc) in acc[stage].iter_mut().enumerate() {
                    let rows = replica_rows(mb, cfg.replication[stage], rep);
                    let mut dy_p = rows_of(&dy, rows.clone());
                    let mut dx_p = Tensor::zeros(rows.len(), layer.in_dim());
                    let mut contrib = DenseGrads::zeros_like(layer);
                    layer.backward_grads_into(
                        &rows_of(layer_in, rows.clone()),
                        &rows_of(&ys[l], rows),
                        &mut dy_p,
                        &mut dx_p,
                        &mut contrib,
                    );
                    acc[l - layers.start].accumulate(&contrib);
                }
                let mut dx = Tensor::zeros(dy.rows, layer.in_dim());
                let mut unused = DenseGrads::zeros_like(layer);
                layer.backward_grads_into(layer_in, &ys[l], &mut dy, &mut dx, &mut unused);
                dy = dx;
            }
        }
    }
    let mut global = Vec::new();
    for (stage, layers) in cfg.stage_bounds.iter().enumerate() {
        let mut flats: Vec<Vec<f32>> = acc[stage]
            .iter()
            .map(|grads| grads.iter().flat_map(|g| g.segments().concat()).collect())
            .collect();
        allreduce_sum(&mut flats);
        let mut offset = 0usize;
        for layer in &model.layers[layers.clone()] {
            let mut g = DenseGrads::zeros_like(layer);
            for seg in g.segments_mut() {
                seg.copy_from_slice(&flats[0][offset..offset + seg.len()]);
                offset += seg.len();
            }
            global.push(g);
        }
    }
    (losses.iter().sum(), global)
}

/// Where a step's bits first part from the reference's, if anywhere.
fn first_difference(got: &StepOutcome, (loss, grads): &(f32, Vec<DenseGrads>)) -> Option<String> {
    if got.loss.to_bits() != loss.to_bits() {
        return Some(format!("loss {} vs {loss}", got.loss));
    }
    if got.grads.len() != grads.len() {
        return Some(format!("{} layers vs {}", got.grads.len(), grads.len()));
    }
    (got.grads.iter().zip(grads))
        .position(|(g, w)| bits(&g.segments().concat()) != bits(&w.segments().concat()))
        .map(|l| format!("layer {l} gradients"))
}

/// Engine level: replicated stages — three replicas, two replicated
/// stages of different widths, and a row split that does not divide —
/// produce exactly the gradients of the flatten → ring → unflatten
/// assembly the in-worker reduce replaced.
#[test]
#[allow(clippy::single_range_in_vec_init)] // a one-stage split really is vec![0..6]
fn replicated_gradients_match_the_ring_assembly() {
    let shapes: [(Vec<std::ops::Range<usize>>, Vec<usize>, usize); 3] = [
        (vec![0..6], vec![3], 4),
        (vec![0..3, 3..6], vec![2, 3], 4),
        (vec![0..3, 3..6], vec![5, 1], 4), // 6 rows over 5 replicas: 2,1,1,1,1
    ];
    for (stage_bounds, replication, micro_batches) in shapes {
        let mut cfg = EngineConfig::straight(stage_bounds, micro_batches, 0.1);
        cfg.replication = replication;
        let model = MlpModel::new(&DIMS, 77);
        let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 2);
        let reference = flatten_ring_unflatten(&model, &x, &t, &cfg);
        let trainer = PipelineTrainer::new(model, cfg.clone()).unwrap();
        // Twice: the second step runs on reused accumulators.
        for _ in 0..2 {
            let out = clean_step(&trainer, &x, &t);
            assert_eq!(
                first_difference(&out, &reference),
                None,
                "replication {:?}",
                cfg.replication
            );
        }
    }
}

/// A layer stores `W` and `W^T`, and the optimizer writes both in the
/// pass that updates them; the workers multiply by the stored panels.
/// The reference above is rebuilt from its row-major weights after each
/// update, so its `W^T` is laid out afresh every step. Stepping both
/// with the same optimizer for four steps — SGD and Adam, a straight
/// pipeline and replicated stages, with and without re-computation —
/// must leave bit-identical models after every step: a `W^T` that missed
/// an update would run step 2's backward on step 1's weights and part the
/// two trajectories there.
#[test]
fn packed_weights_never_outlive_an_optimizer_update() {
    let shapes: [(Vec<std::ops::Range<usize>>, Vec<usize>); 2] = [
        (vec![0..2, 2..4, 4..6], vec![1, 1, 1]),
        (vec![0..3, 3..6], vec![2, 2]),
    ];
    let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 4);
    for (stage_bounds, replication) in shapes {
        for (adam, recompute) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut cfg = EngineConfig::straight(stage_bounds.clone(), 4, 0.1);
            cfg.replication = replication.clone();
            cfg.recompute = recompute;
            let mut reference = MlpModel::new(&DIMS, 77);
            let mut trainer = PipelineTrainer::new(reference.clone(), cfg.clone()).unwrap();
            let optimizer = |model: &MlpModel| {
                if adam {
                    Optimizer::adam(0.01, model)
                } else {
                    Optimizer::sgd(0.1)
                }
            };
            let (mut ref_opt, mut opt) = (optimizer(&reference), optimizer(&reference));
            for step in 0..4 {
                let (_, grads) = flatten_ring_unflatten(&reference, &x, &t, &cfg);
                ref_opt.step(&mut reference, &grads);
                for layer in &mut reference.layers {
                    *layer = Dense::from_weights(layer.weights(), layer.b.clone(), layer.act)
                        .expect("the layer's own shape");
                }
                let out = clean_step(&trainer, &x, &t);
                opt.step(&mut trainer.model, &out.grads);
                for (l, (got, want)) in trainer
                    .model
                    .layers
                    .iter()
                    .zip(&reference.layers)
                    .enumerate()
                {
                    assert_eq!(
                        (bits(&got.weights().data), bits(&got.b)),
                        (bits(&want.weights().data), bits(&want.b)),
                        "replication {replication:?}, adam {adam}, recompute {recompute}, \
                         step {step}, layer {l}"
                    );
                }
            }
        }
    }
}

/// One optimizer step as a serial scalar loop over each layer's flat
/// parameter index: the update expressions, and nothing else, in common
/// with `Optimizer::step`. It updates a row-major copy of each layer's
/// weights and builds the layer anew from it.
fn serial_scalar_step(opt: &mut Optimizer, model: &mut MlpModel, grads: &[DenseGrads]) {
    if let Optimizer::Adam { t, .. } = opt {
        *t += 1;
    }
    for (i, layer) in model.layers.iter_mut().enumerate() {
        let (mut w, mut b) = (layer.weights(), layer.b.clone());
        let nw = w.data.len();
        for j in 0..nw + b.len() {
            let (p, g) = if j < nw {
                (&mut w.data[j], grads[i].dw.data[j])
            } else {
                (&mut b[j - nw], grads[i].db[j - nw])
            };
            match opt {
                Optimizer::Sgd { lr } => *p -= *lr * g,
                Optimizer::Momentum { lr, beta, velocity } => {
                    let v = &mut velocity[i][j];
                    *v = *beta * *v + g;
                    *p -= *lr * *v;
                }
                Optimizer::Adam {
                    lr,
                    beta1,
                    beta2,
                    eps,
                    t,
                    m,
                    v,
                } => {
                    let (m, v) = (&mut m[i][j], &mut v[i][j]);
                    *m = *beta1 * *m + (1.0 - *beta1) * g;
                    *v = *beta2 * *v + (1.0 - *beta2) * g * g;
                    let mhat = *m / (1.0 - beta1.powi(*t as i32));
                    let vhat = *v / (1.0 - beta2.powi(*t as i32));
                    *p -= *lr * (mhat / (vhat.sqrt() + *eps));
                }
            }
        }
        *layer = Dense::from_weights(w, b, layer.act).expect("the layer's own shape");
    }
}

/// Parameters, then every optimizer state buffer, as bits.
fn training_bits(model: &MlpModel, opt: &Optimizer) -> Vec<u32> {
    let params: Vec<f32> = (model.layers.iter())
        .flat_map(|l| l.weights().data.into_iter().chain(l.b.iter().copied()))
        .collect();
    let state: Vec<&Vec<f32>> = match opt {
        Optimizer::Sgd { .. } => Vec::new(),
        Optimizer::Momentum { velocity, .. } => velocity.iter().collect(),
        Optimizer::Adam { m, v, .. } => m.iter().chain(v).collect(),
    };
    (params.iter().chain(state.into_iter().flatten()))
        .map(|v| v.to_bits())
        .collect()
}

/// The banded update is the serial update, bit for bit, under every rule:
/// three steps over weight tensors larger than one 32 Ki-value band
/// (300 x 333, ragged in both directions, and 333 x 128), of exactly one
/// (128 x 256) and of far less (256 x 4), and over the biases. The
/// larger tensors' bands (32 rows of `W` each) are shared with the
/// worker pool, so CI's pool-size matrix running this proves the sizes
/// agree with each other.
#[test]
fn banded_update_is_the_serial_update_bit_for_bit() {
    const BANDED: [usize; 5] = [300, 333, 128, 256, 4];
    let start = MlpModel::new(&BANDED, 31);
    let (x, t) = data::regression_batch(4, BANDED[0], BANDED[4], 6);
    let rules: [fn(&MlpModel) -> Optimizer; 3] = [
        |_| Optimizer::sgd(0.1),
        |m| Optimizer::momentum(0.1, 0.9, m),
        |m| Optimizer::adam(0.01, m),
    ];
    for rule in rules {
        let (mut model, mut reference) = (start.clone(), start.clone());
        let (mut opt, mut ref_opt) = (rule(&start), rule(&start));
        for step in 0..3 {
            let (_, grads) = reference.reference_grads(&x, &t, 1);
            opt.step(&mut model, &grads);
            serial_scalar_step(&mut ref_opt, &mut reference, &grads);
            assert!(
                training_bits(&model, &opt) == training_bits(&reference, &ref_opt),
                "{} B/param rule parted from the serial loop at step {step}",
                opt.bytes_per_param()
            );
        }
        assert_eq!(opt, ref_opt, "hyper-parameters and step counter");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn no_fault_steps_are_bit_identical(
        split_idx in 0usize..5,
        micro_idx in 0usize..6,
        rep_bits in 0u64..64,
        sched_idx in 0usize..3,
        recompute_bit in 0usize..2,
        flight_idx in 0usize..3,
    ) {
        let cfg = build_cfg(split_idx, micro_idx, rep_bits, sched_idx, recompute_bit, flight_idx);
        let trainer = PipelineTrainer::new(MlpModel::new(&DIMS, 77), cfg).unwrap();
        let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);

        let (loss_a, grads_a) = trainer.step_grads(&x, &t).unwrap();
        let (loss_b, grads_b) = trainer.step_grads(&x, &t).unwrap();

        prop_assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        prop_assert_eq!(grads_a.len(), grads_b.len());
        for (a, b) in grads_a.iter().zip(&grads_b) {
            prop_assert_eq!(bits(&a.segments().concat()), bits(&b.segments().concat()));
        }
    }

    /// Every buffer the engine recycles — boundary messages, forward
    /// chains, input gradients, accumulators — is fully overwritten before
    /// use, and pooling and the in-worker reduce change no
    /// numerics: across random partitions, schedules and replication, two
    /// consecutive steps (the second on dirty buffers) produce the loss
    /// and gradient bits of the allocate-per-tensor reference.
    #[test]
    fn engine_is_bit_identical_to_the_allocating_reference(
        split_idx in 0usize..5,
        micro_idx in 0usize..6,
        rep_bits in 0u64..64,
        sched_idx in 0usize..3,
        recompute_bit in 0usize..2,
        flight_idx in 0usize..3,
    ) {
        let cfg = build_cfg(split_idx, micro_idx, rep_bits, sched_idx, recompute_bit, flight_idx);
        let model = MlpModel::new(&DIMS, 77);
        let (x, t) = data::regression_batch(BATCH, DIMS[0], *DIMS.last().unwrap(), 9);
        let reference = flatten_ring_unflatten(&model, &x, &t, &cfg);
        let trainer = PipelineTrainer::new(model, cfg).unwrap();
        for nth in ["first", "second"] {
            let out = clean_step(&trainer, &x, &t);
            prop_assert_eq!(
                first_difference(&out, &reference),
                None,
                "{} step under {:?}",
                nth,
                trainer.config()
            );
        }
    }
}
