//! Real pipelined training on the CPU engine.
//!
//! ```text
//! cargo run --release --example train_pipeline
//! ```
//!
//! Trains an MLP on a synthetic regression task three ways — sequentially
//! on one "device", on a straight 3-stage DAPPLE pipeline, and on a hybrid
//! 2-stage pipeline whose first stage is replicated 2-ways — and shows
//! that all three follow the *same* loss trajectory: synchronous pipelined
//! training computes exactly the full-batch gradients (the paper's
//! convergence-preservation claim), while the pipeline spreads the work
//! over stage-worker threads.

use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, Optimizer, PipelineTrainer, Tensor};
use dapple::sim::{KPolicy, Schedule};

/// One training step on an explicit batch: the pipeline's gradients, then
/// the optimizer — what `TrainLoop::try_step` does with a data stream.
fn sgd_step(trainer: &mut PipelineTrainer, x: &Tensor, t: &Tensor, sgd: &mut Optimizer) -> f32 {
    let out = trainer.step_with_trace(x, t, &FaultPlan::new()).0.unwrap();
    sgd.step(&mut trainer.model, &out.grads);
    out.loss
}

fn main() {
    let dims = [16usize, 64, 64, 48, 48, 32, 8];
    let (x, t) = data::regression_batch(96, dims[0], *dims.last().unwrap(), 2024);
    let steps = 40;
    let lr = 0.25;

    // Sequential reference.
    let mut seq = MlpModel::new(&dims, 7);
    println!(
        "MLP {dims:?}: {} params, batch {} samples, {} steps\n",
        seq.num_params(),
        x.rows,
        steps
    );

    // Straight 3-stage DAPPLE pipeline, 4 micro-batches.
    let straight = EngineConfig::straight(vec![0..2, 2..4, 4..6], 4, lr);
    let mut pipe = PipelineTrainer::new(MlpModel::new(&dims, 7), straight).unwrap();

    // Hybrid: first stage replicated 2-ways (split/concat + in-worker replica reduce).
    let mut hybrid = EngineConfig::straight(vec![0..3, 3..6], 4, lr);
    hybrid.replication = vec![2, 1];
    hybrid.schedule = Schedule::Dapple(KPolicy::PB);
    hybrid.recompute = true;
    let mut hyb = PipelineTrainer::new(MlpModel::new(&dims, 7), hybrid).unwrap();

    println!(
        "{:>5} {:>14} {:>16} {:>18}",
        "step", "sequential", "3-stage DAPPLE", "2-stage hybrid+RC"
    );
    let mut sgd = Optimizer::sgd(lr);
    for step in 0..steps {
        let ls = seq.reference_step(&x, &t, 4, lr).loss;
        let lp = sgd_step(&mut pipe, &x, &t, &mut sgd);
        let lh = sgd_step(&mut hyb, &x, &t, &mut sgd);
        if step % 5 == 0 || step == steps - 1 {
            println!("{step:>5} {ls:>14.6} {lp:>16.6} {lh:>18.6}");
        }
        assert!(
            (ls - lp).abs() < 1e-3 * ls.max(1e-3) && (ls - lh).abs() < 1e-3 * ls.max(1e-3),
            "trajectories must coincide (synchronous training)"
        );
    }
    println!("\nall three trajectories coincide: pipelined training is exactly synchronous.");
}
