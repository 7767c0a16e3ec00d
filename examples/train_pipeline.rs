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

use dapple::engine::{data, EngineConfig, MlpModel, PipelineTrainer};
use dapple::sim::{KPolicy, Schedule};

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
    let straight = EngineConfig {
        stage_bounds: vec![0..2, 2..4, 4..6],
        replication: vec![1, 1, 1],
        schedule: Schedule::Dapple(KPolicy::PA),
        micro_batches: 4,
        recompute: false,
        lr,
        max_in_flight: usize::MAX,
        loss: dapple::engine::LossKind::Mse,
        recv_timeout: std::time::Duration::from_secs(5),
        nan_policy: dapple::engine::NanPolicy::AbortStep,
        buffer_reuse: true,
        tracing: false,
    };
    let mut pipe = PipelineTrainer::new(MlpModel::new(&dims, 7), straight).unwrap();

    // Hybrid: first stage replicated 2-ways (split/concat + in-worker replica reduce).
    let hybrid = EngineConfig {
        stage_bounds: vec![0..3, 3..6],
        replication: vec![2, 1],
        schedule: Schedule::Dapple(KPolicy::PB),
        micro_batches: 4,
        recompute: true,
        lr,
        max_in_flight: usize::MAX,
        loss: dapple::engine::LossKind::Mse,
        recv_timeout: std::time::Duration::from_secs(5),
        nan_policy: dapple::engine::NanPolicy::AbortStep,
        buffer_reuse: true,
        tracing: false,
    };
    let mut hyb = PipelineTrainer::new(MlpModel::new(&dims, 7), hybrid).unwrap();

    println!(
        "{:>5} {:>14} {:>16} {:>18}",
        "step", "sequential", "3-stage DAPPLE", "2-stage hybrid+RC"
    );
    for step in 0..steps {
        let ls = seq.reference_step(&x, &t, 4, lr).loss;
        let lp = pipe.train_step(&x, &t).unwrap().loss;
        let lh = hyb.train_step(&x, &t).unwrap().loss;
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
