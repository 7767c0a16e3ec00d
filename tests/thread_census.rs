//! One set of threads: the kernels' pool. Its first parallel call starts
//! its `pool − 1` helpers, a pipeline step runs threads `1..T` on idle
//! helpers, and from then on neither a parallel matmul nor a step — nor
//! dropping the trainer — changes the thread count. With a pool size of
//! one no thread is ever started.
//!
//! Counted from outside, as entries of `/proc/self/task`. The census is
//! process-wide, so this binary holds exactly one test. The pool reads
//! `RAYON_NUM_THREADS` once, so that test takes the pool-size-1 census
//! by running itself again in a child process with `RAYON_NUM_THREADS=1`,
//! where it takes only that census.
#![cfg(target_os = "linux")]

use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, Optimizer, PipelineTrainer, Tensor};

/// Printed by the child process when it really took its census.
const CHILD_RAN: &str = "census taken at pool size 1";

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// One above-gate product (160³ ≈ 4 Mi multiply-adds, five bands).
fn parallel_matmul() {
    let a = Tensor::from_vec(160, 160, vec![0.5; 160 * 160]);
    let mut out = Tensor::zeros(160, 160);
    a.matmul_into(&a, &mut out);
    a.matmul_tn_into(&a, &mut out);
    a.matmul_nt_into(&a, &mut out);
    assert_eq!(out.data[0], 40.0);
}

/// Takes the census at this process's pool size, starting from a process
/// that has made no parallel call: 500 parallel calls, then 50 pipeline
/// steps whose three stage workers each run above-gate matmuls on `T`
/// step threads, then the trainer is dropped. Every reading after the
/// first parallel call is `max(T, pool) − 1` above the first.
fn census() {
    let before = threads();
    for _ in 0..167 {
        parallel_matmul();
    }
    let pool = rayon::current_num_threads();
    assert_eq!(threads(), before + pool - 1, "after the parallel calls");
    let dims = [16usize, 256, 256, 256, 8];
    let cfg = EngineConfig::straight(vec![0..1, 1..3, 3..4], 2, 0.05);
    let mut trainer = PipelineTrainer::new(MlpModel::new(&dims, 3), cfg).unwrap();
    let (x, t) = data::regression_batch(128, 16, 8, 5);
    let step_threads = trainer.threads().len();
    let helpers = step_threads.max(pool) - 1;
    let mut sgd = Optimizer::sgd(0.05);
    for step in 1..=50 {
        let out = trainer
            .step_with_trace(&x, &t, &FaultPlan::new())
            .0
            .unwrap();
        sgd.step(&mut trainer.model, &out.grads);
        if step == 1 || step == 50 {
            assert_eq!(
                threads(),
                before + helpers,
                "after step {step} of {step_threads} threads"
            );
        }
    }
    drop(trainer);
    assert_eq!(threads(), before + helpers, "after the trainer is dropped");
}

#[test]
fn no_thread_is_born_by_a_matmul_after_warm_up() {
    census();
    if rayon::current_num_threads() == 1 {
        println!("{CHILD_RAN}");
        return;
    }
    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "no_thread_is_born_by_a_matmul_after_warm_up",
            "--nocapture",
        ])
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success() && stdout.contains(CHILD_RAN),
        "child census failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&child.stderr)
    );
}
