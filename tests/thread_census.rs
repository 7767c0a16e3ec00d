//! No thread is born by a matmul after warm-up, nor by a pipeline step
//! once its trainer has stepped.
//!
//! The kernels' parallel path runs on one process-wide pool of parked
//! helper threads (vendor/rayon): the first parallel call starts the
//! helpers, and from then on a parallel matmul — standalone or inside a
//! pipeline stage worker — creates no thread at all. With a pool size of
//! one there is no helper to start in the first place. A trainer's step
//! threads are the calling thread and a gang of parked threads that its
//! first step starts and that the trainer joins when it is dropped.
//!
//! Counted from outside, as entries of `/proc/self/task`. The census is
//! process-wide, so this binary holds exactly one test that runs by
//! default; the other runs only in the child process that test spawns
//! (the pool reads `RAYON_NUM_THREADS` once, so another size needs another
//! process).
#![cfg(target_os = "linux")]

use dapple::engine::{data, EngineConfig, FaultPlan, MlpModel, Optimizer, PipelineTrainer, Tensor};
use std::time::{Duration, Instant};

/// Printed by the child-process test when it really took its census.
const CHILD_RAN: &str = "census taken at pool size 1";

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The thread count once it is back down to `expected`, or whatever it
/// is stuck at after two seconds. A joined thread can stay listed for a
/// moment after `join` returns (the kernel wakes the joiner before it
/// unlinks the task), so a reading above `expected` is re-taken; a thread
/// that was born and parked never goes away, however long this waits.
fn settled_threads(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let now = threads();
        if now <= expected || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
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

/// 500 parallel calls, then 50 pipeline steps whose three stage workers
/// (on the calling thread and up to two gang threads) each run above-gate
/// matmuls, then the trainer is dropped. Returns the thread counts after
/// the first step and after the last.
fn exercise() -> (usize, usize) {
    for _ in 0..167 {
        parallel_matmul();
    }
    let dims = [16usize, 256, 256, 256, 8];
    let cfg = EngineConfig::straight(vec![0..1, 1..3, 3..4], 2, 0.05);
    let mut trainer = PipelineTrainer::new(MlpModel::new(&dims, 3), cfg).unwrap();
    let (x, t) = data::regression_batch(128, 16, 8, 5);
    let mut sgd = Optimizer::sgd(0.05);
    let mut after_first = 0;
    for step in 1..=50 {
        let out = trainer
            .step_with_trace(&x, &t, &FaultPlan::new())
            .0
            .unwrap();
        sgd.step(&mut trainer.model, &out.grads);
        if step == 1 {
            after_first = threads();
        }
    }
    (after_first, threads())
}

#[test]
fn no_thread_is_born_by_a_matmul_after_warm_up() {
    // Warm-up: the one call allowed to start threads.
    parallel_matmul();
    let before = threads();
    let (after_first, after_last) = exercise();
    assert_eq!(
        after_last, after_first,
        "a step created a thread after the trainer's first"
    );
    assert_eq!(
        settled_threads(before),
        before,
        "threads outlived the trainer or were created after the pool's warm-up call"
    );

    // Pool size 1, in a process of its own: never a helper, warm-up or not.
    let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "single_thread_pool_never_starts_a_thread",
            "--ignored",
            "--test-threads=1",
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

#[test]
#[ignore = "run by no_thread_is_born_by_a_matmul_after_warm_up, in a child process with RAYON_NUM_THREADS=1"]
fn single_thread_pool_never_starts_a_thread() {
    if std::env::var("RAYON_NUM_THREADS").as_deref() != Ok("1") {
        // Run by hand with `--ignored` at some other pool size: the
        // census below would count the helpers' start-up. The parent test
        // is the way in.
        return;
    }
    let before = threads();
    let (after_first, after_last) = exercise();
    assert_eq!(after_last, after_first, "a step created a thread");
    assert_eq!(
        settled_threads(before),
        before,
        "a pool of size 1 must not create threads, nor the gang outlive its trainer"
    );
    println!("{CHILD_RAN}");
}
