//! The bench crate's timers. On a shared host timing noise is strictly
//! additive (preemption, steal time, cache pollution), which is what
//! decides between them.

use std::time::Instant;

/// Fastest of `iters` calls of `f`, ns, after one untimed warm-up call:
/// the best estimate of intrinsic cost, and the one to use for
/// multi-threaded measurements, whose mean a single stolen time slice can
/// multiply (one preempted rank stalls a whole ring).
pub fn time_ns_min<F: FnMut()>(iters: u32, mut f: F) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Median of `reps` calls of `f`, µs: a typical cost, for calibrating a
/// model that predicts typical steps.
pub(crate) fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}
