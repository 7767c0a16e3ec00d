//! The benchmark's clock: wall time, corrected for how fast the host
//! happens to be running.
//!
//! The reference host is a 2-vCPU VM on shared hardware. The same binary
//! on the same seed measured 5 600 to 9 400 samples/s within one hour,
//! whole runs shifting together, so no statistic of raw wall time taken
//! inside a 20 s run can be steadier than about ±15%. What a run can do
//! is time, right beside the engine, a fixed piece of work that the
//! engine's code cannot influence: [`reference_ms`], a small 1F1B-shaped
//! pipeline built here from `std` threads, channels and FMA loops (a
//! thread per stage spawned per step, one message per micro-batch per
//! boundary — the same things the host slows down in the engine). Every
//! slice and every set-up is bracketed by two such probes, and its time
//! is divided by how much slower than [`NOMINAL_MS`] they ran.
//!
//! Reported times are therefore "on a host where the reference pipeline
//! takes `NOMINAL_MS`", which is the reference host when left alone. The
//! correction is a control variate: it removes the host's speed of the
//! moment (spreads over ten runs fell from 7–29% to 2–9%), never a
//! change in the engine. Raw wall-clock figures and the probe times are
//! kept in each run's detail line.

use std::hint::black_box;
use std::sync::mpsc::channel;
use std::time::Instant;

/// What [`reference_ms`] takes on the reference host when nothing else
/// competes for its cores. A definition, not a calibration: changing it
/// rescales every timing the benchmark reports.
pub const NOMINAL_MS: f64 = 25.0;

const STAGES: usize = 3;
const MICRO_BATCHES: usize = 8;
const STEPS: usize = 4;

/// A dependent chain of fused multiply-adds over 256 lanes.
fn fma_work(iters: usize, seed: f32) {
    let mut lanes = [0.5f32 + seed; 256];
    for _ in 0..iters {
        for v in lanes.iter_mut() {
            *v = v.mul_add(0.999, 0.001);
        }
        black_box(&mut lanes);
    }
}

/// Wall time, ms, of [`STEPS`] steps of the reference pipeline: per step
/// fresh channels and one scoped thread per stage; every stage forwards
/// [`MICRO_BATCHES`] buffers downstream, then hands them back upstream
/// at twice the work per buffer.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    for _ in 0..STEPS {
        // Stage i receives forward traffic on fwd[i] and backward
        // traffic on bwd[i]; the ends of the pipeline have neither.
        let (mut fwd_tx, mut fwd_rx) = (Vec::new(), vec![None]);
        let (mut bwd_tx, mut bwd_rx) = (vec![None], Vec::new());
        for _ in 1..STAGES {
            let (tx, rx) = channel::<Vec<f32>>();
            fwd_tx.push(Some(tx));
            fwd_rx.push(Some(rx));
            let (tx, rx) = channel::<Vec<f32>>();
            bwd_tx.push(Some(tx));
            bwd_rx.push(Some(rx));
        }
        fwd_tx.push(None);
        bwd_rx.push(None);
        std::thread::scope(|scope| {
            for stage in 0..STAGES {
                let (to_next, from_prev) = (fwd_tx[stage].take(), fwd_rx[stage].take());
                let (to_prev, from_next) = (bwd_tx[stage].take(), bwd_rx[stage].take());
                scope.spawn(move || {
                    let mut held = Vec::new();
                    for micro in 0..MICRO_BATCHES {
                        let buffer = match &from_prev {
                            Some(rx) => rx.recv().expect("upstream stage is alive"),
                            None => vec![micro as f32; 4096],
                        };
                        fma_work(15_000, buffer[0]);
                        match &to_next {
                            Some(tx) => tx.send(buffer).expect("downstream stage is alive"),
                            None => held.push(buffer),
                        }
                    }
                    for _ in 0..MICRO_BATCHES {
                        let buffer = match &from_next {
                            Some(rx) => rx.recv().expect("downstream stage is alive"),
                            None => held.pop().expect("one buffer per micro-batch"),
                        };
                        fma_work(30_000, buffer[0]);
                        if let Some(tx) = &to_prev {
                            tx.send(buffer).expect("upstream stage is alive");
                        }
                    }
                });
            }
        });
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// Brackets intervals of measured work with probes.
pub struct HostClock {
    /// Every probe so far, ms, in order.
    pub probes_ms: Vec<f64>,
}

impl HostClock {
    /// Takes the first probe.
    pub fn start() -> Self {
        HostClock {
            probes_ms: vec![reference_ms()],
        }
    }

    /// Probes again and returns how much slower than nominal the host
    /// ran over the interval since the previous probe (the mean of the
    /// two probes around it over [`NOMINAL_MS`]). Divide a duration by
    /// it; multiply a rate.
    pub fn slowdown(&mut self) -> f64 {
        let before = *self.probes_ms.last().expect("started with a probe");
        let after = reference_ms();
        self.probes_ms.push(after);
        (before + after) / 2.0 / NOMINAL_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_of_the_bracketing_probes_over_nominal() {
        let mut clock = HostClock {
            probes_ms: vec![NOMINAL_MS],
        };
        let slowdown = clock.slowdown();
        let after = clock.probes_ms[1];
        assert_eq!(clock.probes_ms.len(), 2);
        assert!(after > 0.0, "the reference pipeline ran and took time");
        assert_eq!(slowdown, (NOMINAL_MS + after) / 2.0 / NOMINAL_MS);
    }
}
