//! Properties of the run-metrics histograms: percentiles are a pure
//! function of the inserted *multiset* — insertion order can never
//! change an answer.

use dapple_core::metrics::{straggler_stages, Histogram, RunLog};
use proptest::prelude::*;

fn build(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Percentiles depend only on the multiset of samples: a reversed
    /// (and an interleaved) insertion order answers identically at every
    /// probed quantile.
    #[test]
    fn percentiles_are_insertion_order_invariant(
        samples in proptest::collection::vec(0u64..1u64 << 40, 1..80),
        qa in 0.0f64..1.0,
    ) {
        let fwd = build(&samples);
        let rev: Vec<u64> = samples.iter().rev().copied().collect();
        let bwd = build(&rev);
        // Interleave from both ends.
        let mut inter = Vec::with_capacity(samples.len());
        let (mut i, mut j) = (0usize, samples.len());
        while i < j {
            inter.push(samples[i]);
            i += 1;
            if i < j {
                j -= 1;
                inter.push(samples[j]);
            }
        }
        let mid = build(&inter);
        let totals = |h: &Histogram| (h.count(), h.sum(), h.min(), h.max());
        prop_assert_eq!(totals(&fwd), totals(&bwd));
        prop_assert_eq!(totals(&fwd), totals(&mid));
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0, qa] {
            prop_assert_eq!(fwd.percentile(q), bwd.percentile(q));
            prop_assert_eq!(fwd.percentile(q), mid.percentile(q));
        }
    }

    /// Every percentile answer is inside the observed sample range, and
    /// the p=1.0 answer never under-states the true maximum's bucket.
    #[test]
    fn percentiles_bound_the_sample_range(
        samples in proptest::collection::vec(0u64..1u64 << 50, 1..60),
        q in 0.0f64..1.0,
    ) {
        let h = build(&samples);
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        let p = h.percentile(q);
        prop_assert!(p >= lo, "percentile {} below min {}", p, lo);
        prop_assert!(p <= hi, "percentile {} above max {}", p, hi);
        prop_assert_eq!(h.percentile(1.0), hi.min(h.percentile(1.0)).max(lo));
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        prop_assert_eq!(h.count(), samples.len() as u64);
    }
}

/// The quantization error of a single recorded value is bounded by the
/// sub-bucket width: the reported percentile over-states by at most
/// 12.5% (8 linear sub-buckets per octave).
#[test]
fn single_sample_quantization_is_bounded() {
    for v in [1u64, 9, 100, 1023, 1 << 20, (1 << 30) + 12345] {
        let mut h = Histogram::new();
        h.record(v);
        let p = h.percentile(0.5);
        assert!(p >= v, "representative must not under-state");
        assert!(
            (p as f64) <= v as f64 * 1.125 + 1.0,
            "quantization too coarse: {v} -> {p}"
        );
    }
}

/// Run log smoke: lines come out as one JSON object per line (checked
/// structurally here; the root `run_log` test parses for real).
#[test]
fn runlog_round_trip() {
    let mut log = RunLog::new(Vec::<u8>::new());
    for i in 0..5u64 {
        log.line()
            .u64("step", i)
            .f64("bubble_ratio", 0.4)
            .end()
            .unwrap();
    }
    let text = String::from_utf8(log.into_sink()).unwrap();
    assert_eq!(text.lines().count(), 5);
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'));
    }
}

/// The straggler helper flags exactly the BENCH_5 shape and stays quiet
/// on balanced pipelines.
#[test]
fn straggler_detection_matches_bench5_shape() {
    let mut scratch = Vec::new();
    let mut out = Vec::new();
    straggler_stages(&[0.476163, 0.495678, 0.251198], 0.6, &mut scratch, &mut out);
    assert_eq!(out, vec![2]);
    straggler_stages(&[0.476163, 0.495678, 0.251198], 0.4, &mut scratch, &mut out);
    assert!(out.is_empty(), "a lower bar tolerates the imbalance");
}
