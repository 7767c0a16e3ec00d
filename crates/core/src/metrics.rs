//! Run-metrics building blocks: a log-bucketed [`Histogram`], an
//! append-only JSONL [`RunLog`] and the straggler rule.
//!
//! Long training runs need a metrics stream that costs nothing on the hot
//! path: recording a histogram observation touches only pre-allocated
//! storage, and the run log's line buffer is reused, so steady-state
//! logging allocates nothing either (asserted under a counting global
//! allocator in `tests/alloc_counts.rs`). The engine's `RunRecorder` keeps
//! one set of totals per run and drains a line per step into a [`RunLog`].
//!
//! Histograms are log-bucketed (power-of-two octaves with linear
//! sub-buckets, the HdrHistogram shape): insertion order cannot change
//! the stored counts, so percentiles are deterministic.

use crate::json::{Buffer, Object};
use std::io::{self, Write};

/// Sub-buckets per power-of-two octave. 8 keeps the relative
/// quantization error below 12.5% per observation while the whole
/// histogram stays at 4 KiB of counts.
const SUB_BUCKETS: usize = 8;
/// Octaves covered: values up to `2^60` ns (~36 years) before clamping.
const OCTAVES: usize = 61;
const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// A log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Deterministic by construction: the stored state is only per-bucket
/// counts plus sum/min/max, all of which are permutation-invariant in
/// the inserted values. Percentile queries resolve to a bucket's
/// representative upper bound, so two histograms holding the same
/// multiset of samples answer identically regardless of insertion order.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its bucket array once, up front).
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0u64; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a value: octave = position of the highest set bit,
    /// sub-bucket = the next `log2(SUB_BUCKETS)` bits below it.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            // Values below one full octave of sub-buckets are exact.
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as usize; // >= 3 here
        let shift = octave - SUB_BUCKETS.trailing_zeros() as usize;
        let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
        let idx = octave * SUB_BUCKETS + sub;
        idx.min(BUCKETS - 1)
    }

    /// Largest value mapping to bucket `idx` (the reported percentile
    /// representative, so percentiles never under-state a latency).
    fn bucket_upper(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            return idx as u64;
        }
        let octave = idx / SUB_BUCKETS;
        let sub = idx % SUB_BUCKETS;
        let shift = octave - SUB_BUCKETS.trailing_zeros() as usize;
        // Start of the sub-bucket, plus its width minus one.
        ((1u64 << octave) | ((sub as u64) << shift)) + ((1u64 << shift) - 1)
    }

    /// Records one sample. Allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`.
    /// Deterministic across insertion orders, `0` when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp the representative into the observed range so a
                // single-sample histogram answers exactly.
                return Self::bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.percentile(0.50))
            .field("p95", &self.percentile(0.95))
            .field("p99", &self.percentile(0.99))
            .finish()
    }
}

/// An append-only JSONL sink with a reused line buffer: one
/// [`RunLog::line`] object per record, one `write_all` per line. After
/// the first few lines grow the buffer to its steady-state size, writing
/// a record performs no heap allocation (the sink permitting — a `File`
/// or `io::sink()` does not allocate; a growing `Vec<u8>` does).
pub struct RunLog<W: Write> {
    sink: W,
    buf: String,
    records: u64,
}

impl<W: Write> RunLog<W> {
    /// A run log writing JSON lines to `sink`.
    pub fn new(sink: W) -> Self {
        RunLog {
            sink,
            buf: String::with_capacity(512),
            records: 0,
        }
    }

    /// Starts one record; [`Object::end`] writes it to the sink as one
    /// line.
    pub fn line(&mut self) -> Object<&mut Self> {
        self.buf.clear();
        Object::new(self)
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Consumes the log, returning the sink.
    pub fn into_sink(self) -> W {
        self.sink
    }
}

impl<W: Write> Buffer for &mut RunLog<W> {
    type Closed = io::Result<()>;

    fn text(&mut self) -> &mut String {
        &mut self.buf
    }

    fn close(self) -> io::Result<()> {
        self.buf.push('\n');
        self.records += 1;
        self.sink.write_all(self.buf.as_bytes())
    }
}

/// Flags straggler stages: indices whose busy fraction falls below
/// `fraction` of the median busy fraction. `scratch` and `out` are
/// caller-owned so repeated calls allocate nothing once their capacity
/// covers the stage count; `out` is cleared and refilled.
///
/// The median of an even count is the lower-middle element — a
/// deterministic choice that never manufactures a value absent from the
/// input. Stages with a non-finite busy fraction are treated as 0 (fully
/// idle) and therefore flagged whenever any healthy stage is busy.
pub fn straggler_stages(
    busy_fractions: &[f64],
    fraction: f64,
    scratch: &mut Vec<f64>,
    out: &mut Vec<usize>,
) {
    out.clear();
    if busy_fractions.len() < 2 {
        return;
    }
    scratch.clear();
    scratch.extend(
        busy_fractions
            .iter()
            .map(|&b| if b.is_finite() { b } else { 0.0 }),
    );
    scratch.sort_unstable_by(f64::total_cmp);
    let median = scratch[(scratch.len() - 1) / 2];
    // A non-positive (or NaN) bar means the median stage did no work —
    // nothing meaningful to flag against.
    let bar = fraction * median;
    if bar.is_nan() || bar <= 0.0 {
        return;
    }
    for (i, &b) in busy_fractions.iter().enumerate() {
        let b = if b.is_finite() { b } else { 0.0 };
        if b < bar {
            out.push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_cover_u64() {
        let mut prev = 0usize;
        for v in [0u64, 1, 7, 8, 9, 100, 1 << 20, u64::MAX / 2, u64::MAX] {
            let b = Histogram::bucket_of(v);
            assert!(b >= prev, "bucket order broken at {v}");
            assert!(b < BUCKETS);
            assert!(Histogram::bucket_upper(b) >= v || b == BUCKETS - 1);
            prev = b;
        }
    }

    #[test]
    fn small_values_are_exact_and_percentiles_bound_samples() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 7);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(0.5), 4);
        assert_eq!(h.percentile(1.0), 7);
    }

    #[test]
    fn percentile_representative_never_understates() {
        let mut h = Histogram::new();
        for v in [1000u64, 2000, 4000, 8000, 100_000] {
            h.record(v);
        }
        // Each percentile is >= the true sample at that rank (upper
        // bucket bound), and <= max.
        assert!(h.percentile(0.99) >= 100_000 || h.percentile(0.99) == h.max());
        assert!(h.percentile(0.5) >= 4000);
        assert!(h.percentile(0.5) <= h.max());
    }

    #[test]
    fn run_log_emits_one_json_object_per_line() {
        let mut log = RunLog::new(Vec::<u8>::new());
        log.line()
            .u64("step", 1)
            .f64("loss", 0.5)
            .f64("nan_field", f64::NAN)
            .bool("ok", true)
            .f64_slice("busy", &[0.5, 0.25])
            .usize_slice("stragglers", &[2])
            .end()
            .unwrap();
        log.line().u64("step", 2).end().unwrap();
        assert_eq!(log.records(), 2);
        let text = String::from_utf8(log.into_sink()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"step\":1,\"loss\":0.500000,\"nan_field\":null,\"ok\":true,\
             \"busy\":[0.500000,0.250000],\"stragglers\":[2]}"
        );
        assert_eq!(lines[1], "{\"step\":2}");
    }

    #[test]
    fn straggler_flags_below_fraction_of_median() {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        // BENCH_5's shape: stage 2 sits at 0.25 vs 0.48/0.50.
        straggler_stages(&[0.476, 0.496, 0.251], 0.6, &mut scratch, &mut out);
        assert_eq!(out, vec![2]);
        // All-even pipeline: nothing flagged.
        straggler_stages(&[0.5, 0.5, 0.5], 0.6, &mut scratch, &mut out);
        assert!(out.is_empty());
        // Degenerate inputs flag nothing.
        straggler_stages(&[0.5], 0.6, &mut scratch, &mut out);
        assert!(out.is_empty());
        straggler_stages(&[0.0, 0.0], 0.6, &mut scratch, &mut out);
        assert!(out.is_empty());
        // NaN busy fractions count as idle, never as the median bar.
        straggler_stages(&[f64::NAN, 0.5, 0.5], 0.6, &mut scratch, &mut out);
        assert_eq!(out, vec![0]);
    }
}
