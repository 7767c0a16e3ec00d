//! The pure statistics the benchmark reports with: medians, the tail
//! percentile rule, the quartile spread the driver judges steadiness by,
//! the loss-trajectory hash and the `VmHWM` reader.

/// Sorted copy (NaN-free input by construction: every sample is a
/// duration or a finite loss).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median; 0 for an empty slice (a layer that never ran).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-th percentile (nearest rank), or `None` when fewer than
/// `beyond` samples lie strictly above that rank — a tail estimated from
/// a handful of samples is not reported (choosing-metrics §1 asks for
/// ten).
pub fn percentile(values: &[f64], q: f64, beyond: usize) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    (v.len() - 1 - idx >= beyond).then(|| v[idx])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them — the driver measures
/// steadiness with exactly this.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped to the ends.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Inter-quartile distance as a share of the median: the steadiness
/// figure the benchmark contract bounds. `None` below two samples.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1).abs() / m.abs())
}

/// FNV-1a 64 over the bit patterns of a loss trajectory: equal hashes
/// mean bit-identical training, observed from outside the engine.
pub fn trajectory_hash(losses: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for loss in losses {
        for b in loss.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kib / 1024.0)
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_enough_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 samples is rank 190: exactly ten lie beyond.
        assert_eq!(percentile(&v, 95.0, 10), Some(190.0));
        // One sample fewer and only nine lie beyond rank 190 of 199.
        assert_eq!(percentile(&v[..199], 95.0, 10), None);
        assert_eq!(percentile(&v[..199], 95.0, 9), Some(190.0));
        assert_eq!(percentile(&v, 50.0, 10), Some(100.0));
        assert_eq!(percentile(&[], 50.0, 0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn trajectory_hash_sees_single_bit_changes() {
        let a = [0.5f32, 0.25, 0.125];
        let mut b = a;
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_eq!(trajectory_hash(&a), trajectory_hash(&a));
        assert_ne!(trajectory_hash(&a), trajectory_hash(&b));
        assert_eq!(trajectory_hash(&[]), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t   57328 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(57328.0 / 1024.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
