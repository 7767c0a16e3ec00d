//! Barometer acceptance on the committed bench trajectory: BENCH_4.json
//! and BENCH_5.json must parse and report renamed series as missing, not
//! regressed, and the committed smoke baseline must give every gated
//! group something to check.

use dapple_bench::diff::{diff_reports, DiffOptions, NoiseRule, Verdict, HOT_PATH_GROUPS};
use dapple_bench::report::BenchReport;

fn fixture(name: &str) -> BenchReport {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {path}: {e}"));
    BenchReport::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

#[test]
fn bench4_and_bench5_fixtures_parse() {
    let old = fixture("BENCH_4.json");
    let new = fixture("BENCH_5.json");
    assert!(old.series.len() > 10);
    assert!(new.series.len() > 10);
    // Pre-PR-8 reports carry no provenance header.
    assert_eq!(old.provenance.label(), "unknown");
    // Every series has a usable timing.
    for s in old.series.iter().chain(&new.series) {
        assert!(
            s.ns_per_iter.is_finite() && s.ns_per_iter > 0.0,
            "{}",
            s.name
        );
    }
}

/// A gated group the binary stops emitting would pass every diff
/// silently: the baseline CI diffs against must hold each of them.
#[test]
fn every_gated_group_has_a_baseline_series() {
    let baseline = fixture("baselines/bench-smoke.json");
    for group in HOT_PATH_GROUPS {
        assert!(
            baseline.series.iter().any(|s| s.group == group),
            "no series of gated group {group} in the baseline"
        );
    }
}

#[test]
fn renamed_series_report_as_missing_not_regression() {
    let old = fixture("BENCH_4.json");
    let new = fixture("BENCH_5.json");
    let report = diff_reports(&old, &new, DiffOptions::default());
    // BENCH_4's single validation row vanished in BENCH_5's per-round
    // naming; both directions must surface as missing, not gate.
    assert!(report
        .rows
        .iter()
        .any(|r| r.group == "validation" && r.verdict == Verdict::MissingInOld));
    assert!(report
        .rows
        .iter()
        .any(|r| r.group == "validation" && r.verdict == Verdict::MissingInNew));
    for r in &report.rows {
        if matches!(r.verdict, Verdict::MissingInOld | Verdict::MissingInNew) {
            assert_eq!(r.rule, NoiseRule::None);
            assert!(r.rel_delta.is_none());
        }
    }
}
