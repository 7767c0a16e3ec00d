//! Barometer acceptance on the committed bench trajectory: BENCH_4.json
//! and BENCH_5.json must parse, compare under the spread rule where they
//! record spreads, and report renamed series as missing, not regressed.

use dapple_bench::diff::{diff_reports, DiffOptions, NoiseRule, Verdict};
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
    // The calibration rounds carry the min/max spread the noise rule
    // feeds on.
    assert!(
        new.series
            .iter()
            .filter(|s| s.group == "validation")
            .all(|s| s.spread_us().is_some()),
        "validation rounds must record spreads"
    );
}

#[test]
fn validation_rounds_compare_under_the_spread_rule() {
    // BENCH_5 renamed the validation series (per-round suffixes), so
    // cross-fixture they are missing-series rows; diff BENCH_5 against
    // itself to exercise the spread rule on real recorded spreads.
    let new = fixture("BENCH_5.json");
    let report = diff_reports(&new, &new, DiffOptions::default());
    let rounds: Vec<_> = report
        .rows
        .iter()
        .filter(|r| r.group == "validation")
        .collect();
    assert!(!rounds.is_empty());
    for r in rounds {
        assert_eq!(r.rule, NoiseRule::Spread, "{}", r.name);
        assert_eq!(r.verdict, Verdict::WithinNoise, "{}", r.name);
    }
    assert!(!report.gate_failed(), "identical reports never gate");
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
