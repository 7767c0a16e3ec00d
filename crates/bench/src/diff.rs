//! The performance barometer: `dapple-bench diff <old.json> <new.json>`.
//!
//! Reads two bench reports (the `dapple-bench/1` schema written by the
//! `dapple-bench` binary), matches series by `(group, name)`, computes
//! per-series deltas under noise-aware thresholds, renders a markdown
//! comparison table, and produces a structured verdict. A run that slows
//! a named hot path ([`HOT_PATH_GROUPS`]) beyond threshold is a
//! *regression* and the CLI exits non-zero — the tripwire the
//! BENCH_3→BENCH_5 tracing-overhead drift (2% → 16%) merged without.
//!
//! Noise rules, in priority order per series:
//!
//! 1. **Spread intervals** — when both sides record
//!    `measured_min_us`/`measured_max_us` (the calibration loop's N-run
//!    spread), the series is within noise unless the two intervals are
//!    disjoint: a delta you cannot reproduce inside either run's own
//!    min..max spread is not a finding.
//! 2. **Overhead points** — series carrying `overhead_pct` (tracing and
//!    recovery overheads) are *ratios of two timings from the same
//!    process*; machine speed divides out, so they are compared in
//!    absolute percentage points (`--overhead-pts`, default 5.0) rather
//!    than by their raw ns deltas. Exception: a points increase does
//!    not gate when the series' absolute ns/iter improved beyond the
//!    relative threshold — a large speedup of the ratio's denominator
//!    (the clean/untraced cost) inflates the percentage even though
//!    everything got absolutely cheaper.
//! 3. **Relative threshold** — otherwise `|new - old| / old` must exceed
//!    `--threshold` (default 0.10) to leave the within-noise band.
//!
//! The old report is the *baseline*; deltas are `(new - old) / old`, so
//! positive means slower.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Groups whose slowdown fails the diff (the per-iteration hot paths the
/// planner's cost model and the runtime's step loop are judged by, plus
/// the recovery path — checkpoint saves run inside the training loop, so
/// a regression there taxes every step — and `dispatch`: what every
/// in-pipeline matmul pays around its kernel). The step itself is timed
/// by `benchmark/`, not here.
pub const HOT_PATH_GROUPS: [&str; 6] = [
    "matmul",
    "dispatch",
    "ring_allreduce",
    "inplace_reduce",
    "trace_overhead",
    "recovery",
];

/// Default relative threshold separating signal from timer noise when no
/// recorded spread is available.
pub const DEFAULT_REL_THRESHOLD: f64 = 0.10;

/// Default threshold, in absolute percentage points, for `overhead_pct`
/// series.
pub const DEFAULT_OVERHEAD_PTS: f64 = 5.0;

/// The report parser lives in `dapple_core::json`; re-exported because
/// report readers outside this crate reach it through `diff`.
pub use dapple_core::json::{parse_json, Json};

// ---------------------------------------------------------------------------
// Bench report model
// ---------------------------------------------------------------------------

/// Where a bench report came from (the optional provenance header new
/// reports carry).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Provenance {
    pub commit: Option<String>,
    pub timestamp: Option<String>,
    pub host: Option<String>,
}

impl Provenance {
    /// One-line label for table headers: `commit@timestamp (host)` with
    /// missing parts elided; `"unknown"` when nothing is recorded.
    pub fn label(&self) -> String {
        let mut s = String::new();
        if let Some(c) = &self.commit {
            s.push_str(c);
        }
        if let Some(t) = &self.timestamp {
            if !s.is_empty() {
                s.push('@');
            }
            s.push_str(t);
        }
        if let Some(h) = &self.host {
            if s.is_empty() {
                s.push_str(h);
            } else {
                let _ = write!(s, " ({h})");
            }
        }
        if s.is_empty() {
            s.push_str("unknown");
        }
        s
    }
}

/// One measured series from a bench report.
#[derive(Debug, Clone)]
pub struct Series {
    pub group: String,
    pub name: String,
    pub iters: u64,
    pub ns_per_iter: f64,
    /// The remaining fields of the record, verbatim.
    pub extra: Vec<(String, Json)>,
}

impl Series {
    fn extra_f64(&self, key: &str) -> Option<f64> {
        self.extra
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }

    /// The recorded min/max spread in microseconds, when present.
    pub fn spread_us(&self) -> Option<(f64, f64)> {
        match (
            self.extra_f64("measured_min_us"),
            self.extra_f64("measured_max_us"),
        ) {
            (Some(lo), Some(hi)) if lo.is_finite() && hi.is_finite() && lo <= hi => Some((lo, hi)),
            _ => None,
        }
    }

    /// The recorded overhead percentage, when present.
    pub fn overhead_pct(&self) -> Option<f64> {
        self.extra_f64("overhead_pct").filter(|v| v.is_finite())
    }
}

/// A parsed bench report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub mode: String,
    pub provenance: Provenance,
    pub series: Vec<Series>,
}

impl BenchReport {
    /// Parses the `dapple-bench/1` JSON schema. Unknown top-level fields
    /// are ignored; the provenance header is optional (pre-PR-8 reports
    /// don't have one).
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = parse_json(text)?;
        match root.get("schema").and_then(Json::as_str) {
            Some("dapple-bench/1") => {}
            Some(other) => return Err(format!("unsupported schema: {other}")),
            None => return Err("missing \"schema\" field".to_string()),
        }
        let mode = root
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let mut provenance = Provenance::default();
        if let Some(p) = root.get("provenance") {
            let s = |k: &str| p.get(k).and_then(Json::as_str).map(str::to_string);
            provenance = Provenance {
                commit: s("commit"),
                timestamp: s("timestamp"),
                host: s("host"),
            };
        }
        let Some(Json::Arr(results)) = root.get("results") else {
            return Err("missing \"results\" array".to_string());
        };
        let mut series = Vec::with_capacity(results.len());
        for (i, r) in results.iter().enumerate() {
            let group = r
                .get("group")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("result {i}: missing \"group\""))?
                .to_string();
            let name = r
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("result {i}: missing \"name\""))?
                .to_string();
            let ns_per_iter = r
                .get("ns_per_iter")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result {i}: missing \"ns_per_iter\""))?;
            let iters = r.get("iters").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let skip = ["group", "name", "iters", "ns_per_iter"];
            let extra = match r {
                Json::Obj(fields) => fields
                    .iter()
                    .filter(|(k, _)| !skip.contains(&k.as_str()))
                    .cloned()
                    .collect(),
                _ => Vec::new(),
            };
            series.push(Series {
                group,
                name,
                iters,
                ns_per_iter,
                extra,
            });
        }
        Ok(BenchReport {
            mode,
            provenance,
            series,
        })
    }
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

/// Which noise rule decided a series' verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseRule {
    /// Recorded min/max spread intervals on both sides.
    Spread,
    /// `overhead_pct` compared in absolute percentage points.
    OverheadPts,
    /// Relative threshold on `ns_per_iter`.
    Relative,
    /// Series present on only one side — no comparison made.
    None,
}

impl NoiseRule {
    fn label(self) -> &'static str {
        match self {
            NoiseRule::Spread => "spread",
            NoiseRule::OverheadPts => "overhead-pts",
            NoiseRule::Relative => "relative",
            NoiseRule::None => "-",
        }
    }
}

/// Per-series comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Slower beyond the noise bound.
    Regression,
    /// Faster beyond the noise bound.
    Improvement,
    /// Delta inside the noise bound.
    WithinNoise,
    /// Present only in the new report.
    MissingInOld,
    /// Present only in the old report.
    MissingInNew,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::WithinNoise => "within noise",
            Verdict::MissingInOld => "missing in old",
            Verdict::MissingInNew => "missing in new",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct SeriesDelta {
    pub group: String,
    pub name: String,
    pub old_ns: Option<f64>,
    pub new_ns: Option<f64>,
    /// `(new - old) / old`; `None` for one-sided series.
    pub rel_delta: Option<f64>,
    /// For `overhead_pct` series: the change in percentage points.
    pub overhead_delta_pts: Option<f64>,
    pub rule: NoiseRule,
    pub verdict: Verdict,
    /// Whether the group is gated (a hot path).
    pub hot_path: bool,
}

/// Thresholds for [`diff_reports`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative `ns_per_iter` threshold when no spread is recorded.
    pub rel_threshold: f64,
    /// Absolute percentage-point threshold for `overhead_pct` series.
    pub overhead_pts: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            rel_threshold: DEFAULT_REL_THRESHOLD,
            overhead_pts: DEFAULT_OVERHEAD_PTS,
        }
    }
}

/// The full comparison of two reports.
#[derive(Debug, Clone)]
pub struct DiffReport {
    pub old_label: String,
    pub new_label: String,
    pub old_mode: String,
    pub new_mode: String,
    pub rows: Vec<SeriesDelta>,
    pub options: DiffOptions,
}

impl DiffReport {
    /// Hot-path rows whose verdict is [`Verdict::Regression`] — the rows
    /// that make [`DiffReport::gate_failed`] true.
    pub fn hot_path_regressions(&self) -> impl Iterator<Item = &SeriesDelta> {
        self.rows
            .iter()
            .filter(|r| r.hot_path && r.verdict == Verdict::Regression)
    }

    /// True when any gated hot path regressed — the CLI exit condition.
    pub fn gate_failed(&self) -> bool {
        self.hot_path_regressions().next().is_some()
    }

    /// The markdown comparison table (plus header and verdict lines).
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# dapple-bench diff");
        let _ = writeln!(s);
        let _ = writeln!(s, "- old: `{}` (mode {})", self.old_label, self.old_mode);
        let _ = writeln!(s, "- new: `{}` (mode {})", self.new_label, self.new_mode);
        let _ = writeln!(
            s,
            "- thresholds: spread-disjoint where recorded; otherwise {:.1}% relative; \
             overhead series {:.1} pts absolute",
            self.options.rel_threshold * 100.0,
            self.options.overhead_pts
        );
        if self.old_mode != self.new_mode {
            let _ = writeln!(
                s,
                "- **warning**: comparing different modes ({} vs {}) — deltas are \
                 not meaningful",
                self.old_mode, self.new_mode
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "| group | series | old ns/iter | new ns/iter | delta | rule | verdict |"
        );
        let _ = writeln!(s, "|---|---|---:|---:|---:|---|---|");
        for r in &self.rows {
            let fmt_ns = |v: Option<f64>| match v {
                Some(v) => format!("{v:.1}"),
                None => "-".to_string(),
            };
            let delta = match (r.overhead_delta_pts, r.rel_delta) {
                (Some(pts), _) => format!("{pts:+.2} pts"),
                (None, Some(rel)) => format!("{:+.2}%", rel * 100.0),
                (None, None) => "-".to_string(),
            };
            let name = if r.hot_path {
                format!("**{}**", r.name)
            } else {
                r.name.clone()
            };
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} | {} | {} |",
                r.group,
                name,
                fmt_ns(r.old_ns),
                fmt_ns(r.new_ns),
                delta,
                r.rule.label(),
                r.verdict.label()
            );
        }
        let _ = writeln!(s);
        let regressions: Vec<&SeriesDelta> = self.hot_path_regressions().collect();
        if regressions.is_empty() {
            let _ = writeln!(s, "**Verdict: OK** — no hot-path regressions.");
        } else {
            let _ = writeln!(
                s,
                "**Verdict: REGRESSION** — {} hot-path series regressed:",
                regressions.len()
            );
            for r in regressions {
                let _ = writeln!(s, "- `{}/{}`", r.group, r.name);
            }
        }
        s
    }

    /// The structured verdict as a JSON object: overall status plus one
    /// entry per hot-path regression (machine-readable CI output).
    pub fn verdict_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(
            s,
            "  \"verdict\": \"{}\",",
            if self.gate_failed() {
                "regression"
            } else {
                "ok"
            }
        );
        let _ = writeln!(s, "  \"old\": \"{}\",", self.old_label);
        let _ = writeln!(s, "  \"new\": \"{}\",", self.new_label);
        s.push_str("  \"hot_path_regressions\": [\n");
        let regressions: Vec<&SeriesDelta> = self.hot_path_regressions().collect();
        for (i, r) in regressions.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"group\": \"{}\", \"name\": \"{}\", \"old_ns\": {}, \
                 \"new_ns\": {}, \"rel_delta\": {}, \"overhead_delta_pts\": {}, \
                 \"rule\": \"{}\"}}",
                r.group,
                r.name,
                fmt_json_opt(r.old_ns),
                fmt_json_opt(r.new_ns),
                fmt_json_opt(r.rel_delta),
                fmt_json_opt(r.overhead_delta_pts),
                r.rule.label()
            );
            s.push_str(if i + 1 < regressions.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn fmt_json_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.6}"),
        _ => "null".to_string(),
    }
}

/// Compares two reports series-by-series. Rows follow the new report's
/// order, with series that vanished appended at the end.
pub fn diff_reports(old: &BenchReport, new: &BenchReport, options: DiffOptions) -> DiffReport {
    let mut old_by_key: BTreeMap<(&str, &str), &Series> = BTreeMap::new();
    for s in &old.series {
        old_by_key.insert((s.group.as_str(), s.name.as_str()), s);
    }
    let mut rows = Vec::new();
    for new_s in &new.series {
        let key = (new_s.group.as_str(), new_s.name.as_str());
        let hot_path = HOT_PATH_GROUPS.contains(&new_s.group.as_str());
        match old_by_key.remove(&key) {
            Some(old_s) => rows.push(compare_series(old_s, new_s, hot_path, options)),
            None => rows.push(SeriesDelta {
                group: new_s.group.clone(),
                name: new_s.name.clone(),
                old_ns: None,
                new_ns: Some(new_s.ns_per_iter),
                rel_delta: None,
                overhead_delta_pts: None,
                rule: NoiseRule::None,
                verdict: Verdict::MissingInOld,
                hot_path,
            }),
        }
    }
    for (_, old_s) in old_by_key {
        rows.push(SeriesDelta {
            group: old_s.group.clone(),
            name: old_s.name.clone(),
            old_ns: Some(old_s.ns_per_iter),
            new_ns: None,
            rel_delta: None,
            overhead_delta_pts: None,
            rule: NoiseRule::None,
            verdict: Verdict::MissingInNew,
            hot_path: HOT_PATH_GROUPS.contains(&old_s.group.as_str()),
        });
    }
    DiffReport {
        old_label: old.provenance.label(),
        new_label: new.provenance.label(),
        old_mode: old.mode.clone(),
        new_mode: new.mode.clone(),
        rows,
        options,
    }
}

fn compare_series(old: &Series, new: &Series, hot_path: bool, options: DiffOptions) -> SeriesDelta {
    let rel_delta = if old.ns_per_iter > 0.0 {
        Some((new.ns_per_iter - old.ns_per_iter) / old.ns_per_iter)
    } else {
        None
    };

    // Rule 2 first: an overhead series is gated on its ratio, because the
    // underlying ns/iter also moves with machine speed and bench shape.
    //
    // One carve-out: a points *increase* does not gate when the series'
    // absolute cost improved past the relative threshold. The ratio's
    // denominator is the un-instrumented/clean cost, so a large speedup
    // there mechanically inflates the ratio even when every absolute
    // number got cheaper — e.g. a kernel rewrite that cuts the clean
    // step 2.6× leaves the (memory-bound) rollback cost nearly fixed,
    // and the recovered-step "overhead" climbs from 34% to ~50% while
    // the recovered step itself drops 3×. That is not a regression; the
    // relative rule below classifies it from the absolute cost instead.
    if let (Some(old_pct), Some(new_pct)) = (old.overhead_pct(), new.overhead_pct()) {
        let pts = new_pct - old_pct;
        let abs_cost_improved = rel_delta.is_some_and(|d| d < -options.rel_threshold);
        if pts > options.overhead_pts && abs_cost_improved {
            return SeriesDelta {
                group: new.group.clone(),
                name: new.name.clone(),
                old_ns: Some(old.ns_per_iter),
                new_ns: Some(new.ns_per_iter),
                rel_delta,
                overhead_delta_pts: Some(pts),
                rule: NoiseRule::Relative,
                verdict: Verdict::Improvement,
                hot_path,
            };
        }
        let verdict = if pts > options.overhead_pts {
            Verdict::Regression
        } else if pts < -options.overhead_pts {
            Verdict::Improvement
        } else {
            Verdict::WithinNoise
        };
        return SeriesDelta {
            group: new.group.clone(),
            name: new.name.clone(),
            old_ns: Some(old.ns_per_iter),
            new_ns: Some(new.ns_per_iter),
            rel_delta,
            overhead_delta_pts: Some(pts),
            rule: NoiseRule::OverheadPts,
            verdict,
            hot_path,
        };
    }

    // Rule 1: recorded spreads on both sides — within noise unless the
    // intervals are disjoint.
    if let (Some((old_lo, old_hi)), Some((new_lo, new_hi))) = (old.spread_us(), new.spread_us()) {
        let verdict = if new_lo > old_hi {
            Verdict::Regression
        } else if new_hi < old_lo {
            Verdict::Improvement
        } else {
            Verdict::WithinNoise
        };
        return SeriesDelta {
            group: new.group.clone(),
            name: new.name.clone(),
            old_ns: Some(old.ns_per_iter),
            new_ns: Some(new.ns_per_iter),
            rel_delta,
            overhead_delta_pts: None,
            rule: NoiseRule::Spread,
            verdict,
            hot_path,
        };
    }

    // Rule 3: relative threshold.
    let verdict = match rel_delta {
        Some(d) if d > options.rel_threshold => Verdict::Regression,
        Some(d) if d < -options.rel_threshold => Verdict::Improvement,
        _ => Verdict::WithinNoise,
    };
    SeriesDelta {
        group: new.group.clone(),
        name: new.name.clone(),
        old_ns: Some(old.ns_per_iter),
        new_ns: Some(new.ns_per_iter),
        rel_delta,
        overhead_delta_pts: None,
        rule: NoiseRule::Relative,
        verdict,
        hot_path,
    }
}

/// The `diff` subcommand: parse, compare, print markdown, optionally
/// write artifacts, return the process exit code (0 ok, 1 regression,
/// 2 usage/IO error). Split from `main` so tests drive it directly.
pub fn run_diff_cli(args: &[String]) -> i32 {
    let mut paths = Vec::new();
    let mut options = DiffOptions::default();
    let mut md_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    let usage = "usage: dapple-bench diff <old.json> <new.json> \
                 [--threshold REL] [--overhead-pts PTS] [--md PATH] [--json PATH]";
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => options.rel_threshold = v,
                None => {
                    eprintln!("--threshold needs a number\n{usage}");
                    return 2;
                }
            },
            "--overhead-pts" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => options.overhead_pts = v,
                None => {
                    eprintln!("--overhead-pts needs a number\n{usage}");
                    return 2;
                }
            },
            "--md" => match it.next() {
                Some(v) => md_out = Some(v.clone()),
                None => {
                    eprintln!("--md needs a path\n{usage}");
                    return 2;
                }
            },
            "--json" => match it.next() {
                Some(v) => json_out = Some(v.clone()),
                None => {
                    eprintln!("--json needs a path\n{usage}");
                    return 2;
                }
            },
            _ if a.starts_with('-') => {
                eprintln!("unknown flag: {a}\n{usage}");
                return 2;
            }
            _ => paths.push(a.clone()),
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("{usage}");
        return 2;
    };
    let load = |path: &str| -> Result<BenchReport, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        BenchReport::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => {
            for r in [o, n] {
                if let Err(e) = r {
                    eprintln!("dapple-bench diff: {e}");
                }
            }
            return 2;
        }
    };
    let report = diff_reports(&old, &new, options);
    let md = report.to_markdown();
    print!("{md}");
    if let Some(path) = md_out {
        if let Err(e) = std::fs::write(&path, &md) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
    }
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report.verdict_json()) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
    }
    if report.gate_failed() {
        eprintln!("dapple-bench diff: hot-path regression (see table above)");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (group, name, ns_per_iter, extra numeric fields).
    type SeriesSpec<'a> = (&'a str, &'a str, f64, &'a [(&'a str, f64)]);

    fn report(series: &[SeriesSpec<'_>]) -> BenchReport {
        BenchReport {
            mode: "full".into(),
            provenance: Provenance::default(),
            series: series
                .iter()
                .map(|(g, n, ns, extra)| Series {
                    group: g.to_string(),
                    name: n.to_string(),
                    iters: 10,
                    ns_per_iter: *ns,
                    extra: extra
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(BenchReport::parse("{\"schema\": \"other/9\", \"results\": []}").is_err());
        assert!(BenchReport::parse("{\"results\": []}").is_err());
    }

    #[test]
    fn relative_rule_splits_three_ways() {
        let old = report(&[
            ("matmul", "a", 100.0, &[]),
            ("matmul", "b", 100.0, &[]),
            ("matmul", "c", 100.0, &[]),
        ]);
        let new = report(&[
            ("matmul", "a", 125.0, &[]),
            ("matmul", "b", 75.0, &[]),
            ("matmul", "c", 105.0, &[]),
        ]);
        let d = diff_reports(&old, &new, DiffOptions::default());
        let verdicts: Vec<Verdict> = d.rows.iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::Regression,
                Verdict::Improvement,
                Verdict::WithinNoise
            ]
        );
        assert!(d.gate_failed());
    }

    #[test]
    fn spread_rule_overrides_relative() {
        // +25% slower but the min/max intervals overlap: noise.
        let extras_old: &[(&str, f64)] = &[("measured_min_us", 90.0), ("measured_max_us", 130.0)];
        let extras_new: &[(&str, f64)] = &[("measured_min_us", 120.0), ("measured_max_us", 140.0)];
        let old = report(&[("validation", "v", 100_000.0, extras_old)]);
        let new = report(&[("validation", "v", 125_000.0, extras_new)]);
        let d = diff_reports(&old, &new, DiffOptions::default());
        assert_eq!(d.rows[0].rule, NoiseRule::Spread);
        assert_eq!(d.rows[0].verdict, Verdict::WithinNoise);
    }

    #[test]
    fn overhead_rule_flags_points_not_ns() {
        // ns delta is only +8%, below the relative threshold, but the
        // overhead ratio exploded — exactly the BENCH_4→5 shape.
        let old = report(&[(
            "trace_overhead",
            "on",
            23_830_144.0,
            &[("overhead_pct", 1.4)],
        )]);
        let new = report(&[(
            "trace_overhead",
            "on",
            25_839_580.0,
            &[("overhead_pct", 16.2)],
        )]);
        let d = diff_reports(&old, &new, DiffOptions::default());
        assert_eq!(d.rows[0].rule, NoiseRule::OverheadPts);
        assert_eq!(d.rows[0].verdict, Verdict::Regression);
        assert!(d.gate_failed());
    }

    /// A points increase with a large *absolute* improvement is the
    /// faster-denominator shape (BENCH_6→7: the kernel rewrite cut the
    /// clean step 2.6×, the memory-bound rollback stayed fixed, so the
    /// recovered step dropped 3× while its ratio climbed 34% → ~50%).
    /// Nothing got slower; the carve-out classifies from absolute cost.
    #[test]
    fn overhead_rule_yields_to_large_absolute_improvement() {
        let old = report(&[(
            "recovery",
            "supervised_step_recovered",
            34_741_564.0,
            &[("overhead_pct", 34.2)],
        )]);
        let new = report(&[(
            "recovery",
            "supervised_step_recovered",
            11_131_889.0,
            &[("overhead_pct", 49.3)],
        )]);
        let d = diff_reports(&old, &new, DiffOptions::default());
        assert_eq!(d.rows[0].rule, NoiseRule::Relative);
        assert_eq!(d.rows[0].verdict, Verdict::Improvement);
        assert!(!d.gate_failed());
        // The points increase is still surfaced in the row for readers.
        assert_eq!(d.rows[0].overhead_delta_pts, Some(49.3 - 34.2));
        // With the absolute cost merely flat, the points rule still gates
        // (the BENCH_4→5 artifact shape must keep failing).
        let flat = report(&[(
            "recovery",
            "supervised_step_recovered",
            34_000_000.0,
            &[("overhead_pct", 49.3)],
        )]);
        let d = diff_reports(&old, &flat, DiffOptions::default());
        assert_eq!(d.rows[0].rule, NoiseRule::OverheadPts);
        assert_eq!(d.rows[0].verdict, Verdict::Regression);
    }

    #[test]
    fn missing_series_never_gate() {
        let old = report(&[("matmul", "gone", 100.0, &[])]);
        let new = report(&[("matmul", "fresh", 100.0, &[])]);
        let d = diff_reports(&old, &new, DiffOptions::default());
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.rows[0].verdict, Verdict::MissingInOld);
        assert_eq!(d.rows[1].verdict, Verdict::MissingInNew);
        assert!(!d.gate_failed());
    }

    #[test]
    fn non_hot_path_regression_does_not_gate() {
        let old = report(&[("validation", "round0", 100.0, &[])]);
        let new = report(&[("validation", "round0", 200.0, &[])]);
        let d = diff_reports(&old, &new, DiffOptions::default());
        assert_eq!(d.rows[0].verdict, Verdict::Regression);
        assert!(!d.gate_failed());
    }

    /// The recovery group rides the training loop's hot path (checkpoint
    /// saves), so its regressions gate.
    #[test]
    fn recovery_regression_gates() {
        let old = report(&[("recovery", "checkpoint_save", 100.0, &[])]);
        let new = report(&[("recovery", "checkpoint_save", 400.0, &[])]);
        let d = diff_reports(&old, &new, DiffOptions::default());
        assert_eq!(d.rows[0].verdict, Verdict::Regression);
        assert!(d.gate_failed());
    }

    #[test]
    fn markdown_has_header_rows_and_verdict() {
        let old = report(&[("matmul", "a", 100.0, &[])]);
        let new = report(&[("matmul", "a", 300.0, &[])]);
        let md = diff_reports(&old, &new, DiffOptions::default()).to_markdown();
        assert!(md.contains("| group | series |"));
        assert!(md.contains("| matmul | **a** |"));
        assert!(md.contains("**Verdict: REGRESSION**"));
    }
}
