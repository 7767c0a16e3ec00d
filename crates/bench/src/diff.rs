//! The performance barometer: `dapple-bench diff <old.json> <new.json>`.
//!
//! Reads two bench reports ([`crate::report`]), matches series by
//! `(group, name)`, computes per-series deltas, renders a markdown
//! comparison table, and produces a structured verdict. A run that slows
//! a named hot path ([`HOT_PATH_GROUPS`]) beyond threshold is a
//! *regression* and the CLI exits non-zero.
//!
//! One noise rule judges every series: `|new - old| / old` must exceed
//! `--threshold` (default 0.10) to leave the within-noise band.
//!
//! What tracing costs a step is not measured here: `benchmark/` reports
//! `trace.overhead_pct` on every workload against a probe-normalised clock.
//!
//! The old report is the *baseline*; deltas are `(new - old) / old`, so
//! positive means slower.

use crate::flags;
use crate::report::{BenchReport, Series};
use dapple_core::json::Object;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Groups whose slowdown fails the diff: functions a step calls — the
/// packed forward product, what every in-pipeline matmul pays around its
/// kernel (`dispatch`), the replica gradient sync, and the passes between
/// steps that recovery adds. The step itself is timed by `benchmark/`,
/// not here.
pub const HOT_PATH_GROUPS: [&str; 4] = ["matmul", "dispatch", "inplace_reduce", "recovery"];

/// Default relative threshold separating signal from timer noise.
pub const DEFAULT_REL_THRESHOLD: f64 = 0.10;

/// The report parser lives in `dapple_core::json`; re-exported because
/// report readers outside this crate reach it through `diff`.
pub use dapple_core::json::{parse_json, Json};

/// Which noise rule decided a series' verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseRule {
    /// Relative threshold on `ns_per_iter`.
    Relative,
    /// Series present on only one side — no comparison made.
    None,
}

impl NoiseRule {
    fn label(self) -> &'static str {
        match self {
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
    pub rule: NoiseRule,
    pub verdict: Verdict,
    /// Whether the group is gated (a hot path).
    pub hot_path: bool,
}

/// Thresholds for [`diff_reports`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Relative `ns_per_iter` threshold.
    pub rel_threshold: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            rel_threshold: DEFAULT_REL_THRESHOLD,
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
            "- threshold: {:.1}% relative",
            self.options.rel_threshold * 100.0
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
            let delta = match r.rel_delta {
                Some(rel) => format!("{:+.2}%", rel * 100.0),
                None => "-".to_string(),
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
        let verdict = if self.gate_failed() {
            "regression"
        } else {
            "ok"
        };
        let mut s = String::new();
        Object::new(&mut s)
            .spaced()
            .str("verdict", verdict)
            .str("old", &self.old_label)
            .str("new", &self.new_label)
            .array("hot_path_regressions", |rows| {
                // `None` is written as a non-finite float is: `null`.
                let num = |v: Option<f64>| v.unwrap_or(f64::NAN);
                self.hot_path_regressions().fold(rows.rows(), |rows, r| {
                    rows.object(|o| {
                        o.str("group", &r.group)
                            .str("name", &r.name)
                            .f64("old_ns", num(r.old_ns))
                            .f64("new_ns", num(r.new_ns))
                            .f64("rel_delta", num(r.rel_delta))
                            .str("rule", r.rule.label())
                    })
                })
            })
            .end();
        s.push('\n');
        s
    }
}

impl SeriesDelta {
    /// The row of a series present on the sides given (at least one):
    /// one-sided rows are final, two-sided ones await [`compare_series`].
    fn new(old: Option<&Series>, new: Option<&Series>) -> Self {
        let side = new.or(old).expect("a row compares at least one series");
        let (old_ns, new_ns) = (old.map(|s| s.ns_per_iter), new.map(|s| s.ns_per_iter));
        SeriesDelta {
            group: side.group.clone(),
            name: side.name.clone(),
            old_ns,
            new_ns,
            rel_delta: match (old_ns, new_ns) {
                (Some(old), Some(new)) if old > 0.0 => Some((new - old) / old),
                _ => None,
            },
            rule: NoiseRule::None,
            verdict: match (old, new) {
                (None, _) => Verdict::MissingInOld,
                (_, None) => Verdict::MissingInNew,
                _ => Verdict::WithinNoise,
            },
            hot_path: HOT_PATH_GROUPS.contains(&side.group.as_str()),
        }
    }
}

/// Compares two reports series-by-series. Rows follow the new report's
/// order, with series that vanished appended at the end.
pub fn diff_reports(old: &BenchReport, new: &BenchReport, options: DiffOptions) -> DiffReport {
    fn key(s: &Series) -> (&str, &str) {
        (&s.group, &s.name)
    }
    let mut old_by_key: BTreeMap<_, _> = old.series.iter().map(|s| (key(s), s)).collect();
    let mut rows: Vec<_> = new
        .series
        .iter()
        .map(|new_s| match old_by_key.remove(&key(new_s)) {
            Some(old_s) => compare_series(old_s, new_s, options),
            None => SeriesDelta::new(None, Some(new_s)),
        })
        .collect();
    let gone = old_by_key.into_values();
    rows.extend(gone.map(|old_s| SeriesDelta::new(Some(old_s), None)));
    DiffReport {
        old_label: old.provenance.label(),
        new_label: new.provenance.label(),
        old_mode: old.mode.clone(),
        new_mode: new.mode.clone(),
        rows,
        options,
    }
}

fn compare_series(old: &Series, new: &Series, options: DiffOptions) -> SeriesDelta {
    let mut row = SeriesDelta::new(Some(old), Some(new));
    row.rule = NoiseRule::Relative;
    match row.rel_delta {
        Some(d) if d > options.rel_threshold => row.verdict = Verdict::Regression,
        Some(d) if d < -options.rel_threshold => row.verdict = Verdict::Improvement,
        _ => {}
    }
    row
}

/// The `diff` subcommand: parse, compare, print markdown, optionally
/// write artifacts, return the process exit code (0 ok, 1 regression,
/// 2 usage/IO error).
pub fn run_diff_cli(args: &[String]) -> i32 {
    let usage = "usage: dapple-bench diff <old.json> <new.json> \
                 [--threshold REL] [--md PATH] [--json PATH]";
    let mut paths = Vec::new();
    let mut options = DiffOptions::default();
    let (mut md_out, mut json_out) = (None, None);
    let mut it = args.iter();
    let mut parse = || {
        while let Some(a) = it.next() {
            match a.as_str() {
                "--threshold" => options.rel_threshold = flags::number(&mut it, a)?,
                "--md" => md_out = Some(flags::value(&mut it, a, "a path")?),
                "--json" => json_out = Some(flags::value(&mut it, a, "a path")?),
                _ if a.starts_with('-') => return Err(format!("unknown flag: {a}")),
                _ => paths.push(a.as_str()),
            }
        }
        Ok(())
    };
    if let Err(e) = parse() {
        eprintln!("{e}\n{usage}");
        return 2;
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
            for e in [o.err(), n.err()].into_iter().flatten() {
                eprintln!("dapple-bench diff: {e}");
            }
            return 2;
        }
    };
    let report = diff_reports(&old, &new, options);
    let md = report.to_markdown();
    print!("{md}");
    for (path, text) in [(md_out, &md), (json_out, &report.verdict_json())] {
        let Some(path) = path else { continue };
        if let Err(e) = std::fs::write(path, text) {
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
    use crate::report::{render, Provenance};

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

    /// What `render` writes `parse` reads — typed extras, a non-finite
    /// value as `null` — and labels, which come from the compared files,
    /// are escaped: a quote or a backslash in a commit must not break the
    /// verdict document.
    #[test]
    fn rendered_reports_diff_to_a_parseable_verdict() {
        use crate::report::{Field, Record};
        let side = |ns_per_iter| {
            let record = Record {
                group: "matmul",
                name: "m\"32".into(),
                iters: 5,
                ns_per_iter,
                extra: vec![
                    ("dim", 32.into()),
                    ("gflops", f64::INFINITY.into()),
                    ("gib_per_s", Field::Fixed(0.12345, 4)),
                    ("busy", Field::F64s(vec![0.5, 0.25])),
                ],
            };
            BenchReport::parse(&render("smoke", Some("a\"b\\c"), None, &[record])).unwrap()
        };
        let (old, new) = (side(100.0), side(300.04));
        assert_eq!((new.series[0].iters, new.series[0].ns_per_iter), (5, 300.0));
        let busy = Json::Arr(vec![Json::Num(0.5), Json::Num(0.25)]);
        let want = [Json::Num(32.0), Json::Null, Json::Num(0.1235), busy];
        let got: Vec<_> = new.series[0].extra.iter().map(|(_, v)| v.clone()).collect();
        assert_eq!(got, want);

        let verdict = parse_json(&diff_reports(&old, &new, DiffOptions::default()).verdict_json());
        let verdict = verdict.unwrap();
        let text = |k| verdict.get(k).and_then(Json::as_str).unwrap();
        assert_eq!(text("verdict"), "regression");
        assert!(text("old").starts_with("a\"b\\c ("), "{}", text("old"));
        let Some(Json::Arr(rows)) = verdict.get("hot_path_regressions") else {
            panic!("regressions listed: {verdict:?}");
        };
        assert_eq!(rows[0].get("name"), Some(&Json::Str("m\"32".into())));
        assert_eq!(rows[0].get("rel_delta"), Some(&Json::Num(2.0)));
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

    /// A threshold no delta can exceed (`nan`, `inf`) or that every delta
    /// exceeds (a negative one) is a usage error, not a silent gate. The
    /// flags are parsed before the files are read; the committed baseline
    /// diffed against itself shows that a valid threshold gets past them.
    #[test]
    fn malformed_thresholds_exit_2() {
        let baseline = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../baselines/bench-smoke.json"
        );
        let cli = |threshold: &str| {
            run_diff_cli(&[baseline, baseline, "--threshold", threshold].map(String::from))
        };
        assert_eq!(cli("2.0"), 0);
        for bad in ["nan", "inf", "-0.5"] {
            assert_eq!(cli(bad), 2, "--threshold {bad}");
        }
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
