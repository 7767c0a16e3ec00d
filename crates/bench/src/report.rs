//! The `dapple-bench/1` report: written by the `dapple-bench` binary
//! ([`render`]), read back by the barometer ([`BenchReport::parse`]).
//!
//! ```text
//! {"schema": "dapple-bench/1", "mode": "smoke" | "full",
//!  "provenance": {"commit": str | null, "timestamp": str | null, "host": str, "cores": n},
//!  "results": [{"group": str, "name": str, "iters": n, "ns_per_iter": x, ...extras}, ...]}
//! ```

use dapple_core::json::{parse_json, Json, Object};

/// Where a report came from. Commit and timestamp come from the CLI (the
/// binary has no git or clock-formatting dependency); reports from before
/// PR 8 carry no provenance at all.
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
        let mut s = self.commit.clone().unwrap_or_default();
        if let Some(t) = &self.timestamp {
            if !s.is_empty() {
                s.push('@');
            }
            s.push_str(t);
        }
        match &self.host {
            Some(h) if s.is_empty() => s.push_str(h),
            Some(h) => s = format!("{s} ({h})"),
            None if s.is_empty() => s.push_str("unknown"),
            None => {}
        }
        s
    }
}

/// One extra field of a [`Record`].
pub enum Field {
    U64(u64),
    /// Written with six decimals, `null` when non-finite.
    F64(f64),
    /// Written with the given number of decimals.
    Fixed(f64, usize),
    Bool(bool),
    Str(String),
    F64s(Vec<f64>),
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}

/// One measurement on its way into a report.
pub struct Record {
    pub group: &'static str,
    pub name: String,
    pub iters: u32,
    pub ns_per_iter: f64,
    pub extra: Vec<(&'static str, Field)>,
}

/// Renders a report. The host triple is compiled in and the core count
/// read here: every multi-threaded series depends on it.
pub fn render(
    mode: &str,
    commit: Option<&str>,
    timestamp: Option<&str>,
    records: &[Record],
) -> String {
    fn opt<'a>(o: Object<'a>, k: &str, v: Option<&str>) -> Object<'a> {
        match v {
            Some(v) => o.str(k, v),
            None => o.null(k),
        }
    }
    let host = format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS);
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut s = String::new();
    Object::new(&mut s)
        .spaced()
        .str("schema", "dapple-bench/1")
        .str("mode", mode)
        .object("provenance", |o| {
            opt(opt(o, "commit", commit), "timestamp", timestamp)
                .str("host", &host)
                .u64("cores", cores as u64)
        })
        .array("results", |results| {
            records.iter().fold(results.rows(), |results, r| {
                results.object(|o| {
                    let o = o
                        .str("group", r.group)
                        .str("name", &r.name)
                        .u64("iters", u64::from(r.iters))
                        .fixed("ns_per_iter", r.ns_per_iter, 1);
                    r.extra.iter().fold(o, |o, (k, v)| match v {
                        Field::U64(v) => o.u64(k, *v),
                        Field::F64(v) => o.f64(k, *v),
                        Field::Fixed(v, decimals) => o.fixed(k, *v, *decimals),
                        Field::Bool(v) => o.bool(k, *v),
                        Field::Str(v) => o.str(k, v),
                        Field::F64s(v) => o.f64_slice(k, v),
                    })
                })
            })
        })
        .end();
    s.push('\n');
    s
}

/// One measured series read from a report.
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
        let (_, v) = self.extra.iter().find(|(k, _)| k == key)?;
        v.as_f64()
    }

    /// The recorded min/max spread in microseconds, when present.
    pub fn spread_us(&self) -> Option<(f64, f64)> {
        let lo = self.extra_f64("measured_min_us")?;
        let hi = self.extra_f64("measured_max_us")?;
        (lo.is_finite() && hi.is_finite() && lo <= hi).then_some((lo, hi))
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
    /// Parses a report. Unknown top-level fields are ignored; the
    /// provenance header is optional.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = parse_json(text)?;
        match root.get("schema").and_then(Json::as_str) {
            Some("dapple-bench/1") => {}
            Some(other) => return Err(format!("unsupported schema: {other}")),
            None => return Err("missing \"schema\" field".to_string()),
        }
        let mode = root.get("mode").and_then(Json::as_str).unwrap_or("unknown");
        let header = |k: &str| {
            let v = root.get("provenance")?.get(k)?.as_str()?;
            Some(v.to_string())
        };
        let provenance = Provenance {
            commit: header("commit"),
            timestamp: header("timestamp"),
            host: header("host"),
        };
        let Some(Json::Arr(results)) = root.get("results") else {
            return Err("missing \"results\" array".to_string());
        };
        let mut series = Vec::with_capacity(results.len());
        for (i, r) in results.iter().enumerate() {
            let text = |k: &str| {
                let v = r.get(k).and_then(Json::as_str);
                v.ok_or_else(|| format!("result {i}: missing \"{k}\""))
            };
            let ns_per_iter = r
                .get("ns_per_iter")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("result {i}: missing \"ns_per_iter\""))?;
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
                group: text("group")?.to_string(),
                name: text("name")?.to_string(),
                iters: r.get("iters").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                ns_per_iter,
                extra,
            });
        }
        Ok(BenchReport {
            mode: mode.to_string(),
            provenance,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(BenchReport::parse("{\"schema\": \"other/9\", \"results\": []}").is_err());
        assert!(BenchReport::parse("{\"results\": []}").is_err());
    }
}
