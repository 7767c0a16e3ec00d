//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and bounds are written down. The harness reads them from
//! here, so the file the driver checks and the numbers the harness
//! prints cannot drift apart.

use dapple_bench::diff::{parse_json, Json};

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    /// `(name, why)` in file order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

impl Contract {
    pub fn load() -> Contract {
        Contract::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Contract, String> {
        let root = parse_json(text)?;
        let list = |key: &str| match root.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("`{key}` is not an array")),
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricDef {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: match text_of(item, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("better: `{other}`")),
                        },
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list("workloads")?
                .iter()
                .map(|item| Ok((text_of(item, "name")?, text_of(item, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_file_meets_the_contract_shape() {
        let c = Contract::load();
        assert!((2..=8).contains(&c.workloads.len()));
        assert!(c
            .workloads
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(c
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
    }

    #[test]
    fn malformed_files_are_refused() {
        assert!(Contract::parse("{}").is_err());
        let bad = r#"{"workloads": [], "per_layer": [], "run_seconds": 5,
            "end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}]}"#;
        assert!(Contract::parse(bad).unwrap_err().contains("sideways"));
    }
}
