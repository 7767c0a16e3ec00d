//! `compare <a.json> <b.json>`: is result set `b` worse than `a`?
//!
//! One verdict per (workload, end-to-end metric), from the bounds in
//! `BENCHMARK.json`: `worse` when `b`'s median is worse than `a`'s by
//! more than the bound, `unresolved` when either side's own rounds
//! spread wider than the bound (so the medians cannot tell), `within`
//! otherwise. Exit code 1 on any `worse`.

use crate::contract::{Contract, MetricDef};
use crate::json::{parse_json, Json};
use crate::stats::{median, spread};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

/// The verdict for one metric on one workload. `a` is the base.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    // Fewer than two rounds have no spread: nothing says the medians mean anything.
    let steady = |v: &[f64]| spread(v).is_some_and(|s| s <= bound);
    if !steady(a) || !steady(b) {
        return Verdict::Unresolved;
    }
    let (base, new) = (median(a), median(b));
    let worsening = if def.higher_is_better {
        base - new
    } else {
        new - base
    } / base.abs();
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Per-round raw values of `metric` on `workload` in a suite result file.
fn raw_values(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    match workload.get("end_to_end")?.get(metric)?.get("raw")? {
        Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
        _ => None,
    }
}

fn workloads_of(file: &Json) -> &[Json] {
    match file.get("workloads") {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

fn find<'a>(file: &'a Json, name: &str) -> Option<&'a Json> {
    workloads_of(file)
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Renders the comparison as a markdown table, one row per workload;
/// returns it with the number of `worse` and `unresolved` cells.
pub fn compare(contract: &Contract, a: &Json, b: &Json) -> (String, usize, usize) {
    let mut table = String::from("| workload |");
    for def in &contract.end_to_end {
        table.push_str(&format!(
            " {} [{}], bound {:.1}% |",
            def.name,
            def.unit,
            def.bound.unwrap_or(0.0) * 100.0
        ));
    }
    table.push_str("\n|---|");
    table.push_str(&"---|".repeat(contract.end_to_end.len()));
    let (mut worse, mut unresolved) = (0, 0);
    for (name, _) in &contract.workloads {
        table.push_str(&format!("\n| {name} |"));
        for def in &contract.end_to_end {
            let values = find(a, name)
                .and_then(|w| raw_values(w, &def.name))
                .zip(find(b, name).and_then(|w| raw_values(w, &def.name)));
            let Some((va, vb)) = values else {
                unresolved += 1;
                table.push_str(" missing: unresolved |");
                continue;
            };
            let v = verdict(def, &va, &vb);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            let (base, new) = (median(&va), median(&vb));
            let spreads = (
                spread(&va).unwrap_or(f64::NAN),
                spread(&vb).unwrap_or(f64::NAN),
            );
            table.push_str(&format!(
                " {new:.6} = {:.4}x of {base:.6} (spreads {:.1}% / {:.1}%): {} |",
                new / base,
                spreads.0 * 100.0,
                spreads.1 * 100.0,
                format!("{v:?}").to_lowercase()
            ));
        }
    }
    table.push('\n');
    (table, worse, unresolved)
}

/// What must repeat exactly between two runs of the same commit and
/// seed: the loss trajectory and the engine's exact counts.
fn exact_rows(a: &Json, b: &Json, contract: &Contract) -> String {
    const COUNTS: [&str; 6] = [
        "pipeline.workers",
        "pipeline.msgs_per_step",
        "pipeline.boundary_bytes_per_step",
        "collectives.calls_per_step",
        "recovery.retries",
        "checkpoint.saves",
    ];
    let mut out = String::new();
    for (name, _) in &contract.workloads {
        let (Some(wa), Some(wb)) = (find(a, name), find(b, name)) else {
            continue;
        };
        let hashes = |w: &Json| {
            w.get("trajectory_hash")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let (ha, hb) = (hashes(wa), hashes(wb));
        let same = |eq: bool| if eq { "identical" } else { "DIFFERS" };
        // One hash per distinct seed; the first is enough to recognise a file.
        let first = |h: &Option<String>| {
            h.as_deref()
                .and_then(|h| h.split(' ').next())
                .unwrap_or("?")
                .to_string()
        };
        out.push_str(&format!(
            "{name}: loss trajectories {} ({}… / {}…)",
            same(ha == hb),
            first(&ha),
            first(&hb)
        ));
        for count in COUNTS {
            let value = |w: &Json| w.get("per_layer")?.get(count)?.get("value")?.as_f64();
            if let (Some(ca), Some(cb)) = (value(wa), value(wb)) {
                out.push_str(&format!("; {count} {ca} / {cb} {}", same(ca == cb)));
            }
        }
        out.push('\n');
    }
    out
}

/// `compare <a.json> <b.json>`
pub fn cli(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: compare <base.json> <new.json>");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let contract = Contract::load();
    let (table, worse, unresolved) = compare(&contract, &a, &b);
    println!("each cell: new median = ratio x of base median (spread of base rounds / of new rounds): verdict\n");
    print!("{table}");
    println!("\n{}", exact_rows(&a, &b, &contract));
    println!("{worse} worse, {unresolved} unresolved");
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{nums, obj, text};

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = [100.0, 101.0, 99.0];
        // Lower is better: +5% is within a 10% bound, +15% is worse, any gain is within.
        assert_eq!(
            verdict(&def(false, 0.1), &base, &[105.0, 104.0, 106.0]),
            Verdict::Within
        );
        assert_eq!(
            verdict(&def(false, 0.1), &base, &[115.0, 114.0, 116.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&def(false, 0.1), &base, &[50.0, 50.5, 49.5]),
            Verdict::Within
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            verdict(&def(true, 0.1), &base, &[115.0, 114.0, 116.0]),
            Verdict::Within
        );
        assert_eq!(
            verdict(&def(true, 0.1), &base, &[85.0, 84.0, 86.0]),
            Verdict::Worse
        );
        // Rounds that disagree by more than the bound resolve nothing,
        // on either side, whatever the medians say.
        assert_eq!(
            verdict(&def(false, 0.1), &base, &[80.0, 150.0, 115.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&def(false, 0.1), &[80.0, 150.0, 100.0], &base),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&def(false, 0.1), &[100.0], &[100.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn table_has_one_row_per_workload_and_counts_verdicts() {
        let contract = Contract::load();
        let file = |scale: f64| {
            let workloads = contract.workloads.iter().map(|(name, _)| {
                let metrics = contract.end_to_end.iter().map(|d| {
                    let raw = nums(&[100.0 * scale, 100.5 * scale, 99.5 * scale]);
                    (d.name.clone(), obj([("raw", raw)]))
                });
                obj([("name", text(name)), ("end_to_end", obj(metrics))])
            });
            obj([("workloads", crate::json::arr(workloads))])
        };
        let (table, worse, unresolved) = compare(&contract, &file(1.0), &file(1.0));
        assert_eq!((worse, unresolved), (0, 0));
        assert_eq!(table.lines().count(), 2 + contract.workloads.len());
        assert!(table.contains("1.0000x of 100.000000"), "{table}");
        // 40% more of everything: every lower-is-better metric is worse.
        let lower = contract
            .end_to_end
            .iter()
            .filter(|d| !d.higher_is_better)
            .count();
        let (_, worse, _) = compare(&contract, &file(1.0), &file(1.4));
        assert_eq!(worse, lower * contract.workloads.len());
        // A file without the workloads resolves nothing.
        let (_, _, unresolved) = compare(
            &contract,
            &file(1.0),
            &obj([("workloads", crate::json::arr([]))]),
        );
        assert_eq!(
            unresolved,
            contract.end_to_end.len() * contract.workloads.len()
        );
    }
}
