//! `suite`: every workload, several rounds, one result file.
//!
//! Each (workload, round) is a child process of this same binary — a
//! fresh address space, so `peak_rss_mib` is that run's own — and rounds
//! are interleaved across workloads, so slow drift of the host lands on
//! all of them alike. The result file keeps the raw value of every round
//! beside each median; `compare` judges two such files.

use crate::contract::Contract;
use crate::json::{self, parse_json, Json};
use crate::stats::{median, spread};
use std::process::{Command, ExitCode, Stdio};

struct ChildRun {
    /// The contract's result line.
    result: Json,
    /// The `detail:` line: provenance and raw data.
    detail: Json,
    ok: bool,
}

/// Runs one workload once in a child process and parses what it printed.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or("child printed no detail line")?;
    if trace {
        // The ledger is the traced run's human-readable product.
        stdout
            .lines()
            .filter(|l| l.starts_with("ledger") || l.starts_with("  "))
            .for_each(|l| println!("{l}"));
    }
    let result = parse_json(last)?;
    let ok = output.status.success() && result.get("correct") == Some(&Json::Bool(true));
    Ok(ChildRun {
        result,
        detail: parse_json(detail)?,
        ok,
    })
}

fn metric_value(run: &ChildRun, name: &str) -> f64 {
    let value = run
        .result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"));
    value.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn count(run: &ChildRun, key: &str) -> f64 {
    run.result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn git_commit() -> String {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// `suite [--smoke] [--rounds n] [--seed n] [--vary-seed] [--seconds s] [--out file]`
pub fn cli(args: &[String]) -> ExitCode {
    let contract = Contract::load();
    let (mut smoke, mut vary_seed, mut rounds, mut seed) = (false, false, 3u64, 11u64);
    let mut seconds = contract.run_seconds;
    let mut out = crate::layers::out_dir().join("result.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut number = || {
            it.next()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| *v >= 0.0)
        };
        let understood = match flag.as_str() {
            "--smoke" => {
                smoke = true;
                true
            }
            "--vary-seed" => {
                vary_seed = true;
                true
            }
            "--rounds" => number()
                .filter(|r| *r >= 1.0)
                .map(|r| rounds = r as u64)
                .is_some(),
            "--seed" => number().map(|s| seed = s as u64).is_some(),
            "--seconds" => number().map(|s| seconds = s).is_some(),
            "--out" => it.next().map(|path| out = path.into()).is_some(),
            _ => false,
        };
        if !understood {
            eprintln!("error: bad argument `{flag}`");
            eprintln!("usage: suite [--smoke] [--rounds n] [--seed n] [--vary-seed] [--seconds s] [--out file]");
            return ExitCode::from(2);
        }
    }
    if smoke {
        rounds = 1;
    }

    let names: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let mut runs: Vec<Vec<ChildRun>> = names.iter().map(|_| Vec::new()).collect();
    let mut traced = Vec::new();
    let mut broken = Vec::new();
    let mut launch = |name: &str, seed: u64, trace: bool, label: String| {
        println!("{label}: {name}, seed {seed}");
        match child(name, seed, seconds, trace, smoke) {
            Ok(run) => {
                if !run.ok {
                    broken.push(format!("{label} of {name} failed its checks"));
                }
                Some(run)
            }
            Err(e) => {
                broken.push(format!("{label} of {name}: {e}"));
                None
            }
        }
    };
    for round in 0..rounds {
        let round_seed = if vary_seed { seed + round } else { seed };
        for (i, name) in names.iter().enumerate() {
            runs[i].extend(launch(
                name,
                round_seed,
                false,
                format!("round {}/{rounds}", round + 1),
            ));
        }
    }
    for name in &names {
        traced.push(launch(name, seed, true, "traced run".to_string()));
    }

    let mut workloads = Vec::new();
    for ((name, rounds), traced) in names.iter().zip(&runs).zip(&traced) {
        println!("\n{name} — {} rounds", rounds.len());
        let end_to_end = contract.end_to_end.iter().map(|def| {
            let raw: Vec<f64> = rounds.iter().map(|r| metric_value(r, &def.name)).collect();
            let spread = spread(&raw);
            println!(
                "  {:<16} {:>16.6} {:<10} spread {}",
                def.name,
                median(&raw),
                def.unit,
                spread.map_or("n/a".to_string(), |s| format!(
                    "{:.2}% (bound {:.1}%)",
                    s * 100.0,
                    def.bound.unwrap_or(0.0) * 100.0
                ))
            );
            let entry = json::obj([
                ("unit", json::text(&def.unit)),
                ("median", Json::Num(median(&raw))),
                ("spread", spread.map_or(Json::Null, Json::Num)),
                ("raw", json::nums(&raw)),
            ]);
            (def.name.clone(), entry)
        });
        let end_to_end = json::obj(end_to_end.collect::<Vec<_>>());
        let per_layer = contract.per_layer.iter().filter_map(|def| {
            let run = traced.as_ref()?;
            let entry = json::obj([
                ("unit", json::text(&def.unit)),
                ("value", Json::Num(metric_value(run, &def.name))),
            ]);
            Some((def.name.clone(), entry))
        });
        let per_layer = json::obj(per_layer.collect::<Vec<_>>());
        let mut hashes: Vec<String> = rounds
            .iter()
            .filter_map(|r| {
                r.detail
                    .get("trajectory_hash")?
                    .as_str()
                    .map(str::to_string)
            })
            .collect();
        hashes.dedup();
        if !vary_seed && hashes.len() != 1 {
            broken.push(format!(
                "{name}: loss trajectories differ across rounds: {hashes:?}"
            ));
        }
        workloads.push(json::obj([
            ("name", json::text(*name)),
            ("trajectory_hash", json::text(hashes.join(" "))),
            (
                "steps_attempted",
                Json::Num(rounds.iter().map(|r| count(r, "attempted")).sum()),
            ),
            (
                "steps_failed",
                Json::Num(rounds.iter().map(|r| count(r, "failed")).sum()),
            ),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
            ("rounds", json::arr(rounds.iter().map(|r| r.detail.clone()))),
            (
                "traced",
                traced.as_ref().map_or(Json::Null, |r| r.detail.clone()),
            ),
        ]));
    }

    let file = json::obj([
        (
            "provenance",
            json::obj([
                ("commit", json::text(git_commit())),
                ("seed", Json::Num(seed as f64)),
                ("vary_seed", Json::Bool(vary_seed)),
                ("rounds", Json::Num(rounds as f64)),
                ("seconds", Json::Num(seconds)),
                ("smoke", Json::Bool(smoke)),
            ]),
        ),
        ("workloads", json::arr(workloads)),
    ]);
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, json::render(&file) + "\n"));
    match written {
        Ok(()) => println!("\nresult file: {}", out.display()),
        Err(e) => broken.push(format!("cannot write {}: {e}", out.display())),
    }
    for problem in &broken {
        eprintln!("error: {problem}");
    }
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
