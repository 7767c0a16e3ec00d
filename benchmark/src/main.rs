//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! dapple-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! dapple-benchmark suite [--smoke] [--rounds n] [--seed n] [--vary-seed] [--out file]
//! dapple-benchmark compare <base.json> <new.json>
//! ```

mod compare;
mod contract;
mod hostclock;
mod json;
mod layers;
mod run;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::cli(&args[1..]),
        Some("suite") => suite::cli(&args[1..]),
        _ => run::cli(&args),
    }
}
