//! # dapple-bench
//!
//! The benchmark harness: one function per table and figure of the
//! paper's evaluation (§VI), each regenerating the experiment on the
//! simulated substrate and rendering the same rows/series the paper
//! reports.
//!
//! The `repro` binary drives them:
//!
//! ```text
//! cargo run --release -p dapple-bench --bin repro -- all
//! cargo run --release -p dapple-bench --bin repro -- table5 fig12
//! ```
//!
//! Every experiment returns a [`Report`] (plain-text table plus CSV), and
//! the binary writes CSVs under `reports/`.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod common;
pub mod diff;
pub mod figures;
pub mod flags;
pub mod report;
pub mod tables;
pub mod timing;
pub mod validate;

pub use common::Report;

/// An experiment runner: regenerates one table or figure.
pub type Experiment = fn() -> Report;

/// All experiments in paper order: `(id, runner)`.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("table1", tables::table1 as Experiment),
        ("table2", tables::table2),
        ("table3", tables::table3),
        ("table4", tables::table4),
        ("table5", tables::table5),
        ("table6", tables::table6),
        ("table7", tables::table7),
        ("table8", tables::table8),
        ("fig3", figures::fig3),
        ("fig7", figures::fig7),
        ("fig8", figures::fig8),
        ("fig12", figures::fig12),
        ("fig13", figures::fig13),
        ("fig14", figures::fig14),
        ("ablations", ablations::ablations),
        ("validation", validate::validation),
    ]
}
