//! # sensorlog-bench
//!
//! Experiment harness for the reproduction: one function per paper figure
//! or table (reconstructed Section VI — see DESIGN.md), shared run
//! machinery, and text-table output. The `figures` binary drives it:
//!
//! ```text
//! cargo run --release -p sensorlog-bench --bin figures -- all
//! cargo run --release -p sensorlog-bench --bin figures -- fig4 fig8
//! ```

#![forbid(unsafe_code)]

pub mod cases;
pub mod common;
pub mod experiments;
pub mod report;
pub mod table;

pub use table::Table;

/// All experiment ids, in report order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "table1", "table2", "table3", "table4", "table5",
];

/// Run experiments by id; unknown ids are reported and skipped.
pub fn run(ids: &[&str]) -> Vec<Table> {
    let mut out = Vec::new();
    let mut fig45: Option<(Table, Table)> = None;
    let mut tab45: Option<(Table, Table)> = None;
    for &id in ids {
        match id {
            "fig4" | "fig5" => {
                if fig45.is_none() {
                    fig45 = Some(experiments::joins::fig4_fig5());
                }
                let (f4, f5) = fig45.clone().expect("computed");
                out.push(if id == "fig4" { f4 } else { f5 });
            }
            "fig6" => out.push(experiments::joins::fig6()),
            "fig7" => out.push(experiments::joins::fig7()),
            "fig8" => out.push(experiments::sptree::fig8()),
            "fig9" => out.push(experiments::robustness::fig9()),
            "fig10" => out.push(experiments::negation::fig10()),
            "fig11" => out.push(experiments::ablation::fig11()),
            "fig12" => out.push(experiments::ablation::fig12()),
            "fig13" => out.push(experiments::failures::fig13()),
            "fig14" => out.push(experiments::aggregates::fig14()),
            "fig15" => out.push(experiments::holddown::fig15()),
            "fig16" => out.push(experiments::geometric::fig16()),
            "table1" => out.push(experiments::memory::table1()),
            "table2" => out.push(experiments::robustness::table2()),
            "table3" => out.push(experiments::tracesum::table3()),
            "table4" | "table5" => {
                if tab45.is_none() {
                    tab45 = Some(experiments::telemetry::table4_table5());
                }
                let (t4, t5) = tab45.clone().expect("computed");
                out.push(if id == "table4" { t4 } else { t5 });
            }
            other => eprintln!("unknown experiment id: {other}"),
        }
    }
    out
}
