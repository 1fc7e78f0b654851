//! The one bench driver: every measured claim outside the paper figures.
//!
//! ```text
//! bench <case>… | all [--quick] [--out <file>]
//! bench --list
//! ```
//!
//! Runs the named cases of [`sensorlog_bench::cases::CASES`] and writes
//! their reports as one JSON array (`report::to_json`) to `--out`, or to
//! stdout. Progress goes to stderr: one `gate <case>.<name> ok|FAILED` line
//! per gate and each case's elapsed time. Exits 1 if any gate fails.
//! `--quick` shrinks every case to CI size (all nine in a few seconds);
//! the committed `BENCH.json` is `bench all --out BENCH.json`.

use sensorlog_bench::cases::CASES;
use sensorlog_bench::common::{flag, timed};
use sensorlog_bench::report::{failed_gates, to_json, Report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, _) in CASES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let out = flag(&args, "--out");
    let mut names: Vec<&str> = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if i > 0 && args[i - 1] == "--out" {
            continue;
        }
        match a.as_str() {
            "--quick" | "--out" => {}
            "all" => names.extend(CASES.iter().map(|(name, _)| name)),
            a if a.starts_with("--") => {
                eprintln!("bench: unknown option {a}");
                return ExitCode::from(2);
            }
            name => names.push(name),
        }
    }
    if names.is_empty() || args.last().is_some_and(|a| a == "--out") {
        eprintln!("usage: bench <case>… | all [--quick] [--out <file>]\n       bench --list");
        return ExitCode::from(2);
    }
    let quick = args.iter().any(|a| a == "--quick");

    let mut reports = Vec::new();
    for name in names {
        let Some((_, case)) = CASES.iter().find(|(n, _)| *n == name) else {
            eprintln!("bench: unknown case `{name}` (see bench --list)");
            return ExitCode::from(2);
        };
        let mut report = Report::new(name, quick);
        let ((), secs) = timed(|| case(quick, &mut report));
        for g in &report.gates {
            let verdict = if g.want == g.got { "ok" } else { "FAILED" };
            eprintln!("gate {name}.{} {verdict}", g.name);
        }
        eprintln!("[{name} took {secs:.2}s]");
        reports.push(report);
    }

    let json = to_json(&reports);
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("bench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{json}"),
    }
    let failed = failed_gates(&reports);
    for f in &failed {
        eprintln!("bench: gate failed: {f}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
