//! The repo's benchmark: six convergent, reference-checked workloads with
//! end-to-end and per-layer metrics. See `benchmark/README.md`.
//!
//! ```text
//! sensorlog-benchmark [--seed N] [--seconds S] [--workload NAME] [--quick] [--out DIR]
//!     every (or one) workload, untraced then traced; prints every metric
//!     by name with its unit; writes DIR/results.json and DIR/<w>.trace.jsonl
//! sensorlog-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run in the driver's contract: the last stdout line is one JSON
//!     object {correct, attempted, failed, metrics}
//! sensorlog-benchmark --compare A.json B.json
//!     one verdict per (workload, end-to-end metric) between two results files
//! sensorlog-benchmark --declare
//!     what BENCHMARK.json must contain (check.sh diffs the two)
//! ```

mod alloc;
mod clock;
mod compare;
mod driver;
mod inputs;
mod json;
mod metrics;
mod reference;
mod rep;
mod spans;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed of a run that does not pass `--seed`.
pub const DEFAULT_SEED: u64 = 17;
/// Measuring time of a run that does not pass `--seconds`; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub quick: bool,
    pub out_dir: String,
    /// Internal: run one repetition in this mode and print its record.
    rep: Option<rep::Mode>,
    compare: Option<(String, String)>,
    /// Print what `BENCHMARK.json` must contain and exit.
    declare: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        out_dir: "benchmark/out".to_string(),
        rep: None,
        compare: None,
        declare: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--quick" => args.quick = true,
            "--out" => args.out_dir = value()?,
            "--rep" => {
                let mode = value()?;
                args.rep =
                    Some(rep::Mode::parse(&mode).ok_or(format!("unknown --rep mode `{mode}`"))?)
            }
            "--compare" => args.compare = Some((value()?, value()?)),
            "--declare" => args.declare = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if workloads::find(w).is_none() {
            let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sensorlog-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.declare {
        print!("{}", metrics::declare());
        Ok(true)
    } else if let Some(mode) = args.rep {
        child(&args, mode)
    } else if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else {
        driver::run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sensorlog-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One repetition (see `rep.rs`); its record is the only stdout line.
fn child(args: &Args, mode: rep::Mode) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--rep needs --workload")?;
    let spec = workloads::find(name).expect("validated by parse_args");
    let record = rep::run(spec, spec.sized(args.quick), args.seed, mode)?;
    println!("{record}");
    Ok(true)
}
