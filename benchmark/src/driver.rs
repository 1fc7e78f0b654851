//! The parent process: starts one child per repetition, aggregates their
//! records into the declared metrics, and checks that the repetitions
//! agree with each other and with the reference.
//!
//! A run is either *untraced* (`--trace 0`: timed repetitions for
//! `--seconds`, then one heap repetition; prints the end-to-end metrics) or
//! *traced* (`--trace 1`: timed, traced and — on `sptree_pa` — provenance
//! repetitions interleaved for `--seconds`, then one heap repetition;
//! prints the per-layer metrics). Without `--trace` both are made for every
//! selected workload and `results.json` is written.

use crate::clock::CALIBRATION_NOMINAL_S;
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::rep::Mode;
use crate::workloads::{Spec, SPECS};
use crate::Args;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

/// Fewest timed repetitions a run reports from, however short `--seconds`.
const MIN_REPS: usize = 5;

/// Order statistics of one timing over a run's repetitions. The gated
/// value is the **lower quartile**: contention on a shared host only ever
/// adds time, so the low side of the distribution is the steady one, but
/// the minimum itself is not (README, "Noise").
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    fn of(samples: &[f64]) -> Stat {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let x = (s.len() - 1) as f64 * p;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
        };
        Stat {
            min: s[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: s[s.len() - 1],
            n: s.len(),
        }
    }

    /// A count or heap size: one value, no spread.
    fn exact(v: f64) -> Stat {
        Stat {
            min: v,
            q1: v,
            median: v,
            q3: v,
            max: v,
            n: 1,
        }
    }

    fn scaled(self, by: f64) -> Stat {
        Stat {
            min: self.min * by,
            q1: self.q1 * by,
            median: self.median * by,
            q3: self.q3 * by,
            max: self.max * by,
            n: self.n,
        }
    }

    fn to_json(self, unit: &str) -> Value {
        Value::obj()
            .with("value", self.q1)
            .with("unit", unit)
            .with("min", self.min)
            .with("median", self.median)
            .with("q3", self.q3)
            .with("max", self.max)
            .with("n", self.n)
    }
}

/// One run (untraced or traced) of one workload.
struct Measured {
    reps: Vec<Value>,
    /// `(name, unit, stat)` — end-to-end metrics of an untraced run.
    end_to_end: Vec<(&'static str, &'static str, Stat)>,
    /// `(name, unit, value)` — per-layer metrics of a traced run.
    per_layer: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    /// Everything that makes the run incorrect, first divergence first.
    problems: Vec<String>,
}

impl Measured {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The driver's contract: the last line of stdout.
    fn contract_line(&self) -> Value {
        let mut metrics = Value::obj();
        for &(name, unit, stat) in &self.end_to_end {
            metrics.set(name, Value::obj().with("value", stat.q1).with("unit", unit));
        }
        for &(name, unit, v) in &self.per_layer {
            metrics.set(name, Value::obj().with("value", v).with("unit", unit));
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

fn child(spec: &Spec, args: &Args, mode: Mode) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", mode.name(), "--workload", spec.name, "--seed"])
        .arg(args.seed.to_string());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so no process outlives the run.
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} repetition of {} failed ({}): {}",
            mode.name(),
            spec.name,
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    Value::parse(line).map_err(|e| format!("child record: {e}"))
}

fn mode_of(rep: &Value) -> &str {
    rep.get("mode").and_then(Value::as_str).unwrap_or("")
}

fn cpu_s(rep: &Value, window: &str) -> f64 {
    rep.get(window).map_or(0.0, |w| w.num("cpu_s"))
}

fn timing(reps: &[Value], mode: Mode, window: &str) -> Option<Stat> {
    let samples: Vec<f64> = reps
        .iter()
        .filter(|r| mode_of(r) == mode.name())
        .map(|r| cpu_s(r, window))
        .collect();
    (!samples.is_empty()).then(|| Stat::of(&samples))
}

/// What on-CPU seconds of this run are multiplied by to read as seconds on
/// the quiet sizing host: the calibration kernel's nominal time over its
/// median time in the timed repetitions (see `clock.rs`).
fn calibration_scale(reps: &[Value]) -> f64 {
    let samples: Vec<f64> = reps
        .iter()
        .filter(|r| mode_of(r) == Mode::Timed.name())
        .map(|r| r.num("calib_s"))
        .filter(|&c| c > 0.0)
        .collect();
    if samples.is_empty() {
        1.0
    } else {
        CALIBRATION_NOMINAL_S / Stat::of(&samples).median
    }
}

/// Which repetitions a per-layer metric is read from.
fn source_mode(name: &str) -> Mode {
    if name.starts_with("alloc.") || name == "eval.db.bytes_per_tuple" {
        Mode::Heap
    } else if name.starts_with("provenance.") {
        Mode::Prov
    } else {
        Mode::Traced
    }
}

fn measure(spec: &Spec, args: &Args, trace: bool) -> Result<Measured, String> {
    let mut reps = Vec::new();
    let start = Instant::now();
    let mut timed = 0;
    loop {
        reps.push(child(spec, args, Mode::Timed)?);
        timed += 1;
        if trace {
            reps.push(child(spec, args, Mode::Traced)?);
            if spec.provenance {
                reps.push(child(spec, args, Mode::Prov)?);
            }
        }
        let enough = timed >= MIN_REPS && start.elapsed().as_secs_f64() >= args.seconds;
        if args.quick || enough {
            break;
        }
    }
    reps.push(child(spec, args, Mode::Heap)?);

    let mut m = Measured {
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        reps,
    };
    check_repetitions(&mut m);
    if trace {
        per_layer(&mut m);
    } else {
        end_to_end(&mut m)?;
    }
    Ok(m)
}

/// Correctness against the reference, agreement with `oracle::check`, and
/// the determinism / pure-observer self-check: every count, the result-set
/// hash and the journal hash must be identical in every repetition that
/// reports them.
fn check_repetitions(m: &mut Measured) {
    // Each count (and the journal hash) as first reported, and by whom.
    let mut baseline: BTreeMap<&str, (String, &Value)> = BTreeMap::new();
    let mut diverged = false;
    for (i, rep) in m.reps.iter().enumerate() {
        let label = format!("repetition {i} ({})", mode_of(rep));
        let verdict = rep.get("verdict");
        m.attempted += verdict.map_or(0.0, |v| v.num("expected").max(v.num("found"))) as u64;
        let failed = verdict.map_or(0.0, |v| v.num("failed")) as u64;
        if failed > 0 {
            m.failed += failed;
            m.problems.push(format!(
                "{label}: {failed} wrong result tuples; missing {} spurious {}",
                verdict
                    .and_then(|v| v.get("missing"))
                    .unwrap_or(&Value::Null),
                verdict
                    .and_then(|v| v.get("spurious"))
                    .unwrap_or(&Value::Null),
            ));
        }
        if rep.get("oracle_agrees").and_then(Value::as_bool) == Some(false) {
            m.problems.push(format!(
                "{label}: oracle::check and the reference disagree on the missing / spurious sets"
            ));
        }
        let counts = rep.get("counts").map_or(&[][..], Value::fields).iter();
        let journal = rep.get("journal_hash").map(|h| ("journal_hash", h));
        for (key, value) in counts.map(|(k, v)| (k.as_str(), v)).chain(journal) {
            let (first_label, first_value) = baseline.entry(key).or_insert((label.clone(), value));
            if *first_value != value && !diverged {
                diverged = true;
                m.problems.push(format!(
                    "first divergence: {label} has {key} = {value}, {first_label} has {first_value}"
                ));
            }
        }
    }
}

fn end_to_end(m: &mut Measured) -> Result<(), String> {
    let heap = m
        .reps
        .iter()
        .find(|r| mode_of(r) == Mode::Heap.name())
        .ok_or("no heap repetition")?;
    let scale = calibration_scale(&m.reps);
    let calibrated = |window: &str| {
        timing(&m.reps, Mode::Timed, window)
            .map(|s| s.scaled(scale))
            .ok_or("no timed repetition")
    };
    for e in END_TO_END {
        let stat = match e.name {
            "run_s" => calibrated("run")?,
            "setup_s" => calibrated("setup")?,
            "peak_heap_mb" => {
                Stat::exact(heap.get("heap").map_or(0.0, |h| h.num("peak_bytes")) / 1e6)
            }
            other => return Err(format!("end-to-end metric `{other}` has no source")),
        };
        if stat.q1.is_nan() || stat.q1 <= 0.0 {
            m.problems
                .push(format!("end-to-end metric {} is {}", e.name, stat.q1));
        }
        m.end_to_end.push((e.name, e.unit, stat));
    }
    Ok(())
}

fn per_layer(m: &mut Measured) {
    let ratio = |mode: Mode| match (
        timing(&m.reps, mode, "run"),
        timing(&m.reps, Mode::Timed, "run"),
    ) {
        (Some(observed), Some(bare)) if bare.q1 > 0.0 => observed.q1 / bare.q1,
        _ => 0.0,
    };
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    for &(name, unit) in PER_LAYER {
        let value = match name {
            "observers.traced_overhead_ratio" => ratio(Mode::Traced),
            // On top of the traced configuration, which the provenance
            // repetition also runs.
            "provenance.overhead_ratio" => match timing(&m.reps, Mode::Traced, "run") {
                Some(traced) if traced.q1 > 0.0 => {
                    timing(&m.reps, Mode::Prov, "run").map_or(0.0, |p| p.q1 / traced.q1)
                }
                _ => 0.0,
            },
            _ => {
                let samples: Vec<f64> = m
                    .reps
                    .iter()
                    .filter(|r| mode_of(r) == source_mode(name).name())
                    .filter_map(|r| r.get("layers")?.get(name)?.as_f64())
                    .collect();
                if samples.is_empty() {
                    0.0 // does not apply to this workload
                } else {
                    let s = Stat::of(&samples);
                    if unit == "count" && s.min != s.max {
                        problems.push(format!(
                            "first divergence: count {name} ranges {}..{} across repetitions",
                            s.min, s.max
                        ));
                    }
                    s.median
                }
            }
        };
        rows.push((name, unit, value));
    }
    m.per_layer = rows;
    m.problems.extend(problems);
}

fn print_measured(spec: &Spec, m: &Measured) {
    if !m.end_to_end.is_empty() {
        println!(
            "# {}: on-CPU seconds x {:.4} = calibrated seconds",
            spec.name,
            calibration_scale(&m.reps)
        );
    }
    for &(name, unit, s) in &m.end_to_end {
        if s.n > 1 {
            println!(
                "{:<16} {:<34} {:>14.6} {:<6} (lower quartile of {}; min {:.6} median {:.6} max {:.6})",
                spec.name, name, s.q1, unit, s.n, s.min, s.median, s.max
            );
        } else {
            println!("{:<16} {:<34} {:>14.6} {:<6}", spec.name, name, s.q1, unit);
        }
    }
    for &(name, unit, v) in &m.per_layer {
        println!("{:<16} {:<34} {:>14.4} {:<6}", spec.name, name, v, unit);
    }
    for p in &m.problems {
        println!("{:<16} PROBLEM {p}", spec.name);
    }
}

/// Spans, the program's phase rows and the journal hash of the last traced
/// repetition, one JSON object per line.
fn write_trace(spec: &Spec, m: &Measured, out_dir: &str) -> Result<(), String> {
    let Some((rep_idx, rep)) = m
        .reps
        .iter()
        .enumerate()
        .rfind(|(_, r)| mode_of(r) == Mode::Traced.name())
    else {
        return Ok(());
    };
    let mut text = String::new();
    let tagged = |kind: &str, row: &Value| {
        let mut line = Value::obj()
            .with("type", kind)
            .with("workload", spec.name)
            .with("rep", rep_idx);
        for (k, v) in row.fields() {
            line.set(k, v.clone());
        }
        format!("{line}\n")
    };
    for span in rep.get("spans").and_then(Value::as_arr).unwrap_or(&[]) {
        text.push_str(&tagged("span", span));
    }
    for row in rep.get("phases").and_then(Value::as_arr).unwrap_or(&[]) {
        text.push_str(&tagged("phase", row));
    }
    if let Some(hash) = rep.get("journal_hash") {
        text.push_str(&tagged(
            "journal",
            &Value::obj().with("content_hash", hash.clone()).with(
                "records",
                rep.get("layers")
                    .map_or(0.0, |l| l.num("netsim.journal.records")),
            ),
        ));
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let path = format!("{out_dir}/{}.trace.jsonl", spec.name);
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(args: &Args) -> Result<bool, String> {
    let selected: Vec<&Spec> = SPECS
        .iter()
        .filter(|s| args.workload.as_deref().is_none_or(|w| w == s.name))
        .collect();

    // The driver's contract: one workload, one kind of run, one result line.
    if let Some(trace) = args.trace {
        let [spec] = selected[..] else {
            return Err("--trace needs --workload".into());
        };
        let m = measure(spec, args, trace)?;
        print_measured(spec, &m);
        if trace {
            write_trace(spec, &m, &args.out_dir)?;
        }
        println!("{}", m.contract_line());
        return Ok(m.correct());
    }

    let mut all_correct = true;
    let mut records = Vec::new();
    for spec in selected {
        let untraced = measure(spec, args, false)?;
        print_measured(spec, &untraced);
        let traced = measure(spec, args, true)?;
        print_measured(spec, &traced);
        write_trace(spec, &traced, &args.out_dir)?;
        all_correct &= untraced.correct() && traced.correct();
        records.push(workload_record(spec, args, &untraced, &traced));
    }
    let results = Value::obj()
        .with("benchmark", "sensorlog")
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("quick", args.quick)
        .with(
            "host_cores",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("correct", all_correct)
        .with("workloads", records);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("{}: {e}", args.out_dir))?;
    let path = format!("{}/results.json", args.out_dir);
    std::fs::write(&path, format!("{results}\n")).map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    Ok(all_correct)
}

fn workload_record(spec: &Spec, args: &Args, untraced: &Measured, traced: &Measured) -> Value {
    let shape = spec.sized(args.quick);
    let (cols, rows) = shape.grid();
    let first = &untraced.reps[0];
    let mut end_to_end = Value::obj();
    for &(name, unit, stat) in &untraced.end_to_end {
        end_to_end.set(name, stat.to_json(unit));
    }
    let mut per_layer = Value::obj();
    for &(name, unit, v) in &traced.per_layer {
        per_layer.set(name, Value::obj().with("value", v).with("unit", unit));
    }
    let problems: Vec<Value> = untraced
        .problems
        .iter()
        .chain(&traced.problems)
        .map(|p| p.as_str().into())
        .collect();
    Value::obj()
        .with("name", spec.name)
        .with("why", spec.why)
        .with("seed", args.seed)
        .with("shape", shape.describe())
        .with("cols", cols as u64)
        .with("rows", rows as u64)
        .with("inserts", first.num("inserts"))
        .with("deletes", first.num("deletes"))
        .with("correct", untraced.correct() && traced.correct())
        .with("attempted", untraced.attempted + traced.attempted)
        .with("failed", untraced.failed + traced.failed)
        .with(
            "counts",
            first.get("counts").cloned().unwrap_or(Value::Null),
        )
        .with(
            "journal_hash",
            traced
                .reps
                .iter()
                .find_map(|r| r.get("journal_hash").cloned())
                .unwrap_or(Value::Null),
        )
        .with("calibration_scale", calibration_scale(&untraced.reps))
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
        .with("problems", problems)
}
