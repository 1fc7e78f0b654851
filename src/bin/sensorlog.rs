//! The `sensorlog` command-line interface.
//!
//! ```text
//! sensorlog analyze <program.dl>
//!     Parse + classify: safety, stratification, XY components, windows.
//!
//! sensorlog check <program.dl> [--format text|json] [--deny-warnings]
//!         [--nodes <n>] [--events <n>]
//!     Static analysis: per-predicate memory bounds, plan lints
//!     (cartesian joins, dead code, multi-pass negation) and
//!     communication-plane classification, as span-carrying diagnostics.
//!     --format json emits the machine-readable report; --deny-warnings
//!     exits non-zero on warnings; --nodes/--events set the topology and
//!     workload parameters the bound formulas are evaluated against.
//!
//! sensorlog fix <program.dl> [--dry-run] [--nodes <n>] [--events <n>]
//!     Apply every machine-applicable suggestion from `check` (missing
//!     `.window`/`.holddown` declarations, widening-join splits) to the
//!     program in place, re-checking until a fixpoint. --dry-run reports
//!     pending fixes without touching the file and exits 2 if any remain.
//!
//! sensorlog run <program.dl> [--facts <facts.dl>] [--output <pred>]
//!     Centralized bottom-up evaluation over a fact file.
//!
//! sensorlog deploy <program.dl> --grid <m> [--events <events.txt>]
//!         [--strategy pa|centroid|broadcast|local] [--loss <p>]
//!         [--seed <n>] [--horizon <ms>] [--trace <journal.jsonl>]
//!         [--metrics <snapshot.jsonl>]
//!     Distributed evaluation on an m×m simulated grid. Events file lines:
//!         +<at_ms> @<node> fact(args).
//!         -<at_ms> @<node> fact(args).
//!     --trace persists the event journal (replayable via
//!     `sensorlog_netsim::Journal::load` + `ReplayChecker`); --metrics
//!     writes the telemetry snapshot (counters, histograms, phase timings)
//!     as JSONL, or to stdout with `--metrics -`.
//!
//! sensorlog explain <program.dl> --grid <m> --why '<atom>'
//!         [--events <events.txt>] [--strategy pa|centroid|broadcast|local]
//!         [--loss <p>] [--seed <n>] [--horizon <ms>] [--dot <proof.dot>]
//!     Deploy with the provenance plane enabled, then explain one tuple:
//!     a live tuple gets its cross-node derivation tree (rule firings,
//!     carrying messages, per-hop delivery, per-edge sim-latency) plus the
//!     latency-critical chain; an absent tuple gets a why-not verdict (the
//!     first missing or retracted premise per candidate rule). --dot writes
//!     the proof DAG as GraphViz.
//!
//! Every subcommand also accepts --help.
//! ```

use sensorlog::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("fix") => return cmd_fix(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("deploy") => cmd_deploy(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        _ => {
            eprintln!(
                "usage: sensorlog <analyze|check|fix|run|deploy|explain> <program.dl> [options]"
            );
            eprintln!("       (run `sensorlog <subcommand> --help` for options)");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

/// Handle `--help`/`-h` uniformly: print the subcommand's usage and report
/// whether the caller should return early.
fn wants_help(args: &[String], usage: &str) -> bool {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        true
    } else {
        false
    }
}

const ANALYZE_USAGE: &str = "usage: sensorlog analyze <program.dl>
  Parse + classify: safety, stratification, XY components, windows.";

const CHECK_USAGE: &str = "usage: sensorlog check <program.dl> [options]
  --format text|json   report format (default text)
  --deny-warnings      exit non-zero on warnings
  --nodes <n>          topology size for the memory-bound formulas
  --events <n>         per-predicate workload size for the bound formulas";

const FIX_USAGE: &str = "usage: sensorlog fix <program.dl> [options]
  --dry-run            report pending fixes without touching the file;
                       exits 2 when fixes are pending, 0 when clean
  --nodes <n>          topology size for the bound formulas
  --events <n>         per-predicate workload size for the bound formulas
  Applies every machine-applicable suggestion from `sensorlog check`
  (missing `.window`/`.holddown` declarations, widening-join splits) to
  the program in place, re-checking after each batch until a fixpoint.";

const RUN_USAGE: &str = "usage: sensorlog run <program.dl> [options]
  --facts <facts.dl>   load a fact file as the EDB
  --output <pred>      print only this predicate (default: declared outputs)";

const DEPLOY_USAGE: &str = "usage: sensorlog deploy <program.dl> --grid <m> [options]
  --grid <m>           deploy on an m x m simulated grid (required)
  --events <file>      workload script: `+<at_ms> @<node> fact(args).`
  --strategy <s>       pa|centroid|broadcast|local (default pa)
  --loss <p>           per-link loss probability, in [0, 1]
  --seed <n>           simulator RNG seed
  --horizon <ms>       sim-time horizon (default 600000000)
  --trace <file>       persist the replayable event journal as JSONL
  --metrics <file>     write the telemetry snapshot as JSONL (`-` = stdout)";

const EXPLAIN_USAGE: &str =
    "usage: sensorlog explain <program.dl> --grid <m> --why '<atom>' [options]
  --why '<atom>'       the ground tuple to explain, e.g. --why 'q(1, 2)' (required)
  --grid <m>           deploy on an m x m simulated grid (required)
  --events <file>      workload script: `+<at_ms> @<node> fact(args).`
  --strategy <s>       pa|centroid|broadcast|local (default pa)
  --loss <p>           per-link loss probability, in [0, 1]
  --seed <n>           simulator RNG seed
  --horizon <ms>       sim-time horizon (default 600000000)
  --dot <file>         write the proof DAG as GraphViz DOT (live tuples only)
  Runs the deployment with the provenance plane enabled, then prints the
  tuple's cross-node derivation tree with per-hop latency attribution, or a
  why-not verdict (first missing/retracted premise) if it was not derived.";

fn flag(args: &[String], name: &str) -> Option<String> {
    // Accepts both `--flag value` and `--flag=value`.
    let prefix = format!("{name}=");
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix(&prefix).map(str::to_string))
        })
}

fn load_program(args: &[String]) -> Result<(String, sensorlog::logic::Program), AnyError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing <program.dl> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let prog = parse_program(&src)?;
    Ok((src, prog))
}

fn cmd_analyze(args: &[String]) -> Result<(), AnyError> {
    if wants_help(args, ANALYZE_USAGE) {
        return Ok(());
    }
    let (_, prog) = load_program(args)?;
    let analysis = analyze(&prog, &BuiltinRegistry::standard())?;
    println!("class: {:?}", analysis.class);
    println!("rules: {}", analysis.program.rules.len());
    for r in &analysis.program.rules {
        println!("  #{:<2} {}", r.id, r);
    }
    println!("strata:");
    for (i, stratum) in analysis.strat.strata.iter().enumerate() {
        let names: Vec<&str> = stratum.iter().map(|s| s.as_str()).collect();
        println!("  {i}: {}", names.join(", "));
    }
    for info in &analysis.xy {
        let order: Vec<String> = info
            .stage_order
            .iter()
            .map(|p| format!("{p}[stage@{}]", info.stage_pos[p]))
            .collect();
        println!("XY component: {}", order.join(" -> "));
    }
    if !analysis.program.windows.is_empty() {
        println!("windows:");
        for (p, w) in &analysis.program.windows {
            println!("  {p}: {w} ms");
        }
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), AnyError> {
    if wants_help(args, CHECK_USAGE) {
        return Ok(());
    }
    use sensorlog::logic::diag;
    // Load the raw source ourselves: parse errors must become diagnostics
    // in the report, not early CLI failures.
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing <program.dl> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut params = diag::BoundParams::default();
    if let Some(n) = flag(args, "--nodes") {
        params.nodes = n.parse()?;
    }
    if let Some(e) = flag(args, "--events") {
        params.default_events = e.parse()?;
    }
    let rep = diag::check_source(&src, &BuiltinRegistry::standard(), &params);
    match flag(args, "--format").as_deref().unwrap_or("text") {
        "json" => print!("{}", rep.to_json()),
        "text" => {
            print!("{}", rep.to_text());
            let (e, w) = (
                rep.diags
                    .iter()
                    .filter(|d| d.severity == diag::Severity::Error)
                    .count(),
                rep.diags
                    .iter()
                    .filter(|d| d.severity == diag::Severity::Warning)
                    .count(),
            );
            eprintln!("-- {path}: {e} error(s), {w} warning(s)");
        }
        other => return Err(format!("unknown --format `{other}` (text|json)").into()),
    }
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    if rep.has_errors() {
        return Err(format!("{path}: check failed").into());
    }
    if deny_warnings && rep.has_warnings() {
        return Err(format!("{path}: warnings denied by --deny-warnings").into());
    }
    Ok(())
}

fn cmd_fix(args: &[String]) -> ExitCode {
    match try_fix(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn try_fix(args: &[String]) -> Result<ExitCode, AnyError> {
    if wants_help(args, FIX_USAGE) {
        return Ok(ExitCode::SUCCESS);
    }
    use sensorlog::logic::diag;
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing <program.dl> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut params = diag::BoundParams::default();
    if let Some(n) = flag(args, "--nodes") {
        params.nodes = n.parse()?;
    }
    if let Some(e) = flag(args, "--events") {
        params.default_events = e.parse()?;
    }
    let dry_run = args.iter().any(|a| a == "--dry-run");

    let out = diag::fix_source(&src, &BuiltinRegistry::standard(), &params);
    for line in &out.applied {
        eprintln!("{}: {line}", if dry_run { "would fix" } else { "fixed" });
    }
    if out.remaining > 0 {
        return Err(format!(
            "{path}: {} machine-applicable suggestion(s) still pending after {} round(s)",
            out.remaining, out.rounds
        )
        .into());
    }
    if out.applied.is_empty() {
        eprintln!("-- {path}: nothing to fix");
        return Ok(ExitCode::SUCCESS);
    }
    if dry_run {
        eprintln!(
            "-- {path}: {} fix(es) pending (file unchanged; rerun without --dry-run to apply)",
            out.applied.len()
        );
        return Ok(ExitCode::from(2));
    }
    std::fs::write(path, &out.fixed).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "-- {path}: applied {} fix(es) in {} round(s)",
        out.applied.len(),
        out.rounds
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<(), AnyError> {
    if wants_help(args, RUN_USAGE) {
        return Ok(());
    }
    let (src, prog) = load_program(args)?;
    let reg = BuiltinRegistry::standard();
    let analysis = analyze(&prog, &reg)?;
    let outputs: Vec<Symbol> = if let Some(o) = flag(args, "--output") {
        vec![Symbol::intern(&o)]
    } else if analysis.program.outputs.is_empty() {
        analysis.program.idb_preds().into_iter().collect()
    } else {
        analysis.program.outputs.clone()
    };
    let engine = Engine::new(analysis, reg);
    let mut edb = Database::new();
    if let Some(facts_path) = flag(args, "--facts") {
        let text =
            std::fs::read_to_string(&facts_path).map_err(|e| format!("{facts_path}: {e}"))?;
        let n = edb.load_facts(&text)?;
        eprintln!("loaded {n} facts from {facts_path}");
    }
    let out = engine.run(&edb)?;
    for p in outputs {
        for t in out.sorted(p) {
            println!("{p}{t}.");
        }
    }
    let _ = src;
    Ok(())
}

/// The options `deploy` and `explain` share — `--grid`, `--strategy`,
/// `--loss`, `--seed`, `--horizon` — checked where they enter: an empty
/// grid or a loss outside [0, 1] is an error, not a panic or a silent clamp.
fn grid_run_args(args: &[String], cmd: &str) -> Result<(u32, Strategy, SimConfig, u64), AnyError> {
    let m: u32 = flag(args, "--grid")
        .ok_or(format!("{cmd} requires --grid <m>"))?
        .parse()?;
    if m == 0 {
        return Err("--grid must be at least 1".into());
    }
    let strategy = match flag(args, "--strategy").as_deref() {
        None | Some("pa") => Strategy::Perpendicular { band_width: 1.0 },
        Some("centroid") => Strategy::Centroid,
        Some("broadcast") => Strategy::NaiveBroadcast,
        Some("local") => Strategy::LocalStorage,
        Some(other) => return Err(format!("unknown strategy `{other}`").into()),
    };
    let mut sim = SimConfig::default();
    if let Some(p) = flag(args, "--loss") {
        sim.loss_prob = p.parse()?;
        if !(0.0..=1.0).contains(&sim.loss_prob) {
            return Err(format!("--loss must be a probability in [0, 1], got `{p}`").into());
        }
    }
    if let Some(s) = flag(args, "--seed") {
        sim.seed = s.parse()?;
    }
    let horizon: u64 = flag(args, "--horizon")
        .map(|h| h.parse())
        .transpose()?
        .unwrap_or(600_000_000);
    Ok((m, strategy, sim, horizon))
}

/// The `--events` script (empty without the option), every event checked
/// to sit on the `m × m` grid.
fn load_events(args: &[String], m: u32) -> Result<Vec<WorkloadEvent>, AnyError> {
    let Some(path) = flag(args, "--events") else {
        return Ok(Vec::new());
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let events = WorkloadEvent::parse_script(&text)?;
    if let Some(bad) = events
        .iter()
        .find(|ev| ev.node.index() >= (m as usize).pow(2))
    {
        return Err(format!("event node {} outside the {m}x{m} grid", bad.node).into());
    }
    eprintln!("scheduled {} events", events.len());
    Ok(events)
}

fn cmd_deploy(args: &[String]) -> Result<(), AnyError> {
    if wants_help(args, DEPLOY_USAGE) {
        return Ok(());
    }
    let (src, prog) = load_program(args)?;
    let (m, strategy, sim, horizon) = grid_run_args(args, "deploy")?;

    let trace_path = flag(args, "--trace");
    let metrics_path = flag(args, "--metrics");

    let topo = Topology::square_grid(m);
    let n_nodes = topo.len();
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy,
            ..RtConfig::default()
        },
        sim,
        telemetry: if metrics_path.is_some() {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        },
        ..DeployConfig::default()
    };
    let mut d =
        Deployment::new(&src, BuiltinRegistry::standard(), topo, cfg).map_err(|e| e.to_string())?;
    let _ = prog;
    let journal = trace_path.as_ref().map(|_| d.attach_journal());

    let events = load_events(args, m)?;
    d.schedule_all(events.clone());
    let converged = d.run(horizon);

    for &p in &d.prog.outputs.clone() {
        for t in d.results(p) {
            println!("{p}{t}.");
        }
    }
    eprintln!(
        "-- {} nodes, strategy {}, converged at {:.1}s",
        n_nodes,
        d.strategy.name(),
        converged as f64 / 1000.0
    );
    eprintln!(
        "-- messages: {} total ({} store, {} probe, {} result), hottest node {}, energy {:.1} mJ",
        d.metrics().total_tx(),
        &d.metrics().tx_of("store"),
        &d.metrics().tx_of("probe"),
        &d.metrics().tx_of("result"),
        d.metrics().max_node_load(),
        d.metrics().total_energy_uj() / 1000.0
    );
    // Every output predicate is held against the oracle; a program with none
    // (no rule, no `.output`) has nothing to check.
    if !events.is_empty() && d.metrics().lost() == 0 && !d.prog.outputs.is_empty() {
        let (mut expected, mut missing, mut spurious) = (0, 0, 0);
        for &p in &d.prog.outputs {
            let report = sensorlog::core::oracle::check(&d, &events, p);
            expected += report.expected;
            missing += report.missing.len();
            spurious += report.spurious.len();
        }
        let exact = missing == 0 && spurious == 0;
        eprintln!(
            "-- oracle: {} ({expected} expected, {missing} missing, {spurious} spurious)",
            if exact { "exact" } else { "DIVERGED" },
        );
    }
    if let (Some(path), Some(journal)) = (&trace_path, journal) {
        let j = journal.take();
        let n = j.records.len();
        j.save(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("-- trace: {n} journal records written to {path}");
    }
    if let Some(path) = &metrics_path {
        let snap = d.telemetry_snapshot();
        if path == "-" {
            print!("{}", snap.to_jsonl());
        } else {
            std::fs::write(path, snap.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "-- metrics: {} counters, {} histograms, {} phases written to {path}",
                snap.counters.len(),
                snap.hists.len(),
                snap.phases.len()
            );
        }
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> Result<(), AnyError> {
    use sensorlog::provenance::{explain_atom, ProvDag};

    if wants_help(args, EXPLAIN_USAGE) {
        return Ok(());
    }
    let (src, _prog) = load_program(args)?;
    let (m, strategy, sim, horizon) = grid_run_args(args, "explain")?;
    let atom_src = flag(args, "--why").ok_or("explain requires --why '<atom>'")?;
    let (pred, terms) = parse_fact(&atom_src).map_err(|e| format!("--why `{atom_src}`: {e}"))?;
    let tuple = Tuple::new(terms);

    let topo = Topology::square_grid(m);
    let n_nodes = topo.len();
    let cfg = DeployConfig {
        rt: RtConfig {
            strategy,
            ..RtConfig::default()
        },
        sim,
        provenance: Provenance::enabled(),
        ..DeployConfig::default()
    };
    let mut d =
        Deployment::new(&src, BuiltinRegistry::standard(), topo, cfg).map_err(|e| e.to_string())?;
    // Keep the journal: it enriches hop edges with delivery times, ARQ
    // attempt counts, and loss flags.
    let journal = d.attach_journal();

    let events = load_events(args, m)?;
    d.schedule_all(events);
    let converged = d.run(horizon);

    let records = d.provenance_records();
    let j = journal.take();
    let dag = ProvDag::build_with_journal(&records, &j);
    eprintln!(
        "-- {} nodes, converged at {:.1}s, {} provenance records",
        n_nodes,
        converged as f64 / 1000.0,
        records.len()
    );
    let explanation = explain_atom(&dag, &d.prog.analysis.program, &d.prog.reg, pred, &tuple);
    print!("{}", explanation.text());
    if let Some(path) = flag(args, "--dot") {
        match explanation.dot() {
            Some(dot) => {
                std::fs::write(&path, dot).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("-- proof DAG written to {path}");
            }
            None => eprintln!("-- no proof, no DOT output"),
        }
    }
    Ok(())
}
