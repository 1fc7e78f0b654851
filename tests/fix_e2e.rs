//! End-to-end tests of the `sensorlog` binary. `fix`: the machine-applicable
//! rewrite applier must be idempotent, `--dry-run` must never touch the
//! file, and applying fixes to the seed examples must not change what the
//! programs compute (the rewrites are `.window` declarations, not semantic
//! edits). `deploy` / `explain`: out-of-range `--grid`
//! and `--loss` are reported as errors, never panics or silent clamps, and
//! a program with no output predicate deploys without an oracle line.
//! `check`: a program whose ground facts no engine can evaluate fails it,
//! unless they feed a predicate it already calls unbounded.

use sensorlog::logic::diag::{check_source, fix_source, BoundParams};
use sensorlog::prelude::*;
use std::collections::BTreeSet;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sensorlog"))
}

fn examples() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("examples/programs").unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "dl") {
            let src = std::fs::read_to_string(&path).unwrap();
            out.push((path.display().to_string(), src));
        }
    }
    assert!(out.len() >= 5, "example corpus went missing");
    out
}

/// `--grid 0` used to panic in `Topology::grid` (exit 101) and `--loss`
/// outside [0, 1] was accepted silently (1.5 behaved as 1.0).
#[test]
fn deploy_and_explain_reject_empty_grid_and_non_probability_loss() {
    let bad: [&[&str]; 4] = [
        &["--grid", "0"],
        &["--grid", "4", "--loss", "1.5"],
        &["--grid", "4", "--loss", "-0.5"],
        &["--grid", "4", "--loss", "nan"],
    ];
    for cmd in ["deploy", "explain"] {
        let run = |opts: &[&str]| {
            bin()
                .args([cmd, "examples/explain/reach.dl"])
                .args(["--events", "examples/explain/chain_events.txt"])
                .args(["--why", "reach(1, 4)"])
                .args(opts)
                .output()
                .unwrap()
        };
        for opts in bad {
            let out = run(opts);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {opts:?}: {stderr}");
            assert!(stderr.starts_with("error: --"), "{cmd} {opts:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{cmd} {opts:?}: {stderr}");
        }
        // The bounds themselves are valid.
        for loss in ["0", "1"] {
            let out = run(&["--grid", "4", "--loss", loss]);
            assert!(out.status.success(), "{cmd} --loss {loss}");
        }
    }
}

/// A program with no rule and no `.output` has no output predicate: `deploy`
/// used to index `outputs[0]` for its oracle line and die with "index out of
/// bounds". It runs the events, exits 0 and prints no oracle line; a program
/// with an output still gets exactly one.
#[test]
fn deploy_of_a_rule_less_program_prints_no_oracle_line() {
    let dir = std::env::temp_dir().join(format!("sensorlog_ruleless_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deploy = |prog: &str, events: &str| {
        let (prog_path, events_path) = (dir.join("p.dl"), dir.join("events.txt"));
        std::fs::write(&prog_path, prog).unwrap();
        std::fs::write(&events_path, events).unwrap();
        let out = bin()
            .args(["deploy", prog_path.to_str().unwrap(), "--grid", "3"])
            .args(["--events", events_path.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "deploy failed: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        stderr.matches("-- oracle:").count()
    };
    assert_eq!(deploy(".window v 1000.\n", "+100 @0 v(2).\n"), 0);
    let join = ".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).\n";
    assert_eq!(deploy(join, "+100 @0 r1(1, 7).\n+200 @8 r2(2, 7).\n"), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// `sensorlog check` evaluates the program's ground facts as a Centroid
/// center would. `m(X / 0)` over `n(0)` used to pass with 0 errors, though
/// Centroid refuses it at deploy and the oracle fails on it; it is now an
/// error naming the builtin, in both formats. A program that evaluates
/// gets no such diagnostic.
#[test]
fn check_fails_ground_facts_no_engine_can_evaluate() {
    let dir = std::env::temp_dir().join(format!("sensorlog_check_eval_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let check = |prog: &str, format: &str| {
        let path = dir.join("p.dl");
        std::fs::write(&path, prog).unwrap();
        let out = bin()
            .args(["check", path.to_str().unwrap(), "--format", format])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "{stderr}");
        (out.status.code(), stdout, stderr)
    };
    let div = ".output m.\nn(0).\nm(X / 0) :- n(X).\n";
    let (code, stdout, stderr) = check(div, "text");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stdout.contains("error: [eval.ground-facts]")
            && stdout.contains("builtin error: div(0, 0) failed"),
        "{stdout}"
    );
    assert!(stderr.contains("1 error(s), 0 warning(s)"), "{stderr}");
    let (code, json, _) = check(div, "json");
    assert_eq!(code, Some(1));
    assert!(
        json.contains("\"code\": \"eval.ground-facts\", \"severity\": \"error\""),
        "{json}"
    );
    let (code, stdout, stderr) = check(".output m.\nn(1).\nm(X / 1) :- n(X).\n", "text");
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stdout.contains("eval.ground-facts"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `sensorlog check` does not evaluate ground facts that feed a predicate
/// it calls unbounded (`mem.unbounded`): their cascade runs to the
/// centralized engine's limit, which took seconds of a release build only
/// to warn again. So an evaluation error down such a cascade — here
/// `div(0, 0)` at its first step — is not reported, and `check` passes
/// with warnings.
#[test]
fn check_skips_ground_facts_that_feed_an_unbounded_predicate() {
    let dir = std::env::temp_dir().join(format!("sensorlog_check_unb_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let check = |prog: &str| {
        let path = dir.join("p.dl");
        std::fs::write(&path, prog).unwrap();
        let out = bin()
            .args(["check", path.to_str().unwrap()])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout)
    };
    let cascade = "n(0).\nn(X + 1) :- n(X), X < 2000000.\n";
    for prog in [
        cascade.to_string(),
        format!(".output m.\n{cascade}m(X / 0) :- n(X).\n"),
    ] {
        let (code, stdout) = check(&prog);
        assert_eq!(code, Some(0), "{stdout}");
        assert!(stdout.contains("warning: [mem.unbounded]"), "{stdout}");
        assert!(!stdout.contains("eval.ground-facts"), "{stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `fix_source` reaches a true fixpoint: running it on its own output
/// applies nothing and returns the input unchanged.
#[test]
fn fix_is_idempotent_on_examples() {
    let reg = BuiltinRegistry::standard();
    let params = BoundParams::default();
    for (path, src) in examples() {
        let first = fix_source(&src, &reg, &params);
        assert_eq!(first.remaining, 0, "{path}: fix did not converge");
        let second = fix_source(&first.fixed, &reg, &params);
        assert!(
            second.applied.is_empty(),
            "{path}: second fix pass still applied {:?}",
            second.applied
        );
        assert_eq!(second.fixed, first.fixed, "{path}: fix is not idempotent");
    }
}

/// One `fix_source` call applies the machine-applicable lint — a `.window`
/// for an undeclared, unwindowed stream — and no machine-applicable
/// suggestion survives. An XY predicate without a `.holddown` is reported,
/// but nothing is inserted for it: its holddown is derived per deployment.
#[test]
fn fix_resolves_every_machine_applicable_suggestion() {
    let reg = BuiltinRegistry::standard();
    let params = BoundParams::default();
    let src = "\
.output j.
j(0, 0).
j(X, 1) :- g(0, X).
jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
";
    let before = check_source(src, &reg, &params);
    for code in ["mem.window.unbounded", "cost.holddown-implicit"] {
        assert!(
            before.diags.iter().any(|d| d.code == code),
            "fixture no longer triggers {code}"
        );
    }
    let out = fix_source(src, &reg, &params);
    assert_eq!(out.remaining, 0);
    assert!(
        out.fixed.contains(".window g 60000."),
        "`.window g 60000.` not inserted:\n{}",
        out.fixed
    );
    assert!(!out.fixed.contains(".holddown"), "{}", out.fixed);
    let after = check_source(&out.fixed, &reg, &params);
    assert!(
        after
            .diags
            .iter()
            .all(|d| d.suggestions.iter().all(|s| !s.machine_applicable)),
        "machine-applicable suggestions survived fix:\n{}",
        after.to_text()
    );
}

/// `--dry-run` reports pending fixes with exit code 2 and leaves the file
/// byte-identical; a clean file exits 0.
#[test]
fn dry_run_never_touches_the_file() {
    let dir = std::env::temp_dir().join(format!("sensorlog_fix_dry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sptree.dl");
    let src = std::fs::read_to_string("examples/programs/sptree.dl").unwrap();
    std::fs::write(&path, &src).unwrap();

    let status = bin()
        .args(["fix", path.to_str().unwrap(), "--dry-run"])
        .status()
        .unwrap();
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        src,
        "--dry-run modified the file"
    );
    let dry_code = status.code().unwrap();
    assert!(dry_code == 0 || dry_code == 2, "unexpected exit {dry_code}");

    if dry_code == 2 {
        // Apply for real, then dry-run again: now clean, exit 0.
        assert!(bin()
            .args(["fix", path.to_str().unwrap()])
            .status()
            .unwrap()
            .success());
        let again = bin()
            .args(["fix", path.to_str().unwrap(), "--dry-run"])
            .status()
            .unwrap();
        assert_eq!(
            again.code(),
            Some(0),
            "fixed file still reports pending fixes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Applying fixes preserves semantics: for every seed example with at
/// least one rule, centralized evaluation over a deterministic fact set
/// produces the same output relations before and after fixing. (`fix` only
/// adds declarations — outputs must not move.)
#[test]
fn fix_preserves_semantics_on_examples() {
    let reg = BuiltinRegistry::standard();
    let params = BoundParams::default();
    for (path, src) in examples() {
        let fixed = fix_source(&src, &reg, &params).fixed;
        if fixed == src {
            continue;
        }
        let out_a = eval_outputs(&src, &path);
        let out_b = eval_outputs(&fixed, &path);
        assert_eq!(out_a, out_b, "{path}: fix changed the computed outputs");
    }
}

/// Evaluate a program centrally over a small deterministic EDB derived
/// from the predicates it declares as base streams, and collect the output
/// relations as printable strings.
fn eval_outputs(src: &str, label: &str) -> BTreeSet<String> {
    let prog = parse_program(src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let reg = BuiltinRegistry::standard();
    let analysis = analyze(&prog, &reg).unwrap_or_else(|e| panic!("{label}: {e}"));
    let outputs = analysis.program.outputs.clone();
    let mut edb = Database::new();
    for &p in &analysis.program.edb_preds() {
        let arity = analysis
            .program
            .rules
            .iter()
            .flat_map(|r| r.body.iter())
            .find_map(|l| match l {
                sensorlog::logic::ast::Literal::Pos(a) | sensorlog::logic::ast::Literal::Neg(a)
                    if a.pred == p =>
                {
                    Some(a.args.len())
                }
                _ => None,
            })
            .unwrap_or(1);
        // Small deterministic relation: tuples over {0, 1, 2}.
        for i in 0..3i64 {
            let args: Vec<Term> = (0..arity).map(|k| Term::Int((i + k as i64) % 3)).collect();
            edb.insert(p, Tuple::new(args));
        }
    }
    let engine = Engine::new(analysis, reg);
    let db = engine.run(&edb).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut out = BTreeSet::new();
    for p in outputs {
        for t in db.sorted(p) {
            out.insert(format!("{p}{t}"));
        }
    }
    out
}
