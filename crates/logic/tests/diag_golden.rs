//! Golden tests for the static analyzer's machine-readable output
//! (`sensorlog check --format=json`). Each case pins the exact JSON the
//! analyzer emits for a program — spans, codes, bound formulas, plane
//! assignments and owner placement — so any drift in the diagnostic
//! surface is a deliberate, reviewed change rather than an accident.
//! Sources must match the
//! embedded strings byte-for-byte: the pinned `start`/`end` fields are
//! byte offsets into them.

use sensorlog_logic::diag::{check_source, BoundParams};
use sensorlog_logic::BuiltinRegistry;

fn check(src: &str) -> sensorlog_logic::diag::Report {
    let params = BoundParams {
        nodes: 100,
        default_events: 500,
        events: Default::default(),
    };
    check_source(src, &BuiltinRegistry::standard(), &params)
}

fn assert_golden(label: &str, src: &str, expected: &str) -> sensorlog_logic::diag::Report {
    let rep = check(src);
    let got = rep.to_json();
    assert_eq!(
        got, expected,
        "{label}: JSON drifted\n--- got ---\n{got}\n--- want ---\n{expected}"
    );
    rep
}

// ---------------------------------------------------------------- logicH

const LOGIC_H: &str = "\
.base g.
.window g 1000.
.output h.
h(a, a, 0).
h(0, X, 1) :- g(0, X).
hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
";

const LOGIC_H_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "h", "line": 4, "col": 1, "start": 36, "end": 47, "message": "static tuple bound for `h`: (1 + E(g) + E(g)) = 1001", "suggestions": []},
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "static tuple bound for `hp`: 3 * E(g) = 1500", "suggestions": []},
    {"code": "plan.negation-multipass", "severity": "info", "rule": 3, "pred": "hp", "line": 7, "col": 40, "start": 174, "end": 190, "message": "rule #3: negated derived subgoal `hp` forces multi-pass (stratum-ordered) evaluation", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "h", "line": 4, "col": 1, "start": 36, "end": 47, "message": "predicate `h` evaluates on the neighbor-broadcast plane", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "predicate `hp` evaluates on the neighbor-broadcast plane", "suggestions": []},
    {"code": "comm.place", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "`hp` is owned by the node its column 0 names, not by the geographic hash", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "h", "line": 4, "col": 1, "start": 36, "end": 47, "message": "estimated messages attributable to `h` (neighbor-broadcast plane): 20 * (1 + E(g) + E(g)) * N = 2002000", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "estimated messages attributable to `hp` (neighbor-broadcast plane): 8 * 3 * E(g) * N = 1200000", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "XY-staged predicate `hp` has no `.holddown` declaration; the planner default (100 ms) applies silently", "suggestions": [{"start": 0, "end": 0, "replacement": ".holddown hp 100.\n", "note": "declare the retraction hold-down for `hp` explicitly", "machine_applicable": true}]},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "h", "line": 4, "col": 1, "start": 36, "end": 47, "message": "XY-staged predicate `h` has no `.holddown` declaration; the planner default (2100 ms) applies silently", "suggestions": [{"start": 0, "end": 0, "replacement": ".holddown h 2100.\n", "note": "declare the retraction hold-down for `h` explicitly", "machine_applicable": true}]}
  ],
  "bounds": {
    "g": {"formula": "E(g)", "value": 500},
    "h": {"formula": "(1 + E(g) + E(g))", "value": 1001},
    "hp": {"formula": "3 * E(g)", "value": 1500}
  },
  "planes": {
    "g": "local",
    "h": "neighbor-broadcast",
    "hp": "neighbor-broadcast"
  },
  "placement": {
    "hp": 0
  }
}
"#;

#[test]
fn logich_report_is_pinned() {
    let rep = assert_golden("logicH", LOGIC_H, LOGIC_H_JSON);
    assert!(!rep.has_errors() && !rep.has_warnings());
}

// ---------------------------------------------------------------- logicJ

const LOGIC_J: &str = "\
.base g.
.window g 1000.
.output j.
j(0, 0).
j(X, 1) :- g(0, X).
jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
j(Y, D + 1) :- g(X, Y), j(X, D), not jp(Y, D + 1).
";

const LOGIC_J_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "static tuple bound for `j`: (1 + E(g) + E(g)) = 1001", "suggestions": []},
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "static tuple bound for `jp`: 3 * E(g) = 1500", "suggestions": []},
    {"code": "plan.negation-multipass", "severity": "info", "rule": 3, "pred": "jp", "line": 7, "col": 34, "start": 156, "end": 172, "message": "rule #3: negated derived subgoal `jp` forces multi-pass (stratum-ordered) evaluation", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "predicate `j` evaluates on the neighbor-broadcast plane", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "predicate `jp` evaluates on the neighbor-broadcast plane", "suggestions": []},
    {"code": "comm.place", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "`j` is owned by the node its column 0 names, not by the geographic hash", "suggestions": []},
    {"code": "comm.place", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "`jp` is owned by the node its column 0 names, not by the geographic hash", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "estimated messages attributable to `j` (neighbor-broadcast plane): 20 * (1 + E(g) + E(g)) * N = 2002000", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "estimated messages attributable to `jp` (neighbor-broadcast plane): 8 * 3 * E(g) * N = 1200000", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "XY-staged predicate `jp` has no `.holddown` declaration; the planner default (100 ms) applies silently", "suggestions": [{"start": 0, "end": 0, "replacement": ".holddown jp 100.\n", "note": "declare the retraction hold-down for `jp` explicitly", "machine_applicable": true}]},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "XY-staged predicate `j` has no `.holddown` declaration; the planner default (2100 ms) applies silently", "suggestions": [{"start": 0, "end": 0, "replacement": ".holddown j 2100.\n", "note": "declare the retraction hold-down for `j` explicitly", "machine_applicable": true}]}
  ],
  "bounds": {
    "g": {"formula": "E(g)", "value": 500},
    "j": {"formula": "(1 + E(g) + E(g))", "value": 1001},
    "jp": {"formula": "3 * E(g)", "value": 1500}
  },
  "planes": {
    "g": "local",
    "j": "neighbor-broadcast",
    "jp": "neighbor-broadcast"
  },
  "placement": {
    "j": 0,
    "jp": 0
  }
}
"#;

#[test]
fn logicj_report_is_pinned() {
    let rep = assert_golden("logicJ", LOGIC_J, LOGIC_J_JSON);
    assert!(!rep.has_errors() && !rep.has_warnings());
}

// ------------------------------------------------------ broken: unsafe rule

const UNSAFE: &str = "\
.output p.
p(X, Y) :- q(X).
";

const UNSAFE_JSON: &str = r#"{
  "diagnostics": [
    {"code": "safety.unbound", "severity": "error", "rule": 0, "pred": null, "line": 2, "col": 1, "start": 11, "end": 27, "message": "unsafe rule #0 (head) at 2:1: variable(s) Y not bound by any positive relational subgoal", "suggestions": []}
  ],
  "bounds": {},
  "planes": {},
  "placement": {}
}
"#;

#[test]
fn unsafe_rule_report_is_pinned() {
    let rep = assert_golden("unsafe", UNSAFE, UNSAFE_JSON);
    assert!(rep.has_errors());
}

// -------------------------------------------------- broken: cartesian join

const CARTESIAN: &str = "\
.base r. .base s.
.window r 10. .window s 10.
.output q.
q(X, Y) :- r(X), s(Y).
";

const CARTESIAN_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "q", "line": 4, "col": 1, "start": 57, "end": 79, "message": "static tuple bound for `q`: E(r) * E(s) = 250000", "suggestions": []},
    {"code": "plan.cartesian-join", "severity": "warning", "rule": 0, "pred": "s", "line": 4, "col": 18, "start": 74, "end": 78, "message": "rule #0: subgoal `s` is probed with no bound column (cartesian join)", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "q", "line": 4, "col": 1, "start": 57, "end": 79, "message": "predicate `q` evaluates on the tree-routed plane", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "q", "line": 4, "col": 1, "start": 57, "end": 79, "message": "estimated messages attributable to `q` (tree-routed plane): 16 * E(r) * E(s) * N = 400000000", "suggestions": []}
  ],
  "bounds": {
    "q": {"formula": "E(r) * E(s)", "value": 250000},
    "r": {"formula": "E(r)", "value": 500},
    "s": {"formula": "E(s)", "value": 500}
  },
  "planes": {
    "q": "tree-routed",
    "r": "local",
    "s": "local"
  },
  "placement": {}
}
"#;

#[test]
fn cartesian_join_report_is_pinned() {
    let rep = assert_golden("cartesian", CARTESIAN, CARTESIAN_JSON);
    assert!(!rep.has_errors() && rep.has_warnings());
}

// ------------------------------------- stage variable inside a compound

/// logicJ with the link relation keyed on `at(D, X)`: binding the stage
/// variable grounds no whole column of `hop`, so the stage loop opens rule
/// #2 with a scan of `hop` at every stage.
const STAGE_RESCAN: &str = "\
.base g.
.base hop.
.window g 1000.
.window hop 1000.
.output j.
j(0, 0).
jp(Y, D + 1) :- j(Y, D'), (D + 1) > D', j(X, D), g(X, Y).
j(Y, D + 1) :- hop(at(D, X), Y), j(X, D), not jp(Y, D + 1).
";

const STAGE_RESCAN_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "j", "line": 6, "col": 1, "start": 65, "end": 73, "message": "static tuple bound for `j`: (1 + S * E(hop)) = 50501", "suggestions": []},
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "jp", "line": 7, "col": 1, "start": 74, "end": 131, "message": "static tuple bound for `jp`: S * E(g) = 50500", "suggestions": []},
    {"code": "plan.stage-rescan", "severity": "warning", "rule": 2, "pred": "hop", "line": 8, "col": 16, "start": 147, "end": 163, "message": "rule #2: with stage variable `D` bound, evaluation still opens at `hop` with no bound column — the relation is rescanned every stage", "suggestions": []},
    {"code": "plan.negation-multipass", "severity": "info", "rule": 2, "pred": "jp", "line": 8, "col": 43, "start": 174, "end": 190, "message": "rule #2: negated derived subgoal `jp` forces multi-pass (stratum-ordered) evaluation", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "j", "line": 6, "col": 1, "start": 65, "end": 73, "message": "predicate `j` evaluates on the neighbor-broadcast plane", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "jp", "line": 7, "col": 1, "start": 74, "end": 131, "message": "predicate `jp` evaluates on the neighbor-broadcast plane", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "j", "line": 6, "col": 1, "start": 65, "end": 73, "message": "estimated messages attributable to `j` (neighbor-broadcast plane): 20 * (1 + S * E(hop)) * N = 101002000", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "jp", "line": 7, "col": 1, "start": 74, "end": 131, "message": "estimated messages attributable to `jp` (neighbor-broadcast plane): 8 * S * E(g) * N = 40400000", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "jp", "line": 7, "col": 1, "start": 74, "end": 131, "message": "XY-staged predicate `jp` has no `.holddown` declaration; the planner default (100 ms) applies silently", "suggestions": [{"start": 0, "end": 0, "replacement": ".holddown jp 100.\n", "note": "declare the retraction hold-down for `jp` explicitly", "machine_applicable": true}]},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "j", "line": 6, "col": 1, "start": 65, "end": 73, "message": "XY-staged predicate `j` has no `.holddown` declaration; the planner default (2100 ms) applies silently", "suggestions": [{"start": 0, "end": 0, "replacement": ".holddown j 2100.\n", "note": "declare the retraction hold-down for `j` explicitly", "machine_applicable": true}]}
  ],
  "bounds": {
    "g": {"formula": "E(g)", "value": 500},
    "hop": {"formula": "E(hop)", "value": 500},
    "j": {"formula": "(1 + S * E(hop))", "value": 50501},
    "jp": {"formula": "S * E(g)", "value": 50500}
  },
  "planes": {
    "g": "local",
    "hop": "local",
    "j": "neighbor-broadcast",
    "jp": "neighbor-broadcast"
  },
  "placement": {}
}
"#;

#[test]
fn stage_rescan_report_is_pinned() {
    let rep = assert_golden("stage-rescan", STAGE_RESCAN, STAGE_RESCAN_JSON);
    let warnings: Vec<_> = rep
        .diags
        .iter()
        .filter(|d| d.severity >= sensorlog_logic::diag::Severity::Warning)
        .collect();
    assert_eq!(warnings.len(), 1);
    assert_eq!(warnings[0].code, "plan.stage-rescan");
    assert!(warnings[0].message.contains("stage variable `D`"));
}

// ------------------------------------------------ broken: dead predicate

const DEAD: &str = "\
.base e.
.window e 10.
.output t.
t(X, Y) :- e(X, Y).
orphan(X) :- e(X, _).
";

const DEAD_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "orphan", "line": 5, "col": 1, "start": 54, "end": 75, "message": "static tuple bound for `orphan`: E(e) = 500", "suggestions": []},
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "t", "line": 4, "col": 1, "start": 34, "end": 53, "message": "static tuple bound for `t`: E(e) = 500", "suggestions": []},
    {"code": "plan.dead-pred", "severity": "warning", "rule": null, "pred": "orphan", "line": 5, "col": 1, "start": 54, "end": 75, "message": "predicate `orphan` is unreachable from any `.output` query", "suggestions": []},
    {"code": "plan.dead-rule", "severity": "warning", "rule": 1, "pred": "orphan", "line": 5, "col": 1, "start": 54, "end": 75, "message": "rule #1 derives dead predicate `orphan`", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "orphan", "line": 5, "col": 1, "start": 54, "end": 75, "message": "predicate `orphan` evaluates on the local plane", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "t", "line": 4, "col": 1, "start": 34, "end": 53, "message": "predicate `t` evaluates on the local plane", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "orphan", "line": 5, "col": 1, "start": 54, "end": 75, "message": "estimated messages attributable to `orphan` (local plane): 4 * E(e) * N = 200000", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "t", "line": 4, "col": 1, "start": 34, "end": 53, "message": "estimated messages attributable to `t` (local plane): 4 * E(e) * N = 200000", "suggestions": []}
  ],
  "bounds": {
    "e": {"formula": "E(e)", "value": 500},
    "orphan": {"formula": "E(e)", "value": 500},
    "t": {"formula": "E(e)", "value": 500}
  },
  "planes": {
    "e": "local",
    "orphan": "local",
    "t": "local"
  },
  "placement": {}
}
"#;

#[test]
fn dead_predicate_report_is_pinned() {
    let rep = assert_golden("dead", DEAD, DEAD_JSON);
    assert!(!rep.has_errors() && rep.has_warnings());
}

// ------------------------------------- broken: non-XY negation cycle

const NON_XY: &str = "\
.base move.
.window move 10.
.output win.
win(X) :- move(X, Y), not win(Y).
";

const NON_XY_JSON: &str = r#"{
  "diagnostics": [
    {"code": "stratify.negation-cycle", "severity": "error", "rule": 0, "pred": "win", "line": 4, "col": 1, "start": 42, "end": 75, "message": "program is not stratified: predicate win depends negatively on win (rule #0 at 4:1) within the recursive component {win}; and the XY-stratification check failed: component {win} is not XY-stratified: rule #0: stage of subgoal win is not provably ≤ the head stage", "suggestions": []}
  ],
  "bounds": {},
  "planes": {},
  "placement": {}
}
"#;

#[test]
fn negation_cycle_report_is_pinned() {
    let rep = assert_golden("non-xy", NON_XY, NON_XY_JSON);
    assert!(rep.has_errors());
}

// ------------------------------------------- broken: unbounded window

const UNWINDOWED: &str = "\
.output t.
t(X, Y) :- e(X, Y).
";

const UNWINDOWED_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "t", "line": 2, "col": 1, "start": 11, "end": 30, "message": "static tuple bound for `t`: E(e) = 500", "suggestions": []},
    {"code": "mem.window.unbounded", "severity": "warning", "rule": null, "pred": "e", "line": 2, "col": 12, "start": 22, "end": 29, "message": "base stream `e` has no `.window` and is not declared `.base`: stored tuples grow without bound", "suggestions": [{"start": 0, "end": 0, "replacement": ".window e 60000.\n", "note": "declare a sliding window so `e` tuples expire", "machine_applicable": true}]},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "t", "line": 2, "col": 1, "start": 11, "end": 30, "message": "predicate `t` evaluates on the local plane", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "t", "line": 2, "col": 1, "start": 11, "end": 30, "message": "estimated messages attributable to `t` (local plane): 4 * E(e) * N = 200000", "suggestions": []}
  ],
  "bounds": {
    "e": {"formula": "E(e)", "value": 500},
    "t": {"formula": "E(e)", "value": 500}
  },
  "planes": {
    "e": "local",
    "t": "local"
  },
  "placement": {}
}
"#;

#[test]
fn unbounded_window_report_is_pinned() {
    let rep = assert_golden("unwindowed", UNWINDOWED, UNWINDOWED_JSON);
    assert!(!rep.has_errors() && rep.has_warnings());
}

// ----------------------------------------------------------------- widen

const WIDEN: &str = "\
.base a. .base b. .base c.
.window a 10. .window b 10. .window c 10.
.output big.
mid(X, Y) :- a(X, K), b(K, Y).
big(X, Z) :- mid(X, Y), c(Y, Z).
";

const WIDEN_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "big", "line": 5, "col": 1, "start": 113, "end": 145, "message": "static tuple bound for `big`: E(a) * E(b) * E(c) = 125000000", "suggestions": []},
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "mid", "line": 4, "col": 1, "start": 82, "end": 112, "message": "static tuple bound for `mid`: E(a) * E(b) = 250000", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "big", "line": 5, "col": 1, "start": 113, "end": 145, "message": "predicate `big` evaluates on the tree-routed plane", "suggestions": []},
    {"code": "comm.plane", "severity": "info", "rule": null, "pred": "mid", "line": 4, "col": 1, "start": 82, "end": 112, "message": "predicate `mid` evaluates on the tree-routed plane", "suggestions": []},
    {"code": "comm.widen", "severity": "warning", "rule": 1, "pred": "mid", "line": 5, "col": 14, "start": 126, "end": 135, "message": "rule #1: tree-routed join consumes already tree-routed `mid` — communication plane widens — split the join at `mid` via `mid_local(X, Y) :- mid(X, Y).`", "suggestions": [{"start": 113, "end": 145, "replacement": "mid_local(X, Y) :- mid(X, Y).\nbig(X, Z) :- mid_local(X, Y), c(Y, Z).", "note": "hoist `mid` into local-plane helper `mid_local` so the join consumes it locally", "machine_applicable": true}]},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "big", "line": 5, "col": 1, "start": 113, "end": 145, "message": "estimated messages attributable to `big` (tree-routed plane): 16 * E(a) * E(b) * E(c) * N = 200000000000", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "mid", "line": 4, "col": 1, "start": 82, "end": 112, "message": "estimated messages attributable to `mid` (tree-routed plane): 20 * E(a) * E(b) * N = 500000000", "suggestions": []}
  ],
  "bounds": {
    "a": {"formula": "E(a)", "value": 500},
    "b": {"formula": "E(b)", "value": 500},
    "big": {"formula": "E(a) * E(b) * E(c)", "value": 125000000},
    "c": {"formula": "E(c)", "value": 500},
    "mid": {"formula": "E(a) * E(b)", "value": 250000}
  },
  "planes": {
    "a": "local",
    "b": "local",
    "big": "tree-routed",
    "c": "local",
    "mid": "tree-routed"
  },
  "placement": {}
}
"#;

#[test]
fn comm_widen_split_suggestion_is_pinned() {
    let rep = assert_golden("widen", WIDEN, WIDEN_JSON);
    assert!(!rep.has_errors() && rep.has_warnings());
    // The concrete split must surface in the rendered text too, as a
    // machine-applicable help with the rewritten rules inline.
    let text = rep.to_text();
    assert!(text.contains("split the join at `mid` via `mid_local(X, Y) :- mid(X, Y).`"));
    assert!(text.contains("help [machine-applicable]:"));
    assert!(text.contains("mid_local(X, Y) :- mid(X, Y)."));
    assert!(text.contains("big(X, Z) :- mid_local(X, Y), c(Y, Z)."));
}

// -------------------------------------------------------------- invariants

/// Every diagnostic in every golden program that is attached to source
/// carries a resolvable line:col — the span plumbing must not regress to
/// 0:0 for any pass.
#[test]
fn all_source_diags_carry_spans() {
    for (label, src) in [
        ("logicH", LOGIC_H),
        ("logicJ", LOGIC_J),
        ("unsafe", UNSAFE),
        ("cartesian", CARTESIAN),
        ("stage-rescan", STAGE_RESCAN),
        ("dead", DEAD),
        ("non-xy", NON_XY),
        ("unwindowed", UNWINDOWED),
        ("widen", WIDEN),
    ] {
        let rep = check(src);
        assert!(!rep.diags.is_empty(), "{label}: analyzer was silent");
        for d in &rep.diags {
            assert!(
                d.span.is_known(),
                "{label}: diagnostic {} has no span",
                d.code
            );
        }
    }
}
