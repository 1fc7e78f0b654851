//! Golden tests for the static analyzer's machine-readable output
//! (`sensorlog check --format=json`). Each case pins the exact JSON the
//! analyzer emits for a program — spans, codes, bound formulas, message
//! envelope rows, owner placement and the neighbourhood plane — so any drift
//! in the diagnostic surface is a deliberate, reviewed change rather than
//! an accident. Sources must match the embedded strings byte-for-byte:
//! the pinned `start`/`end` fields are byte offsets into them.

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
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "static tuple bound for `hp`: 2 * E(g) = 1000", "suggestions": []},
    {"code": "plan.negation-multipass", "severity": "info", "rule": 3, "pred": "hp", "line": 7, "col": 40, "start": 174, "end": 190, "message": "rule #3: negated derived subgoal `hp` forces multi-pass (stratum-ordered) evaluation", "suggestions": []},
    {"code": "comm.place", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "`hp` is owned by the node its column 0 names, not by the geographic hash", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "h", "line": 4, "col": 1, "start": 36, "end": 47, "message": "message envelope row for `h` (checked per kind at run time): store 4 * (1 + E(g) + E(g) * (1 + E(g) + E(g))) * N = 200400400; probe 24 * (1 + E(g) + E(g) * (1 + E(g) + E(g))) * N = 1202402400; result 8 * (1 + E(g) + E(g) * (1 + E(g) + E(g))) * N = 400800800", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "message envelope row for `hp` (checked per kind at run time): store 4 * (1 + E(g) + E(g)) * (1 + E(g) + E(g)) * E(g) * N = 200400200000; probe 4 * (1 + E(g) + E(g)) * (1 + E(g) + E(g)) * E(g) * N = 200400200000; result 8 * (1 + E(g) + E(g)) * (1 + E(g) + E(g)) * E(g) * N = 400800400000", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "hp", "line": 6, "col": 1, "start": 71, "end": 134, "message": "XY-staged predicate `hp` has no `.holddown` declaration; its holddown is derived per deployment: the base plus 0 retraction chains at stage-order step 0", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "h", "line": 4, "col": 1, "start": 36, "end": 47, "message": "XY-staged predicate `h` has no `.holddown` declaration; its holddown is derived per deployment: the base plus 1 retraction chains at stage-order step 1", "suggestions": []}
  ],
  "bounds": {
    "g": {"formula": "E(g)", "value": 500},
    "h": {"formula": "(1 + E(g) + E(g))", "value": 1001},
    "hp": {"formula": "2 * E(g)", "value": 1000}
  },
  "placement": {
    "hp": 0
  },
  "neighbourhood": []
}
"#;

#[test]
fn logich_report_is_pinned() {
    let rep = assert_golden("logicH", LOGIC_H, LOGIC_H_JSON);
    assert!(!rep.has_errors() && !rep.has_warnings());
    // An undeclared holddown is derived per deployment, so the text
    // rendering suggests no value for it.
    let text = rep.to_text();
    assert!(text.contains("its holddown is derived per deployment"));
    assert!(!text.contains("help"));
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
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "static tuple bound for `jp`: 2 * E(g) = 1000", "suggestions": []},
    {"code": "plan.negation-multipass", "severity": "info", "rule": 3, "pred": "jp", "line": 7, "col": 34, "start": 156, "end": 172, "message": "rule #3: negated derived subgoal `jp` forces multi-pass (stratum-ordered) evaluation", "suggestions": []},
    {"code": "comm.place", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "`j` is owned by the node its column 0 names, not by the geographic hash", "suggestions": []},
    {"code": "comm.place", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "`jp` is owned by the node its column 0 names, not by the geographic hash", "suggestions": []},
    {"code": "comm.neighbourhood", "severity": "info", "rule": null, "pred": "g", "line": 5, "col": 12, "start": 56, "end": 63, "message": "`g` links the neighbourhood plane: each fact is stored at the node its column 0 names and at the radio neighbour its column 1 names, and joined there", "suggestions": []},
    {"code": "comm.neighbourhood", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "`j` is on the neighbourhood plane over `g`: stored at the node its column 0 names and at every radio neighbour of it, and joined there", "suggestions": []},
    {"code": "comm.neighbourhood", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "`jp` is on the neighbourhood plane over `g`: stored at the node its column 0 names and at every radio neighbour of it, and joined there", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "message envelope row for `j` (checked per kind at run time): store 4 * (1 + E(g) + E(g) * (1 + E(g) + E(g))) * N = 200400400; probe 24 * (1 + E(g) + E(g) * (1 + E(g) + E(g))) * N = 1202402400; result 8 * (1 + E(g) + E(g) * (1 + E(g) + E(g))) * N = 400800800", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "message envelope row for `jp` (checked per kind at run time): store 4 * (1 + E(g) + E(g)) * (1 + E(g) + E(g)) * E(g) * N = 200400200000; probe 4 * (1 + E(g) + E(g)) * (1 + E(g) + E(g)) * E(g) * N = 200400200000; result 8 * (1 + E(g) + E(g)) * (1 + E(g) + E(g)) * E(g) * N = 400800400000", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "jp", "line": 6, "col": 1, "start": 65, "end": 122, "message": "XY-staged predicate `jp` has no `.holddown` declaration; its holddown is derived per deployment: the base plus 0 retraction chains at stage-order step 0", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "j", "line": 4, "col": 1, "start": 36, "end": 44, "message": "XY-staged predicate `j` has no `.holddown` declaration; its holddown is derived per deployment: the base plus 1 retraction chains at stage-order step 1", "suggestions": []}
  ],
  "bounds": {
    "g": {"formula": "E(g)", "value": 500},
    "j": {"formula": "(1 + E(g) + E(g))", "value": 1001},
    "jp": {"formula": "2 * E(g)", "value": 1000}
  },
  "placement": {
    "j": 0,
    "jp": 0
  },
  "neighbourhood": ["g", "j", "jp"]
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
  "placement": {},
  "neighbourhood": []
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
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "q", "line": 4, "col": 1, "start": 57, "end": 79, "message": "message envelope row for `q` (checked per kind at run time): store 4 * E(r) * E(s) * N = 100000000; result 8 * E(r) * E(s) * N = 200000000", "suggestions": []}
  ],
  "bounds": {
    "q": {"formula": "E(r) * E(s)", "value": 250000},
    "r": {"formula": "E(r)", "value": 500},
    "s": {"formula": "E(s)", "value": 500}
  },
  "placement": {},
  "neighbourhood": []
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
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "j", "line": 6, "col": 1, "start": 65, "end": 73, "message": "message envelope row for `j` (checked per kind at run time): store 4 * (1 + E(hop) * (1 + S * E(hop))) * N = 10100200400; probe 24 * (1 + E(hop) * (1 + S * E(hop))) * N = 60601202400; result 8 * (1 + E(hop) * (1 + S * E(hop))) * N = 20200400800", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "jp", "line": 7, "col": 1, "start": 74, "end": 131, "message": "message envelope row for `jp` (checked per kind at run time): store 4 * (1 + S * E(hop)) * (1 + S * E(hop)) * E(g) * N = 510070200200000; probe 4 * (1 + S * E(hop)) * (1 + S * E(hop)) * E(g) * N = 510070200200000; result 8 * (1 + S * E(hop)) * (1 + S * E(hop)) * E(g) * N = 1020140400400000", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "jp", "line": 7, "col": 1, "start": 74, "end": 131, "message": "XY-staged predicate `jp` has no `.holddown` declaration; its holddown is derived per deployment: the base plus 0 retraction chains at stage-order step 0", "suggestions": []},
    {"code": "cost.holddown-implicit", "severity": "info", "rule": null, "pred": "j", "line": 6, "col": 1, "start": 65, "end": 73, "message": "XY-staged predicate `j` has no `.holddown` declaration; its holddown is derived per deployment: the base plus 1 retraction chains at stage-order step 1", "suggestions": []}
  ],
  "bounds": {
    "g": {"formula": "E(g)", "value": 500},
    "hop": {"formula": "E(hop)", "value": 500},
    "j": {"formula": "(1 + S * E(hop))", "value": 50501},
    "jp": {"formula": "S * E(g)", "value": 50500}
  },
  "placement": {},
  "neighbourhood": []
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
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "orphan", "line": 5, "col": 1, "start": 54, "end": 75, "message": "message envelope row for `orphan` (checked per kind at run time): store 4 * E(e) * N = 200000; result 8 * E(e) * N = 400000", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "t", "line": 4, "col": 1, "start": 34, "end": 53, "message": "message envelope row for `t` (checked per kind at run time): store 4 * E(e) * N = 200000; result 8 * E(e) * N = 400000", "suggestions": []}
  ],
  "bounds": {
    "e": {"formula": "E(e)", "value": 500},
    "orphan": {"formula": "E(e)", "value": 500},
    "t": {"formula": "E(e)", "value": 500}
  },
  "placement": {},
  "neighbourhood": []
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
  "placement": {},
  "neighbourhood": []
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
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "t", "line": 2, "col": 1, "start": 11, "end": 30, "message": "message envelope row for `t` (checked per kind at run time): store 4 * E(e) * N = 200000; result 8 * E(e) * N = 400000", "suggestions": []}
  ],
  "bounds": {
    "e": {"formula": "E(e)", "value": 500},
    "t": {"formula": "E(e)", "value": 500}
  },
  "placement": {},
  "neighbourhood": []
}
"#;

#[test]
fn unbounded_window_report_is_pinned() {
    let rep = assert_golden("unwindowed", UNWINDOWED, UNWINDOWED_JSON);
    assert!(!rep.has_errors() && rep.has_warnings());
}

// ------------------------------------------------------- two-level join

/// A join whose input is itself a join. It warns about nothing: each
/// derived predicate gets its envelope row, and no rewrite is suggested.
const TWO_LEVEL_JOIN: &str = "\
.base a. .base b. .base c.
.window a 10. .window b 10. .window c 10.
.output big.
mid(X, Y) :- a(X, K), b(K, Y).
big(X, Z) :- mid(X, Y), c(Y, Z).
";

const TWO_LEVEL_JOIN_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "big", "line": 5, "col": 1, "start": 113, "end": 145, "message": "static tuple bound for `big`: E(a) * E(b) * E(c) = 125000000", "suggestions": []},
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "mid", "line": 4, "col": 1, "start": 82, "end": 112, "message": "static tuple bound for `mid`: E(a) * E(b) = 250000", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "big", "line": 5, "col": 1, "start": 113, "end": 145, "message": "message envelope row for `big` (checked per kind at run time): store 4 * E(a) * E(b) * E(c) * N = 50000000000; result 8 * E(a) * E(b) * E(c) * N = 100000000000", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "mid", "line": 4, "col": 1, "start": 82, "end": 112, "message": "message envelope row for `mid` (checked per kind at run time): store 4 * E(a) * E(b) * N = 100000000; probe 4 * E(a) * E(b) * N = 100000000; result 8 * E(a) * E(b) * N = 200000000", "suggestions": []}
  ],
  "bounds": {
    "a": {"formula": "E(a)", "value": 500},
    "b": {"formula": "E(b)", "value": 500},
    "big": {"formula": "E(a) * E(b) * E(c)", "value": 125000000},
    "c": {"formula": "E(c)", "value": 500},
    "mid": {"formula": "E(a) * E(b)", "value": 250000}
  },
  "placement": {},
  "neighbourhood": []
}
"#;

#[test]
fn two_level_join_report_is_pinned() {
    let rep = assert_golden("two-level join", TWO_LEVEL_JOIN, TWO_LEVEL_JOIN_JSON);
    assert!(!rep.has_errors() && !rep.has_warnings());
}

// ------------------------------------------------------------------ Fig. 7

/// Fig. 7's spatial join: the rule's `dist` bound is the radius both
/// streams' regions are cut to while each event's location column is its
/// node's position.
const SPATIAL: &str = "\
.window s1 60000.
.window s2 60000.
.output q.
q(L1, L2, T) :- s1(L1, T), s2(L2, T), dist(L1, L2) <= 4.
";

const SPATIAL_JSON: &str = r#"{
  "diagnostics": [
    {"code": "mem.bound", "severity": "info", "rule": null, "pred": "q", "line": 4, "col": 1, "start": 47, "end": 103, "message": "static tuple bound for `q`: E(s1) * E(s2) = 250000", "suggestions": []},
    {"code": "comm.radius", "severity": "info", "rule": 0, "pred": "s1", "line": 4, "col": 1, "start": 47, "end": 103, "message": "`s1`'s regions are truncated to radius 4 (rule #0's `dist` bound) while its column 0 is its node's position", "suggestions": []},
    {"code": "comm.radius", "severity": "info", "rule": 0, "pred": "s2", "line": 4, "col": 1, "start": 47, "end": 103, "message": "`s2`'s regions are truncated to radius 4 (rule #0's `dist` bound) while its column 0 is its node's position", "suggestions": []},
    {"code": "cost.comm-estimate", "severity": "info", "rule": null, "pred": "q", "line": 4, "col": 1, "start": 47, "end": 103, "message": "message envelope row for `q` (checked per kind at run time): store 4 * E(s1) * E(s2) * N = 100000000; result 8 * E(s1) * E(s2) * N = 200000000", "suggestions": []}
  ],
  "bounds": {
    "q": {"formula": "E(s1) * E(s2)", "value": 250000},
    "s1": {"formula": "E(s1)", "value": 500},
    "s2": {"formula": "E(s2)", "value": 500}
  },
  "placement": {},
  "neighbourhood": []
}
"#;

#[test]
fn spatial_join_report_is_pinned() {
    let rep = assert_golden("spatial join", SPATIAL, SPATIAL_JSON);
    assert!(!rep.has_errors() && !rep.has_warnings());
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
        ("two-level join", TWO_LEVEL_JOIN),
        ("spatial join", SPATIAL),
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
