//! Whole-program static analysis: memory bounds, plan lints, placement and
//! message envelopes (`sensorlog check`).
//!
//! Runs after [`crate::analyze()`] and emits structured, span-carrying
//! [`Diagnostic`]s plus a static model of the program:
//!
//! 1. **Memory bounds** (paper Sec. V "Memory Requirements", computed by
//!    [`crate::absint::frontier`]): a per-predicate upper bound
//!    [`BoundExpr`] on the number of distinct stored tuples, as a symbolic
//!    formula over insertion-event counts `E(p)`, the XY stage count `S`,
//!    and topology parameters — evaluated against [`BoundParams`] and
//!    cross-validated at runtime by `core::invariants`.
//! 2. **Plan lints**: cartesian-product joins (a positive subgoal probed
//!    with no bound column), staged XY rules that still open with a scan
//!    once their stage variable is bound, negated IDB subgoals forcing
//!    multi-pass evaluation, and dead predicates/rules unreachable from any
//!    declared `.output`. The boundness signatures come from
//!    [`crate::boundness`], the same analysis `eval::planner` derives its
//!    index signatures from.
//! 3. **Placement**: the predicates owned by the node a column names,
//!    those on the neighbourhood plane and those whose regions a `dist`
//!    bound truncates — one [`crate::xy::locate`] walk, the one the
//!    planner places tuples by.
//! 4. **Message envelopes**: each derived predicate's row of
//!    [`crate::absint::comm_envelopes`], the per-kind traffic bound the
//!    run-time check holds a deployment to.
//!
//! Diagnostic codes are stable strings (`mem.bound`, `plan.cartesian-join`,
//! …) so golden tests and CI can pin them; see DESIGN.md for the full table.

use crate::analyze::{analyze, Analysis, AnalyzeError};
use crate::ast::{Literal, Program};
use crate::boundness::RuleSignature;
use crate::builtin::BuiltinRegistry;
use crate::depgraph::DepGraph;
use crate::parser::parse_program;
use crate::span::Span;
use crate::symbol::Symbol;
use crate::xy::{Place, Store};
use sensorlog_telemetry::jsonl::escape;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    Info,
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// A concrete, span-anchored rewrite that resolves its diagnostic
/// (rustc-style). Suggestions marked `machine_applicable` are applied
/// verbatim by `sensorlog fix`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Suggestion {
    /// Byte range of source to replace; zero-width ⇒ insertion.
    pub span: Span,
    /// Replacement source text.
    pub replacement: String,
    /// Human-readable rationale, shown as a `help:` line.
    pub note: String,
    /// Safe to apply without review (`sensorlog fix` only applies these).
    pub machine_applicable: bool,
}

/// One structured diagnostic with a stable rule-id code and source span.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `plan.cartesian-join`.
    pub code: &'static str,
    pub severity: Severity,
    /// Rule the diagnostic is about, if any.
    pub rule_id: Option<usize>,
    /// Predicate the diagnostic is about, if any.
    pub pred: Option<Symbol>,
    /// Source span (default = no source location).
    pub span: Span,
    pub message: String,
    /// Concrete rewrites that would resolve the diagnostic.
    pub suggestions: Vec<Suggestion>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {} ({})",
            self.severity.as_str(),
            self.code,
            self.message,
            self.span
        )
    }
}

/// Symbolic upper bound on the number of distinct tuples of a predicate.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BoundExpr {
    /// No static bound exists (value-inventing recursion, unwindowed
    /// stream feeding unbounded recursion, …).
    Unbounded,
    Const(u64),
    /// `E(p)`: distinct insertion events for base predicate `p` over the
    /// run (window-bounded streams: events live in the window).
    Events(Symbol),
    /// `S`: the XY stage count; bounded by `nodes + 1` for the paper's
    /// distance-staged programs (a shortest path visits each node once).
    Stages,
    /// `N`: the network size, used by the message envelopes (a routed hop
    /// count never exceeds the node count).
    Nodes,
    Sum(Vec<BoundExpr>),
    Prod(Vec<BoundExpr>),
    Pow(Box<BoundExpr>, u32),
}

impl BoundExpr {
    /// Evaluate against concrete parameters; `None` = unbounded. Arithmetic
    /// saturates at `u64::MAX` rather than wrapping.
    pub fn eval(&self, params: &BoundParams) -> Option<u64> {
        match self {
            BoundExpr::Unbounded => None,
            BoundExpr::Const(c) => Some(*c),
            BoundExpr::Events(p) => Some(
                params
                    .events
                    .get(p)
                    .copied()
                    .unwrap_or(params.default_events),
            ),
            BoundExpr::Stages => Some(params.nodes.saturating_add(1)),
            BoundExpr::Nodes => Some(params.nodes.max(1)),
            BoundExpr::Sum(xs) => xs
                .iter()
                .map(|x| x.eval(params))
                .try_fold(0u64, |a, b| Some(a.saturating_add(b?))),
            BoundExpr::Prod(xs) => xs
                .iter()
                .map(|x| x.eval(params))
                .try_fold(1u64, |a, b| Some(a.saturating_mul(b?))),
            BoundExpr::Pow(b, k) => {
                let base = b.eval(params)?;
                let mut acc = 1u64;
                for _ in 0..*k {
                    acc = acc.saturating_mul(base);
                }
                Some(acc)
            }
        }
    }
}

impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundExpr::Unbounded => write!(f, "unbounded"),
            BoundExpr::Const(c) => write!(f, "{c}"),
            BoundExpr::Events(p) => write!(f, "E({p})"),
            BoundExpr::Stages => write!(f, "S"),
            BoundExpr::Nodes => write!(f, "N"),
            BoundExpr::Sum(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            BoundExpr::Prod(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
            BoundExpr::Pow(b, k) => write!(f, "{b}^{k}"),
        }
    }
}

/// Topology / workload parameters the bound formulas are evaluated against.
#[derive(Clone, Debug)]
pub struct BoundParams {
    /// Network size (nodes); caps the XY stage count `S = nodes + 1`.
    pub nodes: u64,
    /// `E(p)` for base predicates without an entry in `events`.
    pub default_events: u64,
    /// Observed or assumed distinct insertion events per base predicate.
    pub events: BTreeMap<Symbol, u64>,
}

impl Default for BoundParams {
    fn default() -> BoundParams {
        BoundParams {
            nodes: 1,
            default_events: 1000,
            events: BTreeMap::new(),
        }
    }
}

/// A predicate's static memory bound: the symbolic formula plus its value
/// under the report's parameters (`None` = unbounded).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PredBound {
    pub expr: BoundExpr,
    pub value: Option<u64>,
}

/// Output of `sensorlog check`: diagnostics + the static model.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub diags: Vec<Diagnostic>,
    /// Whole-network distinct-tuple bound per predicate.
    pub bounds: BTreeMap<Symbol, PredBound>,
    /// Where each predicate's tuples live (`xy::locate`): its owner
    /// column, its place on the neighbourhood plane and its spatial radius.
    pub places: BTreeMap<Symbol, Place>,
}

impl Report {
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    pub fn has_warnings(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Warning)
    }

    fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        rule_id: Option<usize>,
        pred: Option<Symbol>,
        span: Span,
        message: String,
    ) {
        self.push_sugg(code, severity, rule_id, pred, span, message, Vec::new());
    }

    #[allow(clippy::too_many_arguments)]
    fn push_sugg(
        &mut self,
        code: &'static str,
        severity: Severity,
        rule_id: Option<usize>,
        pred: Option<Symbol>,
        span: Span,
        message: String,
        suggestions: Vec<Suggestion>,
    ) {
        self.diags.push(Diagnostic {
            code,
            severity,
            rule_id,
            pred,
            span,
            message,
            suggestions,
        });
    }

    /// Deterministic machine-readable JSON (hand-rolled: stable key order,
    /// no external deps). Pinned by the golden tests.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"code\": {}", escape(d.code)));
            s.push_str(&format!(", \"severity\": {}", escape(d.severity.as_str())));
            match d.rule_id {
                Some(id) => s.push_str(&format!(", \"rule\": {id}")),
                None => s.push_str(", \"rule\": null"),
            }
            match d.pred {
                Some(p) => s.push_str(&format!(", \"pred\": {}", escape(p.as_str()))),
                None => s.push_str(", \"pred\": null"),
            }
            s.push_str(&format!(
                ", \"line\": {}, \"col\": {}, \"start\": {}, \"end\": {}",
                d.span.line, d.span.col, d.span.start, d.span.end
            ));
            s.push_str(&format!(", \"message\": {}", escape(&d.message)));
            s.push_str(", \"suggestions\": [");
            for (j, sg) in d.suggestions.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{{\"start\": {}, \"end\": {}, \"replacement\": {}, \"note\": {}, \
                     \"machine_applicable\": {}}}",
                    sg.span.start,
                    sg.span.end,
                    escape(&sg.replacement),
                    escape(&sg.note),
                    sg.machine_applicable
                ));
            }
            s.push_str("]}");
        }
        if !self.diags.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"bounds\": {");
        for (i, (p, b)) in self.bounds.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {{\"formula\": {}, \"value\": {}}}",
                escape(p.as_str()),
                escape(&b.expr.to_string()),
                match b.value {
                    Some(v) => v.to_string(),
                    None => "null".into(),
                }
            ));
        }
        if !self.bounds.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"placement\": {");
        let owners: Vec<String> = (self.places.iter())
            .filter_map(|(p, place)| {
                Some(format!("\n    {}: {}", escape(p.as_str()), place.owner?))
            })
            .collect();
        s.push_str(&owners.join(","));
        if !owners.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"neighbourhood\": [");
        let plane: Vec<String> = (self.places.iter())
            .filter(|(_, place)| place.plane.is_some())
            .map(|(p, _)| escape(p.as_str()))
            .collect();
        s.push_str(&plane.join(", "));
        s.push_str("]\n}\n");
        s
    }

    /// Human-readable rendering: one diagnostic per line, followed by its
    /// suggestions as indented `help:` lines with the proposed rewrite.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for d in &self.diags {
            s.push_str(&d.to_string());
            s.push('\n');
            for sg in &d.suggestions {
                s.push_str(&format!(
                    "    help{}: {}\n",
                    if sg.machine_applicable {
                        " [machine-applicable]"
                    } else {
                        ""
                    },
                    sg.note
                ));
                for line in sg.replacement.lines() {
                    s.push_str(&format!("        {line}\n"));
                }
            }
        }
        s
    }
}

/// The span of `p`'s first rule (unknown if it has none).
fn def_span(prog: &Program, p: Symbol) -> Span {
    prog.rules_for(p)
        .next()
        .map(|r| r.spans.rule)
        .unwrap_or_default()
}

/// A bound's value as the diagnostics print it.
fn show(value: Option<u64>) -> String {
    value.map_or_else(|| "unbounded".into(), |v| v.to_string())
}

/// The span of the first body literal that reads `p` (unknown if none).
fn first_read(prog: &Program, p: Symbol) -> Span {
    (prog.rules.iter())
        .find_map(|r| {
            r.body.iter().enumerate().find_map(|(i, l)| match l {
                Literal::Pos(a) | Literal::Neg(a) if a.pred == p => Some(r.spans.lit(i)),
                _ => None,
            })
        })
        .unwrap_or_default()
}

/// Check a program source: parse + analyze + all static passes. Parse and
/// analysis failures become `error` diagnostics instead of `Err` — the
/// report is always produced.
pub fn check_source(src: &str, reg: &BuiltinRegistry, params: &BoundParams) -> Report {
    match parse_program(src) {
        Ok(prog) => check_program(&prog, reg, params),
        Err(e) => {
            let mut rep = Report::default();
            rep.push(
                "parse.error",
                Severity::Error,
                None,
                None,
                Span::new(0, 0, e.line, 0),
                e.message,
            );
            rep
        }
    }
}

/// Outcome of [`fix_source`]: the rewritten program plus an audit trail of
/// every rewrite applied.
#[derive(Clone, Debug)]
pub struct FixOutcome {
    /// Source after applying machine-applicable suggestions to a fixpoint.
    pub fixed: String,
    /// One human-readable line per applied rewrite, in application order.
    pub applied: Vec<String>,
    /// Analysis rounds spent reaching the fixpoint.
    pub rounds: usize,
    /// Machine-applicable suggestions still pending after the last round
    /// (0 at a true fixpoint; non-zero only if the round cap was hit).
    pub remaining: usize,
}

/// Maximum check→rewrite rounds in [`fix_source`]. Each round applies a
/// non-overlapping batch, so this caps pathological suggestion cascades.
const FIX_MAX_ROUNDS: usize = 8;

/// Apply every machine-applicable suggestion the analyzer emits for `src`,
/// re-checking after each batch until no suggestion remains (or the round
/// cap is hit). Within a round, suggestions are applied back-to-front by
/// byte offset; a suggestion overlapping an already-applied rewrite is
/// deferred to the next round, where the analyzer re-derives it against the
/// updated source.
pub fn fix_source(src: &str, reg: &BuiltinRegistry, params: &BoundParams) -> FixOutcome {
    let mut cur = src.to_string();
    let mut applied = Vec::new();
    let mut rounds = 0;
    let mut remaining = 0;
    while rounds < FIX_MAX_ROUNDS {
        rounds += 1;
        let rep = check_source(&cur, reg, params);
        // (start, end, replacement, audit line), machine-applicable only.
        let mut pending: Vec<(usize, usize, &str, String)> = Vec::new();
        for d in &rep.diags {
            for s in &d.suggestions {
                if !s.machine_applicable {
                    continue;
                }
                let who = d.pred.map(|p| format!(" `{p}`")).unwrap_or_default();
                pending.push((
                    s.span.start as usize,
                    s.span.end as usize,
                    &s.replacement,
                    format!("{}{}: {}", d.code, who, s.note),
                ));
            }
        }
        remaining = pending.len();
        if pending.is_empty() {
            break;
        }
        // Back-to-front so earlier offsets stay valid as we splice.
        pending.sort_by_key(|s| std::cmp::Reverse((s.0, s.1)));
        // Lowest start already rewritten this round; a later (i.e. earlier
        // in the file) suggestion reaching past it would overlap.
        let mut lo = usize::MAX;
        let mut batch = 0;
        for (start, end, replacement, line) in pending {
            if end > cur.len() || start > end {
                continue; // stale span — re-derive next round
            }
            if end > lo {
                continue; // overlaps a rewrite from this round
            }
            cur.replace_range(start..end, replacement);
            lo = start;
            applied.push(line);
            batch += 1;
            remaining -= 1;
        }
        if batch == 0 {
            break; // every pending suggestion overlapped — give up cleanly
        }
    }
    FixOutcome {
        fixed: cur,
        applied,
        rounds,
        remaining,
    }
}

/// Check a parsed program (see [`check_source`]).
pub fn check_program(prog: &Program, reg: &BuiltinRegistry, params: &BoundParams) -> Report {
    match analyze(prog, reg) {
        Ok(analysis) => check_analysis(&analysis, params),
        Err(e) => {
            let mut rep = Report::default();
            let (code, rule_id, pred, span, msg) = match &e {
                AnalyzeError::Safety(s) => (
                    "safety.unbound",
                    Some(s.rule_id),
                    None,
                    s.span,
                    e.to_string(),
                ),
                AnalyzeError::NotXYStratifiable { stratify, .. } => (
                    "stratify.negation-cycle",
                    Some(stratify.cycle_edge.2),
                    Some(stratify.cycle_edge.0),
                    stratify.span,
                    e.to_string(),
                ),
                AnalyzeError::NegatedBuiltin {
                    rule_id,
                    pred,
                    span,
                } => (
                    "safety.negated-builtin",
                    Some(*rule_id),
                    Some(*pred),
                    *span,
                    e.to_string(),
                ),
                AnalyzeError::ArityMismatch {
                    pred,
                    rule_id,
                    span,
                    ..
                } => (
                    "arity.mismatch",
                    Some(*rule_id),
                    Some(*pred),
                    *span,
                    e.to_string(),
                ),
            };
            rep.push(code, Severity::Error, rule_id, pred, span, msg);
            rep
        }
    }
}

/// All static passes over a validated program.
pub fn check_analysis(analysis: &Analysis, params: &BoundParams) -> Report {
    let mut rep = Report::default();
    let prog = &analysis.program;
    let g = DepGraph::build(prog);

    // Pass 1: memory bounds (`absint::frontier`: the frontier width where a
    // rule is provably tighter, the paper's S·Σ bound otherwise).
    let fr = crate::absint::frontier(analysis);
    let idb = prog.idb_preds();
    for (p, expr) in &fr.bounds {
        let value = expr.eval(params);
        if idb.contains(p) {
            let (code, severity, message) = if *expr == BoundExpr::Unbounded {
                (
                    "mem.unbounded",
                    Severity::Warning,
                    format!(
                        "no static memory bound for `{p}`: value-inventing or un-staged recursion"
                    ),
                )
            } else {
                (
                    "mem.bound",
                    Severity::Info,
                    format!("static tuple bound for `{p}`: {expr} = {}", show(value)),
                )
            };
            rep.push(code, severity, None, Some(*p), def_span(prog, *p), message);
        }
        let expr = expr.clone();
        rep.bounds.insert(*p, PredBound { expr, value });
    }

    // Unwindowed, undeclared base streams grow without bound. Anchor the
    // warning at the first body literal that consumes the stream.
    for p in prog.edb_preds() {
        if !prog.windows.contains_key(&p) && !prog.declared_base.contains(&p) {
            let span = first_read(prog, p);
            rep.push_sugg(
                "mem.window.unbounded",
                Severity::Warning,
                None,
                Some(p),
                span,
                format!(
                    "base stream `{p}` has no `.window` and is not declared `.base`: \
                     stored tuples grow without bound"
                ),
                vec![Suggestion {
                    span: Span::new(0, 0, 1, 1),
                    replacement: format!(".window {p} 60000.\n"),
                    note: format!("declare a sliding window so `{p}` tuples expire"),
                    machine_applicable: true,
                }],
            );
        }
    }

    // Pass 2: plan lints. A staged rule of an XY component is replayed the
    // way the batch engine's stage loop runs it: stage variable bound.
    for rule in &prog.rules {
        let stage_var = analysis.xy.iter().find_map(|info| info.stage_seed(rule));
        let sig = RuleSignature::new(rule, None, stage_var.into_iter().collect());
        let mut opening = true;
        for &i in &sig.order {
            let Literal::Pos(a) = &rule.body[i] else {
                continue;
            };
            let opens = opening;
            opening = false;
            if !sig.plan[i].is_empty() || a.args.is_empty() {
                continue;
            }
            if opens {
                // The opening literal of an unseeded order always scans,
                // once. Under the stage loop the scan repeats every stage.
                if let Some(v) = stage_var {
                    rep.push(
                        "plan.stage-rescan",
                        Severity::Warning,
                        Some(rule.id),
                        Some(a.pred),
                        rule.spans.lit(i),
                        format!(
                            "rule #{}: with stage variable `{v}` bound, evaluation still opens \
                             at `{}` with no bound column — the relation is rescanned every stage",
                            rule.id, a.pred
                        ),
                    );
                }
                continue;
            }
            // No bound column: every already-bound tuple pairs with every
            // tuple of `a` — a cartesian product. If a later comparison
            // constrains the pairing, the join is still index-less but
            // selective: downgrade to info.
            let a_vars: BTreeSet<Symbol> = a.vars().into_iter().collect();
            let constrained = rule.body.iter().any(|l| {
                if let Literal::Cmp(..) = l {
                    let mut vs = Vec::new();
                    l.collect_vars(&mut vs);
                    vs.iter().any(|v| a_vars.contains(v)) && vs.iter().any(|v| !a_vars.contains(v))
                } else {
                    false
                }
            });
            let (code, sev, what) = if constrained {
                (
                    "plan.no-index",
                    Severity::Info,
                    "comparison-constrained but index-less join",
                )
            } else {
                ("plan.cartesian-join", Severity::Warning, "cartesian join")
            };
            rep.push(
                code,
                sev,
                Some(rule.id),
                Some(a.pred),
                rule.spans.lit(i),
                format!(
                    "rule #{}: subgoal `{}` is probed with no bound column ({})",
                    rule.id, a.pred, what
                ),
            );
        }
        // Negated IDB subgoals force the negated predicate's stratum to
        // fully evaluate before this rule can fire (multi-pass).
        for (i, lit) in rule.body.iter().enumerate() {
            if let Literal::Neg(a) = lit {
                if idb.contains(&a.pred) {
                    rep.push(
                        "plan.negation-multipass",
                        Severity::Info,
                        Some(rule.id),
                        Some(a.pred),
                        rule.spans.lit(i),
                        format!(
                            "rule #{}: negated derived subgoal `{}` forces multi-pass \
                             (stratum-ordered) evaluation",
                            rule.id, a.pred
                        ),
                    );
                }
            }
        }
    }

    // Maintenance: a rule no update starts is derived by batch evaluation
    // and never by the network (`core::plan::compile` refuses it).
    for rule in prog.rules.iter().filter(|r| r.is_unseeded()) {
        rep.push(
            "maint.unseeded-rule",
            Severity::Error,
            Some(rule.id),
            Some(rule.head.pred),
            rule.spans.rule,
            format!(
                "rule #{}: no positive subgoal, so no update starts it and the network never \
                 derives `{}` (give it a positive subgoal, or state a fact)",
                rule.id, rule.head.pred
            ),
        );
    }

    // Dead code: predicates/rules unreachable from any declared output.
    if !prog.outputs.is_empty() {
        let live = g.reachable_from(&prog.outputs);
        for p in prog.all_preds() {
            if !live.contains(&p) {
                rep.push(
                    "plan.dead-pred",
                    Severity::Warning,
                    None,
                    Some(p),
                    def_span(prog, p),
                    format!("predicate `{p}` is unreachable from any `.output` query"),
                );
            }
        }
        for rule in &prog.rules {
            if !live.contains(&rule.head.pred) {
                rep.push(
                    "plan.dead-rule",
                    Severity::Warning,
                    Some(rule.id),
                    Some(rule.head.pred),
                    rule.spans.rule,
                    format!(
                        "rule #{} derives dead predicate `{}`",
                        rule.id, rule.head.pred
                    ),
                );
            }
        }
    }

    // Pass 3: placement.
    let places = crate::xy::locate(prog, &analysis.xy);
    for (&p, col) in places.iter().filter_map(|(p, pl)| Some((p, pl.owner?))) {
        rep.push(
            "comm.place",
            Severity::Info,
            None,
            Some(p),
            def_span(prog, p),
            format!(
                "`{p}` is owned by the node its column {col} names, not by the geographic hash"
            ),
        );
    }
    for (&p, on) in places.iter().filter_map(|(p, pl)| Some((p, pl.plane?))) {
        let col = on.col;
        let stored = match on.store {
            Store::Home => format!("at the node its column {col} names"),
            Store::LinkEnd => format!(
                "at the node its column {col} names and at the radio neighbour its column 1 names"
            ),
            Store::Neighbours => {
                format!("at the node its column {col} names and at every radio neighbour of it")
            }
        };
        rep.push(
            "comm.neighbourhood",
            Severity::Info,
            None,
            Some(p),
            (prog.rules_for(p).next()).map_or_else(|| first_read(prog, p), |r| r.spans.rule),
            if p == on.link {
                format!("`{p}` links the neighbourhood plane: each fact is stored {stored}, and joined there")
            } else {
                format!(
                    "`{p}` is on the neighbourhood plane over `{}`: stored {stored}, and joined there",
                    on.link
                )
            },
        );
    }
    for (&p, rad) in places.iter().filter_map(|(p, pl)| Some((p, pl.radius?))) {
        rep.push(
            "comm.radius",
            Severity::Info,
            Some(rad.rule),
            Some(p),
            (prog.rules.iter().find(|r| r.id == rad.rule))
                .map(|r| r.spans.rule)
                .unwrap_or_default(),
            format!(
                "`{p}`'s regions are truncated to radius {} (rule #{}'s `dist` bound) \
                 while its column {} is its node's position",
                rad.r, rad.rule, rad.col
            ),
        );
    }
    rep.places = places;

    // Pass 4: each derived predicate's row of the message envelopes.
    let env = crate::absint::comm_envelopes(analysis, &fr.bounds);
    for (p, row) in env.rows.iter().filter(|(_, row)| row.result.is_some()) {
        let kinds = [
            ("store", Some(&row.store)),
            ("probe", row.probe.as_ref()),
            ("result", row.result.as_ref()),
        ];
        let terms: Vec<String> = (kinds.into_iter())
            .filter_map(|(kind, e)| Some(format!("{kind} {} = {}", e?, show(e?.eval(params)))))
            .collect();
        rep.push(
            "cost.comm-estimate",
            Severity::Info,
            None,
            Some(*p),
            def_span(prog, *p),
            format!(
                "message envelope row for `{p}` (checked per kind at run time): {}",
                terms.join("; ")
            ),
        );
    }
    // XY-staged predicates retract and re-derive across stages. An
    // undeclared hold-down is derived per deployment, from the hops its
    // legs take there; a value in ms would pin one topology's number, so
    // nothing is suggested.
    for info in &analysis.xy {
        for (p, step) in info.steps() {
            if prog.holddowns.contains_key(&p) || !idb.contains(&p) {
                continue;
            }
            rep.push(
                "cost.holddown-implicit",
                Severity::Info,
                None,
                Some(p),
                def_span(prog, p),
                format!(
                    "XY-staged predicate `{p}` has no `.holddown` declaration; its holddown \
                     is derived per deployment: the base plus {step} retraction chains at \
                     stage-order step {step}"
                ),
            );
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> BuiltinRegistry {
        BuiltinRegistry::standard()
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    const LOGIC_H: &str = r#"
        .base g.
        .output h.
        h(a, a, 0).
        h(a, X, 1) :- g(a, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;

    #[test]
    fn value_invention_is_unbounded() {
        let prog = parse_program(
            r#"
            .base e.
            n(s(X)) :- n(X), e(X).
            n(X) :- e(X).
            "#,
        )
        .unwrap();
        let analysis = analyze(&prog, &reg()).unwrap();
        let rep = check_analysis(&analysis, &BoundParams::default());
        assert!(rep.diags.iter().any(|d| d.code == "mem.unbounded"));
    }

    #[test]
    fn cartesian_join_flagged() {
        let rep = check_source(
            ".base p.\n.base q.\nr(X, Y) :- p(X), q(Y).",
            &reg(),
            &BoundParams::default(),
        );
        let d = rep
            .diags
            .iter()
            .find(|d| d.code == "plan.cartesian-join")
            .expect("cartesian join diagnostic");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.pred, Some(sym("q")));
        assert!(d.span.is_known());
    }

    #[test]
    fn comparison_constrained_join_downgraded() {
        let rep = check_source(
            ".base p.\n.base q.\nr(X, Y) :- p(X), q(Y), X < Y.",
            &reg(),
            &BoundParams::default(),
        );
        assert!(rep.diags.iter().any(|d| d.code == "plan.no-index"));
        assert!(!rep.diags.iter().any(|d| d.code == "plan.cartesian-join"));
    }

    #[test]
    fn dead_predicates_flagged() {
        let rep = check_source(
            ".base e.\n.output q.\nq(X) :- e(X).\nzombie(X) :- e(X).",
            &reg(),
            &BoundParams::default(),
        );
        assert!(rep
            .diags
            .iter()
            .any(|d| d.code == "plan.dead-pred" && d.pred == Some(sym("zombie"))));
        assert!(rep.diags.iter().any(|d| d.code == "plan.dead-rule"));
    }

    /// A rule whose body has no positive subgoal is an error, anchored at
    /// the rule; a fact and a rule with a positive subgoal are not.
    #[test]
    fn unseeded_rule_is_an_error() {
        for rule in ["t :- not r0(1).", "t(7) :- not r0(1).", "t :- 1 < 2."] {
            let src = format!(".output t.\nh(0).\ns :- h(0), not r0(2).\n{rule}\n");
            let rep = check_source(&src, &reg(), &BoundParams::default());
            let unseeded: Vec<&Diagnostic> = (rep.diags.iter())
                .filter(|d| d.code == "maint.unseeded-rule")
                .collect();
            assert_eq!(unseeded.len(), 1, "{rule}: {:?}", rep.diags);
            let d = unseeded[0];
            assert_eq!(
                (d.severity, d.rule_id, d.pred),
                (Severity::Error, Some(2), Some(sym("t")))
            );
            assert_eq!(&src[d.span.start as usize..d.span.end as usize], rule);
            assert!(rep.has_errors());
        }
    }

    #[test]
    fn unsafe_program_reports_span() {
        let rep = check_source("q(X, Z) :- p(X).", &reg(), &BoundParams::default());
        assert!(rep.has_errors());
        let d = &rep.diags[0];
        assert_eq!(d.code, "safety.unbound");
        assert_eq!(d.span.line, 1);
    }

    #[test]
    fn unwindowed_stream_flagged() {
        let rep = check_source("q(X) :- p(X).", &reg(), &BoundParams::default());
        assert!(rep
            .diags
            .iter()
            .any(|d| d.code == "mem.window.unbounded" && d.pred == Some(sym("p"))));
        let quiet = check_source(
            ".window p 1000.\nq(X) :- p(X).",
            &reg(),
            &BoundParams::default(),
        );
        assert!(!quiet.diags.iter().any(|d| d.code == "mem.window.unbounded"));
    }

    #[test]
    fn json_is_valid_and_stable() {
        let rep = check_source(LOGIC_H, &reg(), &BoundParams::default());
        let j1 = rep.to_json();
        let rep2 = check_source(LOGIC_H, &reg(), &BoundParams::default());
        assert_eq!(j1, rep2.to_json());
        assert!(j1.contains("\"bounds\""));
        assert!(j1.contains("\"neighbourhood\""));
        // Quotes/newlines escape cleanly.
        assert_eq!(escape("a\"b\nc"), "\"a\\\"b\\nc\"");
    }
}
