//! Whole-program static analysis: memory bounds, plan lints, and
//! communication-plane classification (`sensorlog check`).
//!
//! Runs after [`crate::analyze`] and emits structured, span-carrying
//! [`Diagnostic`]s plus a static model of the program:
//!
//! 1. **Memory bounds** (paper Sec. V "Memory Requirements"): a per-predicate
//!    upper bound [`BoundExpr`] on the number of distinct stored tuples, as a
//!    symbolic formula over insertion-event counts `E(p)`, the XY stage count
//!    `S`, and topology parameters — evaluated against [`BoundParams`] and
//!    cross-validated at runtime by `core::invariants`.
//! 2. **Plan lints**: cartesian-product joins (a positive subgoal probed
//!    with no bound column), staged XY rules that still open with a scan
//!    once their stage variable is bound, negated IDB subgoals forcing
//!    multi-pass evaluation, and dead predicates/rules unreachable from any
//!    declared `.output`. The boundness signatures come from
//!    [`crate::boundness`], the same analysis `eval::planner` derives its
//!    index signatures from.
//! 3. **Communication planes**: each rule is statically labeled
//!    local / neighbor-broadcast / tree-routed (the paper's PA/GPA plan
//!    split), and rules that widen the plane of an already tree-routed
//!    predicate are flagged.
//!
//! Diagnostic codes are stable strings (`mem.bound`, `plan.cartesian-join`,
//! …) so golden tests and CI can pin them; see DESIGN.md for the full table.

use crate::analyze::{analyze, Analysis, AnalyzeError};
use crate::ast::{Literal, Program, Rule};
use crate::boundness::RuleSignature;
use crate::builtin::BuiltinRegistry;
use crate::depgraph::DepGraph;
use crate::parser::parse_program;
use crate::span::Span;
use crate::symbol::Symbol;
use crate::term::Term;
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
    /// `N`: the network size, used by communication-cost estimates (a
    /// routed hop count never exceeds the node count).
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

/// Static communication plane of a rule or predicate, ordered by width.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Plane {
    /// Evaluable on the node holding the triggering tuple.
    Local,
    /// XY-staged recursion: each stage floods one hop (paper's logicH).
    NeighborBroadcast,
    /// Multi-way join: fragments must be routed to a join point (GPA).
    TreeRouted,
}

impl Plane {
    pub fn as_str(self) -> &'static str {
        match self {
            Plane::Local => "local",
            Plane::NeighborBroadcast => "neighbor-broadcast",
            Plane::TreeRouted => "tree-routed",
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
    /// Communication plane per predicate (widest over its rules).
    pub planes: BTreeMap<Symbol, Plane>,
    /// Owner column of each placed predicate (`xy::placement`): its tuples
    /// are owned by the node that column names.
    pub placement: BTreeMap<Symbol, usize>,
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
            s.push_str(&format!("\"code\": {}", json_str(d.code)));
            s.push_str(&format!(
                ", \"severity\": {}",
                json_str(d.severity.as_str())
            ));
            match d.rule_id {
                Some(id) => s.push_str(&format!(", \"rule\": {id}")),
                None => s.push_str(", \"rule\": null"),
            }
            match d.pred {
                Some(p) => s.push_str(&format!(", \"pred\": {}", json_str(p.as_str()))),
                None => s.push_str(", \"pred\": null"),
            }
            s.push_str(&format!(
                ", \"line\": {}, \"col\": {}, \"start\": {}, \"end\": {}",
                d.span.line, d.span.col, d.span.start, d.span.end
            ));
            s.push_str(&format!(", \"message\": {}", json_str(&d.message)));
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
                    json_str(&sg.replacement),
                    json_str(&sg.note),
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
                json_str(p.as_str()),
                json_str(&b.expr.to_string()),
                match b.value {
                    Some(v) => v.to_string(),
                    None => "null".into(),
                }
            ));
        }
        if !self.bounds.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"planes\": {");
        for (i, (p, plane)) in self.planes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {}: {}",
                json_str(p.as_str()),
                json_str(plane.as_str())
            ));
        }
        if !self.planes.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n  \"placement\": {");
        for (i, (p, col)) in self.placement.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {col}", json_str(p.as_str())));
        }
        if !self.placement.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("}\n}\n");
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

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

    // Pass 1: memory bounds (frontier-width pass; falls back to the legacy
    // S·Σ contribution wherever a rule is not provably tighter).
    let fr = crate::absint::frontier(analysis);
    let bounds = &fr.bounds;
    for (p, expr) in bounds {
        let value = expr.eval(params);
        if *expr == BoundExpr::Unbounded && prog.idb_preds().contains(p) {
            let span = prog
                .rules_for(*p)
                .next()
                .map(|r| r.spans.rule)
                .unwrap_or_default();
            rep.push(
                "mem.unbounded",
                Severity::Warning,
                None,
                Some(*p),
                span,
                format!("no static memory bound for `{p}`: value-inventing or un-staged recursion"),
            );
        } else if prog.idb_preds().contains(p) {
            let span = prog
                .rules_for(*p)
                .next()
                .map(|r| r.spans.rule)
                .unwrap_or_default();
            rep.push(
                "mem.bound",
                Severity::Info,
                None,
                Some(*p),
                span,
                format!(
                    "static tuple bound for `{p}`: {} = {}",
                    expr,
                    match value {
                        Some(v) => v.to_string(),
                        None => "unbounded".into(),
                    }
                ),
            );
        }
        rep.bounds.insert(
            *p,
            PredBound {
                expr: expr.clone(),
                value,
            },
        );
    }

    // Unwindowed, undeclared base streams grow without bound. Anchor the
    // warning at the first body literal that consumes the stream.
    for p in prog.edb_preds() {
        if !prog.windows.contains_key(&p) && !prog.declared_base.contains(&p) {
            let span = prog
                .rules
                .iter()
                .find_map(|r| {
                    r.body.iter().enumerate().find_map(|(i, l)| match l {
                        Literal::Pos(a) | Literal::Neg(a) if a.pred == p => Some(r.spans.lit(i)),
                        _ => None,
                    })
                })
                .unwrap_or_default();
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
    let idb = prog.idb_preds();
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
                    prog.rules_for(p)
                        .next()
                        .map(|r| r.spans.rule)
                        .unwrap_or_default(),
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

    // Pass 3: communication planes.
    let planes = comm_planes(analysis);
    for (p, plane) in &planes {
        if idb.contains(p) {
            rep.push(
                "comm.plane",
                Severity::Info,
                None,
                Some(*p),
                prog.rules_for(*p)
                    .next()
                    .map(|r| r.spans.rule)
                    .unwrap_or_default(),
                format!("predicate `{p}` evaluates on the {} plane", plane.as_str()),
            );
        }
    }
    let placement = crate::xy::placement(prog, &analysis.xy);
    for (&p, &col) in &placement {
        rep.push(
            "comm.place",
            Severity::Info,
            None,
            Some(p),
            prog.rules_for(p)
                .next()
                .map(|r| r.spans.rule)
                .unwrap_or_default(),
            format!(
                "`{p}` is owned by the node its column {col} names, not by the geographic hash"
            ),
        );
    }
    rep.placement = placement;
    for rule in &prog.rules {
        if rule_plane(analysis, rule) == Plane::TreeRouted {
            for (i, lit) in rule.body.iter().enumerate() {
                if let Literal::Pos(a) = lit {
                    if idb.contains(&a.pred) && planes.get(&a.pred) == Some(&Plane::TreeRouted) {
                        let suggestions = split_suggestion(prog, rule, i)
                            .into_iter()
                            .collect::<Vec<_>>();
                        let detail = match suggestions.first() {
                            Some(s) => {
                                let aux = s.replacement.lines().next().unwrap_or("").to_string();
                                format!(" — split the join at `{}` via `{aux}`", a.pred)
                            }
                            None => " (consider staging or localizing)".to_string(),
                        };
                        rep.push_sugg(
                            "comm.widen",
                            Severity::Warning,
                            Some(rule.id),
                            Some(a.pred),
                            rule.spans.lit(i),
                            format!(
                                "rule #{}: tree-routed join consumes already tree-routed `{}` — \
                                 communication plane widens{detail}",
                                rule.id, a.pred
                            ),
                            suggestions,
                        );
                    }
                }
            }
        }
    }

    // Pass 4: communication-cost lints from the frontier pass.
    for (p, cost) in &fr.comm {
        if !idb.contains(p) {
            continue;
        }
        let value = cost.msgs.eval(params);
        rep.push(
            "cost.comm-estimate",
            Severity::Info,
            None,
            Some(*p),
            prog.rules_for(*p)
                .next()
                .map(|r| r.spans.rule)
                .unwrap_or_default(),
            format!(
                "estimated messages attributable to `{p}` ({} plane): {} = {}",
                cost.plane.as_str(),
                cost.msgs,
                match value {
                    Some(v) => v.to_string(),
                    None => "unbounded".into(),
                }
            ),
        );
    }
    // XY-staged predicates retract and re-derive across stages; an
    // undeclared hold-down means the planner default applies silently.
    // Suggest declaring the default explicitly (behavior-neutral).
    for info in &analysis.xy {
        for (i, &p) in info.stage_order.iter().enumerate() {
            if prog.holddowns.contains_key(&p) || !idb.contains(&p) {
                continue;
            }
            let default_ms = 100 + (i as u64) * 2_000;
            rep.push_sugg(
                "cost.holddown-implicit",
                Severity::Info,
                None,
                Some(p),
                prog.rules_for(p)
                    .next()
                    .map(|r| r.spans.rule)
                    .unwrap_or_default(),
                format!(
                    "XY-staged predicate `{p}` has no `.holddown` declaration; \
                     the planner default ({default_ms} ms) applies silently"
                ),
                vec![Suggestion {
                    span: Span::new(0, 0, 1, 1),
                    replacement: format!(".holddown {p} {default_ms}.\n"),
                    note: format!("declare the retraction hold-down for `{p}` explicitly"),
                    machine_applicable: true,
                }],
            );
        }
    }
    rep.planes = planes;
    rep
}

/// Build the machine-applicable rewrite for a widening join: hoist body
/// literal `i` of `rule` into a fresh single-subgoal (local-plane) helper
/// rule, projecting only the columns the rest of the rule consumes, and
/// replace the subgoal with the helper. Returns `None` when the rule
/// aggregates or the subgoal shares no variables with the rest of the rule
/// (splitting would not help).
fn split_suggestion(prog: &Program, rule: &Rule, i: usize) -> Option<Suggestion> {
    use crate::ast::Atom;
    if rule.agg.is_some() || !rule.spans.rule.is_known() {
        return None;
    }
    let Literal::Pos(a) = &rule.body[i] else {
        return None;
    };
    // Fresh helper name.
    let all = prog.all_preds();
    let mut name = format!("{}_local", a.pred);
    let mut n = 1;
    while all.contains(&Symbol::intern(&name)) {
        n += 1;
        name = format!("{}_local{n}", a.pred);
    }
    // Keep the subgoal columns the rest of the rule (head or other
    // literals) actually consumes, in first-occurrence order.
    let mut outside: BTreeSet<Symbol> = rule.head.vars().into_iter().collect();
    for (j, l) in rule.body.iter().enumerate() {
        if j != i {
            let mut vs = Vec::new();
            l.collect_vars(&mut vs);
            outside.extend(vs);
        }
    }
    let mut keep: Vec<Symbol> = Vec::new();
    for v in a.vars() {
        if outside.contains(&v) && !keep.contains(&v) {
            keep.push(v);
        }
    }
    if keep.is_empty() {
        return None;
    }
    let aux_atom = Atom::new(&name, keep.iter().map(|v| Term::Var(*v)).collect());
    let aux_rule = Rule {
        id: 0,
        head: aux_atom.clone(),
        body: vec![Literal::Pos(a.clone())],
        agg: None,
        spans: Default::default(),
    };
    let mut rewritten = rule.clone();
    rewritten.body[i] = Literal::Pos(aux_atom);
    Some(Suggestion {
        span: rule.spans.rule,
        replacement: format!("{aux_rule}\n{rewritten}"),
        note: format!(
            "hoist `{}` into local-plane helper `{name}` so the join consumes it locally",
            a.pred
        ),
        machine_applicable: true,
    })
}

/// Static plane of one rule: XY-staged heads flood one hop per stage;
/// multi-way joins route fragments to a join point; everything else is
/// local to the node holding the triggering tuple.
pub fn rule_plane(analysis: &Analysis, rule: &Rule) -> Plane {
    let in_xy = analysis
        .xy
        .iter()
        .any(|info| info.scc.contains(&rule.head.pred));
    if in_xy {
        return Plane::NeighborBroadcast;
    }
    let positives = rule.body.iter().filter(|l| l.is_positive_rel()).count();
    if positives >= 2 {
        Plane::TreeRouted
    } else {
        Plane::Local
    }
}

/// Plane per predicate: the widest plane over its rules; base predicates
/// are local (they are stored where sensed).
pub fn comm_planes(analysis: &Analysis) -> BTreeMap<Symbol, Plane> {
    let prog = &analysis.program;
    let mut out: BTreeMap<Symbol, Plane> = BTreeMap::new();
    for p in prog.edb_preds() {
        out.insert(p, Plane::Local);
    }
    for rule in &prog.rules {
        let plane = rule_plane(analysis, rule);
        let e = out.entry(rule.head.pred).or_insert(Plane::Local);
        if plane > *e {
            *e = plane;
        }
    }
    out
}

/// True if a term contains a function application (value invention under
/// recursion ⇒ no finite Herbrand bound).
fn has_fn_symbol(t: &Term) -> bool {
    matches!(t, Term::App(..))
}

/// Derive the whole-network distinct-tuple bound per predicate (Sec. V).
///
/// Walks SCCs dependencies-first:
/// * base predicate → `E(p)` insertion events;
/// * non-recursive predicate → Σ over its rules of Π of positive-subgoal
///   bounds (each solution of the body derives at most one head tuple);
/// * XY-staged SCC → `S ×` per-stage bound, where the per-stage bound of a
///   rule is Π of its *out-of-SCC* positive-subgoal bounds (each stage
///   re-derives from scratch off the previous stage, keyed by the base
///   tuples it joins with);
/// * other recursion → Herbrand bound `D^arity` over the constants `D`
///   carried by base tuples, or unbounded when heads invent values.
pub fn memory_bounds(analysis: &Analysis) -> BTreeMap<Symbol, BoundExpr> {
    let prog = &analysis.program;
    let g = DepGraph::build(prog);
    let edb = prog.edb_preds();
    let idb = prog.idb_preds();
    let mut bounds: BTreeMap<Symbol, BoundExpr> = BTreeMap::new();
    for &p in &edb {
        bounds.insert(p, BoundExpr::Events(p));
    }

    // Domain size for Herbrand bounds: constants carried by base tuples.
    let herbrand_domain = || {
        let parts: Vec<BoundExpr> = edb
            .iter()
            .map(|&p| {
                let arity = prog.arity_of(p).unwrap_or(1).max(1) as u64;
                BoundExpr::Prod(vec![BoundExpr::Const(arity), BoundExpr::Events(p)])
            })
            .collect();
        if parts.is_empty() {
            BoundExpr::Const(1)
        } else {
            BoundExpr::Sum(parts)
        }
    };

    let body_product = |rule: &Rule,
                        skip_scc: Option<&BTreeSet<Symbol>>,
                        bounds: &BTreeMap<Symbol, BoundExpr>|
     -> BoundExpr {
        let mut factors: Vec<BoundExpr> = Vec::new();
        for lit in &rule.body {
            if let Literal::Pos(a) = lit {
                if let Some(scc) = skip_scc {
                    if scc.contains(&a.pred) {
                        continue;
                    }
                }
                match bounds.get(&a.pred) {
                    Some(BoundExpr::Unbounded) | None => return BoundExpr::Unbounded,
                    Some(b) => factors.push(b.clone()),
                }
            }
        }
        if factors.is_empty() {
            BoundExpr::Const(1)
        } else if factors.len() == 1 {
            factors.pop().expect("one factor")
        } else {
            BoundExpr::Prod(factors)
        }
    };

    for scc in g.sccs() {
        // reverse topological: dependencies first
        let members: Vec<Symbol> = scc.iter().filter(|p| idb.contains(p)).copied().collect();
        if members.is_empty() {
            continue;
        }
        let scc_set: BTreeSet<Symbol> = scc.iter().copied().collect();
        let recursive = scc.len() > 1
            || scc
                .iter()
                .any(|&p| g.succ(p).any(|(q, _, _)| scc_set.contains(q)));
        if !recursive {
            let p = members[0];
            let terms: Vec<BoundExpr> = prog
                .rules_for(p)
                .map(|r| body_product(r, None, &bounds))
                .collect();
            let b = if terms.contains(&BoundExpr::Unbounded) {
                BoundExpr::Unbounded
            } else if terms.len() == 1 {
                terms.into_iter().next().expect("one rule")
            } else {
                BoundExpr::Sum(terms)
            };
            bounds.insert(p, b);
            continue;
        }
        let is_xy = analysis
            .xy
            .iter()
            .any(|info| members.iter().all(|p| info.scc.contains(p)));
        if is_xy {
            // Per stage, each rule derives at most Π(out-of-SCC positive
            // bounds) tuples; rules joining only in-SCC tuples have no such
            // anchor and are unbounded.
            for &p in &members {
                let mut per_stage: Vec<BoundExpr> = Vec::new();
                let mut unbounded = false;
                for r in prog.rules_for(p) {
                    let anchored = r.body.is_empty()
                        || r.body
                            .iter()
                            .any(|l| matches!(l, Literal::Pos(a) if !scc_set.contains(&a.pred)));
                    if !anchored {
                        unbounded = true;
                        break;
                    }
                    per_stage.push(body_product(r, Some(&scc_set), &bounds));
                }
                let b = if unbounded || per_stage.contains(&BoundExpr::Unbounded) {
                    BoundExpr::Unbounded
                } else {
                    let inner = if per_stage.len() == 1 {
                        per_stage.into_iter().next().expect("one rule")
                    } else {
                        BoundExpr::Sum(per_stage)
                    };
                    BoundExpr::Prod(vec![BoundExpr::Stages, inner])
                };
                bounds.insert(p, b);
            }
            continue;
        }
        // Plain (positive) recursion: Herbrand-bounded unless heads invent
        // values via function symbols.
        let invents = prog
            .rules
            .iter()
            .filter(|r| scc_set.contains(&r.head.pred))
            .any(|r| r.head.args.iter().any(has_fn_symbol));
        for &p in &members {
            let b = if invents {
                BoundExpr::Unbounded
            } else {
                let arity = prog.arity_of(p).unwrap_or(0) as u32;
                BoundExpr::Pow(Box::new(herbrand_domain()), arity)
            };
            bounds.insert(p, b);
        }
    }
    bounds
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
    fn logich_bounds_are_stage_scaled() {
        let prog = parse_program(LOGIC_H).unwrap();
        let analysis = analyze(&prog, &reg()).unwrap();
        let bounds = memory_bounds(&analysis);
        let params = BoundParams {
            nodes: 200,
            default_events: 740,
            events: BTreeMap::new(),
        };
        let h = bounds[&sym("h")].eval(&params).expect("finite");
        let hp = bounds[&sym("hp")].eval(&params).expect("finite");
        // h: S * (1 + E(g) + E(g)); hp: S * E(g); S = 201.
        assert_eq!(h, 201 * (1 + 740 + 740));
        assert_eq!(hp, 201 * 740);
    }

    #[test]
    fn nonrecursive_bound_is_body_product() {
        let prog = parse_program(
            r#"
            .base e.
            q(X, Z) :- e(X, Y), e(Y, Z).
            "#,
        )
        .unwrap();
        let analysis = analyze(&prog, &reg()).unwrap();
        let bounds = memory_bounds(&analysis);
        let params = BoundParams {
            nodes: 1,
            default_events: 10,
            events: BTreeMap::new(),
        };
        assert_eq!(bounds[&sym("q")].eval(&params), Some(100));
    }

    #[test]
    fn transitive_closure_gets_herbrand_bound() {
        let prog = parse_program(
            r#"
            .base e.
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
            "#,
        )
        .unwrap();
        let analysis = analyze(&prog, &reg()).unwrap();
        let bounds = memory_bounds(&analysis);
        let params = BoundParams {
            nodes: 1,
            default_events: 10,
            events: BTreeMap::new(),
        };
        // D = 2*E(e) = 20 constants; t/2 ≤ D² = 400.
        assert_eq!(bounds[&sym("t")].eval(&params), Some(400));
    }

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
        let bounds = memory_bounds(&analysis);
        assert_eq!(bounds[&sym("n")], BoundExpr::Unbounded);
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
    fn planes_classified() {
        let prog = parse_program(LOGIC_H).unwrap();
        let analysis = analyze(&prog, &reg()).unwrap();
        let planes = comm_planes(&analysis);
        assert_eq!(planes[&sym("h")], Plane::NeighborBroadcast);
        assert_eq!(planes[&sym("g")], Plane::Local);
        let join = parse_program(".base p.\n.base q.\nr(X) :- p(X, Y), q(Y, X).").unwrap();
        let a2 = analyze(&join, &reg()).unwrap();
        assert_eq!(comm_planes(&a2)[&sym("r")], Plane::TreeRouted);
    }

    #[test]
    fn json_is_valid_and_stable() {
        let rep = check_source(LOGIC_H, &reg(), &BoundParams::default());
        let j1 = rep.to_json();
        let rep2 = check_source(LOGIC_H, &reg(), &BoundParams::default());
        assert_eq!(j1, rep2.to_json());
        assert!(j1.contains("\"bounds\""));
        assert!(j1.contains("\"planes\""));
        // Quotes/newlines escape cleanly.
        assert_eq!(json_str("a\"b\nc"), "\"a\\\"b\\nc\"");
    }
}
