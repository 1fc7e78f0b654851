//! The materialized cross-node provenance DAG and its query surface.
//!
//! [`ProvDag::build`] folds a deployment's raw [`ProvRecord`] log into
//! per-atom state, mirroring the owner-side bookkeeping of the runtime:
//! derivation-key counts are clamped to `[-1, 1]` by the rule the owners
//! apply (`sensorlog_core::clamp_absorbs`), EDB liveness follows the last
//! insert/delete transition, and tuple-id bindings come from `Edb` and
//! `Mint` records. Liveness of derived atoms is then computed as a
//! well-founded fixpoint (an atom is live iff some positive derivation key
//! has all inputs bound to live atoms), which yields a *rank* per atom —
//! the round it entered the fixpoint. Proofs recurse strictly down ranks,
//! so they are acyclic by construction even when the record log contains
//! cyclic rule firings (e.g. transitive closure re-deriving a premise).

use sensorlog_core::{clamp_absorbs, DerivationKey, ProvRecord, TupleId};
use sensorlog_eval::eval_body::{eval_check, Check};
use sensorlog_eval::UpdateKind;
use sensorlog_logic::boundness::order_literals;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::{flat_match_args, FlatSubst};
use sensorlog_logic::intern;
use sensorlog_logic::unify::Subst;
use sensorlog_logic::{Atom, Literal, Program, Rule, Symbol, Term, Tuple};
use sensorlog_netsim::{NodeId, SimTime};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// Atoms are identified by (predicate, ground tuple) across the network.
type AtomKey = (Symbol, Tuple);

/// One delivered hop of a message causally charged to a tuple id.
#[derive(Clone, Debug)]
pub struct HopInfo {
    pub from: NodeId,
    pub to: NodeId,
    /// Final destination of the routed envelope.
    pub dest: NodeId,
    /// Wire kind: `store`, `probe`, `result`, `centroid`.
    pub kind: &'static str,
    /// Receiver-local sim time of the arrival.
    pub at: SimTime,
}

/// Live/dead state of a fact binding (EDB entry or minted derived tuple).
#[derive(Clone, Copy, Debug)]
struct FactState {
    id: TupleId,
    alive: bool,
    at: SimTime,
    /// Was ever alive — distinguishes "retracted" from "tombstone only".
    ever: bool,
}

/// Owner-side state of one derivation key for an atom.
#[derive(Clone, Debug)]
struct KeyEntry {
    key: DerivationKey,
    count: i64,
    /// Event timestamp (τ) of the last positive delta.
    tau: SimTime,
    /// Originating update of the last positive delta.
    origin: Option<TupleId>,
    /// Owner-local arrival time of the last positive delta.
    booked_at: SimTime,
    ever_pos: bool,
}

#[derive(Clone, Debug, Default)]
struct AtomState {
    keys: Vec<KeyEntry>,
    edb: Option<FactState>,
    mint: Option<FactState>,
}

impl AtomState {
    fn was_live(&self) -> bool {
        self.edb.is_some_and(|f| f.ever)
            || self.mint.is_some_and(|f| f.ever)
            || self.keys.iter().any(|k| k.ever_pos)
    }
}

/// The global causal DAG of one deployment run.
pub struct ProvDag {
    atoms: HashMap<AtomKey, AtomState>,
    /// Every tuple ever mentioned, per predicate (deterministic order).
    by_pred: HashMap<Symbol, BTreeSet<Tuple>>,
    /// TupleId → the atom it names (from `Edb` and `Mint` records).
    bindings: HashMap<TupleId, AtomKey>,
    /// Per originating tuple id, the delivered hops charged to it.
    hops: HashMap<TupleId, Vec<HopInfo>>,
    /// Fixpoint round at which each live atom became derivable. EDB = 0.
    rank: HashMap<AtomKey, u32>,
    /// Number of raw records ingested.
    pub n_records: usize,
}

impl ProvDag {
    /// Fold a record log into the DAG and compute the liveness fixpoint.
    pub fn build(records: &[ProvRecord]) -> ProvDag {
        let mut dag = ProvDag {
            atoms: HashMap::new(),
            by_pred: HashMap::new(),
            bindings: HashMap::new(),
            hops: HashMap::new(),
            rank: HashMap::new(),
            n_records: records.len(),
        };
        for rec in records {
            dag.ingest(rec);
        }
        dag.compute_ranks();
        dag
    }

    fn ingest(&mut self, rec: &ProvRecord) {
        match rec {
            ProvRecord::Edb {
                pred,
                tuple,
                id,
                kind,
                tau,
                ..
            } => {
                let atom = (*pred, tuple.clone());
                self.bindings.insert(*id, atom.clone());
                self.by_pred.entry(*pred).or_default().insert(tuple.clone());
                let st = self.atoms.entry(atom).or_default();
                let alive = matches!(kind, UpdateKind::Insert);
                let prev = st.edb;
                st.edb = Some(FactState {
                    // A delete keeps the insert's id so proofs reference
                    // the generation, not the tombstone.
                    id: if alive {
                        *id
                    } else {
                        prev.map_or(*id, |p| p.id)
                    },
                    alive,
                    at: *tau,
                    ever: alive || prev.is_some_and(|p| p.ever),
                });
            }
            ProvRecord::Deriv {
                pred,
                tuple,
                key,
                sign,
                tau,
                origin,
                at,
                ..
            } => {
                let atom = (*pred, tuple.clone());
                self.by_pred.entry(*pred).or_default().insert(tuple.clone());
                let st = self.atoms.entry(atom).or_default();
                let entry = match st.keys.iter_mut().find(|e| e.key == *key) {
                    Some(e) => e,
                    None => {
                        st.keys.push(KeyEntry {
                            key: key.clone(),
                            count: 0,
                            tau: 0,
                            origin: None,
                            booked_at: 0,
                            ever_pos: false,
                        });
                        st.keys.last_mut().unwrap()
                    }
                };
                // The owner's clamp, asked of the owner's own rule: refresh
                // re-announces can legitimately re-deliver the same key.
                if !clamp_absorbs(entry.count, *sign) {
                    entry.count += i64::from(*sign);
                }
                if *sign > 0 {
                    entry.tau = *tau;
                    entry.origin = Some(*origin);
                    entry.booked_at = *at;
                    entry.ever_pos = true;
                }
            }
            ProvRecord::Mint {
                pred,
                tuple,
                id,
                kind,
                at,
                ..
            } => {
                let atom = (*pred, tuple.clone());
                self.bindings.insert(*id, atom.clone());
                self.by_pred.entry(*pred).or_default().insert(tuple.clone());
                let st = self.atoms.entry(atom).or_default();
                let alive = matches!(kind, UpdateKind::Insert);
                let prev = st.mint;
                st.mint = Some(FactState {
                    id: *id,
                    alive,
                    at: *at,
                    ever: alive || prev.is_some_and(|p| p.ever),
                });
            }
            ProvRecord::Hop {
                from,
                to,
                dest,
                kind,
                origin,
                at,
            } => self.hops.entry(*origin).or_default().push(HopInfo {
                from: *from,
                to: *to,
                dest: *dest,
                kind,
                at: *at,
            }),
        }
    }

    /// Well-founded liveness: round 0 admits live EDB atoms; each later
    /// round admits atoms with a positive derivation key whose every input
    /// id is bound to an already-admitted atom.
    fn compute_ranks(&mut self) {
        for (atom, st) in &self.atoms {
            if st.edb.is_some_and(|f| f.alive) {
                self.rank.insert(atom.clone(), 0);
            }
        }
        let mut round = 1u32;
        loop {
            let mut admitted = Vec::new();
            for (atom, st) in &self.atoms {
                if self.rank.contains_key(atom) {
                    continue;
                }
                let supported = st.keys.iter().any(|e| {
                    e.count > 0
                        && e.key.inputs.iter().all(|(_, id)| {
                            self.bindings
                                .get(id)
                                .is_some_and(|a| self.rank.contains_key(a))
                        })
                });
                if supported {
                    admitted.push(atom.clone());
                }
            }
            if admitted.is_empty() {
                break;
            }
            for atom in admitted {
                self.rank.insert(atom, round);
            }
            round += 1;
        }
    }

    /// Is this atom live (supported by the well-founded fixpoint)?
    pub fn atom_live(&self, pred: Symbol, tuple: &Tuple) -> bool {
        self.rank.contains_key(&(pred, tuple.clone()))
    }

    /// Live tuples of a predicate, in deterministic (BTree) order.
    pub fn live_tuples(&self, pred: Symbol) -> Vec<&Tuple> {
        self.by_pred
            .get(&pred)
            .map(|set| {
                set.iter()
                    .filter(|t| self.rank.contains_key(&(pred, (*t).clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Tuples of a predicate that were live at some point but are dead now.
    fn retracted_tuples(&self, pred: Symbol) -> Vec<&Tuple> {
        self.by_pred
            .get(&pred)
            .map(|set| {
                set.iter()
                    .filter(|t| {
                        let atom = (pred, (*t).clone());
                        !self.rank.contains_key(&atom)
                            && self.atoms.get(&atom).is_some_and(|s| s.was_live())
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Delivered hops charged to a tuple id (empty if none were recorded).
    pub fn hops_of(&self, id: TupleId) -> &[HopInfo] {
        self.hops.get(&id).map_or(&[], |v| v.as_slice())
    }

    /// Full derivation tree of a live atom; `None` if the atom is not live
    /// in the DAG. Shared sub-proofs are memoized, and recursion descends
    /// strictly down fixpoint ranks, so the result is finite and acyclic.
    pub fn why(&self, pred: Symbol, tuple: &Tuple) -> Option<ProofNode> {
        let atom = (pred, tuple.clone());
        self.rank.get(&atom)?;
        let mut memo: HashMap<AtomKey, ProofNode> = HashMap::new();
        Some(self.prove(&atom, &mut memo))
    }

    fn prove(&self, atom: &AtomKey, memo: &mut HashMap<AtomKey, ProofNode>) -> ProofNode {
        if let Some(p) = memo.get(atom) {
            return p.clone();
        }
        let my_rank = self.rank[atom];
        let st = &self.atoms[atom];
        let node = if my_rank == 0 {
            let f = st.edb.expect("rank-0 atom has a live EDB record");
            ProofNode {
                pred: atom.0,
                tuple: atom.1.clone(),
                id: Some(f.id),
                rule_id: None,
                owner: Some(f.id.node),
                finish_at: f.id.ts,
                booked_at: None,
                premises: Vec::new(),
            }
        } else {
            // Pick the supporting key closest to the leaves (then lowest
            // rule id) for a deterministic, minimal-depth proof.
            let mut best: Option<(&KeyEntry, u32)> = None;
            for e in &st.keys {
                if e.count <= 0 {
                    continue;
                }
                let mut max_rank = 0u32;
                let mut ok = true;
                for (_, id) in &e.key.inputs {
                    match self.bindings.get(id).and_then(|a| self.rank.get(a)) {
                        Some(&r) if r < my_rank => max_rank = max_rank.max(r),
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && best.is_none_or(|(b, br)| (max_rank, e.key.rule_id) < (br, b.key.rule_id))
                {
                    best = Some((e, max_rank));
                }
            }
            let (entry, _) = best.expect("ranked derived atom has a supporting key");
            let (id, owner, finish_at) = match st.mint {
                Some(f) => (Some(f.id), Some(f.id.node), f.at),
                None => (None, None, entry.booked_at),
            };
            let premises = entry
                .key
                .inputs
                .iter()
                .map(|&(lit_idx, input_id)| {
                    let premise_atom = self.bindings[&input_id].clone();
                    let premise = self.prove(&premise_atom, memo);
                    ProofEdge {
                        lit_idx,
                        input_id,
                        triggering: entry.origin == Some(input_id),
                        latency: entry.booked_at.saturating_sub(premise.finish_at),
                        hops: self.hops_of(input_id).to_vec(),
                        premise,
                    }
                })
                .collect();
            ProofNode {
                pred: atom.0,
                tuple: atom.1.clone(),
                id,
                rule_id: Some(entry.key.rule_id),
                owner,
                finish_at,
                booked_at: Some(entry.booked_at),
                premises,
            }
        };
        memo.insert(atom.clone(), node.clone());
        node
    }

    /// Why is this atom *not* live? Replays each candidate rule against the
    /// DAG's live atoms (head-unified via semantic matching, body in the
    /// planner's boundness order) and reports the first subgoal that cannot
    /// be satisfied — or detects that the rule *would* fire, meaning a
    /// delta was lost rather than the logic failing.
    pub fn why_not(
        &self,
        program: &Program,
        reg: &BuiltinRegistry,
        pred: Symbol,
        tuple: &Tuple,
    ) -> WhyNot {
        if self.atom_live(pred, tuple) {
            return WhyNot::Present;
        }
        let rules: Vec<&Rule> = program
            .rules
            .iter()
            .filter(|r| r.head.pred == pred)
            .collect();
        if rules.is_empty() {
            return WhyNot::NoRule;
        }
        let mut attempts = Vec::new();
        let mut any_head = false;
        for rule in rules {
            let mut s0 = FlatSubst::new();
            if !flat_match_args(reg, &rule.head.args, tuple.ids(), &mut s0) {
                continue;
            }
            any_head = true;
            match self.walk_rule(rule, reg, s0) {
                Ok(()) => return WhyNot::Derivable { rule_id: rule.id },
                Err(f) => attempts.push(f),
            }
        }
        if !any_head {
            return WhyNot::HeadMismatch;
        }
        WhyNot::Failed(attempts)
    }

    /// Beam-walk one rule body over the live DAG. `Ok(())` means some
    /// binding satisfies every subgoal; `Err` carries the first failure.
    fn walk_rule(
        &self,
        rule: &Rule,
        reg: &BuiltinRegistry,
        s0: FlatSubst,
    ) -> Result<(), FailedRule> {
        // Cap the binding frontier so pathological joins stay cheap; a
        // truncated beam can only under-report `Derivable`, never invent a
        // spurious failure position for satisfiable prefixes.
        const BEAM: usize = 256;
        let extend = |a: &Atom, t: &Tuple, s: &FlatSubst| {
            let mut s2 = s.clone();
            flat_match_args(reg, &a.args, t.ids(), &mut s2).then_some(s2)
        };
        let order = order_literals(&rule.body, None, &[]);
        let mut beam = vec![s0];
        for &li in &order {
            let lit = &rule.body[li];
            let mut next: Vec<FlatSubst> = Vec::new();
            let (mut negated, mut retracted) = (false, false);
            match lit {
                Literal::Pos(a) => {
                    let live = self.live_tuples(a.pred);
                    'outer: for s in &beam {
                        for t in &live {
                            if let Some(s2) = extend(a, t, s) {
                                next.push(s2);
                                if next.len() >= BEAM {
                                    break 'outer;
                                }
                            }
                        }
                    }
                    if next.is_empty() {
                        let dead = self.retracted_tuples(a.pred);
                        retracted = beam
                            .iter()
                            .any(|s| dead.iter().any(|t| extend(a, t, s).is_some()));
                    }
                }
                Literal::Neg(a) => {
                    negated = true;
                    let live = self.live_tuples(a.pred);
                    next.extend(
                        beam.iter()
                            .filter(|s| !live.iter().any(|t| extend(a, t, s).is_some()))
                            .cloned(),
                    );
                }
                // Checks go through the engine's own step, `==` assignment
                // included; one that errors or is not yet evaluable fails.
                Literal::Cmp(..) | Literal::Builtin(_) => {
                    for s in &beam {
                        let mut s2 = s.clone();
                        if matches!(eval_check(reg, lit, &mut s2), Ok(Check::Holds)) {
                            next.push(s2);
                        }
                    }
                }
            }
            if next.is_empty() {
                return Err(fail(rule, li, negated, retracted, &beam[0]));
            }
            beam = next;
        }
        Ok(())
    }
}

/// The failure report for body literal `lit_idx` under `witness`. Rendering
/// for people is the one place the walk resolves ids back to terms.
fn fail(
    rule: &Rule,
    lit_idx: usize,
    negated: bool,
    retracted: bool,
    witness: &FlatSubst,
) -> FailedRule {
    let witness = intern::boundary(|| witness.to_subst());
    let mut bound: Vec<(Symbol, Term)> = witness.iter().map(|(v, t)| (*v, t.clone())).collect();
    bound.sort_by_key(|(v, _)| v.as_str().to_string());
    FailedRule {
        rule_id: rule.id,
        lit_idx,
        literal: render_literal(&rule.body[lit_idx], &witness),
        negated,
        retracted,
        witness: bound,
    }
}

fn render_atom(a: &Atom, s: &Subst) -> String {
    let args: Vec<String> = a.args.iter().map(|t| s.apply(t).to_string()).collect();
    format!("{}({})", a.pred, args.join(", "))
}

fn render_literal(lit: &Literal, s: &Subst) -> String {
    match lit {
        Literal::Pos(a) | Literal::Builtin(a) => render_atom(a, s),
        Literal::Neg(a) => format!("not {}", render_atom(a, s)),
        Literal::Cmp(op, l, r) => {
            format!("{} {} {}", s.apply(l), op.symbol_str(), s.apply(r))
        }
    }
}

/// One node of a derivation tree returned by [`ProvDag::why`].
#[derive(Clone, Debug)]
pub struct ProofNode {
    pub pred: Symbol,
    pub tuple: Tuple,
    /// Network identity (EDB id or minted derived id). `None` only for a
    /// derived tuple whose mint record is missing (booked but never
    /// propagated — does not happen in quiesced runs).
    pub id: Option<TupleId>,
    /// Deriving rule; `None` marks an EDB leaf.
    pub rule_id: Option<usize>,
    /// The node that owns (minted) or generated this tuple.
    pub owner: Option<NodeId>,
    /// When the tuple became available network-wide: EDB generation time,
    /// or the owner's post-holddown mint time.
    pub finish_at: SimTime,
    /// When the chosen derivation delta landed at the owner.
    pub booked_at: Option<SimTime>,
    pub premises: Vec<ProofEdge>,
}

/// One premise edge of a derivation.
#[derive(Clone, Debug)]
pub struct ProofEdge {
    /// Body literal index this premise satisfied.
    pub lit_idx: u16,
    pub input_id: TupleId,
    /// This premise's update triggered the probe that emitted the delta.
    pub triggering: bool,
    /// Sim time from the premise finishing to the delta booking at the
    /// owner — storage, join, and result routing combined.
    pub latency: SimTime,
    /// Delivered messages causally charged to the premise tuple.
    pub hops: Vec<HopInfo>,
    pub premise: ProofNode,
}

/// One step of the latency-critical chain (leaf first).
#[derive(Clone, Debug)]
pub struct CriticalStep {
    pub pred: Symbol,
    pub tuple: Tuple,
    pub id: Option<TupleId>,
    pub rule_id: Option<usize>,
    pub finish_at: SimTime,
    /// Latency from the critical premise finishing to this step's delta
    /// booking (0 at the leaf).
    pub wait: SimTime,
}

/// Extract the chain of premises that bounded the root's end-to-end
/// latency: at each node, follow the premise that finished last.
pub fn critical_path(proof: &ProofNode) -> Vec<CriticalStep> {
    let mut steps = Vec::new();
    let mut cur = proof;
    loop {
        let mut step = CriticalStep {
            pred: cur.pred,
            tuple: cur.tuple.clone(),
            id: cur.id,
            rule_id: cur.rule_id,
            finish_at: cur.finish_at,
            wait: 0,
        };
        match cur
            .premises
            .iter()
            .max_by_key(|e| (e.premise.finish_at, e.input_id))
        {
            Some(e) => {
                step.wait = e.latency;
                steps.push(step);
                cur = &e.premise;
            }
            None => {
                steps.push(step);
                break;
            }
        }
    }
    steps.reverse();
    steps
}

/// Outcome of [`ProvDag::why_not`].
#[derive(Clone, Debug)]
pub enum WhyNot {
    /// The atom *is* live — use [`ProvDag::why`] instead.
    Present,
    /// No rule derives this predicate (it is EDB-only).
    NoRule,
    /// Rules exist but none's head unifies with the tuple.
    HeadMismatch,
    /// Every head-unifying rule fails; one report per rule.
    Failed(Vec<FailedRule>),
    /// A rule's body is fully satisfied by live atoms, yet the tuple is
    /// absent: the derivation delta was lost (owner dead, message dropped
    /// past ARQ, or retracted by liveness) rather than logically blocked.
    Derivable { rule_id: usize },
}

/// The first failing subgoal of one candidate rule.
#[derive(Clone, Debug)]
pub struct FailedRule {
    pub rule_id: usize,
    /// Original body index of the failing literal.
    pub lit_idx: usize,
    /// The literal rendered under the failing partial binding.
    pub literal: String,
    /// Failure is a negation blocked by a live atom.
    pub negated: bool,
    /// A previously-live premise that would have matched was retracted.
    pub retracted: bool,
    /// Partial variable binding at the failure point.
    pub witness: Vec<(Symbol, Term)>,
}

/// Render a derivation tree as an indented text tree with per-edge hop
/// counts and latency attribution.
pub fn render_text(proof: &ProofNode) -> String {
    let mut out = String::new();
    render_node(proof, "", "", &mut out);
    out
}

fn describe(node: &ProofNode) -> String {
    let id = node
        .id
        .map(|i| format!("  [{i}]"))
        .unwrap_or_else(|| "  [unminted]".to_string());
    let src = match (node.rule_id, node.owner) {
        (None, Some(n)) => format!("edb @ {n}, t={}", node.finish_at),
        (Some(r), Some(n)) => format!("rule {r} @ {n}, minted t={}", node.finish_at),
        (Some(r), None) => format!("rule {r}, booked t={}", node.finish_at),
        (None, None) => String::new(),
    };
    format!("{}{}{id}  {src}", node.pred, node.tuple)
}

fn render_node(node: &ProofNode, line_prefix: &str, child_prefix: &str, out: &mut String) {
    let _ = writeln!(out, "{line_prefix}{}", describe(node));
    let n = node.premises.len();
    for (i, edge) in node.premises.iter().enumerate() {
        let last = i + 1 == n;
        let (branch, next) = if last {
            ("└── ", "    ")
        } else {
            ("├── ", "│   ")
        };
        let hop_note = match edge.hops.len() {
            0 => "local".to_string(),
            n => format!("{n} hops"),
        };
        let trig = if edge.triggering { ", trigger" } else { "" };
        let _ = writeln!(
            out,
            "{child_prefix}{branch}(lit {}{trig}, {hop_note}, +{} sim-ms)",
            edge.lit_idx, edge.latency
        );
        let cont = format!("{child_prefix}{next}");
        render_node(&edge.premise, &cont, &cont, out);
    }
}

/// Render a derivation tree as a GraphViz DOT digraph (edges point from
/// premises up to the tuples they derive).
pub fn render_dot(proof: &ProofNode) -> String {
    let mut out = String::from(
        "digraph provenance {\n  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeSet<String> = BTreeSet::new();
    collect_dot(proof, &mut nodes, &mut edges);
    for n in &nodes {
        out.push_str(n);
    }
    for e in &edges {
        out.push_str(e);
    }
    out.push_str("}\n");
    out
}

fn dot_key(node: &ProofNode) -> String {
    match node.id {
        Some(id) => id.to_string(),
        None => format!("{}{}", node.pred, node.tuple),
    }
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn collect_dot(node: &ProofNode, nodes: &mut BTreeSet<String>, edges: &mut BTreeSet<String>) {
    let key = dot_key(node);
    let kind = match node.rule_id {
        None => "edb".to_string(),
        Some(r) => format!("rule {r}"),
    };
    nodes.insert(format!(
        "  \"{}\" [label=\"{}\\n{} t={}\"];\n",
        dot_escape(&key),
        dot_escape(&format!("{}{}", node.pred, node.tuple)),
        kind,
        node.finish_at
    ));
    for edge in &node.premises {
        let mut label = format!("lit {} / +{}ms", edge.lit_idx, edge.latency);
        if !edge.hops.is_empty() {
            let _ = write!(label, " / {} hops", edge.hops.len());
        }
        edges.insert(format!(
            "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
            dot_escape(&dot_key(&edge.premise)),
            dot_escape(&key),
            dot_escape(&label)
        ));
        collect_dot(&edge.premise, nodes, edges);
    }
}

/// Render a [`WhyNot`] verdict as human-readable text.
pub fn render_why_not(pred: Symbol, tuple: &Tuple, wn: &WhyNot) -> String {
    let head = format!("{pred}{tuple}");
    match wn {
        WhyNot::Present => format!("{head} IS derived — see `why`.\n"),
        WhyNot::NoRule => format!(
            "{head} is not derivable: no rule has head predicate `{pred}` \
             (EDB-only predicate, and no matching base fact is live).\n"
        ),
        WhyNot::HeadMismatch => format!(
            "{head} is not derivable: rules for `{pred}` exist, but no rule \
             head unifies with this tuple.\n"
        ),
        WhyNot::Derivable { rule_id } => format!(
            "{head} is absent but rule {rule_id}'s body is fully satisfied \
             by live facts: the derivation delta was lost in the network \
             (dead owner, drops past ARQ, or liveness retraction), not \
             blocked by the logic.\n"
        ),
        WhyNot::Failed(attempts) => {
            let mut out = format!("{head} is not derivable:\n");
            for f in attempts {
                let reason = if f.negated {
                    "blocked: a live fact matches the negated subgoal"
                } else if f.retracted {
                    "no live match (a previously live match was retracted)"
                } else {
                    "no live match"
                };
                let _ = writeln!(
                    out,
                    "  rule {}: first failing subgoal `{}` (body position {}) — {}",
                    f.rule_id, f.literal, f.lit_idx, reason
                );
                if !f.witness.is_empty() {
                    let binds: Vec<String> =
                        f.witness.iter().map(|(v, t)| format!("{v}={t}")).collect();
                    let _ = writeln!(out, "    with {}", binds.join(", "));
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::parse_program;

    fn id(node: u32, ts: SimTime, seq: u32) -> TupleId {
        TupleId {
            node: NodeId(node),
            ts,
            seq,
        }
    }

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Term::Int(v)).collect::<Vec<_>>())
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn edb(pred: &str, vals: &[i64], fid: TupleId) -> ProvRecord {
        ProvRecord::Edb {
            node: fid.node,
            pred: sym(pred),
            tuple: tup(vals),
            id: fid,
            kind: UpdateKind::Insert,
            tau: fid.ts,
        }
    }

    /// r1(1,7) @ n0 and r2(2,7) @ n1 join into q(1,2) owned by n2.
    fn join_records() -> Vec<ProvRecord> {
        let a = id(0, 10, 0);
        let b = id(1, 20, 0);
        let q = id(2, 900, 0);
        vec![
            edb("r1", &[1, 7], a),
            edb("r2", &[2, 7], b),
            // r1(1,7)'s storage walk lands at n3 on its way to n4.
            ProvRecord::Hop {
                from: NodeId(0),
                to: NodeId(3),
                dest: NodeId(4),
                kind: "store",
                origin: a,
                at: 15,
            },
            ProvRecord::Deriv {
                owner: NodeId(2),
                pred: sym("q"),
                tuple: tup(&[1, 2]),
                key: DerivationKey::new(0, vec![(0, a), (1, b)]),
                sign: 1,
                tau: 20,
                origin: b,
                at: 700,
            },
            ProvRecord::Mint {
                owner: NodeId(2),
                pred: sym("q"),
                tuple: tup(&[1, 2]),
                id: q,
                kind: UpdateKind::Insert,
                at: 900,
            },
        ]
    }

    #[test]
    fn why_builds_the_join_tree_with_latency() {
        let dag = ProvDag::build(&join_records());
        let proof = dag.why(sym("q"), &tup(&[1, 2])).expect("q(1,2) is live");
        assert_eq!(proof.rule_id, Some(0));
        assert_eq!(proof.id, Some(id(2, 900, 0)));
        assert_eq!(proof.finish_at, 900);
        assert_eq!(proof.premises.len(), 2);
        // Premise r1(1,7): finished at t=10, booked at t=700 → 690ms.
        let e0 = &proof.premises[0];
        assert_eq!(e0.premise.pred, sym("r1"));
        assert_eq!(e0.latency, 690);
        assert_eq!(e0.hops.len(), 1);
        assert_eq!((e0.hops[0].to, e0.hops[0].at), (NodeId(3), 15));
        assert!(!e0.triggering);
        // Premise r2(2,7) was the triggering update.
        let e1 = &proof.premises[1];
        assert!(e1.triggering);
        assert!(e1.premise.premises.is_empty(), "EDB leaf");
        // Renders mention both leaves.
        let text = render_text(&proof);
        assert!(text.contains("r1(1, 7)"), "tree text:\n{text}");
        assert!(text.contains("trigger"), "tree text:\n{text}");
        assert!(text.contains("(lit 0, 1 hops, +690 sim-ms)"), "{text}");
        assert!(
            text.contains("(lit 1, trigger, local, +680 sim-ms)"),
            "{text}"
        );
        let dot = render_dot(&proof);
        assert!(dot.starts_with("digraph provenance {"));
        assert!(dot.contains("n2@900#0"), "dot:\n{dot}");
        assert!(dot.contains("[label=\"lit 0 / +690ms / 1 hops\"]"), "{dot}");
    }

    #[test]
    fn critical_path_follows_the_slowest_premise() {
        let dag = ProvDag::build(&join_records());
        let proof = dag.why(sym("q"), &tup(&[1, 2])).unwrap();
        let path = critical_path(&proof);
        assert_eq!(path.len(), 2);
        // r2 finished last (t=20) → it bounds the latency.
        assert_eq!(path[0].pred, sym("r2"));
        assert_eq!(path[0].wait, 0);
        assert_eq!(path[1].pred, sym("q"));
        assert_eq!(path[1].wait, 680);
    }

    #[test]
    fn clamped_counts_retract_exactly_once() {
        let mut recs = join_records();
        let key = DerivationKey::new(0, vec![(0, id(0, 10, 0)), (1, id(1, 20, 0))]);
        // Refresh re-announces the same derivation: clamp keeps count at 1.
        recs.push(ProvRecord::Deriv {
            owner: NodeId(2),
            pred: sym("q"),
            tuple: tup(&[1, 2]),
            key: key.clone(),
            sign: 1,
            tau: 20,
            origin: id(1, 20, 0),
            at: 1200,
        });
        let dag = ProvDag::build(&recs);
        assert!(dag.atom_live(sym("q"), &tup(&[1, 2])));
        // One matching delete kills it despite the duplicate insert.
        recs.push(ProvRecord::Deriv {
            owner: NodeId(2),
            pred: sym("q"),
            tuple: tup(&[1, 2]),
            key,
            sign: -1,
            tau: 30,
            origin: id(1, 30, 1),
            at: 1400,
        });
        let dag = ProvDag::build(&recs);
        assert!(!dag.atom_live(sym("q"), &tup(&[1, 2])));
        assert!(dag.why(sym("q"), &tup(&[1, 2])).is_none());
    }

    #[test]
    fn why_not_reports_first_missing_premise_and_retraction() {
        let prog = parse_program(
            r#"
            .output q.
            q(X, Y) :- r1(X, T), r2(Y, T).
        "#,
        )
        .unwrap();
        let reg = BuiltinRegistry::standard();
        // Only r1(1,7) exists: q(1,2) fails at the r2 subgoal.
        let dag = ProvDag::build(&[edb("r1", &[1, 7], id(0, 10, 0))]);
        match dag.why_not(&prog, &reg, sym("q"), &tup(&[1, 2])) {
            WhyNot::Failed(attempts) => {
                assert_eq!(attempts.len(), 1);
                let f = &attempts[0];
                assert_eq!(f.lit_idx, 1, "fails at r2, original body position 1");
                assert!(f.literal.contains("r2"), "literal: {}", f.literal);
                assert!(!f.retracted);
                assert!(f
                    .witness
                    .iter()
                    .any(|(v, t)| v.as_str() == "T" && *t == Term::Int(7)));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // With r2(2,7) inserted then deleted, the failure is a retraction.
        let mut recs = vec![
            edb("r1", &[1, 7], id(0, 10, 0)),
            edb("r2", &[2, 7], id(1, 20, 0)),
        ];
        recs.push(ProvRecord::Edb {
            node: NodeId(1),
            pred: sym("r2"),
            tuple: tup(&[2, 7]),
            id: id(1, 20, 0),
            kind: UpdateKind::Delete,
            tau: 50,
        });
        let dag = ProvDag::build(&recs);
        match dag.why_not(&prog, &reg, sym("q"), &tup(&[1, 2])) {
            WhyNot::Failed(attempts) => {
                assert!(attempts[0].retracted, "r2(2,7) was retracted");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        let rendered = render_why_not(
            sym("q"),
            &tup(&[1, 2]),
            &dag.why_not(&prog, &reg, sym("q"), &tup(&[1, 2])),
        );
        assert!(rendered.contains("retracted"), "{rendered}");
    }

    #[test]
    fn why_not_detects_lost_delta_as_derivable() {
        let prog = parse_program(
            r#"
            .output q.
            q(X, Y) :- r1(X, T), r2(Y, T).
        "#,
        )
        .unwrap();
        let reg = BuiltinRegistry::standard();
        // Both premises live, but no Deriv/Mint ever reached the owner.
        let dag = ProvDag::build(&[
            edb("r1", &[1, 7], id(0, 10, 0)),
            edb("r2", &[2, 7], id(1, 20, 0)),
        ]);
        match dag.why_not(&prog, &reg, sym("q"), &tup(&[1, 2])) {
            WhyNot::Derivable { rule_id } => assert_eq!(rule_id, 0),
            other => panic!("expected Derivable, got {other:?}"),
        }
        // A tuple no head can produce under semantic matching… q(X,Y) has
        // variable head args, so instead check the EDB-only predicate path.
        match dag.why_not(&prog, &reg, sym("r1"), &tup(&[9, 9])) {
            WhyNot::NoRule => {}
            other => panic!("expected NoRule, got {other:?}"),
        }
    }

    #[test]
    fn recursive_records_stay_well_founded() {
        // path(1,2) derived from edge(1,2); a cyclic second key
        // path(1,2) ← path(1,2) (self-support) must not make it live on
        // its own, nor break proof construction when both exist.
        let e = id(0, 10, 0);
        let p = id(2, 500, 0);
        let recs = vec![
            edb("edge", &[1, 2], e),
            ProvRecord::Deriv {
                owner: NodeId(2),
                pred: sym("path"),
                tuple: tup(&[1, 2]),
                key: DerivationKey::new(0, vec![(0, e)]),
                sign: 1,
                tau: 10,
                origin: e,
                at: 400,
            },
            ProvRecord::Mint {
                owner: NodeId(2),
                pred: sym("path"),
                tuple: tup(&[1, 2]),
                id: p,
                kind: UpdateKind::Insert,
                at: 500,
            },
            // Degenerate self-supporting key (as a cyclic program could
            // produce after re-derivation).
            ProvRecord::Deriv {
                owner: NodeId(2),
                pred: sym("path"),
                tuple: tup(&[1, 2]),
                key: DerivationKey::new(1, vec![(0, p)]),
                sign: 1,
                tau: 10,
                origin: p,
                at: 600,
            },
        ];
        let dag = ProvDag::build(&recs);
        let proof = dag.why(sym("path"), &tup(&[1, 2])).expect("live");
        // The proof must use the well-founded key (rule 0 via the edge).
        assert_eq!(proof.rule_id, Some(0));
        assert_eq!(proof.premises.len(), 1);
        assert_eq!(proof.premises[0].premise.pred, sym("edge"));
    }
}
