//! Incremental maintenance with the **set-of-derivations** approach
//! (Sec. IV-A/IV-B).
//!
//! The engine maintains every derived relation under insertions and
//! deletions to the base streams. For each derived tuple it keeps its set of
//! derivations (Definition 2) — here with *signed multiplicity counts*,
//! because two different blockers of the same negated subgoal must commute
//! (see DESIGN.md "Derivation multiplicity"): a tuple is live iff some
//! derivation has a positive count.
//!
//! Per update `t` on stream `R` with timestamp τ (processed in timestamp
//! order, mirroring Theorem 3's virtual serialization):
//!
//! * for every rule and every occurrence of `R` (positive *or* negated),
//!   compute `T_r` by pinning that occurrence to `t` — the paper's
//!   `T_s1 :- R1, …, t_s1, NOT S2, …` construction — under the *staircase*
//!   convention for self-joins (occurrences before the updated one see the
//!   new state, occurrences after it the old state);
//! * the sign is `+` for inserts at positive occurrences and deletes at
//!   negated occurrences, `−` otherwise;
//! * count transitions 0→live emit a derived insertion, live→0 a derived
//!   deletion, which cascade through higher rules exactly like base updates
//!   (the derived-stream view of Sec. III-B).
//!
//! What the ledger keys a count by is the engine's type parameter
//! ([`LedgerKey`]): a [`Derivation`] per derivation, or `()` — the
//! derivation projected away, one signed count per tuple, which is the
//! *counting* alternative of Sec. IV-A ([`IncrementalEngine::counting`]).

use crate::aggregate::aggregate_rule;
use crate::error::EvalError;
use crate::eval_body::{ground_facts, instantiate_head, BodyEval, Inputs};
use crate::planner::DeltaPlans;
use crate::relation::{Database, TupleMeta};
use crate::seminaive::effective_windows;
use sensorlog_logic::analyze::{Analysis, ProgramClass};
use sensorlog_logic::ast::Rule;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::flat::FlatSubst;
use sensorlog_logic::intern;
use sensorlog_logic::unify::{match_term, Subst};
use sensorlog_logic::{Symbol, Term, Tuple};
use sensorlog_telemetry::Profiler;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Insert or delete.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum UpdateKind {
    Insert,
    Delete,
}

/// A stream update (base or derived).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Update {
    pub pred: Symbol,
    pub tuple: Tuple,
    pub kind: UpdateKind,
    /// Local timestamp of the update event (Definition 2).
    pub ts: u64,
}

impl Update {
    pub fn insert(pred: Symbol, tuple: Tuple, ts: u64) -> Update {
        Update {
            pred,
            tuple,
            kind: UpdateKind::Insert,
            ts,
        }
    }

    pub fn delete(pred: Symbol, tuple: Tuple, ts: u64) -> Update {
        Update {
            pred,
            tuple,
            kind: UpdateKind::Delete,
            ts,
        }
    }
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            UpdateKind::Insert => '+',
            UpdateKind::Delete => '-',
        };
        write!(f, "{}{}{} @{}", op, self.pred, self.tuple, self.ts)
    }
}

/// Run `step` on `update` and then on every update the steps append to
/// their output, in that order — a cascade is FIFO over what it emits, so
/// the queue is a cursor into the result. At most `max_steps` steps.
pub(crate) fn cascade(
    update: Update,
    max_steps: usize,
    mut step: impl FnMut(&Update, &mut Vec<Update>) -> Result<(), EvalError>,
) -> Result<Vec<Update>, EvalError> {
    let mut emitted: Vec<Update> = Vec::new();
    let mut produced: Vec<Update> = Vec::new();
    step(&update, &mut produced)?;
    emitted.append(&mut produced);
    let mut next = 0;
    while let Some(u) = emitted.get(next) {
        next += 1;
        if next >= max_steps {
            return Err(EvalError::LimitExceeded {
                what: "update cascade",
                limit: max_steps,
            });
        }
        step(u, &mut produced)?;
        emitted.append(&mut produced);
    }
    Ok(emitted)
}

/// One derivation of a derived tuple (Definition 2 extended with the rule
/// ID, as the paper specifies): the rule used plus the tuple each of its
/// positive subgoals matched, in body order. Which literal and predicate an
/// input belongs to is read off the rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Derivation {
    /// Index of the rule in the program (its [`Rule::id`] as parsed).
    pub rule_id: u32,
    pub inputs: Box<[Tuple]>,
}

/// The ledger's order: any total order does, so ids compare as integers
/// rather than by the values they intern.
impl Ord for Derivation {
    fn cmp(&self, other: &Derivation) -> Ordering {
        (self.rule_id.cmp(&other.rule_id)).then_with(|| {
            self.inputs
                .iter()
                .map(Tuple::ids)
                .cmp(other.inputs.iter().map(Tuple::ids))
        })
    }
}

impl PartialOrd for Derivation {
    fn partial_cmp(&self, other: &Derivation) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// What the incremental engine counts a derived tuple's support by: its
/// [`Derivation`]s (set-of-derivations), or `()`, which projects the
/// derivation away and leaves one signed count per tuple (counting).
pub trait LedgerKey: Ord + Clone {
    /// The key of rule `rule`'s derivation from `inputs`.
    fn of(rule: usize, inputs: Inputs) -> Self;
    /// The derivation the key keeps, inputs included; `None` when it keeps
    /// none.
    fn derivation(&self) -> Option<&Derivation>;
}

impl LedgerKey for Derivation {
    fn of(rule: usize, inputs: Inputs) -> Derivation {
        Derivation {
            rule_id: rule as u32,
            inputs: inputs.iter().map(|&(_, t)| t.clone()).collect(),
        }
    }

    fn derivation(&self) -> Option<&Derivation> {
        Some(self)
    }
}

impl LedgerKey for () {
    fn of(_: usize, _: Inputs) {}

    fn derivation(&self) -> Option<&Derivation> {
        None
    }
}

/// One ledger key turning live (`sign` +1: its count became positive) or
/// dead (`-1`) for a derived tuple, under the update stamped `tau`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Firing<K = Derivation> {
    pub derivation: K,
    pub sign: i8,
    pub pred: Symbol,
    pub tuple: Tuple,
    pub tau: u64,
}

/// The signed-count derivation ledger of one derived tuple — the
/// set-of-derivations approach's state (Sec. IV-A), and the workspace's only
/// copy of it: this engine keys it by [`Derivation`], an owner node of the
/// distributed runtime by the derivation key its deltas carry. Stored counts
/// are never zero — a count that cancels takes its key with it — but a
/// negative count (a derivation blocked before its positive part appeared,
/// or blocked more than once) must stay until later blocker deletions
/// balance it, however long the tuple is dead.
#[derive(Debug)]
pub struct Support<K: Ord> {
    /// Entries with a positive count; the tuple is live iff there is one.
    live: u32,
    /// Sorted by key.
    entries: Vec<(K, i64)>,
}

impl<K: Ord> Default for Support<K> {
    fn default() -> Self {
        Support {
            live: 0,
            entries: Vec::new(),
        }
    }
}

impl<K: Ord> Support<K> {
    /// Add `sign` to the count of `k` and return what it was before.
    pub fn add(&mut self, k: K, sign: i64) -> i64 {
        let before = match self.entries.binary_search_by(|(e, _)| e.cmp(&k)) {
            Ok(i) => {
                let count = &mut self.entries[i].1;
                let before = *count;
                *count += sign;
                if *count == 0 {
                    self.entries.remove(i);
                }
                before
            }
            Err(i) => {
                self.entries.insert(i, (k, sign));
                0
            }
        };
        self.live -= u32::from(before > 0);
        self.live += u32::from(before + sign > 0);
        before
    }

    /// The stored count of `k`; 0 when it has none.
    pub fn count(&self, k: &K) -> i64 {
        match self.entries.binary_search_by(|(e, _)| e.cmp(k)) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Does some key hold a positive count?
    pub fn is_live(&self) -> bool {
        self.live > 0
    }

    /// Every stored key with its (non-zero) count, in key order.
    pub fn entries(&self) -> &[(K, i64)] {
        &self.entries
    }
}

/// Counters exposed for the experiments (state size = the paper's "space
/// overhead of storing the derivations").
#[derive(Clone, Copy, Debug, Default)]
pub struct IncStats {
    pub updates_processed: u64,
    pub derived_emitted: u64,
    pub body_evals: u64,
    pub max_derivations: usize,
}

/// Incremental engine: set-of-derivations maintenance, or counting with
/// `K = ()`.
pub struct IncrementalEngine<K: LedgerKey = Derivation> {
    pub analysis: Analysis,
    pub reg: BuiltinRegistry,
    pub db: Database,
    windows: BTreeMap<Symbol, u64>,
    derivs: HashMap<(Symbol, Tuple), Support<K>>,
    /// Entries across all of `derivs`, kept in step with it so the
    /// per-update peak needs no walk ([`Self::derivation_count`] audits it).
    deriv_entries: usize,
    /// Current head tuple per (agg rule id, group key).
    agg_groups: HashMap<(usize, Vec<Term>), Tuple>,
    plans: DeltaPlans,
    /// Derived predicates (for stale-update suppression).
    idb: BTreeSet<Symbol>,
    /// Predicates defined by aggregate rules (liveness via `agg_groups`).
    agg_heads: BTreeSet<Symbol>,
    pub stats: IncStats,
    /// Phase profiler (disabled by default): times update application and
    /// aggregate-group recomputation.
    pub profiler: Profiler,
    /// Cascade guard.
    pub max_cascade: usize,
    /// Runtime check for the *locally non-recursive* property (Sec. IV-C):
    /// when enabled, every new derivation is checked for a cycle in the
    /// tuple dependency graph and evaluation fails with
    /// [`EvalError::DerivationCycle`] instead of silently keeping zombie
    /// support. Off by default (costs a DFS per derivation).
    pub check_local_recursion: bool,
    /// Opt-in log of the ledger's key transitions (a Centroid center
    /// turns its proofs out of it). `None` = disabled: one branch per
    /// ledger update, no allocation.
    firings: Option<Vec<Firing<K>>>,
}

impl IncrementalEngine {
    pub fn new(analysis: Analysis, reg: BuiltinRegistry) -> Result<IncrementalEngine, EvalError> {
        IncrementalEngine::build(analysis, reg)
    }

    pub fn from_source(src: &str, reg: BuiltinRegistry) -> Result<IncrementalEngine, EvalError> {
        let prog =
            sensorlog_logic::parse_program(src).map_err(|e| EvalError::Internal(e.to_string()))?;
        let analysis = sensorlog_logic::analyze(&prog, &reg)?;
        IncrementalEngine::new(analysis, reg)
    }
}

impl IncrementalEngine<()> {
    /// Counting maintenance (the first alternative of Sec. IV-A): one
    /// signed derivation count per tuple instead of the derivations. It
    /// is exact only without recursion, where counts cannot support each
    /// other in a cycle, and it maintains no aggregates.
    pub fn counting(
        analysis: Analysis,
        reg: BuiltinRegistry,
    ) -> Result<IncrementalEngine<()>, EvalError> {
        if analysis.class != ProgramClass::NonRecursive {
            return Err(EvalError::Internal(
                "counting maintenance supports non-recursive programs only".into(),
            ));
        }
        if analysis.program.rules.iter().any(|r| r.agg.is_some()) {
            return Err(EvalError::Internal(
                "counting maintenance does not support aggregates".into(),
            ));
        }
        IncrementalEngine::build(analysis, reg)
    }
}

impl<K: LedgerKey> IncrementalEngine<K> {
    fn build(analysis: Analysis, reg: BuiltinRegistry) -> Result<IncrementalEngine<K>, EvalError> {
        // Validate: a predicate defined by an aggregate rule must not also
        // have non-aggregate rules (liveness would mix two mechanisms).
        let mut agg_heads: BTreeSet<Symbol> = BTreeSet::new();
        let mut plain_heads: BTreeSet<Symbol> = BTreeSet::new();
        for r in &analysis.program.rules {
            if r.agg.is_some() {
                agg_heads.insert(r.head.pred);
            } else {
                plain_heads.insert(r.head.pred);
            }
        }
        if let Some(p) = agg_heads.intersection(&plain_heads).next() {
            return Err(EvalError::Internal(format!(
                "predicate {p} mixes aggregate and plain rules; unsupported incrementally"
            )));
        }

        let windows = effective_windows(&analysis);
        let idb = analysis.program.idb_preds();
        let mut db = Database::new();
        let plans = DeltaPlans::compile(&analysis, &mut db);
        // `recompute_agg_group` evaluates an aggregate rule seeded with its
        // group key.
        crate::planner::register_head_seeded_indexes(
            &mut db,
            analysis.program.rules.iter().filter(|r| r.agg.is_some()),
        );
        let mut engine = IncrementalEngine {
            analysis,
            reg,
            db,
            windows,
            derivs: HashMap::new(),
            deriv_entries: 0,
            agg_groups: HashMap::new(),
            plans,
            idb,
            agg_heads,
            stats: IncStats::default(),
            profiler: Profiler::disabled(),
            max_cascade: 1_000_000,
            check_local_recursion: false,
            firings: None,
        };
        engine.assert_ground_facts()?;
        Ok(engine)
    }

    /// Ground empty-body rules (`h(0, 0, 0).`) hold from the start: no
    /// update ever pins them, so each is entered in the ledger as a
    /// derivation with no inputs and its insertion cascaded here. A caller
    /// that later feeds the same fact as an update hits the duplicate path.
    fn assert_ground_facts(&mut self) -> Result<(), EvalError> {
        for (rule, pred, tuple) in ground_facts(&self.analysis.program, &self.reg)? {
            // A fact has one rule, so its key is never already present.
            let support = self.derivs.entry((pred, tuple.clone())).or_default();
            support.add(K::of(rule, &[]), 1);
            self.deriv_entries += 1;
            self.apply(Update::insert(pred, tuple, 0))?;
        }
        Ok(())
    }

    /// Enable/disable the firing log. Enabling starts an empty one; from
    /// then on every ledger key that turns live or dead is logged as a
    /// [`Firing`].
    pub fn set_record_firings(&mut self, on: bool) {
        self.firings = on.then(Vec::new);
    }

    /// The firings logged since the last call (none when the log is off).
    pub fn take_firings(&mut self) -> Vec<Firing<K>> {
        self.firings
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Number of stored derivation entries (the space-overhead metric),
    /// counted by walking the ledger.
    pub fn derivation_count(&self) -> usize {
        self.derivs.values().map(|s| s.entries.len()).sum()
    }

    /// Tuples the ledger holds an entry for: the live derived tuples, plus
    /// the dead ones a negative count is still owed on.
    pub fn ledger_keys(&self) -> usize {
        self.derivs.len()
    }

    /// Approximate heap bytes of the ledger: its table and every entry
    /// vector at capacity, plus the input slices.
    pub fn ledger_bytes(&self) -> usize {
        use std::mem::size_of;
        let table = self.derivs.capacity() * (size_of::<((Symbol, Tuple), Support<K>)>() + 1);
        let supports = self.derivs.values().map(|s| {
            let inputs: usize = (s.entries.iter())
                .filter_map(|(d, _)| d.derivation())
                .map(|d| d.inputs.len())
                .sum();
            s.entries.capacity() * size_of::<(K, i64)>() + inputs * size_of::<Tuple>()
        });
        table + supports.sum::<usize>()
    }

    /// Apply one base-stream update and cascade to quiescence. Returns every
    /// derived-stream update emitted (in emission order).
    pub fn apply(&mut self, update: Update) -> Result<Vec<Update>, EvalError> {
        let _span = self.profiler.span("inc.apply");
        let emitted = cascade(update, self.max_cascade, |u, out| {
            self.process_one(u, out)?;
            self.stats.updates_processed += 1;
            Ok(())
        })?;
        self.stats.derived_emitted += emitted.len() as u64;
        debug_assert_eq!(self.deriv_entries, self.derivation_count());
        self.stats.max_derivations = self.stats.max_derivations.max(self.deriv_entries);
        Ok(emitted)
    }

    /// Expire tuples past their stream's sliding window ("independently
    /// expiring a tuple after sufficient time" — silent, no join phase).
    /// Derivation entries of expired derived tuples are garbage-collected.
    pub fn advance_time(&mut self, now: u64) {
        let preds: Vec<(Symbol, u64)> = self.windows.iter().map(|(&p, &w)| (p, w)).collect();
        for (p, w) in preds {
            let expired = self.db.relation_mut(p).expire(w, now);
            for t in expired {
                if let Some(support) = self.derivs.remove(&(p, t)) {
                    self.deriv_entries -= support.entries.len();
                }
            }
        }
    }

    /// Is this derived tuple currently live per the derivation ledger?
    fn is_live(&self, pred: Symbol, tuple: &Tuple) -> bool {
        self.derivs
            .get(&(pred, tuple.clone()))
            .is_some_and(Support::is_live)
    }

    /// Process one update: physical application, delta computation for every
    /// occurrence, derivation bookkeeping, aggregate group recomputation.
    /// The derived updates it causes are appended to `out`.
    fn process_one(&mut self, u: &Update, out: &mut Vec<Update>) -> Result<(), EvalError> {
        // Stale-update suppression: a queued derived insert whose tuple has
        // already been re-retracted in the ledger (or a delete that was
        // re-asserted) is dropped. This is what keeps XY-style
        // insert/retract races from climbing stages forever — a dead insert
        // must not propagate (its queued counterpart drops symmetrically).
        if self.idb.contains(&u.pred) && !self.agg_heads.contains(&u.pred) {
            let live = self.is_live(u.pred, &u.tuple);
            match u.kind {
                UpdateKind::Insert if !live => return Ok(()),
                UpdateKind::Delete if live => return Ok(()),
                _ => {}
            }
        }
        // Physical application with duplicate suppression.
        match u.kind {
            UpdateKind::Insert => {
                if !self
                    .db
                    .relation_mut(u.pred)
                    .insert(u.tuple.clone(), TupleMeta::at(u.ts))
                {
                    return Ok(()); // duplicate: not a generation
                }
            }
            UpdateKind::Delete => {
                if !self.db.contains(u.pred, &u.tuple) {
                    return Ok(());
                }
            }
        }

        // Delta computation per occurrence.
        let mut deltas: Vec<(Symbol, Tuple, K, i64)> = Vec::new();
        let mut agg_dirty: Vec<(usize, Vec<Term>)> = Vec::new();
        let rules = &self.analysis.program.rules;
        let reg = &self.reg;
        self.stats.body_evals += self.plans.for_each_delta(
            rules,
            &self.db,
            reg,
            (u.kind, u.pred, &u.tuple),
            None,
            |ri, sign, subst, inputs| {
                let rule = &rules[ri];
                if rule.agg.is_some() {
                    // Record affected groups; recomputed below against the
                    // post-update state.
                    let slot = (ri, group_key(rule, &subst, reg)?);
                    if !agg_dirty.contains(&slot) {
                        agg_dirty.push(slot);
                    }
                    return Ok(());
                }
                let head = instantiate_head(rule, &subst, reg)?;
                // Drop directly self-supporting derivations (head among its
                // own inputs): sound, and it keeps 1-cycles out of the
                // tuple dependency graph. Longer cycles are outside the
                // supported class — the paper's *locally non-recursive*
                // restriction (Sec. IV-C); use the rederivation engine for
                // general recursive programs with deletions.
                if (rule.positive_atoms().zip(inputs))
                    .any(|(a, &(_, t))| a.pred == rule.head.pred && *t == head)
                {
                    return Ok(());
                }
                deltas.push((rule.head.pred, head, K::of(ri, inputs), sign));
                Ok(())
            },
        )?;

        // Physical removal for deletes happens *after* the delta pass (the
        // old state must be joinable), before aggregate recomputation.
        // NOTE: the ledger entry of a deleted tuple is *not* dropped here:
        // negative counts must survive so later blocker deletions balance
        // the ledger (see [`Support`]).
        if u.kind == UpdateKind::Delete {
            self.db.remove(u.pred, &u.tuple);
        }

        // Optional locally-non-recursive runtime check (Sec. IV-C): the
        // dependency graph over derived tuples must stay acyclic.
        if self.check_local_recursion {
            for (pred, tuple, d, sign) in &deltas {
                if *sign > 0 && self.derivation_closes_cycle(*pred, tuple, d) {
                    return Err(EvalError::DerivationCycle { pred: *pred });
                }
            }
        }

        // Derivation bookkeeping with liveness transitions.
        for (pred, tuple, d, sign) in deltas {
            let mut entry = match self.derivs.entry((pred, tuple)) {
                Entry::Occupied(e) => e,
                Entry::Vacant(e) => e.insert_entry(Support::default()),
            };
            let support = entry.get_mut();
            let was_live = support.is_live();
            let logged = self.firings.is_some().then(|| d.clone());
            let d_count = support.add(d, sign);
            let now_live = support.is_live();
            // Stored counts are never zero: an entry that cancels has left.
            self.deriv_entries += usize::from(d_count == 0);
            self.deriv_entries -= usize::from(d_count + sign == 0);
            let tuple = &entry.key().1;
            // Firings are per-key transitions, not per-tuple: a second
            // derivation of an already-live tuple is still a new proof.
            if let (Some(derivation), Some(log)) = (logged, self.firings.as_mut()) {
                let d_now = d_count + sign > 0;
                if (d_count > 0) != d_now {
                    log.push(Firing {
                        derivation,
                        sign: if d_now { 1 } else { -1 },
                        pred,
                        tuple: tuple.clone(),
                        tau: u.ts,
                    });
                }
            }
            if was_live != now_live {
                let kind = if now_live {
                    UpdateKind::Insert
                } else {
                    UpdateKind::Delete
                };
                out.push(Update {
                    pred,
                    tuple: tuple.clone(),
                    kind,
                    ts: u.ts,
                });
            }
            // A key whose last entry left goes with it: an empty `Support`
            // owes nothing.
            if entry.get().entries.is_empty() {
                entry.remove();
            }
        }

        // Aggregate groups: recompute against the post-update state.
        for (ri, key) in agg_dirty {
            self.recompute_agg_group(ri, key, u.ts, out)?;
        }
        Ok(())
    }

    /// Would adding derivation `d` for `(pred, tuple)` close a cycle in the
    /// tuple dependency graph? DFS through the *live* derivations of the
    /// inputs.
    fn derivation_closes_cycle(&self, pred: Symbol, tuple: &Tuple, d: &K) -> bool {
        let rules = &self.analysis.program.rules;
        let inputs_of = |d: &K| {
            (d.derivation().into_iter())
                .flat_map(|d| rules[d.rule_id as usize].positive_atoms().zip(&d.inputs))
                .map(|(a, t)| (a.pred, t.clone()))
                .collect::<Vec<_>>()
        };
        let target = (pred, tuple.clone());
        let mut stack: Vec<(Symbol, Tuple)> = inputs_of(d);
        let mut seen: std::collections::HashSet<(Symbol, Tuple)> = stack.iter().cloned().collect();
        while let Some(key) = stack.pop() {
            if key == target {
                return true;
            }
            let Some(support) = self.derivs.get(&key) else {
                continue;
            };
            for (dd, _) in support.entries.iter().filter(|(_, c)| *c > 0) {
                for k in inputs_of(dd) {
                    if seen.insert(k.clone()) {
                        stack.push(k);
                    }
                }
            }
        }
        false
    }

    /// Re-evaluate one aggregate group from scratch, diff against the
    /// stored result and append the difference to `out`.
    fn recompute_agg_group(
        &mut self,
        ri: usize,
        key: Vec<Term>,
        ts: u64,
        out: &mut Vec<Update>,
    ) -> Result<(), EvalError> {
        let _span = self.profiler.span("inc.agg_group");
        let rule = &self.analysis.program.rules[ri];
        // Seed the body with the group key by matching head args.
        let mut boxed_seed = Subst::new();
        for (pat, val) in rule.head.args.iter().zip(key.iter()) {
            if !match_term(pat, val, &mut boxed_seed) {
                return Ok(()); // key shape impossible (stale)
            }
        }
        let seed = FlatSubst::from_subst(&boxed_seed).expect("group-key bindings are ground");
        let ev = BodyEval::new(&self.db, &self.reg);
        self.stats.body_evals += 1;
        let sols = ev.solutions(&rule.body, seed, None)?;
        // Keep only solutions matching this exact group key (head args may
        // not functionally pin every solution).
        let mut matching = Vec::new();
        for s in sols {
            if group_key(rule, &s, &self.reg)? == key {
                matching.push(s);
            }
        }
        let new_tuple = if matching.is_empty() {
            None
        } else {
            aggregate_rule(rule, &matching, &self.reg)?
                .into_iter()
                .next()
        };
        let pred = rule.head.pred;
        let slot = (rule.id, key);
        let old = match &new_tuple {
            Some(n) => self.agg_groups.insert(slot, n.clone()),
            None => self.agg_groups.remove(&slot),
        };
        if old != new_tuple {
            out.extend(old.map(|o| Update::delete(pred, o, ts)));
            out.extend(new_tuple.map(|n| Update::insert(pred, n, ts)));
        }
        Ok(())
    }
}

fn group_key(
    rule: &Rule,
    subst: &FlatSubst,
    reg: &BuiltinRegistry,
) -> Result<Vec<Term>, EvalError> {
    // Group keys are boxed terms (aggregate machinery is off the hot
    // path); resolve the flat bindings once.
    let subst = intern::boundary(|| subst.to_subst());
    rule.head
        .args
        .iter()
        .map(|a| {
            let g = subst.apply(a);
            if g.is_ground() {
                reg.eval_term(&g).map_err(EvalError::from)
            } else {
                Err(EvalError::Internal(format!(
                    "group key `{a}` unbound in rule #{}",
                    rule.id
                )))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seminaive::Engine;
    use sensorlog_logic::parser::parse_fact;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tup(src: &str) -> Tuple {
        let (_, args) = parse_fact(&format!("x({src})")).unwrap();
        Tuple::new(args)
    }

    fn upd(kind: UpdateKind, fact: &str, ts: u64) -> Update {
        let (p, args) = parse_fact(fact).unwrap();
        Update {
            pred: p,
            tuple: Tuple::new(args),
            kind,
            ts,
        }
    }

    fn ins(fact: &str, ts: u64) -> Update {
        upd(UpdateKind::Insert, fact, ts)
    }

    fn del(fact: &str, ts: u64) -> Update {
        upd(UpdateKind::Delete, fact, ts)
    }

    const UNCOV: &str = r#"
        cov(L, T) :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 5.
        uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
    "#;

    fn engine(src: &str) -> IncrementalEngine {
        IncrementalEngine::from_source(src, BuiltinRegistry::standard()).unwrap()
    }

    /// Check the incremental state equals the batch oracle on the same EDB.
    fn assert_matches_oracle<K: LedgerKey>(inc: &IncrementalEngine<K>, src: &str) {
        let oracle = Engine::from_source(src, BuiltinRegistry::standard()).unwrap();
        // Build the EDB snapshot from the incremental engine's database.
        let edb_preds = inc.analysis.program.edb_preds();
        let mut edb = Database::new();
        for p in &edb_preds {
            for t in inc.db.sorted(*p) {
                edb.insert(*p, t);
            }
        }
        let expect = oracle.run(&edb).unwrap();
        for p in inc.analysis.program.idb_preds() {
            assert_eq!(
                inc.db.sorted(p),
                expect.sorted(p),
                "divergence on predicate {p}"
            );
        }
    }

    #[test]
    fn support_count_that_cancels_leaves() {
        let mut s: Support<u8> = Support::default();
        assert_eq!((s.add(7, 1), s.count(&7), s.is_live()), (0, 1, true));
        assert_eq!(s.add(7, -1), 1);
        assert_eq!((s.count(&7), s.is_live()), (0, false));
        assert!(s.entries().is_empty(), "no zero count is ever stored");
    }

    #[test]
    fn support_negative_count_keeps_its_key() {
        let mut s: Support<u8> = Support::default();
        assert_eq!(s.add(3, -1), 0);
        assert_eq!((s.entries(), s.is_live()), (&[(3, -1)][..], false));
        // A second key going live does not touch the debt.
        s.add(1, 1);
        assert_eq!((s.entries(), s.is_live()), (&[(1, 1), (3, -1)][..], true));
        // Balanced: the key goes, the other one still supports the tuple.
        assert_eq!(s.add(3, 1), -1);
        assert_eq!((s.entries(), s.is_live()), (&[(1, 1)][..], true));
    }

    #[test]
    fn support_liveness_tracks_a_random_signed_stream() {
        // A fixed LCG: 4,000 ±1 deltas over 6 keys, counts drifting both ways.
        let mut s: Support<u8> = Support::default();
        let mut model: BTreeMap<u8, i64> = BTreeMap::new();
        let mut x: u64 = 17;
        for _ in 0..4_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let (k, sign) = ((x >> 33) as u8 % 6, if x >> 63 == 0 { 1 } else { -1 });
            let before = s.add(k, sign);
            let c = model.entry(k).or_insert(0);
            assert_eq!(before, *c);
            *c += sign;
            assert_eq!(s.count(&k), *c);
            assert_eq!(s.is_live(), s.entries().iter().any(|&(_, c)| c > 0));
            let stored: Vec<(u8, i64)> = (model.iter().filter(|(_, &c)| c != 0))
                .map(|(&k, &c)| (k, c))
                .collect();
            assert_eq!(s.entries(), &stored[..], "sorted, and never a zero");
        }
    }

    #[test]
    fn insert_then_delete_roundtrip() {
        let mut e = engine(UNCOV);
        let out = e.apply(ins(r#"veh("enemy", 10, 1)"#, 1)).unwrap();
        // Uncovered right away.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, UpdateKind::Insert);
        assert_eq!(out[0].pred, sym("uncov"));
        assert!(e.db.contains(sym("uncov"), &tup("10, 1")));

        // A friendly nearby covers it: cov appears, uncov retracts.
        let out = e.apply(ins(r#"veh("friendly", 12, 1)"#, 2)).unwrap();
        assert!(out
            .iter()
            .any(|u| u.pred == sym("cov") && u.kind == UpdateKind::Insert));
        assert!(out
            .iter()
            .any(|u| u.pred == sym("uncov") && u.kind == UpdateKind::Delete));
        assert!(!e.db.contains(sym("uncov"), &tup("10, 1")));

        // Friendly leaves: uncovered again.
        let out = e.apply(del(r#"veh("friendly", 12, 1)"#, 3)).unwrap();
        assert!(out
            .iter()
            .any(|u| u.pred == sym("uncov") && u.kind == UpdateKind::Insert));
        assert_matches_oracle(&e, UNCOV);
    }

    #[test]
    fn duplicate_inserts_suppressed() {
        let mut e = engine(UNCOV);
        e.apply(ins(r#"veh("enemy", 10, 1)"#, 1)).unwrap();
        let out = e.apply(ins(r#"veh("enemy", 10, 1)"#, 2)).unwrap();
        assert!(out.is_empty());
        // A single delete fully retracts.
        e.apply(del(r#"veh("enemy", 10, 1)"#, 3)).unwrap();
        assert!(!e.db.contains(sym("uncov"), &tup("10, 1")));
    }

    #[test]
    fn delete_of_absent_is_noop() {
        let mut e = engine(UNCOV);
        let out = e.apply(del(r#"veh("enemy", 99, 9)"#, 1)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn two_blockers_commute() {
        // The multiplicity-count rationale: two friendlies cover the same
        // enemy; removing them in either order must re-raise the alert only
        // after both are gone.
        let src = UNCOV;
        for order in [[1, 2], [2, 1]] {
            let mut e = engine(src);
            e.apply(ins(r#"veh("enemy", 10, 1)"#, 1)).unwrap();
            e.apply(ins(r#"veh("friendly", 11, 1)"#, 2)).unwrap();
            e.apply(ins(r#"veh("friendly", 12, 1)"#, 3)).unwrap();
            assert!(!e.db.contains(sym("uncov"), &tup("10, 1")));
            let f = |i: i64| format!(r#"veh("friendly", 1{i}, 1)"#);
            e.apply(del(&f(order[0] as i64), 4)).unwrap();
            assert!(
                !e.db.contains(sym("uncov"), &tup("10, 1")),
                "still covered by the other friendly"
            );
            // Blocked exactly once (`cov` went live once): the alert's one
            // derivation cancelled to zero and took its key with it.
            assert!(!e.derivs.contains_key(&(sym("uncov"), tup("10, 1"))));
            e.apply(del(&f(order[1] as i64), 5)).unwrap();
            assert!(e.db.contains(sym("uncov"), &tup("10, 1")));
            assert_eq!(e.derivs[&(sym("uncov"), tup("10, 1"))].live, 1);
            assert_matches_oracle(&e, src);
        }
    }

    #[test]
    fn negative_count_keeps_its_key_until_balanced() {
        // A blocker that expires silently and comes back blocks the same
        // derivation a second time: the count goes to -1 on a dead tuple.
        // That entry is a debt, not garbage — dropping its key would make
        // the blocker's deletion raise an alert nothing supports.
        let src = r#"
            .window s 100.
            q(X) :- a(X), not s(X).
        "#;
        let key = (sym("q"), tup("1"));
        let mut e = engine(src);
        e.apply(ins("a(1)", 5)).unwrap();
        e.apply(ins("s(1)", 10)).unwrap();
        assert!(!e.derivs.contains_key(&key), "+1 - 1: the entry left");
        e.advance_time(200);
        assert!(!e.db.contains(sym("s"), &tup("1")));
        e.apply(ins("s(1)", 210)).unwrap();
        let support = &e.derivs[&key];
        assert_eq!((support.live, support.entries[0].1), (0, -1));
        assert_eq!((e.ledger_keys(), e.deriv_entries), (1, 1));
        assert!(!e.db.contains(sym("q"), &tup("1")));
        // The balancing deletion: back to zero, no alert, key gone.
        assert!(e.apply(del("s(1)", 220)).unwrap().is_empty());
        assert_eq!((e.ledger_keys(), e.deriv_entries), (0, 0));
        assert!(!e.db.contains(sym("q"), &tup("1")));
    }

    #[test]
    fn retracted_tuples_leave_the_ledger() {
        // Stream distinct join pairs in and delete them all: the ledger
        // must not remember the tuples it once supported.
        let src = "q(X, Y) :- r1(X, K), r2(Y, K).";
        let mut e = engine(src);
        let n = 40;
        for k in 0..n {
            e.apply(ins(&format!("r1({k}, {k})"), k)).unwrap();
            e.apply(ins(&format!("r2({}, {k})", k + 100), k)).unwrap();
        }
        assert_eq!(e.db.len_of(sym("q")), n as usize);
        assert_eq!((e.ledger_keys(), e.deriv_entries), (n as usize, n as usize));
        for k in 0..n {
            // One side first for even keys, the other for odd.
            let (first, second) = (format!("r1({k}, {k})"), format!("r2({}, {k})", k + 100));
            let (first, second) = if k % 2 == 0 {
                (first, second)
            } else {
                (second, first)
            };
            e.apply(del(&first, n + k)).unwrap();
            e.apply(del(&second, n + k)).unwrap();
        }
        assert_eq!(e.db.total_tuples(), 0);
        assert_eq!((e.ledger_keys(), e.deriv_entries), (0, 0));
    }

    #[test]
    fn self_join_staircase_exact() {
        // q(X, Z) :- e(X, Y), e(Y, Z): inserting e(1,1) must create exactly
        // one derivation of q(1,1), and deleting it exactly remove it.
        let src = "q(X, Z) :- e(X, Y), e(Y, Z).";
        let mut e = engine(src);
        e.apply(ins("e(1, 1)", 1)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1, 1")));
        assert_eq!(e.derivation_count(), 1);
        e.apply(del("e(1, 1)", 2)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("1, 1")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn self_join_chain() {
        let src = "q(X, Z) :- e(X, Y), e(Y, Z).";
        let mut e = engine(src);
        e.apply(ins("e(1, 2)", 1)).unwrap();
        e.apply(ins("e(2, 3)", 2)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1, 3")));
        e.apply(del("e(1, 2)", 3)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("1, 3")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn multiple_derivations_protect_tuple() {
        // Two paths derive the same tuple; deleting one keeps it alive.
        let src = r#"
            q(Z) :- a(Z).
            q(Z) :- b(Z).
        "#;
        let mut e = engine(src);
        e.apply(ins("a(7)", 1)).unwrap();
        e.apply(ins("b(7)", 2)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("7")));
        e.apply(del("a(7)", 3)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("7")), "b-derivation remains");
        e.apply(del("b(7)", 4)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("7")));
    }

    #[test]
    fn cascading_through_strata() {
        let src = r#"
            a(X) :- base(X).
            b(X) :- a(X), not blocked(X).
            c(X) :- b(X).
        "#;
        let mut e = engine(src);
        let out = e.apply(ins("base(1)", 1)).unwrap();
        assert_eq!(out.len(), 3); // a, b, c inserts
        assert!(e.db.contains(sym("c"), &tup("1")));
        let out = e.apply(ins("blocked(1)", 2)).unwrap();
        assert!(out
            .iter()
            .any(|u| u.pred == sym("c") && u.kind == UpdateKind::Delete));
        assert!(!e.db.contains(sym("c"), &tup("1")));
        e.apply(del("blocked(1)", 3)).unwrap();
        assert!(e.db.contains(sym("c"), &tup("1")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn recursive_transitive_closure_incremental() {
        let src = r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        let mut e = engine(src);
        for (i, edge) in [(1, 2), (2, 3), (3, 4)].iter().enumerate() {
            e.apply(ins(&format!("e({}, {})", edge.0, edge.1), i as u64))
                .unwrap();
        }
        assert!(e.db.contains(sym("t"), &tup("1, 4")));
        assert_matches_oracle(&e, src);
        // Delete the middle edge: everything through it disappears.
        e.apply(del("e(2, 3)", 10)).unwrap();
        assert!(!e.db.contains(sym("t"), &tup("1, 3")));
        assert!(!e.db.contains(sym("t"), &tup("1, 4")));
        assert!(e.db.contains(sym("t"), &tup("1, 2")));
        assert!(e.db.contains(sym("t"), &tup("3, 4")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn xy_program_incremental_logich() {
        let src = r#"
            h(0, 0, 0).
            h(0, X, 1) :- g(0, X).
            hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
            h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
        "#;
        let mut e = engine(src);
        let mut ts = 1;
        let mut drive = |e: &mut IncrementalEngine, a: i64, b: i64| {
            e.apply(ins(&format!("g({a}, {b})"), ts)).unwrap();
            e.apply(ins(&format!("g({b}, {a})"), ts + 1)).unwrap();
            ts += 2;
        };
        drive(&mut e, 0, 1);
        drive(&mut e, 1, 2);
        assert!(e.db.contains(sym("h"), &tup("0, 1, 1")));
        assert!(e.db.contains(sym("h"), &tup("1, 2, 2")));
        // Add shortcut 0-2: h(0,2,1) appears and hp(2,2) retracts h(1,2,2).
        drive(&mut e, 0, 2);
        assert!(e.db.contains(sym("h"), &tup("0, 2, 1")));
        assert!(!e.db.contains(sym("h"), &tup("1, 2, 2")));
    }

    #[test]
    fn ground_facts_are_live_after_new() {
        // No update is ever applied: the facts and everything derivable
        // from them must already be there, ledger included.
        let src = r#"
            root(0).
            edge(0, 1).
            reach(X) :- root(X).
            reach(Y) :- reach(X), edge(X, Y).
            far(Y) :- reach(Y), not root(Y).
        "#;
        let mut e = engine(src);
        assert_eq!(e.db.sorted(sym("reach")), vec![tup("0"), tup("1")]);
        assert_eq!(e.db.sorted(sym("far")), vec![tup("1")]);
        assert_matches_oracle(&e, src);
        // root, edge, reach(0), reach(1), far(1).
        assert_eq!(e.derivation_count(), 5);
        // Feeding a ground fact again (the Centroid runtime does) is a
        // duplicate, not a second generation.
        assert!(e.apply(ins("root(0)", 5)).unwrap().is_empty());
        assert_eq!(e.derivation_count(), 5);
    }

    #[test]
    fn ground_facts_join_with_base_updates() {
        let src = r#"
            p(1). p(2).
            q(X) :- p(X), not b(X).
        "#;
        let mut e = engine(src);
        assert_eq!(e.db.sorted(sym("q")), vec![tup("1"), tup("2")]);
        assert_matches_oracle(&e, src);
        e.apply(ins("b(1)", 1)).unwrap();
        assert_eq!(e.db.sorted(sym("q")), vec![tup("2")]);
        assert_matches_oracle(&e, src);
        e.apply(del("b(1)", 2)).unwrap();
        assert_eq!(e.db.sorted(sym("q")), vec![tup("1"), tup("2")]);
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn aggregate_maintenance() {
        let src = "best(G, min<V>) :- m(G, V).";
        let mut e = engine(src);
        e.apply(ins("m(1, 5)", 1)).unwrap();
        assert!(e.db.contains(sym("best"), &tup("1, 5")));
        e.apply(ins("m(1, 3)", 2)).unwrap();
        assert!(e.db.contains(sym("best"), &tup("1, 3")));
        assert!(!e.db.contains(sym("best"), &tup("1, 5")));
        e.apply(del("m(1, 3)", 3)).unwrap();
        assert!(e.db.contains(sym("best"), &tup("1, 5")));
        e.apply(del("m(1, 5)", 4)).unwrap();
        assert_eq!(e.db.len_of(sym("best")), 0);
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn aggregate_count_updates() {
        let src = "deg(X, count<Y>) :- e(X, Y).";
        let mut e = engine(src);
        e.apply(ins("e(1, 2)", 1)).unwrap();
        e.apply(ins("e(1, 3)", 2)).unwrap();
        assert!(e.db.contains(sym("deg"), &tup("1, 2")));
        e.apply(del("e(1, 2)", 3)).unwrap();
        assert!(e.db.contains(sym("deg"), &tup("1, 1")));
    }

    #[test]
    fn window_expiry_is_silent() {
        let src = r#"
            .window s 100.
            q(X) :- s(X).
        "#;
        let mut e = engine(src);
        e.apply(ins("s(1)", 10)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1")));
        e.advance_time(200);
        // Base tuple expired; derived q expired too (inherited window);
        // no deletion events were cascaded (expiry is silent).
        assert!(!e.db.contains(sym("s"), &tup("1")));
        assert!(!e.db.contains(sym("q"), &tup("1")));
        assert_eq!(e.derivation_count(), 0);
    }

    #[test]
    fn local_recursion_check_catches_cycles() {
        // A 2-cycle (1->2, 2->1) creates mutually supporting t tuples —
        // outside the locally non-recursive class; strict mode must say so.
        let src = r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        let mut e = engine(src);
        e.check_local_recursion = true;
        e.apply(ins("e(1, 2)", 1)).unwrap();
        let err = e.apply(ins("e(2, 1)", 2)).unwrap_err();
        assert!(matches!(
            err,
            crate::error::EvalError::DerivationCycle { .. }
        ));
        // DAGs sail through.
        let mut e = engine(src);
        e.check_local_recursion = true;
        for (i, edge) in ["e(1, 2)", "e(2, 3)", "e(1, 3)"].iter().enumerate() {
            e.apply(ins(edge, i as u64)).unwrap();
        }
        assert!(e.db.contains(sym("t"), &tup("1, 3")));
    }

    #[test]
    fn stats_track_work() {
        let mut e = engine(UNCOV);
        e.apply(ins(r#"veh("enemy", 10, 1)"#, 1)).unwrap();
        assert!(e.stats.updates_processed >= 1);
        assert!(e.stats.body_evals >= 1);
        assert!(e.stats.derived_emitted >= 1);
    }

    #[test]
    fn firings_are_the_ledgers_key_transitions() {
        let src = r#"
            q(X, Y) :- r1(X, K), r2(Y, K).
        "#;
        let mut e = engine(src);
        e.set_record_firings(true);
        e.apply(ins("r1(1, 7)", 10)).unwrap();
        e.apply(ins("r2(2, 7)", 20)).unwrap();
        // One firing: q(1, 2) from rule 0 over both inputs, in body order.
        let gained = Firing {
            derivation: Derivation {
                rule_id: 0,
                inputs: Box::new([tup("1, 7"), tup("2, 7")]),
            },
            sign: 1,
            pred: sym("q"),
            tuple: tup("1, 2"),
            tau: 20,
        };
        assert_eq!(e.take_firings(), std::slice::from_ref(&gained));
        // A duplicate insert moves no key; deleting a premise kills the
        // derivation, and taking the log empties it.
        e.apply(ins("r2(2, 7)", 25)).unwrap();
        e.apply(del("r1(1, 7)", 30)).unwrap();
        let lost = Firing {
            sign: -1,
            tau: 30,
            ..gained
        };
        assert_eq!(e.take_firings(), [lost]);
        assert!(e.take_firings().is_empty());
        // A second derivation of a live tuple is a firing of its own.
        let src2 = "q(Z) :- a(Z).\nq(Z) :- b(Z).";
        let mut e = engine(src2);
        e.set_record_firings(true);
        e.apply(ins("a(7)", 1)).unwrap();
        e.apply(ins("b(7)", 2)).unwrap();
        let rules: Vec<u32> = (e.take_firings().iter())
            .map(|f| f.derivation.rule_id)
            .collect();
        assert_eq!(rules, [0, 1]);
        // Engines that never switched the log on keep none.
        let mut quiet = engine(src);
        quiet.apply(ins("r1(1, 7)", 10)).unwrap();
        quiet.apply(ins("r2(2, 7)", 20)).unwrap();
        assert!(quiet.take_firings().is_empty() && quiet.firings.is_none());
    }

    /// The counting projection: `IncrementalEngine<()>` over `src`.
    fn counting(src: &str) -> Result<IncrementalEngine<()>, EvalError> {
        let reg = BuiltinRegistry::standard();
        let prog = sensorlog_logic::parse_program(src).unwrap();
        IncrementalEngine::counting(sensorlog_logic::analyze(&prog, &reg)?, reg)
    }

    #[test]
    fn basic_counting() {
        let src = r#"
            q(Z) :- a(Z).
            q(Z) :- b(Z).
        "#;
        let mut e = counting(src).unwrap();
        e.apply(ins("a(1)", 1)).unwrap();
        e.apply(ins("b(1)", 2)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1")));
        // One counter, vs two derivations.
        assert_eq!((e.ledger_keys(), e.derivation_count()), (1, 1));
        assert_eq!(e.derivs[&(sym("q"), tup("1"))].count(&()), 2);
        e.apply(del("a(1)", 3)).unwrap();
        assert!(e.db.contains(sym("q"), &tup("1")));
        e.apply(del("b(1)", 4)).unwrap();
        assert!(!e.db.contains(sym("q"), &tup("1")));
        assert_eq!((e.ledger_keys(), e.derivation_count()), (0, 0));
    }

    #[test]
    fn negation_counting() {
        let src = r#"
            cov(L) :- enemy(L), friendly(F), dist(L, F) <= 5.
            uncov(L) :- not cov(L), enemy(L).
        "#;
        let mut e = counting(src).unwrap();
        e.apply(ins("enemy(10)", 1)).unwrap();
        assert!(e.db.contains(sym("uncov"), &tup("10")));
        e.apply(ins("friendly(12)", 2)).unwrap();
        assert!(!e.db.contains(sym("uncov"), &tup("10")));
        e.apply(del("friendly(12)", 3)).unwrap();
        assert!(e.db.contains(sym("uncov"), &tup("10")));
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn ground_facts_are_live_after_new_and_survive_base_updates() {
        let src = r#"
            p(1). p(2).
            q(X) :- p(X), not b(X).
        "#;
        let mut e = counting(src).unwrap();
        // No update applied yet: the semi-naive fixpoint is already there.
        assert_eq!(e.db.sorted(sym("q")), vec![tup("1"), tup("2")]);
        assert_matches_oracle(&e, src);
        e.apply(ins("b(1)", 1)).unwrap();
        assert_eq!(e.db.sorted(sym("q")), vec![tup("2")]);
        assert_matches_oracle(&e, src);
        e.apply(del("b(1)", 2)).unwrap();
        assert_eq!(e.db.sorted(sym("q")), vec![tup("1"), tup("2")]);
        assert_matches_oracle(&e, src);
    }

    #[test]
    fn rejects_recursion() {
        let src = r#"
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), e(Z, Y).
        "#;
        assert!(counting(src).is_err());
    }

    #[test]
    fn rejects_aggregates() {
        assert!(counting("best(min<V>) :- m(V).").is_err());
    }
}
