//! Partial results and per-node join processing (Fig. 1).
//!
//! A probe traversing its join-computation region carries a set of
//! [`Partial`]s per rule. At each node, every partial is extended with the
//! locally stored (replicated) tuples of still-unbound subgoals — producing
//! new partials *without discarding the originals*, exactly the one-pass
//! scheme of Fig. 1: "the computed partial results along with the incoming
//! partial results are all forwarded to the next node". Comparisons and
//! builtins evaluate as soon as their variables bind; bound negated
//! subgoals are checked against each node's fragments and kill the result
//! on a match ("delete partial or complete results that match with a tuple
//! in some S_j", Sec. IV-B).

use crate::plan::DistProgram;
use crate::tupleid::TupleId;
use sensorlog_eval::eval_body::{bound_key, eval_check, ground_atom, BoundKey, Check};
use sensorlog_eval::relation::{Database, TupleMeta};
use sensorlog_logic::ast::{Literal, Rule};
use sensorlog_logic::flat::{flat_match_args, FlatSubst};
use sensorlog_logic::intern;
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::SimTime;

/// Most body literals a distributed rule may have: the width of
/// [`Partial::bound`]. `plan::compile` rejects wider rules.
pub const MAX_BODY_LITERALS: usize = u64::BITS as usize;

/// A partial result: bindings accumulated so far plus the derivation
/// inputs. `bound` has one bit per body literal, bit `i` for literal `i`
/// (set for the pinned occurrence and every joined positive subgoal; checks
/// set theirs when they evaluate).
#[derive(Clone, Debug)]
pub struct Partial {
    pub bindings: FlatSubst,
    pub bound: u64,
    /// Body literals of the rule: the width of `bound` on the wire.
    pub lits: u8,
    pub inputs: Vec<(u16, TupleId)>,
}

impl Partial {
    pub fn is_bound(&self, lit: usize) -> bool {
        self.bound & (1 << lit) != 0
    }

    /// All positive subgoals joined and all checks passed?
    pub fn is_complete(&self, shape: &RuleShape) -> bool {
        self.bound & shape.complete == shape.complete
    }

    /// Approximate wire size.
    pub fn byte_size(&self) -> usize {
        self.bindings
            .iter()
            .map(|(v, id)| v.as_str().len() + intern::entry(id).byte_size as usize)
            .sum::<usize>()
            + self.inputs.len() * 18
            + self.lits as usize / 8
            + 4
    }
}

/// Precomputed literal classification for a rule.
#[derive(Clone, Debug)]
pub struct RuleShape {
    /// Indexes of positive relational subgoals.
    pub positives: Vec<usize>,
    /// Indexes of negated subgoals.
    pub negations: Vec<usize>,
    /// Indexes of comparisons and builtin predicates.
    pub checks: Vec<usize>,
    /// [`Partial::bound`] of a complete result: every positive and check.
    pub complete: u64,
}

impl RuleShape {
    pub fn of(rule: &Rule) -> RuleShape {
        assert!(
            rule.body.len() <= MAX_BODY_LITERALS,
            "rule #{} was not compiled: {} body literals",
            rule.id,
            rule.body.len()
        );
        let mut shape = RuleShape {
            positives: Vec::new(),
            negations: Vec::new(),
            checks: Vec::new(),
            complete: 0,
        };
        for (i, lit) in rule.body.iter().enumerate() {
            match lit {
                Literal::Pos(_) => shape.positives.push(i),
                Literal::Neg(_) => shape.negations.push(i),
                Literal::Cmp(..) | Literal::Builtin(_) => shape.checks.push(i),
            }
            if !matches!(lit, Literal::Neg(_)) {
                shape.complete |= 1 << i;
            }
        }
        shape
    }
}

/// Seed a partial by pinning body literal `occ` (positive or negated) to
/// the update's tuple. Returns `None` when the tuple doesn't match the
/// pattern. The pinned input is recorded only for positive occurrences
/// (derivations list the non-negated subgoals, Definition 2).
pub fn seed_partial(
    prog: &DistProgram,
    rule: &Rule,
    occ: usize,
    negated: bool,
    tuple: &Tuple,
    id: TupleId,
) -> Option<Partial> {
    let atom = rule.body[occ].atom().expect("relational occurrence");
    let mut bindings = FlatSubst::new();
    if !flat_match_args(&prog.reg, &atom.args, tuple.ids(), &mut bindings) {
        return None;
    }
    Some(Partial {
        bindings,
        bound: 1 << occ,
        lits: rule.body.len() as u8,
        inputs: if negated {
            Vec::new()
        } else {
            vec![(occ as u16, id)]
        },
    })
}

/// A node's fragment store: its replicas, each carrying its [`Replica`]
/// record, and beside each predicate's relation an `E` no probe reads.
pub type Fragments<E = ()> = Database<Replica, E>;

/// A replica's own record in the fragment store: the id of the generation
/// stored (derivation inputs, and the tie-break of Definition 2) and its
/// deletion timestamp — "we do not remove the replicated copies … but only
/// record its deletion-timestamp" (Sec. IV-B). A replica that is not
/// deleted reads [`Replica::LIVE`], later than every probe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Replica {
    pub id: TupleId,
    pub del_ts: u64,
}

const _: () = assert!(std::mem::size_of::<TupleMeta<Replica>>() == 32);

impl Replica {
    /// The deletion timestamp of a replica that is not deleted.
    pub const LIVE: u64 = u64::MAX;

    /// The record of generation `id`, not deleted.
    pub fn live(id: TupleId) -> Replica {
        Replica {
            id,
            del_ts: Replica::LIVE,
        }
    }

    /// Record a deletion at `del_ts`; of two, the earlier stands, so no
    /// tombstone ever undeletes. True iff `del_ts` is the earlier. `del_ts`
    /// must be a time, not the sentinel.
    pub fn tombstone(&mut self, del_ts: u64) -> bool {
        debug_assert!(del_ts != Replica::LIVE, "a tombstone at u64::MAX");
        let earlier = del_ts < self.del_ts;
        self.del_ts = self.del_ts.min(del_ts);
        earlier
    }

    pub fn is_deleted(&self) -> bool {
        self.del_ts != Replica::LIVE
    }
}

/// Theorem 3's timestamp discipline for a replica: a probe with
/// update-timestamp `tau` over a window of `window` ms sees replicas with
/// `gen_ts ≤ tau`, `gen_ts > tau − window`, and no deletion-timestamp
/// `< tau`.
pub fn visible_at(m: &TupleMeta<Replica>, tau: u64, window: Option<u64>) -> bool {
    m.visible_at(tau, window) && m.extra.del_ts >= tau
}

/// Local fragment lookup context at a node.
pub struct LocalCtx<'a, E = ()> {
    pub prog: &'a DistProgram,
    pub db: &'a Fragments<E>,
    /// Probe event timestamp (Theorem 3 visibility).
    pub tau: SimTime,
    /// The probe's update tuple ID: ties in local timestamps serialize by
    /// tuple ID (Definition 2), so a replica generated at exactly `tau`
    /// participates only when its ID is ≤ the update's — each same-instant
    /// pair is then derived by exactly one of the two probes.
    pub update_id: TupleId,
    /// Generous positive matching for fault-plane delete probes. Under
    /// crash/partition delays a tombstone can reach a replica node *after*
    /// a newer insert's probe joined with the stale replica, so the
    /// timestamp discipline alone under-retracts: the delete probe excludes
    /// exactly the newer generations whose spurious derivations it must
    /// kill. A generous delete probe extends through every stored fragment
    /// regardless of visibility; over-emission is safe because deltas are
    /// keyed by exact input ids (any key containing the deleted id must die,
    /// and a `-1` for a never-derived key is absorbed by the owner's
    /// clamped counts). Negation kills stay strict.
    pub generous: bool,
}

impl<E> LocalCtx<'_, E> {
    /// The sliding window of `pred`, if it has one.
    fn window(&self, pred: Symbol) -> Option<u64> {
        self.prog.windows.get(&pred).copied()
    }

    /// Does a replica with metadata `m` take part in the probe? Theorem 3
    /// visibility (window, tombstone) plus the timestamp-tie discipline.
    fn admits(&self, m: &TupleMeta<Replica>, window: Option<u64>) -> bool {
        visible_at(m, self.tau, window) && (m.gen_ts < self.tau || m.extra.id <= self.update_id)
    }

    /// The ground negation kill's test: is `tuple` stored here and does it
    /// take part in the probe?
    fn participates(&self, pred: Symbol, tuple: &Tuple) -> bool {
        (self.db.relation(pred))
            .and_then(|r| r.meta(tuple))
            .is_some_and(|m| self.admits(m, self.window(pred)))
    }

    /// Visit, in canonical tuple order and with their ids, the local
    /// fragments of `pred` that can extend a partial whose bindings give
    /// `key`: a probe of the fragment store, each match tested for
    /// participation from the metadata the probe hands over.
    fn candidates(&self, pred: Symbol, key: &BoundKey, mut visit: impl FnMut(&Tuple, TupleId)) {
        let Some(rel) = self.db.relation(pred) else {
            return;
        };
        let window = self.window(pred);
        rel.probe(key.cols(), key.ids(), |t, m| {
            if self.generous || self.admits(m, window) {
                visit(t, m.extra.id);
            }
        });
    }
}

/// What one pass over a rule's partials did at a node: the inside of
/// `core.join.probe` as counts (`probe.*` histograms in the runtime).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeWork {
    /// Partials the probe arrived with.
    pub partials_in: u64,
    /// Participating local fragments offered to a partial.
    pub candidates: u64,
    /// Candidates that matched and became a new partial.
    pub extensions: u64,
}

/// Process one rule's partial set at one node: evaluate newly-bound checks,
/// apply local negation kills, extend with local fragments of the literals
/// in `extend` — the current pass of the probe's [`crate::plan::PassPlan`]
/// — (all subsets, ascending literal index within the node). Returns the
/// surviving set — originals plus extensions.
///
/// `pinned` is the probe's pinned literal (its negation check is skipped
/// per the `T_s1` construction).
pub fn process_partials<E>(
    ctx: &LocalCtx<'_, E>,
    rule: &Rule,
    shape: &RuleShape,
    partials: Vec<Partial>,
    pinned: Option<usize>,
    extend: u64,
    work: &mut ProbeWork,
) -> Vec<Partial> {
    work.partials_in += partials.len() as u64;
    let mut out: Vec<Partial> = Vec::with_capacity(partials.len());
    for p in partials {
        grow(ctx, rule, shape, p, pinned, extend, 0, &mut out, work);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn grow<E>(
    ctx: &LocalCtx<'_, E>,
    rule: &Rule,
    shape: &RuleShape,
    mut p: Partial,
    pinned: Option<usize>,
    extend: u64,
    min_lit: usize,
    out: &mut Vec<Partial>,
    work: &mut ProbeWork,
) {
    let reg = &ctx.prog.reg;
    // 1. Evaluate any newly-evaluable checks; kill on failure or error. An
    // `==` assignment binds a variable, which can make a check earlier in
    // the body evaluable: go round again while bindings grow.
    loop {
        let before = p.bindings.len();
        for &i in &shape.checks {
            if p.is_bound(i) {
                continue;
            }
            match eval_check(reg, &rule.body[i], &mut p.bindings) {
                Ok(Check::Holds) => p.bound |= 1 << i,
                Ok(Check::Unbound) => {} // not yet evaluable
                Ok(Check::Fails) | Err(_) => return,
            }
        }
        if p.bindings.len() == before {
            break;
        }
    }

    // 2. Local negation kills: a bound negated subgoal matching a visible
    // local fragment kills the result.
    for &i in &shape.negations {
        if Some(i) == pinned {
            continue;
        }
        if let Literal::Neg(atom) = &rule.body[i] {
            if let Ok(Some(t)) = ground_atom(reg, atom, &p.bindings) {
                if ctx.participates(atom.pred, &t) {
                    return; // killed
                }
            }
        }
    }

    // The partial survives as itself, ahead of its extensions; they are
    // built from it where it now lives, so it is never copied. (`out` grows
    // under the recursion: index, don't borrow.)
    let at = out.len();
    out.push(p);

    // 3. Extend with local fragments of this pass's literals (ascending
    // literal order within this node avoids generating the same combination
    // twice).
    for &i in &shape.positives {
        if i < min_lit || out[at].is_bound(i) || extend & 1 << i == 0 {
            continue;
        }
        if let Literal::Pos(atom) = &rule.body[i] {
            let key = bound_key(reg, atom, &out[at].bindings);
            ctx.candidates(atom.pred, &key, |t, id| {
                work.candidates += 1;
                let base = &out[at];
                let mut bindings = base.bindings.clone();
                if flat_match_args(reg, &atom.args, t.ids(), &mut bindings) {
                    work.extensions += 1;
                    let mut inputs = Vec::with_capacity(base.inputs.len() + 1);
                    inputs.extend_from_slice(&base.inputs);
                    inputs.push((i as u16, id));
                    let q = Partial {
                        bindings,
                        bound: base.bound | 1 << i,
                        lits: base.lits,
                        inputs,
                    };
                    grow(ctx, rule, shape, q, pinned, extend, i + 1, out, work);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile_source, PlanTiming};
    use sensorlog_eval::relation::Relation;
    use sensorlog_logic::builtin::BuiltinRegistry;
    use sensorlog_logic::parse_fact;
    use sensorlog_netsim::NodeId;

    /// A pass that extends with every literal: Fig. 1's one-pass walk.
    const EVERY: u64 = u64::MAX;

    fn tid(n: u32, ts: u64) -> TupleId {
        TupleId {
            node: NodeId(n),
            ts,
            seq: 0,
        }
    }

    fn fact(src: &str) -> (Symbol, Tuple) {
        let (p, args) = parse_fact(src).unwrap();
        (p, Tuple::new(args))
    }

    fn prog() -> DistProgram {
        compile_source(
            r#"
            .output q.
            q(X, Z) :- e(X, Y), f(Y, Z), Z > 0, not bad(Z).
            "#,
            BuiltinRegistry::standard(),
            PlanTiming,
        )
        .unwrap()
    }

    /// A live replica of the generation `id`, stored at `gen_ts`.
    fn stored(gen_ts: u64, id: TupleId) -> TupleMeta<Replica> {
        TupleMeta {
            gen_ts,
            extra: Replica::live(id),
        }
    }

    /// Tombstone the stored replica of `t` at `del_ts`, as a deletion
    /// reaching a replica node does.
    fn tombstone(r: &mut Relation<Replica>, t: &Tuple, del_ts: u64) {
        r.update(t.clone(), |m| {
            m.expect("a stored replica").extra.tombstone(del_ts);
            None
        });
    }

    fn ctx<'a>(prog: &'a DistProgram, db: &'a Fragments, tau: SimTime) -> LocalCtx<'a> {
        LocalCtx {
            prog,
            db,
            tau,
            // Tests probe with the largest possible ID so equal-timestamp
            // replicas always participate.
            update_id: TupleId {
                node: NodeId(u32::MAX),
                ts: u64::MAX,
                seq: u32::MAX,
            },
            generous: false,
        }
    }

    #[test]
    fn visibility_window() {
        let m = stored(100, tid(1, 100));
        assert!(visible_at(&m, 100, None));
        assert!(visible_at(&m, 150, Some(100)));
        assert!(!visible_at(&m, 200, Some(100))); // 100 + 100 <= 200
        assert!(!visible_at(&m, 50, None)); // not yet generated
        let mut m = stored(100, tid(1, 100));
        m.extra.del_ts = 120;
        assert!(visible_at(&m, 110, None));
        assert!(visible_at(&m, 120, None)); // deleted *at* tau still visible
        assert!(!visible_at(&m, 121, None));
    }

    /// `Replica::LIVE` is a sentinel, not a time: of two deletes the
    /// earlier stands, so no tombstone moves a deletion later or undoes it.
    #[test]
    fn of_two_deletes_the_earlier_stands() {
        let mut r = Replica::live(tid(1, 10));
        assert!(!r.is_deleted());
        r.tombstone(30);
        r.tombstone(20);
        r.tombstone(40);
        assert_eq!(r.del_ts, 20);
        assert!(r.is_deleted());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a tombstone at u64::MAX")]
    fn a_tombstone_at_the_live_sentinel_is_refused() {
        Replica::live(tid(1, 10)).tombstone(u64::MAX);
    }

    #[test]
    fn seed_and_extend_to_complete() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (ep, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        assert!(!seed.is_complete(&shape));

        // A node holding f(2, 9) extends the partial to completion.
        let mut db = Fragments::default();
        let (fp, ft) = fact("f(2, 9)");
        db.relation_or_insert(fp).insert(ft, stored(3, tid(4, 3)));
        let c = ctx(&prog, &db, 10);
        let mut work = ProbeWork::default();
        let out = process_partials(&c, rule, &shape, vec![seed.clone()], None, EVERY, &mut work);
        // The original plus the completed extension.
        assert_eq!(out.len(), 2);
        let complete: Vec<_> = out.iter().filter(|p| p.is_complete(&shape)).collect();
        assert_eq!(complete.len(), 1);
        assert_eq!(complete[0].inputs.len(), 2);
        assert_eq!(
            (work.partials_in, work.candidates, work.extensions),
            (1, 1, 1)
        );
        let _ = ep;
    }

    #[test]
    fn check_kills_partial() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        // f(2, -3) binds Z = -3, failing Z > 0: the extension dies, the
        // original survives.
        let mut db = Fragments::default();
        let (fp, ft) = fact("f(2, -3)");
        db.relation_or_insert(fp).insert(ft, stored(3, tid(4, 3)));
        let c = ctx(&prog, &db, 10);
        let mut work = ProbeWork::default();
        let out = process_partials(&c, rule, &shape, vec![seed], None, EVERY, &mut work);
        assert_eq!(out.len(), 1);
        assert!(!out[0].is_complete(&shape));
    }

    #[test]
    fn negation_kills_at_any_node() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        let mut db = Fragments::default();
        let (fp, ft) = fact("f(2, 9)");
        let (bp, bt) = fact("bad(9)");
        db.relation_or_insert(fp).insert(ft, stored(3, tid(4, 3)));
        db.relation_or_insert(bp).insert(bt, stored(2, tid(5, 2)));
        let c = ctx(&prog, &db, 10);
        let mut work = ProbeWork::default();
        let out = process_partials(&c, rule, &shape, vec![seed], None, EVERY, &mut work);
        // The completed extension (Z = 9) is killed by bad(9); only the
        // incomplete original survives.
        assert_eq!(out.len(), 1);
        assert!(!out[0].is_complete(&shape));
    }

    #[test]
    fn tombstoned_negation_stops_killing_after_del_ts() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        let mut db = Fragments::default();
        let (fp, ft) = fact("f(2, 9)");
        let (bp, bt) = fact("bad(9)");
        db.relation_or_insert(fp).insert(ft, stored(3, tid(4, 3)));
        db.relation_or_insert(bp)
            .insert(bt.clone(), stored(2, tid(5, 2)));
        tombstone(db.relation_mut(bp).unwrap(), &bt, 8);
        let completed = |tau| {
            let c = ctx(&prog, &db, tau);
            let mut work = ProbeWork::default();
            process_partials(&c, rule, &shape, vec![seed.clone()], None, EVERY, &mut work)
                .iter()
                .filter(|p| p.is_complete(&shape))
                .count()
        };
        // A probe from before the deletion still sees bad(9) and is killed;
        // one from after it is not.
        assert_eq!(completed(5), 0);
        assert_eq!(completed(10), 1);
    }

    #[test]
    fn visibility_respected() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        // Fragment generated *after* the probe's tau is invisible.
        let mut db = Fragments::default();
        let (fp, ft) = fact("f(2, 9)");
        db.relation_or_insert(fp).insert(ft, stored(50, tid(4, 50)));
        let c = ctx(&prog, &db, 10);
        let mut work = ProbeWork::default();
        let out = process_partials(&c, rule, &shape, vec![seed], None, EVERY, &mut work);
        assert_eq!(out.len(), 1); // no extension
    }

    #[test]
    fn pinned_negation_seeds_without_input() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let (_, bt) = fact("bad(9)");
        let seed = seed_partial(&prog, rule, 3, true, &bt, tid(7, 8)).unwrap();
        assert!(seed.inputs.is_empty());
        assert!(seed.is_bound(3));
        // Z is bound to 9 by the pin.
        assert_eq!(
            seed.bindings.get(Symbol::intern("Z")),
            Some(intern::intern_int(9))
        );
    }

    #[test]
    fn the_pass_mask_limits_extension() {
        let prog = prog();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, et) = fact("e(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &et, tid(0, 5)).unwrap();
        let mut db = Fragments::default();
        let (fp, ft) = fact("f(2, 9)");
        db.relation_or_insert(fp).insert(ft, stored(3, tid(4, 3)));
        let c = ctx(&prog, &db, 10);
        // A pass of literal 0 (already bound) blocks the f-extension; a
        // pass of literal 1 makes it.
        for (extend, survivors) in [(1 << 0, 1), (1 << 1, 2)] {
            let mut work = ProbeWork::default();
            let out = process_partials(
                &c,
                rule,
                &shape,
                vec![seed.clone()],
                None,
                extend,
                &mut work,
            );
            assert_eq!(out.len(), survivors);
        }
    }

    #[test]
    fn self_join_subsets_within_node() {
        // r(X, Z) :- e(X, Y), e(Y, Z): one node holding e(2,3) and e(3,4)
        // must produce all subset partials from a pin on e(1,2).
        let prog = compile_source(
            "r(X, Z) :- s(X, Y), t(Y, Z).",
            BuiltinRegistry::standard(),
            PlanTiming,
        )
        .unwrap();
        let rule = &prog.analysis.program.rules[0];
        let shape = RuleShape::of(rule);
        let (_, st) = fact("s(1, 2)");
        let seed = seed_partial(&prog, rule, 0, false, &st, tid(0, 5)).unwrap();
        let mut db = Fragments::default();
        let (tp, t1) = fact("t(2, 7)");
        let (_, t2) = fact("t(2, 8)");
        db.relation_or_insert(tp).insert(t1, stored(1, tid(9, 1)));
        db.relation_or_insert(tp).insert(t2, stored(1, tid(9, 1)));
        let c = ctx(&prog, &db, 10);
        let mut work = ProbeWork::default();
        let out = process_partials(&c, rule, &shape, vec![seed], None, EVERY, &mut work);
        // original + two completions
        assert_eq!(out.len(), 3);
        assert_eq!(out.iter().filter(|p| p.is_complete(&shape)).count(), 2);
        assert_eq!(
            (work.partials_in, work.candidates, work.extensions),
            (1, 2, 2)
        );
    }

    /// The candidate definition written out, kept here as the reference:
    /// the id-filtered scan of the whole fragment, then — unless `generous`
    /// — a second descent per match for its metadata and the participation
    /// test, then one more for the id.
    fn scan_then_participates(
        c: &LocalCtx<'_>,
        pred: Symbol,
        key: &BoundKey,
    ) -> Vec<(Tuple, TupleId)> {
        let rel = c.db.relation(pred).unwrap();
        let mut out = Vec::new();
        rel.scan_into(key.cols(), key.ids(), &mut out);
        if !c.generous {
            out.retain(|t| {
                let m = rel.meta(t).unwrap();
                visible_at(m, c.tau, c.prog.windows.get(&pred).copied())
                    && (m.gen_ts < c.tau || m.extra.id <= c.update_id)
            });
        }
        out.into_iter()
            .map(|t| {
                let id = rel.meta(&t).unwrap().extra.id;
                (t, id)
            })
            .collect()
    }

    /// Random fragment stores around a probe at `tau`: generations before
    /// the window, inside it, at `tau` and after it; tombstones before, at
    /// and after `tau`; same-instant ids on both sides of (and equal to)
    /// the update's, and ids whose `ts` is not the stored `gen_ts` (a
    /// refresh replay's). On every signature of a binary atom — unkeyed,
    /// the prefix `[0]`, the non-prefix `[1]`, and `[0, 1]` — the candidate
    /// visit must be the scan-then-filter, row for row, strict and generous.
    #[test]
    fn candidate_visit_equals_scan_then_participates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use sensorlog_logic::Term;

        let prog = compile_source(
            ".window f 30.\n.output q.\nq(X, Z) :- e(X, Y), f(Y, Z).",
            BuiltinRegistry::standard(),
            PlanTiming,
        )
        .unwrap();
        let atom = prog.analysis.program.rules[0].body[1].atom().unwrap();
        let (f, tau) = (atom.pred, 100);
        assert_eq!(prog.windows.get(&f), Some(&30));
        let update_id = TupleId {
            node: NodeId(3),
            ts: tau,
            seq: 1,
        };
        let mut rng = StdRng::seed_from_u64(0xF16);
        let (mut visited, mut dropped) = (0, 0);
        for _ in 0..400 {
            let mut db = Fragments::default();
            db.relation_or_insert(f); // an empty store is a case too
            for _ in 0..rng.gen_range(0..14) {
                let t = Tuple::new(vec![
                    Term::Int(rng.gen_range(0..4)),
                    Term::Int(rng.gen_range(0..4)),
                ]);
                let gen_ts = [40, 70, 71, 99, tau, tau, tau + 1][rng.gen_range(0..7)];
                let id = TupleId {
                    node: NodeId(rng.gen_range(2..5)),
                    ts: if rng.gen_range(0..6) > 0 { gen_ts } else { 40 },
                    seq: rng.gen_range(0..3),
                };
                db.relation_or_insert(f)
                    .insert(t.clone(), stored(gen_ts, id));
                if let Some(del) =
                    [None, None, Some(tau - 1), Some(tau), Some(tau + 5)][rng.gen_range(0..5)]
                {
                    tombstone(db.relation_mut(f).unwrap(), &t, del);
                }
            }
            for generous in [false, true] {
                let c = LocalCtx {
                    generous,
                    update_id,
                    ..ctx(&prog, &db, tau)
                };
                for bind in 0..4 {
                    let mut subst = FlatSubst::new();
                    for (bit, var) in [(1, "Y"), (2, "Z")] {
                        if bind & bit != 0 {
                            subst
                                .bind(Symbol::intern(var), intern::intern_int(rng.gen_range(0..4)));
                        }
                    }
                    let key = bound_key(&prog.reg, atom, &subst);
                    let mut got = Vec::new();
                    c.candidates(f, &key, |t, id| got.push((t.clone(), id)));
                    let want = scan_then_participates(&c, f, &key);
                    assert_eq!(got, want, "generous {generous} cols {:?}", key.cols());
                    visited += got.len();
                    let mut all = Vec::new();
                    db.relation(f)
                        .unwrap()
                        .scan_into(key.cols(), key.ids(), &mut all);
                    dropped += all.len() - got.len();
                }
            }
        }
        // The generator reaches both outcomes, many times over.
        assert!(visited > 1_000 && dropped > 1_000, "{visited} / {dropped}");
    }
}
