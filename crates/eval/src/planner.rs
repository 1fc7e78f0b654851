//! Static probe planning: which index signature each body literal probes.
//!
//! [`order_literals`] fixes the literal evaluation order; [`probe_plan`]
//! replays that order *statically*, tracking which variables are bound at
//! each step, and derives for every positive literal the set of argument
//! positions that will be ground when the literal is probed — its
//! **bound-position signature**. The signature is what [`Relation::select`]
//! keys its persistent indexes on, so planning and probing agree by
//! construction: the dynamic ground-column set computed per substitution is
//! exactly the static bound set whenever the rule is safe (matching a
//! positive atom binds all of its variables; seeds and pins bind theirs).
//!
//! [`program_signatures`] enumerates the signatures a program can probe —
//! every [`rule_signatures`] variant of every rule: the unpinned order, each
//! pinned variant the semi-naive and incremental engines use, and for the
//! staged rules of an XY component the order seeded with the stage variable
//! that `Engine::eval_xy` runs — so engines register them all up front and
//! every probe lands on a maintained index instead of a scan. The one seed
//! not modeled is the incremental engine's aggregate group key; such a
//! signature is promoted on use.
//!
//! [`order_literals`]: sensorlog_logic::boundness::order_literals
//! [`probe_plan`]: sensorlog_logic::boundness::probe_plan
//! [`Relation::select`]: crate::relation::Relation::select

use sensorlog_logic::analyze::Analysis;
use sensorlog_logic::ast::Literal;
use sensorlog_logic::boundness::rule_signatures;
use sensorlog_logic::Symbol;
use std::collections::{BTreeMap, BTreeSet};

/// Every probe signature the engines can hit for the analyzed program: the
/// non-empty probe column sets of positive literals across the
/// [`rule_signatures`] of every rule.
pub fn program_signatures(analysis: &Analysis) -> BTreeMap<Symbol, BTreeSet<Vec<usize>>> {
    let mut out: BTreeMap<Symbol, BTreeSet<Vec<usize>>> = BTreeMap::new();
    for rule in &analysis.program.rules {
        for sig in rule_signatures(rule, &analysis.xy) {
            for (lit, cols) in rule.body.iter().zip(sig.plan) {
                if let Literal::Pos(a) = lit {
                    if !cols.is_empty() {
                        out.entry(a.pred).or_default().insert(cols);
                    }
                }
            }
        }
    }
    out
}

/// Register every signature from [`program_signatures`] on `db`, so probes
/// land on maintained indexes from the first iteration. Registration is
/// policy, not data — it survives [`crate::relation::Relation::clone`].
pub fn register_program_indexes(db: &mut crate::relation::Database, analysis: &Analysis) {
    for (pred, sigs) in program_signatures(analysis) {
        for cols in sigs {
            db.register_index(pred, &cols);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::builtin::BuiltinRegistry;
    use sensorlog_logic::{analyze, parse_program};

    #[test]
    fn program_signatures_cover_pinned_variants() {
        let prog = parse_program("t(X, Y) :- e(X, Y).\nt(X, Y) :- t(X, Z), e(Z, Y).").unwrap();
        let analysis = analyze(&prog, &BuiltinRegistry::standard()).unwrap();
        let sigs = program_signatures(&analysis);
        let e = sigs.get(&Symbol::intern("e")).unwrap();
        // Unpinned: e probed on Z (col 0). Pinned on e: t probed on Z.
        assert!(e.contains(&vec![0]));
        let t = sigs.get(&Symbol::intern("t")).unwrap();
        assert!(t.contains(&vec![1]), "t probed on Z when e is the delta");
    }
}
