//! # sensorlog-logic
//!
//! Language frontend of the *sensorlog* deductive framework for programming
//! sensor networks (reproduction of Gupta, Zhu & Xu, ICDE 2009).
//!
//! The framework uses full first-order logic: Datalog extended with function
//! symbols in predicate arguments (Turing complete), restricted negation,
//! and head aggregates (Sec. II-B of the paper). This crate provides:
//!
//! * [`term`] / [`ast`] — terms with function symbols & list sugar, rules,
//!   programs with `.window`/`.output`/`.base`/`.stage` directives;
//! * [`parser`] — the concrete syntax;
//! * [`unify`] — substitutions and matching (the term-matching operator);
//! * [`builtin`] — procedural built-in predicates and functions;
//! * [`safety`] — rule safety (footnote 3);
//! * [`depgraph`] / [`stratify`] — dependency graph and stratification;
//! * [`xy`] — XY-stratification (Sec. IV-C);
//! * [`magic`] — magic-set transformation (Sec. V);
//! * [`mod@analyze`] — one-shot validation + classification.
//!
//! ## Quick example
//!
//! ```
//! use sensorlog_logic::parser::parse_program;
//! use sensorlog_logic::builtin::BuiltinRegistry;
//! use sensorlog_logic::analyze::{analyze, ProgramClass};
//!
//! let prog = parse_program(r#"
//!     .window veh 30000.
//!     .output uncov.
//!     cov(L1, T) :- veh("enemy", L1, T), veh("friendly", L2, T),
//!                   dist(L1, L2) <= 50.
//!     uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
//! "#).unwrap();
//! let analysis = analyze(&prog, &BuiltinRegistry::standard()).unwrap();
//! assert_eq!(analysis.class, ProgramClass::NonRecursive);
//! ```

#![forbid(unsafe_code)]

pub mod absint;
pub mod analyze;
pub mod ast;
pub mod boundness;
pub mod builtin;
pub mod depgraph;
pub mod diag;
pub mod flat;
pub mod intern;
pub mod lexer;
pub mod magic;
mod pages;
pub mod parser;
pub mod safety;
pub mod span;
pub mod stratify;
pub mod symbol;
pub mod term;
pub mod unify;
pub mod xy;

pub use analyze::{analyze, Analysis, AnalyzeError, ProgramClass};
pub use ast::{AggFunc, AggSpec, Atom, CmpOp, Literal, Program, Rule};
pub use builtin::{BuiltinError, BuiltinRegistry};
pub use flat::FlatSubst;
pub use intern::ConstId;
pub use parser::{parse_fact, parse_facts, parse_program, parse_rule, parse_term, ParseError};
pub use span::{RuleSpans, Span};
pub use symbol::Symbol;
pub use term::{Term, Tuple};
