//! Gate: the distributed runtime, the engines, the network stack and the
//! provenance walk stay on interned ids.
//!
//! `intern::boundary(..)` marks a scope as legitimately resolving ids back
//! to boxed `Term`s, which is also what keeps the `hot_resolves == 0` gate
//! of the intern smoke quiet. Inside `core`, `eval`, `netstack` and
//! `provenance::dag` the only legitimate reasons are text for people, calls
//! into procedural builtins and a hash defined over printed terms; every
//! call site is listed here, and a new one fails the test until it is
//! either removed or justified in the list.

use std::fs;
use std::path::Path;

/// The source directories scanned whole, besides `provenance::dag`.
const DIRS: &[&str] = &["crates/core/src", "crates/eval/src", "crates/netstack/src"];

/// `(file, the line's trimmed text, why it may resolve)`.
const ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/provenance/src/dag.rs",
        "let witness = intern::boundary(|| witness.to_subst());",
        "diagnostic text: the why-not report renders the failing binding",
    ),
    (
        "crates/eval/src/eval_body.rs",
        "let args: Vec<Term> = intern::boundary(|| intern::resolve_slice(&ids));",
        "procedural builtin predicates take boxed terms by design",
    ),
    (
        "crates/netstack/src/ght.rs",
        "let terms = sensorlog_logic::intern::boundary(|| tuple.terms());",
        "the owner hash is defined over the printed form of the fact",
    ),
];

#[test]
fn boundary_scopes_in_core_eval_netstack_and_dag_are_allow_listed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = vec!["crates/provenance/src/dag.rs".to_string()];
    for dir in DIRS {
        let before = files.len();
        files.extend(
            fs::read_dir(root.join(dir))
                .unwrap_or_else(|e| panic!("{dir} reads: {e}"))
                .map(|e| e.expect("readable dir entry").path())
                .filter(|p| p.extension().is_some_and(|x| x == "rs"))
                .map(|p| format!("{dir}/{}", p.file_name().unwrap().to_string_lossy())),
        );
        assert!(
            files.len() - before >= 5,
            "{dir}: scan found only {files:?}"
        );
    }
    files.sort();

    let mut found: Vec<(String, String)> = Vec::new();
    for file in &files {
        let text = fs::read_to_string(root.join(file)).expect("source file reads");
        for line in text.lines() {
            let code = line.trim();
            if code.contains("boundary(") && !code.starts_with("//") {
                found.push((file.clone(), code.to_string()));
            }
        }
    }
    let unlisted: Vec<String> = (found.iter())
        .filter(|(file, code)| !ALLOWED.iter().any(|(f, c, _)| f == file && c == code))
        .map(|(file, code)| format!("{file}: `{code}`"))
        .collect();
    assert!(
        unlisted.is_empty(),
        "these scopes resolve interned ids; keep the code on `ConstId`s or add \
         each site to ALLOWED with its reason:\n{}",
        unlisted.join("\n")
    );
    for (file, code, why) in ALLOWED {
        assert!(
            found.iter().any(|(f, c)| f == file && c == code),
            "stale allow-list entry ({why}): {file}: `{code}`"
        );
    }
}
