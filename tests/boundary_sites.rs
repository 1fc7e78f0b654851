//! Gate: the distributed runtime and the provenance walk stay on interned
//! ids.
//!
//! `intern::boundary(..)` marks a scope as legitimately resolving ids back
//! to boxed `Term`s, which is also what keeps the `hot_resolves == 0` gate
//! of the intern smoke quiet. Inside `core` and `provenance::dag` the only
//! legitimate reasons are text for people and calls into procedural
//! builtins; every call site is listed here, and a new one fails the test
//! until it is either removed or justified in the list.

use std::fs;
use std::path::Path;

/// `(file, the line's trimmed text, why it may resolve)`.
const ALLOWED: &[(&str, &str, &str)] = &[(
    "crates/provenance/src/dag.rs",
    "let witness = intern::boundary(|| witness.to_subst());",
    "diagnostic text: the why-not report renders the failing binding",
)];

#[test]
fn boundary_scopes_in_core_and_dag_are_allow_listed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<String> = fs::read_dir(root.join("crates/core/src"))
        .expect("crates/core/src exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| {
            format!(
                "crates/core/src/{}",
                p.file_name().unwrap().to_string_lossy()
            )
        })
        .collect();
    files.push("crates/provenance/src/dag.rs".to_string());
    files.sort();
    assert!(files.len() > 10, "scan found only {files:?}");

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
    for (file, code) in &found {
        assert!(
            ALLOWED.iter().any(|(f, c, _)| f == file && c == code),
            "{file}: `{code}` resolves interned ids; keep the code on `ConstId`s \
             or add the site to ALLOWED with its reason"
        );
    }
    for (file, code, why) in ALLOWED {
        assert!(
            found.iter().any(|(f, c)| f == file && c == code),
            "stale allow-list entry ({why}): {file}: `{code}`"
        );
    }
}
