//! Owner placement as a table: every program the repo ships or benches —
//! each `examples/programs/*.dl` and the bench's tree and join programs —
//! against the predicates `logic::xy::locate` gives an owner column, and
//! which. Only the tree programs' recursive components join a single
//! binary link relation, so only `h`, `hp`, `j` and `jp` leave the
//! geographic hash; a new example program fails here until its row is
//! written down.

use sensorlog_bench::common::{JOIN2, LOGIC_H, LOGIC_J};
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{analyze, parse_program, xy};
use std::collections::BTreeMap;

fn placed(src: &str) -> BTreeMap<String, usize> {
    let prog = parse_program(src).expect("program parses");
    let analysis = analyze(&prog, &BuiltinRegistry::standard()).expect("program analyzes");
    (xy::locate(&analysis.program, &analysis.xy).into_iter())
        .filter_map(|(p, place)| Some((p.as_str().to_string(), place.owner?)))
        .collect()
}

fn at(cols: &[(&str, usize)]) -> BTreeMap<String, usize> {
    cols.iter().map(|&(p, c)| (p.to_string(), c)).collect()
}

#[test]
fn only_the_tree_programs_place_their_heads() {
    let tree_h = at(&[("h", 1), ("hp", 0)]);
    let tree_j = at(&[("j", 0), ("jp", 0)]);
    let table: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::from([
        ("aggregate.dl", at(&[])),
        ("battlefield.dl", at(&[])),
        ("join.dl", at(&[])),
        ("logicj.dl", tree_j.clone()),
        ("mirror.dl", at(&[])),
        ("sptree.dl", tree_h.clone()),
    ]);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(dir).expect("examples/programs") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|e| e == "dl") {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            let src = std::fs::read_to_string(&path).expect("readable program");
            let want = table.get(name.as_str()).unwrap_or_else(|| {
                panic!("{name}: no row in the placement table; add what it places")
            });
            assert_eq!(&placed(&src), want, "{name}");
            seen.push(name);
        }
    }
    seen.sort();
    assert_eq!(seen, table.keys().copied().collect::<Vec<_>>());

    for (label, src, want) in [
        ("bench logicH", LOGIC_H, tree_h),
        ("bench logicJ", LOGIC_J, tree_j),
        ("bench join2", JOIN2, at(&[])),
    ] {
        assert_eq!(placed(src), want, "{label}");
    }
}
