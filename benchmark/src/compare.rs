//! `--compare A.json B.json`: one verdict per (workload, end-to-end metric)
//! between two `results.json` files, A the baseline and B the candidate.
//!
//! * `same` — B is within the metric's bound of A;
//! * `better` / `worse` — outside the bound, and the two sides'
//!   repetitions (lower quartile to upper quartile) do not overlap;
//! * `unresolved` — outside the bound but the repetition ranges overlap,
//!   so the difference cannot be told from the host's noise.
//!
//! The network costs (`net.*`) are deterministic counts and are compared
//! exactly: any increase is `worse`.

use crate::json::Value;
use crate::metrics::{END_TO_END, NET_COST};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload<'a>(results: &'a Value, name: &str) -> Option<&'a Value> {
    results
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn verdict(a: &Value, b: &Value, bound: f64) -> &'static str {
    let (va, vb) = (a.num("value"), b.num("value"));
    if (vb - va).abs() <= bound * va {
        return "same";
    }
    // A metric without repetitions (a count, a heap size) has no q3.
    let hi = |v: &Value| {
        v.get("q3")
            .and_then(Value::as_f64)
            .unwrap_or(v.num("value"))
    };
    let overlap = va <= hi(b) && vb <= hi(a);
    match (overlap, vb < va) {
        (true, _) => "unresolved",
        (false, true) => "better",
        (false, false) => "worse",
    }
}

/// Returns `Ok(false)` when any verdict is `worse`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for wa in a.get("workloads").and_then(Value::as_arr).unwrap_or(&[]) {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workload(&b, name) else {
            println!("{name:<16} missing from {b_path}");
            ok = false;
            continue;
        };
        let mut row = |metric: &str, ma: &Value, mb: &Value, bound: f64| {
            let (va, vb) = (ma.num("value"), mb.num("value"));
            let v = verdict(ma, mb, bound);
            ok &= v != "worse";
            println!(
                "{name:<16} {metric:<24} {va:>16.6} {vb:>16.6} {:>+8.2}%  {v}",
                if va != 0.0 {
                    (vb - va) / va * 100.0
                } else {
                    0.0
                }
            );
        };
        for e in END_TO_END {
            match (
                wa.get("end_to_end").and_then(|m| m.get(e.name)),
                wb.get("end_to_end").and_then(|m| m.get(e.name)),
            ) {
                (Some(ma), Some(mb)) => row(e.name, ma, mb, e.bound),
                _ => println!("{name:<16} {:<24} missing on one side", e.name),
            }
        }
        for &metric in NET_COST {
            if let (Some(ma), Some(mb)) = (
                wa.get("per_layer").and_then(|m| m.get(metric)),
                wb.get("per_layer").and_then(|m| m.get(metric)),
            ) {
                // Zero on both sides: the workload has no network.
                if ma.num("value") != 0.0 || mb.num("value") != 0.0 {
                    row(metric, ma, mb, 0.0);
                }
            }
        }
    }
    Ok(ok)
}
