//! The bench harness's own contracts.
//!
//! The parallel experiment driver must be observationally identical to the
//! serial one: each case is an independent deterministic single-threaded
//! simulation, and `run_cases_with` merges results in spec order — so a
//! table built from a 4-thread run renders byte-identical to the 1-thread
//! reference. And the `bench` binary's report plumbing must be able to
//! fail: a mismatched gate reaches the exit path by name, the one JSON
//! writer emits strict JSON, the exponent fit is a fit, and `ci.sh` runs
//! every case the binary lists.

use sensorlog_bench::common::{fit_exponent, join_workload, run_cases_with, CaseSpec, JOIN2};
use sensorlog_bench::report::{failed_gates, to_json, Report};
use sensorlog_bench::{row, Table};
use sensorlog_core::{PassMode, Strategy};
use sensorlog_logic::Symbol;
use sensorlog_netsim::{SimConfig, Topology};

fn small_sweep() -> Vec<CaseSpec> {
    let mut specs = Vec::new();
    for (i, &(m, loss)) in [(4u32, 0.0f64), (4, 0.1), (5, 0.0), (5, 0.1)]
        .iter()
        .enumerate()
    {
        let topo = Topology::square_grid(m);
        let events = join_workload(&topo, &["r1", "r2"], 16, 5 + i as u64);
        specs.push(CaseSpec {
            src: JOIN2.to_string(),
            topo,
            strategy: Strategy::Perpendicular { band_width: 1.0 },
            pass_mode: PassMode::OnePass,
            sim: SimConfig {
                loss_prob: loss,
                seed: 17,
                ..SimConfig::default()
            },
            spatial_radius: None,
            events,
            output: Symbol::intern("q"),
            horizon: 30_000_000,
        });
    }
    specs
}

fn render(points: &[sensorlog_bench::common::RunPoint]) -> String {
    let mut t = Table::new(
        "par",
        "parallel-driver equivalence probe",
        &["tx", "bytes", "maxload", "compl", "events", "depth"],
    );
    for p in points {
        t.row(vec![
            p.total_tx.to_string(),
            p.total_bytes.to_string(),
            p.max_node_load.to_string(),
            format!("{:.4}", p.completeness),
            p.trace.delivers.to_string(),
            p.max_queue_depth.to_string(),
        ]);
    }
    t.to_string()
}

#[test]
fn parallel_table_is_byte_identical_to_serial() {
    let specs = small_sweep();
    let serial = render(&run_cases_with(&specs, 1));
    let parallel = render(&run_cases_with(&specs, 4));
    assert_eq!(
        serial, parallel,
        "worker-thread scheduling leaked into experiment results"
    );
}

#[test]
fn single_spec_roundtrip() {
    let specs = small_sweep();
    let one = run_cases_with(&specs[..1], 8);
    assert_eq!(one.len(), 1);
    assert_eq!(one[0].total_tx, specs[0].run().total_tx);
}

#[test]
fn mismatched_pin_fails_the_exit_path_by_name() {
    let mut ok = Report::new("grid4k", true);
    ok.gate("heap_journal_pin", "454242ed8c28a208", "454242ed8c28a208");
    assert!(failed_gates(std::slice::from_ref(&ok)).is_empty());

    let mut drifted = Report::new("prov", true);
    drifted.gate("records_when_disabled", 0, 0);
    drifted.gate("journal_pin", "3c1ec08c6289dba4", "3c1ec08c6289dba5");
    let failed = failed_gates(&[ok, drifted]);
    assert_eq!(failed.len(), 1, "{failed:?}");
    assert!(failed[0].starts_with("prov.journal_pin:"), "{failed:?}");
    assert!(failed[0].contains("3c1ec08c6289dba5"), "{failed:?}");
}

/// A strict JSON reader for the test below: no trailing commas, no bare
/// control characters, nothing after the value. Objects keep key order.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a>(std::iter::Peekable<std::str::Chars<'a>>);

impl Parser<'_> {
    fn ws(&mut self) {
        while self.0.next_if(|c| " \n\r\t".contains(*c)).is_some() {}
    }

    fn eat(&mut self, want: char) {
        assert_eq!(self.0.next(), Some(want));
    }

    /// Comma-separated items up to `close`; a trailing comma is an error.
    fn seq<T>(&mut self, close: char, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut out = Vec::new();
        self.ws();
        if self.0.next_if_eq(&close).is_some() {
            return out;
        }
        loop {
            self.ws();
            out.push(item(self));
            self.ws();
            match self.0.next() {
                Some(',') => continue,
                Some(c) if c == close => return out,
                other => panic!("expected `,` or `{close}`, got {other:?}"),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat('"');
        let mut out = String::new();
        loop {
            match self.0.next().expect("unterminated string") {
                '"' => return out,
                '\\' => match self.0.next().expect("dangling escape") {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex: String = (0..4).map(|_| self.0.next().unwrap()).collect();
                        let code = u32::from_str_radix(&hex, 16).expect("\\u hex");
                        out.push(char::from_u32(code).expect("scalar value"));
                    }
                    c @ ('"' | '\\' | '/') => out.push(c),
                    c => panic!("bad escape \\{c}"),
                },
                c if (c as u32) < 0x20 => panic!("bare control character {c:?} in string"),
                c => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match *self.0.peek().expect("value") {
            '{' => {
                self.eat('{');
                Json::Obj(self.seq('}', |p| {
                    let key = p.string();
                    p.ws();
                    p.eat(':');
                    (key, p.value())
                }))
            }
            '[' => {
                self.eat('[');
                Json::Arr(self.seq(']', Self::value))
            }
            '"' => Json::Str(self.string()),
            _ => {
                let mut word = String::new();
                while let Some(c) = self
                    .0
                    .next_if(|c| c.is_ascii_alphanumeric() || "+-.".contains(*c))
                {
                    word.push(c);
                }
                match word.as_str() {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad literal {n}"))),
                }
            }
        }
    }
}

fn parse_json(text: &str) -> Json {
    let mut p = Parser(text.chars().peekable());
    let v = p.value();
    p.ws();
    assert_eq!(p.0.next(), None, "trailing input");
    v
}

#[test]
fn report_json_round_trips_through_a_strict_parser() {
    let nasty = "h(\"a\\b\",\n\t\u{1}é)";
    let mut r = Report::new("case \"one\"", true);
    r.row(row!["zeta" => 7u64, "alpha" => 0.12345, "tuple" => nasty, "none" => None::<u64>]);
    r.row(row!["nan" => f64::NAN, "flag" => true]);
    r.gate("pin", nasty, "other");
    let empty = Report::new("empty", false);
    let text = to_json(&[r, empty]);

    let Json::Arr(reports) = parse_json(&text) else {
        panic!("top level is an array")
    };
    assert_eq!(reports.len(), 2);
    let Json::Obj(fields) = &reports[0] else {
        panic!("report is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["host", "case", "quick", "rows", "gates"]);
    assert_eq!(fields[1].1, Json::Str("case \"one\"".into()));
    assert_eq!(fields[2].1, Json::Bool(true));
    let str_of = |s: &str| Json::Str(s.to_string());
    assert_eq!(
        fields[3].1,
        Json::Arr(vec![
            Json::Obj(vec![
                ("zeta".into(), Json::Num(7.0)),
                ("alpha".into(), Json::Num(0.123)),
                ("tuple".into(), str_of(nasty)),
                ("none".into(), Json::Null),
            ]),
            Json::Obj(vec![
                ("nan".into(), Json::Null),
                ("flag".into(), Json::Bool(true)),
            ]),
        ]),
        "row keys keep insertion order, strings survive escaping"
    );
    assert_eq!(
        fields[4].1,
        Json::Arr(vec![Json::Obj(vec![
            ("name".into(), str_of("pin")),
            ("want".into(), str_of(nasty)),
            ("got".into(), str_of("other")),
            ("ok".into(), Json::Bool(false)),
        ])])
    );
    let Json::Obj(empty) = &reports[1] else {
        panic!("report is an object")
    };
    assert_eq!(empty[3].1, Json::Arr(vec![]));
    assert_eq!(empty[4].1, Json::Arr(vec![]));
}

#[test]
fn exponent_fit_recovers_a_cubic() {
    let cubic: Vec<(f64, f64)> = [50.0f64, 98.0, 200.0, 450.0]
        .iter()
        .map(|&n| (n, 2.0 * n.powi(3)))
        .collect();
    assert!((fit_exponent(&cubic) - 3.0).abs() < 1e-9);
    // Not an interpolation of the end points: one noisy middle point moves it.
    let mut bent = cubic.clone();
    bent[1].1 *= 4.0;
    assert!((fit_exponent(&bent) - 3.0).abs() > 0.05);
}

#[test]
fn ci_runs_every_case_the_binary_lists() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench"))
        .arg("--list")
        .output()
        .expect("bench --list runs");
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8");
    let listed: Vec<&str> = listed.lines().collect();

    let ci = include_str!("../../../ci.sh");
    let line = ci
        .lines()
        .find_map(|l| l.trim().strip_prefix("bench_cases=\""))
        .expect("ci.sh declares bench_cases=\"…\"");
    let in_ci: Vec<&str> = line.trim_end_matches('"').split_whitespace().collect();
    assert_eq!(
        listed, in_ci,
        "ci.sh's bench_cases and `bench --list` differ"
    );
}
