//! The one bench artifact schema. Every case of the `bench` binary fills a
//! [`Report`] — measured rows plus named gates — and [`to_json`] is the only
//! writer, so `BENCH.json` and every `--out` file share one shape:
//!
//! ```text
//! [{"host": {"cores", "os", "arch"}, "case", "quick",
//!   "rows":  [{<key>: <number | string | null>, ...}, ...],
//!   "gates": [{"name", "want", "got", "ok"}, ...]}, ...]
//! ```

use std::fmt::Write as _;

/// One scalar cell of a report row.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    U(u64),
    /// Written with three decimals; non-finite values become `null`.
    F(f64),
    S(String),
    B(bool),
    Null,
}

impl From<u64> for Val {
    fn from(v: u64) -> Val {
        Val::U(v)
    }
}
impl From<usize> for Val {
    fn from(v: usize) -> Val {
        Val::U(v as u64)
    }
}
impl From<f64> for Val {
    fn from(v: f64) -> Val {
        Val::F(v)
    }
}
impl From<bool> for Val {
    fn from(v: bool) -> Val {
        Val::B(v)
    }
}
impl From<&str> for Val {
    fn from(v: &str) -> Val {
        Val::S(v.to_string())
    }
}
impl From<String> for Val {
    fn from(v: String) -> Val {
        Val::S(v)
    }
}
impl<T: Into<Val>> From<Option<T>> for Val {
    fn from(v: Option<T>) -> Val {
        v.map_or(Val::Null, Into::into)
    }
}

/// Ordered `key: value` cells; keys are written in insertion order.
pub type Row = Vec<(&'static str, Val)>;

/// `row!["nodes" => n, "backend" => "heap"]` — a [`Row`] literal.
#[macro_export]
macro_rules! row {
    ($($key:literal => $val:expr),* $(,)?) => {
        vec![$(($key, $crate::report::Val::from($val))),*]
    };
}

/// A named check a case must pass: `bench` exits non-zero unless
/// `want == got`. Gates compare counts and hashes; timings are rows.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: String,
    pub want: String,
    pub got: String,
}

/// The machine a report was measured on.
#[derive(Clone, Debug)]
pub struct Host {
    pub cores: usize,
    pub os: &'static str,
    pub arch: &'static str,
}

/// One case's artifact.
#[derive(Clone, Debug)]
pub struct Report {
    pub host: Host,
    pub case: String,
    pub quick: bool,
    pub rows: Vec<Row>,
    pub gates: Vec<Gate>,
}

impl Report {
    pub fn new(case: &str, quick: bool) -> Report {
        Report {
            host: Host {
                cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
                os: std::env::consts::OS,
                arch: std::env::consts::ARCH,
            },
            case: case.to_string(),
            quick,
            rows: Vec::new(),
            gates: Vec::new(),
        }
    }

    pub fn row(&mut self, row: Row) {
        self.rows.push(row);
    }

    pub fn gate(&mut self, name: &str, want: impl ToString, got: impl ToString) {
        self.gates.push(Gate {
            name: name.to_string(),
            want: want.to_string(),
            got: got.to_string(),
        });
    }
}

/// `case.gate: want …, got …` for every gate that does not hold — the
/// driver's exit path: non-empty means a non-zero exit.
pub fn failed_gates(reports: &[Report]) -> Vec<String> {
    let mut failed = Vec::new();
    for r in reports {
        for g in r.gates.iter().filter(|g| g.want != g.got) {
            failed.push(format!(
                "{}.{}: want {}, got {}",
                r.case, g.name, g.want, g.got
            ));
        }
    }
    failed
}

fn json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_row(row: &[(&'static str, Val)], out: &mut String) {
    out.push('{');
    for (i, (key, val)) in row.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_str(key, out);
        out.push_str(": ");
        let _ = match val {
            Val::U(v) => write!(out, "{v}"),
            Val::B(v) => write!(out, "{v}"),
            Val::F(v) if v.is_finite() => write!(out, "{v:.3}"),
            Val::S(v) => {
                json_str(v, out);
                Ok(())
            }
            Val::F(_) | Val::Null => write!(out, "null"),
        };
    }
    out.push('}');
}

fn json_rows(key: &str, rows: &[Row], out: &mut String) {
    let _ = write!(out, " \"{key}\": [");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        json_row(row, out);
    }
    out.push_str("\n ]");
}

/// The reports as one JSON array, one row or gate per line.
pub fn to_json(reports: &[Report]) -> String {
    let mut s = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        s.push_str(if i == 0 {
            "\n{\"host\": "
        } else {
            ",\n{\"host\": "
        });
        let h = &r.host;
        let host: Row = row!["cores" => h.cores, "os" => h.os, "arch" => h.arch];
        json_row(&host, &mut s);
        s.push_str(", \"case\": ");
        json_str(&r.case, &mut s);
        let _ = writeln!(s, ", \"quick\": {},", r.quick);
        json_rows("rows", &r.rows, &mut s);
        s.push_str(",\n");
        let gates: Vec<Row> = r
            .gates
            .iter()
            .map(|g| {
                let (name, want, got) = (g.name.as_str(), g.want.as_str(), g.got.as_str());
                row!["name" => name, "want" => want, "got" => got, "ok" => want == got]
            })
            .collect();
        json_rows("gates", &gates, &mut s);
        s.push('}');
    }
    s.push_str("\n]\n");
    s
}
