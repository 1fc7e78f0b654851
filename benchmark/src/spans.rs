//! The benchmark's own span recorder (choosing-metrics §4): spans are
//! opened from the benchmark's files around each call it makes into the
//! program, kept in memory, and written out when the run ends. No span is
//! added to the program.

use crate::clock::{Elapsed, Tick};
use crate::json::Value;

pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    start_ns: u64,
    pub elapsed: Elapsed,
}

pub struct Spans {
    origin: Tick,
    recs: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Tick::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of the innermost open one.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            start_ns: (self.origin.elapsed().wall_s * 1e9) as u64,
            elapsed: Elapsed::default(),
        });
        self.open.push(id);
        let tick = Tick::now();
        let out = f(self);
        self.recs[id].elapsed = tick.elapsed();
        self.open.pop();
        out
    }

    /// Elapsed time of the first span called `name` (zero if none).
    pub fn elapsed(&self, name: &str) -> Elapsed {
        self.recs
            .iter()
            .find(|r| r.name == name)
            .map_or_else(Elapsed::default, |r| r.elapsed)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.recs
                .iter()
                .enumerate()
                .map(|(id, r)| {
                    Value::obj()
                        .with("id", id)
                        .with("parent", r.parent.map_or(Value::Null, Value::from))
                        .with("name", r.name)
                        .with("start_ns", r.start_ns)
                        .with("end_ns", r.start_ns + (r.elapsed.wall_s * 1e9) as u64)
                        .with("cpu_ns", (r.elapsed.cpu_s * 1e9) as u64)
                })
                .collect(),
        )
    }
}
