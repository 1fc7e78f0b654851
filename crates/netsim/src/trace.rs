//! Deterministic event tracing: journal, replay check, run summaries.
//!
//! Every simulator event — send attempt, delivery, drop, timer, node
//! failure — can be journaled as a structured [`TraceRecord`] carrying the
//! simulated time and a monotonic trace sequence number. The journal of a
//! seeded run is a complete, canonical transcript: re-running the same
//! configuration must reproduce it byte-for-byte (see
//! [`Journal::to_text`]), which turns "the run is deterministic" from a
//! hope into an assertable property and makes divergence *localizable* —
//! [`ReplayChecker`] pinpoints the first record where a re-run departs
//! from a recorded journal.
//!
//! Tracing is off by default and costs nothing when disabled: the
//! simulator holds an `Option<Box<dyn TraceSink>>` and every emission
//! site is `if let Some(sink) = …` around a closure that *constructs* the
//! record, so a disabled run pays one predictable branch per event and
//! never allocates or formats anything. Benches run with tracing off.

use crate::sim::SimTime;
use crate::topology::NodeId;
use sensorlog_telemetry::jsonl::{escape, field_str, field_u64};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Why a message did not reach its destination.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Lost on the air (Bernoulli link loss) with no retry budget.
    Loss,
    /// Destination node had crashed before delivery.
    DeadNode,
    /// Every ARQ retry was lost (only reported when `retries > 0`).
    Retries,
    /// The link was administratively down (network partition).
    Partition,
}

impl DropReason {
    /// Dense index for per-reason counter arrays.
    pub const COUNT: usize = 4;

    pub fn index(self) -> usize {
        match self {
            DropReason::Loss => 0,
            DropReason::DeadNode => 1,
            DropReason::Retries => 2,
            DropReason::Partition => 3,
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DropReason::Loss => "loss",
            DropReason::DeadNode => "dead",
            DropReason::Retries => "retries",
            DropReason::Partition => "partition",
        })
    }
}

/// One structured simulator event.
///
/// Message payloads are represented by their [`MsgMeta`](crate::MsgMeta)
/// kind and size, not their contents: the trace layer must not require
/// `Msg: Debug` and the (kind, bytes, endpoints, time) tuple is already
/// enough to detect any ordering or scheduling divergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node's `on_start` callback ran.
    Start { node: NodeId },
    /// One transmission attempt (each ARQ retry is its own record).
    Send {
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        bytes: usize,
        attempt: u32,
    },
    /// A message reached its destination's `on_message`.
    Deliver {
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        bytes: usize,
    },
    /// A transmission attempt or scheduled delivery was dropped.
    Drop {
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        reason: DropReason,
    },
    /// A timer fired at `node`.
    Timer { node: NodeId, tag: u64 },
    /// A node was crashed via `fail_node` or a fault schedule.
    NodeFail { node: NodeId },
    /// A crashed node was restarted with fresh application state.
    NodeRestart { node: NodeId },
    /// The bidirectional link `a<->b` went down (partition).
    LinkDown { a: NodeId, b: NodeId },
    /// The bidirectional link `a<->b` came back up.
    LinkUp { a: NodeId, b: NodeId },
    /// Per-link loss probability override, in parts-per-million
    /// (`ppm == u32::MAX` clears the override). Integer so the journal
    /// stays `Eq`/hashable.
    LinkLoss { a: NodeId, b: NodeId, ppm: u32 },
    /// Message-duplication window: until `until`, each delivery is
    /// duplicated with probability `ppm / 1e6`.
    DupWindow { until: SimTime, ppm: u32 },
    /// Reordering window: until `until`, each delivery gets extra uniform
    /// jitter in `[0, jitter)` on top of the hop delay.
    ReorderWindow { until: SimTime, jitter: SimTime },
}

/// A journaled event: monotonic trace sequence number + simulated time +
/// the event itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    pub seq: u64,
    pub at: SimTime,
    pub event: TraceEvent,
}

impl fmt::Display for TraceRecord {
    /// Canonical single-line rendering; [`Journal::to_text`] is the
    /// concatenation of these, so two runs are byte-identical iff their
    /// rendered journals are equal.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08} {:>8} ", self.seq, self.at)?;
        match &self.event {
            TraceEvent::Start { node } => write!(f, "start {node}"),
            TraceEvent::Send {
                from,
                to,
                kind,
                bytes,
                attempt,
            } => write!(f, "send {from}->{to} {kind} {bytes}B try{attempt}"),
            TraceEvent::Deliver {
                from,
                to,
                kind,
                bytes,
            } => write!(f, "deliver {from}->{to} {kind} {bytes}B"),
            TraceEvent::Drop {
                from,
                to,
                kind,
                reason,
            } => write!(f, "drop {from}->{to} {kind} {reason}"),
            TraceEvent::Timer { node, tag } => write!(f, "timer {node} tag={tag}"),
            TraceEvent::NodeFail { node } => write!(f, "fail {node}"),
            TraceEvent::NodeRestart { node } => write!(f, "restart {node}"),
            TraceEvent::LinkDown { a, b } => write!(f, "link-down {a}<->{b}"),
            TraceEvent::LinkUp { a, b } => write!(f, "link-up {a}<->{b}"),
            TraceEvent::LinkLoss { a, b, ppm } => write!(f, "link-loss {a}<->{b} {ppm}ppm"),
            TraceEvent::DupWindow { until, ppm } => write!(f, "dup-window until={until} {ppm}ppm"),
            TraceEvent::ReorderWindow { until, jitter } => {
                write!(f, "reorder-window until={until} jitter={jitter}")
            }
        }
    }
}

/// Receiver of trace records. Implementations must not assume anything
/// about call frequency; the simulator calls `record` once per event in
/// event order.
pub trait TraceSink {
    fn record(&mut self, rec: TraceRecord);
}

/// Discards everything. Attaching this is equivalent to (but costlier
/// than) not attaching a sink at all; it exists for tests and for APIs
/// that want a sink unconditionally.
#[derive(Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn record(&mut self, _rec: TraceRecord) {}
}

/// A recorded run: the seed it was produced under plus every record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Journal {
    /// Simulator RNG seed of the recorded run.
    pub seed: u64,
    pub records: Vec<TraceRecord>,
}

impl Journal {
    /// Canonical textual rendering. Byte-identical across runs iff the
    /// runs produced identical event sequences.
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut s = String::with_capacity(self.records.len() * 48 + 16);
        let _ = writeln!(s, "seed={}", self.seed);
        for r in &self.records {
            let _ = writeln!(s, "{r}");
        }
        s
    }

    /// FNV-1a hash of [`Journal::to_text`] — a compact fingerprint for
    /// logging alongside experiment rows.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_text().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Aggregate counters for experiment tables.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        for r in &self.records {
            s.absorb(r);
        }
        s
    }

    /// First index at which `self` and `other` disagree (record-wise),
    /// or `None` when one is a prefix of the other of equal length.
    pub fn first_divergence(&self, other: &Journal) -> Option<usize> {
        let n = self.records.len().min(other.records.len());
        (0..n)
            .find(|&i| self.records[i] != other.records[i])
            .or_else(|| (self.records.len() != other.records.len()).then_some(n))
    }

    /// Serialize to JSONL: a header object, then one object per record.
    /// The format is stable and hand-parsed by [`Journal::from_jsonl`], so
    /// a journal written by one process replays byte-identically in a
    /// later one.
    pub fn to_jsonl(&self) -> String {
        use fmt::Write;
        let mut s = String::with_capacity(self.records.len() * 72 + 64);
        let _ = writeln!(
            s,
            r#"{{"type":"journal","seed":{},"records":{}}}"#,
            self.seed,
            self.records.len()
        );
        for r in &self.records {
            let _ = write!(s, r#"{{"type":"rec","seq":{},"at":{},"#, r.seq, r.at);
            match &r.event {
                TraceEvent::Start { node } => {
                    let _ = write!(s, r#""ev":"start","node":{}"#, node.0);
                }
                TraceEvent::Send {
                    from,
                    to,
                    kind,
                    bytes,
                    attempt,
                } => {
                    let _ = write!(
                        s,
                        r#""ev":"send","from":{},"to":{},"kind":{},"bytes":{},"attempt":{}"#,
                        from.0,
                        to.0,
                        escape(kind),
                        bytes,
                        attempt
                    );
                }
                TraceEvent::Deliver {
                    from,
                    to,
                    kind,
                    bytes,
                } => {
                    let _ = write!(
                        s,
                        r#""ev":"deliver","from":{},"to":{},"kind":{},"bytes":{}"#,
                        from.0,
                        to.0,
                        escape(kind),
                        bytes
                    );
                }
                TraceEvent::Drop {
                    from,
                    to,
                    kind,
                    reason,
                } => {
                    let _ = write!(
                        s,
                        r#""ev":"drop","from":{},"to":{},"kind":{},"reason":"{reason}""#,
                        from.0,
                        to.0,
                        escape(kind)
                    );
                }
                TraceEvent::Timer { node, tag } => {
                    let _ = write!(s, r#""ev":"timer","node":{},"tag":{}"#, node.0, tag);
                }
                TraceEvent::NodeFail { node } => {
                    let _ = write!(s, r#""ev":"fail","node":{}"#, node.0);
                }
                TraceEvent::NodeRestart { node } => {
                    let _ = write!(s, r#""ev":"restart","node":{}"#, node.0);
                }
                TraceEvent::LinkDown { a, b } => {
                    let _ = write!(s, r#""ev":"linkdown","a":{},"b":{}"#, a.0, b.0);
                }
                TraceEvent::LinkUp { a, b } => {
                    let _ = write!(s, r#""ev":"linkup","a":{},"b":{}"#, a.0, b.0);
                }
                TraceEvent::LinkLoss { a, b, ppm } => {
                    let _ = write!(
                        s,
                        r#""ev":"linkloss","a":{},"b":{},"ppm":{}"#,
                        a.0, b.0, ppm
                    );
                }
                TraceEvent::DupWindow { until, ppm } => {
                    let _ = write!(s, r#""ev":"dupwin","until":{until},"ppm":{ppm}"#);
                }
                TraceEvent::ReorderWindow { until, jitter } => {
                    let _ = write!(s, r#""ev":"reorderwin","until":{until},"jitter":{jitter}"#);
                }
            }
            let _ = writeln!(s, "}}");
        }
        s
    }

    /// Parse a journal previously produced by [`Journal::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Journal, JournalParseError> {
        let err = |line: usize, msg: &str| JournalParseError {
            line: line + 1,
            msg: msg.to_string(),
        };
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (hline, header) = lines.next().ok_or_else(|| err(0, "empty journal file"))?;
        if field_str(header, "type").as_deref() != Some("journal") {
            return Err(err(hline, "first line is not a journal header"));
        }
        let seed = field_u64(header, "seed").ok_or_else(|| err(hline, "header missing seed"))?;
        let declared = field_u64(header, "records")
            .ok_or_else(|| err(hline, "header missing record count"))?;
        // Not sized from the header: its count is checked, not trusted.
        let mut records = Vec::new();
        for (lineno, line) in lines {
            if field_str(line, "type").as_deref() != Some("rec") {
                return Err(err(lineno, "expected a rec object"));
            }
            let seq = field_u64(line, "seq").ok_or_else(|| err(lineno, "missing seq"))?;
            let at = field_u64(line, "at").ok_or_else(|| err(lineno, "missing at"))?;
            let ev = field_str(line, "ev").ok_or_else(|| err(lineno, "missing ev"))?;
            let u32_of = |key: &str| -> Result<u32, JournalParseError> {
                let n =
                    field_u64(line, key).ok_or_else(|| err(lineno, &format!("missing {key}")))?;
                u32::try_from(n).map_err(|_| err(lineno, &format!("{key} {n} out of range")))
            };
            let node_of = |key: &str| u32_of(key).map(NodeId);
            let kind_of = || -> Result<&'static str, JournalParseError> {
                field_str(line, "kind")
                    .map(|k| intern_kind(&k))
                    .ok_or_else(|| err(lineno, "missing kind"))
            };
            let event = match ev.as_str() {
                "start" => TraceEvent::Start {
                    node: node_of("node")?,
                },
                "send" => TraceEvent::Send {
                    from: node_of("from")?,
                    to: node_of("to")?,
                    kind: kind_of()?,
                    bytes: field_u64(line, "bytes").ok_or_else(|| err(lineno, "missing bytes"))?
                        as usize,
                    attempt: u32_of("attempt")?,
                },
                "deliver" => TraceEvent::Deliver {
                    from: node_of("from")?,
                    to: node_of("to")?,
                    kind: kind_of()?,
                    bytes: field_u64(line, "bytes").ok_or_else(|| err(lineno, "missing bytes"))?
                        as usize,
                },
                "drop" => TraceEvent::Drop {
                    from: node_of("from")?,
                    to: node_of("to")?,
                    kind: kind_of()?,
                    reason: match field_str(line, "reason").as_deref() {
                        Some("loss") => DropReason::Loss,
                        Some("dead") => DropReason::DeadNode,
                        Some("retries") => DropReason::Retries,
                        Some("partition") => DropReason::Partition,
                        _ => return Err(err(lineno, "bad drop reason")),
                    },
                },
                "timer" => TraceEvent::Timer {
                    node: node_of("node")?,
                    tag: field_u64(line, "tag").ok_or_else(|| err(lineno, "missing tag"))?,
                },
                "fail" => TraceEvent::NodeFail {
                    node: node_of("node")?,
                },
                "restart" => TraceEvent::NodeRestart {
                    node: node_of("node")?,
                },
                "linkdown" => TraceEvent::LinkDown {
                    a: node_of("a")?,
                    b: node_of("b")?,
                },
                "linkup" => TraceEvent::LinkUp {
                    a: node_of("a")?,
                    b: node_of("b")?,
                },
                "linkloss" => TraceEvent::LinkLoss {
                    a: node_of("a")?,
                    b: node_of("b")?,
                    ppm: u32_of("ppm")?,
                },
                "dupwin" => TraceEvent::DupWindow {
                    until: field_u64(line, "until").ok_or_else(|| err(lineno, "missing until"))?,
                    ppm: u32_of("ppm")?,
                },
                "reorderwin" => TraceEvent::ReorderWindow {
                    until: field_u64(line, "until").ok_or_else(|| err(lineno, "missing until"))?,
                    jitter: field_u64(line, "jitter")
                        .ok_or_else(|| err(lineno, "missing jitter"))?,
                },
                other => return Err(err(lineno, &format!("unknown event {other:?}"))),
            };
            records.push(TraceRecord { seq, at, event });
        }
        if records.len() as u64 != declared {
            return Err(JournalParseError {
                line: 1,
                msg: format!(
                    "header declared {declared} records, file contains {}",
                    records.len()
                ),
            });
        }
        Ok(Journal { seed, records })
    }

    /// Write the JSONL form to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Load a journal from a JSONL file written by [`Journal::save`].
    pub fn load(path: &std::path::Path) -> std::io::Result<Journal> {
        let text = std::fs::read_to_string(path)?;
        Journal::from_jsonl(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// A malformed journal file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalParseError {
    /// 1-based line number.
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "journal parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for JournalParseError {}

/// Re-intern a message kind read from disk (a journal's or a provenance
/// log's). Known kinds map to the workspace's static literals; unseen ones
/// are leaked once and reused (bounded by the number of *distinct* kinds,
/// not records).
pub fn intern_kind(s: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "store", "probe", "result", "centroid", "msg", "ping", "hb", "live",
    ];
    if let Some(&k) = KNOWN.iter().find(|&&k| k == s) {
        return k;
    }
    use std::sync::Mutex;
    static EXTRA: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut extra = EXTRA.lock().expect("kind interner poisoned");
    if let Some(&k) = extra.iter().find(|&&k| k == s) {
        return k;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    extra.push(leaked);
    leaked
}

/// Per-run aggregate of a [`Journal`] — the numbers experiment tables
/// want (message counts by kind, drops, timer volume).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    pub sends: u64,
    pub delivers: u64,
    pub drops_loss: u64,
    pub drops_dead: u64,
    pub drops_retries: u64,
    pub drops_partition: u64,
    pub timers: u64,
    pub node_failures: u64,
    pub node_restarts: u64,
    /// Link-level fault events (down/up/loss-override/dup/reorder).
    pub link_faults: u64,
    pub sends_by_kind: BTreeMap<&'static str, u64>,
}

impl TraceSummary {
    /// Fold one record into the counters.
    pub fn absorb(&mut self, rec: &TraceRecord) {
        match &rec.event {
            TraceEvent::Start { .. } => {}
            TraceEvent::Send { kind, .. } => {
                self.sends += 1;
                *self.sends_by_kind.entry(kind).or_insert(0) += 1;
            }
            TraceEvent::Deliver { .. } => self.delivers += 1,
            TraceEvent::Drop { reason, .. } => match reason {
                DropReason::Loss => self.drops_loss += 1,
                DropReason::DeadNode => self.drops_dead += 1,
                DropReason::Retries => self.drops_retries += 1,
                DropReason::Partition => self.drops_partition += 1,
            },
            TraceEvent::Timer { .. } => self.timers += 1,
            TraceEvent::NodeFail { .. } => self.node_failures += 1,
            TraceEvent::NodeRestart { .. } => self.node_restarts += 1,
            TraceEvent::LinkDown { .. }
            | TraceEvent::LinkUp { .. }
            | TraceEvent::LinkLoss { .. }
            | TraceEvent::DupWindow { .. }
            | TraceEvent::ReorderWindow { .. } => self.link_faults += 1,
        }
    }
}

/// Shared handle to a streaming [`TraceSummary`] — accumulates counters in
/// constant memory, never storing records. The right sink for long
/// experiment runs where only the aggregate matters; use
/// [`SharedJournal`] when the full transcript is needed.
#[derive(Clone, Default)]
pub struct SharedSummary(Rc<RefCell<TraceSummary>>);

impl SharedSummary {
    pub fn new() -> SharedSummary {
        SharedSummary::default()
    }

    /// Snapshot of the counters so far.
    pub fn snapshot(&self) -> TraceSummary {
        self.0.borrow().clone()
    }
}

impl TraceSink for SharedSummary {
    fn record(&mut self, rec: TraceRecord) {
        self.0.borrow_mut().absorb(&rec);
    }
}

/// Shared handle to a [`Journal`] being written. Clone it, hand one clone
/// to the simulator as the sink, keep the other to read the journal after
/// the run (the simulator owns its sink, so a shared cell is the ergonomic
/// way to get the data back out).
#[derive(Clone, Default)]
pub struct SharedJournal(Rc<RefCell<Journal>>);

impl SharedJournal {
    pub fn new(seed: u64) -> SharedJournal {
        SharedJournal(Rc::new(RefCell::new(Journal {
            seed,
            records: Vec::new(),
        })))
    }

    /// Snapshot of the journal so far.
    pub fn snapshot(&self) -> Journal {
        self.0.borrow().clone()
    }

    /// Take the journal out, leaving an empty one behind.
    pub fn take(&self) -> Journal {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl TraceSink for SharedJournal {
    fn record(&mut self, rec: TraceRecord) {
        self.0.borrow_mut().records.push(rec);
    }
}

/// Verifies a re-run against a recorded journal record-by-record. The
/// first mismatch is retained (expected vs actual) rather than panicking,
/// so callers can report it with context; `result()` at the end also
/// catches truncated re-runs.
pub struct ReplayChecker {
    expected: Journal,
    next: usize,
    divergence: Option<ReplayDivergence>,
}

/// The first point where a replay departed from the recorded journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayDivergence {
    pub index: usize,
    /// `None` when the replay produced more records than were recorded.
    pub expected: Option<TraceRecord>,
    /// `None` when the replay ended before the recorded journal did.
    pub actual: Option<TraceRecord>,
}

impl fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "replay diverged at record {}:", self.index)?;
        match &self.expected {
            Some(r) => writeln!(f, "  expected: {r}")?,
            None => writeln!(f, "  expected: <end of journal>")?,
        }
        match &self.actual {
            Some(r) => write!(f, "  actual:   {r}"),
            None => write!(f, "  actual:   <replay ended>"),
        }
    }
}

impl ReplayChecker {
    pub fn new(expected: Journal) -> ReplayChecker {
        ReplayChecker {
            expected,
            next: 0,
            divergence: None,
        }
    }

    /// `Ok(())` when every record matched and the replay covered the whole
    /// journal; otherwise the first divergence.
    pub fn result(&self) -> Result<(), ReplayDivergence> {
        if let Some(d) = &self.divergence {
            return Err(d.clone());
        }
        if self.next < self.expected.records.len() {
            return Err(ReplayDivergence {
                index: self.next,
                expected: Some(self.expected.records[self.next].clone()),
                actual: None,
            });
        }
        Ok(())
    }
}

impl TraceSink for ReplayChecker {
    fn record(&mut self, rec: TraceRecord) {
        if self.divergence.is_some() {
            return; // only the first divergence is interesting
        }
        match self.expected.records.get(self.next) {
            Some(exp) if *exp == rec => self.next += 1,
            Some(exp) => {
                self.divergence = Some(ReplayDivergence {
                    index: self.next,
                    expected: Some(exp.clone()),
                    actual: Some(rec),
                });
            }
            None => {
                self.divergence = Some(ReplayDivergence {
                    index: self.next,
                    expected: None,
                    actual: Some(rec),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, at: SimTime, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, at, event }
    }

    fn sample_journal() -> Journal {
        Journal {
            seed: 7,
            records: vec![
                rec(0, 0, TraceEvent::Start { node: NodeId(0) }),
                rec(
                    1,
                    0,
                    TraceEvent::Send {
                        from: NodeId(0),
                        to: NodeId(1),
                        kind: "ping",
                        bytes: 8,
                        attempt: 0,
                    },
                ),
                rec(
                    2,
                    12,
                    TraceEvent::Deliver {
                        from: NodeId(0),
                        to: NodeId(1),
                        kind: "ping",
                        bytes: 8,
                    },
                ),
                rec(
                    3,
                    20,
                    TraceEvent::Timer {
                        node: NodeId(1),
                        tag: 4,
                    },
                ),
                rec(
                    4,
                    21,
                    TraceEvent::Drop {
                        from: NodeId(1),
                        to: NodeId(0),
                        kind: "ping",
                        reason: DropReason::Loss,
                    },
                ),
                rec(5, 30, TraceEvent::NodeFail { node: NodeId(1) }),
            ],
        }
    }

    #[test]
    fn text_rendering_is_stable() {
        let j = sample_journal();
        let text = j.to_text();
        assert!(text.starts_with("seed=7\n"));
        assert!(text.contains("send n0->n1 ping 8B try0"));
        assert!(text.contains("drop n1->n0 ping loss"));
        assert_eq!(text, j.to_text(), "rendering must be a pure function");
        assert_eq!(j.content_hash(), j.content_hash());
    }

    #[test]
    fn summary_counts_by_kind() {
        let s = sample_journal().summary();
        assert_eq!(s.sends, 1);
        assert_eq!(s.delivers, 1);
        assert_eq!(s.drops_loss, 1);
        assert_eq!(s.drops_dead, 0);
        assert_eq!(s.timers, 1);
        assert_eq!(s.node_failures, 1);
        assert_eq!(s.sends_by_kind["ping"], 1);
    }

    #[test]
    fn replay_checker_accepts_identical_stream() {
        let j = sample_journal();
        let mut c = ReplayChecker::new(j.clone());
        for r in &j.records {
            c.record(r.clone());
        }
        assert!(c.result().is_ok());
    }

    #[test]
    fn replay_checker_flags_mismatch_and_truncation() {
        let j = sample_journal();
        // Mismatch at index 1.
        let mut c = ReplayChecker::new(j.clone());
        c.record(j.records[0].clone());
        c.record(rec(
            1,
            0,
            TraceEvent::Timer {
                node: NodeId(9),
                tag: 0,
            },
        ));
        let d = c.result().unwrap_err();
        assert_eq!(d.index, 1);
        assert!(d.expected.is_some() && d.actual.is_some());
        assert!(format!("{d}").contains("diverged at record 1"));
        // Truncated replay.
        let mut c = ReplayChecker::new(j.clone());
        c.record(j.records[0].clone());
        let d = c.result().unwrap_err();
        assert_eq!(d.index, 1);
        assert!(d.actual.is_none());
        // Overlong replay.
        let mut c = ReplayChecker::new(Journal::default());
        c.record(j.records[0].clone());
        let d = c.result().unwrap_err();
        assert_eq!(d.index, 0);
        assert!(d.expected.is_none());
    }

    #[test]
    fn first_divergence_positions() {
        let a = sample_journal();
        assert_eq!(a.first_divergence(&a), None);
        let mut b = a.clone();
        b.records[2].at += 1;
        assert_eq!(a.first_divergence(&b), Some(2));
        let mut c = a.clone();
        c.records.pop();
        assert_eq!(a.first_divergence(&c), Some(5));
    }

    #[test]
    fn shared_summary_streams_counters() {
        let shared = SharedSummary::new();
        let mut sink = shared.clone();
        for r in sample_journal().records {
            sink.record(r);
        }
        assert_eq!(shared.snapshot(), sample_journal().summary());
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let j = sample_journal();
        let text = j.to_jsonl();
        let back = Journal::from_jsonl(&text).unwrap();
        assert_eq!(j, back);
        assert_eq!(j.to_text(), back.to_text());
        assert_eq!(j.content_hash(), back.content_hash());
        // Kinds come back as the canonical static literals.
        if let TraceEvent::Send { kind, .. } = &back.records[1].event {
            assert_eq!(*kind, "ping");
        } else {
            panic!("record 1 should be a send");
        }
    }

    #[test]
    fn jsonl_unknown_kind_is_interned_once() {
        let j = Journal {
            seed: 1,
            records: vec![
                rec(
                    0,
                    0,
                    TraceEvent::Send {
                        from: NodeId(0),
                        to: NodeId(1),
                        kind: "exotic",
                        bytes: 1,
                        attempt: 0,
                    },
                ),
                rec(
                    1,
                    5,
                    TraceEvent::Deliver {
                        from: NodeId(0),
                        to: NodeId(1),
                        kind: "exotic",
                        bytes: 1,
                    },
                ),
            ],
        };
        let back = Journal::from_jsonl(&j.to_jsonl()).unwrap();
        assert_eq!(j, back);
        let (k0, k1) = match (&back.records[0].event, &back.records[1].event) {
            (TraceEvent::Send { kind: a, .. }, TraceEvent::Deliver { kind: b, .. }) => (*a, *b),
            _ => panic!("unexpected events"),
        };
        // Same leaked allocation reused, not one leak per record.
        assert!(std::ptr::eq(k0, k1));
    }

    #[test]
    fn jsonl_parse_errors_carry_line_numbers() {
        assert!(Journal::from_jsonl("").is_err());
        let e = Journal::from_jsonl("{\"type\":\"rec\"}\n").unwrap_err();
        assert_eq!(e.line, 1);
        let good = sample_journal().to_jsonl();
        let truncated: String = good.lines().take(3).collect::<Vec<_>>().join("\n");
        let e = Journal::from_jsonl(&truncated).unwrap_err();
        assert!(e.msg.contains("declared"), "{e}");
        let mut garbled = good.clone();
        garbled.push_str("{\"type\":\"rec\",\"seq\":9,\"at\":9,\"ev\":\"warp\"}\n");
        assert!(Journal::from_jsonl(&garbled).is_err());
    }

    #[test]
    fn save_and_load_files() {
        let j = sample_journal();
        let path = std::env::temp_dir().join("sensorlog_trace_unit.jsonl");
        j.save(&path).unwrap();
        let back = Journal::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(j, back);
    }

    #[test]
    fn shared_journal_round_trip() {
        let shared = SharedJournal::new(3);
        let mut sink = shared.clone();
        sink.record(rec(0, 0, TraceEvent::Start { node: NodeId(0) }));
        assert_eq!(shared.snapshot().records.len(), 1);
        let j = shared.take();
        assert_eq!(j.seed, 3);
        assert_eq!(j.records.len(), 1);
        assert!(shared.snapshot().records.is_empty());
    }
}
