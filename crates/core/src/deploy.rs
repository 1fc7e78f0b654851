//! Deployment harness: compile a program, stand up a simulated network of
//! [`SensorlogNode`]s, inject workload events, run to quiescence, and
//! collect results + communication metrics.

use crate::durable::DurableStore;
use crate::partial::RuleShape;
use crate::plan::{compile_source, DistProgram, PlanTiming};
use crate::prov::{ProvRecord, Provenance};
use crate::runtime::{NetInfo, NodeStats, RtConfig, SensorlogNode};
use crate::strategy::Strategy;
use sensorlog_eval::UpdateKind;
use sensorlog_logic::builtin::BuiltinRegistry;
use sensorlog_logic::{Symbol, Tuple};
use sensorlog_netsim::{
    FaultSchedule, Metrics, NodeId, SharedJournal, SimConfig, SimTime, Simulator, Topology,
};
use sensorlog_telemetry::{MetricsRegistry, Scope, Snapshot, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// One workload event: a reading generated or retracted at a node.
#[derive(Clone, Debug)]
pub struct WorkloadEvent {
    pub at: SimTime,
    pub node: NodeId,
    pub pred: Symbol,
    pub tuple: Tuple,
    pub kind: UpdateKind,
}

impl WorkloadEvent {
    /// Parse the event-script line format used by the CLI:
    /// `+<at_ms> @<node> fact(args).` inserts, `-…` deletes.
    pub fn parse_line(line: &str) -> Result<WorkloadEvent, String> {
        let line = line.trim();
        let (kind, rest) = match line.split_at(1.min(line.len())) {
            ("+", r) => (UpdateKind::Insert, r),
            ("-", r) => (UpdateKind::Delete, r),
            _ => return Err(format!("event line must start with + or -: `{line}`")),
        };
        let mut parts = rest.splitn(3, ' ');
        let at: SimTime = parts
            .next()
            .ok_or("missing timestamp")?
            .parse()
            .map_err(|e| format!("bad timestamp in `{line}`: {e}"))?;
        let node_part = parts.next().ok_or("missing @node")?;
        let node: u32 = node_part
            .strip_prefix('@')
            .ok_or_else(|| format!("expected @node in `{line}`"))?
            .parse()
            .map_err(|e| format!("bad node id in `{line}`: {e}"))?;
        let fact = parts.next().ok_or("missing fact")?;
        let (pred, terms) =
            sensorlog_logic::parse_fact(fact).map_err(|e| format!("bad fact in `{line}`: {e}"))?;
        Ok(WorkloadEvent {
            at,
            node: NodeId(node),
            pred,
            tuple: Tuple::new(terms),
            kind,
        })
    }

    /// Parse a whole event script (blank lines / `%` comments skipped).
    pub fn parse_script(text: &str) -> Result<Vec<WorkloadEvent>, String> {
        let mut out = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('%') {
                continue;
            }
            out.push(WorkloadEvent::parse_line(line)?);
        }
        Ok(out)
    }
}

/// Full deployment configuration.
#[derive(Clone, Debug, Default)]
pub struct DeployConfig {
    pub rt: RtConfig,
    pub sim: SimConfig,
    pub plan: PlanTiming,
    /// Telemetry handle shared by the simulator and every node (disabled by
    /// default — a disabled handle costs one branch per recording site).
    pub telemetry: Telemetry,
    /// Provenance recording handle shared by every node (disabled by
    /// default). Enable with [`Provenance::enabled`] to capture the
    /// cross-node lineage records `sensorlog-provenance` builds its causal
    /// DAG from; a pure observer either way.
    pub provenance: Provenance,
}

/// A running deployment.
pub struct Deployment {
    pub sim: Simulator<SensorlogNode>,
    pub prog: Arc<DistProgram>,
    pub strategy: Strategy,
    /// The routing context every node shares.
    net: Arc<NetInfo>,
    schedule: Vec<WorkloadEvent>,
    /// Insert events applied per base predicate — the observed `E(p)` the
    /// static memory bounds are evaluated against at cross-validation time.
    injected: BTreeMap<Symbol, u64>,
    /// Workload events that actually entered the network (the target node
    /// was alive at injection time). The convergence checker's "surviving
    /// EDB" is computed from these, not from the full schedule.
    applied: Vec<WorkloadEvent>,
    /// The shared provenance handle (disabled unless configured).
    prov: Provenance,
    /// Per-node durable stores (fault plane only; empty otherwise). Held
    /// here so they survive app rebuilds on restart.
    durables: Vec<Arc<Mutex<DurableStore>>>,
    /// Whether the runtime fault plane was configured on.
    faults_cfg: bool,
}

impl Deployment {
    /// Compile `src` and deploy it on `topo`.
    pub fn new(
        src: &str,
        reg: BuiltinRegistry,
        topo: Topology,
        config: DeployConfig,
    ) -> Result<Deployment, crate::plan::CompileError> {
        let mut rt = config.rt.clone();
        // τc must agree with the simulator's skew bound (Theorem 3).
        rt.tau_c = rt.tau_c.max(config.sim.clock_skew_max);
        let prog = Arc::new(compile_source(src, reg, config.plan)?.with_pass_mode(rt.pass_mode));
        let net = Arc::new(NetInfo::new(topo.clone()).with_telemetry(config.telemetry.clone()));
        let cfg = Arc::new(rt);
        let shapes = Arc::new(
            prog.analysis
                .program
                .rules
                .iter()
                .map(RuleShape::of)
                .collect::<Vec<_>>(),
        );
        let prog2 = Arc::clone(&prog);
        let net2 = Arc::clone(&net);
        let tele = config.telemetry.clone();
        let durables: Vec<Arc<Mutex<DurableStore>>> = match &cfg.faults {
            Some(f) => (0..topo.len())
                .map(|_| Arc::new(Mutex::new(DurableStore::new(f.checkpoint_every))))
                .collect(),
            None => Vec::new(),
        };
        let faults_cfg = cfg.faults.is_some();
        let durables2 = durables.clone();
        let prov = config.provenance.clone();
        let prov2 = prov.clone();
        let mut sim = Simulator::new(topo, config.sim, move |id, _| {
            let node = SensorlogNode::new(
                id,
                Arc::clone(&prog2),
                Arc::clone(&cfg),
                Arc::clone(&net2),
                Arc::clone(&shapes),
                tele.clone(),
            )
            .with_provenance(prov2.clone());
            match durables2.get(id.index()) {
                Some(d) => node.with_durable(Arc::clone(d)),
                None => node,
            }
        });
        sim.set_telemetry(config.telemetry.clone());
        let mut d = Deployment {
            sim,
            prog,
            strategy: config.rt.strategy,
            net,
            schedule: Vec::new(),
            injected: BTreeMap::new(),
            applied: Vec::new(),
            prov,
            durables,
            faults_cfg,
        };
        d.inject_static_facts();
        Ok(d)
    }

    /// Inject the program's ground facts (empty-body rules) at their owner
    /// nodes (an empty topology has no node to own them).
    fn inject_static_facts(&mut self) {
        if self.sim.topology().is_empty() {
            return;
        }
        let facts = self.prog.static_facts.clone();
        for (pred, tuple) in facts {
            let owner = self.owner(pred, &tuple);
            self.sim.invoke(owner, |node, ctx| {
                node.inject_static(ctx, pred, tuple.clone());
            });
        }
    }

    /// Attach a fresh event journal to the simulator and return a shared
    /// handle to it. Every subsequent simulator event (send, deliver,
    /// drop, timer, node failure) is recorded; snapshot or take the
    /// journal after `run` for replay checking and trace summaries.
    pub fn attach_journal(&mut self) -> SharedJournal {
        let journal = SharedJournal::new(self.sim.config.seed);
        self.sim.set_trace(Box::new(journal.clone()));
        journal
    }

    /// Scheduler counters (queue operations) for the run so far.
    pub fn sched_stats(&self) -> sensorlog_netsim::SchedStats {
        self.sim.sched_stats()
    }

    /// Queue a workload event (applied in `run`).
    pub fn schedule(&mut self, ev: WorkloadEvent) {
        self.schedule.push(ev);
    }

    pub fn schedule_all(&mut self, evs: impl IntoIterator<Item = WorkloadEvent>) {
        self.schedule.extend(evs);
    }

    /// Run the simulation, interleaving scheduled workload events, until
    /// all events at or before `horizon` fired and the network quiesces.
    /// Returns the final simulated time. May be called repeatedly (e.g.
    /// schedule → run to t → `fail_node` → schedule more → run on).
    pub fn run(&mut self, horizon: SimTime) -> SimTime {
        self.schedule.sort_by_key(|e| e.at);
        let mut remaining = Vec::new();
        for ev in std::mem::take(&mut self.schedule) {
            if ev.at > horizon {
                remaining.push(ev);
                continue;
            }
            self.sim.run_until(ev.at);
            if self.sim.is_failed(ev.node) {
                continue; // a dead sensor senses nothing
            }
            if ev.kind == UpdateKind::Insert {
                *self.injected.entry(ev.pred).or_insert(0) += 1;
            }
            self.sim.invoke(ev.node, |node, ctx| match ev.kind {
                UpdateKind::Insert => node.generate(ctx, ev.pred, ev.tuple.clone()),
                UpdateKind::Delete => node.retract(ctx, ev.pred, ev.tuple.clone()),
            });
            self.applied.push(ev);
        }
        self.schedule = remaining;
        let t = self.sim.run_to_quiescence(horizon);
        #[cfg(debug_assertions)]
        if self.sim.is_quiescent() {
            for (kind, tx, rx, lost) in self.sim.metrics.kind_balance() {
                debug_assert_eq!(
                    tx,
                    rx + lost,
                    "message conservation violated for kind `{kind}`"
                );
            }
        }
        t
    }

    /// Crash a node mid-run (fault-injection experiments). Readings it
    /// would have generated are silently dropped, and its owned results
    /// become unreachable.
    pub fn fail_node(&mut self, id: NodeId) {
        self.sim.fail_node(id);
    }

    /// Attach a scripted fault schedule (crashes, restarts, partitions,
    /// dup/reorder windows). Applied tick-exactly during `run`.
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        self.sim.set_fault_schedule(schedule);
    }

    /// True when faults can occur on this deployment: the runtime fault
    /// plane was configured, a schedule was attached, or a node was ever
    /// crashed manually. Gates the structural checks that only hold on
    /// fault-free runs (e.g. derivation-count non-negativity).
    pub fn faults_active(&self) -> bool {
        self.faults_cfg || self.sim.faults_injected()
    }

    /// Workload events that actually entered the network (target alive at
    /// injection time), in application order.
    pub fn applied_events(&self) -> &[WorkloadEvent] {
        &self.applied
    }

    /// The durable store of node `id` (fault plane only).
    pub fn durable(&self, id: NodeId) -> Option<&Arc<Mutex<DurableStore>>> {
        self.durables.get(id.index())
    }

    /// The deployment's shared provenance handle (disabled unless
    /// `DeployConfig::provenance` was enabled).
    pub fn provenance(&self) -> &Provenance {
        &self.prov
    }

    /// Copy of the provenance records captured so far (empty when the
    /// plane is disabled).
    pub fn provenance_records(&self) -> Vec<ProvRecord> {
        self.prov.snapshot()
    }

    /// Gather the live result tuples of `pred` across all owner nodes (or
    /// from the central server under Centroid).
    pub fn results(&self, pred: Symbol) -> BTreeSet<Tuple> {
        let mut out = BTreeSet::new();
        for id in self.sim.topology().nodes() {
            if self.sim.is_failed(id) {
                continue; // a dead owner's results are unreachable
            }
            let node = self.sim.node(id);
            if let Some(engine) = &node.center_engine {
                out.extend(engine.db.sorted(pred));
            }
            out.extend(node.owned_live(pred));
        }
        out
    }

    /// The node holding `tuple` of derived `pred`: Centroid's centre, else
    /// the owner the program names ([`DistProgram::owner_of`]).
    pub fn owner(&self, pred: Symbol, tuple: &Tuple) -> NodeId {
        match self.strategy {
            Strategy::Centroid => self.net.center(),
            _ => self.prog.owner_of(self.sim.topology(), pred, tuple),
        }
    }

    /// Communication metrics of the run.
    pub fn metrics(&self) -> &Metrics {
        &self.sim.metrics
    }

    /// Insert events applied so far, per base predicate (observed `E(p)`).
    pub fn injected_events(&self) -> &BTreeMap<Symbol, u64> {
        &self.injected
    }

    /// Export the run's full telemetry as one [`Snapshot`]: the simulator's
    /// per-node / per-kind traffic registry, the deployment-level registry
    /// (per-predicate counters, byte/latency histograms), phase timings,
    /// and per-node runtime stats rolled up as global gauges. Works whether
    /// or not `DeployConfig::telemetry` was enabled (the simulator metrics
    /// and node stats are always collected).
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        snap.meta
            .insert("nodes".into(), self.sim.topology().len().to_string());
        snap.meta
            .insert("strategy".into(), self.strategy.name().to_string());
        snap.meta
            .insert("seed".into(), self.sim.config.seed.to_string());
        snap.meta
            .insert("sim_time_ms".into(), self.sim.now().to_string());
        snap.absorb_registry(self.sim.metrics.registry());
        if let Some(reg) = self.sim.telemetry().registry() {
            snap.absorb_registry(&reg);
        }
        snap.absorb_profiler(&self.sim.telemetry().profiler());
        // Scheduler operation counters.
        let sched = self.sim.sched_stats();
        // Per-node runtime stats, rolled up network-wide.
        let mut rollup = MetricsRegistry::new();
        rollup.bump(Scope::Global, "sched.pushes", sched.pushes);
        let mut idx = sensorlog_eval::IndexStatsSnapshot::default();
        for n in self.sim.nodes() {
            idx.merge(n.index_stats());
        }
        rollup.bump(Scope::Global, "join.index.hits", idx.hits);
        rollup.bump(Scope::Global, "join.index.scans", idx.scans);
        rollup.bump(Scope::Global, "join.index.full_scans", idx.full_scans);
        // Boxed-term resolves at the intern boundary (display, lineage,
        // aggregates, message encode). Hot-path resolves must stay zero —
        // gated by the `intern` bench smoke in CI, surfaced here for
        // operators.
        let rc = sensorlog_logic::intern::resolve_counts();
        rollup.gauge_set(Scope::Global, "intern.boundary.resolves", rc.boundary);
        rollup.gauge_set(Scope::Global, "intern.hot.resolves", rc.hot);
        for n in self.sim.nodes() {
            for (&pred, &peak) in &n.peak_pred_stored {
                rollup.gauge_max(Scope::Pred(pred.as_str()), "peak_stored", peak as u64);
            }
            rollup.gauge_max(Scope::Global, "peak_replicas", n.stats.peak_replicas as u64);
            rollup.gauge_max(
                Scope::Global,
                "peak_derivations",
                n.stats.peak_derivations as u64,
            );
            rollup.bump(Scope::Global, "probes_processed", n.stats.probes_processed);
            rollup.bump(Scope::Global, "results_emitted", n.stats.results_emitted);
            rollup.bump(Scope::Global, "routing_drops", n.stats.routing_drops);
        }
        rollup.gauge_set(
            Scope::Global,
            "peak_node_memory",
            self.peak_node_memory() as u64,
        );
        // Static-bound cross-validation: how many observed peaks / message
        // totals exceeded what `logic::diag` promised. Zero on any healthy
        // run — asserted by the telemetry and distributed tests.
        rollup.gauge_set(
            Scope::Global,
            "diag.bound.violations",
            crate::invariants::check_static_bounds(self)
                .violations
                .len() as u64,
        );
        // Bound tightness: the enforced per-node ceiling 2·T(p) (one
        // replica + one owned copy per distinct tuple, exactly what
        // `check_static_bounds` asserts) ÷ the network-wide per-node peak,
        // per predicate. A value of 0 therefore always means a bound
        // violation; the frontier pass targets single-digit slack on the
        // grid examples (the legacy S·Σ bounds sat near 100).
        let fr = sensorlog_logic::absint::frontier(&self.prog.analysis);
        let params = sensorlog_logic::diag::BoundParams {
            nodes: self.sim.topology().len() as u64,
            default_events: 0,
            events: self.injected_events().clone(),
        };
        let mut peaks: BTreeMap<Symbol, u64> = BTreeMap::new();
        for n in self.sim.nodes() {
            for (&pred, &peak) in &n.peak_pred_stored {
                let e = peaks.entry(pred).or_insert(0);
                *e = (*e).max(peak as u64);
            }
        }
        for (pred, peak) in peaks {
            if peak == 0 {
                continue;
            }
            if let Some(t) = fr.bounds.get(&pred).and_then(|b| b.eval(&params)) {
                rollup.gauge_set(
                    Scope::Pred(pred.as_str()),
                    "diag.bound.slack",
                    t.saturating_mul(2) / peak,
                );
            }
        }
        snap.absorb_registry(&rollup);
        snap
    }

    /// Per-node stats (Table 1 memory accounting).
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.sim.nodes().map(|n| n.stats).collect()
    }

    /// Peak per-node memory in stored items (replicas + derivations).
    pub fn peak_node_memory(&self) -> usize {
        self.sim
            .nodes()
            .map(|n| n.stats.peak_replicas + n.stats.peak_derivations)
            .max()
            .unwrap_or(0)
    }

    /// The routing context shared by every node (topology, next hops,
    /// network depth, Centroid's centre).
    pub fn net(&self) -> &NetInfo {
        &self.net
    }

    /// Access the node application at `id`.
    pub fn node(&self, id: NodeId) -> &SensorlogNode {
        self.sim.node(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorlog_logic::Term;

    #[test]
    fn event_line_roundtrip() {
        let ev = WorkloadEvent::parse_line(r#"+1500 @7 veh("enemy", 10, 1)."#).unwrap();
        assert_eq!(ev.at, 1_500);
        assert_eq!(ev.node, NodeId(7));
        assert_eq!(ev.kind, UpdateKind::Insert);
        assert_eq!(ev.pred, Symbol::intern("veh"));
        assert_eq!(ev.tuple.get(1), Term::Int(10));
        let del = WorkloadEvent::parse_line("-99 @0 g(1, 2).").unwrap();
        assert_eq!(del.kind, UpdateKind::Delete);
    }

    #[test]
    fn event_line_errors() {
        assert!(WorkloadEvent::parse_line("1500 @7 p(1).").is_err()); // no sign
        assert!(WorkloadEvent::parse_line("+x @7 p(1).").is_err()); // bad ts
        assert!(WorkloadEvent::parse_line("+1 7 p(1).").is_err()); // no @
        assert!(WorkloadEvent::parse_line("+1 @7 p(X).").is_err()); // non-ground
        assert!(WorkloadEvent::parse_line("").is_err());
    }

    #[test]
    fn provenance_capture_spans_all_record_kinds() {
        let src = r#"
            .output q.
            q(X, Y) :- r1(X, T), r2(Y, T).
        "#;
        let topo = sensorlog_netsim::Topology::square_grid(4);
        let config = DeployConfig {
            provenance: Provenance::enabled(),
            ..DeployConfig::default()
        };
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, config).unwrap();
        let mk = |p: &str, a: i64, b: i64| {
            (
                Symbol::intern(p),
                Tuple::new(vec![Term::Int(a), Term::Int(b)]),
            )
        };
        let (p1, t1) = mk("r1", 1, 7);
        let (p2, t2) = mk("r2", 2, 7);
        d.schedule_all([
            WorkloadEvent {
                at: 10,
                node: NodeId(1),
                pred: p1,
                tuple: t1,
                kind: UpdateKind::Insert,
            },
            WorkloadEvent {
                at: 20,
                node: NodeId(14),
                pred: p2,
                tuple: t2,
                kind: UpdateKind::Insert,
            },
        ]);
        d.run(60_000);
        assert_eq!(d.results(Symbol::intern("q")).len(), 1);
        let recs = d.provenance_records();
        let has = |f: fn(&ProvRecord) -> bool| recs.iter().any(f);
        assert!(has(|r| matches!(r, ProvRecord::Edb { .. })), "no Edb leaf");
        assert!(
            has(|r| matches!(r, ProvRecord::Deriv { sign: 1, .. })),
            "no Deriv delta"
        );
        assert!(
            has(|r| matches!(
                r,
                ProvRecord::Mint {
                    kind: UpdateKind::Insert,
                    ..
                }
            )),
            "no Mint"
        );
        assert!(has(|r| matches!(r, ProvRecord::Hop { .. })), "no Hop");
        // The JSONL round-trip holds on real runtime output too.
        let text = crate::prov::to_jsonl(&recs);
        assert_eq!(crate::prov::from_jsonl(&text).unwrap(), recs);
    }

    /// `q(X) :- a(X), X >= 0, …, b(X).` with `lits` body literals: the two
    /// positives sit at the first and the last bit of `Partial::bound`.
    fn wide_rule(lits: usize) -> String {
        let checks = "X >= 0, ".repeat(lits - 2);
        format!(".output q.\nq(X) :- a(X), {checks}b(X).")
    }

    #[test]
    fn a_64_literal_rule_compiles_and_converges() {
        let topo = sensorlog_netsim::Topology::square_grid(3);
        let mut d = Deployment::new(
            &wide_rule(64),
            BuiltinRegistry::standard(),
            topo,
            DeployConfig::default(),
        )
        .unwrap();
        assert_eq!(d.prog.analysis.program.rules[0].body.len(), 64);
        let ev = |at, node, pred: &str, x| WorkloadEvent {
            at,
            node: NodeId(node),
            pred: Symbol::intern(pred),
            tuple: Tuple::new(vec![Term::Int(x)]),
            kind: UpdateKind::Insert,
        };
        d.schedule_all([
            ev(10, 0, "a", 1),
            ev(20, 8, "b", 1),
            ev(30, 4, "a", 2),
            ev(40, 2, "b", 3),
        ]);
        d.run(60_000);
        assert!(d.sim.is_quiescent());
        let q = Symbol::intern("q");
        assert_eq!(
            d.results(q),
            BTreeSet::from([Tuple::new(vec![Term::Int(1)])])
        );
        let report = crate::invariants::check_convergence(&d, &[q]);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn a_65_literal_rule_is_rejected_where_the_mask_ends() {
        let src = wide_rule(65);
        let err = Deployment::new(
            &src,
            BuiltinRegistry::standard(),
            sensorlog_netsim::Topology::square_grid(2),
            DeployConfig::default(),
        )
        .err()
        .expect("65 literals do not fit the mask");
        let crate::plan::CompileError::BodyTooLong {
            rule_id,
            literals,
            span,
        } = &err
        else {
            panic!("unexpected error: {err}");
        };
        assert_eq!((*rule_id, *literals), (0, 65));
        // The span is the 65th literal, `b(X)`.
        assert_eq!(&src[span.start as usize..span.end as usize], "b(X)");
        assert_eq!(
            (span.line, span.col as usize),
            (2, src.lines().nth(1).unwrap().len() - 4)
        );
        assert!(err.to_string().starts_with("rule #0 at 2:"), "{err}");
    }

    const LOGIC_H: &str = r#"
        .output h.
        h(0, 0, 0).
        h(0, X, 1) :- g(0, X).
        hp(Y, D + 1) :- h(_, Y, D'), (D + 1) > D', h(_, X, D), g(X, Y).
        h(X, Y, D + 1) :- g(X, Y), h(_, X, D), not hp(Y, D + 1).
    "#;

    /// Loss-free logicH under PA on a 5×5 grid, seed 17, run to quiescence.
    fn logic_h_5x5(config: DeployConfig) -> Deployment {
        let topo = sensorlog_netsim::Topology::square_grid(5);
        let config = DeployConfig {
            sim: SimConfig {
                seed: 17,
                ..SimConfig::default()
            },
            ..config
        };
        let mut d =
            Deployment::new(LOGIC_H, BuiltinRegistry::standard(), topo.clone(), config).unwrap();
        d.schedule_all(crate::workload::graph_edges(&topo, 100, 200));
        d.run(2_000_000);
        assert!(d.sim.is_quiescent());
        d
    }

    /// Σ `pred:* sent_*`: the hops the runtime counted as transmitted.
    fn sent_total(snap: &sensorlog_telemetry::Snapshot) -> u64 {
        ["store", "probe", "result", "centroid", "other"]
            .iter()
            .map(|kind| snap.counter_sum("pred:", &format!("sent_{kind}")))
            .sum()
    }

    /// The hop decisions `layer:netstack` counted, against what the runtime
    /// counted per predicate and what the provenance plane saw leave.
    /// Returns (`grid_hops`, `bfs_tables_built`, destinations routed to).
    fn assert_hops_are_router_hops(d: &Deployment) -> (u64, u64, BTreeSet<NodeId>) {
        let snap = d.telemetry_snapshot();
        let net = |name: &str| snap.counter("layer:netstack", name);
        let decided = net("grid_hops") + net("bfs_hops");
        assert!(decided > 0, "the deployment never asked the router");
        assert_eq!(decided, sent_total(&snap));
        assert_eq!(
            snap.counter_sum("pred:", "routing_drops"),
            net("unreachable")
        );
        // Every decision that found a hop left a `Hop` record naming its
        // destination (fault plane off: every routed payload has an origin).
        let dests: Vec<NodeId> = d
            .provenance_records()
            .iter()
            .filter_map(|r| match r {
                ProvRecord::Hop { dest, .. } => Some(*dest),
                _ => None,
            })
            .collect();
        assert_eq!(dests.len() as u64, decided);
        (
            net("grid_hops"),
            net("bfs_tables_built"),
            dests.into_iter().collect(),
        )
    }

    /// The count gate of "one router": deployment traffic is routed by
    /// `netstack::Router` and nothing else. At the parent commit `core`
    /// carried its own copy of the next-hop arithmetic and every
    /// `layer:netstack` counter of a deployment read 0.
    #[test]
    fn deployment_hops_are_router_hops() {
        let observed = || DeployConfig {
            telemetry: Telemetry::enabled(),
            provenance: Provenance::enabled(),
            ..DeployConfig::default()
        };
        let (grid_hops, tables, _) = assert_hops_are_router_hops(&logic_h_5x5(observed()));
        assert!(grid_hops > 0 && tables == 0, "grids route by coordinate");

        // Off-grid, a table exists per destination routed to — not per node.
        let topo = sensorlog_netsim::Topology::random_geometric(60, 7.0, 1.7, 11).unwrap();
        let config = DeployConfig {
            rt: RtConfig {
                strategy: Strategy::Perpendicular { band_width: 1.7 },
                tau_s: 4_000,
                tau_j: 8_000,
                ..RtConfig::default()
            },
            ..observed()
        };
        let src = ".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).";
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, config).unwrap();
        let ev = |at, node, pred: &str, x| WorkloadEvent {
            at,
            node: NodeId(node),
            pred: Symbol::intern(pred),
            tuple: Tuple::new(vec![Term::Int(x), Term::Int(7)]),
            kind: UpdateKind::Insert,
        };
        d.schedule_all([ev(500, 3, "r1", 1), ev(900, 41, "r2", 2)]);
        d.run(60_000_000);
        assert_eq!(d.results(Symbol::intern("q")).len(), 1);
        let (grid_hops, tables, dests) = assert_hops_are_router_hops(&d);
        assert_eq!((grid_hops, tables), (0, dests.len() as u64));
        assert!(0 < tables && tables < 60, "{tables} tables for 60 nodes");
    }

    /// `pred:* sent_*` is the simulator's tx count said per predicate: with
    /// everything routed (PA, fault plane off, no loss) the two are equal.
    /// Regression: the bump came before the next hop was resolved, so on a
    /// partitioned topology a payload with no route — which transmits
    /// nothing and is a `routing_drops` — was counted as sent as well.
    #[test]
    fn sent_counters_equal_transmissions_under_partition() {
        let observed = || DeployConfig {
            telemetry: Telemetry::enabled(),
            ..DeployConfig::default()
        };
        let connected = logic_h_5x5(observed());
        let snap = connected.telemetry_snapshot();
        assert_eq!(sent_total(&snap), connected.sim.metrics.total_tx());
        assert_eq!(snap.counter_sum("pred:", "routing_drops"), 0);

        // Two 3x2 clusters out of radio range of each other, in one band:
        // every storage walk wants to cross the gap.
        let cluster = |x0: f64| (0..6).map(move |i| (x0 + f64::from(i % 3), f64::from(i / 3)));
        let positions: Vec<(f64, f64)> = cluster(0.0).chain(cluster(10.0)).collect();
        let topo = sensorlog_netsim::Topology::from_positions(positions, 1.1);
        assert!(!topo.is_connected());
        let src = ".output q.\nq(X, Y) :- r1(X, T), r2(Y, T).";
        let mut d = Deployment::new(src, BuiltinRegistry::standard(), topo, observed()).unwrap();
        let ev = |at, node, pred: &str, x| WorkloadEvent {
            at,
            node: NodeId(node),
            pred: Symbol::intern(pred),
            tuple: Tuple::new(vec![Term::Int(x), Term::Int(7)]),
            kind: UpdateKind::Insert,
        };
        d.schedule_all([
            ev(500, 0, "r1", 1),
            ev(900, 4, "r2", 2),
            ev(1_300, 9, "r2", 3),
        ]);
        d.run(60_000_000);
        assert!(d.sim.is_quiescent());
        let snap = d.telemetry_snapshot();
        let dropped = snap.counter_sum("pred:", "routing_drops");
        assert!(dropped > 0, "nothing tried to cross the partition");
        assert_eq!(dropped, snap.counter("layer:netstack", "unreachable"));
        assert!(d.sim.metrics.total_tx() > 0);
        assert_eq!(sent_total(&snap), d.sim.metrics.total_tx());
    }

    /// Regression: `NetInfo::new` used to index node 0 of whatever it was
    /// given, so deploying on no nodes panicked before anything ran.
    #[test]
    fn empty_and_single_node_topologies_deploy_and_run() {
        for positions in [vec![], vec![(2.5, 2.5)]] {
            let topo = sensorlog_netsim::Topology::from_positions(positions, 1.0);
            let net = NetInfo::new(topo.clone());
            assert_eq!(net.depth(), 1);
            let mut d = Deployment::new(
                LOGIC_H,
                BuiltinRegistry::standard(),
                topo.clone(),
                DeployConfig::default(),
            )
            .unwrap();
            let end = d.run(60_000);
            assert!(d.sim.is_quiescent());
            assert!(end == 0 || !topo.is_empty(), "nothing to wait for");
            // The program's one static fact lives at its owner, if any.
            assert_eq!(d.results(Symbol::intern("h")).len(), topo.len());
        }
    }

    /// The count gate of "node probes are ranges": loss-free logicH under PA
    /// on a 5×5 grid, seed 17. Every lookup a node's join makes goes through
    /// `Relation::probe` and is counted by how it was served: a prefix
    /// signature (`g` on `[0]` or `[0, 1]`) is a range of the fragment map
    /// (`hits`), any other bound signature (`h` on `[1]`, `g` on `[1]`) walks
    /// it (`scans`), and a lookup with nothing bound is the whole fragment
    /// (`full_scans`). Pass plans open every literal keyed (ROADMAP item 10),
    /// so the last is 0 by name: at the parent `hp`'s probes opened the other
    /// `h` unkeyed 354 times (3,061 / 1,852 / 354). The parent's `scan_into`
    /// touched no counter, so pointing `candidates` back at it reads
    /// 0 / 0 / 0 here.
    #[test]
    fn node_probes_are_ranges_of_the_fragment_map() {
        let topo = sensorlog_netsim::Topology::square_grid(5);
        let d = logic_h_5x5(DeployConfig::default());
        let mut stats = sensorlog_eval::IndexStatsSnapshot::default();
        for id in topo.nodes() {
            stats.merge(d.node(id).index_stats());
        }
        assert_eq!(stats.full_scans, 0, "a node probe opened a literal unkeyed");
        assert_eq!((stats.hits, stats.scans), (580, 2_543));
    }

    /// Example 1 under PA on a 6×6 grid, seed 17: vehicles sighted every
    /// second for 20 s, `veh` windowed to 8 s, so a replica is retained for
    /// τs + τj + τw = 12,500 ms. Sightings are scheduled, not run.
    fn battlefield_6x6(config: DeployConfig) -> Deployment {
        let src = r#"
            .window veh 8000.
            .output uncov.
            cov(L, T)   :- veh("enemy", L, T), veh("friendly", F, T), dist(L, F) <= 8.
            uncov(L, T) :- not cov(L, T), veh("enemy", L, T).
        "#;
        let topo = sensorlog_netsim::Topology::square_grid(6);
        let config = DeployConfig {
            sim: SimConfig {
                seed: 17,
                ..SimConfig::default()
            },
            ..config
        };
        let mut d =
            Deployment::new(src, BuiltinRegistry::standard(), topo.clone(), config).unwrap();
        let sightings = crate::workload::VehicleWorkload {
            n_enemy: 8,
            n_friendly: 8,
            interval: 1_000,
            duration: 20_000,
            seed: 17,
        };
        d.schedule_all(sightings.events(&topo));
        d
    }

    /// The count gate of "one expiry queue per node". Just before the first
    /// expiry the simulator has never held as many pending events as the
    /// network holds replicas (171 against 1,638) — with a timer per
    /// replica, the parent's scheme, it held more (2,302: one per owned
    /// `cov` / `uncov` delta too). Run on past the window, each generation
    /// still leaves at exactly τ + retention, from every node of its row at
    /// once; and the observers see none of it: the journal is the same bytes
    /// with telemetry and provenance on.
    #[test]
    fn windowed_replicas_do_not_queue_a_timer_each() {
        let mut d = battlefield_6x6(DeployConfig::default());
        let journal = d.attach_journal();
        let sighted: Vec<SimTime> = (d.schedule.iter())
            .filter(|e| e.kind == UpdateKind::Insert)
            .map(|e| e.at)
            .collect();
        assert!(sighted.len() >= 200, "{} sightings", sighted.len());
        // Replicas of a sighting away from its source: 5 along a row of 6.
        let veh = Symbol::intern("veh");
        let held = |d: &Deployment| -> usize {
            let away = |n: &SensorlogNode| {
                let bound = n.id_bindings().into_iter();
                bound
                    .filter(|(id, p, _)| *p == veh && id.node != n.id)
                    .count()
            };
            d.sim.nodes().map(away).sum()
        };
        // The first sighting (1 s) leaves at 13.5 s: until then everything
        // stored is still stored, `cov` and `uncov` replicas included, and
        // each has an expiry pending.
        d.run(13_499);
        let stored: usize = d.sim.nodes().map(|n| n.replica_count()).sum();
        assert!(held(&d) >= 5 * 100 && stored > held(&d));
        assert!(
            d.sim.max_queue_depth() < stored,
            "a timer per replica again?"
        );
        for tau in (1_000..20_000).step_by(1_000) {
            let leaving = 5 * sighted.iter().filter(|&&at| at == tau).count();
            assert!(leaving > 0);
            d.run(tau + 12_499);
            let before = held(&d);
            d.run(tau + 12_500);
            assert_eq!(before - held(&d), leaving, "generation of {tau}");
        }
        assert_eq!(held(&d), 0);
        d.run(2_000_000);
        assert!(d.sim.is_quiescent());
        let plain = journal.take();

        let mut observed = battlefield_6x6(DeployConfig {
            telemetry: Telemetry::enabled(),
            provenance: Provenance::enabled(),
            ..DeployConfig::default()
        });
        let journal = observed.attach_journal();
        observed.run(2_000_000);
        let observed = journal.take();
        assert_eq!(plain.first_divergence(&observed), None);
        assert_eq!(plain.content_hash(), observed.content_hash());
    }

    /// One `process_probe` / `apply_result` call is one tick of its phase,
    /// although the phase takes the call's wall time and its sim-time lag.
    /// With a `record_sim` beside the span both phases read exactly twice
    /// the node counters.
    #[test]
    fn a_phase_counts_each_call_once() {
        let d = logic_h_5x5(DeployConfig {
            telemetry: Telemetry::enabled(),
            ..DeployConfig::default()
        });
        let snap = d.telemetry_snapshot();
        let probes: u64 = d.node_stats().iter().map(|s| s.probes_processed).sum();
        assert!(probes > 0);
        assert_eq!(snap.phase("core.join.probe").unwrap().count, probes);
        assert_eq!(
            snap.phase("core.result.apply").unwrap().count,
            snap.counter_sum("pred:", "deriv_deltas")
        );
    }

    #[test]
    fn script_skips_comments_and_blanks() {
        let evs = WorkloadEvent::parse_script(
            r#"
            % a comment
            +10 @0 p(1).

            -20 @1 p(1).
            "#,
        )
        .unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].kind, UpdateKind::Delete);
    }
}
