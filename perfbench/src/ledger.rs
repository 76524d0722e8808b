//! The per-layer cost ledger: traced passes folded into self times.
//!
//! A traced pass is one measured call into the program (the closed
//! cycle loop, or one `ElasticRunner::run`). Its wall time splits into
//! rows that sum to it exactly:
//!
//! * `manager`, `exec` — the pass's calls replayed on fresh instances
//!   ([`Replay`]): the pass records their arguments instead of timing them;
//! * `engine` — cycle spans minus their manager and exec calls and the
//!   tracing inside them;
//! * `source` — a timed sample of `peek`/`next_arrival` calls on the
//!   scheduler thread, each minus the clock read measured in place right
//!   after it, scaled to all calls (see [`Calls`]);
//! * `trace` — the tracing itself: the clock reads around timed calls and
//!   spans, the calibrated bookkeeping, sampling tests and argument
//!   pushes;
//! * `elastic` — the rest of `ElasticRunner::run`: its self time (heaps,
//!   ring, slot handoff, `StreamCursor`, barriers, idle waits);
//! * `unattributed` — what no span covers: on the closed loop, the loop's
//!   own chaining and bookkeeping between `run_cycle` calls. It is
//!   reported as measured and may be slightly negative when the
//!   calibration overestimates the scaffolding.
//!
//! A replayed call runs without the engine around it — warm caches, no
//! interleaving — so replay can under- or overstate a layer's in-place
//! cost by a little, and `engine`, the residual of the cycle span, takes
//! the difference. `trace.overhead` (traced over untraced wall) states
//! how far the traced run is from the untraced one.
//!
//! With several workers, cycle-side rows are thread time scaled by
//! `union(cycle spans) / Σ cycle spans`, so they cover the wall time
//! during which at least one worker ran a cycle; elastic's self time is
//! the wall time left on the scheduler thread. Per-call and per-action
//! costs are reported in unscaled thread time.

use std::collections::BTreeMap;

use crate::probe::{Calibration, CallHists, Calls, CycleSpan, Replay, RoundSpan};
use crate::stats::median;
use crate::Metrics;

/// One traced pass, as the workload observed it.
pub struct Pass<'a> {
    /// Host start and end of the measured call, ns since the trace epoch.
    pub run: (u64, u64),
    /// Every cycle span, from every driver.
    pub spans: Box<dyn Iterator<Item = &'a CycleSpan> + 'a>,
    /// Observed scheduler rounds (empty without a scheduler).
    pub rounds: &'a [RoundSpan],
    /// Actions the pass executed.
    pub actions: u64,
    /// Whether the call was `ElasticRunner::run` (its self time is the
    /// `elastic` row) rather than a closed loop (whose remainder is
    /// unattributed).
    pub elastic: bool,
    /// The replayed cost of the pass's manager and exec calls.
    pub replay: Replay,
}

/// Ledger rows summed over traced passes, ns of wall time.
#[derive(Clone, Copy, Debug, Default)]
struct Rows {
    /// `QualityManager::decide`.
    pub manager: f64,
    /// `ExecutionTimeSource::actual`.
    pub exec: f64,
    /// `Engine::run_cycle` self time.
    pub engine: f64,
    /// `ArrivalSource` calls.
    pub source: f64,
    /// `ElasticRunner::run` self time.
    pub elastic: f64,
    /// Timing scaffolding.
    pub trace: f64,
    /// Covered by no span.
    pub unattributed: f64,
}

/// Traced passes folded together.
#[derive(Default)]
pub struct Ledger {
    passes: usize,
    wall: f64,
    rows: Rows,
    cycles: u64,
    actions: u64,
    decide: Calls,
    exec: Calls,
    source: Calls,
    /// Replayed exec time, ns (unscaled).
    exec_ns: f64,
    /// Thread-time engine self, ns (unscaled).
    engine_thread: f64,
    rounds_observed: usize,
    busy_min: Vec<f64>,
    busy_max: Vec<f64>,
    idle_s: Vec<f64>,
    hists: CallHists,
}

/// Measure of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

impl Ledger {
    /// Fold one traced pass in.
    pub fn add(&mut self, pass: Pass<'_>, cal: &Calibration) {
        let wall = (pass.run.1 - pass.run.0) as f64;
        let mut decide = Calls::default();
        let mut exec = Calls::default();
        let mut cycles = 0u64;
        let mut thread_ns = 0u64;
        let mut post_ns = 0u64;
        let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
        let mut intervals = Vec::new();
        for s in pass.spans {
            decide.add(s.decide);
            exec.add(s.exec);
            cycles += 1;
            thread_ns += s.end - s.start;
            post_ns += s.done - s.end;
            *busy.entry(s.worker).or_default() += s.end - s.start;
            intervals.push((s.start, s.end));
        }
        let cycle_wall = if busy.len() > 1 {
            union_len(intervals) as f64
        } else {
            thread_ns as f64
        };
        let scale = if thread_ns > 0 {
            cycle_wall / thread_ns as f64
        } else {
            1.0
        };
        let mut source = Calls::default();
        for r in pass.rounds {
            source.add(r.source);
        }

        let manager = pass.replay.decide_ns;
        let exec_ns = pass.replay.exec_ns;
        // The span's own clock reads put one read's latency inside it.
        let trace_in_cycles =
            (decide.n + exec.n) as f64 * cal.record_ns + cycles as f64 * cal.read_ns;
        let engine = thread_ns as f64 - manager - exec_ns - trace_in_cycles;
        let rows = Rows {
            manager: manager * scale,
            exec: exec_ns * scale,
            engine: engine * scale,
            source: source.own_ns(),
            elastic: 0.0,
            trace: (trace_in_cycles + post_ns as f64) * scale + source.scaffold_ns(cal),
            unattributed: 0.0,
        };
        let covered = rows.manager + rows.exec + rows.engine + rows.source + rows.trace;
        let rest = wall - covered;
        let rows = if pass.elastic {
            Rows {
                elastic: rest,
                ..rows
            }
        } else {
            Rows {
                unattributed: rest,
                ..rows
            }
        };

        let r = &mut self.rows;
        r.manager += rows.manager;
        r.exec += rows.exec;
        r.engine += rows.engine;
        r.source += rows.source;
        r.elastic += rows.elastic;
        r.trace += rows.trace;
        r.unattributed += rows.unattributed;
        self.passes += 1;
        self.wall += wall;
        self.cycles += cycles;
        self.actions += pass.actions;
        self.decide.add(decide);
        self.exec.add(exec);
        self.source.add(source);
        self.exec_ns += exec_ns;
        self.engine_thread += engine;
        self.rounds_observed += pass.rounds.len();
        let fracs: Vec<f64> = busy.values().map(|&b| b as f64 / wall).collect();
        self.busy_min
            .push(fracs.iter().copied().fold(f64::INFINITY, f64::min));
        self.busy_max
            .push(fracs.iter().copied().fold(0.0, f64::max));
        self.idle_s
            .push(busy.values().map(|&b| wall - b as f64).sum::<f64>() / 1e9);
    }

    /// Fold the per-call histograms drained after the passes.
    pub fn add_hists(&mut self, h: &CallHists) {
        self.hists.decide.merge(&h.decide);
        self.hists.exec.merge(&h.exec);
        self.hists.source.merge(&h.source);
    }

    /// Traced passes folded in.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Scheduler rounds observed from outside (see [`RoundSpan`]).
    pub fn rounds_observed(&self) -> usize {
        self.rounds_observed
    }

    /// Ledger closure: the rows' shares, unattributed included, sum to 1.
    pub fn closes(&self) -> bool {
        let r = self.rows;
        let sum = r.manager + r.exec + r.engine + r.source + r.elastic + r.trace + r.unattributed;
        self.wall > 0.0 && ((sum - self.wall) / self.wall).abs() < 1e-9
    }

    /// Emit the layer metrics that come from spans and calls.
    pub fn emit(&self, m: &mut Metrics, cal: &Calibration, elastic: bool) {
        let per_pass = |v: f64| v / self.passes.max(1) as f64;
        let share = |v: f64| v / self.wall.max(1.0);
        let per_call = |ns: f64, c: Calls| ns / c.n.max(1) as f64;
        let r = self.rows;
        let q = |h: &crate::stats::Hist, p: f64| (h.quantile(p) - cal.read_ns).max(0.0);

        m.push(
            "manager.decide_calls",
            per_pass(self.decide.n as f64),
            "count",
        );
        m.push("manager.decide_ns_p50", q(&self.hists.decide, 0.5), "ns");
        m.push("manager.decide_ns_p99", q(&self.hists.decide, 0.99), "ns");
        m.push("manager.share", share(r.manager), "fraction");
        m.push("exec.calls", per_pass(self.exec.n as f64), "count");
        m.push("exec.ns_per_call", per_call(self.exec_ns, self.exec), "ns");
        m.push("exec.share", share(r.exec), "fraction");
        m.push("engine.cycles", per_pass(self.cycles as f64), "count");
        m.push(
            "engine.self_ns_per_action",
            self.engine_thread / self.actions.max(1) as f64,
            "ns",
        );
        m.push("engine.share", share(r.engine), "fraction");
        m.push("source.calls", per_pass(self.source.n as f64), "count");
        m.push(
            "source.ns_per_call",
            per_call(self.source.own_ns(), self.source),
            "ns",
        );
        m.push("source.share", share(r.source), "fraction");
        let (self_per_cycle, busy_min, busy_max, idle) = if elastic {
            (
                r.elastic / self.cycles.max(1) as f64,
                median(&self.busy_min),
                median(&self.busy_max),
                median(&self.idle_s),
            )
        } else {
            (0.0, 0.0, 0.0, 0.0)
        };
        m.push("elastic.self_ns_per_cycle", self_per_cycle, "ns");
        m.push("elastic.share", share(r.elastic), "fraction");
        m.push("elastic.worker_busy_frac_min", busy_min, "fraction");
        m.push("elastic.worker_busy_frac_max", busy_max, "fraction");
        m.push("elastic.worker_idle_s", idle, "s");
        m.push("trace.timer_ns", cal.full_ns, "ns");
        m.push("trace.share", share(r.trace), "fraction");
        m.push(
            "trace.unattributed_share",
            share(r.unattributed),
            "fraction",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![(3, 4)]), 1);
        assert_eq!(union_len(Vec::new()), 0);
    }
}
