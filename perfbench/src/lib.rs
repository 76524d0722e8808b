//! The repository's benchmark.
//!
//! Three workloads drive the program only through its public functions
//! and traits, each from a seed:
//!
//! * [`mpeg`] (`mpeg-closed`) — one paper-scale MPEG stream in a closed
//!   `Engine::run_cycle` loop: manager, engine and exec do all the work;
//! * [`micro`] (`live-micro`) — 10⁵ micro live streams on
//!   `ElasticRunner` with one worker: scheduler and sources dominate;
//! * [`serve`] (`serve-shed`) — 10⁴ overloaded inference streams on
//!   `ElasticRunner` with one worker per core, shedding fleet-wide.
//!
//! An untraced run prints the end-to-end metrics; a traced run wraps the
//! program's traits in [`probe`]'s timers and prints the per-layer
//! [`ledger`]. Both check their workload's correctness gates before any
//! number is printed.

pub mod ledger;
pub mod live;
pub mod micro;
pub mod mpeg;
pub mod probe;
pub mod serve;
pub mod stats;

use std::time::{Duration, Instant};

use sqm_core::engine::RunSummary;
use sqm_core::system::ParameterizedSystem;

use crate::stats::median;

/// The benchmark's workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["mpeg-closed", "live-micro", "serve-shed"];

/// One invocation's settings.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Full size, or the tiny size the smoke tests use.
    pub tiny: bool,
    /// Where a traced run writes its spans (none: keep them in memory).
    pub out_dir: Option<&'static str>,
}

impl Settings {
    /// The instant the measurement budget runs out, counted from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Named metrics in emission order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Append `name = value unit`.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The value of `name`, if emitted.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// What one run reports: the gate verdict, the operation counts and the
/// metrics, plus human-readable lines printed before the result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Frames offered to the program in the measured passes.
    pub attempted: u64,
    /// Of those, frames in passes whose results differed from the
    /// workload's reference.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Deadline accounting for a run: every executed cycle checks each of
/// the system's deadlines once, and a shed frame fails every deadline it
/// carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeadlineChecks {
    /// Deadline checks due.
    pub due: u64,
    /// Checks that failed (missed, or carried by a shed frame).
    pub failed: u64,
}

impl DeadlineChecks {
    /// The checks of `run` plus `shed` frames of `sys`.
    pub fn of(sys: &ParameterizedSystem, run: &RunSummary, shed: usize) -> DeadlineChecks {
        let per_cycle = sys.deadlines().as_slice().iter().flatten().count() as u64;
        DeadlineChecks {
            due: (run.cycles + shed) as u64 * per_cycle,
            failed: run.misses as u64 + shed as u64 * per_cycle,
        }
    }

    /// `failed / due`.
    pub fn miss_rate(&self) -> f64 {
        self.failed as f64 / self.due.max(1) as f64
    }

    /// The accounting line every run prints.
    pub fn line(&self) -> String {
        format!(
            "deadline checks: due {}, succeeded {}, failed {} (miss_rate {:.6})",
            self.due,
            self.due - self.failed,
            self.failed,
            self.miss_rate()
        )
    }
}

/// The virtual-time outcomes every untraced run reports. They are
/// deterministic for a seed; the rates are stated so that none is ever 0:
/// `deadline_hit_rate = 1 − miss_rate`, `admit_rate = 1 − shed_rate`.
pub fn push_outcomes(
    m: &mut Metrics,
    run: &RunSummary,
    checks: DeadlineChecks,
    arrived: usize,
    shed: usize,
) {
    m.push("deadline_hit_rate", 1.0 - checks.miss_rate(), "fraction");
    m.push("avg_quality", run.avg_quality(), "level");
    m.push("qm_overhead_pct", 100.0 * run.overhead_ratio(), "%");
    m.push(
        "admit_rate",
        1.0 - shed as f64 / arrived.max(1) as f64,
        "fraction",
    );
}

/// Repeat a set-up for `budget` (at least 5 and at most 1000 times),
/// timing its two phases; returns each phase's per-repetition seconds and
/// the last result. `build` returns its two phase durations with the
/// result. Many repetitions make the median steady even where one set-up
/// takes well under a millisecond.
pub fn repeat_setup<T>(
    budget: Duration,
    mut build: impl FnMut() -> (T, f64, f64),
) -> (Vec<(f64, f64)>, T) {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        let (out, a, b) = build();
        times.push((a, b));
        if times.len() >= 5 && t0.elapsed() >= budget || times.len() >= 1000 {
            return (times, out);
        }
    }
}

/// Medians of the total, first phase and second phase of set-up times.
pub fn setup_medians(times: &[(f64, f64)]) -> (f64, f64, f64) {
    let total: Vec<f64> = times.iter().map(|(a, b)| a + b).collect();
    let a: Vec<f64> = times.iter().map(|t| t.0).collect();
    let b: Vec<f64> = times.iter().map(|t| t.1).collect();
    (median(&total), median(&a), median(&b))
}

/// `label: n, min, quartiles, max` of `v` — a sample stated with its
/// spread.
pub fn spread_line(label: &str, v: &[f64]) -> String {
    let q = |p| stats::quantile(v, p);
    format!(
        "{label}: n {}, min {:.6}, q1 {:.6}, median {:.6}, q3 {:.6}, max {:.6}",
        v.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    )
}

/// The replay of a recorded pass must have done the pass's manager and
/// exec work.
pub fn check_replay(replay: &probe::Replay, run: &RunSummary) -> Result<(), String> {
    if replay.work == run.qm_work && replay.busy == run.busy {
        Ok(())
    } else {
        Err(format!(
            "replay does not reproduce the recorded pass: work {} vs {}, busy {:?} vs {:?}",
            replay.work, run.qm_work, replay.busy, run.busy
        ))
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker count for multi-worker runs: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-layer metrics that come from summaries and side measurements
/// rather than from spans; 0 where the workload has no such layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerExtras {
    /// Charged table probes per decision (`qm_work / qm_calls`).
    pub probes_per_decide: f64,
    /// Scheduler rounds per pass (`ShedLedger::rounds`).
    pub rounds: f64,
    /// Cycles per scheduler round.
    pub cycles_per_round: f64,
    /// Frames admitted per pass.
    pub admitted: f64,
    /// Frames shed per pass.
    pub shed: f64,
    /// Peak fleet-wide backlog.
    pub peak_backlog: f64,
    /// `admitted / arrived`.
    pub admit_ratio: f64,
    /// Untraced wall(W = 1) ÷ wall(W = nproc) on the same population.
    pub speedup_wn: f64,
    /// Serial `StreamingRunner` + Block fold, ns per action.
    pub fold_ns_per_action: f64,
    /// Elastic W = 1 ns per action ÷ the serial fold's.
    pub premium: f64,
    /// Median set-up time of experiment construction and table
    /// compilation.
    pub compile_s: f64,
    /// Median set-up time of the stream population.
    pub population_s: f64,
    /// Traced pass wall ÷ untraced pass wall.
    pub trace_overhead: f64,
}

/// Append the [`LayerExtras`] metrics.
pub fn push_layer_extras(m: &mut Metrics, x: &LayerExtras) {
    m.push("manager.probes_per_decide", x.probes_per_decide, "probes");
    m.push("elastic.rounds", x.rounds, "count");
    m.push("elastic.cycles_per_round", x.cycles_per_round, "count");
    m.push("elastic.admitted", x.admitted, "count");
    m.push("elastic.shed", x.shed, "count");
    m.push("elastic.peak_backlog", x.peak_backlog, "count");
    m.push("elastic.admit_ratio", x.admit_ratio, "fraction");
    m.push("elastic.speedup_wn", x.speedup_wn, "ratio");
    m.push("stream.fold_ns_per_action", x.fold_ns_per_action, "ns");
    m.push("elastic.premium", x.premium, "ratio");
    m.push("setup.compile_s", x.compile_s, "s");
    m.push("setup.population_s", x.population_s, "s");
    m.push("trace.overhead", x.trace_overhead, "ratio");
}

/// The spans of one traced pass, written out when the run ends.
pub struct TraceDump {
    run: (u64, u64),
    spans: Vec<probe::CycleSpan>,
    rounds: Vec<probe::RoundSpan>,
}

impl TraceDump {
    /// A dump of the pass over host interval `run`.
    pub fn new(
        run: (u64, u64),
        spans: Vec<probe::CycleSpan>,
        rounds: Vec<probe::RoundSpan>,
    ) -> TraceDump {
        TraceDump { run, spans, rounds }
    }

    /// Write the spans as tab-separated rows to `<dir>/<workload>.tsv`,
    /// replacing the previous run's: `name start_ns end_ns parent id
    /// worker`, then for each of `decide`, `exec` and `source` the call
    /// count, timed calls, their summed ns and summed empty-read ns (see
    /// [`probe::Calls`]). The pass row's id is the run's seed; a cycle's id
    /// is `stream:cycle` and its parent the observed round whose interval
    /// holds its start (or the pass, without rounds).
    pub fn write(&self, dir: &str, workload: &str, seed: u64) -> Result<String, String> {
        use std::io::Write;
        let err = |e: std::io::Error| format!("writing trace to {dir}: {e}");
        std::fs::create_dir_all(dir).map_err(err)?;
        let path = format!("{dir}/{workload}.tsv");
        let file = std::fs::File::create(&path).map_err(err)?;
        let mut w = std::io::BufWriter::new(file);
        let calls = |c: &probe::Calls| format!("{}\t{}\t{}\t{}", c.n, c.timed, c.ns, c.empty_ns);
        let none = calls(&probe::Calls::default());
        let mut header = "name\tstart_ns\tend_ns\tparent\tid\tworker".to_string();
        for layer in ["decide", "exec", "source"] {
            for col in ["calls", "timed", "ns", "empty_ns"] {
                header.push_str(&format!("\t{layer}_{col}"));
            }
        }
        writeln!(w, "{header}").map_err(err)?;
        let (s0, s1) = self.run;
        writeln!(w, "pass\t{s0}\t{s1}\t-\t{seed}\t-\t{none}\t{none}\t{none}").map_err(err)?;
        for (k, r) in self.rounds.iter().enumerate() {
            let src = calls(&r.source);
            writeln!(
                w,
                "round\t{}\t{}\tpass:0\t{k}\t-\t{none}\t{none}\t{src}",
                r.start, r.end
            )
            .map_err(err)?;
        }
        for s in &self.spans {
            let parent = match self.rounds.partition_point(|r| r.start <= s.start) {
                0 => "pass:0".to_string(),
                k => format!("round:{}", k - 1),
            };
            let (d, x) = (calls(&s.decide), calls(&s.exec));
            writeln!(
                w,
                "cycle\t{}\t{}\t{parent}\t{}:{}\t{}\t{d}\t{x}\t{none}",
                s.start, s.end, s.stream, s.cycle, s.worker
            )
            .map_err(err)?;
        }
        w.flush().map_err(err)?;
        Ok(format!(
            "trace: {} cycle spans and {} round spans written to {path}",
            self.spans.len(),
            self.rounds.len()
        ))
    }
}

/// Run workload `name`.
pub fn run(name: &str, s: Settings) -> Result<Report, String> {
    match name {
        "mpeg-closed" => mpeg::run(s),
        "live-micro" => micro::run(s),
        "serve-shed" => serve::run(s),
        _ => Err(format!(
            "unknown workload {name:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
