//! Driving of the two `ElasticRunner` workloads: untraced and traced
//! passes over a freshly built stream population, and the measurement
//! loops both workloads share.

use std::time::Instant;

use sqm_core::controller::ExecutionTimeSource;
use sqm_core::elastic::{CycleDriver, ElasticConfig, ElasticRunner, ElasticSummary};
use sqm_core::manager::QualityManager;
use sqm_core::source::ArrivalSource;
use sqm_core::system::ParameterizedSystem;

use crate::ledger::{Ledger, Pass};
use crate::probe::{now_ns, Calibration, SourceLog, TimedSource, TracedDriver};
use crate::stats::{median, quantile};
use crate::{peak_rss_mib, push_outcomes, secs, DeadlineChecks, Report, Settings, TraceDump};

/// A live-stream population a workload can build any number of times,
/// plain (the program's own drivers) or wrapped in the timing probes.
pub trait Population {
    /// Arrival source of one stream.
    type Src: ArrivalSource;
    /// The untraced per-stream driver.
    type Plain<'a>: CycleDriver + Send
    where
        Self: 'a;
    /// The manager the traced driver wraps.
    type M<'a>: QualityManager + Send
    where
        Self: 'a;
    /// The exec source the traced driver wraps.
    type X<'a>: ExecutionTimeSource + Send
    where
        Self: 'a;

    /// The streams' system.
    fn system(&self) -> &ParameterizedSystem;
    /// The runner configuration.
    fn config(&self) -> ElasticConfig;
    /// The untraced population.
    fn plain(&self) -> Vec<(Self::Src, Self::Plain<'_>)>;
    /// The same population behind timing probes recording into `log`;
    /// with `record`, the manager and exec wrappers record their calls
    /// instead of timing a sample.
    #[allow(clippy::type_complexity)]
    fn traced<'l>(
        &'l self,
        log: &'l SourceLog,
        record: bool,
    ) -> Vec<(
        TimedSource<'l, Self::Src>,
        TracedDriver<'l, Self::M<'l>, Self::X<'l>>,
    )>;
    /// A fresh manager, as every stream starts with.
    fn manager(&self) -> Self::M<'_>;
    /// A fresh exec source for stream `j`.
    fn exec(&self, j: usize) -> Self::X<'_>;
}

/// One untraced pass on `workers` workers: the summary and the wall
/// seconds of `ElasticRunner::run` alone (population build excluded).
pub fn run_plain<P: Population>(p: &P, workers: usize) -> (ElasticSummary, f64) {
    let pop = p.plain();
    let t0 = Instant::now();
    let (summary, drivers) = ElasticRunner::new(workers, p.config()).run(pop);
    let wall = secs(t0);
    drop(drivers);
    (summary, wall)
}

/// One traced pass on `workers` workers. A sampled pass only feeds the
/// per-call histograms; a recorded pass has its calls replayed and is
/// folded into `ledger`, and the first one is kept in `dump`. Returns the
/// summary and the traced wall seconds.
pub fn run_traced<P: Population>(
    p: &P,
    workers: usize,
    record: bool,
    cal: &Calibration,
    ledger: &mut Ledger,
    dump: &mut Option<TraceDump>,
) -> Result<(ElasticSummary, f64), String> {
    let log = SourceLog::default();
    let pop = p.traced(&log, record);
    let t0 = now_ns();
    log.begin(t0);
    let (summary, drivers) = ElasticRunner::new(workers, p.config()).run(pop);
    let t1 = now_ns();
    log.finish(t1);
    let wall = (t1 - t0) as f64 / 1e9;
    if !record {
        return Ok((summary, wall));
    }
    let (decides, execs) = crate::probe::drain_records(drivers.len())
        .into_iter()
        .enumerate()
        .map(|(j, (dec, ex))| ((p.manager(), dec), (p.exec(j), ex)))
        .unzip();
    let replay = crate::probe::replay(decides, execs);
    crate::check_replay(&replay, summary.run())?;
    let rounds = log.rounds();
    ledger.add(
        Pass {
            run: (t0, t1),
            spans: Box::new(drivers.iter().flat_map(|d| d.spans())),
            rounds: &rounds,
            actions: summary.run().actions as u64,
            elastic: true,
            replay,
        },
        cal,
    );
    if dump.is_none() {
        *dump = Some(TraceDump::new(
            (t0, t1),
            drivers
                .iter()
                .flat_map(|d| d.spans().iter().copied())
                .collect(),
            rounds.clone(),
        ));
    }
    Ok((summary, wall))
}

/// Check `got` against `reference`; a mismatch fails the pass's frames.
pub fn tally(report: &mut Report, got: &ElasticSummary, reference: &ElasticSummary) {
    let frames = got.ledger().arrived as u64;
    report.attempted += frames;
    if got != reference {
        report.correct = false;
        report.failed += frames;
    }
}

/// The untraced measurement: passes on `workers` workers until the
/// budget runs out, each checked against `reference`, then the
/// end-to-end metrics. `setup_s` is the median set-up time.
pub fn measure<P: Population>(
    p: &P,
    workers: usize,
    s: &Settings,
    reference: &ElasticSummary,
    setup_s: f64,
    name: &str,
) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut walls = Vec::new();
    let end = s.deadline();
    while walls.len() < 3 || Instant::now() < end {
        let (got, wall) = run_plain(p, workers);
        tally(&mut report, &got, reference);
        walls.push(wall);
    }
    let run = reference.run();
    let ledger = reference.ledger();
    let rates: Vec<f64> = walls.iter().map(|w| run.actions as f64 / w).collect();
    let per_cycle: Vec<f64> = walls.iter().map(|w| w * 1e6 / run.cycles as f64).collect();
    let checks = DeadlineChecks::of(p.system(), run, ledger.shed);
    let m = &mut report.metrics;
    m.push("actions_per_s", median(&rates), "1/s");
    m.push("cycle_us_p50", quantile(&per_cycle, 0.5), "us");
    m.push("cycle_us_p99", quantile(&per_cycle, 0.99), "us");
    m.push("setup_s", setup_s, "s");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    push_outcomes(m, run, checks, ledger.arrived, ledger.shed);
    report.notes.push(format!(
        "{name}: {} passes of {} streams on {workers} worker(s), {} cycles and {} actions each; \
         cycle_us is host time per cycle, one sample per pass",
        walls.len(),
        reference.n_streams(),
        run.cycles,
        run.actions
    ));
    report.notes.push(crate::spread_line("pass wall s", &walls));
    report.notes.push(checks.line());
    report
}

/// Walls collected by the traced run, seconds per pass.
#[derive(Default)]
struct TraceWalls {
    /// Untraced, one worker.
    w1: Vec<f64>,
    /// Untraced, `nproc` workers.
    wn: Vec<f64>,
    /// Traced passes.
    traced: Vec<f64>,
    /// The serial fold, where the workload has one.
    fold: Vec<f64>,
}

/// The traced run of an elastic workload. Until the budget runs out it
/// alternates an untraced pass on one worker, one on `nproc` workers, the
/// serial `fold` where given, and a sampled and a recorded traced pass on
/// `traced_workers`. Every
/// pass must reproduce `reference` — the traced ones too (traced ≡
/// untraced) — and the ledger must close; then the per-layer metrics.
#[allow(clippy::too_many_arguments)]
pub fn traced<P: Population>(
    p: &P,
    s: &Settings,
    name: &str,
    traced_workers: usize,
    reference: &ElasticSummary,
    cal: &Calibration,
    setup_times: &[(f64, f64)],
    mut fold: Option<&mut dyn FnMut() -> Result<f64, String>>,
) -> Result<Report, String> {
    let nproc = crate::nproc();
    let mut ledger = Ledger::default();
    let mut dump = None;
    let mut walls = TraceWalls::default();
    let check = |what: &str, got: &ElasticSummary| {
        if got == reference {
            Ok(())
        } else {
            Err(format!(
                "{name}: {what} run differs from the untraced one-worker reference"
            ))
        }
    };
    let end = s.deadline();
    while walls.traced.len() < 2 || Instant::now() < end {
        let (got, w) = run_plain(p, 1);
        check("untraced W=1", &got)?;
        walls.w1.push(w);
        let (got, w) = run_plain(p, nproc);
        check("untraced W=nproc", &got)?;
        walls.wn.push(w);
        if let Some(fold) = fold.as_mut() {
            walls.fold.push(fold()?);
        }
        for record in [false, true] {
            let (got, w) = run_traced(p, traced_workers, record, cal, &mut ledger, &mut dump)?;
            check("traced", &got)?;
            if record {
                walls.traced.push(w);
            }
        }
    }
    ledger.add_hists(&crate::probe::drain_hists());
    if !ledger.closes() {
        return Err(format!(
            "{name}: ledger rows do not sum to the traced wall time"
        ));
    }

    let run = reference.run();
    let book = reference.ledger();
    let actions = run.actions as f64;
    let (w1, wn) = (median(&walls.w1), median(&walls.wn));
    let fold_ns = median(&walls.fold) * 1e9 / actions;
    let elastic_ns = w1 * 1e9 / actions;
    let untraced = if traced_workers == 1 { w1 } else { wn };
    let (_, compile, population) = crate::setup_medians(setup_times);
    let mut report = Report {
        correct: true,
        attempted: (4 * ledger.passes() * book.arrived) as u64,
        ..Report::default()
    };
    ledger.emit(&mut report.metrics, cal, true);
    crate::push_layer_extras(
        &mut report.metrics,
        &crate::LayerExtras {
            probes_per_decide: run.qm_work as f64 / run.qm_calls.max(1) as f64,
            rounds: book.rounds as f64,
            cycles_per_round: run.cycles as f64 / book.rounds.max(1) as f64,
            admitted: book.admitted as f64,
            shed: book.shed as f64,
            peak_backlog: book.peak_backlog as f64,
            admit_ratio: book.admitted as f64 / book.arrived.max(1) as f64,
            speedup_wn: w1 / wn,
            fold_ns_per_action: if walls.fold.is_empty() { 0.0 } else { fold_ns },
            premium: if walls.fold.is_empty() {
                0.0
            } else {
                elastic_ns / fold_ns
            },
            compile_s: compile,
            population_s: population,
            trace_overhead: median(&walls.traced) / untraced,
        },
    );
    report.notes.push(format!(
        "{name} traced: {} rounds of untraced W=1, untraced W={nproc}{}, sampled and recorded \
         traced W={traced_workers}; every pass equals the reference; the replay reproduces each \
         recorded pass; the ledger closes; {} scheduler rounds observed from outside against {} \
         executed",
        walls.traced.len(),
        if walls.fold.is_empty() {
            ""
        } else {
            ", serial fold"
        },
        ledger.rounds_observed(),
        book.rounds * ledger.passes()
    ));
    if !walls.fold.is_empty() {
        report.notes.push(format!(
            "{name}: elastic W=1 {elastic_ns:.1} ns/action, serial fold {fold_ns:.1} ns/action, \
             premium {:.2}x",
            elastic_ns / fold_ns
        ));
    }
    report.notes.push(format!(
        "{name}: untraced wall W=1 {w1:.4} s, W={nproc} {wn:.4} s (medians): {} workers are {}",
        nproc,
        if wn > w1 {
            "slower than 1"
        } else {
            "not slower than 1"
        }
    ));
    report
        .notes
        .push(DeadlineChecks::of(p.system(), run, book.shed).line());
    if let (Some(dir), Some(d)) = (s.out_dir, dump) {
        report.notes.push(d.write(dir, name, s.seed)?);
    }
    Ok(report)
}
