//! `mpeg-closed`: one paper-scale MPEG stream (|A| = 1189, |Q| = 7) in a
//! closed loop of `Engine::run_cycle` calls under the `LookupManager`,
//! on one thread, chained like `Engine::run_cycles` (work-conserving).
//! The Fig. 8 complexity burst runs over every macroblock (1.6×), which
//! holds quality low and costs ~5 table probes per decision.
//!
//! Manager, engine and exec do all the work: no source, scheduler or
//! thread runs, so a scheduler change must show nothing here.

use std::time::{Duration, Instant};

use sqm_bench::{ManagerKind, PaperExperiment, Workload};
use sqm_core::compiler::compile_regions;
use sqm_core::elastic::CycleDriver;
use sqm_core::engine::{CycleChaining, CycleSummary, Engine, NullSink, RunSummary};
use sqm_core::manager::LookupManager;
use sqm_core::regions::QualityRegionTable;
use sqm_core::relaxation::StepSet;
use sqm_core::time::Time;
use sqm_mpeg::{EncoderConfig, EncoderExec, MpegEncoder};
use sqm_platform::overhead;

use crate::ledger::{Ledger, Pass};
use crate::probe::{self, now_ns, TimedExec, TimedManager, TracedDriver};
use crate::stats::{median, quantile};
use crate::{
    peak_rss_mib, push_outcomes, repeat_setup, secs, setup_medians, DeadlineChecks, Report,
    Settings,
};

/// Content jitter of the encoder's execution times (Fig. 8's setting).
const JITTER: f64 = 0.10;
/// The complexity burst laid over every macroblock.
const BURST: f64 = 1.6;

/// Frames of the clip, one cycle each; a measured pass encodes the whole
/// clip. The paper's clip has 29 frames in about four 8-frame scenes
/// whose complexity the seed draws; 40 times as many scenes keep the
/// spread between seeds small.
fn cycles(tiny: bool) -> usize {
    if tiny {
        8
    } else {
        29 * 40
    }
}

fn config(seed: u64, tiny: bool) -> EncoderConfig {
    if tiny {
        EncoderConfig::tiny(seed)
    } else {
        EncoderConfig {
            frames: cycles(false),
            ..EncoderConfig::paper(seed)
        }
    }
}

/// The encoder and its compiled quality regions.
struct Setup {
    enc: MpegEncoder,
    regions: QualityRegionTable,
    seed: u64,
}

impl Setup {
    /// Build the encoder and compile its regions, timing both phases:
    /// `(setup, compile_s, population_s)`. The "population" of a closed
    /// loop is its one engine and exec source.
    fn build(seed: u64, tiny: bool) -> (Setup, f64, f64) {
        let t0 = Instant::now();
        let enc = MpegEncoder::new(config(seed, tiny)).expect("encoder config is feasible");
        let regions = compile_regions(enc.system());
        let compile = secs(t0);
        let st = Setup { enc, regions, seed };
        let t1 = Instant::now();
        std::hint::black_box((st.engine(), st.exec(true)));
        let population = secs(t1);
        (st, compile, population)
    }

    fn engine(&self) -> Engine<'_, LookupManager<'_>> {
        Engine::new(
            self.enc.system(),
            LookupManager::new(&self.regions),
            overhead::regions(),
        )
    }

    fn exec(&self, burst: bool) -> EncoderExec<'_> {
        let exec = self.enc.exec(JITTER, self.seed);
        if burst {
            exec.with_burst(0, self.enc.video().macroblocks() - 1, BURST)
        } else {
            exec
        }
    }
}

/// `cycles` consecutive cycles chained as `Engine::run_cycles` chains
/// them under [`CycleChaining::WorkConserving`].
fn closed_loop(
    cycles: usize,
    period: Time,
    mut cycle: impl FnMut(usize, Time) -> CycleSummary,
) -> RunSummary {
    let mut run = RunSummary::default();
    let mut start = Time::ZERO;
    for c in 0..cycles {
        let s = cycle(c, start);
        run.absorb(&s);
        start = s.end - period;
    }
    run
}

/// One untraced pass, timing each `run_cycle` into `samples` (ns).
fn plain_pass(st: &Setup, cycles: usize, burst: bool, samples: &mut Vec<f64>) -> RunSummary {
    let mut engine = st.engine();
    let mut exec = st.exec(burst);
    closed_loop(cycles, st.enc.config().frame_period, |c, start| {
        let t0 = Instant::now();
        let s = engine.run_cycle(c, start, &mut exec, &mut NullSink);
        samples.push(t0.elapsed().as_nanos() as f64);
        s
    })
}

/// The gates: the per-cycle loop equals the harness's closed loop with
/// the same burst, and — without the burst — `Workload::run_closed`.
fn gates(st: &Setup, tiny: bool) -> Result<RunSummary, String> {
    let n = cycles(tiny);
    let paper = if tiny {
        PaperExperiment::with_config_and_rho(
            config(st.seed, true),
            StepSet::new(vec![1, 2, 3, 4]).expect("valid step set"),
        )
    } else {
        PaperExperiment::with_config(config(st.seed, false))
    };
    let burst = Some((0, st.enc.video().macroblocks() - 1, BURST));
    let reference = paper.run_summary(ManagerKind::Regions, n, JITTER, st.seed, burst);
    let ours = plain_pass(st, n, true, &mut Vec::new());
    if ours != reference {
        return Err(format!(
            "mpeg-closed: per-cycle loop {ours:?} != PaperExperiment closed loop {reference:?}"
        ));
    }
    let k = n.min(8);
    let closed = paper.run_closed(
        k,
        CycleChaining::WorkConserving,
        JITTER,
        st.seed,
        &mut NullSink,
    );
    let ours = plain_pass(st, k, false, &mut Vec::new());
    if ours != closed {
        return Err(format!(
            "mpeg-closed: per-cycle loop {ours:?} != Workload::run_closed {closed:?}"
        ));
    }
    Ok(reference)
}

/// Run the workload.
pub fn run(s: Settings) -> Result<Report, String> {
    if s.trace {
        return run_traced(s);
    }
    let (times, st) = repeat_setup(Duration::from_secs(1), || Setup::build(s.seed, s.tiny));
    let reference = gates(&st, s.tiny)?;
    let n = cycles(s.tiny);

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut rates = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut samples = Vec::with_capacity(n);
    let end = s.deadline();
    while rates.len() < 3 || Instant::now() < end {
        samples.clear();
        let t0 = Instant::now();
        let run = plain_pass(&st, n, true, &mut samples);
        let wall = secs(t0);
        report.attempted += n as u64;
        if run != reference {
            report.correct = false;
            report.failed += n as u64;
        }
        rates.push(run.actions as f64 / wall);
        p50.push(quantile(&samples, 0.5) / 1e3);
        p99.push(quantile(&samples, 0.99) / 1e3);
    }

    let checks = DeadlineChecks::of(st.enc.system(), &reference, 0);
    let m = &mut report.metrics;
    m.push("actions_per_s", median(&rates), "1/s");
    m.push("cycle_us_p50", median(&p50), "us");
    m.push("cycle_us_p99", median(&p99), "us");
    m.push("setup_s", setup_medians(&times).0, "s");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    push_outcomes(m, &reference, checks, reference.cycles, 0);
    report.notes.push(format!(
        "mpeg-closed: {} passes of {n} cycles, each run_cycle timed ({} samples); \
         cycle_us_p50/p99 are medians over passes of each pass's quantile; {} setups",
        rates.len(),
        rates.len() * n,
        times.len()
    ));
    report
        .notes
        .push(crate::spread_line("pass actions/s", &rates));
    report.notes.push(checks.line());
    Ok(report)
}

fn run_traced(s: Settings) -> Result<Report, String> {
    let _guard = probe::TRACE_LOCK.lock().expect("trace lock");
    let cal = probe::calibrate();
    let (times, st) = repeat_setup(Duration::from_secs(1), || Setup::build(s.seed, s.tiny));
    let reference = gates(&st, s.tiny)?;
    let n = cycles(s.tiny);
    let sys = st.enc.system();
    let period = st.enc.config().frame_period;

    let mut ledger = Ledger::default();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut dump = None;
    let end = s.deadline();
    while traced_walls.len() < 2 || Instant::now() < end {
        let t0 = Instant::now();
        let plain = plain_pass(&st, n, true, &mut Vec::with_capacity(n));
        plain_walls.push(secs(t0));
        if plain != reference {
            return Err(format!("mpeg-closed: untraced {plain:?} != {reference:?}"));
        }
        // A sampled pass for the per-call histograms, then a recorded
        // pass for the ledger.
        for record in [false, true] {
            let (manager, exec) = if record {
                (
                    TimedManager::recording(LookupManager::new(&st.regions)),
                    TimedExec::recording(st.exec(true)),
                )
            } else {
                (
                    TimedManager::new(LookupManager::new(&st.regions)),
                    TimedExec::new(st.exec(true)),
                )
            };
            let mut driver =
                TracedDriver::new(Engine::new(sys, manager, overhead::regions()), exec, 0, n);
            let t0 = now_ns();
            let traced = closed_loop(n, period, |c, start| driver.run_cycle(c, start));
            let t1 = now_ns();
            if traced != plain {
                return Err(format!(
                    "mpeg-closed: traced {traced:?} != untraced {plain:?}"
                ));
            }
            if !record {
                continue;
            }
            traced_walls.push((t1 - t0) as f64 / 1e9);
            let (decides, execs) = probe::drain_records(1).remove(0);
            let replay = probe::replay(
                vec![(LookupManager::new(&st.regions), decides)],
                vec![(st.exec(true), execs)],
            );
            crate::check_replay(&replay, &traced)?;
            ledger.add(
                Pass {
                    run: (t0, t1),
                    spans: Box::new(driver.spans().iter()),
                    rounds: &[],
                    actions: traced.actions as u64,
                    elastic: false,
                    replay,
                },
                &cal,
            );
            if dump.is_none() {
                dump = Some(crate::TraceDump::new(
                    (t0, t1),
                    driver.spans().to_vec(),
                    Vec::new(),
                ));
            }
        }
    }
    ledger.add_hists(&probe::drain_hists());
    if !ledger.closes() {
        return Err("mpeg-closed: ledger rows do not sum to the traced wall time".into());
    }

    let mut report = Report {
        correct: true,
        attempted: (3 * ledger.passes() * n) as u64,
        ..Report::default()
    };
    let (_, compile, population) = setup_medians(&times);
    let m = &mut report.metrics;
    ledger.emit(m, &cal, false);
    crate::push_layer_extras(
        m,
        &crate::LayerExtras {
            probes_per_decide: reference.qm_work as f64 / reference.qm_calls.max(1) as f64,
            compile_s: compile,
            population_s: population,
            trace_overhead: median(&traced_walls) / median(&plain_walls),
            ..crate::LayerExtras::default()
        },
    );
    report.notes.push(format!(
        "mpeg-closed traced: {} rounds of untraced, sampled and recorded passes of {n} cycles; \
         traced == untraced on every pass; the replay reproduces each recorded pass; the ledger closes",
        traced_walls.len()
    ));
    report
        .notes
        .push(DeadlineChecks::of(sys, &reference, 0).line());
    if let (Some(dir), Some(d)) = (s.out_dir, dump) {
        report.notes.push(d.write(dir, "mpeg-closed", s.seed)?);
    }
    Ok(report)
}
