//! `live-micro`: 10⁵ micro streams (4 actions, 3 qualities) with
//! periodic, jittered and bursty arrivals in turn, run arrival-clamped
//! with unbounded admission on `ElasticRunner` with one worker and a
//! 4096-cycle ring.
//!
//! A cycle's engine work is tiny, so the scheduler's heaps, ring, slot
//! handoff and `StreamCursor`, and the arrival sources, dominate — the
//! elastic premium over the serial streaming fold shows here, and the
//! manager does almost nothing.

use std::time::{Duration, Instant};

use sqm_bench::elastic::{MicroDriver, MicroExec};
use sqm_bench::ElasticExperiment;
use sqm_core::compiler::compile_regions;
use sqm_core::controller::OverheadModel;
use sqm_core::elastic::{ElasticConfig, ElasticSummary, EngineDriver};
use sqm_core::engine::{CycleChaining, Engine, NullSink};
use sqm_core::manager::LookupManager;
use sqm_core::regions::QualityRegionTable;
use sqm_core::source::PatternSource;
use sqm_core::stream::{OverloadPolicy, StreamConfig, StreamSummary, StreamingRunner};
use sqm_core::system::ParameterizedSystem;
use sqm_core::time::Time;

use crate::live::{self, Population};
use crate::probe::{self, SourceLog, TimedExec, TimedManager, TimedSource, TracedDriver};
use crate::{repeat_setup, secs, setup_medians, Report, Settings};

const RING: usize = 4096;
const FRAMES: usize = 3;

fn streams(tiny: bool) -> usize {
    if tiny {
        300
    } else {
        100_000
    }
}

/// The micro experiment's overhead calibration. The smoke test pins it
/// to `ElasticExperiment`'s own by comparing whole runs.
fn overhead() -> OverheadModel {
    OverheadModel::new(Time::from_ns(2), Time::from_ns(1))
}

/// The micro system with its compiled regions. Stream `j` of the
/// population is the experiment's stream `base + j`: the seed moves
/// `base` in steps of whole populations, keeping the arrival-kind mix.
pub struct Micro {
    exp: ElasticExperiment,
    regions: QualityRegionTable,
    base: usize,
}

impl Micro {
    /// Build the system and compile its regions; returns the seconds
    /// taken with it.
    pub fn build(seed: u64, tiny: bool) -> (Micro, f64) {
        let t0 = Instant::now();
        let n = streams(tiny);
        let exp = ElasticExperiment::micro(n, FRAMES);
        let regions = compile_regions(exp.system());
        let base = (seed % 4096) as usize * 3 * n;
        (Micro { exp, regions, base }, secs(t0))
    }

    fn engine<M: sqm_core::manager::QualityManager>(&self, manager: M) -> Engine<'_, M> {
        Engine::new(self.exp.system(), manager, overhead())
    }

    /// The serial reference: each stream alone through `StreamingRunner`
    /// with `Block`, in order, on the same (untraced) population. Returns
    /// the per-stream summaries and the fold's wall seconds.
    pub fn fold(&self) -> (Vec<StreamSummary>, f64) {
        let pop = self.plain();
        let runner = StreamingRunner::new(StreamConfig {
            chaining: CycleChaining::ArrivalClamped,
            capacity: 2,
            policy: OverloadPolicy::Block,
        });
        let t0 = Instant::now();
        let out: Vec<StreamSummary> = pop
            .into_iter()
            .map(|(mut source, driver)| {
                let (mut engine, mut exec, mut sink) = driver.into_parts();
                runner.run(&mut engine, &mut source, &mut exec, &mut sink)
            })
            .collect();
        let wall = secs(t0);
        (out, wall)
    }
}

impl Population for Micro {
    type Src = PatternSource;
    type Plain<'a> = MicroDriver<'a>;
    type M<'a> = LookupManager<'a>;
    type X<'a> = MicroExec<'a>;

    fn system(&self) -> &ParameterizedSystem {
        self.exp.system()
    }

    fn config(&self) -> ElasticConfig {
        ElasticConfig::live().with_ring_capacity(RING)
    }

    fn plain(&self) -> Vec<(PatternSource, MicroDriver<'_>)> {
        (0..self.exp.streams())
            .map(|j| {
                (
                    self.exp.source(self.base + j, 1),
                    EngineDriver::new(self.engine(self.manager()), self.exec(j), NullSink),
                )
            })
            .collect()
    }

    fn traced<'l>(
        &'l self,
        log: &'l SourceLog,
        record: bool,
    ) -> Vec<(
        TimedSource<'l, PatternSource>,
        TracedDriver<'l, LookupManager<'l>, MicroExec<'l>>,
    )> {
        (0..self.exp.streams())
            .map(|j| {
                let (manager, exec) = if record {
                    (
                        TimedManager::recording(self.manager()),
                        TimedExec::recording(self.exec(j)),
                    )
                } else {
                    (
                        TimedManager::new(self.manager()),
                        TimedExec::new(self.exec(j)),
                    )
                };
                (
                    TimedSource::new(self.exp.source(self.base + j, 1), log),
                    TracedDriver::new(self.engine(manager), exec, j, FRAMES),
                )
            })
            .collect()
    }

    fn manager(&self) -> LookupManager<'_> {
        LookupManager::new(&self.regions)
    }

    fn exec(&self, j: usize) -> MicroExec<'_> {
        self.exp.exec(self.base + j)
    }
}

/// Set up `times` several times (system + regions, then the population).
fn setup(s: &Settings) -> (Vec<(f64, f64)>, Micro) {
    repeat_setup(Duration::from_secs(1), || {
        let (micro, compile) = Micro::build(s.seed, s.tiny);
        let t0 = Instant::now();
        std::hint::black_box(micro.plain());
        let population = secs(t0);
        (micro, compile, population)
    })
}

/// The gate: elastic(1) equals the serial fold per stream, byte for
/// byte, and executes every frame.
fn gates(micro: &Micro) -> Result<ElasticSummary, String> {
    let (reference, _) = live::run_plain(micro, 1);
    let (fold, _) = micro.fold();
    if reference.per_stream() != &fold[..] {
        return Err(
            "live-micro: elastic(1) differs from the serial StreamingRunner+Block fold".into(),
        );
    }
    if reference.stats().processed != reference.ledger().arrived || reference.ledger().shed != 0 {
        return Err(format!(
            "live-micro: unbounded admission must execute every frame: {:?}",
            reference.ledger()
        ));
    }
    Ok(reference)
}

/// Run the workload.
pub fn run(s: Settings) -> Result<Report, String> {
    let _guard = s
        .trace
        .then(|| probe::TRACE_LOCK.lock().expect("trace lock"));
    let cal = s.trace.then(probe::calibrate);
    let (times, micro) = setup(&s);
    let reference = gates(&micro)?;
    let setup_s = setup_medians(&times).0;
    let Some(cal) = cal else {
        return Ok(live::measure(
            &micro,
            1,
            &s,
            &reference,
            setup_s,
            "live-micro",
        ));
    };

    live::traced(
        &micro,
        &s,
        "live-micro",
        1,
        &reference,
        &cal,
        &times,
        Some(&mut || {
            let (fold, wall) = micro.fold();
            if reference.per_stream() == &fold[..] {
                Ok(wall)
            } else {
                Err("live-micro: serial fold differs from elastic(1)".into())
            }
        }),
    )
}
