//! `serve-shed`: 10⁴ inference serving streams (`InferExperiment::small`:
//! 16-request batches, 32 actions per cycle, stateful batch-coupled
//! exec) arriving at 2× the sustainable rate, shed fleet-wide by
//! `Admission::DropNewest { global_capacity: streams / 5 }` on
//! `ElasticRunner` with one worker per core.
//!
//! It drives the same elastic layer as `live-micro` differently — through
//! the shed ledger, with heavy per-cycle exec and several workers — so a
//! scheduler change that helps `live-micro` but costs shedding or
//! coordination shows here.

use std::time::{Duration, Instant};

use sqm_bench::{InferDriver, InferExperiment, Workload};
use sqm_core::elastic::{Admission, ElasticConfig, ElasticSummary, EngineDriver};
use sqm_core::engine::{Engine, NullSink};
use sqm_core::manager::LookupManager;
use sqm_core::source::PatternSource;
use sqm_core::system::ParameterizedSystem;
use sqm_infer::BatchCoupledExec;

use crate::live::{self, Population};
use crate::probe::{self, SourceLog, TimedExec, TimedManager, TimedSource, TracedDriver};
use crate::{nproc, repeat_setup, secs, setup_medians, Report, Settings};

/// Arrival-rate multiple of the sustainable rate.
const OVERLOAD: i64 = 2;
/// Ready-ring capacity, as on `live-micro`: fewer, larger rounds leave
/// fewer barrier hand-offs for host noise to stretch.
const RING: usize = 4096;

/// `(streams, frames per stream)`.
fn shape(tiny: bool) -> (usize, usize) {
    if tiny {
        (40, 4)
    } else {
        (10_000, 8)
    }
}

/// The serving experiment and the population's shape. Stream `j` is the
/// experiment's stream `base + j`; the seed sets both the request
/// content and `base`.
pub struct Serve {
    exp: InferExperiment,
    streams: usize,
    frames: usize,
    base: usize,
}

impl Serve {
    /// Build the pipeline and compile its regions; returns the seconds
    /// taken with it.
    pub fn build(seed: u64, tiny: bool) -> (Serve, f64) {
        let t0 = Instant::now();
        let exp = if tiny {
            InferExperiment::tiny(seed)
        } else {
            InferExperiment::small(seed)
        };
        let (streams, frames) = shape(tiny);
        let base = (seed % 4096) as usize * 3 * streams;
        (
            Serve {
                exp,
                streams,
                frames,
                base,
            },
            secs(t0),
        )
    }

    fn engine<M: sqm_core::manager::QualityManager>(&self, manager: M) -> Engine<'_, M> {
        Engine::new(self.exp.system(), manager, self.exp.overhead())
    }

    fn source(&self, j: usize) -> PatternSource {
        self.exp
            .elastic_source(self.base + j, self.frames, OVERLOAD)
    }
}

impl Population for Serve {
    type Src = PatternSource;
    type Plain<'a> = InferDriver<'a>;
    type M<'a> = LookupManager<'a>;
    type X<'a> = BatchCoupledExec<'a>;

    fn system(&self) -> &ParameterizedSystem {
        self.exp.system()
    }

    fn config(&self) -> ElasticConfig {
        ElasticConfig::live()
            .with_ring_capacity(RING)
            .with_admission(Admission::DropNewest {
                global_capacity: self.streams / 5,
            })
    }

    fn plain(&self) -> Vec<(PatternSource, InferDriver<'_>)> {
        (0..self.streams)
            .map(|j| {
                (
                    self.source(j),
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
        TracedDriver<'l, LookupManager<'l>, BatchCoupledExec<'l>>,
    )> {
        (0..self.streams)
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
                    TimedSource::new(self.source(j), log),
                    TracedDriver::new(self.engine(manager), exec, j, self.frames),
                )
            })
            .collect()
    }

    fn manager(&self) -> LookupManager<'_> {
        LookupManager::new(self.exp.regions())
    }

    fn exec(&self, j: usize) -> BatchCoupledExec<'_> {
        self.exp
            .pipeline()
            .exec(self.exp.jitter(), 1_000 + (self.base + j) as u64)
    }
}

fn setup(s: &Settings) -> (Vec<(f64, f64)>, Serve) {
    repeat_setup(Duration::from_secs(1), || {
        let (serve, compile) = Serve::build(s.seed, s.tiny);
        let t0 = Instant::now();
        std::hint::black_box(serve.plain());
        let population = secs(t0);
        (serve, compile, population)
    })
}

/// The gates: elastic(nproc) equals elastic(1), the shed ledger balances
/// (`admitted + shed = arrived`, `stats.dropped = shed`) and the overload
/// really sheds.
fn gates(serve: &Serve, workers: usize) -> Result<ElasticSummary, String> {
    let (reference, _) = live::run_plain(serve, 1);
    let book = *reference.ledger();
    if book.admitted + book.shed != book.arrived || reference.stats().dropped != book.shed {
        return Err(format!(
            "serve-shed: shed ledger does not balance: {book:?}, stats {:?}",
            reference.stats()
        ));
    }
    if book.shed == 0 {
        return Err("serve-shed: a 2x overload must shed".into());
    }
    let (multi, _) = live::run_plain(serve, workers);
    if multi != reference {
        return Err(format!(
            "serve-shed: elastic({workers}) differs from elastic(1)"
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
    let workers = nproc();
    let (times, serve) = setup(&s);
    let reference = gates(&serve, workers)?;
    let setup_s = setup_medians(&times).0;
    let Some(cal) = cal else {
        return Ok(live::measure(
            &serve,
            workers,
            &s,
            &reference,
            setup_s,
            "serve-shed",
        ));
    };

    live::traced(
        &serve,
        &s,
        "serve-shed",
        workers,
        &reference,
        &cal,
        &times,
        None,
    )
}
