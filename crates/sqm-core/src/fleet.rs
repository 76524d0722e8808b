//! Sharded multi-stream execution — many independent [`Engine`] streams on
//! a thread pool.
//!
//! The paper's quality manager controls *one* stream (one video being
//! encoded, one audio packet pipeline). A production deployment serves
//! many: different inputs, different seeds, different manager
//! configurations, all independent of one another. The natural scaling
//! unit is therefore the **whole stream**, not the action: each worker
//! thread owns a complete monomorphized [`Engine`] run with its own
//! virtual clock and its own [`RunSummary`], and nothing is shared between
//! streams but the read-only compiled tables. This bounds per-worker state
//! the same way the symbolic tables bound per-decision work — scale comes
//! from replicating small independent state, not from locking shared
//! state.
//!
//! The layer is deliberately small:
//!
//! * [`StreamSpec`] — what one stream runs: a caller-defined workload
//!   payload (which system, which manager, which execution-time model)
//!   plus the parameters every stream has (seed, cycle count).
//! * [`FleetRunner`] — partitions a spec list over `N` OS threads via
//!   [`std::thread::scope`] (no extra dependencies, no unsafe). Large
//!   fleets pull the next un-run stream from a shared
//!   cacheline-padded atomic cursor, so uneven stream lengths balance
//!   automatically; small fleets (≤ [`STATIC_SHARD_MAX_STREAMS`]) shard
//!   statically round-robin instead — see the constant's docs for when
//!   each wins. Both paths write results into per-stream slots by index,
//!   so the choice never changes the output.
//! * [`FleetSummary`] — per-stream [`RunSummary`]s in **submission order**
//!   (deterministic regardless of thread scheduling) plus the
//!   [`RunSummary::merge`]d aggregate.
//!
//! Per-cycle interleaving of *live* streams (arrival-ordered scheduling,
//! global admission control) is the next layer up: [`crate::elastic`].
//!
//! Determinism: a stream's result depends only on its spec (the virtual
//! platform is seeded, the engine is single-threaded), so the fleet's
//! output is byte-identical for every worker count — a property the
//! workspace pins with a property test (`tests/fleet.rs`).
//!
//! [`Engine`]: crate::engine::Engine

use crate::engine::RunSummary;
use crate::source::ArrivalSpec;
use crate::time::Time;
use crate::trace::ActionRecord;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads and aligns `T` to a 64-byte cache line so adjacent values never
/// share one — the classic false-sharing fix for hot atomics that sit
/// next to each other in a `Vec` (the fleet's work-pulling cursor, the
/// elastic scheduler's per-worker ring cursors).
///
/// Dereferences to `T`, so call sites stay unchanged:
///
/// ```
/// use sqm_core::fleet::CachePadded;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let cursor = CachePadded::new(AtomicUsize::new(0));
/// assert_eq!(cursor.fetch_add(1, Ordering::Relaxed), 0);
/// assert_eq!(std::mem::align_of_val(&cursor), 64);
/// ```
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }

    /// Unwrap the padded value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Fleets with at most this many streams are sharded **statically**
/// (worker `w` runs streams `w, w + N, w + 2N, …`); larger fleets pull
/// from the shared atomic cursor.
///
/// Static sharding wins for small fleets: there is no cursor cache line
/// to bounce between cores, and with few streams per worker the dynamic
/// path's balancing cannot recoup that traffic — whichever worker drew
/// the longest stream bounds the makespan either way. Dynamic pulling
/// wins once fleets are deep enough that stream-length skew matters:
/// a worker that finishes early takes over queued streams instead of
/// idling. The crossover is workload-dependent; 32 is a conservative
/// point where per-stream work still dominates scheduling cost. Both
/// paths fill the same submission-order slots, so results are identical
/// — only wall-clock changes.
pub const STATIC_SHARD_MAX_STREAMS: usize = 32;

/// One independent stream: a workload payload plus the run parameters
/// every stream shares.
///
/// `W` is whatever the caller needs to reconstruct the stream's engine —
/// typically an enum naming a system/manager pairing, or a reference to a
/// prepared experiment. It must be [`Sync`] because workers borrow specs
/// across threads; compiled tables and systems are plain data, so sharing
/// them by reference is the intended pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSpec<W> {
    /// Caller-defined payload selecting the system, manager configuration
    /// and execution-time source for this stream.
    pub workload: W,
    /// Seed for the stream's stochastic execution-time model.
    pub seed: u64,
    /// Cycles (frames / packets) to run.
    pub cycles: usize,
    /// How the stream's cycles arrive: [`ArrivalSpec::Closed`] (the
    /// default) runs the engine's closed loop; any other pattern makes
    /// the drive closure feed the stream through a
    /// [`crate::stream::StreamingRunner`] — the pattern is plain data, so
    /// specs stay `Copy` and shareable across worker threads.
    pub arrival: ArrivalSpec,
}

impl<W> StreamSpec<W> {
    /// A closed-loop spec (today's behaviour): the engine chains cycles
    /// itself; no event source involved.
    pub fn new(workload: W, seed: u64, cycles: usize) -> StreamSpec<W> {
        StreamSpec {
            workload,
            seed,
            cycles,
            arrival: ArrivalSpec::Closed,
        }
    }

    /// The same stream fed by an event source with the given arrival
    /// pattern.
    pub fn with_arrival(mut self, arrival: ArrivalSpec) -> StreamSpec<W> {
        self.arrival = arrival;
        self
    }
}

/// Per-worker scratch storage, reused across every stream the worker runs.
///
/// The fleet runner clears [`records`](StreamScratch::records) before each
/// stream but never shrinks it, so a worker reaches zero steady-state
/// allocation after its largest stream: wrap it in a
/// [`RecordBuffer`](crate::engine::RecordBuffer) inside the drive closure
/// to capture per-action records, or ignore it and stream into a
/// [`NullSink`](crate::engine::NullSink).
///
/// Cacheline-aligned: each worker owns one, and the alignment keeps two
/// workers' scratch headers (length/capacity words the hot record loop
/// rewrites) from ever sharing a line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct StreamScratch {
    /// Reusable record storage for one stream's trace.
    pub records: Vec<ActionRecord>,
}

/// Everything a finished fleet run reports: per-stream summaries in
/// submission order and their merged aggregate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetSummary {
    per_stream: Vec<RunSummary>,
    aggregate: RunSummary,
}

impl FleetSummary {
    /// Assemble a summary from per-stream results in submission order.
    ///
    /// This is what [`FleetRunner::run`] returns; it is public so serial
    /// reference paths (tests, benches) can build the identical structure
    /// without a runner.
    pub fn from_streams(per_stream: Vec<RunSummary>) -> FleetSummary {
        let mut aggregate = RunSummary::default();
        for s in &per_stream {
            aggregate.merge(s);
        }
        FleetSummary {
            per_stream,
            aggregate,
        }
    }

    /// Number of streams that ran.
    pub fn n_streams(&self) -> usize {
        self.per_stream.len()
    }

    /// Per-stream summaries, indexed by submission order.
    pub fn per_stream(&self) -> &[RunSummary] {
        &self.per_stream
    }

    /// One stream's summary.
    pub fn stream(&self, i: usize) -> &RunSummary {
        &self.per_stream[i]
    }

    /// The [`RunSummary::merge`]d whole-fleet aggregate.
    pub fn aggregate(&self) -> &RunSummary {
        &self.aggregate
    }

    /// `true` when no stream missed a deadline.
    pub fn miss_free(&self) -> bool {
        self.aggregate.misses == 0
    }

    /// The worst per-stream deadline-miss count (0 for an empty fleet).
    pub fn max_stream_misses(&self) -> usize {
        self.per_stream.iter().map(|s| s.misses).max().unwrap_or(0)
    }

    /// The worst per-stream QM overhead ratio (0 for an empty fleet).
    pub fn max_stream_overhead_ratio(&self) -> f64 {
        self.per_stream
            .iter()
            .map(RunSummary::overhead_ratio)
            .fold(0.0, f64::max)
    }

    /// Total virtual-platform time the fleet's streams occupy a processor:
    /// the sum over streams of `qm_overhead + busy`. This is the serial
    /// makespan — what one worker needs on the virtual platform.
    pub fn serial_virtual_time(&self) -> Time {
        self.per_stream.iter().map(|s| s.qm_overhead + s.busy).sum()
    }

    /// The virtual-platform makespan of running this fleet on `workers`
    /// processors with the runner's scheduling discipline (workers pull
    /// streams in submission order; each stream goes to the
    /// earliest-free worker). Deterministic — a modeled quantity computed
    /// from the per-stream summaries, independent of host scheduling.
    pub fn virtual_makespan(&self, workers: usize) -> Time {
        let workers = workers.clamp(1, self.per_stream.len().max(1));
        let mut free = vec![Time::ZERO; workers];
        for s in &self.per_stream {
            let w = (0..workers).min_by_key(|&w| free[w]).expect("workers ≥ 1");
            free[w] += s.qm_overhead + s.busy;
        }
        free.into_iter().max().unwrap_or(Time::ZERO)
    }

    /// Aggregate-throughput speedup of `workers` workers over one, in the
    /// virtual-platform time domain:
    /// `serial_virtual_time / virtual_makespan(workers)`. With many
    /// similar streams this approaches `workers`.
    pub fn virtual_speedup(&self, workers: usize) -> f64 {
        let serial = self.serial_virtual_time().as_ns();
        let makespan = self.virtual_makespan(workers).as_ns();
        if makespan > 0 {
            serial as f64 / makespan as f64
        } else {
            1.0
        }
    }
}

/// Runs a fleet of independent streams across a fixed-size pool of scoped
/// OS threads.
///
/// The runner owns no stream state: the caller supplies a *drive* closure
/// that turns one [`StreamSpec`] into a [`RunSummary`] — typically by
/// constructing a monomorphized [`Engine`](crate::engine::Engine) over
/// shared read-only tables and running it to completion. The closure runs
/// concurrently on multiple threads, so it must be [`Sync`] and take only
/// `&self` captures.
///
/// # Examples
///
/// Shard four seeds of one workload over two workers; the aggregate is
/// identical to running them back to back:
///
/// ```
/// use sqm_core::controller::{ConstantExec, OverheadModel};
/// use sqm_core::engine::{CycleChaining, Engine, NullSink};
/// use sqm_core::fleet::{FleetRunner, StreamSpec};
/// use sqm_core::manager::NumericManager;
/// use sqm_core::policy::MixedPolicy;
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
///
/// let sys = SystemBuilder::new(2)
///     .action("decode", &[100, 200], &[60, 120])
///     .action("render", &[100, 200], &[60, 120])
///     .deadline_last(Time::from_ns(500))
///     .build()
///     .unwrap();
/// let policy = MixedPolicy::new(&sys);
///
/// let specs: Vec<StreamSpec<()>> = (0..4)
///     .map(|seed| StreamSpec::new((), seed, 3))
///     .collect();
///
/// let fleet = FleetRunner::new(2).run(&specs, |spec, _scratch| {
///     let manager = NumericManager::new(&sys, &policy);
///     Engine::new(&sys, manager, OverheadModel::ZERO).run_cycles(
///         spec.cycles,
///         Time::from_ns(500),
///         CycleChaining::WorkConserving,
///         &mut ConstantExec::average(sys.table()),
///         &mut NullSink,
///     )
/// });
///
/// assert_eq!(fleet.n_streams(), 4);
/// assert_eq!(fleet.aggregate().cycles, 12);
/// assert!(fleet.miss_free());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FleetRunner {
    workers: usize,
}

impl FleetRunner {
    /// A runner with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> FleetRunner {
        FleetRunner {
            workers: workers.max(1),
        }
    }

    /// A runner sized to the host's available parallelism (1 when the host
    /// does not report it).
    pub fn with_available_parallelism() -> FleetRunner {
        FleetRunner::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run every spec through `drive`, distributing streams over the
    /// worker pool, and collect the results in submission order.
    ///
    /// With one worker (or one spec) no threads are spawned — the streams
    /// run inline on the caller's thread, which is also the serial
    /// reference path the multi-worker output is guaranteed to match.
    pub fn run<W, F>(&self, specs: &[StreamSpec<W>], drive: F) -> FleetSummary
    where
        W: Sync + fmt::Debug,
        F: Fn(&StreamSpec<W>, &mut StreamScratch) -> RunSummary + Sync,
    {
        let workers = self.workers.min(specs.len().max(1));
        let mut slots: Vec<Option<RunSummary>> = specs.iter().map(|_| None).collect();
        if workers == 1 {
            let mut scratch = StreamScratch::default();
            for (slot, spec) in slots.iter_mut().zip(specs) {
                scratch.records.clear();
                *slot = Some(drive(spec, &mut scratch));
            }
        } else {
            // Small fleets shard statically (no shared cursor traffic);
            // deep fleets pull dynamically so stream-length skew balances.
            // See `STATIC_SHARD_MAX_STREAMS` for the trade-off; the padded
            // cursor keeps the dynamic path's hot atomic off every other
            // shared line.
            let dynamic = specs.len() > STATIC_SHARD_MAX_STREAMS;
            let cursor = CachePadded::new(AtomicUsize::new(0));
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let cursor = &cursor;
                        let drive = &drive;
                        scope.spawn(move || {
                            let mut scratch = StreamScratch::default();
                            let mut local = Vec::new();
                            let mut next_static = w;
                            loop {
                                let i = if dynamic {
                                    cursor.fetch_add(1, Ordering::Relaxed)
                                } else {
                                    let i = next_static;
                                    next_static += workers;
                                    i
                                };
                                let Some(spec) = specs.get(i) else {
                                    break Ok(local);
                                };
                                scratch.records.clear();
                                // Catch per-stream panics so the join can
                                // say *which* stream failed, not just that
                                // some worker died.
                                match catch_unwind(AssertUnwindSafe(|| drive(spec, &mut scratch))) {
                                    Ok(summary) => local.push((i, summary)),
                                    Err(payload) => break Err((i, panic_message(payload))),
                                }
                            }
                        })
                    })
                    .collect();
                for handle in handles {
                    match handle.join().expect("fleet worker died outside drive") {
                        Ok(local) => {
                            for (i, summary) in local {
                                slots[i] = Some(summary);
                            }
                        }
                        Err((i, message)) => panic!(
                            "fleet worker panicked on stream {i} (workload {:?}, seed {}): {message}",
                            specs[i].workload, specs[i].seed,
                        ),
                    }
                }
            });
        }
        FleetSummary::from_streams(
            slots
                .into_iter()
                .map(|s| s.expect("every stream ran exactly once"))
                .collect(),
        )
    }
}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// string literal or a formatted `String` — anything else keeps a
/// placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ConstantExec, OverheadModel};
    use crate::engine::{CycleChaining, Engine, NullSink, RecordBuffer};
    use crate::manager::NumericManager;
    use crate::policy::MixedPolicy;
    use crate::system::{ParameterizedSystem, SystemBuilder};

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .deadline_last(Time::from_ns(110))
            .build()
            .unwrap()
    }

    fn drive(
        sys: &ParameterizedSystem,
        policy: &MixedPolicy,
        spec: &StreamSpec<u8>,
        scratch: &mut StreamScratch,
    ) -> RunSummary {
        let manager = NumericManager::new(sys, policy);
        let mut sink = RecordBuffer::new(&mut scratch.records);
        Engine::new(sys, manager, OverheadModel::ZERO).run_cycles(
            spec.cycles,
            Time::from_ns(110),
            CycleChaining::WorkConserving,
            // Seed-dependent but deterministic actual times.
            &mut crate::controller::FnExec(|cycle, action, q| {
                let wc = sys.table().wc(action, q).as_ns();
                let f = 40 + ((spec.seed as usize + cycle + action) % 50) as i64;
                Time::from_ns(wc * f / 100)
            }),
            &mut sink,
        )
    }

    fn specs(n: usize) -> Vec<StreamSpec<u8>> {
        (0..n)
            .map(|i| StreamSpec::new((i % 3) as u8, i as u64 * 17, 2 + i % 4))
            .collect()
    }

    #[test]
    fn worker_counts_agree_byte_for_byte() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let specs = specs(9);
        let serial = FleetRunner::new(1).run(&specs, |spec, scratch| drive(&s, &p, spec, scratch));
        assert_eq!(serial.n_streams(), 9);
        for workers in 2..=8 {
            let fleet =
                FleetRunner::new(workers).run(&specs, |spec, scratch| drive(&s, &p, spec, scratch));
            assert_eq!(serial, fleet, "workers = {workers}");
        }
    }

    /// A fleet deep enough for the dynamic (cursor-pulling) path produces
    /// the same submission-order results as the serial reference — the
    /// static/dynamic shard choice is invisible in the output.
    #[test]
    fn dynamic_path_agrees_with_serial_beyond_the_static_bound() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let specs = specs(STATIC_SHARD_MAX_STREAMS + 7);
        let serial = FleetRunner::new(1).run(&specs, |spec, scratch| drive(&s, &p, spec, scratch));
        for workers in 2..=4 {
            let fleet =
                FleetRunner::new(workers).run(&specs, |spec, scratch| drive(&s, &p, spec, scratch));
            assert_eq!(serial, fleet, "workers = {workers}");
        }
    }

    #[test]
    fn aggregate_is_merged_per_stream() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let specs = specs(5);
        let fleet = FleetRunner::new(3).run(&specs, |spec, scratch| drive(&s, &p, spec, scratch));
        let mut manual = RunSummary::default();
        for stream in fleet.per_stream() {
            manual.merge(stream);
        }
        assert_eq!(&manual, fleet.aggregate());
        let total_cycles: usize = specs.iter().map(|sp| sp.cycles).sum();
        assert_eq!(fleet.aggregate().cycles, total_cycles);
    }

    #[test]
    fn empty_fleet_is_default() {
        let fleet = FleetRunner::new(4).run::<(), _>(&[], |_, _| RunSummary::default());
        assert_eq!(fleet, FleetSummary::default());
        assert_eq!(fleet.serial_virtual_time(), Time::ZERO);
        assert_eq!(fleet.virtual_makespan(4), Time::ZERO);
    }

    #[test]
    fn more_workers_than_streams_is_fine() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let specs = specs(2);
        let fleet = FleetRunner::new(16).run(&specs, |spec, scratch| drive(&s, &p, spec, scratch));
        assert_eq!(fleet.n_streams(), 2);
    }

    #[test]
    fn virtual_makespan_models_list_scheduling() {
        // Four equal streams: two workers halve the makespan exactly.
        let even = RunSummary {
            busy: Time::from_ns(100),
            ..RunSummary::default()
        };
        let fleet = FleetSummary::from_streams(vec![even; 4]);
        assert_eq!(fleet.serial_virtual_time(), Time::from_ns(400));
        assert_eq!(fleet.virtual_makespan(1), Time::from_ns(400));
        assert_eq!(fleet.virtual_makespan(2), Time::from_ns(200));
        assert_eq!(fleet.virtual_makespan(4), Time::from_ns(100));
        assert!((fleet.virtual_speedup(4) - 4.0).abs() < 1e-12);
        // The makespan never drops below the longest stream.
        let long = RunSummary {
            busy: Time::from_ns(1_000),
            ..RunSummary::default()
        };
        let skewed = FleetSummary::from_streams(vec![long, even, even, even]);
        assert_eq!(skewed.virtual_makespan(8), Time::from_ns(1_000));
    }

    #[test]
    fn scratch_capacity_is_reused_within_a_worker() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let specs = specs(6);
        // Single worker ⇒ one scratch services all streams; capture its
        // capacity trajectory to show it only grows.
        let caps = std::sync::Mutex::new(Vec::new());
        FleetRunner::new(1).run(&specs, |spec, scratch| {
            let summary = drive(&s, &p, spec, scratch);
            caps.lock().unwrap().push(scratch.records.capacity());
            summary
        });
        let caps = caps.into_inner().unwrap();
        assert!(caps.windows(2).all(|w| w[1] >= w[0]), "capacity only grows");
    }

    /// A worker panic must name the failing stream: index, workload
    /// payload and seed — not just "a worker panicked".
    #[test]
    fn worker_panic_names_the_failing_stream() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let specs = specs(6);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            FleetRunner::new(3).run(&specs, |spec, scratch| {
                if spec.seed == 17 * 4 {
                    panic!("injected failure in stream body");
                }
                drive(&s, &p, spec, scratch)
            })
        }));
        let message = panic_message(result.expect_err("the fleet must propagate the panic"));
        assert!(
            message.contains("stream 4"),
            "panic names the stream index: {message}"
        );
        assert!(
            message.contains("workload 1") && message.contains("seed 68"),
            "panic names the payload and seed: {message}"
        );
        assert!(
            message.contains("injected failure in stream body"),
            "panic preserves the original message: {message}"
        );
    }

    #[test]
    fn stats_helpers() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let fleet = FleetRunner::new(2).run(&specs(4), |spec, _scratch| {
            let manager = NumericManager::new(&s, &p);
            let mut sink = NullSink;
            Engine::new(
                &s,
                manager,
                OverheadModel::new(Time::from_ns(2), Time::from_ns(1)),
            )
            .run_cycles(
                spec.cycles,
                Time::from_ns(110),
                CycleChaining::WorkConserving,
                &mut ConstantExec::average(s.table()),
                &mut sink,
            )
        });
        assert!(fleet.miss_free());
        assert_eq!(fleet.max_stream_misses(), 0);
        assert!(fleet.max_stream_overhead_ratio() > 0.0);
        assert!(fleet.max_stream_overhead_ratio() >= fleet.aggregate().overhead_ratio());
    }
}
