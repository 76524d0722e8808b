//! Event-driven streaming execution — pulls cycles from an
//! [`ArrivalSource`] onto the shared [`Engine`], with a bounded backlog
//! queue and overload policies.
//!
//! This is the live-operation front-end the paper's quality-manager
//! argument is ultimately about: cycles arrive from capture hardware at
//! times the controller does not choose, queue while the engine is busy,
//! and — under overload — must be shed deliberately rather than by
//! accident. The runner generalizes [`CycleChaining`]:
//!
//! * a [`Periodic`](crate::source::Periodic) source with the
//!   [`OverloadPolicy::Block`] policy reproduces [`Engine::run_cycles`]
//!   **byte-for-byte** under both chaining variants (pinned by test);
//! * any other source models irregular traffic, and the backlog/latency
//!   aggregates in [`StreamStats`] quantify what the closed loop hides.
//!
//! ## Time model
//!
//! The runner keeps one absolute clock. Frame `c` with arrival `A_c` is
//! anchored at `A_c`: the engine runs the cycle with a start *relative to
//! the frame's arrival*, so the system's deadlines read "within `D` of
//! arrival" — exactly the closed loop's per-period deadlines when arrivals
//! are periodic.
//!
//! * [`CycleChaining::WorkConserving`] (file encode): input is
//!   pre-buffered, the engine never idles — a frame may start *before* its
//!   arrival timestamp (negative relative start = banked budget). No frame
//!   is ever dropped; the backlog is the storage.
//! * [`CycleChaining::ArrivalClamped`] (live capture): a frame starts at
//!   `max(previous finish, A_c)`. Frames arriving while the engine is busy
//!   wait in a queue bounded by [`StreamConfig::capacity`] (the frame in
//!   service does not count); an arrival that finds the queue full is
//!   resolved by the [`OverloadPolicy`].
//!
//! Everything is deterministic: results depend only on the source, the
//! seeds and the config — never on host scheduling — so streaming runs
//! shard over [`crate::fleet::FleetRunner`] workers unchanged.
//!
//! [`CycleChaining`]: crate::engine::CycleChaining
//! [`CycleChaining::WorkConserving`]: crate::engine::CycleChaining::WorkConserving
//! [`CycleChaining::ArrivalClamped`]: crate::engine::CycleChaining::ArrivalClamped

use crate::controller::ExecutionTimeSource;
use crate::engine::{CycleChaining, Engine, RunSummary, TraceSink};
use crate::manager::QualityManager;
use crate::source::ArrivalSource;
use crate::time::Time;
use std::collections::VecDeque;

/// What to do when a frame arrives and the backlog queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Backpressure the producer: the frame waits upstream and is
    /// delivered losslessly once space frees. Processing order and start
    /// times are identical to an unbounded queue (the queue-depth
    /// aggregate still reports true demand), which makes `Block` the
    /// policy under which streaming is equivalent to the closed loop.
    #[default]
    Block,
    /// Drop the arriving frame (tail drop): the backlog keeps the oldest
    /// frames, favouring in-order completeness over freshness.
    DropNewest,
    /// Drop the *entire* backlog and keep only the arriving frame: the
    /// live-video discipline — when behind, skip to the latest input.
    SkipToLatest,
}

impl OverloadPolicy {
    /// Display label for reports.
    pub fn label(self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::DropNewest => "drop-newest",
            OverloadPolicy::SkipToLatest => "skip-to-latest",
        }
    }
}

/// How a [`StreamingRunner`] chains, queues and sheds cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// How cycle starts chain onto arrivals (see the module docs).
    pub chaining: CycleChaining,
    /// Backlog bound: how many frames may *wait* (the frame in service is
    /// not counted). Clamped to at least 1. Ignored under
    /// [`CycleChaining::WorkConserving`], where input is pre-buffered.
    pub capacity: usize,
    /// Resolution for arrivals that find the queue full. Ignored under
    /// [`CycleChaining::WorkConserving`].
    pub policy: OverloadPolicy,
}

impl StreamConfig {
    /// The closed loop's configuration: work-conserving chaining, no
    /// effective backlog bound. With a periodic source this is
    /// byte-identical to [`Engine::run_cycles`].
    pub fn closed_loop() -> StreamConfig {
        StreamConfig {
            chaining: CycleChaining::WorkConserving,
            capacity: usize::MAX,
            policy: OverloadPolicy::Block,
        }
    }

    /// Live capture: arrival-clamped starts, a backlog of `capacity`
    /// waiting frames, overload resolved by `policy`.
    pub fn live(capacity: usize, policy: OverloadPolicy) -> StreamConfig {
        StreamConfig {
            chaining: CycleChaining::ArrivalClamped,
            capacity,
            policy,
        }
    }
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig::closed_loop()
    }
}

/// Backlog and latency aggregates of one streaming run — the quantities
/// the closed loop cannot express, accumulated in place (no allocation
/// beyond the runner's queue).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames the source delivered.
    pub arrived: usize,
    /// Frames the engine executed.
    pub processed: usize,
    /// Frames shed by the overload policy (`arrived = processed + dropped`
    /// once the source is drained).
    pub dropped: usize,
    /// Deepest the waiting queue ever got (frame in service not counted).
    pub max_backlog: usize,
    /// Total time processed frames spent waiting between arrival and
    /// start (0 for frames started at or before their arrival).
    pub total_wait: Time,
    /// Worst single frame's wait.
    pub max_wait: Time,
    /// Total arrival-to-completion latency over processed frames
    /// (clamped at 0 for frames completed before arrival under
    /// work-conserving prefetch).
    pub total_latency: Time,
    /// Worst single frame's arrival-to-completion latency.
    pub max_latency: Time,
    /// Absolute completion time of the last processed frame.
    pub makespan: Time,
}

impl StreamStats {
    /// Mean wait per processed frame, in nanoseconds.
    pub fn avg_wait_ns(&self) -> f64 {
        self.total_wait.as_ns() as f64 / self.processed.max(1) as f64
    }

    /// Mean arrival-to-completion latency per processed frame, in
    /// nanoseconds.
    pub fn avg_latency_ns(&self) -> f64 {
        self.total_latency.as_ns() as f64 / self.processed.max(1) as f64
    }

    /// Fraction of arrived frames shed by the overload policy.
    pub fn drop_rate(&self) -> f64 {
        self.dropped as f64 / self.arrived.max(1) as f64
    }

    /// Fold another run's aggregates into this one (the fleet reduction —
    /// counters add, extrema take the max, mirroring
    /// [`RunSummary::merge`]).
    pub fn merge(&mut self, other: &StreamStats) {
        self.arrived += other.arrived;
        self.processed += other.processed;
        self.dropped += other.dropped;
        self.max_backlog = self.max_backlog.max(other.max_backlog);
        self.total_wait += other.total_wait;
        self.max_wait = self.max_wait.max(other.max_wait);
        self.total_latency += other.total_latency;
        self.max_latency = self.max_latency.max(other.max_latency);
        self.makespan = self.makespan.max(other.makespan);
    }
}

/// Everything a finished streaming run reports: the engine's
/// [`RunSummary`] (identical in meaning to the closed loop's) plus the
/// streaming-only [`StreamStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// The engine's whole-run aggregates over the *processed* frames.
    pub run: RunSummary,
    /// Backlog/latency aggregates of the arrival process.
    pub stats: StreamStats,
}

/// Per-stream execution state for anchoring cycles at arrivals — the
/// reusable core of [`StreamingRunner`]'s pull loop, factored out so
/// schedulers that interleave *many* streams ([`crate::elastic`]) can
/// advance one stream a single cycle at a time and still be byte-identical
/// to the per-stream runner.
///
/// A cursor owns exactly the state the time model in the module docs
/// needs: the stream's absolute clock (`now` = completion time of the last
/// executed frame), the accumulating [`RunSummary`] and the
/// [`StreamStats`]. The caller supplies arrivals and runs the engine; the
/// cursor answers "when does the next frame start" ([`StreamCursor::
/// start_for`]) and folds each executed cycle back in
/// ([`StreamCursor::absorb`]).
///
/// # Examples
///
/// Drive one cycle by hand — arrival at 100 ns, engine produces a cycle
/// summary, and the cursor advances its clock to arrival + relative end:
///
/// ```
/// use sqm_core::engine::{CycleChaining, CycleSummary};
/// use sqm_core::stream::StreamCursor;
/// use sqm_core::time::Time;
///
/// let mut cursor = StreamCursor::new();
/// let arrival = Time::from_ns(100);
/// let start = cursor.start_for(CycleChaining::ArrivalClamped, arrival);
/// assert_eq!(start, arrival, "idle stream starts at the arrival");
/// // ... run the engine with start - arrival, obtaining a CycleSummary ...
/// # let mut summary = CycleSummary::new(0, start - arrival);
/// # summary.end = Time::from_ns(40);
/// cursor.absorb(arrival, start, &summary);
/// assert_eq!(cursor.now(), Time::from_ns(140));
/// assert_eq!(cursor.summary().stats.processed, 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCursor {
    now: Time,
    summary: StreamSummary,
}

impl StreamCursor {
    /// A fresh stream: clock at zero, empty aggregates.
    pub fn new() -> StreamCursor {
        StreamCursor::default()
    }

    /// The stream's absolute clock: completion time of the last executed
    /// frame ([`Time::ZERO`] before any frame ran).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Absolute start time of a frame with arrival `arrival` executed
    /// next: `max(now, arrival)` under live capture
    /// ([`CycleChaining::ArrivalClamped`]), `now` under work-conserving
    /// prefetch (the frame may start before it arrives).
    pub fn start_for(&self, chaining: CycleChaining, arrival: Time) -> Time {
        chained_start(chaining, self.now, arrival)
    }

    /// Record one frame delivered by the source.
    pub fn note_arrival(&mut self) {
        self.summary.stats.arrived += 1;
    }

    /// Record one frame shed by an overload/admission policy.
    pub fn note_drop(&mut self) {
        self.note_drops(1);
    }

    /// Record `n` frames shed at once (queue-clearing policies).
    pub fn note_drops(&mut self, n: usize) {
        self.summary.stats.dropped += n;
    }

    /// Record an observed waiting-queue depth (frame in service not
    /// counted); the stats keep the high-water mark.
    pub fn note_backlog(&mut self, depth: usize) {
        self.summary.stats.max_backlog = self.summary.stats.max_backlog.max(depth);
    }

    /// Fold one executed cycle into the stream: advance the clock to
    /// `arrival + cycle.end` (the cycle's end is arrival-relative) and
    /// accumulate the run and wait/latency aggregates. `start_abs` must be
    /// the value [`StreamCursor::start_for`] returned for this frame.
    pub fn absorb(&mut self, arrival: Time, start_abs: Time, cycle: &crate::engine::CycleSummary) {
        self.summary.run.absorb(cycle);
        self.now = arrival + cycle.end;
        let s = &mut self.summary.stats;
        s.processed += 1;
        let wait = (start_abs - arrival).max(Time::ZERO);
        s.total_wait += wait;
        s.max_wait = s.max_wait.max(wait);
        let latency = (self.now - arrival).max(Time::ZERO);
        s.total_latency += latency;
        s.max_latency = s.max_latency.max(latency);
        s.makespan = s.makespan.max(self.now);
    }

    /// The accumulated [`StreamSummary`] so far.
    pub fn summary(&self) -> StreamSummary {
        self.summary
    }
}

/// The start recurrence behind [`StreamCursor::start_for`], for a
/// scheduler that keeps the stream clock `now` apart from the cursor.
pub(crate) fn chained_start(chaining: CycleChaining, now: Time, arrival: Time) -> Time {
    match chaining {
        CycleChaining::ArrivalClamped => now.max(arrival),
        CycleChaining::WorkConserving => now,
    }
}

/// Pulls cycles from an [`ArrivalSource`] onto an [`Engine`].
///
/// The runner owns only its [`StreamConfig`]; manager state lives in the
/// engine and arrival state in the source, so one runner value can drive
/// many streams.
///
/// # Examples
///
/// A live stream with a 2-frame backlog that skips to the latest frame
/// under overload:
///
/// ```
/// use sqm_core::controller::{ConstantExec, OverheadModel};
/// use sqm_core::engine::{Engine, NullSink};
/// use sqm_core::manager::NumericManager;
/// use sqm_core::policy::MixedPolicy;
/// use sqm_core::source::Periodic;
/// use sqm_core::stream::{OverloadPolicy, StreamConfig, StreamingRunner};
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
/// let mut engine = Engine::new(&sys, NumericManager::new(&sys, &policy), OverheadModel::ZERO);
///
/// let runner = StreamingRunner::new(StreamConfig::live(2, OverloadPolicy::SkipToLatest));
/// let out = runner.run(
///     &mut engine,
///     &mut Periodic::new(Time::from_ns(500), 10),
///     &mut ConstantExec::average(sys.table()),
///     &mut NullSink,
/// );
///
/// assert_eq!(out.stats.arrived, 10);
/// assert_eq!(out.stats.processed + out.stats.dropped, 10);
/// assert_eq!(out.run.misses, 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamingRunner {
    config: StreamConfig,
}

impl StreamingRunner {
    /// A runner with the given chaining/backlog/overload configuration.
    pub fn new(config: StreamConfig) -> StreamingRunner {
        StreamingRunner { config }
    }

    /// The runner's configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Drain `source`, executing every admitted frame on `engine` in
    /// arrival order. Per-action records stream into `sink` (dropped
    /// frames produce no records; their cycle indices are skipped).
    pub fn run<M, A, X, S>(
        &self,
        engine: &mut Engine<'_, M>,
        source: &mut A,
        exec: &mut X,
        sink: &mut S,
    ) -> StreamSummary
    where
        M: QualityManager,
        A: ArrivalSource,
        X: ExecutionTimeSource,
        S: TraceSink,
    {
        let StreamConfig {
            chaining,
            capacity,
            policy,
        } = self.config;
        let capacity = capacity.max(1);
        let live = chaining == CycleChaining::ArrivalClamped;

        let mut cursor = StreamCursor::new();
        // Waiting frames as (index, arrival); the frame in service has
        // already been popped. Reused across the whole run.
        let mut queue: VecDeque<(usize, Time)> = VecDeque::new();
        let mut next_index = 0usize;
        let mut last_arrival = Time::ZERO;

        // Pull one arrival, enforcing the non-decreasing contract.
        let pull = |src: &mut A, idx: &mut usize, floor: &mut Time| -> Option<(usize, Time)> {
            let t = src.next_arrival()?.max(*floor);
            *floor = t;
            let i = *idx;
            *idx += 1;
            Some((i, t))
        };

        let mut pending = pull(source, &mut next_index, &mut last_arrival);
        if pending.is_some() {
            cursor.note_arrival();
        }

        loop {
            // Next frame: the backlog's front, else the next arrival (the
            // engine idles until it — or prefetches it, work-conserving).
            let (frame, arrival) = match queue.pop_front() {
                Some(f) => f,
                None => match pending.take() {
                    Some(f) => {
                        pending = pull(source, &mut next_index, &mut last_arrival);
                        if pending.is_some() {
                            cursor.note_arrival();
                        }
                        f
                    }
                    None => break,
                },
            };

            let start_abs = cursor.start_for(chaining, arrival);
            let summary = engine.run_cycle(frame, start_abs - arrival, exec, sink);
            cursor.absorb(arrival, start_abs, &summary);

            // Admit everything that arrived while this frame executed.
            // Pops only happen between frames, so the queue state seen
            // here is exactly the state at each arrival instant.
            while let Some((i, a)) = pending {
                if a > cursor.now() {
                    break;
                }
                pending = pull(source, &mut next_index, &mut last_arrival);
                if pending.is_some() {
                    cursor.note_arrival();
                }
                if live && queue.len() == capacity {
                    match policy {
                        OverloadPolicy::Block => queue.push_back((i, a)),
                        OverloadPolicy::DropNewest => cursor.note_drop(),
                        OverloadPolicy::SkipToLatest => {
                            cursor.note_drops(queue.len());
                            queue.clear();
                            queue.push_back((i, a));
                        }
                    }
                } else {
                    queue.push_back((i, a));
                }
                cursor.note_backlog(queue.len());
            }
        }
        cursor.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ConstantExec, FnExec, OverheadModel};
    use crate::engine::NullSink;
    use crate::manager::NumericManager;
    use crate::policy::MixedPolicy;
    use crate::source::{Bursty, FnSource, Jittered, Periodic, TraceReplay};
    use crate::system::{ParameterizedSystem, SystemBuilder};
    use crate::trace::Trace;

    const PERIOD: Time = Time::from_ns(130);

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .action("d", &[15, 24, 33], &[7, 12, 16])
            .deadline_last(PERIOD)
            .build()
            .unwrap()
    }

    fn engine<'a>(
        s: &'a ParameterizedSystem,
        p: &'a MixedPolicy<'a>,
    ) -> Engine<'a, NumericManager<'a, MixedPolicy<'a>>> {
        Engine::new(
            s,
            NumericManager::new(s, p),
            OverheadModel::new(Time::from_ns(2), Time::from_ns(1)),
        )
    }

    /// Periodic + Block ≡ Engine::run_cycles, byte for byte, under both
    /// chaining variants — the closed loop is a special case.
    #[test]
    fn periodic_block_is_byte_identical_to_closed_loop() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let mut closed_trace = Trace::default();
            let closed = engine(&s, &p).run_cycles(
                7,
                PERIOD,
                chaining,
                &mut ConstantExec::average(s.table()),
                &mut closed_trace,
            );

            let runner = StreamingRunner::new(StreamConfig {
                chaining,
                capacity: 2,
                policy: OverloadPolicy::Block,
            });
            let mut stream_trace = Trace::default();
            let out = runner.run(
                &mut engine(&s, &p),
                &mut Periodic::new(PERIOD, 7),
                &mut ConstantExec::average(s.table()),
                &mut stream_trace,
            );

            assert_eq!(out.run, closed, "{chaining:?}");
            assert_eq!(closed_trace.cycles.len(), stream_trace.cycles.len());
            for (a, b) in closed_trace.cycles.iter().zip(&stream_trace.cycles) {
                assert_eq!(a.cycle, b.cycle);
                assert_eq!(a.start, b.start);
                assert_eq!(a.records, b.records);
            }
            assert_eq!(out.stats.arrived, 7);
            assert_eq!(out.stats.processed, 7);
            assert_eq!(out.stats.dropped, 0);
        }
    }

    /// Slow frames + fast arrivals: DropNewest shes load, keeps order.
    #[test]
    fn drop_newest_sheds_and_preserves_order() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        // Arrivals every 30 ns; each frame takes ~44 ns (averages) — the
        // queue fills, and with capacity 1 the policy has to act.
        let runner = StreamingRunner::new(StreamConfig::live(1, OverloadPolicy::DropNewest));
        let mut trace = Trace::default();
        let out = runner.run(
            &mut engine(&s, &p),
            &mut Periodic::new(Time::from_ns(30), 20),
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        assert_eq!(out.stats.arrived, 20);
        assert!(out.stats.dropped > 0, "overload must shed frames");
        assert_eq!(out.stats.processed + out.stats.dropped, 20);
        assert_eq!(out.stats.processed, out.run.cycles);
        assert_eq!(out.stats.max_backlog, 1, "capacity bound respected");
        let indices: Vec<usize> = trace.cycles.iter().map(|c| c.cycle).collect();
        assert!(indices.windows(2).all(|w| w[0] < w[1]), "in arrival order");
        // Tail drop keeps the oldest frames: frame 0 and 1 both run.
        assert_eq!(&indices[..2], &[0, 1]);
    }

    /// SkipToLatest prefers fresh frames: the last frame always runs.
    #[test]
    fn skip_to_latest_prefers_fresh_frames() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let runner = StreamingRunner::new(StreamConfig::live(1, OverloadPolicy::SkipToLatest));
        let mut trace = Trace::default();
        let out = runner.run(
            &mut engine(&s, &p),
            &mut Periodic::new(Time::from_ns(30), 20),
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        assert!(out.stats.dropped > 0);
        assert_eq!(out.stats.processed + out.stats.dropped, 20);
        let indices: Vec<usize> = trace.cycles.iter().map(|c| c.cycle).collect();
        assert_eq!(*indices.last().unwrap(), 19, "freshest frame survives");
        // Skipping sheds *older* queued frames, so waits stay bounded by
        // roughly one service time; compare against DropNewest.
        let tail_drop = StreamingRunner::new(StreamConfig::live(1, OverloadPolicy::DropNewest))
            .run(
                &mut engine(&s, &p),
                &mut Periodic::new(Time::from_ns(30), 20),
                &mut ConstantExec::average(s.table()),
                &mut NullSink,
            );
        assert!(
            out.stats.max_wait <= tail_drop.stats.max_wait,
            "skip-to-latest never waits longer than tail drop ({} vs {})",
            out.stats.max_wait,
            tail_drop.stats.max_wait,
        );
    }

    /// A burst deeper than capacity exercises the backlog bound; Block
    /// admits past it and processes everything.
    #[test]
    fn block_is_lossless_under_bursts() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let out = StreamingRunner::new(StreamConfig::live(2, OverloadPolicy::Block)).run(
            &mut engine(&s, &p),
            &mut Bursty::new(PERIOD, 6, 48, 11),
            &mut ConstantExec::average(s.table()),
            &mut NullSink,
        );
        assert_eq!(out.stats.arrived, 48);
        assert_eq!(out.stats.processed, 48);
        assert_eq!(out.stats.dropped, 0);
        assert!(out.stats.max_backlog >= 2, "bursts actually queue");
        assert!(out.stats.total_wait > Time::ZERO);
        assert!(out.stats.max_latency >= out.stats.max_wait);
    }

    /// Jittered arrivals with ample headroom: nothing drops, waits are
    /// bounded by the jitter the arrivals inject.
    #[test]
    fn jittered_arrivals_meet_deadlines_with_headroom() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let out = StreamingRunner::new(StreamConfig::live(4, OverloadPolicy::DropNewest)).run(
            &mut engine(&s, &p),
            &mut Jittered::new(PERIOD, Time::from_ns(40), 32, 5),
            &mut ConstantExec::average(s.table()),
            &mut NullSink,
        );
        assert_eq!(out.stats.processed, 32);
        assert_eq!(out.stats.dropped, 0);
        assert_eq!(out.run.misses, 0, "deadlines anchor at arrival");
        assert_eq!(out.stats.makespan, out.stats.makespan.max(Time::ZERO));
    }

    /// TraceReplay drives the runner with recorded timestamps; the engine
    /// idles across gaps and catches up after clumps.
    #[test]
    fn trace_replay_idles_and_catches_up() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let times = vec![
            Time::ZERO,
            Time::from_ns(10),
            Time::from_ns(20),
            Time::from_ns(1_000),
        ];
        let mut trace = Trace::default();
        let out = StreamingRunner::new(StreamConfig::live(8, OverloadPolicy::Block)).run(
            &mut engine(&s, &p),
            &mut TraceReplay::new(times),
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        assert_eq!(out.stats.processed, 4);
        // The last frame starts exactly at its arrival (the engine idled).
        assert_eq!(trace.cycles[3].start, Time::ZERO);
        assert_eq!(
            out.stats.makespan,
            Time::from_ns(1_000) + trace.cycles[3].stats().end
        );
        // The clump made frames 1 and 2 wait.
        assert!(out.stats.total_wait > Time::ZERO);
    }

    /// The runner clamps a misbehaving (non-monotone) source.
    #[test]
    fn non_monotone_sources_are_clamped() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut v = vec![Time::from_ns(500), Time::from_ns(100)].into_iter();
        let out = StreamingRunner::new(StreamConfig::live(4, OverloadPolicy::Block)).run(
            &mut engine(&s, &p),
            &mut FnSource::new(move || v.next()),
            &mut ConstantExec::average(s.table()),
            &mut NullSink,
        );
        assert_eq!(out.stats.processed, 2);
        // Frame 1's arrival is clamped up to 500, so it waits only for
        // frame 0's completion (one service time), never the 400 ns its
        // raw timestamp would imply.
        assert!(out.stats.max_wait < Time::from_ns(400));
    }

    /// Work-conserving streaming prefetches: starts chain back-to-back
    /// regardless of arrival gaps, and nothing is ever dropped.
    #[test]
    fn work_conserving_prefetches_and_never_drops() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let runner = StreamingRunner::new(StreamConfig {
            chaining: CycleChaining::WorkConserving,
            capacity: 1,
            policy: OverloadPolicy::SkipToLatest,
        });
        let out = runner.run(
            &mut engine(&s, &p),
            &mut Periodic::new(Time::from_ns(10_000), 6),
            &mut ConstantExec::average(s.table()),
            &mut NullSink,
        );
        assert_eq!(out.stats.processed, 6, "policy is inert off-line");
        assert_eq!(out.stats.dropped, 0);
        assert_eq!(out.stats.total_wait, Time::ZERO, "prefetch never waits");
    }

    /// Work-conserving prefetch ahead of a late first arrival makes
    /// *every* cycle end negative; `last_end` must report the true
    /// maximum, not the empty-run default of zero.
    #[test]
    fn all_negative_ends_keep_a_negative_last_end() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut trace = Trace::default();
        // Both frames stamped at 1000 ns, but the engine prefetches from
        // absolute time 0: relative starts are -1000 and below, and with
        // ~50 ns of work per frame every relative end stays negative.
        let out = StreamingRunner::new(StreamConfig::closed_loop()).run(
            &mut engine(&s, &p),
            &mut TraceReplay::new(vec![Time::from_ns(1_000); 2]),
            &mut ConstantExec::average(s.table()),
            &mut trace,
        );
        let ends: Vec<Time> = trace.cycles.iter().map(|c| c.stats().end).collect();
        assert!(ends.iter().all(|e| *e < Time::ZERO), "scenario: {ends:?}");
        let max_end = ends.iter().copied().fold(Time::NEG_INF, Time::max);
        assert_eq!(out.run.last_end, max_end, "no zero floor");
        assert!(out.run.last_end < Time::ZERO);
        // All three reduction paths still agree byte-for-byte.
        assert_eq!(trace.run_summary(), out.run);
        let mut merged = RunSummary::default();
        merged.merge(&out.run);
        assert_eq!(merged.last_end, out.run.last_end);
    }

    /// Summaries merge like the fleet layer merges runs.
    #[test]
    fn stream_stats_merge_adds_counters_and_maxes_extrema() {
        let a = StreamStats {
            arrived: 10,
            processed: 8,
            dropped: 2,
            max_backlog: 3,
            total_wait: Time::from_ns(100),
            max_wait: Time::from_ns(40),
            total_latency: Time::from_ns(400),
            max_latency: Time::from_ns(90),
            makespan: Time::from_ns(1_000),
        };
        let b = StreamStats {
            arrived: 5,
            processed: 5,
            dropped: 0,
            max_backlog: 1,
            total_wait: Time::from_ns(10),
            max_wait: Time::from_ns(10),
            total_latency: Time::from_ns(50),
            max_latency: Time::from_ns(120),
            makespan: Time::from_ns(700),
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.arrived, 15);
        assert_eq!(m.processed, 13);
        assert_eq!(m.dropped, 2);
        assert_eq!(m.max_backlog, 3);
        assert_eq!(m.total_wait, Time::from_ns(110));
        assert_eq!(m.max_wait, Time::from_ns(40));
        assert_eq!(m.max_latency, Time::from_ns(120));
        assert_eq!(m.makespan, Time::from_ns(1_000));
        assert!((a.drop_rate() - 0.2).abs() < 1e-12);
        assert!((a.avg_wait_ns() - 12.5).abs() < 1e-12);
        assert!((a.avg_latency_ns() - 50.0).abs() < 1e-12);
    }

    /// An empty source is a no-op.
    #[test]
    fn empty_source_yields_default_summary() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let out = StreamingRunner::new(StreamConfig::default()).run(
            &mut engine(&s, &p),
            &mut Periodic::new(PERIOD, 0),
            &mut ConstantExec::average(s.table()),
            &mut NullSink,
        );
        assert_eq!(out, StreamSummary::default());
    }

    /// Dropped frames consume exec-source cycle indices via the engine's
    /// `cycle` argument: the executed frames' indices match their arrival
    /// indices, keeping content-driven exec sources aligned.
    #[test]
    fn dropped_frames_keep_exec_indices_aligned() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let seen = std::cell::RefCell::new(Vec::new());
        let mut exec = FnExec(|cycle: usize, action: usize, _q| {
            if action == 0 {
                seen.borrow_mut().push(cycle);
            }
            Time::from_ns(40)
        });
        let mut trace = Trace::default();
        let out = StreamingRunner::new(StreamConfig::live(1, OverloadPolicy::DropNewest)).run(
            &mut engine(&s, &p),
            &mut Periodic::new(Time::from_ns(50), 12),
            &mut exec,
            &mut trace,
        );
        assert!(out.stats.dropped > 0);
        let executed: Vec<usize> = trace.cycles.iter().map(|c| c.cycle).collect();
        assert_eq!(*seen.borrow(), executed);
    }
}
