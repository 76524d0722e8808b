//! Timing wrappers for the traced run.
//!
//! Each wrapper implements one of the program's public traits around the
//! real implementation and only forwards: it never changes an argument or
//! a result, so a traced run must be byte-identical to an untraced one
//! (every workload checks this). Per-call layers — `decide`, `actual`,
//! `peek`/`next_arrival` — add a count, a summed duration of a sample of
//! the calls (see [`Calls`]) and histogram entries to their enclosing
//! span and their thread's [`SharedHist`]. Timing a call of a few
//! nanoseconds stops the processor from overlapping it with the code
//! around it, so for the ledger the manager and exec wrappers instead
//! record their calls' arguments, and the calls are [`replay`]ed without
//! per-call clock reads afterwards. Cycles become [`CycleSpan`]s kept by
//! their driver, scheduling rounds become [`RoundSpan`]s kept by the
//! [`SourceLog`]. Memory is one span per cycle and per round and a fixed
//! set of histograms per thread, plus the arguments of a recorded pass.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use sqm_core::action::ActionId;
use sqm_core::controller::ExecutionTimeSource;
use sqm_core::elastic::CycleDriver;
use sqm_core::engine::{CycleSummary, Engine, NullSink};
use sqm_core::manager::{Decision, QualityManager};
use sqm_core::quality::Quality;
use sqm_core::source::ArrivalSource;
use sqm_core::time::Time;

use crate::stats::{median, Hist, SharedHist};

/// Nanoseconds since the process's trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One thread's per-call histograms, registered on first use so the
/// benchmark can collect them after the thread has been joined.
pub struct ThreadLog {
    /// Small per-process thread number (spans name their worker by it).
    pub id: u32,
    decide: SharedHist,
    exec: SharedHist,
    source: SharedHist,
    records: Mutex<Records>,
}

/// The manager and exec calls of the recorded cycles one thread ran, in
/// the order it ran them.
#[derive(Default)]
struct Records {
    /// `(stream, cycle, decide calls, exec calls)` per cycle; the calls
    /// follow each other in `decides` and `execs`.
    cycles: Vec<(u32, u32, usize, usize)>,
    decides: Vec<DecideArgs>,
    execs: Vec<ExecArgs>,
}

static REGISTRY: Mutex<Vec<Arc<ThreadLog>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Calls wrapped on this thread so far: the sampling clock.
    static TICK: Cell<u64> = const { Cell::new(0) };
    /// The current cycle's recorded calls: a hot buffer the wrappers push
    /// to, moved into the thread's [`Records`] when the cycle ends.
    static SCRATCH: RefCell<(Vec<DecideArgs>, Vec<ExecArgs>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
    static LOG: Arc<ThreadLog> = {
        let log = Arc::new(ThreadLog {
            id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            decide: SharedHist::default(),
            exec: SharedHist::default(),
            source: SharedHist::default(),
            records: Mutex::default(),
        });
        REGISTRY.lock().expect("trace registry").push(Arc::clone(&log));
        log
    };
}

/// This thread's number.
pub fn thread_id() -> u32 {
    LOG.with(|l| l.id)
}

/// Per-call latency histograms, merged over every thread.
#[derive(Clone, Default)]
pub struct CallHists {
    /// `QualityManager::decide`.
    pub decide: Hist,
    /// `ExecutionTimeSource::actual`.
    pub exec: Hist,
    /// `ArrivalSource::peek` and `next_arrival`.
    pub source: Hist,
}

/// Move every thread's histograms into one [`CallHists`] and forget
/// threads that have exited. Call only while no traced code runs.
pub fn drain_hists() -> CallHists {
    let mut out = CallHists::default();
    let mut reg = REGISTRY.lock().expect("trace registry");
    for log in reg.iter() {
        log.decide.drain_into(&mut out.decide);
        log.exec.drain_into(&mut out.exec);
        log.source.drain_into(&mut out.source);
    }
    reg.retain(|l| Arc::strong_count(l) > 1);
    out
}

/// Take every thread's recorded calls and regroup them per stream, in
/// cycle order: `(decide args, exec args)` for streams `0..streams`.
/// Call only while no traced code runs.
pub fn drain_records(streams: usize) -> Vec<(Vec<DecideArgs>, Vec<ExecArgs>)> {
    let reg = REGISTRY.lock().expect("trace registry");
    let taken: Vec<Records> = reg
        .iter()
        .map(|l| std::mem::take(&mut *l.records.lock().expect("trace records")))
        .collect();
    drop(reg);
    // (stream, cycle, thread, first decide, decides, first exec, execs)
    let mut cycles = Vec::new();
    for (t, r) in taken.iter().enumerate() {
        let (mut d, mut x) = (0, 0);
        for &(stream, cycle, nd, nx) in &r.cycles {
            cycles.push((stream, cycle, t, d, nd, x, nx));
            d += nd;
            x += nx;
        }
    }
    cycles.sort_unstable_by_key(|c| (c.0, c.1));
    let mut out = vec![(Vec::new(), Vec::new()); streams];
    for (stream, _, t, d, nd, x, nx) in cycles {
        let (dec, ex) = &mut out[stream as usize];
        dec.extend_from_slice(&taken[t].decides[d..d + nd]);
        ex.extend_from_slice(&taken[t].execs[x..x + nx]);
    }
    out
}

/// Serializes traced passes: the per-thread histograms and the round flag
/// are process-wide, so two traced passes must not overlap (tests run on
/// parallel threads).
pub static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Set by a driver when it runs a cycle, cleared by the scheduler-side
/// source log when it starts the next round.
static CYCLE_RAN: AtomicBool = AtomicBool::new(false);

/// Which calls are timed: those whose hashed per-thread call number has
/// these bits clear — one in 32, spread so the choice does not lock onto
/// a cycle's action pattern. Timing every call would cost three clock
/// reads per call and swamp calls that take a few nanoseconds; the
/// sample's scaffolding, whose cost is partly calibrated rather than
/// measured, then stays small next to the layers it is subtracted from.
const SAMPLE_MASK: u64 = 31;

/// One layer's calls inside a span: all are counted, a sample is timed.
/// A timed call reads the clock three times — before, after, and straight
/// after again — so the second interval measures, in place, what the
/// clock adds to the first: the call's own time is `ns − empty_ns`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calls {
    /// Calls made.
    pub n: u64,
    /// Of those, calls timed.
    pub timed: u64,
    /// Summed first intervals of the timed calls (call plus one clock
    /// read), ns.
    pub ns: u64,
    /// Summed second intervals (one clock read), ns.
    pub empty_ns: u64,
}

impl Calls {
    /// Fold another tally in.
    pub fn add(&mut self, other: Calls) {
        self.n += other.n;
        self.timed += other.timed;
        self.ns += other.ns;
        self.empty_ns += other.empty_ns;
    }

    /// Time spent in all the wrapped calls themselves, estimated from the
    /// timed sample, ns.
    pub fn own_ns(&self) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        (self.ns as f64 - self.empty_ns as f64) * self.n as f64 / self.timed as f64
    }

    /// Mean cost of one clock read as seen inside an interval, ns.
    pub fn read_ns(&self) -> f64 {
        self.empty_ns as f64 / self.timed.max(1) as f64
    }

    /// Host time the wrapping itself added around the calls, ns: the
    /// clock reads between the timed intervals' ends, the calibrated
    /// bookkeeping after the last read, and the sampling test of the
    /// calls left untimed.
    pub fn scaffold_ns(&self, cal: &Calibration) -> f64 {
        2.0 * self.empty_ns as f64
            + self.timed as f64 * cal.after_ns
            + (self.n - self.timed) as f64 * cal.skip_ns
    }

    #[inline]
    fn time<T>(
        &mut self,
        mask: u64,
        hist: fn(&ThreadLog) -> &SharedHist,
        f: impl FnOnce() -> T,
    ) -> T {
        self.n += 1;
        let tick = TICK.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v
        });
        if (tick.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & mask != 0 {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let t2 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        self.timed += 1;
        self.ns += ns;
        self.empty_ns += (t2 - t1).as_nanos() as u64;
        LOG.with(|l| hist(l).add(ns));
        out
    }
}

/// A recorded `decide` call: `(state, t)`.
pub type DecideArgs = (usize, Time);
/// A recorded `actual` call: `(cycle, action, quality)`.
pub type ExecArgs = (usize, ActionId, Quality);

/// A [`QualityManager`] that counts every `decide` and either times a
/// sample of them or records every call's arguments for [`replay`].
pub struct TimedManager<M> {
    inner: M,
    calls: Calls,
    record: bool,
}

impl<M> TimedManager<M> {
    /// Wrap `inner`, timing a sample of calls.
    pub fn new(inner: M) -> TimedManager<M> {
        TimedManager {
            inner,
            calls: Calls::default(),
            record: false,
        }
    }

    /// Wrap `inner`, recording every call's arguments.
    pub fn recording(inner: M) -> TimedManager<M> {
        TimedManager {
            record: true,
            ..TimedManager::new(inner)
        }
    }

    fn take(&mut self) -> Calls {
        std::mem::take(&mut self.calls)
    }
}

impl<M: QualityManager> QualityManager for TimedManager<M> {
    #[inline]
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let inner = &mut self.inner;
        if self.record {
            SCRATCH.with(|s| s.borrow_mut().0.push((state, t)));
            self.calls.n += 1;
            inner.decide(state, t)
        } else {
            self.calls
                .time(SAMPLE_MASK, |l| &l.decide, || inner.decide(state, t))
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// An [`ExecutionTimeSource`] that counts every `actual` and either times
/// a sample of them or records every call's arguments for [`replay`].
pub struct TimedExec<X> {
    inner: X,
    calls: Calls,
    mask: u64,
    record: bool,
}

impl<X> TimedExec<X> {
    /// Wrap `inner`, timing a sample of calls.
    pub fn new(inner: X) -> TimedExec<X> {
        TimedExec {
            inner,
            calls: Calls::default(),
            mask: SAMPLE_MASK,
            record: false,
        }
    }

    /// Wrap `inner`, recording every call's arguments.
    pub fn recording(inner: X) -> TimedExec<X> {
        TimedExec {
            record: true,
            ..TimedExec::new(inner)
        }
    }

    fn take(&mut self) -> Calls {
        std::mem::take(&mut self.calls)
    }
}

impl<X: ExecutionTimeSource> ExecutionTimeSource for TimedExec<X> {
    #[inline]
    fn actual(&mut self, cycle: usize, action: ActionId, q: Quality) -> Time {
        let inner = &mut self.inner;
        if self.record {
            SCRATCH.with(|s| s.borrow_mut().1.push((cycle, action, q)));
            self.calls.n += 1;
            inner.actual(cycle, action, q)
        } else {
            let mask = self.mask;
            self.calls
                .time(mask, |l| &l.exec, || inner.actual(cycle, action, q))
        }
    }
}

/// The host cost of the manager and exec calls of a recorded pass, found
/// by replaying every recorded call, in order, on fresh instances in a
/// tight loop — so no clock read sits between the calls and the
/// processor overlaps them as it does inside the engine. The replayed
/// outputs are summed so the caller can check that the replay did the
/// pass's work (`qm_work`, `busy`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Replay {
    /// Replayed `decide` time, ns.
    pub decide_ns: f64,
    /// Summed `Decision::work` of the replayed decisions.
    pub work: u64,
    /// Replayed `actual` time, ns.
    pub exec_ns: f64,
    /// Summed replayed execution times.
    pub busy: Time,
}

/// Replay `decides` on their managers, then `execs` on their sources.
pub fn replay<M: QualityManager, X: ExecutionTimeSource>(
    mut decides: Vec<(M, Vec<DecideArgs>)>,
    mut execs: Vec<(X, Vec<ExecArgs>)>,
) -> Replay {
    let mut out = Replay::default();
    let t0 = Instant::now();
    for (m, args) in &mut decides {
        for &(state, t) in args.iter() {
            out.work += black_box(m.decide(state, t)).work;
        }
    }
    out.decide_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    for (x, args) in &mut execs {
        for &(cycle, action, q) in args.iter() {
            out.busy += black_box(x.actual(cycle, action, q));
        }
    }
    out.exec_ns = t0.elapsed().as_nanos() as f64;
    out
}

/// One executed cycle: its host interval, the worker thread that ran it,
/// and its manager and exec calls. Its id is `stream · cycle`.
#[derive(Clone, Copy, Debug)]
pub struct CycleSpan {
    /// Stream index.
    pub stream: u32,
    /// Cycle index within the stream.
    pub cycle: u32,
    /// [`thread_id`] of the thread that ran it.
    pub worker: u32,
    /// Host start, ns since the trace epoch.
    pub start: u64,
    /// Host end, ns since the trace epoch.
    pub end: u64,
    /// When the driver finished recording the span — `done − end` is the
    /// span's own bookkeeping.
    pub done: u64,
    /// `decide` calls inside the cycle.
    pub decide: Calls,
    /// `actual` calls inside the cycle.
    pub exec: Calls,
}

/// A [`CycleDriver`] running one stream's [`Engine`] with timed manager
/// and exec, recording a [`CycleSpan`] per cycle. It calls
/// `Engine::run_cycle` exactly as `sqm_core::elastic::EngineDriver` does,
/// with the same [`NullSink`].
pub struct TracedDriver<'s, M: QualityManager, X> {
    engine: Engine<'s, TimedManager<M>>,
    exec: TimedExec<X>,
    stream: u32,
    spans: Vec<CycleSpan>,
}

impl<'s, M: QualityManager, X: ExecutionTimeSource> TracedDriver<'s, M, X> {
    /// A traced driver for stream `stream`, with room for `cycles` spans
    /// (so recording does not allocate inside the measured run).
    pub fn new(
        engine: Engine<'s, TimedManager<M>>,
        exec: TimedExec<X>,
        stream: usize,
        cycles: usize,
    ) -> TracedDriver<'s, M, X> {
        TracedDriver {
            engine,
            exec,
            stream: stream as u32,
            spans: Vec::with_capacity(cycles),
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[CycleSpan] {
        &self.spans
    }
}

impl<M: QualityManager, X: ExecutionTimeSource> CycleDriver for TracedDriver<'_, M, X> {
    fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary {
        let t0 = now_ns();
        let summary = self
            .engine
            .run_cycle(cycle, start, &mut self.exec, &mut NullSink);
        let t1 = now_ns();
        let decide = self.engine.manager().take();
        let exec = self.exec.take();
        if !CYCLE_RAN.load(Ordering::Relaxed) {
            CYCLE_RAN.store(true, Ordering::Relaxed);
        }
        if self.exec.record {
            let (stream, cycle) = (self.stream, cycle as u32);
            LOG.with(|l| {
                SCRATCH.with(|s| {
                    let (dec, ex) = &mut *s.borrow_mut();
                    let mut r = l.records.lock().expect("trace records");
                    r.cycles.push((stream, cycle, dec.len(), ex.len()));
                    r.decides.append(dec);
                    r.execs.append(ex);
                })
            });
        }
        self.spans.push(CycleSpan {
            stream: self.stream,
            cycle: cycle as u32,
            worker: thread_id(),
            start: t0,
            end: t1,
            done: 0,
            decide,
            exec,
        });
        let last = self.spans.last_mut().expect("just pushed");
        last.done = now_ns();
        summary
    }
}

/// One observed scheduling round on the scheduler thread: from the first
/// source call after cycles ran to the next such call (or the run's end).
/// A round whose refill admits no arrival makes no source call, so it
/// merges into the round before it; the exact round count comes from
/// the program's `ShedLedger::rounds`.
#[derive(Clone, Copy, Debug)]
pub struct RoundSpan {
    /// Host start, ns since the trace epoch.
    pub start: u64,
    /// Host end, ns since the trace epoch.
    pub end: u64,
    /// Source calls made in the round.
    pub source: Calls,
}

/// The scheduler-thread record of source calls and rounds, shared by
/// reference among every [`TimedSource`] of one run.
#[derive(Default)]
pub struct SourceLog {
    open: Cell<u64>,
    calls: Cell<Calls>,
    rounds: RefCell<Vec<RoundSpan>>,
}

impl SourceLog {
    /// Open the first round at `start`, the run's start.
    pub fn begin(&self, start: u64) {
        CYCLE_RAN.store(false, Ordering::Relaxed);
        self.open.set(start);
    }

    /// Close the last round at `end`, the run's end.
    pub fn finish(&self, end: u64) {
        self.close(end);
    }

    fn close(&self, at: u64) {
        self.rounds.borrow_mut().push(RoundSpan {
            start: self.open.get(),
            end: at,
            source: self.calls.take(),
        });
        self.open.set(at);
    }

    /// The recorded rounds.
    pub fn rounds(&self) -> std::cell::Ref<'_, Vec<RoundSpan>> {
        self.rounds.borrow()
    }

    #[inline]
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        // Workers are parked whenever the scheduler calls a source, so
        // this load-then-store cannot race with a driver's store.
        if CYCLE_RAN.load(Ordering::Relaxed) {
            CYCLE_RAN.store(false, Ordering::Relaxed);
            self.close(now_ns());
        }
        let mut c = self.calls.get();
        let out = c.time(SAMPLE_MASK, |l| &l.source, f);
        self.calls.set(c);
        out
    }
}

/// An [`ArrivalSource`] that times every `peek` and `next_arrival`.
pub struct TimedSource<'l, A> {
    inner: A,
    log: &'l SourceLog,
}

impl<'l, A> TimedSource<'l, A> {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: A, log: &'l SourceLog) -> TimedSource<'l, A> {
        TimedSource { inner, log }
    }
}

impl<A: ArrivalSource> ArrivalSource for TimedSource<'_, A> {
    fn next_arrival(&mut self) -> Option<Time> {
        let inner = &mut self.inner;
        self.log.timed(|| inner.next_arrival())
    }

    fn peek(&mut self) -> Option<Time> {
        let inner = &mut self.inner;
        self.log.timed(|| inner.peek())
    }

    fn exhaustion(&self) -> sqm_core::source::Exhaustion {
        self.inner.exhaustion()
    }
}

/// The calibrated cost of wrapping an empty call.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Host time one empty timed call costs in all, ns.
    pub full_ns: f64,
    /// The part of it after the last clock read (tallying and the
    /// histogram), which no interval sees, ns.
    pub after_ns: f64,
    /// One clock read as seen inside an interval, ns.
    pub read_ns: f64,
    /// Host time one empty untimed call costs (the count and the sampling
    /// test), ns.
    pub skip_ns: f64,
    /// Host time one empty recorded call costs (the count and the
    /// argument push), ns.
    pub record_ns: f64,
}

struct Nop;

impl ExecutionTimeSource for Nop {
    #[inline]
    fn actual(&mut self, _: usize, _: ActionId, _: Quality) -> Time {
        Time::ZERO
    }
}

const CALIBRATION_CALLS: u64 = 200_000;

/// Wall ns per call of empty calls through `exec`, and the tally it kept.
fn empty_calls(mut exec: TimedExec<Nop>) -> (f64, Calls) {
    let t0 = Instant::now();
    for i in 0..CALIBRATION_CALLS {
        black_box(exec.actual(black_box(i as usize), 0, Quality::MIN));
    }
    let wall = t0.elapsed().as_nanos() as f64 / CALIBRATION_CALLS as f64;
    (wall, exec.take())
}

/// Time empty calls through [`TimedExec`] — all timed, none timed, all
/// recorded — and report the medians of a few repetitions.
pub fn calibrate() -> Calibration {
    let (mut full, mut after, mut read, mut skip, mut record) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..7 {
        let (wall, c) = empty_calls(TimedExec {
            mask: 0,
            ..TimedExec::new(Nop)
        });
        full.push(wall);
        after.push(wall - (c.ns + c.empty_ns) as f64 / c.timed.max(1) as f64);
        read.push(c.read_ns());
        skip.push(
            empty_calls(TimedExec {
                mask: u64::MAX,
                ..TimedExec::new(Nop)
            })
            .0,
        );
        record.push(empty_calls(TimedExec::recording(Nop)).0);
        SCRATCH.with(|s| s.borrow_mut().1.clear());
    }
    drain_hists();
    Calibration {
        full_ns: median(&full),
        after_ns: median(&after).max(0.0),
        read_ns: median(&read),
        skip_ns: median(&skip),
        record_ns: median(&record),
    }
}
