//! Elastic fleet scheduling — 10⁵–10⁶ *live* streams multiplexed onto few
//! workers, interleaved **by arrival time** instead of sharded whole.
//!
//! [`crate::fleet::FleetRunner`] scales out by giving each worker entire
//! streams; that is the right unit when streams are closed loops, but a
//! live deployment has many mostly-idle streams whose cycles *interleave*
//! in time. This module schedules at cycle granularity:
//!
//! * a **monotone radix queue** of arrival events — each stream's next
//!   virtual arrival, obtained without consumption via
//!   [`ArrivalSource::peek`] — bucketed on time alone and popped in exact
//!   `(time, stream)` order. Every key pushed is at least the key last
//!   popped (a stream's next arrival never precedes its current one),
//!   which is all a radix queue needs;
//! * a **start-event heap** ([`EventHeap`]) keyed by the absolute start
//!   time of each stream's next queued cycle. A frame that finds its
//!   stream idle and may start at its arrival skips the heap: that start
//!   is the global minimum, so the next iteration would pop it anyway;
//! * a fixed-capacity **ready ring**: each scheduling round drains due
//!   events into at most [`ElasticConfig::ring_capacity`] jobs. A job
//!   carries its stream's driver out **by value** and brings it back with
//!   the cycle's [`CycleSummary`], which the scheduler folds into the
//!   stream's [`StreamCursor`] when the round completes;
//! * **per-stream state split by temperature**: everything an event reads
//!   (timestamp clamp, stream clock, frame index, queue heads, backlog
//!   counters, in-flight flag) sits in one 64-byte record per stream;
//!   sources, cursors and drivers each have a column of their own, read
//!   only by the event that needs them. Every stream's queue of admitted
//!   frames and of completions lives in **one shared, free-listed node
//!   slab**, so a steady population stops allocating;
//! * **owned segments on persistent workers**: with `W > 1` workers the
//!   ring is dealt round-robin into `W` segments; the caller's thread runs
//!   segment 0 and `W − 1` scoped threads, alive for the whole run, run
//!   the others, each segment handed over and back through a channel. No
//!   lock guards any stream: a job's driver belongs to whoever holds the
//!   job;
//! * **fleet-wide admission control** ([`Admission::DropNewest`]): a
//!   shared [`ShedLedger`] counts the *aggregate* backlog, and a frame is
//!   shed iff its stream is already behind **and** the fleet as a whole
//!   is over capacity — load shedding as a global decision, not a
//!   per-stream one.
//!
//! ## The determinism contract
//!
//! Results are **byte-identical for every worker count**. The design
//! splits the problem in two:
//!
//! 1. *Virtual-time scheduling* — which frames are admitted or shed, and
//!    when each admitted cycle starts — is computed by a serial,
//!    deterministic discrete-event loop over the queues. Nothing in it
//!    reads the worker count: the arrival queue pops events in exact
//!    `(time, stream)` order, and the ring capacity is configuration, not
//!    `workers`.
//! 2. *Host execution* — which worker runs which job — only maps
//!    already-scheduled work onto threads. Streams are independent, a
//!    stream has at most one job per round, and the scheduler folds the
//!    round back in only after every segment has run, so the mapping
//!    changes wall-clock time, never results.
//!
//! Per-stream results under [`Admission::Unbounded`] are identical to
//! running each stream through [`crate::stream::StreamingRunner`] with
//! [`OverloadPolicy::Block`] — the per-stream recurrence (`start =
//! max(now, arrival)` live, `start = now` work-conserving; `now = arrival
//! + end`) is the same code, [`StreamCursor`]. That identity covers the
//! *full* struct, [`StreamStats::max_backlog`] included: the scheduler
//! admits arrivals whenever the event loop reaches them (which may be
//! rounds earlier than the per-stream runner would have), so instead of
//! sampling its own queue depths it keeps a per-stream shadow account
//! that replays each admitted arrival against the stream's completion
//! times at *admission granularity* — the depth the per-stream runner
//! observes is `j − #{completions < arrival_j}` for the stream's `j`-th
//! admitted arrival, a pure function of the arrival and completion
//! sequences, not of ring capacity, round boundaries or worker count.
//! `tests/conformance.rs` pins the identity field-for-field.
//!
//! ## Admission semantics
//!
//! Admission is **round-granular**: a frame is judged when the event loop
//! reaches its arrival, against the backlog accumulated so far. A frame
//! counts toward the global backlog iff, at admission, its stream is
//! already behind (a cycle in flight or frames queued); a frame that
//! finds its stream idle starts promptly and is never counted or shed.
//! Shed frames still consume their stream's cycle index, keeping
//! content-driven execution-time sources aligned (same rule as
//! [`crate::stream`]).
//!
//! ## Panics
//!
//! A panicking [`CycleDriver`] stops its round: [`ElasticRunner::run`]
//! waits for the other segments, then re-raises with a message naming
//! the stream index and frame, at every worker count.
//!
//! [`OverloadPolicy::Block`]: crate::stream::OverloadPolicy::Block
//! [`StreamStats::max_backlog`]: crate::stream::StreamStats::max_backlog

use crate::controller::ExecutionTimeSource;
use crate::engine::{CycleChaining, CycleSummary, Engine, RunSummary, TraceSink};
use crate::fleet::panic_message;
use crate::manager::QualityManager;
use crate::source::ArrivalSource;
use crate::stream::{chained_start, StreamCursor, StreamStats, StreamSummary};
use crate::time::Time;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

/// A hand-rolled binary min-heap of `(time, stream)` events.
///
/// Keys are totally ordered (ties broken by stream id), `push`/`pop` are
/// `O(log n)` with no allocation beyond the backing `Vec` — the only heap
/// operations the scheduler's hot loop needs, without pulling in
/// `BinaryHeap`'s max-order and `Reverse` wrappers.
///
/// # Examples
///
/// ```
/// use sqm_core::elastic::EventHeap;
/// use sqm_core::time::Time;
///
/// let mut heap = EventHeap::new();
/// heap.push(Time::from_ns(30), 2);
/// heap.push(Time::from_ns(10), 7);
/// heap.push(Time::from_ns(10), 3);
/// assert_eq!(heap.pop(), Some((Time::from_ns(10), 3)), "time, then id");
/// assert_eq!(heap.pop(), Some((Time::from_ns(10), 7)));
/// assert_eq!(heap.pop(), Some((Time::from_ns(30), 2)));
/// assert_eq!(heap.pop(), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EventHeap {
    items: Vec<(Time, u32)>,
}

impl EventHeap {
    /// An empty heap.
    pub fn new() -> EventHeap {
        EventHeap::default()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The minimum event without removing it.
    pub fn peek(&self) -> Option<(Time, u32)> {
        self.items.first().copied()
    }

    /// Queue an event.
    pub fn push(&mut self, time: Time, stream: u32) {
        self.items.push((time, stream));
        let mut i = self.items.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.items[parent] <= self.items[i] {
                break;
            }
            self.items.swap(parent, i);
            i = parent;
        }
    }

    /// Remove and return the minimum event.
    pub fn pop(&mut self) -> Option<(Time, u32)> {
        if self.items.is_empty() {
            return None;
        }
        let min = self.items.swap_remove(0);
        let n = self.items.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.items[r] < self.items[l] {
                r
            } else {
                l
            };
            if self.items[i] <= self.items[child] {
                break;
            }
            self.items.swap(i, child);
            i = child;
        }
        Some(min)
    }
}

/// A monotone radix queue of `(time, stream)` events: the arrival queue.
///
/// Buckets are keyed on **time alone** (the `i64` with its sign bit
/// flipped, so the unsigned order is the signed one). Bucket 0 holds the
/// entries at `last` — the time of the minimum last popped or peeked —
/// in descending stream order, so the minimum is at the back; bucket
/// `b ≥ 1` holds the entries whose highest time bit differing from
/// `last` is bit `b − 1`. Pushes must not undercut the `(time, stream)`
/// minimum last popped or peeked (checked in debug builds). The arrival
/// loop meets that by construction: a stream re-keys only right after
/// its own event popped, on a timestamp clamped to at least that
/// event's. Pop order is then the exact sorted `(time, stream)` order.
///
/// A push is `O(1)`. A push at time `last` comes from the stream just
/// popped (a burst), which is below every entry left in bucket 0, so it
/// joins the back and keeps the order; any other push there marks bucket
/// 0 for one re-sort before the next pop. A pop that finds bucket 0 empty
/// redistributes the first occupied bucket — each entry moves to a
/// strictly lower bucket, so at most 64 times over its life — and sorts
/// the entries landing in bucket 0 by stream once. Streams sharing a
/// timestamp therefore never re-sort through their ids. An emptied bucket
/// keeps its storage only while all buckets together hold at most twice
/// the live count (small buckets always keep theirs), so the storage held
/// stays `O(live events)` and a steady population stops allocating.
#[derive(Debug)]
struct RadixQueue {
    buckets: Vec<Vec<Arrival>>,
    /// Bit `b − 1` set iff bucket `b ≥ 1` is non-empty.
    occupied: u64,
    last: u64,
    /// Bucket 0 is in descending stream order.
    sorted: bool,
    /// The least entry a push may carry: the minimum last popped or
    /// peeked.
    floor: Arrival,
    len: usize,
    /// Entries the buckets can hold without growing (the sum of their
    /// capacities), kept up to date as they grow and shrink.
    storage: usize,
}

/// One queued arrival event: a radix time key and its stream, ordered
/// as `(time, stream)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    time: u64,
    stream: u32,
}

/// Buckets: one per possible highest differing bit of a `u64`, plus 0.
const RADIX_BUCKETS: usize = 65;

/// Emptied buckets up to this capacity always keep their storage.
const RADIX_SPARE: usize = 256;

impl RadixQueue {
    fn new() -> RadixQueue {
        RadixQueue {
            buckets: vec![Vec::new(); RADIX_BUCKETS],
            occupied: 0,
            last: 0,
            sorted: true,
            floor: Arrival { time: 0, stream: 0 },
            len: 0,
            storage: 0,
        }
    }

    fn key(time: Time) -> u64 {
        (time.as_ns() as u64) ^ (1 << 63)
    }

    fn unkey(entry: Arrival) -> (Time, u32) {
        (Time::from_ns((entry.time ^ (1 << 63)) as i64), entry.stream)
    }

    fn insert(&mut self, entry: Arrival) {
        let b = (64 - (entry.time ^ self.last).leading_zeros()) as usize;
        let bucket = &mut self.buckets[b];
        let capacity = bucket.capacity();
        bucket.push(entry);
        self.storage += bucket.capacity() - capacity;
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
    }

    fn push(&mut self, time: Time, stream: u32) {
        let entry = Arrival {
            time: RadixQueue::key(time),
            stream,
        };
        debug_assert!(
            entry >= self.floor,
            "non-monotone push {:?} below {:?}",
            (time, stream),
            RadixQueue::unkey(self.floor)
        );
        if entry.time == self.last && self.buckets[0].last().is_some_and(|e| e.stream < stream) {
            self.sorted = false;
        }
        self.insert(entry);
        self.len += 1;
    }

    /// Bring the minimum to the back of bucket 0 and return it.
    fn settle(&mut self) -> Option<Arrival> {
        if self.buckets[0].is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize + 1;
            self.occupied &= self.occupied - 1;
            let mut entries = std::mem::take(&mut self.buckets[b]);
            self.storage -= entries.capacity();
            self.last = entries
                .iter()
                .map(|e| e.time)
                .min()
                .expect("occupied bucket");
            for &entry in &entries {
                self.insert(entry);
            }
            entries.clear();
            if entries.capacity() <= RADIX_SPARE
                || self.storage + entries.capacity() <= 2 * self.len
            {
                self.storage += entries.capacity();
                self.buckets[b] = entries;
            }
            self.sorted = false;
        }
        let zero = &mut self.buckets[0];
        if !self.sorted {
            zero.sort_unstable_by_key(|e| std::cmp::Reverse(e.stream));
            self.sorted = true;
        }
        let min = *zero.last().expect("bucket 0 is occupied");
        self.floor = min;
        Some(min)
    }

    /// The minimum event, without removing it.
    fn peek(&mut self) -> Option<(Time, u32)> {
        self.settle().map(RadixQueue::unkey)
    }

    /// Remove and return the minimum event.
    fn pop(&mut self) -> Option<(Time, u32)> {
        let min = self.settle()?;
        self.buckets[0].pop();
        self.len -= 1;
        Some(RadixQueue::unkey(min))
    }
}

/// Fleet-wide admission control for arriving frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Admit every frame (backpressure upstream). Per-stream results are
    /// identical to [`crate::stream::StreamingRunner`] with
    /// [`OverloadPolicy::Block`](crate::stream::OverloadPolicy::Block).
    #[default]
    Unbounded,
    /// Tail-drop against the **aggregate** backlog: an arriving frame
    /// whose stream is already behind is shed iff the fleet-wide count of
    /// behind frames has reached `global_capacity`. Streams that keep up
    /// are never shed, no matter how overloaded the rest of the fleet is.
    DropNewest {
        /// Fleet-wide bound on frames waiting behind a busy stream.
        global_capacity: usize,
    },
}

/// The shared shed ledger: fleet-wide admission counters, maintained by
/// the (serial, deterministic) scheduling loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShedLedger {
    /// Frames delivered by all sources.
    pub arrived: usize,
    /// Frames admitted (executed eventually).
    pub admitted: usize,
    /// Frames shed by [`Admission::DropNewest`].
    pub shed: usize,
    /// High-water mark of the aggregate backlog (frames queued behind
    /// busy streams, fleet-wide).
    pub peak_backlog: usize,
    /// Scheduling rounds executed (ring refills).
    pub rounds: usize,
}

/// How an [`ElasticRunner`] chains, batches and sheds cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElasticConfig {
    /// How cycle starts chain onto arrivals (same semantics as
    /// [`crate::stream::StreamConfig::chaining`]).
    pub chaining: CycleChaining,
    /// Ready-ring capacity: the most cycles one scheduling round hands to
    /// the workers (clamped to at least 1). Fixed configuration — **not**
    /// derived from the worker count, so it never breaks the determinism
    /// contract. Bigger rings amortize round overhead; smaller rings make
    /// admission decisions track execution more closely.
    pub ring_capacity: usize,
    /// Fleet-wide admission control.
    pub admission: Admission,
}

impl ElasticConfig {
    /// Live-capture chaining, a 1024-cycle ring, unbounded admission.
    pub fn live() -> ElasticConfig {
        ElasticConfig {
            chaining: CycleChaining::ArrivalClamped,
            ring_capacity: 1024,
            admission: Admission::Unbounded,
        }
    }

    /// Replace the chaining discipline.
    pub fn with_chaining(mut self, chaining: CycleChaining) -> ElasticConfig {
        self.chaining = chaining;
        self
    }

    /// Replace the ring capacity.
    pub fn with_ring_capacity(mut self, ring_capacity: usize) -> ElasticConfig {
        self.ring_capacity = ring_capacity;
        self
    }

    /// Replace the admission policy.
    pub fn with_admission(mut self, admission: Admission) -> ElasticConfig {
        self.admission = admission;
        self
    }
}

impl Default for ElasticConfig {
    fn default() -> ElasticConfig {
        ElasticConfig::live()
    }
}

/// Executes one cycle of one stream — the seam between the elastic
/// scheduler (which decides *when* cycles run) and the engine (which runs
/// them).
///
/// `start` is the cycle's start **relative to its arrival** (the same
/// convention as [`Engine::run_cycle`]; negative under work-conserving
/// prefetch). Implementations own whatever per-stream state execution
/// needs — engine, execution-time source, sink — so the scheduler stays
/// generic and allocation-free per cycle. [`EngineDriver`] is the
/// standard implementation.
pub trait CycleDriver {
    /// Run cycle `cycle` starting at arrival-relative time `start` and
    /// report what happened.
    fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary;
}

/// The standard [`CycleDriver`]: one monomorphized [`Engine`] plus its
/// execution-time source and trace sink, owned per stream.
pub struct EngineDriver<'sys, M: QualityManager, X, S> {
    engine: Engine<'sys, M>,
    exec: X,
    sink: S,
}

impl<'sys, M: QualityManager, X, S> EngineDriver<'sys, M, X, S> {
    /// A driver running cycles of `engine` against `exec`, streaming
    /// records into `sink`.
    pub fn new(engine: Engine<'sys, M>, exec: X, sink: S) -> EngineDriver<'sys, M, X, S> {
        EngineDriver { engine, exec, sink }
    }

    /// The driver's trace sink (to read back captured traces after a
    /// run — [`ElasticRunner::run`] returns the drivers for exactly
    /// this).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Dismantle the driver into its parts.
    pub fn into_parts(self) -> (Engine<'sys, M>, X, S) {
        (self.engine, self.exec, self.sink)
    }
}

impl<M, X, S> CycleDriver for EngineDriver<'_, M, X, S>
where
    M: QualityManager,
    X: ExecutionTimeSource,
    S: TraceSink,
{
    #[inline]
    fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary {
        self.engine
            .run_cycle(cycle, start, &mut self.exec, &mut self.sink)
    }
}

/// Everything a finished elastic run reports: per-stream
/// [`StreamSummary`]s in submission order, their merged aggregates, and
/// the fleet-wide [`ShedLedger`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElasticSummary {
    per_stream: Vec<StreamSummary>,
    run: RunSummary,
    stats: StreamStats,
    ledger: ShedLedger,
}

impl ElasticSummary {
    /// Number of streams that ran.
    pub fn n_streams(&self) -> usize {
        self.per_stream.len()
    }

    /// Per-stream summaries, indexed by submission order.
    pub fn per_stream(&self) -> &[StreamSummary] {
        &self.per_stream
    }

    /// One stream's summary.
    pub fn stream(&self, i: usize) -> &StreamSummary {
        &self.per_stream[i]
    }

    /// The merged engine aggregates over all streams.
    pub fn run(&self) -> &RunSummary {
        &self.run
    }

    /// The merged backlog/latency aggregates over all streams.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// The fleet-wide admission ledger.
    pub fn ledger(&self) -> &ShedLedger {
        &self.ledger
    }
}

/// The end-of-list link.
const NIL: u32 = u32::MAX;

/// One slab entry: an admitted frame in its stream's queue (`frame`,
/// arrival `time`, `counted`), or a completion `time` in a shadow
/// account's queue.
#[derive(Clone, Copy, Debug)]
struct Node {
    time: Time,
    frame: usize,
    next: u32,
    /// Charged to the global backlog at admission.
    counted: bool,
}

impl Node {
    fn completion(time: Time) -> Node {
        Node {
            time,
            frame: 0,
            next: NIL,
            counted: false,
        }
    }
}

/// A FIFO threaded through the [`Slab`]: head and tail links.
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// One node store for every stream's FIFOs, with a free list: a freed
/// node is the next one handed out, so the slab holds no more nodes than
/// were ever live at once, and a steady population stops allocating.
#[derive(Debug)]
struct Slab {
    nodes: Vec<Node>,
    /// Head of the free list.
    free: u32,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            nodes: Vec::new(),
            free: NIL,
        }
    }

    fn front(&self, list: List) -> Option<&Node> {
        (!list.is_empty()).then(|| &self.nodes[list.head as usize])
    }

    fn push_back(&mut self, list: &mut List, node: Node) {
        let node = Node { next: NIL, ..node };
        let i = if self.free == NIL {
            let i = self.nodes.len();
            assert!(
                i < NIL as usize,
                "slab links are u32: at most {NIL} live entries"
            );
            self.nodes.push(node);
            i as u32
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        if list.is_empty() {
            list.head = i;
        } else {
            self.nodes[list.tail as usize].next = i;
        }
        list.tail = i;
    }

    fn pop_front(&mut self, list: &mut List) -> Option<Node> {
        let i = list.head;
        let node = *self.front(*list)?;
        list.head = node.next;
        if list.is_empty() {
            list.tail = NIL;
        }
        self.nodes[i as usize].next = self.free;
        self.free = i;
        Some(node)
    }

    /// Free a whole list at once.
    fn release(&mut self, list: &mut List) {
        if !list.is_empty() {
            self.nodes[list.tail as usize].next = self.free;
            self.free = list.head;
            *list = List::EMPTY;
        }
    }
}

/// Per-stream backlog accounting at admission granularity.
///
/// The per-stream runner ([`crate::stream::StreamingRunner`] + `Block`)
/// observes queue depth `j − #{completions < a_j}` when its `j`-th
/// admitted arrival `a_j` joins a busy stream, and no depth at all when
/// the stream is idle (the frame goes straight into service — which is
/// exactly when that expression is zero). The elastic scheduler admits
/// arrivals at event-loop granularity, often rounds ahead of execution,
/// so its own queue depths are not comparable; this shadow re-derives the
/// per-stream sequence from the admitted-arrival and completion streams
/// alone. Arrival `j` is classified once the stream's first `j`
/// completions are known, which is at one of two points: at its
/// admission when the stream is idle (every earlier frame is done), or
/// otherwise when frame `j − 1` completes — frame `j` is then at the
/// front of the stream's queue. Frames finish in order and frame `j`
/// cannot finish before it is admitted, so exactly `j` completions are
/// visible at that moment. Both feeds are monotone, so consumed
/// completions never need revisiting.
#[derive(Clone, Copy, Debug)]
struct ShadowBacklog {
    /// Completion times recorded but not yet passed by a classified
    /// arrival, in the slab.
    comps: List,
    /// Arrivals classified minus completions consumed: the depth the
    /// next classified arrival sees before its own completion prefix is
    /// consumed.
    behind: usize,
    /// High-water mark of the classified depths.
    max_backlog: usize,
}

impl ShadowBacklog {
    const NEW: ShadowBacklog = ShadowBacklog {
        comps: List::EMPTY,
        behind: 0,
        max_backlog: 0,
    };

    /// Classify the stream's next admitted arrival (see the type docs
    /// for when its completion prefix is known).
    fn classify(&mut self, slab: &mut Slab, arrival: Time) {
        while slab.front(self.comps).is_some_and(|c| c.time < arrival) {
            slab.pop_front(&mut self.comps);
            self.behind -= 1;
        }
        self.max_backlog = self.max_backlog.max(self.behind);
        self.behind += 1;
    }

    /// Record the completion of the stream's next admitted frame.
    fn on_complete(&mut self, slab: &mut Slab, completion: Time) {
        slab.push_back(&mut self.comps, Node::completion(completion));
    }
}

/// What the event loop touches about a stream on every event, in a cache
/// line's worth of bytes. The colder state — source, [`StreamCursor`],
/// driver — lives in the scheduler's per-stream columns. The record is
/// not over-aligned: an over-aligned column goes through the allocator's
/// aligned path, whose split-off fragments made serve-shed's peak RSS
/// grow with run length.
#[derive(Clone, Copy, Debug)]
struct Hot {
    /// Monotonicity clamp for source timestamps (same contract as
    /// `StreamingRunner`).
    floor: Time,
    /// The stream clock: the [`StreamCursor`]'s `now`, kept here so a
    /// start time never reads the cursor.
    clock: Time,
    /// Next frame index; shed frames consume theirs.
    next_frame: usize,
    /// Admitted frames not yet started, in the slab.
    queue: List,
    /// Admission-granular backlog account (see [`ShadowBacklog`]).
    shadow: ShadowBacklog,
    /// A cycle of this stream is out in the round's ring (its driver
    /// with it).
    in_flight: bool,
    /// The source has no arrival left.
    drained: bool,
}

const _: () = assert!(std::mem::size_of::<Hot>() == 64);

impl Hot {
    /// Nothing in flight and nothing queued.
    fn idle(&self) -> bool {
        !self.in_flight && self.queue.is_empty()
    }
}

/// One cycle committed to this round: it carries its stream's driver
/// out and the cycle's summary back.
struct Job<D> {
    stream: u32,
    frame: usize,
    arrival: Time,
    start: Time,
    driver: D,
    /// Set once the cycle has run.
    summary: Option<CycleSummary>,
}

/// Run `jobs` in order. A panic stops the segment and returns the
/// failing job's index and the panic message.
fn run_jobs<D: CycleDriver>(jobs: &mut [Job<D>]) -> Result<(), (usize, String)> {
    let mut at = 0;
    catch_unwind(AssertUnwindSafe(|| {
        for (i, job) in jobs.iter_mut().enumerate() {
            at = i;
            job.summary = Some(job.driver.run_cycle(job.frame, job.start - job.arrival));
        }
    }))
    .map_err(|payload| (at, panic_message(payload)))
}

/// The round's jobs, dealt round-robin into one owned segment per worker
/// as they are committed: job `p` goes to segment `p % segments`.
/// Dealing maps work onto threads and nothing else — the scheduler reads
/// back only the job count.
struct Ring<D> {
    segments: Vec<Vec<Job<D>>>,
    len: usize,
}

impl<D> Ring<D> {
    fn new(segments: usize, capacity: usize) -> Ring<D> {
        Ring {
            segments: (0..segments)
                .map(|_| Vec::with_capacity(capacity.div_ceil(segments)))
                .collect(),
            len: 0,
        }
    }

    fn push(&mut self, job: Job<D>) {
        let n = self.segments.len();
        self.segments[self.len % n].push(job);
        self.len += 1;
    }

    /// The job at ring position `p`.
    fn job(&self, p: usize) -> &Job<D> {
        let n = self.segments.len();
        &self.segments[p % n][p / n]
    }
}

/// The serial deterministic scheduling core: owns the per-stream state,
/// the event queues and the ledger; fills the ring each round and folds
/// completed jobs back in between rounds. Never sees the worker count.
///
/// Per-stream state is split by temperature: `hot` holds 64 bytes per
/// stream with everything an event reads, and the colder `sources`,
/// `cursors` and `drivers` columns are touched only by the event that
/// needs them. Every per-stream FIFO lives in the one `slab`.
struct Scheduler<A, D> {
    chaining: CycleChaining,
    admission: Admission,
    ring_capacity: usize,
    hot: Vec<Hot>,
    sources: Vec<A>,
    cursors: Vec<StreamCursor>,
    /// A stream's driver; `None` while it is out in the round's ring.
    drivers: Vec<Option<D>>,
    slab: Slab,
    start_heap: EventHeap,
    arrivals: RadixQueue,
    /// Latest start time ever scheduled: arrivals beyond it wait, which
    /// bounds queue growth and keeps admission decisions near the
    /// execution frontier. Monotone, worker-count independent.
    horizon: Time,
    /// Aggregate count of `counted` frames currently queued.
    backlog: usize,
    ledger: ShedLedger,
}

impl<A: ArrivalSource, D: CycleDriver> Scheduler<A, D> {
    fn new(config: ElasticConfig, population: Vec<(A, D)>) -> Scheduler<A, D> {
        let n = population.len();
        let mut arrivals = RadixQueue::new();
        let mut hot = Vec::with_capacity(n);
        let mut drivers = Vec::with_capacity(n);
        // Collected from the population, the source column can reuse its
        // buffer in place.
        let sources = population
            .into_iter()
            .enumerate()
            .map(|(i, (mut source, driver))| {
                let first = source.peek();
                if let Some(t) = first {
                    arrivals.push(t.max(Time::ZERO), i as u32);
                }
                hot.push(Hot {
                    floor: Time::ZERO,
                    clock: Time::ZERO,
                    next_frame: 0,
                    queue: List::EMPTY,
                    shadow: ShadowBacklog::NEW,
                    in_flight: false,
                    drained: first.is_none(),
                });
                drivers.push(Some(driver));
                source
            })
            .collect();
        Scheduler {
            chaining: config.chaining,
            admission: config.admission,
            ring_capacity: config.ring_capacity.max(1),
            hot,
            sources,
            cursors: vec![StreamCursor::new(); n],
            drivers,
            slab: Slab::new(),
            start_heap: EventHeap::new(),
            arrivals,
            horizon: Time::NEG_INF,
            backlog: 0,
            ledger: ShedLedger::default(),
        }
    }

    /// Drain due events into the empty `ring`, up to capacity. Event
    /// order is the global `(time, start-before-arrival, stream)` order;
    /// an arrival is *due* once it is at or before the horizon, or
    /// unconditionally when nothing is scheduled at all (bootstrap). An
    /// empty ring on return means the run is complete.
    fn fill(&mut self, ring: &mut Ring<D>) {
        debug_assert_eq!(ring.len, 0, "the previous round was folded back");
        while ring.len < self.ring_capacity {
            let start_top = self.start_heap.peek();
            let arrival_top = self.arrivals.peek();
            let arrival_due = match arrival_top {
                Some((ta, _)) => ta <= self.horizon || (ring.len == 0 && start_top.is_none()),
                None => false,
            };
            let take_start = match (start_top, arrival_top) {
                (Some(_), None) => true,
                (None, _) => false,
                // Start beats arrival on time ties: a stream's queued
                // frame begins before the next arrival is judged.
                (Some((ts, _)), Some((ta, _))) => !arrival_due || ts <= ta,
            };
            if take_start {
                let (ts, s) = self.start_heap.pop().expect("peeked");
                let node = self
                    .slab
                    .pop_front(&mut self.hot[s as usize].queue)
                    .expect("a start event implies a queued frame");
                if node.counted {
                    self.backlog -= 1;
                }
                self.begin(s, node.frame, node.time, ts, ring);
            } else if arrival_due {
                let (ta, s) = self.arrivals.pop().expect("peeked");
                self.process_arrival(ta, s, ring);
            } else {
                break;
            }
        }
    }

    /// Commit stream `s`'s frame to the ring, starting at `start`.
    fn begin(&mut self, s: u32, frame: usize, arrival: Time, start: Time, ring: &mut Ring<D>) {
        let driver = self.drivers[s as usize]
            .take()
            .expect("a stream has at most one cycle per round");
        self.hot[s as usize].in_flight = true;
        ring.push(Job {
            stream: s,
            frame,
            arrival,
            start,
            driver,
            summary: None,
        });
        self.horizon = self.horizon.max(start);
    }

    /// Judge stream `s`'s arrival at `ta` — shed it, queue it, or start
    /// it — and re-key the stream on its next arrival.
    fn process_arrival(&mut self, ta: Time, s: u32, ring: &mut Ring<D>) {
        let st = &mut self.hot[s as usize];
        let frame = st.next_frame;
        st.next_frame += 1;
        self.ledger.arrived += 1;
        // A frame counts toward the global backlog iff its stream is
        // already behind; only counted frames are ever shed. A shed frame
        // is booked once, in `finish`, from the frame and processed
        // counts.
        let counted = !st.idle();
        let shed = match self.admission {
            Admission::Unbounded => false,
            Admission::DropNewest { global_capacity } => counted && self.backlog >= global_capacity,
        };
        let mut bypass = None;
        if shed {
            self.ledger.shed += 1;
        } else {
            self.ledger.admitted += 1;
            let node = Node {
                time: ta,
                frame,
                next: NIL,
                counted,
            };
            if counted {
                self.backlog += 1;
                self.ledger.peak_backlog = self.ledger.peak_backlog.max(self.backlog);
                self.slab.push_back(&mut st.queue, node);
            } else {
                // Idle: every earlier frame is done, so the arrival is
                // classifiable now. A start at or before `ta` is below
                // every start event (those lost to this arrival) and
                // every arrival event (none precedes `ta`), and the ring
                // still has the room it had when this arrival was taken:
                // the next iteration would pop the start, so it goes
                // straight into the ring.
                st.shadow.classify(&mut self.slab, ta);
                let start = chained_start(self.chaining, st.clock, ta);
                if start <= ta {
                    bypass = Some(start);
                } else {
                    self.slab.push_back(&mut st.queue, node);
                    self.start_heap.push(start, s);
                }
            }
        }
        // Consume the peeked timestamp and re-key the stream on the
        // following one. peek-then-next ≡ next keeps this exact.
        let source = &mut self.sources[s as usize];
        let consumed = source
            .next_arrival()
            .expect("a queued arrival event implies a pending timestamp")
            .max(st.floor);
        st.floor = consumed;
        debug_assert_eq!(consumed, ta, "peeked and consumed timestamps agree");
        match source.peek() {
            Some(next) => self.arrivals.push(next.max(st.floor), s),
            None => st.drained = true,
        }
        if let Some(start) = bypass {
            self.begin(s, frame, ta, start, ring);
        }
    }

    /// Fold a finished round back in: each job's driver goes home, its
    /// summary advances the stream's cursor, and streams with queued
    /// frames get their next start event. A stream has at most one job
    /// per round and start keys are unique, so the order jobs are folded
    /// in cannot change the result.
    fn complete_round(&mut self, ring: &mut Ring<D>) {
        ring.len = 0;
        for job in ring.segments.iter_mut().flat_map(|s| s.drain(..)) {
            let s = job.stream as usize;
            let summary = job.summary.expect("every job of a completed round ran");
            let cursor = &mut self.cursors[s];
            cursor.absorb(job.arrival, job.start, &summary);
            self.drivers[s] = Some(job.driver);
            let st = &mut self.hot[s];
            st.in_flight = false;
            st.clock = cursor.now();
            match self.slab.front(st.queue).map(|next| next.time) {
                Some(arrival) => {
                    st.shadow.on_complete(&mut self.slab, st.clock);
                    st.shadow.classify(&mut self.slab, arrival);
                    self.start_heap
                        .push(chained_start(self.chaining, st.clock, arrival), job.stream);
                }
                // The stream's last frame: nothing is left to classify.
                None if st.drained => self.slab.release(&mut st.shadow.comps),
                None => st.shadow.on_complete(&mut self.slab, st.clock),
            }
        }
        self.ledger.rounds += 1;
    }

    /// The round loop: fill, execute, fold back in, until a fill comes
    /// back empty. `execute` runs every job of the ring and reports the
    /// earliest failed ring position with its panic message, which is
    /// re-raised naming the stream and frame.
    fn drive(
        &mut self,
        ring: &mut Ring<D>,
        mut execute: impl FnMut(&mut Ring<D>) -> Option<(usize, String)>,
    ) {
        loop {
            self.fill(ring);
            if ring.len == 0 {
                return;
            }
            if let Some((p, message)) = execute(ring) {
                let job = ring.job(p);
                panic!(
                    "elastic worker panicked on stream {} (frame {}): {message}",
                    job.stream, job.frame
                );
            }
            self.complete_round(ring);
        }
    }

    /// The finished run: the summary and the drivers in submission order.
    /// The per-stream summaries are collected from the cursor column and
    /// the drivers from theirs, which lets the standard library reuse
    /// both buffers in place instead of allocating at the peak.
    fn finish(self) -> (ElasticSummary, Vec<D>) {
        let Scheduler {
            hot,
            cursors,
            drivers,
            ledger,
            ..
        } = self;
        let mut run = RunSummary::default();
        let mut stats = StreamStats::default();
        let per_stream: Vec<StreamSummary> = cursors
            .into_iter()
            .zip(&hot)
            .map(|(cursor, st)| {
                let mut s = cursor.summary();
                // Every frame took an index, and every admitted one ran.
                // The cursor never saw scheduler queue depths; the shadow
                // account supplies the admission-granular high-water mark.
                s.stats.arrived = st.next_frame;
                s.stats.dropped = st.next_frame - s.stats.processed;
                s.stats.max_backlog = st.shadow.max_backlog;
                run.merge(&s.run);
                stats.merge(&s.stats);
                s
            })
            .collect();
        let drivers = drivers
            .into_iter()
            .map(|d| d.expect("every driver is home after the last round"))
            .collect();
        let summary = ElasticSummary {
            per_stream,
            run,
            stats,
            ledger,
        };
        (summary, drivers)
    }
}

/// Runs many live streams through per-cycle elastic scheduling on a
/// fixed-size pool of workers: the caller's thread plus `workers − 1`
/// scoped OS threads.
///
/// Construction fixes the worker count and the [`ElasticConfig`]; one
/// runner value can drive many fleets. With one worker (or one stream)
/// everything runs inline on the caller's thread, with no lock and no
/// thread — which is also the reference schedule every multi-worker run
/// is guaranteed to reproduce byte-for-byte.
///
/// # Examples
///
/// Four periodic streams over two workers; the aggregates match four
/// serial [`StreamingRunner`](crate::stream::StreamingRunner) runs:
///
/// ```
/// use sqm_core::controller::{ConstantExec, OverheadModel};
/// use sqm_core::elastic::{ElasticConfig, ElasticRunner, EngineDriver};
/// use sqm_core::engine::{Engine, NullSink};
/// use sqm_core::manager::NumericManager;
/// use sqm_core::policy::MixedPolicy;
/// use sqm_core::source::Periodic;
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
/// let streams: Vec<_> = (0..4)
///     .map(|_| {
///         (
///             Periodic::new(Time::from_ns(500), 3),
///             EngineDriver::new(
///                 Engine::new(&sys, NumericManager::new(&sys, &policy), OverheadModel::ZERO),
///                 ConstantExec::average(sys.table()),
///                 NullSink,
///             ),
///         )
///     })
///     .collect();
///
/// let (summary, _drivers) = ElasticRunner::new(2, ElasticConfig::live()).run(streams);
/// assert_eq!(summary.n_streams(), 4);
/// assert_eq!(summary.run().cycles, 12);
/// assert_eq!(summary.stats().processed, 12);
/// assert_eq!(summary.ledger().shed, 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ElasticRunner {
    workers: usize,
    config: ElasticConfig,
}

impl ElasticRunner {
    /// A runner with `workers` workers (clamped to at least 1) and the
    /// given configuration.
    pub fn new(workers: usize, config: ElasticConfig) -> ElasticRunner {
        ElasticRunner {
            workers: workers.max(1),
            config,
        }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The runner's configuration.
    pub fn config(&self) -> ElasticConfig {
        self.config
    }

    /// Drain every stream's source, scheduling cycles fleet-wide in
    /// arrival order and executing each round's jobs on the workers.
    /// Returns the summary and the drivers (in submission order), so
    /// callers can extract sinks or reuse engines.
    ///
    /// # Panics
    ///
    /// Re-raises a driver's panic, naming the stream index and frame
    /// (the rest of the round is abandoned).
    pub fn run<A, D>(&self, streams: Vec<(A, D)>) -> (ElasticSummary, Vec<D>)
    where
        A: ArrivalSource,
        D: CycleDriver + Send,
    {
        assert!(
            u32::try_from(streams.len()).is_ok(),
            "stream ids are u32: at most {} streams",
            u32::MAX
        );
        let workers = self.workers.min(streams.len().max(1));
        let mut sched = Scheduler::new(self.config, streams);
        let mut ring = Ring::new(workers, sched.ring_capacity);
        if workers == 1 {
            sched.drive(&mut ring, |ring| run_jobs(&mut ring.segments[0]).err());
        } else {
            run_pooled(&mut sched, &mut ring);
        }
        // Free the job buffers before the summary allocates: peak memory.
        drop(ring);
        sched.finish()
    }
}

/// A segment in transit between the scheduler and a worker: the
/// worker's index, the jobs, and on the way back the failure met, if any.
type Handoff<D> = (usize, Vec<Job<D>>, Option<(usize, String)>);

/// The `W > 1` rounds: the caller's thread runs segment 0 while
/// `W − 1` scoped threads, alive for the whole run, run the others, each
/// segment sent over and back through channels with its buffer. One
/// message type serves both directions, so each driver type
/// instantiates the channel code once.
fn run_pooled<A, D>(sched: &mut Scheduler<A, D>, ring: &mut Ring<D>)
where
    A: ArrivalSource,
    D: CycleDriver + Send,
{
    let workers = ring.segments.len();
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<Handoff<D>>();
        let to_workers: Vec<mpsc::Sender<Handoff<D>>> = (1..workers)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<Handoff<D>>();
                let done_tx = done_tx.clone();
                scope.spawn(move || {
                    // Ends when the scheduler drops its sender.
                    for (w, mut segment, _) in rx {
                        let failure = run_jobs(&mut segment).err();
                        if done_tx.send((w, segment, failure)).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        // Only the workers hold senders now: a worker lost outside
        // `run_jobs` fails the receive below instead of hanging it.
        drop(done_tx);
        sched.drive(ring, |ring| {
            for (w, tx) in (1..).zip(&to_workers) {
                let segment = std::mem::take(&mut ring.segments[w]);
                tx.send((w, segment, None))
                    .expect("elastic workers live until the last round");
            }
            // Job `i` of segment `w` sits at ring position
            // `i · workers + w`; the earliest failure in ring order is
            // reported, whichever worker noticed first.
            let mut failure = run_jobs(&mut ring.segments[0])
                .err()
                .map(|(i, m)| (i * workers, m));
            for _ in 1..workers {
                let (w, segment, outcome) = done_rx
                    .recv()
                    .expect("elastic workers report every segment");
                ring.segments[w] = segment;
                if let Some((i, message)) = outcome {
                    let p = i * workers + w;
                    if failure.as_ref().is_none_or(|(q, _)| p < *q) {
                        failure = Some((p, message));
                    }
                }
            }
            failure
        });
        // Dropping the senders releases the workers.
        drop(to_workers);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ConstantExec, FnExec, OverheadModel};
    use crate::engine::NullSink;
    use crate::manager::NumericManager;
    use crate::policy::MixedPolicy;
    use crate::source::{Bursty, Jittered, PatternSource, Periodic, TraceReplay};
    use crate::stream::{OverloadPolicy, StreamConfig, StreamingRunner};
    use crate::system::{ParameterizedSystem, SystemBuilder};
    use proptest::prelude::*;

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

    fn source_mix(i: usize, frames: usize) -> PatternSource {
        match i % 3 {
            0 => PatternSource::Periodic(Periodic::new(PERIOD, frames)),
            1 => PatternSource::Jittered(Jittered::new(
                PERIOD,
                Time::from_ns(40),
                frames,
                7 + i as u64,
            )),
            _ => PatternSource::Bursty(Bursty::new(PERIOD, 4, frames, 11 + i as u64)),
        }
    }

    /// Seed-dependent deterministic exec times (cloneable across paths).
    fn exec_for(sys: &ParameterizedSystem, seed: u64) -> impl ExecutionTimeSource + Send + '_ {
        FnExec(
            move |cycle: usize, action: usize, q: crate::quality::Quality| {
                let wc = sys.table().wc(action, q).as_ns();
                let f = 40 + ((seed as usize + cycle + action) % 50) as i64;
                Time::from_ns(wc * f / 100)
            },
        )
    }

    fn drivers<'a>(
        s: &'a ParameterizedSystem,
        p: &'a MixedPolicy<'a>,
        n: usize,
        frames: usize,
    ) -> Vec<(PatternSource, impl CycleDriver + Send + 'a)> {
        (0..n)
            .map(|i| {
                (
                    source_mix(i, frames),
                    EngineDriver::new(
                        Engine::new(
                            s,
                            NumericManager::new(s, p),
                            OverheadModel::new(Time::from_ns(2), Time::from_ns(1)),
                        ),
                        exec_for(s, i as u64),
                        NullSink,
                    ),
                )
            })
            .collect()
    }

    #[test]
    fn event_heap_pops_sorted() {
        let mut heap = EventHeap::new();
        let times = [50i64, 10, 30, 10, 90, 0, 30, 70];
        for (i, t) in times.iter().enumerate() {
            heap.push(Time::from_ns(*t), i as u32);
        }
        assert_eq!(heap.len(), times.len());
        let mut out = Vec::new();
        while let Some(e) = heap.pop() {
            out.push(e);
        }
        let mut expected: Vec<(Time, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (Time::from_ns(*t), i as u32))
            .collect();
        expected.sort();
        assert_eq!(out, expected);
        assert!(heap.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The radix queue pops exactly the sorted `(time, stream)` order
        /// over random monotone interleavings of five ops: push (0–1),
        /// pop (2), peek (3), a burst (4: pop, then push the popped key
        /// back at the current time, as a stream with several frames at
        /// one timestamp does) and a crowd (5: up to 32 distinct streams
        /// pushed at one timestamp in scrambled order, as periodic
        /// streams sharing a period are). Times reach both ends of the
        /// `Time` range; `gap` picks a pushed time's distance above the
        /// floor. The storage count stays exact and bounded.
        #[test]
        fn radix_queue_pops_in_sorted_order(
            base in 0u8..4,
            ops in proptest::collection::vec(
                (0u8..6, 0u8..5, 0u32..64, any::<u64>()),
                0..400,
            ),
        ) {
            let base = [i64::MIN, -1_000, 0, i64::MAX - (1 << 20)][base as usize];
            let mut queue = RadixQueue::new();
            let mut model: Vec<(Time, u32)> = Vec::new();
            let mut pushes = 0usize;
            // The least key a push may carry: the last popped or peeked.
            let mut floor = (Time::from_ns(base), 0u32);
            for (op, gap, s, r) in ops {
                let t = floor.0.as_ns();
                let time = match gap {
                    0 => t,
                    1 => t.saturating_add((r % 8) as i64),
                    2 => t.saturating_add((r % (1 << 40)) as i64),
                    3 => t.saturating_add((r >> 1) as i64),
                    _ => i64::MAX,
                };
                // At the floor's time a push may not go below its stream.
                let lowest = if time == t { floor.1 } else { 0 };
                let mut keys = Vec::new();
                match op {
                    0 | 1 => {
                        // At the floor's time, `s % 4 == 0` repeats the
                        // floor's key.
                        let stream = if time == t { lowest.saturating_add(s % 4) } else { s };
                        keys.push((Time::from_ns(time), stream));
                    }
                    4 => {
                        model.sort_unstable_by(|a, b| b.cmp(a));
                        let want = model.pop();
                        let got = queue.pop();
                        prop_assert_eq!(got, want);
                        if let Some(key) = got {
                            floor = key;
                            keys.push(key);
                        }
                    }
                    5 => {
                        let n = 1 + (r % 32) as u32;
                        keys.extend((0..n).map(|j| (Time::from_ns(time), lowest + (j * 37 + s) % n)));
                    }
                    _ => {
                        model.sort_unstable_by(|a, b| b.cmp(a));
                        let want = model.last().copied();
                        let got = if op == 2 {
                            model.pop();
                            queue.pop()
                        } else {
                            queue.peek()
                        };
                        prop_assert_eq!(got, want);
                        if let Some(key) = got {
                            floor = key;
                        }
                    }
                }
                for key in keys {
                    queue.push(key.0, key.1);
                    model.push(key);
                    pushes += 1;
                }
                prop_assert_eq!(queue.len, model.len());
                prop_assert_eq!(
                    queue.storage,
                    queue.buckets.iter().map(Vec::capacity).sum::<usize>()
                );
            }
            model.sort_unstable();
            let drained: Vec<(Time, u32)> = std::iter::from_fn(|| queue.pop()).collect();
            prop_assert_eq!(drained, model);
            prop_assert!(queue.storage <= 2 * pushes + RADIX_BUCKETS * RADIX_SPARE);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotone push")]
    fn radix_queue_rejects_an_earlier_time() {
        let mut queue = RadixQueue::new();
        queue.push(Time::from_ns(10), 1);
        queue.pop();
        queue.push(Time::from_ns(9), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotone push")]
    fn radix_queue_rejects_a_lower_stream_at_the_same_time() {
        let mut queue = RadixQueue::new();
        queue.push(Time::from_ns(10), 5);
        assert_eq!(queue.peek(), Some((Time::from_ns(10), 5)));
        queue.push(Time::from_ns(10), 4);
    }

    /// The slab never holds more nodes than were live at once, and with a
    /// steady population it reuses freed nodes instead of growing.
    #[test]
    fn slab_holds_at_most_the_peak_live_entries() {
        let mut slab = Slab::new();
        let mut lists = [List::EMPTY; 5];
        let mut model: Vec<Vec<Time>> = vec![Vec::new(); lists.len()];
        let (mut live, mut peak) = (0usize, 0usize);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4_000i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let l = (x % 5) as usize;
            // Grow for the first half, then hold the population steady.
            let push = if step < 2_000 {
                !x.is_multiple_of(3)
            } else {
                live < peak
            };
            if push {
                slab.push_back(&mut lists[l], Node::completion(Time::from_ns(step)));
                model[l].push(Time::from_ns(step));
                live += 1;
            } else if let Some(node) = slab.pop_front(&mut lists[l]) {
                assert_eq!(node.time, model[l].remove(0));
                live -= 1;
            }
            peak = peak.max(live);
            assert!(slab.nodes.len() <= peak, "step {step}");
            if step == 2_000 {
                assert_eq!(slab.nodes.len(), peak);
            }
        }
        let (len, capacity) = (slab.nodes.len(), slab.nodes.capacity());
        // Release one list whole, then refill it: nothing grows.
        let n = model[0].len();
        slab.release(&mut lists[0]);
        assert!(lists[0].is_empty());
        for t in 0..n as i64 {
            slab.push_back(&mut lists[0], Node::completion(Time::from_ns(t)));
        }
        assert_eq!((slab.nodes.len(), slab.nodes.capacity()), (len, capacity));
        for (list, want) in lists.iter_mut().zip(&model).skip(1) {
            let got: Vec<Time> =
                std::iter::from_fn(|| slab.pop_front(list).map(|n| n.time)).collect();
            assert_eq!(&got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random small fleets — 1–12 streams mixing periodic, jittered
        /// and bursty sources with 1–6 frames each, at one of four loads —
        /// under any ring, admission and chaining: the whole summary is
        /// byte-identical at 1, 2 and 3 workers, and under unbounded
        /// admission each stream equals its `StreamingRunner` + `Block`
        /// run, `max_backlog` included. On the `coarse` grid (every
        /// action 10 ns, no overhead, periods of 20–80 ns) completions
        /// land exactly on arrivals: a tie the backlog account must count
        /// as waiting, as the per-stream runner does.
        #[test]
        fn random_fleets_agree_across_workers_and_with_the_streaming_runner(
            fleet in proptest::collection::vec(
                (0u8..3, 1usize..=6, any::<u64>()),
                1..=12,
            ),
            load in 1i64..=4,
            ring in 1usize..=6,
            capacity in 0usize..=4,
            work_conserving in any::<bool>(),
            coarse in any::<bool>(),
        ) {
            let s = sys();
            let p = MixedPolicy::new(&s);
            let period = if coarse {
                Time::from_ns(20 * load)
            } else {
                Time::from_ns(PERIOD.as_ns() / load)
            };
            let source = |(kind, frames, seed): (u8, usize, u64)| match kind {
                0 => PatternSource::Periodic(Periodic::new(period, frames)),
                1 => PatternSource::Jittered(Jittered::new(
                    period,
                    Time::from_ns(40),
                    frames,
                    seed,
                )),
                _ => PatternSource::Bursty(Bursty::new(period, 4, frames, seed)),
            };
            let engine = || {
                let overhead = if coarse {
                    OverheadModel::ZERO
                } else {
                    OverheadModel::new(Time::from_ns(2), Time::from_ns(1))
                };
                Engine::new(&s, NumericManager::new(&s, &p), overhead)
            };
            let exec = |i: usize| {
                let mut fine = exec_for(&s, i as u64);
                FnExec(move |cycle, action, q| {
                    if coarse {
                        Time::from_ns(10)
                    } else {
                        fine.actual(cycle, action, q)
                    }
                })
            };
            let build = || -> Vec<_> {
                fleet
                    .iter()
                    .enumerate()
                    .map(|(i, &spec)| (source(spec), EngineDriver::new(engine(), exec(i), NullSink)))
                    .collect()
            };
            let chaining = if work_conserving {
                CycleChaining::WorkConserving
            } else {
                CycleChaining::ArrivalClamped
            };
            let admission = match capacity {
                0 => Admission::Unbounded,
                global_capacity => Admission::DropNewest { global_capacity },
            };
            let config = ElasticConfig::live()
                .with_chaining(chaining)
                .with_ring_capacity(ring)
                .with_admission(admission);
            let (reference, _) = ElasticRunner::new(1, config).run(build());
            let ledger = reference.ledger();
            prop_assert_eq!(ledger.arrived, fleet.iter().map(|f| f.1).sum::<usize>());
            prop_assert_eq!(ledger.admitted + ledger.shed, ledger.arrived);
            for workers in [2, 3] {
                let (out, _) = ElasticRunner::new(workers, config).run(build());
                prop_assert_eq!(&out, &reference);
            }
            if admission == Admission::Unbounded {
                let runner = StreamingRunner::new(StreamConfig {
                    chaining,
                    capacity: 2,
                    policy: OverloadPolicy::Block,
                });
                for (i, &spec) in fleet.iter().enumerate() {
                    let want =
                        runner.run(&mut engine(), &mut source(spec), &mut exec(i), &mut NullSink);
                    prop_assert_eq!(*reference.stream(i), want);
                }
            }
        }
    }

    /// A completion that lands exactly on the next arrival leaves that
    /// frame waiting, as the per-stream runner counts it. Every cycle
    /// takes 40 ns and the ring holds 3 jobs, so stream 3's first frame
    /// runs in the second round, beside stream 0's second frame starting
    /// at 40 ns. That start lets stream 3's arrival at 40 ns be admitted
    /// behind its first frame, whose completion at 40 ns then meets it at
    /// the front of the queue.
    #[test]
    fn a_completion_on_the_next_arrival_counts_as_backlog() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let engine = || Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO);
        let exec = || FnExec(|_, _, _| Time::from_ns(10));
        let arrivals = |i: usize| {
            let times: &[i64] = [&[0, 0][..], &[0], &[0], &[0, 40]][i];
            TraceReplay::new(times.iter().map(|&t| Time::from_ns(t)).collect())
        };
        let streams = (0..4)
            .map(|i| (arrivals(i), EngineDriver::new(engine(), exec(), NullSink)))
            .collect();
        let (out, _) =
            ElasticRunner::new(1, ElasticConfig::live().with_ring_capacity(3)).run(streams);
        assert_eq!(out.stream(3).stats.max_backlog, 1);
        let runner = StreamingRunner::new(StreamConfig::live(2, OverloadPolicy::Block));
        for (i, got) in out.per_stream().iter().enumerate() {
            let want = runner.run(&mut engine(), &mut arrivals(i), &mut exec(), &mut NullSink);
            assert_eq!(*got, want, "stream {i}");
        }
    }

    /// A driver that panics on stream 3's cycle 1.
    struct Faulty<D> {
        inner: D,
        stream: usize,
    }

    impl<D: CycleDriver> CycleDriver for Faulty<D> {
        fn run_cycle(&mut self, cycle: usize, start: Time) -> CycleSummary {
            assert!(!(self.stream == 3 && cycle == 1), "injected fault");
            self.inner.run_cycle(cycle, start)
        }
    }

    /// A panicking driver stops the run at every worker count, and the
    /// re-raised panic names the stream and frame. The run goes on its
    /// own thread so that a hang fails the test instead of stalling it.
    #[test]
    fn a_panicking_driver_is_reraised_naming_its_stream() {
        for workers in [1usize, 2, 4] {
            let (tx, rx) = mpsc::channel();
            let run = std::thread::spawn(move || {
                let s = sys();
                let p = MixedPolicy::new(&s);
                let streams: Vec<_> = (0..8)
                    .map(|i| {
                        (
                            Periodic::new(PERIOD, 4),
                            Faulty {
                                inner: EngineDriver::new(
                                    Engine::new(
                                        &s,
                                        NumericManager::new(&s, &p),
                                        OverheadModel::ZERO,
                                    ),
                                    ConstantExec::average(s.table()),
                                    NullSink,
                                ),
                                stream: i,
                            },
                        )
                    })
                    .collect();
                let runner =
                    ElasticRunner::new(workers, ElasticConfig::live().with_ring_capacity(4));
                let outcome = catch_unwind(AssertUnwindSafe(|| runner.run(streams)));
                let message = match outcome {
                    Ok(_) => "the run returned".to_string(),
                    Err(payload) => panic_message(payload),
                };
                let _ = tx.send(message);
            });
            let message = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("workers={workers}: the run hung"));
            run.join().expect("the run's panic was caught");
            assert!(message.contains("stream 3"), "workers={workers}: {message}");
            assert!(message.contains("frame 1"), "workers={workers}: {message}");
            assert!(
                message.contains("injected fault"),
                "workers={workers}: {message}"
            );
        }
    }

    /// The heart of the tentpole: the whole `ElasticSummary` — per-stream
    /// summaries, aggregates and the ledger — is byte-identical for every
    /// worker count, under both chainings, both admissions, and a tiny
    /// ring that forces many rounds.
    #[test]
    fn worker_counts_are_byte_identical() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            for admission in [
                Admission::Unbounded,
                Admission::DropNewest { global_capacity: 3 },
            ] {
                for ring in [1usize, 2, 3, 256] {
                    let config = ElasticConfig::live()
                        .with_chaining(chaining)
                        .with_ring_capacity(ring)
                        .with_admission(admission);
                    let (reference, _) = ElasticRunner::new(1, config).run(drivers(&s, &p, 12, 8));
                    assert_eq!(reference.n_streams(), 12);
                    assert!(reference.stats().processed > 0);
                    for workers in 2..=4 {
                        let (out, _) =
                            ElasticRunner::new(workers, config).run(drivers(&s, &p, 12, 8));
                        assert_eq!(
                            out, reference,
                            "workers={workers} ring={ring} {chaining:?} {admission:?}"
                        );
                    }
                }
            }
        }
    }

    /// Under `Admission::Unbounded`, each stream's result equals running
    /// it alone through `StreamingRunner` + `Block` — the *full* struct,
    /// `max_backlog` included (the shadow account re-derives the
    /// per-stream runner's depth sequence at admission granularity).
    #[test]
    fn unbounded_matches_streaming_runner_per_stream() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        for (chaining, ring) in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped]
            .into_iter()
            .flat_map(|c| (1..=5).map(move |r| (c, r)))
        {
            let config = ElasticConfig::live()
                .with_chaining(chaining)
                .with_ring_capacity(ring);
            let (elastic, _) = ElasticRunner::new(3, config).run(drivers(&s, &p, 9, 10));
            for (i, got) in elastic.per_stream().iter().enumerate() {
                let runner = StreamingRunner::new(StreamConfig {
                    chaining,
                    capacity: 2,
                    policy: OverloadPolicy::Block,
                });
                let want = runner.run(
                    &mut Engine::new(
                        &s,
                        NumericManager::new(&s, &p),
                        OverheadModel::new(Time::from_ns(2), Time::from_ns(1)),
                    ),
                    &mut source_mix(i, 10),
                    &mut exec_for(&s, i as u64),
                    &mut NullSink,
                );
                assert_eq!(*got, want, "stream {i} {chaining:?} ring {ring}");
            }
        }
    }

    /// Global shedding: overloaded fleets shed deterministically, the
    /// ledger's books balance against the per-stream stats, and a stream
    /// that keeps up is never shed even while the rest of the fleet
    /// drowns.
    #[test]
    fn global_shed_ledger_balances_and_spares_prompt_streams() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let frames = 24;
        // Streams 0..5 arrive at 4x the sustainable rate; stream 5 is
        // periodic at a comfortable period.
        let build = || -> Vec<(PatternSource, _)> {
            (0..6)
                .map(|i| {
                    let src = if i < 5 {
                        PatternSource::Periodic(Periodic::new(
                            Time::from_ns(PERIOD.as_ns() / 4),
                            frames,
                        ))
                    } else {
                        PatternSource::Periodic(Periodic::new(
                            Time::from_ns(PERIOD.as_ns() * 2),
                            frames,
                        ))
                    };
                    (
                        src,
                        EngineDriver::new(
                            Engine::new(
                                &s,
                                NumericManager::new(&s, &p),
                                OverheadModel::new(Time::from_ns(2), Time::from_ns(1)),
                            ),
                            exec_for(&s, i as u64),
                            NullSink,
                        ),
                    )
                })
                .collect()
        };
        // Admission is round-granular, so the exact books pin the event
        // order, rings 1 and 2 at the ring-full boundary included:
        // `(chaining, ring, (admitted, shed, rounds), per-stream
        // (arrived, dropped, processed, max_backlog))`. The per-stream
        // books also pin what the aggregates cannot: which stream each
        // shed frame came from, and each stream's backlog high-water mark.
        let live = CycleChaining::ArrivalClamped;
        let cases = [
            (
                live,
                1,
                (91, 53, 91),
                [
                    (24, 7, 17, 4),
                    (24, 11, 13, 3),
                    (24, 11, 13, 2),
                    (24, 12, 12, 2),
                    (24, 12, 12, 2),
                ],
            ),
            (
                live,
                2,
                (91, 53, 57),
                [
                    (24, 7, 17, 5),
                    (24, 11, 13, 2),
                    (24, 11, 13, 2),
                    (24, 12, 12, 2),
                    (24, 12, 12, 2),
                ],
            ),
            (
                live,
                8,
                (90, 54, 37),
                [
                    (24, 6, 18, 5),
                    (24, 12, 12, 2),
                    (24, 12, 12, 2),
                    (24, 12, 12, 2),
                    (24, 12, 12, 1),
                ],
            ),
            (
                CycleChaining::WorkConserving,
                2,
                (91, 53, 57),
                [
                    (24, 7, 17, 5),
                    (24, 11, 13, 2),
                    (24, 11, 13, 2),
                    (24, 12, 12, 2),
                    (24, 12, 12, 2),
                ],
            ),
        ];
        for (chaining, ring, books, per_stream) in cases {
            let config = ElasticConfig::live()
                .with_chaining(chaining)
                .with_admission(Admission::DropNewest { global_capacity: 4 })
                .with_ring_capacity(ring);
            let (out, _) = ElasticRunner::new(1, config).run(build());
            let ledger = *out.ledger();
            assert_eq!(
                (ledger.admitted, ledger.shed, ledger.rounds),
                books,
                "{chaining:?} ring {ring}"
            );
            let got: Vec<_> = out
                .per_stream()
                .iter()
                .map(|x| {
                    (
                        x.stats.arrived,
                        x.stats.dropped,
                        x.stats.processed,
                        x.stats.max_backlog,
                    )
                })
                .collect();
            let mut want = per_stream.to_vec();
            want.push((frames, 0, frames, 0));
            assert_eq!(got, want, "{chaining:?} ring {ring}");
            assert_eq!(ledger.arrived, 6 * frames);
            assert_eq!(ledger.admitted + ledger.shed, ledger.arrived);
            assert!(ledger.peak_backlog <= 4, "capacity bound: {ledger:?}");
            assert_eq!(out.stats().arrived, ledger.arrived);
            assert_eq!(out.stats().dropped, ledger.shed);
            assert_eq!(out.stats().processed, ledger.admitted);
            // The prompt stream is untouched by everyone else's overload.
            let prompt = out.stream(5);
            assert_eq!(prompt.stats.dropped, 0, "prompt stream never shed");
            assert_eq!(prompt.stats.processed, frames);
            // Deterministic across worker counts (also covered broadly by
            // `worker_counts_are_byte_identical`).
            let (again, _) = ElasticRunner::new(4, config).run(build());
            assert_eq!(again, out);
        }
    }

    /// A ring of capacity 1 degenerates to one cycle per round and still
    /// produces the same per-stream results as a huge ring (admission
    /// differs only under global capacity pressure, absent here) —
    /// `max_backlog` included: the shadow account is a function of each
    /// stream's arrival and completion sequences, so ring granularity
    /// (like worker count) never moves it.
    #[test]
    fn ring_capacity_does_not_change_unbounded_results() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let big = ElasticRunner::new(2, ElasticConfig::live().with_ring_capacity(1 << 12))
            .run(drivers(&s, &p, 7, 6))
            .0;
        let tiny = ElasticRunner::new(2, ElasticConfig::live().with_ring_capacity(1))
            .run(drivers(&s, &p, 7, 6))
            .0;
        assert_eq!(big.per_stream(), tiny.per_stream());
        assert!(tiny.ledger().rounds > big.ledger().rounds);
    }

    #[test]
    fn empty_fleet_and_empty_sources_are_defaults() {
        let runner = ElasticRunner::new(4, ElasticConfig::live());
        type Dri<'a> =
            EngineDriver<'a, NumericManager<'a, MixedPolicy<'a>>, ConstantExec<'a>, NullSink>;
        let (out, drivers) = runner.run(Vec::<(Periodic, Dri<'_>)>::new());
        let _ = drivers;
        assert_eq!(out, ElasticSummary::default());

        let s = sys();
        let p = MixedPolicy::new(&s);
        let empty: Vec<(PatternSource, _)> = (0..3)
            .map(|_| {
                (
                    PatternSource::Periodic(Periodic::new(PERIOD, 0)),
                    EngineDriver::new(
                        Engine::new(&s, NumericManager::new(&s, &p), OverheadModel::ZERO),
                        ConstantExec::average(s.table()),
                        NullSink,
                    ),
                )
            })
            .collect();
        let (out, _) = runner.run(empty);
        assert_eq!(out.n_streams(), 3);
        assert_eq!(*out.run(), RunSummary::default());
        assert_eq!(out.ledger().arrived, 0);
    }
}
