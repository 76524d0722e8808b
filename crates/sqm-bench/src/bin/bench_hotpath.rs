//! Emit `BENCH_hotpath.json` — the fifth point of the workspace's
//! performance trajectory, next to `BENCH_baseline.json` (single-stream
//! cost), `BENCH_fleet.json` (multi-stream throughput), `BENCH_stream.json`
//! (live-traffic backlog/latency) and `BENCH_net.json` (packet pipeline).
//!
//! This point measures the **decision core**: the paper's top-down table
//! scans ([`ReferenceManager`] over `QualityRegionTable::choose` /
//! `RelaxationTable::choose_relaxation`) against the production managers
//! (`LookupManager` / `RelaxedManager`, whose probes resume from the
//! previous decision and charge the analytic `scan_work`) — host
//! ns/decision from an exact replay of a recorded decision sequence,
//! across the MPEG, audio and net tables. The MPEG table is measured in
//! two regimes: the *typical* trajectory (quality sits near the top, the
//! top-down scan stops after ~2–3 probes) and a *loaded* one (the Fig. 8
//! complexity burst pushes quality down, the scan goes ~5–6 probes deep
//! while the hinted probe stays at ~1) — the loaded regime is exactly
//! where per-decision cost matters.
//!
//! The binary pins correctness before publishing numbers: the production
//! managers must be **byte-identical in the virtual time domain** to the
//! reference scan — same `RunSummary`, same records — for every workload,
//! both `CycleChaining` variants and both symbolic MPEG manager kinds.
//!
//! ```text
//! cargo run -p sqm-bench --release --bin bench_hotpath [out.json]
//! ```

use std::hint::black_box;
use std::time::Instant;

use sqm_bench::{
    AudioExperiment, ManagerKind, NetExperiment, PaperExperiment, ReferenceManager, Workload,
};
use sqm_core::engine::{CycleChaining, Engine, NullSink, RunSummary, TraceSink};
use sqm_core::manager::{LookupManager, QualityManager, RelaxedManager};
use sqm_core::relaxation::StepSet;
use sqm_core::time::Time;
use sqm_core::trace::Trace;
use sqm_mpeg::EncoderConfig;

const SEED: u64 = 11;
const FRAMES: usize = 24;
const SAMPLES: usize = 9;
/// The Fig. 8 complexity burst scaled to the `small` encoder: every
/// macroblock 1.6× harder — quality drops to ~2, the top-down scan probes
/// ~5 levels per decision, and the run stays miss-free.
const LOADED_BURST: Option<(usize, usize, f64)> = Some((0, 298, 1.6));

fn timed_pass<R>(reps: usize, ops: usize, f: &mut impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / (reps * ops.max(1)) as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Time two sides **interleaved** — each of the `SAMPLES` rounds runs a
/// `reps`-pass of side A then side B — and return per-side medians in host
/// ns per operation. Interleaving is what keeps the reported *ratio*
/// stable on a shared host: a background-load spike hits both sides of
/// the same round instead of skewing whichever side happened to be
/// measured during it.
fn interleaved_ns_per_op<R, S>(
    reps: usize,
    ops: usize,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> S,
) -> (f64, f64) {
    // Warm-up: page in tables, settle branch predictors.
    black_box(a());
    black_box(b());
    let mut va = Vec::with_capacity(SAMPLES);
    let mut vb = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        va.push(timed_pass(reps, ops, &mut a));
        vb.push(timed_pass(reps, ops, &mut b));
    }
    (median(va), median(vb))
}

/// The exact decision inputs of a recorded run, grouped per cycle:
/// `(state, t)` as the engine passed them to `decide` (the record's start
/// minus the charged overhead).
fn decision_cycles(trace: &Trace) -> Vec<Vec<(usize, Time)>> {
    trace
        .cycles
        .iter()
        .map(|c| {
            c.records
                .iter()
                .filter(|r| r.decided)
                .map(|r| (r.action, r.start - r.qm_overhead))
                .collect()
        })
        .collect()
}

/// Replay a decision sequence through `manager` — `reset` at every cycle
/// start, as the engine does — folding the outcomes so the calls stay
/// observable and comparable across managers.
fn replay<M: QualityManager>(manager: &mut M, cycles: &[Vec<(usize, Time)>]) -> u64 {
    let mut acc = 0u64;
    for cycle in cycles {
        manager.reset();
        for &(state, t) in cycle {
            let d = manager.decide(state, black_box(t));
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(d.work)
                .wrapping_add(d.quality.index() as u64)
                .wrapping_add(d.hold as u64);
        }
    }
    acc
}

/// Time the reference scan against the production manager over a
/// recorded decision sequence, after checking both fold to the same
/// outcomes. Returns `(decisions, reference ns, production ns)`.
fn time_decisions<R: QualityManager, P: QualityManager>(
    mut reference: R,
    mut production: P,
    decisions: &[Vec<(usize, Time)>],
) -> (usize, f64, f64) {
    let n: usize = decisions.iter().map(Vec::len).sum();
    let reps = (400_000 / n.max(1)).clamp(1, 128);
    assert_eq!(
        replay(&mut reference, decisions),
        replay(&mut production, decisions),
        "replay outcomes must agree"
    );
    let (r, p) = interleaved_ns_per_op(
        reps,
        n,
        || replay(&mut reference, decisions),
        || replay(&mut production, decisions),
    );
    (n, r, p)
}

/// `w`'s closed loop under the reference scan — [`Workload::run_closed`]
/// with the manager swapped.
fn run_reference<W: Workload, S: TraceSink>(
    w: &W,
    chaining: CycleChaining,
    jitter: f64,
    sink: &mut S,
) -> RunSummary {
    let manager = ReferenceManager {
        regions: w.regions(),
        relaxation: None,
    };
    Engine::new(w.system(), manager, w.overhead()).run_cycles(
        FRAMES,
        w.period(),
        chaining,
        &mut w.exec_source(jitter, SEED),
        sink,
    )
}

/// The MPEG harness run of `kind` under the reference scan, burst included.
fn mpeg_reference(
    mpeg: &PaperExperiment,
    kind: ManagerKind,
    burst: Option<(usize, usize, f64)>,
) -> RunSummary {
    let mut exec = mpeg.encoder.exec(0.1, SEED);
    if let Some((lo, hi, f)) = burst {
        exec = exec.with_burst(lo, hi, f);
    }
    let manager = ReferenceManager {
        regions: &mpeg.regions,
        relaxation: (kind == ManagerKind::Relaxation).then_some(&mpeg.relaxation),
    };
    Engine::new(mpeg.encoder.system(), manager, kind.overhead_model()).run_cycles(
        FRAMES,
        mpeg.encoder.config().frame_period,
        mpeg.chaining,
        &mut exec,
        &mut NullSink,
    )
}

struct Entry {
    workload: &'static str,
    qualities: usize,
    decisions: usize,
    ns_reference: f64,
    ns_production: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.ns_reference / self.ns_production
    }
}

/// Gate + measure one workload: the production manager ≡ the reference
/// scan byte-for-byte (summaries and records, both chainings), then time
/// both over the recorded decision sequence.
fn measure<W: Workload>(w: &W, name: &'static str, jitter: f64) -> Entry {
    let mut trace = Trace::default();
    for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
        let mut production_trace = Trace::default();
        let production = w.run_closed(FRAMES, chaining, jitter, SEED, &mut production_trace);
        let mut reference_trace = Trace::default();
        let reference = run_reference(w, chaining, jitter, &mut reference_trace);
        assert_eq!(
            production, reference,
            "{name}: production manager must be byte-identical ({chaining:?})"
        );
        for (a, b) in reference_trace.cycles.iter().zip(&production_trace.cycles) {
            assert_eq!(
                a.records, b.records,
                "{name}: trace must match ({chaining:?})"
            );
        }
        if chaining == CycleChaining::WorkConserving {
            trace = production_trace;
        }
    }
    println!("identity check: {name} production manager == reference scan (summaries + records) ✓");

    let reference = ReferenceManager {
        regions: w.regions(),
        relaxation: None,
    };
    let (decisions, ns_reference, ns_production) = time_decisions(
        reference,
        LookupManager::new(w.regions()),
        &decision_cycles(&trace),
    );
    Entry {
        workload: name,
        qualities: w.system().qualities().len(),
        decisions,
        ns_reference,
        ns_production,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());

    let mpeg = PaperExperiment::with_config_and_rho(
        EncoderConfig::small(7),
        StepSet::new(vec![1, 2, 4, 8]).expect("valid step menu"),
    );
    let audio = AudioExperiment::tiny(7);
    let net = NetExperiment::small(7);

    // Gate: the MPEG symbolic manager kinds (regions *and* relaxation) are
    // byte-identical to the reference scan, in the typical and the loaded
    // regime alike.
    for kind in [ManagerKind::Regions, ManagerKind::Relaxation] {
        for burst in [None, LOADED_BURST] {
            assert_eq!(
                mpeg.run_summary(kind, FRAMES, 0.1, SEED, burst),
                mpeg_reference(&mpeg, kind, burst),
                "production manager must be byte-identical ({kind:?}, burst {burst:?})"
            );
        }
    }
    println!("identity check: MPEG regions + relaxation managers == reference scan ✓");

    let entries = [
        measure(&mpeg, "mpeg/regions", 0.1),
        measure(&audio, "audio/regions", 0.1),
        measure(&net, "net/regions", net.jitter()),
    ];

    // The loaded MPEG regime: the burst pushes quality down, so the
    // top-down scan probes deep while the hinted probe keeps resuming next
    // to the previous choice.
    let mut loaded_trace = Trace::default();
    let loaded_run = mpeg.run_into(
        ManagerKind::Regions,
        FRAMES,
        0.1,
        SEED,
        LOADED_BURST,
        &mut loaded_trace,
    );
    assert_eq!(
        loaded_run.misses, 0,
        "the loaded regime must stay miss-free"
    );
    let (_, loaded_reference, loaded_production) = time_decisions(
        ReferenceManager {
            regions: &mpeg.regions,
            relaxation: None,
        },
        LookupManager::new(&mpeg.regions),
        &decision_cycles(&loaded_trace),
    );
    let loaded_probes = loaded_run.qm_work as f64 / loaded_run.qm_calls as f64;

    // The relaxed manager on the MPEG tables: replay the relaxation
    // manager's (sparser) decision sequence.
    let mut relax_trace = Trace::default();
    let _ = mpeg.run_into(
        ManagerKind::Relaxation,
        FRAMES,
        0.1,
        SEED,
        None,
        &mut relax_trace,
    );
    let (n_relax, relax_reference, relax_production) = time_decisions(
        ReferenceManager {
            regions: &mpeg.regions,
            relaxation: Some(&mpeg.relaxation),
        },
        RelaxedManager::new(&mpeg.regions, &mpeg.relaxation),
        &decision_cycles(&relax_trace),
    );

    // Acceptance gate: on the MPEG 7-quality table the production
    // manager's host ns/decision is strictly below the reference scan —
    // in the typical regime and in the loaded one.
    let mpeg_entry = &entries[0];
    println!(
        "mpeg ns/decision: typical {:.2} -> {:.2} ({:.2}x), \
         loaded {:.2} -> {:.2} ({:.2}x, scan probes/decision {:.2})",
        mpeg_entry.ns_reference,
        mpeg_entry.ns_production,
        mpeg_entry.speedup(),
        loaded_reference,
        loaded_production,
        loaded_reference / loaded_production,
        loaded_probes,
    );
    assert!(
        mpeg_entry.ns_production < mpeg_entry.ns_reference,
        "production manager must beat the reference scan on the MPEG table (typical regime): \
         reference {:.2} ns, production {:.2} ns",
        mpeg_entry.ns_reference,
        mpeg_entry.ns_production
    );
    assert!(
        loaded_production < loaded_reference,
        "production manager must beat the reference scan on the MPEG table (loaded regime): \
         reference {loaded_reference:.2} ns, production {loaded_production:.2} ns"
    );

    let mut rows = Vec::new();
    for e in &entries {
        println!(
            "{:14} |Q|={} decisions {:5}  {:6.2} -> {:6.2} ns/decision ({:4.2}x)",
            e.workload,
            e.qualities,
            e.decisions,
            e.ns_reference,
            e.ns_production,
            e.speedup(),
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"workload\": \"{}\",\n",
                "      \"qualities\": {},\n",
                "      \"decisions\": {},\n",
                "      \"ns_per_decision_reference\": {:.2},\n",
                "      \"ns_per_decision_production\": {:.2},\n",
                "      \"decision_speedup\": {:.2}\n",
                "    }}"
            ),
            e.workload,
            e.qualities,
            e.decisions,
            e.ns_reference,
            e.ns_production,
            e.speedup(),
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"speed-qm/bench-hotpath/v2\",\n",
            "  \"config\": \"EncoderConfig::small(7) + AudioConfig::tiny + NetConfig::small, \
             {} cycles, seed {}, exact decision replay, median of {} samples\",\n",
            "  \"note\": \"host-ns numbers are machine-dependent; track the reference/production \
             ratios. reference = the paper's top-down table scans, production = \
             LookupManager/RelaxedManager (hinted probe). Virtual accounting (Decision::work) \
             is identical on both by construction. The loaded regime is the Fig. 8 complexity \
             burst (1.6x, miss-free): low quality, deep scans.\",\n",
            "  \"production_byte_identical\": true,\n",
            "  \"mpeg_decision_speedup_typical\": {:.2},\n",
            "  \"mpeg_decision_speedup_loaded\": {:.2},\n",
            "  \"mpeg_loaded\": {{\n",
            "    \"decisions\": {},\n",
            "    \"scan_probes_per_decision\": {:.2},\n",
            "    \"ns_per_decision_reference\": {:.2},\n",
            "    \"ns_per_decision_production\": {:.2},\n",
            "    \"deadline_misses\": {}\n",
            "  }},\n",
            "  \"relaxed_mpeg\": {{\n",
            "    \"decisions\": {},\n",
            "    \"ns_per_decision_reference\": {:.2},\n",
            "    \"ns_per_decision_production\": {:.2},\n",
            "    \"decision_speedup\": {:.2}\n",
            "  }},\n",
            "  \"workloads\": [\n{}\n  ]\n",
            "}}\n"
        ),
        FRAMES,
        SEED,
        SAMPLES,
        mpeg_entry.speedup(),
        loaded_reference / loaded_production,
        loaded_run.qm_calls,
        loaded_probes,
        loaded_reference,
        loaded_production,
        loaded_run.misses,
        n_relax,
        relax_reference,
        relax_production,
        relax_reference / relax_production,
        rows.join(",\n")
    );

    std::fs::write(&out_path, &json).expect("write hotpath bench json");
    println!("wrote {out_path}");
    print!("{json}");
}
