//! Decision core: the paper's top-down table scans ([`ReferenceManager`])
//! against the production `LookupManager` / `RelaxedManager`, whose probes
//! resume from the previous decision, per decision.
//!
//! Complements `benches/qm_latency.rs` (which compares the three *paper*
//! managers): here both sides answer from the same compiled tables and
//! make byte-identical choices — the delta is pure host-side search
//! strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sqm_bench::ReferenceManager;
use sqm_core::compiler::{compile_regions, compile_relaxation};
use sqm_core::manager::{LookupManager, QualityManager, RelaxedManager};
use sqm_core::relaxation::StepSet;
use sqm_core::time::Time;
use sqm_mpeg::{EncoderConfig, MpegEncoder};
use std::hint::black_box;

/// A mid-band decision time at `state`: both sides do real probing.
fn mid_t(regions: &sqm_core::regions::QualityRegionTable, state: usize) -> Time {
    Time::from_ns((regions.t_d(state, sqm_core::quality::Quality::MIN).as_ns() as f64 * 0.5) as i64)
}

fn bench_decide(c: &mut Criterion) {
    let encoder = MpegEncoder::new(EncoderConfig::paper(7)).unwrap();
    let sys = encoder.system();
    let regions = compile_regions(sys);
    let relaxation = compile_relaxation(sys, &regions, StepSet::paper_mpeg());

    let mut group = c.benchmark_group("hotpath_decide");
    for state in [0usize, 594, 1_100] {
        let t = mid_t(&regions, state);
        group.bench_with_input(
            BenchmarkId::new("regions_reference", state),
            &state,
            |b, &s| {
                let mut m = ReferenceManager {
                    regions: &regions,
                    relaxation: None,
                };
                b.iter(|| black_box(m.decide(black_box(s), black_box(t))));
            },
        );
        group.bench_with_input(BenchmarkId::new("regions", state), &state, |b, &s| {
            let mut m = LookupManager::new(&regions);
            b.iter(|| black_box(m.decide(black_box(s), black_box(t))));
        });
        group.bench_with_input(
            BenchmarkId::new("relaxation_reference", state),
            &state,
            |b, &s| {
                let mut m = ReferenceManager {
                    regions: &regions,
                    relaxation: Some(&relaxation),
                };
                b.iter(|| black_box(m.decide(black_box(s), black_box(t))));
            },
        );
        group.bench_with_input(BenchmarkId::new("relaxation", state), &state, |b, &s| {
            let mut m = RelaxedManager::new(&regions, &relaxation);
            b.iter(|| black_box(m.decide(black_box(s), black_box(t))));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decide);
criterion_main!(benches);
