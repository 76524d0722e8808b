//! Production ≡ reference identities for the decision core.
//!
//! The symbolic managers ([`LookupManager`] / [`RelaxedManager`]) and the
//! table-level hinted probes they decide through (`choose_from` /
//! `choose_relaxation_from`) must make **exactly** the choices of the
//! paper's top-down scans and charge **exactly** the analytic probe count —
//! over arbitrary feasible systems, from *every* possible hint, including
//! exact region-boundary times (`t = tD(s, q)` and ±1 ns) and the
//! infeasible tail beyond `tD(s, qmin)`. Engine-level, a production run's
//! records must be byte-identical to the [`ReferenceManager`] scan's.

mod common;

use common::{arb_system, cycle_fraction_exec, ArbSystem, OVERHEAD};
use proptest::prelude::*;
use speed_qm::core::compiler::{compile_regions, compile_relaxation};
use speed_qm::core::prelude::*;
use speed_qm::core::trace::Trace;
use sqm_bench::ReferenceManager;

/// Decision times that exercise every structural case at `state`: each
/// region boundary exactly, one below, one above, far past (infeasible
/// tail), far early, and the relaxation bounds too.
fn probe_times(regions: &QualityRegionTable, relax: &RelaxationTable, state: usize) -> Vec<Time> {
    let mut times = vec![
        Time::from_ns(-1_000_000),
        Time::ZERO,
        regions.t_d(state, Quality::MIN) + Time::from_ns(1_000_000),
    ];
    for q in regions.qualities().iter() {
        let b = regions.t_d(state, q);
        for delta in [-1i64, 0, 1] {
            times.push(b + Time::from_ns(delta));
        }
        for ri in 0..relax.rho().len() {
            let (lo, up) = relax.bounds(state, q, ri);
            for t in [lo, up] {
                if !t.is_infinite() {
                    for delta in [-1i64, 0, 1] {
                        times.push(t + Time::from_ns(delta));
                    }
                }
            }
        }
    }
    times
}

/// One closed-loop run shape over an arbitrary system.
struct Run<'a> {
    arb: &'a ArbSystem,
    cycles: usize,
    chaining: CycleChaining,
}

impl Run<'_> {
    fn trace<M: QualityManager>(&self, manager: M) -> (RunSummary, Trace) {
        let sys = &self.arb.system;
        let mut trace = Trace::default();
        let summary = Engine::new(sys, manager, OVERHEAD).run_cycles(
            self.cycles,
            sys.final_deadline(),
            self.chaining,
            &mut cycle_fraction_exec(sys, &self.arb.fractions),
            &mut trace,
        );
        (summary, trace)
    }

    /// `production` and `reference` produce the same summary and records.
    fn matches<P: QualityManager, R: QualityManager>(
        &self,
        production: P,
        reference: R,
    ) -> Result<(), TestCaseError> {
        let name = production.name();
        let (got, got_trace) = self.trace(production);
        let (want, want_trace) = self.trace(reference);
        prop_assert_eq!(got, want, "{} {:?}", name, self.chaining);
        for (a, b) in want_trace.cycles.iter().zip(&got_trace.cycles) {
            prop_assert_eq!(&a.records, &b.records, "{} {:?}", name, self.chaining);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table-level: `choose_from` ≡ `choose` (same quality, same analytic
    /// work) from every hint, and `choose_relaxation_from` ≡
    /// `choose_relaxation` from every hint — at region boundaries, ±1 ns
    /// around them, and in the infeasible tail.
    #[test]
    fn incremental_search_equals_naive_scan(arb in arb_system()) {
        let sys = &arb.system;
        let regions = compile_regions(sys);
        let n = sys.n_actions();
        let rho = StepSet::new((1..=n.min(3)).collect()).unwrap();
        let relax = compile_relaxation(sys, &regions, rho);
        for state in 0..n {
            for t in probe_times(&regions, &relax, state) {
                let (naive, probes) = regions.choose(state, t);
                prop_assert_eq!(regions.scan_work(naive), probes);
                for hint in sys.qualities().iter() {
                    prop_assert_eq!(
                        regions.choose_from(state, t, hint),
                        naive,
                        "state {} t {:?} hint {}", state, t, hint
                    );
                }
                if let Some(q) = naive {
                    let (r, r_probes) = relax.choose_relaxation(state, t, q);
                    for hint in 0..relax.rho().len() {
                        let found = relax.choose_relaxation_from(state, t, q, hint);
                        prop_assert_eq!(
                            found.map_or(1, |ri| relax.rho().steps()[ri]),
                            r,
                            "state {} t {:?} hint {}", state, t, hint
                        );
                        prop_assert_eq!(relax.scan_work(found), r_probes);
                    }
                }
            }
        }
    }

    /// Engine-level: a run under the production managers is
    /// byte-identical — summaries *and* records — to the same run under
    /// the reference scan, for both chaining variants.
    #[test]
    fn managers_run_byte_identical_to_reference_scan(arb in arb_system(), cycles in 1usize..5) {
        let regions = compile_regions(&arb.system);
        let n = arb.system.n_actions();
        let rho = StepSet::new((1..=n.min(3)).collect()).unwrap();
        let relax = compile_relaxation(&arb.system, &regions, rho);
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let run = Run { arb: &arb, cycles, chaining };
            run.matches(
                LookupManager::new(&regions),
                ReferenceManager { regions: &regions, relaxation: None },
            )?;
            run.matches(
                RelaxedManager::new(&regions, &relax),
                ReferenceManager { regions: &regions, relaxation: Some(&relax) },
            )?;
        }
    }

    /// The summary-only engine path (`NullSink`, record construction
    /// compiled out) agrees byte-for-byte with the recording path's
    /// summary — the `WANTS_RECORDS` specialization must not change any
    /// aggregate.
    #[test]
    fn null_sink_summary_equals_recording_summary(arb in arb_system(), cycles in 1usize..5) {
        let sys = &arb.system;
        let regions = compile_regions(sys);
        let period = sys.final_deadline();
        for chaining in [CycleChaining::WorkConserving, CycleChaining::ArrivalClamped] {
            let recorded = {
                let mut trace = Trace::default();
                Engine::new(sys, LookupManager::new(&regions), OVERHEAD).run_cycles(
                    cycles,
                    period,
                    chaining,
                    &mut cycle_fraction_exec(sys, &arb.fractions),
                    &mut trace,
                )
            };
            let null = Engine::new(sys, LookupManager::new(&regions), OVERHEAD).run_cycles(
                cycles,
                period,
                chaining,
                &mut cycle_fraction_exec(sys, &arb.fractions),
                &mut NullSink,
            );
            prop_assert_eq!(recorded, null, "{:?}", chaining);
        }
    }
}
