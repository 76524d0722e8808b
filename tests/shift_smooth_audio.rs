//! Property and integration tests for the later-added features: deadline
//! shifting of compiled tables, the smoothness-constrained manager, and
//! the audio workload.

mod common;

use common::{arb_system, fraction_exec};
use proptest::prelude::*;
use speed_qm::audio::{AudioCodec, AudioConfig};
use speed_qm::core::analysis;
use speed_qm::core::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For single-global-deadline systems, shifting a compiled table is
    /// identical to recompiling against the shifted deadline.
    #[test]
    fn shifted_tables_equal_recompiled(arb in arb_system(), delta_ns in -300i64..300) {
        let sys = &arb.system;
        // Only exact for a single (final) deadline.
        prop_assume!(sys.deadlines().constrained_count() == 1);
        let delta = Time::from_ns(delta_ns);
        let Some(moved) = analysis::with_final_deadline(sys, sys.final_deadline() + delta)
        else {
            return Ok(()); // shrunk below feasibility
        };
        let regions = compile_regions(sys);
        let recompiled = compile_regions(&moved);
        prop_assert_eq!(regions.shifted(delta), recompiled);

        let rho = StepSet::new(vec![1, 2, 4]).unwrap();
        let relaxation = compile_relaxation(sys, &regions, rho.clone());
        let relaxation_moved = compile_relaxation(&moved, &regions.shifted(delta), rho);
        prop_assert_eq!(relaxation.shifted(delta), relaxation_moved);
    }

    /// The smoothed manager is safe for any admissible execution and never
    /// exceeds the unsmoothed choice.
    #[test]
    fn smoothed_manager_is_safe_and_conservative(
        arb in arb_system(),
        step in 1u8..3,
        hysteresis in 0u32..4,
    ) {
        let sys = &arb.system;
        let policy = MixedPolicy::new(sys);
        let smoothed = {
            let manager =
                SmoothedManager::new(NumericManager::new(sys, &policy), step, hysteresis);
            let mut runner = CycleRunner::new(sys, manager, OverheadModel::ZERO);
            let mut exec = FnExec(fraction_exec(sys, &arb.fractions));
            runner.run_cycle(0, Time::ZERO, &mut exec)
        };
        prop_assert_eq!(smoothed.stats().misses, 0);

        // Replay the same elapsed-time points against the raw policy: the
        // smoothed choice must always be admissible (≤ the maximal level).
        for r in &smoothed.records {
            prop_assert!(policy.t_d(r.action, r.quality) >= r.start - r.qm_overhead);
        }
    }
}

#[test]
fn audio_symbolic_managers_match_numeric() {
    let codec = AudioCodec::new(AudioConfig::tiny(11)).unwrap();
    let sys = codec.system();
    let policy = MixedPolicy::new(sys);
    let regions = compile_regions(sys);
    let relaxation = compile_relaxation(sys, &regions, StepSet::new(vec![1, 2, 4]).unwrap());

    let run = |manager: &mut dyn QualityManager| -> Vec<usize> {
        struct ByRef<'a>(&'a mut dyn QualityManager);
        impl QualityManager for ByRef<'_> {
            fn decide(&mut self, state: usize, t: Time) -> Decision {
                self.0.decide(state, t)
            }
            fn name(&self) -> &'static str {
                "by-ref"
            }
        }
        let mut runner = CyclicRunner::new(
            sys,
            ByRef(manager),
            OverheadModel::ZERO,
            codec.config().cycle_period,
        );
        let mut exec = codec.exec(0.15, 5);
        runner
            .run(4, &mut exec)
            .cycles
            .iter()
            .flat_map(|c| c.quality_sequence())
            .collect()
    };

    let numeric = run(&mut NumericManager::new(sys, &policy));
    let lookup = run(&mut LookupManager::new(&regions));
    let relaxed = run(&mut RelaxedManager::new(&regions, &relaxation));
    assert_eq!(numeric, lookup);
    assert_eq!(numeric, relaxed);
}

#[test]
fn audio_codec_tracks_content_difficulty() {
    // Noisy passages are more expensive, so their blocks run at lower
    // quality on average than tonal ones within the same stream.
    let codec = AudioCodec::new(AudioConfig::streaming(3)).unwrap();
    let sys = codec.system();
    let policy = MixedPolicy::new(sys);
    let mut runner = CyclicRunner::new(
        sys,
        NumericManager::new(sys, &policy),
        OverheadModel::ZERO,
        codec.config().cycle_period,
    );
    let mut exec = codec.exec(0.1, 9);
    let trace = runner.run(32, &mut exec);
    assert_eq!(trace.total_misses(), 0);

    let mut noisy = (0.0f64, 0usize);
    let mut tonal = (0.0f64, 0usize);
    for c in &trace.cycles {
        for r in &c.records {
            let block = c.cycle * codec.config().blocks_per_cycle + codec.block_of(r.action);
            let bucket = if codec.audio().is_noisy(block) {
                &mut noisy
            } else {
                &mut tonal
            };
            bucket.0 += r.quality.index() as f64;
            bucket.1 += 1;
        }
    }
    assert!(
        noisy.1 > 0 && tonal.1 > 0,
        "stream should contain both passage kinds"
    );
    let noisy_avg = noisy.0 / noisy.1 as f64;
    let tonal_avg = tonal.0 / tonal.1 as f64;
    assert!(
        noisy_avg < tonal_avg,
        "noisy passages should run at lower quality: {noisy_avg:.2} vs {tonal_avg:.2}"
    );
}

#[test]
fn shifted_table_controls_the_audio_codec_safely() {
    let codec = AudioCodec::new(AudioConfig::streaming(5)).unwrap();
    let sys = codec.system();
    let regions = compile_regions(sys);
    // Feasibility floor: the qmin worst case is ≈ 19.2 ms against the
    // 21 ms period, so only shifts above −1.8 ms are admissible.
    for delta_ms in [-1i64, 1, 2] {
        let delta = Time::from_ms(delta_ms);
        let shifted = regions.shifted(delta);
        // The renegotiated deadline is the real one: the runner must check
        // misses against it, so rebuild the system's deadline map too.
        let moved = analysis::with_final_deadline(sys, codec.config().cycle_period + delta)
            .expect("within feasibility");
        let mut runner = CyclicRunner::new(
            &moved,
            LookupManager::new(&shifted),
            OverheadModel::ZERO,
            codec.config().cycle_period + delta,
        );
        let mut exec = codec.exec(0.15, 6);
        let trace = runner.run(12, &mut exec);
        assert_eq!(trace.total_misses(), 0, "delta {delta_ms} ms");
    }
}
