//! Quality Managers — the online controllers `Γ`.
//!
//! A Quality Manager observes the current state `(s_i, t_i)` and returns the
//! quality level for the next action (Definition 2). Three implementations
//! mirror the paper's §4.1 experiment:
//!
//! * [`NumericManager`] — re-computes `tD(s_i, q)` **online** at every call
//!   by scanning the remaining actions, for each probed quality level. This
//!   is the paper's baseline whose overhead motivates the symbolic method.
//! * [`LookupManager`] — uses the pre-computed quality region table
//!   ([`crate::regions::QualityRegionTable`]): at most `|Q|` integer
//!   comparisons per call.
//! * [`RelaxedManager`] — additionally consults the control relaxation
//!   table ([`crate::relaxation::RelaxationTable`]) and asks the controller
//!   to skip the next `r − 1` calls entirely.
//!
//! The symbolic managers probe from the previous decision (a hint reset
//! to the top in [`QualityManager::reset`]) instead of rescanning from
//! `qmax` — amortized O(1) host work per decision. Their
//! [`Decision::work`] is the *analytic* top-down probe count
//! ([`QualityRegionTable::scan_work`]), so every virtual-time quantity is
//! exactly what the paper's top-down scan
//! ([`QualityRegionTable::choose`]) charges.
//!
//! All managers are *equivalent in their choices* — they realize the same
//! function `Γ` (property-tested in the workspace integration tests); they
//! differ only in work per call, which the controller charges to the clock
//! through an [`crate::controller::OverheadModel`].

use crate::policy::Policy;
use crate::quality::Quality;
use crate::regions::QualityRegionTable;
use crate::relaxation::RelaxationTable;
use crate::system::ParameterizedSystem;
use crate::time::Time;

pub use crate::manager_smooth::SmoothedManager;

/// The outcome of one Quality Manager invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Quality level for the next `hold` actions.
    pub quality: Quality,
    /// How many consecutive actions this decision covers (`≥ 1`). Plain
    /// managers return 1; the relaxed manager returns the relaxation step
    /// `r` of Proposition 3.
    pub hold: usize,
    /// Elementary work units *charged* for the decision — the paper's
    /// abstract cost model: suffix-scan iterations for the numeric manager,
    /// top-down table probes for the symbolic ones. For the symbolic
    /// managers this is defined **analytically** from the chosen quality
    /// (`|Q| − q` probes, see
    /// [`crate::regions::QualityRegionTable::scan_work`]), *not* from the
    /// host work the hinted probe actually performed. The controller
    /// converts this into time overhead.
    pub work: u64,
    /// `true` when not even `qmin` satisfied the policy constraint — the
    /// state lies outside every quality region. Under correct worst-case
    /// estimates this cannot happen; it is surfaced for fault injection
    /// experiments.
    pub infeasible: bool,
}

/// An online quality manager: `Γ(s_i, t_i) = q_{i+1}`.
pub trait QualityManager {
    /// Decide the quality for the next action, given `state` (actions
    /// completed so far within the cycle) and the elapsed cycle time `t`.
    fn decide(&mut self, state: usize, t: Time) -> Decision;

    /// Identifier used in benchmark reports.
    fn name(&self) -> &'static str;

    /// Reset any per-cycle internal state (none of the built-in managers
    /// carry state across calls, but adaptive extensions may).
    fn reset(&mut self) {}
}

/// The paper's numeric Quality Manager: straight online evaluation of the
/// mixed policy at every call.
#[derive(Clone, Debug)]
pub struct NumericManager<'a, P: Policy> {
    policy: &'a P,
    n_quality: usize,
}

impl<'a, P: Policy> NumericManager<'a, P> {
    /// A numeric manager for `sys` driven by `policy`.
    pub fn new(sys: &ParameterizedSystem, policy: &'a P) -> NumericManager<'a, P> {
        NumericManager {
            policy,
            n_quality: sys.qualities().len(),
        }
    }
}

impl<P: Policy> QualityManager for NumericManager<'_, P> {
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let mut work = 0;
        for qi in (0..self.n_quality).rev() {
            let q = Quality::new(qi as u8);
            let (td, w) = self.policy.t_d_scan(state, q);
            work += w;
            if td >= t {
                return Decision {
                    quality: q,
                    hold: 1,
                    work,
                    infeasible: false,
                };
            }
        }
        Decision {
            quality: Quality::MIN,
            hold: 1,
            work,
            infeasible: true,
        }
    }

    fn name(&self) -> &'static str {
        "numeric"
    }
}

/// The region half of both symbolic managers: the hinted walk from
/// `*hint`, charged the analytic top-down probe count. Leaves the choice
/// (or `qmin` when infeasible) in `*hint` for the next call.
#[inline]
pub(crate) fn region_decision(
    table: &QualityRegionTable,
    state: usize,
    t: Time,
    hint: &mut Quality,
) -> Decision {
    let choice = table.choose_from(state, t, *hint);
    *hint = choice.unwrap_or(Quality::MIN);
    Decision {
        quality: *hint,
        hold: 1,
        work: table.scan_work(choice),
        infeasible: choice.is_none(),
    }
}

/// Symbolic Quality Manager over pre-computed quality regions: pure table
/// lookups (Proposition 2). Each probe resumes from the previous decision
/// ([`QualityRegionTable::choose_from`]); the charged work is the analytic
/// top-down count, so the outcome equals the paper's scan
/// ([`QualityRegionTable::choose`]) decision for decision.
///
/// # Examples
///
/// ```
/// use sqm_core::compiler::compile_regions;
/// use sqm_core::manager::{LookupManager, QualityManager};
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
///
/// let sys = SystemBuilder::new(3)
///     .action("a", &[10, 25, 40], &[4, 9, 14])
///     .action("b", &[12, 22, 35], &[6, 11, 17])
///     .deadline_last(Time::from_ns(80))
///     .build()
///     .unwrap();
/// let regions = compile_regions(&sys);
/// let mut manager = LookupManager::new(&regions);
/// for (state, t) in [(0, 0), (1, 30)] {
///     let t = Time::from_ns(t);
///     let d = manager.decide(state, t);
///     // The reference scan's choice and its probe count.
///     assert_eq!((Some(d.quality), d.work), regions.choose(state, t));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct LookupManager<'a> {
    table: &'a QualityRegionTable,
    hint: Quality,
}

impl<'a> LookupManager<'a> {
    /// A lookup manager over a compiled region table.
    pub fn new(table: &'a QualityRegionTable) -> LookupManager<'a> {
        LookupManager {
            table,
            hint: table.qualities().max(),
        }
    }
}

impl QualityManager for LookupManager<'_> {
    #[inline]
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        region_decision(self.table, state, t, &mut self.hint)
    }

    fn name(&self) -> &'static str {
        "regions"
    }

    fn reset(&mut self) {
        // A fresh cycle restarts the budget: start from `qmax` like the
        // top-down scan's first probe.
        self.hint = self.table.qualities().max();
    }
}

/// Symbolic Quality Manager with control relaxation: after the region
/// lookup it probes the relaxation table for the largest admissible step
/// `r ∈ ρ` and asks the controller to hold the chosen quality for `r`
/// actions (Proposition 3). Both probes resume from the previous decision
/// ([`QualityRegionTable::choose_from`] /
/// [`RelaxationTable::choose_relaxation_from`]) and charge the analytic
/// top-down counts.
///
/// # Examples
///
/// ```
/// use sqm_core::compiler::{compile_regions, compile_relaxation};
/// use sqm_core::manager::{QualityManager, RelaxedManager};
/// use sqm_core::relaxation::StepSet;
/// use sqm_core::system::SystemBuilder;
/// use sqm_core::time::Time;
///
/// let sys = SystemBuilder::new(2)
///     .action("a", &[10, 20], &[4, 9])
///     .action("b", &[12, 22], &[6, 11])
///     .action("c", &[8, 18], &[3, 8])
///     .deadline_last(Time::from_ns(90))
///     .build()
///     .unwrap();
/// let regions = compile_regions(&sys);
/// let relax = compile_relaxation(&sys, &regions, StepSet::new(vec![1, 2]).unwrap());
/// let d = RelaxedManager::new(&regions, &relax).decide(0, Time::ZERO);
/// let (q, probes) = regions.choose(0, Time::ZERO);
/// let (r, r_probes) = relax.choose_relaxation(0, Time::ZERO, q.unwrap());
/// assert_eq!((d.quality, d.hold, d.work), (q.unwrap(), r, probes + r_probes));
/// ```
#[derive(Clone, Debug)]
pub struct RelaxedManager<'a> {
    regions: &'a QualityRegionTable,
    relaxation: &'a RelaxationTable,
    hint_q: Quality,
    hint_ri: usize,
}

impl<'a> RelaxedManager<'a> {
    /// A relaxed manager over compiled region + relaxation tables.
    pub fn new(
        regions: &'a QualityRegionTable,
        relaxation: &'a RelaxationTable,
    ) -> RelaxedManager<'a> {
        debug_assert_eq!(regions.n_states(), relaxation.n_states());
        RelaxedManager {
            regions,
            relaxation,
            hint_q: regions.qualities().max(),
            hint_ri: relaxation.rho().len() - 1,
        }
    }
}

impl QualityManager for RelaxedManager<'_> {
    #[inline]
    fn decide(&mut self, state: usize, t: Time) -> Decision {
        let mut decision = region_decision(self.regions, state, t, &mut self.hint_q);
        if !decision.infeasible {
            let found =
                self.relaxation
                    .choose_relaxation_from(state, t, decision.quality, self.hint_ri);
            decision.work += self.relaxation.scan_work(found);
            // No interval holding `t` degrades to ρ[0] = 1.
            self.hint_ri = found.unwrap_or(0);
            let remaining = self.regions.n_states() - state;
            decision.hold = self.relaxation.rho().steps()[self.hint_ri]
                .min(remaining)
                .max(1);
        }
        decision
    }

    fn name(&self) -> &'static str {
        "relaxation"
    }

    fn reset(&mut self) {
        self.hint_q = self.regions.qualities().max();
        self.hint_ri = self.relaxation.rho().len() - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MixedPolicy;
    use crate::relaxation::StepSet;
    use crate::system::{ParameterizedSystem, SystemBuilder};

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .action("d", &[15, 24, 33], &[7, 12, 16])
            .deadline_last(Time::from_ns(130))
            .build()
            .unwrap()
    }

    #[test]
    fn numeric_chooses_maximal_feasible_quality() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut m = NumericManager::new(&s, &p);
        let d = m.decide(0, Time::ZERO);
        assert!(!d.infeasible);
        assert_eq!(d.hold, 1);
        // The decision must satisfy the policy, and the next level up must not.
        assert!(p.t_d(0, d.quality) >= Time::ZERO);
        if d.quality != s.qualities().max() {
            assert!(p.t_d(0, d.quality.up()) < Time::ZERO);
        }
    }

    #[test]
    fn numeric_flags_infeasible_states() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let mut m = NumericManager::new(&s, &p);
        let d = m.decide(0, Time::from_secs(10));
        assert!(d.infeasible);
        assert_eq!(d.quality, Quality::MIN);
    }

    #[test]
    fn all_managers_agree_pointwise() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let regions = QualityRegionTable::from_policy(&s, &p);
        let relaxation = RelaxationTable::compile(&s, &regions, StepSet::new(vec![1, 2]).unwrap());
        let mut numeric = NumericManager::new(&s, &p);
        let mut lookup = LookupManager::new(&regions);
        let mut relaxed = RelaxedManager::new(&regions, &relaxation);
        // Sweep *sequentially* without resets so the symbolic managers'
        // hints carry real state between calls, including the infeasible
        // tail; the charged work must still be the top-down scan's.
        for state in 0..4 {
            for t_ns in -20..200 {
                let t = Time::from_ns(t_ns);
                let dn = numeric.decide(state, t);
                let dl = lookup.decide(state, t);
                let dr = relaxed.decide(state, t);
                assert_eq!(dn.quality, dl.quality, "state {state} t {t}");
                assert_eq!(dn.quality, dr.quality, "state {state} t {t}");
                assert_eq!(dn.infeasible, dl.infeasible);
                assert_eq!(dn.infeasible, dr.infeasible);
                let (_, probes) = regions.choose(state, t);
                assert_eq!(dl.work, probes, "lookup work state {state} t {t}");
                let r_probes = if dn.infeasible {
                    0
                } else {
                    let (r, r_probes) = relaxation.choose_relaxation(state, t, dn.quality);
                    assert_eq!(dr.hold, r.min(4 - state), "hold state {state} t {t}");
                    r_probes
                };
                assert_eq!(
                    dr.work,
                    probes + r_probes,
                    "relaxed work state {state} t {t}"
                );
                assert!(dr.hold >= 1 && state + dr.hold <= 4);
            }
        }
        // And after a cycle reset.
        lookup.reset();
        assert_eq!(
            lookup.decide(0, Time::ZERO).work,
            regions.choose(0, Time::ZERO).1
        );
    }

    #[test]
    fn symbolic_work_is_bounded_numeric_work_is_not() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let regions = QualityRegionTable::from_policy(&s, &p);
        let mut numeric = NumericManager::new(&s, &p);
        let mut lookup = LookupManager::new(&regions);
        // Late time forces the numeric manager to probe every quality level,
        // each probe scanning the whole remaining suffix.
        let t = Time::from_ns(125);
        let dn = numeric.decide(0, t);
        let dl = lookup.decide(0, t);
        assert!(dn.work > dl.work);
        assert!(dl.work <= 3, "lookup work bounded by |Q|");
    }

    #[test]
    fn manager_names() {
        let s = sys();
        let p = MixedPolicy::new(&s);
        let regions = QualityRegionTable::from_policy(&s, &p);
        let relaxation = RelaxationTable::compile(&s, &regions, StepSet::new(vec![1]).unwrap());
        assert_eq!(NumericManager::new(&s, &p).name(), "numeric");
        assert_eq!(LookupManager::new(&regions).name(), "regions");
        assert_eq!(
            RelaxedManager::new(&regions, &relaxation).name(),
            "relaxation"
        );
    }
}
