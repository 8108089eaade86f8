//! The live half of the oracle: an independent shadow state machine driven
//! by the engine's [`SimHook`] stream.
//!
//! The shadow re-derives, from the hook events alone, what the serving
//! cells and the HO phase *must* be — then compares against what the engine
//! reports at every tick. It deliberately re-implements the Table 2
//! transition semantics instead of calling into `fiveg-ran`, so a bug in
//! the state machine cannot hide itself.

use crate::violation::Violation;
use fiveg_radio::rrs::NOISE_FLOOR_DBM;
use fiveg_radio::Rrs;
use fiveg_ran::{Arch, HandoverRecord, HoPhase, HoType, RadioTech};
use fiveg_rrc::ReconfigAction;
use fiveg_sim::{AttachReason, ServingCells, SimHook, TickView};

/// Physical RSRP bounds, dBm (the `Rrs` clamp range).
const RSRP_BOUNDS: (f64, f64) = (-140.0, -44.0);
/// Physical RSRQ bounds, dB.
const RSRQ_BOUNDS: (f64, f64) = (-20.0, -3.0);
/// Physical SINR bounds, dB.
const SINR_BOUNDS: (f64, f64) = (-20.0, 40.0);
/// Noise-floor sanity slack, dB: SINR can exceed `rsrp - NOISE_FLOOR_DBM`
/// only by the bandwidth correction of the narrowest deployable channel.
const NOISE_SLACK_DB: f64 = 12.0;
/// Float comparison slack for sim-time, s.
const T_EPS: f64 = 1e-9;

/// Where the shadow machine believes the HO procedure is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowPhase {
    Idle,
    Preparing,
    Executing,
}

impl ShadowPhase {
    fn as_ho_phase(self) -> HoPhase {
        match self {
            ShadowPhase::Idle => HoPhase::Idle,
            ShadowPhase::Preparing => HoPhase::Preparing,
            ShadowPhase::Executing => HoPhase::Executing,
        }
    }
}

/// The live invariant checker. Plug into [`fiveg_sim::engine::run_hooked`];
/// afterwards [`Oracle::violations`] holds everything it caught.
pub struct Oracle {
    arch: Arch,
    seed: u64,
    serving: ServingCells,
    phase: ShadowPhase,
    /// HO type currently being prepared/executed, per the shadow model.
    in_flight: Option<HoType>,
    /// Chained follow-up (NSA forced-SCGR → LTEH) not yet begun.
    chain_next: Option<HoType>,
    /// Set on the tick a completion left a chain pending: the machine must
    /// still report Idle at that tick's end (deferred chaining).
    chain_armed: bool,
    /// Set once the shadow has advanced into the chained preparation but the
    /// machine has not stepped yet — it still reports Idle with the
    /// follow-up queued. Only [`SimHook::on_run_end`] can observe this gap.
    chain_prep_pending: bool,
    saw_initial_attach: bool,
    last_t: f64,
    last_tick_t: f64,
    last_tick: u64,
    /// Ticks a scheduled engine declared slept via [`SimHook::on_sleep`]
    /// since the last observed tick. The next tick may — and must — jump
    /// by exactly this much beyond the usual `+1`; any other gap is an
    /// overslept (or time-travelling) UE.
    sanctioned_gap: u64,
    violations: Vec<Violation>,
    total_violations: u64,
    /// Event tallies, for the post-run counter cross-checks.
    pub decisions: u64,
    /// HO commands observed.
    pub commands: u64,
    /// Committed HOs observed.
    pub completions: u64,
    /// Fault-injected HO failures observed.
    pub failures: u64,
    /// RLF/idle-leg reattaches observed.
    pub reattaches: u64,
}

impl Oracle {
    /// Violations kept verbatim; later ones are only counted. A broken run
    /// repeats the same breach every tick — keeping them all would just
    /// bloat the report.
    pub const MAX_KEPT: usize = 32;

    /// A fresh oracle for one run of a scenario with the given architecture
    /// and seed (the seed only annotates violations).
    pub fn new(arch: Arch, seed: u64) -> Oracle {
        Oracle {
            arch,
            seed,
            serving: ServingCells { lte: None, nr: None },
            phase: ShadowPhase::Idle,
            in_flight: None,
            chain_next: None,
            chain_armed: false,
            chain_prep_pending: false,
            saw_initial_attach: false,
            last_t: f64::NEG_INFINITY,
            last_tick_t: f64::NEG_INFINITY,
            last_tick: 0,
            sanctioned_gap: 0,
            violations: Vec::new(),
            total_violations: 0,
            decisions: 0,
            commands: 0,
            completions: 0,
            failures: 0,
            reattaches: 0,
        }
    }

    /// The violations caught so far (first [`Oracle::MAX_KEPT`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Total violations including ones beyond the retention cap.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    /// True when nothing was flagged.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Consumes the oracle, yielding the retained violations.
    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }

    /// Scenario seed this oracle annotates violations with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn report(&mut self, invariant: &'static str, t: f64, detail: String) {
        self.total_violations += 1;
        if self.violations.len() < Self::MAX_KEPT {
            self.violations.push(Violation { invariant, tick: self.last_tick, t, seed: self.seed, detail });
        }
    }

    /// Every hook shares one clock: sim-time must never run backwards.
    fn observe_time(&mut self, t: f64) {
        if t < self.last_t - T_EPS {
            self.report("monotonic_time", t, format!("hook time {t} ran backwards past {}", self.last_t));
        }
        if t > self.last_t {
            self.last_t = t;
        }
    }

    fn check_rrs(&mut self, t: f64, leg: &str, rrs: &Rrs) {
        let fields = [
            ("rsrp_dbm", rrs.rsrp_dbm, RSRP_BOUNDS),
            ("rsrq_db", rrs.rsrq_db, RSRQ_BOUNDS),
            ("sinr_db", rrs.sinr_db, SINR_BOUNDS),
        ];
        for (name, v, (lo, hi)) in fields {
            if !v.is_finite() || v < lo - T_EPS || v > hi + T_EPS {
                self.report("rrs_bounds", t, format!("{leg} {name}={v} outside [{lo}, {hi}]"));
            }
        }
        // noise floor sanity: SINR is bounded by signal over thermal noise
        let ceiling = rrs.rsrp_dbm - NOISE_FLOOR_DBM + NOISE_SLACK_DB;
        if rrs.sinr_db > ceiling + T_EPS {
            self.report(
                "noise_floor",
                t,
                format!(
                    "{leg} sinr_db={} exceeds rsrp-noise ceiling {ceiling:.1} (rsrp={})",
                    rrs.sinr_db, rrs.rsrp_dbm
                ),
            );
        }
    }

    /// Leg-consistency of a serving pair under this run's architecture.
    fn check_legs(&mut self, t: f64, s: ServingCells, site: &str) {
        match self.arch {
            Arch::Lte => {
                if s.nr.is_some() {
                    self.report("leg_consistency", t, format!("{site}: NR cell {:?} under pure-LTE arch", s.nr));
                }
            }
            Arch::Sa => {
                if s.lte.is_some() {
                    self.report("leg_consistency", t, format!("{site}: LTE cell {:?} under SA arch", s.lte));
                }
            }
            Arch::Nsa => {
                if s.nr.is_some() && s.lte.is_none() {
                    self.report("leg_consistency", t, format!("{site}: NSA SCG {:?} with no LTE anchor", s.nr));
                }
            }
        }
    }

    /// Per-type Table 2 transition check for a committed HO.
    fn check_transition(&mut self, t: f64, rec: &HandoverRecord, after: ServingCells) {
        let before = self.serving;
        let ho = rec.ho_type;
        let lte_unchanged = before.lte == after.lte;
        let nr_unchanged = before.nr == after.nr;
        let fail = |detail: String| -> Option<String> { Some(detail) };
        let problem: Option<String> = match ho {
            HoType::Scga => {
                if before.nr.is_some() {
                    fail(format!("SCGA with an SCG already attached ({:?})", before.nr))
                } else if after.nr.is_none() {
                    fail("SCGA committed but no SCG attached".into())
                } else if !lte_unchanged {
                    fail(format!("SCGA moved the LTE anchor {:?} → {:?}", before.lte, after.lte))
                } else {
                    None
                }
            }
            HoType::Scgr => {
                if before.nr.is_none() {
                    fail("SCGR with no SCG attached".into())
                } else if after.nr.is_some() {
                    fail(format!("SCGR left an SCG attached ({:?})", after.nr))
                } else if !lte_unchanged {
                    fail(format!("SCGR moved the LTE anchor {:?} → {:?}", before.lte, after.lte))
                } else {
                    None
                }
            }
            HoType::Scgm | HoType::Scgc => {
                if before.nr.is_none() {
                    fail(format!("{} with no SCG attached", ho.acronym()))
                } else if after.nr.is_none() {
                    fail(format!("{} dropped the SCG", ho.acronym()))
                } else if !lte_unchanged {
                    fail(format!("{} moved the LTE anchor {:?} → {:?}", ho.acronym(), before.lte, after.lte))
                } else {
                    None
                }
            }
            HoType::Mnbh => {
                if after.lte.is_none() {
                    fail("MNBH left no LTE anchor".into())
                } else if !nr_unchanged {
                    fail(format!("MNBH moved the SCG {:?} → {:?} (gNB must be kept)", before.nr, after.nr))
                } else {
                    None
                }
            }
            HoType::Lteh => {
                if before.nr.is_some() {
                    fail(format!("LTEH began with an SCG attached ({:?}); the SCGR must come first", before.nr))
                } else if after.nr.is_some() {
                    fail(format!("LTEH attached an SCG ({:?})", after.nr))
                } else if after.lte.is_none() {
                    fail("LTEH left no serving LTE cell".into())
                } else {
                    None
                }
            }
            HoType::Mcgh => {
                if after.nr.is_none() {
                    fail("MCGH left no serving NR cell".into())
                } else if after.lte.is_some() {
                    fail(format!("MCGH attached an LTE cell ({:?}) under SA", after.lte))
                } else {
                    None
                }
            }
        };
        if let Some(detail) = problem {
            self.report("ho_transition", t, detail);
        }
    }
}

impl SimHook for Oracle {
    fn on_attach(&mut self, t: f64, reason: AttachReason, serving: ServingCells) {
        self.observe_time(t);
        match reason {
            AttachReason::Initial => {
                if self.saw_initial_attach {
                    self.report("attach_ordering", t, "second initial attach".into());
                }
                self.saw_initial_attach = true;
            }
            AttachReason::Reattach { leg, rlf } => {
                self.reattaches += 1;
                if self.phase != ShadowPhase::Idle || self.chain_next.is_some() {
                    self.report(
                        "phase_ordering",
                        t,
                        format!("reattach on {leg:?} while a HO is in flight ({:?})", self.phase),
                    );
                }
                match leg {
                    RadioTech::Lte => {
                        if self.arch == Arch::Sa {
                            self.report("leg_consistency", t, "LTE reattach under SA arch".into());
                        }
                        if serving.lte.is_none() {
                            self.report("attach_target", t, "LTE reattach to no cell".into());
                        }
                        if serving.lte == self.serving.lte {
                            self.report("attach_target", t, format!("LTE reattach to same cell {:?}", serving.lte));
                        }
                        if self.arch == Arch::Nsa && serving.nr.is_some() {
                            self.report(
                                "leg_consistency",
                                t,
                                format!("NSA anchor reattach must drop the SCG, kept {:?}", serving.nr),
                            );
                        }
                        if rlf != self.serving.lte.is_some() {
                            self.report(
                                "rlf_accounting",
                                t,
                                format!("rlf={rlf} but previous LTE serving was {:?}", self.serving.lte),
                            );
                        }
                    }
                    RadioTech::Nr => {
                        if self.arch != Arch::Sa {
                            self.report("leg_consistency", t, format!("NR reattach under {:?} arch", self.arch));
                        }
                        if serving.nr.is_none() {
                            self.report("attach_target", t, "NR reattach to no cell".into());
                        }
                        if serving.nr == self.serving.nr {
                            self.report("attach_target", t, format!("NR reattach to same cell {:?}", serving.nr));
                        }
                        if rlf != self.serving.nr.is_some() {
                            self.report(
                                "rlf_accounting",
                                t,
                                format!("rlf={rlf} but previous NR serving was {:?}", self.serving.nr),
                            );
                        }
                    }
                }
            }
        }
        self.check_legs(t, serving, "attach");
        self.serving = serving;
    }

    fn on_decision(&mut self, t: f64, action: &ReconfigAction) {
        self.observe_time(t);
        self.decisions += 1;
        if self.phase != ShadowPhase::Idle || self.chain_next.is_some() {
            self.report("phase_ordering", t, format!("decision {action:?} while a HO is in flight ({:?})", self.phase));
        }
        // NSA anchor change that abandons the gNB: the machine begins a
        // forced SCGR and queues the LTEH behind it
        if self.arch == Arch::Nsa && self.serving.nr.is_some() && matches!(action, ReconfigAction::LteHandover { .. }) {
            self.in_flight = Some(HoType::Scgr);
            self.chain_next = Some(HoType::Lteh);
        } else {
            self.in_flight = Some(HoType::from_action(action));
            self.chain_next = None;
        }
        self.phase = ShadowPhase::Preparing;
    }

    fn on_ho_command(&mut self, t: f64) {
        self.observe_time(t);
        self.commands += 1;
        self.chain_prep_pending = false;
        if self.phase == ShadowPhase::Preparing {
            self.phase = ShadowPhase::Executing;
        } else {
            self.report("phase_ordering", t, format!("HO command without preparation (shadow {:?})", self.phase));
        }
    }

    fn on_ho_complete(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {
        self.observe_time(t);
        self.completions += 1;
        if self.phase != ShadowPhase::Executing {
            self.report("phase_ordering", t, format!("HO completion without execution (shadow {:?})", self.phase));
        }
        if let Some(expected) = self.in_flight {
            if rec.ho_type != expected {
                self.report(
                    "phase_ordering",
                    t,
                    format!("completed {} but {} was in flight", rec.ho_type.acronym(), expected.acronym()),
                );
            }
        }
        if !(rec.t_decision < rec.t_command && rec.t_command < rec.t_complete) {
            self.report(
                "record_times",
                t,
                format!(
                    "{}: t_decision={} t_command={} t_complete={} not strictly ordered",
                    rec.ho_type.acronym(),
                    rec.t_decision,
                    rec.t_command,
                    rec.t_complete
                ),
            );
        }
        if rec.t_complete > t + T_EPS {
            self.report("record_times", t, format!("completion reported at {t} before t_complete={}", rec.t_complete));
        }
        self.check_transition(t, rec, serving);
        self.check_legs(t, serving, rec.ho_type.acronym());
        self.serving = serving;
        self.phase = ShadowPhase::Idle;
        self.in_flight = None;
        if self.chain_next.is_some() {
            // deferred chaining: the machine must stay Idle until the next
            // step() call pops the queue
            self.chain_armed = true;
        }
    }

    fn on_ho_failure(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {
        self.observe_time(t);
        self.failures += 1;
        if self.phase != ShadowPhase::Executing {
            self.report("phase_ordering", t, format!("HO failure without execution (shadow {:?})", self.phase));
        }
        // rollback identity: a failed execution restores exactly the pre-HO
        // serving cells
        if serving != self.serving {
            self.report(
                "rollback_identity",
                t,
                format!("{} failure rolled back to {serving:?}, expected {:?}", rec.ho_type.acronym(), self.serving),
            );
        }
        self.serving = serving;
        self.phase = ShadowPhase::Idle;
        self.in_flight = None;
        // the engine aborts any chained follow-up on failure
        self.chain_next = None;
        self.chain_armed = false;
    }

    fn on_sleep(&mut self, from_tick: u64, skipped: u64) {
        // a sleep declaration must chain from the last tick this hook saw;
        // anything else means the engine lost track of where the UE was
        if from_tick != self.last_tick {
            self.report(
                "sleep_ordering",
                self.last_tick_t,
                format!("sleep declared from tick {from_tick} but the last observed tick was {}", self.last_tick),
            );
        }
        self.sanctioned_gap += skipped;
    }

    fn on_tick(&mut self, view: &TickView) {
        self.observe_time(view.t);
        // any tick after the chain-completion one means the machine has
        // stepped and the deferred follow-up is genuinely in flight
        self.chain_prep_pending = false;
        if view.t <= self.last_tick_t + T_EPS {
            self.report(
                "monotonic_time",
                view.t,
                format!("tick time {} did not advance past {}", view.t, self.last_tick_t),
            );
        }
        self.last_tick_t = view.t;
        // a scheduled engine may skip ticks, but only as many as it declared
        // asleep — an undeclared gap is an overslept UE, a short jump means
        // the engine stepped ticks it claimed to have slept through
        let expected = self.last_tick + 1 + self.sanctioned_gap;
        if view.tick != expected {
            let detail = if self.sanctioned_gap > 0 {
                format!(
                    "tick {} followed {} with {} ticks sanctioned asleep",
                    view.tick, self.last_tick, self.sanctioned_gap
                )
            } else {
                format!("tick {} followed {}", view.tick, self.last_tick)
            };
            self.report("tick_ordering", view.t, detail);
        }
        self.sanctioned_gap = 0;
        self.last_tick = view.tick;
        if !self.saw_initial_attach {
            self.report("attach_ordering", view.t, "tick before the initial attach".into());
        }

        if view.serving != self.serving {
            self.report(
                "serving_shadow",
                view.t,
                format!("engine serving {:?} != shadow {:?}", view.serving, self.serving),
            );
            // resync so one divergence does not cascade into a violation
            // per remaining tick
            self.serving = view.serving;
        }
        self.check_legs(view.t, view.serving, "tick");

        let expected_phase = self.phase.as_ho_phase();
        if view.phase != expected_phase {
            self.report(
                "phase_shadow",
                view.t,
                format!(
                    "engine phase {:?} != shadow {:?} (in flight {:?})",
                    view.phase, expected_phase, self.in_flight
                ),
            );
            // resync (mirrors serving_shadow above); the shadow cannot know
            // the in-flight type it missed
            self.phase = match view.phase {
                HoPhase::Idle => ShadowPhase::Idle,
                HoPhase::Preparing => ShadowPhase::Preparing,
                HoPhase::Executing => ShadowPhase::Executing,
            };
        }
        let expected_queued = usize::from(self.chain_next.is_some());
        if view.queued != expected_queued {
            self.report(
                "phase_shadow",
                view.t,
                format!("engine queue depth {} != shadow {expected_queued}", view.queued),
            );
        }
        if self.chain_armed {
            // the completion tick is over; from the next step() on, the
            // queued follow-up is in preparation
            self.chain_armed = false;
            self.chain_prep_pending = true;
            self.in_flight = self.chain_next.take();
            self.phase = ShadowPhase::Preparing;
        }

        if let Some(rrs) = &view.lte_rrs {
            if self.arch == Arch::Sa {
                self.report("leg_consistency", view.t, "LTE measurement under SA arch".into());
            }
            self.check_rrs(view.t, "lte", rrs);
        }
        if let Some(rrs) = &view.nr_rrs {
            if self.arch == Arch::Lte {
                self.report("leg_consistency", view.t, "NR measurement under pure-LTE arch".into());
            }
            self.check_rrs(view.t, "nr", rrs);
        }
        if !view.capacity_mbps.is_finite() || view.capacity_mbps < 0.0 {
            self.report("capacity_bounds", view.t, format!("capacity_mbps={}", view.capacity_mbps));
        }
    }

    fn on_run_end(&mut self, t: f64, serving: ServingCells, phase: HoPhase, queued: usize) {
        self.observe_time(t);
        if serving != self.serving {
            self.report("serving_shadow", t, format!("run ended serving {serving:?} != shadow {:?}", self.serving));
        }
        // a run may end mid-HO; the phase must still match the shadow. When
        // the run ends right on a chain-completion tick, the machine has not
        // stepped again, so the deferred follow-up is still queued.
        let (expected, expected_queued) = if self.chain_prep_pending {
            (HoPhase::Idle, 1)
        } else {
            (self.phase.as_ho_phase(), usize::from(self.chain_next.is_some()))
        };
        if phase != expected {
            self.report("phase_shadow", t, format!("run ended in {phase:?}, shadow expected {expected:?}"));
        }
        if queued != expected_queued {
            self.report("phase_shadow", t, format!("run ended with queue depth {queued}, shadow {expected_queued}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_ran::Carrier;
    use fiveg_sim::{engine, ScenarioBuilder, Telemetry};

    fn run_clean(arch: Arch, seed: u64) -> Oracle {
        let s = ScenarioBuilder::freeway(Carrier::OpY, arch, 6.0, seed).duration_s(180.0).sample_hz(10.0).build();
        let mut oracle = Oracle::new(arch, seed);
        engine::run_hooked(&s, &Telemetry::disabled(), &mut oracle);
        oracle
    }

    #[test]
    fn clean_runs_have_no_violations_per_arch() {
        for arch in [Arch::Lte, Arch::Nsa, Arch::Sa] {
            let oracle = run_clean(arch, 41);
            assert!(
                oracle.is_clean(),
                "{arch:?}: {:?}",
                oracle.violations().iter().map(|v| v.to_string()).collect::<Vec<_>>()
            );
            assert!(oracle.completions > 0, "{arch:?} run saw no handovers");
            assert_eq!(oracle.commands, oracle.completions + oracle.failures);
        }
    }

    #[test]
    fn faulty_runs_stay_clean_under_the_oracle() {
        // fault injection exercises rollback identity and chain aborts;
        // a correct engine must still satisfy every invariant
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 8.0, 42)
            .duration_s(240.0)
            .sample_hz(10.0)
            .faults(fiveg_sim::FaultConfig { mr_loss_prob: 0.2, ho_failure_prob: 0.5 })
            .build();
        let mut oracle = Oracle::new(Arch::Nsa, 42);
        engine::run_hooked(&s, &Telemetry::disabled(), &mut oracle);
        assert!(oracle.is_clean(), "{:?}", oracle.violations().iter().map(|v| v.to_string()).collect::<Vec<_>>());
        assert!(oracle.failures > 0, "p=0.5 must inject failures");
    }

    #[test]
    fn violation_cap_counts_overflow() {
        let mut o = Oracle::new(Arch::Nsa, 1);
        for i in 0..100 {
            o.report("rrs_bounds", i as f64, format!("synthetic {i}"));
        }
        assert_eq!(o.violations().len(), Oracle::MAX_KEPT);
        assert_eq!(o.total_violations(), 100);
        assert!(!o.is_clean());
    }
}
