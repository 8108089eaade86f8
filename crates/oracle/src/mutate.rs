//! Mutation self-test: proves the oracle actually *catches* bugs.
//!
//! A checker that never fires is indistinguishable from a correct system.
//! [`MutatingHook`] sits between the engine and an [`Oracle`] and corrupts
//! the forwarded hook stream in one known way ([`MutationKind`]) — exactly
//! the corruption a real state-machine bug would produce. The simulation
//! itself is untouched; only the oracle's view of it lies. The self-test
//! then asserts the oracle flags the lie within a bounded number of ticks.
//!
//! Run it standalone via [`mutation_self_test`] or as part of the
//! `scenario_fuzz` binary (it runs once per invocation unless
//! `--no-selftest`).
//!
//! The harness can also carry a [`SpanAssembler`] alongside the oracle
//! ([`MutatingHook::with_assembler`] / [`mutation_self_test_traced`]): the
//! assembler sees the *same* corrupted stream, its anomaly log proves the
//! span layer flags impossible event orders instead of absorbing them, and
//! the first oracle violation snapshots its flight recorder
//! (`oracle_violation` dump).

use crate::shadow::Oracle;
use fiveg_ran::{Arch, Carrier, HandoverRecord, HoPhase};
use fiveg_rrc::ReconfigAction;
use fiveg_sim::{engine, AttachReason, ScenarioBuilder, ServingCells, SimHook, Telemetry, TickView};
use fiveg_trace::{SpanAssembler, SpanLog};

/// One way of corrupting the hook stream, mimicking a class of real bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Swallow a committed HO: the state machine "forgot" to apply/report a
    /// completed procedure.
    DropHoComplete,
    /// Swallow a HO command: execution starts without the preparation→
    /// execution edge ever being signalled.
    DropHoCommand,
    /// Report the serving cells with the LTE and NR legs exchanged — a
    /// leg-bookkeeping bug.
    SwapServingLegs,
    /// Report a tick 5 s in the past — a broken sim clock.
    RewindClock,
    /// Inject a reattach to the cell already being served — a spurious RLF.
    PhantomReattach,
    /// Hold back a HO command and deliver it *after* its completion — an
    /// out-of-order event stream. The oracle must flag the causality break,
    /// and a span assembler on the same stream must record anomalies and
    /// abandon the span rather than fabricate a plausible one.
    OutOfOrderSpan,
    /// An event-driven engine oversleeps: it declares a 2-tick sleep via
    /// [`SimHook::on_sleep`], then actually goes dark for 3 ticks — the
    /// exact signature of an unsound wakeup bound fast-forwarding a UE past
    /// due work. The oracle must flag the unsanctioned extra tick at the
    /// wake tick itself.
    OversleptUe,
}

impl MutationKind {
    /// Every mutation, for exhaustive self-tests.
    pub const ALL: [MutationKind; 7] = [
        MutationKind::DropHoComplete,
        MutationKind::DropHoCommand,
        MutationKind::SwapServingLegs,
        MutationKind::RewindClock,
        MutationKind::PhantomReattach,
        MutationKind::OutOfOrderSpan,
        MutationKind::OversleptUe,
    ];

    /// Stable snake_case name, for reports.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::DropHoComplete => "drop_ho_complete",
            MutationKind::DropHoCommand => "drop_ho_command",
            MutationKind::SwapServingLegs => "swap_serving_legs",
            MutationKind::RewindClock => "rewind_clock",
            MutationKind::PhantomReattach => "phantom_reattach",
            MutationKind::OutOfOrderSpan => "out_of_order_span",
            MutationKind::OversleptUe => "overslept_ue",
        }
    }
}

/// Forwards the hook stream to an [`Oracle`] (and optionally a
/// [`SpanAssembler`], which sees the identical stream), applying one
/// [`MutationKind`] once, at the first eligible event with
/// `t >= inject_after`.
pub struct MutatingHook<'a> {
    oracle: &'a mut Oracle,
    assembler: Option<&'a mut SpanAssembler>,
    kind: MutationKind,
    inject_after: f64,
    injected_at: Option<f64>,
    detected_at: Option<f64>,
    /// OutOfOrderSpan: the stashed command time, delivered after the next
    /// completion.
    held_command: Option<f64>,
    /// OversleptUe: ticks still to swallow after the fake sleep declaration.
    swallow_ticks: u32,
}

impl<'a> MutatingHook<'a> {
    /// Wraps `oracle`; the mutation arms once sim-time reaches
    /// `inject_after` seconds.
    pub fn new(oracle: &'a mut Oracle, kind: MutationKind, inject_after: f64) -> MutatingHook<'a> {
        MutatingHook {
            oracle,
            assembler: None,
            kind,
            inject_after,
            injected_at: None,
            detected_at: None,
            held_command: None,
            swallow_ticks: 0,
        }
    }

    /// Also feeds the (corrupted) stream to `asm`, and snapshots its flight
    /// recorder when the oracle first flags a violation.
    pub fn with_assembler(mut self, asm: &'a mut SpanAssembler) -> MutatingHook<'a> {
        self.assembler = Some(asm);
        self
    }

    /// Sim-time at which the corruption was actually applied, if it fired.
    pub fn injected_at(&self) -> Option<f64> {
        self.injected_at
    }

    /// Sim-time of the first oracle violation after injection, if any.
    pub fn detected_at(&self) -> Option<f64> {
        self.detected_at
    }

    fn armed(&self, t: f64) -> bool {
        self.injected_at.is_none() && t >= self.inject_after
    }

    /// Records detection against the *real* clock `t` (never the mutated
    /// one, which RewindClock sends into the past). The first detection
    /// triggers an `oracle_violation` flight-recorder dump.
    fn observe(&mut self, t: f64) {
        if self.injected_at.is_some() && self.detected_at.is_none() && self.oracle.total_violations() > 0 {
            self.detected_at = Some(t);
            if let Some(a) = self.assembler.as_deref_mut() {
                a.force_dump("oracle_violation", t);
            }
        }
    }
}

impl SimHook for MutatingHook<'_> {
    fn on_attach(&mut self, t: f64, reason: AttachReason, serving: ServingCells) {
        self.oracle.on_attach(t, reason, serving);
        if let Some(a) = self.assembler.as_deref_mut() {
            a.on_attach(t, reason, serving);
        }
        self.observe(t);
    }

    fn on_decision(&mut self, t: f64, action: &ReconfigAction) {
        self.oracle.on_decision(t, action);
        if let Some(a) = self.assembler.as_deref_mut() {
            a.on_decision(t, action);
        }
        self.observe(t);
    }

    fn on_ho_command(&mut self, t: f64) {
        if self.kind == MutationKind::DropHoCommand && self.armed(t) {
            self.injected_at = Some(t);
            return;
        }
        if self.kind == MutationKind::OutOfOrderSpan && self.armed(t) {
            // stash the command; it is re-delivered after the completion
            self.injected_at = Some(t);
            self.held_command = Some(t);
            return;
        }
        self.oracle.on_ho_command(t);
        if let Some(a) = self.assembler.as_deref_mut() {
            a.on_ho_command(t);
        }
        self.observe(t);
    }

    fn on_ho_complete(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {
        if self.kind == MutationKind::DropHoComplete && self.armed(t) {
            self.injected_at = Some(t);
            return;
        }
        self.oracle.on_ho_complete(t, rec, serving);
        if let Some(a) = self.assembler.as_deref_mut() {
            a.on_ho_complete(t, rec, serving);
        }
        if let Some(ct) = self.held_command.take() {
            // the stale command lands after its own completion
            self.oracle.on_ho_command(ct);
            if let Some(a) = self.assembler.as_deref_mut() {
                a.on_ho_command(ct);
            }
        }
        self.observe(t);
    }

    fn on_ho_failure(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {
        self.oracle.on_ho_failure(t, rec, serving);
        if let Some(a) = self.assembler.as_deref_mut() {
            a.on_ho_failure(t, rec, serving);
        }
        if let Some(ct) = self.held_command.take() {
            self.oracle.on_ho_command(ct);
            if let Some(a) = self.assembler.as_deref_mut() {
                a.on_ho_command(ct);
            }
        }
        self.observe(t);
    }

    fn on_sleep(&mut self, from_tick: u64, skipped: u64) {
        self.oracle.on_sleep(from_tick, skipped);
        if let Some(a) = self.assembler.as_deref_mut() {
            a.on_sleep(from_tick, skipped);
        }
    }

    fn on_tick(&mut self, view: &TickView) {
        let mut view = *view;
        if self.kind == MutationKind::OversleptUe {
            if self.armed(view.t) {
                self.injected_at = Some(view.t);
                // sanction 2 slept ticks chained from the last delivered
                // tick, then go dark for 3: the wake tick arrives one tick
                // beyond what the declaration covers
                self.on_sleep(view.tick - 1, 2);
                self.swallow_ticks = 3;
            }
            if self.swallow_ticks > 0 {
                self.swallow_ticks -= 1;
                return;
            }
        }
        match self.kind {
            MutationKind::SwapServingLegs if self.armed(view.t) && view.serving.lte != view.serving.nr => {
                self.injected_at = Some(view.t);
                view.serving = ServingCells { lte: view.serving.nr, nr: view.serving.lte };
            }
            MutationKind::RewindClock if self.armed(view.t) => {
                self.injected_at = Some(view.t);
                view.t -= 5.0;
            }
            MutationKind::PhantomReattach if self.armed(view.t) && view.serving.lte.is_some() => {
                self.injected_at = Some(view.t);
                // a reattach to the very cell being served: real RLF recovery
                // must pick a different cell
                let reason = AttachReason::Reattach { leg: fiveg_ran::RadioTech::Lte, rlf: true };
                self.oracle.on_attach(view.t, reason, view.serving);
                if let Some(a) = self.assembler.as_deref_mut() {
                    a.on_attach(view.t, reason, view.serving);
                }
            }
            _ => {}
        }
        let real_t = view.t.max(self.injected_at.unwrap_or(view.t));
        self.oracle.on_tick(&view);
        if let Some(a) = self.assembler.as_deref_mut() {
            a.on_tick(&view);
        }
        self.observe(real_t);
    }

    fn on_run_end(&mut self, t: f64, serving: ServingCells, phase: HoPhase, queued: usize) {
        self.oracle.on_run_end(t, serving, phase, queued);
        if let Some(a) = self.assembler.as_deref_mut() {
            a.on_run_end(t, serving, phase, queued);
        }
        self.observe(t);
    }
}

/// Outcome of one [`mutation_self_test`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MutationReport {
    /// Which corruption was applied.
    pub kind: MutationKind,
    /// When the corruption fired (None = the run offered no eligible event,
    /// which is itself a test failure).
    pub injected_at: Option<f64>,
    /// When the oracle first flagged anything after the injection.
    pub detected_at: Option<f64>,
    /// Total violations the oracle reported.
    pub violations: u64,
}

impl MutationReport {
    /// True when the corruption fired and the oracle caught it within
    /// `max_latency_s` of sim-time.
    pub fn caught_within(&self, max_latency_s: f64) -> bool {
        match (self.injected_at, self.detected_at) {
            (Some(i), Some(d)) => d - i <= max_latency_s && self.violations > 0,
            _ => false,
        }
    }
}

/// Runs one mutated NSA freeway scenario and reports whether the oracle
/// caught the corruption. Deterministic in `seed`.
pub fn mutation_self_test(kind: MutationKind, seed: u64) -> MutationReport {
    mutation_self_test_traced(kind, seed).0
}

/// [`mutation_self_test`] with a [`SpanAssembler`] riding on the same
/// corrupted stream. The returned [`SpanLog`] carries the assembler's view:
/// its anomalies prove the span layer flags impossible event orders, and
/// the oracle's first violation leaves an `oracle_violation` flight-recorder
/// dump in `log.dumps`.
pub fn mutation_self_test_traced(kind: MutationKind, seed: u64) -> (MutationReport, SpanLog) {
    let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, seed).duration_s(180.0).sample_hz(10.0).build();
    let mut oracle = Oracle::new(Arch::Nsa, seed);
    let mut asm = SpanAssembler::new(0, Arch::Nsa);
    let (injected_at, detected_at) = {
        let mut hook = MutatingHook::new(&mut oracle, kind, 30.0).with_assembler(&mut asm);
        engine::run_hooked(&s, &Telemetry::disabled(), &mut hook);
        (hook.injected_at(), hook.detected_at())
    };
    let report = MutationReport { kind, injected_at, detected_at, violations: oracle.total_violations() };
    (report, asm.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Detection bound: five ticks of the 10 Hz self-test scenario.
    const MAX_LATENCY_S: f64 = 0.5;

    #[test]
    fn every_mutation_is_caught_within_five_ticks() {
        for kind in MutationKind::ALL {
            let r = mutation_self_test(kind, 1);
            assert!(r.injected_at.is_some(), "{}: mutation never fired", kind.name());
            assert!(
                r.caught_within(MAX_LATENCY_S),
                "{}: injected at {:?}, detected at {:?} ({} violations)",
                kind.name(),
                r.injected_at,
                r.detected_at,
                r.violations
            );
        }
    }

    /// The overslept UE is caught *at the wake tick* — the first tick the
    /// hook stream delivers after the under-declared gap, i.e. within one
    /// wake, not merely within the five-tick bound above.
    #[test]
    fn overslept_ue_is_caught_at_the_wake_tick() {
        let r = mutation_self_test(MutationKind::OversleptUe, 1);
        let i = r.injected_at.expect("mutation never fired");
        let d = r.detected_at.expect("oracle never caught it");
        // three ticks go dark at 10 Hz, so the wake tick lands 0.3 s after
        // the injection; detection any later than that missed the wake
        assert!((d - i - 0.3).abs() < 1e-9, "injected at {i}, detected at {d}: not the wake tick");
        assert!(r.violations > 0);
    }

    #[test]
    fn unmutated_control_run_is_clean() {
        // same scenario, no corruption: the oracle must stay silent, or the
        // detection results above mean nothing
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 1).duration_s(180.0).sample_hz(10.0).build();
        let mut oracle = Oracle::new(Arch::Nsa, 1);
        engine::run_hooked(&s, &Telemetry::disabled(), &mut oracle);
        assert!(oracle.is_clean(), "{:?}", oracle.violations());
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let names: std::collections::BTreeSet<_> = MutationKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), MutationKind::ALL.len());
    }

    /// The out-of-order stream (completion delivered before its command) is
    /// flagged by the span assembler — anomalies recorded, the corrupted
    /// span abandoned, nothing fabricated — and the oracle violation leaves
    /// a flight-recorder dump with full phase timelines.
    #[test]
    fn out_of_order_span_is_flagged_not_fabricated() {
        use fiveg_trace::SpanOutcome;

        let (r, log) = mutation_self_test_traced(MutationKind::OutOfOrderSpan, 1);
        assert!(r.injected_at.is_some(), "mutation never fired");
        assert!(
            r.caught_within(MAX_LATENCY_S),
            "injected at {:?}, detected at {:?} ({} violations)",
            r.injected_at,
            r.detected_at,
            r.violations
        );

        // the assembler must notice the causality break...
        assert!(!log.anomalies.is_empty(), "assembler absorbed an out-of-order stream silently");
        let kinds: Vec<&str> = log.anomalies.iter().map(|a| a.kind).collect();
        assert!(
            kinds.contains(&"complete_without_command") || kinds.contains(&"complete_without_decision"),
            "no completion-order anomaly in {kinds:?}"
        );

        // ...and must not paper over it with a fabricated span: the clean
        // control run completes strictly more spans
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 1).duration_s(180.0).sample_hz(10.0).build();
        let mut clean = SpanAssembler::new(0, Arch::Nsa);
        engine::run_hooked(&s, &Telemetry::disabled(), &mut clean);
        let clean = clean.finish();
        assert!(clean.anomalies.is_empty(), "{:?}", clean.anomalies);
        assert!(
            log.count(SpanOutcome::Completed) < clean.count(SpanOutcome::Completed),
            "mutated run completed {} spans, clean run {}",
            log.count(SpanOutcome::Completed),
            clean.count(SpanOutcome::Completed)
        );

        // the oracle violation snapshots the flight recorder
        let dump = log.dumps.iter().find(|d| d.reason == "oracle_violation").expect("no oracle_violation dump");
        assert!(dump.jsonl.contains("\"schema\":\"fiveg-flightrec/v1\""), "{}", dump.jsonl);
        assert!(dump.jsonl.contains("\"prep_ms\":") && dump.jsonl.contains("\"exec_ms\":"), "{}", dump.jsonl);
    }

    /// A clean hooked run produces zero anomalies for every architecture —
    /// the assembler's causal model matches the real state machine,
    /// including the NSA compound chain.
    #[test]
    fn clean_runs_assemble_without_anomalies() {
        for arch in [Arch::Lte, Arch::Nsa, Arch::Sa] {
            let s = ScenarioBuilder::freeway(Carrier::OpY, arch, 6.0, 7).duration_s(120.0).sample_hz(10.0).build();
            let mut asm = SpanAssembler::new(0, arch);
            let trace = engine::run_hooked(&s, &Telemetry::disabled(), &mut asm);
            let log = asm.finish();
            assert!(log.anomalies.is_empty(), "{arch:?}: {:?}", log.anomalies);
            // every committed HO in the trace has exactly one completed span
            assert_eq!(
                log.count(fiveg_trace::SpanOutcome::Completed),
                trace.handovers.len() as u64,
                "{arch:?}: span/record count mismatch"
            );
        }
    }
}
