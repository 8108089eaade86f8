//! The span assembler: a [`SimHook`] that turns the flat engine event
//! stream into causally-linked [`HoSpan`]s.
//!
//! One assembler watches one UE. It mirrors just enough of the engine's
//! handover state machine to know which event can legally follow which:
//! a decision opens a span, the command moves it into execution, the
//! completion (or fault-injected failure) seals it with the *exact* model
//! times carried by the [`HandoverRecord`]. The NSA compound procedure is
//! reproduced causally: an anchor change with an SCG attached opens a
//! forced-SCGR span (cause `lte_handover`), and its successful completion
//! arms a chained LTEH span that the state machine begins without a new
//! decision — the assembler opens it at the chained HO command and
//! back-dates its start to the parent's completion, exactly as the state
//! machine does.
//!
//! Events that cannot follow the current span state (a completion with no
//! command in flight, a command with no decision, …) are **never** papered
//! over with a fabricated span: the assembler records a [`SpanAnomaly`],
//! abandons the orphaned span if one is open, and resynchronizes. The
//! oracle's mutation self-test injects exactly such corruptions and asserts
//! they surface here.
//!
//! Every event is also fed to a bounded [`FlightRecorder`]; an RLF/fault
//! storm (≥ [`STORM_THRESHOLD`] adverse events within [`STORM_WINDOW_S`])
//! or an external trigger ([`SpanAssembler::force_dump`], wired to oracle
//! violations) snapshots it into a deterministic JSONL crash dump.

use crate::recorder::FlightRecorder;
use crate::span::{HoSpan, SpanAnomaly, SpanLog, SpanOutcome, CAUSE_CHAINED};
use fiveg_ran::{Arch, HandoverRecord, HoPhase, RadioTech};
use fiveg_rrc::ReconfigAction;
use fiveg_sim::hook::{AttachReason, ServingCells, SimHook, TickView};
use std::collections::VecDeque;

/// Sliding window for the adverse-event storm detector, s.
pub const STORM_WINDOW_S: f64 = 10.0;

/// Adverse events (RLF reattaches + fault-injected HO failures) within the
/// window that declare a storm and trigger a flight-recorder dump.
pub const STORM_THRESHOLD: usize = 3;

/// Storm dumps are capped per UE so a pathological run cannot grow the
/// span log without bound. Forced dumps (oracle violations) ignore the cap.
pub const MAX_STORM_DUMPS: u32 = 4;

/// Tolerance when cross-checking the observed decision time against the
/// sealed record's `t_decision` (they are the same `f64` in a correct
/// stream).
const T_EPS: f64 = 1e-6;

/// An in-flight span plus the assembler-side state that is not part of the
/// span itself.
struct OpenSpan {
    span: HoSpan,
    /// `on_ho_command` seen — execution running.
    commanded: bool,
    /// This is the forced SCGR of an NSA compound procedure: success arms
    /// a chained LTEH.
    chains: bool,
}

/// Per-UE causal span assembler. Implements [`SimHook`]; drive it through
/// `run_hooked` / `run_fleet_exec_observed` and collect the result with
/// [`SpanAssembler::finish`].
pub struct SpanAssembler {
    ue: u32,
    arch: Arch,
    serving: ServingCells,
    /// Time of the previous tick — the measurement instant behind the next
    /// decision's triggering report.
    last_tick_t: f64,
    open: Option<OpenSpan>,
    /// Completion time of a forced SCGR whose chained LTEH has not begun
    /// yet.
    chain_armed: Option<f64>,
    next_seq: u32,
    anomaly_seq: u32,
    dump_seq: u32,
    log: SpanLog,
    recorder: FlightRecorder,
    /// Indices into `log.spans` awaiting their sealing tick's end time.
    settle_pending: Vec<usize>,
    /// Recent adverse-event times (pruned to [`STORM_WINDOW_S`]).
    adverse: VecDeque<f64>,
    storm_active: bool,
    storm_dumps: u32,
}

impl SpanAssembler {
    /// An assembler for UE `ue` running under `arch` (the scenario's
    /// architecture — needed to recognize the NSA compound procedure).
    pub fn new(ue: u32, arch: Arch) -> SpanAssembler {
        SpanAssembler {
            ue,
            arch,
            serving: ServingCells { lte: None, nr: None },
            last_tick_t: 0.0,
            open: None,
            chain_armed: None,
            next_seq: 0,
            anomaly_seq: 0,
            dump_seq: 0,
            log: SpanLog::default(),
            recorder: FlightRecorder::default(),
            settle_pending: Vec::new(),
            adverse: VecDeque::new(),
            storm_active: false,
            storm_dumps: 0,
        }
    }

    /// The UE this assembler watches.
    pub fn ue(&self) -> u32 {
        self.ue
    }

    /// The log assembled so far (closed spans, anomalies, dumps).
    pub fn log(&self) -> &SpanLog {
        &self.log
    }

    /// Closes any in-flight span as [`SpanOutcome::Orphaned`] and returns
    /// the assembled log.
    pub fn finish(mut self) -> SpanLog {
        if self.open.is_some() {
            self.close_orphaned();
        }
        self.log
    }

    /// Snapshots the flight recorder right now, tagged `reason`. Wired by
    /// the oracle harness to invariant violations; ignores the storm-dump
    /// cap.
    pub fn force_dump(&mut self, reason: &str, t: f64) {
        self.take_dump(reason, t);
    }

    // --- internals -------------------------------------------------------

    /// The leg a decision reconfigures, and whether the state machine will
    /// convert it into a forced SCGR with a chained LTEH (NSA anchor change
    /// while an SCG is attached).
    fn action_leg(&self, action: &ReconfigAction) -> (RadioTech, bool) {
        match action {
            ReconfigAction::LteHandover { .. } if self.arch == Arch::Nsa && self.serving.nr.is_some() => {
                (RadioTech::Nr, true)
            }
            ReconfigAction::LteHandover { .. } | ReconfigAction::MenbHandover { .. } => (RadioTech::Lte, false),
            _ => (RadioTech::Nr, false),
        }
    }

    fn serving_on(&self, leg: RadioTech) -> Option<fiveg_ran::CellId> {
        match leg {
            RadioTech::Lte => self.serving.lte,
            RadioTech::Nr => self.serving.nr,
        }
    }

    fn anomaly(&mut self, t: f64, kind: &'static str, detail: String) {
        self.recorder.record(t, "anomaly", format!("{kind}: {detail}"));
        self.log.anomalies.push(SpanAnomaly { ue: self.ue, seq: self.anomaly_seq, t, kind, detail });
        self.anomaly_seq += 1;
    }

    /// Closes the open span as [`SpanOutcome::Abandoned`] after a causality
    /// anomaly. Abandoned spans keep their observed (tick-quantized) times
    /// and never count as handovers.
    fn abandon_open(&mut self, t: f64) {
        if let Some(mut o) = self.open.take() {
            o.span.outcome = SpanOutcome::Abandoned;
            self.recorder.record(t, "abandon", format!("span #{}", o.span.seq));
            self.log.spans.push(o.span);
        }
    }

    fn close_orphaned(&mut self) {
        if let Some(mut o) = self.open.take() {
            o.span.outcome = SpanOutcome::Orphaned;
            self.log.spans.push(o.span);
        }
    }

    /// Seals the open span from the engine's [`HandoverRecord`] — the
    /// record's model times are exact where the hook times are quantized to
    /// the tick that delivered them, so the record wins.
    fn seal_open(&mut self, t: f64, rec: &HandoverRecord, outcome: SpanOutcome) {
        let mut o = match self.open.take() {
            Some(o) => o,
            None => return,
        };
        if (rec.t_decision - o.span.t_decision).abs() > T_EPS {
            self.anomaly(
                t,
                "record_mismatch",
                format!("record t_decision {} vs observed {}", rec.t_decision, o.span.t_decision),
            );
        }
        let s = &mut o.span;
        s.ho_type = Some(rec.ho_type);
        s.leg = Some(rec.ho_type.leg());
        s.interrupts = rec.interrupts;
        s.t_decision = rec.t_decision;
        s.t_command = Some(rec.t_command);
        s.t_complete = Some(rec.t_complete);
        s.outcome = outcome;
        if !rec.trigger_phase.is_empty() {
            let labels: Vec<String> = rec.trigger_phase.iter().map(|e| e.label()).collect();
            s.trigger = labels.join("+");
        }
        if outcome == SpanOutcome::Completed {
            s.target = self.serving_on(rec.ho_type.leg());
            if o.chains {
                self.chain_armed = Some(rec.t_complete);
            }
        }
        self.settle_pending.push(self.log.spans.len());
        self.log.spans.push(o.span);
    }

    fn take_dump(&mut self, reason: &str, t: f64) {
        let open = self.open.as_ref().map(|o| &o.span);
        let d = self.recorder.dump(self.ue, self.dump_seq, reason, t, open, &self.log.spans);
        self.dump_seq += 1;
        self.log.dumps.push(d);
    }

    /// Registers an adverse event (RLF reattach / fault-injected failure)
    /// and dumps the recorder when a storm threshold is freshly crossed.
    fn adverse(&mut self, t: f64) {
        self.prune_adverse(t);
        self.adverse.push_back(t);
        if self.adverse.len() >= STORM_THRESHOLD && !self.storm_active {
            self.storm_active = true;
            if self.storm_dumps < MAX_STORM_DUMPS {
                self.storm_dumps += 1;
                self.take_dump("rlf_fault_storm", t);
            }
        }
    }

    fn prune_adverse(&mut self, t: f64) {
        while self.adverse.front().is_some_and(|&a| a < t - STORM_WINDOW_S) {
            self.adverse.pop_front();
        }
        if self.storm_active && self.adverse.len() < STORM_THRESHOLD {
            // window drained: re-arm so the *next* storm dumps again
            self.storm_active = false;
        }
    }

    fn fmt_serving(s: ServingCells) -> String {
        let cell = |c: Option<fiveg_ran::CellId>| c.map(|c| c.0.to_string()).unwrap_or_else(|| "-".into());
        format!("lte={} nr={}", cell(s.lte), cell(s.nr))
    }
}

impl SimHook for SpanAssembler {
    fn on_attach(&mut self, t: f64, reason: AttachReason, serving: ServingCells) {
        match reason {
            AttachReason::Initial => {
                self.recorder.record(t, "attach", format!("initial {}", Self::fmt_serving(serving)));
                self.last_tick_t = t;
            }
            AttachReason::Reattach { leg, rlf } => {
                let leg_s = match leg {
                    RadioTech::Lte => "lte",
                    RadioTech::Nr => "nr",
                };
                self.recorder.record(
                    t,
                    "attach",
                    format!("reattach leg={leg_s} rlf={rlf} {}", Self::fmt_serving(serving)),
                );
                // the engine gates reattaches on an idle state machine, so
                // one arriving mid-span means the stream is corrupt
                if self.open.is_some() || self.chain_armed.is_some() {
                    self.anomaly(t, "reattach_during_ho", format!("leg={leg_s} rlf={rlf}"));
                    self.abandon_open(t);
                    self.chain_armed = None;
                }
                if rlf {
                    self.adverse(t);
                }
            }
        }
        self.serving = serving;
    }

    fn on_decision(&mut self, t: f64, action: &ReconfigAction) {
        self.recorder.record(t, "decision", action.label().to_string());
        if self.chain_armed.take().is_some() {
            self.anomaly(t, "decision_while_chained", action.label().to_string());
        }
        if self.open.is_some() {
            self.anomaly(t, "decision_while_open", action.label().to_string());
            self.abandon_open(t);
        }
        let (leg, chains) = self.action_leg(action);
        let span = HoSpan {
            ue: self.ue,
            seq: self.next_seq,
            cause: action.label(),
            ho_type: None,
            leg: Some(leg),
            source: self.serving_on(leg),
            target: None,
            trigger: String::new(),
            interrupts: (false, false),
            outcome: SpanOutcome::Open,
            t_trigger: self.last_tick_t,
            t_decision: t,
            t_command: None,
            t_complete: None,
            t_settled: None,
        };
        self.next_seq += 1;
        self.open = Some(OpenSpan { span, commanded: false, chains });
    }

    fn on_ho_command(&mut self, t: f64) {
        self.recorder.record(t, "command", String::new());
        if let Some(o) = self.open.as_mut() {
            if o.commanded {
                self.anomaly(t, "duplicate_command", "command while already executing".into());
            } else {
                o.commanded = true;
                // tick-quantized; replaced by the record's exact time at seal
                o.span.t_command = Some(t);
            }
        } else if let Some(armed_t) = self.chain_armed.take() {
            // the chained LTEH of an NSA compound procedure: no decision
            // fires — the state machine begins it on its own, back-dated to
            // the parent's completion
            let span = HoSpan {
                ue: self.ue,
                seq: self.next_seq,
                cause: CAUSE_CHAINED,
                ho_type: None,
                leg: Some(RadioTech::Lte),
                source: self.serving.lte,
                target: None,
                trigger: String::new(),
                interrupts: (false, false),
                outcome: SpanOutcome::Open,
                t_trigger: armed_t,
                t_decision: armed_t,
                t_command: Some(t),
                t_complete: None,
                t_settled: None,
            };
            self.next_seq += 1;
            self.open = Some(OpenSpan { span, commanded: true, chains: false });
        } else {
            self.anomaly(t, "command_without_decision", "no span open, no chain armed".into());
        }
    }

    fn on_ho_complete(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {
        self.recorder.record(t, "complete", format!("{} {}", rec.ho_type.acronym(), Self::fmt_serving(serving)));
        self.serving = serving;
        match &self.open {
            Some(o) if o.commanded => self.seal_open(t, rec, SpanOutcome::Completed),
            Some(_) => {
                // completion with no execution in flight: the stream is out
                // of order — abandon, never fabricate
                self.anomaly(t, "complete_without_command", format!("{} before its command", rec.ho_type.acronym()));
                self.abandon_open(t);
            }
            None => {
                self.anomaly(t, "complete_without_decision", format!("{} with no span open", rec.ho_type.acronym()));
            }
        }
    }

    fn on_ho_failure(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {
        self.recorder.record(t, "failure", format!("{} {}", rec.ho_type.acronym(), Self::fmt_serving(serving)));
        self.serving = serving;
        // the engine aborts any chained follow-up on failure
        self.chain_armed = None;
        match &self.open {
            Some(o) if o.commanded => self.seal_open(t, rec, SpanOutcome::Failed),
            Some(_) => {
                self.anomaly(t, "failure_without_command", format!("{} before its command", rec.ho_type.acronym()));
                self.abandon_open(t);
            }
            None => {
                self.anomaly(t, "failure_without_command", format!("{} with no span open", rec.ho_type.acronym()));
            }
        }
        self.adverse(t);
    }

    fn on_tick(&mut self, view: &TickView) {
        let phase = match view.phase {
            HoPhase::Idle => "idle",
            HoPhase::Preparing => "preparing",
            HoPhase::Executing => "executing",
        };
        self.recorder.record(view.t, "tick", format!("#{} phase={} queued={}", view.tick, phase, view.queued));
        for idx in self.settle_pending.drain(..) {
            self.log.spans[idx].t_settled = Some(view.t);
        }
        self.serving = view.serving;
        self.last_tick_t = view.t;
        self.prune_adverse(view.t);
    }

    fn on_run_end(&mut self, t: f64, serving: ServingCells, _phase: HoPhase, queued: usize) {
        self.recorder.record(t, "run_end", format!("queued={} {}", queued, Self::fmt_serving(serving)));
        for idx in self.settle_pending.drain(..) {
            self.log.spans[idx].t_settled = Some(t);
        }
        self.close_orphaned();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_ran::{CellId, HoType, StageSample};
    use fiveg_rrc::Pci;

    fn serving(lte: Option<u32>, nr: Option<u32>) -> ServingCells {
        ServingCells { lte: lte.map(CellId), nr: nr.map(CellId) }
    }

    fn rec(ho_type: HoType, t_decision: f64, t1_ms: f64, t2_ms: f64) -> HandoverRecord {
        let t_command = t_decision + t1_ms / 1000.0;
        HandoverRecord {
            ho_type,
            arch: Arch::Nsa,
            nr_band: None,
            t_decision,
            t_command,
            t_complete: t_command + t2_ms / 1000.0,
            stages: StageSample { t1_ms, t2_ms },
            source_lte: Some(Pci(1)),
            source_nr: None,
            target: Some(Pci(2)),
            co_located: false,
            same_pci: false,
            trigger_phase: vec![],
            interrupts: ho_type.interrupts(),
        }
    }

    fn tick(n: u64, t: f64, s: ServingCells, phase: HoPhase, queued: usize) -> TickView {
        TickView { tick: n, t, serving: s, phase, queued, lte_rrs: None, nr_rrs: None, capacity_mbps: 0.0 }
    }

    /// Decision → command → complete assembles one completed span with the
    /// record's exact times and the post-HO target.
    #[test]
    fn assembles_a_simple_span() {
        let mut a = SpanAssembler::new(0, Arch::Nsa);
        a.on_attach(0.0, AttachReason::Initial, serving(Some(1), None));
        a.on_tick(&tick(1, 0.1, serving(Some(1), None), HoPhase::Idle, 0));
        let action = ReconfigAction::ScgAddition { nr_target: Pci(7) };
        a.on_decision(0.2, &action);
        a.on_tick(&tick(2, 0.2, serving(Some(1), None), HoPhase::Preparing, 0));
        a.on_ho_command(0.3);
        a.on_tick(&tick(3, 0.3, serving(Some(1), None), HoPhase::Executing, 0));
        let r = rec(HoType::Scga, 0.2, 64.0, 88.0);
        a.on_ho_complete(0.4, &r, serving(Some(1), Some(9)));
        a.on_tick(&tick(4, 0.4, serving(Some(1), Some(9)), HoPhase::Idle, 0));
        a.on_run_end(0.5, serving(Some(1), Some(9)), HoPhase::Idle, 0);

        let log = a.finish();
        assert!(log.anomalies.is_empty(), "{:?}", log.anomalies);
        assert_eq!(log.spans.len(), 1);
        let s = &log.spans[0];
        assert_eq!(s.outcome, SpanOutcome::Completed);
        assert_eq!(s.cause, "scg_addition");
        assert_eq!(s.ho_type, Some(HoType::Scga));
        assert_eq!(s.leg, Some(RadioTech::Nr));
        assert_eq!(s.target, Some(CellId(9)));
        // sealed with the record's exact times, not the quantized hook times
        assert_eq!(s.t_command, Some(r.t_command));
        assert_eq!(s.t_complete, Some(r.t_complete));
        assert_eq!(s.t_settled, Some(0.4));
        assert!((s.trigger_ms() - 100.0).abs() < 1e-6);
    }

    /// The NSA compound procedure yields two causally-linked spans: the
    /// forced SCGR (cause `lte_handover`) and the chained LTEH whose start
    /// is back-dated to the parent's completion.
    #[test]
    fn chains_the_nsa_compound_procedure() {
        let mut a = SpanAssembler::new(0, Arch::Nsa);
        a.on_attach(0.0, AttachReason::Initial, serving(Some(1), Some(9)));
        a.on_tick(&tick(1, 0.1, serving(Some(1), Some(9)), HoPhase::Idle, 0));
        // anchor change with SCG attached → forced SCGR + queued LTEH
        a.on_decision(0.2, &ReconfigAction::LteHandover { target: Pci(2) });
        let scgr = rec(HoType::Scgr, 0.2, 30.0, 40.0);
        a.on_ho_command(0.3);
        a.on_ho_complete(0.3, &scgr, serving(Some(1), None));
        // the chained LTEH fires no decision; first evidence is its command
        let mut lteh = rec(HoType::Lteh, scgr.t_complete, 50.0, 60.0);
        lteh.trigger_phase = vec![];
        a.on_ho_command(0.4);
        a.on_ho_complete(0.5, &lteh, serving(Some(2), None));
        a.on_tick(&tick(5, 0.5, serving(Some(2), None), HoPhase::Idle, 0));
        a.on_run_end(0.6, serving(Some(2), None), HoPhase::Idle, 0);

        let log = a.finish();
        assert!(log.anomalies.is_empty(), "{:?}", log.anomalies);
        assert_eq!(log.spans.len(), 2);
        let parent = &log.spans[0];
        assert_eq!(parent.ho_type, Some(HoType::Scgr));
        assert_eq!(parent.cause, "lte_handover");
        assert_eq!(parent.target, None);
        let chained = &log.spans[1];
        assert_eq!(chained.ho_type, Some(HoType::Lteh));
        assert_eq!(chained.cause, CAUSE_CHAINED);
        // zero-width trigger+prep gap back-dated to the parent completion
        assert_eq!(chained.t_trigger, parent.t_complete.unwrap());
        assert_eq!(chained.t_decision, lteh.t_decision);
        assert_eq!(chained.target, Some(CellId(2)));
    }

    /// An out-of-order stream (completion before its command) is flagged,
    /// the span is abandoned, and nothing is fabricated.
    #[test]
    fn out_of_order_completion_is_flagged_not_fabricated() {
        let mut a = SpanAssembler::new(0, Arch::Nsa);
        a.on_attach(0.0, AttachReason::Initial, serving(Some(1), None));
        a.on_decision(0.2, &ReconfigAction::ScgAddition { nr_target: Pci(7) });
        // completion arrives with no command in flight
        let r = rec(HoType::Scga, 0.2, 64.0, 88.0);
        a.on_ho_complete(0.4, &r, serving(Some(1), Some(9)));
        // ...and the held-back command follows
        a.on_ho_command(0.4);
        a.on_run_end(0.5, serving(Some(1), Some(9)), HoPhase::Idle, 0);

        let log = a.finish();
        assert_eq!(log.count(SpanOutcome::Completed), 0);
        assert_eq!(log.count(SpanOutcome::Abandoned), 1);
        let kinds: Vec<&str> = log.anomalies.iter().map(|an| an.kind).collect();
        assert!(kinds.contains(&"complete_without_command"), "{kinds:?}");
        assert!(kinds.contains(&"command_without_decision"), "{kinds:?}");
    }

    /// A fault-injected failure seals the span as Failed with no target.
    #[test]
    fn failure_seals_span_as_failed() {
        let mut a = SpanAssembler::new(0, Arch::Sa);
        a.on_attach(0.0, AttachReason::Initial, serving(None, Some(9)));
        a.on_decision(0.2, &ReconfigAction::McgHandover { target: Pci(3) });
        a.on_ho_command(0.3);
        let r = rec(HoType::Mcgh, 0.2, 64.0, 88.0);
        a.on_ho_failure(0.4, &r, serving(None, Some(9)));
        a.on_run_end(0.5, serving(None, Some(9)), HoPhase::Idle, 0);

        let log = a.finish();
        assert!(log.anomalies.is_empty(), "{:?}", log.anomalies);
        assert_eq!(log.count(SpanOutcome::Failed), 1);
        assert_eq!(log.spans[0].target, None);
        assert_eq!(log.spans[0].ho_type, Some(HoType::Mcgh));
    }

    /// Three adverse events inside the window trigger exactly one storm
    /// dump; the detector re-arms only after the window drains.
    #[test]
    fn storm_detector_dumps_once_per_storm() {
        let mut a = SpanAssembler::new(0, Arch::Nsa);
        a.on_attach(0.0, AttachReason::Initial, serving(Some(1), None));
        for t in [1.0, 2.0, 3.0, 4.0] {
            a.on_attach(t, AttachReason::Reattach { leg: RadioTech::Lte, rlf: true }, serving(Some(1), None));
        }
        assert_eq!(a.log().dumps.len(), 1);
        assert_eq!(a.log().dumps[0].reason, "rlf_fault_storm");
        // window drains past t=13 → re-armed; a fresh storm dumps again
        a.on_tick(&tick(1, 20.0, serving(Some(1), None), HoPhase::Idle, 0));
        for t in [21.0, 22.0, 23.0] {
            a.on_attach(t, AttachReason::Reattach { leg: RadioTech::Lte, rlf: true }, serving(Some(1), None));
        }
        let log = a.finish();
        assert_eq!(log.dumps.len(), 2);
    }

    /// A forced dump carries the open span with its timeline so far.
    #[test]
    fn force_dump_contains_open_span_timeline() {
        let mut a = SpanAssembler::new(0, Arch::Nsa);
        a.on_attach(0.0, AttachReason::Initial, serving(Some(1), None));
        a.on_decision(0.2, &ReconfigAction::ScgAddition { nr_target: Pci(7) });
        a.on_ho_command(0.3);
        a.force_dump("oracle_violation", 0.35);
        let log = a.finish();
        assert_eq!(log.dumps.len(), 1);
        let d = &log.dumps[0];
        assert_eq!(d.reason, "oracle_violation");
        assert!(d.jsonl.contains("\"outcome\":\"open\""), "{}", d.jsonl);
        assert!(d.jsonl.contains("\"cause\":\"scg_addition\""), "{}", d.jsonl);
        assert!(d.jsonl.contains("\"t_command\":0.3"), "{}", d.jsonl);
    }

    /// A run ending mid-HO closes the span as Orphaned — not an anomaly.
    #[test]
    fn run_end_orphans_open_span() {
        let mut a = SpanAssembler::new(0, Arch::Nsa);
        a.on_attach(0.0, AttachReason::Initial, serving(Some(1), None));
        a.on_decision(0.2, &ReconfigAction::ScgAddition { nr_target: Pci(7) });
        a.on_run_end(0.3, serving(Some(1), None), HoPhase::Preparing, 0);
        let log = a.finish();
        assert!(log.anomalies.is_empty());
        assert_eq!(log.count(SpanOutcome::Orphaned), 1);
    }
}
