//! Observation hooks for external checkers.
//!
//! [`SimHook`] lets an external observer (fiveg-oracle's invariant checker,
//! fiveg-trace's handover span assembler and flight recorder, a test
//! harness, a debugger) witness every state-mutating step of the tick
//! loop without the engine knowing anything about it. The engine threads an
//! `Option<&mut dyn SimHook>` through [`crate::engine`]; the `None` path is a
//! single branch per site, so plain [`crate::Scenario::run`] pays nothing —
//! the same zero-cost-when-off contract the telemetry layer follows.
//!
//! Hooks observe; they must not steer. Nothing a hook returns feeds back
//! into the simulation, so a hooked run produces a byte-identical
//! [`crate::trace::Trace`] to an unhooked one.

use fiveg_radio::Rrs;
use fiveg_ran::{CellId, HandoverRecord, HoPhase, RadioTech};
use fiveg_rrc::ReconfigAction;

/// Why the engine (re)attached the UE outside a completed HO procedure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachReason {
    /// The initial attach before the first tick.
    Initial,
    /// An idle-leg recovery: the serving signal fell below the RLF floor (or
    /// the leg had no serving cell) and a strong-enough candidate existed.
    Reattach {
        /// Which leg reattached.
        leg: RadioTech,
        /// True when an actual radio link failure was declared (the leg had
        /// a serving cell to lose); false when an unattached leg acquired.
        rlf: bool,
    },
}

/// The serving cell of each leg at a hook point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingCells {
    /// Serving LTE cell (master leg under NSA, only leg under LTE).
    pub lte: Option<CellId>,
    /// Serving NR cell (secondary leg under NSA, only leg under SA).
    pub nr: Option<CellId>,
}

/// End-of-tick snapshot handed to [`SimHook::on_tick`].
#[derive(Debug, Clone, Copy)]
pub struct TickView {
    /// 1-based tick ordinal (equals the `sim.ticks` counter).
    pub tick: u64,
    /// Sim time, s.
    pub t: f64,
    /// Serving cells after every mutation of this tick.
    pub serving: ServingCells,
    /// HO state machine phase at end of tick.
    pub phase: HoPhase,
    /// Chained follow-up procedures still queued in the state machine.
    pub queued: usize,
    /// Serving LTE measurement, when that leg is measured and attached.
    pub lte_rrs: Option<Rrs>,
    /// Serving NR measurement, when that leg is measured and attached.
    pub nr_rrs: Option<Rrs>,
    /// Composed downlink capacity recorded in the trace sample, Mbit/s.
    pub capacity_mbps: f64,
}

/// Observer of engine state transitions. Every method has an empty default
/// body so implementors override only what they watch.
///
/// Call order within one tick: HO events ([`Self::on_ho_command`] /
/// [`Self::on_ho_complete`] / [`Self::on_ho_failure`]) → reattaches
/// ([`Self::on_attach`]) → policy decisions ([`Self::on_decision`]) →
/// [`Self::on_tick`]. [`Self::on_attach`] with [`AttachReason::Initial`]
/// fires once before the first tick, [`Self::on_run_end`] once after the
/// last.
#[allow(unused_variables)]
pub trait SimHook {
    /// The engine attached the UE outside a completed HO (initial, or RLF
    /// recovery). `serving` is the post-attach state.
    fn on_attach(&mut self, t: f64, reason: AttachReason, serving: ServingCells) {}

    /// The policy issued `action` and the state machine accepted it
    /// (preparation begins this tick).
    fn on_decision(&mut self, t: f64, action: &ReconfigAction) {}

    /// Preparation finished: the HO command went out to the UE (execution
    /// begins).
    fn on_ho_command(&mut self, t: f64) {}

    /// Execution finished and the engine committed the HO. `serving` is the
    /// post-apply state.
    fn on_ho_complete(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {}

    /// Execution finished but fault injection failed the HO; the engine
    /// rolled back to the pre-HO cells (`serving`) and aborted any chained
    /// follow-up.
    fn on_ho_failure(&mut self, t: f64, rec: &HandoverRecord, serving: ServingCells) {}

    /// The fleet engine (referee or event-driven) fast-forwarded the UE
    /// over `skipped` quiet ticks: no tick between `from_tick` (exclusive)
    /// and `from_tick + skipped` (inclusive) was sampled, so none of them
    /// produced an [`Self::on_tick`] call. Fires at the wake tick, before
    /// that tick's events; the next [`Self::on_tick`] carries tick
    /// `from_tick + skipped + 1`. The single-UE engine and trace-keeping
    /// fleets never sleep, so they never call this, and a checker may treat
    /// any tick gap *not* declared this way as an engine bug (an overslept
    /// UE).
    fn on_sleep(&mut self, from_tick: u64, skipped: u64) {}

    /// End of one tick; `view` is the state the trace sample was built from.
    fn on_tick(&mut self, view: &TickView) {}

    /// The run finished (route exhausted or duration cap hit).
    fn on_run_end(&mut self, t: f64, serving: ServingCells, phase: HoPhase, queued: usize) {}
}
