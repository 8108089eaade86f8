//! Convenience runner: a scenario with a span assembler attached.
//!
//! It wraps the engine's hooked entry point so callers get spans without
//! wiring the [`SpanAssembler`] themselves. Fleets attach one assembler per
//! UE through `fiveg_sim::run_fleet_exec_observed` and merge the logs in UE
//! order with [`SpanLog::absorb`]; since the merge is order-independent the
//! resulting log is byte-identical at any thread count.

use crate::assembler::SpanAssembler;
use crate::span::SpanLog;
use fiveg_sim::{run_hooked, Scenario, Telemetry, Trace};

/// Runs `s` with a span assembler attached.
pub fn trace_run(s: &Scenario, tele: &Telemetry) -> (Trace, SpanLog) {
    let mut asm = SpanAssembler::new(0, s.arch);
    let trace = run_hooked(s, tele, &mut asm);
    (trace, asm.finish())
}
