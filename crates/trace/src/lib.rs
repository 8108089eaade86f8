//! # fiveg-trace — causal handover tracing
//!
//! The observability layer of the mobility simulator: it turns the flat
//! [`SimHook`](fiveg_sim::SimHook) event stream into **per-handover spans**
//! decomposed into the control-plane phases the paper vivisects —
//! trigger, preparation (T1), execution (T2), completion — with
//! data-interruption time charged to each radio the procedure halts.
//!
//! Three pieces:
//!
//! * [`HoSpan`] / [`SpanLog`] ([`span`]) — the span model. Spans are keyed
//!   by `(ue, seq)` and carry the vivisection dimensions (leg, source →
//!   target cell, cause, trigger events, outcome); [`SpanLog::absorb`]
//!   merges per-UE logs order-independently, so fleet aggregates are
//!   byte-identical at any thread count.
//! * [`SpanAssembler`] ([`assembler`]) — a [`SimHook`](fiveg_sim::SimHook)
//!   that assembles spans causally, reproducing the NSA compound procedure
//!   (forced SCGR chaining into a back-dated LTEH) and flagging — never
//!   papering over — events that cannot follow the current span state.
//! * [`FlightRecorder`] ([`recorder`]) — a bounded ring of recent events
//!   that dumps a deterministic `fiveg-flightrec/v1` JSONL document (last
//!   N events + in-flight and recent spans with full phase timelines) on
//!   oracle violations or RLF/fault storms.
//!
//! Everything is sim-time only: no wall clocks, no thread identity, no
//! allocation-order dependence. Two runs of the same scenario produce
//! byte-identical spans and dumps regardless of host or parallelism — the
//! property the `vivisect-smoke` CI step locks in.

pub mod assembler;
pub mod recorder;
pub mod span;

pub use assembler::{SpanAssembler, MAX_STORM_DUMPS, STORM_THRESHOLD, STORM_WINDOW_S};
pub use recorder::{FlightRecorder, RecEvent, DEFAULT_CAPACITY, DUMP_RECENT_SPANS, FLIGHTREC_SCHEMA};
pub use span::{Dump, HoSpan, SpanAnomaly, SpanLog, SpanOutcome, CAUSE_CHAINED};
