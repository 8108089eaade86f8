//! Cross-layer invariant checker and deterministic scenario fuzzer.
//!
//! Every result in the repo is built on one engine: the snapshot tick loop,
//! stepped per tick by the single-UE engine or scheduled event-driven by
//! the fleet. Its radio snapshot is held bit for bit to the exhaustive
//! per-band scan of `fiveg_ran::per_band_top`, and the event-driven
//! schedule byte for byte to runs that never skip a tick: the single-UE
//! trace and the fleet's referee mode. This crate turns those contracts
//! into a standing correctness tool with two halves:
//!
//! * [`shadow::Oracle`] — a [`fiveg_sim::SimHook`] that replays every
//!   engine transition against an independent shadow state machine *while
//!   the run executes*: legal RRC/HO phase ordering (prepare → execute →
//!   complete | failure, no orphaned preparations), at most one serving
//!   cell per leg with NSA/SA leg-consistency, physical RRS bounds and
//!   noise-floor sanity, monotonic time, rollback identity on injected HO
//!   failures.
//! * [`check`] — post-run consistency checks over the finished
//!   [`fiveg_sim::Trace`], the telemetry counter algebra
//!   ([`fiveg_telemetry::CounterSnapshot`]), the event journal, and the
//!   codec round-trip identity of the trace.
//!
//! [`fuzz`] drives both across a seeded random scenario space (route ×
//! carrier × arch × faults), checks each case's radio trajectory and runs
//! it through the event-driven fleet differentially (against the single-UE
//! trace, or against the referee),
//! shrinks failures to minimal repro cases, and speaks the
//! corpus TOML format that `tests/corpus/` replays in CI. [`mutate`] is the
//! oracle's own regression harness: it corrupts the hook stream in known
//! ways and asserts the oracle notices — a vacuous checker fails loudly.
//!
//! Every [`Violation`] carries the tick, sim-time, scenario seed and the
//! offending transition, so any failure is a one-command repro:
//! `scenario_fuzz --replay <case.toml>`.

pub mod check;
pub mod fuzz;
pub mod mutate;
pub mod shadow;
pub mod violation;

pub use check::check_trace;
pub use fuzz::{run_case, shrink, shrink_with, CaseResult, FuzzCase, FuzzEngine, FuzzRoute, CASE_SCHEMA};
pub use mutate::{mutation_self_test, mutation_self_test_traced, MutatingHook, MutationKind, MutationReport};
pub use shadow::Oracle;
pub use violation::Violation;
