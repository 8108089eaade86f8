//! Deterministic scenario simulator.
//!
//! Everything the paper records with XCAL + 5G Tracker on a drive, this
//! crate produces synthetically: 20 Hz cross-layer samples (position, PCIs,
//! RRS, bands, capacity), measurement reports, HO records with stage
//! timings, and signaling tallies. A [`Scenario`] wires together:
//!
//! ```text
//! MobilityDriver ──▶ position ──▶ Deployment (RRS per cell)
//!                                   │
//!                       MeasEngine (LTE leg, NR leg)
//!                                   │ triggered reports
//!                       HoPolicy (carrier decision logic)
//!                                   │ HO decisions
//!                       RanStateMachine (T1/T2, Table 2 transitions)
//!                                   │ connection snapshots
//!                       link::compose + flows ──▶ Trace
//! ```
//!
//! * [`scenario`] — builders for the study's scenarios (city loops, freeway
//!   legs, walking datasets D1/D2, cross-country segments);
//! * [`engine`] — the tick loop;
//! * [`trace`] — the serialized dataset format;
//! * [`fault`] — fault injection (MR loss, HO failures) in the smoltcp
//!   tradition of making adverse conditions reproducible;
//! * [`hook`] — observation hooks for external invariant checkers;
//! * [`fleet`] — N load-coupled UEs against one shared deployment;
//! * [`wheel`] — the hierarchical calendar-wheel [`EventQueue`] behind the
//!   event-driven engine mode.

pub mod engine;
pub mod fault;
pub mod fleet;
pub mod hook;
pub mod scenario;
pub mod trace;
pub mod wheel;

pub use engine::run_hooked;
pub use fault::FaultConfig;
pub use fiveg_telemetry::{Telemetry, TelemetryConfig};
pub use fleet::{
    run_fleet_exec, run_fleet_exec_instrumented, run_fleet_exec_observed, CellLoadView, EngineMode, FleetExec,
    FleetMeta, FleetSpec, FleetTrace, LoadSummary, SchedSummary, ShardMap, UePlan, UeSummary,
};
pub use hook::{AttachReason, ServingCells, SimHook, TickView};
pub use scenario::{Scenario, ScenarioBuilder, Workload};
pub use trace::{CellDictEntry, FlowLog, MrRecord, Trace, TraceMeta, TraceSample};
pub use wheel::EventQueue;
