//! Shared infrastructure for the experiment harnesses.
//!
//! Every table and figure of the paper has a bench target (see
//! `crates/bench/benches/`); this library holds what they share:
//!
//! * [`fmt`] — aligned table printing with paper-vs-measured rows;
//! * [`datasets`] — the walking datasets D1/D2 and the drive scenarios;
//! * [`driver`] — replays a recorded [`fiveg_sim::Trace`] through Prognos
//!   the way the
//!   paper's trace-driven emulation does, producing per-window predictions
//!   and ground-truth labels;
//! * [`features`] — feature extraction for the GBC and LSTM baselines;
//! * [`pool`] — the ordered worker pool (`run_ordered`, `parallel_traces`)
//!   whose index-ordered merge makes every parallel harness's output
//!   independent of its worker count;
//! * [`fuzz`] — the scenario-fuzz campaign driver behind `scenario_fuzz`
//!   (seeded case fan-out → oracle verdicts → corpus replay →
//!   `BENCH_fuzz.json`);
//! * [`perfgate`] — the gated-row reports and their baseline comparison
//!   behind the CI perf gate (`tick_bench`, `fleet_bench` and `serve_load`
//!   `--baseline`);
//! * [`vivisect`] — the handover vivisection harness behind `ho_vivisect`
//!   (span assembly + shadow oracle per UE → telemetry reconciliation →
//!   `BENCH_vivisect.json`).

pub mod datasets;
pub mod driver;
pub mod features;
pub mod fmt;
pub mod fuzz;
pub mod perfgate;
pub mod pool;
pub mod vivisect;

pub use datasets::{d1_traces, d2_traces};
pub use driver::{label_windows, run_prognos, PrognosRun, WindowOutcome};
pub use features::{gbc_dataset, lstm_sequences};
pub use fiveg_telemetry::json::JsonBuf;
pub use fuzz::{campaign_report, replay_corpus, run_campaign, FuzzOutcome, FUZZ_SCHEMA};
pub use vivisect::{
    matrix, reconcile, report as vivisect_report, run_cell, run_matrix, CellOutcome, VivisectCell, VivisectObserver,
    VIVISECT_SCHEMA,
};
