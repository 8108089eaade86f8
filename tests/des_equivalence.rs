//! The event-driven core's headline harness: differential equivalence
//! between the discrete-event scheduler and references that never skip a
//! tick, at every layer that produces output.
//!
//! The proof oracles are runs that step every tick: [`Scenario::run`], and
//! fleets that keep their traces (a UE recording per-tick samples is never
//! planner-eligible, so such a fleet never sleeps — asserted wherever it
//! serves as a reference). Four kinds of evidence, each with its own
//! failure mode:
//!
//! 1. **Traced byte-identity** — an event-driven fleet of one with trace
//!    recording on must reproduce [`Scenario::run`] exactly, down to the
//!    encoded bytes. This leg proves the DES machinery is *transparent*
//!    when it cannot skip.
//! 2. **Summary-mode equality** — with sampling off the planner really
//!    skips (asserted non-vacuous), and every engine-invariant control
//!    field of an event-driven fleet of one must still match
//!    [`Scenario::run`]'s trace.
//! 3. **Referee cross-examination** — [`EngineMode::Referee`] takes the
//!    *same* scheduling decisions as [`EngineMode::EventDriven`] but steps
//!    "sleeping" UEs with the full control plane. [`FleetTrace`] equality
//!    therefore proves every granted window was genuinely inert.
//! 4. **Downstream invariance** — handover [`SpanLog`]s, predictor feature
//!    tables and full Prognos replays derived from DES output must equal
//!    those derived from a never-sleeping run: the paper's analyses may not
//!    be able to tell which engine produced their input.
//!
//! The matrix crosses NSA/SA/LTE × routes (city loop, freeway, walking)
//! × fault injection; predictors cover Prognos, the GBC features and the
//! LSTM sequences. Everything here is structural equality; CI's determinism
//! job runs this file in release mode.

use fiveg_baselines::{Gbc, GbcConfig};
use fiveg_bench::vivisect::VivisectObserver;
use fiveg_bench::{gbc_dataset, lstm_sequences, run_prognos};
use fiveg_ran::{Arch, Carrier, CellId, HoType, RadioTech};
use fiveg_sim::{
    run_fleet_exec, run_fleet_exec_observed, EngineMode, FaultConfig, FleetExec, FleetSpec, Scenario, ScenarioBuilder,
    Telemetry, Trace,
};
use fiveg_trace::{SpanLog, SpanOutcome};
use prognos::PrognosConfig;

const FAULTS: FaultConfig = FaultConfig { mr_loss_prob: 0.25, ho_failure_prob: 0.2 };

/// The equivalence matrix: architectures × routes × fault injection.
/// Modest durations — the point is coverage of control-plane shapes, not
/// wall-clock; the perf story lives in the benchmarks.
fn matrix() -> Vec<(&'static str, Scenario)> {
    vec![
        ("city-nsa", ScenarioBuilder::city_loop(Carrier::OpY, 11).duration_s(40.0).sample_hz(5.0).build()),
        (
            "city-sa",
            ScenarioBuilder::city_loop(Carrier::OpY, 12).arch(Arch::Sa).duration_s(40.0).sample_hz(5.0).build(),
        ),
        (
            "city-lte",
            ScenarioBuilder::city_loop(Carrier::OpY, 13).arch(Arch::Lte).duration_s(40.0).sample_hz(5.0).build(),
        ),
        (
            "freeway-nsa",
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 3.0, 14).duration_s(40.0).sample_hz(5.0).build(),
        ),
        (
            "freeway-sa",
            ScenarioBuilder::freeway(Carrier::OpX, Arch::Sa, 3.0, 15).duration_s(40.0).sample_hz(5.0).build(),
        ),
        ("walking-sa", ScenarioBuilder::walking_loop(Carrier::OpY, 2.0, 1, 16).arch(Arch::Sa).sample_hz(5.0).build()),
        (
            "city-sa-faulted",
            ScenarioBuilder::city_loop(Carrier::OpY, 17)
                .arch(Arch::Sa)
                .faults(FAULTS)
                .duration_s(40.0)
                .sample_hz(5.0)
                .build(),
        ),
        (
            "freeway-nsa-faulted",
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 3.0, 18)
                .faults(FAULTS)
                .duration_s(40.0)
                .sample_hz(5.0)
                .build(),
        ),
    ]
}

/// A DES fleet-of-one with traces kept: the event-driven engine's traced
/// output for `s`, at the given geometry.
fn des_trace_of(s: &Scenario, threads: usize, shards: usize) -> Trace {
    let spec = FleetSpec::new(s.clone(), 1).keep_traces(true);
    let mut ft = run_fleet_exec(&spec, FleetExec::threads(threads).shards(shards).engine(EngineMode::EventDriven));
    assert_eq!(ft.traces.len(), 1);
    ft.traces.pop().unwrap()
}

#[test]
fn des_traces_are_byte_identical_to_run() {
    // Leg 1: transparency. Trace recording pins the planner to zero-length
    // windows, and the whole DES path — resident sweep, scheduler state, load
    // publication — must be invisible in the output, at any geometry.
    for (name, s) in matrix() {
        let stepped = s.run();
        assert!(!stepped.samples.is_empty());
        for (threads, shards) in [(1, 1), (2, 4)] {
            let des = des_trace_of(&s, threads, shards);
            assert_eq!(des, stepped, "[{name}] DES trace diverged from Scenario::run at {threads}t/{shards}s");
            assert!(des.encode() == stepped.encode(), "[{name}] DES trace encodes to different bytes");
        }
    }
}

#[test]
fn summary_mode_des_matches_stepped_across_the_matrix() {
    // Leg 2: with sampling off the planner is live. Control fields must
    // match Scenario::run's trace everywhere; skipping must actually
    // happen on the sleep-eligible cells and never on NSA (whose
    // SINR-quantity B1 config keeps every UE on the fixed step).
    let mut skipped_total = 0u64;
    for (name, s) in matrix() {
        let nsa = s.arch == Arch::Nsa;
        let tr = s.run();
        let stepped = (
            tr.samples.len() as u64,
            tr.meta.traveled_m,
            tr.handovers.len() as u64,
            tr.ho_failures,
            tr.rlf_count,
            tr.reports.len() as u64,
        );
        let des = run_fleet_exec(&FleetSpec::new(s, 1), FleetExec::threads(1).engine(EngineMode::EventDriven));
        assert_eq!(des.ues[0].control(), stepped, "[{name}] fleet-of-one DES control plane diverged from run");
        let sched = des.sched.expect("every fleet run records a SchedSummary");
        if nsa {
            assert_eq!(sched.sleeps, 0, "[{name}] NSA UEs must never be granted a window");
        }
        skipped_total += sched.skipped_ue_ticks;
    }
    assert!(skipped_total > 0, "the matrix must exercise real skipping or this harness is vacuous");
}

#[test]
fn referee_equals_event_driven_at_any_geometry() {
    // Leg 3: the referee steps every "sleeping" tick with the control
    // plane on. FleetTrace equality (summaries, load coupling, scheduler
    // stats) proves the wakeup bounds sound for the whole matrix, across
    // thread × shard geometries.
    let mut slept_cells = 0u32;
    for (name, s) in matrix() {
        let sleepable = s.arch != Arch::Nsa;
        let spec = FleetSpec::new(s, 4);
        let referee = run_fleet_exec(&spec, FleetExec::threads(1).shards(1).engine(EngineMode::Referee));
        let sched = referee.sched.as_ref().expect("every fleet run records a SchedSummary");
        if sleepable && sched.sleeps > 0 {
            slept_cells += 1;
        }
        for (threads, shards) in [(1, 2), (2, 4), (4, 8)] {
            let event =
                run_fleet_exec(&spec, FleetExec::threads(threads).shards(shards).engine(EngineMode::EventDriven));
            assert_eq!(referee, event, "[{name}] event-driven fleet diverged from referee at {threads}t/{shards}s");
        }
    }
    assert!(slept_cells >= 3, "most sleep-eligible cells must actually sleep, got {slept_cells}");
}

/// Order- and float-exact digest of one span; `PartialEq` over the full
/// log (SpanLog itself deliberately does not derive it).
#[derive(Debug, PartialEq)]
struct SpanDigest {
    key: (u32, u32),
    cause: &'static str,
    ho_type: Option<HoType>,
    leg: Option<RadioTech>,
    cells: (Option<CellId>, Option<CellId>),
    trigger: String,
    outcome: SpanOutcome,
    times: (u64, u64, Option<u64>, Option<u64>, Option<u64>),
}

fn digest(log: &SpanLog) -> Vec<SpanDigest> {
    log.spans
        .iter()
        .map(|s| SpanDigest {
            key: (s.ue, s.seq),
            cause: s.cause,
            ho_type: s.ho_type,
            leg: s.leg,
            cells: (s.source, s.target),
            trigger: s.trigger.clone(),
            outcome: s.outcome,
            times: (
                s.t_trigger.to_bits(),
                s.t_decision.to_bits(),
                s.t_command.map(f64::to_bits),
                s.t_complete.map(f64::to_bits),
                s.t_settled.map(f64::to_bits),
            ),
        })
        .collect()
}

/// The merged span log, oracle violation count and sleep windows of a
/// 6-UE fleet of `s` at `exec`, with per-UE traces kept or not.
fn span_log_of(s: &Scenario, exec: FleetExec, keep_traces: bool) -> (SpanLog, u64, u64) {
    let spec = FleetSpec::new(s.clone(), 6).stagger_s(5.0).keep_traces(keep_traces);
    let arch = s.arch;
    let seed = s.seed;
    let (ft, observers) =
        run_fleet_exec_observed(&spec, exec, &Telemetry::disabled(), |ue| VivisectObserver::new(ue, arch, seed));
    let mut log = SpanLog::default();
    let mut violations = 0;
    for o in observers {
        let (l, v) = o.finish();
        violations += v;
        log.absorb(l);
    }
    (log, violations, ft.sched.expect("every fleet run records a SchedSummary").sleeps)
}

#[test]
fn span_logs_survive_event_driven_scheduling() {
    // Leg 4a: the causal span layer is assembled from the hook stream,
    // which an event-driven run thins out (skipped ticks fire no hooks).
    // Every span, anomaly count and timestamp bit must nonetheless match
    // the same fleet with traces kept, which never sleeps — HO activity
    // only ever happens on awake ticks.
    for (name, s) in matrix().into_iter().filter(|(n, _)| matches!(*n, "city-sa" | "city-nsa" | "freeway-nsa-faulted"))
    {
        let (stepped, v_stepped, never) = span_log_of(&s, FleetExec::threads(1).shards(1), true);
        let (event, v_event, slept) =
            span_log_of(&s, FleetExec::threads(2).shards(4).engine(EngineMode::EventDriven), false);
        assert_eq!(never, 0, "[{name}] a trace-keeping fleet must never sleep");
        if s.arch == Arch::Sa {
            assert!(slept > 0, "[{name}] the event-driven fleet must actually sleep for this leg to bite");
        }
        assert_eq!(v_stepped, v_event, "[{name}] oracle violation counts diverged");
        assert_eq!(digest(&stepped), digest(&event), "[{name}] span logs diverged under DES");
        assert_eq!(stepped.anomalies.len(), event.anomalies.len(), "[{name}] anomaly counts diverged");
        if name != "freeway-nsa-faulted" {
            assert_eq!(v_stepped, 0, "[{name}] clean cells must stay clean");
        }
        assert!(
            stepped.count(SpanOutcome::Completed) > 0,
            "[{name}] the fleet must complete handovers for span equality to mean anything"
        );
    }
}

#[test]
fn predictors_cannot_tell_the_engines_apart() {
    // Leg 4b: the predictor pipeline — Prognos replay, GBC feature table,
    // LSTM sequences — fed a DES-produced trace must produce outputs
    // identical to the stepped engine's, including trained-model
    // predictions.
    let scenarios = [
        ScenarioBuilder::city_loop(Carrier::OpY, 21).duration_s(90.0).sample_hz(5.0).build(),
        ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 5.0, 22).duration_s(90.0).sample_hz(5.0).build(),
    ];
    for s in &scenarios {
        let stepped = s.run();
        let des = des_trace_of(s, 2, 2);
        assert_eq!(des, stepped); // guards the legs below from vacuity

        // Prognos: full trace-driven replay on both engines' output
        let (prognos_stepped, _) = run_prognos(&stepped, PrognosConfig::default(), None, None);
        let (prognos_des, _) = run_prognos(&des, PrognosConfig::default(), None, None);
        assert_eq!(prognos_stepped.windows, prognos_des.windows, "Prognos window outcomes diverged");
        assert_eq!(prognos_stepped.episodes, prognos_des.episodes);
        assert_eq!(prognos_stepped.events, prognos_des.events);
        assert_eq!((prognos_stepped.learned, prognos_stepped.evicted), (prognos_des.learned, prognos_des.evicted));

        // GBC: identical feature tables, and a model trained on one
        // engine's output scores the other's rows identically
        let data_stepped = gbc_dataset(&[&stepped], 1.0);
        let data_des = gbc_dataset(&[&des], 1.0);
        assert_eq!(data_stepped, data_des, "GBC feature tables diverged");
        if data_stepped.num_classes() >= 2 {
            let model_stepped = Gbc::train(&data_stepped, &GbcConfig::default());
            let model_des = Gbc::train(&data_des, &GbcConfig::default());
            for row in &data_stepped.features {
                assert_eq!(model_stepped.predict_proba(row), model_des.predict_proba(row));
            }
        }

        // LSTM: identical input sequences
        assert_eq!(lstm_sequences(&[&stepped], 1.0), lstm_sequences(&[&des], 1.0));
    }
}
