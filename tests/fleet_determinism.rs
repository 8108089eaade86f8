//! The fleet engine's core contract, enforced at the workspace level: the
//! output must not depend on how many workers stepped the UEs, and a fleet
//! of one must be indistinguishable — byte for byte once encoded — from the
//! single-UE engine. Fleet summaries compare with `==`; traces compare by
//! their codec bytes, which also tells `-0.0` from `0.0`.

use fiveg_geo::Point;
use fiveg_oracle::Oracle;
use fiveg_ran::{Arch, Carrier, Deployment, RadioSnapshot};
use fiveg_sim::{
    engine, run_fleet_exec, run_fleet_exec_instrumented, run_fleet_exec_observed, EngineMode, FleetExec, FleetSpec,
    FleetTrace, Scenario, ScenarioBuilder, ServingCells, ShardMap, SimHook, Telemetry, TelemetryConfig, TickView,
    Trace,
};

fn base(seed: u64) -> Scenario {
    ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 4.0, seed).duration_s(60.0).sample_hz(5.0).build()
}

/// A sleep-eligible base: SA (no SINR-quantity B1 config) on the city loop
/// with an idle workload, so the event-driven scheduler actually parks UEs.
fn quiet_base(seed: u64) -> Scenario {
    ScenarioBuilder::city_loop(Carrier::OpY, seed).arch(Arch::Sa).duration_s(50.0).sample_hz(5.0).build()
}

/// Asserts two fleet runs are the same output: equal summaries and
/// byte-identical encoded traces.
fn assert_same_fleet(a: &FleetTrace, b: &FleetTrace, what: &str) {
    assert_eq!((&a.meta, &a.ues, &a.load, &a.sched), (&b.meta, &b.ues, &b.load, &b.sched), "{what}");
    let bytes = |f: &FleetTrace| f.traces.iter().map(Trace::encode).collect::<Vec<_>>();
    assert!(bytes(a) == bytes(b), "{what}: traces encode to different bytes");
}

#[test]
fn fleet_trace_is_identical_across_thread_counts() {
    let spec = FleetSpec::new(base(31), 9).keep_traces(true);
    let one = run_fleet_exec(&spec, FleetExec::threads(1));
    for threads in [2, 4] {
        assert_same_fleet(
            &one,
            &run_fleet_exec(&spec, FleetExec::threads(threads)),
            &format!("fleet output changed at {threads} threads"),
        );
    }
}

#[test]
fn fleet_trace_is_identical_across_shard_counts() {
    let spec = FleetSpec::new(base(31), 9).keep_traces(true);
    let one = run_fleet_exec(&spec, FleetExec::threads(2).shards(1));
    for shards in [2, 8] {
        let many = run_fleet_exec(&spec, FleetExec::threads(2).shards(shards));
        assert_same_fleet(&one, &many, &format!("fleet output changed at {shards} shards"));
    }
}

#[test]
fn ue_crosses_shard_boundary_mid_handover() {
    // A handover must survive its UE migrating between shards while the
    // procedure is in flight: the sharded run must (a) actually migrate
    // UEs, (b) contain at least one HO whose decision and completion happen
    // on different shards, and (c) still match the single-shard output
    // byte for byte.
    let spec = FleetSpec::new(base(36), 10).keep_traces(true);
    let tele = Telemetry::new(TelemetryConfig::deterministic());
    let sharded = run_fleet_exec_instrumented(&spec, FleetExec::threads(2).shards(8), &tele);
    assert!(tele.counter_value("fleet.migrations") > 0, "freeway UEs must cross 8 shard bands");

    let s = &spec.base;
    let d = Deployment::generate(&s.route, s.carrier, s.env, s.arch, s.seed);
    let map = ShardMap::new(&d, 8);
    let shard_at = |trace: &fiveg_sim::Trace, t: f64| {
        let p = trace
            .samples
            .iter()
            .min_by(|a, b| (a.t - t).abs().partial_cmp(&(b.t - t).abs()).unwrap())
            .map(|smp| fiveg_geo::Point::new(smp.pos.0, smp.pos.1))
            .expect("trace has samples");
        map.shard_of(&p)
    };
    let crossing = sharded
        .traces
        .iter()
        .flat_map(|tr| tr.handovers.iter().map(move |h| (tr, h)))
        .any(|(tr, h)| shard_at(tr, h.t_decision) != shard_at(tr, h.t_complete));
    assert!(crossing, "expected at least one handover spanning a shard boundary");

    let single = run_fleet_exec(&spec, FleetExec::threads(1).shards(1));
    assert_same_fleet(&single, &sharded, "a mid-handover migration must not change the output");
}

/// Per-UE hook that rebuilds the UE's serving cells at every one of its
/// ticks: stepped ticks from `on_tick`, slept ticks from the `on_sleep` gap
/// declaration, which keeps the last serving cells.
#[derive(Default)]
struct ServingLog {
    cells: Vec<ServingCells>,
}

impl SimHook for ServingLog {
    fn on_sleep(&mut self, from_tick: u64, skipped: u64) {
        assert_eq!(from_tick, self.cells.len() as u64, "a sleep gap must start at the last observed tick");
        let last = *self.cells.last().expect("a UE sleeps only after a real step");
        self.cells.extend((0..skipped).map(|_| last));
    }

    fn on_tick(&mut self, view: &TickView) {
        assert_eq!(view.tick, self.cells.len() as u64 + 1, "the hook stream skipped a tick without a sleep gap");
        self.cells.push(view.serving);
    }
}

#[test]
fn cell_load_shares_sum_correctly_after_boundary_exchange() {
    // The boundary exchange keeps one persistent per-cell table fed by
    // serving-transition deltas; its aggregate statistics must equal the
    // per-tick attach counts rebuilt independently from every UE's hook
    // stream. UE `i`'s local tick `t` runs at global tick
    // `start_tick + t - 1`; a declared sleep keeps its last serving cells
    // published. Checked for a fleet that keeps its traces (and so never
    // sleeps) and one that does not, with and without stagger, on a
    // migrating geometry, for an NSA freeway fleet (an LTE leg on every UE,
    // NR legs added and released) and an SA city fleet that sleeps.
    for (arch, base, sleeps) in [("NSA", base(37), false), ("SA", quiet_base(37), true)] {
        for keep in [true, false] {
            for stagger in [0.0, 20.0] {
                let what = format!("{arch}, traces kept {keep}, {stagger} s stagger");
                let spec = FleetSpec::new(base.clone(), 10).stagger_s(stagger).keep_traces(keep);
                let (ft, logs) =
                    run_fleet_exec_observed(&spec, FleetExec::threads(2).shards(8), &Telemetry::disabled(), |_| {
                        ServingLog::default()
                    });

                let n_cells = ft.meta.cells as usize;
                let mut counts = vec![vec![0u32; n_cells]; ft.meta.ticks as usize];
                for (u, log) in ft.ues.iter().zip(&logs) {
                    assert_eq!(log.cells.len() as u64, u.ticks, "{what}: UE {} hook stream is not its whole run", u.ue);
                    for (t, cells) in log.cells.iter().enumerate() {
                        let tick = &mut counts[(u.start_tick + t as u64) as usize];
                        for c in [cells.lte, cells.nr].into_iter().flatten() {
                            tick[c.0 as usize] += 1;
                        }
                    }
                }
                let (mut attach, mut contended, mut peak) = (0u64, 0u64, 0u32);
                for &c in counts.iter().flatten() {
                    attach += u64::from(c);
                    peak = peak.max(c);
                    if c >= 2 {
                        contended += u64::from(c);
                    }
                }
                assert_eq!(ft.load.attach_ue_ticks, attach, "{what}: load table disagrees with the hook-derived sum");
                assert_eq!(ft.load.contended_ue_ticks, contended, "{what}");
                assert_eq!(ft.load.peak_cell_ues, peak, "{what}");
                assert!(contended > 0, "{what}: co-routed UEs must actually contend for this oracle to bite");
                if arch == "NSA" {
                    let lte = logs.iter().flat_map(|l| &l.cells).filter(|c| c.lte.is_some()).count();
                    let nr_flips = logs
                        .iter()
                        .flat_map(|l| l.cells.windows(2))
                        .filter(|w| w[0].nr.is_some() != w[1].nr.is_some())
                        .count();
                    assert!(lte > 0 && nr_flips > 0, "{what}: {lte} LTE-leg ticks, {nr_flips} NR leg adds/releases");
                }
                let sched = ft.sched.as_ref().expect("every fleet run reports its schedule");
                if keep {
                    assert_eq!(sched.sleeps, 0, "{what}: a trace-keeping fleet slept: {sched:?}");
                } else if sleeps {
                    assert!(sched.sleeps > 0 && sched.skipped_ue_ticks > 0, "{what}: no UE slept: {sched:?}");
                }
            }
        }
    }
}

#[test]
fn size_one_fleet_reproduces_single_run() {
    let s = base(35);
    let single = s.run();
    let ft = run_fleet_exec(&FleetSpec::new(s, 1).keep_traces(true), FleetExec::threads(2));
    assert_eq!(ft.traces.len(), 1);
    assert!(ft.traces[0].encode() == single.encode(), "a fleet of one must reproduce the single-UE engine exactly");
    assert_eq!(ft.load.contended_ue_ticks, 0);
}

#[test]
fn event_driven_fleet_matches_referee_across_geometries() {
    // the EngineMode::Referee fleet steps sleeping UEs with the full control
    // plane (just unsampled), so FleetTrace equality proves every granted
    // sleep window was genuinely inert — at any thread/shard geometry
    let spec = FleetSpec::new(quiet_base(41), 12);
    let referee = run_fleet_exec(&spec, FleetExec::threads(1).shards(1).engine(EngineMode::Referee));
    let sched = referee.sched.as_ref().expect("scheduled mode records a SchedSummary");
    assert!(sched.sleeps > 0, "the quiet fleet must actually sleep or this test is vacuous");
    assert!(sched.skipped_ue_ticks > 0);
    for (threads, shards) in [(1, 1), (2, 4), (4, 8)] {
        let event = run_fleet_exec(&spec, FleetExec::threads(threads).shards(shards).engine(EngineMode::EventDriven));
        assert_same_fleet(&referee, &event, &format!("event-driven output diverged at {threads}t / {shards}s"));
    }
}

#[test]
fn event_driven_matrix_is_byte_identical_across_geometries() {
    // the full worker × shard matrix: every geometry must produce the same
    // FleetTrace bit pattern, scheduler accounting included — a sleep
    // schedule that depends on which shard owns a UE, or on how wakeups
    // interleave with migration, shows up here as a single-cell divergence
    let spec = FleetSpec::new(quiet_base(44), 10);
    for engine in [EngineMode::EventDriven, EngineMode::Referee] {
        let baseline = run_fleet_exec(&spec, FleetExec::threads(1).shards(1).engine(engine));
        assert!(
            baseline.sched.as_ref().is_some_and(|s| s.sleeps > 0 && s.skipped_ue_ticks > 0),
            "the quiet fleet must actually sleep or the matrix is vacuous"
        );
        for threads in [1, 2, 4] {
            for shards in [1, 2, 8] {
                let run = run_fleet_exec(&spec, FleetExec::threads(threads).shards(shards).engine(engine));
                let what = format!("{engine:?} output at {threads}t / {shards}s");
                assert_same_fleet(&baseline, &run, &format!("{what} changed"));
                // every sleep ends in exactly one wake: each wake fills one
                // histogram bucket (a dropped or doubled wakeup breaks the
                // sum), and a load-wake is one kind of wake
                let s = run.sched.as_ref().expect("scheduled mode records a SchedSummary");
                assert_eq!(s.wake_hist.iter().sum::<u64>(), s.sleeps, "{what}: wakes do not match sleeps: {s:?}");
                assert!(s.load_wakes <= s.sleeps, "{what}: more load-wakes than sleeps: {s:?}");
            }
        }
    }
}

#[test]
fn warm_planner_memos_leave_the_freeway_fleet_unchanged() {
    // the sleep planner memoizes shadowing tile suprema per worker, and
    // freeway UEs migrate across 16 shard bands, so at 2 threads each
    // worker's memo is warmed by UEs of shards it no longer (or never) held.
    // The memo holds pure functions of the deployment, so the FleetTrace
    // must not notice: same bytes as one worker and as the referee
    let base = ScenarioBuilder::freeway(Carrier::OpX, Arch::Sa, 6.0, 47).duration_s(90.0).sample_hz(5.0).build();
    let spec = FleetSpec::new(base, 8).stagger_s(6.0).speed_jitter(0.1);
    let geometry = |threads: usize, shards: usize, engine: EngineMode| {
        let tele = Telemetry::new(TelemetryConfig::deterministic());
        let ft = run_fleet_exec_instrumented(&spec, FleetExec::threads(threads).shards(shards).engine(engine), &tele);
        let counter = |name: &str| tele.counter_value(name);
        (ft, counter("fleet.plan_tiles"), counter("fleet.plan_evals"), counter("fleet.migrations"))
    };
    let (one, tiles_one, evals_one, _) = geometry(1, 1, EngineMode::EventDriven);
    let (two, tiles_two, evals_two, migrations) = geometry(2, 16, EngineMode::EventDriven);
    let (referee, _, _, _) = geometry(2, 16, EngineMode::Referee);
    assert!(
        one.sched.as_ref().is_some_and(|s| s.sleeps > 0 && s.skipped_ue_ticks > 0),
        "the freeway fleet must actually sleep or this test is vacuous"
    );
    assert!(migrations > 0, "freeway UEs must cross shard bands");
    // every tile one worker builds is needed by some plan, and the plans
    // are the same at any geometry, so two workers build at least as many
    assert!(tiles_one > 0 && tiles_one <= tiles_two, "planner tiles: {tiles_one} at 1 thread, {tiles_two} at 2");
    // exact channel evaluations are counted per plan, so no geometry moves them
    assert!(evals_one > 0 && evals_one == evals_two, "planner evals: {evals_one} at 1x1, {evals_two} at 2x16");
    assert_same_fleet(&one, &two, "warm per-worker memos changed the event-driven fleet");
    assert_same_fleet(&referee, &two, "event-driven fleet diverged from the referee");
}

#[test]
fn each_ue_keeps_its_own_lattice_memo_on_a_shared_shard() {
    // the trace-recording shape: 8 trace-keeping UEs within a 10 s stagger
    // share one shard's radio snapshot. Each UE swaps its own channel memo
    // into it around its step, so the memo holds that UE's lattice cells and
    // a refresh hashes about the corners a lone UE's would, not one fresh
    // set per UE per tick
    let base = ScenarioBuilder::city_loop(Carrier::OpY, 21).arch(Arch::Sa).duration_s(30.0).sample_hz(10.0).build();
    let spec = FleetSpec::new(base.clone(), 8).stagger_s(10.0).speed_jitter(0.1).keep_traces(true);
    let tele = Telemetry::new(TelemetryConfig::deterministic());
    let shared = run_fleet_exec_instrumented(&spec, FleetExec::threads(1).shards(1), &tele);
    assert_same_fleet(&shared, &run_fleet_exec(&spec, FleetExec::threads(2).shards(8)), "memo swaps changed a trace");
    let ue_ticks: u64 = shared.ues.iter().map(|u| u.ticks).sum();
    let fleet_rate = tele.counter_value("fleet.corner_hashes") as f64 / ue_ticks as f64;

    // the lone UE's snapshot: its own refreshes, replayed at every recorded
    // (pos, t) of `Scenario::run`, the initial attach included
    let lone = base.run();
    let d = Deployment::generate(&base.route, base.carrier, base.env, base.arch, base.seed);
    let mut snap = RadioSnapshot::new();
    let start = base.route.points()[0];
    let attach = std::iter::once((start, 0.0));
    let mut corners = 0;
    for (pos, t) in attach.chain(lone.samples.iter().map(|x| (Point::new(x.pos.0, x.pos.1), x.t))) {
        snap.refresh(&d, &pos, t, engine::SEARCH_RADIUS_M, false, true);
        corners += snap.corner_hashes();
    }
    let lone_rate = corners as f64 / lone.samples.len() as f64;
    assert!(lone_rate > 0.0 && fleet_rate > 0.0, "no corner hashed: fleet {fleet_rate}, lone {lone_rate}");
    assert!(
        fleet_rate <= 2.0 * lone_rate,
        "{fleet_rate:.2} corner hashes per UE·tick on the shared shard vs {lone_rate:.2} for a lone UE"
    );
}

#[test]
fn event_driven_fleet_preserves_fixed_control_plane() {
    // the same fleet with traces kept never sleeps (recording UEs are never
    // planner-eligible), so it is the fixed-step reference: identical meta,
    // load summary and per-UE control-plane fields; only the data-plane
    // sampling aggregates may differ (sleeping UEs do not sample)
    let spec = FleetSpec::new(quiet_base(42), 10);
    let fixed = run_fleet_exec(&spec.clone().keep_traces(true), FleetExec::threads(2).shards(4));
    let event = run_fleet_exec(&spec, FleetExec::threads(2).shards(4).engine(EngineMode::EventDriven));
    assert_eq!(fixed.sched.as_ref().map(|s| s.sleeps), Some(0), "a trace-keeping fleet must never sleep");
    assert!(event.sched.as_ref().is_some_and(|s| s.sleeps > 0), "the quiet fleet must sleep or this test is vacuous");
    assert_eq!(fixed.meta, event.meta);
    assert_eq!(fixed.load, event.load);
    assert_eq!(fixed.ues.len(), event.ues.len());
    for (f, e) in fixed.ues.iter().zip(event.ues.iter()) {
        assert_eq!((f.ue, f.seed, f.start_tick, f.reversed), (e.ue, e.seed, e.start_tick, e.reversed));
        assert_eq!(f.control(), e.control(), "UE {} control plane diverged under event-driven stepping", f.ue);
    }
}

#[test]
fn per_ue_oracles_stay_clean_under_load() {
    // every UE in a contended fleet must still satisfy the cross-layer
    // invariants — load coupling only scales capacity, never the control
    // plane the oracle shadows
    let spec = FleetSpec::new(base(34), 6).stagger_s(5.0);
    let (ft, oracles) = run_fleet_exec_observed(&spec, FleetExec::threads(2).shards(8), &Telemetry::disabled(), |ue| {
        Oracle::new(spec.base.arch, u64::from(ue))
    });
    assert_eq!(oracles.len(), 6);
    for (ue, o) in oracles.iter().enumerate() {
        assert!(o.is_clean(), "UE {ue} violated invariants: {:?}", o.violations());
    }
    assert!(ft.meta.ticks > 0);
    assert_eq!(ft.load.peak_active_ues as usize, 6.min(ft.ues.len()));
}
