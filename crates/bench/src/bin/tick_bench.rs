//! Tick-throughput benchmark of the snapshot engine: ticks/sec, an
//! allocations-per-tick proxy and the radio snapshot's work per tick.
//!
//! A fixed-seed scenario set runs through the production engine
//! ([`Scenario::run_instrumented`]), [`ITERS`] timed passes after one
//! untimed warmup. Tick counts come from the `sim.ticks` telemetry counter
//! and allocations from a counting global allocator. The snapshot row also
//! reports `priced_cells_per_tick`: cells whose exact rx the radio
//! snapshot's bound-and-cull screen computed per tick, from replaying
//! [`RadioSnapshot::refresh`] at every recorded `(pos, t)` of the engine's
//! traces — the engine's per-tick refresh calls — so it is exact and
//! machine-independent.
//!
//! The `des` rows benchmark the event-driven engine on sleep-eligible SA
//! scenarios: each is a fleet of one on [`EngineMode::EventDriven`], the
//! same event loop every larger fleet uses, first checked against the same
//! fleet of one on [`EngineMode::Stepped`] (identical control-plane
//! summary and logical tick count, so the skip ratio is never bought with
//! less work). Each row reports logical `ticks`, the exact `skip_ratio`,
//! `plan_tiles` (shadowing tiles the sleep planner's screen hashed,
//! counter `fleet.plan_tiles`) and `plan_evals` (exact channel evaluations
//! its dry run paid for, counter `fleet.plan_evals`). The run fails
//! outright when `skip_ratio` drops below [`SKIP_FLOOR`].
//!
//! ```text
//! tick_bench [--smoke] [--out PATH] [--baseline PATH]
//! ```
//!
//! The report (`BENCH_tick.json`, schema `fiveg-tick/v4`) holds the pinned
//! configuration and the gated [`rows`]; with `--baseline` the run gates
//! them against the committed report and exits nonzero past
//! [`perfgate::TOL`] (see `fiveg_bench::perfgate`). Ticks/s, UE·ticks/s and
//! the ungated counts — screened and tier-1 cells and towers located per
//! tick ([`RadioSnapshot::sites_located`]), skipped ticks and sleeps — are
//! printed only.

use fiveg_bench::perfgate::{self, Baseline, CountingAlloc, Row, ALLOCS};
use fiveg_geo::Point;
use fiveg_ran::{Arch, Carrier, Deployment, RadioSnapshot};
use fiveg_sim::{
    engine, run_fleet_exec, run_fleet_exec_instrumented, EngineMode, FleetExec, FleetSpec, FleetTrace, Scenario,
    ScenarioBuilder, Telemetry, TelemetryConfig, Trace,
};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The report schema this binary writes and the only one it will gate
/// against.
const SCHEMA: &str = "fiveg-tick/v4";

/// Timed passes over the scenario set. The gated snapshot `ticks` is
/// summed over them (3 × 6,987 = 20,961 on the full set), so the count is
/// pinned with the scenarios.
const ITERS: usize = 3;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    smoke: bool,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { smoke: false, out: "BENCH_tick.json".into(), baseline: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--baseline" => args.baseline = Some(it.next().ok_or("--baseline needs a value")?),
            "--help" | "-h" => {
                println!("usage: tick_bench [--smoke] [--out PATH] [--baseline PATH]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// The fixed-seed scenario set. Seeds and shapes are pinned so numbers are
/// comparable across commits (see EXPERIMENTS.md, "Tick benchmark").
fn scenarios(smoke: bool) -> Vec<(&'static str, Scenario)> {
    if smoke {
        return vec![(
            "freeway-nsa-2km",
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 2.0, 101).duration_s(60.0).sample_hz(10.0).build(),
        )];
    }
    vec![
        (
            "freeway-nsa-6km",
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 101).duration_s(200.0).sample_hz(10.0).build(),
        ),
        (
            "freeway-sa-6km",
            ScenarioBuilder::freeway(Carrier::OpX, Arch::Sa, 6.0, 102).duration_s(200.0).sample_hz(10.0).build(),
        ),
        (
            "city-dense-nsa",
            ScenarioBuilder::city_loop_dense(Carrier::OpX, 103).duration_s(200.0).sample_hz(10.0).build(),
        ),
        (
            "freeway-lte-6km",
            ScenarioBuilder::freeway(Carrier::OpZ, Arch::Lte, 6.0, 104).duration_s(200.0).sample_hz(10.0).build(),
        ),
    ]
}

/// Machine-independent floor on the des skip ratio: at least half of all
/// city-loop ticks must be fast-forwarded, or the event-driven engine has
/// quietly stopped earning its keep.
const SKIP_FLOOR: f64 = 0.5;

/// The des scenario set: sleep-eligible SA routes (NSA carries a
/// SINR-quantity B1 config, so it never sleeps and would only measure the
/// stepped path twice).
fn des_scenarios(smoke: bool) -> Vec<(&'static str, Scenario)> {
    let secs = if smoke { 60.0 } else { 200.0 };
    vec![
        (
            "city-sa",
            ScenarioBuilder::city_loop(Carrier::OpY, 105).arch(Arch::Sa).duration_s(secs).sample_hz(10.0).build(),
        ),
        (
            "walking-sa",
            ScenarioBuilder::walking_loop(Carrier::OpY, 8.0, 4, 106)
                .arch(Arch::Sa)
                .duration_s(secs)
                .sample_hz(10.0)
                .build(),
        ),
    ]
}

/// The snapshot row's gated values.
struct SnapshotResult {
    /// Ticks over the [`ITERS`] timed passes.
    ticks: u64,
    allocs_per_tick: f64,
    priced_cells_per_tick: f64,
}

/// The radio snapshot's work over `tr`, replaying its per-tick refresh at
/// every recorded `(pos, t)`.
#[derive(Debug, Clone, Copy, Default)]
struct SnapshotWork {
    ticks: u64,
    /// Wanted in-radius cells bounded.
    screened: u64,
    /// Cells that paid the tier-1 losses.
    tier1: u64,
    /// Cells whose exact rx was computed.
    priced: u64,
    /// Towers whose geometry was located.
    sites: u64,
}

fn snapshot_work(s: &Scenario, tr: &Trace) -> SnapshotWork {
    let d = Deployment::generate(&s.route, s.carrier, s.env, s.arch, s.seed);
    let mut snap = RadioSnapshot::new();
    let mut w = SnapshotWork { ticks: tr.samples.len() as u64, ..SnapshotWork::default() };
    for x in &tr.samples {
        let pos = Point::new(x.pos.0, x.pos.1);
        snap.refresh(&d, &pos, x.t, engine::SEARCH_RADIUS_M, s.arch != Arch::Sa, s.arch != Arch::Lte);
        w.screened += snap.screened() as u64;
        w.tier1 += snap.tier1_cells() as u64;
        w.priced += snap.priced() as u64;
        w.sites += snap.sites_located() as u64;
    }
    w
}

/// The des row's gated values, per run.
struct DesResult {
    label: &'static str,
    /// Logical ticks simulated (skipped ticks included).
    ticks: u64,
    /// `skipped_ticks / ticks` — exact and machine-independent.
    skip_ratio: f64,
    /// Shadowing tiles the sleep planner built — exact at the fixed
    /// one-thread geometry.
    plan_tiles: u64,
    /// Exact channel evaluations of the sleep planner's dry run — a pure
    /// function of the scenario, like `ticks`.
    plan_evals: u64,
}

/// A fleet of one on `engine`: the event-driven single-UE engine, or its
/// stepped twin.
fn fleet_of_one(s: &Scenario, engine: EngineMode) -> FleetTrace {
    run_fleet_exec(&FleetSpec::new(s.clone(), 1), FleetExec::threads(1).engine(engine))
}

/// Runs an event-driven fleet of one over one scenario: a counted run,
/// then [`ITERS`] timed passes whose throughput is printed.
fn bench_des(label: &'static str, s: &Scenario) -> DesResult {
    // the counted run doubles as the warmup: counters only, no timers
    let tele = Telemetry::new(TelemetryConfig::deterministic());
    let exec = FleetExec::threads(1).engine(EngineMode::EventDriven);
    let run = run_fleet_exec_instrumented(&FleetSpec::new(s.clone(), 1), exec, &tele);
    let start = Instant::now();
    for _ in 0..ITERS {
        fleet_of_one(s, EngineMode::EventDriven);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let ticks = run.ues[0].ticks;
    let sched = run.sched.expect("event-driven runs record a SchedSummary");
    let d = DesResult {
        label,
        ticks,
        skip_ratio: if ticks == 0 { 0.0 } else { sched.skipped_ue_ticks as f64 / ticks as f64 },
        plan_tiles: tele.counter_value("fleet.plan_tiles"),
        plan_evals: tele.counter_value("fleet.plan_evals"),
    };
    println!(
        "  des {:<12} {:>6} ticks ({} slept in {} windows, skip {:.3}, {} plan tiles, {} plan evals)  -> {:>9.0} UE·ticks/s",
        label,
        ticks,
        sched.skipped_ue_ticks,
        sched.sleeps,
        d.skip_ratio,
        d.plan_tiles,
        d.plan_evals,
        (ticks * ITERS as u64) as f64 / elapsed_s
    );
    d
}

/// Runs every scenario through the engine [`ITERS`] times after one
/// untimed warmup pass, counting ticks and allocations and printing the
/// throughput.
fn bench_snapshot(set: &[(&'static str, Scenario)], priced_cells_per_tick: f64) -> SnapshotResult {
    // warmup (untimed): page in code and let the allocator settle
    let warm = Telemetry::new(TelemetryConfig::on());
    for (_, s) in set {
        s.run_instrumented(&warm);
    }

    let tele = Telemetry::new(TelemetryConfig::on());
    let allocs = tele.counter("bench.allocs");
    let mut elapsed_s = 0.0;
    for _ in 0..ITERS {
        for (_, s) in set {
            let before = ALLOCS.load(Ordering::Relaxed);
            let start = Instant::now();
            s.run_instrumented(&tele);
            elapsed_s += start.elapsed().as_secs_f64();
            allocs.add(ALLOCS.load(Ordering::Relaxed) - before);
        }
    }

    let ticks = tele.counter_value("sim.ticks");
    let r = SnapshotResult {
        ticks,
        allocs_per_tick: tele.counter_value("bench.allocs") as f64 / ticks as f64,
        priced_cells_per_tick,
    };
    println!(
        "  snapshot {:>8} ticks in {:>6.2} s  -> {:>8.0} ticks/s, {:>7.1} allocs/tick",
        ticks,
        elapsed_s,
        ticks as f64 / elapsed_s,
        r.allocs_per_tick
    );
    r
}

/// The pinned configuration: mode, passes and the snapshot scenario set
/// (the des scenarios are fixed by the mode).
fn config(mode: &str, set: &[(&'static str, Scenario)]) -> String {
    perfgate::config(|j| {
        j.key("mode");
        j.str_val(mode);
        j.key("iters");
        j.uint(ITERS as u64);
        j.key("scenarios");
        j.open('[');
        for (label, s) in set {
            j.open('{');
            j.key("label");
            j.str_val(label);
            j.key("seed");
            j.uint(s.seed);
            j.key("duration_s");
            j.num(s.max_duration_s);
            j.key("sample_hz");
            j.num(s.sample_hz);
            j.close('}');
        }
        j.close(']');
    })
}

/// The gated rows: the snapshot row's tick count and priced cells per tick
/// (bands) and allocs/tick (lower is better), and each des row's tick
/// count, skip ratio, planner tiles and planner evaluations (bands).
fn rows(p: &SnapshotResult, des: &[DesResult]) -> Vec<Row> {
    let mut rows = vec![Row::new("path", "snapshot")
        .band("ticks", p.ticks as f64)
        .lower("allocs_per_tick", p.allocs_per_tick)
        .band("priced_cells_per_tick", p.priced_cells_per_tick)];
    rows.extend(des.iter().map(|d| {
        Row::new("des", d.label)
            .band("ticks", d.ticks as f64)
            .band("skip_ratio", d.skip_ratio)
            .band("plan_tiles", d.plan_tiles as f64)
            .band("plan_evals", d.plan_evals as f64)
    }));
    rows
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tick_bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let set = scenarios(args.smoke);
    let mode = if args.smoke { "smoke" } else { "full" };
    let config = config(mode, &set);
    let baseline = match args.baseline.as_deref().map(|p| Baseline::load(p, SCHEMA, &config)).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("tick_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("tick bench '{}': {} scenario(s), {} iter(s)", mode, set.len(), ITERS);

    let mut work = SnapshotWork::default();
    for (_, s) in &set {
        let w = snapshot_work(s, &s.run());
        work.ticks += w.ticks;
        work.screened += w.screened;
        work.tier1 += w.tier1;
        work.priced += w.priced;
        work.sites += w.sites;
    }
    let per_tick = |n: u64| n as f64 / work.ticks as f64;

    // the des rows must do the stepped engine's work: identical control
    // plane and identical logical tick count, or the skip ratio measures a
    // different workload
    let des_set = des_scenarios(args.smoke);
    for (label, s) in &des_set {
        let (des, stepped) = (fleet_of_one(s, EngineMode::EventDriven), fleet_of_one(s, EngineMode::Stepped));
        if des.ues[0].control() != stepped.ues[0].control() {
            eprintln!(
                "tick_bench: des and stepped summaries diverge on {label}: {:?} vs {:?}",
                des.ues[0], stepped.ues[0]
            );
            return ExitCode::FAILURE;
        }
    }

    let snapshot = bench_snapshot(&set, per_tick(work.priced));
    println!(
        "  snapshot prices {:.1} of {:.1} screened cells/tick ({:.1} reach tier 1, {:.1} towers located)",
        per_tick(work.priced),
        per_tick(work.screened),
        per_tick(work.tier1),
        per_tick(work.sites)
    );

    let mut des_results = Vec::new();
    for (label, s) in &des_set {
        let d = bench_des(label, s);
        if d.skip_ratio < SKIP_FLOOR {
            eprintln!("tick_bench: skip_ratio {:.3} on {} fell below the {SKIP_FLOOR} floor", d.skip_ratio, d.label);
            return ExitCode::FAILURE;
        }
        des_results.push(d);
    }

    let rows = rows(&snapshot, &des_results);
    if let Err(e) = std::fs::write(&args.out, perfgate::report(SCHEMA, &config, &rows)) {
        eprintln!("tick_bench: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  report -> {}", args.out);

    match baseline.map(|b| b.gate(&rows)) {
        None | Some(Ok(true)) => ExitCode::SUCCESS,
        Some(Ok(false)) => {
            eprintln!("tick_bench: gated metrics regressed beyond tolerance");
            ExitCode::FAILURE
        }
        Some(Err(e)) => {
            eprintln!("tick_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every gated entry comes back out of the report this binary writes.
    #[test]
    fn every_gated_entry_round_trips_through_the_report() {
        let snapshot = SnapshotResult { ticks: 20961, allocs_per_tick: 3.4487, priced_cells_per_tick: 40.241 };
        let des =
            [DesResult { label: "city-sa", ticks: 2001, skip_ratio: 0.8406, plan_tiles: 1342, plan_evals: 17096 }];
        let rows = rows(&snapshot, &des);
        let config = config("full", &scenarios(true));
        let own = perfgate::report(SCHEMA, &config, &rows);
        let gates = Baseline::parse("own report", own, SCHEMA, &config).unwrap().gates(&rows).unwrap();
        assert_eq!(gates.len(), 7);
        assert!(gates.iter().all(|g| g.baseline == g.current), "{gates:?}");
    }
}
