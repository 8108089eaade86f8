//! Tick-throughput microbenchmark of the snapshot engine, reporting
//! ticks/sec, an allocations-per-tick proxy and the radio snapshot's work
//! per tick.
//!
//! A fixed-seed scenario set runs through the production engine
//! ([`Scenario::run_instrumented`]). Throughput counters flow
//! through `fiveg-telemetry` (`sim.ticks` from the instrumented runs,
//! `bench.allocs` from a counting global allocator), and the report is
//! written as `BENCH_tick.json` (schema `fiveg-tick/v3`).
//!
//! The `des` section benchmarks the event-driven engine on sleep-eligible
//! SA scenarios: each is a fleet of one run on [`EngineMode::EventDriven`],
//! the same event loop every larger fleet uses. It reports UE·ticks
//! simulated per wall-second (skipped ticks count — they are simulated in
//! closed form, not dropped) and the fraction of ticks fast-forwarded
//! (`skip_ratio`), both taken from the run's `SchedSummary`. Before
//! timing, every des scenario is checked against the same fleet of one on
//! [`EngineMode::Stepped`]: identical control-plane summary and identical
//! logical tick count, so the skip ratio is never bought with less work.
//! `skip_ratio` is exact and machine-independent; the run fails outright if
//! it drops below [`SKIP_FLOOR`] on any des scenario. Each des row also
//! reports `plan_tiles`, the shadowing tiles the sleep planner's screen
//! hashed (telemetry counter `fleet.plan_tiles`): the screen builds a tile
//! only when a travel box first touches it, so the count follows the route,
//! not the deployment's extent. It also reports `plan_evals`, the exact
//! channel evaluations the planner's dry run paid for (serving series plus
//! neighbor replays, counter `fleet.plan_evals`): the work its screens
//! leave over.
//!
//! ```text
//! tick_bench [--smoke] [--iters N] [--out PATH] [--baseline PATH]
//! ```
//!
//! The snapshot row also reports `priced_cells_per_tick`: cells whose exact
//! rx the radio snapshot's bound-and-cull screen computed per tick, out of
//! `screened_cells_per_tick` in-radius cells it bounded. Both come from
//! replaying [`RadioSnapshot::refresh`] at every recorded `(pos, t)` of the
//! engine's traces — the engine's per-tick refresh calls — so they are
//! exact and machine-independent. The printed summary also gives the cells
//! per tick that passed the per-tick fading ceiling and paid for tier 1
//! (blockage and pattern loss), so it shows which tier does the culling;
//! that count is advisory and not in the report.
//!
//! Wall-clock numbers are machine-dependent by nature; the committed
//! `BENCH_tick.json` records them on the development machine. With
//! `--baseline`, the run gates the **machine-independent** metrics against
//! the committed report — the snapshot row's tick count and priced cells
//! per tick (bands) and its allocs/tick (lower is better), and each des
//! row's tick count, skip ratio, planner tile count and planner evaluation
//! count (bands) — and exits nonzero past [`perfgate::TOL`]; this is the
//! gating CI perf job. Absolute ticks/sec is printed as an advisory
//! comparison only, because the baseline's wall clock came from a different
//! machine than the CI runner's (see `fiveg_bench::perfgate`).

use fiveg_bench::perfgate::{self, Better, CountingAlloc, Gate, ALLOCS};
use fiveg_bench::report::JsonBuf;
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
const SCHEMA: &str = "fiveg-tick/v3";

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    smoke: bool,
    iters: usize,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { smoke: false, iters: 3, out: "BENCH_tick.json".into(), baseline: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse::<usize>().map_err(|_| format!("bad --iters value: {v}"))?;
                if args.iters == 0 {
                    return Err("--iters must be >= 1".into());
                }
            }
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--baseline" => args.baseline = Some(it.next().ok_or("--baseline needs a value")?),
            "--help" | "-h" => {
                println!("usage: tick_bench [--smoke] [--iters N] [--out PATH] [--baseline PATH]");
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

struct SnapshotResult {
    ticks: u64,
    elapsed_s: f64,
    ticks_per_sec: f64,
    allocs_per_tick: f64,
    /// `(screened, priced)` cells per tick.
    cells_per_tick: (f64, f64),
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
    }
    w
}

struct DesResult {
    label: &'static str,
    /// Logical ticks simulated per iteration (skipped ticks included).
    ticks: u64,
    /// Ticks fast-forwarded in closed form per iteration.
    skipped_ticks: u64,
    /// Sleep windows granted per iteration.
    sleeps: u64,
    /// `skipped_ticks / ticks` — exact and machine-independent.
    skip_ratio: f64,
    /// Shadowing tiles the sleep planner built per run — exact and
    /// machine-independent at the fixed one-thread geometry.
    plan_tiles: u64,
    /// Exact channel evaluations of the sleep planner's dry run per run —
    /// a pure function of the scenario, like `ticks`.
    plan_evals: u64,
    elapsed_s: f64,
    /// Logical UE·ticks simulated per wall-second over the timed passes.
    ue_ticks_per_sec: f64,
}

/// A fleet of one on `engine`: the event-driven single-UE engine, or its
/// stepped twin.
fn fleet_of_one(s: &Scenario, engine: EngineMode) -> FleetTrace {
    run_fleet_exec(&FleetSpec::new(s.clone(), 1), FleetExec::threads(1).engine(engine))
}

/// Times an event-driven fleet of one over one scenario (untimed warmup,
/// then `iters` passes). The returned work counts are per-iteration, the
/// throughput is aggregated over all timed passes.
fn bench_des(label: &'static str, s: &Scenario, iters: usize) -> DesResult {
    // the warmup doubles as the counted run: counters only, no timers
    let tele = Telemetry::new(TelemetryConfig::deterministic());
    let exec = FleetExec::threads(1).engine(EngineMode::EventDriven);
    run_fleet_exec_instrumented(&FleetSpec::new(s.clone(), 1), exec, &tele);
    let start = Instant::now();
    let mut last = fleet_of_one(s, EngineMode::EventDriven);
    for _ in 1..iters {
        last = fleet_of_one(s, EngineMode::EventDriven);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let ticks = last.ues[0].ticks;
    let sched = last.sched.expect("event-driven runs record a SchedSummary");
    DesResult {
        label,
        ticks,
        skipped_ticks: sched.skipped_ue_ticks,
        sleeps: sched.sleeps,
        skip_ratio: if ticks == 0 { 0.0 } else { sched.skipped_ue_ticks as f64 / ticks as f64 },
        plan_tiles: tele.counter_value("fleet.plan_tiles"),
        plan_evals: tele.counter_value("fleet.plan_evals"),
        elapsed_s,
        ue_ticks_per_sec: (ticks * iters as u64) as f64 / elapsed_s,
    }
}

/// Runs every scenario through the engine `iters` times (after one untimed
/// warmup pass) and aggregates the throughput over the timed runs.
fn bench_snapshot(set: &[(&'static str, Scenario)], iters: usize, cells_per_tick: (f64, f64)) -> SnapshotResult {
    // warmup (untimed): page in code and let the allocator settle
    let warm = Telemetry::new(TelemetryConfig::on());
    for (_, s) in set {
        s.run_instrumented(&warm);
    }

    let tele = Telemetry::new(TelemetryConfig::on());
    let allocs = tele.counter("bench.allocs");
    let mut elapsed_s = 0.0;
    for _ in 0..iters {
        for (_, s) in set {
            let before = ALLOCS.load(Ordering::Relaxed);
            let start = Instant::now();
            s.run_instrumented(&tele);
            elapsed_s += start.elapsed().as_secs_f64();
            allocs.add(ALLOCS.load(Ordering::Relaxed) - before);
        }
    }

    let ticks = tele.counter_value("sim.ticks");
    SnapshotResult {
        ticks,
        elapsed_s,
        ticks_per_sec: ticks as f64 / elapsed_s,
        allocs_per_tick: tele.counter_value("bench.allocs") as f64 / ticks as f64,
        cells_per_tick,
    }
}

fn report(mode: &str, iters: usize, set: &[(&'static str, Scenario)], p: &SnapshotResult, des: &[DesResult]) -> String {
    let mut j = JsonBuf::new();
    j.open('{');
    j.key("schema");
    j.str_val(SCHEMA);
    j.key("mode");
    j.str_val(mode);
    j.key("iters");
    j.uint(iters as u64);
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
    j.key("paths");
    j.open('[');
    j.open('{');
    j.key("path");
    j.str_val("snapshot");
    j.key("ticks");
    j.uint(p.ticks);
    j.key("elapsed_s");
    j.num(p.elapsed_s);
    j.key("ticks_per_sec");
    j.num(p.ticks_per_sec);
    j.key("allocs_per_tick");
    j.num(p.allocs_per_tick);
    j.key("screened_cells_per_tick");
    j.num(p.cells_per_tick.0);
    j.key("priced_cells_per_tick");
    j.num(p.cells_per_tick.1);
    j.close('}');
    j.close(']');
    j.key("des_skip_floor");
    j.num(SKIP_FLOOR);
    j.key("des");
    j.open('[');
    for d in des {
        j.open('{');
        j.key("des");
        j.str_val(d.label);
        j.key("ticks");
        j.uint(d.ticks);
        j.key("skipped_ticks");
        j.uint(d.skipped_ticks);
        j.key("sleeps");
        j.uint(d.sleeps);
        j.key("skip_ratio");
        j.num(d.skip_ratio);
        j.key("plan_tiles");
        j.uint(d.plan_tiles);
        j.key("plan_evals");
        j.uint(d.plan_evals);
        j.key("elapsed_s");
        j.num(d.elapsed_s);
        j.key("ue_ticks_per_sec");
        j.num(d.ue_ticks_per_sec);
        j.close('}');
    }
    j.close(']');
    j.close('}');
    j.finish_line()
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
    println!("tick bench '{}': {} scenario(s), {} iter(s)", mode, set.len(), args.iters);

    let mut work = SnapshotWork::default();
    for (_, s) in &set {
        let w = snapshot_work(s, &s.run());
        work.ticks += w.ticks;
        work.screened += w.screened;
        work.tier1 += w.tier1;
        work.priced += w.priced;
    }
    let per_tick = |n: u64| n as f64 / work.ticks as f64;
    let cells_per_tick = (per_tick(work.screened), per_tick(work.priced));

    // the des section must do the stepped engine's work: identical control
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

    let snapshot = bench_snapshot(&set, args.iters, cells_per_tick);
    println!(
        "  snapshot {:>8} ticks in {:>6.2} s  -> {:>8.0} ticks/s, {:>7.1} allocs/tick",
        snapshot.ticks, snapshot.elapsed_s, snapshot.ticks_per_sec, snapshot.allocs_per_tick
    );
    let (screened, snapshot_priced) = cells_per_tick;
    println!(
        "  snapshot prices {snapshot_priced:.1} of {screened:.1} screened cells/tick ({:.1} reach tier 1)",
        per_tick(work.tier1)
    );

    let mut des_results = Vec::new();
    for (label, s) in &des_set {
        let d = bench_des(label, s, args.iters);
        println!(
            "  des {:<12} {:>6} ticks ({} slept in {} windows, skip {:.3}, {} plan tiles, {} plan evals)  -> {:>9.0} UE·ticks/s",
            d.label, d.ticks, d.skipped_ticks, d.sleeps, d.skip_ratio, d.plan_tiles, d.plan_evals, d.ue_ticks_per_sec
        );
        if d.skip_ratio < SKIP_FLOOR {
            eprintln!("tick_bench: skip_ratio {:.3} on {} fell below the {SKIP_FLOOR} floor", d.skip_ratio, d.label);
            return ExitCode::FAILURE;
        }
        des_results.push(d);
    }

    let json = report(mode, args.iters, &set, &snapshot, &des_results);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("tick_bench: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  report -> {}", args.out);

    // Perf gate: the gated metrics are the machine-independent ones (work
    // counts, allocs, skip ratios); absolute ticks/sec is advisory because
    // the committed baseline's wall clock came from a different machine.
    if let Some(path) = &args.baseline {
        let committed = match perfgate::load_baseline(path, SCHEMA) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("tick_bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let snap = |metric: &str| perfgate::metric_after(&committed, r#""path":"snapshot""#, metric);
        let (Some(b_ticks), Some(b_apt), Some(b_priced), Some(b_tps)) =
            (snap("ticks"), snap("allocs_per_tick"), snap("priced_cells_per_tick"), snap("ticks_per_sec"))
        else {
            eprintln!("tick_bench: baseline {path} is missing snapshot metrics — reformatted or wrong file?");
            return ExitCode::FAILURE;
        };
        let mut gates = vec![
            Gate {
                what: "snapshot ticks".into(),
                baseline: b_ticks,
                current: snapshot.ticks as f64,
                better: Better::Band,
            },
            Gate {
                what: "snapshot allocs_per_tick".into(),
                baseline: b_apt,
                current: snapshot.allocs_per_tick,
                better: Better::Lower,
            },
            Gate {
                what: "snapshot priced_cells_per_tick".into(),
                baseline: b_priced,
                current: snapshot_priced,
                better: Better::Band,
            },
        ];
        println!("  perf gate vs {} (tol {:.0}%):", path, perfgate::TOL * 100.0);
        perfgate::advise("snapshot ticks_per_sec", b_tps, snapshot.ticks_per_sec);
        // des gates: logical work count, skip ratio, planner tiles and
        // planner evaluations are exact and machine-independent, so all four
        // are banded against the baseline; the tile band catches a screen
        // that goes back to hashing the whole deployment, the evaluation
        // band a screen that stops pruning. Wall-clock throughput stays
        // advisory like the snapshot row's.
        for d in &des_results {
            let needle = format!(r#""des":"{}""#, d.label);
            let des_metric = |metric: &str| perfgate::metric_after(&committed, &needle, metric);
            let (Some(b_dticks), Some(b_skip), Some(b_tiles), Some(b_evals), Some(b_utps)) = (
                des_metric("ticks"),
                des_metric("skip_ratio"),
                des_metric("plan_tiles"),
                des_metric("plan_evals"),
                des_metric("ue_ticks_per_sec"),
            ) else {
                eprintln!(
                    "tick_bench: baseline {path} is missing des metrics for {} — reformatted or wrong file?",
                    d.label
                );
                return ExitCode::FAILURE;
            };
            perfgate::advise(&format!("des {} ue_ticks_per_sec", d.label), b_utps, d.ue_ticks_per_sec);
            gates.push(Gate {
                what: format!("des {} ticks", d.label),
                baseline: b_dticks,
                current: d.ticks as f64,
                better: Better::Band,
            });
            gates.push(Gate {
                what: format!("des {} skip_ratio", d.label),
                baseline: b_skip,
                current: d.skip_ratio,
                better: Better::Band,
            });
            gates.push(Gate {
                what: format!("des {} plan_tiles", d.label),
                baseline: b_tiles,
                current: d.plan_tiles as f64,
                better: Better::Band,
            });
            gates.push(Gate {
                what: format!("des {} plan_evals", d.label),
                baseline: b_evals,
                current: d.plan_evals as f64,
                better: Better::Band,
            });
        }
        if !perfgate::evaluate(&gates) {
            eprintln!("tick_bench: gated metrics regressed beyond tolerance");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
