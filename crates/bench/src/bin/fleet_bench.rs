//! Fleet-throughput benchmark: UE·ticks/sec versus fleet size for the
//! sharded, load-coupled, event-driven fleet engine, and how much work its
//! scheduler skips by leaving quiescent UEs asleep.
//!
//! Every size runs the same pinned base scenario (city loop, OpY, SA, seed
//! 201) through [`fiveg_sim::fleet`] with the default heterogeneity
//! narrowed to a 10 s stagger window. The city/SA point is deliberately
//! sleep-eligible (idle workload, RSRP-only events) so the scheduler has
//! quiescence to harvest; an NSA fleet would never sleep (its B1 trigger is
//! SINR-quantity, see `fiveg_sim::wakeup`). Simulated duration is pinned
//! **per size** (60 s up to 10k UEs, 30 s at 100k, 10 s at 1M and beyond)
//! so the big sizes stay runnable while per-size numbers remain comparable
//! across commits and between `--smoke` and full mode — full mode simply
//! adds the 100k point. Summaries stream (no per-UE traces are retained),
//! `ue_ticks` comes from the deterministic per-UE tick counts in the
//! [`FleetTrace`], and `bench.allocs` from a counting global allocator.
//!
//! ```text
//! fleet_bench [--smoke] [--threads N] [--shards N] [--sizes CSV]
//!             [--verify-shards] [--tele-summary PATH]
//!             [--out PATH] [--baseline PATH]
//! ```
//!
//! Each size runs once, on [`EngineMode::EventDriven`], and records the
//! skipped work (`skipped_ue_ticks`, `skip_ratio`), the histogram of
//! realized sleep lengths, and the sleep planner's work: `plan_evals`, the
//! exact channel evaluations its dry runs paid for (telemetry counter
//! `fleet.plan_evals`), and `plan_tiles`, the shadowing tiles its screens
//! hashed (`fleet.plan_tiles`). It also records the radio snapshot's memo
//! work: `corner_hashes_per_ue_tick`, the shadowing corner gaussians the
//! UEs' refreshes hashed (counter `fleet.corner_hashes`) per UE·tick. After
//! each size it prints the process's peak resident set (`VmHWM`), so the
//! memory the awake UEs' memos cost stays visible.
//!
//! The report (`BENCH_fleet.json`, schema `fiveg-fleet/v7`) holds the
//! pinned configuration (threads, shards, the base scenario) and one gated
//! [`row`] per size; with `--baseline` the run gates them against the
//! committed report, pairing rows by `n_ues` value, and exits nonzero past
//! [`perfgate::TOL`] (see `fiveg_bench::perfgate`). A baseline of another
//! configuration is refused before anything runs: `plan_tiles` counts
//! per-worker memos, and which freed channel memo a waking UE takes moves
//! `corner_hashes_per_ue_tick`, so both are exact only at a fixed geometry.
//! UE·ticks/s, peak RSS and the ungated counts are printed only.
//!
//! `--verify-shards` is the other machine-independent gate, three checks
//! deep: (1) one migration-heavy fleet run with traces kept on 1 thread × 1
//! shard and on 2 threads × 4 shards must produce identical output, traces
//! included — at any `--threads`, so a multi-worker boundary exchange
//! always runs; (2) the same fleet without traces run in
//! [`EngineMode::Referee`] (the referee: sleeping UEs still step,
//! unsampled) and [`EngineMode::EventDriven`] (sleeping UEs skipped) must
//! produce byte-identical [`FleetTrace`]s across different shard counts —
//! with a non-vacuity check that sleep actually happened; (3) the
//! trace-keeping run of check 1, which never sleeps, must agree with the
//! event-driven run on every per-UE control-plane field and the load
//! summary. Any divergence exits nonzero before the timed runs start.

use fiveg_bench::perfgate::{self, Baseline, CountingAlloc, Row, ALLOCS};
use fiveg_ran::{Arch, Carrier};
use fiveg_sim::{
    run_fleet_exec_instrumented, EngineMode, FleetExec, FleetSpec, FleetTrace, Scenario, ScenarioBuilder, Telemetry,
    TelemetryConfig, UeSummary,
};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The report schema this binary writes and the only one it will gate
/// against.
const SCHEMA: &str = "fiveg-fleet/v7";

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    smoke: bool,
    threads: usize,
    shards: usize,
    sizes: Option<Vec<u32>>,
    verify_shards: bool,
    tele_summary: Option<String>,
    out: String,
    baseline: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        threads: 0,
        shards: 0,
        sizes: None,
        verify_shards: false,
        tele_summary: None,
        out: "BENCH_fleet.json".into(),
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse::<usize>().map_err(|_| format!("bad --threads value: {v}"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards = v.parse::<usize>().map_err(|_| format!("bad --shards value: {v}"))?;
            }
            "--sizes" => {
                let v = it.next().ok_or("--sizes needs a comma-separated list")?;
                let parsed: Result<Vec<u32>, _> = v.split(',').map(|s| s.trim().parse::<u32>()).collect();
                let sizes = parsed.map_err(|_| format!("bad --sizes value: {v}"))?;
                if sizes.is_empty() || sizes.contains(&0) {
                    return Err("--sizes needs at least one nonzero fleet size".into());
                }
                args.sizes = Some(sizes);
            }
            "--verify-shards" => args.verify_shards = true,
            "--tele-summary" => args.tele_summary = Some(it.next().ok_or("--tele-summary needs a value")?),
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--baseline" => args.baseline = Some(it.next().ok_or("--baseline needs a value")?),
            "--help" | "-h" => {
                println!(
                    "usage: fleet_bench [--smoke] [--threads N] [--shards N] [--sizes CSV] [--verify-shards] \
                     [--tele-summary PATH] [--out PATH] [--baseline PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.threads == 0 {
        args.threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    Ok(args)
}

/// Fleet sizes per mode. Per-size parameters (duration included) are pinned
/// by size alone, so a smoke run can be gated against a committed full-mode
/// baseline and an explicit `--sizes` run stays comparable to both.
fn sizes(smoke: bool) -> &'static [u32] {
    if smoke {
        &[1, 10, 100, 1000, 10_000]
    } else {
        &[1, 10, 100, 1000, 10_000, 100_000]
    }
}

/// Pinned simulated duration for a fleet size: long enough to dominate
/// setup cost, short enough that the big sizes finish. Pinned per size (not
/// per run) so every run of a given size executes the same work.
fn duration_s(n_ues: u32) -> f64 {
    if n_ues <= 10_000 {
        60.0
    } else if n_ues <= 100_000 {
        30.0
    } else {
        10.0
    }
}

/// The pinned base scenario every fleet size derives from (see
/// EXPERIMENTS.md, "Fleet benchmark"). City loop + SA keeps the fleet
/// sleep-eligible so the scheduler is actually exercised.
fn base_scenario(duration: f64) -> Scenario {
    ScenarioBuilder::city_loop(Carrier::OpY, 201).arch(Arch::Sa).duration_s(duration).sample_hz(10.0).build()
}

fn spec(n_ues: u32) -> FleetSpec {
    FleetSpec::new(base_scenario(duration_s(n_ues)), n_ues).stagger_s(10.0).speed_jitter(0.1)
}

/// The gated values of one size.
struct SizeResult {
    n_ues: u32,
    ue_ticks: u64,
    allocs_per_ue_tick: f64,
    /// `skipped_ue_ticks / ue_ticks` — the fraction of the fixed-step work
    /// the scheduler proved inert and never executed.
    skip_ratio: f64,
    /// Exact channel evaluations of the sleep planner's dry runs.
    plan_evals: u64,
    /// Shadowing tiles the sleep planner's screens hashed (per-worker
    /// memos, so exact at a fixed thread/shard geometry).
    plan_tiles: u64,
    /// Shadowing corner gaussians the radio refreshes hashed per UE·tick
    /// (memos recycled per worker, so exact at a fixed geometry).
    corner_hashes_per_ue_tick: f64,
}

/// Runs one size, printing the throughput and the ungated counts.
fn bench_size(n_ues: u32, exec: FleetExec, sink: Option<&Telemetry>) -> SizeResult {
    // journal-less deterministic telemetry: cheap enough to leave on in the
    // timed region, and it carries the fleet.* work counters
    let tele = Telemetry::new(TelemetryConfig { enabled: true, journal_capacity: 0, timing: false });
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let ft: FleetTrace = run_fleet_exec_instrumented(&spec(n_ues), exec, &tele);
    let elapsed_s = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    if let Some(s) = sink {
        s.absorb(&tele);
    }

    // deterministic work count, straight from the trace (equals the
    // absorbed sim.ticks counter; independent of threads and shards)
    let ue_ticks: u64 = ft.ues.iter().map(|u| u.ticks).sum();
    let sched = ft.sched.expect("every fleet run records a SchedSummary");
    let r = SizeResult {
        n_ues,
        ue_ticks,
        allocs_per_ue_tick: allocs as f64 / ue_ticks as f64,
        skip_ratio: sched.skipped_ue_ticks as f64 / ue_ticks as f64,
        plan_evals: tele.counter_value("fleet.plan_evals"),
        plan_tiles: tele.counter_value("fleet.plan_tiles"),
        corner_hashes_per_ue_tick: tele.counter_value("fleet.corner_hashes") as f64 / ue_ticks as f64,
    };
    println!(
        "  {:>7} UEs  {:>10} UE·ticks in {:>7.2} s -> {:>9.0} UE·ticks/s, {:>6.2} allocs/UE·tick, peak cell {:>5}, {:>6} migrations",
        n_ues,
        ue_ticks,
        elapsed_s,
        ue_ticks as f64 / elapsed_s,
        r.allocs_per_ue_tick,
        ft.load.peak_cell_ues,
        tele.counter_value("fleet.migrations")
    );
    println!(
        "          skip ratio {:.3} ({} sleeps, {} load wakes, wake hist {:?}), {} plan evals, {} plan tiles",
        r.skip_ratio, sched.sleeps, sched.load_wakes, sched.wake_hist, r.plan_evals, r.plan_tiles
    );
    println!(
        "          {:.3} corner hashes/UE·tick, peak RSS {}",
        r.corner_hashes_per_ue_tick,
        peak_rss_mb().map_or("n/a".into(), |mb| format!("{mb:.1} MB"))
    );
    r
}

/// The process's peak resident set so far, MB: `VmHWM` from
/// `/proc/self/status`, `None` where that file does not exist.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?;
    Some(kb.trim().parse::<f64>().ok()? / 1024.0)
}

/// The gated row of one size: `ue_ticks`, `skip_ratio`, `plan_evals`,
/// `plan_tiles` and `corner_hashes_per_ue_tick` as bands (each a count, or
/// a ratio of counts, exact for the pinned scenario at a fixed geometry),
/// plus `allocs_per_ue_tick`, lower is better. No elapsed time is gated.
fn row(r: &SizeResult) -> Row {
    Row::new("n_ues", u64::from(r.n_ues))
        .band("ue_ticks", r.ue_ticks as f64)
        .lower("allocs_per_ue_tick", r.allocs_per_ue_tick)
        .band("skip_ratio", r.skip_ratio)
        .band("plan_evals", r.plan_evals as f64)
        .band("plan_tiles", r.plan_tiles as f64)
        .band("corner_hashes_per_ue_tick", r.corner_hashes_per_ue_tick)
}

/// The pinned configuration every size's gated row depends on.
fn config(threads: usize, shards: usize) -> String {
    let base = base_scenario(duration_s(1));
    perfgate::config(|j| {
        j.key("threads");
        j.uint(threads as u64);
        j.key("shards");
        j.uint(shards as u64);
        j.key("base");
        j.open('{');
        j.key("seed");
        j.uint(base.seed);
        j.key("sample_hz");
        j.num(base.sample_hz);
        j.key("stagger_s");
        j.num(10.0);
        j.key("speed_jitter");
        j.num(0.1);
        j.close('}');
    })
}

/// The machine-independent equivalence gates: thread and shard invariance of
/// a never-sleeping (trace-keeping) fleet, byte-identity of referee vs
/// event-driven scheduling, and control-plane agreement of the
/// never-sleeping run with the event-driven one. Returns false (and prints
/// why) on any divergence.
fn verify_shards(threads: usize) -> bool {
    let spec = FleetSpec::new(base_scenario(20.0), 64).stagger_s(10.0).speed_jitter(0.1);

    // 1. traces retained (so no UE ever sleeps), 1 thread x 1 shard vs 2
    //    threads x 4 shards: whatever --threads is, a multi-worker exchange
    //    runs
    let kept = spec.clone().keep_traces(true);
    let one = fiveg_sim::run_fleet_exec(&kept, FleetExec::threads(1).shards(1));
    let four = fiveg_sim::run_fleet_exec(&kept, FleetExec::threads(2).shards(4));
    if one != four {
        eprintln!("fleet_bench: FleetTrace differs between 1x1 and 2x4 threads x shards — exchange broke determinism");
        return false;
    }
    if one.sched.as_ref().map_or(0, |s| s.sleeps) != 0 {
        eprintln!("fleet_bench: a trace-keeping fleet slept — it is no fixed-step reference");
        return false;
    }
    println!("  geometry invariance: 1x1 == 2x4 threads x shards over {} UEs ({} ticks)  ok", 64, one.meta.ticks);

    // 2. referee vs event-driven: byte-identical across shard counts. The
    //    referee steps sleeping UEs with full control plane, so equality
    //    proves every granted sleep window really was inert.
    let referee = fiveg_sim::run_fleet_exec(&spec, FleetExec::threads(threads).shards(1).engine(EngineMode::Referee));
    let event = fiveg_sim::run_fleet_exec(&spec, FleetExec::threads(threads).shards(4).engine(EngineMode::EventDriven));
    if referee != event {
        eprintln!(
            "fleet_bench: event-driven FleetTrace differs from the EngineMode::Referee run — unsound wakeup bound"
        );
        return false;
    }
    let Some(sched) = &event.sched else {
        eprintln!("fleet_bench: event-driven run carried no SchedSummary");
        return false;
    };
    if sched.sleeps == 0 || sched.skipped_ue_ticks == 0 {
        eprintln!("fleet_bench: verification fleet never slept — the mode-equivalence check is vacuous");
        return false;
    }
    println!(
        "  mode identity: referee == event-driven ({} sleeps, {} skipped UE·ticks)  ok",
        sched.sleeps, sched.skipped_ue_ticks
    );

    // 3. never-sleeping vs event-driven: the control plane and the load
    //    summary must agree; only the data-plane sampling aggregates
    //    (mean_capacity and friends) may differ, because sleeping UEs do not
    //    sample.
    if one.meta != event.meta || one.load != event.load {
        eprintln!("fleet_bench: never-sleeping vs event-driven meta/load summary diverged");
        return false;
    }
    for (f, e) in one.ues.iter().zip(event.ues.iter()) {
        let control = |u: &UeSummary| ((u.ue, u.seed, u.start_tick, u.reversed), u.control());
        if control(f) != control(e) {
            eprintln!("fleet_bench: never-sleeping vs event-driven control plane diverged for UE {}", f.ue);
            return false;
        }
    }
    println!("  control identity: never-sleeping == event-driven over {} UEs  ok", one.ues.len());
    true
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleet_bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mode = if args.smoke { "smoke" } else { "full" };
    let set: Vec<u32> = args.sizes.clone().unwrap_or_else(|| sizes(args.smoke).to_vec());
    let exec = FleetExec::threads(args.threads).shards(args.shards);
    let shards_shown = if args.shards == 0 { args.threads } else { args.shards };
    let config = config(args.threads, shards_shown);
    let baseline = match args.baseline.as_deref().map(|p| Baseline::load(p, SCHEMA, &config)).transpose() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("fleet_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("fleet bench '{}': sizes {:?}, {} thread(s), {} shard(s)", mode, set, args.threads, shards_shown);

    if args.verify_shards && !verify_shards(args.threads) {
        return ExitCode::FAILURE;
    }

    // the cross-size telemetry sink behind --tele-summary
    let sink = args.tele_summary.as_ref().map(|_| Telemetry::new(TelemetryConfig::deterministic()));

    // warmup (untimed): page in code and let the allocator settle
    run_fleet_exec_instrumented(&spec(1), exec, &Telemetry::disabled());

    let rows: Vec<Row> = set.iter().map(|&n| row(&bench_size(n, exec, sink.as_ref()))).collect();

    if let Err(e) = std::fs::write(&args.out, perfgate::report(SCHEMA, &config, &rows)) {
        eprintln!("fleet_bench: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  report -> {}", args.out);

    if let (Some(path), Some(s)) = (&args.tele_summary, &sink) {
        if let Err(e) = std::fs::write(path, s.summary()) {
            eprintln!("fleet_bench: writing telemetry summary {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  telemetry summary -> {path}");
    }

    match baseline.map(|b| b.gate(&rows)) {
        None | Some(Ok(true)) => ExitCode::SUCCESS,
        Some(Ok(false)) => {
            eprintln!("fleet_bench: gated metrics regressed beyond tolerance");
            ExitCode::FAILURE
        }
        Some(Err(e)) => {
            eprintln!("fleet_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every gated entry comes back out of the report this binary writes:
    /// an entry the writer drops would otherwise surface only when a
    /// regenerated baseline fails to gate it.
    #[test]
    fn every_gated_entry_round_trips_through_the_report() {
        let sizes = [
            SizeResult {
                n_ues: 100,
                ue_ticks: 60_000,
                allocs_per_ue_tick: 0.26035,
                skip_ratio: 0.8271666666666667,
                plan_evals: 736_276,
                plan_tiles: 672,
                corner_hashes_per_ue_tick: 2.5,
            },
            SizeResult {
                n_ues: 1000,
                ue_ticks: 600_000,
                allocs_per_ue_tick: 0.250475,
                skip_ratio: 0.822655,
                plan_evals: 7_519_344,
                plan_tiles: 672,
                corner_hashes_per_ue_tick: 2.5,
            },
        ];
        let rows: Vec<Row> = sizes.iter().map(row).collect();
        let config = config(1, 16);
        let own = perfgate::report(SCHEMA, &config, &rows);
        let gates = Baseline::parse("own report", own, SCHEMA, &config).unwrap().gates(&rows).unwrap();
        assert_eq!(gates.len(), 12, "six gated entries per size");
        assert!(gates.iter().all(|g| g.baseline == g.current), "{gates:?}");
    }
}
